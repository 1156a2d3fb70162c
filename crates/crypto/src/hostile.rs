//! Damaged copies of valid encodings, for the decoder tests of every crate.
//!
//! A decoder in front of a verifier must refuse what a hostile host can
//! make of a valid message without panicking, and whatever it accepts
//! must be judged by the verifier on its own bytes. This module yields the
//! damage to try: every strict prefix and every single-bit flip.

/// Every strict prefix and every single-bit flip of `valid`, prefixes
/// first (shortest first), then flips in bit order.
///
/// ```
/// use teenet_crypto::hostile::truncations_and_flips;
/// let damaged: Vec<Vec<u8>> = truncations_and_flips(&[0x80]).collect();
/// assert_eq!(damaged.len(), 1 + 8);
/// assert_eq!(damaged[0], b"");
/// assert_eq!(damaged[8], [0x00]);
/// ```
pub fn truncations_and_flips(valid: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let prefixes = (0..valid.len()).map(|n| valid[..n].to_vec());
    let flips = (0..valid.len() * 8).map(|bit| {
        let mut bytes = valid.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        bytes
    });
    prefixes.chain(flips)
}
