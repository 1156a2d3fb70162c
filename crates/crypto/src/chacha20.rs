//! ChaCha20 stream cipher (RFC 7539).
//!
//! Used as an alternative record cipher (for the cipher-suite ablation
//! benchmark) and as the core of [`crate::rng::SecureRng`].
//!
//! Both draw their keystream from one wide kernel, `blocks4`: four
//! consecutive blocks computed lane-wise, word *i* of all four in one
//! 128-bit vector, so the rounds need no shuffles and four dependency
//! chains overlap where a single block is latency-bound. On x86_64 it is
//! SSE2 intrinsics; SSE2 is in the x86_64 baseline, so there is no runtime
//! detection and no AVX2 path: every x86_64 host runs the same code.
//! Elsewhere it is the scalar [`block`] function four times, which is also
//! the oracle the tests hold the vector kernel to.
//!
//! The call into the kernel is one of the workspace's three `unsafe`
//! sites (the others are SHA-256's call into the SHA extensions and the
//! IFMA Montgomery kernel in `bignum::ifma`): rustc asks it of any
//! `#[target_feature]` function, and it is sound because it
//! is compiled only under `cfg(target_feature = "sse2")`. Inside, every
//! intrinsic takes and returns values; no pointer is formed.

use crate::error::CryptoError;
use crate::Result;

/// ChaCha20 key size in bytes.
pub const KEY_LEN: usize = 32;
/// ChaCha20 nonce size in bytes (RFC 7539 96-bit nonce).
pub const NONCE_LEN: usize = 12;

/// The block function's input as little-endian words: four constants, the
/// key, the block counter (word [`COUNTER`]) and the nonce.
pub(crate) type State = [u32; 16];
pub(crate) const COUNTER: usize = 12;

/// The input state of block `counter` under `key` and `nonce`.
pub(crate) fn state(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> State {
    let mut bytes = [0u8; 64];
    bytes[..16].copy_from_slice(b"expand 32-byte k");
    bytes[16..48].copy_from_slice(key);
    bytes[48..52].copy_from_slice(&counter.to_le_bytes());
    bytes[52..].copy_from_slice(nonce);
    std::array::from_fn(|i| u32::from_le_bytes(bytes[4 * i..][..4].try_into().expect("4 bytes")))
}

#[inline]
fn quarter_round(state: &mut State, a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The one block of the input state `initial` (scalar).
pub(crate) fn block_of(initial: &State) -> [u8; 64] {
    let mut state = *initial;
    for _ in 0..10 {
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = state[i].wrapping_add(initial[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Computes one 64-byte ChaCha20 block for the given key/nonce/counter.
pub fn block(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; 64] {
    block_of(&state(key, nonce, counter))
}

/// The four blocks of `initial`'s counter and the three after it (wrapping,
/// as [`apply`] counts), in stream order.
pub(crate) fn blocks4(initial: &State) -> [u8; 256] {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    #[allow(unsafe_code)]
    {
        // SAFETY: `blocks4_sse2` requires SSE2, and this call is compiled
        // only under `cfg(target_feature = "sse2")`.
        unsafe { blocks4_sse2(initial) }
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
    blocks4_portable(initial)
}

/// [`blocks4`] as four scalar blocks: the kernel off x86_64, the oracle on it.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
fn blocks4_portable(initial: &State) -> [u8; 256] {
    let mut state = *initial;
    let mut out = [0u8; 256];
    for chunk in out.chunks_exact_mut(64) {
        chunk.copy_from_slice(&block_of(&state));
        state[COUNTER] = state[COUNTER].wrapping_add(1);
    }
    out
}

/// [`blocks4`] lane-wise: lane `j` of `v[i]` is word `i` of block `counter + j`.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[target_feature(enable = "sse2")]
fn blocks4_sse2(initial: &State) -> [u8; 256] {
    use std::arch::x86_64::*;
    macro_rules! rotl {
        ($x:expr, $n:literal) => {
            _mm_or_si128(_mm_slli_epi32::<$n>($x), _mm_srli_epi32::<{ 32 - $n }>($x))
        };
    }
    macro_rules! quarter_round {
        ($v:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $v[$a] = _mm_add_epi32($v[$a], $v[$b]);
            $v[$d] = rotl!(_mm_xor_si128($v[$d], $v[$a]), 16);
            $v[$c] = _mm_add_epi32($v[$c], $v[$d]);
            $v[$b] = rotl!(_mm_xor_si128($v[$b], $v[$c]), 12);
            $v[$a] = _mm_add_epi32($v[$a], $v[$b]);
            $v[$d] = rotl!(_mm_xor_si128($v[$d], $v[$a]), 8);
            $v[$c] = _mm_add_epi32($v[$c], $v[$d]);
            $v[$b] = rotl!(_mm_xor_si128($v[$b], $v[$c]), 7);
        };
    }

    let mut input = initial.map(|word| _mm_set1_epi32(word as i32));
    input[COUNTER] = _mm_add_epi32(input[COUNTER], _mm_set_epi32(3, 2, 1, 0));
    let mut v = input;
    for _ in 0..10 {
        quarter_round!(v, 0, 4, 8, 12);
        quarter_round!(v, 1, 5, 9, 13);
        quarter_round!(v, 2, 6, 10, 14);
        quarter_round!(v, 3, 7, 11, 15);
        quarter_round!(v, 0, 5, 10, 15);
        quarter_round!(v, 1, 6, 11, 12);
        quarter_round!(v, 2, 7, 8, 13);
        quarter_round!(v, 3, 4, 9, 14);
    }
    // Transpose each group of four words: a row is 16 bytes of one block.
    let mut out = [0u8; 256];
    for g in 0..4 {
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| _mm_add_epi32(v[4 * g + i], input[4 * g + i]));
        let (ab_lo, ab_hi) = (_mm_unpacklo_epi32(a, b), _mm_unpackhi_epi32(a, b));
        let (cd_lo, cd_hi) = (_mm_unpacklo_epi32(c, d), _mm_unpackhi_epi32(c, d));
        let rows = [
            _mm_unpacklo_epi64(ab_lo, cd_lo),
            _mm_unpackhi_epi64(ab_lo, cd_lo),
            _mm_unpacklo_epi64(ab_hi, cd_hi),
            _mm_unpackhi_epi64(ab_hi, cd_hi),
        ];
        for (j, row) in rows.into_iter().enumerate() {
            let halves = [row, _mm_unpackhi_epi64(row, row)].map(|half| _mm_cvtsi128_si64(half));
            out[64 * j + 16 * g..][..8].copy_from_slice(&halves[0].to_le_bytes());
            out[64 * j + 16 * g + 8..][..8].copy_from_slice(&halves[1].to_le_bytes());
        }
    }
    out
}

/// Applies the ChaCha20 keystream to `data` in place (encrypt == decrypt),
/// starting at block `counter`.
pub fn apply(key: &[u8], nonce: &[u8], counter: u32, data: &mut [u8]) -> Result<()> {
    let key: &[u8; KEY_LEN] = key.try_into().map_err(|_| CryptoError::InvalidLength {
        what: "ChaCha20 key",
        got: key.len(),
        expected: KEY_LEN,
    })?;
    let nonce: &[u8; NONCE_LEN] = nonce.try_into().map_err(|_| CryptoError::InvalidLength {
        what: "ChaCha20 nonce",
        got: nonce.len(),
        expected: NONCE_LEN,
    })?;
    let xor = |data: &mut [u8], ks: &[u8]| data.iter_mut().zip(ks).for_each(|(d, k)| *d ^= k);
    let mut state = state(key, nonce, counter);
    let mut spans = data.chunks_exact_mut(256);
    for span in &mut spans {
        xor(span, &blocks4(&state));
        state[COUNTER] = state[COUNTER].wrapping_add(4);
    }
    for chunk in spans.into_remainder().chunks_mut(64) {
        xor(chunk, &block_of(&state));
        state[COUNTER] = state[COUNTER].wrapping_add(1);
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Both four-block kernels: the one in use, and the scalar oracle
    /// (on x86_64 they differ; elsewhere they are the same function).
    const KERNELS: [fn(&State) -> [u8; 256]; 2] = [blocks4, blocks4_portable];

    // RFC 7539 §2.3.2 block function test vector: through `block`, and
    // through the wide kernels as lane 1 of `counter = 0`.
    #[test]
    fn rfc7539_block() {
        let key: [u8; 32] =
            unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("000000090000004a00000000").try_into().unwrap();
        let expected = unhex(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
        );
        assert_eq!(block(&key, &nonce, 1).to_vec(), expected);
        for kernel in KERNELS {
            assert_eq!(kernel(&state(&key, &nonce, 0))[64..128], expected[..]);
        }
    }

    // RFC 7539 Appendix A.1, test vectors #1-#3 (all under a zero nonce).
    #[test]
    fn rfc7539_appendix_a1() {
        let zero_key = [0u8; 32];
        let mut key_one = [0u8; 32];
        key_one[31] = 1;
        let vectors = [
            (
                zero_key,
                0,
                "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7\
                 da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586",
            ),
            (
                zero_key,
                1,
                "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed\
                 29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f",
            ),
            (
                key_one,
                1,
                "3aeb5224ecf849929b9d828db1ced4dd832025e8018b8160b82284f3c949aa5a\
                 8eca00bbb4a73bdad192b5c42f73f2fd4e273644c8b36125a64addeb006c13a0",
            ),
        ];
        for (key, counter, keystream) in vectors {
            let expected = unhex(keystream);
            assert_eq!(block(&key, &[0u8; 12], counter).to_vec(), expected);
            // As the kernels' first lane, and as their last.
            for kernel in KERNELS {
                let first = kernel(&state(&key, &[0u8; 12], counter));
                assert_eq!(first[..64], expected[..]);
                let last = kernel(&state(&key, &[0u8; 12], counter.wrapping_sub(3)));
                assert_eq!(last[192..], expected[..]);
            }
        }
    }

    #[test]
    fn wide_kernels_equal_four_single_blocks() {
        let counters = [0, 1, 77].into_iter().chain(u32::MAX - 3..=u32::MAX);
        for counter in counters {
            for i in 0..16u8 {
                let key = crate::sha256::sha256(&[i]);
                let nonce: [u8; 12] = crate::sha256::sha256(&[i, 1])[..12].try_into().unwrap();
                let singles: Vec<u8> = (0..4)
                    .flat_map(|j| block(&key, &nonce, counter.wrapping_add(j)))
                    .collect();
                for kernel in KERNELS {
                    let wide = kernel(&state(&key, &nonce, counter));
                    assert_eq!(wide[..], singles[..], "counter {counter}, key {i}");
                }
            }
        }
    }

    #[test]
    fn apply_equals_a_bytewise_reference_at_every_span_seam() {
        let key = crate::sha256::sha256(b"apply");
        let nonce = [7u8; 12];
        // From 0, and from where a 256-byte span wraps the counter.
        for counter in [0, u32::MAX - 2] {
            for len in [0, 1, 63, 64, 65, 255, 256, 257, 1_000] {
                let plain: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
                let expected: Vec<u8> = (0..len)
                    .map(|i| {
                        let at = counter.wrapping_add((i / 64) as u32);
                        plain[i] ^ block(&key, &nonce, at)[i % 64]
                    })
                    .collect();
                let mut data = plain;
                apply(&key, &nonce, counter, &mut data).unwrap();
                assert_eq!(data, expected, "counter {counter}, len {len}");
            }
        }
    }

    // RFC 7539 §2.4.2 encryption test vector.
    #[test]
    fn rfc7539_encrypt() {
        let key = unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let nonce = unhex("000000000000004a00000000");
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it."
            .to_vec();
        apply(&key, &nonce, 1, &mut data).unwrap();
        assert_eq!(
            data,
            unhex(
                "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
                 f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
                 07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
                 5af90bbf74a35be6b40b8eedf2785e42874d"
            )
        );
        // Round trip.
        // teenet-analyze: allow(seal-nonce-reuse) -- round-trip against the RFC 7539 vector: decryption requires the same nonce by definition
        apply(&key, &nonce, 1, &mut data).unwrap();
        assert!(data.starts_with(b"Ladies and Gentlemen"));
    }

    #[test]
    fn rejects_bad_lengths() {
        let mut data = [0u8; 4];
        assert!(apply(&[0u8; 31], &[0u8; 12], 0, &mut data).is_err());
        assert!(apply(&[0u8; 32], &[0u8; 11], 0, &mut data).is_err());
    }

    #[test]
    fn counter_advances_across_blocks() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut long = vec![0u8; 128];
        apply(&key, &nonce, 0, &mut long).unwrap();
        // Second 64-byte block must equal a fresh application at counter 1.
        let mut second = vec![0u8; 64];
        // teenet-analyze: allow(seal-nonce-reuse) -- the test checks counter advancement, which needs the same (key, nonce) keystream at two offsets
        apply(&key, &nonce, 1, &mut second).unwrap();
        assert_eq!(&long[64..], &second[..]);
    }
}
