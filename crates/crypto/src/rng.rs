//! Deterministic ChaCha20-based CSPRNG.
//!
//! Every source of randomness in the workspace flows through [`SecureRng`]
//! seeded explicitly, so all experiments (topologies, key generation, fault
//! injection) are bit-for-bit reproducible — a requirement for reproducing
//! the paper's instruction-count tables.
//!
//! The stream is RFC 7539's keystream, generated sixteen blocks (1 KiB)
//! per refill by `chacha20::blocks16`; `next_u64` reads straight out of
//! that buffer and reaches `fill_bytes` only across a refill.
//! The last sixteen blocks before `u32::MAX`, where sixteen would wrap the
//! counter under the old nonce, are refilled one block at a time, so the
//! nonce rolls after exactly block `u32::MAX`.

use crate::chacha20::{self, COUNTER};
use crate::sha256::Sha256;

/// Bytes generated per refill: sixteen ChaCha20 blocks.
const BUF_LEN: usize = 1024;

/// A seedable, deterministic cryptographically-strong PRNG.
///
/// Output is the ChaCha20 keystream under a SHA-256-derived key; the stream
/// position advances monotonically and never repeats for a given seed.
#[derive(Clone)]
pub struct SecureRng {
    /// Input state of the next block to generate (key, counter, nonce).
    state: chacha20::State,
    /// The bytes not yet handed out are `buffer[used..]`.
    buffer: [u8; BUF_LEN],
    used: usize,
}

impl SecureRng {
    /// Creates an RNG from an arbitrary-length seed.
    pub fn from_seed(seed: &[u8]) -> Self {
        Self::from_key(&crate::sha256::sha256(seed))
    }

    /// The RNG whose stream is the keystream of `key` from block 0.
    fn from_key(key: &[u8; chacha20::KEY_LEN]) -> Self {
        SecureRng {
            state: chacha20::state(key, &[0u8; 12], 0),
            buffer: [0u8; BUF_LEN],
            used: BUF_LEN, // force refill on first use
        }
    }

    /// Convenience constructor from a `u64` seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self::from_seed(&seed.to_le_bytes())
    }

    /// Derives an independent child RNG labelled by `label`.
    ///
    /// Children with distinct labels produce independent streams; the parent
    /// stream is not perturbed. The child is `from_seed(key ‖ label)`, with
    /// the parent's key as its 32 bytes, hashed without building that seed.
    pub fn fork(&self, label: &[u8]) -> Self {
        let mut key = [0u8; chacha20::KEY_LEN];
        for (bytes, word) in key.chunks_exact_mut(4).zip(&self.state[4..COUNTER]) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        let mut hasher = Sha256::new();
        hasher.update(&key);
        hasher.update(label);
        Self::from_key(&hasher.finalize())
    }

    #[cold]
    fn refill(&mut self) {
        if let Some(next) = self.state[COUNTER].checked_add(16) {
            (self.buffer, self.used) = (chacha20::blocks16(&self.state), 0);
            self.state[COUNTER] = next;
            return;
        }
        self.used = BUF_LEN - 64;
        self.buffer[self.used..].copy_from_slice(&chacha20::block_of(&self.state));
        self.state[COUNTER] = self.state[COUNTER].checked_add(1).unwrap_or_else(|| {
            // Counter exhausted (2^32 blocks = 256 GiB): roll the nonce.
            self.state[13] = self.state[13].wrapping_add(1);
            self.state[14] = self.state[14].wrapping_add(u32::from(self.state[13] == 0));
            0
        });
    }

    /// Fills `dest` with random bytes.
    #[inline(never)] // also the slow path of the word reads: keep it out of them
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut written = 0;
        while written < dest.len() {
            if self.used == BUF_LEN {
                self.refill();
            }
            let take = (dest.len() - written).min(BUF_LEN - self.used);
            dest[written..written + take]
                .copy_from_slice(&self.buffer[self.used..self.used + take]);
            self.used += take;
            written += take;
        }
    }

    /// The next `N` bytes: out of the buffer if it holds them, else across a refill.
    #[inline]
    fn take<const N: usize>(&mut self) -> [u8; N] {
        if let Some(&bytes) = self.buffer[self.used..].first_chunk() {
            self.used += N;
            return bytes;
        }
        let mut bytes = [0u8; N];
        self.fill_bytes(&mut bytes);
        bytes
    }

    /// Returns a uniformly random `u64`.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    /// Returns a uniformly random value in `[0, bound)` (Lemire-style
    /// rejection to avoid modulo bias). `bound` must be nonzero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be nonzero");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let (hi, lo) = {
                let wide = (r as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha20::tests::unhex;

    impl SecureRng {
        /// A stream positioned at block `counter` of 64-bit nonce `nonce`.
        fn positioned(seed: u64, nonce: u64, counter: u32) -> Self {
            let mut rng = SecureRng::seed_from_u64(seed);
            rng.state[COUNTER] = counter;
            (rng.state[13], rng.state[14]) = (nonce as u32, (nonce >> 32) as u32);
            rng
        }

        /// Returns a uniformly random `u32`.
        fn next_u32(&mut self) -> u32 {
            u32::from_le_bytes(self.take())
        }
    }

    // Taken from the single-block, 64-byte-buffer implementation this one
    // replaced: 320 bytes span its refill seams (64, 128, …) and the
    // four-block one at 256.
    #[test]
    fn known_answer_first_320_bytes() {
        let root = SecureRng::seed_from_u64(42);
        let streams = [
            (
                root.clone(),
                "0d0231cc322b22a46dd76a34b43fd826eb57695accfa4d07579ea98bbe15043b\
                 73ca954f80b816af37b8af5daa7d2cf795b0f150eb04a8a086daaf222e9a5699\
                 a74477fa753db6d937b72c7ae10092b3f1dc35774320a2ac02a3ce807f4ca441\
                 5840153febe21d9de853689821d73903828c378ee5dcb2f8c6cd5095f72edca7\
                 00f2293491e8e0769890c143f0a6fa7e6bbca12fff014e02997554fda60ef82a\
                 422d99474f5ef612cb01fe87d40e25bdd4aa885fe39e27c0513f8185874a5faa\
                 cb8861595a40db6461c37ae1c73baa62558430433d66d2a353039618c9f2f507\
                 fb2aece2885bdd231e84281db4cff8f4361b89b809273b5bcd3041b2b61bcb24\
                 f79c50895f41962a65cee2c44cf7f405d730db0665a61bf385a90398615f161a\
                 e7bcb0255c0f36903e4cf92c1667ec01d13dc7d74d7b48bb4a23b1736b92a080",
            ),
            (
                root.fork(b"link"),
                "a6816dfd3e17be49df7be26f817ccb26867b0618acebf16f0b77367c4be37432\
                 c2c286c3b7ef5897fb734bcfabbde3ac2886d772d44c361016269a52dd73256f\
                 2a6ed9004b7b28bf06fd3d8e5ce4ed3a426a578f492deef31bac63bea9b0dbe5\
                 eec0cfe6807066f02bb713b42627e9711633732db98e38423ec117e6781df862\
                 44cab3fe69376f4ec7b895e54d60c0439320166b22bdfa57841433f6ddcf8cd8\
                 2af44377b2a480a093e2c06492f783c419e24cdba2d12f2c6fbaaad4064b768f\
                 ee8da6253968531c7e6effb157a292ca5c387ee25a092715e48ad4387f8feded\
                 8e5ff8390ab3507dd919de0b8844fd4d745dbc5e9f130ee0f3be048e8fba0a5a\
                 cc328a942aac08027a6a43190dd9bf74622eb95edd4ea1d66801e10c8d3f1dec\
                 e8b3d7dc365e0b6d0e1985646b39466edbeafd5626d616b6b3cca13ee8150fc0",
            ),
        ];
        for (mut rng, expected) in streams {
            let mut bytes = [0u8; 320];
            rng.fill_bytes(&mut bytes);
            assert_eq!(bytes.to_vec(), unhex(expected));
        }
    }

    // Word reads take their bytes in stream order, whether they come
    // straight out of the buffer or straddle a refill (after the 3-byte
    // read, the 128th `next_u64` straddles the refill at byte 1 024).
    #[test]
    fn mixed_reads_equal_the_stream_byte_by_byte() {
        let mut rng = SecureRng::seed_from_u64(42);
        let mut mixed = Vec::new();
        mixed.extend(rng.next_u32().to_le_bytes());
        mixed.extend(rng.next_u64().to_le_bytes());
        let mut three = [0u8; 3];
        rng.fill_bytes(&mut three);
        mixed.extend(three);
        for _ in 0..140 {
            mixed.extend(rng.next_u64().to_le_bytes());
        }
        let mut bytewise = SecureRng::seed_from_u64(42);
        for (i, &expected) in mixed.iter().enumerate() {
            let mut one = [0u8; 1];
            bytewise.fill_bytes(&mut one);
            assert_eq!(one[0], expected, "byte {i}");
        }
    }

    // Across the end of a nonce the stream is the one single-block refills
    // produced: block `u32::MAX` under the old nonce, then block 0 under
    // the next — from every alignment of the sixteen-block refill to the
    // roll, through the first refill after it, and with a carry out of the
    // nonce's low word.
    #[test]
    fn nonce_rolls_after_exactly_the_last_block() {
        let key = crate::sha256::sha256(&9u64.to_le_bytes());
        for nonce in [0u64, u64::from(u32::MAX)] {
            for start in u32::MAX - 31..=u32::MAX {
                let mut expected = Vec::new();
                let (mut n, mut counter) = (nonce, start);
                for _ in 0..64 {
                    let mut nonce_bytes = [0u8; 12];
                    nonce_bytes[..8].copy_from_slice(&n.to_le_bytes());
                    expected.extend(chacha20::block(&key, &nonce_bytes, counter));
                    counter = counter.checked_add(1).unwrap_or_else(|| {
                        n = n.wrapping_add(1);
                        0
                    });
                }
                let mut bytes = [0u8; 64 * 64];
                SecureRng::positioned(9, nonce, start).fill_bytes(&mut bytes);
                assert_eq!(
                    bytes.to_vec(),
                    expected,
                    "nonce {nonce}, from block {start}"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = SecureRng::seed_from_u64(42);
        let mut b = SecureRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SecureRng::seed_from_u64(1);
        let mut b = SecureRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_is_independent() {
        let parent = SecureRng::seed_from_u64(7);
        let mut c1 = parent.fork(b"a");
        let mut c2 = parent.fork(b"b");
        let mut c1_again = parent.fork(b"a");
        assert_ne!(c1.next_u64(), c2.next_u64());
        let mut c1_fresh = parent.fork(b"a");
        assert_eq!(c1_again.next_u64(), c1_fresh.next_u64());
    }

    // The hashed seed is the parent's key words, then the label: checked at
    // label lengths either side of SHA-256's 64-byte block seam (32 + 31,
    // 32 + 32, 32 + 33) and past it.
    #[test]
    fn fork_is_from_seed_of_key_then_label() {
        let parent = SecureRng::seed_from_u64(7);
        for len in [0, 1, 31, 32, 33, 64, 100] {
            let label: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let mut seed: Vec<u8> = parent.state[4..COUNTER]
                .iter()
                .flat_map(|word| word.to_le_bytes())
                .collect();
            seed.extend(&label);
            let (forked, seeded) = (parent.fork(&label), SecureRng::from_seed(&seed));
            assert_eq!(forked.state, seeded.state, "label length {len}");
        }
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut rng = SecureRng::seed_from_u64(9);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..50 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut rng = SecureRng::seed_from_u64(11);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fill_bytes_across_block_boundary() {
        let mut rng = SecureRng::seed_from_u64(3);
        let mut big = [0u8; 200];
        rng.fill_bytes(&mut big);
        // Compare with byte-at-a-time drain of an identical RNG.
        let mut rng2 = SecureRng::seed_from_u64(3);
        for (i, &expected) in big.iter().enumerate() {
            let mut one = [0u8; 1];
            rng2.fill_bytes(&mut one);
            assert_eq!(one[0], expected, "byte {i}");
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SecureRng::seed_from_u64(6);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
