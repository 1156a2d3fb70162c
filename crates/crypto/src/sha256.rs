//! SHA-256 (FIPS 180-4).
//!
//! Used for enclave measurement (MRENCLAVE is "a SHA-256 digest of enclave
//! contents", paper §2.1), report MACs, key derivation and transcript
//! hashing throughout the workspace.
//!
//! A block goes through one of two compression kernels: the x86 SHA
//! extensions (`sha256rnds2`, `sha256msg1`, `sha256msg2`) when the CPU
//! reports them at run time, else the portable FIPS 180-4 loop, which is
//! also the oracle the tests hold the other to. The call into the SHA-NI
//! kernel is the crate's second `unsafe` block (the first is ChaCha20's):
//! rustc asks it of a `#[target_feature]` function, and it is sound
//! because the call is made only after `is_x86_feature_detected!` has
//! confirmed every feature the kernel enables. Inside, every intrinsic
//! takes and returns values; no pointer is formed.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == BLOCK_LEN {
                compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        let mut blocks = data.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("a whole block"));
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Finalises and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros up to 8 bytes short of a block, then the
        // bit length, 64 bits big-endian: in the buffered block when at
        // least 9 bytes of it are free, else in one more.
        let n = self.buffered;
        self.buffer[n] = 0x80;
        self.buffer[n + 1..].fill(0);
        if n >= BLOCK_LEN - 8 {
            compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses one block into `state`: on the SHA extensions where the CPU
/// has them, else portably.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni_detected() {
        #[allow(unsafe_code)]
        // SAFETY: `compress_sha_ni` requires SHA, SSSE3 and SSE4.1 (SSE2 is
        // x86_64's baseline); `sha_ni_detected` has just confirmed all three.
        unsafe {
            compress_sha_ni(state, block)
        };
        return;
    }
    compress_portable(state, block)
}

/// Whether this CPU runs [`compress_sha_ni`] (std caches the answer).
#[cfg(target_arch = "x86_64")]
fn sha_ni_detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// The FIPS 180-4 compression function, one round at a time.
fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

/// The compression function on the SHA extensions. The state lives in two
/// vectors, `abef` and `cdgh` (lane 3 first); each `sha256rnds2` runs two
/// rounds and leaves the new `abef` in its first operand, so the pair
/// swaps roles every call. Message words `W[4i..4i+4]` are `w[i % 4]`;
/// from `i = 4` on, each is scheduled from the four before it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    use std::arch::x86_64::*;
    // Lane 0 is the first word.
    macro_rules! words {
        ($w:expr) => {
            _mm_set_epi32($w[3] as i32, $w[2] as i32, $w[1] as i32, $w[0] as i32)
        };
    }
    let [a, b, c, d, e, f, g, h] = *state;
    let (abef_in, cdgh_in) = (words!([f, e, b, a]), words!([h, g, d, c]));
    let (mut abef, mut cdgh) = (abef_in, cdgh_in);
    let mut w = [_mm_setzero_si128(); 4];
    for (i, v) in w.iter_mut().enumerate() {
        let word = |j: usize| u32::from_be_bytes([0, 1, 2, 3].map(|b| block[16 * i + 4 * j + b]));
        *v = words!([word(0), word(1), word(2), word(3)]);
    }
    for i in 0..16 {
        if i >= 4 {
            let [w16, w12, w8, w4] = [0, 1, 2, 3].map(|k| w[(i + k) % 4]);
            // W[t-16] + s0(W[t-15]) + W[t-7], then + s1(W[t-2]).
            let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8::<4>(w4, w8));
            w[i % 4] = _mm_sha256msg2_epu32(sum, w4);
        }
        let wk = _mm_add_epi32(w[i % 4], words!(K[4 * i..]));
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }
    let (abef, cdgh) = (_mm_add_epi32(abef, abef_in), _mm_add_epi32(cdgh, cdgh_in));
    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|word| word as u32);
}

/// One-shot SHA-256.
///
/// ```
/// let digest = teenet_crypto::sha256::sha256(b"abc");
/// assert_eq!(digest[0], 0xba); // FIPS 180-4 test vector
/// ```
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Kernel = fn(&mut [u32; 8], &[u8; BLOCK_LEN]);

    /// Both kernels: the one in use, and the portable oracle (the same
    /// function on a CPU without the SHA extensions).
    const KERNELS: [Kernel; 2] = [compress, compress_portable];

    #[cfg(target_arch = "x86_64")]
    fn kernels_differ() -> bool {
        sha_ni_detected()
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn kernels_differ() -> bool {
        false
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// SHA-256 of `msg` through `kernel`, padded as FIPS 180-4 §5.1.1
    /// spells it out: a one bit, `k` zero bits for the least `k` that makes
    /// the length 448 mod 512, then the length in 64 bits.
    fn reference_digest(msg: &[u8], kernel: Kernel) -> [u8; DIGEST_LEN] {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(BLOCK_LEN) {
            kernel(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in state.iter().enumerate() {
            out[4 * i..][..4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// `expected` as the digest of `msg`, one-shot and through each kernel.
    fn check_vector(msg: &[u8], expected: &str) {
        assert_eq!(hex(&sha256(msg)), expected);
        for kernel in KERNELS {
            assert_eq!(hex(&reference_digest(msg, kernel)), expected);
        }
    }

    #[test]
    fn empty_vector() {
        check_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        check_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        check_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a_vector() {
        check_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// The one-step padding of `finalize` against the reference at every
    /// length up to 200 bytes: across the seams at 55/56 (the length still
    /// fits the last block, or it needs another), 63/64 and 119/120.
    #[test]
    fn padding_matches_the_reference_at_every_length() {
        let data: Vec<u8> = (0..200u8).map(|i| i.wrapping_mul(167) ^ 0x5c).collect();
        for len in 0..=data.len() {
            let expected = reference_digest(&data[..len], compress_portable);
            assert_eq!(sha256(&data[..len]), expected, "len {len}");
            let mut h = Sha256::new();
            data[..len].chunks(7).for_each(|chunk| h.update(chunk));
            assert_eq!(h.finalize(), expected, "len {len} in 7-byte pieces");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 63, 64, 65, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the padding boundary (55/56/64 bytes) exercise the
        // two-block finalisation path.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(core::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }

    proptest! {
        #[test]
        fn prop_kernels_agree_on_random_blocks_and_states(
            state in proptest::array::uniform8(any::<u32>()),
            block in proptest::collection::vec(any::<u8>(), BLOCK_LEN..BLOCK_LEN + 1),
        ) {
            if !kernels_differ() {
                println!("skipped: no SHA extensions on this CPU, so one kernel runs");
                return;
            }
            let block: &[u8; BLOCK_LEN] = block[..].try_into().unwrap();
            let [mut fast, mut portable] = [state; 2];
            compress(&mut fast, block);
            compress_portable(&mut portable, block);
            prop_assert_eq!(fast, portable);
        }
    }
}
