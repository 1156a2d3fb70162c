//! ChaCha20 stream cipher (RFC 7539).
//!
//! Used as an alternative record cipher (for the cipher-suite ablation
//! benchmark) and as the core of [`crate::rng::SecureRng`].
//!
//! The keystream comes from two wide kernels that compute consecutive
//! blocks lane-wise, word *i* of every block in one vector, so the rounds
//! need no shuffles and the blocks' dependency chains overlap where a
//! single block is latency-bound:
//!
//! * `blocks16`, sixteen blocks (1 KiB), is the [`SecureRng`] refill. Where
//!   `is_x86_feature_detected!("avx512f")` holds, it runs an AVX-512F kernel:
//!   one 512-bit vector a word, a rotate in one `vprold`, and a transpose of
//!   4×4 words within each 128-bit lane plus a 4×4 of 128-bit lanes to
//!   write the blocks out. Elsewhere it is `blocks4` four times.
//! * `blocks4`, four blocks, serves [`apply`] and that fallback. On x86_64
//!   it is SSE2 intrinsics; SSE2 is in the x86_64 baseline, so it needs no
//!   detection. Off x86_64 it is the scalar block function four times.
//!
//! The scalar `block_of` is the oracle the tests hold every path to.
//!
//! The two calls into the kernels are among the crate's four `unsafe`
//! sites (the others are SHA-256's call into the SHA extensions and the
//! IFMA Montgomery kernel in `bignum::ifma`); rustc asks them of any
//! `#[target_feature]` function. The SSE2 call is sound because it is
//! compiled only under `cfg(target_feature = "sse2")`, the AVX-512F one
//! because it is made only after detection has confirmed `avx512f`. Inside
//! the kernels every intrinsic takes and returns values, except the
//! AVX-512F kernel's 64-byte stores into the array it returns.
//!
//! [`SecureRng`]: crate::rng::SecureRng

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

/// The sixteen blocks of `initial`'s counter and the fifteen after it
/// (wrapping, as [`blocks4`] counts), in stream order.
pub(crate) fn blocks16(initial: &State) -> [u8; 1024] {
    #[cfg(target_arch = "x86_64")]
    if avx512_detected() {
        #[allow(unsafe_code)]
        // SAFETY: `blocks16_avx512` enables only `avx512f`, which
        // `avx512_detected` has just confirmed.
        return unsafe { blocks16_avx512(initial) };
    }
    blocks16_by_fours(initial)
}

/// Whether this CPU runs [`blocks16_avx512`] (std caches the answer).
#[cfg(target_arch = "x86_64")]
fn avx512_detected() -> bool {
    is_x86_feature_detected!("avx512f")
}

/// [`blocks16`] as four [`blocks4`]: the kernel without AVX-512F.
fn blocks16_by_fours(initial: &State) -> [u8; 1024] {
    let mut state = *initial;
    let mut out = [0u8; 1024];
    for span in out.chunks_exact_mut(256) {
        span.copy_from_slice(&blocks4(&state));
        state[COUNTER] = state[COUNTER].wrapping_add(4);
    }
    out
}

/// [`blocks16`] lane-wise: lane `j` of `v[i]` is word `i` of block `counter + j`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn blocks16_avx512(initial: &State) -> [u8; 1024] {
    use std::arch::x86_64::*;
    macro_rules! quarter_round {
        ($v:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $v[$a] = _mm512_add_epi32($v[$a], $v[$b]);
            $v[$d] = _mm512_rol_epi32::<16>(_mm512_xor_si512($v[$d], $v[$a]));
            $v[$c] = _mm512_add_epi32($v[$c], $v[$d]);
            $v[$b] = _mm512_rol_epi32::<12>(_mm512_xor_si512($v[$b], $v[$c]));
            $v[$a] = _mm512_add_epi32($v[$a], $v[$b]);
            $v[$d] = _mm512_rol_epi32::<8>(_mm512_xor_si512($v[$d], $v[$a]));
            $v[$c] = _mm512_add_epi32($v[$c], $v[$d]);
            $v[$b] = _mm512_rol_epi32::<7>(_mm512_xor_si512($v[$b], $v[$c]));
        };
    }

    // Plain loops, no `array::map` or `from_fn`: those are compiled without
    // `avx512f`, so they are not inlined here and every vector would cross
    // a call through memory.
    let mut input = [_mm512_setzero_si512(); 16];
    for (vector, &word) in input.iter_mut().zip(initial) {
        *vector = _mm512_set1_epi32(word as i32);
    }
    let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    input[COUNTER] = _mm512_add_epi32(input[COUNTER], lanes);
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
    for (word, initial) in v.iter_mut().zip(input) {
        *word = _mm512_add_epi32(*word, initial);
    }
    // Transpose each group of four words within 128-bit lanes: row `k` of
    // group `g` then holds words `4g..4g + 4` of block `4L + k` in lane `L`.
    let mut rows = [[_mm512_setzero_si512(); 4]; 4];
    for (g, row) in rows.iter_mut().enumerate() {
        let [a, b, c, d] = [v[4 * g], v[4 * g + 1], v[4 * g + 2], v[4 * g + 3]];
        let (ab_lo, ab_hi) = (_mm512_unpacklo_epi32(a, b), _mm512_unpackhi_epi32(a, b));
        let (cd_lo, cd_hi) = (_mm512_unpacklo_epi32(c, d), _mm512_unpackhi_epi32(c, d));
        *row = [
            _mm512_unpacklo_epi64(ab_lo, cd_lo),
            _mm512_unpackhi_epi64(ab_lo, cd_lo),
            _mm512_unpacklo_epi64(ab_hi, cd_hi),
            _mm512_unpackhi_epi64(ab_hi, cd_hi),
        ];
    }
    // Then transpose the 128-bit lanes of each row across the groups:
    // block `4L + k` is lane `L` of row `k` of groups 0 to 3, in order.
    let mut out = [0u8; 1024];
    for k in 0..4 {
        let [a, b, c, d] = [rows[0][k], rows[1][k], rows[2][k], rows[3][k]];
        let (ab_01, ab_23) = (
            _mm512_shuffle_i32x4::<0b0100_0100>(a, b),
            _mm512_shuffle_i32x4::<0b1110_1110>(a, b),
        );
        let (cd_01, cd_23) = (
            _mm512_shuffle_i32x4::<0b0100_0100>(c, d),
            _mm512_shuffle_i32x4::<0b1110_1110>(c, d),
        );
        let blocks = [
            _mm512_shuffle_i32x4::<0b1000_1000>(ab_01, cd_01),
            _mm512_shuffle_i32x4::<0b1101_1101>(ab_01, cd_01),
            _mm512_shuffle_i32x4::<0b1000_1000>(ab_23, cd_23),
            _mm512_shuffle_i32x4::<0b1101_1101>(ab_23, cd_23),
        ];
        for (lane, block) in blocks.into_iter().enumerate() {
            let dst: &mut [u8; 64] = (&mut out[64 * (4 * lane + k)..][..64])
                .try_into()
                .expect("64 bytes");
            #[allow(unsafe_code)]
            // SAFETY: `dst` is 64 writable bytes and the store is unaligned.
            unsafe {
                _mm512_storeu_si512(dst.as_mut_ptr().cast(), block)
            };
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

    /// RFC 7539's block function vectors as `(key, nonce, counter, block)`:
    /// §2.3.2, then Appendix A.1 #1-#3 (all under a zero nonce).
    const RFC7539_BLOCKS: [(&str, &str, u32, &str); 4] = [
        (
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "000000090000004a00000000",
            1,
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
        ),
        (
            "0000000000000000000000000000000000000000000000000000000000000000",
            "000000000000000000000000",
            0,
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7\
             da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586",
        ),
        (
            "0000000000000000000000000000000000000000000000000000000000000000",
            "000000000000000000000000",
            1,
            "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed\
             29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f",
        ),
        (
            "0000000000000000000000000000000000000000000000000000000000000001",
            "000000000000000000000000",
            1,
            "3aeb5224ecf849929b9d828db1ced4dd832025e8018b8160b82284f3c949aa5a\
             8eca00bbb4a73bdad192b5c42f73f2fd4e273644c8b36125a64addeb006c13a0",
        ),
    ];

    /// Vector `i` of [`RFC7539_BLOCKS`], decoded.
    fn rfc7539_vector(i: usize) -> ([u8; KEY_LEN], [u8; NONCE_LEN], u32, Vec<u8>) {
        let (key, nonce, counter, block) = RFC7539_BLOCKS[i];
        let key = unhex(key).try_into().unwrap();
        (key, unhex(nonce).try_into().unwrap(), counter, unhex(block))
    }

    // RFC 7539 §2.3.2 block function test vector: through `block`, and
    // through the wide kernels as lane 1 of `counter = 0`.
    #[test]
    fn rfc7539_block() {
        let (key, nonce, _, expected) = rfc7539_vector(0);
        assert_eq!(block(&key, &nonce, 1).to_vec(), expected);
        for kernel in KERNELS {
            assert_eq!(kernel(&state(&key, &nonce, 0))[64..128], expected[..]);
        }
    }

    // RFC 7539 Appendix A.1, test vectors #1-#3 (all under a zero nonce).
    #[test]
    fn rfc7539_appendix_a1() {
        for i in 1..4 {
            let (key, nonce, counter, expected) = rfc7539_vector(i);
            assert_eq!(block(&key, &nonce, counter).to_vec(), expected);
            // As the kernels' first lane, and as their last.
            for kernel in KERNELS {
                let first = kernel(&state(&key, &nonce, counter));
                assert_eq!(first[..64], expected[..]);
                let last = kernel(&state(&key, &nonce, counter.wrapping_sub(3)));
                assert_eq!(last[192..], expected[..]);
            }
        }
    }

    /// Key and nonce `i` of the sixteen the wide-kernel tests run.
    fn key_and_nonce(i: u8) -> ([u8; KEY_LEN], [u8; NONCE_LEN]) {
        let key = crate::sha256::sha256(&[i]);
        let nonce = crate::sha256::sha256(&[i, 1])[..12].try_into().unwrap();
        (key, nonce)
    }

    #[test]
    fn wide_kernels_equal_four_single_blocks() {
        let counters = [0, 1, 77].into_iter().chain(u32::MAX - 3..=u32::MAX);
        for counter in counters {
            for i in 0..16u8 {
                let (key, nonce) = key_and_nonce(i);
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

    type Kernel16 = fn(&State) -> [u8; 1024];

    /// Runs `check` on each sixteen-block path this CPU has, by name, and
    /// says which ran: four `blocks4` always, AVX-512F where detected.
    fn on_sixteen_block_paths(test: &str, check: impl Fn(&str, Kernel16)) {
        let mut paths: Vec<(&str, Kernel16)> = vec![("four-blocks4", blocks16_by_fours)];
        #[cfg(target_arch = "x86_64")]
        if avx512_detected() {
            paths.push(("avx512f", blocks16));
        }
        for (name, kernel) in paths {
            check(name, kernel);
            eprintln!("{test}: passed on the {name} path");
        }
    }

    // Every RFC 7539 block vector as lanes 0, 1 and 15 of `blocks16`; a
    // start before block 0 (the vectors at counters 0 and 1) wraps.
    #[test]
    fn sixteen_block_paths_hold_rfc7539_in_lanes_0_1_and_15() {
        on_sixteen_block_paths("rfc7539 lanes", |path, kernel| {
            for i in 0..RFC7539_BLOCKS.len() {
                let (key, nonce, counter, expected) = rfc7539_vector(i);
                for lane in [0, 1, 15] {
                    let wide = kernel(&state(&key, &nonce, counter.wrapping_sub(lane)));
                    let at = 64 * lane as usize;
                    assert_eq!(
                        wide[at..at + 64],
                        expected[..],
                        "{path}: vector {i}, lane {lane}"
                    );
                }
            }
        });
    }

    #[test]
    fn sixteen_block_paths_equal_sixteen_single_blocks() {
        on_sixteen_block_paths("16 x block", |path, kernel| {
            let counters = [0, 1, 77].into_iter().chain(u32::MAX - 15..=u32::MAX);
            for counter in counters {
                for i in 0..16u8 {
                    let (key, nonce) = key_and_nonce(i);
                    let singles: Vec<u8> = (0..16)
                        .flat_map(|j| block(&key, &nonce, counter.wrapping_add(j)))
                        .collect();
                    let wide = kernel(&state(&key, &nonce, counter));
                    assert_eq!(wide[..], singles[..], "{path}: counter {counter}, key {i}");
                }
            }
        });
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
