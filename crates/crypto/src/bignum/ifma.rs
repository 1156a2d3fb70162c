//! The Montgomery kernel on AVX-512 IFMA, for 12- and 16-limb moduli.
//!
//! A value is `k` digits of 52 bits, `k = 15` at 768 bits and `20` at
//! 1 024, zero-padded to whole 8-lane vectors (a stride of 16 or 24
//! `u64`s), and the Montgomery radix is `R = 2^(52k)`. `amm` is an
//! *almost* Montgomery multiplication: for `a, b < 2n` it returns
//! `a * b * R^-1 mod n` as some value below `2n`, because
//! `(a * b + Y * n) / R < (4n^2 + R * n) / R < 2n` when `R > 4n`, which
//! both widths leave with bits to spare. So no product subtracts `n`;
//! only [`Modulus::unscale`], leaving Montgomery form, does.
//!
//! Each of the `k` steps takes one digit `b[i]` of `b`, adds `a * b[i]`
//! and `y * n` for the `y` that clears the lowest digit, and shifts the
//! sum down a digit. `vpmadd52luq`/`vpmadd52huq` form the low and high 52
//! bits of the eight lanes' products, summed off the accumulator's path
//! and added to it once; the lanes stay unnormalised until the end.
//! The lowest two digits are tracked in scalar registers, so the next
//! `y` waits on no vector: digit 2, which becomes digit 1, is read from
//! the vector a step before it is needed, with the terms of this step's
//! `y` added in scalar. At the end a branch-free pass carries every
//! lane's excess into the next, and a second carries the one bit left
//! through any run of all-ones digits, as an integer addition on the
//! lane masks.
//!
//! The kernel is entered only through a [`Modulus`], and one is made only
//! on a CPU where `is_x86_feature_detected!` reports `avx512f` and
//! `avx512ifma`. This module is the crate's third allowance of `unsafe`:
//! the calls into the `#[target_feature]` kernel and its vector loads and
//! stores, each with a `SAFETY:` comment.

use super::BigUint;

/// Bits per digit: the operand width of `vpmadd52{lo,hi}uq`.
const DIGIT: usize = 52;
const MASK: u64 = (1 << DIGIT) - 1;

/// An odd modulus of 12 or 16 limbs, on a CPU that runs the kernel.
pub(super) struct Modulus {
    /// Digits per value: 15 or 20.
    k: usize,
    /// `n`, as `k` digits in [`Self::stride`] lanes.
    n: Vec<u64>,
    /// `2n`, the bound [`Self::double`] keeps.
    two_n: Vec<u64>,
    /// `-n^-1 mod 2^52`.
    n0inv: u64,
    /// `n = -1 (mod 2^52)`, as in every MODP prime: `n0inv = 1`, so the
    /// kernel takes its MODP-shaped body.
    modp: bool,
}

impl Modulus {
    /// The engine for `n` (odd, with `n_prime = -n^-1 mod 2^64`) when it
    /// has 12 or 16 limbs and this CPU has AVX-512 IFMA.
    pub(super) fn new(n: &BigUint, n_prime: u64) -> Option<Self> {
        let k = match n.limbs.len() {
            12 => 15,
            16 => 20,
            _ => return None,
        };
        if !detected() {
            return None;
        }
        let mut m = Modulus {
            k,
            n: Vec::new(),
            two_n: Vec::new(),
            n0inv: n_prime & MASK,
            modp: n.limbs[0] & MASK == MASK,
        };
        (m.n, m.two_n) = (m.digits(n), m.digits(&n.add(n)));
        Some(m)
    }

    /// `u64`s per value: whole vectors.
    pub(super) fn stride(&self) -> usize {
        self.k.next_multiple_of(8)
    }

    /// Bits of the radix `R`.
    pub(super) fn r_bits(&self) -> usize {
        DIGIT * self.k
    }

    /// `v`, below `R`, as digits.
    pub(super) fn digits(&self, v: &BigUint) -> Vec<u64> {
        let mut out = vec![0; self.stride()];
        for (j, digit) in out[..self.k].iter_mut().enumerate() {
            let (limb, shift) = (DIGIT * j / 64, DIGIT * j % 64);
            let lo = v.limbs.get(limb).map_or(0, |l| l >> shift);
            let hi = match shift {
                0..=12 => 0,
                _ => v.limbs.get(limb + 1).map_or(0, |l| l << (64 - shift)),
            };
            *digit = (lo | hi) & MASK;
        }
        out
    }

    /// The value of normalised digits.
    pub(super) fn value(&self, digits: &[u64]) -> BigUint {
        let mut limbs = vec![0u64; (DIGIT * self.k).div_ceil(64)];
        for (j, &digit) in digits[..self.k].iter().enumerate() {
            let (limb, shift) = (DIGIT * j / 64, DIGIT * j % 64);
            limbs[limb] |= digit << shift;
            if shift > 12 {
                limbs[limb + 1] |= digit >> (64 - shift);
            }
        }
        let mut v = BigUint { limbs };
        v.normalize();
        v
    }

    /// `acc = acc * b * R^-1`, below `2n`.
    pub(super) fn mul(&self, acc: &mut [u64], b: &[u64]) {
        self.amm(acc, Some(b))
    }

    /// `acc = acc^2 * R^-1`, below `2n`.
    pub(super) fn sqr(&self, acc: &mut [u64]) {
        self.amm(acc, None)
    }

    /// `acc = acc * R^-1 mod n`, below `n`: out of Montgomery form.
    pub(super) fn unscale(&self, acc: &mut [u64]) {
        let mut one = [0; 24];
        one[0] = 1;
        self.amm(acc, Some(&one));
        // At most `(2n + R * n) / R < n + 1`, so `n` itself is the one
        // value left to subtract.
        if !less(acc, &self.n) {
            sub(acc, &self.n);
        }
    }

    /// `acc = 2 * acc`, below `2n`.
    pub(super) fn double(&self, acc: &mut [u64]) {
        let mut carry = 0;
        for digit in &mut acc[..self.k] {
            let x = *digit << 1 | carry;
            (*digit, carry) = (x & MASK, x >> DIGIT);
        }
        if !less(acc, &self.two_n) {
            sub(acc, &self.two_n);
        }
    }

    /// `acc = acc * b * R^-1` (`acc^2 * R^-1` without `b`), below `2n`.
    #[cfg(target_arch = "x86_64")]
    fn amm(&self, acc: &mut [u64], b: Option<&[u64]>) {
        let kernel: Kernel = match (self.k, self.modp) {
            (15, false) => amm::<15, 2, false>,
            (15, true) => amm::<15, 2, true>,
            (_, false) => amm::<20, 3, false>,
            (_, true) => amm::<20, 3, true>,
        };
        // SAFETY: a `Modulus` exists only where `detected` confirmed
        // `avx512f` and `avx512ifma`, all that the kernel enables.
        unsafe { kernel(acc, b, &self.n, self.n0inv) }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn amm(&self, _: &mut [u64], _: Option<&[u64]>) {
        unreachable!("`detected` is false off x86_64")
    }
}

/// Whether this CPU runs the kernel (std caches the answer).
fn detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// `a < b` for normalised digits.
fn less(a: &[u64], b: &[u64]) -> bool {
    a.iter().rev().cmp(b.iter().rev()).is_lt()
}

/// `a -= b` for normalised digits, `a >= b`.
fn sub(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0;
    for (x, &y) in a.iter_mut().zip(b) {
        let d = x.wrapping_sub(y).wrapping_sub(borrow);
        (*x, borrow) = (d & MASK, d >> 63);
    }
    debug_assert_eq!(borrow, 0);
}

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Vector `r` of `v`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn load(v: &[u64], r: usize) -> __m512i {
    let lanes: &[u64; 8] = v[8 * r..][..8].try_into().expect("8 lanes");
    // SAFETY: `lanes` is 64 readable bytes and the load is unaligned; the
    // kernel that inlines this runs only where `detected` found `avx512f`.
    unsafe { _mm512_loadu_epi64(lanes.as_ptr().cast()) }
}

/// Stores `x` as vector `r` of `v`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn store(v: &mut [u64], r: usize, x: __m512i) {
    let lanes: &mut [u64; 8] = (&mut v[8 * r..][..8]).try_into().expect("8 lanes");
    // SAFETY: `lanes` is 64 writable bytes and the store is unaligned; the
    // kernel that inlines this runs only where `detected` found `avx512f`.
    unsafe { _mm512_storeu_epi64(lanes.as_mut_ptr().cast(), x) }
}

/// [`amm`] at one width.
#[cfg(target_arch = "x86_64")]
type Kernel = unsafe fn(&mut [u64], Option<&[u64]>, &[u64], u64);

/// `x` one lane down, across vectors: a digit's worth of division.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn down<const V: usize>(x: [__m512i; V]) -> [__m512i; V] {
    let above = |r: usize| x.get(r + 1).copied().unwrap_or(_mm512_setzero_si512());
    std::array::from_fn(|r| _mm512_alignr_epi64::<1>(above(r), x[r]))
}

/// The kernel at `K` digits in `V` vectors; `MODP` says `n[0] = 2^52 - 1`.
///
/// Scalar bookkeeping per step, with `p = a[0] * b[i]`: `t = s0 + lo(p)`
/// is the lowest digit, `y = t * n0inv` clears it, and the carry out of
/// `t + lo(y * n[0])` plus the high halves of `p` and `y * n[0]` join
/// digit 1 — `s1` and the low halves of `a[1] * b[i]` and `y * n[1]` — to
/// make the next `s0`. Under `MODP`, `n0inv = 1` makes `y` the low 52 bits
/// of `t`, and `y * n[0] = y * 2^52 - y` makes that carry `(t >> 52) + y`:
/// no multiply on the chain from one `y` to the next. The next `s1` is
/// digit 2 of the vector before this `y`'s products, read ahead, plus
/// `lo(y * n[2]) + hi(y * n[1])`. The vector's lane 0 lacks the carries and
/// is replaced by `s0` at the end. The vector adds `lo(y * n)` to the
/// `b[i]` products and `hi(y * n)` to the shifted sum as two independent
/// multiply-adds, joined by one add.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512ifma")]
fn amm<const K: usize, const V: usize, const MODP: bool>(
    acc: &mut [u64],
    b: Option<&[u64]>,
    n: &[u64],
    n0inv: u64,
) {
    debug_assert!(!MODP || n[0] == MASK);
    let zero = _mm512_setzero_si512();
    let a: [__m512i; V] = std::array::from_fn(|r| load(acc, r));
    let nv: [__m512i; V] = std::array::from_fn(|r| load(n, r));
    // Digit `j + 1` in lane `j`: whose low products land in lane `j`
    // after the shift, as the high products of digit `j` do.
    let (a_next, n_next) = (down(a), down(nv));
    let (a0, a1, n0, n1, n2) = (acc[0], acc[1], n[0], n[1], n[2]);
    let b = b.unwrap_or(acc);
    let (mut x, mut s0, mut s1) = ([zero; V], 0u64, 0u64);
    for &bi in &b[..K] {
        let bv = _mm512_set1_epi64(bi as i64);
        let by_b: [__m512i; V] = std::array::from_fn(|r| {
            _mm512_madd52hi_epu64(_mm512_madd52lo_epu64(zero, a_next[r], bv), a[r], bv)
        });
        let shifted = down(x);
        let ahead = _mm_add_epi64(
            _mm512_castsi512_si128(shifted[0]),
            _mm512_castsi512_si128(by_b[0]),
        );
        let p = a0 as u128 * bi as u128;
        let t = s0 + (p as u64 & MASK);
        let (y, carry) = match MODP {
            true => (t & MASK, (t >> DIGIT) + (t & MASK)),
            false => {
                let y = t.wrapping_mul(n0inv) & MASK;
                let yn0 = n0 as u128 * y as u128;
                (
                    y,
                    ((t + (yn0 as u64 & MASK)) >> DIGIT) + (yn0 >> DIGIT) as u64,
                )
            }
        };
        let yn1 = n1 as u128 * y as u128;
        s0 = s1 + carry + (p >> DIGIT) as u64 + (a1.wrapping_mul(bi) & MASK) + (yn1 as u64 & MASK);
        s1 = _mm_extract_epi64::<1>(ahead) as u64
            + (n2.wrapping_mul(y) & MASK)
            + (yn1 >> DIGIT) as u64;
        let yv = _mm512_set1_epi64(y as i64);
        x = std::array::from_fn(|r| {
            _mm512_add_epi64(
                _mm512_madd52lo_epu64(by_b[r], n_next[r], yv),
                _mm512_madd52hi_epu64(shifted[r], nv[r], yv),
            )
        });
    }
    x[0] = _mm512_mask_set1_epi64(x[0], 1, s0 as i64);
    for (r, v) in normalize(x).into_iter().enumerate() {
        store(acc, r, v);
    }
}

/// Unnormalised lanes (each below `2^63`) as 52-bit digits of the same
/// sum, which must fit `V` vectors: each lane's bits above 52 carry into
/// the next, leaving lanes of at most `2^52 + 2^11`; a lane above
/// `2^52 - 1` then carries one, which ripples on through every lane of
/// exactly `2^52 - 1` above it — the carries of an integer addition of
/// the two lane masks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn normalize<const V: usize>(x: [__m512i; V]) -> [__m512i; V] {
    let mask = _mm512_set1_epi64(MASK as i64);
    let below = |r: usize| match r {
        0 => _mm512_setzero_si512(),
        _ => _mm512_srli_epi64::<52>(x[r - 1]),
    };
    let x: [__m512i; V] = std::array::from_fn(|r| {
        let carry_in = _mm512_alignr_epi64::<7>(_mm512_srli_epi64::<52>(x[r]), below(r));
        _mm512_add_epi64(_mm512_and_si512(x[r], mask), carry_in)
    });
    let (mut over, mut full) = (0u32, 0u32);
    for (r, v) in x.iter().enumerate() {
        over |= u32::from(_mm512_cmpgt_epu64_mask(*v, mask)) << (8 * r);
        full |= u32::from(_mm512_cmpeq_epu64_mask(*v, mask)) << (8 * r);
    }
    let carried = ((over << 1).wrapping_add(full)) ^ full;
    let one = _mm512_set1_epi64(1);
    std::array::from_fn(|r| {
        let lanes = (carried >> (8 * r)) as u8;
        _mm512_and_si512(_mm512_mask_add_epi64(x[r], lanes, x[r], one), mask)
    })
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::dh::DhGroup;

    /// [`normalize`] on `V` vectors of `lanes`, or `None` on a CPU
    /// without the engine.
    fn normalized<const V: usize>(lanes: &[u64]) -> Option<Vec<u64>> {
        #[target_feature(enable = "avx512f")]
        fn run<const V: usize>(lanes: &[u64]) -> Vec<u64> {
            let mut out = lanes.to_vec();
            let x: [__m512i; V] = std::array::from_fn(|r| load(lanes, r));
            for (r, v) in normalize(x).into_iter().enumerate() {
                store(&mut out, r, v);
            }
            out
        }
        // SAFETY: `run` is called only where `detected` confirmed
        // `avx512f`, all that it enables.
        detected().then(|| unsafe { run::<V>(lanes) })
    }

    /// `sum lanes[j] * 2^(52j)`, for lanes of any size.
    fn sum(lanes: &[u64]) -> BigUint {
        lanes.iter().rev().fold(BigUint::zero(), |acc, &lane| {
            acc.shl(DIGIT).add(&BigUint::from_u64(lane))
        })
    }

    /// The two MODP primes the kernel runs and, at each width, a modulus
    /// whose lowest limb is all ones only in its low 52 bits (`n0inv` is
    /// still 1) and one whose lowest digit is `2^52 - 3`, with whether
    /// each takes the MODP-shaped body.
    fn selection_moduli() -> Vec<(BigUint, bool)> {
        let mut out = Vec::new();
        for p in [DhGroup::modp768().p, DhGroup::modp1024().p] {
            let with_low = |limb: u64| {
                let mut limbs = p.limbs.clone();
                limbs[0] = limb;
                BigUint { limbs }
            };
            out.push((with_low(0x123f_ffff_ffff_ffff), true));
            out.push((with_low(0xffff_ffff_ffff_fffd), false));
            out.push((p, true));
        }
        out
    }

    /// Each MODP prime takes the MODP-shaped body, and so does any modulus
    /// of `2^52 - 1` in its lowest digit; a 12- or 16-limb modulus whose
    /// lowest digit is anything else takes the general body. Products of
    /// both, below `2n`, are `a * b * R^-1 mod n`, and a whole
    /// exponentiation matches the `u64` engine's.
    #[test]
    fn modp_moduli_take_the_modp_body_and_others_the_general_one() {
        use super::super::{Engine, Montgomery};
        let Some(_) = Modulus::new(&DhGroup::modp768().p, 1) else {
            return eprintln!("no IFMA engine on this CPU: kernel selection not run");
        };
        for (n, modp) in selection_moduli() {
            let m = Modulus::new(&n, super::super::neg_inv(n.limbs[0])).expect("detected");
            assert_eq!(
                m.modp,
                modp,
                "{} limbs, low limb {:x}",
                n.limbs.len(),
                n.limbs[0]
            );
            let r = BigUint::one().shl(m.r_bits());
            let r_inv = r.rem(&n).unwrap().mod_inv(&n).unwrap();
            let two_n = n.add(&n);
            let one = BigUint::one();
            let operands = [
                BigUint::zero(),
                one.clone(),
                n.checked_sub(&one).unwrap(),
                n.clone(),
                two_n.checked_sub(&one).unwrap(),
                n.shr(3).add(&BigUint::from_u64(0x1234_5678)),
                n.shr(1).add(&n.shr(7)),
            ];
            for a in &operands {
                for b in &operands {
                    let (mut product, mut square) = (m.digits(a), m.digits(a));
                    m.mul(&mut product, &m.digits(b));
                    m.sqr(&mut square);
                    for (got, t) in [(product, a.mul(b)), (square, a.mul(a))] {
                        let got = m.value(&got);
                        assert!(got < two_n, "{a:?} * {b:?} mod {n:?} out of range");
                        assert_eq!(
                            got.rem(&n).unwrap(),
                            t.mul(&r_inv).rem(&n).unwrap(),
                            "{a:?} * {b:?} mod {n:?}"
                        );
                    }
                }
            }
            let (base, exp) = (n.shr(5).add(&BigUint::from_u64(7)), n.shr(9));
            let on = |engine| {
                let context = |n: &BigUint| Montgomery::on(engine, n).expect("runs n");
                BigUint::multi_exp_on(&[(&base, &exp)], &n, context).unwrap()
            };
            assert_eq!(on(Engine::Ifma), on(Engine::U64), "{n:?}");
        }
    }

    /// Crafted lanes, each laid out in two and in three vectors: a carry
    /// out of the first pass that ripples through a run of `2^52 - 1`
    /// lanes across both vector seams (to the top lane, and stopping
    /// short of it), a run no carry reaches, lanes near `2^63`, and the
    /// largest excess a lane can pass on, into a lane that is then full.
    #[test]
    fn normalize_carries_through_every_run_of_full_lanes() {
        let mut cases: Vec<Vec<u64>> = Vec::new();
        for stop in [3, 9, 15, 23] {
            let mut lanes = vec![0; 24];
            lanes[0] = 1 << DIGIT;
            lanes[1..stop].fill(MASK);
            lanes[stop] = 5 * (stop < 23) as u64;
            cases.push(lanes);
        }
        let mut quiet = vec![MASK; 24];
        (quiet[0], quiet[23]) = (7, 0);
        cases.push(quiet);
        cases.push(
            (0..24)
                .map(|j| ((1 << 63) - 1 - j) * (j < 22) as u64)
                .collect(),
        );
        let mut most = vec![MASK - (1 << 11) + 1; 24];
        most[0] = u64::MAX >> 1;
        most[23] = 0;
        cases.push(most);
        if !detected() {
            return eprintln!("no IFMA engine on this CPU: normalize not run");
        }
        for lanes in &cases {
            for (v, lanes) in [(2, &lanes[..16]), (3, &lanes[..])] {
                if sum(lanes).bit_len() > DIGIT * lanes.len() {
                    continue;
                }
                let out = match v {
                    2 => normalized::<2>(lanes),
                    _ => normalized::<3>(lanes),
                }
                .expect("detected");
                assert!(out.iter().all(|&d| d <= MASK), "{lanes:x?} -> {out:x?}");
                assert_eq!(sum(&out), sum(lanes), "{lanes:x?} -> {out:x?}");
            }
        }
        // The ripple itself: 2^52 in lane 0 and full lanes 1..=14 end as
        // one bit in lane 15, every other lane zero.
        let mut lanes = vec![0; 16];
        lanes[0] = 1 << DIGIT;
        lanes[1..15].fill(MASK);
        let mut expected = vec![0; 16];
        expected[15] = 1;
        assert_eq!(normalized::<2>(&lanes), Some(expected));
    }
}
