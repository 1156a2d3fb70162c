//! Arbitrary-precision unsigned integers.
//!
//! This is the arithmetic substrate under [`crate::dh`] and
//! [`crate::schnorr`]. Numbers are stored as little-endian `u64` limbs with
//! no leading zero limbs (canonical form). General arithmetic is the
//! schoolbook kind (operand-scanning multiplication, Knuth's Algorithm D);
//! the one performance-critical path is modular exponentiation, where
//! nearly all of an attestation's host time goes.
//!
//! For an odd modulus there is one exponentiation, `Montgomery::multi_exp`:
//! a left-to-right product of powers in Montgomery form, on one of two
//! kernels (`Engine`) chosen once per context. The `u64` kernel is
//! `mul_wide`, a dedicated `sqr_wide` (cross products once, doubled, plus
//! the diagonal) and a shared `reduce`, in scratch allocated once per
//! call — one body each, generic over a const limb count `W`: the two
//! widths every workload uses (12 and 16 limbs) run as unrolled loops of
//! fixed length, any other at `W = 0`, the length of the slices. `reduce`
//! also takes a const flag for a modulus whose lowest limb is all ones, as
//! in every MODP prime: then `n' = 1` and each row skips a product. At
//! those two widths, on a CPU with AVX-512 IFMA, the `ifma` kernel runs
//! instead: 52-bit digits in vectors, values kept below `2n` rather than
//! `n` (see its module). The `u64` kernel serves everything else and is
//! the IFMA kernel's oracle.
//! Each step squares the accumulator once for all terms; how a term then
//! multiplies in is its `Powers`: a general base through a 16-entry table
//! once per 4-bit window, a small power of two through `k` modular
//! doublings per set bit, and a `Comb` base through one table entry per
//! block per *column* of its exponent. A comb can be built for any base:
//! the generator 2's, one per built-in prime, lives in its `Montgomery`
//! (see [`crate::dh`]); a Schnorr key's `y^-1` gets one of its own.
//! [`BigUint::modexp`] and [`BigUint::modexp2`] are the one- and two-term
//! cases under constants computed per call (no comb).
//!
//! Even moduli fall back to divide-and-reduce square-and-multiply
//! (`modexp_generic`), which is also the oracle the engine is tested
//! against. [`BigUint::mod_inv`] is a binary extended GCD in place on
//! fixed-width limbs (see it). Everything here is variable-time in base
//! and exponent (table index, skipped zero windows, conditional
//! subtractions) and in what it inverts: the emulator has no timing
//! adversary, the crate must not protect real data, and an inverse takes
//! public inputs only.

use crate::error::CryptoError;
use crate::Result;
use core::cmp::Ordering;
use core::fmt;

#[allow(unsafe_code)]
mod ifma;

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` has no trailing (most-significant) zero limbs; zero is
/// represented by an empty limb vector.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Constructs from big-endian bytes (as found in wire formats and RFCs).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serialises to big-endian bytes with no leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most-significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serialises to exactly `len` big-endian bytes, left-padding with zeros.
    ///
    /// Returns an error if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Result<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return Err(CryptoError::InvalidLength {
                what: "padded integer",
                got: raw.len(),
                expected: len,
            });
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Ok(out)
    }

    /// Parses a hexadecimal string (no `0x` prefix; whitespace ignored).
    pub fn from_hex(s: &str) -> Result<Self> {
        let mut nibbles = Vec::with_capacity(s.len());
        for c in s.chars() {
            if c.is_whitespace() {
                continue;
            }
            nibbles.push(
                c.to_digit(16)
                    .ok_or(CryptoError::InvalidParameter("non-hex digit"))? as u8,
            );
        }
        let mut bytes = Vec::with_capacity(nibbles.len() / 2 + 1);
        // Left-pad odd-length strings with a zero nibble.
        let mut iter = nibbles.iter();
        if nibbles.len() % 2 == 1 {
            bytes.push(*iter.next().expect("non-empty"));
        }
        while let (Some(hi), Some(lo)) = (iter.next(), iter.next()) {
            bytes.push((hi << 4) | lo);
        }
        Ok(Self::from_bytes_be(&bytes))
    }

    /// Renders as lowercase hexadecimal ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let bytes = self.to_bytes_be();
        let mut s = String::with_capacity(bytes.len() * 2);
        for (i, b) in bytes.iter().enumerate() {
            if i == 0 {
                // No leading zero nibble.
                if b >> 4 != 0 {
                    s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
                }
                s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
            } else {
                s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
                s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
            }
        }
        s
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (0 counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit order; out-of-range bits are 0).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// The four exponent bits starting at bit `i`, a multiple of 4.
    fn window(&self, i: usize) -> usize {
        self.limbs
            .get(i / 64)
            .map_or(0, |l| (l >> (i % 64)) as usize & 0xf)
    }

    /// Column `i` of the exponent laid out as `comb`'s rows: the bits
    /// `i + j * cols`, row `j`'s at position `j`.
    fn comb_digit(&self, i: usize, comb: &Comb) -> usize {
        (0..comb.rows).fold(0, |d, j| d | (self.bit(i + j * comb.cols) as usize) << j)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = l.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`; errors if `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Result<BigUint> {
        if self.cmp_to(other) == Ordering::Less {
            return Err(CryptoError::InvalidParameter("subtraction underflow"));
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        Ok(n)
    }

    /// Total-order comparison.
    pub fn cmp_to(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Schoolbook multiplication `self * other`.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return Self::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Division with remainder: returns `(self / divisor, self % divisor)`.
    ///
    /// Implements Knuth's Algorithm D on 64-bit limbs with 128-bit trial
    /// quotient estimation.
    pub fn div_rem(&self, divisor: &BigUint) -> Result<(BigUint, BigUint)> {
        if divisor.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        match self.cmp_to(divisor) {
            Ordering::Less => return Ok((Self::zero(), self.clone())),
            Ordering::Equal => return Ok((Self::one(), Self::zero())),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = vec![0u64; self.limbs.len()];
            let mut rem = 0u128;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                q[i] = (cur / d as u128) as u64;
                rem = cur % d as u128;
            }
            let mut quotient = BigUint { limbs: q };
            quotient.normalize();
            return Ok((quotient, BigUint::from_u64(rem as u64)));
        }

        // Normalise so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().expect("nonzero").leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0); // u has m+n+1 limbs now
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_next = vn[n - 2];
        let mut q = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            // Estimate q_hat from the top two limbs of the current remainder.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut q_hat = num / v_top as u128;
            let mut r_hat = num % v_top as u128;
            while q_hat >= 1u128 << 64
                || q_hat * v_next as u128 > ((r_hat << 64) | un[j + n - 2] as u128)
            {
                q_hat -= 1;
                r_hat += v_top as u128;
                if r_hat >= 1u128 << 64 {
                    break;
                }
            }
            // Multiply-subtract q_hat * v from u[j..j+n+1].
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = q_hat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[j + i] as i128 - (p as u64) as i128 - borrow;
                un[j + i] = t as u64;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = un[j + n] as i128 - carry as i128 - borrow;
            un[j + n] = t as u64;

            if t < 0 {
                // q_hat was one too large; add v back.
                q_hat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = (un[j + n] as u128).wrapping_add(carry) as u64;
            }
            q[j] = q_hat as u64;
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint {
            limbs: un[..n].to_vec(),
        };
        rem.normalize();
        Ok((quotient, rem.shr(shift)))
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> Result<BigUint> {
        Ok(self.div_rem(modulus)?.1)
    }

    /// Modular addition `(self + other) mod m`. Inputs must already be `< m`.
    pub fn mod_add(&self, other: &BigUint, m: &BigUint) -> Result<BigUint> {
        let s = self.add(other);
        if s.cmp_to(m) == Ordering::Less {
            Ok(s)
        } else {
            s.checked_sub(m)
        }
    }

    /// Modular subtraction `(self - other) mod m`. Inputs must be `< m`.
    pub fn mod_sub(&self, other: &BigUint, m: &BigUint) -> Result<BigUint> {
        if self.cmp_to(other) != Ordering::Less {
            self.checked_sub(other)
        } else {
            self.add(m).checked_sub(other)
        }
    }

    /// Modular multiplication `(self * other) mod m`.
    pub fn mod_mul(&self, other: &BigUint, m: &BigUint) -> Result<BigUint> {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation `self^exp mod modulus`.
    ///
    /// Odd moduli — the common case for DH and Schnorr primes — go through
    /// the windowed Montgomery engine; even ones through a generic
    /// square-and-multiply with explicit reduction.
    pub fn modexp(&self, exp: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        Self::multi_exp(&[(self, exp)], modulus)
    }

    /// Double exponentiation `a^ea * b^eb mod modulus` in about the time
    /// of one: both powers ride the same squarings.
    pub fn modexp2(
        a: &BigUint,
        ea: &BigUint,
        b: &BigUint,
        eb: &BigUint,
        modulus: &BigUint,
    ) -> Result<BigUint> {
        Self::multi_exp(&[(a, ea), (b, eb)], modulus)
    }

    /// The product of `base^exp mod modulus` over `terms`, with every
    /// exponentiation sharing one chain of squarings.
    fn multi_exp(terms: &[(&BigUint, &BigUint)], modulus: &BigUint) -> Result<BigUint> {
        Self::multi_exp_on(terms, modulus, Montgomery::new)
    }

    /// [`Self::multi_exp`] under the context `context` makes for an odd
    /// modulus.
    fn multi_exp_on(
        terms: &[(&BigUint, &BigUint)],
        modulus: &BigUint,
        context: impl FnOnce(&BigUint) -> Montgomery,
    ) -> Result<BigUint> {
        if modulus.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if modulus.is_one() {
            return Ok(Self::zero());
        }
        // `x^0 = 1` (also for `x = 0`) drops out of the product.
        let mut reduced = Vec::with_capacity(terms.len());
        for &(base, exp) in terms.iter().filter(|(_, exp)| !exp.is_zero()) {
            let base = base.rem(modulus)?;
            if base.is_zero() {
                return Ok(Self::zero());
            }
            reduced.push((base, exp));
        }
        if modulus.is_even() {
            let mut product = Self::one();
            for (base, exp) in &reduced {
                product = product.mod_mul(&base.modexp_generic(exp, modulus)?, modulus)?;
            }
            return Ok(product);
        }
        let reduced: Vec<_> = reduced
            .iter()
            .map(|(base, exp)| (Base::Value(base), *exp))
            .collect();
        Ok(context(modulus).multi_exp(&reduced))
    }

    fn modexp_generic(&self, exp: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        let mut result = Self::one();
        let mut base = self.clone();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mod_mul(&base, modulus)?;
            }
            if i + 1 < exp.bit_len() {
                base = base.mod_mul(&base, modulus)?;
            }
        }
        Ok(result)
    }

    /// `self^-1 mod m`: an error if `m` is 0 ([`CryptoError::DivisionByZero`])
    /// or `gcd(self, m) != 1`, and so for every `m = 1`.
    ///
    /// An odd `m` runs a binary extended GCD in place on four buffers of
    /// `m`'s limbs (`inv_odd`): 62 steps at a time on 126-bit
    /// approximations of the two values, then one pass over their full
    /// width and one over the cofactors, which absorbs the steps' `2^-62`
    /// Montgomery-style (Pornin, "Optimized Binary GCD for Modular
    /// Inversion", 2020). At 1 024 bits that is about 24 passes (at most
    /// 34) and no allocation after the first four buffers: 15–20 µs on a
    /// 2-core Xeon, ≈ 20× faster than an extended Euclid allocating on
    /// each of its ≈ 600 steps. An even `m` inverts `m` modulo the (then
    /// odd) `self mod m`:
    /// `self^-1 = m - (m * (m^-1 mod self) - 1) / self`.
    ///
    /// Variable-time in both inputs (branches, early exit, a width that
    /// shrinks): pass public values only. Its one caller outside tests,
    /// [`crate::schnorr::VerifyingKey::verify`], inverts a public key.
    pub fn mod_inv(&self, m: &BigUint) -> Result<BigUint> {
        let none = CryptoError::InvalidParameter("no modular inverse");
        let a = self.rem(m)?;
        if a.is_zero() {
            return Err(none);
        }
        if !m.is_even() {
            return inv_odd(&a.limbs, &m.limbs).ok_or(none);
        }
        if a.is_even() {
            return Err(none);
        }
        if a.is_one() {
            return Ok(a);
        }
        // `m * t = 1 + k * a` for `t = m^-1 mod a`, so `a * -k = 1 mod m`,
        // and `0 < k < m` because `0 < t < a`.
        let t = m.mod_inv(&a)?;
        let k = m.mul(&t).checked_sub(&Self::one())?.div_rem(&a)?.0;
        m.checked_sub(&k)
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random
    /// witnesses drawn from `fill`.
    ///
    /// A composite survives one round with probability ≤ 1/4, so 16 rounds
    /// give a false-positive bound of 2^-32 — ample for validating the
    /// built-in group parameters (the safe-prime property the Schnorr
    /// construction rests on).
    pub fn is_probable_prime(&self, rounds: u32, mut fill: impl FnMut(&mut [u8])) -> Result<bool> {
        // Small cases and even numbers.
        if self.cmp_to(&BigUint::from_u64(2)) == Ordering::Less {
            return Ok(false);
        }
        if *self == BigUint::from_u64(2) || *self == BigUint::from_u64(3) {
            return Ok(true);
        }
        if self.is_even() {
            return Ok(false);
        }
        // Quick trial division by small primes.
        for &p in &[3u64, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47] {
            let d = BigUint::from_u64(p);
            if *self == d {
                return Ok(true);
            }
            if self.rem(&d)?.is_zero() {
                return Ok(false);
            }
        }
        // Write n-1 = d * 2^r with d odd.
        let n_minus_1 = self.checked_sub(&BigUint::one())?;
        let mut d = n_minus_1.clone();
        let mut r = 0usize;
        while d.is_even() {
            d = d.shr(1);
            r += 1;
        }
        let two = BigUint::from_u64(2);
        let upper = self.checked_sub(&BigUint::from_u64(3))?; // witnesses in [2, n-2]
        'witness: for _ in 0..rounds {
            let a = BigUint::random_below(&upper, &mut fill)?.add(&two);
            let mut x = a.modexp(&d, self)?;
            if x.is_one() || x == n_minus_1 {
                continue 'witness;
            }
            for _ in 0..r.saturating_sub(1) {
                x = x.mod_mul(&x, self)?;
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return Ok(false);
        }
        Ok(true)
    }

    /// Generates a uniformly random integer in `[0, bound)` using rejection
    /// sampling from `fill` (a closure that fills a byte slice with random
    /// bytes, e.g. from [`crate::rng::SecureRng`]).
    pub fn random_below(bound: &BigUint, mut fill: impl FnMut(&mut [u8])) -> Result<BigUint> {
        if bound.is_zero() {
            return Err(CryptoError::InvalidParameter("random bound of zero"));
        }
        let bits = bound.bit_len();
        let bytes = bits.div_ceil(8);
        let top_mask = if bits.is_multiple_of(8) {
            0xff
        } else {
            (1u8 << (bits % 8)) - 1
        };
        let mut buf = vec![0u8; bytes];
        loop {
            fill(&mut buf);
            buf[0] &= top_mask;
            let candidate = BigUint::from_bytes_be(&buf);
            if candidate.cmp_to(bound) == Ordering::Less {
                return Ok(candidate);
            }
        }
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_to(other)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs `$body` with the const `$w` at `$len` when that is 12 or 16 limbs
/// (768 or 1 024 bits: every power a workload raises), else at 0.
macro_rules! at_width {
    ($len:expr, $w:ident => $body:expr) => {
        match $len {
            12 => {
                const $w: usize = 12;
                $body
            }
            16 => {
                const $w: usize = 16;
                $body
            }
            _ => {
                const $w: usize = 0;
                $body
            }
        }
    };
}

/// [`at_width!`] for `$mont`'s modulus, with the const `$ones` set when
/// its lowest limb is `2^64 - 1`, as in every MODP prime (RFC 2412,
/// App. E: "to help Montgomery-style remainder algorithms").
macro_rules! at_shape {
    ($mont:expr, $w:ident, $ones:ident => $body:expr) => {
        if $mont.n[0] == u64::MAX {
            const $ones: bool = true;
            at_width!($mont.n.len(), $w => $body)
        } else {
            const $ones: bool = false;
            at_width!($mont.n.len(), $w => $body)
        }
    };
}

/// The kernel that multiplies a [`Montgomery`] context's values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Engine {
    /// `len`-limb slices below `n`, `R = 2^(64 * len)`: every odd
    /// modulus, every CPU.
    U64,
    /// `k` 52-bit digits in whole vectors, below `2n`, `R = 2^(52k)`:
    /// 12 and 16 limbs on a CPU with AVX-512 IFMA (`ifma`).
    Ifma,
}

/// Montgomery arithmetic for an odd modulus `n` of `len` limbs.
///
/// Values are slices of the engine's `stride` — `len` limbs below `n`, or
/// the IFMA engine's digits below `2n`, so "mod n" below is a congruence
/// there — and the kernel (`mul`, `sqr`) works in place on an accumulator
/// and a caller-owned scratch `t` of `2 * len` limbs, so an exponentiation
/// allocates a handful of buffers up front and none per step.
pub(crate) struct Montgomery {
    n: Vec<u64>,
    /// `-n^-1 mod 2^64`.
    n_prime: u64,
    /// `R^2 mod n` in the engine's layout.
    r2: Vec<u64>,
    /// The IFMA engine's constants when it runs this modulus; else the
    /// `u64` kernel does.
    ifma: Option<ifma::Modulus>,
    /// The comb of the generator 2, when built by [`Self::with_comb`].
    comb: Option<Comb>,
}

/// A Lim–Lee fixed-base comb for `base`. An exponent below
/// `2^(rows * cols)` is read as `rows` rows of `cols` bits, each cut into
/// blocks of `span` columns (the last partial if `span` does not divide
/// `cols`). Entry `d` of block `k`'s sub-table is the Montgomery form of
/// the product of `base^(2^(j * cols + k * span))` over the set bits `j`
/// of `d` (entry 0 is one): block 0's raised to `2^(k * span)`. `base^E`
/// is `span` squarings, each followed by one entry from every block.
pub(crate) struct Comb {
    base: BigUint,
    /// The engine whose layout the table is in.
    engine: Engine,
    table: Vec<u64>,
    rows: usize,
    cols: usize,
    span: usize,
}

/// Shown by shape: the table is kilobytes of limbs.
impl fmt::Debug for Comb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Comb({} rows x {} columns)", self.rows, self.cols)
    }
}

/// A term's base in [`Montgomery::multi_exp`].
#[derive(Clone, Copy)]
pub(crate) enum Base<'a> {
    /// A value in `[1, n)`.
    Value(&'a BigUint),
    /// A comb's base: off its table when the exponent fits it, else as a
    /// value.
    Comb(&'a Comb),
}

/// Shown and compared by modulus: every other field is a function of it
/// and of the engine, which changes no result.
impl fmt::Debug for Montgomery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Montgomery({} limbs)", self.n.len())
    }
}

impl PartialEq for Montgomery {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
    }
}

impl Eq for Montgomery {}

impl Montgomery {
    /// The context for an odd `modulus > 1` on the IFMA engine where it
    /// runs, else on the `u64` one.
    fn new(modulus: &BigUint) -> Self {
        Self::on(Engine::Ifma, modulus)
            .or_else(|| Self::on(Engine::U64, modulus))
            .expect("the u64 engine runs every odd modulus")
    }

    /// The context for an odd `modulus > 1` on `engine`, if it runs that
    /// modulus on this CPU.
    pub(crate) fn on(engine: Engine, modulus: &BigUint) -> Option<Self> {
        debug_assert!(!modulus.is_even() && !modulus.is_zero());
        let n = modulus.limbs.clone();
        let n_prime = neg_inv(n[0]);
        let ifma = match engine {
            Engine::U64 => None,
            Engine::Ifma => Some(ifma::Modulus::new(modulus, n_prime)?),
        };
        let mut mont = Montgomery {
            n,
            n_prime,
            r2: Vec::new(),
            ifma,
            comb: None,
        };
        let r2 = BigUint::one()
            .shl(2 * mont.r_bits())
            .rem(modulus)
            .expect("modulus nonzero");
        mont.r2 = mont.layout(&r2);
        Some(mont)
    }

    /// Bits of the radix `R`.
    fn r_bits(&self) -> usize {
        self.ifma
            .as_ref()
            .map_or(64 * self.n.len(), ifma::Modulus::r_bits)
    }

    /// [`Self::new`] for an odd `modulus > 1`, plus a comb of the
    /// generator 2 of `rows` rows in `blocks` blocks covering every
    /// exponent of up to `64 * len` bits.
    pub(crate) fn with_comb(modulus: &BigUint, rows: usize, blocks: usize) -> Self {
        Self::new(modulus).and_comb(rows, blocks)
    }

    /// `self` with [`Self::with_comb`]'s comb.
    fn and_comb(mut self, rows: usize, blocks: usize) -> Self {
        let bits = 64 * self.n.len();
        self.comb = Some(Comb::new(&self, &BigUint::from_u64(2), bits, rows, blocks));
        self
    }

    /// The comb of the generator 2.
    pub(crate) fn comb(&self) -> &Comb {
        self.comb.as_ref().expect("context built with_comb")
    }

    /// The engine this context runs on.
    pub(crate) fn engine(&self) -> Engine {
        match self.ifma {
            Some(_) => Engine::Ifma,
            None => Engine::U64,
        }
    }

    /// Length of a value in the engine's layout.
    fn stride(&self) -> usize {
        self.ifma
            .as_ref()
            .map_or(self.n.len(), ifma::Modulus::stride)
    }

    /// `v` (below `R`) in the engine's layout, as it is: `len` limbs, or
    /// digits.
    fn layout(&self, v: &BigUint) -> Vec<u64> {
        match &self.ifma {
            Some(ifma) => ifma.digits(v),
            None => {
                let mut limbs = v.limbs.clone();
                limbs.resize(self.n.len(), 0);
                limbs
            }
        }
    }

    /// The value `x` lays out.
    fn value(&self, x: &[u64]) -> BigUint {
        match &self.ifma {
            Some(ifma) => ifma.value(x),
            None => {
                let mut v = BigUint { limbs: x.to_vec() };
                v.normalize();
                v
            }
        }
    }

    /// `v` (below `n`) in Montgomery form: `v * R mod n`, laid out.
    fn to_mont(&self, v: &BigUint, t: &mut [u64]) -> Vec<u64> {
        let mut x = self.layout(v);
        self.mul(&mut x, &self.r2, t);
        x
    }

    /// `acc = acc * b * R^-1 mod n`.
    fn mul(&self, acc: &mut [u64], b: &[u64], t: &mut [u64]) {
        match &self.ifma {
            Some(ifma) => ifma.mul(acc, b),
            None => at_shape!(self, W, ONES => {
                mul_wide::<W>(t, acc, b);
                self.reduce::<W, ONES>(acc, t)
            }),
        }
    }

    /// `acc = acc^2 * R^-1 mod n`.
    fn sqr(&self, acc: &mut [u64], t: &mut [u64]) {
        match &self.ifma {
            Some(ifma) => ifma.sqr(acc),
            None => at_shape!(self, W, ONES => {
                sqr_wide::<W>(t, acc);
                self.reduce::<W, ONES>(acc, t)
            }),
        }
    }

    /// Montgomery reduction: `out = t * R^-1 mod n` for a `2 * len`-limb
    /// `t < n * R` (which it clobbers). `ONES` says `n[0] = 2^64 - 1`:
    /// then `n' = 1`, so a row's multiplier `m` is `t[i]`, and its first
    /// product `t[i] + m * n[0] = m * 2^64` leaves the carry `m` and a zero
    /// that nothing reads again.
    #[inline(always)]
    fn reduce<const W: usize, const ONES: bool>(&self, out: &mut [u64], t: &mut [u64]) {
        debug_assert!(!ONES || self.n[0] == u64::MAX);
        let len = width::<W>(&self.n);
        let (n, t) = (&self.n[..len], &mut t[..2 * len]);
        let mut top = 0u64;
        for i in 0..len {
            let (m, mut carry, first) = match ONES {
                true => (t[i], t[i], 1),
                false => (t[i].wrapping_mul(self.n_prime), 0, 0),
            };
            for j in first..len {
                (t[i + j], carry) = mul_add(m, n[j], t[i + j], carry);
            }
            let (s, c1) = t[i + len].overflowing_add(carry);
            let (s, c2) = s.overflowing_add(top);
            t[i + len] = s;
            top = (c1 | c2) as u64;
        }
        out.copy_from_slice(&t[len..]);
        self.reduce_once(out, top);
    }

    /// Brings `acc + overflow * R`, known to be below `2n`, below `n`.
    /// When the value overflowed `R` the borrow out of the subtraction is
    /// absorbed by the implicit 2^(64*len) bit.
    fn reduce_once(&self, acc: &mut [u64], overflow: u64) {
        if overflow != 0 || ge_limbs(acc, &self.n) {
            let borrow = sub_limbs_in_place(acc, &self.n);
            debug_assert_eq!(borrow, overflow);
        }
    }

    /// `acc = acc * R^-1 mod n`, below `n`: out of Montgomery form.
    fn unscale(&self, acc: &mut [u64], t: &mut [u64]) {
        if let Some(ifma) = &self.ifma {
            return ifma.unscale(acc);
        }
        let len = self.n.len();
        t[..len].copy_from_slice(acc);
        t[len..].fill(0);
        at_shape!(self, W, ONES => self.reduce::<W, ONES>(acc, t))
    }

    /// One in Montgomery form: `R mod n = R^2 * R^-1`.
    fn one(&self, t: &mut [u64]) -> Vec<u64> {
        let mut one = self.r2.clone();
        self.unscale(&mut one, t);
        one
    }

    /// `acc = 2 * acc mod n`.
    fn double(&self, acc: &mut [u64]) {
        if let Some(ifma) = &self.ifma {
            return ifma.double(acc);
        }
        let mut carry = 0u64;
        for limb in acc.iter_mut() {
            let next = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = next;
        }
        self.reduce_once(acc, carry);
    }

    /// How `base^exp` (`base` nonzero, below `n`) enters [`Self::multi_exp`].
    fn powers<'a>(&self, base: Base<'a>, exp: &BigUint, one: &[u64], t: &mut [u64]) -> Powers<'a> {
        let base = match base {
            Base::Comb(comb) => {
                debug_assert_eq!(comb.engine, self.engine(), "a comb of another engine");
                if exp.bit_len() <= comb.rows * comb.cols {
                    return Powers::Comb(comb);
                }
                // A wider exponent than the comb covers takes the general
                // path.
                &comb.base
            }
            Base::Value(base) => base,
        };
        if let [limb] = base.limbs[..] {
            if limb.is_power_of_two() && limb <= MAX_SHIFT_BASE {
                return Powers::Shift(limb.trailing_zeros());
            }
        }
        let stride = self.stride();
        let mut table = vec![0u64; 16 * stride];
        table[..stride].copy_from_slice(one);
        table[stride..2 * stride].copy_from_slice(&self.to_mont(base, t));
        for digit in 2..16 {
            let (known, rest) = table.split_at_mut(digit * stride);
            rest[..stride].copy_from_slice(&known[(digit - 1) * stride..]);
            self.mul(&mut rest[..stride], &known[stride..2 * stride], t);
        }
        Powers::Table(table)
    }

    /// `prod base^exp mod n` over `terms` (bases nonzero and below `n`),
    /// left to right: one squaring of the accumulator per step, shared by
    /// all terms, after which each term multiplies its share in. A step is
    /// an exponent bit — or, on a comb, a column of every block: always
    /// the last `span`, each with a multiplication per block, whatever the
    /// exponent.
    pub(crate) fn multi_exp(&self, terms: &[(Base<'_>, &BigUint)]) -> BigUint {
        let stride = self.stride();
        let mut t = vec![0u64; 2 * self.n.len()];
        let mut acc = self.one(&mut t);
        let powers: Vec<Powers> = terms
            .iter()
            .map(|&(base, exp)| self.powers(base, exp, &acc, &mut t))
            .collect();
        let steps = terms
            .iter()
            .zip(&powers)
            .map(|((_, exp), powers)| match powers {
                Powers::Comb(comb) => comb.span,
                _ => exp.bit_len(),
            });
        for i in (0..steps.max().unwrap_or(0)).rev() {
            self.sqr(&mut acc, &mut t);
            for ((_, exp), powers) in terms.iter().zip(&powers) {
                match powers {
                    Powers::Shift(k) if exp.bit(i) => (0..*k).for_each(|_| self.double(&mut acc)),
                    Powers::Table(table) if i % 4 == 0 && exp.window(i) != 0 => {
                        self.mul(&mut acc, &table[exp.window(i) * stride..][..stride], &mut t)
                    }
                    Powers::Comb(comb) if i < comb.span => {
                        for (k, col) in (i..comb.cols).step_by(comb.span).enumerate() {
                            let entry = ((k << comb.rows) + exp.comb_digit(col, comb)) * stride;
                            self.mul(&mut acc, &comb.table[entry..][..stride], &mut t)
                        }
                    }
                    _ => {}
                }
            }
        }
        self.unscale(&mut acc, &mut t);
        self.value(&acc)
    }
}

impl Comb {
    /// A comb of `rows` rows in `blocks` blocks for `base` (nonzero, below
    /// `mont`'s modulus), covering every exponent of up to `bits` bits.
    pub(crate) fn new(
        mont: &Montgomery,
        base: &BigUint,
        bits: usize,
        rows: usize,
        blocks: usize,
    ) -> Self {
        let stride = mont.stride();
        let cols = bits.div_ceil(rows);
        let span = cols.div_ceil(blocks);
        let mut t = vec![0u64; 2 * mont.n.len()];
        let mut table = mont.one(&mut t).repeat(blocks << rows);
        // The powers base^(2^bit), bit = j * cols + k * span, in exponent
        // order: each is the one before squared up to its bit.
        let (mut power, mut squared) = (mont.to_mont(base, &mut t), 0);
        for j in 0..rows {
            for (k, bit) in (j * cols..(j + 1) * cols).step_by(span).enumerate() {
                (squared..bit).for_each(|_| mont.sqr(&mut power, &mut t));
                squared = bit;
                for d in (k << rows) + (1 << j)..(k << rows) + (2 << j) {
                    let (known, rest) = table.split_at_mut(d * stride);
                    rest[..stride].copy_from_slice(&known[(d - (1 << j)) * stride..][..stride]);
                    mont.mul(&mut rest[..stride], &power, &mut t);
                }
            }
        }
        Comb {
            base: base.clone(),
            engine: mont.engine(),
            table,
            rows,
            cols,
            span,
        }
    }
}

/// How one base of [`Montgomery::multi_exp`] is multiplied in.
enum Powers<'a> {
    /// The base is `2^k`: multiplying by it is `k` modular doublings,
    /// O(len) each, done bit by bit after each squaring.
    Shift(u32),
    /// Montgomery forms of `base^0 ..= base^15`, one stride each, for a
    /// fixed 4-bit window: one multiplication per four exponent bits.
    Table(Vec<u64>),
    /// A comb the exponent fits.
    Comb(&'a Comb),
}

/// Largest power-of-two base taken as [`Powers::Shift`]. An exponent bit
/// costs `k` doublings there against a quarter of a multiplication in a
/// table, which at DH widths breaks even near `k = 10`. With the
/// generators on the comb this serves [`BigUint::modexp`] of a small base.
const MAX_SHIFT_BASE: u64 = 1 << 8;

/// The limb count a kernel body runs at: `W`, or for `W = 0` that of `a`.
#[inline(always)]
fn width<const W: usize>(a: &[u64]) -> usize {
    debug_assert!(W == 0 || W == a.len(), "{W}-limb kernel, {} limbs", a.len());
    match W {
        0 => a.len(),
        _ => W,
    }
}

/// `t = a * b` for `len`-limb `a`, `b` and `2 * len`-limb `t`.
#[inline(always)]
fn mul_wide<const W: usize>(t: &mut [u64], a: &[u64], b: &[u64]) {
    let len = width::<W>(a);
    let (a, b, t) = (&a[..len], &b[..len], &mut t[..2 * len]);
    t[..len].fill(0);
    for i in 0..len {
        let mut carry = 0;
        for j in 0..len {
            (t[i + j], carry) = mul_add(a[i], b[j], t[i + j], carry);
        }
        t[i + len] = carry;
    }
}

/// `t = a^2`: each cross product `a[i] * a[j]`, `i < j`, is formed once,
/// their sum doubled and the squares `a[i]^2` added on the way — about
/// half the limb products of [`mul_wide`].
#[inline(always)]
fn sqr_wide<const W: usize>(t: &mut [u64], a: &[u64]) {
    let len = width::<W>(a);
    let (a, t) = (&a[..len], &mut t[..2 * len]);
    t[..len].fill(0);
    for i in 0..len {
        let mut carry = 0;
        for j in i + 1..len {
            (t[i + j], carry) = mul_add(a[i], a[j], t[i + j], carry);
        }
        t[i + len] = carry;
    }
    let (mut shifted_out, mut carry) = (0u64, 0u64);
    for (pair, &ai) in t.chunks_exact_mut(2).zip(a) {
        let square = ai as u128 * ai as u128;
        let lo = (pair[0] << 1) | shifted_out;
        let hi = (pair[1] << 1) | (pair[0] >> 63);
        shifted_out = pair[1] >> 63;
        let s = lo as u128 + (square as u64) as u128 + carry as u128;
        pair[0] = s as u64;
        let s = hi as u128 + (square >> 64) + (s >> 64);
        pair[1] = s as u64;
        carry = (s >> 64) as u64;
    }
    debug_assert_eq!((shifted_out, carry), (0, 0));
}

/// `a * b + c + d` as low and high limbs: at most `2^128 - 1`, so it
/// cannot overflow.
#[inline(always)]
fn mul_add(a: u64, b: u64, c: u64, d: u64) -> (u64, u64) {
    let s = a as u128 * b as u128 + c as u128 + d as u128;
    (s as u64, (s >> 64) as u64)
}

fn ge_limbs(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Greater => return true,
            Ordering::Less => return false,
            Ordering::Equal => {}
        }
    }
    true
}

/// Subtracts `b` from `a` in place, returning the final borrow (0 or 1).
fn sub_limbs_in_place(a: &mut [u64], b: &[u64]) -> u64 {
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    borrow
}

/// `-n^-1 mod 2^64` for an odd `n`, by Newton iteration (each step
/// doubles the bits that are right).
fn neg_inv(n: u64) -> u64 {
    let mut inv = 1u64;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(n.wrapping_mul(inv)));
    }
    inv.wrapping_neg()
}

/// Binary-GCD steps per pass of [`inv_odd`]: the most whose update
/// factors fit an `i64` (`|f| + |g| <= 2^STEPS`).
const STEPS: u32 = 62;

/// The low [`STEPS`] bits of a limb.
const LOW: u64 = (1 << STEPS) - 1;

/// `x^-1 mod m` for an odd `m > 1` and `0 < x < m` (canonical limbs), or
/// `None` if `gcd(x, m) > 1`.
///
/// The binary extended GCD keeps `b` odd: an even `a` halves, an odd one
/// swaps with `b` if smaller and becomes `(a - b) / 2`, until `a = 0` and
/// `b = gcd(x, m)`. Cofactors keep `a = u * x` and `b = v * x (mod m)`, so
/// `v` ends as `x^-1`. [`gcd_steps`] runs [`STEPS`] steps on
/// [`approximations`] of `a` and `b` — exact low bits decide the parities,
/// top bits the comparisons — into factors that one [`combine`] applies
/// to the full values and one to the cofactors. A comparison the top
/// bits got wrong leaves a negative value, negated with its factors;
/// Pornin proves the binary GCD's `2 * bits - 1` steps suffice all the
/// same, which bounds the passes.
fn inv_odd(x: &[u64], m: &[u64]) -> Option<BigUint> {
    let len = m.len();
    let mut buf = vec![0u64; 4 * len];
    let (a, rest) = buf.split_at_mut(len);
    let (b, rest) = rest.split_at_mut(len);
    let (u, v) = rest.split_at_mut(len);
    a[..x.len()].copy_from_slice(x);
    b.copy_from_slice(m);
    u[0] = 1;
    let m_neg_inv = neg_inv(m[0]);
    let max_passes = (128 * len - 1).div_ceil(STEPS as usize);
    let (mut width, mut passes) = (len, 0);
    loop {
        while a[width - 1] == 0 && b[width - 1] == 0 {
            width -= 1;
        }
        if a[..width].iter().all(|&l| l == 0) {
            let one = b[0] == 1 && b[1..width].iter().all(|&l| l == 0);
            return one.then(|| {
                let mut inv = BigUint { limbs: v.to_vec() };
                inv.normalize();
                inv
            });
        }
        assert!(passes < max_passes, "binary GCD past {max_passes} passes");
        passes += 1;
        let (ah, bh) = approximations(&a[..width], &b[..width]);
        let [f0, g0, f1, g1] = gcd_steps(ah, bh);
        let mut rows = [[f0, g0, 0], [f1, g1, 0]];
        let [top_a, top_b] = combine::<false>(&mut a[..width], &mut b[..width], &[], rows);
        if top_a < 0 {
            negate(&mut a[..width]);
            rows[0] = [-f0, -g0, 0];
        }
        if top_b < 0 {
            negate(&mut b[..width]);
            rows[1] = [-f1, -g1, 0];
        }
        // The multiple of `m` that makes each cofactor sum divisible.
        for row in &mut rows {
            let low = (row[0] as u64)
                .wrapping_mul(u[0])
                .wrapping_add((row[1] as u64).wrapping_mul(v[0]));
            row[2] = (low.wrapping_mul(m_neg_inv) & LOW) as i64;
        }
        let tops = combine::<true>(u, v, m, rows);
        for (cofactor, top) in [&mut *u, &mut *v].into_iter().zip(tops) {
            if top < 0 {
                add_limbs_in_place(cofactor, m);
            } else if top > 0 || ge_limbs(cofactor, m) {
                sub_limbs_in_place(cofactor, m);
            }
        }
    }
}

/// Stand-ins for `a` and `b`, whose top limbs are not both zero: the
/// values themselves when both fit a `u128`, else 126 bits of each, its
/// 64 bits from `n - 64` on over its low 62, `n` the longer's length.
fn approximations(a: &[u64], b: &[u64]) -> (u128, u128) {
    let len = a.len();
    let n = 64 * len - (a[len - 1] | b[len - 1]).leading_zeros() as usize;
    if n <= 128 {
        let value = |x: &[u64]| x[0] as u128 | (x.get(1).copied().unwrap_or(0) as u128) << 64;
        return (value(a), value(b));
    }
    let (i, off) = ((n - 64) / 64, (n - 64) % 64);
    let approx = |x: &[u64]| {
        let top = match off {
            0 => x[i],
            _ => x[i] >> off | x[i + 1] << (64 - off),
        };
        (top as u128) << STEPS | (x[0] & LOW) as u128
    };
    (approx(a), approx(b))
}

/// [`STEPS`] binary-GCD steps on `(a, b)`, `b` odd, as the factors
/// `[f0, g0, f1, g1]` that take the pair to `((f0 a + g0 b) / 2^STEPS,
/// (f1 a + g1 b) / 2^STEPS)`. A halving doubles `b`'s row in place of
/// dividing `a`'s, and a run of them is one shift.
fn gcd_steps(mut a: u128, mut b: u128) -> [i64; 4] {
    let (mut f0, mut g0, mut f1, mut g1) = (1i64, 0i64, 0i64, 1i64);
    let mut left = STEPS;
    while left > 0 {
        if a & 1 == 0 {
            let z = a.trailing_zeros().min(left);
            a >>= z;
            (f1, g1) = (f1 << z, g1 << z);
            left -= z;
            continue;
        }
        if a < b {
            (a, b, f0, g0, f1, g1) = (b, a, f1, g1, f0, g0);
        }
        a = (a - b) >> 1;
        (f0, g0) = (f0 - f1, g0 - g1);
        (f1, g1) = (f1 << 1, g1 << 1);
        left -= 1;
    }
    [f0, g0, f1, g1]
}

/// Writes `(f x + g y + q m) / 2^STEPS` for the rows `[f, g, q]` over `x`
/// and `y` in place, dividing exactly, and returns each result's bits from
/// `64 * len` up as a signed word. `|f| + |g| <= 2^STEPS` and `q < 2^STEPS`
/// (0 unless `MOD`) keep every limb's sum inside an `i128`.
fn combine<const MOD: bool>(
    x: &mut [u64],
    y: &mut [u64],
    m: &[u64],
    rows: [[i64; 3]; 2],
) -> [i64; 2] {
    let rows = rows.map(|row| row.map(i128::from));
    let (mut sums, mut lows) = ([0i128; 2], [0u64; 2]);
    for i in 0..x.len() {
        let (xi, yi) = (i128::from(x[i]), i128::from(y[i]));
        let mi = if MOD { i128::from(m[i]) } else { 0 };
        for k in 0..2 {
            let [f, g, q] = rows[k];
            sums[k] += f * xi + g * yi + q * mi;
            let low = sums[k] as u64;
            match (k, i) {
                (_, 0) => debug_assert_eq!(low & LOW, 0, "inexact division"),
                (0, _) => x[i - 1] = lows[0] >> STEPS | low << (64 - STEPS),
                _ => y[i - 1] = lows[1] >> STEPS | low << (64 - STEPS),
            }
            lows[k] = low;
            sums[k] >>= 64;
        }
    }
    let last = x.len() - 1;
    x[last] = lows[0] >> STEPS | (sums[0] as u64) << (64 - STEPS);
    y[last] = lows[1] >> STEPS | (sums[1] as u64) << (64 - STEPS);
    sums.map(|sum| (sum >> STEPS) as i64)
}

/// `a = -a mod 2^(64 * len)`.
fn negate(a: &mut [u64]) {
    let mut carry = true;
    for l in a {
        (*l, carry) = (!*l).overflowing_add(carry as u64);
    }
}

/// Adds `b` to `a` in place, dropping the final carry.
fn add_limbs_in_place(a: &mut [u64], b: &[u64]) {
    let mut carry = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (s, c1) = x.overflowing_add(y);
        let (s, c2) = s.overflowing_add(carry as u64);
        (*x, carry) = (s, c1 | c2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    pub(super) fn b(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn bytes_roundtrip() {
        let n = BigUint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        assert_eq!(
            n.to_bytes_be(),
            vec![0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]
        );
    }

    #[test]
    fn bytes_leading_zeros_stripped() {
        let n = BigUint::from_bytes_be(&[0x00, 0x00, 0xff]);
        assert_eq!(n.to_bytes_be(), vec![0xff]);
        assert_eq!(n, b(255));
    }

    #[test]
    fn padded_bytes() {
        let n = b(0xabcd);
        assert_eq!(
            n.to_bytes_be_padded(4).unwrap(),
            vec![0x00, 0x00, 0xab, 0xcd]
        );
        assert!(b(0x1_0000_0000).to_bytes_be_padded(2).is_err());
    }

    #[test]
    fn hex_roundtrip() {
        let n = BigUint::from_hex("deadbeef00112233").unwrap();
        assert_eq!(n.to_hex(), "deadbeef00112233");
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert_eq!(BigUint::zero().to_hex(), "0");
        // Odd nibble count.
        assert_eq!(BigUint::from_hex("fff").unwrap(), b(0xfff));
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = BigUint::from_u64(u64::MAX);
        let s = a.add(&BigUint::one());
        assert_eq!(s.to_hex(), "10000000000000000");
    }

    #[test]
    fn sub_basics() {
        assert_eq!(b(100).checked_sub(&b(58)).unwrap(), b(42));
        assert!(b(1).checked_sub(&b(2)).is_err());
        let big = BigUint::from_hex("10000000000000000").unwrap();
        assert_eq!(
            big.checked_sub(&BigUint::one()).unwrap(),
            BigUint::from_u64(u64::MAX)
        );
    }

    #[test]
    fn mul_known() {
        assert_eq!(b(12345).mul(&b(6789)), b(12345 * 6789));
        assert!(b(5).mul(&BigUint::zero()).is_zero());
        let a = BigUint::from_u64(u64::MAX);
        assert_eq!(a.mul(&a).to_hex(), "fffffffffffffffe0000000000000001");
    }

    #[test]
    fn shifts() {
        assert_eq!(b(1).shl(64).to_hex(), "10000000000000000");
        assert_eq!(b(1).shl(64).shr(64), b(1));
        assert_eq!(b(0b1010).shr(1), b(0b101));
        assert!(b(1).shr(1).is_zero());
        assert_eq!(b(3).shl(3), b(24));
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = b(100).div_rem(&b(7)).unwrap();
        assert_eq!(q, b(14));
        assert_eq!(r, b(2));
        assert!(b(1).div_rem(&BigUint::zero()).is_err());
        let (q, r) = b(3).div_rem(&b(10)).unwrap();
        assert!(q.is_zero());
        assert_eq!(r, b(3));
    }

    #[test]
    fn div_rem_multi_limb() {
        let n = BigUint::from_hex("1fffffffffffffffffffffffffffffffff").unwrap();
        let d = BigUint::from_hex("ffffffffffffffff1").unwrap();
        let (q, r) = n.div_rem(&d).unwrap();
        assert_eq!(q.mul(&d).add(&r), n);
        assert!(r.cmp_to(&d) == Ordering::Less);
    }

    #[test]
    fn modexp_small_cases() {
        assert_eq!(b(2).modexp(&b(10), &b(1000)).unwrap(), b(24));
        assert_eq!(b(3).modexp(&b(0), &b(7)).unwrap(), b(1));
        assert_eq!(b(0).modexp(&b(5), &b(7)).unwrap(), b(0));
        assert_eq!(b(5).modexp(&b(3), &b(1)).unwrap(), b(0));
        // Fermat's little theorem: a^(p-1) = 1 mod p.
        assert_eq!(b(17).modexp(&b(1008), &b(1009)).unwrap(), b(1));
    }

    #[test]
    fn modexp_even_modulus() {
        assert_eq!(b(3).modexp(&b(4), &b(100)).unwrap(), b(81));
        assert_eq!(b(7).modexp(&b(5), &b(36)).unwrap(), b(16807 % 36));
    }

    #[test]
    fn modexp_matches_generic_on_large_odd_modulus() {
        let m =
            BigUint::from_hex("f1d5d9c7a8b3e5f70123456789abcdef0123456789abcdef0123456789abcdef")
                .unwrap();
        let base = BigUint::from_hex("abcdef0123456789").unwrap();
        let exp = BigUint::from_hex("fedcba9876543210f00d").unwrap();
        let fast = base.modexp(&exp, &m).unwrap();
        let slow = base.rem(&m).unwrap().modexp_generic(&exp, &m).unwrap();
        assert_eq!(fast, slow);
    }

    /// The `mod_inv` the binary GCD replaced: extended Euclid with signed
    /// coefficients as `(magnitude, negative?)`, a quotient, a product and
    /// a difference of fresh `BigUint`s per step. The oracle every inverse
    /// below is held to.
    fn inv_by_euclid(a: &BigUint, m: &BigUint) -> Result<BigUint> {
        if m.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        let mut r0 = m.clone();
        let mut r1 = a.rem(m)?;
        if r1.is_zero() {
            return Err(CryptoError::InvalidParameter("no modular inverse"));
        }
        let mut t0 = (BigUint::zero(), false);
        let mut t1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r) = r0.div_rem(&r1)?;
            // t2 = t0 - q * t1 (tracking sign manually)
            let qt = q.mul(&t1.0);
            let t2 = match (t0.1, t1.1) {
                (false, false) => {
                    if t0.0.cmp_to(&qt) != Ordering::Less {
                        (t0.0.checked_sub(&qt)?, false)
                    } else {
                        (qt.checked_sub(&t0.0)?, true)
                    }
                }
                (false, true) => (t0.0.add(&qt), false),
                (true, false) => (t0.0.add(&qt), true),
                (true, true) => {
                    if qt.cmp_to(&t0.0) != Ordering::Less {
                        (qt.checked_sub(&t0.0)?, false)
                    } else {
                        (t0.0.checked_sub(&qt)?, true)
                    }
                }
            };
            t0 = t1;
            t1 = t2;
            r0 = r1;
            r1 = r;
        }
        if !r0.is_one() {
            return Err(CryptoError::InvalidParameter("no modular inverse"));
        }
        let (coeff, neg) = t0;
        let inv = if neg {
            m.checked_sub(&coeff.rem(m)?)?.rem(m)?
        } else {
            coeff.rem(m)?
        };
        Ok(inv)
    }

    fn gcd(a: &BigUint, m: &BigUint) -> BigUint {
        let (mut x, mut y) = (a.clone(), m.clone());
        while !y.is_zero() {
            (x, y) = (y.clone(), x.rem(&y).unwrap());
        }
        x
    }

    /// `a.mod_inv(m)` is the Euclid oracle's answer, `Ok` exactly when
    /// `m > 1` and `gcd(a, m) = 1`, and then below `m` with `a * inv = 1`.
    fn assert_inverse(a: &BigUint, m: &BigUint) -> Option<BigUint> {
        let inv = a.mod_inv(m);
        assert_eq!(inv, inv_by_euclid(a, m), "{a:?}^-1 mod {m:?}");
        let invertible = m.bit_len() > 1 && gcd(a, m).is_one();
        assert_eq!(inv.is_ok(), invertible, "{a:?}^-1 mod {m:?}");
        let inv = inv.ok()?;
        assert!(inv < *m && a.mul(&inv).rem(m).unwrap().is_one());
        Some(inv)
    }

    /// Every `a <= 9` modulo `m <= 4` (`a = 0`, `a >= m`, `m` in {0, 1,
    /// 2}); then at each width of 1 to 33 limbs, moduli of all ones,
    /// `2^(64 len) + 1` (one limb wider), a power of two and its
    /// neighbours, against small, top-heavy, equal and wider partners, and
    /// ones that match `m` in their top 64 bits but are smaller, which the
    /// approximations misorder: a pass then ends with `a` negative, or
    /// with `b` (`m = 2^(64 len) - 257`, `a = m - 2^(32 len) + 2`). Then a
    /// gcd whose low limb is 1, and consecutive Fibonacci numbers,
    /// Euclid's slowest pair.
    #[test]
    fn mod_inv_at_the_edges() {
        for m in 0..=4 {
            for a in 0..=9 {
                assert_inverse(&b(a), &b(m));
            }
        }
        let one = BigUint::one();
        for len in 1..=33 {
            let radix = one.shl(64 * len);
            let ones = radix.checked_sub(&one).unwrap();
            let half = one.shl(64 * len - 1);
            for m in [
                ones.clone(),
                radix.add(&one),
                half.clone(),
                half.add(&one),
                ones.shr(1),
                radix.checked_sub(&b(257)).unwrap(),
            ] {
                let below = |k| m.checked_sub(&b(k)).unwrap();
                for a in [
                    b(0),
                    b(1),
                    b(2),
                    b(3),
                    below(1),
                    below(2),
                    m.clone(),
                    m.add(&one),
                    half.add(&b(7)),
                    ones.shr(2),
                    m.checked_sub(&one.shl(32 * len)).unwrap(),
                    m.checked_sub(&one.shl(32 * len)).unwrap().add(&b(2)),
                ] {
                    assert_inverse(&a, &m);
                }
            }
        }
        let shared = BigUint::one().shl(64).add(&one);
        assert_inverse(&shared.mul(&b(3)), &shared.mul(&b(7)));
        let (mut f0, mut f1) = (BigUint::zero(), BigUint::one());
        for _ in 0..1476 {
            (f0, f1) = (f1.clone(), f0.add(&f1));
        }
        assert!(f1.bit_len() > 1024 && f0.is_even() && !f1.is_even());
        assert!(assert_inverse(&f0, &f1).is_some() && assert_inverse(&f1, &f0).is_some());
    }

    /// Each MODP prime's known answers, `c^-1 = (j p + 1) / c` for small
    /// `c`: a full-width inverse of a one-limb value and back. Then the
    /// Euclid oracle's answer for random `a < p`: 1 000 per prime in a
    /// release build, 16 with debug assertions.
    #[test]
    fn mod_inv_per_modp_prime() {
        use crate::dh::DhGroup;
        use crate::rng::SecureRng;
        let mut rng = SecureRng::seed_from_u64(41);
        let draws = if cfg!(debug_assertions) { 16 } else { 1_000 };
        for group in [
            DhGroup::modp768(),
            DhGroup::modp1024(),
            DhGroup::modp1536(),
            DhGroup::modp2048(),
        ] {
            let p = &group.p;
            for c in [2, 3, 5, 7, 11, 13] {
                let j = (1..c).find(|&j| p.mul(&b(j)).add(&b(1)).rem(&b(c)).unwrap().is_zero());
                let (inv, rest) = p.mul(&b(j.unwrap())).add(&b(1)).div_rem(&b(c)).unwrap();
                assert!(rest.is_zero());
                assert_eq!(
                    b(c).mod_inv(p).unwrap(),
                    inv,
                    "{c}^-1 mod the {}-bit prime",
                    group.bits
                );
                assert_eq!(inv.mod_inv(p).unwrap(), b(c));
            }
            for _ in 0..draws {
                let a = BigUint::random_below(p, |buf| rng.fill_bytes(buf)).unwrap();
                assert_inverse(&a, p);
            }
        }
    }

    #[test]
    fn mod_inv_known() {
        // 3 * 5 = 15 = 1 mod 7 → inv(3) mod 7 = 5
        assert_eq!(b(3).mod_inv(&b(7)).unwrap(), b(5));
        assert_eq!(b(10).mod_inv(&b(17)).unwrap(), b(12)); // 120 = 7*17+1
        assert!(b(6).mod_inv(&b(9)).is_err()); // gcd 3
    }

    #[test]
    fn mod_add_sub() {
        let m = b(13);
        assert_eq!(b(7).mod_add(&b(8), &m).unwrap(), b(2));
        assert_eq!(b(3).mod_sub(&b(8), &m).unwrap(), b(8));
        assert_eq!(b(8).mod_sub(&b(3), &m).unwrap(), b(5));
    }

    #[test]
    fn random_below_respects_bound() {
        let bound = b(1000);
        let mut state = 0x12345u64;
        for _ in 0..100 {
            let v = BigUint::random_below(&bound, |buf| {
                for byte in buf.iter_mut() {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    *byte = (state >> 32) as u8;
                }
            })
            .unwrap();
            assert!(v.cmp_to(&bound) == Ordering::Less);
        }
    }

    proptest! {
        #[test]
        fn prop_add_sub_roundtrip(a in proptest::collection::vec(any::<u8>(), 0..40),
                                  c in proptest::collection::vec(any::<u8>(), 0..40)) {
            let x = BigUint::from_bytes_be(&a);
            let y = BigUint::from_bytes_be(&c);
            let s = x.add(&y);
            prop_assert_eq!(s.checked_sub(&y).unwrap(), x.clone());
            prop_assert_eq!(s.checked_sub(&x).unwrap(), y);
        }

        #[test]
        fn prop_div_rem_reconstruct(a in proptest::collection::vec(any::<u8>(), 0..48),
                                    d in proptest::collection::vec(any::<u8>(), 1..24)) {
            let n = BigUint::from_bytes_be(&a);
            let mut div = BigUint::from_bytes_be(&d);
            if div.is_zero() { div = BigUint::one(); }
            let (q, r) = n.div_rem(&div).unwrap();
            prop_assert_eq!(q.mul(&div).add(&r), n);
            prop_assert!(r.cmp_to(&div) == Ordering::Less);
        }

        #[test]
        fn prop_mul_commutative(a in proptest::collection::vec(any::<u8>(), 0..32),
                                c in proptest::collection::vec(any::<u8>(), 0..32)) {
            let x = BigUint::from_bytes_be(&a);
            let y = BigUint::from_bytes_be(&c);
            prop_assert_eq!(x.mul(&y), y.mul(&x));
        }

        #[test]
        fn prop_modexp_montgomery_matches_generic(
            base in proptest::collection::vec(any::<u8>(), 1..24),
            exp in proptest::collection::vec(any::<u8>(), 1..8),
            mut modbytes in proptest::collection::vec(any::<u8>(), 2..24),
        ) {
            // Force an odd modulus > 1.
            *modbytes.last_mut().unwrap() |= 1;
            let m = BigUint::from_bytes_be(&modbytes);
            prop_assume!(!m.is_one());
            let b = BigUint::from_bytes_be(&base);
            let e = BigUint::from_bytes_be(&exp);
            let fast = b.modexp(&e, &m).unwrap();
            let slow = b.rem(&m).unwrap().modexp_generic(&e, &m).unwrap();
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn prop_hex_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let n = BigUint::from_bytes_be(&bytes);
            prop_assert_eq!(BigUint::from_hex(&n.to_hex()).unwrap(), n);
        }

        #[test]
        fn prop_shift_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..32),
                                shift in 0usize..200) {
            let n = BigUint::from_bytes_be(&bytes);
            prop_assert_eq!(n.shl(shift).shr(shift), n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_mod_inv_is_inverse(a in any::<u64>(), m in any::<u64>()) {
            assert_inverse(&b(a), &b(m));
        }

        /// Moduli of 1 to 33 limbs, odd and even, partners up to two limbs
        /// wider, and in half the cases a shared factor (0 and 1 among them).
        #[test]
        fn prop_mod_inv_matches_euclid_at_every_width(
            mut m in proptest::collection::vec(any::<u64>(), 1..34),
            a in proptest::collection::vec(any::<u64>(), 0..36),
            odd in any::<bool>(),
            factor in 0u64..u64::MAX,
        ) {
            m[0] = m[0] & !1 | odd as u64;
            let (mut a, mut m) = (BigUint { limbs: a }, BigUint { limbs: m });
            a.normalize();
            m.normalize();
            if factor & 1 == 1 {
                (a, m) = (a.mul(&b(factor >> 1)), m.mul(&b(factor >> 1)));
            }
            assert_inverse(&a, &m);
        }
    }
}

#[cfg(test)]
mod primality_tests {
    use super::*;
    use crate::rng::SecureRng;

    fn filler() -> impl FnMut(&mut [u8]) {
        let mut rng = SecureRng::seed_from_u64(31337);
        move |buf: &mut [u8]| rng.fill_bytes(buf)
    }

    fn is_prime(n: &BigUint) -> bool {
        n.is_probable_prime(16, filler()).unwrap()
    }

    #[test]
    fn small_numbers_classified_correctly() {
        let primes = [2u64, 3, 5, 7, 11, 13, 101, 7919, 104729];
        let composites = [0u64, 1, 4, 6, 9, 15, 100, 7917, 104730];
        for p in primes {
            assert!(is_prime(&BigUint::from_u64(p)), "{p} is prime");
        }
        for c in composites {
            assert!(!is_prime(&BigUint::from_u64(c)), "{c} is composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Fermat liars that defeat naive a^(n-1) tests: 561, 1105, 1729,
        // 41041, 825265.
        for c in [561u64, 1105, 1729, 41041, 825265] {
            assert!(
                !is_prime(&BigUint::from_u64(c)),
                "{c} is a Carmichael number"
            );
        }
    }

    #[test]
    fn mersenne_and_known_large_primes() {
        // 2^89-1 and 2^107-1 are Mersenne primes; 2^97-1 is composite.
        let m = |e: usize| BigUint::one().shl(e).checked_sub(&BigUint::one()).unwrap();
        assert!(is_prime(&m(89)));
        assert!(is_prime(&m(107)));
        assert!(!is_prime(&m(97)));
    }

    #[test]
    fn oakley_groups_are_safe_primes() {
        // The foundation of the Schnorr group construction: the built-in
        // MODP primes are prime AND (p-1)/2 is prime (safe primes), so
        // g = 4 provably generates the order-q subgroup.
        use crate::dh::DhGroup;
        for group in [DhGroup::modp768(), DhGroup::modp1024()] {
            assert!(
                group.p.is_probable_prime(8, filler()).unwrap(),
                "{}-bit modulus must be prime",
                group.bits
            );
            let q = group.p.checked_sub(&BigUint::one()).unwrap().shr(1);
            assert!(
                q.is_probable_prime(8, filler()).unwrap(),
                "{}-bit (p-1)/2 must be prime",
                group.bits
            );
        }
    }
}

/// The exponentiation engine at the widths that run (12 to 32 limbs), on
/// every engine this CPU has, held to `modexp_generic` — divide-and-reduce
/// square-and-multiply that shares no code with either kernel. The tests
/// that walk fixed cases print how often each engine ran and, on a CPU
/// with AVX-512 IFMA, fail unless its engine was among them.
#[cfg(test)]
mod engine_tests {
    use super::tests::b;
    use super::*;
    use crate::dh::DhGroup;
    use proptest::prelude::*;

    const ENGINES: [Engine; 2] = [Engine::U64, Engine::Ifma];

    fn oracle(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        base.rem(m).unwrap().modexp_generic(exp, m).unwrap()
    }

    fn oracle2(a: &BigUint, ea: &BigUint, b: &BigUint, eb: &BigUint, m: &BigUint) -> BigUint {
        oracle(a, ea, m).mod_mul(&oracle(b, eb, m), m).unwrap()
    }

    /// The contexts for `m` on every engine that runs it here.
    fn contexts(m: &BigUint) -> Vec<Montgomery> {
        ENGINES
            .into_iter()
            .filter_map(|engine| Montgomery::on(engine, m))
            .collect()
    }

    /// The engines that run `m` here.
    fn engines(m: &BigUint) -> Vec<Engine> {
        contexts(m).iter().map(Montgomery::engine).collect()
    }

    /// `BigUint::multi_exp` on `engine`.
    fn multi_exp_on(engine: Engine, terms: &[(&BigUint, &BigUint)], m: &BigUint) -> BigUint {
        let context = |m: &BigUint| Montgomery::on(engine, m).expect("the engine runs m");
        BigUint::multi_exp_on(terms, m, context).unwrap()
    }

    /// Whether this CPU runs the IFMA engine.
    fn ifma_here() -> bool {
        Montgomery::on(Engine::Ifma, &DhGroup::modp768().p).is_some()
    }

    /// Prints how often `test` ran each engine and holds it to having run
    /// the IFMA one wherever this CPU has it.
    fn report(test: &str, ran: &[Engine]) {
        let runs = ENGINES.map(|engine| (engine, ran.iter().filter(|&&e| e == engine).count()));
        eprintln!("{test}: runs per engine {runs:?}");
        assert!(runs[0].1 > 0, "{test}: the u64 engine never ran");
        assert!(
            !ifma_here() || runs[1].1 > 0,
            "{test}: the IFMA engine never ran"
        );
    }

    /// The four MODP primes (top and bottom limbs all ones) and a 13-limb
    /// odd modulus whose lowest limb is 1, so `n' = -1`.
    fn wide_moduli() -> Vec<BigUint> {
        let mut limbs = vec![0x0123_4567_89ab_cdef_u64; 13];
        limbs[0] = 1;
        limbs[12] = u64::MAX;
        vec![
            DhGroup::modp768().p,
            DhGroup::modp1024().p,
            DhGroup::modp1536().p,
            DhGroup::modp2048().p,
            BigUint { limbs },
        ]
    }

    /// A context picks the IFMA engine at 12 and 16 limbs on a CPU that
    /// has it, the u64 engine everywhere else; the built-in groups share
    /// such contexts.
    #[test]
    fn new_picks_ifma_at_its_widths_where_the_cpu_has_it() {
        for m in wide_moduli() {
            let at_width = matches!(m.limbs.len(), 12 | 16);
            let expected = match at_width && ifma_here() {
                true => Engine::Ifma,
                false => Engine::U64,
            };
            assert_eq!(
                Montgomery::new(&m).engine(),
                expected,
                "{} limbs",
                m.limbs.len()
            );
            assert_eq!(
                Montgomery::on(Engine::Ifma, &m).is_some(),
                at_width && ifma_here()
            );
        }
        let expected = if ifma_here() {
            Engine::Ifma
        } else {
            Engine::U64
        };
        assert_eq!(DhGroup::modp768().ctx.engine(), expected);
        assert_eq!(DhGroup::modp1024().ctx.comb().engine, expected);
    }

    #[test]
    fn modexp_matches_generic_on_edge_operands() {
        let (one, mut ran) = (BigUint::one(), Vec::new());
        for m in wide_moduli() {
            let bases = [
                BigUint::zero(),
                one.clone(),
                b(2),
                b(4),
                // One-limb powers of two at and beyond MAX_SHIFT_BASE, and a
                // many-limb one: the last three take the table.
                b(MAX_SHIFT_BASE),
                b(MAX_SHIFT_BASE << 1),
                b(1 << 63),
                one.shl(200),
                m.checked_sub(&one).unwrap(),
                m.clone(),
                m.add(&b(4)),
                m.shl(70).add(&b(3)),
            ];
            let exps = [
                BigUint::zero(),
                one.clone(),
                b(2),
                one.shl(64),
                one.shl(m.bit_len() - 1),
                m.checked_sub(&b(2)).unwrap(),
            ];
            for engine in engines(&m) {
                ran.push(engine);
                for base in &bases {
                    for exp in &exps {
                        assert_eq!(
                            multi_exp_on(engine, &[(base, exp)], &m),
                            oracle(base, exp, &m),
                            "{engine:?}: {base:?} ^ {exp:?} mod {m:?}"
                        );
                    }
                }
            }
        }
        report("modexp_matches_generic_on_edge_operands", &ran);
    }

    #[test]
    fn modexp2_handles_zero_bases_exponents_and_degenerate_moduli() {
        let m = DhGroup::modp1024().p;
        let (g, y) = (b(4), m.shr(3).add(&b(12345)));
        let (s, e) = (m.checked_sub(&b(2)).unwrap(), m.shr(1));
        let zero = BigUint::zero();
        let ran = engines(&m);
        for &engine in &ran {
            for (a, ea, bb, eb) in [
                (&g, &s, &y, &e),
                (&y, &e, &g, &s),
                (&y, &s, &y, &e),
                (&g, &zero, &y, &e),
                (&g, &s, &y, &zero),
                (&g, &zero, &y, &zero),
                (&zero, &s, &y, &e),
                (&g, &s, &zero, &e),
                // 0^0 = 1, as in `modexp`.
                (&zero, &zero, &y, &e),
                (&g, &s, &m, &zero),
            ] {
                assert_eq!(
                    multi_exp_on(engine, &[(a, ea), (bb, eb)], &m),
                    oracle2(a, ea, bb, eb, &m),
                    "{engine:?}: {a:?} ^ {ea:?} * {bb:?} ^ {eb:?}"
                );
            }
        }
        report(
            "modexp2_handles_zero_bases_exponents_and_degenerate_moduli",
            &ran,
        );
        // Even modulus: 3^4 * 7^5 mod 100 = 81 * 7 mod 100.
        assert_eq!(
            BigUint::modexp2(&b(3), &b(4), &b(7), &b(5), &b(100)).unwrap(),
            b(67)
        );
        assert!(BigUint::modexp2(&g, &s, &y, &e, &BigUint::one())
            .unwrap()
            .is_zero());
        assert!(BigUint::modexp2(&g, &s, &y, &e, &zero).is_err());
    }

    /// `a^2` and `a * a` through the product bodies at width `W`, into
    /// scratch that comes in dirty, as it does mid-chain.
    fn wide_at<const W: usize>(a: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let (mut squared, mut product) = (vec![0xdead; 2 * a.len()], vec![0xbeef; 2 * a.len()]);
        sqr_wide::<W>(&mut squared, a);
        mul_wide::<W>(&mut product, a, a);
        (squared, product)
    }

    /// `a * b * R^-1` and `a^2 * R^-1` through the u64 kernel bodies at
    /// width `W`, reducing with the flag `ONES`.
    fn mul_sqr_at<const W: usize, const ONES: bool>(
        mont: &Montgomery,
        a: &[u64],
        b: &[u64],
    ) -> [Vec<u64>; 2] {
        let (mut t, mut product, mut square) = (vec![0xdead; 2 * a.len()], a.to_vec(), a.to_vec());
        mul_wide::<W>(&mut t, a, b);
        mont.reduce::<W, ONES>(&mut product, &mut t);
        sqr_wide::<W>(&mut t, a);
        mont.reduce::<W, ONES>(&mut square, &mut t);
        [product, square]
    }

    /// [`mul_sqr_at`] at width 0 and, at 12 or 16 limbs, at the fixed
    /// width, under every `ONES` flag valid for `mont`'s modulus.
    fn mul_sqr_every_body(mont: &Montgomery, a: &[u64], b: &[u64]) -> Vec<[Vec<u64>; 2]> {
        let mut out = vec![mul_sqr_at::<0, false>(mont, a, b)];
        match a.len() {
            12 => out.push(mul_sqr_at::<12, false>(mont, a, b)),
            16 => out.push(mul_sqr_at::<16, false>(mont, a, b)),
            _ => {}
        }
        if mont.n[0] == u64::MAX {
            out.push(mul_sqr_at::<0, true>(mont, a, b));
            match a.len() {
                12 => out.push(mul_sqr_at::<12, true>(mont, a, b)),
                16 => out.push(mul_sqr_at::<16, true>(mont, a, b)),
                _ => {}
            }
        }
        out
    }

    #[test]
    fn sqr_wide_matches_mul_wide_on_all_ones() {
        // (R - 1)^2 carries through every limb of the doubling pass and
        // of the diagonal, at width 0 and at the two fixed widths.
        for len in 1..=33 {
            let a = vec![u64::MAX; len];
            let (squared, product) = wide_at::<0>(&a);
            assert_eq!(squared, product, "{len} limbs");
            match len {
                12 => assert_eq!(wide_at::<12>(&a), (squared.clone(), product)),
                16 => assert_eq!(wide_at::<16>(&a), (squared.clone(), product)),
                _ => {}
            }
            let a = BigUint { limbs: a };
            assert_eq!(squared, a.mul(&a).limbs, "{len} limbs");
        }
    }

    /// Odd `len`-limb moduli: one shaped like the MODP primes (lowest and
    /// top limbs all ones, so `n' = 1`) and one with a random odd lowest
    /// limb; both within `R / 256` of `R`, so a product can overflow it.
    fn kernel_moduli(len: usize) -> [BigUint; 2] {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64 ^ len as u64;
        let mut limbs = || -> Vec<u64> {
            (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state ^ state >> 29
                })
                .collect()
        };
        let (mut modp, mut random) = (limbs(), limbs());
        (modp[0], modp[len - 1]) = (u64::MAX, u64::MAX);
        random[0] |= 1;
        random[len - 1] |= 0xff << 56;
        [BigUint { limbs: modp }, BigUint { limbs: random }]
    }

    /// Operands `a, b < n` whose Montgomery product under the radix `r`
    /// before any final subtraction, `(a * b + m * n) / r`, is `u`: for
    /// some `a = n - 2k`, `b = (u * r - m * n) / a`, the largest
    /// `m <= u * r / n` that makes the division exact, provided it is a
    /// reduction's `m < r` and `b < n`.
    fn operands_reducing_to(n: &BigUint, r: &BigUint, u: &BigUint) -> (BigUint, BigUint) {
        let u_r = u.mul(r);
        let m_max = u_r.div_rem(n).unwrap().0;
        for k in 1..64 {
            let a = n.checked_sub(&b(2 * k)).unwrap();
            let Ok(n_inv) = n.mod_inv(&a) else { continue };
            let m_mod_a = u_r.mod_mul(&n_inv, &a).unwrap();
            let m = m_max
                .checked_sub(&m_max.rem(&a).unwrap().mod_sub(&m_mod_a, &a).unwrap())
                .unwrap();
            let (b, rest) = u_r.checked_sub(&m.mul(n)).unwrap().div_rem(&a).unwrap();
            assert!(rest.is_zero());
            if m < *r && b < *n {
                return (a, b);
            }
        }
        unreachable!("no operands for {u:?} mod {n:?}")
    }

    /// Every operation of the kernel, dispatched on each engine and — on
    /// the u64 engine — at width 0 (and at 12 or 16 limbs through its
    /// fixed-width body), with the all-ones reduction and without it where
    /// the lowest limb of `n` allows both, equals the oracle
    /// `a * b * R^-1 mod n` at the two fixed widths and their unfixed
    /// neighbours: on edge operands, and on products that land on a
    /// target `u` before any final subtraction. On the u64 engine the
    /// targets are just below `n` and just above it (`u = n` would need
    /// `n | a * b`), below `R` and at it, so the subtraction is skipped,
    /// taken, and taken with the carry out of the top limb; its result is
    /// below `n`. The IFMA engine subtracts nothing: its targets at and
    /// just above `n` come back as they are, operands in `[n, 2n)` are
    /// its to take, and every result is below `2n`.
    #[test]
    fn kernel_at_every_width_matches_width_zero_and_the_oracle() {
        let (mut bodies, mut ran) = (0, Vec::new());
        for len in [11, 12, 13, 15, 16, 17] {
            for n in kernel_moduli(len) {
                let two_n = n.add(&n);
                let edges = [
                    BigUint::zero(),
                    BigUint::one(),
                    n.checked_sub(&BigUint::one()).unwrap(),
                    n.shr(1),
                    n.shr(3).add(&b(0x1234_5678)),
                ];
                for mont in contexts(&n) {
                    let engine = mont.engine();
                    ran.push(engine);
                    let r = BigUint::one().shl(mont.r_bits());
                    let r_inv = r.rem(&n).unwrap().mod_inv(&n).unwrap();
                    let mut operands = edges.to_vec();
                    operands.push(r.rem(&n).unwrap());
                    let (bound, targets) = match engine {
                        Engine::U64 => (
                            &n,
                            vec![
                                n.checked_sub(&b(1)).unwrap(),
                                n.add(&b(1)),
                                n.add(&b(2)),
                                r.checked_sub(&b(1)).unwrap(),
                                r.clone(),
                            ],
                        ),
                        Engine::Ifma => {
                            operands.extend([
                                n.clone(),
                                n.add(&b(1)),
                                n.add(&n.shr(1)),
                                two_n.checked_sub(&b(1)).unwrap(),
                            ]);
                            (
                                &two_n,
                                vec![
                                    n.checked_sub(&b(1)).unwrap(),
                                    n.add(&b(1)),
                                    n.add(&n.shr(20)),
                                ],
                            )
                        }
                    };
                    let mut pairs: Vec<_> = operands
                        .iter()
                        .flat_map(|a| operands.iter().map(move |b| (a.clone(), b.clone(), None)))
                        .collect();
                    for u in targets {
                        let (a, b) = operands_reducing_to(&n, &r, &u);
                        let exact = match engine {
                            Engine::U64 => u.rem(&n).unwrap(),
                            Engine::Ifma => u,
                        };
                        assert_eq!(
                            a.mul(&b).mul(&r_inv).rem(&n).unwrap(),
                            exact.rem(&n).unwrap()
                        );
                        pairs.push((a, b, Some(exact)));
                    }
                    for (a, b, exact) in &pairs {
                        let expected = [a.mul(b), a.mul(a)].map(|t| t.mul(&r_inv).rem(&n).unwrap());
                        let (mut product, mut square, mut t) =
                            (mont.layout(a), mont.layout(a), vec![0; 2 * len]);
                        mont.mul(&mut product, &mont.layout(b), &mut t);
                        mont.sqr(&mut square, &mut t);
                        let got = [product, square].map(|x| mont.value(&x));
                        for (got, expected) in got.iter().zip(&expected) {
                            assert!(
                                got < bound,
                                "{engine:?}: {a:?} * {b:?} mod {n:?} out of range"
                            );
                            assert_eq!(
                                got.rem(&n).unwrap(),
                                *expected,
                                "{engine:?}: {a:?} * {b:?} mod {n:?}"
                            );
                        }
                        if let Some(exact) = exact {
                            assert_eq!(got[0], *exact, "{engine:?}: {a:?} * {b:?} mod {n:?}");
                        }
                        if engine == Engine::U64 {
                            let every = mul_sqr_every_body(&mont, &mont.layout(a), &mont.layout(b));
                            bodies += every.len();
                            for (body, limbs) in every.iter().enumerate() {
                                assert_eq!(
                                    limbs.clone().map(|x| mont.value(&x)),
                                    expected,
                                    "body {body}: {a:?} * {b:?} mod {n:?}"
                                );
                            }
                        }
                    }
                    let (base, exp) = (n.shr(7).add(&b(3)), b(0xfedc_ba98_7654_3211));
                    assert_eq!(
                        multi_exp_on(engine, &[(&base, &exp)], &n),
                        oracle(&base, &exp, &n)
                    );
                }
            }
        }
        // 41 pairs per modulus on the u64 engine. Per pair and width, the
        // two moduli take 1 + 2 bodies at an unfixed width and 2 + 4 at a
        // fixed one.
        assert_eq!(bodies, 41 * (4 * 3 + 2 * 6));
        report(
            "kernel_at_every_width_matches_width_zero_and_the_oracle",
            &ran,
        );
    }

    /// `2^(2^c) mod m` for `c <= bits` and `2^(2^c - 1) mod m` for
    /// `c <= bits`, by repeated `mod_mul`: the comb's exponents of one set
    /// bit and of all bits below one, `bits` of each in one pass.
    fn powers_of_two(m: &BigUint, bits: usize) -> (Vec<BigUint>, Vec<BigUint>) {
        let (mut bit, mut below) = (vec![b(2).rem(m).unwrap()], vec![BigUint::one()]);
        for c in 0..bits {
            below.push(below[c].mod_mul(&bit[c], m).unwrap());
            bit.push(bit[c].mod_mul(&bit[c], m).unwrap());
        }
        (bit, below)
    }

    /// `2^E` off a comb of one and of two blocks at 6, 7 and 8 rows, with
    /// `E` a single bit or all bits below one at every seam of the layout
    /// — where a bit changes row (`j * cols`) or block (`j * cols + k *
    /// span`) — and one either side. 13 limbs at 7 rows (and 1 024 bits at
    /// 6 and 7) leave the second block one column short.
    #[test]
    fn comb_matches_the_oracle_at_every_row_and_block_seam() {
        let (one, two) = (BigUint::one(), b(2));
        let (mut partial, mut ran) = (0, Vec::new());
        for m in wide_moduli() {
            let bits = 64 * m.limbs.len();
            let (bit, below) = powers_of_two(&m, bits + 8);
            let general = [
                m.checked_sub(&two).unwrap(),
                one.shl(bits - 3).add(&m.shr(5)),
            ];
            for (rows, blocks) in [6, 7, 8].into_iter().flat_map(|r| [(r, 1), (r, 2)]) {
                for (i, mont) in contexts(&m).into_iter().enumerate() {
                    let mont = mont.and_comb(rows, blocks);
                    ran.push(mont.engine());
                    let comb = mont.comb();
                    let (cols, span) = (comb.cols, comb.span);
                    partial += usize::from(i == 0 && blocks * span > cols);
                    let seams =
                        (0..rows).flat_map(|j| (0..cols).step_by(span).map(move |k| j * cols + k));
                    let mut exps = vec![(BigUint::zero(), one.clone())];
                    for c in seams.flat_map(|s| [s.saturating_sub(1), s, s + 1]) {
                        exps.push((one.shl(c), bit[c].clone()));
                        exps.push((one.shl(c).checked_sub(&one).unwrap(), below[c].clone()));
                    }
                    let all = rows * cols;
                    exps.push((one.shl(all).checked_sub(&one).unwrap(), below[all].clone()));
                    exps.extend(general.iter().map(|e| (e.clone(), oracle(&two, e, &m))));
                    for (exp, expected) in &exps {
                        assert_eq!(
                            mont.multi_exp(&[(Base::Comb(comb), exp)]),
                            *expected,
                            "{:?}: 2 ^ {exp:?} mod {m:?}, {rows} rows x {blocks} blocks",
                            mont.engine()
                        );
                    }
                }
            }
        }
        assert!(partial >= 3, "{partial} layouts with a partial block");
        report("comb_matches_the_oracle_at_every_row_and_block_seam", &ran);
    }

    /// An exponent the table does not cover is not truncated to the bits
    /// it does: the term takes the general path (`Powers::Shift` for the
    /// generator 2, `Powers::Table` for any other base), alone and beside
    /// a second term.
    #[test]
    fn comb_leaves_a_wider_exponent_to_the_general_path() {
        let (two, e, mut ran) = (b(2), b(0xfeed_f00d), Vec::new());
        for m in wide_moduli() {
            let y = m.shr(2).add(&b(77));
            for (rows, blocks) in [(6, 1), (7, 2), (8, 2)] {
                for mont in contexts(&m) {
                    let mont = mont.and_comb(rows, blocks);
                    ran.push(mont.engine());
                    let of_y = Comb::new(&mont, &y, 256, rows, blocks);
                    for comb in [mont.comb(), &of_y] {
                        let capacity = comb.rows * comb.cols;
                        let fits = BigUint::one().shl(capacity - 1);
                        let wide = BigUint::one().shl(capacity);
                        let (mut t, base) = (vec![0; 2 * m.limbs.len()], &comb.base);
                        let one = mont.one(&mut t);
                        let on = |exp| mont.powers(Base::Comb(comb), exp, &one, &mut t.clone());
                        assert!(matches!(on(&fits), Powers::Comb(_)));
                        match base == &two {
                            true => assert!(matches!(on(&wide), Powers::Shift(1))),
                            false => assert!(matches!(on(&wide), Powers::Table(_))),
                        }
                        for exp in [&fits, &wide, &wide.add(&fits).add(&b(5))] {
                            let alone = [(Base::Comb(comb), exp)];
                            assert_eq!(mont.multi_exp(&alone), oracle(base, exp, &m));
                            let beside = [(Base::Value(&y), &e), (Base::Comb(comb), exp)];
                            assert_eq!(mont.multi_exp(&beside), oracle2(&y, &e, base, exp, &m));
                        }
                    }
                }
            }
        }
        report("comb_leaves_a_wider_exponent_to_the_general_path", &ran);
    }

    /// A comb of any base, laid out as `verify` lays out a key's (7 rows
    /// of 37 columns, one block, for 256 bits), at every row seam and at
    /// the top of its range: bit 255, the last bit it covers (258), all
    /// 259, and bit 259, which it does not cover.
    #[test]
    fn comb_of_any_base_matches_the_oracle_up_to_its_last_bit() {
        let (one, mut ran) = (BigUint::one(), Vec::new());
        for m in wide_moduli() {
            for mont in contexts(&m) {
                ran.push(mont.engine());
                for base in [b(3), m.shr(1).add(&b(99)), m.checked_sub(&b(2)).unwrap()] {
                    let comb = Comb::new(&mont, &base, 256, 7, 1);
                    assert_eq!((comb.cols, comb.span), (37, 37));
                    let mut exps = vec![one.shl(259).checked_sub(&one).unwrap(), one.shl(259)];
                    for c in (0..7).map(|j| 37 * j).chain([255, 258]) {
                        exps.push(one.shl(c));
                        exps.push(one.shl(c).checked_sub(&one).unwrap());
                    }
                    for exp in &exps {
                        let terms = [(Base::Comb(&comb), exp)];
                        assert_eq!(mont.multi_exp(&terms), oracle(&base, exp, &m), "{exp:?}");
                    }
                }
            }
        }
        report(
            "comb_of_any_base_matches_the_oracle_up_to_its_last_bit",
            &ran,
        );
    }

    /// A comb holds values in the layout of the engine that built it, so
    /// a context on the other engine refuses it where debug assertions
    /// run (and would compute garbage without them).
    #[test]
    fn a_comb_of_another_engine_is_refused() {
        let m = DhGroup::modp768().p;
        let (Some(ifma), Some(u64)) = (
            Montgomery::on(Engine::Ifma, &m),
            Montgomery::on(Engine::U64, &m),
        ) else {
            return eprintln!("no IFMA engine on this CPU: nothing to refuse");
        };
        let exp = b(0xabcd_ef01);
        for (built_on, used_on) in [(&u64, &ifma), (&ifma, &u64)] {
            let comb = Comb::new(built_on, &b(3), 256, 8, 1);
            let terms = [(Base::Comb(&comb), &exp)];
            assert_eq!(built_on.multi_exp(&terms), oracle(&b(3), &exp, &m));
            let used = std::panic::catch_unwind(|| used_on.multi_exp(&terms));
            assert_eq!(used.is_err(), cfg!(debug_assertions));
        }
    }

    /// Equality and `Debug` go by the modulus: a context with a comb, one
    /// with another comb, one without and one on the other engine are the
    /// same value, and none prints its table.
    #[test]
    fn montgomery_is_shown_and_compared_by_modulus() {
        let (p, other) = (DhGroup::modp1024().p, DhGroup::modp768().p);
        let plain = Montgomery::new(&p);
        assert_eq!(plain, Montgomery::with_comb(&p, 8, 2));
        assert_eq!(
            Montgomery::with_comb(&p, 6, 1),
            Montgomery::with_comb(&p, 8, 2)
        );
        assert_ne!(plain, Montgomery::with_comb(&other, 8, 2));
        for mont in contexts(&p) {
            assert_eq!(format!("{mont:?}"), "Montgomery(16 limbs)");
            assert_eq!(mont, plain);
        }
        let shown = format!("{:?}", Montgomery::with_comb(&p, 8, 2));
        assert_eq!(shown, "Montgomery(16 limbs)");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_modexp_matches_generic_at_dh_widths(
            mut modbytes in proptest::collection::vec(any::<u8>(), 96..257),
            base in proptest::collection::vec(any::<u8>(), 0..264),
            exp in proptest::collection::vec(any::<u8>(), 0..257),
            shape in 0u8..4,
            width in 0u8..3,
        ) {
            // Odd, full width (768 to 2 048 bits), half the time exactly
            // 768 or 1 024, where both engines run; `shape` forces the top
            // limb to all ones and/or the lowest limb to 1.
            match width {
                1 => modbytes.truncate(96),
                2 => modbytes.resize(128, 0xa5),
                _ => {}
            }
            let last = modbytes.len() - 1;
            modbytes[0] |= 0x80;
            modbytes[last] |= 1;
            if shape & 1 != 0 {
                modbytes[..8].fill(0xff);
            }
            if shape & 2 != 0 {
                modbytes[last - 7..last].fill(0);
                modbytes[last] = 1;
            }
            let m = BigUint::from_bytes_be(&modbytes);
            let base = BigUint::from_bytes_be(&base);
            let exp = BigUint::from_bytes_be(&exp);
            for engine in engines(&m) {
                prop_assert_eq!(multi_exp_on(engine, &[(&base, &exp)], &m), oracle(&base, &exp, &m));
            }
        }

        #[test]
        fn prop_modexp2_is_the_product_of_two_modexps(
            a in proptest::collection::vec(any::<u8>(), 0..140),
            ea in proptest::collection::vec(any::<u8>(), 0..130),
            shift in 0u32..10,
            eb in proptest::collection::vec(any::<u8>(), 0..130),
            mut modbytes in proptest::collection::vec(any::<u8>(), 1..129),
            width in 0u8..3,
        ) {
            // One random base against one small power of two, as `verify`
            // pairs them; exponents of unequal length; odd modulus > 1,
            // a third of the time at 12 limbs and a third at 16.
            match width {
                1 => modbytes.resize(96, 0x3c),
                2 => modbytes.resize(128, 0xc3),
                _ => {}
            }
            modbytes[0] |= u8::from(width != 0) << 7;
            *modbytes.last_mut().unwrap() |= 1;
            let m = BigUint::from_bytes_be(&modbytes);
            prop_assume!(!m.is_one());
            let (a, ea) = (BigUint::from_bytes_be(&a), BigUint::from_bytes_be(&ea));
            let (pow2, eb) = (b(1 << shift), BigUint::from_bytes_be(&eb));
            let expected = oracle2(&a, &ea, &pow2, &eb, &m);
            for engine in engines(&m) {
                prop_assert_eq!(multi_exp_on(engine, &[(&a, &ea), (&pow2, &eb)], &m), expected.clone());
                prop_assert_eq!(multi_exp_on(engine, &[(&pow2, &eb), (&a, &ea)], &m), expected.clone());
            }
        }

        #[test]
        fn prop_comb_term_matches_generic_alone_and_beside_a_table(
            k in proptest::collection::vec(any::<u8>(), 0..129),
            y in proptest::collection::vec(any::<u8>(), 1..129),
            e in proptest::collection::vec(any::<u8>(), 0..129),
            small in any::<bool>(),
        ) {
            // As `sign` and `verify` raise powers: 2^k off the comb, and
            // the same beside y^e for e shorter and longer than `cols`.
            let group = if small { DhGroup::modp768() } else { DhGroup::modp1024() };
            let (m, two) = (&group.p, b(2));
            let (k, e) = (BigUint::from_bytes_be(&k), BigUint::from_bytes_be(&e));
            let y = BigUint::from_bytes_be(&y).rem(m).unwrap().add(&BigUint::one());
            prop_assume!(&y < m);
            let expected = oracle2(&two, &k, &y, &e, m);
            for mont in contexts(m) {
                let ctx = mont.and_comb(8, 2);
                let (g, y) = (Base::Comb(ctx.comb()), Base::Value(&y));
                prop_assert_eq!(ctx.multi_exp(&[(g, &k)]), oracle(&two, &k, m));
                prop_assert_eq!(ctx.multi_exp(&[(g, &k), (y, &e)]), expected.clone());
                prop_assert_eq!(ctx.multi_exp(&[(y, &e), (g, &k)]), expected.clone());
            }
        }

        #[test]
        fn prop_sqr_wide_matches_mul_wide(a in proptest::collection::vec(any::<u64>(), 1..34)) {
            let (mut squared, mut product) = (vec![0u64; 2 * a.len()], vec![0u64; 2 * a.len()]);
            sqr_wide::<0>(&mut squared, &a);
            mul_wide::<0>(&mut product, &a, &a);
            prop_assert_eq!(squared, product);
        }
    }
}
