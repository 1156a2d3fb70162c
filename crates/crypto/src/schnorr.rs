//! Schnorr signatures over a safe-prime group.
//!
//! Plays two roles in the workspace:
//!
//! 1. **Attestation signatures** — the SGX quoting enclave signs QUOTEs
//!    "using the private key of the CPU" (paper §2.2). Intel really uses the
//!    EPID group-signature scheme; the paper itself abstracts this away
//!    (fn. 2), and we follow suit with a conventional signature whose group
//!    public key is shared by all platforms of a "group" (see
//!    `teenet-sgx::quote`).
//! 2. **Authority signatures** — directory-authority consensus documents and
//!    software certificates in the Tor case study.
//!
//! The group is built on a safe prime `p` (from the DH MODP groups), so
//! `q = (p-1)/2` is prime and `g = 4` generates the order-`q` subgroup —
//! correct by construction, no trusted group constants needed beyond the
//! well-known primes.
//!
//! Powers are raised under the DH group's shared `Montgomery` context.
//! `g = 4 = 2^2`, so `g^k` is the comb's `2^(2k)` and never squares for
//! the generator. `verify` is the textbook `g^s * y^(-e)`. Every clone of
//! a verifying key shares one `Arc` holding `y^-1` — `g^(q-x)` out of
//! `generate`, one [`BigUint::mod_inv`] at a parsed key's first
//! verification (a binary extended GCD in place, 15–20 µs at 1 024 bits,
//! variable-time, as a public key allows) — and, from its second
//! verification on, a comb of `y^-1` over the 256 bits of a challenge:
//! `y^(-e)` then rides the generator's steps, and `verify` squares no
//! more than `sign`. The first verification, and a challenge wider than
//! the comb, take a 4-bit window instead.

use crate::bignum::{Base, BigUint, Comb, Montgomery};
use crate::dh::DhGroup;
use crate::error::CryptoError;
use crate::rng::SecureRng;
use crate::sha256::Sha256;
use crate::Result;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// A Schnorr group over a safe prime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchnorrGroup {
    /// Safe prime modulus.
    pub p: BigUint,
    /// Subgroup order `(p-1)/2` (prime because `p` is safe).
    pub q: BigUint,
    /// Generator of the order-`q` subgroup (`4 = 2^2`).
    pub g: BigUint,
    /// The DH group's context for `p`.
    ctx: Arc<Montgomery>,
}

impl SchnorrGroup {
    /// Builds the Schnorr group on top of a safe-prime DH group.
    pub fn from_dh_group(group: &DhGroup) -> Self {
        let q = group.p.checked_sub(&BigUint::one()).expect("p > 1").shr(1);
        SchnorrGroup {
            p: group.p.clone(),
            q,
            g: BigUint::from_u64(4),
            ctx: group.ctx.clone(),
        }
    }

    /// The standard 1024-bit group (matching the paper's DH parameter).
    pub fn standard() -> Self {
        Self::from_dh_group(&DhGroup::modp1024())
    }

    /// A smaller 768-bit group for fast tests.
    pub fn small() -> Self {
        Self::from_dh_group(&DhGroup::modp768())
    }

    /// Hashes a message (and nonce commitment) into a challenge scalar in
    /// `[0, q)`.
    fn challenge(&self, r: &BigUint, public: &BigUint, msg: &[u8]) -> Result<BigUint> {
        let mut h = Sha256::new();
        h.update(b"teenet-schnorr-v1");
        h.update(&r.to_bytes_be());
        h.update(&public.to_bytes_be());
        h.update(msg);
        let digest = h.finalize();
        BigUint::from_bytes_be(&digest).rem(&self.q)
    }

    /// `g^k mod p` for `k < q`, times `y^e` if a `y` in `[1, p)` is given.
    /// `g^k` is the comb's `2^(2k)`: `2k < 2q = p - 1` fits its table.
    fn g_pow(&self, k: &BigUint, times: Option<(Base<'_>, &BigUint)>) -> BigUint {
        let k2 = k.shl(1);
        let mut terms = vec![(Base::Comb(self.ctx.comb()), &k2)];
        terms.extend(times);
        self.ctx.multi_exp(&terms)
    }

    /// A uniform scalar in `[1, q)`.
    fn nonzero_scalar(&self, rng: &mut SecureRng) -> Result<BigUint> {
        loop {
            let k = BigUint::random_below(&self.q, |buf| rng.fill_bytes(buf))?;
            if !k.is_zero() {
                return Ok(k);
            }
        }
    }
}

/// A Schnorr signing keypair.
#[derive(Clone)]
pub struct SigningKey {
    group: SchnorrGroup,
    x: BigUint,
    /// The verification (public) key `g^x mod p`.
    pub public: VerifyingKey,
}

/// A Schnorr verification key.
#[derive(Clone, Debug)]
pub struct VerifyingKey {
    group: SchnorrGroup,
    /// The public group element `y = g^x mod p`.
    y: BigUint,
    /// What `verify` raises to the challenge, shared by every clone.
    inverse: Arc<Inverse>,
}

/// Bits of a challenge: a SHA-256 digest, reduced mod `q`.
const CHALLENGE_BITS: usize = 256;

/// `y^-1` and its comb, filled in as a key verifies.
#[derive(Debug, Default)]
struct Inverse {
    /// `y^-1 mod p`. A parsed key fills it in at its first verification
    /// (half of them never verify) by [`BigUint::mod_inv`], whose variable
    /// time is safe here: `y` is public.
    y_inv: OnceLock<BigUint>,
    /// Set by the first verification. It publishes no data (the comb has
    /// its own lock), so `Relaxed` suffices.
    verified: AtomicBool,
    /// Seven rows of `y^-1` in one block over [`CHALLENGE_BITS`] (37
    /// columns), built by the second verification: 128 entries, 16 KB at
    /// 1 024 bits (24 on the IFMA engine). An eighth row would double the
    /// table and its build to save five products a verification.
    comb: OnceLock<Comb>,
}

/// Keys are equal as elements of equal groups, inverted yet or not.
impl PartialEq for VerifyingKey {
    fn eq(&self, other: &Self) -> bool {
        self.group == other.group && self.y == other.y
    }
}

impl Eq for VerifyingKey {}

/// A Schnorr signature in `(e, s)` form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Challenge scalar.
    pub e: BigUint,
    /// Response scalar.
    pub s: BigUint,
}

impl Signature {
    /// Serialises the signature (length-prefixed scalars).
    pub fn to_bytes(&self) -> Vec<u8> {
        let e = self.e.to_bytes_be();
        let s = self.s.to_bytes_be();
        let mut out = Vec::with_capacity(4 + e.len() + s.len());
        out.extend_from_slice(&(e.len() as u16).to_be_bytes());
        out.extend_from_slice(&e);
        out.extend_from_slice(&(s.len() as u16).to_be_bytes());
        out.extend_from_slice(&s);
        out
    }

    /// Parses a signature serialised by [`Signature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let read = |b: &[u8]| -> Result<(BigUint, usize)> {
            if b.len() < 2 {
                return Err(CryptoError::Malformed("signature truncated"));
            }
            let len = u16::from_be_bytes([b[0], b[1]]) as usize;
            if b.len() < 2 + len {
                return Err(CryptoError::Malformed("signature scalar truncated"));
            }
            Ok((BigUint::from_bytes_be(&b[2..2 + len]), 2 + len))
        };
        let (e, n) = read(bytes)?;
        let (s, n2) = read(&bytes[n..])?;
        if n + n2 != bytes.len() {
            return Err(CryptoError::Malformed("trailing bytes after signature"));
        }
        Ok(Signature { e, s })
    }
}

impl SigningKey {
    /// Generates a keypair in `group`.
    pub fn generate(group: &SchnorrGroup, rng: &mut SecureRng) -> Result<Self> {
        // x ∈ [1, q): x = 0 is the key y = 1 that `from_bytes` refuses.
        let x = group.nonzero_scalar(rng)?;
        let public = VerifyingKey {
            group: group.clone(),
            y: group.g_pow(&x, None),
            inverse: Arc::new(Inverse {
                // g^(q-x) = g^-x, since g has order q.
                y_inv: group.g_pow(&group.q.checked_sub(&x)?, None).into(),
                ..Inverse::default()
            }),
        };
        Ok(SigningKey {
            group: group.clone(),
            x,
            public,
        })
    }

    /// Signs `msg` using a fresh nonce from `rng`.
    pub fn sign(&self, msg: &[u8], rng: &mut SecureRng) -> Result<Signature> {
        let g = &self.group;
        // Nonce k ∈ [1, q).
        let k = g.nonzero_scalar(rng)?;
        let r = g.g_pow(&k, None);
        let e = g.challenge(&r, &self.public.y, msg)?;
        // s = k + e*x mod q
        let s = k.mod_add(&e.mod_mul(&self.x, &g.q)?, &g.q)?;
        Ok(Signature { e, s })
    }

    /// Returns the verification key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public.clone()
    }
}

impl VerifyingKey {
    /// Verifies `sig` over `msg` by the textbook `r' = g^s * y^(-e)`. That
    /// equals `g^s * y^(q-e)` for every `y` of order `q`, as every key out
    /// of [`SigningKey::generate`] is; for a parsed `y` outside the
    /// subgroup the two differ by `y^q = -1`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<()> {
        let g = &self.group;
        if sig.s.cmp_to(&g.q) != core::cmp::Ordering::Less
            || sig.e.cmp_to(&g.q) != core::cmp::Ordering::Less
        {
            return Err(CryptoError::VerificationFailed("signature scalar range"));
        }
        let inverse = &*self.inverse;
        let y_inv = match inverse.y_inv.get() {
            Some(y_inv) => y_inv,
            None => {
                let y_inv = self.y.mod_inv(&g.p)?;
                inverse.y_inv.get_or_init(|| y_inv)
            }
        };
        let y_inv = match inverse.verified.swap(true, Ordering::Relaxed) {
            true => Base::Comb(
                inverse
                    .comb
                    .get_or_init(|| Comb::new(&g.ctx, y_inv, CHALLENGE_BITS, 7, 1)),
            ),
            false => Base::Value(y_inv),
        };
        let r = g.g_pow(&sig.s, Some((y_inv, &sig.e)));
        let e = g.challenge(&r, &self.y, msg)?;
        if e == sig.e {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed("Schnorr signature"))
        }
    }

    /// Serialises the public element, padded to the group size.
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = self.group.p.bit_len().div_ceil(8);
        self.y.to_bytes_be_padded(len).expect("y < p")
    }

    /// Reconstructs a verifying key from bytes in a known group.
    pub fn from_bytes(group: &SchnorrGroup, bytes: &[u8]) -> Result<Self> {
        let y = BigUint::from_bytes_be(bytes);
        let p_minus_1 = group.p.checked_sub(&BigUint::one())?;
        // 1 and p-1 have orders 1 and 2; y = 1 is the key of x = 0, under
        // which anyone can sign.
        if y.is_zero() || y.is_one() || y.cmp_to(&p_minus_1) != core::cmp::Ordering::Less {
            return Err(CryptoError::InvalidParameter("public key out of range"));
        }
        Ok(VerifyingKey {
            group: group.clone(),
            y,
            inverse: Arc::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostile::truncations_and_flips;
    use proptest::prelude::*;

    fn setup() -> (SchnorrGroup, SigningKey, SecureRng) {
        let group = SchnorrGroup::small();
        let mut rng = SecureRng::seed_from_u64(99);
        let key = SigningKey::generate(&group, &mut rng).unwrap();
        (group, key, rng)
    }

    #[test]
    fn group_generator_has_order_q() {
        let g = SchnorrGroup::small();
        // g^q mod p == 1 certifies the subgroup order.
        assert!(g.g.modexp(&g.q, &g.p).unwrap().is_one());
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (_, key, mut rng) = setup();
        let sig = key.sign(b"hello enclave", &mut rng).unwrap();
        key.public.verify(b"hello enclave", &sig).unwrap();
    }

    #[test]
    fn rejects_wrong_message() {
        let (_, key, mut rng) = setup();
        let sig = key.sign(b"msg A", &mut rng).unwrap();
        assert!(key.public.verify(b"msg B", &sig).is_err());
    }

    #[test]
    fn rejects_wrong_key() {
        let (group, key, mut rng) = setup();
        let other = SigningKey::generate(&group, &mut rng).unwrap();
        let sig = key.sign(b"msg", &mut rng).unwrap();
        assert!(other.public.verify(b"msg", &sig).is_err());
    }

    #[test]
    fn rejects_tampered_signature() {
        let (_, key, mut rng) = setup();
        let mut sig = key.sign(b"msg", &mut rng).unwrap();
        sig.s = sig.s.add(&BigUint::one());
        assert!(key.public.verify(b"msg", &sig).is_err());
    }

    #[test]
    fn rejects_out_of_range_scalars() {
        let (group, key, mut rng) = setup();
        let mut sig = key.sign(b"msg", &mut rng).unwrap();
        sig.s = group.q.clone();
        assert!(key.public.verify(b"msg", &sig).is_err());
    }

    #[test]
    fn signature_serialisation_roundtrip() {
        let (_, key, mut rng) = setup();
        let sig = key.sign(b"serialise me", &mut rng).unwrap();
        let bytes = sig.to_bytes();
        let parsed = Signature::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, sig);
        key.public.verify(b"serialise me", &parsed).unwrap();
    }

    #[test]
    fn signature_parse_rejects_garbage() {
        assert!(Signature::from_bytes(&[]).is_err());
        assert!(Signature::from_bytes(&[0, 5, 1]).is_err());
        let (_, key, mut rng) = setup();
        let mut bytes = key.sign(b"x", &mut rng).unwrap().to_bytes();
        bytes.push(0);
        assert!(Signature::from_bytes(&bytes).is_err());
    }

    #[test]
    fn verifying_key_serialisation_roundtrip() {
        let (group, key, _) = setup();
        let bytes = key.public.to_bytes();
        assert_eq!(bytes.len(), 96);
        let parsed = VerifyingKey::from_bytes(&group, &bytes).unwrap();
        assert_eq!(parsed, key.public);
    }

    #[test]
    fn verifying_key_rejects_out_of_range() {
        let group = SchnorrGroup::small();
        assert!(VerifyingKey::from_bytes(&group, &[]).is_err());
        let p_bytes = group.p.to_bytes_be();
        assert!(VerifyingKey::from_bytes(&group, &p_bytes).is_err());
    }

    #[test]
    fn verifying_key_rejects_low_order_elements() {
        let group = SchnorrGroup::small();
        let p_minus_1 = group.p.checked_sub(&BigUint::one()).unwrap();
        for y in [BigUint::one(), p_minus_1] {
            assert!(VerifyingKey::from_bytes(&group, &y.to_bytes_be()).is_err());
        }
        let two = BigUint::from_u64(2);
        let y = group.p.checked_sub(&two).unwrap();
        assert!(VerifyingKey::from_bytes(&group, &two.to_bytes_be()).is_ok());
        assert!(VerifyingKey::from_bytes(&group, &y.to_bytes_be()).is_ok());
    }

    /// Key and signature for this seed and message, generated with the
    /// binary square-and-multiply `modexp` (two exponentiations and a
    /// `mod_mul` per `verify`) that the windowed engine replaced.
    #[test]
    fn known_answer_1024() {
        const Y: &str = "88aea92b59b48a50c22493fa941be83849dd5e571cb910279db3036d1817566e\
            17177329f828c56887a6c60eb224271018878c01df172b079530ef51ced76829\
            cdfdcaf9044f20ab40fbbe1e768b3076cf19262c4b5a807779be070d9c8a1f20\
            03e952c963ce3a1659bcdbb63fabed76bf06ac9eff8200d0bdb7e03bc50b9ba3";
        const E: &str = "edf8d0b879024d0d2757216cdfd383762bdaf29bb9ce8e9760a0b9c0f8dacd30";
        const S: &str = "5d7a7a3024f550355d4f7921c6616af6378127a4e4a26c6ed165d6cee288dcc0\
            873d36097301ca6c6cd8d60c3ff3bf7d6893b3367699e82c6b7b1259032bb1eb\
            8b72ee94b2517efabdce3eb378ef16d9ab34c7d3654da63f1594305cfe4c8145\
            ad86ed891d21e9942b73f1ff75e76bec01b2c8223c04a20f7073ef32e74bcb64";
        let mut rng = SecureRng::seed_from_u64(13);
        let key = SigningKey::generate(&SchnorrGroup::standard(), &mut rng).unwrap();
        let sig = key.sign(b"teenet known answer", &mut rng).unwrap();
        let hex = |digits: &str| BigUint::from_hex(digits).unwrap();
        assert_eq!(key.public.y, hex(Y));
        let expected = Signature {
            e: hex(E),
            s: hex(S),
        };
        assert_eq!(sig, expected);
        key.public.verify(b"teenet known answer", &sig).unwrap();
        assert!(key.public.verify(b"teenet unknown answer", &sig).is_err());
    }

    #[test]
    fn signatures_are_randomised() {
        let (_, key, mut rng) = setup();
        let s1 = key.sign(b"same msg", &mut rng).unwrap();
        let s2 = key.sign(b"same msg", &mut rng).unwrap();
        assert_ne!(s1, s2);
        key.public.verify(b"same msg", &s1).unwrap();
        key.public.verify(b"same msg", &s2).unwrap();
    }

    /// `verify` as it was before keys carried `y^-1`: `y^(q-e)` stands in
    /// for `y^(-e)` and both powers go through `BigUint::modexp2`.
    fn verify_by_long_exponent(key: &VerifyingKey, msg: &[u8], sig: &Signature) -> bool {
        let g = &key.group;
        if sig.s >= g.q || sig.e >= g.q {
            return false;
        }
        let neg_e = g.q.checked_sub(&sig.e).unwrap();
        let r = BigUint::modexp2(&g.g, &sig.s, &key.y, &neg_e, &g.p).unwrap();
        g.challenge(&r, &key.y, msg).unwrap() == sig.e
    }

    /// `verify` as it is at a key's first verification: `y^-1` off a fresh
    /// `mod_inv`, raised to the challenge through a 4-bit window.
    fn verify_by_window(key: &VerifyingKey, msg: &[u8], sig: &Signature) -> bool {
        let g = &key.group;
        if sig.s >= g.q || sig.e >= g.q {
            return false;
        }
        let y_inv = key.y.mod_inv(&g.p).unwrap();
        let r = g.g_pow(&sig.s, Some((Base::Value(&y_inv), &sig.e)));
        g.challenge(&r, &key.y, msg).unwrap() == sig.e
    }

    /// `y * y^-1 = 1`. A parsed key inverts at its first verification,
    /// whatever the verdict, so one that has not verified is put through one.
    fn inverse_holds(key: &VerifyingKey) -> bool {
        if key.inverse.y_inv.get().is_none() {
            let (e, s) = (BigUint::one(), BigUint::one());
            assert!(key.verify(b"", &Signature { e, s }).is_err());
        }
        let y_inv = key.inverse.y_inv.get().expect("inverted by verify");
        key.y.mod_mul(y_inv, &key.group.p).unwrap().is_one()
    }

    /// In both groups a parsed key's first verification, whatever its
    /// verdict, leaves the `y^-1` its generated twin holds: `g^(q-x)`.
    #[test]
    fn a_parsed_key_inverts_to_the_generated_keys_g_to_the_q_minus_x() {
        let mut rng = SecureRng::seed_from_u64(43);
        for group in [SchnorrGroup::small(), SchnorrGroup::standard()] {
            for _ in 0..8 {
                let key = SigningKey::generate(&group, &mut rng).unwrap();
                let sig = key.sign(b"msg", &mut rng).unwrap();
                let g_inv = group.g_pow(&group.q.checked_sub(&key.x).unwrap(), None);
                assert_eq!(key.public.inverse.y_inv.get(), Some(&g_inv));
                for msg in [&b"msg"[..], b"other"] {
                    let parsed = VerifyingKey::from_bytes(&group, &key.public.to_bytes()).unwrap();
                    assert!(parsed.inverse.y_inv.get().is_none());
                    assert_eq!(parsed.verify(msg, &sig).is_ok(), msg == b"msg");
                    assert_eq!(parsed.inverse.y_inv.get(), Some(&g_inv));
                }
            }
        }
    }

    /// Thirty clones of a key, generated or parsed, share one `y^-1` and
    /// one comb. The first verification of any of them builds no table;
    /// the second builds it for all.
    #[test]
    fn clones_share_one_comb_built_by_the_second_verification() {
        let (group, key, mut rng) = setup();
        let sig = key.sign(b"msg", &mut rng).unwrap();
        let parsed = VerifyingKey::from_bytes(&group, &key.public.to_bytes()).unwrap();
        for key in [key.public.clone(), parsed] {
            let clones = vec![key.clone(); 30];
            assert!(clones.iter().all(|c| Arc::ptr_eq(&c.inverse, &key.inverse)));
            clones[7].verify(b"msg", &sig).unwrap();
            assert!(key.inverse.y_inv.get().is_some());
            assert!(
                key.inverse.comb.get().is_none(),
                "the first verification builds no table"
            );
            clones[3].verify(b"msg", &sig).unwrap();
            let comb = key.inverse.comb.get().expect("the second builds it");
            for clone in &clones {
                clone.verify(b"msg", &sig).unwrap();
                assert!(clone.verify(b"other", &sig).is_err());
                assert!(std::ptr::eq(clone.inverse.comb.get().unwrap(), comb));
            }
        }
    }

    #[test]
    fn groups_share_one_context_per_prime() {
        let (a, b) = (DhGroup::modp1024(), DhGroup::modp1024());
        assert!(Arc::ptr_eq(&a.ctx, &b.ctx));
        assert!(Arc::ptr_eq(&a.ctx, &SchnorrGroup::from_dh_group(&b).ctx));
        assert!(Arc::ptr_eq(&a.ctx, &SchnorrGroup::standard().ctx));
        assert!(!Arc::ptr_eq(&a.ctx, &SchnorrGroup::small().ctx));
        // The context is neither printed (a prime is 256 hex digits, a
        // table 64 KB) nor what makes two groups equal.
        assert_eq!(SchnorrGroup::standard(), SchnorrGroup::from_dh_group(&a));
        assert_ne!(SchnorrGroup::standard(), SchnorrGroup::small());
        let shown = format!("{:?}", SchnorrGroup::standard());
        assert!(
            shown.contains("ctx: Montgomery(16 limbs)") && shown.len() < 700,
            "{shown}"
        );
    }

    /// In the order-3 subgroup mod 7 a third of all `x ∈ [0, q)` are 0.
    #[test]
    fn generated_keys_are_never_the_identity() {
        let p = BigUint::from_u64(7);
        let toy = SchnorrGroup {
            q: BigUint::from_u64(3),
            g: BigUint::from_u64(4),
            ctx: Arc::new(Montgomery::with_comb(&p, 6, 1)),
            p,
        };
        let mut rng = SecureRng::seed_from_u64(17);
        for _ in 0..64 {
            let key = SigningKey::generate(&toy, &mut rng).unwrap();
            assert!(!key.x.is_zero() && !key.public.y.is_one());
            assert!(inverse_holds(&key.public));
            let sig = key.sign(b"toy", &mut rng).unwrap();
            key.public.verify(b"toy", &sig).unwrap();
        }
    }

    /// `p - y` of an honest key is in range but outside the order-`q`
    /// subgroup: there `y^(q-e)` is `-y^(-e)`, so the two formulas
    /// recover opposite `r` — and since the challenge binds `y`, an
    /// honest signature is rejected under either.
    #[test]
    fn a_key_outside_the_subgroup_rejects_under_both_formulas() {
        let (group, key, mut rng) = setup();
        let sig = key.sign(b"msg", &mut rng).unwrap();
        let outside = group.p.checked_sub(&key.public.y).unwrap();
        let outside = VerifyingKey::from_bytes(&group, &outside.to_bytes_be()).unwrap();
        assert!(inverse_holds(&outside));
        let minus_one = group.p.checked_sub(&BigUint::one()).unwrap();
        assert_eq!(outside.y.modexp(&group.q, &group.p).unwrap(), minus_one);
        assert!(outside.verify(b"msg", &sig).is_err());
        assert!(!verify_by_long_exponent(&outside, b"msg", &sig));
        let y_inv = outside.inverse.y_inv.get().unwrap();
        let short = group.g_pow(&sig.s, Some((Base::Value(y_inv), &sig.e)));
        let neg_e = group.q.checked_sub(&sig.e).unwrap();
        let long = BigUint::modexp2(&group.g, &sig.s, &outside.y, &neg_e, &group.p).unwrap();
        assert_eq!(short.add(&long), group.p);
    }

    #[test]
    fn verifying_key_refuses_degenerate_values_by_range() {
        // 0 and p have no inverse and 1 and p-1 do; all six fail the
        // range check, and no `mod_inv` at a later `verify`.
        let group = SchnorrGroup::small();
        let range = Err(CryptoError::InvalidParameter("public key out of range"));
        let one = BigUint::one();
        for y in [
            BigUint::zero(),
            one.clone(),
            group.p.checked_sub(&one).unwrap(),
            group.p.clone(),
            group.p.add(&one),
            group.p.shl(1),
        ] {
            assert_eq!(VerifyingKey::from_bytes(&group, &y.to_bytes_be()), range);
        }
        assert_eq!(VerifyingKey::from_bytes(&group, &[0xff; 300]), range);
    }

    #[test]
    fn damaged_encodings_never_panic_or_parse_to_the_original() {
        let (group, key, mut rng) = setup();
        let sig = key.sign(b"msg", &mut rng).unwrap();
        let valid = sig.to_bytes();
        for (i, bytes) in truncations_and_flips(&valid).enumerate() {
            match Signature::from_bytes(&bytes) {
                Ok(parsed) => {
                    assert!(i >= valid.len(), "prefix {i} parsed");
                    assert_ne!(parsed, sig);
                    assert_eq!(Signature::from_bytes(&parsed.to_bytes()).unwrap(), parsed);
                }
                Err(e) => assert!(matches!(e, CryptoError::Malformed(_))),
            }
        }
        let valid = key.public.to_bytes();
        for bytes in truncations_and_flips(&valid) {
            if let Ok(parsed) = VerifyingKey::from_bytes(&group, &bytes) {
                assert_ne!(parsed, key.public);
                assert!(inverse_holds(&parsed));
                assert_eq!(
                    VerifyingKey::from_bytes(&group, &parsed.to_bytes()).unwrap(),
                    parsed
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_verify_agrees_with_the_long_exponent_formula(
            seed in any::<u64>(),
            msg in proptest::collection::vec(any::<u8>(), 0..40),
            noise in proptest::collection::vec(any::<u8>(), 1..128),
            small in any::<bool>(),
        ) {
            let group = if small { SchnorrGroup::small() } else { SchnorrGroup::standard() };
            let mut rng = SecureRng::seed_from_u64(seed);
            let key = SigningKey::generate(&group, &mut rng).unwrap();
            let parsed = VerifyingKey::from_bytes(&group, &key.public.to_bytes()).unwrap();
            prop_assert!(inverse_holds(&key.public));
            // Not inverted until it verifies, and the same key throughout.
            prop_assert!(parsed.inverse.y_inv.get().is_none());
            prop_assert_eq!(&parsed, &key.public);
            let sig = key.sign(&msg, &mut rng).unwrap();
            prop_assert!(parsed.verify(&msg, &sig).is_ok());
            prop_assert_eq!(parsed.inverse.y_inv.get(), key.public.inverse.y_inv.get());
            prop_assert_eq!(&parsed, &key.public);

            let noise = BigUint::from_bytes_be(&noise).rem(&group.q).unwrap();
            let q_minus_1 = group.q.checked_sub(&BigUint::one()).unwrap();
            let with_s = |s: &BigUint| Signature { e: sig.e.clone(), s: s.clone() };
            let with_e = |e: &BigUint| Signature { e: e.clone(), s: sig.s.clone() };
            let forgeries = [
                with_s(&noise),
                with_s(&BigUint::zero()),
                with_s(&q_minus_1),
                with_s(&group.q),
                with_e(&noise),
                with_e(&BigUint::zero()),
                with_e(&q_minus_1),
                with_e(&group.q),
                Signature { e: BigUint::zero(), s: BigUint::zero() },
            ];
            for forged in forgeries.iter().filter(|forged| **forged != sig) {
                let verdict = parsed.verify(&msg, forged).is_ok();
                prop_assert_eq!(verdict, verify_by_long_exponent(&parsed, &msg, forged));
                prop_assert!(!verdict, "{:?}", forged);
            }
            let mut other = msg.clone();
            other.push(0);
            prop_assert!(parsed.verify(&other, &sig).is_err());
            prop_assert!(!verify_by_long_exponent(&parsed, &other, &sig));
            prop_assert!(verify_by_long_exponent(&parsed, &msg, &sig));
        }

        /// A generated key, the same key parsed, and one outside the
        /// order-`q` subgroup each decide a signature, tampered copies and
        /// challenges at the comb's edge (`2^256 - 1`, `2^256`, `q - 1`)
        /// through their comb exactly as through the window path.
        #[test]
        fn prop_table_and_window_paths_agree(
            seed in any::<u64>(),
            msg in proptest::collection::vec(any::<u8>(), 0..40),
            noise in proptest::collection::vec(any::<u8>(), 1..40),
            small in any::<bool>(),
        ) {
            let group = if small { SchnorrGroup::small() } else { SchnorrGroup::standard() };
            let mut rng = SecureRng::seed_from_u64(seed);
            let signer = SigningKey::generate(&group, &mut rng).unwrap();
            let sig = signer.sign(&msg, &mut rng).unwrap();
            let parse = |y: &BigUint| VerifyingKey::from_bytes(&group, &y.to_bytes_be()).unwrap();
            let y = &signer.public.y;
            let keys = [
                (signer.public.clone(), true),
                (parse(y), true),
                (parse(&group.p.checked_sub(y).unwrap()), false),
            ];
            let one = BigUint::one();
            let with_e = |e: BigUint| Signature { e, s: sig.s.clone() };
            let with_s = |s: BigUint| Signature { e: sig.e.clone(), s };
            let signatures = [
                sig.clone(),
                with_e(one.shl(256).checked_sub(&one).unwrap()),
                with_e(one.shl(256)),
                with_e(group.q.checked_sub(&one).unwrap()),
                with_e(sig.e.add(&BigUint::from_bytes_be(&noise)).rem(&group.q).unwrap()),
                with_s(sig.s.add(&one).rem(&group.q).unwrap()),
            ];
            for (key, honest) in keys {
                prop_assert_eq!(key.verify(&msg, &sig).is_ok(), honest);
                prop_assert!(key.inverse.comb.get().is_none());
                for forged in &signatures {
                    let verdict = key.verify(&msg, forged).is_ok();
                    prop_assert_eq!(verdict, verify_by_window(&key, &msg, forged), "{:?}", forged);
                    prop_assert_eq!(verdict, honest && forged == &sig, "{:?}", forged);
                }
                prop_assert!(key.inverse.comb.get().is_some());
            }
        }

        #[test]
        fn prop_hostile_bytes_never_panic_and_what_parses_round_trips(
            bytes in proptest::collection::vec(any::<u8>(), 0..301),
            split in 0usize..301,
        ) {
            let group = SchnorrGroup::small();
            if let Ok(key) = VerifyingKey::from_bytes(&group, &bytes) {
                prop_assert!(inverse_holds(&key));
                prop_assert_eq!(key.y.clone(), BigUint::from_bytes_be(&bytes));
                prop_assert_eq!(VerifyingKey::from_bytes(&group, &key.to_bytes()).unwrap(), key);
            }
            if let Ok(sig) = Signature::from_bytes(&bytes) {
                prop_assert_eq!(Signature::from_bytes(&sig.to_bytes()).unwrap(), sig);
            }
            // Arbitrary bytes rarely frame, so frame them: two scalars,
            // leading zeros and all, parse to their values and re-encode
            // canonically.
            let (e, s) = bytes.split_at(split.min(bytes.len()));
            let mut framed = Vec::new();
            for scalar in [e, s] {
                framed.extend_from_slice(&(scalar.len() as u16).to_be_bytes());
                framed.extend_from_slice(scalar);
            }
            let sig = Signature::from_bytes(&framed).unwrap();
            prop_assert_eq!(&sig.e, &BigUint::from_bytes_be(e));
            prop_assert_eq!(&sig.s, &BigUint::from_bytes_be(s));
            prop_assert_eq!(Signature::from_bytes(&sig.to_bytes()).unwrap(), sig);
            framed.push(0);
            prop_assert!(Signature::from_bytes(&framed).is_err());
        }
    }
}
