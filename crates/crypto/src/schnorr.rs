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

use crate::bignum::BigUint;
use crate::dh::DhGroup;
use crate::error::CryptoError;
use crate::rng::SecureRng;
use crate::sha256::Sha256;
use crate::Result;

/// A Schnorr group over a safe prime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchnorrGroup {
    /// Safe prime modulus.
    pub p: BigUint,
    /// Subgroup order `(p-1)/2` (prime because `p` is safe).
    pub q: BigUint,
    /// Generator of the order-`q` subgroup (`4 = 2^2`).
    pub g: BigUint,
}

impl SchnorrGroup {
    /// Builds the Schnorr group on top of a safe-prime DH group.
    pub fn from_dh_group(group: &DhGroup) -> Self {
        let q = group.p.checked_sub(&BigUint::one()).expect("p > 1").shr(1);
        SchnorrGroup {
            p: group.p.clone(),
            q,
            g: BigUint::from_u64(4),
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyingKey {
    group: SchnorrGroup,
    /// The public group element `y = g^x mod p`.
    pub y: BigUint,
}

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
        let x = BigUint::random_below(&group.q, |buf| rng.fill_bytes(buf))?;
        let y = group.g.modexp(&x, &group.p)?;
        Ok(SigningKey {
            group: group.clone(),
            x,
            public: VerifyingKey {
                group: group.clone(),
                y,
            },
        })
    }

    /// Signs `msg` using a fresh nonce from `rng`.
    pub fn sign(&self, msg: &[u8], rng: &mut SecureRng) -> Result<Signature> {
        let g = &self.group;
        // Nonce k ∈ [1, q).
        let k = loop {
            let k = BigUint::random_below(&g.q, |buf| rng.fill_bytes(buf))?;
            if !k.is_zero() {
                break k;
            }
        };
        let r = g.g.modexp(&k, &g.p)?;
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
    /// Verifies `sig` over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<()> {
        let g = &self.group;
        if sig.s.cmp_to(&g.q) != core::cmp::Ordering::Less
            || sig.e.cmp_to(&g.q) != core::cmp::Ordering::Less
        {
            return Err(CryptoError::VerificationFailed("signature scalar range"));
        }
        // r' = g^s * y^(q - e) mod p  (y^-e == y^(q-e) since ord(y) | q)
        let neg_e = g.q.checked_sub(&sig.e)?;
        let r = BigUint::modexp2(&g.g, &sig.s, &self.y, &neg_e, &g.p)?;
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
        // 1 and p-1 have orders 1 and 2: `verify`'s y^(q-e) = y^-e does
        // not hold for them, and under y = 1 every `s` verifies.
        if y.is_zero() || y.is_one() || y.cmp_to(&p_minus_1) != core::cmp::Ordering::Less {
            return Err(CryptoError::InvalidParameter("public key out of range"));
        }
        Ok(VerifyingKey {
            group: group.clone(),
            y,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
