//! Finite-field Diffie–Hellman key exchange.
//!
//! The paper's evaluation sets "the DH parameter as 1024-bit" (§5); we use
//! the 1024-bit MODP group from RFC 2409 (Oakley Group 2) by default and
//! also expose the 768/1536/2048-bit MODP groups for the key-size ablation
//! benchmarks.
//!
//! Each built-in group is parsed once per process and carries one shared
//! `Montgomery` context for its prime — reduction constants plus a comb
//! of powers of 2, 8 rows in 2 blocks — under which every copy of the
//! group, the Schnorr group built on it and all their keys raise powers:
//! `g^x` walks the columns of both blocks at once, `bits / 16` squarings
//! and twice as many multiplications (the same operations whatever `x`),
//! and only `peer^x` still pays a squaring per exponent bit.

use crate::bignum::{Base, BigUint, Montgomery};
use crate::error::CryptoError;
use crate::rng::SecureRng;
use crate::Result;
use std::sync::{Arc, OnceLock};

/// RFC 2409 Oakley Group 1 (768-bit) prime.
const MODP_768: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF";

/// RFC 2409 Oakley Group 2 (1024-bit) prime — the paper's parameter size.
const MODP_1024: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF";

/// RFC 3526 Group 5 (1536-bit) prime.
const MODP_1536: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF";

/// RFC 3526 Group 14 (2048-bit) prime.
const MODP_2048: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

/// A Diffie–Hellman group: safe prime `p` with generator `g = 2`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DhGroup {
    /// The group prime.
    pub p: BigUint,
    /// The generator.
    pub g: BigUint,
    /// Nominal size in bits (for reporting and cost accounting).
    pub bits: usize,
    /// Montgomery constants and the base-2 comb for `p`.
    pub(crate) ctx: Arc<Montgomery>,
}

impl DhGroup {
    /// The 768-bit Oakley Group 1.
    pub fn modp768() -> Self {
        Self::builtin(0, MODP_768, 768)
    }

    /// The 1024-bit Oakley Group 2 — the paper's evaluation parameter.
    pub fn modp1024() -> Self {
        Self::builtin(1, MODP_1024, 1024)
    }

    /// The 1536-bit MODP Group 5.
    pub fn modp1536() -> Self {
        Self::builtin(2, MODP_1536, 1536)
    }

    /// The 2048-bit MODP Group 14.
    pub fn modp2048() -> Self {
        Self::builtin(3, MODP_2048, 2048)
    }

    /// Built-in group number `slot`, parsed and given its context once.
    fn builtin(slot: usize, hex: &str, bits: usize) -> Self {
        static GROUPS: [OnceLock<DhGroup>; 4] = [const { OnceLock::new() }; 4];
        let build = || {
            let p = BigUint::from_hex(hex).expect("valid builtin prime");
            debug_assert_eq!(p.bit_len(), bits);
            // Eight rows in two blocks: 2 × 2^8 entries, 64 KB at 1 024 bits
            // and 48 KB at 768 (96 and 64 on the IFMA engine). Each further
            // row would double them.
            let ctx = Arc::new(Montgomery::with_comb(&p, 8, 2));
            let g = BigUint::from_u64(2);
            DhGroup { p, g, bits, ctx }
        };
        GROUPS[slot].get_or_init(build).clone()
    }

    /// Length in bytes of a serialised group element.
    pub fn element_len(&self) -> usize {
        self.bits / 8
    }
}

/// An ephemeral DH keypair.
#[derive(Clone)]
pub struct DhKeyPair {
    group: DhGroup,
    private: BigUint,
    /// The public value `g^x mod p`.
    pub public: BigUint,
}

impl DhKeyPair {
    /// Generates an ephemeral keypair in `group` using `rng`.
    pub fn generate(group: &DhGroup, rng: &mut SecureRng) -> Result<Self> {
        // Private exponent in [2, p-2].
        let upper = group.p.checked_sub(&BigUint::from_u64(3))?;
        let private =
            BigUint::random_below(&upper, |buf| rng.fill_bytes(buf))?.add(&BigUint::from_u64(2));
        let public = group
            .ctx
            .multi_exp(&[(Base::Comb(group.ctx.comb()), &private)]);
        Ok(DhKeyPair {
            group: group.clone(),
            private,
            public,
        })
    }

    /// Serialises the public value, zero-padded to the group element length.
    pub fn public_bytes(&self) -> Vec<u8> {
        self.public
            .to_bytes_be_padded(self.group.element_len())
            .expect("public < p fits element length")
    }

    /// Computes the shared secret with a peer's public value.
    ///
    /// Rejects degenerate peer values (0, 1, p-1, ≥ p) that would collapse
    /// the shared secret — a small-subgroup/invalid-key-share check.
    pub fn shared_secret(&self, peer_public: &BigUint) -> Result<Vec<u8>> {
        let p_minus_1 = self.group.p.checked_sub(&BigUint::one())?;
        if peer_public.is_zero()
            || peer_public.is_one()
            || peer_public.cmp_to(&p_minus_1) != core::cmp::Ordering::Less
        {
            return Err(CryptoError::InvalidParameter("degenerate DH public key"));
        }
        let secret = self
            .group
            .ctx
            .multi_exp(&[(Base::Value(peer_public), &self.private)]);
        secret.to_bytes_be_padded(self.group.element_len())
    }

    /// Parses a peer public value from bytes and computes the shared secret.
    pub fn shared_secret_from_bytes(&self, peer_public: &[u8]) -> Result<Vec<u8>> {
        self.shared_secret(&BigUint::from_bytes_be(peer_public))
    }

    /// The group this keypair lives in.
    pub fn group(&self) -> &DhGroup {
        &self.group
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostile::truncations_and_flips;
    use proptest::prelude::*;

    #[test]
    fn groups_have_expected_sizes() {
        assert_eq!(DhGroup::modp768().p.bit_len(), 768);
        assert_eq!(DhGroup::modp1024().p.bit_len(), 1024);
        assert_eq!(DhGroup::modp1536().p.bit_len(), 1536);
        assert_eq!(DhGroup::modp2048().p.bit_len(), 2048);
    }

    #[test]
    fn key_exchange_agrees() {
        let group = DhGroup::modp1024();
        let mut rng = SecureRng::seed_from_u64(1);
        let alice = DhKeyPair::generate(&group, &mut rng).unwrap();
        let bob = DhKeyPair::generate(&group, &mut rng).unwrap();
        let s1 = alice.shared_secret(&bob.public).unwrap();
        let s2 = bob.shared_secret(&alice.public).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), group.element_len());
    }

    /// Public value and shared secret for this seed, generated with the
    /// binary square-and-multiply `modexp` that the windowed engine
    /// replaced: how a power is computed changes no number.
    #[test]
    fn known_answer_1024() {
        const PUBLIC: &str = "cfc124945e2ccc0fcb31a0b5f8a5eff54d6b9421a5c054db7d7bdd14b956578f\
            33ac0a1e539235ee0933bd985023d0fa4e609591c00e81b7a254dfcc0caf2d0f\
            90bca18a9f78664a1fcb871507652ad5d1587ba5a117a18a9af0eeb8c0890cb1\
            21b07f91506756b92aab238db72579bf81180d7d4a0082977757f0ce785fedd5";
        const SHARED: &str = "aa0c754f9d6bfc4088119e2e2c9b66edf5d21a6a41fcc2e4d44c1cc04eed4186\
            ec2be30a9b77fd57f67f863a24cdf79d8369f97fe2d694d6dd82c836fc5b4ed2\
            ae7aa70a7ac564573306e67a5799f2fa5d85bba0c59bc34d3a5a9348d81074d2\
            041b31e53ac6750ac7a26c8e898f9fc03e58f1ee07b70f69683adfa039e43d2d";
        let group = DhGroup::modp1024();
        let mut rng = SecureRng::seed_from_u64(13);
        let alice = DhKeyPair::generate(&group, &mut rng).unwrap();
        let bob = DhKeyPair::generate(&group, &mut rng).unwrap();
        let shared = BigUint::from_hex(SHARED).unwrap().to_bytes_be();
        assert_eq!(alice.public, BigUint::from_hex(PUBLIC).unwrap());
        assert_eq!(alice.shared_secret(&bob.public).unwrap(), shared);
        assert_eq!(bob.shared_secret(&alice.public).unwrap(), shared);
    }

    #[test]
    fn key_exchange_via_bytes() {
        let group = DhGroup::modp768();
        let mut rng = SecureRng::seed_from_u64(2);
        let alice = DhKeyPair::generate(&group, &mut rng).unwrap();
        let bob = DhKeyPair::generate(&group, &mut rng).unwrap();
        let s1 = alice.shared_secret_from_bytes(&bob.public_bytes()).unwrap();
        let s2 = bob.shared_secret_from_bytes(&alice.public_bytes()).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn distinct_sessions_distinct_secrets() {
        let group = DhGroup::modp768();
        let mut rng = SecureRng::seed_from_u64(3);
        let a1 = DhKeyPair::generate(&group, &mut rng).unwrap();
        let a2 = DhKeyPair::generate(&group, &mut rng).unwrap();
        let b = DhKeyPair::generate(&group, &mut rng).unwrap();
        assert_ne!(
            a1.shared_secret(&b.public).unwrap(),
            a2.shared_secret(&b.public).unwrap()
        );
    }

    #[test]
    fn rejects_degenerate_peers() {
        let group = DhGroup::modp768();
        let mut rng = SecureRng::seed_from_u64(4);
        let kp = DhKeyPair::generate(&group, &mut rng).unwrap();
        assert!(kp.shared_secret(&BigUint::zero()).is_err());
        assert!(kp.shared_secret(&BigUint::one()).is_err());
        let p_minus_1 = group.p.checked_sub(&BigUint::one()).unwrap();
        assert!(kp.shared_secret(&p_minus_1).is_err());
        assert!(kp.shared_secret(&group.p).is_err());
    }

    #[test]
    fn public_bytes_are_padded() {
        let group = DhGroup::modp768();
        let mut rng = SecureRng::seed_from_u64(5);
        let kp = DhKeyPair::generate(&group, &mut rng).unwrap();
        assert_eq!(kp.public_bytes().len(), 96);
    }

    #[test]
    fn a_group_is_shown_and_compared_without_its_context() {
        let group = DhGroup::modp1024();
        // Same prime, a context of its own with a different comb.
        let rebuilt = DhGroup {
            ctx: Arc::new(Montgomery::with_comb(&group.p, 6, 1)),
            ..group.clone()
        };
        assert!(!Arc::ptr_eq(&group.ctx, &rebuilt.ctx));
        assert_eq!(group, rebuilt);
        assert_ne!(group, DhGroup::modp1536());
        // 256 hex digits of prime; the tables would be 64 KB of limbs.
        let shown = format!("{group:?}");
        assert!(
            shown.ends_with("bits: 1024, ctx: Montgomery(16 limbs) }"),
            "{shown}"
        );
        assert!(shown.len() < 400, "{shown}");
        // Keys made under either context agree.
        let mut rng = SecureRng::seed_from_u64(6);
        let alice = DhKeyPair::generate(&group, &mut rng).unwrap();
        let bob = DhKeyPair::generate(&rebuilt, &mut rng).unwrap();
        assert_eq!(
            alice.shared_secret(&bob.public).unwrap(),
            bob.shared_secret(&alice.public).unwrap()
        );
    }

    /// Every strict prefix and single-bit flip of a valid public value
    /// either is refused or yields the secret of the value it encodes.
    #[test]
    fn damaged_public_values_never_panic() {
        let group = DhGroup::modp768();
        let mut rng = SecureRng::seed_from_u64(7);
        let alice = DhKeyPair::generate(&group, &mut rng).unwrap();
        let valid = DhKeyPair::generate(&group, &mut rng)
            .unwrap()
            .public_bytes();
        let honest = alice.shared_secret_from_bytes(&valid).unwrap();
        for bytes in truncations_and_flips(&valid) {
            let value = BigUint::from_bytes_be(&bytes);
            match alice.shared_secret_from_bytes(&bytes) {
                Ok(secret) => {
                    assert_ne!(secret, honest);
                    assert_eq!(secret, alice.shared_secret(&value).unwrap());
                    assert_eq!(secret.len(), group.element_len());
                }
                Err(e) => {
                    assert_eq!(e, CryptoError::InvalidParameter("degenerate DH public key"));
                    assert!(
                        value < BigUint::from_u64(2)
                            || value >= group.p.checked_sub(&BigUint::one()).unwrap()
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_hostile_public_values_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..301),
        ) {
            let group = DhGroup::modp768();
            let mut rng = SecureRng::seed_from_u64(8);
            let kp = DhKeyPair::generate(&group, &mut rng).unwrap();
            let value = BigUint::from_bytes_be(&bytes);
            let in_range = value > BigUint::one()
                && value < group.p.checked_sub(&BigUint::one()).unwrap();
            let secret = kp.shared_secret_from_bytes(&bytes);
            prop_assert_eq!(secret.is_ok(), in_range);
            if let Ok(secret) = secret {
                // Leading zeros and the padded re-encoding change nothing.
                let padded = value.to_bytes_be_padded(group.element_len()).unwrap();
                prop_assert_eq!(kp.shared_secret_from_bytes(&padded).unwrap(), secret);
            }
        }
    }
}
