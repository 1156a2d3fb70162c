//! Finite-field Diffie–Hellman key exchange.
//!
//! The paper's evaluation sets "the DH parameter as 1024-bit" (§5); we use
//! the 1024-bit MODP group from RFC 2409 (Oakley Group 2) by default and
//! also expose the 768-bit Oakley Group 1. The 1536/2048-bit MODP groups
//! are test moduli only.
//!
//! Each built-in group is parsed once per process and carries one shared
//! `Montgomery` context for its prime — reduction constants plus a comb
//! of powers of 2, 8 rows in 2 blocks — under which every copy of the
//! group, the Schnorr group built on it and all their keys raise powers.
//! A full-width `g^x` (a Schnorr nonce's) walks the columns of both
//! blocks at once, `bits / 16` squarings and twice as many
//! multiplications, the same operations whatever `x`. The context's
//! short combs, of 2 and of `2^-1`, cover 258 bits: a private exponent's
//! `g^x` there is 22 squarings and 43 multiplications at every width, and
//! only `peer^x` still pays a squaring per exponent bit.
//!
//! A private exponent is 256 bits wide (plus 2), not the group's width:
//! `peer^x` takes 256 squarings instead of 767 or 1 023. RFC 3526 §8 and
//! NIST SP 800-56A Rev. 3 size a safe-prime group's exponent at twice the
//! group's strength, and 256 bits is at least that for every built-in
//! group. `p` is a safe prime, so van Oorschot–Wiener's attack on short
//! exponents, which needs small factors of `p - 1`, has none to use. What
//! is left is Pollard's kangaroo at 2^128 operations, more than the
//! number field sieve costs against any built-in group (about 2^80 at
//! 1 024 bits, 2^112 at 2 048). The length is fixed, not a setting. The
//! model still prices every power at the paper's full-exponent figures
//! (`Op::Modexp1024`, `Op::DhParamGen`, Table 1), so it moves no
//! modelled count.

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

/// Bits of a private exponent (before the `+ 2`) and of a Schnorr
/// signing key (before its `+ 1`): a kangaroo search costs 2^128, more
/// than the NFS against any built-in group (see the module doc).
pub(crate) const EXPONENT_BITS: usize = 256;

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
        // The low EXPONENT_BITS of a draw below p - 3, plus 2. The draw is
        // the one a full-width exponent in [2, p-2] took, so the RNG
        // stream after a key does not depend on the exponent's length.
        let upper = group.p.checked_sub(&BigUint::from_u64(3))?;
        let draw = BigUint::random_below(&upper, |buf| rng.fill_bytes(buf))?
            .to_bytes_be_padded(group.element_len())?;
        let private = BigUint::from_bytes_be(&draw[draw.len() - EXPONENT_BITS / 8..])
            .add(&BigUint::from_u64(2));
        let public = group
            .ctx
            .multi_exp(&[(Base::Comb(group.ctx.short_comb_of_two()), &private)]);
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

    /// RFC 3526 Group 5 (1536-bit) prime: with Group 14 below, a test
    /// modulus for the engines' wide paths.
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

    impl DhKeyPair {
        /// Parses a peer public value from bytes and computes the shared secret.
        fn shared_secret_from_bytes(&self, peer_public: &[u8]) -> Result<Vec<u8>> {
            self.shared_secret(&BigUint::from_bytes_be(peer_public))
        }
    }

    impl DhGroup {
        /// The 1536-bit MODP Group 5.
        pub(crate) fn modp1536() -> Self {
            Self::builtin(2, MODP_1536, 1536)
        }

        /// The 2048-bit MODP Group 14.
        pub(crate) fn modp2048() -> Self {
            Self::builtin(3, MODP_2048, 2048)
        }
    }

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

    /// Public value and shared secret for this seed, derived from the two
    /// private exponents by the square-and-multiply oracle
    /// `modexp_generic`, not by the engine under test.
    #[test]
    fn known_answer_1024() {
        const PUBLIC: &str = "aa2432f170018ec13168b5356f746d38607eeb09089729d2ac47c6b33af8ac84\
            2ff4f780c5a478d3d6e6866c71f5d20abd1501aba9a44422d0a0b302475e1284\
            2db722586c3bed10d130b502b6c90945bf9ae1830ccc7a3c6137a5f2baafe720\
            627339d736f274c42216b47b2db95ec0717679f16e25e6edc84cbb0237b99c9e";
        const SHARED: &str = "9c469f3fbb48d86bb98d749dbdf1e6073850ba4df18d7a6ab35acd921bebfeb3\
            5fc14ed37f31d5249b17dc3543774be0de941beb526b18313b71b3f415e99a53\
            77f0682ee611116ec4331b234eae4b0f5ecd1eac45a5b91df5da895782544393\
            5b1713fe49f0589d09af993422137994d2006d1e298fb21c5737c056d3c51d07";
        let group = DhGroup::modp1024();
        let mut rng = SecureRng::seed_from_u64(13);
        let alice = DhKeyPair::generate(&group, &mut rng).unwrap();
        let bob = DhKeyPair::generate(&group, &mut rng).unwrap();
        let public = BigUint::from_hex(PUBLIC).unwrap();
        let shared = BigUint::from_hex(SHARED).unwrap();
        let oracle = |base: &BigUint, x: &BigUint| base.modexp_generic(x, &group.p).unwrap();
        assert_eq!(oracle(&group.g, &alice.private), public);
        assert_eq!(oracle(&bob.public, &alice.private), shared);
        assert_eq!(alice.public, public);
        assert_eq!(
            alice.shared_secret(&bob.public).unwrap(),
            shared.to_bytes_be()
        );
        assert_eq!(
            bob.shared_secret(&alice.public).unwrap(),
            shared.to_bytes_be()
        );
    }

    /// In every group an exponent is the low 256 bits of a draw below
    /// `p - 3`, plus 2: at least 2 and below `2^256 + 2`.
    #[test]
    fn exponents_are_256_bits_of_the_full_width_draw_plus_2() {
        let two = BigUint::from_u64(2);
        let bound = BigUint::one().shl(256).add(&two);
        let groups = [
            DhGroup::modp768(),
            DhGroup::modp1024(),
            DhGroup::modp1536(),
            DhGroup::modp2048(),
        ];
        for group in groups {
            let upper = group.p.checked_sub(&BigUint::from_u64(3)).unwrap();
            for seed in 0..16 {
                let mut rng = SecureRng::seed_from_u64(seed);
                let kp = DhKeyPair::generate(&group, &mut rng).unwrap();
                assert!(kp.private >= two && kp.private < bound, "{}", group.bits);
                let mut rng = SecureRng::seed_from_u64(seed);
                let draw = BigUint::random_below(&upper, |buf| rng.fill_bytes(buf)).unwrap();
                let low = draw.rem(&BigUint::one().shl(256)).unwrap();
                assert_eq!(kp.private, low.add(&two), "{} seed {seed}", group.bits);
            }
        }
    }

    /// A key takes from its RNG what a full-width exponent took: the
    /// draw after it is the one it was before exponents were shortened.
    #[test]
    fn generate_leaves_the_rng_where_the_full_width_draw_did() {
        let groups = [
            (DhGroup::modp768(), 0x0c6b_299d_40e4_79a2),
            (DhGroup::modp1024(), 0x1ad1_c6d8_d03c_c9c3),
        ];
        for (group, next) in groups {
            let mut rng = SecureRng::seed_from_u64(21);
            DhKeyPair::generate(&group, &mut rng).unwrap();
            assert_eq!(rng.next_u64(), next, "{}", group.bits);
        }
    }

    /// Montgomery `[products, squarings]` per operation, the group's
    /// tables built beforehand. `generate` is the short comb of 2: 43 +
    /// 22 at every width, where the generator comb cost `bits / 8` +
    /// `bits / 16`. `shared_secret` builds the peer's window table (15
    /// products), then squares once per bit of `x` and multiplies once
    /// per nonzero 4-bit window of it.
    #[test]
    fn each_operation_runs_its_budget_of_products() {
        use crate::bignum::work;
        let budgets = [
            (DhGroup::modp768(), [[43, 22], [70, 255]]),
            (DhGroup::modp1024(), [[43, 22], [76, 255]]),
        ];
        for (group, [generate, shared]) in budgets {
            let mut rng = SecureRng::seed_from_u64(5);
            let peer = DhKeyPair::generate(&group, &mut rng).unwrap();
            let (kp, work_done) = work(|| DhKeyPair::generate(&group, &mut rng).unwrap());
            assert_eq!(work_done, generate, "generate at {}", group.bits);
            let (_, work_done) = work(|| kp.shared_secret(&peer.public).unwrap());
            assert_eq!(work_done, shared, "shared_secret at {}", group.bits);
        }
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
