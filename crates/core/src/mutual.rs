//! Mutual remote attestation.
//!
//! "The AS-controllers and the inter-domain controller mutually
//! authenticate to verify each others' identities" (§3.1). Mutual
//! attestation is two interleaved runs of the Figure-1 protocol — each
//! side plays challenger once and target once — after which both sides
//! hold two verified identities and a secure channel (from the first run)
//! whose binding both runs share via the transcript.
//!
//! [`mutual_attest`] drives the flow between two platform enclaves that
//! expose [`crate::responder::AttestResponder`] ecalls; the forward
//! channel (A challenging B) is returned for application use.

use teenet_crypto::schnorr::VerifyingKey;
use teenet_crypto::SecureRng;
use teenet_sgx::{EnclaveId, ReportBody, TeePlatform};

use crate::attest::AttestConfig;
use crate::channel::SecureChannel;
use crate::error::Result;
use crate::identity::{IdentityPolicy, SoftwareCertificate};
use crate::responder::{attest_enclave, SessionNonce};

/// Outcome of a mutual attestation between enclaves A and B.
pub struct MutualOutcome {
    /// B's verified identity (from A's challenge).
    pub b_identity: ReportBody,
    /// A's verified identity (from B's challenge).
    pub a_identity: ReportBody,
    /// Channel keyed by A's challenge session (A = initiator side).
    pub channel_ab: Option<SecureChannel>,
    /// Channel keyed by B's challenge session (B = initiator side).
    pub channel_ba: Option<SecureChannel>,
    /// Session nonce of the A→B run (B stored its channel end under it).
    pub nonce_ab: SessionNonce,
    /// Session nonce of the B→A run (A stored its channel end under it).
    pub nonce_ba: SessionNonce,
}

/// Parameters describing one side of a mutual attestation.
pub struct Party<'a> {
    /// The platform hosting this side's enclave (any TEE backend).
    pub platform: &'a mut dyn TeePlatform,
    /// The enclave exposing responder ecalls.
    pub enclave: EnclaveId,
    /// Responder ecall id for *begin*.
    pub begin_fn: u64,
    /// Responder ecall id for *finish*.
    pub finish_fn: u64,
    /// The identity this side requires of the peer.
    pub expects: IdentityPolicy,
    /// Optional certificate backing a `Certified` policy.
    pub certificate: Option<&'a SoftwareCertificate>,
    /// Public key of the attestation group this side's platform quotes
    /// under (what the *peer* uses to verify this side's quotes).
    pub group_public: &'a VerifyingKey,
}

/// Runs mutual attestation between `a` and `b` (both directions of
/// Figure 1). Fails if either side rejects the other.
pub fn mutual_attest(
    a: &mut Party<'_>,
    b: &mut Party<'_>,
    config: AttestConfig,
    rng: &mut SecureRng,
) -> Result<MutualOutcome> {
    // Direction 1: A challenges B.
    let (outcome_ab, nonce_ab) = attest_enclave(
        a.expects.clone(),
        config.clone(),
        rng,
        b.platform,
        b.enclave,
        b.begin_fn,
        b.finish_fn,
        b.group_public,
        a.certificate,
    )?;
    // Direction 2: B challenges A.
    let (outcome_ba, nonce_ba) = attest_enclave(
        b.expects.clone(),
        config,
        rng,
        a.platform,
        a.enclave,
        a.begin_fn,
        a.finish_fn,
        a.group_public,
        b.certificate,
    )?;
    Ok(MutualOutcome {
        b_identity: outcome_ab.body,
        a_identity: outcome_ba.body,
        channel_ab: outcome_ab.channel,
        channel_ba: outcome_ba.channel,
        nonce_ab,
        nonce_ba,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::responder::AttestResponder;
    use teenet_crypto::schnorr::{SchnorrGroup, SigningKey};
    use teenet_sgx::{
        deploy_platform, EnclaveCtx, EnclaveProgram, EpidGroup, SgxError, TeeBackend,
    };

    struct Svc {
        responder: AttestResponder,
        tag: u8,
    }

    impl EnclaveProgram for Svc {
        fn code_image(&self) -> Vec<u8> {
            vec![b's', b'v', b'c', self.tag]
        }
        fn ecall(
            &mut self,
            ctx: &mut EnclaveCtx<'_>,
            fn_id: u64,
            input: &[u8],
        ) -> core::result::Result<Vec<u8>, SgxError> {
            match fn_id {
                0 => self.responder.handle_begin(ctx, input),
                1 => self.responder.handle_finish(ctx, input),
                _ => Err(SgxError::EcallRejected("unknown fn")),
            }
        }
    }

    fn setup(
        tag_a: u8,
        tag_b: u8,
    ) -> (
        Box<dyn TeePlatform>,
        EnclaveId,
        Box<dyn TeePlatform>,
        EnclaveId,
        SecureRng,
        VerifyingKey,
    ) {
        let mut rng = SecureRng::seed_from_u64(tag_a as u64 * 251 + tag_b as u64);
        let epid = EpidGroup::new(1, &mut rng).unwrap();
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
        let mut pa = deploy_platform(
            TeeBackend::Sgx,
            &format!("mutual-a-{tag_a}-{tag_b}"),
            &epid,
            1,
        )
        .unwrap();
        let mut pb = deploy_platform(
            TeeBackend::Sgx,
            &format!("mutual-b-{tag_a}-{tag_b}"),
            &epid,
            2,
        )
        .unwrap();
        let ea = pa
            .create_signed(
                Box::new(Svc {
                    responder: AttestResponder::new(AttestConfig::fast()),
                    tag: tag_a,
                }),
                &author,
                1,
            )
            .unwrap();
        let eb = pb
            .create_signed(
                Box::new(Svc {
                    responder: AttestResponder::new(AttestConfig::fast()),
                    tag: tag_b,
                }),
                &author,
                1,
            )
            .unwrap();
        let key = epid.public_key();
        (pa, ea, pb, eb, rng, key)
    }

    #[test]
    fn mutual_attestation_succeeds_and_channels_work() {
        let (mut pa, ea, mut pb, eb, mut rng, gk) = setup(1, 2);
        let ma = pa.measurement_of(ea).unwrap();
        let mb = pb.measurement_of(eb).unwrap();
        let outcome = mutual_attest(
            &mut Party {
                platform: pa.as_mut(),
                enclave: ea,
                begin_fn: 0,
                finish_fn: 1,
                expects: IdentityPolicy::Mrenclave(mb),
                certificate: None,
                group_public: &gk,
            },
            &mut Party {
                platform: pb.as_mut(),
                enclave: eb,
                begin_fn: 0,
                finish_fn: 1,
                expects: IdentityPolicy::Mrenclave(ma),
                certificate: None,
                group_public: &gk,
            },
            AttestConfig::fast(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(outcome.a_identity.mrenclave, ma);
        assert_eq!(outcome.b_identity.mrenclave, mb);
        assert!(outcome.channel_ab.is_some());
        assert!(outcome.channel_ba.is_some());
        assert_ne!(outcome.nonce_ab, outcome.nonce_ba);
    }

    #[test]
    fn mutual_attestation_fails_if_either_side_lies() {
        let (mut pa, ea, mut pb, eb, mut rng, gk) = setup(3, 4);
        let ma = pa.measurement_of(ea).unwrap();
        // A expects the wrong identity of B.
        let result = mutual_attest(
            &mut Party {
                platform: pa.as_mut(),
                enclave: ea,
                begin_fn: 0,
                finish_fn: 1,
                expects: IdentityPolicy::Mrenclave(teenet_sgx::Measurement([0xcc; 32])),
                certificate: None,
                group_public: &gk,
            },
            &mut Party {
                platform: pb.as_mut(),
                enclave: eb,
                begin_fn: 0,
                finish_fn: 1,
                expects: IdentityPolicy::Mrenclave(ma),
                certificate: None,
                group_public: &gk,
            },
            AttestConfig::fast(),
            &mut rng,
        );
        assert!(result.is_err());
    }
}
