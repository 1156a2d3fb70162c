#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # teenet-mbox
//!
//! TLS-aware middleboxes — the paper's third case study (§3.3):
//! "endpoints use a remote attestation to authenticate middleboxes and
//! give their session keys through the secure channel to in-path
//! middleboxes."
//!
//! * [`dpi`] — an Aho–Corasick inspection engine with alert/block/rewrite
//!   rules; the rule set is part of the middlebox's measured identity.
//! * [`provision`] — the key-release message and session identification.
//! * [`middlebox`] — the middlebox enclave: attestation responder, key
//!   reception gated by [`middlebox::ProvisionPolicy`] (bilateral consent
//!   or unilateral enterprise mode), in-enclave record processing.
//! * [`scenarios`] — deployable hosts plus the enterprise-outbound and
//!   cloud-DPI flows end to end; [`chain`] — multi-box paths.

pub mod chain;
pub mod dpi;
pub mod driver;
pub mod error;
pub mod middlebox;
pub mod provision;
pub mod scenarios;

pub use chain::MiddleboxChain;
pub use dpi::{Action, DpiEngine, Rule, Verdict};
pub use driver::TlsMboxService;
pub use error::{MboxError, Result};
pub use middlebox::{MiddleboxEnclave, ProvisionPolicy};
pub use provision::{session_id, EndpointRole, ProvisionMsg};
pub use scenarios::{MiddleboxHost, ProcessResult, ScenarioReport};

#[cfg(test)]
mod tests {
    use super::*;
    use teenet::attest::AttestConfig;
    use teenet::ledger::AttestLedger;
    use teenet_crypto::SecureRng;
    use teenet_sgx::EpidGroup;
    use teenet_tls::handshake::{handshake, TlsConfig};

    #[test]
    fn enterprise_outbound_blocks_exfil() {
        let report = scenarios::enterprise_outbound(1).unwrap();
        assert_eq!(report.blocked, 1, "the EXFIL record must be blocked");
        assert_eq!(report.passed, 3);
        assert!(report.alerts >= 1, "password alert fired");
        assert_eq!(report.attestations, 1, "one middlebox, one attestation");
        assert_eq!(
            report.server_received,
            vec![
                b"GET /public".to_vec(),
                b"password reset request".to_vec(),
                b"regular traffic".to_vec()
            ],
            "exactly the non-blocked records reach the server"
        );
    }

    #[test]
    fn cloud_dpi_requires_both_endpoints() {
        let report = scenarios::cloud_dpi_bilateral(2).unwrap();
        assert_eq!(report.attestations, 2, "both endpoints attest");
        assert_eq!(report.alerts, 1);
        assert_eq!(report.blocked, 0);
        assert_eq!(report.server_received.len(), 2);
    }

    #[test]
    fn tampered_middlebox_fails_attestation() {
        // A middlebox whose rules differ from what the endpoint pinned
        // (e.g. silently widened to log everything) fails attestation and
        // never sees the session keys.
        let mut rng = SecureRng::seed_from_u64(5);
        let epid = EpidGroup::new(35, &mut rng).unwrap();
        let mut ledger = AttestLedger::new();
        let mut host = MiddleboxHost::deploy(
            "gw",
            ProvisionPolicy::Unilateral,
            vec![Rule::new(b"evil-extra-rule", Action::Alert)],
            AttestConfig::fast(),
            &epid,
            5,
            &mut rng,
        )
        .unwrap();
        // The endpoint expects the box WITHOUT the extra rule.
        host.expected = teenet_sgx::measure_image(&middlebox::MiddleboxEnclave::image_for(
            "gw",
            1,
            ProvisionPolicy::Unilateral,
            &DpiEngine::build(vec![]),
        ));
        let mut srng = rng.fork(b"server");
        let (client, _server) = handshake(TlsConfig::fast(), &mut rng, &mut srng).unwrap();
        let err = host
            .provision(EndpointRole::Client, &client, &mut rng, &mut ledger)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(
            err,
            MboxError::Teenet(teenet::TeenetError::IdentityRejected(_))
        ));
    }

    #[test]
    fn chain_of_middleboxes() {
        let mut rng = SecureRng::seed_from_u64(7);
        let epid = EpidGroup::new(36, &mut rng).unwrap();
        let mut ledger = AttestLedger::new();
        let firewall = MiddleboxHost::deploy(
            "firewall",
            ProvisionPolicy::Unilateral,
            vec![Rule::new(b"attack", Action::Block)],
            AttestConfig::fast(),
            &epid,
            7,
            &mut rng,
        )
        .unwrap();
        let dlp = MiddleboxHost::deploy(
            "dlp",
            ProvisionPolicy::Unilateral,
            vec![Rule::new(b"ssn=123-45-6789", Action::Rewrite)],
            AttestConfig::fast(),
            &epid,
            8,
            &mut rng,
        )
        .unwrap();
        let mut srng = rng.fork(b"server");
        let (mut client, mut server) = handshake(TlsConfig::fast(), &mut rng, &mut srng).unwrap();
        let mut chain = MiddleboxChain::provision(
            vec![firewall, dlp],
            EndpointRole::Client,
            &client,
            &mut rng,
            &mut ledger,
        )
        .unwrap();
        assert_eq!(chain.len(), 2);
        // Table 3: attestations = number of in-path middleboxes.
        assert_eq!(ledger.total(), 2);

        // Clean record passes both boxes.
        let r = client.send(b"normal request").unwrap();
        let out = chain.process(EndpointRole::Client, &r).unwrap().unwrap();
        assert_eq!(server.recv(&out).unwrap(), b"normal request");

        // A record with PII is rewritten by the DLP box but still delivered.
        let r = client.send(b"form: ssn=123-45-6789 submitted").unwrap();
        let out = chain.process(EndpointRole::Client, &r).unwrap().unwrap();
        assert_eq!(
            server.recv(&out).unwrap(),
            b"form: *************** submitted"
        );

        // An attack record is blocked by the firewall; the server's
        // sequence state must not advance... it never sees the record.
        let r = client.send(b"attack payload").unwrap();
        assert!(chain.process(EndpointRole::Client, &r).unwrap().is_none());

        let (alerts, blocked, passed) = chain.stats().unwrap();
        assert_eq!(blocked, 1);
        assert!(passed >= 4, "each box counts its passes: {passed}");
        assert!(alerts >= 1);
    }

    #[test]
    fn middlebox_cannot_forge_beyond_session() {
        // A middlebox only learns the session it was given keys for;
        // records from a *different* session fail authentication.
        let mut rng = SecureRng::seed_from_u64(9);
        let epid = EpidGroup::new(37, &mut rng).unwrap();
        let mut ledger = AttestLedger::new();
        let mut host = MiddleboxHost::deploy(
            "gw",
            ProvisionPolicy::Unilateral,
            vec![],
            AttestConfig::fast(),
            &epid,
            9,
            &mut rng,
        )
        .unwrap();
        let mut srng = rng.fork(b"server");
        let (client, _s1) = handshake(TlsConfig::fast(), &mut rng, &mut srng).unwrap();
        let (mut other_client, _s2) = handshake(TlsConfig::fast(), &mut rng, &mut srng).unwrap();
        let (sid, _) = host
            .provision(EndpointRole::Client, &client, &mut rng, &mut ledger)
            .unwrap();
        let foreign = other_client.send(b"foreign session data").unwrap();
        assert!(host.process(sid, EndpointRole::Client, &foreign).is_err());
    }
}
