//! Integration: the full remote-attestation stack (crypto → SGX emulator →
//! attestation protocol → secure channel) across multiple platforms.

use teenet::attest::AttestConfig;
use teenet::identity::{IdentityPolicy, SoftwareCertificate};
use teenet::responder::{attest_enclave, AttestResponder, SessionNonce};
use teenet::TeenetError;
use teenet_crypto::schnorr::{SchnorrGroup, SigningKey};
use teenet_crypto::SecureRng;
use teenet_sgx::{deploy_platform, EnclaveCtx, EnclaveProgram, EpidGroup, SgxError, TeeBackend};

struct EchoService {
    responder: AttestResponder,
    version: u8,
}

impl EnclaveProgram for EchoService {
    fn code_image(&self) -> Vec<u8> {
        vec![b'e', b's', b'v', self.version]
    }
    fn ecall(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        fn_id: u64,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match fn_id {
            0 => self.responder.handle_begin(ctx, input),
            1 => self.responder.handle_finish(ctx, input),
            2 => {
                let (nonce, msg) = input.split_at(32);
                let nonce: SessionNonce = nonce.try_into().expect("32");
                let ch = self.responder.channel_mut(&nonce)?;
                let plain = ch
                    .open(msg)
                    .map_err(|_| SgxError::EcallRejected("bad message"))?;
                Ok(ch.seal(&plain))
            }
            _ => Err(SgxError::EcallRejected("unknown fn")),
        }
    }
}

fn service(version: u8) -> Box<EchoService> {
    Box::new(EchoService {
        responder: AttestResponder::new(AttestConfig::fast()),
        version,
    })
}

#[test]
fn cross_platform_attestation_and_channel() {
    // Two distinct physical platforms in one EPID group: quotes from
    // either verify under the single group key; channels work end to end.
    let mut rng = SecureRng::seed_from_u64(1);
    let epid = EpidGroup::new(1, &mut rng).unwrap();
    let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();

    for (name, seed) in [("host-a", 10u64), ("host-b", 20)] {
        let mut platform = deploy_platform(TeeBackend::Sgx, name, &epid, seed).unwrap();
        let enclave = platform.create_signed(service(1), &author, 1).unwrap();
        let expected = platform.measurement_of(enclave).unwrap();
        let (outcome, nonce) = attest_enclave(
            IdentityPolicy::Mrenclave(expected),
            AttestConfig::fast(),
            &mut rng,
            platform.as_mut(),
            enclave,
            0,
            1,
            &epid.public_key(),
            None,
        )
        .unwrap();
        let mut channel = outcome.channel.unwrap();
        let mut input = nonce.to_vec();
        input.extend_from_slice(&channel.seal(b"cross-platform ping"));
        let reply = platform.ecall_nohost(enclave, 2, &input).unwrap();
        assert_eq!(channel.open(&reply).unwrap(), b"cross-platform ping");
    }
}

#[test]
fn certificate_gated_attestation() {
    // A foundation certifies version 1; version 2 (an "update" nobody
    // certified) must be rejected under the Certified policy.
    let mut rng = SecureRng::seed_from_u64(2);
    let epid = EpidGroup::new(1, &mut rng).unwrap();
    let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
    let foundation = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();

    let v1_measurement = teenet_sgx::measure_image(&service(1).code_image());
    let cert = SoftwareCertificate::issue(
        "echo-service",
        1,
        vec![v1_measurement],
        &foundation,
        &mut rng,
    )
    .unwrap();
    let policy = IdentityPolicy::Certified {
        authority: foundation.verifying_key(),
    };

    let mut platform = deploy_platform(TeeBackend::Sgx, "host", &epid, 3).unwrap();
    let v1 = platform.create_signed(service(1), &author, 1).unwrap();
    let v2 = platform.create_signed(service(2), &author, 2).unwrap();

    assert!(attest_enclave(
        policy.clone(),
        AttestConfig::fast(),
        &mut rng,
        platform.as_mut(),
        v1,
        0,
        1,
        &epid.public_key(),
        Some(&cert),
    )
    .is_ok());

    let err = attest_enclave(
        policy,
        AttestConfig::fast(),
        &mut rng,
        platform.as_mut(),
        v2,
        0,
        1,
        &epid.public_key(),
        Some(&cert),
    )
    .map(|_| ())
    .unwrap_err();
    assert!(matches!(err, TeenetError::IdentityRejected(_)));
}

#[test]
fn quotes_do_not_verify_under_foreign_group() {
    // Platforms provisioned into different EPID groups cannot impersonate
    // each other.
    let mut rng = SecureRng::seed_from_u64(3);
    let group_a = EpidGroup::new(1, &mut rng).unwrap();
    let group_b = EpidGroup::new(2, &mut rng).unwrap();
    let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();

    let mut platform = deploy_platform(TeeBackend::Sgx, "host", &group_a, 4).unwrap();
    let enclave = platform.create_signed(service(1), &author, 1).unwrap();
    let err = attest_enclave(
        IdentityPolicy::AcceptAny,
        AttestConfig::fast(),
        &mut rng,
        platform.as_mut(),
        enclave,
        0,
        1,
        &group_b.public_key(), // verifier trusts the wrong group
        None,
    )
    .map(|_| ())
    .unwrap_err();
    assert!(matches!(err, TeenetError::Sgx(SgxError::QuoteInvalid(_))));
}

#[test]
fn channel_messages_survive_many_rounds() {
    let mut rng = SecureRng::seed_from_u64(4);
    let epid = EpidGroup::new(1, &mut rng).unwrap();
    let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
    let mut platform = deploy_platform(TeeBackend::Sgx, "host", &epid, 5).unwrap();
    let enclave = platform.create_signed(service(1), &author, 1).unwrap();
    let (outcome, nonce) = attest_enclave(
        IdentityPolicy::AcceptAny,
        AttestConfig::fast(),
        &mut rng,
        platform.as_mut(),
        enclave,
        0,
        1,
        &epid.public_key(),
        None,
    )
    .unwrap();
    let mut channel = outcome.channel.unwrap();
    for i in 0..50u32 {
        let msg = format!("round {i}");
        let mut input = nonce.to_vec();
        input.extend_from_slice(&channel.seal(msg.as_bytes()));
        let reply = platform.ecall_nohost(enclave, 2, &input).unwrap();
        assert_eq!(channel.open(&reply).unwrap(), msg.as_bytes());
    }
    assert_eq!(channel.sent_count(), 50);
    assert_eq!(channel.received_count(), 50);
}

#[test]
fn two_independent_sessions_to_one_enclave() {
    // Two challengers attest the same enclave; their channels are
    // independent (distinct nonces → distinct keys).
    let mut rng = SecureRng::seed_from_u64(6);
    let epid = EpidGroup::new(1, &mut rng).unwrap();
    let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
    let mut platform = deploy_platform(TeeBackend::Sgx, "host", &epid, 6).unwrap();
    let enclave = platform.create_signed(service(1), &author, 1).unwrap();

    let mut sessions = Vec::new();
    for _ in 0..2 {
        let (outcome, nonce) = attest_enclave(
            IdentityPolicy::AcceptAny,
            AttestConfig::fast(),
            &mut rng,
            platform.as_mut(),
            enclave,
            0,
            1,
            &epid.public_key(),
            None,
        )
        .unwrap();
        sessions.push((outcome.channel.unwrap(), nonce));
    }
    let (mut ch1, n1) = sessions.remove(0);
    let (mut ch2, n2) = sessions.remove(0);
    assert_ne!(n1, n2);
    // Cross-use fails: channel 1's ciphertext under session 2's nonce.
    let mut input = n2.to_vec();
    input.extend_from_slice(&ch1.seal(b"mismatched"));
    assert!(platform.ecall_nohost(enclave, 2, &input).is_err());
    // Correct pairing works.
    let mut input = n2.to_vec();
    input.extend_from_slice(&ch2.seal(b"matched"));
    let reply = platform.ecall_nohost(enclave, 2, &input).unwrap();
    assert_eq!(ch2.open(&reply).unwrap(), b"matched");
}
