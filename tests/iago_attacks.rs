//! Integration: Iago attacks — a malicious host returning adversarial
//! values from ocalls, and the enclave-side sanity checking (§6: "The
//! enclave program must verify/sanity check the return values and output
//! parameters of system calls").

use teenet_crypto::schnorr::{SchnorrGroup, SigningKey};
use teenet_crypto::SecureRng;
use teenet_sgx::ocall::{checked, validate_len_le, HostCalls};
use teenet_sgx::{
    deploy_platform, EnclaveCtx, EnclaveProgram, EpidGroup, SgxError, TeeBackend, TeePlatform,
};

/// An enclave that reads data from the host through a *checked* recv: the
/// host returns `len(u64) ‖ data`, and the enclave validates both the
/// claimed length against its buffer size and the framing before use.
struct CheckedReader {
    buffer_size: usize,
    pub received: Vec<u8>,
}

impl EnclaveProgram for CheckedReader {
    fn code_image(&self) -> Vec<u8> {
        b"checked-reader-v1".to_vec()
    }
    fn ecall(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        _fn_id: u64,
        _input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        let raw = ctx.ocall("recv", &[]);
        // Iago discipline: the length header must be 8 bytes, claim no
        // more than the buffer, and match the actual payload length.
        let buffer_size = self.buffer_size;
        let data = checked(raw, "recv length", |raw| {
            if raw.len() < 8 {
                return None;
            }
            let claimed = validate_len_le(&raw[..8], buffer_size)?;
            (raw.len() - 8 == claimed).then(|| raw[8..].to_vec())
        })?;
        self.received = data.clone();
        Ok(data)
    }
}

fn setup() -> (Box<dyn TeePlatform>, u64) {
    let mut rng = SecureRng::seed_from_u64(99);
    let epid = EpidGroup::new(1, &mut rng).unwrap();
    let mut platform = deploy_platform(TeeBackend::Sgx, "iago-host", &epid, 1).unwrap();
    let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
    let enclave = platform
        .create_signed(
            Box::new(CheckedReader {
                buffer_size: 16,
                received: Vec::new(),
            }),
            &author,
            1,
        )
        .unwrap();
    (platform, enclave)
}

fn host_returning(reply: Vec<u8>) -> impl HostCalls {
    move |_name: &str, _payload: &[u8]| reply.clone()
}

#[test]
fn honest_host_passes_checks() {
    let (mut platform, enclave) = setup();
    let mut reply = 5u64.to_le_bytes().to_vec();
    reply.extend_from_slice(b"hello");
    let mut host = host_returning(reply);
    let out = platform.ecall(enclave, 0, &[], &mut host).unwrap();
    assert_eq!(out, b"hello");
}

#[test]
fn oversized_length_claim_rejected() {
    // The classic Iago vector: claim a length beyond the enclave buffer
    // to provoke an overflow. The checked wrapper rejects it.
    let (mut platform, enclave) = setup();
    let mut reply = 1000u64.to_le_bytes().to_vec();
    reply.extend_from_slice(&[0u8; 1000]);
    let mut host = host_returning(reply);
    let err = platform.ecall(enclave, 0, &[], &mut host).unwrap_err();
    assert!(matches!(err, SgxError::IagoViolation(_)));
}

#[test]
fn inconsistent_framing_rejected() {
    // Length header says 4, payload is 12: a confused-deputy setup.
    let (mut platform, enclave) = setup();
    let mut reply = 4u64.to_le_bytes().to_vec();
    reply.extend_from_slice(b"twelve bytes");
    let mut host = host_returning(reply);
    let err = platform.ecall(enclave, 0, &[], &mut host).unwrap_err();
    assert!(matches!(err, SgxError::IagoViolation(_)));
}

#[test]
fn truncated_header_rejected() {
    let (mut platform, enclave) = setup();
    let mut host = host_returning(vec![1, 2, 3]);
    let err = platform.ecall(enclave, 0, &[], &mut host).unwrap_err();
    assert!(matches!(err, SgxError::IagoViolation(_)));
}

#[test]
fn malicious_host_cannot_break_attestation() {
    // The attestation responder never consumes ocall return values, so a
    // host lying on every ocall cannot corrupt the protocol — it can only
    // deny service by refusing to ferry messages (which is in the threat
    // model).
    use teenet::attest::AttestConfig;
    use teenet::identity::IdentityPolicy;
    use teenet::responder::AttestResponder;

    struct Svc {
        responder: AttestResponder,
    }
    impl EnclaveProgram for Svc {
        fn code_image(&self) -> Vec<u8> {
            b"svc-v1".to_vec()
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
                _ => Err(SgxError::EcallRejected("unknown")),
            }
        }
    }

    let mut rng = SecureRng::seed_from_u64(5);
    let epid = EpidGroup::new(1, &mut rng).unwrap();
    let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
    let mut platform = deploy_platform(TeeBackend::Sgx, "host", &epid, 2).unwrap();
    let enclave = platform
        .create_signed(
            Box::new(Svc {
                responder: AttestResponder::new(AttestConfig::fast()),
            }),
            &author,
            1,
        )
        .unwrap();

    // Drive the attestation manually with a hostile ocall table.
    let (challenger, request) = teenet::attest::Challenger::start(
        IdentityPolicy::AcceptAny,
        AttestConfig::fast(),
        &mut rng,
    )
    .unwrap();
    let mut evil = |_n: &str, _p: &[u8]| b"\xff\xff lies from the host \xff\xff".to_vec();
    let mut begin_input = request.to_bytes();
    begin_input.extend_from_slice(&platform.attestation_target_info().mrenclave.0);
    let report_bytes = platform.ecall(enclave, 0, &begin_input, &mut evil).unwrap();
    let report = teenet_sgx::Report::from_bytes(&report_bytes).unwrap();
    let quote = platform.evidence(&report).unwrap();
    let mut finish_input = request.nonce.to_vec();
    finish_input.extend_from_slice(&quote.to_bytes());
    let response_bytes = platform
        .ecall(enclave, 1, &finish_input, &mut evil)
        .unwrap();
    let response = teenet::attest::AttestResponse::from_bytes(&response_bytes).unwrap();
    let outcome = challenger
        .verify(&response, &epid.public_key(), None)
        .unwrap();
    assert!(
        outcome.channel.is_some(),
        "attestation unaffected by ocall lies"
    );
}
