//! Reusable target-side attestation plumbing and a host-side flow driver.
//!
//! Every case study has enclaves that answer attestation requests (the
//! inter-domain controller, SGX onion routers, directory authorities,
//! middleboxes). [`AttestResponder`] is the state they embed: it keeps the
//! pending [`TargetAttestor`]s and the established channels, keyed by the
//! challenger's nonce. [`attest_enclave`] is the matching host-side driver
//! that ferries the four messages between a challenger and a platform
//! enclave exposing the two responder ecalls; [`serve_attestation`] is its
//! target-side half, and [`attest_pipelined`] runs a burst of attestations
//! with that half on a second thread.

use std::collections::HashMap;
use std::sync::mpsc;
use std::{panic, thread};

use teenet_crypto::schnorr::VerifyingKey;
use teenet_crypto::SecureRng;
use teenet_sgx::report::TargetInfo;
use teenet_sgx::{EnclaveCtx, EnclaveId, Evidence, Measurement, Report, SgxError, TeePlatform};

use crate::attest::{
    AttestConfig, AttestOutcome, AttestRequest, AttestResponse, Challenger, TargetAttestor,
};
use crate::channel::SecureChannel;
use crate::error::{Result, TeenetError};
use crate::identity::{IdentityPolicy, SoftwareCertificate};

/// Session nonce type (the challenger's anti-replay nonce doubles as the
/// session key).
pub type SessionNonce = [u8; 32];

/// Target-side attestation state an enclave program embeds.
pub struct AttestResponder {
    config: AttestConfig,
    pending: HashMap<SessionNonce, TargetAttestor>,
    /// Channels established with challengers, keyed by session nonce.
    pub channels: HashMap<SessionNonce, SecureChannel>,
}

impl AttestResponder {
    /// A responder answering under `config`.
    pub fn new(config: AttestConfig) -> Self {
        AttestResponder {
            config,
            pending: HashMap::new(),
            channels: HashMap::new(),
        }
    }

    /// Ecall handler for the *begin* step.
    ///
    /// `input` = serialized [`AttestRequest`] ‖ attestation-target
    /// measurement (32 bytes — the QE on SGX, the PSP on a VM TEE);
    /// returns the serialized REPORT for the host to ferry to it.
    pub fn handle_begin(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        if input.len() < 32 + 34 {
            return Err(SgxError::EcallRejected("short attest-begin input"));
        }
        let (req_bytes, qe) = input.split_at(input.len() - 32);
        let request = AttestRequest::from_bytes(req_bytes)
            .map_err(|_| SgxError::EcallRejected("bad AttestRequest"))?;
        let qe_target = TargetInfo {
            mrenclave: Measurement(
                qe.try_into()
                    .map_err(|_| SgxError::EcallRejected("bad QE measurement"))?,
            ),
        };
        // Message 1 arrived over the network: the enclave pulls it in via
        // an ocall (the host already marshalled it into `input`).
        ctx.ocall("recv", &[]);
        let (attestor, report) =
            TargetAttestor::begin(ctx, &request, qe_target, self.config.clone())
                .map_err(|_| SgxError::EcallRejected("attest begin failed"))?;
        self.pending.insert(request.nonce, attestor);
        // Message 3: ship the REPORT to the quoting enclave.
        let bytes = report.to_bytes();
        ctx.ocall("send", &bytes);
        Ok(bytes)
    }

    /// Ecall handler for the *finish* step.
    ///
    /// `input` = session nonce (32 bytes) ‖ serialized [`Evidence`];
    /// returns the serialized [`AttestResponse`] and stores the channel
    /// under the nonce.
    pub fn handle_finish(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        if input.len() < 32 {
            return Err(SgxError::EcallRejected("short attest-finish input"));
        }
        let (nonce, evidence_bytes) = input.split_at(32);
        let nonce: SessionNonce = nonce
            .try_into()
            .map_err(|_| SgxError::EcallRejected("bad session nonce"))?;
        let evidence = Evidence::from_bytes(evidence_bytes)?;
        let attestor = self
            .pending
            .remove(&nonce)
            .ok_or(SgxError::EcallRejected("no pending attestation"))?;
        // Message 4 (the evidence) arrives from the attestation component.
        ctx.ocall("recv", &[]);
        let (response, channel) = attestor
            .finish(ctx, evidence)
            .map_err(|_| SgxError::EcallRejected("attest finish failed"))?;
        if let Some(channel) = channel {
            self.channels.insert(nonce, channel);
        }
        // Messages 5-8: the response travels back to the challenger in
        // four protocol messages (Figure 1), each an enclave send.
        let bytes = response.to_bytes();
        for chunk in bytes.chunks(bytes.len().div_ceil(4).max(1)) {
            ctx.ocall("send", chunk);
        }
        Ok(bytes)
    }

    /// Mutable access to an established channel.
    pub fn channel_mut(
        &mut self,
        nonce: &SessionNonce,
    ) -> core::result::Result<&mut SecureChannel, SgxError> {
        self.channels
            .get_mut(nonce)
            .ok_or(SgxError::EcallRejected("unknown attestation session"))
    }
}

/// Drives a full remote attestation of `enclave` on `platform` from the
/// challenger side, using the enclave's `begin_fn`/`finish_fn` responder
/// ecalls. Returns the outcome and the session nonce (the key under which
/// the target stored its channel end).
#[allow(clippy::too_many_arguments)]
pub fn attest_enclave(
    policy: IdentityPolicy,
    config: AttestConfig,
    rng: &mut SecureRng,
    platform: &mut dyn TeePlatform,
    enclave: EnclaveId,
    begin_fn: u64,
    finish_fn: u64,
    group_public: &VerifyingKey,
    certificate: Option<&SoftwareCertificate>,
) -> Result<(AttestOutcome, SessionNonce)> {
    let (challenger, request) = Challenger::start(policy, config, rng)?;
    let nonce = request.nonce;
    let response = serve_attestation(
        platform,
        enclave,
        (begin_fn, finish_fn),
        &nonce,
        request.to_bytes(),
    )
    .map_err(TeenetError::Sgx)?;
    let response = AttestResponse::from_bytes(&response)?;
    let outcome = challenger.verify(&response, group_public, certificate)?;
    Ok((outcome, nonce))
}

/// The target platform's half of one attestation: the `begin` ecall on
/// `request` (a serialized [`AttestRequest`] under `nonce`) with the
/// platform's attestation-target measurement appended, the evidence for
/// the REPORT it returns, and the `finish` ecall. Returns the serialized
/// [`AttestResponse`]; stops at the first step that fails.
pub fn serve_attestation(
    platform: &mut dyn TeePlatform,
    enclave: EnclaveId,
    (begin_fn, finish_fn): (u64, u64),
    nonce: &SessionNonce,
    mut request: Vec<u8>,
) -> core::result::Result<Vec<u8>, SgxError> {
    request.extend_from_slice(&platform.attestation_target_info().mrenclave.0);
    let report_bytes = platform.ecall_nohost(enclave, begin_fn, &request)?;
    let report = Report::from_bytes(&report_bytes)?;
    let evidence = platform.evidence(&report)?;
    let mut finish_input = nonce.to_vec();
    finish_input.extend_from_slice(&evidence.to_bytes());
    platform.ecall_nohost(enclave, finish_fn, &finish_input)
}

/// Runs a burst of attestations as a two-stage pipeline: this thread
/// `open`s every item in order (the challenger's side of message 1, with
/// whatever RNG draws and ecalls that takes), one scoped thread `serve`s
/// them in order (the target side, typically [`serve_attestation`]), and
/// this thread then `complete`s each with its response in order (message
/// 9). While the target works on item `i`, the challenger opens later
/// items, so two cores share the burst.
///
/// Each stage sees its items in the serial loop's order, so as long as
/// `open` and `complete` touch only the challenger's state and `serve`
/// only the targets', every platform sees a serial loop's ecalls and
/// every RNG a serial loop's draws. With no items, no thread is spawned.
///
/// An `Err` is the one a serial loop returns: the lowest failing item, and
/// within it the first failing stage. Each stage stops at its first
/// error; by then later items may already be open. A panic on either
/// thread propagates with its payload.
pub fn attest_pipelined<I, C, Q, R, E>(
    items: impl IntoIterator<Item = I>,
    mut open: impl FnMut(I) -> core::result::Result<(C, Q), E>,
    mut serve: impl FnMut(Q) -> core::result::Result<R, E> + Send,
    mut complete: impl FnMut(C, R) -> core::result::Result<(), E>,
) -> core::result::Result<(), E>
where
    Q: Send,
    R: Send,
    E: Send,
{
    let mut items = items.into_iter().peekable();
    if items.peek().is_none() {
        return Ok(());
    }
    let (request_tx, request_rx) = mpsc::channel();
    let (response_tx, response_rx) = mpsc::channel();
    thread::scope(|scope| {
        let target_side = scope.spawn(move || {
            for request in request_rx {
                let response = serve(request);
                let failed = response.is_err();
                // Stop at the first error, or once this thread's caller
                // has stopped listening (a `complete` failed).
                if response_tx.send(response).is_err() || failed {
                    break;
                }
            }
        });
        let mut opened = Vec::new();
        let mut open_error = None;
        for item in items {
            match open(item) {
                Ok((state, request)) => {
                    opened.push(state);
                    if request_tx.send(request).is_err() {
                        break; // the target side stopped at an error
                    }
                }
                Err(e) => {
                    open_error = Some(e);
                    break;
                }
            }
        }
        drop(request_tx);
        let completed = opened
            .into_iter()
            .zip(response_rx.iter())
            .try_for_each(|(state, response)| complete(state, response?));
        drop(response_rx);
        if let Err(panic) = target_side.join() {
            panic::resume_unwind(panic);
        }
        completed.and(open_error.map_or(Ok(()), Err))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use teenet_crypto::schnorr::{SchnorrGroup, SigningKey};
    use teenet_sgx::{deploy_platform, EnclaveProgram, EpidGroup, TeeBackend};

    /// Minimal enclave exposing the responder ecalls plus an echo over the
    /// channel.
    struct Service {
        responder: AttestResponder,
    }

    impl EnclaveProgram for Service {
        fn code_image(&self) -> Vec<u8> {
            b"responder-service-v1".to_vec()
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
                2 => {
                    let (nonce, msg) = input.split_at(32);
                    let nonce: SessionNonce = nonce.try_into().expect("32");
                    let ch = self.responder.channel_mut(&nonce)?;
                    let plain = ch
                        .open(msg)
                        .map_err(|_| SgxError::EcallRejected("bad msg"))?;
                    Ok(ch.seal(&plain))
                }
                _ => Err(SgxError::EcallRejected("unknown fn")),
            }
        }
    }

    fn run_responder_flow(backend: TeeBackend) {
        let mut rng = SecureRng::seed_from_u64(5);
        let epid = EpidGroup::new(1, &mut rng).unwrap();
        let mut platform = deploy_platform(backend, "svc", &epid, 9).unwrap();
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
        let enclave = platform
            .create_signed(
                Box::new(Service {
                    responder: AttestResponder::new(AttestConfig::fast()),
                }),
                &author,
                1,
            )
            .unwrap();
        let (outcome, nonce) = attest_enclave(
            IdentityPolicy::Mrenclave(platform.measurement_of(enclave).unwrap()),
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
        input.extend_from_slice(&channel.seal(b"ping"));
        let reply = platform.ecall_nohost(enclave, 2, &input).unwrap();
        assert_eq!(channel.open(&reply).unwrap(), b"ping");
    }

    /// One stage of [`attest_pipelined`] and the item it ran.
    type Step = (&'static str, u32);

    /// Runs six items through the pipeline, failing each `(stage, item)`
    /// in `faults` and panicking at `panic_at`, on another thread with a
    /// one-minute deadline. Returns the outcome and every stage's log.
    fn pipeline(
        faults: &'static [Step],
        panic_at: Option<Step>,
    ) -> std::thread::Result<(core::result::Result<(), Step>, Vec<Step>)> {
        let (done_tx, done_rx) = mpsc::channel();
        let runner = thread::spawn(move || {
            let log = std::sync::Mutex::new(Vec::new());
            let step = |stage: &'static str, item: u32| {
                log.lock()
                    .expect("no panic while logging")
                    .push((stage, item));
                if panic_at == Some((stage, item)) {
                    panic!("stage panicked");
                }
                match faults.contains(&(stage, item)) {
                    true => Err((stage, item)),
                    false => Ok(item),
                }
            };
            let outcome = attest_pipelined(
                0..6,
                |i| step("open", i).map(|i| (i, i)),
                |i| step("serve", i),
                |i, served| {
                    assert_eq!(i, served, "completed with another item's response");
                    step("complete", i).map(drop)
                },
            );
            let _ = done_tx.send(());
            (outcome, log.into_inner().expect("no panic while logging"))
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("attest_pipelined did not return"),
            _ => runner.join(),
        }
    }

    /// Each stage sees the items in order; an error is the lowest failing
    /// item's first failing stage, and later items complete no further;
    /// a panic on either side comes back with its payload.
    #[test]
    fn pipeline_keeps_the_serial_order_and_error() {
        let stage = |log: &[Step], name| -> Vec<u32> {
            log.iter().filter(|s| s.0 == name).map(|s| s.1).collect()
        };
        let (outcome, log) = pipeline(&[], None).expect("no panic");
        assert_eq!(outcome, Ok(()));
        for name in ["open", "serve", "complete"] {
            assert_eq!(stage(&log, name), [0, 1, 2, 3, 4, 5], "{name}");
        }
        let cases: [(&'static [Step], Step, usize); 6] = [
            (&[("open", 2)], ("open", 2), 2),
            (&[("serve", 3)], ("serve", 3), 3),
            (&[("complete", 1)], ("complete", 1), 2),
            (&[("serve", 2), ("open", 4)], ("serve", 2), 2),
            (&[("complete", 1), ("serve", 3)], ("complete", 1), 2),
            (&[("open", 3), ("serve", 3)], ("open", 3), 3),
        ];
        for (faults, expected, completed) in cases {
            let (outcome, log) = pipeline(faults, None).expect("no panic");
            assert_eq!(outcome, Err(expected), "{faults:?}");
            assert_eq!(stage(&log, "complete").len(), completed, "{faults:?}");
        }
        for at in [("open", 3), ("serve", 3), ("complete", 3)] {
            let payload = pipeline(&[], Some(at)).expect_err("a panic");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"stage panicked"));
        }
    }

    #[test]
    fn responder_flow_end_to_end() {
        run_responder_flow(TeeBackend::Sgx);
    }

    #[test]
    fn responder_flow_end_to_end_on_vmtee() {
        run_responder_flow(TeeBackend::VmTee);
    }

    #[test]
    fn responder_rejects_unknown_session() {
        let mut rng = SecureRng::seed_from_u64(6);
        let epid = EpidGroup::new(1, &mut rng).unwrap();
        let mut platform = deploy_platform(TeeBackend::Sgx, "svc", &epid, 9).unwrap();
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
        let enclave = platform
            .create_signed(
                Box::new(Service {
                    responder: AttestResponder::new(AttestConfig::fast()),
                }),
                &author,
                1,
            )
            .unwrap();
        let mut input = [9u8; 32].to_vec();
        input.extend_from_slice(b"junk quote");
        assert!(platform.ecall_nohost(enclave, 1, &input).is_err());
        assert!(platform.ecall_nohost(enclave, 2, &[0u8; 40]).is_err());
    }

    #[test]
    fn wrong_expected_identity_fails_in_driver() {
        let mut rng = SecureRng::seed_from_u64(7);
        let epid = EpidGroup::new(1, &mut rng).unwrap();
        let mut platform = deploy_platform(TeeBackend::Sgx, "svc", &epid, 9).unwrap();
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
        let enclave = platform
            .create_signed(
                Box::new(Service {
                    responder: AttestResponder::new(AttestConfig::fast()),
                }),
                &author,
                1,
            )
            .unwrap();
        let result = attest_enclave(
            IdentityPolicy::Mrenclave(Measurement([0xaa; 32])),
            AttestConfig::fast(),
            &mut rng,
            platform.as_mut(),
            enclave,
            0,
            1,
            &epid.public_key(),
            None,
        );
        assert!(matches!(
            result.map(|_| ()),
            Err(TeenetError::IdentityRejected(_))
        ));
    }
}
