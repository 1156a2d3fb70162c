//! The coordinator enclave: the trust anchor of the keystore fleet.
//!
//! The coordinator holds the master secret and dispatches per-worker,
//! per-epoch keys — but only to workers that pass remote attestation
//! against the expected worker measurement. It runs the challenger side
//! of the paper's Figure-1 protocol *inside* its own enclave: the
//! [`teenet::Challenger`] state machine lives in coordinator memory, and
//! a failed verify is an ecall rejection ([`ATTEST_REJECTED`]) the host
//! cannot paper over.
//!
//! Key release is epoch-based: every provision (and every revocation,
//! which is a forced rotation) bumps the worker's monotonic epoch
//! counter. The released [`ProvisionRecord`] carries that counter plus
//! the freshness nonce of the attestation session it is sealed into, so
//! workers can reject both cross-session replay and sealed-state
//! rollback.

use std::collections::HashMap;

use teenet::attest::{AttestConfig, AttestResponse, Challenger};
use teenet::channel::SecureChannel;
use teenet::identity::IdentityPolicy;
use teenet::responder::SessionNonce;
use teenet_crypto::hmac::hmac_sha256;
use teenet_crypto::schnorr::VerifyingKey;
use teenet_crypto::SecureRng;
use teenet_sgx::cost::{Kind, Op};
use teenet_sgx::{EnclaveCtx, EnclaveProgram, Measurement, SgxError};

use crate::record::{Job, ProvisionRecord, KEY_LEN};

/// Ecall: start attesting a worker (emit message 1).
pub const FN_START_ATTEST: u64 = 0;
/// Ecall: verify a worker's attestation response (message 9).
pub const FN_FINISH_ATTEST: u64 = 1;
/// Ecall: mint a provision record for an attested worker (epoch bump).
pub const FN_PROVISION: u64 = 2;
/// Ecall: mint a signed job against a worker's current epoch.
pub const FN_SIGN_JOB: u64 = 3;
/// Ecall: revoke a worker's current epoch and re-provision (rotation).
pub const FN_REVOKE: u64 = 4;

/// Rejection message when a worker fails attestation — the coordinator
/// releases nothing.
pub const ATTEST_REJECTED: &str = "worker attestation rejected: no key release";
/// Rejection message for a finish with no matching start.
pub const NO_PENDING_ATTEST: &str = "no pending attestation for this worker";
/// Rejection message for provisioning a worker that never attested.
pub const UNKNOWN_WORKER: &str = "no attested channel for this worker";
/// Rejection message for signing a job before any provision.
pub const NO_EPOCH: &str = "worker has no provisioned key epoch";

/// The coordinator enclave program.
pub struct CoordinatorEnclave {
    config: AttestConfig,
    expected: Measurement,
    group_public: VerifyingKey,
    rng: SecureRng,
    master: [u8; 32],
    pending: HashMap<u32, Challenger>,
    sessions: HashMap<u32, SessionNonce>,
    channels: HashMap<u32, SecureChannel>,
    epochs: HashMap<u32, u64>,
    jobs_minted: u64,
}

impl CoordinatorEnclave {
    /// A coordinator releasing keys only to enclaves measuring
    /// `expected`, verifying quotes under `group_public`.
    pub fn new(
        config: AttestConfig,
        expected: Measurement,
        group_public: VerifyingKey,
        mut rng: SecureRng,
    ) -> Self {
        let mut master = [0u8; 32];
        rng.fill_bytes(&mut master);
        CoordinatorEnclave {
            config,
            expected,
            group_public,
            rng,
            master,
            pending: HashMap::new(),
            sessions: HashMap::new(),
            channels: HashMap::new(),
            epochs: HashMap::new(),
            jobs_minted: 0,
        }
    }

    /// Per-worker, per-epoch key derivation from the master secret.
    fn epoch_key(&self, worker: u32, epoch: u64) -> [u8; KEY_LEN] {
        let mut input = Vec::with_capacity(32);
        input.extend_from_slice(b"teenet-keystore-epoch");
        input.extend_from_slice(&worker.to_le_bytes());
        input.extend_from_slice(&epoch.to_le_bytes());
        hmac_sha256(&self.master, &input)
    }

    fn start_attest(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        let (worker, _) = parse_worker(input)?;
        let (challenger, request) = Challenger::start(
            IdentityPolicy::Mrenclave(self.expected),
            self.config.clone(),
            &mut self.rng,
        )
        .map_err(|_| SgxError::EcallRejected("challenger start failed"))?;
        self.sessions.insert(worker, request.nonce);
        self.pending.insert(worker, challenger);
        let bytes = request.to_bytes();
        // Message 1 leaves the coordinator for the worker.
        ctx.ocall("send", &bytes);
        Ok(bytes)
    }

    fn finish_attest(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        let (worker, rest) = parse_worker(input)?;
        // Messages 5-8 arrive from the worker's platform.
        ctx.ocall("recv", &[]);
        let challenger = self
            .pending
            .remove(&worker)
            .ok_or(SgxError::EcallRejected(NO_PENDING_ATTEST))?;
        let response = AttestResponse::from_bytes(rest)
            .map_err(|_| SgxError::EcallRejected("bad attestation response"))?;
        let outcome = match challenger.verify(&response, &self.group_public, None) {
            Ok(outcome) => outcome,
            Err(_) => {
                // A failed worker gets no channel and no session: every
                // later release attempt fails closed with UNKNOWN_WORKER.
                self.sessions.remove(&worker);
                self.channels.remove(&worker);
                return Err(SgxError::EcallRejected(ATTEST_REJECTED));
            }
        };
        // The challenger's crypto ran inside this enclave, so its normal
        // work joins this enclave's meter and is priced at the platform's
        // row; its real transitions are already metered by the platform.
        for op in Op::ALL.into_iter().filter(|op| op.kind() == Kind::Normal) {
            ctx.counts.charge(op, outcome.counts.count(op));
        }
        let channel = outcome
            .channel
            .ok_or(SgxError::EcallRejected("attestation derived no channel"))?;
        self.channels.insert(worker, channel);
        let nonce = self
            .sessions
            .get(&worker)
            .ok_or(SgxError::EcallRejected(NO_PENDING_ATTEST))?;
        Ok(nonce.to_vec())
    }

    /// Mints the next epoch for `worker` and seals the provision record
    /// into the worker's attested channel. Shared by provisioning and
    /// revocation — a revoke *is* a forced rotation to a fresh epoch.
    fn mint_provision(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        let (worker, _) = parse_worker(input)?;
        let nonce = *self
            .sessions
            .get(&worker)
            .ok_or(SgxError::EcallRejected(UNKNOWN_WORKER))?;
        let next = self.epochs.get(&worker).copied().unwrap_or(0) + 1;
        let record = ProvisionRecord {
            key_id: worker,
            counter: next,
            nonce,
            key: self.epoch_key(worker, next),
        };
        let plain = record.to_bytes();
        // One key derivation plus the channel seal (encrypt + MAC).
        ctx.charge(Op::HmacShort, 1);
        ctx.counts.aes_hmac(plain.len());
        let channel = self
            .channels
            .get_mut(&worker)
            .ok_or(SgxError::EcallRejected(UNKNOWN_WORKER))?;
        self.epochs.insert(worker, next);
        let mut out = nonce.to_vec();
        out.extend_from_slice(&channel.seal(&plain));
        // The sealed record leaves for the worker's platform.
        ctx.ocall("send", &out);
        Ok(out)
    }

    fn sign_job(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        let (worker, payload) = parse_worker(input)?;
        let epoch = self
            .epochs
            .get(&worker)
            .copied()
            .ok_or(SgxError::EcallRejected(NO_EPOCH))?;
        let job_id = self.jobs_minted;
        self.jobs_minted += 1;
        ctx.counts.hmac(payload.len());
        let job = Job::mint(
            &self.epoch_key(worker, epoch),
            epoch,
            job_id,
            payload.to_vec(),
        );
        let bytes = job.to_bytes();
        // The signed job leaves for the worker's platform.
        ctx.ocall("send", &bytes);
        Ok(bytes)
    }
}

fn parse_worker(input: &[u8]) -> core::result::Result<(u32, &[u8]), SgxError> {
    let id = input
        .get(..4)
        .and_then(|b| <[u8; 4]>::try_from(b).ok())
        .ok_or(SgxError::EcallRejected("short worker id"))?;
    let rest = input.get(4..).unwrap_or(&[]);
    Ok((u32::from_le_bytes(id), rest))
}

impl EnclaveProgram for CoordinatorEnclave {
    fn code_image(&self) -> Vec<u8> {
        // The expected worker measurement is behaviour-defining policy:
        // it belongs in the coordinator's own measurement.
        let mut image = b"teenet-keystore-coordinator-v1".to_vec();
        image.extend_from_slice(&self.expected.0);
        image
    }

    fn ecall(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        fn_id: u64,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        match fn_id {
            FN_START_ATTEST => self.start_attest(ctx, input),
            FN_FINISH_ATTEST => self.finish_attest(ctx, input),
            FN_PROVISION | FN_REVOKE => self.mint_provision(ctx, input),
            FN_SIGN_JOB => self.sign_job(ctx, input),
            _ => Err(SgxError::EcallRejected("unknown coordinator fn")),
        }
    }
}
