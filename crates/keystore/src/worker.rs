//! The worker enclave: one member of the keystore fleet.
//!
//! A worker holds at most one active key slot. It answers the two
//! standard attestation-responder ecalls, then gates key adoption behind
//! a two-phase stage/activate protocol:
//!
//! 1. **Stage** ([`FN_STAGE`]): a channel-sealed [`ProvisionRecord`]
//!    arrives over the live attestation session. The worker checks the
//!    record's freshness nonce against that session, re-seals the key
//!    slot under its own MRENCLAVE seal key, and hands the sealed blob
//!    back to the host for persistence — *without* adopting the key.
//! 2. **Activate** ([`FN_ACTIVATE`]): the host loads a sealed blob back
//!    in. The worker unseals it and adopts the slot only if its
//!    monotonic epoch counter is strictly newer than the last accepted
//!    one — a replayed (stale) blob is rejected with
//!    [`ROLLBACK_REJECTED`], the sealed-state rollback defence the
//!    misuse literature calls out.
//!
//! Signed jobs ([`FN_JOB`]) release work only under the active epoch:
//! a job minted against a revoked epoch fails with [`EPOCH_REVOKED`].

use teenet::responder::AttestResponder;
use teenet::AttestConfig;
use teenet_crypto::hmac::{hmac_sha256, hmac_verify};
use teenet_sgx::keys::KeyRequest;
use teenet_sgx::seal::SealedBlob;
use teenet_sgx::{EnclaveCtx, EnclaveProgram, SgxError};

use crate::record::{Job, ProvisionRecord, SealedSlot, KEY_LEN, NONCE_LEN};

/// Ecall: attestation begin (standard responder message 1→3).
pub const FN_ATTEST_BEGIN: u64 = 0;
/// Ecall: attestation finish (standard responder message 4→8).
pub const FN_ATTEST_FINISH: u64 = 1;
/// Ecall: stage a channel-sealed provision record into a sealed blob.
pub const FN_STAGE: u64 = 2;
/// Ecall: activate a sealed blob (the monotonic-counter gate).
pub const FN_ACTIVATE: u64 = 3;
/// Ecall: execute one signed job under the active key.
pub const FN_JOB: u64 = 4;

/// Rejection message for a stale sealed blob (counter not advancing).
pub const ROLLBACK_REJECTED: &str = "stale sealed slot: monotonic counter did not advance";
/// Rejection message for a provision record minted for another session.
pub const FRESHNESS_MISMATCH: &str = "provision record not fresh for this attestation session";
/// Rejection message for a job minted against a non-active epoch.
pub const EPOCH_REVOKED: &str = "job epoch is not the active key epoch";
/// Rejection message for a job whose MAC fails under the active key.
pub const JOB_MAC_INVALID: &str = "job MAC invalid under the active key";
/// Rejection message for job release before any activation.
pub const NO_ACTIVE_KEY: &str = "no active key slot on this worker";

/// Seal label binding blobs to the keystore slot format.
const SLOT_LABEL: &[u8] = b"teenet-keystore-slot-v1";

struct ActiveSlot {
    key_id: u32,
    material: [u8; KEY_LEN],
}

/// The worker enclave program.
pub struct WorkerEnclave {
    responder: AttestResponder,
    last_counter: u64,
    active: Option<ActiveSlot>,
}

impl WorkerEnclave {
    /// A fresh worker answering attestations under `config`.
    pub fn new(config: AttestConfig) -> Self {
        WorkerEnclave {
            responder: AttestResponder::new(config),
            last_counter: 0,
            active: None,
        }
    }

    fn stage(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        if input.len() < NONCE_LEN + 1 {
            return Err(SgxError::EcallRejected("short stage input"));
        }
        let (nonce_bytes, sealed_msg) = input.split_at(NONCE_LEN);
        let nonce: [u8; NONCE_LEN] = nonce_bytes
            .try_into()
            .map_err(|_| SgxError::EcallRejected("bad session nonce"))?;
        // The record arrives over the attested channel of that session;
        // opening it costs one decrypt + MAC check.
        ctx.counts.aes_hmac(sealed_msg.len());
        let channel = self.responder.channel_mut(&nonce)?;
        let plain = channel
            .open(sealed_msg)
            .map_err(|_| SgxError::EcallRejected("provision record failed channel open"))?;
        let record = ProvisionRecord::from_bytes(&plain)?;
        // Freshness: the record must be minted for *this* session, not
        // replayed from an earlier attestation of this worker.
        if record.nonce != nonce {
            return Err(SgxError::EcallRejected(FRESHNESS_MISMATCH));
        }
        let slot = SealedSlot {
            key_id: record.key_id,
            counter: record.counter,
            key: record.key,
        };
        let blob = ctx.seal(KeyRequest::SealEnclave, SLOT_LABEL, &slot.to_bytes());
        let bytes = blob.to_bytes();
        // The sealed blob goes out for host persistence.
        ctx.ocall("persist", &bytes);
        Ok(bytes)
    }

    fn activate(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        let blob = SealedBlob::from_bytes(input)?;
        let plain = ctx.unseal(KeyRequest::SealEnclave, &blob)?;
        let slot = SealedSlot::from_bytes(&plain)?;
        // The rollback gate: only a strictly advancing counter is adopted.
        if slot.counter <= self.last_counter {
            return Err(SgxError::EcallRejected(ROLLBACK_REJECTED));
        }
        self.last_counter = slot.counter;
        self.active = Some(ActiveSlot {
            key_id: slot.key_id,
            material: slot.key,
        });
        let ack = slot.counter.to_le_bytes().to_vec();
        // Acknowledge the adopted epoch back to the coordinator.
        ctx.ocall("send", &ack);
        Ok(ack)
    }

    fn release(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        let job = Job::from_bytes(input)?;
        let slot = self
            .active
            .as_ref()
            .ok_or(SgxError::EcallRejected(NO_ACTIVE_KEY))?;
        if job.epoch != self.last_counter {
            return Err(SgxError::EcallRejected(EPOCH_REVOKED));
        }
        // Verify the job, then produce the keyed execution receipt.
        ctx.counts.hmac(job.payload.len());
        ctx.counts.hmac(job.payload.len());
        if !hmac_verify(
            &slot.material,
            &Job::mac_input(job.epoch, job.job_id, &job.payload),
            &job.mac,
        ) {
            return Err(SgxError::EcallRejected(JOB_MAC_INVALID));
        }
        let mut receipt_input = Vec::with_capacity(28 + job.payload.len());
        receipt_input.extend_from_slice(b"teenet-keystore-rcpt");
        receipt_input.extend_from_slice(&slot.key_id.to_le_bytes());
        receipt_input.extend_from_slice(&job.job_id.to_le_bytes());
        receipt_input.extend_from_slice(&job.payload);
        let receipt = hmac_sha256(&slot.material, &receipt_input).to_vec();
        // The receipt travels back to the dispatcher.
        ctx.ocall("send", &receipt);
        Ok(receipt)
    }
}

impl EnclaveProgram for WorkerEnclave {
    fn code_image(&self) -> Vec<u8> {
        b"teenet-keystore-worker-v1".to_vec()
    }

    fn ecall(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        fn_id: u64,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        match fn_id {
            FN_ATTEST_BEGIN => self.responder.handle_begin(ctx, input),
            FN_ATTEST_FINISH => self.responder.handle_finish(ctx, input),
            FN_STAGE => self.stage(ctx, input),
            FN_ACTIVATE => self.activate(ctx, input),
            FN_JOB => self.release(ctx, input),
            _ => Err(SgxError::EcallRejected("unknown worker fn")),
        }
    }
}
