//! The keystore fleet as an [`EnclaveService`].
//!
//! Topology: one coordinator enclave on its own platform, and a fleet of
//! `fleet_size` worker enclaves sharing a second platform — the
//! many-enclaves-per-platform shape none of the other four workloads
//! exercises. Setup attests and provisions every fleet member (an
//! attestation storm proportional to fleet size); one steady-state
//! session then walks one worker through the full churn cycle:
//!
//! `attest` × `provision` × `release`(×jobs) × `revoke`
//!
//! The `revoke` step doubles as a security self-check: after rotating
//! the worker to a fresh epoch it replays the *superseded* sealed blob
//! and requires the worker to reject it with
//! [`ROLLBACK_REJECTED`] — a worker that accepts the stale blob
//! fails the whole calibration with
//! [`KeystoreError::RollbackNotEnforced`]. Rollback rejection is thus
//! exercised deterministically in every report, not just in tests.
//!
//! Under [`TransitionMode::Switchless`] the release step dispatches jobs
//! through batched ecalls on both platforms (the Table-2 amortisation);
//! all enclave ocalls ride the switchless ring.

use teenet::attest::AttestRequest;
use teenet::AttestConfig;
use teenet_app::ledger::AttestKind;
use teenet_app::{AttestLedger, EnclaveService, ServiceEnv, StepExecution, StepRequest, StepSpec};
use teenet_crypto::schnorr::{SchnorrGroup, SigningKey};
use teenet_crypto::SecureRng;
use teenet_sgx::cost::OpCounts;
use teenet_sgx::{
    deploy_platform, EnclaveId, EpidGroup, Report, SgxError, SwitchlessConfig, TeePlatform,
    TransitionMode, TransitionStats,
};

use crate::coordinator::{
    CoordinatorEnclave, FN_FINISH_ATTEST, FN_PROVISION, FN_REVOKE, FN_SIGN_JOB, FN_START_ATTEST,
};
use crate::error::{KeystoreError, Result};
use crate::worker::{
    WorkerEnclave, FN_ACTIVATE, FN_ATTEST_BEGIN, FN_ATTEST_FINISH, FN_JOB, FN_STAGE,
    ROLLBACK_REJECTED,
};

/// Ledger tag for the coordinator as a challenger.
const COORDINATOR_TAG: u64 = 70_000;

/// Per-worker sealed-blob history the host persists: the active blob and
/// the one it superseded (the revoke step's rollback-probe input).
#[derive(Default)]
struct BlobSlot {
    current: Option<Vec<u8>>,
    previous: Option<Vec<u8>>,
}

struct Deployed {
    coordinator_platform: Box<dyn TeePlatform>,
    coordinator: EnclaveId,
    worker_platform: Box<dyn TeePlatform>,
    workers: Vec<EnclaveId>,
    blobs: Vec<BlobSlot>,
    cursor: usize,
    next_job: u64,
}

/// The attested coordinator/worker keystore workload, driven through
/// [`teenet_app::AppHarness`].
pub struct KeystoreService {
    fleet_size: u32,
    jobs_per_session: u32,
    job_payload_bytes: usize,
    deployed: Option<Deployed>,
}

impl KeystoreService {
    /// A fleet of `fleet_size` workers releasing `jobs_per_session`
    /// signed jobs per session.
    pub fn new(fleet_size: u32, jobs_per_session: u32) -> Self {
        KeystoreService {
            fleet_size,
            jobs_per_session,
            job_payload_bytes: 64,
            deployed: None,
        }
    }

    fn state(&self) -> Result<&Deployed> {
        self.deployed
            .as_ref()
            .ok_or(KeystoreError::Protocol("keystore service not deployed"))
    }
}

impl Default for KeystoreService {
    fn default() -> Self {
        KeystoreService::new(4, 4)
    }
}

fn worker_at(state: &Deployed, idx: usize) -> Result<EnclaveId> {
    state
        .workers
        .get(idx)
        .copied()
        .ok_or(KeystoreError::Protocol("worker index out of range"))
}

/// Runs the full Figure-1 attestation of fleet member `idx` with the
/// coordinator enclave as challenger, ferrying the messages between the
/// two platforms. Returns the wire sizes of messages 1 and 5-8.
fn attest_fleet_member(
    state: &mut Deployed,
    idx: usize,
    ledger: &mut AttestLedger,
) -> Result<(usize, usize)> {
    let worker = worker_at(state, idx)?;
    let wid = (idx as u32).to_le_bytes();
    let request_wire =
        state
            .coordinator_platform
            .ecall_nohost(state.coordinator, FN_START_ATTEST, &wid)?;
    let request = AttestRequest::from_bytes(&request_wire)
        .map_err(|_| KeystoreError::Protocol("coordinator emitted a bad attest request"))?;
    let mut begin_input = request_wire.clone();
    begin_input.extend_from_slice(&state.worker_platform.attestation_target_info().mrenclave.0);
    let report_bytes = state
        .worker_platform
        .ecall_nohost(worker, FN_ATTEST_BEGIN, &begin_input)?;
    let report = Report::from_bytes(&report_bytes)?;
    let evidence = state.worker_platform.evidence(&report)?;
    let mut finish_input = request.nonce.to_vec();
    finish_input.extend_from_slice(&evidence.to_bytes());
    let response_wire =
        state
            .worker_platform
            .ecall_nohost(worker, FN_ATTEST_FINISH, &finish_input)?;
    let mut verify_input = wid.to_vec();
    verify_input.extend_from_slice(&response_wire);
    // A verify failure surfaces here as KeystoreError::Attestation via
    // the From<SgxError> lifting — never swallowed.
    state
        .coordinator_platform
        .ecall_nohost(state.coordinator, FN_FINISH_ATTEST, &verify_input)?;
    ledger.record(AttestKind::KeystoreWorker, COORDINATOR_TAG, idx as u64);
    Ok((request_wire.len(), response_wire.len()))
}

/// Mints the next epoch for worker `idx` (provision or revoke-rotation),
/// stages the channel-sealed record through the worker and activates the
/// resulting sealed blob. Returns the wire sizes of the sealed release
/// and the persisted blob.
fn provision_fleet_member(
    state: &mut Deployed,
    idx: usize,
    revoke: bool,
) -> Result<(usize, usize)> {
    let worker = worker_at(state, idx)?;
    let wid = (idx as u32).to_le_bytes();
    let fn_id = if revoke { FN_REVOKE } else { FN_PROVISION };
    let release_wire = state
        .coordinator_platform
        .ecall_nohost(state.coordinator, fn_id, &wid)?;
    let blob_wire = state
        .worker_platform
        .ecall_nohost(worker, FN_STAGE, &release_wire)?;
    state
        .worker_platform
        .ecall_nohost(worker, FN_ACTIVATE, &blob_wire)?;
    let slot = state
        .blobs
        .get_mut(idx)
        .ok_or(KeystoreError::Protocol("worker index out of range"))?;
    slot.previous = slot.current.take();
    slot.current = Some(blob_wire.clone());
    Ok((release_wire.len(), blob_wire.len()))
}

/// Replays the superseded sealed blob at worker `idx` and demands the
/// rollback rejection. A worker that *accepts* stale sealed state is a
/// broken deployment: fail the calibration loudly.
fn probe_rollback(state: &mut Deployed, idx: usize) -> Result<()> {
    let worker = worker_at(state, idx)?;
    let stale = state
        .blobs
        .get(idx)
        .and_then(|slot| slot.previous.clone())
        .ok_or(KeystoreError::Protocol("no superseded blob to probe"))?;
    match state
        .worker_platform
        .ecall_nohost(worker, FN_ACTIVATE, &stale)
    {
        Err(SgxError::EcallRejected(m)) if m == ROLLBACK_REJECTED => Ok(()),
        Ok(_) => Err(KeystoreError::RollbackNotEnforced),
        Err(e) => Err(e.into()),
    }
}

impl EnclaveService for KeystoreService {
    type Error = KeystoreError;

    fn name(&self) -> &'static str {
        "keystore"
    }

    fn describe(&self) -> &'static str {
        "attested coordinator/worker keystore: sealed key churn across an enclave fleet"
    }

    fn deploy(&mut self, env: &mut ServiceEnv) -> Result<()> {
        if self.fleet_size == 0 {
            return Err(KeystoreError::Calibration(
                "keystore fleet needs at least one worker",
            ));
        }
        let mut rng = SecureRng::seed_from_u64(env.seed).fork(b"keystore");
        let epid = EpidGroup::new(9, &mut rng).map_err(KeystoreError::Sgx)?;
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng)
            .map_err(|_| KeystoreError::Protocol("author keygen failed"))?;
        let mut worker_platform = deploy_platform(env.backend, "keystore-fleet", &epid, env.seed)
            .map_err(KeystoreError::Sgx)?;
        let mut workers = Vec::with_capacity(self.fleet_size as usize);
        for _ in 0..self.fleet_size {
            let id = worker_platform
                .create_signed(
                    Box::new(WorkerEnclave::new(AttestConfig::fast())),
                    &author,
                    1,
                )
                .map_err(KeystoreError::Sgx)?;
            workers.push(id);
        }
        let first = workers
            .first()
            .copied()
            .ok_or(KeystoreError::Protocol("empty fleet after deploy"))?;
        let expected = worker_platform
            .measurement_of(first)
            .map_err(KeystoreError::Sgx)?;
        let mut coordinator_platform = deploy_platform(
            env.backend,
            "keystore-coordinator",
            &epid,
            env.seed.wrapping_add(1),
        )
        .map_err(KeystoreError::Sgx)?;
        let coordinator = coordinator_platform
            .create_signed(
                Box::new(CoordinatorEnclave::new(
                    AttestConfig::fast(),
                    expected,
                    epid.public_key(),
                    rng.fork(b"coordinator"),
                )),
                &author,
                1,
            )
            .map_err(KeystoreError::Sgx)?;
        let fleet = workers.len();
        self.deployed = Some(Deployed {
            coordinator_platform,
            coordinator,
            worker_platform,
            workers,
            blobs: (0..fleet).map(|_| BlobSlot::default()).collect(),
            cursor: 0,
            next_job: 0,
        });
        Ok(())
    }

    /// The attestation storm: every fleet member attests to the
    /// coordinator and receives its first sealed key epoch.
    fn provision(&mut self, env: &mut ServiceEnv) -> Result<()> {
        let state = self
            .deployed
            .as_mut()
            .ok_or(KeystoreError::Protocol("keystore service not deployed"))?;
        for idx in 0..state.workers.len() {
            attest_fleet_member(state, idx, &mut env.ledger)?;
            provision_fleet_member(state, idx, false)?;
        }
        Ok(())
    }

    fn set_transition_mode(
        &mut self,
        mode: TransitionMode,
        switchless: SwitchlessConfig,
    ) -> Result<()> {
        let state = self
            .deployed
            .as_mut()
            .ok_or(KeystoreError::Protocol("keystore service not deployed"))?;
        let coordinator = state.coordinator;
        // Configure before switching: entering switchless initialises each
        // worker pool from the configuration in force at that moment.
        state
            .coordinator_platform
            .configure_switchless(coordinator, switchless)
            .map_err(KeystoreError::Sgx)?;
        state
            .coordinator_platform
            .set_transition_mode(coordinator, mode)
            .map_err(KeystoreError::Sgx)?;
        for idx in 0..state.workers.len() {
            let worker = worker_at(state, idx)?;
            state
                .worker_platform
                .configure_switchless(worker, switchless)
                .map_err(KeystoreError::Sgx)?;
            state
                .worker_platform
                .set_transition_mode(worker, mode)
                .map_err(KeystoreError::Sgx)?;
        }
        Ok(())
    }

    fn server_counts(&self) -> Result<OpCounts> {
        Ok(self.state()?.worker_platform.total_counts())
    }

    fn client_counts(&self) -> Result<OpCounts> {
        Ok(self.state()?.coordinator_platform.total_counts())
    }

    fn transition_stats(&self) -> Result<TransitionStats> {
        let state = self.state()?;
        let mut stats = state.worker_platform.total_transition_stats();
        stats.merge(state.coordinator_platform.total_transition_stats());
        Ok(stats)
    }

    fn session_script(&self, env: &ServiceEnv) -> Result<Vec<StepSpec>> {
        if self.jobs_per_session == 0 {
            return Err(KeystoreError::Calibration(
                "a session needs at least 1 job release",
            ));
        }
        let release = match env.mode {
            TransitionMode::Classic => StepSpec::repeat("release", self.jobs_per_session),
            TransitionMode::Switchless => StepSpec::amortised("release", self.jobs_per_session),
        };
        Ok(vec![
            StepSpec::repeat("attest", 1),
            StepSpec::repeat("provision", 1),
            release,
            StepSpec::repeat("revoke", 1),
        ])
    }

    fn run_step(
        &mut self,
        spec: &StepSpec,
        request: StepRequest,
        env: &mut ServiceEnv,
    ) -> Result<StepExecution> {
        let payload_bytes = self.job_payload_bytes;
        let state = self
            .deployed
            .as_mut()
            .ok_or(KeystoreError::Protocol("keystore service not deployed"))?;
        let idx = state.cursor;
        let (request_bytes, response_bytes) = match spec.name {
            // Session churn re-attests the session's worker; the ledger
            // records the repeat as avoided first-contact work.
            "attest" => attest_fleet_member(state, idx, &mut env.ledger)?,
            "provision" => provision_fleet_member(state, idx, false)?,
            "release" => {
                let worker = worker_at(state, idx)?;
                let wid = (idx as u32).to_le_bytes();
                let payload = vec![0x6bu8; payload_bytes];
                let mut sign_input = wid.to_vec();
                sign_input.extend_from_slice(&payload);
                match request {
                    StepRequest::Once => {
                        state.next_job += 1;
                        let job_wire = state.coordinator_platform.ecall_nohost(
                            state.coordinator,
                            FN_SIGN_JOB,
                            &sign_input,
                        )?;
                        let receipt = state
                            .worker_platform
                            .ecall_nohost(worker, FN_JOB, &job_wire)?;
                        (job_wire.len(), receipt.len())
                    }
                    StepRequest::Batch(k) => {
                        state.next_job += u64::from(k);
                        let sign_calls: Vec<(u64, Vec<u8>)> =
                            (0..k).map(|_| (FN_SIGN_JOB, sign_input.clone())).collect();
                        let job_wires = state
                            .coordinator_platform
                            .ecall_batch_nohost(state.coordinator, &sign_calls)?;
                        let release_calls: Vec<(u64, Vec<u8>)> =
                            job_wires.iter().map(|j| (FN_JOB, j.clone())).collect();
                        let receipts = state
                            .worker_platform
                            .ecall_batch_nohost(worker, &release_calls)?;
                        let job_len = job_wires.first().map(Vec::len).unwrap_or(0);
                        let receipt_len = receipts.first().map(Vec::len).unwrap_or(0);
                        (job_len, receipt_len)
                    }
                }
            }
            "revoke" => {
                let sizes = provision_fleet_member(state, idx, true)?;
                probe_rollback(state, idx)?;
                state.cursor = (state.cursor + 1) % state.workers.len().max(1);
                sizes
            }
            _ => return Err(KeystoreError::Protocol("unknown keystore step")),
        };
        // Both sides run on metered platforms; nothing is spent outside
        // the meters.
        Ok(StepExecution {
            request_bytes,
            response_bytes,
            ..StepExecution::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teenet_app::{AppHarness, Calibration};
    use teenet_sgx::TeeBackend;

    fn calibrate(seed: u64, fleet: u32, jobs: u32, mode: TransitionMode) -> Result<Calibration> {
        AppHarness::new(seed, mode, TeeBackend::Sgx, SwitchlessConfig::default())
            .calibrate(&mut KeystoreService::new(fleet, jobs))
    }

    #[test]
    fn keystore_profile_shape() {
        let profile = calibrate(7, 4, 4, TransitionMode::Classic).unwrap();
        // attest + provision + 4×release + revoke.
        assert_eq!(profile.ops.len(), 7);
        assert_eq!(profile.ops[0].name, "attest");
        assert_eq!(profile.ops[1].name, "provision");
        assert!(profile.ops[2..6].iter().all(|s| s.name == "release"));
        assert_eq!(profile.ops[6].name, "revoke");
        // Setup bootstraps the whole fleet: it dwarfs one session step.
        assert!(profile.setup.normal_instr > profile.ops[1].server.normal_instr);
        // The attest step is the expensive one (quote verify on the
        // coordinator side, quote sign on the worker platform).
        assert!(profile.ops[0].client.normal_instr > profile.ops[2].client.normal_instr);
    }

    #[test]
    fn fleet_setup_scales_with_size() {
        let small = calibrate(7, 2, 1, TransitionMode::Classic).unwrap();
        let large = calibrate(7, 6, 1, TransitionMode::Classic).unwrap();
        assert!(
            large.setup.normal_instr > small.setup.normal_instr,
            "a bigger fleet must cost more to bootstrap"
        );
    }

    #[test]
    fn attestation_storm_is_ledgered() {
        let mut svc = KeystoreService::new(5, 1);
        let mut env = ServiceEnv::new(
            3,
            TransitionMode::Classic,
            TeeBackend::Sgx,
            SwitchlessConfig::default(),
        );
        svc.deploy(&mut env).unwrap();
        svc.provision(&mut env).unwrap();
        assert_eq!(env.ledger.count(AttestKind::KeystoreWorker), 5);
    }

    #[test]
    fn empty_fleet_is_a_domain_error() {
        let err = calibrate(3, 0, 1, TransitionMode::Classic).unwrap_err();
        assert_eq!(
            err,
            KeystoreError::Calibration("keystore fleet needs at least one worker")
        );
    }

    #[test]
    fn zero_jobs_is_a_domain_error() {
        let err = calibrate(3, 2, 0, TransitionMode::Classic).unwrap_err();
        assert_eq!(
            err,
            KeystoreError::Calibration("a session needs at least 1 job release")
        );
    }

    #[test]
    fn switchless_elides_fleet_transitions() {
        let classic = calibrate(9, 3, 4, TransitionMode::Classic).unwrap();
        let sw = calibrate(9, 3, 4, TransitionMode::Switchless).unwrap();
        assert_eq!(classic.session_transitions().elided, 0);
        assert!(sw.session_transitions().elided > 0);
        let sgx =
            |p: &Calibration| p.session_server_cost().sgx_instr + p.session_client_cost().sgx_instr;
        assert!(sgx(&sw) < sgx(&classic));
    }
}
