//! Rollback-protection contract of the keystore fleet.
//!
//! Property: a worker that has accepted a sealed key slot at epoch `E`
//! rejects *any* sealed blob whose monotonic counter is ≤ `E` with the
//! rollback domain error — for every seed, every provisioning depth and
//! every stale epoch choice. And the rejection is deterministic: the
//! same seed reproduces byte-identical calibrations and loadgen reports
//! (the revoke step runs the rollback probe inside every calibrated
//! session, so determinism here covers the rejection path itself).

use proptest::prelude::*;

use teenet_crypto::schnorr::{SchnorrGroup, SigningKey};
use teenet_crypto::SecureRng;
use teenet_keystore::coordinator::{
    CoordinatorEnclave, FN_FINISH_ATTEST, FN_PROVISION, FN_START_ATTEST,
};
use teenet_keystore::worker::{
    WorkerEnclave, FN_ACTIVATE, FN_ATTEST_BEGIN, FN_ATTEST_FINISH, FN_STAGE, ROLLBACK_REJECTED,
};
use teenet_keystore::KeystoreError;
use teenet_load::scenarios::by_name_switchless;
use teenet_load::{LoadConfig, LoadMode, LoadRunner};
use teenet_sgx::{
    deploy_platform, EnclaveId, EpidGroup, Report, SgxError, SwitchlessConfig, TeeBackend,
    TeePlatform, TransitionMode,
};

use teenet::attest::{AttestConfig, AttestRequest};

/// One coordinator + one worker, attested and channel-established, built
/// from the crate's public enclave programs.
struct Rig {
    coordinator_platform: Box<dyn TeePlatform>,
    coordinator: EnclaveId,
    worker_platform: Box<dyn TeePlatform>,
    worker: EnclaveId,
}

fn rig(seed: u64) -> Rig {
    let mut rng = SecureRng::seed_from_u64(seed).fork(b"rollback-rig");
    let epid = EpidGroup::new(9, &mut rng).expect("epid group");
    let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).expect("author key");
    let mut worker_platform =
        deploy_platform(TeeBackend::Sgx, "rig-fleet", &epid, seed).expect("worker platform");
    let worker = worker_platform
        .create_signed(
            Box::new(WorkerEnclave::new(AttestConfig::fast())),
            &author,
            1,
        )
        .expect("worker enclave");
    let expected = worker_platform.measurement_of(worker).expect("measurement");
    let mut coordinator_platform = deploy_platform(
        TeeBackend::Sgx,
        "rig-coordinator",
        &epid,
        seed.wrapping_add(1),
    )
    .expect("coordinator platform");
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
        .expect("coordinator enclave");
    let mut rig = Rig {
        coordinator_platform,
        coordinator,
        worker_platform,
        worker,
    };
    attest(&mut rig);
    rig
}

/// Ferries the Figure-1 messages between the two platforms.
fn attest(rig: &mut Rig) {
    let wid = 0u32.to_le_bytes();
    let request_wire = rig
        .coordinator_platform
        .ecall_nohost(rig.coordinator, FN_START_ATTEST, &wid)
        .expect("attest start");
    let request = AttestRequest::from_bytes(&request_wire).expect("attest request");
    let mut begin_input = request_wire.clone();
    begin_input.extend_from_slice(&rig.worker_platform.attestation_target_info().mrenclave.0);
    let report_bytes = rig
        .worker_platform
        .ecall_nohost(rig.worker, FN_ATTEST_BEGIN, &begin_input)
        .expect("attest begin");
    let report = Report::from_bytes(&report_bytes).expect("report");
    let evidence = rig.worker_platform.evidence(&report).expect("evidence");
    let mut finish_input = request.nonce.to_vec();
    finish_input.extend_from_slice(&evidence.to_bytes());
    let response_wire = rig
        .worker_platform
        .ecall_nohost(rig.worker, FN_ATTEST_FINISH, &finish_input)
        .expect("attest finish");
    let mut verify_input = wid.to_vec();
    verify_input.extend_from_slice(&response_wire);
    rig.coordinator_platform
        .ecall_nohost(rig.coordinator, FN_FINISH_ATTEST, &verify_input)
        .expect("attest verify");
}

/// Provision once: coordinator mints the next epoch, worker stages and
/// activates it. Returns the sealed blob the host would persist.
fn provision(rig: &mut Rig) -> Vec<u8> {
    let wid = 0u32.to_le_bytes();
    let release_wire = rig
        .coordinator_platform
        .ecall_nohost(rig.coordinator, FN_PROVISION, &wid)
        .expect("provision mint");
    let blob_wire = rig
        .worker_platform
        .ecall_nohost(rig.worker, FN_STAGE, &release_wire)
        .expect("stage");
    rig.worker_platform
        .ecall_nohost(rig.worker, FN_ACTIVATE, &blob_wire)
        .expect("activate");
    blob_wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Replaying any superseded sealed blob — whatever the seed, the
    /// provisioning depth, or which stale epoch the host picks — fails
    /// with the rollback domain error, and the worker keeps its newest
    /// epoch (a fresh provision still advances).
    #[test]
    fn stale_sealed_blobs_are_rejected(
        seed in 0u64..500,
        depth in 2usize..6,
        stale_pick in 0usize..4,
    ) {
        let mut rig = rig(seed);
        let mut blobs = Vec::new();
        for _ in 0..depth {
            blobs.push(provision(&mut rig));
        }
        // Any earlier blob (counter ≤ last accepted) must be rejected —
        // including the *current* one replayed (counter == last).
        let stale = &blobs[stale_pick.min(depth - 1)];
        let err = rig
            .worker_platform
            .ecall_nohost(rig.worker, FN_ACTIVATE, stale)
            .expect_err("stale blob must be rejected");
        prop_assert_eq!(err, SgxError::EcallRejected(ROLLBACK_REJECTED));
        // The emulator error lifts into the keystore domain error.
        prop_assert_eq!(
            KeystoreError::from(SgxError::EcallRejected(ROLLBACK_REJECTED)),
            KeystoreError::Rollback(ROLLBACK_REJECTED)
        );
        // The gate fails closed without corrupting state: the next
        // provision still advances and activates.
        provision(&mut rig);
    }
}

/// The rejection is deterministic under replay: the same seed produces
/// byte-identical loadgen reports — and the calibrated session includes
/// the revoke step's rollback probe, so the rejection path is inside
/// every report. Checked in both transition modes.
#[test]
fn rollback_rejection_is_deterministic_under_replay() {
    for mode in [TransitionMode::Classic, TransitionMode::Switchless] {
        let mut reports = Vec::new();
        for _ in 0..2 {
            let mut scenario = by_name_switchless(
                "keystore",
                23,
                mode,
                TeeBackend::Sgx,
                SwitchlessConfig::default(),
            )
            .expect("keystore registered");
            let calibration = scenario.calibrate();
            let config = LoadConfig::new(40, 23, LoadMode::Closed { concurrency: 8 });
            reports.push(
                LoadRunner::new(config)
                    .run(scenario.name(), &calibration)
                    .json(),
            );
        }
        assert_eq!(
            reports[0],
            reports[1],
            "same seed must reproduce the identical report ({})",
            mode.as_str()
        );
    }
}
