//! Generic invariants every [`teenet_app::EnclaveService`] must satisfy,
//! checked uniformly across *every* workload registered in the
//! `teenet-load` [`REGISTRY`] — the service list is derived, not
//! hard-coded, so a new workload (the keystore fleet, a future sixth) is
//! conformance-checked the moment its registry entry lands.
//!
//! These replace the per-driver copies of the same assertions: a service
//! that registers with `teenet-load` gets every check here for free.

use teenet_load::scenario::Calibration;
use teenet_load::scenarios::REGISTRY;
use teenet_load::{LoadConfig, LoadMode, LoadRunner};
use teenet_sgx::cost::Counters;
use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode};

/// Compile-time regression: the platform layer and the boxed scenario
/// type must stay `Send`, so a load shard can own its own deployment on
/// its own OS thread. The registry builds trait objects, so one bound on
/// the box covers every registered service — current and future.
#[test]
fn platform_and_registry_scenarios_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<teenet_sgx::Platform>();
    assert_send::<Box<dyn teenet_load::Scenario>>();
}

fn calibrate(
    entry: &teenet_load::scenarios::ScenarioEntry,
    seed: u64,
    mode: TransitionMode,
    backend: TeeBackend,
) -> Calibration {
    entry
        .build_switchless(seed, mode, backend, SwitchlessConfig::default())
        .calibrate()
}

/// One session's total SGX instructions, both sides of the wire.
fn session_sgx(cal: &Calibration) -> u64 {
    cal.session_server_cost().sgx_instr + cal.session_client_cost().sgx_instr
}

/// Runs the full conformance suite against every registered workload.
#[test]
fn every_registered_service_conforms() {
    for (i, entry) in REGISTRY.iter().enumerate() {
        // Distinct seeds per entry so no two workloads share an RNG
        // stream by accident.
        let seed = 3 + 2 * i as u64;
        let name = entry.name;

        // A calibrated session must actually do work.
        let classic = calibrate(entry, seed, TransitionMode::Classic, TeeBackend::Sgx);
        assert!(
            !classic.ops.is_empty(),
            "{name}: session script must produce steps"
        );
        assert_eq!(classic.mode, TransitionMode::Classic);

        // Counters additivity: the session rollups must equal the
        // field-wise sum over steps — no step hides cost from the rollup.
        let mut merged = Counters::new();
        merged.merge(classic.session_server_cost());
        merged.merge(classic.session_client_cost());
        let mut sgx_sum = 0;
        let mut normal_sum = 0;
        for op in &classic.ops {
            sgx_sum += op.server.sgx_instr + op.client.sgx_instr;
            normal_sum += op.server.normal_instr + op.client.normal_instr;
        }
        assert_eq!(merged.sgx_instr, sgx_sum, "{name}: sgx additivity");
        assert_eq!(merged.normal_instr, normal_sum, "{name}: normal additivity");

        // Determinism: the same seed must reproduce the identical
        // calibration, setup included.
        let again = calibrate(entry, seed, TransitionMode::Classic, TeeBackend::Sgx);
        assert_eq!(
            classic, again,
            "{name}: same-seed calibrations must be identical"
        );

        // Switchless must strictly lower per-session SGX instructions by
        // eliding transitions; classic must elide none.
        let sw = calibrate(entry, seed, TransitionMode::Switchless, TeeBackend::Sgx);
        assert_eq!(sw.mode, TransitionMode::Switchless);
        assert_eq!(sw.ops.len(), classic.ops.len(), "{name}: step count");
        assert!(
            session_sgx(&sw) < session_sgx(&classic),
            "{name}: switchless must cut per-session SGX instructions \
             ({} vs {})",
            session_sgx(&sw),
            session_sgx(&classic),
        );
        assert!(
            sw.session_transitions().elided > 0,
            "{name}: switchless must elide transitions"
        );
        assert_eq!(
            classic.session_transitions().elided,
            0,
            "{name}: classic mode never rides the ring"
        );
    }
}

/// The backend-independent invariants, re-run with every registered
/// workload deployed on the VM-TEE backend. The switchless-cuts-SGX
/// invariant is deliberately absent here: a VM-TEE charges no per-call
/// EENTER/EEXIT, so eliding transitions is not guaranteed to lower the
/// `sgx_instr` meter — that economy is SGX-specific.
#[test]
fn every_registered_service_conforms_on_vmtee() {
    for (i, entry) in REGISTRY.iter().enumerate() {
        let seed = 3 + 2 * i as u64;
        let name = entry.name;

        let classic = calibrate(entry, seed, TransitionMode::Classic, TeeBackend::VmTee);
        assert!(
            !classic.ops.is_empty(),
            "{name}: vmtee session script must produce steps"
        );
        assert_eq!(classic.backend, TeeBackend::VmTee);

        // Counter additivity holds regardless of how the backend prices
        // those counters into cycles.
        let mut merged = Counters::new();
        merged.merge(classic.session_server_cost());
        merged.merge(classic.session_client_cost());
        let mut sgx_sum = 0;
        let mut normal_sum = 0;
        for op in &classic.ops {
            sgx_sum += op.server.sgx_instr + op.client.sgx_instr;
            normal_sum += op.server.normal_instr + op.client.normal_instr;
        }
        assert_eq!(merged.sgx_instr, sgx_sum, "{name}: vmtee sgx additivity");
        assert_eq!(
            merged.normal_instr, normal_sum,
            "{name}: vmtee normal additivity"
        );

        // Same-seed determinism on the new backend.
        let again = calibrate(entry, seed, TransitionMode::Classic, TeeBackend::VmTee);
        assert_eq!(
            classic, again,
            "{name}: same-seed vmtee calibrations must be identical"
        );

        // Classic elides nothing on any backend.
        assert_eq!(
            classic.session_transitions().elided,
            0,
            "{name}: classic mode never elides, vmtee included"
        );
    }
}

/// Sharded replay is a pure partition of the session space: for both
/// backends, a 1-shard and a 4-shard run of every workload must produce
/// byte-identical reports.
#[test]
fn shard_counts_agree_per_backend() {
    for (i, entry) in REGISTRY.iter().enumerate() {
        let seed = 5 + 2 * i as u64;
        for backend in [TeeBackend::Sgx, TeeBackend::VmTee] {
            let cal = calibrate(entry, seed, TransitionMode::Classic, backend);
            let config = LoadConfig::new(40, seed, LoadMode::Open { rate_per_sec: None });
            let runner = LoadRunner::new(config);
            let one = runner.run_sharded(entry.name, &cal, 1);
            let four = runner.run_sharded(entry.name, &cal, 4);
            assert_eq!(
                one.json(),
                four.json(),
                "{} ({}): 1-shard and 4-shard reports must be byte-identical",
                entry.name,
                backend.as_str(),
            );
        }
    }
}
