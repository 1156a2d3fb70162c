//! Workspace-level determinism contract of the load subsystem: the same
//! scenario and seed must produce byte-identical JSON reports — across
//! calibration (real enclaves, real crypto), virtual-time replay, fault
//! injection, and report formatting.

use teenet_load::scenarios::{by_name_switchless, NAMES};
use teenet_load::{LoadConfig, LoadMode, LoadRunner, Scenario};
use teenet_netsim::fault::FaultConfig;
use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode};

/// The registered scenario `name` at `seed`: classic mode on SGX.
fn scenario(name: &str, seed: u64) -> Box<dyn Scenario> {
    by_name_switchless(
        name,
        seed,
        TransitionMode::Classic,
        TeeBackend::Sgx,
        SwitchlessConfig::default(),
    )
    .expect("known scenario")
}

fn run_json(name: &str, seed: u64, sessions: u64, faults: FaultConfig) -> String {
    let mut scenario = scenario(name, seed);
    let calibration = scenario.calibrate();
    let mut config = LoadConfig::new(sessions, seed, LoadMode::Open { rate_per_sec: None });
    config.faults = faults;
    LoadRunner::new(config)
        .run(scenario.name(), &calibration)
        .json()
}

#[test]
fn every_scenario_is_byte_deterministic() {
    for name in NAMES {
        let a = run_json(name, 11, 60, FaultConfig::default());
        let b = run_json(name, 11, 60, FaultConfig::default());
        assert_eq!(a, b, "scenario {name} not byte-deterministic");
        assert!(a.contains("\"completed\":60"), "{name}: {a}");
    }
}

#[test]
fn determinism_holds_under_fault_injection() {
    let faults = FaultConfig {
        drop_chance: 0.05,
        corrupt_chance: 0.02,
        duplicate_chance: 0.02,
        ..FaultConfig::default()
    };
    let a = run_json("attest", 3, 80, faults.clone());
    let b = run_json("attest", 3, 80, faults);
    assert_eq!(a, b, "faulty-network runs must still be deterministic");
}

#[test]
fn different_seeds_produce_different_runs() {
    let a = run_json("tls", 1, 50, FaultConfig::default());
    let b = run_json("tls", 2, 50, FaultConfig::default());
    assert_ne!(a, b);
}

#[test]
fn closed_loop_bgp_completes_with_loss() {
    let mut scenario = scenario("bgp", 5);
    let calibration = scenario.calibrate();
    let mut config = LoadConfig::new(120, 5, LoadMode::Closed { concurrency: 12 });
    config.faults = FaultConfig {
        drop_chance: 0.03,
        ..FaultConfig::default()
    };
    let report = LoadRunner::new(config).run(scenario.name(), &calibration);
    assert_eq!(report.completed + report.failed, 120);
    assert!(
        report.completed >= 115,
        "retransmission should recover nearly all sessions: {}",
        report.completed
    );
}
