//! Integration: the acceptance gate for the switchless transition layer.
//!
//! Running the same scenario at the same seed in both transition modes,
//! switchless must report strictly fewer SGX instructions (crossings ride
//! the shared call ring instead of paying EENTER/EEXIT) and a p99 no
//! worse than classic — and the byte-stable-JSON contract must hold per
//! mode.

use teenet_load::scenarios::{by_name_switchless, NAMES};
use teenet_load::{LoadConfig, LoadMode, LoadRunner, RunReport};
use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode};

/// Closed-loop run: same arrival schedule in both modes (open-loop auto
/// rate derives from calibrated capacity, which differs per mode and
/// would make the latency comparison unsound).
fn run(name: &str, seed: u64, sessions: u64, mode: TransitionMode) -> RunReport {
    let mut scenario = by_name_switchless(
        name,
        seed,
        mode,
        TeeBackend::Sgx,
        SwitchlessConfig::default(),
    )
    .expect("known scenario");
    let calibration = scenario.calibrate();
    let config = LoadConfig::new(sessions, seed, LoadMode::Closed { concurrency: 8 });
    LoadRunner::new(config).run(scenario.name(), &calibration)
}

#[test]
fn tls_switchless_strictly_cheaper_and_no_worse_p99() {
    let classic = run("tls", 7, 120, TransitionMode::Classic);
    let switchless = run("tls", 7, 120, TransitionMode::Switchless);
    assert_eq!(classic.completed, 120);
    assert_eq!(switchless.completed, 120);

    assert!(
        switchless.total.sgx_instr < classic.total.sgx_instr,
        "switchless must spend strictly fewer SGX instructions: {} vs {}",
        switchless.total.sgx_instr,
        classic.total.sgx_instr
    );
    let p99 = |r: &RunReport| r.latency.percentiles().2;
    assert!(
        p99(&switchless) <= p99(&classic),
        "switchless p99 must be no worse: {} vs {}",
        p99(&switchless),
        p99(&classic)
    );

    // The report attributes the saving to elided crossings, not to the
    // workload shrinking.
    assert_eq!(classic.transitions.elided, 0);
    assert!(switchless.transitions.elided > 0);
    assert_eq!(classic.transition_mode, "classic");
    assert_eq!(switchless.transition_mode, "switchless");
}

#[test]
fn every_scenario_cheaper_under_switchless() {
    for name in NAMES {
        let classic = run(name, 5, 40, TransitionMode::Classic);
        let switchless = run(name, 5, 40, TransitionMode::Switchless);
        assert!(
            switchless.total.sgx_instr < classic.total.sgx_instr,
            "{name}: switchless {} !< classic {}",
            switchless.total.sgx_instr,
            classic.total.sgx_instr
        );
        assert!(
            switchless.transitions.elided > 0,
            "{name}: no crossings rode the ring"
        );
    }
}

#[test]
fn switchless_json_is_byte_stable() {
    let a = run("tls", 11, 60, TransitionMode::Switchless).json();
    let b = run("tls", 11, 60, TransitionMode::Switchless).json();
    assert_eq!(a, b, "switchless runs must stay byte-deterministic");
    assert!(a.contains("\"transition_mode\":\"switchless\""));
    assert!(a.contains("\"transitions\":{"));
}
