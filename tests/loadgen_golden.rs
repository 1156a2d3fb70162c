//! Byte-stability gate for the load subsystem: the JSON report of every
//! scenario, in both transition modes, at a fixed seed must match the
//! committed golden fixture byte for byte.
//!
//! The fixtures pin the *numbers* of the calibrate-then-replay pipeline —
//! calibration counters, wire sizes, latency percentiles, transition
//! stats — so a refactor of the calibration stack (e.g. the move to the
//! `teenet-app` service layer) cannot silently change replayed results.
//! Any deliberate change must regenerate the fixtures in the same commit,
//! with an explanation:
//!
//! ```text
//! UPDATE_LOADGEN_GOLDEN=1 cargo test -p teenet-integration --test loadgen_golden
//! ```

use std::path::{Path, PathBuf};

use teenet_load::scenario::{Calibration, OpProfile};
use teenet_load::scenarios::{by_name_backend, by_name_mode, NAMES};
use teenet_load::{LoadConfig, LoadMode, LoadRunner};
use teenet_netsim::{FaultConfig, SimDuration};
use teenet_sgx::cost::Counters;
use teenet_sgx::{TeeBackend, TransitionMode, TransitionStats};

/// Fixed shape of every golden run: open loop at the auto rate, default
/// links, 60 sessions at seed 11.
const SESSIONS: u64 = 60;
const SEED: u64 = 11;

fn run_json(name: &str, mode: TransitionMode) -> String {
    let mut scenario = by_name_mode(name, SEED, mode).expect("known scenario");
    let calibration = scenario.calibrate();
    let config = LoadConfig::new(SESSIONS, SEED, LoadMode::Open { rate_per_sec: None });
    LoadRunner::new(config)
        .run(scenario.name(), &calibration)
        .json()
}

fn run_json_vmtee(name: &str, mode: TransitionMode) -> String {
    let mut scenario =
        by_name_backend(name, SEED, mode, TeeBackend::VmTee).expect("known scenario");
    let calibration = scenario.calibrate();
    let config = LoadConfig::new(SESSIONS, SEED, LoadMode::Open { rate_per_sec: None });
    LoadRunner::new(config)
        .run(scenario.name(), &calibration)
        .json()
}

/// The one foul-weather golden: tls on a closed loop of 16 over links
/// that drop one datagram in five, with two retransmissions allowed — so
/// retransmission timeouts *fire* (not only expire stale), retries are
/// exhausted and sessions fail, and the order in which timeouts, service
/// completions and replacement arrivals interleave is pinned.
fn run_json_closed_faulty() -> String {
    let mut scenario = by_name_mode("tls", SEED, TransitionMode::Classic).expect("known scenario");
    let calibration = scenario.calibrate();
    let mut config = LoadConfig::new(200, SEED, LoadMode::Closed { concurrency: 16 });
    config.faults = FaultConfig {
        drop_chance: 0.2,
        ..FaultConfig::default()
    };
    config.max_retries = 2;
    LoadRunner::new(config)
        .run(scenario.name(), &calibration)
        .json()
}

/// Many deliveries per instant, across nodes: a synthetic two-op script
/// (the first op free to serve) on a closed loop of 16 over two clients,
/// links of infinite bandwidth and the given latency, one datagram in ten
/// duplicated and one in twenty dropped. At 1 µs — what a duplicate trails
/// its original by — requests, responses and duplicates keep landing on
/// the server and both clients at the same virtual nanosecond, and the
/// report depends on the order the engine handles them in (server first,
/// then clients by node, a node's own in arrival order), which none of the
/// scenario fixtures is sensitive to.
fn run_json_same_instant(latency: SimDuration) -> String {
    let instr = |normal_instr| Counters {
        sgx_instr: 0,
        normal_instr,
    };
    let op = |name, server, request_bytes, response_bytes| OpProfile {
        name,
        client: instr(10_000),
        server: instr(server),
        request_bytes,
        response_bytes,
        transitions: TransitionStats::default(),
    };
    let calibration = Calibration {
        setup: instr(1_000_000),
        ops: vec![op("hello", 0, 128, 64), op("work", 500_000, 256, 1024)],
        mode: Default::default(),
        backend: TeeBackend::Sgx,
        switchless: Default::default(),
    };
    let mut config = LoadConfig::new(300, 3, LoadMode::Closed { concurrency: 16 });
    config.clients = 2;
    config.latency = latency;
    config.bandwidth_bps = None;
    config.faults = FaultConfig {
        drop_chance: 0.05,
        duplicate_chance: 0.1,
        ..FaultConfig::default()
    };
    LoadRunner::new(config).run("toy", &calibration).json()
}

/// The fault-mix matrix: every scenario in both transition modes, open
/// loop at the auto rate and closed loop at concurrency 8, 150 sessions at
/// seed 23 over links that drop, corrupt and duplicate datagrams — so
/// retransmissions, stale timeouts and duplicate deliveries all reach the
/// engine's session table in both arrival disciplines.
const MIX_SEED: u64 = 23;
const MIX_SESSIONS: u64 = 150;
const MIX_LOAD_MODES: [(&str, LoadMode); 2] = [
    ("open", LoadMode::Open { rate_per_sec: None }),
    ("closed", LoadMode::Closed { concurrency: 8 }),
];

fn mix_config(mode: LoadMode) -> LoadConfig {
    let mut config = LoadConfig::new(MIX_SESSIONS, MIX_SEED, mode);
    config.faults = FaultConfig {
        drop_chance: 0.04,
        corrupt_chance: 0.03,
        duplicate_chance: 0.02,
        ..FaultConfig::default()
    };
    config
}

fn mix_fixture_path(name: &str, mode: TransitionMode, load: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/loadgen")
        .join(format!("{name}.{}.{load}-mix.json", mode.as_str()))
}

fn fixture_path(name: &str, mode: TransitionMode) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/loadgen")
        .join(format!("{name}.{}.json", mode.as_str()))
}

/// VM-TEE fixtures sit next to the SGX ones with a `.vmtee` infix; the
/// SGX files keep their pre-multi-backend names so this PR provably does
/// not rewrite them.
fn vmtee_fixture_path(name: &str, mode: TransitionMode) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/loadgen")
        .join(format!("{name}.{}.vmtee.json", mode.as_str()))
}

/// Compares `got` with the fixture at `path` byte for byte, or rewrites
/// the fixture when `UPDATE_LOADGEN_GOLDEN` is set. `what` names the run.
fn assert_golden(got: &str, path: &Path, what: &str) {
    if std::env::var_os("UPDATE_LOADGEN_GOLDEN").is_some() {
        std::fs::write(path, got).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        got, want,
        "loadgen output for {what} drifted from the golden fixture; if the change is \
         deliberate, regenerate with UPDATE_LOADGEN_GOLDEN=1 and explain the diff in the commit"
    );
}

fn check(name: &str, mode: TransitionMode) {
    let what = format!("scenario {name} ({})", mode.as_str());
    assert_golden(&run_json(name, mode), &fixture_path(name, mode), &what);
}

fn check_vmtee(name: &str, mode: TransitionMode) {
    let got = run_json_vmtee(name, mode);
    let what = format!("vmtee scenario {name} ({})", mode.as_str());
    assert_golden(&got, &vmtee_fixture_path(name, mode), &what);
    // The VM-TEE profile must actually reprice the run: a fixture equal to
    // the SGX one would mean the backend never reached the cost model.
    assert!(got.contains("\"backend\":\"vmtee\""));
    assert_ne!(got, run_json(name, mode));
}

#[test]
fn attest_matches_golden_classic() {
    check("attest", TransitionMode::Classic);
}

#[test]
fn attest_matches_golden_switchless() {
    check("attest", TransitionMode::Switchless);
}

#[test]
fn tls_matches_golden_classic() {
    check("tls", TransitionMode::Classic);
}

#[test]
fn tls_matches_golden_switchless() {
    check("tls", TransitionMode::Switchless);
}

#[test]
fn tor_matches_golden_classic() {
    check("tor", TransitionMode::Classic);
}

#[test]
fn tor_matches_golden_switchless() {
    check("tor", TransitionMode::Switchless);
}

#[test]
fn bgp_matches_golden_classic() {
    check("bgp", TransitionMode::Classic);
}

#[test]
fn bgp_matches_golden_switchless() {
    check("bgp", TransitionMode::Switchless);
}

#[test]
fn keystore_matches_golden_classic() {
    check("keystore", TransitionMode::Classic);
}

#[test]
fn keystore_matches_golden_switchless() {
    check("keystore", TransitionMode::Switchless);
}

#[test]
fn tls_matches_golden_vmtee_classic() {
    check_vmtee("tls", TransitionMode::Classic);
}

#[test]
fn tls_matches_golden_vmtee_switchless() {
    check_vmtee("tls", TransitionMode::Switchless);
}

#[test]
fn keystore_matches_golden_vmtee_classic() {
    check_vmtee("keystore", TransitionMode::Classic);
}

#[test]
fn keystore_matches_golden_vmtee_switchless() {
    check_vmtee("keystore", TransitionMode::Switchless);
}

#[test]
fn tls_matches_golden_closed_faulty() {
    let got = run_json_closed_faulty();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/loadgen/tls.classic.closed-faulty.json");
    assert_golden(&got, &path, "tls on a faulty closed loop");
    // The run must exercise what it exists to pin: timeouts that fire,
    // and sessions that exhaust their retries.
    assert!(!got.contains("\"retries\":0,") && !got.contains("\"failed\":0,"));
}

#[test]
fn same_instant_deliveries_match_golden() {
    let got = run_json_same_instant(SimDuration::from_micros(1));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/loadgen/toy.closed-same-instant.json");
    assert_golden(&got, &path, "the same-instant delivery order");
    // The run must be what it claims: bursts at the server, faults firing.
    assert!(got.contains("\"max_server_queue\":15") && !got.contains("\"retries\":0,"));
    // The watermark counts what lands together *before any of it is
    // handled*. With no latency at all sixteen sessions still start at
    // t = 0, but each request is handled before the next is sent: only a
    // duplicate meeting its session's next datagrams makes a burst.
    assert!(run_json_same_instant(SimDuration::ZERO).contains("\"max_server_queue\":3,"));
}

#[test]
fn every_fault_mix_cell_matches_golden() {
    for name in NAMES {
        for mode in [TransitionMode::Classic, TransitionMode::Switchless] {
            let mut scenario = by_name_mode(name, MIX_SEED, mode).expect("known scenario");
            let calibration = scenario.calibrate();
            for (load, lmode) in MIX_LOAD_MODES {
                let report = LoadRunner::new(mix_config(lmode)).run(scenario.name(), &calibration);
                let what = format!("scenario {name} ({}) {load} loop, fault mix", mode.as_str());
                assert_eq!(
                    report.completed + report.failed,
                    MIX_SESSIONS,
                    "{what}: every session must resolve"
                );
                // The run must exercise what it exists to pin: every fault
                // kind reaching the engine.
                assert!(
                    report.retries > 0 && report.corrupt_rx > 0 && report.net.duplicated > 0,
                    "{what}: a fault kind never fired"
                );
                assert_golden(&report.json(), &mix_fixture_path(name, mode, load), &what);
            }
        }
    }
}

#[test]
fn every_scenario_has_a_fixture() {
    for name in NAMES {
        for mode in [TransitionMode::Classic, TransitionMode::Switchless] {
            assert!(
                fixture_path(name, mode).exists()
                    || std::env::var_os("UPDATE_LOADGEN_GOLDEN").is_some(),
                "no golden fixture for {name} ({})",
                mode.as_str()
            );
            for (load, _) in MIX_LOAD_MODES {
                assert!(
                    mix_fixture_path(name, mode, load).exists()
                        || std::env::var_os("UPDATE_LOADGEN_GOLDEN").is_some(),
                    "no fault-mix fixture for {name} ({}) {load} loop",
                    mode.as_str()
                );
            }
        }
    }
}
