//! Workspace-level contract of the sharded replay model, as metamorphic
//! relations between runs over scenario × backend × transition setting
//! (calibration against real enclaves included):
//!
//! - R1: on clean links at closed-loop concurrency 1 there is no
//!   queueing, so the sharded report is byte-identical to the serial one;
//! - R2: sharding removes only cross-session queueing, so the per-session
//!   work (completions, per-phase counters, transitions, cycles) equals
//!   the serial engine's on clean links at any load — and R5: with no
//!   queue to wait in, no sharded latency percentile exceeds the serial
//!   one;
//! - R3: the sharded report is byte-identical for 1, 2 and 4 OS threads,
//!   faults or not;
//! - R4: a calibration's per-session ops do not depend on its seed.

use teenet_load::scenarios::{by_name_switchless, NAMES};
use teenet_load::{Calibration, LoadConfig, LoadMode, LoadRunner};
use teenet_netsim::fault::FaultConfig;
use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode};

const SEED: u64 = 17;
const SESSIONS: u64 = 200;
const BACKENDS: [TeeBackend; 2] = [TeeBackend::Sgx, TeeBackend::VmTee];

/// The transition settings every relation is checked under: classic
/// EENTER/EEXIT, the one-worker switchless ring, and a four-worker ring
/// whose idle workers burn a spin budget of 2.
const TRANSITIONS: [(TransitionMode, usize, u32); 3] = [
    (TransitionMode::Classic, 1, 0),
    (TransitionMode::Switchless, 1, 0),
    (TransitionMode::Switchless, 4, 2),
];

/// Calibrates `name` for one cell of the matrix; returns the calibration
/// and a label naming the cell.
fn calibrate(
    name: &str,
    seed: u64,
    backend: TeeBackend,
    (mode, workers, spin_budget): (TransitionMode, usize, u32),
) -> (Calibration, String) {
    let switchless = SwitchlessConfig {
        workers,
        spin_budget,
        ..SwitchlessConfig::default()
    };
    let mut scenario =
        by_name_switchless(name, seed, mode, backend, switchless).expect("known scenario");
    let label = format!(
        "{name}/{}/{}x{workers}/spin{spin_budget}/seed{seed}",
        backend.as_str(),
        mode.as_str()
    );
    (scenario.calibrate(), label)
}

/// The fault mix R3 also runs under: faults exercise the per-session
/// derived RNGs, so a partition-dependent seed would show up as diverging
/// retry/drop counts immediately.
fn faulty() -> FaultConfig {
    FaultConfig {
        drop_chance: 0.03,
        corrupt_chance: 0.02,
        ..FaultConfig::default()
    }
}

#[test]
fn every_scenario_is_shard_count_independent() {
    for name in NAMES {
        for backend in BACKENDS {
            for transition in TRANSITIONS {
                let (calibration, cell) = calibrate(name, SEED, backend, transition);
                for faults in [faulty(), FaultConfig::default()] {
                    for lmode in [
                        LoadMode::Open { rate_per_sec: None },
                        LoadMode::Closed { concurrency: 16 },
                    ] {
                        let mut cfg = LoadConfig::new(SESSIONS, SEED, lmode);
                        cfg.faults = faults.clone();
                        let runner = LoadRunner::new(cfg);
                        let one = runner.run_sharded(name, &calibration, 1);
                        let two = runner.run_sharded(name, &calibration, 2);
                        let four = runner.run_sharded(name, &calibration, 4);
                        let label = format!("{cell}/{lmode:?}/drop{}", faults.drop_chance);
                        assert_eq!(one.json(), two.json(), "{label}: 1 vs 2 shards");
                        assert_eq!(one.json(), four.json(), "{label}: 1 vs 4 shards");
                        assert_eq!(one.text(), four.text(), "{label}: text rendering");
                        assert_eq!(
                            one.completed + one.failed,
                            SESSIONS,
                            "{label}: every session must resolve"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn sharded_is_serial_without_queueing() {
    for name in NAMES {
        for backend in BACKENDS {
            for transition in TRANSITIONS {
                for seed in [1, 7] {
                    let (calibration, label) = calibrate(name, seed, backend, transition);
                    let cfg = LoadConfig::new(60, seed, LoadMode::Closed { concurrency: 1 });
                    let runner = LoadRunner::new(cfg);
                    let serial = runner.run(name, &calibration);
                    let sharded = runner.run_sharded(name, &calibration, 2);
                    assert_eq!(serial.json(), sharded.json(), "{label}");
                }
            }
        }
    }
}

#[test]
fn sharded_and_serial_models_share_per_session_costs() {
    // Not compared: `retries` and `net`. The serial engine's derived
    // timeout does not scale with concurrency ÷ workers, so at
    // concurrency 32 it retransmits spuriously on clean links (attest,
    // seed 1, 150 sessions: 134 retries) while every shard runs alone.
    for name in NAMES {
        for backend in BACKENDS {
            for transition in TRANSITIONS {
                let (calibration, cell) = calibrate(name, 1, backend, transition);
                for lmode in [
                    LoadMode::Closed { concurrency: 32 },
                    LoadMode::Open { rate_per_sec: None },
                ] {
                    let runner = LoadRunner::new(LoadConfig::new(150, 1, lmode));
                    let serial = runner.run(name, &calibration);
                    let sharded = runner.run_sharded(name, &calibration, 4);
                    let label = format!("{cell}/{lmode:?}");
                    assert_eq!(serial.completed, sharded.completed, "{label}");
                    assert_eq!(serial.failed, sharded.failed, "{label}");
                    assert_eq!(serial.transitions, sharded.transitions, "{label}");
                    assert_eq!(serial.phases.len(), sharded.phases.len(), "{label}");
                    for (a, b) in serial.phases.iter().zip(sharded.phases.iter()) {
                        assert_eq!(a.name, b.name, "{label}");
                        assert_eq!(a.counters, b.counters, "{label}: phase {}", a.name);
                        assert_eq!(a.ops, b.ops, "{label}: phase {}", a.name);
                    }
                    assert_eq!(serial.total, sharded.total, "{label}");
                    assert_eq!(serial.total_cycles, sharded.total_cycles, "{label}");

                    // R5: sharded latency never exceeds serial latency.
                    let (s, p) = (&serial.latency, &sharded.latency);
                    for q in [0.5, 0.9, 0.99, 0.999] {
                        assert!(p.quantile(q) <= s.quantile(q), "{label}: p{q}");
                    }
                    assert!(p.max() <= s.max(), "{label}: max");
                }
            }
        }
    }
}

/// R4: every op of a calibration (client and server counts, transitions,
/// wire sizes) is the same at seeds 1–8. bgp is left out: its calibration
/// topology is seeded (ROADMAP item 12).
#[test]
fn calibrated_ops_are_seed_independent() {
    for name in NAMES.into_iter().filter(|name| *name != "bgp") {
        for backend in BACKENDS {
            for transition in &TRANSITIONS[..2] {
                let (first, _) = calibrate(name, 1, backend, *transition);
                for seed in 2..=8 {
                    let (calibration, label) = calibrate(name, seed, backend, *transition);
                    assert_eq!(calibration.ops, first.ops, "{label} vs seed 1");
                }
            }
        }
    }
}
