//! Workspace-level contract of the streaming engine: generating sessions
//! lazily, recycling their slots, and scheduling open-loop arrivals one
//! at a time must be *invisible* — for every paper scenario, in both
//! transition modes and both arrival disciplines, the streaming engine's
//! report is byte-identical to the retained reference engine's
//! (calibration against real enclaves included), sharded replay stays
//! shard-count independent on top of it, and the resource diagnostics
//! prove the memory actually is O(live sessions).

use teenet_load::scenarios::{by_name_mode, NAMES};
use teenet_load::{LoadConfig, LoadMode, LoadRunner};
use teenet_netsim::fault::FaultConfig;
use teenet_sgx::TransitionMode;

const SEED: u64 = 23;
const SESSIONS: u64 = 150;

fn config(mode: LoadMode) -> LoadConfig {
    let mut cfg = LoadConfig::new(SESSIONS, SEED, mode);
    // Faults force retransmissions, stale timeouts and duplicate
    // deliveries — the paths where retirement could diverge from the
    // reference engine's done/failed-flag bookkeeping.
    cfg.faults = FaultConfig {
        drop_chance: 0.04,
        corrupt_chance: 0.03,
        duplicate_chance: 0.02,
        ..FaultConfig::default()
    };
    cfg
}

#[test]
fn every_scenario_streams_byte_identically_to_the_reference() {
    for name in NAMES {
        for tmode in [TransitionMode::Classic, TransitionMode::Switchless] {
            let mut scenario = by_name_mode(name, SEED, tmode).expect("known scenario");
            let calibration = scenario.calibrate();
            for lmode in [
                LoadMode::Open { rate_per_sec: None },
                LoadMode::Closed { concurrency: 8 },
            ] {
                let runner = LoadRunner::new(config(lmode));
                let streaming = runner.run(scenario.name(), &calibration);
                let reference = runner
                    .run_reference(scenario.name(), &calibration)
                    .expect("session count fits the reference engine");
                let label = format!("{name}/{}/{:?}", tmode.as_str(), lmode);
                assert_eq!(
                    streaming.json(),
                    reference.json(),
                    "{label}: JSON must be byte-identical"
                );
                assert_eq!(
                    streaming.text(),
                    reference.text(),
                    "{label}: text must be byte-identical"
                );
                assert_eq!(
                    streaming.completed + streaming.failed,
                    SESSIONS,
                    "{label}: every session must resolve"
                );
            }
        }
    }
}

#[test]
fn sharded_replay_stays_shard_count_independent_over_streaming_shards() {
    // Shards now run the streaming engine internally and reduce their
    // scheduling state on the fly; the shard-count byte-identity contract
    // must survive that.
    for name in ["tls", "keystore"] {
        let mut scenario = by_name_mode(name, SEED, TransitionMode::Classic).unwrap();
        let calibration = scenario.calibrate();
        for lmode in [
            LoadMode::Open { rate_per_sec: None },
            LoadMode::Closed { concurrency: 8 },
        ] {
            let runner = LoadRunner::new(config(lmode));
            let one = runner.run_sharded(scenario.name(), &calibration, 1);
            let four = runner.run_sharded(scenario.name(), &calibration, 4);
            assert_eq!(one.json(), four.json(), "{name}/{lmode:?}: 1 vs 4 shards");
            assert_eq!(one.text(), four.text(), "{name}/{lmode:?}: text rendering");
        }
    }
}

#[test]
fn retirement_bounds_live_slots_by_concurrency() {
    // Closed loop with a clean network: exactly `concurrency` sessions
    // are in flight at any instant and they finish in id order, so the
    // ring never grows past it — each retired session's slot is taken by
    // its replacement.
    let mut scenario = by_name_mode("tls", SEED, TransitionMode::Classic).unwrap();
    let calibration = scenario.calibrate();
    let concurrency = 16u32;
    let cfg = LoadConfig::new(2_000, SEED, LoadMode::Closed { concurrency });
    let (report, stats) = LoadRunner::new(cfg).run_with_stats(scenario.name(), &calibration);
    assert_eq!(report.completed, 2_000);
    assert_eq!(
        stats.peak_live_sessions,
        u64::from(concurrency),
        "live slots must equal the closed-loop concurrency"
    );
    assert_eq!(
        stats.slots_allocated,
        u64::from(concurrency),
        "only the initial batch ever allocates a slot"
    );

    // Under faults, abandoned sessions retire too; retransmits keep
    // sessions live longer but never add slots beyond the in-flight set.
    let mut cfg = LoadConfig::new(2_000, SEED, LoadMode::Closed { concurrency });
    cfg.faults = FaultConfig {
        drop_chance: 0.05,
        ..FaultConfig::default()
    };
    let (report, stats) = LoadRunner::new(cfg).run_with_stats(scenario.name(), &calibration);
    assert_eq!(report.completed + report.failed, 2_000);
    assert_eq!(
        stats.peak_live_sessions,
        u64::from(concurrency),
        "faulty runs still cap live sessions at concurrency"
    );
}

#[test]
fn open_loop_heap_is_o_live_not_o_sessions() {
    let mut scenario = by_name_mode("attest", SEED, TransitionMode::Classic).unwrap();
    let calibration = scenario.calibrate();
    let n = 3_000u64;
    let mut cfg = LoadConfig::new(n, SEED, LoadMode::Open { rate_per_sec: None });
    // Retransmissions keep old ids live while new ones arrive, widening
    // the span the session ring has to cover.
    cfg.faults = FaultConfig {
        drop_chance: 0.05,
        duplicate_chance: 0.05,
        ..FaultConfig::default()
    };
    let runner = LoadRunner::new(cfg);
    let (report, streaming) = runner.run_with_stats(scenario.name(), &calibration);
    let (_, reference) = runner
        .run_reference_with_stats(scenario.name(), &calibration)
        .unwrap();
    assert_eq!(report.completed, n);
    assert!(
        reference.peak_heap_events >= n,
        "reference heap-loads all {n} arrivals at t=0 (got {})",
        reference.peak_heap_events
    );
    assert!(
        streaming.peak_heap_events < n / 8,
        "streaming heap must stay O(live): {} events for {n} sessions",
        streaming.peak_heap_events
    );
    assert!(
        streaming.peak_live_sessions < n / 8,
        "open-loop sessions must retire as they complete: {} live peak",
        streaming.peak_live_sessions
    );
    assert!(
        streaming.slots_allocated < n / 8,
        "the session ring must span the live ids, not the run: {} slots",
        streaming.slots_allocated
    );
    assert!(
        report.retries > 0,
        "the fault mix must force retransmissions"
    );
    assert_eq!(
        reference.peak_live_sessions, n,
        "the retained engine keeps every session live to the end"
    );
}
