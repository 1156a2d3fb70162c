//! Sharded deterministic replay: the parallel counterpart of the serial
//! [`crate::LoadRunner::run`] engine.
//!
//! The serial engine is one coupled discrete-event simulation — every
//! session shares the server's worker pool, the links and the fault RNG,
//! so its state cannot be split across threads without changing the
//! answer. The sharded model trades that coupling for per-session
//! independence: each session is replayed as a *pure function* of the run
//! seed and its session index, on its own private two-node network with
//! its own derived RNG and its own virtual clock starting at zero. Global
//! time is then reconstructed analytically:
//!
//! * **Partitioning** — session indices `0..sessions` are split into
//!   contiguous, balanced blocks, one per shard ([`ShardPlan::range`]).
//!   Which shard replays a session never changes what the session does.
//! * **Seed derivation** — session `i` replays under
//!   `fnv1a(seed.to_le_bytes() ‖ i.to_le_bytes())`
//!   ([`ShardPlan::session_seed`]), so per-session randomness (link
//!   faults) is identical no matter which thread runs it.
//! * **Scheduling** — open loop draws the global Poisson arrival times
//!   exactly as the serial engine does (each shard re-derives the stream
//!   and skips it to its own range with
//!   [`ArrivalProcess::skip`](crate::ArrivalProcess::skip)) and places
//!   session `i`'s completion at `arrival_i + duration_i`; closed loop
//!   assigns session `i` to lane `i mod concurrency` and runs each lane
//!   back-to-back. Both reduce *as the shard streams through its range*:
//!   open loop keeps only the latest completion seen, closed loop keeps
//!   per-lane partial busy-time sums — no shard (and no merge step) ever
//!   materialises a per-session array, so sharded replay is
//!   constant-memory in the session count just like the streaming serial
//!   engine.
//! * **Merging** — per-shard [`RunMetrics`] are merged in fixed shard
//!   order, per-lane busy times are summed, and completion maxima are
//!   maxed. Because every merge is associative and commutative and
//!   contiguous blocks cover `0..sessions` in index order, the merged
//!   result — and therefore the rendered report — is byte-identical for
//!   *any* shard count.
//!
//! The sharded model is a different (documented) replay model from the
//! serial engine: sessions never contend for the server's worker pool or
//! a shared link, so under faults or saturation its numbers differ from
//! [`crate::LoadRunner::run`]. What it guarantees is determinism in the
//! seed and independence from the thread count.

use std::ops::Range;
use std::thread;

use teenet_sgx::cost::CostModel;

use crate::metrics::RunMetrics;
use crate::report::RunReport;
use crate::runner::{
    arrival_process, fnv1a, report_from_metrics, Engine, LoadConfig, LoadMode, LoadRunner,
};
use crate::scenario::Calibration;

/// The deterministic partition of a run's sessions across shards.
///
/// Contiguous balanced blocks: with `sessions = q·shards + r`, the first
/// `r` shards get `q + 1` sessions and the rest get `q`, in index order.
/// The plan is a pure function of `(sessions, shards)` so every thread
/// count agrees on which sessions exist and what seeds they use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Total sessions in the run.
    pub sessions: u64,
    /// Number of shards (≥ 1).
    pub shards: u32,
}

impl ShardPlan {
    /// A plan splitting `sessions` across `shards` threads (clamped ≥ 1).
    pub fn new(sessions: u64, shards: u32) -> Self {
        ShardPlan {
            sessions,
            shards: shards.max(1),
        }
    }

    /// The contiguous session-index range shard `shard` replays.
    pub fn range(&self, shard: u32) -> Range<u64> {
        debug_assert!(shard < self.shards);
        let n = self.shards as u64;
        let q = self.sessions / n;
        let r = self.sessions % n;
        let s = shard as u64;
        let start = s * q + s.min(r);
        let len = q + u64::from(s < r);
        start..start + len
    }

    /// The derived seed session `index` replays under: FNV-1a over the
    /// run seed and the index, so shards need no shared RNG state.
    pub fn session_seed(seed: u64, index: u64) -> u64 {
        let mut buf = [0u8; 16];
        buf[0..8].copy_from_slice(&seed.to_le_bytes());
        buf[8..16].copy_from_slice(&index.to_le_bytes());
        fnv1a(&buf)
    }
}

/// What one shard hands back: its merged metrics (the session-local
/// `last_done_ns` in it is meaningless and overwritten by the scheduler)
/// plus the constant-size scheduling aggregates its range reduced to —
/// per-lane busy-time partial sums (closed loop) or the latest completion
/// time (open loop). Never a per-session array.
struct ShardResult {
    metrics: RunMetrics,
    /// Closed loop: this shard's busy-time contribution per lane
    /// (`len == concurrency`); empty for open loop.
    lane_busy: Vec<u64>,
    /// Open loop: `max(arrival_i + duration_i)` over this shard's range;
    /// 0 for closed loop.
    last_completion: u64,
}

/// `cfg` narrowed to the shape one session replays under: one session on
/// one closed lane, one worker, one client (links, faults, clock and
/// retry policy as configured; the seed is substituted per session).
fn session_config(cfg: &LoadConfig) -> LoadConfig {
    LoadConfig {
        sessions: 1,
        mode: LoadMode::Closed { concurrency: 1 },
        workers: 1,
        clients: 1,
        ..cfg.clone()
    }
}

/// Replays every session in `range`, each on a private single-worker,
/// single-client engine whose virtual clock starts at zero, reducing
/// scheduling state on the fly.
fn run_shard(
    cfg: &LoadConfig,
    cal: &Calibration,
    model: &CostModel,
    range: Range<u64>,
) -> ShardResult {
    let (mut lane_busy, mut arrivals) = match cfg.mode {
        LoadMode::Closed { concurrency } => (vec![0u64; concurrency.max(1) as usize], None),
        LoadMode::Open { .. } => {
            // Re-derive the global Poisson schedule (the serial engine's
            // own arrival process) and position it at this shard's first
            // index.
            let mut a = arrival_process(cfg, cal, model, cfg.seed);
            a.skip(range.start);
            (Vec::new(), Some(a))
        }
    };
    let mut last_completion = 0u64;
    // One engine per shard, rewound per session: the private two-node
    // network, the session ring (and its scratch buffer), the event heap
    // and the metrics every session of the range accumulates into are
    // allocated once for the whole range. Only the derived seed changes,
    // so `reset_for_session` takes it as a parameter.
    let session_cfg = session_config(cfg);
    let mut engine = Engine::new(&session_cfg, cal, model);
    for index in range {
        engine.reset_for_session(ShardPlan::session_seed(cfg.seed, index));
        engine.prime();
        engine.drain();
        // One session from t=0: its local last-done time IS its duration
        // (completion or abandonment).
        let duration = engine.finish_session();
        match arrivals.as_mut() {
            Some(a) => {
                let (idx, at) = a.next_arrival().expect("stream covers the shard's range");
                debug_assert_eq!(idx, index);
                last_completion = last_completion.max(at.as_nanos() + duration);
            }
            None => {
                let lanes = lane_busy.len() as u64;
                lane_busy[(index % lanes) as usize] += duration;
            }
        }
    }
    ShardResult {
        metrics: engine.into_metrics(),
        lane_busy,
        last_completion,
    }
}

/// Merges per-shard results (in fixed shard order) into the run's global
/// metrics, reconstructing the global end time from the shards'
/// scheduling aggregates: open loop ends at the latest completion across
/// shards; closed loop sums each lane's busy time across shards (lanes
/// run back-to-back) and ends at the fullest lane.
fn merge_shards(cfg: &LoadConfig, results: &[ShardResult]) -> RunMetrics {
    let mut metrics = RunMetrics::new();
    let mut lane_busy = match cfg.mode {
        LoadMode::Closed { concurrency } => vec![0u64; concurrency.max(1) as usize],
        LoadMode::Open { .. } => Vec::new(),
    };
    let mut last_completion = 0u64;
    for r in results {
        metrics.merge(&r.metrics);
        for (lane, busy) in r.lane_busy.iter().enumerate() {
            lane_busy[lane] += busy;
        }
        last_completion = last_completion.max(r.last_completion);
    }
    metrics.last_done_ns = match cfg.mode {
        LoadMode::Open { .. } => last_completion,
        LoadMode::Closed { .. } => lane_busy.into_iter().max().unwrap_or(0),
    };
    metrics
}

impl LoadRunner {
    /// Drives `calibration`'s script through the sharded replay model on
    /// `n_threads` OS threads and returns the full report.
    ///
    /// The report is byte-identical for every `n_threads` ≥ 1: sessions
    /// are pure functions of `(seed, index)`, shards cover contiguous
    /// index blocks, and the associative/commutative metric merges are
    /// applied in fixed shard order. Memory is O(shards · live state per
    /// shard) — no per-session array exists anywhere in the path.
    pub fn run_sharded(
        &self,
        scenario: &str,
        calibration: &Calibration,
        n_threads: u32,
    ) -> RunReport {
        assert!(
            !calibration.ops.is_empty(),
            "calibration must contain at least one op"
        );
        let cfg = self.config();
        let model = &calibration.cost_model();
        let plan = ShardPlan::new(cfg.sessions, n_threads);

        let results: Vec<ShardResult> = thread::scope(|scope| {
            let handles: Vec<_> = (0..plan.shards)
                .map(|shard| {
                    let range = plan.range(shard);
                    scope.spawn(move || run_shard(cfg, calibration, model, range))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect()
        });

        // Fixed shard-order merge over contiguous blocks ≡ one serial
        // index-order merge, for any shard count.
        let metrics = merge_shards(cfg, &results);
        report_from_metrics(scenario, cfg, calibration, model, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::OpProfile;
    use proptest::prelude::*;
    use teenet_netsim::FaultConfig;
    use teenet_sgx::cost::Counters;
    use teenet_sgx::TransitionStats;

    fn c(sgx: u64, normal: u64) -> Counters {
        Counters {
            sgx_instr: sgx,
            normal_instr: normal,
        }
    }

    fn toy_calibration() -> Calibration {
        Calibration {
            setup: c(10, 1_000_000),
            ops: vec![
                OpProfile {
                    name: "hello",
                    client: c(0, 50_000),
                    server: c(4, 500_000),
                    request_bytes: 128,
                    response_bytes: 64,
                    transitions: TransitionStats {
                        taken: 2,
                        elided: 0,
                        fallbacks: 0,
                        idle_spins: 0,
                    },
                },
                OpProfile {
                    name: "work",
                    client: c(0, 10_000),
                    server: c(8, 2_000_000),
                    request_bytes: 256,
                    response_bytes: 1024,
                    transitions: TransitionStats {
                        taken: 4,
                        elided: 0,
                        fallbacks: 0,
                        idle_spins: 0,
                    },
                },
            ],
            mode: Default::default(),
            backend: teenet_sgx::TeeBackend::Sgx,
            switchless: Default::default(),
        }
    }

    #[test]
    fn plan_partitions_contiguously_and_balanced() {
        let plan = ShardPlan::new(10, 4);
        let ranges: Vec<_> = (0..4).map(|s| plan.range(s)).collect();
        assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
        // Cover 0..sessions exactly, in order, for assorted shapes.
        for (sessions, shards) in [(0u64, 3u32), (1, 4), (7, 1), (100, 7), (5, 5), (3, 8)] {
            let plan = ShardPlan::new(sessions, shards);
            let mut next = 0u64;
            for s in 0..plan.shards {
                let r = plan.range(s);
                assert_eq!(r.start, next, "{sessions}s/{shards}sh shard {s}");
                next = r.end;
            }
            assert_eq!(next, sessions);
        }
    }

    #[test]
    fn session_seeds_differ_per_index_and_run_seed() {
        let a = ShardPlan::session_seed(42, 0);
        let b = ShardPlan::session_seed(42, 1);
        let c = ShardPlan::session_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, ShardPlan::session_seed(42, 0), "pure function");
    }

    #[test]
    fn shard_counts_agree_byte_for_byte() {
        let cal = toy_calibration();
        for mode in [
            LoadMode::Open { rate_per_sec: None },
            LoadMode::Closed { concurrency: 16 },
        ] {
            let mut cfg = LoadConfig::new(120, 7, mode);
            cfg.faults = FaultConfig {
                drop_chance: 0.05,
                corrupt_chance: 0.03,
                ..Default::default()
            };
            let runner = LoadRunner::new(cfg);
            let one = runner.run_sharded("toy", &cal, 1);
            let two = runner.run_sharded("toy", &cal, 2);
            let four = runner.run_sharded("toy", &cal, 4);
            let nine = runner.run_sharded("toy", &cal, 9);
            assert_eq!(one.json(), two.json());
            assert_eq!(one.json(), four.json());
            assert_eq!(one.json(), nine.json());
            assert_eq!(one.text(), four.text());
        }
    }

    /// The pre-pooling model of one session: an engine built for session
    /// `index` alone, driven once. Returns its duration and its metrics.
    fn fresh_session(
        cfg: &LoadConfig,
        cal: &Calibration,
        model: &CostModel,
        index: u64,
    ) -> (u64, RunMetrics) {
        let mut session_cfg = session_config(cfg);
        session_cfg.seed = ShardPlan::session_seed(cfg.seed, index);
        let mut engine = Engine::new(&session_cfg, cal, model);
        engine.prime();
        engine.drain();
        let duration = engine.finish_session();
        (duration, engine.into_metrics())
    }

    /// `range` replayed on fresh engines, reduced the way `run_shard`
    /// reduces it.
    fn fresh_shard(
        cfg: &LoadConfig,
        cal: &Calibration,
        model: &CostModel,
        range: Range<u64>,
    ) -> ShardResult {
        let mut fresh = ShardResult {
            metrics: RunMetrics::new(),
            lane_busy: match cfg.mode {
                LoadMode::Closed { concurrency } => vec![0; concurrency as usize],
                LoadMode::Open { .. } => Vec::new(),
            },
            last_completion: 0,
        };
        let mut arrivals = matches!(cfg.mode, LoadMode::Open { .. }).then(|| {
            let mut a = arrival_process(cfg, cal, model, cfg.seed);
            a.skip(range.start);
            a
        });
        for index in range {
            let (duration, m) = fresh_session(cfg, cal, model, index);
            match arrivals.as_mut() {
                Some(a) => {
                    let at = a.next_arrival().unwrap().1.as_nanos();
                    fresh.last_completion = fresh.last_completion.max(at + duration);
                }
                None => {
                    let lanes = fresh.lane_busy.len() as u64;
                    fresh.lane_busy[(index % lanes) as usize] += duration;
                }
            }
            fresh.metrics.merge(&m);
        }
        fresh
    }

    fn faulty(mut cfg: LoadConfig) -> LoadConfig {
        cfg.faults = FaultConfig {
            drop_chance: 0.2,
            corrupt_chance: 0.1,
            duplicate_chance: 0.1,
            ..Default::default()
        };
        cfg
    }

    /// The pooled per-shard engine (one engine rewound per session, one
    /// set of metrics accumulated in place) must be byte-identical to the
    /// pre-pooling model (a fresh engine built per session, per-session
    /// metrics merged) — pooling is an optimisation, not a different
    /// replay. Closed and open loop, under a drop + corrupt + duplicate
    /// mix, over a mid-run range.
    #[test]
    fn pooled_reset_matches_fresh_engines() {
        let cal = toy_calibration();
        let model = CostModel::paper();
        for mode in [
            LoadMode::Closed { concurrency: 2 },
            LoadMode::Open { rate_per_sec: None },
        ] {
            let cfg = faulty(LoadConfig::new(30, 17, mode));
            let pooled = run_shard(&cfg, &cal, &model, 7..30);
            let fresh = fresh_shard(&cfg, &cal, &model, 7..30);
            assert_eq!(pooled.lane_busy, fresh.lane_busy);
            assert_eq!(pooled.last_completion, fresh.last_completion);
            assert!(pooled.metrics.retries > 0, "faults actually fired");

            let a = report_from_metrics("toy", &cfg, &cal, &model, merge_shards(&cfg, &[pooled]));
            let b = report_from_metrics("toy", &cfg, &cal, &model, merge_shards(&cfg, &[fresh]));
            assert_eq!(a.json(), b.json());
            assert_eq!(a.text(), b.text());
        }
    }

    /// `finish_session` hands out each session's own duration — what a
    /// fresh engine's `last_done_ns` was — and leaves nothing of it behind
    /// in the accumulating metrics: session by session over a faulty
    /// 50-session range, and summed per lane against `run_shard`.
    #[test]
    fn finish_session_durations_match_fresh_engines_per_lane() {
        let cal = toy_calibration();
        let model = CostModel::paper();
        let lanes = 4u64;
        let cfg = faulty(LoadConfig::new(
            50,
            23,
            LoadMode::Closed {
                concurrency: lanes as u32,
            },
        ));
        let session_cfg = session_config(&cfg);
        let mut engine = Engine::new(&session_cfg, &cal, &model);
        let mut lane_busy = vec![0u64; lanes as usize];
        let mut distinct = std::collections::BTreeSet::new();
        for index in 0..50u64 {
            engine.reset_for_session(ShardPlan::session_seed(cfg.seed, index));
            engine.prime();
            engine.drain();
            let duration = engine.finish_session();
            assert_eq!(duration, fresh_session(&cfg, &cal, &model, index).0);
            lane_busy[(index % lanes) as usize] += duration;
            distinct.insert(duration);
        }
        assert!(distinct.len() > 1, "faults must vary the durations");
        let metrics = engine.into_metrics();
        assert_eq!(metrics.last_done_ns, 0, "handed out, not accumulated");
        assert_eq!(metrics.completed + metrics.failed, 50);
        assert_eq!(lane_busy, run_shard(&cfg, &cal, &model, 0..50).lane_busy);
    }

    #[test]
    fn sharded_run_completes_all_sessions() {
        let cfg = LoadConfig::new(80, 3, LoadMode::Closed { concurrency: 8 });
        let report = LoadRunner::new(cfg).run_sharded("toy", &toy_calibration(), 4);
        assert_eq!(report.completed, 80);
        assert_eq!(report.failed, 0);
        assert_eq!(report.latency.count(), 80);
        assert!(report.duration_ns > 0);
        // Per-session cost rollups match the serial engine's semantics:
        // both ops fold once per session.
        let server = report
            .phases
            .iter()
            .find(|p| p.name == "steady.server")
            .unwrap();
        assert_eq!(server.ops, 160);
        assert_eq!(server.counters.sgx_instr, 80 * 12);
        assert_eq!(report.transitions.taken, 80 * 6);
    }

    #[test]
    fn seed_still_drives_the_sharded_run() {
        let cal = toy_calibration();
        let json = |seed| {
            let mut cfg = LoadConfig::new(50, seed, LoadMode::Open { rate_per_sec: None });
            cfg.faults = FaultConfig {
                drop_chance: 0.05,
                ..Default::default()
            };
            LoadRunner::new(cfg).run_sharded("toy", &cal, 2).json()
        };
        assert_ne!(json(1), json(2));
        assert_eq!(json(5), json(5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Any 2-way split of the session range merges to the exact
        /// serial (single-shard, in-process) accumulation: replaying
        /// `0..k` and `k..n` separately and merging the streamed
        /// scheduling aggregates equals replaying `0..n` in one pass.
        /// This is the partition-independence the threaded path inherits.
        #[test]
        fn any_two_way_split_matches_serial_fold(split in 0u64..41, closed in any::<bool>()) {
            let cal = toy_calibration();
            let n = 40u64;
            let mode = if closed {
                LoadMode::Closed { concurrency: 4 }
            } else {
                LoadMode::Open { rate_per_sec: None }
            };
            let mut cfg = LoadConfig::new(n, 13, mode);
            cfg.faults = FaultConfig {
                drop_chance: 0.04,
                ..Default::default()
            };
            let model = CostModel::paper();

            let serial = run_shard(&cfg, &cal, &model, 0..n);
            let left = run_shard(&cfg, &cal, &model, 0..split);
            let right = run_shard(&cfg, &cal, &model, split..n);

            let merged = merge_shards(&cfg, &[left, right]);
            let serial_metrics = merge_shards(&cfg, &[serial]);
            prop_assert_eq!(merged.last_done_ns, serial_metrics.last_done_ns);

            let a = report_from_metrics("toy", &cfg, &cal, &model, merged);
            let b = report_from_metrics("toy", &cfg, &cal, &model, serial_metrics);
            prop_assert_eq!(a.json(), b.json());
        }
    }
}
