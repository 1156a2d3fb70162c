//! The three replay workloads: calibrate one service against real
//! enclaves, then replay its per-session script at scale on virtual time
//! and time the replay call from outside.

use teenet_load::scenarios::by_name_switchless;
use teenet_load::{Calibration, EngineStats, LoadConfig, LoadMode, LoadRunner, RunReport};
use teenet_netsim::FaultConfig;
use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode};

use crate::measure::{cores, fnv1a, peak_rss_mib, Metrics, Outcome, RunConfig};
use crate::probes;
use crate::trace::Tracer;

/// One replay workload, fully pinned: nothing here is derived from a
/// calibration, so a change to the cost model cannot silently change the
/// load that is offered.
pub struct ReplaySpec {
    scenario: &'static str,
    backend: TeeBackend,
    mode: TransitionMode,
    switchless: SwitchlessConfig,
    load: LoadMode,
    faults: FaultConfig,
    max_retries: u32,
    /// Sessions per repetition, sized so one repetition takes about a
    /// second on the 2-core reference box: long enough that thread
    /// start-up and timer noise vanish, short enough that a 20 s run
    /// holds ~19 repetitions to take the fastest and the quartiles of.
    sessions: u64,
    /// `run_sharded` on `min(2, cores)` threads instead of the serial
    /// streaming engine.
    sharded: bool,
}

pub fn spec(workload: &str) -> Option<ReplaySpec> {
    let defaults = LoadConfig::new(0, 0, LoadMode::Closed { concurrency: 1 });
    Some(match workload {
        "tls_closed_serial" => ReplaySpec {
            scenario: "tls",
            backend: TeeBackend::Sgx,
            mode: TransitionMode::Classic,
            switchless: SwitchlessConfig::default(),
            load: LoadMode::Closed { concurrency: 16 },
            faults: FaultConfig::default(),
            max_retries: defaults.max_retries,
            sessions: 400_000,
            sharded: false,
        },
        "tor_open_faulty" => ReplaySpec {
            scenario: "tor",
            backend: TeeBackend::Sgx,
            mode: TransitionMode::Switchless,
            switchless: SwitchlessConfig::default(),
            // ≈43 % of the calibrated capacity today; fixed, not `None`
            // (auto), so the offered load does not move with the model.
            load: LoadMode::Open {
                rate_per_sec: Some(10.0),
            },
            faults: probes::faulty_links(),
            // Two retransmissions, not the default eight: some sessions
            // must exhaust them, so failure and retirement are exercised.
            max_retries: 2,
            sessions: 240_000,
            sharded: false,
        },
        "keystore_sharded_vmtee" => ReplaySpec {
            scenario: "keystore",
            backend: TeeBackend::VmTee,
            mode: TransitionMode::Switchless,
            switchless: SwitchlessConfig {
                workers: 2,
                spin_budget: 4,
                ..SwitchlessConfig::default()
            },
            load: LoadMode::Closed { concurrency: 32 },
            faults: FaultConfig::default(),
            max_retries: defaults.max_retries,
            sessions: 320_000,
            sharded: true,
        },
        _ => return None,
    })
}

impl ReplaySpec {
    fn clean(&self) -> bool {
        self.faults.is_clean()
    }

    fn shards(&self) -> u32 {
        if self.sharded {
            cores().min(2) as u32
        } else {
            0
        }
    }

    /// A fresh scenario, built and calibrated: the workload's set-up.
    fn calibrate(&self, tracer: &mut Tracer, seed: u64) -> Calibration {
        let (mut scenario, _) = tracer.span("build", |_| {
            by_name_switchless(
                self.scenario,
                seed,
                self.mode,
                self.backend,
                self.switchless,
            )
            .expect("registered scenario")
        });
        tracer.span("calibrate", |_| scenario.calibrate()).0
    }

    fn runner(&self, sessions: u64, seed: u64) -> LoadRunner {
        let mut cfg = LoadConfig::new(sessions, seed, self.load);
        cfg.faults = self.faults.clone();
        cfg.max_retries = self.max_retries;
        LoadRunner::new(cfg)
    }

    /// The workload's own replay call. The serial engine also hands back
    /// its peak-resource counters; `run_sharded` has none to give.
    fn replay(
        &self,
        cal: &Calibration,
        sessions: u64,
        seed: u64,
    ) -> (RunReport, Option<EngineStats>) {
        let runner = self.runner(sessions, seed);
        match self.shards() {
            0 => {
                let (report, stats) = runner.run_with_stats(self.scenario, cal);
                (report, Some(stats))
            }
            n => (runner.run_sharded(self.scenario, cal, n), None),
        }
    }
}

/// What one repetition leaves behind.
struct Rep {
    report: RunReport,
    stats: Option<EngineStats>,
    json: String,
    wall_s: f64,
}

fn timed_rep(
    tracer: &mut Tracer,
    spec: &ReplaySpec,
    cal: &Calibration,
    sessions: u64,
    seed: u64,
) -> Rep {
    let ((report, stats), wall_s) = tracer.span("replay", |_| spec.replay(cal, sessions, seed));
    let (json, _) = tracer.span("report_json", |_| report.json());
    Rep {
        report,
        stats,
        json,
        wall_s,
    }
}

pub fn run(workload: &str, cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let spec = spec(workload).expect("a replay workload");
    let sessions = cfg.scale(spec.sessions);
    let mut out = Outcome::new(sessions, spec.shards());
    tracer.span("workload", |t| {
        // Warm-up, discarded: first touch of the allocator and caches.
        let cal = spec.calibrate(t, cfg.seed);
        let _ = spec.replay(&cal, (sessions / 10).max(1), cfg.seed);

        let reps = if cfg.trace {
            traced_reps(t, &spec, &cal, cfg, sessions, &mut out)
        } else {
            let mut reps = Vec::new();
            while !cfg.reps_done(reps.len(), reps.iter().map(|r: &Rep| r.wall_s).sum()) {
                // `setup_s`: a fresh build + calibrate before every
                // repetition (as `paper_repro` builds its matrix before
                // every pass of the tables), so the samples spread over
                // the whole run. Taken back to back they last half a
                // second in all on `tls`, and one burst of noise on the
                // shared box doubled every one of them in 3 runs of 10.
                // The calibrations are all equal for a seed.
                let (cal, setup_s) = t.span("setup", |t| spec.calibrate(t, cfg.seed));
                out.metrics.push("setup_s", setup_s);
                reps.push(timed_rep(t, &spec, &cal, sessions, cfg.seed));
            }
            check_shard_identity(&spec, &cal, (sessions / 10).max(1), cfg.seed, &mut out);
            reps
        };
        headline(&reps, &mut out);
        gate(&spec, &reps, &mut out);
    });
    if let Some(mib) = peak_rss_mib() {
        out.metrics.push("peak_rss_mib", mib);
    }
    out
}

/// End-to-end numbers every replay run reports, traced or not.
fn headline(reps: &[Rep], out: &mut Outcome) {
    let report = &reps[0].report;
    let completed = report.completed.max(1) as f64;
    for rep in reps {
        out.metrics.push("rep_wall_s", rep.wall_s);
        out.metrics.push(
            "replay_sessions_per_s",
            rep.report.completed as f64 / rep.wall_s,
        );
    }
    let steady: Vec<_> = report
        .phases
        .iter()
        .filter(|p| p.name.starts_with("steady."))
        .collect();
    let model = report.backend.cost_model();
    let cycles: u64 = steady.iter().map(|p| p.cycles(&model)).sum();
    let sgx: u64 = steady.iter().map(|p| p.counters.sgx_instr).sum();
    let m = &mut out.metrics;
    m.push("model_cycles_per_session", cycles as f64 / completed);
    m.push("model_sgx_instr_per_session", sgx as f64 / completed);
    m.push("sim_throughput_per_s", report.throughput_per_sec);
    let (p50, _, _, p999) = report.latency.percentiles();
    m.push("sim_latency_p50_ms", p50 as f64 / 1e6);
    m.push("sim_latency_p999_ms", p999 as f64 / 1e6);
    m.push(
        "failed_share",
        report.failed as f64 / report.sessions as f64,
    );
    out.report_digest = fnv1a(reps[0].json.as_bytes());
    out.reps = reps.len();
}

/// The correctness gate of a replay run.
fn gate(spec: &ReplaySpec, reps: &[Rep], out: &mut Outcome) {
    let first = &reps[0];
    out.check(
        format!(
            "{} repetitions produce byte-identical report JSON",
            reps.len()
        ),
        reps.iter().all(|r| r.json == first.json),
    );
    let r = &first.report;
    out.check(
        "completed + failed == sessions",
        r.completed + r.failed == r.sessions,
    );
    out.check(
        "every completed session has a latency sample",
        r.latency.count() == r.completed,
    );
    // Cycles are floor(instructions × 9/5) per phase and for the total,
    // so the phases may fall short of the total by one rounding each but
    // never exceed it (tor_open_faulty falls short by 1 on most seeds).
    let model = r.backend.cost_model();
    let phase_cycles: u64 = r.phases.iter().map(|p| p.cycles(&model)).sum();
    out.check(
        "phase cycles sum to total_cycles (to within one rounding per phase)",
        phase_cycles <= r.total_cycles
            && r.total_cycles - phase_cycles < r.phases.len().max(1) as u64,
    );
    if spec.clean() {
        out.check(
            "clean links: no session fails and nothing is retried",
            r.failed == 0 && r.retries == 0,
        );
    } else {
        out.check(
            "faulty links: some sessions exhaust their retries",
            r.failed > 0 && r.retries > 0,
        );
    }
    // An operation is one replayed session. It went wrong if the engine
    // lost track of it, or if it was abandoned on links that inject no
    // faults. A session abandoned after its retries ran out on faulty
    // links is the outcome the fault model prescribes — `failed_share`
    // reports it — not an operation that failed.
    for rep in reps {
        let r = &rep.report;
        out.attempted += r.sessions;
        out.failed += r.sessions.saturating_sub(r.completed + r.failed);
        if spec.clean() {
            out.failed += r.failed;
        }
    }
}

/// 1 shard and N shards must produce the same bytes.
fn check_shard_identity(
    spec: &ReplaySpec,
    cal: &Calibration,
    sessions: u64,
    seed: u64,
    out: &mut Outcome,
) {
    let n = spec.shards();
    if n < 2 {
        return;
    }
    let runner = spec.runner(sessions, seed);
    let one = runner.run_sharded(spec.scenario, cal, 1).json();
    let many = runner.run_sharded(spec.scenario, cal, n).json();
    out.check(shard_identity(n, sessions), one == many);
}

fn shard_identity(shards: u32, sessions: u64) -> String {
    format!("1-shard and {shards}-shard report JSON are byte-identical ({sessions} sessions)")
}

/// The traced run: untraced and traced repetitions in alternation (their
/// ratio is the tracing overhead), the probes, then the per-layer numbers
/// read off the traced repetition's report.
fn traced_reps(
    t: &mut Tracer,
    spec: &ReplaySpec,
    cal: &Calibration,
    cfg: &RunConfig,
    sessions: u64,
    out: &mut Outcome,
) -> Vec<Rep> {
    let (mut untraced, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let measured_s = |reps: &[Rep]| reps.iter().map(|r| r.wall_s).sum::<f64>();
    while !cfg.pairs_done(traced.len(), measured_s(&untraced) + measured_s(&traced)) {
        t.set_enabled(false);
        untraced.push(timed_rep(t, spec, cal, sessions, cfg.seed));
        t.set_enabled(true);
        traced.push(timed_rep(t, spec, cal, sessions, cfg.seed));
    }
    // Fastest against fastest: the minimum is the repetition least
    // disturbed by the machine, and a few spans cost far less than the
    // disturbance does.
    let fastest = |reps: &[Rep]| reps.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
    out.metrics.push(
        "trace_overhead_pct",
        (fastest(&traced) / fastest(&untraced) - 1.0) * 100.0,
    );
    probes::run_all(t, cfg.probe_time(), cfg.seed, &mut out.metrics);

    let wall_s = fastest(&traced);
    let report = &traced[0].report;
    run_counters(report, &mut out.metrics);

    let ops: u64 = report
        .phases
        .iter()
        .filter(|p| p.name == "steady.server")
        .map(|p| p.ops)
        .sum();
    out.metrics
        .push("load.runner_ns_per_op", wall_s * 1e9 / ops.max(1) as f64);

    // Wall of one thread doing all the work: what the per-unit probe
    // costs are shares of.
    let mut one_thread_s = wall_s;
    let stats = match traced[0].stats {
        Some(stats) => stats,
        None => {
            // The sharded call returns no engine counters: take them from
            // the serial streaming engine over the same script, which is
            // also the baseline of the shard tax.
            let runner = spec.runner(sessions, cfg.seed);
            let ((_, stats), mut serial_s) = t.span("serial_engine", |_| {
                runner.run_with_stats(spec.scenario, cal)
            });
            let (one, mut shard1_s) =
                t.span("shard1", |_| runner.run_sharded(spec.scenario, cal, 1));
            let n = spec.shards();
            out.check(shard_identity(n, sessions), one.json() == traced[0].json);
            let mut shardn_s = traced[0].wall_s;
            if !cfg.quick {
                // Once more each and the fastest of two on every side, so
                // none gets more chances of an undisturbed run: one
                // disturbed 1-shard run read as a speed-up of 2.18 on 2
                // cores.
                shardn_s = shardn_s.min(traced[1].wall_s);
                let (_, again_s) = t.span("serial_engine", |_| {
                    runner.run_with_stats(spec.scenario, cal)
                });
                serial_s = serial_s.min(again_s);
                let (_, again_s) = t.span("shard1", |_| runner.run_sharded(spec.scenario, cal, 1));
                shard1_s = shard1_s.min(again_s);
            }
            let speedup = shard1_s / shardn_s;
            let m = &mut out.metrics;
            m.push(
                "load.shard1_ns_per_session",
                shard1_s * 1e9 / sessions as f64,
            );
            m.push("load.shard_tax", shard1_s / serial_s);
            m.push("load.shard_speedup", speedup);
            // Against the threads that can actually run at once, never
            // the raw shard count: `shards()` is already min(2, cores).
            m.push("load.shard_efficiency", speedup / n as f64);
            one_thread_s = shard1_s;
            stats
        }
    };
    engine_counters(&stats, &mut out.metrics);
    attribution(spec, report, one_thread_s, &mut out.metrics);

    untraced.extend(traced);
    untraced
}

/// Per-session counts of the layers below the runner, from one report.
fn run_counters(r: &RunReport, m: &mut Metrics) {
    let sessions = r.sessions as f64;
    let tr = r.transitions;
    m.push(
        "sgx.transitions_taken_per_session",
        tr.taken as f64 / sessions,
    );
    m.push(
        "sgx.transitions_elided_per_session",
        tr.elided as f64 / sessions,
    );
    m.push("sgx.fallbacks_per_session", tr.fallbacks as f64 / sessions);
    m.push(
        "sgx.idle_spins_per_session",
        tr.idle_spins as f64 / sessions,
    );
    if tr.taken + tr.elided > 0 {
        m.push(
            "sgx.elide_ratio",
            tr.elided as f64 / (tr.taken + tr.elided) as f64,
        );
    }
    if tr.elided + tr.fallbacks > 0 {
        m.push(
            "sgx.fallback_ratio",
            tr.fallbacks as f64 / (tr.elided + tr.fallbacks) as f64,
        );
    }
    let sent = r.net.sent.max(1) as f64;
    m.push("netsim.packets_per_session", r.net.sent as f64 / sessions);
    m.push("netsim.dropped_share", r.net.dropped as f64 / sent);
    m.push("netsim.corrupted_share", r.net.corrupted as f64 / sent);
    m.push("netsim.duplicated_share", r.net.duplicated as f64 / sent);
    m.push("netsim.max_server_queue", r.max_server_queue as f64);
    m.push("load.retries_per_session", r.retries as f64 / sessions);
    m.push(
        "load.corrupt_rx_per_session",
        r.corrupt_rx as f64 / sessions,
    );
}

fn engine_counters(stats: &EngineStats, m: &mut Metrics) {
    m.push("load.peak_live_sessions", stats.peak_live_sessions as f64);
    m.push("load.peak_heap_events", stats.peak_heap_events as f64);
    m.push("load.slots_allocated", stats.slots_allocated as f64);
}

/// Outside-in attribution of the replay wall: the run's counts times the
/// probed unit costs, as shares of one thread's wall; what is left is
/// the runner itself (session table, framing, queueing). An estimate —
/// the probes send 64-byte packets on a two-node link — good for seeing
/// which share a change should move, not for adding up to the second.
fn attribution(spec: &ReplaySpec, r: &RunReport, wall_s: f64, m: &mut Metrics) {
    let wall_ns = wall_s * 1e9;
    let packet_ns = m
        .value(if spec.clean() {
            "netsim.ns_per_packet_clean"
        } else {
            "netsim.ns_per_packet_faulty"
        })
        .expect("probes ran first");
    let netsim = r.net.sent as f64 * packet_ns / wall_ns;
    let hist = r.completed as f64 * m.value("load.hist_record_ns").expect("probed") / wall_ns;
    let mut runner = 1.0 - netsim - hist;
    m.push("load.est_share_netsim", netsim);
    m.push("load.est_share_hist", hist);
    if matches!(spec.load, LoadMode::Open { .. }) {
        let arrival =
            r.sessions as f64 * m.value("load.arrival_ns_per_draw").expect("probed") / wall_ns;
        m.push("load.est_share_arrival", arrival);
        runner -= arrival;
    }
    m.push("load.est_share_runner", runner);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::WORKLOADS;

    fn quick(trace: bool) -> RunConfig {
        RunConfig {
            seed: 3,
            seconds: 1,
            quick: true,
            trace,
        }
    }

    #[test]
    fn every_replay_workload_has_a_spec_and_paper_repro_has_none() {
        let with_spec: Vec<_> = WORKLOADS
            .iter()
            .filter(|w| spec(w.name).is_some())
            .map(|w| w.name)
            .collect();
        assert_eq!(
            with_spec,
            [
                "tls_closed_serial",
                "tor_open_faulty",
                "keystore_sharded_vmtee"
            ]
        );
    }

    #[test]
    fn only_the_faulty_workload_has_faults_and_a_short_retry_budget() {
        for w in ["tls_closed_serial", "keystore_sharded_vmtee"] {
            let s = spec(w).unwrap();
            assert!(s.clean() && s.max_retries == 8, "{w}");
        }
        let tor = spec("tor_open_faulty").unwrap();
        assert!(!tor.clean() && tor.max_retries == 2);
        assert!(matches!(tor.load, LoadMode::Open { rate_per_sec: Some(r) } if r == 10.0));
    }

    #[test]
    fn untraced_quick_run_passes_its_gate_and_measures_every_end_to_end_metric() {
        for w in [
            "tls_closed_serial",
            "tor_open_faulty",
            "keystore_sharded_vmtee",
        ] {
            let cfg = quick(false);
            let mut tracer = Tracer::new(w, false);
            let out = run(w, &cfg, &mut tracer);
            for c in &out.checks {
                assert!(c.ok, "{w}: {}", c.what);
            }
            assert!(out.correct() && out.failed == 0, "{w}");
            assert_eq!(out.attempted, out.sessions * out.reps as u64, "{w}");
            // Panics if an end-to-end metric is missing.
            let line = out.result_line(false);
            for (name, v) in line.get("metrics").unwrap().as_obj() {
                let value = v.get("value").unwrap().as_f64().unwrap();
                assert!(value.is_finite() && value > 0.0, "{w}: {name} = {value}");
            }
            assert_eq!(out.report_digest.len(), 16);
        }
    }

    #[test]
    fn same_seed_same_digest_and_another_seed_another_schedule() {
        let run_with = |seed| {
            let cfg = RunConfig {
                seed,
                ..quick(false)
            };
            run("tor_open_faulty", &cfg, &mut Tracer::new("t", false))
        };
        let (a, b, c) = (run_with(5), run_with(5), run_with(6));
        assert_eq!(a.report_digest, b.report_digest);
        assert_ne!(a.report_digest, c.report_digest);
        assert_eq!(
            a.metrics.value("sim_latency_p999_ms"),
            b.metrics.value("sim_latency_p999_ms")
        );
        assert!(a.metrics.value("failed_share").unwrap() > 0.0);
    }

    #[test]
    fn traced_quick_run_emits_the_layer_metrics_and_spans() {
        let w = "keystore_sharded_vmtee";
        let mut tracer = Tracer::new(w, true);
        let out = run(w, &quick(true), &mut tracer);
        assert!(out.correct(), "{:?}", out.checks);
        for name in [
            "trace_overhead_pct",
            "load.runner_ns_per_op",
            "load.shard_tax",
            "load.shard_efficiency",
            "load.est_share_runner",
            "load.peak_live_sessions",
            "sgx.elide_ratio",
            "netsim.packets_per_session",
            "crypto.sha256_mib_per_s",
            "replay_sessions_per_s",
        ] {
            assert!(out.metrics.value(name).is_some(), "{name}");
        }
        // Closed loop draws no arrivals: that share is not reported.
        assert!(out.metrics.value("load.est_share_arrival").is_none());
        let names: Vec<_> = tracer.spans().iter().map(|s| s.name.as_str()).collect();
        for span in [
            "workload",
            "build",
            "calibrate",
            "probes",
            "replay",
            "report_json",
            "shard1",
        ] {
            assert!(names.contains(&span), "{span} in {names:?}");
        }
        // Untraced repetitions leave no span: only the traced `replay`s.
        assert_eq!(
            names.iter().filter(|n| **n == "replay").count() * 2,
            out.reps
        );
    }
}
