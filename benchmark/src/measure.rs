//! What one run of one workload hands back: named samples, the outcome
//! of every correctness check, and the settings it ran under.

use std::time::Duration;

use crate::catalog::{self, Better, Class};
use crate::json::Json;
use crate::stats::summarize;

/// Settings of one run, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Seconds of timed repetitions. A traced run spends half of them on
    /// its untraced/traced pairs; its probes take the rest.
    pub seconds: u64,
    /// Smoke mode: 1/50 of the sessions, 2 repetitions, 20 ms probes.
    pub quick: bool,
    pub trace: bool,
}

impl RunConfig {
    pub fn probe_time(&self) -> Duration {
        Duration::from_millis(if self.quick { 20 } else { 200 })
    }

    /// `full` sessions, or 1/50 of them in smoke mode.
    pub fn scale(&self, full: u64) -> u64 {
        if self.quick {
            (full / 50).max(1)
        } else {
            full
        }
    }

    /// Whether enough timed repetitions have been made: two in smoke
    /// mode, otherwise at least three and `seconds` of measuring.
    pub fn reps_done(&self, reps: usize, measured_s: f64) -> bool {
        if self.quick {
            reps >= 2
        } else {
            reps >= 3 && measured_s >= self.seconds as f64
        }
    }

    /// The same for the untraced/traced pairs of a traced run, which get
    /// half of `seconds`.
    pub fn pairs_done(&self, pairs: usize, measured_s: f64) -> bool {
        self.reps_done(pairs, 2.0 * measured_s)
    }
}

/// Samples by metric name, in the order first recorded.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, Vec<f64>)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, sample: f64) {
        assert!(
            catalog::metric(name).is_some(),
            "{name} is not in the catalog"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, samples)) => samples.push(sample),
            None => self.0.push((name, vec![sample])),
        }
    }

    pub fn samples(&self, name: &str) -> Option<&[f64]> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.as_slice())
    }

    /// The value reported for a metric: its best sample, in the metric's
    /// own direction. Sim and model metrics have one sample. A host
    /// timing is the wall of a deterministic computation, which other
    /// tenants of the machine can only lengthen, so the fastest
    /// repetition is the least disturbed reading and by far the
    /// steadiest from run to run (spread across ten seeds on the shared
    /// 2-core box: 1-4 % against 6-18 % for the median). The median and
    /// quartiles of all repetitions are kept next to it: they say how
    /// disturbed this run was, and they are what `compare` and
    /// `unresolved` judge.
    pub fn value(&self, name: &str) -> Option<f64> {
        let best = match catalog::metric(name)?.better {
            Better::Lower => f64::min,
            Better::Higher => f64::max,
        };
        self.samples(name)?.iter().copied().reduce(best)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &[f64])> {
        self.0.iter().map(|(n, s)| (*n, s.as_slice()))
    }
}

/// One correctness check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub what: String,
    pub ok: bool,
}

/// Everything one run of one workload produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Vec<Check>,
    /// Operations measured (sessions replayed in timed repetitions, or
    /// cells reproduced) and how many of them came out wrong.
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a of the deterministic outputs; equal for equal seeds.
    pub report_digest: String,
    /// Sessions per repetition, timed repetitions and shards used
    /// (recorded next to the numbers; 0 where not applicable).
    pub sessions: u64,
    pub reps: usize,
    pub shards: u32,
}

impl Outcome {
    /// An empty outcome for a run of `sessions` sessions per repetition
    /// on `shards` shards (0 where not applicable).
    pub fn new(sessions: u64, shards: u32) -> Self {
        Outcome {
            metrics: Metrics::default(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            report_digest: String::new(),
            sessions,
            reps: 0,
            shards,
        }
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push(Check {
            what: what.into(),
            ok,
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The one-line result the run prints last: every metric of the
    /// requested kind by name, in catalog order. A per-layer metric that
    /// has no meaning on this workload reads 0 — the line must carry
    /// every name — while an end-to-end metric must have been measured.
    pub fn result_line(&self, trace: bool) -> Json {
        let wanted = |class: Class| {
            if trace {
                class != Class::EndToEnd
            } else {
                class == Class::EndToEnd
            }
        };
        let metrics = catalog::METRICS
            .iter()
            .filter(|m| wanted(m.class))
            .map(|m| {
                let value = match self.metrics.value(m.name) {
                    Some(v) => v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {} was not measured", m.name),
                };
                (
                    m.name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
                )
            });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The run in full — samples, quartiles, checks, digest — for
    /// `results.json`.
    pub fn detail(&self, workload: &str, cfg: &RunConfig, cores: usize) -> Json {
        let metrics = self.metrics.iter().map(|(name, samples)| {
            let def = catalog::metric(name).expect("pushed names are in the catalog");
            let s = summarize(samples);
            (
                name,
                Json::obj([
                    (
                        "value",
                        Json::Num(self.metrics.value(name).expect("has samples")),
                    ),
                    ("median", Json::Num(s.median)),
                    ("unit", Json::str(def.unit)),
                    ("plane", Json::str(def.plane.as_str())),
                    ("better", Json::str(def.better.as_str())),
                    ("n", Json::Num(s.n as f64)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("samples", Json::nums(samples)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("trace", Json::Bool(cfg.trace)),
            ("seed", Json::Num(cfg.seed as f64)),
            ("quick", Json::Bool(cfg.quick)),
            ("cores", Json::Num(cores as f64)),
            ("shards", Json::Num(self.shards as f64)),
            ("sessions", Json::Num(self.sessions as f64)),
            ("reps", Json::Num(self.reps as f64)),
            ("report_digest", Json::str(&self.report_digest)),
            ("correct", Json::Bool(self.correct())),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj([("what", Json::str(&c.what)), ("ok", Json::Bool(c.ok))])
                        })
                        .collect(),
                ),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// FNV-1a, 64 bit, as 16 hex digits.
pub fn fnv1a(bytes: &[u8]) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Peak resident set of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), "cbf29ce484222325");
        assert_eq!(fnv1a(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn reported_value_is_the_best_sample_in_the_metrics_direction() {
        let mut m = Metrics::default();
        for wall in [3.0, 1.0, 2.0] {
            m.push("rep_wall_s", wall);
            m.push("replay_sessions_per_s", 100.0 / wall);
        }
        m.push("setup_s", 0.5);
        assert_eq!(m.value("rep_wall_s"), Some(1.0));
        assert_eq!(m.value("replay_sessions_per_s"), Some(100.0));
        assert_eq!(m.samples("setup_s"), Some(&[0.5][..]));
        assert_eq!(m.value("peak_rss_mib"), None);
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn unknown_names_are_refused() {
        Metrics::default().push("no.such_metric", 1.0);
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let mut o = Outcome::new(10, 0);
        o.check("holds", true);
        assert!(o.correct());
        o.failed = 1;
        assert!(!o.correct());
        o.failed = 0;
        o.check("broken", false);
        assert!(!o.correct());
    }

    #[test]
    fn peak_rss_is_positive_where_procfs_exists() {
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
        assert!(cores() >= 1);
    }
}
