//! `compare A.json B.json`: per workload and end-to-end metric, how B
//! stands against the baseline A.

use std::fmt::Write as _;

use crate::catalog::{self, Better, Class, Plane};
use crate::json::Json;
use crate::stats::summarize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Whether a host metric's own spread hides a change of `bound`.
fn is_unresolved(samples: &[f64], bound: f64) -> bool {
    summarize(samples).spread() > bound
}

/// Whether `samples` of the end-to-end host metric `def` are too spread
/// out to compare: printed and stored as `unresolved`. Sim/model numbers
/// are exact and layer metrics have no bound.
pub fn unresolved(def: &catalog::MetricDef, samples: &[f64]) -> bool {
    def.plane == Plane::Host && def.class != Class::Layer && is_unresolved(samples, def.bound)
}

/// Sim/model numbers repeat exactly for a seed: any difference is a
/// change, in the direction the metric's `better` says.
fn exact_verdict(better: Better, a: f64, b: f64) -> Verdict {
    if a == b {
        Verdict::Unchanged
    } else if (b > a) == (better == Better::Higher) {
        Verdict::Improved
    } else {
        Verdict::Regressed
    }
}

/// Host numbers: B regressed if its median is worse than A's by more
/// than `bound`; improved if better by more than the spread of A's own
/// runs. Where either side's spread exceeds the bound the pair is
/// unresolved, unless every run of one side beats every run of the other.
fn host_verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    // Orient so that larger is worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worst = |s: &[f64]| s.iter().map(|v| v * sign).fold(f64::NEG_INFINITY, f64::max);
    let best = |s: &[f64]| s.iter().map(|v| v * sign).fold(f64::INFINITY, f64::min);
    let (sa, sb) = (summarize(a), summarize(b));
    let worse_by = (sb.median - sa.median) * sign / sa.median.abs();
    if sa.spread() > bound || sb.spread() > bound {
        return if worst(b) < best(a) {
            Verdict::Improved
        } else if best(b) > worst(a) && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    // One sample (peak RSS) has no spread of its own to beat: the bound
    // stands in for it.
    let noise = if sa.n > 1 { sa.spread() } else { bound };
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > noise {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The comparison as text, and whether anything regressed.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .map(|w| w.as_obj().to_vec())
            .ok_or_else(|| "not a results.json: no \"workloads\"".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut text = String::new();
    let mut regressed = false;
    for key in ["cores", "seed", "quick", "seconds", "rustc", "commit"] {
        let of = |doc: &Json| {
            doc.get("env")
                .and_then(|e| e.get(key))
                .map_or("?".to_string(), Json::compact)
        };
        let _ = writeln!(text, "{key:<8} A {}   B {}", of(a), of(b));
    }
    for (name, run_a) in &wa {
        let Some((_, run_b)) = wb.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(text, "\n{name}: only in A");
            continue;
        };
        let _ = writeln!(text, "\n{name}");
        let digest = |run: &Json| {
            run.get("report_digest")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        if digest(run_a) != digest(run_b) {
            let _ = writeln!(
                text,
                "  report_digest MISMATCH: A {} B {} (the deterministic outputs differ)",
                digest(run_a),
                digest(run_b)
            );
        }
        for def in catalog::METRICS.iter().filter(|m| m.class != Class::Layer) {
            let samples = |run: &Json| {
                run.get("end_to_end")
                    .and_then(|e| e.get(def.name))
                    .and_then(|m| m.get("samples"))
                    .map(Json::as_nums)
                    .filter(|s| !s.is_empty())
            };
            let (Some(sa), Some(sb)) = (samples(run_a), samples(run_b)) else {
                continue;
            };
            let (ma, mb) = (summarize(&sa).median, summarize(&sb).median);
            let verdict = if def.plane.is_exact() {
                exact_verdict(def.better, ma, mb)
            } else {
                host_verdict(def.better, def.bound, &sa, &sb)
            };
            regressed |= verdict == Verdict::Regressed;
            let ratio = if ma == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.4}", mb / ma)
            };
            let _ = writeln!(
                text,
                "  {:<30} {:<5} B/A = {ratio:<6} (base {} {}, {} better, bound {}) {}",
                def.name,
                def.plane.as_str(),
                ma,
                def.unit,
                def.better.as_str(),
                if def.plane.is_exact() {
                    "exact".to_string()
                } else {
                    format!("{}%", def.bound * 100.0)
                },
                verdict.as_str(),
            );
        }
    }
    for (name, _) in &wb {
        if !wa.iter().any(|(n, _)| n == name) {
            let _ = writeln!(text, "\n{name}: only in B");
        }
    }
    Ok((text, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_metrics_flag_any_difference_by_direction() {
        assert_eq!(exact_verdict(Better::Lower, 5.0, 5.0), Verdict::Unchanged);
        assert_eq!(
            exact_verdict(Better::Lower, 5.0, 5.000001),
            Verdict::Regressed
        );
        assert_eq!(exact_verdict(Better::Lower, 5.0, 4.0), Verdict::Improved);
        assert_eq!(exact_verdict(Better::Higher, 5.0, 4.0), Verdict::Regressed);
    }

    #[test]
    fn host_metrics_use_the_bound_and_the_spread() {
        let tight = [1.00, 1.01, 0.99, 1.00, 1.01];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        let faster = [0.80, 0.81, 0.79, 0.80, 0.82];
        let same = [1.02, 1.01, 1.00, 1.03, 1.02];
        let low = Better::Lower;
        assert_eq!(host_verdict(low, 0.10, &tight, &slower), Verdict::Regressed);
        assert_eq!(host_verdict(low, 0.10, &tight, &faster), Verdict::Improved);
        assert_eq!(host_verdict(low, 0.10, &tight, &same), Verdict::Unchanged);
        // A single sample is no evidence of a gain smaller than the bound.
        assert_eq!(
            host_verdict(low, 0.10, &[3.76], &[3.73]),
            Verdict::Unchanged
        );
        assert_eq!(host_verdict(low, 0.10, &[3.76], &[3.0]), Verdict::Improved);
        // Direction flips for a rate.
        assert_eq!(
            host_verdict(Better::Higher, 0.10, &tight, &slower),
            Verdict::Improved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_runs_do_not_overlap() {
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.9];
        let also_noisy = [1.1, 1.4, 0.9, 1.0, 1.2];
        let far_better = [0.5, 0.6, 0.4, 0.55, 0.45];
        let far_worse = [2.0, 2.4, 1.9, 2.2, 2.1];
        let low = Better::Lower;
        assert!(is_unresolved(&noisy, 0.10));
        assert!(!is_unresolved(&[1.0, 1.01, 1.0], 0.10));
        assert_eq!(
            host_verdict(low, 0.10, &noisy, &also_noisy),
            Verdict::Unresolved
        );
        assert_eq!(
            host_verdict(low, 0.10, &noisy, &far_better),
            Verdict::Improved
        );
        assert_eq!(
            host_verdict(low, 0.10, &noisy, &far_worse),
            Verdict::Regressed
        );
    }

    fn results(wall: &[f64], cycles: f64, digest: &str) -> Json {
        let metric = |samples: &[f64]| Json::obj([("samples", Json::nums(samples))]);
        Json::obj([
            ("env", Json::obj([("cores", Json::Num(2.0))])),
            (
                "workloads",
                Json::obj([(
                    "tls_closed_serial",
                    Json::obj([
                        ("report_digest", Json::str(digest)),
                        (
                            "end_to_end",
                            Json::obj([
                                ("rep_wall_s", metric(wall)),
                                ("model_cycles_per_session", metric(&[cycles])),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_reports_ratio_base_verdict_and_digest_mismatch() {
        let a = results(&[1.0, 1.01, 0.99], 754_610.0, "aaaa");
        let same = results(&[1.0, 1.02, 0.99], 754_610.0, "aaaa");
        let (text, regressed) = compare(&a, &same).unwrap();
        assert!(!regressed, "{text}");
        assert!(text.contains("rep_wall_s") && text.contains("unchanged"));
        assert!(text.contains("base 1 s") && text.contains("bound 20%"));
        assert!(!text.contains("MISMATCH"));

        let b = results(&[1.3, 1.31, 1.29], 754_611.0, "bbbb");
        let (text, regressed) = compare(&a, &b).unwrap();
        assert!(regressed);
        assert!(text.contains("MISMATCH: A aaaa B bbbb"));
        assert_eq!(text.matches("regressed").count(), 2, "{text}");
        assert!(text.contains("bound exact"));
        assert!(compare(&Json::Null, &b).is_err());
    }
}
