//! `teenet-benchmark` — the repository's one benchmark (see README.md).
//!
//! ```text
//! teenet-benchmark [--workload W] [--seed N] [--seconds S] [--quick]
//!     every workload (or W), an untraced then a traced run of each in a
//!     child process of its own, the correctness gate, and
//!     benchmark/out/results.json + trace-<workload>.json
//! teenet-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run of one workload in this process; the last line of stdout
//!     is the result as one JSON object
//! teenet-benchmark compare A.json B.json
//! teenet-benchmark manifest          (prints BENCHMARK.json)
//! ```

mod catalog;
mod compare;
mod json;
mod measure;
mod probes;
mod replay;
mod repro;
mod stats;
mod trace;
#[path = "wall_clock.inc"]
mod wall_clock;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use catalog::{Class, Plane};
use json::Json;
use measure::RunConfig;

const USAGE: &str = "\
usage: teenet-benchmark [--workload NAME] [--seed N] [--seconds S] [--quick]
       teenet-benchmark --workload NAME --seed N --seconds S --trace 0|1
       teenet-benchmark compare A.json B.json
       teenet-benchmark manifest";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    quick: bool,
    /// `Some` selects the single-run mode.
    trace: Option<bool>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: catalog::RUN_SECONDS,
        quick: false,
        trace: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |s: &String| {
            s.parse::<u64>()
                .map_err(|_| format!("bad value for {flag}: {s}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if catalog::workload(name).is_none() {
                    let known: Vec<_> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?} (one of {known:?})"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => {
                args.seconds = number(value()?)?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => run_compare(&argv[1..]),
        Some("manifest") => {
            print!("{}", catalog::manifest().pretty());
            Ok(true)
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse_args(&argv).and_then(|args| match (&args.workload, args.trace) {
            (Some(workload), Some(trace)) => {
                let cfg = RunConfig {
                    seed: args.seed,
                    seconds: args.seconds,
                    quick: args.quick,
                    trace,
                };
                run_one(workload, &cfg)
            }
            _ => run_all(&args),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Where results and traces go: `benchmark/out` under the directory the
/// command is run from (the repo root), unless `run.sh` says otherwise.
fn out_dir() -> PathBuf {
    std::env::var_os("TEENET_BENCH_OUT")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

fn write_out(file: &str, doc: &Json) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The line that carries a run's full record to the parent process.
const DETAIL_PREFIX: &str = "detail: ";

/// One run of one workload in this process.
fn run_one(workload: &str, cfg: &RunConfig) -> Result<bool, String> {
    let mut tracer = trace::Tracer::new(workload, cfg.trace);
    let outcome = if workload == "paper_repro" {
        repro::run(cfg, &mut tracer)
    } else {
        replay::run(workload, cfg, &mut tracer)
    };

    println!(
        "# {workload}: seed {}, {} sessions x {} reps, shards {}, cores {}, trace {}",
        cfg.seed,
        outcome.sessions,
        outcome.reps,
        outcome.shards,
        measure::cores(),
        cfg.trace as u8,
    );
    for (name, samples) in outcome.metrics.iter() {
        let def = catalog::metric(name).expect("catalogued");
        let s = stats::summarize(samples);
        let unresolved = compare::unresolved(def, samples);
        let value = outcome.metrics.value(name).expect("has samples");
        let shown = if unresolved {
            "unresolved".to_string()
        } else {
            value.to_string()
        };
        print!(
            "{name:<36} {shown:>20} {:<8} {:<5}",
            def.unit,
            def.plane.as_str()
        );
        if s.n > 1 {
            print!(" n={} median={} q1={} q3={}", s.n, s.median, s.q1, s.q3);
        }
        if unresolved {
            print!(" (best {value}; spread {:.1}% > bound)", s.spread() * 100.0);
        }
        println!();
    }
    for c in &outcome.checks {
        println!("check {:<4} {}", if c.ok { "ok" } else { "FAIL" }, c.what);
    }
    if cfg.trace {
        write_out(&format!("trace-{workload}.json"), &tracer.to_json())?;
    }
    println!(
        "{DETAIL_PREFIX}{}",
        outcome.detail(workload, cfg, measure::cores()).compact()
    );
    println!("{}", outcome.result_line(cfg.trace).compact());
    Ok(outcome.correct())
}

/// Output of a helper command, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Every workload (or the one asked for): an untraced and a traced run of
/// each, in a child process of its own so peak RSS is per run.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in catalog::WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == w.name))
    {
        let mut runs = Vec::new();
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child; its stderr passes through.
            let output = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut detail = None;
            let mut lines: Vec<&str> = stdout.lines().collect();
            lines.pop(); // the one-line result, for harnesses that run single workloads
            for line in lines {
                match line.strip_prefix(DETAIL_PREFIX) {
                    Some(doc) => detail = Some(json::parse(doc)?),
                    None => println!("{line}"),
                }
            }
            all_correct &= output.status.success();
            runs.push(detail.ok_or_else(|| {
                format!(
                    "{} (trace {trace}) ended without a result: {}",
                    w.name, output.status
                )
            })?);
        }
        workloads.push((w.name, merge_runs(&runs[0], &runs[1])));
        println!();
    }
    let results = Json::obj([
        ("schema", Json::Num(1.0)),
        (
            "env",
            Json::obj([
                ("cores", Json::Num(measure::cores() as f64)),
                ("seed", Json::Num(args.seed as f64)),
                ("quick", Json::Bool(args.quick)),
                ("seconds", Json::Num(args.seconds as f64)),
                ("rustc", Json::str(tool_line("rustc", &["--version"]))),
                (
                    "commit",
                    Json::str(tool_line("git", &["rev-parse", "HEAD"])),
                ),
            ]),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    write_out("results.json", &results)?;
    println!(
        "{} -> {}",
        if all_correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        out_dir().join("results.json").display()
    );
    Ok(all_correct)
}

/// One workload's entry in `results.json`: end-to-end numbers from the
/// untraced run, per-layer numbers from the traced one. A host metric
/// whose own spread exceeds its bound is marked `unresolved`.
fn merge_runs(untraced: &Json, traced: &Json) -> Json {
    let metrics_of = |run: &Json, want_layer: bool| {
        let fields = run
            .get("metrics")
            .map(|m| m.as_obj().to_vec())
            .unwrap_or_default();
        Json::obj(fields.into_iter().filter_map(|(name, mut value)| {
            let def = catalog::metric(&name)?;
            if (def.class == Class::Layer) != want_layer {
                return None;
            }
            if !want_layer && def.plane == Plane::Host {
                let samples = value.get("samples").map(Json::as_nums).unwrap_or_default();
                let unresolved = !samples.is_empty() && compare::unresolved(def, &samples);
                if let Json::Obj(fields) = &mut value {
                    fields.push(("bound".into(), Json::Num(def.bound)));
                    fields.push((
                        "status".into(),
                        Json::str(if unresolved { "unresolved" } else { "ok" }),
                    ));
                }
            }
            Some((name, value))
        }))
    };
    let both = |key: &str| {
        let ok = |run: &Json| run.get(key).and_then(Json::as_bool).unwrap_or(false);
        Json::Bool(ok(untraced) && ok(traced))
    };
    let checks: Vec<Json> = [("untraced", untraced), ("traced", traced)]
        .iter()
        .flat_map(|(label, run)| {
            let checks = run
                .get("checks")
                .map(|c| c.as_arr().to_vec())
                .unwrap_or_default();
            checks.into_iter().map(move |check| {
                let mut fields = vec![("run".to_string(), Json::str(*label))];
                fields.extend(check.as_obj().iter().cloned());
                Json::Obj(fields)
            })
        })
        .collect();
    let mut fields: Vec<(String, Json)> = [
        "sessions",
        "reps",
        "shards",
        "cores",
        "seed",
        "report_digest",
    ]
    .iter()
    .filter_map(|k| untraced.get(k).map(|v| (k.to_string(), v.clone())))
    .collect();
    fields.push(("correct".into(), both("correct")));
    fields.push(("checks".into(), Json::Arr(checks)));
    fields.push(("end_to_end".into(), metrics_of(untraced, false)));
    fields.push(("per_layer".into(), metrics_of(traced, true)));
    Json::Obj(fields)
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes two results.json files".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (text, regressed) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{text}");
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_harness_command_line_parses() {
        let a = args(&[
            "--workload",
            "tor_open_faulty",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("tor_open_faulty"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 10, Some(true), false)
        );
        let a = args(&["--quick"]).unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (1, catalog::RUN_SECONDS, None, true)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "1"],
            &["--workload", "paper_repro", "--trace", "2"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// The result line carries exactly the names `BENCHMARK.json` lists
    /// for the run's kind — and `BENCHMARK.json` lists nothing else.
    #[test]
    fn result_lines_carry_exactly_the_manifest_names() {
        let manifest = catalog::manifest();
        let listed = |key: &str| -> Vec<String> {
            manifest
                .get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        let cfg = |trace| RunConfig {
            seed: 1,
            seconds: 1,
            quick: true,
            trace,
        };
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut tracer = trace::Tracer::new("tls_closed_serial", trace);
            let outcome = replay::run("tls_closed_serial", &cfg(trace), &mut tracer);
            let line = outcome.result_line(trace);
            let emitted: Vec<String> = line
                .get("metrics")
                .unwrap()
                .as_obj()
                .iter()
                .map(|(name, _)| name.clone())
                .collect();
            assert_eq!(emitted, listed(key), "trace {trace}");
            let keys: Vec<_> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            // Round-trips through the parser as one line.
            assert_eq!(json::parse(&line.compact()).unwrap(), line);
        }
    }

    #[test]
    fn merged_results_split_end_to_end_from_per_layer_and_mark_noise() {
        let metric = |samples: &[f64]| {
            Json::obj([
                ("value", Json::Num(samples[0])),
                ("samples", Json::nums(samples)),
            ])
        };
        let untraced = Json::obj([
            ("sessions", Json::Num(8000.0)),
            ("report_digest", Json::str("abcd")),
            ("correct", Json::Bool(true)),
            (
                "checks",
                Json::Arr(vec![Json::obj([
                    ("what", Json::str("a")),
                    ("ok", Json::Bool(true)),
                ])]),
            ),
            (
                "metrics",
                Json::obj([
                    ("rep_wall_s", metric(&[1.0, 1.5, 0.7])),
                    ("setup_s", metric(&[0.010, 0.0101, 0.0099])),
                    ("sim_latency_p50_ms", metric(&[4.3])),
                ]),
            ),
        ]);
        let traced = Json::obj([
            ("correct", Json::Bool(true)),
            ("checks", Json::Arr(vec![])),
            (
                "metrics",
                Json::obj([
                    ("rep_wall_s", metric(&[1.1])),
                    ("crypto.sha256_mib_per_s", metric(&[250.0])),
                ]),
            ),
        ]);
        let merged = merge_runs(&untraced, &traced);
        let e2e = merged.get("end_to_end").unwrap();
        assert_eq!(e2e.as_obj().len(), 3);
        let status = |name: &str| e2e.get(name).unwrap().get("status").and_then(Json::as_str);
        assert_eq!(status("rep_wall_s"), Some("unresolved"));
        assert_eq!(status("setup_s"), Some("ok"));
        assert_eq!(
            status("sim_latency_p50_ms"),
            None,
            "exact planes carry no status"
        );
        let layers = merged.get("per_layer").unwrap().as_obj();
        assert_eq!(layers.len(), 1);
        assert_eq!(layers[0].0, "crypto.sha256_mib_per_s");
        assert_eq!(merged.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            merged.get("report_digest").and_then(Json::as_str),
            Some("abcd")
        );
    }
}
