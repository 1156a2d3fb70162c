//! `loadgen` — scenario-driven load generation against the paper's
//! applications on virtual time.
//!
//! ```text
//! cargo run -p teenet-bench --bin loadgen -- --scenario attest --sessions 10000 --seed 1
//! ```
//!
//! Calibrates the chosen workload against the real enclaves (a handful of
//! real protocol sessions), then replays it at scale on the deterministic
//! network simulator: open-loop Poisson arrivals or closed-loop fixed
//! concurrency, with optional link fault injection. Same scenario + seed
//! ⇒ byte-identical `--json` output.
//!
//! The engine generates sessions lazily and retires them as they finish,
//! memory O(live sessions), so `--sessions 1000000` runs in a few
//! megabytes of RSS. `--rss` prints the process's peak RSS to stderr after
//! the run.
//!
//! `--shards N` switches to the sharded replay model (`teenet-load`'s
//! [`shard`](teenet_load::shard) module): sessions replay independently
//! across N OS threads, and the report is byte-identical for every N.
//! Reports never carry wall time; `benchmark/run.sh` measures it.

use std::process::ExitCode;

use teenet_load::scenarios::{by_name_switchless, NAMES, REGISTRY};
use teenet_load::{LoadConfig, LoadMode, LoadRunner};
use teenet_netsim::fault::FaultConfig;
use teenet_netsim::SimDuration;
use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode};

const USAGE: &str = "\
loadgen — stress the paper's applications with synthetic load on virtual time

USAGE:
    loadgen --scenario <attest|tls|tor|bgp|keystore> [OPTIONS]

OPTIONS:
    --scenario <name>      workload to drive (required unless --list)
    --sessions <n>         sessions to run            [default: 1000]
    --seed <n>             seed for all randomness    [default: 1]
    --mode <open|closed>   arrival discipline         [default: open]
    --rate <r>             open-loop arrivals/sec     [default: auto ~50% capacity]
    --concurrency <n>      closed-loop in-flight      [default: 32]
    --workers <n>          server service workers     [default: 4]
    --clients <n>          distinct client nodes      [default: 8]
    --latency-us <n>       one-way link latency, µs   [default: 500]
    --drop <p>             per-packet drop chance     [default: 0]
    --corrupt <p>          per-packet corrupt chance  [default: 0]
    --duplicate <p>        per-packet dup chance      [default: 0]
    --switchless           calibrate with switchless/batched enclave
                           transitions (default: classic EENTER/EEXIT)
    --switchless-workers <n>  host workers servicing the switchless ring
                           (default: 1 — the single-worker ring; extra
                           workers drain the ring mid-ecall but burn
                           spin cycles while idle)
    --spin-budget <k>      idle-spin units each awake worker burns per
                           ecall, charged as normal instructions
                           (default: 0 — spinning is free, as in the
                           single-worker model)
    --backend <sgx|vmtee>  TEE backend to deploy the workload on
                           (default: sgx; vmtee prices a TDX/SEV-SNP-style
                           cost model — no per-call EENTER/EEXIT, VM-exit
                           charges on I/O crossings, PSP attestation)
    --shards <n>           replay with the sharded model across n OS
                           threads (report byte-identical for every n;
                           default: the serial engine)
    --rss                  print `peak_rss_bytes=<n>` (VmHWM) to stderr
                           after the run
    --json                 emit the byte-stable JSON report instead of text
    --list                 list scenarios and exit
    --help                 show this help
";

struct Args {
    scenario: Option<String>,
    sessions: u64,
    seed: u64,
    mode: String,
    rate: Option<f64>,
    concurrency: u32,
    workers: u32,
    clients: u32,
    latency_us: u64,
    drop: f64,
    corrupt: f64,
    duplicate: f64,
    switchless: bool,
    switchless_workers: usize,
    spin_budget: u32,
    backend: TeeBackend,
    shards: Option<u32>,
    rss: bool,
    json: bool,
    list: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scenario: None,
            sessions: 1000,
            seed: 1,
            mode: "open".into(),
            rate: None,
            concurrency: 32,
            workers: 4,
            clients: 8,
            latency_us: 500,
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            switchless: false,
            switchless_workers: 1,
            spin_budget: 0,
            backend: TeeBackend::Sgx,
            shards: None,
            rss: false,
            json: false,
            list: false,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--scenario" => args.scenario = Some(value("--scenario")?.clone()),
            "--sessions" => args.sessions = parse(value("--sessions")?, "--sessions")?,
            "--seed" => args.seed = parse(value("--seed")?, "--seed")?,
            "--mode" => args.mode = value("--mode")?.clone(),
            "--rate" => args.rate = Some(rate(value("--rate")?)?),
            "--concurrency" => args.concurrency = parse(value("--concurrency")?, "--concurrency")?,
            "--workers" => args.workers = parse(value("--workers")?, "--workers")?,
            "--clients" => args.clients = parse(value("--clients")?, "--clients")?,
            "--latency-us" => args.latency_us = parse(value("--latency-us")?, "--latency-us")?,
            "--drop" => args.drop = chance(value("--drop")?, "--drop")?,
            "--corrupt" => args.corrupt = chance(value("--corrupt")?, "--corrupt")?,
            "--duplicate" => args.duplicate = chance(value("--duplicate")?, "--duplicate")?,
            "--switchless" => args.switchless = true,
            "--switchless-workers" => {
                args.switchless_workers =
                    parse(value("--switchless-workers")?, "--switchless-workers")?
            }
            "--spin-budget" => args.spin_budget = parse(value("--spin-budget")?, "--spin-budget")?,
            "--backend" => {
                let raw = value("--backend")?;
                args.backend = TeeBackend::parse(raw)
                    .ok_or_else(|| format!("bad value for --backend: {raw} (sgx or vmtee)"))?;
            }
            "--shards" => args.shards = Some(parse(value("--shards")?, "--shards")?),
            "--rss" => args.rss = true,
            "--json" => args.json = true,
            "--list" => args.list = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value for {flag}: {s}"))
}

/// An open-loop arrival rate: finite and above zero, or every report
/// field derived from it (inter-arrival gaps, `rate_per_sec`) is garbage.
fn rate(s: &str) -> Result<f64, String> {
    let r: f64 = parse(s, "--rate")?;
    if r.is_finite() && r > 0.0 {
        Ok(r)
    } else {
        Err(format!("--rate must be a finite number above 0, not {s}"))
    }
}

/// A per-packet fault probability in [0, 1]; NaN is rejected.
fn chance(s: &str, flag: &str) -> Result<f64, String> {
    let p: f64 = parse(s, flag)?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("{flag} must be a probability in [0, 1], not {s}"))
    }
}

/// The process's peak resident set (VmHWM) in bytes, from
/// `/proc/self/status`. `None` where procfs is unavailable.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

fn report_rss() {
    match peak_rss_bytes() {
        Some(b) => eprintln!("peak_rss_bytes={b}"),
        None => eprintln!("peak_rss_bytes=unavailable"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if args.list {
        for entry in &REGISTRY {
            println!("{:<8} {}", entry.name, entry.describe);
        }
        return ExitCode::SUCCESS;
    }

    let Some(name) = args.scenario.as_deref() else {
        eprintln!("error: --scenario is required (one of {NAMES:?})\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let transition_mode = if args.switchless {
        TransitionMode::Switchless
    } else {
        TransitionMode::Classic
    };
    let switchless_config = SwitchlessConfig {
        workers: args.switchless_workers.max(1),
        spin_budget: args.spin_budget,
        ..SwitchlessConfig::default()
    };
    let Some(mut scenario) = by_name_switchless(
        name,
        args.seed,
        transition_mode,
        args.backend,
        switchless_config,
    ) else {
        eprintln!("error: unknown scenario {name:?} (one of {NAMES:?})");
        return ExitCode::FAILURE;
    };

    let mode = match args.mode.as_str() {
        "open" => LoadMode::Open {
            rate_per_sec: args.rate,
        },
        "closed" => LoadMode::Closed {
            concurrency: args.concurrency,
        },
        other => {
            eprintln!("error: --mode must be open or closed, not {other:?}");
            return ExitCode::FAILURE;
        }
    };

    let mut config = LoadConfig::new(args.sessions, args.seed, mode);
    config.workers = args.workers;
    config.clients = args.clients.max(1);
    config.latency = SimDuration::from_micros(args.latency_us);
    config.faults = FaultConfig {
        drop_chance: args.drop,
        corrupt_chance: args.corrupt,
        duplicate_chance: args.duplicate,
        ..FaultConfig::default()
    };

    if !args.json {
        eprintln!(
            "calibrating {name} against real enclaves ({} transitions, {} backend)...",
            transition_mode.as_str(),
            args.backend.as_str(),
        );
    }
    let calibration = scenario.calibrate();
    let runner = LoadRunner::new(config);

    let report = match args.shards {
        Some(n) => runner.run_sharded(scenario.name(), &calibration, n.max(1)),
        None => runner.run(scenario.name(), &calibration),
    };
    if args.json {
        println!("{}", report.json());
    } else {
        print!("{}", report.text());
    }
    if args.rss {
        report_rss();
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(flags: &[&str]) -> Result<Args, String> {
        parse_args(&flags.iter().map(|f| f.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn rate_must_be_finite_and_positive() {
        for bad in ["nan", "NaN", "inf", "-inf", "0", "-5"] {
            let err = args(&["--rate", bad]).err();
            assert!(err.is_some_and(|e| e.contains("--rate")), "--rate {bad}");
        }
        assert_eq!(args(&["--rate", "250.5"]).unwrap().rate, Some(250.5));
    }

    #[test]
    fn fault_chances_must_lie_in_the_unit_interval() {
        for flag in ["--drop", "--corrupt", "--duplicate"] {
            for bad in ["nan", "inf", "-0.1", "1.5"] {
                let err = args(&[flag, bad]).err();
                assert!(err.is_some_and(|e| e.contains(flag)), "{flag} {bad}");
            }
        }
        let ok = args(&["--drop", "0", "--corrupt", "0.02", "--duplicate", "1"]).unwrap();
        assert_eq!((ok.drop, ok.corrupt, ok.duplicate), (0.0, 0.02, 1.0));
    }
}
