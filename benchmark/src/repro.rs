//! `paper_repro`: no replay. Real enclaves and real crypto calibrate the
//! 20-cell service matrix (5 services × {classic, switchless} × {sgx,
//! vmtee}) and regenerate Tables 1–4 and Figure 3 through the public
//! calls the `table*`/`fig3` binaries make, scored against the paper's
//! published cells.

use teenet::attest::AttestConfig;
use teenet::ledger::{AttestKind, AttestLedger};
use teenet_bench::{measure_packet_send, AttestBench};
use teenet_crypto::dh::DhGroup;
use teenet_crypto::SecureRng;
use teenet_interdomain::{default_policies, run_native, SdnDeployment, Topology};
use teenet_load::scenarios::REGISTRY;
use teenet_load::Calibration;
use teenet_mbox::{Action, EndpointRole, MiddleboxChain, MiddleboxHost, ProvisionPolicy, Rule};
use teenet_sgx::cost::{CostModel, Counters};
use teenet_sgx::{EpidGroup, SwitchlessConfig, TeeBackend, TransitionMode};
use teenet_tls::handshake::{handshake, TlsConfig};
use teenet_tor::deployment::{Phase, TorDeployment, TorSpec};

use crate::measure::{fnv1a, peak_rss_mib, Metrics, Outcome, RunConfig};
use crate::probes;
use crate::stats::median;
use crate::trace::Tracer;

/// The layer (crate) behind each registered scenario name.
const SERVICE_LAYERS: [(&str, &str); 5] = [
    ("attest", "core"),
    ("tls", "mbox"),
    ("tor", "tor"),
    ("bgp", "interdomain"),
    ("keystore", "keystore"),
];

const MODES: [TransitionMode; 2] = [TransitionMode::Classic, TransitionMode::Switchless];
const BACKENDS: [TeeBackend; 2] = [TeeBackend::Sgx, TeeBackend::VmTee];

/// The topology draw the paper's Table 4 and Figure 3 were matched on.
/// It stays fixed — the published cells are cells of *this* graph —
/// while `--seed` drives every platform, key and deployment seed.
const PAPER_TOPOLOGY_SEED: u64 = 2015;

/// One calibrated cell of the service matrix.
struct Cell {
    service: &'static str,
    mode: TransitionMode,
    backend: TeeBackend,
    calibration: Calibration,
    wall_s: f64,
}

impl Cell {
    /// Modelled client + server cost of one session.
    fn session_cost(&self) -> Counters {
        let mut total = self.calibration.session_server_cost();
        total.merge(self.calibration.session_client_cost());
        total
    }

    fn session_cycles(&self) -> u64 {
        self.session_cost().cycles(&self.calibration.cost_model())
    }
}

/// A fresh build + calibrate of all 20 cells: this workload's set-up.
fn matrix(tracer: &mut Tracer, seed: u64) -> (Vec<Cell>, f64) {
    tracer.span("matrix", |t| {
        let mut cells = Vec::with_capacity(20);
        for entry in &REGISTRY {
            for mode in MODES {
                for backend in BACKENDS {
                    let name = format!(
                        "cell[{},{},{}]",
                        entry.name,
                        mode.as_str(),
                        backend.as_str()
                    );
                    let (calibration, wall_s) = t.span(&name, |_| {
                        entry
                            .build_switchless(seed, mode, backend, SwitchlessConfig::default())
                            .calibrate()
                    });
                    cells.push(Cell {
                        service: entry.name,
                        mode,
                        backend,
                        calibration,
                        wall_s,
                    });
                }
            }
        }
        cells
    })
}

/// One published cell and what this repository computes for it.
struct PaperCell {
    label: &'static str,
    paper: u64,
    ours: u64,
    /// Published precision: 1 for counts, 1 000 for "13K", 1 000 000 for
    /// "154M". Ours is rounded to it before comparing, as the paper's
    /// value already is.
    unit: u64,
    /// Event counts of the protocol (SGX(U) instructions, attestations)
    /// must match exactly; calibrated instruction volumes are scored.
    exact: bool,
}

impl PaperCell {
    fn ours_rounded(&self) -> u64 {
        (self.ours + self.unit / 2) / self.unit
    }

    fn err_pct(&self) -> f64 {
        (self.ours_rounded() as f64 - self.paper as f64).abs() / self.paper as f64 * 100.0
    }
}

/// Everything one pass over Tables 1–4 and Figure 3 computed.
struct Tables {
    cells: Vec<PaperCell>,
    /// Figure 3: (ASes, native cycles, SGX cycles).
    fig3: Vec<(u32, u64, u64)>,
}

impl Tables {
    /// Cycles grow with topology size, and the SGX controller costs more
    /// than the native one at every size.
    fn fig3_shape_holds(&self) -> bool {
        let f = &self.fig3;
        f.windows(2).all(|w| w[1].1 > w[0].1 && w[1].2 > w[0].2) && f.iter().all(|p| p.2 > p.1)
    }
}

const K: u64 = 1_000;
const M: u64 = 1_000_000;

fn count(label: &'static str, paper: u64, ours: u64) -> PaperCell {
    PaperCell {
        label,
        paper,
        ours,
        unit: 1,
        exact: true,
    }
}

fn volume(label: &'static str, paper: u64, unit: u64, ours: u64) -> PaperCell {
    PaperCell {
        label,
        paper,
        ours,
        unit,
        exact: false,
    }
}

fn table1(seed: u64, cells: &mut Vec<PaperCell>) {
    let no_dh = AttestConfig::no_dh(DhGroup::modp1024());
    let with_dh = AttestConfig::default(); // 1024-bit DH, as in the paper
    let (t_no, q_no, c_no) = AttestBench::new(&no_dh, seed).run_once(&no_dh);
    let (t_dh, q_dh, c_dh) = AttestBench::new(&with_dh, seed).run_once(&with_dh);
    cells.extend([
        count("t1.target.sgx.no_dh", 20, t_no.sgx_instr),
        count("t1.target.sgx.dh", 20, t_dh.sgx_instr),
        count("t1.quoting.sgx.no_dh", 17, q_no.sgx_instr),
        count("t1.quoting.sgx.dh", 17, q_dh.sgx_instr),
        count("t1.challenger.sgx.no_dh", 8, c_no.sgx_instr),
        count("t1.challenger.sgx.dh", 8, c_dh.sgx_instr),
        volume("t1.target.normal.no_dh", 154, M, t_no.normal_instr),
        volume("t1.target.normal.dh", 4338, M, t_dh.normal_instr),
        volume("t1.quoting.normal.no_dh", 125, M, q_no.normal_instr),
        volume("t1.quoting.normal.dh", 125, M, q_dh.normal_instr),
        volume("t1.challenger.normal.no_dh", 124, M, c_no.normal_instr),
        volume("t1.challenger.normal.dh", 348, M, c_dh.normal_instr),
    ]);
}

fn table2(seed: u64, cells: &mut Vec<PaperCell>) {
    let one_plain = measure_packet_send(1, false, seed);
    let one_crypto = measure_packet_send(1, true, seed);
    let batch_plain = measure_packet_send(100, false, seed);
    let batch_crypto = measure_packet_send(100, true, seed);
    cells.extend([
        count("t2.1pkt.sgx.plain", 6, one_plain.sgx_instr),
        count("t2.1pkt.sgx.crypto", 6, one_crypto.sgx_instr),
        count("t2.100pkt.sgx.plain", 204, batch_plain.sgx_instr),
        count("t2.100pkt.sgx.crypto", 204, batch_crypto.sgx_instr),
        volume("t2.1pkt.normal.plain", 13, K, one_plain.normal_instr),
        volume("t2.1pkt.normal.crypto", 97, K, one_crypto.normal_instr),
        volume("t2.100pkt.normal.plain", 136, K, batch_plain.normal_instr),
        volume("t2.100pkt.normal.crypto", 972, K, batch_crypto.normal_instr),
    ]);
}

fn paper_topology(n_ases: u32) -> Topology {
    Topology::random(n_ases, &mut SecureRng::seed_from_u64(PAPER_TOPOLOGY_SEED))
}

fn table3(seed: u64, cells: &mut Vec<PaperCell>) {
    // Inter-domain routing: one attestation per AS-local controller.
    let topology = paper_topology(30);
    let policies = default_policies(&topology);
    let mut sdn =
        SdnDeployment::new(&topology, &policies, AttestConfig::fast(), seed).expect("deployment");
    sdn.attest_all().expect("attestation");

    // Tor: authorities attest the SGX-capable exits at admission; the
    // client attests each directory authority.
    let mut tor_spec = TorSpec::fast(Phase::IncrementalOrs, seed);
    tor_spec.n_relays = 20;
    tor_spec.n_exits = 8;
    tor_spec.sgx_relay_count = 8;
    let mut tor = TorDeployment::build(tor_spec).expect("tor");
    tor.run_admission().expect("admission");

    // Middleboxes: one attestation per in-path middlebox.
    let mut rng = SecureRng::seed_from_u64(seed).fork(b"table3-mbox");
    let epid = EpidGroup::new(99, &mut rng).expect("group");
    let mut ledger = AttestLedger::new();
    let hosts: Vec<MiddleboxHost> = (0..3u64)
        .map(|i| {
            MiddleboxHost::deploy(
                &format!("mb{i}"),
                ProvisionPolicy::Unilateral,
                vec![Rule::new(format!("sig-{i}").as_bytes(), Action::Alert)],
                AttestConfig::fast(),
                &epid,
                seed.wrapping_add(50 + i),
                &mut rng,
            )
            .expect("middlebox")
        })
        .collect();
    let mut server_rng = rng.fork(b"server");
    let (client, _server) = handshake(TlsConfig::fast(), &mut rng, &mut server_rng).expect("tls");
    MiddleboxChain::provision(hosts, EndpointRole::Client, &client, &mut rng, &mut ledger)
        .expect("chain");

    cells.extend([
        count("t3.interdomain", 30, sdn.ledger.total()),
        count(
            "t3.tor_authority",
            8,
            tor.ledger.count(AttestKind::TorRouterAdmission),
        ),
        count(
            "t3.tor_client",
            3,
            tor.ledger.count(AttestKind::TorClientCircuit),
        ),
        count(
            "t3.middlebox",
            3,
            ledger.count(AttestKind::MiddleboxProvision),
        ),
    ]);
}

/// Native and in-enclave controller costs on the paper's `n_ases` graph.
fn sdn_costs(
    n_ases: u32,
    seed: u64,
) -> (
    teenet_interdomain::NativeReport,
    teenet_interdomain::SdnReport,
) {
    let topology = paper_topology(n_ases);
    let policies = default_policies(&topology);
    let native = run_native(&topology, &policies);
    let report = SdnDeployment::new(&topology, &policies, AttestConfig::fast(), seed)
        .expect("deployment")
        .run()
        .expect("run");
    (native, report)
}

fn table4(seed: u64, cells: &mut Vec<PaperCell>) {
    let (native, sgx) = sdn_costs(30, seed);
    let (native_local, sgx_local) = (native.aslocal_avg(), sgx.aslocal_avg());
    cells.extend([
        volume("t4.interdomain.sgx", 1448, 1, sgx.interdomain.sgx_instr),
        volume("t4.aslocal.sgx", 42, 1, sgx_local.sgx_instr),
        volume(
            "t4.interdomain.normal.native",
            74,
            M,
            native.interdomain.normal_instr,
        ),
        volume(
            "t4.interdomain.normal.sgx",
            135,
            M,
            sgx.interdomain.normal_instr,
        ),
        volume("t4.aslocal.normal.native", 13, M, native_local.normal_instr),
        volume("t4.aslocal.normal.sgx", 24, M, sgx_local.normal_instr),
    ]);
}

fn fig3(seed: u64) -> Vec<(u32, u64, u64)> {
    let model = CostModel::paper();
    [5u32, 10, 15, 20, 25, 30]
        .into_iter()
        .map(|n| {
            let (native, sgx) = sdn_costs(n, seed);
            (
                n,
                native.interdomain.cycles(&model),
                sgx.interdomain.cycles(&model),
            )
        })
        .collect()
}

/// One pass over Tables 1–4 and Figure 3, each under its own span.
fn tables(tracer: &mut Tracer, seed: u64) -> (Tables, f64) {
    tracer.span("tables", |t| {
        let mut cells = Vec::new();
        t.span("table1", |_| table1(seed, &mut cells));
        t.span("table2", |_| table2(seed, &mut cells));
        t.span("table3", |_| table3(seed, &mut cells));
        t.span("table4", |_| table4(seed, &mut cells));
        let (fig3, _) = t.span("fig3", |_| fig3(seed));
        Tables { cells, fig3 }
    })
}

/// Every deterministic output of one pass as text: what the digest is
/// taken over, and what two passes must agree on byte for byte.
fn canonical(cells: &[Cell], tables: &Tables) -> String {
    let mut text = String::new();
    for c in cells {
        let cost = c.session_cost();
        text.push_str(&format!(
            "{} {} {} ops={} sgx={} normal={} setup={}/{}\n",
            c.service,
            c.mode.as_str(),
            c.backend.as_str(),
            c.calibration.ops.len(),
            cost.sgx_instr,
            cost.normal_instr,
            c.calibration.setup.sgx_instr,
            c.calibration.setup.normal_instr,
        ));
    }
    for c in &tables.cells {
        text.push_str(&format!("{} {}\n", c.label, c.ours));
    }
    for (n, native, sgx) in &tables.fig3 {
        text.push_str(&format!("fig3 {n} {native} {sgx}\n"));
    }
    text
}

/// One pass: the matrix, then the tables.
struct Pass {
    cells: Vec<Cell>,
    tables: Tables,
    matrix_s: f64,
    tables_s: f64,
    canonical: String,
}

fn pass(tracer: &mut Tracer, seed: u64) -> Pass {
    let (cells, matrix_s) = matrix(tracer, seed);
    let (tables, tables_s) = tables(tracer, seed);
    let canonical = canonical(&cells, &tables);
    Pass {
        cells,
        tables,
        matrix_s,
        tables_s,
        canonical,
    }
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new(0, 0);
    tracer.span("workload", |t| {
        let mut passes = Vec::new();
        if cfg.trace {
            // Untraced and traced passes in alternation; fastest against
            // fastest is the tracing overhead.
            let (mut untraced, mut traced) = (f64::INFINITY, f64::INFINITY);
            let measured_s = |passes: &[Pass]| passes.iter().map(|p| p.matrix_s + p.tables_s).sum();
            while !cfg.pairs_done(passes.len() / 2, measured_s(&passes)) {
                t.set_enabled(false);
                let p = pass(t, cfg.seed);
                untraced = untraced.min(p.matrix_s + p.tables_s);
                passes.push(p);
                t.set_enabled(true);
                let p = pass(t, cfg.seed);
                traced = traced.min(p.matrix_s + p.tables_s);
                passes.push(p);
            }
            out.metrics
                .push("trace_overhead_pct", (traced / untraced - 1.0) * 100.0);
            probes::run_all(t, cfg.probe_time(), cfg.seed, &mut out.metrics);
            layer_metrics(t, &passes, &mut out.metrics);
        } else {
            // As on the replay workloads, `--seconds` counts the timed
            // repetitions (the tables) and not the set-up (the matrix)
            // that precedes each: 16 passes in 20 s, where counting both
            // left 9 and a fastest pass that spread 7 % across seeds.
            while !cfg.reps_done(passes.len(), passes.iter().map(|p: &Pass| p.tables_s).sum()) {
                passes.push(pass(t, cfg.seed));
            }
        }
        headline(&passes, &mut out);
        gate(&passes, &mut out);
    });
    if let Some(mib) = peak_rss_mib() {
        out.metrics.push("peak_rss_mib", mib);
    }
    out
}

fn headline(passes: &[Pass], out: &mut Outcome) {
    let first = &passes[0];
    let m = &mut out.metrics;
    for p in passes {
        m.push("setup_s", p.matrix_s);
        m.push("rep_wall_s", p.tables_s);
        m.push("repro_wall_s", p.tables_s);
    }
    let cells = first.cells.len() as f64;
    let cycles: u64 = first.cells.iter().map(Cell::session_cycles).sum();
    let sgx: u64 = first.cells.iter().map(|c| c.session_cost().sgx_instr).sum();
    m.push("model_cycles_per_session", cycles as f64 / cells);
    m.push("model_sgx_instr_per_session", sgx as f64 / cells);
    let max_err = first
        .tables
        .cells
        .iter()
        .filter(|c| !c.exact)
        .map(PaperCell::err_pct)
        .fold(0.0, f64::max);
    m.push("paper_max_err_pct", max_err);
    out.report_digest = fnv1a(first.canonical.as_bytes());
    out.reps = passes.len();
}

/// The correctness gate: one check per published cell, plus the
/// properties of the pass as a whole. An operation here is one published
/// cell reproduced in one pass.
fn gate(passes: &[Pass], out: &mut Outcome) {
    let first = &passes[0];
    out.check(
        format!("{} passes produce identical numbers", passes.len()),
        passes.iter().all(|p| p.canonical == first.canonical),
    );
    out.check(
        "the matrix has 20 cells, each with a non-empty script",
        first.cells.len() == 20 && first.cells.iter().all(|c| !c.calibration.ops.is_empty()),
    );
    out.check(
        "Figure 3: cycles grow with topology size, SGX above native",
        first.tables.fig3_shape_holds(),
    );
    let (mut cells, mut wrong) = (0u64, 0u64);
    for c in &first.tables.cells {
        // Counts of protocol events equal the paper's; calibrated
        // volumes land within 5 % of the published cell.
        let ok = if c.exact {
            c.ours == c.paper
        } else {
            c.err_pct() <= 5.0
        };
        cells += 1;
        wrong += !ok as u64;
        if !ok {
            out.check(
                format!(
                    "{}: ours {} vs paper {} (×{})",
                    c.label, c.ours, c.paper, c.unit
                ),
                false,
            );
        }
    }
    out.check(
        format!("{cells} published cells: counts exact, volumes within 5 %"),
        wrong == 0,
    );
    out.metrics
        .push("failed_share", wrong as f64 / cells as f64);
    out.attempted = cells * passes.len() as u64;
    out.failed = wrong * passes.len() as u64;
}

/// Per-service and per-table numbers of the traced passes (the odd ones).
fn layer_metrics(tracer: &Tracer, passes: &[Pass], m: &mut Metrics) {
    let cells = &passes[1].cells;
    let traced_passes = passes.len() / 2;
    // Metric names are `&'static str`: look the assembled name up in the
    // catalog and take the catalog's own string.
    let name = |layer: &str, what: &str| -> &'static str {
        crate::catalog::metric(&format!("{layer}.{what}"))
            .expect("service metrics are in the catalog")
            .name
    };
    for (service, layer) in SERVICE_LAYERS {
        let of_service: Vec<&Cell> = cells.iter().filter(|c| c.service == service).collect();
        let walls: Vec<f64> = of_service.iter().map(|c| c.wall_s * 1e3).collect();
        m.push(name(layer, "calibrate_ms"), median(&walls));
        let sgx_cell = |mode| {
            of_service
                .iter()
                .find(|c| c.mode == mode && c.backend == TeeBackend::Sgx)
                .expect("the matrix covers every mode on sgx")
                .session_cycles() as f64
        };
        let classic = sgx_cell(TransitionMode::Classic);
        let switchless = sgx_cell(TransitionMode::Switchless);
        m.push(name(layer, "session_kcycles"), classic / 1e3);
        m.push(
            name(layer, "switchless_gain_pct"),
            (classic - switchless) / classic * 100.0,
        );
    }
    // Span totals cover every traced pass.
    for (span, metric) in [
        ("table1", "core.table1_ms"),
        ("table2", "sgx.table2_ms"),
        ("table3", "tor.table3_ms"),
        ("table4", "interdomain.table4_ms"),
        ("fig3", "interdomain.fig3_ms"),
    ] {
        m.push(metric, tracer.total_s(span) * 1e3 / traced_passes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_to_the_published_precision() {
        let c = volume("x", 97, K, 96_400);
        assert_eq!(c.ours_rounded(), 96);
        assert!((c.err_pct() - 100.0 / 97.0).abs() < 1e-9);
        let c = volume("x", 13, K, 13_499);
        assert_eq!((c.ours_rounded(), c.err_pct()), (13, 0.0));
        let c = count("x", 20, 20);
        assert_eq!((c.ours_rounded(), c.err_pct()), (20, 0.0));
    }

    #[test]
    fn service_layers_cover_the_registry_in_order() {
        let registered: Vec<_> = REGISTRY.iter().map(|e| e.name).collect();
        let mapped: Vec<_> = SERVICE_LAYERS.iter().map(|(s, _)| *s).collect();
        assert_eq!(registered, mapped);
    }

    #[test]
    fn tables_match_the_paper_for_more_than_one_seed() {
        for seed in [1, 2] {
            let (t, _) = tables(&mut Tracer::new("t", false), seed);
            assert_eq!(t.cells.len(), 12 + 8 + 4 + 6);
            for c in t.cells.iter().filter(|c| c.exact) {
                assert_eq!(c.ours, c.paper, "seed {seed}: {}", c.label);
            }
            let worst = t
                .cells
                .iter()
                .max_by(|a, b| a.err_pct().total_cmp(&b.err_pct()))
                .unwrap();
            assert!(
                worst.err_pct() <= 5.0,
                "seed {seed}: {} {}",
                worst.label,
                worst.err_pct()
            );
        }
    }
}
