//! Byte-stability gate for the modelled plane: the exact
//! `(sgx_instr, normal_instr)` pairs behind every calibration and paper
//! table, compared byte for byte with `tests/fixtures/counters.txt`.
//!
//! It covers every registered scenario × {classic, switchless} × {sgx,
//! vmtee} calibration (setup, then each op's client/server pair and
//! transitions), Table 1's six role columns, Table 2's four sends,
//! Table 4's native and in-enclave counters and Figure 3's twelve cycle
//! values. A refactor of cost accounting must leave it unchanged; a
//! deliberate re-pricing rewrites the fixture in the same commit from the
//! `counters.actual.txt` a mismatch leaves in `CARGO_TARGET_TMPDIR`.

use std::fmt::Write as _;

use teenet::attest::AttestConfig;
use teenet_bench::{measure_packet_send, AttestBench};
use teenet_crypto::dh::DhGroup;
use teenet_crypto::SecureRng;
use teenet_interdomain::{default_policies, run_native, SdnDeployment, Topology};
use teenet_load::scenarios::REGISTRY;
use teenet_sgx::cost::{CostModel, Counters};
use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode};

fn pair(c: Counters) -> String {
    format!("{} {}", c.sgx_instr, c.normal_instr)
}

/// Every counter line, in a fixed order.
fn render() -> String {
    let mut out = String::new();
    // Calibrations at the loadgen goldens' seed.
    for entry in &REGISTRY {
        for mode in [TransitionMode::Classic, TransitionMode::Switchless] {
            for backend in [TeeBackend::Sgx, TeeBackend::VmTee] {
                let cal = entry
                    .build_switchless(11, mode, backend, SwitchlessConfig::default())
                    .calibrate();
                let cell = format!("cal {} {mode:?} {backend}", entry.name);
                writeln!(out, "{cell} setup {}", pair(cal.setup)).unwrap();
                for (i, op) in cal.ops.iter().enumerate() {
                    let t = op.transitions;
                    let (client, server) = (pair(op.client), pair(op.server));
                    writeln!(
                        out,
                        "{cell} op {i} {} client {client} server {server} transitions {} {} {} {}",
                        op.name, t.taken, t.elided, t.fallbacks, t.idle_spins
                    )
                    .unwrap();
                }
            }
        }
    }
    // Table 1 and Table 2 as `--bin table1`/`table2` measure them.
    for (label, config) in [
        ("no_dh", AttestConfig::no_dh(DhGroup::modp1024())),
        ("dh", AttestConfig::default()),
    ] {
        let (target, quoting, challenger) = AttestBench::new(&config, 1).run_once(&config);
        for (role, c) in [
            ("target", target),
            ("quoting", quoting),
            ("challenger", challenger),
        ] {
            writeln!(out, "table1 {role} {label} {}", pair(c)).unwrap();
        }
    }
    for count in [1, 100] {
        for encrypt in [false, true] {
            let c = measure_packet_send(count, encrypt, 1);
            writeln!(out, "table2 {count} crypto={encrypt} {}", pair(c)).unwrap();
        }
    }
    // Table 4 and Figure 3 on `--bin table4`/`fig3`'s topology draw.
    let model = CostModel::paper();
    for n in [5u32, 10, 15, 20, 25, 30] {
        let topology = Topology::random(n, &mut SecureRng::seed_from_u64(2015));
        let policies = default_policies(&topology);
        let native = run_native(&topology, &policies);
        let sgx = SdnDeployment::new(&topology, &policies, AttestConfig::fast(), 7)
            .expect("deployment")
            .run()
            .expect("run");
        if n == 30 {
            let (native_id, sgx_id) = (pair(native.interdomain), pair(sgx.interdomain));
            writeln!(out, "table4 interdomain native {native_id}").unwrap();
            writeln!(out, "table4 interdomain sgx {sgx_id}").unwrap();
            for (i, (native, sgx)) in native.aslocal.iter().zip(&sgx.aslocal).enumerate() {
                writeln!(out, "table4 aslocal {i} {} {}", pair(*native), pair(*sgx)).unwrap();
            }
        }
        let cycles = [native.interdomain, sgx.interdomain].map(|c| c.cycles(&model));
        writeln!(out, "fig3 {n} {} {}", cycles[0], cycles[1]).unwrap();
    }
    out
}

#[test]
fn counters_match_golden() {
    let actual = render();
    let expected = include_str!("fixtures/counters.txt");
    if actual != expected {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("counters.actual.txt");
        std::fs::write(&path, &actual).expect("write actual counters");
        let diff = actual.lines().zip(expected.lines()).find(|(a, e)| a != e);
        panic!("counters differ from the fixture (first: {diff:?}); actual in {path:?}");
    }
}
