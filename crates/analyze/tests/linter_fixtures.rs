//! Linter fixture tests: a known-good / known-bad corpus per rule under
//! `tests/fixtures/`, asserting exact finding counts, exact lines and
//! byte-stable JSON. The fixture directory is in the workspace config's
//! excluded prefixes, so the real CI lint never scans it — these tests
//! scan it with their own config in which every fixture is (as needed)
//! enclave-resident and/or an accounting path.

use std::fs;
use std::path::{Path, PathBuf};

use teenet_analyze::config::AnalyzeConfig;
use teenet_analyze::report::LintReport;
use teenet_analyze::rules::{rule, scan_file, Finding};
use teenet_analyze::scan_workspace;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The fixture view of the workspace config: fixture files are scanned
/// under the role their name implies; nothing is excluded or
/// clock-exempt. `clean.rs` gets *every* role so all rules run on it.
fn fixture_config() -> AnalyzeConfig {
    let mut c = AnalyzeConfig::repo();
    c.excluded_prefixes = Vec::new();
    c.enclave_resident = [
        "abort_bad.rs",
        "index_bad.rs",
        "waivers_mixed.rs",
        "seal_rollback_bad.rs",
        "seal_rollback_good.rs",
        "waivers_flow_mixed.rs",
        "clean.rs",
    ]
    .map(str::to_owned)
    .to_vec();
    c.accounting = vec!["float_bad.rs".to_owned(), "clean.rs".to_owned()];
    c.clock_exempt = Vec::new();
    c
}

fn scan(name: &str) -> Vec<Finding> {
    let src = fs::read_to_string(fixtures_root().join(name)).expect("fixture readable");
    scan_file(&fixture_config(), name, &src)
}

fn lines(f: &[Finding]) -> Vec<u32> {
    f.iter().map(|x| x.line).collect()
}

#[test]
fn abort_fixture_exact_findings() {
    let f = scan("abort_bad.rs");
    assert!(
        f.iter()
            .all(|x| x.rule == rule::ENCLAVE_ABORT && x.waived.is_none()),
        "{f:?}"
    );
    // One per abort construct; the unwrap inside #[cfg(test)] is exempt.
    assert_eq!(lines(&f), vec![5, 9, 13, 17, 21, 25]);
}

#[test]
fn index_fixture_exact_findings() {
    let f = scan("index_bad.rs");
    assert!(
        f.iter()
            .all(|x| x.rule == rule::ENCLAVE_INDEX && x.waived.is_none()),
        "{f:?}"
    );
    // Literal / named-constant indices in static_ok and types_ok pass.
    assert_eq!(lines(&f), vec![7, 11, 15]);
}

#[test]
fn egress_fixture_exact_findings() {
    let f = scan("egress_bad.rs");
    assert!(
        f.iter()
            .all(|x| x.rule == rule::SECRET_EGRESS && x.waived.is_none()),
        "{f:?}"
    );
    // The seal(..)-wrapped secret and the non-secret blob pass.
    assert_eq!(lines(&f), vec![6, 10]);
}

#[test]
fn float_fixture_exact_findings() {
    let f = scan("float_bad.rs");
    assert!(
        f.iter()
            .all(|x| x.rule == rule::FLOAT_ACCOUNTING && x.waived.is_none()),
        "{f:?}"
    );
    // Line 4: return type f64. Line 5: `as f64` plus the 1.45 literal.
    assert_eq!(lines(&f), vec![4, 5, 5]);
}

#[test]
fn clock_fixture_exact_findings() {
    let f = scan("clock_bad.rs");
    assert!(
        f.iter()
            .all(|x| x.rule == rule::WALL_CLOCK && x.waived.is_none()),
        "{f:?}"
    );
    // SystemTime, Instant, thread_rng; the seeded RNG passes.
    assert_eq!(lines(&f), vec![6, 11, 16]);
}

#[test]
fn waiver_fixture_exact_structure() {
    let f = scan("waivers_mixed.rs");
    assert_eq!(f.len(), 7, "{f:?}");

    let waived: Vec<&Finding> = f.iter().filter(|x| x.waived.is_some()).collect();
    let unwaived: Vec<&Finding> = f.iter().filter(|x| x.waived.is_none()).collect();

    // Line waiver covers the unwrap on the next line; the block waiver
    // covers both indices inside the braced block.
    assert_eq!(
        waived.iter().map(|x| (x.line, x.rule)).collect::<Vec<_>>(),
        vec![
            (6, rule::ENCLAVE_ABORT),
            (11, rule::ENCLAVE_INDEX),
            (11, rule::ENCLAVE_INDEX),
        ]
    );
    assert_eq!(
        waived[0].waived.as_deref(),
        Some("fixture: infallible by construction")
    );

    // The uncovered index, the stale waiver, the malformed waiver, and
    // the unwrap the malformed waiver failed to cover.
    assert_eq!(
        unwaived
            .iter()
            .map(|x| (x.line, x.rule))
            .collect::<Vec<_>>(),
        vec![
            (15, rule::ENCLAVE_INDEX),
            (18, rule::UNUSED_WAIVER),
            (21, rule::BAD_WAIVER),
            (23, rule::ENCLAVE_ABORT),
        ]
    );
}

#[test]
fn seal_rollback_bad_fixture_exact_findings() {
    let f = scan("seal_rollback_bad.rs");
    assert!(
        f.iter()
            .all(|x| x.rule == rule::SEAL_ROLLBACK && x.waived.is_none()),
        "{f:?}"
    );
    // The bare `.key` projection, the `self.state` adoption, the use
    // *before* a (real) gate, and the equality pseudo-gate.
    assert_eq!(lines(&f), vec![6, 11, 16, 28]);
    assert!(f[0].message.contains("`.key`"), "{f:?}");
    assert!(f[1].message.contains("self.state"), "{f:?}");
}

#[test]
fn seal_rollback_good_fixture_has_zero_findings() {
    let f = scan("seal_rollback_good.rs");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn nonce_reuse_bad_fixture_exact_findings() {
    let f = scan("nonce_reuse_bad.rs");
    assert!(
        f.iter()
            .all(|x| x.rule == rule::SEAL_NONCE_REUSE && x.waived.is_none()),
        "{f:?}"
    );
    // Second site of: the shared ident, the `.clone()` alias, the
    // repeated array literal, and the `self.nonce` projection.
    assert_eq!(lines(&f), vec![6, 13, 18, 23]);
}

#[test]
fn nonce_reuse_good_fixture_has_zero_findings() {
    let f = scan("nonce_reuse_good.rs");
    assert!(f.is_empty(), "{f:?}");
}

/// The renamed-secret fixture: no secret identifier is adjacent to a
/// sink, so only the flow engine, tracking the taint through the
/// rebindings, reports the two leaks.
#[test]
fn egress_taint_fixture_flags_both_renamed_leaks() {
    let f = scan("egress_taint_bad.rs");
    assert!(
        f.iter()
            .all(|x| x.rule == rule::SECRET_EGRESS && x.waived.is_none()),
        "{f:?}"
    );
    // The one-hop rename and the two-hop frame; the seal()-wrapped
    // intermediate stays clean.
    assert_eq!(lines(&f), vec![7, 13]);
}

#[test]
fn flow_waiver_fixture_exact_structure() {
    let f = scan("waivers_flow_mixed.rs");

    let waived: Vec<&Finding> = f.iter().filter(|x| x.waived.is_some()).collect();
    let unwaived: Vec<&Finding> = f.iter().filter(|x| x.waived.is_none()).collect();

    // The line-waived nonce reuse and the block-waived rollback.
    assert_eq!(
        waived.iter().map(|x| (x.line, x.rule)).collect::<Vec<_>>(),
        vec![(8, rule::SEAL_NONCE_REUSE), (14, rule::SEAL_ROLLBACK)]
    );
    // The stale rollback waiver (its function is properly gated) and
    // the uncovered reuse.
    assert_eq!(
        unwaived
            .iter()
            .map(|x| (x.line, x.rule))
            .collect::<Vec<_>>(),
        vec![(17, rule::UNUSED_WAIVER), (28, rule::SEAL_NONCE_REUSE)]
    );
}

#[test]
fn attest_unchecked_bad_fixture_exact_findings() {
    let f = scan("attest_unchecked_bad.rs");
    assert!(f.iter().all(|x| x.rule == rule::ATTEST_UNCHECKED), "{f:?}");
    // `let _ =`, `.ok()`, bare `;`, `.err()`, the multi-line chain, the
    // bare mutual_attest, the block-waived probe, the empty
    // `if let Err(_)` body and the `.unwrap_or_default()` discard.
    assert_eq!(lines(&f), vec![6, 7, 8, 9, 14, 19, 24, 28, 32]);
    assert!(f[7].message.contains("empty `if let Err(_)` body"), "{f:?}");
    assert!(f[8].message.contains("unwrap_or_default"), "{f:?}");
    let waived: Vec<&Finding> = f.iter().filter(|x| x.waived.is_some()).collect();
    assert_eq!(waived.len(), 1);
    assert_eq!(waived[0].line, 24);
    assert_eq!(
        waived[0].waived.as_deref(),
        Some("fixture: probing the reject path only")
    );
}

#[test]
fn attest_unchecked_good_fixture_has_zero_findings() {
    let f = scan("attest_unchecked_good.rs");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn clean_fixture_has_zero_findings() {
    let f = scan("clean.rs");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn fixture_workspace_scan_tallies_and_stability() {
    let cfg = fixture_config();
    let a = scan_workspace(&fixtures_root(), &cfg).expect("scan fixtures");
    let b = scan_workspace(&fixtures_root(), &cfg).expect("scan fixtures again");
    assert_eq!(a.json(), b.json(), "report must be byte-stable");
    assert_eq!(a.text(), b.text());

    assert_eq!(a.files_scanned, 15);
    assert_eq!(a.findings.len(), 47);
    assert_eq!(a.unwaived().count(), 41);
    assert_eq!(a.waived().count(), 6);

    let count = |r: &str| a.findings.iter().filter(|f| f.rule == r).count();
    assert_eq!(count(rule::ENCLAVE_ABORT), 8);
    assert_eq!(count(rule::ENCLAVE_INDEX), 6);
    assert_eq!(count(rule::SECRET_EGRESS), 4);
    assert_eq!(count(rule::FLOAT_ACCOUNTING), 3);
    assert_eq!(count(rule::WALL_CLOCK), 3);
    assert_eq!(count(rule::ATTEST_UNCHECKED), 9);
    assert_eq!(count(rule::SEAL_ROLLBACK), 5);
    assert_eq!(count(rule::SEAL_NONCE_REUSE), 6);
    assert_eq!(count(rule::UNUSED_WAIVER), 2);
    assert_eq!(count(rule::BAD_WAIVER), 1);
}

#[test]
fn float_fixture_json_exact_bytes() {
    let r = LintReport {
        files_scanned: 1,
        findings: scan("float_bad.rs"),
    };
    assert_eq!(
        r.json(),
        "{\"files_scanned\":1,\"waiver_count\":0,\"findings\":[\
         {\"file\":\"float_bad.rs\",\"line\":4,\"rule\":\"float-accounting\",\
         \"message\":\"f64 in an accounting path — use exact integer arithmetic\"},\
         {\"file\":\"float_bad.rs\",\"line\":5,\"rule\":\"float-accounting\",\
         \"message\":\"f64 in an accounting path — use exact integer arithmetic\"},\
         {\"file\":\"float_bad.rs\",\"line\":5,\"rule\":\"float-accounting\",\
         \"message\":\"float literal in an accounting path — use exact integer arithmetic\"}\
         ],\"waived\":[]}\n"
    );
}

#[test]
fn real_workspace_has_zero_unwaived_findings() {
    // The CI gate, as a test: the tree this crate sits in must lint
    // clean under the real config (all findings fixed or waived).
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = scan_workspace(&root, &AnalyzeConfig::repo()).expect("scan workspace");
    let unwaived: Vec<&Finding> = report.unwaived().collect();
    assert!(
        unwaived.is_empty(),
        "unwaived findings in the tree:\n{}",
        report.text()
    );
}

/// The waiver-budget gate, as a test: the checked-in baseline must equal
/// the tree's actual waiver count *exactly*. Adding or removing a waiver
/// without touching `waiver_budget.txt` in the same PR fails here (the
/// CLI's `--waiver-budget` flag only rejects growth; this keeps the
/// number honest in both directions).
#[test]
fn waiver_budget_baseline_matches_the_tree() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let baseline: usize = fs::read_to_string(manifest.join("waiver_budget.txt"))
        .expect("crates/analyze/waiver_budget.txt is checked in")
        .trim()
        .parse()
        .expect("waiver_budget.txt holds one integer");
    let root = manifest
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = scan_workspace(&root, &AnalyzeConfig::repo()).expect("scan workspace");
    assert_eq!(
        report.waived().count(),
        baseline,
        "the tree's waiver count changed — update crates/analyze/waiver_budget.txt \
         in the same PR"
    );
    // The JSON report carries the count first-class for the CLI gate.
    assert!(report.json().starts_with(&format!(
        "{{\"files_scanned\":{},\"waiver_count\":{baseline}",
        report.files_scanned
    )));
}
