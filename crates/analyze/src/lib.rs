//! `teenet-analyze`: correctness tooling for the teenet workspace.
//!
//! Two engines (see DESIGN.md §"Static analysis and model checking"):
//!
//! 1. An **enclave-invariant linter** — a hand-rolled token scanner
//!    (no `syn`, no network) enforcing the repo's enclave hygiene
//!    rules: no aborts or data-dependent indexing in enclave-resident
//!    code, no secret key material reaching egress sinks outside the
//!    sealing API, no floating point in cycle-accounting paths, no
//!    wall-clock/ambient-entropy use outside the netsim virtual clock,
//!    and (workspace-wide) no public API that only tests name.
//!    Findings are waivable in-source with an auditable reason
//!    (`// teenet-analyze: allow(<rule>) -- <reason>`).
//! 2. A **switchless-ring model checker** — a bounded
//!    exhaustive-interleaving explorer over the concurrent design that
//!    `teenet_sgx::switchless` emulates sequentially, proving no lost
//!    wakeups, no dropped or double-executed calls, and post
//!    conservation across every interleaving within the bounds.
//!
//! The binary (`cargo run -p teenet-analyze`) runs the linter; CI runs
//! it with `--deny-findings` plus `--model-check` and fails on any
//! unwaived finding or ring-invariant violation.

#![forbid(unsafe_code)]

pub mod config;
pub mod deadpub;
pub mod flow;
pub mod lexer;
pub mod report;
pub mod ring;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use config::AnalyzeConfig;
use report::LintReport;

/// Scans every non-excluded `.rs` file under `root` and returns the
/// report. File order (and therefore finding order) is sorted, so the
/// report is byte-stable for a given tree.
pub fn scan_workspace(root: &Path, config: &AnalyzeConfig) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, config, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    Ok(scan_sources(config, &sources))
}

/// Lints in-memory `(rel_path, source)` pairs as one workspace: the
/// per-file rules plus the workspace-wide L8 pass. Findings are sorted
/// by (file, line, rule, message).
pub fn scan_sources(config: &AnalyzeConfig, files: &[(String, String)]) -> LintReport {
    let mut findings = Vec::new();
    for ((rel, src), dead) in files.iter().zip(deadpub::dead_pub(files)) {
        findings.extend(rules::scan_file_with(config, rel, src, dead));
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    LintReport {
        files_scanned: files.len(),
        findings,
    }
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    config: &AnalyzeConfig,
    out: &mut Vec<String>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = rel_path(root, &path);
        if config.is_excluded(&rel) {
            continue;
        }
        let ty = entry.file_type()?;
        if ty.is_dir() {
            collect_rs_files(root, &path, config, out)?;
        } else if ty.is_file() && path.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated path (the form the config matches).
fn rel_path(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_path_is_slash_separated() {
        let root = Path::new("/w");
        assert_eq!(rel_path(root, Path::new("/w/a/b/c.rs")), "a/b/c.rs");
        assert_eq!(rel_path(root, Path::new("/w/c.rs")), "c.rs");
    }
}
