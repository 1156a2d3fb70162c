//! The enclave-invariant rules and the waiver grammar.
//!
//! Nine rules, each defending a specific property the paper's argument
//! rests on (see DESIGN.md for the full rationale):
//!
//! * **`enclave-abort`** (L1a) — no `unwrap()` / `expect()` /
//!   `panic!` / `unreachable!` / `todo!` / `unimplemented!` in
//!   enclave-resident code. Untrusted input must surface as `Result`,
//!   never abort the enclave ("What You Trust Is Insecure": crashing an
//!   enclave on hostile input is a denial-of-service primitive and often
//!   an oracle).
//! * **`enclave-index`** (L1b) — no *data-dependent* indexing or
//!   slicing in enclave-resident code: `buf[off..off + n]` panics when a
//!   hostile length check was forgotten. All-literal indices
//!   (`buf[0]`, `buf[..32]`) and named constants (`buf[..CELL_LEN]`)
//!   are allowed — they fail loudly and deterministically in tests, not
//!   data-dependently in production. Use `.get(..)` and return an error.
//! * **`secret-egress`** (L2) — secret key material must not reach a
//!   boundary-crossing call (`ocall`, `send_packets`) except through
//!   the sealing API. Flow-aware: on top of the original token-adjacency
//!   check, taint from secret-named bindings is propagated through
//!   intermediate `let` bindings and helper-call arguments (see
//!   [`crate::flow`]), so renaming a secret no longer hides the leak.
//! * **`float-accounting`** (L3) — no floating point in
//!   instruction/cycle accounting files (the exact class of precision
//!   bug PR 2 fixed in `Counters::cycles`).
//! * **`wall-clock`** (L4) — no wall-clock or ambient-entropy APIs
//!   (`Instant`, `SystemTime`, `thread_rng`, ...) outside the netsim
//!   virtual clock; determinism of the load reports depends on it.
//! * **`attestation-unchecked`** (L5) — a call to an attestation-verify
//!   function (`verify`, `attest_enclave`, `mutual_attest`) whose
//!   `Result` is discarded — `let _ =`, a trailing `.ok()`/`.err()`, a
//!   bare `;`, an empty `if let Err(_) = .. {}` body, or a
//!   `.unwrap_or_default()` that fabricates a default verdict — is a
//!   finding. An unchecked verdict is worse than no attestation: the
//!   caller proceeds as if the peer were measured.
//! * **`seal-rollback`** (L6) — in enclave-resident code, a value
//!   recovered by `unseal` must have a counter/epoch field compared
//!   with an ordered (strictly-greater) check before any use of its key
//!   material (a `.key`/`.material` projection or adoption into
//!   `self.<field>`). This is keystore `activate`'s gate, generalized:
//!   without it the host can replay an old sealed blob ("What You Trust
//!   Is Insecure" finds sealed-state rollback the most common real
//!   sealing misuse).
//! * **`seal-nonce-reuse`** (L7) — the same nonce/IV identifier,
//!   projection or array literal reaching two distinct seal/encrypt
//!   call sites (`seal`, `ctr_apply`, `apply`) in one function without
//!   re-derivation in between (a reassignment or `&mut` refresh). CTR
//!   keystreams XOR plaintext, so one nonce reuse under the same key
//!   reveals the XOR of two plaintexts.
//! * **`dead-pub`** (L8) — a `pub` item of a library crate that no
//!   scanned file names outside test code and `use` declarations. The
//!   only workspace-wide rule (see [`crate::deadpub`]): documented but
//!   never-exercised API is where TEE code goes wrong.
//!
//! **Test code** (`#[cfg(test)]` modules, `#[test]` functions) is
//! exempt from L1a/L1b by construction: a test aborting on a failed
//! expectation is the assertion mechanism, not an enclave abort — and
//! from L6, because rollback tests must construct the very replays the
//! rule forbids. The other rules still apply in tests (tests must stay
//! deterministic and must not leak secrets either); a CTR round-trip
//! test that deliberately reuses a nonce carries an explicit waiver.
//!
//! ## Waiver grammar
//!
//! ```text
//! // teenet-analyze: allow(rule-a, rule-b) -- why this is sound
//! // teenet-analyze: allow-block(rule) -- covers the next braced block
//! // teenet-analyze: allow-file(rule) -- covers the whole file
//! ```
//!
//! `allow` covers its own line and the line below the comment. Every
//! waiver needs a non-empty reason after `--`; a malformed waiver is
//! itself a finding (`bad-waiver`), and a waiver that suppresses
//! nothing is a finding too (`unused-waiver`) so stale waivers cannot
//! accumulate.

use crate::config::AnalyzeConfig;
use crate::flow::{function_bodies, FlowAnalysis, FnBody};
use crate::lexer::{lex, Token, TokenKind};

/// Stable rule identifiers (used in reports, JSON and waivers).
pub mod rule {
    /// L1a: aborts in enclave-resident code.
    pub const ENCLAVE_ABORT: &str = "enclave-abort";
    /// L1b: data-dependent indexing in enclave-resident code.
    pub const ENCLAVE_INDEX: &str = "enclave-index";
    /// L2: secret material reaching an egress sink.
    pub const SECRET_EGRESS: &str = "secret-egress";
    /// L3: floating point in accounting paths.
    pub const FLOAT_ACCOUNTING: &str = "float-accounting";
    /// L4: wall-clock/entropy outside the virtual clock.
    pub const WALL_CLOCK: &str = "wall-clock";
    /// L5: a discarded attestation-verify `Result`.
    pub const ATTEST_UNCHECKED: &str = "attestation-unchecked";
    /// L6: unsealed state used before a monotonic-counter check.
    pub const SEAL_ROLLBACK: &str = "seal-rollback";
    /// L7: a nonce/IV reaching two seal/encrypt call sites.
    pub const SEAL_NONCE_REUSE: &str = "seal-nonce-reuse";
    /// L8: a `pub` item nothing outside test code names.
    pub const DEAD_PUB: &str = "dead-pub";
    /// A syntactically invalid waiver comment.
    pub const BAD_WAIVER: &str = "bad-waiver";
    /// A waiver that suppressed no finding.
    pub const UNUSED_WAIVER: &str = "unused-waiver";

    /// All waivable rule ids (the two meta rules are not waivable).
    pub const WAIVABLE: [&str; 9] = [
        ENCLAVE_ABORT,
        ENCLAVE_INDEX,
        SECRET_EGRESS,
        FLOAT_ACCOUNTING,
        WALL_CLOCK,
        ATTEST_UNCHECKED,
        SEAL_ROLLBACK,
        SEAL_NONCE_REUSE,
        DEAD_PUB,
    ];
}

/// Static metadata for one rule, backing `--list-rules` / `--explain`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule id.
    pub id: &'static str,
    /// Rule level (`L1a` … `L8`, or `meta` for the waiver rules).
    pub level: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Why the rule exists — the property it defends.
    pub rationale: &'static str,
    /// Example waiver syntax, or `None` for non-waivable meta rules.
    pub waiver: Option<&'static str>,
}

/// All rules, in level order (the `--list-rules` order).
pub const RULES: [RuleInfo; 11] = [
    RuleInfo {
        id: rule::ENCLAVE_ABORT,
        level: "L1a",
        summary: "no unwrap/expect/panic in enclave-resident code",
        rationale: "crashing an enclave on hostile input is a denial-of-service \
                    primitive and often an oracle; untrusted input must surface \
                    as Result, never abort",
        waiver: Some("// teenet-analyze: allow(enclave-abort) -- <why this cannot abort>"),
    },
    RuleInfo {
        id: rule::ENCLAVE_INDEX,
        level: "L1b",
        summary: "no data-dependent indexing/slicing in enclave-resident code",
        rationale: "buf[off..off + n] panics when a hostile length check was \
                    forgotten; all-literal and named-constant indices fail \
                    deterministically in tests instead",
        waiver: Some("// teenet-analyze: allow(enclave-index) -- <why the bound holds>"),
    },
    RuleInfo {
        id: rule::SECRET_EGRESS,
        level: "L2",
        summary: "secrets must not reach ocall/send_packets except via sealing",
        rationale: "flow-aware: taint from secret-named bindings is tracked \
                    through intermediate lets and helper-call arguments into \
                    egress sinks, so renaming a secret does not hide the leak",
        waiver: Some("// teenet-analyze: allow(secret-egress) -- <why this egress is sealed>"),
    },
    RuleInfo {
        id: rule::FLOAT_ACCOUNTING,
        level: "L3",
        summary: "no floating point in instruction/cycle accounting",
        rationale: "float rounding drifts the calibrated cost model; accounting \
                    must be exact integer arithmetic",
        waiver: Some("// teenet-analyze: allow(float-accounting) -- <why exactness is kept>"),
    },
    RuleInfo {
        id: rule::WALL_CLOCK,
        level: "L4",
        summary: "no wall-clock/ambient-entropy outside the virtual clock",
        rationale: "byte-identical reports depend on every time source and RNG \
                    being seeded and virtual",
        waiver: Some("// teenet-analyze: allow(wall-clock) -- <why determinism survives>"),
    },
    RuleInfo {
        id: rule::ATTEST_UNCHECKED,
        level: "L5",
        summary: "an attestation verdict must be handled, not discarded",
        rationale: "a dropped verify() Result — let _ =, .ok(), a bare ;, an \
                    empty if-let-Err body, or .unwrap_or_default() — means the \
                    caller proceeds as if the peer were measured",
        waiver: Some(
            "// teenet-analyze: allow(attestation-unchecked) -- <why the verdict is irrelevant>",
        ),
    },
    RuleInfo {
        id: rule::SEAL_ROLLBACK,
        level: "L6",
        summary: "unsealed state must pass a monotonic-counter gate before use",
        rationale: "without a strictly-greater counter comparison the host can \
                    replay an old sealed blob and roll the enclave back to a \
                    revoked key or stale policy",
        waiver: Some("// teenet-analyze: allow(seal-rollback) -- <why replay is impossible>"),
    },
    RuleInfo {
        id: rule::SEAL_NONCE_REUSE,
        level: "L7",
        summary: "a nonce/IV must not reach two seal/encrypt sites unrefreshed",
        rationale: "CTR keystreams XOR plaintext: one nonce reuse under the \
                    same key reveals the XOR of two plaintexts; every seal \
                    needs a fresh nonce",
        waiver: Some(
            "// teenet-analyze: allow(seal-nonce-reuse) -- <why both sites share one keystream \
             by design>",
        ),
    },
    RuleInfo {
        id: rule::DEAD_PUB,
        level: "L8",
        summary: "a pub library item must be named outside test code",
        rationale: "API that is documented but never exercised claims behaviour \
                    nothing checks; delete it or move it into #[cfg(test)]. \
                    Users are every scanned file (bins, examples, tests/, \
                    benchmark/src) minus unit-test scopes and use declarations",
        waiver: Some("// teenet-analyze: allow(dead-pub) -- <who calls this>"),
    },
    RuleInfo {
        id: rule::BAD_WAIVER,
        level: "meta",
        summary: "a syntactically invalid waiver comment",
        rationale: "a waiver that does not parse would silently suppress \
                    nothing; it must be fixed or removed",
        waiver: None,
    },
    RuleInfo {
        id: rule::UNUSED_WAIVER,
        level: "meta",
        summary: "a waiver that suppresses no finding",
        rationale: "stale waivers accumulate into blind spots; every waiver \
                    must cover a live finding",
        waiver: None,
    },
];

/// One linter finding, before or after waiver resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable rule id (see [`rule`]).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// `Some(reason)` when an explicit waiver covers this finding.
    pub waived: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaiverScope {
    /// The waiver's own line and the line directly below it.
    Line,
    /// A line range `[from, to]` (the braced block after the comment).
    Block(u32, u32),
    /// The whole file.
    File,
}

#[derive(Debug)]
struct Waiver {
    rules: Vec<String>,
    reason: String,
    line: u32,
    scope: WaiverScope,
    used: bool,
}

impl Waiver {
    fn covers(&self, rule_id: &str, line: u32) -> bool {
        if !self.rules.iter().any(|r| r == rule_id) {
            return false;
        }
        match self.scope {
            WaiverScope::Line => line == self.line || line == self.line + 1,
            WaiverScope::Block(from, to) => (from..=to).contains(&line),
            WaiverScope::File => true,
        }
    }
}

/// A finding before waiver resolution: line, rule id, message.
pub(crate) type RawFinding = (u32, &'static str, String);

/// Scans one file's source, returning all findings (waived ones carry
/// their reason). `rel_path` selects which rules apply per the config.
pub fn scan_file(config: &AnalyzeConfig, rel_path: &str, src: &str) -> Vec<Finding> {
    scan_file_with(config, rel_path, src, Vec::new())
}

/// [`scan_file`] plus `workspace` findings (L8) computed across files,
/// resolved against this file's waivers like every other rule.
pub(crate) fn scan_file_with(
    config: &AnalyzeConfig,
    rel_path: &str,
    src: &str,
    workspace: Vec<RawFinding>,
) -> Vec<Finding> {
    let tokens = lex(src);
    // Significant tokens (comments stripped) drive the rule patterns;
    // comments drive waivers and block/test scoping.
    let sig: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::Comment(_)))
        .collect();

    let mut findings = Vec::new();
    let mut waivers = parse_waivers(&tokens, &sig, rel_path, &mut findings);
    let test_spans = test_scopes(&sig);

    let in_tests = |line: u32| test_spans.iter().any(|&(a, b)| (a..=b).contains(&line));

    let mut raw = workspace;

    let bodies = function_bodies(&sig);

    if config.is_enclave_resident(rel_path) {
        rule_enclave_abort(&sig, &mut raw);
        rule_enclave_index(&sig, &mut raw);
        rule_seal_rollback(config, &sig, &bodies, &mut raw);
    }
    rule_secret_egress(config, &sig, &bodies, &mut raw);
    rule_seal_nonce_reuse(config, &sig, &bodies, &mut raw);
    rule_attest_unchecked(config, &sig, &mut raw);
    if config.is_accounting(rel_path) {
        rule_float_accounting(&sig, &mut raw);
    }
    if !config.is_clock_exempt(rel_path) {
        rule_wall_clock(config, &sig, &mut raw);
    }

    for (line, rule_id, message) in raw {
        // L1 is exempt in test scopes: aborting on a failed expectation
        // is what tests do. L6 is exempt too: a rollback test must
        // construct the very replay the rule forbids.
        if (rule_id == rule::ENCLAVE_ABORT
            || rule_id == rule::ENCLAVE_INDEX
            || rule_id == rule::SEAL_ROLLBACK)
            && in_tests(line)
        {
            continue;
        }
        let waived = waivers
            .iter_mut()
            .find(|w| w.covers(rule_id, line))
            .map(|w| {
                w.used = true;
                w.reason.clone()
            });
        findings.push(Finding {
            file: rel_path.to_owned(),
            line,
            rule: rule_id,
            message,
            waived,
        });
    }

    for w in &waivers {
        if !w.used {
            findings.push(Finding {
                file: rel_path.to_owned(),
                line: w.line,
                rule: rule::UNUSED_WAIVER,
                message: format!(
                    "waiver for ({}) suppresses nothing — remove it or move it next to the finding",
                    w.rules.join(", ")
                ),
                waived: None,
            });
        }
    }

    findings.sort_by(|a, b| {
        (a.line, a.rule, a.message.as_str()).cmp(&(b.line, b.rule, b.message.as_str()))
    });
    findings
}

// ---------------------------------------------------------------------
// Waiver parsing
// ---------------------------------------------------------------------

const WAIVER_MARKER: &str = "teenet-analyze:";

fn parse_waivers(
    tokens: &[Token],
    sig: &[&Token],
    rel_path: &str,
    findings: &mut Vec<Finding>,
) -> Vec<Waiver> {
    let mut out = Vec::new();
    for t in tokens {
        let TokenKind::Comment(text) = &t.kind else {
            continue;
        };
        // Doc comments never carry live waivers — they are where the
        // waiver grammar gets *documented*, with examples that must not
        // fire.
        if text.starts_with("///")
            || text.starts_with("//!")
            || text.starts_with("/**")
            || text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = text.find(WAIVER_MARKER) else {
            continue;
        };
        let directive = text[at + WAIVER_MARKER.len()..].trim();
        match parse_directive(directive) {
            Ok((kind, rules, reason)) => {
                let scope = match kind {
                    DirectiveKind::Line => WaiverScope::Line,
                    DirectiveKind::File => WaiverScope::File,
                    DirectiveKind::Block => match block_after(sig, t.line) {
                        Some((from, to)) => WaiverScope::Block(from, to),
                        None => {
                            findings.push(Finding {
                                file: rel_path.to_owned(),
                                line: t.line,
                                rule: rule::BAD_WAIVER,
                                message: "allow-block with no braced block below it".to_owned(),
                                waived: None,
                            });
                            continue;
                        }
                    },
                };
                out.push(Waiver {
                    rules,
                    reason,
                    line: t.line,
                    scope,
                    used: false,
                });
            }
            Err(why) => findings.push(Finding {
                file: rel_path.to_owned(),
                line: t.line,
                rule: rule::BAD_WAIVER,
                message: why,
                waived: None,
            }),
        }
    }
    out
}

enum DirectiveKind {
    Line,
    Block,
    File,
}

fn parse_directive(directive: &str) -> Result<(DirectiveKind, Vec<String>, String), String> {
    let (kind, rest) = if let Some(r) = directive.strip_prefix("allow-block") {
        (DirectiveKind::Block, r)
    } else if let Some(r) = directive.strip_prefix("allow-file") {
        (DirectiveKind::File, r)
    } else if let Some(r) = directive.strip_prefix("allow") {
        (DirectiveKind::Line, r)
    } else {
        return Err(format!(
            "unknown directive {directive:?} (expected allow / allow-block / allow-file)"
        ));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("missing ( after allow".to_owned());
    };
    let Some(close) = rest.find(')') else {
        return Err("missing ) in waiver rule list".to_owned());
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("empty rule list in waiver".to_owned());
    }
    for r in &rules {
        if !rule::WAIVABLE.contains(&r.as_str()) {
            return Err(format!("unknown rule {r:?} in waiver"));
        }
    }
    let after = rest[close + 1..].trim_start();
    let Some(reason) = after.strip_prefix("--") else {
        return Err("waiver must end with `-- <reason>`".to_owned());
    };
    let reason = reason.trim().trim_end_matches("*/").trim();
    if reason.is_empty() {
        return Err("waiver reason is empty".to_owned());
    }
    Ok((kind, rules, reason.to_owned()))
}

/// Line span of the first braced block starting at or after `line`.
/// Stops at a `;` seen before any `{` (the next item has no block).
fn block_after(sig: &[&Token], line: u32) -> Option<(u32, u32)> {
    let start = sig.iter().position(|t| t.line > line)?;
    let mut i = start;
    while i < sig.len() {
        if sig[i].is_punct(';') {
            return None;
        }
        if sig[i].is_punct('{') {
            let close = matching(sig, i, '{', '}')?;
            return Some((sig[i].line, sig[close].line));
        }
        i += 1;
    }
    None
}

// ---------------------------------------------------------------------
// Test-scope detection
// ---------------------------------------------------------------------

/// Line spans of `#[cfg(test)]` / `#[test]`-gated items.
pub(crate) fn test_scopes(sig: &[&Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < sig.len() {
        if sig[i].is_punct('#') && i + 1 < sig.len() && sig[i + 1].is_punct('[') {
            if let Some(close) = matching(sig, i + 1, '[', ']') {
                let attr: Vec<&str> = sig[i + 2..close].iter().filter_map(|t| t.ident()).collect();
                let is_test_gate =
                    attr == ["test"] || (attr.first() == Some(&"cfg") && attr.contains(&"test"));
                if is_test_gate {
                    if let Some((from, to)) = block_after(sig, sig[close].line.saturating_sub(1))
                        .filter(|&(from, _)| from >= sig[close].line)
                    {
                        spans.push((sig[i].line, to));
                        let _ = from;
                    }
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    spans
}

// ---------------------------------------------------------------------
// Rule implementations
// ---------------------------------------------------------------------

fn rule_enclave_abort(sig: &[&Token], out: &mut Vec<(u32, &'static str, String)>) {
    for i in 0..sig.len() {
        let Some(name) = sig[i].ident() else { continue };
        match name {
            "unwrap" | "expect" => {
                let method = i > 0 && sig[i - 1].is_punct('.');
                let called = i + 1 < sig.len() && sig[i + 1].is_punct('(');
                if method && called {
                    out.push((
                        sig[i].line,
                        rule::ENCLAVE_ABORT,
                        format!(".{name}() aborts the enclave — return a Result instead"),
                    ));
                }
            }
            // `#[allow(unreachable_...)]`-style attribute idents are
            // not followed by `!`, so the guard keeps this to macros.
            "panic" | "unreachable" | "todo" | "unimplemented"
                if i + 1 < sig.len() && sig[i + 1].is_punct('!') =>
            {
                out.push((
                    sig[i].line,
                    rule::ENCLAVE_ABORT,
                    format!("{name}! aborts the enclave — return a Result instead"),
                ));
            }
            _ => {}
        }
    }
}

/// Keywords that can directly precede `[` without being an indexing base.
const NON_BASE_KEYWORDS: [&str; 23] = [
    "mut", "ref", "dyn", "impl", "in", "as", "return", "break", "else", "match", "if", "while",
    "for", "loop", "move", "static", "const", "where", "box", "await", "yield", "become", "pub",
];

fn rule_enclave_index(sig: &[&Token], out: &mut Vec<(u32, &'static str, String)>) {
    for i in 0..sig.len() {
        if !sig[i].is_punct('[') || i == 0 {
            continue;
        }
        // The token before `[` decides whether this is an indexing
        // expression: an identifier (not a keyword), a `)` or a `]`.
        let base_ok = match &sig[i - 1].kind {
            TokenKind::Ident(name) => !NON_BASE_KEYWORDS.contains(&name.as_str()),
            TokenKind::Punct(')') | TokenKind::Punct(']') => true,
            _ => false,
        };
        if !base_ok {
            continue;
        }
        // Macro invocation `name![...]` is not indexing.
        if i >= 2 && sig[i - 1].ident().is_some() && sig[i - 2].is_punct('!') {
            continue;
        }
        let Some(close) = matching(sig, i, '[', ']') else {
            continue;
        };
        if close == i + 1 {
            continue; // `[]` — not indexing
        }
        let index = &sig[i + 1..close];
        if index_is_static(index) {
            continue;
        }
        let base = sig[i - 1].ident().unwrap_or("(expr)");
        out.push((
            sig[i].line,
            rule::ENCLAVE_INDEX,
            format!(
                "data-dependent index on `{base}` can panic on untrusted input — \
                 use .get(..) and return an error"
            ),
        ));
    }
}

/// An index expression is statically safe when it is built only from
/// integer literals, named constants (no lowercase letters), range dots
/// and arithmetic on those — it can still be out of bounds, but it
/// fails the same way on every input, so tests catch it.
fn index_is_static(index: &[&Token]) -> bool {
    index.iter().all(|t| match &t.kind {
        TokenKind::Int(_) => true,
        TokenKind::Ident(name) => !name.chars().any(|c| c.is_ascii_lowercase()),
        TokenKind::Punct('.')
        | TokenKind::Punct('+')
        | TokenKind::Punct('-')
        | TokenKind::Punct('*')
        | TokenKind::Punct('/')
        | TokenKind::Punct('=') => true,
        _ => false,
    })
}

/// The first layer of the flow rule, token adjacency: a secret identifier
/// literally inside a sink's argument list.
fn rule_secret_egress_adjacent(
    config: &AnalyzeConfig,
    sig: &[&Token],
    out: &mut Vec<(u32, &'static str, String)>,
) {
    for i in 0..sig.len() {
        let Some(name) = sig[i].ident() else { continue };
        if !config.egress_sinks.iter().any(|s| s == name) {
            continue;
        }
        if i + 1 >= sig.len() || !sig[i + 1].is_punct('(') {
            continue;
        }
        // Skip the sink's own definition (`fn ocall(...)`).
        if i > 0 && sig[i - 1].ident() == Some("fn") {
            continue;
        }
        let Some(close) = matching(sig, i + 1, '(', ')') else {
            continue;
        };
        let mut j = i + 2;
        while j < close {
            if let Some(ident) = sig[j].ident() {
                // A sanctioned call (sealing API) may consume secrets.
                if config.sanctioned_egress.iter().any(|s| s == ident)
                    && j + 1 < close
                    && sig[j + 1].is_punct('(')
                {
                    if let Some(inner_close) = matching(sig, j + 1, '(', ')') {
                        j = inner_close + 1;
                        continue;
                    }
                }
                if config.secret_idents.iter().any(|s| s == ident) {
                    out.push((
                        sig[j].line,
                        rule::SECRET_EGRESS,
                        format!(
                            "secret `{ident}` reaches egress sink `{name}` — \
                             only sealed blobs may cross the boundary"
                        ),
                    ));
                }
            }
            j += 1;
        }
    }
}

/// L2, flow-aware: the adjacency layer above, plus taint propagation —
/// a binding derived from a secret-named value (through `let` chains
/// and helper-call arguments) reaching a sink argument is flagged even
/// though the secret's name no longer appears at the call site. Calls
/// into the sanctioned sealing API are taint barriers: their results
/// are clean and their argument lists are skipped.
fn rule_secret_egress(
    config: &AnalyzeConfig,
    sig: &[&Token],
    bodies: &[FnBody],
    out: &mut Vec<(u32, &'static str, String)>,
) {
    rule_secret_egress_adjacent(config, sig, out);

    let barriers: Vec<&str> = config
        .sanctioned_egress
        .iter()
        .map(|s| s.as_str())
        .collect();
    for body in bodies {
        let fa = FlowAnalysis::of(sig, body, &barriers);
        let taint = fa.taint_from(|v| config.secret_idents.iter().any(|s| s == &v.name));
        if taint.iter().all(|t| t.is_none()) {
            continue;
        }
        for site in sink_sites(sig, body, &config.egress_sinks) {
            let (i, close) = (site.ident, site.close);
            let sink = sig[i].ident().unwrap_or_default();
            for (j, tok) in sig.iter().enumerate().take(close).skip(i + 2) {
                let Some(ident) = tok.ident() else {
                    continue;
                };
                // Direct secret names are the adjacency layer's job;
                // reporting them here too would double-count.
                if config.secret_idents.iter().any(|s| s == ident) {
                    continue;
                }
                let Some(vid) = fa.value_at(j) else { continue };
                let Some(root) = taint[vid] else { continue };
                out.push((
                    sig[j].line,
                    rule::SECRET_EGRESS,
                    format!(
                        "secret `{}` reaches egress sink `{sink}` via `{ident}` \
                         (bound on line {}) — only sealed blobs may cross the boundary",
                        fa.values[root].name, fa.values[vid].def_line
                    ),
                ));
            }
        }
    }
}

/// One sink call site inside a function body.
struct SinkSite {
    /// Index of the sink's identifier token.
    ident: usize,
    /// Index of the matching `)` of its argument list.
    close: usize,
}

/// All call sites of `sinks` inside `body`, skipping definitions.
fn sink_sites(sig: &[&Token], body: &FnBody, sinks: &[String]) -> Vec<SinkSite> {
    let mut out = Vec::new();
    for i in body.body.0 + 1..body.body.1 {
        let Some(name) = sig[i].ident() else { continue };
        if !sinks.iter().any(|s| s == name) {
            continue;
        }
        if i + 1 >= sig.len() || !sig[i + 1].is_punct('(') {
            continue;
        }
        if i > 0 && sig[i - 1].ident() == Some("fn") {
            continue;
        }
        if let Some(close) = matching(sig, i + 1, '(', ')') {
            out.push(SinkSite { ident: i, close });
        }
    }
    out
}

/// Is the token at `k` an ordered comparison (`<`, `>`, `<=`, `>=`)?
/// Excludes shifts (`<<`, `>>`), arrows (`->`, `=>`) and equality.
fn ordered_cmp_at(sig: &[&Token], k: usize) -> bool {
    let Some(t) = sig.get(k) else { return false };
    if t.is_punct('<') {
        return !(sig.get(k + 1).is_some_and(|n| n.is_punct('<'))
            || k > 0 && sig[k - 1].is_punct('<'));
    }
    if t.is_punct('>') {
        return !sig.get(k + 1).is_some_and(|n| n.is_punct('>'))
            && !(k > 0
                && (sig[k - 1].is_punct('>')
                    || sig[k - 1].is_punct('-')
                    || sig[k - 1].is_punct('=')));
    }
    false
}

/// L6: in every function, values tainted by an `unseal` call must have
/// a counter/epoch field flow into an ordered comparison before any use
/// of the recovered key material. A *gate* is `tainted.counter`
/// adjacent to `<`/`>`/`<=`/`>=` (either side); a *use* is a
/// `tainted.key`-style projection or a `self.<field> = tainted`
/// adoption. Equality (`==`) is not a gate: it cannot order a replayed
/// counter against the current one.
fn rule_seal_rollback(
    config: &AnalyzeConfig,
    sig: &[&Token],
    bodies: &[FnBody],
    out: &mut Vec<(u32, &'static str, String)>,
) {
    for body in bodies {
        let fa = FlowAnalysis::of(sig, body, &[]);
        let taint = fa.taint_from(|v| {
            v.callees
                .iter()
                .any(|c| config.unseal_idents.iter().any(|u| u == c))
        });
        if taint.iter().all(|t| t.is_none()) {
            continue;
        }
        let mut gated: Vec<usize> = Vec::new();
        for (tok, vid) in fa.occurrences() {
            let Some(root) = taint[vid] else { continue };
            let vname = fa.values[vid].name.as_str();
            let projected = sig.get(tok + 1).is_some_and(|t| t.is_punct('.'));
            let field = if projected {
                sig.get(tok + 2).and_then(|t| t.ident())
            } else {
                None
            };
            if let Some(field) = field {
                if config.counter_fields.iter().any(|c| c == field)
                    && (ordered_cmp_at(sig, tok + 3)
                        || (tok > 0
                            && (ordered_cmp_at(sig, tok - 1)
                                || (sig[tok - 1].is_punct('=') && ordered_cmp_at(sig, tok - 2)))))
                {
                    gated.push(root);
                    continue;
                }
                if config.key_fields.iter().any(|k| k == field) && !gated.contains(&root) {
                    out.push((
                        sig[tok].line,
                        rule::SEAL_ROLLBACK,
                        format!(
                            "unsealed `{vname}` exposes key material `.{field}` before any \
                             rollback check — compare its monotonic counter (strictly \
                             greater) against the last-seen value first"
                        ),
                    ));
                    continue;
                }
            }
            if !gated.contains(&root) {
                if let Some(state_field) = adopted_into_state(sig, tok) {
                    out.push((
                        sig[tok].line,
                        rule::SEAL_ROLLBACK,
                        format!(
                            "unsealed `{vname}` is adopted into `self.{state_field}` before \
                             any rollback check — compare its monotonic counter (strictly \
                             greater) against the last-seen value first"
                        ),
                    ));
                }
            }
        }
    }
}

/// When the statement containing the occurrence at `tok` has the exact
/// shape `self . <field> = <expr>`, returns the field name — adopting a
/// tainted value into enclave state.
fn adopted_into_state<'a>(sig: &[&'a Token], tok: usize) -> Option<&'a str> {
    let mut start = tok;
    while start > 0 {
        let t = sig[start - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        start -= 1;
    }
    if sig.get(start)?.ident() != Some("self")
        || !sig.get(start + 1)?.is_punct('.')
        || !sig.get(start + 3)?.is_punct('=')
        || sig.get(start + 4).is_some_and(|t| t.is_punct('='))
    {
        return None;
    }
    // The occurrence must be on the right-hand side, not the target.
    if tok <= start + 3 {
        return None;
    }
    sig.get(start + 2)?.ident()
}

/// A nonce-ish name: any `_`-separated segment that is `nonce` or `iv`
/// once trailing digits are stripped (`nonce`, `iv2`, `session_nonce`,
/// `iv_bytes` — but not `derive` or `receiver`).
fn nonce_like(name: &str) -> bool {
    name.split('_').any(|seg| {
        let stem = seg.trim_end_matches(|c: char| c.is_ascii_digit());
        stem.eq_ignore_ascii_case("nonce") || stem.eq_ignore_ascii_case("iv")
    })
}

/// How one seal/encrypt argument is keyed for reuse detection.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum NonceKey {
    /// A resolved local value (alias chains followed).
    Value(usize),
    /// An unresolved nonce-named identifier (a const or static).
    Name(String),
    /// A projection path rooted at a value or unresolved name.
    Path(String, String),
    /// An array literal, rendered token-exactly (`[0u8;16]`).
    ArrayLit(String),
}

/// L7: within one function, the same nonce/IV — an identifier (alias
/// chains followed), a `x.nonce` projection, or an array literal —
/// reaching two distinct seal/encrypt call sites with no re-derivation
/// in between. Reassignment and `&mut` refreshes create new value
/// generations in the flow graph, so a refreshed nonce never collides
/// with its previous generation.
fn rule_seal_nonce_reuse(
    config: &AnalyzeConfig,
    sig: &[&Token],
    bodies: &[FnBody],
    out: &mut Vec<(u32, &'static str, String)>,
) {
    for body in bodies {
        let fa = FlowAnalysis::of(sig, body, &[]);
        let mut seen: std::collections::HashMap<NonceKey, (u32, usize)> =
            std::collections::HashMap::new();
        for (site_no, site) in sink_sites(sig, body, &config.nonce_sinks)
            .into_iter()
            .enumerate()
        {
            let sink = sig[site.ident].ident().unwrap_or_default();
            for (astart, aend) in split_args(sig, site.ident + 1, site.close) {
                let Some((key, desc)) = classify_nonce_arg(sig, &fa, astart, aend) else {
                    continue;
                };
                let line = sig[astart].line;
                match seen.get(&key) {
                    Some(&(first_line, first_site)) if first_site != site_no => {
                        out.push((
                            line,
                            rule::SEAL_NONCE_REUSE,
                            format!(
                                "nonce `{desc}` reaches a second `{sink}` call site \
                                 (first used on line {first_line}) without re-derivation \
                                 from a fresh source — every seal needs a fresh nonce"
                            ),
                        ));
                    }
                    Some(_) => {}
                    None => {
                        seen.insert(key, (line, site_no));
                    }
                }
            }
        }
    }
}

/// Splits the argument list between `open` (the `(`) and `close` into
/// top-level `(start, end)` token ranges, skipping empty arguments.
fn split_args(sig: &[&Token], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = open + 1;
    for (k, tok) in sig.iter().enumerate().take(close).skip(open + 1) {
        match &tok.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1)
            }
            TokenKind::Punct(',') if depth == 0 => {
                if start < k {
                    out.push((start, k));
                }
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < close {
        out.push((start, close));
    }
    out
}

/// Classifies one argument as a trackable nonce, returning its reuse
/// key and display name. Arguments that are fresh by construction
/// (calls) or untrackable (string literals, whose contents the lexer
/// drops) return `None`.
fn classify_nonce_arg(
    sig: &[&Token],
    fa: &FlowAnalysis,
    start: usize,
    end: usize,
) -> Option<(NonceKey, String)> {
    // Strip leading `&`, `mut`, `*`.
    let mut s = start;
    while s < end && (sig[s].is_punct('&') || sig[s].is_punct('*') || sig[s].ident() == Some("mut"))
    {
        s += 1;
    }
    if s >= end {
        return None;
    }
    // Array literal: render token-exactly.
    if sig[s].is_punct('[') {
        let mut rendered = String::new();
        for t in &sig[s..end] {
            match &t.kind {
                TokenKind::Ident(name) => rendered.push_str(name),
                TokenKind::Int(text) => rendered.push_str(text),
                TokenKind::Punct(c) => rendered.push(*c),
                _ => return None,
            }
        }
        return Some((NonceKey::ArrayLit(rendered.clone()), rendered));
    }
    let name = sig[s].ident()?;
    // A call (`fresh_nonce()`, `rng.gen()`) derives a fresh value.
    if sig[s + 1..end].iter().any(|t| t.is_punct('(')) {
        return None;
    }
    // Projection chain `x.nonce` / `self.iv`: keyed by root + path when
    // the last segment is nonce-named.
    if s + 2 < end && sig[s + 1].is_punct('.') {
        let segments: Vec<&str> = sig[s..end].iter().filter_map(|t| t.ident()).collect();
        let last = segments.last()?;
        if !nonce_like(last) {
            return None;
        }
        let path = segments.join(".");
        let root = match fa.value_at(s) {
            Some(vid) => format!("v{}", fa.resolve_alias(vid)),
            None => name.to_string(),
        };
        return Some((NonceKey::Path(root, path.clone()), path));
    }
    if s + 1 != end {
        return None; // something more complex than a bare identifier
    }
    match fa.value_at(s) {
        Some(vid) => {
            let rid = fa.resolve_alias(vid);
            if nonce_like(name) || nonce_like(&fa.values[rid].name) {
                Some((NonceKey::Value(rid), name.to_string()))
            } else {
                None
            }
        }
        None if nonce_like(name) => Some((NonceKey::Name(name.to_string()), name.to_string())),
        None => None,
    }
}

fn rule_float_accounting(sig: &[&Token], out: &mut Vec<(u32, &'static str, String)>) {
    for t in sig {
        match &t.kind {
            TokenKind::Float => out.push((
                t.line,
                rule::FLOAT_ACCOUNTING,
                "float literal in an accounting path — use exact integer arithmetic".to_owned(),
            )),
            TokenKind::Ident(name) if name == "f64" || name == "f32" => out.push((
                t.line,
                rule::FLOAT_ACCOUNTING,
                format!("{name} in an accounting path — use exact integer arithmetic"),
            )),
            _ => {}
        }
    }
}

fn rule_wall_clock(
    config: &AnalyzeConfig,
    sig: &[&Token],
    out: &mut Vec<(u32, &'static str, String)>,
) {
    for t in sig {
        let Some(name) = t.ident() else { continue };
        if config.clock_idents.iter().any(|c| c == name) {
            out.push((
                t.line,
                rule::WALL_CLOCK,
                format!(
                    "`{name}` breaks determinism — all time/randomness must come from \
                     the netsim virtual clock or a seeded RNG"
                ),
            ));
        }
    }
}

/// How the statement containing a call sinks the call's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StatementSink {
    /// Bound to a named place or returned — somebody can still check it.
    Named,
    /// `let _ =` / `_ =` — explicitly thrown away.
    Underscore,
    /// A bare expression statement: nothing receives the value.
    Bare,
}

/// Classifies the statement whose last expression is the call starting
/// at `call_start`, scanning back to the statement boundary (`;`, `{`
/// or `}`).
fn statement_sink(sig: &[&Token], call_start: usize) -> StatementSink {
    let mut start = call_start;
    while start > 0 {
        let t = sig[start - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        start -= 1;
    }
    let prefix = &sig[start..call_start];
    let Some(eq) = prefix.iter().rposition(|t| t.is_punct('=')) else {
        let returns = prefix
            .iter()
            .any(|t| matches!(t.ident(), Some("return" | "break")));
        return if returns {
            StatementSink::Named
        } else {
            StatementSink::Bare
        };
    };
    if eq > 0 && prefix[eq - 1].ident() == Some("_") {
        StatementSink::Underscore
    } else {
        StatementSink::Named
    }
}

fn rule_attest_unchecked(
    config: &AnalyzeConfig,
    sig: &[&Token],
    out: &mut Vec<(u32, &'static str, String)>,
) {
    for i in 0..sig.len() {
        let Some(name) = sig[i].ident() else { continue };
        if !config.attest_verify_idents.iter().any(|v| v == name) {
            continue;
        }
        if i + 1 >= sig.len() || !sig[i + 1].is_punct('(') {
            continue;
        }
        // Skip the definition itself (`fn verify(...)`).
        if i > 0 && sig[i - 1].ident() == Some("fn") {
            continue;
        }
        let Some(close) = matching(sig, i + 1, '(', ')') else {
            continue;
        };
        // `.unwrap_or_default()` fabricates a default verdict on
        // failure — discarding the error no matter what receives the
        // fabricated value.
        if sig.get(close + 1).is_some_and(|t| t.is_punct('.'))
            && sig.get(close + 2).and_then(|t| t.ident()) == Some("unwrap_or_default")
            && sig.get(close + 3).is_some_and(|t| t.is_punct('('))
        {
            out.push((
                sig[i].line,
                rule::ATTEST_UNCHECKED,
                format!(
                    "attestation result of `{name}(...)` is discarded via \
                     `.unwrap_or_default()` — a failed verification must be \
                     handled, not replaced by a fabricated default"
                ),
            ));
            continue;
        }
        // `if let Err(_) = verify(..) {}` with an empty body and no
        // `else`: the failure branch exists but does nothing.
        if empty_if_let_err(sig, i, close) {
            out.push((
                sig[i].line,
                rule::ATTEST_UNCHECKED,
                format!(
                    "attestation result of `{name}(...)` is discarded via an empty \
                     `if let Err(_)` body — a failed verification must be handled, \
                     not dropped"
                ),
            ));
            continue;
        }
        // A trailing `.ok()` / `.err()` converts the `Result` away;
        // dropping the conversion is still discarding the verdict.
        let mut end = close;
        let mut via = "a bare `;`";
        if close + 3 < sig.len() && sig[close + 1].is_punct('.') {
            if let Some(m) = sig[close + 2].ident() {
                if (m == "ok" || m == "err") && sig[close + 3].is_punct('(') {
                    if let Some(mclose) = matching(sig, close + 3, '(', ')') {
                        end = mclose;
                        via = if m == "ok" { "`.ok()`" } else { "`.err()`" };
                    }
                }
            }
        }
        // Anything but `;` next — `?`, a longer chain, a match/if
        // scrutinee, an argument position — consumes the result.
        if !sig.get(end + 1).is_some_and(|t| t.is_punct(';')) {
            continue;
        }
        match statement_sink(sig, i) {
            StatementSink::Named => continue,
            StatementSink::Underscore => via = "`let _ =`",
            StatementSink::Bare => {}
        }
        out.push((
            sig[i].line,
            rule::ATTEST_UNCHECKED,
            format!(
                "attestation result of `{name}(...)` is discarded via {via} — \
                 a failed verification must be handled, not dropped"
            ),
        ));
    }
}

/// True when the call whose identifier is at `call_start` (argument
/// list closing at `close`) is the scrutinee of an
/// `if let Err(_) = .. { }` with an empty body and no `else`.
fn empty_if_let_err(sig: &[&Token], call_start: usize, close: usize) -> bool {
    let mut start = call_start;
    while start > 0 {
        let t = sig[start - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        start -= 1;
    }
    let prefix = &sig[start..call_start];
    let header = prefix.len() >= 7
        && prefix[0].ident() == Some("if")
        && prefix[1].ident() == Some("let")
        && prefix[2].ident() == Some("Err")
        && prefix[3].is_punct('(')
        && prefix[4].ident() == Some("_")
        && prefix[5].is_punct(')')
        && prefix[6].is_punct('=');
    header
        && sig.get(close + 1).is_some_and(|t| t.is_punct('{'))
        && sig.get(close + 2).is_some_and(|t| t.is_punct('}'))
        && sig.get(close + 3).and_then(|t| t.ident()) != Some("else")
}

/// Index of the token matching the opener at `open` (which must be
/// `open_c`), honouring nesting.
fn matching(sig: &[&Token], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in sig.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AnalyzeConfig {
        let mut c = AnalyzeConfig::repo();
        c.enclave_resident = vec!["enclave.rs".to_owned()];
        c.accounting = vec!["cost.rs".to_owned()];
        c
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    fn lines_of(findings: &[Finding]) -> Vec<u32> {
        findings.iter().map(|f| f.line).collect()
    }

    #[test]
    fn unwrap_in_enclave_file_flagged() {
        let f = scan_file(&cfg(), "enclave.rs", "fn f(x: Option<u8>) { x.unwrap(); }");
        assert_eq!(rules_of(&f), vec![rule::ENCLAVE_ABORT]);
    }

    #[test]
    fn unwrap_outside_enclave_set_ignored() {
        let f = scan_file(&cfg(), "host.rs", "fn f(x: Option<u8>) { x.unwrap(); }");
        assert!(f.is_empty());
    }

    #[test]
    fn unwrap_in_test_mod_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(x: Option<u8>) { x.unwrap(); }\n}\n";
        let f = scan_file(&cfg(), "enclave.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_fn_is_exempt_but_code_after_is_not() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn prod(x: Option<u8>) { x.unwrap(); }\n";
        let f = scan_file(&cfg(), "enclave.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn panic_macros_flagged() {
        let src = "fn f() { panic!(\"boom\"); }\nfn g() { unreachable!() }\n";
        let f = scan_file(&cfg(), "enclave.rs", src);
        assert_eq!(rules_of(&f), vec![rule::ENCLAVE_ABORT, rule::ENCLAVE_ABORT]);
    }

    #[test]
    fn data_dependent_index_flagged_literal_allowed() {
        let src = "fn f(b: &[u8], n: usize) {\n\
                   let a = b[0];\n\
                   let c = &b[..32];\n\
                   let d = &b[2..2 + n];\n\
                   let e = b[n];\n\
                   let g = &b[..CELL_LEN];\n\
                   }\n";
        let f = scan_file(&cfg(), "enclave.rs", src);
        assert_eq!(rules_of(&f), vec![rule::ENCLAVE_INDEX, rule::ENCLAVE_INDEX]);
        assert_eq!(f[0].line, 4);
        assert_eq!(f[1].line, 5);
    }

    #[test]
    fn array_types_and_macros_not_flagged() {
        let src = "fn f(x: &mut [u8], y: [u8; 32]) -> Vec<u8> { vec![0u8; 4] }\n\
                   #[cfg(feature = \"x\")]\nfn g() {}\n";
        let f = scan_file(&cfg(), "enclave.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn secret_into_ocall_flagged_sealed_ok() {
        let src = "fn f(ctx: &mut Ctx, device_key: &[u8; 32]) {\n\
                   ctx.ocall(\"store\", device_key);\n\
                   ctx.ocall(\"store\", &seal(device_key, b\"l\", n, p).to_bytes());\n\
                   }\n";
        let f = scan_file(&cfg(), "anyfile.rs", src);
        assert_eq!(rules_of(&f), vec![rule::SECRET_EGRESS]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn floats_flagged_only_in_accounting_files() {
        let src = "fn f() -> f64 { 1.8 }\n";
        assert_eq!(scan_file(&cfg(), "cost.rs", src).len(), 2);
        assert!(scan_file(&cfg(), "other.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_flagged_everywhere_but_exempt_file() {
        let mut c = cfg();
        c.clock_exempt = vec!["time.rs".to_owned()];
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(scan_file(&c, "host.rs", src).len(), 1);
        assert!(scan_file(&c, "time.rs", src).is_empty());
    }

    #[test]
    fn line_waiver_covers_line_below() {
        let src = "// teenet-analyze: allow(enclave-abort) -- infallible by construction\n\
                   fn f(x: Option<u8>) { x.unwrap(); }\n";
        let f = scan_file(&cfg(), "enclave.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].waived.as_deref(), Some("infallible by construction"));
    }

    #[test]
    fn block_waiver_covers_block_only() {
        let src = "// teenet-analyze: allow-block(enclave-abort) -- host-side helper\n\
                   fn f(x: Option<u8>) {\n x.unwrap();\n}\n\
                   fn g(x: Option<u8>) { x.unwrap(); }\n";
        let f = scan_file(&cfg(), "enclave.rs", src);
        let unwaived: Vec<_> = f.iter().filter(|x| x.waived.is_none()).collect();
        assert_eq!(f.len(), 2);
        assert_eq!(unwaived.len(), 1);
        assert_eq!(unwaived[0].line, 5);
    }

    #[test]
    fn file_waiver_covers_everything() {
        let src = "// teenet-analyze: allow-file(enclave-index) -- table indices bounded by construction\n\
                   fn f(t: &[u8], i: usize) { let _ = t[i]; }\n\
                   fn g(t: &[u8], i: usize) { let _ = t[i]; }\n";
        let f = scan_file(&cfg(), "enclave.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.waived.is_some()));
    }

    #[test]
    fn unused_waiver_is_a_finding() {
        let src = "// teenet-analyze: allow(enclave-abort) -- nothing here\nfn f() {}\n";
        let f = scan_file(&cfg(), "enclave.rs", src);
        assert_eq!(rules_of(&f), vec![rule::UNUSED_WAIVER]);
    }

    #[test]
    fn malformed_waivers_are_findings() {
        for bad in [
            "// teenet-analyze: allow(enclave-abort)\nfn f() {}\n",
            "// teenet-analyze: allow(no-such-rule) -- reason\nfn f() {}\n",
            "// teenet-analyze: permit(enclave-abort) -- reason\nfn f() {}\n",
            "// teenet-analyze: allow() -- reason\nfn f() {}\n",
        ] {
            let f = scan_file(&cfg(), "enclave.rs", bad);
            assert_eq!(rules_of(&f), vec![rule::BAD_WAIVER], "source: {bad}");
        }
    }

    #[test]
    fn doc_comments_never_carry_live_waivers() {
        let src = "/// teenet-analyze: allow(enclave-abort) -- doc example\n\
                   //! teenet-analyze: allow(bogus-rule) -- doc example\n\
                   fn f(x: Option<u8>) { x.unwrap(); }\n";
        let f = scan_file(&cfg(), "enclave.rs", src);
        assert_eq!(rules_of(&f), vec![rule::ENCLAVE_ABORT]);
        assert!(f[0].waived.is_none());
    }

    #[test]
    fn waiver_does_not_cover_other_rule() {
        let src = "// teenet-analyze: allow(enclave-index) -- wrong rule\n\
                   fn f(x: Option<u8>) { x.unwrap(); }\n";
        let f = scan_file(&cfg(), "enclave.rs", src);
        // The unwrap stays unwaived AND the waiver is unused.
        assert_eq!(f.len(), 2);
        assert!(f
            .iter()
            .any(|x| x.rule == rule::ENCLAVE_ABORT && x.waived.is_none()));
        assert!(f.iter().any(|x| x.rule == rule::UNUSED_WAIVER));
    }

    #[test]
    fn discarded_attestation_verdicts_flagged() {
        let src = "fn f(challenger: Challenger, r: &Resp, pk: &Key) {\n\
                   let _ = challenger.verify(r, pk, None);\n\
                   gate.verify(r, pk, None).ok();\n\
                   gate.verify(r, pk, None);\n\
                   attest_enclave(&mut p, id, &c).err();\n\
                   mutual_attest(&mut a, &mut b);\n\
                   }\n";
        let f = scan_file(&cfg(), "host.rs", src);
        assert_eq!(rules_of(&f), vec![rule::ATTEST_UNCHECKED; 5], "{f:?}");
        assert_eq!(lines_of(&f), vec![2, 3, 4, 5, 6]);
        assert!(f[0].message.contains("`let _ =`"));
        assert!(f[1].message.contains("`.ok()`"));
        assert!(f[2].message.contains("a bare `;`"));
    }

    #[test]
    fn discarded_attestation_verdict_spanning_lines_flagged() {
        // The regex a grep would use stops at the line break; the
        // token-level scan does not.
        let src = "fn f() {\n\
                   challenger\n  .verify(\n    &response,\n    &pk,\n    None,\n  )\n  .ok();\n\
                   }\n";
        let f = scan_file(&cfg(), "host.rs", src);
        assert_eq!(rules_of(&f), vec![rule::ATTEST_UNCHECKED]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn consumed_attestation_verdicts_pass() {
        let src = "fn verify(x: &Resp) -> Result<(), E> { Ok(()) }\n\
                   fn f(c: Challenger, r: &Resp, pk: &Key) -> Result<Outcome, E> {\n\
                   let outcome = c.verify(r, pk, None)?;\n\
                   quote.verify(pk).map_err(E::from)?;\n\
                   if gate.verify(r, pk, None).is_err() { return Err(E::Bad); }\n\
                   match attest_enclave(&mut p, id, &cfg) {\n Ok(ch) => use_channel(ch),\n Err(e) => reject(e),\n }\n\
                   let maybe = mutual_attest(&mut a, &mut b).ok();\n\
                   record(attest_enclave(&mut p, id, &cfg));\n\
                   return c.verify(r, pk, None);\n\
                   }\n";
        let f = scan_file(&cfg(), "host.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn attest_unchecked_applies_in_tests_and_is_waivable() {
        // Unlike L1, test scopes are NOT exempt: a test that drops the
        // verdict asserts nothing.
        let src = "#[test]\nfn t() { gate.verify(r, pk, None); }\n";
        let f = scan_file(&cfg(), "host.rs", src);
        assert_eq!(rules_of(&f), vec![rule::ATTEST_UNCHECKED]);

        let src = "// teenet-analyze: allow(attestation-unchecked) -- probing the reject path\n\
                   fn t() { gate.verify(r, pk, None); }\n";
        let f = scan_file(&cfg(), "host.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].waived.as_deref(), Some("probing the reject path"));
    }

    #[test]
    fn findings_sorted_and_deterministic() {
        let src = "fn f(x: Option<u8>, b: &[u8], n: usize) { let _ = b[n]; x.unwrap(); }\n";
        let a = scan_file(&cfg(), "enclave.rs", src);
        let b = scan_file(&cfg(), "enclave.rs", src);
        assert_eq!(a, b);
        assert_eq!(rules_of(&a), vec![rule::ENCLAVE_ABORT, rule::ENCLAVE_INDEX]);
    }

    // ---- seal-rollback -------------------------------------------------

    #[test]
    fn gated_unseal_passes_seal_rollback() {
        // The keystore `activate` shape: counter compared before use.
        let src = "fn activate(&mut self, input: &[u8]) -> Result<(), E> {\n\
                       let blob = SealedBlob::from_bytes(input)?;\n\
                       let plain = ctx.unseal(KeyRequest::SealEnclave, &blob)?;\n\
                       let slot = SealedSlot::from_bytes(&plain)?;\n\
                       if slot.counter <= self.last_counter { return Err(E::Rollback); }\n\
                       self.last_counter = slot.counter;\n\
                       self.active = Some(Active { material: slot.key });\n\
                       Ok(())\n\
                   }\n";
        let f = scan_file(&cfg(), "enclave.rs", src);
        assert!(
            f.iter().all(|x| x.rule != rule::SEAL_ROLLBACK),
            "gate precedes use: {f:?}"
        );
    }

    #[test]
    fn ungated_key_projection_fires_seal_rollback() {
        let src = "fn activate(&mut self, input: &[u8]) -> Result<(), E> {\n\
                       let plain = ctx.unseal(KeyRequest::SealEnclave, input)?;\n\
                       let slot = SealedSlot::from_bytes(&plain)?;\n\
                       self.active = Some(Active { material: slot.key });\n\
                       Ok(())\n\
                   }\n";
        let f = scan_file(&cfg(), "enclave.rs", src);
        let hits: Vec<&Finding> = f.iter().filter(|x| x.rule == rule::SEAL_ROLLBACK).collect();
        assert_eq!(hits.len(), 1, "{f:?}");
        assert_eq!(hits[0].line, 4);
        assert!(hits[0].message.contains("`.key`"));
    }

    #[test]
    fn ungated_state_adoption_fires_seal_rollback() {
        // The tor RESTORE_STATE shape before the fix.
        let src = "fn restore(&mut self, input: &[u8]) -> Result<u32, E> {\n\
                       let blob = SealedBlob::from_bytes(input)?;\n\
                       let plain = ctx.unseal(KeyRequest::SealEnclave, &blob)?;\n\
                       let len = plain.len() as u32;\n\
                       self.state = plain;\n\
                       Ok(len)\n\
                   }\n";
        let f = scan_file(&cfg(), "enclave.rs", src);
        let hits: Vec<&Finding> = f.iter().filter(|x| x.rule == rule::SEAL_ROLLBACK).collect();
        assert_eq!(hits.len(), 1, "{f:?}");
        assert_eq!(hits[0].line, 5);
        assert!(hits[0].message.contains("self.state"));
    }

    #[test]
    fn equality_comparison_is_not_a_rollback_gate() {
        let src = "fn restore(&mut self, input: &[u8]) {\n\
                       let slot = ctx.unseal(K::Seal, input);\n\
                       if slot.counter == self.last { return; }\n\
                       self.state = slot;\n\
                   }\n";
        let f = scan_file(&cfg(), "enclave.rs", src);
        assert!(
            f.iter().any(|x| x.rule == rule::SEAL_ROLLBACK),
            "== cannot order a replayed counter: {f:?}"
        );
    }

    #[test]
    fn seal_rollback_only_in_enclave_files_and_not_in_tests() {
        let src = "fn restore(&mut self, input: &[u8]) {\n\
                       let plain = ctx.unseal(K::Seal, input);\n\
                       self.state = plain;\n\
                   }\n";
        assert!(scan_file(&cfg(), "host.rs", src)
            .iter()
            .all(|x| x.rule != rule::SEAL_ROLLBACK));
        let test_src = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(scan_file(&cfg(), "enclave.rs", &test_src)
            .iter()
            .all(|x| x.rule != rule::SEAL_ROLLBACK));
    }

    // ---- seal-nonce-reuse ----------------------------------------------

    #[test]
    fn nonce_ident_reaching_two_seals_fires() {
        let src = "fn f(key: &[u8]) {\n\
                       let nonce = [7u8; 16];\n\
                       seal(key, &nonce, b\"a\");\n\
                       seal(key, &nonce, b\"b\");\n\
                   }\n";
        let f = scan_file(&cfg(), "host.rs", src);
        let hits: Vec<&Finding> = f
            .iter()
            .filter(|x| x.rule == rule::SEAL_NONCE_REUSE)
            .collect();
        assert_eq!(hits.len(), 1, "{f:?}");
        assert_eq!(hits[0].line, 4);
        assert!(hits[0].message.contains("`nonce`"));
        assert!(hits[0].message.contains("line 3"));
    }

    #[test]
    fn refreshed_nonce_is_clean() {
        let src = "fn f(key: &[u8]) {\n\
                       let mut nonce = [7u8; 16];\n\
                       seal(key, &nonce, b\"a\");\n\
                       rng.fill(&mut nonce);\n\
                       seal(key, &nonce, b\"b\");\n\
                   }\n";
        let f = scan_file(&cfg(), "host.rs", src);
        assert!(
            f.iter().all(|x| x.rule != rule::SEAL_NONCE_REUSE),
            "&mut refresh re-derives: {f:?}"
        );
    }

    #[test]
    fn reassigned_nonce_is_clean_but_alias_is_not() {
        let clean = "fn f(k: &[u8]) {\n\
                         let mut iv = mk();\n\
                         ctr_apply(k, &iv, data);\n\
                         iv = mk();\n\
                         ctr_apply(k, &iv, data);\n\
                     }\n";
        assert!(scan_file(&cfg(), "host.rs", clean)
            .iter()
            .all(|x| x.rule != rule::SEAL_NONCE_REUSE));

        let alias = "fn f(k: &[u8]) {\n\
                         let nonce = mk();\n\
                         ctr_apply(k, &nonce, data);\n\
                         let same = nonce;\n\
                         ctr_apply(k, &same, data);\n\
                     }\n";
        let f = scan_file(&cfg(), "host.rs", alias);
        let hits: Vec<&Finding> = f
            .iter()
            .filter(|x| x.rule == rule::SEAL_NONCE_REUSE)
            .collect();
        assert_eq!(hits.len(), 1, "alias chains are followed: {f:?}");
        assert_eq!(hits[0].line, 5);
    }

    #[test]
    fn array_literal_nonces_compare_token_exactly() {
        let reused = "fn f(k: &[u8]) { seal(k, [0u8; 16], a); seal(k, [0u8; 16], b); }\n";
        let f = scan_file(&cfg(), "host.rs", reused);
        assert_eq!(
            f.iter()
                .filter(|x| x.rule == rule::SEAL_NONCE_REUSE)
                .count(),
            1,
            "{f:?}"
        );

        let distinct = "fn f(k: &[u8]) { seal(k, [1u8; 16], a); seal(k, [2u8; 16], b); }\n";
        assert!(scan_file(&cfg(), "host.rs", distinct)
            .iter()
            .all(|x| x.rule != rule::SEAL_NONCE_REUSE));
    }

    #[test]
    fn non_nonce_args_are_not_tracked() {
        // `apply` with no nonce-named argument (tor relay crypto).
        let src = "fn f(k: &[u8]) { apply(k, payload); apply(k, payload); }\n";
        assert!(scan_file(&cfg(), "host.rs", src)
            .iter()
            .all(|x| x.rule != rule::SEAL_NONCE_REUSE));
    }

    // ---- flow-aware secret-egress --------------------------------------

    #[test]
    fn renamed_secret_is_caught_through_its_binding() {
        // No secret-named token sits next to the sink: only taint tracked
        // through the `let` finds the leak.
        let src = "fn stage(device_key: &[u8], ctx: &mut Ctx) {\n\
                       let staged = device_key.to_vec();\n\
                       ctx.ocall(\"persist\", &staged);\n\
                   }\n";
        let f = scan_file(&cfg(), "host.rs", src);
        let hits: Vec<&Finding> = f.iter().filter(|x| x.rule == rule::SECRET_EGRESS).collect();
        assert_eq!(hits.len(), 1, "{f:?}");
        assert_eq!(hits[0].line, 3);
        assert!(hits[0].message.contains("`device_key`"));
        assert!(hits[0].message.contains("`staged`"));
        assert!(hits[0].message.contains("line 2"));
    }

    #[test]
    fn sealed_intermediate_stays_clean() {
        let src = "fn stage(device_key: &[u8], ctx: &mut Ctx) {\n\
                       let blob = seal(device_key, b\"slot\");\n\
                       let bytes = blob.to_bytes();\n\
                       ctx.ocall(\"persist\", &bytes);\n\
                   }\n";
        let f = scan_file(&cfg(), "host.rs", src);
        assert!(
            f.iter().all(|x| x.rule != rule::SECRET_EGRESS),
            "the sealing barrier cleans taint: {f:?}"
        );
    }

    #[test]
    fn direct_secret_in_sink_reported_once() {
        let src = "fn f(device_key: &[u8], ctx: &mut Ctx) { ctx.ocall(\"x\", device_key); }\n";
        let f = scan_file(&cfg(), "host.rs", src);
        assert_eq!(
            f.iter().filter(|x| x.rule == rule::SECRET_EGRESS).count(),
            1,
            "adjacency and flow layers must not double-count: {f:?}"
        );
    }

    // ---- hardened attestation-unchecked --------------------------------

    #[test]
    fn empty_if_let_err_body_fires() {
        let src = "fn f() { if let Err(_) = gate.verify(r, pk, None) {} }\n";
        let f = scan_file(&cfg(), "host.rs", src);
        let hits: Vec<&Finding> = f
            .iter()
            .filter(|x| x.rule == rule::ATTEST_UNCHECKED)
            .collect();
        assert_eq!(hits.len(), 1, "{f:?}");
        assert!(hits[0].message.contains("empty `if let Err(_)` body"));
    }

    #[test]
    fn handled_if_let_err_is_clean() {
        let handled = "fn f() { if let Err(e) = gate.verify(r, pk, None) { log(e); } }\n";
        assert!(scan_file(&cfg(), "host.rs", handled)
            .iter()
            .all(|x| x.rule != rule::ATTEST_UNCHECKED));
        let non_empty = "fn f() { if let Err(_) = gate.verify(r, pk, None) { bail(); } }\n";
        assert!(scan_file(&cfg(), "host.rs", non_empty)
            .iter()
            .all(|x| x.rule != rule::ATTEST_UNCHECKED));
        let with_else = "fn f() { if let Err(_) = gate.verify(r, pk, None) {} else { go(); } }\n";
        assert!(scan_file(&cfg(), "host.rs", with_else)
            .iter()
            .all(|x| x.rule != rule::ATTEST_UNCHECKED));
    }

    #[test]
    fn unwrap_or_default_discard_fires() {
        let src = "fn f() { let ch = gate.verify(r, pk, None).unwrap_or_default(); use_it(ch); }\n";
        let f = scan_file(&cfg(), "host.rs", src);
        let hits: Vec<&Finding> = f
            .iter()
            .filter(|x| x.rule == rule::ATTEST_UNCHECKED)
            .collect();
        assert_eq!(hits.len(), 1, "{f:?}");
        assert!(hits[0].message.contains("unwrap_or_default"));
    }

    #[test]
    fn rule_metadata_covers_every_rule_id() {
        let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        for id in rule::WAIVABLE {
            assert!(ids.contains(&id));
        }
        assert!(ids.contains(&rule::BAD_WAIVER));
        assert!(ids.contains(&rule::UNUSED_WAIVER));
        // Waivable rules carry waiver syntax; meta rules do not.
        for info in &RULES {
            assert_eq!(
                info.waiver.is_some(),
                rule::WAIVABLE.contains(&info.id),
                "{}",
                info.id
            );
        }
    }
}
