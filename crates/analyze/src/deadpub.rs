//! Rule L8, `dead-pub`: public library API that nothing outside test
//! code names.
//!
//! L1–L7 decide one file at a time; this rule needs the whole workspace,
//! so it runs once over every `(rel_path, source)` pair the scan
//! collected and hands each file its findings for the usual per-file
//! waiver resolution.
//!
//! **Items checked.** `pub` `fn`/`struct`/`enum`/`trait`/`type`/`const`/
//! `static` (with `const`/`unsafe`/`async` modifiers) defined outside
//! test scopes in a library crate's `crates/*/src/`, binary targets
//! (`src/bin/`, `src/main.rs`) excepted. `pub(crate)` and other
//! restricted visibilities are the compiler's business (`dead_code`).
//!
//! **Users.** Every scanned file: crate sources, binaries, examples, the
//! integration suites under `tests/` (their reference oracles and
//! validators are live API) and `benchmark/src`. An identifier token
//! counts unless it sits in a `use`/`pub use` declaration — re-exporting
//! a name is not using it — or in a `#[cfg(test)]`/`#[test]` scope
//! outside an integration suite, where every use is test-gated.
//! Comments and string literals never count, so a doc comment that
//! promises behaviour does not keep the code that claims it alive.
//!
//! The scan is by name, not by resolved path: two items sharing a name
//! keep each other alive. That errs towards silence, never towards a
//! false finding on code that is called.

use std::collections::HashMap;

use crate::lexer::{lex, Token, TokenKind};
use crate::rules::{rule, test_scopes, RawFinding};

/// Item keywords whose `pub` definitions L8 checks.
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// True for a library crate's source file: `crates/<crate>/src/**`,
/// minus binary targets.
fn is_library_source(parts: &[&str]) -> bool {
    match parts {
        ["crates", _, "src", rest @ ..] => rest != ["main.rs"] && rest.first() != Some(&"bin"),
        _ => false,
    }
}

/// True for a file of an integration suite (`tests/**`,
/// `crates/<crate>/tests/**`): its `#[test]` functions are users.
fn is_integration_suite(parts: &[&str]) -> bool {
    matches!(parts, ["tests", ..] | ["crates", _, "tests", ..])
}

/// For a `pub` token at `at`: the line, item keyword and name of the
/// item, when `pub` introduces a checked one.
fn pub_item(sig: &[&Token], at: usize) -> Option<(u32, &'static str, String)> {
    let is_kw = |k: &str| ITEM_KEYWORDS.contains(&k) || matches!(k, "unsafe" | "async");
    let mut j = at + 1;
    // Modifiers: `const fn`, `unsafe fn`, `async fn`, `unsafe trait`, ...
    while matches!(sig.get(j)?.ident()?, "const" | "unsafe" | "async")
        && sig.get(j + 1)?.ident().is_some_and(is_kw)
    {
        j += 1;
    }
    let kw = sig[j].ident()?;
    let kind = *ITEM_KEYWORDS.iter().find(|k| **k == kw)?;
    let skip_mut = kw == "static" && sig.get(j + 1)?.ident() == Some("mut");
    let name = *sig.get(j + 1 + usize::from(skip_mut))?;
    let ident = name.ident().filter(|&n| n != "_")?;
    Some((name.line, kind, ident.to_owned()))
}

/// Runs L8 over a whole workspace. Returns each file's raw findings,
/// parallel to `files`.
pub fn dead_pub(files: &[(String, String)]) -> Vec<Vec<RawFinding>> {
    let mut uses: HashMap<String, usize> = HashMap::new();
    let mut defs = Vec::with_capacity(files.len());
    for (rel_path, src) in files {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let tokens = lex(src);
        let sig: Vec<&Token> = tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::Comment(_)))
            .collect();
        let tests = if is_integration_suite(&parts) {
            Vec::new()
        } else {
            test_scopes(&sig)
        };
        let library = is_library_source(&parts);
        let mut file_defs = Vec::new();
        let mut i = 0;
        while i < sig.len() {
            let t = sig[i];
            if tests.iter().any(|&(a, b)| (a..=b).contains(&t.line)) {
                i += 1;
                continue;
            }
            match t.ident() {
                Some("use") => {
                    while i < sig.len() && !sig[i].is_punct(';') {
                        i += 1;
                    }
                }
                Some("pub") if library => file_defs.extend(pub_item(&sig, i)),
                Some(name) => *uses.entry(name.to_owned()).or_default() += 1,
                None => {}
            }
            i += 1;
        }
        defs.push(file_defs);
    }
    defs.into_iter()
        .map(|file_defs| {
            file_defs
                .into_iter()
                // The definition's own name token is the one use allowed.
                .filter(|(_, _, name)| uses.get(name).copied().unwrap_or(0) <= 1)
                .map(|(line, kind, name)| {
                    let message = format!(
                        "`pub {kind} {name}` is named nowhere outside test code — \
                         delete it or move it into #[cfg(test)]"
                    );
                    (line, rule::DEAD_PUB, message)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::config::AnalyzeConfig;
    use crate::rules::{rule, Finding};
    use crate::scan_sources;

    fn scan(files: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|&(p, s)| (p.to_owned(), s.to_owned()))
            .collect();
        scan_sources(&AnalyzeConfig::repo(), &files).findings
    }

    fn dead(findings: &[Finding]) -> Vec<(&str, u32)> {
        findings
            .iter()
            .filter(|f| f.rule == rule::DEAD_PUB)
            .map(|f| (f.file.as_str(), f.line))
            .collect()
    }

    const LIB: &str = "crates/x/src/lib.rs";

    #[test]
    fn item_with_no_user_is_a_finding() {
        let f = scan(&[(
            LIB,
            "pub fn orphan() {}\npub const fn kept() {}\nfn f() { kept(); }\n",
        )]);
        assert_eq!(dead(&f), vec![(LIB, 1)]);
        assert!(f[0].message.contains("`pub fn orphan`"), "{f:?}");
    }

    #[test]
    fn item_used_only_in_its_own_tests_is_a_finding() {
        let src =
            "pub fn helper() {}\n#[cfg(test)]\nmod tests {\n #[test]\n fn t() { helper(); }\n}\n";
        assert_eq!(dead(&scan(&[(LIB, src)])), vec![(LIB, 1)]);
    }

    #[test]
    fn item_used_from_an_integration_suite_is_live() {
        let f = scan(&[
            (LIB, "pub fn run_oracle() {}\n"),
            ("tests/e2e.rs", "#[test]\nfn t() { run_oracle(); }\n"),
        ]);
        assert!(dead(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn item_used_from_the_benchmark_is_live() {
        let f = scan(&[
            (LIB, "pub struct Probe;\n"),
            ("benchmark/src/probes.rs", "fn p() -> Probe { Probe }\n"),
        ]);
        assert!(dead(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn item_named_only_in_a_pub_use_is_a_finding() {
        let f = scan(&[
            (
                LIB,
                "pub mod m;\npub use m::{Reexported, Other};\nfn f(_: Other) {}\n",
            ),
            (
                "crates/x/src/m.rs",
                "pub enum Reexported {}\npub struct Other;\n",
            ),
        ]);
        assert_eq!(dead(&f), vec![("crates/x/src/m.rs", 1)]);
    }

    #[test]
    fn waived_finding_is_waived_and_the_waiver_used() {
        let src = "// teenet-analyze: allow(dead-pub) -- public entry point for downstream users\n\
                   pub static mut SLOT: u8 = 0;\n";
        let f = scan(&[(LIB, src)]);
        assert_eq!(f.len(), 1, "no unused-waiver: {f:?}");
        assert_eq!((f[0].rule, f[0].line), (rule::DEAD_PUB, 2));
        assert!(f[0].waived.is_some());
    }

    #[test]
    fn only_library_sources_define_checked_items() {
        let unused = "pub fn orphan() {}\n";
        for path in [
            "crates/x/src/main.rs",
            "crates/x/src/bin/tool.rs",
            "tests/a.rs",
            "lib.rs",
        ] {
            assert!(dead(&scan(&[(path, unused)])).is_empty(), "{path}");
        }
        // Restricted visibilities, fields and re-exports are not items.
        let src = "pub(crate) fn inner() {}\npub struct S { pub field: u8 }\n\
                   pub use a::b;\nfn f(_: S) {}\n";
        assert!(dead(&scan(&[(LIB, src)])).is_empty());
    }
}
