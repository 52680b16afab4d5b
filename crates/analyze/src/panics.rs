//! Panic-path audit: `unwrap`/`expect`/`panic!`-family macros and
//! slice indexing in production (non-test) code of the product crates
//! ([`CENSUS_ROOTS`]).
//!
//! Sites suppressed by an inline `// analyze:allow(panic-path): …`
//! comment don't count. The remainder is compared against the per-file
//! budget in `analyze/allow.toml`: over budget fails; under budget
//! prints a non-fatal tighten notice so the numbers only burn down.

use crate::lexer::{Lexed, TokKind};
use crate::report::{check, Finding};
use crate::scope::FileScopes;

/// Where panic sites are counted: the product — the umbrella crate and the
/// five crates a served platform links. The tool crates (`analyze`,
/// `bench`, `workload`) are exempt: an `expect` on a missing input file is
/// their right behaviour, and budgeting it only buried the product's
/// numbers. The other three checks still walk every crate.
pub const CENSUS_ROOTS: &[&str] = &[
    "src/",
    "crates/model/src/",
    "crates/coord/src/",
    "crates/devices/src/",
    "crates/core/src/",
    "crates/tcloud/src/",
];

/// The census root `file` (repo-relative) lives under, when it is product
/// code the census covers.
pub(crate) fn census_root(file: &str) -> Option<&'static str> {
    CENSUS_ROOTS
        .iter()
        .copied()
        .find(|root| file.starts_with(root))
}

/// Macros that abort the thread.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented", "assert"];

/// One panic-capable site.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line.
    pub line: u32,
    /// What was found (`unwrap`, `expect`, `panic!`, `index`).
    pub what: String,
}

/// Collects the unsuppressed panic sites in one file.
pub fn collect(lexed: &Lexed, scopes: &FileScopes) -> Vec<PanicSite> {
    let toks = &lexed.toks;
    let mut sites = Vec::new();
    for i in 0..toks.len() {
        if scopes.test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];
        let site = if t.kind == TokKind::Ident
            && (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            Some(t.text.clone())
        } else if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            Some(format!("{}!", t.text))
        } else if t.is_punct("[")
            && i > 0
            && (toks[i - 1].kind == TokKind::Ident
                || toks[i - 1].is_punct(")")
                || toks[i - 1].is_punct("]"))
        {
            // Indexing expression `expr[…]`. Pattern positions such as
            // `let [a, b] = …` have a preceding `let`/`,`/`(`, which the
            // ident/`)`/`]` requirement already excludes.
            Some("index".to_string())
        } else {
            None
        };
        if let Some(what) = site {
            let line = t.line;
            if !lexed.allowed(check::PANIC, line) {
                sites.push(PanicSite { line, what });
            }
        }
    }
    sites
}

/// Applies the budget for `file`, producing findings for every site
/// when over budget and a tighten notice (non-fatal, returned
/// separately) when under.
pub fn apply_budget(
    file: &str,
    sites: &[PanicSite],
    budget: usize,
    findings: &mut Vec<Finding>,
    notices: &mut Vec<String>,
) {
    if sites.len() > budget {
        for s in sites {
            findings.push(Finding {
                file: file.to_string(),
                line: s.line,
                check: check::PANIC,
                message: format!(
                    "`{}` in production code ({} site(s) vs budget {} in analyze/allow.toml)",
                    s.what,
                    sites.len(),
                    budget
                ),
            });
        }
    } else if sites.len() < budget {
        notices.push(format!(
            "note: {file}: panic-path budget can tighten from {budget} to {}",
            sites.len()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::analyze_scopes;

    fn sites(src: &str) -> Vec<PanicSite> {
        let l = lex(src);
        let s = analyze_scopes(&l);
        collect(&l, &s)
    }

    #[test]
    fn finds_unwrap_expect_and_macros() {
        let got = sites("fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"b\"); unreachable!() }");
        let what: Vec<&str> = got.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(what, vec!["unwrap", "expect", "panic!", "unreachable!"]);
    }

    #[test]
    fn indexing_counts_but_attrs_and_types_do_not() {
        let got =
            sites("#[derive(Debug)]\nstruct S { a: [u8; 4] }\nfn f(v: Vec<u8>) { let x = v[0]; }");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].what, "index");
    }

    #[test]
    fn vec_macro_and_array_literals_skipped() {
        let got = sites("fn f() { let v = vec![1, 2]; let a = [0u8; 4]; }");
        assert!(got.is_empty());
    }

    #[test]
    fn test_code_excluded() {
        let got = sites("#[cfg(test)]\nmod t { fn g() { x.unwrap(); } }\nfn f() {}");
        assert!(got.is_empty());
    }

    #[test]
    fn inline_allow_suppresses() {
        let got = sites(
            "fn f() {\n// analyze:allow(panic-path): static data\nx.unwrap();\ny.unwrap();\n}",
        );
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 4);
    }

    #[test]
    fn census_covers_product_crates_only() {
        assert_eq!(census_root("src/lib.rs"), Some("src/"));
        assert_eq!(
            census_root("crates/coord/src/wal.rs"),
            Some("crates/coord/src/")
        );
        for tool in [
            "analyze/src/lexer.rs",
            "bench/src/gate.rs",
            "workload/src/chaos.rs",
        ] {
            assert!(census_root(&format!("crates/{tool}")).is_none(), "{tool}");
        }
    }

    #[test]
    fn budget_over_under() {
        let s = sites("fn f() { a.unwrap(); b.unwrap(); }");
        let mut f = Vec::new();
        let mut n = Vec::new();
        apply_budget("x.rs", &s, 1, &mut f, &mut n);
        assert_eq!(f.len(), 2);
        f.clear();
        apply_budget("x.rs", &s, 3, &mut f, &mut n);
        assert!(f.is_empty());
        assert_eq!(n.len(), 1);
    }
}
