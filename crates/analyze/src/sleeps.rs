//! Sleep-site check: `thread::sleep` in production (non-test) code of the
//! product crates ([`crate::panics::CENSUS_ROOTS`]).
//!
//! Every wait in the product is one `Clock::wait` that a watch, a stop or
//! a deadline on the platform clock ends, so an idle platform does nothing
//! and a manual clock steps every wait. A raw sleep is a wait nothing can
//! cut short and no test clock can step. The clock itself
//! ([`CLOCK_FILE`]) is the one product file that sleeps a thread;
//! deliberate sites elsewhere carry `// analyze:allow(sleep-site): …`.

use crate::lexer::Lexed;
use crate::report::{check, Finding};
use crate::scope::FileScopes;

/// The product file that owns thread sleeping: the real clock.
pub const CLOCK_FILE: &str = "crates/model/src/clock.rs";

/// Reports every unsuppressed `thread::sleep` in non-test code of `file`,
/// a product file.
pub fn check(file: &str, lexed: &Lexed, scopes: &FileScopes, findings: &mut Vec<Finding>) {
    if file == CLOCK_FILE {
        return;
    }
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate().skip(2) {
        let is_sleep =
            t.is_ident("sleep") && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("thread");
        let in_test = scopes.test_mask.get(i).copied().unwrap_or(false);
        if is_sleep && !in_test && !lexed.allowed(check::SLEEP, t.line) {
            findings.push(Finding {
                file: file.to_string(),
                line: t.line,
                check: check::SLEEP,
                message: "`thread::sleep` in production code: wait on the `Clock` \
                          (`tropic_model::clock`) so a watch, a stop or a deadline ends it"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::analyze_scopes;

    fn lines(file: &str, src: &str) -> Vec<u32> {
        let l = lex(src);
        let s = analyze_scopes(&l);
        let mut findings = Vec::new();
        check(file, &l, &s, &mut findings);
        findings.iter().map(|f| f.line).collect()
    }

    #[test]
    fn product_sleeps_fire_unless_allowed_tested_or_the_clock() {
        let src = "fn f() {\n\
                   std::thread::sleep(d);\n\
                   // analyze:allow(sleep-site): modeled device time\n\
                   std::thread::sleep(d);\n\
                   clock.sleep(d);\n\
                   }\n\
                   #[cfg(test)]\nmod t { fn g() { std::thread::sleep(d); } }\n";
        assert_eq!(lines("crates/core/src/x.rs", src), vec![2]);
        assert!(lines(CLOCK_FILE, src).is_empty());
    }
}
