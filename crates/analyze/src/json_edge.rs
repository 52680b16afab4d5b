//! JSON-edge check: `serde_json` in production (non-test) code of the
//! product crates ([`crate::panics::CENSUS_ROOTS`]).
//!
//! Every store payload has one binary layout (`crates/core/src/codec.rs`)
//! and the coordination store holds opaque bytes, so JSON is left at one
//! edge: the versioned RPC frames ([`WIRE_EDGE`]). Any other site is a
//! second format for something that already has one, or a new one that
//! should be laid out in the codec. Deliberate sites elsewhere carry
//! `// analyze:allow(json-edge): …`.

use crate::lexer::Lexed;
use crate::report::{check, Finding};
use crate::scope::FileScopes;

/// The product file where JSON belongs: the RPC frame codec.
pub const WIRE_EDGE: &str = "crates/core/src/rpc.rs";

/// Reports every unsuppressed `serde_json` in non-test code of `file`, a
/// product file.
pub fn check(file: &str, lexed: &Lexed, scopes: &FileScopes, findings: &mut Vec<Finding>) {
    if file == WIRE_EDGE {
        return;
    }
    for (i, t) in lexed.toks.iter().enumerate() {
        let in_test = scopes.test_mask.get(i).copied().unwrap_or(false);
        if t.is_ident("serde_json") && !in_test && !lexed.allowed(check::JSON, t.line) {
            findings.push(Finding {
                file: file.to_string(),
                line: t.line,
                check: check::JSON,
                message: "`serde_json` outside the RPC edge: lay the payload out in \
                          `crates/core/src/codec.rs`, or allow the site with a reason"
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
    fn product_json_fires_unless_allowed_tested_or_the_wire_edge() {
        let src = "fn f() {\n\
                   let b = serde_json::to_vec(&x);\n\
                   // analyze:allow(json-edge): a log argument's text\n\
                   let t = serde_json::to_string(&x);\n\
                   let c = codec::encode(&x);\n\
                   }\n\
                   #[cfg(test)]\nmod t { fn g() { serde_json::to_vec(&x); } }\n";
        assert_eq!(lines("crates/core/src/x.rs", src), vec![2]);
        assert!(lines(WIRE_EDGE, src).is_empty());
    }
}
