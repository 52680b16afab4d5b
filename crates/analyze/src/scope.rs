//! Scope tracking over the token stream: function body spans and
//! `#[cfg(test)]` / `#[test]` exclusion masking.
//!
//! The checks only audit production code, so everything under a test
//! attribute is masked out before any check runs.

use crate::lexer::{Lexed, Tok, TokKind};

/// A function found in the file.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name (last `fn <name>` identifier).
    pub name: String,
    /// Token index of the body's opening `{`.
    pub body_start: usize,
    /// Token index of the body's closing `}` (inclusive).
    pub body_end: usize,
    /// Source line of the `fn` keyword.
    pub line: u32,
}

/// Per-file scope analysis: test mask plus function spans.
#[derive(Debug)]
pub struct FileScopes {
    /// `true` for each token that lives under `#[cfg(test)]` or `#[test]`.
    pub test_mask: Vec<bool>,
    /// All non-test functions, in file order.
    pub fns: Vec<FnSpan>,
}

/// Finds the matching `}` for the `{` at `open` (returns the index of
/// the closing brace, or the last token when unbalanced).
pub fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// True when tokens at `i` start a test attribute: `#[cfg(test)]`,
/// `#[test]`, or `#[cfg(all(test, …))]`-style forms mentioning `test`
/// inside a `cfg(...)`.
fn is_test_attr(toks: &[Tok], i: usize) -> bool {
    if !toks[i].is_punct("#") || i + 1 >= toks.len() || !toks[i + 1].is_punct("[") {
        return false;
    }
    // Scan the attribute body up to the matching `]`.
    let mut depth = 0usize;
    let mut body = Vec::new();
    for t in &toks[i + 1..] {
        if t.is_punct("[") {
            depth += 1;
            if depth == 1 {
                continue;
            }
        }
        if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        body.push(t);
    }
    if body.is_empty() {
        return false;
    }
    if body[0].is_ident("test") && body.len() == 1 {
        return true;
    }
    if body[0].is_ident("cfg") {
        // `test` counts unless negated, as in `cfg(not(test))`.
        for (k, t) in body.iter().enumerate() {
            if t.is_ident("test") && !(k >= 2 && body[k - 2].is_ident("not")) {
                return true;
            }
        }
    }
    false
}

/// Marks the item that follows the attribute at `attr_start` (the `#`
/// token) as test code, returning the index just past the item.
fn mask_item(toks: &[Tok], attr_start: usize, mask: &mut [bool]) -> usize {
    let mut i = attr_start;
    // Skip over any stacked attributes.
    while i < toks.len() && toks[i].is_punct("#") {
        // Skip the `[...]` group.
        let mut depth = 0usize;
        i += 1;
        while i < toks.len() {
            if toks[i].is_punct("[") {
                depth += 1;
            } else if toks[i].is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    // Walk to the item body `{` or a terminating `;`, skipping paren
    // groups (fn signatures) on the way.
    let mut j = i;
    let mut paren = 0usize;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("(") {
            paren += 1;
        } else if t.is_punct(")") {
            paren = paren.saturating_sub(1);
        } else if paren == 0 && t.is_punct(";") {
            j += 1;
            break;
        } else if paren == 0 && t.is_punct("{") {
            j = matching_brace(toks, j) + 1;
            break;
        }
        j += 1;
    }
    for m in mask.iter_mut().take(j.min(toks.len())).skip(attr_start) {
        *m = true;
    }
    j
}

/// Computes the test mask and function spans for a lexed file.
pub fn analyze_scopes(lexed: &Lexed) -> FileScopes {
    let toks = &lexed.toks;
    let mut mask = vec![false; toks.len()];

    // Pass 1: mask out test attributes and the items they annotate.
    let mut i = 0usize;
    while i < toks.len() {
        if !mask[i] && is_test_attr(toks, i) {
            i = mask_item(toks, i, &mut mask);
        } else {
            i += 1;
        }
    }

    // Pass 2: collect non-test function spans.
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if mask[i] || !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        // `fn` inside a type position (`Fn(..)`, `fn(..)` pointers) has
        // no following plain ident; require `fn <ident>`.
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        let line = toks[i].line;
        // Find the body `{` at paren depth 0 (skips the signature and
        // where clause); a trait method declaration ends with `;`.
        let mut j = i + 2;
        let mut paren = 0usize;
        let mut body = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("(") || t.is_punct("[") {
                paren += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                paren = paren.saturating_sub(1);
            } else if paren == 0 && t.is_punct(";") {
                break;
            } else if paren == 0 && t.is_punct("{") {
                body = Some(j);
                break;
            }
            j += 1;
        }
        let Some(body_start) = body else {
            i = j + 1;
            continue;
        };
        let body_end = matching_brace(toks, body_start);
        fns.push(FnSpan {
            name,
            body_start,
            body_end,
            line,
        });
        // Nested fns are found by continuing the scan inside the body.
        i += 2;
    }

    FileScopes {
        test_mask: mask,
        fns,
    }
}

/// Product size of one file: the distinct source lines on which a
/// non-test token starts. Comments and blank lines hold no tokens, and a
/// literal spanning lines counts once.
pub(crate) fn product_lines(lexed: &Lexed, scopes: &FileScopes) -> usize {
    let mut lines: Vec<u32> = lexed
        .toks
        .iter()
        .zip(&scopes.test_mask)
        .filter(|(_, &masked)| !masked)
        .map(|(t, _)| t.line)
        .collect();
    lines.dedup(); // tokens arrive in source order
    lines.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn product_lines_skip_comments_blanks_and_tests() {
        let src = "// doc\nfn live() {\n\n    a(); b();\n}\n#[cfg(test)]\nmod tests {\n    fn dead() {}\n}\n";
        let l = lex(src);
        assert_eq!(product_lines(&l, &analyze_scopes(&l)), 3);
    }

    #[test]
    fn finds_functions_and_bodies() {
        let l = lex("impl Foo { fn a(&self) -> u32 { 1 } }\nfn b() { {} }");
        let s = analyze_scopes(&l);
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn masks_cfg_test_modules() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn dead() { x.lock(); } }";
        let l = lex(src);
        let s = analyze_scopes(&l);
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["live"]);
    }

    #[test]
    fn masks_test_fns_but_not_neighbors() {
        let src = "#[test]\nfn t() { panic!() }\nfn live() {}";
        let l = lex(src);
        let s = analyze_scopes(&l);
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["live"]);
    }

    #[test]
    fn where_clause_and_return_types_are_skipped() {
        let src = "fn f<T>(x: T) -> impl Fn() -> u32 where T: Clone { move || 1 }";
        let l = lex(src);
        let s = analyze_scopes(&l);
        assert_eq!(s.fns.len(), 1);
        assert!(l.toks[s.fns[0].body_start].is_punct("{"));
    }

    #[test]
    fn nested_fns_are_separate_spans() {
        let src = "fn outer() { fn inner() { 1 } inner(); }";
        let l = lex(src);
        let s = analyze_scopes(&l);
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn cfg_all_test_is_masked() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod m { fn dead() {} }\nfn live() {}";
        let l = lex(src);
        let s = analyze_scopes(&l);
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["live"]);
    }
}
