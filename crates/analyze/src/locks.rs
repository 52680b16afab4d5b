//! Lock-order and blocking-under-lock checks.
//!
//! Pass 1 collects the lock *names* declared in a file: struct fields,
//! statics, and locals whose type mentions `Mutex<…>` or `RwLock<…>`.
//! Lock ids are file-qualified (`crates/coord/src/service.rs::stats`)
//! so identically named fields in different modules never alias.
//!
//! Pass 2 walks each non-test function body with a small guard
//! simulator: a let-bound guard lives to the end of its enclosing
//! block, a temporary guard to the end of its statement (`match` and
//! `for` scrutinee temporaries extend through the block; `if`/`while`
//! condition temporaries die at the `{`), and `drop(g)` kills a named
//! guard early. Every acquisition made while other guards are live
//! adds edges to the global [`LockGraph`]; calls from the blocking
//! list made under a live guard are reported directly.

use std::collections::BTreeSet;

use crate::graph::{EdgeSites, LockGraph, Site};
use crate::lexer::{Lexed, Tok, TokKind};
use crate::report::{check, Finding};
use crate::scope::FileScopes;

/// Method names that block the calling thread. `wait`/`wait_timeout`
/// are deliberately absent: a condvar wait releases the guard it is
/// given, which is the correct pattern, not a bug.
const BLOCKING: &[&str] = &[
    "sync_all",
    "sync_data",
    "fsync",
    "sleep",
    "wait_watched",
    "pause",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "connect",
    "accept",
    "join",
    "write_frame",
    "read_from",
    "read_exact",
    "write_all",
];

/// Blocking names that only count with empty parentheses, to avoid
/// `Path::join`, `slice::join(sep)` and friends.
const EMPTY_ONLY: &[&str] = &["accept", "join", "recv"];

/// Collects the lock names declared in this file: any `name :` whose
/// type path reaches `Mutex<` or `RwLock<`.
pub fn collect_lock_names(lexed: &Lexed) -> BTreeSet<String> {
    let toks = &lexed.toks;
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.is_ident("Mutex") || t.is_ident("RwLock")) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct("<")) {
            continue;
        }
        // Walk back over the type tokens to the `:` introducing it.
        let mut j = i;
        let mut found = None;
        while j > 0 {
            j -= 1;
            let b = &toks[j];
            let is_type_tok = b.kind == TokKind::Ident
                || b.kind == TokKind::Lifetime
                || b.is_punct("<")
                || b.is_punct("::")
                || b.is_punct("&");
            if is_type_tok {
                continue;
            }
            if b.is_punct(":") && j > 0 && toks[j - 1].kind == TokKind::Ident {
                found = Some(toks[j - 1].text.clone());
            }
            break;
        }
        if let Some(name) = found {
            names.insert(name);
        }
    }
    names
}

/// How long a simulated guard lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuardKind {
    /// Let-bound: dies when its block (at this depth) closes.
    Block(usize),
    /// Temporary: dies at the end of the current statement.
    Stmt,
    /// `match`/`for` scrutinee temporary: dies when the block opened
    /// at this depth closes.
    Scrutinee(usize),
}

#[derive(Debug, Clone)]
struct Guard {
    lock_id: String,
    line: u32,
    kind: GuardKind,
    name: Option<String>,
}

/// Per-file check state shared across functions.
pub struct LockChecker<'a> {
    file: &'a str,
    lexed: &'a Lexed,
    lock_names: BTreeSet<String>,
}

impl<'a> LockChecker<'a> {
    /// Creates a checker for one file.
    pub fn new(file: &'a str, lexed: &'a Lexed) -> Self {
        let lock_names = collect_lock_names(lexed);
        LockChecker {
            file,
            lexed,
            lock_names,
        }
    }

    /// True when the file declares any locks at all.
    pub fn has_locks(&self) -> bool {
        !self.lock_names.is_empty()
    }

    fn qualify(&self, name: &str) -> String {
        format!("{}::{}", self.file, name)
    }

    /// Runs both checks over every non-test function, adding edges to
    /// `graph` and findings to `findings`.
    pub fn run(&self, scopes: &FileScopes, graph: &mut LockGraph, findings: &mut Vec<Finding>) {
        for f in &scopes.fns {
            if scopes.test_mask.get(f.body_start).copied().unwrap_or(false) {
                continue;
            }
            self.walk_fn(f.body_start, f.body_end, scopes, graph, findings);
        }
    }

    /// Is `toks[i]` the receiver of `.lock()` / `.read()` / `.write()`
    /// on a known lock? Returns the lock name when so. `i` indexes the
    /// `.` token.
    fn acquisition_at(&self, toks: &[Tok], i: usize) -> Option<String> {
        if !toks[i].is_punct(".") {
            return None;
        }
        let m = toks.get(i + 1)?;
        if !(m.is_ident("lock") || m.is_ident("read") || m.is_ident("write")) {
            return None;
        }
        // Empty parens required: `.read()` with arguments is io::Read.
        if !(toks.get(i + 2)?.is_punct("(") && toks.get(i + 3)?.is_punct(")")) {
            return None;
        }
        let recv = toks.get(i.checked_sub(1)?)?;
        if recv.kind != TokKind::Ident || !self.lock_names.contains(&recv.text) {
            return None;
        }
        Some(recv.text.clone())
    }

    fn walk_fn(
        &self,
        body_start: usize,
        body_end: usize,
        scopes: &FileScopes,
        graph: &mut LockGraph,
        findings: &mut Vec<Finding>,
    ) {
        let toks = &self.lexed.toks;
        let mut guards: Vec<Guard> = Vec::new();
        let mut depth = 1usize; // inside the body's `{`
        let mut paren = 0usize;
        // Statement tracking.
        let mut stmt_first: Option<String> = None;
        let mut saw_let = false;
        let mut let_name: Option<String> = None;

        let mut j = body_start + 1;
        while j < body_end {
            if scopes.test_mask.get(j).copied().unwrap_or(false) {
                j += 1;
                continue;
            }
            let t = &toks[j];

            // Record the first meaningful token of each statement.
            if stmt_first.is_none() && t.kind == TokKind::Ident {
                stmt_first = Some(t.text.clone());
                if t.is_ident("let") {
                    saw_let = true;
                    // First plain ident after `let` (skipping `mut`).
                    let mut k = j + 1;
                    while k < body_end
                        && (toks[k].is_ident("mut")
                            || toks[k].is_punct("(")
                            || toks[k].is_punct("&"))
                    {
                        k += 1;
                    }
                    if k < body_end && toks[k].kind == TokKind::Ident {
                        let_name = Some(toks[k].text.clone());
                    }
                }
            }

            if t.is_punct("(") {
                paren += 1;
                j += 1;
                continue;
            }
            if t.is_punct(")") {
                paren = paren.saturating_sub(1);
                j += 1;
                continue;
            }
            if t.is_punct("{") {
                let head = stmt_first.as_deref();
                let has_stmt_temps = guards.iter().any(|g| g.kind == GuardKind::Stmt);
                if has_stmt_temps {
                    match head {
                        Some("if") | Some("while") => {
                            // Condition temporaries die at the `{`.
                            guards.retain(|g| g.kind != GuardKind::Stmt);
                        }
                        Some("match") | Some("for") => {
                            // Scrutinee temporaries live through the block.
                            for g in guards.iter_mut() {
                                if g.kind == GuardKind::Stmt {
                                    g.kind = GuardKind::Scrutinee(depth + 1);
                                }
                            }
                        }
                        _ => {}
                    }
                }
                depth += 1;
                stmt_first = None;
                saw_let = false;
                let_name = None;
                j += 1;
                continue;
            }
            if t.is_punct("}") {
                guards.retain(|g| match g.kind {
                    GuardKind::Block(d) | GuardKind::Scrutinee(d) => d < depth,
                    GuardKind::Stmt => false,
                });
                depth = depth.saturating_sub(1);
                stmt_first = None;
                saw_let = false;
                let_name = None;
                j += 1;
                continue;
            }
            if (t.is_punct(";") || t.is_punct(",")) && paren == 0 {
                // `;` ends a statement; `,` at brace level ends a match
                // arm or struct-literal field — temporaries die either
                // way.
                guards.retain(|g| g.kind != GuardKind::Stmt);
                stmt_first = None;
                saw_let = false;
                let_name = None;
                j += 1;
                continue;
            }

            // drop(name) kills the named guard early.
            if t.is_ident("drop")
                && toks.get(j + 1).is_some_and(|n| n.is_punct("("))
                && toks.get(j + 3).is_some_and(|n| n.is_punct(")"))
            {
                if let Some(arg) = toks.get(j + 2) {
                    if arg.kind == TokKind::Ident {
                        guards.retain(|g| g.name.as_deref() != Some(arg.text.as_str()));
                    }
                }
            }

            // Blocking call under a live guard?
            if t.kind == TokKind::Ident
                && BLOCKING.contains(&t.text.as_str())
                && toks.get(j + 1).is_some_and(|n| n.is_punct("("))
                && j > 0
                && (toks[j - 1].is_punct(".") || toks[j - 1].is_punct("::"))
            {
                let empty = toks.get(j + 2).is_some_and(|n| n.is_punct(")"));
                let counts = empty || !EMPTY_ONLY.contains(&t.text.as_str());
                if counts {
                    if let Some(g) = guards.first() {
                        if !self.lexed.allowed(check::BLOCKING, t.line) {
                            findings.push(Finding {
                                file: self.file.to_string(),
                                line: t.line,
                                check: check::BLOCKING,
                                message: format!(
                                    "blocking call `{}` while holding `{}` (acquired at line {})",
                                    t.text, g.lock_id, g.line
                                ),
                            });
                        }
                    }
                }
            }

            // Lock acquisition?
            if let Some(name) = self.acquisition_at(toks, j) {
                let lock_id = self.qualify(&name);
                let line = toks[j + 1].line;
                let allowed_here = self.lexed.allowed(check::LOCK_ORDER, line);
                for g in &guards {
                    if allowed_here {
                        continue;
                    }
                    graph.add_edge(
                        &g.lock_id,
                        &lock_id,
                        EdgeSites {
                            held_at: Site {
                                file: self.file.to_string(),
                                line: g.line,
                            },
                            acquired_at: Site {
                                file: self.file.to_string(),
                                line,
                            },
                        },
                    );
                }
                // Let-bound iff the guard itself is the bound value:
                // `let g = x.lock();` — the token after `()` ends the
                // statement. A chained `let n = x.lock().len();` is a
                // temporary.
                let after = toks.get(j + 4);
                let kind = if saw_let && after.is_some_and(|a| a.is_punct(";")) {
                    GuardKind::Block(depth)
                } else {
                    GuardKind::Stmt
                };
                guards.push(Guard {
                    lock_id,
                    line,
                    kind,
                    name: if kind == GuardKind::Stmt {
                        None
                    } else {
                        let_name.clone()
                    },
                });
                j += 4; // past `. lock ( )`
                continue;
            }

            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::analyze_scopes;

    fn run_src(src: &str) -> (LockGraph, Vec<Finding>) {
        let l = lex(src);
        let s = analyze_scopes(&l);
        let c = LockChecker::new("t.rs", &l);
        let mut g = LockGraph::default();
        let mut f = Vec::new();
        c.run(&s, &mut g, &mut f);
        (g, f)
    }

    const DECLS: &str = "struct S { a: Mutex<u32>, b: Mutex<u32>, st: Mutex<u32> }\n";

    #[test]
    fn collects_field_static_and_arc_locks() {
        let l = lex(
            "struct S { a: Mutex<u32>, b: Arc<RwLock<V>>, c: parking_lot::Mutex<X> }\n\
             static G: Mutex<u8> = Mutex::new(0);\nfn f(p: &Mutex<u64>) {}",
        );
        let names = collect_lock_names(&l);
        for n in ["a", "b", "c", "G", "p"] {
            assert!(names.contains(n), "missing {n}");
        }
    }

    #[test]
    fn let_guard_spans_block_and_orders_edges() {
        let src =
            format!("{DECLS}fn f(s: &S) {{ let g = s.a.lock(); let h = s.b.lock(); *h += *g; }}");
        let (g, f) = run_src(&src);
        assert_eq!(g.edge_count(), 1);
        assert!(f.is_empty());
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn opposite_orders_form_cycle() {
        let src = format!(
            "{DECLS}fn f(s: &S) {{ let g = s.a.lock(); let h = s.b.lock(); }}\n\
             fn r(s: &S) {{ let g = s.b.lock(); let h = s.a.lock(); }}"
        );
        let (g, _) = run_src(&src);
        assert_eq!(g.cycles().len(), 1);
    }

    #[test]
    fn temp_guard_dies_at_statement_end() {
        let src = format!(
            "{DECLS}fn f(s: &S) {{ let n = s.a.lock().clone(); let h = s.b.lock(); }}\n\
             fn r(s: &S) {{ let n = s.b.lock().clone(); let h = s.a.lock(); }}"
        );
        let (g, _) = run_src(&src);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn if_condition_temp_dies_at_brace() {
        let src = format!(
            "{DECLS}fn f(s: &S) {{ if s.a.lock().eq(&0) {{ let h = s.b.lock(); }} }}\n\
             fn r(s: &S) {{ if s.b.lock().eq(&0) {{ let h = s.a.lock(); }} }}"
        );
        let (g, _) = run_src(&src);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn match_scrutinee_temp_lives_through_block() {
        let src = format!(
            "{DECLS}fn f(s: &S) {{ match s.a.lock().checked_add(1) {{ Some(_) => {{ let h = s.b.lock(); }} None => {{}} }} }}"
        );
        let (g, _) = run_src(&src);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn drop_kills_guard() {
        let src =
            format!("{DECLS}fn f(s: &S) {{ let g = s.a.lock(); drop(g); let h = s.b.lock(); }}");
        let (g, _) = run_src(&src);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn blocking_under_guard_flagged_and_allow_suppresses() {
        let src = format!(
            "{DECLS}fn f(s: &S) {{ let g = s.a.lock(); std::thread::sleep(d); }}\n\
             fn ok(s: &S) {{ let g = s.a.lock();\n\
             // analyze:allow(blocking-under-lock): deliberate\n\
             std::thread::sleep(d); }}"
        );
        let (_, f) = run_src(&src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("sleep"));
        assert!(f[0].message.contains("t.rs::a"));
    }

    #[test]
    fn blocking_after_scope_close_not_flagged() {
        let src =
            format!("{DECLS}fn f(s: &S) {{ {{ let g = s.a.lock(); }} std::thread::sleep(d); }}");
        let (_, f) = run_src(&src);
        assert!(f.is_empty());
    }

    #[test]
    fn path_join_not_blocking() {
        let src = format!("{DECLS}fn f(s: &S) {{ let g = s.a.lock(); p.join(\"x\"); }}");
        let (_, f) = run_src(&src);
        assert!(f.is_empty());
    }

    #[test]
    fn io_read_with_args_is_not_acquisition() {
        let src =
            format!("{DECLS}fn f(s: &S, r: &mut R) {{ r.read(&mut buf); let g = s.a.lock(); }}");
        let (g, f) = run_src(&src);
        assert!(f.is_empty());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn recursive_acquisition_flagged() {
        let src = format!("{DECLS}fn f(s: &S) {{ let g = s.a.lock(); let h = s.a.lock(); }}");
        let (g, _) = run_src(&src);
        let c = g.cycles();
        assert_eq!(c.len(), 1);
        assert!(c[0].message.contains("recursive"));
    }

    #[test]
    fn closure_inside_guarded_scope_still_tracks() {
        // A blocking call in a closure defined while the guard is held
        // is still flagged: the closure may well run before the guard
        // drops (e.g. iterator adapters evaluated eagerly).
        let src = format!(
            "{DECLS}fn f(s: &S) {{ let g = s.a.lock(); items.iter().for_each(|x| {{ ch.recv(); }}); }}"
        );
        let (_, f) = run_src(&src);
        assert_eq!(f.len(), 1);
    }
}
