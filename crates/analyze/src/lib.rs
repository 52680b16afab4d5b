//! `tropic-analyze`: repo-specific static analysis for TROPIC.
//!
//! Four check families over `crates/*/src` and `src/`:
//!
//! - **lock-order** — per-function lock-acquisition sequences folded
//!   into a global graph; cycles (and recursive acquisitions) fail.
//! - **blocking-under-lock** — fsync/sleep/channel-recv/socket I/O
//!   while a parking_lot guard is live in scope.
//! - **schema-drift** — fingerprints of the registered wire/WAL types
//!   vs the committed `WIRE_SCHEMAS.lock`.
//! - **panic-path** — unwrap/expect/panic!/indexing in production code
//!   of the product crates (`panics::CENSUS_ROOTS`; the tool crates are
//!   exempt) vs the per-file budgets in `analyze/allow.toml`.
//!
//! Deliberate sites are annotated inline with
//! `// analyze:allow(<check>): <reason>`. See `docs/STATIC_ANALYSIS.md`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod allow;
pub mod graph;
pub mod lexer;
pub mod locks;
pub mod panics;
pub mod report;
pub mod schema;
pub mod scope;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use allow::Allowlist;
use graph::LockGraph;
use locks::LockChecker;
use report::{check, sort_findings, Finding};
use schema::{Fingerprints, Registry};

/// What to analyze and against which committed state.
#[derive(Debug, Clone)]
pub struct Options {
    /// Tree root; sources are found under `src/` and `crates/*/src/`.
    pub root: PathBuf,
    /// The schema registry to fingerprint.
    pub registry: Registry,
}

impl Options {
    /// Standard options for a repo tree rooted at `root`.
    pub fn repo(root: &Path) -> Options {
        Options {
            root: root.to_path_buf(),
            registry: Registry::repo(),
        }
    }

    /// Path of the committed schema lock file.
    pub fn lock_path(&self) -> PathBuf {
        self.root.join("WIRE_SCHEMAS.lock")
    }

    /// Path of the committed panic-budget allowlist.
    pub fn allow_path(&self) -> PathBuf {
        self.root.join("analyze").join("allow.toml")
    }
}

/// The result of one analysis run.
#[derive(Debug)]
pub struct Analysis {
    /// All findings in canonical order.
    pub findings: Vec<Finding>,
    /// Non-fatal notices (budget tighten hints).
    pub notices: Vec<String>,
    /// The rendered report (findings + notices + product sizes + summary).
    pub report: String,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Current schema fingerprints (for `--bless`).
    pub fingerprints: Fingerprints,
    /// Per-file unsuppressed panic-site counts (for `--update-allow`).
    pub panic_counts: BTreeMap<String, usize>,
}

fn visit_dir(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            visit_dir(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
}

/// Lists the production source files under `root`, sorted by relative
/// path: `src/**.rs` plus `crates/*/src/**.rs`.
pub fn collect_sources(root: &Path) -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    visit_dir(&root.join("src"), root, &mut out);
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            visit_dir(&d.join("src"), root, &mut out);
        }
    }
    out.sort();
    out
}

/// Runs all four checks over the tree. Errors are I/O or config
/// problems (unreadable allowlist), not findings.
pub fn analyze(opts: &Options) -> Result<Analysis, String> {
    let sources = collect_sources(&opts.root);
    let allowlist = match fs::read_to_string(opts.allow_path()) {
        Ok(text) => Allowlist::parse(&text)?,
        Err(_) => Allowlist::default(),
    };
    let lock_text = fs::read_to_string(opts.lock_path()).ok();

    let mut findings = Vec::new();
    let mut notices = Vec::new();
    let mut graph = LockGraph::default();
    let mut lexed_files: BTreeMap<String, lexer::Lexed> = BTreeMap::new();
    let mut panic_counts = BTreeMap::new();
    let mut product_sizes: BTreeMap<&str, usize> = BTreeMap::new();

    for (rel, path) in &sources {
        let src = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let lexed = lexer::lex(&src);
        let scopes = scope::analyze_scopes(&lexed);

        let checker = LockChecker::new(rel, &lexed);
        if checker.has_locks() {
            checker.run(&scopes, &mut graph, &mut findings);
        }

        if let Some(root) = panics::census_root(rel) {
            *product_sizes.entry(root).or_default() += scope::product_lines(&lexed, &scopes);
            let sites = panics::collect(&lexed, &scopes);
            if !sites.is_empty() {
                panic_counts.insert(rel.clone(), sites.len());
            }
            panics::apply_budget(
                rel,
                &sites,
                allowlist.budget(rel),
                &mut findings,
                &mut notices,
            );
        }

        lexed_files.insert(rel.clone(), lexed);
    }

    findings.extend(graph.cycles());

    let fingerprints = schema::extract(&opts.registry, &lexed_files, &mut findings);
    schema::compare(&fingerprints, lock_text.as_deref(), &mut findings);

    sort_findings(&mut findings);
    notices.sort();
    let report = report::render(&findings, &notices, &product_sizes, sources.len());
    Ok(Analysis {
        findings,
        notices,
        report,
        files_scanned: sources.len(),
        fingerprints,
        panic_counts,
    })
}

/// Re-fingerprints the tree and writes `WIRE_SCHEMAS.lock`, refusing
/// when any drift is an illegal evolution. Returns the lock path.
pub fn bless(opts: &Options) -> Result<PathBuf, String> {
    let analysis = analyze(opts)?;
    let lock_text = fs::read_to_string(opts.lock_path()).ok();
    let illegal = schema::illegal_drifts(&analysis.fingerprints, lock_text.as_deref());
    if !illegal.is_empty() {
        return Err(format!(
            "refusing to bless illegal schema evolution(s):\n  {}\nbump the family version or make the change additive with #[serde(default)]",
            illegal.join("\n  ")
        ));
    }
    let text = schema::render_lock(&analysis.fingerprints);
    fs::write(opts.lock_path(), text).map_err(|e| format!("write lock: {e}"))?;
    Ok(opts.lock_path())
}

/// Rewrites `analyze/allow.toml` from the tree's current unsuppressed
/// panic-site counts. Returns the allowlist path.
pub fn update_allow(opts: &Options) -> Result<PathBuf, String> {
    let analysis = analyze(opts)?;
    let mut list = Allowlist::default();
    for (file, count) in &analysis.panic_counts {
        list.panic_budgets.insert(file.clone(), *count);
    }
    let dir = opts.allow_path();
    if let Some(parent) = dir.parent() {
        fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    fs::write(&dir, list.render()).map_err(|e| format!("write allowlist: {e}"))?;
    Ok(dir)
}

/// Runs the fixture self-test: the violations tree must fire every
/// check family; the clean tree must produce zero findings.
pub fn self_test(fixtures: &Path) -> Result<String, String> {
    let violations = Options {
        root: fixtures.join("violations"),
        registry: Registry::fixtures(),
    };
    let v = analyze(&violations)?;
    let mut missing = Vec::new();
    for id in [
        check::LOCK_ORDER,
        check::BLOCKING,
        check::SCHEMA,
        check::PANIC,
    ] {
        if !v.findings.iter().any(|f| f.check == id) {
            missing.push(id);
        }
    }
    if !missing.is_empty() {
        return Err(format!(
            "self-test: seeded violation tree did not fire: {} — findings were:\n{}",
            missing.join(", "),
            v.report
        ));
    }

    let clean = Options {
        root: fixtures.join("clean"),
        registry: Registry::fixtures(),
    };
    let c = analyze(&clean)?;
    if !c.findings.is_empty() {
        return Err(format!(
            "self-test: clean tree produced findings:\n{}",
            c.report
        ));
    }

    Ok(format!(
        "self-test OK: {} seeded finding(s) fired across all 4 checks; clean tree passed",
        v.findings.len()
    ))
}
