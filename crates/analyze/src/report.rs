//! Findings and deterministic report formatting.

use std::collections::BTreeMap;
use std::fmt;

/// Check identifiers, used in diagnostics and allow directives.
pub mod check {
    /// Inconsistent lock acquisition order (cycle in the global graph).
    pub const LOCK_ORDER: &str = "lock-order";
    /// Blocking call while a lock guard is live.
    pub const BLOCKING: &str = "blocking-under-lock";
    /// Wire/WAL schema fingerprint drift without a version bump.
    pub const SCHEMA: &str = "schema-drift";
    /// Panic-capable call in production code over the allowlisted budget.
    pub const PANIC: &str = "panic-path";
}

/// One diagnostic produced by a check.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line, or 0 for file-level findings.
    pub line: u32,
    /// Check id (one of [`check`]).
    pub check: &'static str,
    /// Human-readable description, including the second site for
    /// cross-site findings.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.check, self.message
        )
    }
}

/// Sorts findings into the canonical deterministic order.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.check, &a.message).cmp(&(&b.file, b.line, b.check, &b.message))
    });
}

/// Renders the full report: one line per finding, any non-fatal
/// notices, one product-size line per census root (non-test code lines,
/// the number the ROADMAP's size target is stated in), and a trailing
/// summary line. Byte-identical across runs on the same tree.
pub fn render(
    findings: &[Finding],
    notices: &[String],
    product_sizes: &BTreeMap<&str, usize>,
    files_scanned: usize,
) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    for n in notices {
        out.push_str(n);
        out.push('\n');
    }
    for (root, lines) in product_sizes {
        out.push_str(&format!(
            "product size: {root} {lines} non-test code line(s)\n"
        ));
    }
    out.push_str(&format!(
        "tropic-analyze: {} finding(s) across {} file(s)\n",
        findings.len(),
        files_scanned
    ));
    out
}
