//! End-to-end tests over the committed fixture trees: each check family
//! fires on the seeded violations, inline allows and budgets silence the
//! clean tree, and reports are byte-deterministic.

use std::path::{Path, PathBuf};

use tropic_analyze::report::check;
use tropic_analyze::schema::Registry;
use tropic_analyze::{analyze, self_test, Analysis, Options};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn run(tree: &str) -> Analysis {
    let opts = Options {
        root: fixtures().join(tree),
        registry: Registry::fixtures(),
    };
    analyze(&opts).expect("fixture tree analyzes")
}

#[test]
fn violations_fire_every_check_family() {
    let v = run("violations");
    for id in [
        check::LOCK_ORDER,
        check::BLOCKING,
        check::SCHEMA,
        check::PANIC,
        check::SLEEP,
        check::JSON,
    ] {
        assert!(
            v.findings.iter().any(|f| f.check == id),
            "seeded tree must fire {id}; report:\n{}",
            v.report
        );
    }
}

#[test]
fn lock_order_finding_names_both_sites() {
    let v = run("violations");
    let f = v
        .findings
        .iter()
        .find(|f| f.check == check::LOCK_ORDER)
        .expect("lock-order finding");
    assert_eq!(f.file, "src/locks.rs");
    assert!(
        f.message.contains("accounts") && f.message.contains("ledger"),
        "both locks named: {}",
        f.message
    );
    assert!(
        f.message.contains("elsewhere"),
        "two-site diagnostic cites the opposite order: {}",
        f.message
    );
}

#[test]
fn blocking_finding_names_the_call_and_the_lock() {
    let v = run("violations");
    let f = v
        .findings
        .iter()
        .find(|f| f.check == check::BLOCKING)
        .expect("blocking finding");
    assert_eq!(f.file, "src/blocking.rs");
    assert!(f.message.contains("sync_all"), "{}", f.message);
    assert!(f.message.contains("state"), "{}", f.message);
}

#[test]
fn schema_drift_names_the_envelope_type() {
    let v = run("violations");
    let f = v
        .findings
        .iter()
        .find(|f| f.check == check::SCHEMA)
        .expect("schema finding");
    assert!(f.message.contains("Envelope"), "{}", f.message);
}

#[test]
fn panic_findings_skip_test_code() {
    let v = run("violations");
    let panics: Vec<_> = v
        .findings
        .iter()
        .filter(|f| f.check == check::PANIC)
        .collect();
    // panicky.rs holds two production sites and one inside #[cfg(test)].
    assert_eq!(panics.len(), 2, "report:\n{}", v.report);
    assert!(panics.iter().all(|f| f.file == "src/panicky.rs"));
}

#[test]
fn sleep_findings_skip_allowed_and_test_sites() {
    let v = run("violations");
    let sleeps: Vec<_> = v
        .findings
        .iter()
        .filter(|f| f.check == check::SLEEP)
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    // sleepy.rs holds one bare product sleep, one allowed, one in a test.
    assert_eq!(sleeps, vec![("src/sleepy.rs", 7)], "report:\n{}", v.report);
}

#[test]
fn json_findings_skip_allowed_and_test_sites() {
    let v = run("violations");
    let jsons: Vec<_> = v
        .findings
        .iter()
        .filter(|f| f.check == check::JSON)
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    // jsony.rs holds one bare product site, one allowed, one in a test.
    assert_eq!(jsons, vec![("src/jsony.rs", 5)], "report:\n{}", v.report);
}

#[test]
fn clean_tree_is_silent_through_allows_and_budgets() {
    let c = run("clean");
    assert!(
        c.findings.is_empty(),
        "allows + budgets + matching lock must silence the tree:\n{}",
        c.report
    );
}

#[test]
fn reports_are_byte_deterministic() {
    let a = run("violations");
    let b = run("violations");
    assert_eq!(a.report, b.report);
    let c = run("clean");
    let d = run("clean");
    assert_eq!(c.report, d.report);
}

#[test]
fn self_test_entry_point_passes_on_committed_fixtures() {
    let msg = self_test(&fixtures()).expect("self-test passes");
    assert!(msg.contains("self-test OK"), "{msg}");
}

#[test]
fn repo_tree_has_no_lock_or_blocking_regressions() {
    // The real tree: the committed allow.toml and WIRE_SCHEMAS.lock keep
    // it at zero findings; lock-order and blocking findings in particular
    // must never appear (they have no budget escape).
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let analysis = analyze(&Options::repo(root)).expect("repo analyzes");
    for f in &analysis.findings {
        assert_ne!(f.check, check::LOCK_ORDER, "{f}");
        assert_ne!(f.check, check::BLOCKING, "{f}");
    }
}
