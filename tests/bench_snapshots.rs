//! The five committed `BENCH_*.json` perf-trajectory points must be what
//! `bench-gate snapshot` writes: one schema, no row in two files, and gate
//! verdicts that re-derive from the recorded rows under today's `GATES`
//! table. A hand-edited or stale-shaped snapshot fails here, in tier-1,
//! not in a nightly.

use std::collections::BTreeSet;

use tropic_bench::gate::{evaluate, Snapshot, SNAPSHOT_FILES};

#[test]
fn committed_snapshots_share_one_schema_and_pass_their_gates() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut row_names = BTreeSet::new();
    for &(file, bench, _) in SNAPSHOT_FILES {
        let text = std::fs::read_to_string(root.join(file)).expect(file);
        let snapshot: Snapshot =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(snapshot.bench, bench, "{file}");
        assert!(!snapshot.commit.is_empty(), "{file}: no commit");
        assert!(
            ["quick", "full"].contains(&snapshot.mode.as_str()),
            "{file}: mode {:?}",
            snapshot.mode
        );
        assert!(snapshot.host.nproc > 0, "{file}: no nproc");
        assert_eq!(snapshot.render(), text, "{file}: not bench-gate's layout");
        for row in &snapshot.rows {
            assert!(
                row_names.insert(row.name.clone()),
                "row {} is reported twice ({file})",
                row.name
            );
        }
        let verdicts = evaluate(file, &snapshot.rows).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(snapshot.gates, verdicts, "{file}: recorded gates are stale");
        assert!(!verdicts.is_empty(), "{file}: gates nothing");
        for gate in &verdicts {
            assert!(gate.pass, "{file}: committed snapshot fails gate {gate:?}");
        }
    }
}
