//! The one bench gate: read rows, derive, compare, write.
//!
//! Every bench of a `./ci.sh --bench-snapshot` run appends one JSON line
//! per measurement to the file named by `TROPIC_BENCH_JSON` — first-party
//! emitters through [`emit_row`], the vendored criterion stub in its own
//! `{"name","mean_ns","iterations"}` shape (read as `unit = "ns"`).
//! [`parse_rows`] reads that stream back, [`snapshots`] splits it into the
//! six `BENCH_*.json` files under one schema and evaluates `GATES`, the
//! single table of every threshold CI enforces on bench output. The
//! `bench-gate` binary is the only caller outside tests.

use std::fmt::Write as _;
use std::io::Write as _;

use serde::{Deserialize, Serialize};
use tropic_workload::chaos::ChaosReport;

/// One measurement: a value that carries its unit (`ns`, `bytes`, `count`,
/// `ms`) and the number of samples behind it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// `<bench>/<metric>`; the prefix decides which snapshot file owns it.
    pub name: String,
    /// The measured value, in `unit`.
    pub value: u64,
    /// Unit of `value`.
    pub unit: String,
    /// Samples behind `value`; 0 means nothing was measured.
    pub samples: u64,
}

impl Row {
    /// A row; see the field docs.
    pub fn new(name: impl Into<String>, value: u64, unit: &str, samples: u64) -> Row {
        Row {
            name: name.into(),
            value,
            unit: unit.into(),
            samples,
        }
    }
}

/// Appends one [`Row`] to the `TROPIC_BENCH_JSON` stream; a no-op when the
/// variable is unset (a bench run outside `--bench-snapshot`).
pub fn emit_row(name: &str, value: u64, unit: &str, samples: u64) {
    let Some(path) = std::env::var_os("TROPIC_BENCH_JSON") else {
        return;
    };
    let row = Row::new(name, value, unit, samples);
    let line = serde_json::to_string(&row).expect("a Row is serializable");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("open TROPIC_BENCH_JSON");
    writeln!(file, "{line}").expect("append bench row");
}

/// Why a gate run could not produce a verdict — distinct from a gate that
/// ran and failed.
#[derive(Debug, PartialEq)]
pub enum GateError {
    /// A line of the raw stream, a report or a baseline file does not parse.
    Malformed(String),
    /// A gate needs a row that is absent, has no samples, or is a zero
    /// denominator.
    MissingRow(String),
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::Malformed(what) => write!(f, "malformed bench data: {what}"),
            GateError::MissingRow(name) => write!(f, "bench data missing row {name}"),
        }
    }
}

impl std::error::Error for GateError {}

/// The vendored criterion stub's line shape.
#[derive(Deserialize)]
struct CriterionRow {
    name: String,
    mean_ns: u64,
    iterations: u64,
}

/// Parses the raw `TROPIC_BENCH_JSON` stream. Blank lines are skipped; any
/// other line that is not a complete row of either shape fails loudly with
/// its line number instead of being dropped.
pub fn parse_rows(raw: &str) -> Result<Vec<Row>, GateError> {
    let lines = raw
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    lines
        .map(|(i, line)| {
            serde_json::from_str::<Row>(line)
                .or_else(|_| {
                    serde_json::from_str::<CriterionRow>(line)
                        .map(|c| Row::new(c.name, c.mean_ns, "ns", c.iterations))
                })
                .map_err(|e| GateError::Malformed(format!("line {}: {e}: {line}", i + 1)))
        })
        .collect()
}

/// How a gate's value derives from named rows.
enum Source {
    Row(&'static str),
    /// First row's value over the second's.
    Ratio(&'static str, &'static str),
}

enum Cmp {
    Le,
    Ge,
    Eq,
}

/// One enforced threshold: `source cmp limit`, recorded in `file`.
struct Gate {
    file: &'static str,
    name: &'static str,
    source: Source,
    cmp: Cmp,
    limit: f64,
}

/// Idle subscriptions the `rpc_roundtrip` bench opens and the
/// `live_connections` gate requires held on one reactor.
pub const MIN_LIVE_CONNECTIONS: usize = 1000;

/// Pseudo-file of the `--chaos-trend` gates: evaluated, never written.
const CHAOS_TREND: &str = "chaos-trend";

#[rustfmt::skip]
const fn gate(file: &'static str, name: &'static str, source: Source, cmp: Cmp, limit: f64) -> Gate {
    Gate { file, name, source, cmp, limit }
}

/// Every threshold CI enforces on bench output. Constants, not knobs: no
/// run ever set the environment variables these replaced.
#[rustfmt::skip]
const GATES: &[Gate] = {
    use {Cmp::*, Source::*};
    &[
    // A delta snapshot at 5 % dirty stays a small fraction of a full one.
    gate("BENCH_snapshot.json", "delta_over_full_bytes", Ratio("snapshot/delta_bytes", "snapshot/full_bytes"), Le, 0.25),
    // The `pipelined_fsync_*` rows run `SyncPolicy::Pipelined { depth: 4 }`: a 4-batch ack window — an
    // acknowledgement may run four batches ahead of the disk — so the speedup is not free.
    gate("BENCH_commit_path.json", "pipelined_fsync_speedup_16k", Ratio("commit_path/serial_fsync_16k", "commit_path/pipelined_fsync_16k"), Ge, 1.3),
    gate("BENCH_recovery.json", "snapshot_recovery_speedup", Ratio("recovery/full_log_replay", "recovery/snapshot_suffix"), Ge, 2.0),
    // Both drivers pipeline an identical window, so the socket's per-transaction cost is all that differs.
    gate("BENCH_rpc.json", "socket_over_in_process", Ratio("rpc_roundtrip/over_socket", "rpc_roundtrip/in_process"), Le, 1.5),
    gate("BENCH_rpc.json", "live_connections", Row("rpc_roundtrip/live_connections"), Ge, MIN_LIVE_CONNECTIONS as f64),
    // Committed p99 per lane under a leader kill, ms.
    gate("BENCH_chaos.json", "p99_hi_ms", Row("chaos/p99_hi"), Le, 1500.0),
    gate("BENCH_chaos.json", "p99_norm_ms", Row("chaos/p99_norm"), Le, 1500.0),
    gate("BENCH_chaos.json", "p99_batch_ms", Row("chaos/p99_batch"), Le, 1500.0),
    // 0 is the good value, so presence is judged by the row's samples, never by its value.
    gate("BENCH_chaos.json", "acked_lost", Row("chaos/acked_lost"), Eq, 0.0),
    // Twin drift-to-converged MTTR p99, ms.
    gate("BENCH_reconcile.json", "mttr_p99_1k_ms", Row("reconcile/mttr_p99_1k"), Le, 8000.0),
    gate("BENCH_reconcile.json", "mttr_p99_16k_ms", Row("reconcile/mttr_p99_16k"), Le, 8000.0),
    // Chaos-smoke committed p99 over the latest committed baseline point. Chaos latencies are noisy:
    // this only catches collapses, the absolute p99 gates above hold the hard line.
    gate(CHAOS_TREND, "p99_hi_over_baseline", Ratio("chaos_trend/p99_hi", "chaos_trend/baseline_p99_hi"), Le, 3.0),
    gate(CHAOS_TREND, "p99_norm_over_baseline", Ratio("chaos_trend/p99_norm", "chaos_trend/baseline_p99_norm"), Le, 3.0),
    gate(CHAOS_TREND, "p99_batch_over_baseline", Ratio("chaos_trend/p99_batch", "chaos_trend/baseline_p99_batch"), Le, 3.0),
    ]
};

/// A gate's recorded outcome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Gate name, unique across the table.
    pub name: String,
    /// The derived value.
    pub value: f64,
    /// Comparison symbol (`<=`, `>=`, `==`).
    pub op: String,
    /// The constant compared against.
    pub limit: f64,
    /// Whether `value op limit` held.
    pub pass: bool,
}

fn measured(rows: &[Row], name: &str) -> Result<f64, GateError> {
    let row = rows.iter().find(|r| r.name == name && r.samples > 0);
    row.map(|r| r.value as f64)
        .ok_or_else(|| GateError::MissingRow(name.into()))
}

/// Evaluates every gate of `file` against `rows`. A failed gate is a
/// `pass: false` verdict; a row a gate needs but cannot find is an error.
pub fn evaluate(file: &str, rows: &[Row]) -> Result<Vec<Verdict>, GateError> {
    let gates = GATES.iter().filter(|g| g.file == file);
    gates
        .map(|g| {
            let value = match g.source {
                Source::Row(name) => measured(rows, name)?,
                Source::Ratio(num, den) => match measured(rows, den)? {
                    0.0 => return Err(GateError::MissingRow(den.into())),
                    den => measured(rows, num)? / den,
                },
            };
            let (op, pass) = match g.cmp {
                Cmp::Le => ("<=", value <= g.limit),
                Cmp::Ge => (">=", value >= g.limit),
                Cmp::Eq => ("==", value == g.limit),
            };
            Ok(Verdict {
                name: g.name.into(),
                value,
                op: op.into(),
                limit: g.limit,
                pass,
            })
        })
        .collect()
}

/// Names of the verdicts that did not pass.
pub fn failed(verdicts: &[Verdict]) -> Vec<&str> {
    let failed = verdicts.iter().filter(|v| !v.pass);
    failed.map(|v| v.name.as_str()).collect()
}

/// Host facts a snapshot's numbers depend on.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// `std::thread::available_parallelism` where the benches ran.
    pub nproc: u64,
}

/// The one schema all six `BENCH_*.json` files share.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Subsystem the file covers.
    pub bench: String,
    /// `git describe --always --dirty` of the measured tree.
    pub commit: String,
    /// `quick` (clamped criterion budgets) or `full`.
    pub mode: String,
    /// Where it ran.
    pub host: Host,
    /// The measurements, in emission order.
    pub rows: Vec<Row>,
    /// The gates over them.
    pub gates: Vec<Verdict>,
}

/// Snapshot file → (`bench` label, the row-name prefixes it owns). The
/// prefixes are disjoint, so no row lands in two files.
#[rustfmt::skip]
pub const SNAPSHOT_FILES: &[(&str, &str, &[&str])] = &[
    ("BENCH_commit_path.json", "commit_path", &["commit_path/", "coord_store/"]),
    ("BENCH_snapshot.json", "snapshot", &["snapshot/"]),
    ("BENCH_recovery.json", "recovery", &["recovery/"]),
    ("BENCH_rpc.json", "rpc_roundtrip", &["rpc_roundtrip/"]),
    ("BENCH_chaos.json", "chaos", &["chaos/"]),
    ("BENCH_reconcile.json", "reconcile", &["reconcile/"]),
];

/// Splits one run's rows into the six snapshots and gates each.
pub fn snapshots(
    rows: &[Row],
    commit: &str,
    mode: &str,
    nproc: u64,
) -> Result<Vec<(&'static str, Snapshot)>, GateError> {
    let files = SNAPSHOT_FILES.iter();
    files
        .map(|&(file, bench, prefixes)| {
            let owned = |r: &&Row| prefixes.iter().any(|p| r.name.starts_with(p));
            let rows: Vec<Row> = rows.iter().filter(owned).cloned().collect();
            let snapshot = Snapshot {
                bench: bench.into(),
                commit: commit.into(),
                mode: mode.into(),
                host: Host { nproc },
                gates: evaluate(file, &rows)?,
                rows,
            };
            Ok((file, snapshot))
        })
        .collect()
}

impl Snapshot {
    /// JSON with one row and one gate per line, so a regenerated file
    /// diffs by measurement.
    pub fn render(&self) -> String {
        fn json<T: Serialize + ?Sized>(value: &T) -> String {
            serde_json::to_string(value).expect("snapshot parts are serializable")
        }
        fn lines<T: Serialize>(items: &[T]) -> String {
            let items: Vec<String> = items.iter().map(|i| format!("    {}", json(i))).collect();
            items.join(",\n")
        }
        format!(
            "{{\n  \"bench\": {},\n  \"commit\": {},\n  \"mode\": {},\n  \"host\": {},\n  \
             \"rows\": [\n{}\n  ],\n  \"gates\": [\n{}\n  ]\n}}\n",
            json(&self.bench),
            json(&self.commit),
            json(&self.mode),
            json(&self.host),
            lines(&self.rows),
            lines(&self.gates)
        )
    }
}

/// One committed point of `CHAOS_baseline.jsonl`.
#[derive(Deserialize)]
struct BaselinePoint {
    label: String,
    lane: String,
    p50_ms: u64,
    p99_ms: u64,
}

/// The `--chaos-trend` gate: each lane's committed p99 in `report` (a
/// `CHAOS_report.json`) against the latest point of `baseline`
/// (`CHAOS_baseline.jsonl`, one point per line in commit order). Returns
/// the printable per-lane trajectory and the verdicts.
pub fn chaos_trend(report: &str, baseline: &str) -> Result<(String, Vec<Verdict>), GateError> {
    let malformed = |e: serde_json::Error| GateError::Malformed(e.to_string());
    let report: ChaosReport = serde_json::from_str(report).map_err(malformed)?;
    let points = baseline.lines().filter(|l| !l.trim().is_empty());
    let points: Vec<BaselinePoint> = points
        .map(|l| serde_json::from_str(l).map_err(malformed))
        .collect::<Result<_, _>>()?;

    let mut rows = Vec::new();
    let mut trajectory = String::from("chaos committed-latency trend (ms):\n");
    for lane in &report.lanes {
        let (name, now) = (&lane.lane, &lane.committed_latency);
        rows.push(Row::new(
            format!("chaos_trend/p99_{name}"),
            now.p99_ms,
            "ms",
            now.count,
        ));
        let (mut p50, mut p99) = (String::new(), String::new());
        for point in points.iter().filter(|p| p.lane == *name) {
            let _ = write!(p50, "{}({}) ", point.p50_ms, point.label);
            let _ = write!(p99, "{}({}) ", point.p99_ms, point.label);
        }
        let _ = writeln!(trajectory, "  {name:<5} p50: {p50}-> {}(now)", now.p50_ms);
        let _ = writeln!(trajectory, "        p99: {p99}-> {}(now)", now.p99_ms);
        if let Some(latest) = points.iter().rfind(|p| p.lane == *name) {
            let name = format!("chaos_trend/baseline_p99_{name}");
            rows.push(Row::new(name, latest.p99_ms, "ms", 1));
        }
    }
    Ok((trajectory, evaluate(CHAOS_TREND, &rows)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHAOS: &str = "BENCH_chaos.json";

    fn row(name: &str, value: u64) -> Row {
        Row::new(name, value, "ms", 1)
    }

    fn chaos_rows(p99_hi: u64, p99_norm: u64, lost: u64) -> Vec<Row> {
        let p99_batch = row("chaos/p99_batch", 300);
        vec![
            row("chaos/p99_hi", p99_hi),
            row("chaos/p99_norm", p99_norm),
            p99_batch,
            row("chaos/acked_lost", lost),
        ]
    }

    #[test]
    fn parses_both_line_shapes_in_any_key_order() {
        let want = Row::new("g/a", 120, "ns", 7);
        for line in [
            r#"{"name":"g/a","mean_ns":120,"iterations":7}"#,
            r#"{"iterations":7,"mean_ns":120,"name":"g/a"}"#,
            r#"{ "mean_ns" : 120 , "name" : "g/a" , "iterations" : 7 }"#,
        ] {
            assert_eq!(parse_rows(line).unwrap(), vec![want.clone()], "{line}");
        }
        let own = r#"{"name":"snapshot/full_bytes","value":9,"unit":"bytes","samples":1}"#;
        let rows = parse_rows(&format!("\n{own}\n")).unwrap();
        assert_eq!((rows[0].value, rows[0].unit.as_str()), (9, "bytes"));
    }

    #[test]
    fn incomplete_and_garbage_lines_fail_loudly() {
        for bad in [r#"{"name":"g/c","iterations":3}"#, "not json at all"] {
            let raw = format!("{{\"name\":\"ok\",\"mean_ns\":1,\"iterations\":1}}\n{bad}");
            match parse_rows(&raw) {
                Err(GateError::Malformed(msg)) => assert!(msg.starts_with("line 2"), "{msg}"),
                other => panic!("accepted {bad:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn two_tripped_gates_are_both_reported() {
        let verdicts = evaluate(CHAOS, &chaos_rows(1501, 9000, 0)).unwrap();
        assert_eq!(failed(&verdicts), ["p99_hi_ms", "p99_norm_ms"]);
        assert_eq!(verdicts.len(), 4);
    }

    #[test]
    fn missing_row_is_an_error_not_a_failed_gate() {
        let mut rows = chaos_rows(1, 1, 0);
        // A lane with no committed samples measured nothing.
        rows[0].samples = 0;
        let missing = |name: &str| Err(GateError::MissingRow(name.into()));
        assert_eq!(evaluate(CHAOS, &rows), missing("chaos/p99_hi"));
        rows.remove(0);
        assert_eq!(evaluate(CHAOS, &rows), missing("chaos/p99_hi"));
    }

    #[test]
    fn zero_acked_lost_is_present_and_passing_one_fails() {
        let failed_with = |lost| evaluate(CHAOS, &chaos_rows(1, 1, lost)).map(|v| failed(&v).len());
        assert_eq!((failed_with(0), failed_with(1)), (Ok(0), Ok(1)));
    }

    #[test]
    fn zero_denominator_is_missing_data_not_infinity() {
        let (delta, full) = ("snapshot/delta_bytes", "snapshot/full_bytes");
        let rows = [row(delta, 5), row(full, 0)];
        let missing = GateError::MissingRow("snapshot/full_bytes".into());
        assert_eq!(evaluate("BENCH_snapshot.json", &rows), Err(missing));
    }

    #[test]
    fn every_gate_has_a_home_and_gate_names_are_unique() {
        for (i, g) in GATES.iter().enumerate() {
            let known = SNAPSHOT_FILES.iter().any(|(file, ..)| *file == g.file);
            assert!(known || g.file == CHAOS_TREND, "{} gates no file", g.name);
            let unique = GATES[..i].iter().all(|other| other.name != g.name);
            assert!(unique, "two gates named {}", g.name);
        }
    }

    #[test]
    fn trend_compares_against_the_latest_baseline_point() {
        let report = |hi_p99| {
            let mut report = ChaosReport::default();
            for (lane, p99_ms) in [("hi", hi_p99), ("norm", 9), ("batch", 9)] {
                let mut lane = tropic_workload::chaos::LaneReport {
                    lane: lane.into(),
                    ..Default::default()
                };
                (lane.committed_latency.count, lane.committed_latency.p99_ms) = (5, p99_ms);
                report.lanes.push(lane);
            }
            report.to_json()
        };
        let point = |label, lane, p99| {
            format!("{{\"label\":\"{label}\",\"lane\":\"{lane}\",\"p50_ms\":1,\"p99_ms\":{p99}}}\n")
        };
        let hi_only = point("pr7", "hi", 10) + &point("pr15", "hi", 100);
        let baseline = format!(
            "{hi_only}{}{}",
            point("pr7", "norm", 50),
            point("pr7", "batch", 50)
        );

        // 250 ≤ 3 × 100 (pr15) though not ≤ 3 × 10 (pr7); 301 is past both.
        let (trajectory, verdicts) = chaos_trend(&report(250), &baseline).unwrap();
        assert!(failed(&verdicts).is_empty(), "{verdicts:?}");
        let series = "p99: 10(pr7) 100(pr15) -> 250(now)";
        assert!(trajectory.contains(series), "{trajectory}");
        let (_, verdicts) = chaos_trend(&report(301), &baseline).unwrap();
        assert_eq!(failed(&verdicts), ["p99_hi_over_baseline"]);
        // A lane the baseline never recorded is missing data; a torn line is malformed.
        let missing = GateError::MissingRow("chaos_trend/baseline_p99_norm".into());
        assert_eq!(chaos_trend(&report(1), &hi_only).unwrap_err(), missing);
        let torn = chaos_trend(&report(1), "{\"label\":");
        assert!(matches!(torn, Err(GateError::Malformed(_))), "{torn:?}");
    }
}
