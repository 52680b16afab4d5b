//! `bench-gate`: the one place CI's bench output is gated (see
//! `tropic_bench::gate`).
//!
//! * `bench-gate snapshot <raw>` — `<raw>` is the `TROPIC_BENCH_JSON`
//!   stream of one `./ci.sh --bench-snapshot` run; writes and prints the
//!   six `BENCH_*.json` files in the working directory.
//! * `bench-gate chaos-trend` — gates `CHAOS_report.json` (or
//!   `TROPIC_CHAOS_REPORT`) against the committed `CHAOS_baseline.jsonl`.
//!
//! Exit status: 0 every gate passed; 2 at least one failed (all are
//! named); 1 the data was missing or malformed, so there is no verdict.

use std::process::ExitCode;

use tropic_bench::gate::{self, Verdict};

type Verdicts = Result<Vec<Verdict>, Box<dyn std::error::Error>>;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

fn commit() -> String {
    let describe = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output();
    match describe {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().into(),
        _ => "unknown".into(),
    }
}

fn snapshot(raw_path: &str) -> Verdicts {
    let rows = gate::parse_rows(&read(raw_path)?)?;
    let quick = std::env::var_os("TROPIC_BENCH_QUICK").is_some_and(|v| !v.is_empty() && v != "0");
    let mode = if quick { "quick" } else { "full" };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let mut verdicts = Vec::new();
    for (file, snapshot) in gate::snapshots(&rows, &commit(), mode, nproc)? {
        let text = snapshot.render();
        std::fs::write(file, &text).map_err(|e| format!("write {file}: {e}"))?;
        println!("\n=== {file} ===\n{text}");
        verdicts.extend(snapshot.gates);
    }
    Ok(verdicts)
}

fn chaos_trend() -> Verdicts {
    let report =
        std::env::var("TROPIC_CHAOS_REPORT").unwrap_or_else(|_| "CHAOS_report.json".into());
    let (trajectory, verdicts) =
        gate::chaos_trend(&read(&report)?, &read("CHAOS_baseline.jsonl")?)?;
    print!("{trajectory}");
    Ok(verdicts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let verdicts = match args[..] {
        ["snapshot", raw] => snapshot(raw),
        ["chaos-trend"] => chaos_trend(),
        _ => Err("usage: bench-gate snapshot <raw-rows-file> | bench-gate chaos-trend".into()),
    };
    let verdicts = match verdicts {
        Ok(verdicts) => verdicts,
        Err(e) => {
            eprintln!("bench-gate: {e}");
            return ExitCode::from(1);
        }
    };
    for v in &verdicts {
        let verdict = if v.pass { "ok" } else { "FAILED" };
        println!(
            "gate {:<28} {:>10.3} {} {:<8} {verdict}",
            v.name, v.value, v.op, v.limit
        );
    }
    let failed = gate::failed(&verdicts);
    if failed.is_empty() {
        println!("\nAll {} gates passed.", verdicts.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate FAILED: {}", failed.join(", "));
        ExitCode::from(2)
    }
}
