//! `run` and `repeat`: every workload in fresh child processes, first
//! untraced (end-to-end metrics), then traced (per-layer metrics).

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::metrics::{BenchmarkJson, PassResult, END_TO_END, PER_LAYER, TRACE_OVERHEAD};
use crate::workload::{Workload, WORKLOADS};
use crate::Args;

/// The contract's cap on one pass. A child still running then is killed
/// and the whole command fails: partial numbers are not reported.
const CHILD_TIMEOUT: Duration = Duration::from_secs(180);

/// One workload's metrics from both passes, in declared order.
type Row = (&'static str, &'static str, f64);

fn child_pass(wl: &Workload, args: &Args, trace: bool) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", wl.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let what = format!("{} (trace {})", wl.name, trace as u8);
    let mut child = cmd.spawn().map_err(|e| format!("start {what}: {e}"))?;
    // The child prints one short line, far below a pipe's capacity, so
    // polling for its exit before reading cannot block it.
    let started = Instant::now();
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("wait for {what}: {e}"))?
        {
            Some(status) => break status,
            None if started.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{what} did not finish in {CHILD_TIMEOUT:?}; killed"
                ));
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let output = child
        .wait_with_output()
        .map_err(|e| format!("read {what}: {e}"))?;
    if !status.success() {
        return Err(format!("{what} exited with {status}"));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let result: PassResult =
        serde_json::from_str(line).map_err(|e| format!("{what} printed no result: {e}"))?;
    if !result.correct || result.failed > 0 {
        return Err(format!(
            "{what}: outputs wrong (correct={}, {} of {} failed)",
            result.correct, result.failed, result.attempted
        ));
    }
    Ok(result)
}

fn workloads(args: &Args) -> Vec<&'static Workload> {
    match args.workload {
        Some(wl) => vec![wl],
        None => WORKLOADS.iter().collect(),
    }
}

/// Both passes of one workload as rows in declared order, with the
/// tracing overhead derived from the two throughputs.
fn both_passes(wl: &Workload, args: &Args) -> Result<Vec<Row>, String> {
    let untraced = child_pass(wl, args, false)?;
    let traced = child_pass(wl, args, true)?;
    let mut rows = Vec::new();
    for (decls, result) in [(END_TO_END, &untraced), (PER_LAYER, &traced)] {
        for &(name, unit) in decls {
            let value = result
                .metrics
                .get(name)
                .ok_or_else(|| format!("{}: metric {name} missing", wl.name))?
                .value;
            rows.push((name, unit, value));
        }
    }
    let tps = |r: &PassResult, name: &str| r.metrics[name].value;
    let overhead =
        1.0 - tps(&traced, "bench.traced_throughput_tps") / tps(&untraced, "throughput_tps");
    rows.push((TRACE_OVERHEAD.0, TRACE_OVERHEAD.1, overhead));
    Ok(rows)
}

/// Runs every selected workload; a workload whose outputs are wrong
/// contributes no metrics and fails the command after the others ran.
fn run_set(args: &Args) -> (Vec<(&'static str, Vec<Row>)>, Vec<String>) {
    let mut sets = Vec::new();
    let mut errors = Vec::new();
    for wl in workloads(args) {
        let started = Instant::now();
        match both_passes(wl, args) {
            Ok(rows) => sets.push((wl.name, rows)),
            Err(e) => {
                eprintln!("benchmark: {e}");
                errors.push(e);
            }
        }
        eprintln!(
            "benchmark: {} took {:.1} s",
            wl.name,
            started.elapsed().as_secs_f64()
        );
    }
    (sets, errors)
}

fn finish(started: Instant, errors: Vec<String>) -> Result<(), String> {
    println!("total wall time: {:.1} s", started.elapsed().as_secs_f64());
    match errors.is_empty() {
        true => Ok(()),
        false => Err(format!(
            "{} failure(s): {}",
            errors.len(),
            errors.join("; ")
        )),
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let (sets, errors) = run_set(args);
    println!("{:<28} {:<40} {:>16} unit", "workload", "metric", "value");
    for (workload, rows) in &sets {
        for (name, unit, value) in rows {
            println!("{workload:<28} {name:<40} {value:>16.4} {unit}");
        }
    }
    finish(started, errors)
}

pub fn repeat(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let bounds = BenchmarkJson::load().end_to_end;
    let (first, mut errors) = run_set(args);
    let (second, more) = run_set(args);
    errors.extend(more);
    if !errors.is_empty() {
        return finish(started, errors);
    }
    println!(
        "{:<28} {:<40} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    for ((workload, a_rows), (_, b_rows)) in first.iter().zip(&second) {
        for ((name, unit, a), (_, _, b)) in a_rows.iter().zip(b_rows) {
            // Relative to the first run; a metric that is 0 in both reads 0.
            let diff = if a == b { 0.0 } else { (b - a).abs() / a.abs() };
            let bound = bounds.iter().find(|d| d.name == *name).map(|d| d.bound);
            let shown = bound.map_or("-".to_owned(), |b| format!("{b:.2}"));
            println!("{workload:<28} {name:<40} {a:>14.4} {b:>14.4} {diff:>9.4} {shown:>7} {unit}");
            if bound.is_some_and(|bound| diff > bound) {
                errors.push(format!(
                    "{workload}: {name} differs by {diff:.3} between two runs of the same build"
                ));
            }
        }
    }
    finish(started, errors)
}
