//! One pass of one workload: set up (several times), measure, check the
//! outputs, and turn what was seen into the pass's metric set.

use std::io::Write as _;
use std::path::{Path as FsPath, PathBuf};
use std::time::{Duration, Instant};

use crate::live::{self, Live, Measured, Span};
use crate::metrics::{MetricSet, PassResult, END_TO_END, PER_LAYER};
use crate::probes::{self, ProbeInputs};
use crate::stats::{median, percentile, sort};
use crate::workload::{Shape, Workload};

/// How long and how often things run. `full` is what reported numbers
/// use; `smoke` only proves every workload and check still works.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    pub measure: Duration,
    /// Fewest and most set-ups per untraced pass; `setup_s` is their
    /// median. Past the fewest, set-ups go on while `SETUP_BUDGET` lasts,
    /// so the small topologies (tens of milliseconds each, much of it timer
    /// granularity in leader election) get many samples.
    pub setup_reps: (usize, usize),
    /// Calls per layer probe.
    pub probe_iters: usize,
    /// Refuse a percentile with too few samples beyond it, instead of
    /// falling back to the largest sample.
    pub strict_percentiles: bool,
}

impl Sizing {
    pub fn full(seconds: u64) -> Self {
        Sizing {
            measure: Duration::from_secs(seconds),
            setup_reps: (5, 25),
            probe_iters: 256,
            strict_percentiles: true,
        }
    }

    pub fn smoke() -> Self {
        Sizing {
            measure: Duration::from_millis(400),
            setup_reps: (1, 1),
            probe_iters: 32,
            strict_percentiles: false,
        }
    }
}

/// Time the extra set-ups of a pass may take beyond the fewest.
const SETUP_BUDGET: Duration = Duration::from_millis(1_500);

/// `benchmark/out/`: data dirs of the durable workloads and the traces.
pub fn out_dir() -> PathBuf {
    FsPath::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// A gated percentile: refused when too few samples lie beyond it, unless
/// the sizing is a smoke run.
fn strict_pct(sizing: &Sizing, sorted: &[f64], p: f64) -> Result<f64, String> {
    match percentile(sorted, p) {
        Some(v) => Ok(v),
        None if !sizing.strict_percentiles => Ok(loose_pct(sorted, p)),
        None => Err(format!(
            "{} latency samples are too few for p{p}: run longer",
            sorted.len()
        )),
    }
}

/// A diagnostic percentile: the largest sample when too few lie beyond it.
fn loose_pct(sorted: &[f64], p: f64) -> f64 {
    percentile(sorted, p).unwrap_or_else(|| sorted.last().copied().unwrap_or(0.0))
}

/// Durations (ms) of the spans called `name`, ascending.
fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    sort(&mut ms);
    ms
}

/// Self time (ms) of every root `txn` span: its duration minus the part
/// its children cover. Children are `submit` then `wait` and never overlap.
fn txn_self_ms(spans: &[Span]) -> Vec<f64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            covered[p] += hi.saturating_sub(lo);
        }
    }
    let mut ms: Vec<f64> = spans
        .iter()
        .zip(&covered)
        .filter(|(s, _)| s.parent.is_none())
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 / 1e6)
        .collect();
    sort(&mut ms);
    ms
}

/// Writes the spans as JSON lines in one array: name, start, end (µs from
/// the start of the measured window), parent span and transaction id.
fn write_trace(path: &FsPath, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    )?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let comma = if id + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"id\":{id},\"parent\":{parent},\"txn\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}{comma}",
            s.txn,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

/// Runs one pass. `Err` means the benchmark itself could not run; wrong
/// outputs come back as `correct: false` with the reasons on stderr.
pub fn run(
    wl: &'static Workload,
    seed: u64,
    sizing: &Sizing,
    trace: bool,
) -> Result<PassResult, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;

    let t = Instant::now();
    let mut live = live::setup(wl, seed, &out)?;
    let first_setup_s = t.elapsed().as_secs_f64();

    let m = live::measure(&mut live, sizing.measure, trace);
    let mut wrong = live::check_outputs(&live, &m);
    let metrics = match trace {
        false => end_to_end(wl, seed, sizing, &out, live, &m, first_setup_s)?,
        true => per_layer(wl, seed, sizing, &out, live, &m, &mut wrong)?,
    };

    eprintln!(
        "benchmark: {} terminal of {} attempted in {:.2} s ({} latency samples)",
        m.tally.terminal(),
        m.tally.attempted,
        m.wall.as_secs_f64(),
        m.lat_ms.len()
    );
    for w in &wrong {
        eprintln!("benchmark: WRONG OUTPUT: {w}");
    }
    Ok(PassResult {
        correct: wrong.is_empty(),
        attempted: m.tally.attempted,
        failed: m.tally.failed(),
        metrics: metrics.finish(),
    })
}

/// The untraced pass's metrics. Consumes the live platform: the extra
/// set-ups behind `setup_s` come after it is gone, so they touch neither
/// its memory nor its run.
fn end_to_end(
    wl: &'static Workload,
    seed: u64,
    sizing: &Sizing,
    out: &FsPath,
    live: Live,
    m: &Measured,
    first_setup_s: f64,
) -> Result<MetricSet, String> {
    let mut set = MetricSet::new(END_TO_END);
    set.set("throughput_tps", m.throughput_tps);
    set.set("lat_p50_ms", strict_pct(sizing, &m.lat_ms, 50.0)?);
    set.set("peak_rss_mb", peak_rss_mb()?);
    live.teardown();
    let mut setup_s = vec![first_setup_s];
    let began = Instant::now();
    while setup_s.len() < sizing.setup_reps.0
        || (setup_s.len() < sizing.setup_reps.1 && began.elapsed() < SETUP_BUDGET)
    {
        let t = Instant::now();
        let again = live::setup(wl, seed, out)?;
        setup_s.push(t.elapsed().as_secs_f64());
        again.teardown();
    }
    set.set("setup_s", median(&setup_s));
    Ok(set)
}

/// The traced pass's metrics: (A) counter deltas, (B) client spans, the
/// recovery check, (C) layer probes, and the spans written to disk.
fn per_layer(
    wl: &'static Workload,
    seed: u64,
    sizing: &Sizing,
    out: &FsPath,
    live: Live,
    m: &Measured,
    wrong: &mut Vec<String>,
) -> Result<MetricSet, String> {
    let mut set = MetricSet::new(PER_LAYER);
    let txns = m.tally.terminal().max(1) as f64;
    let (b, a) = (&m.before, &m.after);

    // (A) Counters that grow with work: growth per terminal transaction.
    for (name, after, before) in [
        (
            "core.controller.defers_per_txn",
            a.counters.defers,
            b.counters.defers,
        ),
        (
            "core.rpc.requests_per_txn",
            a.counters.rpc_requests,
            b.counters.rpc_requests,
        ),
        (
            "coord.service.reads_per_txn",
            a.service.reads,
            b.service.reads,
        ),
        (
            "coord.service.writes_per_txn",
            a.service.writes,
            b.service.writes,
        ),
        (
            "coord.service.multis_per_txn",
            a.service.multis,
            b.service.multis,
        ),
        (
            "coord.service.watch_events_per_txn",
            a.service.watch_events,
            b.service.watch_events,
        ),
        (
            "coord.ensemble.commits_per_txn",
            a.ensemble.committed,
            b.ensemble.committed,
        ),
        (
            "coord.wal.fsyncs_per_txn",
            a.ensemble.fsyncs,
            b.ensemble.fsyncs,
        ),
        (
            "coord.wal.bytes_fsynced_per_txn",
            a.ensemble.bytes_fsynced,
            b.ensemble.bytes_fsynced,
        ),
        (
            "devices.registry.actions_per_txn",
            a.faults.total(),
            b.faults.total(),
        ),
    ] {
        set.set(name, (after - before) as f64 / txns);
    }
    // Events that are rare or periodic: plain growth over the window.
    for (name, after, before) in [
        (
            "core.controller.checkpoints",
            a.counters.checkpoints,
            b.counters.checkpoints,
        ),
        (
            "coord.wal.pipeline_stalls",
            a.ensemble.pipeline_stalls,
            b.ensemble.pipeline_stalls,
        ),
        (
            "coord.wal.segments_rotated",
            a.ensemble.segments_rotated,
            b.ensemble.segments_rotated,
        ),
        (
            "coord.snapshot.snapshots_written",
            a.ensemble.snapshots_written,
            b.ensemble.snapshots_written,
        ),
        (
            "coord.snapshot.delta_snapshots_written",
            a.ensemble.delta_snapshots_written,
            b.ensemble.delta_snapshots_written,
        ),
        (
            "devices.fault.injected",
            a.faults.injected,
            b.faults.injected,
        ),
    ] {
        set.set(name, (after - before) as f64);
    }
    set.set(
        "core.controller.busy_frac",
        (a.busy - b.busy).as_secs_f64() / m.wall.as_secs_f64(),
    );
    set.set("core.txn.aborted_frac", m.tally.aborted as f64 / txns);
    let multis = (a.service.multis - b.service.multis) as f64;
    let ops_per_multi = match multis > 0.0 {
        true => (a.service.batched_ops - b.service.batched_ops) as f64 / multis,
        false => 0.0,
    };
    set.set("coord.service.ops_per_multi", ops_per_multi);
    let disk_bytes = live
        .data_dir
        .as_ref()
        .map_or(0, |d| live::dir_bytes(d.path()));
    set.set("coord.wal.disk_bytes_per_txn", disk_bytes as f64 / txns);

    // (B) Client spans; the submit and wait calls belong to `core::rpc` on
    // the socket workloads and to `core::api` on the in-process ones.
    let submit_p50 = loose_pct(&span_ms(&m.spans, "submit"), 50.0);
    let wait_p50 = loose_pct(&span_ms(&m.spans, "wait"), 50.0);
    let (api, rpc) = match wl.socket {
        true => ((0.0, 0.0), (submit_p50, wait_p50)),
        false => ((submit_p50, wait_p50), (0.0, 0.0)),
    };
    set.set("core.api.submit_ms_p50", api.0);
    set.set("core.api.wait_ms_p50", api.1);
    set.set("core.rpc.submit_ms_p50", rpc.0);
    set.set("core.rpc.wait_ms_p50", rpc.1);
    set.set(
        "core.rpc.ping_idle_us_p50",
        live::ping_idle_us_p50(&live, sizing.probe_iters),
    );
    set.set(
        "client.txn_self_ms_p50",
        loose_pct(&txn_self_ms(&m.spans), 50.0),
    );
    set.set("client.lat_p90_ms", loose_pct(&m.lat_ms, 90.0));
    set.set("client.lat_p99_ms", loose_pct(&m.lat_ms, 99.0));
    set.set("client.mean_throughput_tps", m.mean_throughput_tps);
    set.set("client.sched_lag_max_ms", m.sched_lag_max_ms);
    set.set("client.backlog_end", m.backlog_end as f64);
    set.set(
        "client.failed_frac",
        m.tally.failed() as f64 / m.tally.attempted.max(1) as f64,
    );
    set.set("bench.traced_throughput_tps", m.throughput_tps);

    let live_records = live::live_records(&live);
    let stopped = Instant::now();
    let data_dir = live.teardown();

    // Restart cost, and no acknowledged commit lost, on the durable closed
    // loop.
    let (recover_s, acked_lost) = match &data_dir {
        Some(dir) if wl.shape == Shape::Waves => live::recover_check(wl, dir, &m.samples, stopped)?,
        _ => (0.0, 0),
    };
    if acked_lost > 0 {
        wrong.push(format!(
            "{acked_lost} acknowledged commits lost across recovery"
        ));
    }
    set.set("core.platform.recover_s", recover_s);
    set.set("core.platform.acked_lost", acked_lost as f64);
    drop(data_dir);

    // (C) Layer probes.
    probes::run(
        &ProbeInputs {
            wl,
            seed,
            iters: sizing.probe_iters,
            ops_per_multi,
            live_records,
            out_dir: out,
        },
        &mut set,
    )?;

    // How much of a transaction the probes explain: every probed cost
    // weighted by how often the counters say it ran per transaction.
    let g = |name: &str| set.get(name);
    let single_writes =
        (g("coord.service.writes_per_txn") - g("coord.service.multis_per_txn")).max(0.0);
    let serial_us = g("core.msg.encode_input_us")
        + g("core.msg.decode_input_us")
        + (1.0 + g("core.controller.defers_per_txn")) * g("core.logical.simulate_us")
        + g("core.txn.aborted_frac") * g("core.logical.rollback_us")
        + 2.0 * (g("core.txn.record_encode_us") + g("core.txn.record_decode_us"))
        + g("coord.service.multis_per_txn") * g("coord.service.multi_us")
        + single_writes * g("coord.queue.enqueue_us")
        + g("coord.service.reads_per_txn") * g("coord.service.get_data_us")
        + g("core.rpc.requests_per_txn")
            * (g("core.rpc.encode_request_us")
                + g("core.rpc.decode_request_us")
                + g("core.rpc.encode_response_us")
                + g("core.rpc.decode_response_us"))
        + g("devices.registry.actions_per_txn") * g("devices.registry.invoke_us");
    set.set("bench.probe_serial_us_per_txn", serial_us);
    set.set(
        "bench.probe_coverage",
        serial_us / (1e6 / m.throughput_tps.max(1e-9)),
    );

    let path = out.join(format!("trace-{}.json", wl.name));
    write_trace(&path, wl.name, seed, &m.spans)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(set)
}
