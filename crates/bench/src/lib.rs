//! Shared harness for the TROPIC evaluation experiments (paper §6).
//!
//! Each `src/bin/*` binary regenerates one table or figure; this library
//! holds the common machinery: a performance-tuned platform, the
//! EC2-workload runner with CPU-utilization sampling (Figures 4 and 5),
//! and table formatting — plus [`gate`], the one implementation of the
//! `BENCH_*.json` snapshots and the thresholds CI enforces on them.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod gate;
pub use gate::emit_row;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tropic_coord::{CoordConfig, EnsembleStats};
use tropic_core::{ExecMode, Metrics, PlatformConfig, Tropic};
use tropic_tcloud::TopologySpec;
use tropic_workload::{replay_ec2, Ec2Trace, Ec2TraceSpec, LatencyStats, ReplayReport};

/// Environment-variable override helper for experiment knobs.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Environment-variable override helper (f64).
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The shortened EC2 trace used by the performance experiments: same rates
/// as the paper's 1-hour trace (mean 2.34/s, peak 14/s at 80 % of the
/// duration), compressed in *duration* so rates — and therefore the
/// load-to-capacity ratio — are preserved.
pub fn short_ec2_trace(duration_s: usize) -> Ec2Trace {
    Ec2TraceSpec {
        duration_s,
        burst_center_s: duration_s as f64 * 0.8,
        burst_sigma_s: (duration_s as f64 / 60.0).max(2.0),
        ..Default::default()
    }
    .generate()
}

/// Platform configuration mirroring the paper's performance setup (§6.1):
/// logical-only mode, three controllers, and a coordination write latency
/// emulating ZooKeeper's logging I/O — the measured dominant overhead.
pub fn perf_platform(spec: &TopologySpec, write_latency: Duration) -> Tropic {
    perf_platform_at(spec, write_latency, None)
}

/// [`perf_platform`] with an optional durability directory: when given, the
/// coordination store write-ahead-logs and snapshots there, so the run also
/// measures the durability layer's overhead and its counters are live.
pub fn perf_platform_at(
    spec: &TopologySpec,
    write_latency: Duration,
    data_dir: Option<std::path::PathBuf>,
) -> Tropic {
    Tropic::start(
        PlatformConfig {
            controllers: 3,
            workers: 1,
            coord: CoordConfig {
                write_latency,
                data_dir,
                ..CoordConfig::default()
            },
            ..Default::default()
        },
        spec.service(),
        ExecMode::LogicalOnly,
    )
}

/// Result of one EC2-scale run.
pub struct PerfRun {
    /// Which multiple of the EC2 workload ran (1–5).
    pub scale: u32,
    /// Replay summary.
    pub report: ReplayReport,
    /// Controller-busy utilization (%) per sampling bucket.
    pub cpu_buckets: Vec<f64>,
    /// Latency distribution of finalized transactions.
    pub latency: LatencyStats,
    /// Lock-conflict defers observed.
    pub defers: u64,
    /// Coordination-ensemble counters at the end of the run, including the
    /// durability surface (snapshots written, segments rotated, bytes
    /// fsynced) — live when `TROPIC_DURABLE_DIR` is set.
    pub ensemble: EnsembleStats,
}

/// Runs the EC2 workload at `scale`× against a fresh platform, sampling
/// controller busy time every `bucket_ms` (Figure 4's series) and
/// collecting per-transaction latencies (Figure 5's CDF).
///
/// When `TROPIC_DURABLE_DIR` is set, each run persists its coordination
/// state under `<dir>/scale-<n>`, exercising the durability layer.
pub fn run_ec2_scale(
    spec: &TopologySpec,
    trace: &Ec2Trace,
    scale: u32,
    write_latency: Duration,
    bucket_ms: u64,
) -> PerfRun {
    let data_dir = std::env::var_os("TROPIC_DURABLE_DIR")
        .map(|d| std::path::PathBuf::from(d).join(format!("scale-{scale}")));
    let platform = perf_platform_at(spec, write_latency, data_dir);
    let scaled = trace.scaled(scale);

    // Background sampler: cumulative busy time per wall-clock bucket.
    let metrics: Metrics = platform.metrics().clone();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let sampler = std::thread::spawn(move || {
        let mut samples: Vec<(u64, f64)> = vec![(0, 0.0)];
        let start = std::time::Instant::now();
        while !stop2.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(bucket_ms.min(100)));
            let at = start.elapsed().as_millis() as u64;
            if at / bucket_ms > samples.last().map(|s| s.0 / bucket_ms).unwrap_or(0) {
                samples.push((at, metrics.busy().as_secs_f64() * 1_000.0));
            }
        }
        samples
    });

    let report = replay_ec2(
        &platform,
        spec,
        &scaled,
        1.0,
        2_048,
        Duration::from_secs(600),
    );
    stop.store(true, Ordering::SeqCst);
    let samples = sampler.join().expect("sampler thread");
    let cpu_buckets = tropic_workload::utilization_series(&samples);

    let latency = LatencyStats::new(
        platform
            .metrics()
            .samples()
            .iter()
            .map(|s| s.latency_ms())
            .collect(),
    );
    let defers = platform.metrics().counters().defers;
    let ensemble = platform.coord().ensemble_stats();
    platform.shutdown();
    PerfRun {
        scale,
        report,
        cpu_buckets,
        latency,
        defers,
        ensemble,
    }
}

/// Prints a Markdown-ish table row with `|` separators.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_trace_preserves_rates() {
        let t = short_ec2_trace(120);
        assert_eq!(t.duration_s(), 120);
        let mean = t.mean_rate();
        assert!((1.9..=2.8).contains(&mean), "mean {mean}");
        let (peak, at) = t.peak();
        assert!((12..=16).contains(&peak), "peak {peak}");
        assert!((0.7..=0.9).contains(&(at as f64 / 120.0)), "peak at {at}");
    }

    #[test]
    fn env_helpers_default() {
        assert_eq!(env_usize("TROPIC_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_f64("TROPIC_DOES_NOT_EXIST", 1.5), 1.5);
    }

    #[test]
    fn tiny_perf_run_completes() {
        let spec = TopologySpec {
            compute_hosts: 32,
            storage_hosts: 8,
            routers: 0,
            ..Default::default()
        };
        let trace = Ec2Trace::from_counts(vec![3, 3, 3]);
        let run = run_ec2_scale(&spec, &trace, 1, Duration::ZERO, 500);
        assert_eq!(run.report.submitted, 9);
        assert_eq!(run.report.committed, 9);
        assert!(!run.latency.is_empty());
    }
}
