//! EC2-style launch surge: replay a compressed version of the paper's EC2
//! workload (Figure 3's shape — steady ~2.3 spawns/s with a burst to 14/s)
//! against a mid-size deployment, and print the latency distribution the
//! platform sustains through the burst.
//!
//! Run with: `cargo run --release --example ec2_surge`

use std::time::Duration;

use tropic::coord::CoordConfig;
use tropic::core::{ExecMode, PlatformConfig, Tropic};
use tropic::tcloud::TopologySpec;
use tropic::workload::{replay_ec2, sparkline, Ec2TraceSpec, LatencyStats};

fn main() {
    // 200 hosts, 50 storage servers — a pod-sized slice of the paper's
    // 12,500-host deployment, in logical-only mode (paper §5).
    let spec = TopologySpec {
        compute_hosts: 200,
        storage_hosts: 50,
        routers: 0,
        host_mem_mb: 16_384,
        storage_capacity_mb: 1_000_000_000,
        ..Default::default()
    };
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 3,
            workers: 1,
            coord: CoordConfig {
                // Emulated ZooKeeper write latency: the paper's dominant
                // per-transaction overhead.
                write_latency: Duration::from_micros(500),
                ..CoordConfig::default()
            },
            ..Default::default()
        },
        spec.service(),
        ExecMode::LogicalOnly,
    );

    // A 30-second trace with the paper's rates: mean 2.34/s, burst to 14/s
    // at 80 % of the duration.
    let trace = Ec2TraceSpec {
        duration_s: 30,
        burst_center_s: 24.0,
        burst_sigma_s: 2.0,
        ..Default::default()
    }
    .generate();
    let rates: Vec<f64> = trace.per_second().iter().map(|&c| f64::from(c)).collect();
    println!("workload (spawns/s): {}", sparkline(&rates));
    println!(
        "total {} spawns, mean {:.2}/s, peak {}/s",
        trace.total(),
        trace.mean_rate(),
        trace.peak().0
    );

    println!("\nreplaying at real time against 200 hosts...");
    let report = replay_ec2(
        &platform,
        &spec,
        &trace,
        1.0,
        2_048,
        Duration::from_secs(120),
    );
    println!(
        "submitted {} | committed {} | aborted {} | wall {} ms",
        report.submitted, report.committed, report.aborted, report.wall_ms
    );

    let latency = LatencyStats::new(
        platform
            .metrics()
            .samples()
            .iter()
            .map(|s| s.latency_ms())
            .collect(),
    );
    println!("\ntransaction latency (the paper's Figure 5 view):");
    println!(
        "  median {} ms | p90 {} ms | p99 {} ms | max {} ms",
        latency.median(),
        latency.percentile(90.0),
        latency.percentile(99.0),
        latency.max()
    );
    let counters = platform.metrics().counters();
    println!(
        "  lock-conflict defers: {} (serialized same-host spawns)",
        counters.defers
    );
    platform.shutdown();
}
