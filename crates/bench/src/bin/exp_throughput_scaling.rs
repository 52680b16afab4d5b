//! Regenerates the **§6.1 scalability claim**: transaction throughput stays
//! constant as the quantity of managed resources grows, because the
//! dominant costs (coordination writes, lock operations) are independent of
//! data-model size.
//!
//! Knob: `TROPIC_THRU_TXNS` (default 300 transactions per point).

use std::time::Duration;

use tropic_bench::env_usize;
use tropic_coord::CoordConfig;
use tropic_core::{ExecMode, PlatformConfig, Tropic};
use tropic_tcloud::TopologySpec;
use tropic_workload::{replay_ec2, Ec2Trace};

fn main() {
    let txns = env_usize("TROPIC_THRU_TXNS", 300);
    println!("Throughput-vs-scale experiment (paper §6.1)");
    println!("{txns} spawn transactions submitted back-to-back per deployment size");
    println!();
    println!("| compute hosts | managed VMs capacity | model nodes | throughput (txn/s) |");
    println!("|--------------:|---------------------:|------------:|-------------------:|");
    let mut rates = Vec::new();
    for hosts in [100usize, 400, 1_600, 6_400, 12_500] {
        let spec = TopologySpec {
            compute_hosts: hosts,
            storage_hosts: (hosts / 4).max(1),
            routers: 0,
            host_mem_mb: 16_384,
            storage_capacity_mb: 1_000_000_000,
            ..Default::default()
        };
        let nodes = spec.build_tree().node_count();
        let platform = Tropic::start(
            PlatformConfig {
                controllers: 1,
                workers: 1,
                coord: CoordConfig::default(),
                ..Default::default()
            },
            spec.service(),
            ExecMode::LogicalOnly,
        );
        // Warm up: absorb the one-time leader bootstrap (the initial
        // tree's granule) so the timed burst measures steady-state service
        // rate.
        let warmup = Ec2Trace::from_counts(vec![20]);
        let _ = replay_ec2(
            &platform,
            &spec,
            &warmup,
            1_000.0,
            2_048,
            Duration::from_secs(120),
        );
        // All transactions in one burst: measures the service rate.
        let trace = Ec2Trace::from_counts(vec![txns as u32]);
        let report = replay_ec2(
            &platform,
            &spec,
            &trace,
            1_000.0,
            2_048,
            Duration::from_secs(600),
        );
        let rate = report.committed as f64 / (report.wall_ms as f64 / 1_000.0);
        println!(
            "| {hosts} | {} | {nodes} | {rate:.1} |",
            hosts * (16_384 / 2_048)
        );
        rates.push(rate);
        platform.shutdown();
    }
    println!();
    let min = rates.iter().cloned().fold(f64::MAX, f64::min);
    let max = rates.iter().cloned().fold(f64::MIN, f64::max);
    println!(
        "throughput spread across a 125x resource-scale range: {:.1}x (paper: constant)",
        max / min
    );
}
