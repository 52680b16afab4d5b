//! Power-loss drill: kill the *entire* datacenter — every coordination
//! replica, controller, and worker — mid-workload, then restart from disk.
//!
//! Phase 1 runs a durable platform (`PlatformConfig::with_data_dir`) and
//! submits a stream of transactions, acknowledging some and leaving the
//! rest in flight when the power cut lands. Phase 2 recovers with
//! `Tropic::recover`: the coordination store rebuilds from each replica's
//! fuzzy snapshot plus its write-ahead-log suffix, the controller resumes
//! from the reconstructed records and queues, and the drill verifies that
//! **zero acknowledged transactions were lost** and every in-flight one
//! runs to completion.
//!
//! Run with: `cargo run --example power_loss`

use std::time::Duration;

use tropic::coord::{CoordConfig, DurabilityOptions, TempDir};
use tropic::core::{ExecMode, PlatformConfig, Priority, Tropic, TxnRequest, TxnState};
use tropic::tcloud::TopologySpec;

fn main() {
    let tmp = TempDir::new("tropic-power-loss");
    let spec = TopologySpec {
        compute_hosts: 8,
        storage_hosts: 2,
        routers: 0,
        ..Default::default()
    };
    let config = PlatformConfig {
        controllers: 1,
        workers: 1,
        coord: CoordConfig {
            durability: DurabilityOptions {
                // A batch is acked only after every acking replica has
                // fsynced it: an acknowledged transaction survives losing
                // every replica at once.
                snapshot_every_ops: 16,
                ..DurabilityOptions::default()
            },
            ..CoordConfig::default()
        },
        ..Default::default()
    }
    .with_data_dir(tmp.path());

    println!(
        "phase 1: durable platform up, data_dir = {}",
        tmp.path().display()
    );
    let platform = Tropic::start(config.clone(), spec.service(), ExecMode::LogicalOnly);
    let client = platform.client();

    let mut acknowledged = Vec::new();
    for i in 0..16 {
        let outcome = client
            .submit_request(
                TxnRequest::new("spawnVM")
                    .args(spec.spawn_args(&format!("vm{i}"), i % 8, 1_024))
                    .idempotency_key(format!("power-loss-vm{i}")),
            )
            .expect("submit")
            .wait_timeout(Duration::from_secs(30))
            .expect("txn");
        assert_eq!(outcome.state, TxnState::Committed);
        acknowledged.push(outcome.id);
    }
    // The controller dies first, freezing the pipeline — the in-flight
    // submissions below land in the durable inputQ and are guaranteed to
    // still be there when the power cut hits (no graceful drain).
    platform.crash_controller(0);
    let mut in_flight = Vec::new();
    for i in 16..22 {
        let handle = client
            .submit_request(
                TxnRequest::new("spawnVM")
                    .args(spec.spawn_args(&format!("vm{i}"), i % 8, 1_024))
                    .priority(Priority::Batch),
            )
            .expect("submit");
        in_flight.push(handle.id());
    }
    println!(
        "  {} transactions acknowledged, {} in flight",
        acknowledged.len(),
        in_flight.len()
    );

    println!("\npower loss: every replica, controller, and worker goes dark");
    platform.shutdown();

    println!("\nphase 2: Tropic::recover() from disk");
    let platform = Tropic::recover(config, spec.service(), ExecMode::LogicalOnly);
    let client = platform.client();

    let mut lost = 0;
    for id in &acknowledged {
        match client.txn_record(*id).expect("coord") {
            Some(rec) if rec.state == TxnState::Committed => {}
            other => {
                lost += 1;
                println!("  LOST txn {id}: {other:?}");
            }
        }
    }
    println!(
        "  acknowledged transactions recovered: {}/{} (lost {lost})",
        acknowledged.len() - lost,
        acknowledged.len()
    );
    assert_eq!(lost, 0, "an acknowledged transaction was lost");

    for id in &in_flight {
        // Handles re-attach by id across the recovery boundary.
        let outcome = client
            .handle(*id)
            .wait_timeout(Duration::from_secs(30))
            .expect("txn");
        println!("  in-flight txn {id} resumed -> {:?}", outcome.state);
        assert_eq!(outcome.state, TxnState::Committed);
    }

    // Figure-4-style durability counters (see fig4_cpu_utilization).
    let e = platform.coord().ensemble_stats();
    let s = platform.coord().stats();
    println!();
    println!("| durability counter | value |");
    println!("|--------------------|------:|");
    println!("| snapshots written | {} |", e.snapshots_written);
    println!("| segments rotated | {} |", e.segments_rotated);
    println!("| bytes fsynced | {} |", e.bytes_fsynced);
    println!("| fsyncs | {} |", e.fsyncs);
    println!("| replica recoveries | {} |", e.recoveries);
    println!("| snapshot transfers | {} |", e.snapshot_syncs);
    println!(
        "| orphan sessions purged | {} |",
        s.recovery_purged_sessions
    );

    platform.shutdown();
    println!("\nzero acknowledged transactions lost. done.");
}
