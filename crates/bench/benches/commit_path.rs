//! Criterion macro-bench: the end-to-end transaction commit path through
//! the whole platform (submit → logical execution → phyQ → worker →
//! result → cleanup), in logical-only mode — the per-transaction cost
//! underlying the Figure 4/5 runs.
//!
//! `group_commit` measures the commit path — each scheduling round flushes
//! as one atomic multi — under a modeled coordination-log write latency
//! (the ZooKeeper I/O the paper identifies as the dominant per-transaction
//! overhead, §6.1).
//!
//! Every variant drives a pipelined window of `WINDOW` concurrent
//! transactions per wave (spawns, then destroys), because the round flush
//! is amortized across the transactions sharing it — a single submit→wait
//! pair mostly measures scheduling-round alignment.
//!
//! Four more run the *real* durability layer (replica WALs on disk, a
//! modeled per-fsync device latency) across a store-size dimension, so the
//! numbers expose both delta-snapshot proportionality and the pipelined
//! group-fsync payoff:
//!
//! * `serial_fsync_1k` / `serial_fsync_16k`       — `SyncPolicy::EveryBatch`:
//!   each replica's fsync blocks the commit path in turn.
//! * `pipelined_fsync_1k` / `pipelined_fsync_16k` — `SyncPolicy::Pipelined`:
//!   per-replica sync threads overlap fsyncs across replicas and batches.
//!
//! `ci.sh --bench-snapshot` records all five means in
//! `BENCH_commit_path.json` (ungated: the per-record path the old ratio
//! gate compared against no longer exists); the durable-variant means feed
//! `BENCH_snapshot.json`, gated on `serial_fsync_16k / pipelined_fsync_16k`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tropic_coord::{CoordConfig, DurabilityOptions, Op, SyncPolicy, TempDir};
use tropic_core::{ExecMode, PlatformConfig, Tropic, TxnState};
use tropic_model::Path;
use tropic_tcloud::TopologySpec;

/// Simulated replicated-log write latency (a disk-era ZooKeeper forced log
/// write, §6.1). Every quorum write pays it; the round flush amortizes it
/// across a whole round.
const WRITE_LATENCY: Duration = Duration::from_millis(2);

/// Concurrent transactions in flight per wave. The round flush amortizes
/// *across* transactions sharing a scheduling round, so the bench drives a
/// pipelined window rather than one lonely txn — a single submit→wait pair
/// mostly measures round alignment.
const WINDOW: u64 = 8;

/// Modeled device flush for the durable variants (an enterprise-SSD-class
/// fsync). The serial policy pays it once per replica per batch, in
/// sequence; the pipelined policy overlaps those flushes.
const FSYNC_LATENCY: Duration = Duration::from_micros(400);

fn spec() -> TopologySpec {
    TopologySpec {
        compute_hosts: 64,
        storage_hosts: 16,
        routers: 0,
        storage_capacity_mb: 1_000_000_000,
        host_mem_mb: 1_000_000,
        ..Default::default()
    }
}

fn platform() -> Tropic {
    Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 1,
            checkpoint_every: 0,
            coord: CoordConfig {
                write_latency: WRITE_LATENCY,
                ..CoordConfig::default()
            },
            ..Default::default()
        },
        spec().service(),
        ExecMode::LogicalOnly,
    )
}

fn durable_platform(dir: &std::path::Path, sync_policy: SyncPolicy) -> Tropic {
    Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 1,
            checkpoint_every: 0,
            coord: CoordConfig {
                durability: DurabilityOptions {
                    sync_policy,
                    // Frequent snapshots keep the snapshot encoder on the
                    // measured path, so store size shows up honestly.
                    snapshot_every_ops: 256,
                    snapshot_max_wal_bytes: 0,
                    ..DurabilityOptions::default()
                },
                ..CoordConfig::default()
            },
            ..Default::default()
        }
        .with_data_dir(dir),
        spec().service(),
        ExecMode::LogicalOnly,
    )
}

/// Grows the coordination store to `nodes` filler znodes (batched multis,
/// fsync latency still zero), so snapshots taken during measurement
/// serialize a store of the intended size.
fn populate_filler(platform: &Tropic, nodes: usize) {
    let client = platform.coord().connect("bench-filler");
    let root = Path::parse("/filler").expect("valid path");
    client.create_all(&root).expect("filler root");
    for chunk in (0..nodes).collect::<Vec<_>>().chunks(512) {
        let ops = chunk
            .iter()
            .map(|i| Op::Create {
                path: root.join(&format!("n{i}")),
                data: b"filler"[..].into(),
                ephemeral_owner: None,
                sequential: false,
            })
            .collect();
        client.multi(ops).expect("filler batch");
    }
}

fn run_commit_loop(c: &mut Criterion, name: &str, platform: &Tropic) {
    let spec = spec();
    let client = platform.client();
    let mut group = c.benchmark_group("commit_path");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(8));
    let mut i = 0u64;
    // A wave of WINDOW spawns (distinct hosts, so no lock conflicts), wait
    // for all, then the matching destroy wave. Spawn + destroy per iteration
    // keeps resource usage flat no matter how many iterations criterion
    // decides to run.
    group.bench_function(name, |b| {
        b.iter(|| {
            let base = i;
            let handles: Vec<_> = (base..base + WINDOW)
                .map(|n| {
                    let host = (n % 64) as usize;
                    client
                        .submit_request(
                            tropic_core::TxnRequest::new("spawnVM").args(spec.spawn_args(
                                &format!("cp{n}"),
                                host,
                                2_048,
                            )),
                        )
                        .unwrap()
                })
                .collect();
            for h in handles {
                let outcome = h.wait_timeout(Duration::from_secs(60)).unwrap();
                assert_eq!(outcome.state, TxnState::Committed, "{:?}", outcome.error);
            }
            let handles: Vec<_> = (base..base + WINDOW)
                .map(|n| {
                    let host = (n % 64) as usize;
                    client
                        .submit_request(
                            tropic_core::TxnRequest::new("destroyVM")
                                .arg(TopologySpec::host_path(host).to_string())
                                .arg(format!("cp{n}"))
                                .arg(TopologySpec::storage_path(host / 4).to_string()),
                        )
                        .unwrap()
                })
                .collect();
            for h in handles {
                let outcome = h.wait_timeout(Duration::from_secs(60)).unwrap();
                assert_eq!(outcome.state, TxnState::Committed, "{:?}", outcome.error);
            }
            i += WINDOW;
        })
    });
    group.finish();
}

fn bench_durable_variant(
    c: &mut Criterion,
    name: &str,
    sync_policy: SyncPolicy,
    store_nodes: usize,
) {
    let tmp = TempDir::new("tropic-bench-commit-durable");
    let platform = durable_platform(tmp.path(), sync_policy);
    populate_filler(&platform, store_nodes);
    // Population ran at device speed zero; measurement models the flush.
    platform.coord().set_simulated_fsync_latency(FSYNC_LATENCY);
    run_commit_loop(c, name, &platform);
    platform.shutdown();
}

fn bench(c: &mut Criterion) {
    let platform = platform();
    run_commit_loop(c, "group_commit", &platform);
    platform.shutdown();
    bench_durable_variant(c, "serial_fsync_1k", SyncPolicy::EveryBatch, 1_024);
    bench_durable_variant(
        c,
        "pipelined_fsync_1k",
        SyncPolicy::Pipelined { depth: 4 },
        1_024,
    );
    bench_durable_variant(c, "serial_fsync_16k", SyncPolicy::EveryBatch, 16_384);
    bench_durable_variant(
        c,
        "pipelined_fsync_16k",
        SyncPolicy::Pipelined { depth: 4 },
        16_384,
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
