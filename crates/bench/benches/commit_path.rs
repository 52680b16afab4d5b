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
//! Three more run the *real* durability layer (replica WALs on disk, a
//! modeled per-fsync device latency), where every replica fsyncs each
//! commit group before it acks:
//!
//! * `durable_3r_1k` / `durable_3r_16k` — three replicas, 1k and 16k filler
//!   znodes: the store-size dimension shows what the periodic full
//!   snapshot costs as the store grows.
//! * `durable_1r_16k` — one replica at 16k: the floor the three-replica
//!   run approaches when the replicas' fsyncs overlap.
//!
//! `ci.sh --bench-snapshot` records all four means in
//! `BENCH_commit_path.json` and gates on `durable_3r_16k / durable_1r_16k`
//! (`replica_fsync_overlap_16k`): replicas settling one after another
//! would pay about three fsyncs per group instead of one.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tropic_coord::{CoordConfig, DurabilityOptions, Op, TempDir};
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
/// fsync). Every replica pays it once per commit group; the replicas pay
/// it at the same time.
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

fn durable_platform(dir: &std::path::Path, replicas: usize) -> Tropic {
    Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 1,
            coord: CoordConfig {
                replicas,
                durability: DurabilityOptions {
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

fn bench_durable_variant(c: &mut Criterion, name: &str, replicas: usize, store_nodes: usize) {
    let tmp = TempDir::new("tropic-bench-commit-durable");
    let platform = durable_platform(tmp.path(), replicas);
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
    bench_durable_variant(c, "durable_3r_1k", 3, 1_024);
    bench_durable_variant(c, "durable_3r_16k", 3, 16_384);
    bench_durable_variant(c, "durable_1r_16k", 1, 16_384);
}

criterion_group!(benches, bench);
criterion_main!(benches);
