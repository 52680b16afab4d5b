//! Criterion bench: crash-recovery wall time for the coordination store.
//!
//! Three recovery strategies over the same committed history:
//!
//! * `snapshot_suffix`  — load the latest fuzzy snapshot, replay only the
//!   write-ahead-log suffix after it (the durability layer's default).
//! * `full_log_replay`  — no snapshots ever taken; recovery decodes and
//!   re-applies every record since the beginning of time.
//! * `cold_resync`      — the full replacement-node story: a replica with
//!   an empty disk joins, so one iteration covers wiping its directory,
//!   recovering the leader from disk, the snapshot transfer, and persisting
//!   the transferred state on the new node. Compare against
//!   `snapshot_suffix` (the leader-recovery share) to isolate the transfer.
//!
//! `ci.sh --bench-snapshot` records all three in `BENCH_recovery.json` and
//! gates on `full_log_replay / snapshot_suffix >= 2` — the point of
//! checkpointing is that recovery does not scale with history length.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

use bytes::Bytes;
use tropic_coord::{DurabilityOptions, Ensemble, Op, TempDir};
use tropic_model::Path;

/// Distinct znodes touched by the workload.
const NODES: usize = 256;
/// Overwrites layered on top (history length >> live-state size).
const SETS: usize = 4_096;
/// Ops committed per group while building the history: one fsync covers a
/// whole group, so population is fast. Each op still gets its own record,
/// so recovery reads the same log as one written op by op.
const POPULATE_GROUP: usize = 512;

fn opts(snapshot_every_ops: u64) -> DurabilityOptions {
    DurabilityOptions {
        snapshot_every_ops,
        snapshot_max_wal_bytes: 0,
        segment_max_bytes: 1 << 20,
    }
}

fn node_path(i: usize) -> Path {
    Path::parse(&format!("/n{i}")).expect("valid path")
}

fn populate(e: &mut Ensemble) {
    let creates = (0..NODES).map(|i| Op::Create {
        path: node_path(i),
        data: Bytes::from_static(b"initial"),
        ephemeral_owner: None,
        sequential: false,
    });
    let sets = (0..SETS).map(|i| Op::SetData {
        path: node_path(i % NODES),
        data: Bytes::copy_from_slice(format!("value-{i:08}").as_bytes()),
        expected_version: None,
    });
    let ops: Vec<Op> = creates.chain(sets).collect();
    for group in ops.chunks(POPULATE_GROUP) {
        for (result, _) in e.submit_group(group) {
            result.expect("populate op");
        }
    }
}

/// Builds a replica directory holding the standard history under the given
/// snapshot cadence (0 = full-log mode, no snapshot ever written).
fn build_history(snapshot_every_ops: u64) -> TempDir {
    let tmp = TempDir::new("tropic-bench-recovery");
    let mut e = Ensemble::with_durability(1, tmp.path(), opts(snapshot_every_ops))
        .expect("durable ensemble");
    populate(&mut e);
    tmp
}

fn bench(c: &mut Criterion) {
    let with_snapshots = build_history(512);
    let without_snapshots = build_history(0);

    let mut group = c.benchmark_group("recovery");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(5));

    group.bench_function("snapshot_suffix", |b| {
        b.iter(|| {
            let e = Ensemble::recover(1, with_snapshots.path(), opts(512)).expect("recover");
            black_box(e.replica_last_zxid(0));
        })
    });

    group.bench_function("full_log_replay", |b| {
        b.iter(|| {
            let e = Ensemble::recover(1, without_snapshots.path(), opts(0)).expect("recover");
            black_box(e.replica_last_zxid(0));
        })
    });

    // A fresh node (wiped disk) joining the recovered leader: its state
    // arrives as one snapshot transfer, persisted locally before it
    // serves. Deliberately end-to-end — the wipe and the leader's own
    // recovery are part of the replacement-node cost being reported; the
    // snapshot_suffix number above is the leader-recovery share of it.
    group.bench_function("cold_resync", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(with_snapshots.path().join("replica-1"));
            let e = Ensemble::recover(2, with_snapshots.path(), opts(512)).expect("recover");
            assert_eq!(e.stats().snapshot_syncs, 1);
            black_box(e.replica_last_zxid(1));
        })
    });

    group.finish();
    // Drop the fresh-node directory so the suffix bench's TempDir cleanup
    // sees exactly what it created.
    let _ = std::fs::remove_dir_all(with_snapshots.path().join("replica-1"));
}

criterion_group!(benches, bench);
criterion_main!(benches);
