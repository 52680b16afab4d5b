//! Criterion bench: snapshot cost proportionality — the tentpole claim
//! that a delta snapshot scales with *dirty state*, not store size.
//!
//! Over a 16k-znode store with 5% of the nodes dirtied since the last
//! checkpoint:
//!
//! * `full_write`  — encode + atomically persist the entire store
//!   (`snapshot::write`), the pre-delta behavior at every checkpoint.
//! * `delta_write` — encode + persist only the dirty paths
//!   (`snapshot::write_delta`), what the durability layer now emits when
//!   the dirty set is small and the chain has room.
//! * `chain_load`  — recovery's `snapshot::load_chain` over
//!   `full + delta`, the read-side cost of chaining.
//!
//! Besides the timings, the bench appends two byte-count rows to
//! `TROPIC_BENCH_JSON` (`snapshot/full_bytes`, `snapshot/delta_bytes`):
//! `bench-gate` holds their ratio to the `delta_over_full_bytes` limit in
//! `tropic_bench::gate` — a delta at 5%-dirty must cost ≤ 25% of a full
//! rewrite, with slack for per-record framing.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

use tropic_coord::snapshot::{self, DirtySet};
use tropic_coord::{Op, TempDir, ZnodeStore};
use tropic_model::Path;

/// Store size: the "larger store" dimension from the commit-path bench.
const NODES: usize = 16_384;
/// Fraction of the store dirtied between checkpoints, in percent.
const DIRTY_PCT: usize = 5;

fn node_path(i: usize) -> Path {
    Path::parse(&format!("/n{i}")).expect("valid path")
}

/// A populated store, its zxid high-water mark untouched since creation.
fn populated() -> (ZnodeStore, u64) {
    let mut store = ZnodeStore::new();
    let mut zxid = 0u64;
    for i in 0..NODES {
        zxid += 1;
        store
            .apply(
                zxid,
                &Op::Create {
                    path: node_path(i),
                    data: b"initial-value-of-a-realistic-size"[..].into(),
                    ephemeral_owner: None,
                    sequential: false,
                },
            )
            .0
            .expect("create");
    }
    (store, zxid)
}

fn bench(c: &mut Criterion) {
    let (mut store, base_zxid) = populated();
    let base_store = store.clone();
    // Dirty 5% of the store the way a checkpoint interval would: data
    // overwrites on a spread of existing nodes.
    let mut zxid = base_zxid;
    let mut dirty = DirtySet::default();
    for i in 0..(NODES * DIRTY_PCT / 100) {
        zxid += 1;
        let (result, events) = store.apply(
            zxid,
            &Op::SetData {
                path: node_path(i * (100 / DIRTY_PCT)),
                data: b"dirty-overwrite-of-a-similar-size"[..].into(),
                expected_version: None,
            },
        );
        result.expect("set");
        dirty.mark(&events);
    }
    let records = store.delta_records(dirty.paths());

    let full_dir = TempDir::new("tropic-bench-snap-full");
    let delta_dir = TempDir::new("tropic-bench-snap-delta");
    let chain_dir = TempDir::new("tropic-bench-snap-chain");

    let mut group = c.benchmark_group("snapshot");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(5));

    let mut full_bytes = 0u64;
    group.bench_function("full_write", |b| {
        b.iter(|| {
            full_bytes = snapshot::write(full_dir.path(), zxid, &store).expect("full write");
            black_box(full_bytes)
        })
    });

    let mut delta_bytes = 0u64;
    group.bench_function("delta_write", |b| {
        b.iter(|| {
            delta_bytes = snapshot::write_delta(delta_dir.path(), base_zxid, zxid, &records)
                .expect("delta write");
            black_box(delta_bytes)
        })
    });

    // Recovery's view: a full at the base and one delta chained onto it.
    snapshot::write(chain_dir.path(), base_zxid, &base_store).expect("chain base");
    snapshot::write_delta(chain_dir.path(), base_zxid, zxid, &records).expect("chain delta");
    group.bench_function("chain_load", |b| {
        b.iter(|| {
            let chain = snapshot::load_chain(chain_dir.path());
            assert!(!chain.newer_corrupt);
            black_box(chain.chain_len)
        })
    });

    group.finish();
    tropic_bench::emit_row("snapshot/full_bytes", full_bytes, "bytes", 1);
    tropic_bench::emit_row("snapshot/delta_bytes", delta_bytes, "bytes", 1);
}

criterion_group!(benches, bench);
criterion_main!(benches);
