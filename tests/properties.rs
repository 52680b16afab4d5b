//! Property-based tests (proptest) for the core invariants:
//! path algebra, tree/diff/snapshot laws, lock-compatibility laws, and the
//! atomicity identity — simulate followed by logical rollback leaves the
//! data model bit-for-bit unchanged.

use proptest::prelude::*;

use tropic::core::{
    rollback_logical, simulate, with_intentions, LockManager, LockMode, LogicalOutcome, TxnRecord,
};
use tropic::model::{Node, Path, Tree, Value};
use tropic::tcloud::{actions, constraints, procs, TopologySpec};

// ---------------------------------------------------------------------
// Path algebra.
// ---------------------------------------------------------------------

fn segment() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_.-]{1,12}"
}

fn path_strategy() -> impl Strategy<Value = Path> {
    prop::collection::vec(segment(), 0..6)
        .prop_map(|segs| Path::from_segments(segs).expect("valid segments"))
}

proptest! {
    #[test]
    fn path_parse_display_roundtrip(p in path_strategy()) {
        let text = p.to_string();
        let back = Path::parse(&text).unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn path_ancestors_are_strict_prefixes(p in path_strategy()) {
        let ancestors = p.ancestors();
        prop_assert_eq!(ancestors.len(), p.depth());
        for (i, a) in ancestors.iter().enumerate() {
            prop_assert_eq!(a.depth(), i);
            prop_assert!(a.is_ancestor_of(&p));
            prop_assert!(!p.is_ancestor_of(a));
            prop_assert!(a.contains(&p));
        }
    }

    #[test]
    fn path_child_parent_inverse(p in path_strategy(), name in segment()) {
        let child = p.child(&name).unwrap();
        prop_assert_eq!(child.parent().unwrap(), p.clone());
        prop_assert_eq!(child.leaf().unwrap(), name.as_str());
        prop_assert!(p.is_ancestor_of(&child));
    }

    #[test]
    fn path_related_is_symmetric(a in path_strategy(), b in path_strategy()) {
        prop_assert_eq!(a.related(&b), b.related(&a));
    }
}

// ---------------------------------------------------------------------
// Tree laws.
// ---------------------------------------------------------------------

/// A small random tree: hosts with random attribute values and VM children.
fn tree_strategy() -> impl Strategy<Value = Tree> {
    prop::collection::vec(
        (
            segment(),
            0i64..100_000,
            prop::collection::vec((segment(), 0i64..10_000), 0..4),
        ),
        0..6,
    )
    .prop_map(|hosts| {
        let mut t = Tree::new();
        t.insert(&Path::parse("/vmRoot").unwrap(), Node::new("vmRoot"))
            .unwrap();
        for (hname, cap, vms) in hosts {
            let hpath = Path::parse("/vmRoot").unwrap().join(&hname);
            if t.exists(&hpath) {
                continue;
            }
            t.insert(&hpath, Node::new("vmHost").with_attr("memCapacity", cap))
                .unwrap();
            for (vname, mem) in vms {
                let vpath = hpath.join(&vname);
                if !t.exists(&vpath) {
                    t.insert(&vpath, Node::new("vm").with_attr("mem", mem))
                        .unwrap();
                }
            }
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_snapshot_roundtrip(t in tree_strategy()) {
        let snap = t.to_snapshot().unwrap();
        let back = Tree::from_snapshot(&snap).unwrap();
        prop_assert_eq!(&t, &back);
        prop_assert!(t.diff(&back, &Path::root()).is_empty());
    }

    #[test]
    fn tree_diff_self_is_empty(t in tree_strategy()) {
        prop_assert!(t.diff(&t.clone(), &Path::root()).is_empty());
    }

    #[test]
    fn tree_diff_detects_any_attr_change(t in tree_strategy(), x in 0i64..1_000_000) {
        // Pick the deepest node and change an attribute; the diff must
        // report exactly one entry at that path.
        let paths: Vec<Path> = t.walk().into_iter().map(|(p, _)| p).collect();
        let target = paths.last().unwrap().clone();
        let mut other = t.clone();
        other.set_attr(&target, "probe", x).unwrap();
        let diffs = t.diff(&other, &Path::root());
        prop_assert_eq!(diffs.len(), 1);
        prop_assert_eq!(diffs[0].path(), &target);
    }

    #[test]
    fn tree_insert_remove_identity(t in tree_strategy(), name in segment(), mem in 0i64..4_096) {
        let mut mutated = t.clone();
        let target = Path::parse("/vmRoot").unwrap().join(&name);
        prop_assume!(!mutated.exists(&target));
        mutated
            .insert(&target, Node::new("vmHost").with_attr("memCapacity", mem))
            .unwrap();
        prop_assert!(mutated.exists(&target));
        mutated.remove(&target).unwrap();
        prop_assert_eq!(mutated, t);
    }

    #[test]
    fn node_count_matches_walk(t in tree_strategy()) {
        prop_assert_eq!(t.node_count(), t.walk().len());
    }
}

// ---------------------------------------------------------------------
// Lock-manager laws.
// ---------------------------------------------------------------------

fn mode_strategy() -> impl Strategy<Value = LockMode> {
    prop_oneof![
        Just(LockMode::R),
        Just(LockMode::W),
        Just(LockMode::IR),
        Just(LockMode::IW),
    ]
}

proptest! {
    #[test]
    fn lock_compatibility_symmetric(a in mode_strategy(), b in mode_strategy()) {
        prop_assert_eq!(a.compatible(b), b.compatible(a));
    }

    #[test]
    fn writers_on_unrelated_paths_never_conflict(a in path_strategy(), b in path_strategy()) {
        prop_assume!(!a.related(&b));
        let mut lm = LockManager::new();
        lm.try_acquire(1, &with_intentions(&a, LockMode::W)).unwrap();
        prop_assert!(lm.try_acquire(2, &with_intentions(&b, LockMode::W)).is_ok());
    }

    #[test]
    fn writers_on_related_paths_always_conflict(a in path_strategy(), rest in prop::collection::vec(segment(), 0..3)) {
        let mut b = a.clone();
        for seg in &rest {
            b = b.join(seg);
        }
        let mut lm = LockManager::new();
        lm.try_acquire(1, &with_intentions(&a, LockMode::W)).unwrap();
        prop_assert!(lm.try_acquire(2, &with_intentions(&b, LockMode::W)).is_err());
    }

    #[test]
    fn release_restores_acquirability(p in path_strategy(), m in mode_strategy()) {
        let mut lm = LockManager::new();
        lm.try_acquire(1, &with_intentions(&p, LockMode::W)).unwrap();
        lm.release_all(1);
        prop_assert!(lm.is_empty());
        prop_assert!(lm.try_acquire(2, &with_intentions(&p, m)).is_ok());
    }
}

// ---------------------------------------------------------------------
// Atomicity identity: simulate + rollback = identity on the data model.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Spawn(u8, u8),
    Stop(u8, u8),
    Start(u8, u8),
    Migrate(u8, u8, u8),
    Destroy(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3, 0u8..4).prop_map(|(h, v)| Op::Spawn(h, v)),
        (0u8..3, 0u8..4).prop_map(|(h, v)| Op::Stop(h, v)),
        (0u8..3, 0u8..4).prop_map(|(h, v)| Op::Start(h, v)),
        (0u8..3, 0u8..3, 0u8..4).prop_map(|(s, d, v)| Op::Migrate(s, d, v)),
        (0u8..3, 0u8..4).prop_map(|(h, v)| Op::Destroy(h, v)),
    ]
}

/// The stored-procedure call `op` stands for on `spec`'s topology.
fn op_call(spec: &TopologySpec, op: &Op) -> (&'static str, Vec<Value>) {
    let host = |h: &u8| Value::from(TopologySpec::host_path(*h as usize).to_string());
    match op {
        Op::Spawn(h, v) => (
            "spawnVM",
            spec.spawn_args(&format!("vm{v}"), *h as usize, 2_048),
        ),
        Op::Stop(h, v) => ("stopVM", vec![host(h), Value::from(format!("vm{v}"))]),
        Op::Start(h, v) => ("startVM", vec![host(h), Value::from(format!("vm{v}"))]),
        Op::Migrate(s, d, v) => (
            "migrateVM",
            vec![host(s), host(d), Value::from(format!("vm{v}"))],
        ),
        Op::Destroy(h, v) => (
            "destroyVM",
            vec![
                host(h),
                Value::from(format!("vm{v}")),
                Value::from(TopologySpec::storage_path(0).to_string()),
            ],
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Run a random operation sequence; for each operation, simulating and
    /// then logically rolling back must restore the exact pre-transaction
    /// tree, regardless of whether the simulation would have been runnable.
    #[test]
    fn simulate_then_rollback_is_identity(ops in prop::collection::vec(op_strategy(), 1..12)) {
        let spec = TopologySpec {
            compute_hosts: 3,
            storage_hosts: 1,
            routers: 0,
            ..Default::default()
        };
        let action_registry = actions::all();
        let constraint_set = constraints::all();
        let proc_registry = procs::all();
        let mut tree = spec.build_tree();
        let mut locks = LockManager::new();
        let mut txn_id = 0u64;

        for op in &ops {
            txn_id += 1;
            let (name, args) = op_call(&spec, op);
            let proc_ = proc_registry.get(name).unwrap();
            let before = tree.clone();
            let mut rec = TxnRecord::new(txn_id, name, args, 0);
            let outcome = simulate(
                &mut rec,
                proc_.as_ref(),
                &mut tree,
                &action_registry,
                &constraint_set,
                &mut locks,
            );
            match outcome {
                LogicalOutcome::Runnable => {
                    // Roll the transaction back, as if physical execution
                    // failed; the tree must be exactly the pre-state.
                    rollback_logical(&rec.log, &mut tree, &action_registry).unwrap();
                    locks.release_all(txn_id);
                    prop_assert_eq!(&tree, &before, "op {:?} not perfectly undone", op);
                    // Then re-apply and keep it (let state evolve so later
                    // ops in the sequence see interesting trees).
                    for r in &rec.log {
                        action_registry
                            .get(&r.action)
                            .unwrap()
                            .apply_logical(&mut tree, &r.object, &r.args)
                            .unwrap();
                    }
                    locks.release_all(txn_id);
                }
                LogicalOutcome::Aborted { .. } | LogicalOutcome::Deferred { .. } => {
                    // Aborted/deferred transactions must have no effect.
                    prop_assert_eq!(&tree, &before, "aborted op {:?} left effects", op);
                    prop_assert!(locks.locks_of(txn_id).is_empty());
                }
            }
        }
    }

    /// The EC2 trace scaler multiplies every statistic consistently.
    #[test]
    fn ec2_scaling_is_linear(factor in 1u32..6) {
        let base = tropic::workload::Ec2TraceSpec::default().generate();
        let scaled = base.scaled(factor);
        prop_assert_eq!(scaled.total(), base.total() * u64::from(factor));
        prop_assert_eq!(scaled.peak().0, base.peak().0 * factor);
        prop_assert_eq!(scaled.duration_s(), base.duration_s());
    }
}

// ---------------------------------------------------------------------
// Write-through premise: an action changes only its object's subtree.
// ---------------------------------------------------------------------

/// One step against the evolving tree: a stored procedure whose logged
/// actions replay one by one, or one raw action — any tcloud action, on
/// any node, with arguments picked from a pool of plausible values.
#[derive(Clone, Debug)]
enum Step {
    Proc(Op),
    Raw(u8, u8, Vec<u8>),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        op_strategy().prop_map(Step::Proc),
        (0u8..64, 0u8..64, prop::collection::vec(0u8..32, 0..5))
            .prop_map(|(a, o, picks)| Step::Raw(a, o, picks)),
    ]
}

/// `tree` with the subtree at `object` cut out, as bytes: what an action
/// at `object` must leave untouched (nothing, at the root).
fn outside(tree: &Tree, object: &Path) -> String {
    let mut rest = tree.clone();
    if rest.remove(object).is_err() && object.is_root() {
        return String::new();
    }
    rest.to_snapshot().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The controller writes through only the subtrees of the objects a
    /// finalized transaction logged, so recovery is exact only while
    /// `apply_logical` leaves every node outside `object`'s subtree
    /// byte-identical — succeeding or failing, on any object.
    #[test]
    fn apply_logical_changes_nothing_outside_the_object_subtree(
        steps in prop::collection::vec(step_strategy(), 1..24)
    ) {
        let spec = TopologySpec {
            compute_hosts: 3,
            storage_hosts: 1,
            routers: 1,
            ..Default::default()
        };
        let registry = actions::all();
        let names = registry.names();
        let (constraint_set, proc_registry) = (constraints::all(), procs::all());
        let mut pool: Vec<Value> = ["vm0", "vm1", "img0", "p0", "xen"].map(Value::from).into();
        pool.push(Value::from(spec.template_name.as_str()));
        pool.extend([0i64, 1, 2, 7, 512, 2_048].map(Value::Int));
        pool.extend([Value::Bool(true), Value::Bool(false)]);
        let mut tree = spec.build_tree();

        for (txn_id, step) in (1u64..).zip(&steps) {
            let calls: Vec<(Path, String, Vec<Value>)> = match step {
                Step::Proc(op) => {
                    let (name, args) = op_call(&spec, op);
                    let proc_ = proc_registry.get(name).unwrap();
                    let mut rec = TxnRecord::new(txn_id, name, args, 0);
                    let outcome = simulate(
                        &mut rec,
                        proc_.as_ref(),
                        &mut tree.clone(),
                        &registry,
                        &constraint_set,
                        &mut LockManager::new(),
                    );
                    if outcome != LogicalOutcome::Runnable {
                        continue;
                    }
                    rec.log.into_iter().map(|r| (r.object, r.action, r.args)).collect()
                }
                Step::Raw(a, o, picks) => {
                    let nodes = tree.walk();
                    let object = nodes[*o as usize % nodes.len()].0.clone();
                    let action = names[*a as usize % names.len()].to_owned();
                    let args = picks.iter().map(|&i| pool[i as usize % pool.len()].clone());
                    vec![(object, action, args.collect())]
                }
            };
            for (object, action, args) in calls {
                let before = outside(&tree, &object);
                let applied = registry
                    .get(&action)
                    .unwrap()
                    .apply_logical(&mut tree, &object, &args);
                prop_assert_eq!(
                    outside(&tree, &object),
                    before,
                    "{} at {} with {:?} ({:?})",
                    action,
                    object,
                    args,
                    applied
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Coordination-store multi atomicity (group commit).
// ---------------------------------------------------------------------

use tropic::coord::{CoordError, Op as ZnodeOp, ZnodeStore};

fn znode_path() -> impl Strategy<Value = Path> {
    prop::collection::vec("[abc]", 1..3)
        .prop_map(|segs| Path::from_segments(segs).expect("valid segments"))
}

/// Random store writes over a tiny path alphabet, so collisions, missing
/// parents, ephemeral parents, CAS misses, and sequential counters all
/// occur with useful frequency.
fn znode_op() -> impl Strategy<Value = ZnodeOp> {
    prop_oneof![
        (znode_path(), 0u8..3, 0u8..2).prop_map(|(path, kind, seq)| ZnodeOp::Create {
            path,
            data: vec![b'd'].into(),
            ephemeral_owner: (kind == 1).then_some(7),
            sequential: seq == 1,
        }),
        (znode_path(), 0u8..2).prop_map(|(path, cas)| ZnodeOp::SetData {
            path,
            data: vec![b's'].into(),
            expected_version: (cas == 1).then_some(0),
        }),
        (znode_path(), 0u8..2).prop_map(|(path, cas)| ZnodeOp::Delete {
            path,
            expected_version: (cas == 1).then_some(0),
        }),
        Just(ZnodeOp::PurgeSession { session: 7 }),
    ]
}

fn seeded_store(seed: &[ZnodeOp]) -> ZnodeStore {
    let mut store = ZnodeStore::new();
    for (i, op) in seed.iter().enumerate() {
        let _ = store.apply(i as u64 + 1, op);
    }
    store
}

proptest! {
    /// A batch containing one certainly-failing op must leave the store
    /// byte-identical to its pre-batch state and emit no events, no matter
    /// what surrounds the failure.
    #[test]
    fn multi_with_failing_op_is_byte_identical_noop(
        seed in prop::collection::vec(znode_op(), 0..10),
        prefix in prop::collection::vec(znode_op(), 0..5),
        suffix in prop::collection::vec(znode_op(), 0..5),
    ) {
        let mut store = seeded_store(&seed);
        let before = store.clone();
        let mut ops = prefix;
        // The parent path never exists (outside the generation alphabet),
        // so this delete fails regardless of what the prefix created.
        ops.push(ZnodeOp::Delete {
            path: Path::parse("/never/x").unwrap(),
            expected_version: None,
        });
        ops.extend(suffix);
        let (res, events) = store.apply(1_000, &ZnodeOp::Multi { ops });
        prop_assert!(matches!(res, Err(CoordError::MultiFailed { .. })));
        prop_assert!(events.is_empty(), "failed batch fired events: {:?}", events);
        prop_assert_eq!(&store, &before);
        prop_assert_eq!(format!("{store:?}"), format!("{before:?}"));
    }

    /// A multi behaves exactly like its sub-ops applied in sequence when
    /// every sub-op succeeds, and exactly like nothing at all otherwise.
    #[test]
    fn multi_equals_sequential_or_nothing(
        seed in prop::collection::vec(znode_op(), 0..10),
        batch in prop::collection::vec(znode_op(), 0..8),
    ) {
        let mut store = seeded_store(&seed);
        let before = store.clone();
        let zxid = 1_000u64;
        let (res, _) = store.apply(zxid, &ZnodeOp::Multi { ops: batch.clone() });
        match res {
            Ok(_) => {
                let mut sequential = before;
                for op in &batch {
                    let (r, _) = sequential.apply(zxid, op);
                    prop_assert!(r.is_ok(), "multi committed but {:?} fails alone", op);
                }
                prop_assert_eq!(&store, &sequential);
            }
            Err(CoordError::MultiFailed { .. }) => {
                prop_assert_eq!(&store, &before);
                prop_assert_eq!(format!("{store:?}"), format!("{before:?}"));
            }
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
    }
}

// ---------------------------------------------------------------------
// Durability: snapshot + WAL-suffix replay reconstructs the live store.
// ---------------------------------------------------------------------

use tropic::coord::{DurabilityOptions, Ensemble, TempDir};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any op sequence (including failing ops, sequential creates, and
    /// session purges) and any snapshot cadence, recovering from disk —
    /// latest fuzzy snapshot plus the WAL suffix after it — reconstructs a
    /// store byte-identical to the live one: same data, versions, zxids,
    /// ephemeral owners, and sequential counters. Replay is silent by
    /// construction: it runs below the service layer, so no watch can fire.
    #[test]
    fn snapshot_plus_wal_suffix_replay_is_byte_identical(
        ops in prop::collection::vec(znode_op(), 1..40),
        snapshot_every in 1u64..9,
    ) {
        let tmp = TempDir::new("tropic-prop-durable");
        let opts = DurabilityOptions {
            snapshot_every_ops: snapshot_every,
            snapshot_max_wal_bytes: 0,
            segment_max_bytes: 256, // tiny segments: rotation is exercised
        };
        let mut live = Ensemble::with_durability(1, tmp.path(), opts.clone()).unwrap();
        for op in &ops {
            let _ = live.submit(op.clone()); // failures are logged + replayed too
        }
        let live_store = live.read(|s| s.clone()).unwrap();
        let live_zxid = live.replica_last_zxid(0).unwrap();
        drop(live); // total power loss

        let mut recovered = Ensemble::recover(1, tmp.path(), opts).unwrap();
        let recovered_store = recovered.read(|s| s.clone()).unwrap();
        prop_assert_eq!(&recovered_store, &live_store);
        prop_assert_eq!(
            format!("{recovered_store:?}"),
            format!("{live_store:?}"),
            "recovered store must be byte-identical (cseq, zxids, owners included)"
        );
        prop_assert_eq!(recovered.replica_last_zxid(0).unwrap(), live_zxid);
    }
}

use tropic::coord::snapshot;
use tropic::coord::Durability;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A crash mid-snapshot-write leaves either a half-written `.tmp` next
    /// to the valid generations (the rename never happened) or a torn
    /// newest snapshot (the rename happened over torn sectors). Recovery
    /// must sweep the former losing nothing, and fall back to the previous
    /// generation — a consistent earlier state, never a panic — for the
    /// latter.
    #[test]
    fn torn_snapshot_write_recovers_the_previous_generation(
        seed in prop::collection::vec(znode_op(), 1..15),
        chunks in prop::collection::vec(prop::collection::vec(znode_op(), 1..6), 1..4),
        torn_rename in 0u8..2,
    ) {
        let torn_rename = torn_rename == 1;
        let tmp = TempDir::new("tropic-prop-torn-snapshot");
        let mut store = ZnodeStore::new();
        let mut zxid = 0u64;
        for op in &seed {
            zxid += 1;
            let _ = store.apply(zxid, op);
        }
        snapshot::write(tmp.path(), zxid, &store).unwrap();
        // Checkpoints: the consistent on-disk state after each generation.
        let mut checkpoints = vec![(zxid, store.clone())];
        for chunk in &chunks {
            for op in chunk {
                zxid += 1;
                let _ = store.apply(zxid, op);
            }
            snapshot::write(tmp.path(), zxid, &store).unwrap();
            checkpoints.push((zxid, store.clone()));
        }

        let debris = tmp.path().join(format!("{}.tmp", snapshot::file_name(zxid + 1)));
        let expect = if torn_rename {
            // The newest snapshot itself is torn: recovery falls back one
            // generation.
            let victim = tmp.path().join(snapshot::file_name(zxid));
            let mut bytes = std::fs::read(&victim).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&victim, &bytes).unwrap();
            &checkpoints[checkpoints.len() - 2]
        } else {
            // The next snapshot never finished renaming: only debris remains.
            std::fs::write(&debris, b"half-written").unwrap();
            checkpoints.last().unwrap()
        };

        let (_, snap, suffix) = Durability::open(tmp.path(), DurabilityOptions::default()).unwrap();
        prop_assert!(!debris.exists(), "tmp debris must be swept at open");
        prop_assert!(suffix.is_empty());
        let (snap_zxid, snap_store) = snap.expect("a valid generation recovers");
        prop_assert_eq!(snap_zxid, expect.0);
        prop_assert_eq!(&snap_store, &expect.1);
        prop_assert_eq!(format!("{snap_store:?}"), format!("{:?}", expect.1));
    }

    /// A crash *between* the snapshot rename and the WAL truncation leaves
    /// records at or below the snapshot's zxid in the live segments. Replay
    /// must skip them — applying them twice would corrupt versions and
    /// cseq — and still reconstruct the live bytes from snapshot + suffix.
    #[test]
    fn crash_between_snapshot_and_wal_truncation_is_idempotent(
        ops in prop::collection::vec(znode_op(), 2..30),
        a in 0u64..1_000,
        b in 0u64..1_000,
    ) {
        let tmp = TempDir::new("tropic-prop-crash-window");
        let opts = DurabilityOptions {
            snapshot_every_ops: 0, // never auto-snapshot: every record stays
            snapshot_max_wal_bytes: 0,
            ..DurabilityOptions::default()
        };
        let mut d = Durability::create(tmp.path(), opts.clone()).unwrap();
        let mut store = ZnodeStore::new();
        for (i, op) in ops.iter().enumerate() {
            let zxid = i as u64 + 1;
            d.append(zxid, op).unwrap();
            let mut sync = d.pending_sync().unwrap().expect("an append awaits its fsync");
            sync.run();
            d.synced(sync).unwrap();
            let _ = store.apply(zxid, op);
        }
        let live = store;
        drop(d);

        // Manufacture the crash window: snapshots at t1 and t2 hit disk,
        // but the WAL still holds records 1..=n.
        let n = ops.len() as u64;
        let t1 = a % n + 1;
        let t2 = (b % n + 1).max(t1);
        let mut replay = ZnodeStore::new();
        for (i, op) in ops.iter().enumerate() {
            let zxid = i as u64 + 1;
            if zxid > t1 {
                break;
            }
            let _ = replay.apply(zxid, op);
        }
        snapshot::write(tmp.path(), t1, &replay).unwrap();
        if t2 > t1 {
            for (i, op) in ops.iter().enumerate() {
                let zxid = i as u64 + 1;
                if zxid <= t1 || zxid > t2 {
                    continue;
                }
                let _ = replay.apply(zxid, op);
            }
            snapshot::write(tmp.path(), t2, &replay).unwrap();
        }

        let (_, snap, suffix) = Durability::open(tmp.path(), opts).unwrap();
        let (snap_zxid, mut recovered) = snap.expect("snapshot recovers");
        prop_assert_eq!(snap_zxid, t2);
        for (zxid, op) in &suffix {
            prop_assert!(*zxid > t2, "suffix must skip records at or below the snapshot");
            let _ = recovered.apply(*zxid, op);
        }
        prop_assert_eq!(&recovered, &live);
        prop_assert_eq!(format!("{recovered:?}"), format!("{live:?}"));
    }
}

/// A WAL whose tail was torn mid-write (or corrupted on disk) must recover
/// to the last valid record — never panic, never resurrect the tear.
#[test]
fn corrupted_wal_tail_recovers_to_last_valid_record() {
    let tmp = TempDir::new("tropic-prop-torn");
    let opts = DurabilityOptions {
        snapshot_every_ops: 0, // keep every record in the WAL
        snapshot_max_wal_bytes: 0,
        ..DurabilityOptions::default()
    };
    {
        let mut e = Ensemble::with_durability(1, tmp.path(), opts.clone()).unwrap();
        for i in 0..7 {
            e.submit(ZnodeOp::Create {
                path: Path::parse(&format!("/t{i}")).unwrap(),
                data: vec![b'x'].into(),
                ephemeral_owner: None,
                sequential: false,
            })
            .0
            .unwrap();
        }
    }
    let replica_dir = tmp.path().join("replica-0");
    let (_, segment) = tropic::coord::wal::list_segments(&replica_dir)
        .unwrap()
        .pop()
        .unwrap();
    let mut bytes = std::fs::read(&segment).unwrap();
    // Corrupt the final record's payload: its checksum no longer matches,
    // exactly as a torn sector would look after power loss.
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&segment, &bytes).unwrap();

    let mut recovered = Ensemble::recover(1, tmp.path(), opts).unwrap();
    let count = recovered.read(|s| s.node_count()).unwrap();
    assert_eq!(
        count, 7,
        "six creates survive, the corrupt seventh is dropped"
    );
    // The truncated log accepts new writes immediately.
    recovered
        .submit(ZnodeOp::Create {
            path: Path::parse("/fresh").unwrap(),
            data: vec![b'y'].into(),
            ephemeral_owner: None,
            sequential: false,
        })
        .0
        .unwrap();
}

// ---------------------------------------------------------------------
// Ensemble fault schedules: no crash/partition interleaving loses an
// acknowledged write.
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Fault {
    Write,
    Crash(usize),
    Restart(usize),
    /// Replicas whose bit is set form one side, the rest the other.
    Partition(u8),
    Heal,
}

fn fault_schedule() -> impl Strategy<Value = Vec<Fault>> {
    // Three draws in seven are writes, so acknowledged writes accumulate
    // between the faults.
    let fault = (0u8..7, 0usize..3, 0u8..8).prop_map(|(kind, r, mask)| match kind {
        0..=2 => Fault::Write,
        3 => Fault::Crash(r),
        4 => Fault::Restart(r),
        5 => Fault::Partition(mask),
        _ => Fault::Heal,
    });
    prop::collection::vec(fault, 1..40)
}

/// Runs `schedule` against a 3-replica ensemble. After every step where a
/// read succeeds, each acknowledged create must exist; at the end, with
/// the network healed, every replica restarted and one more write
/// committed, every replica must hold the leader's store.
fn check_fault_schedule(mut e: Ensemble, schedule: &[Fault]) -> TestCaseResult {
    let node = |i: usize| Path::parse(&format!("/w{i}")).unwrap();
    let create = |path: Path| ZnodeOp::Create {
        path,
        data: vec![b'w'].into(),
        ephemeral_owner: None,
        sequential: false,
    };
    let all_exist = |s: &ZnodeStore, acked: &[Path]| acked.iter().all(|p| s.exists(p));
    let mut acked = Vec::new();
    for (step, fault) in schedule.iter().enumerate() {
        match fault {
            Fault::Write => {
                if e.submit(create(node(step))).0.is_ok() {
                    acked.push(node(step));
                }
            }
            Fault::Crash(r) => e.crash_replica(*r),
            Fault::Restart(r) => e.restart_replica(*r),
            Fault::Partition(mask) => {
                let (a, b): (Vec<usize>, Vec<usize>) = (0..3).partition(|r| mask & (1 << r) != 0);
                e.net().partition(vec![a, b]);
            }
            Fault::Heal => e.net().heal(),
        }
        if let Ok(held) = e.read(|s| all_exist(s, &acked)) {
            prop_assert!(
                held,
                "step {} ({:?}) lost an acknowledged write",
                step,
                fault
            );
        }
    }
    e.net().heal();
    for r in 0..3 {
        e.restart_replica(r);
    }
    e.submit(create(node(schedule.len()))).0.unwrap();
    acked.push(node(schedule.len()));
    let leader = e.leader().expect("a healed ensemble leads");
    for r in 0..3 {
        prop_assert_eq!(e.replica_last_zxid(r), e.replica_last_zxid(leader));
    }
    prop_assert!(e.replicas_consistent());
    prop_assert!(e.read(|s| all_exist(s, &acked)).unwrap());
    Ok(())
}

proptest! {
    #[test]
    fn no_fault_schedule_loses_an_acknowledged_write(schedule in fault_schedule()) {
        check_fault_schedule(Ensemble::new(3), &schedule)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn no_fault_schedule_loses_an_acknowledged_durable_write(schedule in fault_schedule()) {
        let tmp = TempDir::new("tropic-prop-fault-schedule");
        let opts = DurabilityOptions {
            snapshot_every_ops: 4,
            ..DurabilityOptions::default()
        };
        check_fault_schedule(Ensemble::with_durability(3, tmp.path(), opts).unwrap(), &schedule)?;
    }
}

// ---------------------------------------------------------------------
// Wire-format compatibility (the versioned client envelope).
// ---------------------------------------------------------------------

use tropic::core::{decode_input, encode_input, InputMsg, Priority};

fn priority_strategy() -> impl Strategy<Value = Priority> {
    prop_oneof![
        Just(Priority::High),
        Just(Priority::Normal),
        Just(Priority::Batch),
    ]
}

fn label_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec(("[a-z]{1,8}", "[a-z0-9]{0,8}"), 0..4)
}

/// A short identifier-like string for procedure names and keys.
fn wire_token() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_]{0,11}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Enveloped messages round-trip bit-exactly through encode/decode for
    /// every combination of the new submission fields.
    #[test]
    fn envelope_roundtrips_submissions(
        id in 1u64..1_000_000,
        proc_name in wire_token(),
        submitted_ms in 0u64..u64::MAX / 2,
        priority in priority_strategy(),
        deadline_ms in prop::option::of(0u64..u64::MAX / 2),
        idempotency_key in prop::option::of(wire_token()),
        labels in label_strategy(),
    ) {
        let bytes = encode_input(InputMsg::Submit {
            id,
            proc_name: proc_name.clone(),
            args: vec![Value::from("a"), Value::Int(7)],
            submitted_ms,
            priority,
            deadline_ms,
            idempotency_key: idempotency_key.clone(),
            labels: labels.clone(),
        });
        match decode_input(&bytes).expect("decodable") {
            InputMsg::Submit {
                id: id2,
                proc_name: p2,
                args: a2,
                submitted_ms: s2,
                priority: pr2,
                deadline_ms: d2,
                idempotency_key: k2,
                labels: l2,
            } => {
                prop_assert_eq!(id2, id);
                prop_assert_eq!(p2, proc_name);
                prop_assert_eq!(a2, vec![Value::from("a"), Value::Int(7)]);
                prop_assert_eq!(s2, submitted_ms);
                prop_assert_eq!(pr2, priority);
                prop_assert_eq!(d2, deadline_ms);
                prop_assert_eq!(k2, idempotency_key);
                prop_assert_eq!(l2, labels);
            }
            other => prop_assert!(false, "unexpected variant {:?}", other),
        }
    }

    /// Signals and admin ops round-trip through the envelope too.
    #[test]
    fn envelope_roundtrips_control_messages(admin_id in 1u64..1_000) {
        use tropic::core::Signal;
        for msg in [
            InputMsg::Signal { id: admin_id, signal: Signal::Term },
            InputMsg::Repair { scope: Path::root(), admin_id },
            InputMsg::Reload { scope: Path::root(), admin_id },
        ] {
            let bytes = encode_input(msg.clone());
            let back = decode_input(&bytes).expect("decodable");
            prop_assert_eq!(
                serde_json::to_string(&back).unwrap(),
                serde_json::to_string(&msg).unwrap()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Store payload codec: exact round trips, and hostile bytes.
// ---------------------------------------------------------------------

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tropic::coord::codec::put_varint;
use tropic::core::codec::{
    decode_granule, decode_record_node, decode_task, encode_alias, encode_granule, encode_record,
    encode_task, RecordNode, STORE_FORMAT_VERSION, TAG_GRANULE, TAG_INPUT, TAG_RECORD, TAG_TASK,
};
use tropic::core::{AbortCode, LogRecord, PhyTask, PhysicalOutcome, Signal, TxnAlias, TxnState};

thread_local! {
    /// Bytes this thread has allocated, for the allocation bound below.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting what each thread allocates. A
/// const-initialized `Cell` needs no allocation and no destructor, so the
/// counter is safe to touch from inside the allocator.
struct CountingAlloc;

// SAFETY: every call forwards to `System` unchanged; the only addition
// is a thread-local counter update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller upholds `alloc`'s contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + new_size));
        // SAFETY: the caller upholds `realloc`'s contract, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// What running `f` allocated on this thread, in bytes.
fn allocated_by(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

fn leaf_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0u8..2).prop_map(|b| Value::Bool(b == 1)),
        (i64::MIN..i64::MAX).prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        Just(Value::Float(-0.0)),
        "[a-zA-Z0-9 /._-]{0,12}".prop_map(Value::Str),
    ]
}

fn map_value() -> impl Strategy<Value = Value> {
    prop::collection::vec(("[a-z]{1,6}", leaf_value()), 0..4)
        .prop_map(|kv| Value::Map(kv.into_iter().collect()))
}

/// Values nested up to three deep: lists of maps of leaves.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        leaf_value(),
        map_value(),
        prop::collection::vec(leaf_value(), 0..4).prop_map(Value::List),
        prop::collection::vec(map_value(), 0..3).prop_map(Value::List),
    ]
}

fn values() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(value_strategy(), 0..4)
}

fn flag() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

/// Nodes `depth` levels deep, with attributes and children at each level.
fn node_strategy(depth: u32) -> BoxedStrategy<Node> {
    let children = match depth {
        0 => Just(Vec::new()).boxed(),
        _ => prop::collection::vec((segment(), node_strategy(depth - 1)), 0..3).boxed(),
    };
    let attrs = prop::collection::vec(("[a-zA-Z]{1,8}", value_strategy()), 0..4);
    ("[a-zA-Z]{1,8}", attrs, children, flag())
        .prop_map(|(entity, attrs, children, inconsistent)| {
            let mut node = Node::new(entity);
            for (k, v) in attrs {
                node.set_attr(k, v);
            }
            for (name, child) in children {
                node.insert_child(name, child);
            }
            node.set_inconsistent(inconsistent);
            node
        })
        .boxed()
}

fn state_strategy() -> impl Strategy<Value = TxnState> {
    prop_oneof![
        Just(TxnState::Initialized),
        Just(TxnState::Accepted),
        Just(TxnState::Started),
        Just(TxnState::Committed),
        Just(TxnState::Aborted),
        Just(TxnState::Failed),
    ]
}

fn abort_code_strategy() -> impl Strategy<Value = AbortCode> {
    prop_oneof![
        Just(AbortCode::DeadlineExpired),
        Just(AbortCode::UnknownProcedure),
        Just(AbortCode::Killed),
    ]
}

fn log_record_strategy() -> impl Strategy<Value = LogRecord> {
    (
        (0usize..1_000, path_strategy(), wire_token(), values()),
        (
            prop::option::of(wire_token()),
            prop::option::of(path_strategy()),
            values(),
            flag(),
        ),
    )
        .prop_map(
            |((seq, object, action, args), (undo_action, undo_object, undo_args, best_effort))| {
                LogRecord {
                    seq,
                    object,
                    action,
                    args,
                    undo_action,
                    undo_object,
                    undo_args,
                    best_effort,
                }
            },
        )
}

fn opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop::option::of(0u64..u64::MAX)
}

fn record_strategy() -> impl Strategy<Value = TxnRecord> {
    (
        (
            0u64..u64::MAX,
            wire_token(),
            values(),
            state_strategy(),
            prop::collection::vec(log_record_strategy(), 0..4),
        ),
        (
            opt_u64(),
            prop::collection::vec((path_strategy(), mode_strategy()), 0..4),
            prop::option::of("[a-z :]{0,20}"),
            prop::option::of(abort_code_strategy()),
            0u64..u64::MAX,
        ),
        (
            opt_u64(),
            0u32..u32::MAX,
            priority_strategy(),
            opt_u64(),
            prop::option::of(wire_token()),
        ),
        label_strategy(),
    )
        .prop_map(|(a, b, c, labels)| {
            let (id, proc_name, args, state, log) = a;
            let (lsn, locks, error, abort_code, submitted_ms) = b;
            let (finished_ms, defer_count, priority, deadline_ms, idempotency_key) = c;
            TxnRecord {
                id,
                proc_name,
                args,
                state,
                log,
                lsn,
                locks,
                error,
                abort_code,
                submitted_ms,
                finished_ms,
                defer_count,
                priority,
                deadline_ms,
                idempotency_key,
                labels,
            }
        })
}

fn outcome_strategy() -> impl Strategy<Value = PhysicalOutcome> {
    prop_oneof![
        Just(PhysicalOutcome::Committed),
        (0usize..100, "[a-z ]{0,16}")
            .prop_map(|(failed_seq, error)| PhysicalOutcome::Aborted { failed_seq, error }),
        (
            0usize..100,
            "[a-z ]{0,16}",
            0usize..100,
            "[a-z ]{0,16}",
            path_strategy()
        )
            .prop_map(|(failed_seq, error, undo_failed_seq, undo_error, object)| {
                PhysicalOutcome::Failed {
                    failed_seq,
                    error,
                    undo_failed_seq,
                    undo_error,
                    inconsistent_object: object,
                }
            }),
        (0usize..100).prop_map(|reached_seq| PhysicalOutcome::Killed { reached_seq }),
        (
            prop::collection::vec(log_record_strategy(), 0..3),
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX
        )
            .prop_map(|(calls, drifted, remaining, unmatched)| {
                PhysicalOutcome::Reconciled {
                    calls,
                    drifted,
                    remaining,
                    unmatched,
                }
            }),
        prop::option::of(node_strategy(2)).prop_map(PhysicalOutcome::Retrieved),
    ]
}

fn input_strategy() -> impl Strategy<Value = InputMsg> {
    prop_oneof![
        (
            (0u64..u64::MAX, wire_token(), values(), 0u64..u64::MAX),
            (
                priority_strategy(),
                opt_u64(),
                prop::option::of(wire_token()),
                label_strategy()
            ),
        )
            .prop_map(|((id, proc_name, args, submitted_ms), rest)| {
                let (priority, deadline_ms, idempotency_key, labels) = rest;
                InputMsg::Submit {
                    id,
                    proc_name,
                    args,
                    submitted_ms,
                    priority,
                    deadline_ms,
                    idempotency_key,
                    labels,
                }
            }),
        (0u64..u64::MAX, outcome_strategy())
            .prop_map(|(id, outcome)| InputMsg::Result { id, outcome }),
        (path_strategy(), 0u64..u64::MAX)
            .prop_map(|(scope, admin_id)| InputMsg::Repair { scope, admin_id }),
        (path_strategy(), 0u64..u64::MAX)
            .prop_map(|(scope, admin_id)| InputMsg::Reload { scope, admin_id }),
        (
            0u64..u64::MAX,
            prop_oneof![Just(Signal::Term), Just(Signal::Kill)]
        )
            .prop_map(|(id, signal)| InputMsg::Signal { id, signal }),
    ]
}

/// A `spawnVM` record as the leader persists it at `Started`: the
/// simulated log and the lock set.
fn spawn_record() -> TxnRecord {
    let spec = TopologySpec {
        compute_hosts: 2,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    let mut tree = spec.build_tree();
    let mut locks = LockManager::new();
    let mut rec = TxnRecord::new(7, "spawnVM", spec.spawn_args("vm7", 1, 2_048), 1_000);
    let outcome = simulate(
        &mut rec,
        procs::all().get("spawnVM").unwrap().as_ref(),
        &mut tree,
        &actions::all(),
        &constraints::all(),
        &mut locks,
    );
    assert!(matches!(outcome, LogicalOutcome::Runnable), "{outcome:?}");
    rec.state = TxnState::Started;
    rec.lsn = Some(3);
    rec.locks = locks.locks_of(7);
    rec
}

/// A granule of a small datacenter's whole tree, as a fresh deployment
/// writes at `/`.
fn bootstrap_granule() -> Vec<u8> {
    let spec = TopologySpec {
        compute_hosts: 2,
        storage_hosts: 1,
        routers: 1,
        ..Default::default()
    };
    encode_granule(spec.build_tree().get(&Path::root()))
}

/// Runs every store decoder over `bytes`; none may panic, and they
/// report only whether each decoded.
fn decode_all(bytes: &[u8]) -> [bool; 4] {
    [
        decode_record_node(bytes).is_ok(),
        decode_input(bytes).is_ok(),
        decode_task(bytes).is_ok(),
        decode_granule(bytes).is_ok(),
    ]
}

/// Data dirs from earlier builds hold JSON, which every decoder still
/// reads behind a leading `{`. A deeply nested one is rejected like any
/// other malformed payload, on a spawned thread's smaller stack too.
#[test]
fn store_decoders_reject_deeply_nested_legacy_json() {
    let mut bytes = br#"{"v":1,"msg":"#.to_vec();
    bytes.resize(bytes.len() + 100_000, b'[');
    let decoded = std::thread::spawn(move || decode_all(&bytes))
        .join()
        .unwrap();
    assert_eq!(decoded, [false; 4]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Records and aliases round-trip exactly: the decoded value prints
    /// and re-encodes identically.
    #[test]
    fn store_records_roundtrip_exactly(rec in record_strategy(), alias_of in 0u64..u64::MAX) {
        let bytes = encode_record(&rec);
        prop_assert_eq!(bytes[0], TAG_RECORD);
        match decode_record_node(&bytes).expect("decodable") {
            RecordNode::Record(back) => {
                prop_assert_eq!(format!("{back:?}"), format!("{rec:?}"));
                prop_assert_eq!(encode_record(&back), bytes);
            }
            other => prop_assert!(false, "decoded {:?}", other),
        }
        let alias = TxnAlias { alias_of };
        match decode_record_node(&encode_alias(&alias)).expect("decodable") {
            RecordNode::Alias(back) => prop_assert_eq!(back, alias),
            other => prop_assert!(false, "decoded {:?}", other),
        }
    }

    /// Every input message variant, results carrying every physical
    /// outcome among them, round-trips exactly; so do phyQ tasks.
    #[test]
    fn store_input_messages_and_tasks_roundtrip_exactly(
        msg in input_strategy(),
        id in 0u64..u64::MAX,
    ) {
        let bytes = encode_input(msg.clone());
        prop_assert_eq!(bytes[0], TAG_INPUT);
        let back = decode_input(&bytes).expect("decodable");
        prop_assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        prop_assert_eq!(encode_input(back), bytes);
        let task = encode_task(&PhyTask { id });
        prop_assert_eq!(task[0], TAG_TASK);
        prop_assert_eq!(decode_task(&task).expect("decodable").id, id);
    }

    /// Granules round-trip exactly, a removed object's `None` included.
    #[test]
    fn store_granules_roundtrip_exactly(subtree in prop::option::of(node_strategy(3))) {
        let bytes = encode_granule(subtree.as_ref());
        prop_assert_eq!(bytes[0], TAG_GRANULE);
        let back = decode_granule(&bytes).expect("decodable");
        prop_assert_eq!(format!("{back:?}"), format!("{subtree:?}"));
        prop_assert_eq!(encode_granule(back.as_ref()), bytes);
    }

    /// Random bytes never panic a decoder, bare or behind a valid header.
    #[test]
    fn store_decoders_never_panic_on_random_bytes(
        junk in prop::collection::vec(0u8..=255, 0..96),
        tag in 1u8..6,
    ) {
        decode_all(&junk);
        let mut framed = vec![tag, STORE_FORMAT_VERSION];
        framed.extend_from_slice(&junk);
        decode_all(&framed);
    }

    /// Flipping one byte of a real record or granule never panics, and
    /// what still decodes re-encodes to the bytes it came from.
    #[test]
    fn store_decoders_survive_a_corrupted_byte(at in 0usize..4_096, to in 0u8..=255) {
        for mut bytes in [encode_record(&spawn_record()), bootstrap_granule()] {
            let at = at % bytes.len();
            bytes[at] = to;
            if let Ok(RecordNode::Record(rec)) = decode_record_node(&bytes) {
                prop_assert_eq!(encode_record(&rec), bytes.clone());
            }
            if let Ok(subtree) = decode_granule(&bytes) {
                prop_assert_eq!(encode_granule(subtree.as_ref()), bytes.clone());
            }
        }
    }
}

/// A real `spawnVM` record and a real granule, cut at every byte offset,
/// never decode and never panic: every field is read in full or not at
/// all, and a decoder that stops early fails on the leftover bytes.
#[test]
fn truncated_store_payloads_never_decode() {
    let record = encode_record(&spawn_record());
    let granule = bootstrap_granule();
    assert!(matches!(
        decode_record_node(&record),
        Ok(RecordNode::Record(_))
    ));
    assert!(decode_granule(&granule).unwrap().is_some());
    for cut in 0..record.len() {
        assert!(
            decode_record_node(&record[..cut]).is_err(),
            "record cut at {cut}"
        );
        assert_eq!(
            decode_all(&record[..cut]),
            [false; 4],
            "record cut at {cut}"
        );
    }
    for cut in 0..granule.len() {
        assert!(
            decode_granule(&granule[..cut]).is_err(),
            "granule cut at {cut}"
        );
    }
}

/// A length or count prefix claiming more than the input holds makes
/// the decoder fail without allocating for the claim.
#[test]
fn store_decoders_allocate_nothing_for_claimed_lengths() {
    let claim = |bytes: &mut Vec<u8>| put_varint(bytes, u64::MAX).unwrap();
    let mut cases = Vec::new();
    // A record whose procedure name claims 16 EiB.
    let mut name = vec![TAG_RECORD, STORE_FORMAT_VERSION, 7];
    claim(&mut name);
    name.extend_from_slice(b"spawnVM");
    cases.push(name);
    // A record whose argument list claims 2^64 values.
    let mut args = vec![TAG_RECORD, STORE_FORMAT_VERSION, 7, 0];
    claim(&mut args);
    args.extend_from_slice(&[0, 0, 0]);
    cases.push(args);
    // A submission whose labels claim 2^64 pairs.
    let submit = encode_input(InputMsg::Submit {
        id: 1,
        proc_name: "p".into(),
        args: Vec::new(),
        submitted_ms: 0,
        priority: Priority::Normal,
        deadline_ms: None,
        idempotency_key: None,
        labels: Vec::new(),
    });
    let mut labels = submit[..submit.len() - 1].to_vec();
    claim(&mut labels);
    labels.extend_from_slice(&[1, b'k']);
    cases.push(labels);
    // A granule whose root claims 2^64 children, and one whose entity
    // name claims 16 EiB.
    let mut children = vec![TAG_GRANULE, STORE_FORMAT_VERSION, 1, 1, b'n', 0];
    claim(&mut children);
    cases.push(children);
    let mut entity = vec![TAG_GRANULE, STORE_FORMAT_VERSION, 1];
    claim(&mut entity);
    cases.push(entity);

    for bytes in &cases {
        let mut decoded = [true; 4];
        let bytes_allocated = allocated_by(|| decoded = decode_all(bytes));
        assert_eq!(decoded, [false; 4], "{bytes:?}");
        // Error messages and the few items the input really holds: a few
        // hundred bytes, nowhere near the claim.
        assert!(bytes_allocated < 4_096, "{bytes_allocated} B for {bytes:?}");
    }
}

/// Nesting deeper than the decoders follow is refused, not a stack
/// overflow.
#[test]
fn store_decoders_refuse_runaway_nesting() {
    let mut value = Value::Null;
    for _ in 0..200 {
        value = Value::List(vec![value]);
    }
    let mut node = Node::new("leaf");
    node.set_attr("deep", value);
    let bytes = encode_granule(Some(&node));
    assert!(decode_granule(&bytes).is_err());
    // A hostile list of lists, 100 000 deep, in 200 kB.
    let mut hostile = vec![TAG_GRANULE, STORE_FORMAT_VERSION, 1, 1, b'n', 1, 1, b'k'];
    for _ in 0..100_000 {
        hostile.extend_from_slice(&[5, 1]);
    }
    assert!(decode_granule(&hostile).is_err());
}
