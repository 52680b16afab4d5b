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
        let mut live = Ensemble::with_durability(1, 1, tmp.path(), opts.clone()).unwrap();
        for op in &ops {
            let _ = live.submit(op.clone()); // failures are logged + replayed too
        }
        let live_store = live.read(|s| s.clone()).unwrap();
        let live_zxid = live.replica_last_zxid(0).unwrap();
        drop(live); // total power loss

        let mut recovered = Ensemble::recover(1, 1, tmp.path(), opts).unwrap();
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
            let _ = store.apply(zxid, op);
            d.commit_batch(zxid, &store).unwrap();
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
        let mut e = Ensemble::with_durability(1, 1, tmp.path(), opts.clone()).unwrap();
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

    let mut recovered = Ensemble::recover(1, 1, tmp.path(), opts).unwrap();
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
