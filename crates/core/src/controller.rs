//! The TROPIC controller: the logical layer's single active brain
//! (paper §2.2, §3.1).
//!
//! Exactly one controller (the election leader) consumes `inputQ`, runs
//! logical execution, feeds `phyQ`, and finalizes transactions from worker
//! results. Every state transition is persisted to the coordination store
//! *before* the step it enables, so any follower can resume from persistent
//! state alone — the controller's in-memory tree, lock table, and queues are
//! a cache (paper §2.3).
//!
//! ## The commit path
//!
//! The hot path's writes — transaction records, `inputQ` removals, `phyQ`
//! moves — accumulate in a round batch over one scheduling round and flush
//! as a single atomic coordination-store multi. A follower resuming from
//! persistent state therefore sees either the whole round or none of it,
//! and the replicated log pays its (dominant, §6.1) per-write cost once per
//! round instead of once per record.
//!
//! ## Record retention
//!
//! A finalized record stays readable for `GC_GRACE_MS` or while it is
//! among the newest `RETAIN_MAX` finalized records, whichever ends first.
//! `Controller::collect_garbage` runs every round and puts its deletes in
//! the same round batch, so collection costs no write of its own (a round
//! with nothing else to flush lets the due records pile up for a second
//! grace period and then collects them in one multi); it only
//! collects records the last durably written checkpoint covers, and only
//! znodes it knows exist — a `Delete` of a missing znode would fail the
//! whole round. The idempotency-key dedup window closes with the record.
//! Operator `repair`/`reload` results under `/tropic/admin` follow the same
//! rule by age alone.
//!
//! ## No device reads or calls
//!
//! The leader holds no device handle. Every repair — the twin's and the
//! operator's alike — is a corrective `__twinRepair` transaction whose
//! worker plans against fresh device state and runs the plan; a `reload`
//! is a `__reload` transaction whose worker retrieves the scope. The
//! twin's reported view and those workers' results are the leader's only
//! picture of the devices, so nothing in `step()` waits on one.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tropic_coord::{CoordClient, CoordError, DistributedQueue, Op};
use tropic_model::{Node, Path, SharedClock, Tree, Value};

use tropic_devices::{ActionCall, StateReport};

use crate::actions::{ActionDef, ActionRegistry};
use crate::api::{AbortCode, Priority};
use crate::config::{ServiceDefinition, TwinConfig};
use crate::error::PlatformError;
use crate::locks::LockManager;
use crate::logical::{rollback_logical, simulate, LogicalOutcome};
use crate::msg::{decode_input, layout, AdminResult, InputMsg, PhyTask, Signal};
use crate::physical::PhysicalOutcome;
use crate::proc::{FnProcedure, ProcRegistry};
use crate::reconcile::distinct_paths;
use crate::stats::{Metrics, TxnSample};
use crate::twin::{
    drift_fingerprint, RepairEpisode, TwinEvent, TwinFeed, TwinPhase, TwinTracker, RELOAD_PROC,
    REPAIR_ATTEMPTS, TWIN_REPAIR_PROC, TWIN_TXN_BASE,
};
use crate::txn::{LogRecord, TxnAlias, TxnId, TxnRecord, TxnState};

/// Lower bound of the controller-owned id space, disjoint from
/// client-assigned ids; the admin gate probes the lock table under it.
pub(crate) const ADMIN_TXN_BASE: TxnId = 1 << 62;

/// How long finalized transaction records linger before garbage collection,
/// so waiting clients can still read the outcome.
const GC_GRACE_MS: u64 = 10_000;

/// Finalized records retained before the oldest is collected regardless of
/// age, so resident memory and store size stop scaling with throughput.
const RETAIN_MAX: usize = 8_192;

/// Records collected per round at most, so one round's multi stays small
/// however large the backlog a checkpoint just made collectable.
const GC_PER_ROUND: usize = 256;

/// Maximum input-queue messages the controller admits per scheduling round,
/// spread across the priority lanes in strict `hi` → `norm` → `batch`
/// order.
const INPUT_BATCH: usize = 64;

/// The persisted logical-layer checkpoint.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Checkpoint {
    /// JSON snapshot of the logical tree.
    pub snapshot: String,
    /// Every transaction with `lsn <= watermark` is fully reflected in the
    /// snapshot; recovery replays only logs above it.
    pub watermark_lsn: u64,
}

/// Per-controller configuration (derived from the platform config).
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    /// Controller name (diagnostics, election payload).
    pub name: String,
    /// Finalized transactions between checkpoints (0 = bootstrap only).
    pub checkpoint_every: u64,
    /// TERM stalled transactions after this long.
    pub term_timeout_ms: Option<u64>,
    /// KILL stalled transactions after this long.
    pub kill_timeout_ms: Option<u64>,
    /// Digital-twin reconciliation settings ([`crate::twin`]).
    pub twin: TwinConfig,
    /// Platform-shared twin event hub; phase transitions publish here.
    pub twin_feed: TwinFeed,
}

/// The round's write buffer: one scheduling round's record puts, queue
/// removals, and queue appends, flushed as a single atomic multi. Repeated
/// puts to the same path coalesce (a record accepted and started in the
/// same round persists once, already `Started`); within a round the
/// controller's in-memory state is authoritative, and a crash before the
/// flush simply re-runs the round from the pre-round persistent state.
#[derive(Default)]
struct RoundBatch {
    ops: Vec<Op>,
    /// Index into `ops` of the coalescible put for a path.
    puts: HashMap<Path, usize>,
}

impl RoundBatch {
    /// Buffers a full-data write. `exists` picks create vs. set for the
    /// first put of a path; later puts in the round overwrite its payload.
    fn put(&mut self, path: Path, data: Vec<u8>, exists: bool) {
        if let Some(&i) = self.puts.get(&path) {
            match &mut self.ops[i] {
                Op::Create { data: d, .. } | Op::SetData { data: d, .. } => *d = data.into(),
                other => unreachable!("puts index points at a non-put op {other:?}"),
            }
            return;
        }
        let op = if exists {
            Op::SetData {
                path: path.clone(),
                data: data.into(),
                expected_version: None,
            }
        } else {
            Op::Create {
                path: path.clone(),
                data: data.into(),
                ephemeral_owner: None,
                sequential: false,
            }
        };
        self.puts.insert(path, self.ops.len());
        self.ops.push(op);
    }

    /// Buffers a deletion of a path this leader exclusively owns.
    fn delete(&mut self, path: Path) {
        self.puts.remove(&path);
        self.ops.push(Op::Delete {
            path,
            expected_version: None,
        });
    }

    /// Buffers an arbitrary op (sequential queue appends).
    fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    fn take(&mut self) -> Vec<Op> {
        self.puts.clear();
        std::mem::take(&mut self.ops)
    }
}

/// The controller state machine. Owns the logical tree and lock table; talks
/// to the rest of the platform exclusively through the coordination client.
pub struct Controller<'a> {
    cfg: ControllerConfig,
    client: &'a CoordClient,
    service: Arc<ServiceDefinition>,
    actions: ActionRegistry,
    /// The service's procedures plus the controller's own
    /// ([`register_builtins`]).
    procs: ProcRegistry,
    clock: SharedClock,
    metrics: Metrics,

    tree: Tree,
    locks: LockManager,
    /// Per-priority `todoQ` lanes (index = [`Priority::index`]), each FIFO
    /// with paper-faithful head-of-line blocking *within* the lane; a
    /// deferred head blocks only its own lane.
    todo: [VecDeque<TxnId>; 3],
    records: HashMap<TxnId, TxnRecord>,
    running: HashSet<TxnId>,
    started_at: HashMap<TxnId, u64>,
    /// Transaction ids whose signal znode exists, kept until the record is
    /// collected: TERM is sent once, and GC deletes only these.
    signaled: HashSet<TxnId>,
    inconsistent: BTreeSet<Path>,
    next_lsn: u64,
    finalized_since_ckpt: u64,
    /// Watermark of the last checkpoint durably written (or recovered).
    ckpt_watermark: u64,
    /// Retained finalized records, oldest first, with their finalize time.
    gc_queue: VecDeque<(TxnId, u64)>,
    /// Persisted operator results (admin ids), oldest first, with their
    /// write time.
    admin_gc: VecDeque<(u64, u64)>,
    batch: RoundBatch,
    /// Transaction ids whose record znode exists (create vs. set hint).
    persisted: HashSet<TxnId>,
    /// Whether the inconsistent-set znode exists yet.
    inconsistent_persisted: bool,
    /// Idempotency-key → admitted transaction id (dedup window = record
    /// retention).
    idemp: HashMap<String, TxnId>,
    /// Alias id → original id, for redelivery dedup.
    alias_targets: HashMap<TxnId, TxnId>,
    /// Original id → alias ids pointing at it, for GC.
    aliases_of: HashMap<TxnId, Vec<TxnId>>,
    /// Per-resource twin state machine (drift episodes, backoff waker).
    twin: TwinTracker,
    /// Cached reported state per mount, refreshed when the twin epoch
    /// moves.
    twin_reported: HashMap<Path, StateReport>,
    /// Last twin epoch the cache reflects.
    twin_epoch_seen: Option<u64>,
    /// Platform-clock timestamp of the last reconciliation pass.
    twin_last_tick_ms: u64,
    /// Next controller-owned transaction sequence (id = `TWIN_TXN_BASE +
    /// seq`): twin repairs, operator repair attempts and reloads.
    twin_next_seq: u64,
    /// Mount → in-flight twin repair transaction, so re-detection never
    /// stacks a second repair behind one already holding the scope's locks.
    twin_inflight: HashMap<Path, TxnId>,
}

impl<'a> Controller<'a> {
    /// Creates a controller bound to a coordination client. Call
    /// [`Controller::recover`] before stepping.
    pub fn new(
        cfg: ControllerConfig,
        client: &'a CoordClient,
        service: Arc<ServiceDefinition>,
        clock: SharedClock,
        metrics: Metrics,
    ) -> Self {
        let (mut actions, mut procs) = (service.actions.clone(), service.procs.clone());
        register_builtins(&mut actions, &mut procs);
        let twin = TwinTracker::new(&cfg.twin);
        Controller {
            cfg,
            client,
            service,
            actions,
            procs,
            clock,
            metrics,
            tree: Tree::new(),
            locks: LockManager::new(),
            todo: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            records: HashMap::new(),
            running: HashSet::new(),
            started_at: HashMap::new(),
            signaled: HashSet::new(),
            inconsistent: BTreeSet::new(),
            next_lsn: 1,
            finalized_since_ckpt: 0,
            ckpt_watermark: 0,
            gc_queue: VecDeque::new(),
            admin_gc: VecDeque::new(),
            batch: RoundBatch::default(),
            persisted: HashSet::new(),
            inconsistent_persisted: false,
            idemp: HashMap::new(),
            alias_targets: HashMap::new(),
            aliases_of: HashMap::new(),
            twin,
            twin_reported: HashMap::new(),
            twin_epoch_seen: None,
            twin_last_tick_ms: 0,
            twin_next_seq: 1,
            twin_inflight: HashMap::new(),
        }
    }

    /// Read-only view of the logical tree (tests and experiments).
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Number of transactions in physical execution.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    // ------------------------------------------------------------------
    // Recovery (paper §2.3): restore the previous leader's state from the
    // coordination store, idempotently.
    // ------------------------------------------------------------------

    /// Restores controller state from persistent storage. On the very first
    /// leadership in a fresh deployment, bootstraps the checkpoint from the
    /// service's initial tree.
    pub fn recover(&mut self) -> Result<(), PlatformError> {
        self.client.create_all(&layout::txns())?;
        self.client.create_all(&layout::election())?;
        // Queue roots must exist before the round batch appends items to
        // them (batched creates have no create-parents fallback).
        for p in Priority::ALL {
            self.client.create_all(&layout::input_lane(p))?;
        }
        self.client.create_all(&layout::phy_q())?;
        self.client.create_all(&layout::admins())?;
        self.client.create_all(&layout::signals())?;
        self.batch.take();
        self.persisted.clear();
        self.inconsistent_persisted = self.client.exists(&layout::inconsistent())?;

        // 1. Logical tree from the checkpoint (or bootstrap).
        let ckpt: Option<Checkpoint> = self.client.get_json(&layout::checkpoint())?;
        let watermark = match ckpt {
            Some(ckpt) => {
                self.tree = Tree::from_snapshot(&ckpt.snapshot)
                    .map_err(|e| PlatformError::Admin(format!("corrupt checkpoint: {e}")))?;
                ckpt.watermark_lsn
            }
            None => {
                self.tree = self.service.initial_tree.clone();
                self.service
                    .schemas
                    .validate(&self.tree)
                    .map_err(|e| PlatformError::Admin(format!("initial tree invalid: {e}")))?;
                let ckpt = Checkpoint {
                    snapshot: self
                        .tree
                        .to_snapshot()
                        .map_err(|e| PlatformError::Admin(e.to_string()))?,
                    watermark_lsn: 0,
                };
                self.client.put_json(&layout::checkpoint(), &ckpt)?;
                0
            }
        };
        self.next_lsn = watermark + 1;
        self.ckpt_watermark = watermark;

        // 2. Load every persisted transaction record, and rebuild the
        // idempotency index and alias table from them (idempotency keys
        // live on the records; aliases are persisted at the aliased id's
        // record path).
        self.records.clear();
        self.idemp.clear();
        self.alias_targets.clear();
        self.aliases_of.clear();
        for child in self.client.get_children(&layout::txns())? {
            let path = layout::txns().join(&child);
            if let Some(rec) = self.client.get_json::<TxnRecord>(&path)? {
                if let Some(key) = &rec.idempotency_key {
                    self.idemp.insert(key.clone(), rec.id);
                }
                self.persisted.insert(rec.id);
                self.records.insert(rec.id, rec);
            } else if let (Ok(alias_id), Some(alias)) = (
                child.parse::<TxnId>(),
                self.client.get_json::<TxnAlias>(&path)?,
            ) {
                self.alias_targets.insert(alias_id, alias.alias_of);
                self.aliases_of
                    .entry(alias.alias_of)
                    .or_default()
                    .push(alias_id);
            }
        }

        // 3. Replay logical effects above the watermark in lsn order.
        let mut replay: Vec<&TxnRecord> = self
            .records
            .values()
            .filter(|r| r.lsn.map(|l| l > watermark).unwrap_or(false))
            .collect();
        replay.sort_by_key(|r| r.lsn);
        let replay: Vec<TxnRecord> = replay.into_iter().cloned().collect();
        let now = self.clock.now_ms();
        for rec in &replay {
            let lsn = rec.lsn.expect("filtered on lsn");
            // Twin repair logs carry *physical* corrections only — their
            // device actions were never applied logically (the logical tree
            // already holds desired state), so replaying them would corrupt
            // it. Skip the log; lock/running bookkeeping below still runs.
            let logical_log = rec.proc_name != TWIN_REPAIR_PROC;
            if logical_log {
                for log_rec in &rec.log {
                    if let Some(def) = self.actions.get(&log_rec.action) {
                        // Replay failures mean the persistent log disagrees
                        // with the snapshot; quarantine the object rather
                        // than halt.
                        if def
                            .apply_logical(&mut self.tree, &log_rec.object, &log_rec.args)
                            .is_err()
                        {
                            let _ = self.tree.mark_inconsistent(&log_rec.object, true);
                            self.inconsistent.insert(log_rec.object.clone());
                        }
                    }
                }
            }
            match rec.state {
                // In-flight at crash time: effects stay, locks are
                // re-acquired, and the worker's result will arrive later.
                TxnState::Started => {
                    let _ = self.locks.try_acquire(rec.id, &rec.locks);
                    self.running.insert(rec.id);
                    self.started_at.insert(rec.id, now);
                }
                // Finalized by rollback before the crash: reapply it.
                TxnState::Aborted | TxnState::Failed if logical_log => {
                    let _ = rollback_logical(&rec.log, &mut self.tree, &self.actions);
                }
                _ => {}
            }
            self.next_lsn = self.next_lsn.max(lsn + 1);
        }

        // Resume the twin transaction-id sequence above every persisted
        // twin record, so re-submissions after failover never collide.
        self.twin_next_seq = self
            .records
            .keys()
            .chain(self.alias_targets.keys())
            .filter(|&&id| id >= TWIN_TXN_BASE)
            .map(|&id| id - TWIN_TXN_BASE + 1)
            .max()
            .unwrap_or(1);
        self.twin_inflight.clear();
        self.twin_epoch_seen = None;
        self.twin_reported.clear();

        // 4. Re-mark persisted inconsistencies.
        if let Some(paths) = self.client.get_json::<Vec<Path>>(&layout::inconsistent())? {
            for p in paths {
                let _ = self.tree.mark_inconsistent(&p, true);
                self.inconsistent.insert(p);
            }
        }

        // 5. Rebuild the todoQ lanes from accepted-but-unscheduled
        // transactions, each in admission (id) order within its lane.
        let mut accepted: Vec<(Priority, TxnId)> = self
            .records
            .values()
            .filter(|r| r.state == TxnState::Accepted)
            .map(|r| (r.priority, r.id))
            .collect();
        accepted.sort_unstable_by_key(|(_, id)| *id);
        self.todo = [VecDeque::new(), VecDeque::new(), VecDeque::new()];
        for (priority, id) in accepted {
            self.todo[priority.index()].push_back(id);
        }

        // 6. Schedule GC for already-finalized records, oldest first, and
        // for the operator results left behind; relearn which records left
        // a signal znode behind.
        let mut finalized: Vec<(Option<u64>, TxnId)> = self
            .records
            .values()
            .filter(|r| r.state.is_final())
            .map(|r| (r.finished_ms, r.id))
            .collect();
        finalized.sort_unstable();
        self.gc_queue = finalized.into_iter().map(|(_, id)| (id, now)).collect();
        let admins = self.client.get_children(&layout::admins())?;
        let admins = admins.iter().filter_map(|n| n.parse().ok());
        self.admin_gc = admins.map(|id| (id, now)).collect();
        let signals = self.client.get_children(&layout::signals())?;
        self.signaled = signals.iter().filter_map(|n| n.parse().ok()).collect();
        Ok(())
    }

    // ------------------------------------------------------------------
    // The leader loop body.
    // ------------------------------------------------------------------

    /// Performs one unit of controller work: drains a batch of `inputQ`
    /// messages, schedules from `todoQ`, checks stalled-transaction
    /// timeouts, and checkpoints when due. Returns `true` if any message was
    /// processed or transaction scheduled (callers idle-wait when `false`).
    pub fn step(&mut self) -> Result<bool, PlatformError> {
        let processed = self.process_input(INPUT_BATCH)?;
        let scheduled = self.schedule();
        let reconciled = self.twin_tick()?;
        self.check_timeouts()?;
        // Never "work": an idle leader still sleeps on its watches.
        self.collect_garbage();
        // The round flush: everything the round decided becomes
        // durable — and visible to workers and clients — atomically, before
        // any step it enables (checkpointing covers only flushed state).
        self.flush_round()?;
        self.maybe_checkpoint()?;
        Ok(processed > 0 || scheduled > 0 || reconciled > 0)
    }

    /// Flushes the round's buffered writes as one atomic multi. On failure
    /// the in-memory state is ahead of persistence; the caller resigns
    /// leadership and the next leader recovers from the pre-round state, so
    /// the store never exposes a partial round.
    fn flush_round(&mut self) -> Result<(), PlatformError> {
        let ops = self.batch.take();
        if !ops.is_empty() {
            self.client.multi(ops)?;
        }
        Ok(())
    }

    /// Blocks until any input lane has an item or `timeout` passes. Uses
    /// one children watch per lane so idling costs no polling writes. The
    /// lane bases exist from [`Controller::recover`], so the queues bind
    /// without probing.
    pub fn wait_for_input(&self, timeout: Duration) {
        let lanes =
            Priority::ALL.map(|p| DistributedQueue::bind(self.client, layout::input_lane(p)));
        let no_stop = std::sync::atomic::AtomicBool::new(false);
        let _ = DistributedQueue::await_any(&lanes.each_ref(), timeout, &no_stop);
    }

    /// Drains up to `max` messages, strictly by lane: the high lane is
    /// emptied before the normal lane is touched, and so on. Within a
    /// lane, FIFO.
    fn process_input(&mut self, max: usize) -> Result<usize, PlatformError> {
        let mut handled = 0;
        for priority in Priority::ALL {
            if handled >= max {
                break;
            }
            let q = DistributedQueue::bind(self.client, layout::input_lane(priority));
            // One listing per lane per round: the removals are buffered
            // until the flush, so a peek loop would re-serve the same head
            // forever.
            let mut names = q.item_names()?;
            names.truncate(max - handled);
            for name in names {
                let Some(data) = q.get(&name)? else {
                    continue;
                };
                match decode_input(&data) {
                    Ok(msg) => self.handle_msg(msg)?,
                    Err(_) => {
                        self.metrics.record_event(
                            self.clock.now_ms(),
                            &self.cfg.name,
                            "corrupt-input-dropped",
                        );
                    }
                }
                self.batch.delete(q.item_path(&name));
                handled += 1;
            }
        }
        Ok(handled)
    }

    fn handle_msg(&mut self, msg: InputMsg) -> Result<(), PlatformError> {
        match msg {
            InputMsg::Submit {
                id,
                proc_name,
                args,
                submitted_ms,
                priority,
                deadline_ms,
                idempotency_key,
                labels,
            } => {
                let mut rec = TxnRecord::new(id, proc_name, args, submitted_ms);
                rec.priority = priority;
                rec.deadline_ms = deadline_ms;
                rec.idempotency_key = idempotency_key;
                rec.labels = labels;
                self.handle_submit(rec);
                Ok(())
            }
            InputMsg::Result { id, outcome } => {
                self.handle_result(id, outcome);
                Ok(())
            }
            InputMsg::Signal { id, signal } => self.handle_signal(id, signal),
            InputMsg::Repair { scope, admin_id } => {
                self.start_episode("repair", TWIN_REPAIR_PROC, &scope, admin_id);
                Ok(())
            }
            InputMsg::Reload { scope, admin_id } => {
                self.start_episode("reload", RELOAD_PROC, &scope, admin_id);
                Ok(())
            }
        }
    }

    /// Step 2 of the paper's Figure 2, extended with the admission gate:
    /// idempotency-key dedup first, then the deadline check, then
    /// acceptance into the priority's `todoQ` lane.
    fn handle_submit(&mut self, mut rec: TxnRecord) {
        let id = rec.id;
        if self.records.contains_key(&id) || self.alias_targets.contains_key(&id) {
            // Duplicate delivery after a crash between persist and queue
            // removal: already accepted (or already aliased).
            return;
        }
        if let Some(key) = &rec.idempotency_key {
            if let Some(&original) = self.idemp.get(key) {
                // Dedup: persist a redirect at this id's record path so
                // the submitter's handle resolves to the original
                // transaction's outcome.
                self.metrics.record_idempotent_hit();
                self.persist_alias(id, original);
                return;
            }
        }
        let now = self.clock.now_ms();
        if let Some(deadline) = rec.deadline_ms {
            if now > deadline {
                // Expired before admission: abort without ever scheduling.
                // The key is deliberately *not* registered — a retry with a
                // fresh deadline must run, not dedup onto this rejection.
                rec.idempotency_key = None;
                rec.state = TxnState::Accepted;
                self.records.insert(id, rec);
                self.metrics.record_deadline_reject();
                self.finalize_coded(
                    id,
                    TxnState::Aborted,
                    Some(format!(
                        "deadline ({deadline} ms) expired before admission (now {now} ms)"
                    )),
                    Some(AbortCode::DeadlineExpired),
                );
                return;
            }
        }
        if let Some(key) = &rec.idempotency_key {
            self.idemp.insert(key.clone(), id);
        }
        rec.state = TxnState::Accepted;
        let priority = rec.priority;
        self.persist_record(&rec);
        self.records.insert(id, rec);
        self.metrics.record_admission(priority);
        self.todo[priority.index()].push_back(id);
    }

    /// Persists an idempotency redirect (`alias` → `original`) at the
    /// alias id's record path and indexes it for GC.
    fn persist_alias(&mut self, alias: TxnId, original: TxnId) {
        let data =
            serde_json::to_vec(&TxnAlias { alias_of: original }).expect("serializable alias");
        self.batch.put(layout::txn(alias), data, false);
        self.alias_targets.insert(alias, original);
        self.aliases_of.entry(original).or_default().push(alias);
    }

    /// Step 5 of Figure 2: clean up after physical execution.
    fn handle_result(&mut self, id: TxnId, outcome: PhysicalOutcome) {
        let Some(rec) = self.records.get_mut(&id) else {
            return;
        };
        if rec.state != TxnState::Started {
            // Already finalized (e.g. by KILL); drop the stale result.
            return;
        }
        let log = rec.log.clone();
        match outcome {
            PhysicalOutcome::Committed => self.finalize(id, TxnState::Committed, None),
            PhysicalOutcome::Aborted { failed_seq, error } => {
                self.rollback_in_logical(&log);
                // Seq 0: no action failed (TERM, or a worker that refused
                // the transaction), so the error is the whole reason.
                let at =
                    (failed_seq > 0).then(|| format!("physical action #{failed_seq} failed: "));
                self.finalize(id, TxnState::Aborted, Some(at.unwrap_or_default() + &error));
            }
            PhysicalOutcome::Failed {
                failed_seq,
                error,
                undo_failed_seq,
                undo_error,
                inconsistent_object,
            } => {
                self.rollback_in_logical(&log);
                self.mark_inconsistent(&inconsistent_object);
                let error = format!("action #{failed_seq} failed ({error}); undo #{undo_failed_seq} also failed ({undo_error})");
                self.finalize(id, TxnState::Failed, Some(error));
            }
            PhysicalOutcome::Killed { .. } => {
                // The controller killed this transaction already; if we get
                // here the record is somehow still Started, so abort it the
                // KILL way for safety.
                self.kill_logically(id, "worker abandoned after KILL");
            }
            PhysicalOutcome::Reconciled {
                calls,
                drifted,
                remaining,
                unmatched,
            } => {
                // The calls the worker planned become the attempt's log; an
                // operator's episode learns what they left behind, and what
                // drifted to begin with from attempt 1.
                rec.log = calls;
                if let Some((_, mut episode)) = RepairEpisode::of(rec) {
                    if episode.attempt == 1 {
                        episode.drifted = drifted;
                    }
                    (episode.remaining, episode.unmatched) = (remaining, unmatched);
                    rec.labels = episode.labels();
                }
                self.finalize(id, TxnState::Committed, None);
            }
            PhysicalOutcome::Retrieved(subtree) => match self.absorb_reload(id, subtree) {
                Ok(()) => self.finalize(id, TxnState::Committed, None),
                Err(refusal) => self.finalize(id, TxnState::Aborted, Some(refusal)),
            },
        }
    }

    fn handle_signal(&mut self, id: TxnId, signal: Signal) -> Result<(), PlatformError> {
        let Some(rec) = self.records.get(&id) else {
            return Ok(());
        };
        if rec.state != TxnState::Started {
            return Ok(());
        }
        match signal {
            Signal::Term => self.send_signal(id, Signal::Term)?,
            Signal::Kill => {
                self.send_signal(id, Signal::Kill)?;
                self.kill_logically(id, "killed by operator");
            }
        }
        Ok(())
    }

    /// Writes the transaction's signal znode for its worker to poll, and
    /// remembers that it exists so GC can delete it with the record.
    fn send_signal(&mut self, id: TxnId, signal: Signal) -> Result<(), PlatformError> {
        self.client.put_json(&layout::signal(id), &signal)?;
        self.signaled.insert(id);
        Ok(())
    }

    /// The KILL semantics of §4: abort immediately in the logical layer
    /// only; physical state may now diverge, so every object the execution
    /// log touches is marked inconsistent pending `repair`.
    fn kill_logically(&mut self, id: TxnId, reason: &str) {
        let Some(rec) = self.records.get(&id) else {
            return;
        };
        let log = rec.log.clone();
        self.rollback_in_logical(&log);
        let mut objects: Vec<Path> = log.iter().map(|r| r.object.clone()).collect();
        objects.dedup();
        for object in objects {
            self.mark_inconsistent(&object);
        }
        self.finalize_coded(
            id,
            TxnState::Aborted,
            Some(reason.to_owned()),
            Some(AbortCode::Killed),
        )
    }

    fn rollback_in_logical(&mut self, log: &[LogRecord]) {
        let t0 = Instant::now();
        if let Err(e) = rollback_logical(log, &mut self.tree, &self.actions) {
            // A logical undo that cannot apply means the cached tree is
            // unreliable; quarantine the affected subtree.
            if let Some(first) = log.first() {
                self.mark_inconsistent(&first.object.clone());
            }
            self.metrics.record_event(
                self.clock.now_ms(),
                &self.cfg.name,
                &format!("logical-rollback-error: {e}"),
            );
        }
        self.metrics.add_busy(t0.elapsed());
    }

    /// Step 3 of Figure 2: schedule each `todoQ` lane, highest priority
    /// first, until the lane empties or its head defers on a lock
    /// conflict. Head-of-line blocking is per lane, so a deferred batch
    /// transaction never holds up the high lane. Returns the number of
    /// transactions moved to the physical layer or finalized.
    fn schedule(&mut self) -> usize {
        let mut moved = 0;
        for lane in 0..self.todo.len() {
            moved += self.schedule_lane(lane);
        }
        moved
    }

    fn schedule_lane(&mut self, lane: usize) -> usize {
        let mut moved = 0;
        while let Some(&id) = self.todo[lane].front() {
            let Some(mut rec) = self.records.get(&id).cloned() else {
                self.todo[lane].pop_front();
                continue;
            };
            // The admission deadline also gates scheduling: a submission
            // that aged out while queued behind the lane is aborted, not
            // started.
            let now = self.clock.now_ms();
            if let Some(deadline) = rec.deadline_ms.filter(|&d| now > d) {
                self.todo[lane].pop_front();
                // Unregister the idempotency key (and strip it from the
                // persisted record, so recovery does not re-register it):
                // as at the admission gate, a retry with a fresh deadline
                // must run, not dedup onto this rejection.
                if let Some(key) = rec.idempotency_key.take() {
                    if self.idemp.get(&key) == Some(&id) {
                        self.idemp.remove(&key);
                    }
                }
                self.records.insert(id, rec);
                self.metrics.record_deadline_reject();
                self.finalize_coded(
                    id,
                    TxnState::Aborted,
                    Some(format!(
                        "deadline ({deadline} ms) expired in todoQ (now {now} ms)"
                    )),
                    Some(AbortCode::DeadlineExpired),
                );
                moved += 1;
                continue;
            }
            let Some(proc_) = self.procs.get(&rec.proc_name) else {
                self.todo[lane].pop_front();
                let proc_name = rec.proc_name.clone();
                self.records.insert(id, rec);
                self.finalize_coded(
                    id,
                    TxnState::Aborted,
                    Some(format!("unknown procedure `{proc_name}`")),
                    Some(AbortCode::UnknownProcedure),
                );
                moved += 1;
                continue;
            };
            let t0 = Instant::now();
            let outcome = simulate(
                &mut rec,
                proc_.as_ref(),
                &mut self.tree,
                &self.actions,
                &self.service.constraints,
                &mut self.locks,
            );
            self.metrics.add_busy(t0.elapsed());
            match outcome {
                LogicalOutcome::Runnable => {
                    self.todo[lane].pop_front();
                    rec.state = TxnState::Started;
                    rec.lsn = Some(self.next_lsn);
                    self.next_lsn += 1;
                    rec.locks = self.locks.locks_of(id);
                    self.persist_record(&rec);
                    self.records.insert(id, rec);
                    self.running.insert(id);
                    self.started_at.insert(id, self.clock.now_ms());
                    let task = serde_json::to_vec(&PhyTask { id }).expect("serializable");
                    let q = DistributedQueue::bind(self.client, layout::phy_q());
                    // The task becomes visible to workers atomically with
                    // the Started record at the round flush.
                    self.batch.push(q.enqueue_op(task));
                    moved += 1;
                }
                LogicalOutcome::Deferred { .. } => {
                    // Head-of-line blocking within the lane, per the
                    // paper's FIFO todoQ: the deferred transaction stays at
                    // the lane front for retry.
                    rec.defer_count += 1;
                    self.records.insert(id, rec);
                    self.metrics.record_defer();
                    break;
                }
                LogicalOutcome::Aborted { reason } => {
                    self.todo[lane].pop_front();
                    self.records.insert(id, rec);
                    self.metrics.record_violation();
                    self.finalize(id, TxnState::Aborted, Some(reason));
                    moved += 1;
                }
            }
        }
        moved
    }

    /// Finalizes a transaction: persist the terminal state, release locks,
    /// record metrics, and queue the record for GC.
    fn finalize(&mut self, id: TxnId, state: TxnState, error: Option<String>) {
        self.finalize_coded(id, state, error, None);
    }

    /// [`Controller::finalize`] carrying a machine-readable abort code for
    /// platform-originated rejections.
    fn finalize_coded(
        &mut self,
        id: TxnId,
        state: TxnState,
        error: Option<String>,
        abort_code: Option<AbortCode>,
    ) {
        let now = self.clock.now_ms();
        let Some(rec) = self.records.get_mut(&id) else {
            return;
        };
        rec.state = state;
        rec.error = error;
        rec.abort_code = abort_code;
        rec.finished_ms = Some(now);
        let rec_clone = rec.clone();
        self.persist_record(&rec_clone);
        self.locks.release_all(id);
        self.running.remove(&id);
        self.started_at.remove(&id);
        self.metrics.record_txn(TxnSample {
            id,
            submitted_ms: rec_clone.submitted_ms,
            finished_ms: now,
            state,
            defer_count: rec_clone.defer_count,
        });
        self.finalized_since_ckpt += 1;
        self.gc_queue.push_back((id, now));
        self.episode_step(&rec_clone);
    }

    /// TERM, then KILL, transactions stuck in physical execution (paper §4).
    fn check_timeouts(&mut self) -> Result<(), PlatformError> {
        let now = self.clock.now_ms();
        let stalled: Vec<(TxnId, u64)> = self
            .running
            .iter()
            .filter_map(|id| {
                self.started_at
                    .get(id)
                    .map(|s| (*id, now.saturating_sub(*s)))
            })
            .collect();
        for (id, elapsed) in stalled {
            if let Some(kill_ms) = self.cfg.kill_timeout_ms {
                if elapsed > kill_ms {
                    self.send_signal(id, Signal::Kill)?;
                    self.kill_logically(id, "killed after stall timeout");
                    continue;
                }
            }
            if let Some(term_ms) = self.cfg.term_timeout_ms {
                if elapsed > term_ms && !self.signaled.contains(&id) {
                    self.send_signal(id, Signal::Term)?;
                }
            }
        }
        Ok(())
    }

    /// Quiescent checkpointing. Remembers the watermark it durably wrote:
    /// record GC collects nothing above it.
    fn maybe_checkpoint(&mut self) -> Result<(), PlatformError> {
        if self.cfg.checkpoint_every == 0
            || self.finalized_since_ckpt < self.cfg.checkpoint_every
            || !self.running.is_empty()
        {
            return Ok(());
        }
        let watermark = self.next_lsn - 1;
        let ckpt = Checkpoint {
            snapshot: self
                .tree
                .to_snapshot()
                .map_err(|e| PlatformError::Admin(e.to_string()))?,
            watermark_lsn: watermark,
        };
        self.client.put_json(&layout::checkpoint(), &ckpt)?;
        self.ckpt_watermark = watermark;
        self.finalized_since_ckpt = 0;
        self.metrics.record_checkpoint();
        Ok(())
    }

    /// Collects the oldest retained records — at most [`GC_PER_ROUND`] —
    /// into the round batch, while the oldest is covered by the last
    /// checkpoint (recovery would otherwise lose its logical effects) and
    /// is either past the grace period or pushed out by [`RETAIN_MAX`]
    /// newer ones, and the operator results past the grace period — at most
    /// as many again. Deletes only znodes known to exist: one missing path
    /// would fail the whole round's multi.
    ///
    /// The deletes ride a flush that is happening anyway. A round with
    /// nothing else to flush would pay a quorum write for them alone, so it
    /// collects by age only once the oldest entry is a second grace period
    /// old — then everything due goes at once, not one entry per idle tick.
    fn collect_garbage(&mut self) {
        let now = self.clock.now_ms();
        let fronts = [self.gc_queue.front(), self.admin_gc.front()];
        let Some(oldest) = fronts.into_iter().flatten().map(|&(_, at)| at).min() else {
            return;
        };
        if self.batch.ops.is_empty()
            && now.saturating_sub(oldest) < 2 * GC_GRACE_MS
            && self.gc_queue.len() <= RETAIN_MAX
        {
            return;
        }
        let due = |&mut (_, at): &mut (u64, u64)| now.saturating_sub(at) >= GC_GRACE_MS;
        let results = std::iter::from_fn(|| self.admin_gc.pop_front_if(due));
        for (admin_id, _) in results.take(GC_PER_ROUND) {
            self.batch.delete(layout::admin(admin_id));
        }
        for _ in 0..GC_PER_ROUND {
            let Some(&(id, finalized_at)) = self.gc_queue.front() else {
                break;
            };
            let due =
                now.saturating_sub(finalized_at) >= GC_GRACE_MS || self.gc_queue.len() > RETAIN_MAX;
            let covered = self
                .records
                .get(&id)
                .and_then(|r| r.lsn)
                .is_none_or(|lsn| lsn <= self.ckpt_watermark);
            if !due || !covered {
                break;
            }
            self.gc_queue.pop_front();
            if self.persisted.remove(&id) {
                self.batch.delete(layout::txn(id));
            }
            if self.signaled.remove(&id) {
                self.batch.delete(layout::signal(id));
            }
            // The dedup window closes with the record: drop its
            // idempotency key and any aliases pointing at it.
            if let Some(key) = self.records.remove(&id).and_then(|r| r.idempotency_key) {
                if self.idemp.get(&key) == Some(&id) {
                    self.idemp.remove(&key);
                }
            }
            for alias in self.aliases_of.remove(&id).unwrap_or_default() {
                self.batch.delete(layout::txn(alias));
                self.alias_targets.remove(&alias);
            }
        }
    }

    // ------------------------------------------------------------------
    // Digital-twin reconciliation: desired (logical) vs reported state.
    // ------------------------------------------------------------------

    /// One reconciliation pass of the digital twin: refresh the reported
    /// state cache when the twin epoch moved, diff every reported resource
    /// against the desired (logical) tree, and let the per-resource waker
    /// decide whether to submit a corrective transaction, back off, or
    /// escalate. Corrective transactions are admitted to the batch lane of
    /// the `todoQ` like any client submission. Returns the number of
    /// corrective transactions submitted this pass.
    fn twin_tick(&mut self) -> Result<usize, PlatformError> {
        if !self.cfg.twin.enabled {
            return Ok(0);
        }
        let now = self.clock.now_ms();
        if now.saturating_sub(self.twin_last_tick_ms) < self.cfg.twin.interval_ms
            && self.twin_last_tick_ms != 0
        {
            return Ok(0);
        }
        self.twin_last_tick_ms = now;
        if !self.refresh_reported()? {
            return Ok(0);
        }
        let mut mounts: Vec<Path> = self.twin_reported.keys().cloned().collect();
        mounts.sort();
        let mut submitted = 0;
        for mount in mounts {
            // Never stack a second repair behind one still holding the
            // scope's locks (it would head-of-line block its lane);
            // re-detection waits for the in-flight outcome instead.
            if let Some(&tid) = self.twin_inflight.get(&mount) {
                let done = self
                    .records
                    .get(&tid)
                    .map(|r| r.state.is_final())
                    .unwrap_or(true);
                if !done {
                    continue;
                }
                self.twin_inflight.remove(&mount);
            }
            if self.tree.get(&mount).is_none() {
                // The resource left the desired state (decommissioned);
                // whatever it still reports is not drift to chase.
                self.twin.forget(&mount);
                continue;
            }
            let Some(report) = self.twin_reported.get(&mount) else {
                continue;
            };
            let reported = Tree::mounted(&mount, Some(report.state.clone()));
            let (down, diffs) = (report.down, self.tree.diff(&reported, &mount));
            if diffs.is_empty() {
                let first_seen = self.twin.phase_of(&mount).is_none();
                match self.twin.observe_in_sync(&mount, now) {
                    Some(mttr) => {
                        self.metrics.record_drift_repaired(mttr);
                        // The drift episode may stem from a KILL that
                        // marked the subtree inconsistent; convergence
                        // clears the quarantine.
                        self.clear_inconsistent_under(&mount);
                        self.publish_twin(
                            now,
                            &mount,
                            TwinPhase::Converged,
                            0,
                            format!("converged after {mttr} ms"),
                        );
                    }
                    None if first_seen => self.publish_twin(
                        now,
                        &mount,
                        TwinPhase::InSync,
                        0,
                        "reported state matches desired state".into(),
                    ),
                    None => {}
                }
                continue;
            }
            let fp = drift_fingerprint(&diffs);
            let obs = self.twin.observe_drift(&mount, fp, now, !down);
            if obs.newly_detected {
                self.metrics.record_drift_detected();
                let detail = if down {
                    format!("device down; {} diff(s)", diffs.len())
                } else {
                    format!("{} diff(s)", diffs.len())
                };
                self.publish_twin(now, &mount, TwinPhase::Drifted, 0, detail);
            }
            if obs.escalated {
                self.metrics.record_drift_escalated();
                self.publish_twin(
                    now,
                    &mount,
                    TwinPhase::Degraded,
                    self.cfg.twin.max_attempts,
                    format!(
                        "drift persists after {} repair attempt(s)",
                        self.cfg.twin.max_attempts
                    ),
                );
            }
            if let Some(attempt) = obs.submit_attempt {
                // Best-effort background work: never ahead of clients.
                let priority = Priority::Batch;
                // Keyed by (mount, drift fingerprint, attempt): a
                // re-detection after failover dedups, while a genuine retry
                // after backoff mints a fresh attempt number and runs.
                let key = format!("twin:{mount}:{fp:x}:{attempt}");
                let labels = vec![("origin".to_owned(), "twin".to_owned())];
                let id = self.admit_internal(TWIN_REPAIR_PROC, &mount, priority, Some(key), labels);
                self.twin_inflight.insert(mount.clone(), id);
                if self.twin.phase_of(&mount) == Some(TwinPhase::Reconciling) {
                    self.publish_twin(
                        now,
                        &mount,
                        TwinPhase::Reconciling,
                        attempt + 1,
                        format!("corrective transaction {id} submitted ({priority:?} lane)"),
                    );
                }
                submitted += 1;
            }
        }
        Ok(submitted)
    }

    /// Refreshes the reported-state cache from the store's `twin/` subtree
    /// when the epoch counter moved. Returns whether any reported state is
    /// available at all (no reports — reporter not running — disables the
    /// pass entirely).
    fn refresh_reported(&mut self) -> Result<bool, PlatformError> {
        let Some(epoch) = self.client.get_json::<u64>(&layout::twin_epoch())? else {
            return Ok(false);
        };
        if self.twin_epoch_seen == Some(epoch) {
            return Ok(!self.twin_reported.is_empty());
        }
        let names = match self.client.get_children(&layout::twin_reported()) {
            Ok(names) => names,
            Err(CoordError::NoNode(_)) => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let mut reported = HashMap::new();
        for name in names {
            let znode = layout::twin_reported().join(&name);
            if let Some(rep) = self.client.get_json::<StateReport>(&znode)? {
                reported.insert(rep.mount.clone(), rep);
            }
        }
        self.twin_reported = reported;
        self.twin_epoch_seen = Some(epoch);
        Ok(!self.twin_reported.is_empty())
    }

    fn publish_twin(
        &self,
        at_ms: u64,
        path: &Path,
        phase: TwinPhase,
        attempt: u32,
        detail: String,
    ) {
        self.cfg.twin_feed.publish(&TwinEvent {
            at_ms,
            path: path.clone(),
            phase,
            attempt,
            detail,
        });
    }

    // ------------------------------------------------------------------
    // Reconciliation (paper §4).
    // ------------------------------------------------------------------

    /// Admits a controller-owned `proc_name` transaction over `scope`: a
    /// corrective `__twinRepair` — the one repair path, whether the twin's
    /// waker or an operator asked for it — or a `__reload`. It is scheduled
    /// like any client transaction, and a worker runs its physical half.
    fn admit_internal(
        &mut self,
        proc_name: &str,
        scope: &Path,
        priority: Priority,
        idempotency_key: Option<String>,
        labels: Vec<(String, String)>,
    ) -> TxnId {
        let id = TWIN_TXN_BASE + self.twin_next_seq;
        self.twin_next_seq += 1;
        let args = vec![Value::from(scope.to_string())];
        let mut rec = TxnRecord::new(id, proc_name, args, self.clock.now_ms());
        rec.priority = priority;
        rec.idempotency_key = idempotency_key;
        rec.labels = labels;
        self.handle_submit(rec);
        id
    }

    /// `repair` pushes the logical layer's view onto drifted devices;
    /// `reload` pulls device state into the logical layer. Both behave
    /// like transactions (paper §4) by running as one: the verb's procedure
    /// is admitted on the High lane — and started in this round — with the
    /// operator's episode in its labels, and whichever leader finalizes it
    /// answers ([`Controller::episode_step`]). The gate refuses at once
    /// when an outstanding transaction holds any part of the scope:
    /// `self.tree` already holds a `Started` one's effects, and a repair
    /// planned under it would push its not-yet-executed actions onto the
    /// devices.
    fn start_episode(&mut self, verb: &str, proc_name: &str, scope: &Path, admin_id: u64) {
        let episode = RepairEpisode {
            admin_id,
            attempt: 1,
            ..RepairEpisode::default()
        };
        let requests = crate::locks::with_intentions(scope, crate::locks::LockMode::W);
        let conflict = self.locks.try_acquire(ADMIN_TXN_BASE, &requests).err();
        self.locks.release_all(ADMIN_TXN_BASE);
        if let Some(at) = conflict.map(|c| c.path) {
            let message = format!("{verb} conflicts with outstanding transaction at {at}");
            return self.answer(&episode, false, message);
        }
        if proc_name == TWIN_REPAIR_PROC {
            self.metrics.record_repair();
        }
        self.admit_internal(proc_name, scope, Priority::High, None, episode.labels());
    }

    /// Continues the operator episode a just-finalized record carries, if
    /// any. A repair attempt whose worker left drift in the scope after
    /// planning something admits the next attempt, up to
    /// [`REPAIR_ATTEMPTS`]; otherwise the answer rides this round's multi,
    /// beside the record it reports on. A transaction that did not commit
    /// (refused outside physical mode, TERMed, KILLed) answers its error.
    fn episode_step(&mut self, rec: &TxnRecord) {
        let Some((scope, mut episode)) = RepairEpisode::of(rec) else {
            return;
        };
        let committed = rec.state == TxnState::Committed;
        let repair = rec.proc_name == TWIN_REPAIR_PROC;
        if committed && repair {
            episode.actions += rec.log.len() as u64;
            if episode.remaining > 0 && !rec.log.is_empty() && episode.attempt < REPAIR_ATTEMPTS {
                episode.attempt += 1;
                let labels = episode.labels();
                self.admit_internal(TWIN_REPAIR_PROC, &scope, Priority::High, None, labels);
                return;
            }
        }
        let (left, unmatched) = (episode.remaining, episode.unmatched);
        let message = match (committed, repair, left, episode.actions) {
            (false, ..) => rec.error.clone().unwrap_or_default(),
            (_, false, ..) => format!("reloaded {} node(s)", episode.actions),
            (_, _, 0, 0) => "layers already consistent".to_owned(),
            (_, _, 0, n) => format!("repaired with {n} action(s)"),
            _ => format!("{left} diff(s) remain, {unmatched} unmatched by any rule"),
        };
        let ok = committed && left == 0;
        if ok {
            self.clear_inconsistent_under(&scope);
        }
        self.answer(&episode, ok, message);
    }

    /// A reload's finalize: swap the subtree its worker retrieved into the
    /// logical tree, keep it only if every constraint still holds —
    /// `check_all`, since one anchored below the scope (a host's VM memory
    /// under `reload(/)`) counts too — and commit with the swap as the
    /// `__replaceSubtree` log recovery replays in lsn order; otherwise
    /// restore the old subtree and abort. The scope stayed W-locked since
    /// the reload was scheduled, so nothing else changed it meanwhile.
    fn absorb_reload(&mut self, id: TxnId, subtree: Option<Node>) -> Result<(), String> {
        let rec = self.records.get(&id);
        let (scope, mut episode) = rec.and_then(RepairEpisode::of).ok_or("not a reload")?;
        let subtree = subtree.ok_or_else(|| format!("no physical state at {scope}"))?;
        let snapshot = serde_json::to_string(&subtree)
            .map_err(|e| format!("reload aborted: cannot encode {scope}: {e}"))?;
        episode.actions = subtree.subtree_size() as u64;
        let old = (self.tree.replace(&scope, subtree))
            .map_err(|_| format!("logical tree has no node at {scope}"))?;
        if let Err(v) = self.service.constraints.check_all(&self.tree) {
            let _ = self.tree.replace(&scope, old);
            return Err(format!("reload aborted: {v}"));
        }
        episode.drifted =
            distinct_paths(&Tree::mounted(&scope, Some(old)).diff(&self.tree, &scope)) as u64;
        let swap = ActionCall::new(scope.clone(), "__replaceSubtree", vec![snapshot.into()]);
        let swap = LogRecord::irreversible(1, swap);
        if let Some(rec) = self.records.get_mut(&id) {
            (rec.log, rec.labels) = (vec![swap], episode.labels());
        }
        self.metrics.record_reload();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Helpers.
    // ------------------------------------------------------------------

    fn persist_record(&mut self, rec: &TxnRecord) {
        let data = serde_json::to_vec(rec).expect("serializable record");
        let exists = self.persisted.contains(&rec.id);
        self.batch.put(layout::txn(rec.id), data, exists);
        self.persisted.insert(rec.id);
    }

    /// Answers the operator waiting on `episode`, with what it has counted
    /// so far. The answer rides the round batch: it becomes readable in the
    /// same multi as the effects it reports (the finalized reload, or a
    /// repair's last attempt), never before them. Admin ids are unique, so
    /// the znode is always a create; GC deletes it `GC_GRACE_MS` later.
    fn answer(&mut self, episode: &RepairEpisode, ok: bool, message: String) {
        let result = AdminResult {
            ok,
            message,
            actions: episode.actions as usize,
            drifted: episode.drifted as usize,
        };
        if let Ok(data) = serde_json::to_vec(&result) {
            self.batch.put(layout::admin(episode.admin_id), data, false);
            self.admin_gc
                .push_back((episode.admin_id, self.clock.now_ms()));
        }
    }

    fn mark_inconsistent(&mut self, path: &Path) {
        if self.tree.mark_inconsistent(path, true).is_ok() {
            self.inconsistent.insert(path.clone());
            self.persist_inconsistent();
        }
    }

    fn clear_inconsistent_under(&mut self, scope: &Path) {
        let cleared: Vec<Path> = self
            .inconsistent
            .iter()
            .filter(|p| scope.contains(p))
            .cloned()
            .collect();
        for p in &cleared {
            let _ = self.tree.mark_inconsistent(p, false);
            self.inconsistent.remove(p);
        }
        if !cleared.is_empty() {
            self.persist_inconsistent();
        }
    }

    fn persist_inconsistent(&mut self) {
        let paths: Vec<&Path> = self.inconsistent.iter().collect();
        let data = serde_json::to_vec(&paths).expect("serializable paths");
        let exists = self.inconsistent_persisted;
        self.batch.put(layout::inconsistent(), data, exists);
        self.inconsistent_persisted = true;
    }
}

/// Registers what the controller itself relies on. Its own procedures each
/// W-lock the scope their first argument names: a repair attempt also logs
/// the `__reconcile` step its worker plans from, while a reload logs
/// nothing until its finalize swaps the retrieved subtree in (only an
/// operator's episode, on a controller-owned id, is ever absorbed or
/// answered). Its actions are that swap, replayed during recovery, and
/// the twin's universal no-op undo (corrective repair actions were never
/// simulated logically, so both their logical and physical undo must do
/// nothing).
fn register_builtins(actions: &mut ActionRegistry, procs: &mut ProcRegistry) {
    procs.register(Arc::new(FnProcedure::new(TWIN_REPAIR_PROC, |ctx| {
        ctx.reconcile(&Path::parse(&ctx.arg_str(0)?)?)
    })));
    procs.register(Arc::new(FnProcedure::new(RELOAD_PROC, |ctx| {
        ctx.lock_scope(&Path::parse(&ctx.arg_str(0)?)?)
    })));
    actions.register(ActionDef::new(
        tropic_devices::NOOP_ACTION,
        |_, _, _| Ok(()),
        |_, _, _| None,
    ));
    actions.register(ActionDef::new(
        "__replaceSubtree",
        |tree, object, args| {
            let json = args
                .first()
                .and_then(Value::as_str)
                .ok_or("missing subtree snapshot argument")?;
            let node: tropic_model::Node = serde_json::from_str(json).map_err(|e| e.to_string())?;
            tree.replace(object, node).map_err(|e| e.to_string())?;
            Ok(())
        },
        |_, _, _| None,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::encode_input;
    use crate::physical::{execute_record, ExecMode};

    #[test]
    fn builtin_replace_subtree_applies() {
        let mut actions = ActionRegistry::new();
        register_builtins(&mut actions, &mut ProcRegistry::new());
        let def = actions.get("__replaceSubtree").unwrap();
        let mut tree = Tree::new();
        tree.insert(&Path::parse("/a").unwrap(), tropic_model::Node::new("old"))
            .unwrap();
        let new_node = tropic_model::Node::new("new").with_attr("x", 1i64);
        let json = serde_json::to_string(&new_node).unwrap();
        def.apply_logical(&mut tree, &Path::parse("/a").unwrap(), &[Value::from(json)])
            .unwrap();
        assert_eq!(
            tree.get(&Path::parse("/a").unwrap()).unwrap().entity(),
            "new"
        );
        // Irreversible by design.
        assert!(def
            .derive_undo(&tree, &Path::parse("/a").unwrap(), &[])
            .is_none());
    }

    fn controller_under_test(client: &CoordClient, service: ServiceDefinition) -> Controller<'_> {
        controller_on(client, service, tropic_model::real_clock(), 0)
    }

    fn controller_on(
        client: &CoordClient,
        service: ServiceDefinition,
        clock: SharedClock,
        checkpoint_every: u64,
    ) -> Controller<'_> {
        let cfg = ControllerConfig {
            name: "c0".into(),
            checkpoint_every,
            term_timeout_ms: None,
            kill_timeout_ms: None,
            twin: TwinConfig::default(),
            twin_feed: TwinFeed::new(),
        };
        let mut controller = Controller::new(cfg, client, Arc::new(service), clock, Metrics::new());
        controller.recover().unwrap();
        controller
    }

    /// A service whose initial tree is one bare `vmHost` at `host`.
    fn host_service(host: &Path) -> ServiceDefinition {
        let mut initial_tree = Tree::new();
        let vm_root = Path::parse("/vmRoot").unwrap();
        initial_tree.insert(&vm_root, Node::new("vmRoot")).unwrap();
        initial_tree.insert(host, Node::new("vmHost")).unwrap();
        ServiceDefinition {
            initial_tree,
            ..ServiceDefinition::default()
        }
    }

    /// Claims the one queued phyQ task and returns its record.
    fn claim(client: &CoordClient) -> TxnRecord {
        let phy_q = DistributedQueue::bind(client, layout::phy_q());
        let (_, task) = phy_q.try_dequeue_batch(1).unwrap().remove(0);
        let id = serde_json::from_slice::<PhyTask>(&task).unwrap().id;
        client.get_json(&layout::txn(id)).unwrap().unwrap()
    }

    /// The commit path's shape, pinned: whatever a round decides reaches
    /// the store as one atomic multi. A per-record write creeping back into
    /// `step()` shows up here as a second write.
    #[test]
    fn round_reaches_the_store_as_exactly_one_multi() {
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let mut controller = controller_under_test(&client, noop_service());
        let lane = DistributedQueue::bind(&client, layout::input_lane(Priority::Normal));
        for id in 1..=8 {
            let (msg, _) = crate::api::TxnRequest::new("noop").into_msg(id, 0).unwrap();
            lane.enqueue(encode_input(msg)).unwrap();
        }

        let before = coord.stats();
        assert!(controller.step().unwrap());
        let after = coord.stats();
        assert_eq!(after.multis - before.multis, 1, "one flush per round");
        assert_eq!(
            after.writes - before.writes,
            1,
            "a single-op write escaped the round batch"
        );
        // 8 inputQ removals + 8 coalesced record puts + 8 phyQ appends.
        assert_eq!(after.batched_ops - before.batched_ops, 24);
        assert_eq!(controller.running_len(), 8);
        assert!(lane.is_empty().unwrap());
        let phy_q = DistributedQueue::bind(&client, layout::phy_q());
        assert_eq!(phy_q.len().unwrap(), 8);
    }

    /// The operator plane rides the same path: a reload's answer lands in
    /// the multi that carries its committed `__reload` record and its
    /// worker result's `inputQ` removal, so an operator can never read `ok`
    /// ahead of the effects it reports.
    #[test]
    fn reload_result_lands_in_the_round_multi() {
        let host = Path::parse("/vmRoot/h1").unwrap();
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let mut controller = controller_under_test(&client, host_service(&host));
        let lane = DistributedQueue::bind(&client, layout::input_lane(Priority::High));
        send(
            &client,
            InputMsg::Reload {
                scope: host,
                admin_id: 1,
            },
        );
        controller.step().unwrap();
        let id = claim(&client).id;
        let subtree = Some(Node::new("vmHost").with_attr("memCapacity", 32_768i64));
        let outcome = PhysicalOutcome::Retrieved(subtree);
        send(&client, InputMsg::Result { id, outcome });

        let before = coord.stats();
        assert_eq!(controller.process_input(INPUT_BATCH).unwrap(), 1);
        assert_eq!(coord.stats().writes, before.writes, "written mid-round");
        assert!(!client.exists(&layout::admin(1)).unwrap());
        controller.flush_round().unwrap();
        let after = coord.stats();
        assert_eq!(after.multis - before.multis, 1);
        assert_eq!(after.writes - before.writes, 1);
        // inputQ removal + the committed `__reload` record + admin result.
        assert_eq!(after.batched_ops - before.batched_ops, 3);
        let result: AdminResult = client.get_json(&layout::admin(1)).unwrap().unwrap();
        assert!(result.ok, "{}", result.message);
        assert!(lane.is_empty().unwrap());
    }

    // ------------------------------------------------------------------
    // Record GC. The tests play client and worker by hand: submissions go
    // to the normal lane, results and signals to the high lane (drained
    // first), and a manual clock walks records past the grace period.
    // ------------------------------------------------------------------

    fn noop_service() -> ServiceDefinition {
        let mut service = ServiceDefinition::default();
        service
            .procs
            .register(Arc::new(FnProcedure::new("noop", |_| Ok(()))));
        service
    }

    /// A controller over `noop` on a manual clock.
    fn gc_controller<'a>(
        client: &'a CoordClient,
        clock: &Arc<tropic_model::ManualClock>,
        checkpoint_every: u64,
    ) -> Controller<'a> {
        controller_on(client, noop_service(), clock.clone(), checkpoint_every)
    }

    fn submit(client: &CoordClient, id: TxnId, key: Option<&str>) {
        let mut request = crate::api::TxnRequest::new("noop");
        if let Some(key) = key {
            request = request.idempotency_key(key);
        }
        let (msg, _) = request.into_msg(id, 0).unwrap();
        DistributedQueue::bind(client, layout::input_lane(Priority::Normal))
            .enqueue(encode_input(msg))
            .unwrap();
    }

    fn send(client: &CoordClient, msg: InputMsg) {
        DistributedQueue::bind(client, layout::input_lane(Priority::High))
            .enqueue(encode_input(msg))
            .unwrap();
    }

    fn commit(client: &CoordClient, id: TxnId) {
        let outcome = PhysicalOutcome::Committed;
        send(client, InputMsg::Result { id, outcome });
    }

    fn children(client: &CoordClient, base: Path) -> Vec<String> {
        client.get_children(&base).unwrap_or_default()
    }

    /// Steps once and returns the (multis, single writes, batched ops) the
    /// step cost, checkpoint puts excluded.
    fn step_cost(
        coord: &tropic_coord::CoordService,
        controller: &mut Controller<'_>,
    ) -> (u64, u64, u64) {
        let (before, ckpts) = (coord.stats(), controller.metrics.counters().checkpoints);
        controller.step().unwrap();
        let after = coord.stats();
        let ckpts = controller.metrics.counters().checkpoints - ckpts;
        let multis = after.multis - before.multis;
        (
            multis,
            after.writes - before.writes - multis - ckpts,
            after.batched_ops - before.batched_ops,
        )
    }

    /// The read budget of one transaction (ROADMAP 3(a)), pinned phase by
    /// phase with the worker played by hand. A probe that reads a record
    /// twice, a queue bound with `new` on a hot path or a fourth lane
    /// listing shows up here as a changed count.
    #[test]
    fn submit_commit_wait_costs_a_pinned_number_of_reads() {
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let mut controller = controller_under_test(&client, noop_service());
        let user = coord.connect("client");
        let mut last = coord.stats().reads;
        let mut reads = || {
            let now = coord.stats().reads;
            let spent = now - last;
            last = now;
            spent
        };

        let (msg, _) = crate::api::TxnRequest::new("noop").into_msg(1, 0).unwrap();
        let lane = DistributedQueue::bind(&user, layout::input_lane(Priority::Normal));
        lane.enqueue(encode_input(msg)).unwrap();
        assert_eq!(reads(), 0, "submit: the lane is bound, not probed");
        let handle = crate::api::TxnHandle::new(&user, tropic_model::real_clock(), 1, None);
        assert!(handle.try_outcome().unwrap().is_none());
        assert_eq!(reads(), 1, "probe before admission: the record path, once");

        assert!(controller.step().unwrap());
        assert_eq!(reads(), 4, "admit: three lane listings and the item");
        assert!(handle.try_outcome().unwrap().is_none());
        assert_eq!(reads(), 1, "probe in flight: the record, once");

        commit(&client, 1);
        assert!(controller.step().unwrap());
        assert_eq!(reads(), 4, "finalize: three lane listings and the result");
        let outcome = handle.wait_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(outcome.state, TxnState::Committed);
        assert_eq!(reads(), 1, "wait on a finished transaction: one read");
    }

    #[test]
    fn retention_is_bounded_by_count_and_gc_rides_the_round_multi() {
        const CHUNK: u64 = INPUT_BATCH as u64;
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let clock = tropic_model::ManualClock::new();
        let mut controller = gc_controller(&client, &clock, CHUNK);
        let phy_q = DistributedQueue::bind(&client, layout::phy_q());
        let total = 3 * RETAIN_MAX as u64;
        let mut last_ops = 0;
        for first in (1..=total).step_by(CHUNK as usize) {
            for id in first..first + CHUNK {
                submit(&client, id, None);
            }
            let (multis, singles, _) = step_cost(&coord, &mut controller);
            assert_eq!((multis, singles), (1, 0), "one write per round");
            for (_, task) in phy_q.try_dequeue_batch(INPUT_BATCH).unwrap() {
                commit(
                    &client,
                    serde_json::from_slice::<PhyTask>(&task).unwrap().id,
                );
            }
            let (multis, singles, ops) = step_cost(&coord, &mut controller);
            assert_eq!((multis, singles), (1, 0), "one write per round");
            last_ops = ops;
            assert_eq!(controller.running_len(), 0);
            assert!(controller.records.len() <= RETAIN_MAX, "{first}");
            if first % (16 * CHUNK) == 1 {
                assert!(children(&client, layout::txns()).len() <= RETAIN_MAX);
            }
        }
        assert_eq!(controller.records.len(), RETAIN_MAX);
        assert_eq!(children(&client, layout::txns()).len(), RETAIN_MAX);
        assert!(!controller.records.contains_key(&1), "oldest goes first");
        assert!(controller.records.contains_key(&total));
        // At the cap a round collects what it finalizes, in its own multi:
        // CHUNK inputQ removals + CHUNK record puts + CHUNK GC deletes.
        assert_eq!(last_ops, 3 * CHUNK);
    }

    #[test]
    fn gc_never_collects_above_the_checkpoint_watermark() {
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let clock = tropic_model::ManualClock::new();
        let mut controller = gc_controller(&client, &clock, 1);
        submit(&client, 1, None);
        controller.step().unwrap();
        commit(&client, 1);
        controller.step().unwrap();
        assert_eq!(controller.ckpt_watermark, 1, "quiescent: checkpointed");
        // 2 finalizes while 3 is still running, so no checkpoint covers it.
        submit(&client, 2, None);
        submit(&client, 3, None);
        controller.step().unwrap();
        commit(&client, 2);
        controller.step().unwrap();
        assert_eq!(controller.ckpt_watermark, 1);
        clock.advance(100 * GC_GRACE_MS);
        for _ in 0..3 {
            controller.step().unwrap();
        }
        assert!(!controller.records.contains_key(&1), "covered and old");
        assert!(controller.records.contains_key(&2), "lsn 2 > watermark 1");
        assert!(client.exists(&layout::txn(2)).unwrap());
        // Once a checkpoint covers it, age alone decides.
        commit(&client, 3);
        controller.step().unwrap();
        assert_eq!(controller.ckpt_watermark, 3);
        controller.step().unwrap();
        assert!(!client.exists(&layout::txn(2)).unwrap());
        assert!(client.exists(&layout::txn(3)).unwrap(), "inside its grace");
        // Past it, the delete waits for a flush to ride rather than buy a
        // write of its own: inputQ removal + record put + phyQ append + it.
        clock.advance(GC_GRACE_MS);
        assert_eq!(step_cost(&coord, &mut controller), (0, 0, 0));
        submit(&client, 4, None);
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 4));
        assert!(!client.exists(&layout::txn(3)).unwrap());
    }

    #[test]
    fn gc_deletes_a_signal_znode_only_where_one_was_written() {
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let clock = tropic_model::ManualClock::new();
        let mut controller = gc_controller(&client, &clock, 1);
        submit(&client, 1, None);
        submit(&client, 2, None);
        controller.step().unwrap();
        commit(&client, 2);
        controller.step().unwrap();
        // 2 is past its grace when the KILL round runs, but no checkpoint
        // covers it until that round has made the platform quiescent.
        clock.advance(3 * GC_GRACE_MS / 2);
        let signal = Signal::Kill;
        send(&client, InputMsg::Signal { id: 1, signal });
        controller.step().unwrap();
        assert!(client.exists(&layout::signal(1)).unwrap());
        assert!(client.exists(&layout::txn(2)).unwrap());
        assert_eq!(controller.ckpt_watermark, 2);

        // Idle rounds collect once the oldest record is two grace periods
        // old. The unsignalled record costs one delete op; a blind delete
        // of its (missing) signal znode would fail the round.
        clock.advance(GC_GRACE_MS / 2 - 1);
        assert_eq!(step_cost(&coord, &mut controller), (0, 0, 0));
        clock.advance(1);
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 1));
        assert!(!client.exists(&layout::txn(2)).unwrap());
        assert!(client.exists(&layout::txn(1)).unwrap());
        // The killed one's record and signal znode go in one multi.
        clock.advance(3 * GC_GRACE_MS / 2);
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 2));
        assert!(!client.exists(&layout::txn(1)).unwrap());
        assert!(!client.exists(&layout::signal(1)).unwrap());
        assert!(controller.signaled.is_empty());
        // Nothing left: an idle round writes nothing.
        assert_eq!(step_cost(&coord, &mut controller), (0, 0, 0));
    }

    #[test]
    fn gc_collects_an_alias_with_its_target_and_frees_the_key() {
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let clock = tropic_model::ManualClock::new();
        let mut controller = gc_controller(&client, &clock, 1);
        submit(&client, 1, Some("k"));
        controller.step().unwrap();
        commit(&client, 1);
        submit(&client, 2, Some("k"));
        controller.step().unwrap();
        assert_eq!(controller.alias_targets.get(&2), Some(&1));
        assert!(client.exists(&layout::txn(2)).unwrap());

        clock.advance(2 * GC_GRACE_MS);
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 2));
        assert!(children(&client, layout::txns()).is_empty());
        assert!(controller.alias_targets.is_empty() && controller.aliases_of.is_empty());
        // The dedup window closed with the record: the key runs again.
        submit(&client, 3, Some("k"));
        assert!(controller.step().unwrap());
        assert_eq!(controller.records[&3].state, TxnState::Started);
    }

    #[test]
    fn gc_resumes_after_failover_without_failing_a_round() {
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let clock = tropic_model::ManualClock::new();
        let mut old_leader = gc_controller(&client, &clock, 1);
        for id in [1, 3, 4] {
            submit(&client, id, (id == 1).then_some("k"));
        }
        old_leader.step().unwrap();
        commit(&client, 1);
        commit(&client, 4);
        let signal = Signal::Kill;
        send(&client, InputMsg::Signal { id: 3, signal });
        submit(&client, 2, Some("k"));
        old_leader.step().unwrap();
        assert_eq!(old_leader.ckpt_watermark, 3);
        clock.advance(GC_GRACE_MS / 2);
        old_leader.step().unwrap();
        assert_eq!(children(&client, layout::txns()).len(), 4, "mid-retention");
        drop(old_leader);

        let mut controller = gc_controller(&client, &clock, 1);
        assert_eq!(controller.gc_queue.len(), 3);
        assert_eq!(controller.signaled, HashSet::from([3]));
        // The grace restarts at recovery (finalize times are the old
        // leader's), then one round collects everything that exists — three
        // records, the alias, the signal znode — and nothing that does not.
        clock.advance(2 * GC_GRACE_MS - 1);
        assert_eq!(step_cost(&coord, &mut controller), (0, 0, 0));
        clock.advance(1);
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 5));
        assert!(children(&client, layout::txns()).is_empty());
        assert!(children(&client, layout::signals()).is_empty());
        assert!(controller.records.is_empty() && controller.idemp.is_empty());
    }

    /// Operator results follow the records' retention rule: an answer past
    /// the grace period goes with the next round that flushes, inside that
    /// round's multi, and a new leader relearns the ones left to collect.
    #[test]
    fn admin_results_are_collected_in_the_round_multi() {
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let clock = tropic_model::ManualClock::new();
        let mut controller = gc_controller(&client, &clock, 1);
        // Logical-only workers refuse both repairs, and the refusal is the
        // result the operator reads.
        for admin_id in [1, 2] {
            let scope = Path::root();
            send(&client, InputMsg::Repair { scope, admin_id });
            controller.step().unwrap();
            let attempt = claim(&client);
            let rules = crate::reconcile::RepairRules::new();
            let outcome = execute_record(&attempt, &ExecMode::LogicalOnly, &rules, || None);
            send(
                &client,
                InputMsg::Result {
                    id: attempt.id,
                    outcome,
                },
            );
            controller.step().unwrap();
            clock.advance(GC_GRACE_MS / 2);
        }
        let result: AdminResult = client.get_json(&layout::admin(1)).unwrap().unwrap();
        assert_eq!(
            (result.ok, result.message.as_str()),
            (false, "repair requires physical mode")
        );
        assert_eq!(children(&client, layout::admins()).len(), 2);

        assert_eq!(
            step_cost(&coord, &mut controller),
            (0, 0, 0),
            "no flush to ride"
        );
        submit(&client, 1, None);
        // inputQ removal + record put + phyQ append + the old result's
        // delete + its attempt's record delete.
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 5));
        assert!(!client.exists(&layout::admin(1)).unwrap());
        assert!(
            client.exists(&layout::admin(2)).unwrap(),
            "inside its grace"
        );
        drop(controller);

        // The grace restarts at recovery, as a record's does.
        let mut controller = gc_controller(&client, &clock, 1);
        assert_eq!(controller.admin_gc.len(), 1);
        clock.advance(GC_GRACE_MS);
        submit(&client, 2, None);
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 5));
        assert!(children(&client, layout::admins()).is_empty());
    }

    /// Operator `repair` is the twin's corrective transaction: admitted on
    /// the High lane and started in the round that reads the request,
    /// executed by a worker (played by hand here) instead of the leader,
    /// and answered by whichever leader finalizes it — the episode lives in
    /// the record, so a successor finishes it unaided.
    #[test]
    fn repair_runs_on_a_worker_and_survives_failover() {
        let host = Path::parse("/vmRoot/h1").unwrap();
        let mut frame = Tree::new();
        let vm_root = Node::new("vmRoot");
        frame
            .insert(&Path::parse("/vmRoot").unwrap(), vm_root)
            .unwrap();
        let registry = Arc::new(tropic_devices::DeviceRegistry::new(frame));
        let compute = Arc::new(tropic_devices::ComputeServer::new(
            host.clone(),
            "xen",
            32_768,
            tropic_devices::LatencyModel::zero(),
        ));
        registry.register(compute.clone());
        compute.oob_create_vm("vm1", "img", 512, true);
        let mut service = ServiceDefinition {
            initial_tree: registry.physical_tree(),
            ..ServiceDefinition::default()
        };
        service.repair_rules.register(|diff, _| match diff {
            tropic_model::DiffEntry::AttrChanged { path, attr, .. } if attr == "state" => {
                let vm = Value::from(path.leaf().unwrap_or_default());
                let host = path.parent().unwrap_or_else(Path::root);
                vec![tropic_devices::ActionCall::new(host, "startVM", vec![vm])]
            }
            _ => Vec::new(),
        });
        compute.oob_power_cycle();
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");

        let mut leader = controller_under_test(&client, service.clone());
        let (scope, admin_id) = (host, 1);
        send(&client, InputMsg::Repair { scope, admin_id });
        let before = coord.stats();
        assert!(leader.step().unwrap());
        // inputQ removal + the attempt's record + its phyQ task; no answer
        // yet, and the leader touched no device.
        assert_eq!(coord.stats().batched_ops - before.batched_ops, 3);
        assert!(!client.exists(&layout::admin(1)).unwrap());
        let stopped = Some(tropic_devices::VmPower::Stopped);
        assert_eq!(compute.vm_power("vm1"), stopped);
        drop(leader);

        // The worker plans against the devices and runs the plan.
        let rec = claim(&client);
        assert_eq!(RepairEpisode::of(&rec).map(|(_, e)| e.attempt), Some(1));
        let mode = ExecMode::Physical(registry);
        let outcome = execute_record(&rec, &mode, &service.repair_rules, || None);
        send(
            &client,
            InputMsg::Result {
                id: rec.id,
                outcome,
            },
        );

        let mut successor = controller_under_test(&client, service);
        assert!(successor.step().unwrap());
        let result: AdminResult = client.get_json(&layout::admin(1)).unwrap().unwrap();
        assert!(result.ok, "{}", result.message);
        assert_eq!((result.actions, result.drifted), (1, 1));
        let running = Some(tropic_devices::VmPower::Running);
        assert_eq!(compute.vm_power("vm1"), running);
    }

    /// Operator `reload` is a transaction of the same shape: admitted and
    /// started in the round that reads the request, its scope retrieved by
    /// a worker (played by hand here), and absorbed and answered by
    /// whichever leader finalizes it. No leader here has a device handle.
    #[test]
    fn reload_runs_on_a_worker_and_survives_failover() {
        let host = Path::parse("/vmRoot/h1").unwrap();
        let service = host_service(&host);
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");

        let mut leader = controller_under_test(&client, service.clone());
        send(
            &client,
            InputMsg::Reload {
                scope: host.clone(),
                admin_id: 1,
            },
        );
        let before = coord.stats();
        assert!(leader.step().unwrap());
        // inputQ removal + the Started `__reload` record + its phyQ task;
        // no answer yet.
        assert_eq!(coord.stats().batched_ops - before.batched_ops, 3);
        assert!(!client.exists(&layout::admin(1)).unwrap());
        drop(leader);

        // The devices hold an attribute and a VM the logical layer lacks.
        let rec = claim(&client);
        assert_eq!(
            (rec.proc_name.as_str(), rec.state),
            (RELOAD_PROC, TxnState::Started)
        );
        let mut retrieved = Node::new("vmHost").with_attr("memCapacity", 32_768i64);
        retrieved.insert_child("vm9", Node::new("vm").with_attr("state", "running"));
        let subtree = Some(retrieved.clone());
        let outcome = PhysicalOutcome::Retrieved(subtree);
        send(
            &client,
            InputMsg::Result {
                id: rec.id,
                outcome,
            },
        );

        let mut successor = controller_under_test(&client, service.clone());
        assert!(successor.step().unwrap());
        let result: AdminResult = client.get_json(&layout::admin(1)).unwrap().unwrap();
        assert!(result.ok, "{}", result.message);
        // Two nodes replaced; the host's attribute and the VM drifted.
        assert_eq!((result.actions, result.drifted), (2, 2));
        assert_eq!(successor.tree().get(&host), Some(&retrieved));
        let absorbed = successor.tree().root().clone();
        drop(successor);

        // A third leader's recovery replays `__replaceSubtree`.
        let third = controller_under_test(&client, service);
        assert_eq!(third.tree().root(), &absorbed);
    }

    #[test]
    fn checkpoint_roundtrip() {
        let ckpt = Checkpoint {
            snapshot: Tree::new().to_snapshot().unwrap(),
            watermark_lsn: 17,
        };
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.watermark_lsn, 17);
        assert!(Tree::from_snapshot(&back.snapshot).is_ok());
    }
}
