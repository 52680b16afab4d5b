//! The TROPIC controller: the logical layer's single active brain
//! (paper §2.2, §3.1).
//!
//! Exactly one controller (the election leader) consumes `inputQ`, runs
//! logical execution, feeds `phyQ`, and finalizes transactions from worker
//! results. Every state transition reaches the coordination store *before*
//! the step it enables, so any follower can resume from persistent state
//! alone — the controller's in-memory tree, lock table, and queues are a
//! cache (paper §2.3). Its `records` hold live (`Accepted`/`Started`)
//! transactions only; a finished one is written once more and dropped,
//! leaving `retention` an entry to collect it by.
//!
//! ## The commit path
//!
//! The hot path's writes — transaction records, `inputQ` removals, `phyQ`
//! moves — and the operator plane's — signals, admin results, the
//! inconsistent set — accumulate in a round batch over one scheduling
//! round and flush as a single atomic coordination-store multi. A follower resuming from
//! persistent state therefore sees either the whole round or none of it,
//! and the replicated log pays its (dominant, §6.1) per-write cost once per
//! round instead of once per record.
//!
//! ## Committed state is written through
//!
//! The logical tree reaches the store as granules: one znode per object a
//! finalized transaction logged, holding that object's subtree. `act`
//! W-locks an object before changing it, and locks are held until
//! finalize, so at finalize the subtree holds committed state only; the
//! granule rides the multi that writes the record's final state (FORCE /
//! NO-STEAL, Härder & Reuter 1983). Recovery assembles the granules and
//! replays only the `Started` records on top, so a finalized record is
//! never needed again and is collected by age alone.
//!
//! ## No device reads or calls
//!
//! The leader holds no device handle. Every repair — the twin's and the
//! operator's alike — is a corrective `__twinRepair` transaction whose
//! worker plans against fresh device state and runs the plan; a `reload`
//! is a `__reload` transaction whose worker retrieves the scope. The
//! twin's reported view and those workers' results are the leader's only
//! picture of the devices, so nothing in `step()` waits on one.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

use tropic_coord::{CoordClient, DistributedQueue, Op};
use tropic_model::{Node, Path, SharedClock, Tree, Value};

use tropic_devices::{ActionCall, StateReport};

use crate::actions::{ActionDef, ActionRegistry};
use crate::api::{AbortCode, Priority};
use crate::codec::{
    decode_granule, decode_inconsistent, decode_record_node, decode_twin_report,
    encode_admin_result, encode_alias, encode_granule, encode_inconsistent, encode_record,
    encode_signal, encode_task, read, RecordNode,
};
use crate::config::{ServiceDefinition, TwinConfig};
use crate::error::PlatformError;
use crate::locks::LockManager;
use crate::logical::{rollback_logical, simulate, LogicalOutcome};
use crate::msg::{decode_input, layout, AdminResult, InputMsg, PhyTask, Signal};
use crate::physical::PhysicalOutcome;
use crate::proc::{FnProcedure, ProcRegistry};
use crate::reconcile::distinct_paths;
use crate::retention::Retention;
use crate::stats::{Metrics, TxnSample};
use crate::twin::{
    drift_fingerprint, RepairEpisode, TwinEvent, TwinFeed, TwinPhase, TwinTracker, RELOAD_PROC,
    REPAIR_ATTEMPTS, TWIN_REPAIR_PROC, TWIN_TXN_BASE,
};
use crate::txn::{LogRecord, TxnAlias, TxnId, TxnRecord, TxnState};

/// Lower bound of the controller-owned id space, disjoint from
/// client-assigned ids; the admin gate probes the lock table under it.
pub(crate) const ADMIN_TXN_BASE: TxnId = 1 << 62;

/// Maximum input-queue messages the controller admits per scheduling round,
/// spread across the priority lanes in strict `hi` → `norm` → `batch`
/// order.
pub(crate) const INPUT_BATCH: usize = 64;

/// The whole-tree checkpoint an earlier version stored; nothing writes or
/// reads one now. Kept only because the benchmark still encodes one for
/// its `checkpoint_encode_ms` probe; ROADMAP item 12 retires it.
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
/// puts to the same path coalesce. A live record is encoded once, at the
/// flush, as the round leaves it (a record accepted and started in the same
/// round persists once, already `Started`); within a round the
/// controller's in-memory state is authoritative, and a crash before the
/// flush simply re-runs the round from the pre-round persistent state.
#[derive(Default)]
pub(crate) struct RoundBatch {
    ops: Vec<Op>,
    /// Index into `ops` of the coalescible put for a path.
    puts: HashMap<Path, usize>,
    /// Live records written this round, each with whether it already
    /// exists in the store; the flush encodes them from the controller's
    /// records.
    records: BTreeMap<TxnId, bool>,
}

impl RoundBatch {
    /// Buffers a full-data write. `exists` picks create vs. set for the
    /// first put of a path; later puts in the round overwrite its payload.
    /// A record is created by the round that admits it, so every later put
    /// of it is a set.
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

    /// Notes that live record `id` changed this round. The first note of
    /// a round picks create vs. set, as `put` does.
    fn record(&mut self, id: TxnId, exists: bool) {
        self.records.entry(id).or_insert(exists);
    }

    /// Buffers a record's last write, which leaves the live set: a create
    /// when the round admitted it, a set otherwise.
    fn put_final(&mut self, rec: &TxnRecord) {
        let exists = self.records.remove(&rec.id).unwrap_or(true);
        self.put(layout::txn(rec.id), encode_record(rec), exists);
    }

    /// Buffers a deletion of a path this leader exclusively owns.
    pub(crate) fn delete(&mut self, path: Path) {
        self.puts.remove(&path);
        self.ops.push(Op::Delete {
            path,
            expected_version: None,
        });
    }

    /// Whether the round has nothing to flush yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.records.is_empty()
    }

    /// Buffers an arbitrary op (sequential queue appends).
    fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    fn take(&mut self) -> Vec<Op> {
        self.puts.clear();
        self.records.clear();
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
    /// Live (`Accepted`/`Started`) transactions.
    records: HashMap<TxnId, TxnRecord>,
    /// Transactions in physical execution, with their start time.
    running: HashMap<TxnId, u64>,
    inconsistent: BTreeSet<Path>,
    /// Objects whose granule znode exists. `Path`'s order keeps an
    /// object's descendants contiguous right after it.
    granules: BTreeSet<Path>,
    next_lsn: u64,
    /// What is left of finished transactions until they are collected.
    retention: Retention,
    batch: RoundBatch,
    /// Whether the inconsistent-set znode exists yet.
    inconsistent_exists: bool,
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
            running: HashMap::new(),
            inconsistent: BTreeSet::new(),
            granules: BTreeSet::new(),
            next_lsn: 1,
            retention: Retention::default(),
            batch: RoundBatch::default(),
            inconsistent_exists: false,
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
    // coordination store; running it again changes nothing.
    // ------------------------------------------------------------------

    /// Restores controller state from persistent storage. On the very first
    /// leadership in a fresh deployment, bootstraps the committed tree from
    /// the service's initial tree.
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
        self.client.create_all(&layout::tree())?;
        self.batch.take();

        // 1. The committed tree: every granule, shallow to deep (an
        // ancestor sorts first), or the bootstrap granule at `/`.
        let names = self.client.get_children(&layout::tree())?;
        let objects = names.iter().filter_map(|n| layout::granule_object(n));
        self.granules = objects.collect();
        if self.granules.is_empty() {
            if self.client.exists(&layout::checkpoint())? {
                return Err(PlatformError::IncompatibleStore(layout::checkpoint()));
            }
            self.tree = self.service.initial_tree.clone();
            self.service
                .schemas
                .validate(&self.tree)
                .map_err(|e| PlatformError::Admin(format!("initial tree invalid: {e}")))?;
            self.put_granule(&Path::root());
            self.flush_round()?;
        } else {
            self.tree = Tree::new();
            for object in &self.granules {
                let znode = layout::granule(object);
                let refuse = || PlatformError::IncompatibleStore(znode.clone());
                let data = self.client.get_data(&znode)?.ok_or_else(refuse)?.0;
                match decode_granule(&data).map_err(|_| refuse())? {
                    Some(node) if self.tree.exists(object) => drop(self.tree.replace(object, node)),
                    Some(node) => self.tree.insert(object, node).map_err(|_| refuse())?,
                    // Removed, or never there (a failed create logs it too).
                    None => drop(self.tree.remove(object)),
                }
            }
        }

        // 2. Inconsistency marks: the store's set alone, whatever flags
        // the granules carried.
        if let Some(root) = self.tree.get_mut(&Path::root()) {
            root.clear_inconsistent_subtree();
        }
        self.inconsistent.clear();
        let marks = self.client.get_data(&layout::inconsistent())?;
        self.inconsistent_exists = marks.is_some();
        if let Some((data, _)) = marks {
            let refuse = |_| PlatformError::IncompatibleStore(layout::inconsistent());
            for p in decode_inconsistent(&data).map_err(refuse)? {
                let _ = self.tree.mark_inconsistent(&p, true);
                self.inconsistent.insert(p);
            }
        }

        // 3. Every transaction record and alias the store holds (an alias
        // sits at the aliased id's record path). One that does not decode
        // refuses the store: skipping it would drop its locks and effects.
        let names = self.client.get_children(&layout::txns())?;
        let (mut loaded, mut aliases) = (Vec::new(), Vec::new());
        for name in &names {
            let znode = layout::txns().join(name);
            let Some((data, _)) = self.client.get_data(&znode)? else {
                continue;
            };
            match (decode_record_node(&data), name.parse::<TxnId>()) {
                (Ok(RecordNode::Record(rec)), _) => loaded.push(*rec),
                (Ok(RecordNode::Alias(alias)), Ok(alias_id)) => {
                    aliases.push((alias_id, alias.alias_of));
                }
                _ => return Err(PlatformError::IncompatibleStore(znode)),
            }
        }

        // 4. The granules hold every finalized transaction's effects; only
        // the in-flight ones replay, in lsn order. Effects stay, locks are
        // re-acquired, and the worker's result will arrive later.
        let mut started: Vec<&TxnRecord> = (loaded.iter())
            .filter(|r| r.state == TxnState::Started)
            .collect();
        started.sort_unstable_by_key(|r| r.lsn);
        let now = self.clock.now_ms();
        for rec in started {
            // Twin repair logs carry *physical* corrections only — their
            // device actions were never applied logically (the logical tree
            // already holds desired state), so replaying them would corrupt
            // it.
            let logical = rec.log.iter().filter(|_| rec.proc_name != TWIN_REPAIR_PROC);
            for log_rec in logical {
                let (def, object) = (self.actions.get(&log_rec.action), &log_rec.object);
                let args = &log_rec.args;
                // Replay failures mean the persistent log disagrees with
                // the granules; quarantine the object rather than halt.
                if def.is_some_and(|def| def.apply_logical(&mut self.tree, object, args).is_err()) {
                    let _ = self.tree.mark_inconsistent(object, true);
                    self.inconsistent.insert(object.clone());
                }
            }
            let _ = self.locks.try_acquire(rec.id, &rec.locks);
            self.running.insert(rec.id, now);
        }
        // Lsns stay unique among the records the store holds.
        self.next_lsn = loaded.iter().filter_map(|r| r.lsn).max().unwrap_or(0) + 1;

        // Resume the controller-owned id sequence above every id the store
        // holds, so re-submissions after failover never collide.
        let ids = names.iter().filter_map(|n| n.parse::<TxnId>().ok());
        let owned = ids.filter(|&id| id >= TWIN_TXN_BASE);
        self.twin_next_seq = owned.map(|id| id - TWIN_TXN_BASE + 1).max().unwrap_or(1);
        self.twin_inflight.clear();
        self.twin_epoch_seen = None;
        self.twin_reported.clear();

        // 5. Retention learns every record, alias, signal and operator
        // result; only the live records stay in memory.
        self.retention = Retention::recover(self.client, &loaded, &aliases, now)?;
        let live = loaded.into_iter().filter(|r| !r.state.is_final());
        self.records = live.map(|r| (r.id, r)).collect();

        // 6. Rebuild the todoQ lanes from accepted-but-unscheduled
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
        Ok(())
    }

    // ------------------------------------------------------------------
    // The leader loop body.
    // ------------------------------------------------------------------

    /// Performs one unit of controller work: drains a batch of `inputQ`
    /// messages, schedules from `todoQ`, checks stalled-transaction
    /// timeouts, and collects finished records. Returns `true` if any
    /// message was processed or transaction scheduled (callers idle-wait
    /// when `false`).
    pub fn step(&mut self) -> Result<bool, PlatformError> {
        let processed = self.process_input(INPUT_BATCH)?;
        let scheduled = self.schedule()?;
        let reconciled = self.twin_tick()?;
        self.check_timeouts()?;
        // Never "work": an idle leader still sleeps on its watches.
        self.retention.collect(self.clock.now_ms(), &mut self.batch);
        // The round flush: everything the round decided becomes
        // durable — and visible to workers and clients — atomically, before
        // any step it enables.
        self.flush_round()?;
        Ok(processed > 0 || scheduled > 0 || reconciled > 0)
    }

    /// Flushes the round's buffered writes as one atomic multi. On failure
    /// the in-memory state is ahead of persistence; the caller resigns
    /// leadership and the next leader recovers from the pre-round state, so
    /// the store never exposes a partial round.
    fn flush_round(&mut self) -> Result<(), PlatformError> {
        for (id, exists) in std::mem::take(&mut self.batch.records) {
            if let Some(rec) = self.records.get(&id) {
                self.batch.put(layout::txn(id), encode_record(rec), exists);
            }
        }
        let ops = self.batch.take();
        if !ops.is_empty() {
            self.client.multi(ops)?;
        }
        Ok(())
    }

    /// Blocks until any input lane has an item, the clock reaches the
    /// next round's due time (`next_due_ms`), or `stop()` holds once a
    /// stopper notified the session. Uses one children watch per lane, so an idle
    /// leader with nothing due makes no reads at all. The lane bases exist
    /// from [`Controller::recover`], so the queues bind without probing.
    pub fn wait_for_input(&self, stop: impl Fn() -> bool) {
        let due = self.next_due_ms();
        if due.is_some_and(|d| d <= self.clock.now_ms()) {
            return;
        }
        let lanes =
            Priority::ALL.map(|p| DistributedQueue::bind(self.client, layout::input_lane(p)));
        let _ = DistributedQueue::await_any(&lanes.each_ref(), due, stop);
    }

    /// When a round with no input next has work: the earliest of the next
    /// twin tick, the next TERM or KILL, a deferred lane head's admission
    /// deadline and retention's next collection. `None` when nothing is
    /// time-driven — the twin off, no timeouts set, nothing to collect.
    fn next_due_ms(&self) -> Option<u64> {
        let twin =
            (self.cfg.twin.enabled).then(|| self.twin_last_tick_ms + self.cfg.twin.interval_ms);
        // A TERM is due once: an already-signaled transaction waits for
        // its KILL or its result.
        let timeouts = self.running.iter().flat_map(|(id, &at)| {
            let term = (self.cfg.term_timeout_ms).filter(|_| self.retention.may_signal(*id));
            [self.cfg.kill_timeout_ms, term].map(|ms| ms.map(|ms| at + ms + 1))
        });
        let heads = (self.todo.iter())
            .filter_map(|lane| Some(self.records.get(lane.front()?)?.deadline_ms? + 1));
        (twin.into_iter())
            .chain(timeouts.flatten())
            .chain(heads)
            .chain(self.retention.next_due_ms())
            .min()
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
                self.handle_submit(rec)
            }
            InputMsg::Result { id, outcome } => self.handle_result(id, outcome),
            InputMsg::Signal { id, signal } => self.handle_signal(id, signal),
            InputMsg::Repair { scope, admin_id } => {
                self.start_episode("repair", TWIN_REPAIR_PROC, &scope, admin_id)
            }
            InputMsg::Reload { scope, admin_id } => {
                self.start_episode("reload", RELOAD_PROC, &scope, admin_id)
            }
        }
    }

    /// Step 2 of the paper's Figure 2, extended with the admission gate:
    /// redelivery and key dedup first, then the deadline check, then
    /// acceptance into the priority's `todoQ` lane. The admitting round
    /// creates the record (or the alias) whatever the gate decides.
    fn handle_submit(&mut self, mut rec: TxnRecord) -> Result<(), PlatformError> {
        let id = rec.id;
        if self.retention.knows(id) {
            // Duplicate delivery after a crash between the record's write
            // and the queue removal: already admitted, finished or aliased.
            return Ok(());
        }
        if let Some(original) = self.retention.admit(&rec) {
            // Dedup: a redirect at this id's record path resolves the
            // submitter's handle to the original transaction's outcome.
            self.metrics.record_idempotent_hit();
            let alias = encode_alias(&TxnAlias { alias_of: original });
            self.batch.put(layout::txn(id), alias, false);
            return Ok(());
        }
        rec.state = TxnState::Accepted;
        self.batch.record(id, false);
        let now = self.clock.now_ms();
        if let Some(deadline) = rec.deadline_ms.filter(|&d| now > d) {
            // Expired before admission: abort without ever scheduling.
            self.metrics.record_deadline_reject();
            let error = format!("deadline ({deadline} ms) expired before admission (now {now} ms)");
            let code = Some(AbortCode::DeadlineExpired);
            return self.finalize(rec, TxnState::Aborted, Some(error), code);
        }
        let priority = rec.priority;
        self.records.insert(id, rec);
        self.metrics.record_admission(priority);
        self.todo[priority.index()].push_back(id);
        Ok(())
    }

    /// Step 5 of Figure 2: clean up after physical execution.
    fn handle_result(&mut self, id: TxnId, outcome: PhysicalOutcome) -> Result<(), PlatformError> {
        let Some(mut rec) = self.take_started(id) else {
            // Finished already (e.g. by KILL): drop the stale result.
            return Ok(());
        };
        match outcome {
            PhysicalOutcome::Committed => self.finalize(rec, TxnState::Committed, None, None),
            PhysicalOutcome::Aborted { failed_seq, error } => {
                self.rollback_in_logical(&rec.log);
                // Seq 0: no action failed (TERM, or a worker that refused
                // the transaction), so the error is the whole reason.
                let at =
                    (failed_seq > 0).then(|| format!("physical action #{failed_seq} failed: "));
                let error = at.unwrap_or_default() + &error;
                self.finalize(rec, TxnState::Aborted, Some(error), None)
            }
            PhysicalOutcome::Failed {
                failed_seq,
                error,
                undo_failed_seq,
                undo_error,
                inconsistent_object,
            } => {
                self.rollback_in_logical(&rec.log);
                self.mark_inconsistent(&inconsistent_object);
                let error = format!("action #{failed_seq} failed ({error}); undo #{undo_failed_seq} also failed ({undo_error})");
                self.finalize(rec, TxnState::Failed, Some(error), None)
            }
            PhysicalOutcome::Killed { .. } => {
                // The controller killed this transaction already; if we get
                // here the record is somehow still Started, so abort it the
                // KILL way for safety.
                self.kill_logically(rec, "worker abandoned after KILL")
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
                if let Some((_, mut episode)) = RepairEpisode::of(&rec) {
                    if episode.attempt == 1 {
                        episode.drifted = drifted;
                    }
                    (episode.remaining, episode.unmatched) = (remaining, unmatched);
                    rec.labels = episode.labels();
                }
                self.finalize(rec, TxnState::Committed, None, None)
            }
            PhysicalOutcome::Retrieved(subtree) => match self.absorb_reload(&mut rec, subtree) {
                Ok(()) => self.finalize(rec, TxnState::Committed, None, None),
                Err(refusal) => self.finalize(rec, TxnState::Aborted, Some(refusal), None),
            },
        }
    }

    /// Takes `id`'s record out of the live set if it is `Started`: only
    /// such a transaction takes a worker's result or a signal.
    fn take_started(&mut self, id: TxnId) -> Option<TxnRecord> {
        match self.records.entry(id) {
            Entry::Occupied(e) if e.get().state == TxnState::Started => Some(e.remove()),
            _ => None,
        }
    }

    fn handle_signal(&mut self, id: TxnId, signal: Signal) -> Result<(), PlatformError> {
        let Some(rec) = self.take_started(id) else {
            return Ok(());
        };
        self.send_signal(id, signal);
        match signal {
            Signal::Term => {
                self.records.insert(id, rec);
                Ok(())
            }
            Signal::Kill => self.kill_logically(rec, "killed by operator"),
        }
    }

    /// Puts the transaction's signal znode, for its worker to poll, in the
    /// round batch; retention remembers it, so collection deletes it with
    /// the record. Only the first signal creates it.
    fn send_signal(&mut self, id: TxnId, signal: Signal) {
        let first = self.retention.signal(id);
        self.batch
            .put(layout::signal(id), encode_signal(signal), !first);
    }

    /// The KILL semantics of §4: abort immediately in the logical layer
    /// only; physical state may now diverge, so every object the execution
    /// log touches is marked inconsistent pending `repair`.
    fn kill_logically(&mut self, rec: TxnRecord, reason: &str) -> Result<(), PlatformError> {
        self.rollback_in_logical(&rec.log);
        for log_rec in &rec.log {
            self.mark_inconsistent(&log_rec.object);
        }
        let code = Some(AbortCode::Killed);
        self.finalize(rec, TxnState::Aborted, Some(reason.to_owned()), code)
    }

    fn rollback_in_logical(&mut self, log: &[LogRecord]) {
        let t0 = Instant::now();
        if let Err(e) = rollback_logical(log, &mut self.tree, &self.actions) {
            // A logical undo that cannot apply means the cached tree is
            // unreliable; quarantine the affected subtree.
            if let Some(first) = log.first() {
                self.mark_inconsistent(&first.object);
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
    fn schedule(&mut self) -> Result<usize, PlatformError> {
        (0..self.todo.len())
            .map(|lane| self.schedule_lane(lane))
            .sum()
    }

    /// Simulates each head of `lane` on the record taken out of the live
    /// set, so every outcome ends in one re-insert or one finalize.
    fn schedule_lane(&mut self, lane: usize) -> Result<usize, PlatformError> {
        let mut moved = 0;
        while let Some(&id) = self.todo[lane].front() {
            let Some(mut rec) = self.records.remove(&id) else {
                self.todo[lane].pop_front();
                continue;
            };
            // The admission deadline also gates scheduling: a submission
            // that aged out while queued behind the lane is aborted, not
            // started.
            let now = self.clock.now_ms();
            if let Some(deadline) = rec.deadline_ms.filter(|&d| now > d) {
                self.todo[lane].pop_front();
                self.metrics.record_deadline_reject();
                let error = format!("deadline ({deadline} ms) expired in todoQ (now {now} ms)");
                let code = Some(AbortCode::DeadlineExpired);
                self.finalize(rec, TxnState::Aborted, Some(error), code)?;
                moved += 1;
                continue;
            }
            let Some(proc_) = self.procs.get(&rec.proc_name) else {
                self.todo[lane].pop_front();
                let error = format!("unknown procedure `{}`", rec.proc_name);
                let code = Some(AbortCode::UnknownProcedure);
                self.finalize(rec, TxnState::Aborted, Some(error), code)?;
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
                    self.batch.record(id, true);
                    self.records.insert(id, rec);
                    self.running.insert(id, self.clock.now_ms());
                    let task = encode_task(&PhyTask { id });
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
                    self.metrics.record_violation();
                    self.finalize(rec, TxnState::Aborted, Some(reason), None)?;
                    moved += 1;
                }
            }
        }
        Ok(moved)
    }

    /// Finalizes a live transaction: persist the terminal state — the
    /// record's last write, which it moves into — and, beside it, the
    /// committed subtrees of the objects it logged; then release locks,
    /// record metrics, and leave retention an entry to collect it by.
    /// `abort_code` classifies platform-originated rejections.
    fn finalize(
        &mut self,
        mut rec: TxnRecord,
        state: TxnState,
        error: Option<String>,
        abort_code: Option<AbortCode>,
    ) -> Result<(), PlatformError> {
        let (id, now) = (rec.id, self.clock.now_ms());
        (rec.state, rec.error, rec.abort_code) = (state, error, abort_code);
        rec.finished_ms = Some(now);
        self.retention.finalize(&mut rec, now);
        self.batch.put_final(&rec);
        // A twin repair's log is physical only: the tree never changed.
        let logged = rec.log.iter().filter(|_| rec.proc_name != TWIN_REPAIR_PROC);
        let objects: BTreeSet<&Path> = logged.map(|r| &r.object).collect();
        for object in &objects {
            if !objects.iter().any(|a| a.is_ancestor_of(object)) {
                self.put_granule(object);
            }
        }
        self.locks.release_all(id);
        self.running.remove(&id);
        self.metrics.record_txn(TxnSample {
            id,
            submitted_ms: rec.submitted_ms,
            finished_ms: now,
            state,
            defer_count: rec.defer_count,
        });
        self.episode_step(&rec)
    }

    /// TERM, then KILL, transactions stuck in physical execution (paper §4).
    fn check_timeouts(&mut self) -> Result<(), PlatformError> {
        let now = self.clock.now_ms();
        let running = self.running.iter();
        let stalled: Vec<_> = running
            .map(|(&id, &at)| (id, now.saturating_sub(at)))
            .collect();
        for (id, elapsed) in stalled {
            if self.cfg.kill_timeout_ms.is_some_and(|ms| elapsed > ms) {
                if let Some(rec) = self.take_started(id) {
                    self.send_signal(id, Signal::Kill);
                    self.kill_logically(rec, "killed after stall timeout")?;
                }
            } else if self.cfg.term_timeout_ms.is_some_and(|ms| elapsed > ms)
                && self.retention.may_signal(id)
            {
                // TERM once: the first signal marks it.
                self.send_signal(id, Signal::Term);
            }
        }
        Ok(())
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
            // A transaction no longer live has finished.
            if let Some(tid) = self.twin_inflight.get(&mount) {
                if self.records.contains_key(tid) {
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
                let id =
                    self.admit_internal(TWIN_REPAIR_PROC, &mount, priority, Some(key), labels)?;
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
        let Some((_, epoch)) = self.client.get_data(&layout::twin_epoch())? else {
            return Ok(false);
        };
        if self.twin_epoch_seen == Some(epoch.version) {
            return Ok(!self.twin_reported.is_empty());
        }
        // The reporter creates `reported` before the epoch.
        let names = self.client.get_children(&layout::twin_reported())?;
        let mut reported = HashMap::new();
        for name in names {
            let znode = layout::twin_reported().join(&name);
            if let Some(rep) = read(self.client, &znode, decode_twin_report)? {
                reported.insert(rep.mount.clone(), rep);
            }
        }
        self.twin_reported = reported;
        self.twin_epoch_seen = Some(epoch.version);
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
        key: Option<String>,
        labels: Vec<(String, String)>,
    ) -> Result<TxnId, PlatformError> {
        let id = TWIN_TXN_BASE + self.twin_next_seq;
        self.twin_next_seq += 1;
        let args = vec![Value::from(scope.to_string())];
        let mut rec = TxnRecord::new(id, proc_name, args, self.clock.now_ms());
        (rec.priority, rec.idempotency_key, rec.labels) = (priority, key, labels);
        self.handle_submit(rec)?;
        Ok(id)
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
    fn start_episode(
        &mut self,
        verb: &str,
        proc_name: &str,
        scope: &Path,
        admin_id: u64,
    ) -> Result<(), PlatformError> {
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
            self.answer(&episode, false, message);
            return Ok(());
        }
        if proc_name == TWIN_REPAIR_PROC {
            self.metrics.record_repair();
        }
        self.admit_internal(proc_name, scope, Priority::High, None, episode.labels())?;
        Ok(())
    }

    /// Continues the operator episode a just-finalized record carries, if
    /// any. A repair attempt whose worker left drift in the scope after
    /// planning something admits the next attempt, up to
    /// [`REPAIR_ATTEMPTS`]; otherwise the answer rides this round's multi,
    /// beside the record it reports on. A transaction that did not commit
    /// (refused outside physical mode, TERMed, KILLed) answers its error.
    fn episode_step(&mut self, rec: &TxnRecord) -> Result<(), PlatformError> {
        let Some((scope, mut episode)) = RepairEpisode::of(rec) else {
            return Ok(());
        };
        let committed = rec.state == TxnState::Committed;
        let repair = rec.proc_name == TWIN_REPAIR_PROC;
        if committed && repair {
            episode.actions += rec.log.len() as u64;
            if episode.remaining > 0 && !rec.log.is_empty() && episode.attempt < REPAIR_ATTEMPTS {
                episode.attempt += 1;
                let labels = episode.labels();
                self.admit_internal(TWIN_REPAIR_PROC, &scope, Priority::High, None, labels)?;
                return Ok(());
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
        Ok(())
    }

    /// A reload's finalize: swap the subtree its worker retrieved into the
    /// logical tree, keep it only if every constraint still holds —
    /// `check_all`, since one anchored below the scope (a host's VM memory
    /// under `reload(/)`) counts too — and commit with the swap as the
    /// `__replaceSubtree` log recovery replays in lsn order; otherwise
    /// restore the old subtree and abort. The scope stayed W-locked since
    /// the reload was scheduled, so nothing else changed it meanwhile.
    fn absorb_reload(&mut self, rec: &mut TxnRecord, subtree: Option<Node>) -> Result<(), String> {
        let (scope, mut episode) = RepairEpisode::of(rec).ok_or("not a reload")?;
        let subtree = subtree.ok_or_else(|| format!("no physical state at {scope}"))?;
        // analyze:allow(json-edge): `__replaceSubtree` carries JSON text as an argument
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
        (rec.log, rec.labels) = (vec![LogRecord::irreversible(1, swap)], episode.labels());
        self.metrics.record_reload();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Helpers.
    // ------------------------------------------------------------------

    /// Buffers `object`'s granule: its subtree as the tree holds it now
    /// (`None` once removed), replacing the granules strictly below it.
    fn put_granule(&mut self, object: &Path) {
        let data = encode_granule(self.tree.get(object));
        let after = (Bound::Excluded(object), Bound::Unbounded);
        let below = (self.granules.range(after))
            .take_while(|p| object.is_ancestor_of(p))
            .cloned()
            .collect::<Vec<_>>();
        for p in below {
            self.granules.remove(&p);
            self.batch.delete(layout::granule(&p));
        }
        let exists = !self.granules.insert(object.clone());
        self.batch.put(layout::granule(object), data, exists);
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
        let data = encode_admin_result(&result);
        self.batch.put(layout::admin(episode.admin_id), data, false);
        self.retention
            .answered(episode.admin_id, self.clock.now_ms());
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
        let data = encode_inconsistent(self.inconsistent.iter());
        let exists = self.inconsistent_exists;
        self.batch.put(layout::inconsistent(), data, exists);
        self.inconsistent_exists = true;
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
            // analyze:allow(json-edge): `__replaceSubtree` carries JSON text as an argument
            let node: tropic_model::Node = serde_json::from_str(json).map_err(|e| e.to_string())?;
            tree.replace(object, node).map_err(|e| e.to_string())?;
            Ok(())
        },
        |_, _, _| None,
    ));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codec::{decode_admin_result, decode_task, read_record};
    use crate::msg::encode_input;
    use crate::physical::{execute_record, ExecMode};
    use std::time::Duration;

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
        controller_on(client, service, tropic_model::real_clock())
    }

    fn controller_on(
        client: &CoordClient,
        service: ServiceDefinition,
        clock: SharedClock,
    ) -> Controller<'_> {
        let mut controller = unrecovered(client, service, clock);
        controller.recover().unwrap();
        controller
    }

    /// A controller that has not yet run [`Controller::recover`].
    fn unrecovered(
        client: &CoordClient,
        service: ServiceDefinition,
        clock: SharedClock,
    ) -> Controller<'_> {
        let cfg = ControllerConfig {
            name: "c0".into(),
            term_timeout_ms: None,
            kill_timeout_ms: None,
            twin: TwinConfig::default(),
            twin_feed: TwinFeed::new(),
        };
        Controller::new(cfg, client, Arc::new(service), clock, Metrics::new())
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
    pub(crate) fn claim(client: &CoordClient) -> TxnRecord {
        let phy_q = DistributedQueue::bind(client, layout::phy_q());
        let (_, task) = phy_q.try_dequeue_batch(1).unwrap().remove(0);
        let id = decode_task(&task).unwrap().id;
        read_record(client, id).unwrap().unwrap()
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
    /// the multi that carries its committed `__reload` record, the scope's
    /// granule and its worker result's `inputQ` removal, so an operator can
    /// never read `ok` ahead of the effects it reports.
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
        // inputQ removal + the committed `__reload` record + the scope's
        // granule + admin result.
        assert_eq!(after.batched_ops - before.batched_ops, 4);
        let result = read(&client, &layout::admin(1), decode_admin_result);
        let result = result.unwrap().unwrap();
        assert!(result.ok, "{}", result.message);
        assert!(lane.is_empty().unwrap());
    }

    // ------------------------------------------------------------------
    // Shared with the retention tests, which play client and worker by
    // hand: submissions go to the normal lane, results and signals to the
    // high lane (drained first), and a manual clock walks records past the
    // grace period.
    // ------------------------------------------------------------------

    impl Controller<'_> {
        pub(crate) fn retention(&self) -> &Retention {
            &self.retention
        }
    }

    pub(crate) fn noop_service() -> ServiceDefinition {
        let mut service = ServiceDefinition::default();
        service
            .procs
            .register(Arc::new(FnProcedure::new("noop", |_| Ok(()))));
        service
    }

    /// A controller over `noop` on a manual clock.
    pub(crate) fn gc_controller<'a>(
        client: &'a CoordClient,
        clock: &Arc<tropic_model::ManualClock>,
    ) -> Controller<'a> {
        controller_on(client, noop_service(), clock.clone())
    }

    pub(crate) fn submit(client: &CoordClient, id: TxnId, key: Option<&str>) {
        let mut request = crate::api::TxnRequest::new("noop");
        if let Some(key) = key {
            request = request.idempotency_key(key);
        }
        let (msg, _) = request.into_msg(id, 0).unwrap();
        DistributedQueue::bind(client, layout::input_lane(Priority::Normal))
            .enqueue(encode_input(msg))
            .unwrap();
    }

    pub(crate) fn send(client: &CoordClient, msg: InputMsg) {
        DistributedQueue::bind(client, layout::input_lane(Priority::High))
            .enqueue(encode_input(msg))
            .unwrap();
    }

    pub(crate) fn commit(client: &CoordClient, id: TxnId) {
        let outcome = PhysicalOutcome::Committed;
        send(client, InputMsg::Result { id, outcome });
    }

    pub(crate) fn children(client: &CoordClient, base: Path) -> Vec<String> {
        client.get_children(&base).unwrap_or_default()
    }

    /// Steps once and returns the (multis, single writes, batched ops) the
    /// step cost.
    pub(crate) fn step_cost(
        coord: &tropic_coord::CoordService,
        controller: &mut Controller<'_>,
    ) -> (u64, u64, u64) {
        let before = coord.stats();
        controller.step().unwrap();
        let after = coord.stats();
        let multis = after.multis - before.multis;
        (
            multis,
            after.writes - before.writes - multis,
            after.batched_ops - before.batched_ops,
        )
    }

    /// The read budget of one transaction (ROADMAP 3(a)), pinned phase by
    /// phase with the worker played by hand. A probe that reads a record
    /// twice, a queue bound with `new` on a hot path or a fourth lane
    /// listing shows up here as a changed count.
    #[test]
    fn submit_commit_wait_costs_a_pinned_number_of_reads() {
        let coord = Arc::new(tropic_coord::CoordService::start(
            tropic_coord::CoordConfig::default(),
        ));
        let client = coord.connect("controller-under-test");
        let mut controller = controller_under_test(&client, noop_service());
        let user = coord.connect("client");
        let reader = crate::TropicClient::local(
            crate::platform::PlatformShared {
                coord: Arc::clone(&coord),
                clock: tropic_model::real_clock(),
                metrics: Metrics::new(),
                next_txn_id: Arc::default(),
                next_admin_id: Arc::default(),
                twin_feed: Default::default(),
            },
            "reader",
        );
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
        let handle = reader.handle(1);
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

    /// A finished transaction is no longer live, and until its record is
    /// collected every message naming it is a no-op: a redelivered
    /// `Submit`, a `Signal` and a stale worker `Result` each cost only
    /// their own `inputQ` removal and leave the record and signal znodes
    /// alone. Once the record is collected the dedup window has closed, and
    /// the same `Submit` runs again.
    #[test]
    fn a_finished_id_is_answered_from_retention_until_collected() {
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let clock = tropic_model::ManualClock::new();
        let mut controller = gc_controller(&client, &clock);
        submit(&client, 1, None);
        controller.step().unwrap();
        commit(&client, 1);
        controller.step().unwrap();
        assert!(
            !controller.records.contains_key(&1),
            "finished, so not live"
        );
        let record = client.get_data(&layout::txn(1)).unwrap();

        submit(&client, 1, None);
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 1), "Submit");
        let signal = Signal::Kill;
        send(&client, InputMsg::Signal { id: 1, signal });
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 1), "Signal");
        let outcome = PhysicalOutcome::Aborted {
            failed_seq: 1,
            error: "late".into(),
        };
        send(&client, InputMsg::Result { id: 1, outcome });
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 1), "Result");
        assert_eq!(client.get_data(&layout::txn(1)).unwrap(), record);
        assert!(!client.exists(&layout::signal(1)).unwrap());
        assert_eq!(controller.running_len(), 0);

        clock.advance(2 * crate::retention::GC_GRACE_MS);
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 1), "collected");
        assert!(!client.exists(&layout::txn(1)).unwrap());
        submit(&client, 1, None);
        assert!(controller.step().unwrap());
        assert_eq!(controller.records[&1].state, TxnState::Started);
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
        let result = read(&client, &layout::admin(1), decode_admin_result);
        let result = result.unwrap().unwrap();
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
        let result = read(&client, &layout::admin(1), decode_admin_result);
        let result = result.unwrap().unwrap();
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

    /// [`host_service`] plus a child `c` under the host, both with `v = 0`,
    /// and `set [object, v]`: one logged, undoable action setting `v`.
    fn set_service(host: &Path) -> ServiceDefinition {
        let mut service = host_service(host);
        let tree = &mut service.initial_tree;
        tree.insert(&host.join("c"), Node::new("vm")).unwrap();
        for object in [host.clone(), host.join("c")] {
            tree.set_attr(&object, "v", 0i64).unwrap();
        }
        service.actions.register(ActionDef::new(
            "set",
            |tree, object, args| {
                let v = args.first().cloned().ok_or("missing value")?;
                tree.set_attr(object, "v", v).map_err(|e| e.to_string())?;
                Ok(())
            },
            |tree, object, _| {
                Some(crate::actions::UndoSpec {
                    object: object.clone(),
                    action: "set".into(),
                    args: vec![tree.attr(object, "v")?.clone()],
                })
            },
        ));
        service
            .procs
            .register(Arc::new(FnProcedure::new("set", |ctx| {
                let object = Path::parse(&ctx.arg_str(0)?)?;
                let v = Value::from(ctx.arg_int(1)?);
                ctx.act(&object, "set", vec![v])
            })));
        service
    }

    fn submit_set(client: &CoordClient, id: TxnId, object: &Path, v: i64) {
        let request = crate::api::TxnRequest::new("set")
            .arg(object.to_string())
            .arg(v);
        let (msg, _) = request.into_msg(id, 0).unwrap();
        DistributedQueue::bind(client, layout::input_lane(Priority::Normal))
            .enqueue(encode_input(msg))
            .unwrap();
    }

    fn granules(client: &CoordClient) -> Vec<Path> {
        let names = children(client, layout::tree());
        names
            .iter()
            .filter_map(|n| layout::granule_object(n))
            .collect()
    }

    /// The subtree `object`'s granule holds.
    fn granule(client: &CoordClient, object: &Path) -> Option<Node> {
        let (data, _) = client.get_data(&layout::granule(object)).unwrap().unwrap();
        decode_granule(&data).unwrap()
    }

    /// Each finalize writes its object's subtree beside the record; a
    /// granule replaces the ones below it, and a successor assembles the
    /// tree from granules alone — every record collected.
    #[test]
    fn committed_subtrees_are_written_through_and_reassembled() {
        let host = Path::parse("/vmRoot/h1").unwrap();
        let child = host.join("c");
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let clock = tropic_model::ManualClock::new();
        let mut leader = controller_on(&client, set_service(&host), clock.clone());
        assert_eq!(granules(&client), [Path::root()], "bootstrap");

        submit_set(&client, 1, &child, 7);
        leader.step().unwrap();
        commit(&client, 1);
        // inputQ removal + the committed record + the child's granule.
        assert_eq!(step_cost(&coord, &mut leader), (1, 0, 3));
        assert_eq!(granules(&client), [Path::root(), child.clone()]);
        assert_eq!(granule(&client, &child).as_ref(), leader.tree().get(&child));

        submit_set(&client, 2, &host, 9);
        leader.step().unwrap();
        commit(&client, 2);
        // ... + the host's granule + the child's granule, deleted.
        assert_eq!(step_cost(&coord, &mut leader), (1, 0, 4));
        assert_eq!(granules(&client), [Path::root(), host.clone()]);

        clock.advance(3 * crate::retention::GC_GRACE_MS);
        leader.step().unwrap();
        assert!(children(&client, layout::txns()).is_empty(), "collected");
        let committed = leader.tree().clone();
        drop(leader);
        let successor = controller_on(&client, set_service(&host), clock.clone());
        assert_eq!(successor.tree(), &committed);
        assert_eq!(successor.tree().attr(&child, "v"), Some(&Value::from(7i64)));
    }

    /// A KILL's aborted granule carries the mark it set. A repair that
    /// clears the mark writes no granule (its log is physical), so
    /// recovery must take the marks from the store's set alone, not from
    /// the granules — or every transaction on the repaired node would be
    /// refused with no drift left for anything to repair.
    #[test]
    fn recovery_does_not_resurrect_a_repaired_mark() {
        let host = Path::parse("/vmRoot/h1").unwrap();
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let mut leader = controller_under_test(&client, set_service(&host));
        submit_set(&client, 1, &host, 1);
        leader.step().unwrap();
        claim(&client);
        let signal = Signal::Kill;
        send(&client, InputMsg::Signal { id: 1, signal });
        leader.step().unwrap();
        assert!(leader.tree().is_inconsistent(&host));
        let killed = granule(&client, &host).unwrap();
        assert!(killed.is_inconsistent(), "the KILL's granule");

        let (scope, admin_id) = (host.clone(), 1);
        send(&client, InputMsg::Repair { scope, admin_id });
        leader.step().unwrap();
        let id = claim(&client).id;
        let outcome = PhysicalOutcome::Reconciled {
            calls: Vec::new(),
            drifted: 0,
            remaining: 0,
            unmatched: 0,
        };
        send(&client, InputMsg::Result { id, outcome });
        leader.step().unwrap();
        let result = read(&client, &layout::admin(1), decode_admin_result);
        let result = result.unwrap().unwrap();
        assert!(result.ok, "{}", result.message);
        assert!(!leader.tree().is_inconsistent(&host));
        drop(leader);

        let mut successor = controller_under_test(&client, set_service(&host));
        assert!(!successor.tree().is_inconsistent(&host));
        submit_set(&client, 2, &host, 2);
        successor.step().unwrap();
        commit(&client, 2);
        successor.step().unwrap();
        let rec = read_record(&client, 2).unwrap().unwrap();
        assert_eq!(rec.state, TxnState::Committed, "{:?}", rec.error);
        assert_eq!(successor.tree().attr(&host, "v"), Some(&Value::from(2i64)));
    }

    /// A store an earlier version wrote holds its tree in one checkpoint
    /// znode and no granules. Bootstrapping over it would silently drop
    /// every committed effect, so recovery refuses it, naming the znode.
    #[test]
    fn a_store_holding_a_whole_tree_checkpoint_is_refused() {
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let ckpt = Checkpoint {
            snapshot: Tree::new().to_snapshot().unwrap(),
            watermark_lsn: 3,
        };
        let ckpt = serde_json::to_vec(&ckpt).unwrap();
        let persistent = tropic_coord::CreateMode::Persistent;
        client.create_all(&layout::root()).unwrap();
        client
            .create(&layout::checkpoint(), ckpt, persistent)
            .unwrap();
        let mut controller = unrecovered(&client, noop_service(), tropic_model::real_clock());
        let err = controller.recover().unwrap_err();
        assert_eq!(err, PlatformError::IncompatibleStore(layout::checkpoint()));
        assert!(err.to_string().contains("/tropic/checkpoint"), "{err}");
        assert!(granules(&client).is_empty(), "nothing bootstrapped");
    }

    /// A record znode that does not decode refuses recovery, naming it.
    /// Skipping it would leave a `Started` transaction's locks free and
    /// drop its worker's result as unknown.
    #[test]
    fn an_undecodable_record_refuses_recovery() {
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let mut leader = controller_under_test(&client, noop_service());
        submit(&client, 1, None);
        leader.step().unwrap();
        drop(leader);
        let mut started = read_record(&client, 1).unwrap().expect("record 1");
        assert_eq!(started.state, TxnState::Started);
        // The same record, one byte past its end: nothing decodes it.
        started.id = 2;
        let mut bytes = encode_record(&started);
        bytes.push(0);
        let persistent = tropic_coord::CreateMode::Persistent;
        client.create(&layout::txn(2), bytes, persistent).unwrap();
        let mut successor = unrecovered(&client, noop_service(), tropic_model::real_clock());
        let err = successor.recover().unwrap_err();
        assert_eq!(err, PlatformError::IncompatibleStore(layout::txn(2)));
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
