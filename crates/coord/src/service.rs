//! The coordination service façade: sessions, watches, and client handles.
//!
//! [`CoordService`] wraps an [`Ensemble`] with the ZooKeeper-style session
//! machinery TROPIC depends on (paper §2.3): when a session ends, its
//! ephemeral znodes are purged — which is exactly what lets the surviving
//! controllers detect a failed leader.
//!
//! A session is state, not a thread: one row in one table, and an absent
//! row *is* an expired session. Every operation stamps the row; a row
//! silent for `session_timeout_ms` is ended by the expiry thread (the only
//! thread this module spawns), unless a [`KeepAlive`] guard pins it — a
//! pin replaces the heartbeat a ZooKeeper client's IO thread would send.
//! [`CoordClient::close`], timeout expiry and
//! [`CoordService::expire_session`] share one exit: the row is removed, the
//! session's watch registrations go with it, and an [`Op::PurgeSession`] is
//! replicated only if the row says the session may own an ephemeral.
//! Ending a session that owns nothing costs no quorum write.
//! `CoordClient` deliberately has no `Drop`: a crashed component *is* a
//! dropped client, and its ephemerals must linger for the session timeout.
//!
//! Writes from every session commit in groups, as ZooKeeper's leader
//! flushes its log: a write that arrives while a group is committing
//! queues, and everything queued is committed together as the next group
//! ([`Ensemble::submit_group`]) — each op with its own zxid and result,
//! all of them sharing one fsync round.
//!
//! Watches are one-shot notifications, as in ZooKeeper, and registering
//! one is a set insert: a session re-arming a watch that has not fired yet
//! still holds exactly one registration per `(path, kind)`, so one store
//! event buys one wake-up however often an idle loop re-arms.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use tropic_model::{real_clock, Path, SharedClock};

use crate::ensemble::{Ensemble, EnsembleStats};
use crate::error::{CoordError, CoordResult};
use crate::store::{Op, OpResult, Stat, StoreEvent};
use crate::wal::DurabilityOptions;

/// Configuration of a coordination service instance.
#[derive(Clone, Debug)]
pub struct CoordConfig {
    /// Number of ensemble replicas (the paper deploys 3).
    pub replicas: usize,
    /// Session timeout: a client silent for this long is declared dead and
    /// its ephemeral znodes are purged. This dominates controller failover
    /// time (paper §6.4).
    pub session_timeout_ms: u64,
    /// Expiry-check period.
    pub tick_ms: u64,
    /// Simulated I/O latency added to every commit group while the ensemble
    /// lock is held. Models the ZooKeeper logging cost the paper identifies
    /// as the dominant overhead (§6.1); groups serialize behind it, bounding
    /// global group throughput at roughly `1 / write_latency`. A lone writer
    /// pays it on every write; concurrent writers that queue behind a group
    /// share the next one's.
    pub write_latency: Duration,
    /// On-disk durability root. `None` keeps the ensemble in memory; with a
    /// directory, every replica write-ahead-logs and snapshots under
    /// `<data_dir>/replica-<id>`, and [`CoordService::recover`] can rebuild
    /// the whole store after a total shutdown. [`CoordService::start`]
    /// *formats* the directory.
    pub data_dir: Option<PathBuf>,
    /// Per-replica durability tuning (snapshot triggers, segment size);
    /// only meaningful with a `data_dir`. There is no fsync setting: each
    /// replica fsyncs every commit group before it acks. Disabling both
    /// snapshot triggers keeps every record on disk — full-log mode, for
    /// benchmarks.
    pub durability: DurabilityOptions,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig {
            replicas: 3,
            session_timeout_ms: 2_000,
            tick_ms: 50,
            write_latency: Duration::ZERO,
            data_dir: None,
            durability: DurabilityOptions::default(),
        }
    }
}

/// Kinds of one-shot watches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WatchKind {
    /// Fires on creation, deletion, or data change of the node itself.
    Node,
    /// Fires when the node's set of children changes.
    Children,
}

/// A fired watch delivered to a client's event channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WatchEvent {
    /// The store event that fired the watch.
    pub event: StoreEvent,
}

/// One live session. Ended sessions have no row.
struct Session {
    /// Where the session's fired watches are delivered.
    events: Sender<WatchEvent>,
    last_seen_ms: u64,
    /// Live [`KeepAlive`] guards; a pinned session never times out.
    pins: u32,
    /// An ephemeral create has named this session as owner, so its end
    /// must replicate a purge.
    owns_ephemerals: bool,
}

/// The sessions `op` would make ephemeral owners.
fn ephemeral_owners(op: &Op) -> Vec<u64> {
    match op {
        Op::Create {
            ephemeral_owner, ..
        } => ephemeral_owner.iter().copied().collect(),
        Op::Multi { ops } => ops.iter().flat_map(ephemeral_owners).collect(),
        _ => Vec::new(),
    }
}

/// Armed one-shot watches: `(path, kind)` → the sessions to notify, each
/// at most once.
#[derive(Default)]
struct WatchTable {
    node: HashMap<Path, Vec<u64>>,
    children: HashMap<Path, Vec<u64>>,
}

impl WatchTable {
    fn register(&mut self, path: &Path, kind: WatchKind, session: u64) {
        let map = match kind {
            WatchKind::Node => &mut self.node,
            WatchKind::Children => &mut self.children,
        };
        let sessions = map.entry(path.clone()).or_default();
        if !sessions.contains(&session) {
            sessions.push(session);
        }
    }

    /// Drops every registration of a session that can no longer be woken.
    fn purge(&mut self, session: u64) {
        let drop_session = |_: &Path, sessions: &mut Vec<u64>| {
            sessions.retain(|s| *s != session);
            !sessions.is_empty()
        };
        self.node.retain(drop_session);
        self.children.retain(drop_session);
    }

    fn len(&self) -> usize {
        let all = self.node.values().chain(self.children.values());
        all.map(Vec::len).sum()
    }
}

/// Operation counters for the experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Write operations submitted (a multi batch counts once).
    pub writes: u64,
    /// Read operations served.
    pub reads: u64,
    /// Watch events delivered.
    pub watch_events: u64,
    /// Sessions expired.
    pub expired_sessions: u64,
    /// Atomic multi batches submitted.
    pub multis: u64,
    /// Sub-operations carried inside multi batches.
    pub batched_ops: u64,
    /// Orphaned ephemeral-owner sessions purged during
    /// [`CoordService::recover`] (their clients did not survive the
    /// restart, so nothing else would ever expire them).
    pub recovery_purged_sessions: u64,
    /// Watch registrations armed right now (a gauge, not a counter).
    pub watch_registrations: u64,
    /// Sessions live right now (a gauge, not a counter).
    pub sessions: u64,
}

/// One op's outcome on the ensemble leader: its result and the store
/// events it produced.
type Applied = (CoordResult<OpResult>, Vec<StoreEvent>);

/// A write waiting for the group that commits it.
struct QueuedWrite {
    ticket: u64,
    op: Op,
    reply: Sender<Reply>,
}

/// What a queued writer is told.
enum Reply {
    /// Its op was committed (or failed) in another writer's group.
    Done(Applied),
    /// A turn ended with this write queued first: its writer may take the
    /// next one, unless a newer writer took it first.
    Lead,
}

/// The group-commit queue: writes wait here while a group is committing,
/// and the next group is everything queued when the committer takes it.
#[derive(Default)]
struct WriteQueue {
    queued: Vec<QueuedWrite>,
    /// A writer holds the committer's turn.
    committing: bool,
    next_ticket: u64,
}

impl WriteQueue {
    /// Takes the committer's turn for the queued write `ticket` when the
    /// turn is free and that write is still queued, and returns its op: a
    /// writer only ever commits a group its own op is in.
    fn take_turn(&mut self, ticket: u64) -> Option<Op> {
        if self.committing {
            return None;
        }
        let at = self.queued.iter().position(|w| w.ticket == ticket)?;
        self.committing = true;
        Some(self.queued.remove(at).op)
    }
}

/// The committer's turn. Dropping it — on return or on unwind alike —
/// frees the turn and wakes the oldest queued write's writer to take it,
/// so a queue never waits without a committer; a writer that arrives first
/// takes it instead.
struct Turn<'a>(&'a ServiceInner);

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        let mut writes = self.0.writes.lock();
        writes.committing = false;
        if let Some(next) = writes.queued.first() {
            let _ = next.reply.send(Reply::Lead);
        }
    }
}

pub(crate) struct ServiceInner {
    ensemble: Mutex<Ensemble>,
    writes: Mutex<WriteQueue>,
    sessions: Mutex<HashMap<u64, Session>>,
    watches: Mutex<WatchTable>,
    clock: SharedClock,
    config: CoordConfig,
    next_session: AtomicU64,
    shutdown: AtomicBool,
    stats: Mutex<ServiceStats>,
}

impl ServiceInner {
    // Lock order: `watches` may be held while taking `sessions`, never
    // the reverse; neither is held across an ensemble submit. `writes` may
    // be taken under `ensemble`, never the reverse.
    fn dispatch_events(&self, events: &[StoreEvent]) {
        if events.is_empty() {
            return;
        }
        let mut watches = self.watches.lock();
        let sessions = self.sessions.lock();
        let mut fired = 0u64;
        for event in events {
            let targets: Vec<u64> = match event {
                StoreEvent::Created(p) | StoreEvent::Deleted(p) | StoreEvent::DataChanged(p) => {
                    watches.node.remove(p).unwrap_or_default()
                }
                StoreEvent::ChildrenChanged(p) => watches.children.remove(p).unwrap_or_default(),
            };
            for target in targets {
                if let Some(session) = sessions.get(&target) {
                    let _ = session.events.send(WatchEvent {
                        event: event.clone(),
                    });
                    fired += 1;
                }
            }
        }
        drop(sessions);
        drop(watches);
        self.stats.lock().watch_events += fired;
    }

    /// Stamps the session's row, or reports that it has none.
    fn check_session(&self, session: u64) -> CoordResult<()> {
        match self.sessions.lock().get_mut(&session) {
            Some(row) => {
                row.last_seen_ms = self.clock.now_ms();
                Ok(())
            }
            None => Err(CoordError::SessionExpired),
        }
    }

    fn submit(&self, session: u64, op: Op) -> CoordResult<OpResult> {
        self.check_session(session)?;
        // Every write — single creates and multi sub-ops alike — passes
        // here, so this is the one place a session can become an owner.
        for owner in ephemeral_owners(&op) {
            if let Some(row) = self.sessions.lock().get_mut(&owner) {
                row.owns_ephemerals = true;
            }
        }
        {
            let mut stats = self.stats.lock();
            stats.writes += 1;
            if let Op::Multi { ops } = &op {
                stats.multis += 1;
                stats.batched_ops += ops.len() as u64;
            }
        }
        let (result, events) = self.write(op);
        self.dispatch_events(&events);
        result
    }

    /// The one path every write takes to the ensemble (group commit). A
    /// writer that finds no group committing commits its op at once, as a
    /// group of one; writes that queue while a group commits are committed
    /// together as the next group, by one of their writers. A writer whose
    /// op another writer committed returns as soon as its result is
    /// published: it never waits on the ensemble lock for a group it is
    /// not in. There is no timer and no size limit — a group is whatever
    /// queued behind the previous one.
    fn write(&self, op: Op) -> Applied {
        let (ticket, replies) = {
            let mut writes = self.writes.lock();
            if !writes.committing {
                writes.committing = true;
                drop(writes);
                return self.commit_group(op);
            }
            let (reply, replies) = unbounded();
            let ticket = writes.next_ticket;
            writes.next_ticket += 1;
            writes.queued.push(QueuedWrite { ticket, op, reply });
            (ticket, replies)
        };
        loop {
            match replies.recv() {
                Ok(Reply::Done(applied)) => return applied,
                Ok(Reply::Lead) => {
                    let turn = self.writes.lock().take_turn(ticket);
                    if let Some(op) = turn {
                        return self.commit_group(op);
                    }
                }
                // The committer holding this write unwound without
                // publishing its result.
                Err(_) => return (Err(CoordError::Unavailable), Vec::new()),
            }
        }
    }

    /// Holds the committer's turn: commits `own` and everything queued as
    /// one group, publishes every queued write's result to its writer, and
    /// returns `own`'s.
    fn commit_group(&self, own: Op) -> Applied {
        let _turn = Turn(self);
        let mut ensemble = self.ensemble.lock();
        let queued = std::mem::take(&mut self.writes.lock().queued);
        let (mut ops, mut replies) = (vec![own], Vec::with_capacity(queued.len()));
        for w in queued {
            ops.push(w.op);
            replies.push(w.reply);
        }
        // The latency sleep sits inside the ensemble lock on purpose:
        // ZooKeeper serializes writes through its leader's log, so the
        // simulated I/O cost must bound *global* write throughput. It is
        // paid once per group, as the log write it models is.
        if !self.config.write_latency.is_zero() {
            // analyze:allow(blocking-under-lock): models the leader's serialized log I/O; see comment above
            self.clock.sleep(self.config.write_latency);
        }
        let mut results = ensemble.submit_group(&ops).into_iter();
        drop(ensemble);
        let mine = results.next();
        for (reply, applied) in replies.iter().zip(results) {
            let _ = reply.send(Reply::Done(applied));
        }
        mine.unwrap_or((Err(CoordError::Unavailable), Vec::new()))
    }

    /// The one way a session ends: `close()`, timeout expiry and
    /// [`CoordService::expire_session`] all land here. A no-op for a
    /// session that has already ended.
    fn end_session(&self, session: u64) {
        let Some(row) = self.sessions.lock().remove(&session) else {
            return;
        };
        self.watches.lock().purge(session);
        self.stats.lock().expired_sessions += 1;
        if !row.owns_ephemerals {
            return;
        }
        let (result, events) = self.write(Op::PurgeSession { session });
        // Purge is best-effort when the ensemble lacks quorum; the paths
        // remain until quorum returns (the next successful write or restart
        // re-runs no purge, matching ZooKeeper, where the purge is part of
        // the leader log and simply waits for quorum).
        if result.is_ok() {
            self.dispatch_events(&events);
        }
    }
}

/// A highly-available coordination service backed by a replica ensemble.
///
/// Dropping the service stops its expiry thread.
pub struct CoordService {
    inner: Arc<ServiceInner>,
    expiry_thread: Option<JoinHandle<()>>,
}

impl CoordService {
    /// Starts a service with the given configuration on the real clock.
    /// With [`CoordConfig::data_dir`] set, this **formats** the directory
    /// for a fresh deployment; use [`CoordService::recover`] to resume.
    pub fn start(config: CoordConfig) -> Self {
        Self::start_with_clock(config, real_clock())
    }

    /// Recovers a durable service from [`CoordConfig::data_dir`] on the
    /// real clock: every replica reloads its latest snapshot plus its
    /// write-ahead-log suffix, and ephemeral znodes whose owning sessions
    /// did not survive the restart are purged.
    pub fn recover(config: CoordConfig) -> Self {
        Self::recover_with_clock(config, real_clock())
    }

    /// Starts a service reading time from `clock` (tests use a manual clock).
    pub fn start_with_clock(config: CoordConfig, clock: SharedClock) -> Self {
        Self::boot_with_clock(config, clock, false)
    }

    /// [`CoordService::recover`] with an explicit clock.
    pub fn recover_with_clock(config: CoordConfig, clock: SharedClock) -> Self {
        Self::boot_with_clock(config, clock, true)
    }

    fn build_ensemble(config: &CoordConfig, recover: bool) -> Ensemble {
        match &config.data_dir {
            None => Ensemble::new(config.replicas),
            Some(dir) => {
                let opts = config.durability.clone();
                if recover {
                    Ensemble::recover(config.replicas, dir, opts)
                        .expect("recover coordination state from data_dir")
                } else {
                    Ensemble::with_durability(config.replicas, dir, opts)
                        .expect("initialize durable coordination state in data_dir")
                }
            }
        }
    }

    fn boot_with_clock(config: CoordConfig, clock: SharedClock, recover: bool) -> Self {
        let ensemble = Self::build_ensemble(&config, recover);
        let inner = Arc::new(ServiceInner {
            ensemble: Mutex::new(ensemble),
            writes: Mutex::new(WriteQueue::default()),
            sessions: Mutex::new(HashMap::new()),
            watches: Mutex::new(WatchTable::default()),
            clock,
            config,
            next_session: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            stats: Mutex::new(ServiceStats::default()),
        });
        if recover {
            // Sessions do not survive a restart, but their ephemeral znodes
            // (election candidacies, worker claims) do — and with the owning
            // clients gone, no heartbeat would ever stop and expire them.
            // Purge them now so the recovered platform elects cleanly. The
            // purges replicate (and WAL) like any other write.
            let orphans = (inner.ensemble.lock())
                .read(|s| s.ephemeral_sessions())
                .unwrap_or_default();
            if !orphans.is_empty() {
                let count = orphans.len() as u64;
                let ops = orphans
                    .into_iter()
                    .map(|session| Op::PurgeSession { session })
                    .collect();
                // One atomic batch: one broadcast, one WAL record, one
                // fsync — and no half-purged state if this boot crashes.
                if inner.write(Op::Multi { ops }).0.is_ok() {
                    inner.stats.lock().recovery_purged_sessions = count;
                }
            }
        }
        let expiry_inner = Arc::clone(&inner);
        let expiry_thread = std::thread::Builder::new()
            .name("coord-expiry".into())
            .spawn(move || {
                while !expiry_inner.shutdown.load(Ordering::SeqCst) {
                    expiry_inner.clock.sleep_interruptible(
                        Duration::from_millis(expiry_inner.config.tick_ms),
                        &expiry_inner.shutdown,
                    );
                    let now = expiry_inner.clock.now_ms();
                    let timeout = expiry_inner.config.session_timeout_ms;
                    let stale: Vec<u64> = {
                        let sessions = expiry_inner.sessions.lock();
                        sessions
                            .iter()
                            .filter(|(_, s)| {
                                s.pins == 0 && now.saturating_sub(s.last_seen_ms) > timeout
                            })
                            .map(|(id, _)| *id)
                            .collect()
                    };
                    for session in stale {
                        expiry_inner.end_session(session);
                    }
                }
            })
            .expect("spawn coord expiry thread");
        CoordService {
            inner,
            expiry_thread: Some(expiry_thread),
        }
    }

    /// Opens a client session. The name documents the caller at the call
    /// site; the service keeps nothing of it.
    pub fn connect(&self, _name: &str) -> CoordClient {
        let session = self.inner.next_session.fetch_add(1, Ordering::SeqCst);
        let (events, rx) = unbounded();
        self.inner.sessions.lock().insert(
            session,
            Session {
                events,
                last_seen_ms: self.inner.clock.now_ms(),
                pins: 0,
                owns_ephemerals: false,
            },
        );
        CoordClient {
            inner: Arc::clone(&self.inner),
            session,
            events: rx,
        }
    }

    /// Crashes an ensemble replica.
    pub fn crash_replica(&self, id: usize) {
        self.inner.ensemble.lock().crash_replica(id);
    }

    /// Restarts a crashed ensemble replica (it syncs from the leader).
    pub fn restart_replica(&self, id: usize) {
        self.inner.ensemble.lock().restart_replica(id);
    }

    /// Changes the modeled per-fsync device latency on every durable
    /// replica (zero, the initial value, adds nothing).
    /// Benches populate their stores at full speed, then dial in a
    /// realistic device before measuring. A no-op without a `data_dir`.
    pub fn set_simulated_fsync_latency(&self, latency: Duration) {
        self.inner
            .ensemble
            .lock()
            .set_simulated_fsync_latency(latency);
    }

    /// Ends a session immediately, as if it had been silent for a whole
    /// session timeout. Used by failover tests and the HA experiment, and
    /// by the client handles that end their session when dropped.
    pub fn expire_session(&self, session: u64) {
        self.inner.end_session(session);
    }

    /// Partitions the replica network into groups.
    pub fn partition(&self, groups: Vec<Vec<usize>>) {
        self.inner.ensemble.lock().net().partition(groups);
    }

    /// Heals all replica-network partitions.
    pub fn heal(&self) {
        self.inner.ensemble.lock().net().heal();
    }

    /// Service-level statistics.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = *self.inner.stats.lock();
        stats.watch_registrations = self.inner.watches.lock().len() as u64;
        stats.sessions = self.inner.sessions.lock().len() as u64;
        stats
    }

    /// Ensemble-level statistics.
    pub fn ensemble_stats(&self) -> EnsembleStats {
        self.inner.ensemble.lock().stats()
    }

    /// The configured session timeout in milliseconds.
    pub fn session_timeout_ms(&self) -> u64 {
        self.inner.config.session_timeout_ms
    }

    /// Whether writes are logged to disk ([`CoordConfig::data_dir`]), so
    /// each waits for an fsync round.
    pub fn is_durable(&self) -> bool {
        self.inner.config.data_dir.is_some()
    }
}

impl Drop for CoordService {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.expiry_thread.take() {
            let _ = handle.join();
        }
    }
}

/// How a znode is created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CreateMode {
    /// Plain persistent node.
    Persistent,
    /// Persistent node with a monotonic sequence suffix.
    PersistentSequential,
    /// Deleted when the creating session expires.
    Ephemeral,
    /// Ephemeral with a sequence suffix (the election recipe's mode).
    EphemeralSequential,
}

/// A client handle bound to one session.
pub struct CoordClient {
    inner: Arc<ServiceInner>,
    session: u64,
    events: Receiver<WatchEvent>,
}

impl CoordClient {
    /// The session identifier.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Stamps the session as alive, restarting its timeout.
    pub fn ping(&self) -> CoordResult<()> {
        self.inner.check_session(self.session)
    }

    /// Creates a znode, returning its final path (sequence suffix applied).
    pub fn create(
        &self,
        path: &Path,
        data: impl Into<Bytes>,
        mode: CreateMode,
    ) -> CoordResult<Path> {
        let (ephemeral, sequential) = match mode {
            CreateMode::Persistent => (false, false),
            CreateMode::PersistentSequential => (false, true),
            CreateMode::Ephemeral => (true, false),
            CreateMode::EphemeralSequential => (true, true),
        };
        let op = Op::Create {
            path: path.clone(),
            data: data.into(),
            ephemeral_owner: ephemeral.then_some(self.session),
            sequential,
        };
        match self.inner.submit(self.session, op)? {
            OpResult::Created(p) => Ok(p),
            other => unreachable!("create returned {other:?}"),
        }
    }

    /// Creates every missing node along `path` as a persistent znode.
    /// Existing prefixes are left untouched — probed with a cheap quorum
    /// read first, so re-binding well-known paths (queues, record roots)
    /// costs no writes; the create still tolerates losing a race.
    pub fn create_all(&self, path: &Path) -> CoordResult<()> {
        for prefix in path.ancestors_and_self() {
            if prefix.is_root() || self.exists(&prefix)? {
                continue;
            }
            match self.create(&prefix, Bytes::new(), CreateMode::Persistent) {
                Ok(_) | Err(CoordError::NodeExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Submits a batch of write operations as one atomic unit (the
    /// group-commit primitive): the batch replicates as a single broadcast,
    /// pays the write latency once, and either every sub-operation applies
    /// or none does ([`CoordError::MultiFailed`] reports the first failure).
    /// An empty batch is a no-op that never touches the ensemble.
    pub fn multi(&self, ops: Vec<Op>) -> CoordResult<Vec<OpResult>> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        match self.inner.submit(self.session, Op::Multi { ops })? {
            OpResult::Multi(results) => Ok(results),
            other => unreachable!("multi returned {other:?}"),
        }
    }

    /// Writes a znode's data; `expected_version` makes it a compare-and-swap.
    pub fn set_data(
        &self,
        path: &Path,
        data: impl Into<Bytes>,
        expected_version: Option<u64>,
    ) -> CoordResult<u64> {
        let op = Op::SetData {
            path: path.clone(),
            data: data.into(),
            expected_version,
        };
        match self.inner.submit(self.session, op)? {
            OpResult::Set(v) => Ok(v),
            other => unreachable!("set returned {other:?}"),
        }
    }

    /// Deletes a znode; `expected_version` makes it conditional.
    pub fn delete(&self, path: &Path, expected_version: Option<u64>) -> CoordResult<()> {
        let op = Op::Delete {
            path: path.clone(),
            expected_version,
        };
        match self.inner.submit(self.session, op)? {
            OpResult::Deleted => Ok(()),
            other => unreachable!("delete returned {other:?}"),
        }
    }

    /// Reads a znode's data and stat, or `None` when absent.
    pub fn get_data(&self, path: &Path) -> CoordResult<Option<(Bytes, Stat)>> {
        self.inner.check_session(self.session)?;
        self.inner.stats.lock().reads += 1;
        self.inner.ensemble.lock().read(|s| s.get(path))
    }

    /// Returns `true` if a znode exists at `path`.
    pub fn exists(&self, path: &Path) -> CoordResult<bool> {
        self.inner.check_session(self.session)?;
        self.inner.stats.lock().reads += 1;
        self.inner.ensemble.lock().read(|s| s.exists(path))
    }

    /// Lists children in lexicographic order.
    pub fn get_children(&self, path: &Path) -> CoordResult<Vec<String>> {
        self.inner.check_session(self.session)?;
        self.inner.stats.lock().reads += 1;
        self.inner.ensemble.lock().read(|s| s.children(path))?
    }

    /// Registers a one-shot watch. `Node` watches fire on create, delete, or
    /// data change of `path`; `Children` watches fire when the child set of
    /// `path` changes. Fired watches arrive on [`CoordClient::events`].
    /// Re-arming a watch this session already holds is a no-op, so the
    /// event it eventually fires is delivered exactly once.
    pub fn watch(&self, path: &Path, kind: WatchKind) -> CoordResult<()> {
        // Checked under `watches`, so a session ending concurrently either
        // refuses here or purges what this registers.
        let mut watches = self.inner.watches.lock();
        self.inner.check_session(self.session)?;
        watches.register(path, kind, self.session);
        Ok(())
    }

    /// The channel on which fired watches are delivered.
    pub fn events(&self) -> &Receiver<WatchEvent> {
        &self.events
    }

    /// Waits up to `timeout` for the next watch event.
    pub fn wait_event(&self, timeout: Duration) -> Option<WatchEvent> {
        self.events.recv_timeout(timeout).ok()
    }

    /// Serializes `value` as JSON into the znode at `path`, creating it if
    /// missing. Convenience used for signals and the twin's reports.
    pub fn put_json<T: serde::Serialize>(&self, path: &Path, value: &T) -> CoordResult<()> {
        // Converted once: the create fallback below clones an `Arc`, not
        // the value.
        let data = Bytes::from(serde_json::to_vec(value).expect("serializable value"));
        match self.set_data(path, data.clone(), None) {
            Ok(_) => Ok(()),
            Err(CoordError::NoNode(_)) => {
                if let Some(parent) = path.parent() {
                    self.create_all(&parent)?;
                }
                match self.create(path, data.clone(), CreateMode::Persistent) {
                    Ok(_) => Ok(()),
                    // Lost a create race: fall back to set.
                    Err(CoordError::NodeExists(_)) => self.set_data(path, data, None).map(|_| ()),
                    Err(e) => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Reads and deserializes a JSON znode, or `None` when absent.
    pub fn get_json<T: serde::de::DeserializeOwned>(&self, path: &Path) -> CoordResult<Option<T>> {
        match self.get_data(path)? {
            Some((data, _)) => Ok(serde_json::from_slice(&data).ok()),
            None => Ok(None),
        }
    }

    /// Pins the session: until the returned guard drops, the expiry scan
    /// skips it however long its owner stays silent. Needed by components
    /// that block for long stretches (e.g. workers inside slow device
    /// calls) but must stay alive. Dropping the guard restarts the timeout,
    /// so a crashed component's session still expires one
    /// `session_timeout_ms` later. Pinning an ended session does nothing.
    pub fn keepalive(&self) -> KeepAlive {
        if let Some(row) = self.inner.sessions.lock().get_mut(&self.session) {
            row.pins += 1;
        }
        KeepAlive {
            inner: Arc::clone(&self.inner),
            session: self.session,
        }
    }

    /// Closes the session cleanly, deleting its ephemeral nodes.
    pub fn close(self) {
        self.inner.end_session(self.session);
    }
}

/// Guard pinning a session against timeout; see [`CoordClient::keepalive`].
pub struct KeepAlive {
    inner: Arc<ServiceInner>,
    session: u64,
}

impl Drop for KeepAlive {
    fn drop(&mut self) {
        if let Some(row) = self.inner.sessions.lock().get_mut(&self.session) {
            row.pins -= 1;
            row.last_seen_ms = self.inner.clock.now_ms();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tropic_model::{Clock, ManualClock};

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn quick_service() -> CoordService {
        CoordService::start(CoordConfig {
            session_timeout_ms: 200,
            tick_ms: 10,
            ..CoordConfig::default()
        })
    }

    #[test]
    fn create_read_write_delete() {
        let svc = quick_service();
        let c = svc.connect("t");
        c.create(&p("/a"), Bytes::from_static(b"1"), CreateMode::Persistent)
            .unwrap();
        let (data, stat) = c.get_data(&p("/a")).unwrap().unwrap();
        assert_eq!(&data[..], b"1");
        assert_eq!(stat.version, 0);
        c.set_data(&p("/a"), Bytes::from_static(b"2"), Some(0))
            .unwrap();
        assert!(matches!(
            c.set_data(&p("/a"), Bytes::from_static(b"3"), Some(0)),
            Err(CoordError::BadVersion { .. })
        ));
        c.delete(&p("/a"), None).unwrap();
        assert!(c.get_data(&p("/a")).unwrap().is_none());
    }

    #[test]
    fn create_all_idempotent() {
        let svc = quick_service();
        let c = svc.connect("t");
        c.create_all(&p("/x/y/z")).unwrap();
        c.create_all(&p("/x/y/z")).unwrap();
        assert!(c.exists(&p("/x/y")).unwrap());
    }

    #[test]
    fn watches_fire_once() {
        let svc = quick_service();
        let c1 = svc.connect("watcher");
        let c2 = svc.connect("writer");
        c2.create(&p("/w"), Bytes::new(), CreateMode::Persistent)
            .unwrap();
        c1.watch(&p("/w"), WatchKind::Node).unwrap();
        c2.set_data(&p("/w"), Bytes::from_static(b"x"), None)
            .unwrap();
        let ev = c1.wait_event(Duration::from_secs(1)).unwrap();
        assert_eq!(ev.event, StoreEvent::DataChanged(p("/w")));
        // One-shot: a second write does not fire again.
        c2.set_data(&p("/w"), Bytes::from_static(b"y"), None)
            .unwrap();
        assert!(c1.wait_event(Duration::from_millis(50)).is_none());
    }

    #[test]
    fn rearming_a_pending_watch_registers_and_fires_once() {
        let svc = quick_service();
        let c1 = svc.connect("watcher");
        let c2 = svc.connect("writer");
        c2.create(&p("/w"), Bytes::new(), CreateMode::Persistent)
            .unwrap();
        for _ in 0..50 {
            c1.watch(&p("/w"), WatchKind::Node).unwrap();
            c1.watch(&p("/w"), WatchKind::Children).unwrap();
        }
        c2.watch(&p("/w"), WatchKind::Node).unwrap();
        // One per (path, kind, session), however often it was re-armed.
        assert_eq!(svc.stats().watch_registrations, 3);
        c2.set_data(&p("/w"), Bytes::from_static(b"x"), None)
            .unwrap();
        assert!(c1.wait_event(Duration::from_secs(1)).is_some());
        assert!(
            c1.wait_event(Duration::from_millis(50)).is_none(),
            "a re-armed watch delivered a duplicate event"
        );
        assert_eq!(svc.stats().watch_events, 2, "one event per session");
        assert_eq!(svc.stats().watch_registrations, 1, "children watch");
    }

    #[test]
    fn closed_and_expired_sessions_lose_their_registrations() {
        let svc = quick_service();
        let closed = svc.connect("closed");
        let expired = svc.connect("expired");
        let live = svc.connect("live");
        for c in [&closed, &expired, &live] {
            c.watch(&p("/a"), WatchKind::Node).unwrap();
            c.watch(&p("/b"), WatchKind::Children).unwrap();
        }
        assert_eq!(svc.stats().watch_registrations, 6);
        closed.close();
        assert_eq!(svc.stats().watch_registrations, 4);
        svc.expire_session(expired.session_id());
        assert_eq!(svc.stats().watch_registrations, 2);
        // The survivor's watches still fire.
        live.create(&p("/a"), Bytes::new(), CreateMode::Persistent)
            .unwrap();
        assert!(live.wait_event(Duration::from_secs(1)).is_some());
        assert_eq!(svc.stats().watch_registrations, 1);
    }

    #[test]
    fn children_watch() {
        let svc = quick_service();
        let c1 = svc.connect("watcher");
        let c2 = svc.connect("writer");
        c2.create(&p("/q"), Bytes::new(), CreateMode::Persistent)
            .unwrap();
        c1.watch(&p("/q"), WatchKind::Children).unwrap();
        c2.create(&p("/q/i"), Bytes::new(), CreateMode::Persistent)
            .unwrap();
        let ev = c1.wait_event(Duration::from_secs(1)).unwrap();
        assert_eq!(ev.event, StoreEvent::ChildrenChanged(p("/q")));
    }

    #[test]
    fn ephemeral_removed_on_close() {
        let svc = quick_service();
        let c1 = svc.connect("a");
        let c2 = svc.connect("b");
        c1.create(&p("/eph"), Bytes::new(), CreateMode::Ephemeral)
            .unwrap();
        assert!(c2.exists(&p("/eph")).unwrap());
        c1.close();
        assert!(!c2.exists(&p("/eph")).unwrap());
    }

    #[test]
    fn session_expiry_purges_ephemerals_and_notifies() {
        let clock = ManualClock::new();
        let svc = CoordService::start_with_clock(
            CoordConfig {
                session_timeout_ms: 500,
                tick_ms: 50,
                ..CoordConfig::default()
            },
            clock.clone(),
        );
        let c1 = svc.connect("leader");
        let c2 = svc.connect("follower");
        c1.create(&p("/lead"), Bytes::new(), CreateMode::Ephemeral)
            .unwrap();
        c2.watch(&p("/lead"), WatchKind::Node).unwrap();
        // c2 keeps pinging; c1 goes silent.
        for _ in 0..30 {
            clock.advance(100);
            let _ = c2.ping();
            if c2.wait_event(Duration::from_millis(20)).is_some() {
                // Deletion observed.
                assert!(!c2.exists(&p("/lead")).unwrap());
                assert!(matches!(c1.ping(), Err(CoordError::SessionExpired)));
                return;
            }
        }
        panic!("ephemeral node was not purged after session expiry");
    }

    #[test]
    fn expired_session_rejects_ops() {
        let svc = quick_service();
        let c = svc.connect("t");
        svc.expire_session(c.session_id());
        assert!(matches!(
            c.create(&p("/x"), Bytes::new(), CreateMode::Persistent),
            Err(CoordError::SessionExpired)
        ));
        assert!(matches!(
            c.exists(&p("/x")),
            Err(CoordError::SessionExpired)
        ));
    }

    fn manual_service(clock: &Arc<ManualClock>) -> CoordService {
        CoordService::start_with_clock(
            CoordConfig {
                session_timeout_ms: 500,
                tick_ms: 50,
                ..CoordConfig::default()
            },
            clock.clone(),
        )
    }

    /// Steps the manual clock until `done` holds. The expiry thread scans
    /// on its own schedule, one tick after whatever instant it last read,
    /// so only a clock that keeps moving is sure to be scanned.
    fn advance_until(clock: &ManualClock, mut done: impl FnMut() -> bool) {
        for _ in 0..1_000 {
            if done() {
                return;
            }
            clock.advance(10);
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("condition still false after 10 s of manual-clock time");
    }

    #[test]
    fn ending_sessions_that_own_nothing_replicates_nothing_and_leaves_no_row() {
        let clock = ManualClock::new();
        let svc = manual_service(&clock);
        let sessions = svc.stats().sessions;
        let commits = svc.ensemble_stats().committed;
        for _ in 0..1_000 {
            let c = svc.connect("closed");
            assert!(!c.exists(&p("/nothing")).unwrap());
            c.watch(&p("/nothing"), WatchKind::Node).unwrap();
            c.close();
        }
        assert_eq!(svc.stats().sessions, sessions);
        for _ in 0..1_000 {
            // No `Drop`: an abandoned client is a crashed one, and lingers.
            drop(svc.connect("dropped"));
        }
        assert_eq!(svc.stats().sessions, sessions + 1_000);
        advance_until(&clock, || svc.stats().sessions == sessions);
        let stats = svc.stats();
        assert_eq!(stats.expired_sessions, 2_000);
        assert_eq!(stats.watch_registrations, 0);
        assert_eq!(stats.writes, 0);
        assert_eq!(
            svc.ensemble_stats().committed,
            commits,
            "ending a session that owns nothing must not reach the ensemble"
        );
    }

    #[test]
    fn every_exit_purges_ephemerals_created_directly_or_inside_a_multi() {
        let clock = ManualClock::new();
        let svc = manual_service(&clock);
        let observer = svc.connect("observer");
        let _pin = observer.keepalive();
        for exit in ["close", "timeout", "expire_session"] {
            for in_multi in [false, true] {
                let owner = svc.connect("owner");
                let path = p(&format!("/eph-{exit}-{in_multi}"));
                if in_multi {
                    owner
                        .multi(vec![Op::Create {
                            path: path.clone(),
                            data: Bytes::new(),
                            ephemeral_owner: Some(owner.session_id()),
                            sequential: false,
                        }])
                        .unwrap();
                } else {
                    owner
                        .create(&path, Bytes::new(), CreateMode::Ephemeral)
                        .unwrap();
                }
                assert!(observer.exists(&path).unwrap());
                let commits = svc.ensemble_stats().committed;
                match exit {
                    "close" => owner.close(),
                    "timeout" => advance_until(&clock, || !observer.exists(&path).unwrap()),
                    _ => svc.expire_session(owner.session_id()),
                }
                assert!(
                    !observer.exists(&path).unwrap(),
                    "{path} survived its owner's {exit}"
                );
                assert_eq!(svc.ensemble_stats().committed, commits + 1, "one purge");
                assert_eq!(svc.stats().sessions, 1, "only the observer is left");
            }
        }
    }

    #[test]
    fn pinned_session_outlives_the_timeout_and_expires_one_timeout_after_unpinning() {
        let clock = ManualClock::new();
        let svc = manual_service(&clock);
        let observer = svc.connect("observer");
        let _observer_pin = observer.keepalive();
        let pinned = svc.connect("pinned");
        pinned
            .create(&p("/pinned"), Bytes::new(), CreateMode::Ephemeral)
            .unwrap();
        let pin = pinned.keepalive();
        // An unpinned bystander proves the scans run: it goes, the pin stays.
        drop(svc.connect("bystander"));
        advance_until(&clock, || svc.stats().sessions == 2);
        advance_until(&clock, || clock.now_ms() >= 5_000);
        assert!(observer.exists(&p("/pinned")).unwrap());
        assert_eq!(svc.stats().sessions, 2);

        // Unpinning restarts the timeout from now, not from the last op.
        let unpinned_ms = clock.now_ms();
        drop(pin);
        advance_until(&clock, || !observer.exists(&p("/pinned")).unwrap());
        let silent_ms = clock.now_ms() - unpinned_ms;
        assert!(
            (501..1_500).contains(&silent_ms),
            "expired {silent_ms} ms after unpinning"
        );

        // An ended session has no row: every operation reports expiry.
        assert!(matches!(pinned.ping(), Err(CoordError::SessionExpired)));
        assert!(matches!(
            pinned.get_data(&p("/x")),
            Err(CoordError::SessionExpired)
        ));
        assert!(matches!(
            pinned.watch(&p("/x"), WatchKind::Node),
            Err(CoordError::SessionExpired)
        ));
        assert!(matches!(
            pinned.multi(vec![Op::Delete {
                path: p("/x"),
                expected_version: None,
            }]),
            Err(CoordError::SessionExpired)
        ));
        // Pinning an ended session neither revives it nor panics on drop.
        drop(pinned.keepalive());
        assert_eq!(svc.stats().sessions, 1);
        assert_eq!(svc.stats().watch_registrations, 0);
    }

    #[test]
    fn json_roundtrip() {
        let svc = quick_service();
        let c = svc.connect("t");
        #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug)]
        struct Rec {
            id: u64,
            name: String,
        }
        let rec = Rec {
            id: 7,
            name: "spawnVM".into(),
        };
        c.put_json(&p("/tropic/txns/7"), &rec).unwrap();
        // Overwrite works too.
        c.put_json(&p("/tropic/txns/7"), &rec).unwrap();
        let back: Rec = c.get_json(&p("/tropic/txns/7")).unwrap().unwrap();
        assert_eq!(back, rec);
        let missing: Option<Rec> = c.get_json(&p("/tropic/txns/8")).unwrap();
        assert!(missing.is_none());
    }

    #[test]
    fn replica_crash_transparent_below_quorum_loss() {
        let svc = quick_service();
        let c = svc.connect("t");
        c.create(&p("/a"), Bytes::new(), CreateMode::Persistent)
            .unwrap();
        svc.crash_replica(0);
        c.create(&p("/b"), Bytes::new(), CreateMode::Persistent)
            .unwrap();
        svc.crash_replica(1);
        assert!(matches!(
            c.create(&p("/c"), Bytes::new(), CreateMode::Persistent),
            Err(CoordError::NoQuorum { .. })
        ));
        svc.restart_replica(1);
        c.create(&p("/c"), Bytes::new(), CreateMode::Persistent)
            .unwrap();
        assert!(c.exists(&p("/a")).unwrap());
        assert!(c.exists(&p("/b")).unwrap());
    }

    #[test]
    fn stats_count_ops() {
        let svc = quick_service();
        let c = svc.connect("t");
        c.create(&p("/a"), Bytes::new(), CreateMode::Persistent)
            .unwrap();
        let _ = c.exists(&p("/a")).unwrap();
        let s = svc.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
    }

    #[test]
    fn multi_round_trip_and_stats() {
        let svc = quick_service();
        let c = svc.connect("t");
        let results = c
            .multi(vec![
                Op::Create {
                    path: p("/batch"),
                    data: Bytes::from_static(b"1"),
                    ephemeral_owner: None,
                    sequential: false,
                },
                Op::SetData {
                    path: p("/batch"),
                    data: Bytes::from_static(b"2"),
                    expected_version: None,
                },
            ])
            .unwrap();
        assert_eq!(results.len(), 2);
        let (data, stat) = c.get_data(&p("/batch")).unwrap().unwrap();
        assert_eq!(&data[..], b"2");
        assert_eq!(stat.version, 1);
        let s = svc.stats();
        assert_eq!(s.writes, 1, "a batch is one write");
        assert_eq!(s.multis, 1);
        assert_eq!(s.batched_ops, 2);
        // Empty batches never touch the ensemble.
        assert!(c.multi(Vec::new()).unwrap().is_empty());
        assert_eq!(svc.stats().writes, 1);
    }

    #[test]
    fn multi_failure_applies_nothing_and_fires_no_watches() {
        let svc = quick_service();
        let c = svc.connect("writer");
        let w = svc.connect("watcher");
        c.create(&p("/seen"), Bytes::new(), CreateMode::Persistent)
            .unwrap();
        w.watch(&p("/seen"), WatchKind::Node).unwrap();
        let err = c
            .multi(vec![
                Op::SetData {
                    path: p("/seen"),
                    data: Bytes::from_static(b"x"),
                    expected_version: None,
                },
                Op::Delete {
                    path: p("/missing"),
                    expected_version: None,
                },
            ])
            .unwrap_err();
        assert!(matches!(err, CoordError::MultiFailed { index: 1, .. }));
        let (data, stat) = c.get_data(&p("/seen")).unwrap().unwrap();
        assert!(data.is_empty());
        assert_eq!(stat.version, 0);
        assert!(
            w.wait_event(Duration::from_millis(50)).is_none(),
            "failed batch must not fire watches"
        );
    }

    #[test]
    fn multi_batch_replicates_atomically_across_crash() {
        let svc = quick_service();
        let c = svc.connect("t");
        c.multi(vec![
            Op::Create {
                path: p("/a"),
                data: Bytes::new(),
                ephemeral_owner: None,
                sequential: false,
            },
            Op::Create {
                path: p("/b"),
                data: Bytes::new(),
                ephemeral_owner: None,
                sequential: false,
            },
        ])
        .unwrap();
        // The batch committed as one unit; a replica crash + leader change
        // still shows both effects.
        svc.crash_replica(0);
        assert!(c.exists(&p("/a")).unwrap());
        assert!(c.exists(&p("/b")).unwrap());
    }

    fn durable_config(dir: &std::path::Path) -> CoordConfig {
        CoordConfig {
            session_timeout_ms: 200,
            tick_ms: 10,
            data_dir: Some(dir.to_path_buf()),
            durability: DurabilityOptions {
                snapshot_every_ops: 4,
                ..DurabilityOptions::default()
            },
            ..CoordConfig::default()
        }
    }

    #[test]
    fn durable_service_survives_total_restart() {
        let tmp = crate::testutil::TempDir::new("tropic-svc-durable");
        let config = durable_config(tmp.path());
        {
            let svc = CoordService::start(config.clone());
            let c = svc.connect("writer");
            for i in 0..10 {
                c.create(
                    &p(&format!("/n{i}")),
                    Bytes::from_static(b"v"),
                    CreateMode::Persistent,
                )
                .unwrap();
            }
            c.set_data(&p("/n0"), Bytes::from_static(b"w"), Some(0))
                .unwrap();
            assert!(svc.ensemble_stats().snapshots_written > 0);
        } // full shutdown: every replica gone
        let svc = CoordService::recover(config);
        assert_eq!(svc.ensemble_stats().recoveries, 3);
        let c = svc.connect("reader");
        for i in 0..10 {
            assert!(c.exists(&p(&format!("/n{i}"))).unwrap(), "/n{i} lost");
        }
        let (data, stat) = c.get_data(&p("/n0")).unwrap().unwrap();
        assert_eq!(&data[..], b"w");
        assert_eq!(stat.version, 1, "versions survive recovery");
        // Writes continue after recovery.
        c.create(&p("/after"), Bytes::new(), CreateMode::Persistent)
            .unwrap();
    }

    #[test]
    fn recover_purges_orphaned_ephemerals_but_keeps_persistents() {
        let tmp = crate::testutil::TempDir::new("tropic-svc-orphans");
        let config = durable_config(tmp.path());
        {
            let svc = CoordService::start(config.clone());
            let c = svc.connect("old-leader");
            c.create(&p("/keep"), Bytes::new(), CreateMode::Persistent)
                .unwrap();
            c.create(&p("/lead"), Bytes::new(), CreateMode::Ephemeral)
                .unwrap();
            // The service dies with the session still live.
        }
        let svc = CoordService::recover(config);
        let c = svc.connect("new");
        assert!(c.exists(&p("/keep")).unwrap());
        assert!(
            !c.exists(&p("/lead")).unwrap(),
            "orphaned ephemeral must be purged on recovery"
        );
        assert!(svc.stats().recovery_purged_sessions >= 1);
    }

    #[test]
    fn concurrent_writers_share_groups_and_every_acked_write_survives_recovery() {
        const THREADS: usize = 8;
        const WRITES: usize = 20;
        let tmp = crate::testutil::TempDir::new("tropic-svc-groups");
        let config = CoordConfig {
            session_timeout_ms: 10_000,
            data_dir: Some(tmp.path().to_path_buf()),
            ..CoordConfig::default()
        };
        let acked: Vec<Path> = {
            let svc = Arc::new(CoordService::start(config.clone()));
            svc.set_simulated_fsync_latency(Duration::from_millis(1));
            let setup = svc.connect("setup");
            setup.create_all(&p("/seq")).unwrap();
            let watched = |t: usize, i: usize| p(&format!("/w{t}-{i}"));
            for (t, i) in (0..THREADS).flat_map(|t| (0..WRITES).map(move |i| (t, i))) {
                setup.watch(&watched(t, i), WatchKind::Node).unwrap();
            }
            let before = svc.ensemble_stats();
            let writers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let svc = Arc::clone(&svc);
                    std::thread::spawn(move || {
                        let c = svc.connect("writer");
                        let mut acked = Vec::new();
                        for i in 0..WRITES {
                            let seq = CreateMode::PersistentSequential;
                            acked.push(c.create(&p("/seq/item-"), Bytes::new(), seq).unwrap());
                            let plain = CreateMode::Persistent;
                            acked.push(c.create(&watched(t, i), Bytes::new(), plain).unwrap());
                        }
                        acked
                    })
                })
                .collect();
            let acked: Vec<Path> = writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect();
            let after = svc.ensemble_stats();
            let writes = after.committed - before.committed;
            assert_eq!(writes, (THREADS * WRITES * 2) as u64);
            assert!(
                after.groups - before.groups < writes,
                "{} groups for {writes} concurrent writes",
                after.groups - before.groups
            );

            let names: std::collections::HashSet<&Path> = acked.iter().collect();
            assert_eq!(names.len(), acked.len(), "sequential names collided");
            // Each writer dispatched its own events before returning.
            let mut fired = std::collections::HashSet::new();
            while let Ok(ev) = setup.events().try_recv() {
                let StoreEvent::Created(path) = ev.event else {
                    panic!("unexpected {ev:?}");
                };
                assert!(fired.insert(path.clone()), "{path} fired twice");
            }
            assert_eq!(fired.len(), THREADS * WRITES, "one event per armed watch");
            assert_eq!(svc.stats().watch_registrations, 0);
            acked
        };
        let svc = CoordService::recover(config);
        let c = svc.connect("reader");
        for path in &acked {
            assert!(c.exists(path).unwrap(), "acked {path} lost");
        }
    }

    #[test]
    fn a_lone_writer_commits_one_group_per_write_without_waiting() {
        // The clock never moves, so a batch window timed on it would never
        // close; the wall-clock bound catches any other added wait.
        let clock = ManualClock::new();
        let svc = manual_service(&clock);
        let c = svc.connect("lone");
        let before = svc.ensemble_stats();
        let started = std::time::Instant::now();
        for i in 0..100 {
            c.create(
                &p(&format!("/lone{i}")),
                Bytes::new(),
                CreateMode::Persistent,
            )
            .unwrap();
        }
        assert!(started.elapsed() < Duration::from_secs(1));
        let after = svc.ensemble_stats();
        assert_eq!(after.committed - before.committed, 100);
        assert_eq!(after.groups - before.groups, 100);
    }

    #[test]
    fn start_formats_the_data_dir() {
        let tmp = crate::testutil::TempDir::new("tropic-svc-format");
        let config = durable_config(tmp.path());
        {
            let svc = CoordService::start(config.clone());
            let c = svc.connect("w");
            c.create(&p("/old"), Bytes::new(), CreateMode::Persistent)
                .unwrap();
        }
        let svc = CoordService::start(config);
        let c = svc.connect("w");
        assert!(
            !c.exists(&p("/old")).unwrap(),
            "start() is a fresh format, not a recovery"
        );
    }
}
