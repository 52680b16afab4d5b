//! The typed, versioned client API (paper §3, Figure 2 — the front door).
//!
//! This module is the supported way to talk to a running [`Tropic`]
//! platform:
//!
//! * [`TxnRequest`] — a builder for stored-procedure submissions carrying
//!   a [`Priority`] lane, an admission deadline, an idempotency key, and
//!   free-form labels.
//! * [`TxnHandle`] — the future-like handle a submission returns, with a
//!   non-blocking [`TxnHandle::try_outcome`] and an event-driven
//!   [`TxnHandle::wait`] (one coordination watch + the client's event
//!   channel; no fixed-interval polling).
//! * [`Subscription`] / [`TxnEvent`] — a streaming feed of transaction
//!   lifecycle transitions.
//! * [`AdminClient`] — the operator plane (`repair`, `reload`, signals),
//!   split off from the submission path.
//! * [`ApiError`] — the structured error taxonomy, partitioned into
//!   retryable and permanent failures.
//!
//! Requests travel to the controller in the versioned wire envelope of
//! [`crate::msg::Envelope`].
//!
//! [`Tropic`]: crate::Tropic

#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use tropic_coord::{CoordClient, CoordError, CoordService, DistributedQueue, WatchKind};
use tropic_model::{Path, SharedClock, Value};

use crate::error::PlatformError;
use crate::msg::{encode_input, layout, AdminResult, InputMsg, Signal};
use crate::txn::{TxnAlias, TxnId, TxnOutcome, TxnRecord, TxnState};

/// Fallback wait bound for handles whose request carries no deadline.
const DEFAULT_WAIT: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------
// Priority lanes.
// ---------------------------------------------------------------------

/// Scheduling priority of a submission. Each priority maps to one durable
/// input-queue lane (`inputQ/hi|norm|batch`); the controller drains lanes
/// strictly in this order, so a `High` submission admitted behind a full
/// `Batch` backlog still reaches the scheduler first.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum Priority {
    /// Latency-sensitive interactive work; drained first.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Bulk/background work; drained only when the other lanes are empty.
    Batch,
}

impl Priority {
    /// All priorities, in drain order (highest first).
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Batch];

    /// The queue-lane segment under `inputQ` this priority maps to.
    pub fn lane(self) -> &'static str {
        match self {
            Priority::High => "hi",
            Priority::Normal => "norm",
            Priority::Batch => "batch",
        }
    }

    /// Dense index in drain order (0 = highest).
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }
}

// ---------------------------------------------------------------------
// Error taxonomy.
// ---------------------------------------------------------------------

/// Machine-readable classification persisted on records the *platform*
/// aborted (as opposed to aborts raised by procedure logic or constraint
/// checks). [`TxnOutcome::api_error`] lifts it back into an [`ApiError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortCode {
    /// The submission's deadline had already passed at admission.
    DeadlineExpired,
    /// The named stored procedure is not registered.
    UnknownProcedure,
    /// An operator (or a stall timeout) KILLed the transaction.
    Killed,
}

/// Structured client-facing errors, partitioned by [`ApiError::retryable`]:
/// retryable errors describe transient platform conditions (resubmitting
/// the same request may succeed); permanent errors describe requests that
/// can never succeed as written.
///
/// The taxonomy is serializable so the RPC frontend ([`crate::rpc`]) can
/// carry it across the wire verbatim — a remote caller sees the *same*
/// variants, and the same [`ApiError::retryable`] partition, as an
/// in-process one.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ApiError {
    /// The request's deadline expired before the controller admitted it.
    /// Permanent: the deadline is part of the request.
    DeadlineExceeded {
        /// The rejected transaction.
        id: TxnId,
    },
    /// The named stored procedure is not registered. Permanent.
    UnknownProcedure(String),
    /// The request is structurally invalid (e.g. empty procedure name).
    /// Permanent.
    InvalidRequest(String),
    /// The transaction was KILLed by an operator or a stall timeout.
    /// Permanent for this transaction; the caller decides about resubmission.
    Killed {
        /// The killed transaction.
        id: TxnId,
    },
    /// Waiting for an outcome outran its bound; the transaction may still
    /// finalize later. Retryable (keep waiting or re-poll the handle).
    WaitTimeout {
        /// The transaction still in flight.
        id: TxnId,
    },
    /// The coordination service failed or lost quorum. Retryable.
    Coordination(String),
    /// The platform is shutting down. Retryable (against a new platform).
    ShuttingDown,
    /// An administrative operation failed. Permanent.
    Admin(String),
    /// The peer spoke a wire version newer than this build understands.
    /// Permanent until one side is upgraded.
    UnsupportedWireVersion {
        /// The version the peer sent.
        version: u32,
    },
    /// A transport-level failure reaching (or talking to) the RPC server:
    /// connection refused, reset, or an unsynchronized frame stream.
    /// Retryable — but the failed call may still have taken effect
    /// server-side (e.g. a submit whose reply was lost), so resubmitting a
    /// `Submit` is only duplicate-safe with an idempotency key.
    Transport(String),
    /// Reserved wire-version-1 variant: earlier servers closed event
    /// streams with it when a (since removed) read-only replica tier could
    /// no longer bound staleness. This build decodes, displays and
    /// classifies it — retryable: back off and resubscribe — but never
    /// constructs it; dropping it would break the wire schema.
    LeaseExpired {
        /// Id of the replica the sending server named.
        observer: u64,
    },
}

impl ApiError {
    /// Whether resubmitting the same request can ever succeed.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            ApiError::WaitTimeout { .. }
                | ApiError::Coordination(_)
                | ApiError::ShuttingDown
                | ApiError::Transport(_)
                | ApiError::LeaseExpired { .. }
        )
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::DeadlineExceeded { id } => {
                write!(f, "txn {id}: deadline expired before admission")
            }
            ApiError::UnknownProcedure(name) => write!(f, "unknown procedure: {name}"),
            ApiError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
            ApiError::Killed { id } => write!(f, "txn {id} was killed"),
            ApiError::WaitTimeout { id } => {
                write!(f, "timed out waiting for txn {id} (still in flight)")
            }
            ApiError::Coordination(s) => write!(f, "coordination error: {s}"),
            ApiError::ShuttingDown => write!(f, "platform is shutting down"),
            ApiError::Admin(s) => write!(f, "admin operation failed: {s}"),
            ApiError::UnsupportedWireVersion { version } => {
                write!(
                    f,
                    "unsupported wire version {version} (this build speaks {})",
                    crate::msg::WIRE_VERSION
                )
            }
            ApiError::Transport(s) => write!(f, "transport error: {s}"),
            ApiError::LeaseExpired { observer } => {
                write!(f, "observer {observer} staleness lease expired")
            }
        }
    }
}

impl std::error::Error for ApiError {}

impl From<CoordError> for ApiError {
    fn from(e: CoordError) -> Self {
        ApiError::Coordination(e.to_string())
    }
}

impl From<crate::msg::WireError> for ApiError {
    fn from(e: crate::msg::WireError) -> Self {
        match e {
            crate::msg::WireError::UnsupportedVersion(version) => {
                ApiError::UnsupportedWireVersion { version }
            }
            crate::msg::WireError::Malformed(s) => ApiError::InvalidRequest(s),
        }
    }
}

impl From<PlatformError> for ApiError {
    fn from(e: PlatformError) -> Self {
        match e {
            PlatformError::Coord(s) => ApiError::Coordination(s),
            PlatformError::UnknownProcedure(n) => ApiError::UnknownProcedure(n),
            PlatformError::Timeout => ApiError::WaitTimeout { id: 0 },
            PlatformError::ShuttingDown => ApiError::ShuttingDown,
            PlatformError::Admin(s) => ApiError::Admin(s),
        }
    }
}

impl TxnOutcome {
    /// Lifts a platform-rejected outcome into the typed error taxonomy.
    /// Returns `None` for committed transactions and for aborts raised by
    /// procedure logic or constraint checks (those are application
    /// outcomes, not API errors).
    pub fn api_error(&self) -> Option<ApiError> {
        match self.abort_code? {
            AbortCode::DeadlineExpired => Some(ApiError::DeadlineExceeded { id: self.id }),
            AbortCode::UnknownProcedure => {
                // The record's error reads "unknown procedure `name`";
                // carry just the name, falling back to the full message.
                let msg = self.error.clone().unwrap_or_default();
                let name = msg
                    .strip_prefix("unknown procedure `")
                    .and_then(|rest| rest.strip_suffix('`'))
                    .map(str::to_owned)
                    .unwrap_or(msg);
                Some(ApiError::UnknownProcedure(name))
            }
            AbortCode::Killed => Some(ApiError::Killed { id: self.id }),
        }
    }
}

// ---------------------------------------------------------------------
// Request builder.
// ---------------------------------------------------------------------

/// A typed stored-procedure submission, assembled builder-style:
///
/// ```no_run
/// use std::time::Duration;
/// use tropic_core::api::{Priority, TxnRequest};
///
/// let req = TxnRequest::new("spawnVM")
///     .arg("web-1")
///     .arg("template-linux")
///     .priority(Priority::High)
///     .deadline(Duration::from_secs(5))
///     .idempotency_key("spawn-web-1")
///     .label("tenant", "acme");
/// ```
///
/// Requests are serializable so [`crate::rpc::RemoteClient`] can ship the
/// *same* builder output over a socket; a relative [`TxnRequest::deadline`]
/// is resolved against the platform clock when the server admits the
/// request (so it spans queueing, not the network hop).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TxnRequest {
    proc_name: String,
    args: Vec<Value>,
    priority: Priority,
    deadline: Option<Duration>,
    deadline_at_ms: Option<u64>,
    idempotency_key: Option<String>,
    labels: Vec<(String, String)>,
}

impl TxnRequest {
    /// Starts a request for the named stored procedure.
    pub fn new(proc_name: impl Into<String>) -> Self {
        TxnRequest {
            proc_name: proc_name.into(),
            args: Vec::new(),
            priority: Priority::Normal,
            deadline: None,
            deadline_at_ms: None,
            idempotency_key: None,
            labels: Vec::new(),
        }
    }

    /// Appends one procedure argument.
    pub fn arg(mut self, value: impl Into<Value>) -> Self {
        self.args.push(value.into());
        self
    }

    /// Appends a batch of procedure arguments.
    pub fn args(mut self, args: impl IntoIterator<Item = Value>) -> Self {
        self.args.extend(args);
        self
    }

    /// Selects the scheduling lane (default [`Priority::Normal`]).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets an admission deadline relative to submission time: if the
    /// controller has not admitted the submission by then, it aborts with
    /// [`AbortCode::DeadlineExpired`] instead of running.
    pub fn deadline(mut self, after: Duration) -> Self {
        self.deadline = Some(after);
        self
    }

    /// Sets an absolute admission deadline on the platform clock
    /// (milliseconds). Overrides [`TxnRequest::deadline`].
    pub fn deadline_at(mut self, at_ms: u64) -> Self {
        self.deadline_at_ms = Some(at_ms);
        self
    }

    /// Attaches an idempotency key: a resubmission carrying a key the
    /// controller has already admitted resolves to the *original*
    /// transaction's outcome instead of executing again. The dedup window
    /// is the record-retention window (at least 10 s past finalization).
    pub fn idempotency_key(mut self, key: impl Into<String>) -> Self {
        self.idempotency_key = Some(key.into());
        self
    }

    /// Attaches a free-form label, carried into the durable record.
    pub fn label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.push((key.into(), value.into()));
        self
    }

    /// The stored-procedure name.
    pub fn proc_name(&self) -> &str {
        &self.proc_name
    }

    /// The scheduling lane.
    pub fn priority_lane(&self) -> Priority {
        self.priority
    }

    /// Validates the request and lowers it to a wire message, resolving
    /// the relative deadline against `now_ms`.
    pub(crate) fn into_msg(
        self,
        id: TxnId,
        now_ms: u64,
    ) -> Result<(InputMsg, Option<u64>), ApiError> {
        if self.proc_name.is_empty() {
            return Err(ApiError::InvalidRequest("empty procedure name".into()));
        }
        let deadline_ms = self.deadline_at_ms.or_else(|| {
            self.deadline
                .map(|d| now_ms.saturating_add(d.as_millis() as u64))
        });
        Ok((
            InputMsg::Submit {
                id,
                proc_name: self.proc_name,
                args: self.args,
                submitted_ms: now_ms,
                priority: self.priority,
                deadline_ms,
                idempotency_key: self.idempotency_key,
                labels: self.labels,
            },
            deadline_ms,
        ))
    }
}

// ---------------------------------------------------------------------
// Transaction handle.
// ---------------------------------------------------------------------

/// A handle to one submitted transaction, returned by
/// [`crate::TropicClient::submit_request`]. Outcome reads follow
/// idempotency aliases transparently: the outcome's `id` is the id of the
/// transaction that actually ran.
pub struct TxnHandle<'c> {
    client: &'c CoordClient,
    clock: SharedClock,
    id: TxnId,
    deadline_ms: Option<u64>,
    /// Resolved alias target, cached once discovered.
    resolved: std::cell::Cell<Option<TxnId>>,
}

impl<'c> TxnHandle<'c> {
    pub(crate) fn new(
        client: &'c CoordClient,
        clock: SharedClock,
        id: TxnId,
        deadline_ms: Option<u64>,
    ) -> Self {
        TxnHandle {
            client,
            clock,
            id,
            deadline_ms,
            resolved: std::cell::Cell::new(None),
        }
    }

    /// The id assigned to this submission. If the submission deduplicated
    /// onto an earlier transaction, the outcome will carry that original
    /// id instead (see [`TxnHandle::resolved_id`]).
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The id of the transaction this handle actually tracks: the alias
    /// target once idempotency dedup has been observed, otherwise the
    /// submission id.
    pub fn resolved_id(&self) -> TxnId {
        self.resolved.get().unwrap_or(self.id)
    }

    /// The admission deadline carried by the request, if any (platform
    /// clock, ms).
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    /// Non-blocking outcome poll: `Ok(Some(..))` once the transaction
    /// reached a terminal state, `Ok(None)` while still in flight. One
    /// store read per probe, plus one the first time an alias is followed.
    pub fn try_outcome(&self) -> Result<Option<TxnOutcome>, ApiError> {
        loop {
            let target = self.resolved_id();
            let Some((data, _)) = self.client.get_data(&layout::txn(target))? else {
                return Ok(None);
            };
            if let Ok(rec) = serde_json::from_slice::<TxnRecord>(&data) {
                return Ok(rec.state.is_final().then(|| outcome_of(target, &rec)));
            }
            // An alias is persisted at the submission's own record path; a
            // real record there parses as `TxnRecord`, not `TxnAlias`.
            match serde_json::from_slice::<TxnAlias>(&data) {
                Ok(alias) if self.resolved.get().is_none() => {
                    self.resolved.set(Some(alias.alias_of));
                }
                _ => return Ok(None),
            }
        }
    }

    /// Blocks until the transaction reaches a terminal state, driven by
    /// coordination watches: the handle arms a watch on the record, blocks
    /// on the client's event channel until the deadline, and re-checks
    /// only when an event fires — no fixed-interval polling.
    ///
    /// The bound is the request's deadline when one was set, otherwise 60
    /// seconds; use [`TxnHandle::wait_timeout`] for an explicit bound.
    pub fn wait(&self) -> Result<TxnOutcome, ApiError> {
        let timeout = match self.deadline_ms {
            Some(d) => Duration::from_millis(d.saturating_sub(self.clock.now_ms()).max(1)),
            None => DEFAULT_WAIT,
        };
        self.wait_timeout(timeout)
    }

    /// [`TxnHandle::wait`] with an explicit bound.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<TxnOutcome, ApiError> {
        // The record node is also where an alias would appear; once one is
        // followed, the watch moves to the target's record.
        let node = || layout::txn(self.resolved_id());
        watch_then_wait(self.client, timeout, node, || self.try_outcome())?
            .ok_or(ApiError::WaitTimeout { id: self.id })
    }
}

/// The event-driven wait behind every blocking read of one znode: `probe`,
/// arm one watch on `node`, probe again (a write landing between the first
/// probe and the watch would otherwise be missed), then block on the
/// client's event channel for the rest of the window. Watches are one-shot,
/// so each event re-probes and re-arms. `Ok(None)` once `timeout` passes.
fn watch_then_wait<T>(
    client: &CoordClient,
    timeout: Duration,
    node: impl Fn() -> Path,
    probe: impl Fn() -> Result<Option<T>, ApiError>,
) -> Result<Option<T>, ApiError> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        if let Some(found) = probe()? {
            return Ok(Some(found));
        }
        let now = std::time::Instant::now();
        if now >= deadline {
            return Ok(None);
        }
        client.watch(&node(), WatchKind::Node)?;
        if let Some(found) = probe()? {
            return Ok(Some(found));
        }
        let _ = client.wait_event(deadline - now);
    }
}

fn outcome_of(id: TxnId, rec: &TxnRecord) -> TxnOutcome {
    TxnOutcome {
        id,
        state: rec.state,
        error: rec.error.clone(),
        abort_code: rec.abort_code,
        latency_ms: rec.latency_ms().unwrap_or(0),
    }
}

// ---------------------------------------------------------------------
// Event subscriptions.
// ---------------------------------------------------------------------

/// One observed transaction lifecycle transition.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TxnEvent {
    /// The transaction.
    pub id: TxnId,
    /// Stored-procedure name.
    pub proc_name: String,
    /// The state the transaction was observed entering.
    pub state: TxnState,
    /// Scheduling lane.
    pub priority: Priority,
    /// Observation timestamp (platform clock, ms).
    pub at_ms: u64,
    /// Failure description, for terminal failures.
    pub error: Option<String>,
}

/// A streaming feed of [`TxnEvent`]s, produced by a dedicated
/// coordination session that watches the transaction-record subtree.
///
/// Delivery is *eventually consistent and coalescing*: every transaction's
/// terminal state is always delivered, but a fast intermediate transition
/// (e.g. `Accepted` → `Started` within one watch window) may be observed
/// only as its latest state. Dropping the subscription stops the feed.
pub struct Subscription {
    rx: mpsc::Receiver<TxnEvent>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

static SUBSCRIBER_SEQ: AtomicU64 = AtomicU64::new(0);

impl Subscription {
    pub(crate) fn start(coord: Arc<CoordService>, clock: SharedClock) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let (tx, rx) = mpsc::channel();
        let name = format!(
            "tropic-subscriber-{}",
            SUBSCRIBER_SEQ.fetch_add(1, Ordering::SeqCst)
        );
        let thread = std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || subscription_thread(&coord, &name, clock, &stop2, &tx))
            .expect("spawn subscription thread");
        Subscription {
            rx,
            stop,
            thread: Some(thread),
        }
    }

    /// Returns the next buffered event without blocking.
    pub fn try_recv(&self) -> Option<TxnEvent> {
        self.rx.try_recv().ok()
    }

    /// Blocks up to `timeout` for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<TxnEvent> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Drains every currently-buffered event.
    pub fn drain(&self) -> Vec<TxnEvent> {
        let mut out = Vec::new();
        while let Some(ev) = self.try_recv() {
            out.push(ev);
        }
        out
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn subscription_thread(
    coord: &CoordService,
    name: &str,
    clock: SharedClock,
    stop: &AtomicBool,
    tx: &mpsc::Sender<TxnEvent>,
) {
    let client = coord.connect(name);
    let _keepalive = client.keepalive();
    let mut last_seen: HashMap<TxnId, TxnState> = HashMap::new();
    // Record watches currently armed, so idle loops skip re-reading records
    // that cannot have changed.
    let mut armed_nodes: HashSet<Path> = HashSet::new();
    while !stop.load(Ordering::SeqCst) {
        // Arm the subtree watch first so a record landing between the scan
        // and the wait still wakes us (re-arming a pending watch is a no-op).
        if client.watch(&layout::txns(), WatchKind::Children).is_err() && client.ping().is_err() {
            return;
        }
        if scan_records(&client, &clock, &mut last_seen, &mut armed_nodes, tx).is_err() {
            // Session or quorum trouble: the feed cannot continue on a
            // dead session; end the stream (receivers see a closed
            // channel).
            if client.ping().is_err() {
                return;
            }
        }
        // Block on the event channel; the bounded slice only caps how long
        // a missed watch (armed after the triggering write) goes unnoticed.
        if let Some(fired) = client.wait_event(Duration::from_millis(200)) {
            // A fired record watch is one-shot: mark it for re-arming.
            if let tropic_coord::StoreEvent::Created(p)
            | tropic_coord::StoreEvent::Deleted(p)
            | tropic_coord::StoreEvent::DataChanged(p) = fired.event
            {
                armed_nodes.remove(&p);
            }
        }
    }
    client.close();
}

fn scan_records(
    client: &CoordClient,
    clock: &SharedClock,
    last_seen: &mut HashMap<TxnId, TxnState>,
    armed_nodes: &mut HashSet<Path>,
    tx: &mpsc::Sender<TxnEvent>,
) -> Result<(), CoordError> {
    let mut ids: Vec<TxnId> = client
        .get_children(&layout::txns())?
        .into_iter()
        .filter_map(|name| name.parse::<TxnId>().ok())
        .filter(|id| *id < crate::controller::ADMIN_TXN_BASE)
        .collect();
    ids.sort_unstable();
    let mut present: HashSet<TxnId> = HashSet::new();
    for id in ids {
        present.insert(id);
        // Terminal states never change again; skip the read entirely.
        if last_seen.get(&id).map(TxnState::is_final).unwrap_or(false) {
            continue;
        }
        // Alias nodes parse as `None` here and are skipped: the original
        // transaction's own record produces the events.
        let Some(rec) = client.get_json::<TxnRecord>(&layout::txn(id))? else {
            continue;
        };
        let changed = last_seen.get(&id) != Some(&rec.state);
        if changed {
            last_seen.insert(id, rec.state);
            let _ = tx.send(TxnEvent {
                id,
                proc_name: rec.proc_name.clone(),
                state: rec.state,
                priority: rec.priority,
                at_ms: clock.now_ms(),
                error: rec.error.clone(),
            });
        }
        if !rec.state.is_final() {
            // Data watch so an in-place state transition (same child set)
            // wakes the scan; armed at most once until it fires.
            let path = layout::txn(id);
            if !armed_nodes.contains(&path) && client.watch(&path, WatchKind::Node).is_ok() {
                armed_nodes.insert(path);
            }
        }
    }
    // Forget garbage-collected records (and their pending watch marks).
    last_seen.retain(|id, _| present.contains(id));
    armed_nodes.retain(|path| {
        path.leaf()
            .and_then(|name| name.parse::<TxnId>().ok())
            .map(|id| present.contains(&id))
            .unwrap_or(false)
    });
    Ok(())
}

// ---------------------------------------------------------------------
// Operator plane.
// ---------------------------------------------------------------------

/// The operator-facing client: reconciliation (`repair`/`reload`, paper
/// §4) and transaction signals, split off from the submission path so the
/// data plane and the control plane evolve independently. Obtain one with
/// [`crate::Tropic::admin`].
pub struct AdminClient {
    coord: Arc<CoordService>,
    client: CoordClient,
    _keepalive: tropic_coord::KeepAlive,
    next_admin_id: Arc<AtomicU64>,
    clock: SharedClock,
}

impl AdminClient {
    pub(crate) fn new(
        coord: Arc<CoordService>,
        name: &str,
        next_admin_id: Arc<AtomicU64>,
        clock: SharedClock,
    ) -> Self {
        let client = coord.connect(name);
        let keepalive = client.keepalive();
        AdminClient {
            coord,
            client,
            _keepalive: keepalive,
            next_admin_id,
            clock,
        }
    }

    /// Runs `repair` over `scope` (push the logical layer's view onto
    /// drifted devices), blocking up to `timeout` for the result.
    pub fn repair(&self, scope: &Path, timeout: Duration) -> Result<AdminResult, ApiError> {
        self.admin_op(scope, timeout, true)
    }

    /// Runs `reload` over `scope` (replace the logical subtree with
    /// freshly-retrieved physical state), blocking up to `timeout`.
    pub fn reload(&self, scope: &Path, timeout: Duration) -> Result<AdminResult, ApiError> {
        self.admin_op(scope, timeout, false)
    }

    /// Sends a TERM or KILL signal to a transaction (paper §4). Signals
    /// ride the high-priority lane so they overtake queued submissions.
    pub fn signal(&self, id: TxnId, signal: Signal) -> Result<(), ApiError> {
        self.enqueue(InputMsg::Signal { id, signal })
    }

    /// The platform created the lanes at boot, so the lane binds unprobed.
    fn enqueue(&self, msg: InputMsg) -> Result<(), ApiError> {
        let lane = DistributedQueue::bind(&self.client, layout::input_lane(Priority::High));
        lane.enqueue(encode_input(msg))?;
        Ok(())
    }

    fn admin_op(
        &self,
        scope: &Path,
        timeout: Duration,
        repair: bool,
    ) -> Result<AdminResult, ApiError> {
        let admin_id = self.enqueue_admin(scope, repair)?;
        self.wait_admin(admin_id, timeout)
    }

    /// Enqueues one repair/reload request and returns its admin id, without
    /// waiting for the result. Split from [`AdminClient::wait_admin`] so a
    /// caller that must interleave the wait with its own cancellation
    /// checks (the RPC frontend's stop flag) can slice it without
    /// re-enqueueing the operation.
    pub(crate) fn enqueue_admin(&self, scope: &Path, repair: bool) -> Result<u64, ApiError> {
        let admin_id = self.next_admin_id.fetch_add(1, Ordering::SeqCst);
        let msg = if repair {
            InputMsg::Repair {
                scope: scope.clone(),
                admin_id,
            }
        } else {
            InputMsg::Reload {
                scope: scope.clone(),
                admin_id,
            }
        };
        self.enqueue(msg)?;
        Ok(admin_id)
    }

    /// Blocks up to `timeout` for the result of an already-enqueued admin
    /// operation. Safe to call repeatedly for the same id.
    pub(crate) fn wait_admin(
        &self,
        admin_id: u64,
        timeout: Duration,
    ) -> Result<AdminResult, ApiError> {
        let node = || layout::admin(admin_id);
        let probe = || Ok(self.client.get_json::<AdminResult>(&node())?);
        watch_then_wait(&self.client, timeout, node, probe)?
            .ok_or(ApiError::WaitTimeout { id: admin_id })
    }

    /// The platform clock (for computing absolute deadlines).
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }
}

impl Drop for AdminClient {
    /// Like [`crate::TropicClient`], a handle: its session ends with it.
    fn drop(&mut self) {
        self.coord.expire_session(self.client.session_id());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_drain_order_and_lanes() {
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::ALL.map(|p| p.lane()), ["hi", "norm", "batch"]);
        for (i, p) in Priority::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert!(Priority::High < Priority::Normal && Priority::Normal < Priority::Batch);
    }

    #[test]
    fn priority_serde_roundtrip() {
        for p in Priority::ALL {
            let json = serde_json::to_vec(&p).unwrap();
            let back: Priority = serde_json::from_slice(&json).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn retryable_partition() {
        assert!(ApiError::WaitTimeout { id: 1 }.retryable());
        assert!(ApiError::Coordination("quorum lost".into()).retryable());
        assert!(ApiError::ShuttingDown.retryable());
        assert!(ApiError::Transport("connection reset".into()).retryable());
        assert!(!ApiError::DeadlineExceeded { id: 1 }.retryable());
        assert!(!ApiError::UnknownProcedure("x".into()).retryable());
        assert!(!ApiError::InvalidRequest("empty".into()).retryable());
        assert!(!ApiError::Killed { id: 1 }.retryable());
        assert!(!ApiError::Admin("failed".into()).retryable());
        assert!(!ApiError::UnsupportedWireVersion { version: 9 }.retryable());
    }

    #[test]
    fn api_error_serde_preserves_retryable_partition() {
        let errors = [
            ApiError::DeadlineExceeded { id: 1 },
            ApiError::UnknownProcedure("x".into()),
            ApiError::InvalidRequest("bad".into()),
            ApiError::Killed { id: 2 },
            ApiError::WaitTimeout { id: 3 },
            ApiError::Coordination("lost".into()),
            ApiError::ShuttingDown,
            ApiError::Admin("failed".into()),
            ApiError::UnsupportedWireVersion { version: 9 },
            ApiError::Transport("reset".into()),
        ];
        for err in errors {
            let bytes = serde_json::to_vec(&err).unwrap();
            let back: ApiError = serde_json::from_slice(&bytes).unwrap();
            assert_eq!(back, err);
            assert_eq!(back.retryable(), err.retryable());
        }
    }

    /// Reserved-variant contract: a v1 server may still send it, so the
    /// exact wire form must keep decoding, displaying and classifying.
    #[test]
    fn reserved_lease_expired_still_decodes_and_is_retryable() {
        let wire = br#"{"LeaseExpired":{"observer":3}}"#;
        let err: ApiError = serde_json::from_slice(wire).unwrap();
        assert_eq!(err, ApiError::LeaseExpired { observer: 3 });
        assert!(err.retryable());
        assert!(err.to_string().contains('3'));
        assert_eq!(serde_json::to_vec(&err).unwrap(), wire);
    }

    #[test]
    fn wire_error_lifts_typed() {
        let e: ApiError = crate::msg::WireError::UnsupportedVersion(7).into();
        assert_eq!(e, ApiError::UnsupportedWireVersion { version: 7 });
        assert!(!e.retryable());
        let e: ApiError = crate::msg::WireError::Malformed("junk".into()).into();
        assert!(matches!(e, ApiError::InvalidRequest(_)));
    }

    #[test]
    fn outcome_lifts_abort_codes() {
        let mut rec = TxnRecord::new(9, "spawnVM", vec![], 0);
        rec.state = TxnState::Aborted;
        rec.abort_code = Some(AbortCode::DeadlineExpired);
        let out = outcome_of(9, &rec);
        let err = out.api_error().expect("typed error");
        assert_eq!(err, ApiError::DeadlineExceeded { id: 9 });
        assert!(!err.retryable());

        rec.abort_code = None;
        rec.error = Some("no capacity".into());
        assert_eq!(
            outcome_of(9, &rec).api_error(),
            None,
            "logic aborts are not API errors"
        );
    }

    #[test]
    fn request_builder_lowers_to_wire_msg() {
        let req = TxnRequest::new("spawnVM")
            .arg("vm1")
            .args(vec![Value::Int(2_048)])
            .priority(Priority::Batch)
            .deadline(Duration::from_millis(500))
            .idempotency_key("k")
            .label("tenant", "acme");
        assert_eq!(req.proc_name(), "spawnVM");
        assert_eq!(req.priority_lane(), Priority::Batch);
        let (msg, deadline) = req.into_msg(3, 1_000).unwrap();
        assert_eq!(deadline, Some(1_500));
        match msg {
            InputMsg::Submit {
                id,
                proc_name,
                args,
                priority,
                deadline_ms,
                idempotency_key,
                labels,
                submitted_ms,
            } => {
                assert_eq!((id, submitted_ms), (3, 1_000));
                assert_eq!(proc_name, "spawnVM");
                assert_eq!(args, vec![Value::from("vm1"), Value::Int(2_048)]);
                assert_eq!(priority, Priority::Batch);
                assert_eq!(deadline_ms, Some(1_500));
                assert_eq!(idempotency_key.as_deref(), Some("k"));
                assert_eq!(labels.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn txn_request_serde_roundtrip() {
        let req = TxnRequest::new("spawnVM")
            .arg("vm1")
            .priority(Priority::High)
            .deadline(Duration::from_millis(750))
            .idempotency_key("k")
            .label("tenant", "acme");
        let bytes = serde_json::to_vec(&req).unwrap();
        let back: TxnRequest = serde_json::from_slice(&bytes).unwrap();
        let (msg_a, dl_a) = req.into_msg(5, 1_000).unwrap();
        let (msg_b, dl_b) = back.into_msg(5, 1_000).unwrap();
        assert_eq!(dl_a, dl_b);
        assert_eq!(
            serde_json::to_vec(&msg_a).unwrap(),
            serde_json::to_vec(&msg_b).unwrap(),
            "wire roundtrip lowers to the identical queue message"
        );
    }

    #[test]
    fn absolute_deadline_overrides_relative() {
        let req = TxnRequest::new("p")
            .deadline(Duration::from_secs(10))
            .deadline_at(42);
        let (_, deadline) = req.into_msg(1, 1_000).unwrap();
        assert_eq!(deadline, Some(42));
    }

    #[test]
    fn empty_proc_name_is_invalid() {
        let err = TxnRequest::new("").into_msg(1, 0).unwrap_err();
        assert!(matches!(err, ApiError::InvalidRequest(_)));
        assert!(!err.retryable());
    }
}
