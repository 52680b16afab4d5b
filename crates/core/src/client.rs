//! The client: one [`TropicClient`] over two transports.
//!
//! TROPIC's controllers are a shared service (paper §3). A client reaches
//! them either **in-process**, on a coordination session of its own
//! ([`crate::Tropic::client`]), or **over a TCP socket** to an
//! [`RpcServer`](crate::rpc::RpcServer) ([`TropicClient::connect`]). Both
//! transports speak one operation list, the wire enums [`RpcRequest`] and
//! [`RpcResponse`], so submit, wait, signal, repair, reload and subscribe
//! exist once, as do [`TxnHandle`] and [`Subscription`]:
//!
//! * in-process, the enums are built and matched in memory only: nothing
//!   is encoded, cloned or handed to another thread;
//! * over the socket, each call is one framed request and one framed reply
//!   on the client's connection, and the server answers it with the same
//!   in-process transport.
//!
//! [`ApiError`] is the error of both, with the same variants and the same
//! [`ApiError::retryable`] partition; transport-level failures surface as
//! the retryable [`ApiError::Transport`].

#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tropic_coord::{
    write_frame, CoordClient, CoordError, DistributedQueue, FrameError, FrameReader, KeepAlive,
    WatchKind, DEFAULT_MAX_FRAME_BYTES,
};
use tropic_model::{Path, SharedClock, Wake};

use crate::api::{outcome_of, ApiError, Priority, TxnEvent, TxnRequest};
use crate::codec::{decode_admin_result, decode_record_node, read, read_record, RecordNode};
use crate::msg::{encode_input, layout, AdminResult, InputMsg, Signal};
use crate::platform::{PlatformShared, RETRY_MS};
use crate::rpc::{decode_response, encode_request, transport, RpcRequest, RpcResponse};
use crate::twin::TwinEvent;
use crate::txn::{TxnId, TxnOutcome, TxnRecord, TxnState};

/// Response bound for calls the server answers without blocking.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);
/// Fallback wait bound for handles whose request carries no deadline.
const DEFAULT_WAIT: Duration = Duration::from_secs(60);
/// Bound on a connect attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Extra slack granted on top of a blocking call's own timeout before the
/// client declares the transport dead.
const READ_GRACE: Duration = Duration::from_secs(10);
/// Socket read timeout: reply and feed loops re-check their deadline or
/// stop flag at least this often.
const READ_SLICE: Duration = Duration::from_millis(50);
/// Bound on any single socket write: a peer that stopped reading (full
/// kernel send buffer) fails the write instead of pinning the thread.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// The value of the one response variant a call expects; any other reply
/// is a protocol violation.
macro_rules! reply {
    ($resp:expr, $variant:pat => $value:expr) => {
        match $resp {
            $variant => Ok($value),
            other => Err(ApiError::Transport(format!(
                "protocol violation: unexpected response {other:?}"
            ))),
        }
    };
}

/// A client of a TROPIC platform: submit transactions and await their
/// outcomes, run the operator plane, and stream events.
///
/// Open one in-process with [`crate::Tropic::client`] (or
/// [`crate::Tropic::admin`]), or over the network with
/// [`TropicClient::connect`]; every method behaves the same on both.
///
/// An in-process client pins its own coordination session, so it survives
/// arbitrary idle periods, and ends the session when dropped. A socket
/// client runs its calls in lockstep over one connection (a long
/// [`TxnHandle::wait`] holds the line), so open one per concurrent caller:
/// each gets its own coordination session server-side. A connection that
/// can no longer correlate replies (response timeout, damaged frame,
/// server close) is retired and re-dialed on the next call.
pub struct TropicClient {
    transport: Transport,
}

/// The name `benchmark/` still uses for a socket client. It exists only
/// for that package and goes with its next edit.
pub type RemoteClient = TropicClient;

enum Transport {
    Local(Local),
    Socket(Socket),
}

impl TropicClient {
    pub(crate) fn local(shared: PlatformShared, name: &str) -> Self {
        TropicClient {
            transport: Transport::Local(Local::open(shared, name)),
        }
    }

    /// Connects to a serving [`RpcServer`](crate::rpc::RpcServer).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ApiError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(transport)?
            .next()
            .ok_or_else(|| ApiError::Transport("address resolved to nothing".into()))?;
        let conn = Socket::dial(&addr)?;
        Ok(TropicClient {
            transport: Transport::Socket(Socket {
                addr,
                io: Mutex::new(Some(conn)),
            }),
        })
    }

    /// One call; `timeout` bounds a socket reply (plus grace).
    fn call(&self, req: RpcRequest, timeout: Duration) -> Result<RpcResponse, ApiError> {
        match &self.transport {
            Transport::Local(local) => local.call(req),
            Transport::Socket(socket) => socket.call(req, timeout),
        }
    }

    /// Submits a typed request (paper Figure 2, step 1): it is enqueued on
    /// its priority's input lane, and the platform assigns the transaction
    /// id. Returns a [`TxnHandle`] immediately.
    pub fn submit_request(&self, request: TxnRequest) -> Result<TxnHandle<'_>, ApiError> {
        reply!(self.call(RpcRequest::Submit(request), CALL_TIMEOUT)?,
            RpcResponse::Submitted { id, deadline_ms } => self.handle_at(id, deadline_ms))
    }

    /// Submits several requests as **one atomic enqueue**: a single
    /// coordination-store multi lands every submission (each on its own
    /// priority lane) or none of them. Returns one handle per request, in
    /// order.
    pub fn submit_batch(&self, requests: Vec<TxnRequest>) -> Result<Vec<TxnHandle<'_>>, ApiError> {
        let handles = reply!(self.call(RpcRequest::SubmitBatch(requests), CALL_TIMEOUT)?,
            RpcResponse::SubmittedBatch { handles } => handles)?;
        Ok(handles
            .into_iter()
            .map(|(id, dl)| self.handle_at(id, dl))
            .collect())
    }

    /// Re-attaches a handle to an already-submitted transaction id — e.g.
    /// one submitted before a crash and resumed by
    /// [`crate::Tropic::recover`], or an id shared across processes.
    pub fn handle(&self, id: TxnId) -> TxnHandle<'_> {
        self.handle_at(id, None)
    }

    fn handle_at(&self, id: TxnId, deadline_ms: Option<u64>) -> TxnHandle<'_> {
        TxnHandle {
            client: self,
            id,
            deadline_ms,
        }
    }

    /// Reads the full durable record of a transaction, if still retained.
    pub fn txn_record(&self, id: TxnId) -> Result<Option<TxnRecord>, ApiError> {
        reply!(self.call(RpcRequest::Record { id }, CALL_TIMEOUT)?,
            RpcResponse::Record(rec) => rec.map(|b| *b))
    }

    /// Liveness probe; returns the platform clock (ms), which is how a
    /// caller computes absolute deadlines.
    pub fn ping(&self) -> Result<u64, ApiError> {
        reply!(self.call(RpcRequest::Ping, CALL_TIMEOUT)?, RpcResponse::Pong { now_ms } => now_ms)
    }

    /// Runs `repair` over `scope` (push the logical layer's view onto
    /// drifted devices, paper §4), blocking up to `timeout` for the result.
    pub fn repair(&self, scope: &Path, timeout: Duration) -> Result<AdminResult, ApiError> {
        let (scope, timeout_ms) = (scope.clone(), millis(timeout));
        let req = RpcRequest::Repair { scope, timeout_ms };
        reply!(self.call(req, timeout)?, RpcResponse::Admin(result) => result)
    }

    /// Runs `reload` over `scope` (replace the logical subtree with
    /// freshly-retrieved physical state), blocking up to `timeout`.
    pub fn reload(&self, scope: &Path, timeout: Duration) -> Result<AdminResult, ApiError> {
        let (scope, timeout_ms) = (scope.clone(), millis(timeout));
        let req = RpcRequest::Reload { scope, timeout_ms };
        reply!(self.call(req, timeout)?, RpcResponse::Admin(result) => result)
    }

    /// Sends a TERM or KILL signal to a transaction (paper §4). Signals
    /// ride the high-priority lane so they overtake queued submissions.
    pub fn signal(&self, id: TxnId, signal: Signal) -> Result<(), ApiError> {
        let req = RpcRequest::Signal { id, signal };
        reply!(self.call(req, CALL_TIMEOUT)?, RpcResponse::Signaled => ())
    }

    /// Opens a streaming feed of transaction lifecycle events: on its own
    /// coordination session in-process, on a dedicated connection over
    /// the socket.
    pub fn subscribe(&self) -> Result<Subscription<TxnEvent>, ApiError> {
        match &self.transport {
            Transport::Local(local) => {
                let (tx, rx) = mpsc::channel();
                let feed = txn_feed(&local.shared, move |ev| {
                    let _ = tx.send(ev);
                })?;
                Ok(Subscription {
                    rx,
                    feed: Some(feed),
                })
            }
            Transport::Socket(socket) => {
                socket.open_feed(RpcRequest::Subscribe, |resp| match resp {
                    RpcResponse::Event(ev) => Some(ev),
                    _ => None,
                })
            }
        }
    }

    /// Opens a streaming feed of digital-twin phase transitions.
    pub fn subscribe_twin(&self) -> Result<Subscription<TwinEvent>, ApiError> {
        match &self.transport {
            Transport::Local(local) => Ok(local.shared.twin_feed.subscribe()),
            Transport::Socket(socket) => {
                socket.open_feed(RpcRequest::SubscribeTwin, |resp| match resp {
                    RpcResponse::TwinEvent(ev) => Some(ev),
                    _ => None,
                })
            }
        }
    }

    /// Asks the serving process to shut down (see
    /// [`RpcServer::shutdown_requested`](crate::rpc::RpcServer::shutdown_requested)).
    /// An in-process client has no server to ask: the call fails with
    /// [`ApiError::InvalidRequest`].
    pub fn shutdown_server(&self) -> Result<(), ApiError> {
        reply!(self.call(RpcRequest::Shutdown, CALL_TIMEOUT)?, RpcResponse::ShutdownAck => ())
    }
}

fn millis(d: Duration) -> u64 {
    d.as_millis().min(u64::MAX as u128) as u64
}

// ---------------------------------------------------------------------
// Transaction handle.
// ---------------------------------------------------------------------

/// A handle to one submitted transaction, returned by
/// [`TropicClient::submit_request`]. Outcome reads follow idempotency
/// aliases transparently: the outcome's `id` is the id of the transaction
/// that actually ran.
pub struct TxnHandle<'c> {
    client: &'c TropicClient,
    id: TxnId,
    deadline_ms: Option<u64>,
}

impl TxnHandle<'_> {
    /// The id assigned to this submission. If the submission deduplicated
    /// onto an earlier transaction, the outcome carries that original id
    /// instead.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The admission deadline carried by the request, if any (platform
    /// clock, ms).
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    /// Non-blocking outcome poll: `Ok(Some(..))` once the transaction
    /// reached a terminal state, `Ok(None)` while still in flight.
    pub fn try_outcome(&self) -> Result<Option<TxnOutcome>, ApiError> {
        let req = RpcRequest::TryOutcome { id: self.id };
        reply!(self.client.call(req, CALL_TIMEOUT)?, RpcResponse::Outcome(outcome) => outcome)
    }

    /// Blocks until the transaction reaches a terminal state, driven by
    /// coordination watches on the record (no fixed-interval polling), for
    /// at most 60 seconds; use [`TxnHandle::wait_timeout`] for another
    /// bound.
    ///
    /// A request's deadline bounds its admission, not this wait: a request
    /// admitted too late still ends `Aborted` with
    /// [`AbortCode::DeadlineExpired`](crate::AbortCode::DeadlineExpired),
    /// written by the leader's next round, however long that takes to run.
    pub fn wait(&self) -> Result<TxnOutcome, ApiError> {
        self.wait_timeout(DEFAULT_WAIT)
    }

    /// [`TxnHandle::wait`] with an explicit bound. A zero bound polls: an
    /// already-finished transaction still answers.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<TxnOutcome, ApiError> {
        let req = RpcRequest::Wait {
            id: self.id,
            timeout_ms: millis(timeout),
        };
        reply!(self.client.call(req, timeout)?, RpcResponse::Outcome(outcome) => outcome)?
            .ok_or(ApiError::WaitTimeout { id: self.id })
    }
}

// ---------------------------------------------------------------------
// Event subscriptions.
// ---------------------------------------------------------------------

/// A streaming feed of `E`: transaction lifecycle events ([`TxnEvent`],
/// from [`TropicClient::subscribe`]) or digital-twin phase transitions
/// ([`TwinEvent`], from [`TropicClient::subscribe_twin`]). Dropping it ends
/// the feed.
///
/// Lifecycle delivery is *eventually consistent and coalescing*: every
/// transaction's terminal state is always delivered, but a fast
/// intermediate transition (e.g. `Accepted` → `Started` within one watch
/// window) may be observed only as its latest state.
pub struct Subscription<E> {
    rx: mpsc::Receiver<E>,
    /// The producer; `None` for a feed the in-process twin hub fills.
    feed: Option<FeedThread>,
}

impl<E> Subscription<E> {
    /// A feed filled through `rx` by a hub that outlives it.
    pub(crate) fn fed(rx: mpsc::Receiver<E>) -> Self {
        Subscription { rx, feed: None }
    }
}

/// A thread producing one feed. It runs its body until the body returns —
/// the result is the close reason — or until the handle drops, which
/// raises the body's stop flag and notifies `wake`, the wake its waits end
/// on.
pub(crate) struct FeedThread {
    stop: Arc<AtomicBool>,
    wake: Arc<Wake>,
    thread: Option<JoinHandle<()>>,
    close_reason: Arc<OnceLock<ApiError>>,
}

impl FeedThread {
    fn spawn(
        name: String,
        wake: Arc<Wake>,
        body: impl FnOnce(&AtomicBool) -> Option<ApiError> + Send + 'static,
    ) -> Result<Self, ApiError> {
        let stop = Arc::new(AtomicBool::new(false));
        let close_reason = Arc::new(OnceLock::new());
        let thread = {
            let (stop, close_reason) = (Arc::clone(&stop), Arc::clone(&close_reason));
            std::thread::Builder::new()
                .name(name)
                .spawn(move || {
                    if let Some(reason) = body(&stop) {
                        let _ = close_reason.set(reason);
                    }
                })
                .map_err(|e| {
                    ApiError::Transport(format!("cannot start a subscription thread: {e}"))
                })?
        };
        Ok(FeedThread {
            stop,
            wake,
            thread: Some(thread),
            close_reason,
        })
    }
}

impl Drop for FeedThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl<E> Subscription<E> {
    /// Returns the next buffered event without blocking.
    pub fn try_recv(&self) -> Option<E> {
        self.rx.try_recv().ok()
    }

    /// Blocks up to `timeout` for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<E> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Drains every currently-buffered event.
    pub fn drain(&self) -> Vec<E> {
        self.rx.try_iter().collect()
    }

    /// Whether the feed can still deliver new events. `false` once its
    /// source ended (the server closed the stream, or the feed's session
    /// died): buffered events remain readable, but nothing further will
    /// arrive — subscribe again to continue. An in-process twin feed lives
    /// as long as its platform.
    pub fn is_live(&self) -> bool {
        let thread = self.feed.as_ref().and_then(|f| f.thread.as_ref());
        thread.is_none_or(|t| !t.is_finished())
    }

    /// Why the server closed this feed, when it said so with a typed
    /// error frame before closing: [`ApiError::ShuttingDown`] for a
    /// planned stop (a pre-removal v1 server may also send the reserved,
    /// retryable [`ApiError::LeaseExpired`] — back off and resubscribe).
    /// `None` while the feed is live, and `None` after a close nobody
    /// explained (crash, cut network) — so callers can distinguish *all
    /// three* cases together with [`Subscription::is_live`]. See
    /// `docs/WIRE_PROTOCOL.md`, "Close reasons".
    pub fn close_reason(&self) -> Option<ApiError> {
        self.feed.as_ref()?.close_reason.get().cloned()
    }
}

static SUBSCRIBER_SEQ: AtomicU64 = AtomicU64::new(0);

/// Starts an in-process lifecycle feed: a thread with a coordination
/// session of its own watching the transaction-record subtree, handing
/// each event to `sink`.
pub(crate) fn txn_feed(
    shared: &PlatformShared,
    sink: impl Fn(TxnEvent) + Send + 'static,
) -> Result<FeedThread, ApiError> {
    let name = format!(
        "tropic-subscriber-{}",
        SUBSCRIBER_SEQ.fetch_add(1, Ordering::SeqCst)
    );
    let client = shared.coord.connect(&name);
    let clock = Arc::clone(&shared.clock);
    FeedThread::spawn(name, Arc::clone(client.wake()), move |stop| {
        let _keepalive = client.keepalive();
        watch_records(&client, &clock, stop, &sink);
        client.close();
        None
    })
}

/// Scans the records on every wake of the feed's session until `stop`.
/// The scan arms the watches — the subtree's, and one on each live record
/// — so it is the wait's arming step and there is nothing to probe.
fn watch_records(
    client: &CoordClient,
    clock: &SharedClock,
    stop: &AtomicBool,
    sink: &dyn Fn(TxnEvent),
) {
    let mut last_seen: HashMap<TxnId, TxnState> = HashMap::new();
    let stopped = || stop.load(Ordering::SeqCst);
    let mut scan = || {
        client.watch(&layout::txns(), WatchKind::Children)?;
        scan_records(client, clock, &mut last_seen, sink)
    };
    while !stopped() {
        match client.wait_watched(None, stopped, &mut scan, || Ok(None::<()>)) {
            // Quorum trouble on a live session: retry after a pause. The
            // feed cannot continue on a dead session; end the stream.
            Err(_) if client.ping().is_ok() => client.pause(RETRY_MS, stopped),
            _ => return,
        }
    }
}

fn scan_records(
    client: &CoordClient,
    clock: &SharedClock,
    last_seen: &mut HashMap<TxnId, TxnState>,
    sink: &dyn Fn(TxnEvent),
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
        // Alias nodes read as `None` here and are skipped: the original
        // transaction's own record produces the events.
        let Some(rec) = read_record(client, id)? else {
            continue;
        };
        let changed = last_seen.get(&id) != Some(&rec.state);
        if changed {
            last_seen.insert(id, rec.state);
            sink(TxnEvent {
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
            // wakes the scan; re-arming a pending one is a no-op.
            client.watch(&layout::txn(id), WatchKind::Node)?;
        }
    }
    // Forget garbage-collected records.
    last_seen.retain(|id, _| present.contains(id));
    Ok(())
}

// ---------------------------------------------------------------------
// In-process transport.
// ---------------------------------------------------------------------

/// The in-process transport: a pinned coordination session of its own,
/// plus the platform's shared id counters. It is also how the RPC server
/// answers every socket call.
pub(crate) struct Local {
    pub(crate) shared: PlatformShared,
    session: CoordClient,
    _keepalive: KeepAlive,
}

impl Local {
    /// Opens the transport on a fresh coordination session named `name`.
    pub(crate) fn open(shared: PlatformShared, name: &str) -> Self {
        let session = shared.coord.connect(name);
        let keepalive = session.keepalive();
        Local {
            shared,
            session,
            _keepalive: keepalive,
        }
    }

    /// Answers one call. `Wait`, `Repair` and `Reload` block for their
    /// whole bound; see [`Local::serve`] for the stoppable form.
    pub(crate) fn call(&self, req: RpcRequest) -> Result<RpcResponse, ApiError> {
        self.serve(req, &|| false)
    }

    /// [`Local::call`], with `Wait`, `Repair` and `Reload` also ended —
    /// with [`ApiError::ShuttingDown`] — once `stop()` holds and this
    /// transport's session wake is notified: the RPC server's bounds are
    /// wire-controlled and unclamped, so a stopping server must never be
    /// pinned by a remote caller's long bound. `Ping`, `Shutdown` and the
    /// subscriptions belong to the server.
    pub(crate) fn serve(
        &self,
        req: RpcRequest,
        stop: &dyn Fn() -> bool,
    ) -> Result<RpcResponse, ApiError> {
        Ok(match req {
            RpcRequest::Submit(request) => {
                let id = self.shared.next_txn_id.fetch_add(1, Ordering::SeqCst);
                let lane = self.lane(request.priority_lane());
                let (msg, deadline_ms) = request.into_msg(id, self.shared.clock.now_ms())?;
                lane.enqueue(encode_input(msg))?;
                RpcResponse::Submitted { id, deadline_ms }
            }
            RpcRequest::SubmitBatch(requests) => RpcResponse::SubmittedBatch {
                handles: self.submit_batch(requests)?,
            },
            RpcRequest::TryOutcome { id } => RpcResponse::Outcome(self.read_outcome(id, true)?.1),
            RpcRequest::Wait { id, timeout_ms } => {
                RpcResponse::Outcome(Some(self.wait_outcome(id, timeout_ms, stop)?))
            }
            RpcRequest::Record { id } => {
                RpcResponse::Record(read_record(&self.session, id)?.map(Box::new))
            }
            RpcRequest::Repair { scope, timeout_ms } => {
                RpcResponse::Admin(self.admin(scope, true, timeout_ms, stop)?)
            }
            RpcRequest::Reload { scope, timeout_ms } => {
                RpcResponse::Admin(self.admin(scope, false, timeout_ms, stop)?)
            }
            RpcRequest::Signal { id, signal } => {
                self.lane(Priority::High)
                    .enqueue(encode_input(InputMsg::Signal { id, signal }))?;
                RpcResponse::Signaled
            }
            RpcRequest::Ping => {
                self.session.ping()?;
                RpcResponse::Pong {
                    now_ms: self.shared.clock.now_ms(),
                }
            }
            other => {
                return Err(ApiError::InvalidRequest(format!(
                    "{other:?} is served only over a socket"
                )))
            }
        })
    }

    /// The platform created the lanes at boot, so a lane binds unprobed.
    fn lane(&self, priority: Priority) -> DistributedQueue<'_> {
        DistributedQueue::bind(&self.session, layout::input_lane(priority))
    }

    fn submit_batch(
        &self,
        requests: Vec<TxnRequest>,
    ) -> Result<Vec<(TxnId, Option<u64>)>, ApiError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let now = self.shared.clock.now_ms();
        let mut ops = Vec::with_capacity(requests.len());
        let mut handles = Vec::with_capacity(requests.len());
        for request in requests {
            let id = self.shared.next_txn_id.fetch_add(1, Ordering::SeqCst);
            let lane = self.lane(request.priority_lane());
            let (msg, deadline_ms) = request.into_msg(id, now)?;
            ops.push(lane.enqueue_op(encode_input(msg)));
            handles.push((id, deadline_ms));
        }
        self.session.multi(ops)?;
        Ok(handles)
    }

    /// Reads `id`'s outcome — `None` while in flight — and the id it was
    /// read under. With `follow`, an idempotency alias (persisted at the
    /// submission's own record path) is followed to the transaction that
    /// actually ran: one more read, the first time only.
    fn read_outcome(
        &self,
        id: TxnId,
        follow: bool,
    ) -> Result<(TxnId, Option<TxnOutcome>), ApiError> {
        let Some((data, _)) = self.session.get_data(&layout::txn(id))? else {
            return Ok((id, None));
        };
        match decode_record_node(&data) {
            Ok(RecordNode::Record(rec)) => {
                Ok((id, rec.state.is_final().then(|| outcome_of(id, &rec))))
            }
            Ok(RecordNode::Alias(alias)) if follow => self.read_outcome(alias.alias_of, false),
            _ => Ok((id, None)),
        }
    }

    fn wait_outcome(
        &self,
        id: TxnId,
        timeout_ms: u64,
        stop: &dyn Fn() -> bool,
    ) -> Result<TxnOutcome, ApiError> {
        // The record node is also where an alias appears; once one is
        // followed, the watch moves to the target's record.
        let target = std::cell::Cell::new(id);
        let probe = || {
            let (read, outcome) = self.read_outcome(target.get(), true)?;
            target.set(read);
            Ok(outcome)
        };
        self.watch_node(id, timeout_ms, stop, || layout::txn(target.get()), probe)
    }

    /// The wait behind every blocking read of one znode: `probe` until it
    /// finds something, with one watch on `node` re-armed after each
    /// event. Fails with `WaitTimeout` naming `id` once `timeout_ms`
    /// passes on the platform clock, and with `ShuttingDown` on a stop.
    fn watch_node<T>(
        &self,
        id: u64,
        timeout_ms: u64,
        stop: &dyn Fn() -> bool,
        node: impl Fn() -> Path,
        probe: impl FnMut() -> Result<Option<T>, ApiError>,
    ) -> Result<T, ApiError> {
        let deadline = self.shared.clock.now_ms().saturating_add(timeout_ms);
        let arm = || Ok(self.session.watch(&node(), WatchKind::Node)?);
        match self
            .session
            .wait_watched(Some(deadline), stop, arm, probe)?
        {
            Some(found) => Ok(found),
            None if stop() => Err(ApiError::ShuttingDown),
            None => Err(ApiError::WaitTimeout { id }),
        }
    }

    /// Enqueues one repair or reload, then waits for its result znode.
    fn admin(
        &self,
        scope: Path,
        repair: bool,
        timeout_ms: u64,
        stop: &dyn Fn() -> bool,
    ) -> Result<AdminResult, ApiError> {
        let admin_id = self.shared.next_admin_id.fetch_add(1, Ordering::SeqCst);
        let msg = if repair {
            InputMsg::Repair { scope, admin_id }
        } else {
            InputMsg::Reload { scope, admin_id }
        };
        self.lane(Priority::High).enqueue(encode_input(msg))?;
        let node = || layout::admin(admin_id);
        let probe = || Ok(read(&self.session, &node(), decode_admin_result)?);
        self.watch_node(admin_id, timeout_ms, stop, node, probe)
    }

    /// The session's wake, which a stopper of [`Local::serve`] notifies.
    pub(crate) fn wake(&self) -> &Arc<Wake> {
        self.session.wake()
    }
}

impl Drop for Local {
    /// A client is never a crash-drill subject: its session ends with it
    /// (for free, since it owns no ephemeral) instead of lingering until
    /// the timeout.
    fn drop(&mut self) {
        self.shared.coord.expire_session(self.session.session_id());
    }
}

// ---------------------------------------------------------------------
// Socket transport.
// ---------------------------------------------------------------------

/// The socket transport: one TCP connection, one call at a time.
struct Socket {
    addr: SocketAddr,
    /// `None` between a poisoned connection and the next call's re-dial.
    io: Mutex<Option<Conn>>,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

impl Socket {
    fn dial(addr: &SocketAddr) -> Result<Conn, ApiError> {
        let stream = TcpStream::connect_timeout(addr, CONNECT_TIMEOUT).map_err(transport)?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        stream
            .set_read_timeout(Some(READ_SLICE))
            .map_err(transport)?;
        Ok(Conn {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// One call over the client's connection, dialing it first if the
    /// last call retired it. Request/response correlation is positional
    /// (one reply per request, in order), so any failure that could leave
    /// a reply in flight — a response timeout, a damaged frame, a
    /// mid-frame close — **poisons** the connection: it is dropped, and
    /// the next call dials a fresh one. A stale reply can therefore never
    /// be read as the answer to a later call.
    fn call(&self, req: RpcRequest, timeout: Duration) -> Result<RpcResponse, ApiError> {
        // The io lock IS the line discipline: one in-flight call per
        // connection.
        let mut guard = self.io.lock();
        let conn = match guard.as_mut() {
            Some(conn) => conn,
            None => guard.insert(Self::dial(&self.addr)?),
        };
        conn.exchange(req, timeout).unwrap_or_else(|poisoned| {
            *guard = None;
            Err(poisoned)
        })
    }

    /// Opens a dedicated connection, switches it into an event stream
    /// with `subscribe`, and feeds every frame `pick` recognises as an `E`.
    fn open_feed<E: Send + 'static>(
        &self,
        subscribe: RpcRequest,
        pick: fn(RpcResponse) -> Option<E>,
    ) -> Result<Subscription<E>, ApiError> {
        let mut conn = Self::dial(&self.addr)?;
        // The mode-switch ack arrives before the socket goes to the feed
        // thread, so connect errors surface typed right here.
        reply!(conn.exchange(subscribe, CALL_TIMEOUT)??, RpcResponse::Subscribed => ())?;
        let (tx, rx) = mpsc::channel();
        // The thread reads the socket in `READ_SLICE`s and checks `stop`
        // between them, so its wake has no waiter.
        let feed = FeedThread::spawn(
            "tropic-remote-subscriber".into(),
            Arc::default(),
            move |stop| {
                while !stop.load(Ordering::SeqCst) {
                    match conn
                        .reader
                        .read_from(&mut conn.stream, DEFAULT_MAX_FRAME_BYTES)
                    {
                        // An error frame is the server's stated close reason.
                        Ok(Some(payload)) => match decode_response(&payload) {
                            Ok(RpcResponse::Error(e)) => return Some(e),
                            // Anything that is not an `E` is skipped: the
                            // stream must survive frames a newer server adds.
                            Ok(resp) => {
                                if pick(resp).is_some_and(|ev| tx.send(ev).is_err()) {
                                    return None; // receiver dropped
                                }
                            }
                            Err(_) => {}
                        },
                        Ok(None) => {}         // idle; keep listening
                        Err(_) => return None, // closed or damaged: end the feed
                    }
                }
                None
            },
        )?;
        Ok(Subscription {
            rx,
            feed: Some(feed),
        })
    }
}

impl Conn {
    /// Writes one request frame and reads one reply frame within `timeout`
    /// plus [`READ_GRACE`]. The outer error means the line is out of step
    /// (the connection must be retired); the inner result is the server's
    /// answer, an error frame included.
    fn exchange(
        &mut self,
        req: RpcRequest,
        timeout: Duration,
    ) -> Result<Result<RpcResponse, ApiError>, ApiError> {
        write_frame(&mut self.stream, &encode_request(req)?).map_err(transport)?;
        let deadline = Instant::now() + timeout + READ_GRACE;
        loop {
            match self
                .reader
                .read_from(&mut self.stream, DEFAULT_MAX_FRAME_BYTES)
            {
                Ok(Some(payload)) => {
                    return Ok(match decode_response(&payload).map_err(ApiError::from) {
                        Ok(RpcResponse::Error(e)) | Err(e) => Err(e),
                        Ok(ok) => Ok(ok),
                    });
                }
                // The server may still answer later; this stream can no
                // longer tell that stale reply apart from the next call's.
                Ok(None) if Instant::now() >= deadline => {
                    return Err(ApiError::Transport(
                        "timed out awaiting the RPC response".into(),
                    ));
                }
                Ok(None) => {}
                Err(FrameError::Closed) => {
                    return Err(ApiError::Transport("server closed the connection".into()));
                }
                // Permanent, mirroring the server's classification: a reply
                // past the frame cap fails identically on every retry.
                Err(e @ FrameError::Oversized { .. }) => {
                    return Err(ApiError::InvalidRequest(e.to_string()));
                }
                Err(e) => return Err(transport(e)),
            }
        }
    }
}
