//! Network RPC frontend: the typed client API over a socket.
//!
//! TROPIC's controller is a shared service clients reach over the network
//! (paper §3), not a library they link. This module puts the PR 4 client
//! surface on a TCP socket:
//!
//! * [`RpcServer`] — an event-driven socket server started with
//!   [`crate::Tropic::serve_rpc`]. One **reactor** thread runs a
//!   readiness-polling loop (`poll(2)` via the vendored `polling` shim)
//!   over every nonblocking connection; each connection is a small state
//!   machine around a [`FrameReader`] with buffered frame writes. Decoded
//!   requests are handed to a fixed dispatch pool (blocking calls get
//!   transient threads), and replies flow back to the reactor over a
//!   completion channel plus a self-pipe wake — so 10k idle subscriptions
//!   cost file descriptors, not threads (Welsh et al., SEDA, SOSP 2001).
//!   Subscription fan-out encodes each event **once** into a shared
//!   [`bytes::Bytes`] frame and clones the handle onto every subscriber's
//!   outbound queue.
//! * [`RemoteClient`] — a drop-in mirror of the in-process builder API:
//!   [`RemoteClient::submit_request`], [`RemoteClient::submit_batch`],
//!   [`RemoteHandle::wait`]/[`RemoteHandle::try_outcome`],
//!   [`RemoteClient::subscribe`] streaming [`TxnEvent`]s, and the operator
//!   plane via [`RemoteClient::admin`].
//!
//! A server that closes a stream on purpose says why with a typed error
//! frame first ([`ApiError::ShuttingDown`] for a planned stop); read it
//! with [`RemoteSubscription::close_reason`].
//!
//! ## Wire format
//!
//! Every message is one frame of the length-prefixed CRC-32 stream codec
//! the write-ahead log already uses on disk
//! ([`tropic_coord::frame`]): `[len: u32 LE][crc32: u32 LE][payload]`.
//! The payload is a versioned JSON envelope `{"v": 1, "msg": ...}` — the
//! same `v` and bump policy as [`crate::msg::Envelope`] ([`WIRE_VERSION`]).
//! The version is probed **at the frame boundary, before the payload is
//! parsed**: a future-version envelope is rejected with the typed
//! [`ApiError::UnsupportedWireVersion`], never misparsed. Partial reads
//! reassemble; corrupt CRCs and oversized length prefixes fail typed and
//! close the connection (the stream is unsynchronized past them).
//!
//! [`ApiError`] crosses the wire as itself — a remote caller sees the same
//! variants, and the same [`ApiError::retryable`] partition, as an
//! in-process one. Transport-level failures surface as the retryable
//! [`ApiError::Transport`].

#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use polling::{poll, PollFd, POLLIN, POLLOUT};
use serde::{Deserialize, Serialize};
use tropic_coord::{write_frame, FrameError, FrameReader, DEFAULT_MAX_FRAME_BYTES};
use tropic_model::Path;

use crate::api::{AdminClient, ApiError, TxnEvent, TxnRequest};
use crate::config::RpcConfig;
use crate::msg::{check_version, AdminResult, Signal, WireError, WIRE_VERSION};
use crate::platform::{PlatformShared, TropicClient};
use crate::twin::TwinEvent;
use crate::txn::{TxnId, TxnOutcome, TxnRecord};

/// Upper bound on the reactor's readiness-poll timeout: the event loop
/// wakes at least this often to re-check the shutdown flag even when no
/// socket is ready.
const REACTOR_POLL_MS: i32 = 20;
/// Size of the dispatch pool the reactor hands non-blocking requests to.
/// Each worker owns one coordination session; blocking calls (`Wait`,
/// `Repair`, `Reload`) run on transient threads instead so they can never
/// starve the pool. Small is right: the pool bounds *concurrency*, not
/// connections — 10k idle connections still cost zero threads.
const DISPATCH_THREADS: usize = 4;
/// Bound on a connect attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Response bound for calls the server answers without blocking.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);
/// Extra slack granted on top of a blocking call's own timeout before the
/// client declares the transport dead.
const READ_GRACE: Duration = Duration::from_secs(10);
/// Fallback wait bound for remote handles without a deadline (mirrors the
/// in-process default).
const DEFAULT_WAIT: Duration = Duration::from_secs(60);
/// Server-side slice for blocking waits, so shutdown is never delayed by a
/// long-waiting remote caller.
const WAIT_SLICE: Duration = Duration::from_millis(250);
/// Bound on any single socket write: a peer that stopped reading (full
/// kernel send buffer) fails the write instead of pinning the thread.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------
// Wire messages.
// ---------------------------------------------------------------------

/// One client→server call. `Submit`/`SubmitBatch` carry the *same*
/// [`TxnRequest`] the in-process builder produces.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum RpcRequest {
    /// Submit one request; the server assigns the transaction id.
    Submit(TxnRequest),
    /// Submit several requests as one atomic enqueue.
    SubmitBatch(Vec<TxnRequest>),
    /// Non-blocking outcome poll.
    TryOutcome {
        /// The transaction.
        id: TxnId,
    },
    /// Block server-side until the transaction finalizes or `timeout_ms`
    /// passes.
    Wait {
        /// The transaction.
        id: TxnId,
        /// Wait bound in milliseconds.
        timeout_ms: u64,
    },
    /// Fetch the full durable transaction record.
    Record {
        /// The transaction.
        id: TxnId,
    },
    /// Operator plane: reconcile physical state toward the logical layer.
    Repair {
        /// Subtree to reconcile.
        scope: Path,
        /// Result-wait bound in milliseconds.
        timeout_ms: u64,
    },
    /// Operator plane: replace the logical subtree with retrieved state.
    Reload {
        /// Subtree to reload.
        scope: Path,
        /// Result-wait bound in milliseconds.
        timeout_ms: u64,
    },
    /// Operator plane: signal an unresponsive transaction.
    Signal {
        /// The transaction.
        id: TxnId,
        /// TERM or KILL.
        signal: Signal,
    },
    /// Switch this connection into a one-way [`TxnEvent`] stream.
    Subscribe,
    /// Switch this connection into a one-way [`TwinEvent`] stream (digital
    /// twin phase transitions). Additive in wire version 1: pre-twin
    /// servers reject the frame as malformed without dropping the
    /// connection.
    SubscribeTwin,
    /// Liveness probe; the reply carries the platform clock.
    Ping,
    /// Ask the serving process to shut down (used by operational tooling
    /// and the CI smoke test for clean teardown).
    Shutdown,
}

/// One server→client reply, or a streamed subscription event.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum RpcResponse {
    /// A submission was enqueued.
    Submitted {
        /// Server-assigned transaction id.
        id: TxnId,
        /// Resolved admission deadline (platform clock, ms).
        deadline_ms: Option<u64>,
    },
    /// A batch was enqueued atomically.
    SubmittedBatch {
        /// `(id, deadline_ms)` per request, in submission order.
        handles: Vec<(TxnId, Option<u64>)>,
    },
    /// Outcome poll result: `None` while still in flight.
    Outcome(Option<TxnOutcome>),
    /// The durable transaction record, if still retained.
    Record(Option<Box<TxnRecord>>),
    /// An administrative operation's result.
    Admin(AdminResult),
    /// A signal was enqueued.
    Signaled,
    /// The connection is now an event stream.
    Subscribed,
    /// One streamed lifecycle event.
    Event(TxnEvent),
    /// One streamed digital-twin phase transition. Additive in wire
    /// version 1: pre-twin subscribers skip the unknown frame.
    TwinEvent(TwinEvent),
    /// Liveness reply.
    Pong {
        /// Platform clock (ms) when the server answered.
        now_ms: u64,
    },
    /// The server acknowledged a shutdown request.
    ShutdownAck,
    /// The call failed; the payload preserves the retryable partition.
    Error(ApiError),
}

#[derive(Serialize, Deserialize)]
struct RequestEnvelope {
    v: u32,
    msg: RpcRequest,
}

#[derive(Serialize, Deserialize)]
struct ResponseEnvelope {
    v: u32,
    msg: RpcResponse,
}

/// Encodes a call in the current versioned envelope. Fails (as
/// [`ApiError::InvalidRequest`]) only if the request itself cannot be
/// serialized, which a well-formed [`RpcRequest`] never is.
pub fn encode_request(msg: RpcRequest) -> Result<Vec<u8>, ApiError> {
    serde_json::to_vec(&RequestEnvelope {
        v: WIRE_VERSION,
        msg,
    })
    .map_err(|e| ApiError::InvalidRequest(format!("unserializable request: {e}")))
}

/// Encodes a reply in the current versioned envelope.
pub fn encode_response(msg: RpcResponse) -> Result<Vec<u8>, ApiError> {
    serde_json::to_vec(&ResponseEnvelope {
        v: WIRE_VERSION,
        msg,
    })
    .map_err(|e| ApiError::Transport(format!("unserializable response: {e}")))
}

/// Server-side encoding that cannot fail: an unserializable response
/// degrades to an error envelope (and, should even that fail, to a
/// hand-built one whose shape needs no serializer), so the client sees a
/// well-formed error frame instead of a silently dropped connection.
fn encode_response_or_error(msg: RpcResponse) -> Vec<u8> {
    match encode_response(msg) {
        Ok(bytes) => bytes,
        Err(e) => encode_response(RpcResponse::Error(e)).unwrap_or_else(|_| {
            format!(
                r#"{{"v":{WIRE_VERSION},"msg":{{"Error":{{"Transport":"response encoding failed"}}}}}}"#
            )
            .into_bytes()
        }),
    }
}

/// Decodes a call, rejecting future versions at the boundary.
pub fn decode_request(bytes: &[u8]) -> Result<RpcRequest, WireError> {
    check_version(bytes)?;
    serde_json::from_slice::<RequestEnvelope>(bytes)
        .map(|e| e.msg)
        .map_err(|e| WireError::Malformed(e.to_string()))
}

/// Decodes a reply, rejecting future versions at the boundary.
pub fn decode_response(bytes: &[u8]) -> Result<RpcResponse, WireError> {
    check_version(bytes)?;
    serde_json::from_slice::<ResponseEnvelope>(bytes)
        .map(|e| e.msg)
        .map_err(|e| WireError::Malformed(e.to_string()))
}

fn transport(e: impl std::fmt::Display) -> ApiError {
    ApiError::Transport(e.to_string())
}

// ---------------------------------------------------------------------
// Server: the readiness-polling reactor.
// ---------------------------------------------------------------------

/// Cap on one connection's queued outbound bytes. A subscriber that stops
/// reading while events keep flowing is a slow consumer; past this bound
/// its connection is closed rather than ballooning server memory.
const OUTBOUND_CAP_BYTES: usize = 16 << 20;
/// Bound on the per-connection blocking flush performed at teardown, so
/// the final typed frames (`ShuttingDown`, in-flight replies) reach peers
/// without a stalled one pinning shutdown.
const TEARDOWN_FLUSH_TIMEOUT: Duration = Duration::from_secs(2);

/// Which one-way event feed a streaming connection subscribed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Feed {
    /// Transaction lifecycle events ([`TxnEvent`]).
    Txn,
    /// Digital-twin phase transitions ([`TwinEvent`]).
    Twin,
}

/// What a connection currently is: a request/reply line, or (after a
/// `Subscribe`/`SubscribeTwin` mode switch) a one-way event stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnMode {
    Request,
    Stream(Feed),
}

/// Per-connection state machine: a nonblocking socket, the incremental
/// frame reassembler, and a queue of encoded outbound frames. The queue
/// holds shared [`Bytes`] handles — broadcast fan-out encodes each event
/// once and clones the handle here per subscriber.
struct ConnState {
    stream: TcpStream,
    reader: FrameReader,
    /// Encoded frames awaiting the socket; `out_pos` is the write offset
    /// into the front frame, `out_bytes` the queued total.
    outbound: VecDeque<Bytes>,
    out_pos: usize,
    out_bytes: usize,
    mode: ConnMode,
    /// One request dispatched at a time per connection: replies correlate
    /// positionally, so the next pending request waits for the current
    /// dispatch's completion.
    inflight: bool,
    /// Requests decoded but not yet dispatched (a pipelining client).
    pending: VecDeque<RpcRequest>,
    /// Close once `outbound` drains — set after a typed reject whose
    /// error frame must still reach the peer.
    close_after_flush: bool,
    dead: bool,
}

impl ConnState {
    /// Whether a broadcast on `feed` goes to this connection.
    fn streams(&self, feed: Feed) -> bool {
        self.mode == ConnMode::Stream(feed) && !self.dead && !self.close_after_flush
    }

    fn new(stream: TcpStream) -> Self {
        ConnState {
            stream,
            reader: FrameReader::new(),
            outbound: VecDeque::new(),
            out_pos: 0,
            out_bytes: 0,
            mode: ConnMode::Request,
            inflight: false,
            pending: VecDeque::new(),
            close_after_flush: false,
            dead: false,
        }
    }

    fn enqueue(&mut self, frame: Bytes) {
        if self.out_bytes.saturating_add(frame.len()) > OUTBOUND_CAP_BYTES {
            self.dead = true;
            return;
        }
        self.out_bytes += frame.len();
        self.outbound.push_back(frame);
    }

    /// Writes queued frames until the socket would block or the queue
    /// drains; a write failure (or a drained queue under
    /// `close_after_flush`) retires the connection.
    fn flush(&mut self) {
        while let Some(front) = self.outbound.front() {
            let unsent = front.get(self.out_pos..).unwrap_or_default();
            match self.stream.write(unsent) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.out_pos += n;
                    if self.out_pos == front.len() {
                        let len = front.len();
                        self.out_pos = 0;
                        self.out_bytes -= len;
                        self.outbound.pop_front();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.close_after_flush {
            self.dead = true;
        }
    }

    fn wants_pollout(&self) -> bool {
        !self.outbound.is_empty()
    }
}

/// Encodes a reply and frames it into one shared, reference-counted
/// buffer.
fn frame_response(resp: RpcResponse) -> Bytes {
    let payload = encode_response_or_error(resp);
    let mut framed = Vec::with_capacity(payload.len() + 8);
    // Writing into a Vec cannot fail.
    let _ = write_frame(&mut framed, &payload);
    Bytes::copy_from_slice(&framed)
}

/// A completion flowing back into the reactor from a dispatch worker, a
/// transient wait thread, or an event-feed pump.
enum Wake {
    /// The reply to one dispatched request, for one connection.
    Reply { token: u64, frame: Bytes },
    /// One event frame, encoded once, for every subscriber of `feed`.
    Broadcast { feed: Feed, frame: Bytes },
}

/// Completion-channel handle handed to dispatch workers and feed pumps: a
/// message plus one self-pipe byte, so a sleeping `poll(2)` wakes
/// immediately instead of at the next timeout tick.
#[derive(Clone)]
struct DoneTx {
    tx: crossbeam::channel::Sender<Wake>,
    pipe: Arc<UnixStream>,
}

impl DoneTx {
    fn send(&self, wake: Wake) {
        let _ = self.tx.send(wake);
        // A full (nonblocking) pipe already guarantees a pending wake.
        let _ = (&*self.pipe).write(&[1u8]);
    }
}

/// One queued unit of pool dispatch.
struct Job {
    token: u64,
    req: RpcRequest,
}

/// Calls that block toward a caller-controlled deadline. The reactor runs
/// these on transient threads so a herd of long waits can never occupy
/// the fixed dispatch pool.
fn is_blocking(req: &RpcRequest) -> bool {
    matches!(
        req,
        RpcRequest::Wait { .. } | RpcRequest::Repair { .. } | RpcRequest::Reload { .. }
    )
}

/// The listening RPC frontend. Dropping (or [`RpcServer::stop`]ping) it
/// wakes the reactor, which closes every connection and joins the
/// dispatch pool; stop the server **before** shutting the platform down
/// so in-flight dispatches finish against a live controller.
pub struct RpcServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shutdown_requested: Arc<AtomicBool>,
    reactor: Option<JoinHandle<()>>,
}

impl RpcServer {
    pub(crate) fn start(shared: PlatformShared, cfg: RpcConfig) -> Result<Self, ApiError> {
        let listener = TcpListener::bind(&cfg.addr).map_err(transport)?;
        listener.set_nonblocking(true).map_err(transport)?;
        let addr = listener.local_addr().map_err(transport)?;
        let stop = Arc::new(AtomicBool::new(false));
        let shutdown_requested = Arc::new(AtomicBool::new(false));
        // The self-pipe: completions write one byte to the tx end so the
        // reactor's poll(2) wakes immediately.
        let (wake_tx, wake_rx) = UnixStream::pair().map_err(transport)?;
        wake_tx.set_nonblocking(true).map_err(transport)?;
        wake_rx.set_nonblocking(true).map_err(transport)?;
        let reactor = {
            let stop = Arc::clone(&stop);
            let shutdown_requested = Arc::clone(&shutdown_requested);
            std::thread::Builder::new()
                .name("tropic-rpc-reactor".into())
                .spawn(move || {
                    Reactor::new(listener, shared, stop, shutdown_requested, wake_tx, wake_rx).run()
                })
                .map_err(transport)?
        };
        Ok(RpcServer {
            addr,
            stop,
            shutdown_requested,
            reactor: Some(reactor),
        })
    }

    /// The bound address (the real port when configured with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client asked this serving process to shut down via
    /// [`RpcRequest::Shutdown`]. The server keeps serving — the hosting
    /// process decides when to act on the request.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Stops the reactor: in-flight dispatches complete, streaming peers
    /// receive a typed [`ApiError::ShuttingDown`] frame, every socket
    /// closes, and the dispatch pool joins.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// The event loop. One thread owns every connection; readiness comes from
/// `poll(2)` over the listener, the self-pipe, and each nonblocking
/// socket. Work that can block — coordination submits, waits, admin calls
/// — leaves the loop through the dispatch pool or a transient thread and
/// returns as a [`Wake`] completion.
struct Reactor {
    listener: TcpListener,
    shared: PlatformShared,
    stop: Arc<AtomicBool>,
    shutdown_requested: Arc<AtomicBool>,
    conns: HashMap<u64, ConnState>,
    next_token: u64,
    wake_rx: UnixStream,
    done_rx: crossbeam::channel::Receiver<Wake>,
    done: DoneTx,
    /// `None` once teardown closes the job queue.
    jobs_tx: Option<crossbeam::channel::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Transient threads serving blocking calls; pruned as they finish.
    waiters: Vec<JoinHandle<()>>,
    waiter_seq: u64,
    /// Lazily-started event-feed pumps (txn, twin).
    pumps: Vec<JoinHandle<()>>,
    pump_started: (bool, bool),
}

impl Reactor {
    fn new(
        listener: TcpListener,
        shared: PlatformShared,
        stop: Arc<AtomicBool>,
        shutdown_requested: Arc<AtomicBool>,
        wake_tx: UnixStream,
        wake_rx: UnixStream,
    ) -> Self {
        let (done_tx, done_rx) = crossbeam::channel::unbounded();
        let done = DoneTx {
            tx: done_tx,
            pipe: Arc::new(wake_tx),
        };
        let (jobs_tx, jobs_rx) = crossbeam::channel::unbounded::<Job>();
        let mut workers = Vec::new();
        for idx in 0..DISPATCH_THREADS {
            let shared = shared.clone();
            let jobs = jobs_rx.clone();
            let done = done.clone();
            let stop = Arc::clone(&stop);
            let shutdown_requested = Arc::clone(&shutdown_requested);
            if let Ok(h) = std::thread::Builder::new()
                .name(format!("tropic-rpc-pool-{idx}"))
                .spawn(move || worker_loop(shared, idx, jobs, done, stop, shutdown_requested))
            {
                workers.push(h);
            }
        }
        Reactor {
            listener,
            shared,
            stop,
            shutdown_requested,
            conns: HashMap::new(),
            next_token: 0,
            wake_rx,
            done_rx,
            done,
            jobs_tx: Some(jobs_tx),
            workers,
            waiters: Vec::new(),
            waiter_seq: 0,
            pumps: Vec::new(),
            pump_started: (false, false),
        }
    }

    fn run(mut self) {
        while !self.stop.load(Ordering::SeqCst) {
            let (mut fds, tokens) = self.build_pollfds();
            let _ = poll(&mut fds, REACTOR_POLL_MS);
            self.drain_wake_pipe();
            self.drain_completions();
            if fds.first().is_some_and(PollFd::readable) {
                self.accept_ready();
            }
            for (fd, &token) in fds.iter().skip(2).zip(&tokens) {
                if fd.errored() {
                    if let Some(c) = self.conns.get_mut(&token) {
                        c.dead = true;
                    }
                    continue;
                }
                if fd.writable() {
                    if let Some(c) = self.conns.get_mut(&token) {
                        c.flush();
                    }
                }
                if fd.readable() {
                    self.read_conn(token);
                }
            }
            self.conns.retain(|_, c| !c.dead);
        }
        self.teardown();
    }

    /// One poll set per iteration: `[0]` the listener, `[1]` the wake
    /// pipe, then every connection (write-interest only while its
    /// outbound queue is nonempty). `tokens[i]` maps slot `i + 2` back to
    /// its connection.
    fn build_pollfds(&self) -> (Vec<PollFd>, Vec<u64>) {
        let mut fds = Vec::with_capacity(self.conns.len() + 2);
        fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
        fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
        let mut tokens = Vec::with_capacity(self.conns.len());
        for (&token, conn) in &self.conns {
            let mut interest = POLLIN;
            if conn.wants_pollout() {
                interest |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), interest));
            tokens.push(token);
        }
        (fds, tokens)
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn drain_completions(&mut self) {
        while let Ok(wake) = self.done_rx.try_recv() {
            match wake {
                Wake::Reply { token, frame } => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.inflight = false;
                        conn.enqueue(frame);
                        conn.flush();
                    }
                    self.pump_dispatch(token);
                }
                Wake::Broadcast { feed, frame } => {
                    // Counted before the first byte leaves, so a subscriber
                    // that has seen the event also sees it counted.
                    let delivered = self.conns.values().filter(|c| c.streams(feed)).count();
                    if delivered > 0 {
                        self.shared.metrics.record_rpc_events(delivered as u64);
                    }
                    for conn in self.conns.values_mut().filter(|c| c.streams(feed)) {
                        conn.enqueue(frame.clone());
                        conn.flush();
                    }
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.shared.metrics.record_rpc_connection();
                    self.next_token += 1;
                    self.conns.insert(self.next_token, ConnState::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Drains every complete frame the socket has to offer right now.
    fn read_conn(&mut self, token: u64) {
        loop {
            enum ReadStep {
                Frame(Vec<u8>),
                Idle,
                Closed,
                Reject(FrameError),
            }
            let step = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.dead || conn.close_after_flush {
                    return;
                }
                match conn
                    .reader
                    .read_from(&mut conn.stream, DEFAULT_MAX_FRAME_BYTES)
                {
                    Ok(Some(payload)) => ReadStep::Frame(payload),
                    Ok(None) => ReadStep::Idle,
                    Err(FrameError::Closed) => ReadStep::Closed,
                    Err(err) => ReadStep::Reject(err),
                }
            };
            match step {
                ReadStep::Frame(payload) => self.on_frame(token, payload),
                ReadStep::Idle => return,
                ReadStep::Closed => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.dead = true;
                    }
                    return;
                }
                ReadStep::Reject(err) => {
                    // Typed reject, then close: past a corrupt or
                    // oversized frame the stream is unsynchronized. Only
                    // this connection is affected — the loop and every
                    // other connection keep running.
                    self.shared.metrics.record_rpc_rejected();
                    let frame = frame_response(RpcResponse::Error(frame_reject(&err)));
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.enqueue(frame);
                        conn.close_after_flush = true;
                        conn.flush();
                    }
                    return;
                }
            }
        }
    }

    fn on_frame(&mut self, token: u64, payload: Vec<u8>) {
        let is_stream = match self.conns.get(&token) {
            Some(conn) => matches!(conn.mode, ConnMode::Stream(_)),
            None => return,
        };
        if is_stream {
            // Stray frames on a one-way stream are tolerated and ignored,
            // mirroring the client side's tolerance of unknown frames.
            return;
        }
        match decode_request(&payload) {
            Ok(req) => {
                self.shared.metrics.record_rpc_request();
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.pending.push_back(req);
                }
                self.pump_dispatch(token);
            }
            Err(e) => {
                // Version and payload rejects are per-frame: framing
                // stayed aligned, so the connection survives for a retry
                // with a supported envelope.
                self.shared.metrics.record_rpc_rejected();
                let frame = frame_response(RpcResponse::Error(ApiError::from(e)));
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.enqueue(frame);
                    conn.flush();
                }
            }
        }
    }

    /// Advances one connection's dispatch state machine: answers what the
    /// reactor can answer inline (`Ping`, `Shutdown`, the `Subscribe`
    /// mode switches), hands fast calls to the pool, and blocking calls
    /// to a transient thread — at most one in flight per connection, so
    /// positional reply correlation holds.
    fn pump_dispatch(&mut self, token: u64) {
        loop {
            enum After {
                Done,
                Again,
                Spawn(RpcRequest),
                Pump(Feed),
            }
            let now_ms = self.shared.clock.now_ms();
            let jobs_tx = self.jobs_tx.clone();
            let shutdown_requested = Arc::clone(&self.shutdown_requested);
            let after = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.inflight || conn.dead || conn.close_after_flush {
                    return;
                }
                if conn.mode != ConnMode::Request {
                    return;
                }
                let Some(req) = conn.pending.pop_front() else {
                    return;
                };
                match req {
                    RpcRequest::Ping => {
                        conn.enqueue(frame_response(RpcResponse::Pong { now_ms }));
                        conn.flush();
                        After::Again
                    }
                    RpcRequest::Shutdown => {
                        shutdown_requested.store(true, Ordering::SeqCst);
                        conn.enqueue(frame_response(RpcResponse::ShutdownAck));
                        conn.flush();
                        After::Again
                    }
                    RpcRequest::Subscribe | RpcRequest::SubscribeTwin => {
                        let feed = if matches!(req, RpcRequest::SubscribeTwin) {
                            Feed::Twin
                        } else {
                            Feed::Txn
                        };
                        conn.mode = ConnMode::Stream(feed);
                        conn.pending.clear();
                        conn.enqueue(frame_response(RpcResponse::Subscribed));
                        conn.flush();
                        After::Pump(feed)
                    }
                    req if is_blocking(&req) => {
                        conn.inflight = true;
                        After::Spawn(req)
                    }
                    req => {
                        conn.inflight = true;
                        match &jobs_tx {
                            Some(tx) if tx.send(Job { token, req }).is_ok() => {}
                            _ => {
                                // Pool gone: only during teardown.
                                conn.inflight = false;
                                conn.enqueue(frame_response(RpcResponse::Error(
                                    ApiError::ShuttingDown,
                                )));
                                conn.flush();
                            }
                        }
                        After::Done
                    }
                }
            };
            match after {
                After::Done => return,
                After::Again => continue,
                After::Spawn(req) => {
                    self.spawn_waiter(token, req);
                    return;
                }
                After::Pump(feed) => {
                    self.ensure_pump(feed);
                    return;
                }
            }
        }
    }

    /// Runs one blocking call on a transient thread with its own
    /// coordination session, which ends — at no cost to the ensemble —
    /// before the reply is sent, so a finished call leaves nothing behind.
    /// The sliced helpers it lands in re-check the stop flag every
    /// [`WAIT_SLICE`].
    fn spawn_waiter(&mut self, token: u64, req: RpcRequest) {
        self.waiters.retain(|h| !h.is_finished());
        self.waiter_seq += 1;
        let seq = self.waiter_seq;
        let shared = self.shared.clone();
        let stop = Arc::clone(&self.stop);
        let shutdown_requested = Arc::clone(&self.shutdown_requested);
        let done = self.done.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("tropic-rpc-wait-{seq}"))
            .spawn(move || {
                let client = shared.client(&format!("rpc-wait-{seq}"));
                let mut admin: Option<AdminClient> = None;
                let resp = dispatch(
                    &shared,
                    &client,
                    &mut admin,
                    &stop,
                    &shutdown_requested,
                    req,
                );
                drop(admin);
                drop(client);
                done.send(Wake::Reply {
                    token,
                    frame: frame_response(resp),
                });
            });
        match spawned {
            Ok(h) => self.waiters.push(h),
            Err(_) => self.done.send(Wake::Reply {
                token,
                frame: frame_response(RpcResponse::Error(ApiError::Transport(
                    "server cannot spawn a wait thread".into(),
                ))),
            }),
        }
    }

    /// Starts the feed pump on first subscription: one thread per feed,
    /// regardless of subscriber count — it encodes each event once and
    /// the reactor clones the frame handle per subscriber.
    fn ensure_pump(&mut self, feed: Feed) {
        let started = match feed {
            Feed::Txn => &mut self.pump_started.0,
            Feed::Twin => &mut self.pump_started.1,
        };
        if *started {
            return;
        }
        *started = true;
        let shared = self.shared.clone();
        let stop = Arc::clone(&self.stop);
        let done = self.done.clone();
        let name = match feed {
            Feed::Txn => "tropic-rpc-txn-pump",
            Feed::Twin => "tropic-rpc-twin-pump",
        };
        let spawned = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || match feed {
                // The in-process `Subscription`: its own quorum session.
                Feed::Txn => {
                    let sub = shared.subscription();
                    pump(feed, &stop, &done, RpcResponse::Event, |t| {
                        sub.recv_timeout(t)
                    })
                }
                Feed::Twin => {
                    let sub = shared.twin_feed.subscribe();
                    pump(feed, &stop, &done, RpcResponse::TwinEvent, |t| {
                        sub.recv_timeout(t)
                    })
                }
            });
        if let Ok(h) = spawned {
            self.pumps.push(h);
        }
    }

    fn teardown(mut self) {
        // Close the job queue; workers drain what's queued, then exit.
        self.jobs_tx = None;
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
        // Transient waiters observe the stop flag within one wait slice.
        for w in std::mem::take(&mut self.waiters) {
            let _ = w.join();
        }
        // Everything that was in flight has now sent its completion.
        self.drain_completions();
        let bye = frame_response(RpcResponse::Error(ApiError::ShuttingDown));
        for conn in self.conns.values_mut() {
            if conn.dead {
                continue;
            }
            match conn.mode {
                // Streams get a typed goodbye distinguishing planned
                // teardown from a crash.
                ConnMode::Stream(_) => conn.enqueue(bye.clone()),
                // Positional correlation: every request still owed a
                // reply gets the typed refusal instead of silence.
                ConnMode::Request => {
                    let owed = conn.pending.len() + usize::from(conn.inflight);
                    for _ in 0..owed {
                        conn.enqueue(bye.clone());
                    }
                    conn.pending.clear();
                }
            }
        }
        // Best-effort bounded blocking flush so those frames reach peers.
        for conn in self.conns.values_mut() {
            if conn.dead {
                continue;
            }
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn.stream.set_write_timeout(Some(TEARDOWN_FLUSH_TIMEOUT));
            'frames: while let Some(front) = conn.outbound.front() {
                while let Some(unsent) = front.get(conn.out_pos..).filter(|u| !u.is_empty()) {
                    match conn.stream.write(unsent) {
                        Ok(0) | Err(_) => break 'frames,
                        Ok(n) => conn.out_pos += n,
                    }
                }
                conn.out_pos = 0;
                conn.outbound.pop_front();
            }
        }
        // Dropping the map closes every socket.
        self.conns.clear();
        // Pumps exit on their next stop-flag check.
        for p in std::mem::take(&mut self.pumps) {
            let _ = p.join();
        }
    }
}

/// One dispatch-pool worker: a long-lived coordination session answering
/// non-blocking calls pulled off the shared job queue.
fn worker_loop(
    shared: PlatformShared,
    idx: usize,
    jobs: crossbeam::channel::Receiver<Job>,
    done: DoneTx,
    stop: Arc<AtomicBool>,
    shutdown_requested: Arc<AtomicBool>,
) {
    let client = shared.client(&format!("rpc-pool-{idx}"));
    let mut admin: Option<AdminClient> = None;
    while let Ok(job) = jobs.recv() {
        let resp = dispatch(
            &shared,
            &client,
            &mut admin,
            &stop,
            &shutdown_requested,
            job.req,
        );
        done.send(Wake::Reply {
            token: job.token,
            frame: frame_response(resp),
        });
    }
}

/// Maps a frame-boundary failure onto the typed taxonomy: an oversized
/// declared length is a request that can never succeed (permanent); a CRC
/// mismatch or mid-frame tear is a damaged transport (retryable over a
/// fresh connection).
fn frame_reject(err: &FrameError) -> ApiError {
    match err {
        FrameError::Oversized { len, max } => ApiError::InvalidRequest(format!(
            "frame of {len} bytes exceeds the server's {max}-byte cap"
        )),
        other => ApiError::Transport(other.to_string()),
    }
}

fn dispatch(
    shared: &PlatformShared,
    client: &TropicClient,
    admin: &mut Option<AdminClient>,
    stop: &AtomicBool,
    shutdown_requested: &AtomicBool,
    req: RpcRequest,
) -> RpcResponse {
    match req {
        RpcRequest::Submit(request) => match client.submit_request(request) {
            Ok(h) => RpcResponse::Submitted {
                id: h.id(),
                deadline_ms: h.deadline_ms(),
            },
            Err(e) => RpcResponse::Error(e),
        },
        RpcRequest::SubmitBatch(requests) => match client.submit_batch(requests) {
            Ok(hs) => RpcResponse::SubmittedBatch {
                handles: hs.iter().map(|h| (h.id(), h.deadline_ms())).collect(),
            },
            Err(e) => RpcResponse::Error(e),
        },
        RpcRequest::TryOutcome { id } => match client.handle(id).try_outcome() {
            Ok(outcome) => RpcResponse::Outcome(outcome),
            Err(e) => RpcResponse::Error(e),
        },
        RpcRequest::Wait { id, timeout_ms } => {
            let handle = client.handle(id);
            sliced(id, timeout_ms, stop, |slice| handle.wait_timeout(slice))
                .map_or_else(RpcResponse::Error, |o| RpcResponse::Outcome(Some(o)))
        }
        RpcRequest::Record { id } => match client.txn_record(id) {
            Ok(rec) => RpcResponse::Record(rec.map(Box::new)),
            Err(e) => RpcResponse::Error(e.into()),
        },
        RpcRequest::Repair { scope, timeout_ms } => {
            let admin = admin.get_or_insert_with(|| shared.admin("rpc-admin"));
            admin_sliced(admin, &scope, timeout_ms, true, stop)
        }
        RpcRequest::Reload { scope, timeout_ms } => {
            let admin = admin.get_or_insert_with(|| shared.admin("rpc-admin"));
            admin_sliced(admin, &scope, timeout_ms, false, stop)
        }
        RpcRequest::Signal { id, signal } => {
            let admin = admin.get_or_insert_with(|| shared.admin("rpc-admin"));
            match admin.signal(id, signal) {
                Ok(()) => RpcResponse::Signaled,
                Err(e) => RpcResponse::Error(e),
            }
        }
        // Subscribe switches the connection mode and is handled inline by
        // the reactor before dispatch (as are Ping and Shutdown; the arms
        // below keep dispatch total).
        RpcRequest::Subscribe | RpcRequest::SubscribeTwin => RpcResponse::Subscribed,
        RpcRequest::Ping => RpcResponse::Pong {
            now_ms: shared.clock.now_ms(),
        },
        RpcRequest::Shutdown => {
            shutdown_requested.store(true, Ordering::SeqCst);
            RpcResponse::ShutdownAck
        }
    }
}

/// Enqueues one repair/reload, then waits for its result in slices.
fn admin_sliced(
    admin: &AdminClient,
    scope: &Path,
    timeout_ms: u64,
    repair: bool,
    stop: &AtomicBool,
) -> RpcResponse {
    admin
        .enqueue_admin(scope, repair)
        .and_then(|admin_id| {
            sliced(admin_id, timeout_ms, stop, |slice| {
                admin.wait_admin(admin_id, slice)
            })
        })
        .map_or_else(RpcResponse::Error, RpcResponse::Admin)
}

/// Blocks toward the caller's deadline in short slices: `timeout_ms` is
/// wire-controlled and unclamped, so a stopping server must never be pinned
/// by a remote caller's long bound. `wait` makes one bounded attempt; `id`
/// is the one an elapsed deadline's `WaitTimeout` names.
fn sliced<T>(
    id: TxnId,
    timeout_ms: u64,
    stop: &AtomicBool,
    wait: impl Fn(Duration) -> Result<T, ApiError>,
) -> Result<T, ApiError> {
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    loop {
        if stop.load(Ordering::SeqCst) {
            return Err(ApiError::ShuttingDown);
        }
        // Always attempt at least one wait slice (both waits poll the
        // result before sleeping), so an already-finished operation beats
        // an elapsed bound — the in-process semantics.
        let slice = deadline
            .saturating_duration_since(Instant::now())
            .min(WAIT_SLICE);
        match wait(slice) {
            Err(ApiError::WaitTimeout { .. }) => {
                if Instant::now() >= deadline {
                    return Err(ApiError::WaitTimeout { id });
                }
            }
            other => return other,
        }
    }
}

/// Feeds the reactor one event feed until `stop`: each event `recv`
/// yields is encoded into one shared frame here, and the reactor clones
/// the handle onto every subscriber's outbound queue.
fn pump<E>(
    feed: Feed,
    stop: &AtomicBool,
    done: &DoneTx,
    wrap: fn(E) -> RpcResponse,
    recv: impl Fn(Duration) -> Option<E>,
) {
    while !stop.load(Ordering::SeqCst) {
        if let Some(ev) = recv(Duration::from_millis(100)) {
            done.send(Wake::Broadcast {
                feed,
                frame: frame_response(wrap(ev)),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Remote client.
// ---------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

/// A client to a remote TROPIC platform, mirroring
/// [`crate::TropicClient`]'s typed surface over one TCP connection.
///
/// Calls on one `RemoteClient` run in lockstep over its single connection
/// (a long [`RemoteHandle::wait`] holds the line); open one client per
/// concurrent caller — connections are cheap, and each gets its own
/// coordination session server-side. [`RemoteClient::subscribe`] opens its
/// own dedicated connection. A connection that can no longer correlate
/// replies (response timeout, damaged frame, server close) is retired and
/// transparently re-dialed on the next call.
pub struct RemoteClient {
    addr: SocketAddr,
    /// `None` between a poisoned connection and the next call's re-dial.
    io: Mutex<Option<Conn>>,
}

impl RemoteClient {
    /// Connects to a serving [`RpcServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ApiError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(transport)?
            .next()
            .ok_or_else(|| ApiError::Transport("address resolved to nothing".into()))?;
        let conn = Self::dial(&addr)?;
        Ok(RemoteClient {
            addr,
            io: Mutex::new(Some(conn)),
        })
    }

    fn dial(addr: &SocketAddr) -> Result<Conn, ApiError> {
        let stream = TcpStream::connect_timeout(addr, CONNECT_TIMEOUT).map_err(transport)?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        Ok(Conn {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// The server address this client is connected to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One framed request, one framed reply. `read_timeout` bounds how
    /// long the server may take (plus [`READ_GRACE`] slack for transport).
    ///
    /// Request/response correlation is positional (one reply per request,
    /// in order), so any failure that could leave a reply in flight — a
    /// response timeout, a damaged frame, a mid-frame close — **poisons**
    /// the connection: it is dropped, and the next call dials a fresh one.
    /// A stale reply can therefore never be read as the answer to a later
    /// call.
    fn call(&self, req: RpcRequest, read_timeout: Duration) -> Result<RpcResponse, ApiError> {
        let mut guard = self.io.lock();
        let conn = match guard.as_mut() {
            Some(conn) => conn,
            None => guard.insert(Self::dial(&self.addr)?),
        };
        let Conn { stream, reader } = conn;
        // Slice the socket timeout so the deadline loop below stays
        // responsive regardless of how long the whole call may block.
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(transport)?;
        if let Err(e) = write_frame(stream, &encode_request(req)?) {
            *guard = None;
            return Err(transport(e));
        }
        let deadline = Instant::now() + read_timeout + READ_GRACE;
        loop {
            // analyze:allow(blocking-under-lock): the io lock IS the line discipline — one in-flight call per connection
            match reader.read_from(stream, DEFAULT_MAX_FRAME_BYTES) {
                Ok(Some(payload)) => {
                    return match decode_response(&payload).map_err(ApiError::from)? {
                        RpcResponse::Error(e) => Err(e),
                        ok => Ok(ok),
                    };
                }
                Ok(None) => {
                    if Instant::now() >= deadline {
                        // The server may still answer later; this stream
                        // can no longer tell that stale reply apart from
                        // the next call's, so retire it.
                        *guard = None;
                        return Err(ApiError::Transport(
                            "timed out awaiting the RPC response".into(),
                        ));
                    }
                }
                Err(FrameError::Closed) => {
                    *guard = None;
                    return Err(ApiError::Transport("server closed the connection".into()));
                }
                Err(e @ FrameError::Oversized { .. }) => {
                    // Permanent, mirroring the server's classification: a
                    // reply past the frame cap fails identically on every
                    // retry.
                    *guard = None;
                    return Err(ApiError::InvalidRequest(e.to_string()));
                }
                Err(e) => {
                    *guard = None;
                    return Err(transport(e));
                }
            }
        }
    }

    /// Submits a typed request; the server assigns the transaction id.
    /// Mirrors [`crate::TropicClient::submit_request`].
    pub fn submit_request(&self, request: TxnRequest) -> Result<RemoteHandle<'_>, ApiError> {
        match self.call(RpcRequest::Submit(request), CALL_TIMEOUT)? {
            RpcResponse::Submitted { id, deadline_ms } => Ok(RemoteHandle {
                client: self,
                id,
                deadline_ms,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Submits several requests as one atomic enqueue. Mirrors
    /// [`crate::TropicClient::submit_batch`].
    pub fn submit_batch(
        &self,
        requests: Vec<TxnRequest>,
    ) -> Result<Vec<RemoteHandle<'_>>, ApiError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        match self.call(RpcRequest::SubmitBatch(requests), CALL_TIMEOUT)? {
            RpcResponse::SubmittedBatch { handles } => Ok(handles
                .into_iter()
                .map(|(id, deadline_ms)| RemoteHandle {
                    client: self,
                    id,
                    deadline_ms,
                })
                .collect()),
            other => Err(unexpected(&other)),
        }
    }

    /// Re-attaches a handle to an already-submitted transaction id.
    pub fn handle(&self, id: TxnId) -> RemoteHandle<'_> {
        RemoteHandle {
            client: self,
            id,
            deadline_ms: None,
        }
    }

    /// Reads the full durable record of a transaction, if still retained.
    pub fn txn_record(&self, id: TxnId) -> Result<Option<TxnRecord>, ApiError> {
        match self.call(RpcRequest::Record { id }, CALL_TIMEOUT)? {
            RpcResponse::Record(rec) => Ok(rec.map(|b| *b)),
            other => Err(unexpected(&other)),
        }
    }

    /// Liveness probe; returns the platform clock (ms) — also how remote
    /// callers compute absolute deadlines without a local platform clock.
    pub fn ping(&self) -> Result<u64, ApiError> {
        match self.call(RpcRequest::Ping, CALL_TIMEOUT)? {
            RpcResponse::Pong { now_ms } => Ok(now_ms),
            other => Err(unexpected(&other)),
        }
    }

    /// Opens a streaming subscription to transaction lifecycle events on a
    /// dedicated connection. Mirrors [`crate::TropicClient::subscribe`].
    pub fn subscribe(&self) -> Result<RemoteSubscription<TxnEvent>, ApiError> {
        RemoteSubscription::open(self.addr, RpcRequest::Subscribe, |resp| match resp {
            RpcResponse::Event(ev) => Some(ev),
            _ => None,
        })
    }

    /// Opens a streaming subscription to digital-twin phase transitions on
    /// a dedicated connection. Mirrors [`crate::Tropic::subscribe_twin`].
    pub fn subscribe_twin(&self) -> Result<RemoteSubscription<TwinEvent>, ApiError> {
        RemoteSubscription::open(self.addr, RpcRequest::SubscribeTwin, |resp| match resp {
            RpcResponse::TwinEvent(ev) => Some(ev),
            _ => None,
        })
    }

    /// The operator plane, sharing this client's connection. Mirrors
    /// [`crate::Tropic::admin`].
    pub fn admin(&self) -> RemoteAdmin<'_> {
        RemoteAdmin { client: self }
    }

    /// Asks the serving process to shut down (see
    /// [`RpcServer::shutdown_requested`]).
    pub fn shutdown_server(&self) -> Result<(), ApiError> {
        match self.call(RpcRequest::Shutdown, CALL_TIMEOUT)? {
            RpcResponse::ShutdownAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &RpcResponse) -> ApiError {
    ApiError::Transport(format!("protocol violation: unexpected response {resp:?}"))
}

/// A handle to one transaction submitted over the wire, mirroring
/// [`crate::api::TxnHandle`]. Outcome reads follow idempotency aliases
/// transparently (the server resolves them).
pub struct RemoteHandle<'c> {
    client: &'c RemoteClient,
    id: TxnId,
    deadline_ms: Option<u64>,
}

impl RemoteHandle<'_> {
    /// The server-assigned transaction id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The admission deadline resolved at submission (platform clock, ms).
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    /// Non-blocking outcome poll: `Ok(Some(..))` once terminal.
    pub fn try_outcome(&self) -> Result<Option<TxnOutcome>, ApiError> {
        match self
            .client
            .call(RpcRequest::TryOutcome { id: self.id }, CALL_TIMEOUT)?
        {
            RpcResponse::Outcome(outcome) => Ok(outcome),
            other => Err(unexpected(&other)),
        }
    }

    /// Blocks until the transaction reaches a terminal state, bounded by
    /// the request's deadline (fetched against the platform clock via
    /// [`RemoteClient::ping`]) or 60 seconds when none was set.
    pub fn wait(&self) -> Result<TxnOutcome, ApiError> {
        let timeout = match self.deadline_ms {
            Some(d) => {
                let now = self.client.ping()?;
                Duration::from_millis(d.saturating_sub(now).max(1))
            }
            None => DEFAULT_WAIT,
        };
        self.wait_timeout(timeout)
    }

    /// [`RemoteHandle::wait`] with an explicit bound. The server blocks on
    /// the same watch-driven wait the in-process handle uses.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<TxnOutcome, ApiError> {
        let timeout_ms = timeout.as_millis().min(u64::MAX as u128) as u64;
        let req = RpcRequest::Wait {
            id: self.id,
            timeout_ms,
        };
        match self.client.call(req, timeout)? {
            RpcResponse::Outcome(Some(outcome)) => Ok(outcome),
            RpcResponse::Outcome(None) => Err(ApiError::WaitTimeout { id: self.id }),
            other => Err(unexpected(&other)),
        }
    }
}

/// The operator plane over the wire, mirroring [`crate::api::AdminClient`].
pub struct RemoteAdmin<'c> {
    client: &'c RemoteClient,
}

impl RemoteAdmin<'_> {
    /// Runs `repair` over `scope`, blocking up to `timeout` for the result.
    pub fn repair(&self, scope: &Path, timeout: Duration) -> Result<AdminResult, ApiError> {
        let req = RpcRequest::Repair {
            scope: scope.clone(),
            timeout_ms: timeout.as_millis().min(u64::MAX as u128) as u64,
        };
        match self.client.call(req, timeout)? {
            RpcResponse::Admin(result) => Ok(result),
            other => Err(unexpected(&other)),
        }
    }

    /// Runs `reload` over `scope`, blocking up to `timeout` for the result.
    pub fn reload(&self, scope: &Path, timeout: Duration) -> Result<AdminResult, ApiError> {
        let req = RpcRequest::Reload {
            scope: scope.clone(),
            timeout_ms: timeout.as_millis().min(u64::MAX as u128) as u64,
        };
        match self.client.call(req, timeout)? {
            RpcResponse::Admin(result) => Ok(result),
            other => Err(unexpected(&other)),
        }
    }

    /// Sends a TERM or KILL signal to a transaction.
    pub fn signal(&self, id: TxnId, signal: Signal) -> Result<(), ApiError> {
        match self
            .client
            .call(RpcRequest::Signal { id, signal }, CALL_TIMEOUT)?
        {
            RpcResponse::Signaled => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

/// A streaming feed of `E` from a remote platform: transaction lifecycle
/// events ([`TxnEvent`], via [`RemoteClient::subscribe`]) or digital-twin
/// phase transitions ([`TwinEvent`], via [`RemoteClient::subscribe_twin`]).
/// Runs on its own connection; dropping it closes the socket and ends the
/// feed.
pub struct RemoteSubscription<E> {
    rx: mpsc::Receiver<E>,
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
    close_reason: Arc<Mutex<Option<ApiError>>>,
}

impl<E: Send + 'static> RemoteSubscription<E> {
    /// Sends `subscribe`, awaits the mode-switch ack, then streams every
    /// frame `pick` recognises as an `E`.
    fn open(
        addr: SocketAddr,
        subscribe: RpcRequest,
        pick: fn(RpcResponse) -> Option<E>,
    ) -> Result<Self, ApiError> {
        let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).map_err(transport)?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(transport)?;
        write_frame(&mut stream, &encode_request(subscribe)?).map_err(transport)?;
        // Wait for the mode-switch ack before handing the socket to the
        // reader thread, so connect errors surface typed right here.
        let mut reader = FrameReader::new();
        let deadline = Instant::now() + CALL_TIMEOUT;
        loop {
            match reader.read_from(&mut stream, DEFAULT_MAX_FRAME_BYTES) {
                Ok(Some(payload)) => match decode_response(&payload).map_err(ApiError::from)? {
                    RpcResponse::Subscribed => break,
                    RpcResponse::Error(e) => return Err(e),
                    other => return Err(unexpected(&other)),
                },
                Ok(None) => {
                    if Instant::now() >= deadline {
                        return Err(ApiError::Transport(
                            "timed out awaiting the subscription ack".into(),
                        ));
                    }
                }
                Err(e) => return Err(transport(e)),
            }
        }
        let (tx, rx) = mpsc::channel();
        let close_reason: Arc<Mutex<Option<ApiError>>> = Arc::new(Mutex::new(None));
        let thread = {
            let mut stream = stream.try_clone().map_err(transport)?;
            let close_reason = Arc::clone(&close_reason);
            std::thread::Builder::new()
                .name("tropic-remote-subscriber".into())
                .spawn(move || {
                    loop {
                        match reader.read_from(&mut stream, DEFAULT_MAX_FRAME_BYTES) {
                            Ok(Some(payload)) => {
                                // Anything that is not a decodable event is
                                // tolerated and skipped: the stream must
                                // survive frames a newer server might add.
                                // An error frame is the server's stated
                                // close reason: record it and end the feed.
                                let delivered = match decode_response(&payload) {
                                    Ok(RpcResponse::Error(e)) => {
                                        *close_reason.lock() = Some(e);
                                        return;
                                    }
                                    Ok(resp) => pick(resp).is_none_or(|ev| tx.send(ev).is_ok()),
                                    Err(_) => true,
                                };
                                if !delivered {
                                    return; // receiver dropped
                                }
                            }
                            Ok(None) => {}    // idle; keep listening
                            Err(_) => return, // closed or damaged: end the feed
                        }
                    }
                })
                .map_err(transport)?
        };
        Ok(RemoteSubscription {
            rx,
            stream,
            thread: Some(thread),
            close_reason,
        })
    }

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

    /// Whether the feed can still deliver new events. `false` once the
    /// server closed the stream (shutdown, damaged frame): buffered events
    /// remain readable, but nothing further will arrive — resubscribe via
    /// [`RemoteClient::subscribe`] to continue.
    pub fn is_live(&self) -> bool {
        self.thread.as_ref().is_some_and(|t| !t.is_finished())
    }

    /// Why the server closed this feed, when it said so with a typed
    /// error frame before closing: [`ApiError::ShuttingDown`] for a
    /// planned stop (a pre-removal v1 server may also send the reserved,
    /// retryable [`ApiError::LeaseExpired`] — back off and resubscribe).
    /// `None` while the feed is live, and `None` after a close
    /// the server never explained (crash, cut network) — so callers can
    /// distinguish *all three* cases together with
    /// [`RemoteSubscription::is_live`]. See `docs/WIRE_PROTOCOL.md`,
    /// "Close reasons".
    pub fn close_reason(&self) -> Option<ApiError> {
        self.close_reason.lock().clone()
    }
}

impl<E> Drop for RemoteSubscription<E> {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_envelope_roundtrip() {
        let bytes = encode_request(RpcRequest::Wait {
            id: 7,
            timeout_ms: 1_500,
        })
        .unwrap();
        match decode_request(&bytes).unwrap() {
            RpcRequest::Wait { id, timeout_ms } => {
                assert_eq!((id, timeout_ms), (7, 1_500));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn response_envelope_roundtrip() {
        let bytes = encode_response(RpcResponse::Submitted {
            id: 9,
            deadline_ms: Some(42),
        })
        .unwrap();
        match decode_response(&bytes).unwrap() {
            RpcResponse::Submitted { id, deadline_ms } => {
                assert_eq!((id, deadline_ms), (9, Some(42)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn future_version_rejected_even_with_unparseable_payload() {
        let bytes = br#"{"v":9,"msg":{"HologramRequest":{"x":1}}}"#;
        assert!(matches!(
            decode_request(bytes),
            Err(WireError::UnsupportedVersion(9))
        ));
        assert!(matches!(
            decode_response(bytes),
            Err(WireError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn unversioned_payload_is_malformed_on_the_socket() {
        // As in the queue codec, a payload without a version is rejected.
        let bytes = br#"{"Ping":null}"#;
        assert!(matches!(
            decode_request(bytes),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn error_response_preserves_retryable_partition() {
        for (err, retryable) in [
            (ApiError::WaitTimeout { id: 3 }, true),
            (ApiError::Transport("reset".into()), true),
            (ApiError::UnsupportedWireVersion { version: 8 }, false),
            (ApiError::UnknownProcedure("nope".into()), false),
        ] {
            let bytes = encode_response(RpcResponse::Error(err.clone())).unwrap();
            match decode_response(&bytes).unwrap() {
                RpcResponse::Error(back) => {
                    assert_eq!(back, err);
                    assert_eq!(back.retryable(), retryable);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
