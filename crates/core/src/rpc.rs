//! Network RPC frontend: the wire protocol and the socket server.
//!
//! TROPIC's controller is a shared service clients reach over the network
//! (paper §3), not a library they link. This module carries the one
//! client surface ([`crate::TropicClient`]) over a TCP socket:
//!
//! * [`RpcRequest`] / [`RpcResponse`] — the complete operation list, which
//!   both client transports speak ([`crate::client`]).
//! * [`RpcServer`] — an event-driven socket server started with
//!   [`crate::Tropic::serve_rpc`]. One **reactor** thread runs a
//!   readiness-polling loop (`poll(2)` via the vendored `polling` shim)
//!   over every nonblocking connection; each connection is a small state
//!   machine around a [`FrameReader`] with buffered frame writes. Decoded
//!   requests are handed to a fixed dispatch pool (blocking calls get
//!   transient threads), each answering with the client's in-process
//!   transport, and replies flow back to the reactor over a completion
//!   channel plus a self-pipe wake — so 10k idle subscriptions cost file
//!   descriptors, not threads (Welsh et al., SEDA, SOSP 2001).
//!   Subscription fan-out encodes each event **once** into a shared
//!   [`bytes::Bytes`] frame and clones the handle onto every subscriber's
//!   outbound queue.
//!
//! A client connects with [`crate::TropicClient::connect`]. A server that
//! closes a stream on purpose says why with a typed error frame first
//! ([`ApiError::ShuttingDown`] for a planned stop); read it with
//! [`crate::Subscription::close_reason`].
//!
//! ## Wire format
//!
//! Every message is one frame of the length-prefixed CRC-32 stream codec
//! the write-ahead log already uses on disk
//! ([`tropic_coord::frame`]): `[len: u32 LE][crc32: u32 LE][payload]`.
//! The payload is a versioned JSON envelope `{"v": 1, "msg": ...}`, under
//! the bump policy of [`WIRE_VERSION`].
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
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use polling::{poll, PollFd, POLLIN, POLLOUT};
use serde::{Deserialize, Serialize};
use tropic_coord::{write_frame, FrameError, FrameReader, DEFAULT_MAX_FRAME_BYTES};
use tropic_model::{Path, Wake};

use crate::api::{ApiError, TxnEvent, TxnRequest};
use crate::client::{txn_feed, FeedThread, Local};
use crate::config::RpcConfig;
use crate::msg::{AdminResult, Signal, WireError, WIRE_VERSION};
use crate::platform::PlatformShared;
use crate::twin::TwinEvent;
use crate::txn::{TxnId, TxnOutcome, TxnRecord};

/// Size of the dispatch pool the reactor hands non-blocking requests to.
/// Each worker owns one coordination session; blocking calls (`Wait`,
/// `Repair`, `Reload`) run on transient threads instead so they can never
/// starve the pool. Small is right: the pool bounds *concurrency*, not
/// connections — 10k idle connections still cost zero threads.
const DISPATCH_THREADS: usize = 4;

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

/// The version field alone, whatever the payload beside it.
#[derive(Deserialize)]
struct VersionProbe {
    v: u32,
}

/// Version gate of every RPC frame, the only JSON the platform reads:
/// probed before the payload is parsed, so a future-version envelope whose
/// payload this build cannot even represent still fails with the version
/// error, and bytes with no version field at all are malformed.
fn check_version(bytes: &[u8]) -> Result<(), WireError> {
    match serde_json::from_slice::<VersionProbe>(bytes) {
        Ok(probe) if probe.v > WIRE_VERSION => Err(WireError::UnsupportedVersion(probe.v)),
        Ok(_) => Ok(()),
        Err(_) => Err(WireError::Malformed("missing wire version field".into())),
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

pub(crate) fn transport(e: impl std::fmt::Display) -> ApiError {
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
/// transient wait thread, or an event feed.
enum Done {
    /// The reply to one dispatched request, for one connection.
    Reply { token: u64, frame: Bytes },
    /// One event frame, encoded once, for every subscriber of `feed`.
    Broadcast { feed: Feed, frame: Bytes },
}

/// Completion-channel handle handed to dispatch workers and event feeds:
/// a message plus one self-pipe byte, so a sleeping `poll(2)` wakes.
#[derive(Clone)]
struct DoneTx {
    tx: crossbeam::channel::Sender<Done>,
    pipe: Arc<UnixStream>,
}

impl DoneTx {
    /// Hands `done` to the reactor; `false` once the reactor is gone.
    fn send(&self, done: Done) -> bool {
        let sent = self.tx.send(done).is_ok();
        wake_reactor(&self.pipe);
        sent
    }
}

/// Writes one self-pipe byte, so the reactor's `poll(2)` returns. A full
/// (nonblocking) pipe already guarantees a pending wake.
fn wake_reactor(pipe: &UnixStream) {
    let _ = (&*pipe).write(&[1u8]);
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
    /// The self-pipe's write end, which wakes the reactor to see `stop`.
    pipe: Arc<UnixStream>,
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
        let pipe = Arc::new(wake_tx);
        let reactor = {
            let stop = Arc::clone(&stop);
            let shutdown_requested = Arc::clone(&shutdown_requested);
            let pipe = Arc::clone(&pipe);
            std::thread::Builder::new()
                .name("tropic-rpc-reactor".into())
                .spawn(move || {
                    Reactor::new(listener, shared, stop, shutdown_requested, pipe, wake_rx).run()
                })
                .map_err(transport)?
        };
        Ok(RpcServer {
            addr,
            stop,
            pipe,
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
        wake_reactor(&self.pipe);
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
/// returns as a [`Done`] completion.
struct Reactor {
    listener: TcpListener,
    shared: PlatformShared,
    stop: Arc<AtomicBool>,
    shutdown_requested: Arc<AtomicBool>,
    conns: HashMap<u64, ConnState>,
    next_token: u64,
    wake_rx: UnixStream,
    done_rx: crossbeam::channel::Receiver<Done>,
    done: DoneTx,
    /// `None` once teardown closes the job queue.
    jobs_tx: Option<crossbeam::channel::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Transient threads serving blocking calls, each with its session's
    /// wake; pruned as they finish.
    waiters: Vec<(JoinHandle<()>, Arc<Wake>)>,
    waiter_seq: u64,
    /// The lifecycle feed, started on the first subscription.
    txn_feed: Option<FeedThread>,
    /// Whether the twin hub delivers to the reactor yet.
    twin_attached: bool,
}

impl Reactor {
    fn new(
        listener: TcpListener,
        shared: PlatformShared,
        stop: Arc<AtomicBool>,
        shutdown_requested: Arc<AtomicBool>,
        pipe: Arc<UnixStream>,
        wake_rx: UnixStream,
    ) -> Self {
        let (done_tx, done_rx) = crossbeam::channel::unbounded();
        let done = DoneTx { tx: done_tx, pipe };
        let (jobs_tx, jobs_rx) = crossbeam::channel::unbounded::<Job>();
        let mut workers = Vec::new();
        for idx in 0..DISPATCH_THREADS {
            let shared = shared.clone();
            let jobs = jobs_rx.clone();
            let done = done.clone();
            if let Ok(h) = std::thread::Builder::new()
                .name(format!("tropic-rpc-pool-{idx}"))
                .spawn(move || worker_loop(shared, idx, jobs, done))
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
            txn_feed: None,
            twin_attached: false,
        }
    }

    fn run(mut self) {
        while !self.stop.load(Ordering::SeqCst) {
            let (mut fds, tokens) = self.build_pollfds();
            // No timeout: every completion and the stop write the
            // self-pipe.
            let _ = poll(&mut fds, -1);
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
        while let Ok(done) = self.done_rx.try_recv() {
            match done {
                Done::Reply { token, frame } => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.inflight = false;
                        conn.enqueue(frame);
                        conn.flush();
                    }
                    self.pump_dispatch(token);
                }
                Done::Broadcast { feed, frame } => {
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
                    self.ensure_feed(feed);
                    return;
                }
            }
        }
    }

    /// Runs one blocking call on a transient thread with its own
    /// coordination session, which ends — at no cost to the ensemble —
    /// before the reply is sent, so a finished call leaves nothing behind.
    /// Its wait ends at the stop, which notifies the session's wake.
    fn spawn_waiter(&mut self, token: u64, req: RpcRequest) {
        self.waiters.retain(|(h, _)| !h.is_finished());
        self.waiter_seq += 1;
        let seq = self.waiter_seq;
        let local = Local::open(self.shared.clone(), &format!("rpc-wait-{seq}"));
        let wake = Arc::clone(local.wake());
        let stop = Arc::clone(&self.stop);
        let done = self.done.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("tropic-rpc-wait-{seq}"))
            .spawn(move || {
                let resp = local
                    .serve(req, &|| stop.load(Ordering::SeqCst))
                    .unwrap_or_else(RpcResponse::Error);
                drop(local);
                done.send(Done::Reply {
                    token,
                    frame: frame_response(resp),
                });
            });
        match spawned {
            Ok(h) => self.waiters.push((h, wake)),
            Err(_) => {
                self.done.send(Done::Reply {
                    token,
                    frame: frame_response(RpcResponse::Error(ApiError::Transport(
                        "server cannot spawn a wait thread".into(),
                    ))),
                });
            }
        }
    }

    /// Starts delivering `feed` on its first subscription: once, however
    /// many subscribers — each event is encoded once here and the reactor
    /// clones the frame handle per subscriber.
    fn ensure_feed(&mut self, feed: Feed) {
        let done = self.done.clone();
        let broadcast = move |resp| {
            let frame = frame_response(resp);
            done.send(Done::Broadcast { feed, frame })
        };
        match feed {
            // The in-process feed: its own quorum session.
            Feed::Txn if self.txn_feed.is_none() => {
                let deliver = move |ev| {
                    broadcast(RpcResponse::Event(ev));
                };
                self.txn_feed = txn_feed(&self.shared, deliver).ok();
            }
            Feed::Twin if !self.twin_attached => {
                self.twin_attached = true;
                let deliver = move |ev: &TwinEvent| broadcast(RpcResponse::TwinEvent(ev.clone()));
                self.shared.twin_feed.attach(deliver);
            }
            _ => {}
        }
    }

    fn teardown(mut self) {
        // Close the job queue; workers drain what's queued, then exit.
        self.jobs_tx = None;
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
        // Transient waiters see the stop flag once their session wakes.
        for (_, wake) in &self.waiters {
            wake.notify();
        }
        for (w, _) in std::mem::take(&mut self.waiters) {
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
        // Dropping the map closes every socket; dropping the lifecycle
        // feed stops it. The twin hub drops its delivery at the next
        // event, when the reactor is gone.
        self.conns.clear();
        self.txn_feed = None;
    }
}

/// One dispatch-pool worker: a long-lived in-process transport answering
/// non-blocking calls pulled off the shared job queue.
fn worker_loop(
    shared: PlatformShared,
    idx: usize,
    jobs: crossbeam::channel::Receiver<Job>,
    done: DoneTx,
) {
    let local = Local::open(shared, &format!("rpc-pool-{idx}"));
    while let Ok(job) = jobs.recv() {
        let resp = local.call(job.req).unwrap_or_else(RpcResponse::Error);
        done.send(Done::Reply {
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
