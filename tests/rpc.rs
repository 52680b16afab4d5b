//! End-to-end tests of the network RPC frontend: the frame layer's
//! integrity properties, version rejection over a live socket, and remote
//! clients driving real transactions through a served platform.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use tropic::coord::{write_frame, FrameError, FrameReader, TempDir};
use tropic::core::rpc::{decode_response, encode_request, RpcRequest, RpcResponse};
use tropic::core::{
    ApiError, ExecMode, PlatformConfig, Priority, RemoteClient, RemoteSubscription, RpcServer,
    Tropic, TxnEvent, TxnRequest, TxnState,
};
use tropic::tcloud::TopologySpec;

fn spec() -> TopologySpec {
    TopologySpec {
        compute_hosts: 4,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    }
}

fn start() -> (Tropic, RpcServer) {
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 1,
            checkpoint_every: 0,
            ..Default::default()
        },
        spec().service(),
        ExecMode::LogicalOnly,
    );
    let server = platform.serve_rpc().expect("bind loopback");
    (platform, server)
}

// ---------------------------------------------------------------------
// Frame-layer properties.
// ---------------------------------------------------------------------

/// Serves at most `chunk` bytes per read — a socket delivering arbitrarily
/// fragmented TCP segments.
struct Trickle {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (self.data.len() - self.pos).min(self.chunk).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

proptest! {
    /// However a frame sequence is split across reads, the reassembled
    /// payloads are byte-identical and in order.
    #[test]
    fn frames_reassemble_from_arbitrary_chunking(
        payloads in prop::collection::vec(prop::collection::vec(0u8..=255u8, 0..200), 1..6),
        chunk in 1usize..17,
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        let mut r = Trickle { data: wire, pos: 0, chunk };
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        loop {
            match reader.read_from(&mut r, 1 << 20) {
                Ok(Some(p)) => got.push(p),
                Ok(None) => prop_assert!(false, "Trickle never times out"),
                Err(FrameError::Closed) => break,
                Err(e) => prop_assert!(false, "unexpected {e}"),
            }
        }
        prop_assert_eq!(got, payloads);
    }

    /// Any single corrupted payload byte is caught by the CRC — typed,
    /// never a silent misparse (CRC-32 detects all single-byte errors).
    #[test]
    fn corrupt_payload_byte_rejected_typed(
        payload in prop::collection::vec(0u8..=255u8, 1..200),
        victim in 0usize..200,
        flip in 1u8..=255,
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let idx = 8 + (victim % payload.len());
        wire[idx] ^= flip;
        let mut cursor = &wire[..];
        let mut reader = FrameReader::new();
        prop_assert!(matches!(
            reader.read_from(&mut cursor, 1 << 20),
            Err(FrameError::Crc { .. })
        ));
    }

    /// A length prefix past the cap is rejected before any payload is
    /// buffered, whatever the claimed size.
    #[test]
    fn oversized_length_prefix_rejected_typed(excess in 1u32..1_000_000) {
        let max = 4096u32;
        let mut wire = Vec::new();
        wire.extend_from_slice(&(max + excess).to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let mut cursor = &wire[..];
        let mut reader = FrameReader::new();
        match reader.read_from(&mut cursor, max) {
            Err(FrameError::Oversized { len, max: m }) => {
                prop_assert_eq!(len, max + excess);
                prop_assert_eq!(m, max);
            }
            other => prop_assert!(false, "unexpected {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Live-socket protocol boundary.
// ---------------------------------------------------------------------

/// Reads one response frame from a raw socket within 10 s.
fn read_response(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
) -> Result<RpcResponse, FrameError> {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match reader.read_from(stream, 4 << 20) {
            Ok(Some(payload)) => return Ok(decode_response(&payload).expect("v1 response")),
            Ok(None) => assert!(Instant::now() < deadline, "no response within 10s"),
            Err(e) => return Err(e),
        }
    }
}

#[test]
fn future_version_envelope_rejected_over_live_socket() {
    let (platform, server) = start();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = FrameReader::new();

    // A handcrafted v99 envelope whose payload this build cannot even
    // represent: the version probe must reject it at the boundary.
    write_frame(&mut stream, br#"{"v":99,"msg":{"HoloSubmit":{"x":1}}}"#).unwrap();
    match read_response(&mut stream, &mut reader).unwrap() {
        RpcResponse::Error(e) => {
            assert_eq!(e, ApiError::UnsupportedWireVersion { version: 99 });
            assert!(
                !e.retryable(),
                "a version mismatch needs an upgrade, not a retry"
            );
        }
        other => panic!("unexpected {other:?}"),
    }

    // The reject is per-frame: the same connection still serves v1.
    write_frame(&mut stream, &encode_request(RpcRequest::Ping).unwrap()).unwrap();
    match read_response(&mut stream, &mut reader).unwrap() {
        RpcResponse::Pong { .. } => {}
        other => panic!("unexpected {other:?}"),
    }

    server.stop();
    platform.shutdown();
}

#[test]
fn malformed_payload_rejected_connection_survives() {
    let (platform, server) = start();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = FrameReader::new();

    write_frame(&mut stream, b"not json at all").unwrap();
    match read_response(&mut stream, &mut reader).unwrap() {
        RpcResponse::Error(e) => assert!(matches!(e, ApiError::InvalidRequest(_)), "{e}"),
        other => panic!("unexpected {other:?}"),
    }

    write_frame(&mut stream, &encode_request(RpcRequest::Ping).unwrap()).unwrap();
    assert!(matches!(
        read_response(&mut stream, &mut reader).unwrap(),
        RpcResponse::Pong { .. }
    ));

    server.stop();
    platform.shutdown();
}

#[test]
fn oversized_frame_rejected_typed_then_closed() {
    let (platform, server) = start();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = FrameReader::new();

    // Header only: a declared length past the server's cap must be
    // rejected without the server ever buffering a payload.
    let huge = (64u32 << 20).to_le_bytes();
    stream.write_all(&huge).unwrap();
    stream.write_all(&0u32.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    match read_response(&mut stream, &mut reader).unwrap() {
        RpcResponse::Error(e) => {
            assert!(matches!(e, ApiError::InvalidRequest(_)), "{e}");
            assert!(!e.retryable());
        }
        other => panic!("unexpected {other:?}"),
    }
    // Past an oversized frame the stream is unsynchronized: closed.
    match read_response(&mut stream, &mut reader) {
        Err(FrameError::Closed) => {}
        other => panic!("expected close, got {other:?}"),
    }

    server.stop();
    platform.shutdown();
}

#[test]
fn corrupt_crc_rejected_typed_then_closed() {
    let (platform, server) = start();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = FrameReader::new();

    let payload = encode_request(RpcRequest::Ping).unwrap();
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    let last = wire.len() - 1;
    wire[last] ^= 0xFF;
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();
    match read_response(&mut stream, &mut reader).unwrap() {
        RpcResponse::Error(e) => {
            assert!(matches!(e, ApiError::Transport(_)), "{e}");
            assert!(
                e.retryable(),
                "a damaged transport is retryable over a fresh connection"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    match read_response(&mut stream, &mut reader) {
        Err(FrameError::Closed) => {}
        other => panic!("expected close, got {other:?}"),
    }

    server.stop();
    platform.shutdown();
}

// ---------------------------------------------------------------------
// Remote client end-to-end.
// ---------------------------------------------------------------------

#[test]
fn remote_submit_wait_commits_and_records() {
    let (platform, server) = start();
    let spec = spec();
    let remote = RemoteClient::connect(server.addr()).unwrap();

    // The platform clock is wall time since start; give it a tick so the
    // probe can't legitimately answer 0 on a fast startup.
    std::thread::sleep(Duration::from_millis(2));
    assert!(remote.ping().unwrap() > 0, "platform clock over the wire");

    let handle = remote
        .submit_request(
            TxnRequest::new("spawnVM")
                .args(spec.spawn_args("rpc-vm", 0, 2_048))
                .priority(Priority::High)
                .deadline(Duration::from_secs(30))
                .label("origin", "remote"),
        )
        .unwrap();
    assert!(handle.deadline_ms().is_some());
    let outcome = handle.wait().unwrap();
    assert_eq!(outcome.state, TxnState::Committed, "{:?}", outcome.error);
    assert_eq!(outcome.id, handle.id());

    // Terminal outcomes also answer the non-blocking poll.
    assert_eq!(
        handle.try_outcome().unwrap().map(|o| o.state),
        Some(TxnState::Committed)
    );
    // ...and a zero-bound wait used as a poll, mirroring the in-process
    // handle: the server checks the outcome before the elapsed deadline.
    assert_eq!(
        handle.wait_timeout(Duration::ZERO).unwrap().state,
        TxnState::Committed
    );

    // The durable record crosses the wire whole.
    let record = remote.txn_record(handle.id()).unwrap().expect("retained");
    assert_eq!(record.proc_name, "spawnVM");
    assert!(
        !record.log.is_empty(),
        "execution log travels with the record"
    );

    let counters = platform.metrics().counters();
    assert!(counters.rpc_connections >= 1);
    assert!(counters.rpc_requests >= 4);

    server.stop();
    platform.shutdown();
}

/// Sessions are state, not threads: each `Wait` runs on a transient thread
/// with a coordination session of its own, and by the time its reply is in
/// that session is gone — without having cost the ensemble a purge.
#[test]
fn wait_rpcs_leave_no_session_and_no_purge_behind() {
    /// (live sessions, service writes, ensemble commits) once no write is
    /// in flight between the two counters.
    fn settled(platform: &Tropic) -> (u64, u64, u64) {
        let read = || {
            let stats = platform.coord().stats();
            let commits = platform.coord().ensemble_stats().committed;
            (stats.sessions, stats.writes, commits)
        };
        for _ in 0..200 {
            let first = read();
            std::thread::sleep(Duration::from_millis(50));
            if read() == first {
                return first;
            }
        }
        panic!("the platform kept writing for 10 s with no client active");
    }

    let tmp = TempDir::new("tropic-rpc-sessions");
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 1,
            checkpoint_every: 0,
            ..Default::default()
        }
        .with_data_dir(tmp.path()),
        spec().service(),
        ExecMode::LogicalOnly,
    );
    let server = platform.serve_rpc().expect("bind loopback");
    let spec = spec();
    let remote = RemoteClient::connect(server.addr()).unwrap();
    let submit_and_wait = |request: TxnRequest| {
        let outcome = remote.submit_request(request).unwrap().wait().unwrap();
        assert_eq!(outcome.state, TxnState::Committed, "{:?}", outcome.error);
    };
    let spawn = || TxnRequest::new("spawnVM").args(spec.spawn_args("vm", 0, 64));
    let destroy = || {
        TxnRequest::new("destroyVM")
            .arg("/vmRoot/host0")
            .arg("vm")
            .arg("/storageRoot/storage0")
    };

    // Leader elected, lanes created, dispatch pool connected.
    submit_and_wait(spawn());
    submit_and_wait(destroy());
    let (sessions, writes, commits) = settled(&platform);
    for i in 0..50 {
        submit_and_wait(if i % 2 == 0 { spawn() } else { destroy() });
        let live = platform.coord().stats().sessions;
        assert_eq!(live, sessions, "after pair {i}");
    }
    let (_, writes_after, commits_after) = settled(&platform);
    assert!(writes_after > writes);
    assert_eq!(
        commits_after - commits,
        writes_after - writes,
        "the ensemble committed something no client wrote"
    );

    server.stop();
    platform.shutdown();
}

#[test]
fn remote_batch_submit_lands_atomically() {
    let (platform, server) = start();
    let spec = spec();
    let remote = RemoteClient::connect(server.addr()).unwrap();

    let handles = remote
        .submit_batch(vec![
            TxnRequest::new("spawnVM").args(spec.spawn_args("batch-a", 1, 1_024)),
            TxnRequest::new("spawnVM")
                .args(spec.spawn_args("batch-b", 2, 1_024))
                .priority(Priority::Batch),
        ])
        .unwrap();
    assert_eq!(handles.len(), 2);
    for h in &handles {
        let o = h.wait_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
    }

    server.stop();
    platform.shutdown();
}

/// Blocks (bounded) for the terminal event of transaction `id`.
fn terminal_event(events: &RemoteSubscription<TxnEvent>, id: u64) -> Option<TxnEvent> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        match events.recv_timeout(Duration::from_millis(250)) {
            Some(ev) if ev.id == id && ev.state.is_final() => return Some(ev),
            _ => {}
        }
    }
    None
}

#[test]
fn remote_subscription_delivers_terminal_event() {
    let (platform, server) = start();
    let spec = spec();
    let remote = RemoteClient::connect(server.addr()).unwrap();
    let events = remote.subscribe().unwrap();

    let handle = remote
        .submit_request(TxnRequest::new("spawnVM").args(spec.spawn_args("sub-vm", 3, 512)))
        .unwrap();
    let outcome = handle.wait_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(outcome.state, TxnState::Committed, "{:?}", outcome.error);

    let ev = terminal_event(&events, outcome.id)
        .expect("terminal event must reach the remote subscriber");
    assert_eq!(ev.state, TxnState::Committed);
    assert_eq!(ev.proc_name, "spawnVM");
    let deadline = Instant::now() + Duration::from_secs(10);
    // The reactor flushes the frame before it bumps the counter, so the
    // event can reach this thread first.
    while platform.metrics().counters().rpc_events_streamed < 1 {
        assert!(Instant::now() < deadline, "streamed event never counted");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(events.is_live(), "feed alive while the server serves");

    server.stop();
    // The server closed the stream: the feed reports dead so a consumer
    // can tell a finished feed from a quiet one and resubscribe.
    let dead_by = Instant::now() + Duration::from_secs(10);
    while events.is_live() && Instant::now() < dead_by {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(!events.is_live(), "feed reports dead after server stop");

    drop(events);
    platform.shutdown();
}

#[test]
fn remote_error_taxonomy_preserves_retryable_partition() {
    let (platform, server) = start();
    let remote = RemoteClient::connect(server.addr()).unwrap();

    // A wait on a transaction that never existed times out server-side;
    // the typed error crosses the wire still marked retryable.
    let err = remote
        .handle(999_999_999)
        .wait_timeout(Duration::from_millis(400))
        .unwrap_err();
    assert!(matches!(err, ApiError::WaitTimeout { .. }), "{err}");
    assert!(err.retryable());

    // An unknown procedure aborts at admission; the outcome lifts into the
    // permanent partition — an application outcome, not a transport fault.
    let outcome = remote
        .submit_request(TxnRequest::new("noSuchProcedure"))
        .unwrap()
        .wait_timeout(Duration::from_secs(30))
        .unwrap();
    assert_eq!(outcome.state, TxnState::Aborted);
    let err = outcome.api_error().expect("typed abort");
    assert!(matches!(err, ApiError::UnknownProcedure(_)), "{err}");
    assert!(!err.retryable());

    server.stop();
    platform.shutdown();
}

#[test]
fn remote_signal_rides_the_admin_plane() {
    let (platform, server) = start();
    let spec = spec();
    let remote = RemoteClient::connect(server.addr()).unwrap();

    let handle = remote
        .submit_request(TxnRequest::new("spawnVM").args(spec.spawn_args("sig-vm", 0, 512)))
        .unwrap();
    // The transaction may already be done; the signal enqueue must still
    // succeed — delivery is the controller's concern.
    remote
        .admin()
        .signal(handle.id(), tropic::core::Signal::Term)
        .unwrap();
    let _ = handle.wait_timeout(Duration::from_secs(30));

    server.stop();
    platform.shutdown();
}

#[test]
fn eight_concurrent_remote_clients_idempotent_resubmits_converge() {
    let (platform, server) = start();
    let spec = spec();
    let addr = server.addr();

    let mut threads = Vec::new();
    for t in 0..8 {
        let args = spec.spawn_args("contended-vm", 1, 2_048);
        threads.push(std::thread::spawn(move || {
            let remote = RemoteClient::connect(addr).expect("connect");
            let mut ids = Vec::new();
            for round in 0..3 {
                let handle = remote
                    .submit_request(
                        TxnRequest::new("spawnVM")
                            .args(args.clone())
                            .idempotency_key("contended-spawn")
                            .label("thread", format!("{t}-{round}")),
                    )
                    .expect("submit");
                let outcome = handle
                    .wait_timeout(Duration::from_secs(60))
                    .expect("outcome");
                assert_eq!(outcome.state, TxnState::Committed, "{:?}", outcome.error);
                ids.push(outcome.id);
            }
            ids
        }));
    }

    let mut all_ids = Vec::new();
    for th in threads {
        all_ids.extend(th.join().expect("thread"));
    }
    assert_eq!(all_ids.len(), 24);
    all_ids.dedup();
    all_ids.sort_unstable();
    all_ids.dedup();
    assert_eq!(
        all_ids.len(),
        1,
        "every resubmission must dedup onto the one transaction that ran: {all_ids:?}"
    );

    server.stop();
    platform.shutdown();
}

#[test]
fn shutdown_request_sets_the_flag_but_keeps_serving() {
    let (platform, server) = start();
    let remote = RemoteClient::connect(server.addr()).unwrap();

    assert!(!server.shutdown_requested());
    remote.shutdown_server().unwrap();
    assert!(server.shutdown_requested());
    // The hosting process decides when to act; the server still answers.
    assert!(remote.ping().is_ok());

    server.stop();
    platform.shutdown();
}

// ---------------------------------------------------------------------
// Reactor scale-out and typed close reasons.
// ---------------------------------------------------------------------

/// Opens a raw streaming subscription: one socket, the `Subscribe`
/// handshake, no client-side thread — so a thousand of them cost the
/// test (and the server) file descriptors only.
fn raw_subscribe(addr: std::net::SocketAddr) -> (TcpStream, FrameReader) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let _ = stream.set_nodelay(true);
    write_frame(&mut stream, &encode_request(RpcRequest::Subscribe).unwrap()).unwrap();
    let mut reader = FrameReader::new();
    match read_response(&mut stream, &mut reader).unwrap() {
        RpcResponse::Subscribed => {}
        other => panic!("unexpected {other:?}"),
    }
    (stream, reader)
}

#[test]
fn thousand_idle_subscriptions_served_by_one_reactor() {
    let (platform, server) = start();
    let mut subs: Vec<(TcpStream, FrameReader)> =
        (0..1_000).map(|_| raw_subscribe(server.addr())).collect();

    // The request path stays interactive with 1 000 streams attached to
    // the same event loop.
    let remote = RemoteClient::connect(server.addr()).unwrap();
    remote.ping().unwrap();

    let spec = spec();
    let handle = remote
        .submit_request(TxnRequest::new("spawnVM").args(spec.spawn_args("fan-vm", 3, 512)))
        .unwrap();
    let outcome = handle.wait_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(outcome.state, TxnState::Committed, "{:?}", outcome.error);

    // Fan-out reached the edges of the connection set: the terminal event
    // arrives on the first, middle, and last subscription.
    for idx in [0usize, 499, 999] {
        let (stream, reader) = &mut subs[idx];
        loop {
            match read_response(stream, reader).unwrap() {
                RpcResponse::Event(ev) if ev.id == outcome.id && ev.state.is_final() => break,
                RpcResponse::Event(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    // Every broadcast frame was counted per delivery.
    assert!(platform.metrics().counters().rpc_events_streamed >= 1_000);

    server.stop();
    platform.shutdown();
}

#[test]
fn corrupt_frame_closes_only_its_own_connection() {
    let (platform, server) = start();
    let mut a = TcpStream::connect(server.addr()).unwrap();
    let mut ra = FrameReader::new();
    let mut b = TcpStream::connect(server.addr()).unwrap();
    let mut rb = FrameReader::new();

    for (s, r) in [(&mut a, &mut ra), (&mut b, &mut rb)] {
        write_frame(s, &encode_request(RpcRequest::Ping).unwrap()).unwrap();
        assert!(matches!(
            read_response(s, r).unwrap(),
            RpcResponse::Pong { .. }
        ));
    }

    // A single flipped payload byte mid-stream on A: typed reject, close.
    let payload = encode_request(RpcRequest::Ping).unwrap();
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    let last = wire.len() - 1;
    wire[last] ^= 0x01;
    a.write_all(&wire).unwrap();
    a.flush().unwrap();
    assert!(matches!(
        read_response(&mut a, &mut ra).unwrap(),
        RpcResponse::Error(ApiError::Transport(_))
    ));
    assert!(matches!(
        read_response(&mut a, &mut ra),
        Err(FrameError::Closed)
    ));

    // B shares the reactor but not the damage: it keeps being served.
    write_frame(&mut b, &encode_request(RpcRequest::Ping).unwrap()).unwrap();
    assert!(matches!(
        read_response(&mut b, &mut rb).unwrap(),
        RpcResponse::Pong { .. }
    ));

    server.stop();
    platform.shutdown();
}

#[test]
fn subscription_close_reason_distinguishes_shutdown() {
    let (platform, server) = start();
    let remote = RemoteClient::connect(server.addr()).unwrap();
    let events = remote.subscribe().unwrap();
    assert!(events.close_reason().is_none(), "no reason while live");

    server.stop();
    let deadline = Instant::now() + Duration::from_secs(10);
    while events.is_live() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(!events.is_live());
    // A planned stop says so: the typed goodbye frame, not silence.
    assert_eq!(events.close_reason(), Some(ApiError::ShuttingDown));

    platform.shutdown();
}

/// The event pumps read through ordinary quorum sessions, so no replica is
/// special to a stream: whichever one dies, events keep flowing.
#[test]
fn event_stream_survives_any_single_replica_crash() {
    let (platform, server) = start();
    let spec = spec();
    let remote = RemoteClient::connect(server.addr()).unwrap();
    let events = remote.subscribe().unwrap();

    for replica in 0..3 {
        if replica > 0 {
            platform.coord().restart_replica(replica - 1);
        }
        platform.coord().crash_replica(replica);
        let vm = format!("crash-{replica}-vm");
        let outcome = remote
            .submit_request(TxnRequest::new("spawnVM").args(spec.spawn_args(&vm, replica, 512)))
            .unwrap()
            .wait_timeout(Duration::from_secs(30))
            .unwrap();
        assert_eq!(outcome.state, TxnState::Committed, "{:?}", outcome.error);
        let ev = terminal_event(&events, outcome.id)
            .unwrap_or_else(|| panic!("no terminal event with replica {replica} down"));
        assert_eq!(ev.state, TxnState::Committed);
        assert!(events.is_live(), "stream died with replica {replica}");
        assert_eq!(events.close_reason(), None);
    }

    server.stop();
    platform.shutdown();
}
