//! Remote quickstart: drive a TROPIC platform from a **separate OS
//! process** over the network RPC frontend.
//!
//! Three modes:
//!
//! * `remote_quickstart serve <addr-file>` — start a platform, serve the
//!   RPC frontend on an ephemeral loopback port, write the bound address
//!   to `<addr-file>`, and run until a client asks for shutdown.
//! * `remote_quickstart client <addr>` — connect a [`TropicClient`] to a
//!   serving process: submit a transaction, follow its handle, run the
//!   operator plane (`repair` and `reload`), stream lifecycle events,
//!   exercise the typed error taxonomy and the version-rejection policy,
//!   then request a clean server shutdown.
//! * no arguments — single-process demo: serve and drive in one binary.
//!
//! `ci.sh --rpc-smoke` runs the first two as two real processes on one
//! loopback socket and asserts both exit cleanly.

use std::time::Duration;

use tropic::coord::{write_frame, FrameReader};
use tropic::core::rpc::{decode_response, RpcResponse};
use tropic::core::{
    ApiError, ExecMode, PlatformConfig, Priority, Tropic, TropicClient, TxnRequest, TxnState,
};
use tropic::devices::LatencyModel;
use tropic::model::Path;
use tropic::tcloud::TopologySpec;

fn spec() -> TopologySpec {
    TopologySpec {
        compute_hosts: 4,
        storage_hosts: 1,
        routers: 1,
        ..Default::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("serve") => {
            let addr_file = args
                .get(2)
                .expect("usage: remote_quickstart serve <addr-file>");
            serve(addr_file);
        }
        Some("client") => {
            let addr = args.get(2).expect("usage: remote_quickstart client <addr>");
            client(addr);
        }
        None => {
            // Single-process demo: serve on an ephemeral port, then drive
            // it through the same client path the two-process mode uses.
            let devices = spec().build_devices(&LatencyModel::tcloud_scaled());
            let platform = Tropic::start(
                PlatformConfig::default(),
                spec().service(),
                ExecMode::Physical(devices.registry.clone()),
            );
            let server = platform.serve_rpc().expect("bind loopback");
            let addr = server.addr().to_string();
            println!("serving RPC on {addr} (single-process demo)\n");
            client(&addr);
            server.stop();
            platform.shutdown();
        }
        Some(other) => {
            eprintln!(
                "unknown mode `{other}`; use `serve <addr-file>`, `client <addr>`, or no args"
            );
            std::process::exit(2);
        }
    }
}

/// The server process: platform + RPC frontend, alive until a client
/// requests shutdown over the wire.
fn serve(addr_file: &str) {
    let devices = spec().build_devices(&LatencyModel::tcloud_scaled());
    let platform = Tropic::start(
        PlatformConfig::default(), // 3 replicated controllers, as the paper deploys
        spec().service(),
        ExecMode::Physical(devices.registry.clone()),
    );
    let server = platform.serve_rpc().expect("bind loopback");
    let addr = server.addr().to_string();
    // Atomic handoff: the smoke script polls for this file, so it must
    // never observe a half-written address.
    let tmp = format!("{addr_file}.tmp");
    std::fs::write(&tmp, &addr).expect("write addr file");
    std::fs::rename(&tmp, addr_file).expect("publish addr file");
    println!("server: RPC frontend on {addr}, waiting for remote clients...");

    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("server: shutdown requested over the wire; draining...");
    server.stop();
    platform.shutdown();
    println!("server: clean shutdown.");
}

/// The client process: a genuinely separate OS process driving the
/// platform purely through the socket.
fn client(addr: &str) {
    let remote = TropicClient::connect(addr).expect("connect to server");
    println!("client: connected to {addr}");

    // Stream lifecycle events on a dedicated connection while we work.
    let events = remote.subscribe().expect("subscribe");

    // 1. One typed request over the wire: the same client, builder and
    //    handle as in-process — only the transport differs.
    println!("client: spawning web-1 remotely...");
    let handle = remote
        .submit_request(
            TxnRequest::new("spawnVM")
                .args(spec().spawn_args("web-1", 0, 2_048))
                .priority(Priority::High)
                .deadline(Duration::from_secs(60))
                .idempotency_key("remote-spawn-web-1")
                .label("origin", "remote_quickstart"),
        )
        .expect("submit over socket");
    println!("client:   txn {} submitted", handle.id());
    let outcome = handle.wait().expect("outcome within the deadline");
    println!(
        "client:   -> {:?} in {} ms",
        outcome.state, outcome.latency_ms
    );
    assert_eq!(outcome.state, TxnState::Committed, "{:?}", outcome.error);

    // 2. Idempotent resubmit over the wire dedups onto the original.
    let dup = remote
        .submit_request(
            TxnRequest::new("spawnVM")
                .args(spec().spawn_args("web-1", 0, 2_048))
                .idempotency_key("remote-spawn-web-1"),
        )
        .expect("resubmit")
        .wait_timeout(Duration::from_secs(30))
        .expect("dedup outcome");
    assert_eq!(dup.id, outcome.id, "dedup returns the original TxnId");
    println!("client:   resubmit deduped onto txn {}", dup.id);

    // 3. The durable record crosses the wire whole.
    let record = remote
        .txn_record(outcome.id)
        .expect("record call")
        .expect("record retained");
    println!(
        "client:   durable record: {} log entries, state {:?}",
        record.log.len(),
        record.state
    );

    // 4. The operator plane over the wire: with the spawn committed the
    //    layers agree, so a whole-tree repair plans nothing and a reload
    //    of the spawn's host finds nothing drifted.
    let repair = remote
        .repair(&Path::root(), Duration::from_secs(30))
        .expect("repair over socket");
    assert!(repair.ok && repair.actions == 0, "{}", repair.message);
    println!("client:   repair(/) -> {}", repair.message);
    let host0 = Path::parse("/vmRoot/host0").expect("static path");
    let reload = remote
        .reload(&host0, Duration::from_secs(30))
        .expect("reload over socket");
    assert!(reload.ok && reload.drifted == 0, "{}", reload.message);
    println!("client:   reload({host0}) -> {}", reload.message);

    // 5. Typed errors survive the wire with their retryable partition.
    let err = remote
        .handle(987_654_321)
        .wait_timeout(Duration::from_millis(300))
        .expect_err("no such txn");
    assert!(matches!(err, ApiError::WaitTimeout { .. }));
    assert!(err.retryable());
    println!(
        "client:   wait on unknown txn -> {err} (retryable: {})",
        err.retryable()
    );

    // 6. Version-rejection policy, demonstrated on a raw socket: a
    //    future-version envelope is refused typed, never misparsed.
    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    write_frame(&mut raw, br#"{"v":99,"msg":{"FutureThing":{}}}"#).expect("send future envelope");
    raw.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut reader = FrameReader::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let rejection = loop {
        match reader.read_from(&mut raw, 4 << 20) {
            Ok(Some(payload)) => break decode_response(&payload).expect("v1 reply"),
            Ok(None) => assert!(std::time::Instant::now() < deadline, "no reply"),
            Err(e) => panic!("unexpected {e}"),
        }
    };
    match rejection {
        RpcResponse::Error(e) => {
            assert_eq!(e, ApiError::UnsupportedWireVersion { version: 99 });
            println!("client:   future-version envelope -> {e}");
        }
        other => panic!("unexpected {other:?}"),
    }

    // 7. The subscription saw the terminal transition.
    let sub_deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut saw_terminal = false;
    while std::time::Instant::now() < sub_deadline && !saw_terminal {
        if let Some(ev) = events.recv_timeout(Duration::from_millis(250)) {
            println!(
                "client:   event: txn {} [{:?}] {} -> {:?}",
                ev.id, ev.priority, ev.proc_name, ev.state
            );
            if ev.id == outcome.id && ev.state.is_final() {
                saw_terminal = true;
            }
        }
    }
    assert!(
        saw_terminal,
        "terminal event must reach the remote subscriber"
    );
    drop(events);

    // 8. Ask the serving process to shut down cleanly.
    remote.shutdown_server().expect("shutdown request");
    println!("client: requested server shutdown; done.");
}
