//! Criterion macro-bench: the submit→outcome round trip through the
//! network RPC frontend versus the linked-in client.
//!
//! Three variants quantify what the socket costs on the commit path:
//!
//! * `in_process`    — `TropicClient` submits + waits (the PR 4 baseline).
//! * `over_socket`   — the same transactions through `RemoteClient`: two
//!   framed envelopes per call (submit, then a server-side blocking wait).
//! * `batch_socket`  — a 16-request `submit_batch` over the socket, one
//!   atomic enqueue per batch; the throughput shape.
//!
//! Both `in_process` and `over_socket` drive an *identical* pipelined
//! window: submit `WINDOW` spawns, wait for all, submit `WINDOW` destroys,
//! wait for all. A single submit→wait pair per iteration measured mostly
//! controller scheduling-round alignment (the txn idles in `inputQ` until
//! the next round fires), which once inverted the two numbers and made the
//! overhead gate vacuous; the window amortizes that quantization equally
//! on both sides, so the difference between the two means is the per-txn
//! transport cost and nothing else.
//!
//! A fourth variant measures the reactor's scale-out claim directly:
//!
//! * `concurrent_connections` — `MIN_LIVE_CONNECTIONS` (1 000) idle
//!   streaming subscriptions are opened and **held live** on the one
//!   event loop, then the ping round trip is timed under that load. The
//!   held count is appended to the `TROPIC_BENCH_JSON` stream as the
//!   `rpc_roundtrip/live_connections` row.
//!
//! `ci.sh --bench-snapshot` records the means in `BENCH_rpc.json` (each
//! iteration is 2×`WINDOW` txns for the first two variants, 2×`BATCH` for
//! the third); `bench-gate` holds `over_socket / in_process` and the held
//! connection count to the `socket_over_in_process` and `live_connections`
//! limits in `tropic_bench::gate`: the frontend may tax the round trip,
//! but never by more than that multiple, and it must genuinely sustain
//! that connection fan-in.

use criterion::{criterion_group, criterion_main, Criterion};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use tropic_bench::{emit_row, gate::MIN_LIVE_CONNECTIONS};
use tropic_coord::{write_frame, FrameReader};
use tropic_core::rpc::{decode_response, encode_request, RpcRequest, RpcResponse};
use tropic_core::{ExecMode, PlatformConfig, RemoteClient, Tropic, TxnRequest, TxnState};
use tropic_tcloud::TopologySpec;

const BATCH: usize = 16;
/// In-flight submissions per wave in the `in_process`/`over_socket`
/// drivers.
const WINDOW: usize = 8;

fn spec() -> TopologySpec {
    TopologySpec {
        compute_hosts: 64,
        storage_hosts: 16,
        routers: 0,
        storage_capacity_mb: 1_000_000_000,
        host_mem_mb: 1_000_000,
        ..Default::default()
    }
}

fn platform() -> Tropic {
    Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 1,
            checkpoint_every: 0,
            ..Default::default()
        },
        spec().service(),
        ExecMode::LogicalOnly,
    )
}

fn spawn_request(spec: &TopologySpec, i: u64) -> TxnRequest {
    let host = (i % 64) as usize;
    TxnRequest::new("spawnVM").args(spec.spawn_args(&format!("rpc{i}"), host, 2_048))
}

fn destroy_request(i: u64) -> TxnRequest {
    let host = (i % 64) as usize;
    TxnRequest::new("destroyVM")
        .arg(TopologySpec::host_path(host).to_string())
        .arg(format!("rpc{i}"))
        .arg(TopologySpec::storage_path(host / 4).to_string())
}

/// Opens `n` raw streaming subscriptions (socket + `Subscribe` handshake,
/// no client-side threads) and returns them; they stay attached to the
/// server's event loop for as long as the vec lives.
fn hold_subscriptions(addr: SocketAddr, n: usize) -> Vec<TcpStream> {
    let mut held = Vec::with_capacity(n);
    for i in 0..n {
        let mut stream = TcpStream::connect(addr).expect("connect subscription");
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("read timeout");
        write_frame(
            &mut stream,
            &encode_request(RpcRequest::Subscribe).expect("encode"),
        )
        .expect("send Subscribe");
        let mut reader = FrameReader::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match reader.read_from(&mut stream, 4 << 20) {
                Ok(Some(payload)) => match decode_response(&payload).expect("v1 response") {
                    RpcResponse::Subscribed => break,
                    other => panic!("conn {i}: unexpected {other:?}"),
                },
                Ok(None) => assert!(
                    std::time::Instant::now() < deadline,
                    "conn {i}: no Subscribed ack within 10s"
                ),
                Err(e) => panic!("conn {i}: {e}"),
            }
        }
        held.push(stream);
    }
    held
}

/// One pipelined wave: submit every request (each its own submit call on
/// the driver under test), then wait every outcome to Committed.
fn run_wave<H>(
    submit: &mut impl FnMut(TxnRequest) -> H,
    wait: &mut impl FnMut(H) -> TxnState,
    reqs: Vec<TxnRequest>,
) {
    let handles: Vec<H> = reqs.into_iter().map(&mut *submit).collect();
    for h in handles {
        assert_eq!(wait(h), TxnState::Committed);
    }
}

fn bench(c: &mut Criterion) {
    let spec = spec();
    let platform = platform();
    let server = platform.serve_rpc().expect("bind loopback");
    let local = platform.client();
    let remote = RemoteClient::connect(server.addr()).expect("connect");

    let mut group = c.benchmark_group("rpc_roundtrip");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(8));

    // Baseline first, so a snapshot always has the "before" number.
    let mut i = 0u64;
    group.bench_function("in_process", |b| {
        b.iter(|| {
            let mut submit = |req: TxnRequest| local.submit_request(req).unwrap();
            let mut wait =
                |h: tropic_core::TxnHandle| h.wait_timeout(Duration::from_secs(60)).unwrap().state;
            let base = i;
            run_wave(
                &mut submit,
                &mut wait,
                (0..WINDOW as u64)
                    .map(|n| spawn_request(&spec, base + n))
                    .collect(),
            );
            run_wave(
                &mut submit,
                &mut wait,
                (0..WINDOW as u64)
                    .map(|n| destroy_request(base + n))
                    .collect(),
            );
            i += WINDOW as u64;
        })
    });

    let mut j = 1_000_000u64;
    group.bench_function("over_socket", |b| {
        b.iter(|| {
            let mut submit = |req: TxnRequest| remote.submit_request(req).unwrap();
            let mut wait = |h: tropic_core::RemoteHandle<'_>| {
                h.wait_timeout(Duration::from_secs(60)).unwrap().state
            };
            let base = j;
            run_wave(
                &mut submit,
                &mut wait,
                (0..WINDOW as u64)
                    .map(|n| spawn_request(&spec, base + n))
                    .collect(),
            );
            run_wave(
                &mut submit,
                &mut wait,
                (0..WINDOW as u64)
                    .map(|n| destroy_request(base + n))
                    .collect(),
            );
            j += WINDOW as u64;
        })
    });

    // Batched submit: one atomic enqueue for BATCH spawns, then waits.
    let mut k = 2_000_000u64;
    group.bench_function("batch_socket", |b| {
        b.iter(|| {
            let reqs: Vec<TxnRequest> = (0..BATCH as u64)
                .map(|n| spawn_request(&spec, k + n))
                .collect();
            let handles = remote.submit_batch(reqs).unwrap();
            for h in &handles {
                let o = h.wait_timeout(Duration::from_secs(60)).unwrap();
                assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
            }
            let destroys: Vec<TxnRequest> =
                (0..BATCH as u64).map(|n| destroy_request(k + n)).collect();
            let handles = remote.submit_batch(destroys).unwrap();
            for h in &handles {
                let o = h.wait_timeout(Duration::from_secs(60)).unwrap();
                assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
            }
            k += BATCH as u64;
        })
    });

    // Scale-out dimension: the same ping round trip, but with a large
    // idle subscription set attached to the one event loop. Under the
    // old thread-per-connection server this many streams meant this many
    // threads; the reactor must hold them as file descriptors only and
    // keep the request path interactive.
    let held = hold_subscriptions(server.addr(), MIN_LIVE_CONNECTIONS);
    group.bench_function("concurrent_connections", |b| {
        b.iter(|| {
            remote.ping().expect("ping under connection load");
        })
    });
    emit_row(
        "rpc_roundtrip/live_connections",
        held.len() as u64,
        "count",
        1,
    );
    drop(held);

    group.finish();
    server.stop();
    platform.shutdown();
}

criterion_group!(benches, bench);
criterion_main!(benches);
