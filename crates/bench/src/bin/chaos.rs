//! Chaos/stress driver: open-loop load with a concurrent fault schedule,
//! per-lane latency CDFs, and a zero-acknowledged-loss assertion.
//!
//! Three modes (first CLI argument, default `run`):
//!
//! * `smoke` — the short deterministic run `ci.sh --chaos-smoke` gates on:
//!   a durable 3-controller platform executing against simulated devices
//!   while the schedule kills the leader mid-round and storms the compute
//!   fleet, a couple of clients riding the RPC socket; then a full
//!   power-loss restart through a **torn WAL tail** and a second load
//!   phase on the recovered platform. Exits non-zero on any acknowledged
//!   transaction lost, in either phase.
//! * `bench` — a fixed-shape run that appends per-lane p50/p99 (`ms`) and
//!   `acked_lost` (`count`) rows to `TROPIC_BENCH_JSON`, for the
//!   `BENCH_chaos.json` regression gate in `ci.sh --bench-snapshot`.
//! * `run` — a knob-driven run for operators (see
//!   `docs/STRESS_TESTING.md`), printing the report JSON to stdout.
//!
//! Knobs (all modes): `TROPIC_CHAOS_SEED`, `TROPIC_CHAOS_DURATION_MS`,
//! `TROPIC_CHAOS_RATE` (txn/s), `TROPIC_CHAOS_CLIENTS`,
//! `TROPIC_CHAOS_RPC_CLIENTS`, `TROPIC_CHAOS_POOL_VMS`. The report lands
//! at `TROPIC_CHAOS_REPORT` (default `CHAOS_report.json` in smoke mode,
//! stdout otherwise).

use std::time::Duration;

use tropic_bench::{emit_row, env_f64, env_usize};
use tropic_coord::{CoordConfig, DurabilityOptions, TempDir};
use tropic_core::{ExecMode, PlatformConfig, Tropic, TxnRequest, TxnState};
use tropic_devices::LatencyModel;
use tropic_tcloud::TopologySpec;
use tropic_workload::chaos::{run_chaos, tear_wal_tails, ChaosReport, ChaosSpec, StormSpec};

fn spec_from_env(seed: u64, duration_ms: u64) -> ChaosSpec {
    ChaosSpec {
        seed: env_usize("TROPIC_CHAOS_SEED", seed as usize) as u64,
        duration_ms: env_usize("TROPIC_CHAOS_DURATION_MS", duration_ms as usize) as u64,
        arrival_per_sec: env_f64("TROPIC_CHAOS_RATE", 40.0),
        clients: env_usize("TROPIC_CHAOS_CLIENTS", 4),
        rpc_clients: env_usize("TROPIC_CHAOS_RPC_CLIENTS", 0),
        pool_vms: env_usize("TROPIC_CHAOS_POOL_VMS", 6),
        ..Default::default()
    }
}

fn topology() -> TopologySpec {
    TopologySpec {
        compute_hosts: 8,
        storage_hosts: 2,
        routers: 0,
        storage_capacity_mb: 100_000_000,
        ..Default::default()
    }
}

fn platform_config(data_dir: Option<&std::path::Path>) -> PlatformConfig {
    let mut config = PlatformConfig {
        controllers: 3,
        workers: 2,
        checkpoint_every: 0,
        coord: CoordConfig {
            // Aggressive failure detection so a leader kill resolves well
            // inside the smoke budget (the §6.4 sweep shows recovery ≈
            // session timeout + a small constant).
            session_timeout_ms: 500,
            tick_ms: 25,
            durability: if data_dir.is_some() {
                DurabilityOptions {
                    snapshot_every_ops: 64,
                    ..DurabilityOptions::default()
                }
            } else {
                DurabilityOptions::default()
            },
            ..CoordConfig::default()
        },
        ..Default::default()
    };
    if let Some(dir) = data_dir {
        config = config.with_data_dir(dir);
    }
    config
}

fn print_summary(report: &ChaosReport) {
    println!(
        "chaos: {} submitted, {} committed, {} aborted, {} failed, {} lost \
         ({} faults injected, {} leader kills, wall {} ms)",
        report.submitted,
        report.committed,
        report.aborted,
        report.failed,
        report.acked_lost,
        report.faults.injected,
        report.faults.leader_kills,
        report.wall_ms
    );
    println!("| lane | submitted | committed | aborted | p50 ms | p99 ms | abort rate |");
    println!("|------|----------:|----------:|--------:|-------:|-------:|-----------:|");
    for lane in &report.lanes {
        println!(
            "| {} | {} | {} | {} | {} | {} | {:.3} |",
            lane.lane,
            lane.submitted,
            lane.committed,
            lane.aborted + lane.failed,
            lane.committed_latency.p50_ms,
            lane.committed_latency.p99_ms,
            lane.abort_rate
        );
    }
}

fn write_report(report: &ChaosReport, default_path: Option<&str>) {
    let path = std::env::var("TROPIC_CHAOS_REPORT")
        .ok()
        .or_else(|| default_path.map(str::to_owned));
    match path {
        Some(path) => {
            std::fs::write(&path, report.to_json()).expect("write chaos report");
            println!("report written to {path}");
        }
        None => println!("{}", report.to_json()),
    }
}

/// Appends the gate rows: per-lane committed p50/p99 (samples = committed
/// count) plus the acked-loss count (samples = submissions).
fn emit_bench_rows(report: &ChaosReport) {
    for lane in &report.lanes {
        let stats = &lane.committed_latency;
        for (metric, ms) in [("p50", stats.p50_ms), ("p99", stats.p99_ms)] {
            let name = format!("chaos/{metric}_{}", lane.lane);
            emit_row(&name, ms, "ms", stats.count);
        }
    }
    emit_row(
        "chaos/acked_lost",
        report.acked_lost,
        "count",
        report.submitted,
    );
}

/// The CI smoke: load + leader kill + device storm + RPC clients, then a
/// torn-WAL-tail restart, asserting zero acknowledged loss throughout.
fn smoke() {
    let tmp = TempDir::new("tropic-chaos-smoke");
    let topo = topology();
    let devices = topo.build_devices(&LatencyModel::zero());
    let config = platform_config(Some(tmp.path()));
    let platform = Tropic::start(
        config.clone(),
        topo.service(),
        ExecMode::Physical(std::sync::Arc::clone(&devices.registry)),
    );
    let rpc = platform.serve_rpc().expect("rpc frontend");
    let addr = rpc.addr().to_string();

    let mut spec = spec_from_env(42, 2_500);
    spec.rpc_clients = env_usize("TROPIC_CHAOS_RPC_CLIENTS", 2);
    spec.rpc_addr = Some(addr);
    spec.faults = StormSpec {
        seed: spec.seed,
        duration_ms: spec.duration_ms,
        compute_hosts: topo.compute_hosts,
        leader_kills: 1,
        leader_restart_after_ms: Some(800),
        down_bursts: 1,
        down_burst_ms: 300,
        every_nth: vec![("createVM".into(), 5)],
        one_shots: vec!["migrateVM".into()],
    }
    .generate();

    println!(
        "phase 1: open-loop load ({} ms @ {}/s, {} clients, {} over RPC) + fault storm",
        spec.duration_ms, spec.arrival_per_sec, spec.clients, spec.rpc_clients
    );
    let report = run_chaos(&platform, &topo, Some(&devices), &spec);
    print_summary(&report);
    for event in &report.faults.events {
        println!(
            "  fault @{:>5} ms: {}",
            event.applied_at_ms, event.description
        );
    }
    assert!(report.submitted > 0, "no load was submitted");
    assert!(report.committed > 0, "nothing committed under chaos");
    assert_eq!(
        report.faults.leader_kills, 1,
        "the leader kill never landed"
    );
    assert!(
        report.faults.injected > 0,
        "the device storm never injected a fault"
    );
    assert_eq!(
        report.acked_lost, 0,
        "acknowledged transactions lost under chaos"
    );
    write_report(&report, Some("CHAOS_report.json"));

    // Acknowledge a marker batch, then power-loss the platform and tear
    // the WAL tails before recovering: the torn bytes must be truncated
    // away without losing anything acknowledged.
    let client = platform.client();
    let mut acknowledged = Vec::new();
    for i in 0..6 {
        let outcome = client
            .submit_request(TxnRequest::new("spawnVM").args(topo.spawn_args(
                &format!("marker{i}"),
                i,
                1_024,
            )))
            .expect("marker submit")
            .wait_timeout(Duration::from_secs(60))
            .expect("marker txn");
        assert_eq!(outcome.state, TxnState::Committed, "{:?}", outcome.error);
        acknowledged.push(outcome.id);
    }
    rpc.stop();
    platform.shutdown();

    let torn = tear_wal_tails(tmp.path(), b"\xde\xad\xbe\xefgarbage-torn-tail").expect("tear");
    println!("\nphase 2: tore {torn} WAL tails; recovering from disk");
    assert!(torn > 0, "no WAL segments found to tear");

    let devices2 = topo.build_devices(&LatencyModel::zero());
    let platform = Tropic::recover(
        config,
        topo.service(),
        ExecMode::Physical(std::sync::Arc::clone(&devices2.registry)),
    );
    let client = platform.client();
    let mut lost = 0;
    for id in &acknowledged {
        match client.txn_record(*id).expect("coord") {
            Some(rec) if rec.state == TxnState::Committed => {}
            other => {
                lost += 1;
                println!("  LOST acknowledged txn {id}: {other:?}");
            }
        }
    }
    assert_eq!(lost, 0, "torn-tail recovery lost acknowledged transactions");

    // The recovered platform must still take load.
    let outcome = client
        .submit_request(TxnRequest::new("spawnVM").args(topo.spawn_args("post-recovery", 0, 1_024)))
        .expect("post-recovery submit")
        .wait_timeout(Duration::from_secs(60))
        .expect("post-recovery txn");
    assert_eq!(outcome.state, TxnState::Committed, "{:?}", outcome.error);
    platform.shutdown();
    println!(
        "post-recovery: {}/{} acknowledged records intact, new load accepted",
        acknowledged.len(),
        acknowledged.len()
    );
    println!("\nchaos smoke passed.");
}

/// Fixed-shape run for the `BENCH_chaos.json` p99 regression gate.
fn bench() {
    let topo = topology();
    let devices = topo.build_devices(&LatencyModel::zero());
    let platform = Tropic::start(
        platform_config(None),
        topo.service(),
        ExecMode::Physical(std::sync::Arc::clone(&devices.registry)),
    );
    let mut spec = spec_from_env(7, 4_000);
    spec.arrival_per_sec = env_f64("TROPIC_CHAOS_RATE", 60.0);
    spec.clients = env_usize("TROPIC_CHAOS_CLIENTS", 6);
    spec.faults = StormSpec {
        seed: spec.seed,
        duration_ms: spec.duration_ms,
        compute_hosts: topo.compute_hosts,
        leader_kills: 1,
        leader_restart_after_ms: Some(1_000),
        down_bursts: 0,
        down_burst_ms: 0,
        every_nth: vec![("createVM".into(), 9)],
        one_shots: vec![],
    }
    .generate();

    let report = run_chaos(&platform, &topo, Some(&devices), &spec);
    platform.shutdown();
    print_summary(&report);
    for lane in &report.lanes {
        assert!(
            lane.committed > 0,
            "lane {} saw no committed traffic — bench shape too small",
            lane.lane
        );
    }
    assert_eq!(report.acked_lost, 0, "acknowledged transactions lost");
    emit_bench_rows(&report);
    write_report(&report, None);
}

/// Knob-driven operator run (no assertions): report JSON to stdout or
/// `TROPIC_CHAOS_REPORT`.
fn run() {
    let topo = topology();
    let devices = topo.build_devices(&LatencyModel::zero());
    let platform = Tropic::start(
        platform_config(None),
        topo.service(),
        ExecMode::Physical(std::sync::Arc::clone(&devices.registry)),
    );
    let mut spec = spec_from_env(42, 5_000);
    spec.faults = StormSpec {
        seed: spec.seed,
        duration_ms: spec.duration_ms,
        compute_hosts: topo.compute_hosts,
        ..Default::default()
    }
    .generate();
    let report = run_chaos(&platform, &topo, Some(&devices), &spec);
    platform.shutdown();
    print_summary(&report);
    write_report(&report, None);
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("smoke") => smoke(),
        Some("bench") => bench(),
        Some("run") | None => run(),
        Some(other) => {
            eprintln!("unknown mode {other:?}: expected smoke | bench | run");
            std::process::exit(2);
        }
    }
}
