//! Reconciler MTTR driver: drift-to-converged latency at fleet scale.
//!
//! Boots a twin-enabled platform over a simulated fleet, waits for the
//! reconciler to observe every mount in sync, injects rogue-VM drift on a
//! spread of hosts, and measures the per-resource detection-to-convergence
//! latency (the MTTR samples the metrics pipeline records when a drift
//! episode closes). The paper's repair/reload primitives (§4) run on
//! operator demand; this bin measures their continuous, autonomous
//! counterpart at 1k and 16k resources.
//!
//! Two modes (first CLI argument, default `run`):
//!
//! * `bench` — fixed-shape runs at each size in `TROPIC_RECONCILE_SIZES`
//!   (default `1000,16000`), appending `reconcile/mttr_p50_<size>` /
//!   `reconcile/mttr_p99_<size>` / `reconcile/baseline_sync_<size>` rows
//!   (`ms`) to `TROPIC_BENCH_JSON`, for the `BENCH_reconcile.json` MTTR
//!   gate in `ci.sh --bench-snapshot`.
//! * `run` — a knob-driven run for operators, printing per-size summaries.
//!
//! Knobs: `TROPIC_RECONCILE_SIZES` (comma-separated host counts),
//! `TROPIC_RECONCILE_DRIFTS` (drifted hosts per run, default 32),
//! `TROPIC_RECONCILE_INTERVAL_MS` (reconcile tick, default 50),
//! `TROPIC_RECONCILE_REPORT_MS` (report pump period, default 25),
//! `TROPIC_RECONCILE_TIMEOUT_S` (per-phase deadline, default 180).

use std::time::{Duration, Instant};

use tropic_bench::{emit_row, env_usize};
use tropic_core::{ExecMode, PlatformConfig, Tropic, TwinConfig, TwinPhase};
use tropic_devices::LatencyModel;
use tropic_tcloud::TopologySpec;

/// One size's outcome: how long the fleet took to reach full baseline
/// sync, and the MTTR distribution over the injected drift episodes.
struct SizeReport {
    hosts: usize,
    drifts: usize,
    baseline_sync_ms: u64,
    mttr_ms: Vec<u64>,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn size_label(hosts: usize) -> String {
    if hosts.is_multiple_of(1000) && hosts >= 1000 {
        format!("{}k", hosts / 1000)
    } else {
        hosts.to_string()
    }
}

fn twin_from_env() -> TwinConfig {
    TwinConfig {
        interval_ms: env_usize("TROPIC_RECONCILE_INTERVAL_MS", 50) as u64,
        report_interval_ms: env_usize("TROPIC_RECONCILE_REPORT_MS", 25) as u64,
        ..TwinConfig::enabled()
    }
}

/// Boots a twin-enabled platform over `hosts` compute servers, waits for
/// full baseline sync, injects `drifts` rogue VMs, and collects the MTTR
/// samples the reconciler records as each episode converges.
fn measure(hosts: usize, drifts: usize, timeout: Duration) -> SizeReport {
    let topo = TopologySpec {
        compute_hosts: hosts,
        storage_hosts: 1,
        routers: 0,
        storage_capacity_mb: 100_000_000,
        ..Default::default()
    };
    let devices = topo.build_devices(&LatencyModel::zero());
    let config = PlatformConfig {
        controllers: 1,
        workers: 2,
        twin: twin_from_env(),
        ..Default::default()
    };
    let platform = Tropic::start(
        config,
        topo.service(),
        ExecMode::Physical(std::sync::Arc::clone(&devices.registry)),
    );
    let twin = platform
        .client()
        .subscribe_twin()
        .expect("in-process twin feed");

    // Baseline: the reconciler publishes one InSync event per mount the
    // first time it observes the mount matching desired state. All
    // devices (computes + storage) must check in before drift injection,
    // so the measured episodes start from a quiescent, fully-scanned
    // fleet.
    let mounts = hosts + topo.storage_hosts;
    let started = Instant::now();
    let mut in_sync = 0usize;
    while in_sync < mounts {
        assert!(
            started.elapsed() < timeout,
            "baseline sync stalled at {in_sync}/{mounts} mounts after {:?}",
            timeout
        );
        for event in twin.drain() {
            if event.phase == TwinPhase::InSync {
                in_sync += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let baseline_sync_ms = started.elapsed().as_millis() as u64;

    // Inject rogue VMs on an even spread of hosts: out-of-band creations
    // the logical tree knows nothing about, exactly the volatile-resource
    // drift of paper §4. Stopped rogues also exercise the best-effort
    // repair path (the planned stopVM fails its precondition; the
    // removeVM that follows must still land).
    let stride = (hosts / drifts).max(1);
    let mut injected = 0usize;
    for i in 0..drifts {
        let host = (i * stride) % hosts;
        devices.computes[host].oob_create_vm(&format!("rogue{i}"), "rogue-img", 128, i % 2 == 0);
        injected += 1;
    }

    let before = platform.counters().drift_repaired;
    let waited = Instant::now();
    while platform.counters().drift_repaired < before + injected as u64 {
        assert!(
            waited.elapsed() < timeout,
            "convergence stalled: {}/{} episodes repaired after {:?}",
            platform.counters().drift_repaired - before,
            injected,
            timeout
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut mttr_ms = platform.metrics().convergence_samples();
    mttr_ms.sort_unstable();
    platform.shutdown();
    SizeReport {
        hosts,
        drifts: injected,
        baseline_sync_ms,
        mttr_ms,
    }
}

fn print_summary(report: &SizeReport) {
    println!(
        "reconcile @ {} hosts: baseline sync {} ms; {} drift episodes, \
         MTTR p50 {} ms, p99 {} ms, max {} ms",
        report.hosts,
        report.baseline_sync_ms,
        report.drifts,
        percentile(&report.mttr_ms, 0.50),
        percentile(&report.mttr_ms, 0.99),
        report.mttr_ms.last().copied().unwrap_or(0),
    );
}

/// Appends the gate rows: MTTR p50/p99 and the baseline full-fleet sync
/// time (samples = drift episodes measured).
fn emit_bench_rows(report: &SizeReport) {
    let label = size_label(report.hosts);
    for (metric, ms) in [
        ("mttr_p50", percentile(&report.mttr_ms, 0.50)),
        ("mttr_p99", percentile(&report.mttr_ms, 0.99)),
        ("baseline_sync", report.baseline_sync_ms),
    ] {
        let name = format!("reconcile/{metric}_{label}");
        emit_row(&name, ms, "ms", report.mttr_ms.len() as u64);
    }
}

fn sizes_from_env() -> Vec<usize> {
    std::env::var("TROPIC_RECONCILE_SIZES")
        .unwrap_or_else(|_| "1000,16000".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n: &usize| n > 0)
        .collect()
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "run".into());
    if !matches!(mode.as_str(), "bench" | "run") {
        eprintln!("unknown mode {mode:?}: expected bench | run");
        std::process::exit(2);
    }
    let drifts = env_usize("TROPIC_RECONCILE_DRIFTS", 32);
    let timeout = Duration::from_secs(env_usize("TROPIC_RECONCILE_TIMEOUT_S", 180) as u64);
    for hosts in sizes_from_env() {
        let report = measure(hosts, drifts.min(hosts), timeout);
        print_summary(&report);
        if mode == "bench" {
            assert!(
                !report.mttr_ms.is_empty(),
                "no MTTR samples recorded at {hosts} hosts"
            );
            emit_bench_rows(&report);
        }
    }
}
