//! Integration tests for the chaos harness: schedule determinism, end-to-end
//! injected-fault-count determinism under serialized submission, and the
//! zero-acknowledged-loss invariant across a leader kill.

use std::sync::Arc;
use std::time::Duration;

use tropic::coord::CoordConfig;
use tropic::core::{ExecMode, PlatformConfig, Tropic};
use tropic::devices::LatencyModel;
use tropic::tcloud::TopologySpec;
use tropic::workload::chaos::{
    run_chaos, ChaosSpec, FaultKind, FaultScope, LaneWeights, OpWeights, ScheduledFault, StormSpec,
};

fn small_topo() -> TopologySpec {
    TopologySpec {
        compute_hosts: 4,
        storage_hosts: 1,
        routers: 0,
        storage_capacity_mb: 100_000_000,
        ..Default::default()
    }
}

/// Same seed ⇒ byte-identical arrival schedule and fault storm; different
/// seed ⇒ different. This is what makes a chaos failure reproducible from
/// the two integers in its report.
#[test]
fn schedules_are_deterministic_per_seed() {
    let topo = small_topo();
    let spec = ChaosSpec {
        seed: 11,
        duration_ms: 8_000,
        arrival_per_sec: 25.0,
        ..Default::default()
    };
    assert_eq!(spec.plan(&topo), spec.plan(&topo));
    let reseeded = ChaosSpec {
        seed: 12,
        ..spec.clone()
    };
    assert_ne!(spec.plan(&topo), reseeded.plan(&topo));

    let storm = StormSpec {
        seed: 11,
        duration_ms: 8_000,
        compute_hosts: topo.compute_hosts,
        ..Default::default()
    };
    assert_eq!(storm.generate(), storm.generate());
    let reseeded = StormSpec {
        seed: 12,
        ..storm.clone()
    };
    assert_ne!(storm.generate(), reseeded.generate());
}

fn serialized_run(topo: &TopologySpec, spec: &ChaosSpec) -> (u64, u64, u64) {
    let devices = topo.build_devices(&LatencyModel::zero());
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 1,
            ..Default::default()
        },
        topo.service(),
        ExecMode::Physical(Arc::clone(&devices.registry)),
    );
    let report = run_chaos(&platform, topo, Some(&devices), spec);
    let counters = platform.counters();
    platform.shutdown();
    assert_eq!(report.acked_lost, 0, "no loss expected in a healthy run");
    (counters.faults_injected, report.committed, report.aborted)
}

/// With submission serialized (one client, one lane, one worker, one
/// controller) the device-action order is deterministic, so two identical
/// runs must inject the identical number of faults and finish with the
/// identical commit/abort split.
#[test]
fn injected_fault_counts_are_deterministic_when_serialized() {
    let topo = small_topo();
    let spec = ChaosSpec {
        seed: 5,
        duration_ms: 1_200,
        arrival_per_sec: 25.0,
        clients: 1,
        pool_vms: 0,
        ops: OpWeights {
            spawn: 1,
            toggle: 0,
            migrate: 0,
        },
        lanes: LaneWeights {
            high: 0,
            normal: 1,
            batch: 0,
        },
        faults: vec![ScheduledFault {
            at_ms: 0,
            kind: FaultKind::EveryNth {
                scope: FaultScope::AllComputes,
                action: "createVM".into(),
                n: 3,
            },
        }],
        ..Default::default()
    };
    let (injected_a, committed_a, aborted_a) = serialized_run(&topo, &spec);
    let (injected_b, committed_b, aborted_b) = serialized_run(&topo, &spec);
    assert!(injected_a > 0, "the every-3rd storm never fired");
    assert!(aborted_a > 0, "injected faults must surface as aborts");
    assert_eq!(injected_a, injected_b);
    assert_eq!(committed_a, committed_b);
    assert_eq!(aborted_a, aborted_b);
}

/// A leader kill mid-load must lose nothing acknowledged: a follower takes
/// over and every accepted submission still reaches a terminal state.
#[test]
fn leader_kill_under_load_loses_nothing_acknowledged() {
    let topo = small_topo();
    let devices = topo.build_devices(&LatencyModel::zero());
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 3,
            workers: 1,
            coord: CoordConfig {
                session_timeout_ms: 400,
                tick_ms: 20,
                ..CoordConfig::default()
            },
            ..Default::default()
        },
        topo.service(),
        ExecMode::Physical(Arc::clone(&devices.registry)),
    );
    let spec = ChaosSpec {
        seed: 21,
        duration_ms: 1_500,
        arrival_per_sec: 30.0,
        clients: 3,
        pool_vms: 4,
        faults: vec![ScheduledFault {
            at_ms: 600,
            kind: FaultKind::KillLeader {
                restart_after_ms: Some(700),
            },
        }],
        drain_timeout: Duration::from_secs(120),
        ..Default::default()
    };
    let report = run_chaos(&platform, &topo, Some(&devices), &spec);
    platform.shutdown();
    assert!(report.submitted > 0);
    assert!(
        report.committed > 0,
        "nothing committed across the failover"
    );
    assert_eq!(report.faults.leader_kills, 1);
    assert_eq!(
        report.acked_lost, 0,
        "acknowledged transactions lost across a leader kill"
    );
    // Per-lane accounting must cover every acknowledged submission.
    let lane_total: u64 = report.lanes.iter().map(|l| l.submitted).sum();
    assert_eq!(lane_total, report.submitted);
}
