//! High availability (paper §2.3, §6.4): leader crashes are survived by
//! follower takeover with idempotent recovery; no submitted transaction is
//! lost.

mod common;

use std::time::Duration;

use tropic::coord::CoordConfig;
use tropic::core::{ExecMode, PlatformConfig, Tropic, TxnState};
use tropic::tcloud::TopologySpec;

use common::{submit, submit_and_wait};

const WAIT: Duration = Duration::from_secs(120);

fn ha_platform(spec: &TopologySpec) -> Tropic {
    Tropic::start(
        PlatformConfig {
            controllers: 3,
            workers: 1,
            coord: CoordConfig {
                // Aggressive failure detection so the test runs fast; the
                // recovery-time experiment sweeps this knob.
                session_timeout_ms: 400,
                tick_ms: 20,
                ..CoordConfig::default()
            },
            ..Default::default()
        },
        spec.service(),
        ExecMode::LogicalOnly,
    )
}

fn wait_for_leader(platform: &Tropic, timeout: Duration) -> Option<usize> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        if let Some(idx) = platform.leader_index() {
            return Some(idx);
        }
        if std::time::Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn follower_takes_over_after_leader_crash() {
    let spec = TopologySpec {
        compute_hosts: 4,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    let platform = ha_platform(&spec);
    let client = platform.client();

    // Warm up under the first leader.
    let o = submit_and_wait(&client, "spawnVM", spec.spawn_args("pre", 0, 2_048), WAIT).unwrap();
    assert_eq!(o.state, TxnState::Committed);
    let first = wait_for_leader(&platform, WAIT).expect("initial leader");

    // Crash the leader, then submit MORE work while leaderless.
    platform.crash_leader().expect("crash");
    let ids: Vec<_> = (0..4)
        .map(|i| {
            submit(
                &client,
                "spawnVM",
                spec.spawn_args(&format!("post{i}"), i, 2_048),
            )
            .unwrap()
        })
        .collect();

    // Every transaction submitted during the outage completes.
    for id in ids {
        let o = client.handle(id).wait_timeout(WAIT).unwrap();
        assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
    }
    let second = wait_for_leader(&platform, WAIT).expect("new leader");
    assert_ne!(first, second, "a follower must have taken over");
    platform.shutdown();
}

#[test]
fn state_survives_failover_memory_accounting_intact() {
    // After failover the new leader's recovered logical tree must still
    // enforce constraints against the pre-crash state: a host filled before
    // the crash rejects overcommit after it.
    let spec = TopologySpec {
        compute_hosts: 1,
        storage_hosts: 1,
        routers: 0,
        host_mem_mb: 4_096,
        ..Default::default()
    };
    let platform = ha_platform(&spec);
    let client = platform.client();
    let o = submit_and_wait(&client, "spawnVM", spec.spawn_args("big", 0, 3_072), WAIT).unwrap();
    assert_eq!(o.state, TxnState::Committed);

    platform.crash_leader().expect("crash");
    let o = submit_and_wait(&client, "spawnVM", spec.spawn_args("big2", 0, 3_072), WAIT).unwrap();
    assert_eq!(
        o.state,
        TxnState::Aborted,
        "recovered state must reject overcommit"
    );
    assert!(o.error.unwrap().contains("vm-memory"));
    platform.shutdown();
}

#[test]
fn repeated_failovers_and_restart() {
    let spec = TopologySpec {
        compute_hosts: 4,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    let platform = ha_platform(&spec);
    let client = platform.client();
    let mut crashed = Vec::new();
    for round in 0..2 {
        let o = submit_and_wait(
            &client,
            "spawnVM",
            spec.spawn_args(&format!("r{round}"), round, 2_048),
            WAIT,
        )
        .unwrap();
        assert_eq!(o.state, TxnState::Committed, "round {round}: {:?}", o.error);
        let idx = platform.crash_leader().expect("leader to crash");
        crashed.push(idx);
    }
    // Restart one crashed controller; it rejoins as a follower.
    platform.restart_controller(crashed[0]);
    let o = submit_and_wait(&client, "spawnVM", spec.spawn_args("final", 3, 2_048), WAIT).unwrap();
    assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
    // Leadership events were recorded for the experiment harness.
    let elections = platform
        .metrics()
        .events()
        .iter()
        .filter(|e| e.kind == "leader-elected")
        .count();
    assert!(elections >= 3, "got {elections} elections");
    platform.shutdown();
}

#[test]
fn crash_between_group_commit_batches_loses_no_round() {
    // Group commit persists each scheduling round as one atomic multi, so a
    // crash exposes either the whole round or none of it. Crash the leader
    // repeatedly in the middle of a burst; every transaction must still
    // commit exactly once, and the recovered memory accounting must stay
    // exact: four 2048 MB VMs fill the 8192 MB host, a fifth is rejected.
    // A torn round (e.g. a Started record without its phyQ task, or a
    // dropped inputQ submit) would either stall a transaction or break the
    // accounting.
    let spec = TopologySpec {
        compute_hosts: 1,
        storage_hosts: 1,
        routers: 0,
        host_mem_mb: 8_192,
        ..Default::default()
    };
    let platform = ha_platform(&spec);
    let client = platform.client();

    // Make sure a leader exists, then submit the burst and crash leaders
    // while it is in flight.
    let o = submit_and_wait(&client, "spawnVM", spec.spawn_args("warm", 0, 2_048), WAIT).unwrap();
    assert_eq!(o.state, TxnState::Committed);

    let ids: Vec<_> = (0..3)
        .map(|i| {
            submit(
                &client,
                "spawnVM",
                spec.spawn_args(&format!("burst{i}"), 0, 2_048),
            )
            .unwrap()
        })
        .collect();
    platform.crash_leader().expect("first crash");
    // A second crash once the next leader has taken over, so recovery from
    // mid-burst persistent state is itself crash-tested.
    let deadline = std::time::Instant::now() + WAIT;
    while platform.leader_index().is_none() {
        assert!(std::time::Instant::now() < deadline, "no second leader");
        client.ping().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    platform.crash_leader().expect("second crash");

    for id in &ids {
        let o = client.handle(*id).wait_timeout(WAIT).unwrap();
        assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
    }
    // Exactly-once: the host now holds 4 × 2048 MB; one more must abort on
    // the memory constraint, proving no burst transaction was lost or
    // double-applied across the crashes.
    let o = submit_and_wait(
        &client,
        "spawnVM",
        spec.spawn_args("overflow", 0, 2_048),
        WAIT,
    )
    .unwrap();
    assert_eq!(
        o.state,
        TxnState::Aborted,
        "recovered accounting must reject overcommit: {:?}",
        o.error
    );
    assert!(o.error.unwrap().contains("vm-memory"));
    platform.shutdown();
}

#[test]
fn recovery_time_dominated_by_failure_detection() {
    // The §6.4 observation: recovery time ≈ session timeout (failure
    // detection) + small election/recovery cost. With a 400 ms timeout the
    // gap between crash and the next leader-elected event stays well under
    // 3 s and above the timeout itself.
    let spec = TopologySpec {
        compute_hosts: 2,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    let platform = ha_platform(&spec);
    let client = platform.client();
    submit_and_wait(&client, "spawnVM", spec.spawn_args("a", 0, 2_048), WAIT).unwrap();
    wait_for_leader(&platform, WAIT).unwrap();

    let crash_at = {
        platform.crash_leader().unwrap();
        platform.clock().now_ms()
    };
    // Drive work so the takeover is observable.
    let o = submit_and_wait(&client, "spawnVM", spec.spawn_args("b", 1, 2_048), WAIT).unwrap();
    assert_eq!(o.state, TxnState::Committed);

    let events = platform.metrics().events();
    let takeover = events
        .iter()
        .filter(|e| e.kind == "recovery-complete" && e.at_ms >= crash_at)
        .map(|e| e.at_ms)
        .min()
        .expect("a recovery after the crash");
    let recovery_ms = takeover - crash_at;
    assert!(
        recovery_ms >= 300,
        "recovery {recovery_ms} ms cannot beat failure detection (400 ms timeout)"
    );
    assert!(
        recovery_ms < 5_000,
        "recovery {recovery_ms} ms should be dominated by the 400 ms timeout"
    );
    platform.shutdown();
}
