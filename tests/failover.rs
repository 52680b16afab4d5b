//! High availability (paper §2.3, §6.4): leader crashes are survived by
//! follower takeover with idempotent recovery; no submitted transaction is
//! lost.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use tropic::coord::{CoordClient, CoordConfig, CoordService, DistributedQueue};
use tropic::core::codec::read_record;
use tropic::core::{
    encode_input, layout, Controller, ControllerConfig, ExecMode, InputMsg, Metrics,
    PhysicalOutcome, PlatformConfig, Priority, ServiceDefinition, Tropic, TwinConfig, TwinFeed,
    TxnId, TxnRecord, TxnState,
};
use tropic::model::{Tree, Value};
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

    // The takeover is the first recovery recorded after the crash. The
    // clock counts whole milliseconds, so the first leader's own recovery
    // can share the crash's timestamp: order by the event list, not by time.
    let events = platform.metrics().events();
    let takeover = events
        .iter()
        .skip_while(|e| e.kind != "crashed")
        .find(|e| e.kind == "recovery-complete")
        .map(|e| e.at_ms)
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

/// A leader over `service`, recovered from what `client`'s store holds.
fn leader_on<'a>(client: &'a CoordClient, service: &ServiceDefinition) -> Controller<'a> {
    let cfg = ControllerConfig {
        name: "leader".into(),
        term_timeout_ms: None,
        kill_timeout_ms: None,
        twin: TwinConfig::default(),
        twin_feed: TwinFeed::new(),
    };
    let service = Arc::new(service.clone());
    let clock = tropic::model::real_clock();
    let mut leader = Controller::new(cfg, client, service, clock, Metrics::new());
    leader.recover().expect("recover");
    leader
}

fn enqueue(client: &CoordClient, priority: Priority, msg: InputMsg) {
    DistributedQueue::bind(client, layout::input_lane(priority))
        .enqueue(encode_input(msg))
        .unwrap();
}

fn submit_msg(client: &CoordClient, id: TxnId, proc_name: &str, args: Vec<Value>) {
    let msg = InputMsg::Submit {
        id,
        proc_name: proc_name.into(),
        args,
        submitted_ms: 0,
        priority: Priority::Normal,
        deadline_ms: None,
        idempotency_key: None,
        labels: Vec::new(),
    };
    enqueue(client, Priority::Normal, msg);
}

/// Plays the worker: transaction `id` committed physically.
fn committed(client: &CoordClient, id: TxnId) {
    let outcome = PhysicalOutcome::Committed;
    enqueue(client, Priority::High, InputMsg::Result { id, outcome });
}

fn records(client: &CoordClient) -> BTreeMap<TxnId, TxnRecord> {
    let names = client.get_children(&layout::txns()).unwrap();
    let recs = names.iter().filter_map(|n| {
        let rec = read_record(client, n.parse().ok()?).unwrap()?;
        Some((rec.id, rec))
    });
    recs.collect()
}

/// Write-through recovery: the leader crashes between two finalize
/// rounds while a transaction is still `Started`. The successor's tree is
/// the committed image — the initial tree with every committed log applied
/// in lsn order — with the `Started` log replayed on top; the acknowledged
/// outcomes are unchanged, and the in-flight transaction still finalizes.
#[test]
fn crash_between_finalize_rounds_recovers_the_committed_image() {
    // Hosts 0 and 4 pair with different storage servers, so spawns on
    // them lock disjoint subtrees and run side by side.
    let spec = TopologySpec {
        compute_hosts: 5,
        storage_hosts: 2,
        routers: 0,
        ..Default::default()
    };
    let service = spec.service();
    let coord = CoordService::start(CoordConfig::default());
    let client = coord.connect("controllers");
    let mut leader = leader_on(&client, &service);

    submit_msg(&client, 1, "spawnVM", spec.spawn_args("a", 0, 2_048));
    submit_msg(&client, 2, "spawnVM", spec.spawn_args("b", 4, 2_048));
    leader.step().unwrap();
    assert_eq!(leader.running_len(), 2);
    committed(&client, 1);
    leader.step().unwrap();
    let host0 = TopologySpec::host_path(0).to_string();
    submit_msg(&client, 3, "stopVM", vec![host0.into(), "a".into()]);
    leader.step().unwrap();
    committed(&client, 3);
    leader.step().unwrap();

    // Crash after the round that finalized 3, before the one that would
    // finalize 2.
    let before = records(&client);
    let state = |id: TxnId| before[&id].state;
    assert_eq!(
        (state(1), state(2), state(3)),
        (TxnState::Committed, TxnState::Started, TxnState::Committed)
    );
    let crashed_tree = leader.tree().clone();
    drop(leader);

    let mut expected = service.initial_tree.clone();
    let apply = |tree: &mut Tree, rec: &TxnRecord| {
        for log in &rec.log {
            let def = service.actions.get(&log.action).unwrap();
            def.apply_logical(tree, &log.object, &log.args).unwrap();
        }
    };
    let mut by_lsn: Vec<&TxnRecord> = before.values().collect();
    by_lsn.sort_by_key(|r| (r.state == TxnState::Started, r.lsn));
    for rec in by_lsn {
        apply(&mut expected, rec);
    }
    assert_eq!(crashed_tree, expected, "the crashed leader's own view");

    let mut successor = leader_on(&client, &service);
    assert_eq!(successor.tree(), &expected);
    assert_eq!(successor.running_len(), 1);
    let acknowledged = |recs: &BTreeMap<TxnId, TxnRecord>| -> Vec<(TxnId, TxnState)> {
        let finals = recs.values().filter(|r| r.state.is_final());
        finals.map(|r| (r.id, r.state)).collect()
    };
    assert_eq!(acknowledged(&records(&client)), acknowledged(&before));

    committed(&client, 2);
    successor.step().unwrap();
    let after = records(&client);
    assert_eq!(after[&2].state, TxnState::Committed);
    assert_eq!(successor.running_len(), 0);
    assert_eq!(successor.tree(), &expected);
    drop(successor);
    // Now every effect is in a granule: a third leader replays nothing.
    assert_eq!(leader_on(&client, &service).tree(), &expected);
}
