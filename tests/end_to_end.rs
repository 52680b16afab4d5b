//! End-to-end transactions against simulated devices: the full
//! client → inputQ → controller → phyQ → worker → devices pipeline,
//! verifying that committed transactions leave the logical and physical
//! layers in agreement — plus the typed-API admission features: priority
//! lanes, admission deadlines, idempotency keys, and event subscriptions.

use std::time::Duration;

use tropic::core::{
    AbortCode, ApiError, ExecMode, PlatformConfig, Priority, Tropic, TropicClient, TxnOutcome,
    TxnRequest, TxnState,
};
use tropic::devices::LatencyModel;
use tropic::model::{Path, Value};
use tropic::tcloud::{TCloudDevices, TopologySpec};

const WAIT: Duration = Duration::from_secs(60);

/// Submit a typed request and wait on its handle.
fn run(client: &TropicClient, request: TxnRequest) -> TxnOutcome {
    client
        .submit_request(request)
        .expect("submit")
        .wait_timeout(WAIT)
        .expect("outcome")
}

fn spawn_req(spec: &TopologySpec, vm: &str, host: usize, mem: i64) -> TxnRequest {
    TxnRequest::new("spawnVM").args(spec.spawn_args(vm, host, mem))
}

fn start(spec: &TopologySpec) -> (Tropic, TCloudDevices) {
    let devices = spec.build_devices(&LatencyModel::zero());
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 2,
            ..Default::default()
        },
        spec.service(),
        ExecMode::Physical(devices.registry.clone()),
    );
    (platform, devices)
}

fn small_spec() -> TopologySpec {
    TopologySpec {
        compute_hosts: 2,
        storage_hosts: 1,
        routers: 1,
        ..Default::default()
    }
}

#[test]
fn spawn_commits_on_devices() {
    let spec = small_spec();
    let (platform, devices) = start(&spec);
    let client = platform.client();
    let outcome = run(&client, spawn_req(&spec, "web1", 0, 2048));
    assert_eq!(outcome.state, TxnState::Committed, "{:?}", outcome.error);

    // The device really runs the VM.
    assert_eq!(
        devices.computes[0].vm_power("web1"),
        Some(tropic::devices::VmPower::Running)
    );
    assert!(devices.storages[0].has_image("web1-img"));
    assert!(devices.storages[0].is_exported("web1-img"));
    platform.shutdown();
}

#[test]
fn spawn_then_destroy_restores_original_state() {
    let spec = small_spec();
    let (platform, devices) = start(&spec);
    let before = devices.registry.physical_tree();
    let client = platform.client();
    let spawn = run(&client, spawn_req(&spec, "tmp", 1, 4096));
    assert_eq!(spawn.state, TxnState::Committed);
    let destroy = run(
        &client,
        TxnRequest::new("destroyVM")
            .arg("/vmRoot/host1")
            .arg("tmp")
            .arg("/storageRoot/storage0"),
    );
    assert_eq!(destroy.state, TxnState::Committed, "{:?}", destroy.error);
    let after = devices.registry.physical_tree();
    assert!(
        before.diff(&after, &Path::root()).is_empty(),
        "destroy must return the cloud to its pre-spawn state"
    );
    platform.shutdown();
}

#[test]
fn migrate_moves_vm_across_hosts() {
    let spec = small_spec();
    let (platform, devices) = start(&spec);
    let client = platform.client();
    run(&client, spawn_req(&spec, "mv1", 0, 2048));
    let outcome = run(
        &client,
        TxnRequest::new("migrateVM")
            .arg("/vmRoot/host0")
            .arg("/vmRoot/host1")
            .arg("mv1"),
    );
    assert_eq!(outcome.state, TxnState::Committed, "{:?}", outcome.error);
    assert_eq!(devices.computes[0].vm_power("mv1"), None);
    assert_eq!(
        devices.computes[1].vm_power("mv1"),
        Some(tropic::devices::VmPower::Running)
    );
    platform.shutdown();
}

#[test]
fn stop_start_cycle() {
    let spec = small_spec();
    let (platform, devices) = start(&spec);
    let client = platform.client();
    run(&client, spawn_req(&spec, "cyc", 0, 2048));
    let host = Value::from("/vmRoot/host0");
    let stop = run(
        &client,
        TxnRequest::new("stopVM").arg(host.clone()).arg("cyc"),
    );
    assert_eq!(stop.state, TxnState::Committed);
    assert_eq!(
        devices.computes[0].vm_power("cyc"),
        Some(tropic::devices::VmPower::Stopped)
    );
    let start = run(&client, TxnRequest::new("startVM").arg(host).arg("cyc"));
    assert_eq!(start.state, TxnState::Committed);
    // Stopping an already-stopped VM aborts cleanly (logical guard).
    run(
        &client,
        TxnRequest::new("stopVM").arg("/vmRoot/host0").arg("cyc"),
    );
    let again = run(
        &client,
        TxnRequest::new("startVM").arg("/vmRoot/host0").arg("cyc"),
    );
    assert_eq!(again.state, TxnState::Committed);
    platform.shutdown();
}

#[test]
fn spawn_with_network_plumbs_vlan() {
    let spec = small_spec();
    let (platform, devices) = start(&spec);
    let client = platform.client();
    let outcome = run(
        &client,
        TxnRequest::new("spawnVMNet")
            .arg("net1")
            .arg("template-linux")
            .arg(Value::Int(2048))
            .arg("/storageRoot/storage0")
            .arg("/vmRoot/host0")
            .arg("/netRoot/router0")
            .arg(Value::Int(42)),
    );
    assert_eq!(outcome.state, TxnState::Committed, "{:?}", outcome.error);
    assert!(devices.routers[0].has_vlan(42));
    assert_eq!(
        devices.routers[0].ports_of(42),
        vec!["net1-eth0".to_string()]
    );
    platform.shutdown();
}

#[test]
fn unknown_procedure_aborts() {
    let spec = small_spec();
    let (platform, _devices) = start(&spec);
    let client = platform.client();
    let outcome = run(&client, TxnRequest::new("noSuchProc"));
    assert_eq!(outcome.state, TxnState::Aborted);
    assert_eq!(outcome.abort_code, Some(AbortCode::UnknownProcedure));
    let err = outcome.api_error().expect("typed error");
    assert!(matches!(err, ApiError::UnknownProcedure(_)));
    assert!(!err.retryable());
    assert!(outcome.error.unwrap().contains("unknown procedure"));
    platform.shutdown();
}

#[test]
fn committed_layers_agree_after_mixed_workload() {
    let spec = TopologySpec {
        compute_hosts: 3,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    let (platform, devices) = start(&spec);
    let client = platform.client();
    for i in 0..6 {
        run(&client, spawn_req(&spec, &format!("m{i}"), i % 3, 2048));
    }
    run(
        &client,
        TxnRequest::new("migrateVM")
            .arg("/vmRoot/host0")
            .arg("/vmRoot/host2")
            .arg("m0"),
    );
    run(
        &client,
        TxnRequest::new("stopVM").arg("/vmRoot/host1").arg("m1"),
    );

    // Verify the physical layer matches what the logical layer believes by
    // reloading nothing and diffing through an admin repair no-op: a repair
    // over the whole tree reports the layers already consistent.
    let result = platform.admin().repair(&Path::root(), WAIT).unwrap();
    assert!(result.ok, "{}", result.message);
    assert_eq!(result.actions, 0, "no corrective actions were needed");
    let _ = devices;
    platform.shutdown();
}

// ---------------------------------------------------------------------
// Typed-API admission features.
// ---------------------------------------------------------------------

/// A high-priority submission enqueued *behind* a full batch lane must be
/// scheduled first: the controller drains `inputQ/hi` before `inputQ/batch`,
/// so the late high submission gets the lowest logical sequence number.
#[test]
fn high_priority_overtakes_full_batch_lane() {
    let spec = TopologySpec {
        compute_hosts: 4,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 1,
            ..Default::default()
        },
        spec.service(),
        ExecMode::LogicalOnly,
    );
    let client = platform.client();

    // Warm up: make sure a leader is elected and draining.
    let warm = run(&client, spawn_req(&spec, "warm", 0, 2048));
    assert_eq!(warm.state, TxnState::Committed);

    // Freeze the (only) controller so everything below queues up durably
    // without being drained.
    platform.crash_controller(0);
    std::thread::sleep(Duration::from_millis(100));

    let batch_handles: Vec<_> = (0..12)
        .map(|i| {
            client
                .submit_request(
                    spawn_req(&spec, &format!("bulk{i}"), i % 4, 2048).priority(Priority::Batch),
                )
                .expect("submit batch txn")
        })
        .collect();
    // The latecomer, behind 12 queued batch submissions.
    let hi = client
        .submit_request(spawn_req(&spec, "urgent", 0, 2048).priority(Priority::High))
        .expect("submit high txn");

    platform.restart_controller(0);

    let hi_outcome = hi.wait_timeout(WAIT).expect("high outcome");
    assert_eq!(
        hi_outcome.state,
        TxnState::Committed,
        "{:?}",
        hi_outcome.error
    );
    let hi_lsn = client
        .txn_record(hi.id())
        .unwrap()
        .expect("record retained")
        .lsn
        .expect("scheduled");
    for handle in &batch_handles {
        let o = handle.wait_timeout(WAIT).expect("batch outcome");
        assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
        let lsn = client
            .txn_record(handle.id())
            .unwrap()
            .expect("record retained")
            .lsn
            .expect("scheduled");
        assert!(
            hi_lsn < lsn,
            "high-priority txn (lsn {hi_lsn}) must schedule before batch txn (lsn {lsn})"
        );
    }
    let counters = platform.metrics().counters();
    assert_eq!(counters.admitted_high, 1);
    assert!(counters.admitted_batch >= 12);
    platform.shutdown();
}

/// A submission whose deadline expired before admission is aborted with a
/// typed, permanent (`retryable() == false`) `ApiError`.
#[test]
fn expired_deadline_rejected_at_admission() {
    let spec = TopologySpec {
        compute_hosts: 2,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 1,
            ..Default::default()
        },
        spec.service(),
        ExecMode::LogicalOnly,
    );
    let client = platform.client();
    // Warm up so admission time is unambiguously later than the deadline.
    run(&client, spawn_req(&spec, "warm", 0, 2048));

    // The platform clock's epoch is boot time, and on a fast machine the
    // warm-up can finish inside millisecond zero — where `now - 1`
    // saturates to `now` itself and the "past" deadline isn't in the past.
    // Step off the epoch first so the subtraction is real.
    while client.clock().now_ms() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let past = client.clock().now_ms().saturating_sub(1);
    let handle = client
        .submit_request(spawn_req(&spec, "late", 0, 2048).deadline_at(past))
        .expect("submit");
    let outcome = handle.wait_timeout(WAIT).expect("admission outcome");
    assert_eq!(outcome.state, TxnState::Aborted);
    assert_eq!(outcome.abort_code, Some(AbortCode::DeadlineExpired));
    let err = outcome.api_error().expect("typed ApiError");
    assert_eq!(err, ApiError::DeadlineExceeded { id: handle.id() });
    assert!(!err.retryable(), "deadline rejection is permanent");
    // The transaction never reached the scheduler.
    let rec = client.txn_record(handle.id()).unwrap().expect("record");
    assert_eq!(rec.lsn, None, "rejected before logical execution");
    assert_eq!(platform.metrics().counters().deadline_rejects, 1);
    platform.shutdown();
}

/// Resubmitting with the same idempotency key returns the original
/// transaction's id and outcome, and executes nothing twice — even under a
/// concurrent load of other transactions.
#[test]
fn idempotent_resubmit_returns_original_txn() {
    let spec = TopologySpec {
        compute_hosts: 4,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    let (platform, devices) = {
        let devices = spec.build_devices(&LatencyModel::zero());
        let platform = Tropic::start(
            PlatformConfig {
                controllers: 1,
                workers: 2,
                ..Default::default()
            },
            spec.service(),
            ExecMode::Physical(devices.registry.clone()),
        );
        (platform, devices)
    };
    let client = platform.client();

    let first = run(
        &client,
        spawn_req(&spec, "idem", 0, 2048).idempotency_key("spawn-idem"),
    );
    assert_eq!(first.state, TxnState::Committed, "{:?}", first.error);

    // Concurrent background load between the original and the resubmit.
    for i in 0..4 {
        run(&client, spawn_req(&spec, &format!("noise{i}"), i % 4, 2048));
    }

    let resubmit = client
        .submit_request(spawn_req(&spec, "idem", 0, 2048).idempotency_key("spawn-idem"))
        .expect("resubmit");
    let outcome = resubmit.wait_timeout(WAIT).expect("dedup outcome");
    assert_eq!(
        outcome.id, first.id,
        "idempotent resubmit must resolve to the original TxnId"
    );
    assert_eq!(outcome.state, TxnState::Committed);
    assert_eq!(resubmit.resolved_id(), first.id);
    assert_eq!(
        devices.computes[0].vm_count(),
        {
            // idem + noise0 on host0 (noise spawns round-robin 0..4).
            2
        },
        "the deduped spawn must not run twice"
    );
    assert_eq!(platform.metrics().counters().idempotent_hits, 1);
    platform.shutdown();
}

/// A batch submitted atomically lands every request; the event subscription
/// streams each transaction's terminal transition.
#[test]
fn subscription_streams_lifecycle_events() {
    let spec = TopologySpec {
        compute_hosts: 2,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    let (platform, _devices) = start(&spec);
    let client = platform.client();
    let events = client.subscribe();

    let handles = client
        .submit_batch(vec![
            spawn_req(&spec, "sub0", 0, 2048).priority(Priority::High),
            spawn_req(&spec, "sub1", 1, 2048),
        ])
        .expect("atomic batch enqueue");
    assert_eq!(handles.len(), 2);
    let mut want: Vec<_> = handles.iter().map(|h| h.id()).collect();
    for handle in &handles {
        let o = handle.wait_timeout(WAIT).expect("outcome");
        assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
    }

    // Every transaction's terminal transition must be observed.
    let deadline = std::time::Instant::now() + WAIT;
    while !want.is_empty() && std::time::Instant::now() < deadline {
        if let Some(ev) = events.recv_timeout(Duration::from_millis(500)) {
            if ev.state == TxnState::Committed {
                want.retain(|id| *id != ev.id);
                assert!(!ev.proc_name.is_empty());
            }
        }
    }
    assert!(want.is_empty(), "missing terminal events for {want:?}");
    platform.shutdown();
}

/// A keyed submission whose deadline expires while *deferred in todoQ*
/// (behind a lock conflict) must release its idempotency key: a retry with
/// a fresh deadline runs for real instead of deduping onto the rejection.
#[test]
fn todo_q_deadline_expiry_releases_idempotency_key() {
    let spec = TopologySpec {
        compute_hosts: 2,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    // createVM takes ~1 s, so the blocker holds the host lock long enough
    // for the keyed submission's deadline to expire while deferred.
    let latency = LatencyModel::zero().with_action("createVM", Duration::from_secs(1));
    let devices = spec.build_devices(&latency);
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 1,
            ..Default::default()
        },
        spec.service(),
        ExecMode::Physical(devices.registry.clone()),
    );
    let client = platform.client();

    let blocker = client
        .submit_request(spawn_req(&spec, "blocker", 0, 2048))
        .expect("submit blocker");
    // Wait until the blocker holds its locks (Started) before queuing the
    // conflicting keyed submission.
    let deadline = std::time::Instant::now() + WAIT;
    loop {
        let started = client
            .txn_record(blocker.id())
            .unwrap()
            .map(|r| r.state == TxnState::Started)
            .unwrap_or(false);
        if started {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "blocker never started"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let late = client
        .submit_request(
            spawn_req(&spec, "late", 0, 2048)
                .idempotency_key("todoq-key")
                .deadline(Duration::from_millis(250)),
        )
        .expect("submit keyed txn");
    let outcome = late.wait_timeout(WAIT).expect("expiry outcome");
    assert_eq!(outcome.state, TxnState::Aborted);
    assert_eq!(outcome.abort_code, Some(AbortCode::DeadlineExpired));
    assert!(
        outcome.error.as_deref().unwrap_or("").contains("todoQ"),
        "expired in todoQ, not at admission: {:?}",
        outcome.error
    );

    // The retry with the same key and a fresh (absent) deadline must run.
    let retry = client
        .submit_request(spawn_req(&spec, "late", 0, 2048).idempotency_key("todoq-key"))
        .expect("resubmit");
    let outcome = retry.wait_timeout(WAIT).expect("retry outcome");
    assert_eq!(
        outcome.state,
        TxnState::Committed,
        "retry must execute, not dedup onto the rejection: {:?}",
        outcome.error
    );
    assert_ne!(outcome.id, late.id(), "a fresh transaction ran");
    platform.shutdown();
}
