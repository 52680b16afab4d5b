//! Resource volatility and reconciliation (paper §4): out-of-band device
//! drift is detected and healed by `repair` (logical → physical) or
//! absorbed by `reload` (physical → logical); stalled transactions respond
//! to TERM and KILL signals.

mod common;

use std::time::{Duration, Instant};

use tropic::coord::CoordConfig;
use tropic::core::{ExecMode, PlatformConfig, Signal, Tropic, TxnState};
use tropic::devices::{ActionCall, LatencyModel, VmPower};
use tropic::model::{Path, Value};
use tropic::tcloud::{TCloudDevices, TopologySpec};

use common::{submit, submit_and_wait};

const WAIT: Duration = Duration::from_secs(60);

fn start_with_latency(spec: &TopologySpec, latency: LatencyModel) -> (Tropic, TCloudDevices) {
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
    (platform, devices)
}

fn start(spec: &TopologySpec) -> (Tropic, TCloudDevices) {
    start_with_latency(spec, LatencyModel::zero())
}

fn spec() -> TopologySpec {
    TopologySpec {
        compute_hosts: 2,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    }
}

/// The paper's flagship §4 scenario: a compute server reboots and its VMs
/// power off behind TROPIC's back; `repair` compares the layers and issues
/// `startVM` for each affected VM.
#[test]
fn repair_restarts_vms_after_host_reboot() {
    let spec = spec();
    let (platform, devices) = start(&spec);
    let client = platform.client();
    for i in 0..3 {
        let o = submit_and_wait(
            &client,
            "spawnVM",
            spec.spawn_args(&format!("r{i}"), 0, 2_048),
            WAIT,
        )
        .unwrap();
        assert_eq!(o.state, TxnState::Committed);
    }

    // Unexpected reboot.
    let affected = devices.computes[0].oob_power_cycle();
    assert_eq!(affected.len(), 3);

    let host0 = Path::parse("/vmRoot/host0").unwrap();
    let result = platform.admin().repair(&host0, WAIT).unwrap();
    assert!(result.ok, "{}", result.message);
    assert_eq!(result.actions, 3, "one startVM per powered-off VM");
    for i in 0..3 {
        assert_eq!(
            devices.computes[0].vm_power(&format!("r{i}")),
            Some(tropic::devices::VmPower::Running)
        );
    }
    platform.shutdown();
}

#[test]
fn repair_removes_rogue_vm_and_restores_lost_image() {
    let spec = spec();
    let (platform, devices) = start(&spec);
    let client = platform.client();
    submit_and_wait(&client, "spawnVM", spec.spawn_args("legit", 0, 2_048), WAIT).unwrap();

    // Operator mischief: a rogue VM appears, a legit image disappears.
    devices.computes[1].oob_create_vm("rogue", "whatever", 256, false);
    devices.storages[0].oob_lose_image("legit-img");

    let result = platform.admin().repair(&Path::root(), WAIT).unwrap();
    assert!(result.ok, "{}", result.message);
    assert_eq!(devices.computes[1].vm_count(), 0, "rogue VM removed");
    assert!(devices.storages[0].has_image("legit-img"), "image restored");
    assert!(
        devices.storages[0].is_exported("legit-img"),
        "export restored"
    );
    platform.shutdown();
}

/// `repair` behaves like a transaction (paper §4): the logical tree already
/// holds a `Started` transaction's effects, so a repair that raced it would
/// "repair" the not-yet-executed VM into existence and make the worker's
/// own device calls fail. It must refuse on the lock conflict instead.
#[test]
fn repair_refuses_to_race_an_in_flight_transaction() {
    let spec = spec();
    // The first device call is slow, so the spawn sits in `Started` with
    // nothing executed yet while the repair request arrives.
    let latency = LatencyModel::zero().with_action("cloneImage", Duration::from_millis(1_500));
    let (platform, devices) = start_with_latency(&spec, latency);
    let client = platform.client();
    let id = submit(&client, "spawnVM", spec.spawn_args("inflight", 0, 2_048)).unwrap();
    let deadline = std::time::Instant::now() + WAIT;
    while client.txn_record(id).unwrap().map(|r| r.state) != Some(TxnState::Started) {
        assert!(std::time::Instant::now() < deadline, "spawn never started");
        std::thread::sleep(Duration::from_millis(5));
    }

    let raced = platform.admin().repair(&Path::root(), WAIT).unwrap();
    assert!(!raced.ok, "repair ran against an in-flight transaction");
    assert!(
        raced
            .message
            .starts_with("repair conflicts with outstanding transaction at "),
        "{}",
        raced.message
    );
    assert_eq!(raced.actions, 0);

    let o = client.handle(id).wait_timeout(WAIT).unwrap();
    assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
    assert_eq!(devices.computes[0].vm_count(), 1);
    let settled = platform.admin().repair(&Path::root(), WAIT).unwrap();
    assert!(settled.ok, "{}", settled.message);
    assert_eq!(settled.actions, 0, "the spawn left nothing to repair");
    platform.shutdown();
}

/// `repair` is a transaction, not a pause: its corrective calls run on a
/// worker under a lock on its scope only, so work elsewhere commits while
/// the repair's slow device calls are still running.
#[test]
fn repair_does_not_stall_unrelated_transactions() {
    let spec = spec();
    let latency = LatencyModel::zero().with_action("startVM", Duration::from_millis(700));
    let devices = spec.build_devices(&latency);
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 2,
            ..Default::default()
        },
        spec.service(),
        ExecMode::Physical(devices.registry.clone()),
    );
    let client = platform.client();
    let vms = [("s0", 0), ("s1", 0), ("s2", 0), ("t0", 1)];
    let ids: Vec<_> = vms
        .iter()
        .map(|(vm, host)| submit(&client, "spawnVM", spec.spawn_args(vm, *host, 1_024)).unwrap())
        .collect();
    for id in ids {
        let o = client.handle(id).wait_timeout(WAIT).unwrap();
        assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
    }

    assert_eq!(devices.computes[0].oob_power_cycle().len(), 3);
    let host0 = Path::parse("/vmRoot/host0").unwrap();
    let (stopped_at, (result, repaired_at)) = std::thread::scope(|s| {
        let repair = s.spawn(|| {
            let result = platform.admin().repair(&host0, WAIT);
            (result, Instant::now())
        });
        std::thread::sleep(Duration::from_millis(200));
        let args = vec![Value::from("/vmRoot/host1"), Value::from("t0")];
        let o = submit_and_wait(&client, "stopVM", args, WAIT).unwrap();
        assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
        (Instant::now(), repair.join().unwrap())
    });
    let result = result.unwrap();
    assert!(result.ok, "{}", result.message);
    assert_eq!(result.actions, 3, "one startVM per powered-off VM");
    assert!(
        stopped_at < repaired_at,
        "the stopVM on host1 waited for host0's repair"
    );
    assert_eq!(devices.computes[1].vm_power("t0"), Some(VmPower::Stopped));
    platform.shutdown();
}

/// A repair that needs a second attempt survives leader failover during
/// its first: the episode lives in the attempt's durable record, so the
/// next leader finalizes it, admits attempt 2 and answers the operator.
#[test]
fn repair_episode_survives_leader_failover() {
    let spec = spec();
    // The rogue VM uses an image imported behind TROPIC's back. Attempt 1
    // plans the unimport before the VM's removal (attributes diff before
    // children), so the unimport fails and attempt 2 must redo it; the slow
    // `removeVM` keeps attempt 1 running while the leader dies.
    let latency = LatencyModel::zero().with_action("removeVM", Duration::from_millis(1_500));
    let devices = spec.build_devices(&latency);
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 2,
            workers: 1,
            coord: CoordConfig {
                session_timeout_ms: 400,
                tick_ms: 20,
                ..CoordConfig::default()
            },
            ..Default::default()
        },
        spec.service(),
        ExecMode::Physical(devices.registry.clone()),
    );
    let host1 = Path::parse("/vmRoot/host1").unwrap();
    let import = ActionCall::new(host1.clone(), "importImage", vec![Value::from("rogue-img")]);
    devices.registry.invoke(&import).unwrap();
    devices.computes[1].oob_create_vm("rogue", "rogue-img", 256, true);

    let result = std::thread::scope(|s| {
        let repair = s.spawn(|| platform.admin().repair(&host1, WAIT));
        // The rogue VM stops right before the slow removal starts.
        let deadline = Instant::now() + WAIT;
        while devices.computes[1].vm_power("rogue") != Some(VmPower::Stopped) {
            assert!(Instant::now() < deadline, "attempt 1 never ran");
            std::thread::sleep(Duration::from_millis(5));
        }
        let crashed = platform.crash_leader().expect("a leader to crash");
        let result = repair.join().unwrap();
        assert_ne!(platform.leader_index(), Some(crashed));
        result
    });
    let result = result.unwrap();
    assert!(result.ok, "{}", result.message);
    // Attempt 1: unimportImage (failed), stopVM, removeVM; attempt 2:
    // unimportImage.
    assert_eq!(result.actions, 4, "{}", result.message);
    assert_eq!(devices.computes[1].vm_count(), 0);
    assert!(!devices.computes[1].has_imported("rogue-img"));
    assert_eq!(platform.counters().repairs, 1, "one operator repair");
    platform.shutdown();
}

/// `reload` pulls unexpected physical state into the logical layer: after
/// an operator provisions a VM via the device CLI, reload makes TROPIC
/// manage it.
#[test]
fn reload_adopts_out_of_band_state() {
    let spec = spec();
    let (platform, devices) = start(&spec);
    let client = platform.client();
    submit_and_wait(&client, "spawnVM", spec.spawn_args("ours", 0, 2_048), WAIT).unwrap();

    // Out-of-band VM on host1 (with its backing import so layers converge).
    devices.computes[1].oob_create_vm("adopted", "external-img", 1_024, true);

    let host1 = Path::parse("/vmRoot/host1").unwrap();
    let result = platform.admin().reload(&host1, WAIT).unwrap();
    assert!(result.ok, "{}", result.message);

    // The logical layer now knows the VM: stopping it through TROPIC works.
    let o = submit_and_wait(
        &client,
        "stopVM",
        vec![Value::from("/vmRoot/host1"), Value::from("adopted")],
        WAIT,
    )
    .unwrap();
    assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
    assert_eq!(
        devices.computes[1].vm_power("adopted"),
        Some(tropic::devices::VmPower::Stopped)
    );
    platform.shutdown();
}

#[test]
fn reload_rejected_when_it_would_violate_constraints() {
    let spec = TopologySpec {
        compute_hosts: 1,
        storage_hosts: 1,
        routers: 0,
        host_mem_mb: 2_048,
        ..Default::default()
    };
    let (platform, devices) = start(&spec);
    // Physical state that exceeds the host's memory capacity.
    devices.computes[0].oob_create_vm("huge-a", "img", 1_536, false);
    devices.computes[0].oob_create_vm("huge-b", "img", 1_536, false);
    let host0 = Path::parse("/vmRoot/host0").unwrap();
    let result = platform.admin().reload(&host0, WAIT).unwrap();
    assert!(!result.ok);
    assert!(result.message.contains("vm-memory"), "{}", result.message);
    platform.shutdown();
}

/// TERM aborts a stalled transaction gracefully: the executed prefix is
/// undone on the devices and both layers stay consistent (paper §4).
#[test]
fn term_signal_aborts_stalled_transaction_cleanly() {
    let spec = spec();
    // createVM (the fourth of five actions) takes 3 s, so the TERM signal
    // sent mid-flight is observed at the poll before the fifth action.
    let latency = LatencyModel::zero().with_action("createVM", Duration::from_secs(3));
    let (platform, devices) = start_with_latency(&spec, latency);
    let before = devices.registry.physical_tree();
    let client = platform.client();
    let id = submit(&client, "spawnVM", spec.spawn_args("slow", 0, 2_048)).unwrap();
    // Give the worker time to reach the slow action, then TERM.
    std::thread::sleep(Duration::from_millis(500));
    platform.admin().signal(id, Signal::Term).unwrap();
    let o = client.handle(id).wait_timeout(WAIT).unwrap();
    assert_eq!(o.state, TxnState::Aborted);
    assert!(o.error.unwrap().contains("TERM"));
    // Devices rolled back.
    let after = devices.registry.physical_tree();
    assert!(before.diff(&after, &Path::root()).is_empty());
    // Layers consistent: a repair over the root is a no-op.
    let result = platform.admin().repair(&Path::root(), WAIT).unwrap();
    assert!(result.ok && result.actions == 0, "{}", result.message);
    platform.shutdown();
}

/// KILL aborts immediately in the logical layer only; the leftover physical
/// prefix is reconciled by repair (paper §4).
#[test]
fn kill_signal_leaves_drift_that_repair_heals() {
    let spec = spec();
    let latency = LatencyModel::zero().with_action("createVM", Duration::from_secs(3));
    let (platform, devices) = start_with_latency(&spec, latency);
    let client = platform.client();
    let id = submit(&client, "spawnVM", spec.spawn_args("kild", 0, 2_048)).unwrap();
    std::thread::sleep(Duration::from_millis(500));
    platform.admin().signal(id, Signal::Kill).unwrap();
    let o = client.handle(id).wait_timeout(WAIT).unwrap();
    assert_eq!(o.state, TxnState::Aborted);

    // The cloned image (and possibly more) remains on the devices: drift.
    // Eventually the worker abandons; repair converges the layers.
    std::thread::sleep(Duration::from_secs(4));
    let result = platform.admin().repair(&Path::root(), WAIT).unwrap();
    assert!(result.ok, "{}", result.message);
    assert!(
        !devices.storages[0].has_image("kild-img"),
        "repair must remove the orphaned image"
    );
    // The host accepts new work after reconciliation.
    let o = submit_and_wait(&client, "spawnVM", spec.spawn_args("fresh", 0, 2_048), WAIT).unwrap();
    assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
    platform.shutdown();
}

/// Automatic stall handling: the controller's timeouts TERM, then KILL,
/// a transaction that never finishes (paper §4's bounded-time guarantee).
#[test]
fn stall_timeouts_fire_automatically() {
    let spec = spec();
    let latency = LatencyModel::zero().with_action("startVM", Duration::from_secs(30));
    let devices = spec.build_devices(&latency);
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 1,
            term_timeout_ms: Some(700),
            kill_timeout_ms: Some(2_500),
            ..Default::default()
        },
        spec.service(),
        ExecMode::Physical(devices.registry.clone()),
    );
    let client = platform.client();
    let id = submit(&client, "spawnVM", spec.spawn_args("stuck", 0, 2_048)).unwrap();
    let o = client.handle(id).wait_timeout(WAIT).unwrap();
    // TERM cannot interrupt the 30 s device call in progress (signals are
    // polled between actions), so the KILL path finalizes the transaction.
    assert_eq!(o.state, TxnState::Aborted);
    platform.shutdown();
}
