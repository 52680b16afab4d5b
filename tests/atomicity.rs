//! Atomicity under failure (paper §3.2, §6.3): injected device faults roll
//! transactions back completely; failed undos leave a flagged, repairable
//! inconsistency.

mod common;

use std::time::Duration;

use tropic::core::{ExecMode, PlatformConfig, Tropic, TxnState};
use tropic::devices::{Device, LatencyModel};
use tropic::model::Path;
use tropic::tcloud::{TCloudDevices, TopologySpec};

use common::submit_and_wait;

const WAIT: Duration = Duration::from_secs(60);

fn start(spec: &TopologySpec) -> (Tropic, TCloudDevices) {
    let devices = spec.build_devices(&LatencyModel::zero());
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

fn spec() -> TopologySpec {
    TopologySpec {
        compute_hosts: 2,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    }
}

/// The paper's §3.2 walk-through: four actions succeed, the fifth fails,
/// undo records #4–#1 execute in reverse, leaving no trace anywhere.
#[test]
fn spawn_error_in_last_step_rolls_back_both_layers() {
    let spec = spec();
    let (platform, devices) = start(&spec);
    let before_physical = devices.registry.physical_tree();
    devices.computes[0].fault_plan().fail_once("startVM");

    let client = platform.client();
    let outcome =
        submit_and_wait(&client, "spawnVM", spec.spawn_args("doomed", 0, 2048), WAIT).unwrap();
    assert_eq!(outcome.state, TxnState::Aborted);
    let err = outcome.error.unwrap();
    assert!(err.contains("#5"), "failure was in the fifth action: {err}");

    // Physical layer: fully rolled back.
    let after = devices.registry.physical_tree();
    assert!(before_physical.diff(&after, &Path::root()).is_empty());
    assert!(!devices.storages[0].has_image("doomed-img"));

    // Logical layer: a retry of the same VM succeeds, proving no leftover
    // logical state (orphans would make cloneImage fail).
    let retry =
        submit_and_wait(&client, "spawnVM", spec.spawn_args("doomed", 0, 2048), WAIT).unwrap();
    assert_eq!(retry.state, TxnState::Committed, "{:?}", retry.error);
    platform.shutdown();
}

#[test]
fn migrate_error_in_last_step_rolls_back() {
    let spec = spec();
    let (platform, devices) = start(&spec);
    let client = platform.client();
    submit_and_wait(&client, "spawnVM", spec.spawn_args("mig", 0, 2048), WAIT).unwrap();
    let stable = devices.registry.physical_tree();

    // Fail the last migrate step (startVM on the destination host).
    devices.computes[1].fault_plan().fail_once("startVM");
    let outcome = submit_and_wait(
        &client,
        "migrateVM",
        vec!["/vmRoot/host0".into(), "/vmRoot/host1".into(), "mig".into()],
        WAIT,
    )
    .unwrap();
    assert_eq!(outcome.state, TxnState::Aborted);

    // The VM is back on host0, running, and host1 carries nothing.
    let after = devices.registry.physical_tree();
    assert!(
        stable.diff(&after, &Path::root()).is_empty(),
        "rollback must restore the pre-migration state exactly"
    );
    platform.shutdown();
}

#[test]
fn fault_in_first_action_has_no_effect_at_all() {
    let spec = spec();
    let (platform, devices) = start(&spec);
    devices.storages[0].fault_plan().fail_once("cloneImage");
    let before = devices.registry.physical_tree();
    let client = platform.client();
    let outcome = submit_and_wait(&client, "spawnVM", spec.spawn_args("x", 0, 2048), WAIT).unwrap();
    assert_eq!(outcome.state, TxnState::Aborted);
    let err = outcome.error.unwrap();
    assert!(err.contains("#1"), "{err}");
    assert!(before
        .diff(&devices.registry.physical_tree(), &Path::root())
        .is_empty());
    platform.shutdown();
}

/// Undo failure → `Failed` state, partial physical rollback, inconsistency
/// marking, and denial of further transactions until repair (paper §4).
#[test]
fn undo_failure_marks_inconsistent_and_repair_recovers() {
    let spec = spec();
    let (platform, devices) = start(&spec);
    let client = platform.client();

    // startVM fails, then the undo of importImage (unimportImage) fails too.
    devices.computes[0].fault_plan().fail_once("startVM");
    devices.computes[0].fault_plan().fail_once("unimportImage");
    let outcome =
        submit_and_wait(&client, "spawnVM", spec.spawn_args("bad", 0, 2048), WAIT).unwrap();
    assert_eq!(outcome.state, TxnState::Failed);
    let err = outcome.error.unwrap();
    assert!(err.contains("undo"), "{err}");

    // The host is quarantined: new transactions on it abort immediately.
    let denied =
        submit_and_wait(&client, "spawnVM", spec.spawn_args("next", 0, 2048), WAIT).unwrap();
    assert_eq!(denied.state, TxnState::Aborted);
    assert!(denied.error.unwrap().contains("inconsistent"));

    // The other host still works — useful work continues on consistent
    // parts of the data model (paper §2.2).
    let other = submit_and_wait(&client, "spawnVM", spec.spawn_args("ok", 1, 2048), WAIT).unwrap();
    assert_eq!(other.state, TxnState::Committed, "{:?}", other.error);

    // Repair reconciles the leftover physical state (the image import that
    // failed to undo) and clears the marker.
    let host0 = Path::parse("/vmRoot/host0").unwrap();
    let result = platform.admin().repair(&host0, WAIT).unwrap();
    assert!(result.ok, "{}", result.message);

    // The host accepts transactions again.
    let healed =
        submit_and_wait(&client, "spawnVM", spec.spawn_args("next", 0, 2048), WAIT).unwrap();
    assert_eq!(healed.state, TxnState::Committed, "{:?}", healed.error);
    platform.shutdown();
}

#[test]
fn random_fault_injection_never_leaks_partial_state() {
    // Sweep the fault over every step of spawnVM; after each aborted
    // attempt the physical layer must equal its pre-transaction state.
    let actions = [
        "cloneImage",
        "exportImage",
        "importImage",
        "createVM",
        "startVM",
    ];
    for (i, action) in actions.iter().enumerate() {
        let spec = spec();
        let (platform, devices) = start(&spec);
        let before = devices.registry.physical_tree();
        let device_holder: &dyn tropic::devices::Device = if i < 2 {
            &*devices.storages[0]
        } else {
            &*devices.computes[0]
        };
        device_holder.fault_plan().fail_once(action);
        let client = platform.client();
        let outcome =
            submit_and_wait(&client, "spawnVM", spec.spawn_args("v", 0, 2048), WAIT).unwrap();
        assert_eq!(outcome.state, TxnState::Aborted, "fault in {action}");
        assert!(
            before
                .diff(&devices.registry.physical_tree(), &Path::root())
                .is_empty(),
            "leftover state after fault in {action}"
        );
        platform.shutdown();
    }
}
