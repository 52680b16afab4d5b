//! Isolation and safety (paper §2.1, §3.1): constraints abort unsafe
//! transactions before devices are touched; concurrent transactions on
//! shared resources serialize without races.

mod common;

use std::time::Duration;

use tropic::core::{ExecMode, PlatformConfig, Tropic, TxnState};
use tropic::devices::LatencyModel;
use tropic::model::Value;
use tropic::tcloud::{TCloudDevices, TopologySpec};

use common::{submit, submit_and_wait};

const WAIT: Duration = Duration::from_secs(120);

fn start(spec: &TopologySpec, workers: usize) -> (Tropic, TCloudDevices) {
    let devices = spec.build_devices(&LatencyModel::zero());
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers,
            ..Default::default()
        },
        spec.service(),
        ExecMode::Physical(devices.registry.clone()),
    );
    (platform, devices)
}

/// Simultaneous spawns racing for the last memory slot: exactly the
/// race-condition scenario of §2.1. One commits, one aborts; the memory
/// constraint is never violated on the device.
#[test]
fn overcommit_race_resolved_by_constraint() {
    let spec = TopologySpec {
        compute_hosts: 1,
        storage_hosts: 1,
        routers: 0,
        host_mem_mb: 4_096,
        ..Default::default()
    };
    let (platform, devices) = start(&spec, 2);
    let client = platform.client();
    // Two 3 GB VMs race for a 4 GB host.
    let a = submit(&client, "spawnVM", spec.spawn_args("racer-a", 0, 3_072)).unwrap();
    let b = submit(&client, "spawnVM", spec.spawn_args("racer-b", 0, 3_072)).unwrap();
    let oa = client.handle(a).wait_timeout(WAIT).unwrap();
    let ob = client.handle(b).wait_timeout(WAIT).unwrap();
    let states = [oa.state, ob.state];
    assert!(states.contains(&TxnState::Committed), "{oa:?} {ob:?}");
    assert!(states.contains(&TxnState::Aborted), "{oa:?} {ob:?}");
    let aborted = if oa.state == TxnState::Aborted {
        &oa
    } else {
        &ob
    };
    assert!(aborted.error.as_ref().unwrap().contains("vm-memory"));
    // The device holds exactly one VM.
    assert_eq!(devices.computes[0].vm_count(), 1);
    platform.shutdown();
}

#[test]
fn spawns_on_disjoint_hosts_proceed_concurrently() {
    let spec = TopologySpec {
        compute_hosts: 8,
        storage_hosts: 2,
        routers: 0,
        ..Default::default()
    };
    let (platform, _devices) = start(&spec, 4);
    let client = platform.client();
    let ids: Vec<_> = (0..8)
        .map(|i| {
            submit(
                &client,
                "spawnVM",
                spec.spawn_args(&format!("c{i}"), i, 2_048),
            )
            .unwrap()
        })
        .collect();
    for id in ids {
        let o = client.handle(id).wait_timeout(WAIT).unwrap();
        assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
    }
    platform.shutdown();
}

/// Hypervisor-incompatibility (the paper's VM-type constraint, §6.2): a
/// migration to a host with a different hypervisor aborts in the logical
/// layer without any device call.
#[test]
fn cross_hypervisor_migration_rejected_before_devices() {
    let mut spec = TopologySpec {
        compute_hosts: 2,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    // Build a service whose host1 is KVM while the devices stay consistent.
    spec.hypervisor = "xen".into();
    let devices = spec.build_devices(&LatencyModel::zero());
    let mut service = spec.service();
    service
        .initial_tree
        .set_attr(
            &tropic::model::Path::parse("/vmRoot/host1").unwrap(),
            "hypervisor",
            "kvm",
        )
        .unwrap();
    // Note: the physical host1 still reports "xen"; for this test only the
    // logical attribute matters because the constraint checks logically.
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 1,
            ..Default::default()
        },
        service,
        ExecMode::Physical(devices.registry.clone()),
    );
    let client = platform.client();
    submit_and_wait(&client, "spawnVM", spec.spawn_args("vm", 0, 2_048), WAIT).unwrap();
    let before_import = devices.computes[1].has_imported("vm-img");
    let outcome = submit_and_wait(
        &client,
        "migrateVM",
        vec![
            Value::from("/vmRoot/host0"),
            Value::from("/vmRoot/host1"),
            Value::from("vm"),
        ],
        WAIT,
    )
    .unwrap();
    assert_eq!(outcome.state, TxnState::Aborted);
    assert!(outcome.error.unwrap().contains("vm-type"));
    // Early detection: the destination device was never touched.
    assert_eq!(devices.computes[1].has_imported("vm-img"), before_import);
    assert_eq!(
        devices.computes[0].vm_power("vm"),
        Some(tropic::devices::VmPower::Running)
    );
    platform.shutdown();
}

/// Serialized spawns on one host: deferred transactions retry and commit
/// in FIFO order once the blocking transaction completes.
#[test]
fn deferred_transactions_eventually_commit_in_order() {
    let spec = TopologySpec {
        compute_hosts: 1,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    let (platform, _devices) = start(&spec, 2);
    let client = platform.client();
    let ids: Vec<_> = (0..5)
        .map(|i| {
            submit(
                &client,
                "spawnVM",
                spec.spawn_args(&format!("s{i}"), 0, 2_048),
            )
            .unwrap()
        })
        .collect();
    let mut finish_order = Vec::new();
    for &id in &ids {
        let o = client.handle(id).wait_timeout(WAIT).unwrap();
        assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
        finish_order.push(id);
    }
    // Lock conflicts were actually exercised.
    assert!(platform.metrics().counters().defers > 0);
    platform.shutdown();
}

#[test]
fn storage_capacity_constraint_guards_cloning() {
    let spec = TopologySpec {
        compute_hosts: 4,
        storage_hosts: 1,
        routers: 0,
        // Template (8 GB) + exactly two clones fit.
        storage_capacity_mb: 3 * 8_192,
        ..Default::default()
    };
    let (platform, _devices) = start(&spec, 1);
    let client = platform.client();
    for i in 0..2 {
        let o = submit_and_wait(
            &client,
            "spawnVM",
            spec.spawn_args(&format!("f{i}"), i, 2_048),
            WAIT,
        )
        .unwrap();
        assert_eq!(o.state, TxnState::Committed, "{:?}", o.error);
    }
    let o = submit_and_wait(&client, "spawnVM", spec.spawn_args("f2", 2, 2_048), WAIT).unwrap();
    assert_eq!(o.state, TxnState::Aborted);
    assert!(o.error.unwrap().contains("storage-capacity"));
    platform.shutdown();
}
