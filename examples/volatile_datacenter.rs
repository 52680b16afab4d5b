//! Volatile data center: exercise the paper's §4 machinery end to end —
//! out-of-band drift (a host reboot, an operator's rogue VM, a lost image)
//! detected and healed by `repair`, external state adopted by `reload`, and
//! a stalled transaction killed and reconciled.
//!
//! Run with: `cargo run --example volatile_datacenter`

use std::time::Duration;

use tropic::core::{ExecMode, PlatformConfig, Signal, Tropic, TxnRequest, TxnState};
use tropic::devices::LatencyModel;
use tropic::model::Path;
use tropic::tcloud::TopologySpec;

fn main() {
    let spec = TopologySpec {
        compute_hosts: 3,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    let latency = LatencyModel::zero().with_action("createVM", Duration::from_secs(2));
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
    // One client submits work and runs the operator plane
    // (repair/reload/signal).
    let client = platform.client();

    println!("provisioning three VMs...");
    for i in 0..3 {
        let o = client
            .submit_request(TxnRequest::new("spawnVM").args(spec.spawn_args(
                &format!("app{i}"),
                0,
                2_048,
            )))
            .expect("submit")
            .wait_timeout(Duration::from_secs(60))
            .expect("txn");
        assert_eq!(o.state, TxnState::Committed);
    }

    // --- Scenario 1: the paper's host-reboot example. ---
    println!("\nscenario 1: host0 reboots out of band (all VMs power off)");
    let affected = devices.computes[0].oob_power_cycle();
    println!("  physically stopped: {affected:?}");
    let result = client
        .repair(
            &Path::parse("/vmRoot/host0").unwrap(),
            Duration::from_secs(30),
        )
        .expect("repair");
    println!(
        "  repair: {} ({} corrective actions)",
        result.message, result.actions
    );
    println!(
        "  app0 is {:?} again",
        devices.computes[0].vm_power("app0").unwrap()
    );

    // --- Scenario 2: rogue operator changes. ---
    println!("\nscenario 2: an operator creates a rogue VM and deletes an image via the CLI");
    devices.computes[1].oob_create_vm("rogue", "app0-img", 512, true);
    devices.storages[0].oob_lose_image("app1-img");
    let result = client
        .repair(&Path::root(), Duration::from_secs(30))
        .expect("repair");
    println!(
        "  repair: {} ({} corrective actions)",
        result.message, result.actions
    );
    println!(
        "  rogue gone: {}, app1-img restored: {}",
        devices.computes[1].vm_power("rogue").is_none(),
        devices.storages[0].has_image("app1-img"),
    );

    // --- Scenario 3: adopting external state with reload. ---
    println!("\nscenario 3: adopting an externally-provisioned VM via reload");
    devices.computes[2].oob_create_vm("legacy", "legacy-img", 1_024, true);
    let result = client
        .reload(
            &Path::parse("/vmRoot/host2").unwrap(),
            Duration::from_secs(30),
        )
        .expect("reload");
    println!("  reload: {}", result.message);
    let o = client
        .submit_request(TxnRequest::new("stopVM").arg("/vmRoot/host2").arg("legacy"))
        .expect("submit")
        .wait_timeout(Duration::from_secs(30))
        .expect("txn");
    println!("  TROPIC now manages it: stopVM legacy -> {:?}", o.state);

    // --- Scenario 4: a stalled transaction, killed and reconciled. ---
    println!("\nscenario 4: KILL a transaction stuck in a slow device call");
    let stuck = client
        .submit_request(TxnRequest::new("spawnVM").args(spec.spawn_args("stuck", 1, 2_048)))
        .expect("submit");
    std::thread::sleep(Duration::from_millis(300));
    client.signal(stuck.id(), Signal::Kill).expect("signal");
    let o = stuck
        .wait_timeout(Duration::from_secs(30))
        .expect("outcome");
    println!(
        "  stuck txn -> {:?} ({})",
        o.state,
        o.error.unwrap_or_default()
    );
    // The abandoned physical prefix (cloned/exported image) is drift now.
    std::thread::sleep(Duration::from_secs(3));
    let result = client
        .repair(&Path::root(), Duration::from_secs(30))
        .expect("repair");
    println!(
        "  repair after KILL: {} ({} corrective actions)",
        result.message, result.actions
    );
    let o = client
        .submit_request(TxnRequest::new("spawnVM").args(spec.spawn_args("fresh", 1, 2_048)))
        .expect("submit")
        .wait_timeout(Duration::from_secs(60))
        .expect("txn");
    println!("  host1 healthy again: spawn fresh -> {:?}", o.state);

    platform.shutdown();
    println!("\ndone.");
}
