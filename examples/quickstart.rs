//! Quickstart: bring up a small TCloud on TROPIC and drive it through an
//! in-process `TropicClient` — build a request, follow its handle, stream
//! lifecycle events, batch-submit atomically, and watch a failure roll back
//! cleanly. The same client type reaches a remote platform over a socket
//! (`examples/remote_quickstart.rs`).
//!
//! Run with: `cargo run --example quickstart`

use std::time::Duration;

use tropic::core::{
    format_execution_log, ExecMode, PlatformConfig, Priority, Tropic, TxnRequest, TxnState,
};
use tropic::devices::{Device, LatencyModel};
use tropic::tcloud::TopologySpec;

fn main() {
    // A 4-host data center with one storage server and a router.
    let spec = TopologySpec {
        compute_hosts: 4,
        storage_hosts: 1,
        routers: 1,
        ..Default::default()
    };
    let devices = spec.build_devices(&LatencyModel::tcloud_scaled());
    let platform = Tropic::start(
        PlatformConfig::default(), // 3 replicated controllers, as the paper deploys.
        spec.service(),
        ExecMode::Physical(devices.registry.clone()),
    );
    let client = platform.client();

    // Stream lifecycle events while we work.
    let events = client.subscribe().expect("subscribe");

    // 1. Spawn a VM: one typed request, one ACID transaction over
    //    storage + compute devices. High priority, 60 s deadline, and an
    //    idempotency key so an accidental resubmit cannot double-spawn.
    println!("spawning web-1 on host0...");
    let handle = client
        .submit_request(
            TxnRequest::new("spawnVM")
                .args(spec.spawn_args("web-1", 0, 2_048))
                .priority(Priority::High)
                .deadline(Duration::from_secs(60))
                .idempotency_key("spawn-web-1")
                .label("tier", "frontend"),
        )
        .expect("platform reachable");
    // Non-blocking poll first (usually still in flight), then the
    // event-driven wait, bounded by the request's deadline.
    match handle.try_outcome().expect("coord reachable") {
        Some(o) => println!("  already finished: {:?}", o.state),
        None => println!("  txn {} in flight...", handle.id()),
    }
    let outcome = handle.wait().expect("outcome within the deadline");
    println!("  -> {:?} in {} ms", outcome.state, outcome.latency_ms);
    assert_eq!(outcome.state, TxnState::Committed);
    println!(
        "  host0 runs web-1: {:?}",
        devices.computes[0].vm_power("web-1")
    );

    // An idempotent resubmit resolves to the *same* transaction — no
    // second VM, same outcome id.
    let dup = client
        .submit_request(
            TxnRequest::new("spawnVM")
                .args(spec.spawn_args("web-1", 0, 2_048))
                .idempotency_key("spawn-web-1"),
        )
        .expect("platform reachable")
        .wait_timeout(Duration::from_secs(30))
        .expect("dedup outcome");
    assert_eq!(dup.id, outcome.id, "dedup returns the original TxnId");
    println!("  resubmit deduped onto txn {}", dup.id);

    // 2. Inspect the durable execution log (the paper's Table 1).
    let record = client
        .txn_record(outcome.id)
        .expect("coord reachable")
        .expect("record retained");
    println!("\nexecution log (paper Table 1):");
    print!("{}", format_execution_log(&record.log));

    // 3. Inject a failure in the last step; the transaction aborts and
    //    every earlier action is undone — no orphaned image, no half-built
    //    VM (the paper's §2.1 robustness goal).
    println!("\nspawning doomed-1 with an injected startVM failure...");
    devices.computes[1].fault_plan().fail_once("startVM");
    let outcome = client
        .submit_request(TxnRequest::new("spawnVM").args(spec.spawn_args("doomed-1", 1, 2_048)))
        .expect("platform reachable")
        .wait_timeout(Duration::from_secs(60))
        .expect("outcome");
    println!(
        "  -> {:?}: {}",
        outcome.state,
        outcome.error.clone().unwrap_or_default()
    );
    assert_eq!(outcome.state, TxnState::Aborted);
    assert!(
        outcome.api_error().is_none(),
        "a device failure is an application outcome, not an API error"
    );
    println!(
        "  no leftovers: host1 has {} VMs, storage has doomed-1-img: {}",
        devices.computes[1].vm_count(),
        devices.storages[0].has_image("doomed-1-img"),
    );

    // 4. Batch-submit atomically: a migration and a batch-lane spawn land
    //    in the queues via ONE coordination-store write (or not at all).
    println!("\nbatch: migrate web-1 host0 -> host2, spawn web-2 in the batch lane...");
    let handles = client
        .submit_batch(vec![
            TxnRequest::new("migrateVM")
                .arg("/vmRoot/host0")
                .arg("/vmRoot/host2")
                .arg("web-1")
                .priority(Priority::High),
            TxnRequest::new("spawnVM")
                .args(spec.spawn_args("web-2", 3, 2_048))
                .priority(Priority::Batch),
        ])
        .expect("atomic enqueue");
    for handle in &handles {
        let o = handle
            .wait_timeout(Duration::from_secs(60))
            .expect("outcome");
        println!("  txn {} -> {:?} in {} ms", o.id, o.state, o.latency_ms);
        assert_eq!(o.state, TxnState::Committed);
    }
    println!(
        "  host0: {:?}, host2: {:?}",
        devices.computes[0].vm_power("web-1"),
        devices.computes[2].vm_power("web-1"),
    );

    // 5. The subscription saw every transition.
    std::thread::sleep(Duration::from_millis(300));
    println!("\nlifecycle events observed:");
    for ev in events.drain() {
        println!(
            "  txn {} [{:?}] {} -> {:?}",
            ev.id, ev.priority, ev.proc_name, ev.state
        );
    }

    platform.shutdown();
    println!("\ndone.");
}
