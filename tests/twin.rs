//! End-to-end drills for the digital-twin subsystem: devices report state
//! asynchronously, the reconciler detects drift by diffing desired
//! (logical) against reported state, corrective transactions ride the
//! normal priority lanes, and the backoff waker escalates to `Degraded`
//! when repairs keep failing — all without operator action, which is the
//! point of the subsystem (the operator `repair`/`reload` path of paper §4
//! made continuous).

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use tropic::core::{
    ExecMode, PlatformConfig, RemoteClient, Tropic, TwinConfig, TwinEvent, TwinPhase, TxnState,
};
use tropic::devices::{Device, LatencyModel, VmPower};
use tropic::model::Path;
use tropic::tcloud::{TCloudDevices, TopologySpec};
use tropic::workload::chaos::{run_drift_storm, ChaosSpec, DriftStormSpec};

const WAIT: Duration = Duration::from_secs(60);

/// Fast twin knobs so the drills finish quickly: tight report/reconcile
/// cadence, short backoff.
fn fast_twin() -> TwinConfig {
    TwinConfig {
        interval_ms: 20,
        report_interval_ms: 10,
        backoff_base_ms: 40,
        backoff_cap_ms: 400,
        ..TwinConfig::enabled()
    }
}

fn start_twin(spec: &TopologySpec, twin: TwinConfig) -> (Tropic, TCloudDevices) {
    let devices = spec.build_devices(&LatencyModel::zero());
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 1,
            twin,
            ..Default::default()
        },
        spec.service(),
        ExecMode::Physical(Arc::clone(&devices.registry)),
    );
    (platform, devices)
}

fn small_topo() -> TopologySpec {
    TopologySpec {
        compute_hosts: 2,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    }
}

fn spawn_vms(platform: &Tropic, spec: &TopologySpec, host: usize, names: &[&str]) {
    let client = platform.client();
    for name in names {
        let outcome = client
            .submit_request(
                tropic::core::TxnRequest::new("spawnVM").args(spec.spawn_args(name, host, 2_048)),
            )
            .unwrap()
            .wait_timeout(WAIT)
            .unwrap();
        assert_eq!(outcome.state, TxnState::Committed, "{:?}", outcome.error);
    }
}

/// Polls until `cond` holds or the timeout expires; returns whether it held.
fn eventually(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// `true` when `events` contains `phases` as an in-order subsequence for
/// `path`.
fn has_phase_subsequence(events: &[TwinEvent], path: &str, phases: &[TwinPhase]) -> bool {
    let mut want = phases.iter();
    let mut next = want.next();
    for event in events.iter().filter(|e| e.path.to_string() == path) {
        if Some(&event.phase) == next {
            next = want.next();
            if next.is_none() {
                return true;
            }
        }
    }
    next.is_none()
}

/// The acceptance drill: a scripted host reboot drifts the physical layer,
/// the reconciler detects it without operator action, pushes a corrective
/// transaction through the normal lanes, and a `RemoteSubscription` client
/// on the RPC socket observes the full `Drifted → Reconciling → Converged`
/// sequence.
#[test]
fn reconciler_heals_host_reboot_and_streams_the_episode_over_rpc() {
    let spec = small_topo();
    let (platform, devices) = start_twin(&spec, fast_twin());
    let rpc = platform.serve_rpc().expect("rpc frontend");
    let remote = RemoteClient::connect(rpc.addr()).expect("connect");
    let twin_sub = remote.subscribe_twin().expect("twin subscription");

    spawn_vms(&platform, &spec, 0, &["t0", "t1", "t2"]);
    // Let the twin baseline the post-spawn state (reported catches up to
    // desired) so the reboot below opens a clean drift episode.
    std::thread::sleep(Duration::from_millis(300));

    // The §4 scenario, now handled autonomously: the host reboots and its
    // VMs power off behind TROPIC's back.
    let affected = devices.computes[0].oob_power_cycle();
    assert_eq!(affected.len(), 3);

    // The reconciler must restart every VM with no operator involvement.
    assert!(
        eventually(WAIT, || {
            (0..3).all(|i| devices.computes[0].vm_power(&format!("t{i}")) == Some(VmPower::Running))
        }),
        "reconciler never restarted the powered-off VMs"
    );

    // Drift accounting: at least one episode detected and repaired, with a
    // convergence-time sample recorded for the MTTR histogram.
    assert!(eventually(WAIT, || {
        let c = platform.counters();
        c.drift_detected >= 1 && c.drift_repaired >= 1
    }));
    assert!(
        !platform.metrics().convergence_samples().is_empty(),
        "convergence must leave an MTTR sample"
    );

    // The remote subscriber saw the whole episode over the socket.
    let mut events = Vec::new();
    assert!(
        eventually(WAIT, || {
            events.extend(twin_sub.drain());
            has_phase_subsequence(
                &events,
                "/vmRoot/host0",
                &[
                    TwinPhase::Drifted,
                    TwinPhase::Reconciling,
                    TwinPhase::Converged,
                ],
            )
        }),
        "remote subscriber never observed Drifted → Reconciling → Converged for host0; saw: {:?}",
        events
            .iter()
            .map(|e| (e.path.to_string(), e.phase))
            .collect::<Vec<_>>()
    );

    rpc.stop();
    platform.shutdown();
}

/// Corrective transactions are idempotent: a drift episode fires exactly
/// one corrective transaction per (fingerprint, attempt), so sustained
/// re-detection of the same drift never double-fires. With the device held
/// down (unrepairable), the episode stays open and no attempts burn.
#[test]
fn waker_escalates_to_degraded_then_converges_after_faults_clear() {
    let spec = small_topo();
    let twin = TwinConfig {
        max_attempts: 2,
        backoff_base_ms: 30,
        backoff_cap_ms: 150,
        ..fast_twin()
    };
    let (platform, devices) = start_twin(&spec, twin);
    let feed = platform.subscribe_twin();
    spawn_vms(&platform, &spec, 0, &["w0"]);
    std::thread::sleep(Duration::from_millis(300));

    // Every repair attempt (startVM) fails: the waker must burn through
    // its attempts and escalate to Degraded.
    devices.computes[0]
        .fault_plan()
        .fail_every_nth("startVM", 1);
    devices.computes[0].oob_power_cycle();

    let mut events: Vec<TwinEvent> = Vec::new();
    assert!(
        eventually(WAIT, || {
            events.extend(feed.drain());
            events
                .iter()
                .any(|e| e.path.to_string() == "/vmRoot/host0" && e.phase == TwinPhase::Degraded)
        }),
        "repair attempts exhausted but no Degraded escalation; saw {:?}",
        events
            .iter()
            .map(|e| (e.path.to_string(), e.phase))
            .collect::<Vec<_>>()
    );
    assert!(eventually(WAIT, || platform.counters().drift_escalated >= 1));

    // Degraded resources trickle-retry at the backoff cap: once the fault
    // script clears, the next attempt converges without operator action.
    devices.computes[0].fault_plan().clear();
    assert!(
        eventually(WAIT, || devices.computes[0].vm_power("w0")
            == Some(VmPower::Running)),
        "degraded resource never converged after faults cleared"
    );
    assert!(eventually(WAIT, || {
        events.extend(feed.drain());
        has_phase_subsequence(
            &events,
            "/vmRoot/host0",
            &[TwinPhase::Degraded, TwinPhase::Converged],
        )
    }));
    platform.shutdown();
}

/// `AdminClient::reload` reports how many paths had drifted before it
/// absorbed the physical state into the logical layer.
#[test]
fn reload_reports_drifted_path_count() {
    let spec = small_topo();
    // Twin disabled: this drill checks the synchronous operator path.
    let devices = spec.build_devices(&LatencyModel::zero());
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 1,
            workers: 1,
            ..Default::default()
        },
        spec.service(),
        ExecMode::Physical(Arc::clone(&devices.registry)),
    );
    let admin = platform.admin();

    // No drift: reload reports zero drifted paths.
    let clean = admin.reload(&Path::root(), WAIT).unwrap();
    assert!(clean.ok, "{}", clean.message);
    assert_eq!(clean.drifted, 0);

    // Out-of-band VM (with its backing import so the layers can converge):
    // reload must adopt it and report the drift it absorbed.
    devices.computes[1].oob_create_vm("adopted", "external-img", 1_024, true);
    let result = admin.reload(&Path::root(), WAIT).unwrap();
    assert!(result.ok, "{}", result.message);
    assert!(
        result.drifted > 0,
        "reload absorbed out-of-band state but reported zero drifted paths"
    );
    platform.shutdown();
}

/// The drift-storm scenario: open-loop load while compute hosts flap
/// Down/Up (mid-flight transactions strand partial physical state), with
/// the reconciler enabled. After the storm every drifted resource must
/// converge and no acknowledged transaction may be lost.
#[test]
fn drift_storm_converges_with_zero_acked_loss() {
    let topo = TopologySpec {
        compute_hosts: 4,
        storage_hosts: 1,
        routers: 0,
        storage_capacity_mb: 100_000_000,
        ..Default::default()
    };
    let (platform, devices) = start_twin(&topo, fast_twin());
    let spec = ChaosSpec {
        seed: 17,
        duration_ms: 2_000,
        arrival_per_sec: 25.0,
        clients: 2,
        pool_vms: 4,
        faults: DriftStormSpec {
            seed: 17,
            duration_ms: 2_000,
            compute_hosts: topo.compute_hosts,
            flaps: 3,
            flap_down_ms: 250,
            every_nth: vec![("startVM".into(), 6)],
        }
        .generate(),
        drain_timeout: Duration::from_secs(120),
        ..Default::default()
    };

    // Guaranteed drift on top of whatever the flaps strand: mid-storm, a
    // host reboots out of band.
    let reboot_host = Arc::clone(&devices.computes[0]);
    let injector = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(1_000));
        reboot_host.oob_power_cycle()
    });

    let report = run_drift_storm(
        &platform,
        &topo,
        Some(&devices),
        &spec,
        Duration::from_secs(60),
    );
    let rebooted = injector.join().unwrap();

    assert!(report.chaos.submitted > 0, "no load was submitted");
    assert!(report.chaos.committed > 0, "nothing committed in the storm");
    assert_eq!(
        report.chaos.acked_lost, 0,
        "acknowledged transactions lost in the drift storm"
    );
    // The storm must actually have produced drift for the assertion to
    // mean anything — the scripted reboot guarantees it when pool VMs
    // landed on host0.
    if !rebooted.is_empty() {
        assert!(
            !report.drifted.is_empty(),
            "a mid-storm host reboot produced no drift episode"
        );
    }
    assert!(
        report.unconverged.is_empty(),
        "twin left resources unconverged after the storm: {:?}",
        report.unconverged
    );
    platform.shutdown();
}

// ---------------------------------------------------------------------
// Property: any sequence of injected drifts on a quiescent platform
// converges back to zero cross-layer diffs, autonomously.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum DriftOp {
    /// Host reboot: its VMs power off out of band.
    PowerCycle(u8),
    /// A rogue VM appears on a host.
    RogueVm(u8),
    /// The template image disappears from the storage server.
    LoseImage,
}

fn drift_op() -> impl Strategy<Value = DriftOp> {
    prop_oneof![
        (0u8..2).prop_map(DriftOp::PowerCycle),
        (0u8..2).prop_map(DriftOp::RogueVm),
        Just(DriftOp::LoseImage),
    ]
}

proptest! {
    // Each case boots a full platform; keep the count small.
    #![proptest_config(ProptestConfig { cases: 6 })]

    #[test]
    fn any_drift_sequence_converges_to_zero_diffs(
        ops in prop::collection::vec(drift_op(), 1..5)
    ) {
        let spec = small_topo();
        let (platform, devices) = start_twin(&spec, fast_twin());
        // One VM per host so power cycles always produce drift.
        spawn_vms(&platform, &spec, 0, &["p0"]);
        spawn_vms(&platform, &spec, 1, &["p1"]);
        std::thread::sleep(Duration::from_millis(300));

        for (i, op) in ops.iter().enumerate() {
            match op {
                DriftOp::PowerCycle(h) => {
                    devices.computes[*h as usize].oob_power_cycle();
                }
                DriftOp::RogueVm(h) => {
                    devices.computes[*h as usize].oob_create_vm(
                        &format!("rogue{i}"),
                        "rogue-img",
                        128,
                        false,
                    );
                }
                DriftOp::LoseImage => {
                    devices.storages[0].oob_lose_image(&spec.template_name);
                }
            }
            std::thread::sleep(Duration::from_millis(40));
        }

        // The reconciler must undo every injected drift on its own.
        let healed = eventually(WAIT, || {
            let vms_running = (0..2).all(|h| {
                devices.computes[h].vm_power(&format!("p{h}")) == Some(VmPower::Running)
            });
            let no_rogues = (0..2).all(|h| devices.computes[h].vm_count() == 1);
            let image_back = devices.storages[0].has_image(&spec.template_name);
            vms_running && no_rogues && image_back
        });
        prop_assert!(healed, "drift not healed: ops {:?}", ops);

        // Oracle: a full-scope operator repair finds nothing left to do.
        let settled = eventually(Duration::from_secs(10), || {
            let c = platform.counters();
            c.drift_detected == c.drift_repaired
        });
        prop_assert!(settled, "drift episodes left open");
        let admin = platform.admin();
        let result = admin.repair(&Path::root(), WAIT).unwrap();
        prop_assert!(result.ok, "{}", result.message);
        prop_assert_eq!(result.actions, 0, "twin left residual diffs for repair");
        prop_assert_eq!(result.drifted, 0);
        let c = platform.counters();
        prop_assert!(c.drift_detected >= 1, "no drift episode was ever detected");
        platform.shutdown();
    }
}
