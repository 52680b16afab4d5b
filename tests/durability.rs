//! Durability-subsystem integration tests: full-datacenter power loss and
//! recovery from disk, snapshot-bounded WALs, torn-tail WAL handling, and
//! follower resync by state transfer.

mod common;

use std::sync::Arc;
use std::time::Duration;

use tropic::coord::{
    wal, CoordConfig, CoordService, CreateMode, DurabilityOptions, Ensemble, Op, TempDir,
};
use tropic::core::codec::encode_granule;
use tropic::core::{
    layout, Controller, ControllerConfig, ExecMode, Metrics, PlatformConfig, PlatformError, Tropic,
    TwinConfig, TwinFeed, TxnRecord, TxnState,
};
use tropic::model::{real_clock, Path};
use tropic::tcloud::TopologySpec;

use common::{submit, submit_and_wait};

fn p(s: &str) -> Path {
    Path::parse(s).unwrap()
}

fn create_op(path: &str) -> Op {
    Op::Create {
        path: p(path),
        data: b"d"[..].into(),
        ephemeral_owner: None,
        sequential: false,
    }
}

fn quick_opts(snapshot_every_ops: u64) -> DurabilityOptions {
    DurabilityOptions {
        snapshot_every_ops,
        snapshot_max_wal_bytes: 0,
        segment_max_bytes: 1 << 16,
    }
}

fn durable_platform_config(dir: &std::path::Path, durability: DurabilityOptions) -> PlatformConfig {
    PlatformConfig {
        controllers: 1,
        workers: 1,
        coord: CoordConfig {
            durability,
            ..CoordConfig::default()
        },
        ..PlatformConfig::default()
    }
    .with_data_dir(dir)
}

/// The acceptance scenario: crash every replica, controller, and worker
/// mid-workload, restart from `data_dir`, and verify that (a) every
/// acknowledged transaction is still committed and (b) in-flight
/// transactions resume and finish.
#[test]
fn full_datacenter_power_loss_loses_no_acknowledged_txn() {
    power_loss_scenario(
        "tropic-power-loss-test",
        DurabilityOptions {
            snapshot_every_ops: 32,
            ..DurabilityOptions::default()
        },
    );
}

/// The same acceptance scenario under the durability options that ship.
/// The default snapshot cadence (1 024 ops) is not reached by this short
/// workload, so recovery replays the acknowledged work from the WAL.
#[test]
fn full_datacenter_power_loss_under_the_default_policy_loses_no_acknowledged_txn() {
    power_loss_scenario("tropic-power-loss-default", DurabilityOptions::default());
}

fn power_loss_scenario(tag: &str, durability: DurabilityOptions) {
    let tmp = TempDir::new(tag);
    let spec = TopologySpec {
        compute_hosts: 4,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    let config = durable_platform_config(tmp.path(), durability);

    let mut acked = Vec::new();
    let mut in_flight = Vec::new();
    {
        let platform = Tropic::start(config.clone(), spec.service(), ExecMode::LogicalOnly);
        let client = platform.client();
        for i in 0..8 {
            let id = submit(
                &client,
                "spawnVM",
                spec.spawn_args(&format!("vm{i}"), i % 4, 1_024),
            )
            .unwrap();
            let outcome = client
                .handle(id)
                .wait_timeout(Duration::from_secs(30))
                .unwrap();
            assert_eq!(outcome.state, TxnState::Committed);
            acked.push(id);
        }
        // Freeze the pipeline (the controller dies first), THEN submit:
        // these deterministically sit unprocessed in the durable inputQ
        // when the power cut lands, so the post-recovery assertions prove
        // real resumption rather than racing a graceful drain.
        assert!(platform.crash_controller(0));
        for i in 8..12 {
            let id = submit(
                &client,
                "spawnVM",
                spec.spawn_args(&format!("vm{i}"), i % 4, 1_024),
            )
            .unwrap();
            in_flight.push(id);
        }
        platform.shutdown(); // the whole datacenter goes dark
    }

    let platform = Tropic::recover(config, spec.service(), ExecMode::LogicalOnly);
    assert!(platform.coord().ensemble_stats().recoveries >= 3);
    let client = platform.client();
    // The crash landed before any controller saw the in-flight batch:
    // recovery starts them from the reconstructed queue, not from records.
    for id in &in_flight {
        let rec = client.txn_record(*id).unwrap();
        assert!(
            rec.is_none() || !rec.unwrap().state.is_final(),
            "txn {id} was finalized before the crash; the scenario is vacuous"
        );
    }
    for id in &acked {
        let rec = client
            .txn_record(*id)
            .unwrap()
            .expect("acknowledged transaction record survived the crash");
        assert_eq!(rec.state, TxnState::Committed, "txn {id} lost its commit");
    }
    for id in &in_flight {
        let outcome = client
            .handle(*id)
            .wait_timeout(Duration::from_secs(30))
            .unwrap();
        assert_eq!(
            outcome.state,
            TxnState::Committed,
            "in-flight txn {id} did not resume: {:?}",
            outcome.error
        );
    }
    // New work keeps flowing, with ids that cannot alias pre-crash records.
    let outcome = submit_and_wait(
        &client,
        "spawnVM",
        spec.spawn_args("post", 0, 1_024),
        Duration::from_secs(30),
    )
    .unwrap();
    assert_eq!(outcome.state, TxnState::Committed);
    assert!(outcome.id > *in_flight.last().unwrap());
    platform.shutdown();
}

/// A data dir a build before the binary store layout wrote holds JSON
/// payloads. Recovery refuses each kind it reads instead of skipping it,
/// naming the znode: a JSON granule, a JSON record and a JSON
/// inconsistent set, each beside an otherwise binary store.
#[test]
fn a_data_dir_with_json_payloads_is_refused_by_name() {
    let spec = TopologySpec {
        compute_hosts: 2,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    let tree = spec.service().initial_tree;
    let host = TopologySpec::host_path(0);
    let record = TxnRecord::new(1, "spawnVM", spec.spawn_args("vm1", 0, 1_024), 0);
    let json = [
        (layout::granule(&host), serde_json::to_vec(&tree.get(&host))),
        (layout::txn(1), serde_json::to_vec(&record)),
        (layout::inconsistent(), serde_json::to_vec(&vec![&host])),
    ];
    for (znode, payload) in json {
        let tmp = TempDir::new("tropic-json-refused");
        let config = durable_platform_config(tmp.path(), DurabilityOptions::default());
        {
            let coord = CoordService::start(config.coord.clone());
            let client = coord.connect("earlier-build");
            let root = encode_granule(tree.get(&Path::root()));
            client.create_all(&layout::tree()).unwrap();
            client.create_all(&layout::txns()).unwrap();
            let persistent = CreateMode::Persistent;
            client
                .create(&layout::granule(&Path::root()), root, persistent)
                .unwrap();
            client.create(&znode, payload.unwrap(), persistent).unwrap();
        }
        let coord = CoordService::recover(config.coord.clone());
        let client = coord.connect("controller");
        let cfg = ControllerConfig {
            name: "c0".into(),
            term_timeout_ms: None,
            kill_timeout_ms: None,
            twin: TwinConfig::default(),
            twin_feed: TwinFeed::new(),
        };
        let service = Arc::new(spec.service());
        let mut controller = Controller::new(cfg, &client, service, real_clock(), Metrics::new());
        let err = controller.recover().unwrap_err();
        assert_eq!(err, PlatformError::IncompatibleStore(znode.clone()));
        assert!(err.to_string().contains(&znode.to_string()), "{err}");
    }
}

/// A controller whose recovery is refused says so: the platform's event
/// log names the error, once.
#[test]
fn a_refused_recovery_is_reported_as_an_event() {
    let spec = TopologySpec {
        compute_hosts: 2,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    let tmp = TempDir::new("tropic-recovery-failed");
    let config = durable_platform_config(tmp.path(), DurabilityOptions::default());
    {
        let platform = Tropic::start(config.clone(), spec.service(), ExecMode::LogicalOnly);
        let args = spec.spawn_args("vm1", 0, 1_024);
        submit_and_wait(&platform.client(), "spawnVM", args, Duration::from_secs(30)).unwrap();
        platform.shutdown();
    }
    {
        let coord = CoordService::recover(config.coord.clone());
        let client = coord.connect("earlier-build");
        client.create_all(&layout::txns()).unwrap();
        let garbage = &b"not a record"[..];
        (client.create(&layout::txn(999), garbage, CreateMode::Persistent)).unwrap();
    }
    let platform = Tropic::recover(config, spec.service(), ExecMode::LogicalOnly);
    let started = std::time::Instant::now();
    let failed = loop {
        let events = platform.metrics().events();
        let failed = events
            .into_iter()
            .find(|e| e.kind.starts_with("recovery-failed"));
        if failed.is_some() || started.elapsed() > Duration::from_secs(1) {
            break failed;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let failed = failed.expect("no recovery-failed event within 1 s");
    assert!(failed.kind.contains("IncompatibleStore"), "{}", failed.kind);
    // A refused store stays refused: it is not read again in a loop.
    std::thread::sleep(Duration::from_millis(200));
    let events = platform.metrics().events();
    let refusals = events
        .iter()
        .filter(|e| e.kind.starts_with("recovery-failed"));
    assert_eq!(refusals.count(), 1);
    platform.shutdown();
}

#[test]
fn replica_log_is_bounded_by_snapshot_truncation() {
    let tmp = TempDir::new("tropic-log-bound");
    let mut e = Ensemble::with_durability(1, tmp.path(), quick_opts(8)).unwrap();
    for i in 0..200 {
        e.submit(create_op(&format!("/n{i}"))).0.unwrap();
    }
    let stats = e.stats();
    assert_eq!(stats.snapshots_written, 25, "one per 8 committed ops");
    assert!(stats.bytes_fsynced > 0);
    // On disk: only the post-snapshot suffix remains as WAL segments.
    let wal_ops = wal::recover_dir(&tmp.path().join("replica-0"))
        .unwrap()
        .ops
        .len();
    assert!(wal_ops < 8, "WAL holds {wal_ops} records past the snapshot");
}

#[test]
fn pipelined_ensemble_recovers_every_acknowledged_write() {
    let tmp = TempDir::new("tropic-pipelined-ensemble");
    let opts = quick_opts(16);
    {
        let mut e = Ensemble::with_durability(3, tmp.path(), opts.clone()).unwrap();
        for i in 0..60 {
            e.submit(create_op(&format!("/n{i}"))).0.unwrap();
        }
        let stats = e.stats();
        assert_eq!(stats.fsyncs, 3 * 60, "each replica fsyncs each group");
        assert!(stats.bytes_fsynced > 0);
        assert!(stats.dir_fsyncs > 0, "snapshot renames fsync the directory");
    } // power loss: every acknowledged group is already on disk
    let mut back = Ensemble::recover(3, tmp.path(), opts).unwrap();
    assert_eq!(
        back.read(|s| s.node_count()).unwrap(),
        61,
        "all sixty acknowledged creates survive on all replicas"
    );
    assert!(back.replicas_consistent());
}

#[test]
fn pipelined_service_recovers_every_write_acknowledged_to_concurrent_writers() {
    let tmp = TempDir::new("tropic-pipelined-service");
    let config = CoordConfig {
        session_timeout_ms: 10_000,
        data_dir: Some(tmp.path().to_path_buf()),
        durability: quick_opts(16),
        ..CoordConfig::default()
    };
    let acked: Vec<Path> = {
        let svc = Arc::new(CoordService::start(config.clone()));
        svc.set_simulated_fsync_latency(Duration::from_millis(1));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    let c = svc.connect("writer");
                    let create = |i| {
                        let path = p(&format!("/w{t}-{i}"));
                        c.create(&path, &b"d"[..], CreateMode::Persistent).unwrap()
                    };
                    (0..15).map(create).collect::<Vec<_>>()
                })
            })
            .collect();
        let acked = writers.into_iter().flat_map(|w| w.join().unwrap());
        let acked: Vec<Path> = acked.collect();
        let stats = svc.ensemble_stats();
        assert_eq!(stats.committed, 60);
        assert!(
            stats.groups < 60,
            "{} groups for 60 concurrent writes",
            stats.groups
        );
        assert!(stats.pipeline_stalls > 0, "groups never overlapped");
        assert!(stats.snapshots_written > 0);
        acked
    }; // power loss: every acknowledged group is already on disk
    let mut back = Ensemble::recover(3, tmp.path(), quick_opts(16)).unwrap();
    for path in &acked {
        assert!(back.read(|s| s.exists(path)).unwrap(), "acked {path} lost");
    }
    assert_eq!(back.read(|s| s.node_count()).unwrap(), 61);
    assert!(back.replicas_consistent());
}

#[test]
fn recovery_replays_wal_records_that_failed_at_submit_time() {
    // Failed ops (e.g. NodeExists) are part of the replicated log; replay
    // must reproduce the same failures to stay deterministic.
    let tmp = TempDir::new("tropic-failed-ops");
    let mut e = Ensemble::with_durability(1, tmp.path(), quick_opts(0)).unwrap();
    e.submit(create_op("/a")).0.unwrap();
    assert!(
        e.submit(create_op("/a")).0.is_err(),
        "duplicate create fails"
    );
    e.submit(create_op("/b")).0.unwrap();
    let live = e.read(|s| s.clone()).unwrap();
    drop(e);
    let mut back = Ensemble::recover(1, tmp.path(), quick_opts(0)).unwrap();
    assert_eq!(back.read(|s| s.clone()).unwrap(), live);
}

#[test]
fn a_short_and_a_long_outage_both_heal_by_transfer() {
    let mut e = Ensemble::new(3);
    e.submit(create_op("/base")).0.unwrap();
    // Short outage: one missed write.
    e.crash_replica(2);
    e.submit(create_op("/while-down")).0.unwrap();
    e.restart_replica(2);
    assert_eq!(e.stats().snapshot_syncs, 1);
    assert!(e.replicas_consistent());
    // Long outage: many missed writes, healed the same way.
    e.crash_replica(2);
    for i in 0..12 {
        e.submit(create_op(&format!("/long{i}"))).0.unwrap();
    }
    e.restart_replica(2);
    assert_eq!(e.stats().snapshot_syncs, 2);
    assert_eq!(e.replica_last_zxid(2), e.replica_last_zxid(0));
    assert!(e.replicas_consistent());
}

#[test]
fn torn_wal_tail_recovers_to_last_valid_record() {
    let tmp = TempDir::new("tropic-torn-tail");
    {
        let mut e = Ensemble::with_durability(1, tmp.path(), quick_opts(0)).unwrap();
        for i in 0..10 {
            e.submit(create_op(&format!("/n{i}"))).0.unwrap();
        }
    }
    // Crash mid-write: a half-record of garbage lands at the segment tail.
    let replica_dir = tmp.path().join("replica-0");
    let (_, last_segment) = wal::list_segments(&replica_dir).unwrap().pop().unwrap();
    let mut bytes = std::fs::read(&last_segment).unwrap();
    bytes.extend_from_slice(&[0x5A; 21]);
    std::fs::write(&last_segment, &bytes).unwrap();

    let mut back = Ensemble::recover(1, tmp.path(), quick_opts(0)).unwrap();
    assert_eq!(
        back.read(|s| s.node_count()).unwrap(),
        11,
        "all ten committed creates survive; the torn tail is dropped"
    );
    // The log stays writable after the truncation.
    back.submit(create_op("/after-tear")).0.unwrap();
    drop(back);
    let again = Ensemble::recover(1, tmp.path(), quick_opts(0)).unwrap();
    assert_eq!(
        Ensemble::read(&mut { again }, |s| s.node_count()).unwrap(),
        12
    );
}

#[test]
fn durable_queues_survive_restart() {
    // The platform's inputQ/phyQ are plain znodes, so ensemble recovery
    // must preserve queue items and their FIFO (sequential-name) order.
    let tmp = TempDir::new("tropic-queue-survives");
    let config = CoordConfig {
        data_dir: Some(tmp.path().to_path_buf()),
        durability: DurabilityOptions {
            snapshot_every_ops: 4,
            ..DurabilityOptions::default()
        },
        ..CoordConfig::default()
    };
    {
        let svc = tropic::coord::CoordService::start(config.clone());
        let c = svc.connect("producer");
        let q = tropic::coord::DistributedQueue::new(&c, p("/q")).unwrap();
        for i in 0..6 {
            q.enqueue(format!("item{i}").into_bytes()).unwrap();
        }
    }
    let svc = tropic::coord::CoordService::recover(config);
    let c = svc.connect("consumer");
    let q = tropic::coord::DistributedQueue::new(&c, p("/q")).unwrap();
    let items = q.try_dequeue_batch(10).unwrap();
    let payloads: Vec<String> = items
        .iter()
        .map(|(_, data)| String::from_utf8(data.to_vec()).unwrap())
        .collect();
    assert_eq!(
        payloads,
        (0..6).map(|i| format!("item{i}")).collect::<Vec<_>>()
    );
    // The sequential counter continues past pre-crash names.
    let path = q.enqueue(b"new"[..].to_vec()).unwrap();
    assert_eq!(path.leaf(), Some("item-0000000006"));
}
