//! Platform assembly: replicated controllers, workers, the coordination
//! service, and the client API (paper Figure 1).
//!
//! [`Tropic::start`] brings up the whole stack in-process: a coordination
//! ensemble, `controllers` controller threads contending for leadership,
//! and `workers` physical workers. Clients submit stored-procedure calls
//! and wait for transactional outcomes; operators can crash and restart
//! controllers, signal transactions, and run reconciliation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use tropic_coord::{
    CoordClient, CoordError, CoordService, CreateMode, DistributedQueue, LeaderElection,
};
use tropic_model::{real_clock, Path, SharedClock, Wake};

use crate::api::{ApiError, Priority};
use crate::client::TropicClient;
use crate::codec::{encode_twin_report, read_record};
use crate::config::{PlatformConfig, RpcConfig, ServiceDefinition};
use crate::controller::{Controller, ControllerConfig};
use crate::error::PlatformError;
use crate::msg::{decode_input, layout, InputMsg};
use crate::physical::ExecMode;
use crate::stats::Metrics;
use crate::twin::{RepairEpisode, TwinFeed};
use crate::worker::run_worker;
use tropic_devices::{report_channel, DeviceRegistry, ReportLedger};

/// The pause before an error path with no watch to wait on retries: a
/// failed claim, an unarmable watch, a failed election join. A stop cuts
/// it short.
pub(crate) const RETRY_MS: u64 = 50;

struct ControllerHandle {
    name: String,
    crash: Arc<AtomicBool>,
    is_leader: Arc<AtomicBool>,
    /// The wake every session of this controller waits on; a crash, a
    /// restart and the shutdown notify it.
    wake: Arc<Wake>,
}

/// A running TROPIC platform.
pub struct Tropic {
    coord: Arc<CoordService>,
    clock: SharedClock,
    metrics: Metrics,
    mode: ExecMode,
    next_txn_id: Arc<AtomicU64>,
    next_admin_id: Arc<AtomicU64>,
    rpc_cfg: RpcConfig,
    twin_feed: TwinFeed,
    controllers: Vec<ControllerHandle>,
    /// Every component thread, with the wake its waits end on.
    threads: Vec<(JoinHandle<()>, Arc<Wake>)>,
    stop: Arc<AtomicBool>,
}

/// The shared handles an in-process client transport needs: the RPC
/// server's dispatch threads each open one on the same path as a linked-in
/// client (own coordination session, shared id counters).
#[derive(Clone)]
pub(crate) struct PlatformShared {
    pub(crate) coord: Arc<CoordService>,
    pub(crate) clock: SharedClock,
    pub(crate) metrics: Metrics,
    pub(crate) next_txn_id: Arc<AtomicU64>,
    pub(crate) next_admin_id: Arc<AtomicU64>,
    pub(crate) twin_feed: TwinFeed,
}

impl Tropic {
    /// Starts the platform on the real clock. With
    /// `config.coord.data_dir` set, the coordination store is durable and
    /// the directory is **formatted** for a fresh deployment — use
    /// [`Tropic::recover`] to resume an existing one.
    pub fn start(config: PlatformConfig, service: ServiceDefinition, mode: ExecMode) -> Self {
        Self::start_with_clock(config, service, mode, real_clock())
    }

    /// Recovers a durable platform from `config.coord.data_dir` after a
    /// full shutdown or crash ("power loss"): the coordination store is
    /// rebuilt from each replica's snapshot plus write-ahead-log suffix,
    /// the elected controller resumes from the committed-subtree granules,
    /// transaction records, `inputQ`, and `phyQ`, and workers pick the
    /// surviving physical tasks back up — no acknowledged transaction is
    /// lost and in-flight ones run to completion.
    pub fn recover(config: PlatformConfig, service: ServiceDefinition, mode: ExecMode) -> Self {
        Self::recover_with_clock(config, service, mode, real_clock())
    }

    /// Starts the platform reading time from `clock`.
    pub fn start_with_clock(
        config: PlatformConfig,
        service: ServiceDefinition,
        mode: ExecMode,
        clock: SharedClock,
    ) -> Self {
        Self::boot(config, service, mode, clock, false)
    }

    /// [`Tropic::recover`] with an explicit clock.
    pub fn recover_with_clock(
        config: PlatformConfig,
        service: ServiceDefinition,
        mode: ExecMode,
        clock: SharedClock,
    ) -> Self {
        Self::boot(config, service, mode, clock, true)
    }

    fn boot(
        config: PlatformConfig,
        service: ServiceDefinition,
        mode: ExecMode,
        clock: SharedClock,
        recover: bool,
    ) -> Self {
        service
            .schemas
            .validate(&service.initial_tree)
            .expect("initial tree must satisfy the service schemas");
        let coord = Arc::new(if recover {
            CoordService::recover_with_clock(config.coord.clone(), Arc::clone(&clock))
        } else {
            CoordService::start_with_clock(config.coord.clone(), Arc::clone(&clock))
        });
        // Clients enqueue on bound lanes without probing for them, so the
        // lanes exist before the first client handle can. A failure here
        // resurfaces in the first leader's `recover`, which re-checks.
        let setup = coord.connect("tropic-boot");
        for p in Priority::ALL {
            let _ = setup.create_all(&layout::input_lane(p));
        }
        // New submissions must never collide with transaction or admin ids
        // already persisted before the restart (a duplicate id would
        // silently alias the old record's outcome).
        let (first_txn_id, first_admin_id) = if recover {
            next_free_ids(&setup)
        } else {
            (1, 1)
        };
        setup.close();
        let service = Arc::new(service);
        let metrics = Metrics::new();
        let stop = Arc::new(AtomicBool::new(false));
        let twin_feed = TwinFeed::new();

        let mut controllers = Vec::new();
        let mut threads = Vec::new();
        for i in 0..config.controllers.max(1) {
            let name = format!("controller-{i}");
            let crash = Arc::new(AtomicBool::new(false));
            let is_leader = Arc::new(AtomicBool::new(false));
            let wake = Arc::new(Wake::default());
            let thread = {
                let coord = Arc::clone(&coord);
                let service = Arc::clone(&service);
                let clock = Arc::clone(&clock);
                let metrics = metrics.clone();
                let stop = Arc::clone(&stop);
                let crash = Arc::clone(&crash);
                let is_leader = Arc::clone(&is_leader);
                let wake = Arc::clone(&wake);
                let cfg = ControllerConfig {
                    name: name.clone(),
                    term_timeout_ms: config.term_timeout_ms,
                    kill_timeout_ms: config.kill_timeout_ms,
                    twin: config.twin.clone(),
                    twin_feed: twin_feed.clone(),
                };
                std::thread::Builder::new()
                    .name(name.clone())
                    .spawn(move || {
                        controller_thread(
                            cfg, coord, service, clock, metrics, stop, crash, is_leader, wake,
                        )
                    })
                    .expect("spawn controller thread")
            };
            threads.push((thread, Arc::clone(&wake)));
            controllers.push(ControllerHandle {
                name,
                crash,
                is_leader,
                wake,
            });
        }

        for i in 0..config.workers.max(1) {
            let name = format!("worker-{i}");
            let coord = Arc::clone(&coord);
            let mode = mode.clone();
            let rules = service.repair_rules.clone();
            let stop = Arc::clone(&stop);
            let wake = Arc::new(Wake::default());
            let waker = Arc::clone(&wake);
            let thread = std::thread::Builder::new()
                .name(name.clone())
                .spawn(move || run_worker(&name, &coord, mode, rules, &stop, waker))
                .expect("spawn worker thread");
            threads.push((thread, wake));
        }

        // The report pump is platform-level, not controller-level: device
        // reports keep flowing across controller failover, and the new
        // leader resumes reconciliation from the persisted twin subtree.
        if let (true, ExecMode::Physical(registry)) = (config.twin.enabled, &mode) {
            let coord = Arc::clone(&coord);
            let registry = Arc::clone(registry);
            let stop = Arc::clone(&stop);
            let wake = Arc::new(Wake::default());
            let waker = Arc::clone(&wake);
            let interval_ms = config.twin.report_interval_ms.max(1);
            let thread = std::thread::Builder::new()
                .name("twin-reporter".into())
                .spawn(move || reporter_thread(coord, registry, interval_ms, stop, waker))
                .expect("spawn twin reporter thread");
            threads.push((thread, wake));
        }

        Tropic {
            coord,
            clock,
            metrics,
            mode,
            next_txn_id: Arc::new(AtomicU64::new(first_txn_id)),
            next_admin_id: Arc::new(AtomicU64::new(first_admin_id)),
            rpc_cfg: config.rpc,
            twin_feed,
            controllers,
            threads,
            stop,
        }
    }

    pub(crate) fn shared(&self) -> PlatformShared {
        PlatformShared {
            coord: Arc::clone(&self.coord),
            clock: Arc::clone(&self.clock),
            metrics: self.metrics.clone(),
            next_txn_id: Arc::clone(&self.next_txn_id),
            next_admin_id: Arc::clone(&self.next_admin_id),
            twin_feed: self.twin_feed.clone(),
        }
    }

    /// Opens an in-process client on a coordination session of its own.
    pub fn client(&self) -> TropicClient {
        TropicClient::local(self.shared(), "tropic-client")
    }

    /// Opens an in-process client for the operator plane (`repair`,
    /// `reload`, transaction signals): the same [`TropicClient`], on a
    /// session named for the job.
    pub fn admin(&self) -> TropicClient {
        TropicClient::local(self.shared(), "tropic-admin")
    }

    /// Starts the network RPC frontend on `config.rpc` (see
    /// [`crate::rpc`]): [`TropicClient::connect`] then reaches the platform
    /// over a socket. Stop the returned server **before** calling
    /// [`Tropic::shutdown`].
    pub fn serve_rpc(&self) -> Result<crate::rpc::RpcServer, ApiError> {
        crate::rpc::RpcServer::start(self.shared(), self.rpc_cfg.clone())
    }

    /// The shared metrics collector.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Aggregate fault-injection counters across every registered device
    /// (zero in [`ExecMode::LogicalOnly`]).
    pub fn fault_stats(&self) -> tropic_devices::FaultStats {
        match &self.mode {
            ExecMode::Physical(registry) => registry.fault_stats(),
            ExecMode::LogicalOnly => Default::default(),
        }
    }

    /// Platform-level counter snapshot: the metrics counters plus the
    /// device registry's fault-injection totals. Operators and the chaos
    /// harness read this instead of [`Metrics::counters`] so aborts can be
    /// attributed to injected faults vs real bugs.
    pub fn counters(&self) -> crate::stats::Counters {
        let mut counters = self.metrics.counters();
        let faults = self.fault_stats();
        counters.faults_passed = faults.passed;
        counters.faults_injected = faults.injected;
        counters
    }

    /// The underlying coordination service (fault injection in tests).
    pub fn coord(&self) -> &CoordService {
        &self.coord
    }

    /// The platform clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Index of the controller currently holding leadership, if any.
    pub fn leader_index(&self) -> Option<usize> {
        self.controllers
            .iter()
            .position(|c| c.is_leader.load(Ordering::SeqCst))
    }

    /// Name of controller `idx`.
    pub fn controller_name(&self, idx: usize) -> Option<&str> {
        self.controllers.get(idx).map(|c| c.name.as_str())
    }

    /// Simulates a crash of controller `idx`: its thread stops doing any
    /// work (including session heartbeats), so its ephemeral election node
    /// expires after the session timeout and a follower takes over — the
    /// paper's §6.4 failure model. Returns `false` for unknown indices.
    pub fn crash_controller(&self, idx: usize) -> bool {
        let Some(c) = self.controllers.get(idx) else {
            return false;
        };
        c.crash.store(true, Ordering::SeqCst);
        c.wake.notify();
        self.metrics
            .record_event(self.clock.now_ms(), &c.name, "crashed");
        true
    }

    /// Crashes the current leader, returning its index.
    pub fn crash_leader(&self) -> Option<usize> {
        let idx = self.leader_index()?;
        self.crash_controller(idx);
        Some(idx)
    }

    /// Restarts a crashed controller: it reconnects with a fresh session and
    /// rejoins the election as a follower.
    pub fn restart_controller(&self, idx: usize) -> bool {
        let Some(c) = self.controllers.get(idx) else {
            return false;
        };
        c.crash.store(false, Ordering::SeqCst);
        c.wake.notify();
        self.metrics
            .record_event(self.clock.now_ms(), &c.name, "restarted");
        true
    }

    /// Stops every component and joins their threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for (_, wake) in &self.threads {
            wake.notify();
        }
        for (thread, _) in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for Tropic {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// First client-assignable transaction and admin ids after a recovery: one
/// past every id visible in the persisted records, still-queued
/// submissions, surviving admin-result znodes and operator repairs and
/// reloads still running (internal-namespace txn ids are controller-owned
/// and excluded; reusing an id would alias a pre-crash outcome, or collide
/// with the result a running repair or reload has yet to write).
fn next_free_ids(client: &CoordClient) -> (u64, u64) {
    let mut max_txn_id = 0u64;
    let mut max_admin_id = 0u64;
    if let Ok(children) = client.get_children(&layout::txns()) {
        for id in children.iter().filter_map(|name| name.parse::<u64>().ok()) {
            if id < crate::controller::ADMIN_TXN_BASE {
                max_txn_id = max_txn_id.max(id);
            } else if let Ok(Some(rec)) = read_record(client, id) {
                if let Some((_, episode)) = RepairEpisode::of(&rec) {
                    max_admin_id = max_admin_id.max(episode.admin_id);
                }
            }
        }
    }
    if let Ok(children) = client.get_children(&layout::admins()) {
        for name in children {
            if let Ok(id) = name.parse::<u64>() {
                max_admin_id = max_admin_id.max(id);
            }
        }
    }
    for priority in Priority::ALL {
        let q = DistributedQueue::bind(client, layout::input_lane(priority));
        if let Ok(names) = q.item_names() {
            for name in names {
                if let Ok(Some(data)) = q.get(&name) {
                    match decode_input(&data) {
                        Ok(InputMsg::Submit { id, .. })
                            if id < crate::controller::ADMIN_TXN_BASE =>
                        {
                            max_txn_id = max_txn_id.max(id);
                        }
                        // Still-queued admin ops will write their result
                        // znode after recovery; their ids are taken too.
                        Ok(InputMsg::Repair { admin_id, .. })
                        | Ok(InputMsg::Reload { admin_id, .. }) => {
                            max_admin_id = max_admin_id.max(admin_id);
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    (max_txn_id + 1, max_admin_id + 1)
}

/// The device-report pump (digital twin ingestion): every `interval_ms`
/// of the platform clock it asks the registry to export every device's
/// state, persists the reports that changed under the `twin/` subtree, and
/// bumps the twin epoch (a write to its znode, whose version is the
/// counter). Platform-level so reports keep flowing across controller
/// failover; the `twin/` znodes have a single writer, so the
/// set-else-create is safe.
fn reporter_thread(
    coord: Arc<CoordService>,
    registry: Arc<DeviceRegistry>,
    interval_ms: u64,
    stop: Arc<AtomicBool>,
    wake: Arc<Wake>,
) {
    let ledger = ReportLedger::new();
    let (tx, rx) = report_channel();
    let stopped = || stop.load(Ordering::SeqCst);
    while !stopped() {
        let client = coord.connect_with_wake("twin-reporter", Arc::clone(&wake));
        let keepalive = client.keepalive();
        let epoch = layout::twin_epoch();
        let bound = client.create_all(&layout::twin_reported());
        if bound.and_then(|()| client.create_all(&epoch)).is_err() {
            drop(keepalive);
            client.pause(interval_ms, stopped);
            continue;
        }
        let put = |path: &Path, data: Vec<u8>| match client.set_data(path, data.clone(), None) {
            Err(CoordError::NoNode(_)) => client.create(path, data, CreateMode::Persistent).is_ok(),
            set => set.is_ok(),
        };
        let mut session_ok = true;
        while session_ok && !stopped() {
            if registry.publish_reports(&ledger, &tx, client.now_ms()) > 0 {
                let mut wrote = false;
                for report in rx.drain() {
                    let znode = layout::twin_reported_item(&report.mount);
                    if put(&znode, encode_twin_report(&report)) {
                        wrote = true;
                    } else {
                        // Un-advance the ledger so the report republishes
                        // once the session is healthy again.
                        ledger.forget(&report.mount);
                        session_ok = false;
                    }
                }
                if wrote && client.set_data(&epoch, Vec::new(), None).is_err() {
                    session_ok = false;
                }
            }
            client.pause(interval_ms, stopped);
        }
        drop(keepalive);
        client.close();
    }
}

/// The controller thread body: connect → elect → recover → lead, forever,
/// honouring crash/restart flags (paper §2.3's follower-takeover protocol).
/// Every session it opens waits on `wake`, which a crash, a restart and
/// the shutdown notify.
#[allow(clippy::too_many_arguments)]
fn controller_thread(
    cfg: ControllerConfig,
    coord: Arc<CoordService>,
    service: Arc<ServiceDefinition>,
    clock: SharedClock,
    metrics: Metrics,
    stop: Arc<AtomicBool>,
    crash: Arc<AtomicBool>,
    is_leader: Arc<AtomicBool>,
    wake: Arc<Wake>,
) {
    let halted = || stop.load(Ordering::SeqCst) || crash.load(Ordering::SeqCst);
    'outer: while !stop.load(Ordering::SeqCst) {
        // Simulated crash: do absolutely nothing (no heartbeats!) until
        // restarted. The coordination session expires meanwhile.
        if crash.load(Ordering::SeqCst) {
            is_leader.store(false, Ordering::SeqCst);
            let mut seen = wake.seen();
            while crash.load(Ordering::SeqCst) && !stop.load(Ordering::SeqCst) {
                clock.wait(&wake, seen, None);
                seen = wake.seen();
            }
            continue;
        }

        // Fresh session + election candidacy. The session stays pinned
        // while this incarnation lives, follower and leader alike; a crash
        // drops the pin, and the session expires one timeout later.
        let client = coord.connect_with_wake(&cfg.name, Arc::clone(&wake));
        let _keepalive = client.keepalive();
        let election = match LeaderElection::join(&client, layout::election(), &cfg.name) {
            Ok(e) => e,
            Err(_) => {
                client.pause(RETRY_MS, halted);
                continue;
            }
        };

        // Follower: wait for leadership, or a crash or a stop.
        if !matches!(election.wait_leadership(None, halted), Ok(true)) {
            continue;
        }

        // Leader: recover, then serve.
        metrics.record_event(clock.now_ms(), &cfg.name, "leader-elected");
        let mut controller = Controller::new(
            cfg.clone(),
            &client,
            Arc::clone(&service),
            Arc::clone(&clock),
            metrics.clone(),
        );
        if let Err(e) = controller.recover() {
            let kind = format!("recovery-failed: {e:?}");
            metrics.record_event(clock.now_ms(), &cfg.name, &kind);
            // End this candidacy now, or the retry's would queue behind it
            // for a whole session timeout. A refused store stays refused,
            // so it is read again only after a restart.
            drop((controller, election));
            client.close();
            let retry = match e {
                PlatformError::IncompatibleStore(_) => None,
                _ => Some(clock.now_ms() + RETRY_MS),
            };
            clock.wait(&wake, wake.seen(), retry);
            continue 'outer;
        }
        is_leader.store(true, Ordering::SeqCst);
        metrics.record_event(clock.now_ms(), &cfg.name, "recovery-complete");
        loop {
            if stop.load(Ordering::SeqCst) {
                break 'outer;
            }
            if crash.load(Ordering::SeqCst) {
                is_leader.store(false, Ordering::SeqCst);
                continue 'outer;
            }
            match controller.step() {
                Ok(true) => {}
                Ok(false) => controller.wait_for_input(halted),
                Err(_) => {
                    // Session expired or quorum lost: resign and retry from
                    // scratch; persistent state carries everything needed.
                    is_leader.store(false, Ordering::SeqCst);
                    metrics.record_event(clock.now_ms(), &cfg.name, "leadership-lost");
                    continue 'outer;
                }
            }
        }
    }
    is_leader.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::AdminResult;
    use crate::twin::{RELOAD_PROC, TWIN_REPAIR_PROC, TWIN_TXN_BASE};
    use crate::txn::TxnRecord;

    /// A repair or reload still running at a restart writes its result
    /// only after recovery, so its admin id must not be handed out again:
    /// the second result's create would fail the leader's round multi,
    /// every round.
    #[test]
    fn recovered_ids_skip_a_running_repairs_admin_id() {
        let coord = CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("boot");
        client.create_all(&layout::admins()).unwrap();
        let older = AdminResult {
            ok: true,
            message: "an older result".into(),
            actions: 0,
            drifted: 0,
        };
        let older = crate::codec::encode_admin_result(&older);
        client
            .create(&layout::admin(3), older, CreateMode::Persistent)
            .unwrap();
        client.create_all(&layout::txns()).unwrap();
        let running = |seq, proc_name, admin_id| {
            let scope = vec![tropic_model::Value::from("/vmRoot")];
            let mut rec = TxnRecord::new(TWIN_TXN_BASE + seq, proc_name, scope, 0);
            let episode = RepairEpisode {
                admin_id,
                ..RepairEpisode::default()
            };
            rec.labels = episode.labels();
            let record = crate::codec::encode_record(&rec);
            client
                .create(&layout::txn(rec.id), record, CreateMode::Persistent)
                .unwrap();
        };
        running(1, TWIN_REPAIR_PROC, 7);
        assert_eq!(next_free_ids(&client), (1, 8));
        running(2, RELOAD_PROC, 9);
        assert_eq!(next_free_ids(&client), (1, 10));
    }
}
