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
use std::time::Duration;

use tropic_coord::{CoordClient, CoordService, DistributedQueue, LeaderElection, Op};
use tropic_model::{real_clock, SharedClock};

use crate::api::{AdminClient, ApiError, Priority, Subscription, TxnHandle, TxnRequest};
use crate::config::{PlatformConfig, RpcConfig, ServiceDefinition};
use crate::controller::{Controller, ControllerConfig};
use crate::error::PlatformError;
use crate::msg::{decode_input, encode_input, layout, InputMsg};
use crate::physical::ExecMode;
use crate::stats::Metrics;
use crate::twin::{RepairEpisode, TwinFeed, TwinSubscription};
use crate::txn::{TxnId, TxnRecord};
use crate::worker::run_worker;
use tropic_devices::{report_channel, DeviceRegistry, ReportLedger};

/// How long an idle leader waits on its input-lane watches before running
/// another round anyway (timeouts, twin ticks and checkpoints are
/// time-driven, not message-driven).
const LEADER_IDLE_WAIT: Duration = Duration::from_millis(25);

struct ControllerHandle {
    name: String,
    crash: Arc<AtomicBool>,
    is_leader: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

struct WorkerHandle {
    thread: Option<JoinHandle<()>>,
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
    workers: Vec<WorkerHandle>,
    reporter: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

/// The shared handles every client-producing surface needs. The RPC
/// frontend clones one per connection so each remote session gets the same
/// construction path (own coordination session, shared id counters) as a
/// linked-in client.
#[derive(Clone)]
pub(crate) struct PlatformShared {
    pub(crate) coord: Arc<CoordService>,
    pub(crate) clock: SharedClock,
    pub(crate) metrics: Metrics,
    pub(crate) next_txn_id: Arc<AtomicU64>,
    pub(crate) next_admin_id: Arc<AtomicU64>,
    pub(crate) twin_feed: TwinFeed,
}

impl PlatformShared {
    /// Opens a client handle on a fresh coordination session named `name`.
    pub(crate) fn client(&self, name: &str) -> TropicClient {
        let client = self.coord.connect(name);
        let keepalive = client.keepalive();
        TropicClient {
            coord: Arc::clone(&self.coord),
            client,
            _keepalive: keepalive,
            next_txn_id: Arc::clone(&self.next_txn_id),
            clock: Arc::clone(&self.clock),
        }
    }

    /// Opens the operator plane on a fresh coordination session.
    pub(crate) fn admin(&self, name: &str) -> AdminClient {
        AdminClient::new(
            Arc::clone(&self.coord),
            name,
            Arc::clone(&self.next_admin_id),
            Arc::clone(&self.clock),
        )
    }

    /// Starts a lifecycle-event subscription on a dedicated session.
    pub(crate) fn subscription(&self) -> Subscription {
        Subscription::start(Arc::clone(&self.coord), Arc::clone(&self.clock))
    }
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
    /// the elected controller resumes from the reconstructed checkpoint,
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
        for i in 0..config.controllers.max(1) {
            let name = format!("controller-{i}");
            let crash = Arc::new(AtomicBool::new(false));
            let is_leader = Arc::new(AtomicBool::new(false));
            let thread = {
                let coord = Arc::clone(&coord);
                let service = Arc::clone(&service);
                let clock = Arc::clone(&clock);
                let metrics = metrics.clone();
                let stop = Arc::clone(&stop);
                let crash = Arc::clone(&crash);
                let is_leader = Arc::clone(&is_leader);
                let cfg = ControllerConfig {
                    name: name.clone(),
                    checkpoint_every: config.checkpoint_every,
                    term_timeout_ms: config.term_timeout_ms,
                    kill_timeout_ms: config.kill_timeout_ms,
                    twin: config.twin.clone(),
                    twin_feed: twin_feed.clone(),
                };
                std::thread::Builder::new()
                    .name(name.clone())
                    .spawn(move || {
                        controller_thread(
                            cfg, coord, service, clock, metrics, stop, crash, is_leader,
                        )
                    })
                    .expect("spawn controller thread")
            };
            controllers.push(ControllerHandle {
                name,
                crash,
                is_leader,
                thread: Some(thread),
            });
        }

        let mut workers = Vec::new();
        for i in 0..config.workers.max(1) {
            let name = format!("worker-{i}");
            let coord = Arc::clone(&coord);
            let mode = mode.clone();
            let rules = service.repair_rules.clone();
            let stop = Arc::clone(&stop);
            let thread = std::thread::Builder::new()
                .name(name.clone())
                .spawn(move || run_worker(&name, &coord, mode, rules, &stop))
                .expect("spawn worker thread");
            workers.push(WorkerHandle {
                thread: Some(thread),
            });
        }

        // The report pump is platform-level, not controller-level: device
        // reports keep flowing across controller failover, and the new
        // leader resumes reconciliation from the persisted twin subtree.
        let reporter = match (config.twin.enabled, &mode) {
            (true, ExecMode::Physical(registry)) => {
                let coord = Arc::clone(&coord);
                let registry = Arc::clone(registry);
                let clock = Arc::clone(&clock);
                let stop = Arc::clone(&stop);
                let interval_ms = config.twin.report_interval_ms.max(1);
                Some(
                    std::thread::Builder::new()
                        .name("twin-reporter".into())
                        .spawn(move || reporter_thread(coord, registry, clock, interval_ms, stop))
                        .expect("spawn twin reporter thread"),
                )
            }
            _ => None,
        };

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
            workers,
            reporter,
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

    /// The platform-wide twin event hub (digital-twin phase transitions).
    pub fn twin_feed(&self) -> TwinFeed {
        self.twin_feed.clone()
    }

    /// Subscribes to twin phase-transition events in-process.
    pub fn subscribe_twin(&self) -> TwinSubscription {
        self.twin_feed.subscribe()
    }

    /// Opens a client handle for submitting transactions.
    pub fn client(&self) -> TropicClient {
        self.shared().client("tropic-client")
    }

    /// Opens the operator plane: `repair`, `reload`, and transaction
    /// signals, on a dedicated coordination session.
    pub fn admin(&self) -> AdminClient {
        self.shared().admin("tropic-admin")
    }

    /// Starts the network RPC frontend on `config.rpc` (see
    /// [`crate::rpc`]): out-of-process clients get the same typed
    /// `TxnRequest`/handle surface over a socket. Stop the returned server
    /// **before** calling [`Tropic::shutdown`].
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
        for c in &mut self.controllers {
            if let Some(t) = c.thread.take() {
                let _ = t.join();
            }
        }
        for w in &mut self.workers {
            if let Some(t) = w.thread.take() {
                let _ = t.join();
            }
        }
        if let Some(t) = self.reporter.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Tropic {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// A client handle for submitting transactions and awaiting outcomes.
///
/// The typed surface is [`TropicClient::submit_request`] (builder in,
/// [`TxnHandle`] out), [`TropicClient::submit_batch`] (atomic multi-request
/// enqueue), and [`TropicClient::subscribe`] (streaming lifecycle events).
///
/// The handle pins its coordination session, so it survives arbitrary idle
/// periods, and ends the session when dropped, so it leaves nothing behind.
pub struct TropicClient {
    coord: Arc<CoordService>,
    client: CoordClient,
    _keepalive: tropic_coord::KeepAlive,
    next_txn_id: Arc<AtomicU64>,
    clock: SharedClock,
}

impl TropicClient {
    /// Submits a typed request (paper Figure 2, step 1): the request is
    /// enveloped in the versioned wire format and enqueued on its
    /// priority's input lane (bound unprobed: the platform created the
    /// lanes at boot). Returns a [`TxnHandle`] immediately.
    pub fn submit_request(&self, request: TxnRequest) -> Result<TxnHandle<'_>, ApiError> {
        let id = self.next_txn_id.fetch_add(1, Ordering::SeqCst);
        let lane =
            DistributedQueue::bind(&self.client, layout::input_lane(request.priority_lane()));
        let (msg, deadline_ms) = request.into_msg(id, self.clock.now_ms())?;
        lane.enqueue(encode_input(msg))?;
        Ok(TxnHandle::new(
            &self.client,
            Arc::clone(&self.clock),
            id,
            deadline_ms,
        ))
    }

    /// Submits several requests as **one atomic enqueue**: a single
    /// coordination-store multi lands every submission (each on its own
    /// priority lane) or none of them. Returns one handle per request, in
    /// order.
    pub fn submit_batch(&self, requests: Vec<TxnRequest>) -> Result<Vec<TxnHandle<'_>>, ApiError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let now = self.clock.now_ms();
        let mut ops: Vec<Op> = Vec::with_capacity(requests.len());
        let mut handles: Vec<(TxnId, Option<u64>)> = Vec::with_capacity(requests.len());
        for request in requests {
            let id = self.next_txn_id.fetch_add(1, Ordering::SeqCst);
            let lane =
                DistributedQueue::bind(&self.client, layout::input_lane(request.priority_lane()));
            let (msg, deadline_ms) = request.into_msg(id, now)?;
            ops.push(lane.enqueue_op(encode_input(msg)));
            handles.push((id, deadline_ms));
        }
        self.client.multi(ops)?;
        Ok(handles
            .into_iter()
            .map(|(id, deadline_ms)| {
                TxnHandle::new(&self.client, Arc::clone(&self.clock), id, deadline_ms)
            })
            .collect())
    }

    /// Opens a streaming subscription to transaction lifecycle events, on
    /// its own coordination session.
    pub fn subscribe(&self) -> Subscription {
        Subscription::start(Arc::clone(&self.coord), Arc::clone(&self.clock))
    }

    /// Re-attaches a handle to an already-submitted transaction id — e.g.
    /// one submitted before a crash and resumed by [`Tropic::recover`], or
    /// an id shared across processes.
    pub fn handle(&self, id: TxnId) -> TxnHandle<'_> {
        TxnHandle::new(&self.client, Arc::clone(&self.clock), id, None)
    }

    /// Reads the full durable record of a transaction, if still retained.
    pub fn txn_record(&self, id: TxnId) -> Result<Option<TxnRecord>, PlatformError> {
        Ok(self.client.get_json(&layout::txn(id))?)
    }

    /// Keeps the client session alive during long waits driven externally.
    pub fn ping(&self) -> Result<(), PlatformError> {
        self.client.ping()?;
        Ok(())
    }

    /// The platform clock (for computing absolute deadlines).
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }
}

impl Drop for TropicClient {
    /// A handle is never a crash-drill subject: its session ends with it
    /// (for free, since it owns no ephemeral) instead of lingering until
    /// the timeout.
    fn drop(&mut self) {
        self.coord.expire_session(self.client.session_id());
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
            } else if let Ok(Some(rec)) = client.get_json::<TxnRecord>(&layout::txn(id)) {
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

/// The device-report pump (digital twin ingestion): periodically asks the
/// registry to export every device's state, persists the reports that
/// changed under the `twin/` subtree, and bumps the twin epoch counter.
/// Platform-level so reports keep flowing across controller failover; the
/// epoch znode has a single writer, so the blind read-modify-write is safe.
fn reporter_thread(
    coord: Arc<CoordService>,
    registry: Arc<DeviceRegistry>,
    clock: SharedClock,
    interval_ms: u64,
    stop: Arc<AtomicBool>,
) {
    let ledger = ReportLedger::new();
    let (tx, rx) = report_channel();
    while !stop.load(Ordering::SeqCst) {
        let client = coord.connect("twin-reporter");
        let keepalive = client.keepalive();
        if client.create_all(&layout::twin_reported()).is_err() {
            drop(keepalive);
            std::thread::sleep(Duration::from_millis(interval_ms));
            continue;
        }
        let mut epoch: u64 = client
            .get_json(&layout::twin_epoch())
            .ok()
            .flatten()
            .unwrap_or(0);
        let mut session_ok = true;
        while session_ok && !stop.load(Ordering::SeqCst) {
            let now = clock.now_ms();
            if registry.publish_reports(&ledger, &tx, now) > 0 {
                let mut wrote = false;
                for report in rx.drain() {
                    match client.put_json(&layout::twin_reported_item(&report.mount), &report) {
                        Ok(()) => wrote = true,
                        Err(_) => {
                            // Un-advance the ledger so the report republishes
                            // once the session is healthy again.
                            ledger.forget(&report.mount);
                            session_ok = false;
                        }
                    }
                }
                if wrote {
                    epoch += 1;
                    if client.put_json(&layout::twin_epoch(), &epoch).is_err() {
                        session_ok = false;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
        drop(keepalive);
        client.close();
    }
}

/// The controller thread body: connect → elect → recover → lead, forever,
/// honouring crash/restart flags (paper §2.3's follower-takeover protocol).
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
) {
    'outer: while !stop.load(Ordering::SeqCst) {
        // Simulated crash: do absolutely nothing (no heartbeats!) until
        // restarted. The coordination session expires meanwhile.
        if crash.load(Ordering::SeqCst) {
            is_leader.store(false, Ordering::SeqCst);
            while crash.load(Ordering::SeqCst) && !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
            }
            continue;
        }

        // Fresh session + election candidacy.
        let client = coord.connect(&cfg.name);
        let election = match LeaderElection::join(&client, layout::election(), &cfg.name) {
            Ok(e) => e,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };

        // Follower: wait for leadership in short slices, heartbeating.
        loop {
            if stop.load(Ordering::SeqCst) {
                break 'outer;
            }
            if crash.load(Ordering::SeqCst) {
                continue 'outer;
            }
            match election.wait_leadership(Duration::from_millis(50)) {
                Ok(true) => break,
                Ok(false) => {
                    if client.ping().is_err() {
                        continue 'outer;
                    }
                }
                Err(_) => continue 'outer,
            }
        }

        // Leader: recover, then serve. Recovery can block on long
        // deserialization work, so pin the session; the guard drops (and
        // the timeout restarts) on every exit path below, including
        // simulated crashes.
        let keepalive = client.keepalive();
        metrics.record_event(clock.now_ms(), &cfg.name, "leader-elected");
        let mut controller = Controller::new(
            cfg.clone(),
            &client,
            Arc::clone(&service),
            Arc::clone(&clock),
            metrics.clone(),
        );
        if controller.recover().is_err() {
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
                drop(keepalive);
                continue 'outer;
            }
            match controller.step() {
                Ok(true) => {}
                Ok(false) => controller.wait_for_input(LEADER_IDLE_WAIT),
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
    use crate::twin::{RELOAD_PROC, TWIN_REPAIR_PROC, TWIN_TXN_BASE};

    /// A repair or reload still running at a restart writes its result
    /// only after recovery, so its admin id must not be handed out again:
    /// the second result's create would fail the leader's round multi,
    /// every round.
    #[test]
    fn recovered_ids_skip_a_running_repairs_admin_id() {
        let coord = CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("boot");
        client.create_all(&layout::admins()).unwrap();
        client
            .put_json(&layout::admin(3), &"an older result")
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
            client.put_json(&layout::txn(rec.id), &rec).unwrap();
        };
        running(1, TWIN_REPAIR_PROC, 7);
        assert_eq!(next_free_ids(&client), (1, 8));
        running(2, RELOAD_PROC, 9);
        assert_eq!(next_free_ids(&client), (1, 10));
    }
}
