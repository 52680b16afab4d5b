//! The live platform under load: set-up, the three load loops, the client
//! spans recorded around every call into `core::api` / `core::rpc`, counter
//! snapshots, and the output checks.

use std::path::{Path as FsPath, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

use tropic_coord::{EnsembleStats, ServiceStats};
use tropic_core::{
    ApiError, Counters, ExecMode, PlatformConfig, RemoteClient, RpcServer, Tropic, TropicClient,
    TxnId, TxnOutcome, TxnState,
};
use tropic_devices::{FaultStats, LatencyModel};
use tropic_model::Path;
use tropic_tcloud::{model::VM, TCloudDevices};

use crate::workload::{
    OpenGen, Req, Shape, SlotGen, WaveGen, Workload, CLIENTS, FAULT_ACTION, FAULT_EVERY_NTH,
    WARMUP_TXNS, WINDOW,
};

/// Bound on any single wait for an outcome; far above any healthy latency
/// and well inside the 180 s a pass may take.
const WAIT_TIMEOUT: Duration = Duration::from_secs(30);
const LEADER_TIMEOUT: Duration = Duration::from_secs(30);

/// A directory under `benchmark/out/` removed when dropped: the durable
/// workloads' data dirs live here so a pass writes only inside its checkout.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(out_dir: &FsPath, prefix: &str) -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "{prefix}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let path = out_dir.join(name);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &FsPath {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &FsPath) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The in-process and the socket client behind one submit/wait surface.
pub enum Client {
    Local(TropicClient),
    Remote(RemoteClient),
}

impl Client {
    fn submit(&self, req: &Req) -> Result<TxnId, ApiError> {
        match self {
            Client::Local(c) => c.submit_request(req.to_request()).map(|h| h.id()),
            Client::Remote(c) => c.submit_request(req.to_request()).map(|h| h.id()),
        }
    }

    fn wait(&self, id: TxnId) -> Result<TxnOutcome, ApiError> {
        match self {
            Client::Local(c) => c.handle(id).wait_timeout(WAIT_TIMEOUT),
            Client::Remote(c) => c.handle(id).wait_timeout(WAIT_TIMEOUT),
        }
    }
}

/// One client-side span. `parent` indexes the same recorder's span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub txn: TxnId,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// What the load generator saw, summed over its threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub committed: u64,
    pub aborted: u64,
    /// Terminal state `Failed`.
    pub failed_state: u64,
    /// Submit errors, wait errors and time-outs.
    pub errors: u64,
    /// Terminal states the workload's model does not allow.
    pub unexpected: u64,
}

impl Tally {
    pub fn terminal(&self) -> u64 {
        self.committed + self.aborted + self.failed_state
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.unexpected
    }

    fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.committed += o.committed;
        self.aborted += o.aborted;
        self.failed_state += o.failed_state;
        self.errors += o.errors;
        self.unexpected += o.unexpected;
    }
}

/// A submitted transaction on its way to `Recorder::wait`.
pub struct InFlight {
    id: TxnId,
    /// Where latency is counted from: the `submit_request` call on a
    /// closed loop, the due time on the open loop.
    start: Instant,
    /// The submit call's own interval (traced passes only).
    submit: Option<(Instant, Instant)>,
}

/// One transaction that reached a terminal state.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub id: TxnId,
    pub committed: bool,
    /// Where its latency counts from (see [`InFlight`]).
    pub start: Instant,
    /// When the client saw the terminal state.
    pub done: Instant,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        self.done
            .saturating_duration_since(self.start)
            .as_secs_f64()
            * 1e3
    }
}

/// Per-thread measurements: samples always, spans on a traced pass.
pub struct Recorder {
    origin: Instant,
    trace: bool,
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
    pub tally: Tally,
    complaints: u32,
}

impl Recorder {
    fn new(origin: Instant, trace: bool) -> Self {
        Recorder {
            origin,
            trace,
            samples: Vec::new(),
            spans: Vec::new(),
            tally: Tally::default(),
            complaints: 0,
        }
    }

    fn complain(&mut self, what: std::fmt::Arguments<'_>) {
        self.complaints += 1;
        if self.complaints <= 5 {
            eprintln!("benchmark: {what}");
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Submits `req`; latency counts from `due` when given, else from now.
    fn submit(&mut self, client: &Client, req: &Req, due: Option<Instant>) -> Option<InFlight> {
        self.tally.attempted += 1;
        let called = Instant::now();
        match client.submit(req) {
            Ok(id) => Some(InFlight {
                id,
                start: due.unwrap_or(called),
                submit: self.trace.then(|| (called, Instant::now())),
            }),
            Err(e) => {
                self.tally.errors += 1;
                self.complain(format_args!("submit {} failed: {e}", req.proc_name));
                None
            }
        }
    }

    /// Waits for `f`'s terminal state and records its latency and spans.
    fn wait(&mut self, client: &Client, f: InFlight) -> Option<TxnState> {
        let called = self.trace.then(Instant::now);
        let outcome = client.wait(f.id);
        let done = Instant::now();
        let state = match outcome {
            Ok(o) if o.state.is_final() => o.state,
            Ok(o) => {
                self.tally.errors += 1;
                self.complain(format_args!(
                    "txn {} returned non-terminal {:?}",
                    f.id, o.state
                ));
                return None;
            }
            Err(e) => {
                self.tally.errors += 1;
                self.complain(format_args!("wait for txn {} failed: {e}", f.id));
                return None;
            }
        };
        match state {
            TxnState::Committed => self.tally.committed += 1,
            TxnState::Aborted => self.tally.aborted += 1,
            _ => self.tally.failed_state += 1,
        }
        self.samples.push(Sample {
            id: f.id,
            committed: state == TxnState::Committed,
            start: f.start,
            done,
        });
        if let (Some(called), Some((s0, s1))) = (called, f.submit) {
            let root = self.spans.len();
            let span = |name, a: Instant, b: Instant, parent| Span {
                name,
                txn: f.id,
                start_ns: self.ns(a),
                end_ns: self.ns(b),
                parent,
            };
            let spans = [
                span("txn", f.start, done, None),
                span("submit", s0, s1, Some(root)),
                span("wait", called, done, Some(root)),
            ];
            self.spans.extend(spans);
        }
        Some(state)
    }

    /// [`Recorder::wait`] on a workload whose every transaction must commit.
    fn wait_committed(&mut self, client: &Client, f: InFlight) {
        let id = f.id;
        match self.wait(client, f) {
            Some(TxnState::Committed) | None => {}
            Some(other) => {
                self.tally.unexpected += 1;
                self.complain(format_args!("txn {id} ended {other:?}, expected Committed"));
            }
        }
    }

    /// Submits every request, then waits every outcome; each must commit.
    fn wave(&mut self, client: &Client, reqs: &[Req]) {
        let flights: Vec<InFlight> = reqs
            .iter()
            .filter_map(|r| self.submit(client, r, None))
            .collect();
        for f in flights {
            self.wait_committed(client, f);
        }
    }
}

/// One closed-loop client's request source.
pub enum Driver {
    Waves(WaveGen),
    Slots(SlotGen),
}

impl Driver {
    /// One unit of closed-loop work: `2 * WINDOW` transactions on the wave
    /// workloads, `WINDOW` on the contended one.
    fn round(&mut self, client: &Client, rec: &mut Recorder) {
        match self {
            Driver::Waves(gen) => {
                let (spawns, destroys) = gen.next_pair();
                rec.wave(client, &spawns);
                rec.wave(client, &destroys);
            }
            Driver::Slots(gen) => {
                let flights: Vec<(usize, Option<InFlight>)> = (0..gen.slot_count())
                    .map(|slot| (slot, rec.submit(client, &gen.request(slot), None)))
                    .collect();
                for (slot, f) in flights {
                    let Some(f) = f else { continue };
                    let id = f.id;
                    match rec.wait(client, f) {
                        Some(TxnState::Committed) => gen.advance(slot),
                        // An injected fault: the slot retries the step.
                        Some(TxnState::Aborted) | None => {}
                        Some(other) => {
                            rec.tally.unexpected += 1;
                            rec.complain(format_args!("txn {id} ended {other:?}"));
                        }
                    }
                }
            }
        }
    }
}

pub enum Load {
    Closed(Vec<Driver>),
    Open(OpenGen),
}

/// A platform that is up, warmed, and ready to be measured.
pub struct Live {
    pub platform: Tropic,
    server: Option<RpcServer>,
    pub devices: Option<TCloudDevices>,
    pub data_dir: Option<ScratchDir>,
    pub clients: Vec<Client>,
    pub load: Load,
}

/// Everything a user pays before the first measured transaction: topology
/// build, `Tropic::start`, leader election and bootstrap checkpoint,
/// `serve_rpc` and connects, and `WARMUP_TXNS` uncounted transactions.
pub fn setup(wl: &'static Workload, seed: u64, out_dir: &FsPath) -> Result<Live, String> {
    let spec = wl.topology();
    let mut config = PlatformConfig {
        workers: wl.workers,
        ..PlatformConfig::default()
    };
    let data_dir = if wl.durable {
        let dir = ScratchDir::new(out_dir, "data")?;
        config = config.with_data_dir(dir.path());
        Some(dir)
    } else {
        None
    };
    let (devices, mode) = if wl.physical {
        let devices = spec.build_devices(&LatencyModel::zero());
        for storage in &devices.storages {
            use tropic_devices::Device as _;
            storage
                .fault_plan()
                .fail_every_nth(FAULT_ACTION, FAULT_EVERY_NTH);
        }
        let mode = ExecMode::Physical(devices.registry.clone());
        (Some(devices), mode)
    } else {
        (None, ExecMode::LogicalOnly)
    };
    let platform = Tropic::start(config, spec.service(), mode);
    let deadline = Instant::now() + LEADER_TIMEOUT;
    while platform.leader_index().is_none() {
        if Instant::now() > deadline {
            return Err("no controller took leadership".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let server = if wl.socket {
        Some(
            platform
                .serve_rpc()
                .map_err(|e| format!("serve_rpc: {e}"))?,
        )
    } else {
        None
    };
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(match &server {
            Some(s) => Client::Remote(
                RemoteClient::connect(s.addr()).map_err(|e| format!("connect: {e}"))?,
            ),
            None => Client::Local(platform.client()),
        });
    }
    let load = match wl.shape {
        Shape::Waves => Load::Closed(
            (0..CLIENTS)
                .map(|c| Driver::Waves(WaveGen::new(wl, seed, c)))
                .collect(),
        ),
        Shape::Slots => Load::Closed(
            (0..CLIENTS)
                .map(|c| Driver::Slots(SlotGen::new(wl, seed, c)))
                .collect(),
        ),
        Shape::Open { .. } => Load::Open(OpenGen::new(wl, seed)),
    };
    let mut live = Live {
        platform,
        server,
        devices,
        data_dir,
        clients,
        load,
    };
    live.warm_up()?;
    live.platform
        .coord()
        .set_simulated_fsync_latency(wl.modeled_fsync);
    Ok(live)
}

impl Live {
    fn warm_up(&mut self) -> Result<(), String> {
        let mut rec = Recorder::new(Instant::now(), false);
        match &mut self.load {
            Load::Closed(drivers) => {
                while rec.tally.attempted < WARMUP_TXNS as u64 {
                    for (driver, client) in drivers.iter_mut().zip(&self.clients) {
                        driver.round(client, &mut rec);
                    }
                }
            }
            Load::Open(gen) => {
                while rec.tally.attempted < WARMUP_TXNS as u64 {
                    let reqs: Vec<Req> = (0..WINDOW).map(|_| gen.next_request()).collect();
                    rec.wave(&self.clients[0], &reqs);
                }
            }
        }
        if rec.tally.failed() > 0 || rec.tally.terminal() != WARMUP_TXNS as u64 {
            return Err(format!("warm-up went wrong: {:?}", rec.tally));
        }
        Ok(())
    }

    /// Stops the server and the platform; hands back the data dir so the
    /// recovery check can reopen it.
    pub fn teardown(self) -> Option<ScratchDir> {
        drop(self.clients);
        if let Some(server) = self.server {
            server.stop();
        }
        self.platform.shutdown();
        self.data_dir
    }
}

/// Every public counter surface, read in one go.
#[derive(Clone, Copy)]
pub struct Snap {
    pub counters: Counters,
    pub busy: Duration,
    pub faults: FaultStats,
    pub service: ServiceStats,
    pub ensemble: EnsembleStats,
}

pub fn snap(p: &Tropic) -> Snap {
    Snap {
        counters: p.counters(),
        busy: p.metrics().busy(),
        faults: p.fault_stats(),
        service: p.coord().stats(),
        ensemble: p.coord().ensemble_stats(),
    }
}

/// One measured window.
pub struct Measured {
    pub before: Snap,
    pub after: Snap,
    /// Longest any load thread ran.
    pub wall: Duration,
    /// The gated rate: see [`measure`].
    pub throughput_tps: f64,
    /// Terminal transactions over `wall`, stalls and all.
    pub mean_throughput_tps: f64,
    /// End-to-end latencies, ascending.
    pub lat_ms: Vec<f64>,
    pub samples: Vec<Sample>,
    pub tally: Tally,
    pub spans: Vec<Span>,
    /// Open loop only: how late the generator ran at worst, and how many
    /// submitted transactions were not yet terminal when it stopped.
    pub sched_lag_max_ms: f64,
    pub backlog_end: u64,
}

/// Width of the windows a closed loop's throughput is averaged over.
const RATE_WINDOW: Duration = Duration::from_secs(1);

/// Terminal transactions per second over the whole `RATE_WINDOW`s inside
/// `span`, as the mean of the windows left after dropping the slowest and
/// the fastest quarter. A machine hiccup or one long stall moves a window
/// or two, not this mean; `mean_throughput_tps` and the ungated tail
/// percentiles still show them.
fn midmean_window_rate(samples: &[Sample], t0: Instant, span: Duration) -> f64 {
    let windows = (span.as_nanos() / RATE_WINDOW.as_nanos()) as usize;
    let mut counts = vec![0.0; windows];
    for s in samples {
        let w = (s.done.saturating_duration_since(t0).as_nanos() / RATE_WINDOW.as_nanos()) as usize;
        if w < windows {
            counts[w] += 1.0;
        }
    }
    crate::stats::sort(&mut counts);
    let cut = windows / 4;
    crate::stats::mean(&counts[cut..windows - cut]) / RATE_WINDOW.as_secs_f64()
}

/// Runs the workload's load for `span` and reports what the clients saw
/// beside the platform's counters before and after.
///
/// `throughput_tps` is, on a closed loop, the mid-mean rate of the
/// one-second windows of `span` (a shorter `span` is one window); on the
/// open loop, completions over the time from the first due time to the
/// last completion.
pub fn measure(live: &mut Live, span: Duration, trace: bool) -> Measured {
    let before = snap(&live.platform);
    let origin = Instant::now();
    let clients = &live.clients;
    let mut sched_lag_max_ms = 0.0;
    let mut backlog_end = 0;
    let mut open_span = None;
    let recorders: Vec<Recorder> = match &mut live.load {
        Load::Closed(drivers) => {
            let barrier = Barrier::new(drivers.len());
            std::thread::scope(|s| {
                let handles: Vec<_> = drivers
                    .iter_mut()
                    .zip(clients)
                    .map(|(driver, client)| {
                        let barrier = &barrier;
                        s.spawn(move || {
                            let mut rec = Recorder::new(origin, trace);
                            barrier.wait();
                            while origin.elapsed() < span {
                                driver.round(client, &mut rec);
                            }
                            rec
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("load thread panicked"))
                    .collect()
            })
        }
        Load::Open(gen) => {
            let (tx, rx) = mpsc::channel::<InFlight>();
            let completed = AtomicU64::new(0);
            let mut first_due = None;
            std::thread::scope(|s| {
                let waiter = s.spawn(|| {
                    let mut rec = Recorder::new(origin, trace);
                    for f in rx {
                        rec.wait_committed(&clients[1], f);
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                    rec
                });
                // The submitter runs on this thread: two load threads in all.
                let mut rec = Recorder::new(origin, trace);
                let mut submitted = 0u64;
                for offset in gen.schedule(span) {
                    let due = origin + offset;
                    let req = gen.next_request();
                    first_due.get_or_insert(due);
                    if let Some(early) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(early);
                    }
                    let lag = Instant::now().saturating_duration_since(due);
                    sched_lag_max_ms = f64::max(sched_lag_max_ms, lag.as_secs_f64() * 1e3);
                    if let Some(f) = rec.submit(&clients[0], &req, Some(due)) {
                        submitted += 1;
                        tx.send(f).expect("waiter thread alive");
                    }
                }
                backlog_end = submitted - completed.load(Ordering::SeqCst);
                drop(tx);
                let wait_rec = waiter.join().expect("waiter thread panicked");
                let last_done = wait_rec.samples.last().map_or(origin, |s| s.done);
                open_span = Some(last_done.saturating_duration_since(first_due.unwrap_or(origin)));
                vec![rec, wait_rec]
            })
        }
    };
    let wall = origin.elapsed();
    let after = snap(&live.platform);
    let mut out = Measured {
        before,
        after,
        wall,
        throughput_tps: 0.0,
        mean_throughput_tps: 0.0,
        lat_ms: Vec::new(),
        samples: Vec::new(),
        tally: Tally::default(),
        spans: Vec::new(),
        sched_lag_max_ms,
        backlog_end,
    };
    for rec in recorders {
        out.tally.add(&rec.tally);
        out.samples.extend(rec.samples);
        let base = out.spans.len();
        out.spans.extend(rec.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    let terminal = out.tally.terminal() as f64;
    out.mean_throughput_tps = terminal / wall.as_secs_f64();
    out.throughput_tps = match open_span {
        Some(open) => terminal / open.as_secs_f64().max(1e-9),
        None if span >= RATE_WINDOW => midmean_window_rate(&out.samples, origin, span),
        None => out.mean_throughput_tps,
    };
    out.lat_ms = out.samples.iter().map(Sample::latency_ms).collect();
    crate::stats::sort(&mut out.lat_ms);
    out
}

/// Median round trip of `RemoteClient::ping` on the idle platform (µs);
/// `0.0` on in-process workloads.
pub fn ping_idle_us_p50(live: &Live, pings: usize) -> f64 {
    let Some(Client::Remote(c)) = live.clients.first() else {
        return 0.0;
    };
    let mut us = Vec::with_capacity(pings);
    for _ in 0..pings {
        let t = Instant::now();
        if c.ping().is_ok() {
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    crate::stats::median(&us)
}

/// Transaction records the coordination store holds right now.
pub fn live_records(live: &Live) -> usize {
    let client = live.platform.coord().connect("benchmark-census");
    let n = client
        .get_children(&tropic_core::layout::txns())
        .map(|c| c.len())
        .unwrap_or(0);
    client.close();
    n
}

/// The output checks that need the live platform. Every mismatch is one
/// line in the returned list; an empty list means the outputs are correct.
pub fn check_outputs(live: &Live, m: &Measured) -> Vec<String> {
    let mut wrong = Vec::new();
    let t = &m.tally;
    if t.failed() > 0 {
        wrong.push(format!(
            "{} of {} attempted transactions failed ({} errors, {} unexpected states)",
            t.failed(),
            t.attempted,
            t.errors,
            t.unexpected
        ));
    }
    if t.terminal() + t.errors != t.attempted {
        wrong.push(format!("tally does not add up: {t:?}"));
    }
    let (b, a) = (&m.before.counters, &m.after.counters);
    let platform = (
        a.committed - b.committed,
        a.aborted - b.aborted,
        a.failed - b.failed,
    );
    if platform != (t.committed, t.aborted, t.failed_state) {
        wrong.push(format!(
            "platform counted (committed, aborted, failed) = {platform:?}, clients saw {:?}",
            (t.committed, t.aborted, t.failed_state)
        ));
    }
    if t.failed_state > 0 {
        wrong.push(format!("{} transactions ended Failed", t.failed_state));
    }
    let injected = m.after.faults.injected - m.before.faults.injected;
    if t.aborted != injected {
        wrong.push(format!(
            "{} aborts but {injected} injected faults",
            t.aborted
        ));
    }
    if let (Some(devices), Load::Closed(drivers)) = (&live.devices, &live.load) {
        let expected: usize = drivers
            .iter()
            .map(|d| match d {
                Driver::Slots(gen) => gen.live_vms(),
                Driver::Waves(_) => 0,
            })
            .sum();
        let physical = devices.registry.physical_tree().find_entity(VM).len();
        if physical != expected {
            wrong.push(format!(
                "devices hold {physical} VMs, the slot model says {expected}"
            ));
        }
        match live.platform.admin().reload(&Path::root(), WAIT_TIMEOUT) {
            Ok(r) if r.ok && r.drifted == 0 => {}
            Ok(r) => wrong.push(format!(
                "reload found the layers apart: ok={} drifted={} ({})",
                r.ok, r.drifted, r.message
            )),
            Err(e) => wrong.push(format!("reload failed: {e}")),
        }
    }
    wrong
}

/// Acknowledged commits younger than this when the platform stopped must
/// still be on record after recovery: `gc_grace_ms` keeps them twice as long.
const RECENT: Duration = Duration::from_secs(5);

/// Reopens `dir` with `Tropic::recover`, times recovery up to the first new
/// commit, and counts acknowledged commits that no longer read `Committed`.
/// Older records may have been garbage-collected; they count as lost only
/// if still present in another state.
pub fn recover_check(
    wl: &Workload,
    dir: &ScratchDir,
    samples: &[Sample],
    stopped: Instant,
) -> Result<(f64, u64), String> {
    let spec = wl.topology();
    let t = Instant::now();
    let platform = Tropic::recover(
        PlatformConfig::default().with_data_dir(dir.path()),
        spec.service(),
        ExecMode::LogicalOnly,
    );
    let client = platform.client();
    let first = client
        .submit_request(
            tropic_core::TxnRequest::new("spawnVM").args(spec.spawn_args(
                "after-recovery",
                0,
                2_048,
            )),
        )
        .and_then(|h| h.wait_timeout(WAIT_TIMEOUT))
        .map_err(|e| format!("first transaction after recovery: {e}"))?;
    if first.state != TxnState::Committed {
        return Err(format!(
            "first transaction after recovery ended {:?}: {:?}",
            first.state, first.error
        ));
    }
    let recover_s = t.elapsed().as_secs_f64();
    let mut lost = 0;
    for &Sample { id, done, .. } in samples.iter().filter(|s| s.committed) {
        let state = client
            .txn_record(id)
            .map_err(|e| format!("read record {id}: {e}"))?
            .map(|r| r.state);
        let recent = stopped.saturating_duration_since(done) < RECENT;
        match state {
            Some(TxnState::Committed) => {}
            None if !recent => {}
            other => {
                lost += 1;
                eprintln!("benchmark: acknowledged txn {id} reads {other:?} after recovery");
            }
        }
    }
    drop(client);
    platform.shutdown();
    Ok((recover_s, lost))
}
