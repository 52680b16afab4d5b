//! Open-loop chaos/stress harness: sustained load *concurrently* with a
//! scripted fault schedule, reporting per-lane latency CDFs.
//!
//! The paper's robustness evaluation (§6.3) injects random exceptions in
//! the last step of VM spawn and migrate, and §6.4 kills the leader
//! controller under load. The short benches and one-shot examples exercise
//! those paths individually; this module runs them **together, under
//! sustained open-loop load**, the way a production deployment would meet
//! them:
//!
//! * [`ChaosSpec`] describes the load: a Poisson-ish arrival process from a
//!   seeded RNG (inter-arrival times are exponential), fanned across many
//!   simulated clients over the typed API — and optionally over the network
//!   RPC socket ([`ChaosSpec::rpc_addr`]) — with a configurable
//!   spawn/toggle/migrate mix and priority-lane weights. Open-loop means
//!   submission times never wait for completions: when the platform slows
//!   down, the backlog (and the latency tail) grows, which is exactly what
//!   the harness measures.
//! * [`ScheduledFault`]s script the chaos: leader kills mid-round
//!   ([`FaultKind::KillLeader`]), device-failure storms over the
//!   [`FaultPlan`](tropic_devices::FaultPlan) hooks (`every_nth`, one-shot,
//!   probabilistic, down/up), scoped per device or fleet-wide
//!   ([`FaultScope`]). [`StormSpec`] generates a randomized-but-seeded
//!   storm so a run is reproducible from two integers.
//! * [`run_chaos`] drives load, faults, and drain, and returns a
//!   [`ChaosReport`]: per-lane, per-outcome latency percentiles and CDF
//!   points, abort rates, injected-fault counters (attributed via
//!   [`Tropic::counters`]), the applied fault timeline, and the
//!   **acknowledged-transaction-loss count** — the invariant a chaos run
//!   exists to check is that it stays zero.
//! * [`DriftStormSpec`] scripts the twin-reconciler stress variant: rapid
//!   Down/Up flapping of compute hosts leaves cross-layer drift behind
//!   (mid-flight transactions cannot roll back on a dead device), and
//!   [`run_drift_storm`] watches the platform's twin feed until every
//!   drifted resource converges back — the digital-twin subsystem's
//!   self-healing invariant, checked under load.
//! * [`tear_wal_tails`] corrupts the newest write-ahead-log segment of
//!   every durable replica, so a driver can script a torn-tail restart
//!   through [`Tropic::recover`] between two load phases (see the `chaos`
//!   binary in `tropic-bench` and `docs/STRESS_TESTING.md`).
//!
//! Determinism: [`ChaosSpec::plan`] and [`StormSpec::generate`] are pure
//! functions of their seeds — the same seed yields byte-identical arrival
//! and fault schedules. End-to-end fault *counts* are additionally
//! deterministic when submission order is serialized (one client thread,
//! one worker, one lane); see `tests/chaos.rs`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use tropic_core::{Priority, Tropic, TropicClient, TwinPhase, TxnId, TxnRequest, TxnState};
use tropic_devices::Device;
use tropic_tcloud::{TCloudDevices, TopologySpec};

use crate::stats::LatencyStats;

/// Which devices a scripted fault applies to.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultScope {
    /// Every compute server.
    AllComputes,
    /// Compute server `host{i}`.
    Compute(usize),
    /// Every storage server.
    AllStorages,
    /// Storage server `storage{i}`.
    Storage(usize),
    /// Every registered device.
    AllDevices,
}

impl FaultScope {
    fn describe(&self) -> String {
        match self {
            FaultScope::AllComputes => "computes(*)".into(),
            FaultScope::Compute(i) => format!("compute({i})"),
            FaultScope::AllStorages => "storages(*)".into(),
            FaultScope::Storage(i) => format!("storage({i})"),
            FaultScope::AllDevices => "devices(*)".into(),
        }
    }

    fn for_each_plan(&self, devices: &TCloudDevices, mut f: impl FnMut(&dyn Device)) {
        match self {
            FaultScope::AllComputes => {
                devices.computes.iter().for_each(|d| f(d.as_ref()));
            }
            FaultScope::Compute(i) => {
                if let Some(d) = devices.computes.get(*i) {
                    f(d.as_ref());
                }
            }
            FaultScope::AllStorages => {
                devices.storages.iter().for_each(|d| f(d.as_ref()));
            }
            FaultScope::Storage(i) => {
                if let Some(d) = devices.storages.get(*i) {
                    f(d.as_ref());
                }
            }
            FaultScope::AllDevices => {
                devices.computes.iter().for_each(|d| f(d.as_ref()));
                devices.storages.iter().for_each(|d| f(d.as_ref()));
                devices.routers.iter().for_each(|d| f(d.as_ref()));
            }
        }
    }
}

/// One scripted fault action.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Crash the current leader controller (its session expires, a follower
    /// takes over — the §6.4 failure model). With `restart_after_ms` set,
    /// the crashed controller rejoins as a follower that much later.
    KillLeader {
        /// Delay before the crashed controller restarts, if ever.
        restart_after_ms: Option<u64>,
    },
    /// Mark the scoped devices unreachable (every action fails).
    DeviceDown {
        /// Devices to take down.
        scope: FaultScope,
    },
    /// Bring the scoped devices back up.
    DeviceUp {
        /// Devices to bring back.
        scope: FaultScope,
    },
    /// Fail every `n`-th invocation of `action` on the scoped devices
    /// (1-based, see `FaultPlan::fail_every_nth`).
    EveryNth {
        /// Devices to script.
        scope: FaultScope,
        /// Action name, e.g. `createVM`.
        action: String,
        /// Period (`n = 1` fails every call).
        n: u64,
    },
    /// Fail the next invocation of `action` once, on the scoped devices.
    OneShot {
        /// Devices to script.
        scope: FaultScope,
        /// Action name.
        action: String,
    },
    /// Fail invocations of `action` with independent probability `p`.
    Probability {
        /// Devices to script.
        scope: FaultScope,
        /// Action name.
        action: String,
        /// Failure probability in `[0, 1]`.
        p: f64,
    },
    /// Clear all scripted failures on the scoped devices (up/down state is
    /// kept — pair with [`FaultKind::DeviceUp`]).
    ClearFaults {
        /// Devices to clear.
        scope: FaultScope,
    },
}

/// A fault scheduled at an offset from the start of the load phase.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// Milliseconds after load start at which the fault fires.
    pub at_ms: u64,
    /// What to do.
    pub kind: FaultKind,
}

/// A fault as actually applied during a run (for the report timeline).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AppliedFault {
    /// Scheduled offset (ms after load start).
    pub at_ms: u64,
    /// Wall-clock offset at which it really fired (ms after load start).
    pub applied_at_ms: u64,
    /// Human-readable description, e.g. `kill-leader controller-2`.
    pub description: String,
}

/// Generates a randomized-but-seeded fault storm: leader kills and
/// device-failure bursts spread over the run, plus standing `every_nth` /
/// one-shot scripts. Two runs with the same spec produce the identical
/// schedule ([`StormSpec::generate`] is a pure function of the spec).
#[derive(Clone, Debug)]
pub struct StormSpec {
    /// RNG seed for event times and scopes.
    pub seed: u64,
    /// Window (ms) the storm spreads over — normally the load duration.
    pub duration_ms: u64,
    /// Number of compute hosts available for scoped faults.
    pub compute_hosts: usize,
    /// Leader kills to schedule.
    pub leader_kills: usize,
    /// Restart delay for killed controllers (None = stay down).
    pub leader_restart_after_ms: Option<u64>,
    /// Device-down bursts (each takes one compute host down then up).
    pub down_bursts: usize,
    /// Length of each down burst (ms).
    pub down_burst_ms: u64,
    /// Standing every-nth scripts applied to all computes at t = 0.
    pub every_nth: Vec<(String, u64)>,
    /// One-shot failures scheduled at random times on random computes.
    pub one_shots: Vec<String>,
}

impl Default for StormSpec {
    fn default() -> Self {
        StormSpec {
            seed: 42,
            duration_ms: 3_000,
            compute_hosts: 4,
            leader_kills: 1,
            leader_restart_after_ms: Some(1_000),
            down_bursts: 1,
            down_burst_ms: 400,
            every_nth: vec![("createVM".into(), 7)],
            one_shots: vec!["migrateVM".into()],
        }
    }
}

impl StormSpec {
    /// Builds the deterministic fault schedule, sorted by `at_ms`.
    pub fn generate(&self) -> Vec<ScheduledFault> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut faults = Vec::new();
        for (action, n) in &self.every_nth {
            faults.push(ScheduledFault {
                at_ms: 0,
                kind: FaultKind::EveryNth {
                    scope: FaultScope::AllComputes,
                    action: action.clone(),
                    n: *n,
                },
            });
        }
        // Kills and bursts land in the middle 80% of the window so load is
        // flowing when they hit.
        let window = |rng: &mut StdRng, duration: u64| -> u64 {
            let lo = duration / 10;
            let hi = (duration * 9 / 10).max(lo + 1);
            rng.gen_range(lo..hi)
        };
        for _ in 0..self.leader_kills {
            faults.push(ScheduledFault {
                at_ms: window(&mut rng, self.duration_ms),
                kind: FaultKind::KillLeader {
                    restart_after_ms: self.leader_restart_after_ms,
                },
            });
        }
        for _ in 0..self.down_bursts {
            let host = if self.compute_hosts == 0 {
                0
            } else {
                rng.gen_range(0..self.compute_hosts)
            };
            let at = window(&mut rng, self.duration_ms);
            faults.push(ScheduledFault {
                at_ms: at,
                kind: FaultKind::DeviceDown {
                    scope: FaultScope::Compute(host),
                },
            });
            faults.push(ScheduledFault {
                at_ms: at + self.down_burst_ms,
                kind: FaultKind::DeviceUp {
                    scope: FaultScope::Compute(host),
                },
            });
        }
        for action in &self.one_shots {
            let host = if self.compute_hosts == 0 {
                0
            } else {
                rng.gen_range(0..self.compute_hosts)
            };
            faults.push(ScheduledFault {
                at_ms: window(&mut rng, self.duration_ms),
                kind: FaultKind::OneShot {
                    scope: FaultScope::Compute(host),
                    action: action.clone(),
                },
            });
        }
        faults.sort_by_key(|f| f.at_ms);
        faults
    }
}

/// Generates a seeded *drift storm*: rapid Down/Up flapping of compute
/// hosts (plus optional standing `every_nth` scripts) designed to leave
/// cross-layer drift behind — transactions caught mid-flight on a flapping
/// device cannot roll back physically, so the physical layer diverges from
/// the logical layer. Run it with the twin reconciler enabled
/// ([`TwinConfig::enabled`](tropic_core::TwinConfig)) and the platform must
/// converge back to zero diffs **without operator action**; that is what
/// [`run_drift_storm`] asserts the data for.
///
/// Like [`StormSpec`], [`DriftStormSpec::generate`] is a pure function of
/// the spec: the same seed yields the identical flap schedule.
#[derive(Clone, Debug)]
pub struct DriftStormSpec {
    /// RNG seed for flap times and targets.
    pub seed: u64,
    /// Window (ms) the flaps spread over — normally the load duration.
    pub duration_ms: u64,
    /// Number of compute hosts available to flap.
    pub compute_hosts: usize,
    /// Down/Up flap bursts to schedule (each picks a random host).
    pub flaps: usize,
    /// How long each flap holds its host down (ms).
    pub flap_down_ms: u64,
    /// Standing every-nth failure scripts applied to all computes at t = 0
    /// (they keep injecting during repair attempts too, exercising the
    /// backoff waker).
    pub every_nth: Vec<(String, u64)>,
}

impl Default for DriftStormSpec {
    fn default() -> Self {
        DriftStormSpec {
            seed: 42,
            duration_ms: 3_000,
            compute_hosts: 4,
            flaps: 4,
            flap_down_ms: 250,
            every_nth: vec![("startVM".into(), 6)],
        }
    }
}

impl DriftStormSpec {
    /// Builds the deterministic flap schedule, sorted by `at_ms`.
    pub fn generate(&self) -> Vec<ScheduledFault> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut faults = Vec::new();
        for (action, n) in &self.every_nth {
            faults.push(ScheduledFault {
                at_ms: 0,
                kind: FaultKind::EveryNth {
                    scope: FaultScope::AllComputes,
                    action: action.clone(),
                    n: *n,
                },
            });
        }
        // Flaps land in the middle 80% of the window so load is flowing
        // when the host disappears.
        for _ in 0..self.flaps {
            let host = if self.compute_hosts == 0 {
                0
            } else {
                rng.gen_range(0..self.compute_hosts)
            };
            let lo = self.duration_ms / 10;
            let hi = (self.duration_ms * 9 / 10).max(lo + 1);
            let at = rng.gen_range(lo..hi);
            faults.push(ScheduledFault {
                at_ms: at,
                kind: FaultKind::DeviceDown {
                    scope: FaultScope::Compute(host),
                },
            });
            faults.push(ScheduledFault {
                at_ms: at + self.flap_down_ms,
                kind: FaultKind::DeviceUp {
                    scope: FaultScope::Compute(host),
                },
            });
        }
        faults.sort_by_key(|f| f.at_ms);
        faults
    }
}

/// Result of a [`run_drift_storm`] run: the underlying chaos report plus
/// the twin's view of which resources drifted and whether every one of
/// them converged within the convergence timeout.
#[derive(Clone, Debug)]
pub struct DriftStormReport {
    /// The open-loop load/fault report (the `acked_lost == 0` invariant
    /// lives here).
    pub chaos: ChaosReport,
    /// Resources (device mounts) that entered `Drifted` at least once.
    pub drifted: Vec<String>,
    /// Drifted resources whose final observed phase is back in sync.
    pub converged: Vec<String>,
    /// Drifted resources still out of sync when the timeout expired —
    /// a drift-storm run passes only when this is empty.
    pub unconverged: Vec<String>,
    /// Total twin events observed over the run.
    pub twin_events: u64,
}

/// Runs a chaos workload (normally with a [`DriftStormSpec`] schedule in
/// `spec.faults`) while watching the platform's twin feed, then waits up to
/// `convergence_timeout` after the load drains for every drifted resource
/// to report `Converged`. The platform must have been started with the
/// twin reconciler enabled, or drift will simply never converge.
///
/// The caller asserts on the report: `chaos.acked_lost == 0` and
/// `unconverged.is_empty()` are the drift-storm invariants.
pub fn run_drift_storm(
    platform: &Tropic,
    topo: &TopologySpec,
    devices: Option<&TCloudDevices>,
    spec: &ChaosSpec,
    convergence_timeout: Duration,
) -> DriftStormReport {
    let sub = platform
        .client()
        .subscribe_twin()
        .expect("the in-process twin feed always opens");
    let chaos = run_chaos(platform, topo, devices, spec);

    // Fold the feed into "latest phase per resource", continuing until
    // every resource that ever drifted is back in sync (or the timeout
    // expires). `Converged` is transient — it marks the episode close —
    // so both it and `InSync` count as in-sync terminal phases. Because
    // drift left by the storm may only be *detected* after the load drains
    // (the report pump and the reconciliation tick both lag the devices),
    // convergence must additionally hold through a quiet settle window
    // before the run is declared done.
    fn fold(
        event: &tropic_core::TwinEvent,
        last_phase: &mut BTreeMap<String, TwinPhase>,
        ever_drifted: &mut BTreeMap<String, ()>,
    ) {
        let path = event.path.to_string();
        if !matches!(event.phase, TwinPhase::InSync | TwinPhase::Converged) {
            ever_drifted.insert(path.clone(), ());
        }
        last_phase.insert(path, event.phase);
    }
    let mut last_phase: BTreeMap<String, TwinPhase> = BTreeMap::new();
    let mut ever_drifted: BTreeMap<String, ()> = BTreeMap::new();
    let mut twin_events = 0u64;
    let settle = Duration::from_millis(750);
    let deadline = Instant::now() + convergence_timeout;
    let mut last_event = Instant::now();
    loop {
        for event in sub.drain() {
            twin_events += 1;
            last_event = Instant::now();
            fold(&event, &mut last_phase, &mut ever_drifted);
        }
        let all_converged = ever_drifted.keys().all(|p| {
            matches!(
                last_phase.get(p),
                Some(TwinPhase::InSync) | Some(TwinPhase::Converged)
            )
        });
        let now = Instant::now();
        if (all_converged && now.duration_since(last_event) >= settle) || now >= deadline {
            break;
        }
        if let Some(event) = sub.recv_timeout(Duration::from_millis(100)) {
            twin_events += 1;
            last_event = Instant::now();
            fold(&event, &mut last_phase, &mut ever_drifted);
        }
    }

    let mut converged = Vec::new();
    let mut unconverged = Vec::new();
    for path in ever_drifted.keys() {
        match last_phase.get(path) {
            Some(TwinPhase::InSync) | Some(TwinPhase::Converged) => converged.push(path.clone()),
            _ => unconverged.push(path.clone()),
        }
    }
    DriftStormReport {
        chaos,
        drifted: ever_drifted.keys().cloned().collect(),
        converged,
        unconverged,
        twin_events,
    }
}

/// Relative weights of the operation mix. Operations other than `spawn`
/// target the pre-provisioned VM pool; with an empty pool everything
/// degenerates to spawns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpWeights {
    /// `spawnVM` of a fresh VM.
    pub spawn: u32,
    /// `stopVM`/`startVM` toggles on a pool VM.
    pub toggle: u32,
    /// `migrateVM` of a pool VM to another host.
    pub migrate: u32,
}

/// Relative weights of the priority lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneWeights {
    /// `Priority::High`.
    pub high: u32,
    /// `Priority::Normal`.
    pub normal: u32,
    /// `Priority::Batch`.
    pub batch: u32,
}

/// Configuration of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Seed for the arrival process and all generated randomness.
    pub seed: u64,
    /// Length of the open-loop submission window (ms).
    pub duration_ms: u64,
    /// Mean arrival rate (transactions per second, Poisson process).
    pub arrival_per_sec: f64,
    /// Concurrent client threads the arrivals are fanned across.
    pub clients: usize,
    /// How many of `clients` connect over the RPC socket instead of the
    /// in-process API (requires [`ChaosSpec::rpc_addr`]).
    pub rpc_clients: usize,
    /// Address of a running RPC frontend for the `rpc_clients`.
    pub rpc_addr: Option<String>,
    /// VMs provisioned before the run as targets for toggle/migrate ops.
    pub pool_vms: usize,
    /// Operation mix.
    pub ops: OpWeights,
    /// Priority-lane mix.
    pub lanes: LaneWeights,
    /// Memory per spawned VM (MB).
    pub vm_mem_mb: i64,
    /// Scripted fault schedule, offsets relative to load start.
    pub faults: Vec<ScheduledFault>,
    /// How long after the submission window to wait for outcomes before
    /// declaring the remainder unresolved (acknowledged-txn loss).
    pub drain_timeout: Duration,
    /// After the fault schedule completes, clear device fault plans, bring
    /// devices back up, and restart crashed controllers so the drain can
    /// converge (default `true`).
    pub heal_after_load: bool,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            seed: 42,
            duration_ms: 3_000,
            arrival_per_sec: 30.0,
            clients: 4,
            rpc_clients: 0,
            rpc_addr: None,
            pool_vms: 8,
            ops: OpWeights {
                spawn: 6,
                toggle: 3,
                migrate: 1,
            },
            lanes: LaneWeights {
                high: 2,
                normal: 6,
                batch: 2,
            },
            vm_mem_mb: 1_024,
            faults: Vec::new(),
            drain_timeout: Duration::from_secs(60),
            heal_after_load: true,
        }
    }
}

/// One concrete operation in the generated schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosOp {
    /// Spawn a fresh VM on `host`.
    Spawn {
        /// VM name (unique per run).
        vm: String,
        /// Target host index.
        host: usize,
    },
    /// Stop (`true`) or start (`false`) pool VM `vm` on `host`.
    Toggle {
        /// Pool VM name.
        vm: String,
        /// Host the VM currently lives on (per the generation model).
        host: usize,
        /// `true` = stopVM, `false` = startVM.
        stop: bool,
    },
    /// Migrate pool VM `vm` from `src` to `dst`.
    Migrate {
        /// Pool VM name.
        vm: String,
        /// Source host index.
        src: usize,
        /// Destination host index.
        dst: usize,
    },
}

/// One scheduled submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Submission offset from load start (ms).
    pub at_ms: u64,
    /// Client thread that submits it.
    pub client: usize,
    /// Priority lane.
    pub priority: Priority,
    /// The operation.
    pub op: ChaosOp,
}

/// A pool VM provisioned before the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolVm {
    /// VM name (`pool{i}`).
    pub vm: String,
    /// Initial host.
    pub host: usize,
    /// Lane every operation on this VM rides (same-lane FIFO keeps the
    /// per-VM operation order).
    pub priority: Priority,
}

/// The fully-expanded deterministic plan of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Pool VMs to provision up front.
    pub pool: Vec<PoolVm>,
    /// Open-loop arrivals, sorted by `at_ms`.
    pub arrivals: Vec<Arrival>,
}

impl ChaosSpec {
    /// Expands the spec into its deterministic plan: same spec (and seed)
    /// ⇒ identical pool, arrival times, operations, and lane assignments.
    pub fn plan(&self, topo: &TopologySpec) -> ChaosPlan {
        assert!(self.arrival_per_sec > 0.0, "arrival rate must be positive");
        assert!(self.clients > 0, "need at least one client");
        let hosts = topo.compute_hosts.max(1);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let pick_lane = |rng: &mut StdRng, lanes: &LaneWeights| -> Priority {
            let total = (lanes.high + lanes.normal + lanes.batch).max(1);
            let roll = rng.gen_range(0..total);
            if roll < lanes.high {
                Priority::High
            } else if roll < lanes.high + lanes.normal {
                Priority::Normal
            } else {
                Priority::Batch
            }
        };

        let mut pool = Vec::with_capacity(self.pool_vms);
        for i in 0..self.pool_vms {
            pool.push(PoolVm {
                vm: format!("pool{i}"),
                host: i % hosts,
                priority: pick_lane(&mut rng, &self.lanes),
            });
        }
        // Generation-time model of each pool VM (power + placement) so the
        // schedule only issues transitions that are valid in submission
        // order. Cross-fault aborts can still invalidate later ops — that
        // is chaos, and it shows up in the abort columns.
        let mut running: Vec<bool> = vec![true; pool.len()];
        let mut on_host: Vec<usize> = pool.iter().map(|p| p.host).collect();

        let op_total = (self.ops.spawn + self.ops.toggle + self.ops.migrate).max(1);
        let mut arrivals = Vec::new();
        let mut t_ms = 0.0_f64;
        let mut spawned = 0u64;
        loop {
            // Exponential inter-arrival for a Poisson process at the
            // configured rate.
            let u: f64 = rng.gen();
            t_ms += -(1.0 - u).ln() / self.arrival_per_sec * 1_000.0;
            if t_ms >= self.duration_ms as f64 {
                break;
            }
            let client = rng.gen_range(0..self.clients);
            let mut roll = rng.gen_range(0..op_total);
            if pool.is_empty() {
                roll = 0; // everything degenerates to spawns
            }
            let (op, priority) = if roll < self.ops.spawn || pool.is_empty() {
                let host = rng.gen_range(0..hosts);
                let vm = format!("chaos{spawned}");
                spawned += 1;
                (
                    ChaosOp::Spawn { vm, host },
                    pick_lane(&mut rng, &self.lanes),
                )
            } else if roll < self.ops.spawn + self.ops.toggle {
                let i = rng.gen_range(0..pool.len());
                let stop = running[i];
                running[i] = !running[i];
                (
                    ChaosOp::Toggle {
                        vm: pool[i].vm.clone(),
                        host: on_host[i],
                        stop,
                    },
                    pool[i].priority,
                )
            } else {
                let i = rng.gen_range(0..pool.len());
                let src = on_host[i];
                let dst = (src + 1 + rng.gen_range(0..hosts.max(2) - 1)) % hosts;
                on_host[i] = dst;
                (
                    ChaosOp::Migrate {
                        vm: pool[i].vm.clone(),
                        src,
                        dst,
                    },
                    pool[i].priority,
                )
            };
            arrivals.push(Arrival {
                at_ms: t_ms as u64,
                client,
                priority,
                op,
            });
        }
        ChaosPlan { pool, arrivals }
    }

    fn request_for(&self, topo: &TopologySpec, op: &ChaosOp, priority: Priority) -> TxnRequest {
        let req = match op {
            ChaosOp::Spawn { vm, host } => {
                TxnRequest::new("spawnVM").args(topo.spawn_args(vm, *host, self.vm_mem_mb))
            }
            ChaosOp::Toggle { vm, host, stop } => {
                TxnRequest::new(if *stop { "stopVM" } else { "startVM" })
                    .arg(TopologySpec::host_path(*host).to_string())
                    .arg(vm.as_str())
            }
            ChaosOp::Migrate { vm, src, dst } => TxnRequest::new("migrateVM")
                .arg(TopologySpec::host_path(*src).to_string())
                .arg(TopologySpec::host_path(*dst).to_string())
                .arg(vm.as_str()),
        };
        req.priority(priority).label("workload", "chaos")
    }
}

/// Latency summary of one (lane, outcome) bucket, milliseconds.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct OutcomeStats {
    /// Samples in the bucket.
    pub count: u64,
    /// Mean latency.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: u64,
    /// 90th percentile.
    pub p90_ms: u64,
    /// 99th percentile (nearest-rank).
    pub p99_ms: u64,
    /// Maximum.
    pub max_ms: u64,
}

impl OutcomeStats {
    fn from_samples(samples: Vec<u64>) -> Self {
        let stats = LatencyStats::new(samples);
        OutcomeStats {
            count: stats.len() as u64,
            mean_ms: stats.mean(),
            p50_ms: stats.percentile(50.0),
            p90_ms: stats.percentile(90.0),
            p99_ms: stats.percentile(99.0),
            max_ms: stats.max(),
        }
    }
}

/// One point of a committed-latency CDF.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CdfPoint {
    /// Latency (ms).
    pub ms: u64,
    /// Fraction of committed samples at or below `ms`.
    pub frac: f64,
}

/// Per-priority-lane results.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LaneReport {
    /// Lane name (`hi`, `norm`, `batch`).
    pub lane: String,
    /// Submissions acknowledged on this lane.
    pub submitted: u64,
    /// Submissions the platform refused at the API boundary (not
    /// acknowledged, so not loss).
    pub submit_errors: u64,
    /// Terminal outcomes.
    pub committed: u64,
    /// Aborted (clean rollback).
    pub aborted: u64,
    /// Failed (partial physical rollback).
    pub failed: u64,
    /// Acknowledged but no terminal outcome within the drain timeout —
    /// every entry here is a potentially lost acknowledged transaction.
    pub unresolved: u64,
    /// `(aborted + failed) / (committed + aborted + failed)`.
    pub abort_rate: f64,
    /// Latency of committed transactions.
    pub committed_latency: OutcomeStats,
    /// Latency of aborted transactions (rollback cost).
    pub aborted_latency: OutcomeStats,
    /// Latency of failed transactions.
    pub failed_latency: OutcomeStats,
    /// Committed-latency CDF (one point per distinct latency).
    pub cdf: Vec<CdfPoint>,
}

/// Fault-injection summary of a run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Device actions failed by injection (from [`Tropic::counters`]).
    pub injected: u64,
    /// Device actions that passed the fault plans.
    pub passed: u64,
    /// Leader kills applied.
    pub leader_kills: u64,
    /// The applied fault timeline.
    pub events: Vec<AppliedFault>,
}

/// Machine-readable result of a chaos run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Seed the run was generated from.
    pub seed: u64,
    /// Submission-window length (ms).
    pub duration_ms: u64,
    /// Configured arrival rate (txn/s).
    pub arrival_per_sec: f64,
    /// Client threads.
    pub clients: u64,
    /// Clients that went over the RPC socket.
    pub rpc_clients: u64,
    /// Pool VMs provisioned before the run.
    pub pool_vms: u64,
    /// Wall-clock length of the whole run including drain (ms).
    pub wall_ms: u64,
    /// Total acknowledged submissions.
    pub submitted: u64,
    /// Total committed.
    pub committed: u64,
    /// Total aborted.
    pub aborted: u64,
    /// Total failed.
    pub failed: u64,
    /// Acknowledged submissions with no terminal outcome — **must be zero**
    /// for the no-acknowledged-loss invariant to hold.
    pub acked_lost: u64,
    /// Per-lane breakdown, in drain order (hi, norm, batch).
    pub lanes: Vec<LaneReport>,
    /// Fault-injection summary.
    pub faults: FaultSummary,
}

impl ChaosReport {
    /// The report for lane `name` (`hi`, `norm`, `batch`).
    pub fn lane(&self, name: &str) -> Option<&LaneReport> {
        self.lanes.iter().find(|l| l.lane == name)
    }

    /// Serializes the report as JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report is serializable")
    }
}

struct Sample {
    priority: Priority,
    state: Option<TxnState>,
    latency_ms: u64,
}

/// Runs the chaos workload against a live platform.
///
/// `devices` enables the device-fault portion of the schedule; with `None`
/// (e.g. [`ExecMode::LogicalOnly`](tropic_core::ExecMode)) device-scoped
/// faults are skipped (still recorded in the timeline as skipped). The
/// platform should run ≥ 2 controllers when the schedule kills leaders, or
/// nothing will take over until the restart.
///
/// The run has three phases: provision the VM pool (faults not yet
/// applied), the open-loop submission window with the fault injector
/// running concurrently, and the drain (every acknowledged submission is
/// awaited until [`ChaosSpec::drain_timeout`] past the window).
pub fn run_chaos(
    platform: &Tropic,
    topo: &TopologySpec,
    devices: Option<&TCloudDevices>,
    spec: &ChaosSpec,
) -> ChaosReport {
    let plan = spec.plan(topo);
    let started = Instant::now();

    // Phase 1: provision the pool (no faults are applied yet).
    let setup = platform.client();
    let mut pool_ok = 0u64;
    for vm in &plan.pool {
        let req = TxnRequest::new("spawnVM")
            .args(topo.spawn_args(&vm.vm, vm.host, spec.vm_mem_mb))
            .priority(vm.priority)
            .label("workload", "chaos-pool");
        if let Ok(handle) = setup.submit_request(req) {
            if let Ok(outcome) = handle.wait_timeout(spec.drain_timeout) {
                if outcome.state == TxnState::Committed {
                    pool_ok += 1;
                }
            }
        }
    }

    // Phase 2+3: load + faults, then drain. The injector and the submitter
    // threads share the scope; samples merge through a mutex at the end.
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    let submit_errors: Mutex<Vec<(Priority, u64)>> = Mutex::new(Vec::new());
    let applied: Mutex<Vec<AppliedFault>> = Mutex::new(Vec::new());
    let leader_kills = Mutex::new(0u64);
    let load_start = Instant::now();
    let drain_deadline = load_start + Duration::from_millis(spec.duration_ms) + spec.drain_timeout;

    std::thread::scope(|scope| {
        // Fault injector.
        scope.spawn(|| {
            let mut restarts: Vec<(u64, usize)> = Vec::new();
            let mut schedule = spec.faults.clone();
            schedule.sort_by_key(|f| f.at_ms);
            let mut next = 0usize;
            loop {
                let due_restart = restarts.iter().map(|(at, _)| *at).min();
                let due_fault = schedule.get(next).map(|f| f.at_ms);
                let Some(due) = [due_restart, due_fault].into_iter().flatten().min() else {
                    break;
                };
                let target = load_start + Duration::from_millis(due);
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                let now_ms = load_start.elapsed().as_millis() as u64;
                if let Some(pos) = restarts.iter().position(|(at, _)| *at == due) {
                    let (_, idx) = restarts.remove(pos);
                    platform.restart_controller(idx);
                    applied.lock().unwrap().push(AppliedFault {
                        at_ms: due,
                        applied_at_ms: now_ms,
                        description: format!("restart controller {idx}"),
                    });
                    continue;
                }
                let fault = &schedule[next];
                next += 1;
                let description = apply_fault(
                    platform,
                    devices,
                    &fault.kind,
                    due,
                    &mut restarts,
                    &leader_kills,
                );
                applied.lock().unwrap().push(AppliedFault {
                    at_ms: fault.at_ms,
                    applied_at_ms: now_ms,
                    description,
                });
            }
            if spec.heal_after_load {
                // Standing fault plans stay live for the whole submission
                // window even if the scripted events are exhausted early;
                // healing only starts once the open-loop load ends.
                let end = load_start + Duration::from_millis(spec.duration_ms);
                let now = Instant::now();
                if end > now {
                    std::thread::sleep(end - now);
                }
                heal(platform, devices);
            }
        });

        // Submitter clients.
        for client_idx in 0..spec.clients {
            let arrivals: Vec<&Arrival> = plan
                .arrivals
                .iter()
                .filter(|a| a.client == client_idx)
                .collect();
            let samples = &samples;
            let submit_errors = &submit_errors;
            scope.spawn(move || {
                // No socket: fall back to the in-process client so the load
                // still runs.
                let client = spec
                    .rpc_addr
                    .as_deref()
                    .filter(|_| client_idx < spec.rpc_clients)
                    .and_then(|addr| TropicClient::connect(addr).ok())
                    .unwrap_or_else(|| platform.client());

                let mut acked: Vec<(TxnId, Priority)> = Vec::new();
                let mut errors: Vec<(Priority, u64)> = Vec::new();
                for arrival in arrivals {
                    let target = load_start + Duration::from_millis(arrival.at_ms);
                    let now = Instant::now();
                    if target > now {
                        std::thread::sleep(target - now);
                    }
                    let request = spec.request_for(topo, &arrival.op, arrival.priority);
                    match client.submit_request(request) {
                        Ok(h) => acked.push((h.id(), arrival.priority)),
                        Err(_) => errors.push((arrival.priority, 1)),
                    }
                }

                // Drain: every acknowledged submission must reach a
                // terminal state before the deadline, leader kills and
                // device storms notwithstanding.
                let mut local_samples = Vec::with_capacity(acked.len());
                for (id, priority) in acked {
                    let mut resolved = None;
                    loop {
                        let now = Instant::now();
                        if now >= drain_deadline {
                            break;
                        }
                        let slice = (drain_deadline - now).min(Duration::from_secs(2));
                        match client.handle(id).wait_timeout(slice) {
                            Ok(outcome) => {
                                resolved = Some(outcome);
                                break;
                            }
                            Err(e) if e.retryable() => continue,
                            Err(_) => break,
                        }
                    }
                    local_samples.push(match resolved {
                        Some(outcome) => Sample {
                            priority,
                            state: Some(outcome.state),
                            latency_ms: outcome.latency_ms,
                        },
                        None => Sample {
                            priority,
                            state: None,
                            latency_ms: 0,
                        },
                    });
                }
                samples.lock().unwrap().extend(local_samples);
                submit_errors.lock().unwrap().extend(errors);
            });
        }
    });

    let samples = samples.into_inner().unwrap();
    let submit_errors = submit_errors.into_inner().unwrap();
    let mut lanes = Vec::new();
    for priority in Priority::ALL {
        let mut committed = Vec::new();
        let mut aborted = Vec::new();
        let mut failed = Vec::new();
        let mut unresolved = 0u64;
        for s in samples.iter().filter(|s| s.priority == priority) {
            match s.state {
                Some(TxnState::Committed) => committed.push(s.latency_ms),
                Some(TxnState::Aborted) => aborted.push(s.latency_ms),
                Some(TxnState::Failed) => failed.push(s.latency_ms),
                Some(_) => unresolved += 1,
                None => unresolved += 1,
            }
        }
        let submitted = (committed.len() + aborted.len() + failed.len()) as u64 + unresolved;
        let errors: u64 = submit_errors
            .iter()
            .filter(|(p, _)| *p == priority)
            .map(|(_, n)| n)
            .sum();
        let terminal = (committed.len() + aborted.len() + failed.len()) as f64;
        let cdf_stats = LatencyStats::new(committed.clone());
        lanes.push(LaneReport {
            lane: priority.lane().to_owned(),
            submitted,
            submit_errors: errors,
            committed: committed.len() as u64,
            aborted: aborted.len() as u64,
            failed: failed.len() as u64,
            unresolved,
            abort_rate: if terminal > 0.0 {
                (aborted.len() + failed.len()) as f64 / terminal
            } else {
                0.0
            },
            committed_latency: OutcomeStats::from_samples(committed),
            aborted_latency: OutcomeStats::from_samples(aborted),
            failed_latency: OutcomeStats::from_samples(failed),
            cdf: cdf_stats
                .cdf_points()
                .into_iter()
                .map(|(ms, frac)| CdfPoint { ms, frac })
                .collect(),
        });
    }

    let counters = platform.counters();
    ChaosReport {
        seed: spec.seed,
        duration_ms: spec.duration_ms,
        arrival_per_sec: spec.arrival_per_sec,
        clients: spec.clients as u64,
        rpc_clients: spec.rpc_clients.min(spec.clients) as u64,
        pool_vms: pool_ok,
        wall_ms: started.elapsed().as_millis() as u64,
        submitted: lanes.iter().map(|l| l.submitted).sum(),
        committed: lanes.iter().map(|l| l.committed).sum(),
        aborted: lanes.iter().map(|l| l.aborted).sum(),
        failed: lanes.iter().map(|l| l.failed).sum(),
        acked_lost: lanes.iter().map(|l| l.unresolved).sum(),
        lanes,
        faults: FaultSummary {
            injected: counters.faults_injected,
            passed: counters.faults_passed,
            leader_kills: leader_kills.into_inner().unwrap(),
            events: applied.into_inner().unwrap(),
        },
    }
}

fn apply_fault(
    platform: &Tropic,
    devices: Option<&TCloudDevices>,
    kind: &FaultKind,
    at_ms: u64,
    restarts: &mut Vec<(u64, usize)>,
    leader_kills: &Mutex<u64>,
) -> String {
    match kind {
        FaultKind::KillLeader { restart_after_ms } => match platform.crash_leader() {
            Some(idx) => {
                *leader_kills.lock().unwrap() += 1;
                if let Some(after) = restart_after_ms {
                    restarts.push((at_ms + after, idx));
                }
                format!(
                    "kill-leader {}",
                    platform.controller_name(idx).unwrap_or("?")
                )
            }
            None => "kill-leader (no leader)".into(),
        },
        FaultKind::DeviceDown { scope } => with_devices(devices, scope, "down", |d| {
            d.fault_plan().set_down(true);
        }),
        FaultKind::DeviceUp { scope } => with_devices(devices, scope, "up", |d| {
            d.fault_plan().set_down(false);
        }),
        FaultKind::EveryNth { scope, action, n } => {
            with_devices(devices, scope, &format!("every-{n}th {action}"), |d| {
                d.fault_plan().fail_every_nth(action, *n);
            })
        }
        FaultKind::OneShot { scope, action } => {
            with_devices(devices, scope, &format!("one-shot {action}"), |d| {
                d.fault_plan().fail_once(action);
            })
        }
        FaultKind::Probability { scope, action, p } => {
            with_devices(devices, scope, &format!("p={p} {action}"), |d| {
                d.fault_plan().fail_action_with_prob(action, *p);
            })
        }
        FaultKind::ClearFaults { scope } => with_devices(devices, scope, "clear", |d| {
            d.fault_plan().clear();
        }),
    }
}

fn with_devices(
    devices: Option<&TCloudDevices>,
    scope: &FaultScope,
    what: &str,
    f: impl FnMut(&dyn Device),
) -> String {
    match devices {
        Some(devices) => {
            scope.for_each_plan(devices, f);
            format!("{what} {}", scope.describe())
        }
        None => format!("{what} {} (skipped: no devices)", scope.describe()),
    }
}

fn heal(platform: &Tropic, devices: Option<&TCloudDevices>) {
    if let Some(devices) = devices {
        let scope = FaultScope::AllDevices;
        scope.for_each_plan(devices, |d| {
            d.fault_plan().clear();
            d.fault_plan().set_down(false);
        });
    }
    // Restart anything still crashed so the drain can converge.
    let mut idx = 0;
    while platform.controller_name(idx).is_some() {
        platform.restart_controller(idx);
        idx += 1;
    }
}

/// Appends `junk` to the newest WAL segment of every `replica-*` directory
/// under `data_dir`, simulating a crash that tore the log tail mid-record.
/// Returns how many segments were torn. Recovery
/// ([`Tropic::recover`]) must truncate the tail at the last valid record
/// and lose nothing that was acknowledged.
pub fn tear_wal_tails(data_dir: &std::path::Path, junk: &[u8]) -> std::io::Result<usize> {
    use std::io::Write;
    let mut torn = 0;
    for entry in std::fs::read_dir(data_dir)? {
        let entry = entry?;
        let is_replica = entry.file_type()?.is_dir()
            && entry.file_name().to_string_lossy().starts_with("replica-");
        if !is_replica {
            continue;
        }
        let mut segments: Vec<std::path::PathBuf> = std::fs::read_dir(entry.path())?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .map(|n| {
                        let n = n.to_string_lossy();
                        n.starts_with("wal-") && n.ends_with(".log")
                    })
                    .unwrap_or(false)
            })
            .collect();
        segments.sort();
        if let Some(newest) = segments.last() {
            let mut file = std::fs::OpenOptions::new().append(true).open(newest)?;
            file.write_all(junk)?;
            file.sync_all()?;
            torn += 1;
        }
    }
    Ok(torn)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> TopologySpec {
        TopologySpec {
            compute_hosts: 4,
            storage_hosts: 1,
            routers: 0,
            storage_capacity_mb: 1_000_000,
            ..Default::default()
        }
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let spec = ChaosSpec::default();
        let a = spec.plan(&topo());
        let b = spec.plan(&topo());
        assert_eq!(a, b, "same seed must expand to the identical plan");
        let other = ChaosSpec {
            seed: 43,
            ..ChaosSpec::default()
        };
        assert_ne!(a, other.plan(&topo()), "a different seed must diverge");
    }

    #[test]
    fn plan_arrivals_sorted_and_rate_plausible() {
        let spec = ChaosSpec {
            duration_ms: 10_000,
            arrival_per_sec: 50.0,
            ..Default::default()
        };
        let plan = spec.plan(&topo());
        assert!(plan.arrivals.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        // 10 s at 50/s ⇒ ~500 arrivals; Poisson noise stays well inside
        // ±40% at this count.
        let n = plan.arrivals.len();
        assert!((300..700).contains(&n), "got {n} arrivals");
        assert!(plan.arrivals.iter().all(|a| a.at_ms < 10_000));
        assert!(plan.arrivals.iter().all(|a| a.client < spec.clients));
    }

    #[test]
    fn plan_toggles_alternate_per_pool_vm() {
        let spec = ChaosSpec {
            duration_ms: 20_000,
            arrival_per_sec: 20.0,
            ops: OpWeights {
                spawn: 0,
                toggle: 1,
                migrate: 0,
            },
            pool_vms: 2,
            ..Default::default()
        };
        let plan = spec.plan(&topo());
        for vm in ["pool0", "pool1"] {
            let toggles: Vec<bool> = plan
                .arrivals
                .iter()
                .filter_map(|a| match &a.op {
                    ChaosOp::Toggle { vm: v, stop, .. } if v == vm => Some(*stop),
                    _ => None,
                })
                .collect();
            assert!(!toggles.is_empty());
            // First op on a running pool VM is a stop, then strict
            // alternation (the generation model tracks power state).
            assert!(toggles[0]);
            assert!(toggles.windows(2).all(|w| w[0] != w[1]));
        }
    }

    #[test]
    fn plan_ops_ride_their_pool_vms_lane() {
        let spec = ChaosSpec {
            duration_ms: 10_000,
            ops: OpWeights {
                spawn: 1,
                toggle: 2,
                migrate: 1,
            },
            ..Default::default()
        };
        let plan = spec.plan(&topo());
        for arrival in &plan.arrivals {
            let vm = match &arrival.op {
                ChaosOp::Toggle { vm, .. } | ChaosOp::Migrate { vm, .. } => vm,
                ChaosOp::Spawn { .. } => continue,
            };
            let pool = plan.pool.iter().find(|p| &p.vm == vm).unwrap();
            assert_eq!(
                arrival.priority, pool.priority,
                "pool ops must stay in one lane for per-VM FIFO"
            );
        }
    }

    #[test]
    fn storm_schedule_deterministic_and_sorted() {
        let spec = StormSpec::default();
        let a = spec.generate();
        assert_eq!(a, spec.generate());
        assert!(a.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        let kills = a
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::KillLeader { .. }))
            .count();
        assert_eq!(kills, spec.leader_kills);
        // Down bursts pair a Down with an Up, in order.
        let downs: Vec<&ScheduledFault> = a
            .iter()
            .filter(|f| {
                matches!(
                    f.kind,
                    FaultKind::DeviceDown { .. } | FaultKind::DeviceUp { .. }
                )
            })
            .collect();
        assert_eq!(downs.len(), 2 * spec.down_bursts);
        let other = StormSpec {
            seed: 7,
            ..StormSpec::default()
        };
        assert_ne!(a, other.generate());
    }

    #[test]
    fn drift_storm_schedule_deterministic_and_flaps_paired() {
        let spec = DriftStormSpec::default();
        let a = spec.generate();
        assert_eq!(a, spec.generate(), "same seed must yield the same storm");
        assert!(a.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        let downs = a
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::DeviceDown { .. }))
            .count();
        let ups = a
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::DeviceUp { .. }))
            .count();
        assert_eq!(downs, spec.flaps);
        assert_eq!(ups, spec.flaps, "every flap must bring its host back up");
        // Each Down is followed by the matching Up exactly flap_down_ms
        // later, on the same host.
        for f in &a {
            if let FaultKind::DeviceDown { scope } = &f.kind {
                let up_at = f.at_ms + spec.flap_down_ms;
                assert!(
                    a.iter().any(|g| g.at_ms == up_at
                        && matches!(&g.kind, FaultKind::DeviceUp { scope: s } if s == scope)),
                    "flap at {} ms has no matching up",
                    f.at_ms
                );
            }
        }
        let reseeded = DriftStormSpec {
            seed: 7,
            ..DriftStormSpec::default()
        };
        assert_ne!(a, reseeded.generate());
    }

    #[test]
    fn report_lane_lookup_and_json() {
        let report = ChaosReport {
            lanes: vec![LaneReport {
                lane: "hi".into(),
                submitted: 3,
                committed: 3,
                ..Default::default()
            }],
            ..Default::default()
        };
        assert_eq!(report.lane("hi").unwrap().submitted, 3);
        assert!(report.lane("batch").is_none());
        let json = report.to_json();
        let back: ChaosReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.lane("hi").unwrap().committed, 3);
    }
}
