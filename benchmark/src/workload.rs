//! The four workloads and their seeded request generators.
//!
//! The seed drives host placement (a permutation of the storage groups a
//! client walks, plus the host within each group), the slot-to-host
//! assignment of the contended workload, and the Poisson gaps of the open
//! loop. The platform only ever sees the generated requests.

use std::collections::VecDeque;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tropic_core::TxnRequest;
use tropic_model::Value;
use tropic_tcloud::TopologySpec;

/// Load-generator threads (and connections on the socket workloads).
pub const CLIENTS: usize = 2;
/// Transactions each closed-loop client keeps in flight.
pub const WINDOW: usize = 8;
/// Uncounted transactions that end every set-up.
pub const WARMUP_TXNS: usize = 64;
/// Memory of every spawned VM (MB).
const VM_MEM_MB: i64 = 2_048;
/// Compute hosts that share one storage host (`TopologySpec::storage_for_host`).
const HOSTS_PER_STORAGE: usize = 4;

/// How load is offered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// Closed loop: each client alternates a wave of `WINDOW` `spawnVM`
    /// with a wave of `destroyVM` of the same VMs.
    Waves,
    /// Open loop: seeded Poisson arrivals at `rate_tps`, alternately
    /// `spawnVM` and `destroyVM` of the oldest live VM.
    Open {
        /// Arrivals per second.
        rate_tps: f64,
    },
    /// Closed loop: each client owns `WINDOW` VM slots cycling
    /// spawn → stop → start → migrate → destroy, retrying aborted steps.
    Slots,
}

/// One workload's configuration. Everything not listed stays at
/// `PlatformConfig::default()`.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub compute_hosts: usize,
    pub storage_hosts: usize,
    /// Coordination store on disk with real fsync, instead of in memory.
    pub durable: bool,
    /// Clients go through `RemoteClient` over loopback, instead of
    /// `TropicClient` in-process.
    pub socket: bool,
    /// `ExecMode::Physical` on zero-latency simulated devices with every
    /// fifth `exportImage` per storage device failing.
    pub physical: bool,
    /// Modeled device latency added to every WAL fsync while measuring
    /// (`CoordService::set_simulated_fsync_latency`, dialled in after
    /// set-up as the repo's own benches do). See README "Modeled fsync".
    pub modeled_fsync: Duration,
    pub workers: usize,
    pub shape: Shape,
}

/// The device time modeled on top of each real fsync on the durable
/// workloads: about four times this machine's own fsync, so the virtual
/// disk's drift moves the result by a fifth of what it otherwise would.
const MODELED_FSYNC: Duration = Duration::from_millis(1);

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "inproc_mem_1k",
        compute_hosts: 640,
        storage_hosts: 160,
        durable: false,
        socket: false,
        physical: false,
        modeled_fsync: Duration::ZERO,
        workers: 1,
        shape: Shape::Waves,
    },
    Workload {
        name: "socket_durable_16k",
        compute_hosts: 10_900,
        storage_hosts: 2_725,
        durable: true,
        socket: true,
        physical: false,
        modeled_fsync: MODELED_FSYNC,
        workers: 1,
        shape: Shape::Waves,
    },
    Workload {
        name: "socket_durable_16k_open20",
        compute_hosts: 10_900,
        storage_hosts: 2_725,
        durable: true,
        socket: true,
        physical: false,
        modeled_fsync: MODELED_FSYNC,
        workers: 1,
        shape: Shape::Open { rate_tps: 20.0 },
    },
    Workload {
        name: "inproc_physical_contended",
        compute_hosts: 8,
        storage_hosts: 2,
        durable: false,
        socket: false,
        physical: true,
        modeled_fsync: Duration::ZERO,
        workers: 2,
        shape: Shape::Slots,
    },
];

/// Every `n`-th `exportImage` on each storage device fails on the
/// contended workload. No undo path invokes `exportImage`, so each fault
/// yields `Aborted` with a real one-step undo, never `Failed`.
pub const FAULT_ACTION: &str = "exportImage";
pub const FAULT_EVERY_NTH: u64 = 5;

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The provisioned topology. Capacities are far above what the load
    /// can fill, so no request is refused for space.
    pub fn topology(&self) -> TopologySpec {
        TopologySpec {
            compute_hosts: self.compute_hosts,
            storage_hosts: self.storage_hosts,
            routers: 0,
            host_mem_mb: 1_000_000,
            storage_capacity_mb: 1_000_000_000,
            ..Default::default()
        }
    }
}

/// One generated stored-procedure call.
#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    pub proc_name: &'static str,
    pub args: Vec<Value>,
}

impl Req {
    pub fn to_request(&self) -> TxnRequest {
        TxnRequest::new(self.proc_name).args(self.args.clone())
    }
}

fn spawn(spec: &TopologySpec, vm: &str, host: usize) -> Req {
    Req {
        proc_name: "spawnVM",
        args: spec.spawn_args(vm, host, VM_MEM_MB),
    }
}

/// `destroyVM` of a VM now on `host` whose image lives on `home`'s
/// storage server (they differ after a migration).
fn destroy(spec: &TopologySpec, vm: &str, host: usize, home: usize) -> Req {
    Req {
        proc_name: "destroyVM",
        args: vec![
            Value::from(TopologySpec::host_path(host).to_string()),
            Value::from(vm),
            Value::from(TopologySpec::storage_path(spec.storage_for_host(home)).to_string()),
        ],
    }
}

fn toggle(proc_name: &'static str, vm: &str, host: usize) -> Req {
    Req {
        proc_name,
        args: vec![
            Value::from(TopologySpec::host_path(host).to_string()),
            Value::from(vm),
        ],
    }
}

fn migrate(vm: &str, src: usize, dst: usize) -> Req {
    Req {
        proc_name: "migrateVM",
        args: vec![
            Value::from(TopologySpec::host_path(src).to_string()),
            Value::from(TopologySpec::host_path(dst).to_string()),
            Value::from(vm),
        ],
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// One RNG stream per (seed, client), so clients draw independently.
fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Host placement shared by the wave and open-loop generators: a client
/// walks a seeded permutation of its own storage groups and picks a seeded
/// host inside each, so requests in flight together never share a host or
/// a storage server and the only lock conflicts are the contended
/// workload's.
struct Placement {
    rng: StdRng,
    groups: Vec<usize>,
    cursor: usize,
    compute_hosts: usize,
}

impl Placement {
    fn new(wl: &Workload, seed: u64, client: usize, clients: usize) -> Self {
        let mut all: Vec<usize> = (0..wl.storage_hosts).collect();
        // Every client shuffles the same list the same way, then keeps its
        // own stride of it: the shares are disjoint.
        shuffle(&mut all, &mut StdRng::seed_from_u64(seed));
        let groups: Vec<usize> = all.into_iter().skip(client).step_by(clients).collect();
        assert!(groups.len() >= WINDOW, "too few storage groups per client");
        Placement {
            rng: client_rng(seed, client),
            groups,
            cursor: 0,
            compute_hosts: wl.compute_hosts,
        }
    }

    fn next_host(&mut self) -> usize {
        let group = self.groups[self.cursor % self.groups.len()];
        self.cursor += 1;
        let host = group * HOSTS_PER_STORAGE + self.rng.gen_range(0..HOSTS_PER_STORAGE);
        host.min(self.compute_hosts - 1)
    }
}

/// Closed-loop waves for one client.
pub struct WaveGen {
    spec: TopologySpec,
    place: Placement,
    client: usize,
    wave: u64,
}

impl WaveGen {
    pub fn new(wl: &Workload, seed: u64, client: usize) -> Self {
        WaveGen {
            spec: wl.topology(),
            place: Placement::new(wl, seed, client, CLIENTS),
            client,
            wave: 0,
        }
    }

    /// The next `WINDOW` spawns and the destroys that take them down again.
    pub fn next_pair(&mut self) -> (Vec<Req>, Vec<Req>) {
        let mut spawns = Vec::with_capacity(WINDOW);
        let mut destroys = Vec::with_capacity(WINDOW);
        for j in 0..WINDOW {
            let host = self.place.next_host();
            let vm = format!("c{}w{}v{}", self.client, self.wave, j);
            spawns.push(spawn(&self.spec, &vm, host));
            destroys.push(destroy(&self.spec, &vm, host, host));
        }
        self.wave += 1;
        (spawns, destroys)
    }
}

/// Open-loop arrivals. The first `WARMUP_TXNS` requests are spawns that
/// fill the pool during warm-up; after them spawns and destroys alternate,
/// each destroy taking the oldest VM, whose spawn sits `WARMUP_TXNS`
/// spawns ahead of it in the same FIFO input lane.
pub struct OpenGen {
    spec: TopologySpec,
    place: Placement,
    rate_tps: f64,
    live: VecDeque<(String, usize)>,
    n: u64,
}

impl OpenGen {
    pub fn new(wl: &Workload, seed: u64) -> Self {
        let Shape::Open { rate_tps } = wl.shape else {
            panic!("{} is not an open-loop workload", wl.name);
        };
        OpenGen {
            spec: wl.topology(),
            place: Placement::new(wl, seed, 0, 1),
            rate_tps,
            live: VecDeque::new(),
            n: 0,
        }
    }

    /// Due times for one measured window, as offsets from its start: a
    /// Poisson process at `rate_tps` conditioned on its expected count, that
    /// is `rate_tps * span` seeded uniform times in order. Fixing the count
    /// keeps the seed's Poisson count (+-5 % at 400 arrivals) out of
    /// `throughput_tps`; the gaps stay exponential.
    pub fn schedule(&mut self, span: Duration) -> Vec<Duration> {
        let arrivals = (self.rate_tps * span.as_secs_f64()).round() as usize;
        let mut due: Vec<Duration> = (0..arrivals)
            .map(|_| span.mul_f64(self.place.rng.gen::<f64>()))
            .collect();
        due.sort_unstable();
        due
    }

    pub fn next_request(&mut self) -> Req {
        let n = self.n;
        self.n += 1;
        let warm = n < WARMUP_TXNS as u64;
        if warm || (n - WARMUP_TXNS as u64).is_multiple_of(2) {
            let host = self.place.next_host();
            let vm = format!("o{n}");
            let req = spawn(&self.spec, &vm, host);
            self.live.push_back((vm, host));
            req
        } else {
            let (vm, host) = self.live.pop_front().expect("pool filled by warm-up");
            destroy(&self.spec, &vm, host, host)
        }
    }
}

/// Steps of one VM slot's life on the contended workload.
const SLOT_STEPS: usize = 5;

#[derive(Clone, Debug)]
struct Slot {
    home: usize,
    step: usize,
    cycle: u64,
}

/// The contended workload's slots for one client.
pub struct SlotGen {
    spec: TopologySpec,
    seed: u64,
    client: usize,
    hosts: usize,
    slots: Vec<Slot>,
}

impl SlotGen {
    pub fn new(wl: &Workload, seed: u64, client: usize) -> Self {
        // Each client has one slot at home on every host, and the seed only
        // swaps the two halves of the host ring (and with them the two
        // storage servers): a symmetry of the topology, so the lock
        // conflicts have the same structure whatever the seed. Any other
        // turn of the ring changes which of a client's back-to-back
        // submissions share a storage server, and with it throughput by
        // more than 10 %.
        assert_eq!(WINDOW, wl.compute_hosts, "one slot per client per host");
        let turn = StdRng::seed_from_u64(seed).gen_range(0..2usize) * (wl.compute_hosts / 2);
        let slots = (0..WINDOW)
            .map(|i| Slot {
                home: (i + turn) % wl.compute_hosts,
                step: 0,
                cycle: 0,
            })
            .collect();
        SlotGen {
            spec: wl.topology(),
            seed,
            client,
            hosts: wl.compute_hosts,
            slots,
        }
    }

    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The request for `slot`'s current step.
    pub fn request(&self, slot: usize) -> Req {
        let s = &self.slots[slot];
        let vm = format!("p{}s{}c{}x{:x}", self.client, slot, s.cycle, self.seed);
        let next = (s.home + 1) % self.hosts;
        match s.step {
            0 => spawn(&self.spec, &vm, s.home),
            1 => toggle("stopVM", &vm, s.home),
            2 => toggle("startVM", &vm, s.home),
            3 => migrate(&vm, s.home, next),
            _ => destroy(&self.spec, &vm, next, s.home),
        }
    }

    /// `slot`'s step committed: move to the next one.
    pub fn advance(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        s.step += 1;
        if s.step == SLOT_STEPS {
            s.step = 0;
            s.cycle += 1;
        }
    }

    /// Slots that hold a VM right now (spawn committed, destroy not yet).
    pub fn live_vms(&self) -> usize {
        self.slots.iter().filter(|s| s.step > 0).count()
    }
}

/// The first `n` requests of a workload in an order that is valid when
/// replayed by one thread against a fresh topology: what the layer probes
/// replay, and what the determinism test compares. The contended
/// workload's list assumes every step commits.
pub fn sample_requests(wl: &Workload, seed: u64, n: usize) -> Vec<Req> {
    let mut out = Vec::with_capacity(n + 2 * WINDOW);
    match wl.shape {
        Shape::Waves => {
            let mut gens: Vec<WaveGen> = (0..CLIENTS).map(|c| WaveGen::new(wl, seed, c)).collect();
            while out.len() < n {
                for g in &mut gens {
                    let (spawns, destroys) = g.next_pair();
                    out.extend(spawns);
                    out.extend(destroys);
                }
            }
        }
        Shape::Open { .. } => {
            let mut g = OpenGen::new(wl, seed);
            while out.len() < n {
                out.push(g.next_request());
            }
        }
        Shape::Slots => {
            let mut gens: Vec<SlotGen> = (0..CLIENTS).map(|c| SlotGen::new(wl, seed, c)).collect();
            while out.len() < n {
                for g in &mut gens {
                    for slot in 0..g.slot_count() {
                        out.push(g.request(slot));
                        g.advance(slot);
                    }
                }
            }
        }
    }
    out.truncate(n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(wl: &Workload, seed: u64) -> Vec<u8> {
        let reqs: Vec<TxnRequest> = sample_requests(wl, seed, 400)
            .iter()
            .map(Req::to_request)
            .collect();
        serde_json::to_vec(&reqs).expect("requests serialize")
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        for wl in &WORKLOADS {
            assert_eq!(bytes(wl, 7), bytes(wl, 7), "{}", wl.name);
            assert_ne!(bytes(wl, 7), bytes(wl, 8), "{}", wl.name);
        }
    }

    #[test]
    fn open_loop_schedule_is_seeded_ordered_and_of_fixed_count() {
        let wl = Workload::by_name("socket_durable_16k_open20").unwrap();
        let span = Duration::from_secs(20);
        let schedule = |seed| OpenGen::new(wl, seed).schedule(span);
        assert_eq!(schedule(3), schedule(3));
        assert_ne!(schedule(3), schedule(4));
        for seed in 0..10 {
            let due = schedule(seed);
            assert_eq!(due.len(), 400);
            assert!(due.windows(2).all(|w| w[0] <= w[1]));
            assert!(*due.last().unwrap() < span);
        }
    }

    #[test]
    fn clients_in_flight_together_never_share_a_storage_group() {
        for name in ["inproc_mem_1k", "socket_durable_16k"] {
            let wl = Workload::by_name(name).unwrap();
            let mut gens: Vec<WaveGen> = (0..CLIENTS).map(|c| WaveGen::new(wl, 11, c)).collect();
            for _ in 0..50 {
                let mut storages: Vec<String> = gens
                    .iter_mut()
                    .flat_map(|g| g.next_pair().0)
                    .map(|r| r.args[3].as_str().unwrap().to_owned())
                    .collect();
                storages.sort();
                storages.dedup();
                assert_eq!(storages.len(), CLIENTS * WINDOW);
            }
        }
    }

    #[test]
    fn every_host_is_home_to_one_contended_slot_per_client() {
        let wl = Workload::by_name("inproc_physical_contended").unwrap();
        for seed in 0..20 {
            for c in 0..CLIENTS {
                let mut homes: Vec<usize> = SlotGen::new(wl, seed, c)
                    .slots
                    .iter()
                    .map(|s| s.home)
                    .collect();
                homes.sort_unstable();
                assert_eq!(homes, (0..wl.compute_hosts).collect::<Vec<_>>());
            }
        }
    }
}
