//! The replica ensemble and its totally-ordered broadcast.
//!
//! A leader replica assigns each write a zxid `(epoch << 32) | counter` and
//! replicates it to the followers through the [`SimNet`]; the write commits
//! once a quorum (including the leader) has acknowledged it, following the
//! protocol sketch of Reed & Junqueira cited by the paper (\[21\]). A leader
//! is elected only while a quorum of replicas is alive: the alive replica
//! with the highest zxid leads, and every other replica syncs from it.
//!
//! Replicas keep no op log. A follower that falls behind — crashed,
//! partitioned away, diverged or ahead of a new leader — catches up by one
//! state transfer: it installs a copy of the leader's store, as a Zab
//! leader may sync any follower by snapshot.
//!
//! ## Durability
//!
//! With a data directory ([`Ensemble::with_durability`]), each replica owns
//! a [`Durability`] handle: every committed op is appended to a segmented
//! write-ahead log before it is applied, and a full fuzzy snapshot is
//! written on a size/op-count policy, after which the on-disk segments are
//! truncated, bounding the disk. A state transfer is persisted as a
//! snapshot. [`Ensemble::recover`] rebuilds every replica from its latest
//! valid snapshot plus the log suffix, then lets laggards catch up from
//! the leader.
//!
//! Writes commit in groups ([`Ensemble::submit_group`]): each op keeps its
//! own zxid, WAL record and result, and the group shares one fsync per
//! replica. Every acking replica fsyncs the group before the group is
//! acknowledged, and a group is acknowledged only when a quorum of
//! replicas has done so. The replicas settle in parallel — each follower
//! on its own scoped thread, the leader on the caller's — so a group costs
//! about one fsync of wall time rather than one per replica.

use std::io;
use std::path::Path as StdPath;

use crate::error::{CoordError, CoordResult};
use crate::net::{NodeId, SimNet};
use crate::store::{Op, OpResult, StoreEvent, ZnodeStore};
use crate::wal::{encode_frame, Durability, DurabilityOptions};

/// A single ensemble replica: the store its committed ops materialize.
#[derive(Debug)]
struct Replica {
    id: NodeId,
    alive: bool,
    store: ZnodeStore,
    last_zxid: u64,
    durability: Option<Durability>,
}

impl Replica {
    fn new(id: NodeId) -> Self {
        Replica {
            id,
            alive: true,
            store: ZnodeStore::new(),
            last_zxid: 0,
            durability: None,
        }
    }

    /// Logs and applies one op. `frame` is the op's WAL record when the
    /// caller already encoded it; without one, a durable replica encodes
    /// its own.
    fn append_and_apply(
        &mut self,
        zxid: u64,
        op: &Op,
        frame: Option<&[u8]>,
    ) -> (CoordResult<OpResult>, Vec<StoreEvent>) {
        if !self.alive {
            // Fail-stopped earlier in this group: the rest of it is not
            // logged here; the replica heals by transfer after a restart.
            return (
                Err(CoordError::Durability("replica fail-stopped".into())),
                Vec::new(),
            );
        }
        // Log before apply: a crash between the two replays the op, which is
        // deterministic and therefore converges to the same state.
        if let Some(d) = self.durability.as_mut() {
            let appended = match frame {
                Some(frame) => d.append_frame(zxid, frame),
                None => d.append(zxid, op),
            };
            if let Err(e) = appended {
                // Fail-stop: a replica that cannot persist must not ack, or
                // it would report durability it does not have. It rejoins
                // via snapshot transfer once healed.
                self.alive = false;
                return (Err(CoordError::Durability(e.to_string())), Vec::new());
            }
        }
        self.last_zxid = zxid;
        self.store.apply(zxid, op)
    }

    /// Settles a committed batch on a durable replica: fsync, then a
    /// snapshot per policy. An in-memory replica has nothing to finish.
    fn finish_batch(&mut self) {
        if let Some(d) = self.durability.as_mut() {
            if d.commit_batch(self.last_zxid, &self.store).is_err() {
                self.alive = false;
            }
        }
    }

    /// Adopts a full-state transfer from the leader. Durable replicas
    /// persist the state as a snapshot so a later restart recovers without
    /// the leader.
    fn install_snapshot(&mut self, store: ZnodeStore, last_zxid: u64) {
        self.store = store;
        self.last_zxid = last_zxid;
        if let Some(d) = self.durability.as_mut() {
            if d.write_snapshot(last_zxid, &self.store).is_err() {
                self.alive = false;
            }
        }
    }
}

/// Counters describing broadcast and durability activity, reported by
/// experiments and the CI stats surfaces.
#[derive(Clone, Copy, Debug, Default)]
pub struct EnsembleStats {
    /// Committed writes (ops, one zxid each).
    pub committed: u64,
    /// Commit groups: writes committed together share one fsync round per
    /// replica, so `committed / groups` is the mean group size.
    pub groups: u64,
    /// Writes rejected for lack of quorum.
    pub no_quorum: u64,
    /// Ensemble-internal leader elections.
    pub elections: u64,
    /// Snapshots written across all replicas (policy and transfers).
    pub snapshots_written: u64,
    /// Always 0: every snapshot is full. Kept only because the benchmark
    /// harness still reports it.
    pub delta_snapshots_written: u64,
    /// WAL segment files rotated across all replicas.
    pub segments_rotated: u64,
    /// Bytes covered by completed fsyncs across all replicas.
    pub bytes_fsynced: u64,
    /// fsync calls issued against segment files across all replicas.
    pub fsyncs: u64,
    /// Directory fsyncs (renames, new segments, deletions) across all
    /// replicas.
    pub dir_fsyncs: u64,
    /// Always 0: every replica fsyncs each group before it acks, so no
    /// commit path waits on a sync window. Kept only because the
    /// end-to-end benchmark still reports it.
    pub pipeline_stalls: u64,
    /// Replicas recovered from disk (snapshot + log-suffix replay).
    pub recoveries: u64,
    /// Follower resyncs, each a full state transfer from the leader.
    pub snapshot_syncs: u64,
    /// Replicas that fail-stopped because their WAL/snapshot I/O failed:
    /// a replica that cannot persist stops acking rather than report
    /// durability it does not have.
    pub wal_fail_stops: u64,
}

/// A quorum-replicated znode store.
pub struct Ensemble {
    replicas: Vec<Replica>,
    net: SimNet,
    leader: Option<NodeId>,
    epoch: u64,
    counter: u64,
    stats: EnsembleStats,
    /// Zxid of the most recent committed write. An acking replica whose
    /// `last_zxid` trails this has missed a commit (a partition) and is
    /// healed *before* the next op applies, so no replica ever holds a
    /// hole below its own `last_zxid`.
    last_committed_zxid: u64,
}

impl Ensemble {
    /// Creates an in-memory ensemble of `n` replicas (odd sizes make
    /// sensible quorums) on a fresh simulated network.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "ensemble needs at least one replica");
        Self::assemble((0..n).map(Replica::new).collect())
    }

    /// Creates a durable ensemble: each replica persists its log and
    /// snapshots under `data_dir/replica-<id>`. **Formats** those
    /// directories, destroying any prior contents — use
    /// [`Ensemble::recover`] to resume from existing state instead.
    pub fn with_durability(
        n: usize,
        data_dir: &StdPath,
        opts: DurabilityOptions,
    ) -> io::Result<Self> {
        assert!(n >= 1, "ensemble needs at least one replica");
        let mut replicas = Vec::with_capacity(n);
        for id in 0..n {
            let dir = data_dir.join(replica_dir_name(id));
            let mut r = Replica::new(id);
            r.durability = Some(Durability::create(&dir, opts.clone())?);
            replicas.push(r);
        }
        Ok(Self::assemble(replicas))
    }

    fn assemble(replicas: Vec<Replica>) -> Self {
        let mut e = Ensemble {
            replicas,
            net: SimNet::new(),
            leader: Some(0),
            epoch: 1,
            counter: 0,
            stats: EnsembleStats::default(),
            last_committed_zxid: 0,
        };
        e.stats.elections = 1;
        e
    }

    /// Rebuilds an ensemble from `data_dir` after a full shutdown or crash:
    /// every replica loads its latest valid snapshot and silently replays
    /// its write-ahead-log suffix (no watch events fire during replay),
    /// the replica with the highest zxid leads under a fresh epoch, and
    /// laggards catch up from it by state transfer.
    pub fn recover(n: usize, data_dir: &StdPath, opts: DurabilityOptions) -> io::Result<Self> {
        assert!(n >= 1, "ensemble needs at least one replica");
        let mut replicas = Vec::with_capacity(n);
        let mut recoveries = 0u64;
        for id in 0..n {
            let dir = data_dir.join(replica_dir_name(id));
            let (durability, snapshot, suffix) = Durability::open(&dir, opts.clone())?;
            let (mut store, mut last_zxid) =
                snapshot.map_or((ZnodeStore::new(), 0), |(z, s)| (s, z));
            for (zxid, op) in suffix {
                // Replay is silent by construction: events never reach the
                // watch tables, which live a layer above the ensemble.
                let _ = store.apply(zxid, &op);
                last_zxid = zxid;
            }
            let mut r = Replica::new(id);
            r.store = store;
            r.last_zxid = last_zxid;
            r.durability = Some(durability);
            recoveries += 1;
            replicas.push(r);
        }
        let leader = replicas
            .iter()
            .max_by_key(|r| (r.last_zxid, std::cmp::Reverse(r.id)))
            .map(|r| r.id);
        let max_zxid = replicas.iter().map(|r| r.last_zxid).max().unwrap_or(0);
        let mut e = Ensemble {
            replicas,
            net: SimNet::new(),
            leader,
            epoch: (max_zxid >> 32) + 1,
            counter: 0,
            stats: EnsembleStats::default(),
            last_committed_zxid: max_zxid,
        };
        e.stats.elections = 1;
        e.stats.recoveries = recoveries;
        if let Some(leader) = leader {
            for id in 0..e.replicas.len() {
                e.sync_follower(leader, id);
            }
        }
        Ok(e)
    }

    /// The simulated network, for fault injection.
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Quorum size: a strict majority of the replicas.
    pub fn quorum(&self) -> usize {
        self.replica_count() / 2 + 1
    }

    /// The current leader replica, if one holds a quorum.
    pub fn leader(&self) -> Option<NodeId> {
        self.leader
    }

    /// Broadcast and durability statistics (the latter aggregated across
    /// every replica's [`Durability`] handle).
    pub fn stats(&self) -> EnsembleStats {
        let mut s = self.stats;
        for r in &self.replicas {
            if let Some(d) = &r.durability {
                let ds = d.stats();
                s.snapshots_written += ds.snapshots_written;
                s.segments_rotated += ds.segments_rotated;
                s.bytes_fsynced += ds.bytes_fsynced;
                s.fsyncs += ds.fsyncs;
                s.dir_fsyncs += ds.dir_fsyncs;
            }
        }
        s
    }

    /// Sets the modeled per-fsync device latency on every durable replica
    /// (zero, the initial value, adds nothing). Benches use this to populate
    /// a store at full speed and then measure the commit path against a
    /// realistic device.
    pub fn set_simulated_fsync_latency(&mut self, latency: std::time::Duration) {
        for r in &mut self.replicas {
            if let Some(d) = r.durability.as_mut() {
                d.set_simulated_fsync_latency(latency);
            }
        }
    }

    /// Last committed zxid of replica `id`.
    pub fn replica_last_zxid(&self, id: NodeId) -> Option<u64> {
        self.replicas.get(id).map(|r| r.last_zxid)
    }

    /// Durability counters of replica `id` alone (`None` for an in-memory
    /// replica), where [`Ensemble::stats`] sums them.
    #[cfg(test)]
    fn replica_durability_stats(&self, id: NodeId) -> Option<crate::wal::DurabilityStats> {
        self.replicas
            .get(id)?
            .durability
            .as_ref()
            .map(Durability::stats)
    }

    /// Crashes a replica: it stops acking and serving until restarted.
    pub fn crash_replica(&mut self, id: NodeId) {
        if let Some(r) = self.replicas.get_mut(id) {
            r.alive = false;
        }
        if self.leader == Some(id) {
            self.elect();
        }
    }

    /// Restarts a crashed replica. When no alive replica leads, the
    /// restart may complete a quorum and so elect one; the restarted
    /// replica then catches up from the leader.
    pub fn restart_replica(&mut self, id: NodeId) {
        let Some(r) = self.replicas.get_mut(id) else {
            return;
        };
        r.alive = true;
        if let Ok(leader) = self.lead() {
            self.sync_follower(leader, id);
        }
    }

    /// Brings `id` to the leader's state: nothing when it is caught up,
    /// otherwise a transfer of the leader's whole store. That one path
    /// serves a lagging, a diverged and an ahead-of-leader follower alike.
    fn sync_follower(&mut self, leader: NodeId, id: NodeId) {
        let l = &self.replicas[leader];
        if id == leader || self.replicas[id].last_zxid == l.last_zxid {
            return;
        }
        let (store, last_zxid) = (l.store.clone(), l.last_zxid);
        self.replicas[id].install_snapshot(store, last_zxid);
        self.stats.snapshot_syncs += 1;
    }

    /// Elects the alive replica with the highest zxid as leader, bumping
    /// the epoch and syncing reachable followers from it — but only while a
    /// quorum of replicas is alive. A minority may lack acknowledged
    /// writes, so without a quorum no replica leads.
    fn elect(&mut self) {
        let alive = self.replicas.iter().filter(|r| r.alive);
        let new_leader = if alive.clone().count() >= self.quorum() {
            alive
                .max_by_key(|r| (r.last_zxid, std::cmp::Reverse(r.id)))
                .map(|r| r.id)
        } else {
            None
        };
        self.leader = new_leader;
        if let Some(leader) = new_leader {
            self.epoch += 1;
            self.counter = 0;
            self.stats.elections += 1;
            // Followers that can reach the new leader sync to its state.
            for id in 0..self.replicas.len() {
                if id == leader || !self.replicas[id].alive {
                    continue;
                }
                if self.net.deliver(leader, id) {
                    self.sync_follower(leader, id);
                }
            }
        }
    }

    /// The alive replicas the leader can currently reach (itself included).
    fn reachable_from_leader(&self, leader: NodeId) -> Vec<NodeId> {
        self.replicas
            .iter()
            .filter(|r| r.alive)
            .filter(|r| r.id == leader || self.net.deliver(leader, r.id))
            .map(|r| r.id)
            .collect()
    }

    /// The alive leader, elected first if there is none. Without one the
    /// ensemble answers `NoQuorum` while too few replicas are alive to
    /// elect, and `Unavailable` when none is.
    fn lead(&mut self) -> CoordResult<NodeId> {
        if !self.leader.is_some_and(|l| self.is_alive(l)) {
            self.elect();
        }
        self.leader
            .ok_or_else(|| match self.replicas.iter().filter(|r| r.alive).count() {
                0 => CoordError::Unavailable,
                acks => CoordError::NoQuorum {
                    acks,
                    needed: self.quorum(),
                },
            })
    }

    fn is_alive(&self, id: NodeId) -> bool {
        self.replicas.get(id).is_some_and(|r| r.alive)
    }

    /// Submits one write through the broadcast protocol: a group of one
    /// (see [`Ensemble::submit_group`]).
    ///
    /// Returns the leader's apply result and the store events the op
    /// produced, or [`CoordError::NoQuorum`] when too few replicas ack (in
    /// which case nothing is applied anywhere).
    pub fn submit(&mut self, op: Op) -> (CoordResult<OpResult>, Vec<StoreEvent>) {
        let mut results = self.submit_group(std::slice::from_ref(&op));
        results
            .pop()
            .unwrap_or((Err(CoordError::Unavailable), Vec::new()))
    }

    /// Commits `ops` as one group. Each op takes the next zxid and gets its
    /// own WAL record, its own apply and its own result, in order — a
    /// failing op fails alone while its neighbours commit. What the group
    /// shares is the fsync: one `finish_batch` per acking replica, the
    /// replicas settling in parallel. Each op's WAL record is encoded once
    /// and the same bytes are appended on every replica.
    ///
    /// Returns one `(result, events)` per op, in order: the leader's apply
    /// result and the store events it produced. When too few replicas ack,
    /// every op fails with [`CoordError::NoQuorum`] and nothing is applied
    /// anywhere. When too few ackers survive the group's durability I/O,
    /// every op fails with [`CoordError::NoQuorum`] and no events: the
    /// survivors logged the group, but it is never acknowledged.
    pub fn submit_group(&mut self, ops: &[Op]) -> Vec<(CoordResult<OpResult>, Vec<StoreEvent>)> {
        let fail_all = |e: CoordError| ops.iter().map(|_| (Err(e.clone()), Vec::new())).collect();
        if ops.is_empty() {
            return Vec::new();
        }
        let leader = match self.lead() {
            Ok(leader) => leader,
            Err(e) => {
                if matches!(e, CoordError::NoQuorum { .. }) {
                    self.stats.no_quorum += ops.len() as u64;
                }
                return fail_all(e);
            }
        };

        // Propose phase: count replicas that receive and ack the proposal.
        let ackers = self.reachable_from_leader(leader);
        if ackers.len() < self.quorum() {
            self.stats.no_quorum += ops.len() as u64;
            return fail_all(CoordError::NoQuorum {
                acks: ackers.len(),
                needed: self.quorum(),
            });
        }

        // An acking replica that missed earlier commits (a healed partition
        // advanced `last_committed_zxid` past it) must catch up *before*
        // this group applies — otherwise its `last_zxid` would advance over
        // a hole and it would ack a state no leader holds.
        for &id in &ackers {
            let lagging =
                (self.replicas.get(id)).is_some_and(|r| r.last_zxid != self.last_committed_zxid);
            if id != leader && lagging {
                self.sync_follower(leader, id);
            }
        }

        // Commit phase: the group takes the next `ops.len()` zxids. A
        // record that fails to encode here is left to each replica, which
        // encodes it again, fails the same way and fail-stops.
        let (epoch, first) = (self.epoch, self.counter + 1);
        let zxid_of = |i: usize| (epoch << 32) | (first + i as u64);
        self.counter += ops.len() as u64;
        let durable = self.replicas.iter().any(|r| r.durability.is_some());
        let frames: Vec<Option<Vec<u8>>> = if durable {
            let encode = |(i, op)| encode_frame(zxid_of(i), op).ok();
            ops.iter().enumerate().map(encode).collect()
        } else {
            Vec::new()
        };
        let mut results = Vec::with_capacity(ops.len());
        // Phase one: append + apply the group on every acker.
        for &id in &ackers {
            let Some(r) = self.replicas.get_mut(id) else {
                continue;
            };
            for (i, op) in ops.iter().enumerate() {
                let frame = frames.get(i).and_then(Option::as_deref);
                let applied = r.append_and_apply(zxid_of(i), op, frame);
                if id == leader {
                    results.push(applied);
                }
            }
        }
        // Every acker has written the records: free them (a bootstrap
        // multi holds the whole initial tree) before the fsync waits and
        // any snapshot.
        drop(frames);
        // Phase two: settle each acker's group — fsync, then snapshot per
        // policy.
        if durable {
            self.settle_in_parallel(leader, &ackers);
        }
        // The survivors logged the group, so followers must catch up to it
        // whether or not it is acknowledged.
        self.last_committed_zxid = (epoch << 32) | self.counter;
        // Replicas whose durability I/O failed fail-stopped during the
        // phases above; they are counted here (after both loops, so one
        // failure doesn't hide another's) and heal via snapshot transfer
        // after a restart.
        let acks = ackers.iter().filter(|&&id| self.is_alive(id)).count();
        self.stats.wal_fail_stops += (ackers.len() - acks) as u64;
        if acks < self.quorum() {
            self.stats.no_quorum += ops.len() as u64;
            return fail_all(CoordError::NoQuorum {
                acks,
                needed: self.quorum(),
            });
        }
        self.stats.committed += ops.len() as u64;
        self.stats.groups += 1;
        results
    }

    /// Runs `finish_batch` on every acker at once: each follower on its own
    /// scoped thread, the leader on the calling thread, so the group's
    /// fsyncs overlap. A follower whose thread cannot be spawned has not
    /// fsynced, so it fail-stops.
    fn settle_in_parallel(&mut self, leader: NodeId, ackers: &[NodeId]) {
        let mut unspawned = Vec::new();
        std::thread::scope(|scope| {
            let mut on_caller = None;
            for r in self.replicas.iter_mut().filter(|r| ackers.contains(&r.id)) {
                if r.id == leader {
                    on_caller = Some(r);
                    continue;
                }
                let id = r.id;
                let settle = std::thread::Builder::new()
                    .name(format!("tropic-settle-{id}"))
                    .spawn_scoped(scope, move || r.finish_batch());
                if settle.is_err() {
                    unspawned.push(id);
                }
            }
            if let Some(r) = on_caller {
                r.finish_batch();
            }
        });
        for id in unspawned {
            if let Some(r) = self.replicas.get_mut(id) {
                r.alive = false;
            }
        }
    }

    /// Reads from the leader's store. Returns an error when no leader holds
    /// a quorum, whether it has led all along or was just elected.
    pub fn read<T>(&mut self, f: impl FnOnce(&ZnodeStore) -> T) -> CoordResult<T> {
        let leader = self.lead()?;
        let acks = self.reachable_from_leader(leader).len();
        if acks < self.quorum() {
            return Err(CoordError::NoQuorum {
                acks,
                needed: self.quorum(),
            });
        }
        Ok(f(&self.replicas[leader].store))
    }

    /// Verifies that every alive replica's store matches the leader's.
    /// Used by invariant tests.
    pub fn replicas_consistent(&self) -> bool {
        let Some(leader) = self.leader else {
            return true;
        };
        let reference = &self.replicas[leader];
        self.replicas
            .iter()
            .filter(|r| r.alive && r.last_zxid == reference.last_zxid)
            .all(|r| r.store == reference.store)
    }
}

fn replica_dir_name(id: NodeId) -> String {
    format!("replica-{id}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use bytes::Bytes;
    use std::time::{Duration, Instant};
    use tropic_model::Path;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn create_op(path: &str) -> Op {
        Op::Create {
            path: p(path),
            data: Bytes::from_static(b"d"),
            ephemeral_owner: None,
            sequential: false,
        }
    }

    fn quick_opts() -> DurabilityOptions {
        DurabilityOptions {
            snapshot_every_ops: 8,
            snapshot_max_wal_bytes: 0,
            segment_max_bytes: 1 << 16,
        }
    }

    #[test]
    fn writes_replicate_to_all() {
        let mut e = Ensemble::new(3);
        e.submit(create_op("/a")).0.unwrap();
        e.submit(create_op("/a/b")).0.unwrap();
        for r in &e.replicas {
            assert_eq!(r.store.node_count(), 3);
        }
        assert!(e.replicas_consistent());
        assert_eq!(e.stats().committed, 2);
    }

    #[test]
    fn survives_minority_crash() {
        let mut e = Ensemble::new(3);
        e.submit(create_op("/a")).0.unwrap();
        e.crash_replica(2);
        e.submit(create_op("/b")).0.unwrap();
        assert_eq!(e.replicas[0].store.node_count(), 3);
        assert_eq!(e.replicas[2].store.node_count(), 2);
        // The restarted replica catches up by one state transfer.
        e.restart_replica(2);
        assert_eq!(e.replicas[2].store.node_count(), 3);
        assert_eq!(e.stats().snapshot_syncs, 1);
        assert!(e.replicas_consistent());
    }

    #[test]
    fn lagging_replica_beyond_horizon_gets_snapshot_transfer() {
        let mut e = Ensemble::new(3);
        e.submit(create_op("/seed")).0.unwrap();
        e.crash_replica(2);
        for i in 0..20 {
            e.submit(create_op(&format!("/n{i}"))).0.unwrap();
        }
        // A long outage heals by one state transfer, as a short one does.
        e.restart_replica(2);
        assert_eq!(e.stats().snapshot_syncs, 1);
        assert_eq!(e.replicas[2].store.node_count(), 22);
        assert_eq!(e.replicas[2].last_zxid, e.replicas[0].last_zxid);
        assert!(e.replicas_consistent());
    }

    #[test]
    fn leader_crash_triggers_election() {
        let mut e = Ensemble::new(3);
        e.submit(create_op("/a")).0.unwrap();
        assert_eq!(e.leader(), Some(0));
        e.crash_replica(0);
        assert_ne!(e.leader(), Some(0));
        assert!(e.leader().is_some());
        // Writes continue under the new leader with a higher epoch.
        e.submit(create_op("/b")).0.unwrap();
        let leader = e.leader().unwrap();
        assert!(e.replicas[leader].store.exists(&p("/b")));
        assert!(e.replicas[leader].store.exists(&p("/a")));
        assert!(e.stats().elections >= 2);
    }

    #[test]
    fn majority_crash_blocks_writes() {
        let mut e = Ensemble::new(3);
        e.submit(create_op("/a")).0.unwrap();
        e.crash_replica(1);
        e.crash_replica(2);
        let (res, _) = e.submit(create_op("/b"));
        assert!(matches!(res, Err(CoordError::NoQuorum { .. })));
        // Nothing applied.
        assert!(!e.replicas[0].store.exists(&p("/b")));
        // Recovery after restart.
        e.restart_replica(1);
        e.submit(create_op("/b")).0.unwrap();
    }

    #[test]
    fn partition_isolating_leader_blocks_writes() {
        let mut e = Ensemble::new(3);
        e.submit(create_op("/a")).0.unwrap();
        e.net().partition(vec![vec![0], vec![1, 2]]);
        let (res, _) = e.submit(create_op("/b"));
        assert!(matches!(res, Err(CoordError::NoQuorum { .. })));
        e.net().heal();
        e.submit(create_op("/b")).0.unwrap();
    }

    #[test]
    fn acking_replica_that_missed_commits_heals_before_applying() {
        // A replica partitioned away while a quorum commits must not ack
        // later writes over the hole: it catches up first.
        let mut e = Ensemble::new(3);
        e.submit(create_op("/a")).0.unwrap();
        e.net().partition(vec![vec![0, 1], vec![2]]);
        e.submit(create_op("/b")).0.unwrap(); // committed by {0, 1} only
        assert_eq!(e.replicas[2].store.node_count(), 2);
        e.net().heal();
        e.submit(create_op("/c")).0.unwrap(); // replica 2 must pull /b first
        assert_eq!(e.replicas[2].store.node_count(), 4, "/b was skipped");
        assert_eq!(e.replicas[2].last_zxid, e.replicas[0].last_zxid);
        assert!(e.replicas_consistent());
        assert_eq!(e.stats().snapshot_syncs, 1);
    }

    #[test]
    fn all_crashed_is_unavailable() {
        let mut e = Ensemble::new(1);
        e.crash_replica(0);
        let (res, _) = e.submit(create_op("/x"));
        assert!(matches!(res, Err(CoordError::Unavailable)));
    }

    #[test]
    fn zxids_monotonic_across_epochs() {
        let mut e = Ensemble::new(3);
        e.submit(create_op("/a")).0.unwrap();
        let z1 = e.replicas[0].last_zxid;
        e.crash_replica(0);
        e.submit(create_op("/b")).0.unwrap();
        let leader = e.leader().unwrap();
        let z2 = e.replicas[leader].last_zxid;
        assert!(z2 > z1, "zxid must grow across epochs: {z1} vs {z2}");
    }

    #[test]
    fn read_requires_quorum() {
        let mut e = Ensemble::new(3);
        e.submit(create_op("/a")).0.unwrap();
        let exists = e.read(|s| s.exists(&p("/a"))).unwrap();
        assert!(exists);
        e.crash_replica(1);
        e.crash_replica(2);
        assert!(e.read(|s| s.exists(&p("/a"))).is_err());
    }

    #[test]
    fn durable_ensemble_recovers_after_total_loss() {
        let tmp = TempDir::new("tropic-ens-recover");
        let mut e = Ensemble::with_durability(3, tmp.path(), quick_opts()).unwrap();
        for i in 0..20 {
            e.submit(create_op(&format!("/n{i}"))).0.unwrap();
        }
        let live = e.read(|s| s.clone()).unwrap();
        assert!(e.stats().snapshots_written > 0);
        drop(e); // the whole data center powers off
        let mut back = Ensemble::recover(3, tmp.path(), quick_opts()).unwrap();
        assert_eq!(back.stats().recoveries, 3);
        let recovered = back.read(|s| s.clone()).unwrap();
        assert_eq!(recovered, live);
        // And the recovered ensemble keeps committing with higher zxids.
        let before = back.replica_last_zxid(0).unwrap();
        back.submit(create_op("/after")).0.unwrap();
        assert!(back.replica_last_zxid(0).unwrap() > before);
        assert!(back.replicas_consistent());
    }

    #[test]
    fn a_group_takes_consecutive_zxids_and_a_failing_op_fails_alone() {
        let tmp = TempDir::new("tropic-ens-group-zxids");
        let mut e = Ensemble::with_durability(3, tmp.path(), quick_opts()).unwrap();
        e.submit(create_op("/a")).0.unwrap();
        let before = e.replica_last_zxid(0).unwrap();
        let group = [
            create_op("/b"),
            create_op("/a"), // exists: fails alone
            Op::Multi {
                ops: vec![create_op("/c"), create_op("/c/d")],
            },
            create_op("/e"),
        ];
        let results = e.submit_group(&group);
        assert_eq!(results.len(), 4);
        assert!(matches!(results[0].0, Ok(OpResult::Created(_))));
        assert!(matches!(results[1].0, Err(CoordError::NodeExists(_))));
        assert!(results[1].1.is_empty(), "a failed op fires nothing");
        assert!(matches!(&results[2].0, Ok(OpResult::Multi(r)) if r.len() == 2));
        assert!(matches!(results[3].0, Ok(OpResult::Created(_))));
        for r in &e.replicas {
            // The failing op still took its zxid and its WAL record.
            let dir = tmp.path().join(replica_dir_name(r.id));
            let records = crate::wal::recover_dir(&dir).unwrap().ops;
            let zxids: Vec<u64> = records.iter().skip(1).map(|(z, _)| *z).collect();
            assert_eq!(zxids, (1..=4).map(|i| before + i).collect::<Vec<_>>());
            assert_eq!(r.last_zxid, before + 4);
            let czxid = |path: &str| r.store.get(&p(path)).unwrap().1.czxid;
            assert_eq!(czxid("/b"), before + 1);
            assert_eq!((czxid("/c"), czxid("/c/d")), (before + 3, before + 3));
            assert_eq!(czxid("/e"), before + 4);
        }
        assert!(e.replicas_consistent());
        let s = e.stats();
        assert_eq!((s.committed, s.groups), (5, 2));
    }

    #[test]
    fn default_policy_acks_only_what_every_acker_has_fsynced() {
        // The default overlaps the replicas' fsyncs; it must not weaken
        // the ack: when `submit_group` returns, each acking replica has
        // fsynced every byte it appended — with no drain in between, across
        // segment rotations and snapshots, for single writes and groups
        // alike.
        for group in [1, 3] {
            let tmp = TempDir::new("tropic-ens-default-ack");
            let opts = DurabilityOptions {
                snapshot_every_ops: 8,
                segment_max_bytes: 256,
                ..DurabilityOptions::default()
            };
            let mut e = Ensemble::with_durability(3, tmp.path(), opts).unwrap();
            for i in 0..40 {
                let op = |k: usize| {
                    if (i + k).is_multiple_of(3) {
                        Op::Multi {
                            ops: (0..4)
                                .map(|j| create_op(&format!("/m{i}-{k}-{j}")))
                                .collect(),
                        }
                    } else {
                        create_op(&format!("/n{i}-{k}"))
                    }
                };
                let ops: Vec<Op> = (0..group).map(op).collect();
                for (result, _) in e.submit_group(&ops) {
                    result.unwrap();
                }
                for id in 0..3 {
                    let s = e.replica_durability_stats(id).expect("durable replica");
                    assert_eq!(
                        s.bytes_fsynced, s.wal_bytes,
                        "replica {id} acked group {i} (size {group}) before its fsync landed"
                    );
                }
            }
            let s = e.stats();
            assert!(s.segments_rotated > 0, "groups must cross a rotation");
            assert!(s.snapshots_written > 0, "groups must cross a snapshot");
            assert_eq!((s.committed, s.groups), (40 * group as u64, 40));
        }
    }

    #[test]
    fn a_group_is_acked_only_when_a_quorum_has_fsynced_it() {
        let tmp = TempDir::new("tropic-ens-durable-quorum");
        let opts = DurabilityOptions {
            segment_max_bytes: 1, // every append opens a new segment file
            ..DurabilityOptions::default()
        };
        let mut e = Ensemble::with_durability(3, tmp.path(), opts).unwrap();
        e.submit(create_op("/a")).0.unwrap();
        // Two followers lose their disks: their next append cannot open a
        // segment, so they fail-stop, and the leader alone is durable.
        for id in [1, 2] {
            std::fs::remove_dir_all(tmp.path().join(replica_dir_name(id))).unwrap();
        }
        let (res, events) = e.submit(create_op("/b"));
        assert!(
            matches!(res, Err(CoordError::NoQuorum { acks: 1, needed: 2 })),
            "acked a write only the leader fsynced: {res:?}"
        );
        assert!(events.is_empty(), "no watch may fire for an unacked write");
        let s = e.stats();
        assert_eq!((s.wal_fail_stops, s.no_quorum, s.committed), (2, 1, 1));
    }

    #[test]
    fn replicas_settle_a_group_in_parallel() {
        let tmp = TempDir::new("tropic-ens-parallel-settle");
        let mut e = Ensemble::with_durability(3, tmp.path(), quick_opts()).unwrap();
        e.set_simulated_fsync_latency(Duration::from_millis(100));
        let started = Instant::now();
        e.submit(create_op("/a")).0.unwrap();
        let took = started.elapsed();
        // Three replicas settling one after another would take >= 300 ms.
        assert!(took < Duration::from_millis(250), "took {took:?}");
        for id in 0..3 {
            let s = e.replica_durability_stats(id).expect("durable replica");
            assert_eq!(s.bytes_fsynced, s.wal_bytes, "replica {id}");
        }
    }

    #[test]
    fn a_data_dir_written_by_groups_recovers_like_one_written_op_by_op() {
        let ops: Vec<Op> = (0..40)
            .map(|i| match i % 4 {
                0 => create_op(&format!("/n{i}")),
                1 => Op::SetData {
                    path: p(&format!("/n{}", i - 1)),
                    data: Bytes::from(format!("v{i}")),
                    expected_version: None,
                },
                2 => Op::Multi {
                    ops: vec![create_op(&format!("/m{i}")), create_op(&format!("/m{i}/c"))],
                },
                _ => create_op("/n0"), // exists: fails, still takes a zxid
            })
            .collect();
        let (grouped, serial) = (
            TempDir::new("tropic-ens-grouped"),
            TempDir::new("tropic-ens-serial"),
        );
        let mut g = Ensemble::with_durability(3, grouped.path(), quick_opts()).unwrap();
        for chunk in ops.chunks(7) {
            g.submit_group(chunk);
        }
        let mut s = Ensemble::with_durability(3, serial.path(), quick_opts()).unwrap();
        for op in &ops {
            let _ = s.submit(op.clone());
        }
        assert!(g.stats().groups < s.stats().groups);
        drop((g, s));

        let mut g = Ensemble::recover(3, grouped.path(), quick_opts()).unwrap();
        let mut s = Ensemble::recover(3, serial.path(), quick_opts()).unwrap();
        let store = s.read(|st| st.clone()).unwrap();
        assert_eq!(store.node_count(), 1 + 10 + 20, "root, /n*, /m* and /m*/c");
        assert_eq!(g.read(|st| st.clone()).unwrap(), store);
        for r in &g.replicas {
            assert_eq!(r.store, store, "replica {}", r.id);
        }
    }

    #[test]
    fn recovered_wal_suffix_is_covered_by_the_next_snapshot() {
        let tmp = TempDir::new("tropic-ens-suffix-snapshot");
        let opts = |snapshot_every_ops| DurabilityOptions {
            snapshot_every_ops,
            ..quick_opts()
        };
        let set_op = |path: &str, data: &'static [u8]| Op::SetData {
            path: p(path),
            data: Bytes::from_static(data),
            expected_version: None,
        };
        // The reference applies every op at the zxid the ensemble gave it.
        let mut reference = ZnodeStore::new();
        let mut submit = |e: &mut Ensemble, op: Op| {
            e.submit(op.clone()).0.unwrap();
            let zxid = e.replica_last_zxid(0).unwrap();
            reference.apply(zxid, &op).0.unwrap();
        };

        // Sixteen creates trip a full snapshot; three sets stay in the WAL.
        let mut e = Ensemble::with_durability(3, tmp.path(), opts(16)).unwrap();
        for i in 0..16 {
            submit(&mut e, create_op(&format!("/n{i}")));
        }
        assert_eq!(e.stats().snapshots_written, 3);
        for i in 0..3 {
            submit(&mut e, set_op(&format!("/n{i}"), b"in the suffix"));
        }
        drop(e);

        // The replayed suffix plus one more write reach the op-count
        // trigger: a snapshot that must carry the suffix's three sets too.
        let mut e = Ensemble::recover(3, tmp.path(), opts(4)).unwrap();
        submit(&mut e, set_op("/n3", b"after the restart"));
        assert_eq!(e.stats().snapshots_written, 3);
        drop(e);

        // Nothing is left in the WAL: the snapshot alone must be the state.
        let e = Ensemble::recover(3, tmp.path(), opts(4)).unwrap();
        for r in &e.replicas {
            let dir = tmp.path().join(replica_dir_name(r.id));
            assert!(crate::wal::recover_dir(&dir).unwrap().ops.is_empty());
            assert_eq!(r.store, reference, "replica {}", r.id);
        }
    }

    #[test]
    fn replicas_consistent_compares_data_not_just_node_counts() {
        let mut e = Ensemble::new(3);
        e.submit(create_op("/a")).0.unwrap();
        assert!(e.replicas_consistent());
        let leader = e.leader().unwrap();
        let follower = (leader + 1) % 3;
        let zxid = e.replicas[follower].last_zxid;
        let diverge = Op::SetData {
            path: p("/a"),
            data: Bytes::from_static(b"diverged"),
            expected_version: None,
        };
        e.replicas[follower].store.apply(zxid, &diverge).0.unwrap();
        assert_eq!(
            e.replicas[follower].store.node_count(),
            e.replicas[leader].store.node_count()
        );
        assert!(!e.replicas_consistent(), "same count, different bytes");
    }

    #[test]
    fn recover_with_one_stale_replica_dir_syncs_it() {
        let tmp = TempDir::new("tropic-ens-stale");
        let mut e = Ensemble::with_durability(2, tmp.path(), quick_opts()).unwrap();
        for i in 0..12 {
            e.submit(create_op(&format!("/n{i}"))).0.unwrap();
        }
        let live = e.read(|s| s.clone()).unwrap();
        drop(e);
        // Replica 1 loses its disk entirely (fresh node replacing it).
        std::fs::remove_dir_all(tmp.path().join("replica-1")).unwrap();
        let mut back = Ensemble::recover(2, tmp.path(), quick_opts()).unwrap();
        assert_eq!(
            back.stats().snapshot_syncs,
            1,
            "fresh node needs the snapshot"
        );
        assert_eq!(back.read(|s| s.clone()).unwrap(), live);
        assert!(back.replicas_consistent());
    }

    #[test]
    fn a_minority_never_elects_a_leader_that_lacks_acked_writes() {
        let mut e = Ensemble::new(3);
        e.submit(create_op("/a")).0.unwrap();
        e.net().partition(vec![vec![0, 1], vec![2]]);
        e.submit(create_op("/b")).0.unwrap(); // acked by {0, 1}
        e.crash_replica(0);
        e.crash_replica(1);
        // Replica 2 alone never saw /b: it must not lead.
        assert_eq!(e.leader(), None);
        e.net().heal();
        e.restart_replica(0);
        e.submit(create_op("/c")).0.unwrap();
        let (b, c) = e
            .read(|s| (s.exists(&p("/b")), s.exists(&p("/c"))))
            .unwrap();
        assert!(b, "the acknowledged /b was lost");
        assert!(c);
        assert!(e.replicas_consistent());
    }

    #[test]
    fn restarts_after_a_total_crash_restore_a_quorum() {
        let mut e = Ensemble::new(3);
        e.submit(create_op("/a")).0.unwrap();
        for id in 0..3 {
            e.crash_replica(id);
        }
        e.restart_replica(0);
        let (res, _) = e.submit(create_op("/b"));
        assert!(
            matches!(res, Err(CoordError::NoQuorum { acks: 1, needed: 2 })),
            "{res:?}"
        );
        e.restart_replica(1);
        e.submit(create_op("/b")).0.unwrap();
        assert!(e.read(|s| s.exists(&p("/a"))).unwrap());
    }

    #[test]
    fn a_read_after_reelection_still_needs_a_quorum() {
        let tmp = TempDir::new("tropic-ens-read-quorum");
        let opts = DurabilityOptions {
            segment_max_bytes: 1, // every append opens a new segment file
            ..DurabilityOptions::default()
        };
        let mut e = Ensemble::with_durability(3, tmp.path(), opts).unwrap();
        e.submit(create_op("/a")).0.unwrap();
        // The leader loses its disk and fail-stops on its next append, so
        // only replica 1 logs /b, which is never acknowledged.
        std::fs::remove_dir_all(tmp.path().join(replica_dir_name(0))).unwrap();
        e.net().partition(vec![vec![0, 1], vec![2]]);
        let (res, _) = e.submit(create_op("/b"));
        assert!(matches!(res, Err(CoordError::NoQuorum { acks: 1, .. })));
        // The read elects replica 1, which cannot reach a quorum.
        let read = e.read(|s| s.exists(&p("/b")));
        assert!(
            matches!(read, Err(CoordError::NoQuorum { acks: 1, needed: 2 })),
            "served a read without a quorum: {read:?}"
        );
        e.net().heal();
        assert!(e.read(|s| s.exists(&p("/a"))).unwrap());
    }
}
