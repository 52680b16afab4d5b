//! Segmented write-ahead log and the per-replica durability handle.
//!
//! Every committed store operation is appended to an on-disk segment as a
//! length-prefixed, CRC-checksummed record *before* it is applied, mirroring
//! ZooKeeper's transaction log — the durable half of the paper's
//! "highly-available transactional orchestration" claim (§2.3, §6.1).
//! A whole scheduling round is one [`Op::Multi`], so one appended record
//! covers it; and the ensemble commits writes from concurrent sessions as
//! one group, so one fsync (under the default [`SyncPolicy::Pipelined`]
//! `{ depth: 0 }`) covers every record of the group.
//!
//! The log is segmented: a segment file is named after the zxid of its
//! first record and rotated once it exceeds
//! [`DurabilityOptions::segment_max_bytes`]. When a fuzzy snapshot is
//! written (see [`crate::snapshot`]), every segment is fully covered by it
//! and deleted, bounding disk *and* the replica's in-memory log.
//!
//! Recovery reads segments in zxid order and stops at the first torn or
//! corrupt record: the tail is truncated (it was never acknowledged) and
//! later segments, which would sit beyond the tear, are discarded.
//!
//! [`Durability`] also owns the snapshot policy's one input that is not on
//! disk: the [`DirtySet`] of paths touched since the newest snapshot, fed
//! through [`Durability::mark_dirty`] by whoever applies ops to the store
//! the handle snapshots. The record encoding lives in `crate::codec`, the
//! socket framing that shares its layout in [`crate::frame`].

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path as StdPath, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Sender};
use parking_lot::{Condvar, Mutex};

use crate::codec;
use crate::snapshot::{self, DirtySet};
use crate::store::{Op, StoreEvent, ZnodeStore};

pub use crate::codec::FORMAT_VERSION;

/// A durability failure on the WAL/snapshot hot path.
///
/// Replicas treat any of these as fail-stop: a replica that cannot make
/// its log durable stops acking batches rather than lying about
/// persistence (see `ensemble::Replica`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An I/O operation failed; `op` names the failing step.
    Io {
        /// Which durability step failed (e.g. `append`, `snapshot`).
        op: &'static str,
        /// The underlying error, stringified for cloneability.
        error: String,
    },
    /// The pipelined sync thread reported an fsync failure.
    SyncFailed(String),
    /// The pipelined sync thread is no longer running.
    SyncThreadDead,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { op, error } => write!(f, "WAL {op} I/O failed: {error}"),
            WalError::SyncFailed(e) => write!(f, "WAL fsync failed: {e}"),
            WalError::SyncThreadDead => write!(f, "WAL sync thread terminated"),
        }
    }
}

impl std::error::Error for WalError {}

/// Result alias for durability operations.
pub type WalResult<T> = Result<T, WalError>;

fn wal_io(op: &'static str) -> impl FnOnce(io::Error) -> WalError {
    move |e| WalError::Io {
        op,
        error: e.to_string(),
    }
}

/// When the write-ahead log is forced to stable storage.
///
/// The default is `Pipelined { depth: 0 }`. Its acknowledgement contract is
/// `EveryBatch`'s: a replica acks a batch only after that batch's own fsync
/// has landed, so an acknowledged transaction survives losing every
/// replica. What differs is scheduling: the ensemble starts every acking
/// replica's fsync before it waits on any, so one batch costs one fsync of
/// wall time instead of one per replica (paper §6.1: logging I/O dominates
/// a transaction's cost).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// One fsync per committed batch (every ensemble commit group — all its
    /// records pay it once), issued and awaited inline, so the
    /// ensemble's replicas fsync one after another. The same safety
    /// posture as the default; kept as the serial baseline that benches
    /// measure the default against.
    EveryBatch,
    /// One fsync per `every_ops` appended records (plus one at every
    /// snapshot). Trades a bounded window of acknowledged writes for
    /// throughput, like ZooKeeper's group-flush knobs.
    Periodic {
        /// Appended records between forced syncs (clamped to at least 1).
        every_ops: u64,
    },
    /// Group fsync off the critical path: every batch is handed to a
    /// dedicated sync thread, and the commit path only blocks while more
    /// than `depth` batches remain unsynced. Every batch *is* fsynced, in
    /// order, and a batch is never reported synced before its own fsync
    /// lands — but only `depth: 0` (the default) keeps
    /// [`SyncPolicy::EveryBatch`]'s safety posture: each replica's ack
    /// still waits for its own batch, and the gain is that the ensemble's
    /// fsyncs overlap across replicas (see `Ensemble::submit_group`); each such
    /// wait that blocks counts one `pipeline_stalls`, so at most one per
    /// batch per replica. With `depth > 0` the fsync of batch N
    /// also overlaps the encode and append of batch N+1, and the commit
    /// path returns once at most `depth` batches are unsynced — so an
    /// acknowledgement can run up to `depth` batches ahead of the disk, a
    /// bounded window a crash (not a clean shutdown, which drains the
    /// pipeline) can lose.
    Pipelined {
        /// Max batches allowed in flight (unsynced) before the commit path
        /// stalls waiting on the sync thread.
        depth: u64,
    },
}

/// Durability tuning for one replica.
#[derive(Clone, Debug)]
pub struct DurabilityOptions {
    /// When appended records are fsynced (default `Pipelined { depth: 0 }`,
    /// see [`SyncPolicy`]).
    pub sync_policy: SyncPolicy,
    /// Write a snapshot (and truncate the log) after this many appended
    /// records. `0` disables the op-count trigger.
    pub snapshot_every_ops: u64,
    /// Write a snapshot once the live segments exceed this many bytes.
    /// `0` disables the size trigger.
    pub snapshot_max_wal_bytes: u64,
    /// Rotate to a new segment file once the current one exceeds this size.
    pub segment_max_bytes: u64,
    /// Max incremental (delta) snapshots chained onto one full snapshot
    /// before the next snapshot is forced full (compaction). A delta is
    /// written when the dirty set is small relative to the store; `0`
    /// forces every snapshot full.
    pub delta_chain_max: u64,
}

impl Default for DurabilityOptions {
    /// `Pipelined { depth: 0 }`: every acknowledged batch is on disk on
    /// each acking replica, exactly as under `EveryBatch`, but the
    /// replicas' fsyncs for one batch overlap instead of running in turn.
    fn default() -> Self {
        DurabilityOptions {
            sync_policy: SyncPolicy::Pipelined { depth: 0 },
            snapshot_every_ops: 1_024,
            snapshot_max_wal_bytes: 4 << 20,
            segment_max_bytes: 1 << 20,
            delta_chain_max: 8,
        }
    }
}

/// Counters describing one replica's durability activity.
#[derive(Clone, Copy, Debug, Default)]
pub struct DurabilityStats {
    /// Records appended to the write-ahead log.
    pub wal_records: u64,
    /// Bytes appended to the write-ahead log (framing included).
    pub wal_bytes: u64,
    /// Bytes covered by completed fsyncs.
    pub bytes_fsynced: u64,
    /// fsync calls issued against segment files.
    pub fsyncs: u64,
    /// Directory fsyncs making renames, new files, and deletions durable.
    pub dir_fsyncs: u64,
    /// Segment files rotated out.
    pub segments_rotated: u64,
    /// Snapshots written (full and delta, policy-triggered and snapshot
    /// transfers).
    pub snapshots_written: u64,
    /// The subset of `snapshots_written` that were deltas.
    pub delta_snapshots_written: u64,
    /// Times the pipelined commit path blocked because `depth` batches
    /// were already in flight.
    pub pipeline_stalls: u64,
    /// Batches settled by a sync round they shared with other batches
    /// (the fsyncs the pipeline's coalescing saved).
    pub pipeline_coalesced: u64,
    /// Max batches observed in flight (unsynced) at once.
    pub pipeline_depth_peak: u64,
}

/// A recovered snapshot: the zxid it reflects plus the decoded store.
pub type RecoveredSnapshot = (u64, ZnodeStore);

/// What [`Durability::open`] yields: the handle, the latest valid snapshot
/// (if any), and the write-ahead-log suffix strictly after it.
pub type OpenedDurability = (Durability, Option<RecoveredSnapshot>, Vec<(u64, Op)>);

/// The result of scanning a replica's segments at recovery.
pub struct WalRecovery {
    /// Every decodable `(zxid, op)` record, in append order.
    pub ops: Vec<(u64, Op)>,
    /// Bytes of valid records across all live segments (framing included).
    pub valid_bytes: u64,
    /// Whether a torn or corrupt tail was found and truncated away.
    pub truncated_tail: bool,
}

const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".log";
/// Upper bound on one record's payload; anything larger is treated as a
/// tear (a real record never approaches it).
const MAX_RECORD_BYTES: usize = 64 << 20;

fn segment_file_name(first_zxid: u64) -> String {
    format!("{SEGMENT_PREFIX}{first_zxid:016x}{SEGMENT_SUFFIX}")
}

/// Segment files in a directory, sorted ascending by first-record zxid.
pub fn list_segments(dir: &StdPath) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(hex) = name
            .strip_prefix(SEGMENT_PREFIX)
            .and_then(|n| n.strip_suffix(SEGMENT_SUFFIX))
        else {
            continue;
        };
        if let Ok(zxid) = u64::from_str_radix(hex, 16) {
            out.push((zxid, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(zxid, _)| *zxid);
    Ok(out)
}

/// A segmented append-only log of framed records.
pub struct Wal {
    dir: PathBuf,
    segment_max_bytes: u64,
    current: Option<Segment>,
    dir_fsyncs: u64,
}

struct Segment {
    /// Shared so the pipelined sync thread can fsync a segment the writer
    /// has already rotated away from (or is still appending to).
    file: Arc<File>,
    bytes: u64,
}

impl Wal {
    /// Binds a log to `dir` without touching existing files; the next append
    /// starts a fresh segment named after its zxid.
    pub fn new(dir: &StdPath, segment_max_bytes: u64) -> Self {
        Wal {
            dir: dir.to_path_buf(),
            segment_max_bytes: segment_max_bytes.max(1),
            current: None,
            dir_fsyncs: 0,
        }
    }

    /// Appends one pre-framed record, rotating segments as needed. Returns
    /// `true` when a rotation happened.
    pub fn append_frame(&mut self, zxid: u64, frame: &[u8]) -> io::Result<bool> {
        let mut rotated = false;
        let need_new = match &self.current {
            None => true,
            Some(s) => s.bytes >= self.segment_max_bytes,
        };
        if need_new {
            if let Some(old) = self.current.take() {
                // The outgoing segment may hold unsynced records under a
                // periodic policy; settle them before abandoning the handle.
                old.file.sync_data()?;
                rotated = true;
            }
            let path = self.dir.join(segment_file_name(zxid));
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            // A new file's directory entry is not durable until the
            // directory itself is fsynced; without this, an acked batch in
            // a fresh segment could vanish wholesale on power loss — so a
            // failure here must surface, not be swallowed.
            File::open(&self.dir)?.sync_all()?;
            self.dir_fsyncs += 1;
            let bytes = file.metadata()?.len();
            self.current = Some(Segment {
                file: Arc::new(file),
                bytes,
            });
        }
        let Some(seg) = self.current.as_mut() else {
            // Unreachable: the branch above always installs a segment.
            return Err(io::Error::other("no current WAL segment"));
        };
        (&*seg.file).write_all(frame)?;
        seg.bytes += frame.len() as u64;
        Ok(rotated)
    }

    /// Forces the current segment to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(seg) = &self.current {
            seg.file.sync_data()?;
        }
        Ok(())
    }

    /// A shared handle to the current segment's file, for handing to the
    /// pipelined sync thread.
    fn current_file(&self) -> Option<Arc<File>> {
        self.current.as_ref().map(|s| Arc::clone(&s.file))
    }

    /// Directory fsyncs issued by this log (new-segment creation, segment
    /// deletion at truncation).
    fn dir_fsyncs(&self) -> u64 {
        self.dir_fsyncs
    }

    /// Deletes every segment file. Called after a snapshot has made them
    /// redundant (snapshots are always taken at the log tip, so every
    /// segment is fully covered). The deletions are made durable with a
    /// directory fsync so a power loss cannot resurrect pre-snapshot
    /// segments next to a post-snapshot log.
    pub fn clear(&mut self) -> io::Result<()> {
        self.current = None;
        let segments = list_segments(&self.dir)?;
        if segments.is_empty() {
            return Ok(());
        }
        for (_, path) in segments {
            fs::remove_file(path)?;
        }
        File::open(&self.dir)?.sync_all()?;
        self.dir_fsyncs += 1;
        Ok(())
    }
}

/// Scans a replica directory's segments, decoding records until the first
/// torn or corrupt one. The tear (and any later, untrusted segment) is
/// removed so subsequent appends extend a clean log.
pub fn recover_dir(dir: &StdPath) -> io::Result<WalRecovery> {
    let segments = list_segments(dir)?;
    let mut ops = Vec::new();
    let mut valid_bytes = 0u64;
    let mut truncated_tail = false;
    for (idx, (_, path)) in segments.iter().enumerate() {
        let data = fs::read(path)?;
        let (valid_len, mut segment_ops, torn) = scan_segment(&data);
        ops.append(&mut segment_ops);
        valid_bytes += valid_len as u64;
        if torn {
            truncated_tail = true;
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
            for (_, later) in &segments[idx + 1..] {
                fs::remove_file(later)?;
            }
            break;
        }
    }
    Ok(WalRecovery {
        ops,
        valid_bytes,
        truncated_tail,
    })
}

/// Encodes one WAL record, `[len][crc32][zxid ‖ op]`, in a single buffer:
/// the header is reserved, the payload encoded after it, and the header
/// filled in last, so the payload is never copied. The ensemble encodes
/// each committed op once and hands the same bytes to every replica's
/// [`Durability::append_frame`].
pub(crate) fn encode_frame(zxid: u64, op: &Op) -> io::Result<Vec<u8>> {
    let mut frame = vec![0u8; 8];
    codec::put_u64(&mut frame, zxid)?;
    codec::encode_op(op, &mut frame)?;
    let (len_field, rest) = frame.split_at_mut(4);
    let (crc_field, payload) = rest.split_at_mut(4);
    let len = u32::try_from(payload.len()).map_err(io::Error::other)?;
    len_field.copy_from_slice(&len.to_le_bytes());
    crc_field.copy_from_slice(&codec::crc32(payload).to_le_bytes());
    Ok(frame)
}

/// Decodes `(valid_byte_len, records, torn)` from one segment's contents.
fn scan_segment(data: &[u8]) -> (usize, Vec<(u64, Op)>, bool) {
    let mut pos = 0usize;
    let mut ops = Vec::new();
    loop {
        if pos + 8 > data.len() {
            return (pos, ops, pos < data.len());
        }
        let (Some(len), Some(crc)) = (codec::le_u32_at(data, pos), codec::le_u32_at(data, pos + 4))
        else {
            return (pos, ops, true);
        };
        let len = len as usize;
        if len > MAX_RECORD_BYTES || pos + 8 + len > data.len() {
            return (pos, ops, true);
        }
        let payload = &data[pos + 8..pos + 8 + len];
        if codec::crc32(payload) != crc {
            return (pos, ops, true);
        }
        let mut cur = codec::Cursor::new(payload);
        let Some(zxid) = cur.u64() else {
            return (pos, ops, true);
        };
        let Some(op) = codec::decode_op(&mut cur) else {
            return (pos, ops, true);
        };
        ops.push((zxid, op));
        pos += 8 + len;
    }
}

/// One queued fsync request: all bytes appended for one committed batch,
/// tagged with a monotonically increasing ticket.
struct SyncJob {
    ticket: u64,
    file: Arc<File>,
    bytes: u64,
}

/// Progress the sync thread publishes back to the commit path.
#[derive(Default)]
struct SyncProgress {
    /// Highest ticket whose fsync has landed (tickets complete in order).
    completed: u64,
    /// fsync calls the thread has issued.
    fsyncs: u64,
    /// Jobs settled by a round they shared with other jobs.
    coalesced: u64,
    /// Bytes covered by completed fsyncs.
    bytes_fsynced: u64,
    /// First fsync failure, if any; waiting commit paths surface it as
    /// [`WalError::SyncFailed`].
    failed: Option<String>,
}

struct SyncShared {
    progress: Mutex<SyncProgress>,
    cv: Condvar,
}

/// The pipelined policy's dedicated sync thread. Jobs are drained in
/// batches: every job queued at wake-up joins one sync round, each distinct
/// segment file is fsynced once, and the round's highest ticket publishes as
/// completed — so k queued batches on one segment cost one fsync.
struct Syncer {
    tx: Option<Sender<SyncJob>>,
    shared: Arc<SyncShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Syncer {
    fn spawn(latency_ns: Arc<AtomicU64>) -> WalResult<Self> {
        let (tx, rx) = channel::unbounded::<SyncJob>();
        let shared = Arc::new(SyncShared {
            progress: Mutex::new(SyncProgress::default()),
            cv: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("tropic-wal-sync".into())
            .spawn(move || {
                while let Ok(first) = rx.recv() {
                    let first_ticket = first.ticket;
                    let mut jobs = vec![first];
                    while let Ok(more) = rx.try_recv() {
                        jobs.push(more);
                    }
                    let latency = Duration::from_nanos(latency_ns.load(Ordering::Relaxed));
                    let mut fsyncs = 0u64;
                    let mut failed: Option<String> = None;
                    for i in 0..jobs.len() {
                        // One fsync per distinct file settles every job on
                        // it: all their appends happened before they were
                        // queued. (Rotation keeps at most two files per
                        // round in practice.)
                        let dup = jobs[..i]
                            .iter()
                            .any(|prev| Arc::ptr_eq(&prev.file, &jobs[i].file));
                        if dup {
                            continue;
                        }
                        if !latency.is_zero() {
                            std::thread::sleep(latency);
                        }
                        if let Err(e) = jobs[i].file.sync_data() {
                            failed = Some(e.to_string());
                            break;
                        }
                        fsyncs += 1;
                    }
                    let last_ticket = jobs.last().map_or(first_ticket, |j| j.ticket);
                    let bytes: u64 = jobs.iter().map(|j| j.bytes).sum();
                    let mut p = thread_shared.progress.lock();
                    if let Some(e) = failed {
                        if p.failed.is_none() {
                            p.failed = Some(e);
                        }
                    }
                    // Publish completion even on failure so waiters wake and
                    // observe `failed` instead of hanging.
                    p.completed = last_ticket;
                    p.fsyncs += fsyncs;
                    p.coalesced += jobs.len() as u64 - fsyncs.min(jobs.len() as u64);
                    p.bytes_fsynced += bytes;
                    drop(p);
                    thread_shared.cv.notify_all();
                }
            })
            .map_err(wal_io("sync thread spawn"))?;
        Ok(Syncer {
            tx: Some(tx),
            shared,
            thread: Some(thread),
        })
    }

    fn enqueue(&self, job: SyncJob) -> WalResult<()> {
        match self.tx.as_ref() {
            Some(tx) if tx.send(job).is_ok() => Ok(()),
            _ => Err(WalError::SyncThreadDead),
        }
    }

    fn completed(&self) -> u64 {
        self.shared.progress.lock().completed
    }

    /// Blocks until at most `depth` of `submitted` tickets remain unsynced.
    /// Returns whether it had to block, or [`WalError::SyncFailed`] when
    /// the sync thread reported an fsync failure.
    fn wait_outstanding_le(&self, submitted: u64, depth: u64) -> WalResult<bool> {
        let target = submitted.saturating_sub(depth);
        let mut p = self.shared.progress.lock();
        let mut stalled = false;
        while p.completed < target {
            if let Some(e) = &p.failed {
                return Err(WalError::SyncFailed(e.clone()));
            }
            stalled = true;
            self.shared.cv.wait(&mut p);
        }
        if let Some(e) = &p.failed {
            return Err(WalError::SyncFailed(e.clone()));
        }
        Ok(stalled)
    }

    /// Drains the queue without panicking; used from `Drop`.
    fn drain_best_effort(&self, submitted: u64) {
        let mut p = self.shared.progress.lock();
        while p.completed < submitted && p.failed.is_none() {
            self.shared.cv.wait(&mut p);
        }
    }
}

impl Drop for Syncer {
    fn drop(&mut self) {
        // Closing the channel ends the thread's recv loop after it drains
        // what is already queued.
        self.tx.take();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One replica's durability handle: its write-ahead log, snapshot policy,
/// and counters. Owned by an ensemble replica; every committed op flows
/// through [`Durability::append`] before it is applied, and every committed
/// batch ends with [`Durability::commit_batch`].
pub struct Durability {
    dir: PathBuf,
    opts: DurabilityOptions,
    wal: Wal,
    stats: DurabilityStats,
    ops_since_snapshot: u64,
    wal_bytes_since_snapshot: u64,
    appends_since_sync: u64,
    unsynced_bytes: u64,
    /// Modeled fsync latency, shared with the sync thread so it can be
    /// changed after construction (benches populate fast, then measure).
    simulated_fsync_latency_ns: Arc<AtomicU64>,
    /// Lazily spawned by the first pipelined batch.
    syncer: Option<Syncer>,
    /// Tickets handed to the sync thread so far.
    submitted_tickets: u64,
    /// Zxid of the newest snapshot (full or delta) in `dir`; the base the
    /// next delta chains onto.
    chain_tip: Option<u64>,
    /// Deltas chained onto the newest full snapshot.
    chain_len: u64,
    /// Paths touched since the newest snapshot: what the next delta must
    /// contain, and the input to the delta-vs-full policy.
    dirty: DirtySet,
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability")
            .field("dir", &self.dir)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Durability {
    fn fresh(dir: &StdPath, opts: DurabilityOptions) -> Self {
        let wal = Wal::new(dir, opts.segment_max_bytes);
        Durability {
            dir: dir.to_path_buf(),
            opts,
            wal,
            stats: DurabilityStats::default(),
            ops_since_snapshot: 0,
            wal_bytes_since_snapshot: 0,
            appends_since_sync: 0,
            unsynced_bytes: 0,
            simulated_fsync_latency_ns: Arc::new(AtomicU64::new(0)),
            syncer: None,
            submitted_tickets: 0,
            chain_tip: None,
            chain_len: 0,
            dirty: DirtySet::default(),
        }
    }

    /// Formats a fresh replica directory, destroying any prior contents.
    pub fn create(dir: &StdPath, opts: DurabilityOptions) -> io::Result<Self> {
        if dir.exists() {
            fs::remove_dir_all(dir)?;
        }
        fs::create_dir_all(dir)?;
        Ok(Self::fresh(dir, opts))
    }

    /// Opens an existing replica directory, returning the handle, the
    /// latest valid snapshot (if any), and the log suffix strictly after
    /// it. Purely read-only unless it has crash debris to clean (a torn
    /// WAL tail, a half-written snapshot), so repeated opens of a
    /// cleanly-closed directory are idempotent.
    pub fn open(dir: &StdPath, opts: DurabilityOptions) -> io::Result<OpenedDurability> {
        fs::create_dir_all(dir)?;
        let swept = snapshot::sweep_tmp(dir);
        let chain = snapshot::load_chain(dir);
        let snap = chain.snapshot;
        let horizon = snap.as_ref().map(|(zxid, _)| *zxid).unwrap_or(0);
        let mut d = Self::fresh(dir, opts);
        if swept > 0 {
            d.stats.dir_fsyncs += 1;
        }
        d.chain_tip = snap.as_ref().map(|(zxid, _)| *zxid);
        d.chain_len = chain.chain_len;
        if chain.newer_corrupt {
            // The live segments extend the (corrupt or unlinkable) newest
            // generation, not the chain prefix loaded: replaying them here
            // would splice a hole over the lost history. Drop them — the
            // replica recovers to a *consistent* earlier state and catches
            // the rest up from the leader via snapshot transfer.
            d.wal.clear()?;
            return Ok((d, snap, Vec::new()));
        }
        let recovery = recover_dir(dir)?;
        let suffix: Vec<(u64, Op)> = recovery
            .ops
            .into_iter()
            .filter(|(zxid, _)| *zxid > horizon)
            .collect();
        d.ops_since_snapshot = suffix.len() as u64;
        // Seed the size trigger with what already sits in the live
        // segments, so repeated crash/recover cycles cannot grow the WAL
        // past the configured bound. (Records at or below the snapshot
        // horizon — a crash between snapshot and truncation — are a rare,
        // safe overcount: they only pull the next snapshot earlier.)
        d.wal_bytes_since_snapshot = recovery.valid_bytes;
        Ok((d, snap, suffix))
    }

    /// Appends one committed op to the log (before it is applied).
    pub fn append(&mut self, zxid: u64, op: &Op) -> WalResult<()> {
        let frame = encode_frame(zxid, op).map_err(wal_io("encode"))?;
        self.append_frame(zxid, &frame)
    }

    /// Appends one committed op already encoded by `encode_frame`, so
    /// replicas logging the same op share one encode.
    pub fn append_frame(&mut self, zxid: u64, frame: &[u8]) -> WalResult<()> {
        let rotated = self
            .wal
            .append_frame(zxid, frame)
            .map_err(wal_io("append"))?;
        if rotated {
            self.stats.segments_rotated += 1;
            // Rotation fsyncs the outgoing segment (before this frame was
            // written), settling everything unsynced so far; account for
            // it here or the next policy sync would double-count the bytes.
            self.stats.fsyncs += 1;
            self.stats.bytes_fsynced += self.unsynced_bytes;
            self.unsynced_bytes = 0;
            self.appends_since_sync = 0;
        }
        let len = frame.len() as u64;
        self.stats.wal_records += 1;
        self.stats.wal_bytes += len;
        self.unsynced_bytes += len;
        self.appends_since_sync += 1;
        self.ops_since_snapshot += 1;
        self.wal_bytes_since_snapshot += len;
        Ok(())
    }

    /// Records the paths an applied op touched, so the next delta snapshot
    /// carries them. Every op applied to the store this handle snapshots
    /// must be reported — the commit path and recovery's WAL-suffix replay
    /// alike — or the next delta silently omits what it changed.
    pub fn mark_dirty(&mut self, events: &[StoreEvent]) {
        self.dirty.mark(events);
    }

    /// Under [`SyncPolicy::Pipelined`], hands everything appended since the
    /// last sync point to the sync thread *without waiting*, so the fsync
    /// overlaps whatever the caller does next (encoding the next batch,
    /// appending on the next replica). A no-op for other policies or when
    /// nothing is pending; idempotent within a batch. The matching wait
    /// happens in [`Durability::commit_batch`].
    pub fn begin_batch_sync(&mut self) -> WalResult<()> {
        let SyncPolicy::Pipelined { .. } = self.opts.sync_policy else {
            return Ok(());
        };
        if self.appends_since_sync == 0 {
            return Ok(());
        }
        let Some(file) = self.wal.current_file() else {
            return Ok(());
        };
        if self.syncer.is_none() {
            let latency = Arc::clone(&self.simulated_fsync_latency_ns);
            self.syncer = Some(Syncer::spawn(latency)?);
        }
        let Some(syncer) = self.syncer.as_ref() else {
            return Err(WalError::SyncThreadDead);
        };
        self.submitted_tickets += 1;
        syncer.enqueue(SyncJob {
            ticket: self.submitted_tickets,
            file,
            bytes: self.unsynced_bytes,
        })?;
        let outstanding = self.submitted_tickets - syncer.completed();
        self.stats.pipeline_depth_peak = self.stats.pipeline_depth_peak.max(outstanding);
        self.unsynced_bytes = 0;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Ends a committed batch: syncs per policy and writes a snapshot of
    /// `store` when the policy triggers, truncating every segment. Returns
    /// the snapshot zxid when one was taken, so the owner can truncate its
    /// in-memory log to the same horizon.
    pub fn commit_batch(&mut self, zxid: u64, store: &ZnodeStore) -> WalResult<Option<u64>> {
        match self.opts.sync_policy {
            SyncPolicy::EveryBatch => self.sync_now()?,
            SyncPolicy::Periodic { every_ops } => {
                if self.appends_since_sync >= every_ops.max(1) {
                    self.sync_now()?;
                }
            }
            SyncPolicy::Pipelined { depth } => {
                self.begin_batch_sync()?;
                if let Some(syncer) = &self.syncer {
                    if syncer.wait_outstanding_le(self.submitted_tickets, depth)? {
                        self.stats.pipeline_stalls += 1;
                    }
                }
            }
        }
        let by_ops = self.opts.snapshot_every_ops > 0
            && self.ops_since_snapshot >= self.opts.snapshot_every_ops;
        let by_bytes = self.opts.snapshot_max_wal_bytes > 0
            && self.wal_bytes_since_snapshot >= self.opts.snapshot_max_wal_bytes;
        if by_ops || by_bytes {
            self.take_snapshot(zxid, store, false)?;
            Ok(Some(zxid))
        } else {
            Ok(None)
        }
    }

    /// Persists a full-state snapshot received from the leader (a follower
    /// lagging beyond the truncation horizon) and resets the local log.
    /// Always full: the store did not evolve from this replica's previous
    /// snapshot, so a delta could not chain onto it.
    pub fn install_snapshot(&mut self, zxid: u64, store: &ZnodeStore) -> WalResult<()> {
        self.take_snapshot(zxid, store, true)
    }

    fn take_snapshot(&mut self, zxid: u64, store: &ZnodeStore, force_full: bool) -> WalResult<()> {
        // Settle the pipeline first: the snapshot supersedes the segments
        // about to be truncated, and the counters below assume no sync is
        // in flight.
        self.drain_pipeline()?;
        // A delta records dirty paths with their full path strings; past
        // half the store it stops being the cheaper encoding.
        let delta_base = if !force_full
            && self.chain_len < self.opts.delta_chain_max
            && self.dirty.paths().len().saturating_mul(2) < store.node_count()
        {
            self.chain_tip.filter(|tip| *tip < zxid)
        } else {
            None
        };
        if let Some(base) = delta_base {
            let records = store.delta_records(self.dirty.paths());
            snapshot::write_delta(&self.dir, base, zxid, &records)
                .map_err(wal_io("delta snapshot"))?;
            self.chain_len += 1;
            self.stats.delta_snapshots_written += 1;
        } else {
            snapshot::write(&self.dir, zxid, store).map_err(wal_io("snapshot"))?;
            self.chain_len = 0;
        }
        // write/write_delta fsync the directory after their rename.
        self.stats.dir_fsyncs += 1;
        self.chain_tip = Some(zxid);
        if snapshot::retain_latest(&self.dir, 2) > 0 {
            self.stats.dir_fsyncs += 1;
        }
        self.dirty.clear();
        self.wal.clear().map_err(wal_io("truncate"))?;
        self.stats.snapshots_written += 1;
        self.ops_since_snapshot = 0;
        self.wal_bytes_since_snapshot = 0;
        self.appends_since_sync = 0;
        self.unsynced_bytes = 0;
        Ok(())
    }

    fn sync_now(&mut self) -> WalResult<()> {
        if self.appends_since_sync == 0 {
            return Ok(());
        }
        let latency_ns = self.simulated_fsync_latency_ns.load(Ordering::Relaxed);
        if latency_ns > 0 {
            std::thread::sleep(Duration::from_nanos(latency_ns));
        }
        self.wal.sync().map_err(wal_io("fsync"))?;
        self.stats.fsyncs += 1;
        self.stats.bytes_fsynced += self.unsynced_bytes;
        self.unsynced_bytes = 0;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Blocks until every queued pipelined fsync has landed. A no-op for
    /// serial policies.
    pub fn drain_pipeline(&mut self) -> WalResult<()> {
        if let Some(syncer) = &self.syncer {
            if syncer.wait_outstanding_le(self.submitted_tickets, 0)? {
                self.stats.pipeline_stalls += 1;
            }
        }
        Ok(())
    }

    /// Changes the modeled device latency added to every fsync (zero — the
    /// initial value — adds nothing). Takes effect on the next sync (serial
    /// policies and the sync thread both read it per round), so benches can
    /// populate a store quickly and then measure with a realistic device
    /// model.
    pub fn set_simulated_fsync_latency(&mut self, latency: Duration) {
        self.simulated_fsync_latency_ns.store(
            u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }

    /// This replica's durability counters, including the sync thread's.
    pub fn stats(&self) -> DurabilityStats {
        let mut stats = self.stats;
        stats.dir_fsyncs += self.wal.dir_fsyncs();
        if let Some(syncer) = &self.syncer {
            let p = syncer.shared.progress.lock();
            stats.fsyncs += p.fsyncs;
            stats.bytes_fsynced += p.bytes_fsynced;
            stats.pipeline_coalesced += p.coalesced;
        }
        stats
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        // Settle queued fsyncs before the handle disappears, so a clean
        // shutdown leaves nothing racing recovery (and crash-consistency
        // proptests see deterministic on-disk state). Best-effort: a failed
        // fsync here must not double-panic during unwind.
        if let Some(syncer) = &self.syncer {
            syncer.drain_best_effort(self.submitted_tickets);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use bytes::Bytes;
    use tropic_model::Path;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn create_op(path: &str) -> Op {
        Op::Create {
            path: p(path),
            data: Bytes::from_static(b"payload"),
            ephemeral_owner: None,
            sequential: false,
        }
    }

    /// One committed op the way a replica drives the handle: log, apply,
    /// report the touched paths, settle the batch.
    fn commit(d: &mut Durability, store: &mut ZnodeStore, zxid: u64, op: &Op) {
        d.append(zxid, op).unwrap();
        let (_, events) = store.apply(zxid, op);
        d.mark_dirty(&events);
        d.commit_batch(zxid, store).unwrap();
    }

    #[test]
    fn op_codec_roundtrip_all_variants() {
        let ops = vec![
            Op::Create {
                path: p("/a/b"),
                data: Bytes::from_static(b"x"),
                ephemeral_owner: Some(7),
                sequential: true,
            },
            Op::SetData {
                path: p("/a"),
                data: Bytes::new(),
                expected_version: Some(3),
            },
            Op::Delete {
                path: p("/a/b"),
                expected_version: None,
            },
            Op::PurgeSession { session: 42 },
            Op::Multi {
                ops: vec![create_op("/q"), Op::PurgeSession { session: 1 }],
            },
        ];
        for op in &ops {
            let mut buf = Vec::new();
            codec::encode_op(op, &mut buf).unwrap();
            let mut cur = codec::Cursor::new(&buf);
            let back = codec::decode_op(&mut cur).expect("decodes");
            assert!(cur.is_done());
            assert_eq!(format!("{back:?}"), format!("{op:?}"));
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic test vector for the IEEE polynomial.
        assert_eq!(codec::crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(codec::crc32(b""), 0);
        // Fed in pieces, the incremental form agrees.
        let mut crc = codec::Crc32::new();
        for piece in [&b"1234"[..], b"", b"56789"] {
            crc.update(piece);
        }
        assert_eq!(crc.finish(), 0xCBF4_3926);
    }

    #[test]
    fn append_recover_roundtrip() {
        let tmp = TempDir::new("tropic-wal-roundtrip");
        let mut d = Durability::create(tmp.path(), DurabilityOptions::default()).unwrap();
        for i in 1..=10u64 {
            d.append(i, &create_op(&format!("/n{i}"))).unwrap();
        }
        drop(d);
        let rec = recover_dir(tmp.path()).unwrap();
        assert_eq!(rec.ops.len(), 10);
        assert!(!rec.truncated_tail);
        assert_eq!(rec.ops[0].0, 1);
        assert_eq!(rec.ops[9].0, 10);
    }

    #[test]
    fn small_segments_rotate_and_recover_in_order() {
        let tmp = TempDir::new("tropic-wal-rotate");
        let opts = DurabilityOptions {
            segment_max_bytes: 64,
            snapshot_every_ops: 0,
            snapshot_max_wal_bytes: 0,
            ..DurabilityOptions::default()
        };
        let mut d = Durability::create(tmp.path(), opts).unwrap();
        for i in 1..=50u64 {
            d.append(i, &create_op(&format!("/node{i}"))).unwrap();
        }
        assert!(d.stats().segments_rotated > 0);
        drop(d);
        assert!(list_segments(tmp.path()).unwrap().len() > 1);
        let rec = recover_dir(tmp.path()).unwrap();
        let zxids: Vec<u64> = rec.ops.iter().map(|(z, _)| *z).collect();
        assert_eq!(zxids, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let tmp = TempDir::new("tropic-wal-torn");
        let mut d = Durability::create(tmp.path(), DurabilityOptions::default()).unwrap();
        for i in 1..=5u64 {
            d.append(i, &create_op(&format!("/n{i}"))).unwrap();
        }
        drop(d);
        // Simulate a crash mid-write: garbage after the last full record.
        let (_, seg) = list_segments(tmp.path()).unwrap().pop().unwrap();
        let mut data = fs::read(&seg).unwrap();
        let clean_len = data.len();
        data.extend_from_slice(&[0xAB; 13]);
        fs::write(&seg, &data).unwrap();
        let rec = recover_dir(tmp.path()).unwrap();
        assert_eq!(rec.ops.len(), 5);
        assert!(rec.truncated_tail);
        // The tear was physically truncated away.
        assert_eq!(fs::read(&seg).unwrap().len(), clean_len);
        // A second recovery is clean.
        let rec = recover_dir(tmp.path()).unwrap();
        assert_eq!(rec.ops.len(), 5);
        assert!(!rec.truncated_tail);
    }

    #[test]
    fn large_record_round_trips_and_a_torn_tail_after_it_is_truncated() {
        let tmp = TempDir::new("tropic-wal-large");
        let big = Op::SetData {
            path: p("/ckpt"),
            data: Bytes::from(vec![0x3C; (1 << 20) + 5]),
            expected_version: Some(2),
        };
        let mut d = Durability::create(tmp.path(), DurabilityOptions::default()).unwrap();
        d.append(1, &create_op("/ckpt")).unwrap();
        d.append(2, &big).unwrap();
        let wal_bytes = d.stats().wal_bytes;
        drop(d);
        let (_, seg) = list_segments(tmp.path()).unwrap().pop().unwrap();
        let mut data = fs::read(&seg).unwrap();
        let clean_len = data.len();
        assert_eq!(clean_len as u64, wal_bytes);
        // A third record torn mid-payload: its header promises more than
        // the file holds.
        let mut torn = encode_frame(3, &big).unwrap();
        torn.truncate(torn.len() / 2);
        data.extend_from_slice(&torn);
        fs::write(&seg, &data).unwrap();

        let rec = recover_dir(tmp.path()).unwrap();
        assert!(rec.truncated_tail);
        assert_eq!(rec.valid_bytes, clean_len as u64);
        let zxids: Vec<u64> = rec.ops.iter().map(|(z, _)| *z).collect();
        assert_eq!(zxids, vec![1, 2]);
        assert!(format!("{:?}", rec.ops[1].1) == format!("{big:?}"));
        assert_eq!(fs::read(&seg).unwrap().len(), clean_len);
    }

    #[test]
    fn corrupt_record_stops_replay_at_last_valid() {
        let tmp = TempDir::new("tropic-wal-corrupt");
        let mut d = Durability::create(tmp.path(), DurabilityOptions::default()).unwrap();
        for i in 1..=5u64 {
            d.append(i, &create_op(&format!("/n{i}"))).unwrap();
        }
        drop(d);
        let (_, seg) = list_segments(tmp.path()).unwrap().pop().unwrap();
        let mut data = fs::read(&seg).unwrap();
        // Flip a byte inside the last record's payload: its CRC now fails.
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        fs::write(&seg, &data).unwrap();
        let rec = recover_dir(tmp.path()).unwrap();
        assert_eq!(rec.ops.len(), 4, "replay stops at the last valid record");
        assert!(rec.truncated_tail);
    }

    #[test]
    fn snapshot_policy_truncates_segments() {
        let tmp = TempDir::new("tropic-wal-snap");
        let opts = DurabilityOptions {
            snapshot_every_ops: 4,
            snapshot_max_wal_bytes: 0,
            ..DurabilityOptions::default()
        };
        let mut d = Durability::create(tmp.path(), opts.clone()).unwrap();
        let mut store = ZnodeStore::new();
        for i in 1..=10u64 {
            let op = create_op(&format!("/n{i}"));
            commit(&mut d, &mut store, i, &op);
        }
        assert_eq!(d.stats().snapshots_written, 2, "at zxid 4 and 8");
        drop(d);
        // Only the post-snapshot suffix remains on disk as WAL records.
        let (reopened, snap, suffix) = Durability::open(tmp.path(), opts).unwrap();
        let (snap_zxid, snap_store) = snap.expect("snapshot exists");
        assert_eq!(snap_zxid, 8);
        assert_eq!(snap_store.node_count(), 9);
        assert_eq!(suffix.len(), 2, "zxids 9 and 10");
        assert_eq!(reopened.stats().snapshots_written, 0);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_without_splicing_the_wal() {
        let tmp = TempDir::new("tropic-wal-splice");
        let opts = DurabilityOptions {
            snapshot_every_ops: 4,
            snapshot_max_wal_bytes: 0,
            ..DurabilityOptions::default()
        };
        let mut d = Durability::create(tmp.path(), opts.clone()).unwrap();
        let mut store = ZnodeStore::new();
        for i in 1..=10u64 {
            let op = create_op(&format!("/n{i}"));
            commit(&mut d, &mut store, i, &op);
        }
        drop(d);
        // Bit rot hits the newest snapshot (zxid 8); the WAL on disk holds
        // only records 9-10, which extend *it*, not the zxid-4 generation.
        let snap8 = tmp.path().join(snapshot::file_name(8));
        let mut data = fs::read(&snap8).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        fs::write(&snap8, &data).unwrap();

        let (_, snap, suffix) = Durability::open(tmp.path(), opts).unwrap();
        let (zxid, store) = snap.expect("older generation still valid");
        assert_eq!(zxid, 4);
        assert_eq!(
            store.node_count(),
            5,
            "recovers the older generation's consistent state"
        );
        assert!(
            suffix.is_empty(),
            "records 9-10 must not splice onto the zxid-4 state over the 5-8 hole"
        );
        assert!(
            list_segments(tmp.path()).unwrap().is_empty(),
            "the untrusted suffix is discarded on disk too"
        );
    }

    #[test]
    fn open_sweeps_half_written_snapshot_tmp_files() {
        let tmp = TempDir::new("tropic-wal-tmp-sweep");
        let mut d = Durability::create(tmp.path(), DurabilityOptions::default()).unwrap();
        d.append(1, &create_op("/a")).unwrap();
        drop(d);
        // A crash inside snapshot::write leaves the temp file behind.
        let orphan = tmp.path().join(format!("{}.tmp", snapshot::file_name(9)));
        fs::write(&orphan, b"half-written").unwrap();
        let _ = Durability::open(tmp.path(), DurabilityOptions::default()).unwrap();
        assert!(!orphan.exists(), "orphaned .tmp must be swept at open");
    }

    #[test]
    fn rotation_sync_never_double_counts_bytes() {
        let tmp = TempDir::new("tropic-wal-rotate-sync");
        let opts = DurabilityOptions {
            sync_policy: SyncPolicy::Periodic { every_ops: 7 },
            snapshot_every_ops: 0,
            snapshot_max_wal_bytes: 0,
            segment_max_bytes: 64, // rotate mid sync-window
            ..DurabilityOptions::default()
        };
        let mut d = Durability::create(tmp.path(), opts).unwrap();
        let store = ZnodeStore::new();
        for i in 1..=50u64 {
            d.append(i, &create_op(&format!("/node{i}"))).unwrap();
            d.commit_batch(i, &store).unwrap();
        }
        d.commit_batch(50, &store).unwrap();
        let s = d.stats();
        assert!(s.segments_rotated > 0);
        assert!(
            s.bytes_fsynced <= s.wal_bytes,
            "fsynced {} exceeds written {}",
            s.bytes_fsynced,
            s.wal_bytes
        );
    }

    #[test]
    fn every_batch_policy_fsyncs_per_batch() {
        let tmp = TempDir::new("tropic-wal-sync");
        let mut d = Durability::create(
            tmp.path(),
            DurabilityOptions {
                sync_policy: SyncPolicy::EveryBatch,
                snapshot_every_ops: 0,
                snapshot_max_wal_bytes: 0,
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        let store = ZnodeStore::new();
        for i in 1..=3u64 {
            d.append(i, &create_op(&format!("/n{i}"))).unwrap();
            d.commit_batch(i, &store).unwrap();
        }
        let s = d.stats();
        assert_eq!(s.fsyncs, 3);
        assert_eq!(s.bytes_fsynced, s.wal_bytes);
    }

    #[test]
    fn pipelined_policy_syncs_every_batch_and_recovers_all_records() {
        let tmp = TempDir::new("tropic-wal-pipelined");
        let opts = DurabilityOptions {
            sync_policy: SyncPolicy::Pipelined { depth: 4 },
            snapshot_every_ops: 0,
            snapshot_max_wal_bytes: 0,
            ..DurabilityOptions::default()
        };
        let mut d = Durability::create(tmp.path(), opts.clone()).unwrap();
        let store = ZnodeStore::new();
        for i in 1..=20u64 {
            d.append(i, &create_op(&format!("/n{i}"))).unwrap();
            d.commit_batch(i, &store).unwrap();
        }
        d.drain_pipeline().unwrap();
        let s = d.stats();
        assert!(s.fsyncs > 0, "the sync thread must actually fsync");
        assert_eq!(
            s.bytes_fsynced, s.wal_bytes,
            "after a drain every appended byte is settled"
        );
        drop(d);
        let (_, snap, suffix) = Durability::open(tmp.path(), opts).unwrap();
        assert!(snap.is_none());
        assert_eq!(suffix.len(), 20, "no acknowledged record may be lost");
        assert_eq!(suffix.last().unwrap().0, 20);
    }

    #[test]
    fn pipelined_depth_zero_stalls_every_batch() {
        let tmp = TempDir::new("tropic-wal-pipelined-strict");
        let opts = DurabilityOptions {
            sync_policy: SyncPolicy::Pipelined { depth: 0 },
            snapshot_every_ops: 0,
            snapshot_max_wal_bytes: 0,
            ..DurabilityOptions::default()
        };
        let mut d = Durability::create(tmp.path(), opts).unwrap();
        let store = ZnodeStore::new();
        for i in 1..=5u64 {
            d.append(i, &create_op(&format!("/n{i}"))).unwrap();
            d.commit_batch(i, &store).unwrap();
        }
        let s = d.stats();
        assert_eq!(
            s.pipeline_stalls, 5,
            "depth 0 waits for its own fsync on every batch"
        );
        assert!(s.pipeline_depth_peak >= 1);
        assert_eq!(s.bytes_fsynced, s.wal_bytes);
    }

    #[test]
    fn small_dirty_set_snapshots_as_delta_and_recovers() {
        let tmp = TempDir::new("tropic-wal-delta");
        let opts = DurabilityOptions {
            snapshot_every_ops: 10,
            snapshot_max_wal_bytes: 0,
            ..DurabilityOptions::default()
        };
        let mut d = Durability::create(tmp.path(), opts.clone()).unwrap();
        let mut store = ZnodeStore::new();
        // Round one dirties the whole store (10 creates on 11 nodes): full.
        for i in 1..=10u64 {
            let op = create_op(&format!("/n{i}"));
            commit(&mut d, &mut store, i, &op);
        }
        // Round two touches a single node out of 11: delta.
        for i in 11..=20u64 {
            let op = Op::SetData {
                path: p("/n1"),
                data: Bytes::from(format!("v{i}")),
                expected_version: None,
            };
            commit(&mut d, &mut store, i, &op);
        }
        let s = d.stats();
        assert_eq!(s.snapshots_written, 2);
        assert_eq!(s.delta_snapshots_written, 1, "second round is a delta");
        assert!(tmp.path().join(snapshot::file_name(10)).exists());
        assert!(tmp.path().join(snapshot::delta_file_name(20)).exists());
        drop(d);
        let (_, snap, suffix) = Durability::open(tmp.path(), opts).unwrap();
        let (zxid, recovered) = snap.expect("chain recovers");
        assert_eq!(zxid, 20);
        assert!(suffix.is_empty());
        assert_eq!(recovered, store);
    }

    #[test]
    fn delta_chain_max_forces_periodic_full_compaction() {
        let tmp = TempDir::new("tropic-wal-delta-compact");
        let opts = DurabilityOptions {
            snapshot_every_ops: 2,
            snapshot_max_wal_bytes: 0,
            delta_chain_max: 1,
            ..DurabilityOptions::default()
        };
        let mut d = Durability::create(tmp.path(), opts).unwrap();
        let mut store = ZnodeStore::new();
        for i in 1..=10u64 {
            let op = create_op(&format!("/n{i}"));
            commit(&mut d, &mut store, i, &op);
        }
        // Ten single-touch rounds of two ops each: snapshot every round.
        for i in 11..=30u64 {
            let op = Op::SetData {
                path: p("/n1"),
                data: Bytes::from(format!("v{i}")),
                expected_version: None,
            };
            commit(&mut d, &mut store, i, &op);
        }
        let s = d.stats();
        assert!(s.delta_snapshots_written > 0);
        assert!(
            s.snapshots_written > 2 * s.delta_snapshots_written,
            "chain_max 1 alternates full/delta: {} snapshots, {} deltas",
            s.snapshots_written,
            s.delta_snapshots_written
        );
    }

    #[test]
    fn reverted_multi_leaves_no_delta_records() {
        let tmp = TempDir::new("tropic-wal-reverted-multi");
        let opts = DurabilityOptions {
            snapshot_every_ops: 4,
            snapshot_max_wal_bytes: 0,
            ..DurabilityOptions::default()
        };
        let mut d = Durability::create(tmp.path(), opts.clone()).unwrap();
        let mut store = ZnodeStore::new();
        for i in 1..=4u64 {
            commit(&mut d, &mut store, i, &create_op(&format!("/n{i}")));
        }
        assert_eq!(d.stats().snapshots_written, 1, "full snapshot at zxid 4");
        // Two sub-ops apply and are reverted when the third fails: the log
        // grows, the store does not change.
        let failing = Op::Multi {
            ops: vec![
                create_op("/reverted"),
                Op::SetData {
                    path: p("/n1"),
                    data: Bytes::from_static(b"reverted"),
                    expected_version: None,
                },
                create_op("/n1"),
            ],
        };
        let before = store.clone();
        for i in 5..=8u64 {
            commit(&mut d, &mut store, i, &failing);
        }
        assert_eq!(store, before);
        assert_eq!(d.stats().delta_snapshots_written, 1, "delta at zxid 8");
        // Byte-for-byte the delta that carries no record at all.
        let empty = TempDir::new("tropic-wal-reverted-multi-empty");
        snapshot::write_delta(empty.path(), 4, 8, &[]).unwrap();
        let name = snapshot::delta_file_name(8);
        assert_eq!(
            fs::read(tmp.path().join(&name)).unwrap(),
            fs::read(empty.path().join(&name)).unwrap()
        );
        drop(d);
        let (_, snap, suffix) = Durability::open(tmp.path(), opts).unwrap();
        assert!(suffix.is_empty());
        assert_eq!(snap.expect("chain recovers"), (8, store));
    }

    mod frame_layer {
        use std::io::Read;

        use crate::frame::{write_frame, FrameError, FrameReader};

        /// Wraps a byte slice, serving at most `chunk` bytes per read —
        /// a socket delivering arbitrarily small TCP segments.
        struct Trickle<'a> {
            data: &'a [u8],
            pos: usize,
            chunk: usize,
        }

        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = (self.data.len() - self.pos).min(self.chunk).min(buf.len());
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }

        fn framed(payloads: &[&[u8]]) -> Vec<u8> {
            let mut out = Vec::new();
            for p in payloads {
                write_frame(&mut out, p).unwrap();
            }
            out
        }

        #[test]
        fn roundtrip_one_byte_at_a_time() {
            let wire = framed(&[b"hello", b"", b"world"]);
            let mut r = Trickle {
                data: &wire,
                pos: 0,
                chunk: 1,
            };
            let mut reader = FrameReader::new();
            let mut got = Vec::new();
            loop {
                match reader.read_from(&mut r, 1 << 20) {
                    Ok(Some(p)) => got.push(p),
                    Ok(None) => unreachable!("Trickle never times out"),
                    Err(FrameError::Closed) => break,
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            assert_eq!(got, vec![b"hello".to_vec(), Vec::new(), b"world".to_vec()]);
        }

        #[test]
        fn several_frames_in_one_read_all_drain() {
            let wire = framed(&[b"a", b"b", b"c"]);
            let mut cursor = &wire[..];
            let mut reader = FrameReader::new();
            for want in [b"a", b"b", b"c"] {
                let got = reader.read_from(&mut cursor, 1 << 20).unwrap().unwrap();
                assert_eq!(got, want);
            }
            assert!(matches!(
                reader.read_from(&mut cursor, 1 << 20),
                Err(FrameError::Closed)
            ));
        }

        #[test]
        fn corrupt_crc_rejected_typed() {
            let mut wire = framed(&[b"payload"]);
            let last = wire.len() - 1;
            wire[last] ^= 0xFF;
            let mut cursor = &wire[..];
            let mut reader = FrameReader::new();
            assert!(matches!(
                reader.read_from(&mut cursor, 1 << 20),
                Err(FrameError::Crc { .. })
            ));
        }

        #[test]
        fn oversized_length_prefix_rejected_before_buffering() {
            let wire = framed(&[&[0u8; 64]]);
            let mut cursor = &wire[..];
            let mut reader = FrameReader::new();
            match reader.read_from(&mut cursor, 16) {
                Err(FrameError::Oversized { len: 64, max: 16 }) => {}
                other => panic!("unexpected {other:?}"),
            }
        }

        #[test]
        fn eof_mid_frame_is_truncated_not_closed() {
            let wire = framed(&[b"payload"]);
            let cut = &wire[..wire.len() - 2];
            let mut cursor = cut;
            let mut reader = FrameReader::new();
            assert!(matches!(
                reader.read_from(&mut cursor, 1 << 20),
                Err(FrameError::Truncated { .. })
            ));
        }
    }
}
