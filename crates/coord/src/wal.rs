//! Segmented write-ahead log and the per-replica durability handle.
//!
//! Every committed store operation is appended to an on-disk segment as a
//! length-prefixed, CRC-checksummed record *before* it is applied, mirroring
//! ZooKeeper's transaction log — the durable half of the paper's
//! "highly-available transactional orchestration" claim (§2.3, §6.1).
//! A whole scheduling round is one [`Op::Multi`], so one appended record
//! covers it; and the ensemble commits writes from concurrent sessions as
//! one group, so one fsync covers every record of the group.
//!
//! There is one fsync discipline, ZooKeeper's: every record a group
//! appended is on disk before the group is acknowledged, so a replica never
//! acknowledges a record that a power loss could take back. The fsync is
//! handed out as a [`PendingSync`] — a handle on the current segment that
//! borrows nothing — so the ensemble runs it on every acking replica at
//! once with no lock held, and records its outcome with
//! [`Durability::synced`]. A snapshot the policy asks for is handed out the
//! same way, as a `DueSnapshot`, and recorded with
//! `Durability::snapshot_written` (see `Ensemble::begin_group`).
//!
//! The log is segmented: a segment file is named after the zxid of its
//! first record and rotated once it exceeds
//! [`DurabilityOptions::segment_max_bytes`]. When a fuzzy snapshot is
//! written (see [`crate::snapshot`]), every segment is fully covered by it
//! and deleted, bounding the disk.
//!
//! Recovery reads segments in zxid order and stops at the first torn or
//! corrupt record: the tail is truncated (it was never acknowledged) and
//! later segments, which would sit beyond the tear, are discarded.
//!
//! The record encoding lives in `crate::codec`, the socket framing that
//! shares its layout in [`crate::frame`].

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path as StdPath, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use crate::codec;
use crate::snapshot;
use crate::store::{Op, ZnodeStore};

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
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { op, error } => write!(f, "WAL {op} I/O failed: {error}"),
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

/// Durability tuning for one replica.
#[derive(Clone, Debug)]
pub struct DurabilityOptions {
    /// Write a snapshot (and truncate the log) after this many appended
    /// records. `0` disables the op-count trigger.
    pub snapshot_every_ops: u64,
    /// Write a snapshot once the live segments exceed this many bytes.
    /// `0` disables the size trigger.
    pub snapshot_max_wal_bytes: u64,
    /// Rotate to a new segment file once the current one exceeds this size.
    pub segment_max_bytes: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            snapshot_every_ops: 1_024,
            snapshot_max_wal_bytes: 4 << 20,
            segment_max_bytes: 1 << 20,
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
    /// Snapshots written (policy-triggered and snapshot transfers).
    pub snapshots_written: u64,
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
    file: File,
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
                // Rotation in the middle of a group leaves the group's
                // earlier records unsynced in the outgoing segment; settle
                // them before abandoning the handle, since the group's
                // fsync only reaches the new one.
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
            self.current = Some(Segment { file, bytes });
        }
        let Some(seg) = self.current.as_mut() else {
            // Unreachable: the branch above always installs a segment.
            return Err(io::Error::other("no current WAL segment"));
        };
        seg.file.write_all(frame)?;
        seg.bytes += frame.len() as u64;
        Ok(rotated)
    }

    /// A second handle on the current segment, for an fsync that runs
    /// without borrowing the log.
    fn current_file(&self) -> io::Result<File> {
        match &self.current {
            Some(seg) => seg.file.try_clone(),
            None => Err(io::Error::other("no current WAL segment")),
        }
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

/// An fsync of one replica's current segment, detached from its
/// [`Durability`] so it can run with no lock held: it owns a second handle
/// on the file, the modeled device latency and the byte count it covers.
/// [`PendingSync::run`] performs it; [`Durability::synced`] records it.
pub struct PendingSync {
    file: File,
    latency: Duration,
    bytes: u64,
    outcome: Option<io::Result<()>>,
}

impl PendingSync {
    /// Waits out the modeled device latency, then forces the segment to
    /// stable storage.
    pub fn run(&mut self) {
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
        self.outcome = Some(self.file.sync_data());
    }
}

/// A snapshot the policy asked for, detached from its [`Durability`] so it
/// can be written with no lock held. It shares the replica's store, which
/// must not change until [`DueSnapshot::write`] has released it.
/// [`Durability::snapshot_written`] records it.
pub(crate) struct DueSnapshot {
    dir: PathBuf,
    zxid: u64,
    store: Option<Arc<ZnodeStore>>,
    outcome: Option<io::Result<usize>>,
}

impl DueSnapshot {
    /// Streams the snapshot to disk and prunes old generations, then
    /// releases the store.
    pub(crate) fn write(&mut self) {
        if let Some(store) = self.store.take() {
            let written = snapshot::write(&self.dir, self.zxid, &store);
            self.outcome = Some(written.map(|_| snapshot::retain_latest(&self.dir, 2)));
        }
    }
}

/// One replica's durability handle: its write-ahead log, snapshot policy,
/// and counters. Owned by an ensemble replica. A commit group is appended
/// with [`Durability::append_frame`] before it is applied, made durable
/// through [`Durability::pending_sync`] and [`Durability::synced`], and may
/// end with the `Durability::due_snapshot` the policy asks for.
pub struct Durability {
    dir: PathBuf,
    opts: DurabilityOptions,
    wal: Wal,
    stats: DurabilityStats,
    ops_since_snapshot: u64,
    wal_bytes_since_snapshot: u64,
    unsynced_bytes: u64,
    /// Modeled device latency added to every fsync; changeable after
    /// construction so benches can populate fast, then measure.
    simulated_fsync_latency: Duration,
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
            unsynced_bytes: 0,
            simulated_fsync_latency: Duration::ZERO,
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
    /// cleanly-closed directory are idempotent. A directory holding an
    /// incremental snapshot from an earlier version is refused with
    /// [`io::ErrorKind::InvalidData`] (see [`snapshot::refuse_incremental`]).
    pub fn open(dir: &StdPath, opts: DurabilityOptions) -> io::Result<OpenedDurability> {
        fs::create_dir_all(dir)?;
        let swept = snapshot::sweep_tmp(dir);
        snapshot::refuse_incremental(dir)?;
        let (snap, newer_corrupt) = snapshot::load_latest_detailed(dir);
        let horizon = snap.as_ref().map(|(zxid, _)| *zxid).unwrap_or(0);
        let mut d = Self::fresh(dir, opts);
        if swept > 0 {
            d.stats.dir_fsyncs += 1;
        }
        if newer_corrupt {
            // The live segments extend the corrupt newest generation, not
            // the older one loaded: replaying them here would splice a hole
            // over the lost history. Drop them — the replica recovers to a
            // *consistent* earlier state and catches the rest up from the
            // leader via snapshot transfer.
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
            // it here or the group's fsync would double-count the bytes.
            self.stats.fsyncs += 1;
            self.stats.bytes_fsynced += self.unsynced_bytes;
            self.unsynced_bytes = 0;
        }
        let len = frame.len() as u64;
        self.stats.wal_records += 1;
        self.stats.wal_bytes += len;
        self.unsynced_bytes += len;
        self.ops_since_snapshot += 1;
        self.wal_bytes_since_snapshot += len;
        Ok(())
    }

    /// The fsync that makes everything appended so far durable, or `None`
    /// when nothing is waiting for one.
    pub fn pending_sync(&self) -> WalResult<Option<PendingSync>> {
        if self.unsynced_bytes == 0 {
            return Ok(None);
        }
        let file = self.wal.current_file().map_err(wal_io("fsync"))?;
        Ok(Some(PendingSync {
            file,
            latency: self.simulated_fsync_latency,
            bytes: self.unsynced_bytes,
            outcome: None,
        }))
    }

    /// Records the outcome of a [`PendingSync`] taken from this handle. A
    /// sync that never ran counts as failed.
    pub fn synced(&mut self, sync: PendingSync) -> WalResult<()> {
        let outcome = sync
            .outcome
            .unwrap_or_else(|| Err(io::Error::other("fsync never ran")));
        outcome.map_err(wal_io("fsync"))?;
        self.stats.fsyncs += 1;
        self.stats.bytes_fsynced += sync.bytes;
        self.unsynced_bytes = self.unsynced_bytes.saturating_sub(sync.bytes);
        Ok(())
    }

    /// The snapshot of `store` at `zxid` that the policy asks for once a
    /// group is durable, if it asks for one.
    pub(crate) fn due_snapshot(&self, zxid: u64, store: &Arc<ZnodeStore>) -> Option<DueSnapshot> {
        let by_ops = self.opts.snapshot_every_ops > 0
            && self.ops_since_snapshot >= self.opts.snapshot_every_ops;
        let by_bytes = self.opts.snapshot_max_wal_bytes > 0
            && self.wal_bytes_since_snapshot >= self.opts.snapshot_max_wal_bytes;
        (by_ops || by_bytes).then(|| self.snapshot_of(zxid, store))
    }

    fn snapshot_of(&self, zxid: u64, store: &Arc<ZnodeStore>) -> DueSnapshot {
        DueSnapshot {
            dir: self.dir.clone(),
            zxid,
            store: Some(Arc::clone(store)),
            outcome: None,
        }
    }

    /// Records a [`DueSnapshot`] taken from this handle and, once it is on
    /// disk, truncates every WAL segment it covers. A snapshot that was
    /// never written counts as failed.
    pub(crate) fn snapshot_written(&mut self, snap: DueSnapshot) -> WalResult<()> {
        let outcome = snap
            .outcome
            .unwrap_or_else(|| Err(io::Error::other("snapshot never written")));
        let removed = outcome.map_err(wal_io("snapshot"))?;
        // snapshot::write fsyncs the directory after its rename.
        self.stats.dir_fsyncs += 1;
        if removed > 0 {
            self.stats.dir_fsyncs += 1;
        }
        self.wal.clear().map_err(wal_io("truncate"))?;
        self.stats.snapshots_written += 1;
        self.ops_since_snapshot = 0;
        self.wal_bytes_since_snapshot = 0;
        self.unsynced_bytes = 0;
        Ok(())
    }

    /// Writes a full snapshot of `store` at `zxid` in place and truncates
    /// every WAL segment: a follower installing a state transfer from the
    /// leader persists it this way.
    pub fn write_snapshot(&mut self, zxid: u64, store: &Arc<ZnodeStore>) -> WalResult<()> {
        let mut snap = self.snapshot_of(zxid, store);
        snap.write();
        self.snapshot_written(snap)
    }

    /// Changes the modeled device latency added to every fsync (zero — the
    /// initial value — adds nothing). Takes effect on the next sync, so
    /// benches can populate a store quickly and then measure with a
    /// realistic device model.
    pub fn set_simulated_fsync_latency(&mut self, latency: Duration) {
        self.simulated_fsync_latency = latency;
    }

    /// This replica's durability counters.
    pub fn stats(&self) -> DurabilityStats {
        let mut stats = self.stats;
        stats.dir_fsyncs += self.wal.dir_fsyncs();
        stats
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

    /// Makes everything appended so far durable, as the ensemble does for
    /// each acking replica of a group.
    fn fsync(d: &mut Durability) {
        if let Some(mut sync) = d.pending_sync().unwrap() {
            sync.run();
            d.synced(sync).unwrap();
        }
    }

    /// One committed op the way a replica drives the handle: log, fsync,
    /// apply, then the snapshot the policy asks for.
    fn commit(d: &mut Durability, store: &mut Arc<ZnodeStore>, zxid: u64, op: &Op) {
        d.append(zxid, op).unwrap();
        fsync(d);
        Arc::make_mut(store).apply(zxid, op).0.unwrap();
        if let Some(mut snap) = d.due_snapshot(zxid, store) {
            snap.write();
            d.snapshot_written(snap).unwrap();
        }
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
        let mut store = Arc::new(ZnodeStore::new());
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
        let mut store = Arc::new(ZnodeStore::new());
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
            snapshot_every_ops: 0,
            snapshot_max_wal_bytes: 0,
            segment_max_bytes: 64, // rotate in the middle of a batch
        };
        let mut d = Durability::create(tmp.path(), opts).unwrap();
        for batch in 0..10u64 {
            for k in 1..=5u64 {
                let zxid = batch * 5 + k;
                d.append(zxid, &create_op(&format!("/node{zxid}"))).unwrap();
            }
            fsync(&mut d);
            let s = d.stats();
            assert_eq!(
                s.bytes_fsynced, s.wal_bytes,
                "batch {batch}: every appended byte is fsynced exactly once"
            );
        }
        assert!(d.stats().segments_rotated > 0);
    }

    #[test]
    fn commit_batch_fsyncs_once_per_batch() {
        let tmp = TempDir::new("tropic-wal-sync");
        let mut d = Durability::create(
            tmp.path(),
            DurabilityOptions {
                snapshot_every_ops: 0,
                snapshot_max_wal_bytes: 0,
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        for i in 1..=3u64 {
            d.append(i, &create_op(&format!("/n{i}"))).unwrap();
            fsync(&mut d);
        }
        // A batch with nothing appended has nothing to sync.
        assert!(d.pending_sync().unwrap().is_none());
        let s = d.stats();
        assert_eq!(s.fsyncs, 3);
        assert_eq!(s.bytes_fsynced, s.wal_bytes);
    }

    #[test]
    fn pipelined_policy_syncs_every_batch_and_recovers_all_records() {
        let tmp = TempDir::new("tropic-wal-pipelined");
        let opts = DurabilityOptions {
            snapshot_every_ops: 0,
            snapshot_max_wal_bytes: 0,
            ..DurabilityOptions::default()
        };
        let mut d = Durability::create(tmp.path(), opts.clone()).unwrap();
        for i in 1..=20u64 {
            d.append(i, &create_op(&format!("/n{i}"))).unwrap();
            fsync(&mut d);
        }
        let s = d.stats();
        assert_eq!(s.fsyncs, 20);
        assert_eq!(
            s.bytes_fsynced, s.wal_bytes,
            "every committed batch is settled once its fsync is recorded"
        );
        drop(d);
        let (_, snap, suffix) = Durability::open(tmp.path(), opts).unwrap();
        assert!(snap.is_none());
        assert_eq!(suffix.len(), 20, "no acknowledged record may be lost");
        assert_eq!(suffix.last().unwrap().0, 20);
    }

    #[test]
    fn a_data_dir_holding_an_incremental_snapshot_is_refused() {
        let tmp = TempDir::new("tropic-wal-refuse-delta");
        let opts = DurabilityOptions {
            snapshot_every_ops: 4,
            snapshot_max_wal_bytes: 0,
            ..DurabilityOptions::default()
        };
        let mut d = Durability::create(tmp.path(), opts.clone()).unwrap();
        let mut store = Arc::new(ZnodeStore::new());
        for i in 1..=6u64 {
            commit(&mut d, &mut store, i, &create_op(&format!("/n{i}")));
        }
        drop(d);
        // A delta an earlier version wrote at zxid 6 would have truncated
        // the WAL: recovering the full snapshot at 4 without it loses 5-6.
        let delta = tmp.path().join(format!("delta-{:016x}.bin", 6));
        fs::write(&delta, b"TRPCDLT1").unwrap();
        let err = Durability::open(tmp.path(), opts.clone()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let name = delta.file_name().unwrap().to_str().unwrap();
        assert!(err.to_string().contains(name), "{err}");
        assert!(delta.exists(), "the refused directory is left as it was");
        // Without the delta the same directory opens as before.
        fs::remove_file(&delta).unwrap();
        let (_, snap, suffix) = Durability::open(tmp.path(), opts).unwrap();
        assert_eq!(snap.map(|(zxid, _)| zxid), Some(4));
        assert_eq!(suffix.len(), 2, "zxids 5 and 6");
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
