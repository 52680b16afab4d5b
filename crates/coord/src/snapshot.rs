//! Fuzzy snapshots of the znode store — full and incremental (delta).
//!
//! A **full** snapshot (`snap-<zxid>.bin`, magic `TRPCSNP1`) captures the
//! *entire* replicated state — data, versions, zxids, ephemeral owners, and
//! sequential counters — at a batch boundary, tagged with the zxid of the
//! last op it reflects. A **delta** snapshot (`delta-<zxid>.bin`, magic
//! `TRPCDLT1`) captures only the paths dirtied since the previous snapshot:
//! it names the zxid of that base (`base_zxid`) and carries
//! [`DeltaRecord`]s encoded with the same WAL codec. Which paths those are
//! is the [`DirtySet`], kept by the one reader that snapshots — the
//! replica's [`crate::wal::Durability`] handle — and not by the store, so a
//! replica without durability tracks nothing. Deltas form a
//! chain — full at the base, each delta's `base_zxid` equal to the previous
//! tip — resolved by [`load_chain`]. Together with the write-ahead log
//! suffix after the chain tip ([`crate::wal`]), the chain reconstructs a
//! store byte-identical to the live one, which is what lets replicas
//! truncate both their on-disk segments and their in-memory op logs
//! (ZooKeeper's snapshot + txn-log recovery scheme, paper §2.3).
//!
//! Files are written atomically (temp file, fsync, rename, directory
//! fsync) and carry a magic header plus a trailing CRC-32. The body is
//! encoded straight into a buffered file while the CRC is updated as bytes
//! pass, so a multi-MB store is never built whole in memory (ZooKeeper
//! serializes its fuzzy snapshots to a stream the same way). Loaders skip
//! anything that fails validation, falling back to the previous full
//! generation or the longest valid chain prefix. Old directories that hold
//! only `snap-*` files load unchanged: a chain of length zero.

use std::collections::BTreeSet;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path as StdPath, PathBuf};

use tropic_model::Path;

use crate::codec;
use crate::store::{DeltaRecord, StoreEvent, ZnodeStore};

const MAGIC: &[u8; 8] = b"TRPCSNP1";
const DELTA_MAGIC: &[u8; 8] = b"TRPCDLT1";
const PREFIX: &str = "snap-";
const DELTA_PREFIX: &str = "delta-";
const SUFFIX: &str = ".bin";
const TAG_PUT: u8 = 1;
const TAG_TOMBSTONE: u8 = 2;
/// Write buffer of one snapshot file: the most a snapshot write holds.
const WRITE_BUFFER_BYTES: usize = 64 << 10;

/// The paths the next delta snapshot must contain: every path a
/// [`StoreEvent`] has named since the last snapshot. Events are the store's
/// complete change report — a create or delete names the node and its
/// parent (whose child set and sequential counter moved), a set names the
/// node — and a failed or reverted op emits none, so it marks nothing.
#[derive(Debug, Default)]
pub struct DirtySet {
    paths: BTreeSet<Path>,
}

impl DirtySet {
    /// Marks every path `events` name.
    pub fn mark(&mut self, events: &[StoreEvent]) {
        for event in events {
            let (StoreEvent::Created(path)
            | StoreEvent::Deleted(path)
            | StoreEvent::DataChanged(path)
            | StoreEvent::ChildrenChanged(path)) = event;
            self.paths.insert(path.clone());
        }
    }

    /// The marked paths, in the order [`ZnodeStore::delta_records`] needs.
    pub fn paths(&self) -> &BTreeSet<Path> {
        &self.paths
    }

    /// Forgets all marks. Called once a snapshot (full or delta) has
    /// captured the state they describe.
    pub fn clear(&mut self) {
        self.paths.clear();
    }
}

/// File name of the full snapshot tagged with `zxid`.
pub fn file_name(zxid: u64) -> String {
    format!("{PREFIX}{zxid:016x}{SUFFIX}")
}

/// File name of the delta snapshot whose tip is `zxid`.
pub fn delta_file_name(zxid: u64) -> String {
    format!("{DELTA_PREFIX}{zxid:016x}{SUFFIX}")
}

fn list_prefixed(dir: &StdPath, prefix: &str) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(hex) = name
            .strip_prefix(prefix)
            .and_then(|n| n.strip_suffix(SUFFIX))
        else {
            continue;
        };
        if let Ok(zxid) = u64::from_str_radix(hex, 16) {
            out.push((zxid, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(zxid, _)| *zxid);
    out
}

/// Full snapshot files in `dir`, sorted ascending by zxid.
pub fn list(dir: &StdPath) -> Vec<(u64, PathBuf)> {
    list_prefixed(dir, PREFIX)
}

/// Delta snapshot files in `dir`, sorted ascending by tip zxid.
pub fn list_deltas(dir: &StdPath) -> Vec<(u64, PathBuf)> {
    list_prefixed(dir, DELTA_PREFIX)
}

/// Atomically writes a full snapshot of `store` tagged with `zxid`,
/// returning the file size in bytes.
pub fn write(dir: &StdPath, zxid: u64, store: &ZnodeStore) -> io::Result<u64> {
    write_atomic(dir, &file_name(zxid), MAGIC, |out| {
        codec::put_u64(out, zxid)?;
        store.encode_into(out)
    })
}

/// Atomically writes a delta snapshot with tip `zxid` chained onto the
/// snapshot at `base_zxid`, returning the file size in bytes.
pub fn write_delta(
    dir: &StdPath,
    base_zxid: u64,
    zxid: u64,
    records: &[DeltaRecord],
) -> io::Result<u64> {
    write_atomic(dir, &delta_file_name(zxid), DELTA_MAGIC, |out| {
        codec::put_u64(out, zxid)?;
        codec::put_u64(out, base_zxid)?;
        codec::put_u32(out, records.len() as u32)?;
        records
            .iter()
            .try_for_each(|rec| encode_delta_record(rec, out))
    })
}

/// The file a snapshot body is encoded into: buffered, and checksummed as
/// the bytes pass, so no write path holds more than the buffer.
type BodyWriter = codec::CrcWriter<BufWriter<fs::File>>;

/// Writes `magic ‖ body ‖ crc32(body)` to a temp file, where `encode`
/// streams the body, then fsyncs it, renames it over `name` and fsyncs
/// the directory. Returns the file size in bytes.
fn write_atomic(
    dir: &StdPath,
    name: &str,
    magic: &[u8; 8],
    encode: impl FnOnce(&mut BodyWriter) -> io::Result<()>,
) -> io::Result<u64> {
    let final_path = dir.join(name);
    let tmp_path = dir.join(format!("{name}.tmp"));
    let mut file = BufWriter::with_capacity(WRITE_BUFFER_BYTES, fs::File::create(&tmp_path)?);
    file.write_all(magic)?;
    let mut body = codec::CrcWriter::new(file);
    encode(&mut body)?;
    let (mut file, crc, body_len) = body.finish();
    file.write_all(&crc.to_le_bytes())?;
    file.into_inner().map_err(|e| e.into_error())?.sync_data()?;
    fs::rename(&tmp_path, &final_path)?;
    // The rename is only durable once the directory is fsynced; this must
    // succeed before the caller may truncate the WAL the snapshot covers,
    // so a failure propagates instead of being swallowed.
    fs::File::open(dir)?.sync_all()?;
    Ok(magic.len() as u64 + body_len + 4)
}

fn encode_delta_record<W: Write>(rec: &DeltaRecord, out: &mut W) -> io::Result<()> {
    match rec {
        DeltaRecord::Put {
            path,
            data,
            czxid,
            mzxid,
            version,
            ephemeral_owner,
            cseq,
        } => {
            codec::put_u8(out, TAG_PUT)?;
            codec::put_str(out, &path.to_string())?;
            codec::put_bytes(out, data)?;
            codec::put_u64(out, *czxid)?;
            codec::put_u64(out, *mzxid)?;
            codec::put_u64(out, *version)?;
            codec::put_opt_u64(out, *ephemeral_owner)?;
            codec::put_u64(out, *cseq)
        }
        DeltaRecord::Tombstone { path } => {
            codec::put_u8(out, TAG_TOMBSTONE)?;
            codec::put_str(out, &path.to_string())
        }
    }
}

fn decode_delta_record(cur: &mut codec::Cursor<'_>) -> Option<DeltaRecord> {
    match cur.u8()? {
        TAG_PUT => {
            let path = Path::parse(cur.str()?).ok()?;
            let data = bytes::Bytes::copy_from_slice(cur.bytes()?);
            Some(DeltaRecord::Put {
                path,
                data,
                czxid: cur.u64()?,
                mzxid: cur.u64()?,
                version: cur.u64()?,
                ephemeral_owner: cur.opt_u64()?,
                cseq: cur.u64()?,
            })
        }
        TAG_TOMBSTONE => Some(DeltaRecord::Tombstone {
            path: Path::parse(cur.str()?).ok()?,
        }),
        _ => None,
    }
}

/// Loads the newest snapshot in `dir` that passes validation (magic, CRC,
/// full decode, zxid matching the file name). Corrupt generations are
/// skipped, not fatal.
pub fn load_latest(dir: &StdPath) -> Option<(u64, ZnodeStore)> {
    load_latest_detailed(dir).0
}

/// Like [`load_latest`], but also reports whether a *newer* generation
/// file existed and failed validation. That matters to recovery: the live
/// WAL segments always extend the newest snapshot taken (truncation
/// deletes everything older), so when the newest generation is corrupt the
/// suffix on disk is **not contiguous** with the older generation loaded
/// here and must not be replayed on top of it.
pub fn load_latest_detailed(dir: &StdPath) -> (Option<(u64, ZnodeStore)>, bool) {
    let mut newer_corrupt = false;
    let mut snaps = list(dir);
    while let Some((zxid, path)) = snaps.pop() {
        if let Some(store) = load_file(&path, zxid) {
            return (Some((zxid, store)), newer_corrupt);
        }
        newer_corrupt = true;
    }
    (None, newer_corrupt)
}

/// Result of resolving a directory's snapshot chain: the newest valid full
/// snapshot plus every delta that links onto it.
#[derive(Debug)]
pub struct RecoveredChain {
    /// Store and zxid at the resolved chain tip; `None` for a fresh dir.
    pub snapshot: Option<(u64, ZnodeStore)>,
    /// Number of deltas applied on top of the base full snapshot.
    pub chain_len: u64,
    /// A snapshot file newer than the resolved tip existed but failed
    /// validation or did not link into the chain. The WAL suffix on disk
    /// extends that newer state, not the resolved tip, so it must not be
    /// replayed on top of this store (see [`load_latest_detailed`]).
    pub newer_corrupt: bool,
}

/// Resolves the snapshot chain in `dir`: the newest full snapshot that
/// passes validation, then each delta in zxid order whose `base_zxid`
/// matches the running tip. A torn or corrupt delta ends the chain at the
/// longest valid prefix with `newer_corrupt` set; deltas at or below the
/// newest full are superseded debris and are ignored. Directories written
/// before the delta format existed resolve as a chain of length zero.
pub fn load_chain(dir: &StdPath) -> RecoveredChain {
    let (base, mut newer_corrupt) = load_latest_detailed(dir);
    let deltas = list_deltas(dir);
    let Some((base_zxid, mut store)) = base else {
        return RecoveredChain {
            snapshot: None,
            chain_len: 0,
            newer_corrupt: newer_corrupt || !deltas.is_empty(),
        };
    };
    let mut tip = base_zxid;
    let mut chain_len = 0u64;
    for (zxid, path) in deltas {
        if zxid <= base_zxid {
            continue;
        }
        if newer_corrupt {
            // Deltas chained onto a corrupt full cannot link to the older
            // base we fell back to; don't even try.
            break;
        }
        match load_delta_file(&path, zxid) {
            Some((delta_base, records)) if delta_base == tip => {
                if store.apply_delta(&records).is_none() {
                    newer_corrupt = true;
                    break;
                }
                tip = zxid;
                chain_len += 1;
            }
            _ => {
                newer_corrupt = true;
                break;
            }
        }
    }
    RecoveredChain {
        snapshot: Some((tip, store)),
        chain_len,
        newer_corrupt,
    }
}

/// Removes half-written `*.tmp` snapshot files left by a crash between
/// create and rename, so repeated crash-during-snapshot cycles cannot
/// leak disk. Returns the number of files removed; when any were, the
/// directory is fsynced so the cleanup itself survives power loss.
pub fn sweep_tmp(dir: &StdPath) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        if name.to_str().is_some_and(|n| n.ends_with(".tmp"))
            && fs::remove_file(entry.path()).is_ok()
        {
            removed += 1;
        }
    }
    if removed > 0 {
        let _ = fs::File::open(dir).and_then(|f| f.sync_all());
    }
    removed
}

/// Reads the snapshot file at `path` and checks what both kinds share: the
/// `magic` header, the trailing CRC-32 over the body, and the body's
/// leading zxid against `expect_zxid` (the one in the file name). Then
/// `decode` reads the rest of the body, which it must consume exactly.
/// `None` on any malformed input.
fn load_checked<T>(
    path: &StdPath,
    magic: &[u8; 8],
    expect_zxid: u64,
    decode: impl FnOnce(&mut codec::Cursor<'_>) -> Option<T>,
) -> Option<T> {
    let data = fs::read(path).ok()?;
    let rest = data.strip_prefix(magic.as_slice())?;
    let (body, crc) = rest.split_at_checked(rest.len().checked_sub(4)?)?;
    if codec::crc32(body) != codec::le_u32_at(crc, 0)? {
        return None;
    }
    let mut cur = codec::Cursor::new(body);
    if cur.u64()? != expect_zxid {
        return None;
    }
    let value = decode(&mut cur)?;
    cur.is_done().then_some(value)
}

fn load_file(path: &StdPath, expect_zxid: u64) -> Option<ZnodeStore> {
    load_checked(path, MAGIC, expect_zxid, ZnodeStore::decode_from)
}

fn load_delta_file(path: &StdPath, expect_zxid: u64) -> Option<(u64, Vec<DeltaRecord>)> {
    load_checked(path, DELTA_MAGIC, expect_zxid, |cur| {
        let base_zxid = cur.u64()?;
        let count = cur.u32()?;
        let mut records = Vec::new();
        for _ in 0..count {
            records.push(decode_delta_record(cur)?);
        }
        Some((base_zxid, records))
    })
}

/// Deletes all but the newest `keep` full-snapshot generations, plus every
/// delta at or below the newest full (superseded: the live chain is
/// exactly the deltas above it). Returns the number of files removed;
/// when any were, the directory is fsynced so the deletions are durable.
pub fn retain_latest(dir: &StdPath, keep: usize) -> usize {
    let snaps = list(dir);
    let mut removed = 0;
    if snaps.len() > keep {
        for (_, path) in &snaps[..snaps.len() - keep] {
            if fs::remove_file(path).is_ok() {
                removed += 1;
            }
        }
    }
    if let Some((newest_full, _)) = snaps.last() {
        for (zxid, path) in list_deltas(dir) {
            if zxid <= *newest_full && fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
    }
    if removed > 0 {
        let _ = fs::File::open(dir).and_then(|f| f.sync_all());
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Op;
    use crate::testutil::TempDir;
    use bytes::Bytes;

    fn populated_store() -> ZnodeStore {
        let mut s = ZnodeStore::new();
        for (zxid, op) in [
            (
                1u64,
                Op::Create {
                    path: Path::parse("/q").unwrap(),
                    data: Bytes::from_static(b"root"),
                    ephemeral_owner: None,
                    sequential: false,
                },
            ),
            (
                2,
                Op::Create {
                    path: Path::parse("/q/item-").unwrap(),
                    data: Bytes::from_static(b"seq"),
                    ephemeral_owner: Some(9),
                    sequential: true,
                },
            ),
            (
                3,
                Op::SetData {
                    path: Path::parse("/q").unwrap(),
                    data: Bytes::from_static(b"v2"),
                    expected_version: None,
                },
            ),
        ] {
            s.apply(zxid, &op).0.unwrap();
        }
        s
    }

    #[test]
    fn write_load_roundtrip_is_byte_identical() {
        let tmp = TempDir::new("tropic-snap-roundtrip");
        let store = populated_store();
        write(tmp.path(), 3, &store).unwrap();
        let (zxid, back) = load_latest(tmp.path()).expect("snapshot loads");
        assert_eq!(zxid, 3);
        assert_eq!(back, store);
        assert_eq!(format!("{back:?}"), format!("{store:?}"));
    }

    #[test]
    fn streamed_snapshot_matches_the_in_memory_encoding_byte_for_byte() {
        let tmp = TempDir::new("tropic-snap-streamed");
        let mut store = populated_store();
        for (zxid, op) in [
            (
                4u64,
                Op::Create {
                    path: Path::parse("/big").unwrap(),
                    // Larger than the write buffer: bypasses it.
                    data: Bytes::from(vec![0xA5; (1 << 20) + 3]),
                    ephemeral_owner: None,
                    sequential: false,
                },
            ),
            (
                5,
                Op::Create {
                    path: Path::parse("/empty").unwrap(),
                    data: Bytes::new(),
                    ephemeral_owner: None,
                    sequential: false,
                },
            ),
        ] {
            store.apply(zxid, &op).0.unwrap();
        }
        // `/q` carries an ephemeral child owned by session 9 and a
        // sequential counter already advanced past zero.
        assert_eq!(store.ephemeral_sessions(), vec![9]);

        let size = write(tmp.path(), 5, &store).unwrap();
        let mut body = Vec::new();
        codec::put_u64(&mut body, 5).unwrap();
        store.encode_into(&mut body).unwrap();
        let mut expected = MAGIC.to_vec();
        expected.extend_from_slice(&body);
        expected.extend_from_slice(&codec::crc32(&body).to_le_bytes());
        let on_disk = fs::read(tmp.path().join(file_name(5))).unwrap();
        assert_eq!(size, expected.len() as u64);
        assert!(
            on_disk == expected,
            "streamed file differs from the encoding"
        );

        let (zxid, back) = load_latest(tmp.path()).expect("snapshot loads");
        assert_eq!(zxid, 5);
        assert_eq!(back, store);
    }

    #[test]
    fn malformed_snapshot_files_are_rejected_not_panicking() {
        let tmp = TempDir::new("tropic-snap-malformed");
        let store = populated_store();
        write(tmp.path(), 3, &store).unwrap();
        let good = fs::read(tmp.path().join(file_name(3))).unwrap();
        let path = tmp.path().join("probe.bin");
        for cut in [
            0,
            3,
            MAGIC.len(),
            MAGIC.len() + 3,
            MAGIC.len() + 11,
            good.len() - 1,
        ] {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(load_file(&path, 3).is_none(), "{cut}-byte prefix");
            assert!(load_delta_file(&path, 3).is_none(), "{cut}-byte prefix");
        }
        fs::write(&path, &good).unwrap();
        assert!(load_file(&path, 3).is_some());
        assert!(load_file(&path, 4).is_none(), "zxid must match the name");
        assert!(load_delta_file(&path, 3).is_none(), "wrong magic");
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_previous_generation() {
        let tmp = TempDir::new("tropic-snap-fallback");
        let store = populated_store();
        write(tmp.path(), 3, &store).unwrap();
        let mut newer = store.clone();
        newer
            .apply(
                4,
                &Op::Delete {
                    path: Path::parse("/q/item-0000000000").unwrap(),
                    expected_version: None,
                },
            )
            .0
            .unwrap();
        write(tmp.path(), 4, &newer).unwrap();
        // Corrupt the newest generation.
        let path = tmp.path().join(file_name(4));
        let mut data = fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        let (zxid, back) = load_latest(tmp.path()).expect("older snapshot still valid");
        assert_eq!(zxid, 3);
        assert_eq!(back, store);
    }

    #[test]
    fn retain_keeps_only_newest() {
        let tmp = TempDir::new("tropic-snap-retain");
        let store = populated_store();
        for zxid in [3u64, 4, 5, 6] {
            write(tmp.path(), zxid, &store).unwrap();
        }
        retain_latest(tmp.path(), 2);
        let zxids: Vec<u64> = list(tmp.path()).into_iter().map(|(z, _)| z).collect();
        assert_eq!(zxids, vec![5, 6]);
    }

    #[test]
    fn empty_dir_has_no_snapshot() {
        let tmp = TempDir::new("tropic-snap-empty");
        assert!(load_latest(tmp.path()).is_none());
    }

    /// Applies `op` at `zxid` and returns the delta records it dirtied.
    fn mutate(store: &mut ZnodeStore, zxid: u64, op: &Op) -> Vec<DeltaRecord> {
        let (result, events) = store.apply(zxid, op);
        result.unwrap();
        let mut dirty = DirtySet::default();
        dirty.mark(&events);
        store.delta_records(dirty.paths())
    }

    #[test]
    fn delta_chain_recovers_full_plus_deltas() {
        let tmp = TempDir::new("tropic-snap-chain");
        let mut store = populated_store();
        write(tmp.path(), 3, &store).unwrap();

        let recs = mutate(
            &mut store,
            5,
            &Op::SetData {
                path: Path::parse("/q").unwrap(),
                data: Bytes::from_static(b"v3"),
                expected_version: None,
            },
        );
        write_delta(tmp.path(), 3, 5, &recs).unwrap();

        let recs = mutate(
            &mut store,
            7,
            &Op::Delete {
                path: Path::parse("/q/item-0000000000").unwrap(),
                expected_version: None,
            },
        );
        write_delta(tmp.path(), 5, 7, &recs).unwrap();

        let chain = load_chain(tmp.path());
        assert!(!chain.newer_corrupt);
        assert_eq!(chain.chain_len, 2);
        let (zxid, recovered) = chain.snapshot.expect("chain loads");
        assert_eq!(zxid, 7);
        assert_eq!(recovered, store);
    }

    #[test]
    fn corrupt_delta_truncates_chain_to_valid_prefix() {
        let tmp = TempDir::new("tropic-snap-chain-corrupt");
        let mut store = populated_store();
        write(tmp.path(), 3, &store).unwrap();

        let recs = mutate(
            &mut store,
            5,
            &Op::SetData {
                path: Path::parse("/q").unwrap(),
                data: Bytes::from_static(b"v3"),
                expected_version: None,
            },
        );
        write_delta(tmp.path(), 3, 5, &recs).unwrap();
        let after_first = store.clone();

        let recs = mutate(
            &mut store,
            7,
            &Op::Delete {
                path: Path::parse("/q/item-0000000000").unwrap(),
                expected_version: None,
            },
        );
        write_delta(tmp.path(), 5, 7, &recs).unwrap();
        let victim = tmp.path().join(delta_file_name(7));
        let mut data = fs::read(&victim).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        fs::write(&victim, &data).unwrap();

        let chain = load_chain(tmp.path());
        assert!(chain.newer_corrupt, "torn delta must flag corruption");
        assert_eq!(chain.chain_len, 1);
        let (zxid, recovered) = chain.snapshot.expect("valid prefix loads");
        assert_eq!(zxid, 5);
        assert_eq!(recovered, after_first);
    }

    #[test]
    fn delta_without_full_base_is_corrupt() {
        let tmp = TempDir::new("tropic-snap-chain-orphan");
        let mut store = populated_store();
        let recs = mutate(
            &mut store,
            5,
            &Op::SetData {
                path: Path::parse("/q").unwrap(),
                data: Bytes::from_static(b"v3"),
                expected_version: None,
            },
        );
        write_delta(tmp.path(), 3, 5, &recs).unwrap();

        let chain = load_chain(tmp.path());
        assert!(
            chain.newer_corrupt,
            "orphan delta has no base to chain from"
        );
        assert!(chain.snapshot.is_none());
    }

    #[test]
    fn retain_latest_drops_deltas_superseded_by_newer_full() {
        let tmp = TempDir::new("tropic-snap-chain-retain");
        let mut store = populated_store();
        write(tmp.path(), 3, &store).unwrap();
        let recs = mutate(
            &mut store,
            5,
            &Op::SetData {
                path: Path::parse("/q").unwrap(),
                data: Bytes::from_static(b"v3"),
                expected_version: None,
            },
        );
        write_delta(tmp.path(), 3, 5, &recs).unwrap();
        // Compaction: a newer full supersedes the chain behind it.
        write(tmp.path(), 7, &store).unwrap();
        let recs = mutate(
            &mut store,
            9,
            &Op::SetData {
                path: Path::parse("/q").unwrap(),
                data: Bytes::from_static(b"v4"),
                expected_version: None,
            },
        );
        write_delta(tmp.path(), 7, 9, &recs).unwrap();

        retain_latest(tmp.path(), 2);
        let fulls: Vec<u64> = list(tmp.path()).into_iter().map(|(z, _)| z).collect();
        let deltas: Vec<u64> = list_deltas(tmp.path())
            .into_iter()
            .map(|(z, _)| z)
            .collect();
        assert_eq!(fulls, vec![3, 7]);
        assert_eq!(deltas, vec![9], "delta behind the newest full is debris");

        let chain = load_chain(tmp.path());
        assert!(!chain.newer_corrupt);
        let (zxid, recovered) = chain.snapshot.expect("chain loads after retention");
        assert_eq!(zxid, 9);
        assert_eq!(recovered, store);
    }
}
