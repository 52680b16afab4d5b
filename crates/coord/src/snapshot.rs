//! Fuzzy snapshots of the znode store.
//!
//! A snapshot (`snap-<zxid>.bin`, magic `TRPCSNP1`) captures the *entire*
//! replicated state — data, versions, zxids, ephemeral owners, and
//! sequential counters — at a batch boundary, tagged with the zxid of the
//! last op it reflects. Every snapshot is full: together with the
//! write-ahead log suffix after it ([`crate::wal`]), the newest valid one
//! reconstructs a store byte-identical to the live one, which is what lets
//! replicas truncate both their on-disk segments and their in-memory op
//! logs (ZooKeeper's snapshot + txn-log recovery scheme, paper §2.3).
//!
//! Files are written atomically (temp file, fsync, rename, directory
//! fsync) and carry a magic header plus a trailing CRC-32. The body is
//! encoded straight into a buffered file while the CRC is updated as bytes
//! pass, so a multi-MB store is never built whole in memory (ZooKeeper
//! serializes its fuzzy snapshots to a stream the same way). The loader
//! skips anything that fails validation, falling back to the previous
//! generation.
//!
//! Earlier versions also wrote incremental snapshots (`delta-<zxid>.bin`)
//! chained onto a full one. A directory that still holds one is refused
//! ([`refuse_incremental`]) rather than recovered without it.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path as StdPath, PathBuf};

use crate::codec;
use crate::store::ZnodeStore;

const MAGIC: &[u8; 8] = b"TRPCSNP1";
const PREFIX: &str = "snap-";
/// Name prefix of the incremental snapshots earlier versions wrote.
const INCREMENTAL_PREFIX: &str = "delta-";
const SUFFIX: &str = ".bin";
/// Write buffer of one snapshot file: the most a snapshot write holds.
const WRITE_BUFFER_BYTES: usize = 64 << 10;

/// File name of the snapshot tagged with `zxid`.
pub fn file_name(zxid: u64) -> String {
    format!("{PREFIX}{zxid:016x}{SUFFIX}")
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

/// Snapshot files in `dir`, sorted ascending by zxid.
pub fn list(dir: &StdPath) -> Vec<(u64, PathBuf)> {
    list_prefixed(dir, PREFIX)
}

/// Fails with [`io::ErrorKind::InvalidData`], naming the file, when `dir`
/// holds an incremental snapshot written by an earlier version. Its WAL
/// was truncated at that snapshot's zxid, so recovering from the full
/// snapshot alone would replay the suffix over a hole and silently lose
/// acknowledged writes.
pub fn refuse_incremental(dir: &StdPath) -> io::Result<()> {
    match list_prefixed(dir, INCREMENTAL_PREFIX).first() {
        Some((_, path)) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{} is an incremental snapshot, which this version cannot recover",
                path.display()
            ),
        )),
        None => Ok(()),
    }
}

/// Atomically writes a snapshot of `store` tagged with `zxid` and returns
/// the file size in bytes. The file is `magic ‖ body ‖ crc32(body)`. The
/// body streams through a buffer into a temp file, and the CRC is updated
/// as the bytes pass, so the write holds no more than the buffer. The temp
/// file is then fsynced, renamed over the final name, and made durable
/// with a directory fsync.
pub fn write(dir: &StdPath, zxid: u64, store: &ZnodeStore) -> io::Result<u64> {
    let name = file_name(zxid);
    let final_path = dir.join(&name);
    let tmp_path = dir.join(format!("{name}.tmp"));
    let mut file = BufWriter::with_capacity(WRITE_BUFFER_BYTES, fs::File::create(&tmp_path)?);
    file.write_all(MAGIC)?;
    let mut body = codec::CrcWriter::new(file);
    codec::put_u64(&mut body, zxid)?;
    store.encode_into(&mut body)?;
    let (mut file, crc, body_len) = body.finish();
    file.write_all(&crc.to_le_bytes())?;
    file.into_inner().map_err(|e| e.into_error())?.sync_data()?;
    fs::rename(&tmp_path, &final_path)?;
    // The rename is only durable once the directory is fsynced; this must
    // succeed before the caller may truncate the WAL the snapshot covers,
    // so a failure propagates instead of being swallowed.
    fs::File::open(dir)?.sync_all()?;
    Ok(MAGIC.len() as u64 + body_len + 4)
}

/// Loads the newest snapshot in `dir` that passes validation (magic, CRC,
/// full decode, zxid matching the file name), and reports whether a
/// *newer* generation file existed and failed validation. Corrupt
/// generations are skipped, not fatal, but the flag matters to recovery:
/// the live WAL segments always extend the newest snapshot taken
/// (truncation deletes everything older), so when the newest generation is
/// corrupt the suffix on disk is **not contiguous** with the older
/// generation loaded here and must not be replayed on top of it.
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

/// Reads the snapshot file at `path` and checks the `MAGIC` header, the
/// trailing CRC-32 over the body, and the body's leading zxid against
/// `expect_zxid` (the one in the file name); then decodes the store, which
/// must consume the rest of the body exactly. `None` on any malformed
/// input.
fn load_file(path: &StdPath, expect_zxid: u64) -> Option<ZnodeStore> {
    let data = fs::read(path).ok()?;
    let rest = data.strip_prefix(MAGIC.as_slice())?;
    let (body, crc) = rest.split_at_checked(rest.len().checked_sub(4)?)?;
    if codec::crc32(body) != codec::le_u32_at(crc, 0)? {
        return None;
    }
    let mut cur = codec::Cursor::new(body);
    if cur.u64()? != expect_zxid {
        return None;
    }
    let store = ZnodeStore::decode_from(&mut cur)?;
    cur.is_done().then_some(store)
}

/// Deletes all but the newest `keep` snapshot generations. Returns the
/// number of files removed; when any were, the directory is fsynced so the
/// deletions are durable.
pub fn retain_latest(dir: &StdPath, keep: usize) -> usize {
    let snaps = list(dir);
    let mut removed = 0;
    for (_, path) in &snaps[..snaps.len().saturating_sub(keep)] {
        if fs::remove_file(path).is_ok() {
            removed += 1;
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
    use tropic_model::Path;

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
        let (zxid, back) = load_latest_detailed(tmp.path()).0.expect("snapshot loads");
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

        let (zxid, back) = load_latest_detailed(tmp.path()).0.expect("snapshot loads");
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
        }
        fs::write(&path, &good).unwrap();
        assert!(load_file(&path, 3).is_some());
        assert!(load_file(&path, 4).is_none(), "zxid must match the name");
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
        let (zxid, back) = load_latest_detailed(tmp.path())
            .0
            .expect("older snapshot still valid");
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
        assert!(load_latest_detailed(tmp.path()).0.is_none());
    }
}
