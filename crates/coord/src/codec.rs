//! Compact binary encoding shared by the write-ahead log and snapshots.
//! Little-endian fixed-width integers, length-prefixed byte strings, and a
//! tag byte per op variant; checksummed at the framing layer with CRC-32.
//!
//! Encoders write to any [`Write`]: a `Vec<u8>` for one WAL frame, or a
//! [`CrcWriter`] over a buffered file, so a snapshot streams to disk
//! without ever being held whole in memory.

use std::io::{self, Write};

use bytes::Bytes;
use tropic_model::Path;

use crate::store::Op;

/// Version of the binary WAL record layout. The positional codec
/// has no additive escape hatch: any change to [`Op`]'s shape or
/// the `TAG_*` assignments must bump this constant (and the bump
/// must be recorded in `WIRE_SCHEMAS.lock` via
/// `tropic-analyze --bless`).
pub const FORMAT_VERSION: u32 = 1;

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = make_crc_table();

/// Incremental IEEE CRC-32 (the ZIP/zlib polynomial): feeding the input in
/// any number of pieces gives the same checksum as [`crc32`] over the whole.
pub struct Crc32(u32);

impl Crc32 {
    /// A checksum over no bytes yet.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = CRC_TABLE[((self.0 ^ u32::from(b)) & 0xFF) as usize] ^ (self.0 >> 8);
        }
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// IEEE CRC-32 (the ZIP/zlib polynomial).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// A writer that checksums and counts every byte it passes through.
pub struct CrcWriter<W> {
    inner: W,
    crc: Crc32,
    len: u64,
}

impl<W: Write> CrcWriter<W> {
    /// Wraps `inner`, starting from an empty checksum and count.
    pub fn new(inner: W) -> Self {
        CrcWriter {
            inner,
            crc: Crc32::new(),
            len: 0,
        }
    }

    /// The wrapped writer, the CRC-32 and the byte count of what passed.
    pub fn finish(self) -> (W, u32, u64) {
        (self.inner, self.crc.finish(), self.len)
    }
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        let written = buf.get(..n).unwrap_or(buf);
        self.crc.update(written);
        self.len += written.len() as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Writes one byte.
pub fn put_u8<W: Write>(out: &mut W, v: u8) -> io::Result<()> {
    out.write_all(&[v])
}

/// Writes a little-endian u32.
pub fn put_u32<W: Write>(out: &mut W, v: u32) -> io::Result<()> {
    out.write_all(&v.to_le_bytes())
}

/// Writes a little-endian u64.
pub fn put_u64<W: Write>(out: &mut W, v: u64) -> io::Result<()> {
    out.write_all(&v.to_le_bytes())
}

/// Writes a u32 length prefix, then the bytes.
pub fn put_bytes<W: Write>(out: &mut W, b: &[u8]) -> io::Result<()> {
    put_u32(out, b.len() as u32)?;
    out.write_all(b)
}

/// Writes a string as length-prefixed UTF-8.
pub fn put_str<W: Write>(out: &mut W, s: &str) -> io::Result<()> {
    put_bytes(out, s.as_bytes())
}

/// Writes `0` for `None`, or `1` and the value.
pub fn put_opt_u64<W: Write>(out: &mut W, v: Option<u64>) -> io::Result<()> {
    match v {
        Some(x) => {
            put_u8(out, 1)?;
            put_u64(out, x)
        }
        None => put_u8(out, 0),
    }
}

/// Writes a bool as one byte, `0` or `1`.
pub fn put_bool<W: Write>(out: &mut W, v: bool) -> io::Result<()> {
    put_u8(out, u8::from(v))
}

/// Writes an unsigned LEB128 varint: seven bits a byte, low bits first,
/// the top bit set on every byte but the last. Small numbers — lengths,
/// counts, ids — take one to three bytes instead of eight.
pub fn put_varint<W: Write>(out: &mut W, mut v: u64) -> io::Result<()> {
    while v >= 0x80 {
        out.write_all(&[(v & 0x7F) as u8 | 0x80])?;
        v >>= 7;
    }
    out.write_all(&[v as u8])
}

/// Writes a string as a varint length and its UTF-8 bytes.
pub fn put_varint_str<W: Write>(out: &mut W, s: &str) -> io::Result<()> {
    put_varint(out, s.len() as u64)?;
    out.write_all(s.as_bytes())
}

/// Reads a little-endian u32 at `pos`, or `None` past the end.
pub fn le_u32_at(data: &[u8], pos: usize) -> Option<u32> {
    let bytes = data.get(pos..pos.checked_add(4)?)?;
    Some(u32::from_le_bytes(bytes.try_into().ok()?))
}

/// A failable reader over an encoded buffer.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Whether every byte has been read.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return None;
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
    }

    /// Reads what [`put_varint`] wrote. A number past 64 bits, or spelled
    /// longer than [`put_varint`] spells it, reads nothing, so every
    /// number has exactly one encoding.
    pub fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7F);
            // A zero last byte after the first pads a shorter number; the
            // tenth byte carries only bit 63.
            if (shift > 0 && byte == 0) || (shift == 63 && byte > 1) {
                return None;
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    /// Reads what [`put_varint_str`] wrote; a length past the end reads
    /// nothing.
    pub fn varint_str(&mut self) -> Option<&'a str> {
        let n = usize::try_from(self.varint()?).ok()?;
        std::str::from_utf8(self.take(n)?).ok()
    }

    /// Reads a u32 length prefix and borrows that many bytes; a length
    /// past the end reads nothing.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads length-prefixed bytes that must be UTF-8.
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    /// Reads what [`put_opt_u64`] wrote.
    pub fn opt_u64(&mut self) -> Option<Option<u64>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.u64()?)),
            _ => None,
        }
    }

    /// Reads a `0` or `1` byte.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

const TAG_CREATE: u8 = 1;
const TAG_SET: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_PURGE: u8 = 4;
const TAG_MULTI: u8 = 5;

/// Writes one WAL op, nested multis included.
pub fn encode_op<W: Write>(op: &Op, out: &mut W) -> io::Result<()> {
    match op {
        Op::Create {
            path,
            data,
            ephemeral_owner,
            sequential,
        } => {
            put_u8(out, TAG_CREATE)?;
            put_str(out, &path.to_string())?;
            put_bytes(out, data)?;
            put_opt_u64(out, *ephemeral_owner)?;
            put_bool(out, *sequential)
        }
        Op::SetData {
            path,
            data,
            expected_version,
        } => {
            put_u8(out, TAG_SET)?;
            put_str(out, &path.to_string())?;
            put_bytes(out, data)?;
            put_opt_u64(out, *expected_version)
        }
        Op::Delete {
            path,
            expected_version,
        } => {
            put_u8(out, TAG_DELETE)?;
            put_str(out, &path.to_string())?;
            put_opt_u64(out, *expected_version)
        }
        Op::PurgeSession { session } => {
            put_u8(out, TAG_PURGE)?;
            put_u64(out, *session)
        }
        Op::Multi { ops } => {
            put_u8(out, TAG_MULTI)?;
            put_u32(out, ops.len() as u32)?;
            for sub in ops {
                encode_op(sub, out)?;
            }
            Ok(())
        }
    }
}

/// Reads one WAL op; `None` on truncated or invalid bytes.
pub fn decode_op(cur: &mut Cursor<'_>) -> Option<Op> {
    match cur.u8()? {
        TAG_CREATE => Some(Op::Create {
            path: Path::parse(cur.str()?).ok()?,
            data: Bytes::copy_from_slice(cur.bytes()?),
            ephemeral_owner: cur.opt_u64()?,
            sequential: cur.bool()?,
        }),
        TAG_SET => Some(Op::SetData {
            path: Path::parse(cur.str()?).ok()?,
            data: Bytes::copy_from_slice(cur.bytes()?),
            expected_version: cur.opt_u64()?,
        }),
        TAG_DELETE => Some(Op::Delete {
            path: Path::parse(cur.str()?).ok()?,
            expected_version: cur.opt_u64()?,
        }),
        TAG_PURGE => Some(Op::PurgeSession {
            session: cur.u64()?,
        }),
        TAG_MULTI => {
            let count = cur.u32()?;
            // No pre-allocation from wire-claimed counts: the cursor
            // bounds the loop even if the count is absurd.
            let mut ops = Vec::new();
            for _ in 0..count {
                ops.push(decode_op(cur)?);
            }
            Some(Op::Multi { ops })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_roundtrip_and_have_one_spelling() {
        for v in [
            0,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut out = Vec::new();
            put_varint(&mut out, v).unwrap();
            let mut cur = Cursor::new(&out);
            assert_eq!(cur.varint(), Some(v));
            assert!(cur.is_done());
        }
        assert_eq!(Cursor::new(&[0x80, 0x01]).varint(), Some(128));
        for padded in [
            &[0x80, 0x00][..],
            &[0xFF; 10],
            &[0x80; 9],
            &[0xFF, 0xFF, 0xFF],
        ] {
            assert_eq!(Cursor::new(padded).varint(), None, "{padded:?}");
        }
        let mut out = Vec::new();
        put_varint_str(&mut out, "vmRoot").unwrap();
        assert_eq!(out.len(), 7);
        assert_eq!(Cursor::new(&out).varint_str(), Some("vmRoot"));
        assert_eq!(Cursor::new(&out[..6]).varint_str(), None);
    }
}
