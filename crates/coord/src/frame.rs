//! Length-prefixed, CRC-checksummed stream framing — the WAL record layout
//! (`[len: u32 LE][crc32: u32 LE][payload]`, the same frame `scan_segment`
//! decodes from disk) lifted onto arbitrary `Read`/`Write` byte streams so
//! network peers can exchange opaque payloads with the same integrity
//! guarantees the log has on disk.
//!
//! The reader is *incremental*: [`FrameReader`]
//! buffers partial reads (a frame split across arbitrarily many TCP
//! segments reassembles), returns at most one payload per call, and fails
//! **typed** — an oversized length prefix or a checksum mismatch is a
//! [`FrameError`], never a misparse. After
//! [`Oversized`](FrameError::Oversized) or
//! [`Crc`](FrameError::Crc) the stream is unsynchronized and must
//! be closed.

use std::io::{self, Read, Write};

use crate::codec::{self, le_u32_at};

/// Default cap on one frame's payload size. Anything larger is
/// rejected as [`FrameError::Oversized`] *before* the payload is
/// buffered, so a hostile or corrupt length prefix cannot balloon
/// memory.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 4 << 20;

/// Typed failures of the frame layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended cleanly on a frame boundary.
    Closed,
    /// The stream ended mid-frame: a partial header or payload was
    /// read and can never complete.
    Truncated {
        /// Bytes still buffered when the stream ended.
        buffered: usize,
    },
    /// The length prefix exceeds the configured cap; the frame was
    /// rejected without buffering the payload.
    Oversized {
        /// The length the prefix declared.
        len: u32,
        /// The configured cap.
        max: u32,
    },
    /// The payload failed its CRC-32 check.
    Crc {
        /// Checksum carried by the frame header.
        expected: u32,
        /// Checksum computed over the received payload.
        got: u32,
    },
    /// An underlying I/O failure (other than timeout, which surfaces
    /// as `Ok(None)` from [`FrameReader::read_from`]).
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "stream closed"),
            FrameError::Truncated { buffered } => {
                write!(f, "stream ended mid-frame ({buffered} bytes buffered)")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Crc { expected, got } => {
                write!(
                    f,
                    "frame CRC mismatch: header {expected:#010x}, payload {got:#010x}"
                )
            }
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one framed payload: `[len][crc32][payload]`, then flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    // The length prefix is 32-bit; a payload beyond it must fail typed
    // here, not wrap into a prefix that desynchronizes the receiver.
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::Oversized {
        len: u32::MAX,
        max: u32::MAX,
    })?;
    let io = |e: io::Error| FrameError::Io(e.to_string());
    // One header write, so an unbuffered socket sees two writes per frame.
    let mut head = Vec::with_capacity(8);
    codec::put_u32(&mut head, len).map_err(io)?;
    codec::put_u32(&mut head, codec::crc32(payload)).map_err(io)?;
    w.write_all(&head).map_err(io)?;
    w.write_all(payload).map_err(io)?;
    w.flush().map_err(io)?;
    Ok(())
}

/// Incremental frame decoder over a byte stream.
///
/// Call [`FrameReader::read_from`] in a loop: it returns `Ok(Some(..))`
/// once a whole frame has been buffered and verified, `Ok(None)` when
/// the underlying read timed out (for sockets with a read timeout —
/// partial state is retained, so the caller can check a stop flag and
/// call again), and a typed [`FrameError`] otherwise.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader with empty buffer state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently buffered (a partial or not-yet-drained frame).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to produce the next frame, reading from `r` as needed.
    ///
    /// `max_bytes` caps the payload length; a larger length prefix is
    /// rejected as [`FrameError::Oversized`] without buffering the
    /// payload.
    pub fn read_from(
        &mut self,
        r: &mut impl Read,
        max_bytes: u32,
    ) -> Result<Option<Vec<u8>>, FrameError> {
        loop {
            // A complete frame may already sit in the buffer (several
            // frames can arrive in one read); drain before reading more.
            if let Some(payload) = self.try_take_frame(max_bytes)? {
                return Ok(Some(payload));
            }
            let mut chunk = [0u8; 4096];
            match r.read(&mut chunk) {
                Ok(0) => {
                    return Err(if self.buf.is_empty() {
                        FrameError::Closed
                    } else {
                        FrameError::Truncated {
                            buffered: self.buf.len(),
                        }
                    });
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(FrameError::Io(e.to_string())),
            }
        }
    }

    /// Decodes one frame from the front of the buffer, if complete.
    fn try_take_frame(&mut self, max_bytes: u32) -> Result<Option<Vec<u8>>, FrameError> {
        if self.buf.len() < 8 {
            return Ok(None);
        }
        let (Some(len), Some(expected)) = (le_u32_at(&self.buf, 0), le_u32_at(&self.buf, 4)) else {
            return Ok(None);
        };
        if len > max_bytes {
            return Err(FrameError::Oversized {
                len,
                max: max_bytes,
            });
        }
        let total = 8 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[8..total].to_vec();
        let got = codec::crc32(&payload);
        if got != expected {
            return Err(FrameError::Crc { expected, got });
        }
        self.buf.drain(..total);
        Ok(Some(payload))
    }
}
