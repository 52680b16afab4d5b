//! The byte layout of every payload the platform keeps in the
//! coordination store: transaction records and their idempotency aliases,
//! `inputQ` messages, `phyQ` tasks, committed-subtree granules, and the
//! operator plane's signals, admin results, inconsistent set and twin
//! reports (the twin epoch znode holds none: its data version is the
//! counter). The store itself holds opaque bytes; this module is the only
//! one that knows how they are laid out.
//!
//! ## Format
//!
//! Each payload is one kind tag ([`TAG_RECORD`] and its siblings), one
//! format-version byte ([`STORE_FORMAT_VERSION`]), then the fields in
//! declaration order, written with the WAL's primitives
//! (`tropic_coord::codec`): integers, lengths and counts as LEB128
//! varints (signed ones zigzagged), floats as their eight little-endian
//! bytes, one byte per `Option`, `bool` and enum variant. A path is its
//! segment count and segments. The layout is positional, so any change
//! to a laid-out type bumps [`STORE_FORMAT_VERSION`] (`tropic-analyze`
//! holds the types to that in `WIRE_SCHEMAS.lock`). Encoders destructure
//! every struct and decoders build full literals, so a new field fails to
//! compile here until it is laid out.
//!
//! Decoders return an error on any truncated, trailing or invalid byte and
//! never panic. They allocate only for what the input actually holds: a
//! count read off the wire bounds a loop, never a reservation, and nesting
//! deeper than [`MAX_DEPTH`] is refused. A payload an earlier format wrote
//! (the JSON of builds before this layout, or an older version byte) does
//! not decode either: recovery refuses a store holding one by name.

use std::collections::BTreeMap;
use std::io::{self, Write};

use tropic_coord::codec::{put_bool, put_u64, put_u8, put_varint, put_varint_str, Cursor};
use tropic_coord::{CoordClient, CoordResult};
use tropic_devices::StateReport;
use tropic_model::{Node, Path, Value};

use crate::api::{AbortCode, Priority};
use crate::locks::LockMode;
use crate::msg::{layout, AdminResult, InputMsg, PhyTask, Signal, WireError};
use crate::physical::PhysicalOutcome;
use crate::txn::{LogRecord, TxnAlias, TxnId, TxnRecord, TxnState};

/// Version of the store payload layout, written after every kind tag.
/// Bump it on any change to a laid-out type or to a tag below, then
/// record the change with `tropic-analyze --bless`.
pub const STORE_FORMAT_VERSION: u8 = 2;

/// Kind tag of a [`TxnRecord`] at a record znode.
pub const TAG_RECORD: u8 = 1;
/// Kind tag of a [`TxnAlias`] at a record znode.
pub const TAG_ALIAS: u8 = 2;
/// Kind tag of an [`InputMsg`] in an `inputQ` lane.
pub const TAG_INPUT: u8 = 3;
/// Kind tag of a [`PhyTask`] in `phyQ`.
pub const TAG_TASK: u8 = 4;
/// Kind tag of a committed-subtree granule.
pub const TAG_GRANULE: u8 = 5;
/// Kind tag of a transaction's [`Signal`] at its signal znode.
pub const TAG_SIGNAL: u8 = 6;
/// Kind tag of an operator's [`AdminResult`].
pub const TAG_ADMIN_RESULT: u8 = 7;
/// Kind tag of the set of inconsistency-marked paths.
pub const TAG_INCONSISTENT: u8 = 8;
/// Kind tag of one device's [`StateReport`] under the twin's subtree.
pub const TAG_TWIN_REPORT: u8 = 9;

/// Deepest nesting of values and nodes a decoder follows; anything
/// deeper is refused rather than risking the stack. Model trees and
/// their values are a few levels deep.
pub const MAX_DEPTH: usize = 128;

/// What a record znode holds.
#[derive(Debug)]
pub enum RecordNode {
    /// The transaction's record.
    Record(Box<TxnRecord>),
    /// A redirect to the transaction this id deduplicated onto.
    Alias(TxnAlias),
}

/// Encodes a transaction record.
pub fn encode_record(rec: &TxnRecord) -> Vec<u8> {
    encoded(TAG_RECORD, |out| put_record(out, rec))
}

/// Encodes an idempotency alias, stored at the aliased id's record path.
pub fn encode_alias(alias: &TxnAlias) -> Vec<u8> {
    let TxnAlias { alias_of } = alias;
    encoded(TAG_ALIAS, |out| put_varint(out, *alias_of))
}

/// Decodes a record znode: a record or an alias.
pub fn decode_record_node(bytes: &[u8]) -> Result<RecordNode, WireError> {
    decoded(bytes, &[TAG_RECORD, TAG_ALIAS], "record", |kind, cur| {
        Some(match kind {
            TAG_RECORD => RecordNode::Record(Box::new(record(cur)?)),
            _ => RecordNode::Alias(TxnAlias {
                alias_of: cur.varint()?,
            }),
        })
    })
}

/// Reads the payload at `path`: `None` when its znode is absent or does
/// not `decode`.
pub fn read<T>(
    client: &CoordClient,
    path: &Path,
    decode: impl FnOnce(&[u8]) -> Result<T, WireError>,
) -> CoordResult<Option<T>> {
    let data = client.get_data(path)?;
    Ok(data.and_then(|(data, _)| decode(&data).ok()))
}

/// Reads transaction `id`'s record: `None` when its znode is absent,
/// holds an alias, or does not decode.
pub fn read_record(client: &CoordClient, id: TxnId) -> CoordResult<Option<TxnRecord>> {
    Ok(match read(client, &layout::txn(id), decode_record_node)? {
        Some(RecordNode::Record(rec)) => Some(*rec),
        _ => None,
    })
}

/// Encodes a message for an `inputQ` lane.
pub fn encode_input(msg: InputMsg) -> Vec<u8> {
    encoded(TAG_INPUT, |out| put_input(out, &msg))
}

/// Decodes an `inputQ` message. The version is checked before the
/// payload, so a message from a newer build fails with
/// [`WireError::UnsupportedVersion`] whatever it carries.
pub fn decode_input(bytes: &[u8]) -> Result<InputMsg, WireError> {
    decoded(bytes, &[TAG_INPUT], "input message", |_, cur| input(cur))
}

/// Encodes a `phyQ` task.
pub fn encode_task(task: &PhyTask) -> Vec<u8> {
    let PhyTask { id } = task;
    encoded(TAG_TASK, |out| put_varint(out, *id))
}

/// Decodes a `phyQ` task.
pub fn decode_task(bytes: &[u8]) -> Result<PhyTask, WireError> {
    decoded(bytes, &[TAG_TASK], "phyQ task", |_, cur| {
        cur.varint().map(|id| PhyTask { id })
    })
}

/// Encodes the granule of one object: its committed subtree, or `None`
/// once the object is gone.
pub fn encode_granule(subtree: Option<&Node>) -> Vec<u8> {
    encoded(TAG_GRANULE, |out| put_option(out, subtree, put_node))
}

/// Decodes a granule.
pub fn decode_granule(bytes: &[u8]) -> Result<Option<Node>, WireError> {
    decoded(bytes, &[TAG_GRANULE], "granule", |_, cur| {
        option(cur, |cur| node(cur, 0))
    })
}

/// Encodes the signal a transaction's worker polls for.
pub fn encode_signal(s: Signal) -> Vec<u8> {
    encoded(TAG_SIGNAL, |out| put_signal(out, s))
}

/// Decodes a signal.
pub fn decode_signal(bytes: &[u8]) -> Result<Signal, WireError> {
    decoded(bytes, &[TAG_SIGNAL], "signal", |_, cur| signal(cur))
}

/// Encodes the result an operator's repair or reload waits for.
pub fn encode_admin_result(result: &AdminResult) -> Vec<u8> {
    let AdminResult {
        ok,
        message,
        actions,
        drifted,
    } = result;
    encoded(TAG_ADMIN_RESULT, |out| {
        put_bool(out, *ok)?;
        put_varint_str(out, message)?;
        put_usize(out, *actions)?;
        put_usize(out, *drifted)
    })
}

/// Decodes an operator result.
pub fn decode_admin_result(bytes: &[u8]) -> Result<AdminResult, WireError> {
    decoded(bytes, &[TAG_ADMIN_RESULT], "operator result", |_, cur| {
        Some(AdminResult {
            ok: cur.bool()?,
            message: string(cur)?,
            actions: usize_(cur)?,
            drifted: usize_(cur)?,
        })
    })
}

/// Encodes the set of inconsistency-marked paths.
pub fn encode_inconsistent<'a>(paths: impl ExactSizeIterator<Item = &'a Path>) -> Vec<u8> {
    encoded(TAG_INCONSISTENT, |out| put_seq(out, paths, put_path))
}

/// Decodes the inconsistent set.
pub fn decode_inconsistent(bytes: &[u8]) -> Result<Vec<Path>, WireError> {
    decoded(bytes, &[TAG_INCONSISTENT], "inconsistent set", |_, cur| {
        seq(cur, path)
    })
}

/// Encodes one device's reported state.
pub fn encode_twin_report(report: &StateReport) -> Vec<u8> {
    let StateReport {
        mount,
        state,
        down,
        seq,
        at_ms,
    } = report;
    encoded(TAG_TWIN_REPORT, |out| {
        put_path(out, mount)?;
        put_node(out, state)?;
        put_bool(out, *down)?;
        put_varint(out, *seq)?;
        put_varint(out, *at_ms)
    })
}

/// Decodes a device's reported state.
pub fn decode_twin_report(bytes: &[u8]) -> Result<StateReport, WireError> {
    decoded(bytes, &[TAG_TWIN_REPORT], "twin report", |_, cur| {
        Some(StateReport {
            mount: path(cur)?,
            state: node(cur, 0)?,
            down: cur.bool()?,
            seq: cur.varint()?,
            at_ms: cur.varint()?,
        })
    })
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

fn encoded(kind: u8, body: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> Vec<u8> {
    let mut out = vec![kind, STORE_FORMAT_VERSION];
    // `Write for Vec<u8>` never returns an error.
    let _ = body(&mut out);
    out
}

/// Reads a payload of one of `kinds`: `body` decodes what follows the
/// header, given the kind, and must use every byte. A known kind from a
/// newer build fails on its version, whatever follows.
fn decoded<'a, T>(
    bytes: &'a [u8],
    kinds: &[u8],
    what: &str,
    body: impl FnOnce(u8, &mut Cursor<'a>) -> Option<T>,
) -> Result<T, WireError> {
    let malformed = || WireError::Malformed(format!("truncated or invalid {what}"));
    let mut cur = Cursor::new(bytes);
    let kind = cur
        .u8()
        .filter(|k| kinds.contains(k))
        .ok_or_else(malformed)?;
    match cur.u8() {
        Some(STORE_FORMAT_VERSION) => {}
        Some(version) => return Err(WireError::UnsupportedVersion(version.into())),
        None => return Err(malformed()),
    }
    let value = body(kind, &mut cur);
    value.filter(|_| cur.is_done()).ok_or_else(malformed)
}

// ---------------------------------------------------------------------
// Field encoders.
// ---------------------------------------------------------------------

fn put_usize<W: Write>(out: &mut W, v: usize) -> io::Result<()> {
    put_varint(out, v as u64)
}

/// `0` for `None`, or `1` and the value.
fn put_option<W: Write, T>(
    out: &mut W,
    v: Option<T>,
    put: impl FnOnce(&mut W, T) -> io::Result<()>,
) -> io::Result<()> {
    match v {
        Some(x) => {
            put_u8(out, 1)?;
            put(out, x)
        }
        None => put_u8(out, 0),
    }
}

/// A count, then each item.
fn put_seq<W: Write, I: ExactSizeIterator>(
    out: &mut W,
    mut items: I,
    mut put: impl FnMut(&mut W, I::Item) -> io::Result<()>,
) -> io::Result<()> {
    put_usize(out, items.len())?;
    items.try_for_each(|item| put(out, item))
}

fn put_path<W: Write>(out: &mut W, path: &Path) -> io::Result<()> {
    put_usize(out, path.depth())?;
    path.segments().try_for_each(|seg| put_varint_str(out, seg))
}

fn put_values<W: Write>(out: &mut W, values: &[Value]) -> io::Result<()> {
    put_seq(out, values.iter(), put_value)
}

fn put_value<W: Write>(out: &mut W, value: &Value) -> io::Result<()> {
    match value {
        Value::Null => put_u8(out, 0),
        Value::Bool(b) => {
            put_u8(out, 1)?;
            put_bool(out, *b)
        }
        Value::Int(i) => {
            put_u8(out, 2)?;
            // Zigzag, so small negative numbers stay short too.
            put_varint(out, ((*i << 1) ^ (*i >> 63)) as u64)
        }
        Value::Float(x) => {
            put_u8(out, 3)?;
            put_u64(out, x.to_bits())
        }
        Value::Str(s) => {
            put_u8(out, 4)?;
            put_varint_str(out, s)
        }
        Value::List(items) => {
            put_u8(out, 5)?;
            put_values(out, items)
        }
        Value::Map(map) => {
            put_u8(out, 6)?;
            put_attrs(out, map)
        }
    }
}

fn put_attrs<W: Write>(out: &mut W, map: &BTreeMap<String, Value>) -> io::Result<()> {
    put_seq(out, map.iter(), |out, (k, v)| {
        put_varint_str(out, k)?;
        put_value(out, v)
    })
}

fn put_node<W: Write>(out: &mut W, node: &Node) -> io::Result<()> {
    let (entity, attrs, children, inconsistent) = node.as_parts();
    put_varint_str(out, entity)?;
    put_attrs(out, attrs)?;
    put_seq(out, children.iter(), |out, (name, child)| {
        put_varint_str(out, name)?;
        put_node(out, child)
    })?;
    put_bool(out, inconsistent)
}

fn put_labels<W: Write>(out: &mut W, labels: &[(String, String)]) -> io::Result<()> {
    put_seq(out, labels.iter(), |out, (k, v)| {
        put_varint_str(out, k)?;
        put_varint_str(out, v)
    })
}

fn put_log_record<W: Write>(out: &mut W, rec: &LogRecord) -> io::Result<()> {
    let LogRecord {
        seq,
        object,
        action,
        args,
        undo_action,
        undo_object,
        undo_args,
        best_effort,
    } = rec;
    put_usize(out, *seq)?;
    put_path(out, object)?;
    put_varint_str(out, action)?;
    put_values(out, args)?;
    put_option(out, undo_action.as_deref(), put_varint_str)?;
    put_option(out, undo_object.as_ref(), put_path)?;
    put_values(out, undo_args)?;
    put_bool(out, *best_effort)
}

fn put_record<W: Write>(out: &mut W, rec: &TxnRecord) -> io::Result<()> {
    let TxnRecord {
        id,
        proc_name,
        args,
        state,
        log,
        lsn,
        locks,
        error,
        abort_code,
        submitted_ms,
        finished_ms,
        defer_count,
        priority,
        deadline_ms,
        idempotency_key,
        labels,
    } = rec;
    put_varint(out, *id)?;
    put_varint_str(out, proc_name)?;
    put_values(out, args)?;
    put_state(out, *state)?;
    put_seq(out, log.iter(), put_log_record)?;
    put_option(out, *lsn, put_varint)?;
    put_seq(out, locks.iter(), |out, (path, mode)| {
        put_path(out, path)?;
        put_lock_mode(out, *mode)
    })?;
    put_option(out, error.as_deref(), put_varint_str)?;
    put_option(out, *abort_code, put_abort_code)?;
    put_varint(out, *submitted_ms)?;
    put_option(out, *finished_ms, put_varint)?;
    put_varint(out, u64::from(*defer_count))?;
    put_priority(out, *priority)?;
    put_option(out, *deadline_ms, put_varint)?;
    put_option(out, idempotency_key.as_deref(), put_varint_str)?;
    put_labels(out, labels)
}

fn put_outcome<W: Write>(out: &mut W, outcome: &PhysicalOutcome) -> io::Result<()> {
    match outcome {
        PhysicalOutcome::Committed => put_u8(out, 0),
        PhysicalOutcome::Aborted { failed_seq, error } => {
            put_u8(out, 1)?;
            put_usize(out, *failed_seq)?;
            put_varint_str(out, error)
        }
        PhysicalOutcome::Failed {
            failed_seq,
            error,
            undo_failed_seq,
            undo_error,
            inconsistent_object,
        } => {
            put_u8(out, 2)?;
            put_usize(out, *failed_seq)?;
            put_varint_str(out, error)?;
            put_usize(out, *undo_failed_seq)?;
            put_varint_str(out, undo_error)?;
            put_path(out, inconsistent_object)
        }
        PhysicalOutcome::Killed { reached_seq } => {
            put_u8(out, 3)?;
            put_usize(out, *reached_seq)
        }
        PhysicalOutcome::Reconciled {
            calls,
            drifted,
            remaining,
            unmatched,
        } => {
            put_u8(out, 4)?;
            put_seq(out, calls.iter(), put_log_record)?;
            put_varint(out, *drifted)?;
            put_varint(out, *remaining)?;
            put_varint(out, *unmatched)
        }
        PhysicalOutcome::Retrieved(subtree) => {
            put_u8(out, 5)?;
            put_option(out, subtree.as_ref(), put_node)
        }
    }
}

fn put_input<W: Write>(out: &mut W, msg: &InputMsg) -> io::Result<()> {
    match msg {
        InputMsg::Submit {
            id,
            proc_name,
            args,
            submitted_ms,
            priority,
            deadline_ms,
            idempotency_key,
            labels,
        } => {
            put_u8(out, 0)?;
            put_varint(out, *id)?;
            put_varint_str(out, proc_name)?;
            put_values(out, args)?;
            put_varint(out, *submitted_ms)?;
            put_priority(out, *priority)?;
            put_option(out, *deadline_ms, put_varint)?;
            put_option(out, idempotency_key.as_deref(), put_varint_str)?;
            put_labels(out, labels)
        }
        InputMsg::Result { id, outcome } => {
            put_u8(out, 1)?;
            put_varint(out, *id)?;
            put_outcome(out, outcome)
        }
        InputMsg::Repair { scope, admin_id } => {
            put_u8(out, 2)?;
            put_path(out, scope)?;
            put_varint(out, *admin_id)
        }
        InputMsg::Reload { scope, admin_id } => {
            put_u8(out, 3)?;
            put_path(out, scope)?;
            put_varint(out, *admin_id)
        }
        InputMsg::Signal { id, signal } => {
            put_u8(out, 4)?;
            put_varint(out, *id)?;
            put_signal(out, *signal)
        }
    }
}

/// One byte per variant of a fieldless enum, both ways: the encoder's
/// match is exhaustive, so a new variant fails to compile until it has
/// a tag.
macro_rules! variant_tags {
    ($put:ident, $get:ident, $ty:ident { $($variant:ident = $tag:literal),+ $(,)? }) => {
        fn $put<W: Write>(out: &mut W, v: $ty) -> io::Result<()> {
            put_u8(out, match v { $($ty::$variant => $tag),+ })
        }

        fn $get(cur: &mut Cursor<'_>) -> Option<$ty> {
            match cur.u8()? {
                $($tag => Some($ty::$variant),)+
                _ => None,
            }
        }
    };
}

variant_tags!(put_state, state, TxnState {
    Initialized = 0,
    Accepted = 1,
    Started = 2,
    Committed = 3,
    Aborted = 4,
    Failed = 5,
});
variant_tags!(put_priority, priority, Priority {
    High = 0,
    Normal = 1,
    Batch = 2,
});
variant_tags!(put_abort_code, abort_code, AbortCode {
    DeadlineExpired = 0,
    UnknownProcedure = 1,
    Killed = 2,
});
variant_tags!(put_lock_mode, lock_mode, LockMode {
    R = 0,
    W = 1,
    IR = 2,
    IW = 3,
});
variant_tags!(put_signal, signal, Signal { Term = 0, Kill = 1 });

// ---------------------------------------------------------------------
// Field decoders: `None` on any truncated or invalid byte.
// ---------------------------------------------------------------------

/// Reads a count, then that many items. Nothing is reserved from the
/// count: every item reads at least one byte, so the input bounds the loop.
fn seq<'a, T>(
    cur: &mut Cursor<'a>,
    mut item: impl FnMut(&mut Cursor<'a>) -> Option<T>,
) -> Option<Vec<T>> {
    let count = cur.varint()?;
    let mut items = Vec::new();
    for _ in 0..count {
        items.push(item(cur)?);
    }
    Some(items)
}

fn option<'a, T>(
    cur: &mut Cursor<'a>,
    some: impl FnOnce(&mut Cursor<'a>) -> Option<T>,
) -> Option<Option<T>> {
    match cur.u8()? {
        0 => Some(None),
        1 => some(cur).map(Some),
        _ => None,
    }
}

fn string(cur: &mut Cursor<'_>) -> Option<String> {
    cur.varint_str().map(str::to_owned)
}

fn usize_(cur: &mut Cursor<'_>) -> Option<usize> {
    usize::try_from(cur.varint()?).ok()
}

fn opt_varint(cur: &mut Cursor<'_>) -> Option<Option<u64>> {
    option(cur, Cursor::varint)
}

fn path(cur: &mut Cursor<'_>) -> Option<Path> {
    let count = cur.varint()?;
    let mut complete = true;
    let segments = (0..count).map_while(|_| {
        let segment = cur.varint_str();
        complete &= segment.is_some();
        segment
    });
    let path = Path::from_segments(segments).ok()?;
    complete.then_some(path)
}

/// One level deeper than `depth`, unless that passes [`MAX_DEPTH`].
fn deeper(depth: usize) -> Option<usize> {
    (depth < MAX_DEPTH).then_some(depth + 1)
}

fn values(cur: &mut Cursor<'_>, depth: usize) -> Option<Vec<Value>> {
    seq(cur, |cur| value(cur, depth))
}

fn value(cur: &mut Cursor<'_>, depth: usize) -> Option<Value> {
    let depth = deeper(depth)?;
    Some(match cur.u8()? {
        0 => Value::Null,
        1 => Value::Bool(cur.bool()?),
        2 => {
            let zigzag = cur.varint()?;
            Value::Int((zigzag >> 1) as i64 ^ -((zigzag & 1) as i64))
        }
        3 => Value::Float(f64::from_bits(cur.u64()?)),
        4 => Value::Str(string(cur)?),
        5 => Value::List(values(cur, depth)?),
        6 => Value::Map(attrs(cur, depth)?),
        _ => return None,
    })
}

/// Reads a count, then that many entries in strictly increasing key
/// order, the order a `BTreeMap` is written in, so each map has exactly
/// one encoding.
fn sorted_map<'a, V>(
    cur: &mut Cursor<'a>,
    mut entry: impl FnMut(&mut Cursor<'a>) -> Option<V>,
) -> Option<BTreeMap<String, V>> {
    let count = cur.varint()?;
    let mut entries: Vec<(String, V)> = Vec::new();
    for _ in 0..count {
        let key = string(cur)?;
        if entries.last().is_some_and(|(last, _)| *last >= key) {
            return None;
        }
        entries.push((key, entry(cur)?));
    }
    // Already sorted, so the map is built in one linear pass.
    Some(entries.into_iter().collect())
}

fn attrs(cur: &mut Cursor<'_>, depth: usize) -> Option<BTreeMap<String, Value>> {
    sorted_map(cur, |cur| value(cur, depth))
}

fn node(cur: &mut Cursor<'_>, depth: usize) -> Option<Node> {
    let depth = deeper(depth)?;
    Some(Node::from_parts(
        string(cur)?,
        attrs(cur, depth)?,
        sorted_map(cur, |cur| node(cur, depth))?,
        cur.bool()?,
    ))
}

fn labels(cur: &mut Cursor<'_>) -> Option<Vec<(String, String)>> {
    seq(cur, |cur| Some((string(cur)?, string(cur)?)))
}

fn log_record(cur: &mut Cursor<'_>) -> Option<LogRecord> {
    Some(LogRecord {
        seq: usize_(cur)?,
        object: path(cur)?,
        action: string(cur)?,
        args: values(cur, 0)?,
        undo_action: option(cur, string)?,
        undo_object: option(cur, path)?,
        undo_args: values(cur, 0)?,
        best_effort: cur.bool()?,
    })
}

fn record(cur: &mut Cursor<'_>) -> Option<TxnRecord> {
    Some(TxnRecord {
        id: cur.varint()?,
        proc_name: string(cur)?,
        args: values(cur, 0)?,
        state: state(cur)?,
        log: seq(cur, log_record)?,
        lsn: opt_varint(cur)?,
        locks: seq(cur, |cur| Some((path(cur)?, lock_mode(cur)?)))?,
        error: option(cur, string)?,
        abort_code: option(cur, abort_code)?,
        submitted_ms: cur.varint()?,
        finished_ms: opt_varint(cur)?,
        defer_count: u32::try_from(cur.varint()?).ok()?,
        priority: priority(cur)?,
        deadline_ms: opt_varint(cur)?,
        idempotency_key: option(cur, string)?,
        labels: labels(cur)?,
    })
}

fn outcome(cur: &mut Cursor<'_>) -> Option<PhysicalOutcome> {
    Some(match cur.u8()? {
        0 => PhysicalOutcome::Committed,
        1 => PhysicalOutcome::Aborted {
            failed_seq: usize_(cur)?,
            error: string(cur)?,
        },
        2 => PhysicalOutcome::Failed {
            failed_seq: usize_(cur)?,
            error: string(cur)?,
            undo_failed_seq: usize_(cur)?,
            undo_error: string(cur)?,
            inconsistent_object: path(cur)?,
        },
        3 => PhysicalOutcome::Killed {
            reached_seq: usize_(cur)?,
        },
        4 => PhysicalOutcome::Reconciled {
            calls: seq(cur, log_record)?,
            drifted: cur.varint()?,
            remaining: cur.varint()?,
            unmatched: cur.varint()?,
        },
        5 => PhysicalOutcome::Retrieved(option(cur, |cur| node(cur, 0))?),
        _ => return None,
    })
}

fn input(cur: &mut Cursor<'_>) -> Option<InputMsg> {
    Some(match cur.u8()? {
        0 => InputMsg::Submit {
            id: cur.varint()?,
            proc_name: string(cur)?,
            args: values(cur, 0)?,
            submitted_ms: cur.varint()?,
            priority: priority(cur)?,
            deadline_ms: opt_varint(cur)?,
            idempotency_key: option(cur, string)?,
            labels: labels(cur)?,
        },
        1 => InputMsg::Result {
            id: cur.varint()?,
            outcome: outcome(cur)?,
        },
        2 => InputMsg::Repair {
            scope: path(cur)?,
            admin_id: cur.varint()?,
        },
        3 => InputMsg::Reload {
            scope: path(cur)?,
            admin_id: cur.varint()?,
        },
        4 => InputMsg::Signal {
            id: cur.varint()?,
            signal: signal(cur)?,
        },
        _ => return None,
    })
}
