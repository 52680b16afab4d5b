//! Messages flowing through the durable queues and signal znodes.
//!
//! Clients and workers talk to the controller exclusively through `inputQ`
//! (paper Figure 1): clients enqueue transaction submissions, workers
//! enqueue execution results, and operators enqueue reconciliation requests.
//! The controller feeds runnable transactions to the workers through `phyQ`.
//!
//! ## Wire versioning
//!
//! Queued messages are binary, laid out by [`crate::codec`]: a kind tag,
//! the store format version, then the message's fields in declaration
//! order. [`decode_input`] checks the version before the payload and
//! rejects any version it does not read with
//! [`WireError::UnsupportedVersion`]; bytes that do not decode are
//! [`WireError::Malformed`]. The layout is positional, so any change to
//! [`InputMsg`] or a type it carries bumps
//! [`crate::codec::STORE_FORMAT_VERSION`]. The JSON messages builds before
//! that layout queued (`{"v": 1, "msg": ...}`) are malformed.
//!
//! The RPC frames stay versioned JSON ([`crate::rpc`]) under
//! [`WIRE_VERSION`]: an additive change (a new `#[serde(default)]` field,
//! a new variant) keeps `v`, a breaking one bumps it.

use serde::{Deserialize, Serialize};
use tropic_model::{Path, Value};

use crate::api::Priority;
use crate::physical::PhysicalOutcome;
use crate::txn::TxnId;

pub use crate::codec::{decode_input, encode_input};

/// Version stamped on every RPC frame this build writes.
pub const WIRE_VERSION: u32 = 1;

/// Errors decoding a queued message, a store payload or an RPC frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The bytes carry a format version this build does not read (a newer
    /// build wrote them).
    UnsupportedVersion(u32),
    /// The bytes carry no version or do not decode.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported format version {v}")
            }
            WireError::Malformed(e) => write!(f, "malformed message: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Signals for unresponsive transactions (paper §4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Signal {
    /// Graceful abort: the worker stops, undoes the executed prefix, and
    /// reports an abort, keeping the layers consistent.
    Term,
    /// Immediate abort in the logical layer only; the worker abandons the
    /// transaction and any cross-layer inconsistency is left to `repair`.
    Kill,
}

/// A message consumed by the (leader) controller from `inputQ`.
#[derive(Clone, Debug)]
pub enum InputMsg {
    /// A client submitted a transaction.
    Submit {
        /// Client-assigned transaction id (ids are unique platform-wide,
        /// making re-submission after failover idempotent).
        id: TxnId,
        /// Stored-procedure name.
        proc_name: String,
        /// Procedure arguments.
        args: Vec<Value>,
        /// Submission timestamp (platform clock, ms).
        submitted_ms: u64,
        /// Scheduling lane.
        priority: Priority,
        /// Admission deadline (platform clock, ms): the controller aborts
        /// the submission instead of admitting it past this instant.
        deadline_ms: Option<u64>,
        /// Client-chosen dedup key: a resubmission carrying a key already
        /// admitted resolves to the original transaction instead of
        /// running again.
        idempotency_key: Option<String>,
        /// Free-form key/value labels carried into the durable record.
        labels: Vec<(String, String)>,
    },
    /// A worker finished a transaction's physical execution.
    Result {
        /// The transaction.
        id: TxnId,
        /// How physical execution ended.
        outcome: PhysicalOutcome,
    },
    /// Operator request: reconcile physical state toward the logical layer
    /// within `scope` (paper §4, *repair*).
    Repair {
        /// Subtree to reconcile.
        scope: Path,
        /// Identifier the operator waits on for the result.
        admin_id: u64,
    },
    /// Operator request: replace the logical subtree at `scope` with freshly
    /// retrieved physical state (paper §4, *reload*).
    Reload {
        /// Subtree to reload.
        scope: Path,
        /// Identifier the operator waits on for the result.
        admin_id: u64,
    },
    /// Operator request: signal an unresponsive transaction.
    Signal {
        /// The transaction.
        id: TxnId,
        /// TERM or KILL.
        signal: Signal,
    },
}

/// A task in `phyQ`: the worker loads the full transaction record (with its
/// execution log) from the coordination store by id.
#[derive(Clone, Debug)]
pub struct PhyTask {
    /// The transaction to execute physically.
    pub id: TxnId,
}

/// Result of an administrative operation (repair/reload), persisted where
/// the requesting operator can read it for the record-retention grace
/// period (`GC_GRACE_MS`, 10 s), then collected.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdminResult {
    /// Whether the operation succeeded: for repair, the layers agree
    /// within the scope once its last attempt finalized.
    pub ok: bool,
    /// Human-readable summary.
    pub message: String,
    /// Repair: corrective device calls planned across all of the repair's
    /// attempts. A worker runs them best-effort, so a call whose
    /// precondition failed still counts; `ok` says whether they converged.
    /// Reload: nodes replaced.
    pub actions: usize,
    /// Distinct paths on which the logical and physical layers disagreed
    /// within the scope before the operation changed anything (a path with
    /// several diff entries counts once). Absent (zero) on results written
    /// by pre-twin builds.
    #[serde(default)]
    pub drifted: usize,
}

/// Well-known paths in the coordination store.
pub mod layout {
    use tropic_model::Path;

    use crate::api::Priority;
    use crate::txn::TxnId;

    /// Root of all TROPIC state.
    pub fn root() -> Path {
        Path::parse("/tropic").expect("static path")
    }

    /// Parent of the input queue's priority lanes ([`input_lane`]). Nothing
    /// enqueues on or drains the parent itself.
    pub fn input_q() -> Path {
        Path::parse("/tropic/inputQ").expect("static path")
    }

    /// One priority lane of the input queue (`inputQ/hi|norm|batch`).
    /// The controller drains lanes strictly in priority order.
    pub fn input_lane(priority: Priority) -> Path {
        input_q().join(priority.lane())
    }

    /// The controller → workers queue.
    pub fn phy_q() -> Path {
        Path::parse("/tropic/phyQ").expect("static path")
    }

    /// Controller leader-election base.
    pub fn election() -> Path {
        Path::parse("/tropic/election").expect("static path")
    }

    /// Base of per-transaction records.
    pub fn txns() -> Path {
        Path::parse("/tropic/txns").expect("static path")
    }

    /// Record of one transaction.
    pub fn txn(id: TxnId) -> Path {
        txns().join(&format!("{id:020}"))
    }

    /// Where an earlier version kept its whole-tree checkpoint. A store
    /// holding it and no granules is refused, not re-bootstrapped.
    pub fn checkpoint() -> Path {
        Path::parse("/tropic/checkpoint").expect("static path")
    }

    /// Base of the committed-subtree granules ([`granule`]).
    pub fn tree() -> Path {
        root().join("tree")
    }

    /// Granule znode holding the committed subtree at `object`. The name
    /// is the object path's text in hex, so every path — the root too —
    /// is one flat, valid znode name that [`granule_object`] decodes.
    pub fn granule(object: &Path) -> Path {
        let text = object.to_string();
        let nibbles = text.bytes().flat_map(|b| [b >> 4, b & 15]);
        let digits = nibbles.filter_map(|n| char::from_digit(n.into(), 16));
        tree().join(&digits.collect::<String>())
    }

    /// The object path a granule znode's name encodes, or `None` for a
    /// name [`granule`] never writes.
    pub fn granule_object(name: &str) -> Option<Path> {
        let pairs = name.as_bytes().chunks(2).map(std::str::from_utf8);
        let bytes = pairs.map(|hex| u8::from_str_radix(hex.ok()?, 16).ok());
        Path::parse(&String::from_utf8(bytes.collect::<Option<_>>()?).ok()?).ok()
    }

    /// The persisted set of inconsistency-marked paths.
    pub fn inconsistent() -> Path {
        Path::parse("/tropic/inconsistent").expect("static path")
    }

    /// Base of per-transaction signal znodes.
    pub fn signals() -> Path {
        Path::parse("/tropic/signals").expect("static path")
    }

    /// Signal znode for one transaction.
    pub fn signal(id: TxnId) -> Path {
        signals().join(&format!("{id:020}"))
    }

    /// Base of administrative-operation result znodes.
    pub fn admins() -> Path {
        Path::parse("/tropic/admin").expect("static path")
    }

    /// Result znode for one administrative operation.
    pub fn admin(admin_id: u64) -> Path {
        admins().join(&format!("{admin_id:020}"))
    }

    /// Root of the digital twin's persisted state.
    pub fn twin() -> Path {
        Path::parse("/tropic/twin").expect("static path")
    }

    /// Base of persisted per-device reported state.
    pub fn twin_reported() -> Path {
        Path::parse("/tropic/twin/reported").expect("static path")
    }

    /// Reported-state znode for the device mounted at `mount`. Mount paths
    /// contain `/`, which znode names cannot, so segments are joined with
    /// `.` (model paths never contain dots).
    pub fn twin_reported_item(mount: &Path) -> Path {
        let encoded = mount.to_string().trim_start_matches('/').replace('/', ".");
        twin_reported().join(&encoded)
    }

    /// Epoch counter bumped whenever any reported-state znode changes, so
    /// the reconciler can skip re-reading an unchanged `twin/` subtree. It
    /// holds no payload: the znode's data version is the counter.
    pub fn twin_epoch() -> Path {
        Path::parse("/tropic/twin/epoch").expect("static path")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit_msg() -> InputMsg {
        InputMsg::Submit {
            id: 42,
            proc_name: "spawnVM".into(),
            args: vec![Value::from("vm1")],
            submitted_ms: 123,
            priority: Priority::High,
            deadline_ms: Some(9_000),
            idempotency_key: Some("req-1".into()),
            labels: vec![("tenant".into(), "acme".into())],
        }
    }

    #[test]
    fn input_msg_roundtrip() {
        match decode_input(&encode_input(submit_msg())).unwrap() {
            InputMsg::Submit {
                id,
                proc_name,
                priority,
                deadline_ms,
                idempotency_key,
                labels,
                ..
            } => {
                assert_eq!(id, 42);
                assert_eq!(proc_name, "spawnVM");
                assert_eq!(priority, Priority::High);
                assert_eq!(deadline_ms, Some(9_000));
                assert_eq!(idempotency_key.as_deref(), Some("req-1"));
                assert_eq!(labels, vec![("tenant".to_string(), "acme".to_string())]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn envelope_roundtrip() {
        let bytes = encode_input(submit_msg());
        let back = decode_input(&bytes).unwrap();
        assert!(matches!(back, InputMsg::Submit { id: 42, .. }));
    }

    #[test]
    fn future_wire_version_is_rejected() {
        let mut msg = encode_input(submit_msg());
        msg[1] = 99;
        assert!(matches!(
            decode_input(&msg),
            Err(WireError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn future_version_rejected_even_with_unparseable_payload() {
        // A newer build may carry a payload shape this build cannot parse;
        // the version must still be the reported failure.
        let binary = [crate::codec::TAG_INPUT, 9, 0xFF];
        assert_eq!(
            decode_input(&binary).unwrap_err(),
            WireError::UnsupportedVersion(9)
        );
    }

    #[test]
    fn garbage_is_malformed() {
        assert!(matches!(
            decode_input(b"not json"),
            Err(WireError::Malformed(_))
        ));
        // So is the JSON envelope builds before the binary layout queued,
        // and one claiming a newer version.
        for json in [
            &br#"{"v":1,"msg":{"Signal":{"id":1,"signal":"Term"}}}"#[..],
            br#"{"v":2,"msg":{"BrandNewVariant":{"x":1}}}"#,
        ] {
            assert!(matches!(decode_input(json), Err(WireError::Malformed(_))));
        }
    }

    #[test]
    fn signal_roundtrip() {
        for s in [Signal::Term, Signal::Kill] {
            let json = serde_json::to_vec(&s).unwrap();
            let back: Signal = serde_json::from_slice(&json).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn layout_paths_sort_by_id() {
        assert!(layout::txn(9) < layout::txn(10));
        assert!(layout::txn(99) < layout::txn(100));
        assert_eq!(layout::txn(5).parent().unwrap(), layout::txns());
        assert!(layout::signal(3).to_string().contains("signals"));
        assert!(layout::admin(1).to_string().contains("admin"));
    }

    #[test]
    fn twin_layout_encodes_mounts_flat() {
        let mount = Path::parse("/vmRoot/host3").unwrap();
        let znode = layout::twin_reported_item(&mount);
        assert_eq!(znode.to_string(), "/tropic/twin/reported/vmRoot.host3");
        assert_eq!(znode.parent().unwrap(), layout::twin_reported());
        assert!(layout::twin_reported()
            .to_string()
            .starts_with("/tropic/twin"));
        assert_eq!(layout::twin_epoch().parent().unwrap(), layout::twin());
        // Distinct mounts never collide.
        assert_ne!(
            layout::twin_reported_item(&Path::parse("/a/b").unwrap()),
            layout::twin_reported_item(&Path::parse("/a/c").unwrap()),
        );
    }

    #[test]
    fn granule_names_are_flat_and_decode_back() {
        for text in ["/", "/vmRoot/host3", "/a.b/c-d_e"] {
            let object = Path::parse(text).unwrap();
            let znode = layout::granule(&object);
            assert_eq!(znode.parent().unwrap(), layout::tree());
            assert_eq!(layout::granule_object(znode.leaf().unwrap()), Some(object));
        }
        assert_eq!(layout::granule(&Path::root()).leaf(), Some("2f"));
        for junk in ["2", "zz", "ff", "61"] {
            assert_eq!(layout::granule_object(junk), None, "{junk}");
        }
    }

    #[test]
    fn admin_result_drifted_defaults_for_old_writers() {
        // A result persisted by a pre-twin build has no `drifted` field.
        let legacy = br#"{"ok":true,"message":"repaired","actions":2}"#;
        let back: AdminResult = serde_json::from_slice(legacy).unwrap();
        assert!(back.ok);
        assert_eq!(back.actions, 2);
        assert_eq!(back.drifted, 0);
    }

    #[test]
    fn lanes_nest_under_the_legacy_queue_root() {
        for p in Priority::ALL {
            let lane = layout::input_lane(p);
            assert_eq!(lane.parent().unwrap(), layout::input_q());
        }
        assert_eq!(
            layout::input_lane(Priority::High).to_string(),
            "/tropic/inputQ/hi"
        );
        assert_eq!(
            layout::input_lane(Priority::Normal).to_string(),
            "/tropic/inputQ/norm"
        );
        assert_eq!(
            layout::input_lane(Priority::Batch).to_string(),
            "/tropic/inputQ/batch"
        );
    }
}
