//! Messages flowing through the durable queues and signal znodes.
//!
//! Clients and workers talk to the controller exclusively through `inputQ`
//! (paper Figure 1): clients enqueue transaction submissions, workers
//! enqueue execution results, and operators enqueue reconciliation requests.
//! The controller feeds runnable transactions to the workers through `phyQ`.
//!
//! ## Wire versioning
//!
//! Every queued message is wrapped in a versioned [`Envelope`]
//! (`{"v": 1, "msg": ...}`); bytes without a version field are
//! [`WireError::Malformed`]. The policy is:
//!
//! * **Additive change** (new optional field, new variant): keep `v` as is.
//!   New fields carry `#[serde(default)]`, and decoders ignore unknown
//!   fields, so old and new builds interoperate in both directions.
//! * **Breaking change** (field removed or re-interpreted): bump
//!   [`WIRE_VERSION`]. A decoder rejects envelopes newer than itself with
//!   [`WireError::UnsupportedVersion`] rather than mis-reading them.

use serde::{Deserialize, Serialize};
use tropic_model::{Path, Value};

use crate::api::Priority;
use crate::physical::PhysicalOutcome;
use crate::txn::TxnId;

/// Version stamped on every [`Envelope`] this build writes.
pub const WIRE_VERSION: u32 = 1;

/// The versioned wire frame wrapping every queued message.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Envelope {
    /// Wire-format version (see the module docs for the bump policy).
    pub v: u32,
    /// The payload.
    pub msg: InputMsg,
}

/// Errors decoding a queued message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The envelope version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The bytes carry no version field or do not parse as an [`Envelope`].
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
                )
            }
            WireError::Malformed(e) => write!(f, "malformed message: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a message in the current wire format (enveloped, versioned).
pub fn encode_input(msg: InputMsg) -> Vec<u8> {
    serde_json::to_vec(&Envelope {
        v: WIRE_VERSION,
        msg,
    })
    .expect("serializable message")
}

/// The version field alone, whatever the payload beside it.
#[derive(Deserialize)]
struct VersionProbe {
    v: u32,
}

/// Version gate of every decoder, queue and socket alike: probed before
/// the payload is parsed, so a future-version envelope whose payload this
/// build cannot even represent still fails with the version error, and
/// bytes with no version field at all are malformed.
pub(crate) fn check_version(bytes: &[u8]) -> Result<(), WireError> {
    match serde_json::from_slice::<VersionProbe>(bytes) {
        Ok(probe) if probe.v > WIRE_VERSION => Err(WireError::UnsupportedVersion(probe.v)),
        Ok(_) => Ok(()),
        Err(_) => Err(WireError::Malformed("missing wire version field".into())),
    }
}

/// Decodes a queued message, rejecting future versions at the boundary.
pub fn decode_input(bytes: &[u8]) -> Result<InputMsg, WireError> {
    check_version(bytes)?;
    serde_json::from_slice::<Envelope>(bytes)
        .map(|env| env.msg)
        .map_err(|e| WireError::Malformed(e.to_string()))
}

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
#[derive(Clone, Debug, Serialize, Deserialize)]
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
        /// Scheduling lane (`Normal` when absent).
        #[serde(default)]
        priority: Priority,
        /// Admission deadline (platform clock, ms): the controller aborts
        /// the submission instead of admitting it past this instant.
        #[serde(default)]
        deadline_ms: Option<u64>,
        /// Client-chosen dedup key: a resubmission carrying a key already
        /// admitted resolves to the original transaction instead of
        /// running again.
        #[serde(default)]
        idempotency_key: Option<String>,
        /// Free-form key/value labels carried into the durable record.
        #[serde(default)]
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
#[derive(Clone, Debug, Serialize, Deserialize)]
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

    /// The logical-layer checkpoint (tree snapshot + watermark).
    pub fn checkpoint() -> Path {
        Path::parse("/tropic/checkpoint").expect("static path")
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

    /// Monotonic epoch counter bumped whenever any reported-state znode
    /// changes, so the reconciler can skip re-reading an unchanged `twin/`
    /// subtree.
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
        let json = serde_json::to_vec(&submit_msg()).unwrap();
        let back: InputMsg = serde_json::from_slice(&json).unwrap();
        match back {
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
        let msg = encode_input(submit_msg());
        let bumped = String::from_utf8(msg)
            .unwrap()
            .replacen("\"v\":1", "\"v\":99", 1);
        assert!(matches!(
            decode_input(bumped.as_bytes()),
            Err(WireError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn future_version_rejected_even_with_unparseable_payload() {
        // A v2 build may carry a payload shape this build cannot parse;
        // the version must still be the reported failure.
        let bytes = br#"{"v":2,"msg":{"BrandNewVariant":{"x":1}}}"#;
        assert!(matches!(
            decode_input(bytes),
            Err(WireError::UnsupportedVersion(2))
        ));
    }

    #[test]
    fn garbage_is_malformed() {
        assert!(matches!(
            decode_input(b"not json"),
            Err(WireError::Malformed(_))
        ));
        // So is a well-formed message without its envelope: there is no
        // bare encoding.
        let bare = serde_json::to_vec(&submit_msg()).unwrap();
        assert!(matches!(decode_input(&bare), Err(WireError::Malformed(_))));
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
