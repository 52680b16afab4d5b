//! Transactions, their states, and execution logs (paper §3, Table 1).

use serde::{Deserialize, Serialize};
use tropic_devices::ActionCall;
use tropic_model::{Path, Value};

use crate::api::{AbortCode, Priority};

/// Unique transaction identifier, assigned at submission.
pub type TxnId = u64;

/// One record of a transaction's execution log (paper Table 1).
///
/// The record captures everything both layers need: the logical layer
/// applied (and may undo) the action's simulated effect; the physical layer
/// replays the action against the device at `object`, and rolls back with
/// the undo action on failure.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Position within the transaction (1-based, as the paper numbers them).
    pub seq: usize,
    /// Resource object path the action addresses.
    pub object: Path,
    /// Action name.
    pub action: String,
    /// Action arguments.
    pub args: Vec<Value>,
    /// Undo action name; `None` marks an irreversible action.
    pub undo_action: Option<String>,
    /// Object path the undo action addresses (usually `object`, but e.g.
    /// migration undoes on the destination host).
    pub undo_object: Option<Path>,
    /// Undo action arguments.
    pub undo_args: Vec<Value>,
    /// Tolerate an individual failure of this action during physical
    /// execution instead of aborting the transaction. Set on twin-planned
    /// repair actions: their preconditions race with ongoing physical
    /// change (a rogue VM may already be stopped when the planned `stopVM`
    /// lands), and repair convergence is judged by the reconciler's
    /// re-diff, not by individual calls. Defaults to `false` so WAL
    /// records written before this field existed replay unchanged.
    #[serde(default)]
    pub best_effort: bool,
}

impl LogRecord {
    /// Record `seq`, running `call` with no undo (a reload's swap).
    pub(crate) fn irreversible(seq: usize, call: ActionCall) -> Self {
        LogRecord {
            seq,
            object: call.object,
            action: call.action,
            args: call.args,
            undo_action: None,
            undo_object: None,
            undo_args: Vec::new(),
            best_effort: false,
        }
    }

    /// A repair's step `seq`: best-effort, and undone by the universal
    /// no-op, so rolling back a half-run repair changes nothing in either
    /// layer.
    pub(crate) fn repair_step((seq, call): (usize, ActionCall)) -> Self {
        let undo_action = Some(tropic_devices::NOOP_ACTION.to_owned());
        LogRecord {
            undo_action,
            best_effort: true,
            ..Self::irreversible(seq, call)
        }
    }
}

/// Life-cycle states of a transaction (paper Figure 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnState {
    /// Created by the client, queued in `inputQ`.
    Initialized,
    /// Dequeued by the controller into `todoQ`.
    Accepted,
    /// Passed logical execution; locks held; queued in `phyQ`.
    Started,
    /// Physical execution succeeded everywhere.
    Committed,
    /// Rolled back cleanly in both layers.
    Aborted,
    /// Physical undo failed part-way: logical layer rolled back, physical
    /// layer *partially* rolled back, cross-layer inconsistency flagged
    /// (paper §3.2, §4).
    Failed,
}

impl TxnState {
    /// Returns `true` for terminal states.
    pub fn is_final(&self) -> bool {
        matches!(
            self,
            TxnState::Committed | TxnState::Aborted | TxnState::Failed
        )
    }
}

/// The durable record of one transaction, persisted in the coordination
/// store at every state transition so a new leader can resume it (§2.3).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TxnRecord {
    /// Transaction id.
    pub id: TxnId,
    /// Stored-procedure name.
    pub proc_name: String,
    /// Procedure arguments.
    pub args: Vec<Value>,
    /// Current state.
    pub state: TxnState,
    /// Execution log generated by logical simulation.
    pub log: Vec<LogRecord>,
    /// Logical sequence number: the order in which logical effects were
    /// applied to the data model. Recovery replays logs in `lsn` order.
    pub lsn: Option<u64>,
    /// The lock set held at `Started`, persisted so a recovering leader can
    /// rebuild its lock table exactly.
    #[serde(default)]
    pub locks: Vec<(Path, crate::locks::LockMode)>,
    /// Failure description for aborted/failed transactions.
    pub error: Option<String>,
    /// Machine-readable abort classification, when the platform (not the
    /// procedure) rejected the transaction.
    #[serde(default)]
    pub abort_code: Option<AbortCode>,
    /// Submission timestamp (platform clock, ms).
    pub submitted_ms: u64,
    /// Completion timestamp (platform clock, ms).
    pub finished_ms: Option<u64>,
    /// Times the transaction was deferred on lock conflicts.
    pub defer_count: u32,
    /// Scheduling lane the submission was admitted through.
    #[serde(default)]
    pub priority: Priority,
    /// Admission deadline (platform clock, ms), if the client set one.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Client-chosen dedup key, if any (see [`TxnAlias`]).
    #[serde(default)]
    pub idempotency_key: Option<String>,
    /// Free-form client labels.
    #[serde(default)]
    pub labels: Vec<(String, String)>,
}

/// A redirect persisted *in place of* a transaction record: when a
/// submission's idempotency key matches an already-admitted transaction,
/// the controller stores `TxnAlias { alias_of: original }` at the new id's
/// record path instead of running the procedure again. Clients waiting on
/// the new id follow the alias to the original outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnAlias {
    /// The transaction this id deduplicated onto.
    pub alias_of: TxnId,
}

impl TxnRecord {
    /// Creates a fresh record in the [`TxnState::Initialized`] state.
    pub fn new(
        id: TxnId,
        proc_name: impl Into<String>,
        args: Vec<Value>,
        submitted_ms: u64,
    ) -> Self {
        TxnRecord {
            id,
            proc_name: proc_name.into(),
            args,
            state: TxnState::Initialized,
            log: Vec::new(),
            lsn: None,
            locks: Vec::new(),
            error: None,
            abort_code: None,
            submitted_ms,
            finished_ms: None,
            defer_count: 0,
            priority: Priority::default(),
            deadline_ms: None,
            idempotency_key: None,
            labels: Vec::new(),
        }
    }

    /// End-to-end latency in milliseconds, once finished.
    pub fn latency_ms(&self) -> Option<u64> {
        self.finished_ms
            .map(|f| f.saturating_sub(self.submitted_ms))
    }
}

/// The outcome a client receives for a transaction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TxnOutcome {
    /// Transaction id. For an idempotent resubmission this is the
    /// *original* transaction's id, not the resubmitted one.
    pub id: TxnId,
    /// Terminal state: committed, aborted, or failed.
    pub state: TxnState,
    /// Failure description for aborted/failed transactions.
    pub error: Option<String>,
    /// Machine-readable abort classification, when the platform rejected
    /// the transaction (maps onto [`crate::api::ApiError`]).
    #[serde(default)]
    pub abort_code: Option<AbortCode>,
    /// End-to-end latency in milliseconds.
    pub latency_ms: u64,
}

/// Renders an execution log as the paper renders Table 1, for the
/// `table1_execution_log` experiment and debugging.
pub fn format_execution_log(log: &[LogRecord]) -> String {
    let mut out = String::new();
    out.push_str("log record # | resource object path | action | args | undo action | undo args\n");
    for rec in log {
        let args: Vec<String> = rec.args.iter().map(|v| v.to_string()).collect();
        let undo_args: Vec<String> = rec.undo_args.iter().map(|v| v.to_string()).collect();
        out.push_str(&format!(
            "{} | {} | {} | [{}] | {} | [{}]\n",
            rec.seq,
            rec.object,
            rec.action,
            args.join(", "),
            rec.undo_action.as_deref().unwrap_or("-"),
            undo_args.join(", "),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> TxnRecord {
        TxnRecord::new(7, "spawnVM", vec![Value::from("vm1")], 1000)
    }

    #[test]
    fn final_states() {
        assert!(!TxnState::Initialized.is_final());
        assert!(!TxnState::Accepted.is_final());
        assert!(!TxnState::Started.is_final());
        assert!(TxnState::Committed.is_final());
        assert!(TxnState::Aborted.is_final());
        assert!(TxnState::Failed.is_final());
    }

    #[test]
    fn latency_computed_when_finished() {
        let mut r = record();
        assert_eq!(r.latency_ms(), None);
        r.finished_ms = Some(1500);
        assert_eq!(r.latency_ms(), Some(500));
    }

    #[test]
    fn serde_roundtrip() {
        let mut r = record();
        r.log.push(LogRecord {
            seq: 1,
            object: Path::parse("/storageRoot/s1").unwrap(),
            action: "cloneImage".into(),
            args: vec![Value::from("tmpl"), Value::from("img")],
            undo_action: Some("removeImage".into()),
            undo_object: None,
            undo_args: vec![Value::from("img")],
            best_effort: false,
        });
        let json = serde_json::to_string(&r).unwrap();
        let back: TxnRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, 7);
        assert_eq!(back.log, r.log);
        assert_eq!(back.state, TxnState::Initialized);
    }

    #[test]
    fn format_matches_table1_shape() {
        let log = vec![LogRecord {
            seq: 1,
            object: Path::parse("/storageRoot/storageHost").unwrap(),
            action: "cloneImage".into(),
            args: vec![Value::from("imageTemplate"), Value::from("vmImage")],
            undo_action: Some("removeImage".into()),
            undo_object: None,
            undo_args: vec![Value::from("vmImage")],
            best_effort: false,
        }];
        let s = format_execution_log(&log);
        assert!(s.contains("/storageRoot/storageHost"));
        assert!(s.contains("cloneImage"));
        assert!(s.contains("removeImage"));
    }
}
