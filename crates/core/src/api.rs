//! The typed, versioned client API (paper §3, Figure 2 — the front door):
//! what a client says and hears, whichever transport carries it (see
//! [`crate::client`]).
//!
//! * [`TxnRequest`] — a builder for stored-procedure submissions carrying
//!   a [`Priority`] lane, an admission deadline, an idempotency key, and
//!   free-form labels.
//! * [`TxnEvent`] — one transaction lifecycle transition, as a
//!   [`crate::Subscription`] streams it.
//! * [`ApiError`] — the structured error taxonomy, partitioned into
//!   retryable and permanent failures.
//!
//! Requests travel to the controller as binary `inputQ` messages
//! ([`crate::codec`]).

#![warn(missing_docs)]

use std::time::Duration;

use serde::{Deserialize, Serialize};
use tropic_coord::CoordError;
use tropic_model::Value;

use crate::error::PlatformError;
use crate::msg::InputMsg;
use crate::txn::{TxnId, TxnOutcome, TxnRecord, TxnState};

// ---------------------------------------------------------------------
// Priority lanes.
// ---------------------------------------------------------------------

/// Scheduling priority of a submission. Each priority maps to one durable
/// input-queue lane (`inputQ/hi|norm|batch`); the controller drains lanes
/// strictly in this order, so a `High` submission admitted behind a full
/// `Batch` backlog still reaches the scheduler first.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum Priority {
    /// Latency-sensitive interactive work; drained first.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Bulk/background work; drained only when the other lanes are empty.
    Batch,
}

impl Priority {
    /// All priorities, in drain order (highest first).
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Batch];

    /// The queue-lane segment under `inputQ` this priority maps to.
    pub fn lane(self) -> &'static str {
        match self {
            Priority::High => "hi",
            Priority::Normal => "norm",
            Priority::Batch => "batch",
        }
    }

    /// Dense index in drain order (0 = highest).
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }
}

// ---------------------------------------------------------------------
// Error taxonomy.
// ---------------------------------------------------------------------

/// Machine-readable classification persisted on records the *platform*
/// aborted (as opposed to aborts raised by procedure logic or constraint
/// checks). [`TxnOutcome::api_error`] lifts it back into an [`ApiError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortCode {
    /// The submission's deadline had already passed at admission.
    DeadlineExpired,
    /// The named stored procedure is not registered.
    UnknownProcedure,
    /// An operator (or a stall timeout) KILLed the transaction.
    Killed,
}

/// Structured client-facing errors, partitioned by [`ApiError::retryable`]:
/// retryable errors describe transient platform conditions (resubmitting
/// the same request may succeed); permanent errors describe requests that
/// can never succeed as written.
///
/// The taxonomy is serializable so the RPC frontend ([`crate::rpc`]) can
/// carry it across the wire verbatim — a remote caller sees the *same*
/// variants, and the same [`ApiError::retryable`] partition, as an
/// in-process one.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ApiError {
    /// The request's deadline expired before the controller admitted it.
    /// Permanent: the deadline is part of the request.
    DeadlineExceeded {
        /// The rejected transaction.
        id: TxnId,
    },
    /// The named stored procedure is not registered. Permanent.
    UnknownProcedure(String),
    /// The request is structurally invalid (e.g. empty procedure name).
    /// Permanent.
    InvalidRequest(String),
    /// The transaction was KILLed by an operator or a stall timeout.
    /// Permanent for this transaction; the caller decides about resubmission.
    Killed {
        /// The killed transaction.
        id: TxnId,
    },
    /// Waiting for an outcome outran its bound; the transaction may still
    /// finalize later. Retryable (keep waiting or re-poll the handle).
    WaitTimeout {
        /// The transaction still in flight.
        id: TxnId,
    },
    /// The coordination service failed or lost quorum. Retryable.
    Coordination(String),
    /// The platform is shutting down. Retryable (against a new platform).
    ShuttingDown,
    /// An administrative operation failed. Permanent.
    Admin(String),
    /// The peer spoke a wire version newer than this build understands.
    /// Permanent until one side is upgraded.
    UnsupportedWireVersion {
        /// The version the peer sent.
        version: u32,
    },
    /// A transport-level failure reaching (or talking to) the RPC server:
    /// connection refused, reset, or an unsynchronized frame stream.
    /// Retryable — but the failed call may still have taken effect
    /// server-side (e.g. a submit whose reply was lost), so resubmitting a
    /// `Submit` is only duplicate-safe with an idempotency key.
    Transport(String),
    /// Reserved wire-version-1 variant: earlier servers closed event
    /// streams with it when a (since removed) read-only replica tier could
    /// no longer bound staleness. This build decodes, displays and
    /// classifies it — retryable: back off and resubscribe — but never
    /// constructs it; dropping it would break the wire schema.
    LeaseExpired {
        /// Id of the replica the sending server named.
        observer: u64,
    },
}

impl ApiError {
    /// Whether resubmitting the same request can ever succeed.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            ApiError::WaitTimeout { .. }
                | ApiError::Coordination(_)
                | ApiError::ShuttingDown
                | ApiError::Transport(_)
                | ApiError::LeaseExpired { .. }
        )
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::DeadlineExceeded { id } => {
                write!(f, "txn {id}: deadline expired before admission")
            }
            ApiError::UnknownProcedure(name) => write!(f, "unknown procedure: {name}"),
            ApiError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
            ApiError::Killed { id } => write!(f, "txn {id} was killed"),
            ApiError::WaitTimeout { id } => {
                write!(f, "timed out waiting for txn {id} (still in flight)")
            }
            ApiError::Coordination(s) => write!(f, "coordination error: {s}"),
            ApiError::ShuttingDown => write!(f, "platform is shutting down"),
            ApiError::Admin(s) => write!(f, "admin operation failed: {s}"),
            ApiError::UnsupportedWireVersion { version } => {
                write!(
                    f,
                    "unsupported wire version {version} (this build speaks {})",
                    crate::msg::WIRE_VERSION
                )
            }
            ApiError::Transport(s) => write!(f, "transport error: {s}"),
            ApiError::LeaseExpired { observer } => {
                write!(f, "observer {observer} staleness lease expired")
            }
        }
    }
}

impl std::error::Error for ApiError {}

impl From<CoordError> for ApiError {
    fn from(e: CoordError) -> Self {
        ApiError::Coordination(e.to_string())
    }
}

impl From<crate::msg::WireError> for ApiError {
    fn from(e: crate::msg::WireError) -> Self {
        match e {
            crate::msg::WireError::UnsupportedVersion(version) => {
                ApiError::UnsupportedWireVersion { version }
            }
            crate::msg::WireError::Malformed(s) => ApiError::InvalidRequest(s),
        }
    }
}

impl From<PlatformError> for ApiError {
    fn from(e: PlatformError) -> Self {
        match e {
            PlatformError::Coord(s) => ApiError::Coordination(s),
            e @ PlatformError::IncompatibleStore(_) => ApiError::Coordination(e.to_string()),
            PlatformError::UnknownProcedure(n) => ApiError::UnknownProcedure(n),
            PlatformError::Timeout => ApiError::WaitTimeout { id: 0 },
            PlatformError::ShuttingDown => ApiError::ShuttingDown,
            PlatformError::Admin(s) => ApiError::Admin(s),
        }
    }
}

impl TxnOutcome {
    /// Lifts a platform-rejected outcome into the typed error taxonomy.
    /// Returns `None` for committed transactions and for aborts raised by
    /// procedure logic or constraint checks (those are application
    /// outcomes, not API errors).
    pub fn api_error(&self) -> Option<ApiError> {
        match self.abort_code? {
            AbortCode::DeadlineExpired => Some(ApiError::DeadlineExceeded { id: self.id }),
            AbortCode::UnknownProcedure => {
                // The record's error reads "unknown procedure `name`";
                // carry just the name, falling back to the full message.
                let msg = self.error.clone().unwrap_or_default();
                let name = msg
                    .strip_prefix("unknown procedure `")
                    .and_then(|rest| rest.strip_suffix('`'))
                    .map(str::to_owned)
                    .unwrap_or(msg);
                Some(ApiError::UnknownProcedure(name))
            }
            AbortCode::Killed => Some(ApiError::Killed { id: self.id }),
        }
    }
}

// ---------------------------------------------------------------------
// Request builder.
// ---------------------------------------------------------------------

/// A typed stored-procedure submission, assembled builder-style:
///
/// ```no_run
/// use std::time::Duration;
/// use tropic_core::api::{Priority, TxnRequest};
///
/// let req = TxnRequest::new("spawnVM")
///     .arg("web-1")
///     .arg("template-linux")
///     .priority(Priority::High)
///     .deadline(Duration::from_secs(5))
///     .idempotency_key("spawn-web-1")
///     .label("tenant", "acme");
/// ```
///
/// Requests are serializable so a socket client
/// ([`crate::TropicClient::connect`]) ships the *same* builder output; a
/// relative [`TxnRequest::deadline`] is resolved against the platform
/// clock when the request is admitted (so it spans queueing, not the
/// network hop).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TxnRequest {
    proc_name: String,
    args: Vec<Value>,
    priority: Priority,
    deadline: Option<Duration>,
    deadline_at_ms: Option<u64>,
    idempotency_key: Option<String>,
    labels: Vec<(String, String)>,
}

impl TxnRequest {
    /// Starts a request for the named stored procedure.
    pub fn new(proc_name: impl Into<String>) -> Self {
        TxnRequest {
            proc_name: proc_name.into(),
            args: Vec::new(),
            priority: Priority::Normal,
            deadline: None,
            deadline_at_ms: None,
            idempotency_key: None,
            labels: Vec::new(),
        }
    }

    /// Appends one procedure argument.
    pub fn arg(mut self, value: impl Into<Value>) -> Self {
        self.args.push(value.into());
        self
    }

    /// Appends a batch of procedure arguments.
    pub fn args(mut self, args: impl IntoIterator<Item = Value>) -> Self {
        self.args.extend(args);
        self
    }

    /// Selects the scheduling lane (default [`Priority::Normal`]).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets an admission deadline relative to submission time: if the
    /// controller has not admitted the submission by then, it aborts with
    /// [`AbortCode::DeadlineExpired`] instead of running.
    pub fn deadline(mut self, after: Duration) -> Self {
        self.deadline = Some(after);
        self
    }

    /// Sets an absolute admission deadline on the platform clock
    /// (milliseconds). Overrides [`TxnRequest::deadline`].
    pub fn deadline_at(mut self, at_ms: u64) -> Self {
        self.deadline_at_ms = Some(at_ms);
        self
    }

    /// Attaches an idempotency key: a resubmission carrying a key the
    /// controller has already admitted resolves to the *original*
    /// transaction's outcome instead of executing again. The dedup window
    /// is the record-retention window (at least 10 s past finalization).
    pub fn idempotency_key(mut self, key: impl Into<String>) -> Self {
        self.idempotency_key = Some(key.into());
        self
    }

    /// Attaches a free-form label, carried into the durable record.
    pub fn label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.push((key.into(), value.into()));
        self
    }

    /// The stored-procedure name.
    pub fn proc_name(&self) -> &str {
        &self.proc_name
    }

    /// The scheduling lane.
    pub fn priority_lane(&self) -> Priority {
        self.priority
    }

    /// Validates the request and lowers it to a wire message, resolving
    /// the relative deadline against `now_ms`.
    pub(crate) fn into_msg(
        self,
        id: TxnId,
        now_ms: u64,
    ) -> Result<(InputMsg, Option<u64>), ApiError> {
        if self.proc_name.is_empty() {
            return Err(ApiError::InvalidRequest("empty procedure name".into()));
        }
        let deadline_ms = self.deadline_at_ms.or_else(|| {
            self.deadline
                .map(|d| now_ms.saturating_add(d.as_millis() as u64))
        });
        Ok((
            InputMsg::Submit {
                id,
                proc_name: self.proc_name,
                args: self.args,
                submitted_ms: now_ms,
                priority: self.priority,
                deadline_ms,
                idempotency_key: self.idempotency_key,
                labels: self.labels,
            },
            deadline_ms,
        ))
    }
}

/// The outcome `rec` reads as, for transaction `id`.
pub(crate) fn outcome_of(id: TxnId, rec: &TxnRecord) -> TxnOutcome {
    TxnOutcome {
        id,
        state: rec.state,
        error: rec.error.clone(),
        abort_code: rec.abort_code,
        latency_ms: rec.latency_ms().unwrap_or(0),
    }
}

// ---------------------------------------------------------------------
// Lifecycle events.
// ---------------------------------------------------------------------

/// One observed transaction lifecycle transition.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TxnEvent {
    /// The transaction.
    pub id: TxnId,
    /// Stored-procedure name.
    pub proc_name: String,
    /// The state the transaction was observed entering.
    pub state: TxnState,
    /// Scheduling lane.
    pub priority: Priority,
    /// Observation timestamp (platform clock, ms).
    pub at_ms: u64,
    /// Failure description, for terminal failures.
    pub error: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_drain_order_and_lanes() {
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::ALL.map(|p| p.lane()), ["hi", "norm", "batch"]);
        for (i, p) in Priority::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert!(Priority::High < Priority::Normal && Priority::Normal < Priority::Batch);
    }

    #[test]
    fn priority_serde_roundtrip() {
        for p in Priority::ALL {
            let json = serde_json::to_vec(&p).unwrap();
            let back: Priority = serde_json::from_slice(&json).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn retryable_partition() {
        assert!(ApiError::WaitTimeout { id: 1 }.retryable());
        assert!(ApiError::Coordination("quorum lost".into()).retryable());
        assert!(ApiError::ShuttingDown.retryable());
        assert!(ApiError::Transport("connection reset".into()).retryable());
        assert!(!ApiError::DeadlineExceeded { id: 1 }.retryable());
        assert!(!ApiError::UnknownProcedure("x".into()).retryable());
        assert!(!ApiError::InvalidRequest("empty".into()).retryable());
        assert!(!ApiError::Killed { id: 1 }.retryable());
        assert!(!ApiError::Admin("failed".into()).retryable());
        assert!(!ApiError::UnsupportedWireVersion { version: 9 }.retryable());
    }

    #[test]
    fn api_error_serde_preserves_retryable_partition() {
        let errors = [
            ApiError::DeadlineExceeded { id: 1 },
            ApiError::UnknownProcedure("x".into()),
            ApiError::InvalidRequest("bad".into()),
            ApiError::Killed { id: 2 },
            ApiError::WaitTimeout { id: 3 },
            ApiError::Coordination("lost".into()),
            ApiError::ShuttingDown,
            ApiError::Admin("failed".into()),
            ApiError::UnsupportedWireVersion { version: 9 },
            ApiError::Transport("reset".into()),
        ];
        for err in errors {
            let bytes = serde_json::to_vec(&err).unwrap();
            let back: ApiError = serde_json::from_slice(&bytes).unwrap();
            assert_eq!(back, err);
            assert_eq!(back.retryable(), err.retryable());
        }
    }

    /// Reserved-variant contract: a v1 server may still send it, so the
    /// exact wire form must keep decoding, displaying and classifying.
    #[test]
    fn reserved_lease_expired_still_decodes_and_is_retryable() {
        let wire = br#"{"LeaseExpired":{"observer":3}}"#;
        let err: ApiError = serde_json::from_slice(wire).unwrap();
        assert_eq!(err, ApiError::LeaseExpired { observer: 3 });
        assert!(err.retryable());
        assert!(err.to_string().contains('3'));
        assert_eq!(serde_json::to_vec(&err).unwrap(), wire);
    }

    #[test]
    fn wire_error_lifts_typed() {
        let e: ApiError = crate::msg::WireError::UnsupportedVersion(7).into();
        assert_eq!(e, ApiError::UnsupportedWireVersion { version: 7 });
        assert!(!e.retryable());
        let e: ApiError = crate::msg::WireError::Malformed("junk".into()).into();
        assert!(matches!(e, ApiError::InvalidRequest(_)));
    }

    #[test]
    fn outcome_lifts_abort_codes() {
        let mut rec = TxnRecord::new(9, "spawnVM", vec![], 0);
        rec.state = TxnState::Aborted;
        rec.abort_code = Some(AbortCode::DeadlineExpired);
        let out = outcome_of(9, &rec);
        let err = out.api_error().expect("typed error");
        assert_eq!(err, ApiError::DeadlineExceeded { id: 9 });
        assert!(!err.retryable());

        rec.abort_code = None;
        rec.error = Some("no capacity".into());
        assert_eq!(
            outcome_of(9, &rec).api_error(),
            None,
            "logic aborts are not API errors"
        );
    }

    #[test]
    fn request_builder_lowers_to_wire_msg() {
        let req = TxnRequest::new("spawnVM")
            .arg("vm1")
            .args(vec![Value::Int(2_048)])
            .priority(Priority::Batch)
            .deadline(Duration::from_millis(500))
            .idempotency_key("k")
            .label("tenant", "acme");
        assert_eq!(req.proc_name(), "spawnVM");
        assert_eq!(req.priority_lane(), Priority::Batch);
        let (msg, deadline) = req.into_msg(3, 1_000).unwrap();
        assert_eq!(deadline, Some(1_500));
        match msg {
            InputMsg::Submit {
                id,
                proc_name,
                args,
                priority,
                deadline_ms,
                idempotency_key,
                labels,
                submitted_ms,
            } => {
                assert_eq!((id, submitted_ms), (3, 1_000));
                assert_eq!(proc_name, "spawnVM");
                assert_eq!(args, vec![Value::from("vm1"), Value::Int(2_048)]);
                assert_eq!(priority, Priority::Batch);
                assert_eq!(deadline_ms, Some(1_500));
                assert_eq!(idempotency_key.as_deref(), Some("k"));
                assert_eq!(labels.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn txn_request_serde_roundtrip() {
        let req = TxnRequest::new("spawnVM")
            .arg("vm1")
            .priority(Priority::High)
            .deadline(Duration::from_millis(750))
            .idempotency_key("k")
            .label("tenant", "acme");
        let bytes = serde_json::to_vec(&req).unwrap();
        let back: TxnRequest = serde_json::from_slice(&bytes).unwrap();
        let (msg_a, dl_a) = req.into_msg(5, 1_000).unwrap();
        let (msg_b, dl_b) = back.into_msg(5, 1_000).unwrap();
        assert_eq!(dl_a, dl_b);
        assert_eq!(
            crate::codec::encode_input(msg_a),
            crate::codec::encode_input(msg_b),
            "wire roundtrip lowers to the identical queue message"
        );
    }

    #[test]
    fn absolute_deadline_overrides_relative() {
        let req = TxnRequest::new("p")
            .deadline(Duration::from_secs(10))
            .deadline_at(42);
        let (_, deadline) = req.into_msg(1, 1_000).unwrap();
        assert_eq!(deadline, Some(42));
    }

    #[test]
    fn empty_proc_name_is_invalid() {
        let err = TxnRequest::new("").into_msg(1, 0).unwrap_err();
        assert!(matches!(err, ApiError::InvalidRequest(_)));
        assert!(!err.retryable());
    }
}
