//! # tropic-core
//!
//! The TROPIC transactional resource-orchestration platform (Liu, Mao,
//! Chen, Fernández, Loo, Van der Merwe — USENIX ATC 2012), reproduced in
//! Rust.
//!
//! Orchestration procedures execute as ACID transactions over a
//! hierarchical data model:
//!
//! * **Atomicity** — execution logs with per-action undo; physical failures
//!   roll back in reverse order ([`physical`]).
//! * **Consistency** — integrity constraints checked after every simulated
//!   action in the logical layer ([`logical`], [`proc`]).
//! * **Isolation** — hierarchical R/W/IR/IW locking with constraint read
//!   locks ([`locks`]).
//! * **Durability** — every transaction state transition persists in the
//!   replicated coordination store before the step it enables
//!   ([`controller`]).
//!
//! The platform runs replicated controllers behind quorum leader election;
//! failover recovers the leader's state from persistent storage without
//! losing transactions ([`Tropic`]). Cross-layer drift caused by volatile
//! resources is reconciled with `repair` and `reload` ([`reconcile`]), and
//! stalled transactions are TERMed/KILLed ([`msg::Signal`]).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod actions;
pub mod api;
pub mod config;
pub mod controller;
pub mod error;
pub mod locks;
pub mod logical;
pub mod msg;
pub mod physical;
pub mod proc;
pub mod reconcile;
pub mod rpc;
pub mod stats;
pub mod twin;
pub mod txn;
pub mod worker;

mod platform;
mod retention;

pub use actions::{ActionDef, ActionRegistry, UndoSpec};
pub use api::{
    AbortCode, AdminClient, ApiError, Priority, Subscription, TxnEvent, TxnHandle, TxnRequest,
};
pub use config::{PlatformConfig, RpcConfig, ServiceDefinition, TwinConfig};
pub use controller::{Checkpoint, Controller, ControllerConfig};
pub use error::{PlatformError, ProcError};
pub use locks::{with_intentions, LockConflict, LockManager, LockMode, LockRequest};
pub use logical::{rollback_logical, simulate, LogicalOutcome};
pub use msg::{
    decode_input, encode_input, layout, AdminResult, Envelope, InputMsg, PhyTask, Signal,
    WireError, WIRE_VERSION,
};
pub use physical::{execute_physical, ExecMode, PhysicalOutcome};
pub use platform::{Tropic, TropicClient};
pub use proc::{FnProcedure, ProcRegistry, StoredProcedure, TxnContext};
pub use reconcile::{RepairPlan, RepairRules};
pub use rpc::{RemoteAdmin, RemoteClient, RemoteHandle, RemoteSubscription, RpcServer};
pub use stats::{Counters, Event, Metrics, TxnSample};
pub use twin::{
    backoff_delay_ms, drift_fingerprint, DriftObservation, TwinEvent, TwinFeed, TwinPhase,
    TwinSubscription, TwinTracker, TWIN_REPAIR_PROC,
};
pub use txn::{format_execution_log, LogRecord, TxnAlias, TxnId, TxnOutcome, TxnRecord, TxnState};
pub use worker::run_worker;
