//! # tropic-coord
//!
//! A replicated coordination service standing in for ZooKeeper in the
//! TROPIC reproduction (paper §2.3, §5). It provides the four primitives
//! TROPIC needs:
//!
//! * a **versioned znode store** with ephemeral and sequential nodes and
//!   one-shot watches ([`service::CoordClient`]),
//! * **durable FIFO queues** for `inputQ`/`phyQ` ([`queue::DistributedQueue`]),
//! * **quorum leader election** for the controllers
//!   ([`election::LeaderElection`]),
//! * **failure detection** through session expiry.
//!
//! Writes replicate through a leader-based totally-ordered broadcast over a
//! fault-injectable simulated network ([`ensemble::Ensemble`]); a write
//! commits once a strict majority acknowledges it. The configurable
//! [`service::CoordConfig::write_latency`] models ZooKeeper's logging I/O,
//! which the paper measures as the platform's dominant overhead (§6.1).
//!
//! ```
//! use tropic_coord::{CoordConfig, CoordService, CreateMode};
//! use tropic_model::Path;
//!
//! let svc = CoordService::start(CoordConfig::default());
//! let client = svc.connect("demo");
//! let path = Path::parse("/tropic/state").unwrap();
//! client.create_all(&path).unwrap();
//! client.set_data(&path, &b"ready"[..], None).unwrap();
//! assert!(client.exists(&path).unwrap());
//! # let _ = CreateMode::Persistent;
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod codec;
pub mod election;
pub mod ensemble;
pub mod error;
pub mod frame;
pub mod net;
pub mod queue;
pub mod service;
pub mod snapshot;
pub mod store;
pub mod testutil;
pub mod wal;

pub use election::LeaderElection;
pub use ensemble::{Ensemble, EnsembleStats};
pub use error::{CoordError, CoordResult};
pub use frame::{write_frame, FrameError, FrameReader, DEFAULT_MAX_FRAME_BYTES};
pub use net::{NodeId, SimNet};
pub use queue::DistributedQueue;
pub use service::{
    CoordClient, CoordConfig, CoordService, CreateMode, KeepAlive, ServiceStats, WatchKind,
};
pub use store::{Op, OpResult, Stat, StoreEvent, ZnodeStore};
pub use testutil::TempDir;
pub use wal::{Durability, DurabilityOptions, DurabilityStats};
