//! # tropic-model
//!
//! The hierarchical, semi-structured data model underlying TROPIC
//! (Liu et al., *TROPIC: Transactional Resource Orchestration Platform In
//! the Cloud*, USENIX ATC 2012), plus shared primitives (clock, errors).
//!
//! The model is a tree of [`Node`]s addressed by [`Path`]s. Each node is an
//! instance of an *entity* (a compute server, a VM, a storage volume). The
//! controller's logical layer and the workers' physical layer each hold a
//! [`Tree`] of the same shape; [`Tree::diff`] powers reconciliation between
//! them. Safety rules are [`Constraint`]s anchored at entity types and
//! enforced by the logical layer before any device is touched.
//!
//! ```
//! use tropic_model::{Node, Path, Tree};
//!
//! let mut tree = Tree::new();
//! tree.insert(&Path::parse("/vmRoot").unwrap(), Node::new("vmRoot")).unwrap();
//! tree.insert(
//!     &Path::parse("/vmRoot/host1").unwrap(),
//!     Node::new("vmHost").with_attr("memCapacity", 32768i64),
//! ).unwrap();
//! assert_eq!(tree.node_count(), 3);
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod clock;
pub mod constraint;
pub mod error;
pub mod node;
pub mod path;
pub mod schema;
pub mod tree;
pub mod value;

pub use clock::{real_clock, Clock, ManualClock, RealClock, SharedClock, Wake};
pub use constraint::{Constraint, ConstraintSet, ConstraintViolation, FnConstraint};
pub use error::{ModelError, ModelResult};
pub use node::Node;
pub use path::Path;
pub use schema::{AttrSchema, AttrType, EntitySchema, SchemaRegistry};
pub use tree::{DiffEntry, Tree};
pub use value::Value;
