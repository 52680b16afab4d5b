//! Error types for the coordination service.

use std::fmt;

use tropic_model::Path;

/// Errors returned by coordination-service operations.
///
/// The variants mirror the ZooKeeper client error codes TROPIC relies on
/// (paper §5): `NoNode`/`NodeExists`/`BadVersion` drive the queue and
/// election recipes, `SessionExpired` drives controller failover, and
/// `NoQuorum` surfaces ensemble unavailability.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordError {
    /// The referenced znode does not exist.
    NoNode(Path),
    /// A znode already exists at the path.
    NodeExists(Path),
    /// The parent of a znode being created does not exist.
    NoParent(Path),
    /// A compare-and-swap failed because the caller's version was stale.
    BadVersion {
        /// Path of the znode.
        path: Path,
        /// Version the caller expected.
        expected: u64,
        /// Version actually stored.
        actual: u64,
    },
    /// The znode still has children and cannot be deleted.
    NotEmpty(Path),
    /// Ephemeral znodes cannot have children (ZooKeeper semantics).
    EphemeralParent(Path),
    /// The client's session has expired; its ephemeral nodes are gone.
    SessionExpired,
    /// Fewer than a quorum of replicas acknowledged the operation.
    NoQuorum {
        /// Acknowledgements received.
        acks: usize,
        /// Quorum size required.
        needed: usize,
    },
    /// The whole ensemble is down.
    Unavailable,
    /// A sub-operation of an atomic batch failed; none of the batch was
    /// applied.
    MultiFailed {
        /// Index of the failing sub-operation within the batch.
        index: usize,
        /// Why that sub-operation failed.
        cause: Box<CoordError>,
    },
    /// Atomic batches cannot contain other batches.
    NestedMulti,
    /// The serving replica could not persist the write (WAL append, fsync,
    /// or snapshot I/O failed). The replica fail-stops rather than ack a
    /// write it cannot make durable.
    Durability(String),
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::NoNode(p) => write!(f, "no node at {p}"),
            CoordError::NodeExists(p) => write!(f, "node already exists at {p}"),
            CoordError::NoParent(p) => write!(f, "parent missing for {p}"),
            CoordError::BadVersion {
                path,
                expected,
                actual,
            } => write!(
                f,
                "bad version at {path}: expected {expected}, actual {actual}"
            ),
            CoordError::NotEmpty(p) => write!(f, "node at {p} has children"),
            CoordError::EphemeralParent(p) => {
                write!(f, "ephemeral node at {p} cannot have children")
            }
            CoordError::SessionExpired => write!(f, "session expired"),
            CoordError::NoQuorum { acks, needed } => {
                write!(f, "no quorum: {acks} acks, {needed} needed")
            }
            CoordError::Unavailable => write!(f, "coordination service unavailable"),
            CoordError::MultiFailed { index, cause } => {
                write!(f, "multi op #{index} failed ({cause}); batch not applied")
            }
            CoordError::NestedMulti => write!(f, "multi ops cannot nest"),
            CoordError::Durability(e) => write!(f, "durability failure: {e}"),
        }
    }
}

impl std::error::Error for CoordError {}

/// Convenience alias for coordination results.
pub type CoordResult<T> = Result<T, CoordError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let p = Path::parse("/tropic/txns").unwrap();
        assert!(CoordError::NoNode(p.clone())
            .to_string()
            .contains("/tropic/txns"));
        assert!(CoordError::BadVersion {
            path: p,
            expected: 1,
            actual: 2
        }
        .to_string()
        .contains("expected 1"));
        assert!(CoordError::NoQuorum { acks: 1, needed: 2 }
            .to_string()
            .contains("quorum"));
    }
}
