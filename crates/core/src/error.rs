//! Error types for the orchestration platform.

use std::fmt;

use tropic_model::{ConstraintViolation, ModelError, Path};

/// Errors surfaced while executing a stored procedure in the logical layer.
///
/// The variants map onto the paper's Figure-2 outcomes: a `Conflict` defers
/// the transaction (3B), a `Violation` or `Logic` error aborts it (3A).
#[derive(Debug, Clone, PartialEq)]
pub enum ProcError {
    /// A lock conflict with an outstanding transaction (paper 3B). The
    /// transaction is rolled back logically and retried later.
    Conflict(Path),
    /// A safety-constraint violation (paper 3A). The transaction aborts.
    Violation(ConstraintViolation),
    /// A procedure-level error: bad arguments, no capacity found, unknown
    /// action, or an action's logical effect failed. The transaction aborts.
    Logic(String),
    /// The procedure touched a subtree marked cross-layer inconsistent
    /// (paper §4): denied until reconciliation clears the marker.
    Inconsistent(Path),
    /// A data-model error while simulating.
    Model(ModelError),
}

impl fmt::Display for ProcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcError::Conflict(p) => write!(f, "resource conflict at {p}"),
            ProcError::Violation(v) => write!(f, "{v}"),
            ProcError::Logic(s) => write!(f, "{s}"),
            ProcError::Inconsistent(p) => {
                write!(f, "resource at {p} is marked inconsistent; reconcile first")
            }
            ProcError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ProcError {}

impl From<ModelError> for ProcError {
    fn from(e: ModelError) -> Self {
        ProcError::Model(e)
    }
}

impl From<ConstraintViolation> for ProcError {
    fn from(v: ConstraintViolation) -> Self {
        ProcError::Violation(v)
    }
}

/// Platform-level errors returned to clients and operators.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// The coordination service failed or lost quorum.
    Coord(String),
    /// The named stored procedure is not registered.
    UnknownProcedure(String),
    /// Waiting for a transaction outcome timed out.
    Timeout,
    /// The platform is shutting down.
    ShuttingDown,
    /// An administrative operation (repair/reload) failed.
    Admin(String),
    /// The coordination store holds state in a layout this version does
    /// not recover from; the znode names it. Recovering anyway would drop
    /// every committed effect it holds.
    IncompatibleStore(Path),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Coord(s) => write!(f, "coordination error: {s}"),
            PlatformError::UnknownProcedure(name) => write!(f, "unknown procedure: {name}"),
            PlatformError::Timeout => write!(f, "timed out waiting for transaction outcome"),
            PlatformError::ShuttingDown => write!(f, "platform is shutting down"),
            PlatformError::Admin(s) => write!(f, "admin operation failed: {s}"),
            PlatformError::IncompatibleStore(z) => {
                write!(f, "store holds an earlier version's {z}")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<tropic_coord::CoordError> for PlatformError {
    fn from(e: tropic_coord::CoordError) -> Self {
        PlatformError::Coord(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_error_display() {
        let p = Path::parse("/vmRoot/h1").unwrap();
        assert!(ProcError::Conflict(p.clone())
            .to_string()
            .contains("conflict"));
        assert!(ProcError::Inconsistent(p).to_string().contains("reconcile"));
        assert!(ProcError::Logic("no host".into())
            .to_string()
            .contains("no host"));
    }

    #[test]
    fn conversions() {
        let m: ProcError = ModelError::RootImmutable.into();
        assert!(matches!(m, ProcError::Model(_)));
        let v: ProcError = ConstraintViolation {
            constraint: "c".into(),
            path: Path::root(),
            message: "m".into(),
        }
        .into();
        assert!(matches!(v, ProcError::Violation(_)));
    }

    #[test]
    fn platform_error_display() {
        assert!(PlatformError::UnknownProcedure("spawn".into())
            .to_string()
            .contains("spawn"));
        assert!(PlatformError::Timeout.to_string().contains("timed out"));
    }
}
