//! Platform and service configuration.

use tropic_coord::CoordConfig;
use tropic_model::{ConstraintSet, SchemaRegistry, Tree};

use crate::actions::ActionRegistry;
use crate::proc::ProcRegistry;
use crate::reconcile::RepairRules;

/// Everything a cloud service contributes to the platform: its data-model
/// schemas and initial topology, its action and procedure definitions, its
/// safety constraints, and its repair rules. The paper's TCloud (§5) is one
/// such service; `tropic-tcloud` builds its `ServiceDefinition`.
#[derive(Clone, Default)]
pub struct ServiceDefinition {
    /// Action definitions (logical effects + undo derivations).
    pub actions: ActionRegistry,
    /// Stored procedures.
    pub procs: ProcRegistry,
    /// Safety constraints.
    pub constraints: ConstraintSet,
    /// Repair rules mapping cross-layer diffs to corrective device calls.
    pub repair_rules: RepairRules,
    /// Entity schemas validating the data model.
    pub schemas: SchemaRegistry,
    /// The initial logical tree (the provisioned topology).
    pub initial_tree: Tree,
}

/// Configuration of the network RPC frontend ([`crate::rpc`]).
#[derive(Clone, Debug)]
pub struct RpcConfig {
    /// Socket address the listener binds; port `0` picks an ephemeral port
    /// (read the real one from [`crate::rpc::RpcServer::addr`]).
    pub addr: String,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            addr: "127.0.0.1:0".into(),
        }
    }
}

/// Configuration of the digital-twin reconciliation subsystem
/// ([`crate::twin`]).
#[derive(Clone, Debug)]
pub struct TwinConfig {
    /// Master switch. Off by default: the platform then behaves exactly as
    /// before — drift is only corrected by operator-triggered
    /// `repair`/`reload`.
    pub enabled: bool,
    /// How often the leading controller runs a reconciliation pass.
    pub interval_ms: u64,
    /// How often the report pump sweeps the device registry for changed
    /// reported state.
    pub report_interval_ms: u64,
    /// Base delay of the per-resource exponential backoff between repair
    /// attempts.
    pub backoff_base_ms: u64,
    /// Upper bound on the backoff delay (also the retry trickle period once
    /// a resource is `Degraded`).
    pub backoff_cap_ms: u64,
    /// Repair attempts against the same drift fingerprint before the
    /// resource escalates to `Degraded`.
    pub max_attempts: u32,
}

impl Default for TwinConfig {
    fn default() -> Self {
        TwinConfig {
            enabled: false,
            interval_ms: 50,
            report_interval_ms: 25,
            backoff_base_ms: 100,
            backoff_cap_ms: 5_000,
            max_attempts: 5,
        }
    }
}

impl TwinConfig {
    /// An enabled config with the default timing knobs.
    pub fn enabled() -> Self {
        TwinConfig {
            enabled: true,
            ..TwinConfig::default()
        }
    }
}

/// Platform-wide configuration.
#[derive(Clone, Debug)]
pub struct PlatformConfig {
    /// Number of controller replicas (the paper runs 3).
    pub controllers: usize,
    /// Number of physical workers.
    pub workers: usize,
    /// Coordination-service configuration.
    pub coord: CoordConfig,
    /// Send TERM to transactions running longer than this (paper §4).
    pub term_timeout_ms: Option<u64>,
    /// KILL transactions running longer than this (must exceed the TERM
    /// timeout to give graceful abort a chance).
    pub kill_timeout_ms: Option<u64>,
    /// Network RPC frontend settings, used by [`crate::Tropic::serve_rpc`].
    pub rpc: RpcConfig,
    /// Digital-twin reconciliation settings (disabled by default).
    pub twin: TwinConfig,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            controllers: 3,
            workers: 1,
            coord: CoordConfig::default(),
            term_timeout_ms: None,
            kill_timeout_ms: None,
            rpc: RpcConfig::default(),
            twin: TwinConfig::default(),
        }
    }
}

impl PlatformConfig {
    /// Makes the platform durable: the coordination store write-ahead-logs
    /// and snapshots under `dir`, so `Tropic::recover` with the same config
    /// resumes after a full shutdown with no acknowledged transaction lost.
    pub fn with_data_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.coord.data_dir = Some(dir.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_paper_deployment() {
        let cfg = PlatformConfig::default();
        assert_eq!(cfg.controllers, 3);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.coord.replicas, 3);
        assert!(cfg.term_timeout_ms.is_none());
        assert!(cfg.kill_timeout_ms.is_none());
    }

    #[test]
    fn with_data_dir_enables_durability() {
        let cfg = PlatformConfig::default();
        assert!(cfg.coord.data_dir.is_none(), "in-memory by default");
        let cfg = cfg.with_data_dir("/tmp/tropic-data");
        assert_eq!(
            cfg.coord.data_dir.as_deref(),
            Some(std::path::Path::new("/tmp/tropic-data"))
        );
    }

    #[test]
    fn rpc_defaults_bind_loopback_ephemeral() {
        let cfg = RpcConfig::default();
        assert_eq!(cfg.addr, "127.0.0.1:0");
    }

    #[test]
    fn twin_disabled_by_default() {
        let cfg = PlatformConfig::default();
        assert!(!cfg.twin.enabled, "twin must be opt-in");
        let twin = TwinConfig::enabled();
        assert!(twin.enabled);
        assert!(twin.backoff_cap_ms >= twin.backoff_base_ms);
        assert!(twin.max_attempts >= 1);
    }

    #[test]
    fn service_definition_default_is_empty() {
        let svc = ServiceDefinition::default();
        assert!(svc.actions.is_empty());
        assert!(svc.procs.is_empty());
        assert!(svc.constraints.is_empty());
        assert_eq!(svc.initial_tree.node_count(), 1);
    }
}
