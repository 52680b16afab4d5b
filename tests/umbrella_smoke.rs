//! Smoke test for the umbrella crate: the `tropic::{model, coord, devices,
//! core, tcloud, workload}` re-export surface must compile, and a one-txn
//! typed-API round trip must commit.

use std::time::Duration;

use tropic::core::{ExecMode, PlatformConfig, Tropic, TxnRequest, TxnState};
use tropic::tcloud::TopologySpec;

/// Touch one load-bearing type from every re-exported crate so a drifted
/// umbrella re-export breaks this test at compile time.
#[test]
fn reexport_surface_compiles() {
    let _path: tropic::model::Path = tropic::model::Path::parse("/vmRoot").unwrap();
    let _node: tropic::model::Node = tropic::model::Node::new("vmRoot");
    let _tree: tropic::model::Tree = tropic::model::Tree::new();
    let _coord_cfg: tropic::coord::CoordConfig = tropic::coord::CoordConfig::default();
    let _latency: tropic::devices::LatencyModel = tropic::devices::LatencyModel::zero();
    let _platform_cfg: tropic::core::PlatformConfig = PlatformConfig::default();
    let _spec: tropic::tcloud::TopologySpec = TopologySpec::default();
    let _trace: tropic::workload::Ec2Trace = tropic::workload::Ec2TraceSpec::default().generate();
    let _req: tropic::core::TxnRequest = TxnRequest::new("spawnVM");
    let _prio: tropic::core::Priority = tropic::core::Priority::default();
    let _err: Option<tropic::core::ApiError> = None;
}

/// One spawnVM transaction through a real (simulated-device) platform,
/// via the typed request/handle API.
#[test]
fn one_txn_typed_round_trip() {
    let spec = TopologySpec {
        compute_hosts: 2,
        storage_hosts: 1,
        routers: 0,
        ..Default::default()
    };
    let devices = spec.build_devices(&tropic::devices::LatencyModel::zero());
    let platform = Tropic::start(
        PlatformConfig {
            controllers: 1,
            ..Default::default()
        },
        spec.service(),
        ExecMode::Physical(devices.registry.clone()),
    );
    let client = platform.client();
    let outcome = client
        .submit_request(TxnRequest::new("spawnVM").args(spec.spawn_args("web1", 0, 2_048)))
        .expect("platform reachable")
        .wait_timeout(Duration::from_secs(30))
        .expect("outcome");
    assert_eq!(
        outcome.state,
        TxnState::Committed,
        "error: {:?}",
        outcome.error
    );
    platform.shutdown();
}
