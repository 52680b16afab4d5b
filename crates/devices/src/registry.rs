//! The device registry: routes physical actions and assembles the physical
//! data model.
//!
//! Workers resolve every execution-log record's object path to a device
//! through the registry (paper §3.2). Reconciliation asks the registry for
//! the full physical tree — the "frame" of non-device nodes (roots such as
//! `/vmRoot`) plus each device's exported subtree (paper §4).

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::RwLock;
use tropic_model::{Path, Tree};

use crate::api::{ActionCall, Device, NOOP_ACTION};
use crate::error::{DeviceError, DeviceResult};
use crate::fault::FaultStats;
use crate::report::{ReportLedger, ReportSender, StateReport};

/// Routes action calls to devices and exports the physical layer's state.
pub struct DeviceRegistry {
    /// Non-device scaffolding of the data model (e.g. `/vmRoot` nodes).
    frame: RwLock<Tree>,
    devices: RwLock<BTreeMap<Path, Arc<dyn Device>>>,
}

impl DeviceRegistry {
    /// Creates a registry whose physical tree starts from `frame` — the
    /// nodes *above* the device mounts.
    pub fn new(frame: Tree) -> Self {
        DeviceRegistry {
            frame: RwLock::new(frame),
            devices: RwLock::new(BTreeMap::new()),
        }
    }

    /// Registers a device at its mount path.
    pub fn register(&self, device: Arc<dyn Device>) {
        self.devices.write().insert(device.mount().clone(), device);
    }

    /// Removes (decommissions) the device mounted at `mount`.
    pub fn deregister(&self, mount: &Path) -> Option<Arc<dyn Device>> {
        self.devices.write().remove(mount)
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.read().len()
    }

    /// Returns `true` if no devices are registered.
    pub fn is_empty(&self) -> bool {
        self.devices.read().is_empty()
    }

    /// Finds the device owning `object`: the registered mount that equals or
    /// is an ancestor of the path.
    pub fn resolve(&self, object: &Path) -> Option<Arc<dyn Device>> {
        let devices = self.devices.read();
        // Longest matching mount wins (mounts may nest in exotic setups).
        devices
            .iter()
            .filter(|(mount, _)| mount.contains(object))
            .max_by_key(|(mount, _)| mount.depth())
            .map(|(_, d)| Arc::clone(d))
    }

    /// Routes one action call to its device.
    ///
    /// The reserved [`NOOP_ACTION`] succeeds without touching any device —
    /// it is the universal undo of twin-scheduled repairs and must succeed
    /// even when the object's device is down or decommissioned.
    pub fn invoke(&self, call: &ActionCall) -> DeviceResult<()> {
        if call.action == NOOP_ACTION {
            return Ok(());
        }
        let device = self
            .resolve(&call.object)
            .ok_or_else(|| DeviceError::NoSuchObject(call.object.clone()))?;
        device.invoke(call)
    }

    /// Mounts of all registered devices.
    pub fn mounts(&self) -> Vec<Path> {
        self.devices.read().keys().cloned().collect()
    }

    /// Fleet-wide fault-injection counters: the sum of every registered
    /// device's [`FaultPlan`](crate::FaultPlan) counters. The platform
    /// surfaces this through its counter snapshot so operators and the
    /// chaos harness can attribute aborts to injected faults.
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for device in self.devices.read().values() {
            total.merge(device.fault_plan().stats());
        }
        total
    }

    /// Assembles the current physical tree: the frame plus every device's
    /// exported state. Devices whose mount's parent is missing from the
    /// frame are skipped (they were registered without scaffolding).
    pub fn physical_tree(&self) -> Tree {
        let mut tree = self.frame.read().clone();
        for (mount, device) in self.devices.read().iter() {
            let node = device.export_state();
            if tree.exists(mount) {
                let _ = tree.replace(mount, node);
            } else if mount
                .parent()
                .map(|parent| tree.exists(&parent))
                .unwrap_or(false)
            {
                let _ = tree.insert(mount, node);
            }
        }
        tree
    }

    /// Publishes a [`StateReport`] for every device whose exported state or
    /// down flag changed since the last call with the same `ledger`.
    ///
    /// This is the reported-state ingestion hook of the digital twin: the
    /// platform's report pump calls it periodically, the `ledger` suppresses
    /// unchanged mounts (quiescent fleets publish nothing), and each
    /// published report carries the per-mount monotonic `seq` the ledger
    /// hands out. Returns the number of reports published.
    pub fn publish_reports(
        &self,
        ledger: &ReportLedger,
        sender: &ReportSender,
        now_ms: u64,
    ) -> usize {
        let mut published = 0;
        for (mount, device) in self.devices.read().iter() {
            let state = device.export_state();
            let down = device.fault_plan().is_down();
            let fingerprint = report_fingerprint(&state, down);
            if let Some(seq) = ledger.advance(mount, fingerprint) {
                sender.send(StateReport {
                    mount: mount.clone(),
                    state,
                    down,
                    seq,
                    at_ms: now_ms,
                });
                published += 1;
            }
        }
        published
    }
}

/// Stable fingerprint of an exported `(state, down)` pair, used by the
/// report ledger to detect change. Hashes the canonical JSON encoding so it
/// only depends on the state's value, not on in-memory layout.
fn report_fingerprint(state: &tropic_model::Node, down: bool) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    // analyze:allow(json-edge): hashes canonical text; nothing is stored
    match serde_json::to_string(state) {
        Ok(json) => json.hash(&mut hasher),
        Err(_) => "unencodable".hash(&mut hasher),
    }
    down.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::ComputeServer;
    use crate::latency::LatencyModel;
    use crate::storage::StorageServer;
    use tropic_model::{Node, Value};

    fn frame() -> Tree {
        let mut t = Tree::new();
        t.insert(&Path::parse("/vmRoot").unwrap(), Node::new("vmRoot"))
            .unwrap();
        t.insert(
            &Path::parse("/storageRoot").unwrap(),
            Node::new("storageRoot"),
        )
        .unwrap();
        t
    }

    fn registry() -> DeviceRegistry {
        let reg = DeviceRegistry::new(frame());
        reg.register(Arc::new(ComputeServer::new(
            Path::parse("/vmRoot/h1").unwrap(),
            "xen",
            32768,
            LatencyModel::zero(),
        )));
        let storage = StorageServer::new(
            Path::parse("/storageRoot/s1").unwrap(),
            100_000,
            LatencyModel::zero(),
        );
        storage.install_template("tmpl", 4096);
        reg.register(Arc::new(storage));
        reg
    }

    #[test]
    fn resolve_by_mount_and_descendant() {
        let reg = registry();
        let h1 = Path::parse("/vmRoot/h1").unwrap();
        assert_eq!(reg.resolve(&h1).unwrap().name(), "h1");
        // A descendant object (a VM under the host) routes to the host.
        let vm = Path::parse("/vmRoot/h1/vm1").unwrap();
        assert_eq!(reg.resolve(&vm).unwrap().name(), "h1");
        assert!(reg.resolve(&Path::parse("/vmRoot/h2").unwrap()).is_none());
    }

    #[test]
    fn invoke_routes_to_device() {
        let reg = registry();
        let s1 = Path::parse("/storageRoot/s1").unwrap();
        reg.invoke(&ActionCall::new(
            s1.clone(),
            "cloneImage",
            vec!["tmpl".into(), "img".into()],
        ))
        .unwrap();
        let err = reg
            .invoke(&ActionCall::new(
                Path::parse("/storageRoot/ghost").unwrap(),
                "cloneImage",
                vec!["tmpl".into(), "img".into()],
            ))
            .unwrap_err();
        assert!(matches!(err, DeviceError::NoSuchObject(_)));
    }

    #[test]
    fn physical_tree_includes_device_state() {
        let reg = registry();
        let h1 = Path::parse("/vmRoot/h1").unwrap();
        reg.invoke(&ActionCall::new(
            h1.clone(),
            "importImage",
            vec!["img".into()],
        ))
        .unwrap();
        reg.invoke(&ActionCall::new(
            h1.clone(),
            "createVM",
            vec!["vm1".into(), "img".into(), Value::Int(1024)],
        ))
        .unwrap();
        let tree = reg.physical_tree();
        assert_eq!(tree.get(&h1).unwrap().entity(), "vmHost");
        assert!(tree.exists(&Path::parse("/vmRoot/h1/vm1").unwrap()));
        assert!(tree.exists(&Path::parse("/storageRoot/s1/tmpl").unwrap()));
    }

    #[test]
    fn deregister_decommissions() {
        let reg = registry();
        assert_eq!(reg.len(), 2);
        let h1 = Path::parse("/vmRoot/h1").unwrap();
        assert!(reg.deregister(&h1).is_some());
        assert_eq!(reg.len(), 1);
        assert!(reg.resolve(&h1).is_none());
        // The physical tree no longer mounts the host.
        assert!(!reg.physical_tree().exists(&h1));
    }

    #[test]
    fn fault_stats_aggregate_across_devices() {
        let reg = registry();
        let h1 = Path::parse("/vmRoot/h1").unwrap();
        let s1 = Path::parse("/storageRoot/s1").unwrap();
        reg.resolve(&h1)
            .unwrap()
            .fault_plan()
            .fail_once("importImage");
        // One injected failure on the compute host, one pass on storage.
        assert!(reg
            .invoke(&ActionCall::new(h1, "importImage", vec!["img".into()]))
            .is_err());
        reg.invoke(&ActionCall::new(
            s1,
            "cloneImage",
            vec!["tmpl".into(), "img2".into()],
        ))
        .unwrap();
        let stats = reg.fault_stats();
        assert_eq!(stats.injected, 1);
        assert_eq!(stats.passed, 1);
        assert_eq!(stats.total(), 2);
    }

    #[test]
    fn noop_action_bypasses_devices() {
        let reg = registry();
        // Succeeds on a real device without rolling its fault plan...
        reg.resolve(&Path::parse("/vmRoot/h1").unwrap())
            .unwrap()
            .fault_plan()
            .set_down(true);
        reg.invoke(&ActionCall::new(
            Path::parse("/vmRoot/h1").unwrap(),
            NOOP_ACTION,
            vec![],
        ))
        .unwrap();
        // ...and even on objects no device owns.
        reg.invoke(&ActionCall::new(
            Path::parse("/vmRoot/ghost").unwrap(),
            NOOP_ACTION,
            vec![],
        ))
        .unwrap();
        assert_eq!(reg.fault_stats().total(), 0);
    }

    #[test]
    fn publish_reports_dedups_and_tracks_down() {
        use crate::report::{report_channel, ReportLedger};
        let reg = registry();
        let ledger = ReportLedger::new();
        let (tx, rx) = report_channel();
        // First sweep reports every device.
        assert_eq!(reg.publish_reports(&ledger, &tx, 10), 2);
        let first = rx.drain();
        assert_eq!(first.len(), 2);
        assert!(first.iter().all(|r| r.seq == 1 && !r.down));
        // Quiescent fleet: nothing new.
        assert_eq!(reg.publish_reports(&ledger, &tx, 20), 0);
        assert!(rx.drain().is_empty());
        // A fault-driven transition (device down) is itself a report.
        let h1 = Path::parse("/vmRoot/h1").unwrap();
        reg.resolve(&h1).unwrap().fault_plan().set_down(true);
        assert_eq!(reg.publish_reports(&ledger, &tx, 30), 1);
        let down = rx.drain();
        assert_eq!(down.len(), 1);
        assert_eq!(down[0].mount, h1);
        assert!(down[0].down);
        assert_eq!(down[0].seq, 2);
        assert_eq!(down[0].at_ms, 30);
        // Out-of-band state change is detected too.
        reg.resolve(&h1).unwrap().fault_plan().set_down(false);
        reg.invoke(&ActionCall::new(
            h1.clone(),
            "importImage",
            vec!["img".into()],
        ))
        .unwrap();
        assert_eq!(reg.publish_reports(&ledger, &tx, 40), 1);
        let changed = rx.drain();
        assert_eq!(changed[0].seq, 3);
        assert!(!changed[0].down);
    }
}
