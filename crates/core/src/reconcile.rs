//! Reconciliation between the logical and physical layers (paper §4).
//!
//! TROPIC embraces eventual consistency between layers: `repair` pushes the
//! logical layer's view onto drifted devices, `reload` pulls device state
//! into the logical layer. Both run as transactions whose physical half is a
//! worker's: a repair attempt's worker plans against fresh device state and
//! runs the plan ([`crate::physical`]), a reload's worker retrieves its
//! scope, and the controller only absorbs what they report — it reads no
//! device. This module holds the *repair planning* half — rules that
//! translate tree diffs into corrective device calls.

use std::collections::BTreeSet;
use std::sync::Arc;

use tropic_devices::ActionCall;
use tropic_model::{DiffEntry, Path, Tree};

/// A rule translating one logical-vs-physical difference into corrective
/// physical actions. Diffs are reported with `left` = logical layer,
/// `right` = physical layer; repair drives the physical layer toward
/// `left`.
pub type RepairRuleFn = dyn Fn(&DiffEntry, &Tree) -> Vec<ActionCall> + Send + Sync;

/// An ordered collection of repair rules. The first rule producing actions
/// for a diff entry wins.
#[derive(Clone, Default)]
pub struct RepairRules {
    rules: Vec<Arc<RepairRuleFn>>,
}

impl RepairRules {
    /// Creates an empty rule set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a rule.
    pub fn register(
        &mut self,
        rule: impl Fn(&DiffEntry, &Tree) -> Vec<ActionCall> + Send + Sync + 'static,
    ) {
        self.rules.push(Arc::new(rule));
    }

    /// Number of registered rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if no rules are registered.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Plans the corrective actions for a set of diffs against the logical
    /// tree. Unmatched diffs are returned too, so the operator can see what
    /// repair cannot fix (those need `reload` or manual intervention).
    pub fn plan(&self, diffs: &[DiffEntry], logical: &Tree) -> RepairPlan {
        let mut actions = Vec::new();
        let mut unmatched = Vec::new();
        for diff in diffs {
            let mut produced = false;
            for rule in &self.rules {
                let calls = rule(diff, logical);
                if !calls.is_empty() {
                    actions.extend(calls);
                    produced = true;
                    break;
                }
            }
            if !produced {
                unmatched.push(diff.clone());
            }
        }
        RepairPlan { actions, unmatched }
    }
}

/// The outcome of repair planning.
#[derive(Clone, Debug, Default)]
pub struct RepairPlan {
    /// Corrective device calls, in rule order.
    pub actions: Vec<ActionCall>,
    /// Diffs no rule could translate.
    pub unmatched: Vec<DiffEntry>,
}

/// The `drifted` count operators see: distinct paths a diff touches.
pub(crate) fn distinct_paths(diffs: &[DiffEntry]) -> usize {
    let paths: BTreeSet<&Path> = diffs.iter().map(DiffEntry::path).collect();
    paths.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tropic_model::{Node, Path, Value};

    fn logical() -> Tree {
        let mut t = Tree::new();
        t.insert(&Path::parse("/vmRoot").unwrap(), Node::new("vmRoot"))
            .unwrap();
        t.insert(&Path::parse("/vmRoot/h1").unwrap(), Node::new("vmHost"))
            .unwrap();
        t.insert(
            &Path::parse("/vmRoot/h1/vm1").unwrap(),
            Node::new("vm").with_attr("state", "running"),
        )
        .unwrap();
        t
    }

    /// The paper's §4 example: a compute server rebooted, VMs show
    /// "stopped" physically but "running" logically → repair starts them.
    fn start_vm_rule() -> RepairRules {
        let mut rules = RepairRules::new();
        rules.register(|diff, logical| {
            let DiffEntry::AttrChanged {
                path,
                attr,
                left,
                right,
            } = diff
            else {
                return Vec::new();
            };
            if attr != "state"
                || left.as_ref().and_then(Value::as_str) != Some("running")
                || right.as_ref().and_then(Value::as_str) != Some("stopped")
            {
                return Vec::new();
            }
            if logical.get(path).map(|n| n.entity()) != Some("vm") {
                return Vec::new();
            }
            let host = path.parent().expect("vm under host");
            let vm = path.leaf().expect("named").to_owned();
            vec![ActionCall::new(host, "startVM", vec![Value::from(vm)])]
        });
        rules
    }

    #[test]
    fn plan_translates_matching_diff() {
        let rules = start_vm_rule();
        let diffs = vec![DiffEntry::AttrChanged {
            path: Path::parse("/vmRoot/h1/vm1").unwrap(),
            attr: "state".into(),
            left: Some(Value::from("running")),
            right: Some(Value::from("stopped")),
        }];
        let plan = rules.plan(&diffs, &logical());
        assert_eq!(plan.actions.len(), 1);
        assert_eq!(plan.actions[0].action, "startVM");
        assert_eq!(plan.actions[0].object, Path::parse("/vmRoot/h1").unwrap());
        assert!(plan.unmatched.is_empty());
    }

    #[test]
    fn unmatched_diffs_reported() {
        let rules = start_vm_rule();
        let diffs = vec![DiffEntry::NodeRemoved {
            path: Path::parse("/vmRoot/h1/vm9").unwrap(),
            entity: "vm".into(),
        }];
        let plan = rules.plan(&diffs, &logical());
        assert!(plan.actions.is_empty());
        assert_eq!(plan.unmatched.len(), 1);
    }

    #[test]
    fn first_matching_rule_wins() {
        let mut rules = start_vm_rule();
        // A later rule that would also match never fires.
        rules.register(|_, _| vec![ActionCall::new(Path::root(), "shouldNotRun", vec![])]);
        let diffs = vec![DiffEntry::AttrChanged {
            path: Path::parse("/vmRoot/h1/vm1").unwrap(),
            attr: "state".into(),
            left: Some(Value::from("running")),
            right: Some(Value::from("stopped")),
        }];
        let plan = rules.plan(&diffs, &logical());
        assert_eq!(plan.actions.len(), 1);
        assert_eq!(plan.actions[0].action, "startVM");
    }

    #[test]
    fn empty_rules_match_nothing() {
        let rules = RepairRules::new();
        assert!(rules.is_empty());
        let diffs = vec![DiffEntry::NodeAdded {
            path: Path::root(),
            entity: "root".into(),
        }];
        let plan = rules.plan(&diffs, &logical());
        assert_eq!(plan.unmatched.len(), 1);
    }
}
