//! Physical-layer execution: replaying execution logs on devices with
//! reverse-order undo on failure (paper §3.2), and the physical half of the
//! controller's own transactions — a repair attempt planned and run against
//! fresh device state, a reload's retrieval (paper §4). Only workers run
//! any of it: the controller reads and calls no device.

use std::sync::Arc;

use tropic_model::{Node, Path, Tree, Value};

use crate::msg::Signal;
use crate::reconcile::{distinct_paths, RepairRules};
use crate::twin::{RELOAD_PROC, TWIN_REPAIR_PROC};
use crate::txn::{LogRecord, TxnRecord};
use tropic_devices::{ActionCall, DeviceRegistry};

/// How workers execute transactions. Only workers (and the platform's
/// twin report pump) hold one; the controller needs no device handle.
#[derive(Clone)]
pub enum ExecMode {
    /// Bypass device calls entirely (paper §5's logical-only mode, used by
    /// the large-scale performance experiments).
    LogicalOnly,
    /// Execute against the simulated devices.
    Physical(Arc<DeviceRegistry>),
}

/// How a transaction's physical execution ended (paper §3.2).
#[derive(Clone, Debug, PartialEq)]
pub enum PhysicalOutcome {
    /// Every action succeeded.
    Committed,
    /// An action failed and every executed action was undone in reverse
    /// order; both layers can be made consistent.
    Aborted {
        /// 1-based sequence number of the failed action, or 0 when no
        /// action failed: a TERM signal, or a worker that cannot run the
        /// transaction at all (a repair or reload outside physical mode).
        failed_seq: usize,
        /// The failure (or signal) description.
        error: String,
    },
    /// An action failed *and* some undo action also failed: the physical
    /// layer is only partially rolled back. The controller marks
    /// `inconsistent_object` and its subtree inconsistent until repair
    /// (paper §3.2, §4).
    Failed {
        /// Sequence number of the originally failed action.
        failed_seq: usize,
        /// The original failure.
        error: String,
        /// Sequence number of the undo that failed.
        undo_failed_seq: usize,
        /// The undo failure.
        undo_error: String,
        /// Object whose physical state is now unknown.
        inconsistent_object: Path,
    },
    /// The worker observed a KILL signal and abandoned execution without
    /// undo; the controller has already aborted the transaction logically.
    Killed {
        /// Sequence number the worker had reached.
        reached_seq: usize,
    },
    /// A repair attempt ran: its worker planned `calls` against fresh
    /// device state, ran them best-effort, and re-diffed. The controller
    /// makes `calls` the record's log.
    Reconciled {
        /// The corrective calls planned, as best-effort no-op-undo records.
        calls: Vec<LogRecord>,
        /// Distinct paths that drifted before planning.
        drifted: u64,
        /// Diff entries left in the scope after the calls ran.
        remaining: u64,
        /// How many of those no repair rule matched.
        unmatched: u64,
    },
    /// A reload's retrieval: the devices' state at its scope, or `None`
    /// when no device covers it. The controller swaps it in at finalize.
    Retrieved(Option<Node>),
}

/// A claimed transaction's physical half. A repair attempt plans and runs
/// its repair against fresh device state with the service's `rules`, a
/// reload retrieves its scope, and every other transaction replays its log
/// through [`execute_physical`]. Outside physical mode a repair or reload
/// is refused, so the controller never needs to know the mode.
pub(crate) fn execute_record(
    rec: &TxnRecord,
    mode: &ExecMode,
    rules: &RepairRules,
    signal: impl FnMut() -> Option<Signal>,
) -> PhysicalOutcome {
    let ran = match (rec.proc_name.as_str(), mode) {
        (TWIN_REPAIR_PROC, ExecMode::Physical(registry)) => repair(rec, registry, rules, signal),
        (RELOAD_PROC, ExecMode::Physical(registry)) => {
            // The scope parsed when the reload took its lock.
            let scope = rec.args.first().and_then(Value::as_str).map(Path::parse);
            let physical = registry.physical_tree();
            let subtree = scope.and_then(|s| physical.get(&s.ok()?).cloned());
            Ok(PhysicalOutcome::Retrieved(subtree))
        }
        (TWIN_REPAIR_PROC, _) => Err("repair requires physical mode".to_owned()),
        (RELOAD_PROC, _) => Err("reload requires physical mode".to_owned()),
        _ => return execute_physical(&rec.log, mode, signal),
    };
    // A refusal aborts before any action, its error the whole reason.
    ran.unwrap_or_else(|error| PhysicalOutcome::Aborted {
        failed_seq: 0,
        error,
    })
}

/// A repair attempt on the devices: diff the desired subtree its
/// `__reconcile` step carries against the devices' export, plan with
/// `rules`, run the plan through [`execute_physical`] (best-effort, so a
/// call whose precondition the drift already broke is skipped; TERM and
/// KILL still apply), and re-diff.
fn repair(
    rec: &TxnRecord,
    registry: &Arc<DeviceRegistry>,
    rules: &RepairRules,
    signal: impl FnMut() -> Option<Signal>,
) -> Result<PhysicalOutcome, String> {
    let step = rec.log.first().ok_or("repair without a reconcile step")?;
    let (scope, desired) = (&step.object, step.args.first().and_then(Value::as_str));
    // analyze:allow(json-edge): `__reconcile` carries JSON text as an argument
    let desired = (desired.map(serde_json::from_str::<Node>).transpose())
        .map_err(|e| format!("corrupt desired state at {scope}: {e}"))?;
    let desired = Tree::mounted(scope, desired);
    let drift = desired.diff(&registry.physical_tree(), scope);
    let planned = rules.plan(&drift, &desired).actions.into_iter();
    let calls: Vec<LogRecord> = (1..).zip(planned).map(LogRecord::repair_step).collect();
    let mode = ExecMode::Physical(Arc::clone(registry));
    match execute_physical(&calls, &mode, signal) {
        PhysicalOutcome::Committed => {}
        ended => return Ok(ended), // TERMed or KILLed.
    }
    let left = desired.diff(&registry.physical_tree(), scope);
    Ok(PhysicalOutcome::Reconciled {
        drifted: distinct_paths(&drift) as u64,
        remaining: left.len() as u64,
        unmatched: rules.plan(&left, &desired).unmatched.len() as u64,
        calls,
    })
}

/// Replays an execution log against the physical layer.
///
/// `signal` is polled before each forward action so TERM/KILL interrupt
/// stalled transactions (paper §4). In [`ExecMode::LogicalOnly`] device
/// calls are skipped and every action trivially succeeds, but signal
/// handling still applies.
pub fn execute_physical(
    log: &[LogRecord],
    mode: &ExecMode,
    mut signal: impl FnMut() -> Option<Signal>,
) -> PhysicalOutcome {
    let mut executed: Vec<&LogRecord> = Vec::new();
    for rec in log {
        match signal() {
            Some(Signal::Term) => {
                return undo_executed(&executed, mode, 0, "terminated by TERM signal".to_owned());
            }
            Some(Signal::Kill) => {
                return PhysicalOutcome::Killed {
                    reached_seq: rec.seq,
                };
            }
            None => {}
        }
        let result = match mode {
            ExecMode::LogicalOnly => Ok(()),
            ExecMode::Physical(registry) => registry.invoke(&ActionCall::new(
                rec.object.clone(),
                rec.action.clone(),
                rec.args.clone(),
            )),
        };
        match result {
            Ok(()) => executed.push(rec),
            // A best-effort action that fails is skipped rather than
            // aborting the transaction: twin-planned repairs race with
            // ongoing physical change, and convergence is judged by the
            // reconciler's re-diff, not by individual calls. Nothing
            // executed, so nothing joins the undo prefix.
            Err(_) if rec.best_effort => {}
            Err(e) => {
                return undo_executed(&executed, mode, rec.seq, e.to_string());
            }
        }
    }
    PhysicalOutcome::Committed
}

/// Undoes the executed prefix in reverse chronological order. Stops at the
/// first undo error (undo actions may have temporal dependencies — paper
/// footnote 2) and reports a partial rollback.
fn undo_executed(
    executed: &[&LogRecord],
    mode: &ExecMode,
    failed_seq: usize,
    error: String,
) -> PhysicalOutcome {
    for rec in executed.iter().rev() {
        let Some(undo_action) = &rec.undo_action else {
            return PhysicalOutcome::Failed {
                failed_seq,
                error,
                undo_failed_seq: rec.seq,
                undo_error: format!("action `{}` is irreversible", rec.action),
                inconsistent_object: rec.object.clone(),
            };
        };
        let object = rec.undo_object.as_ref().unwrap_or(&rec.object);
        let result = match mode {
            ExecMode::LogicalOnly => Ok(()),
            ExecMode::Physical(registry) => registry.invoke(&ActionCall::new(
                object.clone(),
                undo_action.clone(),
                rec.undo_args.clone(),
            )),
        };
        if let Err(e) = result {
            return PhysicalOutcome::Failed {
                failed_seq,
                error,
                undo_failed_seq: rec.seq,
                undo_error: e.to_string(),
                inconsistent_object: object.clone(),
            };
        }
    }
    PhysicalOutcome::Aborted { failed_seq, error }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tropic_devices::{ComputeServer, Device, LatencyModel, StorageServer, VmPower};
    use tropic_model::{Node, Tree, Value};

    fn registry() -> Arc<DeviceRegistry> {
        let mut frame = Tree::new();
        frame
            .insert(&Path::parse("/vmRoot").unwrap(), Node::new("vmRoot"))
            .unwrap();
        frame
            .insert(
                &Path::parse("/storageRoot").unwrap(),
                Node::new("storageRoot"),
            )
            .unwrap();
        let reg = DeviceRegistry::new(frame);
        let storage = StorageServer::new(
            Path::parse("/storageRoot/s1").unwrap(),
            1_000_000,
            LatencyModel::zero(),
        );
        storage.install_template("tmpl", 8192);
        reg.register(Arc::new(storage));
        reg.register(Arc::new(ComputeServer::new(
            Path::parse("/vmRoot/h1").unwrap(),
            "xen",
            32768,
            LatencyModel::zero(),
        )));
        Arc::new(reg)
    }

    /// The paper's Table-1 spawnVM log against /storageRoot/s1 + /vmRoot/h1.
    fn spawn_log() -> Vec<LogRecord> {
        let s1 = Path::parse("/storageRoot/s1").unwrap();
        let h1 = Path::parse("/vmRoot/h1").unwrap();
        let rec = |seq: usize,
                   object: &Path,
                   action: &str,
                   args: Vec<Value>,
                   undo: &str,
                   undo_args: Vec<Value>| LogRecord {
            seq,
            object: object.clone(),
            action: action.into(),
            args,
            undo_action: Some(undo.into()),
            undo_object: None,
            undo_args,
            best_effort: false,
        };
        vec![
            rec(
                1,
                &s1,
                "cloneImage",
                vec!["tmpl".into(), "img".into()],
                "removeImage",
                vec!["img".into()],
            ),
            rec(
                2,
                &s1,
                "exportImage",
                vec!["img".into()],
                "unexportImage",
                vec!["img".into()],
            ),
            rec(
                3,
                &h1,
                "importImage",
                vec!["img".into()],
                "unimportImage",
                vec!["img".into()],
            ),
            rec(
                4,
                &h1,
                "createVM",
                vec!["vm1".into(), "img".into(), Value::Int(2048)],
                "removeVM",
                vec!["vm1".into()],
            ),
            rec(
                5,
                &h1,
                "startVM",
                vec!["vm1".into()],
                "stopVM",
                vec!["vm1".into()],
            ),
        ]
    }

    fn compute_of(reg: &DeviceRegistry) -> Arc<dyn Device> {
        reg.resolve(&Path::parse("/vmRoot/h1").unwrap()).unwrap()
    }

    #[test]
    fn commit_path_executes_all_actions() {
        let reg = registry();
        let mode = ExecMode::Physical(Arc::clone(&reg));
        let outcome = execute_physical(&spawn_log(), &mode, || None);
        assert_eq!(outcome, PhysicalOutcome::Committed);
        let tree = reg.physical_tree();
        let vm = Path::parse("/vmRoot/h1/vm1").unwrap();
        assert_eq!(tree.attr_str(&vm, "state").unwrap(), "running");
    }

    #[test]
    fn failure_rolls_back_in_reverse() {
        // This reproduces the paper's §3.2 example: the first four actions
        // succeed, the fifth fails, and undo records #4..#1 run in reverse,
        // removing the VM configuration and the cloned image.
        let reg = registry();
        let compute = compute_of(&reg);
        compute.fault_plan().fail_once("startVM");
        let mode = ExecMode::Physical(Arc::clone(&reg));
        let outcome = execute_physical(&spawn_log(), &mode, || None);
        match outcome {
            PhysicalOutcome::Aborted { failed_seq, error } => {
                assert_eq!(failed_seq, 5);
                assert!(error.contains("injected"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let tree = reg.physical_tree();
        assert!(!tree.exists(&Path::parse("/vmRoot/h1/vm1").unwrap()));
        assert!(!tree.exists(&Path::parse("/storageRoot/s1/img").unwrap()));
    }

    #[test]
    fn undo_failure_reports_partial_rollback() {
        let reg = registry();
        let compute = compute_of(&reg);
        compute.fault_plan().fail_once("startVM");
        // The undo of record #3 (unimportImage) also fails.
        compute.fault_plan().fail_once("unimportImage");
        let mode = ExecMode::Physical(Arc::clone(&reg));
        let outcome = execute_physical(&spawn_log(), &mode, || None);
        match outcome {
            PhysicalOutcome::Failed {
                failed_seq,
                undo_failed_seq,
                inconsistent_object,
                ..
            } => {
                assert_eq!(failed_seq, 5);
                assert_eq!(undo_failed_seq, 3);
                assert_eq!(inconsistent_object, Path::parse("/vmRoot/h1").unwrap());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Undo stopped at record #3: the VM is gone (undo #4 ran) but the
        // image survives on storage (undo #2/#1 never ran).
        let tree = reg.physical_tree();
        assert!(!tree.exists(&Path::parse("/vmRoot/h1/vm1").unwrap()));
        assert!(tree.exists(&Path::parse("/storageRoot/s1/img").unwrap()));
    }

    #[test]
    fn logical_only_mode_always_commits() {
        let outcome = execute_physical(&spawn_log(), &ExecMode::LogicalOnly, || None);
        assert_eq!(outcome, PhysicalOutcome::Committed);
    }

    #[test]
    fn term_signal_undoes_prefix() {
        let reg = registry();
        let mode = ExecMode::Physical(Arc::clone(&reg));
        // TERM arrives before the third action.
        let mut calls = 0;
        let outcome = execute_physical(&spawn_log(), &mode, move || {
            calls += 1;
            (calls == 3).then_some(Signal::Term)
        });
        match outcome {
            PhysicalOutcome::Aborted { error, .. } => assert!(error.contains("TERM")),
            other => panic!("unexpected {other:?}"),
        }
        // Everything rolled back.
        let tree = reg.physical_tree();
        assert!(!tree.exists(&Path::parse("/storageRoot/s1/img").unwrap()));
    }

    #[test]
    fn kill_signal_abandons_without_undo() {
        let reg = registry();
        let mode = ExecMode::Physical(Arc::clone(&reg));
        let mut calls = 0;
        let outcome = execute_physical(&spawn_log(), &mode, move || {
            calls += 1;
            (calls == 3).then_some(Signal::Kill)
        });
        assert_eq!(outcome, PhysicalOutcome::Killed { reached_seq: 3 });
        // The first two actions' effects remain: cross-layer inconsistency
        // that repair must later reconcile.
        let tree = reg.physical_tree();
        assert!(tree.exists(&Path::parse("/storageRoot/s1/img").unwrap()));
    }

    #[test]
    fn vm_power_helper_matches() {
        // Sanity-check the device-facing assumption used above.
        let reg = registry();
        let mode = ExecMode::Physical(Arc::clone(&reg));
        execute_physical(&spawn_log(), &mode, || None);
        let tree = reg.physical_tree();
        assert_eq!(
            tree.attr_str(&Path::parse("/vmRoot/h1/vm1").unwrap(), "state")
                .unwrap(),
            VmPower::Running.as_str()
        );
    }

    #[test]
    fn best_effort_failure_is_skipped_not_aborted() {
        // A rogue VM that is already stopped: the twin-planned `stopVM`
        // fails its precondition, but the best-effort flag lets the
        // `removeVM` that follows still run, so the transaction commits
        // and the rogue VM is gone.
        let reg = registry();
        let compute = Arc::new(ComputeServer::new(
            Path::parse("/vmRoot/h2").unwrap(),
            "xen",
            32768,
            LatencyModel::zero(),
        ));
        reg.register(Arc::clone(&compute) as Arc<dyn Device>);
        compute.oob_create_vm("rogue", "imgX", 128, false);
        let h1 = Path::parse("/vmRoot/h2").unwrap();
        let rec = |seq: usize, action: &str| LogRecord {
            seq,
            object: h1.clone(),
            action: action.into(),
            args: vec![Value::from("rogue")],
            undo_action: Some(tropic_devices::NOOP_ACTION.to_owned()),
            undo_object: None,
            undo_args: vec![],
            best_effort: true,
        };
        let log = vec![rec(1, "stopVM"), rec(2, "removeVM")];
        let mode = ExecMode::Physical(Arc::clone(&reg));
        let outcome = execute_physical(&log, &mode, || None);
        assert_eq!(outcome, PhysicalOutcome::Committed);
        assert!(!reg
            .physical_tree()
            .exists(&Path::parse("/vmRoot/h2/rogue").unwrap()));

        // The same log without the flag aborts on the failed stop.
        let reg2 = registry();
        let compute2 = Arc::new(ComputeServer::new(
            Path::parse("/vmRoot/h2").unwrap(),
            "xen",
            32768,
            LatencyModel::zero(),
        ));
        reg2.register(Arc::clone(&compute2) as Arc<dyn Device>);
        compute2.oob_create_vm("rogue", "imgX", 128, false);
        let strict: Vec<LogRecord> = log
            .iter()
            .cloned()
            .map(|mut r| {
                r.best_effort = false;
                r
            })
            .collect();
        let outcome = execute_physical(&strict, &ExecMode::Physical(Arc::clone(&reg2)), || None);
        assert!(matches!(
            outcome,
            PhysicalOutcome::Aborted { failed_seq: 1, .. }
        ));
        assert!(reg2
            .physical_tree()
            .exists(&Path::parse("/vmRoot/h2/rogue").unwrap()));
    }
}
