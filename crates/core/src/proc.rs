//! Stored procedures and the transaction context they execute in
//! (paper §2.2, §3.1.2).
//!
//! A stored procedure is orchestration logic composed of queries and
//! actions. During logical execution the procedure runs against a
//! [`TxnContext`]: `query` reads the logical tree under read locks, `act`
//! applies an action's simulated effect under write locks, records the
//! execution-log entry with its undo, and checks every constraint whose
//! scope covers the touched path. The physical layer later replays the
//! accumulated log — the procedure body itself never touches a device.

use std::collections::HashMap;
use std::sync::Arc;

use tropic_devices::ActionCall;
use tropic_model::{ConstraintSet, Path, Tree, Value};

use crate::actions::ActionRegistry;
use crate::error::ProcError;
use crate::locks::{with_intentions, LockManager, LockMode, LockRequest};
use crate::txn::{LogRecord, TxnId};

/// Orchestration logic invoked as a transaction.
pub trait StoredProcedure: Send + Sync {
    /// Procedure name clients submit.
    fn name(&self) -> &str;

    /// Runs the procedure's logical execution.
    fn execute(&self, ctx: &mut TxnContext<'_>) -> Result<(), ProcError>;

    /// Human-readable description.
    fn description(&self) -> &str {
        ""
    }
}

/// A [`StoredProcedure`] built from a closure.
pub struct FnProcedure<F> {
    name: String,
    description: String,
    body: F,
}

impl<F> FnProcedure<F>
where
    F: Fn(&mut TxnContext<'_>) -> Result<(), ProcError> + Send + Sync,
{
    /// Creates a closure-backed procedure.
    pub fn new(name: impl Into<String>, body: F) -> Self {
        FnProcedure {
            name: name.into(),
            description: String::new(),
            body,
        }
    }

    /// Adds a description.
    pub fn describe(mut self, text: impl Into<String>) -> Self {
        self.description = text.into();
        self
    }
}

impl<F> StoredProcedure for FnProcedure<F>
where
    F: Fn(&mut TxnContext<'_>) -> Result<(), ProcError> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn execute(&self, ctx: &mut TxnContext<'_>) -> Result<(), ProcError> {
        (self.body)(ctx)
    }

    fn description(&self) -> &str {
        &self.description
    }
}

/// The procedures a platform instance serves.
#[derive(Clone, Default)]
pub struct ProcRegistry {
    procs: HashMap<String, Arc<dyn StoredProcedure>>,
}

impl ProcRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a procedure.
    pub fn register(&mut self, proc_: Arc<dyn StoredProcedure>) {
        self.procs.insert(proc_.name().to_owned(), proc_);
    }

    /// Looks up a procedure by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn StoredProcedure>> {
        self.procs.get(name).cloned()
    }

    /// Number of registered procedures.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Returns `true` if no procedures are registered.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Names of all registered procedures, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.procs.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

/// The environment a stored procedure executes in during logical simulation.
pub struct TxnContext<'a> {
    txn_id: TxnId,
    args: Vec<Value>,
    tree: &'a mut Tree,
    actions: &'a ActionRegistry,
    constraints: &'a ConstraintSet,
    locks: &'a mut LockManager,
    log: Vec<LogRecord>,
}

impl<'a> TxnContext<'a> {
    /// Creates a context for one transaction's logical execution.
    pub fn new(
        txn_id: TxnId,
        args: Vec<Value>,
        tree: &'a mut Tree,
        actions: &'a ActionRegistry,
        constraints: &'a ConstraintSet,
        locks: &'a mut LockManager,
    ) -> Self {
        TxnContext {
            txn_id,
            args,
            tree,
            actions,
            constraints,
            locks,
            log: Vec::new(),
        }
    }

    /// The transaction id.
    pub fn txn_id(&self) -> TxnId {
        self.txn_id
    }

    /// The procedure's arguments.
    pub fn args(&self) -> &[Value] {
        &self.args
    }

    /// Reads argument `i` as a string.
    pub fn arg_str(&self, i: usize) -> Result<String, ProcError> {
        self.args
            .get(i)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ProcError::Logic(format!("argument {i} missing or not a string")))
    }

    /// Reads argument `i` as an integer.
    pub fn arg_int(&self, i: usize) -> Result<i64, ProcError> {
        self.args
            .get(i)
            .and_then(Value::as_int)
            .ok_or_else(|| ProcError::Logic(format!("argument {i} missing or not an int")))
    }

    /// The execution log accumulated so far.
    pub fn log(&self) -> &[LogRecord] {
        &self.log
    }

    /// Consumes the context, yielding the execution log.
    pub fn into_log(self) -> Vec<LogRecord> {
        self.log
    }

    /// Reads the logical tree *without* taking locks. Intended for placement
    /// heuristics (picking a candidate host) whose correctness is guaranteed
    /// by the constraints checked when the subsequent actions run — not for
    /// reads the transaction's semantics depend on. Use [`TxnContext::query`]
    /// for isolated reads.
    pub fn peek<T>(&self, f: impl FnOnce(&Tree) -> T) -> T {
        f(self.tree)
    }

    /// Runs a read-only query at `path` under a read lock (paper §2.2:
    /// queries provide read-only access; the lock manager acquires R and IR
    /// locks for them, §3.1.3).
    pub fn query<T>(&mut self, path: &Path, f: impl FnOnce(&Tree) -> T) -> Result<T, ProcError> {
        if self.tree.is_inconsistent(path) {
            return Err(ProcError::Inconsistent(path.clone()));
        }
        self.acquire(with_intentions(path, LockMode::R))?;
        Ok(f(self.tree))
    }

    /// Applies the named action at `object` (paper §3.1.2):
    ///
    /// 1. deny if the subtree is marked inconsistent (§4),
    /// 2. take W + intention locks, plus the constraint read lock on the
    ///    highest constrained ancestor (§3.1.3),
    /// 3. derive the undo from the pre-action tree and append the log record,
    /// 4. apply the logical effect,
    /// 5. check every constraint whose anchor covers the touched path.
    ///
    /// A lock conflict surfaces as [`ProcError::Conflict`] (the scheduler
    /// defers the transaction); a violated constraint as
    /// [`ProcError::Violation`] (the transaction aborts).
    pub fn act(&mut self, object: &Path, action: &str, args: Vec<Value>) -> Result<(), ProcError> {
        if self.tree.is_inconsistent(object) {
            return Err(ProcError::Inconsistent(object.clone()));
        }
        let def = self
            .actions
            .get(action)
            .ok_or_else(|| ProcError::Logic(format!("unknown action `{action}`")))?
            .clone();

        let mut requests: Vec<LockRequest> = with_intentions(object, LockMode::W);
        if let Some(anchor) = self
            .constraints
            .highest_constrained_ancestor(self.tree, object)
        {
            requests.extend(with_intentions(&anchor, LockMode::R));
        }
        self.acquire(requests)?;

        let undo = def.derive_undo(self.tree, object, &args);
        let (undo_action, undo_object, undo_args) = match undo {
            Some(u) => (Some(u.action), Some(u.object), u.args),
            None => (None, None, Vec::new()),
        };
        def.apply_logical(self.tree, object, &args)
            .map_err(ProcError::Logic)?;
        self.log.push(LogRecord {
            seq: self.log.len() + 1,
            object: object.clone(),
            action: action.to_owned(),
            args,
            undo_action,
            undo_object,
            undo_args,
            best_effort: false,
        });
        self.constraints
            .check_touched(self.tree, object)
            .map_err(ProcError::Violation)?;
        Ok(())
    }

    /// Logs the one record of a repair: a best-effort `__reconcile` step on
    /// `scope` whose argument is the desired (logical) subtree there — none
    /// when the logical tree has no node at `scope` — and whose undo is the
    /// universal no-op. No logical effect is applied: the logical layer
    /// already holds the desired state; only the physical layer must move.
    ///
    /// This is the logical half of every repair — a twin-scheduled
    /// corrective transaction or an operator `repair` attempt (see
    /// [`crate::twin`]); its worker plans and runs the corrective calls
    /// against fresh device state ([`crate::physical`]). The W + intention
    /// locks on `scope` (`TxnContext::lock_scope`) serialize the repair
    /// with in-flight transactions there and keep the desired subtree fixed
    /// while the worker runs.
    pub fn reconcile(&mut self, scope: &Path) -> Result<(), ProcError> {
        self.lock_scope(scope)?;
        let desired = (self.tree.get(scope).map(serde_json::to_string).transpose())
            .map_err(|e| ProcError::Logic(format!("cannot encode {scope}: {e}")))?;
        let args = desired.into_iter().map(Value::from).collect();
        let seq = self.log.len() + 1;
        let step = ActionCall::new(scope.clone(), "__reconcile", args);
        self.log.push(LogRecord::repair_step((seq, step)));
        Ok(())
    }

    /// Takes W + intention locks on `scope` for the rest of the
    /// transaction. Unlike [`TxnContext::act`], it does **not** deny an
    /// inconsistency-marked subtree: `repair` and `reload` lock this way,
    /// and they are precisely what clears the marks (paper §4). A conflict
    /// defers the transaction like any other.
    pub(crate) fn lock_scope(&mut self, scope: &Path) -> Result<(), ProcError> {
        self.acquire(with_intentions(scope, LockMode::W))
    }

    fn acquire(&mut self, requests: Vec<LockRequest>) -> Result<(), ProcError> {
        self.locks
            .try_acquire(self.txn_id, &requests)
            .map_err(|c| ProcError::Conflict(c.path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::{ActionDef, UndoSpec};
    use tropic_model::{FnConstraint, Node};

    fn registry() -> ActionRegistry {
        let mut reg = ActionRegistry::new();
        reg.register(ActionDef::new(
            "setN",
            |tree, object, args| {
                let v = args[0].as_int().ok_or("int expected")?;
                tree.set_attr(object, "n", v).map_err(|e| e.to_string())?;
                Ok(())
            },
            |tree, object, _| {
                let old = tree.attr(object, "n").cloned().unwrap_or(Value::Int(0));
                Some(UndoSpec {
                    object: object.clone(),
                    action: "setN".into(),
                    args: vec![old],
                })
            },
        ));
        reg
    }

    fn tree() -> Tree {
        let mut t = Tree::new();
        t.insert(
            &Path::parse("/a").unwrap(),
            Node::new("box").with_attr("n", 1i64),
        )
        .unwrap();
        t.insert(
            &Path::parse("/b").unwrap(),
            Node::new("box").with_attr("n", 2i64),
        )
        .unwrap();
        t
    }

    fn limit_constraint() -> ConstraintSet {
        let mut set = ConstraintSet::new();
        set.register(Arc::new(FnConstraint::new(
            "n-limit",
            "box",
            |tree: &Tree, anchor: &Path| {
                let n = tree.attr(anchor, "n").and_then(Value::as_int).unwrap_or(0);
                if n > 100 {
                    Err(format!("n = {n} exceeds 100"))
                } else {
                    Ok(())
                }
            },
        )));
        set
    }

    #[test]
    fn act_records_log_and_applies_effect() {
        let reg = registry();
        let cons = ConstraintSet::new();
        let mut locks = LockManager::new();
        let mut t = tree();
        let mut ctx = TxnContext::new(1, vec![], &mut t, &reg, &cons, &mut locks);
        let a = Path::parse("/a").unwrap();
        ctx.act(&a, "setN", vec![Value::Int(42)]).unwrap();
        assert_eq!(ctx.log().len(), 1);
        assert_eq!(ctx.log()[0].seq, 1);
        assert_eq!(ctx.log()[0].undo_args, vec![Value::Int(1)]);
        drop(ctx);
        assert_eq!(t.attr_int(&a, "n").unwrap(), 42);
        assert!(locks.holds(1, &a, LockMode::W));
    }

    #[test]
    fn violation_aborts_after_effect() {
        let reg = registry();
        let cons = limit_constraint();
        let mut locks = LockManager::new();
        let mut t = tree();
        let mut ctx = TxnContext::new(1, vec![], &mut t, &reg, &cons, &mut locks);
        let err = ctx
            .act(&Path::parse("/a").unwrap(), "setN", vec![Value::Int(500)])
            .unwrap_err();
        assert!(matches!(err, ProcError::Violation(_)));
        // The effect was applied (callers roll back via the log) and the log
        // record exists so rollback can find the undo.
        assert_eq!(ctx.log().len(), 1);
    }

    #[test]
    fn conflict_reported_for_locked_resource() {
        let reg = registry();
        let cons = ConstraintSet::new();
        let mut locks = LockManager::new();
        let a = Path::parse("/a").unwrap();
        locks
            .try_acquire(99, &with_intentions(&a, LockMode::W))
            .unwrap();
        let mut t = tree();
        let mut ctx = TxnContext::new(1, vec![], &mut t, &reg, &cons, &mut locks);
        let err = ctx.act(&a, "setN", vec![Value::Int(5)]).unwrap_err();
        assert!(matches!(err, ProcError::Conflict(_)));
        assert!(ctx.log().is_empty());
    }

    #[test]
    fn constraint_lock_freezes_anchor() {
        // With a constraint anchored at "box", a write to /a takes R on /a
        // itself (highest constrained ancestor), so another txn writing /a
        // conflicts — and even a query of /a by another txn conflicts with
        // nothing, while a write does.
        let reg = registry();
        let cons = limit_constraint();
        let mut locks = LockManager::new();
        let mut t = tree();
        {
            let mut ctx = TxnContext::new(1, vec![], &mut t, &reg, &cons, &mut locks);
            ctx.act(&Path::parse("/a").unwrap(), "setN", vec![Value::Int(5)])
                .unwrap();
        }
        // Txn 2 can write the unrelated /b.
        let mut ctx2 = TxnContext::new(2, vec![], &mut t, &reg, &cons, &mut locks);
        ctx2.act(&Path::parse("/b").unwrap(), "setN", vec![Value::Int(6)])
            .unwrap();
        drop(ctx2);
        // Txn 3 conflicts on /a.
        let mut ctx3 = TxnContext::new(3, vec![], &mut t, &reg, &cons, &mut locks);
        assert!(matches!(
            ctx3.act(&Path::parse("/a").unwrap(), "setN", vec![Value::Int(7)]),
            Err(ProcError::Conflict(_))
        ));
    }

    #[test]
    fn query_takes_read_lock() {
        let reg = registry();
        let cons = ConstraintSet::new();
        let mut locks = LockManager::new();
        let mut t = tree();
        let a = Path::parse("/a").unwrap();
        {
            let mut ctx = TxnContext::new(1, vec![], &mut t, &reg, &cons, &mut locks);
            let n = ctx
                .query(&a, |tree| tree.attr_int(&a, "n").unwrap())
                .unwrap();
            assert_eq!(n, 1);
        }
        assert!(locks.holds(1, &a, LockMode::R));
        // A writer conflicts with the outstanding reader.
        let mut ctx2 = TxnContext::new(2, vec![], &mut t, &reg, &cons, &mut locks);
        assert!(matches!(
            ctx2.act(&a, "setN", vec![Value::Int(9)]),
            Err(ProcError::Conflict(_))
        ));
    }

    #[test]
    fn inconsistent_subtree_denied() {
        let reg = registry();
        let cons = ConstraintSet::new();
        let mut locks = LockManager::new();
        let mut t = tree();
        let a = Path::parse("/a").unwrap();
        t.mark_inconsistent(&a, true).unwrap();
        let mut ctx = TxnContext::new(1, vec![], &mut t, &reg, &cons, &mut locks);
        assert!(matches!(
            ctx.act(&a, "setN", vec![Value::Int(5)]),
            Err(ProcError::Inconsistent(_))
        ));
        assert!(matches!(
            ctx.query(&a, |_| ()),
            Err(ProcError::Inconsistent(_))
        ));
    }

    #[test]
    fn unknown_action_is_logic_error() {
        let reg = ActionRegistry::new();
        let cons = ConstraintSet::new();
        let mut locks = LockManager::new();
        let mut t = tree();
        let mut ctx = TxnContext::new(1, vec![], &mut t, &reg, &cons, &mut locks);
        assert!(matches!(
            ctx.act(&Path::parse("/a").unwrap(), "nope", vec![]),
            Err(ProcError::Logic(_))
        ));
    }

    #[test]
    fn arg_accessors() {
        let reg = registry();
        let cons = ConstraintSet::new();
        let mut locks = LockManager::new();
        let mut t = tree();
        let ctx = TxnContext::new(
            1,
            vec![Value::from("vm1"), Value::Int(2048)],
            &mut t,
            &reg,
            &cons,
            &mut locks,
        );
        assert_eq!(ctx.arg_str(0).unwrap(), "vm1");
        assert_eq!(ctx.arg_int(1).unwrap(), 2048);
        assert!(ctx.arg_str(1).is_err());
        assert!(ctx.arg_int(7).is_err());
        assert_eq!(ctx.txn_id(), 1);
        assert_eq!(ctx.args().len(), 2);
    }

    #[test]
    fn reconcile_logs_repairs_without_logical_effects() {
        let reg = registry();
        let cons = ConstraintSet::new();
        let mut locks = LockManager::new();
        let mut t = tree();
        let a = Path::parse("/a").unwrap();
        // Repair must be allowed even on inconsistency-marked subtrees.
        t.mark_inconsistent(&a, true).unwrap();
        let before = t.clone();
        let mut ctx = TxnContext::new(7, vec![], &mut t, &reg, &cons, &mut locks);
        ctx.reconcile(&a).unwrap();
        // Nothing is desired at a path the logical tree lacks.
        ctx.reconcile(&Path::parse("/gone").unwrap()).unwrap();
        let log = ctx.log().to_vec();
        drop(ctx);
        // One best-effort, no-op-undo step per scope, carrying the desired
        // subtree its worker plans from.
        assert_eq!(
            (log[0].action.as_str(), log[0].best_effort),
            ("__reconcile", true)
        );
        assert_eq!(log[0].object, a);
        let desired = log[0].args[0].as_str().unwrap();
        assert_eq!(
            serde_json::from_str::<Node>(desired).ok().as_ref(),
            before.get(&a)
        );
        assert!(log[1].args.is_empty());
        assert_eq!(
            log[0].undo_action.as_deref(),
            Some(tropic_devices::NOOP_ACTION)
        );
        // The logical tree is untouched (it already holds desired state)...
        assert_eq!(t.attr_int(&a, "n").unwrap(), 1);
        // ...and the scope is write-locked until the txn finalizes.
        assert!(locks.holds(7, &a, LockMode::W));
        // A conflicting holder defers the repair instead.
        let mut t2 = tree();
        let mut locks2 = LockManager::new();
        locks2
            .try_acquire(99, &with_intentions(&a, LockMode::W))
            .unwrap();
        let mut ctx2 = TxnContext::new(8, vec![], &mut t2, &reg, &cons, &mut locks2);
        assert!(matches!(
            ctx2.reconcile(&Path::root()),
            Err(ProcError::Conflict(_))
        ));
    }

    #[test]
    fn proc_registry() {
        let mut reg = ProcRegistry::new();
        assert!(reg.is_empty());
        reg.register(Arc::new(
            FnProcedure::new("noop", |_ctx| Ok(())).describe("Does nothing."),
        ));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.names(), vec!["noop"]);
        let p = reg.get("noop").unwrap();
        assert_eq!(p.description(), "Does nothing.");
        assert!(reg.get("missing").is_none());
    }
}
