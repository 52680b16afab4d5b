//! Platform metrics backing the paper's evaluation figures (§6).
//!
//! The controller accounts its busy time (logical simulation + scheduling,
//! excluding coordination I/O waits) so the CPU-utilization experiment
//! (Figure 4) can compute per-interval utilization; every finalized
//! transaction contributes a latency sample for the CDF of Figure 5; and
//! leadership events timestamp failover for the §6.4 recovery experiment.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::txn::{TxnId, TxnState};

/// One finalized transaction's timing sample.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TxnSample {
    /// Transaction id.
    pub id: TxnId,
    /// Submission time (platform clock, ms).
    pub submitted_ms: u64,
    /// Completion time (platform clock, ms).
    pub finished_ms: u64,
    /// Terminal state.
    pub state: TxnState,
    /// Times the transaction was deferred on lock conflicts.
    pub defer_count: u32,
}

impl TxnSample {
    /// End-to-end latency in milliseconds.
    pub fn latency_ms(&self) -> u64 {
        self.finished_ms.saturating_sub(self.submitted_ms)
    }
}

/// Aggregate counters.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct Counters {
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted (logical or physical rollback).
    pub aborted: u64,
    /// Transactions failed (partial physical rollback).
    pub failed: u64,
    /// Deferred scheduling attempts (lock conflicts).
    pub defers: u64,
    /// Constraint-violation aborts within `aborted`.
    pub violations: u64,
    /// Always 0: the whole-tree checkpoint it counted is gone. Kept only
    /// because the benchmark still reads it; ROADMAP item 12 retires it.
    pub checkpoints: u64,
    /// Repair operations run.
    pub repairs: u64,
    /// Reload operations run.
    pub reloads: u64,
    /// Submissions admitted through the high-priority lane.
    #[serde(default)]
    pub admitted_high: u64,
    /// Submissions admitted through the normal lane.
    #[serde(default)]
    pub admitted_normal: u64,
    /// Submissions admitted through the batch lane.
    #[serde(default)]
    pub admitted_batch: u64,
    /// Submissions aborted at admission because their deadline had passed.
    #[serde(default)]
    pub deadline_rejects: u64,
    /// Submissions deduplicated onto an earlier transaction by
    /// idempotency key.
    #[serde(default)]
    pub idempotent_hits: u64,
    /// Connections accepted by the RPC frontend over its lifetime.
    #[serde(default)]
    pub rpc_connections: u64,
    /// RPC requests decoded and dispatched (across all connections).
    #[serde(default)]
    pub rpc_requests: u64,
    /// RPC frames rejected at the boundary: unsupported wire version,
    /// malformed payload, corrupt or oversized frame.
    #[serde(default)]
    pub rpc_rejected: u64,
    /// Transaction lifecycle events streamed to remote subscribers.
    #[serde(default)]
    pub rpc_events_streamed: u64,
    /// Device actions that passed fault-injection checks. Populated by
    /// [`crate::Tropic::counters`] from the device registry's aggregated
    /// [`FaultStats`](tropic_devices::FaultStats); always zero through the
    /// raw [`Metrics::counters`] snapshot and in logical-only mode.
    #[serde(default)]
    pub faults_passed: u64,
    /// Device actions failed by fault injection (see
    /// [`Counters::faults_passed`]). The chaos harness uses this to
    /// attribute aborts to injected faults rather than real bugs.
    #[serde(default)]
    pub faults_injected: u64,
    /// Drift episodes detected by the twin reconciler: transitions of a
    /// resource from `InSync` to `Drifted` (re-detections of the same
    /// ongoing drift do not count again).
    #[serde(default)]
    pub drift_detected: u64,
    /// Drift episodes the reconciler drove back to `Converged`.
    #[serde(default)]
    pub drift_repaired: u64,
    /// Drift episodes escalated to `Degraded` after exhausting the
    /// configured repair attempts.
    #[serde(default)]
    pub drift_escalated: u64,
}

/// A leadership or recovery event, timestamped on the platform clock.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Event {
    /// Platform-clock timestamp (ms).
    pub at_ms: u64,
    /// Controller name.
    pub controller: String,
    /// Event description (e.g. `leader-elected`, `recovery-complete`).
    pub kind: String,
}

#[derive(Default)]
struct MetricsInner {
    busy: Duration,
    samples: Vec<TxnSample>,
    counters: Counters,
    events: Vec<Event>,
    convergence_ms: Vec<u64>,
}

/// Shared metrics collector.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<MetricsInner>>,
}

impl Metrics {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds controller busy time (logical-layer compute).
    pub fn add_busy(&self, d: Duration) {
        self.inner.lock().busy += d;
    }

    /// Total accumulated busy time.
    pub fn busy(&self) -> Duration {
        self.inner.lock().busy
    }

    /// Records a finalized transaction.
    pub fn record_txn(&self, sample: TxnSample) {
        let mut inner = self.inner.lock();
        match sample.state {
            TxnState::Committed => inner.counters.committed += 1,
            TxnState::Aborted => inner.counters.aborted += 1,
            TxnState::Failed => inner.counters.failed += 1,
            _ => {}
        }
        inner.samples.push(sample);
    }

    /// Records a deferred scheduling attempt.
    pub fn record_defer(&self) {
        self.inner.lock().counters.defers += 1;
    }

    /// Records a constraint-violation abort.
    pub fn record_violation(&self) {
        self.inner.lock().counters.violations += 1;
    }

    /// Records a repair run.
    pub fn record_repair(&self) {
        self.inner.lock().counters.repairs += 1;
    }

    /// Records a reload run.
    pub fn record_reload(&self) {
        self.inner.lock().counters.reloads += 1;
    }

    /// Records a submission admitted through `priority`'s lane.
    pub fn record_admission(&self, priority: crate::api::Priority) {
        let mut inner = self.inner.lock();
        match priority {
            crate::api::Priority::High => inner.counters.admitted_high += 1,
            crate::api::Priority::Normal => inner.counters.admitted_normal += 1,
            crate::api::Priority::Batch => inner.counters.admitted_batch += 1,
        }
    }

    /// Records a submission aborted at admission for an expired deadline.
    pub fn record_deadline_reject(&self) {
        self.inner.lock().counters.deadline_rejects += 1;
    }

    /// Records an idempotency-key dedup hit.
    pub fn record_idempotent_hit(&self) {
        self.inner.lock().counters.idempotent_hits += 1;
    }

    /// Records an accepted RPC connection.
    pub fn record_rpc_connection(&self) {
        self.inner.lock().counters.rpc_connections += 1;
    }

    /// Records a dispatched RPC request.
    pub fn record_rpc_request(&self) {
        self.inner.lock().counters.rpc_requests += 1;
    }

    /// Records an RPC frame rejected at the boundary (version, framing, or
    /// payload decode).
    pub fn record_rpc_rejected(&self) {
        self.inner.lock().counters.rpc_rejected += 1;
    }

    /// Records `n` lifecycle events streamed to a remote subscriber.
    pub fn record_rpc_events(&self, n: u64) {
        self.inner.lock().counters.rpc_events_streamed += n;
    }

    /// Records a drift episode detected by the twin reconciler.
    pub fn record_drift_detected(&self) {
        self.inner.lock().counters.drift_detected += 1;
    }

    /// Records a drift episode driven back to convergence, with its
    /// detection-to-convergence latency (MTTR sample).
    pub fn record_drift_repaired(&self, convergence_ms: u64) {
        let mut inner = self.inner.lock();
        inner.counters.drift_repaired += 1;
        inner.convergence_ms.push(convergence_ms);
    }

    /// Records a drift episode escalated to `Degraded`.
    pub fn record_drift_escalated(&self) {
        self.inner.lock().counters.drift_escalated += 1;
    }

    /// Copy of all drift-to-converged latency samples (ms), in completion
    /// order. The `reconcile` bench derives its MTTR distribution from
    /// these.
    pub fn convergence_samples(&self) -> Vec<u64> {
        self.inner.lock().convergence_ms.clone()
    }

    /// Appends a leadership/recovery event.
    pub fn record_event(&self, at_ms: u64, controller: &str, kind: &str) {
        self.inner.lock().events.push(Event {
            at_ms,
            controller: controller.to_owned(),
            kind: kind.to_owned(),
        });
    }

    /// Snapshot of the counters.
    pub fn counters(&self) -> Counters {
        self.inner.lock().counters
    }

    /// Copy of all transaction samples.
    pub fn samples(&self) -> Vec<TxnSample> {
        self.inner.lock().samples.clone()
    }

    /// Copy of all events.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().events.clone()
    }

    /// Number of finalized transactions recorded.
    pub fn sample_count(&self) -> usize {
        self.inner.lock().samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_accumulates() {
        let m = Metrics::new();
        m.add_busy(Duration::from_millis(5));
        m.add_busy(Duration::from_millis(7));
        assert_eq!(m.busy(), Duration::from_millis(12));
    }

    #[test]
    fn txn_counters_by_state() {
        let m = Metrics::new();
        for (id, state) in [
            (1u64, TxnState::Committed),
            (2, TxnState::Committed),
            (3, TxnState::Aborted),
            (4, TxnState::Failed),
        ] {
            m.record_txn(TxnSample {
                id,
                submitted_ms: 0,
                finished_ms: 10,
                state,
                defer_count: 0,
            });
        }
        let c = m.counters();
        assert_eq!(c.committed, 2);
        assert_eq!(c.aborted, 1);
        assert_eq!(c.failed, 1);
        assert_eq!(m.sample_count(), 4);
    }

    #[test]
    fn latency_from_sample() {
        let s = TxnSample {
            id: 1,
            submitted_ms: 100,
            finished_ms: 350,
            state: TxnState::Committed,
            defer_count: 2,
        };
        assert_eq!(s.latency_ms(), 250);
    }

    #[test]
    fn events_recorded_in_order() {
        let m = Metrics::new();
        m.record_event(10, "c0", "leader-elected");
        m.record_event(25, "c0", "recovery-complete");
        let evs = m.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, "leader-elected");
        assert!(evs[0].at_ms < evs[1].at_ms);
    }

    #[test]
    fn drift_counters_and_convergence_samples() {
        let m = Metrics::new();
        m.record_drift_detected();
        m.record_drift_detected();
        m.record_drift_repaired(120);
        m.record_drift_escalated();
        let c = m.counters();
        assert_eq!(c.drift_detected, 2);
        assert_eq!(c.drift_repaired, 1);
        assert_eq!(c.drift_escalated, 1);
        assert_eq!(m.convergence_samples(), vec![120]);
        // Old counter snapshots (no drift fields) still deserialize.
        let legacy = br#"{"committed":1,"aborted":0,"failed":0,"defers":0,"violations":0,"checkpoints":0,"repairs":0,"reloads":0}"#;
        let back: Counters = serde_json::from_slice(legacy).unwrap();
        assert_eq!(back.committed, 1);
        assert_eq!(back.drift_detected, 0);
    }

    #[test]
    fn shared_clones_see_same_data() {
        let m = Metrics::new();
        let m2 = m.clone();
        m.record_defer();
        assert_eq!(m2.counters().defers, 1);
    }
}
