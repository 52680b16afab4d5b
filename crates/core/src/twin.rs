//! The digital twin: continuous desired-state reconciliation.
//!
//! TROPIC's paper (§4) reconciles the logical and physical layers only when
//! an operator triggers `repair` or `reload`. This module makes the logical
//! tree a *live twin* of the fleet, following the reconciler/waker/notifier
//! decomposition of device-twin platforms:
//!
//! * **Reported state** — devices asynchronously publish
//!   [`StateReport`](tropic_devices::StateReport)s (see
//!   [`tropic_devices::report`]); the platform's report pump persists them
//!   under the coordination store's `twin/` subtree
//!   ([`crate::msg::layout::twin_reported`]) so they survive controller
//!   failover.
//! * **Reconciler** — each pass, the leading controller diffs the desired
//!   (logical) tree against every mount's reported state with `Tree::diff`
//!   and, when they disagree, submits a corrective `__twinRepair`
//!   transaction on the batch lane with an idempotency key so re-detection
//!   of the same drift never double-fires. The transaction W-locks the
//!   mount and hands its worker the desired subtree
//!   ([`crate::proc::TxnContext::reconcile`]); the worker plans the device
//!   calls against fresh physical state.
//! * **Waker** — the [`TwinTracker`] paces repair attempts per resource
//!   with exponential backoff plus deterministic jitter, and escalates to
//!   [`TwinPhase::Degraded`] after the configured attempts (a degraded
//!   resource still retries at the backoff cap, so a healed device always
//!   converges).
//! * **Event feed** — every phase transition is published as a
//!   [`TwinEvent`] through the in-process [`TwinFeed`], which the RPC
//!   frontend streams to remote subscribers
//!   (`RemoteSubscription<TwinEvent>`).
//!
//! The operator's one-shot `repair` is the same corrective transaction,
//! admitted on the High lane instead of the batch lane and answered when
//! its last attempt finalizes (see `RepairEpisode`), and `reload` is a
//! transaction of the same shape whose worker retrieves the scope. The
//! reported view above and those workers' results are the leader's only
//! picture of the devices: it never reads or calls one itself.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use tropic_model::{DiffEntry, Path};

use crate::config::TwinConfig;
use crate::txn::TxnRecord;

/// Name of the controller-internal stored procedure of one corrective
/// transaction — a twin repair or an operator repair attempt (see
/// [`crate::proc::TxnContext::reconcile`]). Scheduled like any client
/// transaction but owned by the controller.
pub const TWIN_REPAIR_PROC: &str = "__twinRepair";

/// Name of the controller-internal stored procedure of an operator
/// `reload`: it W-locks the scope, its worker retrieves the scope's
/// physical state, and its finalize swaps that into the logical tree.
pub(crate) const RELOAD_PROC: &str = "__reload";

/// Transaction-id namespace for the controller's own transactions — twin
/// repairs, operator repair attempts and reloads: above
/// [`ADMIN_TXN_BASE`](crate::controller) so their ids are invisible to
/// client id scans and the regular event subscription.
pub(crate) const TWIN_TXN_BASE: crate::txn::TxnId = (1 << 62) | (1 << 61);

/// Corrective transactions one operator `repair` runs at most. Some
/// corrections only become possible after earlier ones (an image cannot be
/// unimported while a rogue VM still uses it), so a repair whose attempt
/// left drift behind re-diffs and re-plans.
pub(crate) const REPAIR_ATTEMPTS: u64 = 3;

/// An operator `repair` or `reload` in progress, carried as JSON in the
/// `repair` label (one label for both verbs; the record's procedure says
/// which) of its current transaction's durable record: whichever leader
/// finalizes it — the one that admitted it or its successor after failover
/// — knows where to write the answer and what to report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct RepairEpisode {
    /// The operator's admin id: where the result is written.
    pub admin_id: u64,
    /// Attempts admitted so far (this transaction's 1-based number).
    pub attempt: u64,
    /// Repair: corrective calls the earlier attempts planned. Reload, once
    /// absorbed: nodes replaced.
    pub actions: u64,
    /// Distinct drifted paths attempt 1's worker found (repair), or the
    /// swap replaced (reload).
    pub drifted: u64,
    /// Diff entries the latest finished attempt's worker left in the scope
    /// after running its plan.
    #[serde(default)]
    pub remaining: u64,
    /// How many of those diffs no repair rule matched.
    #[serde(default)]
    pub unmatched: u64,
}

impl RepairEpisode {
    /// The episode as record labels.
    pub fn labels(&self) -> Vec<(String, String)> {
        let json = serde_json::to_string(self).unwrap_or_default();
        vec![("repair".to_owned(), json)]
    }

    /// The scope and episode a controller-owned transaction carries, if an
    /// operator is waiting on it.
    pub fn of(rec: &TxnRecord) -> Option<(Path, Self)> {
        let (_, json) = rec.labels.iter().find(|(k, _)| k == "repair")?;
        let scope = Path::parse(rec.args.first()?.as_str()?).ok()?;
        let episode = serde_json::from_str(json).ok()?;
        (rec.id >= TWIN_TXN_BASE).then_some((scope, episode))
    }
}

/// A resource's position in the reconciliation lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TwinPhase {
    /// Reported state matches desired state.
    InSync,
    /// Divergence detected; no corrective transaction in flight (e.g. the
    /// device is down, or the waker is backing off).
    Drifted,
    /// A corrective transaction has been submitted and the twin awaits its
    /// effect.
    Reconciling,
    /// Reported state matched desired state again after a drift episode.
    /// Transient: the resource is `InSync` afterwards.
    Converged,
    /// The configured repair attempts were exhausted without convergence;
    /// retries continue at the backoff cap, but the resource needs operator
    /// attention.
    Degraded,
}

/// One twin phase transition, streamed to subscribers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TwinEvent {
    /// Platform-clock timestamp (ms).
    pub at_ms: u64,
    /// The resource (device mount) transitioning.
    pub path: Path,
    /// The phase entered.
    pub phase: TwinPhase,
    /// Repair attempts made against the current drift episode so far.
    pub attempt: u32,
    /// Human-readable context (drift summary, escalation reason, MTTR).
    pub detail: String,
}

/// In-process fan-out hub for [`TwinEvent`]s.
///
/// Created once per platform and shared by every controller, so the feed
/// survives leader failover; the RPC frontend bridges it onto the network.
#[derive(Clone, Default)]
pub struct TwinFeed {
    subscribers: Arc<Mutex<Vec<Sender<TwinEvent>>>>,
}

impl std::fmt::Debug for TwinFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TwinFeed")
            .field("subscribers", &self.subscriber_count())
            .finish()
    }
}

impl TwinFeed {
    /// Creates an empty feed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes one event to every live subscriber; dead subscribers are
    /// pruned.
    pub fn publish(&self, event: &TwinEvent) {
        self.subscribers
            .lock()
            .retain(|tx| tx.send(event.clone()).is_ok());
    }

    /// Opens a subscription receiving every event published from now on.
    pub fn subscribe(&self) -> TwinSubscription {
        let (tx, rx) = channel();
        self.subscribers.lock().push(tx);
        TwinSubscription { rx }
    }

    /// Number of live subscribers (diagnostics).
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.lock().len()
    }
}

/// The receiving end of a [`TwinFeed`] subscription. Dropping it
/// unsubscribes (the feed prunes the dead sender on its next publish).
pub struct TwinSubscription {
    rx: Receiver<TwinEvent>,
}

impl TwinSubscription {
    /// Waits up to `timeout` for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<TwinEvent> {
        match self.rx.recv_timeout(timeout) {
            Ok(ev) => Some(ev),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Drains every event currently queued without blocking.
    pub fn drain(&self) -> Vec<TwinEvent> {
        self.rx.try_iter().collect()
    }
}

/// Stable fingerprint of a drift's shape: the same set of diffs yields the
/// same fingerprint, so re-detection of an unchanged drift is recognized
/// (idempotent), while a drift that mutated resets the waker's attempts.
pub fn drift_fingerprint(diffs: &[DiffEntry]) -> u64 {
    let mut lines: Vec<String> = diffs.iter().map(|d| format!("{d:?}")).collect();
    lines.sort_unstable();
    let mut hasher = DefaultHasher::new();
    lines.hash(&mut hasher);
    hasher.finish()
}

/// The waker's backoff schedule: `base · 2^(attempt-1)` capped at `cap`,
/// plus a deterministic jitter of up to a quarter of the delay derived from
/// `(mount, attempt)` — flapping devices across a fleet de-synchronize
/// without a shared RNG, and a given resource's schedule is reproducible.
pub fn backoff_delay_ms(base_ms: u64, cap_ms: u64, attempt: u32, mount: &Path) -> u64 {
    let attempt = attempt.max(1);
    let exp = attempt.saturating_sub(1).min(32);
    let delay = base_ms.saturating_mul(1u64 << exp).min(cap_ms.max(1));
    let mut hasher = DefaultHasher::new();
    mount.to_string().hash(&mut hasher);
    attempt.hash(&mut hasher);
    let jitter_span = delay / 4 + 1;
    delay + hasher.finish() % jitter_span
}

/// What [`TwinTracker::observe_drift`] decided for one resource.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DriftObservation {
    /// This call opened a new drift episode (`InSync` → `Drifted`).
    pub newly_detected: bool,
    /// This call escalated the resource to `Degraded`.
    pub escalated: bool,
    /// Submit a corrective transaction now, stamped with this attempt
    /// number (`None`: the waker is backing off, or repair is not possible).
    pub submit_attempt: Option<u32>,
}

struct ResourceState {
    phase: TwinPhase,
    fingerprint: u64,
    attempts: u32,
    detected_at_ms: u64,
    next_attempt_ms: u64,
}

/// Per-resource reconciliation state machine: drift episodes, the backoff
/// waker, and escalation. Pure in-memory bookkeeping — the controller owns
/// one and rebuilds it from scratch on failover (reported state persists in
/// the coordination store; idempotency keys absorb re-submissions).
pub struct TwinTracker {
    base_ms: u64,
    cap_ms: u64,
    max_attempts: u32,
    resources: BTreeMap<Path, ResourceState>,
}

impl TwinTracker {
    /// Creates a tracker with the config's backoff and escalation knobs.
    pub fn new(cfg: &TwinConfig) -> Self {
        TwinTracker {
            base_ms: cfg.backoff_base_ms.max(1),
            cap_ms: cfg.backoff_cap_ms.max(cfg.backoff_base_ms).max(1),
            max_attempts: cfg.max_attempts.max(1),
            resources: BTreeMap::new(),
        }
    }

    /// Records that `mount`'s reported state matches desired state. Returns
    /// the drift episode's detection-to-convergence latency (the MTTR
    /// sample) when this observation closes an episode, `None` when the
    /// resource was already in sync.
    pub fn observe_in_sync(&mut self, mount: &Path, now_ms: u64) -> Option<u64> {
        match self.resources.get_mut(mount) {
            Some(state) if state.phase != TwinPhase::InSync => {
                let mttr = now_ms.saturating_sub(state.detected_at_ms);
                state.phase = TwinPhase::InSync;
                state.attempts = 0;
                state.fingerprint = 0;
                Some(mttr)
            }
            Some(_) => None,
            None => {
                self.resources.insert(
                    mount.clone(),
                    ResourceState {
                        phase: TwinPhase::InSync,
                        fingerprint: 0,
                        attempts: 0,
                        detected_at_ms: now_ms,
                        next_attempt_ms: now_ms,
                    },
                );
                None
            }
        }
    }

    /// Records that `mount` drifted (diff fingerprint `fp`) and decides
    /// whether to fire a corrective transaction now. `repairable` is false
    /// when no repair can usefully be submitted (the device is down): the
    /// drift is tracked — and detection still fires — but the waker holds
    /// its attempts.
    pub fn observe_drift(
        &mut self,
        mount: &Path,
        fp: u64,
        now_ms: u64,
        repairable: bool,
    ) -> DriftObservation {
        let state = self
            .resources
            .entry(mount.clone())
            .or_insert(ResourceState {
                phase: TwinPhase::InSync,
                fingerprint: 0,
                attempts: 0,
                detected_at_ms: now_ms,
                next_attempt_ms: now_ms,
            });
        let mut obs = DriftObservation::default();
        if state.phase == TwinPhase::InSync {
            // New episode.
            state.phase = TwinPhase::Drifted;
            state.fingerprint = fp;
            state.attempts = 0;
            state.detected_at_ms = now_ms;
            state.next_attempt_ms = now_ms;
            obs.newly_detected = true;
        } else if state.fingerprint != fp {
            // The drift changed shape mid-episode (the device moved again,
            // or a repair partially landed): fresh attempts, same episode —
            // MTTR keeps measuring from first detection.
            state.fingerprint = fp;
            state.attempts = 0;
            state.next_attempt_ms = now_ms;
            if state.phase == TwinPhase::Degraded {
                state.phase = TwinPhase::Drifted;
            }
        }
        if !repairable || now_ms < state.next_attempt_ms {
            return obs;
        }
        if state.attempts >= self.max_attempts && state.phase != TwinPhase::Degraded {
            obs.escalated = true;
            state.phase = TwinPhase::Degraded;
        }
        obs.submit_attempt = Some(state.attempts);
        state.attempts = state.attempts.saturating_add(1);
        state.next_attempt_ms = now_ms
            + if state.phase == TwinPhase::Degraded {
                // Degraded resources trickle-retry at the cap so a healed
                // device still converges without operator action.
                self.cap_ms
            } else {
                if state.phase != TwinPhase::Reconciling {
                    state.phase = TwinPhase::Reconciling;
                }
                backoff_delay_ms(self.base_ms, self.cap_ms, state.attempts, mount)
            };
        obs
    }

    /// The tracked phase of `mount` (`None`: never observed).
    pub fn phase_of(&self, mount: &Path) -> Option<TwinPhase> {
        self.resources.get(mount).map(|s| s.phase)
    }

    /// Every tracked resource's phase.
    pub fn phases(&self) -> BTreeMap<Path, TwinPhase> {
        self.resources
            .iter()
            .map(|(p, s)| (p.clone(), s.phase))
            .collect()
    }

    /// `true` when every tracked resource is in sync.
    pub fn all_in_sync(&self) -> bool {
        self.resources
            .values()
            .all(|s| s.phase == TwinPhase::InSync)
    }

    /// Number of tracked resources.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// `true` when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }

    /// Drops a resource (its device was decommissioned).
    pub fn forget(&mut self, mount: &Path) {
        self.resources.remove(mount);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TwinConfig {
        TwinConfig {
            enabled: true,
            interval_ms: 10,
            report_interval_ms: 10,
            backoff_base_ms: 100,
            backoff_cap_ms: 1_000,
            max_attempts: 3,
        }
    }

    fn mount() -> Path {
        Path::parse("/vmRoot/h1").unwrap()
    }

    #[test]
    fn backoff_schedule_doubles_to_cap_with_bounded_jitter() {
        let m = mount();
        for (attempt, nominal) in [(1u32, 100u64), (2, 200), (3, 400), (4, 800), (5, 1_000)] {
            let d = backoff_delay_ms(100, 1_000, attempt, &m);
            assert!(
                d >= nominal && d <= nominal + nominal / 4 + 1,
                "attempt {attempt}: {d} outside [{nominal}, {}]",
                nominal + nominal / 4 + 1
            );
            // Deterministic per (mount, attempt).
            assert_eq!(d, backoff_delay_ms(100, 1_000, attempt, &m));
        }
        // Huge attempt counts must not overflow.
        assert!(backoff_delay_ms(100, 1_000, u32::MAX, &m) <= 1_251);
    }

    #[test]
    fn new_drift_fires_immediately_then_backs_off() {
        let mut t = TwinTracker::new(&cfg());
        let m = mount();
        let obs = t.observe_drift(&m, 42, 1_000, true);
        assert!(obs.newly_detected);
        assert_eq!(obs.submit_attempt, Some(0));
        assert!(!obs.escalated);
        assert_eq!(t.phase_of(&m), Some(TwinPhase::Reconciling));
        // Idempotent re-detection: same fingerprint inside the backoff
        // window submits nothing and is not a new detection.
        let again = t.observe_drift(&m, 42, 1_001, true);
        assert_eq!(again, DriftObservation::default());
        // After the backoff elapses, the next attempt fires.
        let later = t.observe_drift(&m, 42, 1_000 + 2_000, true);
        assert_eq!(later.submit_attempt, Some(1));
        assert!(!later.newly_detected);
    }

    #[test]
    fn fingerprint_change_resets_attempts() {
        let mut t = TwinTracker::new(&cfg());
        let m = mount();
        assert_eq!(t.observe_drift(&m, 1, 0, true).submit_attempt, Some(0));
        assert_eq!(t.observe_drift(&m, 1, 10_000, true).submit_attempt, Some(1));
        // The drift mutated: attempts restart at 0 and fire immediately.
        let fresh = t.observe_drift(&m, 2, 10_001, true);
        assert_eq!(fresh.submit_attempt, Some(0));
        assert!(!fresh.newly_detected, "same episode, new shape");
    }

    #[test]
    fn escalates_after_max_attempts_and_keeps_trickling() {
        let mut t = TwinTracker::new(&cfg());
        let m = mount();
        let mut now = 0u64;
        let mut escalations = 0;
        let mut submits = 0;
        for _ in 0..20 {
            let obs = t.observe_drift(&m, 7, now, true);
            if obs.submit_attempt.is_some() {
                submits += 1;
            }
            if obs.escalated {
                escalations += 1;
                assert_eq!(t.phase_of(&m), Some(TwinPhase::Degraded));
            }
            now += 10_000; // Beyond any backoff, so every loop may fire.
        }
        assert_eq!(escalations, 1, "escalation fires exactly once");
        assert_eq!(t.phase_of(&m), Some(TwinPhase::Degraded));
        // Degraded resources keep retrying (trickle at the cap).
        assert_eq!(submits, 20);
        // And a healed device converges with an MTTR sample.
        let mttr = t.observe_in_sync(&m, now).unwrap();
        assert_eq!(mttr, now); // Detected at 0.
        assert_eq!(t.phase_of(&m), Some(TwinPhase::InSync));
        assert!(t.all_in_sync());
    }

    #[test]
    fn unrepairable_drift_is_tracked_but_never_fires() {
        let mut t = TwinTracker::new(&cfg());
        let m = mount();
        let obs = t.observe_drift(&m, 5, 0, false);
        assert!(obs.newly_detected);
        assert_eq!(obs.submit_attempt, None);
        assert_eq!(t.phase_of(&m), Some(TwinPhase::Drifted));
        // Once repairable (device back up), the first attempt fires.
        let up = t.observe_drift(&m, 5, 1, true);
        assert_eq!(up.submit_attempt, Some(0));
    }

    #[test]
    fn in_sync_observation_tracks_resource() {
        let mut t = TwinTracker::new(&cfg());
        let m = mount();
        assert!(t.is_empty());
        assert_eq!(t.observe_in_sync(&m, 0), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.phase_of(&m), Some(TwinPhase::InSync));
        assert_eq!(t.observe_in_sync(&m, 10), None, "no episode to close");
        t.forget(&m);
        assert!(t.is_empty());
    }

    #[test]
    fn convergence_mttr_measured_from_first_detection() {
        let mut t = TwinTracker::new(&cfg());
        let m = mount();
        t.observe_drift(&m, 1, 500, true);
        t.observe_drift(&m, 2, 700, true); // Shape change, same episode.
        assert_eq!(t.observe_in_sync(&m, 1_500), Some(1_000));
    }

    #[test]
    fn fingerprints_ignore_diff_order() {
        let a = DiffEntry::NodeRemoved {
            path: Path::parse("/x/1").unwrap(),
            entity: "vm".into(),
        };
        let b = DiffEntry::NodeAdded {
            path: Path::parse("/x/2").unwrap(),
            entity: "vm".into(),
        };
        assert_eq!(
            drift_fingerprint(&[a.clone(), b.clone()]),
            drift_fingerprint(&[b.clone(), a.clone()])
        );
        assert_ne!(drift_fingerprint(&[a]), drift_fingerprint(&[b]));
        assert_eq!(drift_fingerprint(&[]), drift_fingerprint(&[]));
    }

    #[test]
    fn feed_fans_out_and_prunes() {
        let feed = TwinFeed::new();
        let sub1 = feed.subscribe();
        let sub2 = feed.subscribe();
        assert_eq!(feed.subscriber_count(), 2);
        let ev = TwinEvent {
            at_ms: 1,
            path: mount(),
            phase: TwinPhase::Drifted,
            attempt: 0,
            detail: "test".into(),
        };
        feed.publish(&ev);
        assert_eq!(sub1.drain().len(), 1);
        assert_eq!(
            sub2.recv_timeout(Duration::from_millis(100)).unwrap().phase,
            TwinPhase::Drifted
        );
        drop(sub1);
        feed.publish(&ev);
        assert_eq!(feed.subscriber_count(), 1);
    }

    #[test]
    fn repair_episode_rides_the_record_labels() {
        let episode = RepairEpisode {
            admin_id: 7,
            attempt: 2,
            actions: 3,
            drifted: 4,
            remaining: 5,
            unmatched: 1,
        };
        let scope = vec![tropic_model::Value::from("/vmRoot/h1")];
        let mut rec = TxnRecord::new(TWIN_TXN_BASE + 1, TWIN_REPAIR_PROC, scope.clone(), 0);
        rec.labels = episode.labels();
        assert_eq!(RepairEpisode::of(&rec), Some((mount(), episode)));
        // The twin's own corrective transactions answer no operator...
        rec.labels = vec![("origin".into(), "twin".into())];
        assert_eq!(RepairEpisode::of(&rec), None);
        // ...and client ids never do, whatever labels they carry.
        let mut forged = TxnRecord::new(1, TWIN_REPAIR_PROC, scope, 0);
        forged.labels = episode.labels();
        assert_eq!(RepairEpisode::of(&forged), None);
    }

    #[test]
    fn twin_txn_base_is_admin_invisible() {
        const { assert!(TWIN_TXN_BASE > crate::controller::ADMIN_TXN_BASE) }
    }
}
