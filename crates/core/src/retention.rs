//! Record retention: what the leader remembers of a transaction whose
//! record znode exists, and when that znode is collected.
//!
//! The store keeps every record in full; the leader's memory is a cache of
//! it (paper §2.3). Once a transaction finalizes, the controller drops its
//! `TxnRecord` and this module keeps one small [`Entry`] — no log, args,
//! locks or labels — holding only what collection and dedup need: the
//! record's idempotency key, the aliases pointing at it and whether a
//! signal znode was written for it. Clients read outcomes from the store
//! alone.
//!
//! A finalized record stays readable for [`GC_GRACE_MS`] or while it is
//! among the newest [`RETAIN_MAX`] finalized records, whichever ends first.
//! [`Retention::collect`] runs every round and puts its deletes in the
//! round batch, so collection costs no write of its own (a round with
//! nothing else to flush lets the due records pile up for a second grace
//! period and then collects them in one multi). A finalized record's
//! effects are already durable without it — the multi that wrote its final
//! state also wrote its objects' committed subtrees — so recovery never
//! needs it. Collection only deletes znodes that exist — a `Delete` of a
//! missing znode would fail the whole round. That holds
//! by construction: an entry is made by the admission whose round creates
//! the record (or by recovery, from the records it read), and a signal is
//! remembered only where one was written. The idempotency-key dedup window
//! closes with the record. Operator `repair`/`reload` results under
//! `/tropic/admin` follow the same rule by age alone.

use std::collections::{HashMap, VecDeque};

use tropic_coord::CoordClient;

use crate::api::AbortCode;
use crate::controller::RoundBatch;
use crate::error::PlatformError;
use crate::msg::layout;
use crate::txn::{TxnId, TxnRecord};

/// How long finalized transaction records linger before garbage collection,
/// so waiting clients can still read the outcome.
pub(crate) const GC_GRACE_MS: u64 = 10_000;

/// Finalized records retained before the oldest is collected regardless of
/// age, so resident memory and store size stop scaling with throughput.
const RETAIN_MAX: usize = 8_192;

/// Records collected per round at most, so one round's multi stays small
/// however large the backlog a recovery or an idle stretch left.
const GC_PER_ROUND: usize = 256;

/// What retention keeps of one transaction whose record znode exists.
#[derive(Default)]
struct Entry {
    /// The idempotency key the record holds, freed when it is collected.
    key: Option<String>,
    /// Aliases deduplicated onto this transaction, collected with it.
    aliases: Vec<TxnId>,
    /// Whether TERM/KILL wrote this transaction's signal znode.
    signaled: bool,
}

/// The leader's retention state: one [`Entry`] per transaction whose
/// record znode exists, the finished ones in collection order, the dedup
/// indexes and the operator results awaiting collection.
#[derive(Default)]
pub(crate) struct Retention {
    entries: HashMap<TxnId, Entry>,
    /// Finished transactions, oldest first, with their finalize time.
    finished: VecDeque<(TxnId, u64)>,
    /// Idempotency key → the admitted transaction holding it.
    keys: HashMap<String, TxnId>,
    /// Alias id → original id, for redelivery dedup.
    alias_of: HashMap<TxnId, TxnId>,
    /// Written operator results (admin ids), oldest first, with their
    /// write time.
    admin: VecDeque<(u64, u64)>,
}

impl Retention {
    /// Rebuilds retention from what a new leader read: the records and
    /// aliases under `txns`, and the `signals` and `admin` listings.
    /// Finalize times are the old leader's, so every grace period restarts
    /// at `now`.
    pub(crate) fn recover(
        client: &CoordClient,
        records: &[TxnRecord],
        aliases: &[(TxnId, TxnId)],
        now: u64,
    ) -> Result<Self, PlatformError> {
        let mut retention = Retention::default();
        let mut finished = Vec::new();
        for rec in records {
            let entry = retention.entries.entry(rec.id).or_default();
            entry.key = rec.idempotency_key.clone();
            if let Some(key) = &entry.key {
                retention.keys.insert(key.clone(), rec.id);
            }
            if rec.state.is_final() {
                finished.push((rec.finished_ms, rec.id));
            }
        }
        finished.sort_unstable();
        retention.finished = finished.into_iter().map(|(_, id)| (id, now)).collect();
        for &(alias, original) in aliases {
            retention.alias_of.insert(alias, original);
            if let Some(entry) = retention.entries.get_mut(&original) {
                entry.aliases.push(alias);
            }
        }
        let ids = |base| -> Result<Vec<u64>, PlatformError> {
            let names = client.get_children(&base)?;
            Ok(names.iter().filter_map(|n| n.parse().ok()).collect())
        };
        for id in ids(layout::signals())? {
            if let Some(entry) = retention.entries.get_mut(&id) {
                entry.signaled = true;
            }
        }
        retention.admin = ids(layout::admins())?
            .into_iter()
            .map(|id| (id, now))
            .collect();
        Ok(retention)
    }

    /// Whether `id`'s record or alias znode exists: a redelivered
    /// submission of it is a duplicate.
    pub(crate) fn knows(&self, id: TxnId) -> bool {
        self.entries.contains_key(&id) || self.alias_of.contains_key(&id)
    }

    /// Admits `rec`, whose record (or alias) the caller puts this round.
    /// Returns the original transaction when `rec`'s idempotency key is
    /// already held — `rec.id` is then an alias of it — and otherwise
    /// registers the key.
    pub(crate) fn admit(&mut self, rec: &TxnRecord) -> Option<TxnId> {
        let key = rec.idempotency_key.as_ref();
        if let Some(&original) = key.and_then(|k| self.keys.get(k)) {
            self.alias_of.insert(rec.id, original);
            if let Some(entry) = self.entries.get_mut(&original) {
                entry.aliases.push(rec.id);
            }
            return Some(original);
        }
        if let Some(key) = key {
            self.keys.insert(key.clone(), rec.id);
        }
        self.entries.entry(rec.id).or_default().key = key.cloned();
        None
    }

    /// Remembers that `id`'s signal znode exists, so collection deletes it
    /// with the record. Returns whether it is the first signal.
    pub(crate) fn signal(&mut self, id: TxnId) -> bool {
        let entry = self.entries.get_mut(&id);
        entry.is_some_and(|e| !std::mem::replace(&mut e.signaled, true))
    }

    /// Whether a TERM of `id` would be its first signal (see
    /// [`Retention::signal`]).
    pub(crate) fn may_signal(&self, id: TxnId) -> bool {
        self.entries.get(&id).is_some_and(|e| !e.signaled)
    }

    /// When a round with nothing else to flush next collects (see
    /// [`Retention::collect`]): once the oldest entry is two grace periods
    /// old, or at once while more than [`RETAIN_MAX`] finished records
    /// remain. `None` with nothing to collect.
    pub(crate) fn next_due_ms(&self) -> Option<u64> {
        if self.finished.len() > RETAIN_MAX {
            return Some(0);
        }
        let fronts = [self.finished.front(), self.admin.front()];
        let oldest = fronts.into_iter().flatten().map(|&(_, at)| at).min()?;
        Some(oldest + 2 * GC_GRACE_MS)
    }

    /// Queues the just-finalized `rec` for collection. A deadline rejection
    /// gives up its idempotency key — in the index and in the record the
    /// caller writes — so a retry with a fresh deadline runs instead of
    /// deduplicating onto the rejection.
    pub(crate) fn finalize(&mut self, rec: &mut TxnRecord, now: u64) {
        self.finished.push_back((rec.id, now));
        let entry = self.entries.entry(rec.id).or_default();
        if rec.abort_code == Some(AbortCode::DeadlineExpired) {
            rec.idempotency_key = None;
            let held = |key: &String| self.keys.get(key) == Some(&rec.id);
            if let Some(key) = entry.key.take().filter(held) {
                self.keys.remove(&key);
            }
        }
    }

    /// Queues operator result `admin_id`, written at `now`, for collection.
    pub(crate) fn answered(&mut self, admin_id: u64, now: u64) {
        self.admin.push_back((admin_id, now));
    }

    /// Collects the oldest finished records — at most [`GC_PER_ROUND`] —
    /// into `batch`, while the oldest is either past the grace period or
    /// pushed out by [`RETAIN_MAX`] newer ones, and the operator results
    /// past the grace period — at most as many again. Each record goes with
    /// its signal znode and its aliases.
    ///
    /// The deletes ride a flush that is happening anyway. A round with
    /// nothing else to flush would pay a quorum write for them alone, so it
    /// collects by age only once the oldest entry is a second grace period
    /// old — then everything due goes at once, not one entry per idle tick.
    pub(crate) fn collect(&mut self, now: u64, batch: &mut RoundBatch) {
        let fronts = [self.finished.front(), self.admin.front()];
        let Some(oldest) = fronts.into_iter().flatten().map(|&(_, at)| at).min() else {
            return;
        };
        if batch.is_empty()
            && now.saturating_sub(oldest) < 2 * GC_GRACE_MS
            && self.finished.len() <= RETAIN_MAX
        {
            return;
        }
        let due = |&mut (_, at): &mut (u64, u64)| now.saturating_sub(at) >= GC_GRACE_MS;
        let results = std::iter::from_fn(|| self.admin.pop_front_if(due));
        for (admin_id, _) in results.take(GC_PER_ROUND) {
            batch.delete(layout::admin(admin_id));
        }
        for _ in 0..GC_PER_ROUND {
            let full = self.finished.len() > RETAIN_MAX;
            let due = |&mut (_, at): &mut (u64, u64)| full || now.saturating_sub(at) >= GC_GRACE_MS;
            let Some((id, _)) = self.finished.pop_front_if(due) else {
                break;
            };
            let entry = self.entries.remove(&id).unwrap_or_default();
            batch.delete(layout::txn(id));
            if entry.signaled {
                batch.delete(layout::signal(id));
            }
            // The dedup window closes with the record.
            if let Some(key) = entry.key.filter(|key| self.keys.get(key) == Some(&id)) {
                self.keys.remove(&key);
            }
            for alias in entry.aliases {
                batch.delete(layout::txn(alias));
                self.alias_of.remove(&alias);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Driven through the controller's `step()`, so each test pins what a
    //! round costs the store — `(multis, single writes, batched ops)` —
    //! alongside what retention remembers.

    use super::*;
    use crate::codec::{decode_admin_result, read};
    use crate::controller::tests::{
        children, claim, commit, gc_controller, send, step_cost, submit,
    };
    use crate::controller::INPUT_BATCH;
    use crate::msg::{InputMsg, Signal};
    use crate::physical::{execute_record, ExecMode};
    use crate::txn::TxnState;
    use tropic_coord::DistributedQueue;
    use tropic_model::Path;

    #[test]
    fn retention_is_bounded_by_count_and_gc_rides_the_round_multi() {
        const CHUNK: u64 = INPUT_BATCH as u64;
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let clock = tropic_model::ManualClock::new();
        let mut controller = gc_controller(&client, &clock);
        let phy_q = DistributedQueue::bind(&client, layout::phy_q());
        let total = 3 * RETAIN_MAX as u64;
        let mut last_ops = 0;
        for first in (1..=total).step_by(CHUNK as usize) {
            for id in first..first + CHUNK {
                submit(&client, id, None);
            }
            let (multis, singles, _) = step_cost(&coord, &mut controller);
            assert_eq!((multis, singles), (1, 0), "one write per round");
            for (_, task) in phy_q.try_dequeue_batch(INPUT_BATCH).unwrap() {
                commit(&client, crate::codec::decode_task(&task).unwrap().id);
            }
            let (multis, singles, ops) = step_cost(&coord, &mut controller);
            assert_eq!((multis, singles), (1, 0), "one write per round");
            last_ops = ops;
            assert_eq!(controller.running_len(), 0);
            assert!(
                controller.retention().finished.len() <= RETAIN_MAX,
                "{first}"
            );
            if first % (16 * CHUNK) == 1 {
                assert!(children(&client, layout::txns()).len() <= RETAIN_MAX);
            }
        }
        let retention = controller.retention();
        assert_eq!(retention.finished.len(), RETAIN_MAX);
        assert_eq!(retention.entries.len(), RETAIN_MAX, "one entry per record");
        assert_eq!(children(&client, layout::txns()).len(), RETAIN_MAX);
        assert!(!retention.knows(1), "oldest goes first");
        assert!(retention.knows(total));
        // At the cap a round collects what it finalizes, in its own multi:
        // CHUNK inputQ removals + CHUNK record puts + CHUNK GC deletes.
        assert_eq!(last_ops, 3 * CHUNK);
    }

    /// A leader that never quiesces still collects: with transaction 1
    /// `Started` throughout, records finalized past the grace period go,
    /// in a round that flushes anyway or, two grace periods on, alone.
    #[test]
    fn gc_collects_while_a_transaction_stays_started() {
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let clock = tropic_model::ManualClock::new();
        let mut controller = gc_controller(&client, &clock);
        submit(&client, 1, None);
        controller.step().unwrap();
        submit(&client, 2, None);
        submit(&client, 3, None);
        controller.step().unwrap();
        commit(&client, 2);
        commit(&client, 3);
        controller.step().unwrap();
        assert_eq!(controller.running_len(), 1);

        clock.advance(GC_GRACE_MS);
        submit(&client, 4, None);
        // inputQ removal + record put + phyQ append + two record deletes.
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 5));
        assert!(!client.exists(&layout::txn(2)).unwrap());
        assert!(!client.exists(&layout::txn(3)).unwrap());
        commit(&client, 4);
        controller.step().unwrap();
        clock.advance(2 * GC_GRACE_MS);
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 1));
        assert!(!client.exists(&layout::txn(4)).unwrap());
        // The running one is live, not finished: never collected.
        assert!(controller.retention().knows(1));
        assert!(client.exists(&layout::txn(1)).unwrap());
        assert_eq!(controller.running_len(), 1);
    }

    #[test]
    fn gc_deletes_a_signal_znode_only_where_one_was_written() {
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let clock = tropic_model::ManualClock::new();
        let mut controller = gc_controller(&client, &clock);
        submit(&client, 1, None);
        submit(&client, 2, None);
        controller.step().unwrap();
        commit(&client, 2);
        controller.step().unwrap();
        // 2 is past its grace when the KILL round runs, so its delete
        // rides that round's multi: one op, since a blind delete of its
        // (missing) signal znode would fail the round.
        clock.advance(3 * GC_GRACE_MS / 2);
        let signal = Signal::Kill;
        send(&client, InputMsg::Signal { id: 1, signal });
        controller.step().unwrap();
        assert!(client.exists(&layout::signal(1)).unwrap());
        assert!(client.exists(&layout::txn(1)).unwrap());
        assert!(!client.exists(&layout::txn(2)).unwrap());

        // Idle rounds collect once the oldest record is two grace periods
        // old. The killed one's record and signal znode go in one multi.
        clock.advance(2 * GC_GRACE_MS - 1);
        assert_eq!(step_cost(&coord, &mut controller), (0, 0, 0));
        clock.advance(1);
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 2));
        assert!(!client.exists(&layout::txn(1)).unwrap());
        assert!(!client.exists(&layout::signal(1)).unwrap());
        assert!(controller.retention().entries.is_empty());
        // Nothing left: an idle round writes nothing.
        assert_eq!(step_cost(&coord, &mut controller), (0, 0, 0));
    }

    #[test]
    fn gc_collects_an_alias_with_its_target_and_frees_the_key() {
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let clock = tropic_model::ManualClock::new();
        let mut controller = gc_controller(&client, &clock);
        submit(&client, 1, Some("k"));
        controller.step().unwrap();
        commit(&client, 1);
        submit(&client, 2, Some("k"));
        controller.step().unwrap();
        let retention = controller.retention();
        assert_eq!(retention.alias_of.get(&2), Some(&1));
        assert_eq!(retention.entries[&1].aliases, [2]);
        assert!(client.exists(&layout::txn(2)).unwrap());

        clock.advance(2 * GC_GRACE_MS);
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 2));
        assert!(children(&client, layout::txns()).is_empty());
        let retention = controller.retention();
        assert!(retention.alias_of.is_empty() && retention.entries.is_empty());
        assert!(retention.keys.is_empty());
        // The dedup window closed with the record: the key runs again.
        submit(&client, 3, Some("k"));
        assert!(controller.step().unwrap());
        let rec = crate::codec::read_record(&client, 3).unwrap().unwrap();
        assert_eq!(rec.state, TxnState::Started);
    }

    #[test]
    fn gc_resumes_after_failover_without_failing_a_round() {
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let clock = tropic_model::ManualClock::new();
        let mut old_leader = gc_controller(&client, &clock);
        for id in [1, 3, 4] {
            submit(&client, id, (id == 1).then_some("k"));
        }
        old_leader.step().unwrap();
        commit(&client, 1);
        commit(&client, 4);
        let signal = Signal::Kill;
        send(&client, InputMsg::Signal { id: 3, signal });
        submit(&client, 2, Some("k"));
        old_leader.step().unwrap();
        clock.advance(GC_GRACE_MS / 2);
        old_leader.step().unwrap();
        assert_eq!(children(&client, layout::txns()).len(), 4, "mid-retention");
        drop(old_leader);

        let mut controller = gc_controller(&client, &clock);
        let retention = controller.retention();
        assert_eq!(retention.finished.len(), 3);
        let signaled = retention.entries.iter().filter(|(_, e)| e.signaled);
        assert_eq!(signaled.map(|(&id, _)| id).collect::<Vec<_>>(), [3]);
        // The grace restarts at recovery (finalize times are the old
        // leader's), then one round collects everything that exists — three
        // records, the alias, the signal znode — and nothing that does not.
        clock.advance(2 * GC_GRACE_MS - 1);
        assert_eq!(step_cost(&coord, &mut controller), (0, 0, 0));
        clock.advance(1);
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 5));
        assert!(children(&client, layout::txns()).is_empty());
        assert!(children(&client, layout::signals()).is_empty());
        let retention = controller.retention();
        assert!(retention.entries.is_empty() && retention.keys.is_empty());
    }

    /// Operator results follow the records' retention rule: an answer past
    /// the grace period goes with the next round that flushes, inside that
    /// round's multi, and a new leader relearns the ones left to collect.
    #[test]
    fn admin_results_are_collected_in_the_round_multi() {
        let coord = tropic_coord::CoordService::start(tropic_coord::CoordConfig::default());
        let client = coord.connect("controller-under-test");
        let clock = tropic_model::ManualClock::new();
        let mut controller = gc_controller(&client, &clock);
        // Logical-only workers refuse both repairs, and the refusal is the
        // result the operator reads.
        for admin_id in [1, 2] {
            let scope = Path::root();
            send(&client, InputMsg::Repair { scope, admin_id });
            controller.step().unwrap();
            let attempt = claim(&client);
            let rules = crate::reconcile::RepairRules::new();
            let outcome = execute_record(&attempt, &ExecMode::LogicalOnly, &rules, || None);
            send(
                &client,
                InputMsg::Result {
                    id: attempt.id,
                    outcome,
                },
            );
            controller.step().unwrap();
            clock.advance(GC_GRACE_MS / 2);
        }
        let result = read(&client, &layout::admin(1), decode_admin_result);
        let result = result.unwrap().unwrap();
        assert_eq!(
            (result.ok, result.message.as_str()),
            (false, "repair requires physical mode")
        );
        assert_eq!(children(&client, layout::admins()).len(), 2);

        assert_eq!(
            step_cost(&coord, &mut controller),
            (0, 0, 0),
            "no flush to ride"
        );
        submit(&client, 1, None);
        // inputQ removal + record put + phyQ append + the old result's
        // delete + its attempt's record delete.
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 5));
        assert!(!client.exists(&layout::admin(1)).unwrap());
        assert!(
            client.exists(&layout::admin(2)).unwrap(),
            "inside its grace"
        );
        drop(controller);

        // The grace restarts at recovery, as a record's does.
        let mut controller = gc_controller(&client, &clock);
        assert_eq!(controller.retention().admin.len(), 1);
        clock.advance(GC_GRACE_MS);
        submit(&client, 2, None);
        assert_eq!(step_cost(&coord, &mut controller), (1, 0, 5));
        assert!(children(&client, layout::admins()).is_empty());
    }
}
