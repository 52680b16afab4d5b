//! Distributed queue recipe over the coordination service.
//!
//! TROPIC decouples its components through two durable queues, `inputQ` and
//! `phyQ` (paper Figure 1). Each queue is a znode whose children are
//! sequentially-numbered persistent items; dequeue claims the lowest item by
//! deleting it, so exactly one consumer wins even with many workers.
//! `inputQ` is three such queues, one per priority lane, under a common
//! parent that is itself never enqueued on or drained.
//!
//! Consumers idle behind children watches: [`DistributedQueue::await_any`]
//! and [`DistributedQueue::dequeue_timeout`] are calls to the session's
//! one watch wait ([`CoordClient::wait_watched`]), so an idle consumer
//! makes no reads until an item lands, its deadline comes due on the
//! service clock, or a stopper notifies its session. Because the service
//! registers a watch at most once per `(path, kind, session)`, a consumer
//! that re-arms every lane on every idle call still holds one registration
//! per lane and is woken once per arrival.

use std::time::Duration;

use bytes::Bytes;
use tropic_model::Path;

use crate::error::{CoordError, CoordResult};
use crate::service::{CoordClient, CreateMode, WatchKind};
use crate::store::Op;

/// Name prefix of queue-item znodes. Children of the base without this
/// prefix (e.g. nested sub-queue lanes) are not items and are ignored by
/// every queue operation.
const ITEM_PREFIX: &str = "item-";

/// A durable multi-producer multi-consumer FIFO queue.
///
/// Items are children of the base named `item-<seq>`; other children of
/// the base (such as nested priority-lane queues) coexist untouched.
pub struct DistributedQueue<'a> {
    client: &'a CoordClient,
    base: Path,
}

impl<'a> DistributedQueue<'a> {
    /// Binds a queue rooted at `base`, creating the base znode if needed.
    pub fn new(client: &'a CoordClient, base: Path) -> CoordResult<Self> {
        client.create_all(&base)?;
        Ok(DistributedQueue { client, base })
    }

    /// Binds a queue whose base znode is known to exist already, skipping
    /// the existence probes of [`DistributedQueue::new`]. For hot paths
    /// (the controller re-binds its lanes every scheduling round, clients
    /// on every submission); the base must have been created beforehand or
    /// reads fail with `NoNode` and enqueues with `NoParent`.
    pub fn bind(client: &'a CoordClient, base: Path) -> Self {
        DistributedQueue { client, base }
    }

    /// The queue's base path.
    pub fn base(&self) -> &Path {
        &self.base
    }

    /// Appends an item, returning the znode path that identifies it.
    pub fn enqueue(&self, data: impl Into<Bytes>) -> CoordResult<Path> {
        self.client.create(
            &self.base.join(ITEM_PREFIX),
            data,
            CreateMode::PersistentSequential,
        )
    }

    /// The [`Op`] that [`DistributedQueue::enqueue`] would submit, for
    /// inclusion in a caller-assembled atomic batch.
    pub fn enqueue_op(&self, data: impl Into<Bytes>) -> Op {
        Op::Create {
            path: self.base.join(ITEM_PREFIX),
            data: data.into(),
            ephemeral_owner: None,
            sequential: true,
        }
    }

    /// The [`Op`] that removes the named item, for inclusion in a
    /// caller-assembled atomic batch. A missing item fails the whole batch
    /// — callers batch removals only for items they exclusively own, or
    /// retry on the lost race ([`DistributedQueue::try_dequeue_batch`]).
    fn remove_op(&self, name: &str) -> Op {
        Op::Delete {
            path: self.base.join(name),
            expected_version: None,
        }
    }

    /// Path of the item znode with the given name.
    pub fn item_path(&self, name: &str) -> Path {
        self.base.join(name)
    }

    /// Names of all queued items in FIFO (lexicographic) order.
    /// Non-item children of the base znode are excluded.
    pub fn item_names(&self) -> CoordResult<Vec<String>> {
        let mut names = self.client.get_children(&self.base)?;
        names.retain(|n| n.starts_with(ITEM_PREFIX));
        Ok(names)
    }

    /// Reads one item's payload by name, or `None` when already claimed.
    pub fn get(&self, name: &str) -> CoordResult<Option<Bytes>> {
        Ok(self
            .client
            .get_data(&self.base.join(name))?
            .map(|(data, _)| data))
    }

    /// Claims up to `max` items from the head of the queue in one atomic
    /// batch (a multi of deletes), preserving FIFO order. When a competing
    /// consumer steals any candidate between the read and the claim, the
    /// whole claim fails benignly and is retried against the new head.
    /// Returns an empty vector when the queue is empty.
    pub fn try_dequeue_batch(&self, max: usize) -> CoordResult<Vec<(String, Bytes)>> {
        if max == 0 {
            return Ok(Vec::new());
        }
        loop {
            let names = self.item_names()?;
            let mut claim: Vec<(String, Bytes)> = Vec::new();
            for name in names.into_iter().take(max) {
                match self.client.get_data(&self.base.join(&name))? {
                    Some((data, _)) => claim.push((name, data)),
                    // Claimed by a competitor between list and read.
                    None => continue,
                }
            }
            if claim.is_empty() {
                return Ok(Vec::new());
            }
            let deletes: Vec<Op> = claim.iter().map(|(name, _)| self.remove_op(name)).collect();
            match self.client.multi(deletes) {
                Ok(_) => return Ok(claim),
                // Lost a race for at least one item: nothing was claimed
                // (the batch is atomic); retry from the fresh head.
                Err(CoordError::MultiFailed { cause, .. })
                    if matches!(*cause, CoordError::NoNode(_)) =>
                {
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Blocks until *any* of `queues` is likely non-empty, the service
    /// clock reaches `deadline_ms`, or `stop()` holds once a stopper
    /// notified the session — without claiming anything. Arms one children
    /// watch per queue, so idling costs no store writes and no reads. All
    /// queues must be bound to the same client session. Watch registration
    /// is idempotent, so the lanes whose watch did not fire keep their one
    /// registration across any number of idle calls.
    pub fn await_any(
        queues: &[&DistributedQueue<'_>],
        deadline_ms: Option<u64>,
        stop: impl Fn() -> bool,
    ) -> CoordResult<()> {
        let Some(first) = queues.first() else {
            return Ok(());
        };
        let arm = || {
            queues
                .iter()
                .try_for_each(|q| q.client.watch(&q.base, WatchKind::Children))
        };
        let probe = || -> CoordResult<Option<()>> {
            for q in queues {
                if q.len()? > 0 {
                    return Ok(Some(()));
                }
            }
            Ok(None)
        };
        first.client.wait_watched(deadline_ms, stop, arm, probe)?;
        Ok(())
    }

    /// Number of queued items.
    pub fn len(&self) -> CoordResult<usize> {
        Ok(self.item_names()?.len())
    }

    /// Returns `true` if the queue has no items.
    pub fn is_empty(&self) -> CoordResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Attempts to claim the head item. Returns `None` when the queue is
    /// empty. When several consumers race, the delete succeeds for exactly
    /// one; losers silently move on to the next item.
    pub fn try_dequeue(&self) -> CoordResult<Option<(String, Bytes)>> {
        loop {
            let Some(head) = self.item_names()?.into_iter().min() else {
                return Ok(None);
            };
            let item_path = self.base.join(&head);
            let Some((data, _)) = self.client.get_data(&item_path)? else {
                // Claimed by a competitor between list and read; try again.
                continue;
            };
            match self.client.delete(&item_path, None) {
                Ok(()) => return Ok(Some((head, data))),
                Err(CoordError::NoNode(_)) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Blocks up to `timeout` for an item, using a children watch to avoid
    /// busy-polling.
    pub fn dequeue_timeout(&self, timeout: Duration) -> CoordResult<Option<(String, Bytes)>> {
        let deadline = self.client.now_ms() + timeout.as_millis() as u64;
        let arm = || self.client.watch(&self.base, WatchKind::Children);
        self.client
            .wait_watched(Some(deadline), || false, arm, || self.try_dequeue())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{CoordConfig, CoordService};
    use std::sync::Arc;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn svc() -> CoordService {
        CoordService::start(CoordConfig::default())
    }

    #[test]
    fn fifo_order() {
        let svc = svc();
        let c = svc.connect("q");
        let q = DistributedQueue::new(&c, p("/inputQ")).unwrap();
        assert!(q.is_empty().unwrap());
        q.enqueue(Bytes::from_static(b"a")).unwrap();
        q.enqueue(Bytes::from_static(b"b")).unwrap();
        q.enqueue(Bytes::from_static(b"c")).unwrap();
        assert_eq!(q.len().unwrap(), 3);
        let (_, d1) = q.try_dequeue().unwrap().unwrap();
        let (_, d2) = q.try_dequeue().unwrap().unwrap();
        let (_, d3) = q.try_dequeue().unwrap().unwrap();
        assert_eq!(
            (&d1[..], &d2[..], &d3[..]),
            (&b"a"[..], &b"b"[..], &b"c"[..])
        );
        assert!(q.try_dequeue().unwrap().is_none());
    }

    #[test]
    fn concurrent_consumers_claim_each_item_once() {
        let svc = Arc::new(svc());
        let producer = svc.connect("p");
        let q = DistributedQueue::new(&producer, p("/phyQ")).unwrap();
        const N: usize = 200;
        for i in 0..N {
            q.enqueue(Bytes::from(format!("{i}"))).unwrap();
        }
        let mut handles = Vec::new();
        for w in 0..4 {
            let svc = Arc::clone(&svc);
            handles.push(std::thread::spawn(move || {
                let client = svc.connect(&format!("w{w}"));
                let q = DistributedQueue::new(&client, p("/phyQ")).unwrap();
                let mut claimed = Vec::new();
                while let Some((_, data)) = q.try_dequeue().unwrap() {
                    claimed.push(String::from_utf8(data.to_vec()).unwrap());
                }
                claimed
            }));
        }
        let mut all: Vec<String> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_by_key(|s| s.parse::<usize>().unwrap());
        assert_eq!(all.len(), N, "each item claimed exactly once");
        for (i, item) in all.iter().enumerate() {
            assert_eq!(item, &format!("{i}"));
        }
    }

    #[test]
    fn dequeue_timeout_waits_for_producer() {
        let svc = Arc::new(svc());
        let svc2 = Arc::clone(&svc);
        let consumer = std::thread::spawn(move || {
            let c = svc2.connect("consumer");
            let q = DistributedQueue::new(&c, p("/q")).unwrap();
            q.dequeue_timeout(Duration::from_secs(5)).unwrap()
        });
        std::thread::sleep(Duration::from_millis(100));
        let c = svc.connect("producer");
        let q = DistributedQueue::new(&c, p("/q")).unwrap();
        q.enqueue(Bytes::from_static(b"late")).unwrap();
        let got = consumer.join().unwrap().unwrap();
        assert_eq!(&got.1[..], b"late");
    }

    #[test]
    fn dequeue_timeout_times_out() {
        let svc = svc();
        let c = svc.connect("q");
        let q = DistributedQueue::new(&c, p("/q")).unwrap();
        let start = std::time::Instant::now();
        assert!(q
            .dequeue_timeout(Duration::from_millis(100))
            .unwrap()
            .is_none());
        assert!(start.elapsed() >= Duration::from_millis(90));
    }

    #[test]
    fn dequeue_batch_respects_max_and_order() {
        let svc = svc();
        let c = svc.connect("q");
        let q = DistributedQueue::new(&c, p("/q")).unwrap();
        for i in 0..5 {
            q.enqueue(Bytes::from(format!("{i}"))).unwrap();
        }
        let first = q.try_dequeue_batch(2).unwrap();
        assert_eq!(first.len(), 2);
        assert_eq!(&first[0].1[..], b"0");
        assert_eq!(&first[1].1[..], b"1");
        assert_eq!(q.len().unwrap(), 3);
        assert!(q.try_dequeue_batch(0).unwrap().is_empty());
        assert_eq!(q.len().unwrap(), 3);
    }

    #[test]
    fn concurrent_batch_consumers_claim_each_item_once() {
        let svc = Arc::new(svc());
        let producer = svc.connect("p");
        let q = DistributedQueue::new(&producer, p("/phyQ")).unwrap();
        const N: usize = 120;
        for i in 0..N {
            q.enqueue(Bytes::from(format!("{i}"))).unwrap();
        }
        let mut handles = Vec::new();
        for w in 0..4 {
            let svc = Arc::clone(&svc);
            handles.push(std::thread::spawn(move || {
                let client = svc.connect(&format!("w{w}"));
                let q = DistributedQueue::new(&client, p("/phyQ")).unwrap();
                let mut claimed = Vec::new();
                loop {
                    let batch = q.try_dequeue_batch(3).unwrap();
                    if batch.is_empty() {
                        break;
                    }
                    claimed.extend(
                        batch
                            .into_iter()
                            .map(|(_, d)| String::from_utf8(d.to_vec()).unwrap()),
                    );
                }
                claimed
            }));
        }
        let mut all: Vec<String> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_by_key(|s| s.parse::<usize>().unwrap());
        assert_eq!(all.len(), N, "each item claimed exactly once");
        for (i, item) in all.iter().enumerate() {
            assert_eq!(item, &format!("{i}"));
        }
    }

    #[test]
    fn nested_lane_znodes_are_not_items() {
        let svc = svc();
        let c = svc.connect("q");
        let q = DistributedQueue::new(&c, p("/inputQ")).unwrap();
        c.create_all(&p("/inputQ/hi")).unwrap();
        c.create_all(&p("/inputQ/batch")).unwrap();
        assert!(q.is_empty().unwrap(), "lane znodes are not queue items");
        q.enqueue(Bytes::from_static(b"x")).unwrap();
        assert_eq!(q.len().unwrap(), 1);
        let (_, d) = q.try_dequeue().unwrap().unwrap();
        assert_eq!(&d[..], b"x");
        assert!(
            q.try_dequeue().unwrap().is_none(),
            "lane znodes must never be dequeued"
        );
        q.enqueue(Bytes::from_static(b"y")).unwrap();
        let batch = q.try_dequeue_batch(10).unwrap();
        assert_eq!(batch.len(), 1, "batch claim ignores lane znodes");
        assert!(svc.connect("check").exists(&p("/inputQ/hi")).unwrap());
    }

    #[test]
    fn await_any_wakes_on_any_lane() {
        let svc = Arc::new(svc());
        let svc2 = Arc::clone(&svc);
        let waiter = std::thread::spawn(move || {
            let c = svc2.connect("waiter");
            let hi = DistributedQueue::new(&c, p("/q/hi")).unwrap();
            let lo = DistributedQueue::new(&c, p("/q/lo")).unwrap();
            let t0 = std::time::Instant::now();
            let deadline = c.now_ms() + 10_000;
            DistributedQueue::await_any(&[&hi, &lo], Some(deadline), || false).unwrap();
            (t0.elapsed(), lo.len().unwrap())
        });
        std::thread::sleep(Duration::from_millis(100));
        let c = svc.connect("producer");
        let lo = DistributedQueue::new(&c, p("/q/lo")).unwrap();
        lo.enqueue(Bytes::from_static(b"late")).unwrap();
        let (elapsed, lo_len) = waiter.join().unwrap();
        assert!(elapsed < Duration::from_secs(9), "woke before the timeout");
        assert_eq!(lo_len, 1);
    }

    #[test]
    fn idle_await_any_keeps_one_registration_per_lane() {
        let svc = svc();
        let c = svc.connect("leader");
        let lanes: Vec<DistributedQueue<'_>> = ["/q", "/q/hi", "/q/norm", "/q/batch"]
            .iter()
            .map(|base| DistributedQueue::new(&c, p(base)).unwrap())
            .collect();
        let lanes: Vec<&DistributedQueue<'_>> = lanes.iter().collect();
        for _ in 0..100 {
            DistributedQueue::await_any(&lanes, Some(c.now_ms()), || false).unwrap();
        }
        assert_eq!(svc.stats().watch_registrations, 4, "one per lane");
        assert_eq!(svc.stats().watch_events, 0);

        let producer = svc.connect("producer");
        let seen = c.wake().seen();
        DistributedQueue::bind(&producer, p("/q/norm"))
            .enqueue(Bytes::from_static(b"x"))
            .unwrap();
        assert_eq!(
            c.wake().seen(),
            seen + 1,
            "one enqueue woke the session other than once"
        );
        assert_eq!(lanes[2].len().unwrap(), 1);
        assert_eq!(svc.stats().watch_events, 1);
        assert_eq!(
            svc.stats().watch_registrations,
            3,
            "the fired lane's is spent"
        );
    }

    #[test]
    fn queue_survives_replica_crash() {
        let svc = svc();
        let c = svc.connect("q");
        let q = DistributedQueue::new(&c, p("/q")).unwrap();
        q.enqueue(Bytes::from_static(b"durable")).unwrap();
        svc.crash_replica(0);
        let (_, data) = q.try_dequeue().unwrap().unwrap();
        assert_eq!(&data[..], b"durable");
    }
}
