//! Physical workers: the threads that straddle the controller/device
//! boundary (paper §2.2, §3.2).
//!
//! Each worker claims transactions from `phyQ` (exactly-once via the
//! queue's atomic delete), loads the execution log from the coordination
//! store, replays it against the devices (or skips them in logical-only
//! mode), and reports the outcome back through `inputQ`. Repair attempts
//! and reloads read the devices here too, so the controller never does
//! (`physical::execute_record`). Signals posted by the controller
//! are polled between actions so stalled transactions can be TERMed or
//! KILLed (paper §4).
//!
//! Each outcome is written the moment its task finishes. On an in-memory
//! store the worker writes it itself. On a durable store every write waits
//! for an fsync round, so the worker hands each outcome to its reporter
//! thread, which writes every result that is ready in one write — a plain
//! enqueue for one, a multi of enqueues for several. Results that finish
//! while a write is in flight then share the next one, as the coordination
//! service's group commit does for writes across sessions, and no result
//! waits behind a device call or the next task.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use tropic_coord::{CoordClient, CoordService, DistributedQueue};
use tropic_model::Wake;

use crate::api::Priority;
use crate::codec::{decode_signal, decode_task, read, read_record};
use crate::msg::{encode_input, layout, InputMsg};
use crate::physical::{execute_record, ExecMode};
use crate::platform::RETRY_MS;
use crate::reconcile::RepairRules;

/// Maximum tasks claimed per round, in one atomic multi. Small, so one
/// worker cannot starve the others under load. Each result still goes out
/// the moment its task finishes — withholding it until its batch-mates
/// execute would stretch commit latency and invite spurious TERM/KILL on
/// already-committed work.
const CLAIM_BATCH: usize = 4;

/// Runs one worker until `stop` becomes true; whoever raises it then
/// notifies `wake`, which the worker's session waits on. Designed to be
/// spawned on a dedicated thread by the platform. `rules` are the
/// service's repair rules, which repair attempts plan with.
pub fn run_worker(
    name: &str,
    coord: &CoordService,
    mode: ExecMode,
    rules: RepairRules,
    stop: &AtomicBool,
    wake: Arc<Wake>,
) {
    let client = coord.connect_with_wake(name, wake);
    // Workers block inside device calls for arbitrarily long; the pin
    // keeps the session alive meanwhile (a crashed worker thread still
    // expires, because the keepalive guard dies with it).
    let _keepalive = client.keepalive();
    let Ok(phy_q) = DistributedQueue::new(&client, layout::phy_q()) else {
        return;
    };
    // Results ride the high-priority input lane: finalizing a running
    // transaction releases its locks, so results must never queue behind a
    // backlog of new batch submissions.
    let Ok(input_q) = DistributedQueue::new(&client, layout::input_lane(Priority::High)) else {
        return;
    };
    let (ready, results) = unbounded();
    std::thread::scope(|scope| {
        let reporter = if coord.is_durable() {
            let spawned = std::thread::Builder::new()
                .name(format!("{name}-report"))
                .spawn_scoped(scope, || report(&client, &input_q, &results));
            if spawned.is_err() {
                return;
            }
            Some(&ready)
        } else {
            None
        };
        execute_claims(&client, &phy_q, &input_q, &mode, &rules, stop, reporter);
        // The reporter writes what is still queued, then exits.
        drop(ready);
    });
}

/// Claims and executes tasks until `stop`, handing each outcome to the
/// `reporter` when there is one and writing it to `input_q` otherwise.
fn execute_claims(
    client: &CoordClient,
    phy_q: &DistributedQueue<'_>,
    input_q: &DistributedQueue<'_>,
    mode: &ExecMode,
    rules: &RepairRules,
    stop: &AtomicBool,
    reporter: Option<&Sender<Vec<u8>>>,
) {
    let stopped = || stop.load(Ordering::SeqCst);
    while !stopped() {
        // Claim the head of the queue — everything already waiting, bounded,
        // in one atomic multi.
        let claimed = match phy_q.try_dequeue_batch(CLAIM_BATCH) {
            Ok(items) if !items.is_empty() => items,
            // Idle: wait behind one children watch, with no deadline, until
            // an item lands or a stop.
            Ok(_) if DistributedQueue::await_any(&[phy_q], None, stopped).is_ok() => continue,
            // Quorum loss, session trouble or an unarmable watch: no watch
            // to wait on, so retry after a pause a stop cuts short.
            _ => {
                client.pause(RETRY_MS, stopped);
                continue;
            }
        };
        for (_, item) in claimed {
            let Ok(task) = decode_task(&item) else {
                continue;
            };
            let Ok(Some(rec)) = read_record(client, task.id) else {
                // Record GC'd or unreadable; nothing to execute.
                continue;
            };
            let signal_path = layout::signal(task.id);
            let outcome = execute_record(&rec, mode, rules, || {
                read(client, &signal_path, decode_signal).ok().flatten()
            });
            let msg = encode_input(InputMsg::Result {
                id: task.id,
                outcome,
            });
            // Best-effort, as in `report`.
            match reporter {
                Some(ready) => {
                    let _ = ready.send(msg);
                }
                None => {
                    let _ = input_q.enqueue(msg);
                }
            }
        }
    }
}

/// The reporter: writes to `inputQ` every result queued by the time the
/// previous write returned, in one write — a plain enqueue for one, a multi
/// of enqueues for several — until the worker hangs up. Best-effort: if a
/// write fails (quorum loss), those transactions stall and the
/// controller's TERM/KILL timeouts take over — the paper's answer to
/// unresponsive transactions.
fn report(client: &CoordClient, input_q: &DistributedQueue<'_>, results: &Receiver<Vec<u8>>) {
    while let Ok(first) = results.recv() {
        let mut more = Vec::new();
        while let Ok(msg) = results.try_recv() {
            more.push(msg);
        }
        if more.is_empty() {
            let _ = input_q.enqueue(first);
        } else {
            let msgs = std::iter::once(first).chain(more);
            let _ = client.multi(msgs.map(|m| input_q.enqueue_op(m)).collect());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_record, encode_task};
    use crate::msg::PhyTask;
    use crate::txn::{LogRecord, TxnRecord, TxnState};
    use std::time::Duration;
    use tropic_coord::{CoordConfig, CreateMode};
    use tropic_model::{Path, Value};

    /// Runs a worker on a thread of its own; the returned closure stops
    /// and joins it.
    fn spawn_worker(coord: Arc<CoordService>, mode: ExecMode) -> impl FnOnce() {
        let (stop, wake) = (Arc::new(AtomicBool::new(false)), Arc::new(Wake::default()));
        let handle = {
            let (stop, wake) = (Arc::clone(&stop), Arc::clone(&wake));
            let rules = RepairRules::new();
            std::thread::spawn(move || run_worker("w-test", &coord, mode, rules, &stop, wake))
        };
        move || {
            stop.store(true, Ordering::SeqCst);
            wake.notify();
            handle.join().unwrap();
        }
    }

    #[test]
    fn worker_executes_task_and_reports() {
        let coord = Arc::new(CoordService::start(CoordConfig::default()));
        let client = coord.connect("test");
        // A Started record with a trivial log.
        let log = [LogRecord {
            seq: 1,
            object: Path::parse("/x").unwrap(),
            action: "anything".into(),
            args: vec![Value::from("a")],
            undo_action: Some("undoAnything".into()),
            undo_object: None,
            undo_args: vec![],
            best_effort: false,
        }];
        queue_tasks(&client, &[5], &log);

        let stop_worker = spawn_worker(Arc::clone(&coord), ExecMode::LogicalOnly);

        // The result lands in the high-priority input lane.
        let input_q = DistributedQueue::new(&client, layout::input_lane(Priority::High)).unwrap();
        let got = input_q.dequeue_timeout(Duration::from_secs(5)).unwrap();
        stop_worker();
        let (_, data) = got.expect("worker result");
        let msg: InputMsg = crate::msg::decode_input(&data).unwrap();
        match msg {
            InputMsg::Result { id, outcome } => {
                assert_eq!(id, 5);
                assert_eq!(outcome, crate::physical::PhysicalOutcome::Committed);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn worker_batch_claims_and_reports_all_tasks() {
        let coord = Arc::new(CoordService::start(CoordConfig::default()));
        let client = coord.connect("test");
        let phy_q = DistributedQueue::new(&client, layout::phy_q()).unwrap();
        queue_tasks(&client, &[1, 2, 3], &[]);

        let stop_worker = spawn_worker(Arc::clone(&coord), ExecMode::LogicalOnly);

        let input_q = DistributedQueue::new(&client, layout::input_lane(Priority::High)).unwrap();
        let mut seen = Vec::new();
        while seen.len() < 3 {
            let (_, data) = input_q
                .dequeue_timeout(Duration::from_secs(5))
                .unwrap()
                .expect("worker result");
            match crate::msg::decode_input(&data).unwrap() {
                InputMsg::Result { id, outcome } => {
                    assert_eq!(outcome, crate::physical::PhysicalOutcome::Committed);
                    seen.push(id);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        stop_worker();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3]);
        assert!(phy_q.is_empty().unwrap());
    }

    /// Persists a Started record for each id, with `log`, and queues its task.
    fn queue_tasks(client: &tropic_coord::CoordClient, ids: &[u64], log: &[LogRecord]) {
        client.create_all(&layout::txns()).unwrap();
        let phy_q = DistributedQueue::new(client, layout::phy_q()).unwrap();
        for &id in ids {
            let mut rec = TxnRecord::new(id, "noop", vec![], 0);
            rec.state = TxnState::Started;
            rec.log = log.to_vec();
            let record = encode_record(&rec);
            client
                .create(&layout::txn(id), record, CreateMode::Persistent)
                .unwrap();
            phy_q.enqueue(encode_task(&PhyTask { id })).unwrap();
        }
    }

    /// Polls until `q` holds `n` items; false after 5 s.
    fn await_len(q: &DistributedQueue<'_>, n: usize) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while q.len().unwrap() < n {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    #[test]
    fn the_reporter_writes_the_results_ready_together_in_one_write() {
        let coord = CoordService::start(CoordConfig::default());
        let client = coord.connect("test");
        let input_q = DistributedQueue::new(&client, layout::input_lane(Priority::High)).unwrap();
        let result = |id| {
            encode_input(InputMsg::Result {
                id,
                outcome: crate::physical::PhysicalOutcome::Committed,
            })
        };
        // (results ready at once, writes, multis, ops batched in them)
        for (ready, expected) in [(4, (1, 1, 4)), (1, (1, 0, 0))] {
            let (tx, rx) = unbounded();
            for id in 0..ready {
                tx.send(result(id)).unwrap();
            }
            drop(tx);
            let before = coord.stats();
            report(&client, &input_q, &rx);
            let after = coord.stats();
            let written = (
                after.writes - before.writes,
                after.multis - before.multis,
                after.batched_ops - before.batched_ops,
            );
            assert_eq!(written, expected, "{ready} results ready together");
        }
        assert_eq!(input_q.len().unwrap(), 5);
    }

    /// A device whose first call returns at once and whose later calls
    /// block until the test opens the gate (or 10 s pass).
    struct GatedDevice {
        mount: Path,
        calls: std::sync::atomic::AtomicUsize,
        gate: crossbeam::channel::Receiver<()>,
        faults: tropic_devices::FaultPlan,
    }

    impl tropic_devices::Device for GatedDevice {
        fn name(&self) -> &str {
            "gated"
        }
        fn mount(&self) -> &Path {
            &self.mount
        }
        fn invoke(&self, _: &tropic_devices::ActionCall) -> tropic_devices::DeviceResult<()> {
            if self.calls.fetch_add(1, Ordering::SeqCst) > 0 {
                let _ = self.gate.recv_timeout(Duration::from_secs(10));
            }
            Ok(())
        }
        fn export_state(&self) -> tropic_model::Node {
            tropic_model::Node::new("gated")
        }
        fn fault_plan(&self) -> &tropic_devices::FaultPlan {
            &self.faults
        }
    }

    #[test]
    fn no_result_waits_behind_the_next_device_call() {
        // In memory the worker writes each result itself; on a durable
        // store its reporter thread does.
        for durable in [false, true] {
            let tmp = tropic_coord::TempDir::new("tropic-worker-gated");
            let config = CoordConfig {
                data_dir: durable.then(|| tmp.path().to_path_buf()),
                ..CoordConfig::default()
            };
            let coord = Arc::new(CoordService::start(config));
            let client = coord.connect("test");
            let input_q =
                DistributedQueue::new(&client, layout::input_lane(Priority::High)).unwrap();
            let mount = Path::parse("/gated").unwrap();
            let step = LogRecord {
                seq: 1,
                object: mount.clone(),
                action: "act".into(),
                args: vec![],
                undo_action: None,
                undo_object: None,
                undo_args: vec![],
                best_effort: false,
            };
            queue_tasks(&client, &[1, 2], &[step]);
            let (open, gate) = crossbeam::channel::unbounded();
            let registry = tropic_devices::DeviceRegistry::new(tropic_model::Tree::new());
            registry.register(Arc::new(GatedDevice {
                mount,
                calls: Default::default(),
                gate,
                faults: tropic_devices::FaultPlan::none(),
            }));
            let before = coord.stats();

            let mode = ExecMode::Physical(Arc::new(registry));
            let stop_worker = spawn_worker(Arc::clone(&coord), mode);
            // Task 2's device call holds at the gate; task 1's result must
            // land regardless.
            let first_landed = await_len(&input_q, 1);
            open.send(()).unwrap();
            assert!(await_len(&input_q, 2));
            stop_worker();
            assert!(
                first_landed,
                "durable: {durable}: task 1's result waited behind task 2's device call"
            );

            // The claim multi, then one plain enqueue per result: the
            // results were never ready together.
            let after = coord.stats();
            assert_eq!(after.multis - before.multis, 1);
            assert_eq!(after.writes - before.writes, 3);
        }
    }

    #[test]
    fn worker_ignores_corrupt_tasks() {
        let coord = Arc::new(CoordService::start(CoordConfig::default()));
        let client = coord.connect("test");
        let phy_q = DistributedQueue::new(&client, layout::phy_q()).unwrap();
        phy_q.enqueue(&b"not json"[..]).unwrap();

        let stop_worker = spawn_worker(Arc::clone(&coord), ExecMode::LogicalOnly);
        std::thread::sleep(Duration::from_millis(200));
        stop_worker();
        // The corrupt item was consumed and produced no result.
        assert!(phy_q.is_empty().unwrap());
        let input_q = DistributedQueue::new(&client, layout::input_lane(Priority::High)).unwrap();
        assert!(input_q.is_empty().unwrap());
    }
}
