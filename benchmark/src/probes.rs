//! Layer probes: after the live run, the same generated requests are
//! replayed by one thread through each layer's public function in
//! isolation (the pattern `exp_safety_overhead` uses), one timed call at a
//! time, and reported as mean microseconds per call.

use std::hint::black_box;
use std::path::Path as FsPath;
use std::time::Instant;

use tropic_coord::{CoordConfig, CoordService, DistributedQueue, Op};
use tropic_core::rpc::{
    decode_request, decode_response, encode_request, encode_response, RpcRequest, RpcResponse,
};
use tropic_core::{
    decode_input, encode_input, execute_physical, rollback_logical, simulate, Checkpoint, ExecMode,
    InputMsg, LockManager, LogicalOutcome, PhysicalOutcome, Priority, TxnOutcome, TxnRecord,
    TxnState,
};
use tropic_devices::{ActionCall, LatencyModel};
use tropic_model::{Path, Tree};

use crate::live::ScratchDir;
use crate::metrics::MetricSet;
use crate::stats::mean;
use crate::workload::{sample_requests, Req, Workload};

/// Calls whose cost does not depend on `iters` because one call is slow
/// (whole-tree work) or pays three fsyncs (durable coordination writes).
const SLOW_CALL_ITERS: usize = 20;
const DURABLE_WRITE_ITERS: usize = 100;

/// What the probes need to know about the live run they follow.
pub struct ProbeInputs<'a> {
    pub wl: &'static Workload,
    pub seed: u64,
    /// Calls per cheap probe.
    pub iters: usize,
    /// Measured `coord.service.ops_per_multi`: the size of the probed multi.
    pub ops_per_multi: f64,
    /// Transaction records the store held when the run ended: the
    /// population `get_data` / `get_children` are probed against.
    pub live_records: usize,
    pub out_dir: &'a FsPath,
}

/// Encoded payloads, one per replayed request.
type Frames = Vec<Vec<u8>>;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Times `f` once per item, consuming the items; mean microseconds.
fn time_each<T, R>(items: Vec<T>, mut f: impl FnMut(T) -> R) -> (f64, Vec<R>) {
    let mut us = Vec::with_capacity(items.len());
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let item = black_box(item);
        let t = Instant::now();
        let r = f(item);
        us.push(us_since(t));
        out.push(black_box(r));
    }
    (mean(&us), out)
}

/// [`time_each`] over encoded frames; every one must decode.
fn time_decodes(
    what: &str,
    frames: &[Vec<u8>],
    decodes: impl Fn(&[u8]) -> bool,
) -> Result<f64, String> {
    let (us, ok) = time_each(frames.iter().collect(), |b: &Vec<u8>| decodes(b));
    match ok.iter().all(|ok| *ok) {
        true => Ok(us),
        false => Err(format!("an encoded {what} did not decode")),
    }
}

fn input_msg(id: u64, req: &Req) -> InputMsg {
    InputMsg::Submit {
        id,
        proc_name: req.proc_name.to_owned(),
        args: req.args.clone(),
        submitted_ms: 0,
        priority: Priority::Normal,
        deadline_ms: None,
        idempotency_key: None,
        labels: Vec::new(),
    }
}

/// Runs every probe and sets every `(C)` metric on `m`.
pub fn run(inp: &ProbeInputs<'_>, m: &mut MetricSet) -> Result<(), String> {
    let wl = inp.wl;
    let spec = wl.topology();
    let service = spec.service();
    let reqs = sample_requests(wl, inp.seed, inp.iters);

    // Logical layer: simulate every request in order against the
    // workload's own tree. Each one is also rolled back and simulated
    // again, so rollback is timed on real logs and the tree still advances.
    let initial = service.initial_tree.clone();
    let mut tree = initial.clone();
    let mut locks = LockManager::new();
    let (mut sim_us, mut rollback_us, mut lock_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut records: Vec<TxnRecord> = Vec::with_capacity(reqs.len());
    for (i, req) in reqs.iter().enumerate() {
        let id = i as u64 + 1;
        let proc_ = service
            .procs
            .get(req.proc_name)
            .ok_or_else(|| format!("procedure {} not registered", req.proc_name))?;
        let mut rec = TxnRecord::new(id, req.proc_name, req.args.clone(), 0);
        let run_simulate = |rec: &mut TxnRecord, tree: &mut Tree, locks: &mut LockManager| {
            let t = Instant::now();
            let out = simulate(
                rec,
                proc_.as_ref(),
                tree,
                &service.actions,
                &service.constraints,
                locks,
            );
            (us_since(t), out)
        };
        let (us, out) = run_simulate(&mut rec, &mut tree, &mut locks);
        if out != LogicalOutcome::Runnable {
            return Err(format!("probe replay: {} #{id} was {out:?}", req.proc_name));
        }
        sim_us.push(us);
        let t = Instant::now();
        rollback_logical(&rec.log, &mut tree, &service.actions)?;
        rollback_us.push(us_since(t));
        locks.release_all(id);
        let (_, out) = run_simulate(&mut rec, &mut tree, &mut locks);
        if out != LogicalOutcome::Runnable {
            return Err(format!("probe replay: re-simulating #{id} was {out:?}"));
        }
        let held = locks.locks_of(id);
        locks.release_all(id);
        let t = Instant::now();
        locks
            .try_acquire(id, &held)
            .map_err(|c| format!("probe replay: lock conflict on {}", c.path))?;
        locks.release_all(id);
        lock_us.push(us_since(t));
        // The record as the controller persists it at `Started`.
        rec.state = TxnState::Started;
        rec.lsn = Some(id);
        rec.locks = held;
        records.push(rec);
    }
    m.set("core.logical.simulate_us", mean(&sim_us));
    m.set("core.logical.rollback_us", mean(&rollback_us));
    m.set("core.locks.acquire_release_us", mean(&lock_us));

    let (encoded_inputs, encoded_records) = codec_probes(&reqs, &records, m)?;

    // Whole-tree work the controller does at checkpoints and reloads.
    let (us, _) = time_each(vec![&tree; SLOW_CALL_ITERS], |t| t.clone());
    m.set("model.tree.clone_us", us);
    let (us, _) = time_each(vec![&tree; SLOW_CALL_ITERS], |t| {
        t.diff(&initial, &Path::root()).len()
    });
    m.set("model.tree.diff_us", us);
    let (us, _) = time_each(vec![&tree; SLOW_CALL_ITERS], |t| {
        let ckpt = Checkpoint {
            snapshot: t.to_snapshot().expect("tree snapshots"),
            watermark_lsn: 1,
        };
        serde_json::to_vec(&ckpt)
            .expect("checkpoint serializes")
            .len()
    });
    m.set("core.controller.checkpoint_encode_ms", us / 1e3);

    coord_probes(inp, &encoded_inputs, &encoded_records, m)?;

    // Physical layer: the replayed logs against fresh zero-latency
    // devices, alternately as one `execute_physical` and action by action.
    if wl.physical {
        let devices = spec.build_devices(&LatencyModel::zero());
        let mode = ExecMode::Physical(devices.registry.clone());
        let (mut execute_us, mut invoke_us) = (Vec::new(), Vec::new());
        for (i, rec) in records.iter().enumerate() {
            if i % 2 == 0 {
                let t = Instant::now();
                let out = execute_physical(&rec.log, &mode, || None);
                execute_us.push(us_since(t));
                if out != PhysicalOutcome::Committed {
                    return Err(format!("probe replay: physical #{} was {out:?}", rec.id));
                }
            } else {
                for step in &rec.log {
                    let call = ActionCall::new(
                        step.object.clone(),
                        step.action.clone(),
                        step.args.clone(),
                    );
                    let t = Instant::now();
                    let out = devices.registry.invoke(&call);
                    invoke_us.push(us_since(t));
                    out.map_err(|e| format!("probe replay: {} failed: {e}", step.action))?;
                }
            }
        }
        m.set("core.physical.execute_us", mean(&execute_us));
        m.set("devices.registry.invoke_us", mean(&invoke_us));
    } else {
        m.set("core.physical.execute_us", 0.0);
        m.set("devices.registry.invoke_us", 0.0);
    }
    Ok(())
}

/// Codecs: inputQ messages, transaction records, RPC envelopes. Returns
/// the encoded inputs and records for the coordination probes' payloads.
fn codec_probes(
    reqs: &[Req],
    records: &[TxnRecord],
    m: &mut MetricSet,
) -> Result<(Frames, Frames), String> {
    let msgs: Vec<InputMsg> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| input_msg(i as u64 + 1, r))
        .collect();
    let (us, encoded_inputs) = time_each(msgs, encode_input);
    m.set("core.msg.encode_input_us", us);
    m.set(
        "core.msg.decode_input_us",
        time_decodes("input message", &encoded_inputs, |b| {
            decode_input(b).is_ok()
        })?,
    );
    let (us, encoded_records) = time_each(records.iter().collect(), |r: &TxnRecord| {
        serde_json::to_vec(r).expect("record serializes")
    });
    m.set("core.txn.record_encode_us", us);
    let record_bytes: Vec<f64> = encoded_records.iter().map(|b| b.len() as f64).collect();
    m.set("core.txn.record_bytes", mean(&record_bytes));
    m.set(
        "core.txn.record_decode_us",
        time_decodes("transaction record", &encoded_records, |b| {
            serde_json::from_slice::<TxnRecord>(b).is_ok()
        })?,
    );
    let rpc_reqs: Vec<RpcRequest> = reqs
        .iter()
        .map(|r| RpcRequest::Submit(r.to_request()))
        .collect();
    let (us, frames) = time_each(rpc_reqs, |r| encode_request(r).expect("request encodes"));
    m.set("core.rpc.encode_request_us", us);
    m.set(
        "core.rpc.decode_request_us",
        time_decodes("RPC request", &frames, |b| decode_request(b).is_ok())?,
    );
    let rpc_resps: Vec<RpcResponse> = (0..reqs.len() as u64)
        .map(|i| {
            RpcResponse::Outcome(Some(TxnOutcome {
                id: i + 1,
                state: TxnState::Committed,
                error: None,
                abort_code: None,
                latency_ms: 7,
            }))
        })
        .collect();
    let (us, frames) = time_each(rpc_resps, |r| encode_response(r).expect("response encodes"));
    m.set("core.rpc.encode_response_us", us);
    m.set(
        "core.rpc.decode_response_us",
        time_decodes("RPC response", &frames, |b| decode_response(b).is_ok())?,
    );
    Ok((encoded_inputs, encoded_records))
}

/// Probes a fresh `CoordService` with the workload's own durability
/// setting, holding as many record-sized znodes as the run ended with.
fn coord_probes(
    inp: &ProbeInputs<'_>,
    inputs: &[Vec<u8>],
    records: &[Vec<u8>],
    m: &mut MetricSet,
) -> Result<(), String> {
    let dir = match inp.wl.durable {
        true => Some(ScratchDir::new(inp.out_dir, "probe")?),
        false => None,
    };
    let service = CoordService::start(CoordConfig {
        data_dir: dir.as_ref().map(|d| d.path().to_path_buf()),
        ..CoordConfig::default()
    });
    let client = service.connect("benchmark-probe");
    let err = |e: tropic_coord::CoordError| format!("coordination probe: {e}");
    let base = Path::parse("/probe/txns").expect("static path");
    client.create_all(&base).map_err(err)?;
    let population = inp.live_records.max(inp.iters);
    let paths: Vec<Path> = (0..population).map(|i| base.join(&i.to_string())).collect();
    for (chunk, paths) in paths.chunks(256).enumerate() {
        let ops = paths
            .iter()
            .enumerate()
            .map(|(i, path)| Op::Create {
                path: path.clone(),
                data: records[(chunk * 256 + i) % records.len()].clone().into(),
                ephemeral_owner: None,
                sequential: false,
            })
            .collect();
        client.multi(ops).map_err(err)?;
    }
    let write_iters = match inp.wl.durable {
        true => inp.iters.min(DURABLE_WRITE_ITERS),
        false => inp.iters,
    };

    let (us, got) = time_each(paths.iter().take(inp.iters).collect(), |p: &Path| {
        client.get_data(p).map(|d| d.is_some())
    });
    m.set("coord.service.get_data_us", us);
    if !got.iter().all(|g| matches!(g, Ok(true))) {
        return Err("coordination probe: a populated znode did not read back".into());
    }
    let (us, listed) = time_each(vec![&base; SLOW_CALL_ITERS], |p| {
        client.get_children(p).map(|c| c.len())
    });
    m.set("coord.service.get_children_us", us);
    if !listed
        .iter()
        .all(|n| matches!(n, Ok(n) if *n == population))
    {
        return Err("coordination probe: get_children lost znodes".into());
    }

    let width = (inp.ops_per_multi.round() as usize).clamp(1, population);
    let batches: Vec<Vec<Op>> = (0..write_iters)
        .map(|b| {
            (0..width)
                .map(|i| Op::SetData {
                    path: paths[(b * width + i) % population].clone(),
                    data: records[(b + i) % records.len()].clone().into(),
                    expected_version: None,
                })
                .collect()
        })
        .collect();
    let (us, done) = time_each(batches, |ops| client.multi(ops).is_ok());
    m.set("coord.service.multi_us", us);

    let queue = DistributedQueue::new(&client, Path::parse("/probe/q").expect("static path"))
        .map_err(err)?;
    let items: Vec<Vec<u8>> = inputs.iter().take(write_iters).cloned().collect();
    let (us, enqueued) = time_each(items, |item| queue.enqueue(item).is_ok());
    m.set("coord.queue.enqueue_us", us);
    let (us, dequeued) = time_each(vec![(); enqueued.len()], |()| {
        matches!(queue.try_dequeue(), Ok(Some(_)))
    });
    m.set("coord.queue.dequeue_us", us);
    if !done.iter().chain(&enqueued).chain(&dequeued).all(|ok| *ok) {
        return Err("coordination probe: a write failed".into());
    }
    client.close();
    Ok(())
}
