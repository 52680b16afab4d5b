//! The metric names this binary emits, the result line of one pass, and
//! the committed `BENCHMARK.json` they must agree with.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// The committed contract, compiled in so `repeat` knows the bounds and
/// the tests can compare it with the tables below.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every end-to-end metric (untraced pass).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_tps", "txn/s"),
    ("lat_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric (traced pass), named
/// `<crate>.<module>.<metric>`; `client.*` and `bench.*` describe the load
/// generator and the benchmark itself.
pub const PER_LAYER: &[(&str, &str)] = &[
    // (A) counter deltas over the measured window.
    ("core.controller.busy_frac", "ratio"),
    ("core.controller.defers_per_txn", "1/txn"),
    ("core.controller.checkpoints", "count"),
    ("core.txn.aborted_frac", "ratio"),
    ("core.rpc.requests_per_txn", "1/txn"),
    ("coord.service.reads_per_txn", "1/txn"),
    ("coord.service.writes_per_txn", "1/txn"),
    ("coord.service.multis_per_txn", "1/txn"),
    ("coord.service.ops_per_multi", "count"),
    ("coord.service.watch_events_per_txn", "1/txn"),
    ("coord.ensemble.commits_per_txn", "1/txn"),
    ("coord.wal.fsyncs_per_txn", "1/txn"),
    ("coord.wal.bytes_fsynced_per_txn", "B/txn"),
    ("coord.wal.pipeline_stalls", "count"),
    ("coord.wal.segments_rotated", "count"),
    ("coord.wal.disk_bytes_per_txn", "B/txn"),
    ("coord.snapshot.snapshots_written", "count"),
    ("coord.snapshot.delta_snapshots_written", "count"),
    ("devices.registry.actions_per_txn", "1/txn"),
    ("devices.fault.injected", "count"),
    // (B) client spans around calls into core::api / core::rpc.
    ("core.api.submit_ms_p50", "ms"),
    ("core.api.wait_ms_p50", "ms"),
    ("core.rpc.submit_ms_p50", "ms"),
    ("core.rpc.wait_ms_p50", "ms"),
    ("core.rpc.ping_idle_us_p50", "us"),
    ("client.txn_self_ms_p50", "ms"),
    ("client.lat_p90_ms", "ms"),
    ("client.lat_p99_ms", "ms"),
    ("client.mean_throughput_tps", "txn/s"),
    ("client.sched_lag_max_ms", "ms"),
    ("client.backlog_end", "count"),
    ("client.failed_frac", "ratio"),
    // (C) layer probes: mean cost of one call, replayed in isolation.
    ("core.logical.simulate_us", "us"),
    ("core.logical.rollback_us", "us"),
    ("core.locks.acquire_release_us", "us"),
    ("core.msg.encode_input_us", "us"),
    ("core.msg.decode_input_us", "us"),
    ("core.txn.record_encode_us", "us"),
    ("core.txn.record_decode_us", "us"),
    ("core.txn.record_bytes", "B"),
    ("core.rpc.encode_request_us", "us"),
    ("core.rpc.decode_request_us", "us"),
    ("core.rpc.encode_response_us", "us"),
    ("core.rpc.decode_response_us", "us"),
    ("coord.queue.enqueue_us", "us"),
    ("coord.queue.dequeue_us", "us"),
    ("coord.service.multi_us", "us"),
    ("coord.service.get_data_us", "us"),
    ("coord.service.get_children_us", "us"),
    ("model.tree.clone_us", "us"),
    ("model.tree.diff_us", "us"),
    ("core.controller.checkpoint_encode_ms", "ms"),
    ("core.physical.execute_us", "us"),
    ("devices.registry.invoke_us", "us"),
    // Restart cost and durability of acknowledged commits.
    ("core.platform.recover_s", "s"),
    ("core.platform.acked_lost", "count"),
    // The benchmark on itself.
    ("bench.traced_throughput_tps", "txn/s"),
    ("bench.probe_serial_us_per_txn", "us"),
    ("bench.probe_coverage", "ratio"),
];

/// Derived by `run`/`repeat` from the two passes, so not part of either
/// pass's own result line: `1 - bench.traced_throughput_tps / throughput_tps`.
pub const TRACE_OVERHEAD: (&str, &str) = ("bench.trace_overhead_frac", "ratio");

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

/// The last line a pass prints on standard output.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PassResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, MetricValue>,
}

/// Collects one pass's metrics against a declared table: a name that is
/// not declared, set twice, not finite, or left unset is a bug in the
/// benchmark and fails the pass.
pub struct MetricSet {
    decls: &'static [(&'static str, &'static str)],
    values: BTreeMap<String, MetricValue>,
}

impl MetricSet {
    pub fn new(decls: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet {
            decls,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let (_, unit) = self
            .decls
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        let unit = (*unit).to_owned();
        let old = self
            .values
            .insert(name.to_owned(), MetricValue { value, unit });
        assert!(old.is_none(), "metric `{name}` set twice");
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name].value
    }

    pub fn finish(self) -> BTreeMap<String, MetricValue> {
        for (name, _) in self.decls {
            assert!(self.values.contains_key(*name), "metric `{name}` never set");
        }
        self.values
    }
}

// The binary itself reads only `run_seconds` and the bounds; the tests
// read every field of the declarations below.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Deserialize)]
pub struct WorkloadDecl {
    pub name: String,
    pub why: String,
}

#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Deserialize)]
pub struct EndToEndDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Deserialize)]
pub struct PerLayerDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
}

#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Deserialize)]
pub struct BenchmarkJson {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadDecl>,
    pub end_to_end: Vec<EndToEndDecl>,
    pub per_layer: Vec<PerLayerDecl>,
}

impl BenchmarkJson {
    pub fn load() -> Self {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let json = BenchmarkJson::load();
        let pairs = |decls: &[(&str, &str)]| -> Vec<(String, String)> {
            decls
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let e2e: Vec<_> = json
            .end_to_end
            .iter()
            .map(|d| (d.name.clone(), d.unit.clone()))
            .collect();
        assert_eq!(e2e, pairs(END_TO_END));
        let layers: Vec<_> = json
            .per_layer
            .iter()
            .map(|d| (d.name.clone(), d.unit.clone()))
            .collect();
        assert_eq!(layers, pairs(PER_LAYER));
        let workloads: Vec<&str> = json.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn benchmark_json_stays_inside_the_contract_limits() {
        let json = BenchmarkJson::load();
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        assert!((1..=60).contains(&json.run_seconds));
        assert_eq!(json.paths, ["benchmark"]);
        assert!(json.command.len() <= 32);
        assert!((2..=8).contains(&json.workloads.len()));
        assert!((1..=16).contains(&json.end_to_end.len()));
        assert!((1..=128).contains(&json.per_layer.len()));
        let mut names: Vec<&str> = Vec::new();
        names.extend(json.workloads.iter().map(|w| w.name.as_str()));
        names.extend(json.end_to_end.iter().map(|m| m.name.as_str()));
        names.extend(json.per_layer.iter().map(|m| m.name.as_str()));
        names.push(TRACE_OVERHEAD.0);
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &json.workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in &json.end_to_end {
            assert!(unit_ok(&m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        }
        for m in &json.per_layer {
            assert!(unit_ok(&m.unit), "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        }
        let setup = json
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        assert!(json.end_to_end.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn metric_set_serialises_to_the_contract_shape() {
        let mut set = MetricSet::new(END_TO_END);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            set.set(name, 1.5 + i as f64);
        }
        let line = serde_json::to_string(&PassResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: set.finish(),
        })
        .unwrap();
        assert!(line.starts_with(r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"#));
        assert!(
            line.contains(r#""setup_s":{"value":3.5,"unit":"s"}"#),
            "{line}"
        );
        let back: PassResult = serde_json::from_str(&line).unwrap();
        assert_eq!(back.metrics.len(), END_TO_END.len());
    }
}
