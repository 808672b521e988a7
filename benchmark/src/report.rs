//! Metric names and units — the vocabulary `BENCHMARK.json` fixes — and
//! the result a run prints.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tick_p50_ms", "ms"),
    ("tick_p99_ms", "ms"),
    ("throughput_upd_s", "1/s"),
    ("cpu_ms_per_tick", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order. A
/// rung that is not on a workload's ladder reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire_kb_per_tick", "KB"),
    ("roadnet.dijkstra.steps_per_tick", "count"),
    ("roadnet.dijkstra.ns_per_step", "ns"),
    ("core.gma.tick_p50_ms", "ms"),
    ("core.gma.tick_p99_ms", "ms"),
    ("core.ima.tick_p50_ms", "ms"),
    ("core.ovh.tick_p50_ms", "ms"),
    ("core.reevals_per_tick", "count"),
    ("core.ignored_share", "ratio"),
    ("core.shared_expansions_per_tick", "count"),
    ("core.alloc_events_per_tick", "count"),
    ("core.state_mb", "MB"),
    ("core.codec.encode_ns_per_event", "ns"),
    ("core.codec.decode_ns_per_event", "ns"),
    ("core.codec.bytes_per_event", "B"),
    ("core.snapshot.capture_ms", "ms"),
    ("core.snapshot.restore_ms", "ms"),
    ("core.snapshot.kb", "KB"),
    ("engine.s1.tick_p50_ms", "ms"),
    ("engine.s1.overhead_ratio", "ratio"),
    ("engine.s2.tick_p50_ms", "ms"),
    ("engine.s2.speedup", "ratio"),
    ("engine.worker.critical_p50_ms", "ms"),
    ("engine.route.self_p50_ms", "ms"),
    ("engine.worker.skew", "ratio"),
    ("engine.halo.resync_per_tick", "count"),
    ("engine.halo.evictions_per_tick", "count"),
    ("engine.halo.replicas", "count"),
    ("engine.rebalance.cells_migrated", "count"),
    ("engine.ingest.tick_p50_ms", "ms"),
    ("engine.ingest.self_p50_ms", "ms"),
    ("engine.ingest.submit_ns_per_event", "ns"),
    ("engine.ingest.drain_p50_ms", "ms"),
    ("engine.ingest.coalesced_share", "ratio"),
    ("cluster.wire.tick_p50_ms", "ms"),
    ("cluster.wire.self_p50_ms", "ms"),
    ("cluster.wire.overhead_ratio", "ratio"),
    ("cluster.wire.frames_per_tick", "count"),
    ("cluster.wire.kb_per_tick", "KB"),
    ("cluster.wire.bytes_per_event", "B"),
    ("cluster.client.retries", "count"),
    ("cluster.install.frames", "count"),
    ("cluster.durable.tick_p50_ms", "ms"),
    ("cluster.durable.self_p50_ms", "ms"),
    ("cluster.wal.append_us_p50", "us"),
    ("cluster.wal.append_us_p99", "us"),
    ("cluster.client.snapshots", "count"),
    ("cluster.client.snapshot_tick_share", "ratio"),
    ("cluster.client.snapshot_stall_p50_ms", "ms"),
    ("cluster.repl.tick_p50_ms", "ms"),
    ("cluster.repl.self_p50_ms", "ms"),
    ("cluster.repl.overhead_ratio", "ratio"),
    ("cluster.replog.kb_per_tick", "KB"),
    ("cluster.replog.commit_lag_frames_per_tick", "count"),
    ("cluster.recovery_ms", "ms"),
    ("cluster.failover_ms", "ms"),
    ("workload.gen_p50_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run of one workload found.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted: one per measured timestamp.
    pub attempted: u64,
    /// Operations that failed (see `README.md`, "Failures").
    pub failed: u64,
    /// Why each failed operation failed, and anything else that makes the
    /// run incorrect (a workload's end condition).
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, tick: usize, why: String) {
        self.failed += 1;
        self.problems.push(format!("tick {tick}: {why}"));
    }

    /// The value `table` prints for `name`: the measurement, or 0 for a
    /// layer this workload's ladder does not reach.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Whether every operation succeeded, every end condition held and
    /// every reported value is a number.
    pub fn correct(&self, table: &[(&str, &str)]) -> bool {
        self.attempted > 0
            && self.failed == 0
            && self.problems.is_empty()
            && table.iter().all(|(n, _)| self.value(n).is_finite())
    }

    /// One line per metric of `table`, then the JSON object the driver
    /// reads from the last line of standard output.
    pub fn render(&self, table: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for p in &self.problems {
            out.push_str(&format!("FAILED {p}\n"));
        }
        for (name, unit) in table {
            out.push_str(&format!("{name:<44} {:>16.4} {unit}\n", self.value(name)));
        }
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(table),
            self.attempted,
            self.failed
        ));
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.value(name);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            out.push_str(&format!(
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}\n");
        out
    }
}
