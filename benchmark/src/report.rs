//! Metric names, units and bounds, and the per-workload result that
//! collects them. `BENCHMARK.json` repeats these tables for the driver;
//! `--selfcheck` reads the bounds from here.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher: bool,
    /// Relative worsening of the median that counts as a regression
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: 0.0,
    }
}

/// Measured with tracing off; every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("work_per_s", "1/s", true, 0.25),
    e2e("op_p50_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.15),
];

/// Measured by the traced run; a layer a workload does not exercise
/// reports 0.
pub const PER_LAYER: &[Metric] = &[
    layer("data.scan_s", "s", false),
    layer("data.scan_records_per_s", "1/s", true),
    layer("data.sample_records_per_s", "1/s", true),
    layer("wavelet.sparse_transform_s", "s", false),
    layer("wavelet.select_s", "s", false),
    layer("sampling.sampled_records", "count", false),
    layer("sampling.emitted_pairs", "count", false),
    layer("sampling.emit_s", "s", false),
    layer("topk.two_sided_s", "s", false),
    layer("topk.round_items", "count", false),
    layer("mapreduce.wall_map_s", "s", false),
    layer("mapreduce.wall_shuffle_s", "s", false),
    layer("mapreduce.wall_reduce_s", "s", false),
    layer("mapreduce.map_output_pairs", "count", false),
    layer("mapreduce.shuffle_bytes", "B", false),
    layer("mapreduce.comm_bytes", "B", false),
    layer("mapreduce.rounds", "count", false),
    layer("mapreduce.pairs_per_record", "ratio", false),
    layer("mapreduce.reduce_dense", "count", true),
    layer("mapreduce.reduce_sort", "count", false),
    layer("mapreduce.reduce_merge", "count", false),
    layer("mapreduce.radix_sort_pairs_per_s", "1/s", true),
    layer("mapreduce.job_overhead_ms", "ms", false),
    layer("mapreduce.wire_pair_bytes", "B", false),
    layer("mapreduce.wire_frame_bytes", "B", false),
    layer("mapreduce.wire_frames", "count", false),
    layer("mapreduce.wire_state_bytes", "B", false),
    layer("mapreduce.wire_comm_rounds", "count", false),
    layer("mapreduce.wire_mb_per_s", "MB/s", true),
    layer("mapreduce.wire_over_inprocess", "ratio", false),
    layer("mapreduce.recovery_attempts", "count", false),
    layer("mapreduce.tasks_retried", "count", false),
    layer("mapreduce.sim_time_s", "s", false),
    layer("core.build_self_s", "s", false),
    layer("core.budget_unexplained_share", "ratio", false),
    layer("core.sse_over_ideal", "ratio", false),
    layer("core.merge_delta_ms", "ms", false),
    layer("core.snapshot_ms", "ms", false),
    layer("query.compile_ms", "ms", false),
    layer("query.recompile_ms", "ms", false),
    layer("query.compile2d_ms", "ms", false),
    layer("query.shard_ms", "ms", false),
    layer("query.segments", "count", false),
    layer("query.batch_ns_per_estimate", "ns", false),
    layer("query.single_ns_per_estimate", "ns", false),
    layer("query.batch2d_ns_per_estimate", "ns", false),
    layer("query.single2d_ns_per_estimate", "ns", false),
    layer("query.batch2d_over_single2d", "ratio", true),
    layer("serve.tier_over_direct", "ratio", false),
    layer("serve.scaling_efficiency", "ratio", true),
    layer("serve.publish_ms", "ms", false),
    layer("serve.generation_visible_us", "us", false),
    layer("serve.batch_p50_us", "us", false),
    layer("serve.batch_p99_us", "us", false),
    layer("serve.batch_p999_us", "us", false),
    layer("serve.reader_batch_p99_us_under_refresh", "us", false),
    layer("serve.refresh_p90_ms", "ms", false),
    layer("serve.failed_probes", "count", false),
    layer("trace.spans", "count", false),
    layer("trace.overhead_share", "ratio", false),
];

/// Exact counts (and ratios of exact sums): two runs of one seed must
/// repeat them bit for bit. Frame counts are left out: where a frame is
/// cut may depend on pipe timing.
pub const EXACT: &[&str] = &[
    "sampling.sampled_records",
    "sampling.emitted_pairs",
    "mapreduce.map_output_pairs",
    "mapreduce.shuffle_bytes",
    "mapreduce.comm_bytes",
    "mapreduce.rounds",
    "mapreduce.pairs_per_record",
    "mapreduce.reduce_dense",
    "mapreduce.reduce_sort",
    "mapreduce.reduce_merge",
    "mapreduce.wire_pair_bytes",
    "mapreduce.wire_state_bytes",
    "mapreduce.tasks_retried",
    "core.sse_over_ideal",
];

/// How many offending operations are printed in full.
const MAX_FAILURES_SHOWN: usize = 8;

/// One workload's result: metric values plus the failure account.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Accounts one attempted operation; `Err` names what went wrong.
    pub fn op(&mut self, what: impl FnOnce() -> String, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURES_SHOWN {
                self.failures.push(format!("{}: {why}", what()));
            }
        }
    }

    /// Accounts `n` operations that succeeded.
    pub fn ok_ops(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The contract's result line: exactly `table`'s metrics (a layer
    /// metric left unset is 0; an end-to-end one must have been set).
    pub fn result_json(&self, table: &[Metric], require_all: bool) -> String {
        let mut metrics = String::new();
        for m in table {
            let value = match self.get(m.name) {
                Some(v) => v,
                None if require_all => panic!("end-to-end metric {} was not measured", m.name),
                None => 0.0,
            };
            assert!(value.is_finite(), "metric {} is {value}", m.name);
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(EXACT.iter().all(|e| PER_LAYER.iter().any(|m| m.name == *e)));
    }

    #[test]
    fn result_line_counts_failures() {
        let mut r = Report::default();
        r.op(|| "build 0".into(), Ok(()));
        r.op(|| "build 1".into(), Err("differs".into()));
        r.set("data.scan_s", 0.5);
        let line = r.result_json(PER_LAYER, false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(line.contains("\"data.scan_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert_eq!(r.failures(), ["build 1: differs"]);
    }
}
