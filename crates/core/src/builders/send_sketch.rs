//! Send-Sketch: the GCS sketching baseline (§4, choice (ii)).
//!
//! Each mapper builds the local frequency vector first and then feeds each
//! *distinct* key into the Group-Count Sketch once (the paper's first
//! optimisation), emits the non-zero sketch counters (the second
//! optimisation), and the reducer merges the `m` sketches — they are
//! linear — and extracts the top-k by hierarchical descent. This resolves
//! the multi-round and communication issues of the exact methods but still
//! scans every record, and its per-key update cost
//! (`(log u + 1) · levels · rows` row-updates) is why the paper measures
//! it as the slowest method by far.
//!
//! The emission rule is exact: a split ships precisely its counters that
//! are non-zero after all of its float updates, each as a bare `u32`
//! counter index and an 8-byte double (12 B on the wire). A counter whose
//! updates cancelled back to `0.0` is not shipped; merging is unchanged
//! by that, since adding `0.0` is the identity.

use super::{ops, run_build, scan_counts, BuildResult, HistogramBuilder, SlotKey, SumParts};
use wh_data::Dataset;
use wh_mapreduce::{ClusterConfig, EngineConfig, EngineError, JobSpec, MapTask};
use wh_sketch::{GcsParams, GroupCountSketch};

/// The Send-Sketch builder (GCS).
#[derive(Debug, Clone, Copy)]
pub struct SendSketch {
    seed: u64,
    /// Override for the sketch parameters; `None` = paper default
    /// (GCS-8 at 20 KB·log₂u).
    params: Option<GcsParams>,
    engine: EngineConfig,
}

impl SendSketch {
    /// GCS Send-Sketch with the paper's default sizing.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            params: None,
            engine: EngineConfig::default(),
        }
    }

    /// Overrides the sketch parameters (branching-factor ablations).
    pub fn with_params(mut self, params: GcsParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Overrides the execution-engine knobs of the underlying job.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    fn params_for(&self, dataset: &Dataset) -> GcsParams {
        self.params
            .unwrap_or_else(|| GcsParams::paper_default(dataset.domain(), self.seed))
    }
}

impl HistogramBuilder for SendSketch {
    fn name(&self) -> &'static str {
        "Send-Sketch"
    }

    fn try_build(
        &self,
        dataset: &Dataset,
        cluster: &ClusterConfig,
        k: usize,
    ) -> Result<BuildResult, EngineError> {
        let domain = dataset.domain();
        let params = self.params_for(dataset);
        // Keys are global GCS counter indices in [0, total_counters):
        // the sketch never emits an index beyond its own size, so this is
        // the tight exclusive bound (and far smaller than `u`, which
        // keeps the dense-reduce slot arrays tiny). It fits the 4-byte
        // counter index the paper ships.
        let mut merged = GroupCountSketch::new(domain, params);
        let counter_domain = merged.total_counters() as u64;
        assert!(
            counter_domain <= 1 << 32,
            "{counter_domain} GCS counters do not fit 4-byte indices"
        );

        let map_tasks: Vec<MapTask<u32, f64>> = (0..dataset.num_splits())
            .map(|j| {
                let ds = dataset.clone();
                MapTask::new(j, move |ctx| {
                    let local = scan_counts(&ds, j, ctx);
                    let mut sketch = GroupCountSketch::new(domain, params);
                    let mut row_updates = 0u64;
                    for &(x, c) in &local {
                        row_updates += sketch.update_key(x, c as f64);
                    }
                    ctx.charge(row_updates as f64 * ops::SKETCH_ROW_UPDATE);
                    // Emit exactly the counters non-zero after the
                    // updates (sketch entries are 8-byte doubles keyed by a
                    // 4-byte counter index).
                    for (idx, v) in sketch.counter_entries() {
                        ctx.emit(u32::from_slot(idx), v);
                    }
                })
            })
            .collect();

        // Reducer (`SumParts`): sketches are linear, so a merged counter is
        // the sum of the local ones; Close rebuilds the merged sketch from
        // them, reading each partition's counters in place.
        let spec = JobSpec::folding("send-sketch", map_tasks, SumParts)
            .with_radix_keys()
            .with_wire_codec()
            .with_engine(self.engine.with_key_domain(counter_domain))
            .with_finish(move |ctx| {
                for (idx, v) in ctx.take_partitions().into_iter().flatten() {
                    merged.add_counter(idx, v);
                }
                let budget = 8 * k.max(1) * domain.log_u().max(1) as usize;
                let top = merged.topk(k, budget);
                // Best-first descent: each expansion probes `branching` child
                // groups over `rows` rows of `subbuckets` counters.
                ctx.charge(
                    budget as f64
                        * params.branching as f64
                        * params.rows as f64
                        * params.subbuckets as f64,
                );
                for e in top {
                    ctx.emit((e.slot, e.value));
                }
            });
        run_build(dataset, cluster, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::SplitSource;
    use crate::builders::Centralized;
    use wh_data::DatasetBuilder;
    use wh_wavelet::Domain;

    fn ds() -> Dataset {
        DatasetBuilder::new()
            .domain(Domain::new(10).unwrap())
            .records(30_000)
            .splits(6)
            .seed(99)
            .build()
    }

    #[test]
    fn finds_most_of_the_true_topk() {
        let cluster = ClusterConfig::paper_cluster();
        let k = 10;
        let exact = Centralized::new().build(&ds(), &cluster, k);
        let sketch = SendSketch::new(4).build(&ds(), &cluster, k);
        let truth: std::collections::BTreeSet<u64> = exact
            .histogram
            .coefficients()
            .iter()
            .map(|&(s, _)| s)
            .collect();
        let found = sketch
            .histogram
            .coefficients()
            .iter()
            .filter(|&&(s, _)| truth.contains(&s))
            .count();
        assert!(
            found >= k / 2,
            "only {found}/{k} true coefficients recovered"
        );
    }

    #[test]
    fn splits_ship_exactly_their_non_zero_counters() {
        let ds = ds();
        let builder = SendSketch::new(4);
        let params = builder.params_for(&ds);
        let non_zero: u64 = (0..ds.num_splits())
            .map(|j| {
                let mut local = GroupCountSketch::new(ds.domain(), params);
                for (x, c) in ds.split_counts(j) {
                    local.update_key(x, c as f64);
                }
                local.counter_entries().count() as u64
            })
            .sum();
        let got = builder.build(&ds, &ClusterConfig::paper_cluster(), 10);
        assert_eq!(got.metrics.map_output_pairs, non_zero);
        assert_eq!(got.metrics.total_comm_bytes(), 12 * non_zero);
    }

    #[test]
    fn sketch_cpu_cost_dominates() {
        // The paper's observation: Send-Sketch burns far more CPU than
        // Send-V on the same scan.
        let cluster = ClusterConfig::paper_cluster();
        let sv = super::super::SendV::new().build(&ds(), &cluster, 10);
        let sk = SendSketch::new(4).build(&ds(), &cluster, 10);
        assert!(
            sk.metrics.cpu_ops > 5.0 * sv.metrics.cpu_ops,
            "sketch {} ops vs send-v {} ops",
            sk.metrics.cpu_ops,
            sv.metrics.cpu_ops
        );
    }

    #[test]
    fn custom_params_respected() {
        let params = GcsParams {
            branching: 4,
            rows: 3,
            buckets: 64,
            subbuckets: 8,
            seed: 5,
        };
        let r =
            SendSketch::new(5)
                .with_params(params)
                .build(&ds(), &ClusterConfig::paper_cluster(), 5);
        assert!(!r.histogram.is_empty());
    }
}
