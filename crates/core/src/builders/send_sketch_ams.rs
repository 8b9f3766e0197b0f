//! Send-Sketch (AMS variant): the Gilbert-et-al. wavelet sketch (§4's
//! reference [20]) in the same Send-Sketch pipeline.
//!
//! Mapper-side it is a plain CountSketch over the coefficient domain, so
//! per-key updates are `log_b u`-times cheaper than GCS — but extraction
//! must probe **every** coefficient index (`O(u · rows)`), which is why
//! the paper (and [13]) moved to the Group-Count Sketch. This builder
//! exists as the ablation partner of [`super::SendSketch`].

use super::{ops, reduce_sum, run_build, scan_counts, BuildResult, HistogramBuilder};
use wh_data::Dataset;
use wh_mapreduce::wire::WKey;
use wh_mapreduce::{ClusterConfig, EngineConfig, EngineError, JobSpec, MapTask};
use wh_sketch::AmsWaveletSketch;

/// The AMS Send-Sketch builder.
#[derive(Debug, Clone, Copy)]
pub struct SendSketchAms {
    seed: u64,
    rows: usize,
    cols: usize,
    engine: EngineConfig,
}

impl SendSketchAms {
    /// AMS sketch sized to roughly match the GCS paper default's space
    /// (rows × cols × 8 B ≈ 20 KB · log₂ u).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rows: 5,
            cols: 0,
            engine: EngineConfig::default(),
        }
    }

    /// Overrides the sketch dimensions.
    pub fn with_dims(mut self, rows: usize, cols: usize) -> Self {
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Overrides the execution-engine knobs of the underlying job.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    fn dims_for(&self, dataset: &Dataset) -> (usize, usize) {
        if self.cols > 0 {
            return (self.rows, self.cols);
        }
        let budget_bytes = 20 * 1024 * dataset.domain().log_u().max(1) as usize;
        (self.rows, (budget_bytes / 8 / self.rows).max(16))
    }
}

impl HistogramBuilder for SendSketchAms {
    fn name(&self) -> &'static str {
        "Send-Sketch-AMS"
    }

    fn try_build(
        &self,
        dataset: &Dataset,
        cluster: &ClusterConfig,
        k: usize,
    ) -> Result<BuildResult, EngineError> {
        let domain = dataset.domain();
        assert!(
            domain.log_u() <= 22,
            "AMS extraction probes every coefficient; u ≤ 2^22 required, got {domain}"
        );
        let (rows, cols) = self.dims_for(dataset);
        let seed = self.seed;

        let map_tasks: Vec<MapTask<WKey, f64>> = (0..dataset.num_splits())
            .map(|j| {
                let ds = dataset.clone();
                MapTask::new(j, move |ctx| {
                    let local = scan_counts(&ds, j, ctx);
                    let mut sketch = AmsWaveletSketch::new(domain, rows, cols, seed);
                    let mut row_updates = 0u64;
                    for &(x, c) in &local {
                        row_updates += sketch.update_key(x, c as f64);
                    }
                    ctx.charge(row_updates as f64 * ops::SKETCH_ROW_UPDATE);
                    for (idx, v) in sketch.counter_entries() {
                        ctx.emit(WKey::four(idx), v);
                    }
                })
            })
            .collect();

        // Reducer (`reduce_sum`): sketches are linear, so a merged counter is
        // the sum of the local ones; Close rebuilds the merged sketch from them.
        // Keys are CountSketch counter indices in [0, rows · cols): the
        // tight exclusive bound of `counter_entries`, far smaller than
        // `u` — dense-reduce slot arrays stay a few KB per partition.
        let spec = JobSpec::new("send-sketch-ams", map_tasks, reduce_sum)
            .with_radix_keys()
            .with_wire_codec()
            .with_engine(self.engine.with_key_domain((rows * cols) as u64))
            .with_finish(move |ctx| {
                let mut sketch = AmsWaveletSketch::new(domain, rows, cols, seed);
                for (idx, v) in ctx.take_outputs() {
                    sketch.add_counter(idx, v);
                }
                // Exhaustive query: probe every slot.
                ctx.charge(domain.u_f64() * rows as f64 * ops::SKETCH_ROW_UPDATE);
                for e in sketch.topk_exhaustive(k) {
                    ctx.emit((e.slot, e.value));
                }
            });
        run_build(dataset, cluster, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{Centralized, SendSketch};
    use wh_data::DatasetBuilder;
    use wh_wavelet::Domain;

    fn ds() -> Dataset {
        DatasetBuilder::new()
            .domain(Domain::new(10).unwrap())
            .records(30_000)
            .splits(6)
            .seed(44)
            .build()
    }

    #[test]
    fn recovers_top_coefficients() {
        let cluster = ClusterConfig::paper_cluster();
        let k = 10;
        let exact = Centralized::new().build(&ds(), &cluster, k);
        let ams = SendSketchAms::new(4).build(&ds(), &cluster, k);
        let truth: std::collections::BTreeSet<u64> = exact
            .histogram
            .coefficients()
            .iter()
            .map(|&(s, _)| s)
            .collect();
        let found = ams
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
    fn ams_query_cost_scales_linearly_with_u() {
        // AMS pays at query time (probe all u), GCS does not — the
        // trade-off behind the paper's choice of GCS. Grow the domain 16×
        // on (almost) fixed data: AMS total CPU must blow up much faster
        // than GCS total CPU.
        let cluster = ClusterConfig::paper_cluster();
        let tiny = |log_u: u32| {
            DatasetBuilder::new()
                .domain(Domain::new(log_u).unwrap())
                .records(2_000)
                .splits(2)
                .seed(9)
                .build()
        };
        let ams_small = SendSketchAms::new(1).build(&tiny(14), &cluster, 5);
        let ams_big = SendSketchAms::new(1).build(&tiny(18), &cluster, 5);
        let gcs_small = SendSketch::new(1).build(&tiny(14), &cluster, 5);
        let gcs_big = SendSketch::new(1).build(&tiny(18), &cluster, 5);
        let ams_growth = ams_big.metrics.cpu_ops / ams_small.metrics.cpu_ops;
        let gcs_growth = gcs_big.metrics.cpu_ops / gcs_small.metrics.cpu_ops;
        assert!(
            ams_growth > 4.0 * gcs_growth,
            "AMS growth {ams_growth:.1}x should dwarf GCS growth {gcs_growth:.1}x"
        );
    }

    #[test]
    #[should_panic(expected = "u ≤ 2^22")]
    fn huge_domain_rejected() {
        let big = DatasetBuilder::new()
            .domain(Domain::new(30).unwrap())
            .records(100)
            .splits(1)
            .build();
        SendSketchAms::new(1).build(&big, &ClusterConfig::paper_cluster(), 5);
    }
}
