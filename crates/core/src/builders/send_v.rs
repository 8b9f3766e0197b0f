//! Send-V: the exact baseline that ships local frequency vectors (§3).
//!
//! Each mapper counts its split into the local frequency vector `v_j`
//! and emits one `(x, v_j(x))` pair per distinct key, in key order (this *is*
//! the Combine optimisation; a naive mapper would emit `(x, 1)` per
//! record). The single reducer aggregates `v = Σ v_j`, transforms, and
//! keeps the top-k. Communication is `O(m·u)` in the worst case — the
//! drawback motivating H-WTopk.

use super::{
    close_with_transform, emit_count, run_build, scan_counts, BuildResult, HistogramBuilder,
    SumCounts,
};
use crate::basis::{Basis, SplitSource};
use wh_mapreduce::wire::WKey;
use wh_mapreduce::{ClusterConfig, EngineConfig, EngineError, JobSpec, MapTask};

/// The Send-V baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct SendV {
    engine: EngineConfig,
}

impl SendV {
    /// Creates the builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the execution-engine knobs of the underlying job.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }
}

impl<S: SplitSource> HistogramBuilder<S> for SendV {
    fn name(&self) -> &'static str {
        "Send-V"
    }

    fn try_build(
        &self,
        dataset: &S,
        cluster: &ClusterConfig,
        k: usize,
    ) -> Result<BuildResult<S::Histogram>, EngineError> {
        let domain = dataset.domain();
        let key_bytes = dataset.key_bytes() as u8;

        // Mapper: aggregate the split into v_j, emit (x, v_j(x)). Counts
        // are 4-byte integers mapper-side (§5 setup), held as `u32`.
        let map_tasks: Vec<MapTask<WKey, u32>> = (0..dataset.num_splits())
            .map(|j| {
                let ds = dataset.clone();
                MapTask::new(j, move |ctx| {
                    let local = scan_counts(&ds, j, ctx);
                    for (x, count) in local {
                        emit_count(count, |c| ctx.emit(WKey::new(x, key_bytes), c));
                    }
                })
            })
            .collect();

        // Close transforms the exact sums and keeps the top-k. Radix keys
        // + the basis's bounded key domain select the dense-reduce
        // strategy (while the bound fits its cap), whose per-partition
        // tables size themselves to each partition's actual key range.
        let spec = JobSpec::folding("send-v", map_tasks, EXACT_COUNTS)
            .with_radix_keys()
            .with_wire_codec()
            .with_engine(
                self.engine
                    .with_key_domain(S::Histogram::slot_bound(domain)),
            )
            .with_finish(move |ctx| close_with_transform::<S::Histogram>(ctx, domain, k));
        run_build(dataset, cluster, spec)
    }
}

/// Reducer: v(x) = Σ v_j(x) (8-byte accumulators reducer-side), one
/// record per key — the samplers' count sum at rate 1.
const EXACT_COUNTS: SumCounts = SumCounts { p: 1.0 };

#[cfg(test)]
mod tests {
    use super::*;
    use wh_data::DatasetBuilder;
    use wh_mapreduce::{run_job, MapContext};
    use wh_wavelet::Domain;

    #[test]
    fn counts_past_u32_ship_as_parts_the_reducer_adds_back() {
        // Key x ships counts[x] as one, two and three u32 parts.
        let counts = [u64::from(u32::MAX), u64::from(u32::MAX) + 1, (1 << 33) + 5];
        let map = MapTask::new(0, move |ctx: &mut MapContext<WKey, u32>| {
            for (x, &count) in counts.iter().enumerate() {
                emit_count(count, |c| ctx.emit(WKey::four(x as u64), c));
            }
        });
        let spec = JobSpec::folding("send-v-parts", vec![map], EXACT_COUNTS);
        let out = run_job(&ClusterConfig::paper_cluster(), spec);
        assert_eq!(out.metrics.map_output_pairs, 1 + 2 + 3);
        let want: Vec<(u64, f64)> = (0..3).map(|x| (x, counts[x as usize] as f64)).collect();
        assert_eq!(out.outputs, want);
    }

    #[test]
    fn communication_counts_distinct_keys_per_split() {
        // Two splits with disjoint tiny key sets: shuffle bytes must equal
        // distinct pairs × (4 + 4).
        let ds = DatasetBuilder::new()
            .domain(Domain::new(4).unwrap())
            .records(1_000)
            .splits(2)
            .seed(11)
            .build();
        let result = SendV::new().build(&ds, &ClusterConfig::paper_cluster(), 4);
        let pairs = result.metrics.map_output_pairs;
        assert_eq!(result.metrics.shuffle_bytes, pairs * 8);
        // ≤ m × u pairs.
        assert!(pairs <= 2 * 16);
        assert_eq!(result.metrics.records_scanned, 1_000);
    }

    #[test]
    fn respects_key_width() {
        let ds = DatasetBuilder::new()
            .domain(Domain::new(4).unwrap())
            .records(100)
            .splits(1)
            .key_bytes(8)
            .record_bytes(8)
            .build();
        let result = SendV::new().build(&ds, &ClusterConfig::paper_cluster(), 4);
        let pairs = result.metrics.map_output_pairs;
        assert_eq!(result.metrics.shuffle_bytes, pairs * 12); // 8B key + 4B count
    }
}
