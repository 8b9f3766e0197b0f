//! Improved-S: sampling with low-frequency suppression (§4).
//!
//! Identical to Basic-S except each split only emits keys whose local
//! sample count reaches `ε·t_j`, bounding emission at `1/ε` pairs per
//! split (`O(m/ε)` total) at the price of a biased estimator — the
//! reducer never sees the dropped counts, so `E[v̂(x)]` can sit `εn` below
//! `v(x)` (the widening SSE gap of Figs. 6–7).

use super::sample_common::first_level_counts;
use super::{
    close_with_transform, emit_count, run_build, BuildResult, HistogramBuilder, SumCounts,
};
use crate::basis::{Basis, SplitSource};
use wh_mapreduce::wire::WKey;
use wh_mapreduce::{ClusterConfig, EngineConfig, EngineError, JobSpec, MapTask};
use wh_sampling::SamplingConfig;

/// The Improved-S sampling builder.
#[derive(Debug, Clone, Copy)]
pub struct ImprovedS {
    epsilon: f64,
    seed: u64,
    engine: EngineConfig,
}

impl ImprovedS {
    /// Improved sampling with error parameter `ε` and a sampling seed.
    pub fn new(epsilon: f64, seed: u64) -> Self {
        Self {
            epsilon,
            seed,
            engine: EngineConfig::default(),
        }
    }

    /// Overrides the execution-engine knobs of the underlying job.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }
}

impl<S: SplitSource> HistogramBuilder<S> for ImprovedS {
    fn name(&self) -> &'static str {
        "Improved-S"
    }

    fn try_build(
        &self,
        dataset: &S,
        cluster: &ClusterConfig,
        k: usize,
    ) -> Result<BuildResult<S::Histogram>, EngineError> {
        let domain = dataset.domain();
        let cfg = SamplingConfig::new(self.epsilon, dataset.num_splits(), dataset.num_records());
        let key_bytes = dataset.key_bytes() as u8;
        let seed = self.seed;
        let epsilon = self.epsilon;

        let map_tasks: Vec<MapTask<WKey, u32>> = (0..dataset.num_splits())
            .map(|j| {
                let ds = dataset.clone();
                MapTask::new(j, move |ctx| {
                    let (counts, t_j) = first_level_counts(&ds, &cfg, j, seed, ctx);
                    for (x, c) in wh_sampling::improved::emit(&counts, epsilon, t_j) {
                        emit_count(c, |c| ctx.emit(WKey::new(x, key_bytes), c));
                    }
                })
            })
            .collect();

        // Sampled item keys stay below the basis's bound, the tightest
        // static one (the emitted subset is data-dependent); the dense-reduce
        // tables shrink to each partition's actual key range at run time,
        // so the loose-looking hint costs nothing.
        let spec = JobSpec::folding("improved-s", map_tasks, SumCounts { p: cfg.p() })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::BasicS;
    use wh_data::{Dataset, DatasetBuilder};
    use wh_wavelet::Domain;

    fn ds() -> Dataset {
        DatasetBuilder::new()
            .domain(Domain::new(10).unwrap())
            .records(40_000)
            .splits(16)
            .seed(33)
            .build()
    }

    #[test]
    fn communication_bounded_by_m_over_eps() {
        let eps = 0.05;
        let result = ImprovedS::new(eps, 1).build(&ds(), &ClusterConfig::paper_cluster(), 8);
        let bound = 16.0 / eps; // m/ε pairs
        assert!(
            (result.metrics.map_output_pairs as f64) <= bound,
            "pairs {} exceed m/ε = {bound}",
            result.metrics.map_output_pairs
        );
    }

    #[test]
    fn never_emits_more_than_basic() {
        let eps = 0.02;
        let cluster = ClusterConfig::paper_cluster();
        let basic = BasicS::new(eps, 5).build(&ds(), &cluster, 8);
        let improved = ImprovedS::new(eps, 5).build(&ds(), &cluster, 8);
        assert!(improved.metrics.map_output_pairs <= basic.metrics.map_output_pairs);
    }

    #[test]
    fn bias_underestimates_total_mass() {
        // Dropped counts can only shrink the estimated total.
        let result = ImprovedS::new(0.02, 7).build(&ds(), &ClusterConfig::paper_cluster(), 128);
        let total = result.histogram.range_sum(0, 1023);
        assert!(
            total <= 40_000.0 * 1.05,
            "total {total} should not exceed n"
        );
    }
}
