//! Basic-S: one-round random sampling (§4).
//!
//! First-level sample per split, keys aggregated in the mapper into
//! `(x, s_j(x))` pairs (set [`BasicS::combined`] to `false` for the
//! naive `(x, 1)` emission — an ablation the paper mentions as "a simple
//! optimization for executing any MapReduce job"). The reducer builds the
//! scaled estimate `v̂ = s/p`, transforms it, and keeps the top-k.

use super::sample_common::first_level_counts;
use super::{
    close_with_transform, emit_count, run_build, BuildResult, HistogramBuilder, SumCounts,
};
use crate::basis::{Basis, SplitSource};
use wh_mapreduce::wire::WKey;
use wh_mapreduce::{ClusterConfig, EngineConfig, EngineError, JobSpec, MapTask};
use wh_sampling::SamplingConfig;

/// The Basic-S sampling builder.
#[derive(Debug, Clone, Copy)]
pub struct BasicS {
    epsilon: f64,
    seed: u64,
    combined: bool,
    engine: EngineConfig,
}

impl BasicS {
    /// Basic sampling with error parameter `ε` and a sampling seed.
    pub fn new(epsilon: f64, seed: u64) -> Self {
        Self {
            epsilon,
            seed,
            combined: true,
            engine: EngineConfig::default(),
        }
    }

    /// Enables/disables the in-mapper aggregation (ablation).
    pub fn combined(mut self, combined: bool) -> Self {
        self.combined = combined;
        self
    }

    /// Overrides the execution-engine knobs of the underlying job.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }
}

impl<S: SplitSource> HistogramBuilder<S> for BasicS {
    fn name(&self) -> &'static str {
        "Basic-S"
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
        let combined = self.combined;
        let seed = self.seed;

        let map_tasks: Vec<MapTask<WKey, u32>> = (0..dataset.num_splits())
            .map(|j| {
                let ds = dataset.clone();
                MapTask::new(j, move |ctx| {
                    let (counts, _t_j) = first_level_counts(&ds, &cfg, j, seed, ctx);
                    let mut keys: Vec<u64> = counts.keys().copied().collect();
                    keys.sort_unstable();
                    if combined {
                        for x in keys {
                            emit_count(counts[&x], |c| ctx.emit(WKey::new(x, key_bytes), c));
                        }
                    } else {
                        for x in keys {
                            for _ in 0..counts[&x] {
                                ctx.emit(WKey::new(x, key_bytes), 1);
                            }
                        }
                    }
                })
            })
            .collect();

        // Sampled item keys stay below the basis's bound, the tightest
        // static one (the sample itself is data-dependent); the dense-reduce
        // tables shrink to each partition's actual key range at run time,
        // so the loose-looking hint costs nothing.
        let spec = JobSpec::folding("basic-s", map_tasks, SumCounts { p: cfg.p() })
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
    use wh_data::{Dataset, DatasetBuilder};
    use wh_wavelet::Domain;

    fn ds() -> Dataset {
        DatasetBuilder::new()
            .domain(Domain::new(8).unwrap())
            .records(40_000)
            .splits(8)
            .seed(21)
            .build()
    }

    #[test]
    fn sample_size_tracks_one_over_eps_squared() {
        let eps = 0.02; // 1/ε² = 2500
        let result = BasicS::new(eps, 1).build(&ds(), &ClusterConfig::paper_cluster(), 8);
        let scanned = result.metrics.records_scanned;
        assert!(
            (1_800..3_200).contains(&scanned),
            "scanned {scanned}, expected ≈ 2500"
        );
    }

    #[test]
    fn combined_emits_fewer_pairs_than_uncombined() {
        let eps = 0.02;
        let cluster = ClusterConfig::paper_cluster();
        let with = BasicS::new(eps, 1).build(&ds(), &cluster, 8);
        let without = BasicS::new(eps, 1)
            .combined(false)
            .build(&ds(), &cluster, 8);
        assert!(with.metrics.map_output_pairs < without.metrics.map_output_pairs);
        // Uncombined sends exactly the sample size.
        assert_eq!(
            without.metrics.map_output_pairs,
            without.metrics.records_scanned
        );
    }

    #[test]
    fn estimates_total_mass_roughly() {
        // The histogram's full-range sum estimates n.
        let result = BasicS::new(0.02, 3).build(&ds(), &ClusterConfig::paper_cluster(), 64);
        let total = result.histogram.range_sum(0, 255);
        assert!(
            (total - 40_000.0).abs() < 8_000.0,
            "total estimate {total}, want ≈ 40000"
        );
    }
}
