//! TwoLevel-S: the paper's main contribution on the approximation side
//! (§4, Figs. 3–4, Appendix B).
//!
//! First-level sample per split, then second-level frequency-proportional
//! sampling of the local counts: heavy keys (`s_j(x) ≥ 1/(ε√m)`) ship
//! exactly, light keys ship as bare `(x, NULL)` markers with probability
//! `ε√m·s_j(x)`. The reducer forms the unbiased estimator
//! `ŝ(x) = ρ(x) + M/(ε√m)` (Theorem 1), scales by `1/p`, transforms, and
//! keeps the top-k. Expected communication is `O(√m/ε)` (Theorem 3).

use super::sample_common::first_level_counts;
use super::{close_with_transform, ops, run_build, BuildResult, HistogramBuilder, KeyedOutputs};
use crate::basis::{Basis, SplitSource};
use wh_data::SplitMix64;
use wh_mapreduce::wire::WKey;
use wh_mapreduce::{
    ClusterConfig, EngineConfig, EngineError, Fold, JobSpec, MapTask, WireCodec, WireError,
    WireSize,
};
use wh_sampling::{SamplingConfig, TwoLevelAccumulator, TwoLevelPair};

/// Wire wrapper for [`TwoLevelPair`]: an exact count costs 4 bytes, a bare
/// marker costs nothing beyond its key — matching the paper's accounting
/// where the `√m/ε` marker keys dominate communication at ~4 B each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TlValue(TwoLevelPair);

impl WireSize for TlValue {
    fn wire_bytes(&self) -> u64 {
        match self.0 {
            TwoLevelPair::Count(_) => 4,
            TwoLevelPair::Marker => 0,
        }
    }
}

// Physical encoding for the multi-process engine: a tag byte, plus the
// count for `Count`. (The *accounted* wire size above stays the paper's
// idealized 4 B/0 B — framing overhead is measured separately.)
impl WireCodec for TlValue {
    fn encode_wire(&self, out: &mut Vec<u8>) {
        match self.0 {
            TwoLevelPair::Count(n) => {
                out.push(1);
                n.encode_wire(out);
            }
            TwoLevelPair::Marker => out.push(0),
        }
    }

    fn decode_wire(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode_wire(input)? {
            0 => Ok(TlValue(TwoLevelPair::Marker)),
            1 => Ok(TlValue(TwoLevelPair::Count(u64::decode_wire(input)?))),
            _ => Err(WireError::Invalid("two-level pair tag")),
        }
    }
}

/// The reducer: `v̂(x) = ŝ(x)/p` from the key's exact counts and markers,
/// absorbed one by one into a [`TwoLevelAccumulator`].
struct Estimate {
    cfg: SamplingConfig,
}

impl Fold<WKey, TlValue, (u64, f64)> for Estimate {
    type Acc = TwoLevelAccumulator;
    fn first(&self, value: TlValue) -> TwoLevelAccumulator {
        let mut acc = TwoLevelAccumulator::default();
        acc.absorb(value.0);
        acc
    }
    fn fold(&self, acc: &mut TwoLevelAccumulator, value: TlValue) {
        acc.absorb(value.0);
    }
    fn finish(&self, key: WKey, acc: TwoLevelAccumulator, count: u64, ctx: &mut KeyedOutputs) {
        ctx.charge(count as f64 * ops::REDUCE_PAIR);
        ctx.emit((key.id, acc.estimate_v(&self.cfg)));
    }
}

/// The TwoLevel-S sampling builder.
#[derive(Debug, Clone, Copy)]
pub struct TwoLevelS {
    epsilon: f64,
    seed: u64,
    threshold_exponent: f64,
    engine: EngineConfig,
}

impl TwoLevelS {
    /// Two-level sampling with error parameter `ε` and a sampling seed.
    pub fn new(epsilon: f64, seed: u64) -> Self {
        Self {
            epsilon,
            seed,
            threshold_exponent: 0.5,
            engine: EngineConfig::default(),
        }
    }

    /// Overrides the second-level threshold exponent γ (default ½ — the
    /// paper's `1/(ε√m)`). Exposed for the `figures ablations` sweep,
    /// which shows the √m choice is the communication sweet spot.
    pub fn with_threshold_exponent(mut self, gamma: f64) -> Self {
        self.threshold_exponent = gamma;
        self
    }

    /// Overrides the execution-engine knobs of the underlying job.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// The effective sampling configuration for `dataset`.
    pub fn config_for<S: SplitSource>(&self, dataset: &S) -> SamplingConfig {
        SamplingConfig::new(self.epsilon, dataset.num_splits(), dataset.num_records())
            .with_threshold_exponent(self.threshold_exponent)
    }
}

impl<S: SplitSource> HistogramBuilder<S> for TwoLevelS {
    fn name(&self) -> &'static str {
        "TwoLevel-S"
    }

    fn try_build(
        &self,
        dataset: &S,
        cluster: &ClusterConfig,
        k: usize,
    ) -> Result<BuildResult<S::Histogram>, EngineError> {
        let domain = dataset.domain();
        let cfg = self.config_for(dataset);
        let key_bytes = dataset.key_bytes() as u8;
        let seed = self.seed;

        let map_tasks: Vec<MapTask<WKey, TlValue>> = (0..dataset.num_splits())
            .map(|j| {
                let ds = dataset.clone();
                MapTask::new(j, move |ctx| {
                    let (counts, _t_j) = first_level_counts(&ds, &cfg, j, seed, ctx);
                    // Independent second-level draws per split.
                    let mut rng = SplitMix64::new(seed ^ 0x2e2e ^ (u64::from(j) << 32));
                    ctx.charge(counts.len() as f64);
                    for (x, pair) in wh_sampling::two_level::emit(&counts, &cfg, &mut rng) {
                        ctx.emit(WKey::new(x, key_bytes), TlValue(pair));
                    }
                })
            })
            .collect();

        // Sampled item keys stay below the basis's bound, the tightest
        // static one (second-level draws are data-dependent); the
        // dense-reduce tables shrink to each partition's actual key range
        // at run time, so the loose-looking hint costs nothing.
        let spec = JobSpec::folding("two-level-s", map_tasks, Estimate { cfg })
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
    use crate::builders::ImprovedS;
    use wh_data::{Dataset, DatasetBuilder};
    use wh_wavelet::Domain;

    fn ds(splits: u32) -> Dataset {
        DatasetBuilder::new()
            .domain(Domain::new(10).unwrap())
            .records(60_000)
            .splits(splits)
            .seed(55)
            .build()
    }

    #[test]
    fn communication_scales_like_sqrt_m_over_eps() {
        let eps = 0.02;
        let cluster = ClusterConfig::paper_cluster();
        let result = TwoLevelS::new(eps, 2).build(&ds(25), &cluster, 8);
        // Theorem 3: expected emitted keys ≤ 2·√m/ε = 500.
        let bound = 2.0 * 5.0 / eps;
        assert!(
            (result.metrics.map_output_pairs as f64) < bound * 1.3,
            "pairs {} vs bound {bound}",
            result.metrics.map_output_pairs
        );
    }

    #[test]
    fn beats_improved_on_many_splits() {
        // The √m separation: with m = 64 splits TwoLevel should emit
        // clearly less than Improved on heavy-tailed data.
        let eps = 0.015;
        let cluster = ClusterConfig::paper_cluster();
        let d = ds(64);
        let improved = ImprovedS::new(eps, 2).build(&d, &cluster, 8);
        let two = TwoLevelS::new(eps, 2).build(&d, &cluster, 8);
        assert!(
            two.metrics.shuffle_bytes < improved.metrics.shuffle_bytes,
            "TwoLevel {} vs Improved {}",
            two.metrics.shuffle_bytes,
            improved.metrics.shuffle_bytes
        );
    }

    #[test]
    fn unbiased_total_mass() {
        // Average over several sampling seeds should approach n.
        let cluster = ClusterConfig::paper_cluster();
        let d = ds(16);
        let mut total = 0.0;
        let runs = 8;
        for seed in 0..runs {
            let r = TwoLevelS::new(0.02, seed).build(&d, &cluster, 256);
            total += r.histogram.range_sum(0, 1023);
        }
        let mean = total / runs as f64;
        assert!(
            (mean - 60_000.0).abs() < 6_000.0,
            "mean total {mean}, want ≈ 60000"
        );
    }

    #[test]
    fn one_round_only() {
        let r = TwoLevelS::new(0.05, 1).build(&ds(9), &ClusterConfig::paper_cluster(), 8);
        assert_eq!(r.metrics.rounds, 1);
        assert_eq!(r.metrics.broadcast_bytes, 0);
    }
}
