//! Send-Coef: the second exact baseline (§3) — ship local wavelet
//! coefficients instead of local frequency vectors.
//!
//! Because the transform is linear, `w_i = Σ_j w_{i,j}`; each mapper
//! transforms its split and emits every non-zero local coefficient. The
//! paper's Fig. 12 shows why this loses to Send-V: each key touches
//! `log u + 1` coefficients, so the number of non-zero local coefficients
//! is almost always much larger than the number of distinct keys.
//!
//! A pair is the paper's 4-byte coefficient index and 8-byte double: the
//! index ships as a bare `u32` (12 B on the wire, 16 B in the engine's
//! buffers), or as a `u64` (16 B both) when the basis has slots past 2^32.

use super::{
    close_with_top_k, ops, run_build, scan_counts, slots_fit_u32, BuildResult, HistogramBuilder,
    SlotKey, SumParts,
};
use crate::basis::{Basis, SplitSource};
use wh_mapreduce::{ClusterConfig, EngineConfig, EngineError, JobSpec, MapTask};

/// The Send-Coef baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct SendCoef {
    engine: EngineConfig,
}

impl SendCoef {
    /// Creates the builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the execution-engine knobs of the underlying job.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// The build, with coefficient indices keyed as `K`.
    fn build_keyed<S: SplitSource, K: SlotKey>(
        &self,
        dataset: &S,
        cluster: &ClusterConfig,
        k: usize,
    ) -> Result<BuildResult<S::Histogram>, EngineError> {
        let domain = dataset.domain();
        let slot_bound = S::Histogram::slot_bound(domain);
        let map_tasks: Vec<MapTask<K, f64>> = (0..dataset.num_splits())
            .map(|j| {
                let ds = dataset.clone();
                MapTask::new(j, move |ctx| {
                    let local = scan_counts(&ds, j, ctx);
                    let coefs =
                        S::Histogram::transform(domain, local.iter().map(|&(x, c)| (x, c as f64)));
                    ctx.charge(
                        local.len() as f64
                            * S::Histogram::updates_per_key(domain)
                            * ops::COEF_UPDATE,
                    );
                    for (slot, w) in coefs {
                        ctx.emit(K::from_slot(slot), w);
                    }
                })
            })
            .collect();

        // Reducer: w_i = Σ_j w_{i,j}, one record per coefficient into its
        // own partition's output; Close selects over all of them.
        //
        // The sparse transform can emit any slot below the basis's bound,
        // so that bound is the tight key-domain hint: radix keys + bounded
        // domain select the dense-reduce strategy (while the bound fits
        // its cap; sort-at-reduce above). Partition `p` of `R` receives
        // the slots `≡ p (mod R)` and indexes its table by `slot / R`, so
        // each table spans `1/R` of the partition's actual key range.
        let spec = JobSpec::folding("send-coef", map_tasks, SumParts)
            .with_radix_keys()
            .with_wire_codec()
            .with_engine(self.engine.with_key_domain(slot_bound))
            .with_finish(move |ctx| close_with_top_k(ctx, k));
        run_build(dataset, cluster, spec)
    }
}

impl<S: SplitSource> HistogramBuilder<S> for SendCoef {
    fn name(&self) -> &'static str {
        "Send-Coef"
    }

    fn try_build(
        &self,
        dataset: &S,
        cluster: &ClusterConfig,
        k: usize,
    ) -> Result<BuildResult<S::Histogram>, EngineError> {
        // Coefficient indices ride in 4-byte keys (8 past 2^32 slots);
        // values are 8-byte doubles (§5 setup).
        if slots_fit_u32(S::Histogram::slot_bound(dataset.domain())) {
            self.build_keyed::<S, u32>(dataset, cluster, k)
        } else {
            self.build_keyed::<S, u64>(dataset, cluster, k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_data::DatasetBuilder;
    use wh_wavelet::Domain;

    #[test]
    fn coefficient_pairs_cost_twelve_bytes() {
        let ds = DatasetBuilder::new()
            .domain(Domain::new(6).unwrap())
            .records(2_000)
            .splits(3)
            .build();
        let result = SendCoef::new().build(&ds, &ClusterConfig::paper_cluster(), 6);
        assert_eq!(
            result.metrics.shuffle_bytes,
            result.metrics.map_output_pairs * 12
        );
    }

    #[test]
    fn emits_more_pairs_than_send_v_on_large_domains() {
        // The paper's Fig. 12 effect: local coefficient count exceeds
        // distinct-key count once u is large relative to split size.
        let ds = DatasetBuilder::new()
            .domain(Domain::new(14).unwrap())
            .records(4_000)
            .splits(4)
            .build();
        let cluster = ClusterConfig::paper_cluster();
        let coef = SendCoef::new().build(&ds, &cluster, 6);
        let sv = super::super::SendV::new().build(&ds, &cluster, 6);
        assert!(
            coef.metrics.map_output_pairs > sv.metrics.map_output_pairs,
            "coef pairs {} vs v pairs {}",
            coef.metrics.map_output_pairs,
            sv.metrics.map_output_pairs
        );
    }
}
