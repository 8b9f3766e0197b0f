//! The centralized oracle: scan everything on one machine, run the
//! `O(u)` transform, pick the top-k (§2.1). Ground truth for every other
//! builder, and the method the paper argues is only sensible for small
//! data.

use super::{ops, BuildResult, HistogramBuilder};
use crate::basis::{Basis, SplitSource};
use wh_data::Dataset;
use wh_mapreduce::cost::TaskWork;
use wh_mapreduce::{ClusterConfig, EngineError, RunMetrics};
use wh_wavelet::select::top_k_magnitude;

/// Single-machine exact construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Centralized;

impl Centralized {
    /// Creates the oracle builder.
    pub fn new() -> Self {
        Self
    }

    /// The exact dense coefficient vector of `dataset` — used by the
    /// evaluation harness for SSE ground truth.
    ///
    /// # Panics
    ///
    /// Panics when `u > 2^26` (the dense vector would not fit evaluation
    /// memory budgets; the experiments keep evaluation domains below this).
    pub fn exact_coefficients(dataset: &Dataset) -> Vec<f64> {
        let domain = dataset.domain();
        assert!(
            domain.log_u() <= 26,
            "dense ground truth limited to u ≤ 2^26, got {domain}"
        );
        let v = dataset.exact_frequency_vector();
        let mut w: Vec<f64> = v.into_iter().map(|c| c as f64).collect();
        wh_wavelet::haar::forward_in_place(&mut w);
        w
    }
}

impl<S: SplitSource> HistogramBuilder<S> for Centralized {
    fn name(&self) -> &'static str {
        "Centralized"
    }

    fn try_build(
        &self,
        dataset: &S,
        cluster: &ClusterConfig,
        k: usize,
    ) -> Result<BuildResult<S::Histogram>, EngineError> {
        let domain = dataset.domain();
        // The global frequency vector is the splits' counts folded per key
        // (exact: integer sums in f64), and the sparse transform of it is
        // bit-identical to the non-zero entries of the dense one — all
        // that top-k selection looks at.
        let v = (0..dataset.num_splits())
            .flat_map(|j| dataset.split_counts(j))
            .map(|(x, c)| (x, c as f64));
        let top = top_k_magnitude(S::Histogram::transform(domain, v), k);
        let histogram = S::Histogram::from_slots(domain, top.iter().map(|e| (e.slot, e.value)));

        // Time model: one machine scans the whole dataset and runs the
        // dense transform.
        let n = dataset.num_records();
        let bytes_scanned = n * u64::from(dataset.record_bytes());
        let dense_len = S::Histogram::dense_len(domain);
        let cpu_ops = n as f64 * (ops::RECORD_SCAN + ops::HASH_UPSERT)
            + dense_len * ops::COEF_UPDATE
            + dense_len * ops::HEAP_OFFER; // top-k pass
        let work = TaskWork {
            bytes_scanned,
            cpu_ops,
        };
        let sim_time_s = wh_mapreduce::cost::round_time(
            cluster,
            std::slice::from_ref(&work),
            wh_mapreduce::cost::ReduceWork::default(),
            0,
            0,
        );
        let metrics = RunMetrics {
            rounds: 0,
            records_scanned: n,
            bytes_scanned,
            cpu_ops,
            sim_time_s,
            ..Default::default()
        };
        Ok(BuildResult { histogram, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_data::DatasetBuilder;
    use wh_wavelet::Domain;

    #[test]
    fn histogram_matches_manual_computation() {
        let ds = DatasetBuilder::new()
            .domain(Domain::new(6).unwrap())
            .records(5_000)
            .splits(4)
            .seed(3)
            .build();
        let result = Centralized::new().build(&ds, &ClusterConfig::paper_cluster(), 8);

        let v = ds.exact_frequency_vector();
        let w = wh_wavelet::haar::forward(&v.iter().map(|&c| c as f64).collect::<Vec<_>>());
        let top = top_k_magnitude(w.iter().enumerate().map(|(s, &c)| (s as u64, c)), 8);
        assert_eq!(result.histogram.len(), top.len());
        for (got, want) in result.histogram.coefficients().iter().zip(&top) {
            assert_eq!(got.0, want.slot);
            assert!((got.1 - want.value).abs() < 1e-9);
        }
        // No communication at all.
        assert_eq!(result.metrics.total_comm_bytes(), 0);
        assert!(result.metrics.sim_time_s > 0.0);
    }

    #[test]
    fn exact_coefficients_preserve_energy() {
        let ds = DatasetBuilder::new()
            .domain(Domain::new(8).unwrap())
            .records(10_000)
            .splits(2)
            .build();
        let v = ds.exact_frequency_vector();
        let ev: f64 = v.iter().map(|&c| (c * c) as f64).sum();
        let w = Centralized::exact_coefficients(&ds);
        let ew: f64 = w.iter().map(|c| c * c).sum();
        assert!((ev - ew).abs() < 1e-6 * ev.max(1.0));
    }
}
