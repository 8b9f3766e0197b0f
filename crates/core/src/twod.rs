//! Two-dimensional wavelet histograms (§3/§4 "Multi-dimensional
//! wavelets").
//!
//! The paper's argument carries over verbatim: the 2-D standard
//! transform is linear, so global 2-D coefficients are sums of per-split
//! 2-D coefficients, and both the exact top-k machinery and the sampling
//! estimators apply unchanged. This module provides the 2-D counterparts
//! of the centralized oracle, the Send-V baseline, the two-sided-TPUT
//! exact method, and TwoLevel-S, over packed `(row_slot, col_slot)`
//! coefficient addresses.

use crate::builders::{close_with_top_k, ops, KeyedOutputs};
use wh_data::twod::Dataset2d;
use wh_mapreduce::cost::TaskWork;
use wh_mapreduce::{
    try_run_job, ClusterConfig, EngineConfig, EngineError, JobSpec, MapTask, RunMetrics,
};
use wh_sampling::SamplingConfig;
use wh_topk::{two_sided_topk, InMemoryNode};
use wh_wavelet::hash::FxHashMap;
use wh_wavelet::select::{sort_by_magnitude, top_k_magnitude, CoefEntry};
use wh_wavelet::twod::{pack_slot, point_estimate2d, sparse_transform2d, SparseCoefs2d};
use wh_wavelet::Domain;

/// A k-term 2-D wavelet histogram over `[u]²`.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveletHistogram2d {
    domain: Domain,
    /// Packed `(row_slot, col_slot)` → value, descending magnitude.
    coefs: Vec<(u64, f64)>,
}

impl WaveletHistogram2d {
    /// Builds from packed-slot coefficients.
    pub fn new(domain: Domain, coefs: impl IntoIterator<Item = (u64, f64)>) -> Self {
        let mut entries: Vec<CoefEntry> = coefs
            .into_iter()
            .filter(|&(_, v)| v != 0.0)
            .map(|(slot, value)| CoefEntry { slot, value })
            .collect();
        sort_by_magnitude(&mut entries);
        Self {
            domain,
            coefs: entries.into_iter().map(|e| (e.slot, e.value)).collect(),
        }
    }

    /// Per-dimension domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Retained packed coefficients.
    pub fn coefficients(&self) -> &[(u64, f64)] {
        &self.coefs
    }

    /// Number of retained coefficients.
    pub fn len(&self) -> usize {
        self.coefs.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.coefs.is_empty()
    }

    /// Estimated frequency of the cell `(x, y)`.
    pub fn point_estimate(&self, x: u64, y: u64) -> f64 {
        let map: SparseCoefs2d = self.coefs.iter().copied().collect();
        point_estimate2d(self.domain, &map, x, y)
    }
}

/// Result of a 2-D construction.
#[derive(Debug, Clone)]
pub struct BuildResult2d {
    /// The histogram.
    pub histogram: WaveletHistogram2d,
    /// Run measurements.
    pub metrics: RunMetrics,
}

/// Send-Coef in two dimensions, executed on the MapReduce engine.
///
/// Each mapper aggregates its split into cell counts, runs the sparse
/// nonstandard 2-D transform, and emits every non-zero local coefficient
/// keyed by its `(row_slot, col_slot)` address as a `(u16, u16)` radix
/// key — the transform is linear, so reducers sum per-split coefficients
/// into global ones exactly as in 1-D Send-Coef.
///
/// The job always declares the tight `key_domain` hint
/// (`((u−1) << 16 | (u−1)) + 1`, the exclusive bound of the radix image),
/// so it selects the dense-reduce strategy whenever the hint fits the
/// engine's dense-domain cap (`u ≤ 64` per dimension); wider domains fall
/// back to sort-at-reduce (several reducers) or merge (one reducer)
/// automatically. The differential suite pins bit-identity across all
/// three strategies by building on both sides of that cap.
#[derive(Debug, Clone, Copy, Default)]
pub struct SendCoef2d {
    engine: EngineConfig,
}

impl SendCoef2d {
    /// Creates the builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the execution-engine knobs of the underlying job.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Builder name, mirroring [`crate::builders::HistogramBuilder`].
    pub fn name(&self) -> &'static str {
        "Send-Coef-2D"
    }

    /// Builds the 2-D histogram, panicking on engine failure.
    pub fn build(&self, dataset: &Dataset2d, cluster: &ClusterConfig, k: usize) -> BuildResult2d {
        self.try_build(dataset, cluster, k)
            .unwrap_or_else(|e| panic!("2-D build failed: {e}"))
    }

    /// Builds the 2-D histogram, surfacing engine failures as typed
    /// errors (the chaos suite runs this under fault injection).
    pub fn try_build(
        &self,
        dataset: &Dataset2d,
        cluster: &ClusterConfig,
        k: usize,
    ) -> Result<BuildResult2d, EngineError> {
        let domain = dataset.domain();
        assert!(
            domain.log_u() <= 16,
            "2-D coefficient addresses ride in (u16, u16) keys: log_u {} > 16",
            domain.log_u()
        );
        let log_u1 = (domain.log_u() + 1) as f64;
        let map_tasks: Vec<MapTask<(u16, u16), f64>> = (0..dataset.num_splits())
            .map(|j| {
                let ds = dataset.clone();
                MapTask::new(j, move |ctx| {
                    let records = ds.split_records(j);
                    ctx.note_read(records, records * u64::from(ds.record_bytes()));
                    let mut cells: FxHashMap<(u64, u64), u64> = FxHashMap::default();
                    for r in ds.scan_split(j) {
                        *cells.entry((r.x, r.y)).or_insert(0) += 1;
                    }
                    ctx.charge(records as f64 * (ops::RECORD_SCAN + ops::HASH_UPSERT));
                    let coefs = sparse_transform2d(
                        domain,
                        cells.iter().map(|(&(x, y), &c)| (x, y, c as f64)),
                    );
                    // Each distinct cell touches (log u + 1)² coefficients.
                    ctx.charge(cells.len() as f64 * log_u1 * log_u1 * ops::COEF_UPDATE);
                    // Packed ascending order equals (row, col) radix order:
                    // both are lexicographic and each half is < 2^16.
                    let mut slots: Vec<u64> = coefs.keys().copied().collect();
                    slots.sort_unstable();
                    for slot in slots {
                        let (row, col) = wh_wavelet::twod::unpack_slot(slot);
                        ctx.emit((row as u16, col as u16), coefs[&slot]);
                    }
                })
            })
            .collect();

        // Reducer: one record per 2-D coefficient, its per-split values
        // folded in split order; Close selects over all of them.
        let reduce = |key: &(u16, u16), vals: &[f64], ctx: &mut KeyedOutputs| {
            ctx.charge(vals.len() as f64 * ops::REDUCE_PAIR);
            ctx.emit((
                pack_slot(u64::from(key.0), u64::from(key.1)),
                vals.iter().sum(),
            ));
        };
        // The tight exclusive bound of the (u16, u16) radix image over
        // [0, u)²: row and col slots both stay below u.
        let hint = ((domain.u() - 1) << 16 | (domain.u() - 1)) + 1;
        let spec = JobSpec::new("send-coef-2d", map_tasks, reduce)
            .with_radix_keys()
            .with_wire_codec()
            .with_engine(self.engine.with_key_domain(hint))
            .with_finish(move |ctx| close_with_top_k(ctx, k));

        let out = try_run_job(cluster, spec)?;
        Ok(BuildResult2d {
            histogram: WaveletHistogram2d::new(domain, out.outputs),
            metrics: out.metrics,
        })
    }
}

/// The sequential reference for [`SendCoef2d`]: per-split sparse 2-D
/// transforms, summed slot-by-slot in ascending split order, then global
/// top-k by magnitude. Mirrors the engine's floating-point evaluation
/// order exactly (reducers fold each slot's per-split values in split
/// order from 0.0; top-k selection is a total order on `(|w|, slot)`, so
/// the order Close sees the sums in cannot matter), so the engine-built
/// histogram must match it **bit-for-bit** on any reduce strategy, thread
/// count, or worker topology.
pub fn sequential_send_coef2d(dataset: &Dataset2d, k: usize) -> WaveletHistogram2d {
    let domain = dataset.domain();
    let mut per_split: Vec<SparseCoefs2d> = Vec::with_capacity(dataset.num_splits() as usize);
    for j in 0..dataset.num_splits() {
        let mut cells: FxHashMap<(u64, u64), u64> = FxHashMap::default();
        for r in dataset.scan_split(j) {
            *cells.entry((r.x, r.y)).or_insert(0) += 1;
        }
        per_split.push(sparse_transform2d(
            domain,
            cells.iter().map(|(&(x, y), &c)| (x, y, c as f64)),
        ));
    }
    let mut slots: Vec<u64> = per_split.iter().flat_map(|m| m.keys().copied()).collect();
    slots.sort_unstable();
    slots.dedup();
    let entries: Vec<(u64, f64)> = slots
        .iter()
        .map(|&slot| {
            let mut acc = 0.0f64;
            for m in &per_split {
                if let Some(&v) = m.get(&slot) {
                    acc += v;
                }
            }
            (slot, acc)
        })
        .collect();
    let top = top_k_magnitude(entries.iter().copied(), k);
    WaveletHistogram2d::new(domain, top.into_iter().map(|e| (e.slot, e.value)))
}

/// Exact centralized 2-D construction (ground truth).
pub fn centralized2d(dataset: &Dataset2d, cluster: &ClusterConfig, k: usize) -> BuildResult2d {
    let domain = dataset.domain();
    let mut cells: FxHashMap<(u64, u64), u64> = FxHashMap::default();
    for j in 0..dataset.num_splits() {
        for r in dataset.scan_split(j) {
            *cells.entry((r.x, r.y)).or_insert(0) += 1;
        }
    }
    let coefs = sparse_transform2d(domain, cells.iter().map(|(&(x, y), &c)| (x, y, c as f64)));
    let top = wh_wavelet::select::top_k_magnitude(coefs, k);
    let n = dataset.num_records();
    let cpu_ops = n as f64 * 3.0 + cells.len() as f64 * ((domain.log_u() + 1) as f64).powi(2) * 2.0;
    let work = TaskWork {
        bytes_scanned: n * 8,
        cpu_ops,
    };
    let sim_time_s = wh_mapreduce::cost::round_time(
        cluster,
        std::slice::from_ref(&work),
        wh_mapreduce::cost::ReduceWork::default(),
        0,
        0,
    );
    BuildResult2d {
        histogram: WaveletHistogram2d::new(domain, top.into_iter().map(|e| (e.slot, e.value))),
        metrics: RunMetrics {
            rounds: 0,
            records_scanned: n,
            bytes_scanned: n * 8,
            cpu_ops,
            sim_time_s,
            ..Default::default()
        },
    }
}

/// Exact distributed 2-D construction: per-split 2-D transforms + the
/// two-sided TPUT protocol over packed coefficient addresses — H-WTopk's
/// multi-dimensional extension. Returns per-round pair counts via
/// `metrics.map_output_pairs`.
pub fn h_wtopk2d(dataset: &Dataset2d, cluster: &ClusterConfig, k: usize) -> BuildResult2d {
    let domain = dataset.domain();
    let m = dataset.num_splits();
    // Per-split local 2-D coefficients.
    let mut nodes = Vec::with_capacity(m as usize);
    let mut cpu_ops = 0.0;
    let mut records = 0u64;
    for j in 0..m {
        let mut cells: FxHashMap<(u64, u64), u64> = FxHashMap::default();
        for r in dataset.scan_split(j) {
            *cells.entry((r.x, r.y)).or_insert(0) += 1;
            records += 1;
        }
        let coefs = sparse_transform2d(domain, cells.iter().map(|(&(x, y), &c)| (x, y, c as f64)));
        cpu_ops += cells.len() as f64 * ((domain.log_u() + 1) as f64).powi(2) * 2.0;
        nodes.push(InMemoryNode::new(coefs));
    }
    let result = two_sided_topk(&nodes, k);
    // Communication: 16 bytes per uploaded pair (8 B packed slot + 8 B
    // value), 8 bytes per broadcast candidate id.
    let pairs = result.comm.total_pairs();
    let shuffle_bytes = pairs * 16;
    let broadcast_bytes = result.comm.broadcast_items * 8;
    let per_split_scan = records / u64::from(m).max(1) * 8;
    let tasks: Vec<TaskWork> = (0..m)
        .map(|_| TaskWork {
            bytes_scanned: per_split_scan,
            cpu_ops: cpu_ops / m as f64,
        })
        .collect();
    let mut sim_time_s = 0.0;
    for _round in 0..3 {
        sim_time_s += wh_mapreduce::cost::round_time(
            cluster,
            &tasks[..],
            wh_mapreduce::cost::ReduceWork {
                cpu_ops: pairs as f64 * 2.0,
            },
            shuffle_bytes / 3,
            broadcast_bytes / 3,
        );
    }
    BuildResult2d {
        histogram: WaveletHistogram2d::new(domain, result.topk),
        metrics: RunMetrics {
            rounds: 3,
            shuffle_bytes,
            broadcast_bytes,
            map_output_pairs: pairs,
            records_scanned: records,
            bytes_scanned: records * 8,
            cpu_ops,
            sim_time_s,
            ..Default::default()
        },
    }
}

/// TwoLevel-S in two dimensions: first-level record sampling per split,
/// second-level frequency-proportional sampling of local *cell* counts.
pub fn two_level_s2d(
    dataset: &Dataset2d,
    cluster: &ClusterConfig,
    k: usize,
    epsilon: f64,
    seed: u64,
) -> BuildResult2d {
    use wh_data::SplitMix64;
    let domain = dataset.domain();
    let m = dataset.num_splits();
    let cfg = SamplingConfig::new(epsilon, m, dataset.num_records());
    let threshold = cfg.second_level_threshold();
    let mut acc: FxHashMap<(u64, u64), (u64, u64)> = FxHashMap::default(); // (ρ, M)
    let mut pairs = 0u64;
    let mut shuffle_bytes = 0u64;
    let mut sampled = 0u64;
    for j in 0..m {
        let nj = dataset.split_records(j);
        let t_j = cfg.split_sample_size(nj);
        let mut rng = SplitMix64::new(seed ^ (u64::from(j) << 20));
        // First level: t_j distinct positions (Floyd would be exact; for the
        // 2-D path positions are drawn directly — duplicates are negligible
        // at these rates and do not bias the estimator conditioned on the
        // multiset of sampled records).
        let mut counts: FxHashMap<(u64, u64), u64> = FxHashMap::default();
        for _ in 0..t_j {
            let i = rng.next_below(nj.max(1));
            let r = dataset.record_at(j, i);
            *counts.entry((r.x, r.y)).or_insert(0) += 1;
            sampled += 1;
        }
        // Second level.
        for (&cell, &s) in &counts {
            if s as f64 >= threshold {
                let e = acc.entry(cell).or_insert((0, 0));
                e.0 += s;
                pairs += 1;
                shuffle_bytes += 12; // 8 B packed cell + 4 B count
            } else if rng.next_f64() < cfg.second_level_probability(s) {
                let e = acc.entry(cell).or_insert((0, 0));
                e.1 += 1;
                pairs += 1;
                shuffle_bytes += 8; // bare cell marker
            }
        }
    }
    let p = cfg.p();
    let coefs = sparse_transform2d(
        domain,
        acc.iter().map(|(&(x, y), &(rho, markers))| {
            (x, y, (rho as f64 + markers as f64 * threshold) / p)
        }),
    );
    let top = wh_wavelet::select::top_k_magnitude(coefs, k);
    let cpu_ops =
        sampled as f64 * 8.0 + acc.len() as f64 * ((domain.log_u() + 1) as f64).powi(2) * 2.0;
    let tasks: Vec<TaskWork> = (0..m)
        .map(|_| TaskWork {
            bytes_scanned: sampled / u64::from(m).max(1) * 8,
            cpu_ops: cpu_ops / m as f64,
        })
        .collect();
    let sim_time_s = wh_mapreduce::cost::round_time(
        cluster,
        &tasks[..],
        wh_mapreduce::cost::ReduceWork {
            cpu_ops: pairs as f64 * 2.0,
        },
        shuffle_bytes,
        0,
    );
    BuildResult2d {
        histogram: WaveletHistogram2d::new(domain, top.into_iter().map(|e| (e.slot, e.value))),
        metrics: RunMetrics {
            rounds: 1,
            shuffle_bytes,
            map_output_pairs: pairs,
            records_scanned: sampled,
            bytes_scanned: sampled * 8,
            cpu_ops,
            sim_time_s,
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_data::twod::Distribution2d;

    fn dataset() -> Dataset2d {
        Dataset2d::new(
            Domain::new(5).unwrap(),
            Distribution2d::Correlated {
                alpha: 1.1,
                spread: 2,
            },
            30_000,
            6,
            17,
        )
    }

    #[test]
    fn engine_built_matches_sequential_reference_bitwise() {
        let d = dataset();
        let cluster = ClusterConfig::paper_cluster();
        let want = sequential_send_coef2d(&d, 12);
        let got = SendCoef2d::new().build(&d, &cluster, 12);
        assert_eq!(got.histogram.coefficients(), want.coefficients());
        assert!(got.histogram.len() <= 12 && !got.histogram.is_empty());
        // The tight hint puts every reduce partition on the dense path.
        assert_eq!(
            got.metrics.reduce_strategies.dense_reduce,
            got.metrics.reduce_strategies.total()
        );
    }

    #[test]
    fn engine_built_tracks_centralized_magnitudes() {
        let d = dataset();
        let cluster = ClusterConfig::paper_cluster();
        let a = centralized2d(&d, &cluster, 10);
        let b = SendCoef2d::new().build(&d, &cluster, 10);
        assert_eq!(a.histogram.len(), b.histogram.len());
        for (x, y) in a
            .histogram
            .coefficients()
            .iter()
            .zip(b.histogram.coefficients())
        {
            assert!((x.1.abs() - y.1.abs()).abs() < 1e-6, "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn hwtopk2d_matches_centralized() {
        let d = dataset();
        let cluster = ClusterConfig::paper_cluster();
        let a = centralized2d(&d, &cluster, 10);
        let b = h_wtopk2d(&d, &cluster, 10);
        assert_eq!(a.histogram.len(), b.histogram.len());
        for (x, y) in a
            .histogram
            .coefficients()
            .iter()
            .zip(b.histogram.coefficients())
        {
            assert!((x.1.abs() - y.1.abs()).abs() < 1e-6, "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn hwtopk2d_cheaper_than_send_all() {
        let d = dataset();
        let cluster = ClusterConfig::paper_cluster();
        let b = h_wtopk2d(&d, &cluster, 10);
        // Send-all-coefficients would ship every non-zero local coefficient.
        let domain = d.domain();
        let mut total_nonzero = 0u64;
        for j in 0..d.num_splits() {
            let mut cells: FxHashMap<(u64, u64), u64> = FxHashMap::default();
            for r in d.scan_split(j) {
                *cells.entry((r.x, r.y)).or_insert(0) += 1;
            }
            let coefs =
                sparse_transform2d(domain, cells.iter().map(|(&(x, y), &c)| (x, y, c as f64)));
            total_nonzero += coefs.len() as u64;
        }
        assert!(
            b.metrics.map_output_pairs < total_nonzero / 2,
            "tput pairs {} vs send-all {total_nonzero}",
            b.metrics.map_output_pairs
        );
    }

    #[test]
    fn two_level_2d_reasonable_quality() {
        let d = dataset();
        let cluster = ClusterConfig::paper_cluster();
        let exact = centralized2d(&d, &cluster, 64);
        let approx = two_level_s2d(&d, &cluster, 64, 0.02, 5);
        // Total-mass check through the top coefficient (the 2-D average):
        // slot (0,0) packs to 0.
        let exact_avg = exact
            .histogram
            .coefficients()
            .iter()
            .find(|&&(s, _)| s == 0)
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        let approx_avg = approx
            .histogram
            .coefficients()
            .iter()
            .find(|&&(s, _)| s == 0)
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        assert!(
            (exact_avg - approx_avg).abs() < 0.25 * exact_avg.abs().max(1.0),
            "avg {approx_avg} vs exact {exact_avg}"
        );
        assert!(approx.metrics.records_scanned < d.num_records() / 2);
    }

    #[test]
    fn point_estimates_track_density() {
        let d = dataset();
        let cluster = ClusterConfig::paper_cluster();
        let exact = centralized2d(&d, &cluster, 128);
        // Cell (0,0) is in the dense corner under Zipf(1.1) + diagonal.
        let dense = exact.histogram.point_estimate(0, 0);
        let sparse = exact.histogram.point_estimate(20, 5); // off-diagonal
        assert!(dense > sparse, "dense {dense} vs sparse {sparse}");
    }
}
