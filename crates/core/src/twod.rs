//! Two-dimensional wavelet histograms (§3/§4 "Multi-dimensional
//! wavelets").
//!
//! The paper's argument carries over verbatim: the 2-D standard
//! transform is linear, so global 2-D coefficients are sums of per-split
//! 2-D coefficients, and both the exact top-k machinery and the sampling
//! estimators apply unchanged. Accordingly there is no 2-D builder here:
//! this module makes `Dataset2d` a [`SplitSource`] (cells packed into
//! single keys) and [`WaveletHistogram2d`] a [`Basis`] (the standard
//! decomposition over those cells), and every generic builder of
//! [`crate::builders`] — `Centralized`, Send-V, Send-Coef, H-WTopk and the
//! three samplers — builds 2-D histograms through the same engine jobs as
//! in 1-D. [`sequential_send_coef2d`] is the engine-free **oracle** that
//! `tests/twod_pipeline.rs` and `tests/engine_faults.rs` compare those
//! builds against bit for bit; no builder calls it.

use crate::basis::{Basis, SplitSource};
use wh_data::twod::{Dataset2d, Record2d};
use wh_data::{Record, SplitMeta};
use wh_wavelet::select::{sort_by_magnitude, top_k_magnitude, CoefEntry};
use wh_wavelet::sparse::{sorted_counts, SparseCoefs};
use wh_wavelet::twod::{
    pack_slot, point_estimate2d, sparse_transform2d, unpack_slot, SparseCoefs2d,
};
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

/// The cell `(x, y)` as one key of the squared domain `[u²]`: ascending
/// keys are `(x, y)`-sorted cells.
fn cell_key(domain: Domain, r: Record2d) -> u64 {
    r.x << domain.log_u() | r.y
}

impl SplitSource for Dataset2d {
    type Histogram = WaveletHistogram2d;

    fn domain(&self) -> Domain {
        Dataset2d::domain(self)
    }
    fn num_records(&self) -> u64 {
        Dataset2d::num_records(self)
    }
    fn num_splits(&self) -> u32 {
        Dataset2d::num_splits(self)
    }
    fn record_bytes(&self) -> u32 {
        Dataset2d::record_bytes(self)
    }
    /// A cell ships as its two 4-byte coordinates.
    fn key_bytes(&self) -> u32 {
        8
    }
    fn split_meta(&self, j: u32) -> SplitMeta {
        Dataset2d::split_meta(self, j)
    }
    fn split_counts(&self, j: u32) -> Vec<(u64, u64)> {
        let domain = Dataset2d::domain(self);
        let cells = Domain::new(2 * domain.log_u()).expect("checked by Dataset2d::new");
        sorted_counts(cells, self.scan_split(j).map(|r| cell_key(domain, r)))
    }
    fn sample_split(&self, j: u32, count: u64, sample_seed: u64) -> Vec<Record> {
        let domain = Dataset2d::domain(self);
        Dataset2d::sample_split(self, j, count, sample_seed)
            .into_iter()
            .map(|r| Record {
                key: cell_key(domain, r),
                bytes: r.bytes,
            })
            .collect()
    }
}

/// Bits a shipped coefficient address shifts its row slot by. While both
/// 1-D slots fit 16 bits the address is `row << 16 | col`, whose bound
/// stays under the engine's dense-reduce cap for `u ≤ 64` per axis;
/// wider domains ship [`pack_slot`] itself. Either image orders like
/// `pack_slot`, so selection breaks ties identically.
fn row_shift(domain: Domain) -> u32 {
    if domain.log_u() <= 16 {
        16
    } else {
        32
    }
}

/// The 2-D standard-decomposition basis over `domain²`; keys are cells
/// packed as `x << log_u | y`.
impl Basis for WaveletHistogram2d {
    fn transform<I>(domain: Domain, entries: I) -> SparseCoefs
    where
        I: IntoIterator<Item = (u64, f64)>,
    {
        let (log_u, mask) = (domain.log_u(), domain.u() - 1);
        let cells = entries
            .into_iter()
            .map(|(cell, c)| (cell >> log_u, cell & mask, c));
        let mut coefs = sparse_transform2d(domain, cells);
        let shift = row_shift(domain);
        for (slot, _) in &mut coefs {
            let (row, col) = unpack_slot(*slot);
            *slot = row << shift | col;
        }
        coefs
    }

    fn slot_bound(domain: Domain) -> u64 {
        let last = domain.u() - 1;
        (last << row_shift(domain) | last) + 1
    }

    /// The Cartesian product of the two root-to-leaf paths.
    fn updates_per_key(domain: Domain) -> f64 {
        let path = (domain.log_u() + 1) as f64;
        path * path
    }

    fn dense_len(domain: Domain) -> f64 {
        domain.u_f64() * domain.u_f64()
    }

    fn from_slots(domain: Domain, coefs: impl IntoIterator<Item = (u64, f64)>) -> Self {
        let shift = row_shift(domain);
        let unship = |slot: u64| pack_slot(slot >> shift, slot & ((1 << shift) - 1));
        Self::new(domain, coefs.into_iter().map(|(slot, w)| (unship(slot), w)))
    }
}

/// The sequential reference for Send-Coef over a `Dataset2d`: per-split
/// sparse 2-D transforms, summed slot-by-slot in ascending split order,
/// then global top-k by magnitude. Mirrors the engine's floating-point
/// evaluation order exactly (reducers fold each slot's per-split values in
/// split order from 0.0; top-k selection is a total order on `(|w|, slot)`,
/// so the order Close sees the sums in cannot matter), so the engine-built
/// histogram must match it **bit-for-bit** on any reduce strategy, thread
/// count, or worker topology.
pub fn sequential_send_coef2d(dataset: &Dataset2d, k: usize) -> WaveletHistogram2d {
    let domain = dataset.domain();
    let mut parts: Vec<(u64, f64)> = Vec::new();
    for j in 0..dataset.num_splits() {
        let cells = dataset.scan_split(j).map(|r| (r.x, r.y, 1.0));
        parts.extend(sparse_transform2d(domain, cells));
    }
    // Stable: a slot's parts stay in split order.
    parts.sort_by_key(|&(slot, _)| slot);
    let mut sums: Vec<(u64, f64)> = Vec::new();
    for (slot, w) in parts {
        match sums.last_mut() {
            Some(last) if last.0 == slot => last.1 += w,
            _ => sums.push((slot, w)),
        }
    }
    let top = top_k_magnitude(sums, k);
    WaveletHistogram2d::new(domain, top.into_iter().map(|e| (e.slot, e.value)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{Centralized, HistogramBuilder, SendCoef};
    use wh_data::twod::Distribution2d;
    use wh_mapreduce::ClusterConfig;

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
        let got = SendCoef::new().build(&d, &cluster, 12);
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
        let a = Centralized::new().build(&d, &cluster, 10);
        let b = SendCoef::new().build(&d, &cluster, 10);
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
    fn point_estimates_track_density() {
        let d = dataset();
        let cluster = ClusterConfig::paper_cluster();
        let exact = Centralized::new().build(&d, &cluster, 128);
        // Cell (0,0) is in the dense corner under Zipf(1.1) + diagonal.
        let dense = exact.histogram.point_estimate(0, 0);
        let sparse = exact.histogram.point_estimate(20, 5); // off-diagonal
        assert!(dense > sparse, "dense {dense} vs sparse {sparse}");
    }
}
