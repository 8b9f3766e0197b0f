//! Incrementally maintained wavelet histograms: the delta-build path.
//!
//! A [`MaintainedHistogram`] wraps `wh-wavelet`'s
//! [`IncrementalTransform`] — exact integer leaf counts plus the dense
//! pass's running averages, recomputed only along dirty paths — and keeps
//! a small *frontier* of the largest coefficients beside it, so that
//! re-selecting the top `k` reads the frontier, not the whole non-zero
//! set. Its [`snapshot`](MaintainedHistogram::snapshot) is
//! **bit-identical** to what [`crate::builders::Centralized`] would build
//! from scratch on the concatenated data, whatever order the deltas
//! arrived in, so the serving tier can publish delta-merged snapshots
//! without giving up the exact builders' differential guarantees.
//!
//! The freshness loop this enables (see `docs/architecture.md`,
//! "Maintain"):
//!
//! ```text
//! new segment ──▶ MaintainedHistogram::merge_delta   O(d·log u)
//!                        │ snapshot()                O(|F|·log k), |F| ≤ 8k
//!                        ▼
//!                 WaveletHistogram ──▶ CompiledHistogram::compile
//!                        │                            O(k·log u)
//!                        ▼
//!                 ServeTier::try_publish ──▶ epoch swap
//! ```
//!
//! versus a full rebuild's `O(n + u)` scan-and-transform per batch.
//!
//! # The frontier
//!
//! The frontier `F` holds exactly the non-zero coefficients that rank at
//! or above a boundary `b = (|w|, slot)` in [`top_k_magnitude`]'s own
//! order (larger magnitude first, ties to the lower slot). A delta
//! rewrites only the coefficients on its dirty paths, and
//! [`IncrementalTransform::apply_delta`] reports each of them with its
//! new value; each one joins or leaves `F` by comparing with `b`. Every other
//! coefficient kept its value, so it is still on the same side of `b`.
//! Whenever `|F| ≥ k`, or `F` is complete (`b` admits every non-zero
//! coefficient), the true top `k` lies inside `F`, so selecting from `F`
//! gives the full scan's answer bit for bit.
//!
//! This is not "old top-k ∪ touched slots": a delta can cancel a retained
//! detail to exactly zero and let an untouched coefficient enter. That
//! coefficient sits below `b`, and once fewer than `k` members remain
//! above `b` (and `F` is not complete), `merge_delta` refits `F` from the
//! whole non-zero set. Two constants bound the work:
//!
//! * a refit keeps the top `2k` and moves `b` to the last of them (a
//!   refit that finds fewer than `2k` non-zero coefficients makes `F`
//!   complete);
//! * once `F` grows past `8k` members, it is refit from itself alone,
//!   which bounds what a snapshot reads.
//!
//! `F` starts empty with `b` above every coefficient, so the first merge
//! refits once, through one bounded heap. Measured at the benchmark's
//! `serve-refresh` shape (`u = 2^18`, `k = 64`, a base of 8,192 keys,
//! deltas of 81 keys): 10^4 deltas cost that one rescan and 9 trims, and
//! `F` ended with 379 members. At `k = 4096` on the same stream, 3,000
//! deltas cost no rescan and 2 trims. A stream built to defeat it — each
//! delta cancels every retained detail to exactly 0 — rescans on about
//! half of its deltas, which costs what the full-scan snapshot always
//! did.

use wh_data::Dataset;
use wh_wavelet::hash::FxHashMap;
use wh_wavelet::{top_k_magnitude, CoefEntry, Domain, IncrementalTransform};

use crate::histogram::WaveletHistogram;

/// Size of a refit frontier, in multiples of `k`.
const REFIT_KEEP: usize = 2;
/// Frontier size, in multiples of `k`, above which `F` is refit from
/// itself.
const TRIM_ABOVE: usize = 8;

/// The boundary before the first refit: coefficients are finite, so none
/// ranks at or above it and `F` admits nothing.
const ADMIT_NONE: (f64, u64) = (f64::INFINITY, 0);
/// The boundary of a complete frontier: every non-zero coefficient ranks
/// at or above it.
const ADMIT_ALL: (f64, u64) = (0.0, u64::MAX);

/// Whether the non-zero coefficient `(slot, value)` ranks at or above
/// `floor = (|w|, slot)` in the selection order of [`top_k_magnitude`].
fn admits(floor: (f64, u64), slot: u64, value: f64) -> bool {
    let magnitude = value.abs();
    value != 0.0 && (magnitude > floor.0 || (magnitude == floor.0 && slot <= floor.1))
}

/// A wavelet histogram kept current under streaming data arrivals.
///
/// Holds the full non-zero coefficient set (not just the top `k`): a delta
/// can shrink the k-th magnitude and let a previously unselected
/// coefficient enter. Selection reads only the frontier of the
/// [module docs](self), which is refit from the full set when the delta
/// leaves it too small to hold the top `k`.
#[derive(Debug, Clone)]
pub struct MaintainedHistogram {
    transform: IncrementalTransform,
    k: usize,
    /// `F`: slot → value of exactly the non-zero coefficients that rank at
    /// or above `floor`.
    frontier: FxHashMap<u64, f64>,
    /// `b`, the lowest `(|w|, slot)` that `frontier` admits.
    floor: (f64, u64),
    #[cfg(test)]
    refits: usize,
    #[cfg(test)]
    trims: usize,
}

/// Equal when the absorbed data and the budget are: the frontier depends
/// on merge history, and every valid frontier snapshots the same.
impl PartialEq for MaintainedHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.transform == other.transform && self.k == other.k
    }
}

impl MaintainedHistogram {
    /// An empty maintained histogram over `domain`, snapshotting the best
    /// `k` terms.
    pub fn new(domain: Domain, k: usize) -> Self {
        Self {
            transform: IncrementalTransform::new(domain),
            k,
            frontier: FxHashMap::default(),
            floor: ADMIT_NONE,
            #[cfg(test)]
            refits: 0,
            #[cfg(test)]
            trims: 0,
        }
    }

    /// Seeds the maintained state from every split of `dataset` — the
    /// "initial build" of the freshness story. The resulting
    /// [`snapshot`](Self::snapshot) is bit-identical to
    /// [`crate::builders::Centralized`] on the same data.
    pub fn from_dataset(dataset: &Dataset, k: usize) -> Self {
        let mut m = Self::new(dataset.domain(), k);
        for j in 0..dataset.num_splits() {
            m.merge_split(dataset, j);
        }
        m
    }

    /// The key domain.
    pub fn domain(&self) -> Domain {
        self.transform.domain()
    }

    /// The snapshot budget `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total records absorbed so far (what the serving tier publishes as
    /// the dataset's record count).
    pub fn total_records(&self) -> u64 {
        self.transform.total_count()
    }

    /// Distinct keys with a non-zero count.
    pub fn distinct_keys(&self) -> usize {
        self.transform.distinct_keys()
    }

    /// Read-only view of the maintained transform.
    pub fn transform(&self) -> &IncrementalTransform {
        &self.transform
    }

    /// Absorbs a delta segment of `(key, additional_count)` pairs in
    /// `O(d·log u)`, plus a refit of the frontier when the delta leaves it
    /// too small or too large (see the [module docs](self)). Empty deltas
    /// are no-ops; merge order never changes the resulting snapshot.
    ///
    /// # Panics
    ///
    /// Panics when a key lies outside the domain.
    pub fn merge_delta(&mut self, delta: impl IntoIterator<Item = (u64, u64)>) {
        let (floor, frontier) = (self.floor, &mut self.frontier);
        let mut rewrote_any = false;
        self.transform.apply_delta(delta, |slot, value| {
            rewrote_any = true;
            if admits(floor, slot, value) {
                frontier.insert(slot, value);
            } else {
                frontier.remove(&slot);
            }
        });
        if !rewrote_any {
            return;
        }
        let keep = self.k.saturating_mul(REFIT_KEEP);
        if self.frontier.len() < self.k && self.floor != ADMIT_ALL {
            #[cfg(test)]
            {
                self.refits += 1;
            }
            self.refit(top_k_magnitude(self.transform.coefficients(), keep), keep);
        } else if self.frontier.len() > self.k.saturating_mul(TRIM_ABOVE) {
            #[cfg(test)]
            {
                self.trims += 1;
            }
            let members = self.frontier.iter().map(|(&s, &v)| (s, v));
            self.refit(top_k_magnitude(members, keep), keep);
        }
    }

    /// Makes `top`, the best `keep` coefficients of a set holding every
    /// one that ranks at or above the new boundary, the frontier. Fewer
    /// than `keep` means the set was everything: `F` is complete.
    fn refit(&mut self, top: Vec<CoefEntry>, keep: usize) {
        self.floor = match top.last() {
            Some(last) if top.len() == keep => (last.magnitude(), last.slot),
            _ => ADMIT_ALL,
        };
        self.frontier = top.into_iter().map(|e| (e.slot, e.value)).collect();
    }

    /// Absorbs a stream of raw record keys (each one occurrence),
    /// pre-aggregating per key so the transform sees each dirty leaf once.
    pub fn merge_keys(&mut self, keys: impl IntoIterator<Item = u64>) {
        let mut agg: FxHashMap<u64, u64> = FxHashMap::default();
        for x in keys {
            *agg.entry(x).or_insert(0) += 1;
        }
        self.merge_delta(agg);
    }

    /// Absorbs one split of `dataset` — the unit new segments arrive in.
    ///
    /// # Panics
    ///
    /// Panics when `split` is out of range or the dataset's domain does
    /// not match.
    pub fn merge_split(&mut self, dataset: &Dataset, split: u32) {
        assert_eq!(
            dataset.domain(),
            self.domain(),
            "dataset domain does not match the maintained histogram"
        );
        self.merge_keys(dataset.scan_split(split).map(|r| r.key));
    }

    /// Re-selects the best `k` terms from the frontier and materializes
    /// the queryable histogram — bit-identical to a from-scratch exact
    /// build ([`crate::builders::Centralized`]) on the accumulated data.
    pub fn snapshot(&self) -> WaveletHistogram {
        let members = self.frontier.iter().map(|(&s, &v)| (s, v));
        WaveletHistogram::new(
            self.domain(),
            top_k_magnitude(members, self.k)
                .into_iter()
                .map(|e| (e.slot, e.value)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{Centralized, HistogramBuilder};
    use wh_data::DatasetBuilder;
    use wh_mapreduce::ClusterConfig;

    fn dataset(seed: u64, records: u64, splits: u32) -> Dataset {
        DatasetBuilder::new()
            .domain(Domain::new(8).unwrap())
            .distribution(wh_data::Distribution::Zipf { alpha: 1.1 })
            .records(records)
            .splits(splits)
            .seed(seed)
            .build()
    }

    #[test]
    fn from_dataset_is_bit_identical_to_centralized() {
        let ds = dataset(11, 20_000, 6);
        let maintained = MaintainedHistogram::from_dataset(&ds, 24);
        let scratch = Centralized::new().build(&ds, &ClusterConfig::paper_cluster(), 24);
        assert_eq!(maintained.total_records(), ds.num_records());
        let a = maintained.snapshot();
        let b = scratch.histogram;
        assert_eq!(a.len(), b.len());
        for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }

    #[test]
    fn split_at_a_time_equals_all_at_once() {
        let ds = dataset(7, 12_000, 5);
        let mut incremental = MaintainedHistogram::new(ds.domain(), 16);
        for j in 0..ds.num_splits() {
            incremental.merge_split(&ds, j);
        }
        let oneshot = MaintainedHistogram::from_dataset(&ds, 16);
        assert_eq!(incremental, oneshot);
        assert_eq!(incremental.snapshot(), oneshot.snapshot());
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let ds = dataset(3, 5_000, 4);
        let mut m = MaintainedHistogram::from_dataset(&ds, 12);
        let before = m.clone();
        m.merge_delta(std::iter::empty());
        m.merge_keys(std::iter::empty());
        assert_eq!(m, before);
        assert_eq!(m.snapshot(), before.snapshot());
    }

    /// `F` is exactly the non-zero coefficients at or above `b`, large
    /// enough or complete, and the snapshot equals a full-scan selection.
    fn assert_exact(m: &MaintainedHistogram) {
        let all: FxHashMap<u64, f64> = m.transform.coefficients().collect();
        let mut want: Vec<(u64, u64)> = all
            .iter()
            .filter(|&(&s, &v)| admits(m.floor, s, v))
            .map(|(&s, &v)| (s, v.to_bits()))
            .collect();
        let mut got: Vec<(u64, u64)> = m.frontier.iter().map(|(&s, &v)| (s, v.to_bits())).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "frontier vs boundary {:?}", m.floor);
        assert!(m.frontier.len() >= m.k || m.floor == ADMIT_ALL);
        let full = WaveletHistogram::new(
            m.domain(),
            top_k_magnitude(all.iter().map(|(&s, &v)| (s, v)), m.k)
                .into_iter()
                .map(|e| (e.slot, e.value)),
        );
        let snap = m.snapshot();
        assert_eq!(snap.len(), full.len());
        for (x, y) in snap.coefficients().iter().zip(full.coefficients()) {
            assert_eq!((x.0, x.1.to_bits()), (y.0, y.1.to_bits()));
        }
    }

    fn frontier_slots(m: &MaintainedHistogram) -> Vec<u64> {
        let mut slots: Vec<u64> = m.frontier.keys().copied().collect();
        slots.sort_unstable();
        slots
    }

    /// Leaves 0, 2, 4 and 6 at 100 over `[2^3]`: slot 0 plus four finest
    /// details of equal magnitude `100/√2` (slots 4–7); every coarser
    /// detail is exactly 0. With `k = 2` the first refit keeps slots
    /// 0, 4, 5, 6 and puts `b` at `(100/√2, 6)`, so slot 7 ties `b` from
    /// below.
    fn four_equal_details() -> MaintainedHistogram {
        let mut m = MaintainedHistogram::new(Domain::new(3).unwrap(), 2);
        m.merge_delta([(0u64, 100u64), (2, 100), (4, 100), (6, 100)]);
        assert_eq!((m.refits, m.trims), (1, 0));
        assert_eq!(frontier_slots(&m), [0, 4, 5, 6]);
        assert_exact(&m);
        m
    }

    #[test]
    fn a_delta_that_depletes_the_frontier_rescans() {
        let mut m = four_equal_details();
        // Keys 1, 3 and 5 cancel slots 4, 5 and 6 to exactly 0: three of
        // F's four members fall below b, one more than |F| − k.
        m.merge_delta([(1u64, 100u64), (3, 100), (5, 100)]);
        assert_eq!((m.refits, m.trims), (2, 0));
        assert_exact(&m);
        // The refit found slot 7, which the delta never touched.
        let kept: Vec<u64> = m.snapshot().coefficients().iter().map(|c| c.0).collect();
        assert_eq!(kept, [0, 7]);
    }

    #[test]
    fn a_frontier_grown_past_8k_is_trimmed_from_itself() {
        let mut m = MaintainedHistogram::new(Domain::new(5).unwrap(), 1);
        m.merge_delta([(0u64, 1u64)]);
        assert_eq!(m.frontier.len(), 2);
        assert_exact(&m);
        // Uneven counts on every key lift most details above b.
        m.merge_delta((0..32u64).map(|x| (x, x * 7919 % 101 + 1)));
        assert_eq!((m.refits, m.trims), (1, 1));
        assert_eq!(m.frontier.len(), 2);
        assert_exact(&m);
    }

    #[test]
    fn a_tie_at_the_boundary_is_broken_by_slot() {
        let mut m = four_equal_details();
        // Keys 3 and 7 rewrite slots 5 and 7 to the boundary's magnitude
        // exactly: slot 5 (below b's slot 6) ranks above b and stays,
        // slot 7 ranks below it and stays out.
        m.merge_delta([(3u64, 200u64), (7, 200)]);
        assert_eq!((m.refits, m.trims), (1, 0));
        let all: FxHashMap<u64, f64> = m.transform.coefficients().collect();
        assert_eq!((all[&5].abs(), all[&7].abs()), (m.floor.0, m.floor.0));
        let slots = frontier_slots(&m);
        assert!(slots.contains(&5) && !slots.contains(&7), "{slots:?}");
        assert_exact(&m);
    }

    #[test]
    fn equality_ignores_the_frontier() {
        let ds = dataset(5, 6_000, 3);
        let mut a = MaintainedHistogram::new(ds.domain(), 4);
        let mut b = MaintainedHistogram::new(ds.domain(), 4);
        for j in 0..ds.num_splits() {
            a.merge_split(&ds, j);
        }
        let keys: Vec<u64> = (0..ds.num_splits())
            .flat_map(|j| ds.scan_split(j).map(|r| r.key))
            .collect();
        b.merge_keys(keys);
        assert_ne!(frontier_slots(&a), frontier_slots(&b));
        assert_eq!(a, b);
        assert_exact(&a);
        assert_exact(&b);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_domain_rejected() {
        let ds = dataset(1, 1_000, 2);
        let mut m = MaintainedHistogram::new(Domain::new(4).unwrap(), 8);
        m.merge_split(&ds, 0);
    }
}
