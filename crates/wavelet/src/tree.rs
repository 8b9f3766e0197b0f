//! Error-tree queries over a retained (top-k) coefficient set.
//!
//! A k-term wavelet representation answers point and range queries without
//! reconstructing the full vector: a point estimate only needs the `log u + 1`
//! coefficients on the key's root-to-leaf path, and a range sum only needs
//! the retained coefficients whose support overlaps the range. This is the
//! query side of the histogram — what a query optimiser would call per
//! selectivity estimate.
//!
//! The serving path does not probe through this module: `wh-query` calls
//! [`ErrorTree::segments`] once per compile and answers from the compiled
//! form. The per-query walks here ([`ErrorTree::point_estimate`],
//! [`ErrorTree::range_sum`], [`ErrorTree::prefix_sum`],
//! [`ErrorTree::reconstruct`]) back `WaveletHistogram`'s convenience
//! methods and are the brute-force **oracle** that
//! `tests/query_serving.rs`, `tests/serve_tier.rs`,
//! `tests/delta_maintenance.rs` and `tests/wavelet_properties.rs` hold the
//! compiled and maintained forms against.

use crate::hash::FxHashMap;
use crate::{slot_level, Domain};

/// A queryable k-term wavelet representation.
///
/// Stores retained coefficients in a hash map for `O(1)` path lookups.
#[derive(Debug, Clone)]
pub struct ErrorTree {
    domain: Domain,
    coefs: FxHashMap<u64, f64>,
}

impl ErrorTree {
    /// Builds a tree from `(slot, value)` coefficient pairs.
    ///
    /// Later duplicates of a slot overwrite earlier ones.
    pub fn new(domain: Domain, coefs: impl IntoIterator<Item = (u64, f64)>) -> Self {
        let mut map = FxHashMap::default();
        for (slot, v) in coefs {
            debug_assert!(slot < domain.u(), "slot {slot} outside {domain}");
            map.insert(slot, v);
        }
        Self { domain, coefs: map }
    }

    /// The domain this tree describes.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Number of retained coefficients.
    pub fn len(&self) -> usize {
        self.coefs.len()
    }

    /// Whether no coefficients are retained (the all-zero signal).
    pub fn is_empty(&self) -> bool {
        self.coefs.is_empty()
    }

    /// Retained coefficient for `slot`, if any.
    pub fn coefficient(&self, slot: u64) -> Option<f64> {
        self.coefs.get(&slot).copied()
    }

    /// Iterates over retained `(slot, value)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.coefs.iter().map(|(&s, &v)| (s, v))
    }

    /// Estimated frequency of the (0-based) key `x` in `O(log u)`.
    pub fn point_estimate(&self, x: u64) -> f64 {
        assert!(self.domain.contains(x), "key {x} outside {}", self.domain);
        let log_u = self.domain.log_u();
        let mut est = self
            .coefs
            .get(&0)
            .map_or(0.0, |w| w / self.domain.u_f64().sqrt());
        for j in 0..log_u {
            let block_log = log_u - j;
            let slot = (1u64 << j) + (x >> block_log);
            if let Some(&w) = self.coefs.get(&slot) {
                let scale = 1.0 / ((1u64 << block_log) as f64).sqrt();
                let sign = if (x >> (block_log - 1)) & 1 == 1 {
                    1.0
                } else {
                    -1.0
                };
                est += w * sign * scale;
            }
        }
        est
    }

    /// Estimated sum of frequencies over the inclusive (0-based) key range
    /// `[lo, hi]`, in `O(k)` where `k` is the number of retained
    /// coefficients.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi` or `hi` is outside the domain.
    pub fn range_sum(&self, lo: u64, hi: u64) -> f64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        assert!(self.domain.contains(hi), "key {hi} outside {}", self.domain);
        let log_u = self.domain.log_u();
        let mut sum = 0.0;
        for (&slot, &w) in &self.coefs {
            if slot == 0 {
                sum += w * ((hi - lo + 1) as f64) / self.domain.u_f64().sqrt();
                continue;
            }
            let (j, k) = slot_level(slot).expect("non-root slot");
            let block_log = log_u - j;
            let block_lo = k << block_log;
            let half = 1u64 << (block_log - 1);
            let mid = block_lo + half; // first key of the right half
            let block_hi = block_lo + (1u64 << block_log) - 1;
            // Overlap of [lo,hi] with left half [block_lo, mid-1] and right
            // half [mid, block_hi].
            let left = overlap(lo, hi, block_lo, mid - 1);
            let right = overlap(lo, hi, mid, block_hi);
            if left == 0 && right == 0 {
                continue;
            }
            let scale = 1.0 / ((1u64 << block_log) as f64).sqrt();
            sum += w * scale * (right as f64 - left as f64);
        }
        sum
    }

    /// Estimated cumulative frequency of keys `0..=x` in `O(log u)`.
    ///
    /// Unlike [`Self::range_sum`], which scans all `k` retained
    /// coefficients, this walks only the root-to-leaf path of `x`: a
    /// detail coefficient whose dyadic block lies entirely inside or
    /// entirely outside `[0, x]` contributes nothing to the cumulative sum
    /// (its block sums to zero), so only the `log u` blocks *straddling*
    /// `x` — exactly the path nodes — matter. This is the primitive the
    /// query-serving compiler (`wh-query`) checks itself against.
    ///
    /// # Panics
    ///
    /// Panics when `x` is outside the domain.
    pub fn prefix_sum(&self, x: u64) -> f64 {
        assert!(self.domain.contains(x), "key {x} outside {}", self.domain);
        let log_u = self.domain.log_u();
        let mut sum = self
            .coefs
            .get(&0)
            .map_or(0.0, |w| w * ((x + 1) as f64) / self.domain.u_f64().sqrt());
        for j in 0..log_u {
            let block_log = log_u - j;
            let slot = (1u64 << j) + (x >> block_log);
            if let Some(&w) = self.coefs.get(&slot) {
                let scale = 1.0 / ((1u64 << block_log) as f64).sqrt();
                let block_lo = (x >> block_log) << block_log;
                let half = 1u64 << (block_log - 1);
                let mid = block_lo + half;
                // Keys ≤ x in the left half contribute −scale·w each, keys
                // ≤ x in the right half +scale·w each.
                let contrib = if x < mid {
                    -((x - block_lo + 1) as f64)
                } else {
                    (x - mid + 1) as f64 - half as f64
                };
                sum += w * scale * contrib;
            }
        }
        sum
    }

    /// The piecewise-constant reconstruction as `(start, value)` segments.
    ///
    /// A `k`-term wavelet representation reconstructs to a step function:
    /// each retained detail coefficient changes the estimate only at its
    /// dyadic block's start, midpoint, and end. This method prunes the
    /// error tree down to those breakpoints and returns the segments in
    /// ascending key order — segment `i` covers keys
    /// `[start_i, start_{i+1})` (the last runs to `u`) with the constant
    /// estimated frequency `value_i`. At most `3k + 1` segments are
    /// returned (adjacent segments with bit-equal values are merged), and
    /// the first always starts at key 0.
    ///
    /// This is the bridge to the query-serving layer: `wh-query` lays the
    /// segments out with per-segment prefix sums to answer selectivity
    /// queries in `O(log k)` with no hashing.
    pub fn segments(&self) -> Vec<(u64, f64)> {
        let u = self.domain.u();
        let log_u = self.domain.log_u();
        let mut cuts: Vec<u64> = Vec::with_capacity(3 * self.coefs.len() + 1);
        cuts.push(0);
        for &slot in self.coefs.keys() {
            if slot == 0 {
                continue;
            }
            let (j, k) = slot_level(slot).expect("non-root slot");
            let block_log = log_u - j;
            let block_lo = k << block_log;
            let mid = block_lo + (1u64 << (block_log - 1));
            let end = block_lo + (1u64 << block_log);
            cuts.push(block_lo);
            cuts.push(mid);
            if end < u {
                cuts.push(end);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut segs: Vec<(u64, f64)> = Vec::with_capacity(cuts.len());
        for &c in &cuts {
            let v = self.point_estimate(c);
            // The reconstruction is constant between consecutive cuts, so
            // bit-equal adjacent values mean one wider segment. (Bitwise,
            // not `==`: merging +0.0 into −0.0 would change which bit
            // pattern a key's estimate reports.)
            if segs
                .last()
                .is_some_and(|&(_, last)| last.to_bits() == v.to_bits())
            {
                continue;
            }
            segs.push((c, v));
        }
        segs
    }

    /// Reconstructs the full estimated frequency vector.
    ///
    /// Materialises `u` values; intended for small domains (tests, SSE).
    pub fn reconstruct(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.domain.u() as usize];
        for (&slot, &v) in &self.coefs {
            w[slot as usize] = v;
        }
        crate::haar::inverse_in_place(&mut w);
        w
    }
}

/// Length of the intersection of inclusive ranges `[a_lo, a_hi]` and
/// `[b_lo, b_hi]`.
#[inline]
fn overlap(a_lo: u64, a_hi: u64, b_lo: u64, b_hi: u64) -> u64 {
    let lo = a_lo.max(b_lo);
    let hi = a_hi.min(b_hi);
    if lo > hi {
        0
    } else {
        hi - lo + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar::forward;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    fn full_tree(v: &[f64]) -> (ErrorTree, Vec<f64>) {
        let domain = Domain::covering(v.len() as u64).unwrap();
        assert_eq!(domain.u() as usize, v.len());
        let w = forward(v);
        let tree = ErrorTree::new(domain, w.iter().enumerate().map(|(s, &c)| (s as u64, c)));
        (tree, v.to_vec())
    }

    #[test]
    fn point_estimates_exact_with_all_coefficients() {
        let v: Vec<f64> = (0..64).map(|i| ((i * 13) % 29) as f64).collect();
        let (tree, orig) = full_tree(&v);
        for (x, expect) in orig.iter().enumerate() {
            assert!(close(tree.point_estimate(x as u64), *expect));
        }
    }

    #[test]
    fn range_sums_exact_with_all_coefficients() {
        let v: Vec<f64> = (0..32).map(|i| ((i * 7) % 13) as f64).collect();
        let (tree, orig) = full_tree(&v);
        for lo in 0..32u64 {
            for hi in lo..32 {
                let expect: f64 = orig[lo as usize..=hi as usize].iter().sum();
                let got = tree.range_sum(lo, hi);
                assert!(close(got, expect), "[{lo},{hi}]: {got} vs {expect}");
            }
        }
    }

    #[test]
    fn reconstruct_matches_inverse() {
        let v: Vec<f64> = (0..16).map(|i| (i as f64).sin() * 10.0).collect();
        let (tree, orig) = full_tree(&v);
        let back = tree.reconstruct();
        for (a, b) in back.iter().zip(&orig) {
            assert!(close(*a, *b));
        }
    }

    #[test]
    fn truncated_tree_is_consistent_with_truncated_reconstruction() {
        let v: Vec<f64> = (0..64).map(|i| if i == 10 { 100.0 } else { 1.0 }).collect();
        let domain = Domain::new(6).unwrap();
        let w = forward(&v);
        let top =
            crate::select::top_k_magnitude(w.iter().enumerate().map(|(s, &c)| (s as u64, c)), 5);
        let tree = ErrorTree::new(domain, top.iter().map(|e| (e.slot, e.value)));
        let recon = tree.reconstruct();
        for x in 0..64u64 {
            assert!(close(tree.point_estimate(x), recon[x as usize]));
        }
        let total: f64 = recon.iter().sum();
        assert!(close(tree.range_sum(0, 63), total));
    }

    #[test]
    fn prefix_sum_matches_range_sum_full_and_truncated() {
        let v: Vec<f64> = (0..64).map(|i| ((i * 13) % 29) as f64).collect();
        let (full, _) = full_tree(&v);
        let domain = Domain::new(6).unwrap();
        let w = forward(&v);
        let top =
            crate::select::top_k_magnitude(w.iter().enumerate().map(|(s, &c)| (s as u64, c)), 7);
        let truncated = ErrorTree::new(domain, top.iter().map(|e| (e.slot, e.value)));
        for tree in [&full, &truncated] {
            for x in 0..64u64 {
                let got = tree.prefix_sum(x);
                let want = tree.range_sum(0, x);
                assert!(close(got, want), "x={x}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn segments_cover_the_reconstruction() {
        let v: Vec<f64> = (0..64)
            .map(|i| if i % 9 == 0 { 50.0 } else { 2.0 })
            .collect();
        let domain = Domain::new(6).unwrap();
        let w = forward(&v);
        for k in [0usize, 1, 5, 64] {
            let top = crate::select::top_k_magnitude(
                w.iter().enumerate().map(|(s, &c)| (s as u64, c)),
                k,
            );
            let tree = ErrorTree::new(domain, top.iter().map(|e| (e.slot, e.value)));
            let segs = tree.segments();
            assert!(!segs.is_empty());
            assert_eq!(segs[0].0, 0, "first segment starts at key 0");
            assert!(
                segs.len() <= 3 * tree.len() + 1,
                "k={k}: {} segs",
                segs.len()
            );
            for pair in segs.windows(2) {
                assert!(pair[0].0 < pair[1].0, "starts strictly increasing");
                assert_ne!(
                    pair[0].1.to_bits(),
                    pair[1].1.to_bits(),
                    "adjacent bit-equal values merged"
                );
            }
            // Every key's segment value equals the reconstruction.
            let recon = tree.reconstruct();
            for x in 0..64u64 {
                let i = segs.partition_point(|&(s, _)| s <= x) - 1;
                assert!(
                    close(segs[i].1, recon[x as usize]),
                    "k={k} x={x}: {} vs {}",
                    segs[i].1,
                    recon[x as usize]
                );
            }
        }
    }

    #[test]
    fn empty_tree_segments_and_prefix() {
        let domain = Domain::new(5).unwrap();
        let tree = ErrorTree::new(domain, std::iter::empty());
        assert_eq!(tree.segments(), vec![(0, 0.0)]);
        assert_eq!(tree.prefix_sum(31), 0.0);
    }

    #[test]
    fn empty_tree_is_zero() {
        let domain = Domain::new(4).unwrap();
        let tree = ErrorTree::new(domain, std::iter::empty());
        assert!(tree.is_empty());
        assert_eq!(tree.point_estimate(7), 0.0);
        assert_eq!(tree.range_sum(0, 15), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn point_out_of_domain_panics() {
        let domain = Domain::new(3).unwrap();
        ErrorTree::new(domain, std::iter::empty()).point_estimate(8);
    }

    #[test]
    fn overlap_edges() {
        assert_eq!(overlap(0, 10, 5, 20), 6);
        assert_eq!(overlap(5, 20, 0, 10), 6);
        assert_eq!(overlap(0, 4, 5, 9), 0);
        assert_eq!(overlap(3, 3, 3, 3), 1);
    }
}
