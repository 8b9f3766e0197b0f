//! Incrementally maintained sparse Haar transform: `O(d·log u)` per delta
//! of `d` distinct keys, bit-identical to the dense from-scratch pass.
//!
//! The Haar transform is linear, so a histogram *could* absorb new data by
//! adding the delta segment's coefficients into its own (see
//! `wh-core`'s `WaveletHistogram::merge_delta`). But float addition is not
//! associative: coefficient-space accumulation drifts from what a
//! from-scratch build over the concatenated data would produce, and the
//! drift depends on arrival order. [`IncrementalTransform`] sidesteps both
//! problems by maintaining the *inputs* of the dense transform exactly —
//! integer leaf counts — together with the per-level running averages of
//! [`crate::haar::forward_in_place`]'s cascade, recomputed bottom-up along
//! the dirty root-to-leaf paths through the dense pass's own butterfly,
//! [`crate::haar::pair`]:
//!
//! ```text
//! A_log_u(x) = count(x) as f64
//! A_p(t)     = (A_{p+1}(2t) + A_{p+1}(2t+1)) · 1/√2
//! detail at slot 2^p + t = (A_{p+1}(2t+1) − A_{p+1}(2t)) · 1/√2
//! slot 0     = A_0(0)
//! ```
//!
//! Every average is a pure function of the final integer counts, so the
//! state after any sequence of deltas equals the state after one combined
//! delta — merge order cannot matter — and equals the dense
//! [`crate::haar::forward`] of the final frequency vector bit for bit.
//! Counts are unsigned and additive (a delta is *arriving* data), which
//! keeps every stored average strictly positive: an absent map entry is
//! exactly `0.0`, never a cancelled sum that the dense pass would carry as
//! `-0.0` or rounding dust.
//!
//! Memory is `O(D·log u)` for `D` distinct keys ever seen — the dirty-path
//! ancestors — independent of the domain size `u` (which may be `2^40`).

use crate::haar;
use crate::hash::{FxHashMap, FxHashSet};
use crate::select::{top_k_magnitude, CoefEntry};
use crate::Domain;

/// A sparse Haar transform kept current under streaming count deltas.
///
/// See the [module docs](self) for the maintenance scheme and the
/// bit-identity argument.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncrementalTransform {
    log_u: u32,
    /// Exact leaf counts: key → occurrences. The ground truth every float
    /// below is recomputed from.
    counts: FxHashMap<u64, u64>,
    /// Total occurrences across all keys.
    total: u64,
    /// `avgs[p][t] = A_p(t)` for levels `p ∈ 0..log_u`; entries exist
    /// exactly for blocks with a non-zero subtree count (and are then
    /// strictly positive). Leaf-level averages are read from `counts`.
    avgs: Vec<FxHashMap<u64, f64>>,
    /// Non-zero detail coefficients: slot (`≥ 1`) → value. Details that
    /// recompute to exactly `0.0` are removed, matching the zero-dropping
    /// of [`top_k_magnitude`] and the builders.
    details: FxHashMap<u64, f64>,
}

impl IncrementalTransform {
    /// An empty transform (all-zero frequency vector) over `domain`.
    pub fn new(domain: Domain) -> Self {
        Self {
            log_u: domain.log_u(),
            counts: FxHashMap::default(),
            total: 0,
            avgs: (0..domain.log_u()).map(|_| FxHashMap::default()).collect(),
            details: FxHashMap::default(),
        }
    }

    /// Builds a transform from initial `(key, count)` pairs — equivalent
    /// to [`Self::new`] followed by one [`Self::apply_delta`].
    pub fn from_counts(domain: Domain, counts: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut t = Self::new(domain);
        t.apply_delta(counts);
        t
    }

    /// The key domain.
    pub fn domain(&self) -> Domain {
        Domain::new(self.log_u).expect("stored log_u is valid")
    }

    /// Total occurrences absorbed so far.
    pub fn total_count(&self) -> u64 {
        self.total
    }

    /// Number of distinct keys with a non-zero count.
    pub fn distinct_keys(&self) -> usize {
        self.counts.len()
    }

    /// The exact count of `key` (0 when never seen).
    pub fn count(&self, key: u64) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// The average `A_q(t)` one level *below* `p` (i.e. the children live
    /// at level `q = p + 1`); leaf averages come straight from the counts.
    #[inline]
    fn level_value(&self, q: u32, t: u64) -> f64 {
        if q == self.log_u {
            self.counts.get(&t).map_or(0.0, |&c| c as f64)
        } else {
            self.avgs[q as usize].get(&t).copied().unwrap_or(0.0)
        }
    }

    /// Absorbs a delta segment given as `(key, additional_count)` pairs.
    /// Keys may repeat; zero counts are ignored. `O(d·log u)` for `d`
    /// distinct dirtied keys. An empty delta leaves the state untouched.
    ///
    /// # Panics
    ///
    /// Panics when a key lies outside the domain, or when a count would
    /// overflow `u64`.
    pub fn apply_delta(&mut self, delta: impl IntoIterator<Item = (u64, u64)>) {
        let domain = self.domain();
        let mut dirty: FxHashSet<u64> = FxHashSet::default();
        for (x, c) in delta {
            assert!(domain.contains(x), "key {x} outside {domain}");
            if c == 0 {
                continue;
            }
            let slot = self.counts.entry(x).or_insert(0);
            *slot = slot.checked_add(c).expect("count overflow");
            self.total = self.total.checked_add(c).expect("total overflow");
            dirty.insert(x);
        }
        if dirty.is_empty() {
            return;
        }
        // Recompute the dirtied ancestor paths bottom-up. `dirty` holds
        // positions at level `q`; their parents at level `p = q − 1` get
        // the exact `forward_in_place` pass expressions.
        for q in (1..=self.log_u).rev() {
            let p = q - 1;
            let mut parents: FxHashSet<u64> = FxHashSet::default();
            for &t in &dirty {
                parents.insert(t >> 1);
            }
            for &t in &parents {
                let a = self.level_value(q, 2 * t);
                let b = self.level_value(q, 2 * t + 1);
                let (avg, det) = haar::pair(a, b);
                self.avgs[p as usize].insert(t, avg);
                let slot = (1u64 << p) + t;
                if det == 0.0 {
                    self.details.remove(&slot);
                } else {
                    self.details.insert(slot, det);
                }
            }
            dirty = parents;
        }
    }

    /// The coefficient at slot 0 (the overall average term).
    pub fn average_coefficient(&self) -> f64 {
        if self.log_u == 0 {
            // u = 1: the transform is the identity.
            self.counts.get(&0).map_or(0.0, |&c| c as f64)
        } else {
            self.avgs[0].get(&0).copied().unwrap_or(0.0)
        }
    }

    /// All non-zero coefficients as `(slot, value)` pairs, in unspecified
    /// order. Bit-identical to the non-zero entries of the dense
    /// [`crate::haar::forward`] of the current frequency vector.
    pub fn coefficients(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        let avg = self.average_coefficient();
        (avg != 0.0)
            .then_some((0u64, avg))
            .into_iter()
            .chain(self.details.iter().map(|(&s, &v)| (s, v)))
    }

    /// The `k` largest-magnitude coefficients (deterministic tie-breaks;
    /// see [`top_k_magnitude`]). The selection is a full scan of the
    /// non-zero set — a shortcut over "previous top-k ∪ touched slots"
    /// would be unsound, because a delta can *shrink* the k-th magnitude
    /// and let an untouched coefficient enter.
    pub fn top_coefficients(&self, k: usize) -> Vec<CoefEntry> {
        top_k_magnitude(self.coefficients(), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar::forward;

    /// Deterministic pseudo-random (key, count) stream.
    fn synth(domain: Domain, n: usize, seed: u64) -> Vec<(u64, u64)> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % domain.u(), (x >> 13) % 5)
            })
            .collect()
    }

    fn dense_of(domain: Domain, deltas: &[(u64, u64)]) -> Vec<f64> {
        let mut v = vec![0.0f64; domain.u() as usize];
        for &(x, c) in deltas {
            v[x as usize] += c as f64;
        }
        forward(&v)
    }

    fn assert_bit_identical(t: &IncrementalTransform, dense: &[f64]) {
        let mut nonzero = 0usize;
        for (slot, &w) in dense.iter().enumerate() {
            let got = t
                .coefficients()
                .find(|&(s, _)| s == slot as u64)
                .map_or(0.0, |(_, v)| v);
            assert_eq!(
                got.to_bits(),
                if w == 0.0 {
                    0.0f64.to_bits()
                } else {
                    w.to_bits()
                },
                "slot {slot}: incremental {got} vs dense {w}"
            );
            nonzero += usize::from(w != 0.0);
        }
        assert_eq!(t.coefficients().count(), nonzero);
    }

    #[test]
    fn matches_dense_transform_across_domains() {
        for log_u in 0..=8u32 {
            let domain = Domain::new(log_u).unwrap();
            let deltas = synth(domain, 200, 0xfeed + u64::from(log_u));
            let t = IncrementalTransform::from_counts(domain, deltas.iter().copied());
            assert_bit_identical(&t, &dense_of(domain, &deltas));
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let domain = Domain::new(7).unwrap();
        let all = synth(domain, 300, 0xabc);
        let mut t = IncrementalTransform::new(domain);
        for chunk in all.chunks(37) {
            t.apply_delta(chunk.iter().copied());
        }
        let one_shot = IncrementalTransform::from_counts(domain, all.iter().copied());
        assert_eq!(t, one_shot);
        assert_bit_identical(&t, &dense_of(domain, &all));
    }

    #[test]
    fn merge_order_is_irrelevant() {
        let domain = Domain::new(6).unwrap();
        let a = synth(domain, 120, 1);
        let b = synth(domain, 80, 2);
        let mut ab = IncrementalTransform::new(domain);
        ab.apply_delta(a.iter().copied());
        ab.apply_delta(b.iter().copied());
        let mut ba = IncrementalTransform::new(domain);
        ba.apply_delta(b.iter().copied());
        ba.apply_delta(a.iter().copied());
        assert_eq!(ab, ba);
    }

    #[test]
    fn empty_and_zero_count_deltas_are_no_ops() {
        let domain = Domain::new(5).unwrap();
        let mut t = IncrementalTransform::from_counts(domain, [(3u64, 2u64), (17, 1)]);
        let before = t.clone();
        t.apply_delta(std::iter::empty());
        t.apply_delta([(9u64, 0u64), (3, 0)]);
        assert_eq!(t, before);
        assert_eq!(t.total_count(), 3);
        assert_eq!(t.distinct_keys(), 2);
        assert_eq!(t.count(3), 2);
        assert_eq!(t.count(9), 0);
    }

    #[test]
    fn sibling_cancellation_removes_the_detail() {
        let domain = Domain::new(3).unwrap();
        let mut t = IncrementalTransform::from_counts(domain, [(2u64, 1u64)]);
        let leaf_slot = (1u64 << 2) + 1; // detail over keys {2, 3}
        assert!(t.coefficients().any(|(s, _)| s == leaf_slot));
        t.apply_delta([(3u64, 1u64)]);
        // Equal siblings: the leaf detail is exactly zero and must vanish.
        assert!(!t.coefficients().any(|(s, _)| s == leaf_slot));
        assert_bit_identical(&t, &dense_of(domain, &[(2, 1), (3, 1)]));
    }

    #[test]
    fn top_coefficients_match_dense_selection() {
        let domain = Domain::new(6).unwrap();
        let deltas = synth(domain, 250, 7);
        let t = IncrementalTransform::from_counts(domain, deltas.iter().copied());
        let dense = dense_of(domain, &deltas);
        let want = top_k_magnitude(dense.iter().enumerate().map(|(s, &c)| (s as u64, c)), 10);
        let got = t.top_coefficients(10);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.slot, w.slot);
            assert_eq!(g.value.to_bits(), w.value.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_domain_key_rejected() {
        let mut t = IncrementalTransform::new(Domain::new(3).unwrap());
        t.apply_delta([(8u64, 1u64)]);
    }

    #[test]
    fn log_u_zero_is_the_identity_transform() {
        let domain = Domain::new(0).unwrap();
        let mut t = IncrementalTransform::new(domain);
        assert_eq!(t.coefficients().count(), 0);
        t.apply_delta([(0u64, 4u64)]);
        t.apply_delta([(0u64, 3u64)]);
        assert_eq!(t.coefficients().collect::<Vec<_>>(), vec![(0, 7.0)]);
    }
}
