//! TwoLevel-S: the paper's main approximation algorithm (§4, Fig. 3/4).
//!
//! Second-level sampling at each split, over the local sample counts
//! `s_j(x)`:
//!
//! * `s_j(x) ≥ 1/(ε√m)` → emit `(x, s_j(x))` exactly;
//! * `0 < s_j(x) < 1/(ε√m)` → emit a bare marker `(x, NULL)` with
//!   probability `ε√m · s_j(x)`.
//!
//! At the reducer, with `ρ(x)` the sum of exact counts received and `M`
//! the number of markers, `ŝ(x) = ρ(x) + M/(ε√m)` is an unbiased
//! estimator of `s(x)` with standard deviation at most `1/ε` (Theorem 1),
//! and `v̂(x) = ŝ(x)/p` estimates the true frequency with standard
//! deviation `εn` (Corollary 1). Expected communication is `O(√m/ε)`
//! pairs (Theorem 3) — the `√m` improvement over Improved-S.

use crate::config::SamplingConfig;
use wh_data::SplitMix64;
use wh_wavelet::hash::FxHashMap;

/// What a split emits for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoLevelPair {
    /// `(x, s_j(x))`: the exact local sample count (above threshold).
    Count(u64),
    /// `(x, NULL)`: the key survived second-level subsampling.
    Marker,
}

/// Second-level emission for one split. `rng` drives the survival draws of
/// the sub-threshold keys; output is sorted by key for determinism.
pub fn emit(
    counts: &FxHashMap<u64, u64>,
    cfg: &SamplingConfig,
    rng: &mut SplitMix64,
) -> Vec<(u64, TwoLevelPair)> {
    let threshold = cfg.second_level_threshold();
    let mut keys: Vec<u64> = counts.keys().copied().collect();
    keys.sort_unstable();
    let mut out = Vec::new();
    for k in keys {
        let s = counts[&k];
        if s as f64 >= threshold {
            out.push((k, TwoLevelPair::Count(s)));
        } else if rng.next_f64() < cfg.second_level_probability(s) {
            out.push((k, TwoLevelPair::Marker));
        }
    }
    out
}

/// Reducer-side accumulator for one key: `ρ(x)` and `M`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoLevelAccumulator {
    /// Sum of exact counts received.
    pub rho: u64,
    /// Number of markers received.
    pub markers: u64,
}

impl TwoLevelAccumulator {
    /// Absorbs one received pair.
    pub fn absorb(&mut self, pair: TwoLevelPair) {
        match pair {
            TwoLevelPair::Count(c) => self.rho += c,
            TwoLevelPair::Marker => self.markers += 1,
        }
    }

    /// `ŝ(x) = ρ(x) + M/(ε√m)`.
    pub fn estimate_s(&self, cfg: &SamplingConfig) -> f64 {
        self.rho as f64 + self.markers as f64 * cfg.second_level_threshold()
    }

    /// `v̂(x) = ŝ(x)/p`.
    pub fn estimate_v(&self, cfg: &SamplingConfig) -> f64 {
        self.estimate_s(cfg) / cfg.p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_counts;

    fn cfg(epsilon: f64, m: u32, n: u64) -> SamplingConfig {
        SamplingConfig::new(epsilon, m, n)
    }

    #[test]
    fn heavy_keys_always_sent_exactly() {
        // threshold = 1/(0.1·√4) = 5.
        let c = cfg(0.1, 4, 1000);
        let counts = local_counts(std::iter::repeat_n(9u64, 10).chain([1, 1]));
        let mut rng = SplitMix64::new(1);
        let out = emit(&counts, &c, &mut rng);
        assert!(out.contains(&(9, TwoLevelPair::Count(10))));
    }

    #[test]
    fn light_keys_marker_or_absent() {
        let c = cfg(0.1, 4, 1000);
        let counts = local_counts([1u64, 2, 2]);
        let mut rng = SplitMix64::new(2);
        for (k, p) in emit(&counts, &c, &mut rng) {
            assert!(matches!(p, TwoLevelPair::Marker), "key {k} sent {p:?}");
        }
    }

    #[test]
    fn estimator_is_unbiased_empirically() {
        // One key with true local counts (7, 3, 2, 1) across m=4 splits;
        // threshold = 1/(0.2·2) = 2.5, so 7 and 3 are exact, 2 and 1 are
        // subsampled with prob 0.4·s. Average ŝ over many RNG draws must
        // approach s = 13.
        let c = cfg(0.2, 4, 10_000);
        let splits: [u64; 4] = [7, 3, 2, 1];
        let trials = 60_000;
        let mut sum = 0.0;
        for t in 0..trials {
            let mut acc = TwoLevelAccumulator::default();
            let mut rng = SplitMix64::new(1000 + t);
            for &s in &splits {
                let counts: FxHashMap<u64, u64> = [(42u64, s)].into_iter().collect();
                for (_, p) in emit(&counts, &c, &mut rng) {
                    acc.absorb(p);
                }
            }
            sum += acc.estimate_s(&c);
        }
        let mean = sum / trials as f64;
        assert!((mean - 13.0).abs() < 0.1, "mean ŝ = {mean}, want 13");
    }

    #[test]
    fn estimator_variance_within_theorem_bound() {
        // Theorem 1: sd(ŝ) ≤ 1/ε. Use m splits all below threshold.
        let c = cfg(0.05, 16, 1_000_000);
        // threshold = 1/(0.05·4) = 5; give each split count 3 (below).
        let m = 16u64;
        let trials = 20_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for t in 0..trials {
            let mut acc = TwoLevelAccumulator::default();
            let mut rng = SplitMix64::new(77 + t);
            for _ in 0..m {
                let counts: FxHashMap<u64, u64> = [(5u64, 3)].into_iter().collect();
                for (_, p) in emit(&counts, &c, &mut rng) {
                    acc.absorb(p);
                }
            }
            let e = acc.estimate_s(&c);
            sum += e;
            sumsq += e * e;
        }
        let mean = sum / trials as f64;
        let var = sumsq / trials as f64 - mean * mean;
        let bound = 1.0 / (c.epsilon * c.epsilon);
        assert!((mean - 48.0).abs() < 1.0, "mean {mean}, want 48");
        assert!(var <= bound, "var {var} exceeds theorem bound {bound}");
    }

    #[test]
    fn communication_scales_as_sqrt_m_over_epsilon() {
        // Theorem 3: expected pairs ≤ 2√m/ε. Build m splits of uniform
        // counts summing to the full sample 1/ε².
        let epsilon = 0.02;
        let m = 25u32;
        let n = 10_000_000u64;
        let c = cfg(epsilon, m, n);
        let sample_per_split = (1.0 / (epsilon * epsilon) / m as f64) as u64; // 100k
        let mut total_pairs = 0u64;
        let mut rng = SplitMix64::new(5);
        for j in 0..m {
            // 10k distinct keys with count = sample/10k each (all below the
            // threshold 1/(0.02·5) = 10 when count < 10).
            let per_key = sample_per_split / 10_000; // = 10 → right at threshold
            let counts: FxHashMap<u64, u64> = (0..10_000u64)
                .map(|k| (k * 31 + j as u64, per_key / 2))
                .collect();
            total_pairs += emit(&counts, &c, &mut rng).len() as u64;
        }
        let bound = 2.0 * (m as f64).sqrt() / epsilon;
        assert!(
            (total_pairs as f64) <= bound,
            "pairs {total_pairs} exceed 2√m/ε = {bound}"
        );
    }

    #[test]
    fn accumulator_combines_counts_and_markers() {
        let c = cfg(0.1, 25, 1_000_000);
        let mut acc = TwoLevelAccumulator::default();
        acc.absorb(TwoLevelPair::Count(7));
        acc.absorb(TwoLevelPair::Marker);
        acc.absorb(TwoLevelPair::Marker);
        // threshold = 1/(0.1·5) = 2.
        assert!((acc.estimate_s(&c) - (7.0 + 2.0 * 2.0)).abs() < 1e-9);
        let p = c.p();
        assert!((acc.estimate_v(&c) - acc.estimate_s(&c) / p).abs() < 1e-9);
    }
}
