//! Shared sampling parameters.

/// Parameters of a sampling run: error target `ε`, split count `m`, and
/// dataset size `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Error parameter ε: target frequency standard deviation is `εn`.
    pub epsilon: f64,
    /// Number of splits `m`.
    pub m: u32,
    /// Total record count `n`.
    pub n: u64,
    /// Exponent γ of the second-level threshold `1/(ε·m^γ)`.
    ///
    /// The paper's analysis picks γ = ½ (communication `O(√m/ε)` with
    /// variance still `1/ε²`); the ablation harness sweeps γ to show both
    /// endpoints are worse — γ = 0 degenerates towards Improved-S-like
    /// cutoffs, γ = 1 towards shipping everything.
    pub threshold_exponent: f64,
}

impl SamplingConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `ε`, zero `m`, or zero `n`.
    pub fn new(epsilon: f64, m: u32, n: u64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon.is_finite(),
            "ε must be positive, got {epsilon}"
        );
        assert!(m > 0, "m must be positive");
        assert!(n > 0, "n must be positive");
        Self {
            epsilon,
            m,
            n,
            threshold_exponent: 0.5,
        }
    }

    /// Overrides the second-level threshold exponent γ (ablation; the
    /// estimator stays unbiased for any γ, only variance and
    /// communication shift).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ γ ≤ 1`.
    pub fn with_threshold_exponent(mut self, gamma: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&gamma),
            "γ must be in [0, 1], got {gamma}"
        );
        self.threshold_exponent = gamma;
        self
    }

    /// First-level sampling probability `p = 1/(ε²n)`, capped at 1 (when
    /// `1/ε² ≥ n` the "sample" is the full dataset).
    pub fn p(&self) -> f64 {
        (1.0 / (self.epsilon * self.epsilon * self.n as f64)).min(1.0)
    }

    /// Second-level count threshold `1/(ε·m^γ)` (γ = ½ by default — the
    /// paper's `1/(ε√m)`): local counts at or above it are sent exactly,
    /// smaller ones are subsampled.
    pub fn second_level_threshold(&self) -> f64 {
        1.0 / (self.epsilon * (self.m as f64).powf(self.threshold_exponent))
    }

    /// Second-level inclusion probability for a local count `s`:
    /// `min(s / threshold, 1)`.
    pub fn second_level_probability(&self, s: u64) -> f64 {
        (s as f64 / self.second_level_threshold()).min(1.0)
    }

    /// The number of first-level samples split `j` (with `n_j` records)
    /// should draw: `p·n_j` with *stochastic rounding* of the fractional
    /// part, seeded by `seed`. This matches Bernoulli coin-flip sampling
    /// in expectation even when `p·n_j < 1` (very large ε), where
    /// deterministic rounding would silently sample nothing.
    pub fn split_sample_size_seeded(&self, n_j: u64, seed: u64) -> u64 {
        let target = self.p() * n_j as f64;
        let base = target.floor();
        let frac = target - base;
        let mut rng = wh_data::SplitMix64::new(seed ^ 0x5a5a_1234);
        let extra = u64::from(rng.next_f64() < frac);
        ((base as u64) + extra).min(n_j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_matches_formula() {
        let c = SamplingConfig::new(1e-3, 64, 1 << 24);
        let expect = 1.0 / (1e-6 * (1 << 24) as f64);
        assert!((c.p() - expect).abs() < 1e-12);
    }

    #[test]
    fn p_caps_at_one() {
        let c = SamplingConfig::new(0.5, 4, 100);
        // 1/(0.25·100) = 0.04 < 1 fine; now tiny ε:
        assert!(c.p() < 1.0);
        let c = SamplingConfig::new(1e-6, 4, 100);
        assert_eq!(c.p(), 1.0);
        assert_eq!(c.split_sample_size_seeded(25, 3), 25);
    }

    #[test]
    fn threshold_shrinks_with_m() {
        let a = SamplingConfig::new(1e-3, 100, 1 << 30);
        let b = SamplingConfig::new(1e-3, 400, 1 << 30);
        assert!((a.second_level_threshold() / b.second_level_threshold() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn inclusion_probability_proportional_then_capped() {
        let c = SamplingConfig::new(1e-2, 100, 1 << 20);
        // threshold = 1/(0.01·10) = 10.
        assert!((c.second_level_threshold() - 10.0).abs() < 1e-9);
        assert!((c.second_level_probability(5) - 0.5).abs() < 1e-9);
        assert_eq!(c.second_level_probability(10), 1.0);
        assert_eq!(c.second_level_probability(1000), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_epsilon_rejected() {
        SamplingConfig::new(0.0, 1, 1);
    }

    #[test]
    fn threshold_exponent_sweep() {
        let base = SamplingConfig::new(1e-2, 64, 1 << 20);
        // γ = 0: threshold 1/ε (large → most keys subsampled hard).
        let g0 = base.with_threshold_exponent(0.0);
        assert!((g0.second_level_threshold() - 100.0).abs() < 1e-9);
        // γ = ½ (default): 1/(ε·8).
        assert!((base.second_level_threshold() - 12.5).abs() < 1e-9);
        // γ = 1: 1/(ε·64).
        let g1 = base.with_threshold_exponent(1.0);
        assert!((g1.second_level_threshold() - 100.0 / 64.0).abs() < 1e-9);
        // Probability is always s/threshold capped at 1.
        assert!((g1.second_level_probability(1) - 0.64).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "γ must be in")]
    fn bad_exponent_rejected() {
        SamplingConfig::new(1e-2, 4, 100).with_threshold_exponent(1.5);
    }

    #[test]
    fn stochastic_rounding_is_unbiased_at_tiny_rates() {
        // p·n_j ≈ 0.5: deterministic rounding would always pick 0 or 1;
        // stochastic rounding must average to the target.
        let c = SamplingConfig::new(0.2, 4, 100); // p = 1/(0.04·100) = 0.25
        let n_j = 2; // target 0.5
        let trials = 20_000u64;
        let total: u64 = (0..trials)
            .map(|s| c.split_sample_size_seeded(n_j, s))
            .sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
