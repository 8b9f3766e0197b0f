//! Improved-S: drop low-frequency sampled keys.
//!
//! A split only emits `(x, s_j(x))` when `s_j(x) ≥ ε·t_j` (with `t_j` the
//! split's sample size), so each split ships at most `t_j/(ε·t_j) = 1/ε`
//! pairs and the total is `O(m/ε)`. The cost is bias: the dropped counts
//! sum to at most `ε·p·n = 1/ε` in the sample, i.e. up to `εn` missing from
//! every estimated frequency — the effect visible in the paper's SSE plots
//! (Improved-S is the worst of the approximations, Figs. 6–7).

use wh_wavelet::hash::FxHashMap;

/// Improved-S emission: keys whose local sample count meets the `ε·t_j`
/// cutoff, sorted by key.
pub fn emit(counts: &FxHashMap<u64, u64>, epsilon: f64, t_j: u64) -> Vec<(u64, u64)> {
    let cutoff = epsilon * t_j as f64;
    let mut out: Vec<(u64, u64)> = counts
        .iter()
        .filter(|(_, &c)| c as f64 >= cutoff)
        .map(|(&k, &c)| (k, c))
        .collect();
    out.sort_unstable_by_key(|&(k, _)| k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_counts;

    #[test]
    fn cutoff_filters_small_counts() {
        let counts = local_counts([1, 1, 1, 1, 2, 3, 3]);
        // t_j = 7, ε = 0.3 → cutoff 2.1: keep counts ≥ 2.1 → only key 1 (4).
        let e = emit(&counts, 0.3, 7);
        assert_eq!(e, vec![(1, 4)]);
    }

    #[test]
    fn zero_cutoff_keeps_everything() {
        let counts = local_counts([4, 5, 6]);
        let e = emit(&counts, 1e-9, 3);
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn emission_respects_per_split_bound() {
        // Uniform worst case: many distinct keys with count 1.
        let counts = local_counts(0..10_000u64);
        let eps = 0.01f64;
        // At most ⌈1/ε⌉ pairs per split (plus one for rounding slack).
        let per_split_bound = (1.0 / eps).ceil() as usize + 1;
        let e = emit(&counts, eps, 10_000);
        // cutoff = 100: nothing survives, well under the 1/ε bound.
        assert!(e.len() <= per_split_bound);

        // Skewed case: a few heavy keys.
        let mut keys = Vec::new();
        for k in 0..50u64 {
            for _ in 0..200 {
                keys.push(k);
            }
        }
        let counts = local_counts(keys);
        let e = emit(&counts, eps, 10_000);
        assert_eq!(e.len(), 50);
        assert!(e.len() <= per_split_bound);
    }

    #[test]
    fn bias_is_one_sided() {
        // Dropped counts only ever shrink the estimate: everything emitted
        // is an exact local count, so Σ emitted ≤ t_j.
        let counts = local_counts([1, 1, 2, 3, 3, 3]);
        let e = emit(&counts, 0.4, 6);
        let total: u64 = e.iter().map(|&(_, c)| c).sum();
        assert!(total <= 6);
    }
}
