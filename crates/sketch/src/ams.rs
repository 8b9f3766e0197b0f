//! The AMS-style wavelet sketch (Gilbert et al., VLDB'01 — the paper's
//! reference \[20\]).
//!
//! A CountSketch is maintained over the **wavelet coefficient domain**:
//! every key arrival translates into `log u + 1` coefficient updates (the
//! sparse-transform path), each applied to the sketch. The sketch of the
//! global coefficient vector is the sum of the splits' sketches. Extraction
//! is the approach's weakness: every coefficient index must be probed, an
//! `O(u · rows)` scan — the cost the Group-Count Sketch removes.

use crate::count_sketch::CountSketch;
use wh_wavelet::select::{top_k_magnitude, CoefEntry};
use wh_wavelet::{sparse, Domain};

/// CountSketch over the coefficient vector of a frequency signal.
#[derive(Debug, Clone, PartialEq)]
pub struct AmsWaveletSketch {
    domain: Domain,
    sketch: CountSketch,
}

impl AmsWaveletSketch {
    /// Creates an empty sketch. All sketches built with the same
    /// `(domain, rows, cols, seed)` merge.
    pub fn new(domain: Domain, rows: usize, cols: usize, seed: u64) -> Self {
        Self {
            domain,
            sketch: CountSketch::new(rows, cols, seed),
        }
    }

    /// The signal domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Adds `count` occurrences of key `x`; returns the number of sketch
    /// row-updates performed (for CPU accounting).
    pub fn update_key(&mut self, x: u64, count: f64) -> u64 {
        let mut updates = 0;
        sparse::coefficient_updates(self.domain, x, count, |slot, delta| {
            self.sketch.update(slot, delta);
            updates += 1;
        });
        updates * self.sketch.rows() as u64
    }

    /// Adds `delta` directly to coefficient `slot` (for tests).
    pub fn update_coefficient(&mut self, slot: u64, delta: f64) {
        self.sketch.update(slot, delta);
    }

    /// Estimates coefficient `slot`.
    pub fn estimate(&self, slot: u64) -> f64 {
        self.sketch.estimate(slot)
    }

    /// Extracts the k estimated-largest-magnitude coefficients by probing
    /// **every** slot — the `O(u)` query of the AMS approach.
    pub fn topk_exhaustive(&self, k: usize) -> Vec<CoefEntry> {
        top_k_magnitude(
            (0..self.domain.u()).map(|slot| (slot, self.sketch.estimate(slot))),
            k,
        )
    }

    /// Merges another split's sketch.
    pub fn merge(&mut self, other: &AmsWaveletSketch) {
        assert_eq!(
            self.domain, other.domain,
            "merging sketches over different domains"
        );
        self.sketch.merge(&other.sketch);
    }

    /// Non-zero counters (what is shipped to the reducer).
    pub fn nonzero_counters(&self) -> usize {
        self.sketch.nonzero_counters()
    }

    /// Non-zero counters as `(index, value)` pairs for shipping.
    pub fn counter_entries(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.sketch.counter_entries()
    }

    /// Adds a shipped counter into this sketch.
    pub fn add_counter(&mut self, index: u64, value: f64) {
        self.sketch.add_counter(index, value);
    }

    /// Rows × cols of the underlying CountSketch (for CPU accounting).
    pub fn dims(&self) -> (usize, usize) {
        (self.sketch.rows(), self.sketch.cols())
    }

    /// Underlying sketch (read-only).
    pub fn sketch(&self) -> &CountSketch {
        &self.sketch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn recovers_dominant_coefficients() {
        let domain = Domain::new(8).unwrap();
        let mut sk = AmsWaveletSketch::new(domain, 7, 512, 42);
        // Heavy spike at key 17 (300 occurrences) over light noise.
        sk.update_key(17, 300.0);
        for x in 0..256u64 {
            sk.update_key(x, 1.0);
        }
        let exact = wh_wavelet::sparse::sparse_transform(
            domain,
            (0..256u64).map(|x| (x, 1.0 + if x == 17 { 300.0 } else { 0.0 })),
        );
        // The largest-magnitude coefficient is the leaf detail of the spike:
        // slot 2^7 + (17 >> 1) = 136, value −300/√2.
        let top = sk.topk_exhaustive(4);
        let leaf = top
            .iter()
            .find(|e| e.slot == 136)
            .expect("slot 136 in top-4");
        let true_leaf = wh_wavelet::sparse::densify(domain, &exact)[136];
        assert!(
            close(leaf.value, true_leaf, 0.2 * true_leaf.abs()),
            "{} vs {true_leaf}",
            leaf.value
        );
    }

    #[test]
    fn merge_matches_single_stream() {
        let domain = Domain::new(6).unwrap();
        let mut a = AmsWaveletSketch::new(domain, 3, 64, 7);
        let mut b = AmsWaveletSketch::new(domain, 3, 64, 7);
        let mut whole = AmsWaveletSketch::new(domain, 3, 64, 7);
        for x in 0..32u64 {
            a.update_key(x, 2.0);
            whole.update_key(x, 2.0);
        }
        for x in 16..64u64 {
            b.update_key(x, 1.0);
            whole.update_key(x, 1.0);
        }
        a.merge(&b);
        // Summation order differs between the merged and single-stream
        // sketches, so compare with a float tolerance.
        for (x, y) in a.sketch().counters().iter().zip(whole.sketch().counters()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn update_cost_accounting() {
        let domain = Domain::new(10).unwrap();
        let mut sk = AmsWaveletSketch::new(domain, 5, 32, 1);
        let ops = sk.update_key(3, 1.0);
        assert_eq!(ops, 11 * 5); // (log u + 1) coefficient updates × rows
    }

    #[test]
    fn estimate_exact_for_lone_signal() {
        let domain = Domain::new(4).unwrap();
        let mut sk = AmsWaveletSketch::new(domain, 5, 64, 9);
        sk.update_coefficient(3, 2.5);
        assert!((sk.estimate(3) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn coefficient_estimates_unbiased_across_seeds() {
        // Feed the same key stream into 1-row sketches under many
        // independent seeds; the mean estimate of each coefficient must
        // converge on the exact orthonormal Haar coefficient of the
        // stream's frequency vector.
        let domain = Domain::new(5).unwrap();
        let mut freq = vec![0.0f64; 32];
        let keys: Vec<(u64, f64)> = (0..32u64).map(|x| (x, ((x * 7) % 13) as f64)).collect();
        for &(x, c) in &keys {
            freq[x as usize] += c;
        }
        let exact = wh_wavelet::haar::forward(&freq);
        let trials = 300;
        for slot in [0u64, 1, 5, 17] {
            let mut sum = 0.0;
            for seed in 0..trials {
                let mut sk = AmsWaveletSketch::new(domain, 1, 16, seed);
                for &(x, c) in &keys {
                    sk.update_key(x, c);
                }
                sum += sk.estimate(slot);
            }
            let mean = sum / trials as f64;
            let want = exact[slot as usize];
            assert!(
                (mean - want).abs() < 4.0,
                "slot {slot}: mean {mean} vs exact {want}"
            );
        }
    }
}
