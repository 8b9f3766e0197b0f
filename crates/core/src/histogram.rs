//! The `WaveletHistogram` type: a queryable, serialisable k-term Haar
//! wavelet representation of a frequency vector.

use serde::{Deserialize, Serialize};
use wh_wavelet::select::{sort_by_magnitude, CoefEntry};
use wh_wavelet::tree::ErrorTree;
use wh_wavelet::Domain;

/// A k-term wavelet histogram over the key domain `[u]`.
///
/// Stores the retained coefficients sorted by descending magnitude
/// (ties: ascending slot), which is the order every builder produces.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveletHistogram {
    log_u: u32,
    /// `(slot, value)` pairs, 0-based slots (see `wh-wavelet` docs).
    coefs: Vec<(u64, f64)>,
}

// The vendored serde (see vendor/serde) has no derive macro, so the field
// mapping is written out by hand.
impl Serialize for WaveletHistogram {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("log_u".to_string(), self.log_u.to_value()),
            ("coefs".to_string(), self.coefs.to_value()),
        ])
    }
}

impl Deserialize for WaveletHistogram {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::msg(format!("WaveletHistogram: missing `{name}`")))
        };
        Ok(Self {
            log_u: u32::from_value(field("log_u")?)?,
            coefs: Vec::from_value(field("coefs")?)?,
        })
    }
}

impl WaveletHistogram {
    /// Builds a histogram from retained coefficients.
    ///
    /// Coefficients are re-sorted into canonical order; zero-valued entries
    /// are dropped; duplicate slots are rejected.
    ///
    /// # Panics
    ///
    /// Panics on duplicate slots or slots outside the domain.
    pub fn new(domain: Domain, coefs: impl IntoIterator<Item = (u64, f64)>) -> Self {
        let mut entries: Vec<CoefEntry> = coefs
            .into_iter()
            .filter(|&(_, v)| v != 0.0)
            .map(|(slot, value)| {
                assert!(slot < domain.u(), "slot {slot} outside {domain}");
                CoefEntry { slot, value }
            })
            .collect();
        sort_by_magnitude(&mut entries);
        for w in entries.windows(2) {
            assert_ne!(
                w[0].slot, w[1].slot,
                "duplicate coefficient slot {}",
                w[0].slot
            );
        }
        // windows(2) only catches adjacent duplicates after magnitude sort;
        // do a full check via a sorted scan of slots.
        let mut slots: Vec<u64> = entries.iter().map(|e| e.slot).collect();
        slots.sort_unstable();
        for w in slots.windows(2) {
            assert_ne!(w[0], w[1], "duplicate coefficient slot {}", w[0]);
        }
        Self {
            log_u: domain.log_u(),
            coefs: entries.into_iter().map(|e| (e.slot, e.value)).collect(),
        }
    }

    /// The key domain.
    pub fn domain(&self) -> Domain {
        Domain::new(self.log_u).expect("stored log_u is valid")
    }

    /// Number of retained coefficients (≤ k; fewer when the signal has
    /// fewer non-zero coefficients).
    pub fn len(&self) -> usize {
        self.coefs.len()
    }

    /// Whether the histogram retains nothing (all-zero signal).
    pub fn is_empty(&self) -> bool {
        self.coefs.is_empty()
    }

    /// Retained `(slot, value)` pairs, descending magnitude.
    pub fn coefficients(&self) -> &[(u64, f64)] {
        &self.coefs
    }

    /// The retained value of `slot`, if any.
    pub fn coefficient(&self, slot: u64) -> Option<f64> {
        self.coefs
            .iter()
            .find(|&&(s, _)| s == slot)
            .map(|&(_, v)| v)
    }

    /// Builds the query-side error tree.
    pub fn tree(&self) -> ErrorTree {
        ErrorTree::new(self.domain(), self.coefs.iter().copied())
    }

    /// Estimated frequency of the (0-based) key `x`.
    pub fn point_estimate(&self, x: u64) -> f64 {
        self.tree().point_estimate(x)
    }

    /// Estimated total frequency of keys in `[lo, hi]` (0-based,
    /// inclusive) — the range-selectivity primitive of Matias et al.
    pub fn range_sum(&self, lo: u64, hi: u64) -> f64 {
        self.tree().range_sum(lo, hi)
    }

    /// Estimated selectivity of `[lo, hi]` relative to `n` records.
    pub fn selectivity(&self, lo: u64, hi: u64, n: u64) -> f64 {
        assert!(n > 0, "selectivity needs a positive record count");
        (self.range_sum(lo, hi) / n as f64).clamp(0.0, 1.0)
    }

    /// Estimated cumulative frequency of keys `0..=x` via the error
    /// tree's root-to-leaf path.
    ///
    /// Each call builds the `O(k)` error tree first (like every query
    /// method on this type); the `O(log u)` walk only pays off on a
    /// retained [`ErrorTree`] or, for serving many queries, a
    /// compile-once `wh-query` `CompiledHistogram`.
    pub fn prefix_sum(&self, x: u64) -> f64 {
        self.tree().prefix_sum(x)
    }

    /// The piecewise-constant reconstruction as ascending `(start, value)`
    /// segments — the histogram's query-optimized form (computed through
    /// a freshly built error tree, `O(k log u)` per call). This is what
    /// the `wh-query` compiler lays out with per-segment prefix sums; see
    /// [`wh_wavelet::tree::ErrorTree::segments`] for the exact contract.
    pub fn segments(&self) -> Vec<(u64, f64)> {
        self.tree().segments()
    }

    /// Reconstructs the full estimated frequency vector (small domains).
    pub fn reconstruct(&self) -> Vec<f64> {
        self.tree().reconstruct()
    }

    /// The energy captured by the retained coefficients, `Σ ŵ_i²`.
    pub fn retained_energy(&self) -> f64 {
        self.coefs.iter().map(|&(_, v)| v * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_wavelet::haar::forward;

    fn hist_from_signal(v: &[f64], k: usize) -> (WaveletHistogram, Vec<f64>) {
        let domain = Domain::covering(v.len() as u64).unwrap();
        let w = forward(v);
        let top = wh_wavelet::select::top_k_magnitude(
            w.iter().enumerate().map(|(s, &c)| (s as u64, c)),
            k,
        );
        (
            WaveletHistogram::new(domain, top.iter().map(|e| (e.slot, e.value))),
            w,
        )
    }

    #[test]
    fn canonical_order_and_len() {
        let v: Vec<f64> = (0..32).map(|i| (i % 7) as f64).collect();
        let (h, _) = hist_from_signal(&v, 5);
        assert!(h.len() <= 5);
        for w in h.coefficients().windows(2) {
            assert!(w[0].1.abs() >= w[1].1.abs());
        }
    }

    #[test]
    fn full_retention_reconstructs_exactly() {
        let v: Vec<f64> = (0..16).map(|i| ((i * 5) % 11) as f64).collect();
        let (h, _) = hist_from_signal(&v, 16);
        let back = h.reconstruct();
        for (a, b) in v.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
        // Point and range queries agree with reconstruction.
        for x in 0..16u64 {
            assert!((h.point_estimate(x) - v[x as usize]).abs() < 1e-9);
        }
        let total: f64 = v.iter().sum();
        assert!((h.range_sum(0, 15) - total).abs() < 1e-9);
    }

    #[test]
    fn selectivity_clamped_and_scaled() {
        let v = vec![10.0, 0.0, 0.0, 0.0];
        let (h, _) = hist_from_signal(&v, 4);
        let sel = h.selectivity(0, 0, 10);
        assert!((sel - 1.0).abs() < 1e-9);
        assert!(h.selectivity(1, 3, 10) < 1e-12);
    }

    #[test]
    fn serde_roundtrip() {
        let v: Vec<f64> = (0..64).map(|i| ((i * 3) % 13) as f64).collect();
        let (h, _) = hist_from_signal(&v, 10);
        let json = serde_json::to_string(&h).unwrap();
        let back: WaveletHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
        assert_eq!(back.domain().u(), 64);
    }

    #[test]
    fn zero_coefficients_dropped() {
        let domain = Domain::new(4).unwrap();
        let h = WaveletHistogram::new(domain, [(0, 1.0), (3, 0.0)]);
        assert_eq!(h.len(), 1);
        assert_eq!(h.coefficient(3), None);
        assert_eq!(h.coefficient(0), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_slots_rejected() {
        let domain = Domain::new(4).unwrap();
        WaveletHistogram::new(domain, [(1, 1.0), (1, 2.0)]);
    }

    #[test]
    fn retained_energy() {
        let domain = Domain::new(4).unwrap();
        let h = WaveletHistogram::new(domain, [(0, 3.0), (2, -4.0)]);
        assert!((h.retained_energy() - 25.0).abs() < 1e-12);
    }
}
