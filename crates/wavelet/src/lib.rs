//! # wh-wavelet — Haar wavelet machinery for wavelet histograms
//!
//! This crate implements the wavelet substrate of *Building Wavelet Histograms
//! on Large Data in MapReduce* (Jestes, Yi, Li — VLDB 2011):
//!
//! * the **orthonormal Haar transform** over a frequency vector of length
//!   `u = 2^log_u` ([`haar`]), matching the paper's §2.1 basis where
//!   `w_1 = Σv/√u` and, for `i = 2^j + k + 1`,
//!   `w_i = (Σ right half − Σ left half)/√(u/2^j)`;
//! * the **sparse transform** ([`sparse`]) that computes the non-zero
//!   coefficients of a sparse frequency vector in `O(N·log u)` time and
//!   `O(log u)` working memory per key — the algorithm the paper's mappers
//!   run instead of the dense `O(u)` pass (Appendix A);
//! * the **incrementally maintained transform** ([`incremental`]) that
//!   absorbs streaming count deltas in `O(d·log u)` per delta while staying
//!   bit-identical to the dense from-scratch transform of the accumulated
//!   data — the substrate of the delta-build path;
//! * the **error tree** ([`tree`]) used to answer point and range queries
//!   from a retained coefficient set;
//! * **top-k magnitude selection** ([`select`]) with deterministic
//!   tie-breaking;
//! * **SSE / energy** computations in coefficient space via Parseval
//!   ([`sse`]);
//! * **two-dimensional** standard-decomposition wavelets ([`twod`]).
//!
//! ## Coefficient indexing
//!
//! Coefficients are identified by their *paper index* `i ∈ 1..=u` but stored
//! zero-based: slot `i − 1` of a dense vector, or the `u64` value `i − 1`
//! when sparse. Slot 0 is the overall average coefficient; slot
//! `2^j + k` (0-based) is the detail coefficient at resolution level `j`
//! covering the dyadic block `k` of size `u/2^j`.
//!
//! Keys are likewise zero-based internally: the paper's key `x ∈ [u]`
//! corresponds to vector position `x − 1`.

pub mod haar;
pub mod hash;
pub mod incremental;
pub mod select;
pub mod sparse;
pub mod sse;
pub mod tree;
pub mod twod;

pub use haar::{forward, forward_in_place, inverse, inverse_in_place};
pub use incremental::IncrementalTransform;
pub use select::{top_k_magnitude, CoefEntry};
pub use sparse::{coefficient_updates, sparse_transform, SparseCoefs};
pub use tree::ErrorTree;

/// A validated dyadic key domain `[u]` with `u = 2^log_u`.
///
/// All wavelet operations in this workspace are parameterised by a `Domain`;
/// constructing one up front centralises the power-of-two validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Domain {
    log_u: u32,
}

impl Domain {
    /// Maximum supported `log₂ u`. `u ≤ 2^40` keeps `u as f64` exact and
    /// comfortably covers the paper's largest domain (`2^32`).
    pub const MAX_LOG_U: u32 = 40;

    /// Creates the domain `[2^log_u]`.
    ///
    /// Returns `None` when `log_u > Self::MAX_LOG_U`.
    pub fn new(log_u: u32) -> Option<Self> {
        (log_u <= Self::MAX_LOG_U).then_some(Self { log_u })
    }

    /// Creates the smallest dyadic domain containing `size` keys.
    pub fn covering(size: u64) -> Option<Self> {
        let log_u = 64 - size.saturating_sub(1).leading_zeros();
        Self::new(log_u.max(1))
    }

    /// `log₂ u`.
    #[inline]
    pub fn log_u(self) -> u32 {
        self.log_u
    }

    /// The domain size `u`.
    #[inline]
    pub fn u(self) -> u64 {
        1u64 << self.log_u
    }

    /// `u` as an exact `f64`.
    #[inline]
    pub fn u_f64(self) -> f64 {
        self.u() as f64
    }

    /// Whether `x` is a valid zero-based key.
    #[inline]
    pub fn contains(self, x: u64) -> bool {
        x < self.u()
    }
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[2^{}]", self.log_u)
    }
}

/// Splits a 0-based coefficient slot into its `(level j, block k)` position.
///
/// Slot 0 (the overall average) is reported as level `None`.
#[inline]
pub fn slot_level(slot: u64) -> Option<(u32, u64)> {
    if slot == 0 {
        None
    } else {
        let j = 63 - slot.leading_zeros();
        Some((j, slot - (1u64 << j)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_validation() {
        assert!(Domain::new(0).is_some());
        assert!(Domain::new(Domain::MAX_LOG_U).is_some());
        assert!(Domain::new(Domain::MAX_LOG_U + 1).is_none());
        let d = Domain::new(10).unwrap();
        assert_eq!(d.u(), 1024);
        assert_eq!(d.log_u(), 10);
        assert!(d.contains(1023));
        assert!(!d.contains(1024));
    }

    #[test]
    fn domain_covering() {
        assert_eq!(Domain::covering(1).unwrap().u(), 2);
        assert_eq!(Domain::covering(2).unwrap().u(), 2);
        assert_eq!(Domain::covering(3).unwrap().u(), 4);
        assert_eq!(Domain::covering(1024).unwrap().u(), 1024);
        assert_eq!(Domain::covering(1025).unwrap().u(), 2048);
    }

    #[test]
    fn slot_level_roundtrip() {
        assert_eq!(slot_level(0), None);
        assert_eq!(slot_level(1), Some((0, 0)));
        assert_eq!(slot_level(2), Some((1, 0)));
        assert_eq!(slot_level(3), Some((1, 1)));
        assert_eq!(slot_level(4), Some((2, 0)));
        assert_eq!(slot_level(7), Some((2, 3)));
        for slot in 1..1000u64 {
            let (j, k) = slot_level(slot).unwrap();
            assert_eq!((1u64 << j) + k, slot);
        }
    }

    #[test]
    fn display() {
        assert_eq!(Domain::new(20).unwrap().to_string(), "[2^20]");
    }
}
