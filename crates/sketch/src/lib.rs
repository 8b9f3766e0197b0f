//! # wh-sketch — the linear sketch behind Send-Sketch
//!
//! The paper's Send-Sketch baseline (§4, choice (ii)) summarises each
//! split's local wavelet coefficient vector with a small linear sketch,
//! ships the sketches (they merge by addition), and extracts the top-k
//! coefficients at the reducer. The sketch is the one the paper evaluates:
//! [`gcs::GroupCountSketch`], the Group-Count Sketch of Cormode,
//! Garofalakis & Sacharidis (EDBT'06) — a hierarchy of sub-bucketed
//! CountSketches over dyadic groups of coefficient indices (branching
//! factor `b`, e.g. GCS-8) supporting best-first descent to the
//! high-energy coefficients (`polylog` query at `log_b u`-times-higher
//! update cost — the trade-off the paper's GCS-8 setting balances).
//!
//! It hashes with the 4-wise independent polynomials in [`hash`]. Sketches
//! constructed from the same parameters (including seed) are **mergeable
//! by addition**, which is what makes them shippable through a
//! Combine-less MapReduce round.

pub mod gcs;
pub mod hash;

pub use gcs::{GcsParams, GroupCountSketch};
