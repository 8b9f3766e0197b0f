//! # wh-topk — distributed top-k aggregation
//!
//! The exact algorithm of the paper (§3) reduces wavelet-histogram
//! construction to a *distributed top-k* problem: every split holds local
//! wavelet coefficients `w_{i,j}`, the global coefficient is
//! `w_i = Σ_j w_{i,j}`, and we need the k global coefficients of largest
//! **magnitude**. Classic threshold algorithms (TPUT and friends) assume
//! non-negative scores, so their partial-sum pruning breaks when unseen
//! scores may be very negative.
//!
//! This crate provides:
//!
//! * [`two_sided`] — the paper's modified algorithm: two interleaved TPUT
//!   instances tracking upper/lower bounds `τ⁺/τ⁻`, magnitude thresholds
//!   `T₁`/`T₂`, and three rounds of pruning. The coordinator logic is a
//!   standalone state machine ([`two_sided::Coordinator`]) so the MapReduce
//!   implementation in `wh-core` can drive it round by round, exactly like
//!   the in-memory driver here;
//! * [`node`] — the node-side abstraction and an in-memory implementation;
//! * [`exact`] — a brute-force reference for tests.
//!
//! All drivers report per-round communication in pairs and bytes so the
//! experiments can attribute cost to rounds.

pub mod bitset;
pub mod exact;
pub mod node;
pub mod two_sided;

pub use node::{InMemoryNode, ScoreNode};
pub use two_sided::{two_sided_topk, Coordinator};
