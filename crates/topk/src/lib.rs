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
//! This crate provides both sides of the paper's modified algorithm, each
//! written once and shared by `wh-core`'s H-WTopk builder and the
//! in-memory executor [`two_sided_topk`], so testing that executor against
//! brute force tests the code the builder runs:
//!
//! * [`two_sided`] — the coordinator side: two interleaved TPUT instances
//!   tracking upper/lower bounds `τ⁺/τ⁻`, magnitude thresholds `T₁`/`T₂`,
//!   and three rounds of pruning, as a state machine over received
//!   messages ([`two_sided::Coordinator`]);
//! * [`node`] — the split side ([`InMemoryNode`]): what each round sends,
//!   and the unsent coefficients it keeps between rounds;
//! * [`exact`] — a brute-force reference for tests.
//!
//! The executor reports per-round communication in pairs so the experiments
//! can attribute cost to rounds.

pub mod exact;
pub mod node;
pub mod two_sided;

pub use node::InMemoryNode;
pub use two_sided::{two_sided_topk, Coordinator};
