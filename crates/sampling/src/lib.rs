//! # wh-sampling — the paper's sampling algorithms (§4)
//!
//! All three samplers share a **first level**: every split `j` draws
//! `t_j = p·n_j` records without replacement, with `p = 1/(ε²·n)`, so the
//! expected total sample size is `1/ε²` and the sampled frequency vector
//! `s` estimates `v` with standard deviation `O(εn)` after scaling by
//! `1/p`. They differ in what each split emits about its local sample
//! counts `s_j(x)`:
//!
//! * **Basic-S** (no module here: `wh-core`'s builder emits the local
//!   counts as they are): every sampled key, aggregated in the mapper
//!   into `(x, s_j(x))` pairs or, for the ablation, one pair per sampled
//!   record. Communication `O(1/ε²)`.
//! * **Improved-S** ([`improved`]): only keys with `s_j(x) ≥ ε·t_j`; at
//!   most `1/ε` pairs per split, `O(m/ε)` total — but the estimator
//!   becomes **biased** (small counts are silently dropped).
//! * **TwoLevel-S** ([`two_level`]): keys with `s_j(x) ≥ 1/(ε√m)` are sent
//!   with their count; smaller keys survive with probability
//!   `ε√m·s_j(x)` and are sent as a bare `(x, NULL)` marker. The estimator
//!   `ŝ(x) = ρ(x) + M/(ε√m)` is **unbiased** with standard deviation at
//!   most `1/ε` (Theorem 1), and expected communication is `O(√m/ε)`
//!   (Theorem 3).
//!
//! The numeric workhorses live here as pure functions over local count
//! maps; `wh-core` wires them into MapReduce jobs.

pub mod config;
pub mod improved;
pub mod two_level;

pub use config::SamplingConfig;
pub use two_level::{TwoLevelAccumulator, TwoLevelPair};

/// Aggregates sampled keys into local counts `s_j` — the input the
/// emission functions take, built here for their unit tests (the builders
/// count through `wh-core`'s shared sampler).
#[cfg(test)]
pub(crate) fn local_counts(
    sampled_keys: impl IntoIterator<Item = u64>,
) -> wh_wavelet::hash::FxHashMap<u64, u64> {
    let mut counts = wh_wavelet::hash::FxHashMap::default();
    for k in sampled_keys {
        *counts.entry(k).or_insert(0) += 1;
    }
    counts
}
