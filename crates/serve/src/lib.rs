//! # wh-serve — the sharded, lock-free-on-read serving tier
//!
//! The paper builds wavelet histograms *so that* something can serve
//! selectivity estimates from them at query-optimizer traffic rates — a
//! cardinality estimator probes one histogram per predicate per
//! candidate plan. This crate is that tier, grown from `wh-query`'s
//! single compiled histogram into a process-wide serving component:
//!
//! * **Sharded.** Published histograms are re-sliced into key-range
//!   windows ([`wh_query::ShardedHistogram`], the compiled type itself
//!   after `shard`) and addressed by dataset id. A batch's sorted
//!   endpoints split at the window bounds and each window is walked once
//!   — **bit-identically** to querying the one-window
//!   [`wh_query::CompiledHistogram`], because windows are bitwise slices
//!   of the compiled arrays, not independent compiles, and both forms
//!   run the same code.
//! * **Lock-free on read.** Rebuilt histograms swap in as whole
//!   [`Snapshot`] generations through an epoch-swap primitive
//!   ([`EpochSwap`]): readers poll one atomic per batch and re-clone an
//!   `Arc` only when a generation actually changed, so they never block
//!   on a publisher and never observe a torn generation.
//! * **Fallible.** Every query runs through `wh-query`'s `try_*` path;
//!   malformed traffic comes back as [`ServeError`] values. A serving
//!   thread cannot be panicked by query input.
//! * **Degrades gracefully.** A rebuild pipeline that errors
//!   ([`ServeTier::try_publish`]) or panics mid-publish leaves the last
//!   good [`Snapshot`] serving — reads are never dropped. Consecutive
//!   failures are tracked per dataset and reported as
//!   [`DatasetHealth::Degraded`] / [`DatasetHealth::Quarantined`]
//!   through [`ServeTier::dataset_health`] and
//!   [`ServeTier::degraded_datasets`], without ever gating the read
//!   path.
//!
//! ## Shape of a server
//!
//! ```
//! use wh_serve::ServeTier;
//! use wh_core::WaveletHistogram;
//! use wh_query::CompiledHistogram;
//! use wh_wavelet::Domain;
//!
//! // Build + compile (normally: the MapReduce build path).
//! let domain = Domain::new(3).unwrap();
//! let hist = WaveletHistogram::new(domain, [(0, 16.0 / 8f64.sqrt())]);
//! let compiled = CompiledHistogram::compile(&hist);
//!
//! // One tier per process; publish under a dataset id.
//! let tier = ServeTier::new(4); // shards per histogram ≈ serving cores
//! tier.publish(1, &compiled, 16);
//!
//! // One handle per serving thread; all methods are fallible.
//! std::thread::scope(|s| {
//!     for _ in 0..2 {
//!         s.spawn(|| {
//!             let mut handle = tier.handle();
//!             let queries = [(0, 3), (2, 5)];
//!             let mut out = [0.0; 2];
//!             handle.try_selectivity_batch_into(1, &queries, &mut out).unwrap();
//!             assert!((out[0] - 0.5).abs() < 1e-9);
//!             assert!(handle.try_selectivity(1, 9, 2).is_err()); // lo > hi: error, no panic
//!         });
//!     }
//! });
//! ```
//!
//! The differential, swap-under-load and writer-stress suites live in
//! `tests/serve_tier.rs` at the workspace root; the `serve-read-1d`,
//! `serve-read-2d` and `serve-refresh` workloads of `benchmark/` drive
//! closed-loop reader threads (and a refreshing writer) against this
//! tier.

mod epoch;
mod tier;

pub use epoch::{EpochReader, EpochSwap};
pub use tier::{
    DatasetHealth, DatasetId, ServeError, ServeHandle, ServeTier, Snapshot, QUARANTINE_AFTER,
};

// Re-exported so serving callers can name query types without depending
// on `wh-query` directly.
pub use wh_query::{
    BatchScratch, BatchScratch2D, CompiledHistogram, CompiledHistogram2D, QueryError,
    ShardedHistogram,
};
