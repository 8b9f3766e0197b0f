//! # wh-query — serving selectivity queries from built wavelet histograms
//!
//! The paper builds best-`k`-term wavelet histograms *so that* a
//! coordinator can answer selectivity queries from them — "what fraction
//! of records has key in `[a, b]`?" is the question a query optimiser
//! asks per predicate, thousands of times per planning session. This
//! crate is that read path, opened as a first-class subsystem: it
//! compiles a built [`WaveletHistogram`] into an immutable,
//! query-optimized form and answers point and range estimates in
//! `O(log k)` per query with **no allocation and no hashing**, single or
//! batched.
//!
//! ## The compiled form
//!
//! A `k`-term Haar representation reconstructs to a *step function*: each
//! retained detail coefficient changes the estimate only at its dyadic
//! block's start, midpoint, and end. [`CompiledHistogram::compile`]
//! prunes the error tree down to those at most `3k + 1` breakpoints
//! (`ErrorTree::segments` in `wh-wavelet`) and lays the result out as
//! three parallel arrays:
//!
//! ```text
//! starts:  [0,      s₁,     s₂,    …]   segment start keys, ascending
//! values:  [v₀,     v₁,     v₂,    …]   estimated frequency per key
//! prefix:  [0,      Σ₀,     Σ₀₊₁,  …]   cumulative estimate before the segment
//! ```
//!
//! A point estimate is one binary search (`values[i]`); a cumulative
//! estimate is the same search plus one fused multiply-add
//! (`prefix[i] + values[i]·(x − starts[i] + 1)`); a range sum is two
//! cumulative estimates. Everything is immutable after compilation, so a
//! [`CompiledHistogram`] is `Sync` and a thread-per-core server can share
//! one instance by reference with zero coordination.
//!
//! ## Batched serving
//!
//! Heavy traffic arrives in batches, and adjacent queries touch adjacent
//! segments. [`CompiledHistogram::try_range_sum_batch_into`] exploits
//! that: it radix-sorts the batch's query endpoints (a stream-consumed
//! LSD counting sort whose buffers live in a caller-held
//! [`BatchScratch`]), then resolves every endpoint in **one monotone
//! galloping walk** over the segment arrays — `O(q + k)` segment probes
//! for the whole batch instead of `O(q log k)` independent binary
//! searches — and is **bit-identical** to asking the queries one at a
//! time.
//!
//! ## One fallible API
//!
//! Every probe is a `try_*` method returning `Result<_, QueryError>`;
//! there is no panicking counterpart. A malformed query — from an
//! optimizer with a stale domain size, a client with an off-by-one range
//! — is an error value instead of a downed serving thread, and a failed
//! batch leaves its output buffer untouched.
//!
//! ## Example
//!
//! ```
//! use wh_core::WaveletHistogram;
//! use wh_query::{BatchScratch, CompiledHistogram, QueryError};
//! use wh_wavelet::Domain;
//!
//! // A tiny histogram: u = 8, average 16/√8 ⇒ two records per key.
//! let domain = Domain::new(3).unwrap();
//! let hist = WaveletHistogram::new(domain, [(0, 16.0 / 8f64.sqrt())]);
//! let compiled = CompiledHistogram::compile(&hist);
//!
//! assert!((compiled.try_point_estimate(5)? - 2.0).abs() < 1e-9);
//! assert!((compiled.try_range_sum(2, 5)? - 8.0).abs() < 1e-9);
//! assert!((compiled.try_selectivity(0, 3, 16)? - 0.5).abs() < 1e-9);
//! assert_eq!(
//!     compiled.try_range_sum(5, 2),
//!     Err(QueryError::EmptyRange { lo: 5, hi: 2 })
//! );
//!
//! // The batched path answers the same queries bit-identically, and so
//! // does the same histogram re-sliced into key-range windows.
//! let queries = [(2, 5), (0, 3), (7, 7)];
//! let mut scratch = BatchScratch::new();
//! let mut out = [0.0; 3];
//! compiled.shard(2).try_range_sum_batch_into(&queries, &mut scratch, &mut out)?;
//! for (&(lo, hi), &batched) in queries.iter().zip(&out) {
//!     assert_eq!(batched.to_bits(), compiled.try_range_sum(lo, hi)?.to_bits());
//! }
//! # Ok::<(), QueryError>(())
//! ```
//!
//! ## Windows and shards
//!
//! A compiled histogram cuts its segment arrays into an ascending list
//! of key-range *windows*. [`CompiledHistogram::compile`] produces one;
//! [`CompiledHistogram::shard`] re-slices the same arrays bitwise into
//! `m` — the form the `wh-serve` tier publishes, named
//! [`ShardedHistogram`]. It is one type with one implementation of every
//! probe: a single query binary-searches the segment starts, a batch
//! splits its sorted endpoints at the window bounds and walks each
//! window once, and because prefixes stay global (never rebased to a
//! window) the answers are bit-identical for every window count.
//!
//! [`CompiledHistogram2D`] is the 2-D counterpart (rectangle sums over a
//! summed-area grid, single or batched through a [`BatchScratch2D`]).
//!
//! The full build→serve dataflow across the workspace is described in
//! `docs/architecture.md` at the repository root.

mod batch;
mod compiled;
mod compiled2d;
mod error;
#[cfg(test)]
mod testutil;

pub use batch::BatchScratch;
pub use compiled::{CompiledHistogram, ShardedHistogram};
pub use compiled2d::{BatchScratch2D, CompiledHistogram2D};
pub use error::QueryError;

// Re-exported so callers of this crate can name the input types without
// depending on `wh-core` directly.
pub use wh_core::twod::WaveletHistogram2d;
pub use wh_core::WaveletHistogram;
