//! # wavelet-hist
//!
//! A from-scratch Rust reproduction of *Building Wavelet Histograms on
//! Large Data in MapReduce* (Jestes, Yi, Li — PVLDB 5(2), 2011): exact
//! (Send-V, Send-Coef, H-WTopk) and approximate (Basic-S, Improved-S,
//! TwoLevel-S, Send-Sketch) construction of best-k-term Haar wavelet
//! histograms over split-partitioned datasets, executed on a deterministic
//! MapReduce runtime with exact communication accounting and a calibrated
//! cluster cost model.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! paths. Start with [`builders`] and the `examples/` directory.
//!
//! ```
//! use wavelet_hist::builders::{HistogramBuilder, TwoLevelS};
//! use wavelet_hist::data::Dataset;
//! use wavelet_hist::mapreduce::ClusterConfig;
//!
//! let dataset = Dataset::zipf(12, 1.1, 50_000, 8);
//! let cluster = ClusterConfig::paper_cluster();
//! let result = TwoLevelS::new(1e-2, 7).build(&dataset, &cluster, 16);
//! println!("{} — {}", result.histogram.len(), result.metrics);
//! ```

/// Seeded dataset generators (Zipf, WorldCup-like, 2-D) and the fixed-record file reader.
pub use wh_data as data;
/// The MapReduce runtime and cluster cost model.
pub use wh_mapreduce as mapreduce;
/// Sampling parameters and the Improved-S / TwoLevel-S emission rules.
pub use wh_sampling as sampling;
/// The Group-Count Sketch behind Send-Sketch.
pub use wh_sketch as sketch;
/// Distributed top-k protocols (two-sided TPUT by magnitude).
pub use wh_topk as topk;
/// Haar wavelet machinery (transforms, error tree, selection, SSE, 2-D).
pub use wh_wavelet as wavelet;

/// The query-serving layer (compiled histograms, batched selectivity).
pub use wh_query as query;
/// The serving tier (sharded snapshots, epoch swaps, per-thread handles).
pub use wh_serve as serve;

/// The histogram builders.
pub use wh_core::builders;
/// SSE evaluation against exact ground truth.
pub use wh_core::evaluate;
/// Incremental maintenance: delta-merged histograms for the freshness loop.
pub use wh_core::incremental;
/// Two-dimensional histograms.
pub use wh_core::twod;
pub use wh_core::{BuildResult, HistogramBuilder, MaintainedHistogram, WaveletHistogram};
pub use wh_query::{BatchScratch, CompiledHistogram, QueryError, ShardedHistogram};
pub use wh_serve::{ServeError, ServeHandle, ServeTier};
