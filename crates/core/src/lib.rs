//! # wh-core — wavelet histograms on MapReduce
//!
//! The public API of this workspace: build the best-`k`-term Haar wavelet
//! histogram of a large, split-partitioned dataset with any of the paper's
//! algorithms, and query/evaluate the result.
//!
//! ```
//! use wh_core::builders::{HistogramBuilder, TwoLevelS, SendV};
//! use wh_core::evaluate::Evaluator;
//! use wh_data::Dataset;
//! use wh_mapreduce::ClusterConfig;
//!
//! let dataset = Dataset::zipf(12, 1.1, 100_000, 8);
//! let cluster = ClusterConfig::paper_cluster();
//!
//! // Exact baseline…
//! let exact = SendV::new().build(&dataset, &cluster, 16);
//! // …and the paper's one-round sampling algorithm.
//! let approx = TwoLevelS::new(1e-2, 42).build(&dataset, &cluster, 16);
//!
//! assert!(approx.metrics.total_comm_bytes() < exact.metrics.total_comm_bytes());
//!
//! // Query the histogram and measure its quality.
//! let estimate = approx.histogram.range_sum(0, 1023);
//! assert!(estimate >= 0.0 || estimate < 0.0); // finite
//! let eval = Evaluator::new(&dataset);
//! assert!(eval.sse(&approx.histogram) >= eval.ideal_sse(16) * 0.99);
//! ```
//!
//! ## The builders (§3, §4 of the paper)
//!
//! | Builder | Kind | Rounds | Communication |
//! |---|---|---|---|
//! | [`builders::Centralized`] | exact oracle | — | — |
//! | [`builders::SendV`] | exact baseline | 1 | `O(m·u)` |
//! | [`builders::SendCoef`] | exact baseline | 1 | `O(m·u)` |
//! | [`builders::HWTopk`] | exact | 3 | two-sided TPUT pruning |
//! | [`builders::BasicS`] | sampling | 1 | `O(1/ε²)` |
//! | [`builders::ImprovedS`] | sampling (biased) | 1 | `O(m/ε)` |
//! | [`builders::TwoLevelS`] | sampling (unbiased) | 1 | `O(√m/ε)` |
//! | [`builders::SendSketch`] | GCS sketch | 1 | sketch size × m |
//!
//! Every builder but the sketches is generic over its dataset
//! ([`builders::SplitSource`]): handed a `wh_data::twod::Dataset2d` it
//! runs the same jobs over the 2-D basis and returns a
//! [`twod::WaveletHistogram2d`].

mod basis;
pub mod builders;
pub mod evaluate;
pub mod histogram;
pub mod incremental;
pub mod twod;

pub use builders::{BuildResult, HistogramBuilder};
pub use histogram::WaveletHistogram;
pub use incremental::MaintainedHistogram;
