//! # wh-data — seeded workload generators
//!
//! Datasets in this workspace are **lazy and position-addressable**: the key
//! of record `i` of split `j` is a pure function of `(seed, j, i)`. This
//! gives three properties the experiments need:
//!
//! 1. **No materialisation.** A "200 GB" dataset is a recipe, not bytes on
//!    disk; scanning it costs CPU only for the records actually touched.
//! 2. **Identical data for every algorithm.** Send-V and TwoLevel-S read the
//!    same logical records, so communication/SSE comparisons are apples to
//!    apples.
//! 3. **An honest RandomRecordReader.** The paper's samplers seek to `p·n_j`
//!    random record offsets inside a split (Appendix B); here sampling
//!    without replacement over positions is exact, because any position can
//!    be read in `O(1)`.
//!
//! Record payloads beyond the key are *virtual*: a [`Record`] carries its
//! on-disk size but only the key is generated, which is what makes the
//! paper's 4 B → 100 kB record-size sweep (Fig. 11) feasible at laptop
//! scale.

pub mod dataset;
pub mod draw;
pub mod file;
pub mod rng;
pub mod twod;
pub mod worldcup;
pub mod zipf;

pub use dataset::{Dataset, DatasetBuilder, Distribution, Record, SplitMeta};
pub use rng::SplitMix64;
pub use zipf::Zipf;
