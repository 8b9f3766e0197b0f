//! # wh-bench — the experiment harness
//!
//! Regenerates every figure of the paper's evaluation section (§5,
//! Figs. 5–19) at a laptop-friendly scale. Each experiment sweeps one
//! parameter with the others at the scaled defaults of
//! [`defaults::Defaults`], runs the relevant algorithms, and reports the
//! same series the paper plots: communication bytes, simulated running
//! time on the paper's cluster, and SSE.
//!
//! Run `cargo run -p wh-bench --release --bin figures -- all` to
//! regenerate everything into `results/*.csv`, or pass a figure id
//! (`fig5`, `fig6`, …); [`defaults::Defaults`] documents the scaling.
//!
//! Wall-clock performance is measured elsewhere: the stand-alone
//! `/benchmark` package (see `benchmark/README.md`) is the repository's
//! one performance harness.

pub mod defaults;
pub mod figures;
pub mod table;

pub use defaults::Defaults;
pub use table::Row;
