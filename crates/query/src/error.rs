//! The query-path error type: every way a selectivity request can be
//! malformed, as a value instead of a panic.
//!
//! The serving tier (`wh-serve`) answers traffic it does not control — a
//! query optimizer with a stale domain size, a client with an off-by-one
//! range — and a panic there takes down a serving thread. Every query
//! method on [`crate::CompiledHistogram`] and
//! [`crate::CompiledHistogram2D`] is therefore a `try_*` method returning
//! `Result<_, QueryError>`; a caller who *wants* a bug to abort unwraps.

use std::fmt;

use wh_wavelet::Domain;

/// Why a query (or a batch of queries) could not be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// A range query with `lo > hi`.
    EmptyRange {
        /// The range's lower endpoint.
        lo: u64,
        /// The range's upper endpoint (smaller than `lo`).
        hi: u64,
    },
    /// A key outside the histogram's domain.
    OutOfDomain {
        /// The offending key.
        key: u64,
        /// The domain it missed.
        domain: Domain,
    },
    /// A selectivity query with a zero record count.
    ZeroRecords,
    /// A batch larger than the tag budget of the batched walk.
    BatchTooLarge {
        /// The offending batch length.
        len: usize,
        /// Base-2 log of the largest supported batch.
        max_log2: u32,
    },
    /// A batched call whose output buffer does not match the batch.
    OutputMismatch {
        /// Number of queries in the batch.
        queries: usize,
        /// Length of the output buffer.
        out: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            QueryError::EmptyRange { lo, hi } => write!(f, "empty range [{lo}, {hi}]"),
            QueryError::OutOfDomain { key, domain } => write!(f, "key {key} outside {domain}"),
            QueryError::ZeroRecords => write!(f, "selectivity needs a positive record count"),
            QueryError::BatchTooLarge { len, max_log2 } => {
                write!(f, "batch of {len} exceeds the 2^{max_log2} tag budget")
            }
            QueryError::OutputMismatch { queries, out } => write!(
                f,
                "output buffer must match the batch length ({out} slots for {queries} queries)"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offending_values() {
        assert_eq!(
            QueryError::EmptyRange { lo: 9, hi: 3 }.to_string(),
            "empty range [9, 3]"
        );
        let domain = Domain::new(4).unwrap();
        let msg = QueryError::OutOfDomain { key: 99, domain }.to_string();
        assert!(msg.starts_with("key 99 outside"), "{msg}");
        assert_eq!(
            QueryError::ZeroRecords.to_string(),
            "selectivity needs a positive record count"
        );
        assert!(QueryError::BatchTooLarge {
            len: 5,
            max_log2: 30
        }
        .to_string()
        .contains("2^30 tag budget"));
        assert!(QueryError::OutputMismatch { queries: 2, out: 1 }
            .to_string()
            .contains("output buffer must match the batch length"));
    }
}
