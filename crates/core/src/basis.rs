//! What a builder is generic over: where a split's records come from
//! ([`SplitSource`]) and which transform turns its counts into wavelet
//! coefficients ([`Basis`]).
//!
//! The paper's "Multi-dimensional wavelets" remarks (§3/§4) say every
//! algorithm carries over unchanged because the standard 2-D transform is
//! linear. Here that is one generic parameter: a 2-D build is the 1-D
//! build over a second basis, picked by the type of the dataset handed in
//! ([`Dataset`] builds a [`WaveletHistogram`], `Dataset2d` a
//! `WaveletHistogram2d`) and by nothing else.

use crate::histogram::WaveletHistogram;
use wh_data::{Dataset, Record, SplitMeta};
use wh_wavelet::sparse::{sorted_counts, sparse_transform, SparseCoefs};
use wh_wavelet::Domain;

/// The wavelet basis a histogram type keeps its coefficients in: how a
/// sparse frequency vector over the source's keys becomes coefficients,
/// and what the cost model and the engine need to know about them.
/// `domain` is the per-axis domain throughout.
pub trait Basis: Sized {
    /// All non-zero coefficients of the sparse frequency vector given by
    /// `(key, count)` entries, in strictly ascending slot order; repeated
    /// keys accumulate in arrival order. Bit-identical to the dense
    /// transform of the densified input. Slots are the basis's own
    /// addresses: mappers ship them as keys, [`Basis::from_slots`] reads
    /// them back.
    fn transform<I>(domain: Domain, entries: I) -> SparseCoefs
    where
        I: IntoIterator<Item = (u64, f64)>;

    /// The tight exclusive bound of everything a build ships as a key —
    /// item keys and coefficient slots alike: the jobs' key-domain hint.
    fn slot_bound(domain: Domain) -> u64;

    /// Coefficients one key touches (charged per distinct key).
    fn updates_per_key(domain: Domain) -> f64;

    /// Length of the dense coefficient array (charged by `Centralized`).
    fn dense_len(domain: Domain) -> f64;

    /// The histogram retaining `coefs`, addressed by this basis's slots.
    fn from_slots(domain: Domain, coefs: impl IntoIterator<Item = (u64, f64)>) -> Self;
}

/// The 1-D Haar basis over `domain`.
impl Basis for WaveletHistogram {
    #[inline]
    fn transform<I>(domain: Domain, entries: I) -> SparseCoefs
    where
        I: IntoIterator<Item = (u64, f64)>,
    {
        sparse_transform(domain, entries)
    }

    /// Keys and coefficient indices both live in `[0, u)`, and any of them
    /// can occur.
    #[inline]
    fn slot_bound(domain: Domain) -> u64 {
        domain.u()
    }

    #[inline]
    fn updates_per_key(domain: Domain) -> f64 {
        (domain.log_u() + 1) as f64
    }

    #[inline]
    fn dense_len(domain: Domain) -> f64 {
        domain.u_f64()
    }

    fn from_slots(domain: Domain, coefs: impl IntoIterator<Item = (u64, f64)>) -> Self {
        Self::new(domain, coefs)
    }
}

/// A split-partitioned dataset as the builders read it: static facts, a
/// counted scan of one split, and the random-access sample of one split
/// (the RandomRecordReader of Appendix B). Keys are single `u64`s; a
/// multi-dimensional source packs its cell into one.
pub trait SplitSource: Clone + Send + 'static {
    /// The histogram a build over this source returns — and through it
    /// the [`Basis`] the build runs in.
    type Histogram: Basis;

    /// Per-axis key domain.
    fn domain(&self) -> Domain;
    /// Total records `n`.
    fn num_records(&self) -> u64;
    /// Number of splits `m`.
    fn num_splits(&self) -> u32;
    /// Stored record size (bytes).
    fn record_bytes(&self) -> u32;
    /// Wire size of one key (bytes).
    fn key_bytes(&self) -> u32;
    /// Metadata for split `j`.
    fn split_meta(&self, j: u32) -> SplitMeta;
    /// Split `j`'s local frequency vector: one `(key, count)` per distinct
    /// key, strictly ascending.
    fn split_counts(&self, j: u32) -> Vec<(u64, u64)>;
    /// `count` records of split `j` drawn without replacement, in position
    /// order.
    fn sample_split(&self, j: u32, count: u64, sample_seed: u64) -> Vec<Record>;
}

impl SplitSource for Dataset {
    type Histogram = WaveletHistogram;

    fn domain(&self) -> Domain {
        Dataset::domain(self)
    }
    fn num_records(&self) -> u64 {
        Dataset::num_records(self)
    }
    fn num_splits(&self) -> u32 {
        Dataset::num_splits(self)
    }
    fn record_bytes(&self) -> u32 {
        Dataset::record_bytes(self)
    }
    fn key_bytes(&self) -> u32 {
        Dataset::key_bytes(self)
    }
    fn split_meta(&self, j: u32) -> SplitMeta {
        Dataset::split_meta(self, j)
    }
    #[inline]
    fn split_counts(&self, j: u32) -> Vec<(u64, u64)> {
        sorted_counts(Dataset::domain(self), self.scan_split(j).map(|r| r.key))
    }
    #[inline]
    fn sample_split(&self, j: u32, count: u64, sample_seed: u64) -> Vec<Record> {
        Dataset::sample_split(self, j, count, sample_seed)
    }
}
