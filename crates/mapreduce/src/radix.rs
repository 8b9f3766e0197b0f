//! Radix key codecs: the order-preserving integer image behind the
//! dense reduce table.
//!
//! Every algorithm in the paper shuffles *small-integer* keys — item keys
//! from a bounded domain `[0, u)`, wavelet coefficient indices, sketch
//! counter indices — yet a generic engine would treat them as opaque `Ord`
//! values. [`RadixKey`] lets a job declare (via
//! [`crate::JobSpec::with_radix_keys`]) that its key type has an
//! **order-preserving** `u64` image. With an
//! [`crate::EngineConfig::key_domain_hint`] that image selects and
//! indexes the dense-domain reduce table (the crate's `dense` module),
//! which aggregates a partition without sorting it. That is the only
//! thing the image drives: a partition that does not reduce densely takes
//! the sort route, one stable comparison sort whether or not its keys
//! carry a codec.
//!
//! The trait is **sealed**: the engine's determinism contract (pipelined ≡
//! reference engine, bit for bit) relies on `to_radix` being strictly
//! order-preserving — `a.cmp(b) == a.to_radix().cmp(&b.to_radix())` for
//! all `a`, `b` — and sealing keeps that invariant reviewable in one file.

use crate::wire::WKey;

mod sealed {
    /// Seals [`super::RadixKey`]: impls live in this module's file only.
    pub trait Sealed {}
}

/// A key with an order-preserving `u64` image, eligible for the
/// pipelined engine's dense reduce table.
///
/// Invariant (enforced by sealing; every impl below upholds it):
/// `a.cmp(&b) == a.to_radix().cmp(&b.to_radix())` for all values. Equal
/// keys must map to equal radixes and distinct keys in `Ord` order must
/// map to `u64`s in the same order, so the dense table, which emits
/// groups in ascending radix order, emits them in key order.
pub trait RadixKey: Ord + sealed::Sealed {
    /// The order-preserving `u64` image of this key.
    fn to_radix(&self) -> u64;
}

macro_rules! unsigned_radix {
    ($($t:ty),*) => {
        $(
            impl sealed::Sealed for $t {}
            impl RadixKey for $t {
                #[inline]
                fn to_radix(&self) -> u64 {
                    u64::from(*self)
                }
            }
        )*
    };
}

unsigned_radix!(u8, u16, u32);

impl sealed::Sealed for u64 {}
impl RadixKey for u64 {
    #[inline]
    fn to_radix(&self) -> u64 {
        *self
    }
}

impl sealed::Sealed for WKey {}
impl RadixKey for WKey {
    /// `WKey` orders, hashes, and equates by `id` alone (the size field is
    /// uniform within a job), so the id *is* the order-preserving image.
    #[inline]
    fn to_radix(&self) -> u64 {
        self.id
    }
}

/// A stable sort of `(key, value)` pairs by key, ties in arrival order:
/// exactly `pairs.sort_by(|a, b| a.0.cmp(&b.0))`, the sort the engine's
/// sort route runs. Kept as a named entry point for the benchmark's sort
/// row.
#[derive(Debug, Default)]
pub struct RadixSorter;

impl RadixSorter {
    /// A sorter; it holds no state.
    pub fn new() -> Self {
        Self
    }

    /// Sorts `pairs` stably by key.
    pub fn sort<K: RadixKey, V>(&mut self, pairs: &mut [(K, V)]) {
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_preserve_arrival_order() {
        let mut pairs: Vec<(u32, u32)> = (0..300).map(|i| (i % 3, i)).collect();
        RadixSorter::new().sort(&mut pairs);
        for w in pairs.windows(2) {
            assert!(
                w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1),
                "{w:?}"
            );
        }
    }

    #[test]
    fn wkey_image_ignores_the_size_field() {
        assert_eq!(WKey::new(9, 4).to_radix(), WKey::new(9, 8).to_radix());
        assert!(WKey::four(3).to_radix() < WKey::four(5).to_radix());
        let mut pairs = vec![
            (WKey::four(9), 'a'),
            (WKey::four(2), 'b'),
            (WKey::four(9), 'c'),
        ];
        RadixSorter::new().sort(&mut pairs);
        assert_eq!(
            pairs,
            vec![
                (WKey::four(2), 'b'),
                (WKey::four(9), 'a'),
                (WKey::four(9), 'c')
            ]
        );
    }
}
