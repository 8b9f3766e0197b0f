//! Radix key codecs and the LSD radix sort behind the reduce-side sort.
//!
//! Every algorithm in the paper shuffles *small-integer* keys — item keys
//! from a bounded domain `[0, u)`, wavelet coefficient indices, sketch
//! counter indices — yet a generic engine would treat them as opaque `Ord`
//! values and comparison-sort every reduce partition. [`RadixKey`] lets a
//! job declare (via [`crate::JobSpec::with_radix_keys`]) that its key type
//! has an **order-preserving** `u64` image, unlocking:
//!
//! * an LSD (least-significant-digit) radix sort for reduce partitions —
//!   `O(n · bytes(max key))` with branch-free inner loops instead of
//!   `O(n log n)` branch-missy comparisons, producing the *exact*
//!   permutation of the stable comparison sort it replaces;
//! * the dense-domain reduce table (the crate's `dense` module) when the
//!   job also carries an [`crate::EngineConfig::key_domain_hint`].
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

/// A key with an order-preserving `u64` image, eligible for the radix
/// specializations of the pipelined engine.
///
/// Invariant (enforced by sealing; every impl below upholds it):
/// `a.cmp(&b) == a.to_radix().cmp(&b.to_radix())` for all values. Equal
/// keys must map to equal radixes and distinct keys in `Ord` order must
/// map to `u64`s in the same order, so a radix sort on the image is
/// indistinguishable from a stable comparison sort on the keys.
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

/// Below this length the constant factors of digit histograms outweigh
/// the comparison sort's `log n`; measured crossover sits near 32–64
/// pairs, and tiny partitions (sampling builders) are the common case.
const RADIX_MIN_LEN: usize = 48;

/// Index bits of the packed `radix·2²⁴ | index` representation: runs
/// below 2²⁴ pairs whose radixes fit 40 bits (every bounded-domain
/// workload in this repo) sort 8-byte packed words instead of 16-byte
/// `(radix, index)` tuples — half the bandwidth per LSD pass.
const PACK_IDX_BITS: u32 = 24;

/// Reusable scratch of the radix sort: the ping-pong working buffers
/// (packed `u64`s on the narrow-key fast path, `(radix, index)` tuples
/// otherwise) plus the destination map of the final in-place
/// permutation. One per reduce worker, recycled across every partition
/// that worker sorts.
#[derive(Debug, Default)]
pub(crate) struct RadixScratch {
    keyed: Vec<(u64, u32)>,
    swap: Vec<(u64, u32)>,
    packed: Vec<u64>,
    packed_swap: Vec<u64>,
    counts: Vec<u32>,
    dst: Vec<u32>,
}

/// The radix sort with its scratch buffers kept alive across calls, the
/// way engine reduce workers recycle theirs: sorting a stream of runs
/// allocates only on the largest run seen.
#[derive(Debug, Default)]
pub struct RadixSorter {
    scratch: RadixScratch,
}

impl RadixSorter {
    /// A sorter with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sorts `pairs` stably by key through the key's radix image — the
    /// exact permutation `pairs.sort_by(|a, b| a.0.cmp(&b.0))` would
    /// produce, ties preserving arrival order.
    pub fn sort<K: RadixKey, V>(&mut self, pairs: &mut [(K, V)]) {
        sort_pairs_with(pairs, |k: &K| k.to_radix(), &mut self.scratch);
    }
}

/// Scratch-reusing radix sort used by the engine. `radix_of` must be
/// order-preserving (the [`RadixKey`] contract); the engine only ever
/// passes `K::to_radix`.
pub(crate) fn sort_pairs_with<K, V>(
    pairs: &mut [(K, V)],
    radix_of: impl Fn(&K) -> u64,
    scratch: &mut RadixScratch,
) where
    K: Ord,
{
    let n = pairs.len();
    if n <= 1 {
        return;
    }
    if n < RADIX_MIN_LEN {
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        return;
    }
    assert!(n <= u32::MAX as usize, "run exceeds u32 indexing");

    // Extract radixes once, tracking the minimum and maximum (they bound
    // the digit count) and whether the run is already sorted (mappers
    // that emit from a sorted local vector ship runs in key order, so this
    // O(n) scan routinely saves the whole sort).
    let keyed = &mut scratch.keyed;
    keyed.clear();
    keyed.reserve(n);
    let mut min = u64::MAX;
    let mut max = 0u64;
    let mut prev = 0u64;
    let mut sorted = true;
    for (i, (k, _)) in pairs.iter().enumerate() {
        let r = radix_of(k);
        sorted &= r >= prev;
        prev = r;
        min = min.min(r);
        max = max.max(r);
        keyed.push((r, i as u32));
    }
    if sorted {
        return;
    }

    // Rebase every radix by the run's minimum: subtracting a constant
    // preserves order (and ties), so the sort is unchanged — but the
    // effective key width shrinks from [0, max] to [0, max − min]. A
    // range-partitioned run whose keys live in a narrow [lo, hi] band
    // (every partition of a range-partitioned job) now takes the
    // single-histogram counting sort sized to its *span*, and runs that
    // still need LSD passes may need fewer digits.
    if min > 0 {
        for e in keyed.iter_mut() {
            e.0 -= min;
        }
        max -= min;
    }

    let digits = (64 - max.leading_zeros() as usize).div_ceil(8);
    let dst = &mut scratch.dst;
    dst.clear();
    dst.resize(n, 0);
    if max < (n as u64).saturating_mul(2) {
        // Dense keys: one histogram over the rebased [0, max − min]
        // span replaces every LSD pass — each element's destination
        // falls out of a single stable counting sort.
        counting_fill_dst(keyed, &mut scratch.counts, dst, max as usize);
    } else if max < (1 << (64 - PACK_IDX_BITS)) && n < (1 << PACK_IDX_BITS) {
        lsd_packed(
            keyed,
            &mut scratch.packed,
            &mut scratch.packed_swap,
            dst,
            digits,
        );
    } else {
        lsd_generic(keyed, &mut scratch.swap, dst, digits);
    }

    // Apply the permutation in place through its destination map:
    // element at original position `i` belongs at sorted position
    // `dst[i]`. Cycle-chasing swaps realize it with O(n) moves and no
    // per-pair buffer.
    for i in 0..n {
        while dst[i] as usize != i {
            let j = dst[i] as usize;
            pairs.swap(i, j);
            dst.swap(i, j);
        }
    }
}

/// Stable counting sort for dense radixes (span `max < 2n` after the
/// min-rebase): one histogram over `[0, max]`, a prefix sum, and one pass
/// assigning each element its destination — no digit passes at all. Equal
/// radixes receive ascending destinations in arrival order, so stability
/// matches the LSD paths.
fn counting_fill_dst(keyed: &[(u64, u32)], counts: &mut Vec<u32>, dst: &mut [u32], max: usize) {
    counts.clear();
    counts.resize(max + 1, 0);
    for &(r, _) in keyed {
        counts[r as usize] += 1;
    }
    let mut sum = 0u32;
    for c in counts.iter_mut() {
        let next = sum + *c;
        *c = sum;
        sum = next;
    }
    for &(r, i) in keyed {
        dst[i as usize] = counts[r as usize];
        counts[r as usize] += 1;
    }
}

/// Narrow-key LSD passes over packed `radix·2²⁴ | index` words: ties in a
/// digit leave the distinct index bits untouched and every counting-sort
/// pass is stable, so arrival order survives exactly as in the generic
/// path. Fills `dst` with each original index's sorted position.
fn lsd_packed(
    keyed: &[(u64, u32)],
    packed: &mut Vec<u64>,
    packed_swap: &mut Vec<u64>,
    dst: &mut [u32],
    digits: usize,
) {
    let n = keyed.len();
    packed.clear();
    packed.reserve(n);
    for &(r, i) in keyed {
        packed.push((r << PACK_IDX_BITS) | u64::from(i));
    }

    // One pass builds the histograms of every digit position at once.
    // max < 2^40 here, so at most 5 digit positions carry any bits.
    let mut counts = [[0u32; 256]; 5];
    for &e in packed.iter() {
        for (d, c) in counts.iter_mut().enumerate().take(digits) {
            c[(e >> (PACK_IDX_BITS as usize + d * 8)) as usize & 0xFF] += 1;
        }
    }

    packed_swap.clear();
    packed_swap.resize(n, 0);
    let mut src_is_first = true;
    for (d, c) in counts.iter_mut().enumerate().take(digits) {
        // A digit where every key agrees permutes nothing: skip the pass.
        if c.iter().any(|&x| x as usize == n) {
            continue;
        }
        let mut sum = 0u32;
        for slot in c.iter_mut() {
            let next = sum + *slot;
            *slot = sum;
            sum = next;
        }
        let (src, out) = if src_is_first {
            (&mut *packed, &mut *packed_swap)
        } else {
            (&mut *packed_swap, &mut *packed)
        };
        let shift = PACK_IDX_BITS as usize + d * 8;
        for &e in src.iter() {
            let b = (e >> shift) as usize & 0xFF;
            out[c[b] as usize] = e;
            c[b] += 1;
        }
        src_is_first = !src_is_first;
    }
    let order = if src_is_first {
        &*packed
    } else {
        &*packed_swap
    };
    let idx_mask = (1u64 << PACK_IDX_BITS) - 1;
    for (pos, &e) in order.iter().enumerate() {
        dst[(e & idx_mask) as usize] = pos as u32;
    }
}

/// Full-width LSD passes over `(radix, index)` tuples — the fallback for
/// runs too large or radixes too wide for the packed representation.
/// Fills `dst` with each original index's sorted position.
fn lsd_generic(
    keyed: &mut Vec<(u64, u32)>,
    swap: &mut Vec<(u64, u32)>,
    dst: &mut [u32],
    digits: usize,
) {
    let n = keyed.len();
    // One pass builds the histograms of every digit position at once.
    let mut counts = [[0u32; 256]; 8];
    for &(r, _) in keyed.iter() {
        for (d, c) in counts.iter_mut().enumerate().take(digits) {
            c[(r >> (d * 8)) as usize & 0xFF] += 1;
        }
    }

    // LSD passes, least significant digit first; each pass is a stable
    // counting sort, so ties keep arrival order throughout.
    swap.clear();
    swap.resize(n, (0, 0));
    let mut src_is_keyed = true;
    for (d, c) in counts.iter_mut().enumerate().take(digits) {
        // A digit where every key agrees permutes nothing: skip the pass.
        if c.iter().any(|&x| x as usize == n) {
            continue;
        }
        let mut sum = 0u32;
        for slot in c.iter_mut() {
            let next = sum + *slot;
            *slot = sum;
            sum = next;
        }
        let (src, out) = if src_is_keyed {
            (&mut *keyed, &mut *swap)
        } else {
            (&mut *swap, &mut *keyed)
        };
        let shift = d * 8;
        for &(r, i) in src.iter() {
            let b = (r >> shift) as usize & 0xFF;
            out[c[b] as usize] = (r, i);
            c[b] += 1;
        }
        src_is_keyed = !src_is_keyed;
    }
    let order = if src_is_keyed { &*keyed } else { &*swap };
    for (pos, &(_, i)) in order.iter().enumerate() {
        dst[i as usize] = pos as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_sort<K: Ord + Clone, V: Clone>(pairs: &[(K, V)]) -> Vec<(K, V)> {
        let mut v = pairs.to_vec();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    fn scrambled(n: u64, modulus: u64) -> Vec<(u64, u64)> {
        (0..n)
            .map(|i| ((i.wrapping_mul(0x9e3779b97f4a7c15) >> 13) % modulus, i))
            .collect()
    }

    #[test]
    fn matches_comparison_sort_with_heavy_ties() {
        for modulus in [1, 2, 17, 1 << 10, 1 << 20, u64::MAX] {
            let pairs = scrambled(500, modulus);
            let want = reference_sort(&pairs);
            let mut got = pairs;
            RadixSorter::new().sort(&mut got);
            assert_eq!(got, want, "modulus={modulus}");
        }
    }

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
    fn tiny_and_trivial_inputs() {
        let mut empty: Vec<(u64, ())> = vec![];
        RadixSorter::new().sort(&mut empty);
        assert!(empty.is_empty());
        let mut one = vec![(5u64, 'x')];
        RadixSorter::new().sort(&mut one);
        assert_eq!(one, vec![(5, 'x')]);
        let mut below_threshold = vec![(3u8, 0), (1, 1), (2, 2), (1, 3)];
        RadixSorter::new().sort(&mut below_threshold);
        assert_eq!(below_threshold, vec![(1, 1), (1, 3), (2, 2), (3, 0)]);
    }

    #[test]
    fn already_sorted_fast_path_is_a_no_op() {
        let mut pairs: Vec<(u64, u64)> = (0..200).map(|i| (i / 2, i)).collect();
        let want = pairs.clone();
        RadixSorter::new().sort(&mut pairs);
        assert_eq!(pairs, want);
    }

    #[test]
    fn scratch_is_reusable_across_runs() {
        let mut scratch = RadixScratch::default();
        for modulus in [5u64, 1 << 30, 3] {
            let pairs = scrambled(257, modulus);
            let want = reference_sort(&pairs);
            let mut got = pairs;
            sort_pairs_with(&mut got, |k| *k, &mut scratch);
            assert_eq!(got, want, "modulus={modulus}");
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
        // Below the threshold this exercises the fallback; correctness is
        // what matters.
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

    #[test]
    fn rebased_counting_sort_handles_high_narrow_runs() {
        // A range-partitioned partition's regime: keys in a narrow band
        // far from zero. Without the min-rebase this span would take LSD
        // digit passes; with it, the counting path sized to [lo, hi].
        for lo in [1u64 << 17, (1 << 40) - 500, u64::MAX - 900] {
            let pairs: Vec<(u64, u64)> = (0..600)
                .map(|i: u64| (lo + (i.wrapping_mul(0x9e3779b97f4a7c15) >> 55) % 400, i))
                .collect();
            let want = reference_sort(&pairs);
            let mut got = pairs;
            RadixSorter::new().sort(&mut got);
            assert_eq!(got, want, "lo={lo}");
        }
    }

    #[test]
    fn rebase_keeps_ties_in_arrival_order() {
        let base = 0xdead_beef_0000u64;
        let mut pairs: Vec<(u64, u32)> = (0..300).map(|i| (base + u64::from(i % 3), i)).collect();
        RadixSorter::new().sort(&mut pairs);
        for w in pairs.windows(2) {
            assert!(
                w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1),
                "{w:?}"
            );
        }
    }

    #[test]
    fn sorts_sixty_four_bit_spread() {
        let pairs: Vec<(u64, u64)> = (0..4096)
            .map(|i: u64| (i.wrapping_mul(0x2545f4914f6cdd1d).rotate_left(17), i))
            .collect();
        let want = reference_sort(&pairs);
        let mut got = pairs;
        RadixSorter::new().sort(&mut got);
        assert_eq!(got, want);
    }
}
