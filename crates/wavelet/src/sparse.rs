//! Sparse Haar transform: `O(N · log u)` over the non-zero entries.
//!
//! A frequency vector with `N = |v_j|` distinct keys has at most
//! `N·(log u + 1)` non-zero wavelet coefficients (each key only touches the
//! root-to-leaf path above it). The paper's mappers exploit this
//! (Appendix A): they run this algorithm instead of the dense `O(u)` pass,
//! because a 256 MB split typically has `|v_j| ≪ u`.
//!
//! [`sparse_transform`] works on sorted runs from end to end — sorted keys
//! in, slot-sorted coefficients out, no hash table in between — so mappers
//! emit its output as is and reducers receive ordered streams.
//! [`sorted_counts`] produces such a run from a scan: the split's keys
//! radix-sorted and run-length folded into its local frequency vector.
//! [`coefficient_updates`] is the single-key primitive; the sketching crate
//! uses it to translate every key update into the same `log u + 1`
//! coefficient-space updates.

use crate::haar;
use crate::Domain;

/// Sparse coefficient vector: `(slot, value)` pairs in strictly ascending
/// (0-based) slot order, no stored zero.
pub type SparseCoefs = Vec<(u64, f64)>;

/// Calls `emit(slot, delta)` for every wavelet coefficient affected by
/// adding `weight` occurrences of the (0-based) key `x`.
///
/// Exactly `log u + 1` updates are emitted: the overall average (slot 0)
/// plus one detail per level. For the detail at level `j` (block size
/// `B = u/2^j`) the contribution is `±weight/√B`: negative when `x` falls in
/// the left half of the block, positive in the right half — the sign
/// convention of the paper's basis vectors (Fig. 2).
///
/// # Panics
///
/// Debug-panics when `x` is outside the domain.
#[inline]
pub fn coefficient_updates(domain: Domain, x: u64, weight: f64, mut emit: impl FnMut(u64, f64)) {
    debug_assert!(domain.contains(x), "key {x} outside {domain}");
    let log_u = domain.log_u();
    // Overall average: ψ₁ = 1/√u everywhere.
    emit(0, weight / domain.u_f64().sqrt());
    for j in 0..log_u {
        let block_log = log_u - j; // log₂ of the block size at level j
        let k = x >> block_log;
        let slot = (1u64 << j) + k;
        // Position within the block decides the sign.
        let in_right_half = (x >> (block_log - 1)) & 1 == 1;
        let scale = 1.0 / ((1u64 << block_log) as f64).sqrt();
        let delta = if in_right_half {
            weight * scale
        } else {
            -(weight * scale)
        };
        emit(slot, delta);
    }
}

/// Computes all non-zero coefficients of the sparse frequency vector given
/// by `(key, count)` pairs, in ascending slot order. Keys may repeat and
/// arrive in any order; repeated keys accumulate in arrival order.
///
/// The entries are sorted by key once, then every level of the dense
/// cascade is replayed over the non-zero blocks only: siblings are adjacent
/// in a key-sorted run, so a level is one linear merge through
/// [`haar::pair`] — the very expression [`haar::forward_in_place`]
/// evaluates, with an absent sibling standing for the `0.0` the dense pass
/// reads. The result is therefore **bit-identical** to the non-zero entries
/// of [`haar::forward`] over the densified input. Exact zeros (sibling
/// cancellation) are dropped; they cost space and carry no information.
///
/// Time `O(N·log N + N·log u)`, no hashing; memory is the output plus two
/// level buffers of at most `N` entries.
///
/// # Panics
///
/// Debug-panics when a key is outside the domain.
pub fn sparse_transform<I>(domain: Domain, entries: I) -> SparseCoefs
where
    I: IntoIterator<Item = (u64, f64)>,
{
    let mut level: Vec<(u64, f64)> = entries.into_iter().collect();
    debug_assert!(
        level.iter().all(|&(x, _)| domain.contains(x)),
        "key outside {domain}"
    );
    // Levels are walked high key → low key and the output is filled
    // deepest level first, so one final reversal yields ascending slots.
    // The sort is stable, so duplicates fold in arrival order like the
    // dense `v[x] += c`; it also merges the pre-sorted runs a reducer's
    // Close hook hands in.
    level.sort_by_key(|&(x, _)| std::cmp::Reverse(x));
    level.dedup_by(|dup, kept| {
        let same = dup.0 == kept.0;
        if same {
            kept.1 += dup.1;
        }
        same
    });
    let mut parents: Vec<(u64, f64)> = Vec::with_capacity(level.len());
    let mut out: SparseCoefs = Vec::with_capacity(level.len());
    for p in (0..domain.log_u()).rev() {
        let mut i = 0;
        while i < level.len() {
            let (x, val) = level[i];
            let t = x >> 1;
            i += 1;
            let (a, b) = match level.get(i) {
                // The left sibling follows its right one in a descending run.
                Some(&(left, a)) if left >> 1 == t => {
                    i += 1;
                    (a, val)
                }
                _ if x & 1 == 1 => (0.0, val),
                _ => (val, 0.0),
            };
            let (avg, detail) = haar::pair(a, b);
            if detail != 0.0 {
                out.push(((1u64 << p) + t, detail));
            }
            if avg != 0.0 {
                parents.push((t, avg));
            }
        }
        std::mem::swap(&mut level, &mut parents);
        parents.clear();
    }
    // Level 0 holds at most the block-0 average: slot 0.
    out.extend(level.first().filter(|e| e.1 != 0.0));
    out.reverse();
    out
}

/// Keys sorted at a time by [`sorted_counts`].
const COUNT_CHUNK: usize = 1 << 16;
/// Digit width of [`sorted_counts`]' radix passes: 2048 four-byte counters
/// per pass stay in L1 beside the keys being scattered.
const DIGIT_BITS: u32 = 11;
const DIGITS: usize = 1 << DIGIT_BITS;
/// Radix passes that cover [`Domain::MAX_LOG_U`] bits.
const MAX_PASSES: usize = Domain::MAX_LOG_U.div_ceil(DIGIT_BITS) as usize;

/// Counts a stream of keys into its sparse frequency vector: one
/// `(key, count)` pair per distinct key, in strictly ascending key order —
/// the order [`sparse_transform`] sorts its input into, so a scanning
/// mapper gets there without a hash table or a comparison sort.
///
/// Keys are taken in chunks of at most 2¹⁶. A chunk is sorted by a
/// key-only LSD radix sort (11-bit digits, `⌈log u / 11⌉` passes),
/// run-length folded, and merged into the running result, so the scratch
/// space is two chunk buffers plus the distinct keys — `O(chunk + N)`,
/// never the length of the stream.
///
/// # Panics
///
/// Debug-panics when a key is outside the domain.
pub fn sorted_counts<I>(domain: Domain, keys: I) -> Vec<(u64, u64)>
where
    I: IntoIterator<Item = u64>,
{
    let mut keys = keys.into_iter();
    let mut chunk: Vec<u64> = Vec::new();
    let mut scratch: Vec<u64> = Vec::new();
    let mut counts: Vec<(u64, u64)> = Vec::new();
    let mut run: Vec<(u64, u64)> = Vec::new();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    loop {
        chunk.clear();
        chunk.extend(keys.by_ref().take(COUNT_CHUNK));
        if chunk.is_empty() {
            return counts;
        }
        debug_assert!(
            chunk.iter().all(|&x| domain.contains(x)),
            "key outside {domain}"
        );
        radix_sort_keys(domain.log_u(), &mut chunk, &mut scratch);
        if counts.is_empty() {
            fold_runs(&chunk, &mut counts);
        } else {
            run.clear();
            fold_runs(&chunk, &mut run);
            merge_counts(&counts, &run, &mut merged);
            std::mem::swap(&mut counts, &mut merged);
        }
    }
}

/// Sorts `keys < 2^log_u` ascending, least significant digit first;
/// `scratch` is the other half of the ping-pong.
fn radix_sort_keys(log_u: u32, keys: &mut Vec<u64>, scratch: &mut Vec<u64>) {
    let passes = log_u.div_ceil(DIGIT_BITS) as usize;
    let digit = |x: u64, pass: usize| (x >> (pass as u32 * DIGIT_BITS)) as usize & (DIGITS - 1);
    // Every pass's digit histogram in one sweep over the keys.
    let mut offsets = [[0u32; DIGITS]; MAX_PASSES];
    for &x in keys.iter() {
        for (pass, histogram) in offsets[..passes].iter_mut().enumerate() {
            histogram[digit(x, pass)] += 1;
        }
    }
    // Every pass overwrites all of `scratch`: only its length matters.
    scratch.resize(keys.len(), 0);
    for (pass, offsets) in offsets[..passes].iter_mut().enumerate() {
        let mut start = 0;
        for slot in offsets.iter_mut() {
            let count = *slot;
            *slot = start;
            start += count;
        }
        for &x in keys.iter() {
            let slot = &mut offsets[digit(x, pass)];
            scratch[*slot as usize] = x;
            *slot += 1;
        }
        std::mem::swap(keys, scratch);
    }
}

/// Appends one `(key, run length)` pair per run of equal keys.
fn fold_runs(sorted: &[u64], out: &mut Vec<(u64, u64)>) {
    let mut rest = sorted;
    while let Some(&x) = rest.first() {
        let len = rest.iter().take_while(|&&y| y == x).count();
        out.push((x, len as u64));
        rest = &rest[len..];
    }
}

/// Merges two strictly ascending count runs into `out`, adding the counts
/// of keys present in both.
fn merge_counts(a: &[(u64, u64)], b: &[(u64, u64)], out: &mut Vec<(u64, u64)>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Densifies a sparse coefficient run into a full vector of length `u`.
///
/// A test **oracle**, not a build step: `tests/wavelet_properties.rs` and
/// this module's tests densify a sparse run to compare it slot for slot
/// with [`crate::haar::forward`].
pub fn densify(domain: Domain, coefs: &[(u64, f64)]) -> Vec<f64> {
    let mut w = vec![0.0; domain.u() as usize];
    for &(slot, val) in coefs {
        w[slot as usize] = val;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar::forward;

    fn dense_from_pairs(u: usize, pairs: &[(u64, f64)]) -> Vec<f64> {
        let mut v = vec![0.0; u];
        for &(x, c) in pairs {
            v[x as usize] += c;
        }
        v
    }

    fn get(coefs: &[(u64, f64)], slot: u64) -> Option<f64> {
        coefs
            .binary_search_by_key(&slot, |&(s, _)| s)
            .ok()
            .map(|i| coefs[i].1)
    }

    #[test]
    fn matches_dense_transform_bit_for_bit() {
        let domain = Domain::new(6).unwrap();
        let pairs = [
            (63u64, 1.0),
            (5, 1.0),
            (0, 3.0),
            (5, 2.0),
            (31, 7.0),
            (32, 4.0),
        ];
        let sparse = sparse_transform(domain, pairs);
        assert!(sparse.windows(2).all(|w| w[0].0 < w[1].0));
        let dense = forward(&dense_from_pairs(64, &pairs));
        for (slot, val) in dense.iter().enumerate() {
            match get(&sparse, slot as u64) {
                Some(got) => assert_eq!(got.to_bits(), val.to_bits(), "slot {slot}"),
                None => assert_eq!(*val, 0.0, "slot {slot} dropped"),
            }
        }
    }

    #[test]
    fn update_count_is_log_u_plus_one() {
        let domain = Domain::new(12).unwrap();
        let mut n = 0;
        coefficient_updates(domain, 999, 1.0, |_, _| n += 1);
        assert_eq!(n, 13);
    }

    #[test]
    fn single_key_path_slots() {
        // Key 5 in u=8 (binary 101): level-0 block k=0 (right half since bit2=1),
        // level-1 block k=1 (left half: bit1=0), level-2 block k=2 (right: bit0=1).
        let domain = Domain::new(3).unwrap();
        let mut got = Vec::new();
        coefficient_updates(domain, 5, 1.0, |s, d| got.push((s, d)));
        let slots: Vec<u64> = got.iter().map(|(s, _)| *s).collect();
        assert_eq!(slots, vec![0, 1, 3, 6]);
        assert!(got[1].1 > 0.0); // right half at level 0
        assert!(got[2].1 < 0.0); // left half at level 1
        assert!(got[3].1 > 0.0); // right half at level 2

        // The transform touches the same path with the same signs.
        let path = sparse_transform(domain, [(5u64, 1.0)]);
        assert_eq!(path.iter().map(|e| e.0).collect::<Vec<_>>(), slots);
        for (a, b) in path.iter().zip(&got) {
            assert!((a.1 - b.1).abs() < 1e-15);
        }
    }

    #[test]
    fn cancellation_prunes_exact_zeros() {
        // Two equal keys in sibling positions cancel their shared leaf detail.
        let domain = Domain::new(4).unwrap();
        let coefs = sparse_transform(domain, [(2u64, 1.0), (3u64, 1.0)]);
        // Leaf detail for the pair (2,3): slot 8 + 1 = 9 must be gone.
        assert_eq!(get(&coefs, 9), None);
        assert!(get(&coefs, 0).is_some());
        assert!(coefs.iter().all(|e| e.1 != 0.0));
        // Opposite weights cancel every average above the leaf instead.
        let coefs = sparse_transform(domain, [(2u64, 1.0), (3u64, -1.0)]);
        assert_eq!(coefs.len(), 1);
        assert_eq!(coefs[0].0, 9);
    }

    #[test]
    fn empty_and_unit_domain() {
        assert!(sparse_transform(Domain::new(7).unwrap(), []).is_empty());
        let unit = Domain::new(0).unwrap();
        assert_eq!(sparse_transform(unit, [(0u64, 2.0), (0, 3.0)]), [(0, 5.0)]);
    }

    fn brute_force_counts(keys: &[u64]) -> Vec<(u64, u64)> {
        let mut counts = std::collections::BTreeMap::new();
        for &x in keys {
            *counts.entry(x).or_insert(0u64) += 1;
        }
        counts.into_iter().collect()
    }

    #[test]
    fn sorted_counts_degenerate_inputs() {
        let domain = Domain::new(12).unwrap();
        assert!(sorted_counts(domain, []).is_empty());
        assert_eq!(sorted_counts(domain, [77]), [(77, 1)]);
        assert_eq!(sorted_counts(domain, [5; 1000]), [(5, 1000)]);
        assert_eq!(
            sorted_counts(domain, [4095, 0, 4095, 0, 0]),
            [(0, 3), (4095, 2)]
        );
        // A one-key domain needs no radix pass at all.
        assert_eq!(sorted_counts(Domain::new(0).unwrap(), [0, 0]), [(0, 2)]);
    }

    #[test]
    fn sorted_counts_at_every_digit_count_and_chunk_boundary() {
        // log u on both sides of each 11-bit digit boundary, stream lengths
        // on both sides of the 2^16 chunk boundary and across several
        // chunks; keys from a fixed LCG, half of them squeezed into 64
        // values so that runs repeat within and across chunks.
        for log_u in [1, 11, 12, 22, 23, 33, 40] {
            let domain = Domain::new(log_u).unwrap();
            let mask = domain.u() - 1;
            for len in [
                1,
                COUNT_CHUNK - 1,
                COUNT_CHUNK,
                COUNT_CHUNK + 1,
                3 * COUNT_CHUNK + 7,
            ] {
                let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ u64::from(log_u);
                let mut keys: Vec<u64> = (0..len)
                    .map(|i| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let x = state >> 20;
                        (if i % 2 == 0 { x } else { x % 64 }) & mask
                    })
                    .collect();
                keys[len / 2] = mask;
                keys[0] = if len == 1 { mask } else { 0 };
                let counts = sorted_counts(domain, keys.iter().copied());
                assert!(counts.windows(2).all(|w| w[0].0 < w[1].0));
                assert_eq!(counts.iter().map(|e| e.1).sum::<u64>(), len as u64);
                assert_eq!(
                    counts,
                    brute_force_counts(&keys),
                    "log_u {log_u}, {len} keys"
                );
            }
        }
    }

    #[test]
    fn transform_of_sorted_counts_equals_transform_of_the_keys() {
        // The mappers' route (count, then transform the ascending run)
        // against the transform accumulating the raw keys in arrival order.
        let domain = Domain::new(9).unwrap();
        let keys: Vec<u64> = (0..5000u64).map(|i| (i * i * 31 + i / 7) % 512).collect();
        let via_counts = sparse_transform(
            domain,
            sorted_counts(domain, keys.iter().copied())
                .into_iter()
                .map(|(x, c)| (x, c as f64)),
        );
        let direct = sparse_transform(domain, keys.iter().map(|&x| (x, 1.0)));
        assert_eq!(via_counts, direct);
    }

    #[test]
    fn densify_roundtrip() {
        let domain = Domain::new(5).unwrap();
        let pairs = [(1u64, 2.0), (17, 5.0)];
        let coefs = sparse_transform(domain, pairs);
        assert_eq!(
            densify(domain, &coefs),
            forward(&dense_from_pairs(32, &pairs))
        );
    }

    #[test]
    fn linearity_of_sparse_transform() {
        let domain = Domain::new(8).unwrap();
        let a = [(3u64, 1.0), (100, 2.0)];
        let b = [(3u64, 4.0), (200, 1.0)];
        let wa = densify(domain, &sparse_transform(domain, a));
        let wb = densify(domain, &sparse_transform(domain, b));
        let wab = sparse_transform(domain, a.iter().chain(b.iter()).copied());
        for &(slot, v) in &wab {
            let s = wa[slot as usize] + wb[slot as usize];
            assert!((v - s).abs() <= 1e-9 * (1.0 + v.abs()));
        }
    }
}
