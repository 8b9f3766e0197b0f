//! The batched query path: sort a batch's endpoints once, resolve them
//! all in one monotone walk per window over the compiled segments.
//!
//! Answers are **bit-identical** to the single-query methods: both paths
//! locate the same segment for every endpoint (segments partition the
//! domain, so the index is unique) and then evaluate the identical
//! `prefix_at` expression, combining the two endpoint prefixes of each
//! range in the same order.

use crate::compiled::CompiledHistogram;
use crate::error::QueryError;

/// Reusable scratch of the batched query path: the endpoint buffer, its
/// sort swap space, the digit histograms, and the per-endpoint prefix
/// estimates. One per serving thread, recycled across batches — after
/// the first call at a given batch size, batched serving allocates
/// nothing. The scratch carries no per-histogram state: every batched
/// call rebuilds the endpoint and prefix buffers from its own inputs, so
/// one scratch serves any number of different compiled histograms (the
/// serve tier recycles it across snapshots).
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// `(key, tag)` endpoints; the tag's low bit distinguishes a range's
    /// `lo − 1` endpoint (0) from its `hi` endpoint (1), the rest is the
    /// query index.
    pub(crate) endpoints: Vec<(u64, u32)>,
    /// Ping-pong buffer of the LSD endpoint sort.
    swap: Vec<(u64, u32)>,
    /// Per-pass digit histograms of the endpoint sort.
    counts: Vec<u32>,
    /// Cumulative estimates indexed by tag.
    prefixes: Vec<f64>,
}

impl BatchScratch {
    /// Scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sorts the endpoint buffer ascending by key. See [`sort_endpoints`].
    pub(crate) fn sort(&mut self) {
        sort_endpoints(&mut self.endpoints, &mut self.swap, &mut self.counts);
    }
}

/// Digit width of the endpoint sort: 11-bit digits mean at most four
/// counting passes for the widest supported domain (`2^40`) and two for
/// anything up to `2^22`, with 2048-entry histograms that live in L1.
const DIGIT_BITS: u32 = 11;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// LSD counting sort of the endpoint batch, ascending by key.
///
/// Purpose-built for serving rather than reusing the engine's
/// `wh-mapreduce` radix sorter: that sorter permutes the *original*
/// array in place (its callers keep pair identity), which costs an extra
/// random-access cycle walk — but the batched query path only consumes
/// the sorted *stream* (each endpoint carries its identity in the tag),
/// so here the last ping-pong buffer is simply swapped into place.
/// Passes cover the keys' min-rebased span, so a batch of nearby
/// predicates sorts in a single pass regardless of where in the domain
/// it lands; a pre-scan skips the sort entirely when the batch already
/// arrives in key order. Order among equal keys is irrelevant (every
/// endpoint is resolved independently), but counting passes are stable
/// anyway.
fn sort_endpoints(main: &mut Vec<(u64, u32)>, swap: &mut Vec<(u64, u32)>, counts: &mut Vec<u32>) {
    let n = main.len();
    if n <= 1 {
        return;
    }
    let mut min = u64::MAX;
    let mut max = 0u64;
    let mut prev = 0u64;
    let mut sorted = true;
    for &(k, _) in main.iter() {
        sorted &= k >= prev;
        prev = k;
        min = min.min(k);
        max = max.max(k);
    }
    if sorted {
        return;
    }
    let bits = 64 - (max - min).leading_zeros();
    let passes = bits.div_ceil(DIGIT_BITS) as usize;
    swap.clear();
    swap.resize(n, (0, 0));
    counts.clear();
    counts.resize(BUCKETS * passes, 0);
    for &(k, _) in main.iter() {
        let r = k - min;
        for p in 0..passes {
            let b = (r >> (p as u32 * DIGIT_BITS)) as usize & (BUCKETS - 1);
            counts[p * BUCKETS + b] += 1;
        }
    }
    let mut src_is_main = true;
    for p in 0..passes {
        let c = &mut counts[p * BUCKETS..(p + 1) * BUCKETS];
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
        let (src, dst) = if src_is_main {
            (&mut *main, &mut *swap)
        } else {
            (&mut *swap, &mut *main)
        };
        let shift = p as u32 * DIGIT_BITS;
        for &(k, t) in src.iter() {
            let b = ((k - min) >> shift) as usize & (BUCKETS - 1);
            dst[c[b] as usize] = (k, t);
            c[b] += 1;
        }
        src_is_main = !src_is_main;
    }
    if !src_is_main {
        std::mem::swap(main, swap);
    }
}

/// Largest index `i ≥ from` with `starts[i] <= x`, found by galloping
/// from the cursor: doubling probes bracket the target, a binary search
/// inside the bracket pins it. Adjacent endpoints land in adjacent
/// segments, so the common case is one or two probes; a sparse batch
/// still pays only `O(log gap)` instead of `O(log k)`.
///
/// Precondition (upheld by the callers): `starts[from] <= x`.
///
/// `#[inline]` is load-bearing: this runs once per endpoint inside every
/// batched walk (1-D and 2-D), and with call sites in two modules the
/// inliner otherwise outlines it — keeping `starts` in a register across
/// the gallop is worth ~2× on the large-`k` serving path.
#[inline]
pub(crate) fn advance(starts: &[u64], from: usize, x: u64) -> usize {
    debug_assert!(starts[from] <= x);
    let mut lo = from;
    let mut step = 1usize;
    loop {
        let probe = lo + step;
        if probe >= starts.len() || starts[probe] > x {
            break;
        }
        lo = probe;
        step <<= 1;
    }
    let window_end = (lo + step).min(starts.len());
    lo + starts[lo..window_end].partition_point(|&s| s <= x) - 1
}

impl CompiledHistogram {
    /// Resolves a sorted endpoint stream window by window: a binary
    /// search on the window's end key splits off its contiguous
    /// sub-slice, one monotone galloping walk over the window's segment
    /// starts locates every endpoint, and `resolve` receives the segment
    /// index, the key and the endpoint's tag.
    #[inline]
    fn walk(&self, endpoints: &[(u64, u32)], mut resolve: impl FnMut(usize, u64, u32)) {
        let mut at = 0usize;
        for window in self.cuts.windows(2) {
            if at == endpoints.len() {
                break;
            }
            let hi_bound = self.key_at(window[1]);
            let end = at + endpoints[at..].partition_point(|&(k, _)| k < hi_bound);
            let starts = &self.starts[window[0]..window[1]];
            let mut seg = 0usize;
            for &(x, tag) in &endpoints[at..end] {
                seg = advance(starts, seg, x);
                resolve(window[0] + seg, x, tag);
            }
            at = end;
        }
    }

    /// Answers a batch of inclusive range-sum queries into `out`,
    /// bit-identical to calling [`Self::try_range_sum`] per query, or
    /// reports the first malformed query. On `Err`, `out` is untouched.
    ///
    /// The batch's `2q` endpoints are radix-sorted (the LSD counting
    /// sort whose buffers live in `scratch`), then resolved in one
    /// galloping walk per window over the segment arrays — `O(q + k)`
    /// probes total versus `O(q log k)` for one-at-a-time serving.
    /// `scratch` and `out` are caller-owned, so a warm serving loop
    /// allocates nothing.
    pub fn try_range_sum_batch_into(
        &self,
        queries: &[(u64, u64)],
        scratch: &mut BatchScratch,
        out: &mut [f64],
    ) -> Result<(), QueryError> {
        if queries.len() != out.len() {
            return Err(QueryError::OutputMismatch {
                queries: queries.len(),
                out: out.len(),
            });
        }
        if queries.len() > 1 << 30 {
            return Err(QueryError::BatchTooLarge {
                len: queries.len(),
                max_log2: 30,
            });
        }
        scratch.endpoints.clear();
        scratch.endpoints.reserve(2 * queries.len());
        scratch.prefixes.clear();
        scratch.prefixes.resize(2 * queries.len(), 0.0);
        for (q, &(lo, hi)) in queries.iter().enumerate() {
            if lo > hi {
                return Err(QueryError::EmptyRange { lo, hi });
            }
            self.check_key(hi)?;
            let tag = (q as u32) << 1;
            // lo == 0 keeps its prefix slot at the 0.0 the resize wrote —
            // the same value the single-query path uses.
            if lo > 0 {
                scratch.endpoints.push((lo - 1, tag));
            }
            scratch.endpoints.push((hi, tag | 1));
        }
        scratch.sort();
        let prefixes = &mut scratch.prefixes;
        self.walk(&scratch.endpoints, |seg, x, tag| {
            prefixes[tag as usize] = self.prefix_at(seg, x);
        });
        for (q, slot) in out.iter_mut().enumerate() {
            *slot = prefixes[2 * q + 1] - prefixes[2 * q];
        }
        Ok(())
    }

    /// Answers a batch of selectivity queries relative to `n` records,
    /// bit-identical to calling [`Self::try_selectivity`] per query, or
    /// reports the first malformed query. On `Err`, `out` is untouched.
    pub fn try_selectivity_batch_into(
        &self,
        queries: &[(u64, u64)],
        n: u64,
        scratch: &mut BatchScratch,
        out: &mut [f64],
    ) -> Result<(), QueryError> {
        if n == 0 {
            return Err(QueryError::ZeroRecords);
        }
        self.try_range_sum_batch_into(queries, scratch, out)?;
        for slot in out.iter_mut() {
            *slot = (*slot / n as f64).clamp(0.0, 1.0);
        }
        Ok(())
    }

    /// Answers a batch of point estimates into `out`, bit-identical to
    /// calling [`Self::try_point_estimate`] per key — the same sorted
    /// galloping walk, resolving segment values instead of prefixes — or
    /// reports the first malformed key. On `Err`, `out` is untouched
    /// (every key is validated before the walk writes anything).
    pub fn try_point_estimate_batch_into(
        &self,
        keys: &[u64],
        scratch: &mut BatchScratch,
        out: &mut [f64],
    ) -> Result<(), QueryError> {
        if keys.len() != out.len() {
            return Err(QueryError::OutputMismatch {
                queries: keys.len(),
                out: out.len(),
            });
        }
        if keys.len() > 1 << 31 {
            return Err(QueryError::BatchTooLarge {
                len: keys.len(),
                max_log2: 31,
            });
        }
        scratch.endpoints.clear();
        scratch.endpoints.reserve(keys.len());
        for (i, &x) in keys.iter().enumerate() {
            self.check_key(x)?;
            scratch.endpoints.push((x, i as u32));
        }
        scratch.sort();
        self.walk(&scratch.endpoints, |seg, _, idx| {
            out[idx as usize] = self.values[seg];
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{compiled_from_signal, random_queries, scramble};
    use crate::ShardedHistogram;

    #[test]
    fn endpoint_sort_orders_any_key_material() {
        // Wide spreads, narrow high bands (min-rebase), heavy ties,
        // already-sorted input (skip path), and trivial lengths.
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![7],
            (0..1000).map(scramble).collect(),
            (0..1000).map(|i| scramble(i) % 5).collect(),
            (0..1000).map(|i| (1 << 39) + scramble(i) % 300).collect(),
            (0..1000).collect(),
        ];
        for keys in cases {
            let mut main: Vec<(u64, u32)> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, i as u32))
                .collect();
            let mut want = main.clone();
            want.sort_unstable();
            let mut swap = Vec::new();
            let mut counts = Vec::new();
            sort_endpoints(&mut main, &mut swap, &mut counts);
            // Ascending by key, and no endpoint lost or duplicated (tie
            // order is irrelevant to the walk, so normalize fully).
            assert!(main.windows(2).all(|w| w[0].0 <= w[1].0));
            main.sort_unstable();
            assert_eq!(main, want);
        }
    }

    #[test]
    fn advance_finds_the_segment_from_any_cursor() {
        let starts = [0u64, 4, 5, 9, 100, 101];
        for (x, want) in [(0, 0), (3, 0), (4, 1), (8, 2), (99, 3), (100, 4), (500, 5)] {
            for from in 0..=want {
                assert_eq!(advance(&starts, from, x), want, "x={x} from={from}");
            }
        }
    }

    #[test]
    fn batched_range_sums_are_bit_identical_to_single() {
        let v: Vec<f64> = (0..256)
            .map(|i| ((i * 37) % 19) as f64 - ((i % 5) as f64))
            .collect();
        for k in [256usize, 17, 2, 0] {
            let compiled = compiled_from_signal(&v, k);
            let queries = random_queries(256, 500);
            let mut scratch = BatchScratch::new();
            let mut out = vec![0.0; queries.len()];
            compiled
                .try_range_sum_batch_into(&queries, &mut scratch, &mut out)
                .unwrap();
            for (&(lo, hi), &batched) in queries.iter().zip(&out) {
                assert_eq!(
                    batched.to_bits(),
                    compiled.try_range_sum(lo, hi).unwrap().to_bits(),
                    "k={k} [{lo},{hi}]"
                );
            }
            // Scratch reuse across batches must not change answers.
            let more = random_queries(256, 73);
            let mut out2 = vec![0.0; more.len()];
            compiled
                .try_range_sum_batch_into(&more, &mut scratch, &mut out2)
                .unwrap();
            for (&(lo, hi), &batched) in more.iter().zip(&out2) {
                assert_eq!(
                    batched.to_bits(),
                    compiled.try_range_sum(lo, hi).unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn batched_selectivities_and_points_match_single() {
        let v: Vec<f64> = (0..128).map(|i| ((i * 13) % 29) as f64).collect();
        let compiled = compiled_from_signal(&v, 11);
        let n = 1000u64;
        let queries = random_queries(128, 200);
        let mut scratch = BatchScratch::new();
        let mut out = vec![0.0; queries.len()];
        compiled
            .try_selectivity_batch_into(&queries, n, &mut scratch, &mut out)
            .unwrap();
        for (&(lo, hi), &batched) in queries.iter().zip(&out) {
            assert_eq!(
                batched.to_bits(),
                compiled.try_selectivity(lo, hi, n).unwrap().to_bits()
            );
        }
        let keys: Vec<u64> = (0..300u64).map(|i| scramble(i) % 128).collect();
        let mut pts = vec![0.0; keys.len()];
        compiled
            .try_point_estimate_batch_into(&keys, &mut scratch, &mut pts)
            .unwrap();
        for (&x, &batched) in keys.iter().zip(&pts) {
            assert_eq!(
                batched.to_bits(),
                compiled.try_point_estimate(x).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let compiled = compiled_from_signal(&[1.0, 2.0, 3.0, 4.0], 4);
        let mut scratch = BatchScratch::new();
        let mut out: [f64; 0] = [];
        compiled
            .try_range_sum_batch_into(&[], &mut scratch, &mut out)
            .unwrap();
    }

    #[test]
    fn scratch_is_sync_and_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<BatchScratch>();
    }

    #[test]
    fn try_batches_report_errors_and_leave_out_untouched() {
        use crate::error::QueryError;
        let compiled = compiled_from_signal(&[1.0, 2.0, 3.0, 4.0], 4);
        let mut scratch = BatchScratch::new();
        let sentinel = [-7.0, -7.0];
        let mut out = sentinel;

        let err = compiled
            .try_range_sum_batch_into(&[(0, 1), (3, 2)], &mut scratch, &mut out)
            .unwrap_err();
        assert_eq!(err, QueryError::EmptyRange { lo: 3, hi: 2 });
        assert_eq!(out, sentinel);

        let err = compiled
            .try_range_sum_batch_into(&[(0, 1), (0, 99)], &mut scratch, &mut out)
            .unwrap_err();
        assert!(matches!(err, QueryError::OutOfDomain { key: 99, .. }));
        assert_eq!(out, sentinel);

        let err = compiled
            .try_range_sum_batch_into(&[(0, 1)], &mut scratch, &mut out)
            .unwrap_err();
        assert_eq!(err, QueryError::OutputMismatch { queries: 1, out: 2 });

        let err = compiled
            .try_selectivity_batch_into(&[(0, 1), (1, 2)], 0, &mut scratch, &mut out)
            .unwrap_err();
        assert_eq!(err, QueryError::ZeroRecords);
        assert_eq!(out, sentinel);

        let err = compiled
            .try_point_estimate_batch_into(&[0, 99], &mut scratch, &mut out)
            .unwrap_err();
        assert!(matches!(err, QueryError::OutOfDomain { key: 99, .. }));
        assert_eq!(out, sentinel);

        // The same scratch then serves a valid batch bit-identically —
        // a failed validation leaves no sticky state behind.
        compiled
            .try_range_sum_batch_into(&[(0, 1), (1, 3)], &mut scratch, &mut out)
            .unwrap();
        assert_eq!(
            out[0].to_bits(),
            compiled.try_range_sum(0, 1).unwrap().to_bits()
        );
        assert_eq!(
            out[1].to_bits(),
            compiled.try_range_sum(1, 3).unwrap().to_bits()
        );
    }

    #[test]
    fn sharded_batches_are_bit_identical() {
        let v: Vec<f64> = (0..512).map(|i| ((i * 131) % 41) as f64).collect();
        let compiled = compiled_from_signal(&v, 25);
        let queries = random_queries(512, 700);
        let keys: Vec<u64> = (0..400u64).map(|i| scramble(i) % 512).collect();

        let mut scratch = BatchScratch::new();
        let mut expect_sums = vec![0.0; queries.len()];
        compiled
            .try_range_sum_batch_into(&queries, &mut scratch, &mut expect_sums)
            .unwrap();
        let mut expect_sels = vec![0.0; queries.len()];
        compiled
            .try_selectivity_batch_into(&queries, 4242, &mut scratch, &mut expect_sels)
            .unwrap();
        let mut expect_pts = vec![0.0; keys.len()];
        compiled
            .try_point_estimate_batch_into(&keys, &mut scratch, &mut expect_pts)
            .unwrap();

        for m in [1usize, 2, 4, 13, 76] {
            let sharded = ShardedHistogram::shard(&compiled, m);
            // One scratch recycled across shard counts and batch kinds.
            let mut sums = vec![0.0; queries.len()];
            sharded
                .try_range_sum_batch_into(&queries, &mut scratch, &mut sums)
                .unwrap();
            let mut sels = vec![0.0; queries.len()];
            sharded
                .try_selectivity_batch_into(&queries, 4242, &mut scratch, &mut sels)
                .unwrap();
            let mut pts = vec![0.0; keys.len()];
            sharded
                .try_point_estimate_batch_into(&keys, &mut scratch, &mut pts)
                .unwrap();
            for (i, (a, b)) in expect_sums.iter().zip(&sums).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "m={m} query {i}");
            }
            for (i, (a, b)) in expect_sels.iter().zip(&sels).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "m={m} query {i}");
            }
            for (i, (a, b)) in expect_pts.iter().zip(&pts).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "m={m} key {i}");
            }
        }
    }

    #[test]
    fn sharded_errors_match_the_unsharded_ones() {
        let compiled = compiled_from_signal(&[1.0, 2.0, 3.0, 4.0], 4);
        let sharded = ShardedHistogram::shard(&compiled, 2);
        let mut scratch = BatchScratch::new();
        let sentinel = [-3.0, -3.0];
        let mut out = sentinel;

        assert_eq!(sharded.try_range_sum(3, 1), compiled.try_range_sum(3, 1));
        assert_eq!(
            sharded.try_point_estimate(77),
            compiled.try_point_estimate(77)
        );
        assert_eq!(
            sharded.try_selectivity(0, 1, 0),
            compiled.try_selectivity(0, 1, 0)
        );
        let err = sharded
            .try_range_sum_batch_into(&[(0, 1), (2, 9)], &mut scratch, &mut out)
            .unwrap_err();
        assert!(matches!(err, QueryError::OutOfDomain { key: 9, .. }));
        assert_eq!(out, sentinel);
        let err = sharded
            .try_point_estimate_batch_into(&[1], &mut scratch, &mut out)
            .unwrap_err();
        assert_eq!(err, QueryError::OutputMismatch { queries: 1, out: 2 });
    }
}
