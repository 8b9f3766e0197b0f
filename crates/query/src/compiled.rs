//! The immutable, query-optimized form of a built wavelet histogram.

use crate::error::QueryError;
use wh_core::WaveletHistogram;
use wh_wavelet::Domain;

/// A [`WaveletHistogram`] compiled for serving: the pruned error tree
/// flattened to its piecewise-constant segments, with per-segment prefix
/// sums, cut into an ascending list of key-range windows.
///
/// [`compile`](Self::compile) produces one window spanning the domain;
/// [`shard`](Self::shard) re-slices the same arrays **bitwise** into
/// several. Windows change *how a batch walks* the segments, never *what*
/// a segment answers: every probe locates the same (unique) segment and
/// evaluates `prefix[i] + values[i]·(x − starts[i] + 1)` on the same
/// f64s — prefixes are global, never rebased to a window — so every
/// estimate, single or batched, is bit-identical whatever the window
/// count. (Compiling each window independently from the error tree could
/// not promise that: the prefix accumulator runs sequentially across all
/// segments.)
///
/// All state is immutable after compilation, so the type is `Sync` — a
/// multi-threaded server shares one instance by reference. Every query
/// method is allocation-free and runs in `O(log k)` for `k` retained
/// coefficients (the segment count is at most `3k + 1`); the batched
/// methods ([`Self::try_range_sum_batch_into`] and friends) amortize
/// further. Every probe is fallible: a malformed query is a
/// [`QueryError`] value, never a panic.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledHistogram {
    domain: Domain,
    /// Segment start keys, strictly ascending; `starts[0] == 0`. Segment
    /// `i` covers `[starts[i], starts[i+1])`, the last running to `u`.
    pub(crate) starts: Vec<u64>,
    /// Estimated frequency of every key inside the segment.
    pub(crate) values: Vec<f64>,
    /// Estimated cumulative frequency of all keys *before* the segment.
    prefix: Vec<f64>,
    /// Estimated total frequency over the whole domain.
    total: f64,
    /// Window `j` holds segments `cuts[j]..cuts[j + 1]`. Strictly
    /// ascending from `cuts[0] == 0` to the segment count.
    pub(crate) cuts: Vec<usize>,
}

/// The key-range-sharded form the serving tier publishes: the same type,
/// after [`CompiledHistogram::shard`].
pub type ShardedHistogram = CompiledHistogram;

impl CompiledHistogram {
    /// Compiles a built histogram. `O(k log u)` once; queries never touch
    /// the coefficient set again.
    pub fn compile(hist: &WaveletHistogram) -> Self {
        let mut compiled = Self {
            domain: hist.domain(),
            starts: Vec::new(),
            values: Vec::new(),
            prefix: Vec::new(),
            total: 0.0,
            cuts: Vec::new(),
        };
        compiled.recompile(hist);
        compiled
    }

    /// Re-snapshots this compiled form from a (typically delta-merged)
    /// histogram in place, reusing the segment arrays' allocations — the
    /// compile side of the incremental-maintenance loop, where a fresh
    /// snapshot is compiled per delta batch before being handed to the
    /// serving tier. Equivalent to `*self = CompiledHistogram::compile(h)`
    /// bit for bit, without the three reallocations.
    pub fn recompile(&mut self, hist: &WaveletHistogram) {
        let domain = hist.domain();
        let segs = hist.segments();
        self.domain = domain;
        self.starts.clear();
        self.values.clear();
        self.prefix.clear();
        self.starts.reserve(segs.len());
        self.values.reserve(segs.len());
        self.prefix.reserve(segs.len());
        let mut acc = 0.0f64;
        for (i, &(start, value)) in segs.iter().enumerate() {
            self.starts.push(start);
            self.values.push(value);
            self.prefix.push(acc);
            let end = segs.get(i + 1).map_or(domain.u(), |&(s, _)| s);
            acc += value * ((end - start) as f64);
        }
        self.total = acc;
        self.cuts.clear();
        self.cuts.extend([0, segs.len()]);
    }

    /// Re-slices the segments into (at most) `num_shards` key-range
    /// windows of near-equal segment count; the arrays are copied bit for
    /// bit. Requests for more shards than segments clamp to one shard per
    /// segment; `num_shards == 0` is treated as 1.
    pub fn shard(&self, num_shards: usize) -> Self {
        let segs = self.starts.len();
        let m = num_shards.clamp(1, segs);
        Self {
            cuts: (0..=m).map(|j| j * segs / m).collect(),
            ..self.clone()
        }
    }

    /// Number of key-range windows: 1 after [`compile`](Self::compile),
    /// the clamped request after [`shard`](Self::shard).
    pub fn num_shards(&self) -> usize {
        self.cuts.len() - 1
    }

    /// The key domain this histogram describes.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Number of piecewise-constant segments (≤ `3k + 1`).
    pub fn num_segments(&self) -> usize {
        self.starts.len()
    }

    /// The segments as ascending `(start, value)` pairs.
    pub fn segments(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.starts.iter().copied().zip(self.values.iter().copied())
    }

    /// Estimated total frequency over the whole domain (equals
    /// `try_prefix_sum(u − 1)` bit for bit).
    pub fn total_estimate(&self) -> f64 {
        self.total
    }

    /// First key past the segment range ending at `cut`: the start of
    /// segment `cut`, or `u` past the last segment.
    #[inline]
    pub(crate) fn key_at(&self, cut: usize) -> u64 {
        self.starts.get(cut).copied().unwrap_or(self.domain.u())
    }

    /// Index of the segment containing `x` (caller guarantees `x` is in
    /// the domain, so a segment always exists).
    #[inline]
    fn segment_of(&self, x: u64) -> usize {
        self.starts.partition_point(|&s| s <= x) - 1
    }

    /// The cumulative-estimate formula, shared verbatim by the single and
    /// batched paths so their answers are bit-identical.
    #[inline]
    pub(crate) fn prefix_at(&self, seg: usize, x: u64) -> f64 {
        self.prefix[seg] + self.values[seg] * ((x - self.starts[seg] + 1) as f64)
    }

    /// Checks that `x` lies in the domain, as a value.
    #[inline]
    pub(crate) fn check_key(&self, x: u64) -> Result<(), QueryError> {
        if self.domain.contains(x) {
            Ok(())
        } else {
            Err(QueryError::OutOfDomain {
                key: x,
                domain: self.domain,
            })
        }
    }

    /// Estimated frequency of the (0-based) key `x`, or the reason the
    /// query is malformed.
    pub fn try_point_estimate(&self, x: u64) -> Result<f64, QueryError> {
        self.check_key(x)?;
        Ok(self.values[self.segment_of(x)])
    }

    /// Estimated cumulative frequency of keys `0..=x`, or the reason the
    /// query is malformed.
    pub fn try_prefix_sum(&self, x: u64) -> Result<f64, QueryError> {
        self.check_key(x)?;
        Ok(self.prefix_at(self.segment_of(x), x))
    }

    /// Estimated total frequency of keys in `[lo, hi]` (0-based,
    /// inclusive) — two cumulative estimates — or the reason the query is
    /// malformed.
    pub fn try_range_sum(&self, lo: u64, hi: u64) -> Result<f64, QueryError> {
        if lo > hi {
            return Err(QueryError::EmptyRange { lo, hi });
        }
        let hi_p = self.try_prefix_sum(hi)?;
        let lo_p = if lo == 0 {
            0.0
        } else {
            self.try_prefix_sum(lo - 1)?
        };
        Ok(hi_p - lo_p)
    }

    /// Estimated selectivity of `[lo, hi]` relative to `n` records,
    /// clamped to `[0, 1]`, or the reason the query is malformed.
    pub fn try_selectivity(&self, lo: u64, hi: u64, n: u64) -> Result<f64, QueryError> {
        if n == 0 {
            return Err(QueryError::ZeroRecords);
        }
        Ok((self.try_range_sum(lo, hi)? / n as f64).clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{compiled_from_signal, histogram_from_signal, random_queries};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn matches_error_tree_on_full_and_truncated_retention() {
        let v: Vec<f64> = (0..128).map(|i| ((i * 17) % 23) as f64).collect();
        for k in [128usize, 9, 3, 1] {
            let hist = histogram_from_signal(&v, k);
            let compiled = CompiledHistogram::compile(&hist);
            for x in 0..128u64 {
                assert!(
                    close(
                        compiled.try_point_estimate(x).unwrap(),
                        hist.point_estimate(x)
                    ),
                    "k={k} x={x}"
                );
                assert!(
                    close(compiled.try_prefix_sum(x).unwrap(), hist.prefix_sum(x)),
                    "k={k} x={x}"
                );
            }
            for (lo, hi) in [(0, 127), (5, 5), (31, 96), (0, 0), (127, 127)] {
                assert!(
                    close(
                        compiled.try_range_sum(lo, hi).unwrap(),
                        hist.range_sum(lo, hi)
                    ),
                    "k={k} [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn recompile_matches_fresh_compile_bitwise() {
        let a: Vec<f64> = (0..64).map(|i| ((i * 13) % 19) as f64).collect();
        let b: Vec<f64> = (0..64).map(|i| ((i * 7) % 29) as f64 + 1.0).collect();
        let hist_b = histogram_from_signal(&b, 9);
        let fresh = CompiledHistogram::compile(&hist_b);
        // Recompiling collapses a sharded form back to the one window a
        // fresh compile produces.
        let stale = compiled_from_signal(&a, 12);
        for mut reused in [stale.shard(3), stale] {
            reused.recompile(&hist_b);
            assert_eq!(reused, fresh);
            assert_eq!(
                reused.total_estimate().to_bits(),
                fresh.total_estimate().to_bits()
            );
            for x in 0..64u64 {
                assert_eq!(
                    reused.try_prefix_sum(x).unwrap().to_bits(),
                    fresh.try_prefix_sum(x).unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn total_equals_last_prefix_bitwise() {
        let v: Vec<f64> = (0..64).map(|i| ((i * 31) % 11) as f64).collect();
        let compiled = compiled_from_signal(&v, 10);
        assert_eq!(
            compiled.total_estimate().to_bits(),
            compiled.try_prefix_sum(63).unwrap().to_bits()
        );
    }

    #[test]
    fn empty_histogram_serves_zeros() {
        let domain = Domain::new(4).unwrap();
        let hist = WaveletHistogram::new(domain, std::iter::empty::<(u64, f64)>());
        let compiled = CompiledHistogram::compile(&hist);
        assert_eq!(compiled.num_segments(), 1);
        assert_eq!(compiled.try_point_estimate(7).unwrap(), 0.0);
        assert_eq!(compiled.try_range_sum(0, 15).unwrap(), 0.0);
        assert_eq!(compiled.try_selectivity(3, 9, 100).unwrap(), 0.0);
        assert_eq!(compiled.total_estimate(), 0.0);
    }

    #[test]
    fn selectivity_clamps_like_the_histogram() {
        let v = vec![10.0, 0.0, 0.0, 0.0];
        let hist = histogram_from_signal(&v, 4);
        let compiled = CompiledHistogram::compile(&hist);
        assert_eq!(
            compiled.try_selectivity(0, 0, 10).unwrap().to_bits(),
            hist.selectivity(0, 0, 10).to_bits()
        );
        assert!(compiled.try_selectivity(1, 3, 10).unwrap() < 1e-12);
    }

    #[test]
    fn single_queries_report_malformed_input() {
        let compiled = compiled_from_signal(&[5.0, 1.0, 0.0, 2.0], 4);
        assert_eq!(
            compiled.try_range_sum(2, 1),
            Err(QueryError::EmptyRange { lo: 2, hi: 1 })
        );
        assert_eq!(
            compiled.try_selectivity(0, 1, 0),
            Err(QueryError::ZeroRecords)
        );
        assert!(matches!(
            compiled.try_point_estimate(4),
            Err(QueryError::OutOfDomain { key: 4, .. })
        ));
    }

    #[test]
    fn compiled_is_sync_and_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<CompiledHistogram>();
        assert_sync_send::<ShardedHistogram>();
    }

    #[test]
    fn shards_partition_the_domain() {
        let v: Vec<f64> = (0..256).map(|i| ((i * 37) % 19) as f64).collect();
        let compiled = compiled_from_signal(&v, 20);
        for m in [1usize, 2, 3, 7, 64, 10_000] {
            let sharded = ShardedHistogram::shard(&compiled, m);
            assert!(sharded.num_shards() <= compiled.num_segments());
            assert!(sharded.num_shards() <= m.max(1));
            let mut expect_lo = 0u64;
            let mut segs = 0usize;
            for shard in sharded.cuts.windows(2) {
                let (lo, hi) = (sharded.key_at(shard[0]), sharded.key_at(shard[1]));
                assert_eq!(lo, expect_lo, "m={m}");
                assert!(hi > lo, "m={m}");
                expect_lo = hi;
                segs += shard[1] - shard[0];
            }
            assert_eq!(expect_lo, compiled.domain().u(), "m={m}");
            assert_eq!(segs, compiled.num_segments(), "m={m}");
        }
    }

    #[test]
    fn sharded_single_queries_are_bit_identical() {
        let v: Vec<f64> = (0..256)
            .map(|i| ((i * 37) % 19) as f64 - ((i % 5) as f64))
            .collect();
        for k in [256usize, 17, 2, 0] {
            let compiled = compiled_from_signal(&v, k);
            for m in [1usize, 2, 5, 33] {
                let sharded = ShardedHistogram::shard(&compiled, m);
                assert_eq!(
                    sharded.total_estimate().to_bits(),
                    compiled.total_estimate().to_bits()
                );
                for x in 0..256u64 {
                    assert_eq!(
                        sharded.try_point_estimate(x).unwrap().to_bits(),
                        compiled.try_point_estimate(x).unwrap().to_bits(),
                        "k={k} m={m} x={x}"
                    );
                    assert_eq!(
                        sharded.try_prefix_sum(x).unwrap().to_bits(),
                        compiled.try_prefix_sum(x).unwrap().to_bits(),
                        "k={k} m={m} x={x}"
                    );
                }
                for &(lo, hi) in &random_queries(256, 300) {
                    assert_eq!(
                        sharded.try_range_sum(lo, hi).unwrap().to_bits(),
                        compiled.try_range_sum(lo, hi).unwrap().to_bits(),
                        "k={k} m={m} [{lo},{hi}]"
                    );
                    assert_eq!(
                        sharded.try_selectivity(lo, hi, 999).unwrap().to_bits(),
                        compiled.try_selectivity(lo, hi, 999).unwrap().to_bits(),
                        "k={k} m={m} [{lo},{hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn resharding_a_sharded_form_equals_sharding_the_compiled_one() {
        let v: Vec<f64> = (0..256).map(|i| ((i * 37) % 19) as f64).collect();
        let compiled = compiled_from_signal(&v, 20);
        for m in [1usize, 4, 9] {
            assert_eq!(compiled.shard(7).shard(m), compiled.shard(m), "m={m}");
        }
        assert_eq!(compiled.shard(1), compiled);
    }

    #[test]
    fn empty_histogram_shards_and_serves_zeros() {
        let domain = Domain::new(4).unwrap();
        let hist = WaveletHistogram::new(domain, std::iter::empty::<(u64, f64)>());
        let compiled = CompiledHistogram::compile(&hist);
        let sharded = ShardedHistogram::shard(&compiled, 8);
        assert_eq!(sharded.num_shards(), 1); // one segment, clamped
        assert_eq!(sharded.try_point_estimate(7).unwrap(), 0.0);
        assert_eq!(sharded.try_range_sum(0, 15).unwrap(), 0.0);
    }
}
