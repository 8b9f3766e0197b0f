//! The immutable, query-optimized form of a built **2-D** wavelet
//! histogram: rectangle sums as four corner evaluations over a segment
//! grid.
//!
//! A k-term nonstandard 2-D Haar representation reconstructs to a
//! function that is constant on a grid: each retained coefficient is a
//! tensor product of two 1-D basis functions, each piecewise constant on
//! its dyadic block's start/midpoint/end breakpoints. Collecting the row
//! breakpoints of every retained `(row_slot, col_slot)` address gives at
//! most `3k + 1` row segments (likewise columns), and the estimate is
//! one value per grid cell.
//!
//! [`CompiledHistogram2D::compile`] materializes that grid once, then
//! precomputes the 2-D analogue of the 1-D prefix array — a summed-area
//! decomposition per cell — so the *corner function*
//! `F(x, y) = Σ_{x'≤x, y'≤y} est(x', y')` is a closed-form expression in
//! the cell's four precomputed terms. A rectangle sum is then exactly
//! four corner evaluations (inclusion–exclusion), `O(log k)` per query
//! and allocation-free; the batched path sorts each axis's endpoints and
//! resolves them in one monotone galloping walk, reusing the 1-D
//! endpoint sort, and is **bit-identical** to one-at-a-time serving
//! because both paths resolve the same unique segment indices and then
//! evaluate the identical corner expression in the identical order.

use crate::batch::{advance, BatchScratch};
use crate::error::QueryError;
use wh_core::twod::WaveletHistogram2d;
use wh_wavelet::twod::{point_estimate2d, unpack_slot, SparseCoefs2d};
use wh_wavelet::Domain;

/// A [`WaveletHistogram2d`] compiled for serving 2-D range-selectivity
/// estimates. Immutable after compilation, hence `Sync`; every query
/// method is allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledHistogram2D {
    domain: Domain,
    /// Row-segment start keys, strictly ascending; `starts_r[0] == 0`.
    /// Row segment `i` covers `[starts_r[i], starts_r[i+1])`, the last
    /// running to `u`.
    starts_r: Vec<u64>,
    /// Column-segment start keys, same shape.
    starts_c: Vec<u64>,
    /// `cell[i·nc + j]`: estimated frequency of every cell of grid
    /// segment `(i, j)`.
    cell: Vec<f64>,
    /// `block[i·nc + j]`: estimated mass of all grid segments strictly
    /// before `(i, j)` on both axes (the summed-area corner term).
    block: Vec<f64>,
    /// `row_band[i·nc + j]`: estimated mass per *row of keys* of row
    /// segment `i` over all column segments strictly before `j`.
    row_band: Vec<f64>,
    /// `col_band[i·nc + j]`: estimated mass per *column of keys* of
    /// column segment `j` over all row segments strictly before `i`.
    col_band: Vec<f64>,
    /// Estimated total mass over the whole `[u]²` grid.
    total: f64,
}

/// Appends the 1-D breakpoints of `slot`'s basis function: nothing for
/// the average (slot 0, constant over the axis), the dyadic block's
/// start, midpoint, and end for a detail slot.
fn push_breakpoints(starts: &mut Vec<u64>, slot: u64, u: u64) {
    if slot == 0 {
        return;
    }
    let level = 63 - slot.leading_zeros();
    let block = slot - (1u64 << level);
    let b = u >> level;
    let start = block * b;
    starts.push(start);
    starts.push(start + b / 2);
    if start + b < u {
        starts.push(start + b);
    }
}

impl CompiledHistogram2D {
    /// Compiles a built 2-D histogram. `O((3k)² (log u)²)` once; queries
    /// never touch the coefficient set again.
    pub fn compile(hist: &WaveletHistogram2d) -> Self {
        let mut compiled = Self {
            domain: hist.domain(),
            starts_r: Vec::new(),
            starts_c: Vec::new(),
            cell: Vec::new(),
            block: Vec::new(),
            row_band: Vec::new(),
            col_band: Vec::new(),
            total: 0.0,
        };
        compiled.recompile(hist);
        compiled
    }

    /// Re-snapshots this compiled form from a rebuilt histogram in
    /// place, reusing the grid allocations. Equivalent to
    /// `*self = CompiledHistogram2D::compile(h)` bit for bit.
    pub fn recompile(&mut self, hist: &WaveletHistogram2d) {
        let domain = hist.domain();
        let u = domain.u();
        self.domain = domain;
        self.starts_r.clear();
        self.starts_c.clear();
        self.starts_r.push(0);
        self.starts_c.push(0);
        for &(slot, _) in hist.coefficients() {
            let (row_slot, col_slot) = unpack_slot(slot);
            push_breakpoints(&mut self.starts_r, row_slot, u);
            push_breakpoints(&mut self.starts_c, col_slot, u);
        }
        self.starts_r.sort_unstable();
        self.starts_r.dedup();
        self.starts_c.sort_unstable();
        self.starts_c.dedup();
        let (nr, nc) = (self.starts_r.len(), self.starts_c.len());

        // The reconstruction is constant on every grid segment, so one
        // tree evaluation at the segment's corner is the whole cell.
        let map: SparseCoefs2d = hist.coefficients().iter().copied().collect();
        self.cell.clear();
        self.cell.reserve(nr * nc);
        for i in 0..nr {
            for j in 0..nc {
                self.cell.push(point_estimate2d(
                    domain,
                    &map,
                    self.starts_r[i],
                    self.starts_c[j],
                ));
            }
        }

        let len_r =
            |i: usize| (self.starts_r.get(i + 1).copied().unwrap_or(u) - self.starts_r[i]) as f64;
        let len_c =
            |j: usize| (self.starts_c.get(j + 1).copied().unwrap_or(u) - self.starts_c[j]) as f64;
        // Fixed accumulation orders: ascending j inside each row band,
        // ascending i inside each column band and block column — the
        // orders the bit-identity contract pins.
        self.row_band.clear();
        self.row_band.resize(nr * nc, 0.0);
        for i in 0..nr {
            let mut acc = 0.0f64;
            for j in 0..nc {
                self.row_band[i * nc + j] = acc;
                acc += self.cell[i * nc + j] * len_c(j);
            }
        }
        self.col_band.clear();
        self.col_band.resize(nr * nc, 0.0);
        self.block.clear();
        self.block.resize(nr * nc, 0.0);
        for j in 0..nc {
            let mut band = 0.0f64;
            let mut blk = 0.0f64;
            for i in 0..nr {
                self.col_band[i * nc + j] = band;
                band += self.cell[i * nc + j] * len_r(i);
                self.block[i * nc + j] = blk;
                blk += self.row_band[i * nc + j] * len_r(i);
            }
        }
        self.total = self.corner(nr - 1, u - 1, nc - 1, u - 1);
    }

    /// The per-dimension key domain this histogram describes.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Number of row segments (≤ `3k + 1`, and ≤ `u`).
    pub fn num_row_segments(&self) -> usize {
        self.starts_r.len()
    }

    /// Number of column segments.
    pub fn num_col_segments(&self) -> usize {
        self.starts_c.len()
    }

    /// Estimated total mass over the whole grid (equals
    /// `try_rectangle_sum((0, u−1, 0, u−1))` bit for bit).
    pub fn total_estimate(&self) -> f64 {
        self.total
    }

    /// Index of the row segment containing `x` (caller guarantees `x`
    /// is in the domain).
    #[inline]
    fn row_segment_of(&self, x: u64) -> usize {
        self.starts_r.partition_point(|&s| s <= x) - 1
    }

    /// Index of the column segment containing `y`.
    #[inline]
    fn col_segment_of(&self, y: u64) -> usize {
        self.starts_c.partition_point(|&s| s <= y) - 1
    }

    /// The corner function `F(x, y) = Σ_{x'≤x, y'≤y} est(x', y')`,
    /// given the grid segment `(i, j)` containing `(x, y)`. Shared
    /// verbatim by the single and batched paths so their answers are
    /// bit-identical.
    #[inline]
    fn corner(&self, i: usize, x: u64, j: usize, y: u64) -> f64 {
        let idx = i * self.starts_c.len() + j;
        let dx = (x - self.starts_r[i] + 1) as f64;
        let dy = (y - self.starts_c[j] + 1) as f64;
        self.block[idx]
            + dx * self.row_band[idx]
            + dy * self.col_band[idx]
            + dx * dy * self.cell[idx]
    }

    /// Inclusion–exclusion over the four corners, with `F` taken as 0
    /// below the grid. The segment indices for `xlo − 1` / `ylo − 1`
    /// are only read when `xlo > 0` / `ylo > 0`. One fixed combination
    /// order, shared by the single and batched paths.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn rect_value(
        &self,
        (xlo, xhi, ylo, yhi): (u64, u64, u64, u64),
        sxl: usize,
        sxh: usize,
        syl: usize,
        syh: usize,
    ) -> f64 {
        let a = self.corner(sxh, xhi, syh, yhi);
        let b = if xlo > 0 {
            self.corner(sxl, xlo - 1, syh, yhi)
        } else {
            0.0
        };
        let c = if ylo > 0 {
            self.corner(sxh, xhi, syl, ylo - 1)
        } else {
            0.0
        };
        let d = if xlo > 0 && ylo > 0 {
            self.corner(sxl, xlo - 1, syl, ylo - 1)
        } else {
            0.0
        };
        (a - b) - c + d
    }

    /// Validates one rectangle: `x` then `y`, emptiness then domain —
    /// the single and batched paths report identical first errors.
    #[inline]
    fn check_rect(&self, (xlo, xhi, ylo, yhi): (u64, u64, u64, u64)) -> Result<(), QueryError> {
        if xlo > xhi {
            return Err(QueryError::EmptyRange { lo: xlo, hi: xhi });
        }
        if ylo > yhi {
            return Err(QueryError::EmptyRange { lo: ylo, hi: yhi });
        }
        for key in [xhi, yhi] {
            if !self.domain.contains(key) {
                return Err(QueryError::OutOfDomain {
                    key,
                    domain: self.domain,
                });
            }
        }
        Ok(())
    }

    /// Estimated frequency of the cell `(x, y)`, or the reason the
    /// query is malformed.
    pub fn try_point_estimate(&self, x: u64, y: u64) -> Result<f64, QueryError> {
        for key in [x, y] {
            if !self.domain.contains(key) {
                return Err(QueryError::OutOfDomain {
                    key,
                    domain: self.domain,
                });
            }
        }
        Ok(self.cell[self.row_segment_of(x) * self.starts_c.len() + self.col_segment_of(y)])
    }

    /// Estimated total frequency of cells in the inclusive rectangle
    /// `[xlo, xhi] × [ylo, yhi]`, or the reason the query is malformed.
    pub fn try_rectangle_sum(&self, query: (u64, u64, u64, u64)) -> Result<f64, QueryError> {
        self.check_rect(query)?;
        let (xlo, xhi, ylo, yhi) = query;
        let sxl = if xlo > 0 {
            self.row_segment_of(xlo - 1)
        } else {
            0
        };
        let syl = if ylo > 0 {
            self.col_segment_of(ylo - 1)
        } else {
            0
        };
        Ok(self.rect_value(
            query,
            sxl,
            self.row_segment_of(xhi),
            syl,
            self.col_segment_of(yhi),
        ))
    }

    /// Estimated selectivity of the rectangle relative to `n` records,
    /// clamped to `[0, 1]`, or the reason the query is malformed.
    pub fn try_selectivity(&self, query: (u64, u64, u64, u64), n: u64) -> Result<f64, QueryError> {
        if n == 0 {
            return Err(QueryError::ZeroRecords);
        }
        Ok((self.try_rectangle_sum(query)? / n as f64).clamp(0.0, 1.0))
    }

    /// Answers a batch of rectangle sums into `out`, bit-identical to
    /// calling [`Self::try_rectangle_sum`] per query, or reports the
    /// first malformed query. On `Err`, `out` is untouched.
    ///
    /// Each axis's `2q` endpoints are radix-sorted (the same LSD
    /// counting sort as the 1-D batch path) and resolved in one
    /// galloping walk over that axis's segment starts — `O(q + k)`
    /// probes per axis instead of `O(q log k)` binary searches — then
    /// every query combines its four corners in the single-path order.
    pub fn try_rectangle_sum_batch_into(
        &self,
        queries: &[(u64, u64, u64, u64)],
        scratch: &mut BatchScratch2D,
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
        for &query in queries {
            self.check_rect(query)?;
        }
        scratch.resolve_axis(
            &self.starts_r,
            queries.iter().map(|&(xlo, xhi, _, _)| (xlo, xhi)),
        );
        std::mem::swap(&mut scratch.segs, &mut scratch.x_segs);
        scratch.resolve_axis(
            &self.starts_c,
            queries.iter().map(|&(_, _, ylo, yhi)| (ylo, yhi)),
        );
        for (q, (&query, slot)) in queries.iter().zip(out.iter_mut()).enumerate() {
            *slot = self.rect_value(
                query,
                scratch.x_segs[2 * q] as usize,
                scratch.x_segs[2 * q + 1] as usize,
                scratch.segs[2 * q] as usize,
                scratch.segs[2 * q + 1] as usize,
            );
        }
        Ok(())
    }

    /// Answers a batch of selectivity queries relative to `n` records,
    /// bit-identical to calling [`Self::try_selectivity`] per query, or
    /// reports the first malformed query. On `Err`, `out` is untouched.
    pub fn try_selectivity_batch_into(
        &self,
        queries: &[(u64, u64, u64, u64)],
        n: u64,
        scratch: &mut BatchScratch2D,
        out: &mut [f64],
    ) -> Result<(), QueryError> {
        if n == 0 {
            return Err(QueryError::ZeroRecords);
        }
        self.try_rectangle_sum_batch_into(queries, scratch, out)?;
        for slot in out.iter_mut() {
            *slot = (*slot / n as f64).clamp(0.0, 1.0);
        }
        Ok(())
    }
}

/// Reusable scratch of the batched 2-D query path: a 1-D
/// [`BatchScratch`] whose endpoint and sort buffers serve both axes in
/// turn, and the resolved segment indices per axis. One per serving
/// thread, recycled across batches and across different compiled
/// histograms — the scratch carries no per-histogram state.
#[derive(Debug, Default)]
pub struct BatchScratch2D {
    /// Endpoints of the axis being resolved, tagged as in the 1-D path.
    axis: BatchScratch,
    /// Segment indices of the axis just resolved, indexed by tag.
    segs: Vec<u32>,
    /// Segment indices of the x axis, parked here while y resolves.
    x_segs: Vec<u32>,
}

impl BatchScratch2D {
    /// Scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves one axis's endpoints to segment indices in `self.segs`:
    /// collect, sort, one galloping walk. A range with `lo == 0` leaves
    /// its lo-slot at the 0 the resize wrote; [`CompiledHistogram2D`]
    /// never reads it.
    fn resolve_axis(&mut self, starts: &[u64], ranges: impl Iterator<Item = (u64, u64)>) {
        self.axis.endpoints.clear();
        self.segs.clear();
        for (q, (lo, hi)) in ranges.enumerate() {
            let tag = (q as u32) << 1;
            if lo > 0 {
                self.axis.endpoints.push((lo - 1, tag));
            }
            self.axis.endpoints.push((hi, tag | 1));
            self.segs.push(0);
            self.segs.push(0);
        }
        self.axis.sort();
        let mut seg = 0usize;
        for &(x, tag) in &self.axis.endpoints {
            seg = advance(starts, seg, x);
            self.segs[tag as usize] = seg as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scramble;
    use wh_wavelet::twod::{forward2d, pack_slot};

    /// A small dense row-major grid, transformed and truncated to k terms.
    fn compiled_from_grid(grid: &[f64], k: usize) -> (CompiledHistogram2D, WaveletHistogram2d) {
        let u = (grid.len() as f64).sqrt() as usize;
        assert_eq!(u * u, grid.len());
        let domain = Domain::covering(u as u64).unwrap();
        assert_eq!(domain.u() as usize, u);
        let w = forward2d(domain, grid);
        let entries = w
            .iter()
            .enumerate()
            .map(|(i, &v)| (pack_slot((i / u) as u64, (i % u) as u64), v));
        let top = wh_wavelet::select::top_k_magnitude(entries, k);
        let hist = WaveletHistogram2d::new(domain, top.into_iter().map(|e| (e.slot, e.value)));
        (CompiledHistogram2D::compile(&hist), hist)
    }

    fn test_grid(u: usize) -> Vec<f64> {
        (0..u * u)
            .map(|i| (((i / u) * 13 + (i % u) * 7) % 19) as f64)
            .collect()
    }

    fn random_rects(u: u64, count: usize) -> Vec<(u64, u64, u64, u64)> {
        (0..count as u64)
            .map(|i| {
                let xlo = scramble(i) % u;
                let xhi = xlo + scramble(i ^ 0xaaaa) % (u - xlo);
                let ylo = scramble(i ^ 0x5555) % u;
                let yhi = ylo + scramble(i ^ 0xffff) % (u - ylo);
                (xlo, xhi, ylo, yhi)
            })
            .collect()
    }

    #[test]
    fn matches_tree_evaluation_on_full_and_truncated_retention() {
        let grid = test_grid(16);
        for k in [256usize, 20, 5, 1] {
            let (compiled, hist) = compiled_from_grid(&grid, k);
            for x in 0..16u64 {
                for y in 0..16u64 {
                    let tree = hist.point_estimate(x, y);
                    let got = compiled.try_point_estimate(x, y).unwrap();
                    assert!(
                        (tree - got).abs() <= 1e-9 * (1.0 + tree.abs()),
                        "k={k} ({x},{y}): {got} vs {tree}"
                    );
                }
            }
        }
    }

    #[test]
    fn rectangle_sum_matches_summed_points() {
        let grid = test_grid(16);
        for k in [256usize, 12] {
            let (compiled, _) = compiled_from_grid(&grid, k);
            for &(xlo, xhi, ylo, yhi) in &random_rects(16, 60) {
                let mut want = 0.0f64;
                for x in xlo..=xhi {
                    for y in ylo..=yhi {
                        want += compiled.try_point_estimate(x, y).unwrap();
                    }
                }
                let got = compiled.try_rectangle_sum((xlo, xhi, ylo, yhi)).unwrap();
                assert!(
                    (want - got).abs() <= 1e-6 * (1.0 + want.abs()),
                    "k={k} [{xlo},{xhi}]x[{ylo},{yhi}]: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn batched_rectangles_are_bit_identical_to_single() {
        let grid = test_grid(32);
        for k in [1024usize, 33, 3] {
            let (compiled, _) = compiled_from_grid(&grid, k);
            let queries = random_rects(32, 400);
            let mut scratch = BatchScratch2D::new();
            let mut out = vec![0.0; queries.len()];
            compiled
                .try_rectangle_sum_batch_into(&queries, &mut scratch, &mut out)
                .unwrap();
            for (&q, &batched) in queries.iter().zip(&out) {
                assert_eq!(
                    batched.to_bits(),
                    compiled.try_rectangle_sum(q).unwrap().to_bits(),
                    "k={k} {q:?}"
                );
            }
            // Scratch reuse across batches must not change answers.
            let more = random_rects(32, 57);
            let mut out2 = vec![0.0; more.len()];
            compiled
                .try_selectivity_batch_into(&more, 1000, &mut scratch, &mut out2)
                .unwrap();
            for (&q, &batched) in more.iter().zip(&out2) {
                assert_eq!(
                    batched.to_bits(),
                    compiled.try_selectivity(q, 1000).unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn recompile_matches_fresh_compile_bitwise() {
        let (mut reused, _) = compiled_from_grid(&test_grid(16), 9);
        let other: Vec<f64> = (0..32 * 32)
            .map(|i| (((i / 32) * 5 + (i % 32) * 11) % 23) as f64)
            .collect();
        let (_, hist_b) = compiled_from_grid(&other, 14);
        reused.recompile(&hist_b);
        let fresh = CompiledHistogram2D::compile(&hist_b);
        assert_eq!(reused, fresh);
        assert_eq!(
            reused.total_estimate().to_bits(),
            fresh.total_estimate().to_bits()
        );
    }

    #[test]
    fn total_equals_full_rectangle_bitwise() {
        let (compiled, _) = compiled_from_grid(&test_grid(16), 10);
        assert_eq!(
            compiled.total_estimate().to_bits(),
            compiled
                .try_rectangle_sum((0, 15, 0, 15))
                .unwrap()
                .to_bits()
        );
    }

    #[test]
    fn empty_histogram_serves_zeros() {
        let domain = Domain::new(4).unwrap();
        let hist = WaveletHistogram2d::new(domain, std::iter::empty::<(u64, f64)>());
        let compiled = CompiledHistogram2D::compile(&hist);
        assert_eq!(compiled.num_row_segments(), 1);
        assert_eq!(compiled.num_col_segments(), 1);
        assert_eq!(compiled.try_point_estimate(7, 3).unwrap(), 0.0);
        assert_eq!(compiled.try_rectangle_sum((0, 15, 2, 9)).unwrap(), 0.0);
        assert_eq!(compiled.try_selectivity((3, 9, 0, 15), 100).unwrap(), 0.0);
    }

    #[test]
    fn try_queries_report_errors_and_leave_out_untouched() {
        let (compiled, _) = compiled_from_grid(&test_grid(16), 8);
        let mut scratch = BatchScratch2D::new();
        let sentinel = [-7.0, -7.0];
        let mut out = sentinel;

        let err = compiled
            .try_rectangle_sum_batch_into(&[(0, 1, 0, 1), (3, 2, 0, 1)], &mut scratch, &mut out)
            .unwrap_err();
        assert_eq!(err, QueryError::EmptyRange { lo: 3, hi: 2 });
        assert_eq!(out, sentinel);

        let err = compiled
            .try_rectangle_sum_batch_into(&[(0, 1, 0, 99), (0, 1, 0, 1)], &mut scratch, &mut out)
            .unwrap_err();
        assert!(matches!(err, QueryError::OutOfDomain { key: 99, .. }));
        assert_eq!(out, sentinel);

        let err = compiled
            .try_selectivity_batch_into(&[(0, 1, 0, 1), (0, 1, 0, 1)], 0, &mut scratch, &mut out)
            .unwrap_err();
        assert_eq!(err, QueryError::ZeroRecords);
        assert_eq!(out, sentinel);

        assert_eq!(
            compiled.try_rectangle_sum((2, 1, 0, 3)),
            Err(QueryError::EmptyRange { lo: 2, hi: 1 })
        );
        assert_eq!(
            compiled.try_rectangle_sum((0, 3, 5, 4)),
            Err(QueryError::EmptyRange { lo: 5, hi: 4 })
        );
        assert!(matches!(
            compiled.try_rectangle_sum((0, 3, 0, 16)),
            Err(QueryError::OutOfDomain { key: 16, .. })
        ));
        assert!(matches!(
            compiled.try_point_estimate(16, 0),
            Err(QueryError::OutOfDomain { key: 16, .. })
        ));

        // The same scratch then serves a valid batch bit-identically.
        compiled
            .try_rectangle_sum_batch_into(&[(0, 1, 0, 1), (1, 3, 2, 9)], &mut scratch, &mut out)
            .unwrap();
        assert_eq!(
            out[1].to_bits(),
            compiled.try_rectangle_sum((1, 3, 2, 9)).unwrap().to_bits()
        );
    }

    #[test]
    fn compiled_is_sync_and_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<CompiledHistogram2D>();
        assert_sync_send::<BatchScratch2D>();
    }
}
