//! Two-dimensional wavelets via the standard decomposition (§2.1, §3, §4
//! "Multi-dimensional wavelets").
//!
//! A 2-D frequency array `v(x, y)` over `[u]²` is transformed by applying
//! the 1-D Haar transform to every row and then to every column of the
//! result. Both passes are linear, so — exactly as the paper argues — a 2-D
//! coefficient of the whole dataset is still the sum of the corresponding
//! 2-D coefficients of the splits, and every 1-D distributed algorithm
//! (H-WTopk, the samplers) carries over unchanged.
//!
//! 2-D coefficients are addressed by the pair of 1-D slots `(row_slot,
//! col_slot)` packed into a single `u64` (see [`pack_slot`]), so the rest of
//! the pipeline (top-k selection, TPUT, sketches) is reused verbatim.

use crate::hash::FxHashMap;
use crate::sparse::{self, SparseCoefs};
use crate::{haar, Domain};

/// Packs a 2-D coefficient address into one `u64`.
///
/// # Panics
///
/// Debug-panics when either slot needs more than 32 bits (domains beyond
/// `2^32` per dimension are not supported in 2-D).
#[inline]
pub fn pack_slot(row_slot: u64, col_slot: u64) -> u64 {
    debug_assert!(row_slot < (1 << 32) && col_slot < (1 << 32));
    (row_slot << 32) | col_slot
}

/// Inverse of [`pack_slot`].
#[inline]
pub fn unpack_slot(packed: u64) -> (u64, u64) {
    (packed >> 32, packed & 0xffff_ffff)
}

/// Dense 2-D standard-decomposition transform of a row-major `u×u` array.
///
/// # Panics
///
/// Panics if `v.len() != u²` for the domain's `u`, or if `u` exceeds
/// `2^16` (dense 2-D work is meant for evaluation-sized grids).
pub fn forward2d(domain: Domain, v: &[f64]) -> Vec<f64> {
    let u = domain.u() as usize;
    assert!(
        u <= 1 << 16,
        "dense 2-D transform limited to u ≤ 2^16 per dimension"
    );
    assert_eq!(v.len(), u * u, "expected a {u}×{u} row-major array");
    let mut a = v.to_vec();
    // Rows.
    for row in a.chunks_exact_mut(u) {
        haar::forward_in_place(row);
    }
    // Columns, via a scratch column buffer.
    let mut col = vec![0.0f64; u];
    for c in 0..u {
        for r in 0..u {
            col[r] = a[r * u + c];
        }
        haar::forward_in_place(&mut col);
        for r in 0..u {
            a[r * u + c] = col[r];
        }
    }
    a
}

/// Dense 2-D inverse transform — the round-trip **oracle** of
/// `tests/wavelet_properties.rs`; no builder or probe inverts densely.
pub fn inverse2d(domain: Domain, w: &[f64]) -> Vec<f64> {
    let u = domain.u() as usize;
    assert_eq!(w.len(), u * u, "expected a {u}×{u} row-major array");
    let mut a = w.to_vec();
    let mut col = vec![0.0f64; u];
    for c in 0..u {
        for r in 0..u {
            col[r] = a[r * u + c];
        }
        haar::inverse_in_place(&mut col);
        for r in 0..u {
            a[r * u + c] = col[r];
        }
    }
    for row in a.chunks_exact_mut(u) {
        haar::inverse_in_place(row);
    }
    a
}

/// Sparse 2-D coefficient map: packed slot → value.
pub type SparseCoefs2d = FxHashMap<u64, f64>;

/// Computes all non-zero 2-D coefficients of the sparse frequency array
/// given by `(x, y, count)` cells, as `(packed slot, value)` pairs in
/// strictly ascending [`pack_slot`] order, no stored zero. Cells may repeat
/// and arrive in any order; repeated cells accumulate in arrival order.
///
/// The standard decomposition replayed over the non-zero entries only:
/// every non-empty row goes through the 1-D [`sparse::sparse_transform`],
/// the row coefficients are regrouped by column slot, and every non-empty
/// column goes through it again. Each pass is bit-identical to the dense
/// cascade over its line (an absent entry standing for the `0.0` the dense
/// pass reads), so the result is **bit-identical** to the non-zero entries
/// of [`forward2d`] over the densified input.
///
/// Time `O(N log N + N log² u)` for `N` cells, no hashing.
pub fn sparse_transform2d<I>(domain: Domain, cells: I) -> SparseCoefs
where
    I: IntoIterator<Item = (u64, u64, f64)>,
{
    // One pass over `(line, position, value)` entries: every run of equal
    // `line` is transformed along its positions and comes back transposed,
    // as `(slot, line, coefficient)` — the other axis' input. The sort is
    // stable, so a line's entries keep their arrival order.
    let pass = |mut entries: Vec<(u64, u64, f64)>| {
        entries.sort_by_key(|&(line, _, _)| line);
        let mut out = Vec::with_capacity(entries.len());
        let mut rest = &entries[..];
        while let Some(&(line, _, _)) = rest.first() {
            let len = rest.iter().take_while(|e| e.0 == line).count();
            let along = rest[..len].iter().map(|&(_, position, v)| (position, v));
            let coefs = sparse::sparse_transform(domain, along);
            out.extend(coefs.into_iter().map(|(slot, w)| (slot, line, w)));
            rest = &rest[len..];
        }
        out
    };
    let by_col_slot = pass(cells.into_iter().collect());
    let mut out: SparseCoefs = pass(by_col_slot)
        .into_iter()
        .map(|(row_slot, col_slot, w)| (pack_slot(row_slot, col_slot), w))
        .collect();
    out.sort_unstable_by_key(|&(slot, _)| slot);
    out
}

/// Point estimate of cell `(x, y)` from a retained 2-D coefficient set.
pub fn point_estimate2d(domain: Domain, coefs: &SparseCoefs2d, x: u64, y: u64) -> f64 {
    let mut row_path: Vec<(u64, f64)> = Vec::new();
    crate::sparse::coefficient_updates(domain, x, 1.0, |s, d| row_path.push((s, d)));
    let mut col_path: Vec<(u64, f64)> = Vec::new();
    crate::sparse::coefficient_updates(domain, y, 1.0, |s, d| col_path.push((s, d)));
    // ψ_{(i,i')}(x,y) equals the product of the per-axis contributions, which
    // is exactly what coefficient_updates emits for weight 1.
    let mut est = 0.0;
    for &(rs, rd) in &row_path {
        for &(cs, cd) in &col_path {
            if let Some(&w) = coefs.get(&pack_slot(rs, cs)) {
                est += w * rd * cd;
            }
        }
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    fn test_grid(u: usize) -> Vec<f64> {
        (0..u * u).map(|i| ((i * 37 + 11) % 23) as f64).collect()
    }

    #[test]
    fn roundtrip2d() {
        let domain = Domain::new(3).unwrap();
        let v = test_grid(8);
        let w = forward2d(domain, &v);
        let back = inverse2d(domain, &w);
        for (a, b) in v.iter().zip(&back) {
            assert!(close(*a, *b));
        }
    }

    #[test]
    fn energy_preserved_2d() {
        let domain = Domain::new(4).unwrap();
        let v = test_grid(16);
        let w = forward2d(domain, &v);
        let ev: f64 = v.iter().map(|x| x * x).sum();
        let ew: f64 = w.iter().map(|x| x * x).sum();
        assert!(close(ev, ew));
    }

    #[test]
    fn sparse_matches_dense_2d() {
        let domain = Domain::new(3).unwrap();
        let cells = [(0u64, 0u64, 2.0), (3, 5, 1.0), (7, 7, 4.0), (2, 6, 3.0)];
        let sparse = sparse_transform2d(domain, cells.iter().copied());
        let mut v = vec![0.0; 64];
        for &(x, y, c) in &cells {
            v[(x * 8 + y) as usize] += c;
        }
        let dense: SparseCoefs = forward2d(domain, &v)
            .into_iter()
            .enumerate()
            .filter(|&(_, w)| w != 0.0)
            .map(|(i, w)| (pack_slot(i as u64 / 8, i as u64 % 8), w))
            .collect();
        assert_eq!(sparse.len(), dense.len());
        for (got, want) in sparse.iter().zip(&dense) {
            assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()));
        }
    }

    #[test]
    fn point_estimate_exact_with_all_coefficients() {
        let domain = Domain::new(2).unwrap();
        let cells = [(0u64, 1u64, 5.0), (3, 3, 2.0), (1, 2, 7.0)];
        let coefs: SparseCoefs2d = sparse_transform2d(domain, cells.iter().copied())
            .into_iter()
            .collect();
        let mut v = [0.0; 16];
        for &(x, y, c) in &cells {
            v[(x * 4 + y) as usize] += c;
        }
        for x in 0..4u64 {
            for y in 0..4u64 {
                let est = point_estimate2d(domain, &coefs, x, y);
                assert!(close(est, v[(x * 4 + y) as usize]), "({x},{y})");
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (r, c) in [(0u64, 0u64), (1, 2), (1 << 20, 1 << 19), ((1 << 32) - 1, 5)] {
            assert_eq!(unpack_slot(pack_slot(r, c)), (r, c));
        }
    }

    #[test]
    fn linearity_across_splits_2d() {
        // The property H-WTopk relies on: global 2-D coefficients are sums of
        // per-split 2-D coefficients.
        let domain = Domain::new(3).unwrap();
        let split_a = [(1u64, 1u64, 1.0), (4, 2, 2.0)];
        let split_b = [(1u64, 1u64, 3.0), (6, 7, 1.0)];
        let map = |cells: &[(u64, u64, f64)]| -> SparseCoefs2d {
            sparse_transform2d(domain, cells.iter().copied())
                .into_iter()
                .collect()
        };
        let (wa, wb) = (map(&split_a), map(&split_b));
        let wall = map(&[split_a, split_b].concat());
        for (slot, v) in &wall {
            let s = wa.get(slot).copied().unwrap_or(0.0) + wb.get(slot).copied().unwrap_or(0.0);
            assert!(close(*v, s));
        }
    }
}
