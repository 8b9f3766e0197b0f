//! Property-based tests on the wavelet substrate: the invariants every
//! algorithm in the workspace leans on, checked over arbitrary signals.

use proptest::prelude::*;
use wavelet_hist::wavelet::{haar, sparse, sse, tree::ErrorTree, twod, Domain};

fn signal(log_u: u32) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1000.0f64..1000.0, 1usize << log_u)
}

fn sparse_pairs(log_u: u32) -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec(
        ((0u64..(1 << log_u)), 1.0f64..500.0).prop_map(|(k, c)| (k, c)),
        0..60,
    )
}

/// The sparse transform's whole contract, against the dense oracle over
/// the same arrival-order accumulated input: strictly ascending slots, no
/// stored zero, and every non-zero dense coefficient present with the
/// **same bits** — the sorted-run cascade evaluates `haar::pair`, the dense
/// pass's own expression, so there is no tolerance to grant.
fn assert_sparse_is_dense(log_u: u32, pairs: &[(u64, f64)]) -> Result<(), TestCaseError> {
    let domain = Domain::new(log_u).expect("valid");
    let coefs = sparse::sparse_transform(domain, pairs.iter().copied());
    prop_assert!(
        coefs.windows(2).all(|w| w[0].0 < w[1].0),
        "slots not strictly ascending: {coefs:?}"
    );
    prop_assert!(
        coefs.iter().all(|&(_, w)| w != 0.0),
        "stored zero: {coefs:?}"
    );
    let mut v = vec![0.0f64; 1 << log_u];
    for &(k, c) in pairs {
        v[k as usize] += c;
    }
    let dense = haar::forward(&v);
    prop_assert_eq!(coefs.len(), dense.iter().filter(|&&w| w != 0.0).count());
    let got = sparse::densify(domain, &coefs);
    for (slot, (&got, &want)) in got.iter().zip(&dense).enumerate() {
        // A dropped slot densifies to +0.0 where the dense pass may hold
        // a cancelled −0.0: equal as numbers, the one non-bit comparison.
        prop_assert!(
            got.to_bits() == want.to_bits() || (got == 0.0 && want == 0.0),
            "log_u {log_u} slot {slot}: {got:e} vs {want:e}"
        );
    }
    Ok(())
}

/// The same contract in two dimensions, against [`twod::forward2d`] over
/// the arrival-order accumulated grid: strictly ascending packed slots, no
/// stored zero, and exactly the non-zero dense coefficients, bit for bit.
fn assert_sparse2d_is_dense(log_u: u32, cells: &[(u64, u64, f64)]) -> Result<(), TestCaseError> {
    let domain = Domain::new(log_u).expect("valid");
    let u = domain.u();
    let coefs = twod::sparse_transform2d(domain, cells.iter().copied());
    prop_assert!(
        coefs.windows(2).all(|w| w[0].0 < w[1].0),
        "slots not strictly ascending: {coefs:?}"
    );
    prop_assert!(
        coefs.iter().all(|&(_, w)| w != 0.0),
        "stored zero: {coefs:?}"
    );
    let mut v = vec![0.0f64; (u * u) as usize];
    for &(x, y, c) in cells {
        v[(x * u + y) as usize] += c;
    }
    // Row-major order is ascending packed-slot order.
    let want: Vec<(u64, u64)> = twod::forward2d(domain, &v)
        .iter()
        .enumerate()
        .filter(|&(_, &w)| w != 0.0)
        .map(|(i, &w)| (twod::pack_slot(i as u64 / u, i as u64 % u), w.to_bits()))
        .collect();
    let got: Vec<(u64, u64)> = coefs.iter().map(|&(s, w)| (s, w.to_bits())).collect();
    prop_assert_eq!(got, want, "log_u {}", log_u);
    Ok(())
}

/// Cells over `[2^log_u]²` at `log_u ∈ {1, 3, 5, 7}`, in two shapes: real
/// counts spread over the grid, and small signed integer counts packed
/// into the far 4×4 corner, where duplicate cells and exactly cancelling
/// row and column siblings are the norm.
fn sparse_cells() -> impl Strategy<Value = (u32, Vec<(u64, u64, f64)>)> {
    let raw = prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, -500.0f64..500.0), 0..80);
    (0usize..4, 0u32..2, raw).prop_map(|(d, shape, raw)| {
        let packed = shape == 1;
        let log_u = [1u32, 3, 5, 7][d];
        let top = (1u64 << log_u) - 1;
        let mask = if packed { top.min(3) } else { top };
        let cells = raw
            .into_iter()
            .map(|(x, y, c)| {
                let c = if packed { (c / 100.0).round() } else { c };
                ((top - mask) | (x & mask), (top - mask) | (y & mask), c)
            })
            .collect();
        (log_u, cells)
    })
}

/// Key streams for [`sparse::sorted_counts`]: `log u` on both sides of
/// every 11-bit digit boundary, lengths on both sides of the 2^16 chunk
/// boundary and across several chunks, and three shapes — spread over the
/// domain with a pool of recurring keys, packed into the 16 topmost keys,
/// all equal. Streams of two keys or more contain both `0` and `u − 1`
/// unless all their keys are equal.
fn key_stream() -> impl Strategy<Value = (u32, Vec<u64>)> {
    const LOG_US: [u32; 7] = [1, 11, 12, 22, 23, 33, 40];
    const LENGTHS: [usize; 8] = [
        0,
        1,
        2,
        300,
        (1 << 16) - 1,
        1 << 16,
        (1 << 16) + 1,
        3 * (1 << 16) + 7,
    ];
    (
        0usize..LOG_US.len(),
        0usize..LENGTHS.len(),
        0u32..3,
        prop::collection::vec(0u64..u64::MAX, 1..200),
    )
        .prop_map(|(d, l, shape, pool)| {
            let log_u = LOG_US[d];
            let top = (1u64 << log_u) - 1;
            let mut keys: Vec<u64> = (0..LENGTHS[l] as u64)
                .map(|i| {
                    let recurring = pool[i as usize % pool.len()];
                    match shape {
                        // Every third key is new, the others recur.
                        0 if i % 3 == 0 => {
                            recurring
                                .wrapping_add(i)
                                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                                >> 24
                                & top
                        }
                        0 => recurring & top,
                        1 => top - (recurring & top.min(15)),
                        _ => pool[0] & top,
                    }
                })
                .collect();
            if shape < 2 && keys.len() >= 2 {
                keys[0] = top;
                *keys.last_mut().expect("two keys or more") = 0;
            }
            (log_u, keys)
        })
}

#[test]
fn sparse_transform_edge_cases_at_small_mid_and_large_domains() {
    for log_u in [1u32, 7, 12] {
        let domain = Domain::new(log_u).expect("valid");
        let u = domain.u();
        assert!(
            sparse::sparse_transform(domain, []).is_empty(),
            "empty input"
        );
        // Equal siblings cancel their shared leaf detail and nothing else.
        let (a, b) = (u - 2, u - 1);
        let leaf = u / 2 + a / 2;
        let equal = [(a, 2.5), (b, 2.5)];
        let coefs = sparse::sparse_transform(domain, equal);
        assert!(coefs.iter().all(|e| e.0 != leaf), "log_u {log_u}");
        assert_eq!(coefs.len() as u32, log_u, "log_u {log_u}: path minus leaf");
        assert_sparse_is_dense(log_u, &equal).unwrap();
        // Opposite siblings cancel every average: only the leaf detail.
        let opposite = [(a, 2.5), (b, -2.5)];
        let coefs = sparse::sparse_transform(domain, opposite);
        assert_eq!(coefs.iter().map(|e| e.0).collect::<Vec<_>>(), [leaf]);
        assert_sparse_is_dense(log_u, &opposite).unwrap();
        // Duplicates fold before the cascade: a key that nets to zero is absent.
        let netted = [(a, 4.0), (0, 1.0), (a, -4.0)];
        assert_eq!(
            sparse::sparse_transform(domain, netted),
            sparse::sparse_transform(domain, [(0, 1.0)])
        );
        assert_sparse_is_dense(log_u, &netted).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forward_inverse_roundtrip(v in signal(6)) {
        let w = haar::forward(&v);
        let back = haar::inverse(&w);
        for (a, b) in v.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn parseval_energy_preserved(v in signal(5)) {
        let w = haar::forward(&v);
        let ev = haar::energy(&v);
        let ew = haar::energy(&w);
        prop_assert!((ev - ew).abs() < 1e-7 * (1.0 + ev));
    }

    #[test]
    fn transform_is_linear(a in signal(5), b in signal(5)) {
        let wa = haar::forward(&a);
        let wb = haar::forward(&b);
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let ws = haar::forward(&sum);
        for i in 0..32 {
            prop_assert!((ws[i] - (wa[i] + wb[i])).abs() < 1e-8 * (1.0 + ws[i].abs()));
        }
    }

    #[test]
    fn sparse_transform_matches_dense(pairs in sparse_pairs(7)) {
        assert_sparse_is_dense(7, &pairs)?;
    }

    #[test]
    fn sparse_transform_matches_dense_on_signed_duplicates(
        raw in prop::collection::vec((0u64..4096, -3i32..4), 0..60),
    ) {
        for log_u in [1u32, 7, 12] {
            let top = (1u64 << log_u) - 1;
            // Keys spread over the whole domain, then packed into its last
            // 16 keys so duplicates and cancelling siblings are the norm.
            for mask in [top, top.min(15)] {
                let pairs: Vec<(u64, f64)> = raw
                    .iter()
                    .map(|&(k, c)| ((top - mask) | (k & mask), f64::from(c)))
                    .collect();
                assert_sparse_is_dense(log_u, &pairs)?;
            }
        }
    }

    #[test]
    fn sparse_transform2d_matches_forward2d(cells in sparse_cells()) {
        let (log_u, cells) = cells;
        assert_sparse2d_is_dense(log_u, &cells)?;
    }

    #[test]
    fn sorted_counts_is_the_ascending_frequency_vector(stream in key_stream()) {
        let (log_u, keys) = stream;
        let domain = Domain::new(log_u).expect("valid");
        let counts = sparse::sorted_counts(domain, keys.iter().copied());
        prop_assert!(
            counts.windows(2).all(|w| w[0].0 < w[1].0),
            "log_u {log_u}, {} keys: not strictly ascending", keys.len()
        );
        prop_assert_eq!(counts.iter().map(|e| e.1).sum::<u64>(), keys.len() as u64);
        let mut brute_force = std::collections::BTreeMap::new();
        for &x in &keys {
            *brute_force.entry(x).or_insert(0u64) += 1;
        }
        prop_assert!(
            counts.iter().copied().eq(brute_force),
            "log_u {log_u}, {} keys: differs from the BTreeMap count", keys.len()
        );
        // The mappers used to count into a hash map and hand the transform
        // its iteration order: same multiset, same coefficients, same bits.
        let mut hashed = wavelet_hist::wavelet::hash::FxHashMap::default();
        for &x in &keys {
            *hashed.entry(x).or_insert(0u64) += 1;
        }
        let as_entries = |(x, c): (u64, u64)| (x, c as f64);
        let from_run = sparse::sparse_transform(domain, counts.into_iter().map(as_entries));
        let from_map = sparse::sparse_transform(domain, hashed.into_iter().map(as_entries));
        prop_assert!(
            from_run.len() == from_map.len()
                && from_run
                    .iter()
                    .zip(&from_map)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
            "log_u {log_u}, {} keys: transform differs from the hash-order one", keys.len()
        );
    }

    #[test]
    fn error_tree_point_queries_match_reconstruction(pairs in sparse_pairs(6), k in 1usize..20) {
        let domain = Domain::new(6).expect("valid");
        let coefs = sparse::sparse_transform(domain, pairs.iter().copied());
        let top = wavelet_hist::wavelet::select::top_k_magnitude(coefs.into_iter(), k);
        let tree = ErrorTree::new(domain, top.iter().map(|e| (e.slot, e.value)));
        let recon = tree.reconstruct();
        for x in 0..64u64 {
            prop_assert!((tree.point_estimate(x) - recon[x as usize]).abs() < 1e-8);
        }
    }

    #[test]
    fn range_sum_equals_sum_of_points(pairs in sparse_pairs(6), lo in 0u64..64, len in 0u64..64) {
        let hi = (lo + len).min(63);
        let domain = Domain::new(6).expect("valid");
        let coefs = sparse::sparse_transform(domain, pairs.iter().copied());
        let tree = ErrorTree::new(domain, coefs.into_iter());
        let by_points: f64 = (lo..=hi).map(|x| tree.point_estimate(x)).sum();
        let by_range = tree.range_sum(lo, hi);
        prop_assert!((by_points - by_range).abs() < 1e-6 * (1.0 + by_points.abs()));
    }

    #[test]
    fn top_k_is_optimal_energy_subset(v in signal(5), k in 1usize..32) {
        let w = haar::forward(&v);
        let top = wavelet_hist::wavelet::select::top_k_magnitude(
            w.iter().enumerate().map(|(s, &c)| (s as u64, c)), k);
        let retained_energy: f64 = top.iter().map(|e| e.value * e.value).sum();
        // No other subset of size k retains more energy than the top-k by
        // magnitude: compare against the sum of the k largest squares.
        let mut sq: Vec<f64> = w.iter().map(|c| c * c).collect();
        sq.sort_by(|a, b| b.partial_cmp(a).expect("no NaN"));
        let best: f64 = sq.iter().take(k).sum();
        prop_assert!((retained_energy - best).abs() < 1e-7 * (1.0 + best));
    }

    #[test]
    fn ideal_sse_plus_retained_energy_is_total(v in signal(5), k in 0usize..40) {
        let w = haar::forward(&v);
        let total = haar::energy(&w);
        let ideal = sse::ideal_sse(&w, k);
        let mut sq: Vec<f64> = w.iter().map(|c| c * c).collect();
        sq.sort_by(|a, b| b.partial_cmp(a).expect("no NaN"));
        let retained: f64 = sq.iter().take(k).sum();
        prop_assert!((ideal + retained - total).abs() < 1e-7 * (1.0 + total));
    }
}

#[test]
fn two_dimensional_roundtrip_property() {
    // Deterministic sweep standing in for a 2-D proptest (dense 2-D is
    // quadratic; keep it bounded).
    use wavelet_hist::wavelet::twod;
    let domain = Domain::new(4).expect("valid");
    for seed in 0..8u64 {
        let v: Vec<f64> = (0..256)
            .map(|i| (((i as u64 + seed).wrapping_mul(2654435761)) % 97) as f64)
            .collect();
        let w = twod::forward2d(domain, &v);
        let back = twod::inverse2d(domain, &w);
        for (a, b) in v.iter().zip(&back) {
            assert!((a - b).abs() < 1e-8);
        }
        let ev: f64 = v.iter().map(|x| x * x).sum();
        let ew: f64 = w.iter().map(|x| x * x).sum();
        assert!((ev - ew).abs() < 1e-7 * ev.max(1.0));
    }
}

#[test]
fn sparse_transform2d_edge_cases() {
    for log_u in [1u32, 3, 5, 7] {
        let domain = Domain::new(log_u).expect("valid");
        let u = domain.u();
        assert!(
            twod::sparse_transform2d(domain, []).is_empty(),
            "empty input"
        );
        // A single cell touches the product of its two root-to-leaf paths,
        // the far corner's ending in the last packed slot.
        let corner = [(u - 1, u - 1, 3.0)];
        let coefs = twod::sparse_transform2d(domain, corner);
        assert_eq!(
            coefs.len() as u32,
            (log_u + 1) * (log_u + 1),
            "log_u {log_u}"
        );
        assert_eq!(coefs.last().unwrap().0, twod::pack_slot(u - 1, u - 1));
        assert_sparse2d_is_dense(log_u, &corner).unwrap();
        // Equal row siblings (same row, sibling columns) cancel every
        // coefficient on their shared column leaf detail; equal column
        // siblings those on their shared row leaf detail.
        let (a, b) = (u - 2, u - 1);
        let leaf = u / 2 + a / 2;
        let in_row = [(0, a, 2.5), (0, b, 2.5)];
        let coefs = twod::sparse_transform2d(domain, in_row);
        assert!(coefs.iter().all(|e| twod::unpack_slot(e.0).1 != leaf));
        assert_eq!(coefs.len() as u32, (log_u + 1) * log_u, "log_u {log_u}");
        assert_sparse2d_is_dense(log_u, &in_row).unwrap();
        let in_col = [(a, 0, 2.5), (b, 0, 2.5)];
        let coefs = twod::sparse_transform2d(domain, in_col);
        assert!(coefs.iter().all(|e| twod::unpack_slot(e.0).0 != leaf));
        assert_eq!(coefs.len() as u32, log_u * (log_u + 1), "log_u {log_u}");
        assert_sparse2d_is_dense(log_u, &in_col).unwrap();
        // Opposite siblings on both axes leave the one coefficient that is
        // a leaf detail in each.
        let checker = [(a, a, 1.0), (a, b, -1.0), (b, a, -1.0), (b, b, 1.0)];
        let coefs = twod::sparse_transform2d(domain, checker);
        assert_eq!(
            coefs.iter().map(|e| e.0).collect::<Vec<_>>(),
            [twod::pack_slot(leaf, leaf)]
        );
        assert_sparse2d_is_dense(log_u, &checker).unwrap();
        // Duplicate cells fold in arrival order, as the dense `v[cell] += c`
        // does: 1e16 + 1 − 1e16 is 0 in this order and 1 in any other.
        let ordered = [(a, 0, 1e16), (0, b, 4.0), (a, 0, 1.0), (a, 0, -1e16)];
        assert_eq!(
            twod::sparse_transform2d(domain, ordered),
            twod::sparse_transform2d(domain, [(0, b, 4.0)])
        );
        assert_sparse2d_is_dense(log_u, &ordered).unwrap();
    }
}
