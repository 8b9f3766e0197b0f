//! The incremental-maintenance differential suite — the target of CI's
//! `freshness` job.
//!
//! Pins the PR 9 contract end to end:
//!
//! 1. **Bit-identity for the exact path.** A [`MaintainedHistogram`]
//!    seeded from base splits and fed the remaining splits as deltas
//!    snapshots *bit-identically* (`f64::to_bits`) to a from-scratch
//!    [`Centralized`] build on the concatenated data.
//! 2. **Delta-merge algebra** (proptests): A-then-B ≡ B-then-A ≡ one
//!    merge of A∪B, empty deltas are no-ops, and re-selection handles
//!    top-k membership churn — all against a dense
//!    `forward_in_place` + `top_k_magnitude` oracle.
//! 3. **The serving loop.** merge → snapshot → `recompile` →
//!    `ServeTier::try_publish` republished at
//!    `dataset_records + delta`, with served answers bit-equal to the
//!    fresh compiled form and within the √SSE / √(len·SSE) brute-force
//!    bounds on the concatenated truth.
//! 4. **Streaming sketches.** GCS streaming a delta in key space equals
//!    merging per-segment sketches (linearity, up to summation order).

use proptest::prelude::*;
use wavelet_hist::builders::{Centralized, HistogramBuilder};
use wavelet_hist::data::{Dataset, DatasetBuilder, Distribution};
use wavelet_hist::incremental::MaintainedHistogram;
use wavelet_hist::mapreduce::ClusterConfig;
use wavelet_hist::sketch::{GcsParams, GroupCountSketch};
use wavelet_hist::wavelet::haar::forward_in_place;
use wavelet_hist::wavelet::{top_k_magnitude, Domain};
use wavelet_hist::{CompiledHistogram, ServeTier, WaveletHistogram};

const K: usize = 24;

fn zipf(seed: u64, log_u: u32, records: u64, splits: u32) -> Dataset {
    DatasetBuilder::new()
        .domain(Domain::new(log_u).expect("valid domain"))
        .distribution(Distribution::Zipf { alpha: 1.1 })
        .records(records)
        .splits(splits)
        .seed(seed)
        .build()
}

/// Aggregated `(key, count)` pairs of one split.
fn split_counts(ds: &Dataset, split: u32) -> Vec<(u64, u64)> {
    let mut agg = std::collections::BTreeMap::new();
    for r in ds.scan_split(split) {
        *agg.entry(r.key).or_insert(0u64) += 1;
    }
    agg.into_iter().collect()
}

fn assert_bit_identical(tag: &str, a: &WaveletHistogram, b: &WaveletHistogram) {
    assert_eq!(a.domain(), b.domain(), "{tag}: domain");
    assert_eq!(a.len(), b.len(), "{tag}: retained terms");
    for (i, (x, y)) in a.coefficients().iter().zip(b.coefficients()).enumerate() {
        assert_eq!(x.0, y.0, "{tag}: slot order at {i}");
        assert_eq!(
            x.1.to_bits(),
            y.1.to_bits(),
            "{tag}: coefficient {} ({} vs {})",
            x.0,
            x.1,
            y.1
        );
    }
}

/// The dense exact pipeline [`Centralized`] runs, as a standalone oracle
/// over raw `(key, count)` pairs.
fn dense_oracle(domain: Domain, counts: &[(u64, u64)], k: usize) -> WaveletHistogram {
    let mut v = vec![0.0f64; domain.u() as usize];
    for &(x, c) in counts {
        v[x as usize] += c as f64;
    }
    forward_in_place(&mut v);
    WaveletHistogram::new(
        domain,
        top_k_magnitude(v.iter().copied().enumerate().map(|(s, c)| (s as u64, c)), k)
            .into_iter()
            .map(|e| (e.slot, e.value)),
    )
}

// ---------------------------------------------------------------------------
// 1. Bit-identity: delta-merged ≡ built from scratch on concatenated data.
// ---------------------------------------------------------------------------

#[test]
fn delta_merged_snapshot_is_bit_identical_to_from_scratch_build() {
    let ds = zipf(0x9e1, 10, 48_000, 8);
    let cluster = ClusterConfig::paper_cluster();
    for k in [1, 8, K, 300] {
        // Base: splits 0..5. Deltas: splits 5..8, one merge each.
        let mut m = MaintainedHistogram::new(ds.domain(), k);
        for j in 0..5 {
            m.merge_split(&ds, j);
        }
        for j in 5..ds.num_splits() {
            m.merge_split(&ds, j);
        }
        assert_eq!(m.total_records(), ds.num_records());
        let scratch = Centralized::new().build(&ds, &cluster, k).histogram;
        assert_bit_identical(&format!("k={k}"), &m.snapshot(), &scratch);
    }
}

#[test]
fn delta_arrival_order_never_changes_the_snapshot() {
    let ds = zipf(0x517, 9, 20_000, 6);
    let forward = MaintainedHistogram::from_dataset(&ds, K);
    let mut reversed = MaintainedHistogram::new(ds.domain(), K);
    for j in (0..ds.num_splits()).rev() {
        reversed.merge_split(&ds, j);
    }
    assert_eq!(forward, reversed);
    assert_bit_identical("order", &forward.snapshot(), &reversed.snapshot());
}

// ---------------------------------------------------------------------------
// 2. Delta-merge algebra, against the dense oracle.
// ---------------------------------------------------------------------------

/// Random `(key, count)` deltas over a 2^6 domain.
fn delta_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..64, 1u64..200), 0..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn applying_a_then_b_equals_b_then_a_equals_one_merge(
        a in delta_strategy(),
        b in delta_strategy(),
    ) {
        let domain = Domain::new(6).unwrap();
        let mut ab = MaintainedHistogram::new(domain, 12);
        ab.merge_delta(a.iter().copied());
        ab.merge_delta(b.iter().copied());
        let mut ba = MaintainedHistogram::new(domain, 12);
        ba.merge_delta(b.iter().copied());
        ba.merge_delta(a.iter().copied());
        let mut union = MaintainedHistogram::new(domain, 12);
        union.merge_delta(a.iter().copied().chain(b.iter().copied()));

        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(&ab, &union);
        assert_bit_identical("a,b vs b,a", &ab.snapshot(), &ba.snapshot());
        assert_bit_identical("a,b vs a∪b", &ab.snapshot(), &union.snapshot());

        // And the merged state is exactly what a dense from-scratch
        // transform of the summed counts selects.
        let combined: Vec<(u64, u64)> =
            a.iter().copied().chain(b.iter().copied()).collect();
        assert_bit_identical(
            "vs dense oracle",
            &ab.snapshot(),
            &dense_oracle(domain, &combined, 12),
        );
    }

    #[test]
    fn empty_and_zero_deltas_are_no_ops(a in delta_strategy()) {
        let domain = Domain::new(6).unwrap();
        let mut m = MaintainedHistogram::new(domain, 12);
        m.merge_delta(a.iter().copied());
        let before = m.clone();
        m.merge_delta(std::iter::empty());
        m.merge_delta(a.iter().map(|&(x, _)| (x, 0)));
        prop_assert_eq!(&m, &before);
        assert_bit_identical("no-op", &m.snapshot(), &before.snapshot());
    }

    #[test]
    fn snapshots_track_the_oracle_at_every_budget(
        a in delta_strategy(),
        k in 1usize..20,
    ) {
        let domain = Domain::new(6).unwrap();
        let mut m = MaintainedHistogram::new(domain, k);
        m.merge_delta(a.iter().copied());
        assert_bit_identical("budget", &m.snapshot(), &dense_oracle(domain, &a, k));
    }
}

/// One step of a random delta sequence over `[2^6]`: `kind == 0` makes
/// the two halves of the `2^(level+1)`-leaf block holding `key` equal leaf
/// by leaf, which cancels that block's detail to exactly 0; `kind == 1`
/// does that, one merge each, to every detail the snapshot retains, which
/// drains the top of the selection; otherwise the step merges `delta`.
fn step_strategy() -> impl Strategy<Value = (Vec<(u64, u64)>, u64, u32, u32)> {
    (delta_strategy(), 0u64..64, 0u32..6, 0u32..3)
}

/// The delta that raises each leaf of `key`'s block to its mirror leaf in
/// the other half, and the slot of the detail that this cancels.
fn cancelling_delta(m: &MaintainedHistogram, key: u64, level: u32) -> (Vec<(u64, u64)>, u64) {
    let half = 1u64 << level;
    let start = key & !(2 * half - 1);
    let mut delta = Vec::new();
    for i in 0..half {
        let (left, right) = (start + i, start + half + i);
        let (l, r) = (m.transform().count(left), m.transform().count(right));
        delta.push(if l < r { (left, r - l) } else { (right, l - r) });
    }
    let p = m.domain().log_u() - level - 1;
    (delta, (1u64 << p) + (start >> (level + 1)))
}

/// Merges `delta`, then checks the snapshot bit for bit against a full
/// scan of the maintained coefficients and the dense oracle of `applied`.
fn merge_and_check(
    m: &mut MaintainedHistogram,
    applied: &mut Vec<(u64, u64)>,
    delta: Vec<(u64, u64)>,
) {
    m.merge_delta(delta.iter().copied());
    applied.extend(delta);
    let full = WaveletHistogram::new(
        m.domain(),
        top_k_magnitude(m.transform().coefficients(), m.k())
            .into_iter()
            .map(|e| (e.slot, e.value)),
    );
    let snap = m.snapshot();
    assert_bit_identical("vs full scan", &snap, &full);
    assert_bit_identical(
        "vs dense oracle",
        &snap,
        &dense_oracle(m.domain(), applied, m.k()),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every merge of a random sequence — sibling cancellations to
    /// exactly 0 included — the snapshot selected from the frontier is
    /// bit-identical to a full-scan selection over the maintained
    /// coefficients and to the dense oracle, at budgets from 0 to more
    /// than the non-zero count.
    #[test]
    fn every_merge_snapshots_what_a_full_scan_selects(
        steps in prop::collection::vec(step_strategy(), 1..12),
        pick in 0usize..5,
    ) {
        let domain = Domain::new(6).unwrap();
        let log_u = domain.log_u();
        let mut m = MaintainedHistogram::new(domain, [0, 1, 2, K, 65][pick]);
        let mut applied: Vec<(u64, u64)> = Vec::new();
        for (delta, key, level, kind) in steps {
            let targets: Vec<(u64, u32)> = match kind {
                0 => vec![(key, level)],
                1 => m
                    .snapshot()
                    .coefficients()
                    .iter()
                    .filter(|c| c.0 > 0)
                    .map(|c| {
                        let p = 63 - c.0.leading_zeros();
                        ((c.0 - (1 << p)) << (log_u - p), log_u - p - 1)
                    })
                    .collect(),
                _ => {
                    merge_and_check(&mut m, &mut applied, delta);
                    continue;
                }
            };
            for (key, level) in targets {
                let (delta, cancelled) = cancelling_delta(&m, key, level);
                merge_and_check(&mut m, &mut applied, delta);
                prop_assert!(!m.transform().coefficients().any(|(s, _)| s == cancelled));
            }
        }
    }
}

/// A delta can *shrink* the k-th magnitude: sibling counts cancel a
/// detail coefficient to exactly zero, so a previously unselected slot
/// must enter the top-k. Re-selection that only rescored "old top-k ∪
/// touched slots" would miss this; the full-scan snapshot must not.
#[test]
fn topk_membership_churns_under_cancelling_deltas() {
    let domain = Domain::new(3).unwrap();
    let mut m = MaintainedHistogram::new(domain, 2);
    m.merge_delta([(0u64, 10u64), (6, 3)]);
    let before: Vec<u64> = m.snapshot().coefficients().iter().map(|c| c.0).collect();
    // Key 1 cancels key 0's finest detail ((10-10)/√2 = 0 exactly): the
    // strongest coefficient vanishes from the non-zero set outright.
    m.merge_delta([(1u64, 10u64)]);
    let after: Vec<u64> = m.snapshot().coefficients().iter().map(|c| c.0).collect();
    assert_ne!(before, after, "membership must churn");
    assert!(
        !after.contains(&4),
        "cancelled finest detail (slot 4) must drop out: {after:?}"
    );
    assert_bit_identical(
        "churn",
        &m.snapshot(),
        &dense_oracle(domain, &[(0, 10), (1, 10), (6, 3)], 2),
    );
}

/// Negative (PR 10): the maintainer is a strictly 1-D component — a
/// delta key at or beyond `u` is rejected up front with a domain panic,
/// not folded into a wrong bucket.
#[test]
#[should_panic(expected = "outside")]
fn maintainer_rejects_keys_outside_its_domain() {
    let domain = Domain::new(6).unwrap();
    let mut m = MaintainedHistogram::new(domain, 8);
    m.merge_delta([(domain.u(), 1u64)]);
}

/// Negative (PR 10): packed 2-D slots (`pack_slot(r, c) = r·2³² + c`,
/// the key space of `WaveletHistogram2d`) must not alias through the
/// 1-D maintainer. Feeding one is the same domain violation — 2-D data
/// is built from a `Dataset2d`, never through `MaintainedHistogram`.
#[test]
#[should_panic(expected = "outside")]
fn maintainer_rejects_packed_2d_slots() {
    let domain = Domain::new(6).unwrap();
    let mut m = MaintainedHistogram::new(domain, 8);
    let packed_2d_slot = wavelet_hist::wavelet::twod::pack_slot(1, 3);
    m.merge_delta([(packed_2d_slot, 1u64)]);
}

// ---------------------------------------------------------------------------
// 3. The serving loop: merge → snapshot → recompile → try_publish.
// ---------------------------------------------------------------------------

#[test]
fn freshness_loop_republishes_and_serves_the_concatenated_data() {
    let ds = zipf(0xf8e5, 10, 40_000, 8);
    let id = 7;
    let tier = ServeTier::new(4);

    // Initial build and publish: splits 0..6.
    let mut m = MaintainedHistogram::new(ds.domain(), K);
    for j in 0..6 {
        m.merge_split(&ds, j);
    }
    let mut compiled = CompiledHistogram::compile(&m.snapshot());
    tier.publish(id, &compiled, m.total_records());
    assert_eq!(tier.dataset_records(id), Some(m.total_records()));
    let gen_before = tier.generation();

    // Two new segments arrive; count them the way an ingester would.
    let mut delta_records = 0u64;
    for j in 6..ds.num_splits() {
        let counts = split_counts(&ds, j);
        delta_records += counts.iter().map(|&(_, c)| c).sum::<u64>();
        m.merge_delta(counts);
    }
    assert_eq!(m.total_records(), ds.num_records());

    // Refresh: recompile the delta-merged snapshot in place and land it
    // through the fallible publish path at records + delta.
    let records = tier.dataset_records(id).expect("published") + delta_records;
    let generation = tier
        .try_publish(id, records, || {
            compiled.recompile(&m.snapshot());
            Ok::<_, std::convert::Infallible>(compiled.clone())
        })
        .expect("infallible refresh");
    assert!(generation > gen_before, "epoch must advance");
    assert_eq!(tier.dataset_records(id), Some(ds.num_records()));

    // The recompiled form is bit-identical to a fresh compile …
    let fresh = CompiledHistogram::compile(&m.snapshot());
    let u = ds.domain().u();
    for x in 0..u {
        assert_eq!(
            compiled.try_point_estimate(x).unwrap().to_bits(),
            fresh.try_point_estimate(x).unwrap().to_bits(),
            "recompile drift at key {x}"
        );
    }

    // … the tier serves it bit-identically, and the served estimates are
    // within the brute-force √SSE / √(len·SSE) bounds on the
    // concatenated truth.
    let truth = ds.exact_frequency_vector();
    let sse: f64 = (0..u)
        .map(|x| {
            let e = fresh.try_point_estimate(x).unwrap() - truth[x as usize] as f64;
            e * e
        })
        .sum();
    let mut handle = tier.handle();
    let point_bound = sse.sqrt() * (1.0 + 1e-9) + 1e-6;
    for x in (0..u).step_by(7) {
        let served = handle.try_point_estimate(id, x).expect("known dataset");
        assert_eq!(
            served.to_bits(),
            fresh.try_point_estimate(x).unwrap().to_bits()
        );
        assert!(
            (served - truth[x as usize] as f64).abs() <= point_bound,
            "point {x} outside √SSE after refresh"
        );
    }
    for (lo, hi) in [(0, u - 1), (3, 200), (100, 611), (512, 1000)] {
        let served = handle.try_range_sum(id, lo, hi).expect("known dataset");
        assert_eq!(
            served.to_bits(),
            fresh.try_range_sum(lo, hi).unwrap().to_bits()
        );
        let brute: f64 = truth[lo as usize..=hi as usize]
            .iter()
            .map(|&t| t as f64)
            .sum();
        let bound = (((hi - lo + 1) as f64) * sse).sqrt() * (1.0 + 1e-9) + 1e-6;
        assert!(
            (served - brute).abs() <= bound,
            "[{lo},{hi}] err {} > √(len·SSE) {bound}",
            (served - brute).abs()
        );
        // Selectivity must be relative to the *updated* record count.
        let sel = handle.try_selectivity(id, lo, hi).expect("known dataset");
        let expect = (served / ds.num_records() as f64).clamp(0.0, 1.0);
        assert_eq!(sel.to_bits(), expect.to_bits());
    }
}

// ---------------------------------------------------------------------------
// 4. Streaming sketches: delta updates ≡ segment merge (linearity).
// ---------------------------------------------------------------------------

#[test]
fn gcs_streaming_a_delta_matches_merging_segment_sketches() {
    let domain = Domain::new(8).unwrap();
    let params = GcsParams::paper_default(domain, 0x6c5);
    let base_keys: Vec<u64> = (0..400u64).map(|i| (i * 53) % 256).collect();
    let delta_keys: Vec<u64> = (0..60u64).map(|i| (i * 77) % 256).collect();

    let mut streamed = GroupCountSketch::new(domain, params);
    for &x in base_keys.iter().chain(&delta_keys) {
        streamed.update_key(x, 1.0);
    }

    let mut merged = GroupCountSketch::new(domain, params);
    for &x in &base_keys {
        merged.update_key(x, 1.0);
    }
    let mut delta_sketch = GroupCountSketch::new(domain, params);
    for &x in &delta_keys {
        delta_sketch.update_key(x, 1.0);
    }
    merged.merge(&delta_sketch);

    // Identical per-counter update sets; only summation order differs.
    let entries: Vec<(u64, f64)> = streamed.counter_entries().collect();
    let other: Vec<(u64, f64)> = merged.counter_entries().collect();
    assert_eq!(entries.len(), other.len());
    for ((ia, a), (ib, b)) in entries.iter().zip(&other) {
        assert_eq!(ia, ib);
        assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
    }
    // And the streamed sketch's top-k agrees with the merged one's.
    let a = streamed.topk(8, 64);
    let b = merged.topk(8, 64);
    assert_eq!(
        a.iter().map(|e| e.slot).collect::<Vec<_>>(),
        b.iter().map(|e| e.slot).collect::<Vec<_>>()
    );
}
