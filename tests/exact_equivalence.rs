//! Cross-crate integration: every exact construction path — centralized,
//! Send-V, Send-Coef, H-WTopk — produces the same best-k-term histogram
//! on every dataset shape, matching §3's claim that they compute the same
//! object at different costs.

use wavelet_hist::builders::{Centralized, HWTopk, HistogramBuilder, SendCoef, SendV};
use wavelet_hist::data::{Dataset, DatasetBuilder, Distribution};
use wavelet_hist::mapreduce::{ClusterConfig, EngineConfig, RunMetrics};
use wavelet_hist::wavelet::Domain;
use wavelet_hist::WaveletHistogram;

/// Distributed sums differ from the centralized transform only by float
/// associativity, so: magnitudes must match position by position, and any
/// coefficient whose magnitude clearly exceeds the k-th place must be the
/// same slot with the same value. (Near-ties at the boundary may swap —
/// both choices are equally "best" k-term representations.)
fn assert_same(a: &WaveletHistogram, b: &WaveletHistogram, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length");
    let kth = b.coefficients().last().map_or(0.0, |&(_, v)| v.abs());
    let tol = 1e-6 * (1.0 + kth);
    for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
        assert!(
            (x.1.abs() - y.1.abs()).abs() < 1e-6 * (1.0 + y.1.abs()),
            "{ctx}: magnitude {x:?} vs {y:?}"
        );
    }
    let b_map: std::collections::HashMap<u64, f64> = b.coefficients().iter().copied().collect();
    for &(slot, value) in a.coefficients() {
        if value.abs() > kth + tol {
            let want = b_map.get(&slot).copied().unwrap_or_else(|| {
                panic!(
                    "{ctx}: slot {slot} (|w|={}) missing from reference",
                    value.abs()
                )
            });
            assert!(
                (value - want).abs() < 1e-6 * (1.0 + want.abs()),
                "{ctx}: slot {slot}: {value} vs {want}"
            );
        }
    }
}

/// Past 2^32 slots the coefficient builders key their messages with 8
/// bytes: 20 B per H-WTopk message (8 B key + 12 B payload) and 16 B per
/// Send-Coef pair. `Centralized` cannot allocate this domain, so Send-V
/// is the reference. Returns each build's metrics, H-WTopk's first.
fn check_slot_keys_past_two_to_the_32(engine: EngineConfig) -> Vec<RunMetrics> {
    let ds = DatasetBuilder::new()
        .domain(Domain::new(33).expect("valid"))
        .distribution(Distribution::Uniform)
        .records(2_000)
        .seed(0xd00d)
        .build();
    let cluster = ClusterConfig::paper_cluster();
    let k = 10;
    let reference = SendV::new().build(&ds, &cluster, k);
    let mut metrics = Vec::new();
    for (b, pair_bytes) in [
        (
            Box::new(HWTopk::new().with_engine(engine)) as Box<dyn HistogramBuilder>,
            20,
        ),
        (Box::new(SendCoef::new().with_engine(engine)), 16),
    ] {
        let got = b.build(&ds, &cluster, k);
        let m = got.metrics;
        assert!(m.map_output_pairs > 0, "{}", b.name());
        assert_eq!(
            m.shuffle_bytes,
            m.map_output_pairs * pair_bytes,
            "{}",
            b.name()
        );
        assert_same(&got.histogram, &reference.histogram, b.name());
        metrics.push(m);
    }
    metrics
}

#[test]
fn slot_keys_widen_past_two_to_the_32() {
    check_slot_keys_past_two_to_the_32(EngineConfig::pipelined());
}

/// The same 8-byte keys through forked workers: they cross the pipes at
/// the width they are accounted at, so the bytes the coordinator decoded
/// equal the logical shuffle.
#[cfg(unix)]
#[test]
fn slot_keys_widen_past_two_to_the_32_over_pipes() {
    let engine = EngineConfig::multi_process().with_map_parallelism(2);
    for m in check_slot_keys_past_two_to_the_32(engine) {
        assert!(m.wire.frames > 0);
        assert_eq!(m.wire.pair_bytes, m.shuffle_bytes);
    }
}

fn datasets() -> Vec<(&'static str, Dataset)> {
    let base = |dist| {
        DatasetBuilder::new()
            .domain(Domain::new(9).expect("valid"))
            .distribution(dist)
            .records(30_000)
            .splits(12)
            .seed(0xd00d)
            .build()
    };
    vec![
        ("zipf-0.8", base(Distribution::Zipf { alpha: 0.8 })),
        ("zipf-1.4", base(Distribution::Zipf { alpha: 1.4 })),
        (
            "scrambled",
            base(Distribution::ScrambledZipf { alpha: 1.1 }),
        ),
        ("uniform", base(Distribution::Uniform)),
        ("worldcup", base(Distribution::WorldCup)),
    ]
}

#[test]
fn all_exact_builders_agree_on_all_distributions() {
    let cluster = ClusterConfig::paper_cluster();
    for (name, ds) in datasets() {
        let reference = Centralized::new().build(&ds, &cluster, 15);
        for b in [
            Box::new(SendV::new()) as Box<dyn HistogramBuilder>,
            Box::new(SendCoef::new()),
            Box::new(HWTopk::new()),
        ] {
            let got = b.build(&ds, &cluster, 15);
            assert_same(
                &got.histogram,
                &reference.histogram,
                &format!("{name}/{}", b.name()),
            );
        }
    }
}

/// Send-V's reducers sum integer counts — exact in any order — and its
/// Close hook runs the sorted-run sparse transform, which evaluates the
/// dense pass's own butterfly (`haar::pair`) over that same frequency
/// vector: it must equal `Centralized` **bit for bit**, at any reducer
/// count, rounding dust included once `k` passes the number of real
/// coefficients. Send-Coef and H-WTopk fold per-split *float*
/// coefficients instead: each `w_{i,j}` is bit-exact for its own split,
/// but `Σ_j w_{i,j}` rounds differently from the transform of the summed
/// counts, so those two are held to 1e-6, not to the bit.
#[test]
fn send_v_is_bit_identical_to_centralized_the_coefficient_folders_are_close() {
    let cluster = ClusterConfig::paper_cluster();
    for (name, ds) in datasets() {
        for k in [15usize, 512] {
            let reference = Centralized::new().build(&ds, &cluster, k).histogram;
            for reducers in [1u32, 8] {
                let engine = EngineConfig::default().with_reducers(reducers);
                let ctx = format!("{name}/k={k}/reducers={reducers}");
                let sv = SendV::new().with_engine(engine).build(&ds, &cluster, k);
                let bits = |h: &WaveletHistogram| -> Vec<(u64, u64)> {
                    let coefs = h.coefficients().iter();
                    coefs.map(|&(s, v)| (s, v.to_bits())).collect()
                };
                assert_eq!(bits(&sv.histogram), bits(&reference), "{ctx}: Send-V");
                if k > 15 {
                    // Past the real coefficients the folders' dust differs
                    // from the dense pass's even in count.
                    continue;
                }
                let sc = SendCoef::new().with_engine(engine).build(&ds, &cluster, k);
                assert_same(&sc.histogram, &reference, &format!("{ctx}/Send-Coef"));
                let hw = HWTopk::new().with_engine(engine).build(&ds, &cluster, k);
                assert_same(&hw.histogram, &reference, &format!("{ctx}/H-WTopk"));
            }
        }
    }
}

#[test]
fn agreement_across_k_values() {
    let cluster = ClusterConfig::paper_cluster();
    let ds = Dataset::zipf(8, 1.1, 20_000, 8);
    for k in [1usize, 2, 7, 30, 200] {
        let reference = Centralized::new().build(&ds, &cluster, k);
        let hw = HWTopk::new().build(&ds, &cluster, k);
        assert_same(&hw.histogram, &reference.histogram, &format!("k={k}"));
    }
}

#[test]
fn agreement_across_split_counts() {
    let cluster = ClusterConfig::paper_cluster();
    for m in [1u32, 2, 5, 31, 64] {
        let ds = Dataset::zipf(8, 1.1, 12_800, m);
        let reference = Centralized::new().build(&ds, &cluster, 10);
        let hw = HWTopk::new().build(&ds, &cluster, 10);
        assert_same(&hw.histogram, &reference.histogram, &format!("m={m}"));
    }
}

#[test]
fn exact_builders_are_deterministic() {
    let cluster = ClusterConfig::paper_cluster();
    let ds = Dataset::zipf(9, 1.1, 25_000, 9);
    for b in [
        Box::new(SendV::new()) as Box<dyn HistogramBuilder>,
        Box::new(HWTopk::new()),
    ] {
        let a = b.build(&ds, &cluster, 12);
        let c = b.build(&ds, &cluster, 12);
        assert_eq!(a.histogram, c.histogram, "{}", b.name());
        assert_eq!(a.metrics, c.metrics, "{} metrics", b.name());
    }
}

#[test]
fn histogram_queries_match_reconstruction_on_real_data() {
    let cluster = ClusterConfig::paper_cluster();
    let ds = Dataset::zipf(8, 1.1, 20_000, 8);
    let r = HWTopk::new().build(&ds, &cluster, 20);
    let recon = r.histogram.reconstruct();
    for x in (0..256u64).step_by(17) {
        let p = r.histogram.point_estimate(x);
        assert!((p - recon[x as usize]).abs() < 1e-9);
    }
    let total: f64 = recon.iter().sum();
    assert!((r.histogram.range_sum(0, 255) - total).abs() < 1e-6);
}
