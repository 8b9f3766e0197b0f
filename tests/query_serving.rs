//! Query-serving suite: the compiled read path (`wh-query`) against
//! brute-force ground truth, across every builder and two data shapes.
//!
//! Three contracts are pinned:
//!
//! * **Fidelity** — a compiled histogram serves exactly the function its
//!   coefficient set reconstructs to: point estimates equal the dense
//!   reconstruction, range sums equal the reconstruction's partial sums.
//! * **Error bounds** — against the true frequency vector, every point
//!   estimate errs by at most `√SSE` and every range sum by at most
//!   `√(len · SSE)` (Cauchy–Schwarz over the per-key error vector, whose
//!   energy is the histogram's SSE). For the exact builders, that SSE
//!   itself equals `Σv² − Σŵ²` by Parseval — the retained-coefficient
//!   energy accounts for all of it.
//! * **Bit-identity** — batched serving returns, bit for bit, the
//!   answers one-at-a-time serving returns, for range sums,
//!   selectivities, and point estimates, including from multiple threads
//!   sharing one compiled histogram.

use wavelet_hist::builders::{
    BasicS, HWTopk, HistogramBuilder, ImprovedS, SendCoef, SendSketch, SendV, TwoLevelS,
};
use wavelet_hist::data::{Dataset, DatasetBuilder, Distribution};
use wavelet_hist::mapreduce::ClusterConfig;
use wavelet_hist::query::{BatchScratch, CompiledHistogram};
use wavelet_hist::wavelet::Domain;

const K: usize = 24;

fn builders() -> Vec<(&'static str, Box<dyn HistogramBuilder>)> {
    let eps = 0.02;
    vec![
        ("Send-V", Box::new(SendV::new())),
        ("Send-Coef", Box::new(SendCoef::new())),
        ("H-WTopk", Box::new(HWTopk::new())),
        ("Basic-S", Box::new(BasicS::new(eps, 3))),
        ("Improved-S", Box::new(ImprovedS::new(eps, 3))),
        ("TwoLevel-S", Box::new(TwoLevelS::new(eps, 3))),
        ("Send-Sketch", Box::new(SendSketch::new(5))),
    ]
}

/// The exact builders retain the true top-k coefficients, so their SSE
/// is exactly the dropped-coefficient energy (Parseval).
fn is_exact(name: &str) -> bool {
    matches!(name, "Send-V" | "Send-Coef" | "H-WTopk")
}

fn zipf_dataset() -> Dataset {
    DatasetBuilder::new()
        .domain(Domain::new(10).expect("valid domain"))
        .distribution(Distribution::Zipf { alpha: 1.1 })
        .records(60_000)
        .splits(8)
        .seed(0x51e1)
        .build()
}

fn worldcup_dataset() -> Dataset {
    DatasetBuilder::new()
        .domain(Domain::new(10).expect("valid domain"))
        .distribution(Distribution::WorldCup)
        .records(60_000)
        .splits(8)
        .seed(0x77c8)
        .build()
}

fn scramble(x: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 27)
}

fn range_queries(u: u64, count: usize, seed: u64) -> Vec<(u64, u64)> {
    (0..count as u64)
        .map(|i| {
            let lo = scramble(i ^ seed) % u;
            let hi = lo + scramble(i ^ seed ^ 0xc0ffee) % (u - lo);
            (lo, hi)
        })
        .collect()
}

/// Fidelity + error bounds for one built histogram on one dataset.
fn check_estimates(name: &str, ds: &Dataset, compiled: &CompiledHistogram) {
    let truth = ds.exact_frequency_vector();
    let u = compiled.domain().u();
    assert_eq!(truth.len(), u as usize, "{name}: truth length");
    let hist_recon: Vec<f64> = {
        // Reconstruct via the compiled form itself: every key's point
        // estimate. (Checked against the dense inverse transform in
        // `check_dataset`.)
        (0..u)
            .map(|x| compiled.try_point_estimate(x).unwrap())
            .collect()
    };

    // SSE of this estimator against the true frequencies.
    let sse: f64 = hist_recon
        .iter()
        .zip(&truth)
        .map(|(&e, &t)| (e - t as f64) * (e - t as f64))
        .sum();

    // Point estimates: bounded by √SSE against truth.
    let point_bound = sse.sqrt() * (1.0 + 1e-9) + 1e-6;
    for x in 0..u {
        let err = (compiled.try_point_estimate(x).unwrap() - truth[x as usize] as f64).abs();
        assert!(
            err <= point_bound,
            "{name}: point {x} err {err} > √SSE {point_bound}"
        );
    }

    // Range sums: equal to the reconstruction's partial sums (fidelity)
    // and within √(len·SSE) of the true partial sums (Cauchy–Schwarz).
    let scale = truth.iter().map(|&t| t as f64).sum::<f64>().max(1.0);
    for &(lo, hi) in &range_queries(u, 400, 0xab) {
        let est = compiled.try_range_sum(lo, hi).unwrap();
        let recon_sum: f64 = hist_recon[lo as usize..=hi as usize].iter().sum();
        assert!(
            (est - recon_sum).abs() <= 1e-9 * (1.0 + scale),
            "{name}: [{lo},{hi}] serve {est} vs reconstruction {recon_sum}"
        );
        let brute: f64 = truth[lo as usize..=hi as usize]
            .iter()
            .map(|&t| t as f64)
            .sum();
        let len = (hi - lo + 1) as f64;
        let bound = (len * sse).sqrt() * (1.0 + 1e-9) + 1e-6;
        assert!(
            (est - brute).abs() <= bound,
            "{name}: [{lo},{hi}] err {} > √(len·SSE) {bound}",
            (est - brute).abs()
        );
    }
}

/// Parseval: an exact builder's SSE is exactly the dropped energy.
fn check_parseval(name: &str, ds: &Dataset, hist: &wavelet_hist::WaveletHistogram) {
    let truth: Vec<f64> = ds
        .exact_frequency_vector()
        .into_iter()
        .map(|t| t as f64)
        .collect();
    let recon = hist.reconstruct();
    let sse: f64 = recon
        .iter()
        .zip(&truth)
        .map(|(&e, &t)| (e - t) * (e - t))
        .sum();
    let total_energy: f64 = wavelet_hist::wavelet::haar::energy(&truth);
    let dropped = total_energy - hist.retained_energy();
    assert!(
        (sse - dropped).abs() <= 1e-6 * (1.0 + total_energy.abs()),
        "{name}: SSE {sse} vs dropped energy {dropped}"
    );
}

fn check_dataset(ds: &Dataset) {
    let cluster = ClusterConfig::paper_cluster();
    for (name, builder) in builders() {
        let hist = builder.build(ds, &cluster, K).histogram;
        let compiled = CompiledHistogram::compile(&hist);
        assert_eq!(compiled.domain(), hist.domain());
        assert!(compiled.num_segments() <= 3 * hist.len() + 1, "{name}");

        // The compiled form serves exactly what the histogram's error
        // tree answers (up to float association) — both are views of the
        // same coefficient set.
        let recon = hist.reconstruct();
        for x in 0..ds.domain().u() {
            let c = compiled.try_point_estimate(x).unwrap();
            let r = recon[x as usize];
            assert!(
                (c - r).abs() <= 1e-9 * (1.0 + r.abs()),
                "{name}: key {x}: compiled {c} vs reconstruction {r}"
            );
        }

        check_estimates(name, ds, &compiled);
        if is_exact(name) {
            check_parseval(name, ds, &hist);
        }
    }
}

#[test]
fn estimates_bounded_on_zipf_for_every_builder() {
    check_dataset(&zipf_dataset());
}

#[test]
fn estimates_bounded_on_worldcup_for_every_builder() {
    check_dataset(&worldcup_dataset());
}

#[test]
fn batched_serving_is_bit_identical_for_every_builder() {
    let ds = zipf_dataset();
    let cluster = ClusterConfig::paper_cluster();
    let n = ds.num_records();
    let u = ds.domain().u();
    let queries = range_queries(u, 700, 0x5eed);
    let keys: Vec<u64> = (0..500u64).map(|i| scramble(i) % u).collect();
    for (name, builder) in builders() {
        let hist = builder.build(&ds, &cluster, K).histogram;
        let compiled = CompiledHistogram::compile(&hist);
        let mut scratch = BatchScratch::new();

        let mut sums = vec![0.0; queries.len()];
        compiled
            .try_range_sum_batch_into(&queries, &mut scratch, &mut sums)
            .unwrap();
        let mut sels = vec![0.0; queries.len()];
        compiled
            .try_selectivity_batch_into(&queries, n, &mut scratch, &mut sels)
            .unwrap();
        for ((&(lo, hi), &sum), &sel) in queries.iter().zip(&sums).zip(&sels) {
            assert_eq!(
                sum.to_bits(),
                compiled.try_range_sum(lo, hi).unwrap().to_bits(),
                "{name}: [{lo},{hi}]"
            );
            assert_eq!(
                sel.to_bits(),
                compiled.try_selectivity(lo, hi, n).unwrap().to_bits(),
                "{name}: [{lo},{hi}]"
            );
        }
        let mut points = vec![0.0; keys.len()];
        compiled
            .try_point_estimate_batch_into(&keys, &mut scratch, &mut points)
            .unwrap();
        for (&x, &p) in keys.iter().zip(&points) {
            assert_eq!(
                p.to_bits(),
                compiled.try_point_estimate(x).unwrap().to_bits(),
                "{name}"
            );
        }
    }
}

/// One `BatchScratch` recycled across *different* compiled histograms —
/// different builders, segment counts, and domains — interleaved in
/// every order. The serve tier recycles a handle's scratch across shard
/// snapshots and datasets, so no state (endpoint buffers, sort
/// histograms, prefix slots) may leak from one histogram's batch into
/// the next: every answer must stay bit-equal to one computed with a
/// fresh scratch.
#[test]
fn scratch_reuse_across_different_histograms_leaks_nothing() {
    let cluster = ClusterConfig::paper_cluster();
    // Three genuinely different compiled forms: different domains (2^10
    // vs 2^6), record counts, builders, and retention (segment counts).
    let big = zipf_dataset();
    let small = DatasetBuilder::new()
        .domain(Domain::new(6).expect("valid domain"))
        .distribution(Distribution::Zipf { alpha: 1.2 })
        .records(9_000)
        .splits(4)
        .seed(0xcafe)
        .build();
    let compiled: Vec<(CompiledHistogram, u64)> = vec![
        (
            CompiledHistogram::compile(&TwoLevelS::new(0.02, 3).build(&big, &cluster, K).histogram),
            big.num_records(),
        ),
        (
            CompiledHistogram::compile(&SendV::new().build(&small, &cluster, 5).histogram),
            small.num_records(),
        ),
        (
            CompiledHistogram::compile(&HWTopk::new().build(&big, &cluster, 7).histogram),
            big.num_records(),
        ),
    ];
    let seg_counts: Vec<usize> = compiled.iter().map(|(c, _)| c.num_segments()).collect();
    assert!(
        seg_counts.windows(2).all(|w| w[0] != w[1]),
        "histograms must differ structurally for this test to bite: {seg_counts:?}"
    );

    let mut shared = BatchScratch::new();
    // Visit the histograms in a scrambled order, twice each per round,
    // so every (previous, next) pair of structures occurs.
    for round in 0..3u64 {
        for step in 0..6u64 {
            let which = (scramble(round * 6 + step) % compiled.len() as u64) as usize;
            let (c, n) = &compiled[which];
            let u = c.domain().u();
            let queries = range_queries(u, 150 + 50 * which, round * 31 + step);
            let keys: Vec<u64> = (0..100u64).map(|i| scramble(i ^ step) % u).collect();

            let mut got = vec![0.0; queries.len()];
            c.try_selectivity_batch_into(&queries, *n, &mut shared, &mut got)
                .unwrap();
            let mut fresh = vec![0.0; queries.len()];
            c.try_selectivity_batch_into(&queries, *n, &mut BatchScratch::new(), &mut fresh)
                .unwrap();
            for (i, (a, b)) in fresh.iter().zip(&got).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "round {round} step {step} hist {which} sel {i}"
                );
            }
            let mut got_pts = vec![0.0; keys.len()];
            c.try_point_estimate_batch_into(&keys, &mut shared, &mut got_pts)
                .unwrap();
            for (&x, &p) in keys.iter().zip(&got_pts) {
                assert_eq!(
                    p.to_bits(),
                    c.try_point_estimate(x).unwrap().to_bits(),
                    "round {round} step {step} hist {which} key {x}"
                );
            }
        }
    }
}

/// The serving contract of the north star: one immutable compiled
/// histogram, shared by reference across a thread-per-core pool, every
/// thread answering with its own scratch — and every answer bit-equal
/// to single-threaded serving.
#[test]
fn compiled_histogram_serves_concurrently() {
    let ds = zipf_dataset();
    let cluster = ClusterConfig::paper_cluster();
    let hist = TwoLevelS::new(0.02, 3).build(&ds, &cluster, K).histogram;
    let compiled = CompiledHistogram::compile(&hist);
    let u = ds.domain().u();
    let queries = range_queries(u, 4_000, 0xfeed);

    let mut expect = vec![0.0; queries.len()];
    compiled
        .try_range_sum_batch_into(&queries, &mut BatchScratch::new(), &mut expect)
        .unwrap();

    let threads = 4;
    let chunk = queries.len().div_ceil(threads);
    let mut got = vec![0.0; queries.len()];
    let compiled_ref = &compiled;
    std::thread::scope(|s| {
        for (qs, outs) in queries.chunks(chunk).zip(got.chunks_mut(chunk)) {
            s.spawn(move || {
                compiled_ref
                    .try_range_sum_batch_into(qs, &mut BatchScratch::new(), outs)
                    .unwrap();
            });
        }
    });
    for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "query {i}");
    }
}
