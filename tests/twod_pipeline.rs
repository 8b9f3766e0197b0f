//! 2-D histograms through the whole pipeline: the engine-built 2-D
//! builds against their references, the compiled rectangle-query form
//! against brute-force truth, and 2-D serving through the epoch-swapped
//! tier.
//!
//! Four contracts are pinned:
//!
//! * **Differential build** — a 2-D build is the 1-D builder over the
//!   standard-decomposition basis, so each builder is held to its 1-D
//!   contract: Send-Coef equals the sequential `twod.rs` reference and
//!   Send-V equals `Centralized` **bit for bit**, H-WTopk retains
//!   `Centralized`'s slots with values within 1e-6, TwoLevel-S is
//!   bit-identical to itself — across {dense-reduce, sort-at-reduce} ×
//!   {1, 2, 8} reducers × {1, 4} threads × the reference engine, and (on
//!   unix) across forked multi-process workers carrying the packed
//!   coefficient addresses over the wire on both routes.
//! * **Error bounds** — against the exact 2-D frequency array, every
//!   cell estimate errs by at most `√SSE` and every rectangle sum by at
//!   most `√(area · SSE)` (Cauchy–Schwarz over the per-cell error grid);
//!   the SSE itself equals the dropped-coefficient energy by Parseval
//!   (the nonseparable 2-D transform is orthonormal), and full retention
//!   reconstructs the data exactly.
//! * **Bit-identity of serving** — batched rectangle queries equal
//!   one-at-a-time queries bit for bit, and the epoch-swapped tier
//!   equals direct compiled serving bit for bit, across republishes and
//!   from concurrent reader threads.
//! * **Data shapes** — all of the above on correlated 2-D Zipf and on
//!   WorldCup-style (time × object) data.

use wavelet_hist::builders::{Centralized, HWTopk, HistogramBuilder, SendCoef, SendV, TwoLevelS};
use wavelet_hist::data::twod::{Dataset2d, Distribution2d};
use wavelet_hist::mapreduce::{ClusterConfig, EngineConfig, RunMetrics};
use wavelet_hist::query::{BatchScratch2D, CompiledHistogram2D};
use wavelet_hist::serve::{ServeError, ServeTier};
use wavelet_hist::twod::{sequential_send_coef2d, WaveletHistogram2d};
use wavelet_hist::wavelet::Domain;

const K: usize = 24;

/// Correlated 2-D Zipf over `[2^log_u]²`: mass in a diagonal band, most
/// cells empty.
fn zipf2d(log_u: u32) -> Dataset2d {
    Dataset2d::new(
        Domain::new(log_u).unwrap(),
        Distribution2d::Correlated {
            alpha: 1.1,
            spread: 2,
        },
        24_000,
        8,
        0x2d10,
    )
}

/// WorldCup-style time × object over `[2^log_u]²`: Zipf(1.05) objects
/// bursting at per-object phases in time.
fn worldcup2d(log_u: u32) -> Dataset2d {
    Dataset2d::new(
        Domain::new(log_u).unwrap(),
        Distribution2d::WorldCup,
        20_000,
        6,
        0x10c,
    )
}

fn datasets(log_u: u32) -> Vec<(&'static str, Dataset2d)> {
    vec![("zipf2d", zipf2d(log_u)), ("worldcup2d", worldcup2d(log_u))]
}

fn scramble(x: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 27)
}

/// Seeded inclusive rectangles `(xlo, xhi, ylo, yhi)` over `[u]²`.
fn random_rects(u: u64, count: usize, seed: u64) -> Vec<(u64, u64, u64, u64)> {
    (0..count as u64)
        .map(|i| {
            let xlo = scramble(seed ^ i) % u;
            let xhi = xlo + scramble(seed ^ i ^ 0xaaaa) % (u - xlo);
            let ylo = scramble(seed ^ i ^ 0x5555) % u;
            let yhi = ylo + scramble(seed ^ i ^ 0xffff) % (u - ylo);
            (xlo, xhi, ylo, yhi)
        })
        .collect()
}

fn assert_coefs_eq(got: &WaveletHistogram2d, want: &WaveletHistogram2d, ctx: &str) {
    assert_eq!(
        got.coefficients().len(),
        want.coefficients().len(),
        "coefficient count diverged: {ctx}"
    );
    for (g, w) in got.coefficients().iter().zip(want.coefficients()) {
        assert_eq!(g.0, w.0, "slot diverged: {ctx}");
        assert_eq!(
            g.1.to_bits(),
            w.1.to_bits(),
            "value diverged at slot {}: {ctx}",
            g.0
        );
    }
}

/// The engine-built 2-D builders of the differential, at one engine
/// configuration.
fn builders(engine: EngineConfig) -> Vec<Box<dyn HistogramBuilder<Dataset2d>>> {
    vec![
        Box::new(SendCoef::new().with_engine(engine)),
        Box::new(SendV::new().with_engine(engine)),
        Box::new(HWTopk::new().with_engine(engine)),
        Box::new(TwoLevelS::new(0.02, 5).with_engine(engine)),
    ]
}

/// What the exact builders are compared against, per dataset.
struct References {
    sequential: WaveletHistogram2d,
    centralized: WaveletHistogram2d,
}

impl References {
    fn of(ds: &Dataset2d) -> Self {
        Self {
            sequential: sequential_send_coef2d(ds, K),
            centralized: Centralized::new()
                .build(ds, &ClusterConfig::paper_cluster(), K)
                .histogram,
        }
    }

    /// Holds `got` to its builder's contract: Send-Coef folds per-split
    /// coefficients exactly as the sequential reference does; Send-V
    /// transforms the same exact counts `Centralized` does; H-WTopk sums
    /// floats in protocol order, so it is close to `Centralized`;
    /// TwoLevel-S has no exact reference (its callers pin it to itself).
    fn check(&self, builder: &str, got: &WaveletHistogram2d, ctx: &str) {
        match builder {
            "Send-Coef" => assert_coefs_eq(got, &self.sequential, ctx),
            "Send-V" => assert_coefs_eq(got, &self.centralized, ctx),
            "H-WTopk" => assert_same_top_k(got, &self.centralized, ctx),
            "TwoLevel-S" => assert!(!got.is_empty(), "{ctx}"),
            other => panic!("no contract for {other}"),
        }
    }
}

/// Two exact top-k selections whose sums were folded in different float
/// orders: magnitudes agree rank by rank, a slot both retain has the same
/// value, and a slot only one retains ties with the k-th magnitude (the
/// correlated band is symmetric, so coefficients tie exactly and summation
/// order decides which side of the cut a tied slot lands on) — all to 1e-6.
fn assert_same_top_k(got: &WaveletHistogram2d, want: &WaveletHistogram2d, ctx: &str) {
    let (got, want) = (got.coefficients(), want.coefficients());
    assert_eq!(got.len(), want.len(), "{ctx}");
    for (g, w) in got.iter().zip(want) {
        assert!(
            (g.1.abs() - w.1.abs()).abs() < 1e-6,
            "{g:?} vs {w:?}: {ctx}"
        );
    }
    let kth = want.last().map_or(0.0, |w| w.1.abs());
    for g in got {
        match want.iter().find(|w| w.0 == g.0) {
            Some(w) => assert!((g.1 - w.1).abs() < 1e-6, "{g:?} vs {w:?}: {ctx}"),
            None => assert!((g.1.abs() - kth).abs() < 1e-6, "{g:?} not retained: {ctx}"),
        }
    }
}

/// Tentpole differential: every engine-built 2-D histogram meets its
/// builder's contract and is bit-identical to itself on every reduce
/// route, reducer count, thread count, and engine — and the route
/// really varies with the domain: at `log_u = 5` the tight
/// `row << 16 | col` key-domain hint fits the engine's dense-domain cap
/// and selects dense-reduce, at `log_u = 7` it does not and every
/// partition sorts at reduce.
#[test]
fn engine_built_matches_sequential_reference_across_strategies() {
    let cluster = ClusterConfig::paper_cluster();
    for log_u in [5u32, 7] {
        for (name, ds) in datasets(log_u) {
            let refs = References::of(&ds);
            for b in 0..builders(EngineConfig::default()).len() {
                let mut first: Option<WaveletHistogram2d> = None;
                for reducers in [1u32, 2, 8] {
                    let mut metrics: Option<RunMetrics> = None;
                    for threads in [1usize, 4] {
                        let engines = [
                            EngineConfig::pipelined()
                                .with_reducers(reducers)
                                .with_map_parallelism(threads)
                                .with_reducer_parallelism(threads),
                            EngineConfig::reference().with_reducers(reducers),
                        ];
                        for (e, engine) in engines.into_iter().enumerate() {
                            let builder = builders(engine).swap_remove(b);
                            let ctx = format!(
                                "{} {name} log_u={log_u} r={reducers} t={threads} engine={e}",
                                builder.name()
                            );
                            let got = builder.build(&ds, &cluster, K);
                            refs.check(builder.name(), &got.histogram, &ctx);
                            let first = first.get_or_insert_with(|| got.histogram.clone());
                            assert_coefs_eq(&got.histogram, first, &ctx);
                            // The pipelined engine must really exercise the
                            // advertised route on every partition of
                            // every round (the reference engine does not
                            // plan routes).
                            if e == 0 {
                                let rounds = got.metrics.rounds;
                                let got_s = got.metrics.reduce_strategies;
                                assert_eq!(got_s.total(), rounds * reducers, "{ctx}");
                                if log_u <= 6 {
                                    assert_eq!(got_s.dense_reduce, got_s.total(), "{ctx}");
                                } else {
                                    assert_eq!(got_s.sort_at_reduce, got_s.total(), "{ctx}");
                                }
                            }
                            // Logical metrics agree across every execution.
                            match &metrics {
                                None => metrics = Some(got.metrics),
                                Some(m) => assert_eq!(*m, got.metrics, "metrics diverged: {ctx}"),
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The multi-process leg of the differential: forked map workers carry
/// the packed coefficient addresses (and, for H-WTopk, the per-split
/// state) over the wire bit-identically, with the framed traffic really
/// measured — at `log_u = 5`, where partitions reduce densely, and at
/// `log_u = 7`, where they sort the workers' unsorted runs at reduce.
#[cfg(unix)]
#[test]
fn engine_built_bit_identical_across_worker_processes() {
    let cluster = ClusterConfig::paper_cluster();
    for log_u in [5u32, 7] {
        let ds = zipf2d(log_u);
        let refs = References::of(&ds);
        for reducers in [1u32, 2, 8] {
            let in_process = builders(EngineConfig::default().with_reducers(reducers));
            for (b, in_process) in in_process.into_iter().enumerate() {
                let name = in_process.name();
                let ctx = format!("{name} log_u={log_u} r={reducers}");
                let in_process = in_process.build(&ds, &cluster, K);
                refs.check(name, &in_process.histogram, &ctx);
                assert_eq!(
                    in_process.metrics.wire.frames, 0,
                    "in-process runs must not frame traffic"
                );
                for workers in [1usize, 2, 4] {
                    let engine = EngineConfig::multi_process()
                        .with_reducers(reducers)
                        .with_map_parallelism(workers);
                    let got = builders(engine).swap_remove(b).build(&ds, &cluster, K);
                    let ctx = format!("{ctx} w={workers}");
                    assert_coefs_eq(&got.histogram, &in_process.histogram, &ctx);
                    assert_eq!(got.metrics, in_process.metrics, "metrics diverged: {ctx}");
                    let routes = got.metrics.reduce_strategies;
                    let ran = if log_u <= 6 {
                        routes.dense_reduce
                    } else {
                        routes.sort_at_reduce
                    };
                    assert_eq!(ran, routes.total(), "{ctx}");
                    assert!(got.metrics.bytes_on_wire() > 0, "{ctx}");
                    assert_eq!(
                        got.metrics.wire.pair_bytes, got.metrics.shuffle_bytes,
                        "every shuffled pair crosses the wire exactly once: {ctx}"
                    );
                }
            }
        }
    }
}

/// The per-axis width at which a coefficient address stops fitting
/// `row << 16 | col`: on both sides of it every builder builds — through
/// `try_build`, so a failure would be a typed error, not a panic — and
/// meets the same contract as on the small domains.
#[test]
fn builds_on_both_sides_of_the_16_bit_address_boundary() {
    let cluster = ClusterConfig::paper_cluster();
    for log_u in [16u32, 17] {
        let ds = Dataset2d::new(
            Domain::new(log_u).unwrap(),
            Distribution2d::Correlated {
                alpha: 1.1,
                spread: 2,
            },
            600,
            2,
            0x2d10,
        );
        let refs = References::of(&ds);
        for builder in builders(EngineConfig::default().with_reducers(2)) {
            let ctx = format!("{} log_u={log_u}", builder.name());
            let got = builder.try_build(&ds, &cluster, K).expect(&ctx);
            refs.check(builder.name(), &got.histogram, &ctx);
        }
    }
}

/// The paper's two 2-D claims, on engine-built results: H-WTopk ships
/// far fewer pairs than sending every non-zero local coefficient
/// (Send-Coef's map output), and TwoLevel-S recovers the total mass from
/// a fraction of the records.
#[test]
fn hwtopk_prunes_and_two_level_samples_in_2d() {
    let cluster = ClusterConfig::paper_cluster();
    let ds = Dataset2d::new(
        Domain::new(5).unwrap(),
        Distribution2d::Correlated {
            alpha: 1.1,
            spread: 2,
        },
        30_000,
        6,
        17,
    );
    let send_all = SendCoef::new().build(&ds, &cluster, 10).metrics;
    let hw = HWTopk::new().build(&ds, &cluster, 10).metrics;
    assert_eq!(hw.rounds, 3);
    assert!(
        hw.map_output_pairs < send_all.map_output_pairs / 2,
        "tput pairs {} vs send-all {}",
        hw.map_output_pairs,
        send_all.map_output_pairs
    );
    assert!(hw.total_comm_bytes() < send_all.total_comm_bytes());

    // Total mass through the top coefficient (the 2-D average): slot
    // (0, 0) packs to 0.
    let average = |h: &WaveletHistogram2d| {
        let found = h.coefficients().iter().find(|&&(s, _)| s == 0);
        found.map_or(0.0, |&(_, v)| v)
    };
    let exact = Centralized::new().build(&ds, &cluster, 64);
    let approx = TwoLevelS::new(0.02, 5).build(&ds, &cluster, 64);
    let (exact_avg, approx_avg) = (average(&exact.histogram), average(&approx.histogram));
    assert!(
        (exact_avg - approx_avg).abs() < 0.25 * exact_avg.abs().max(1.0),
        "avg {approx_avg} vs exact {exact_avg}"
    );
    assert!(approx.metrics.records_scanned < ds.num_records() / 2);
}

/// Shared truth for the error-bound legs: the estimate grid, its SSE
/// against the exact frequency array, and the exact array itself.
fn estimate_grid(compiled: &CompiledHistogram2D, truth: &[u64], u: u64) -> (Vec<f64>, f64) {
    let mut est = vec![0.0f64; (u * u) as usize];
    let mut sse = 0.0f64;
    for x in 0..u {
        for y in 0..u {
            let idx = (x * u + y) as usize;
            let e = compiled.try_point_estimate(x, y).unwrap();
            est[idx] = e;
            let d = e - truth[idx] as f64;
            sse += d * d;
        }
    }
    (est, sse)
}

/// Error bounds of the compiled 2-D estimates against brute force:
/// `√SSE` per cell, `√(area · SSE)` per rectangle (Cauchy–Schwarz), and
/// the SSE itself equals the dropped-coefficient energy (Parseval).
#[test]
fn compiled_estimates_within_brute_force_bounds() {
    let cluster = ClusterConfig::paper_cluster();
    for (name, ds) in datasets(5) {
        let u = ds.domain().u();
        let truth = ds.exact_frequency_array();
        let total_energy: f64 = truth.iter().map(|&c| (c as f64) * (c as f64)).sum();
        for k in [16usize, 64] {
            let result = SendCoef::new().build(&ds, &cluster, k);
            let compiled = CompiledHistogram2D::compile(&result.histogram);
            let (_, sse) = estimate_grid(&compiled, &truth, u);

            // Parseval: the transform is orthonormal and Send-Coef
            // retains the exact top-k coefficients, so the
            // reconstruction's SSE is exactly the dropped energy.
            let retained: f64 = result
                .histogram
                .coefficients()
                .iter()
                .map(|&(_, v)| v * v)
                .sum();
            let dropped = total_energy - retained;
            assert!(
                (sse - dropped).abs() <= 1e-6 * total_energy.max(1.0),
                "{name} k={k}: grid SSE {sse} vs dropped energy {dropped}"
            );

            // Point bound: |est − true| ≤ √SSE for every cell.
            let point_bound = sse.sqrt() * (1.0 + 1e-9) + 1e-6;
            for x in 0..u {
                for y in 0..u {
                    let err = (compiled.try_point_estimate(x, y).unwrap()
                        - truth[(x * u + y) as usize] as f64)
                        .abs();
                    assert!(
                        err <= point_bound,
                        "{name} k={k} ({x},{y}): error {err} > √SSE {point_bound}"
                    );
                }
            }

            // Rectangle bound: |est − true| ≤ √(area · SSE).
            for &(xlo, xhi, ylo, yhi) in &random_rects(u, 300, 0xbeef ^ k as u64) {
                let mut true_sum = 0u64;
                for x in xlo..=xhi {
                    for y in ylo..=yhi {
                        true_sum += truth[(x * u + y) as usize];
                    }
                }
                let est = compiled.try_rectangle_sum((xlo, xhi, ylo, yhi)).unwrap();
                let area = ((xhi - xlo + 1) * (yhi - ylo + 1)) as f64;
                let bound = (area * sse).sqrt() * (1.0 + 1e-9) + 1e-6;
                let err = (est - true_sum as f64).abs();
                assert!(
                    err <= bound,
                    "{name} k={k} [{xlo},{xhi}]x[{ylo},{yhi}]: error {err} > bound {bound}"
                );
                // Selectivity is the clamped normalized sum.
                let sel = compiled
                    .try_selectivity((xlo, xhi, ylo, yhi), ds.num_records())
                    .unwrap();
                assert!((0.0..=1.0).contains(&sel), "{name} k={k}: {sel}");
            }
        }
    }
}

/// Full retention reconstructs the data exactly: SSE ≈ 0 and every cell
/// estimate equals its true count.
#[test]
fn full_retention_reconstructs_exactly() {
    let cluster = ClusterConfig::paper_cluster();
    for (name, ds) in datasets(5) {
        let u = ds.domain().u();
        let truth = ds.exact_frequency_array();
        let k_full = (u * u) as usize;
        let result = SendCoef::new().build(&ds, &cluster, k_full);
        let compiled = CompiledHistogram2D::compile(&result.histogram);
        let (est, sse) = estimate_grid(&compiled, &truth, u);
        assert!(sse <= 1e-6, "{name}: full-retention SSE {sse}");
        for (idx, (&e, &t)) in est.iter().zip(&truth).enumerate() {
            assert!(
                (e - t as f64).abs() <= 1e-6,
                "{name} cell {idx}: {e} vs {t}"
            );
        }
    }
}

/// Batched rectangle serving is bit-identical to one-at-a-time serving,
/// including scratch reuse across batches and across different compiled
/// histograms.
#[test]
fn batched_rectangles_bit_identical_to_single() {
    let cluster = ClusterConfig::paper_cluster();
    let mut scratch = BatchScratch2D::new();
    for (name, ds) in datasets(5) {
        let u = ds.domain().u();
        let n = ds.num_records();
        let hist = SendCoef::new().build(&ds, &cluster, K).histogram;
        let compiled = CompiledHistogram2D::compile(&hist);
        let queries = random_rects(u, 500, 0x7777);
        let mut sums = vec![0.0; queries.len()];
        compiled
            .try_rectangle_sum_batch_into(&queries, &mut scratch, &mut sums)
            .unwrap();
        let mut sels = vec![0.0; queries.len()];
        compiled
            .try_selectivity_batch_into(&queries, n, &mut scratch, &mut sels)
            .unwrap();
        for (&q, (&sum, &sel)) in queries.iter().zip(sums.iter().zip(&sels)) {
            assert_eq!(
                sum.to_bits(),
                compiled.try_rectangle_sum(q).unwrap().to_bits(),
                "{name} {q:?}"
            );
            assert_eq!(
                sel.to_bits(),
                compiled.try_selectivity(q, n).unwrap().to_bits(),
                "{name} {q:?}"
            );
        }
    }
}

/// Epoch-swapped serving through the tier is bit-identical to direct
/// compiled serving — before and after a republish, including from
/// concurrent reader threads — and 2-D entries ride the same generation
/// counter as 1-D entries.
#[test]
fn tier_serving_bit_identical_to_direct() {
    let cluster = ClusterConfig::paper_cluster();
    let ds = zipf2d(5);
    let u = ds.domain().u();
    let n = ds.num_records();
    let coarse = CompiledHistogram2D::compile(&SendCoef::new().build(&ds, &cluster, 8).histogram);
    let fine = CompiledHistogram2D::compile(&SendCoef::new().build(&ds, &cluster, K).histogram);

    let tier = ServeTier::new(4);
    let gen = tier.publish2d(9, &coarse, n);
    assert_eq!(gen, 1);
    let queries = random_rects(u, 200, 0x51);

    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                let mut h = tier.handle();
                let mut out = vec![0.0; queries.len()];
                h.try_rectangle_sum_batch_into(9, &queries, &mut out)
                    .unwrap();
                for (&q, &got) in queries.iter().zip(&out) {
                    assert_eq!(
                        got.to_bits(),
                        coarse.try_rectangle_sum(q).unwrap().to_bits(),
                        "{q:?}"
                    );
                }
                h.try_rectangle_selectivity_batch_into(9, &queries, &mut out)
                    .unwrap();
                for (&q, &got) in queries.iter().zip(&out) {
                    assert_eq!(
                        got.to_bits(),
                        coarse.try_selectivity(q, n).unwrap().to_bits(),
                        "{q:?}"
                    );
                }
            });
        }
    });

    // Republish under a live handle: answers swap atomically.
    let mut h = tier.handle();
    let full = (0, u - 1, 0, u - 1);
    let before = h.try_rectangle_sum(9, full).unwrap();
    assert_eq!(
        before.to_bits(),
        coarse.try_rectangle_sum(full).unwrap().to_bits()
    );
    tier.publish2d(9, &fine, n);
    let after = h.try_rectangle_sum(9, full).unwrap();
    assert_eq!(
        after.to_bits(),
        fine.try_rectangle_sum(full).unwrap().to_bits()
    );
    assert_eq!(
        h.try_point_estimate2d(9, 3, 7).unwrap().to_bits(),
        fine.try_point_estimate(3, 7).unwrap().to_bits()
    );

    // Unknown datasets and malformed traffic are error values.
    assert_eq!(
        h.try_rectangle_sum(8, (0, 1, 0, 1)),
        Err(ServeError::UnknownDataset(8))
    );
    assert!(h.try_rectangle_sum(9, (0, 1, 0, u)).is_err());
    assert_eq!(tier.remove2d(9), Some(3));
    assert_eq!(
        h.try_rectangle_sum(9, (0, 1, 0, 1)),
        Err(ServeError::UnknownDataset(9))
    );
}
