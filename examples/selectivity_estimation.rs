//! Selectivity estimation: the original application of wavelet histograms
//! (Matias, Vitter, Wang — SIGMOD'98) and the paper's motivating use case:
//! a query optimiser asks "what fraction of records has key in [a, b]?"
//! and the histogram answers from k coefficients instead of a scan.
//!
//! This example runs the full build→serve dataflow: build the histogram
//! on the MapReduce engine, **compile** it into the `wh-query` serving
//! form, then answer predicates one at a time and as a batch (the two
//! paths are bit-identical; the batch path is how a serving tier handles
//! heavy traffic). See `docs/architecture.md` for the subsystem map.
//!
//! ```text
//! cargo run --release --example selectivity_estimation
//! ```

use wavelet_hist::builders::{HistogramBuilder, TwoLevelS};
use wavelet_hist::data::{DatasetBuilder, Distribution};
use wavelet_hist::mapreduce::ClusterConfig;
use wavelet_hist::query::{BatchScratch, CompiledHistogram};
use wavelet_hist::wavelet::Domain;

fn main() {
    let dataset = DatasetBuilder::new()
        .domain(Domain::new(16).expect("valid domain"))
        .distribution(Distribution::Zipf { alpha: 1.1 })
        .records(1 << 21)
        .splits(32)
        .seed(7)
        .build();
    let cluster = ClusterConfig::paper_cluster();
    let n = dataset.num_records();

    // Build once with the cheap one-round sampler…
    let result = TwoLevelS::new(8e-3, 1).build(&dataset, &cluster, 40);
    let hist = &result.histogram;
    println!(
        "histogram built: {} coefficients, {} bytes communicated, {:.1}s simulated",
        hist.len(),
        result.metrics.total_comm_bytes(),
        result.metrics.sim_time_s
    );

    // …compile it for serving (one-time; queries never touch the
    // coefficient set again)…
    let compiled = CompiledHistogram::compile(hist);
    println!(
        "compiled for serving: {} piecewise-constant segments, estimated total {:.0}\n",
        compiled.num_segments(),
        compiled.total_estimate()
    );

    // …then answer many range predicates against ground truth.
    let truth = dataset.exact_frequency_vector();
    let true_sel = |lo: u64, hi: u64| -> f64 {
        truth[lo as usize..=hi as usize]
            .iter()
            .map(|&c| c as f64)
            .sum::<f64>()
            / n as f64
    };

    let u = dataset.domain().u();
    let predicates: Vec<(u64, u64)> = vec![
        (0, 63),            // the hot head of the Zipf distribution
        (0, u / 4 - 1),     // a quarter of the domain
        (u / 4, u / 2 - 1), // the lukewarm middle
        (u / 2, u - 1),     // the cold tail
        (100, 1_000),
        (u - 4_096, u - 1),
    ];

    // Serve the whole predicate list as one batch — endpoints sorted
    // once, segments walked once. A warm serving loop reuses the scratch
    // and output buffers, so nothing here allocates per batch.
    let mut scratch = BatchScratch::new();
    let mut estimates = vec![0.0; predicates.len()];
    compiled
        .try_selectivity_batch_into(&predicates, n, &mut scratch, &mut estimates)
        .unwrap();

    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12}",
        "lo", "hi", "true sel.", "est. sel.", "abs. error"
    );
    let mut worst: f64 = 0.0;
    for (&(lo, hi), &e) in predicates.iter().zip(&estimates) {
        let t = true_sel(lo, hi);
        worst = worst.max((t - e).abs());
        println!(
            "{lo:>10} {hi:>10} {t:>12.6} {e:>12.6} {:>12.6}",
            (t - e).abs()
        );
        // The batch answered exactly what single-query serving would.
        assert_eq!(
            e.to_bits(),
            compiled.try_selectivity(lo, hi, n).unwrap().to_bits()
        );
        // …which is the histogram's own estimate, up to segment-walk
        // float association.
        assert!((e - hist.selectivity(lo, hi, n)).abs() < 1e-9);
    }
    println!("\nworst absolute selectivity error: {worst:.6}");
    println!(
        "(the paper's guarantee: frequency error sd ≈ εn per key; range sums concentrate further)"
    );
}
