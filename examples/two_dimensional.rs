//! Two-dimensional wavelet histograms (§3/§4 "Multi-dimensional
//! wavelets"), end to end: build the 2-D histogram on the MapReduce
//! engine with the same builders as in 1-D (handing them a `Dataset2d`
//! is all it takes), compile it into the allocation-free rectangle-query
//! form, publish it through the epoch-swapped serving tier, and answer
//! batched range-selectivity queries. The run asserts the paper's 2-D
//! claims: the exact builders agree, and H-WTopk communicates less than
//! sending every local coefficient.
//!
//! ```text
//! cargo run --release --example two_dimensional
//! ```

use wavelet_hist::builders::{Centralized, HWTopk, HistogramBuilder, SendCoef, TwoLevelS};
use wavelet_hist::data::twod::{Dataset2d, Distribution2d};
use wavelet_hist::mapreduce::metrics::human_bytes;
use wavelet_hist::mapreduce::ClusterConfig;
use wavelet_hist::query::CompiledHistogram2D;
use wavelet_hist::serve::ServeTier;
use wavelet_hist::wavelet::Domain;

fn main() {
    // A diagonal band: x Zipf-distributed, y within ±4 of x — correlated
    // dimensions where 1-D marginals would lose the structure.
    let dataset = Dataset2d::new(
        Domain::new(7).expect("valid domain"),
        Distribution2d::Correlated {
            alpha: 1.1,
            spread: 4,
        },
        1 << 19,
        16,
        11,
    );
    let cluster = ClusterConfig::paper_cluster();
    let k = 48;

    println!(
        "2-D dataset: {} records over [2^7]² cells, {} splits\n",
        dataset.num_records(),
        dataset.num_splits()
    );

    let exact = Centralized::new().build(&dataset, &cluster, k);
    let send_coef = SendCoef::new().build(&dataset, &cluster, k);
    let hw = HWTopk::new().build(&dataset, &cluster, k);
    let tl = TwoLevelS::new(0.02, 9).build(&dataset, &cluster, k);

    println!(
        "{:<16} {:>12} {:>12} {:>10}",
        "method", "comm", "scanned", "time"
    );
    for (name, r) in [
        ("Centralized", &exact),
        ("Send-Coef", &send_coef),
        ("H-WTopk", &hw),
        ("TwoLevel-S", &tl),
    ] {
        println!(
            "{name:<16} {:>12} {:>12} {:>9.1}s",
            human_bytes(r.metrics.total_comm_bytes()),
            r.metrics.records_scanned,
            r.metrics.sim_time_s,
        );
    }
    let s = send_coef.metrics.reduce_strategies;
    println!(
        "\nSend-Coef reduce partitions: {} dense / {} sorted / {} merged — at \
         this [2^7]² domain the coefficient-address bound is above the \
         dense-table ceiling, so the engine falls back to sort/merge; at \
         [2^6]² and below it reduces densely",
        s.dense_reduce, s.sort_at_reduce, s.merge
    );

    // The exact distributed builders retain the centralized top-k.
    // Magnitudes are compared rank by rank: the band is symmetric, so
    // several coefficients tie exactly and float summation order decides
    // which of them a builder ranks (or cuts at k) first.
    let want = exact.histogram.coefficients();
    for (name, r) in [("Send-Coef", &send_coef), ("H-WTopk", &hw)] {
        let got = r.histogram.coefficients();
        assert_eq!(got.len(), want.len(), "{name}");
        for (g, w) in got.iter().zip(want) {
            assert!(
                (g.1.abs() - w.1.abs()).abs() < 1e-6,
                "{name}: {g:?} vs {w:?}"
            );
        }
    }
    assert_eq!(hw.metrics.rounds, 3);
    assert!(
        hw.metrics.total_comm_bytes() < send_coef.metrics.total_comm_bytes(),
        "H-WTopk must communicate less than Send-Coef"
    );
    println!("Send-Coef and H-WTopk match the centralized top-{k} magnitudes within 1e-6");

    // Serve it: compile to the summed-area form, publish to the tier,
    // and answer rectangle selectivities through a handle — the shape a
    // query optimizer's cardinality probe takes.
    let compiled = CompiledHistogram2D::compile(&send_coef.histogram);
    let tier = ServeTier::new(4);
    let n = dataset.num_records();
    tier.publish2d(1, &compiled, n);
    let mut handle = tier.handle();

    let u = dataset.domain().u();
    let truth = dataset.exact_frequency_array();
    let queries = [
        (0u64, 15u64, 0u64, 15u64), // dense corner of the band
        (0, u - 1, 0, u - 1),       // everything
        (32, 47, 30, 49),           // mid-band window
        (90, 110, 0, 20),           // off-diagonal: near-empty
    ];
    let mut sums = vec![0.0; queries.len()];
    handle
        .try_rectangle_sum_batch_into(1, &queries, &mut sums)
        .expect("published dataset");

    println!("\nrectangle selectivity (served vs exact):");
    for (&(xlo, xhi, ylo, yhi), &est) in queries.iter().zip(&sums) {
        let mut brute = 0u64;
        for x in xlo..=xhi {
            for y in ylo..=yhi {
                brute += truth[(x * u + y) as usize];
            }
        }
        println!(
            "  [{xlo:>3},{xhi:>3}]x[{ylo:>3},{yhi:>3}]  est {:>8.4}%   exact {:>8.4}%",
            100.0 * est / n as f64,
            100.0 * brute as f64 / n as f64,
        );
    }

    // Probe the density structure through the sampled histogram.
    println!("\ncell density estimates (TwoLevel-S vs exact):");
    for (x, y) in [(0u64, 0u64), (0, 4), (5, 5), (40, 44), (90, 20)] {
        let t = truth[(x * u + y) as usize];
        let e = tl.histogram.point_estimate(x, y);
        println!("  v({x:>3},{y:>3}) = {t:>8}   estimate {e:>10.1}");
    }
    println!("\n(on-diagonal cells are dense, off-diagonal empty — the sparse-data\n regime §4 warns about: relative error grows as density falls)");
}
