//! Incremental maintenance: keep a serving histogram fresh under
//! streaming arrivals without ever rebuilding from scratch.
//!
//! The PR 9 freshness loop, end to end: seed a `MaintainedHistogram`
//! from the base splits (bit-identical to a from-scratch `Centralized`
//! build), publish its compiled snapshot to a `ServeTier`, then absorb
//! each remaining split as a delta — `O(d·log u)` per segment instead of
//! the full `O(n + u)` scan-and-transform — recompile the snapshot in
//! place, and republish at `dataset_records + delta` so selectivities
//! stay relative to *all* data. After every refresh the served histogram
//! is bit-identical to what a full rebuild on the concatenated data
//! would have published.
//!
//! ```text
//! cargo run --release --example incremental_updates
//! ```

use std::time::Instant;

use wavelet_hist::builders::{Centralized, HistogramBuilder};
use wavelet_hist::data::{DatasetBuilder, Distribution};
use wavelet_hist::incremental::MaintainedHistogram;
use wavelet_hist::mapreduce::ClusterConfig;
use wavelet_hist::query::CompiledHistogram;
use wavelet_hist::serve::ServeTier;
use wavelet_hist::wavelet::Domain;

const DATASET: u32 = 3;
const K: usize = 32;
const BASE_SPLITS: u32 = 12;

fn main() {
    let dataset = DatasetBuilder::new()
        .domain(Domain::new(16).expect("valid domain"))
        .distribution(Distribution::Zipf { alpha: 1.1 })
        .records(1 << 20)
        .splits(16)
        .seed(9)
        .build();
    let u = dataset.domain().u();

    // Initial build: absorb the base splits and publish.
    let start = Instant::now();
    let mut maintained = MaintainedHistogram::new(dataset.domain(), K);
    for j in 0..BASE_SPLITS {
        maintained.merge_split(&dataset, j);
    }
    let mut compiled = CompiledHistogram::compile(&maintained.snapshot());
    let tier = ServeTier::new(4);
    tier.publish(DATASET, &compiled, maintained.total_records());
    println!(
        "seeded from {BASE_SPLITS} splits ({} records, {} distinct keys) in {:?}",
        maintained.total_records(),
        maintained.distinct_keys(),
        start.elapsed()
    );

    // Streaming phase: each remaining split arrives as a delta segment.
    for j in BASE_SPLITS..dataset.num_splits() {
        let before = maintained.total_records();
        let t = Instant::now();
        maintained.merge_split(&dataset, j);
        let delta_records = maintained.total_records() - before;
        let records = tier.dataset_records(DATASET).expect("published") + delta_records;
        let generation = tier
            .try_publish(DATASET, records, || {
                compiled.recompile(&maintained.snapshot());
                Ok::<_, std::convert::Infallible>(compiled.clone())
            })
            .expect("refresh is infallible here");
        println!(
            "split {j}: +{delta_records} records merged and republished as gen {generation} in {:?}",
            t.elapsed()
        );
    }
    assert_eq!(tier.dataset_records(DATASET), Some(dataset.num_records()));

    // The served snapshot is bit-identical to a from-scratch exact build
    // on everything that has arrived.
    let t = Instant::now();
    let scratch = Centralized::new()
        .build(&dataset, &ClusterConfig::paper_cluster(), K)
        .histogram;
    let rebuild_time = t.elapsed();
    let reference = CompiledHistogram::compile(&scratch);
    let mut handle = tier.handle();
    for x in (0..u).step_by(1013) {
        let served = handle.try_point_estimate(DATASET, x).expect("served");
        assert_eq!(
            served.to_bits(),
            reference.try_point_estimate(x).unwrap().to_bits()
        );
    }
    let sel = handle.try_selectivity(DATASET, 0, u / 2).expect("served");
    println!(
        "\nserved answers are bit-identical to a full rebuild (which took {rebuild_time:?}); \
         sel[0, u/2] = {sel:.6}"
    );
}
