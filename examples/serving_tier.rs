//! The serving tier: shard a compiled histogram across cores, serve
//! batched selectivities from epoch snapshots, and hot-swap a rebuilt
//! histogram underneath live reader threads.
//!
//! This example runs the full deployment loop the `wh-serve` crate
//! exists for: build two generations of a histogram on the MapReduce
//! engine, publish generation one to a `ServeTier`, drive concurrent
//! reader threads through per-thread `ServeHandle`s (lock-free on the
//! read path: one atomic epoch load per batch), then publish generation
//! two mid-traffic and watch every reader pick it up without blocking
//! or observing a torn snapshot. Malformed queries come back as values,
//! not panics — a bad predicate can never take down a serving thread.
//! See `docs/architecture.md` for the shard/route/merge/epoch-swap
//! dataflow.
//!
//! ```text
//! cargo run --release --example serving_tier
//! ```

use wavelet_hist::builders::{HistogramBuilder, SendV, TwoLevelS};
use wavelet_hist::data::{DatasetBuilder, Distribution};
use wavelet_hist::mapreduce::ClusterConfig;
use wavelet_hist::query::{CompiledHistogram, QueryError};
use wavelet_hist::serve::{ServeError, ServeTier};
use wavelet_hist::wavelet::Domain;

const DATASET: u32 = 7;
const READERS: usize = 4;

fn main() {
    let dataset = DatasetBuilder::new()
        .domain(Domain::new(14).expect("valid domain"))
        .distribution(Distribution::Zipf { alpha: 1.1 })
        .records(1 << 20)
        .splits(16)
        .seed(42)
        .build();
    let cluster = ClusterConfig::paper_cluster();
    let n = dataset.num_records();
    let u = dataset.domain().u();

    // Generation 1: a cheap sampled build, online fast. Generation 2:
    // the exact rebuild that replaces it once the cluster finishes.
    let sampled = TwoLevelS::new(8e-3, 1)
        .build(&dataset, &cluster, 40)
        .histogram;
    let exact = SendV::new().build(&dataset, &cluster, 40).histogram;
    let gen1 = CompiledHistogram::compile(&sampled);
    let gen2 = CompiledHistogram::compile(&exact);

    // One tier per process: four shards per histogram, one per core.
    let tier = ServeTier::new(READERS);
    tier.publish(DATASET, &gen1, n);
    println!(
        "published dataset {DATASET} gen {} — {} segments across {} shards",
        tier.generation(),
        gen1.num_segments(),
        tier.shards_per_histogram()
    );

    // Reader threads serve batches in a closed loop while the main
    // thread swaps the rebuilt histogram in mid-traffic.
    let (per_reader, swap_generation) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..READERS)
            .map(|r| {
                let tier = &tier;
                s.spawn(move || {
                    let mut handle = tier.handle();
                    let queries: Vec<(u64, u64)> = (0..512u64)
                        .map(|i| {
                            let lo = (i * 37 + r as u64 * 11) % u;
                            (lo, (lo + 64).min(u - 1))
                        })
                        .collect();
                    let mut out = vec![0.0f64; queries.len()];
                    let (mut batches, mut post_swap) = (0u64, 0u64);
                    loop {
                        handle
                            .try_selectivity_batch_into(DATASET, &queries, &mut out)
                            .expect("well-formed batch");
                        batches += 1;
                        // Every answer in a batch comes from ONE snapshot:
                        // either all gen-1 or all gen-2, never a mix.
                        if handle.snapshot().generation() > 1 {
                            post_swap += 1;
                        } else {
                            // Epoch snapshots are monotone: once this
                            // handle has served gen 2 it can never fall
                            // back to gen 1.
                            assert_eq!(post_swap, 0);
                        }
                        if post_swap == 200 {
                            return (batches, out[0]);
                        }
                    }
                })
            })
            .collect();

        // Let the readers warm up on gen 1, then swap without stopping
        // them: publish builds the next snapshot and bumps the epoch.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let generation = tier.publish(DATASET, &gen2, n);
        (
            workers
                .into_iter()
                .map(|w| w.join().expect("reader"))
                .collect::<Vec<_>>(),
            generation,
        )
    });
    println!("\nhot-swapped to gen {swap_generation} under {READERS} live readers:");
    for (r, (batches, first)) in per_reader.iter().enumerate() {
        println!("  reader {r}: {batches} batches served, first estimate now {first:.6}");
        // Post-swap answers are the exact build's, bit for bit.
        assert_eq!(
            first.to_bits(),
            gen2.try_selectivity(r as u64 * 11, r as u64 * 11 + 64, n)
                .unwrap()
                .to_bits()
        );
    }

    // Bad queries are data, not crashes: the fallible path reports them
    // and the very next batch on the same handle still serves.
    let mut handle = tier.handle();
    let bad_range = handle.try_selectivity(DATASET, 10, 3);
    let bad_key = handle.try_selectivity(DATASET, 0, u + 5);
    let bad_id = handle.try_selectivity(99, 0, 1);
    println!("\nmalformed queries come back as errors:");
    for e in [&bad_range, &bad_key, &bad_id] {
        println!("  {}", e.as_ref().expect_err("rejected"));
    }
    assert!(matches!(
        bad_range,
        Err(ServeError::Query(QueryError::EmptyRange { .. }))
    ));
    assert!(matches!(
        bad_key,
        Err(ServeError::Query(QueryError::OutOfDomain { .. }))
    ));
    assert!(matches!(bad_id, Err(ServeError::UnknownDataset(99))));
    let sel = handle
        .try_selectivity(DATASET, 0, 63)
        .expect("still serving");
    println!("and the same handle keeps serving: sel[0, 63] = {sel:.6}");
}
