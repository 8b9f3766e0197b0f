//! Serving-tier suite: the sharded, epoch-swapped read path (`wh-serve`)
//! against the unsharded compiled histogram it must be indistinguishable
//! from.
//!
//! Three contracts are pinned:
//!
//! * **Bit-identity under sharding** — for every builder and every shard
//!   count, batched answers routed through the tier (dataset lookup →
//!   endpoint sort → one walk per shard window) equal the unsharded
//!   `CompiledHistogram` answers bit for bit.
//! * **Atomic generations** — readers hammering the tier while a writer
//!   republishes observe answers from exactly one generation per batch,
//!   never a blend of two (the epoch swap publishes whole `Arc`'d
//!   snapshots).
//! * **No panics from traffic** — serving threads fed malformed queries
//!   (bad ranges, out-of-domain keys, unknown datasets, zero record
//!   counts) report errors and keep serving; no probe has a panicking
//!   form.

use wavelet_hist::builders::{
    BasicS, HWTopk, HistogramBuilder, ImprovedS, SendCoef, SendSketch, SendV, TwoLevelS,
};
use wavelet_hist::data::{Dataset, DatasetBuilder, Distribution};
use wavelet_hist::mapreduce::ClusterConfig;
use wavelet_hist::query::{BatchScratch, CompiledHistogram, QueryError, ShardedHistogram};
use wavelet_hist::serve::{ServeError, ServeTier};
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

fn zipf_dataset() -> Dataset {
    DatasetBuilder::new()
        .domain(Domain::new(10).expect("valid domain"))
        .distribution(Distribution::Zipf { alpha: 1.1 })
        .records(60_000)
        .splits(8)
        .seed(0x51e1)
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

/// Bit-identity of the whole route — dataset lookup, endpoint sort,
/// per-window walk — for every builder and several shard counts.
#[test]
fn tier_answers_are_bit_identical_for_every_builder_and_shard_count() {
    let ds = zipf_dataset();
    let cluster = ClusterConfig::paper_cluster();
    let n = ds.num_records();
    let u = ds.domain().u();
    let queries = range_queries(u, 600, 0x7e57);
    let keys: Vec<u64> = (0..400u64).map(|i| scramble(i) % u).collect();
    for (b, (name, builder)) in builders().into_iter().enumerate() {
        let hist = builder.build(&ds, &cluster, K).histogram;
        let compiled = CompiledHistogram::compile(&hist);
        let mut scratch = BatchScratch::new();
        let mut want_sels = vec![0.0; queries.len()];
        compiled
            .try_selectivity_batch_into(&queries, n, &mut scratch, &mut want_sels)
            .unwrap();
        let mut want_sums = vec![0.0; queries.len()];
        compiled
            .try_range_sum_batch_into(&queries, &mut scratch, &mut want_sums)
            .unwrap();
        let mut want_pts = vec![0.0; keys.len()];
        compiled
            .try_point_estimate_batch_into(&keys, &mut scratch, &mut want_pts)
            .unwrap();

        for shards in [1usize, 2, 4, 7] {
            let tier = ServeTier::new(shards);
            let id = b as u32;
            tier.publish(id, &compiled, n);
            let mut h = tier.handle();
            let mut got = vec![0.0; queries.len()];
            h.try_selectivity_batch_into(id, &queries, &mut got)
                .unwrap();
            for (i, (a, g)) in want_sels.iter().zip(&got).enumerate() {
                assert_eq!(a.to_bits(), g.to_bits(), "{name} shards={shards} sel {i}");
            }
            h.try_range_sum_batch_into(id, &queries, &mut got).unwrap();
            for (i, (a, g)) in want_sums.iter().zip(&got).enumerate() {
                assert_eq!(a.to_bits(), g.to_bits(), "{name} shards={shards} sum {i}");
            }
            let mut got_pts = vec![0.0; keys.len()];
            h.try_point_estimate_batch_into(id, &keys, &mut got_pts)
                .unwrap();
            for (i, (a, g)) in want_pts.iter().zip(&got_pts).enumerate() {
                assert_eq!(a.to_bits(), g.to_bits(), "{name} shards={shards} pt {i}");
            }
            // Singles route through the same shards.
            for &(lo, hi) in queries.iter().take(50) {
                assert_eq!(
                    h.try_range_sum(id, lo, hi).unwrap().to_bits(),
                    compiled.try_range_sum(lo, hi).unwrap().to_bits(),
                    "{name} shards={shards} [{lo},{hi}]"
                );
            }
        }
    }
}

/// The concurrent reader/swapper contract: while a writer republishes a
/// dataset back and forth between two histograms, every reader batch is
/// answered entirely by one of the two complete generations — bit-equal
/// to one or the other for *every* query of the batch, never a mix.
#[test]
fn readers_never_observe_a_torn_generation_under_swaps() {
    let ds = zipf_dataset();
    let cluster = ClusterConfig::paper_cluster();
    let n = ds.num_records();
    let u = ds.domain().u();
    // Two deliberately different generations of the "same" dataset.
    let gen_a =
        CompiledHistogram::compile(&TwoLevelS::new(0.02, 3).build(&ds, &cluster, K).histogram);
    let gen_b = CompiledHistogram::compile(&SendV::new().build(&ds, &cluster, 6).histogram);
    let queries = range_queries(u, 64, 0xfeed);
    let mut scratch = BatchScratch::new();
    let mut expect_a = vec![0.0; queries.len()];
    gen_a
        .try_selectivity_batch_into(&queries, n, &mut scratch, &mut expect_a)
        .unwrap();
    let mut expect_b = vec![0.0; queries.len()];
    gen_b
        .try_selectivity_batch_into(&queries, n, &mut scratch, &mut expect_b)
        .unwrap();
    // The generations must actually disagree somewhere, or the test
    // could not detect tearing.
    assert!(
        expect_a
            .iter()
            .zip(&expect_b)
            .any(|(a, b)| a.to_bits() != b.to_bits()),
        "test needs distinguishable generations"
    );

    let tier = ServeTier::new(4);
    tier.publish(0, &gen_a, n);
    const SWAPS: u64 = 400;
    std::thread::scope(|s| {
        for t in 0..3 {
            let (tier, queries, expect_a, expect_b) = (&tier, &queries, &expect_a, &expect_b);
            s.spawn(move || {
                let mut h = tier.handle();
                let mut got = vec![0.0; queries.len()];
                let mut batches = 0u64;
                let mut seen_a = 0u64;
                let mut seen_b = 0u64;
                while batches < 2_000 {
                    h.try_selectivity_batch_into(0, queries, &mut got).unwrap();
                    let all_a = got
                        .iter()
                        .zip(expect_a)
                        .all(|(g, e)| g.to_bits() == e.to_bits());
                    let all_b = got
                        .iter()
                        .zip(expect_b)
                        .all(|(g, e)| g.to_bits() == e.to_bits());
                    assert!(
                        all_a || all_b,
                        "reader {t}: batch {batches} blended two generations"
                    );
                    seen_a += u64::from(all_a);
                    seen_b += u64::from(all_b);
                    batches += 1;
                }
                (seen_a, seen_b)
            });
        }
        let tier = &tier;
        let (gen_a, gen_b) = (&gen_a, &gen_b);
        s.spawn(move || {
            for i in 0..SWAPS {
                let gen = if i % 2 == 0 { gen_b } else { gen_a };
                tier.publish(0, gen, n);
            }
        });
    });
    // All swaps landed: initial publish + SWAPS republishes.
    assert_eq!(tier.generation(), 1 + SWAPS);
}

/// Serving threads survive malformed traffic: each worker interleaves
/// valid batches with every class of bad query, collects errors as
/// values, and its valid answers stay bit-identical throughout. (With
/// the old `assert!`-driven path this test would abort the process.)
#[test]
fn shard_threads_survive_bad_queries_and_keep_serving() {
    let ds = zipf_dataset();
    let cluster = ClusterConfig::paper_cluster();
    let n = ds.num_records();
    let u = ds.domain().u();
    let compiled = CompiledHistogram::compile(&HWTopk::new().build(&ds, &cluster, K).histogram);
    let tier = ServeTier::new(4);
    tier.publish(9, &compiled, n);

    let queries = range_queries(u, 128, 0xbad);
    let mut want = vec![0.0; queries.len()];
    compiled
        .try_selectivity_batch_into(&queries, n, &mut BatchScratch::new(), &mut want)
        .unwrap();

    std::thread::scope(|s| {
        for _ in 0..4 {
            let (tier, queries, want) = (&tier, &queries, &want);
            s.spawn(move || {
                let mut h = tier.handle();
                let mut got = vec![0.0; queries.len()];
                for round in 0..200 {
                    // A bad query of every class, between valid batches.
                    assert_eq!(
                        h.try_selectivity(77, 0, 1),
                        Err(ServeError::UnknownDataset(77))
                    );
                    assert_eq!(
                        h.try_range_sum(9, 10, 3),
                        Err(ServeError::Query(QueryError::EmptyRange { lo: 10, hi: 3 }))
                    );
                    assert!(matches!(
                        h.try_point_estimate(9, u + 5),
                        Err(ServeError::Query(QueryError::OutOfDomain { .. }))
                    ));
                    let err = h
                        .try_range_sum_batch_into(9, &[(0, 1), (4, u)], &mut got[..2])
                        .unwrap_err();
                    assert!(matches!(
                        err,
                        ServeError::Query(QueryError::OutOfDomain { .. })
                    ));
                    // …and the very same handle keeps answering exactly.
                    h.try_selectivity_batch_into(9, queries, &mut got).unwrap();
                    for (i, (a, g)) in want.iter().zip(&got).enumerate() {
                        assert_eq!(a.to_bits(), g.to_bits(), "round {round} query {i}");
                    }
                }
            });
        }
    });
}

/// Removing a dataset under load: readers get `UnknownDataset` (not a
/// panic, not stale garbage) once their snapshot refreshes, and
/// republishing restores service.
#[test]
fn remove_and_republish_under_handles() {
    let ds = zipf_dataset();
    let cluster = ClusterConfig::paper_cluster();
    let n = ds.num_records();
    let compiled = CompiledHistogram::compile(&SendCoef::new().build(&ds, &cluster, K).histogram);
    let tier = ServeTier::new(2);
    tier.publish(3, &compiled, n);
    let mut h = tier.handle();
    assert!(h.try_range_sum(3, 0, 10).is_ok());
    tier.remove(3);
    assert_eq!(
        h.try_range_sum(3, 0, 10),
        Err(ServeError::UnknownDataset(3))
    );
    tier.publish(3, &compiled, n);
    assert_eq!(
        h.try_range_sum(3, 0, 10).unwrap().to_bits(),
        compiled.try_range_sum(0, 10).unwrap().to_bits()
    );
}

/// The sharded form itself (no tier) matches the unsharded answers on
/// shard boundaries — the keys most likely to route to the wrong side of
/// an off-by-one. Every boundary is a segment start, so probing around
/// all segment starts (and the domain's end) covers them for every `m`.
#[test]
fn shard_boundaries_answer_exactly() {
    let ds = zipf_dataset();
    let cluster = ClusterConfig::paper_cluster();
    let compiled = CompiledHistogram::compile(&SendV::new().build(&ds, &cluster, K).histogram);
    let u = compiled.domain().u();
    for m in [2usize, 3, 5, 8] {
        let sharded = ShardedHistogram::shard(&compiled, m);
        assert_eq!(sharded.num_shards(), m);
        for edge in compiled.segments().map(|(start, _)| start).chain([u]) {
            for x in [edge.saturating_sub(1), edge, edge + 1] {
                if compiled.domain().contains(x) {
                    assert_eq!(
                        sharded.try_point_estimate(x).unwrap().to_bits(),
                        compiled.try_point_estimate(x).unwrap().to_bits(),
                        "m={m} x={x}"
                    );
                    assert_eq!(
                        sharded.try_prefix_sum(x).unwrap().to_bits(),
                        compiled.try_prefix_sum(x).unwrap().to_bits(),
                        "m={m} x={x}"
                    );
                }
            }
        }
    }
}

/// PR 8 satellite: `parking_lot` mutexes do not poison, and the epoch
/// swap publishes whole snapshots — so a rebuild that *panics* on the
/// publish path leaves readers on the previous generation, and the tier
/// (writer lock included) keeps working for the next publisher.
#[test]
fn panicking_rebuild_leaves_the_previous_snapshot_serving() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let ds = zipf_dataset();
    let cluster = ClusterConfig::paper_cluster();
    let compiled = CompiledHistogram::compile(&SendV::new().build(&ds, &cluster, K).histogram);
    let n = ds.num_records();

    let tier = ServeTier::new(4);
    tier.publish(1, &compiled, n);
    let gen_before = tier.generation();
    let mut h = tier.handle();
    let before = h.try_range_sum(1, 0, 100).unwrap();

    let unwound = catch_unwind(AssertUnwindSafe(|| {
        tier.try_publish::<ServeError>(1, n, || panic!("rebuild pipeline blew up"))
    }));
    assert!(unwound.is_err(), "the panic propagates to the publisher");

    // Readers never saw a torn or advanced generation…
    assert_eq!(tier.generation(), gen_before);
    assert_eq!(h.snapshot().generation(), gen_before);
    assert_eq!(
        h.try_range_sum(1, 0, 100).unwrap().to_bits(),
        before.to_bits()
    );

    // …and the tier is not wedged: the next (successful) publish lands.
    let gen_after = tier.publish(1, &compiled, n);
    assert_eq!(gen_after, gen_before + 1);
    assert_eq!(h.snapshot().generation(), gen_after);
}

/// PR 8 tentpole (serve side): failed rebuilds leave the last good
/// epoch serving and are reported as degraded / quarantined health
/// without ever gating reads.
#[test]
fn failed_rebuilds_degrade_without_dropping_reads() {
    use wavelet_hist::serve::{DatasetHealth, QUARANTINE_AFTER};

    let ds = zipf_dataset();
    let cluster = ClusterConfig::paper_cluster();
    let compiled = CompiledHistogram::compile(&SendV::new().build(&ds, &cluster, K).histogram);
    let n = ds.num_records();
    let queries = range_queries(ds.domain().u(), 64, 0xdead);

    let tier = ServeTier::new(3);
    tier.publish(7, &compiled, n);
    let mut h = tier.handle();
    let mut want = vec![0.0; queries.len()];
    h.try_selectivity_batch_into(7, &queries, &mut want)
        .unwrap();

    // Drive the dataset into quarantine; every read in between answers
    // bit-identically from the last good snapshot.
    for i in 1..=QUARANTINE_AFTER {
        let err = tier
            .try_publish(7, n, || {
                Err::<CompiledHistogram, _>("upstream build failed")
            })
            .unwrap_err();
        assert_eq!(err, "upstream build failed");
        let mut got = vec![0.0; queries.len()];
        h.try_selectivity_batch_into(7, &queries, &mut got).unwrap();
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let health = tier.dataset_health(7);
        if i < QUARANTINE_AFTER {
            assert_eq!(health, DatasetHealth::Degraded(i));
        } else {
            assert_eq!(health, DatasetHealth::Quarantined(i));
        }
    }
    assert_eq!(
        tier.degraded_datasets(),
        vec![(7, DatasetHealth::Quarantined(QUARANTINE_AFTER))]
    );
    // A healthy dataset alongside is unaffected by its neighbor's state.
    tier.publish(8, &compiled, n);
    assert_eq!(tier.dataset_health(8), DatasetHealth::Healthy);

    // One landed rebuild heals the quarantine.
    let gen = tier
        .try_publish(7, n, || Ok::<_, ServeError>(compiled.clone()))
        .unwrap();
    assert_eq!(gen, tier.generation());
    assert_eq!(tier.dataset_health(7), DatasetHealth::Healthy);
    assert!(tier.degraded_datasets().is_empty());
}

/// ROADMAP 6b: every edit of the tier goes through one swap routine, so
/// hammer it from all sides at once. Writers interleave `publish`,
/// `publish2d`, `remove`, `remove2d` and failing `try_publish` on
/// overlapping ids while readers probe both dimensions, replacing their
/// handle mid-swap. Generations are handed out exactly once, readers
/// never go back in time, and a batch never blends two histograms.
#[test]
fn concurrent_writers_and_readers_share_one_generation_sequence() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    use wavelet_hist::query::{CompiledHistogram2D, WaveletHistogram2d};
    use wavelet_hist::WaveletHistogram;

    const WRITERS: u64 = 3;
    const READERS: usize = 2;
    const MIN_EDITS_PER_WRITER: u64 = 400;
    const BATCHES_PER_READER: u64 = 1_000;
    const IDS: u64 = 3;

    // Three histograms per dimension that disagree on every query.
    let domain = Domain::new(6).unwrap();
    let variants: Vec<CompiledHistogram> = (1..=3)
        .map(|v| {
            let coefs = [(0, 8.0 * v as f64), (1, 2.0), (5, -1.5 * v as f64)];
            CompiledHistogram::compile(&WaveletHistogram::new(domain, coefs))
        })
        .collect();
    let variants2d: Vec<CompiledHistogram2D> = (1..=3)
        .map(|v| {
            CompiledHistogram2D::compile(&WaveletHistogram2d::new(domain, [(0, 64.0 * v as f64)]))
        })
        .collect();
    let queries = range_queries(domain.u(), 32, 0x57e55);
    let rects: Vec<_> = queries
        .chunks(2)
        .map(|p| (p[0].0, p[0].1, p[1].0, p[1].1))
        .collect();
    let expect: Vec<Vec<f64>> = variants
        .iter()
        .map(|c| {
            queries
                .iter()
                .map(|&(lo, hi)| c.try_range_sum(lo, hi).unwrap())
                .collect()
        })
        .collect();
    let expect2d: Vec<Vec<f64>> = variants2d
        .iter()
        .map(|c| {
            rects
                .iter()
                .map(|&q| c.try_rectangle_sum(q).unwrap())
                .collect()
        })
        .collect();
    // How many published histograms a served batch is bit-equal to.
    let matches = |expect: &[Vec<f64>], got: &[f64]| {
        let same = |want: &&Vec<f64>| {
            want.iter()
                .zip(got)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        };
        expect.iter().filter(same).count()
    };

    let tier = ServeTier::new(3);
    let start = Barrier::new(WRITERS as usize + READERS);
    // Writers keep editing until the last reader is done, so every probe
    // below races a swap.
    let reading = AtomicBool::new(true);
    let mut generations: Vec<u64> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (tier, start, reading) = (&tier, &start, &reading);
                let (variants, variants2d) = (&variants, &variants2d);
                s.spawn(move || {
                    start.wait();
                    let mut landed = Vec::new();
                    let mut i = 0u64;
                    while i < MIN_EDITS_PER_WRITER || reading.load(Ordering::Acquire) {
                        let r = scramble(w << 32 | i);
                        let (id, v) = ((r % IDS) as u32, (r >> 8) as usize % 3);
                        landed.extend(match (r >> 16) % 5 {
                            0 => Some(tier.publish(id, &variants[v], 1)),
                            1 => Some(tier.publish2d(id, &variants2d[v], 1)),
                            2 => tier.remove(id),
                            3 => tier.remove2d(id),
                            _ => tier
                                .try_publish(id, 1, || Err::<CompiledHistogram, _>(()))
                                .ok(),
                        });
                        i += 1;
                    }
                    landed
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let mut h = tier.handle();
                    let (mut out, mut out2d) = (vec![0.0; queries.len()], vec![0.0; rects.len()]);
                    let (mut seen, mut round, mut answered) = (0u64, 0u64, 0u64);
                    // Only answered batches count, so the readers cannot
                    // finish before the writers have got going.
                    while answered < BATCHES_PER_READER {
                        if round % 5 == 0 {
                            h = tier.handle(); // a handle born mid-swap
                        }
                        let generation = h.snapshot().generation();
                        assert!(generation >= seen, "generation {seen} → {generation}");
                        seen = generation;
                        let id = (round % IDS) as u32;
                        match h.try_range_sum_batch_into(id, &queries, &mut out) {
                            Ok(()) => {
                                assert_eq!(matches(&expect, &out), 1, "torn 1-D batch");
                                answered += 1;
                            }
                            Err(e) => assert_eq!(e, ServeError::UnknownDataset(id)),
                        }
                        match h.try_rectangle_sum_batch_into(id, &rects, &mut out2d) {
                            Ok(()) => {
                                assert_eq!(matches(&expect2d, &out2d), 1, "torn 2-D batch");
                                answered += 1;
                            }
                            Err(e) => assert_eq!(e, ServeError::UnknownDataset(id)),
                        }
                        round += 1;
                    }
                })
            })
            .collect();
        // Release the writers before surfacing a reader's panic, or they
        // would edit forever.
        let read: Vec<_> = readers.into_iter().map(|r| r.join()).collect();
        reading.store(false, Ordering::Release);
        read.into_iter().for_each(|r| r.unwrap());
        let landed = writers.into_iter().flat_map(|w| w.join().unwrap());
        landed.collect()
    });

    // Every edit that landed got its own generation, and nothing else
    // moved the counter: failed rebuilds and absent removes are no-ops.
    generations.sort_unstable();
    let landed = generations.len() as u64;
    assert_eq!(generations, (1..=landed).collect::<Vec<_>>());
    assert_eq!(tier.generation(), landed);
    assert!(landed > MIN_EDITS_PER_WRITER, "the mix must mostly land");
}
