//! Property and differential tests of the pipelined execution engine:
//! multi-reducer equivalence for every builder, determinism across
//! thread counts and reduce routes (dense reduce / sort-at-reduce, radix
//! and comparison), and pipelined-vs-seed engine equivalence on
//! randomized jobs.

use proptest::prelude::*;
use wavelet_hist::builders::{
    BasicS, HWTopk, HistogramBuilder, ImprovedS, SendCoef, SendSketch, SendV, TwoLevelS,
};
use wavelet_hist::data::{Dataset, DatasetBuilder};
use wavelet_hist::mapreduce::wire::WKey;
use wavelet_hist::mapreduce::{
    run_job, ClusterConfig, EngineConfig, JobSpec, MapContext, MapTask, ReduceContext,
};
use wavelet_hist::wavelet::Domain;

fn dataset() -> Dataset {
    DatasetBuilder::new()
        .domain(Domain::new(9).unwrap())
        .records(18_000)
        .splits(9)
        .seed(0xabcd)
        .build()
}

/// Every builder with an engine knob, at a fixed configuration.
fn builders(engine: EngineConfig) -> Vec<Box<dyn HistogramBuilder>> {
    let eps = 0.02;
    vec![
        Box::new(SendV::new().with_engine(engine)),
        Box::new(SendCoef::new().with_engine(engine)),
        Box::new(HWTopk::new().with_engine(engine)),
        Box::new(BasicS::new(eps, 3).with_engine(engine)),
        Box::new(ImprovedS::new(eps, 3).with_engine(engine)),
        Box::new(TwoLevelS::new(eps, 3).with_engine(engine)),
        Box::new(SendSketch::new(5).with_engine(engine)),
    ]
}

/// Satellite (a): for every builder, R reducers produce the same
/// histogram, bit for bit, and the same logical metrics as a single
/// reducer — at 15 (the paper cluster's count) and at 16, a power of two,
/// where the partitioner's residue classes are most structured.
#[test]
fn every_builder_multi_reducer_equals_single_reducer() {
    let ds = dataset();
    let cluster = ClusterConfig::paper_cluster();
    let k = 16;
    for reducers in [4, 15, 16] {
        for (single, multi) in builders(EngineConfig::default())
            .into_iter()
            .zip(builders(EngineConfig::default().with_reducers(reducers)))
        {
            let name = single.name();
            let a = single.build(&ds, &cluster, k);
            let b = multi.build(&ds, &cluster, k);
            assert_eq!(
                a.histogram.coefficients(),
                b.histogram.coefficients(),
                "{name}, R={reducers}"
            );
            assert_eq!(
                a.metrics, b.metrics,
                "{name}, R={reducers}: logical metrics"
            );
        }
    }
}

/// Satellite (c): determinism across reduce thread counts 1/2/8.
#[test]
fn every_builder_deterministic_across_thread_counts() {
    let ds = dataset();
    let cluster = ClusterConfig::paper_cluster();
    let k = 12;
    let run = |threads: usize| {
        builders(
            EngineConfig::default()
                .with_reducers(8)
                .with_reducer_parallelism(threads),
        )
        .into_iter()
        .map(|b| b.build(&ds, &cluster, k))
        .collect::<Vec<_>>()
    };
    let base = run(1);
    for threads in [2, 8] {
        for (a, b) in base.iter().zip(run(threads)) {
            // Bit-identical, not just close: the stitching order is fixed.
            assert_eq!(
                a.histogram.coefficients(),
                b.histogram.coefficients(),
                "threads={threads}"
            );
            assert_eq!(a.metrics, b.metrics, "threads={threads}");
        }
    }
}

/// Every builder declares a tight bounded key domain, so with the default
/// engine every reduce partition of every round must run the dense-reduce
/// strategy — and the count must cover every partition of every round.
#[test]
fn every_builder_reduces_densely_on_every_partition() {
    let ds = dataset();
    let cluster = ClusterConfig::paper_cluster();
    let reducers = 4u32;
    for b in builders(EngineConfig::default().with_reducers(reducers)) {
        let got = b.build(&ds, &cluster, 8);
        let s = got.metrics.reduce_strategies;
        assert_eq!(
            s.total(),
            got.metrics.rounds * reducers,
            "{}: one strategy record per partition per round",
            b.name()
        );
        assert_eq!(
            s.dense_reduce,
            s.total(),
            "{}: bounded-domain jobs must reduce densely",
            b.name()
        );
    }
}

/// The pipelined engine run twice is bit-identical (wall-clock aside).
#[test]
fn builder_runs_are_reproducible() {
    let ds = dataset();
    let cluster = ClusterConfig::paper_cluster();
    let engine = EngineConfig::default().with_reducers(3);
    let a = SendV::new().with_engine(engine).build(&ds, &cluster, 10);
    let b = SendV::new().with_engine(engine).build(&ds, &cluster, 10);
    assert_eq!(a.histogram.coefficients(), b.histogram.coefficients());
    assert_eq!(a.metrics, b.metrics);
}

fn splits_strategy() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..60, 0..70), 1..14)
}

/// A combiner-less job over a bounded key domain whose output pins the
/// exact value delivery sequence: each value encodes its `(split id,
/// arrival index)`, and the reducer emits a position-weighted digest of
/// its value list plus a per-pair CPU charge — so any reorder of a key's
/// values, any dropped group, or any miscounted charge changes the
/// `(outputs, metrics)` pair. This is the probe behind the
/// reduce-strategy differential properties.
fn strategy_probe_job(
    splits: Vec<Vec<u64>>,
    engine: EngineConfig,
    radix: bool,
) -> (Vec<(u64, u64, u64)>, wavelet_hist::mapreduce::RunMetrics) {
    let tasks: Vec<MapTask<WKey, u64>> = splits
        .into_iter()
        .enumerate()
        .map(|(j, keys)| {
            MapTask::new(j as u32, move |ctx: &mut MapContext<WKey, u64>| {
                for (i, k) in keys.iter().enumerate() {
                    ctx.emit(WKey::four(*k), ((j as u64) << 32) | i as u64);
                }
            })
        })
        .collect();
    let mut spec = JobSpec::new(
        "strategy-probe",
        tasks,
        |k: &WKey, vs: &[u64], ctx: &mut ReduceContext<(u64, u64, u64)>| {
            ctx.charge(vs.len() as f64 * 2.0);
            let digest = vs.iter().enumerate().fold(0u64, |acc, (i, v)| {
                acc.wrapping_add(v.wrapping_mul(i as u64 + 1))
            });
            ctx.emit((k.id, vs.len() as u64, digest));
        },
    )
    .with_engine(engine);
    if radix {
        spec = spec.with_radix_keys();
    }
    let out = run_job(&ClusterConfig::paper_cluster(), spec);
    (out.outputs, out.metrics)
}

fn count_job(
    splits: Vec<Vec<u64>>,
    engine: EngineConfig,
) -> (Vec<(u64, u64)>, wavelet_hist::mapreduce::RunMetrics) {
    let tasks: Vec<MapTask<WKey, u64>> = splits
        .into_iter()
        .enumerate()
        .map(|(j, keys)| {
            MapTask::new(j as u32, move |ctx: &mut MapContext<WKey, u64>| {
                for k in &keys {
                    ctx.emit(WKey::four(*k), 1);
                }
            })
        })
        .collect();
    let spec = JobSpec::new(
        "prop",
        tasks,
        |k: &WKey, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((k.id, vs.iter().sum()));
        },
    )
    .with_engine(engine);
    let out = run_job(&ClusterConfig::paper_cluster(), spec);
    (out.outputs, out.metrics)
}

/// A wordcount that combines in the mapper — one `(key, count)` per
/// distinct key of the split, in first-arrival order, the paper's
/// `(x, v_j(x))` emission — used by the radix/dense differential
/// properties: same algorithmic content, different execution strategy.
fn combine_count_job(
    splits: Vec<Vec<u64>>,
    engine: EngineConfig,
    radix: bool,
) -> (Vec<(u64, u64)>, wavelet_hist::mapreduce::RunMetrics) {
    let tasks: Vec<MapTask<WKey, u64>> = splits
        .into_iter()
        .enumerate()
        .map(|(j, keys)| {
            MapTask::new(j as u32, move |ctx: &mut MapContext<WKey, u64>| {
                let mut counts: Vec<(u64, u64)> = Vec::new();
                for &k in &keys {
                    match counts.iter_mut().find(|(key, _)| *key == k) {
                        Some((_, c)) => *c += 1,
                        None => counts.push((k, 1)),
                    }
                }
                for (k, c) in counts {
                    ctx.emit(WKey::four(k), c);
                }
            })
        })
        .collect();
    let mut spec = JobSpec::new(
        "radix-prop",
        tasks,
        |k: &WKey, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((k.id, vs.iter().sum()));
        },
    )
    .with_engine(engine);
    if radix {
        spec = spec.with_radix_keys();
    }
    let out = run_job(&ClusterConfig::paper_cluster(), spec);
    (out.outputs, out.metrics)
}

/// Sorts `(key, (split, seq))` pairs with the public `RadixSorter` and
/// with the stable comparison sort; the permutations must be
/// identical, ties included (the payload is the arrival identity).
fn assert_radix_sort_matches<K>(keys: Vec<K>)
where
    K: wavelet_hist::mapreduce::RadixKey + Clone + std::fmt::Debug,
{
    let pairs: Vec<(K, (u32, u32))> = keys
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, ((i % 9) as u32, i as u32)))
        .collect();
    let mut want = pairs.clone();
    want.sort_by(|a, b| a.0.cmp(&b.0));
    let mut got = pairs;
    wavelet_hist::mapreduce::radix::RadixSorter::new().sort(&mut got);
    assert_eq!(got, want);
}

/// The partitioner's image of every sealed `RadixKey` impl is its radix,
/// so partition `p` of `R` holds exactly the radixes `≡ p (mod R)`.
fn assert_partition_is_radix(x: u64) {
    use wavelet_hist::mapreduce::engine::default_partition;
    use wavelet_hist::mapreduce::RadixKey;
    assert_eq!(default_partition(&x), x.to_radix());
    assert_eq!(default_partition(&WKey::four(x)), WKey::four(x).to_radix());
    let (a, b, c) = (x as u32, x as u16, x as u8);
    assert_eq!(default_partition(&a), a.to_radix());
    assert_eq!(default_partition(&b), b.to_radix());
    assert_eq!(default_partition(&c), c.to_radix());
}

#[test]
fn default_partition_is_the_radix_at_the_extremes() {
    for x in [0, 1, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
        assert_partition_is_radix(x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn default_partition_is_the_radix_for_every_impl(x in 0u64..=u64::MAX) {
        assert_partition_is_radix(x);
    }

    /// `RadixSorter` produces the identical permutation as the stable
    /// comparison sort for **every** sealed `RadixKey` impl — full-width values and heavy-tie reductions of
    /// the same raw material, ties preserving (split, arrival) order.
    #[test]
    fn radix_sort_matches_comparison_for_every_impl(
        raw in prop::collection::vec(0u64..u64::MAX, 0..400),
    ) {
        assert_radix_sort_matches::<u64>(raw.clone());
        assert_radix_sort_matches::<u64>(raw.iter().map(|&x| x % 23).collect());
        assert_radix_sort_matches::<u32>(raw.iter().map(|&x| x as u32).collect());
        assert_radix_sort_matches::<u16>(raw.iter().map(|&x| x as u16).collect());
        assert_radix_sort_matches::<u8>(raw.iter().map(|&x| x as u8).collect());
        assert_radix_sort_matches::<WKey>(
            raw.iter().map(|&x| WKey::four(x % 1024)).collect(),
        );
    }

    /// A run whose keys live in a narrow `[lo, hi]` band far from zero,
    /// the shape every partition of a range-partitioned job hands the
    /// sorter, sorts to the identical permutation as the stable
    /// comparison sort, ties (split, arrival) included, for any base
    /// offset and span.
    #[test]
    fn rebased_radix_sort_matches_comparison(
        base in 0u64..u64::MAX - (1 << 20),
        span in 1u64..(1 << 20),
        raw in prop::collection::vec(0u64..u64::MAX, 49..400),
    ) {
        assert_radix_sort_matches::<u64>(
            raw.iter().map(|&x| base + x % span).collect(),
        );
    }

    /// Radix keys without a hint and the dense reduce a key-domain hint
    /// selects are byte-identical to the plain comparison path on random
    /// mapper-combined jobs — outputs *and* metrics — at any reducer
    /// count.
    #[test]
    fn dense_domain_combine_equals_hash_combine(
        splits in splits_strategy(),
        reducers in 1u32..5,
    ) {
        let plain = EngineConfig::default().with_reducers(reducers);
        // Keys are < 60 (the strategy's bound), so 64 is a valid hint.
        let hinted = plain.with_key_domain(64);
        let base = combine_count_job(splits.clone(), plain, false);
        let radix_only = combine_count_job(splits.clone(), plain, true);
        let dense = combine_count_job(splits, hinted, true);
        prop_assert_eq!(&base.0, &radix_only.0);
        prop_assert_eq!(&base.1, &radix_only.1);
        prop_assert_eq!(&base.0, &dense.0);
        prop_assert_eq!(&base.1, &dense.1);
    }

    /// Differential: radix + dense specializations against the preserved
    /// seed engine, bit for bit.
    #[test]
    fn radix_engine_equals_reference_engine(
        splits in splits_strategy(),
        reducers in 1u32..5,
    ) {
        let specialized = combine_count_job(
            splits.clone(),
            EngineConfig::pipelined()
                .with_reducers(reducers)
                .with_key_domain(64),
            true,
        );
        let reference = combine_count_job(
            splits,
            EngineConfig::reference().with_reducers(reducers),
            false,
        );
        prop_assert_eq!(specialized.0, reference.0);
        prop_assert_eq!(specialized.1, reference.1);
    }

    /// Tentpole (PR 4): the dense-reduce route is byte-identical —
    /// outputs *and* metrics, charged CPU included — to sort-at-reduce
    /// with and without a radix codec, and to the preserved seed engine,
    /// on random bounded-domain jobs, for 1/2/8 reducers and 1/2/8 reduce
    /// threads.
    #[test]
    fn dense_reduce_equals_every_strategy_and_engine(splits in splits_strategy()) {
        for reducers in [1u32, 2, 8] {
            let base = EngineConfig::pipelined().with_reducers(reducers);
            // No codec → one comparison sort per partition.
            let comparison = strategy_probe_job(splits.clone(), base, false);
            // Codec without a hint → the same comparison sort per partition.
            let sorted = strategy_probe_job(splits.clone(), base, true);
            prop_assert_eq!(&comparison.0, &sorted.0, "reducers={}", reducers);
            prop_assert_eq!(&comparison.1, &sorted.1, "reducers={}", reducers);
            // Codec + bounded domain → dense reduce, at every thread count.
            for threads in [1usize, 2, 8] {
                let dense = strategy_probe_job(
                    splits.clone(),
                    base.with_key_domain(64).with_reducer_parallelism(threads),
                    true,
                );
                prop_assert_eq!(
                    &comparison.0, &dense.0,
                    "reducers={} threads={}", reducers, threads
                );
                prop_assert_eq!(
                    &comparison.1, &dense.1,
                    "reducers={} threads={}", reducers, threads
                );
            }
            // And the preserved seed engine, bit for bit.
            let reference = strategy_probe_job(
                splits.clone(),
                EngineConfig::reference().with_reducers(reducers),
                false,
            );
            prop_assert_eq!(&comparison.0, &reference.0, "reducers={}", reducers);
            prop_assert_eq!(&comparison.1, &reference.1, "reducers={}", reducers);
        }
    }

    /// Differential: the pipelined engine equals the preserved seed engine
    /// bit for bit, for any reducer count.
    #[test]
    fn pipelined_equals_reference_engine(splits in splits_strategy(), reducers in 1u32..6) {
        let pipelined = count_job(
            splits.clone(),
            EngineConfig::pipelined().with_reducers(reducers),
        );
        let reference = count_job(
            splits,
            EngineConfig::reference().with_reducers(reducers),
        );
        prop_assert_eq!(pipelined.0, reference.0);
        prop_assert_eq!(pipelined.1, reference.1);
    }

    /// Reduce-side parallelism never changes outputs or metrics.
    #[test]
    fn thread_count_invariance(splits in splits_strategy(), reducers in 1u32..9) {
        let base = count_job(
            splits.clone(),
            EngineConfig::default().with_reducers(reducers).with_reducer_parallelism(1),
        );
        for threads in [2usize, 8] {
            let got = count_job(
                splits.clone(),
                EngineConfig::default().with_reducers(reducers).with_reducer_parallelism(threads),
            );
            prop_assert_eq!(&base.0, &got.0);
            prop_assert_eq!(&base.1, &got.1);
        }
    }
}
