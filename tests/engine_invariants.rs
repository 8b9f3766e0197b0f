//! Property and integration tests of the MapReduce engine's accounting
//! invariants — the measurements every experiment depends on.

use proptest::prelude::*;
use wavelet_hist::mapreduce::wire::WKey;
use wavelet_hist::mapreduce::{
    run_job, ClusterConfig, EngineConfig, JobSpec, MapContext, MapTask, WireSize,
};

type Outputs = Vec<(u64, u64)>;

fn count_job(splits: Vec<Vec<u64>>) -> (Outputs, wavelet_hist::mapreduce::RunMetrics) {
    let tasks: Vec<MapTask<WKey, u64>> = splits
        .into_iter()
        .enumerate()
        .map(|(j, keys)| {
            MapTask::new(j as u32, move |ctx: &mut MapContext<WKey, u64>| {
                ctx.note_read(keys.len() as u64, keys.len() as u64 * 4);
                for k in &keys {
                    ctx.emit(WKey::four(*k), 1);
                }
            })
        })
        .collect();
    let reduce = Box::new(
        |k: &WKey, vs: &[u64], ctx: &mut wavelet_hist::mapreduce::ReduceContext<(u64, u64)>| {
            ctx.emit((k.id, vs.iter().sum()));
        },
    );
    let spec = JobSpec::new("prop", tasks, reduce);
    let out = run_job(&ClusterConfig::paper_cluster(), spec);
    (out.outputs, out.metrics)
}

fn splits_strategy() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..50, 0..80), 1..12)
}

/// [`count_job`] with radix keys and (optionally) the bounded-domain
/// hint — the knobs that pick each partition's reduce route.
fn strategy_count_job(
    splits: Vec<Vec<u64>>,
    reducers: u32,
    hinted: bool,
) -> (Outputs, wavelet_hist::mapreduce::RunMetrics) {
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
    let engine = EngineConfig::default().with_reducers(reducers);
    let spec = JobSpec::new(
        "strategy-acct",
        tasks,
        |k: &WKey, vs: &[u64], ctx: &mut wavelet_hist::mapreduce::ReduceContext<(u64, u64)>| {
            ctx.emit((k.id, vs.iter().sum()));
        },
    )
    .with_radix_keys()
    .with_engine(if hinted {
        engine.with_key_domain(64)
    } else {
        engine
    });
    let out = run_job(&ClusterConfig::paper_cluster(), spec);
    (out.outputs, out.metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reduce_totals_conserve_records(splits in splits_strategy()) {
        let n: u64 = splits.iter().map(|s| s.len() as u64).sum();
        let (outputs, metrics) = count_job(splits);
        let total: u64 = outputs.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(total, n, "counts conserved through shuffle");
        prop_assert_eq!(metrics.records_scanned, n);
        prop_assert_eq!(metrics.map_output_pairs, n);
        // Every pair is 4 B key + 8 B value.
        prop_assert_eq!(metrics.shuffle_bytes, n * 12);
    }

    #[test]
    fn engine_is_deterministic(splits in splits_strategy()) {
        let (a, ma) = count_job(splits.clone());
        let (b, mb) = count_job(splits);
        prop_assert_eq!(a, b);
        prop_assert_eq!(ma, mb);
    }

    /// Accounting invariant of the PR 4 strategy records: the pipelined
    /// engine records exactly one strategy per partition, the expected
    /// one, and `RunMetrics` equality deliberately ignores the counts —
    /// the same job under different strategies still compares equal.
    #[test]
    fn strategy_counts_cover_every_partition(
        splits in splits_strategy(),
        reducers in 1u32..9,
    ) {
        let (dense_out, dense_m) = strategy_count_job(splits.clone(), reducers, true);
        let (sorted_out, sorted_m) = strategy_count_job(splits, reducers, false);
        prop_assert_eq!(dense_m.reduce_strategies.dense_reduce, reducers);
        prop_assert_eq!(dense_m.reduce_strategies.total(), reducers);
        prop_assert_eq!(sorted_m.reduce_strategies.total(), reducers);
        prop_assert_eq!(sorted_m.reduce_strategies.sort_at_reduce, reducers);
        prop_assert_eq!(dense_out, sorted_out);
        // `==` compares logical fields only: strategy selection must
        // never break the determinism contract.
        prop_assert_eq!(dense_m, sorted_m);
    }

    #[test]
    fn sim_time_monotone_in_bandwidth(shuffle_mb in 1u64..200) {
        let mk = |fraction: f64| {
            let mut c = ClusterConfig::paper_cluster();
            c.bandwidth_fraction = fraction;
            wavelet_hist::mapreduce::cost::round_time(
                &c,
                &[],
                wavelet_hist::mapreduce::cost::ReduceWork::default(),
                shuffle_mb << 20,
                0,
            )
        };
        prop_assert!(mk(0.1) > mk(0.5));
        prop_assert!(mk(0.5) > mk(1.0));
    }
}

#[test]
fn wire_sizes_of_workspace_payloads() {
    // The encodings the paper's accounting uses (§5 setup).
    assert_eq!(WKey::four(7).wire_bytes(), 4); // 4-byte keys
    assert_eq!(123u32.wire_bytes(), 4); // 4-byte mapper counts
    assert_eq!(1.5f64.wire_bytes(), 8); // 8-byte coefficients
    assert_eq!((WKey::four(7), 1.5f64).wire_bytes(), 12); // Send-Coef pair
}

#[test]
fn task_state_survives_rounds() {
    // Round 1 leaves per-split state in each task's own closure, round 2
    // reads it back — with threads between rounds, and on forked workers
    // that keep the state in the process that made it.
    let mut engines = vec![EngineConfig::pipelined(), EngineConfig::reference()];
    if cfg!(unix) {
        engines.push(EngineConfig::multi_process().with_map_parallelism(3));
    }
    for engine in engines {
        let tasks: Vec<MapTask<WKey, u64>> = (0..16u32)
            .map(|j| {
                let mut kept: Vec<(u64, f64)> = Vec::new();
                MapTask::new(j, move |ctx: &mut MapContext<WKey, u64>| {
                    if ctx.round() == 0 {
                        kept = vec![(u64::from(j), 0.5)];
                    } else {
                        for &(x, _) in &kept {
                            ctx.emit(WKey::four(x), x * 10);
                        }
                    }
                })
            })
            .collect();
        let spec = JobSpec::new(
            "state",
            tasks,
            |k: &WKey, vs: &[u64], ctx: &mut wavelet_hist::mapreduce::ReduceContext<(u64, u64)>| {
                ctx.emit((k.id, vs[0]));
            },
        )
        .with_wire_codec()
        .with_engine(engine);
        let cluster = ClusterConfig::paper_cluster();
        let mut job = spec.start(&cluster).unwrap();
        assert!(job.round(&[]).unwrap().outputs.is_empty(), "{engine:?}");
        let want: Outputs = (0..16).map(|j| (j, j * 10)).collect();
        assert_eq!(job.round(&[]).unwrap().outputs, want, "{engine:?}");
    }
}
