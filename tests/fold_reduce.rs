//! Differential tests of the fold reducer form ([`Fold`]): on every
//! route and mode, a fold that records what it is handed sees, per key,
//! exactly the value sequence a slice reducer receives — key groups in
//! key order, values in `(split id, arrival order)` order — with the
//! same charged CPU.

use proptest::prelude::*;
use wavelet_hist::mapreduce::{
    run_job, ClusterConfig, EngineConfig, Fold, JobSpec, MapContext, MapTask, ReduceContext,
    ReduceStrategy, RunMetrics,
};

/// One key's delivered values, as emitted by either reducer form.
type Seen = (u32, Vec<u64>);

/// A fold that keeps every value it is handed, in order, and charges
/// like the builders do: once per key, by its value count.
struct Record;

impl Fold<u32, u64, Seen> for Record {
    type Acc = Vec<u64>;
    fn first(&self, value: u64) -> Vec<u64> {
        vec![value]
    }
    fn fold(&self, acc: &mut Vec<u64>, value: u64) {
        acc.push(value);
    }
    fn finish(&self, key: u32, acc: Vec<u64>, count: u64, ctx: &mut ReduceContext<Seen>) {
        assert_eq!(count, acc.len() as u64, "count is the values folded");
        ctx.charge(count as f64 * 2.0);
        ctx.emit((key, acc));
    }
}

/// Task `j` emits `(key · spread, j << 32 | i)` for its `i`-th key, so a
/// value names the split and arrival it came from.
fn tasks(splits: &[Vec<u32>], spread: u32) -> Vec<MapTask<u32, u64>> {
    splits
        .iter()
        .enumerate()
        .map(|(j, keys)| {
            let keys = keys.clone();
            MapTask::new(j as u32, move |ctx: &mut MapContext<u32, u64>| {
                for (i, &k) in keys.iter().enumerate() {
                    ctx.emit(k * spread, ((j as u64) << 32) | i as u64);
                }
            })
        })
        .collect()
}

/// Runs the splits' job once with the recording fold and once with the
/// slice reducer that copies each value list, both under `engine`.
fn both_forms(
    splits: &[Vec<u32>],
    spread: u32,
    engine: EngineConfig,
) -> [(Vec<Seen>, RunMetrics); 2] {
    let cluster = ClusterConfig::paper_cluster();
    let fold = JobSpec::folding("record", tasks(splits, spread), Record);
    let slice = JobSpec::new(
        "slice",
        tasks(splits, spread),
        |k: &u32, vs: &[u64], ctx: &mut ReduceContext<Seen>| {
            ctx.charge(vs.len() as f64 * 2.0);
            ctx.emit((*k, vs.to_vec()));
        },
    );
    [fold, slice].map(|spec| {
        let spec = spec.with_radix_keys().with_wire_codec().with_engine(engine);
        let out = run_job(&cluster, spec);
        (out.outputs, out.metrics)
    })
}

fn splits_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..60, 0..50), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_fold_sees_what_the_slice_route_delivers(splits in splits_strategy()) {
        let mut groups: Vec<Seen> = Vec::new();
        let mut flat: Vec<(u32, u64)> = tasks_values(&splits);
        flat.sort_by_key(|&(k, _)| k);
        for (k, v) in flat {
            match groups.last_mut() {
                Some((key, vs)) if *key == k => vs.push(v),
                _ => groups.push((k, vec![v])),
            }
        }
        for reducers in [1u32, 3, 15] {
            let base = EngineConfig::default().with_reducers(reducers);
            let dense = Some(ReduceStrategy::DenseReduce);
            let configs = [
                ("dense", 1, base.with_key_domain(64), dense),
                // Keys 2^14 apart: fewer than one pair per 16 slots, the
                // fold table's sparse form.
                ("sparse", 1 << 14, base.with_key_domain(1 << 20), dense),
                ("sort", 1, base, Some(ReduceStrategy::SortAtReduce)),
                ("reference", 1, EngineConfig::reference().with_reducers(reducers), None),
                (
                    "multi-process",
                    1,
                    EngineConfig::multi_process()
                        .with_map_parallelism(2)
                        .with_reducers(reducers)
                        .with_key_domain(64),
                    dense,
                ),
            ];
            // Forked workers need a unix host.
            let configs = configs.into_iter().filter(|c| cfg!(unix) || c.0 != "multi-process");
            for (label, spread, engine, route) in configs {
                let want: Vec<Seen> =
                    groups.iter().map(|(k, vs)| (k * spread, vs.clone())).collect();
                let [(fold, fm), (slice, sm)] = both_forms(&splits, spread, engine);
                prop_assert_eq!(&fold, &slice, "{} R={}", label, reducers);
                prop_assert_eq!(&fm, &sm, "{} R={}", label, reducers);
                // Per key, both forms see the specification's sequence;
                // outputs are partition-major, so compare as a set.
                let mut sorted = fold.clone();
                sorted.sort_by_key(|&(k, _)| k);
                prop_assert_eq!(&sorted, &want, "{} R={}", label, reducers);
                match route {
                    Some(route) => {
                        prop_assert_eq!(fm.reduce_partitions.len(), reducers as usize);
                        for p in &fm.reduce_partitions {
                            prop_assert_eq!(p.route, route, "{} R={}", label, reducers);
                        }
                        let pairs: u64 = fm.reduce_partitions.iter().map(|p| p.pairs).sum();
                        let keys: u64 = fm.reduce_partitions.iter().map(|p| p.keys).sum();
                        prop_assert_eq!(pairs, fm.map_output_pairs);
                        prop_assert_eq!(keys, want.len() as u64);
                    }
                    None => prop_assert!(fm.reduce_partitions.is_empty()),
                }
            }
        }
    }
}

/// Every `(key, value)` the splits' tasks emit, in split order.
fn tasks_values(splits: &[Vec<u32>]) -> Vec<(u32, u64)> {
    splits
        .iter()
        .enumerate()
        .flat_map(|(j, keys)| {
            keys.iter()
                .enumerate()
                .map(move |(i, &k)| (k, ((j as u64) << 32) | i as u64))
        })
        .collect()
}

/// A Close hook reads the partitions in place, in partition order, and
/// what it leaves is the job's output; a job without one returns the
/// partitions stitched.
#[test]
fn close_reads_the_partitions_in_place() {
    let splits = vec![vec![5, 1, 4, 2], vec![4, 3, 0]];
    let engine = EngineConfig::default().with_reducers(3).with_key_domain(8);
    let run = |with_close: bool| {
        let mut spec = JobSpec::folding("close", tasks(&splits, 1), Record)
            .with_radix_keys()
            .with_engine(engine);
        if with_close {
            spec = spec.with_finish(|ctx| {
                let parts = ctx.take_partitions();
                let keys: Vec<Vec<u32>> = parts
                    .iter()
                    .map(|p| p.iter().map(|&(k, _)| k).collect())
                    .collect();
                // Partition p holds the keys ≡ p (mod 3), ascending.
                assert_eq!(keys, [vec![0, 3], vec![1, 4], vec![2, 5]]);
                ctx.emit((99, vec![parts.len() as u64]));
            });
        }
        run_job(&ClusterConfig::paper_cluster(), spec).outputs
    };
    assert_eq!(run(true), [(99, vec![3])]);
    let keys: Vec<u32> = run(false).into_iter().map(|(k, _)| k).collect();
    assert_eq!(keys, [0, 3, 1, 4, 2, 5]);
}
