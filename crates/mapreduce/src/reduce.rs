//! The reduce side of a job: its two reducer forms behind one object,
//! and the two routes a partition takes.
//!
//! Every engine mode reduces through a [`Reducer`]: each reduce thread
//! asks it for a [`ReduceWorker`] (which owns that thread's recycled
//! table) and hands the worker one partition at a time. A [`Fold`]
//! reducer's worker folds; a slice reducer's worker groups each key's
//! values into one list first. Which route a partition takes is decided
//! here, per partition:
//!
//! * `DenseReduce` when the job has a radix codec and a domain hint no
//!   wider than [`DENSE_DOMAIN_MAX`] — for a slice reducer also fewer
//!   pairs than [`ReducePlan::dense_pair_cap`], its arena's `u32`
//!   indexing limit: the runs go into the worker's table
//!   ([`crate::dense`]), which emits keys in ascending radix (= key)
//!   order;
//! * `SortAtReduce` otherwise: one stable sort of the split-ordered run
//!   concatenation, so equal keys keep `(split id, arrival order)`; then
//!   one pass over each run of equal keys.
//!
//! Both routes, both forms and the reference engine's global sort present
//! the identical sequence of keys and values.

use crate::context::ReduceContext;
use crate::dense::{DenseReducer, FoldTable, OffsetsFn, FIRST_ARRIVAL};
use crate::job::{Fold, ReduceFn};
use crate::metrics::ReduceStrategy;

/// Borrowed form of a slice reducer, passed into its routes.
pub(crate) type ReduceDyn<K, V, R> = dyn Fn(&K, &[V], &mut ReduceContext<R>) + Send + Sync;

/// Domains above this cap fall back from the dense tables to
/// sort-at-reduce: a slot per domain value must stay small enough (a
/// 4-byte slot index is ≤ 16 MiB per worker here) that a flat array is
/// an optimization, not a memory liability. The tables additionally size
/// themselves to each partition's actual key range, so this bounds the
/// worst case only.
pub(crate) const DENSE_DOMAIN_MAX: u64 = 1 << 22;

/// Everything a reduce worker needs to pick and run one partition's
/// route. One per job; `Copy` so worker threads capture it by value.
pub(crate) struct ReducePlan<K, V> {
    /// The dense tables' pre-pass for the job's radix keys, when it
    /// declared them ([`crate::JobSpec::with_radix_keys`]).
    pub(crate) offsets: Option<OffsetsFn<K, V>>,
    pub(crate) domain_hint: Option<u64>,
    /// The job's partition count `R`: the dense tables index partition
    /// `p`'s keys by `radix / R`, every radix there being `≡ p (mod R)`.
    pub(crate) nparts: u32,
    /// Pair count from which a partition cannot reduce densely under a
    /// slice reducer: its arena tags group indices into `u32` slots, so a
    /// partition holding `FIRST_ARRIVAL` (2³¹) or more pairs would
    /// overflow its indexing. Production plans use exactly that constant;
    /// tests shrink it to exercise the fallback without 2³¹ pairs of
    /// memory. A fold holds no per-pair index and ignores it.
    pub(crate) dense_pair_cap: usize,
}

impl<K, V> Clone for ReducePlan<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for ReducePlan<K, V> {}

impl<K, V> ReducePlan<K, V> {
    /// The plan of a job with the radix pre-pass `offsets`, `domain_hint`
    /// and `nparts` partitions.
    pub(crate) fn new(
        offsets: Option<OffsetsFn<K, V>>,
        domain_hint: Option<u64>,
        nparts: u32,
    ) -> Self {
        Self {
            offsets,
            domain_hint,
            nparts,
            dense_pair_cap: FIRST_ARRIVAL as usize,
        }
    }

    /// The pre-pass and hint of the dense route, when the job qualifies.
    fn dense(&self) -> Option<(OffsetsFn<K, V>, u64)> {
        match (self.offsets, self.domain_hint) {
            (Some(offsets), Some(domain)) if domain <= DENSE_DOMAIN_MAX => Some((offsets, domain)),
            _ => None,
        }
    }
}

/// A job's reducer, in either form, as every engine mode drives it.
pub(crate) trait Reducer<K, V, R>: Send + Sync {
    /// A worker for one reduce thread, holding the table that thread
    /// recycles across the partitions it reduces.
    fn worker(&self) -> Box<dyn ReduceWorker<K, V, R> + '_>;
}

/// One reduce thread's view of the job's reducer.
pub(crate) trait ReduceWorker<K, V, R> {
    /// Reduces partition `part`'s runs (split-id order, arrival order
    /// within each) along the route `plan` picks for it, finishing keys in
    /// key order. Returns the route taken and the number of keys.
    fn partition(
        &mut self,
        runs: Vec<Vec<(K, V)>>,
        part: u32,
        plan: ReducePlan<K, V>,
        rctx: &mut ReduceContext<R>,
    ) -> (ReduceStrategy, u64);

    /// Reduces one partition's pairs already sorted by key, equal keys in
    /// `(split id, arrival order)` order — the reference engine's input.
    /// Returns the number of keys.
    fn sorted(&mut self, run: Vec<(K, V)>, rctx: &mut ReduceContext<R>) -> u64;
}

/// A slice reducer ([`ReduceFn`]) as a [`Reducer`].
pub(crate) struct SliceReducer<K, V, R>(pub(crate) ReduceFn<K, V, R>);

impl<K: Ord, V, R> Reducer<K, V, R> for SliceReducer<K, V, R> {
    fn worker(&self) -> Box<dyn ReduceWorker<K, V, R> + '_> {
        Box::new(SliceWorker {
            reduce: self.0.as_ref(),
            table: DenseReducer::new(),
        })
    }
}

struct SliceWorker<'a, K, V, R> {
    reduce: &'a ReduceDyn<K, V, R>,
    table: DenseReducer<K, V>,
}

impl<K: Ord, V, R> ReduceWorker<K, V, R> for SliceWorker<'_, K, V, R> {
    fn partition(
        &mut self,
        runs: Vec<Vec<(K, V)>>,
        part: u32,
        plan: ReducePlan<K, V>,
        rctx: &mut ReduceContext<R>,
    ) -> (ReduceStrategy, u64) {
        let total: usize = runs.iter().map(Vec::len).sum();
        match plan.dense() {
            Some((offsets, domain)) if total < plan.dense_pair_cap => {
                let part = (part, plan.nparts);
                let keys = self
                    .table
                    .reduce_runs(runs, offsets, domain, part, self.reduce, rctx);
                (ReduceStrategy::DenseReduce, keys)
            }
            _ => (
                ReduceStrategy::SortAtReduce,
                self.sorted(sort_runs(runs), rctx),
            ),
        }
    }

    fn sorted(&mut self, run: Vec<(K, V)>, rctx: &mut ReduceContext<R>) -> u64 {
        let mut iter = run.into_iter();
        let Some((mut key, first)) = iter.next() else {
            return 0;
        };
        let mut values = vec![first];
        let mut keys = 1;
        for (k, v) in iter {
            if k != key {
                (self.reduce)(&key, &values, rctx);
                values.clear();
                key = k;
                keys += 1;
            }
            values.push(v);
        }
        (self.reduce)(&key, &values, rctx);
        keys
    }
}

/// A [`Fold`] as a [`Reducer`].
pub(crate) struct FoldReducer<F>(pub(crate) F);

impl<K: Ord + 'static, V: 'static, R: 'static, F: Fold<K, V, R>> Reducer<K, V, R>
    for FoldReducer<F>
{
    fn worker(&self) -> Box<dyn ReduceWorker<K, V, R> + '_> {
        Box::new(FoldWorker {
            fold: &self.0,
            table: FoldTable::new(),
        })
    }
}

struct FoldWorker<'a, K, F: Fold<K, V, R>, V, R> {
    fold: &'a F,
    table: FoldTable<K, F::Acc>,
}

impl<K: Ord, V, R, F: Fold<K, V, R>> ReduceWorker<K, V, R> for FoldWorker<'_, K, F, V, R> {
    fn partition(
        &mut self,
        runs: Vec<Vec<(K, V)>>,
        part: u32,
        plan: ReducePlan<K, V>,
        rctx: &mut ReduceContext<R>,
    ) -> (ReduceStrategy, u64) {
        match plan.dense() {
            Some((offsets, domain)) => {
                let part = (part, plan.nparts);
                let keys = self
                    .table
                    .fold_runs(runs, offsets, domain, part, self.fold, rctx);
                (ReduceStrategy::DenseReduce, keys)
            }
            None => (
                ReduceStrategy::SortAtReduce,
                self.sorted(sort_runs(runs), rctx),
            ),
        }
    }

    fn sorted(&mut self, run: Vec<(K, V)>, rctx: &mut ReduceContext<R>) -> u64 {
        let fold = self.fold;
        let mut iter = run.into_iter();
        let Some((mut key, first)) = iter.next() else {
            return 0;
        };
        let (mut acc, mut count, mut keys) = (fold.first(first), 1, 1);
        for (k, v) in iter {
            if k == key {
                fold.fold(&mut acc, v);
                count += 1;
            } else {
                let done = std::mem::replace(&mut acc, fold.first(v));
                fold.finish(std::mem::replace(&mut key, k), done, count, rctx);
                count = 1;
                keys += 1;
            }
        }
        fold.finish(key, acc, count, rctx);
        keys
    }
}

/// The sort route's one sort: concatenates the split-ordered runs and
/// sorts them stably by key, so equal keys keep `(split id, arrival
/// order)`.
fn sort_runs<K: Ord, V>(mut runs: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    let mut all = if runs.len() == 1 {
        runs.pop().expect("one run")
    } else {
        let mut all = Vec::with_capacity(runs.iter().map(Vec::len).sum());
        for run in runs {
            all.extend(run);
        }
        all
    };
    all.sort_by(|a, b| a.0.cmp(&b.0));
    all
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    type Groups = Vec<(u32, Vec<u32>)>;

    /// A fold that keeps every value it is handed, in order.
    struct Collect;

    impl Fold<u32, u32, (u32, Vec<u32>)> for Collect {
        type Acc = Vec<u32>;
        fn first(&self, value: u32) -> Vec<u32> {
            vec![value]
        }
        fn fold(&self, acc: &mut Vec<u32>, value: u32) {
            acc.push(value);
        }
        fn finish(
            &self,
            key: u32,
            acc: Vec<u32>,
            count: u64,
            ctx: &mut ReduceContext<(u32, Vec<u32>)>,
        ) {
            assert_eq!(count, acc.len() as u64);
            ctx.emit((key, acc));
        }
    }

    /// The job's reducer in both forms: the collecting fold and the slice
    /// reducer that copies each value list.
    type Boxed = Box<dyn Reducer<u32, u32, (u32, Vec<u32>)>>;

    fn reducers() -> [(&'static str, Boxed); 2] {
        let slice: ReduceFn<u32, u32, (u32, Vec<u32>)> =
            Arc::new(|k, vs, ctx| ctx.emit((*k, vs.to_vec())));
        [
            ("fold", Box::new(FoldReducer(Collect))),
            ("slice", Box::new(SliceReducer(slice))),
        ]
    }

    /// The three plans a partition can be handed, with the route each
    /// must take: codec + dense domain (dense table), codec alone and
    /// neither (both the stable sort).
    fn plans() -> [(ReducePlan<u32, u32>, ReduceStrategy); 3] {
        let radix = ReducePlan::new(Some(crate::dense::quotients), None, 1);
        let dense = ReducePlan {
            domain_hint: Some(1 << 20),
            ..radix
        };
        let generic = ReducePlan {
            offsets: None,
            ..radix
        };
        [
            (dense, ReduceStrategy::DenseReduce),
            (radix, ReduceStrategy::SortAtReduce),
            (generic, ReduceStrategy::SortAtReduce),
        ]
    }

    /// Reduces one partition under `plan`, returning its key groups and
    /// the route that ran.
    fn reduce_with(
        runs: Vec<Vec<(u32, u32)>>,
        plan: ReducePlan<u32, u32>,
        worker: &mut dyn ReduceWorker<u32, u32, (u32, Vec<u32>)>,
    ) -> (Groups, ReduceStrategy) {
        let mut rctx = ReduceContext::new();
        let (ran, keys) = worker.partition(runs, 0, plan, &mut rctx);
        assert_eq!(keys, rctx.outputs.len() as u64);
        (rctx.outputs, ran)
    }

    /// Asserts that every route of both forms reduces `runs` to `want`,
    /// each taking the route its plan names, and that the reference
    /// engine's sorted input does too.
    fn assert_every_route_yields(runs: Vec<Vec<(u32, u32)>>, want: &Groups) {
        for (form, reducer) in reducers() {
            for (plan, route) in plans() {
                let (got, ran) = reduce_with(runs.clone(), plan, reducer.worker().as_mut());
                assert_eq!(ran, route);
                assert_eq!(
                    &got,
                    want,
                    "{form}, {route:?}, codec: {}",
                    plan.offsets.is_some()
                );
            }
            let mut rctx = ReduceContext::new();
            reducer.worker().sorted(sort_runs(runs.clone()), &mut rctx);
            assert_eq!(&rctx.outputs, want, "{form}, sorted");
        }
    }

    #[test]
    fn every_route_yields_key_then_run_order() {
        // Runs are per split (split order = vector order), pairs in
        // arrival order. Equal keys across runs take the lower split
        // first: key 1 is 11, 12 from split 0 before 21 from split 1.
        let runs = vec![
            vec![(5, 10), (1, 11), (1, 12)],
            vec![(2, 20), (1, 21)],
            vec![(9, 30), (2, 31), (5, 32)],
        ];
        let want = vec![
            (1, vec![11, 12, 21]),
            (2, vec![20, 31]),
            (5, vec![10, 32]),
            (9, vec![30]),
        ];
        assert_every_route_yields(runs, &want);
    }

    #[test]
    fn every_route_yields_the_specified_sequence() {
        // Many runs, heavy ties: every route must produce the sequence of
        // a stable global sort by (key, run index). Two shapes of run:
        // unsorted, and ascending within each run with the same keys
        // recurring across runs — what every mapper that emits from a
        // sorted local vector ships.
        let mk_runs = |m: usize, ascending: bool| -> Vec<Vec<(u32, u32)>> {
            (0..m)
                .map(|r| {
                    (0..600)
                        .map(|i| {
                            let k = if ascending {
                                i / (r as u32 % 4 + 1) * 7
                            } else {
                                (i * (r as u32 + 3)) % 17
                            };
                            (k, (r * 1000 + i as usize) as u32)
                        })
                        .collect()
                })
                .collect()
        };
        for (m, ascending) in [2, 3, 8, 9, 13, 32]
            .into_iter()
            .flat_map(|m| [(m, false), (m, true)])
        {
            let mut expected_pairs: Vec<(u32, usize, u32)> = mk_runs(m, ascending)
                .into_iter()
                .enumerate()
                .flat_map(|(r, run)| run.into_iter().map(move |(k, v)| (k, r, v)))
                .collect();
            expected_pairs.sort_by_key(|&(k, r, _)| (k, r));
            let mut expected: Groups = Vec::new();
            for (k, _, v) in expected_pairs {
                match expected.last_mut() {
                    Some((key, vs)) if *key == k => vs.push(v),
                    _ => expected.push((k, vec![v])),
                }
            }
            assert_every_route_yields(mk_runs(m, ascending), &expected);
        }
    }

    #[test]
    fn dense_table_recycles_across_partitions_and_routes() {
        // One worker driven through every route in sequence, the way a
        // reduce worker thread recycles its table across partitions.
        let runs = || vec![vec![(3u32, 2u32), (1, 1)], vec![(7, 4), (1, 3)]];
        let want = vec![(1, vec![1, 3]), (3, vec![2]), (7, vec![4])];
        for (form, reducer) in reducers() {
            let mut worker = reducer.worker();
            for round in 0..3 {
                for (plan, route) in plans() {
                    let (got, ran) = reduce_with(runs(), plan, worker.as_mut());
                    assert_eq!(got, want, "{form}, round {round}, {route:?}");
                    assert_eq!(ran, route);
                }
            }
        }
    }

    #[test]
    fn a_shrunken_pair_cap_replans_only_the_slice_form() {
        // 12 unsorted pairs; the boundary is exclusive below the cap —
        // `total == cap` is exactly the count the slice arena's
        // tagged-u32 indexing cannot address, so it must re-plan. A fold
        // has no per-pair index: it stays dense at any cap.
        let runs = || -> Vec<Vec<(u32, u32)>> {
            vec![
                vec![(7u32, 0u32), (3, 1), (7, 2), (1, 3), (3, 4), (9, 5)],
                vec![(3, 6), (7, 7), (1, 8), (2, 9), (9, 10), (3, 11)],
            ]
        };
        let total = 12usize;
        let [(_, fold), (_, slice)] = reducers();
        let capped = |cap| ReducePlan {
            dense_pair_cap: cap,
            ..plans()[0].0
        };
        let (dense_out, ran) = reduce_with(runs(), capped(total + 1), slice.worker().as_mut());
        assert_eq!(ran, ReduceStrategy::DenseReduce);
        for (cap, label) in [(total, "total == cap"), (total - 1, "total > cap")] {
            let (fallback_out, ran) = reduce_with(runs(), capped(cap), slice.worker().as_mut());
            assert_eq!(
                ran,
                ReduceStrategy::SortAtReduce,
                "{label}: overflow must re-plan, not panic"
            );
            assert_eq!(fallback_out, dense_out, "{label}: identical key groups");
            let (fold_out, ran) = reduce_with(runs(), capped(cap), fold.worker().as_mut());
            assert_eq!(
                ran,
                ReduceStrategy::DenseReduce,
                "{label}: the fold stays dense"
            );
            assert_eq!(fold_out, dense_out, "{label}: identical key groups");
        }
    }

    #[test]
    fn production_dense_pair_cap_is_the_tagged_u32_limit() {
        // The engine plans with exactly the slice arena's indexing limit:
        // the high bit of a u32 slot entry tags first arrivals, leaving
        // 2³¹ addressable pairs. A partition of that size re-plans; one
        // pair fewer stays dense (`reduce_runs` asserts
        // `total < FIRST_ARRIVAL`, kept as defense in depth).
        let plan: ReducePlan<u32, u32> = ReducePlan::new(None, Some(8), 1);
        assert_eq!(plan.dense_pair_cap, 1usize << 31);
        assert_eq!(
            FIRST_ARRIVAL & (FIRST_ARRIVAL - 1),
            0,
            "the tag is a single high bit"
        );
    }

    #[test]
    fn single_run_fast_path_groups_adjacent() {
        let runs = vec![vec![(4, 3), (3, 1), (3, 2)]];
        assert_every_route_yields(runs, &vec![(3, vec![1, 2]), (4, vec![3])]);
    }

    #[test]
    fn empty_partition_reduces_nothing() {
        assert_every_route_yields(vec![], &vec![]);
        assert_every_route_yields(vec![vec![]], &vec![]);
    }
}
