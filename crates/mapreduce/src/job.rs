//! Job specification, the running job, and the execution entry points.
//!
//! A [`JobSpec`] describes a MapReduce job: one map closure per split and
//! a shared reduce function (mappers combine before they emit — the
//! paper's `(x, v_j(x))` emission — and keys partition by
//! [`engine::default_partition`]). [`JobSpec::start`] turns it into a
//! running [`Job`], and every [`Job::round`] executes one MapReduce round
//! on the engine selected by the spec's [`EngineConfig`] — the pipelined
//! partition-parallel engine ([`crate::engine`]) by default, the seed
//! engine ([`crate::reference`]), or forked workers ([`crate::worker`]) —
//! returning the reducer outputs together with exact [`RunMetrics`].
//! [`try_run_job`] is the one-round job.
//!
//! Determinism: mappers may run in any thread interleaving, reduce
//! partitions may run on any number of threads, and each partition may
//! take either reduce route (dense reduce / sort-at-reduce — see
//! [`crate::ReduceStrategy`]), but within a partition the reduce function
//! always observes key groups in key order with each group's values in
//! `(split id, arrival order)` order, and outputs are stitched in
//! partition order — so results are bit-identical across runs, engines,
//! strategies, and thread counts.

use std::sync::Arc;

use crate::context::{MapContext, ReduceContext};
use crate::cost::ClusterConfig;
use crate::engine::{self, EngineConfig, EngineMode};
use crate::metrics::RunMetrics;
use crate::reference;
use crate::transport::EngineError;
use crate::wire::{WireCodec, WireError, WireSize};
use crate::worker::Workers;

/// The boxed closure a map task runs, once per round of its job.
pub type MapFn<K, V> = Box<dyn FnMut(&mut MapContext<K, V>) + Send>;

/// Reducer Close hook. Runs after every partition has reduced, once per
/// round, on a [`ReduceContext`] that already holds the round's reducer
/// emissions stitched partition-major (partition index ascending, key
/// order within a partition) — on every engine mode. Whatever the context
/// holds when the hook returns is the round's output: a hook that only
/// `emit`s appends to the reducer emissions, a hook that calls
/// [`ReduceContext::take_outputs`] consumes them and emits the aggregate
/// in their place.
pub type FinishFn<R> = Box<dyn FnMut(&mut ReduceContext<R>) + Send>;

/// Shared reduce function: receives each `(key, values-of-that-key)` group
/// in key order; `values` preserves the deterministic shuffle order.
///
/// It is `Fn` (not `FnMut`) and shared across partitions so reduce
/// partitions can run in parallel. Cross-group state travels as data: the
/// reducer `emit`s one folded record per key into its own partition's
/// [`ReduceContext`], and the Close hook ([`FinishFn`]) receives all of
/// them in partition-major key order — no shared capture, no lock, and
/// nothing whose order depends on which thread reduced which partition.
pub type ReduceFn<K, V, R> = Arc<dyn Fn(&K, &[V], &mut ReduceContext<R>) + Send + Sync>;

/// Fn-pointer decoder for one `(K, V)` pair from a wire byte stream.
pub(crate) type PairDecodeFn<K, V> = fn(&mut &[u8]) -> Result<(K, V), WireError>;

/// Fn-pointer vtable encoding/decoding one `(K, V)` pair with the
/// [`WireCodec`] byte format, installed by [`JobSpec::with_wire_codec`].
/// Plain fn pointers (like the radix `key_codec`) so the spec stays
/// `Copy`-friendly and the codec can cross a fork without closures.
pub(crate) struct PairCodec<K, V> {
    pub(crate) encode: fn(&K, &V, &mut Vec<u8>),
    pub(crate) decode: PairDecodeFn<K, V>,
}

impl<K, V> Clone for PairCodec<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for PairCodec<K, V> {}

/// One map task: a closure run against its [`MapContext`] once per round.
/// What the closure captures mutably is the task's own state across
/// rounds — the paper's mapper-local state file (Appendix A), which never
/// crosses the network: in-process engines keep the task between rounds,
/// and the multi-process engine keeps it in the worker that ran it.
pub struct MapTask<K, V> {
    /// The split this task reads (its id is echoed into the context).
    pub split_id: u32,
    /// The work: read input (however the algorithm likes), emit pairs.
    pub run: MapFn<K, V>,
}

impl<K, V> MapTask<K, V> {
    /// Convenience constructor.
    pub fn new(split_id: u32, run: impl FnMut(&mut MapContext<K, V>) + Send + 'static) -> Self {
        Self {
            split_id,
            run: Box::new(run),
        }
    }
}

/// A MapReduce job: its map tasks, reduce function and Close hook run
/// once per round.
pub struct JobSpec<K, V, R> {
    /// Human-readable job name (diagnostics only).
    pub name: String,
    /// One map task per split.
    pub map_tasks: Vec<MapTask<K, V>>,
    /// The reduce function (shared across partitions; within a partition
    /// invoked in key order).
    pub reduce: ReduceFn<K, V, R>,
    /// Reducer Close hook (the paper's Close interface, Appendix B): runs
    /// after every partition finished, over their stitched emissions —
    /// where histograms are assembled from aggregated state. See
    /// [`FinishFn`].
    pub finish: Option<FinishFn<R>>,
    /// Execution-engine knobs: reducer count and parallelism, key-domain
    /// hint, engine selection, multi-process recovery settings.
    pub engine: EngineConfig,
    /// Order-preserving `u64` key codec, installed by
    /// [`JobSpec::with_radix_keys`] when `K` implements
    /// [`crate::RadixKey`]. With an [`EngineConfig::key_domain_hint`] it
    /// selects and indexes the pipelined engine's dense reduce table;
    /// it plays no part in the sort route, which is one stable
    /// comparison sort for every job. Kept crate-private so only the
    /// sealed trait can supply codecs — the dense table emits groups in
    /// radix order, so the determinism contract depends on order
    /// preservation.
    pub(crate) key_codec: Option<fn(&K) -> u64>,
    /// Pair wire codec, installed by [`JobSpec::with_wire_codec`].
    /// Required by (and only used in) [`EngineMode::MultiProcess`],
    /// where worker processes ship their spills as encoded bytes.
    pub(crate) pair_codec: Option<PairCodec<K, V>>,
}

impl<K, V, R> JobSpec<K, V, R>
where
    K: Ord + std::hash::Hash + Send + WireSize + 'static,
    V: Send + WireSize + 'static,
{
    /// A one-reducer job on the default (pipelined) engine.
    pub fn new(
        name: impl Into<String>,
        map_tasks: Vec<MapTask<K, V>>,
        reduce: impl Fn(&K, &[V], &mut ReduceContext<R>) + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            map_tasks,
            reduce: Arc::new(reduce),
            finish: None,
            engine: EngineConfig::default(),
            key_codec: None,
            pair_codec: None,
        }
    }

    /// Declares that `K`'s order-preserving [`crate::RadixKey`] image may
    /// index the engine's dense reduce table: when the engine also
    /// carries an [`EngineConfig::key_domain_hint`] within the table's
    /// cap, reduce partitions group through the flat array instead of
    /// sorting. Without a usable hint the call changes nothing — the sort
    /// route is the same stable comparison sort with or without it.
    /// Outputs and metrics are bit-identical either way; it is purely an
    /// execution strategy.
    pub fn with_radix_keys(mut self) -> Self
    where
        K: crate::radix::RadixKey,
    {
        self.key_codec = Some(|k: &K| k.to_radix());
        self
    }

    /// Sets the reducer Close hook.
    pub fn with_finish(mut self, f: impl FnMut(&mut ReduceContext<R>) + Send + 'static) -> Self {
        self.finish = Some(Box::new(f));
        self
    }

    /// Sets the execution-engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Installs the [`WireCodec`] pair encoding, making the job eligible
    /// for [`EngineMode::MultiProcess`] (which refuses to run without
    /// it). Purely a transport declaration: in-process modes ignore it,
    /// and the multi-process mode is differential-tested bit-identical,
    /// so installing it never changes outputs or logical metrics.
    pub fn with_wire_codec(mut self) -> Self
    where
        K: WireCodec,
        V: WireCodec,
    {
        self.pair_codec = Some(PairCodec {
            encode: |k, v, out| {
                k.encode_wire(out);
                v.encode_wire(out);
            },
            decode: |input| Ok((K::decode_wire(input)?, V::decode_wire(input)?)),
        });
        self
    }

    /// Starts the job on `cluster`; its rounds then run through
    /// [`Job::round`]. Nothing executes yet. Under
    /// [`EngineMode::MultiProcess`] the map tasks move to worker slots
    /// (a job without a wire codec is refused here), and the first round
    /// forks one worker per slot that lives until the job is dropped.
    pub fn start(mut self, cluster: &ClusterConfig) -> Result<Job<'_, K, V, R>, EngineError> {
        let workers = match self.engine.mode {
            EngineMode::MultiProcess => Some(Workers::new(&mut self)?),
            EngineMode::Pipelined | EngineMode::Reference => None,
        };
        Ok(Job {
            cluster,
            spec: self,
            rounds: 0,
            workers,
        })
    }
}

/// A started [`JobSpec`]: runs its rounds one [`Job::round`] at a time.
///
/// Each round runs every map task once more — the task keeps its own
/// state from round to round — with that round's broadcast readable
/// through [`MapContext::broadcast`], then shuffles, reduces and runs the
/// Close hook. Under [`EngineMode::MultiProcess`] the worker processes
/// forked by the first round serve every later one, and dropping the job
/// kills and reaps them.
pub struct Job<'c, K, V, R> {
    cluster: &'c ClusterConfig,
    spec: JobSpec<K, V, R>,
    rounds: u32,
    workers: Option<Workers<K, V>>,
}

impl<K, V, R> Job<'_, K, V, R>
where
    K: Ord + std::hash::Hash + Send + WireSize + 'static,
    V: Send + WireSize + 'static,
    R: Send,
{
    /// Runs the next round with `broadcast` pushed to every map task
    /// (Job Configuration / Distributed Cache; accounted as
    /// [`RunMetrics::broadcast_bytes`], its length). The in-process modes
    /// are infallible; only [`EngineMode::MultiProcess`] can return
    /// `Err`: a worker lost beyond its retries, a protocol violation, or
    /// a broadcast too large for one frame
    /// ([`EngineError::FrameTooLarge`], after which the job is still
    /// usable — nothing ran).
    pub fn round(&mut self, broadcast: &[u8]) -> Result<JobOutput<R>, EngineError> {
        let (cluster, spec, round) = (self.cluster, &mut self.spec, self.rounds);
        let out = match &mut self.workers {
            Some(workers) => workers.round(cluster, spec, broadcast)?,
            None => {
                let broadcast = Arc::from(broadcast);
                match spec.engine.mode {
                    EngineMode::Reference => reference::execute(cluster, spec, round, &broadcast),
                    _ => engine::execute(cluster, spec, round, &broadcast),
                }
            }
        };
        self.rounds += 1;
        Ok(out)
    }
}

/// The result of one round.
#[derive(Debug)]
pub struct JobOutput<R> {
    /// What the reduce side left in its context: without a Close hook,
    /// the reducer emissions in partition order, then key order; with
    /// one, whatever the hook kept of those plus its own emissions (see
    /// [`FinishFn`]).
    pub outputs: Vec<R>,
    /// Exact measurements for this round (`rounds == 1`).
    pub metrics: RunMetrics,
}

/// Executes a one-round job on `cluster` — `spec.start(cluster)?.round(&[])`
/// — surfacing multi-process failures as a typed [`EngineError`]. The
/// in-process modes are infallible; only [`EngineMode::MultiProcess`] can
/// return `Err` (missing wire codec, dead worker, truncated frame,
/// unsupported platform).
pub fn try_run_job<K, V, R>(
    cluster: &ClusterConfig,
    spec: JobSpec<K, V, R>,
) -> Result<JobOutput<R>, EngineError>
where
    K: Ord + std::hash::Hash + Send + WireSize + 'static,
    V: Send + WireSize + 'static,
    R: Send,
{
    spec.start(cluster)?.round(&[])
}

/// [`try_run_job`], panicking on transport failure (the historical
/// interface — in-process modes cannot fail).
pub fn run_job<K, V, R>(cluster: &ClusterConfig, spec: JobSpec<K, V, R>) -> JobOutput<R>
where
    K: Ord + std::hash::Hash + Send + WireSize + 'static,
    V: Send + WireSize + 'static,
    R: Send,
{
    let name = spec.name.clone();
    try_run_job(cluster, spec).unwrap_or_else(|e| panic!("job '{name}' failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wordcount_tasks(splits: Vec<Vec<u32>>) -> Vec<MapTask<u32, u64>> {
        splits
            .into_iter()
            .enumerate()
            .map(|(j, keys)| {
                MapTask::new(j as u32, move |ctx: &mut MapContext<u32, u64>| {
                    ctx.note_read(keys.len() as u64, keys.len() as u64 * 4);
                    for k in &keys {
                        ctx.emit(*k, 1);
                    }
                })
            })
            .collect()
    }

    fn count_reduce() -> impl Fn(&u32, &[u64], &mut ReduceContext<(u32, u64)>) + Send + Sync {
        |k, vs, ctx| {
            ctx.emit((*k, vs.iter().sum()));
        }
    }

    #[test]
    fn wordcount_end_to_end() {
        let cluster = ClusterConfig::single_machine();
        let tasks = wordcount_tasks(vec![vec![1, 2, 2], vec![2, 3], vec![1, 1, 1]]);
        let spec = JobSpec::new("wc", tasks, count_reduce());
        let out = run_job(&cluster, spec);
        let mut got = out.outputs.clone();
        got.sort();
        assert_eq!(got, vec![(1, 4), (2, 3), (3, 1)]);
        assert_eq!(out.metrics.records_scanned, 8);
        assert_eq!(out.metrics.bytes_scanned, 32);
        assert_eq!(out.metrics.map_output_pairs, 8);
        // 8 pairs × (4 + 8) bytes.
        assert_eq!(out.metrics.shuffle_bytes, 96);
        assert_eq!(out.metrics.rounds, 1);
    }

    #[test]
    fn reduce_sees_keys_in_sorted_order() {
        let cluster = ClusterConfig::single_machine();
        let tasks = wordcount_tasks(vec![vec![9, 1, 5], vec![3, 7]]);
        let order = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let order2 = order.clone();
        let reduce = move |k: &u32, _vs: &[u64], _ctx: &mut ReduceContext<()>| {
            order2.lock().push(*k);
        };
        let spec = JobSpec::new("order", tasks, reduce);
        run_job(&cluster, spec);
        assert_eq!(*order.lock(), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn values_arrive_in_split_order() {
        let cluster = ClusterConfig::single_machine();
        // Each split emits its id as value for the same key.
        let tasks: Vec<MapTask<u32, u64>> = (0..6u32)
            .map(|j| {
                MapTask::new(j, move |ctx: &mut MapContext<u32, u64>| {
                    ctx.emit(42, u64::from(j));
                })
            })
            .collect();
        let reduce = |_k: &u32, vs: &[u64], ctx: &mut ReduceContext<Vec<u64>>| {
            ctx.emit(vs.to_vec());
        };
        let spec = JobSpec::new("split-order", tasks, reduce);
        let out = run_job(&cluster, spec);
        assert_eq!(out.outputs, vec![vec![0, 1, 2, 3, 4, 5]]);
    }

    #[test]
    fn charged_cpu_flows_into_metrics_and_time() {
        let mut cluster = ClusterConfig::single_machine();
        cluster.cpu_ops_per_s = 1e6;
        let tasks = vec![MapTask::new(0, |ctx: &mut MapContext<u32, u64>| {
            ctx.charge(2e6);
        })];
        let reduce = |_: &u32, _: &[u64], ctx: &mut ReduceContext<()>| ctx.charge(1e6);
        let spec = JobSpec::new("cpu", tasks, reduce);
        let out = run_job(&cluster, spec);
        assert_eq!(out.metrics.cpu_ops, 2e6);
        // Map 2s (2e6 ops at 1e6/s); no reduce groups ran (no pairs).
        assert!(
            (out.metrics.sim_time_s - 2.0).abs() < 0.01,
            "{}",
            out.metrics.sim_time_s
        );
    }

    #[test]
    fn broadcast_is_accounted() {
        let cluster = ClusterConfig::paper_cluster();
        let tasks = wordcount_tasks(vec![vec![1]]);
        let spec = JobSpec::new("bcast", tasks, count_reduce());
        let out = spec.start(&cluster).unwrap().round(&[0; 1 << 20]).unwrap();
        assert_eq!(out.metrics.broadcast_bytes, 1 << 20);
        assert_eq!(out.metrics.total_comm_bytes(), (1 << 20) + 12);
    }

    #[test]
    fn deterministic_across_runs() {
        let cluster = ClusterConfig::paper_cluster();
        let mk = || {
            let tasks = wordcount_tasks((0..20).map(|j| vec![j % 5, j % 3, 2]).collect());
            JobSpec::new("det", tasks, count_reduce())
        };
        let a = run_job(&cluster, mk());
        let b = run_job(&cluster, mk());
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn multi_reducer_matches_single_reducer() {
        let cluster = ClusterConfig::paper_cluster();
        let mk = |engine: EngineConfig| {
            let tasks = wordcount_tasks((0..24).map(|j| vec![j % 7, j % 5, j % 3, 2]).collect());
            run_job(
                &cluster,
                JobSpec::new("multi", tasks, count_reduce()).with_engine(engine),
            )
        };
        let single = mk(EngineConfig::default());
        for reducers in [2, 3, 8] {
            let multi = mk(EngineConfig::default().with_reducers(reducers));
            // Outputs are partition-major; compare as multisets.
            let mut a = single.outputs.clone();
            let mut b = multi.outputs.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "reducers={reducers}");
            // Communication metrics are partition-independent.
            assert_eq!(single.metrics, multi.metrics, "reducers={reducers}");
        }
    }

    #[test]
    fn deterministic_across_reducer_parallelism() {
        let cluster = ClusterConfig::paper_cluster();
        let mk = |threads: usize| {
            let tasks = wordcount_tasks((0..30).map(|j| vec![j % 11, j % 4]).collect());
            run_job(
                &cluster,
                JobSpec::new("par", tasks, count_reduce()).with_engine(
                    EngineConfig::default()
                        .with_reducers(8)
                        .with_reducer_parallelism(threads),
                ),
            )
        };
        let one = mk(1);
        for threads in [2, 8] {
            let t = mk(threads);
            assert_eq!(one.outputs, t.outputs, "threads={threads}");
            assert_eq!(one.metrics, t.metrics, "threads={threads}");
        }
    }

    #[test]
    fn reference_engine_matches_pipelined() {
        let cluster = ClusterConfig::paper_cluster();
        let mk = |engine: EngineConfig| {
            let tasks = wordcount_tasks((0..16).map(|j| vec![j % 6, j % 4, 1]).collect());
            run_job(
                &cluster,
                JobSpec::new("diff", tasks, count_reduce()).with_engine(engine),
            )
        };
        for reducers in [1, 4] {
            let pipelined = mk(EngineConfig::pipelined().with_reducers(reducers));
            let reference = mk(EngineConfig::reference().with_reducers(reducers));
            assert_eq!(pipelined.outputs, reference.outputs, "reducers={reducers}");
            assert_eq!(pipelined.metrics, reference.metrics, "reducers={reducers}");
        }
    }

    #[test]
    fn reduce_strategy_selection_is_recorded_per_partition() {
        let cluster = ClusterConfig::single_machine();
        let mk = |radix: bool, hint: Option<u64>, reducers: u32| {
            let tasks = wordcount_tasks((0..12).map(|j| vec![j % 7, j % 5, 3]).collect());
            let engine = EngineConfig::default().with_reducers(reducers);
            let mut spec = JobSpec::new("strategy", tasks, count_reduce())
                .with_engine(hint.map_or(engine, |u| engine.with_key_domain(u)));
            if radix {
                spec = spec.with_radix_keys();
            }
            run_job(&cluster, spec)
        };
        // Codec + bounded domain → dense reduce on every partition,
        // including a single one.
        let dense = mk(true, Some(8), 4);
        assert_eq!(dense.metrics.reduce_strategies.dense_reduce, 4);
        assert_eq!(dense.metrics.reduce_strategies.total(), 4);
        assert_eq!(
            mk(true, Some(8), 1).metrics.reduce_strategies.dense_reduce,
            1
        );
        // Everything else sorts at reduce, one partition or several: a
        // codec without a domain, a domain too wide for a flat array, or
        // no codec at all (a domain hint alone is not enough).
        for (radix, hint, reducers) in [
            (true, None, 3),
            (true, None, 1),
            (true, Some(1 << 30), 2),
            (false, None, 2),
            (false, Some(8), 2),
        ] {
            let s = mk(radix, hint, reducers).metrics.reduce_strategies;
            assert_eq!(s.sort_at_reduce, reducers, "{radix} {hint:?} {reducers}");
            assert_eq!(s.total(), reducers);
        }
        // Routes are an execution detail: same outputs and equal
        // metrics (under ==) as the sort-at-reduce run.
        let sorted = mk(true, None, 4);
        assert_eq!(dense.outputs, sorted.outputs);
        assert_eq!(dense.metrics, sorted.metrics);
        // The reference engine records nothing.
        let tasks = wordcount_tasks(vec![vec![1, 2], vec![2]]);
        let reference = run_job(
            &cluster,
            JobSpec::new("ref", tasks, count_reduce()).with_engine(EngineConfig::reference()),
        );
        assert_eq!(reference.metrics.reduce_strategies.total(), 0);
    }

    #[test]
    fn wall_clock_is_measured() {
        let cluster = ClusterConfig::single_machine();
        let tasks = wordcount_tasks(vec![vec![1, 2, 3]; 4]);
        let out = run_job(&cluster, JobSpec::new("wall", tasks, count_reduce()));
        // Phases really ran, so some nonzero time was observed.
        assert!(out.metrics.wall_time_s() > 0.0);
    }

    #[test]
    fn empty_job() {
        let cluster = ClusterConfig::single_machine();
        let spec: JobSpec<u32, u64, ()> = JobSpec::new("empty", vec![], |_: &u32, _, _| {});
        let out = run_job(&cluster, spec);
        assert!(out.outputs.is_empty());
        assert_eq!(out.metrics.shuffle_bytes, 0);
    }

    #[test]
    fn empty_job_multi_reducer_runs_finish() {
        let cluster = ClusterConfig::single_machine();
        let spec: JobSpec<u32, u64, u32> = JobSpec::new("empty", vec![], |_: &u32, _, _| {})
            .with_engine(EngineConfig::default().with_reducers(4))
            .with_finish(|ctx| ctx.emit(99));
        let out = run_job(&cluster, spec);
        assert_eq!(out.outputs, vec![99]);
    }
}
