//! The one module that names a library crate. Every layer is driven
//! through its public entry points only — `HistogramBuilder::build`,
//! `run_job`, the fallible `try_*` query/serve surface, and the public
//! kernels the staged replay times — so an API change in the workspace is
//! followed by an edit of this file alone.

use std::sync::Arc;

use wh_core::builders::{HWTopk, HistogramBuilder, SendCoef, TwoLevelS};
use wh_core::evaluate::Evaluator;
use wh_core::twod::WaveletHistogram2d;
use wh_core::{MaintainedHistogram, WaveletHistogram};
use wh_data::{Dataset, DatasetBuilder, Distribution, SplitMix64};
use wh_mapreduce::radix::RadixSorter;
use wh_mapreduce::wire::WKey;
use wh_mapreduce::{
    run_job, ClusterConfig, EngineConfig, JobSpec, MapTask, ReduceContext, RunMetrics,
};
use wh_query::{
    BatchScratch, BatchScratch2D, CompiledHistogram, CompiledHistogram2D, ShardedHistogram,
};
use wh_sampling::SamplingConfig;
use wh_serve::{ServeHandle, ServeTier};
use wh_topk::{two_sided_topk, InMemoryNode};
use wh_wavelet::Domain;

/// A split's local frequency vector, in the map the builders use.
pub type FreqMap = wh_wavelet::hash::FxHashMap<u64, u64>;
/// Coefficient sums by slot, in the map the builders' reducers fill.
pub type CoefMap = wh_wavelet::hash::FxHashMap<u64, f64>;

fn domain(log_u: u32) -> Domain {
    Domain::new(log_u).expect("benchmark domains are within range")
}

// ---------------------------------------------------------------- wh-data

/// A lazily generated, split-partitioned Zipf dataset.
pub struct Data(Dataset);

impl Data {
    pub fn zipf(log_u: u32, alpha: f64, n: u64, splits: u32, seed: u64) -> Self {
        Self(
            DatasetBuilder::new()
                .domain(domain(log_u))
                .distribution(Distribution::Zipf { alpha })
                .records(n)
                .splits(splits)
                .seed(seed)
                .build(),
        )
    }

    pub fn records(&self) -> u64 {
        self.0.num_records()
    }

    pub fn splits(&self) -> u32 {
        self.0.num_splits()
    }

    pub fn u(&self) -> u64 {
        self.0.domain().u()
    }

    pub fn split_records(&self, j: u32) -> u64 {
        self.0.split_meta(j).records
    }

    /// `Dataset::scan_split`: every key of split `j`, in order.
    pub fn scan(&self, j: u32) -> impl Iterator<Item = u64> + '_ {
        self.0.scan_split(j).map(|r| r.key)
    }

    /// `Dataset::sample_split`: `count` keys of split `j` without
    /// replacement.
    pub fn sample(&self, j: u32, count: u64, seed: u64) -> Vec<u64> {
        self.0
            .sample_split(j, count, seed)
            .into_iter()
            .map(|r| r.key)
            .collect()
    }
}

// ----------------------------------------------------------- wh-mapreduce

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// The pipelined in-process engine.
    InProcess,
    /// Forked map workers streaming framed spills over pipes.
    MultiProcess,
}

/// Engine knobs with map/reduce parallelism (and the worker-process
/// count) pinned to `threads` — never the engine's per-core default.
fn engine_config(engine: Engine, threads: usize, reducers: u32) -> EngineConfig {
    match engine {
        Engine::InProcess => EngineConfig::pipelined(),
        Engine::MultiProcess => EngineConfig::multi_process(),
    }
    .with_map_parallelism(threads)
    .with_reducer_parallelism(threads)
    .with_reducers(reducers)
}

/// The builder workloads' cluster: the paper's, one reducer per slave.
fn paper_cluster() -> (ClusterConfig, u32) {
    let cluster = ClusterConfig::paper_cluster();
    let reducers = cluster.num_slaves() as u32;
    (cluster, reducers)
}

/// What one build or job reported about itself (`RunMetrics`).
#[derive(Clone, Debug, Default)]
pub struct EngineRun {
    pub rounds: u32,
    pub comm_bytes: u64,
    pub shuffle_bytes: u64,
    pub map_output_pairs: u64,
    pub records_scanned: u64,
    pub sim_time_s: f64,
    pub wall_map_s: f64,
    pub wall_shuffle_s: f64,
    pub wall_reduce_s: f64,
    pub reduce_dense: u32,
    pub reduce_sort: u32,
    pub reduce_merge: u32,
    pub wire_pair_bytes: u64,
    pub wire_frame_bytes: u64,
    pub wire_frames: u64,
    pub wire_state_bytes: u64,
    pub wire_comm_rounds: u32,
    pub recovery_attempts: u32,
    pub tasks_retried: u64,
    /// `validate_measured_shuffle`'s verdict on a multi-process run.
    pub wire_rejected: Option<String>,
}

impl EngineRun {
    fn from_metrics(m: &RunMetrics, engine: Engine) -> Self {
        Self {
            rounds: m.rounds,
            comm_bytes: m.total_comm_bytes(),
            shuffle_bytes: m.shuffle_bytes,
            map_output_pairs: m.map_output_pairs,
            records_scanned: m.records_scanned,
            sim_time_s: m.sim_time_s,
            wall_map_s: m.wall_map_s,
            wall_shuffle_s: m.wall_shuffle_s,
            wall_reduce_s: m.wall_reduce_s,
            reduce_dense: m.reduce_strategies.dense_reduce,
            reduce_sort: m.reduce_strategies.sort_at_reduce,
            reduce_merge: m.reduce_strategies.merge,
            wire_pair_bytes: m.wire.pair_bytes,
            wire_frame_bytes: m.wire.frame_bytes,
            wire_frames: m.wire.frames,
            wire_state_bytes: m.wire.state_bytes,
            wire_comm_rounds: m.wire.comm_rounds,
            recovery_attempts: m.recovery.attempts,
            tasks_retried: m.recovery.tasks_retried,
            wire_rejected: match engine {
                Engine::InProcess => None,
                Engine::MultiProcess => wh_mapreduce::cost::validate_measured_shuffle(m).err(),
            },
        }
    }

    /// The exact counts that must repeat from run to run.
    pub fn counts(&self) -> [u64; 5] {
        [
            u64::from(self.rounds),
            self.comm_bytes,
            self.shuffle_bytes,
            self.map_output_pairs,
            self.records_scanned,
        ]
    }
}

/// Raw `run_job` of the shuffle workload: task `j` emits `tasks[j]`
/// as-is (negligible map CPU), the reducer counts values per key.
/// Radix keys + wire codec + key-domain hint, on a single-machine
/// cluster like the engine micro-benches.
pub fn run_pairs_job(
    engine: Engine,
    threads: usize,
    reducers: u32,
    key_domain: u64,
    tasks: &[Arc<Vec<(u64, u64)>>],
) -> (Vec<(u64, u64)>, EngineRun) {
    let map_tasks: Vec<MapTask<u64, u64>> = tasks
        .iter()
        .enumerate()
        .map(|(j, pairs)| {
            let pairs = Arc::clone(pairs);
            MapTask::new(j as u32, move |ctx| {
                for &(k, v) in pairs.iter() {
                    ctx.emit(k, v);
                }
            })
        })
        .collect();
    let spec = JobSpec::new(
        "bench-shuffle",
        map_tasks,
        |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((*k, vs.len() as u64));
        },
    )
    .with_radix_keys()
    .with_wire_codec()
    .with_engine(engine_config(engine, threads, reducers).with_key_domain(key_domain));
    let out = run_job(&ClusterConfig::single_machine(), spec);
    (out.outputs, EngineRun::from_metrics(&out.metrics, engine))
}

/// A job of `tasks` map tasks that emit nothing, on the builder
/// workloads' cluster: the engine's fixed cost per round.
pub fn run_empty_job(engine: Engine, threads: usize, tasks: u32) -> EngineRun {
    let (cluster, reducers) = paper_cluster();
    let map_tasks: Vec<MapTask<WKey, f64>> =
        (0..tasks).map(|j| MapTask::new(j, |_ctx| {})).collect();
    let spec = JobSpec::new(
        "bench-empty",
        map_tasks,
        |_k: &WKey, _vs: &[f64], _ctx: &mut ReduceContext<(u64, f64)>| {},
    )
    .with_radix_keys()
    .with_wire_codec()
    .with_engine(engine_config(engine, threads, reducers));
    EngineRun::from_metrics(&run_job(&cluster, spec).metrics, engine)
}

/// The staged replay's engine stage for Send-Coef: task `j` emits its
/// precomputed local coefficients, the reducer sums per slot. Same key
/// and value types, codecs, hint and cluster as the builder's job, with
/// the map CPU and the builder's own accumulator taken out. Returns
/// `(slot, Σ)` in partition order.
pub fn run_coef_job(
    engine: Engine,
    threads: usize,
    u: u64,
    per_split: &[Arc<Vec<(u64, f64)>>],
) -> (Vec<(u64, f64)>, EngineRun) {
    let (cluster, reducers) = paper_cluster();
    let map_tasks: Vec<MapTask<WKey, f64>> = per_split
        .iter()
        .enumerate()
        .map(|(j, coefs)| {
            let coefs = Arc::clone(coefs);
            MapTask::new(j as u32, move |ctx| {
                for &(slot, w) in coefs.iter() {
                    ctx.emit(WKey::four(slot), w);
                }
            })
        })
        .collect();
    let spec = JobSpec::new(
        "bench-coef",
        map_tasks,
        |k: &WKey, vs: &[f64], ctx: &mut ReduceContext<(u64, f64)>| {
            ctx.emit((k.id, vs.iter().sum()));
        },
    )
    .with_radix_keys()
    .with_wire_codec()
    .with_engine(engine_config(engine, threads, reducers).with_key_domain(u));
    let out = run_job(&cluster, spec);
    (out.outputs, EngineRun::from_metrics(&out.metrics, engine))
}

/// `RadixSorter` with its scratch recycled across runs, as map workers
/// keep theirs.
#[derive(Default)]
pub struct Sorter(RadixSorter);

impl Sorter {
    pub fn sort(&mut self, pairs: &mut [(u64, u64)]) {
        self.0.sort(pairs);
    }
}

// ---------------------------------------------------------------- wh-core

/// A k-term wavelet histogram.
#[derive(Clone, Debug)]
pub struct Hist(WaveletHistogram);

impl Hist {
    pub fn new(log_u: u32, coefs: impl IntoIterator<Item = (u64, f64)>) -> Self {
        Self(WaveletHistogram::new(domain(log_u), coefs))
    }

    pub fn coefficients(&self) -> &[(u64, f64)] {
        self.0.coefficients()
    }

    pub fn bit_identical(&self, other: &Hist) -> bool {
        let (a, b) = (self.coefficients(), other.coefficients());
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Builder {
    SendCoef,
    HWTopk,
    TwoLevelS { epsilon: f64, seed: u64 },
}

/// `HistogramBuilder::build` on the paper cluster, one reducer per slave.
pub fn build(
    builder: Builder,
    engine: Engine,
    threads: usize,
    data: &Data,
    k: usize,
) -> (Hist, EngineRun) {
    let (cluster, reducers) = paper_cluster();
    let config = engine_config(engine, threads, reducers);
    let out = match builder {
        Builder::SendCoef => SendCoef::new()
            .with_engine(config)
            .build(&data.0, &cluster, k),
        Builder::HWTopk => HWTopk::new()
            .with_engine(config)
            .build(&data.0, &cluster, k),
        Builder::TwoLevelS { epsilon, seed } => TwoLevelS::new(epsilon, seed)
            .with_engine(config)
            .build(&data.0, &cluster, k),
    };
    (
        Hist(out.histogram),
        EngineRun::from_metrics(&out.metrics, engine),
    )
}

/// Ground truth for a dataset: the exact coefficients, the histogram the
/// `Centralized` oracle selects from them, and the ideal k-term SSE.
pub struct Oracle {
    evaluator: Evaluator,
    reference: Hist,
    ideal_sse: f64,
}

impl Oracle {
    /// From the exact frequency vector (the caller's parallel scan):
    /// dense Haar transform, then `Centralized`'s selection.
    pub fn new(data: &Data, counts: Vec<u64>, k: usize) -> Self {
        let mut exact: Vec<f64> = counts.into_iter().map(|c| c as f64).collect();
        wh_wavelet::haar::forward_in_place(&mut exact);
        let reference = Hist(WaveletHistogram::new(
            data.0.domain(),
            top_k(exact.iter().enumerate().map(|(s, &c)| (s as u64, c)), k),
        ));
        let evaluator = Evaluator::from_exact(exact);
        let ideal_sse = evaluator.ideal_sse(k);
        Self {
            evaluator,
            reference,
            ideal_sse,
        }
    }

    pub fn reference(&self) -> &Hist {
        &self.reference
    }

    pub fn sse_over_ideal(&self, hist: &Hist) -> f64 {
        self.evaluator.sse(&hist.0) / self.ideal_sse
    }

    /// SSE of `hist` beyond the ideal k-term SSE.
    pub fn excess_sse(&self, hist: &Hist) -> f64 {
        self.evaluator.sse(&hist.0) - self.ideal_sse
    }
}

/// An incrementally maintained histogram (the delta-build path).
#[derive(Clone, PartialEq)]
pub struct Maintained(MaintainedHistogram);

impl Maintained {
    pub fn new(log_u: u32, k: usize) -> Self {
        Self(MaintainedHistogram::new(domain(log_u), k))
    }

    pub fn merge_delta(&mut self, delta: &[(u64, u64)]) {
        self.0.merge_delta(delta.iter().copied());
    }

    pub fn snapshot(&self) -> Hist {
        Hist(self.0.snapshot())
    }

    pub fn total_records(&self) -> u64 {
        self.0.total_records()
    }
}

// ------------------------------------------------- wh-wavelet, wh-topk

/// `sparse_transform` of one split's frequency map, sorted by slot as
/// the builders emit it.
pub fn sparse_transform(log_u: u32, freq: &FreqMap) -> Vec<(u64, f64)> {
    let coefs =
        wh_wavelet::sparse_transform(domain(log_u), freq.iter().map(|(&x, &c)| (x, c as f64)));
    let mut sorted: Vec<(u64, f64)> = coefs.into_iter().collect();
    sorted.sort_unstable_by_key(|&(slot, _)| slot);
    sorted
}

/// `top_k_magnitude`.
pub fn top_k(candidates: impl IntoIterator<Item = (u64, f64)>, k: usize) -> Vec<(u64, f64)> {
    wh_wavelet::top_k_magnitude(candidates, k)
        .into_iter()
        .map(|e| (e.slot, e.value))
        .collect()
}

/// In-memory nodes of the per-split coefficients, for [`two_sided`].
pub struct TopkNodes(Vec<InMemoryNode>);

impl TopkNodes {
    pub fn new(per_split: &[Arc<Vec<(u64, f64)>>]) -> Self {
        Self(
            per_split
                .iter()
                .map(|c| InMemoryNode::new(c.iter().copied()))
                .collect(),
        )
    }
}

/// `two_sided_topk`: the three-round protocol without an engine. Returns
/// the top-k and the items uploaded over all rounds.
pub fn two_sided(nodes: &TopkNodes, k: usize) -> (Vec<(u64, f64)>, u64) {
    let out = two_sided_topk(&nodes.0, k);
    (out.topk, out.comm.total_pairs())
}

// ------------------------------------------------------------ wh-sampling

/// TwoLevel-S's sampling parameters for a dataset.
pub struct Sampling(SamplingConfig);

impl Sampling {
    pub fn new(epsilon: f64, data: &Data) -> Self {
        Self(SamplingConfig::new(epsilon, data.splits(), data.records()))
    }

    /// First-level sample size of a split of `n_j` records.
    pub fn split_sample_size(&self, n_j: u64, seed: u64) -> u64 {
        self.0.split_sample_size_seeded(n_j, seed)
    }

    /// Second-level emission of one split's sample counts; returns the
    /// number of pairs it would ship.
    pub fn emit(&self, counts: &FreqMap, seed: u64) -> usize {
        wh_sampling::two_level::emit(counts, &self.0, &mut SplitMix64::new(seed)).len()
    }
}

// --------------------------------------------------- wh-query, wh-serve

pub type Query1d = (u64, u64);
pub type Query2d = (u64, u64, u64, u64);

/// The k-term histogram of a dense frequency vector (serve workloads
/// publish synthetic histograms; no engine runs).
pub fn hist_of_frequencies(log_u: u32, mut freq: Vec<f64>, k: usize) -> Hist {
    wh_wavelet::haar::forward_in_place(&mut freq);
    Hist::new(
        log_u,
        top_k(freq.iter().enumerate().map(|(s, &c)| (s as u64, c)), k),
    )
}

pub struct Hist2d(WaveletHistogram2d);

/// The k-term 2-D histogram of a dense `u × u` grid.
pub fn hist2d_of_grid(log_u: u32, grid: &[f64], k: usize) -> Hist2d {
    let d = domain(log_u);
    let u = d.u();
    let w = wh_wavelet::twod::forward2d(d, grid);
    let top = top_k(
        w.iter()
            .enumerate()
            .map(|(i, &c)| (wh_wavelet::twod::pack_slot(i as u64 / u, i as u64 % u), c)),
        k,
    );
    Hist2d(WaveletHistogram2d::new(d, top))
}

#[derive(Default)]
pub struct Scratch(BatchScratch);

#[derive(Default)]
pub struct Scratch2d(BatchScratch2D);

/// The compiled (direct, unsharded) 1-D query form.
#[derive(Clone)]
pub struct Compiled(CompiledHistogram);

impl Compiled {
    pub fn compile(hist: &Hist) -> Self {
        Self(CompiledHistogram::compile(&hist.0))
    }

    pub fn recompile(&mut self, hist: &Hist) {
        self.0.recompile(&hist.0);
    }

    pub fn segments(&self) -> usize {
        self.0.num_segments()
    }

    /// `ShardedHistogram::shard`, as `publish` does per dataset.
    pub fn shard(&self, shards: usize) -> usize {
        ShardedHistogram::shard(&self.0, shards).num_shards()
    }

    pub fn selectivity_batch(
        &self,
        queries: &[Query1d],
        records: u64,
        scratch: &mut Scratch,
        out: &mut [f64],
    ) -> Result<(), String> {
        self.0
            .try_selectivity_batch_into(queries, records, &mut scratch.0, out)
            .map_err(|e| e.to_string())
    }

    pub fn selectivity(&self, (lo, hi): Query1d, records: u64) -> Result<f64, String> {
        self.0
            .try_selectivity(lo, hi, records)
            .map_err(|e| e.to_string())
    }

    pub fn point_estimate(&self, x: u64) -> Result<f64, String> {
        self.0.try_point_estimate(x).map_err(|e| e.to_string())
    }
}

/// The compiled 2-D (summed-area) query form.
#[derive(Clone)]
pub struct Compiled2d(CompiledHistogram2D);

impl Compiled2d {
    pub fn compile(hist: &Hist2d) -> Self {
        Self(CompiledHistogram2D::compile(&hist.0))
    }

    pub fn rectangle_sum_batch(
        &self,
        queries: &[Query2d],
        scratch: &mut Scratch2d,
        out: &mut [f64],
    ) -> Result<(), String> {
        self.0
            .try_rectangle_sum_batch_into(queries, &mut scratch.0, out)
            .map_err(|e| e.to_string())
    }

    pub fn rectangle_sum(&self, query: Query2d) -> Result<f64, String> {
        self.0.try_rectangle_sum(query).map_err(|e| e.to_string())
    }
}

/// The sharded, epoch-swapped serving tier.
pub struct Tier(ServeTier);

impl Tier {
    pub fn new(shards: usize) -> Self {
        Self(ServeTier::new(shards))
    }

    pub fn publish(&self, id: u32, compiled: &Compiled, records: u64) -> u64 {
        self.0.publish(id, &compiled.0, records)
    }

    pub fn publish2d(&self, id: u32, compiled: &Compiled2d, records: u64) -> u64 {
        self.0.publish2d(id, &compiled.0, records)
    }

    /// `try_publish` of a rebuild that hands back `compiled`'s refreshed
    /// form; returns the new generation.
    pub fn try_publish(
        &self,
        id: u32,
        records: u64,
        rebuild: impl FnOnce() -> Compiled,
    ) -> Result<u64, String> {
        self.0
            .try_publish(id, records, || Ok::<_, String>(rebuild().0))
    }

    pub fn handle(&self) -> Handle<'_> {
        Handle(self.0.handle())
    }
}

/// One serving thread's handle; every probe is a `try_*` call.
pub struct Handle<'t>(ServeHandle<'t>);

impl Handle<'_> {
    /// The generation this handle serves from after refreshing.
    pub fn generation(&mut self) -> u64 {
        self.0.snapshot().generation()
    }

    pub fn selectivity_batch(
        &mut self,
        id: u32,
        queries: &[Query1d],
        out: &mut [f64],
    ) -> Result<(), String> {
        self.0
            .try_selectivity_batch_into(id, queries, out)
            .map_err(|e| e.to_string())
    }

    pub fn selectivity(&mut self, id: u32, (lo, hi): Query1d) -> Result<f64, String> {
        self.0
            .try_selectivity(id, lo, hi)
            .map_err(|e| e.to_string())
    }

    pub fn point_estimate(&mut self, id: u32, x: u64) -> Result<f64, String> {
        self.0.try_point_estimate(id, x).map_err(|e| e.to_string())
    }

    pub fn rectangle_sum_batch(
        &mut self,
        id: u32,
        queries: &[Query2d],
        out: &mut [f64],
    ) -> Result<(), String> {
        self.0
            .try_rectangle_sum_batch_into(id, queries, out)
            .map_err(|e| e.to_string())
    }

    pub fn rectangle_sum(&mut self, id: u32, query: Query2d) -> Result<f64, String> {
        self.0
            .try_rectangle_sum(id, query)
            .map_err(|e| e.to_string())
    }
}
