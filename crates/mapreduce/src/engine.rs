//! The pipelined, partition-parallel execution engine.
//!
//! ```text
//!  map workers (N threads)          shuffle              reduce workers (P threads)
//! ┌──────────────────────────┐                        ┌───────────────────────────┐
//! │ task → MapContext        │   regroup runs by      │ partition 0: dense table  │
//! │   ├─ count pairs, bytes  │   partition, splits    │   or one stable sort      │──┐
//! │   └─ partition pairs,    │   stay in id order     │   → reduce(key, values)   │  │ stitch
//! │      arrival order kept  │ ─────────────────────▶ │ partition 1: …            │──┼─▶ outputs
//! │      = the "spill"       │                        │ …                         │  │ + finish
//! │                          │                        │ partition R-1: …          │──┘
//! └──────────────────────────┘                        └───────────────────────────┘
//! ```
//!
//! Three properties make this both fast and exactly deterministic:
//!
//! 1. **Map workers partition and never sort.** A spill is the task's
//!    pairs in arrival order, one run per partition — or one flat run
//!    that the shuffle scatters, for tasks too small to be worth `R`
//!    partition buffers. What a map worker ships does not depend on how
//!    its partitions will be reduced.
//! 2. **Each partition picks its route where it is reduced** — recorded
//!    per partition in [`RunMetrics::reduce_strategies`]:
//!
//!    | [`ReduceStrategy`] | when | what a partition does |
//!    |---|---|---|
//!    | `DenseReduce` | radix codec, [`EngineConfig::key_domain_hint`] ≤ 2²², fewer than 2³¹ pairs | aggregates its runs straight into a recycled slot array indexed by `radix / R` and sized to the partition's actual key range (`dense::DenseReducer`) — no sort |
//!    | `SortAtReduce` | otherwise | one stable sort of its split-ordered run concatenation, then groups adjacent keys |
//!
//!    Jobs whose keys carry a [`RadixKey`](crate::RadixKey) codec
//!    ([`crate::JobSpec::with_radix_keys`]) sort with the LSD radix sort
//!    in [`crate::radix`] — `O(n · key bytes)`, bit-identical to the
//!    stable comparison sort that jobs without one use. Both routes
//!    deliver the identical sequence to the reduce function, so outputs
//!    are bit-identical across routes (differential tests enforce it).
//! 3. **Reduce partitions run in parallel with deterministic stitching.**
//!    Every partition gets its own [`ReduceContext`]; outputs and charged
//!    CPU are recombined in partition-index order, so the result — outputs,
//!    metrics, and float summation order — is identical for any
//!    `reducer_parallelism`, including 1.
//!
//! Workers recycle their buffers across work items on both sides: map
//! workers keep the emit buffer per worker, not per task, and reduce
//! workers keep a radix scratch plus a `DenseReducer` table per thread,
//! recycled across the partitions that thread reduces. Tiny jobs skip
//! thread machinery entirely: the map loop runs inline when only one
//! worker would be spawned, and the reduce phase stays serial below a
//! pair-count spawn threshold.
//!
//! The determinism contract of the seed engine is preserved exactly: within
//! a partition, the reduce function observes key groups in key order and
//! each group's values in `(split id, arrival order)` order. The seed
//! engine itself survives as [`crate::reference`] — an executable
//! specification that differential tests compare this engine against.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::context::{MapContext, ReduceContext};
use crate::cost::{round_time, ClusterConfig, ReduceWork, TaskWork};
use crate::dense::DenseReducer;
use crate::job::{JobOutput, JobSpec, MapTask};
use crate::metrics::{ReduceStrategy, RunMetrics};
use crate::radix::{sort_pairs_with, RadixScratch};
use crate::wire::WireSize;
use wh_wavelet::hash::FxHasher;

/// Borrowed form of the shared reduce function, passed into the reduce
/// routes.
pub(crate) type ReduceDyn<K, V, R> = dyn Fn(&K, &[V], &mut ReduceContext<R>) + Send + Sync;

/// Which executor [`crate::run_job`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// The pipelined, partition-parallel engine in this module.
    #[default]
    Pipelined,
    /// The seed engine (global sort + sequential reduce), kept as the
    /// executable specification and benchmark baseline.
    Reference,
    /// Map workers as forked child processes streaming their spills to
    /// the coordinator over the wire encoding ([`crate::worker`]).
    /// Requires [`crate::JobSpec::with_wire_codec`]; bit-identical to the
    /// in-process engines, and the only mode that measures
    /// [`crate::metrics::WireTraffic`]. Unix only.
    MultiProcess,
}

/// Execution-engine knobs, orthogonal to the algorithmic content of a
/// [`JobSpec`]. Every knob preserves the deterministic output contract;
/// they only trade memory, parallelism, and constant factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Executor selection: the pipelined engine, the seed reference
    /// engine, or forked map-worker processes.
    pub mode: EngineMode,
    /// Number of reduce partitions `R` (the paper always uses 1). Keys go
    /// to partitions by [`default_partition`] mod `R`: a radix key to
    /// partition `radix mod R`, which makes each partition's dense table
    /// `R` times narrower.
    pub num_reducers: u32,
    /// Map-side worker threads; `0` means one per available core, capped
    /// at the task count. Both engines honor it, so a benchmark can pin
    /// identical thread budgets on both sides of a comparison.
    pub map_parallelism: usize,
    /// Reduce-side worker threads; `0` means one per available core,
    /// capped at the partition count.
    pub reducer_parallelism: usize,
    /// Exclusive upper bound on the radix image of every key the job
    /// emits, when the algorithm knows one (item keys in `[0, u)`,
    /// coefficient indices, sketch counter indices…). Combined with
    /// [`crate::JobSpec::with_radix_keys`] it lets reduce partitions group
    /// through the dense flat-array table instead of sorting. Purely an
    /// execution hint: outputs and metrics are unchanged, but a hint
    /// smaller than an actual key **panics** (fail loudly rather than
    /// mis-group). Ignored by the reference engine.
    pub key_domain_hint: Option<u64>,
    /// Multi-process mode only: how many times per round the coordinator
    /// may respawn a worker slot to re-execute its failed worker's
    /// *unfinished* tasks before surfacing the failure as an error. `0`
    /// disables recovery (the first failure aborts the job). Committed
    /// tasks are only replayed to rebuild state, never re-sent, and
    /// recovered runs are bit-identical to fault-free runs — see
    /// [`crate::worker`].
    pub max_task_retries: u32,
    /// Base backoff before a respawn, in milliseconds; doubles per
    /// consecutive retry round.
    pub retry_backoff_ms: u64,
    /// Multi-process mode only: how long a coordinator reader waits for
    /// the next byte from a worker before declaring it hung
    /// ([`crate::EngineError::WorkerTimeout`]). An *idle* deadline — a
    /// slow worker that keeps streaming never trips it. `0` disables the
    /// deadline (block forever, PR 7 behavior).
    pub read_deadline_ms: u64,
    /// Deterministic fault injection for the multi-process mode; the
    /// empty plan (default) injects nothing. See [`crate::FaultPlan`].
    pub faults: crate::fault::FaultPlan,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            mode: EngineMode::Pipelined,
            num_reducers: 1,
            map_parallelism: 0,
            reducer_parallelism: 0,
            key_domain_hint: None,
            max_task_retries: 2,
            retry_backoff_ms: 10,
            read_deadline_ms: 30_000,
            faults: crate::fault::FaultPlan::none(),
        }
    }
}

impl EngineConfig {
    /// The default pipelined configuration.
    pub fn pipelined() -> Self {
        Self::default()
    }

    /// The seed reference engine (global sort, sequential reduce).
    pub fn reference() -> Self {
        Self {
            mode: EngineMode::Reference,
            ..Self::default()
        }
    }

    /// The multi-process engine: map workers as child processes, forked
    /// once per job, shipping spills over the wire encoding.
    /// `map_parallelism` becomes the worker-*process* count (`0` = one
    /// per core, capped at the task count).
    pub fn multi_process() -> Self {
        Self {
            mode: EngineMode::MultiProcess,
            ..Self::default()
        }
    }

    /// Sets the number of reduce partitions.
    pub fn with_reducers(mut self, n: u32) -> Self {
        assert!(n >= 1, "need at least one reducer");
        self.num_reducers = n;
        self
    }

    /// Sets the map-side thread count (`0` = one per available core).
    pub fn with_map_parallelism(mut self, threads: usize) -> Self {
        self.map_parallelism = threads;
        self
    }

    /// Sets the reduce-side thread count (`0` = one per available core).
    pub fn with_reducer_parallelism(mut self, threads: usize) -> Self {
        self.reducer_parallelism = threads;
        self
    }

    /// Declares that every key's radix image lies in `[0, domain)` —
    /// see [`EngineConfig::key_domain_hint`].
    pub fn with_key_domain(mut self, domain: u64) -> Self {
        self.key_domain_hint = Some(domain);
        self
    }

    /// Sets the retry budget for failed workers' unfinished tasks
    /// (multi-process mode; `0` disables recovery).
    pub fn with_task_retries(mut self, retries: u32) -> Self {
        self.max_task_retries = retries;
        self
    }

    /// Sets the base respawn backoff in milliseconds.
    pub fn with_retry_backoff_ms(mut self, millis: u64) -> Self {
        self.retry_backoff_ms = millis;
        self
    }

    /// Sets the per-read idle deadline on worker pipes in milliseconds
    /// (multi-process mode; `0` disables the deadline).
    pub fn with_read_deadline_ms(mut self, millis: u64) -> Self {
        self.read_deadline_ms = millis;
        self
    }

    /// Arms a deterministic [`crate::FaultPlan`] (multi-process mode).
    pub fn with_faults(mut self, faults: crate::fault::FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Resolves [`EngineConfig::map_parallelism`] into the map worker
    /// count for `task_count` tasks. **Both** engines must call this —
    /// engine-vs-engine benchmarks rely on the two resolving an
    /// identical thread budget from the same knob.
    pub(crate) fn map_workers(&self, task_count: usize) -> usize {
        resolve_threads(self.map_parallelism).min(task_count.max(1))
    }
}

/// Resolves a thread-count knob (`0` = one per available core) on either
/// side of the shuffle. When the platform cannot report its core count
/// the fallback is one thread: thread counts never change outputs, and
/// serial is the only guess that cannot oversubscribe an unknown machine.
fn resolve_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        n => n,
    }
}

/// The multiplicative inverse of the Fx seed mod 2⁶⁴: multiplying an Fx
/// state by it undoes the hasher's final multiply.
const FX_SEED_INVERSE: u64 = 0x2040_003d_7809_70bd;

/// The partitioner, taken modulo the reducer count `R`: an Fx hash with
/// its final multiply undone. A key that hashes as one integer — every
/// [`RadixKey`](crate::RadixKey) does — maps to that integer, its radix,
/// so partition `p` holds exactly the radixes `≡ p (mod R)`, as under
/// Hadoop's `HashPartitioner`, and its dense reduce table spans `1/R` of
/// the key range. Keys that hash as several words (tuples, strings) are
/// still Fx-mixed, so they still spread. The price is Hadoop's too: keys
/// that all share one residue mod `R` land in one partition — a load
/// imbalance, never a correctness issue.
pub fn default_partition<K: Hash>(key: &K) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish().wrapping_mul(FX_SEED_INVERSE)
}

/// Domains above this cap fall back from the reduce-side `DenseReducer`
/// to sort-at-reduce: a `u32` slot per domain value must stay
/// small enough (≤ 16 MiB per worker here) that a flat array is an
/// optimization, not a memory liability. The table additionally sizes
/// itself to each partition's actual key range, so this bounds the worst
/// case only.
const DENSE_DOMAIN_MAX: u64 = 1 << 22;

/// Tasks of a multi-partition job with fewer pairs than this ship a flat
/// (unpartitioned) spill and let the shuffle scatter it: allocating
/// `num_reducers` per-task partition buffers would cost more than the
/// pairs they hold. Larger tasks scatter inside the map worker, where
/// the hashing parallelizes.
const SCATTER_MIN_PAIRS: usize = 1024;

/// One map task's spill, plus the task's accounting. Pairs keep their
/// arrival order. `scattered` spills carry one run per partition; flat
/// spills carry the task's pairs as a single unpartitioned list — the
/// shape tiny tasks ship in, where per-task partition buffers would cost
/// more than the pairs they hold and the shuffle scatters instead.
pub(crate) struct TaskSpill<K, V> {
    pub(crate) split_id: u32,
    pub(crate) runs: Vec<Vec<(K, V)>>,
    pub(crate) scattered: bool,
    pub(crate) work: TaskWork,
    pub(crate) records_read: u64,
    pub(crate) pairs: u64,
    pub(crate) bytes: u64,
}

/// Worker-local state of the map phase, recycled across the tasks this
/// worker executes: the emit buffer handed to each [`MapContext`].
pub(crate) struct MapWorker<K, V> {
    pairs_buf: Vec<(K, V)>,
}

impl<K, V> MapWorker<K, V> {
    pub(crate) fn new() -> Self {
        Self {
            pairs_buf: Vec::new(),
        }
    }
}

/// Executes round `round` of `spec`'s job on the pipelined engine; the
/// tasks stay in `spec`, state and all, for the next round. Entry point
/// is [`crate::Job::round`], which dispatches on [`EngineConfig::mode`].
pub(crate) fn execute<K, V, R>(
    cluster: &ClusterConfig,
    spec: &mut JobSpec<K, V, R>,
    round: u32,
    broadcast: &Arc<[u8]>,
) -> JobOutput<R>
where
    K: Ord + Hash + Send + WireSize + 'static,
    V: Send + WireSize + 'static,
    R: Send,
{
    let engine = spec.engine;
    assert!(engine.num_reducers >= 1, "need at least one reducer");
    let nparts = engine.num_reducers as usize;

    // ---- Map phase (parallel): run and partition, inside the worker
    // thread that owns the task. ----
    let map_start = Instant::now();
    let task_queue: Vec<Mutex<&mut MapTask<K, V>>> =
        spec.map_tasks.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let spills: Mutex<Vec<TaskSpill<K, V>>> = Mutex::new(Vec::with_capacity(task_queue.len()));
    let workers = engine.map_workers(task_queue.len());

    let run_tasks = |state: &mut MapWorker<K, V>| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= task_queue.len() {
            break;
        }
        let mut task = task_queue[i].lock();
        let spill = run_one_task(&mut task, round, broadcast, nparts, state);
        spills.lock().push(spill);
    };

    if workers <= 1 {
        // Serial fast path: one worker would be spawned only to be
        // joined again — run its loop inline on this thread instead.
        run_tasks(&mut MapWorker::new());
    } else {
        run_workers(workers, || run_tasks(&mut MapWorker::new()));
    }

    drop(task_queue);
    let mut per_task = spills.into_inner();
    per_task.sort_by_key(|t| t.split_id);
    let wall_map_s = map_start.elapsed().as_secs_f64();

    shuffle_reduce_finish(cluster, per_task, spec, broadcast.len() as u64, wall_map_s)
}

/// Runs `work` on `n` scoped threads and joins every one of them,
/// re-raising the first panic.
///
/// `std::thread::scope` by itself only waits until the closures have
/// returned: the OS threads may still be exiting when the next phase
/// spawns its own. The allocator then cannot hand the exiting threads'
/// arenas to the new ones and opens fresh arenas instead, so how many
/// arenas hold a build's freed memory — and with it the process's peak
/// RSS — would depend on that race. A joined thread has exited; each
/// phase inherits the arenas of the one before.
fn run_workers(n: usize, work: impl Fn() + Sync) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n).map(|_| scope.spawn(&work)).collect();
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// Runs one map task's round to a [`TaskSpill`]: execute the closure,
/// then partition its pairs or ship them flat, in arrival order. This is
/// the unit of map work shared **verbatim** by the threaded executor
/// above and the forked workers of [`crate::worker`] — sharing it is what
/// makes the two modes bit-identical by construction.
pub(crate) fn run_one_task<K, V>(
    task: &mut MapTask<K, V>,
    round: u32,
    broadcast: &Arc<[u8]>,
    nparts: usize,
    state: &mut MapWorker<K, V>,
) -> TaskSpill<K, V>
where
    K: Hash + WireSize,
    V: WireSize,
{
    let mut ctx = MapContext::new(
        task.split_id,
        round,
        broadcast,
        std::mem::take(&mut state.pairs_buf),
    );
    (task.run)(&mut ctx);
    let MapContext {
        mut pairs,
        records_read,
        bytes_read,
        cpu_ops,
        ..
    } = ctx;
    let mut npairs = 0u64;
    let mut nbytes = 0u64;
    for (k, v) in &pairs {
        npairs += 1;
        nbytes += k.wire_bytes() + v.wire_bytes();
    }
    let (runs, scattered): (Vec<Vec<(K, V)>>, bool) = if nparts == 1 {
        (vec![std::mem::take(&mut pairs)], true)
    } else if pairs.len() < SCATTER_MIN_PAIRS {
        // Tiny task: ship the pairs flat and let the shuffle scatter
        // them — R per-task partition buffers would cost more than the
        // pairs they hold.
        (vec![std::mem::take(&mut pairs)], false)
    } else {
        // Reserve the expected per-partition share up front so the
        // scatter loop rarely reallocates.
        let expect = pairs.len() / nparts + 16;
        let mut rs: Vec<Vec<(K, V)>> = (0..nparts).map(|_| Vec::with_capacity(expect)).collect();
        for (k, v) in pairs.drain(..) {
            let p = (default_partition(&k) % nparts as u64) as usize;
            rs[p].push((k, v));
        }
        (rs, true)
    };
    // The (now empty) emit buffer keeps its allocation for the next
    // task this worker picks up.
    state.pairs_buf = pairs;
    TaskSpill {
        split_id: task.split_id,
        runs,
        scattered,
        work: TaskWork {
            bytes_scanned: bytes_read,
            cpu_ops,
        },
        records_read,
        pairs: npairs,
        bytes: nbytes,
    }
}

/// Everything after the map phase: regroup spills into per-partition
/// reduce inputs, reduce `spec`'s function (optionally in parallel),
/// stitch outputs, run the Close hook, and assemble [`RunMetrics`].
/// `per_task` must be sorted by split id. Shared by the threaded executor
/// and the multi-process coordinator ([`crate::worker`]) — everything
/// downstream of map transport is the same code in both modes.
pub(crate) fn shuffle_reduce_finish<K, V, R>(
    cluster: &ClusterConfig,
    per_task: Vec<TaskSpill<K, V>>,
    spec: &mut JobSpec<K, V, R>,
    broadcast_bytes: u64,
    wall_map_s: f64,
) -> JobOutput<R>
where
    K: Ord + Hash + Send,
    V: Send,
    R: Send,
{
    let (engine, reduce) = (spec.engine, spec.reduce.as_ref());
    let nparts = engine.num_reducers as usize;
    // ---- Shuffle: regroup spill runs into per-partition reduce inputs
    // (runs stay in split-id order) and account communication. ----
    let shuffle_start = Instant::now();
    let mut metrics = RunMetrics {
        rounds: 1,
        broadcast_bytes,
        ..Default::default()
    };
    let mut task_work = Vec::with_capacity(per_task.len());
    let mut partitions: Vec<Vec<Vec<(K, V)>>> = (0..nparts)
        .map(|_| Vec::with_capacity(per_task.len()))
        .collect();
    // Flat spills from tiny tasks scatter here, accumulating into one
    // consolidated tail run per partition. Tasks arrive in split-id
    // order, and a tail is flushed ahead of any scattered run that
    // follows it, so every partition's runs stay in (split id, arrival)
    // order — which is all either reduce route needs.
    let mut tails: Vec<Vec<(K, V)>> = (0..nparts).map(|_| Vec::new()).collect();
    for t in per_task {
        task_work.push(t.work);
        metrics.records_scanned += t.records_read;
        metrics.bytes_scanned += t.work.bytes_scanned;
        metrics.cpu_ops += t.work.cpu_ops;
        metrics.map_output_pairs += t.pairs;
        metrics.shuffle_bytes += t.bytes;
        if t.scattered {
            for (p, run) in t.runs.into_iter().enumerate() {
                if !run.is_empty() {
                    if !tails[p].is_empty() {
                        partitions[p].push(std::mem::take(&mut tails[p]));
                    }
                    partitions[p].push(run);
                }
            }
        } else {
            for run in t.runs {
                for (k, v) in run {
                    let p = (default_partition(&k) % nparts as u64) as usize;
                    tails[p].push((k, v));
                }
            }
        }
    }
    for (p, tail) in tails.into_iter().enumerate() {
        if !tail.is_empty() {
            partitions[p].push(tail);
        }
    }
    let wall_shuffle_s = shuffle_start.elapsed().as_secs_f64();

    // ---- Reduce phase: one context per partition, optionally in
    // parallel, stitched in partition-index order. ----
    let reduce_start = Instant::now();
    let threads = resolve_threads(engine.reducer_parallelism).min(nparts);
    let plan = ReducePlan {
        codec: spec.key_codec,
        domain_hint: engine.key_domain_hint,
        nparts: engine.num_reducers,
        dense_pair_cap: crate::dense::FIRST_ARRIVAL as usize,
    };
    type Slot<K, V, R> = Mutex<(Option<Vec<Vec<(K, V)>>>, Option<ReduceContext<R>>)>;
    let slots: Vec<Slot<K, V, R>> = partitions
        .into_iter()
        .map(|runs| Mutex::new((Some(runs), None)))
        .collect();
    let next_part = AtomicUsize::new(0);
    let reduce_parts = || {
        // Per-thread scratch (radix buffers + dense table), recycled
        // across the partitions this thread reduces — the reduce-side
        // mirror of the map workers' reuse.
        let mut scratch = ReduceScratch::new();
        loop {
            let p = next_part.fetch_add(1, Ordering::Relaxed);
            if p >= slots.len() {
                break;
            }
            let runs = slots[p].lock().0.take().expect("each partition taken once");
            let mut rctx = ReduceContext::new();
            reduce_partition(runs, p as u32, plan, &mut scratch, reduce, &mut rctx);
            slots[p].lock().1 = Some(rctx);
        }
    };
    if threads <= 1 {
        // As in the map phase: one thread would be spawned only to be
        // joined again, so its loop runs inline.
        reduce_parts();
    } else {
        run_workers(threads, reduce_parts);
    }
    let contexts = slots
        .into_iter()
        .map(|s| s.into_inner().1.expect("every partition reduced"));

    // Deterministic stitching: outputs and charged CPU recombine in
    // partition order, so float summation order is independent of the
    // thread count. The per-partition strategy lands in the metrics here.
    let mut outputs = Vec::new();
    let mut reduce_cpu = 0.0f64;
    for mut rctx in contexts {
        if let Some(s) = rctx.strategy {
            metrics.reduce_strategies.record(s);
        }
        reduce_cpu += rctx.cpu_ops;
        outputs.append(&mut rctx.outputs);
    }
    if let Some(f) = spec.finish.as_mut() {
        // The Close hook sees the stitched reducer emissions and may
        // replace them (`ReduceContext::take_outputs`) or append to them.
        let mut rctx = ReduceContext::new();
        rctx.outputs = outputs;
        f(&mut rctx);
        reduce_cpu += rctx.cpu_ops;
        outputs = rctx.outputs;
    }
    let wall_reduce_s = reduce_start.elapsed().as_secs_f64();

    metrics.cpu_ops += reduce_cpu;
    metrics.sim_time_s = round_time(
        cluster,
        &task_work,
        ReduceWork {
            cpu_ops: reduce_cpu,
        },
        metrics.shuffle_bytes,
        metrics.broadcast_bytes,
    );
    metrics.wall_map_s = wall_map_s;
    metrics.wall_shuffle_s = wall_shuffle_s;
    metrics.wall_reduce_s = wall_reduce_s;

    JobOutput { outputs, metrics }
}

/// Everything a reduce worker needs to pick and run one partition's
/// route. One per job; `Copy` so worker threads capture it by value.
struct ReducePlan<K> {
    codec: Option<fn(&K) -> u64>,
    domain_hint: Option<u64>,
    /// The job's partition count `R`: the dense table indexes partition
    /// `p`'s keys by `radix / R`, every radix there being `≡ p (mod R)`.
    nparts: u32,
    /// Pair count from which a partition cannot reduce densely: the
    /// dense table tags group indices into `u32` slots, so a partition
    /// holding `FIRST_ARRIVAL` (2³¹) or more pairs would overflow its
    /// indexing. Production plans use exactly that constant; tests shrink
    /// it to exercise the fallback without 2³¹ pairs of memory.
    dense_pair_cap: usize,
}

impl<K> Clone for ReducePlan<K> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K> Copy for ReducePlan<K> {}

/// Per-reduce-worker scratch, recycled across every partition that
/// worker reduces: the radix-sort buffers (sort-at-reduce) and the dense
/// flat-array table (dense reduce) — the reduce-side mirror of the map
/// workers' per-thread buffer reuse.
struct ReduceScratch<K, V> {
    radix: RadixScratch,
    dense: DenseReducer<K, V>,
}

impl<K, V> ReduceScratch<K, V> {
    fn new() -> Self {
        Self {
            radix: RadixScratch::default(),
            dense: DenseReducer::new(),
        }
    }
}

/// Reduces partition `part` and invokes `reduce` per key group — key groups
/// in key order, values in `(split id, arrival order)` order. The runs
/// arrive unsorted, in split-id order, and the partition takes one of
/// two routes, decided here:
///
/// * `DenseReduce` when the job has a key codec and a domain hint no
///   wider than [`DENSE_DOMAIN_MAX`], and the partition holds fewer pairs
///   than [`ReducePlan::dense_pair_cap`]: the runs aggregate into the
///   recycled flat table, which emits groups in ascending radix (= key)
///   order.
/// * `SortAtReduce` otherwise: one stable sort of the split-ordered run
///   concatenation — radix with a codec, comparison without — so equal
///   keys keep `(split id, arrival order)`; then adjacent grouping.
///
/// Both routes deliver the identical key-group sequence. The route that
/// ran is recorded on the context, which the stitching loop folds into
/// [`RunMetrics::reduce_strategies`].
fn reduce_partition<K, V, R>(
    mut runs: Vec<Vec<(K, V)>>,
    part: u32,
    plan: ReducePlan<K>,
    scratch: &mut ReduceScratch<K, V>,
    reduce: &ReduceDyn<K, V, R>,
    rctx: &mut ReduceContext<R>,
) where
    K: Ord,
{
    let total: usize = runs.iter().map(Vec::len).sum();
    match (plan.codec, plan.domain_hint) {
        (Some(codec), Some(domain))
            if domain <= DENSE_DOMAIN_MAX && total < plan.dense_pair_cap =>
        {
            rctx.strategy = Some(ReduceStrategy::DenseReduce);
            let dense = &mut scratch.dense;
            dense.reduce_runs(runs, codec, domain, (part, plan.nparts), reduce, rctx);
        }
        (codec, _) => {
            rctx.strategy = Some(ReduceStrategy::SortAtReduce);
            let mut all = if runs.len() == 1 {
                runs.pop().expect("one run")
            } else {
                let mut all = Vec::with_capacity(total);
                for run in runs {
                    all.extend(run);
                }
                all
            };
            match codec {
                Some(codec) => sort_pairs_with(&mut all, codec, &mut scratch.radix),
                None => all.sort_by(|a, b| a.0.cmp(&b.0)),
            }
            reduce_sorted_run(all, reduce, rctx);
        }
    }
}

/// Groups adjacent equal keys of one already-sorted run — no comparisons
/// beyond equality.
fn reduce_sorted_run<K, V, R>(
    run: Vec<(K, V)>,
    reduce: &ReduceDyn<K, V, R>,
    rctx: &mut ReduceContext<R>,
) where
    K: Ord,
{
    let mut iter = run.into_iter();
    let Some((mut key, first)) = iter.next() else {
        return;
    };
    let mut values = vec![first];
    for (k, v) in iter {
        if k == key {
            values.push(v);
        } else {
            reduce(&key, &values, rctx);
            values.clear();
            key = k;
            values.push(v);
        }
    }
    reduce(&key, &values, rctx);
}

#[cfg(test)]
mod tests {
    use super::*;

    type Groups = Vec<(u32, Vec<u32>)>;

    /// The three plans a partition can be handed, with the route each
    /// must take: codec + dense domain, codec alone (radix sort), neither
    /// (comparison sort).
    fn plans() -> [(ReducePlan<u32>, ReduceStrategy); 3] {
        let radix = ReducePlan {
            codec: Some(|k: &u32| u64::from(*k)),
            domain_hint: None,
            nparts: 1,
            dense_pair_cap: crate::dense::FIRST_ARRIVAL as usize,
        };
        let dense = ReducePlan {
            domain_hint: Some(1 << 20),
            ..radix
        };
        let generic = ReducePlan {
            codec: None,
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
        plan: ReducePlan<u32>,
        scratch: &mut ReduceScratch<u32, u32>,
    ) -> (Groups, Option<ReduceStrategy>) {
        let reduce = |k: &u32, vs: &[u32], ctx: &mut ReduceContext<(u32, Vec<u32>)>| {
            ctx.emit((*k, vs.to_vec()));
        };
        let mut rctx = ReduceContext::new();
        reduce_partition(runs, 0, plan, scratch, &reduce, &mut rctx);
        (rctx.outputs, rctx.strategy)
    }

    /// Asserts that every route reduces `runs` to `want`, each taking the
    /// route its plan names.
    fn assert_every_route_yields(runs: Vec<Vec<(u32, u32)>>, want: &Groups) {
        for (plan, route) in plans() {
            let (got, ran) = reduce_with(runs.clone(), plan, &mut ReduceScratch::new());
            assert_eq!(ran, Some(route));
            assert_eq!(&got, want, "{route:?}, codec: {}", plan.codec.is_some());
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
        // a stable global sort by (key, run index).
        let mk_runs = |m: usize| -> Vec<Vec<(u32, u32)>> {
            (0..m)
                .map(|r| {
                    (0..600)
                        .map(|i| ((i * (r as u32 + 3)) % 17, (r * 1000 + i as usize) as u32))
                        .collect()
                })
                .collect()
        };
        for m in [2, 3, 8, 9, 13, 32] {
            let mut expected_pairs: Vec<(u32, usize, u32)> = mk_runs(m)
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
            assert_every_route_yields(mk_runs(m), &expected);
        }
    }

    #[test]
    fn reduce_scratch_recycles_across_partitions_and_strategies() {
        // One scratch driven through every route in sequence, the way a
        // reduce worker thread recycles it across partitions.
        let mut scratch = ReduceScratch::new();
        let runs = || vec![vec![(3u32, 2u32), (1, 1)], vec![(7, 4), (1, 3)]];
        let want = vec![(1, vec![1, 3]), (3, vec![2]), (7, vec![4])];
        for round in 0..3 {
            for (plan, route) in plans() {
                let (got, ran) = reduce_with(runs(), plan, &mut scratch);
                assert_eq!(got, want, "round {round}, {route:?}");
                assert_eq!(ran, Some(route));
            }
        }
    }

    /// Drives one partition through a dense plan with the given pair cap
    /// and returns the outputs plus the route that ran.
    fn dense_with_cap(runs: Vec<Vec<(u32, u32)>>, cap: usize) -> (Groups, Option<ReduceStrategy>) {
        let plan = ReducePlan {
            dense_pair_cap: cap,
            ..plans()[0].0
        };
        reduce_with(runs, plan, &mut ReduceScratch::new())
    }

    #[test]
    fn dense_overflow_replans_to_sort_at_reduce_at_the_boundary() {
        // 12 unsorted pairs; the boundary is exclusive below the cap —
        // `total == cap` is exactly the count the dense table's
        // tagged-u32 indexing cannot address, so it must re-plan.
        let runs = || -> Vec<Vec<(u32, u32)>> {
            vec![
                vec![(7u32, 0u32), (3, 1), (7, 2), (1, 3), (3, 4), (9, 5)],
                vec![(3, 6), (7, 7), (1, 8), (2, 9), (9, 10), (3, 11)],
            ]
        };
        let total = 12usize;
        let (dense_out, ran) = dense_with_cap(runs(), total + 1);
        assert_eq!(ran, Some(ReduceStrategy::DenseReduce));
        for (cap, label) in [(total, "total == cap"), (total - 1, "total > cap")] {
            let (fallback_out, ran) = dense_with_cap(runs(), cap);
            assert_eq!(
                ran,
                Some(ReduceStrategy::SortAtReduce),
                "{label}: overflow must re-plan, not panic"
            );
            assert_eq!(fallback_out, dense_out, "{label}: identical key groups");
        }
    }

    #[test]
    fn production_dense_pair_cap_is_the_tagged_u32_limit() {
        // The engine plans with exactly the dense table's indexing limit:
        // the high bit of a u32 slot entry tags first arrivals, leaving
        // 2³¹ addressable pairs. A partition of that size re-plans; one
        // pair fewer stays dense (`reduce_runs` asserts
        // `total < FIRST_ARRIVAL`, kept as defense in depth).
        assert_eq!(crate::dense::FIRST_ARRIVAL as usize, 1usize << 31);
        assert_eq!(
            crate::dense::FIRST_ARRIVAL & (crate::dense::FIRST_ARRIVAL - 1),
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

    #[test]
    fn default_partition_is_deterministic_and_spread() {
        let a = default_partition(&42u64);
        let b = default_partition(&42u64);
        assert_eq!(a, b);
        // Integer keys go to `radix mod R`: consecutive keys fill every
        // partition.
        let hits: std::collections::HashSet<u64> =
            (0..64u64).map(|k| default_partition(&k) % 8).collect();
        assert_eq!(hits.len(), 8, "integer keys cycle through partitions");
        // Keys that hash as several words stay Fx-mixed, so they spread
        // over all 8 partitions too — whether their words vary in the
        // last position or only in the first.
        let spread = |keys: Vec<u64>| -> usize {
            keys.into_iter()
                .map(|h| h % 8)
                .collect::<std::collections::HashSet<u64>>()
                .len()
        };
        let strings = (0..64)
            .map(|i| default_partition(&format!("key-{i}")))
            .collect();
        let firsts = (0..64u32).map(|i| default_partition(&(i, 7u32))).collect();
        let lasts = (0..64u64).map(|i| default_partition(&(7u64, i))).collect();
        assert_eq!(spread(strings), 8, "strings spread over 8 partitions");
        assert_eq!(spread(firsts), 8, "tuples spread by their first word");
        assert_eq!(spread(lasts), 8, "tuples spread by their last word");
    }

    #[test]
    fn run_workers_runs_every_worker_to_exit() {
        let started = AtomicUsize::new(0);
        run_workers(4, || {
            started.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(started.load(Ordering::Relaxed), 4);
    }

    #[test]
    #[should_panic(expected = "worker 2 gave up")]
    fn run_workers_reraises_a_workers_own_panic() {
        let started = AtomicUsize::new(0);
        run_workers(4, || {
            let i = started.fetch_add(1, Ordering::Relaxed);
            assert!(i != 2, "worker {i} gave up");
        });
    }
}
