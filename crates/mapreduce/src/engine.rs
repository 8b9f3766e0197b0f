//! The pipelined, partition-parallel execution engine.
//!
//! ```text
//!  map workers (N threads)          shuffle              reduce workers (P threads)
//! ┌──────────────────────────┐                        ┌───────────────────────────┐
//! │ task → MapContext        │   regroup runs by      │ partition 0: k-way merge  │
//! │   ├─ count pairs, bytes  │   partition, splits    │   of m sorted runs        │──┐
//! │   ├─ partition pairs     │   stay in id order     │   → reduce(key, values)   │  │ stitch
//! │   └─ sort each partition │ ─────────────────────▶ │ partition 1: …            │──┼─▶ outputs
//! │      run by (key,arrive) │                        │ …                         │  │ + finish
//! │      = the "spill"       │                        │ partition R-1: …          │──┘
//! └──────────────────────────┘                        └───────────────────────────┘
//! ```
//!
//! Three properties make this both fast and exactly deterministic:
//!
//! 1. **Spills are pre-sorted per partition inside the map workers.** The
//!    sort work happens in parallel, and the old single-threaded global
//!    sort disappears entirely. Jobs whose keys carry a
//!    [`RadixKey`](crate::RadixKey) codec ([`crate::JobSpec::with_radix_keys`])
//!    sort spill runs with the LSD radix sort in [`crate::radix`]:
//!    `O(n · key bytes)` with branch-free inner loops, bit-identical to
//!    the comparison sort it replaces.
//! 2. **The reduce side picks an explicit strategy per job** — recorded
//!    per partition in [`RunMetrics::reduce_strategies`]:
//!
//!    | [`ReduceStrategy`] | when | what a partition does |
//!    |---|---|---|
//!    | `DenseReduce` | radix codec + [`EngineConfig::key_domain_hint`] small enough for a flat array | aggregates its unsorted runs straight into a recycled slot array sized to the partition's actual key range (`dense::DenseReducer`) — no sort, no merge |
//!    | `SortAtReduce` | radix codec, several partitions, domain too wide (or absent) | radix-sorts its split-ordered run concatenation once, stably, then groups adjacent keys |
//!    | `Merge` | no codec, or a single partition without a dense domain | k-way merges runs pre-sorted inside the map workers (`m`-entry heap, `O(n log m)` comparisons on `(key, split)` only) |
//!
//!    For the non-`Merge` strategies the map workers skip the per-run
//!    sort entirely and ship runs in arrival order. Every strategy
//!    delivers the identical sequence to the reduce function, so outputs
//!    are bit-identical across strategies (differential tests enforce it).
//! 3. **Reduce partitions run in parallel with deterministic stitching.**
//!    Every partition gets its own [`ReduceContext`]; outputs and charged
//!    CPU are recombined in partition-index order, so the result — outputs,
//!    metrics, and float summation order — is identical for any
//!    `reducer_parallelism`, including 1.
//!
//! Workers recycle their buffers across work items on both sides: map
//! workers keep the emit buffer and the radix-sort scratch per worker,
//! not per task, and reduce workers keep a radix scratch plus a
//! `DenseReducer` table per thread, recycled across the partitions that
//! thread reduces. Tiny jobs skip thread machinery entirely: the map
//! loop runs inline when only one worker would be spawned, and the
//! reduce phase stays serial below a pair-count spawn threshold.
//!
//! The determinism contract of the seed engine is preserved exactly: within
//! a partition, the reduce function observes key groups in key order and
//! each group's values in `(split id, arrival order)` order. The seed
//! engine itself survives as [`crate::reference`] — an executable
//! specification that differential tests compare this engine against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// Borrowed form of the shared reduce function, passed into the merge
/// machinery.
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
    /// Executor selection (pipelined vs the seed reference engine).
    pub mode: EngineMode,
    /// Number of reduce partitions (the paper always uses 1).
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

/// The partitioner: a deterministic Fx hash of the key, taken modulo the
/// reducer count. With one reducer every key lands in partition 0; with
/// several, keys spread evenly without any per-job configuration.
pub fn default_partition<K: Hash>(key: &K) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Domains above this cap fall back from the reduce-side `DenseReducer`
/// to the sort-based strategies: a `u32` slot per domain value must stay
/// small enough (≤ 16 MiB per worker here) that a flat array is an
/// optimization, not a memory liability. The table additionally sizes
/// itself to each partition's actual key range, so this bounds the worst
/// case only.
const DENSE_DOMAIN_MAX: u64 = 1 << 22;

/// Jobs whose map output is at most this many pairs reduce serially: the
/// per-thread spawn/join cost exceeds the reduce work itself, which is
/// exactly the regime the sampling builders (a few thousand pairs) live
/// in. Thread count never changes outputs, so this is timing-only.
const REDUCE_SPAWN_MIN_PAIRS: u64 = 8192;

/// Tasks with fewer pairs than this ship a flat (unpartitioned) spill in
/// sort-at-reduce mode and let the shuffle scatter it: allocating
/// `num_reducers` per-task partition buffers would cost more than the
/// pairs they hold. Larger tasks scatter inside the map worker, where
/// the hashing parallelizes.
const SCATTER_MIN_PAIRS: usize = 1024;

/// Stable sort of `pairs` by key — arrival order within a key survives.
/// The radix sort produces the identical permutation when the job
/// declared a key codec.
fn sort_by_key<K: Ord, V>(
    pairs: &mut [(K, V)],
    key_codec: Option<fn(&K) -> u64>,
    scratch: &mut RadixScratch,
) {
    match key_codec {
        Some(codec) => sort_pairs_with(pairs, codec, scratch),
        None => pairs.sort_by(|a, b| a.0.cmp(&b.0)),
    }
}

/// One map task's spill, plus the task's accounting. `scattered` spills
/// carry one run per partition (sorted by `(key, arrival order)` when
/// the job merges at reduce time); flat spills carry the task's pairs as
/// a single unpartitioned list — the shape tiny tasks ship in
/// sort-at-reduce mode, where per-task partition buffers would cost more
/// than the pairs they hold and the shuffle scatters instead.
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
/// worker executes: the emit buffer handed to each [`MapContext`] and the
/// radix-sort scratch for spill runs.
pub(crate) struct MapWorker<K, V> {
    pairs_buf: Vec<(K, V)>,
    scratch: RadixScratch,
}

impl<K, V> MapWorker<K, V> {
    pub(crate) fn new() -> Self {
        Self {
            pairs_buf: Vec::new(),
            scratch: RadixScratch::default(),
        }
    }
}

/// Reduce-strategy selection, fixed per job because it also decides what
/// the map workers ship:
///
/// * `DenseReduce` (codec + bounded domain): partitions aggregate their
///   unsorted runs straight into a flat slot array — nobody sorts
///   anything, on either side.
/// * `SortAtReduce` (codec, several partitions, domain too wide): each
///   partition radix-sorts its split-ordered run concatenation once
///   (stable, runs in split-id order), which is the exact merge sequence
///   at strictly less data movement than sorted spills + merge.
/// * `Merge` otherwise: map workers pre-sort their runs (that is what
///   parallelizes the sort work when everything reduces in one place or
///   keys carry no codec) and partitions k-way merge them.
pub(crate) fn select_strategy(
    has_codec: bool,
    domain_hint: Option<u64>,
    nparts: usize,
) -> ReduceStrategy {
    match (has_codec, domain_hint) {
        (true, Some(u)) if u <= DENSE_DOMAIN_MAX => ReduceStrategy::DenseReduce,
        (true, _) if nparts > 1 => ReduceStrategy::SortAtReduce,
        _ => ReduceStrategy::Merge,
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
    let key_codec = spec.key_codec;
    assert!(engine.num_reducers >= 1, "need at least one reducer");
    let nparts = engine.num_reducers as usize;
    let strategy = select_strategy(key_codec.is_some(), engine.key_domain_hint, nparts);

    // ---- Map phase (parallel): run, partition, sort — all
    // inside the worker thread that owns the task. ----
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
        let spill = run_one_task(
            &mut task, round, broadcast, nparts, strategy, key_codec, state,
        );
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

    shuffle_reduce_finish(
        cluster,
        per_task,
        spec,
        broadcast.len() as u64,
        strategy,
        wall_map_s,
    )
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
/// partition (or ship flat), and pre-sort runs when the job merges at
/// reduce time. This is the unit of map work shared **verbatim** by the
/// threaded executor above and the forked workers of [`crate::worker`] —
/// sharing it is what makes the two modes bit-identical by construction.
pub(crate) fn run_one_task<K, V>(
    task: &mut MapTask<K, V>,
    round: u32,
    broadcast: &Arc<[u8]>,
    nparts: usize,
    strategy: ReduceStrategy,
    key_codec: Option<fn(&K) -> u64>,
    state: &mut MapWorker<K, V>,
) -> TaskSpill<K, V>
where
    K: Ord + Hash + Send + WireSize + 'static,
    V: Send + WireSize + 'static,
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
    let (mut runs, scattered): (Vec<Vec<(K, V)>>, bool) = if nparts == 1 {
        (vec![std::mem::take(&mut pairs)], true)
    } else if strategy != ReduceStrategy::Merge && pairs.len() < SCATTER_MIN_PAIRS {
        // Tiny task in a no-merge mode: ship the pairs flat and let
        // the shuffle scatter them — R per-task partition buffers
        // would cost more than the pairs they hold.
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
    if strategy == ReduceStrategy::Merge {
        // Only the merge strategy consumes pre-sorted runs; the dense
        // and sort-at-reduce partitions take them in arrival order.
        for run in &mut runs {
            sort_by_key(run, key_codec, &mut state.scratch);
        }
    }
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
    strategy: ReduceStrategy,
    wall_map_s: f64,
) -> JobOutput<R>
where
    K: Ord + Hash + Send,
    V: Send,
    R: Send,
{
    let (engine, reduce, key_codec) = (spec.engine, spec.reduce.as_ref(), spec.key_codec);
    let nparts = engine.num_reducers as usize;
    // ---- Shuffle: regroup spill runs into per-partition merge inputs
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
    // order — which is all the dense-reduce and sort-at-reduce paths
    // need.
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
    let threads = if metrics.map_output_pairs < REDUCE_SPAWN_MIN_PAIRS {
        // Serial fast path: spawning per-partition threads for a few
        // thousand pairs costs more than reducing them.
        1
    } else {
        resolve_threads(engine.reducer_parallelism)
    }
    .min(nparts)
    .max(1);

    // What a partition needs to execute the selected strategy: the codec
    // (dense + sort-at-reduce) and the declared domain (dense asserts
    // against it).
    let plan = ReducePlan {
        strategy,
        codec: key_codec,
        domain_hint: engine.key_domain_hint,
        dense_pair_cap: crate::dense::FIRST_ARRIVAL as usize,
    };
    let contexts: Vec<ReduceContext<R>> = if threads <= 1 {
        let mut scratch = ReduceScratch::new();
        let mut out = Vec::with_capacity(nparts);
        for runs in partitions {
            let mut rctx = ReduceContext::new();
            reduce_partition(runs, plan, &mut scratch, reduce, &mut rctx);
            out.push(rctx);
        }
        out
    } else {
        type Slot<K, V, R> = Mutex<(Option<Vec<Vec<(K, V)>>>, Option<ReduceContext<R>>)>;
        let slots: Vec<Slot<K, V, R>> = partitions
            .into_iter()
            .map(|runs| Mutex::new((Some(runs), None)))
            .collect();
        let next_part = AtomicUsize::new(0);
        run_workers(threads, || {
            // Per-thread scratch (radix buffers + dense table), recycled
            // across the partitions this thread reduces — the
            // reduce-side mirror of the map workers' reuse.
            let mut scratch = ReduceScratch::new();
            loop {
                let p = next_part.fetch_add(1, Ordering::Relaxed);
                if p >= slots.len() {
                    break;
                }
                let runs = slots[p].lock().0.take().expect("each partition taken once");
                let mut rctx = ReduceContext::new();
                reduce_partition(runs, plan, &mut scratch, reduce, &mut rctx);
                slots[p].lock().1 = Some(rctx);
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().1.expect("every partition reduced"))
            .collect()
    };

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

/// Everything a reduce worker needs to execute the job's strategy on one
/// partition. One per job; `Copy` so worker threads capture it by value.
struct ReducePlan<K> {
    strategy: ReduceStrategy,
    codec: Option<fn(&K) -> u64>,
    domain_hint: Option<u64>,
    /// Pair count at which a `DenseReduce` partition is re-planned to
    /// sort-at-reduce: the dense table tags group indices into `u32`
    /// slots, so a partition holding `FIRST_ARRIVAL` (2³¹) or more pairs
    /// would overflow its indexing. Production plans use exactly that
    /// constant; tests shrink it to exercise the fallback without 2³¹
    /// pairs of memory.
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

/// Reduces one partition under the job's [`ReduceStrategy`] and invokes
/// `reduce` per key group — key groups in key order, values in
/// `(split id, arrival order)` order, identically for every strategy:
///
/// * `DenseReduce`: runs arrive **unsorted** and aggregate into the
///   recycled flat table, which emits groups in ascending radix (= key)
///   order.
/// * `SortAtReduce`: runs arrive **unsorted**; the partition radix-sorts
///   its split-ordered concatenation once. The sort is stable, so equal
///   keys keep `(split id, arrival order)` — the exact merge sequence,
///   with no merge.
/// * `Merge`: runs arrive pre-sorted from the map workers and are k-way
///   merged.
///
/// The strategy that ran is recorded on the context, which the stitching
/// loop folds into [`RunMetrics::reduce_strategies`].
///
/// `DenseReduce` is re-planned here, per partition, when the partition's
/// pair count reaches [`ReducePlan::dense_pair_cap`]: the dense table's
/// tagged-u32 indexing cannot address that many pairs, so the partition
/// falls back to sort-at-reduce — both strategies consume unsorted
/// split-ordered runs and deliver the identical key-group sequence, so
/// the downgrade changes only the execution route. The strategy recorded
/// on the context (and thus in [`RunMetrics::reduce_strategies`]) is the
/// one that actually ran.
fn reduce_partition<K, V, R>(
    runs: Vec<Vec<(K, V)>>,
    plan: ReducePlan<K>,
    scratch: &mut ReduceScratch<K, V>,
    reduce: &ReduceDyn<K, V, R>,
    rctx: &mut ReduceContext<R>,
) where
    K: Ord,
{
    rctx.strategy = Some(plan.strategy);
    match plan.strategy {
        ReduceStrategy::DenseReduce => {
            let codec = plan.codec.expect("dense reduce requires a key codec");
            let hint = plan
                .domain_hint
                .expect("dense reduce requires a key_domain_hint");
            let total: usize = runs.iter().map(Vec::len).sum();
            if total >= plan.dense_pair_cap {
                rctx.strategy = Some(ReduceStrategy::SortAtReduce);
                sort_at_reduce(runs, total, codec, scratch, reduce, rctx);
            } else {
                scratch.dense.reduce_runs(runs, codec, hint, reduce, rctx);
            }
        }
        ReduceStrategy::SortAtReduce => {
            let codec = plan.codec.expect("sort-at-reduce requires a key codec");
            let total: usize = runs.iter().map(Vec::len).sum();
            sort_at_reduce(runs, total, codec, scratch, reduce, rctx);
        }
        ReduceStrategy::Merge => match runs.len() {
            0 => {}
            1 => {
                let run = runs.into_iter().next().expect("one run");
                reduce_sorted_run(run, reduce, rctx);
            }
            _ => merge_runs(runs, reduce, rctx),
        },
    }
}

/// The sort-at-reduce body: one stable radix sort of the split-ordered
/// run concatenation, then adjacent grouping — shared by the
/// `SortAtReduce` strategy and the dense-overflow fallback.
fn sort_at_reduce<K, V, R>(
    runs: Vec<Vec<(K, V)>>,
    total: usize,
    codec: fn(&K) -> u64,
    scratch: &mut ReduceScratch<K, V>,
    reduce: &ReduceDyn<K, V, R>,
    rctx: &mut ReduceContext<R>,
) where
    K: Ord,
{
    let mut all = match runs.len() {
        0 => Vec::new(),
        1 => runs.into_iter().next().expect("one run"),
        _ => {
            let mut all = Vec::with_capacity(total);
            for run in runs {
                all.extend(run);
            }
            all
        }
    };
    sort_pairs_with(&mut all, codec, &mut scratch.radix);
    reduce_sorted_run(all, reduce, rctx);
}

/// Groups adjacent equal keys of one already-sorted run — no comparisons
/// beyond equality, no heap.
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

/// Heap entry of the k-way merge. Ordering compares `(key, run index)`
/// only — runs are stored in split-id order, so the merge yields the
/// global `(key, split id, arrival order)` sequence. The carried value
/// never participates in comparisons.
struct MergeEntry<K, V> {
    key: K,
    run: usize,
    value: V,
}

impl<K: Ord, V> PartialEq for MergeEntry<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.run == other.run
    }
}

impl<K: Ord, V> Eq for MergeEntry<K, V> {}

impl<K: Ord, V> PartialOrd for MergeEntry<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, V> Ord for MergeEntry<K, V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key).then(self.run.cmp(&other.run))
    }
}

/// Fan-in above which the merge switches from the binary heap to the
/// pairwise ladder: wide heaps pay `2·log₂ m` branchy sift steps per
/// element, while the ladder's sequential two-way merges cost exactly
/// `log₂ m` predictable comparisons plus streaming copies.
const HEAP_MERGE_MAX_RUNS: usize = 8;

/// Partitions at most this many pairs skip the merge machinery entirely:
/// concatenating the runs (split-id order) and stably re-sorting by key
/// yields the identical `(key, split id, arrival order)` sequence with
/// one tiny sort instead of a heap or ladder over dozens of micro-runs —
/// the regime the sampling builders put every partition in.
const MERGE_CONCAT_MAX_PAIRS: usize = 4096;

/// Merges `m` sorted runs and feeds key groups straight into `reduce` —
/// the shuffle never materializes a global concatenated vector and never
/// compares partition ids. Narrow fan-ins use the `m`-entry min-heap
/// (O(1) extra memory); wide fan-ins use [`ladder_merge`].
fn merge_runs<K, V, R>(
    runs: Vec<Vec<(K, V)>>,
    reduce: &ReduceDyn<K, V, R>,
    rctx: &mut ReduceContext<R>,
) where
    K: Ord,
{
    let total: usize = runs.iter().map(Vec::len).sum();
    if total <= MERGE_CONCAT_MAX_PAIRS {
        // Stable sort of the split-ordered concatenation = the exact
        // merge sequence, cheaper than merging many tiny runs.
        let mut all = Vec::with_capacity(total);
        for run in runs {
            all.extend(run);
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        reduce_sorted_run(all, reduce, rctx);
        return;
    }
    if runs.len() > HEAP_MERGE_MAX_RUNS {
        let merged = ladder_merge(runs);
        reduce_sorted_run(merged, reduce, rctx);
        return;
    }
    let mut iters: Vec<std::vec::IntoIter<(K, V)>> = runs.into_iter().map(Vec::into_iter).collect();
    let mut heap: BinaryHeap<Reverse<MergeEntry<K, V>>> = BinaryHeap::with_capacity(iters.len());
    for (run, it) in iters.iter_mut().enumerate() {
        if let Some((key, value)) = it.next() {
            heap.push(Reverse(MergeEntry { key, run, value }));
        }
    }
    let mut values: Vec<V> = Vec::new();
    while let Some(Reverse(MergeEntry { key, run, value })) = heap.pop() {
        values.clear();
        values.push(value);
        if let Some((k, v)) = iters[run].next() {
            heap.push(Reverse(MergeEntry {
                key: k,
                run,
                value: v,
            }));
        }
        while heap.peek().is_some_and(|Reverse(entry)| entry.key == key) {
            let Reverse(MergeEntry {
                run: r, value: v, ..
            }) = heap.pop().expect("peeked entry");
            values.push(v);
            if let Some((k2, v2)) = iters[r].next() {
                heap.push(Reverse(MergeEntry {
                    key: k2,
                    run: r,
                    value: v2,
                }));
            }
        }
        reduce(&key, &values, rctx);
    }
}

/// Pairwise-merge ladder: merges adjacent runs two at a time until one
/// sorted run remains. Runs stay in split-id order and ties always take
/// from the left (lower split), so the result is the exact
/// `(key, split id, arrival order)` sequence of the heap merge. Peak
/// memory is one extra copy of the partition, freed level by level.
fn ladder_merge<K: Ord, V>(runs: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    let mut level = runs;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge_two(a, b)),
                None => next.push(a),
            }
        }
        level = next;
    }
    level.into_iter().next().unwrap_or_default()
}

/// Stable two-way merge; ties take from `a` (the lower split ids).
fn merge_two<K: Ord, V>(a: Vec<(K, V)>, b: Vec<(K, V)>) -> Vec<(K, V)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ia = a.into_iter();
    let mut ib = b.into_iter();
    let mut na = ia.next();
    let mut nb = ib.next();
    loop {
        match (na.take(), nb.take()) {
            (Some(x), Some(y)) => {
                if x.0 <= y.0 {
                    out.push(x);
                    na = ia.next();
                    nb = Some(y);
                } else {
                    out.push(y);
                    nb = ib.next();
                    na = Some(x);
                }
            }
            (Some(x), None) => {
                out.push(x);
                out.extend(ia);
                break;
            }
            (None, Some(y)) => {
                out.push(y);
                out.extend(ib);
                break;
            }
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_groups_via(
        runs: Vec<Vec<(u32, u32)>>,
        strategy: ReduceStrategy,
    ) -> Vec<(u32, Vec<u32>)> {
        let mut rctx = ReduceContext::new();
        let mut scratch = ReduceScratch::new();
        let reduce = |k: &u32, vs: &[u32], ctx: &mut ReduceContext<(u32, Vec<u32>)>| {
            ctx.emit((*k, vs.to_vec()));
        };
        let plan = ReducePlan {
            strategy,
            codec: Some(|k: &u32| u64::from(*k)),
            domain_hint: Some(1 << 20),
            dense_pair_cap: crate::dense::FIRST_ARRIVAL as usize,
        };
        reduce_partition(runs, plan, &mut scratch, &reduce, &mut rctx);
        assert_eq!(rctx.strategy, Some(strategy), "strategy recorded");
        rctx.outputs
    }

    fn collect_groups(runs: Vec<Vec<(u32, u32)>>) -> Vec<(u32, Vec<u32>)> {
        collect_groups_via(runs, ReduceStrategy::Merge)
    }

    #[test]
    fn merge_yields_key_then_run_order() {
        // Runs are per split (split order = vector order).
        let runs = vec![
            vec![(1, 10), (1, 11), (5, 12)],
            vec![(1, 20), (2, 21)],
            vec![(2, 30), (5, 31), (9, 32)],
        ];
        assert_eq!(
            collect_groups(runs),
            vec![
                (1, vec![10, 11, 20]),
                (2, vec![21, 30]),
                (5, vec![12, 31]),
                (9, vec![32]),
            ]
        );
    }

    #[test]
    fn all_merge_routes_yield_the_specified_sequence() {
        // Concat (≤ MERGE_CONCAT_MAX_PAIRS total), heap (m ≤ 8), and
        // ladder (m > 8) must all produce the sequence of a stable global
        // sort by (key, run index). Runs of 600 pairs put m ≥ 7 above the
        // concat threshold; smaller m exercises the concat route.
        let mk_runs = |m: usize| -> Vec<Vec<(u32, u32)>> {
            (0..m)
                .map(|r| {
                    let mut run: Vec<(u32, u32)> = (0..600)
                        .map(|i| ((i * (r as u32 + 3)) % 17, (r * 1000 + i as usize) as u32))
                        .collect();
                    run.sort_by_key(|&(k, _)| k);
                    run
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
            let mut expected: Vec<(u32, Vec<u32>)> = Vec::new();
            for (k, _, v) in expected_pairs {
                match expected.last_mut() {
                    Some((key, vs)) if *key == k => vs.push(v),
                    _ => expected.push((k, vec![v])),
                }
            }
            assert_eq!(collect_groups(mk_runs(m)), expected, "m={m}");
            // The no-merge routes take **unsorted** runs and must yield
            // the same sequence: sort-at-reduce via one stable radix sort
            // of the concatenation, dense reduce via flat-array
            // aggregation in radix order.
            let unsorted = || -> Vec<Vec<(u32, u32)>> {
                mk_runs(m)
                    .into_iter()
                    .map(|mut run| {
                        // Undo the per-run sort: arrival order is value order.
                        run.sort_by_key(|&(_, v)| v);
                        run
                    })
                    .collect()
            };
            assert_eq!(
                collect_groups_via(unsorted(), ReduceStrategy::SortAtReduce),
                expected,
                "m={m} (sort-at-reduce)"
            );
            assert_eq!(
                collect_groups_via(unsorted(), ReduceStrategy::DenseReduce),
                expected,
                "m={m} (dense reduce)"
            );
        }
    }

    #[test]
    fn reduce_scratch_recycles_across_partitions_and_strategies() {
        // One scratch driven through every strategy in sequence, the way
        // a reduce worker thread recycles it across partitions.
        let mut scratch = ReduceScratch::new();
        let reduce = |k: &u32, vs: &[u32], ctx: &mut ReduceContext<(u32, Vec<u32>)>| {
            ctx.emit((*k, vs.to_vec()));
        };
        let sorted_runs = || vec![vec![(1u32, 1u32), (3, 2)], vec![(1, 3), (7, 4)]];
        let unsorted_runs = || vec![vec![(3u32, 2u32), (1, 1)], vec![(7, 4), (1, 3)]];
        let want = vec![(1, vec![1, 3]), (3, vec![2]), (7, vec![4])];
        for round in 0..3 {
            for (strategy, runs) in [
                (ReduceStrategy::DenseReduce, unsorted_runs()),
                (ReduceStrategy::SortAtReduce, unsorted_runs()),
                (ReduceStrategy::Merge, sorted_runs()),
            ] {
                let mut rctx = ReduceContext::new();
                let plan = ReducePlan {
                    strategy,
                    codec: Some(|k: &u32| u64::from(*k)),
                    domain_hint: Some(64),
                    dense_pair_cap: crate::dense::FIRST_ARRIVAL as usize,
                };
                reduce_partition(runs, plan, &mut scratch, &reduce, &mut rctx);
                assert_eq!(rctx.outputs, want, "round {round}, {strategy:?}");
                assert_eq!(rctx.strategy, Some(strategy));
            }
        }
    }

    /// Drives one partition through a `DenseReduce` plan with the given
    /// pair cap and returns the outputs plus the strategy that ran.
    fn dense_with_cap(
        runs: Vec<Vec<(u32, u32)>>,
        cap: usize,
    ) -> (Vec<(u32, Vec<u32>)>, Option<ReduceStrategy>) {
        let mut rctx = ReduceContext::new();
        let mut scratch = ReduceScratch::new();
        let reduce = |k: &u32, vs: &[u32], ctx: &mut ReduceContext<(u32, Vec<u32>)>| {
            ctx.emit((*k, vs.to_vec()));
        };
        let plan = ReducePlan {
            strategy: ReduceStrategy::DenseReduce,
            codec: Some(|k: &u32| u64::from(*k)),
            domain_hint: Some(1 << 20),
            dense_pair_cap: cap,
        };
        reduce_partition(runs, plan, &mut scratch, &reduce, &mut rctx);
        (rctx.outputs, rctx.strategy)
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
    fn merge_two_is_stable_on_ties() {
        let a = vec![(1u32, 'a'), (3, 'b')];
        let b = vec![(1u32, 'c'), (3, 'd')];
        assert_eq!(
            merge_two(a, b),
            vec![(1, 'a'), (1, 'c'), (3, 'b'), (3, 'd')]
        );
    }

    #[test]
    fn single_run_fast_path_groups_adjacent() {
        let runs = vec![vec![(3, 1), (3, 2), (4, 3)]];
        assert_eq!(collect_groups(runs), vec![(3, vec![1, 2]), (4, vec![3])]);
    }

    #[test]
    fn empty_partition_reduces_nothing() {
        assert!(collect_groups(vec![]).is_empty());
        assert!(collect_groups(vec![vec![]]).is_empty());
    }

    #[test]
    fn default_partition_is_deterministic_and_spread() {
        let a = default_partition(&42u64);
        let b = default_partition(&42u64);
        assert_eq!(a, b);
        // Different keys land in different partitions (mod small R).
        let hits: std::collections::HashSet<u64> =
            (0..64u64).map(|k| default_partition(&k) % 8).collect();
        assert!(hits.len() >= 4, "hash spreads keys across partitions");
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
