//! The pipelined, partition-parallel execution engine.
//!
//! ```text
//!  map workers (N threads)          shuffle              reduce workers (P threads)
//! ┌──────────────────────────┐                        ┌───────────────────────────┐
//! │ task → MapContext        │   regroup runs by      │ partition 0: dense table  │
//! │   ├─ count pairs, bytes  │   partition, splits    │   or one stable sort      │──┐
//! │   └─ partition pairs,    │   stay in id order     │   → fold / reduce per key │  │ Close
//! │      arrival order kept  │ ─────────────────────▶ │ partition 1: …            │──┼─▶ outputs
//! │      = the "spill"       │                        │ …                         │  │
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
//!    per partition in [`RunMetrics::reduce_partitions`] and counted in
//!    [`RunMetrics::reduce_strategies`]:
//!
//!    | [`ReduceStrategy`](crate::ReduceStrategy) | when | what a partition does |
//!    |---|---|---|
//!    | `DenseReduce` | radix codec and [`EngineConfig::key_domain_hint`] ≤ 2²² (a slice reducer also needs fewer than 2³¹ pairs) | a [`crate::Fold`] folds its runs straight into one accumulator per key, found through a recycled `u32` slot index on `radix / R` sized to the partition's actual key range, then finishes the keys in ascending order; a slice reducer gets each key's values grouped in a recycled arena first — no sort either way |
//!    | `SortAtReduce` | otherwise | one stable sort of its split-ordered run concatenation, then one pass over each run of equal keys |
//!
//!    A key's [`RadixKey`](crate::RadixKey) codec
//!    ([`crate::JobSpec::with_radix_keys`]) only selects and indexes the
//!    dense tables; the sort route is the standard library's stable sort
//!    for every job, codec or not. Both routes present the identical
//!    sequence of keys and values to the reducer, so outputs are
//!    bit-identical across routes (differential tests enforce it).
//! 3. **Reduce partitions run in parallel with a deterministic hand-on.**
//!    Every partition gets its own [`ReduceContext`]; outputs and charged
//!    CPU are handed to the Close hook, and to the job's outputs, in
//!    partition-index order, so the result — outputs, metrics, and float
//!    summation order — is identical for any `reducer_parallelism`,
//!    including 1.
//!
//! Workers recycle their buffers across work items on both sides: map
//! workers keep the emit buffer per worker, not per task, and reduce
//! workers keep one dense table per thread, recycled across the
//! partitions that thread reduces. A phase allowed only one thread skips
//! thread machinery entirely: the map loop runs inline when only one
//! worker would be spawned, and so does the reduce loop.
//!
//! The determinism contract of the seed engine is preserved exactly: within
//! a partition, the reducer observes key groups in key order and each
//! group's values in `(split id, arrival order)` order. The seed engine
//! itself survives as [`crate::reference`] — an executable specification
//! that differential tests compare this engine against.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::context::{MapContext, ReduceContext};
use crate::cost::{round_time, ClusterConfig, ReduceWork, TaskWork};
use crate::job::{FinishFn, JobOutput, JobSpec, MapTask};
use crate::metrics::{PartitionReduce, RunMetrics};
use crate::reduce::ReducePlan;
use crate::wire::WireSize;
use wh_wavelet::hash::FxHasher;

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
/// reduce inputs, reduce them with `spec`'s reducer (optionally in
/// parallel), run the Close hook over the partition outputs, and
/// assemble [`RunMetrics`].
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
    let engine = spec.engine;
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
    // parallel, handed on in partition-index order. ----
    let reduce_start = Instant::now();
    let threads = resolve_threads(engine.reducer_parallelism).min(nparts);
    let plan = ReducePlan::new(
        spec.dense_offsets,
        engine.key_domain_hint,
        engine.num_reducers,
    );
    let reducer = spec.reducer.as_ref();
    type Slot<K, V, R> = Mutex<(Option<Vec<Vec<(K, V)>>>, Option<Reduced<R>>)>;
    let slots: Vec<Slot<K, V, R>> = partitions
        .into_iter()
        .map(|runs| Mutex::new((Some(runs), None)))
        .collect();
    let next_part = AtomicUsize::new(0);
    let reduce_parts = || {
        // Per-thread worker and table, recycled across the partitions
        // this thread reduces — the reduce-side mirror of the map
        // workers' reuse.
        let mut worker = reducer.worker();
        loop {
            let p = next_part.fetch_add(1, Ordering::Relaxed);
            if p >= slots.len() {
                break;
            }
            let runs = slots[p].lock().0.take().expect("each partition taken once");
            let start = Instant::now();
            let pairs = runs.iter().map(|r| r.len() as u64).sum();
            let mut rctx = ReduceContext::new();
            let (route, keys) = worker.partition(runs, p as u32, plan, &mut rctx);
            let record = PartitionReduce {
                route,
                pairs,
                keys,
                wall_s: start.elapsed().as_secs_f64(),
            };
            slots[p].lock().1 = Some((rctx, record));
        }
    };
    if threads <= 1 {
        // As in the map phase: one thread would be spawned only to be
        // joined again, so its loop runs inline.
        reduce_parts();
    } else {
        run_workers(threads, reduce_parts);
    }

    // Deterministic recombination: outputs and charged CPU in partition
    // order, so float summation order is independent of the thread
    // count. The per-partition records land in the metrics here.
    let mut parts = Vec::with_capacity(nparts);
    let mut reduce_cpu = 0.0f64;
    for slot in slots {
        let (rctx, record) = slot.into_inner().1.expect("every partition reduced");
        metrics.reduce_strategies.record(record.route);
        metrics.reduce_partitions.push(record);
        reduce_cpu += rctx.cpu_ops;
        parts.push(rctx.outputs);
    }
    let outputs = close(spec.finish.as_mut(), parts, &mut reduce_cpu);
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

/// A reduced partition: its context and its record.
type Reduced<R> = (ReduceContext<R>, PartitionReduce);

/// The end of a round on every engine mode: runs the Close hook, when the
/// job has one, over the round's reducer emissions `parts` (one `Vec` per
/// partition, partition order) and returns what its context holds after
/// it, adding the hook's charged CPU to `reduce_cpu`. Without a hook the
/// partitions are stitched into one `Vec`, partition-major.
pub(crate) fn close<R>(
    finish: Option<&mut FinishFn<R>>,
    parts: Vec<Vec<R>>,
    reduce_cpu: &mut f64,
) -> Vec<R> {
    let mut rctx = ReduceContext::holding(parts);
    if let Some(f) = finish {
        f(&mut rctx);
        *reduce_cpu += rctx.cpu_ops;
    }
    rctx.take_outputs()
}

#[cfg(test)]
mod tests {
    use super::*;

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
