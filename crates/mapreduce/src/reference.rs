//! The seed execution engine, preserved as an executable specification.
//!
//! This is the pre-pipelining `run_job`: map tasks run in parallel worker
//! threads, then the shuffle is **one global `O(n log n)` sort** over
//! `(partition, key, split)` tuples on a single thread, and the reduce loop
//! walks the sorted vector sequentially. It produces byte-identical
//! outputs and logical metrics to the pipelined engine
//! ([`crate::engine`]) — differential property tests in
//! `tests/engine_parallel.rs` enforce that.
//!
//! Select it with [`crate::EngineConfig::reference`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::context::{MapContext, ReduceContext};
use crate::cost::{round_time, ClusterConfig, ReduceWork, TaskWork};
use crate::engine::{close, default_partition};
use crate::job::{JobOutput, JobSpec, MapTask};
use crate::metrics::RunMetrics;
use crate::wire::WireSize;

struct TaskResult<K, V> {
    split_id: u32,
    pairs: Vec<(K, V)>,
    work: TaskWork,
    records_read: u64,
}

/// Executes round `round` of `spec`'s job on the seed engine (global
/// sort + sequential reduce). Same output contract as the pipelined
/// engine; kept for differential testing.
pub(crate) fn execute<K, V, R>(
    cluster: &ClusterConfig,
    spec: &mut JobSpec<K, V, R>,
    round: u32,
    broadcast: &Arc<[u8]>,
) -> JobOutput<R>
where
    K: Ord + std::hash::Hash + Send + WireSize + 'static,
    V: Send + WireSize + 'static,
    R: Send,
{
    let engine = spec.engine;
    let num_reducers = engine.num_reducers;
    assert!(num_reducers >= 1, "need at least one reducer");

    // ---- Map phase (parallel) ----
    let map_start = Instant::now();
    let task_queue: Vec<Mutex<&mut MapTask<K, V>>> =
        spec.map_tasks.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<TaskResult<K, V>>> = Mutex::new(Vec::with_capacity(task_queue.len()));
    // Honors the map-parallelism knob (same resolution as the pipelined
    // engine) so engine-vs-engine benchmarks pin identical thread budgets
    // on both sides; the shuffle and reduce stay single-threaded by
    // definition of this engine.
    let workers = engine.map_workers(task_queue.len());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= task_queue.len() {
                    break;
                }
                let mut task = task_queue[i].lock();
                let mut ctx = MapContext::new(task.split_id, round, broadcast, Vec::new());
                (task.run)(&mut ctx);
                let mut pairs = ctx.pairs;
                // Hadoop sorts each spill by key within the mapper; we sort
                // here so shuffle concatenation stays deterministic.
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
                results.lock().push(TaskResult {
                    split_id: task.split_id,
                    pairs,
                    work: TaskWork {
                        bytes_scanned: ctx.bytes_read,
                        cpu_ops: ctx.cpu_ops,
                    },
                    records_read: ctx.records_read,
                });
            });
        }
        // std::thread::scope joins all workers and re-raises any panic.
    });

    drop(task_queue);
    let mut per_task = results.into_inner();
    per_task.sort_by_key(|t| t.split_id);
    let wall_map_s = map_start.elapsed().as_secs_f64();

    // ---- Accounting + shuffle: one global sort on a single thread ----
    let shuffle_start = Instant::now();
    let mut metrics = RunMetrics {
        rounds: 1,
        broadcast_bytes: broadcast.len() as u64,
        ..Default::default()
    };
    let mut task_work = Vec::with_capacity(per_task.len());
    let mut shuffled: Vec<(u64, K, u32, V)> = Vec::new(); // (partition, key, split, value)
    for t in per_task {
        task_work.push(t.work);
        metrics.records_scanned += t.records_read;
        metrics.bytes_scanned += t.work.bytes_scanned;
        metrics.cpu_ops += t.work.cpu_ops;
        for (k, v) in t.pairs {
            metrics.map_output_pairs += 1;
            metrics.shuffle_bytes += k.wire_bytes() + v.wire_bytes();
            let p = default_partition(&k) % u64::from(num_reducers);
            shuffled.push((p, k, t.split_id, v));
        }
    }
    // Deterministic order: partition, key, then source split.
    shuffled.sort_by(|a, b| (a.0, &a.1, a.2).cmp(&(b.0, &b.1, b.2)));
    let wall_shuffle_s = shuffle_start.elapsed().as_secs_f64();

    // ---- Reduce phase (sequential) ----
    let reduce_start = Instant::now();
    let mut worker = spec.reducer.worker();
    let mut parts = Vec::with_capacity(num_reducers as usize);
    let mut reduce_cpu = 0.0f64;
    let mut iter = shuffled.into_iter().peekable();
    for p in 0..u64::from(num_reducers) {
        let mut run = Vec::new();
        while let Some((_, key, _, value)) = iter.next_if(|e| e.0 == p) {
            run.push((key, value));
        }
        let mut rctx = ReduceContext::new();
        worker.sorted(run, &mut rctx);
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
