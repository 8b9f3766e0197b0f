//! The multi-process executor: forked map workers, a self-healing
//! coordinating parent.
//!
//! `execute_multiprocess` runs the map phase of a job in child
//! processes and everything downstream (shuffle, reduce, Close hook,
//! stitching) in the coordinator, reusing the pipelined engine's own
//! `crate::engine::run_one_task` and
//! `crate::engine::shuffle_reduce_finish` — the two modes differ *only*
//! in how spills travel, which is what makes them bit-identical by
//! construction.
//!
//! ```text
//!  coordinator                               worker w (forked child)
//!  ───────────                               ───────────────────────
//!  split tasks round-robin ──fork──────────▶ runs its tasks via
//!  one pipe per worker                       run_one_task
//!  reader thread per pipe ◀──framed spill──  (partition, pre-sort),
//!  (idle read deadline)                      streams TASK/RUN/PAIRS
//!  decode + CRC-verify frames                frames + per-task state
//!  commit tasks at TASK_END                  journal, then WORKER_END,
//!  reap children (waitpid)                   _exit(0)
//!  respawn failed workers' remaining tasks (bounded retries + backoff)
//!  shuffle_reduce_finish (shared code)
//!  ```
//!
//! Workers are **forked**, not spawned: map closures capture datasets and
//! `Arc` state that cannot cross an `exec`, but fork's copy-on-write
//! snapshot carries them for free — the same trick gives every round of a
//! multi-round algorithm (H-WTopk) its predecessor's replayed
//! [`crate::StateStore`] contents, playing the role of Hadoop's local
//! HDFS state files, and carries broadcast payloads like the paper's
//! Job-Configuration channel. The transport is the [`crate::transport`]
//! frame protocol over one Unix pipe per worker; the coordinator counts
//! [`crate::metrics::WireTraffic`] from the frames it actually decodes.
//!
//! ## Fault tolerance (PR 8)
//!
//! The unit of recovery is the **task**, and the commit point is its
//! `TASK_END` frame. The coordinator keeps, per worker slot, the list of
//! tasks not yet committed; when a worker dies mid-stream, truncates,
//! times out ([`crate::EngineError::WorkerTimeout`], enforced by an idle
//! read deadline on the pipe), or fails a frame checksum
//! ([`crate::EngineError::CorruptFrame`]), everything after its last
//! completed `TASK_END` — partial `PAIRS` runs, un-committed
//! `STATE_SAVE`/`STATE_TAKE` ops — is discarded, the straggler child is
//! SIGKILLed and reaped, and the slot's remaining tasks are re-executed
//! on a freshly forked worker (bounded by
//! [`crate::EngineConfig::max_task_retries`], with exponential backoff).
//! Because a task's spill depends only on the task itself (the existing
//! bit-identity contract across worker counts), and because each task's
//! state-journal ops ship *inside* the task (after its pairs, before its
//! `TASK_END`), a recovered run commits exactly one copy of every task's
//! pairs and ops — bit-identical outputs, logical metrics, and
//! `wire.pair_bytes == shuffle_bytes` even through recovery. Retry
//! activity is reported in [`crate::metrics::RecoveryStats`].
//!
//! Failure containment: a child that panics exits with
//! `transport::process::EXIT_PANIC`; one whose pipe dies exits with
//! `transport::process::EXIT_PIPE`; the coordinator reaps every child
//! unconditionally after its reader threads finish, then resolves the
//! most meaningful [`crate::EngineError`] per worker: a killed/aborted
//! worker wins over the truncated frame its death also caused, but a
//! timeout or checksum failure wins over the `SIGKILL` the *coordinator*
//! delivered in response. Only when a worker's retry budget is exhausted
//! does the error surface out of [`crate::try_run_job`].

use std::sync::atomic::{AtomicBool, Ordering};

/// Set (only) inside a forked map-worker process, before any task runs.
static IN_WORKER: AtomicBool = AtomicBool::new(false);

/// Whether the calling code is executing inside a forked map-worker
/// process of the multi-process engine. `false` in every in-process
/// engine mode and in the coordinator.
pub fn in_map_worker() -> bool {
    IN_WORKER.load(Ordering::Relaxed)
}

#[cfg(unix)]
pub(crate) use unix::execute_multiprocess;

#[cfg(not(unix))]
pub(crate) fn execute_multiprocess<K, V, R>(
    _cluster: &crate::cost::ClusterConfig,
    _spec: crate::job::JobSpec<K, V, R>,
) -> Result<crate::job::JobOutput<R>, crate::transport::EngineError> {
    Err(crate::transport::EngineError::Unsupported)
}

#[cfg(unix)]
mod unix {
    use std::fs::File;
    use std::io::{BufWriter, Read};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    use crate::cost::ClusterConfig;
    use crate::engine::{
        run_one_task, select_strategy, shuffle_reduce_finish, MapWorker, TaskSpill,
    };
    use crate::fault::ChildFaults;
    use crate::job::{JobOutput, JobSpec, MapTask, PairCodec};
    use crate::metrics::{RecoveryStats, ReduceStrategy, WireTraffic};
    use crate::state::{StateOp, StateStore};
    use crate::transport::process::{self, DeadlineReader, Exit};
    use crate::transport::{tag, EngineError, FrameReader, FrameWriter, PAIR_CHUNK_BYTES};
    use crate::wire::{WireCodec, WireSize};

    /// One worker slot: the tasks assigned to it that have not yet
    /// committed, and how many processes were spawned for it so far.
    struct Slot<K, V> {
        tasks: Vec<MapTask<K, V>>,
        attempts: u32,
    }

    /// Executes one round with forked map workers, re-executing failed
    /// workers' unfinished tasks on respawned workers. See the module
    /// docs for the lifecycle; the reduce side runs in the coordinator
    /// via the shared [`shuffle_reduce_finish`].
    pub(crate) fn execute_multiprocess<K, V, R>(
        cluster: &ClusterConfig,
        spec: JobSpec<K, V, R>,
    ) -> Result<JobOutput<R>, EngineError>
    where
        K: Ord + std::hash::Hash + Send + WireSize + 'static,
        V: Send + WireSize + 'static,
        R: Send,
    {
        let JobSpec {
            map_tasks,
            reduce,
            broadcast_bytes,
            finish,
            engine,
            key_codec,
            pair_codec,
            state,
            ..
        } = spec;
        assert!(engine.num_reducers >= 1, "need at least one reducer");
        let Some(codec) = pair_codec else {
            return Err(EngineError::MissingWireCodec);
        };
        let nparts = engine.num_reducers as usize;
        let strategy = select_strategy(key_codec.is_some(), engine.key_domain_hint, nparts);

        // A job with no tasks has nothing to fork for; run the (empty)
        // downstream phases directly so the Close hook still fires.
        if map_tasks.is_empty() {
            return Ok(shuffle_reduce_finish(
                cluster,
                &engine,
                Vec::new(),
                reduce,
                finish,
                broadcast_bytes,
                strategy,
                key_codec,
                0.0,
            ));
        }

        // ---- Assign tasks to worker slots round-robin. Even a single
        // worker forks: the point of this mode is that the bytes
        // genuinely cross a process boundary. The parent keeps every
        // task (the child takes them from its own COW copy), which is
        // what makes re-execution after a failure possible at all. ----
        let map_start = std::time::Instant::now();
        let nworkers = engine.map_workers(map_tasks.len());
        let ntasks = map_tasks.len();
        let mut slots: Vec<Slot<K, V>> = (0..nworkers)
            .map(|_| Slot {
                tasks: Vec::new(),
                attempts: 0,
            })
            .collect();
        for (i, task) in map_tasks.into_iter().enumerate() {
            slots[i % nworkers].tasks.push(task);
        }
        let deadline =
            (engine.read_deadline_ms > 0).then(|| Duration::from_millis(engine.read_deadline_ms));

        let mut wire = WireTraffic {
            workers: nworkers as u32,
            comm_rounds: u32::from(broadcast_bytes > 0),
            ..Default::default()
        };
        let mut recovery = RecoveryStats::default();
        let mut per_task: Vec<TaskSpill<K, V>> = Vec::with_capacity(ntasks);
        let mut round = 0u32;

        // ---- Spawn/read/reap rounds until every task has committed.
        // Round 0 spawns every slot; later rounds respawn only slots
        // whose previous worker failed with tasks still uncommitted. ----
        loop {
            let live: Vec<usize> = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.tasks.is_empty())
                .map(|(i, _)| i)
                .collect();
            if live.is_empty() {
                break;
            }
            if round > 0 && engine.retry_backoff_ms > 0 {
                let shift = (round - 1).min(6);
                std::thread::sleep(Duration::from_millis(engine.retry_backoff_ms << shift));
            }

            let mut children: Vec<(usize, i32, Option<DeadlineReader>)> =
                Vec::with_capacity(live.len());
            for &slot_idx in &live {
                let slot = &mut slots[slot_idx];
                let child_faults = engine.faults.for_worker(slot_idx as u32, slot.attempts);
                slot.attempts += 1;
                recovery.attempts += 1;
                let (read_end, write_end) = process::pipe_pair()?;
                match process::fork_worker()? {
                    None => {
                        // Child: the parent's read end (and any earlier
                        // workers' read ends we inherited) just leak
                        // until _exit; only our write end matters.
                        drop(read_end);
                        super::IN_WORKER.store(true, Ordering::Relaxed);
                        if let Some(store) = &state {
                            store.begin_journal();
                        }
                        let my_tasks = std::mem::take(&mut slot.tasks);
                        let status = catch_unwind(AssertUnwindSafe(|| {
                            child_main(
                                my_tasks,
                                write_end,
                                nparts,
                                strategy,
                                key_codec,
                                codec,
                                state.as_deref(),
                                child_faults,
                            )
                        }));
                        process::exit_now(match status {
                            Ok(Ok(())) => 0,
                            // Write failure: the coordinator hung up (or
                            // the pipe broke) — nothing left to report to.
                            Ok(Err(_)) => process::EXIT_PIPE,
                            Err(_) => process::EXIT_PANIC,
                        });
                    }
                    Some(pid) => {
                        // Parent: drop our copy of the write end
                        // immediately, or the reader would never see EOF.
                        drop(write_end);
                        children.push((
                            slot_idx,
                            pid,
                            Some(DeadlineReader::new(read_end, deadline)),
                        ));
                    }
                }
            }

            // ---- Read every live stream concurrently (a pipe holds
            // only ~64 KiB; workers block when it fills, so the
            // coordinator must drain all pipes at once). A reader that
            // panics or finds its pipe missing is a typed Protocol
            // error, never a coordinator abort. ----
            let mut harvests: Vec<(Harvest<K, V>, Result<(), EngineError>)> =
                Vec::with_capacity(children.len());
            std::thread::scope(|scope| {
                let handles: Vec<_> = children
                    .iter_mut()
                    .map(|(_, _, read_end)| {
                        read_end.take().map(|r| {
                            scope.spawn(move || {
                                read_worker_stream(r, codec, engine.read_deadline_ms)
                            })
                        })
                    })
                    .collect();
                for h in handles {
                    harvests.push(match h {
                        Some(handle) => handle.join().unwrap_or_else(|_| {
                            (
                                Harvest::empty(),
                                Err(EngineError::Protocol("reader thread panicked")),
                            )
                        }),
                        None => (
                            Harvest::empty(),
                            Err(EngineError::Protocol("worker pipe already consumed")),
                        ),
                    });
                }
            });

            // ---- A worker that tripped the read deadline is still
            // alive (that is what a stall *is*): SIGKILL it so the
            // unconditional reap below cannot block on it. Other stream
            // errors need no signal — the erroring reader dropped its
            // pipe end, so a still-writing child dies of `EPIPE` on its
            // own. `killed` remembers whether *we* delivered the SIGKILL
            // (a `kill` also "succeeds" against an already-dead unreaped
            // child, hence the timeout-only condition), so the reaper
            // below can tell our kill from a worker's own death. ----
            let mut killed = Vec::with_capacity(children.len());
            for ((_, pid, _), (_, status)) in children.iter().zip(&harvests) {
                killed.push(
                    matches!(status, Err(EngineError::WorkerTimeout { .. }))
                        && process::kill_process(*pid),
                );
            }
            let mut exits = Vec::with_capacity(children.len());
            for (_, pid, _) in &children {
                exits.push(process::wait_for(*pid)?);
            }

            // ---- Per worker: commit completed tasks (their pairs and
            // state ops count exactly once, which keeps
            // `wire.pair_bytes == shuffle_bytes` true through
            // recovery), then resolve failures into retry-or-error. ----
            for (i, (harvest, status)) in harvests.into_iter().enumerate() {
                let (slot_idx, _, _) = children[i];
                let slot = &mut slots[slot_idx];
                // Physical traffic is counted as received, retries and
                // discarded partial tasks included — it measures what
                // crossed the pipes, not what survived.
                wire.frame_bytes += harvest.frame_bytes;
                wire.frames += harvest.frames;
                for done in harvest.completed {
                    let Some(pos) = slot
                        .tasks
                        .iter()
                        .position(|t| t.split_id == done.spill.split_id)
                    else {
                        return Err(EngineError::Protocol("TASK_END for an unassigned task"));
                    };
                    slot.tasks.remove(pos);
                    wire.pair_bytes += done.pair_bytes;
                    wire.state_bytes += done.state_bytes;
                    per_task.push(done.spill);
                    if let Some(store) = &state {
                        for op in done.state_ops {
                            store.apply(op);
                        }
                    }
                }

                let death = match exits[i] {
                    // A self-inflicted death explains the stream error it
                    // caused; a SIGKILL *we* sent does not.
                    Exit::Signal(signal) if !(killed[i] && signal == process::SIGKILL) => {
                        Some(EngineError::WorkerDied {
                            worker: slot_idx,
                            exit_code: None,
                            signal: Some(signal),
                        })
                    }
                    Exit::Code(code) if code != 0 && code != process::EXIT_PIPE => {
                        Some(EngineError::WorkerDied {
                            worker: slot_idx,
                            exit_code: Some(code),
                            signal: None,
                        })
                    }
                    _ => None,
                };
                let failure = match (death, status) {
                    (Some(d), _) => Some(d),
                    (None, Err(e)) => Some(rewrite_worker(e, slot_idx)),
                    // EXIT_PIPE without any stream error: the pipe broke
                    // under a worker whose stream looked fine — still a
                    // failed attempt.
                    (None, Ok(())) => match exits[i] {
                        Exit::Code(code) if code == process::EXIT_PIPE => {
                            Some(EngineError::WorkerDied {
                                worker: slot_idx,
                                exit_code: Some(code),
                                signal: None,
                            })
                        }
                        _ => None,
                    },
                };

                match failure {
                    None => {
                        if !slot.tasks.is_empty() {
                            // Clean stream, clean exit, but tasks
                            // missing: the worker lied about its count.
                            return Err(EngineError::Protocol("task count mismatch"));
                        }
                    }
                    Some(err) => {
                        match &err {
                            EngineError::WorkerTimeout { .. } => recovery.timeouts += 1,
                            EngineError::CorruptFrame { .. } => recovery.corrupt_frames += 1,
                            _ => {}
                        }
                        if slot.tasks.is_empty() {
                            // Every assigned task already committed; the
                            // failure hit after the last TASK_END (e.g. a
                            // cut WORKER_END). The committed, checksummed
                            // data is complete — nothing to re-execute.
                            continue;
                        }
                        if slot.attempts > engine.max_task_retries {
                            return Err(err);
                        }
                        recovery.tasks_retried += slot.tasks.len() as u64;
                        recovery.workers_respawned += 1;
                    }
                }
            }
            round += 1;
        }

        if per_task.len() != ntasks {
            return Err(EngineError::Protocol("task count mismatch"));
        }
        per_task.sort_by_key(|t| t.split_id);
        let wall_map_s = map_start.elapsed().as_secs_f64();

        let mut out = shuffle_reduce_finish(
            cluster,
            &engine,
            per_task,
            reduce,
            finish,
            broadcast_bytes,
            strategy,
            key_codec,
            wall_map_s,
        );
        out.metrics.wire = wire;
        out.metrics.recovery = recovery;
        Ok(out)
    }

    /// Rewrites the placeholder worker index the stream layer reports
    /// with the worker's real slot index.
    fn rewrite_worker(e: EngineError, worker: usize) -> EngineError {
        match e {
            EngineError::TruncatedFrame { .. } => EngineError::TruncatedFrame { worker },
            EngineError::CorruptFrame { .. } => EngineError::CorruptFrame { worker },
            EngineError::WorkerTimeout { deadline_ms, .. } => EngineError::WorkerTimeout {
                worker,
                deadline_ms,
            },
            other => other,
        }
    }

    /// The forked child's whole life: run the assigned tasks through the
    /// shared map-task unit, stream each spill as frames followed by the
    /// task's state-journal ops and its `TASK_END` (the commit point),
    /// close with `WORKER_END`, flush. Any `Err` means the pipe is gone
    /// and the child exits `EXIT_PIPE`. Armed [`ChildFaults`] fire here:
    /// they exist so the chaos suite can manufacture each failure mode
    /// deterministically.
    #[allow(clippy::too_many_arguments)]
    fn child_main<K, V>(
        tasks: Vec<MapTask<K, V>>,
        write_end: File,
        nparts: usize,
        strategy: ReduceStrategy,
        key_codec: Option<fn(&K) -> u64>,
        codec: PairCodec<K, V>,
        state: Option<&StateStore>,
        faults: ChildFaults,
    ) -> std::io::Result<()>
    where
        K: Ord + std::hash::Hash + Send + WireSize + 'static,
        V: Send + WireSize + 'static,
    {
        if let Some(ms) = faults.stall_ms {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let mut writer = FrameWriter::with_faults(
            BufWriter::with_capacity(PAIR_CHUNK_BYTES, write_end),
            faults.writer,
        );
        let mut worker_state = MapWorker::new();
        let ntasks = tasks.len() as u32;
        let mut payload = Vec::with_capacity(PAIR_CHUNK_BYTES + 64);
        for (local_idx, task) in tasks.into_iter().enumerate() {
            if faults.kill_before_task == Some(local_idx as u32) {
                process::die_by_signal();
            }
            let spill = run_one_task(task, nparts, strategy, key_codec, &mut worker_state);
            payload.clear();
            spill.split_id.encode_wire(&mut payload);
            u8::from(spill.scattered).encode_wire(&mut payload);
            (spill.runs.len() as u32).encode_wire(&mut payload);
            spill.records_read.encode_wire(&mut payload);
            spill.work.bytes_scanned.encode_wire(&mut payload);
            spill.work.cpu_ops.encode_wire(&mut payload);
            spill.pairs.encode_wire(&mut payload);
            spill.bytes.encode_wire(&mut payload);
            writer.write_frame(tag::TASK_BEGIN, &payload)?;
            for run in &spill.runs {
                payload.clear();
                (run.len() as u64).encode_wire(&mut payload);
                writer.write_frame(tag::RUN_BEGIN, &payload)?;
                // Stream the run in bounded chunks: [count][encoded
                // pairs…], cut when the buffer passes the chunk target.
                let mut count = 0u32;
                payload.clear();
                payload.extend_from_slice(&[0; 4]);
                for (k, v) in run {
                    (codec.encode)(k, v, &mut payload);
                    count += 1;
                    if payload.len() >= PAIR_CHUNK_BYTES {
                        payload[..4].copy_from_slice(&count.to_le_bytes());
                        writer.write_frame(tag::PAIRS, &payload)?;
                        count = 0;
                        payload.clear();
                        payload.extend_from_slice(&[0; 4]);
                    }
                }
                if count > 0 {
                    payload[..4].copy_from_slice(&count.to_le_bytes());
                    writer.write_frame(tag::PAIRS, &payload)?;
                }
            }
            // Ship this task's state-journal ops *before* its TASK_END:
            // the coordinator replays exactly the ops of committed
            // tasks, so a task cut mid-stream loses its state mutations
            // along with its pairs — and its re-execution regenerates
            // both.
            if let Some(store) = state {
                for op in store.drain_journal() {
                    payload.clear();
                    match op {
                        StateOp::Save(split, bytes) => {
                            split.encode_wire(&mut payload);
                            bytes.encode_wire(&mut payload);
                            writer.write_frame(tag::STATE_SAVE, &payload)?;
                        }
                        StateOp::Take(split) => {
                            split.encode_wire(&mut payload);
                            writer.write_frame(tag::STATE_TAKE, &payload)?;
                        }
                    }
                }
                store.begin_journal();
            }
            writer.write_frame(tag::TASK_END, &[])?;
            // Push the commit point onto the pipe: a task the child has
            // finished must not be lost to a later crash just because
            // its frames sat in the BufWriter.
            writer.flush()?;
        }
        payload.clear();
        ntasks.encode_wire(&mut payload);
        writer.write_frame(tag::WORKER_END, &payload)?;
        writer.flush()
    }

    /// One committed (TASK_END-confirmed) task off a worker's stream.
    struct CompletedTask<K, V> {
        spill: TaskSpill<K, V>,
        /// The task's state-journal ops, in execution order.
        state_ops: Vec<StateOp>,
        /// Sum of `WireSize::wire_bytes` over the task's decoded pairs —
        /// the measured counterpart of its share of `shuffle_bytes`.
        pair_bytes: u64,
        state_bytes: u64,
    }

    /// What the coordinator gathered from one worker's stream. Partial
    /// tasks (no `TASK_END` yet when the stream failed) never appear
    /// here — that discard is the recovery layer's correctness
    /// cornerstone.
    struct Harvest<K, V> {
        completed: Vec<CompletedTask<K, V>>,
        /// Physical bytes read, frame headers and CRC trailers included.
        frame_bytes: u64,
        frames: u64,
    }

    impl<K, V> Harvest<K, V> {
        fn empty() -> Self {
            Self {
                completed: Vec::new(),
                frame_bytes: 0,
                frames: 0,
            }
        }
    }

    /// A task being assembled: its spill, how many runs are still due,
    /// and its not-yet-committed state ops and byte counts.
    struct PendingTask<K, V> {
        spill: TaskSpill<K, V>,
        nruns: u32,
        state_ops: Vec<StateOp>,
        pair_bytes: u64,
        state_bytes: u64,
    }

    /// Drains one worker's pipe to EOF, decoding frames into committed
    /// tasks. Always returns the tasks committed before any failure —
    /// the coordinator keeps those and re-executes only the rest.
    /// Dropping the reader (and with it the pipe end) on an error is
    /// what un-blocks a worker still writing.
    fn read_worker_stream<R: Read, K, V>(
        read_end: R,
        codec: PairCodec<K, V>,
        deadline_ms: u64,
    ) -> (Harvest<K, V>, Result<(), EngineError>)
    where
        K: WireSize,
        V: WireSize,
    {
        let mut reader = FrameReader::new(read_end);
        let mut harvest = Harvest::empty();
        let status = drain_stream(&mut reader, codec, deadline_ms, &mut harvest);
        harvest.frame_bytes = reader.bytes;
        harvest.frames = reader.frames;
        (harvest, status)
    }

    fn drain_stream<R: Read, K, V>(
        reader: &mut FrameReader<R>,
        codec: PairCodec<K, V>,
        deadline_ms: u64,
        harvest: &mut Harvest<K, V>,
    ) -> Result<(), EngineError>
    where
        K: WireSize,
        V: WireSize,
    {
        let mut pending: Option<PendingTask<K, V>> = None;
        let mut ended = false;
        loop {
            let frame = reader.read_frame().map_err(|e| match e {
                // The deadline reader reports an expired idle deadline
                // as TimedOut; surface it as the typed timeout.
                EngineError::Io(io) if io.kind() == std::io::ErrorKind::TimedOut => {
                    EngineError::WorkerTimeout {
                        worker: 0,
                        deadline_ms,
                    }
                }
                other => other,
            })?;
            let Some((frame_tag, mut payload)) = frame else {
                break;
            };
            if ended {
                return Err(EngineError::Protocol("frame after WORKER_END"));
            }
            match frame_tag {
                tag::TASK_BEGIN => {
                    if pending.is_some() {
                        return Err(EngineError::Protocol("TASK_BEGIN inside a task"));
                    }
                    let split_id = u32::decode_wire(&mut payload)?;
                    let scattered = u8::decode_wire(&mut payload)? != 0;
                    let nruns = u32::decode_wire(&mut payload)?;
                    let records_read = u64::decode_wire(&mut payload)?;
                    let bytes_scanned = u64::decode_wire(&mut payload)?;
                    let cpu_ops = f64::decode_wire(&mut payload)?;
                    let pairs = u64::decode_wire(&mut payload)?;
                    let bytes = u64::decode_wire(&mut payload)?;
                    pending = Some(PendingTask {
                        spill: TaskSpill {
                            split_id,
                            runs: Vec::with_capacity(nruns as usize),
                            scattered,
                            work: crate::cost::TaskWork {
                                bytes_scanned,
                                cpu_ops,
                            },
                            records_read,
                            pairs,
                            bytes,
                        },
                        nruns,
                        state_ops: Vec::new(),
                        pair_bytes: 0,
                        state_bytes: 0,
                    });
                }
                tag::RUN_BEGIN => {
                    let Some(p) = pending.as_mut() else {
                        return Err(EngineError::Protocol("RUN_BEGIN outside a task"));
                    };
                    if p.spill.runs.len() as u32 >= p.nruns {
                        return Err(EngineError::Protocol("more runs than declared"));
                    }
                    let npairs = u64::decode_wire(&mut payload)?;
                    p.spill
                        .runs
                        .push(Vec::with_capacity(npairs.min(1 << 20) as usize));
                }
                tag::PAIRS => {
                    let Some(p) = pending.as_mut() else {
                        return Err(EngineError::Protocol("PAIRS outside a task"));
                    };
                    let Some(run) = p.spill.runs.last_mut() else {
                        return Err(EngineError::Protocol("PAIRS before RUN_BEGIN"));
                    };
                    let count = u32::decode_wire(&mut payload)?;
                    for _ in 0..count {
                        let (k, v) = (codec.decode)(&mut payload)?;
                        // Measured bytes-on-wire: the paper's §5 sizes of
                        // the pairs that really crossed the pipe. Counted
                        // per task and added only at commit, so a retried
                        // task's pairs count exactly once.
                        p.pair_bytes += k.wire_bytes() + v.wire_bytes();
                        run.push((k, v));
                    }
                    if !payload.is_empty() {
                        return Err(EngineError::Protocol("trailing bytes in PAIRS"));
                    }
                }
                tag::STATE_SAVE => {
                    // State ops ride inside their task so replay can be
                    // limited to committed TASK_ENDs.
                    let Some(p) = pending.as_mut() else {
                        return Err(EngineError::Protocol("STATE_SAVE outside a task"));
                    };
                    let split = u32::decode_wire(&mut payload)?;
                    let bytes = Vec::<u8>::decode_wire(&mut payload)?;
                    p.state_bytes += bytes.len() as u64;
                    p.state_ops.push(StateOp::Save(split, bytes));
                }
                tag::STATE_TAKE => {
                    let Some(p) = pending.as_mut() else {
                        return Err(EngineError::Protocol("STATE_TAKE outside a task"));
                    };
                    let split = u32::decode_wire(&mut payload)?;
                    p.state_ops.push(StateOp::Take(split));
                }
                tag::TASK_END => {
                    let Some(p) = pending.take() else {
                        return Err(EngineError::Protocol("TASK_END outside a task"));
                    };
                    if p.spill.runs.len() as u32 != p.nruns {
                        return Err(EngineError::Protocol("fewer runs than declared"));
                    }
                    harvest.completed.push(CompletedTask {
                        spill: p.spill,
                        state_ops: p.state_ops,
                        pair_bytes: p.pair_bytes,
                        state_bytes: p.state_bytes,
                    });
                }
                tag::WORKER_END => {
                    if pending.is_some() {
                        return Err(EngineError::Protocol("WORKER_END inside a task"));
                    }
                    let tasks_done = u32::decode_wire(&mut payload)?;
                    if tasks_done as usize != harvest.completed.len() {
                        return Err(EngineError::Protocol("task count mismatch"));
                    }
                    ended = true;
                }
                _ => return Err(EngineError::Protocol("unknown frame tag")),
            }
        }
        if !ended {
            // Clean EOF at a frame boundary, but the worker never said
            // goodbye: its stream is incomplete all the same.
            return Err(EngineError::TruncatedFrame { worker: 0 });
        }
        Ok(())
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::transport::WriterFaults;

        fn test_codec() -> PairCodec<u32, u64> {
            PairCodec {
                encode: |k, v, out| {
                    k.encode_wire(out);
                    v.encode_wire(out);
                },
                decode: |input| Ok((u32::decode_wire(input)?, u64::decode_wire(input)?)),
            }
        }

        /// A writer producing a synthetic worker stream for the decoder
        /// tests below (no processes involved).
        fn stream() -> FrameWriter<Vec<u8>> {
            FrameWriter::new(Vec::new())
        }

        fn task_begin(w: &mut FrameWriter<Vec<u8>>, split: u32, nruns: u32) {
            let mut p = Vec::new();
            split.encode_wire(&mut p);
            0u8.encode_wire(&mut p);
            nruns.encode_wire(&mut p);
            5u64.encode_wire(&mut p); // records_read
            40u64.encode_wire(&mut p); // bytes_scanned
            0f64.encode_wire(&mut p); // cpu_ops
            1u64.encode_wire(&mut p); // pairs
            12u64.encode_wire(&mut p); // bytes
            w.write_frame(tag::TASK_BEGIN, &p).unwrap();
        }

        fn run_with_one_pair(w: &mut FrameWriter<Vec<u8>>, k: u32, v: u64) {
            let mut p = Vec::new();
            1u64.encode_wire(&mut p);
            w.write_frame(tag::RUN_BEGIN, &p).unwrap();
            p.clear();
            p.extend_from_slice(&1u32.to_le_bytes());
            k.encode_wire(&mut p);
            v.encode_wire(&mut p);
            w.write_frame(tag::PAIRS, &p).unwrap();
        }

        fn worker_end(w: &mut FrameWriter<Vec<u8>>, ntasks: u32) {
            let mut p = Vec::new();
            ntasks.encode_wire(&mut p);
            w.write_frame(tag::WORKER_END, &p).unwrap();
        }

        fn decode(bytes: &[u8]) -> (Harvest<u32, u64>, Result<(), EngineError>) {
            read_worker_stream(bytes, test_codec(), 0)
        }

        #[test]
        fn zero_length_pairs_payload_is_a_typed_error() {
            let mut w = stream();
            task_begin(&mut w, 0, 1);
            let mut p = Vec::new();
            1u64.encode_wire(&mut p);
            w.write_frame(tag::RUN_BEGIN, &p).unwrap();
            // A PAIRS frame with an empty payload: even its count prefix
            // is missing. Must be a typed protocol error, not UB.
            w.write_frame(tag::PAIRS, &[]).unwrap();
            let (h, res) = decode(&w.into_inner());
            assert!(h.completed.is_empty());
            assert!(matches!(res, Err(EngineError::Protocol(_))), "{res:?}");
        }

        #[test]
        fn state_save_for_an_unknown_split_commits_deterministically() {
            // A STATE_SAVE for a split the worker was never assigned is
            // accepted: the state store is keyed by split id and the op
            // rides inside a committed task. Deterministic success, by
            // design.
            let mut w = stream();
            task_begin(&mut w, 0, 1);
            run_with_one_pair(&mut w, 7, 1);
            let mut p = Vec::new();
            99u32.encode_wire(&mut p);
            vec![1u8, 2, 3].encode_wire(&mut p);
            w.write_frame(tag::STATE_SAVE, &p).unwrap();
            w.write_frame(tag::TASK_END, &[]).unwrap();
            worker_end(&mut w, 1);
            let (h, res) = decode(&w.into_inner());
            assert!(res.is_ok(), "{res:?}");
            assert_eq!(h.completed.len(), 1);
            assert_eq!(
                h.completed[0].state_ops,
                vec![StateOp::Save(99, vec![1, 2, 3])]
            );
            assert_eq!(h.completed[0].state_bytes, 3);
        }

        #[test]
        fn state_frames_outside_a_task_are_protocol_errors() {
            let mut w = stream();
            let mut p = Vec::new();
            1u32.encode_wire(&mut p);
            vec![9u8].encode_wire(&mut p);
            w.write_frame(tag::STATE_SAVE, &p).unwrap();
            let (_, res) = decode(&w.into_inner());
            assert!(matches!(res, Err(EngineError::Protocol(_))));
        }

        #[test]
        fn partial_task_is_discarded_but_committed_tasks_survive() {
            let mut w = stream();
            task_begin(&mut w, 0, 1);
            run_with_one_pair(&mut w, 3, 30);
            w.write_frame(tag::TASK_END, &[]).unwrap();
            // Second task begins but never ends: the stream dies here.
            task_begin(&mut w, 1, 1);
            run_with_one_pair(&mut w, 4, 40);
            let (h, res) = decode(&w.into_inner());
            assert!(matches!(res, Err(EngineError::TruncatedFrame { .. })));
            assert_eq!(h.completed.len(), 1, "first task committed");
            assert_eq!(h.completed[0].spill.split_id, 0);
            // Only the committed task's pairs are counted.
            assert_eq!(h.completed[0].pair_bytes, 12);
        }

        #[test]
        fn worker_end_task_count_is_checked() {
            let mut w = stream();
            task_begin(&mut w, 0, 1);
            run_with_one_pair(&mut w, 1, 1);
            w.write_frame(tag::TASK_END, &[]).unwrap();
            worker_end(&mut w, 2); // lies: only 1 task committed
            let (_, res) = decode(&w.into_inner());
            assert!(matches!(
                res,
                Err(EngineError::Protocol("task count mismatch"))
            ));
        }

        #[test]
        fn injected_truncation_discards_the_cut_task() {
            // Same stream, but the writer is armed to cut after 5 whole
            // frames — task 0's four frames plus task 1's TASK_BEGIN, so
            // the stream dies mid second task: decoding commits task 0
            // and reports a truncated stream.
            let mut w = FrameWriter::with_faults(
                Vec::new(),
                WriterFaults {
                    truncate_after: Some(5),
                    corrupt_frame: None,
                },
            );
            task_begin(&mut w, 0, 1);
            run_with_one_pair(&mut w, 3, 30);
            w.write_frame(tag::TASK_END, &[]).unwrap();
            task_begin(&mut w, 1, 1);
            run_with_one_pair(&mut w, 4, 40);
            w.write_frame(tag::TASK_END, &[]).unwrap();
            worker_end(&mut w, 2);
            let (h, res) = decode(&w.into_inner());
            assert!(matches!(res, Err(EngineError::TruncatedFrame { .. })));
            assert_eq!(h.completed.len(), 1);
        }
    }
}
