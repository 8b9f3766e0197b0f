//! The multi-process executor: forked map workers that serve a whole
//! job, and a self-healing coordinating parent.
//!
//! A multi-process [`crate::Job`] deals its map tasks round-robin into
//! worker slots and runs everything downstream of the map phase (shuffle,
//! reduce, Close hook, stitching) in the coordinator, reusing the
//! pipelined engine's own `crate::engine::run_one_task` and
//! `crate::engine::shuffle_reduce_finish` — the two modes differ *only*
//! in how spills travel, which is what makes them bit-identical by
//! construction.
//!
//! ```text
//!  coordinator                                 worker w (forked once per job)
//!  ───────────                                 ──────────────────────────────
//!  first round: fork one worker per slot ────▶ waits on its down-pipe
//!  each round: ROUND frame ───── down-pipe ──▶ (round index + broadcast)
//!  reader thread per up-pipe ◀── framed spill  runs its tasks via run_one_task,
//!  (idle read deadline)                        streams TASK/RUN/PAIRS frames
//!  decode + CRC-verify frames                  per task, then ROUND_END; each
//!  commit tasks at TASK_END                    task keeps its state for the
//!  respawn a lost worker: it replays the       next round; exits 0 when its
//!  rounds so far, then streams the round's     down-pipe hits EOF
//!  uncommitted tasks (bounded retries)
//!  shuffle_reduce_finish (shared code)
//!  drop the job: SIGKILL + reap every worker
//! ```
//!
//! **Fork once, rounds on a down-pipe.** Workers are forked, not spawned:
//! map closures capture datasets that cannot cross an `exec`, but fork's
//! copy-on-write snapshot carries them for free. A worker then serves
//! every round of its job, and what a task keeps from one round to the
//! next lives in its own closure inside that worker — the paper's
//! mapper-local state file (Appendix A), which costs no network. The only
//! bytes sent down are each round's broadcast (the paper's Job
//! Configuration / Distributed Cache: T₁/m, then R, for H-WTopk). The
//! transport is the [`crate::transport`] frame protocol; the coordinator
//! counts [`crate::metrics::WireTraffic`] from the frames it decodes.
//!
//! ## Fault tolerance: recovery is replay
//!
//! The unit of recovery is the task, and the commit point is its
//! `TASK_END` frame. When a worker dies, truncates its stream, times out
//! ([`crate::EngineError::WorkerTimeout`], enforced by an idle read
//! deadline on the pipe), or fails a frame checksum
//! ([`crate::EngineError::CorruptFrame`]), everything after its last
//! committed `TASK_END` is discarded, the worker is SIGKILLed (unless its
//! stream already ended) and reaped, and the slot forks a new worker
//! (bounded per round by [`crate::EngineConfig::max_task_retries`], with
//! exponential backoff). The coordinator never ran its copies of the task
//! closures, so they are pristine: the new worker replays the earlier
//! rounds silently with their recorded broadcasts, re-runs the failed
//! round's committed tasks silently, and streams only the uncommitted
//! ones. A task's output depends only on its split, round and broadcast,
//! so a recovered run commits exactly one copy of every task's pairs —
//! bit-identical outputs, logical metrics, and `wire.pair_bytes ==
//! shuffle_bytes` — with the activity reported in
//! [`crate::metrics::RecoveryStats`]. A worker lost after its whole round
//! committed is replaced when the next round starts, if one does.
//!
//! Failure containment: a child that panics exits with
//! `transport::process::EXIT_PANIC`; one whose pipe fails exits with
//! `transport::process::EXIT_PIPE`. Per failure the coordinator resolves
//! the most meaningful [`crate::EngineError`]: a killed or aborted worker
//! wins over the truncated stream its death caused, but a timeout or
//! checksum failure wins over the `SIGKILL` the coordinator delivered in
//! response. Only when a slot's retry budget is exhausted does the error
//! surface out of [`crate::Job::round`]. However a job ends — finished,
//! failed, or unwound by a panic — dropping it kills and reaps every
//! worker it still has.

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
pub(crate) use unix::Workers;

/// The multi-process mode is unix only: elsewhere a job cannot start it.
#[cfg(not(unix))]
pub(crate) struct Workers<K, V>(std::marker::PhantomData<(K, V)>);

#[cfg(not(unix))]
impl<K, V> Workers<K, V> {
    pub(crate) fn new<R>(
        _spec: &mut crate::job::JobSpec<K, V, R>,
    ) -> Result<Self, crate::EngineError> {
        Err(crate::EngineError::Unsupported)
    }

    pub(crate) fn round<R>(
        &mut self,
        _cluster: &crate::cost::ClusterConfig,
        _spec: &mut crate::job::JobSpec<K, V, R>,
        _broadcast: &[u8],
    ) -> Result<crate::job::JobOutput<R>, crate::EngineError> {
        Err(crate::EngineError::Unsupported)
    }
}

#[cfg(unix)]
mod unix {
    use std::fs::File;
    use std::io::{BufWriter, Read};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use crate::cost::ClusterConfig;
    use crate::engine::{run_one_task, shuffle_reduce_finish, EngineConfig, MapWorker, TaskSpill};
    use crate::fault::ChildFaults;
    use crate::job::{JobOutput, JobSpec, MapTask, PairCodec};
    use crate::metrics::{RecoveryStats, WireTraffic};
    use crate::transport::process::{self, DeadlineReader, Exit};
    use crate::transport::{
        tag, EngineError, FrameReader, FrameWriter, WriterFaults, MAX_FRAME_BYTES, PAIR_CHUNK_BYTES,
    };
    use crate::wire::{WireCodec, WireSize};

    /// A live worker process and the coordinator's ends of its pipes.
    struct Resident {
        pid: i32,
        /// Round frames go down this pipe.
        down: FrameWriter<File>,
        /// Spills come up this one, under the idle read deadline.
        up: FrameReader<DeadlineReader>,
    }

    /// One worker slot: the tasks dealt to it — never run in the
    /// coordinator, so every worker forked for the slot starts from their
    /// pristine closures — its live worker, if any, and how many workers
    /// it has forked.
    struct Slot<K, V> {
        tasks: Vec<MapTask<K, V>>,
        resident: Option<Resident>,
        spawns: u32,
    }

    /// The map side of a multi-process job: its worker slots, every
    /// round's broadcast so far (what a respawned worker replays), and
    /// what every round needs: the partition count, the pair codec and
    /// the engine settings.
    pub(crate) struct Workers<K, V> {
        slots: Vec<Slot<K, V>>,
        history: Vec<Vec<u8>>,
        nparts: usize,
        codec: PairCodec<K, V>,
        engine: EngineConfig,
    }

    impl<K, V> Drop for Workers<K, V> {
        /// Kills and reaps every worker still alive: a job dropped between
        /// rounds — finished, failed, or unwound by a panic — leaves no
        /// process behind.
        fn drop(&mut self) {
            for slot in &mut self.slots {
                if let Some(Resident { pid, .. }) = slot.resident.take() {
                    process::kill_process(pid);
                    let _ = process::wait_for(pid);
                }
            }
        }
    }

    impl<K, V> Workers<K, V>
    where
        K: Ord + std::hash::Hash + Send + WireSize + 'static,
        V: Send + WireSize + 'static,
    {
        /// Takes `spec`'s map tasks into worker slots, round-robin. Forks
        /// nothing yet; a job without tasks never will.
        pub(crate) fn new<R>(spec: &mut JobSpec<K, V, R>) -> Result<Self, EngineError> {
            let Some(codec) = spec.pair_codec else {
                return Err(EngineError::MissingWireCodec);
            };
            let engine = spec.engine;
            assert!(engine.num_reducers >= 1, "need at least one reducer");
            let nparts = engine.num_reducers as usize;
            let tasks = std::mem::take(&mut spec.map_tasks);
            // Even a single worker forks: the point of this mode is that
            // the bytes genuinely cross a process boundary.
            let nworkers = if tasks.is_empty() {
                0
            } else {
                engine.map_workers(tasks.len())
            };
            let mut slots: Vec<Slot<K, V>> = (0..nworkers)
                .map(|_| Slot {
                    tasks: Vec::new(),
                    resident: None,
                    spawns: 0,
                })
                .collect();
            for (i, task) in tasks.into_iter().enumerate() {
                slots[i % nworkers].tasks.push(task);
            }
            Ok(Self {
                slots,
                history: Vec::new(),
                nparts,
                codec,
                engine,
            })
        }

        /// Runs the next round: sends every worker the round frame,
        /// commits what comes back, respawns lost workers until every task
        /// has committed once, then reduces in the coordinator via the
        /// shared [`shuffle_reduce_finish`].
        pub(crate) fn round<R: Send>(
            &mut self,
            cluster: &ClusterConfig,
            spec: &mut JobSpec<K, V, R>,
            broadcast: &[u8],
        ) -> Result<JobOutput<R>, EngineError> {
            let round = self.history.len() as u32;
            let mut frame = round.to_le_bytes().to_vec();
            frame.extend_from_slice(broadcast);
            if frame.len() > MAX_FRAME_BYTES as usize {
                return Err(EngineError::FrameTooLarge {
                    declared: u32::try_from(frame.len()).unwrap_or(u32::MAX),
                });
            }
            let map_start = Instant::now();
            let mut wire = WireTraffic {
                comm_rounds: u32::from(!broadcast.is_empty()),
                ..Default::default()
            };
            let mut recovery = RecoveryStats::default();
            // The first round forks every slot's worker; a slot whose
            // worker was lost after committing its whole last round gets
            // a new one here, caught up on the rounds so far.
            for s in 0..self.slots.len() {
                if self.slots[s].resident.is_none() {
                    self.spawn(s, None, &mut wire, &mut recovery)?;
                }
            }
            self.history.push(broadcast.to_vec());

            let nslots = self.slots.len();
            let mut committed: Vec<Vec<u32>> = vec![Vec::new(); nslots];
            let mut failures = vec![0u32; nslots];
            let mut per_task: Vec<TaskSpill<K, V>> = Vec::new();
            let mut pending: Vec<usize> = (0..nslots).collect();
            let mut down = Some(frame.as_slice());
            let mut retry = 0u32;
            while !pending.is_empty() {
                let harvests = self.read(&pending, down.take());
                // ---- Per worker: commit completed tasks (their pairs
                // count exactly once, which keeps `wire.pair_bytes ==
                // shuffle_bytes` true through recovery), then resolve a
                // failure into a respawn or an error. ----
                let mut lost = Vec::new();
                for (&s, (harvest, status)) in pending.iter().zip(harvests) {
                    // Physical traffic counts as received, discarded
                    // partial tasks included.
                    wire.frame_bytes += harvest.frame_bytes;
                    wire.frames += harvest.frames;
                    let tasks = &self.slots[s].tasks;
                    for done in harvest.completed {
                        let split = done.spill.split_id;
                        if !tasks.iter().any(|t| t.split_id == split)
                            || committed[s].contains(&split)
                        {
                            return Err(EngineError::Protocol("TASK_END for an unassigned task"));
                        }
                        committed[s].push(split);
                        wire.pair_bytes += done.pair_bytes;
                        per_task.push(done.spill);
                    }
                    let uncommitted = tasks.len() - committed[s].len();
                    let err = match status {
                        Ok(()) if uncommitted == 0 => continue,
                        // A clean round that skipped tasks: the worker
                        // lied about its assignment.
                        Ok(()) => return Err(EngineError::Protocol("task count mismatch")),
                        Err(stream) => self.bury(s, stream)?,
                    };
                    match err {
                        EngineError::WorkerTimeout { .. } => recovery.timeouts += 1,
                        EngineError::CorruptFrame { .. } => recovery.corrupt_frames += 1,
                        _ => {}
                    }
                    if uncommitted == 0 {
                        // The committed, checksummed round is complete;
                        // the next round forks the slot a new worker.
                        continue;
                    }
                    failures[s] += 1;
                    if failures[s] > self.engine.max_task_retries {
                        return Err(err);
                    }
                    recovery.tasks_retried += uncommitted as u64;
                    lost.push(s);
                }
                if !lost.is_empty() && self.engine.retry_backoff_ms > 0 {
                    let backoff = self.engine.retry_backoff_ms << retry.min(6);
                    std::thread::sleep(Duration::from_millis(backoff));
                    retry += 1;
                }
                for &s in &lost {
                    self.spawn(s, Some(&committed[s]), &mut wire, &mut recovery)?;
                }
                pending = lost;
            }
            per_task.sort_by_key(|t| t.split_id);
            let wall_map_s = map_start.elapsed().as_secs_f64();

            let mut out =
                shuffle_reduce_finish(cluster, per_task, spec, broadcast.len() as u64, wall_map_s);
            out.metrics.wire = wire;
            out.metrics.recovery = recovery;
            Ok(out)
        }

        /// Reads one round off every `pending` slot's worker at once (a
        /// pipe holds only so much and a worker blocks when it fills, so
        /// all pipes must drain together), first sending `down` when
        /// given. A reader that panics is a typed protocol error, never a
        /// coordinator abort.
        fn read(
            &mut self,
            pending: &[usize],
            down: Option<&[u8]>,
        ) -> Vec<(Harvest<K, V>, Result<(), EngineError>)> {
            let (codec, deadline_ms) = (self.codec, self.engine.read_deadline_ms);
            std::thread::scope(|scope| {
                let readers: Vec<_> = self
                    .slots
                    .iter_mut()
                    .enumerate()
                    .filter(|(s, _)| pending.contains(s))
                    .map(|(_, slot)| {
                        let resident = slot.resident.as_mut().expect("pending slots have a worker");
                        scope.spawn(move || {
                            if let Some(frame) = down {
                                // A worker gone since the last round shows
                                // on its up-pipe.
                                let _ = resident.down.write_frame(tag::ROUND, frame);
                            }
                            read_round(&mut resident.up, codec, deadline_ms)
                        })
                    })
                    .collect();
                readers
                    .into_iter()
                    .map(|reader| {
                        reader.join().unwrap_or_else(|_| {
                            (
                                Harvest::empty(),
                                Err(EngineError::Protocol("reader thread panicked")),
                            )
                        })
                    })
                    .collect()
            })
        }

        /// Ends slot `s`'s worker after its round stream failed with
        /// `stream`, and names the failure. A worker whose stream hit EOF
        /// is already exiting and is only reaped; any other may be alive
        /// (stalled, or streaming past a bad frame) and is SIGKILLed
        /// first. A death the worker brought on itself explains the
        /// stream error it caused; the SIGKILL sent here does not.
        fn bury(&mut self, s: usize, stream: EngineError) -> Result<EngineError, EngineError> {
            let Resident { pid, .. } = self.slots[s]
                .resident
                .take()
                .expect("a failed slot had a worker");
            let killed =
                !matches!(stream, EngineError::TruncatedFrame { .. }) && process::kill_process(pid);
            Ok(match process::wait_for(pid)? {
                Exit::Signal(signal) if !(killed && signal == process::SIGKILL) => {
                    EngineError::WorkerDied {
                        worker: s,
                        exit_code: None,
                        signal: Some(signal),
                    }
                }
                Exit::Code(code) if code != 0 && code != process::EXIT_PIPE => {
                    EngineError::WorkerDied {
                        worker: s,
                        exit_code: Some(code),
                        signal: None,
                    }
                }
                _ => rewrite_worker(stream, s),
            })
        }

        /// Forks a worker for slot `s`. It catches up on the rounds
        /// recorded so far by replaying them silently; with `resume` (the
        /// split ids the interrupted round already committed) the last of
        /// them is the round in flight, whose other tasks it streams.
        fn spawn(
            &mut self,
            s: usize,
            resume: Option<&[u32]>,
            wire: &mut WireTraffic,
            recovery: &mut RecoveryStats,
        ) -> Result<(), EngineError> {
            let slot = &mut self.slots[s];
            let faults = self.engine.faults.for_worker(s as u32, slot.spawns);
            if slot.spawns == 0 {
                wire.workers += 1;
            } else {
                let finished = self.history.len() - usize::from(resume.is_some());
                recovery.workers_respawned += 1;
                recovery.tasks_replayed +=
                    (finished * slot.tasks.len() + resume.map_or(0, <[u32]>::len)) as u64;
            }
            slot.spawns += 1;
            recovery.attempts += 1;
            let (up_read, up_write) = process::pipe_pair()?;
            let (down_read, down_write) = process::pipe_pair()?;
            match process::fork_worker()? {
                None => {
                    drop(up_read);
                    drop(down_write);
                    super::IN_WORKER.store(true, Ordering::Relaxed);
                    let tasks = std::mem::take(&mut self.slots[s].tasks);
                    // Close the other workers' pipe ends inherited from
                    // the coordinator: a worker's down-pipe must reach
                    // EOF once the coordinator is gone.
                    for other in &mut self.slots {
                        drop(other.resident.take());
                    }
                    let status = catch_unwind(AssertUnwindSafe(|| {
                        self.child_main(tasks, up_write, down_read, resume, faults)
                    }));
                    process::exit_now(match status {
                        Ok(Ok(())) => 0,
                        // The coordinator hung up (or a pipe broke):
                        // nothing left to report to.
                        Ok(Err(_)) => process::EXIT_PIPE,
                        Err(_) => process::EXIT_PANIC,
                    });
                }
                Some(pid) => {
                    // Drop our copies of the child's ends at once, or
                    // neither pipe would ever show EOF.
                    drop(up_write);
                    drop(down_read);
                    let deadline = (self.engine.read_deadline_ms > 0)
                        .then(|| Duration::from_millis(self.engine.read_deadline_ms));
                    self.slots[s].resident = Some(Resident {
                        pid,
                        down: FrameWriter::with_faults(down_write, WriterFaults::default()),
                        up: FrameReader::new(DeadlineReader::new(up_read, deadline)),
                    });
                    Ok(())
                }
            }
        }

        /// The forked child's whole life: catch up on the recorded rounds,
        /// then serve one round per `ROUND` frame off the down-pipe until
        /// it hits EOF. Any `Err` means a pipe is gone and the child exits
        /// `EXIT_PIPE`. Armed [`ChildFaults`] fire here: they exist so the
        /// chaos suite can manufacture each failure mode
        /// deterministically.
        fn child_main(
            &self,
            mut tasks: Vec<MapTask<K, V>>,
            up: File,
            down: File,
            resume: Option<&[u32]>,
            faults: ChildFaults,
        ) -> Result<(), EngineError> {
            if let Some(ms) = faults.stall_ms {
                std::thread::sleep(Duration::from_millis(ms));
            }
            let mut out = Upstream {
                writer: FrameWriter::with_faults(
                    BufWriter::with_capacity(PAIR_CHUNK_BYTES, up),
                    faults.writer,
                ),
                worker: MapWorker::new(),
                payload: Vec::with_capacity(PAIR_CHUNK_BYTES + 64),
                ordinal: 0,
                kill_before_task: faults.kill_before_task,
            };
            // Rebuild the tasks' state: finished rounds replay silently
            // (their spills are dropped), the round in flight streams
            // what it has not committed.
            let finished = self.history.len() - usize::from(resume.is_some());
            for (round, broadcast) in self.history[..finished].iter().enumerate() {
                let broadcast = Arc::from(broadcast.as_slice());
                for task in &mut tasks {
                    run_one_task(task, round as u32, &broadcast, self.nparts, &mut out.worker);
                }
            }
            if let Some(committed) = resume {
                let broadcast = &self.history[finished];
                self.stream_round(&mut tasks, finished as u32, broadcast, committed, &mut out)?;
            }
            let mut next = self.history.len() as u32;
            let mut down = FrameReader::new(down);
            while let Some((frame_tag, mut payload)) = down.read_frame()? {
                if frame_tag != tag::ROUND || u32::decode_wire(&mut payload)? != next {
                    return Err(EngineError::Protocol("unexpected round frame"));
                }
                self.stream_round(&mut tasks, next, payload, &[], &mut out)?;
                if out.writer.is_cut() {
                    // An injected truncation tears the connection down
                    // with the process.
                    break;
                }
                next += 1;
            }
            Ok(())
        }

        /// Runs `round` of every task and streams each spill — its frames,
        /// then its `TASK_END` (the commit point), flushed — except the
        /// tasks in `committed`, which only rebuild their state; closes
        /// the round with `ROUND_END`. An armed kill fires here, by task
        /// ordinal.
        fn stream_round(
            &self,
            tasks: &mut [MapTask<K, V>],
            round: u32,
            broadcast: &[u8],
            committed: &[u32],
            out: &mut Upstream<K, V>,
        ) -> Result<(), EngineError> {
            let broadcast = Arc::from(broadcast);
            let mut sent = 0u32;
            for task in tasks {
                if out.kill_before_task == Some(out.ordinal) {
                    process::die_by_signal();
                }
                out.ordinal += 1;
                let spill = run_one_task(task, round, &broadcast, self.nparts, &mut out.worker);
                if !committed.contains(&spill.split_id) {
                    out.send(&spill, self.codec)?;
                    sent += 1;
                }
            }
            out.payload.clear();
            sent.encode_wire(&mut out.payload);
            out.writer.write_frame(tag::ROUND_END, &out.payload)?;
            out.writer.flush()?;
            Ok(())
        }
    }

    /// A worker's side of its up-pipe, kept for the worker's whole life:
    /// the framed writer (frame ordinals run on across rounds), the
    /// recycled emit buffer, and the task ordinal an armed kill
    /// waits for.
    struct Upstream<K, V> {
        writer: FrameWriter<BufWriter<File>>,
        worker: MapWorker<K, V>,
        payload: Vec<u8>,
        ordinal: u32,
        kill_before_task: Option<u32>,
    }

    impl<K, V> Upstream<K, V> {
        /// Streams one task's spill: `TASK_BEGIN`, per run a `RUN_BEGIN`
        /// and its `PAIRS` chunks, then `TASK_END`, pushed onto the pipe
        /// so a finished task is not lost to a later crash just because
        /// its frames sat in the buffer.
        fn send(&mut self, spill: &TaskSpill<K, V>, codec: PairCodec<K, V>) -> std::io::Result<()> {
            let (writer, payload) = (&mut self.writer, &mut self.payload);
            payload.clear();
            spill.split_id.encode_wire(payload);
            u8::from(spill.scattered).encode_wire(payload);
            (spill.runs.len() as u32).encode_wire(payload);
            spill.records_read.encode_wire(payload);
            spill.work.bytes_scanned.encode_wire(payload);
            spill.work.cpu_ops.encode_wire(payload);
            spill.pairs.encode_wire(payload);
            spill.bytes.encode_wire(payload);
            writer.write_frame(tag::TASK_BEGIN, payload)?;
            for run in &spill.runs {
                payload.clear();
                (run.len() as u64).encode_wire(payload);
                writer.write_frame(tag::RUN_BEGIN, payload)?;
                // Stream the run in bounded chunks: [count][encoded
                // pairs…], cut when the buffer passes the chunk target.
                let mut count = 0u32;
                payload.clear();
                payload.extend_from_slice(&[0; 4]);
                for (k, v) in run {
                    (codec.encode)(k, v, payload);
                    count += 1;
                    if payload.len() >= PAIR_CHUNK_BYTES {
                        payload[..4].copy_from_slice(&count.to_le_bytes());
                        writer.write_frame(tag::PAIRS, payload)?;
                        count = 0;
                        payload.clear();
                        payload.extend_from_slice(&[0; 4]);
                    }
                }
                if count > 0 {
                    payload[..4].copy_from_slice(&count.to_le_bytes());
                    writer.write_frame(tag::PAIRS, payload)?;
                }
            }
            writer.write_frame(tag::TASK_END, &[])?;
            writer.flush()
        }
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

    /// One committed (TASK_END-confirmed) task off a worker's stream.
    struct CompletedTask<K, V> {
        spill: TaskSpill<K, V>,
        /// Sum of `WireSize::wire_bytes` over the task's decoded pairs —
        /// the measured counterpart of its share of `shuffle_bytes`.
        pair_bytes: u64,
    }

    /// What the coordinator gathered from one round of a worker's
    /// stream. Partial tasks (no `TASK_END` yet when the stream failed)
    /// never appear here — that discard is the recovery layer's
    /// correctness cornerstone.
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

    /// Reads one round of a worker's stream, through its `ROUND_END`,
    /// decoding frames into committed tasks. Always returns the tasks
    /// committed before any failure — the coordinator keeps those and
    /// re-executes only the rest.
    fn read_round<R: Read, K, V>(
        reader: &mut FrameReader<R>,
        codec: PairCodec<K, V>,
        deadline_ms: u64,
    ) -> (Harvest<K, V>, Result<(), EngineError>)
    where
        K: WireSize,
        V: WireSize,
    {
        let (bytes, frames) = (reader.bytes, reader.frames);
        let mut harvest = Harvest::empty();
        let status = drain_round(reader, codec, deadline_ms, &mut harvest);
        harvest.frame_bytes = reader.bytes - bytes;
        harvest.frames = reader.frames - frames;
        (harvest, status)
    }

    fn drain_round<R: Read, K, V>(
        reader: &mut FrameReader<R>,
        codec: PairCodec<K, V>,
        deadline_ms: u64,
        harvest: &mut Harvest<K, V>,
    ) -> Result<(), EngineError>
    where
        K: WireSize,
        V: WireSize,
    {
        // The task being assembled: its spill, its declared run count,
        // and its not-yet-committed pair bytes.
        let mut pending: Option<(CompletedTask<K, V>, u32)> = None;
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
                // Clean EOF at a frame boundary, but the worker never
                // closed its round: the stream is incomplete all the same.
                return Err(EngineError::TruncatedFrame { worker: 0 });
            };
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
                    let spill = TaskSpill {
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
                    };
                    pending = Some((
                        CompletedTask {
                            spill,
                            pair_bytes: 0,
                        },
                        nruns,
                    ));
                }
                tag::RUN_BEGIN => {
                    let Some((task, nruns)) = pending.as_mut() else {
                        return Err(EngineError::Protocol("RUN_BEGIN outside a task"));
                    };
                    if task.spill.runs.len() as u32 >= *nruns {
                        return Err(EngineError::Protocol("more runs than declared"));
                    }
                    let npairs = u64::decode_wire(&mut payload)?;
                    task.spill
                        .runs
                        .push(Vec::with_capacity(npairs.min(1 << 20) as usize));
                }
                tag::PAIRS => {
                    let Some((task, _)) = pending.as_mut() else {
                        return Err(EngineError::Protocol("PAIRS outside a task"));
                    };
                    let Some(run) = task.spill.runs.last_mut() else {
                        return Err(EngineError::Protocol("PAIRS before RUN_BEGIN"));
                    };
                    let count = u32::decode_wire(&mut payload)?;
                    for _ in 0..count {
                        let (k, v) = (codec.decode)(&mut payload)?;
                        // Measured bytes-on-wire: the paper's §5 sizes of
                        // the pairs that really crossed the pipe. Counted
                        // per task and added only at commit, so a retried
                        // task's pairs count exactly once.
                        task.pair_bytes += k.wire_bytes() + v.wire_bytes();
                        run.push((k, v));
                    }
                    if !payload.is_empty() {
                        return Err(EngineError::Protocol("trailing bytes in PAIRS"));
                    }
                }
                tag::TASK_END => {
                    let Some((task, nruns)) = pending.take() else {
                        return Err(EngineError::Protocol("TASK_END outside a task"));
                    };
                    if task.spill.runs.len() as u32 != nruns {
                        return Err(EngineError::Protocol("fewer runs than declared"));
                    }
                    harvest.completed.push(task);
                }
                tag::ROUND_END => {
                    if pending.is_some() {
                        return Err(EngineError::Protocol("ROUND_END inside a task"));
                    }
                    let sent = u32::decode_wire(&mut payload)?;
                    if sent as usize != harvest.completed.len() {
                        return Err(EngineError::Protocol("task count mismatch"));
                    }
                    return Ok(());
                }
                _ => return Err(EngineError::Protocol("unknown frame tag")),
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::context::{MapContext, ReduceContext};

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

        fn round_end(w: &mut FrameWriter<Vec<u8>>, ntasks: u32) {
            let mut p = Vec::new();
            ntasks.encode_wire(&mut p);
            w.write_frame(tag::ROUND_END, &p).unwrap();
        }

        fn decode(bytes: &[u8]) -> (Harvest<u32, u64>, Result<(), EngineError>) {
            read_round(&mut FrameReader::new(bytes), test_codec(), 0)
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
        fn a_round_reads_up_to_its_round_end_and_no_further() {
            // Two rounds back to back on one stream: each read stops at
            // its ROUND_END and counts only its own frames.
            let mut w = stream();
            for (round, key) in [(0u32, 3u32), (1, 4)] {
                task_begin(&mut w, round, 1);
                run_with_one_pair(&mut w, key, 1);
                w.write_frame(tag::TASK_END, &[]).unwrap();
                round_end(&mut w, 1);
            }
            let bytes = w.into_inner();
            let mut reader = FrameReader::new(bytes.as_slice());
            for round in 0..2u32 {
                let (h, res) = read_round(&mut reader, test_codec(), 0);
                assert!(res.is_ok(), "{res:?}");
                assert_eq!(h.completed.len(), 1);
                assert_eq!(h.completed[0].spill.split_id, round);
                assert_eq!(h.frames, 5);
            }
            // A third read finds a clean EOF with no round: truncated.
            let (_, res) = read_round(&mut reader, test_codec(), 0);
            assert!(matches!(res, Err(EngineError::TruncatedFrame { .. })));
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
        fn round_end_task_count_is_checked() {
            let mut w = stream();
            task_begin(&mut w, 0, 1);
            run_with_one_pair(&mut w, 1, 1);
            w.write_frame(tag::TASK_END, &[]).unwrap();
            round_end(&mut w, 2); // lies: only 1 task committed
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
            round_end(&mut w, 2);
            assert!(w.is_cut());
            let (h, res) = decode(&w.into_inner());
            assert!(matches!(res, Err(EngineError::TruncatedFrame { .. })));
            assert_eq!(h.completed.len(), 1);
        }

        #[test]
        fn a_worker_whose_down_pipe_closes_exits_by_itself() {
            let tasks = (0..2u32)
                .map(|j| MapTask::new(j, move |ctx: &mut MapContext<u32, u64>| ctx.emit(j, 1)))
                .collect();
            let mut spec = JobSpec::new(
                "eof",
                tasks,
                |k: &u32, vs: &[u64], ctx: &mut ReduceContext<(u32, u64)>| {
                    ctx.emit((*k, vs.len() as u64));
                },
            )
            .with_wire_codec()
            .with_engine(EngineConfig::multi_process().with_map_parallelism(2));
            let mut workers = Workers::new(&mut spec).unwrap();
            let out = workers
                .round(&ClusterConfig::single_machine(), &mut spec, &[])
                .unwrap();
            assert_eq!(out.outputs, vec![(0, 1), (1, 1)]);
            // Close each worker's down-pipe, and only that: the worker,
            // idle between rounds, must see EOF and exit 0 on its own.
            for slot in &mut workers.slots {
                let Resident { pid, down, up } = slot.resident.take().unwrap();
                drop(down);
                assert!(matches!(process::wait_for(pid).unwrap(), Exit::Code(0)));
                drop(up);
            }
        }
    }
}
