//! Run metrics: the quantities the paper's experiments report.

use std::fmt;

/// Which of its two routes the pipelined engine took to reduce one
/// partition. Purely an execution detail: both routes deliver the
/// identical key-group sequence to the reduce function — key groups in
/// key order, values in `(split id, arrival order)` order — so outputs are
/// bit-identical across routes (differential tests enforce it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceStrategy {
    /// Flat slot-array aggregation over a bounded key domain: pairs
    /// fold (or, for a slice reducer, scatter) into a recycled table
    /// sized to the partition's actual key range, and keys are emitted in
    /// ascending radix (= key) order — no sort. Taken when the job
    /// declares radix keys and an [`crate::EngineConfig::key_domain_hint`]
    /// small enough for a flat array (and, for a slice reducer, the
    /// partition fits its arena's `u32` indexing).
    DenseReduce,
    /// One stable sort of the partition's split-ordered run concatenation
    /// (radix with a key codec, comparison without), then a linear
    /// grouping pass. Taken by every partition the dense table does not.
    SortAtReduce,
}

/// How many reduce partitions of a run took each [`ReduceStrategy`].
/// Lives in [`RunMetrics`] as observability for the engine's route
/// choice; like the `wall_*` fields it is **excluded from `PartialEq`** —
/// two runs that differ only in execution route still compare equal,
/// which is exactly the determinism contract the differential tests pin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReduceStrategyCounts {
    /// Partitions that aggregated through the dense flat-array table.
    pub dense_reduce: u32,
    /// Partitions that sorted their concatenated runs once.
    pub sort_at_reduce: u32,
    /// Always 0: the engine no longer has a merge route. The field stays
    /// because the benchmark's `mapreduce.reduce_merge` row still reads
    /// it.
    pub merge: u32,
}

impl ReduceStrategyCounts {
    /// Records one partition reduced under `strategy`.
    pub(crate) fn record(&mut self, strategy: ReduceStrategy) {
        match strategy {
            ReduceStrategy::DenseReduce => self.dense_reduce += 1,
            ReduceStrategy::SortAtReduce => self.sort_at_reduce += 1,
        }
    }

    /// Total partitions recorded (equals the reducer count for a
    /// pipelined round; the reference engine records nothing).
    pub fn total(&self) -> u32 {
        self.dense_reduce + self.sort_at_reduce
    }

    /// Accumulates another round's counts.
    fn absorb(&mut self, other: &ReduceStrategyCounts) {
        self.dense_reduce += other.dense_reduce;
        self.sort_at_reduce += other.sort_at_reduce;
    }
}

impl fmt::Display for ReduceStrategyCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dense:{}/sort:{}",
            self.dense_reduce, self.sort_at_reduce
        )
    }
}

/// What one reduce partition did in one round of the pipelined engine:
/// its route, its load and its time. [`RunMetrics::reduce_partitions`]
/// holds one per partition per round, so skew and the straggler show.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionReduce {
    /// The route the partition took.
    pub route: ReduceStrategy,
    /// Pairs the partition received.
    pub pairs: u64,
    /// Distinct keys it reduced (reducer calls or folds finished).
    pub keys: u64,
    /// Real elapsed seconds of its reduce, on whichever worker thread ran
    /// it (so the records of parallel partitions overlap in time).
    pub wall_s: f64,
}

/// Measured framed traffic of a multi-process run: what actually crossed
/// the worker → coordinator pipes, counted from the frames themselves.
///
/// All zero for in-process runs (nothing crosses a process boundary
/// there). Like wall-clock, these are *measurements* of a particular
/// execution, not logical properties of the job, so they are **excluded
/// from `PartialEq`** on [`RunMetrics`] — a multi-process run still
/// compares equal to its in-process twin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTraffic {
    /// Bytes of shuffled pairs on the wire, in the job's declared
    /// [`crate::wire::WireCodec`] encoding — the measured counterpart of
    /// [`RunMetrics::shuffle_bytes`], and equal to it by construction
    /// (`cost::validate_measured_shuffle` checks exactly this).
    pub pair_bytes: u64,
    /// Physical bytes through the framed worker → coordinator pipes,
    /// including the 9 bytes of frame header and CRC trailer and the
    /// control frames.
    pub frame_bytes: u64,
    /// Frames received by the coordinator.
    pub frames: u64,
    /// Bytes of per-split map-task state shipped between rounds. Always
    /// zero: a task's state stays in the worker process that computed it
    /// (the paper's local state file, Appendix A), and a respawned worker
    /// rebuilds it by replay instead of receiving it.
    pub state_bytes: u64,
    /// Worker processes forked for the map phase, first spawns only: a
    /// job forks its workers in its first round and keeps them, so a
    /// multi-round job's total equals its worker count.
    pub workers: u32,
    /// Mapper↔reducer communication rounds that actually crossed the
    /// wire. A round with a broadcast counts one (the previous round's
    /// reduce output fed it); a round without counts zero — so H-WTopk's
    /// three MapReduce rounds measure exactly the paper's two
    /// communication rounds.
    pub comm_rounds: u32,
}

impl WireTraffic {
    /// Accumulates another round's traffic.
    fn absorb(&mut self, other: &WireTraffic) {
        self.pair_bytes += other.pair_bytes;
        self.frame_bytes += other.frame_bytes;
        self.frames += other.frames;
        self.state_bytes += other.state_bytes;
        self.workers += other.workers;
        self.comm_rounds += other.comm_rounds;
    }
}

/// What the multi-process coordinator's self-healing layer did during a
/// run: every recovered failure leaves a trace here, while the job's
/// outputs and logical metrics stay bit-identical to a fault-free run.
///
/// All zero for in-process runs and for fault-free multi-process runs
/// (except [`RecoveryStats::attempts`], which counts every worker
/// process launched — `attempts == workers` means nothing was
/// respawned). Like [`WireTraffic`], these are measurements of one
/// particular execution, **excluded from `PartialEq`** on
/// [`RunMetrics`]: a recovered run must still compare equal to its
/// fault-free twin — that *is* the recovery contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Tasks re-executed after their worker died, hung, or sent a bad
    /// stream. Completed tasks are never retried, so this counts only
    /// genuinely lost work.
    pub tasks_retried: u64,
    /// Worker processes respawned to run retried tasks.
    pub workers_respawned: u32,
    /// Read-deadline expiries observed ([`crate::EngineError::WorkerTimeout`]).
    pub timeouts: u32,
    /// Checksum mismatches observed ([`crate::EngineError::CorruptFrame`]).
    pub corrupt_frames: u32,
    /// Total worker processes launched, first spawns included.
    pub attempts: u32,
    /// Tasks a respawned worker re-ran silently to rebuild its splits'
    /// state: every task of the rounds before the failed one, plus the
    /// failed round's already-committed tasks. Their pairs are discarded.
    pub tasks_replayed: u64,
}

impl RecoveryStats {
    /// Whether any failure was recovered during the run.
    pub fn recovered(&self) -> bool {
        self.workers_respawned > 0
    }

    /// Accumulates another round's recovery activity.
    fn absorb(&mut self, other: &RecoveryStats) {
        self.tasks_retried += other.tasks_retried;
        self.workers_respawned += other.workers_respawned;
        self.timeouts += other.timeouts;
        self.corrupt_frames += other.corrupt_frames;
        self.attempts += other.attempts;
        self.tasks_replayed += other.tasks_replayed;
    }
}

/// Accumulated measurements of one job or one complete algorithm run
/// (possibly multiple MapReduce rounds).
///
/// Two families of quantities live here:
///
/// * **logical** measurements (communication, scans, charged CPU, simulated
///   time) — fully deterministic, identical across repeated runs, thread
///   counts, and engine implementations;
/// * **real wall-clock** per engine phase (`wall_map_s`, `wall_shuffle_s`,
///   `wall_reduce_s`) — measured with [`std::time::Instant`] and therefore
///   machine- and load-dependent. These are what `wh-bench` regresses on.
///
/// A third, in-between family is the [`ReduceStrategyCounts`]: which
/// reduce route each partition took. Deterministic for a fixed
/// configuration, but an execution detail that legitimately differs
/// between configurations producing identical results.
///
/// `PartialEq` intentionally compares **only the logical fields** —
/// wall-clock and route counts are excluded — so the determinism
/// contract (`a == b` for identical runs, across engines, routes, and
/// thread counts) keeps holding even though wall-clock never repeats
/// exactly and routes differ by design.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Number of MapReduce rounds executed.
    pub rounds: u32,
    /// Bytes of intermediate pairs shuffled from mappers to reducers
    /// — the paper's headline communication metric.
    pub shuffle_bytes: u64,
    /// Bytes broadcast to all slaves through the Job Configuration or
    /// Distributed Cache.
    pub broadcast_bytes: u64,
    /// Intermediate pairs shuffled.
    pub map_output_pairs: u64,
    /// Records read by mappers across all splits.
    pub records_scanned: u64,
    /// Bytes read from storage by mappers.
    pub bytes_scanned: u64,
    /// Algorithm-charged CPU operations (map side + reduce side).
    pub cpu_ops: f64,
    /// Simulated wall-clock seconds on the configured cluster.
    pub sim_time_s: f64,
    /// Real elapsed seconds of the map phase: task execution and
    /// partitioning the emitted pairs into spill runs. Map workers never
    /// sort; ordering is the reduce side's job.
    pub wall_map_s: f64,
    /// Real elapsed seconds of the shuffle (regrouping spill runs into
    /// per-partition reduce inputs; accounting).
    pub wall_shuffle_s: f64,
    /// Real elapsed seconds of the reduce phase: every partition's
    /// reduce along the route it took ([`ReduceStrategy`]: flat
    /// slot-array aggregation or one stable sort; each one's own time is
    /// in [`RunMetrics::reduce_partitions`]), the Close hook, and
    /// stitching the outputs of a job without one.
    pub wall_reduce_s: f64,
    /// Per-route count of reduce partitions in this run (pipelined
    /// engine only; the reference engine records nothing). Excluded from
    /// `PartialEq` like the wall-clock fields: the route choice is an
    /// execution detail that must never affect result comparison.
    pub reduce_strategies: ReduceStrategyCounts,
    /// One record per reduce partition per round, partition order within
    /// a round and rounds in order (pipelined and multi-process modes;
    /// the reference engine records nothing). Excluded from `PartialEq`
    /// like [`RunMetrics::reduce_strategies`], which counts its routes:
    /// it describes one execution, and its timings never repeat.
    pub reduce_partitions: Vec<PartitionReduce>,
    /// Measured framed traffic of the multi-process mode (all zero for
    /// in-process runs). Excluded from `PartialEq` like wall-clock:
    /// how bytes moved is an execution detail, how many logical bytes
    /// were shuffled (`shuffle_bytes`) is not.
    pub wire: WireTraffic,
    /// What the multi-process self-healing layer did (task retries,
    /// respawns, timeouts, checksum failures). Excluded from `PartialEq`
    /// like wall-clock: a recovered run compares equal to its fault-free
    /// twin by contract.
    pub recovery: RecoveryStats,
}

impl RunMetrics {
    /// Total intra-cluster communication: shuffle plus broadcast.
    pub fn total_comm_bytes(&self) -> u64 {
        self.shuffle_bytes + self.broadcast_bytes
    }

    /// Measured bytes of shuffled pairs on the wire (zero unless the run
    /// used [`crate::EngineMode::MultiProcess`]).
    pub fn bytes_on_wire(&self) -> u64 {
        self.wire.pair_bytes
    }

    /// Total real elapsed seconds across the three engine phases.
    pub fn wall_time_s(&self) -> f64 {
        self.wall_map_s + self.wall_shuffle_s + self.wall_reduce_s
    }

    /// Accumulates another round's metrics into `self`.
    pub fn absorb(&mut self, other: &RunMetrics) {
        self.rounds += other.rounds;
        self.shuffle_bytes += other.shuffle_bytes;
        self.broadcast_bytes += other.broadcast_bytes;
        self.map_output_pairs += other.map_output_pairs;
        self.records_scanned += other.records_scanned;
        self.bytes_scanned += other.bytes_scanned;
        self.cpu_ops += other.cpu_ops;
        self.sim_time_s += other.sim_time_s;
        self.wall_map_s += other.wall_map_s;
        self.wall_shuffle_s += other.wall_shuffle_s;
        self.wall_reduce_s += other.wall_reduce_s;
        self.reduce_strategies.absorb(&other.reduce_strategies);
        self.reduce_partitions
            .extend_from_slice(&other.reduce_partitions);
        self.wire.absorb(&other.wire);
        self.recovery.absorb(&other.recovery);
    }
}

impl PartialEq for RunMetrics {
    /// Compares the logical (deterministic) fields only; the `wall_*`
    /// measurements are machine-dependent and excluded by design.
    fn eq(&self, other: &Self) -> bool {
        self.rounds == other.rounds
            && self.shuffle_bytes == other.shuffle_bytes
            && self.broadcast_bytes == other.broadcast_bytes
            && self.map_output_pairs == other.map_output_pairs
            && self.records_scanned == other.records_scanned
            && self.bytes_scanned == other.bytes_scanned
            && self.cpu_ops == other.cpu_ops
            && self.sim_time_s == other.sim_time_s
    }
}

impl fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rounds={} comm={}B (shuffle={}B broadcast={}B) pairs={} scanned={} recs/{}B time={:.1}s",
            self.rounds,
            self.total_comm_bytes(),
            self.shuffle_bytes,
            self.broadcast_bytes,
            self.map_output_pairs,
            self.records_scanned,
            self.bytes_scanned,
            self.sim_time_s,
        )?;
        if self.wall_time_s() > 0.0 {
            write!(f, " wall={:.3}s", self.wall_time_s())?;
        }
        if self.reduce_strategies.total() > 0 {
            write!(f, " strategies={}", self.reduce_strategies)?;
        }
        if self.wire.frames > 0 {
            write!(
                f,
                " wire={}B/{}f ({} workers, {} comm rounds)",
                self.wire.frame_bytes, self.wire.frames, self.wire.workers, self.wire.comm_rounds
            )?;
        }
        if self.recovery.recovered()
            || self.recovery.timeouts > 0
            || self.recovery.corrupt_frames > 0
        {
            write!(
                f,
                " recovery={}t/{}w ({} timeouts, {} corrupt, {} attempts, {} replayed)",
                self.recovery.tasks_retried,
                self.recovery.workers_respawned,
                self.recovery.timeouts,
                self.recovery.corrupt_frames,
                self.recovery.attempts,
                self.recovery.tasks_replayed,
            )?;
        }
        Ok(())
    }
}

/// Pretty-prints a byte count with a binary-ish unit, for tables.
pub fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = b as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{b} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = RunMetrics {
            rounds: 1,
            shuffle_bytes: 100,
            broadcast_bytes: 10,
            map_output_pairs: 5,
            records_scanned: 1000,
            bytes_scanned: 4000,
            cpu_ops: 1e6,
            sim_time_s: 2.0,
            wall_map_s: 0.25,
            wall_shuffle_s: 0.5,
            wall_reduce_s: 0.25,
            reduce_strategies: ReduceStrategyCounts {
                dense_reduce: 3,
                sort_at_reduce: 1,
                merge: 0,
            },
            wire: WireTraffic {
                pair_bytes: 100,
                frame_bytes: 160,
                frames: 4,
                state_bytes: 16,
                workers: 2,
                comm_rounds: 1,
            },
            recovery: RecoveryStats {
                tasks_retried: 3,
                workers_respawned: 1,
                timeouts: 1,
                corrupt_frames: 0,
                attempts: 3,
                tasks_replayed: 5,
            },
            reduce_partitions: vec![PartitionReduce {
                route: ReduceStrategy::DenseReduce,
                pairs: 5,
                keys: 2,
                wall_s: 0.25,
            }],
        };
        let b = a.clone();
        a.absorb(&b);
        assert_eq!(a.reduce_partitions, [b.reduce_partitions[0]; 2]);
        assert_eq!(a.rounds, 2);
        assert_eq!(a.shuffle_bytes, 200);
        assert_eq!(a.total_comm_bytes(), 220);
        assert_eq!(a.sim_time_s, 4.0);
        assert!((a.wall_time_s() - 2.0).abs() < 1e-12);
        assert_eq!(a.reduce_strategies.dense_reduce, 6);
        assert_eq!(a.reduce_strategies.sort_at_reduce, 2);
        assert_eq!(a.reduce_strategies.total(), 8);
        assert_eq!(a.bytes_on_wire(), 200);
        assert_eq!(a.wire.frame_bytes, 320);
        assert_eq!(a.wire.frames, 8);
        assert_eq!(a.wire.state_bytes, 32);
        assert_eq!(a.wire.workers, 4);
        assert_eq!(a.wire.comm_rounds, 2);
        assert_eq!(a.recovery.tasks_retried, 6);
        assert_eq!(a.recovery.workers_respawned, 2);
        assert_eq!(a.recovery.timeouts, 2);
        assert_eq!(a.recovery.attempts, 6);
        assert_eq!(a.recovery.tasks_replayed, 10);
    }

    #[test]
    fn equality_ignores_recovery() {
        // The recovery contract in one assert: a run that retried tasks
        // compares equal to the fault-free run it reproduced.
        let clean = RunMetrics {
            rounds: 1,
            shuffle_bytes: 64,
            ..Default::default()
        };
        let recovered = RunMetrics {
            rounds: 1,
            shuffle_bytes: 64,
            recovery: RecoveryStats {
                tasks_retried: 4,
                workers_respawned: 1,
                timeouts: 1,
                corrupt_frames: 1,
                attempts: 5,
                tasks_replayed: 7,
            },
            ..Default::default()
        };
        assert!(recovered.recovery.recovered());
        assert!(!clean.recovery.recovered());
        assert_ne!(clean.recovery, recovered.recovery);
        assert_eq!(clean, recovered);
        let s = recovered.to_string();
        assert!(s.contains("recovery=4t/1w"), "{s}");
    }

    #[test]
    fn equality_ignores_wire_traffic() {
        // A multi-process run must compare equal to its in-process twin:
        // how bytes physically moved is an execution detail.
        let in_process = RunMetrics {
            rounds: 1,
            shuffle_bytes: 64,
            ..Default::default()
        };
        let multi_process = RunMetrics {
            rounds: 1,
            shuffle_bytes: 64,
            wire: WireTraffic {
                pair_bytes: 64,
                frame_bytes: 200,
                frames: 9,
                state_bytes: 0,
                workers: 4,
                comm_rounds: 1,
            },
            ..Default::default()
        };
        assert_ne!(in_process.wire, multi_process.wire);
        assert_eq!(in_process, multi_process);
    }

    #[test]
    fn equality_ignores_reduce_strategies() {
        // The same logical run executed under different reduce strategies
        // must still compare equal — strategy selection is an execution
        // detail, exactly like wall-clock.
        let mut dense = RunMetrics {
            rounds: 1,
            shuffle_bytes: 64,
            ..Default::default()
        };
        dense.reduce_strategies.record(ReduceStrategy::DenseReduce);
        let mut sorted = RunMetrics {
            rounds: 1,
            shuffle_bytes: 64,
            ..Default::default()
        };
        sorted
            .reduce_strategies
            .record(ReduceStrategy::SortAtReduce);
        assert_ne!(dense.reduce_strategies, sorted.reduce_strategies);
        assert_eq!(dense, sorted, "strategy counts must not break equality");
        dense.reduce_partitions.push(PartitionReduce {
            route: ReduceStrategy::DenseReduce,
            pairs: 3,
            keys: 1,
            wall_s: 0.5,
        });
        assert_eq!(dense, sorted, "partition records must not break equality");
    }

    #[test]
    fn strategy_counts_record_and_render() {
        let mut c = ReduceStrategyCounts::default();
        assert_eq!(c.total(), 0);
        c.record(ReduceStrategy::DenseReduce);
        c.record(ReduceStrategy::DenseReduce);
        c.record(ReduceStrategy::SortAtReduce);
        assert_eq!(c.dense_reduce, 2);
        assert_eq!(c.sort_at_reduce, 1);
        assert_eq!(c.merge, 0);
        assert_eq!(c.total(), 3);
        assert_eq!(c.to_string(), "dense:2/sort:1");
        let m = RunMetrics {
            rounds: 1,
            reduce_strategies: c,
            ..Default::default()
        };
        assert!(m.to_string().contains("strategies=dense:2/sort:1"));
    }

    #[test]
    fn equality_ignores_wall_clock() {
        let a = RunMetrics {
            rounds: 1,
            shuffle_bytes: 64,
            wall_map_s: 0.1,
            ..Default::default()
        };
        let b = RunMetrics {
            rounds: 1,
            shuffle_bytes: 64,
            wall_map_s: 9.9,
            wall_reduce_s: 1.0,
            ..Default::default()
        };
        assert_eq!(a, b, "wall-clock must not break the determinism contract");
        let c = RunMetrics {
            rounds: 2,
            ..Default::default()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.00 MB");
    }

    #[test]
    fn display_contains_key_fields() {
        let m = RunMetrics {
            rounds: 3,
            shuffle_bytes: 7,
            ..Default::default()
        };
        let s = m.to_string();
        assert!(s.contains("rounds=3"));
        assert!(s.contains("shuffle=7B"));
    }
}
