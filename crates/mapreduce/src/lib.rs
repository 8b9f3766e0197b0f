//! # wh-mapreduce — a deterministic MapReduce runtime with cost accounting
//!
//! This crate stands in for the Hadoop cluster of the paper's experiments
//! (§2.2, §5). It really executes MapReduce jobs — user-supplied map
//! closures run in parallel threads, their emitted pairs are combined,
//! partitioned, sorted, shuffled and reduced — while every quantity the
//! paper measures is accounted exactly:
//!
//! * **communication**: bytes of intermediate `(k₂, v₂)` pairs after the
//!   Combine function, plus Job-Configuration / Distributed-Cache broadcast
//!   bytes (the paper's two sideband channels, §3 "System issues");
//! * **work**: records and bytes scanned by mappers, CPU operations charged
//!   by the algorithm (hashing, wavelet updates, sketch updates…);
//! * **simulated wall-clock**: the [`cost`] model converts the measured
//!   work into seconds on a configurable cluster. The default
//!   [`cost::ClusterConfig::paper_cluster`] reproduces the paper's
//!   16-machine heterogeneous setup (100 Mbps switch, default 50%
//!   available bandwidth, one reducer pinned to a fixed machine).
//!
//! Multi-round algorithms (H-WTopk needs three rounds) keep per-split state
//! in a [`state::StateStore`], mirroring the paper's trick of persisting
//! mapper state to a local HDFS file between rounds (Appendix A) — which is
//! also why that state is *not* charged as communication.
//!
//! ## Execution engine
//!
//! Since PR 2 the runtime is a pipelined, partition-parallel engine
//! ([`engine`]):
//!
//! ```text
//! map workers ──▶ per-partition sorted spills ──▶ k-way merge per
//! (parallel)      (combine + partition + sort     partition ──▶ parallel
//!                  inside the worker thread)      reduce, deterministic
//!                                                 output stitching
//! ```
//!
//! The old engine — one global `O(n log n)` sort and a sequential reduce —
//! survives as [`reference::run_job_reference`], the executable
//! specification that differential tests compare against.
//! [`EngineConfig`] exposes the knobs (reducer count, map and reduce
//! parallelism, key-domain hint); [`RunMetrics`] carries real per-phase
//! wall-clock next to the simulated cluster time.
//!
//! Since PR 3 the engine is radix-specialized for the small-integer keys
//! every algorithm in the paper shuffles: a job whose key type implements
//! the sealed [`RadixKey`] trait ([`JobSpec::with_radix_keys`]) sorts its
//! spills (and groups its combiner input) through the LSD radix/counting
//! sort in [`radix`] — the exact permutation of the comparison sort it
//! replaces. Map workers reuse their buffers across tasks, and tiny jobs
//! skip thread spawns on both the map and reduce sides.
//!
//! Since PR 4 the bounded-domain specialization reaches the reduce side
//! too: the engine selects an explicit per-job [`ReduceStrategy`] — dense
//! flat-array aggregation when a radix codec and a bounded domain are
//! declared, one stable radix sort per partition when only the codec is,
//! and the k-way merge of pre-sorted spills otherwise — recording the
//! choice per partition in [`RunMetrics::reduce_strategies`]. Reduce
//! workers recycle their scratch (radix buffers + dense table) across
//! partitions exactly like map workers recycle theirs across tasks.
//!
//! Since PR 7 the engine also runs **distributed**:
//! [`EngineMode::MultiProcess`] forks map workers as child processes that
//! stream their spills back over length-prefixed frames in the
//! [`wire::WireCodec`] encoding ([`transport`], [`worker`]), so the
//! paper's communication is *measured* from real framed traffic
//! ([`RunMetrics::wire`], [`metrics::WireTraffic`]) instead of only
//! accounted. Jobs opt in with [`JobSpec::with_wire_codec`]; outputs and
//! logical metrics stay bit-identical to the in-process engines, worker
//! failures surface as a typed [`EngineError`] through [`try_run_job`],
//! and the measured bytes validate the [`cost`] model's shuffle term
//! ([`cost::validate_measured_shuffle`]).
//!
//! Since PR 8 the multi-process mode is **self-healing**: every frame
//! carries a CRC32C trailer (the `crc` module) so silent corruption surfaces as
//! [`EngineError::CorruptFrame`]; coordinator readers run under an idle
//! read deadline ([`EngineConfig::read_deadline_ms`]) so a hung worker
//! becomes [`EngineError::WorkerTimeout`] instead of a hang; and a worker
//! that dies, stalls, or sends a bad stream gets its *unfinished* tasks
//! re-executed on a respawned worker with bounded attempts and backoff
//! ([`EngineConfig::max_task_retries`]). Partial spills and state frames
//! from the failed attempt are discarded — only completed `TASK_END`s
//! commit — so recovered runs stay bit-identical to fault-free runs, with
//! the activity reported in [`RunMetrics::recovery`]
//! ([`metrics::RecoveryStats`]). A deterministic [`FaultPlan`] on
//! [`EngineConfig`] (kill/truncate/corrupt/stall) drives the chaos
//! differential suite in `tests/engine_faults.rs`.

pub mod context;
pub mod cost;
pub(crate) mod crc;
mod dense;
pub mod engine;
pub mod fault;
pub mod job;
pub mod metrics;
pub mod radix;
pub mod reference;
pub mod state;
pub mod transport;
pub mod wire;
pub mod worker;

pub use context::{MapContext, ReduceContext};
pub use cost::{ClusterConfig, MachineSpec};
pub use engine::{EngineConfig, EngineMode};
pub use fault::FaultPlan;
pub use job::{run_job, try_run_job, JobOutput, JobSpec, MapTask};
pub use metrics::{RecoveryStats, ReduceStrategy, ReduceStrategyCounts, RunMetrics, WireTraffic};
pub use radix::RadixKey;
pub use reference::run_job_reference;
pub use state::StateStore;
pub use transport::EngineError;
pub use wire::{WireCodec, WireError, WireSize};
pub use worker::in_map_worker;
