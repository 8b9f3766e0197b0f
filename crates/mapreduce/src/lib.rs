//! # wh-mapreduce — a deterministic MapReduce runtime with cost accounting
//!
//! This crate stands in for the Hadoop cluster of the paper's experiments
//! (§2.2, §5). It really executes MapReduce jobs — user-supplied map
//! closures run in parallel, their emitted pairs are partitioned,
//! shuffled, grouped and reduced — while every quantity the paper
//! measures is accounted exactly:
//!
//! * **communication**: bytes of the intermediate `(k₂, v₂)` pairs the
//!   mappers emit, plus Job-Configuration / Distributed-Cache broadcast
//!   bytes (the paper's two sideband channels, §3 "System issues");
//! * **work**: records and bytes scanned by mappers, CPU operations charged
//!   by the algorithm (hashing, wavelet updates, sketch updates…);
//! * **simulated wall-clock**: the [`cost`] model converts the measured
//!   work into seconds on a configurable cluster. The default
//!   [`cost::ClusterConfig::paper_cluster`] reproduces the paper's
//!   16-machine heterogeneous setup (100 Mbps switch, default 50%
//!   available bandwidth, one reducer pinned to a fixed machine).
//!
//! ## One job shape
//!
//! A [`JobSpec`] is map tasks, one shared reducer and an optional Close
//! hook ([`JobSpec::with_finish`]) over the reducer emissions, which it
//! reads partition by partition. The reducer is a [`Fold`]
//! ([`JobSpec::folding`]: one accumulator per key, values folded in one at
//! a time — the form of every builder, since the paper's reducers are
//! aggregates) or a slice reducer ([`JobSpec::new`]: each key's values as
//! one `&[V]`). There is no engine-side Combine function and no custom
//! partitioner: the paper's mappers combine before they emit (Send-V's
//! `(x, v_j(x))` pairs *are* the combined form, §3), and keys partition by
//! [`engine::default_partition`]. [`JobSpec::start`] gives a running
//! [`Job`], and each [`Job::round`] runs every task once more with that
//! round's broadcast bytes — the paper's Job Configuration / Distributed
//! Cache, accounted as communication — readable through
//! [`MapContext::broadcast`]; [`try_run_job`] is the one-round job.
//! Multi-round algorithms (H-WTopk needs three rounds) keep per-split
//! state in the task's own closure, mirroring the paper's trick of
//! persisting mapper state to a local file between rounds (Appendix A) —
//! which is also why that state is *not* charged as communication, and
//! why the multi-process mode forks its workers once per job and keeps
//! each task in the worker that ran it. [`EngineConfig`] carries the
//! execution knobs (mode, reducer count, map and reduce parallelism,
//! key-domain hint, recovery settings); none of them changes an output or
//! a logical metric.
//!
//! ## Three engine modes, one result
//!
//! ```text
//! map workers ──▶ per-partition spill runs ──▶ dense table or one sort
//! (parallel)      (partitioned inside the      per partition ──▶ parallel
//!                  worker, never sorted)        reduce, partitions handed
//!                                               on in order
//! ```
//!
//! * [`EngineMode::Pipelined`] (default, [`engine`]): map tasks on worker
//!   threads, reduce partitions in parallel, outputs and charged CPU
//!   handed on in partition order. Workers recycle their buffers across
//!   tasks and partitions; a phase with one worker runs it inline.
//! * [`EngineMode::Reference`] ([`mod@reference`]): one global
//!   `O(n log n)` sort and a sequential reduce — the executable
//!   specification the differential suites compare the other two against.
//! * [`EngineMode::MultiProcess`] ([`worker`], [`transport`]): map workers
//!   are child processes forked once per job, taking each round's
//!   broadcast down one pipe and streaming their spills back up another
//!   as length-prefixed frames in the [`wire::WireCodec`] encoding, so the
//!   paper's communication is *measured* from real framed traffic
//!   ([`RunMetrics::wire`], [`metrics::WireTraffic`]) instead of only
//!   accounted, and the measured bytes validate the [`cost`] model's
//!   shuffle term ([`cost::validate_measured_shuffle`]). Jobs opt in with
//!   [`JobSpec::with_wire_codec`]; failures surface as a typed
//!   [`EngineError`] through [`try_run_job`].
//!
//! Within a partition the reducer always sees key groups in key order and
//! each group's values in `(split id, arrival order)` order, so
//! outputs and logical metrics are bit-identical across modes, reducer
//! counts, thread counts and worker topologies.
//!
//! ## Radix keys and the two reduce routes
//!
//! Every algorithm in the paper shuffles small-integer keys. A job whose
//! key type implements the sealed [`RadixKey`] trait
//! ([`JobSpec::with_radix_keys`]) declares an order-preserving `u64`
//! image of its keys; that image selects and indexes the dense reduce
//! tables and does nothing else. Map workers never sort; each reduce
//! partition picks its route where it runs, recorded per partition in
//! [`RunMetrics::reduce_partitions`] ([`PartitionReduce`]: route, pairs,
//! keys, seconds) and counted in [`RunMetrics::reduce_strategies`]
//! ([`ReduceStrategy`]):
//!
//! * **dense** when a radix codec and a bounded key domain
//!   ([`EngineConfig::key_domain_hint`]) are declared: a [`Fold`] folds
//!   the partition's runs, in split order, into one accumulator per key,
//!   found through a `u32` slot index `radix / R` over the partition's
//!   actual key range, and finishes the keys in ascending order. No value
//!   list exists. A slice reducer's values are grouped into a recycled
//!   arena first, whose `u32` positions cap such a partition below 2³¹
//!   pairs;
//! * **sort** otherwise: one stable comparison sort of the partition's
//!   runs — the same sort for every job, codec or not — then one pass
//!   over each run of equal keys, folding or slicing.
//!
//! ## Recovery in the multi-process mode
//!
//! Every frame carries a CRC32C trailer (the `crc` module) so silent
//! corruption surfaces as [`EngineError::CorruptFrame`]; coordinator
//! readers run under an idle read deadline
//! ([`EngineConfig::read_deadline_ms`]) so a hung worker becomes
//! [`EngineError::WorkerTimeout`] instead of a hang; and a worker that
//! dies, stalls, or sends a bad stream is replaced with bounded attempts
//! and backoff ([`EngineConfig::max_task_retries`]): recovery is replay —
//! the new worker re-runs the earlier rounds and the round's committed
//! tasks silently, which rebuilds its tasks' state, and streams only the
//! *unfinished* tasks. Partial spills from the failed attempt are
//! discarded — only completed `TASK_END`s commit — so recovered runs stay
//! bit-identical to fault-free runs, with the activity reported in
//! [`RunMetrics::recovery`] ([`metrics::RecoveryStats`]). A deterministic [`FaultPlan`] on
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
mod reduce;
pub mod reference;
pub mod transport;
pub mod wire;
pub mod worker;

pub use context::{MapContext, ReduceContext};
pub use cost::{ClusterConfig, MachineSpec};
pub use engine::{EngineConfig, EngineMode};
pub use fault::FaultPlan;
pub use job::{run_job, try_run_job, Fold, Job, JobOutput, JobSpec, MapTask};
pub use metrics::{
    PartitionReduce, RecoveryStats, ReduceStrategy, ReduceStrategyCounts, RunMetrics, WireTraffic,
};
pub use radix::RadixKey;
pub use transport::EngineError;
pub use wire::{WireCodec, WireError, WireSize};
pub use worker::in_map_worker;
