//! Chaos differential suite for the self-healing multi-process engine
//! (PR 8): deterministic fault injection ([`FaultPlan`]) against every
//! builder, asserting that recovery is **invisible in the output**.
//!
//! The contracts pinned here:
//!
//! * **Bit-identity through recovery** — kill any worker before any task
//!   index, under any worker count: the coordinator re-executes the lost
//!   tasks on a respawned worker and the histogram, logical metrics and
//!   measured-vs-accounted byte equality all match the fault-free run.
//! * **No hangs** — a stalled worker surfaces as
//!   [`EngineError::WorkerTimeout`] within the configured read deadline,
//!   or (with retries) is killed and its tasks re-executed.
//! * **Typed failures at zero retries** — with recovery disabled every
//!   injected fault surfaces as its own [`EngineError`] variant, exactly
//!   the PR 7 behavior.
//! * **Honest accounting** — recovered runs still satisfy
//!   `wire.pair_bytes == shuffle_bytes` (commit-on-`TASK_END` counts a
//!   retried task's pairs exactly once), while `frame_bytes`/`frames`
//!   include the discarded partial traffic, and
//!   [`RunMetrics::recovery`] reports what happened.
//! * **Recovery across rounds is replay** — workers serve a whole job, so
//!   fault ordinals count over every round a worker runs and reach
//!   H-WTopk's rounds 2 and 3; the respawned worker replays exactly the
//!   earlier rounds and the round's committed tasks
//!   ([`RecoveryStats::tasks_replayed`]) and streams only the rest.

#![cfg(unix)]

use std::fmt::Debug;
use std::time::{Duration, Instant};

use wavelet_hist::builders::{
    BasicS, HWTopk, HistogramBuilder, ImprovedS, SendCoef, SendSketch, SendV, SplitSource,
    TwoLevelS,
};
use wavelet_hist::data::twod::{Dataset2d, Distribution2d};
use wavelet_hist::data::{Dataset, DatasetBuilder};
use wavelet_hist::mapreduce::cost::validate_measured_shuffle;
use wavelet_hist::mapreduce::wire::WKey;
use wavelet_hist::mapreduce::{
    try_run_job, ClusterConfig, EngineConfig, EngineError, FaultPlan, JobSpec, MapContext, MapTask,
    RecoveryStats, ReduceContext, RunMetrics,
};
use wavelet_hist::wavelet::Domain;
use wavelet_hist::BuildResult;

const SPLITS: usize = 8;

fn dataset() -> Dataset {
    DatasetBuilder::new()
        .domain(Domain::new(9).unwrap())
        .records(6_000)
        .splits(SPLITS as u32)
        .seed(0xabcd)
        .build()
}

/// Every builder with an engine knob, at a fixed configuration.
fn builders(engine: EngineConfig) -> Vec<Box<dyn HistogramBuilder>> {
    let eps = 0.02;
    vec![
        Box::new(SendV::new().with_engine(engine)),
        Box::new(SendCoef::new().with_engine(engine)),
        Box::new(HWTopk::new().with_engine(engine)),
        Box::new(BasicS::new(eps, 3).with_engine(engine)),
        Box::new(ImprovedS::new(eps, 3).with_engine(engine)),
        Box::new(TwoLevelS::new(eps, 3).with_engine(engine)),
        Box::new(SendSketch::new(5).with_engine(engine)),
    ]
}

fn chaos_engine(workers: usize) -> EngineConfig {
    EngineConfig::multi_process()
        .with_reducers(4)
        .with_map_parallelism(workers)
        .with_retry_backoff_ms(1)
}

/// One digest row per reduced key: `(key, value count, value sum)`.
type ProbeDigest = Vec<(u64, u64, u64)>;

/// A combiner-less probe job over `SPLITS` synthetic splits, small
/// enough to fork hundreds of times but with enough pairs that worker
/// streams span many frames.
fn probe_job(engine: EngineConfig) -> Result<(ProbeDigest, RunMetrics), EngineError> {
    let tasks: Vec<MapTask<WKey, u64>> = (0..SPLITS as u32)
        .map(|j| {
            MapTask::new(j, move |ctx: &mut MapContext<WKey, u64>| {
                for i in 0..400u64 {
                    ctx.emit(
                        WKey::four((i * 7 + u64::from(j)) % 64),
                        (u64::from(j) << 32) | i,
                    );
                }
            })
        })
        .collect();
    let spec = JobSpec::new(
        "chaos-probe",
        tasks,
        |k: &WKey, vs: &[u64], ctx: &mut ReduceContext<(u64, u64, u64)>| {
            let digest = vs.iter().enumerate().fold(0u64, |acc, (i, v)| {
                acc.wrapping_add(v.wrapping_mul(i as u64 + 1))
            });
            ctx.emit((k.id, vs.len() as u64, digest));
        },
    )
    .with_radix_keys()
    .with_wire_codec()
    .with_engine(engine);
    try_run_job(&ClusterConfig::paper_cluster(), spec).map(|out| (out.outputs, out.metrics))
}

/// Tentpole: for every builder, kill any worker before any task index,
/// under 1/2/4 workers — the recovered run is **bit-identical** to the
/// fault-free run (histogram and logical metrics), still satisfies
/// measured-equals-accounted bytes, and reports the retry.
#[test]
fn every_builder_recovers_bit_identically_from_worker_kills() {
    let ds = dataset();
    let cluster = ClusterConfig::paper_cluster();
    let k = 12;
    let baseline: Vec<_> = builders(EngineConfig::default().with_reducers(4))
        .into_iter()
        .map(|b| (b.name(), b.build(&ds, &cluster, k)))
        .collect();
    for workers in [1usize, 2, 4] {
        for t in 0..SPLITS as u32 {
            // Global task t lands on worker t % W as its (t / W)-th
            // local task under round-robin assignment.
            let faults =
                FaultPlan::none().kill_worker_before_task(t % workers as u32, t / workers as u32);
            let engine = chaos_engine(workers).with_faults(faults);
            for (b, (name, want)) in builders(engine).into_iter().zip(&baseline) {
                let got = b.build(&ds, &cluster, k);
                assert_eq!(
                    got.histogram.coefficients(),
                    want.histogram.coefficients(),
                    "{name}: W={workers} kill@{t}"
                );
                assert_eq!(
                    got.metrics, want.metrics,
                    "{name}: logical metrics W={workers} kill@{t}"
                );
                assert_eq!(
                    got.metrics.wire.pair_bytes, got.metrics.shuffle_bytes,
                    "{name}: measured vs accounted W={workers} kill@{t}"
                );
                // Killing worker 0 before its first task fires in every
                // builder (task ordinal 0 is the first round's first
                // task), so t == 0 asserts recovery.
                if t == 0 {
                    assert!(
                        got.metrics.recovery.recovered(),
                        "{name}: W={workers} kill@0 must report recovery, got {:?}",
                        got.metrics.recovery
                    );
                    assert!(got.metrics.recovery.tasks_retried >= 1, "{name}");
                    assert!(got.metrics.recovery.workers_respawned >= 1, "{name}");
                }
            }
        }
    }
}

/// A stalled worker surfaces as a typed [`EngineError::WorkerTimeout`]
/// within the read deadline — never a hang — when recovery is disabled.
#[test]
fn stalled_worker_times_out_instead_of_hanging() {
    let engine = chaos_engine(2)
        .with_task_retries(0)
        .with_read_deadline_ms(250)
        .with_faults(FaultPlan::none().stall_worker(1, 10_000));
    let start = Instant::now();
    let err = probe_job(engine).unwrap_err();
    let elapsed = start.elapsed();
    match err {
        EngineError::WorkerTimeout {
            worker,
            deadline_ms,
        } => {
            assert_eq!(worker, 1);
            assert_eq!(deadline_ms, 250);
        }
        other => panic!("expected WorkerTimeout, got {other}"),
    }
    assert!(
        elapsed < Duration::from_secs(8),
        "coordinator must not wait out the 10s stall (took {elapsed:?})"
    );
}

/// With retries enabled the stalled worker is killed and its tasks
/// re-executed: same answers as the fault-free run, timeout counted.
#[test]
fn stalled_worker_is_killed_and_its_tasks_re_executed() {
    let (want, _) = probe_job(chaos_engine(2)).unwrap();
    let engine = chaos_engine(2)
        .with_read_deadline_ms(250)
        .with_faults(FaultPlan::none().stall_worker(0, 10_000));
    let start = Instant::now();
    let (got, metrics) = probe_job(engine).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(got, want);
    assert!(metrics.recovery.recovered());
    assert!(metrics.recovery.timeouts >= 1);
    assert!(metrics.recovery.workers_respawned >= 1);
    assert!(
        elapsed < Duration::from_secs(8),
        "recovery must kill the stalled worker, not wait it out (took {elapsed:?})"
    );
}

/// A truncated stream (clean exit mid-protocol) loses its uncommitted
/// tasks only: they re-execute and the output matches fault-free, while
/// the physical frame counters still include the discarded traffic.
#[test]
fn truncated_stream_recovers_bit_identically() {
    let (want, clean) = probe_job(chaos_engine(2)).unwrap();
    let engine = chaos_engine(2).with_faults(FaultPlan::none().truncate_worker_after_frame(0, 2));
    let (got, metrics) = probe_job(engine).unwrap();
    assert_eq!(got, want);
    assert!(metrics.recovery.recovered());
    assert!(metrics.recovery.tasks_retried >= 1);
    assert_eq!(metrics.wire.pair_bytes, clean.wire.pair_bytes);
    assert_eq!(metrics.wire.pair_bytes, metrics.shuffle_bytes);
    assert!(
        metrics.wire.frames > clean.wire.frames,
        "retried traffic must show up in the physical frame count"
    );
    validate_measured_shuffle(&metrics).expect("recovered run validates");
}

/// A frame failing its CRC32C check is discarded with its task, counted,
/// and recovered from — silent corruption can not produce wrong answers.
#[test]
fn corrupt_frame_recovers_and_is_counted() {
    let (want, _) = probe_job(chaos_engine(2)).unwrap();
    let engine = chaos_engine(2).with_faults(FaultPlan::none().corrupt_worker_frame(0, 1));
    let (got, metrics) = probe_job(engine).unwrap();
    assert_eq!(got, want);
    assert!(metrics.recovery.recovered());
    assert!(metrics.recovery.corrupt_frames >= 1);
    assert_eq!(metrics.wire.pair_bytes, metrics.shuffle_bytes);
}

/// With `max_task_retries = 0` (the PR 7 contract) every injected fault
/// surfaces as its own typed error instead of being healed.
#[test]
fn zero_retries_surfaces_every_fault_as_a_typed_error() {
    let base = chaos_engine(2).with_task_retries(0);

    let err =
        probe_job(base.with_faults(FaultPlan::none().kill_worker_before_task(1, 0))).unwrap_err();
    match err {
        EngineError::WorkerDied { worker, signal, .. } => {
            assert_eq!(worker, 1);
            assert!(signal.is_some(), "SIGKILL death reports its signal");
        }
        other => panic!("expected WorkerDied, got {other}"),
    }

    let err = probe_job(base.with_faults(FaultPlan::none().truncate_worker_after_frame(1, 2)))
        .unwrap_err();
    assert!(
        matches!(err, EngineError::TruncatedFrame { worker: 1 }),
        "expected TruncatedFrame, got {err}"
    );

    let err =
        probe_job(base.with_faults(FaultPlan::none().corrupt_worker_frame(0, 2))).unwrap_err();
    assert!(
        matches!(err, EngineError::CorruptFrame { worker: 0 }),
        "expected CorruptFrame, got {err}"
    );
}

/// Recovery is bounded: a fault that re-fires on every attempt exhausts
/// `max_task_retries` and surfaces the original error instead of
/// retrying forever. (Injected faults arm first spawns only, so the
/// deterministic re-failure here comes from the task closure itself.)
#[test]
fn deterministic_task_failures_exhaust_the_retry_budget() {
    let tasks: Vec<MapTask<WKey, u64>> = (0..4u32)
        .map(|j| {
            MapTask::new(j, move |ctx: &mut MapContext<WKey, u64>| {
                ctx.emit(WKey::four(u64::from(j)), 1);
                if j == 2 && ctx.in_worker_process() {
                    std::process::abort();
                }
            })
        })
        .collect();
    let spec = JobSpec::new(
        "chaos-budget",
        tasks,
        |k: &WKey, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((k.id, vs.iter().sum()));
        },
    )
    .with_wire_codec()
    .with_engine(chaos_engine(2).with_task_retries(1));
    match try_run_job(&ClusterConfig::paper_cluster(), spec).unwrap_err() {
        EngineError::WorkerDied { worker, signal, .. } => {
            assert_eq!(worker, 0, "task 2 rides on worker 0 under round-robin");
            assert!(signal.is_some(), "abort dies by signal");
        }
        other => panic!("expected WorkerDied after exhausted retries, got {other}"),
    }
}

/// The 2-D build path under chaos: Send-Coef over a `Dataset2d` ships
/// packed `(row, col)` coefficient addresses over the wire; a killed,
/// corrupted, or stalled worker must recover to the **bit-identical**
/// histogram and logical metrics of the fault-free run, with measured
/// bytes still equal to accounted bytes — and at zero retries the same
/// faults surface as typed errors from `try_build`.
#[test]
fn twod_build_recovers_bit_identically_under_chaos() {
    use wavelet_hist::twod::sequential_send_coef2d;

    let ds = dataset2d();
    let cluster = ClusterConfig::paper_cluster();
    let k = 24;
    let want = sequential_send_coef2d(&ds, k);
    let clean = SendCoef::new()
        .with_engine(chaos_engine(2))
        .build(&ds, &cluster, k);
    assert_eq!(clean.histogram.coefficients(), want.coefficients());

    let faults = [
        FaultPlan::none().kill_worker_before_task(0, 0),
        FaultPlan::none().kill_worker_before_task(1, 2),
        FaultPlan::none().corrupt_worker_frame(0, 1),
        FaultPlan::none().truncate_worker_after_frame(1, 2),
        FaultPlan::none().stall_worker(0, 10_000),
    ];
    for (i, &plan) in faults.iter().enumerate() {
        let engine = chaos_engine(2).with_read_deadline_ms(250).with_faults(plan);
        let got = SendCoef::new().with_engine(engine).build(&ds, &cluster, k);
        assert_eq!(
            got.histogram.coefficients(),
            want.coefficients(),
            "fault #{i}: recovered 2-D histogram must be bit-identical"
        );
        assert_eq!(got.metrics, clean.metrics, "fault #{i}: logical metrics");
        assert!(got.metrics.recovery.recovered(), "fault #{i}");
        assert_eq!(
            got.metrics.wire.pair_bytes, got.metrics.shuffle_bytes,
            "fault #{i}: each coefficient pair crosses the wire once"
        );
        validate_measured_shuffle(&got.metrics).expect("recovered 2-D run validates");
    }

    // Zero retries: the kill surfaces as a typed error, not a panic.
    let engine = chaos_engine(2)
        .with_task_retries(0)
        .with_faults(FaultPlan::none().kill_worker_before_task(1, 0));
    match SendCoef::new()
        .with_engine(engine)
        .try_build(&ds, &cluster, k)
        .unwrap_err()
    {
        EngineError::WorkerDied { worker, .. } => assert_eq!(worker, 1),
        other => panic!("expected WorkerDied, got {other}"),
    }
}

/// The recovery block itself: attempts count every launch (fault-free
/// runs report `attempts == workers`, zero everything else), and a
/// killed worker adds exactly one respawn with its remaining tasks.
#[test]
fn recovery_stats_report_the_retry_exactly() {
    let (_, clean) = probe_job(chaos_engine(4)).unwrap();
    assert!(!clean.recovery.recovered());
    assert_eq!(clean.recovery.attempts, 4);
    assert_eq!(clean.recovery.timeouts, 0);
    assert_eq!(clean.recovery.corrupt_frames, 0);

    // Kill worker 3 before its second (and last) local task: exactly one
    // task is lost and re-executed on exactly one respawned worker.
    let engine = chaos_engine(4).with_faults(FaultPlan::none().kill_worker_before_task(3, 1));
    let (_, metrics) = probe_job(engine).unwrap();
    assert_eq!(metrics.recovery.tasks_retried, 1);
    assert_eq!(metrics.recovery.workers_respawned, 1);
    assert_eq!(metrics.recovery.attempts, 5);
    validate_measured_shuffle(&metrics).expect("recovered run validates");
}

fn dataset2d() -> Dataset2d {
    Dataset2d::new(
        Domain::new(5).unwrap(),
        Distribution2d::Correlated {
            alpha: 1.1,
            spread: 2,
        },
        8_000,
        SPLITS as u32,
        0x2d10,
    )
}

/// H-WTopk on `workers` forked workers under `faults`.
fn hwtopk<S>(ds: &S, workers: usize, faults: FaultPlan) -> BuildResult<S::Histogram>
where
    S: SplitSource,
    HWTopk: HistogramBuilder<S>,
{
    HWTopk::new()
        .with_engine(chaos_engine(workers).with_faults(faults))
        .build(ds, &ClusterConfig::paper_cluster(), 12)
}

/// A recovered build must be the fault-free one, down to the measured
/// pair bytes, and must have respawned `respawns` workers that replayed
/// `replayed` tasks and re-streamed `retried`.
fn assert_recovered<H: PartialEq + Debug>(
    got: &BuildResult<H>,
    want: &BuildResult<H>,
    (replayed, retried, respawns): (u64, u64, u32),
    ctx: &str,
) {
    assert_eq!(got.histogram, want.histogram, "{ctx}");
    assert_eq!(got.metrics, want.metrics, "{ctx}: logical metrics");
    assert_eq!(
        got.metrics.wire.pair_bytes, got.metrics.shuffle_bytes,
        "{ctx}: measured vs accounted"
    );
    let RecoveryStats {
        tasks_replayed,
        tasks_retried,
        workers_respawned,
        attempts,
        ..
    } = got.metrics.recovery;
    assert_eq!(
        (tasks_replayed, tasks_retried, workers_respawned),
        (replayed, retried, respawns),
        "{ctx}: replayed, retried, respawned"
    );
    assert_eq!(attempts, got.metrics.wire.workers + respawns, "{ctx}");
}

/// Kills one of H-WTopk's `workers` before every task of rounds 2 and 3.
/// With `n` tasks per worker, worker `w` dies before round `r`'s local
/// task `i` at task ordinal `r·n + i`; its respawn replays the `r·n`
/// tasks of the earlier rounds plus the `i` the round committed, and
/// streams the other `n − i`.
fn kill_in_rounds_two_and_three<S>(ds: &S, workers: usize)
where
    S: SplitSource,
    HWTopk: HistogramBuilder<S>,
    S::Histogram: PartialEq + Debug,
{
    let want = hwtopk(ds, workers, FaultPlan::none());
    let n = (SPLITS / workers) as u32;
    for round in [1u32, 2] {
        for t in 0..SPLITS as u32 {
            let (w, i) = (t % workers as u32, t / workers as u32);
            let got = hwtopk(
                ds,
                workers,
                FaultPlan::none().kill_worker_before_task(w, round * n + i),
            );
            let expect = (u64::from(round * n + i), u64::from(n - i), 1);
            let ctx = format!("W={workers} kill before round {} task {t}", round + 1);
            assert_recovered(&got, &want, expect, &ctx);
        }
    }
}

/// The cross-round matrix: a kill before any task of H-WTopk's rounds 2
/// and 3, under 1/2/4 workers, recovers by replay to the bit-identical
/// fault-free build.
#[test]
fn h_wtopk_recovers_by_replay_from_kills_in_rounds_two_and_three() {
    let ds = dataset();
    for workers in [1usize, 2, 4] {
        kill_in_rounds_two_and_three(&ds, workers);
    }
}

/// The same matrix on the 2-D build, whose state lists hold packed
/// `(row, col)` coefficient slots.
#[test]
fn twod_h_wtopk_recovers_by_replay_from_kills_in_rounds_two_and_three() {
    kill_in_rounds_two_and_three(&dataset2d(), 2);
}

/// Frame faults reach round 3 too: frame ordinals run on across rounds.
/// On one worker, a fault-free build of `F` frames puts round 3's
/// `ROUND_END` at ordinal `F − 1` and its last `TASK_END` at `F − 2`.
#[test]
fn h_wtopk_recovers_from_a_cut_or_corrupt_frame_in_round_three() {
    let ds = dataset();
    let n = SPLITS as u64;
    let want = hwtopk(&ds, 1, FaultPlan::none());
    let frames = want.metrics.wire.frames as u32;

    // The last TASK_END is cut mid-header: the round's last task never
    // commits, so the respawn replays rounds 1–2 and the 7 committed
    // tasks and streams the 8th.
    let got = hwtopk(
        &ds,
        1,
        FaultPlan::none().truncate_worker_after_frame(0, frames - 2),
    );
    assert_recovered(&got, &want, (2 * n + n - 1, 1, 1), "cut last TASK_END");

    // A corrupt ROUND_END: every task has committed, and no round
    // follows, so the lost worker is never replaced.
    let got = hwtopk(
        &ds,
        1,
        FaultPlan::none().corrupt_worker_frame(0, frames - 1),
    );
    assert_recovered(&got, &want, (0, 0, 0), "corrupt ROUND_END");
    assert_eq!(got.metrics.recovery.corrupt_frames, 1);
}
