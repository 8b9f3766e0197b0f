//! No worker outlives its job. The multi-process engine forks a job's map
//! workers once and keeps them between rounds, so a job dropped between
//! rounds — because the caller is done, because a builder returned `Err`
//! mid-job, or because coordinator code panicked — must kill and reap
//! every worker it forked.
//!
//! This is its own test binary holding one test, so no other test's
//! children can race the check: after each drop, `waitpid(-1, WNOHANG)`
//! must report `ECHILD` — the process has no child at all, live or
//! unreaped.

#![cfg(unix)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use wavelet_hist::builders::{HWTopk, HistogramBuilder};
use wavelet_hist::data::DatasetBuilder;
use wavelet_hist::mapreduce::wire::WKey;
use wavelet_hist::mapreduce::{
    ClusterConfig, EngineConfig, EngineError, FaultPlan, JobSpec, MapContext, MapTask,
    ReduceContext,
};
use wavelet_hist::wavelet::Domain;

extern "C" {
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
}

/// `WNOHANG` and `ECHILD` share these values on Linux, macOS and the BSDs.
const WNOHANG: i32 = 1;
const ECHILD: i32 = 10;

/// Asserts the calling process has no child process, live or unreaped.
fn assert_no_children(ctx: &str) {
    let mut status = 0;
    // SAFETY: `status` is a valid out-pointer; with WNOHANG, waitpid(-1)
    // polls for any child without blocking and writes only `status`.
    let reaped = unsafe { waitpid(-1, &mut status, WNOHANG) };
    let errno = std::io::Error::last_os_error().raw_os_error();
    assert_eq!(
        (reaped, errno),
        (-1, Some(ECHILD)),
        "{ctx}: a worker outlived its job"
    );
}

/// A job of eight small tasks on three forked workers.
fn probe_spec() -> JobSpec<WKey, u64, (u64, u64)> {
    let tasks: Vec<MapTask<WKey, u64>> = (0..8u32)
        .map(|j| {
            MapTask::new(j, move |ctx: &mut MapContext<WKey, u64>| {
                for i in 0..50u64 {
                    ctx.emit(WKey::four(i % 16), u64::from(j));
                }
            })
        })
        .collect();
    JobSpec::new(
        "orphans",
        tasks,
        |k: &WKey, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((k.id, vs.iter().sum()));
        },
    )
    .with_wire_codec()
    .with_engine(EngineConfig::multi_process().with_map_parallelism(3))
}

#[test]
fn dropped_jobs_leave_no_worker_behind() {
    let cluster = ClusterConfig::paper_cluster();
    assert_no_children("before any job");

    let mut job = probe_spec().start(&cluster).unwrap();
    job.round(&[]).unwrap();
    job.round(&[1, 2, 3]).unwrap();
    drop(job);
    assert_no_children("job dropped between rounds");

    // H-WTopk loses worker 0 before its first round-2 task (8 splits on
    // 3 workers: worker 0 runs 3 tasks a round, so task ordinal 3) with
    // no retries left: the build returns Err with the other workers
    // still resident.
    let ds = DatasetBuilder::new()
        .domain(Domain::new(9).unwrap())
        .records(6_000)
        .splits(8)
        .seed(0xabcd)
        .build();
    let engine = EngineConfig::multi_process()
        .with_map_parallelism(3)
        .with_task_retries(0)
        .with_faults(FaultPlan::none().kill_worker_before_task(0, 3));
    let err = HWTopk::new()
        .with_engine(engine)
        .try_build(&ds, &cluster, 10)
        .unwrap_err();
    assert!(
        matches!(err, EngineError::WorkerDied { worker: 0, .. }),
        "{err}"
    );
    assert_no_children("builder returned Err mid-job");

    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let mut job = probe_spec().start(&cluster).unwrap();
        job.round(&[]).unwrap();
        panic!("coordinator logic failed between rounds");
    }));
    assert!(unwound.is_err());
    assert_no_children("panic between rounds");
}
