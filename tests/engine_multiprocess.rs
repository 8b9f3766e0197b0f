//! Differential and robustness tests of the multi-process engine
//! ([`EngineMode::MultiProcess`]): every builder must be bit-identical to
//! the in-process pipelined engine across worker-process and reducer
//! counts, measured bytes-on-wire must equal the accounted shuffle bytes
//! exactly, H-WTopk must show the paper's two communication rounds, and a
//! worker that dies or truncates its stream must surface a typed
//! [`EngineError`] instead of hanging the coordinator.

#![cfg(unix)]

use std::sync::Arc;

use proptest::prelude::*;
use wavelet_hist::builders::{
    BasicS, HWTopk, HistogramBuilder, ImprovedS, SendCoef, SendSketch, SendV, TwoLevelS,
};
use wavelet_hist::data::{Dataset, DatasetBuilder};
use wavelet_hist::mapreduce::cost::validate_measured_shuffle;
use wavelet_hist::mapreduce::engine::default_partition;
use wavelet_hist::mapreduce::transport::MAX_FRAME_BYTES;
use wavelet_hist::mapreduce::wire::WKey;
use wavelet_hist::mapreduce::{
    try_run_job, ClusterConfig, EngineConfig, EngineError, EngineMode, JobSpec, MapContext,
    MapTask, ReduceContext, RunMetrics, WireSize,
};
use wavelet_hist::wavelet::Domain;

fn dataset() -> Dataset {
    DatasetBuilder::new()
        .domain(Domain::new(9).unwrap())
        .records(6_000)
        .splits(8)
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

/// Tentpole: for every builder, forked map workers shipping spills over
/// the wire produce the **bit-identical** histogram and logical metrics
/// as in-process threads — across 1/2/4 worker processes and 1/2/8
/// reducers — and the framed traffic is really measured.
#[test]
fn every_builder_bit_identical_across_workers_and_reducers() {
    let ds = dataset();
    let cluster = ClusterConfig::paper_cluster();
    let k = 12;
    for reducers in [1u32, 2, 8] {
        let baseline: Vec<_> = builders(EngineConfig::default().with_reducers(reducers))
            .into_iter()
            .map(|b| (b.name(), b.build(&ds, &cluster, k)))
            .collect();
        for workers in [1usize, 2, 4] {
            let engine = EngineConfig::multi_process()
                .with_reducers(reducers)
                .with_map_parallelism(workers);
            for (b, (name, want)) in builders(engine).into_iter().zip(&baseline) {
                let got = b.build(&ds, &cluster, k);
                assert_eq!(
                    got.histogram.coefficients(),
                    want.histogram.coefficients(),
                    "{name}: R={reducers} W={workers}"
                );
                assert_eq!(
                    got.metrics, want.metrics,
                    "{name}: logical metrics R={reducers} W={workers}"
                );
                assert!(
                    got.metrics.bytes_on_wire() > 0,
                    "{name}: no measured traffic R={reducers} W={workers}"
                );
                assert_eq!(
                    got.metrics.wire.pair_bytes, got.metrics.shuffle_bytes,
                    "{name}: measured vs accounted R={reducers} W={workers}"
                );
                assert!(
                    want.metrics.wire.frames == 0,
                    "{name}: in-process run must not report framed traffic"
                );
            }
        }
    }
}

/// Satellite (d), H-WTopk half: under the multi-process engine the exact
/// algorithm still runs 3 MapReduce rounds of which exactly 2 carry a
/// coordinator→mapper broadcast (T₁/m, then the candidate set R) — the
/// paper's two communication rounds — and stays bit-identical.
#[test]
fn h_wtopk_reports_two_communication_rounds() {
    let ds = dataset();
    let cluster = ClusterConfig::paper_cluster();
    let engine = EngineConfig::multi_process()
        .with_map_parallelism(2)
        .with_reducers(4);
    let got = HWTopk::new().with_engine(engine).build(&ds, &cluster, 10);
    let want = HWTopk::new()
        .with_engine(EngineConfig::default().with_reducers(4))
        .build(&ds, &cluster, 10);
    assert_eq!(got.metrics.rounds, 3);
    assert_eq!(got.metrics.wire.comm_rounds, 2);
    assert_eq!(got.histogram.coefficients(), want.histogram.coefficients());
    assert_eq!(got.metrics, want.metrics);
    assert_eq!(got.metrics.broadcast_bytes, want.metrics.broadcast_bytes);
    // The workers fork once for all three rounds, and per-split state
    // never crosses a pipe: it stays in the worker that computed it.
    assert_eq!(got.metrics.recovery.attempts, 2);
    assert_eq!(got.metrics.wire.workers, 2);
    assert_eq!(got.metrics.wire.state_bytes, 0);
}

/// One digest row per reduced key: `(key, value count, value sum)`.
type ProbeDigest = Vec<(u64, u64, u64)>;

/// A combiner-less probe job: every emitted pair is shuffled, so the
/// expected bytes-on-wire can be recomputed independently of the engine.
fn probe_job(
    splits: &[Vec<u64>],
    engine: EngineConfig,
) -> Result<(ProbeDigest, RunMetrics), EngineError> {
    let tasks: Vec<MapTask<WKey, u64>> = splits
        .iter()
        .cloned()
        .enumerate()
        .map(|(j, keys)| {
            MapTask::new(j as u32, move |ctx: &mut MapContext<WKey, u64>| {
                for (i, k) in keys.iter().enumerate() {
                    ctx.emit(WKey::four(*k), ((j as u64) << 32) | i as u64);
                }
            })
        })
        .collect();
    let spec = JobSpec::new(
        "mp-probe",
        tasks,
        |k: &WKey, vs: &[u64], ctx: &mut ReduceContext<(u64, u64, u64)>| {
            ctx.charge(vs.len() as f64 * 2.0);
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

/// Satellite (c): a worker killed mid-job (here: SIGABRT from inside a
/// map task, gated so only the forked child misbehaves) is reaped and
/// reported as [`EngineError::WorkerDied`] — the coordinator must not
/// hang on the half-written pipe.
#[test]
fn killed_worker_is_reaped_and_reported() {
    let tasks: Vec<MapTask<WKey, u64>> = (0..4)
        .map(|j| {
            MapTask::new(j, move |ctx: &mut MapContext<WKey, u64>| {
                for i in 0..500u64 {
                    ctx.emit(WKey::four(i % 32), i);
                }
                if j == 2 && ctx.in_worker_process() {
                    std::process::abort();
                }
            })
        })
        .collect();
    let spec = JobSpec::new(
        "mp-abort",
        tasks,
        |k: &WKey, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((k.id, vs.iter().sum()));
        },
    )
    .with_wire_codec()
    .with_engine(EngineConfig::multi_process().with_map_parallelism(2));
    match probe_err(spec) {
        EngineError::WorkerDied { signal, .. } => {
            assert!(signal.is_some(), "abort dies by signal");
        }
        other => panic!("expected WorkerDied, got {other}"),
    }
}

/// Satellite (c), truncation half: a worker that exits *cleanly* without
/// finishing its round (no `ROUND_END`) is a truncated stream, not a
/// success.
#[test]
fn truncated_stream_is_reported() {
    let tasks: Vec<MapTask<WKey, u64>> = (0..4)
        .map(|j| {
            MapTask::new(j, move |ctx: &mut MapContext<WKey, u64>| {
                ctx.emit(WKey::four(u64::from(j)), 1);
                if j == 1 && ctx.in_worker_process() {
                    // Clean exit mid-protocol: unflushed frames vanish.
                    std::process::exit(0);
                }
            })
        })
        .collect();
    let spec = JobSpec::new(
        "mp-trunc",
        tasks,
        |k: &WKey, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((k.id, vs.iter().sum()));
        },
    )
    .with_wire_codec()
    .with_engine(EngineConfig::multi_process().with_map_parallelism(4));
    match probe_err(spec) {
        EngineError::TruncatedFrame { worker } => assert_eq!(worker, 1),
        other => panic!("expected TruncatedFrame, got {other}"),
    }
}

fn probe_err<K, V, R>(spec: JobSpec<K, V, R>) -> EngineError
where
    K: Ord + std::hash::Hash + Send + WireSize + 'static,
    V: Send + WireSize + 'static,
    R: Send,
{
    match try_run_job(&ClusterConfig::paper_cluster(), spec) {
        Ok(_) => panic!("job unexpectedly succeeded"),
        Err(e) => e,
    }
}

/// The multi-process mode is opt-in on the job: without a declared wire
/// codec there is nothing to ship, and the engine says so.
#[test]
fn missing_wire_codec_is_a_typed_error() {
    let tasks: Vec<MapTask<WKey, u64>> = vec![MapTask::new(0, |ctx| ctx.emit(WKey::four(1), 1))];
    let spec = JobSpec::new(
        "mp-nocodec",
        tasks,
        |k: &WKey, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((k.id, vs.iter().sum()));
        },
    )
    .with_engine(EngineConfig::multi_process());
    assert!(matches!(probe_err(spec), EngineError::MissingWireCodec));
}

/// Satellite to the cost rewiring: the model's shuffle term validates
/// against measured traffic exactly when there is measured traffic.
#[test]
fn cost_model_validates_against_measured_traffic() {
    let splits: Vec<Vec<u64>> = (0..5)
        .map(|j| (0..800).map(|i| (i * (j + 3)) % 60).collect())
        .collect();
    let (_, mp) = probe_job(&splits, EngineConfig::multi_process().with_reducers(2)).unwrap();
    assert_eq!(validate_measured_shuffle(&mp), Ok(()));
    let (_, inproc) = probe_job(&splits, EngineConfig::default().with_reducers(2)).unwrap();
    let err = validate_measured_shuffle(&inproc).unwrap_err();
    assert!(err.contains("no measured traffic"), "{err}");
}

/// A job with no map tasks still runs (the Close hook must fire) and
/// reports no traffic and no workers.
#[test]
fn empty_job_runs_without_forking() {
    let tasks: Vec<MapTask<WKey, u64>> = Vec::new();
    let spec = JobSpec::new(
        "mp-empty",
        tasks,
        |k: &WKey, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((k.id, vs.iter().sum()));
        },
    )
    .with_wire_codec()
    .with_finish(|ctx| ctx.emit((99, 99)))
    .with_engine(EngineConfig::multi_process());
    let out = try_run_job(&ClusterConfig::paper_cluster(), spec).unwrap();
    assert_eq!(out.outputs, vec![(99, 99)]);
    assert_eq!(out.metrics.wire.workers, 0);
    assert_eq!(out.metrics.bytes_on_wire(), 0);
}

/// The Close hook's engine contract. A hook that calls `take_outputs()`
/// sees exactly the reducer emissions, partition-major and key-ordered
/// within a partition, and what it re-emits *is* the job output; a hook
/// that only `emit`s appends to them (what the H-WTopk rounds' absent
/// hooks and `empty_job_*_runs_finish` rely on). Same on all three
/// engines, at any reducer and reduce-thread count — the job shuffles
/// past the pipelined engine's serial-reduce threshold so the threaded
/// stitch is the one under test.
#[test]
fn close_hook_consumes_the_stitched_reducer_emissions_on_every_engine() {
    const KEYS: u64 = 300;
    const SPLITS: u64 = 8;
    const PER_SPLIT: u64 = 1_200;
    const MARK: u64 = u64::MAX;
    let job = |engine: EngineConfig, consume: bool| {
        let tasks: Vec<MapTask<WKey, u64>> = (0..SPLITS)
            .map(|j| {
                MapTask::new(j as u32, move |ctx: &mut MapContext<WKey, u64>| {
                    for i in 0..PER_SPLIT {
                        ctx.emit(WKey::four((i * (j + 3)) % KEYS), 1);
                    }
                })
            })
            .collect();
        let spec = JobSpec::new(
            "close-contract",
            tasks,
            |k: &WKey, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
                ctx.emit((k.id, vs.iter().sum()));
            },
        )
        .with_wire_codec()
        .with_engine(engine)
        .with_finish(move |ctx| {
            if consume {
                let seen = ctx.take_outputs();
                ctx.emit((MARK, seen.len() as u64));
                for e in seen.into_iter().rev() {
                    ctx.emit(e);
                }
            } else {
                ctx.emit((MARK, 0));
            }
        });
        try_run_job(&ClusterConfig::paper_cluster(), spec)
            .unwrap()
            .outputs
    };
    let mut counts = vec![0u64; KEYS as usize];
    for j in 0..SPLITS {
        for i in 0..PER_SPLIT {
            counts[((i * (j + 3)) % KEYS) as usize] += 1;
        }
    }
    for reducers in [1u32, 2, 8] {
        // The expected layout comes from the engine's exported partition
        // function, not from a copy of its hash.
        let part = move |k: &u64| default_partition(&WKey::four(*k)) % u64::from(reducers);
        let stitched: Vec<(u64, u64)> = (0..u64::from(reducers))
            .flat_map(|p| (0..KEYS).filter(move |k| part(k) == p))
            .filter(|&k| counts[k as usize] > 0)
            .map(|k| (k, counts[k as usize]))
            .collect();
        let mut consumed = vec![(MARK, stitched.len() as u64)];
        consumed.extend(stitched.iter().rev());
        let mut appended = stitched.clone();
        appended.push((MARK, 0));
        for threads in [1usize, 4] {
            for (mode, base) in [
                ("pipelined", EngineConfig::default()),
                ("reference", EngineConfig::reference()),
                ("multi-process", EngineConfig::multi_process()),
            ] {
                let engine = base
                    .with_reducers(reducers)
                    .with_reducer_parallelism(threads);
                let ctx = format!("{mode} R={reducers} T={threads}");
                assert_eq!(job(engine, true), consumed, "{ctx}: consuming hook");
                assert_eq!(job(engine, false), appended, "{ctx}: emit-only hook");
            }
        }
    }
}

/// Broadcasts reach every task bit-exact on every engine, and task state
/// carries from round to round: each task compares what it was sent with
/// the payload it expects and counts its rounds in its own closure. A
/// payload too large for one frame is a typed error on forked workers —
/// after which the job still runs — and arrives like any other
/// in-process.
#[test]
fn broadcasts_arrive_bit_exact_on_every_engine() {
    let kib: Vec<u8> = (0..5 * 1024 + 3).map(|i| (i * 31 % 251) as u8).collect();
    let huge = vec![0x5a; MAX_FRAME_BYTES as usize];
    let payloads = Arc::new(vec![Vec::new(), kib, huge, vec![9]]);
    let cluster = ClusterConfig::single_machine();
    for engine in [
        EngineConfig::pipelined(),
        EngineConfig::reference(),
        EngineConfig::multi_process().with_map_parallelism(2),
    ] {
        let tasks: Vec<MapTask<u32, u64>> = (0..3u32)
            .map(|j| {
                let payloads = Arc::clone(&payloads);
                let mut rounds_seen = 0u64;
                MapTask::new(j, move |ctx: &mut MapContext<u32, u64>| {
                    let sent = payloads.iter().position(|p| p == ctx.broadcast());
                    rounds_seen += 1;
                    ctx.emit(j, rounds_seen * 100 + sent.map_or(99, |i| i as u64));
                })
            })
            .collect();
        let spec = JobSpec::new(
            "bcast-exact",
            tasks,
            |k: &u32, vs: &[u64], ctx: &mut ReduceContext<(u32, u64)>| ctx.emit((*k, vs[0])),
        )
        .with_wire_codec()
        .with_engine(engine);
        let mut job = spec.start(&cluster).unwrap();
        let mut rounds = 0u64;
        for (i, payload) in payloads.iter().enumerate() {
            let got = job.round(payload);
            if engine.mode == EngineMode::MultiProcess
                && payload.len() + 4 > MAX_FRAME_BYTES as usize
            {
                assert!(
                    matches!(got, Err(EngineError::FrameTooLarge { .. })),
                    "{got:?}"
                );
                continue;
            }
            rounds += 1;
            let out = got.unwrap();
            let want: Vec<(u32, u64)> = (0..3).map(|j| (j, rounds * 100 + i as u64)).collect();
            assert_eq!(out.outputs, want, "{:?} payload {i}", engine.mode);
            assert_eq!(out.metrics.broadcast_bytes, payload.len() as u64);
        }
    }
}

/// Every reduce route on forked workers: a job mixing one flat spill
/// with seven scattered ones yields the same outputs and logical metrics
/// on all three engines, with and without radix keys, with and without a
/// key-domain hint, at 1 and 4 reducers (sort at reduce and dense reduce
/// between them). The reducer digests values order-sensitively,
/// so a shuffle that reordered a key's values would show; the pair count
/// is recomputed from the raw input, independent of every engine.
#[test]
fn order_sensitive_job_identical_on_pipelined_reference_and_forked_workers() {
    const KEYS: u64 = 2_000;
    // One split too small to scatter in the worker, seven large enough to.
    let split_len = |j: u64| if j == 0 { 40 } else { 3_000 };
    let key_of = |j: u64, i: u64| (i * (2 * j + 3) + j) % KEYS;
    let job = |engine: EngineConfig, radix: bool| {
        let tasks: Vec<MapTask<WKey, u64>> = (0..8u64)
            .map(|j| {
                MapTask::new(j as u32, move |ctx: &mut MapContext<WKey, u64>| {
                    ctx.note_read(split_len(j), split_len(j) * 4);
                    for i in 0..split_len(j) {
                        ctx.emit(WKey::four(key_of(j, i)), i + 1);
                    }
                })
            })
            .collect();
        let mut spec = JobSpec::new(
            "mp-strategies",
            tasks,
            |k: &WKey, vs: &[u64], ctx: &mut ReduceContext<(u64, u64, u64)>| {
                ctx.charge(vs.len() as f64);
                let digest = vs.iter().enumerate().fold(0u64, |acc, (i, v)| {
                    acc.wrapping_add(v.wrapping_mul(i as u64 + 1))
                });
                ctx.emit((k.id, vs.len() as u64, digest));
            },
        )
        .with_wire_codec()
        .with_engine(engine);
        if radix {
            spec = spec.with_radix_keys();
        }
        let out = try_run_job(&ClusterConfig::paper_cluster(), spec).unwrap();
        (out.outputs, out.metrics)
    };
    let emitted_pairs: u64 = (0..8u64).map(split_len).sum();
    for reducers in [1u32, 4] {
        for radix in [false, true] {
            for hint in [None, Some(KEYS)] {
                let configure = |base: EngineConfig| {
                    let engine = base.with_reducers(reducers);
                    hint.map_or(engine, |u| engine.with_key_domain(u))
                };
                let ctx = format!("R={reducers} radix={radix} hint={hint:?}");
                let (want, want_metrics) = job(configure(EngineConfig::reference()), radix);
                assert_eq!(want_metrics.map_output_pairs, emitted_pairs, "{ctx}");
                assert_eq!(want_metrics.shuffle_bytes, emitted_pairs * 12, "{ctx}");
                for (mode, base) in [
                    ("pipelined", EngineConfig::pipelined()),
                    (
                        "multi-process",
                        EngineConfig::multi_process().with_map_parallelism(3),
                    ),
                ] {
                    let (got, metrics) = job(configure(base), radix);
                    assert_eq!(got, want, "{mode} {ctx}: outputs");
                    assert_eq!(metrics, want_metrics, "{mode} {ctx}: logical metrics");
                }
            }
        }
    }
}

fn splits_strategy() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..60, 0..70), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite (d): on random combiner-less jobs, the measured
    /// `bytes_on_wire` equals the sum of `WireSize::wire_bytes` over all
    /// shuffled pairs — recomputed here from the raw input, independent
    /// of both engines — and the multi-process run stays bit-identical
    /// to the in-process one.
    #[test]
    fn bytes_on_wire_equals_wire_size_sum(
        splits in splits_strategy(),
        reducers in 1u32..4,
        workers in 1usize..4,
    ) {
        // Every emitted pair is shuffled (no combiner): key is a 4-byte
        // WKey, value a u64.
        let expected: u64 = splits
            .iter()
            .flatten()
            .map(|&k| WKey::four(k).wire_bytes() + 0u64.wire_bytes())
            .sum();
        let engine = EngineConfig::multi_process()
            .with_reducers(reducers)
            .with_map_parallelism(workers);
        let (out, metrics) = probe_job(&splits, engine).unwrap();
        prop_assert_eq!(metrics.bytes_on_wire(), expected);
        prop_assert_eq!(metrics.shuffle_bytes, expected);
        prop_assert_eq!(metrics.wire.workers as usize, workers.min(splits.len()));
        // Single-round job without broadcast: zero communication rounds
        // in the paper's counting.
        prop_assert_eq!(metrics.wire.comm_rounds, 0);
        let (want_out, want_metrics) =
            probe_job(&splits, EngineConfig::default().with_reducers(reducers)).unwrap();
        prop_assert_eq!(out, want_out);
        prop_assert_eq!(metrics, want_metrics);
    }
}
