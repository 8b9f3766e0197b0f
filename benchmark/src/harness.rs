//! What every workload shares: the run configuration, repeated set-up,
//! the closed sampling loop and the pinned thread fan-out.

use std::time::Instant;

use crate::layers::EngineRun;
use crate::report::Report;
use crate::stats::{median, summarize, timed};
use crate::trace::{SpanId, Tracer};

/// Thread count every workload pins: engine map/reduce parallelism,
/// forked workers and serving threads alike.
pub const MAX_THREADS: usize = 4;

pub struct Config {
    pub seed: u64,
    /// How long the timed region runs (it runs longer only to reach
    /// `min_samples`).
    pub seconds: f64,
    pub trace: bool,
    /// Shrunk inputs and sample counts: a smoke run, not comparable.
    pub quick: bool,
    pub threads: usize,
}

impl Config {
    /// Samples below which no median is reported.
    pub fn min_samples(&self) -> usize {
        if self.quick {
            3
        } else {
            10
        }
    }

    /// `full`, or `quick` in a smoke run.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// Builds the workload's inputs several times — everything needed
/// before the first timed operation — records the median as `setup_s`
/// and keeps the last product: three times, and up to fifteen while the
/// set-ups so far took under a second, so that cheap set-ups, whose
/// relative noise is largest, get the most repetitions. The traced and
/// the quick run do not report a comparable `setup_s` and set up once.
/// Each product is dropped before the next is made, so peak memory is
/// that of one.
pub fn setup<T>(cfg: &Config, report: &mut Report, mut make: impl FnMut() -> T) -> T {
    let once = cfg.quick || cfg.trace;
    let mut walls: Vec<f64> = Vec::new();
    let mut product = None;
    while walls.is_empty()
        || !once && (walls.len() < 3 || walls.len() < 15 && walls.iter().sum::<f64>() < 1.0)
    {
        drop(product.take());
        let (wall, made) = timed(&mut make);
        walls.push(wall);
        product = Some(made);
    }
    report.set("setup_s", median(&walls));
    println!("setup: {} s", summarize(&walls));
    product.expect("at least one set-up")
}

/// Discarded calls before the timed ones: the first two builds of a
/// process run 40-60 % slow (allocator and page-cache warm-up).
pub const WARMUPS: usize = 2;

/// The timed samples of an engine-backed operation (a build or a job).
pub struct EngineSamples {
    /// Wall seconds of every kept operation.
    pub walls: Vec<f64>,
    /// In the traced run every other operation carries a span, so one
    /// run yields both medians; `walls` is their union.
    traced_walls: Vec<f64>,
    untraced_walls: Vec<f64>,
    /// What each operation reported, warm-ups included.
    pub runs: Vec<EngineRun>,
}

/// The closed loop of the build/job workloads: `WARMUPS` discarded
/// calls of `op`, then calls until `cfg.seconds` have passed and
/// `min_samples()` are in (the traced run takes fewer). `op`'s product
/// goes to `each` with the operation's index and report, outside the
/// timer.
pub fn sample_engine_ops<T>(
    cfg: &Config,
    tracer: &mut Tracer,
    span_name: &'static str,
    mut op: impl FnMut() -> (T, EngineRun),
    mut each: impl FnMut(usize, T, &EngineRun),
) -> EngineSamples {
    let (seconds, min_samples) = if cfg.trace {
        (cfg.seconds * 0.4, cfg.min_samples().min(6))
    } else {
        (cfg.seconds, cfg.min_samples())
    };
    let mut samples = EngineSamples {
        walls: Vec::new(),
        traced_walls: Vec::new(),
        untraced_walls: Vec::new(),
        runs: Vec::new(),
    };
    let mut start = Instant::now();
    loop {
        let i = samples.runs.len();
        if i == WARMUPS {
            start = Instant::now();
        }
        let kept = i >= WARMUPS;
        if kept && samples.walls.len() >= min_samples && start.elapsed().as_secs_f64() >= seconds {
            return samples;
        }
        let traced = cfg.trace && i.is_multiple_of(2);
        let span = if traced {
            tracer.open(span_name, SpanId::NONE, i as u64)
        } else {
            SpanId::NONE
        };
        let (mut wall, (product, run)) = timed(&mut op);
        if traced {
            wall = tracer.close(span);
            let at = tracer.reported("mapreduce.map", span, i as u64, 0.0, run.wall_map_s);
            let at = tracer.reported("mapreduce.shuffle", span, i as u64, at, run.wall_shuffle_s);
            tracer.reported("mapreduce.reduce", span, i as u64, at, run.wall_reduce_s);
        }
        if kept {
            samples.walls.push(wall);
            if traced {
                samples.traced_walls.push(wall);
            } else {
                samples.untraced_walls.push(wall);
            }
        }
        each(i, product, &run);
        samples.runs.push(run);
    }
}

impl EngineSamples {
    pub fn wall_p50(&self) -> f64 {
        median(&self.walls)
    }

    /// Sets the two end-to-end rates — one measurement, the median wall,
    /// in the paper's unit (items/s) and in the caller's (ms) — and
    /// everything an operation's `RunMetrics` tells for free; `items` is
    /// the work of one operation.
    /// Counts come from the first operation (all must repeat it), phase
    /// walls are medians over the kept ones.
    pub fn report(&self, cfg: &Config, report: &mut Report, items: u64) {
        println!("operation wall: {} s", summarize(&self.walls));
        let wall_p50 = self.wall_p50();
        report.set("work_per_s", items as f64 / wall_p50);
        report.set("op_p50_ms", wall_p50 * 1e3);

        let first = &self.runs[0];
        let phase = |f: fn(&EngineRun) -> f64| {
            median(&self.runs[WARMUPS..].iter().map(f).collect::<Vec<_>>())
        };
        report.set("mapreduce.wall_map_s", phase(|r| r.wall_map_s));
        report.set("mapreduce.wall_shuffle_s", phase(|r| r.wall_shuffle_s));
        report.set("mapreduce.wall_reduce_s", phase(|r| r.wall_reduce_s));
        report.set("mapreduce.comm_bytes", first.comm_bytes as f64);
        report.set("mapreduce.shuffle_bytes", first.shuffle_bytes as f64);
        report.set("mapreduce.map_output_pairs", first.map_output_pairs as f64);
        report.set("mapreduce.rounds", f64::from(first.rounds));
        report.set("mapreduce.reduce_dense", f64::from(first.reduce_dense));
        report.set("mapreduce.reduce_sort", f64::from(first.reduce_sort));
        report.set("mapreduce.reduce_merge", f64::from(first.reduce_merge));
        report.set("mapreduce.sim_time_s", first.sim_time_s);
        report.set("mapreduce.wire_pair_bytes", first.wire_pair_bytes as f64);
        report.set("mapreduce.wire_frame_bytes", first.wire_frame_bytes as f64);
        report.set("mapreduce.wire_frames", first.wire_frames as f64);
        report.set("mapreduce.wire_state_bytes", first.wire_state_bytes as f64);
        report.set(
            "mapreduce.wire_comm_rounds",
            f64::from(first.wire_comm_rounds),
        );
        report.set(
            "mapreduce.recovery_attempts",
            f64::from(first.recovery_attempts),
        );
        report.set("mapreduce.tasks_retried", first.tasks_retried as f64);
        report.set(
            "mapreduce.wire_mb_per_s",
            first.wire_frame_bytes as f64 / 1e6 / wall_p50,
        );
        if cfg.trace {
            report.set(
                "trace.overhead_share",
                median(&self.traced_walls) / median(&self.untraced_walls) - 1.0,
            );
        }
    }
}

/// What every engine-backed operation must satisfy besides its output:
/// the exact counts of the run's first operation, no retried task on a
/// fault-free run, and measured wire bytes equal to the accounted ones.
pub fn verify_engine_run(run: &EngineRun, first: &EngineRun) -> Result<(), String> {
    if run.counts() != first.counts() {
        return Err(format!(
            "counts {:?} differ from the first operation's {:?}",
            run.counts(),
            first.counts()
        ));
    }
    if run.tasks_retried > 0 {
        return Err(format!(
            "{} tasks retried without a fault",
            run.tasks_retried
        ));
    }
    match &run.wire_rejected {
        Some(why) => Err(format!("measured shuffle rejected: {why}")),
        None => Ok(()),
    }
}

/// Runs `f(j)` for every split `j < m` on `threads` threads (split `j`
/// on thread `j mod threads`) and returns the results in split order.
pub fn par_splits<T: Send>(threads: usize, m: u32, f: impl Fn(u32) -> T + Sync) -> Vec<T> {
    let f = &f;
    let mut per_thread: Vec<Vec<T>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads as u32)
            .map(|t| s.spawn(move || (t..m).step_by(threads).map(f).collect::<Vec<T>>()))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("split worker panicked"))
            .collect()
    });
    let mut iters: Vec<_> = per_thread.iter_mut().map(|v| v.drain(..)).collect();
    (0..m as usize)
        .map(|j| iters[j % threads].next().expect("one result per split"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_splits_keeps_split_order() {
        assert_eq!(
            par_splits(3, 8, |j| j * 10),
            [0, 10, 20, 30, 40, 50, 60, 70]
        );
    }

    #[test]
    fn engine_loop_discards_warmups_and_reaches_the_minimum() {
        let cfg = Config {
            seed: 1,
            seconds: 0.0,
            trace: true,
            quick: true,
            threads: 1,
        };
        let mut tracer = crate::trace::Trace::new(true).tracer();
        let mut seen = 0;
        let samples = sample_engine_ops(
            &cfg,
            &mut tracer,
            "op",
            || ((), EngineRun::default()),
            |i, (), _| seen = i + 1,
        );
        assert_eq!((samples.walls.len(), samples.runs.len(), seen), (3, 5, 5));
        // Ops 0, 2 and 4 are traced: a span and three reported children each.
        assert_eq!(tracer.len(), 12);
        let mut report = Report::default();
        samples.report(&cfg, &mut report, 10);
        assert!(report.get("trace.overhead_share").is_some());
    }
}
