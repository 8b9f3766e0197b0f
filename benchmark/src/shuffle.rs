//! `shuffle-wire`: a raw `run_job` whose mappers emit pre-scrambled
//! pairs, on the multi-process engine. Map CPU is negligible, so the
//! transport — frames, CRC, pipes, coordinator decode — does the work.

use std::hint::black_box;
use std::sync::Arc;

use crate::harness::{sample_engine_ops, setup, verify_engine_run, Config};
use crate::layers::{self, Engine};
use crate::report::Report;
use crate::stats::{median, median_secs, timed, Rng};
use crate::trace::Tracer;

pub const NAME: &str = "shuffle-wire";
const KEY_BITS: u32 = 18;
const REDUCERS: u32 = 8;

struct Inputs {
    tasks: Vec<Arc<Vec<(u64, u64)>>>,
    /// Occurrences of every key over all tasks: what the job must output.
    expected: Vec<u64>,
}

fn generate(seed: u64, tasks: u32, pairs_per_task: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x5bff1e);
    let mut expected = vec![0u64; 1 << KEY_BITS];
    let tasks = (0..tasks)
        .map(|_| {
            let pairs: Vec<(u64, u64)> = (0..pairs_per_task)
                .map(|i| {
                    let key = rng.below(1 << KEY_BITS);
                    expected[key as usize] += 1;
                    (key, i)
                })
                .collect();
            Arc::new(pairs)
        })
        .collect();
    Inputs { tasks, expected }
}

/// A job's outputs are `(key, occurrences)` for every key that occurs,
/// each once, in any order (partition order, in fact).
fn verify(outputs: &[(u64, u64)], expected: &[u64]) -> Result<(), String> {
    let occurring = expected.iter().filter(|&&c| c > 0).count();
    if outputs.len() != occurring {
        return Err(format!(
            "{} output keys, expected {occurring}",
            outputs.len()
        ));
    }
    let mut seen = vec![false; expected.len()];
    for &(key, count) in outputs {
        let k = key as usize;
        if k >= expected.len() || seen[k] || expected[k] != count {
            return Err(format!("key {key} reported {count} times"));
        }
        seen[k] = true;
    }
    Ok(())
}

pub fn run(cfg: &Config, report: &mut Report, tracer: &mut Tracer) {
    let tasks = cfg.pick(64, 8);
    let pairs_per_task = cfg.pick(62_500u64, 20_000);
    let pairs = u64::from(tasks) * pairs_per_task;
    println!(
        "{NAME}: {tasks} map tasks x {pairs_per_task} pairs, {KEY_BITS}-bit keys, \
         {REDUCERS} reducers, {} forked workers",
        cfg.threads
    );
    let inputs = setup(cfg, report, || generate(cfg.seed, tasks, pairs_per_task));
    let job =
        |engine| layers::run_pairs_job(engine, cfg.threads, REDUCERS, 1 << KEY_BITS, &inputs.tasks);

    // Outputs are checked between samples, outside any timer, so only
    // the verdicts are kept, not 4 MB of outputs per job.
    let mut verdicts = Vec::new();
    let samples = sample_engine_ops(
        cfg,
        tracer,
        "mapreduce.job",
        || job(Engine::MultiProcess),
        |_, outputs, _| verdicts.push(verify(&outputs, &inputs.expected)),
    );
    for (i, (verdict, run)) in verdicts.into_iter().zip(&samples.runs).enumerate() {
        let outcome = verdict.and_then(|()| verify_engine_run(run, &samples.runs[0]));
        report.op(|| format!("{NAME} job {i}"), outcome);
    }
    samples.report(cfg, report, pairs);
    let wall_p50 = samples.wall_p50();

    if cfg.trace {
        let in_process = median_secs(cfg.min_samples().min(5), || {
            black_box(job(Engine::InProcess));
        });
        report.set("mapreduce.wire_over_inprocess", wall_p50 / in_process);
        let overhead_s = median_secs(cfg.min_samples(), || {
            black_box(layers::run_empty_job(
                Engine::MultiProcess,
                cfg.threads,
                tasks,
            ));
        });
        report.set("mapreduce.job_overhead_ms", overhead_s * 1e3);

        // `RadixSorter::sort` on spill-sized runs: one task's pairs.
        let mut sorter = layers::Sorter::default();
        let mut sort_walls = Vec::new();
        for task in inputs.tasks.iter().take(cfg.min_samples() + 1) {
            let mut run = task.as_ref().clone();
            sort_walls.push(timed(|| sorter.sort(&mut run)).0);
            black_box(&run);
        }
        report.set(
            "mapreduce.radix_sort_pairs_per_s",
            pairs_per_task as f64 / median(&sort_walls[1..]),
        );
    }
}
