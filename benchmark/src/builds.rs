//! The four builder workloads: a dataset in, a k-term histogram out,
//! through `HistogramBuilder::build`. The traced run adds the staged
//! replay — the same pipeline stage by stage through public kernels —
//! and sums its parts against the build wall.

use std::hint::black_box;
use std::sync::Arc;

use crate::harness::{par_splits, sample_engine_ops, setup, verify_engine_run, Config};
use crate::layers::{self, Builder, CoefMap, Data, Engine, FreqMap, Hist, Oracle};
use crate::report::Report;
use crate::stats::{median, median_secs, timed};
use crate::trace::{SpanId, Tracer};

const K: usize = 30;
const SPLITS: u32 = 64;
/// TwoLevel-S error parameter: 1/ε² = 10⁶ sampled records (10⁴ in the
/// quick run, whose dataset is smaller than 10⁶).
const EPSILON: (f64, f64) = (1e-3, 1e-2);
/// Repetitions of each replay stage (median reported).
const STAGE_REPS: usize = 5;
/// Span `op_id` of the staged replay (builds use their sample index).
const REPLAY_OP: u64 = u64::MAX;

pub struct BuildWorkload {
    pub name: &'static str,
    kind: Kind,
    engine: Engine,
    alpha: f64,
    log_u: u32,
    log_n: u32,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    SendCoef,
    HWTopk,
    TwoLevelS,
}

pub const WORKLOADS: [BuildWorkload; 4] = [
    BuildWorkload {
        name: "sendcoef-flat",
        kind: Kind::SendCoef,
        engine: Engine::InProcess,
        alpha: 0.8,
        log_u: 20,
        log_n: 19,
    },
    BuildWorkload {
        name: "hwtopk-skew",
        kind: Kind::HWTopk,
        engine: Engine::InProcess,
        alpha: 1.1,
        log_u: 18,
        log_n: 22,
    },
    BuildWorkload {
        name: "twolevel-sample",
        kind: Kind::TwoLevelS,
        engine: Engine::InProcess,
        alpha: 1.1,
        log_u: 20,
        log_n: 24,
    },
    BuildWorkload {
        name: "hwtopk-wire",
        kind: Kind::HWTopk,
        engine: Engine::MultiProcess,
        alpha: 1.1,
        log_u: 18,
        log_n: 22,
    },
];

/// The exact frequency vector by one parallel scan: each thread counts
/// its splits into its own dense vector, then the vectors are summed.
fn exact_counts(data: &Data, threads: usize) -> Vec<u64> {
    let u = data.u() as usize;
    let partials = par_splits(threads, threads as u32, |t| {
        let mut counts = vec![0u64; u];
        for j in (t..data.splits()).step_by(threads) {
            for key in data.scan(j) {
                counts[key as usize] += 1;
            }
        }
        counts
    });
    let mut total = vec![0u64; u];
    for p in &partials {
        for (t, c) in total.iter_mut().zip(p) {
            *t += c;
        }
    }
    total
}

/// Same slots in the same order, values within 1e-6 relative.
fn close_to(got: &[(u64, f64)], want: &[(u64, f64)]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} terms, expected {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(want) {
        if g.0 != w.0 {
            return Err(format!("slot {} where {} was expected", g.0, w.0));
        }
        if (g.1 - w.1).abs() > 1e-6 * (1.0 + w.1.abs()) {
            return Err(format!("slot {}: {} vs {}", g.0, g.1, w.1));
        }
    }
    Ok(())
}

/// What one build's histogram must satisfy, checked outside the timed
/// region: bit-identical to the run's first build, and right.
fn verify(
    kind: Kind,
    hist: &Hist,
    first: &Hist,
    oracle: &Oracle,
    noise: f64,
) -> Result<(), String> {
    if !hist.bit_identical(first) {
        return Err("histogram differs from the run's first build".into());
    }
    match kind {
        Kind::SendCoef | Kind::HWTopk => {
            close_to(hist.coefficients(), oracle.reference().coefficients())
                .map_err(|e| format!("differs from Centralized: {e}"))
        }
        // TwoLevel-S estimates every frequency with standard deviation
        // ≤ εn, so k retained terms may add k(εn)² to the ideal SSE
        // (`noise`); seeds measured 0.09–0.18 of that at full size.
        Kind::TwoLevelS => {
            let excess = oracle.excess_sse(hist);
            if excess <= noise {
                Ok(())
            } else {
                Err(format!(
                    "SSE exceeds the ideal by {excess}, more than k(εn)² = {noise}"
                ))
            }
        }
    }
}

pub fn run(w: &BuildWorkload, cfg: &Config, report: &mut Report, tracer: &mut Tracer) {
    let log_u = cfg.pick(w.log_u, w.log_u.min(14));
    let n = 1u64 << cfg.pick(w.log_n, 17);
    let splits = cfg.pick(SPLITS, 16);
    let epsilon = cfg.pick(EPSILON.0, EPSILON.1);
    let builder = match w.kind {
        Kind::SendCoef => Builder::SendCoef,
        Kind::HWTopk => Builder::HWTopk,
        Kind::TwoLevelS => Builder::TwoLevelS {
            epsilon,
            seed: cfg.seed ^ 0x7105,
        },
    };
    println!(
        "{}: {builder:?} on {:?}, Zipf alpha={} u=2^{log_u} n={n} m={splits} k={K}, {} threads",
        w.name, w.engine, w.alpha, cfg.threads
    );

    // hwtopk-skew and hwtopk-wire see the same data for the same seed.
    let (data, oracle) = setup(cfg, report, || {
        let data = Data::zipf(log_u, w.alpha, n, splits, cfg.seed);
        let oracle = Oracle::new(&data, exact_counts(&data, cfg.threads), K);
        (data, oracle)
    });

    let mut hists: Vec<Hist> = Vec::new();
    let samples = sample_engine_ops(
        cfg,
        tracer,
        "core.build",
        || layers::build(builder, w.engine, cfg.threads, &data, K),
        |_, hist, _| hists.push(hist),
    );
    let noise = K as f64 * (epsilon * n as f64).powi(2);
    for (i, (hist, run)) in hists.iter().zip(&samples.runs).enumerate() {
        let outcome = verify(w.kind, hist, &hists[0], &oracle, noise)
            .and_then(|()| verify_engine_run(run, &samples.runs[0]));
        report.op(|| format!("{} build {i}", w.name), outcome);
    }

    samples.report(cfg, report, n);
    let wall_p50 = samples.wall_p50();
    let first = &samples.runs[0];
    report.set("core.sse_over_ideal", oracle.sse_over_ideal(&hists[0]));
    report.set(
        "mapreduce.pairs_per_record",
        first.map_output_pairs as f64 / n as f64,
    );
    if w.kind == Kind::TwoLevelS {
        report.set("sampling.sampled_records", first.records_scanned as f64);
        report.set("sampling.emitted_pairs", first.map_output_pairs as f64);
    }

    if cfg.trace {
        // Build span minus the engine's three reported phases.
        report.set("core.build_self_s", tracer.mean_self_time("core.build"));
        if w.engine == Engine::MultiProcess {
            let in_process = median_secs(STAGE_REPS, || {
                black_box(layers::build(
                    builder,
                    Engine::InProcess,
                    cfg.threads,
                    &data,
                    K,
                ));
            });
            report.set("mapreduce.wire_over_inprocess", wall_p50 / in_process);
        }
        let overhead_s = median_secs(cfg.min_samples(), || {
            black_box(layers::run_empty_job(w.engine, cfg.threads, splits));
        });
        report.set("mapreduce.job_overhead_ms", overhead_s * 1e3);
        let replay = Replay {
            w,
            cfg,
            data: &data,
            log_u,
            epsilon,
            rounds_overhead_s: overhead_s * f64::from(first.rounds),
        };
        replay.run(report, tracer, wall_p50, &hists[0]);
    }
}

/// The staged replay of one build workload.
struct Replay<'a> {
    w: &'a BuildWorkload,
    cfg: &'a Config,
    data: &'a Data,
    log_u: u32,
    epsilon: f64,
    /// Rounds × the empty-job wall: the engine's fixed cost in a build.
    rounds_overhead_s: f64,
}

impl Replay<'_> {
    /// Median wall of `STAGE_REPS` runs of one stage inside a span, and
    /// the last run's product.
    fn stage<T>(
        &self,
        tracer: &mut Tracer,
        name: &'static str,
        parent: SpanId,
        mut f: impl FnMut() -> T,
    ) -> (f64, T) {
        let mut walls = Vec::new();
        let mut product = None;
        for _ in 0..STAGE_REPS {
            drop(product.take());
            let span = tracer.open(name, parent, REPLAY_OP);
            let (wall, made) = timed(&mut f);
            tracer.close(span);
            walls.push(wall);
            product = Some(made);
        }
        (median(&walls), product.expect("STAGE_REPS > 0"))
    }

    fn run(&self, report: &mut Report, tracer: &mut Tracer, build_wall: f64, built: &Hist) {
        let root = tracer.open("replay", SpanId::NONE, REPLAY_OP);
        let parts = match self.w.kind {
            Kind::TwoLevelS => self.sampled(report, tracer, root),
            Kind::SendCoef | Kind::HWTopk => self.scanned(report, tracer, root, built),
        };
        tracer.close(root);
        let explained: f64 = parts.iter().map(|p| p.1).sum();
        println!("budget of one build ({build_wall:.4} s untraced median):");
        for (name, secs) in &parts {
            println!(
                "  {name:<28} {secs:>9.4} s  {:>5.1} %",
                100.0 * secs / build_wall
            );
        }
        println!(
            "  {:<28} {:>9.4} s  {:>5.1} %",
            "(unexplained)",
            build_wall - explained,
            100.0 * (1.0 - explained / build_wall)
        );
        report.set(
            "core.budget_unexplained_share",
            1.0 - explained / build_wall,
        );
    }

    /// Send-Coef and H-WTopk: scan → local frequency maps → sparse
    /// transform → engine job or top-k protocol → select → compile →
    /// publish.
    fn scanned(
        &self,
        report: &mut Report,
        tracer: &mut Tracer,
        root: SpanId,
        built: &Hist,
    ) -> Vec<(&'static str, f64)> {
        let (data, threads, m) = (self.data, self.cfg.threads, self.data.splits());
        let (scan_s, _) = self.stage(tracer, "data.scan", root, || {
            par_splits(threads, m, |j| data.scan(j).fold(0u64, |x, key| x ^ key))
        });
        report.set("data.scan_s", scan_s);
        report.set("data.scan_records_per_s", data.records() as f64 / scan_s);

        // The mappers' scan-and-count loop; what it costs beyond the
        // bare scan is the frequency map.
        let (scan_count_s, freqs) = self.stage(tracer, "core.scan_and_count", root, || {
            par_splits(threads, m, |j| {
                let mut local = FreqMap::default();
                for key in data.scan(j) {
                    *local.entry(key).or_insert(0) += 1;
                }
                local
            })
        });
        let count_s = (scan_count_s - scan_s).max(0.0);

        let (transform_s, coefs) = self.stage(tracer, "wavelet.sparse_transform", root, || {
            par_splits(threads, m, |j| {
                Arc::new(layers::sparse_transform(self.log_u, &freqs[j as usize]))
            })
        });
        report.set("wavelet.sparse_transform_s", transform_s);
        drop(freqs);

        let mut parts = vec![
            ("data.scan", scan_s),
            ("core.frequency_maps", count_s),
            ("wavelet.sparse_transform", transform_s),
        ];
        let top = match self.w.kind {
            Kind::SendCoef => {
                let (job_s, (sums, _)) = self.stage(tracer, "mapreduce.job", root, || {
                    layers::run_coef_job(self.w.engine, threads, data.u(), &coefs)
                });
                // The builder's reducer collects the sums in a shared
                // hash map and its finish step sorts them by slot.
                let (collect_s, sorted) = self.stage(tracer, "core.collect_sums", root, || {
                    let map: CoefMap = sums.iter().copied().collect();
                    let mut entries: Vec<(u64, f64)> = map.into_iter().collect();
                    entries.sort_unstable_by_key(|&(slot, _)| slot);
                    entries
                });
                let (select_s, top) = self.stage(tracer, "wavelet.select", root, || {
                    layers::top_k(sorted.iter().copied(), K)
                });
                report.set("wavelet.select_s", select_s);
                parts.push(("mapreduce.job (shuffle+reduce)", job_s));
                parts.push(("core.collect_sums", collect_s));
                parts.push(("wavelet.select", select_s));
                top
            }
            _ => {
                // Replay-only: the builder keeps its coefficients in the
                // map `sparse_transform` returned, so this is no part.
                let nodes = layers::TopkNodes::new(&coefs);
                let (topk_s, (top, items)) = self.stage(tracer, "topk.two_sided", root, || {
                    layers::two_sided(&nodes, K)
                });
                report.set("topk.two_sided_s", topk_s);
                report.set("topk.round_items", items as f64);
                parts.push(("topk.two_sided", topk_s));
                parts.push(("mapreduce.job_overhead x rounds", self.rounds_overhead_s));
                top
            }
        };
        let replayed = Hist::new(self.log_u, top);
        // Serving the result is outside `build()`: spans, not budget parts.
        let (compiled, _) = tracer.span("query.compile", root, REPLAY_OP, || {
            layers::Compiled::compile(&replayed)
        });
        tracer.span("serve.publish", root, REPLAY_OP, || {
            layers::Tier::new(threads).publish(0, &compiled, data.records())
        });
        report.op(
            || format!("{} staged replay", self.w.name),
            close_to(replayed.coefficients(), built.coefficients())
                .map_err(|e| format!("differs from the build: {e}")),
        );
        parts
    }

    /// TwoLevel-S: sample → local counts → second-level emission; the
    /// job ships a few KB, so the engine's part is its fixed cost. The
    /// reducer's estimate/transform/select is not replayed (it needs the
    /// builder's private pair encoding) and stays in the unexplained
    /// share.
    fn sampled(
        &self,
        report: &mut Report,
        tracer: &mut Tracer,
        root: SpanId,
    ) -> Vec<(&'static str, f64)> {
        let (data, threads, m) = (self.data, self.cfg.threads, self.data.splits());
        let seed = self.cfg.seed ^ 0x5a3b;
        let sampling = layers::Sampling::new(self.epsilon, data);
        let sizes: Vec<u64> = (0..m)
            .map(|j| sampling.split_sample_size(data.split_records(j), seed ^ u64::from(j)))
            .collect();
        let (sample_s, samples) = self.stage(tracer, "data.sample", root, || {
            par_splits(threads, m, |j| data.sample(j, sizes[j as usize], seed))
        });
        let sampled: u64 = sizes.iter().sum();
        report.set("data.sample_records_per_s", sampled as f64 / sample_s);

        let (count_s, counts) = self.stage(tracer, "core.sample_counts", root, || {
            par_splits(threads, m, |j| {
                let mut local = FreqMap::default();
                for &key in &samples[j as usize] {
                    *local.entry(key).or_insert(0) += 1;
                }
                local
            })
        });
        let (emit_s, _) = self.stage(tracer, "sampling.emit", root, || {
            par_splits(threads, m, |j| {
                sampling.emit(&counts[j as usize], seed ^ u64::from(j))
            })
        });
        report.set("sampling.emit_s", emit_s);
        vec![
            ("data.sample", sample_s),
            ("core.sample_counts", count_s),
            ("sampling.emit", emit_s),
            ("mapreduce.job_overhead x rounds", self.rounds_overhead_s),
        ]
    }
}
