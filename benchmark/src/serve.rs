//! The serving workloads: closed-loop probe threads against a
//! `ServeTier`, read-only (1-D and 2-D) and beside a refreshing writer.
//! No engine call is made here: histograms are synthetic.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::harness::{setup, Config};
use crate::layers::{
    self, Compiled, Compiled2d, Handle, Hist, Hist2d, Maintained, Query1d, Query2d, Scratch,
    Scratch2d, Tier,
};
use crate::report::Report;
use crate::stats::{median, median_secs, quantile, summarize, Rng};
use crate::trace::{SpanId, Trace, Tracer};

/// Estimates per batch, batched or one at a time.
const BATCH: usize = 1024;
/// Distinct batches in each thread's query stream (cycled).
const STREAM_BATCHES: usize = 16;
/// Serve phases are sampled as interleaved windows of this length, so
/// machine drift spreads over the metrics instead of landing on one.
const WINDOW_S: f64 = 0.4;
/// One batch in this many is re-answered by the direct form.
const CHECK_EVERY: u64 = 64;
/// Checked batches a window can hold per thread.
const KEPT_SLOTS: usize = 64;
/// Window length of the quick run.
const QUICK_WINDOW_S: f64 = 0.05;
const DATASET: u32 = 0;

/// What a read workload serves: one published dataset, reachable through
/// the tier and, for checking and the layer metrics, directly.
trait Target: Sync {
    type Query: Copy + Send + Sync;
    type Scratch: Default;
    const NAME: &'static str;
    const BATCH_NS: &'static str;
    const SINGLE_NS: &'static str;

    fn query(rng: &mut Rng, u: u64) -> Self::Query;
    fn publish(&self, tier: &Tier) -> u64;
    fn tier_batch(h: &mut Handle, qs: &[Self::Query], out: &mut [f64]) -> Result<(), String>;
    fn tier_single(h: &mut Handle, q: Self::Query) -> Result<f64, String>;
    fn direct_batch(
        &self,
        qs: &[Self::Query],
        scratch: &mut Self::Scratch,
        out: &mut [f64],
    ) -> Result<(), String>;
    fn direct_single(&self, q: Self::Query) -> Result<f64, String>;
    /// Compile/shard/publish costs of this dataset (traced run).
    fn layer_metrics(&self, cfg: &Config, report: &mut Report);
}

struct OneD {
    hist: Hist,
    compiled: Compiled,
    records: u64,
}

impl Target for OneD {
    type Query = Query1d;
    type Scratch = Scratch;
    const NAME: &'static str = "serve-read-1d";
    const BATCH_NS: &'static str = "query.batch_ns_per_estimate";
    const SINGLE_NS: &'static str = "query.single_ns_per_estimate";

    /// Range predicates of mixed width, scattered over the domain.
    fn query(rng: &mut Rng, u: u64) -> Query1d {
        let lo = rng.below(u);
        (lo, (lo + rng.below((u / 64).max(1))).min(u - 1))
    }

    fn publish(&self, tier: &Tier) -> u64 {
        tier.publish(DATASET, &self.compiled, self.records)
    }

    fn tier_batch(h: &mut Handle, qs: &[Query1d], out: &mut [f64]) -> Result<(), String> {
        h.selectivity_batch(DATASET, qs, out)
    }

    fn tier_single(h: &mut Handle, q: Query1d) -> Result<f64, String> {
        h.selectivity(DATASET, q)
    }

    fn direct_batch(
        &self,
        qs: &[Query1d],
        scratch: &mut Scratch,
        out: &mut [f64],
    ) -> Result<(), String> {
        self.compiled
            .selectivity_batch(qs, self.records, scratch, out)
    }

    fn direct_single(&self, q: Query1d) -> Result<f64, String> {
        self.compiled.selectivity(q, self.records)
    }

    fn layer_metrics(&self, cfg: &Config, report: &mut Report) {
        let reps = cfg.min_samples();
        let compile_s = median_secs(reps, || {
            black_box(Compiled::compile(&self.hist));
        });
        report.set("query.compile_ms", compile_s * 1e3);
        let mut scratch = self.compiled.clone();
        let recompile_s = median_secs(reps, || scratch.recompile(&self.hist));
        report.set("query.recompile_ms", recompile_s * 1e3);
        let shard_s = median_secs(reps, || {
            black_box(self.compiled.shard(cfg.threads));
        });
        report.set("query.shard_ms", shard_s * 1e3);
        report.set("query.segments", self.compiled.segments() as f64);
    }
}

struct TwoD {
    hist: Hist2d,
    compiled: Compiled2d,
    records: u64,
}

impl Target for TwoD {
    type Query = Query2d;
    type Scratch = Scratch2d;
    const NAME: &'static str = "serve-read-2d";
    const BATCH_NS: &'static str = "query.batch2d_ns_per_estimate";
    const SINGLE_NS: &'static str = "query.single2d_ns_per_estimate";

    /// Rectangles of mixed aspect, scattered over the grid.
    fn query(rng: &mut Rng, u: u64) -> Query2d {
        let (xlo, ylo) = (rng.below(u), rng.below(u));
        let extent = (u / 8).max(1);
        (
            xlo,
            (xlo + rng.below(extent)).min(u - 1),
            ylo,
            (ylo + rng.below(extent)).min(u - 1),
        )
    }

    fn publish(&self, tier: &Tier) -> u64 {
        tier.publish2d(DATASET, &self.compiled, self.records)
    }

    fn tier_batch(h: &mut Handle, qs: &[Query2d], out: &mut [f64]) -> Result<(), String> {
        h.rectangle_sum_batch(DATASET, qs, out)
    }

    fn tier_single(h: &mut Handle, q: Query2d) -> Result<f64, String> {
        h.rectangle_sum(DATASET, q)
    }

    fn direct_batch(
        &self,
        qs: &[Query2d],
        scratch: &mut Scratch2d,
        out: &mut [f64],
    ) -> Result<(), String> {
        self.compiled.rectangle_sum_batch(qs, scratch, out)
    }

    fn direct_single(&self, q: Query2d) -> Result<f64, String> {
        self.compiled.rectangle_sum(q)
    }

    fn layer_metrics(&self, cfg: &Config, report: &mut Report) {
        let compile_s = median_secs(cfg.min_samples(), || {
            black_box(Compiled2d::compile(&self.hist));
        });
        report.set("query.compile2d_ms", compile_s * 1e3);
    }
}

/// A heavy-tailed 1-D frequency vector: most keys small, scattered
/// spikes. `k` of its 2^`log_u` coefficients are kept.
fn one_d(seed: u64, log_u: u32, k: usize) -> OneD {
    let mut rng = Rng::new(seed ^ 0x1d);
    let freq: Vec<f64> = (0..1u64 << log_u)
        .map(|_| {
            let z = rng.next();
            (z % 97) as f64 + if z.is_multiple_of(1021) { 4_000.0 } else { 0.0 }
        })
        .collect();
    let records = freq.iter().sum::<f64>() as u64;
    let hist = layers::hist_of_frequencies(log_u, freq, k);
    let compiled = Compiled::compile(&hist);
    OneD {
        hist,
        compiled,
        records,
    }
}

/// A heavy-tailed 2-D grid: a diagonal density band plus scattered
/// spikes, the correlated structure 1-D marginals would lose.
fn two_d(seed: u64, log_u: u32, k: usize) -> TwoD {
    let mut rng = Rng::new(seed ^ 0x2d);
    let u = 1u64 << log_u;
    let grid: Vec<f64> = (0..u * u)
        .map(|i| {
            let z = rng.next();
            let band = if (i / u).abs_diff(i % u) < 4 {
                50.0
            } else {
                0.0
            };
            band + (z % 7) as f64 + if z.is_multiple_of(601) { 900.0 } else { 0.0 }
        })
        .collect();
    let records = grid.iter().sum::<f64>() as u64;
    let hist = layers::hist2d_of_grid(log_u, &grid, k);
    let compiled = Compiled2d::compile(&hist);
    TwoD {
        hist,
        compiled,
        records,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Batched,
    Single,
}

#[derive(Default)]
struct WindowStats {
    estimates: u64,
    elapsed_s: f64,
    batches: u64,
    errors: Vec<String>,
}

/// One closed-loop serving thread: its handle, its query stream, and the
/// answers it sets aside for checking.
struct Reader<'t, T: Target> {
    handle: Handle<'t>,
    stream: Vec<T::Query>,
    cursor: usize,
    out: Vec<f64>,
    /// Answers of the checked batches of the current window, and which
    /// stream batch each answered.
    kept: Vec<f64>,
    kept_batches: Vec<usize>,
    tracer: Tracer,
    /// Per-batch seconds of the traced batched windows.
    latencies: Vec<f64>,
}

impl<'t, T: Target> Reader<'t, T> {
    fn new(tier: &'t Tier, rng: &mut Rng, u: u64, tracer: Tracer) -> Self {
        Self {
            handle: tier.handle(),
            stream: (0..STREAM_BATCHES * BATCH)
                .map(|_| T::query(rng, u))
                .collect(),
            cursor: 0,
            out: vec![0.0; BATCH],
            kept: vec![0.0; KEPT_SLOTS * BATCH],
            kept_batches: Vec::with_capacity(KEPT_SLOTS),
            tracer,
            latencies: Vec::new(),
        }
    }

    /// Issues batches back to back for `seconds`. One batch in
    /// `CHECK_EVERY` is answered into `kept` instead of the recycled
    /// buffer: no copy, so the timed loop pays nothing for the check.
    fn window(&mut self, phase: Phase, seconds: f64, traced: bool) -> WindowStats {
        let mut stats = WindowStats::default();
        self.kept_batches.clear();
        let start = Instant::now();
        loop {
            let b = self.cursor % STREAM_BATCHES;
            self.cursor += 1;
            let queries = &self.stream[b * BATCH..(b + 1) * BATCH];
            let out = if stats.batches % CHECK_EVERY == 0 && self.kept_batches.len() < KEPT_SLOTS {
                let slot = self.kept_batches.len();
                self.kept_batches.push(b);
                &mut self.kept[slot * BATCH..(slot + 1) * BATCH]
            } else {
                &mut self.out[..]
            };
            let span = if traced {
                let name = if phase == Phase::Batched {
                    "serve.batch"
                } else {
                    "serve.singles"
                };
                self.tracer.open(name, SpanId::NONE, self.cursor as u64)
            } else {
                SpanId::NONE
            };
            let outcome = match phase {
                Phase::Batched => T::tier_batch(&mut self.handle, queries, out),
                Phase::Single => queries.iter().zip(out.iter_mut()).try_for_each(|(&q, o)| {
                    *o = T::tier_single(&mut self.handle, q)?;
                    Ok(())
                }),
            };
            if traced {
                let secs = self.tracer.close(span);
                if phase == Phase::Batched {
                    self.latencies.push(secs);
                }
            }
            stats.batches += 1;
            match outcome {
                Ok(()) => stats.estimates += BATCH as u64,
                Err(e) => stats.errors.push(e),
            }
            stats.elapsed_s = start.elapsed().as_secs_f64();
            if stats.elapsed_s >= seconds {
                return stats;
            }
        }
    }

    /// Re-answers the window's kept batches with the direct, unsharded
    /// form (outside any timer); they must be bit-identical.
    fn check_kept(&self, target: &T, phase: Phase, scratch: &mut T::Scratch) -> Result<(), String> {
        let mut direct = vec![0.0; BATCH];
        for (slot, &b) in self.kept_batches.iter().enumerate() {
            let queries = &self.stream[b * BATCH..(b + 1) * BATCH];
            match phase {
                Phase::Batched => target.direct_batch(queries, scratch, &mut direct)?,
                Phase::Single => {
                    for (d, &q) in direct.iter_mut().zip(queries) {
                        *d = target.direct_single(q)?;
                    }
                }
            }
            let served = &self.kept[slot * BATCH..(slot + 1) * BATCH];
            if served
                .iter()
                .zip(&direct)
                .any(|(s, d)| s.to_bits() != d.to_bits())
            {
                return Err(format!("stream batch {b} differs from the direct form"));
            }
        }
        Ok(())
    }
}

/// Per-batch seconds of every reader's traced batched windows.
fn batch_latencies<T: Target>(readers: &[Reader<T>]) -> Vec<f64> {
    readers
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect()
}

/// Accounts one window's batches: every one attempted, the `Err`s failed.
fn account_window(report: &mut Report, who: impl Fn() -> String, stats: &WindowStats) {
    report.ok_ops(stats.batches - stats.errors.len() as u64);
    for e in &stats.errors {
        report.op(&who, Err(e.clone()));
    }
}

/// Runs one window on every reader at once; returns the summed
/// per-thread rate (estimates/s) and mean seconds per estimate, and
/// accounts every batch.
fn run_window<T: Target>(
    readers: &mut [Reader<T>],
    target: &T,
    phase: Phase,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> (f64, f64) {
    let stats: Vec<WindowStats> = std::thread::scope(|s| {
        let threads: Vec<_> = readers
            .iter_mut()
            .map(|r| s.spawn(move || r.window(phase, seconds, traced)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("serving thread panicked"))
            .collect()
    });
    let mut scratch = T::Scratch::default();
    let (mut rate, mut secs_per_estimate) = (0.0, 0.0);
    for (i, (reader, st)) in readers.iter().zip(stats).enumerate() {
        account_window(report, || format!("{} probe on thread {i}", T::NAME), &st);
        report.op(
            || format!("{} check on thread {i}", T::NAME),
            reader.check_kept(target, phase, &mut scratch),
        );
        rate += st.estimates as f64 / st.elapsed_s;
        secs_per_estimate += st.elapsed_s / st.estimates.max(1) as f64 / readers.len() as f64;
    }
    (rate, secs_per_estimate)
}

/// Median estimates per second of three `seconds`-long loops of `f`
/// over the batches of `stream`, back to back on this thread.
fn direct_rate<Q>(seconds: f64, stream: &[Q], mut f: impl FnMut(&[Q], &mut [f64])) -> f64 {
    let mut out = vec![0.0; BATCH];
    let rates: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut batches = 0usize;
            loop {
                let b = batches % STREAM_BATCHES;
                f(&stream[b * BATCH..(b + 1) * BATCH], &mut out);
                batches += 1;
                let elapsed = start.elapsed().as_secs_f64();
                if elapsed >= seconds {
                    break (batches * BATCH) as f64 / elapsed;
                }
            }
        })
        .collect();
    median(&rates)
}

fn read<T: Target>(
    cfg: &Config,
    report: &mut Report,
    trace: &mut Trace,
    u: u64,
    make: impl Fn() -> T,
) {
    let mut rng = Rng::new(cfg.seed ^ 0x9e7);
    // Set-up: synthesize, compile, shard and publish the dataset.
    let (target, tier) = setup(cfg, report, || {
        let target = make();
        let tier = Tier::new(cfg.threads);
        target.publish(&tier);
        (target, tier)
    });
    let mut readers: Vec<Reader<T>> = (0..cfg.threads)
        .map(|_| Reader::new(&tier, &mut rng, u, trace.tracer()))
        .collect();

    // Interleaved windows: batched, single, batched, … In the traced
    // run every other pair carries spans, so the run yields the traced
    // and the untraced medians.
    // The traced run halves the windows to get as many of each kind
    // (batched/single × traced/untraced) in half the time.
    let window_s = cfg.pick(
        if cfg.trace { WINDOW_S / 2.0 } else { WINDOW_S },
        QUICK_WINDOW_S,
    );
    run_window(
        &mut readers,
        &target,
        Phase::Batched,
        window_s,
        false,
        report,
    ); // warm-up
    run_window(
        &mut readers,
        &target,
        Phase::Single,
        window_s,
        false,
        report,
    );
    let seconds = if cfg.trace {
        cfg.seconds * 0.5
    } else {
        cfg.seconds
    };
    let min_windows = if cfg.trace {
        cfg.min_samples().min(4)
    } else {
        cfg.min_samples()
    };
    let start = Instant::now();
    let mut batched: [Vec<f64>; 2] = Default::default(); // [untraced, traced] rates
    let mut single_ns = Vec::new();
    let mut w = 0usize;
    while batched[0].len() < min_windows || start.elapsed().as_secs_f64() < seconds {
        let phase = if w.is_multiple_of(2) {
            Phase::Batched
        } else {
            Phase::Single
        };
        let traced = cfg.trace && (w / 2) % 2 == 1;
        let (rate, secs) = run_window(&mut readers, &target, phase, window_s, traced, report);
        match phase {
            Phase::Batched => batched[usize::from(traced)].push(rate),
            Phase::Single => single_ns.push(secs * 1e9),
        }
        w += 1;
    }
    println!(
        "batched window rate: {} estimates/s",
        summarize(&batched[0])
    );
    println!("one-at-a-time probe: {} ns", summarize(&single_ns));
    let batched_rate = median(&batched[0]);
    report.set("work_per_s", batched_rate);
    report.set("op_p50_ms", median(&single_ns) * 1e-6);

    if cfg.trace {
        report.set(
            "trace.overhead_share",
            batched_rate / median(&batched[1]) - 1.0,
        );
        read_layers(cfg, report, &mut readers, &target, batched_rate, window_s);
    }
    report.set("serve.failed_probes", report.failed as f64);
    for r in readers {
        trace.collect(r.tracer);
    }
}

/// The traced run's layer numbers of a read workload: batch latency
/// percentiles from the spans, the direct (unsharded, one-thread) cost
/// of the same probes, what the tier adds to it and how it scales, and
/// the compile/shard/publish costs.
fn read_layers<T: Target>(
    cfg: &Config,
    report: &mut Report,
    readers: &mut [Reader<T>],
    target: &T,
    batched_rate: f64,
    window_s: f64,
) {
    let latencies = batch_latencies(readers);
    report.set("serve.batch_p50_us", quantile(&latencies, 0.5) * 1e6);
    report.set("serve.batch_p99_us", quantile(&latencies, 0.99) * 1e6);
    report.set("serve.batch_p999_us", quantile(&latencies, 0.999) * 1e6);

    let slice = window_s.min(0.2);
    let mut scratch = T::Scratch::default();
    let direct_batched = direct_rate(slice, &readers[0].stream, |qs, out| {
        target
            .direct_batch(qs, &mut scratch, out)
            .expect("valid queries");
    });
    let direct_single = direct_rate(slice, &readers[0].stream, |qs, out| {
        for (o, &q) in out.iter_mut().zip(qs) {
            *o = target.direct_single(q).expect("valid query");
        }
    });
    report.set(T::BATCH_NS, 1e9 / direct_batched);
    report.set(T::SINGLE_NS, 1e9 / direct_single);
    if T::NAME == TwoD::NAME {
        report.set(
            "query.batch2d_over_single2d",
            direct_batched / direct_single,
        );
    }
    let tier_one: Vec<f64> = (0..3)
        .map(|_| {
            run_window(
                &mut readers[..1],
                target,
                Phase::Batched,
                slice,
                false,
                report,
            )
            .0
        })
        .collect();
    let tier_one = median(&tier_one);
    report.set("serve.tier_over_direct", direct_batched / tier_one);
    report.set(
        "serve.scaling_efficiency",
        batched_rate / (cfg.threads as f64 * tier_one),
    );

    target.layer_metrics(cfg, report);
    let scratch_tier = Tier::new(cfg.threads);
    let publish_s = median_secs(cfg.min_samples(), || {
        black_box(target.publish(&scratch_tier));
    });
    report.set("serve.publish_ms", publish_s * 1e3);
    let mut handle = scratch_tier.handle();
    let mut visible = Vec::new();
    for _ in 0..cfg.min_samples() {
        let published = target.publish(&scratch_tier);
        let begin = Instant::now();
        let seen = handle.generation();
        visible.push(begin.elapsed().as_secs_f64());
        assert!(
            seen >= published,
            "publish returned before its generation was visible"
        );
    }
    report.set("serve.generation_visible_us", median(&visible) * 1e6);
}

pub const READ_1D: &str = OneD::NAME;
pub const READ_2D: &str = TwoD::NAME;
pub const REFRESH: &str = "serve-refresh";

/// Larger-k regime than `serve-refresh`'s, still cache-resident.
pub fn read_1d(cfg: &Config, report: &mut Report, trace: &mut Trace) {
    let (log_u, k) = cfg.pick((20, 4_096), (16, 4_096));
    println!(
        "{READ_1D}: u=2^{log_u} k={k}, {0} shards, {0} closed-loop threads, batches of {BATCH}",
        cfg.threads
    );
    read(cfg, report, trace, 1 << log_u, || one_d(cfg.seed, log_u, k));
}

pub fn read_2d(cfg: &Config, report: &mut Report, trace: &mut Trace) {
    let (log_u, k) = cfg.pick((7, 1_024), (6, 256));
    println!(
        "{READ_2D}: u=2^{log_u} per axis k={k}, {} closed-loop threads, batches of {BATCH}",
        cfg.threads
    );
    read(cfg, report, trace, 1 << log_u, || two_d(cfg.seed, log_u, k));
}

// ------------------------------------------------------------- refresh

const REFRESH_K: usize = 64;
/// Deltas generated up front and cycled.
const DELTA_POOL: usize = 256;
/// Keys whose served point estimates are checked after every refresh.
const CHECK_KEYS: usize = 8;

struct RefreshInputs {
    tier: Tier,
    maintained: Maintained,
    compiled: Compiled,
    base: Vec<(u64, u64)>,
    deltas: Vec<Vec<(u64, u64)>>,
}

/// A sparse base — 1/32 of the domain carries data — and deltas of 1 %
/// of its distinct keys each: the regime where maintenance beats a
/// rebuild.
fn refresh_inputs(cfg: &Config, log_u: u32) -> RefreshInputs {
    let mut rng = Rng::new(cfg.seed ^ 0x4ef);
    let u = 1u64 << log_u;
    let distinct = (u / 32).max(1);
    let base: Vec<(u64, u64)> = (0..distinct)
        .map(|_| (rng.below(u), rng.below(200) + 1))
        .collect();
    let deltas = (0..DELTA_POOL)
        .map(|_| {
            (0..(distinct / 100).max(1))
                .map(|_| (rng.below(u), rng.below(50) + 1))
                .collect()
        })
        .collect();
    let mut maintained = Maintained::new(log_u, REFRESH_K);
    maintained.merge_delta(&base);
    let compiled = Compiled::compile(&maintained.snapshot());
    let tier = Tier::new(cfg.threads);
    tier.publish(DATASET, &compiled, maintained.total_records());
    RefreshInputs {
        tier,
        maintained,
        compiled,
        base,
        deltas,
    }
}

/// Writes beside reads on one tier: one writer refreshing, the other
/// threads probing.
pub fn refresh(cfg: &Config, report: &mut Report, trace: &mut Trace) {
    let log_u = cfg.pick(18, 14);
    let u = 1u64 << log_u;
    let readers_n = cfg.threads - 1;
    println!(
        "{REFRESH}: u=2^{log_u} k={REFRESH_K}, 1 writer (delta -> merge -> snapshot -> recompile \
         -> publish -> visible) beside {readers_n} batched 1-D probe threads"
    );
    let RefreshInputs {
        tier,
        mut maintained,
        mut compiled,
        base,
        deltas,
    } = setup(cfg, report, || refresh_inputs(cfg, log_u));

    let mut rng = Rng::new(cfg.seed ^ 0x9e7);
    let mut readers: Vec<Reader<OneD>> = (0..readers_n)
        .map(|_| Reader::new(&tier, &mut rng, u, trace.tracer()))
        .collect();
    let check_keys: Vec<u64> = (0..CHECK_KEYS).map(|_| rng.below(u)).collect();
    let window_s = cfg.pick(WINDOW_S, QUICK_WINDOW_S);
    let mut tracer = trace.tracer();
    let traced = cfg.trace;
    let stop = AtomicBool::new(false);
    let mut refresh_s: [Vec<f64>; 2] = Default::default(); // [untraced, traced]
    let mut stage_s: [Vec<f64>; 5] = Default::default();
    let mut applied = 0usize;

    let reader_windows: Vec<Vec<WindowStats>> = std::thread::scope(|s| {
        let stop = &stop;
        let threads: Vec<_> = readers
            .iter_mut()
            .map(|r| {
                s.spawn(move || {
                    let mut windows = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        windows.push(r.window(Phase::Batched, window_s, traced));
                    }
                    windows
                })
            })
            .collect();

        // The writer, on this thread.
        let mut handle = tier.handle();
        let start = Instant::now();
        while refresh_s[0].len() < 10 * cfg.min_samples()
            || start.elapsed().as_secs_f64() < cfg.seconds
        {
            let delta = &deltas[applied % DELTA_POOL];
            let op = applied as u64;
            // In the traced run every other refresh carries spans.
            let traced = traced && applied % 2 == 1;
            tracer.record(traced);
            let begin = Instant::now();
            let root = tracer.open("refresh", SpanId::NONE, op);
            let ((), merge) = tracer.span("core.merge_delta", root, op, || {
                maintained.merge_delta(delta)
            });
            let (snapshot, snap) = tracer.span("core.snapshot", root, op, || maintained.snapshot());
            let mut recompile = 0.0;
            let (published, publish) = tracer.span("serve.try_publish", root, op, || {
                tier.try_publish(DATASET, maintained.total_records(), || {
                    let begin = Instant::now();
                    compiled.recompile(&snapshot);
                    let fresh = compiled.clone();
                    if traced {
                        recompile = begin.elapsed().as_secs_f64();
                    }
                    fresh
                })
            });
            let (seen, visible) =
                tracer.span("serve.generation_visible", root, op, || handle.generation());
            tracer.close(root);
            refresh_s[usize::from(traced)].push(begin.elapsed().as_secs_f64());
            applied += 1;
            if traced {
                for (samples, secs) in
                    stage_s
                        .iter_mut()
                        .zip([merge, snap, recompile, publish - recompile, visible])
                {
                    samples.push(secs);
                }
            }

            // Outside the refresh's timer: the new generation is served,
            // and serves what a from-scratch compile of the snapshot does.
            let outcome = published.and_then(|generation| {
                if seen < generation {
                    return Err(format!("generation {generation} published, {seen} served"));
                }
                let scratch = Compiled::compile(&snapshot);
                for &x in &check_keys {
                    let served = handle.point_estimate(DATASET, x)?;
                    if served.to_bits() != scratch.point_estimate(x)?.to_bits() {
                        return Err(format!(
                            "point estimate at {x} differs from a from-scratch compile"
                        ));
                    }
                }
                Ok(())
            });
            report.op(|| format!("{REFRESH} refresh {op}"), outcome);
        }
        stop.store(true, Ordering::Relaxed);
        threads
            .into_iter()
            .map(|t| t.join().expect("serving thread panicked"))
            .collect()
    });

    // The maintained state must equal one built in one go from the
    // concatenated deltas. The pool is cycled, so the concatenation is
    // each pool delta as often as it was applied: summed per entry, its
    // size (and the process's peak memory) does not depend on how many
    // refreshes the run managed.
    let mut concatenated = base;
    for (i, delta) in deltas.iter().enumerate() {
        let times = (applied / DELTA_POOL + usize::from(i < applied % DELTA_POOL)) as u64;
        concatenated.extend(delta.iter().map(|&(key, count)| (key, count * times)));
    }
    let mut rebuilt = Maintained::new(log_u, REFRESH_K);
    rebuilt.merge_delta(&concatenated);
    report.op(
        || format!("{REFRESH} final state"),
        if rebuilt == maintained {
            Ok(())
        } else {
            Err("differs from a build of the concatenated deltas".into())
        },
    );

    // The i-th windows of all readers (same length, same start, run
    // back to back) are summed as one sample; window 0 is the warm-up.
    let windows = reader_windows.iter().map(Vec::len).min().unwrap_or(0);
    let rates: Vec<f64> = (1..windows)
        .map(|i| {
            reader_windows
                .iter()
                .map(|w| w[i].estimates as f64 / w[i].elapsed_s)
                .sum()
        })
        .collect();
    for (i, windows) in reader_windows.iter().enumerate() {
        for st in windows {
            account_window(report, || format!("{REFRESH} probe on reader {i}"), st);
        }
    }
    println!("reader window rate: {} estimates/s", summarize(&rates));
    let [refresh_s, traced_refresh_s] = refresh_s;
    println!("refresh: {} s", summarize(&refresh_s));
    report.set("work_per_s", median(&rates));
    report.set("op_p50_ms", median(&refresh_s) * 1e3);
    report.set("serve.refresh_p90_ms", quantile(&refresh_s, 0.9) * 1e3);
    report.set("serve.failed_probes", report.failed as f64);
    if traced {
        let [merge, snap, recompile, publish, visible] = stage_s.map(|s| median(&s));
        report.set("core.merge_delta_ms", merge * 1e3);
        report.set("core.snapshot_ms", snap * 1e3);
        report.set("query.recompile_ms", recompile * 1e3);
        report.set("serve.publish_ms", publish * 1e3);
        report.set("serve.generation_visible_us", visible * 1e6);
        report.set("query.segments", compiled.segments() as f64);
        report.set(
            "serve.reader_batch_p99_us_under_refresh",
            quantile(&batch_latencies(&readers), 0.99) * 1e6,
        );
        report.set(
            "trace.overhead_share",
            median(&traced_refresh_s) / median(&refresh_s) - 1.0,
        );
    }
    trace.collect(tracer);
    for r in readers {
        trace.collect(r.tracer);
    }
}
