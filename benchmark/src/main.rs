//! The repo's benchmark: data → build → compile → serve → refresh, eight
//! workloads, measured end to end and layer by layer. See `README.md`.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! benchmark [--seed N] [--trace 1] [--out FILE]                every workload, one child process each
//! benchmark --selfcheck [--seed N]                             the suite twice, compared against the bounds
//! ```
//!
//! `--quick` shrinks inputs and sample counts to a smoke run whose
//! timings are not comparable with anything.

mod builds;
mod harness;
mod layers;
mod report;
mod serve;
mod shuffle;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use harness::{Config, MAX_THREADS};
use report::{Report, END_TO_END, EXACT, PER_LAYER};
use trace::Trace;

/// Every workload, in the order the suite runs them.
const WORKLOADS: [&str; 8] = [
    "sendcoef-flat",
    "hwtopk-skew",
    "twolevel-sample",
    "hwtopk-wire",
    shuffle::NAME,
    serve::READ_1D,
    serve::READ_2D,
    serve::REFRESH,
];

#[derive(Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
    out: String,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--quick] [--selfcheck] [--out FILE]\nworkloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        selfcheck: false,
        out: "results/benchmark.json".into(),
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--workload" => args.workload = Some(it.next()?),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                args.seconds = it
                    .next()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())?;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--out" => args.out = it.next()?,
            _ => return None,
        }
    }
    if args.quick && !seconds_given {
        args.seconds = 1.0;
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return None;
        }
    }
    Some(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to time a debug build; use `cargo run --release`");
        return ExitCode::from(2);
    }
    // serve-refresh needs a writer beside at least one reader, and a
    // pinned thread count above nproc would measure oversubscription.
    if nproc() < 2 {
        eprintln!("benchmark: needs at least 2 processors, found {}", nproc());
        return ExitCode::from(2);
    }
    match (&args.workload, args.selfcheck) {
        (Some(name), _) => run_workload(name, &args),
        (None, false) => match run_suite(&args) {
            Some(suite) => {
                suite.print();
                suite.write(&args);
                ExitCode::from(u8::from(suite.failed() > 0))
            }
            None => ExitCode::FAILURE,
        },
        (None, true) => selfcheck(&args),
    }
}

// ------------------------------------------------------------ one workload

fn run_workload(name: &str, args: &Args) -> ExitCode {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        threads: nproc().min(MAX_THREADS),
    };
    let mut report = Report::default();
    let mut trace = Trace::new(cfg.trace);
    if cfg.quick {
        println!("QUICK RUN: shrunk inputs and sample counts; timings are not comparable");
    }
    match name {
        shuffle::NAME => with_tracer(&mut trace, |t| shuffle::run(&cfg, &mut report, t)),
        serve::READ_1D => serve::read_1d(&cfg, &mut report, &mut trace),
        serve::READ_2D => serve::read_2d(&cfg, &mut report, &mut trace),
        serve::REFRESH => serve::refresh(&cfg, &mut report, &mut trace),
        _ => {
            let w = builds::WORKLOADS
                .iter()
                .find(|w| w.name == name)
                .expect("parse_args checked the name");
            with_tracer(&mut trace, |t| builds::run(w, &cfg, &mut report, t));
        }
    }
    report.set("peak_rss_mb", stats::peak_rss_mb());
    if cfg.trace {
        report.set("trace.spans", trace.spans() as f64);
        let path = format!("results/trace-{name}.jsonl");
        let written =
            std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, trace.jsonl()));
        match written {
            Ok(()) => println!("{} spans written to {path}", trace.spans()),
            Err(e) => eprintln!("benchmark: cannot write {path}: {e}"),
        }
    }

    for m in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = report.get(m.name) {
            println!("metric {} {v} {}", m.name, m.unit);
        }
    }
    println!(
        "ops attempted {} failed {}",
        report.attempted, report.failed
    );
    for f in report.failures() {
        println!("FAILED {f}");
    }
    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report.result_json(table, !cfg.trace));
    ExitCode::from(u8::from(report.failed > 0))
}

/// Runs a single-threaded workload with one tracer and files its spans.
fn with_tracer(trace: &mut Trace, f: impl FnOnce(&mut trace::Tracer)) {
    let mut tracer = trace.tracer();
    f(&mut tracer);
    trace.collect(tracer);
}

// --------------------------------------------------------------- the suite

/// What one child process reported.
struct Outcome {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

struct Suite {
    outcomes: Vec<(&'static str, Outcome)>,
}

/// Runs every workload in its own child process (so `peak_rss_mb` and
/// allocator state are per workload), echoing its output. `None` when a
/// child could not be run or printed no result.
fn run_suite(args: &Args) -> Option<Suite> {
    let exe = std::env::current_exe().ok()?;
    let mut outcomes = Vec::new();
    for name in WORKLOADS {
        println!("=== {name}");
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if args.quick {
            cmd.arg("--quick");
        }
        let output = cmd
            .spawn()
            .and_then(|child| child.wait_with_output())
            .ok()?;
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        let mut outcome = Outcome {
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        };
        let mut reported = false;
        for line in text.lines() {
            let words: Vec<&str> = line.split_whitespace().collect();
            match words[..] {
                ["metric", name, value, _unit] => {
                    outcome
                        .metrics
                        .insert(name.to_string(), value.parse().ok()?);
                }
                ["ops", "attempted", attempted, "failed", failed] => {
                    outcome.attempted = attempted.parse().ok()?;
                    outcome.failed = failed.parse().ok()?;
                    reported = true;
                }
                _ => {}
            }
        }
        if !reported {
            eprintln!(
                "benchmark: {name} ended with {} and no result",
                output.status
            );
            return None;
        }
        outcomes.push((name, outcome));
    }
    Some(Suite { outcomes })
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

impl Suite {
    fn failed(&self) -> u64 {
        self.outcomes.iter().map(|(_, o)| o.failed).sum()
    }

    /// Every metric by name with its unit, one column per workload.
    fn print(&self) {
        println!("=== summary");
        let names: Vec<&str> = self.outcomes.iter().map(|(n, _)| *n).collect();
        println!("{:<42} {:<6} {}", "metric", "unit", names.join("  "));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let cells: Vec<String> = self
                .outcomes
                .iter()
                .map(|(name, o)| {
                    let cell = o
                        .metrics
                        .get(m.name)
                        .map_or("-".into(), |v| format!("{v:.6}"));
                    format!("{cell:>w$}", w = name.len())
                })
                .collect();
            if cells.iter().any(|c| c.trim() != "-") {
                println!("{:<42} {:<6} {}", m.name, m.unit, cells.join("  "));
            }
        }
        for (name, o) in &self.outcomes {
            println!(
                "{name}: {} of {} operations failed (failed_share {})",
                o.failed,
                o.attempted,
                o.failed as f64 / o.attempted.max(1) as f64
            );
        }
    }

    /// The machine facts and every number, as JSON at `args.out`.
    fn write(&self, args: &Args) {
        let mut json = format!(
            "{{\n  \"machine\": {{\"nproc\": {}, \"pinned_threads\": {}, \"rustc\": \"{}\", \
             \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}}},\n  \"workloads\": {{",
            nproc(),
            nproc().min(MAX_THREADS),
            rustc_version(),
            args.seed,
            args.seconds,
            args.trace,
            args.quick
        );
        for (i, (name, o)) in self.outcomes.iter().enumerate() {
            let metrics: Vec<String> = o
                .metrics
                .iter()
                .map(|(m, v)| format!("\"{m}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(m)))
                .collect();
            let _ = write!(
                json,
                "{}\n    \"{name}\": {{\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                if i == 0 { "" } else { "," },
                o.attempted,
                o.failed,
                metrics.join(", ")
            );
        }
        json.push_str("\n  }\n}\n");
        let path = std::path::Path::new(&args.out);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, json));
        match written {
            Ok(()) => println!("results written to {}", args.out),
            Err(e) => eprintln!("benchmark: cannot write {}: {e}", args.out),
        }
    }
}

// --------------------------------------------------------------- selfcheck

/// Runs the untraced suite twice with the same seed. Fails when an
/// end-to-end metric of the second run is worse than the first by more
/// than its bound, or an exact count differs.
fn selfcheck(args: &Args) -> ExitCode {
    let args = Args {
        trace: false,
        ..args.clone()
    };
    let (Some(first), Some(second)) = (run_suite(&args), run_suite(&args)) else {
        return ExitCode::FAILURE;
    };
    println!(
        "=== selfcheck (seed {}, two runs of the same code)",
        args.seed
    );
    println!(
        "{:<16} {:<12} {:>16} {:>16} {:>9} {:>6}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut bad = first.failed() + second.failed();
    for ((name, a), (_, b)) in first.outcomes.iter().zip(&second.outcomes) {
        for m in END_TO_END {
            let (x, y) = (a.metrics[m.name], b.metrics[m.name]);
            let worse_by = if m.higher { (x - y) / x } else { (y - x) / x };
            let verdict = if worse_by > m.bound {
                bad += 1;
                "EXCEEDED"
            } else {
                ""
            };
            println!(
                "{name:<16} {:<12} {x:>16.6e} {y:>16.6e} {:>8.1}% {:>5.0}% {verdict}",
                m.name,
                100.0 * worse_by,
                100.0 * m.bound
            );
        }
        for m in PER_LAYER.iter().filter(|m| EXACT.contains(&m.name)) {
            if a.metrics.get(m.name).map(|v| v.to_bits())
                != b.metrics.get(m.name).map(|v| v.to_bits())
            {
                bad += 1;
                println!(
                    "{name:<16} {} did not repeat: {:?} vs {:?}",
                    m.name,
                    a.metrics.get(m.name),
                    b.metrics.get(m.name)
                );
            }
        }
    }
    println!("selfcheck: {}", if bad == 0 { "ok" } else { "FAILED" });
    second.write(&args);
    ExitCode::from(u8::from(bad > 0))
}
