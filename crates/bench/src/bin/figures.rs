//! Regenerates the paper's figures.
//!
//! ```text
//! cargo run -p wh-bench --release --bin figures -- all
//! cargo run -p wh-bench --release --bin figures -- fig5 fig6
//! cargo run -p wh-bench --release --bin figures -- --quick all
//! cargo run -p wh-bench --release --bin figures -- --n 1048576 --logu 16 fig14
//! ```
//!
//! CSV output lands in `results/` (override with `--out DIR`).

use std::path::PathBuf;
use std::time::Instant;

use wh_bench::defaults::Defaults;
use wh_bench::figures::{self, figure_ids, Sweeps};
use wh_bench::table;

fn usage(problem: &str) -> ! {
    eprintln!("figures: {problem}");
    eprintln!(
        "usage: figures [--quick] [--n N] [--logu L] [--m M] [--k K] [--eps E] \
         [--alpha A] [--bandwidth F] [--seed S] [--out DIR] <fig5..fig19|ablations|all>..."
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut d = Defaults::default();
    let mut out_dir = PathBuf::from("results");
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut next_f64 = || -> f64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage(&format!("{a} needs a numeric argument")))
        };
        match a.as_str() {
            "--quick" => {
                d = Defaults {
                    seed: d.seed,
                    ..Defaults::quick()
                }
            }
            "--n" => d.n = next_f64() as u64,
            "--logu" => d.log_u = next_f64() as u32,
            "--m" => d.m = next_f64() as u32,
            "--k" => d.k = next_f64() as usize,
            "--eps" => d.epsilon = next_f64(),
            "--alpha" => d.alpha = next_f64(),
            "--bandwidth" => d.bandwidth = next_f64(),
            "--seed" => d.seed = next_f64() as u64,
            "--out" => match it.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => usage("--out needs a directory"),
            },
            "-h" | "--help" => usage("help"),
            other if other.starts_with("--") => usage(&format!("unknown flag {other}")),
            fig => targets.push(fig.to_string()),
        }
    }
    if targets.iter().any(|t| t == "all") {
        targets = figure_ids().map(String::from).collect();
        targets.push("ablations".into());
    }
    // Every id is checked before anything runs: a typo in the last target
    // must not cost the minutes the earlier figures take.
    if targets.is_empty() {
        usage("no figure named");
    }
    for t in &targets {
        if t != "ablations" && !figure_ids().any(|id| id == t) {
            usage(&format!("unknown figure id {t}"));
        }
    }

    println!(
        "defaults: n={} log2u={} m={} k={} eps={:.1e} alpha={} bandwidth={} seed={}",
        d.n, d.log_u, d.m, d.k, d.epsilon, d.alpha, d.bandwidth, d.seed
    );
    let mut sweeps = Sweeps::new(d);
    for t in &targets {
        let started = Instant::now();
        let rows = if t == "ablations" {
            let mut rows = figures::ablation_combiner(&d);
            rows.extend(figures::ablation_threshold_exponent(&d));
            rows
        } else {
            sweeps.figure(t)
        };
        println!(
            "\n=== {t} ({:.1}s wall) ===",
            started.elapsed().as_secs_f64()
        );
        print!("{}", table::render(&rows));
        if let Err(e) = table::write_csv(&out_dir, t, &rows) {
            eprintln!("warning: could not write {t}.csv: {e}");
        }
    }
    println!("\nCSV written to {}", out_dir.display());
}
