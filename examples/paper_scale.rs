//! One builder at the paper's domain: the WorldCup shape (u = 2^29
//! `clientobject` keys, 40-byte records) in m = 64 splits, k = 30. Prints
//! wall time, communication and the process's peak resident memory, so
//! run one builder per process. The reduce line reads the engine's
//! per-partition record (`RunMetrics::reduce_partitions`): the reduce
//! phase's wall, its partitions' seconds summed, and the routes taken.
//!
//! ```text
//! cargo run --release --example paper_scale -- [builder] [log_n] [inproc | pipes [workers]]
//! ```
//!
//! `builder` is one of `hwtopk` (default), `sendv`, `sendcoef`, or a
//! sampler at ε = 1e-4: `twolevel`, `basic` or `improved`; `log_n` sets
//! n = 2^log_n records (default 20). The engine is the in-process one
//! (`inproc`, default) or the multi-process one (`pipes`), whose map
//! tasks run in `workers` forked processes (default: one per core, at
//! most 64). Over pipes the example also prints the largest worker's
//! peak resident memory — where H-WTopk's split state lives — and the
//! pair bytes and frames that crossed the pipes.

use std::time::Instant;
use wavelet_hist::builders::{
    BasicS, HWTopk, HistogramBuilder, ImprovedS, SendCoef, SendV, TwoLevelS,
};
use wavelet_hist::data::worldcup::WORLDCUP_RECORD_BYTES;
use wavelet_hist::data::{DatasetBuilder, Distribution};
use wavelet_hist::mapreduce::metrics::human_bytes;
use wavelet_hist::mapreduce::{ClusterConfig, EngineConfig, EngineMode};
use wavelet_hist::wavelet::Domain;

const LOG_U: u32 = 29;
const SPLITS: u32 = 64;
const K: usize = 30;
const USAGE: &str = "usage: paper_scale [hwtopk|sendv|sendcoef|twolevel|basic|improved] [log_n] \
                     [inproc | pipes [workers]]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = match args.get(2).map(String::as_str) {
        None | Some("inproc") => EngineConfig::pipelined(),
        Some("pipes") => match args.get(3).map(|s| s.parse()) {
            None => EngineConfig::multi_process(),
            Some(Ok(w)) if (1..=SPLITS as usize).contains(&w) => {
                EngineConfig::multi_process().with_map_parallelism(w)
            }
            Some(_) => fail(&format!("workers must be 1..={SPLITS}, got {:?}", args[3])),
        },
        Some(other) => fail(&format!("unknown engine {other:?}")),
    };
    let pipes = engine.mode == EngineMode::MultiProcess;
    if args.len() > if pipes { 4 } else { 3 } {
        fail("too many arguments");
    }
    let builder: Box<dyn HistogramBuilder> = match args.first().map_or("hwtopk", String::as_str) {
        "hwtopk" => Box::new(HWTopk::new().with_engine(engine)),
        "sendv" => Box::new(SendV::new().with_engine(engine)),
        "twolevel" => Box::new(TwoLevelS::new(1e-4, 42).with_engine(engine)),
        "sendcoef" => Box::new(SendCoef::new().with_engine(engine)),
        "basic" => Box::new(BasicS::new(1e-4, 42).with_engine(engine)),
        "improved" => Box::new(ImprovedS::new(1e-4, 42).with_engine(engine)),
        other => fail(&format!("unknown builder {other:?}")),
    };
    let log_n: u32 = match args.get(1).map(|s| s.parse()) {
        None => 20,
        Some(Ok(v)) if v <= 40 => v,
        Some(_) => fail(&format!("log_n must be an integer ≤ 40, got {:?}", args[1])),
    };

    let dataset = DatasetBuilder::new()
        .domain(Domain::new(LOG_U).expect("valid log_u"))
        .distribution(Distribution::WorldCup)
        .records(1 << log_n)
        .splits(SPLITS)
        .record_bytes(WORLDCUP_RECORD_BYTES)
        .seed(0x98)
        .build();
    let cluster = ClusterConfig::single_machine();

    let start = Instant::now();
    let result = builder.build(&dataset, &cluster, K);
    let wall_s = start.elapsed().as_secs_f64();

    println!(
        "{}: n = 2^{log_n}, u = 2^{LOG_U}, m = {SPLITS}, k = {K}",
        builder.name()
    );
    println!("  wall time  {wall_s:.2} s");
    // The reduce side, from the engine's per-partition record: the
    // phase's wall (Close included), the partitions' own seconds summed
    // over threads, and how many took each route.
    let parts = &result.metrics.reduce_partitions;
    println!(
        "  reduce     {:.3} s wall, {:.3} s in {} partitions ({})",
        result.metrics.wall_reduce_s,
        parts.iter().map(|p| p.wall_s).sum::<f64>(),
        parts.len(),
        result.metrics.reduce_strategies,
    );
    println!(
        "  comm       {} ({} B)",
        human_bytes(result.metrics.total_comm_bytes()),
        result.metrics.total_comm_bytes()
    );
    if pipes {
        let wire = result.metrics.wire;
        println!("  engine     pipes, {} workers", wire.workers);
        println!("  peak RSS   {} (coordinator)", peak_rss());
        println!("  worker RSS {} (largest worker)", largest_child_peak_rss());
        println!(
            "  wire       {} B of pairs in {} frames",
            wire.pair_bytes, wire.frames
        );
    } else {
        println!("  peak RSS   {}", peak_rss());
    }
    println!("  retained   {} coefficients", result.histogram.len());
}

/// The process's peak resident set (`VmHWM`), where `/proc` reports it.
fn peak_rss() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(format!("{:.1} MB", kb as f64 / 1024.0))
        })
        .unwrap_or_else(|| "n/a".to_string())
}

/// The largest peak resident set among the reaped child processes — the
/// map workers, once a multi-process build returns — from
/// `getrusage(RUSAGE_CHILDREN)`'s `ru_maxrss`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn largest_child_peak_rss() -> String {
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    // `struct rusage` on 64-bit Linux is 18 longs: two `timeval`s of two
    // longs each, then `ru_maxrss` in KB, then 13 more counters.
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is 144 writable, aligned bytes, the size of
    // `struct rusage` here, and getrusage(2) writes only that struct.
    if unsafe { getrusage(RUSAGE_CHILDREN, usage.as_mut_ptr()) } != 0 {
        return "n/a".to_string();
    }
    format!("{:.1} MB", usage[4] as f64 / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn largest_child_peak_rss() -> String {
    "n/a".to_string()
}

fn fail(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    std::process::exit(2)
}
