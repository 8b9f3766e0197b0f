//! One builder at the paper's domain: the WorldCup shape (u = 2^29
//! `clientobject` keys, 40-byte records) in m = 64 splits, k = 30. Prints
//! wall time, communication and the process's peak resident memory, so
//! run one builder per process.
//!
//! ```text
//! cargo run --release --example paper_scale -- [builder] [log_n]
//! ```
//!
//! `builder` is one of `hwtopk` (default), `sendv`, `sendcoef`, or a
//! sampler at ε = 1e-4: `twolevel`, `basic` or `improved`; `log_n` sets
//! n = 2^log_n records (default 20).

use std::time::Instant;
use wavelet_hist::builders::{
    BasicS, HWTopk, HistogramBuilder, ImprovedS, SendCoef, SendV, TwoLevelS,
};
use wavelet_hist::data::worldcup::WORLDCUP_RECORD_BYTES;
use wavelet_hist::data::{DatasetBuilder, Distribution};
use wavelet_hist::mapreduce::metrics::human_bytes;
use wavelet_hist::mapreduce::ClusterConfig;
use wavelet_hist::wavelet::Domain;

const LOG_U: u32 = 29;
const SPLITS: u32 = 64;
const K: usize = 30;
const USAGE: &str = "usage: paper_scale [hwtopk|sendv|sendcoef|twolevel|basic|improved] [log_n]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let builder: Box<dyn HistogramBuilder> = match args.first().map_or("hwtopk", String::as_str) {
        "hwtopk" => Box::new(HWTopk::new()),
        "sendv" => Box::new(SendV::new()),
        "twolevel" => Box::new(TwoLevelS::new(1e-4, 42)),
        "sendcoef" => Box::new(SendCoef::new()),
        "basic" => Box::new(BasicS::new(1e-4, 42)),
        "improved" => Box::new(ImprovedS::new(1e-4, 42)),
        other => fail(&format!("unknown builder {other:?}")),
    };
    let log_n: u32 = match args.get(1).map(|s| s.parse()) {
        None => 20,
        Some(Ok(v)) if v <= 40 => v,
        Some(_) => fail(&format!("log_n must be an integer ≤ 40, got {:?}", args[1])),
    };
    if args.len() > 2 {
        fail("too many arguments");
    }

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
    println!(
        "  comm       {} ({} B)",
        human_bytes(result.metrics.total_comm_bytes()),
        result.metrics.total_comm_bytes()
    );
    println!("  peak RSS   {}", peak_rss());
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

fn fail(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    std::process::exit(2)
}
