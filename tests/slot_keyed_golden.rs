//! Golden pin of the slot-keyed builders: Send-Coef, H-WTopk and
//! Send-Sketch in 1-D, and Send-Coef and H-WTopk in 2-D on both reduce
//! routes (`[2^6]²` reduces dense, `[2^7]²` sorts at reduce), under all
//! three engine modes at one and fifteen reducers.
//!
//! Each row pins what a build returns and what it accounts: a digest of
//! the retained `(slot, value bits)`, `comm_bytes`, `shuffle_bytes`,
//! `map_output_pairs`, `rounds`, the bits of `cpu_ops` and the
//! reduce-strategy counts. The table was recorded once, on the engine
//! that still keyed these jobs with a 9-byte-encoded `WKey`, and is
//! never re-recorded: a key type is a transport detail, so changing it
//! must leave every row as it is. A mismatch prints the observed row in
//! the table's own syntax.
#![cfg(unix)]

use wavelet_hist::builders::{HWTopk, HistogramBuilder, SendCoef, SendSketch};
use wavelet_hist::data::twod::{Dataset2d, Distribution2d};
use wavelet_hist::data::{Dataset, DatasetBuilder};
use wavelet_hist::mapreduce::{ClusterConfig, EngineConfig, RunMetrics};
use wavelet_hist::wavelet::Domain;

const K: usize = 20;

/// One pinned build: `(case, digest, comm_bytes, shuffle_bytes,
/// map_output_pairs, rounds, cpu_ops bits, dense, sort)`.
type Row = (&'static str, u64, u64, u64, u64, u32, u64, u32, u32);

/// FNV-1a over the retained coefficients, slot then value bits.
fn digest(coefficients: &[(u64, f64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(slot, value) in coefficients {
        for word in [slot, value.to_bits()] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn row(case: &'static str, coefficients: &[(u64, f64)], m: &RunMetrics) -> Row {
    (
        case,
        digest(coefficients),
        m.total_comm_bytes(),
        m.shuffle_bytes,
        m.map_output_pairs,
        m.rounds,
        m.cpu_ops.to_bits(),
        m.reduce_strategies.dense_reduce,
        m.reduce_strategies.sort_at_reduce,
    )
}

fn modes() -> [(&'static str, EngineConfig); 3] {
    [
        ("pipelined", EngineConfig::pipelined()),
        ("reference", EngineConfig::reference()),
        ("multi_process", EngineConfig::multi_process()),
    ]
}

fn dataset_1d() -> Dataset {
    DatasetBuilder::new()
        .domain(Domain::new(12).unwrap())
        .records(40_000)
        .splits(8)
        .seed(0x901d)
        .build()
}

fn dataset_2d(log_u: u32) -> Dataset2d {
    Dataset2d::new(
        Domain::new(log_u).unwrap(),
        Distribution2d::Correlated {
            alpha: 1.1,
            spread: 2,
        },
        24_000,
        8,
        0x901d,
    )
}

/// Every pinned build, in the table's order.
fn observe() -> Vec<Row> {
    let cluster = ClusterConfig::paper_cluster();
    let d1 = dataset_1d();
    let d2 = [(6, dataset_2d(6)), (7, dataset_2d(7))];
    let mut rows = Vec::new();
    for (mode, engine) in modes() {
        for r in [1u32, 15] {
            let engine = engine.with_reducers(r).with_map_parallelism(2);
            let case = |name: &str| -> &'static str {
                Box::leak(format!("{name}/{mode}/R{r}").into_boxed_str())
            };
            let b = SendCoef::new().with_engine(engine).build(&d1, &cluster, K);
            rows.push(row(
                case("send-coef-1d"),
                b.histogram.coefficients(),
                &b.metrics,
            ));
            let b = HWTopk::new().with_engine(engine).build(&d1, &cluster, K);
            rows.push(row(
                case("h-wtopk-1d"),
                b.histogram.coefficients(),
                &b.metrics,
            ));
            let b = SendSketch::new(3)
                .with_engine(engine)
                .build(&d1, &cluster, K);
            rows.push(row(
                case("send-sketch-1d"),
                b.histogram.coefficients(),
                &b.metrics,
            ));
            for (log_u, ds) in &d2 {
                let b = SendCoef::new().with_engine(engine).build(ds, &cluster, K);
                rows.push(row(
                    case(&format!("send-coef-2d-{log_u}")),
                    b.histogram.coefficients(),
                    &b.metrics,
                ));
                let b = HWTopk::new().with_engine(engine).build(ds, &cluster, K);
                rows.push(row(
                    case(&format!("h-wtopk-2d-{log_u}")),
                    b.histogram.coefficients(),
                    &b.metrics,
                ));
            }
        }
    }
    rows
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("send-coef-1d/pipelined/R1", 11065182582263451914, 192996, 192996, 16083, 1, 4690515882537910272, 1, 0),
    ("h-wtopk-1d/pipelined/R1", 11065182582263451914, 6140, 6048, 378, 3, 4691974745489408000, 3, 0),
    ("send-sketch-1d/pipelined/R1", 6708119252513472936, 1063404, 1063404, 88617, 1, 4711220329660284928, 1, 0),
    ("send-coef-2d-6/pipelined/R1", 16222206154409299634, 95916, 95916, 7993, 1, 4689359402463920128, 1, 0),
    ("h-wtopk-2d-6/pipelined/R1", 16222206154409299634, 5212, 5120, 320, 3, 4690129919596822528, 3, 0),
    ("send-coef-2d-7/pipelined/R1", 1803665956891815610, 211896, 211896, 17658, 1, 4693524867906011136, 0, 1),
    ("h-wtopk-2d-7/pipelined/R1", 9036593714253813085, 5224, 5136, 321, 3, 4694373845501476864, 0, 3),
    ("send-coef-1d/pipelined/R15", 11065182582263451914, 192996, 192996, 16083, 1, 4690515882537910272, 15, 0),
    ("h-wtopk-1d/pipelined/R15", 11065182582263451914, 6140, 6048, 378, 3, 4691974745489408000, 45, 0),
    ("send-sketch-1d/pipelined/R15", 6708119252513472936, 1063404, 1063404, 88617, 1, 4711220329660284928, 15, 0),
    ("send-coef-2d-6/pipelined/R15", 16222206154409299634, 95916, 95916, 7993, 1, 4689359402463920128, 15, 0),
    ("h-wtopk-2d-6/pipelined/R15", 16222206154409299634, 5212, 5120, 320, 3, 4690129919596822528, 45, 0),
    ("send-coef-2d-7/pipelined/R15", 1803665956891815610, 211896, 211896, 17658, 1, 4693524867906011136, 0, 15),
    ("h-wtopk-2d-7/pipelined/R15", 9036593714253813085, 5224, 5136, 321, 3, 4694373845501476864, 0, 45),
    ("send-coef-1d/reference/R1", 11065182582263451914, 192996, 192996, 16083, 1, 4690515882537910272, 0, 0),
    ("h-wtopk-1d/reference/R1", 11065182582263451914, 6140, 6048, 378, 3, 4691974745489408000, 0, 0),
    ("send-sketch-1d/reference/R1", 6708119252513472936, 1063404, 1063404, 88617, 1, 4711220329660284928, 0, 0),
    ("send-coef-2d-6/reference/R1", 16222206154409299634, 95916, 95916, 7993, 1, 4689359402463920128, 0, 0),
    ("h-wtopk-2d-6/reference/R1", 16222206154409299634, 5212, 5120, 320, 3, 4690129919596822528, 0, 0),
    ("send-coef-2d-7/reference/R1", 1803665956891815610, 211896, 211896, 17658, 1, 4693524867906011136, 0, 0),
    ("h-wtopk-2d-7/reference/R1", 9036593714253813085, 5224, 5136, 321, 3, 4694373845501476864, 0, 0),
    ("send-coef-1d/reference/R15", 11065182582263451914, 192996, 192996, 16083, 1, 4690515882537910272, 0, 0),
    ("h-wtopk-1d/reference/R15", 11065182582263451914, 6140, 6048, 378, 3, 4691974745489408000, 0, 0),
    ("send-sketch-1d/reference/R15", 6708119252513472936, 1063404, 1063404, 88617, 1, 4711220329660284928, 0, 0),
    ("send-coef-2d-6/reference/R15", 16222206154409299634, 95916, 95916, 7993, 1, 4689359402463920128, 0, 0),
    ("h-wtopk-2d-6/reference/R15", 16222206154409299634, 5212, 5120, 320, 3, 4690129919596822528, 0, 0),
    ("send-coef-2d-7/reference/R15", 1803665956891815610, 211896, 211896, 17658, 1, 4693524867906011136, 0, 0),
    ("h-wtopk-2d-7/reference/R15", 9036593714253813085, 5224, 5136, 321, 3, 4694373845501476864, 0, 0),
    ("send-coef-1d/multi_process/R1", 11065182582263451914, 192996, 192996, 16083, 1, 4690515882537910272, 1, 0),
    ("h-wtopk-1d/multi_process/R1", 11065182582263451914, 6140, 6048, 378, 3, 4691974745489408000, 3, 0),
    ("send-sketch-1d/multi_process/R1", 6708119252513472936, 1063404, 1063404, 88617, 1, 4711220329660284928, 1, 0),
    ("send-coef-2d-6/multi_process/R1", 16222206154409299634, 95916, 95916, 7993, 1, 4689359402463920128, 1, 0),
    ("h-wtopk-2d-6/multi_process/R1", 16222206154409299634, 5212, 5120, 320, 3, 4690129919596822528, 3, 0),
    ("send-coef-2d-7/multi_process/R1", 1803665956891815610, 211896, 211896, 17658, 1, 4693524867906011136, 0, 1),
    ("h-wtopk-2d-7/multi_process/R1", 9036593714253813085, 5224, 5136, 321, 3, 4694373845501476864, 0, 3),
    ("send-coef-1d/multi_process/R15", 11065182582263451914, 192996, 192996, 16083, 1, 4690515882537910272, 15, 0),
    ("h-wtopk-1d/multi_process/R15", 11065182582263451914, 6140, 6048, 378, 3, 4691974745489408000, 45, 0),
    ("send-sketch-1d/multi_process/R15", 6708119252513472936, 1063404, 1063404, 88617, 1, 4711220329660284928, 15, 0),
    ("send-coef-2d-6/multi_process/R15", 16222206154409299634, 95916, 95916, 7993, 1, 4689359402463920128, 15, 0),
    ("h-wtopk-2d-6/multi_process/R15", 16222206154409299634, 5212, 5120, 320, 3, 4690129919596822528, 45, 0),
    ("send-coef-2d-7/multi_process/R15", 1803665956891815610, 211896, 211896, 17658, 1, 4693524867906011136, 0, 15),
    ("h-wtopk-2d-7/multi_process/R15", 9036593714253813085, 5224, 5136, 321, 3, 4694373845501476864, 0, 45),
];

#[test]
fn slot_keyed_builds_match_the_golden_table() {
    let observed = observe();
    let mismatched: Vec<String> = observed
        .iter()
        .enumerate()
        .filter(|&(i, got)| GOLDEN.get(i) != Some(got))
        .map(|(_, got)| format!("    {got:?},"))
        .collect();
    assert!(
        mismatched.is_empty() && observed.len() == GOLDEN.len(),
        "{} of {} rows differ from the golden table; observed:\n{}",
        mismatched.len(),
        observed.len(),
        mismatched.join("\n")
    );
}
