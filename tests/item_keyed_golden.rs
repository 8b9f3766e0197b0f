//! Golden pin of the item-keyed builders: Send-V, Basic-S (with and
//! without in-mapper aggregation), Improved-S and TwoLevel-S, in 1-D and
//! in 2-D on both reduce routes (`[2^6]²` reduces dense, `[2^7]²` sorts
//! at reduce), under all three engine modes at one and fifteen reducers.
//!
//! Each row pins what a build returns and what it accounts: a digest of
//! the retained `(slot, value bits)`, `comm_bytes`, `shuffle_bytes`,
//! `map_output_pairs`, `rounds`, the bits of `cpu_ops` and the
//! reduce-strategy counts. The table was recorded once, on the engine
//! that still shipped these builders' counts as `u64`s wrapped with a
//! declared 4-byte width, and is never re-recorded: the in-memory type of
//! a shuffled pair is a transport detail, so changing it must leave every
//! row as it is. A mismatch prints the observed row in the table's own
//! syntax.
#![cfg(unix)]

use wavelet_hist::builders::{BasicS, HistogramBuilder, ImprovedS, SendV, TwoLevelS};
use wavelet_hist::data::twod::{Dataset2d, Distribution2d};
use wavelet_hist::data::{Dataset, DatasetBuilder};
use wavelet_hist::mapreduce::{ClusterConfig, EngineConfig, RunMetrics};
use wavelet_hist::wavelet::Domain;

const K: usize = 20;
const EPS: f64 = 0.01;
const SEED: u64 = 0x17e4;

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
        .seed(0x17e4)
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
        0x17e4,
    )
}

/// The five item-keyed builds of one dataset under `engine`, as
/// `(name, builder)`.
fn builders<S: wavelet_hist::builders::SplitSource>(
    engine: EngineConfig,
) -> Vec<(&'static str, Box<dyn HistogramBuilder<S>>)> {
    vec![
        ("send-v", Box::new(SendV::new().with_engine(engine))),
        (
            "basic-s",
            Box::new(BasicS::new(EPS, SEED).with_engine(engine)),
        ),
        (
            "basic-s-uncombined",
            Box::new(BasicS::new(EPS, SEED).combined(false).with_engine(engine)),
        ),
        (
            "improved-s",
            Box::new(ImprovedS::new(EPS, SEED).with_engine(engine)),
        ),
        (
            "two-level-s",
            Box::new(TwoLevelS::new(EPS, SEED).with_engine(engine)),
        ),
    ]
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
            for (name, b) in builders::<Dataset>(engine) {
                let b = b.build(&d1, &cluster, K);
                rows.push(row(
                    case(&format!("{name}-1d")),
                    b.histogram.coefficients(),
                    &b.metrics,
                ));
            }
            for (log_u, ds) in &d2 {
                for (name, b) in builders::<Dataset2d>(engine) {
                    let b = b.build(ds, &cluster, K);
                    rows.push(row(
                        case(&format!("{name}-2d-{log_u}")),
                        b.histogram.coefficients(),
                        &b.metrics,
                    ));
                }
            }
        }
    }
    rows
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("send-v-1d/pipelined/R1", 4572971218714612231, 71616, 71616, 8952, 1, 4687154641132060672, 1, 0),
    ("basic-s-1d/pipelined/R1", 12126258849860895282, 27472, 27472, 3434, 1, 4683961796803952640, 1, 0),
    ("basic-s-uncombined-1d/pipelined/R1", 12126258849860895282, 80000, 80000, 10000, 1, 4684413008888201216, 1, 0),
    ("improved-s-1d/pipelined/R1", 1029048240341733309, 760, 760, 95, 1, 4680285167359623168, 1, 0),
    ("two-level-s-1d/pipelined/R1", 10377294329496292268, 1152, 1152, 251, 1, 4680889074121179136, 1, 0),
    ("send-v-2d-6/pipelined/R1", 16089820763376523827, 28680, 28680, 2390, 1, 4682380080607920128, 1, 0),
    ("basic-s-2d-6/pipelined/R1", 10420003737037496778, 23268, 23268, 1939, 1, 4682868882245943296, 1, 0),
    ("basic-s-uncombined-2d-6/pipelined/R1", 10420003737037496778, 120000, 120000, 10000, 1, 4683860195057598464, 1, 0),
    ("improved-s-2d-6/pipelined/R1", 15610033434792825927, 1956, 1956, 163, 1, 4680495242800005120, 1, 0),
    ("two-level-s-2d-6/pipelined/R1", 2369768962673807469, 2356, 2356, 272, 1, 4681493805516455936, 1, 0),
    ("send-v-2d-7/pipelined/R1", 16224188481966299216, 46104, 46104, 3842, 1, 4685029491313999872, 0, 1),
    ("basic-s-2d-7/pipelined/R1", 761075518766000373, 31716, 31716, 2643, 1, 4685174008373575680, 0, 1),
    ("basic-s-uncombined-2d-7/pipelined/R1", 761075518766000373, 120000, 120000, 10000, 1, 4685679577563922432, 0, 1),
    ("improved-s-2d-7/pipelined/R1", 17228786964695110082, 1716, 1716, 143, 1, 4680537230400290816, 0, 1),
    ("two-level-s-2d-7/pipelined/R1", 12367990823239950186, 2460, 2460, 287, 1, 4682169661570154496, 0, 1),
    ("send-v-1d/pipelined/R15", 4572971218714612231, 71616, 71616, 8952, 1, 4687154641132060672, 15, 0),
    ("basic-s-1d/pipelined/R15", 12126258849860895282, 27472, 27472, 3434, 1, 4683961796803952640, 15, 0),
    ("basic-s-uncombined-1d/pipelined/R15", 12126258849860895282, 80000, 80000, 10000, 1, 4684413008888201216, 15, 0),
    ("improved-s-1d/pipelined/R15", 1029048240341733309, 760, 760, 95, 1, 4680285167359623168, 15, 0),
    ("two-level-s-1d/pipelined/R15", 10377294329496292268, 1152, 1152, 251, 1, 4680889074121179136, 15, 0),
    ("send-v-2d-6/pipelined/R15", 16089820763376523827, 28680, 28680, 2390, 1, 4682380080607920128, 15, 0),
    ("basic-s-2d-6/pipelined/R15", 10420003737037496778, 23268, 23268, 1939, 1, 4682868882245943296, 15, 0),
    ("basic-s-uncombined-2d-6/pipelined/R15", 10420003737037496778, 120000, 120000, 10000, 1, 4683860195057598464, 15, 0),
    ("improved-s-2d-6/pipelined/R15", 15610033434792825927, 1956, 1956, 163, 1, 4680495242800005120, 15, 0),
    ("two-level-s-2d-6/pipelined/R15", 2369768962673807469, 2356, 2356, 272, 1, 4681493805516455936, 15, 0),
    ("send-v-2d-7/pipelined/R15", 16224188481966299216, 46104, 46104, 3842, 1, 4685029491313999872, 0, 15),
    ("basic-s-2d-7/pipelined/R15", 761075518766000373, 31716, 31716, 2643, 1, 4685174008373575680, 0, 15),
    ("basic-s-uncombined-2d-7/pipelined/R15", 761075518766000373, 120000, 120000, 10000, 1, 4685679577563922432, 0, 15),
    ("improved-s-2d-7/pipelined/R15", 17228786964695110082, 1716, 1716, 143, 1, 4680537230400290816, 0, 15),
    ("two-level-s-2d-7/pipelined/R15", 12367990823239950186, 2460, 2460, 287, 1, 4682169661570154496, 0, 15),
    ("send-v-1d/reference/R1", 4572971218714612231, 71616, 71616, 8952, 1, 4687154641132060672, 0, 0),
    ("basic-s-1d/reference/R1", 12126258849860895282, 27472, 27472, 3434, 1, 4683961796803952640, 0, 0),
    ("basic-s-uncombined-1d/reference/R1", 12126258849860895282, 80000, 80000, 10000, 1, 4684413008888201216, 0, 0),
    ("improved-s-1d/reference/R1", 1029048240341733309, 760, 760, 95, 1, 4680285167359623168, 0, 0),
    ("two-level-s-1d/reference/R1", 10377294329496292268, 1152, 1152, 251, 1, 4680889074121179136, 0, 0),
    ("send-v-2d-6/reference/R1", 16089820763376523827, 28680, 28680, 2390, 1, 4682380080607920128, 0, 0),
    ("basic-s-2d-6/reference/R1", 10420003737037496778, 23268, 23268, 1939, 1, 4682868882245943296, 0, 0),
    ("basic-s-uncombined-2d-6/reference/R1", 10420003737037496778, 120000, 120000, 10000, 1, 4683860195057598464, 0, 0),
    ("improved-s-2d-6/reference/R1", 15610033434792825927, 1956, 1956, 163, 1, 4680495242800005120, 0, 0),
    ("two-level-s-2d-6/reference/R1", 2369768962673807469, 2356, 2356, 272, 1, 4681493805516455936, 0, 0),
    ("send-v-2d-7/reference/R1", 16224188481966299216, 46104, 46104, 3842, 1, 4685029491313999872, 0, 0),
    ("basic-s-2d-7/reference/R1", 761075518766000373, 31716, 31716, 2643, 1, 4685174008373575680, 0, 0),
    ("basic-s-uncombined-2d-7/reference/R1", 761075518766000373, 120000, 120000, 10000, 1, 4685679577563922432, 0, 0),
    ("improved-s-2d-7/reference/R1", 17228786964695110082, 1716, 1716, 143, 1, 4680537230400290816, 0, 0),
    ("two-level-s-2d-7/reference/R1", 12367990823239950186, 2460, 2460, 287, 1, 4682169661570154496, 0, 0),
    ("send-v-1d/reference/R15", 4572971218714612231, 71616, 71616, 8952, 1, 4687154641132060672, 0, 0),
    ("basic-s-1d/reference/R15", 12126258849860895282, 27472, 27472, 3434, 1, 4683961796803952640, 0, 0),
    ("basic-s-uncombined-1d/reference/R15", 12126258849860895282, 80000, 80000, 10000, 1, 4684413008888201216, 0, 0),
    ("improved-s-1d/reference/R15", 1029048240341733309, 760, 760, 95, 1, 4680285167359623168, 0, 0),
    ("two-level-s-1d/reference/R15", 10377294329496292268, 1152, 1152, 251, 1, 4680889074121179136, 0, 0),
    ("send-v-2d-6/reference/R15", 16089820763376523827, 28680, 28680, 2390, 1, 4682380080607920128, 0, 0),
    ("basic-s-2d-6/reference/R15", 10420003737037496778, 23268, 23268, 1939, 1, 4682868882245943296, 0, 0),
    ("basic-s-uncombined-2d-6/reference/R15", 10420003737037496778, 120000, 120000, 10000, 1, 4683860195057598464, 0, 0),
    ("improved-s-2d-6/reference/R15", 15610033434792825927, 1956, 1956, 163, 1, 4680495242800005120, 0, 0),
    ("two-level-s-2d-6/reference/R15", 2369768962673807469, 2356, 2356, 272, 1, 4681493805516455936, 0, 0),
    ("send-v-2d-7/reference/R15", 16224188481966299216, 46104, 46104, 3842, 1, 4685029491313999872, 0, 0),
    ("basic-s-2d-7/reference/R15", 761075518766000373, 31716, 31716, 2643, 1, 4685174008373575680, 0, 0),
    ("basic-s-uncombined-2d-7/reference/R15", 761075518766000373, 120000, 120000, 10000, 1, 4685679577563922432, 0, 0),
    ("improved-s-2d-7/reference/R15", 17228786964695110082, 1716, 1716, 143, 1, 4680537230400290816, 0, 0),
    ("two-level-s-2d-7/reference/R15", 12367990823239950186, 2460, 2460, 287, 1, 4682169661570154496, 0, 0),
    ("send-v-1d/multi_process/R1", 4572971218714612231, 71616, 71616, 8952, 1, 4687154641132060672, 1, 0),
    ("basic-s-1d/multi_process/R1", 12126258849860895282, 27472, 27472, 3434, 1, 4683961796803952640, 1, 0),
    ("basic-s-uncombined-1d/multi_process/R1", 12126258849860895282, 80000, 80000, 10000, 1, 4684413008888201216, 1, 0),
    ("improved-s-1d/multi_process/R1", 1029048240341733309, 760, 760, 95, 1, 4680285167359623168, 1, 0),
    ("two-level-s-1d/multi_process/R1", 10377294329496292268, 1152, 1152, 251, 1, 4680889074121179136, 1, 0),
    ("send-v-2d-6/multi_process/R1", 16089820763376523827, 28680, 28680, 2390, 1, 4682380080607920128, 1, 0),
    ("basic-s-2d-6/multi_process/R1", 10420003737037496778, 23268, 23268, 1939, 1, 4682868882245943296, 1, 0),
    ("basic-s-uncombined-2d-6/multi_process/R1", 10420003737037496778, 120000, 120000, 10000, 1, 4683860195057598464, 1, 0),
    ("improved-s-2d-6/multi_process/R1", 15610033434792825927, 1956, 1956, 163, 1, 4680495242800005120, 1, 0),
    ("two-level-s-2d-6/multi_process/R1", 2369768962673807469, 2356, 2356, 272, 1, 4681493805516455936, 1, 0),
    ("send-v-2d-7/multi_process/R1", 16224188481966299216, 46104, 46104, 3842, 1, 4685029491313999872, 0, 1),
    ("basic-s-2d-7/multi_process/R1", 761075518766000373, 31716, 31716, 2643, 1, 4685174008373575680, 0, 1),
    ("basic-s-uncombined-2d-7/multi_process/R1", 761075518766000373, 120000, 120000, 10000, 1, 4685679577563922432, 0, 1),
    ("improved-s-2d-7/multi_process/R1", 17228786964695110082, 1716, 1716, 143, 1, 4680537230400290816, 0, 1),
    ("two-level-s-2d-7/multi_process/R1", 12367990823239950186, 2460, 2460, 287, 1, 4682169661570154496, 0, 1),
    ("send-v-1d/multi_process/R15", 4572971218714612231, 71616, 71616, 8952, 1, 4687154641132060672, 15, 0),
    ("basic-s-1d/multi_process/R15", 12126258849860895282, 27472, 27472, 3434, 1, 4683961796803952640, 15, 0),
    ("basic-s-uncombined-1d/multi_process/R15", 12126258849860895282, 80000, 80000, 10000, 1, 4684413008888201216, 15, 0),
    ("improved-s-1d/multi_process/R15", 1029048240341733309, 760, 760, 95, 1, 4680285167359623168, 15, 0),
    ("two-level-s-1d/multi_process/R15", 10377294329496292268, 1152, 1152, 251, 1, 4680889074121179136, 15, 0),
    ("send-v-2d-6/multi_process/R15", 16089820763376523827, 28680, 28680, 2390, 1, 4682380080607920128, 15, 0),
    ("basic-s-2d-6/multi_process/R15", 10420003737037496778, 23268, 23268, 1939, 1, 4682868882245943296, 15, 0),
    ("basic-s-uncombined-2d-6/multi_process/R15", 10420003737037496778, 120000, 120000, 10000, 1, 4683860195057598464, 15, 0),
    ("improved-s-2d-6/multi_process/R15", 15610033434792825927, 1956, 1956, 163, 1, 4680495242800005120, 15, 0),
    ("two-level-s-2d-6/multi_process/R15", 2369768962673807469, 2356, 2356, 272, 1, 4681493805516455936, 15, 0),
    ("send-v-2d-7/multi_process/R15", 16224188481966299216, 46104, 46104, 3842, 1, 4685029491313999872, 0, 15),
    ("basic-s-2d-7/multi_process/R15", 761075518766000373, 31716, 31716, 2643, 1, 4685174008373575680, 0, 15),
    ("basic-s-uncombined-2d-7/multi_process/R15", 761075518766000373, 120000, 120000, 10000, 1, 4685679577563922432, 0, 15),
    ("improved-s-2d-7/multi_process/R15", 17228786964695110082, 1716, 1716, 143, 1, 4680537230400290816, 0, 15),
    ("two-level-s-2d-7/multi_process/R15", 12367990823239950186, 2460, 2460, 287, 1, 4682169661570154496, 0, 15),
];

#[test]
fn item_keyed_builds_match_the_golden_table() {
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
