//! The sweeps behind the figures of §5. Eleven sweeps feed the fifteen
//! figures: Figs. 5/6, 7/8, 14/15 and 17/18 are two views — cost and
//! quality — of the same builds, so [`Sweeps`] runs each sweep once per
//! process and a figure id only selects which rows and columns it shows.
//! The `figures` binary prints and persists the rows.

use wh_core::builders::{
    BasicS, HWTopk, HistogramBuilder, ImprovedS, SendCoef, SendSketch, SendV, TwoLevelS,
};
use wh_core::evaluate::Evaluator;
use wh_data::Dataset;
use wh_mapreduce::ClusterConfig;
use wh_sketch::GcsParams;

use crate::defaults::Defaults;
use crate::table::Row;

/// The parameter a sweep varies (or, for the last two, the dataset it
/// runs the cost-vs-SSE sweep on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    K,
    Epsilon,
    CostVsSse,
    Records,
    RecordBytes,
    Domain,
    Splits,
    Skew,
    Bandwidth,
    WorldCup,
    WorldCupCostVsSse,
}

/// Every figure in paper order: its id, the sweep it reads, and whether
/// it reports quality (the SSE column and the reference rows) or cost only.
const FIGURES: [(&str, Sweep, bool); 15] = [
    ("fig5", Sweep::K, false),
    ("fig6", Sweep::K, true),
    ("fig7", Sweep::Epsilon, true),
    ("fig8", Sweep::Epsilon, false),
    ("fig9", Sweep::CostVsSse, true),
    ("fig10", Sweep::Records, false),
    ("fig11", Sweep::RecordBytes, false),
    ("fig12", Sweep::Domain, false),
    ("fig13", Sweep::Splits, false),
    ("fig14", Sweep::Skew, false),
    ("fig15", Sweep::Skew, true),
    ("fig16", Sweep::Bandwidth, false),
    ("fig17", Sweep::WorldCup, false),
    ("fig18", Sweep::WorldCup, true),
    ("fig19", Sweep::WorldCupCostVsSse, true),
];

/// All known figure ids, in paper order.
pub fn figure_ids() -> impl Iterator<Item = &'static str> {
    FIGURES.iter().map(|&(id, ..)| id)
}

/// The sweeps already run under one set of [`Defaults`].
pub struct Sweeps {
    d: Defaults,
    done: Vec<(Sweep, Vec<Row>)>,
}

impl Sweeps {
    /// No sweep run yet.
    pub fn new(d: Defaults) -> Self {
        Self {
            d,
            done: Vec::new(),
        }
    }

    /// The rows of `figure`, running its sweep unless an earlier figure
    /// already did.
    ///
    /// # Panics
    ///
    /// Panics on an id [`figure_ids`] does not list.
    pub fn figure(&mut self, figure: &str) -> Vec<Row> {
        let &(id, sweep, quality) = FIGURES
            .iter()
            .find(|&&(id, ..)| id == figure)
            .unwrap_or_else(|| panic!("unknown figure id {figure:?}"));
        let at = self
            .done
            .iter()
            .position(|&(s, _)| s == sweep)
            .unwrap_or_else(|| {
                self.done.push((sweep, run_sweep(sweep, &self.d)));
                self.done.len() - 1
            });
        let rows = &self.done[at].1;
        // A cost figure drops the reference rows (they carry no cost) and
        // the SSE column; a quality figure shows the sweep as it is.
        rows.iter()
            .filter(|r| quality || r.comm_bytes != 0 || r.time_s != 0.0)
            .map(|r| Row {
                figure: id.into(),
                sse: r.sse.filter(|_| quality),
                ..r.clone()
            })
            .collect()
    }
}

fn run_sweep(sweep: Sweep, d: &Defaults) -> Vec<Row> {
    match sweep {
        Sweep::K => sweep_k(d),
        Sweep::Epsilon => sweep_epsilon(d),
        Sweep::CostVsSse => fig9_like(&d.dataset(), d),
        Sweep::Records => sweep_records(d),
        Sweep::RecordBytes => sweep_record_bytes(d),
        Sweep::Domain => sweep_domain(d),
        Sweep::Splits => sweep_splits(d),
        Sweep::Skew => sweep_skew(d),
        Sweep::Bandwidth => sweep_bandwidth(d),
        Sweep::WorldCup => sweep_worldcup(d),
        Sweep::WorldCupCostVsSse => fig9_like(&d.worldcup(), d),
    }
}

/// The paper's five standard series at sampling error `epsilon` (§5
/// defaults; Send-Coef only appears in fig12).
fn standard_builders(epsilon: f64, seed: u64) -> Vec<Box<dyn HistogramBuilder>> {
    vec![
        Box::new(SendV::new()),
        Box::new(HWTopk::new()),
        Box::new(SendSketch::new(seed)),
        Box::new(ImprovedS::new(epsilon, seed)),
        Box::new(TwoLevelS::new(epsilon, seed)),
    ]
}

/// The two samplers of [`standard_builders`] — the series of the ε sweeps.
fn samplers(epsilon: f64, seed: u64) -> Vec<Box<dyn HistogramBuilder>> {
    standard_builders(epsilon, seed).split_off(3)
}

/// Builds every builder at one x-position of a sweep: one row each.
fn measure(
    builders: &[Box<dyn HistogramBuilder>],
    ds: &Dataset,
    cluster: &ClusterConfig,
    k: usize,
    x_label: &str,
    x: f64,
    eval: Option<&Evaluator>,
) -> Vec<Row> {
    builders
        .iter()
        .map(|b| {
            let r = b.build(ds, cluster, k);
            Row {
                figure: String::new(),
                series: b.name().into(),
                x_label: x_label.into(),
                x,
                comm_bytes: r.metrics.total_comm_bytes(),
                time_s: r.metrics.sim_time_s,
                sse: eval.map(|e| e.sse(&r.histogram)),
            }
        })
        .collect()
}

/// A quality reference at one x-position: an SSE with no cost attached.
fn reference(series: &str, x_label: &str, x: f64, sse: f64) -> Row {
    Row {
        figure: String::new(),
        series: series.into(),
        x_label: x_label.into(),
        x,
        comm_bytes: 0,
        time_s: 0.0,
        sse: Some(sse),
    }
}

/// Figs. 5–6: communication, running time and SSE vs k ∈ {10..50}, with
/// the ideal SSE as reference.
fn sweep_k(d: &Defaults) -> Vec<Row> {
    let ds = d.dataset();
    let cluster = d.cluster();
    let eval = Evaluator::new(&ds);
    let builders = standard_builders(d.epsilon, d.seed);
    let mut rows = Vec::new();
    for k in [10usize, 20, 30, 40, 50] {
        let label = format!("k={k}");
        rows.extend(measure(
            &builders,
            &ds,
            &cluster,
            k,
            &label,
            k as f64,
            Some(&eval),
        ));
        rows.push(reference("Ideal-SSE", &label, k as f64, eval.ideal_sse(k)));
    }
    rows
}

/// ε sweep used by Figs. 7–9 — scaled from the paper's 10⁻⁵..10⁻¹ so the
/// sample stays a sane fraction of the scaled n.
fn epsilon_sweep(d: &Defaults) -> Vec<f64> {
    [0.25, 1.0, 4.0, 16.0, 64.0]
        .iter()
        .map(|f| d.epsilon * f)
        .collect()
}

/// Figs. 7–8: SSE, communication and running time vs ε for the samplers
/// (H-WTopk's ideal SSE as reference).
fn sweep_epsilon(d: &Defaults) -> Vec<Row> {
    let ds = d.dataset();
    let cluster = d.cluster();
    let eval = Evaluator::new(&ds);
    let exact = eval.sse(&HWTopk::new().build(&ds, &cluster, d.k).histogram);
    let mut rows = Vec::new();
    for eps in epsilon_sweep(d) {
        let label = format!("eps={eps:.1e}");
        rows.push(reference("H-WTopk", &label, eps, exact));
        rows.extend(measure(
            &samplers(eps, d.seed),
            &ds,
            &cluster,
            d.k,
            &label,
            eps,
            Some(&eval),
        ));
    }
    rows
}

/// Figs. 9 and 19: communication / running time **versus SSE** — sweep
/// each approximation's accuracy knob and report (SSE, cost) pairs.
fn fig9_like(ds: &Dataset, d: &Defaults) -> Vec<Row> {
    let cluster = d.cluster();
    let eval = Evaluator::new(ds);
    let at_sse = |mut row: Row| {
        row.x = row.sse.expect("measured with an evaluator");
        row
    };
    let mut rows = Vec::new();
    // Samplers: accuracy via ε.
    for eps in epsilon_sweep(d) {
        let label = format!("eps={eps:.1e}");
        let builders = samplers(eps, d.seed);
        rows.extend(
            measure(&builders, ds, &cluster, d.k, &label, 0.0, Some(&eval))
                .into_iter()
                .map(at_sse),
        );
    }
    // Sketch: accuracy via space budget (fractions of the paper default).
    let domain = ds.domain();
    for frac in [0.25f64, 1.0, 4.0] {
        let budget = (20.0 * 1024.0 * domain.log_u() as f64 * frac) as usize;
        let params = GcsParams::with_budget(domain, 8, budget, d.seed);
        let sketch: [Box<dyn HistogramBuilder>; 1] =
            [Box::new(SendSketch::new(d.seed).with_params(params))];
        let label = format!("space×{frac}");
        rows.extend(
            measure(&sketch, ds, &cluster, d.k, &label, 0.0, Some(&eval))
                .into_iter()
                .map(at_sse),
        );
    }
    rows
}

/// Fig. 10: communication and running time vs dataset size n (m grows
/// with n at fixed split size, as in the paper).
fn sweep_records(d: &Defaults) -> Vec<Row> {
    let cluster = d.cluster();
    let mut rows = Vec::new();
    for scale in [1u64, 2, 4, 8] {
        let n = d.n / 4 * scale;
        let m = (d.m as u64 / 4 * scale).max(4) as u32;
        let ds = Defaults { n, m, ..*d }.dataset();
        // Keep the sample fraction fixed as n grows (the paper fixes ε
        // while n grows; at our scale that would degenerate for small n).
        let eps = d.epsilon * ((d.n as f64) / (n as f64)).sqrt();
        let mb = ds.total_bytes() as f64 / (1 << 20) as f64;
        rows.extend(measure(
            &standard_builders(eps, d.seed),
            &ds,
            &cluster,
            d.k,
            &format!("{mb:.0}MB"),
            n as f64,
            None,
        ));
    }
    rows
}

/// Fig. 11: vary record size 4 B … 100 kB at a fixed record count; splits
/// scale with the physical bytes (the paper: 1 split at 16 MB up to 1600
/// at 400 GB).
fn sweep_record_bytes(d: &Defaults) -> Vec<Row> {
    let cluster = d.cluster();
    let n = 1 << 20; // fixed record count (paper: 2^22)
    let mut rows = Vec::new();
    for record_bytes in [4u32, 100, 1_000, 10_000, 100_000] {
        let bytes = n * u64::from(record_bytes);
        // One split per 64 MB-equivalent, clamped.
        let m = (bytes / (64 << 20)).clamp(1, 256) as u32;
        let ds = Defaults {
            n,
            m,
            record_bytes,
            ..*d
        }
        .dataset();
        let eps = (d.epsilon * ((d.n as f64) / (n as f64)).sqrt()).min(0.1);
        rows.extend(measure(
            &standard_builders(eps, d.seed),
            &ds,
            &cluster,
            d.k,
            &format!("rec={record_bytes}B"),
            record_bytes as f64,
            None,
        ));
    }
    rows
}

/// Fig. 12: vary the domain size u — the one experiment including
/// Send-Coef (which degrades with u).
fn sweep_domain(d: &Defaults) -> Vec<Row> {
    let cluster = d.cluster();
    let mut builders = standard_builders(d.epsilon, d.seed);
    builders.push(Box::new(SendCoef::new()));
    let mut rows = Vec::new();
    for log_u in [10u32, 12, 14, 16, 18, 20] {
        let ds = Defaults { log_u, ..*d }.dataset();
        rows.extend(measure(
            &builders,
            &ds,
            &cluster,
            d.k,
            &format!("log2u={log_u}"),
            log_u as f64,
            None,
        ));
    }
    rows
}

/// Fig. 13: vary the split size β (m = n·rec/β at fixed n).
fn sweep_splits(d: &Defaults) -> Vec<Row> {
    let cluster = d.cluster();
    let builders = standard_builders(d.epsilon, d.seed);
    let mut rows = Vec::new();
    // Sweep m by powers of two: β doubles as m halves.
    for m in [d.m * 4, d.m * 2, d.m, d.m / 2] {
        let ds = Defaults { m, ..*d }.dataset();
        let beta_mb = ds.total_bytes() as f64 / m as f64 / (1 << 20) as f64;
        rows.extend(measure(
            &builders,
            &ds,
            &cluster,
            d.k,
            &format!("m={m}"),
            beta_mb,
            None,
        ));
    }
    rows
}

/// Figs. 14–15: communication, running time and SSE vs skew
/// α ∈ {0.8, 1.1, 1.4}.
fn sweep_skew(d: &Defaults) -> Vec<Row> {
    let cluster = d.cluster();
    let builders = standard_builders(d.epsilon, d.seed);
    let mut rows = Vec::new();
    for alpha in [0.8f64, 1.1, 1.4] {
        let ds = Defaults { alpha, ..*d }.dataset();
        let eval = Evaluator::new(&ds);
        rows.extend(measure(
            &builders,
            &ds,
            &cluster,
            d.k,
            &format!("alpha={alpha}"),
            alpha,
            Some(&eval),
        ));
    }
    rows
}

/// Fig. 16: running time vs available bandwidth B ∈ {10%..100%}.
fn sweep_bandwidth(d: &Defaults) -> Vec<Row> {
    let ds = d.dataset();
    let builders = standard_builders(d.epsilon, d.seed);
    let mut rows = Vec::new();
    for pct in [10u32, 25, 50, 75, 100] {
        let mut cluster = d.cluster();
        cluster.bandwidth_fraction = pct as f64 / 100.0;
        rows.extend(measure(
            &builders,
            &ds,
            &cluster,
            d.k,
            &format!("B={pct}%"),
            pct as f64,
            None,
        ));
    }
    rows
}

/// Figs. 17–18: communication, running time and SSE on the WorldCup
/// dataset, with the ideal SSE as reference.
fn sweep_worldcup(d: &Defaults) -> Vec<Row> {
    let ds = d.worldcup();
    let eval = Evaluator::new(&ds);
    let mut rows = measure(
        &standard_builders(d.epsilon, d.seed),
        &ds,
        &d.cluster(),
        d.k,
        "worldcup",
        0.0,
        Some(&eval),
    );
    rows.push(reference("Ideal-SSE", "worldcup", 0.0, eval.ideal_sse(d.k)));
    rows
}

/// The Basic-S combiner ablation: pairs emitted with and without the
/// Combine function.
pub fn ablation_combiner(d: &Defaults) -> Vec<Row> {
    let ds = d.dataset();
    let cluster = d.cluster();
    let mut rows = Vec::new();
    for (label, b) in [
        ("with-combine", BasicS::new(d.epsilon, d.seed)),
        ("no-combine", BasicS::new(d.epsilon, d.seed).combined(false)),
    ] {
        let r = b.build(&ds, &cluster, d.k);
        rows.push(Row {
            figure: "ablation-combiner".into(),
            series: format!("Basic-S ({label})"),
            x_label: label.into(),
            x: 0.0,
            comm_bytes: r.metrics.total_comm_bytes(),
            time_s: r.metrics.sim_time_s,
            sse: None,
        });
    }
    rows
}

/// The √m ablation: sweep the second-level threshold exponent
/// γ in `1/(ε·m^γ)` and report communication and SSE. γ = ½ — the paper's
/// choice — should sit on the communication/quality knee.
pub fn ablation_threshold_exponent(d: &Defaults) -> Vec<Row> {
    let ds = d.dataset();
    let cluster = d.cluster();
    let eval = Evaluator::new(&ds);
    let mut rows = Vec::new();
    for gamma in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        // Average SSE over a few seeds; communication from the first run.
        let mut sse = 0.0;
        let mut comm = 0;
        let runs = 3;
        for s in 0..runs {
            let b = TwoLevelS::new(d.epsilon, d.seed + s).with_threshold_exponent(gamma);
            let r = b.build(&ds, &cluster, d.k);
            if s == 0 {
                comm = r.metrics.total_comm_bytes();
            }
            sse += eval.sse(&r.histogram);
        }
        rows.push(Row {
            figure: "ablation-threshold".into(),
            series: format!("TwoLevel-S γ={gamma}"),
            x_label: format!("gamma={gamma}"),
            x: gamma,
            comm_bytes: comm,
            time_s: 0.0,
            sse: Some(sse / runs as f64),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Defaults {
        Defaults::quick()
    }

    fn figure(id: &str) -> Vec<Row> {
        Sweeps::new(quick()).figure(id)
    }

    #[test]
    fn fig5_shapes_hold_at_quick_scale() {
        let rows = figure("fig5");
        // 5 series × 5 k-values.
        assert_eq!(rows.len(), 25);
        // At every k: TwoLevel-S communicates less than Send-V by a lot.
        for k in [10.0, 30.0, 50.0] {
            let get = |name: &str| {
                rows.iter()
                    .find(|r| r.series == name && r.x == k)
                    .expect("row present")
                    .comm_bytes
            };
            assert!(get("TwoLevel-S") * 10 < get("Send-V"), "k={k}");
            // H-WTopk's pruning needs k ≪ u; at the quick scale (u = 2¹²)
            // k = 50 is out of proportion, so only check the sane regime.
            if k <= 30.0 {
                assert!(get("H-WTopk") < get("Send-V"), "k={k}");
            }
        }
    }

    #[test]
    fn fig6_exact_matches_ideal() {
        let rows = figure("fig6");
        for k in [10.0, 50.0] {
            let sse = |name: &str| {
                rows.iter()
                    .find(|r| r.series == name && r.x == k)
                    .and_then(|r| r.sse)
                    .expect("sse present")
            };
            let ideal = sse("Ideal-SSE");
            assert!((sse("H-WTopk") - ideal).abs() <= 1e-6 * ideal.max(1.0));
            assert!(sse("TwoLevel-S") >= ideal * 0.999);
        }
    }

    #[test]
    fn fig8_costs_fall_with_growing_epsilon() {
        let rows = figure("fig8");
        let two: Vec<&Row> = rows.iter().filter(|r| r.series == "TwoLevel-S").collect();
        assert!(two.len() >= 3);
        // Communication decreases as ε increases.
        assert!(two.first().expect("rows").comm_bytes > two.last().expect("rows").comm_bytes);
    }

    #[test]
    fn fig12_send_coef_degrades_with_u() {
        let rows = figure("fig12");
        let coef: Vec<u64> = rows
            .iter()
            .filter(|r| r.series == "Send-Coef")
            .map(|r| r.comm_bytes)
            .collect();
        assert!(coef.last().expect("rows") > coef.first().expect("rows"));
    }

    #[test]
    fn ablation_combiner_reduces_pairs() {
        let rows = ablation_combiner(&quick());
        assert!(rows[0].comm_bytes <= rows[1].comm_bytes);
    }
}
