//! One function per figure of §5. Each returns the measured [`Row`]s;
//! the `figures` binary prints and persists them.

use wh_core::builders::{
    BasicS, Centralized, HWTopk, HistogramBuilder, ImprovedS, SendCoef, SendSketch, SendV,
    TwoLevelS,
};
use wh_core::evaluate::Evaluator;
use wh_data::{Dataset, DatasetBuilder, Distribution};
use wh_mapreduce::ClusterConfig;
use wh_sketch::GcsParams;
use wh_wavelet::Domain;

use crate::defaults::Defaults;
use crate::table::Row;

/// All known figure ids, in paper order.
pub const ALL_FIGURES: [&str; 15] = [
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19",
];

/// Dispatches a figure by id.
pub fn run(figure: &str, d: &Defaults) -> Vec<Row> {
    match figure {
        "fig5" => fig5(d),
        "fig6" => fig6(d),
        "fig7" => fig7(d),
        "fig8" => fig8(d),
        "fig9" => fig9(d),
        "fig10" => fig10(d),
        "fig11" => fig11(d),
        "fig12" => fig12(d),
        "fig13" => fig13(d),
        "fig14" => fig14(d),
        "fig15" => fig15(d),
        "fig16" => fig16(d),
        "fig17" => fig17(d),
        "fig18" => fig18(d),
        "fig19" => fig19(d),
        other => panic!("unknown figure id {other:?} (known: {ALL_FIGURES:?})"),
    }
}

/// The paper's five standard series (§5 defaults; Send-Coef only appears
/// in fig12).
fn standard_builders(d: &Defaults) -> Vec<Box<dyn HistogramBuilder>> {
    vec![
        Box::new(SendV::new()),
        Box::new(HWTopk::new()),
        Box::new(SendSketch::new(d.seed)),
        Box::new(ImprovedS::new(d.epsilon, d.seed)),
        Box::new(TwoLevelS::new(d.epsilon, d.seed)),
    ]
}

#[allow(clippy::too_many_arguments)] // an internal table-row helper, not API
fn measure(
    figure: &str,
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
                figure: figure.into(),
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

/// Fig. 5: communication and running time vs k ∈ {10..50}.
pub fn fig5(d: &Defaults) -> Vec<Row> {
    let ds = d.dataset();
    let cluster = d.cluster();
    let builders = standard_builders(d);
    let mut rows = Vec::new();
    for k in [10usize, 20, 30, 40, 50] {
        rows.extend(measure(
            "fig5",
            &builders,
            &ds,
            &cluster,
            k,
            &format!("k={k}"),
            k as f64,
            None,
        ));
    }
    rows
}

/// Fig. 6: SSE vs k, including the ideal SSE.
pub fn fig6(d: &Defaults) -> Vec<Row> {
    let ds = d.dataset();
    let cluster = d.cluster();
    let eval = Evaluator::new(&ds);
    let builders = standard_builders(d);
    let mut rows = Vec::new();
    for k in [10usize, 20, 30, 40, 50] {
        rows.extend(measure(
            "fig6",
            &builders,
            &ds,
            &cluster,
            k,
            &format!("k={k}"),
            k as f64,
            Some(&eval),
        ));
        rows.push(Row {
            figure: "fig6".into(),
            series: "Ideal-SSE".into(),
            x_label: format!("k={k}"),
            x: k as f64,
            comm_bytes: 0,
            time_s: 0.0,
            sse: Some(eval.ideal_sse(k)),
        });
    }
    rows
}

/// ε sweep used by Figs. 7–8 — scaled from the paper's 10⁻⁵..10⁻¹ so the
/// sample stays a sane fraction of the scaled n.
fn epsilon_sweep(d: &Defaults) -> Vec<f64> {
    [0.25, 1.0, 4.0, 16.0, 64.0]
        .iter()
        .map(|f| d.epsilon * f)
        .collect()
}

/// Fig. 7: SSE vs ε for the samplers (H-WTopk's ideal as reference).
pub fn fig7(d: &Defaults) -> Vec<Row> {
    let ds = d.dataset();
    let cluster = d.cluster();
    let eval = Evaluator::new(&ds);
    let mut rows = Vec::new();
    let exact = HWTopk::new().build(&ds, &cluster, d.k);
    for eps in epsilon_sweep(d) {
        let label = format!("eps={eps:.1e}");
        rows.push(Row {
            figure: "fig7".into(),
            series: "H-WTopk".into(),
            x_label: label.clone(),
            x: eps,
            comm_bytes: 0,
            time_s: 0.0,
            sse: Some(eval.sse(&exact.histogram)),
        });
        let builders: Vec<Box<dyn HistogramBuilder>> = vec![
            Box::new(ImprovedS::new(eps, d.seed)),
            Box::new(TwoLevelS::new(eps, d.seed)),
        ];
        rows.extend(measure(
            "fig7",
            &builders,
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

/// Fig. 8: communication and running time vs ε for the samplers.
pub fn fig8(d: &Defaults) -> Vec<Row> {
    let ds = d.dataset();
    let cluster = d.cluster();
    let mut rows = Vec::new();
    for eps in epsilon_sweep(d) {
        let builders: Vec<Box<dyn HistogramBuilder>> = vec![
            Box::new(ImprovedS::new(eps, d.seed)),
            Box::new(TwoLevelS::new(eps, d.seed)),
        ];
        rows.extend(measure(
            "fig8",
            &builders,
            &ds,
            &cluster,
            d.k,
            &format!("eps={eps:.1e}"),
            eps,
            None,
        ));
    }
    rows
}

/// Fig. 9: communication / running time **versus SSE** — sweep each
/// approximation's accuracy knob and report (SSE, cost) pairs.
pub fn fig9(d: &Defaults) -> Vec<Row> {
    fig9_like("fig9", &d.dataset(), d)
}

fn fig9_like(figure: &str, ds: &Dataset, d: &Defaults) -> Vec<Row> {
    let cluster = d.cluster();
    let eval = Evaluator::new(ds);
    let mut rows = Vec::new();
    // Samplers: accuracy via ε.
    for eps in epsilon_sweep(d) {
        for b in [
            Box::new(ImprovedS::new(eps, d.seed)) as Box<dyn HistogramBuilder>,
            Box::new(TwoLevelS::new(eps, d.seed)),
        ] {
            let r = b.build(ds, &cluster, d.k);
            rows.push(Row {
                figure: figure.into(),
                series: b.name().into(),
                x_label: format!("eps={eps:.1e}"),
                x: eval.sse(&r.histogram),
                comm_bytes: r.metrics.total_comm_bytes(),
                time_s: r.metrics.sim_time_s,
                sse: Some(eval.sse(&r.histogram)),
            });
        }
    }
    // Sketch: accuracy via space budget (fractions of the paper default).
    let domain = ds.domain();
    for frac in [0.25f64, 1.0, 4.0] {
        let budget = (20.0 * 1024.0 * domain.log_u() as f64 * frac) as usize;
        let params = GcsParams::with_budget(domain, 8, budget, d.seed);
        let b = SendSketch::new(d.seed).with_params(params);
        let r = b.build(ds, &cluster, d.k);
        rows.push(Row {
            figure: figure.into(),
            series: "Send-Sketch".into(),
            x_label: format!("space×{frac}"),
            x: eval.sse(&r.histogram),
            comm_bytes: r.metrics.total_comm_bytes(),
            time_s: r.metrics.sim_time_s,
            sse: Some(eval.sse(&r.histogram)),
        });
    }
    rows
}

/// Fig. 10: communication and running time vs dataset size n (m grows
/// with n at fixed split size, as in the paper).
pub fn fig10(d: &Defaults) -> Vec<Row> {
    let cluster = d.cluster();
    let mut rows = Vec::new();
    for scale in [1u64, 2, 4, 8] {
        let n = d.n / 4 * scale;
        let m = (d.m as u64 / 4 * scale).max(4) as u32;
        let ds = DatasetBuilder::new()
            .domain(Domain::new(d.log_u).expect("valid"))
            .distribution(Distribution::Zipf { alpha: d.alpha })
            .records(n)
            .splits(m)
            .record_bytes(d.record_bytes)
            .seed(d.seed)
            .build();
        // Keep the sample fraction fixed as n grows (the paper fixes ε
        // while n grows; at our scale that would degenerate for small n).
        let eps = d.epsilon * ((d.n as f64) / (n as f64)).sqrt();
        let builders: Vec<Box<dyn HistogramBuilder>> = vec![
            Box::new(SendV::new()),
            Box::new(HWTopk::new()),
            Box::new(SendSketch::new(d.seed)),
            Box::new(ImprovedS::new(eps, d.seed)),
            Box::new(TwoLevelS::new(eps, d.seed)),
        ];
        let gb = ds.total_bytes() as f64 / (1 << 20) as f64;
        rows.extend(measure(
            "fig10",
            &builders,
            &ds,
            &cluster,
            d.k,
            &format!("{gb:.0}MB"),
            n as f64,
            None,
        ));
    }
    rows
}

/// Fig. 11: vary record size 4 B … 100 kB at a fixed record count; splits
/// scale with the physical bytes (the paper: 1 split at 16 MB up to 1600
/// at 400 GB).
pub fn fig11(d: &Defaults) -> Vec<Row> {
    let cluster = d.cluster();
    let n = 1 << 20; // fixed record count (paper: 2^22)
    let mut rows = Vec::new();
    for rec in [4u32, 100, 1_000, 10_000, 100_000] {
        let bytes = n * u64::from(rec);
        // One split per 64 MB-equivalent, clamped.
        let m = (bytes / (64 << 20)).clamp(1, 256) as u32;
        let ds = DatasetBuilder::new()
            .domain(Domain::new(d.log_u).expect("valid"))
            .distribution(Distribution::Zipf { alpha: d.alpha })
            .records(n)
            .splits(m)
            .record_bytes(rec)
            .seed(d.seed)
            .build();
        let eps = (d.epsilon * ((d.n as f64) / (n as f64)).sqrt()).min(0.1);
        let builders: Vec<Box<dyn HistogramBuilder>> = vec![
            Box::new(SendV::new()),
            Box::new(HWTopk::new()),
            Box::new(SendSketch::new(d.seed)),
            Box::new(ImprovedS::new(eps, d.seed)),
            Box::new(TwoLevelS::new(eps, d.seed)),
        ];
        rows.extend(measure(
            "fig11",
            &builders,
            &ds,
            &cluster,
            d.k,
            &format!("rec={rec}B"),
            rec as f64,
            None,
        ));
    }
    rows
}

/// Fig. 12: vary the domain size u — the one experiment including
/// Send-Coef (which degrades with u).
pub fn fig12(d: &Defaults) -> Vec<Row> {
    let cluster = d.cluster();
    let mut rows = Vec::new();
    for log_u in [10u32, 12, 14, 16, 18, 20] {
        let ds = DatasetBuilder::new()
            .domain(Domain::new(log_u).expect("valid"))
            .distribution(Distribution::Zipf { alpha: d.alpha })
            .records(d.n)
            .splits(d.m)
            .record_bytes(d.record_bytes)
            .seed(d.seed)
            .build();
        let mut builders = standard_builders(d);
        builders.push(Box::new(SendCoef::new()));
        rows.extend(measure(
            "fig12",
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
pub fn fig13(d: &Defaults) -> Vec<Row> {
    let cluster = d.cluster();
    let mut rows = Vec::new();
    // Sweep m by powers of two: β doubles as m halves.
    for m in [d.m * 4, d.m * 2, d.m, d.m / 2] {
        let ds = DatasetBuilder::new()
            .domain(Domain::new(d.log_u).expect("valid"))
            .distribution(Distribution::Zipf { alpha: d.alpha })
            .records(d.n)
            .splits(m)
            .record_bytes(d.record_bytes)
            .seed(d.seed)
            .build();
        let beta_mb = ds.total_bytes() as f64 / m as f64 / (1 << 20) as f64;
        let builders = standard_builders(d);
        rows.extend(measure(
            "fig13",
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

fn alpha_dataset(d: &Defaults, alpha: f64) -> Dataset {
    DatasetBuilder::new()
        .domain(Domain::new(d.log_u).expect("valid"))
        .distribution(Distribution::Zipf { alpha })
        .records(d.n)
        .splits(d.m)
        .record_bytes(d.record_bytes)
        .seed(d.seed)
        .build()
}

/// Fig. 14: communication and running time vs skew α ∈ {0.8, 1.1, 1.4}.
pub fn fig14(d: &Defaults) -> Vec<Row> {
    let cluster = d.cluster();
    let mut rows = Vec::new();
    for alpha in [0.8f64, 1.1, 1.4] {
        let ds = alpha_dataset(d, alpha);
        let builders = standard_builders(d);
        rows.extend(measure(
            "fig14",
            &builders,
            &ds,
            &cluster,
            d.k,
            &format!("alpha={alpha}"),
            alpha,
            None,
        ));
    }
    rows
}

/// Fig. 15: SSE vs skew α.
pub fn fig15(d: &Defaults) -> Vec<Row> {
    let cluster = d.cluster();
    let mut rows = Vec::new();
    for alpha in [0.8f64, 1.1, 1.4] {
        let ds = alpha_dataset(d, alpha);
        let eval = Evaluator::new(&ds);
        let builders = standard_builders(d);
        rows.extend(measure(
            "fig15",
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
pub fn fig16(d: &Defaults) -> Vec<Row> {
    let ds = d.dataset();
    let mut rows = Vec::new();
    for pct in [10u32, 25, 50, 75, 100] {
        let mut cluster = d.cluster();
        cluster.bandwidth_fraction = pct as f64 / 100.0;
        let builders = standard_builders(d);
        rows.extend(measure(
            "fig16",
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

/// Fig. 17: communication and running time on the WorldCup dataset.
pub fn fig17(d: &Defaults) -> Vec<Row> {
    let ds = d.worldcup();
    let cluster = d.cluster();
    let builders = standard_builders(d);
    measure(
        "fig17", &builders, &ds, &cluster, d.k, "worldcup", 0.0, None,
    )
}

/// Fig. 18: SSE on the WorldCup dataset.
pub fn fig18(d: &Defaults) -> Vec<Row> {
    let ds = d.worldcup();
    let cluster = d.cluster();
    let eval = Evaluator::new(&ds);
    let builders = standard_builders(d);
    let mut rows = measure(
        "fig18",
        &builders,
        &ds,
        &cluster,
        d.k,
        "worldcup",
        0.0,
        Some(&eval),
    );
    rows.push(Row {
        figure: "fig18".into(),
        series: "Ideal-SSE".into(),
        x_label: "worldcup".into(),
        x: 0.0,
        comm_bytes: 0,
        time_s: 0.0,
        sse: Some(eval.ideal_sse(d.k)),
    });
    rows
}

/// Fig. 19: communication / running time vs SSE on WorldCup.
pub fn fig19(d: &Defaults) -> Vec<Row> {
    fig9_like("fig19", &d.worldcup(), d)
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

/// Exact-oracle sanity row (not a paper figure; used by `figures all` to
/// log the centralized baseline cost).
pub fn oracle_row(d: &Defaults) -> Row {
    let ds = d.dataset();
    let r = Centralized::new().build(&ds, &d.cluster(), d.k);
    Row {
        figure: "oracle".into(),
        series: "Centralized".into(),
        x_label: "default".into(),
        x: 0.0,
        comm_bytes: r.metrics.total_comm_bytes(),
        time_s: r.metrics.sim_time_s,
        sse: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Defaults {
        Defaults::quick()
    }

    #[test]
    fn fig5_shapes_hold_at_quick_scale() {
        let rows = fig5(&quick());
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
        let rows = fig6(&quick());
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
        let rows = fig8(&quick());
        let two: Vec<&Row> = rows.iter().filter(|r| r.series == "TwoLevel-S").collect();
        assert!(two.len() >= 3);
        // Communication decreases as ε increases.
        assert!(two.first().expect("rows").comm_bytes > two.last().expect("rows").comm_bytes);
    }

    #[test]
    fn fig12_send_coef_degrades_with_u() {
        let d = quick();
        let rows = fig12(&d);
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
