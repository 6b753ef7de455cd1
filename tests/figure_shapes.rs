//! Shape tests: the paper's qualitative findings must hold on a reduced
//! experiment context. These are the guardrails that keep future changes to
//! the simulator or the models from silently breaking the reproduction.
//!
//! The reports themselves are pinned to the byte: the FNV-1a-64 digest of
//! each figure's `report()` must match `tests/fixtures/figure_digests.txt`.
//! A change that moves a report on purpose regenerates the file — the
//! failure message prints the replacement — and names the figures it
//! re-baselines. Each figure is computed once and shared by every test.

use gaugur_bench::figures::{fig10::Fig10, fig7::Fig7, fig8::Fig8, fig9::Fig9};
use gaugur_bench::ExperimentContext;
use gaugur_core::Algorithm;
use std::sync::OnceLock;

const GOLDEN: &str = include_str!("fixtures/figure_digests.txt");

/// A mid-size context: big enough for stable orderings, small enough for CI.
fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::with_scale(7, 60, 250, 60, 60, 240))
}

fn fig7() -> &'static Fig7 {
    static FIG: OnceLock<Fig7> = OnceLock::new();
    FIG.get_or_init(|| Fig7::run(ctx()))
}

fn fig8() -> &'static Fig8 {
    static FIG: OnceLock<Fig8> = OnceLock::new();
    FIG.get_or_init(|| Fig8::run(ctx()))
}

fn fig9() -> &'static Fig9 {
    static FIG: OnceLock<Fig9> = OnceLock::new();
    FIG.get_or_init(|| Fig9::run(ctx()))
}

fn fig10() -> &'static Fig10 {
    static FIG: OnceLock<Fig10> = OnceLock::new();
    FIG.get_or_init(|| Fig10::run(ctx()))
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn figure_reports_match_the_pinned_digests() {
    let reports = [
        ("fig7", fig7().report()),
        ("fig8", fig8().report()),
        ("fig9", fig9().report()),
        ("fig10", fig10().report()),
    ];
    let computed: String = reports
        .iter()
        .map(|(name, report)| format!("{name}: {:016x}\n", fnv1a64(report.as_bytes())))
        .collect();
    assert_eq!(
        computed, GOLDEN,
        "a figure report changed bytes; if that is intended, replace \
         tests/fixtures/figure_digests.txt with:\n{computed}"
    );
}

#[test]
fn fig7_gaugur_beats_both_baselines_and_data_helps() {
    let fig = fig7();

    // The paper's headline ordering: GAugur(RM) ≪ Sigmoid and SMiTe.
    let gaugur = fig.overall_error("GAugur(RM)");
    let sigmoid = fig.overall_error("Sigmoid");
    let smite = fig.overall_error("SMiTe");
    assert!(gaugur < 0.25, "GAugur error {gaugur}");
    assert!(
        gaugur * 1.3 < sigmoid,
        "GAugur {gaugur} vs Sigmoid {sigmoid}"
    );
    assert!(gaugur * 1.2 < smite, "GAugur {gaugur} vs SMiTe {smite}");

    // More training data must not hurt much (paper Fig 7a trend).
    let at_min = fig.error_at(400, Algorithm::GradientBoosting);
    let at_max = fig.error_at(1000, Algorithm::GradientBoosting);
    assert!(at_max <= at_min * 1.05, "{at_min} → {at_max}");

    // Error CDF dominance at the median.
    let med = |name: &str| {
        fig.cdfs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.quantile(0.5))
            .unwrap()
    };
    assert!(med("GAugur(RM)") < med("Sigmoid"));
    assert!(med("GAugur(RM)") < med("SMiTe"));
}

#[test]
fn fig8_classification_shapes_hold() {
    let fig = fig8();

    // GBDT is the best family at full data, at both QoS levels.
    for qos in [60.0, 50.0] {
        let gbdt = fig.accuracy_at(qos, 1000, Algorithm::GradientBoosting);
        assert!(gbdt > 0.85, "GBDT accuracy {gbdt} at QoS {qos}");
        for algo in [Algorithm::DecisionTree, Algorithm::Svm] {
            assert!(
                gbdt + 1e-9 >= fig.accuracy_at(qos, 1000, algo) - 0.02,
                "GBDT should be at least on par with {algo:?} at QoS {qos}"
            );
        }
    }

    // Both GAugur variants beat both baselines overall.
    let cm = fig.overall_accuracy("GAugur(CM)");
    let rm = fig.overall_accuracy("GAugur(RM)");
    let sigmoid = fig.overall_accuracy("Sigmoid");
    assert!(cm > sigmoid, "CM {cm} vs Sigmoid {sigmoid}");
    assert!(rm > sigmoid, "RM {rm} vs Sigmoid {sigmoid}");
}

#[test]
fn fig9_gaugur_identifies_feasible_colocations_better() {
    let fig = fig9();

    let cm = fig.confusion("GAugur(CM)");
    let sigmoid = fig.confusion("Sigmoid");
    assert!(cm.accuracy() > 0.85, "CM accuracy {}", cm.accuracy());
    assert!(
        cm.recall() > sigmoid.recall(),
        "CM recall {} vs Sigmoid {}",
        cm.recall(),
        sigmoid.recall()
    );

    // Colocation always beats dedicated servers by a wide margin.
    for qos in [60.0, 50.0] {
        let servers = fig.servers_used(qos, "GAugur(CM)");
        assert!(
            (servers as f64) < 0.8 * fig.no_colocation_servers as f64,
            "QoS {qos}: {servers} servers"
        );
    }
}

/// GAugur ahead of every baseline — SMiTe, Sigmoid and VBP — in every
/// cell, with no slack. On this context the closest cell is SMiTe at 2 500
/// servers, 121.65 against 123.95 FPS.
#[test]
fn fig10_gaugur_wins_at_every_fleet_size() {
    let fig = fig10();
    for &n in &gaugur_bench::figures::fig10::FLEET_SWEEP {
        let g = fig.avg_fps(n, "GAugur(RM)");
        let baselines = ["SMiTe", "Sigmoid", "VBP"];
        let rows = fig.average_fps.iter().filter(|(m, ..)| *m == n).count();
        assert_eq!(rows, 1 + baselines.len(), "{n} servers: methodologies");
        for name in baselines {
            let b = fig.avg_fps(n, name);
            assert!(g > b, "{n} servers: GAugur {g} vs {name} {b}");
        }
    }
    // Larger fleets help everyone.
    assert!(fig.avg_fps(3000, "GAugur(RM)") > fig.avg_fps(1500, "GAugur(RM)"));
    assert!(fig.avg_fps(3000, "VBP") > fig.avg_fps(1500, "VBP"));
}
