//! Figure 7: regression accuracy.
//!
//! * (a) mean prediction error `|δ̃ − δ| / δ` of GAugur(RM) under four ML
//!   algorithms, sweeping the number of training samples (400–1000);
//! * (b) error breakdown by colocation size, GAugur(RM) vs Sigmoid vs SMiTe;
//! * (c) CDF of per-sample errors per methodology.
//!
//! Paper anchors: GBRT@1000 ≈ 7.9% (best of the four), Sigmoid ≈ 22.5%,
//! SMiTe ≈ 23.6%, with SMiTe degrading sharply at size 4 because intensity
//! is not additive.

use crate::context::ExperimentContext;
use crate::figures::common::{
    degradation_error, eval_records, rm_training_pool, take_dataset, EvalRecord,
};
use crate::table::{pct, Table};
use gaugur_baselines::InterferencePredictor;
use gaugur_core::features::rm_features;
use gaugur_core::{Algorithm, RegressionModel, ALL_ALGORITHMS};
use gaugur_ml::metrics::Cdf;

/// Training-set sizes swept in Figure 7a.
pub const SAMPLE_SWEEP: [usize; 4] = [400, 600, 800, 1000];

/// Structured results for Figure 7.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// `(n_samples, per-algorithm error)` — Figure 7a.
    pub sweep: Vec<(usize, Vec<(Algorithm, f64)>)>,
    /// `(method, [overall, 2-games, 3-games, 4-games])` — Figure 7b.
    pub by_size: Vec<(String, [f64; 4])>,
    /// `(method, error CDF)` — Figure 7c.
    pub cdfs: Vec<(String, Cdf)>,
}

/// A GAugur RM wrapped as a degradation predictor over profiles.
struct RmPredictor<'a> {
    ctx: &'a ExperimentContext,
    model: &'a RegressionModel,
}

impl InterferencePredictor for RmPredictor<'_> {
    fn predict_degradation(
        &self,
        target: gaugur_core::Placement,
        others: &[gaugur_core::Placement],
    ) -> f64 {
        let profile = self.ctx.profiles.get(target.0);
        let intensities = self.ctx.profiles.intensities(others);
        self.model.predict(&rm_features(profile, &intensities))
    }

    fn meets_qos(
        &self,
        qos: f64,
        target: gaugur_core::Placement,
        others: &[gaugur_core::Placement],
    ) -> bool {
        let solo = self.ctx.profiles.get(target.0).solo_fps_at(target.1);
        self.predict_degradation(target, others) * solo >= qos
    }

    fn name(&self) -> &'static str {
        "GAugur(RM)"
    }
}

impl Fig7 {
    /// Run the full Figure 7 experiment.
    pub fn run(ctx: &ExperimentContext) -> Fig7 {
        let pool = rm_training_pool(ctx, 0xF167);
        let records = eval_records(ctx, &ctx.test);

        // --- 7a: algorithm × sample-count sweep -------------------------
        let sweep: Vec<(usize, Vec<(Algorithm, f64)>)> = SAMPLE_SWEEP
            .iter()
            .map(|&n| {
                let data = take_dataset(&pool, n);
                let errors: Vec<(Algorithm, f64)> = ALL_ALGORITHMS
                    .iter()
                    .map(|&algo| {
                        let model = RegressionModel::train(&data, algo, 7);
                        let rm = RmPredictor { ctx, model: &model };
                        (algo, degradation_error(&rm, &records))
                    })
                    .collect();
                (n, errors)
            })
            .collect();

        // --- 7b/7c: best model vs baselines ------------------------------
        let data = take_dataset(&pool, 1000);
        let gbrt = RegressionModel::train(&data, Algorithm::GradientBoosting, 7);
        let rm = RmPredictor { ctx, model: &gbrt };
        let (sigmoid, smite) = crate::figures::common::train_baselines(ctx);

        let methods: Vec<(&str, &dyn InterferencePredictor)> = vec![
            ("GAugur(RM)", &rm),
            ("Sigmoid", &sigmoid),
            ("SMiTe", &smite),
        ];

        let mut by_size = Vec::new();
        let mut cdfs = Vec::new();
        for (name, m) in &methods {
            let split = |pred: &dyn InterferencePredictor, size: Option<usize>| -> f64 {
                let subset: Vec<EvalRecord> = records
                    .iter()
                    .filter(|r| size.is_none_or(|s| r.size == s))
                    .cloned()
                    .collect();
                degradation_error(pred, &subset)
            };
            by_size.push((
                name.to_string(),
                [
                    split(*m, None),
                    split(*m, Some(2)),
                    split(*m, Some(3)),
                    split(*m, Some(4)),
                ],
            ));
            let errs: Vec<f64> = records
                .iter()
                .map(|r| {
                    let p = m.predict_degradation(r.target, &r.others);
                    (p - r.actual_degradation).abs() / r.actual_degradation
                })
                .collect();
            cdfs.push((name.to_string(), Cdf::new(errs)));
        }

        Fig7 {
            sweep,
            by_size,
            cdfs,
        }
    }

    /// Error of one algorithm at one training size (panics if absent).
    pub fn error_at(&self, n: usize, algo: Algorithm) -> f64 {
        self.sweep
            .iter()
            .find(|(s, _)| *s == n)
            .and_then(|(_, v)| v.iter().find(|(a, _)| *a == algo))
            .map(|(_, e)| *e)
            .expect("sweep point present")
    }

    /// Overall error of a named method in the 7b breakdown.
    pub fn overall_error(&self, method: &str) -> f64 {
        self.by_size
            .iter()
            .find(|(n, _)| n == method)
            .map(|(_, v)| v[0])
            .expect("method present")
    }

    /// Render the three panels as text.
    pub fn report(&self) -> String {
        let mut out = String::from("== Figure 7a: RM prediction error vs training samples ==\n");
        let mut t = Table::new(["samples", "DTR", "GBRT", "RF", "SVR"]);
        for (n, errs) in &self.sweep {
            let get = |a: Algorithm| {
                errs.iter()
                    .find(|(x, _)| *x == a)
                    .map(|(_, e)| pct(*e))
                    .unwrap_or_default()
            };
            t.row([
                n.to_string(),
                get(Algorithm::DecisionTree),
                get(Algorithm::GradientBoosting),
                get(Algorithm::RandomForest),
                get(Algorithm::Svm),
            ]);
        }
        out.push_str(&t.render());

        out.push_str("\n== Figure 7b: error breakdown by colocation size ==\n");
        let mut t = Table::new(["method", "overall", "2-games", "3-games", "4-games"]);
        for (name, v) in &self.by_size {
            t.row([name.clone(), pct(v[0]), pct(v[1]), pct(v[2]), pct(v[3])]);
        }
        out.push_str(&t.render());

        out.push_str("\n== Figure 7c: prediction-error CDF (quantiles) ==\n");
        let mut t = Table::new(["method", "p25", "p50", "p75", "p90", "p99"]);
        for (name, cdf) in &self.cdfs {
            t.row([
                name.clone(),
                pct(cdf.quantile(0.25)),
                pct(cdf.quantile(0.50)),
                pct(cdf.quantile(0.75)),
                pct(cdf.quantile(0.90)),
                pct(cdf.quantile(0.99)),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}
