//! Figure 8: classification accuracy.
//!
//! * (a) CM accuracy vs training-set size under QoS = 60 FPS for
//!   DTC/GBDT/RF/SVC;
//! * (b) the same under QoS = 50 FPS;
//! * (c) accuracy breakdown by colocation size for GAugur(CM), GAugur(RM)
//!   used as a classifier, Sigmoid and SMiTe.
//!
//! Paper anchors: GBDT@1000 ≈ 95% accuracy; CM beats RM-as-classifier;
//! Sigmoid and SMiTe sit around 80%.

use crate::context::ExperimentContext;
use crate::figures::common::{eval_records, train_baselines, EvalRecord};
use crate::table::{pct, Table};
use gaugur_baselines::InterferencePredictor;
use gaugur_core::features::{cm_features, rm_features};
use gaugur_core::{
    build_cm_samples, to_dataset, Algorithm, ClassificationModel, RegressionModel, TaggedSample,
    ALL_ALGORITHMS,
};
use gaugur_gamesim::rng::rng_for;
use rand::seq::SliceRandom;

/// Training-set sizes swept in Figures 8a/8b.
pub const SAMPLE_SWEEP: [usize; 4] = [400, 600, 800, 1000];

/// One sweep point: `(qos, n_samples, per-algorithm accuracy)`.
pub type SweepPoint = (f64, usize, Vec<(Algorithm, f64)>);

/// Structured results for Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Figures 8a/8b data.
    pub sweep: Vec<SweepPoint>,
    /// `(method, [overall, 2-games, 3-games, 4-games])` accuracies at
    /// QoS = 60 — Figure 8c.
    pub by_size: Vec<(String, [f64; 4])>,
}

fn cm_pool(ctx: &ExperimentContext, qos: f64, seed: u64) -> Vec<TaggedSample> {
    let mut pool = build_cm_samples(&ctx.profiles, &ctx.train, &[qos]);
    pool.shuffle(&mut rng_for(seed, &[0x434d_504f, qos as u64]));
    pool
}

/// Judge one record with a CM (including the solo-FPS sanity guard the
/// online predictor applies).
fn cm_judgement(
    ctx: &ExperimentContext,
    model: &ClassificationModel,
    qos: f64,
    r: &EvalRecord,
) -> bool {
    if qos > r.solo_fps {
        return false;
    }
    let profile = ctx.profiles.get(r.target.0);
    let intensities = ctx.profiles.intensities(&r.others);
    model.classify(&cm_features(qos, r.solo_fps, profile, &intensities))
}

impl Fig8 {
    /// Run the full Figure 8 experiment.
    pub fn run(ctx: &ExperimentContext) -> Fig8 {
        let records = eval_records(ctx, &ctx.test);

        // --- 8a/8b: algorithm × sample sweep at two QoS levels -----------
        let mut sweep = Vec::new();
        for &qos in &[60.0, 50.0] {
            let pool = cm_pool(ctx, qos, 0xF18);
            for &n in &SAMPLE_SWEEP {
                let data = to_dataset(&pool[..n.min(pool.len())]);
                let accs: Vec<(Algorithm, f64)> = ALL_ALGORITHMS
                    .iter()
                    .map(|&algo| {
                        let model = ClassificationModel::train(&data, algo, 8);
                        let correct = records
                            .iter()
                            .filter(|r| cm_judgement(ctx, &model, qos, r) == (r.actual_fps >= qos))
                            .count();
                        (algo, correct as f64 / records.len() as f64)
                    })
                    .collect();
                sweep.push((qos, n, accs));
            }
        }

        // --- 8c: methodology breakdown at QoS = 60 -----------------------
        let qos = 60.0;
        let pool = cm_pool(ctx, qos, 0xF18);
        let cm_data = to_dataset(&pool[..1000.min(pool.len())]);
        let cm = ClassificationModel::train(&cm_data, Algorithm::GradientBoosting, 8);

        let rm_pool = crate::figures::common::rm_training_pool(ctx, 0xF167);
        let rm_data = crate::figures::common::take_dataset(&rm_pool, 1000);
        let rm = RegressionModel::train(&rm_data, Algorithm::GradientBoosting, 7);

        let (sigmoid, smite) = train_baselines(ctx);

        let judge_rm = |r: &EvalRecord| {
            let profile = ctx.profiles.get(r.target.0);
            let intensities = ctx.profiles.intensities(&r.others);
            rm.predict(&rm_features(profile, &intensities)) * r.solo_fps >= qos
        };
        let judge_deg = |m: &dyn InterferencePredictor, r: &EvalRecord| {
            m.predict_degradation(r.target, &r.others) * r.solo_fps >= qos
        };

        type Judge<'a> = Box<dyn Fn(&EvalRecord) -> bool + 'a>;
        let methods: Vec<(&str, Judge<'_>)> = vec![
            (
                "GAugur(CM)",
                Box::new(|r: &EvalRecord| cm_judgement(ctx, &cm, qos, r)),
            ),
            ("GAugur(RM)", Box::new(judge_rm)),
            ("Sigmoid", Box::new(|r: &EvalRecord| judge_deg(&sigmoid, r))),
            ("SMiTe", Box::new(|r: &EvalRecord| judge_deg(&smite, r))),
        ];

        let mut by_size = Vec::new();
        for (name, judge) in &methods {
            let acc = |size: Option<usize>| -> f64 {
                let subset: Vec<&EvalRecord> = records
                    .iter()
                    .filter(|r| size.is_none_or(|s| r.size == s))
                    .collect();
                let correct = subset
                    .iter()
                    .filter(|r| judge(r) == (r.actual_fps >= qos))
                    .count();
                correct as f64 / subset.len().max(1) as f64
            };
            by_size.push((
                name.to_string(),
                [acc(None), acc(Some(2)), acc(Some(3)), acc(Some(4))],
            ));
        }

        Fig8 { sweep, by_size }
    }

    /// Accuracy of one algorithm at one `(qos, n)` sweep point.
    pub fn accuracy_at(&self, qos: f64, n: usize, algo: Algorithm) -> f64 {
        self.sweep
            .iter()
            .find(|(q, s, _)| *q == qos && *s == n)
            .and_then(|(_, _, v)| v.iter().find(|(a, _)| *a == algo))
            .map(|(_, acc)| *acc)
            .expect("sweep point present")
    }

    /// Overall accuracy of a named methodology in the 8c breakdown.
    pub fn overall_accuracy(&self, method: &str) -> f64 {
        self.by_size
            .iter()
            .find(|(n, _)| n == method)
            .map(|(_, v)| v[0])
            .expect("method present")
    }

    /// Render the three panels as text.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for &qos in &[60.0, 50.0] {
            let panel = if qos == 60.0 { "8a" } else { "8b" };
            out.push_str(&format!(
                "== Figure {panel}: CM accuracy vs training samples (QoS = {qos} FPS) ==\n"
            ));
            let mut t = Table::new(["samples", "DTC", "GBDT", "RF", "SVC"]);
            for (q, n, accs) in &self.sweep {
                if *q != qos {
                    continue;
                }
                let get = |a: Algorithm| {
                    accs.iter()
                        .find(|(x, _)| *x == a)
                        .map(|(_, acc)| pct(*acc))
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
            out.push('\n');
        }

        out.push_str("== Figure 8c: accuracy breakdown by colocation size (QoS = 60) ==\n");
        let mut t = Table::new(["method", "overall", "2-games", "3-games", "4-games"]);
        for (name, v) in &self.by_size {
            t.row([name.clone(), pct(v[0]), pct(v[1]), pct(v[2]), pct(v[3])]);
        }
        out.push_str(&t.render());
        out
    }
}
