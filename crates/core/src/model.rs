//! The two prediction models of paper Section 3.4, each trainable with any
//! of the paper's four algorithm families.
//!
//! * **Classification model (CM)**, Eq. (3): does game A meet the QoS floor
//!   when colocated with `{B, C, …}`?
//! * **Regression model (RM)**, Eq. (4): the exact degradation ratio
//!   `δ̃ = colocated FPS / solo FPS` of game A.

use gaugur_ml::forest::ForestParams;
use gaugur_ml::gbdt::GbdtParams;
use gaugur_ml::svm::SvmParams;
use gaugur_ml::{
    Classifier, CompiledStats, Dataset, DecisionTreeClassifier, DecisionTreeRegressor,
    GbdtClassifier, GbrtRegressor, RandomForestClassifier, RandomForestRegressor, Regressor, Rows,
    SplitTable, StandardScaler, SvmClassifier, SvmRegressor, TreeParams,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The four model families evaluated in the paper (Figures 7a, 8a/8b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Single CART tree (DTC / DTR).
    DecisionTree,
    /// Gradient boosting (GBDT / GBRT) — the paper's winner.
    GradientBoosting,
    /// Random forest (RF).
    RandomForest,
    /// Support vector machine (SVC / SVR).
    Svm,
}

/// All algorithms, in the paper's presentation order.
pub const ALL_ALGORITHMS: [Algorithm; 4] = [
    Algorithm::DecisionTree,
    Algorithm::GradientBoosting,
    Algorithm::RandomForest,
    Algorithm::Svm,
];

impl Algorithm {
    /// The paper's abbreviation for the regression flavour.
    pub fn regression_name(self) -> &'static str {
        match self {
            Algorithm::DecisionTree => "DTR",
            Algorithm::GradientBoosting => "GBRT",
            Algorithm::RandomForest => "RF",
            Algorithm::Svm => "SVR",
        }
    }

    /// The paper's abbreviation for the classification flavour.
    pub fn classification_name(self) -> &'static str {
        match self {
            Algorithm::DecisionTree => "DTC",
            Algorithm::GradientBoosting => "GBDT",
            Algorithm::RandomForest => "RF",
            Algorithm::Svm => "SVC",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Algorithm::DecisionTree => "decision tree",
            Algorithm::GradientBoosting => "gradient boosting",
            Algorithm::RandomForest => "random forest",
            Algorithm::Svm => "SVM",
        })
    }
}

fn tree_params(seed: u64) -> TreeParams {
    TreeParams {
        max_depth: 12,
        min_samples_split: 12,
        min_samples_leaf: 6,
        max_features: None,
        seed,
    }
}

fn forest_params(seed: u64) -> ForestParams {
    ForestParams {
        n_trees: 120,
        tree: TreeParams {
            max_depth: 14,
            min_samples_split: 4,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
        },
        max_features: None,
        seed,
    }
}

fn gbdt_params(seed: u64) -> GbdtParams {
    GbdtParams {
        n_estimators: 400,
        learning_rate: 0.06,
        max_depth: 5,
        min_samples_leaf: 3,
        subsample: 0.9,
        seed,
    }
}

fn svm_params(seed: u64) -> SvmParams {
    SvmParams {
        // Library-default SVM settings (C = 1, wide ε-tube), as a paper
        // implementation would use off the shelf.
        c: 1.0,
        kernel: None, // default RBF for the data width
        epsilon: 0.08,
        tol: 1e-3,
        max_epochs: 30,
        seed,
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum RegInner {
    Dtr(DecisionTreeRegressor),
    Gbrt(GbrtRegressor),
    Rf(RandomForestRegressor),
    Svr(SvmRegressor),
}

/// A trained regression model (RM).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegressionModel {
    /// Which family the model belongs to.
    pub algorithm: Algorithm,
    inner: RegInner,
    scaler: Option<StandardScaler>,
    /// Physical clamp applied to predictions (degradation ratios live in
    /// `[0.01, 1.05]`; the delay extension uses a millisecond range).
    bounds: (f64, f64),
}

impl RegressionModel {
    /// Train on an RM dataset (features from
    /// [`crate::features::rm_features`], degradation-ratio targets).
    pub fn train(data: &Dataset, algorithm: Algorithm, seed: u64) -> RegressionModel {
        RegressionModel::train_with_bounds(data, algorithm, seed, (0.01, 1.05))
    }

    /// Train with custom prediction bounds (used by the interaction-delay
    /// extension, whose targets are milliseconds rather than ratios).
    pub fn train_with_bounds(
        data: &Dataset,
        algorithm: Algorithm,
        seed: u64,
        bounds: (f64, f64),
    ) -> RegressionModel {
        let (inner, scaler) = match algorithm {
            Algorithm::DecisionTree => (
                RegInner::Dtr(DecisionTreeRegressor::fit(data, tree_params(seed))),
                None,
            ),
            Algorithm::GradientBoosting => (
                RegInner::Gbrt(GbrtRegressor::fit(data, gbdt_params(seed))),
                None,
            ),
            Algorithm::RandomForest => (
                RegInner::Rf(RandomForestRegressor::fit(data, forest_params(seed))),
                None,
            ),
            Algorithm::Svm => {
                let scaler = StandardScaler::fit(data);
                let scaled = scaler.transform_dataset(data);
                (
                    RegInner::Svr(SvmRegressor::fit(&scaled, svm_params(seed))),
                    Some(scaler),
                )
            }
        };
        RegressionModel {
            algorithm,
            inner,
            scaler,
            bounds,
        }
    }

    /// Warm-start the model on fresh observations: gradient-boosted models
    /// keep their trained ensemble and continue boosting `extra_rounds`
    /// more rounds against `data`'s residuals (see
    /// [`GbrtRegressor::continue_fit`]); the other families have no
    /// incremental form, so they refit from scratch on `data` alone. The
    /// algorithm, scaler policy, and clamp bounds are preserved either way.
    ///
    /// With `extra_rounds == 0` a gradient-boosted model is returned
    /// bit-identical — the serving retrainer relies on this as its no-op
    /// baseline.
    pub fn warm_start(&self, data: &Dataset, extra_rounds: usize, seed: u64) -> RegressionModel {
        match &self.inner {
            RegInner::Gbrt(m) => RegressionModel {
                algorithm: self.algorithm,
                inner: RegInner::Gbrt(m.continue_fit(data, extra_rounds)),
                scaler: None,
                bounds: self.bounds,
            },
            _ => RegressionModel::train_with_bounds(data, self.algorithm, seed, self.bounds),
        }
    }

    /// Whether [`RegressionModel::warm_start`] continues boosting in place
    /// (gradient boosting) rather than refitting from scratch.
    pub fn supports_warm_start(&self) -> bool {
        matches!(self.inner, RegInner::Gbrt(_))
    }

    /// Predict the target for one feature vector (clamped to the model's
    /// physical bounds).
    pub fn predict(&self, x: &[f64]) -> f64 {
        let owned;
        let x = match &self.scaler {
            Some(s) => {
                owned = s.transform(x);
                owned.as_slice()
            }
            None => x,
        };
        self.clamp(self.raw_predict(x))
    }

    /// A raw prediction clamped to the model's physical bounds, as every
    /// prediction is.
    pub(crate) fn clamp(&self, raw: f64) -> f64 {
        raw.clamp(self.bounds.0, self.bounds.1)
    }

    /// The model as a [`SplitTable`] whose raw predictions equal this
    /// model's before the clamp: an unscaled GBRT whose trees all fit a
    /// table row. `None` for every other model.
    pub(crate) fn split_table(&self) -> Option<SplitTable> {
        match (&self.inner, &self.scaler) {
            (RegInner::Gbrt(m), None) => m.split_table(),
            _ => None,
        }
    }

    /// [`RegressionModel::predict`] with caller-provided scratch for the
    /// standardized copy (only the SVM family needs it); bit-identical and
    /// allocation-free once `scaled` has capacity.
    pub fn predict_into(&self, x: &[f64], scaled: &mut Vec<f64>) -> f64 {
        let raw = match &self.scaler {
            Some(s) => {
                s.transform_into(x, scaled);
                self.raw_predict(scaled)
            }
            None => self.raw_predict(x),
        };
        self.clamp(raw)
    }

    /// Batched prediction of a flat row-major batch into `out`. The tree
    /// ensembles evaluate their compiled form in row blocks; every row's
    /// result is bit-identical to [`RegressionModel::predict`] on that row.
    pub fn predict_rows(&self, rows: Rows<'_>, scaled: &mut Vec<f64>, out: &mut Vec<f64>) {
        match &self.scaler {
            Some(s) => {
                scaled.clear();
                for row in rows.iter() {
                    s.transform_extend(row, scaled);
                }
                self.raw_predict_rows(Rows::new(scaled, rows.width()), out);
            }
            None => self.raw_predict_rows(rows, out),
        }
        for v in out.iter_mut() {
            *v = self.clamp(*v);
        }
    }

    fn raw_predict(&self, x: &[f64]) -> f64 {
        match &self.inner {
            RegInner::Dtr(m) => m.predict(x),
            RegInner::Gbrt(m) => m.predict(x),
            RegInner::Rf(m) => m.predict(x),
            RegInner::Svr(m) => m.predict(x),
        }
    }

    fn raw_predict_rows(&self, rows: Rows<'_>, out: &mut Vec<f64>) {
        match &self.inner {
            RegInner::Dtr(m) => Regressor::predict_rows(m, rows, out),
            RegInner::Gbrt(m) => Regressor::predict_rows(m, rows, out),
            RegInner::Rf(m) => Regressor::predict_rows(m, rows, out),
            RegInner::Svr(m) => Regressor::predict_rows(m, rows, out),
        }
    }

    /// Size of the compiled ensemble predictions run through (for `gaugur
    /// inspect`); `None` for the families that are not tree ensembles.
    pub fn compiled_stats(&self) -> Option<CompiledStats> {
        match &self.inner {
            RegInner::Gbrt(m) => Some(m.compiled_stats()),
            RegInner::Rf(m) => Some(m.compiled_stats()),
            RegInner::Dtr(_) | RegInner::Svr(_) => None,
        }
    }

    /// Human-readable hyperparameter summary (for `gaugur inspect`).
    pub fn hyperparameters(&self) -> String {
        match &self.inner {
            RegInner::Dtr(m) => format!(
                "DTR(max_depth={}, min_samples_split={}, min_samples_leaf={})",
                m.params.max_depth, m.params.min_samples_split, m.params.min_samples_leaf
            ),
            RegInner::Gbrt(m) => format!(
                "GBRT(n_estimators={}, learning_rate={}, max_depth={}, subsample={})",
                m.params.n_estimators,
                m.params.learning_rate,
                m.params.max_depth,
                m.params.subsample
            ),
            RegInner::Rf(m) => format!(
                "RF(n_trees={}, max_depth={})",
                m.params.n_trees, m.params.tree.max_depth
            ),
            RegInner::Svr(m) => format!(
                "SVR(C={}, epsilon={}, max_epochs={})",
                m.params.c, m.params.epsilon, m.params.max_epochs
            ),
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum ClsInner {
    Dtc(DecisionTreeClassifier),
    Gbdt(GbdtClassifier),
    Rf(RandomForestClassifier),
    Svc(SvmClassifier),
}

/// A trained classification model (CM).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassificationModel {
    /// Which family the model belongs to.
    pub algorithm: Algorithm,
    inner: ClsInner,
    scaler: Option<StandardScaler>,
}

impl ClassificationModel {
    /// Train on a CM dataset (features from
    /// [`crate::features::cm_features`], `{0, 1}` targets).
    pub fn train(data: &Dataset, algorithm: Algorithm, seed: u64) -> ClassificationModel {
        let (inner, scaler) = match algorithm {
            Algorithm::DecisionTree => (
                ClsInner::Dtc(DecisionTreeClassifier::fit(data, tree_params(seed))),
                None,
            ),
            Algorithm::GradientBoosting => (
                ClsInner::Gbdt(GbdtClassifier::fit(data, gbdt_params(seed))),
                None,
            ),
            Algorithm::RandomForest => (
                ClsInner::Rf(RandomForestClassifier::fit(data, forest_params(seed))),
                None,
            ),
            Algorithm::Svm => {
                let scaler = StandardScaler::fit(data);
                let scaled = scaler.transform_dataset(data);
                (
                    ClsInner::Svc(SvmClassifier::fit(&scaled, svm_params(seed))),
                    Some(scaler),
                )
            }
        };
        ClassificationModel {
            algorithm,
            inner,
            scaler,
        }
    }

    /// Positive-class (QoS satisfied) score in `[0, 1]`.
    pub fn score(&self, x: &[f64]) -> f64 {
        let owned;
        let x = match &self.scaler {
            Some(s) => {
                owned = s.transform(x);
                owned.as_slice()
            }
            None => x,
        };
        self.raw_score(x)
    }

    /// Batched scoring of a flat row-major batch into `out`; every row's
    /// result is bit-identical to [`ClassificationModel::score`] on it.
    pub fn score_rows(&self, rows: Rows<'_>, scaled: &mut Vec<f64>, out: &mut Vec<f64>) {
        match &self.scaler {
            Some(s) => {
                scaled.clear();
                for row in rows.iter() {
                    s.transform_extend(row, scaled);
                }
                self.raw_score_rows(Rows::new(scaled, rows.width()), out);
            }
            None => self.raw_score_rows(rows, out),
        }
    }

    fn raw_score(&self, x: &[f64]) -> f64 {
        match &self.inner {
            ClsInner::Dtc(m) => m.score(x),
            ClsInner::Gbdt(m) => m.score(x),
            ClsInner::Rf(m) => m.score(x),
            ClsInner::Svc(m) => m.score(x),
        }
    }

    fn raw_score_rows(&self, rows: Rows<'_>, out: &mut Vec<f64>) {
        match &self.inner {
            ClsInner::Dtc(m) => Classifier::score_rows(m, rows, out),
            ClsInner::Gbdt(m) => Classifier::score_rows(m, rows, out),
            ClsInner::Rf(m) => Classifier::score_rows(m, rows, out),
            ClsInner::Svc(m) => Classifier::score_rows(m, rows, out),
        }
    }

    /// Hard decision: does the game satisfy the QoS requirement?
    pub fn classify(&self, x: &[f64]) -> bool {
        self.score(x) >= 0.5
    }

    /// Size of the compiled ensemble scores run through (for `gaugur
    /// inspect`); `None` for the families that are not tree ensembles.
    pub fn compiled_stats(&self) -> Option<CompiledStats> {
        match &self.inner {
            ClsInner::Gbdt(m) => Some(m.compiled_stats()),
            ClsInner::Rf(m) => Some(m.compiled_stats()),
            ClsInner::Dtc(_) | ClsInner::Svc(_) => None,
        }
    }

    /// Human-readable hyperparameter summary (for `gaugur inspect`).
    pub fn hyperparameters(&self) -> String {
        match &self.inner {
            ClsInner::Dtc(m) => format!(
                "DTC(max_depth={}, min_samples_split={}, min_samples_leaf={})",
                m.params.max_depth, m.params.min_samples_split, m.params.min_samples_leaf
            ),
            ClsInner::Gbdt(m) => format!(
                "GBDT(n_estimators={}, learning_rate={}, max_depth={}, subsample={})",
                m.params.n_estimators,
                m.params.learning_rate,
                m.params.max_depth,
                m.params.subsample
            ),
            ClsInner::Rf(m) => format!(
                "RF(n_trees={}, max_depth={})",
                m.params.n_trees, m.params.tree.max_depth
            ),
            ClsInner::Svc(m) => format!(
                "SVC(C={}, tol={}, max_epochs={})",
                m.params.c, m.params.tol, m.params.max_epochs
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_regression() -> Dataset {
        let features: Vec<Vec<f64>> = (0..150)
            .map(|i| vec![i as f64 / 150.0, ((i * 7) % 13) as f64 / 13.0])
            .collect();
        let targets = features.iter().map(|f| 0.2 + 0.6 * f[0] * f[1]).collect();
        Dataset::from_parts(features, targets)
    }

    fn toy_classification() -> Dataset {
        let features: Vec<Vec<f64>> = (0..150)
            .map(|i| vec![i as f64 / 150.0, ((i * 7) % 13) as f64 / 13.0])
            .collect();
        let targets = features
            .iter()
            .map(|f| f64::from(f[0] + f[1] > 1.0))
            .collect();
        Dataset::from_parts(features, targets)
    }

    #[test]
    fn every_regression_algorithm_trains_and_predicts() {
        let data = toy_regression();
        for algo in ALL_ALGORITHMS {
            let m = RegressionModel::train(&data, algo, 1);
            let p = m.predict(&[0.5, 0.5]);
            assert!(
                (p - 0.35).abs() < 0.12,
                "{algo}: predicted {p}, expected ≈ 0.35"
            );
        }
    }

    #[test]
    fn every_classification_algorithm_trains_and_predicts() {
        let data = toy_classification();
        for algo in ALL_ALGORITHMS {
            let m = ClassificationModel::train(&data, algo, 1);
            assert!(m.classify(&[0.9, 0.9]), "{algo} should accept (0.9, 0.9)");
            assert!(!m.classify(&[0.1, 0.1]), "{algo} should reject (0.1, 0.1)");
            let s = m.score(&[0.9, 0.9]);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn regression_output_is_clamped() {
        let data = Dataset::from_parts(vec![vec![0.0], vec![1.0]], vec![-5.0, 9.0]);
        let m = RegressionModel::train(&data, Algorithm::DecisionTree, 0);
        assert!(m.predict(&[0.0]) >= 0.01);
        assert!(m.predict(&[1.0]) <= 1.05);
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(Algorithm::GradientBoosting.regression_name(), "GBRT");
        assert_eq!(Algorithm::GradientBoosting.classification_name(), "GBDT");
        assert_eq!(Algorithm::Svm.regression_name(), "SVR");
        assert_eq!(Algorithm::Svm.classification_name(), "SVC");
        assert_eq!(Algorithm::DecisionTree.regression_name(), "DTR");
        assert_eq!(Algorithm::RandomForest.classification_name(), "RF");
    }

    #[test]
    fn warm_start_zero_rounds_is_bit_identical_for_gbrt() {
        let data = toy_regression();
        let m = RegressionModel::train(&data, Algorithm::GradientBoosting, 4);
        assert!(m.supports_warm_start());
        let same = m.warm_start(&data, 0, 4);
        for i in 0..20 {
            let x = [i as f64 / 20.0, (i as f64 * 0.37) % 1.0];
            assert_eq!(m.predict(&x).to_bits(), same.predict(&x).to_bits());
        }
    }

    #[test]
    fn warm_start_adapts_gbrt_to_shifted_targets() {
        let data = toy_regression();
        let shifted = Dataset::from_parts(
            data.features.clone(),
            data.targets.iter().map(|y| (y + 0.2).min(1.05)).collect(),
        );
        let m = RegressionModel::train(&data, Algorithm::GradientBoosting, 4);
        let tuned = m.warm_start(&shifted, 150, 4);
        let mae = |model: &RegressionModel| {
            shifted
                .iter()
                .map(|(x, y)| (model.predict(x) - y).abs())
                .sum::<f64>()
                / shifted.len() as f64
        };
        assert!(
            mae(&tuned) < mae(&m) * 0.5,
            "warm start must reduce error on drifted data: {} vs {}",
            mae(&tuned),
            mae(&m)
        );
    }

    #[test]
    fn warm_start_falls_back_to_refit_for_other_families() {
        let data = toy_regression();
        for algo in [
            Algorithm::DecisionTree,
            Algorithm::RandomForest,
            Algorithm::Svm,
        ] {
            let m = RegressionModel::train(&data, algo, 1);
            assert!(!m.supports_warm_start(), "{algo}");
            let refit = m.warm_start(&data, 10, 1);
            assert_eq!(refit.algorithm, algo);
            let p = refit.predict(&[0.5, 0.5]);
            assert!((p - 0.35).abs() < 0.12, "{algo}: refit predicted {p}");
        }
    }

    #[test]
    fn models_serialize_roundtrip() {
        let data = toy_regression();
        let m = RegressionModel::train(&data, Algorithm::GradientBoosting, 2);
        let json = serde_json::to_string(&m).unwrap();
        let back: RegressionModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m.predict(&[0.3, 0.7]), back.predict(&[0.3, 0.7]));
    }
}
