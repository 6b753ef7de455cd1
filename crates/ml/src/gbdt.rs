//! Gradient-boosted trees: GBRT (squared loss) for regression and GBDT
//! (logistic loss with Newton leaf updates) for binary classification.
//!
//! GBRT/GBDT are the algorithms the paper singles out as the most accurate —
//! "Among all the algorithms, GBRT achieves the best performance, which
//! produces an error of 7.9%" (Section 4.2) and "GBDT achieves as high as 95%
//! accuracy" (classification).

use crate::compiled::{CompiledEnsemble, CompiledStats};
use crate::data::Dataset;
use crate::splits::SplitTable;
use crate::tree::{FitContext, Tree, TreeFitter, TreeParams};
use crate::{Classifier, Regressor};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Gradient-boosting hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GbdtParams {
    /// Number of boosting rounds (trees).
    pub n_estimators: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Depth of the weak learners.
    pub max_depth: usize,
    /// Minimum samples per leaf of the weak learners.
    pub min_samples_leaf: usize,
    /// Fraction of the training set sampled (without replacement) per round;
    /// `1.0` disables stochastic boosting.
    pub subsample: f64,
    /// Seed for subsampling.
    pub seed: u64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_estimators: 200,
            learning_rate: 0.08,
            max_depth: 4,
            min_samples_leaf: 3,
            subsample: 0.9,
            seed: 0,
        }
    }
}

impl GbdtParams {
    fn tree_params(&self, seed: u64) -> TreeParams {
        TreeParams {
            max_depth: self.max_depth,
            min_samples_split: self.min_samples_leaf * 2,
            min_samples_leaf: self.min_samples_leaf,
            max_features: None,
            seed,
        }
    }
}

/// Draw a subsample of row indices for one boosting round.
fn round_indices(n: usize, params: &GbdtParams, round: usize) -> Vec<usize> {
    if params.subsample >= 1.0 {
        return (0..n).collect();
    }
    let k = ((n as f64 * params.subsample).round() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng =
        ChaCha8Rng::seed_from_u64(params.seed ^ (0x4742_4454 + round as u64 * 0x9E37_79B9));
    idx.shuffle(&mut rng);
    idx.truncate(k);
    idx
}

/// A boosted ensemble: initial value plus the trees in compiled form, the
/// only form kept once fitting is done. The serialized shape is the fitted
/// one, exactly `{"init", "trees", "params"}`: the trees are decompiled to
/// be written and compiled when read.
#[derive(Debug, Clone)]
struct Boosted {
    init: f64,
    compiled: CompiledEnsemble,
}

impl Boosted {
    fn new(init: f64, trees: &[Tree]) -> Boosted {
        Boosted {
            init,
            compiled: CompiledEnsemble::compile(trees),
        }
    }

    /// `init + learning_rate * Σ_t tree_t(x)`, summed in tree order.
    fn raw(&self, learning_rate: f64, x: &[f64]) -> f64 {
        self.init + learning_rate * self.compiled.sum_one(x)
    }

    /// [`Boosted::raw`] for every row, into a reusable output buffer.
    fn raw_rows(&self, learning_rate: f64, rows: crate::batch::Rows<'_>, out: &mut Vec<f64>) {
        crate::batch::reset_out(out, rows.len());
        self.compiled.sum_rows(rows, out);
        for v in out.iter_mut() {
            *v = self.init + learning_rate * *v;
        }
    }

    /// The pre-compilation evaluation, kept as the tests' reference: walk
    /// each fitted tree's nodes and sum in tree order.
    #[cfg(test)]
    fn node_walk(&self, learning_rate: f64, x: &[f64]) -> f64 {
        let trees = self.compiled.to_trees();
        self.init + learning_rate * trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }

    fn serialize(&self, params: &GbdtParams) -> serde::Value {
        serde::Value::Map(vec![
            ("init".to_string(), self.init.serialize()),
            ("trees".to_string(), self.compiled.to_trees().serialize()),
            ("params".to_string(), params.serialize()),
        ])
    }

    fn deserialize(v: &serde::Value, ty: &str) -> Result<(Boosted, GbdtParams), serde::Error> {
        if v.as_map().is_none() {
            return Err(serde::Error::expected("map", v, ty));
        }
        let trees: Vec<Tree> = serde::field(v, "trees", ty)?;
        let model = Boosted::new(serde::field(v, "init", ty)?, &trees);
        Ok((model, serde::field(v, "params", ty)?))
    }
}

/// The squared-loss boosting rounds `rounds`: each fits a tree to what
/// `current` (the running prediction per sample of `data`) still gets wrong
/// on the round's subsample, then adds the shrunk tree to `current`.
fn boost_residuals(
    data: &Dataset,
    params: &GbdtParams,
    rounds: std::ops::Range<usize>,
    current: &mut [f64],
    trees: &mut Vec<Tree>,
) {
    let ctx = FitContext::new(data);
    let mut fitter = TreeFitter::new(&ctx);
    let mut residuals = vec![0.0; data.len()];
    for round in rounds {
        let idx = round_indices(data.len(), params, round);
        for &i in &idx {
            residuals[i] = data.targets[i] - current[i];
        }
        let tree = fitter.fit(
            &idx,
            &residuals,
            &params.tree_params(params.seed ^ round as u64),
        );
        fitter.add_scaled(&tree, params.learning_rate, current);
        trees.push(tree);
    }
}

/// Gradient-boosted regression trees (the paper's GBRT).
#[derive(Debug, Clone)]
pub struct GbrtRegressor {
    model: Boosted,
    /// The hyperparameters used for training.
    pub params: GbdtParams,
}

impl Serialize for GbrtRegressor {
    fn serialize(&self) -> serde::Value {
        self.model.serialize(&self.params)
    }
}

impl Deserialize for GbrtRegressor {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let (model, params) = Boosted::deserialize(v, "GbrtRegressor")?;
        Ok(GbrtRegressor { model, params })
    }
}

impl GbrtRegressor {
    /// Fit by iteratively regressing the residuals (functional gradient of
    /// the squared loss).
    pub fn fit(data: &Dataset, params: GbdtParams) -> GbrtRegressor {
        assert!(!data.is_empty(), "cannot fit GBRT on an empty dataset");
        let n = data.len();
        let init = data.targets.iter().sum::<f64>() / n as f64;
        let mut current: Vec<f64> = vec![init; n];
        let mut trees = Vec::with_capacity(params.n_estimators);
        boost_residuals(
            data,
            &params,
            0..params.n_estimators,
            &mut current,
            &mut trees,
        );
        GbrtRegressor {
            model: Boosted::new(init, &trees),
            params,
        }
    }

    /// Warm-start: continue boosting this ensemble for `extra_rounds` more
    /// rounds against `data`, returning the extended model. The existing
    /// trees and init are kept verbatim — with `extra_rounds == 0` the
    /// returned ensemble is bit-identical to `self` — and new rounds are
    /// numbered from `n_trees()`, so their subsample and tree seeds never
    /// collide with the original fit's.
    ///
    /// The running prediction is seeded with the current ensemble's output
    /// on `data`, so each new tree regresses the *fresh residuals*: what the
    /// deployed model still gets wrong on the new observations. This is the
    /// retraining primitive of the serving feedback loop.
    pub fn continue_fit(&self, data: &Dataset, extra_rounds: usize) -> GbrtRegressor {
        assert!(
            !data.is_empty(),
            "cannot warm-start GBRT on an empty dataset"
        );
        let mut current: Vec<f64> = data.features.iter().map(|x| self.predict(x)).collect();
        let mut trees = self.model.compiled.to_trees();
        let start = trees.len();
        boost_residuals(
            data,
            &self.params,
            start..start + extra_rounds,
            &mut current,
            &mut trees,
        );
        GbrtRegressor {
            model: Boosted::new(self.model.init, &trees),
            params: self.params,
        }
    }

    /// Number of boosting rounds (diagnostics).
    pub fn n_trees(&self) -> usize {
        self.model.compiled.n_trees()
    }

    /// Size of the compiled ensemble predictions run through.
    pub fn compiled_stats(&self) -> CompiledStats {
        self.model.compiled.stats()
    }

    /// The ensemble as a [`SplitTable`], whose predictions equal
    /// [`Regressor::predict`]'s bit for bit; `None` when a tree has more
    /// leaves than a table row holds.
    pub fn split_table(&self) -> Option<SplitTable> {
        SplitTable::new(
            &self.model.compiled.to_trees(),
            self.model.init,
            self.params.learning_rate,
        )
    }

    /// [`Regressor::predict`] by node walk (test reference).
    #[cfg(test)]
    pub(crate) fn node_walk(&self, x: &[f64]) -> f64 {
        self.model.node_walk(self.params.learning_rate, x)
    }

    #[cfg(test)]
    pub(crate) fn trees(&self) -> Vec<Tree> {
        self.model.compiled.to_trees()
    }
}

impl Regressor for GbrtRegressor {
    fn predict(&self, x: &[f64]) -> f64 {
        self.model.raw(self.params.learning_rate, x)
    }

    /// Per row: `init + learning_rate * Σ_t tree_t(x)`, summed in tree
    /// order.
    fn predict_rows(&self, rows: crate::batch::Rows<'_>, out: &mut Vec<f64>) {
        self.model.raw_rows(self.params.learning_rate, rows, out);
    }
}

/// Gradient-boosted classification trees with logistic loss (the paper's
/// GBDT). Targets must be `0.0` / `1.0`; [`Classifier::score`] returns the
/// predicted positive-class probability.
#[derive(Debug, Clone)]
pub struct GbdtClassifier {
    /// `init` is the initial log-odds.
    model: Boosted,
    /// The hyperparameters used for training.
    pub params: GbdtParams,
}

impl Serialize for GbdtClassifier {
    fn serialize(&self) -> serde::Value {
        self.model.serialize(&self.params)
    }
}

impl Deserialize for GbdtClassifier {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let (model, params) = Boosted::deserialize(v, "GbdtClassifier")?;
        Ok(GbdtClassifier { model, params })
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl GbdtClassifier {
    /// Fit by boosting on the logistic-loss gradient with a Newton step per
    /// leaf (the classic Friedman TreeBoost update).
    pub fn fit(data: &Dataset, params: GbdtParams) -> GbdtClassifier {
        assert!(!data.is_empty(), "cannot fit GBDT on an empty dataset");
        debug_assert!(
            data.targets.iter().all(|&y| y == 0.0 || y == 1.0),
            "classification targets must be 0/1"
        );
        let n = data.len();
        let pos = data.targets.iter().sum::<f64>() / n as f64;
        let pos = pos.clamp(1e-6, 1.0 - 1e-6);
        let init = (pos / (1.0 - pos)).ln();
        let mut raw: Vec<f64> = vec![init; n];
        let mut trees = Vec::with_capacity(params.n_estimators);

        let ctx = FitContext::new(data);
        let mut fitter = TreeFitter::new(&ctx);
        let mut probs = vec![0.0; n];
        let mut grads = vec![0.0; n];
        // Per node id of the round's tree: Σ(y − p) and Σ p(1 − p).
        let (mut num, mut den) = (Vec::new(), Vec::new());
        for round in 0..params.n_estimators {
            let idx = round_indices(n, &params, round);
            // Negative gradient of the logistic loss: y − p.
            for &i in &idx {
                probs[i] = sigmoid(raw[i]);
                grads[i] = data.targets[i] - probs[i];
            }
            let mut tree = fitter.fit(
                &idx,
                &grads,
                &params.tree_params(params.seed ^ round as u64),
            );

            // Newton leaf values: Σ(y − p) / Σ p(1 − p) per leaf.
            num.clear();
            num.resize(tree.node_count(), 0.0);
            den.clear();
            den.resize(tree.node_count(), 0.0);
            for &i in &idx {
                let leaf = fitter.leaf_of(i);
                num[leaf] += grads[i];
                den[leaf] += (probs[i] * (1.0 - probs[i])).max(1e-9);
            }
            // Every leaf holds a sample of the round; only a split node's
            // `den` is still the 0.0 it started as.
            for (leaf, (s, d)) in num.iter().zip(&den).enumerate() {
                if *d != 0.0 {
                    tree.set_leaf_value(leaf, s / d);
                }
            }

            fitter.add_scaled(&tree, params.learning_rate, &mut raw);
            trees.push(tree);
        }

        GbdtClassifier {
            model: Boosted::new(init, &trees),
            params,
        }
    }

    /// Number of boosting rounds (diagnostics).
    pub fn n_trees(&self) -> usize {
        self.model.compiled.n_trees()
    }

    /// Size of the compiled ensemble scores run through.
    pub fn compiled_stats(&self) -> CompiledStats {
        self.model.compiled.stats()
    }

    /// [`Classifier::score`] by node walk (test reference).
    #[cfg(test)]
    pub(crate) fn node_walk(&self, x: &[f64]) -> f64 {
        sigmoid(self.model.node_walk(self.params.learning_rate, x))
    }

    #[cfg(test)]
    pub(crate) fn trees(&self) -> Vec<Tree> {
        self.model.compiled.to_trees()
    }
}

impl Classifier for GbdtClassifier {
    fn score(&self, x: &[f64]) -> f64 {
        sigmoid(self.model.raw(self.params.learning_rate, x))
    }

    fn score_rows(&self, rows: crate::batch::Rows<'_>, out: &mut Vec<f64>) {
        self.model.raw_rows(self.params.learning_rate, rows, out);
        for v in out.iter_mut() {
            *v = sigmoid(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_data(n: usize) -> Dataset {
        let features: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let targets = features.iter().map(|f| (f[0] * 6.0).sin()).collect();
        Dataset::from_parts(features, targets)
    }

    #[test]
    fn gbrt_fits_a_sine() {
        let data = sine_data(300);
        let m = GbrtRegressor::fit(
            &data,
            GbdtParams {
                n_estimators: 150,
                seed: 3,
                ..GbdtParams::default()
            },
        );
        for &x in &[0.1, 0.35, 0.6, 0.85] {
            let p = m.predict(&[x]);
            let y = (x * 6.0).sin();
            assert!((p - y).abs() < 0.08, "at {x}: {p} vs {y}");
        }
        assert_eq!(m.n_trees(), 150);
    }

    #[test]
    fn gbrt_beats_its_own_initial_constant() {
        let data = sine_data(200);
        let m = GbrtRegressor::fit(&data, GbdtParams::default());
        let mean = data.targets.iter().sum::<f64>() / 200.0;
        let model_err: f64 = data
            .iter()
            .map(|(x, y)| (m.predict(x) - y).abs())
            .sum::<f64>();
        let const_err: f64 = data.targets.iter().map(|y| (mean - y).abs()).sum::<f64>();
        assert!(model_err < 0.2 * const_err);
    }

    #[test]
    fn gbdt_learns_xor() {
        // XOR is the canonical non-linearly-separable problem; depth-2+ trees
        // should nail it.
        let mut features = Vec::new();
        let mut targets = Vec::new();
        for i in 0..200 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            let jitter = ((i * 17) % 11) as f64 / 110.0 - 0.05;
            features.push(vec![a + jitter, b - jitter]);
            targets.push(if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 });
        }
        let data = Dataset::from_parts(features, targets);
        let m = GbdtClassifier::fit(
            &data,
            GbdtParams {
                n_estimators: 80,
                seed: 4,
                ..GbdtParams::default()
            },
        );
        assert!(m.classify(&[1.0, 0.0]));
        assert!(m.classify(&[0.0, 1.0]));
        assert!(!m.classify(&[0.0, 0.0]));
        assert!(!m.classify(&[1.0, 1.0]));
    }

    #[test]
    fn gbdt_scores_are_probabilities() {
        let data = sine_data(50);
        let labels = Dataset::from_parts(
            data.features.clone(),
            data.targets.iter().map(|&y| f64::from(y > 0.0)).collect(),
        );
        let m = GbdtClassifier::fit(&data_to_binary(&labels), GbdtParams::default());
        for (x, _) in labels.iter() {
            let s = m.score(x);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    fn data_to_binary(d: &Dataset) -> Dataset {
        d.clone()
    }

    #[test]
    fn training_is_deterministic() {
        let data = sine_data(100);
        let p = GbdtParams {
            n_estimators: 30,
            seed: 9,
            ..GbdtParams::default()
        };
        let a = GbrtRegressor::fit(&data, p);
        let b = GbrtRegressor::fit(&data, p);
        assert_eq!(a.predict(&[0.4]), b.predict(&[0.4]));
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let data = sine_data(150);
        let err = |rounds: usize| {
            let m = GbrtRegressor::fit(
                &data,
                GbdtParams {
                    n_estimators: rounds,
                    subsample: 1.0,
                    ..GbdtParams::default()
                },
            );
            data.iter()
                .map(|(x, y)| (m.predict(x) - y).powi(2))
                .sum::<f64>()
        };
        let few = err(10);
        let many = err(120);
        assert!(
            many < few * 0.5,
            "boosting must keep reducing train error: {few} → {many}"
        );
    }

    #[test]
    fn warm_start_with_zero_rounds_is_bit_identical() {
        let data = sine_data(120);
        let m = GbrtRegressor::fit(
            &data,
            GbdtParams {
                n_estimators: 40,
                seed: 11,
                ..GbdtParams::default()
            },
        );
        let same = m.continue_fit(&sine_data(60), 0);
        assert_eq!(same.n_trees(), m.n_trees());
        assert!(
            serde_json::to_string(&same.serialize()).unwrap()
                == serde_json::to_string(&m.serialize()).unwrap()
        );
        for i in 0..50 {
            let x = [i as f64 / 50.0];
            assert_eq!(
                m.predict(&x).to_bits(),
                same.predict(&x).to_bits(),
                "0-round warm start must not perturb the ensemble at {x:?}"
            );
        }
    }

    #[test]
    fn warm_start_is_deterministic() {
        let data = sine_data(100);
        let shifted = Dataset::from_parts(
            data.features.clone(),
            data.targets.iter().map(|y| y + 0.25).collect(),
        );
        let m = GbrtRegressor::fit(
            &data,
            GbdtParams {
                n_estimators: 25,
                seed: 5,
                ..GbdtParams::default()
            },
        );
        let a = m.continue_fit(&shifted, 30);
        let b = m.continue_fit(&shifted, 30);
        assert_eq!(a.predict(&[0.3]).to_bits(), b.predict(&[0.3]).to_bits());
        assert_eq!(a.n_trees(), 55);
    }

    #[test]
    fn warm_start_fits_drifted_targets() {
        // Train on sin(6x), then drift the world by +0.4; continued boosting
        // must adapt to the drift far better than the frozen ensemble.
        let data = sine_data(200);
        let drifted = Dataset::from_parts(
            data.features.clone(),
            data.targets.iter().map(|y| y + 0.4).collect(),
        );
        let m = GbrtRegressor::fit(
            &data,
            GbdtParams {
                n_estimators: 80,
                seed: 2,
                ..GbdtParams::default()
            },
        );
        let tuned = m.continue_fit(&drifted, 80);
        let err = |model: &GbrtRegressor| {
            drifted
                .iter()
                .map(|(x, y)| (model.predict(x) - y).abs())
                .sum::<f64>()
                / drifted.len() as f64
        };
        let stale = err(&m);
        let fresh = err(&tuned);
        assert!(
            fresh < stale * 0.25,
            "warm start must chase the drift: stale MAE {stale}, tuned MAE {fresh}"
        );
    }

    #[test]
    fn warm_start_round_numbering_never_reuses_early_seeds() {
        // The subsample draws of continued rounds must differ from round 0's:
        // the round counter keeps advancing past the original fit.
        let params = GbdtParams {
            n_estimators: 10,
            subsample: 0.5,
            seed: 7,
            ..GbdtParams::default()
        };
        let first = round_indices(40, &params, 0);
        let continued = round_indices(40, &params, 10);
        assert_ne!(
            first, continued,
            "continued rounds must draw fresh subsamples"
        );
    }

    #[test]
    fn full_sample_mode_uses_all_rows() {
        let idx = round_indices(
            10,
            &GbdtParams {
                subsample: 1.0,
                ..GbdtParams::default()
            },
            0,
        );
        assert_eq!(idx, (0..10).collect::<Vec<_>>());
        let idx2 = round_indices(
            10,
            &GbdtParams {
                subsample: 0.5,
                ..GbdtParams::default()
            },
            0,
        );
        assert_eq!(idx2.len(), 5);
    }
}
