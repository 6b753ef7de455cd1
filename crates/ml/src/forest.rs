//! Random forests: bagged CART trees with per-split feature subsampling,
//! trained one after another over one shared fit context.

use crate::data::Dataset;
use crate::tree::{self, FitContext, Tree, TreeFitter, TreeParams};
use crate::{Classifier, Regressor};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Random-forest hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters (the `max_features`/`seed` fields are filled per
    /// tree by the ensemble).
    pub tree: TreeParams,
    /// Features sampled per split; `None` uses `√width` (classification) or
    /// `width / 3` (regression).
    pub max_features: Option<usize>,
    /// Master seed for bootstraps and feature subsampling.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 100,
            tree: TreeParams {
                max_depth: 12,
                min_samples_split: 4,
                min_samples_leaf: 1,
                max_features: None,
                seed: 0,
            },
            max_features: None,
            seed: 0,
        }
    }
}

/// The bagged trees, in fitting order. The artifact is `{"trees"}`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Forest {
    trees: Vec<Tree>,
}

impl Forest {
    fn fit(data: &Dataset, params: &ForestParams, default_features: usize) -> Forest {
        assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
        assert!(params.n_trees > 0, "forest needs at least one tree");
        let max_features = params
            .max_features
            .unwrap_or(default_features)
            .clamp(1, data.width().max(1));
        let n = data.len();
        let ctx = FitContext::new(data);
        let mut fitter = TreeFitter::new(&ctx);
        let trees: Vec<Tree> = (0..params.n_trees)
            .map(|t| {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    params.seed ^ (0x466f_7265_7374 /* "Forest" */ + t as u64 * 0x9E37_79B9),
                );
                let boot: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                let tree_params = TreeParams {
                    max_features: Some(max_features),
                    seed: rng.gen(),
                    ..params.tree
                };
                fitter.fit(&boot, &data.targets, &tree_params)
            })
            .collect();
        Forest { trees }
    }

    fn mean_prediction(&self, x: &[f64]) -> f64 {
        tree::sum(&self.trees, x) / self.trees.len() as f64
    }
}

/// Random-forest regressor (the paper's RF for the regression model).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForestRegressor {
    forest: Forest,
    /// The hyperparameters used for training.
    pub params: ForestParams,
}

impl RandomForestRegressor {
    /// Fit on a dataset.
    pub fn fit(data: &Dataset, params: ForestParams) -> RandomForestRegressor {
        let default_features = (data.width() / 3).max(1);
        RandomForestRegressor {
            forest: Forest::fit(data, &params, default_features),
            params,
        }
    }

    /// Number of trees (diagnostics).
    pub fn n_trees(&self) -> usize {
        self.forest.trees.len()
    }
}

impl Regressor for RandomForestRegressor {
    fn predict(&self, x: &[f64]) -> f64 {
        self.forest.mean_prediction(x)
    }
}

/// Random-forest classifier (the paper's RF for the classification model).
/// Targets must be `0.0` / `1.0`; the score is the fraction of trees voting
/// positive (soft voting over leaf probabilities).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForestClassifier {
    forest: Forest,
    /// The hyperparameters used for training.
    pub params: ForestParams,
}

impl RandomForestClassifier {
    /// Fit on a dataset with `{0, 1}` targets.
    pub fn fit(data: &Dataset, params: ForestParams) -> RandomForestClassifier {
        debug_assert!(
            data.targets.iter().all(|&y| y == 0.0 || y == 1.0),
            "classification targets must be 0/1"
        );
        let default_features = (data.width() as f64).sqrt().round() as usize;
        RandomForestClassifier {
            forest: Forest::fit(data, &params, default_features.max(1)),
            params,
        }
    }

    /// Number of trees (diagnostics).
    pub fn n_trees(&self) -> usize {
        self.forest.trees.len()
    }
}

impl Classifier for RandomForestClassifier {
    fn score(&self, x: &[f64]) -> f64 {
        self.forest.mean_prediction(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_quadratic(n: usize) -> Dataset {
        // y = x² with a deterministic pseudo-noise term.
        let features: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let targets = features
            .iter()
            .enumerate()
            .map(|(i, f)| f[0] * f[0] + 0.01 * (((i * 31) % 7) as f64 - 3.0))
            .collect();
        Dataset::from_parts(features, targets)
    }

    #[test]
    fn regressor_fits_a_quadratic() {
        let data = noisy_quadratic(200);
        let rf = RandomForestRegressor::fit(
            &data,
            ForestParams {
                n_trees: 30,
                seed: 1,
                ..ForestParams::default()
            },
        );
        for &x in &[0.1, 0.5, 0.9] {
            let p = rf.predict(&[x]);
            assert!((p - x * x).abs() < 0.08, "at {x}: {p}");
        }
        assert_eq!(rf.n_trees(), 30);
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let data = noisy_quadratic(100);
        let p = ForestParams {
            n_trees: 10,
            seed: 5,
            ..ForestParams::default()
        };
        let a = RandomForestRegressor::fit(&data, p);
        let b = RandomForestRegressor::fit(&data, p);
        assert_eq!(a.predict(&[0.3]), b.predict(&[0.3]));
        let c = RandomForestRegressor::fit(&data, ForestParams { seed: 6, ..p });
        assert_ne!(a.predict(&[0.3]), c.predict(&[0.3]));
    }

    #[test]
    fn classifier_separates_two_blobs() {
        let mut features = Vec::new();
        let mut targets = Vec::new();
        for i in 0..100 {
            let jitter = ((i * 13) % 10) as f64 / 50.0;
            if i % 2 == 0 {
                features.push(vec![0.2 + jitter, 0.2 - jitter]);
                targets.push(0.0);
            } else {
                features.push(vec![0.8 + jitter, 0.8 - jitter]);
                targets.push(1.0);
            }
        }
        let data = Dataset::from_parts(features, targets);
        let rf = RandomForestClassifier::fit(
            &data,
            ForestParams {
                n_trees: 20,
                seed: 2,
                ..ForestParams::default()
            },
        );
        assert!(!rf.classify(&[0.15, 0.2]));
        assert!(rf.classify(&[0.85, 0.8]));
        assert!(rf.score(&[0.85, 0.8]) > 0.8);
    }

    #[test]
    fn ensemble_beats_its_own_single_tree_on_noise() {
        // Same data, same per-tree settings: averaging 30 bootstrapped trees
        // must not be worse than one of them on held-out points.
        let train = noisy_quadratic(160);
        let params = ForestParams {
            n_trees: 30,
            seed: 3,
            ..ForestParams::default()
        };
        let forest = RandomForestRegressor::fit(&train, params);
        let single = RandomForestRegressor::fit(
            &train,
            ForestParams {
                n_trees: 1,
                ..params
            },
        );
        let err = |m: &RandomForestRegressor| -> f64 {
            (0..50)
                .map(|i| {
                    let x = i as f64 / 50.0 + 0.003; // off-grid probes
                    (m.predict(&[x]) - x * x).abs()
                })
                .sum()
        };
        assert!(err(&forest) <= err(&single) * 1.05);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let data = noisy_quadratic(10);
        let _ = RandomForestRegressor::fit(
            &data,
            ForestParams {
                n_trees: 0,
                ..ForestParams::default()
            },
        );
    }

    /// The artifact is `{"forest": {"trees"}, "params"}`, the trees as
    /// fitted; reading it back gives the same bytes and the same answers.
    #[test]
    fn serialized_shape_is_unchanged_and_round_trips() {
        let data = noisy_quadratic(40);
        let params = ForestParams {
            n_trees: 4,
            seed: 8,
            ..ForestParams::default()
        };
        let rf = RandomForestRegressor::fit(&data, params);
        let json = serde_json::to_string(&rf).unwrap();
        assert!(
            json.starts_with(r#"{"forest":{"trees":[{"nodes":["#),
            "{}",
            &json[..40]
        );
        let back: RandomForestRegressor = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        for i in 0..40 {
            let x = [i as f64 / 40.0];
            assert_eq!(rf.predict(&x).to_bits(), back.predict(&x).to_bits());
        }
    }
}
