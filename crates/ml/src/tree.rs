//! CART decision trees.
//!
//! One tree implementation serves both regression and binary classification:
//! splits minimize the weighted variance of the targets, which for `{0, 1}`
//! labels equals `p(1 − p)` — exactly half the Gini impurity — so variance
//! reduction and Gini splitting choose identical splits for binary labels.
//! Leaves store the target mean, which doubles as the positive-class
//! probability for classification.

use crate::batch::Rows;
use crate::data::Dataset;
use crate::{Classifier, Regressor};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Hyperparameters shared by single trees and ensemble members.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child of a split.
    pub min_samples_leaf: usize,
    /// If set, the number of candidate features sampled per split
    /// (random-forest style). `None` considers every feature.
    pub max_features: Option<usize>,
    /// Seed for per-split feature subsampling.
    pub seed: u64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 8,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted CART tree (crate-internal; use the public wrappers).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Tree {
    nodes: Vec<Node>,
}

/// Rows walked through a single tree simultaneously by the batched
/// evaluator: enough independent root-to-leaf chains to keep several node
/// loads in flight per core, small enough that the lane state lives in
/// registers. (Ensembles are evaluated through [`crate::compiled`] instead.)
const LANES: usize = 8;

impl Tree {
    /// Fit a tree by recursive variance-reduction splitting.
    pub(crate) fn fit(data: &Dataset, params: &TreeParams) -> Tree {
        assert!(!data.is_empty(), "cannot fit a tree on an empty dataset");
        let mut tree = Tree { nodes: Vec::new() };
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
        tree.build(data, params, indices, 0, &mut rng);
        tree
    }

    fn build(
        &mut self,
        data: &Dataset,
        params: &TreeParams,
        indices: Vec<usize>,
        depth: usize,
        rng: &mut ChaCha8Rng,
    ) -> usize {
        let mean = mean_of(data, &indices);
        let make_leaf = depth >= params.max_depth
            || indices.len() < params.min_samples_split
            || is_pure(data, &indices);
        if !make_leaf {
            if let Some((feature, threshold)) = best_split(data, params, &indices, rng) {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                    .iter()
                    .partition(|&&i| data.features[i][feature] <= threshold);
                if left_idx.len() >= params.min_samples_leaf
                    && right_idx.len() >= params.min_samples_leaf
                {
                    let node_id = self.nodes.len();
                    self.nodes.push(Node::Leaf { value: mean }); // placeholder
                    let left = self.build(data, params, left_idx, depth + 1, rng);
                    let right = self.build(data, params, right_idx, depth + 1, rng);
                    self.nodes[node_id] = Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    };
                    return node_id;
                }
            }
        }
        let node_id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean });
        node_id
    }

    /// Index of the leaf node that `x` falls into.
    pub(crate) fn leaf_index(&self, x: &[f64]) -> usize {
        let mut node = 0;
        loop {
            match &self.nodes[node] {
                Node::Leaf { .. } => return node,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predicted value for `x` (leaf mean).
    pub(crate) fn predict(&self, x: &[f64]) -> f64 {
        match &self.nodes[self.leaf_index(x)] {
            Node::Leaf { value } => *value,
            Node::Split { .. } => unreachable!("leaf_index returns leaves"),
        }
    }

    /// Advance one traversal lane a single level; returns `true` while the
    /// lane is still on a split node.
    #[inline]
    fn step(&self, idx: &mut usize, x: &[f64]) -> bool {
        match &self.nodes[*idx] {
            Node::Leaf { .. } => false,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                *idx = if x[*feature] <= *threshold {
                    *left
                } else {
                    *right
                };
                true
            }
        }
    }

    /// Leaf value at node `i` (must be a leaf).
    #[inline]
    fn leaf_value(&self, i: usize) -> f64 {
        match &self.nodes[i] {
            Node::Leaf { value } => *value,
            Node::Split { .. } => unreachable!("traversal ends on leaves"),
        }
    }

    /// Walk a block of [`LANES`] rows through the tree in lockstep, level
    /// by level. The lanes are independent root-to-leaf chains, so the CPU
    /// keeps several node loads in flight instead of stalling on one
    /// dependent chain per row. A lane that reaches its leaf early just
    /// stays there.
    #[inline]
    fn leaf_block(&self, rows: Rows<'_>, base: usize) -> [usize; LANES] {
        let mut idx = [0usize; LANES];
        let mut xs: [&[f64]; LANES] = [&[]; LANES];
        for (l, x) in xs.iter_mut().enumerate() {
            *x = rows.row(base + l);
        }
        loop {
            let mut descending = false;
            for (i, &x) in idx.iter_mut().zip(&xs) {
                descending |= self.step(i, x);
            }
            if !descending {
                return idx;
            }
        }
    }

    /// `out[i] = self.predict(rows.row(i))` for every row, with the bulk of
    /// the rows going through the interleaved [`leaf_block`] traversal.
    /// Bit-identical to the scalar loop: the leaf reached and the value
    /// written are exactly the scalar ones.
    ///
    /// [`leaf_block`]: Tree::leaf_block
    pub(crate) fn assign_rows(&self, rows: Rows<'_>, out: &mut [f64]) {
        debug_assert_eq!(rows.len(), out.len());
        let n = rows.len();
        let mut i = 0;
        while i + LANES <= n {
            let leaves = self.leaf_block(rows, i);
            for (l, &leaf) in leaves.iter().enumerate() {
                out[i + l] = self.leaf_value(leaf);
            }
            i += LANES;
        }
        for (j, slot) in out.iter_mut().enumerate().skip(i) {
            *slot = self.predict(rows.row(j));
        }
    }

    /// Overwrite a leaf's value (used by gradient boosting's Newton step).
    pub(crate) fn set_leaf_value(&mut self, leaf: usize, value: f64) {
        match &mut self.nodes[leaf] {
            Node::Leaf { value: v } => *v = value,
            Node::Split { .. } => panic!("node {leaf} is not a leaf"),
        }
    }

    /// A tree over already-built nodes (root first, children by index).
    pub(crate) fn from_nodes(nodes: Vec<Node>) -> Tree {
        Tree { nodes }
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes, root first, children referenced by index.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Maximum depth actually reached.
    pub(crate) fn depth(&self) -> usize {
        fn walk(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        walk(&self.nodes, 0)
    }
}

fn mean_of(data: &Dataset, indices: &[usize]) -> f64 {
    indices.iter().map(|&i| data.targets[i]).sum::<f64>() / indices.len().max(1) as f64
}

fn is_pure(data: &Dataset, indices: &[usize]) -> bool {
    let first = data.targets[indices[0]];
    indices
        .iter()
        .all(|&i| (data.targets[i] - first).abs() < 1e-12)
}

/// Exhaustive best split by variance reduction over (a subsample of) the
/// features. Returns `None` when no split improves on the parent.
fn best_split(
    data: &Dataset,
    params: &TreeParams,
    indices: &[usize],
    rng: &mut ChaCha8Rng,
) -> Option<(usize, f64)> {
    let width = data.width();
    let mut candidate_features: Vec<usize> = (0..width).collect();
    if let Some(k) = params.max_features {
        let k = k.clamp(1, width);
        candidate_features.shuffle(rng);
        candidate_features.truncate(k);
    }

    let total_sum: f64 = indices.iter().map(|&i| data.targets[i]).sum();
    let total_sq: f64 = indices
        .iter()
        .map(|&i| data.targets[i] * data.targets[i])
        .sum();
    let n = indices.len() as f64;
    let parent_sse = total_sq - total_sum * total_sum / n;

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
    let mut order: Vec<usize> = indices.to_vec();

    for &feature in &candidate_features {
        order.sort_by(|&a, &b| data.features[a][feature].total_cmp(&data.features[b][feature]));
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for (pos, &i) in order.iter().enumerate().take(order.len() - 1) {
            let y = data.targets[i];
            left_sum += y;
            left_sq += y * y;
            let v = data.features[i][feature];
            let v_next = data.features[order[pos + 1]][feature];
            if v_next - v < 1e-12 {
                continue; // no distinct threshold between equal values
            }
            let nl = (pos + 1) as f64;
            let nr = n - nl;
            if (nl as usize) < params.min_samples_leaf || (nr as usize) < params.min_samples_leaf {
                continue;
            }
            let right_sum = total_sum - left_sum;
            let right_sq = total_sq - left_sq;
            let sse =
                (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
            if best.as_ref().is_none_or(|&(_, _, b)| sse < b - 1e-15) {
                best = Some((feature, 0.5 * (v + v_next), sse));
            }
        }
    }

    best.filter(|&(_, _, sse)| sse < parent_sse - 1e-12)
        .map(|(f, t, _)| (f, t))
}

/// A single CART regression tree (the paper's DTR).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTreeRegressor {
    tree: Tree,
    /// The hyperparameters the tree was fitted with.
    pub params: TreeParams,
}

impl DecisionTreeRegressor {
    /// Fit on a dataset.
    pub fn fit(data: &Dataset, params: TreeParams) -> DecisionTreeRegressor {
        DecisionTreeRegressor {
            tree: Tree::fit(data, &params),
            params,
        }
    }

    /// Maximum depth actually reached (diagnostics).
    pub fn depth(&self) -> usize {
        self.tree.depth()
    }

    /// Batched prediction into a reusable output buffer; bit-identical to
    /// calling [`Regressor::predict`] per row.
    pub fn predict_batch(&self, rows: crate::batch::Rows<'_>, out: &mut Vec<f64>) {
        crate::batch::reset_out(out, rows.len());
        self.tree.assign_rows(rows, out);
    }
}

impl Regressor for DecisionTreeRegressor {
    fn predict(&self, x: &[f64]) -> f64 {
        self.tree.predict(x)
    }

    fn predict_rows(&self, rows: crate::batch::Rows<'_>, out: &mut Vec<f64>) {
        self.predict_batch(rows, out);
    }
}

/// A single CART classification tree (the paper's DTC). Targets must be
/// `0.0` / `1.0`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTreeClassifier {
    tree: Tree,
    /// The hyperparameters the tree was fitted with.
    pub params: TreeParams,
}

impl DecisionTreeClassifier {
    /// Fit on a dataset with `{0, 1}` targets.
    pub fn fit(data: &Dataset, params: TreeParams) -> DecisionTreeClassifier {
        debug_assert!(
            data.targets.iter().all(|&y| y == 0.0 || y == 1.0),
            "classification targets must be 0/1"
        );
        DecisionTreeClassifier {
            tree: Tree::fit(data, &params),
            params,
        }
    }

    /// Batched scoring into a reusable output buffer; bit-identical to
    /// calling [`Classifier::score`] per row.
    pub fn score_batch(&self, rows: crate::batch::Rows<'_>, out: &mut Vec<f64>) {
        crate::batch::reset_out(out, rows.len());
        self.tree.assign_rows(rows, out);
    }
}

impl Classifier for DecisionTreeClassifier {
    fn score(&self, x: &[f64]) -> f64 {
        self.tree.predict(x)
    }

    fn score_rows(&self, rows: crate::batch::Rows<'_>, out: &mut Vec<f64>) {
        self.score_batch(rows, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn step_data(n: usize) -> Dataset {
        // y = 1 if x0 > 0.5 else 0, with a nuisance feature.
        let features: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, ((i * 7) % 13) as f64])
            .collect();
        let targets = features
            .iter()
            .map(|f| if f[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        Dataset::from_parts(features, targets)
    }

    #[test]
    fn learns_a_step_function() {
        let data = step_data(100);
        let t = DecisionTreeRegressor::fit(&data, TreeParams::default());
        assert!(t.predict(&[0.1, 0.0]) < 0.01);
        assert!(t.predict(&[0.9, 0.0]) > 0.99);
    }

    #[test]
    fn classifier_threshold_behaviour() {
        let data = step_data(100);
        let c = DecisionTreeClassifier::fit(&data, TreeParams::default());
        assert!(!c.classify(&[0.2, 5.0]));
        assert!(c.classify(&[0.8, 5.0]));
    }

    #[test]
    fn deep_tree_interpolates_training_data() {
        // With unconstrained depth and leaf size 1, every distinct training
        // point must be reproduced exactly.
        let features: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..32).map(|i| ((i * 37) % 11) as f64).collect();
        let data = Dataset::from_parts(features.clone(), targets.clone());
        let params = TreeParams {
            max_depth: 32,
            min_samples_split: 2,
            min_samples_leaf: 1,
            ..TreeParams::default()
        };
        let t = DecisionTreeRegressor::fit(&data, params);
        for (x, y) in features.iter().zip(&targets) {
            assert!((t.predict(x) - y).abs() < 1e-12);
        }
    }

    #[test]
    fn depth_zero_tree_is_the_mean() {
        let data = step_data(50);
        let params = TreeParams {
            max_depth: 0,
            ..TreeParams::default()
        };
        let t = DecisionTreeRegressor::fit(&data, params);
        let mean = data.targets.iter().sum::<f64>() / 50.0;
        assert!((t.predict(&[0.3, 1.0]) - mean).abs() < 1e-12);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn pure_node_stops_splitting() {
        let data = Dataset::from_parts(vec![vec![0.0], vec![1.0], vec![2.0]], vec![5.0; 3]);
        let t = Tree::fit(&data, &TreeParams::default());
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let data = step_data(10);
        let params = TreeParams {
            min_samples_leaf: 5,
            min_samples_split: 10,
            ..TreeParams::default()
        };
        let t = Tree::fit(&data, &params);
        // With 10 samples and leaves of ≥5, at most one split is possible.
        assert!(t.node_count() <= 3);
    }

    #[test]
    fn feature_subsampling_is_deterministic_per_seed() {
        let data = step_data(60);
        let params = TreeParams {
            max_features: Some(1),
            seed: 1,
            ..TreeParams::default()
        };
        let a = DecisionTreeRegressor::fit(&data, params);
        let b = DecisionTreeRegressor::fit(&data, params);
        for i in 0..20 {
            let x = [i as f64 / 20.0, 1.0];
            assert_eq!(a.predict(&x), b.predict(&x));
        }
    }

    #[test]
    fn leaf_value_override_works() {
        let data = step_data(20);
        let mut t = Tree::fit(&data, &TreeParams::default());
        let leaf = t.leaf_index(&[0.9, 0.0]);
        t.set_leaf_value(leaf, 42.0);
        assert_eq!(t.predict(&[0.9, 0.0]), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let _ = Tree::fit(&Dataset::new(), &TreeParams::default());
    }

    #[test]
    fn picks_the_informative_feature() {
        // Feature 1 is pure noise; feature 0 fully determines y. The root
        // split must use feature 0 (checked behaviourally: permuting the
        // noise feature must not change predictions).
        let features: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![(i % 8) as f64, ((i * 37) % 11) as f64])
            .collect();
        let targets: Vec<f64> = features.iter().map(|f| f[0] * 2.0).collect();
        let data = Dataset::from_parts(features, targets);
        let t = DecisionTreeRegressor::fit(&data, TreeParams::default());
        for probe in 0..8 {
            let a = t.predict(&[probe as f64, 0.0]);
            let b = t.predict(&[probe as f64, 10.0]);
            assert_eq!(a, b, "noise feature must not matter");
            assert!((a - probe as f64 * 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn classifier_scores_are_leaf_purities() {
        let data = step_data(100);
        let c = DecisionTreeClassifier::fit(&data, TreeParams::default());
        let s = c.score(&[0.9, 1.0]);
        assert!((0.0..=1.0).contains(&s));
        assert!(s > 0.95, "pure region should be near-certain: {s}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn predictions_stay_within_target_range(
            ys in proptest::collection::vec(-10.0f64..10.0, 8..40),
            probe in -2.0f64..2.0,
        ) {
            let features: Vec<Vec<f64>> =
                (0..ys.len()).map(|i| vec![i as f64 / ys.len() as f64]).collect();
            let data = Dataset::from_parts(features, ys.clone());
            let t = DecisionTreeRegressor::fit(&data, TreeParams::default());
            let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let p = t.predict(&[probe]);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }
}
