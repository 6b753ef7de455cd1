//! CART decision trees.
//!
//! One tree implementation serves both regression and binary classification:
//! splits minimize the weighted variance of the targets, which for `{0, 1}`
//! labels equals `p(1 − p)` — exactly half the Gini impurity — so variance
//! reduction and Gini splitting choose identical splits for binary labels.
//! Leaves store the target mean, which doubles as the positive-class
//! probability for classification.

use crate::data::Dataset;
use crate::{Classifier, Regressor};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

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

/// One node of a tree, 24 bytes. A split sends `x` to `left` when
/// `x[feature] <= threshold` and to `right` otherwise (a NaN goes right);
/// children are indices into the tree's nodes. The fields are declared in
/// the order the artifact writes them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: u32,
        threshold: f64,
        left: u32,
        right: u32,
    },
}

/// `Σ_t trees[t](x)`: each tree's node walk, added in tree order onto `0.0`.
/// Every ensemble's prediction is this sum, scaled.
pub(crate) fn sum(trees: &[Tree], x: &[f64]) -> f64 {
    trees.iter().fold(0.0, |sum, tree| sum + tree.predict(x))
}

/// A feature number or node index as a [`Node`] holds it.
fn narrow(i: usize) -> u32 {
    u32::try_from(i).expect("a tree numbers its features and nodes in 32 bits")
}

/// A fitted CART tree (crate-internal; use the public wrappers).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    /// Fit one tree on every sample of `data`, by recursive
    /// variance-reduction splitting. Ensembles share one [`FitContext`]
    /// across their trees instead.
    pub(crate) fn fit(data: &Dataset, params: &TreeParams) -> Tree {
        assert!(!data.is_empty(), "cannot fit a tree on an empty dataset");
        let ids: Vec<usize> = (0..data.len()).collect();
        TreeFitter::new(&FitContext::new(data)).fit(&ids, &data.targets, params)
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
                    node = if x[*feature as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Predicted value for `x` (leaf mean).
    pub(crate) fn predict(&self, x: &[f64]) -> f64 {
        self.leaf_value(self.leaf_index(x))
    }

    /// Leaf value at node `i` (must be a leaf).
    pub(crate) fn leaf_value(&self, i: usize) -> f64 {
        match &self.nodes[i] {
            Node::Leaf { value } => *value,
            Node::Split { .. } => unreachable!("traversal ends on leaves"),
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
    #[cfg(test)]
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
                Node::Split { left, right, .. } => {
                    1 + walk(nodes, *left as usize).max(walk(nodes, *right as usize))
                }
            }
        }
        walk(&self.nodes, 0)
    }
}

/// What every tree of one ensemble fit shares, built once per fit: the
/// features column-major and, per feature, each sample's dense rank. Rounds
/// change only which samples take part and what their targets are.
pub(crate) struct FitContext<'a> {
    data: &'a Dataset,
    /// `values[f * rows + i]` is feature `f` of sample `i`.
    values: Vec<f64>,
    /// `ranks[f * rows + i]` counts the distinct values of feature `f` below
    /// sample `i`'s under `total_cmp`: two samples have equal ranks exactly
    /// where `total_cmp` says `Equal` (−0.0 and +0.0 differ, NaN is last).
    ranks: Vec<u32>,
}

impl<'a> FitContext<'a> {
    pub(crate) fn new(data: &'a Dataset) -> FitContext<'a> {
        let (rows, width) = (data.len(), data.width());
        assert!(
            u32::try_from(rows).is_ok(),
            "sample ids are kept in 32 bits"
        );
        let mut values = Vec::with_capacity(rows * width);
        let mut ranks = vec![0u32; rows * width];
        let mut by_value: Vec<usize> = Vec::with_capacity(rows);
        for (f, ranks) in ranks.chunks_exact_mut(rows.max(1)).enumerate() {
            values.extend(data.features.iter().map(|x| x[f]));
            let column = &values[f * rows..];
            by_value.clear();
            by_value.extend(0..rows);
            by_value.sort_unstable_by(|&a, &b| column[a].total_cmp(&column[b]));
            let mut rank = 0;
            for (at, &i) in by_value.iter().enumerate() {
                if at > 0 && column[by_value[at - 1]].total_cmp(&column[i]) != Ordering::Equal {
                    rank += 1;
                }
                ranks[i] = rank;
            }
        }
        FitContext {
            data,
            values,
            ranks,
        }
    }

    /// The values and the ranks of feature `f`, by sample id.
    fn column(&self, f: usize) -> (&[f64], &[u32]) {
        let rows = self.data.len();
        let at = f * rows..(f + 1) * rows;
        (&self.values[at.clone()], &self.ranks[at])
    }
}

/// "Not in the round" in [`TreeFitter::leaf_of`].
const NO_LEAF: u32 = u32::MAX;

/// Fits trees over one [`FitContext`], one after another, in buffers that
/// are allocated once. A round is a list of sample ids (a bootstrap's
/// duplicates are repeated ids) and a target per sample id; no row is copied.
pub(crate) struct TreeFitter<'a> {
    ctx: &'a FitContext<'a>,
    /// The round's samples. Every node owns a contiguous run of them, in the
    /// order the round listed them.
    members: Vec<u32>,
    /// The node being split, in the order the search carries from one
    /// candidate feature to the next: it starts as the node's run of
    /// `members` and is stably re-sorted by each candidate in turn.
    order: Vec<u32>,
    /// Without feature subsampling every node searches the features in one
    /// sequence, and what `order` would hold is kept instead of recomputed:
    /// `orders[f * members.len()..]` is laid out like `members`, node by
    /// node, with each node's run in its order after feature `f`. The root
    /// sorts, a split hands each child its part of every run
    /// ([`TreeFitter::partition_orders`]). Empty under subsampling.
    orders: Vec<u32>,
    /// By sample id: which side of the last split the sample went to.
    goes_left: Vec<bool>,
    /// Where a stable partition parks the right side.
    spare: Vec<u32>,
    sort: SortScratch,
    candidates: Vec<usize>,
    /// Node id of the leaf each sample of the last round fell into.
    leaf_of: Vec<u32>,
}

impl<'a> TreeFitter<'a> {
    pub(crate) fn new(ctx: &'a FitContext<'a>) -> TreeFitter<'a> {
        TreeFitter {
            ctx,
            members: Vec::new(),
            order: Vec::new(),
            orders: Vec::new(),
            goes_left: Vec::new(),
            spare: Vec::new(),
            sort: SortScratch::default(),
            candidates: Vec::new(),
            leaf_of: Vec::new(),
        }
    }

    /// Fit a tree on the samples `ids`; `targets[i]` is the target of
    /// sample `i`.
    pub(crate) fn fit(&mut self, ids: &[usize], targets: &[f64], params: &TreeParams) -> Tree {
        assert!(!ids.is_empty(), "cannot fit a tree on an empty round");
        self.members.clear();
        self.members.extend(ids.iter().map(|&i| i as u32));
        self.leaf_of.clear();
        self.leaf_of.resize(self.ctx.data.len(), NO_LEAF);
        self.goes_left.resize(self.ctx.data.len(), false);
        self.orders.clear();
        let mut nodes = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
        self.build(&mut nodes, targets, params, (0, ids.len()), 0, &mut rng);
        // Fitted trees are kept for prediction: hold no spare capacity.
        nodes.shrink_to_fit();
        Tree { nodes }
    }

    /// `out[i] += scale * tree.predict(x_i)` for every sample of the dataset,
    /// for the tree the last [`TreeFitter::fit`] returned (leaf values may
    /// have been overridden since). A sample of the round is already known
    /// to sit in the leaf the partition put it in; only the others walk.
    pub(crate) fn add_scaled(&self, tree: &Tree, scale: f64, out: &mut [f64]) {
        let rows = self.leaf_of.iter().zip(&self.ctx.data.features);
        for (o, (&leaf, x)) in out.iter_mut().zip(rows) {
            let leaf = match leaf {
                NO_LEAF => tree.leaf_index(x),
                leaf => leaf as usize,
            };
            *o += scale * tree.leaf_value(leaf);
        }
    }

    /// The leaf sample `i` of the last round fell into.
    pub(crate) fn leaf_of(&self, i: usize) -> usize {
        debug_assert_ne!(self.leaf_of[i], NO_LEAF, "sample {i} was not in the round");
        self.leaf_of[i] as usize
    }

    /// Grow the subtree over `members[lo..hi]`, pre-order; returns its root.
    fn build(
        &mut self,
        nodes: &mut Vec<Node>,
        targets: &[f64],
        params: &TreeParams,
        (lo, hi): (usize, usize),
        depth: usize,
        rng: &mut ChaCha8Rng,
    ) -> usize {
        let y = |&i: &u32| targets[i as usize];
        let members = &self.members[lo..hi];
        let mean = members.iter().map(y).sum::<f64>() / members.len() as f64;
        let first = y(&members[0]);
        let make_leaf = depth >= params.max_depth
            || members.len() < params.min_samples_split
            || members.iter().all(|i| (y(i) - first).abs() < 1e-12);
        if !make_leaf {
            if let Some((feature, threshold)) = self.best_split(targets, params, (lo, hi), rng) {
                let mid = self.partition(feature, threshold, (lo, hi));
                if mid - lo >= params.min_samples_leaf && hi - mid >= params.min_samples_leaf {
                    if depth + 1 < params.max_depth {
                        self.partition_orders((lo, mid, hi)); // the children will search
                    }
                    let node_id = nodes.len();
                    nodes.push(Node::Leaf { value: mean }); // placeholder
                    let left = self.build(nodes, targets, params, (lo, mid), depth + 1, rng);
                    let right = self.build(nodes, targets, params, (mid, hi), depth + 1, rng);
                    nodes[node_id] = Node::Split {
                        feature: narrow(feature),
                        threshold,
                        left: narrow(left),
                        right: narrow(right),
                    };
                    return node_id;
                }
            }
        }
        let node_id = nodes.len();
        nodes.push(Node::Leaf { value: mean });
        for &i in &self.members[lo..hi] {
            self.leaf_of[i as usize] = node_id as u32;
        }
        node_id
    }

    /// Move the samples of `members[lo..hi]` with `x[feature] <= threshold`
    /// to the front, both sides keeping their order; returns where the right
    /// side starts.
    fn partition(&mut self, feature: usize, threshold: f64, (lo, hi): (usize, usize)) -> usize {
        let (values, _) = self.ctx.column(feature);
        self.spare.clear();
        let mut mid = lo;
        for at in lo..hi {
            let i = self.members[at];
            let left = values[i as usize] <= threshold;
            self.goes_left[i as usize] = left;
            if left {
                self.members[mid] = i;
                mid += 1;
            } else {
                self.spare.push(i);
            }
        }
        self.members[mid..hi].copy_from_slice(&self.spare);
        mid
    }

    /// Split every feature's run `lo..hi` of `orders` the way
    /// [`TreeFitter::partition`] just split `members[lo..hi]` at `mid`.
    ///
    /// That is each child's own order, not an approximation of it. A node's
    /// order after feature `f` is its samples sorted by (rank under `f`,
    /// rank under `f − 1`, …, rank under 0, place in `members`), each stable
    /// sort adding one key in front. The key of a sample is the same in the
    /// child as in the parent but for the place, and the partition keeps
    /// places in order — so the child's order is the parent's with the
    /// sibling's samples taken out.
    fn partition_orders(&mut self, (lo, mid, hi): (usize, usize, usize)) {
        let round = self.members.len();
        self.spare.clear();
        self.spare.resize(hi - lo, 0);
        for run in self.orders.chunks_exact_mut(round) {
            // Every sample is written to the next free place of both sides
            // and only its own side's place moves on: no branch to mispredict.
            let (mut left, mut right) = (lo, 0);
            for from in lo..hi {
                let i = run[from];
                run[left] = i;
                self.spare[right] = i;
                let goes_left = self.goes_left[i as usize];
                left += usize::from(goes_left);
                right += usize::from(!goes_left);
            }
            debug_assert_eq!(left, mid);
            run[mid..hi].copy_from_slice(&self.spare[..hi - mid]);
        }
    }

    /// Fill `orders` with the root's order after every feature.
    fn sort_root(&mut self) {
        self.order.clear();
        self.order.extend_from_slice(&self.members);
        for feature in 0..self.ctx.data.width() {
            let (_, ranks) = self.ctx.column(feature);
            sort_by_rank(&mut self.order, ranks, &mut self.sort);
            self.orders.extend_from_slice(&self.order);
        }
    }

    /// Exhaustive best split of `members[lo..hi]` by variance reduction over
    /// (a subsample of) the features. Returns `None` when no split improves
    /// on the parent.
    fn best_split(
        &mut self,
        targets: &[f64],
        params: &TreeParams,
        (lo, hi): (usize, usize),
        rng: &mut ChaCha8Rng,
    ) -> Option<(usize, f64)> {
        let width = self.ctx.data.width();
        self.candidates.clear();
        self.candidates.extend(0..width);
        if let Some(k) = params.max_features {
            let k = k.clamp(1, width);
            self.candidates.shuffle(rng);
            self.candidates.truncate(k);
        }

        let y = |&i: &u32| targets[i as usize];
        let members = &self.members[lo..hi];
        let total_sum: f64 = members.iter().map(y).sum();
        let total_sq: f64 = members.iter().map(|i| y(i) * y(i)).sum();
        let n = members.len() as f64;
        let parent_sse = total_sq - total_sum * total_sum / n;

        // A threshold after position `pos` of the sorted samples leaves
        // `pos + 1` of them on the left: only `first..end` keep
        // `min_samples_leaf` on both sides.
        let leaf = params.min_samples_leaf.max(1);
        let (first, end) = (leaf - 1, members.len().saturating_sub(leaf));

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        let round = self.members.len();
        let inherited = params.max_features.is_none();
        if !inherited {
            self.order.clear();
            self.order.extend_from_slice(members);
        } else if self.orders.is_empty() {
            self.sort_root(); // the first search of a round is the root's
        }

        for &feature in &self.candidates {
            let (values, ranks) = self.ctx.column(feature);
            let order: &[u32] = if inherited {
                &self.orders[feature * round..][lo..hi]
            } else {
                sort_by_rank(&mut self.order, ranks, &mut self.sort);
                &self.order
            };
            // One finite value throughout (the samples are in rank order):
            // no threshold separates equal values.
            let (low, high) = (order[0] as usize, order[order.len() - 1] as usize);
            if ranks[low] == ranks[high] && values[low].is_finite() {
                continue;
            }
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let mut v_next = values[low];
            for (pos, (i, &next)) in order.iter().zip(&order[1..]).enumerate().take(end) {
                let y = y(i);
                left_sum += y;
                left_sq += y * y;
                let v = v_next;
                v_next = values[next as usize];
                let nl = (pos + 1) as f64;
                let nr = n - nl;
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse =
                    (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
                let tied = v_next - v < 1e-12; // no threshold between equal values
                let better = best.as_ref().is_none_or(|&(_, _, b)| sse < b - 1e-15);
                if (pos >= first) & !tied & better {
                    best = Some((feature, 0.5 * (v + v_next), sse));
                }
            }
        }

        best.filter(|&(_, _, sse)| sse < parent_sse - 1e-12)
            .map(|(f, t, _)| (f, t))
    }
}

/// Stable sort of the sample ids in `order` by `ranks[id]`.
///
/// This is the permutation `order.sort_by(|a, b| x[a].total_cmp(&x[b]))`
/// gives, not merely an equivalent one: a stable sort places any two
/// elements by their keys and, where those are equal, by the order they came
/// in, so its result is decided pair by pair and does not depend on how it
/// is computed — and ranks compare exactly as the values do.
fn sort_by_rank(order: &mut Vec<u32>, ranks: &[u32], scratch: &mut SortScratch) {
    let SortScratch {
        sorted,
        counts,
        keyed,
    } = scratch;
    let (mut min, mut max) = (u32::MAX, 0);
    for &i in order.iter() {
        let rank = ranks[i as usize];
        min = min.min(rank);
        max = max.max(rank);
    }
    if min >= max {
        return;
    }
    let span = (max - min) as usize + 1;
    sorted.clear();
    if span <= 2 * order.len() {
        // Counting sort: `counts[k]` becomes where rank `min + k` starts.
        counts.clear();
        counts.resize(span + 1, 0);
        for &i in order.iter() {
            counts[(ranks[i as usize] - min) as usize + 1] += 1;
        }
        for k in 1..span {
            counts[k + 1] += counts[k];
        }
        sorted.resize(order.len(), 0);
        for &i in order.iter() {
            let at = &mut counts[(ranks[i as usize] - min) as usize];
            sorted[*at as usize] = i;
            *at += 1;
        }
    } else {
        // Few samples over a wide span of ranks: sort (rank, place in the
        // incoming order) pairs, which are distinct, as plain integers.
        keyed.clear();
        keyed.extend(
            order
                .iter()
                .enumerate()
                .map(|(place, &i)| (u64::from(ranks[i as usize]) << 32) | place as u64),
        );
        keyed.sort_unstable();
        sorted.extend(keyed.iter().map(|&k| order[k as u32 as usize]));
    }
    std::mem::swap(order, sorted);
}

/// The buffers of [`sort_by_rank`], kept from call to call.
#[derive(Default)]
struct SortScratch {
    sorted: Vec<u32>,
    counts: Vec<u32>,
    keyed: Vec<u64>,
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
}

impl Regressor for DecisionTreeRegressor {
    fn predict(&self, x: &[f64]) -> f64 {
        self.tree.predict(x)
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
}

impl Classifier for DecisionTreeClassifier {
    fn score(&self, x: &[f64]) -> f64 {
        self.tree.predict(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The split search as it was before the fit context, kept as the
    /// reference the rank-keyed one is checked against: on a dataset holding
    /// exactly the round's rows, every node re-sorts its samples by value
    /// for every feature.
    mod reference {
        use super::*;

        pub(super) fn fit(data: &Dataset, params: &TreeParams) -> Tree {
            let mut tree = Tree { nodes: Vec::new() };
            let indices: Vec<usize> = (0..data.len()).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
            build(&mut tree, data, params, indices, 0, &mut rng);
            tree
        }

        fn build(
            tree: &mut Tree,
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
                        let node_id = tree.nodes.len();
                        tree.nodes.push(Node::Leaf { value: mean }); // placeholder
                        let left = build(tree, data, params, left_idx, depth + 1, rng);
                        let right = build(tree, data, params, right_idx, depth + 1, rng);
                        tree.nodes[node_id] = Node::Split {
                            feature: feature as u32,
                            threshold,
                            left: left as u32,
                            right: right as u32,
                        };
                        return node_id;
                    }
                }
            }
            let node_id = tree.nodes.len();
            tree.nodes.push(Node::Leaf { value: mean });
            node_id
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
                order.sort_by(|&a, &b| {
                    data.features[a][feature].total_cmp(&data.features[b][feature])
                });
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
                    if (nl as usize) < params.min_samples_leaf
                        || (nr as usize) < params.min_samples_leaf
                    {
                        continue;
                    }
                    let right_sum = total_sum - left_sum;
                    let right_sq = total_sq - left_sq;
                    let sse = (left_sq - left_sum * left_sum / nl)
                        + (right_sq - right_sum * right_sum / nr);
                    if best.as_ref().is_none_or(|&(_, _, b)| sse < b - 1e-15) {
                        best = Some((feature, 0.5 * (v + v_next), sse));
                    }
                }
            }

            best.filter(|&(_, _, sse)| sse < parent_sse - 1e-12)
                .map(|(f, t, _)| (f, t))
        }
    }

    /// Values picked to break an ordering that is only almost `total_cmp`'s:
    /// both zeros, both NaNs, infinities, and gaps at, below and above the
    /// split search's 1e-12 "same value" test.
    const AWKWARD: [f64; 14] = [
        0.0,
        -0.0,
        1.0,
        1.0 + 5e-13,
        1.0 + 1e-12,
        1.0 + 2e-12,
        -1.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-13,
        1e-300,
        2.5,
        -2.5,
    ];

    /// A `rows × width` dataset cut from `cells`: small cells are heavy ties
    /// on the awkward values (a negative NaN among them), the others are
    /// distinct per row, so a column's ranks can span far more than a node's
    /// samples. Every fourth row repeats the row before it.
    fn awkward_data(cells: &[u8], ys: &[i8], rows: usize, width: usize) -> Dataset {
        let cell = |i: usize, f: usize| {
            let i = if i % 4 == 3 { i - 1 } else { i };
            match cells[(i * width + f) % cells.len()] as usize {
                k if k < AWKWARD.len() => AWKWARD[k],
                14 => -f64::NAN,
                k => k as f64 * 0.5 + i as f64 * 1e-3,
            }
        };
        let features = (0..rows)
            .map(|i| (0..width).map(|f| cell(i, f)).collect())
            .collect();
        let targets = (0..rows)
            .map(|i| f64::from(ys[i % ys.len()]) / 4.0)
            .collect();
        Dataset::from_parts(features, targets)
    }

    fn bits(node: &Node) -> (u32, u64, u32, u32) {
        match *node {
            Node::Leaf { value } => (u32::MAX, value.to_bits(), 0, 0),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => (feature, threshold.to_bits(), left, right),
        }
    }

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
        #![proptest_config(ProptestConfig::with_cases(128))]
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

        /// Step by step over any sequence of features, the rank sort leaves
        /// the samples exactly where the stable sort on the values does.
        #[test]
        fn rank_sort_is_the_stable_value_sort(
            cells in proptest::collection::vec(0u8..40, 1..300),
            rows in 2usize..48,
            width in 1usize..5,
            picks in proptest::collection::vec(0usize..1000, 1..96),
            sequence in proptest::collection::vec(0usize..1000, 1..10),
        ) {
            let data = awkward_data(&cells, &[0], rows, width);
            let ctx = FitContext::new(&data);
            let mut scratch = SortScratch::default();
            // Bootstrap ids (repeats, gaps, any order): all of them, and few
            // enough that the ranks span far more than the samples.
            for picks in [&picks[..], &picks[..picks.len().min(6)]] {
                let mut by_value: Vec<usize> = picks.iter().map(|p| p % rows).collect();
                let mut by_rank: Vec<u32> = by_value.iter().map(|&i| i as u32).collect();
                for f in sequence.iter().map(|f| f % width) {
                    let (values, ranks) = ctx.column(f);
                    by_value.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
                    sort_by_rank(&mut by_rank, ranks, &mut scratch);
                    prop_assert!(by_rank.iter().map(|&i| i as usize).eq(by_value.iter().copied()));
                }
            }
        }

        /// Whole trees equal the reference's node for node, bit for bit, on
        /// rounds with repeated ids, with and without feature subsampling.
        #[test]
        fn trees_equal_the_reference_node_for_node(
            cells in proptest::collection::vec(0u8..40, 1..300),
            ys in proptest::collection::vec(-8i8..8, 1..40),
            rows in 2usize..48,
            width in 1usize..5,
            picks in proptest::collection::vec(0usize..1000, 1..96),
            bootstrap in any::<bool>(),
            max_features in 0usize..8,
            wide_leaves in any::<bool>(),
            max_depth in 0usize..7,
            seed in any::<u64>(),
        ) {
            let data = awkward_data(&cells, &ys, rows, width);
            let ids: Vec<usize> = if bootstrap {
                picks.iter().map(|p| p % rows).collect()
            } else {
                (0..rows).collect()
            };
            let params = TreeParams {
                max_depth,
                min_samples_split: 2 + seed as usize % 4,
                min_samples_leaf: if wide_leaves { 3 } else { 1 },
                max_features: (max_features % 2 == 1).then_some(max_features / 2 + 1),
                seed,
            };
            let expected = reference::fit(&data.subset(&ids), &params);
            let ctx = FitContext::new(&data);
            let mut fitter = TreeFitter::new(&ctx);
            // A fitter carries nothing from one round to the next.
            fitter.fit(&[0], &data.targets, &params);
            let tree = fitter.fit(&ids, &data.targets, &params);
            prop_assert!(tree.nodes.iter().map(bits).eq(expected.nodes.iter().map(bits)));
            for &i in &ids {
                prop_assert_eq!(fitter.leaf_of(i), tree.leaf_index(&data.features[i]));
            }
            if !bootstrap {
                let single = Tree::fit(&data, &params);
                prop_assert!(single.nodes.iter().map(bits).eq(expected.nodes.iter().map(bits)));
            }
        }
    }
}
