//! Tree ensembles compiled into one flat node array.
//!
//! A fitted ensemble is a `Vec<Tree>` of `Vec<Node>` enums walked pointer by
//! pointer: every level is a dependent load through a `match`, and every
//! tree lives in its own heap block. [`CompiledEnsemble`] lays all trees of
//! an ensemble out back to back in one contiguous array of 16-byte nodes
//! `{threshold, feature, first_child}`:
//!
//! * each tree is stored **breadth-first**, so the two children of a split
//!   are adjacent and one level of descent is branch-free:
//!   `next = first_child + !(x[feature] <= threshold)` — the same
//!   `x <= threshold → left` rule as [`Tree::predict`], with NaN going right;
//! * a **leaf loops onto itself** (`threshold = NaN` makes the comparison
//!   false for every `x`, `first_child = self − 1`), so every tree of the
//!   ensemble runs the same fixed number of steps — the depth of its deepest
//!   tree — and a lane that reached its leaf early just stays there, with no
//!   per-lane exit test;
//! * leaf values sit in a **parallel array** indexed by node, read once per
//!   tree after the descent.
//!
//! Evaluation is **row-block-major**: [`ROW_LANES`] rows descend tree after
//! tree in lockstep with their running sums in registers, so the independent
//! lanes keep several node loads in flight and nothing is stored per tree.
//! A call with fewer rows than that (the single newcomer row of a placement,
//! a `predict_qos`) interleaves across [`TREE_LANES`] *trees* of one row
//! instead — padding a short call out to full row blocks was measured slower
//! than the node walk it replaced.
//!
//! Bit-identity contract: both kernels add the leaf values of one row in
//! tree order onto a `0.0` seed, exactly like the node-walk reference
//! `trees.iter().map(|t| t.predict(x))` summed in order.

use crate::batch::Rows;
use crate::tree::{Node, Tree};

/// Rows descending one tree in lockstep in the row-block kernel.
const ROW_LANES: usize = 16;

/// Trees of one row descending in lockstep in the short-call kernel.
const TREE_LANES: usize = 8;

/// One node of a compiled tree (16 bytes).
#[derive(Debug, Clone, Copy)]
struct FlatNode {
    /// Split threshold; NaN on a leaf.
    threshold: f64,
    /// Feature compared against the threshold; 0 on a leaf.
    feature: u32,
    /// Index of the left child, the right child being the next node; on a
    /// leaf, its own index minus one (wrapping), so that the always-false
    /// comparison steps back onto the leaf.
    first_child: u32,
}

impl FlatNode {
    /// The node reached from this one by a row whose split feature is `x`.
    #[inline(always)]
    // `!(x <= t)`, not `x > t`: a NaN feature must go right, as in the walk.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn descend(self, x: f64) -> u32 {
        self.first_child
            .wrapping_add(u32::from(!(x <= self.threshold)))
    }
}

/// Size figures of a compiled ensemble, for `gaugur inspect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledStats {
    /// Trees in the ensemble.
    pub trees: usize,
    /// Nodes over all trees.
    pub nodes: usize,
    /// Heap bytes of the node, leaf-value and root arrays.
    pub bytes: usize,
    /// Depth of the deepest tree: the steps every tree is run for.
    pub max_depth: usize,
}

/// A whole ensemble in one breadth-first node array: the only form a fitted
/// ensemble is kept in. Built from the fitted trees at fit, warm-start and
/// deserialize time; turned back into them ([`CompiledEnsemble::to_trees`])
/// to be serialized or extended.
#[derive(Debug, Clone)]
pub(crate) struct CompiledEnsemble {
    nodes: Vec<FlatNode>,
    /// Leaf value per node (0.0 on splits).
    values: Vec<f64>,
    /// Index of each tree's root, in tree order.
    roots: Vec<u32>,
    depth: usize,
}

impl CompiledEnsemble {
    /// Compile `trees`, keeping their order.
    pub(crate) fn compile(trees: &[Tree]) -> CompiledEnsemble {
        let total: usize = trees.iter().map(Tree::node_count).sum();
        assert!(
            u32::try_from(total).is_ok(),
            "ensemble of {total} nodes exceeds the compiled index width"
        );
        let mut out = CompiledEnsemble {
            nodes: Vec::with_capacity(total),
            values: Vec::with_capacity(total),
            roots: Vec::with_capacity(trees.len()),
            depth: 0,
        };
        // (source node id, depth) in breadth-first order of the current tree;
        // the compiled position of entry `k` is `base + k`.
        let mut order: Vec<(usize, usize)> = Vec::new();
        for tree in trees {
            let base = out.nodes.len();
            out.roots.push(base as u32);
            order.clear();
            order.push((0, 0));
            let mut k = 0;
            while k < order.len() {
                let (id, depth) = order[k];
                let at = (base + k) as u32;
                match tree.nodes()[id] {
                    Node::Leaf { value } => {
                        out.nodes.push(FlatNode {
                            threshold: f64::NAN,
                            feature: 0,
                            first_child: at.wrapping_sub(1),
                        });
                        out.values.push(value);
                        out.depth = out.depth.max(depth);
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        out.nodes.push(FlatNode {
                            threshold,
                            feature: u32::try_from(feature).expect("feature index fits u32"),
                            first_child: (base + order.len()) as u32,
                        });
                        out.values.push(0.0);
                        order.push((left, depth + 1));
                        order.push((right, depth + 1));
                    }
                }
                k += 1;
            }
        }
        out
    }

    /// The trees this ensemble was compiled from, node for node: `Tree::fit`
    /// numbers nodes in pre-order (a split, its left subtree, its right
    /// subtree), and so does this walk.
    pub(crate) fn to_trees(&self) -> Vec<Tree> {
        fn emit(ensemble: &CompiledEnsemble, at: u32, nodes: &mut Vec<Node>) -> usize {
            let id = nodes.len();
            let node = ensemble.nodes[at as usize];
            if node.first_child.wrapping_add(1) == at {
                nodes.push(Node::Leaf {
                    value: ensemble.values[at as usize],
                });
            } else {
                nodes.push(Node::Leaf { value: 0.0 }); // placeholder
                let left = emit(ensemble, node.first_child, nodes);
                let right = emit(ensemble, node.first_child + 1, nodes);
                nodes[id] = Node::Split {
                    feature: node.feature as usize,
                    threshold: node.threshold,
                    left,
                    right,
                };
            }
            id
        }
        self.roots
            .iter()
            .map(|&root| {
                let mut nodes = Vec::new();
                emit(self, root, &mut nodes);
                Tree::from_nodes(nodes)
            })
            .collect()
    }

    /// Number of trees.
    pub(crate) fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Size figures for diagnostics.
    pub(crate) fn stats(&self) -> CompiledStats {
        CompiledStats {
            trees: self.roots.len(),
            nodes: self.nodes.len(),
            bytes: self.nodes.len() * std::mem::size_of::<FlatNode>()
                + self.values.len() * std::mem::size_of::<f64>()
                + self.roots.len() * std::mem::size_of::<u32>(),
            max_depth: self.depth,
        }
    }

    /// One level of descent from node `at` for row `x`.
    #[inline(always)]
    fn step(&self, at: u32, x: &[f64]) -> u32 {
        let node = self.nodes[at as usize];
        node.descend(x[node.feature as usize])
    }

    /// Sum of every tree's leaf value for one row, trees interleaved.
    pub(crate) fn sum_one(&self, x: &[f64]) -> f64 {
        let mut sum = 0.0;
        let mut groups = self.roots.chunks_exact(TREE_LANES);
        for group in &mut groups {
            let mut at: [u32; TREE_LANES] = group.try_into().expect("exact chunk");
            for _ in 0..self.depth {
                for a in &mut at {
                    *a = self.step(*a, x);
                }
            }
            for a in at {
                sum += self.values[a as usize];
            }
        }
        for &root in groups.remainder() {
            let mut at = root;
            for _ in 0..self.depth {
                at = self.step(at, x);
            }
            sum += self.values[at as usize];
        }
        sum
    }

    /// `out[i] = Σ_t leaf value of tree t for rows.row(i)`, in tree order.
    pub(crate) fn sum_rows(&self, rows: Rows<'_>, out: &mut [f64]) {
        debug_assert_eq!(rows.len(), out.len());
        let width = rows.width();
        let mut blocks = out.chunks_exact_mut(ROW_LANES);
        let mut base = 0;
        for block in &mut blocks {
            // Lane `l`'s row is `xs[l * width..][..width]`: one base pointer
            // for the block instead of a slice per lane.
            let xs = &rows.flat()[base * width..(base + ROW_LANES) * width];
            let mut acc = [0.0; ROW_LANES];
            for &root in &self.roots {
                // Every lane starts at the root, so its fields are loaded
                // once for the first level.
                let node = self.nodes[root as usize];
                let feature = node.feature as usize;
                let mut at = [0u32; ROW_LANES];
                for (l, a) in at.iter_mut().enumerate() {
                    *a = node.descend(xs[l * width + feature]);
                }
                for _ in 1..self.depth {
                    for (l, a) in at.iter_mut().enumerate() {
                        let node = self.nodes[*a as usize];
                        *a = node.descend(xs[l * width + node.feature as usize]);
                    }
                }
                for (sum, a) in acc.iter_mut().zip(at) {
                    *sum += self.values[a as usize];
                }
            }
            block.copy_from_slice(&acc);
            base += ROW_LANES;
        }
        for (slot, i) in blocks.into_remainder().iter_mut().zip(base..) {
            *slot = self.sum_one(rows.row(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::forest::{ForestParams, RandomForestClassifier, RandomForestRegressor};
    use crate::gbdt::{GbdtClassifier, GbdtParams, GbrtRegressor};
    use crate::tree::TreeParams;
    use crate::{Classifier, Regressor};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use serde::Serialize;

    /// Rows probed per case; every prefix length `1..=MAX_ROWS` is evaluated
    /// as one batch, so full row blocks, remainders and sub-block calls are
    /// all covered.
    const MAX_ROWS: usize = 40;

    fn training_sets(ys: &[f64]) -> (Dataset, Dataset) {
        let n = ys.len();
        let features: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, ((i * 7) % 13) as f64])
            .collect();
        let regression = Dataset::from_parts(features.clone(), ys.to_vec());
        let labels: Vec<f64> = ys.iter().map(|&y| f64::from(y > 0.0)).collect();
        (regression, Dataset::from_parts(features, labels))
    }

    fn split_thresholds(trees: &[Tree]) -> Vec<f64> {
        trees
            .iter()
            .flat_map(|t| t.nodes())
            .filter_map(|n| match n {
                Node::Split { threshold, .. } => Some(*threshold),
                Node::Leaf { .. } => None,
            })
            .collect()
    }

    /// A probe feature: a plain value, or one of the cases the descent rule
    /// has to get exactly right — a value equal to a split threshold, either
    /// zero, NaN.
    fn probe(kind: u8, value: f64, pick: usize, thresholds: &[f64]) -> f64 {
        match kind {
            0 if !thresholds.is_empty() => thresholds[pick % thresholds.len()],
            1 => 0.0,
            2 => -0.0,
            3 => f64::NAN,
            _ => value,
        }
    }

    type RawRow = ((u8, f64, usize), (u8, f64, usize));

    fn flat_rows(raw: &[RawRow], thresholds: &[f64]) -> Vec<f64> {
        raw.iter()
            .flat_map(|&((k0, v0, p0), (k1, v1, p1))| {
                [
                    probe(k0, v0, p0, thresholds),
                    // The second training feature is integral, so scale it.
                    probe(k1, v1 * 6.0, p1, thresholds),
                ]
            })
            .collect()
    }

    /// Every prefix of `flat` as one batch against the per-row reference.
    fn assert_batches_match(
        flat: &[f64],
        mut batch: impl FnMut(Rows<'_>, &mut Vec<f64>),
        scalar: impl Fn(&[f64]) -> f64,
        reference: impl Fn(&[f64]) -> f64,
    ) -> Result<(), TestCaseError> {
        let mut out = Vec::new();
        for n in 1..=flat.len() / 2 {
            let rows = Rows::new(&flat[..2 * n], 2);
            batch(rows, &mut out);
            prop_assert_eq!(out.len(), n);
            for (i, got) in out.iter().enumerate() {
                let want = reference(rows.row(i));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "batch of {}, row {}", n, i);
            }
        }
        for x in flat.chunks_exact(2) {
            prop_assert_eq!(
                scalar(x).to_bits(),
                reference(x).to_bits(),
                "scalar at {:?}",
                x
            );
        }
        Ok(())
    }

    fn row_strategy() -> impl Strategy<Value = Vec<RawRow>> {
        let feature = || (0u8..8, -2.0f64..2.0, 0usize..10_000);
        proptest::collection::vec((feature(), feature()), MAX_ROWS)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The layer below the models, against trees that never went
        /// through `compile`: the kernels agree with the walk over the
        /// fitted trees, and decompiling gives those trees back node for
        /// node — which is what lets the model-level tests below (and the
        /// serializers) take `to_trees` as the fitted ensemble.
        #[test]
        fn compiling_keeps_every_tree_and_every_answer(
            ys in proptest::collection::vec(-5.0f64..5.0, 16..40),
            raw in row_strategy(),
            seed in 0u64..1000,
            n_trees in 1usize..20,
        ) {
            let (regression, _) = training_sets(&ys);
            // Trees of every depth from 0 up, over shifted targets.
            let trees: Vec<Tree> = (0..n_trees)
                .map(|t| {
                    let data = Dataset::from_parts(
                        regression.features.clone(),
                        ys.iter().enumerate().map(|(i, y)| y * ((i + t) % 3) as f64).collect(),
                    );
                    let params = TreeParams {
                        max_depth: t % 7,
                        min_samples_split: 2,
                        min_samples_leaf: 1,
                        max_features: None,
                        seed: seed + t as u64,
                    };
                    Tree::fit(&data, &params)
                })
                .collect();
            let compiled = CompiledEnsemble::compile(&trees);
            prop_assert_eq!(compiled.n_trees(), n_trees);
            prop_assert_eq!(compiled.stats().max_depth, trees.iter().map(Tree::depth).max().unwrap());
            prop_assert_eq!(compiled.to_trees().serialize(), trees.serialize());

            let flat = flat_rows(&raw, &split_thresholds(&trees));
            assert_batches_match(
                &flat,
                |rows, out| {
                    out.clear();
                    out.resize(rows.len(), 0.0);
                    compiled.sum_rows(rows, out);
                },
                |x| compiled.sum_one(x),
                |x| trees.iter().fold(0.0, |sum, t| sum + t.predict(x)),
            )?;
        }

        #[test]
        fn compiled_ensembles_match_the_node_walk_bit_for_bit(
            ys in proptest::collection::vec(-5.0f64..5.0, 16..40),
            raw in row_strategy(),
            seed in 0u64..1000,
        ) {
            let (regression, classification) = training_sets(&ys);
            let params = GbdtParams { n_estimators: 12, seed, ..GbdtParams::default() };
            let forest = ForestParams { n_trees: 7, seed, ..ForestParams::default() };

            let gbrt = GbrtRegressor::fit(&regression, params);
            let flat = flat_rows(&raw, &split_thresholds(&gbrt.trees()));
            assert_batches_match(
                &flat,
                |rows, out| gbrt.predict_batch(rows, out),
                |x| gbrt.predict(x),
                |x| gbrt.node_walk(x),
            )?;

            let gbdt = GbdtClassifier::fit(&classification, params);
            let flat = flat_rows(&raw, &split_thresholds(&gbdt.trees()));
            assert_batches_match(
                &flat,
                |rows, out| gbdt.score_batch(rows, out),
                |x| gbdt.score(x),
                |x| gbdt.node_walk(x),
            )?;

            let rf = RandomForestRegressor::fit(&regression, forest);
            let flat = flat_rows(&raw, &split_thresholds(&rf.trees()));
            assert_batches_match(
                &flat,
                |rows, out| rf.predict_batch(rows, out),
                |x| rf.predict(x),
                |x| rf.node_walk(x),
            )?;

            let rfc = RandomForestClassifier::fit(&classification, forest);
            assert_batches_match(
                &flat,
                |rows, out| rfc.score_batch(rows, out),
                |x| rfc.score(x),
                |x| rfc.node_walk(x),
            )?;
        }

        #[test]
        fn warm_started_ensembles_are_recompiled(
            ys in proptest::collection::vec(-5.0f64..5.0, 16..40),
            raw in row_strategy(),
            seed in 0u64..1000,
            extra in 1usize..6,
        ) {
            let (regression, _) = training_sets(&ys);
            let shifted = Dataset::from_parts(
                regression.features.clone(),
                regression.targets.iter().map(|y| y + 0.5).collect(),
            );
            let params = GbdtParams { n_estimators: 9, seed, ..GbdtParams::default() };
            let base = GbrtRegressor::fit(&regression, params);

            // Zero extra rounds: same trees, same compiled answers.
            let same = base.continue_fit(&shifted, 0);
            let flat = flat_rows(&raw, &split_thresholds(&base.trees()));
            assert_batches_match(
                &flat,
                |rows, out| same.predict_batch(rows, out),
                |x| same.predict(x),
                |x| base.node_walk(x),
            )?;

            // k extra rounds: the compiled form covers the appended trees.
            let grown = base.continue_fit(&shifted, extra);
            prop_assert_eq!(grown.compiled_stats().trees, 9 + extra);
            let flat = flat_rows(&raw, &split_thresholds(&grown.trees()));
            assert_batches_match(
                &flat,
                |rows, out| grown.predict_batch(rows, out),
                |x| grown.predict(x),
                |x| grown.node_walk(x),
            )?;
        }

        #[test]
        fn serialized_shape_is_unchanged_and_round_trips(
            ys in proptest::collection::vec(-5.0f64..5.0, 16..40),
            raw in row_strategy(),
            seed in 0u64..1000,
        ) {
            let (regression, classification) = training_sets(&ys);
            let params = GbdtParams { n_estimators: 6, seed, ..GbdtParams::default() };
            let forest = ForestParams { n_trees: 4, seed, ..ForestParams::default() };
            let flat = flat_rows(&raw, &[]);
            let rows = Rows::new(&flat, 2);
            let (mut a, mut b) = (Vec::new(), Vec::new());

            let gbrt = GbrtRegressor::fit(&regression, params);
            let json = serde_json::to_string(&gbrt).unwrap();
            // The derive's shape: the three fields in declaration order and
            // nothing of the compiled form.
            prop_assert!(json.starts_with(r#"{"init":"#), "{}", &json[..40]);
            prop_assert!(json.contains(r#""trees":[{"nodes":["#), "no trees");
            prop_assert!(json.contains(r#""params":{"n_estimators":6,"#), "no params");
            prop_assert!(!json.contains("compiled") && !json.contains("first_child"));
            let back: GbrtRegressor = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&serde_json::to_string(&back).unwrap(), &json);
            gbrt.predict_batch(rows, &mut a);
            back.predict_batch(rows, &mut b);
            prop_assert_eq!(bits(&a), bits(&b));

            let gbdt = GbdtClassifier::fit(&classification, params);
            let json = serde_json::to_string(&gbdt).unwrap();
            let back: GbdtClassifier = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&serde_json::to_string(&back).unwrap(), &json);
            gbdt.score_batch(rows, &mut a);
            back.score_batch(rows, &mut b);
            prop_assert_eq!(bits(&a), bits(&b));

            let rf = RandomForestRegressor::fit(&regression, forest);
            let json = serde_json::to_string(&rf).unwrap();
            prop_assert!(json.starts_with(r#"{"forest":{"trees":[{"nodes":["#), "{}", &json[..40]);
            let back: RandomForestRegressor = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&serde_json::to_string(&back).unwrap(), &json);
            rf.predict_batch(rows, &mut a);
            back.predict_batch(rows, &mut b);
            prop_assert_eq!(bits(&a), bits(&b));
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_single_leaf_tree_compiles_to_a_self_loop() {
        // Constant targets: every tree is one leaf, depth 0, root at index 0
        // of the array (the wrapping `first_child` case).
        let data = Dataset::from_parts(vec![vec![0.0], vec![1.0], vec![2.0]], vec![5.0; 3]);
        let m = GbrtRegressor::fit(
            &data,
            GbdtParams {
                n_estimators: 3,
                subsample: 1.0,
                ..GbdtParams::default()
            },
        );
        let stats = m.compiled_stats();
        assert_eq!((stats.trees, stats.nodes, stats.max_depth), (3, 3, 0));
        assert_eq!(stats.bytes, 3 * (16 + 8 + 4));
        let flat: Vec<f64> = (0..20).map(f64::from).collect();
        let mut out = Vec::new();
        m.predict_batch(Rows::new(&flat, 1), &mut out);
        for (x, got) in flat.iter().zip(&out) {
            assert_eq!(got.to_bits(), m.node_walk(&[*x]).to_bits());
            assert_eq!(m.predict(&[*x]).to_bits(), got.to_bits());
        }
    }
}
