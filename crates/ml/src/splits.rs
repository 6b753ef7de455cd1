//! A boosted ensemble in feature-major leaf-bitvector form (QuickScorer,
//! Lucchese et al., SIGIR 2015), for evaluating many rows that share most
//! of their features.
//!
//! Number each tree's leaves left to right. A row's state is one `u32` per
//! tree with a bit per leaf, every bit set at the start. A split whose test
//! `x <= threshold` *fails* for the row clears the leaves under its left
//! child. Once every split of every feature has been applied, the row's
//! exit leaf in each tree is the lowest bit still set:
//!
//! * the exit leaf is never cleared — a split that has it under its left
//!   child is one of its ancestors that sent the row left, so its test
//!   passed;
//! * every leaf left of it is cleared — where its path and the exit leaf's
//!   part, the row went right, so that split failed, and the leaf is under
//!   its left child.
//!
//! [`SplitTable`] lists each feature's splits by ascending threshold. For a
//! value `x` the failing splits are a prefix of that list, of length
//! `thresholds.partition_point(|t| !(x <= t))`: `x == t` passes, `±0.0`
//! compare equal, and a NaN fails every split, exactly as a NaN goes right
//! in [`crate::tree`]'s walk. Features are independent, so they can be
//! applied in any order and at different times: a caller can apply the
//! features its rows share once and keep the state as a *prefix* that each
//! row starts from.
//!
//! Bit-identity contract: [`SplitTable::predict`] adds the exit leaves'
//! values in tree order onto `0.0` and returns `init + learning_rate · Σ`,
//! which is what [`crate::GbrtRegressor`]'s node walk computes, and what
//! [`crate::GbdtClassifier`]'s score is the [`crate::gbdt::sigmoid`] of.

use crate::tree::{Node, Tree};

/// Leaves a tree may have to be kept in one `u32` bitvector.
const MAX_LEAVES: usize = 32;

/// The clearing one split applies to a row whose test fails.
#[derive(Debug, Clone, Copy)]
struct Clear {
    tree: u32,
    /// Every leaf bit except those under the split's left child.
    keep: u32,
}

/// A boosted ensemble as per-feature sorted splits and per-tree leaf
/// values. Built by [`crate::GbrtRegressor::split_table`] and
/// [`crate::GbdtClassifier::split_table`].
#[derive(Debug, Clone)]
pub struct SplitTable {
    /// The splits of feature `f` are `starts[f]..starts[f + 1]` of
    /// `thresholds` and `clears`, by ascending threshold.
    starts: Vec<u32>,
    thresholds: Vec<f64>,
    clears: Vec<Clear>,
    /// Tree `t`'s leaves, leftmost first, at `leaf_values[t * MAX_LEAVES..]`.
    leaf_values: Vec<f64>,
    init: f64,
    learning_rate: f64,
}

impl SplitTable {
    /// Rows whose exit leaves [`SplitTable::predict_rows`] adds up side by
    /// side: independent sums in flight instead of one chain of dependent
    /// adds.
    pub const ROW_LANES: usize = 4;

    /// The table of `init + learning_rate · Σ trees`, or `None` when a tree
    /// has more than [`MAX_LEAVES`] leaves or a NaN threshold (a split that
    /// no row passes has no place in a sorted list).
    pub(crate) fn new(trees: &[Tree], init: f64, learning_rate: f64) -> Option<SplitTable> {
        // (feature, threshold, clear) of every split, in tree order.
        let mut splits: Vec<(usize, f64, Clear)> = Vec::new();
        let mut leaf_values = vec![0.0; trees.len() * MAX_LEAVES];
        let mut leaves = Vec::with_capacity(MAX_LEAVES);
        for (t, tree) in trees.iter().enumerate() {
            leaves.clear();
            walk(tree.nodes(), 0, t as u32, &mut leaves, &mut splits)?;
            leaf_values[t * MAX_LEAVES..][..leaves.len()].copy_from_slice(&leaves);
        }
        splits.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let n_features = splits.last().map_or(0, |s| s.0 + 1);
        let mut starts = vec![0u32; n_features + 1];
        for &(feature, ..) in &splits {
            starts[feature + 1] += 1;
        }
        for f in 0..n_features {
            starts[f + 1] += starts[f];
        }
        Some(SplitTable {
            starts,
            thresholds: splits.iter().map(|s| s.1).collect(),
            clears: splits.iter().map(|s| s.2).collect(),
            leaf_values,
            init,
            learning_rate,
        })
    }

    /// Number of trees: the length of a row's bitvector state.
    pub fn n_trees(&self) -> usize {
        self.leaf_values.len() / MAX_LEAVES
    }

    /// The state of a row before any feature is applied: every leaf live.
    pub fn start(&self, bits: &mut Vec<u32>) {
        bits.clear();
        bits.resize(self.n_trees(), u32::MAX);
    }

    /// Apply features `first..first + values.len()` of a row, valued
    /// `values`, to its state `bits`.
    pub fn apply(&self, first: usize, values: &[f64], bits: &mut [u32]) {
        debug_assert_eq!(bits.len(), self.n_trees());
        for (f, &x) in (first..self.starts.len().saturating_sub(1)).zip(values) {
            let splits = self.starts[f] as usize..self.starts[f + 1] as usize;
            // `!(x <= t)`, not `t < x`: a NaN feature fails every split.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let failing = self.thresholds[splits.clone()].partition_point(|&t| !(x <= t));
            for clear in &self.clears[splits.start..splits.start + failing] {
                bits[clear.tree as usize] &= clear.keep;
            }
        }
    }

    /// `init + learning_rate · Σ_t` the exit leaf of tree `t`, summed in
    /// tree order, for a row whose every feature has been applied to `bits`.
    pub fn predict(&self, bits: &[u32]) -> f64 {
        debug_assert_eq!(bits.len(), self.n_trees());
        let mut sum = 0.0;
        for (leaves, &live) in self.leaf_values.chunks_exact(MAX_LEAVES).zip(bits) {
            debug_assert!(live != 0, "a row's exit leaf is never cleared");
            sum += leaves[live.trailing_zeros() as usize % MAX_LEAVES];
        }
        self.init + self.learning_rate * sum
    }

    /// [`SplitTable::predict`] of each of `rows` rows whose states lie back
    /// to back in `bits`, appended to `out`. Blocks of [`Self::ROW_LANES`] rows
    /// are summed side by side, each row still in tree order.
    pub fn predict_rows(&self, rows: usize, bits: &[u32], out: &mut Vec<f64>) {
        let n = self.n_trees();
        debug_assert_eq!(bits.len(), rows * n);
        let mut row = 0;
        while rows - row >= Self::ROW_LANES {
            let block = &bits[row * n..(row + Self::ROW_LANES) * n];
            let mut sums = [0.0; Self::ROW_LANES];
            for (t, leaves) in self.leaf_values.chunks_exact(MAX_LEAVES).enumerate() {
                for (l, sum) in sums.iter_mut().enumerate() {
                    *sum += leaves[block[l * n + t].trailing_zeros() as usize % MAX_LEAVES];
                }
            }
            out.extend(sums.map(|sum| self.init + self.learning_rate * sum));
            row += Self::ROW_LANES;
        }
        out.extend((row..rows).map(|r| self.predict(&bits[r * n..(r + 1) * n])));
    }

    /// Splits on the features below `feature`.
    pub fn splits_before(&self, feature: usize) -> usize {
        self.starts
            .get(feature)
            .or(self.starts.last())
            .map_or(0, |&s| s as usize)
    }

    /// Splits over all features.
    pub fn n_splits(&self) -> usize {
        self.thresholds.len()
    }

    /// Heap bytes of the split and leaf arrays.
    pub fn bytes(&self) -> usize {
        self.starts.len() * std::mem::size_of::<u32>()
            + self.thresholds.len() * std::mem::size_of::<f64>()
            + self.clears.len() * std::mem::size_of::<Clear>()
            + self.leaf_values.len() * std::mem::size_of::<f64>()
    }
}

/// Append the values of the leaves under node `id` of tree `tree` to
/// `leaves`, left to right, and the splits above them to `splits`; returns
/// the range of leaf numbers under `id`, or `None` past [`MAX_LEAVES`]
/// leaves or at a NaN threshold.
fn walk(
    nodes: &[Node],
    id: usize,
    tree: u32,
    leaves: &mut Vec<f64>,
    splits: &mut Vec<(usize, f64, Clear)>,
) -> Option<std::ops::Range<usize>> {
    match nodes[id] {
        Node::Leaf { value } => {
            if leaves.len() == MAX_LEAVES {
                return None;
            }
            leaves.push(value);
            Some(leaves.len() - 1..leaves.len())
        }
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            if threshold.is_nan() {
                return None;
            }
            let under_left = walk(nodes, left as usize, tree, leaves, splits)?;
            let under_right = walk(nodes, right as usize, tree, leaves, splits)?;
            // Bits `under_left.start..under_left.end`; the end may be 32.
            let mask = (1u64 << under_left.end) - (1u64 << under_left.start);
            splits.push((
                feature as usize,
                threshold,
                Clear {
                    tree,
                    keep: !(mask as u32),
                },
            ));
            Some(under_left.start..under_right.end)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::gbdt::{sigmoid, GbdtClassifier, GbdtParams, GbrtRegressor};
    use crate::{Classifier, Regressor};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    const WIDTH: usize = 4;

    /// Every prefix length `k`: features `..k` applied first, then the
    /// rest, against the ensemble's own prediction, which is `link` of the
    /// table's.
    fn assert_every_prefix_matches(
        table: &SplitTable,
        x: &[f64],
        link: fn(f64) -> f64,
        want: f64,
    ) -> Result<(), TestCaseError> {
        let mut bits = Vec::new();
        for k in 0..=x.len() {
            table.start(&mut bits);
            table.apply(0, &x[..k], &mut bits);
            table.apply(k, &x[k..], &mut bits);
            let got = link(table.predict(&bits));
            prop_assert_eq!(got.to_bits(), want.to_bits(), "prefix {} of {:?}", k, x);
        }
        Ok(())
    }

    /// A probe feature: a plain value, or one of the cases the failing-split
    /// count has to get exactly right.
    fn probe(kind: u8, value: f64, pick: usize, thresholds: &[f64]) -> f64 {
        match kind {
            0 | 1 if !thresholds.is_empty() => thresholds[pick % thresholds.len()],
            2 => 0.0,
            3 => -0.0,
            4 => f64::NAN,
            5 => f64::INFINITY,
            6 => f64::NEG_INFINITY,
            _ => value,
        }
    }

    /// Features with ties and signed zeros, so thresholds land on values a
    /// probe can hit exactly.
    fn features(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                vec![
                    i as f64 / n as f64,
                    ((i * 7) % 5) as f64 - 2.0,
                    if i % 2 == 0 { 0.0 } else { -0.0 },
                    ((i * 3) % 11) as f64,
                ]
            })
            .collect()
    }

    /// Depth 0 makes every tree a single leaf.
    fn params(seed: u64, max_depth: usize) -> GbdtParams {
        GbdtParams {
            n_estimators: 15,
            max_depth,
            min_samples_leaf: 1,
            seed,
            ..GbdtParams::default()
        }
    }

    fn fit(ys: &[f64], features: &[Vec<f64>], seed: u64, max_depth: usize) -> GbrtRegressor {
        let data = Dataset::from_parts(features.to_vec(), ys.to_vec());
        GbrtRegressor::fit(&data, params(seed, max_depth))
    }

    fn probe_row(row: &[(u8, f64, usize)], thresholds: &[f64]) -> Vec<f64> {
        row.iter()
            .map(|&(kind, value, pick)| probe(kind, value, pick, thresholds))
            .collect()
    }

    fn probe_rows() -> impl Strategy<Value = Vec<Vec<(u8, f64, usize)>>> {
        proptest::collection::vec(
            proptest::collection::vec((0u8..10, -3.0f64..3.0, 0usize..10_000), WIDTH),
            24,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn every_prefix_split_predicts_like_the_ensemble(
            ys in proptest::collection::vec(-5.0f64..5.0, 12..40),
            raw in probe_rows(),
            seed in 0u64..1000,
            max_depth in 0usize..6,
        ) {
            let gbrt = fit(&ys, &features(ys.len()), seed, max_depth);
            let table = gbrt.split_table().expect("depth ≤ 5 fits 32 leaves");
            prop_assert_eq!(table.n_trees(), gbrt.n_trees());
            let (mut bits, mut all, mut want) = (Vec::new(), Vec::new(), Vec::new());
            for row in &raw {
                let x = probe_row(row, &table.thresholds);
                want.push(gbrt.predict(&x));
                assert_every_prefix_matches(&table, &x, |v| v, want[want.len() - 1])?;
                table.start(&mut bits);
                table.apply(0, &x, &mut bits);
                all.extend_from_slice(&bits);
            }
            // Every row count: full blocks of lanes and every remainder.
            let mut got = Vec::new();
            for rows in 0..=raw.len() {
                got.clear();
                table.predict_rows(rows, &all[..rows * table.n_trees()], &mut got);
                let bits_of = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits_of(&got), bits_of(&want[..rows]), "{} rows", rows);
            }
        }

        #[test]
        fn every_prefix_split_scores_like_the_classifier(
            ys in proptest::collection::vec(-5.0f64..5.0, 12..40),
            raw in probe_rows(),
            seed in 0u64..1000,
            max_depth in 0usize..6,
        ) {
            let labels = ys.iter().map(|&y| f64::from(y > 0.0)).collect();
            let data = Dataset::from_parts(features(ys.len()), labels);
            let gbdt = GbdtClassifier::fit(&data, params(seed, max_depth));
            let table = gbdt.split_table().expect("depth ≤ 5 fits 32 leaves");
            prop_assert_eq!(table.n_trees(), gbdt.n_trees());
            for row in &raw {
                let x = probe_row(row, &table.thresholds);
                assert_every_prefix_matches(&table, &x, sigmoid, gbdt.score(&x))?;
            }
        }
    }

    /// A tree of `n` leaves: a chain of splits on feature 0 at 0, 1, …,
    /// each sending its row right to the next, leaf `k` worth `k`.
    fn chain(n: usize) -> Tree {
        let mut nodes = Vec::new();
        for k in 0..n - 1 {
            nodes.push(Node::Split {
                feature: 0,
                threshold: k as f64,
                left: 2 * k as u32 + 1,
                right: 2 * k as u32 + 2,
            });
            nodes.push(Node::Leaf { value: k as f64 });
        }
        nodes.push(Node::Leaf {
            value: (n - 1) as f64,
        });
        Tree::from_nodes(nodes)
    }

    #[test]
    fn thirty_two_leaves_fit_and_thirty_three_do_not() {
        let tree = chain(MAX_LEAVES);
        let table = SplitTable::new(std::slice::from_ref(&tree), 0.5, 2.0).expect("32 leaves");
        assert_eq!((table.n_trees(), table.n_splits()), (1, 31));
        let mut bits = Vec::new();
        for x in [-1.0, 0.0, 0.5, 30.0, 30.5, 31.0, f64::INFINITY, f64::NAN] {
            table.start(&mut bits);
            table.apply(0, &[x], &mut bits);
            let want = 0.5 + 2.0 * tree.predict(&[x]);
            assert_eq!(table.predict(&bits).to_bits(), want.to_bits(), "at {x}");
        }
        assert!(SplitTable::new(&[chain(2), chain(MAX_LEAVES + 1)], 0.0, 1.0).is_none());
    }

    #[test]
    fn a_nan_threshold_gets_no_table() {
        let tree = Tree::from_nodes(vec![
            Node::Split {
                feature: 0,
                threshold: f64::NAN,
                left: 1,
                right: 2,
            },
            Node::Leaf { value: 1.0 },
            Node::Leaf { value: 2.0 },
        ]);
        assert!(SplitTable::new(&[tree], 0.0, 1.0).is_none());
    }

    #[test]
    fn split_counts_by_feature() {
        let ys: Vec<f64> = (0..30).map(|i| ((i * 7) % 10) as f64).collect();
        let features: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![i as f64, ((i * 3) % 7) as f64])
            .collect();
        let table = fit(&ys, &features, 1, 3).split_table().unwrap();
        assert_eq!(table.splits_before(0), 0);
        assert!(table.splits_before(1) > 0);
        assert_eq!(table.splits_before(2), table.n_splits());
        assert_eq!(table.splits_before(99), table.n_splits());
    }
}
