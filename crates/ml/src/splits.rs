//! A boosted ensemble in feature-major leaf-bitvector form (QuickScorer,
//! Lucchese et al., SIGIR 2015), for evaluating many rows that share most
//! of their features.
//!
//! Number each tree's leaves left to right. A row's state is one `u32` per
//! tree with a bit per leaf, every leaf's bit set at the start. A split whose test
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
//! Bit-identity contract: [`SplitTable::sum_onto`] `0.0` adds the exit
//! leaves' values in tree order, and [`SplitTable::output`] of that sum is
//! `init + learning_rate · Σ`, which is what [`crate::GbrtRegressor`]'s
//! node walk computes, and what [`crate::GbdtClassifier`]'s score is the
//! [`crate::gbdt::sigmoid`] of.
//!
//! Rows in lanes (v-QuickScorer, Lucchese et al., SIGIR 2016): a block
//! holds [`LANES`] rows side by side, tree-major, one `[u32; LANES]` per
//! tree. [`SplitTable::apply_lanes`] walks each feature's sorted splits
//! once for all lanes, clearing a lane's leaves where `!(x <= t)`, and
//! stops at the first split every lane passes. Each lane's failing splits
//! are a prefix of the list, so the walk applies to every lane exactly the
//! clears the `partition_point` count above gives it, with no binary
//! search. A lane that holds no row takes `-∞`, which passes every split
//! and so never lengthens a walk; a NaN lane fails every split, and the
//! walk then runs the feature's whole list. [`SplitTable::sum_lanes_onto`]
//! adds each lane's exit leaves in tree order, the bits of
//! [`SplitTable::sum_onto`].
//!
//! Staged evaluation: [`SplitTable::split_at`] cuts a table into its first
//! trees and the rest. Summing the first table's exit leaves and then
//! continuing the same running sum through the second is the whole sum,
//! bit for bit. After the first stage, [`SplitTable::ceiling`] and
//! [`SplitTable::bound`] bound what the second can still add, from the
//! leaves a row's state leaves live — an exact upper bound in `f64`, so a
//! caller that only needs to know a row cannot win can stop there.

use crate::tree::{Node, Tree};

/// Leaves a tree may have to be kept in one `u32` bitvector.
const MAX_LEAVES: usize = 32;

/// Rows a lane block holds side by side: independent split tests and
/// leaf sums in flight instead of one row's chain of dependent ones.
pub const LANES: usize = 4;

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
    /// Tree `t`'s leaf bits: one per leaf it has, from bit 0.
    leaf_bits: Vec<u32>,
    init: f64,
    learning_rate: f64,
}

impl SplitTable {
    /// The table of `init + learning_rate · Σ trees`, or `None` when a tree
    /// has more than [`MAX_LEAVES`] leaves or a NaN threshold (a split that
    /// no row passes has no place in a sorted list).
    pub(crate) fn new(trees: &[Tree], init: f64, learning_rate: f64) -> Option<SplitTable> {
        // (feature, threshold, clear) of every split, in tree order.
        let mut splits: Vec<(usize, f64, Clear)> = Vec::new();
        let mut leaf_values = vec![0.0; trees.len() * MAX_LEAVES];
        let mut leaf_bits = Vec::with_capacity(trees.len());
        let mut leaves = Vec::with_capacity(MAX_LEAVES);
        for (t, tree) in trees.iter().enumerate() {
            leaves.clear();
            let all = walk(tree.nodes(), 0, t as u32, &mut leaves, &mut splits)?;
            leaf_values[t * MAX_LEAVES..][..leaves.len()].copy_from_slice(&leaves);
            leaf_bits.push(((1u64 << all.end) - 1) as u32);
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
            leaf_bits,
            init,
            learning_rate,
        })
    }

    /// The table as two: trees `..at` and trees `at..` (`at` capped at the
    /// tree count), each with this table's `init` and learning rate. A
    /// row's state in either is its state here cut at tree `at`, so the
    /// first table's [`SplitTable::sum_onto`] `0.0`, continued by the
    /// second's onto that partial sum, is this table's sum bit for bit.
    pub fn split_at(&self, at: usize) -> (SplitTable, SplitTable) {
        let at = at.min(self.n_trees());
        let part = |keep: &dyn Fn(u32) -> bool, first_tree: u32, trees: std::ops::Range<usize>| {
            let mut starts = vec![0u32];
            let (mut thresholds, mut clears) = (Vec::new(), Vec::new());
            for f in 0..self.starts.len() - 1 {
                let range = self.starts[f] as usize..self.starts[f + 1] as usize;
                for (&t, &clear) in self.thresholds[range.clone()]
                    .iter()
                    .zip(&self.clears[range])
                {
                    if keep(clear.tree) {
                        thresholds.push(t);
                        clears.push(Clear {
                            tree: clear.tree - first_tree,
                            keep: clear.keep,
                        });
                    }
                }
                starts.push(thresholds.len() as u32);
            }
            SplitTable {
                starts,
                thresholds,
                clears,
                leaf_values: self.leaf_values[trees.start * MAX_LEAVES..trees.end * MAX_LEAVES]
                    .to_vec(),
                leaf_bits: self.leaf_bits[trees].to_vec(),
                init: self.init,
                learning_rate: self.learning_rate,
            }
        };
        let n = self.n_trees();
        let first = at as u32;
        (
            part(&|tree| tree < first, 0, 0..at),
            part(&|tree| tree >= first, first, at..n),
        )
    }

    /// Number of trees: the length of a row's bitvector state.
    pub fn n_trees(&self) -> usize {
        self.leaf_bits.len()
    }

    /// The state of a row before any feature is applied: every leaf live.
    pub fn start(&self, bits: &mut Vec<u32>) {
        bits.clear();
        bits.extend_from_slice(&self.leaf_bits);
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

    /// `start` plus each tree's exit leaf, added in tree order, for a row
    /// whose every feature has been applied to `bits`.
    pub fn sum_onto(&self, start: f64, bits: &[u32]) -> f64 {
        debug_assert_eq!(bits.len(), self.n_trees());
        let mut sum = start;
        for (leaves, &live) in self.leaf_values.chunks_exact(MAX_LEAVES).zip(bits) {
            debug_assert!(live != 0, "a row's exit leaf is never cleared");
            sum += leaves[live.trailing_zeros() as usize % MAX_LEAVES];
        }
        sum
    }

    /// The prediction of a row whose exit leaves sum to `sum`:
    /// `init + learning_rate · sum`.
    pub fn output(&self, sum: f64) -> f64 {
        self.init + self.learning_rate * sum
    }

    /// Start a block of [`LANES`] rows, tree-major in `block`: lane `l`
    /// from the state `rows[l]`, and every lane past `rows.len()` — a
    /// padding lane, whose features must be `-∞` — with every leaf live.
    pub fn start_lanes(&self, rows: &[&[u32]], block: &mut Vec<[u32; LANES]>) {
        debug_assert!(rows.len() <= LANES);
        block.clear();
        block.extend(self.leaf_bits.iter().map(|&all| [all; LANES]));
        for (l, row) in rows.iter().enumerate() {
            debug_assert_eq!(row.len(), self.n_trees());
            for (lanes, &bits) in block.iter_mut().zip(*row) {
                lanes[l] = bits;
            }
        }
    }

    /// [`SplitTable::apply`] for every lane of `block` at once: lane `l`'s
    /// feature `first + k` is `values[k][l]`. A feature's splits are walked
    /// once, up to the first that every lane passes.
    pub fn apply_lanes(&self, first: usize, values: &[[f64; LANES]], block: &mut [[u32; LANES]]) {
        debug_assert_eq!(block.len(), self.n_trees());
        for (f, x) in (first..self.starts.len().saturating_sub(1)).zip(values) {
            // Every lane passes a split at or above its largest value, and
            // no split with a NaN lane: the largest of a NaN is NaN, which
            // is at or below no threshold.
            let top = x
                .iter()
                .fold(f64::NEG_INFINITY, |top, &v| match v > top || v.is_nan() {
                    true => v,
                    false => top,
                });
            let splits = self.starts[f] as usize..self.starts[f + 1] as usize;
            for (&t, clear) in self.thresholds[splits.clone()]
                .iter()
                .zip(&self.clears[splits])
            {
                if top <= t {
                    break;
                }
                let lanes = &mut block[clear.tree as usize];
                for (bits, &x) in lanes.iter_mut().zip(x) {
                    // A lane that passes (`x <= t`) keeps every bit.
                    *bits &= clear.keep | u32::from(x <= t).wrapping_neg();
                }
            }
        }
    }

    /// [`SplitTable::sum_onto`] for every lane of `block`: lane `l`'s exit
    /// leaves added onto `sums[l]`, in tree order.
    pub fn sum_lanes_onto(&self, sums: &mut [f64; LANES], block: &[[u32; LANES]]) {
        debug_assert_eq!(block.len(), self.n_trees());
        for (leaves, lanes) in self.leaf_values.chunks_exact(MAX_LEAVES).zip(block) {
            for (sum, &live) in sums.iter_mut().zip(lanes) {
                debug_assert!(live != 0, "a row's exit leaf is never cleared");
                *sum += leaves[live.trailing_zeros() as usize % MAX_LEAVES];
            }
        }
    }

    /// The relative rounding allowance of continuing a sum through this
    /// table: `(n_trees + 4) · ε`, twice the `(n_trees + 4)` unit
    /// roundoffs the argument at [`SplitTable::ceiling`] needs.
    pub fn slack(&self) -> f64 {
        (self.n_trees() + 4) as f64 * f64::EPSILON
    }

    /// A ceiling on what this table's exit leaves add to a running sum,
    /// for a row whose state is `bits` or any state further features take
    /// it to: for every start `p`, [`sum_onto`](SplitTable::sum_onto)`(p, ·)
    /// <= p + ceiling + |p| · slack` in `f64`, and so
    /// [`SplitTable::bound`]`(p, ceiling)` bounds the output.
    ///
    /// A row's exit leaf is one of the leaves still live in `bits`
    /// (applying a feature only clears bits), so the tree adds at most the
    /// largest of them, `m_t`, and at most `a_t` in magnitude. The ceiling
    /// is `Σ m_t + 2·slack·Σ a_t + MIN_POSITIVE`, each sum in tree order.
    /// Why that holds in floating point: with `u = ε/2` and `k` trees, the
    /// recursive sum `sum_onto(p, ·)` is within `γ_k·(|p| + Σ a_t)` of the
    /// real `p + Σ leaves ≤ p + Σ m_t` (γ_k = k·u/(1 − k·u)); the rounded
    /// `Σ m_t` is within `γ_k·Σ a_t` of the real one; and the handful of
    /// roundings in the ceiling and in the bound cost a few `u` more. A
    /// slack of `2(k + 4)·u` per unit of `|p| + 2·Σ a_t` covers all of it
    /// about twice over, and `MIN_POSITIVE` covers underflow. A NaN leaf
    /// still live makes the ceiling NaN, which bounds nothing.
    pub fn ceiling(&self, bits: &[u32]) -> f64 {
        debug_assert_eq!(bits.len(), self.n_trees());
        let (mut top, mut magnitude) = (0.0, 0.0);
        for (leaves, &live) in self.leaf_values.chunks_exact(MAX_LEAVES).zip(bits) {
            debug_assert!(live != 0, "a row's exit leaf is never cleared");
            let (mut m, mut a, mut nan) = (f64::NEG_INFINITY, 0.0f64, false);
            let mut rest = live;
            while rest != 0 {
                let v = leaves[rest.trailing_zeros() as usize];
                rest &= rest - 1;
                (m, a, nan) = (m.max(v), a.max(v.abs()), nan || v.is_nan());
            }
            top += if nan { f64::NAN } else { m };
            magnitude += a;
        }
        top + 2.0 * magnitude * self.slack() + f64::MIN_POSITIVE
    }

    /// An upper bound on [`SplitTable::output`] of
    /// [`SplitTable::sum_onto`]`(start, ·)` from a [`SplitTable::ceiling`]:
    /// the output of `start + ceiling + |start| · slack`, summed in that
    /// order. The output rises with the sum only for a positive learning
    /// rate; for any other, and when `start` or `ceiling` is NaN, the bound
    /// is NaN, which bounds nothing.
    pub fn bound(&self, start: f64, ceiling: f64) -> f64 {
        match self.learning_rate > 0.0 {
            true => self.output(start + ceiling + start.abs() * self.slack()),
            false => f64::NAN,
        }
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
            + self.leaf_bits.len() * std::mem::size_of::<u32>()
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
            let got = link(table.output(table.sum_onto(0.0, &bits)));
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
            for row in &raw {
                let x = probe_row(row, &table.thresholds);
                assert_every_prefix_matches(&table, &x, |v| v, gbrt.predict(&x))?;
            }
        }

        /// At every cut, the first table's sum continued through the second
        /// is the whole table's; and after the
        /// first stage and any prefix of the second's features, the
        /// ceiling bounds what the second stage adds, whatever the row's
        /// remaining features are.
        #[test]
        fn a_split_table_continues_the_sum_and_its_ceiling_bounds_it(
            ys in proptest::collection::vec(-5.0f64..5.0, 12..40),
            raw in probe_rows(),
            seed in 0u64..1000,
            max_depth in 0usize..6,
            at in 0usize..20,
            shared in 0usize..=WIDTH,
        ) {
            let gbrt = fit(&ys, &features(ys.len()), seed, max_depth);
            let table = gbrt.split_table().expect("depth ≤ 5 fits 32 leaves");
            let (head, tail) = table.split_at(at);
            prop_assert_eq!(head.n_trees() + tail.n_trees(), table.n_trees());
            prop_assert_eq!(head.n_splits() + tail.n_splits(), table.n_splits());
            let mut bits = Vec::new();
            for row in &raw {
                let x = probe_row(row, &table.thresholds);
                head.start(&mut bits);
                head.apply(0, &x, &mut bits);
                let partial = head.sum_onto(0.0, &bits);
                // The second stage's ceiling from the features rows share.
                tail.start(&mut bits);
                tail.apply(0, &x[..shared], &mut bits);
                let ceiling = tail.ceiling(&bits);
                tail.apply(shared, &x[shared..], &mut bits);
                let got = table.output(tail.sum_onto(partial, &bits));
                prop_assert_eq!(got.to_bits(), gbrt.predict(&x).to_bits());
                let bound = tail.bound(partial, ceiling);
                prop_assert!(got <= bound, "{} above its bound {}", got, bound);
            }
        }

        /// Blocks of one to four rows, padding lanes included, in the whole
        /// table and in both halves of a cut: each lane's state after
        /// `start_lanes` from a shared-feature prefix and `apply_lanes` of
        /// the rest, and its sum onto a running start, are the row's own
        /// `apply` and `sum_onto` bits; a padding lane keeps every leaf.
        #[test]
        fn lane_blocks_match_rows_applied_one_by_one(
            ys in proptest::collection::vec(-5.0f64..5.0, 12..40),
            raw in probe_rows(),
            widths in proptest::collection::vec(1usize..=LANES, 24),
            starts in proptest::collection::vec((0u8..10, -50.0f64..50.0), 24),
            seed in 0u64..1000,
            max_depth in 0usize..6,
            at in 0usize..20,
            shared in 0usize..=WIDTH,
        ) {
            let gbrt = fit(&ys, &features(ys.len()), seed, max_depth);
            let table = gbrt.split_table().expect("depth ≤ 5 fits 32 leaves");
            let (head, tail) = table.split_at(at);
            let rows: Vec<Vec<f64>> =
                raw.iter().map(|row| probe_row(row, &table.thresholds)).collect();
            let starts: Vec<f64> =
                starts.iter().map(|&(kind, v)| probe(kind, v, 0, &[])).collect();
            let (mut one, mut prefixes, mut block) = (Vec::new(), Vec::new(), Vec::new());
            for table in [&table, &head, &tail] {
                let mut all = Vec::new();
                table.start(&mut all);
                let mut first = 0;
                for &width in &widths {
                    let block_rows = first..(first + width).min(rows.len());
                    if block_rows.is_empty() {
                        break;
                    }
                    let n = block_rows.len();
                    // Each row's prefix: its shared features, applied alone.
                    prefixes.clear();
                    for x in &rows[block_rows.clone()] {
                        table.start(&mut one);
                        table.apply(0, &x[..shared], &mut one);
                        prefixes.push(one.clone());
                    }
                    let states: Vec<&[u32]> = prefixes.iter().map(Vec::as_slice).collect();
                    table.start_lanes(&states, &mut block);
                    let mut values = [[f64::NEG_INFINITY; LANES]; WIDTH];
                    for (l, x) in rows[block_rows.clone()].iter().enumerate() {
                        for (k, &v) in x[shared..].iter().enumerate() {
                            values[k][l] = v;
                        }
                    }
                    table.apply_lanes(shared, &values[..WIDTH - shared], &mut block);
                    let mut sums = [f64::NAN; LANES];
                    sums[..n].copy_from_slice(&starts[block_rows.clone()]);
                    table.sum_lanes_onto(&mut sums, &block);
                    for (l, x) in rows[block_rows.clone()].iter().enumerate() {
                        table.start(&mut one);
                        table.apply(0, x, &mut one);
                        let lane: Vec<u32> = block.iter().map(|lanes| lanes[l]).collect();
                        prop_assert_eq!(&lane, &one, "lane {} of {:?}", l, x);
                        let want = table.sum_onto(starts[first + l], &one);
                        prop_assert_eq!(sums[l].to_bits(), want.to_bits(), "sum of {:?}", x);
                    }
                    for l in n..LANES {
                        let lane: Vec<u32> = block.iter().map(|lanes| lanes[l]).collect();
                        prop_assert_eq!(&lane, &all, "padding lane {}", l);
                    }
                    first = block_rows.end;
                }
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
            let got = table.output(table.sum_onto(0.0, &bits));
            assert_eq!(got.to_bits(), want.to_bits(), "at {x}");
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
