//! Target prefixes: a boosted model's leaf bitvectors after each game's own
//! features.
//!
//! Both of GAugur's models read the target game's flattened sensitivity
//! curves, 77 features at the default granularity and the same in every row
//! of that game at either resolution. An RM row is those curves followed by
//! the 15-wide `I_G` aggregate of the co-runners (paper Eq. 4); a CM row
//! leads with the QoS floor, the solo FPS and their ratio, and goes on as an
//! RM row (Eq. 3). When a model has a [`SplitTable`], [`TargetPrefixes`]
//! applies every profiled game's sensitivity features to a fresh table state
//! once, when the predictor is built, and keeps the result. A row then
//! copies its target's prefix, applies its other features, and reads off
//! the exit leaves — the same bits as the node walk over the full row, by
//! the argument in [`gaugur_ml::splits`].

use crate::features::{flatten_sensitivity_into, AGGREGATE_INTENSITY_WIDTH};
use crate::train::{Placement, ProfileStore};
use gaugur_gamesim::GameId;
use gaugur_ml::SplitTable;
use std::collections::HashMap;
use std::ops::Range;

/// A model's split table and one prefix per profiled game.
#[derive(Debug)]
pub(crate) struct TargetPrefixes {
    table: SplitTable,
    /// Where a row holds its target's sensitivity features: what a prefix
    /// has applied.
    fixed: Range<usize>,
    /// Each game's table state after its sensitivity features.
    games: HashMap<GameId, Box<[u32]>>,
}

/// Size figures of one model's target prefixes, for `gaugur inspect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixStats {
    /// Splits on the target's own (fixed) features, applied once per game.
    pub fixed_splits: usize,
    /// Splits on the row's other (free) features, applied per row.
    pub free_splits: usize,
    /// Heap bytes of the split table.
    pub table_bytes: usize,
    /// Games holding a prefix.
    pub games: usize,
    /// Heap bytes of all prefixes.
    pub prefix_bytes: usize,
}

impl TargetPrefixes {
    /// Prefixes of every game in `profiles`, for a table whose rows hold
    /// their target's sensitivity features from feature `fixed_from` on.
    pub(crate) fn build(
        table: SplitTable,
        fixed_from: usize,
        profiles: &ProfileStore,
    ) -> TargetPrefixes {
        let (mut values, mut bits) = (Vec::new(), Vec::new());
        let games = profiles
            .sorted()
            .into_iter()
            .map(|profile| {
                values.clear();
                flatten_sensitivity_into(profile, &mut values);
                table.start(&mut bits);
                table.apply(fixed_from, &values, &mut bits);
                (profile.id, bits.as_slice().into())
            })
            .collect();
        TargetPrefixes {
            table,
            fixed: fixed_from..fixed_from + values.len(),
            games,
        }
    }

    fn prefix(&self, game: GameId) -> &[u32] {
        self.games
            .get(&game)
            .unwrap_or_else(|| panic!("no profile for game {game}"))
    }

    /// The table's prediction for one row: target `game`, `head` the
    /// features before its sensitivity features and `tail` those after.
    /// `bits` is scratch for the row's state.
    pub(crate) fn predict(
        &self,
        game: GameId,
        head: &[f64],
        tail: &[f64],
        bits: &mut Vec<u32>,
    ) -> f64 {
        debug_assert_eq!(head.len(), self.fixed.start);
        bits.clear();
        bits.extend_from_slice(self.prefix(game));
        self.table.apply(0, head, bits);
        self.table.apply(self.fixed.end, tail, bits);
        self.table.predict(bits)
    }

    /// The RM table's prediction of each row, appended to `out`: row `i`
    /// has target `targets[i]` and `I_G` features
    /// `free[i * AGGREGATE_INTENSITY_WIDTH..]`. `bits` is scratch for one
    /// block of [`SplitTable::ROW_LANES`] rows.
    pub(crate) fn predict_rows(
        &self,
        targets: &[Placement],
        free: &[f64],
        bits: &mut Vec<u32>,
        out: &mut Vec<f64>,
    ) {
        debug_assert_eq!(self.fixed.start, 0, "rows have no head features");
        let lanes = SplitTable::ROW_LANES;
        out.reserve(targets.len());
        let blocks = free.chunks(lanes * AGGREGATE_INTENSITY_WIDTH);
        for (targets, free) in targets.chunks(lanes).zip(blocks) {
            bits.clear();
            // Grown to a full block at once, not row by row.
            bits.reserve(lanes * self.table.n_trees());
            for (&(game, _), x) in targets.iter().zip(free.chunks(AGGREGATE_INTENSITY_WIDTH)) {
                let row = bits.len();
                bits.extend_from_slice(self.prefix(game));
                self.table.apply(self.fixed.end, x, &mut bits[row..]);
            }
            self.table.predict_rows(targets.len(), bits, out);
        }
    }

    pub(crate) fn stats(&self) -> PrefixStats {
        let fixed_splits =
            self.table.splits_before(self.fixed.end) - self.table.splits_before(self.fixed.start);
        PrefixStats {
            fixed_splits,
            free_splits: self.table.n_splits() - fixed_splits,
            table_bytes: self.table.bytes(),
            games: self.games.len(),
            prefix_bytes: self.games.len() * self.table.n_trees() * std::mem::size_of::<u32>(),
        }
    }
}
