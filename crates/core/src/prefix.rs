//! Target prefixes: the RM's leaf bitvectors after each game's own features.
//!
//! An RM row is the target game's flattened sensitivity curves followed by
//! the `I_G` aggregate of its co-runners' intensities (paper Eq. 4). At the
//! default granularity that is 77 *fixed* features, the same in every row
//! of that game at either resolution, and 15 *free* ones. When the RM has a
//! [`SplitTable`], [`TargetPrefixes`] applies every profiled game's fixed
//! features to a fresh table state once, when the predictor is built, and
//! keeps the result. A row then copies its target's prefix, applies its 15
//! free features, and reads off the exit leaves — the same bits as
//! evaluating the full row, by the argument in [`gaugur_ml::splits`].

use crate::features::{flatten_sensitivity_into, AGGREGATE_INTENSITY_WIDTH};
use crate::model::RegressionModel;
use crate::train::{Placement, ProfileStore};
use gaugur_gamesim::GameId;
use gaugur_ml::SplitTable;
use std::collections::HashMap;

/// The RM's split table and one prefix per profiled game.
#[derive(Debug)]
pub(crate) struct TargetPrefixes {
    table: SplitTable,
    games: HashMap<GameId, Prefix>,
}

/// One game's table state after its fixed features.
#[derive(Debug)]
struct Prefix {
    /// Index of the row's first free feature.
    free_from: usize,
    bits: Box<[u32]>,
}

/// Size figures of the target prefixes, for `gaugur inspect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixStats {
    /// RM splits on the target's own (fixed) features, applied once per game.
    pub fixed_splits: usize,
    /// RM splits on the co-runner aggregate (free) features, applied per row.
    pub free_splits: usize,
    /// Heap bytes of the split table.
    pub table_bytes: usize,
    /// Games holding a prefix.
    pub games: usize,
    /// Heap bytes of all prefixes.
    pub prefix_bytes: usize,
}

impl TargetPrefixes {
    /// Prefixes of every game in `profiles`; `None` when `rm` has no split
    /// table.
    pub(crate) fn build(rm: &RegressionModel, profiles: &ProfileStore) -> Option<TargetPrefixes> {
        let table = rm.split_table()?;
        let (mut fixed, mut bits) = (Vec::new(), Vec::new());
        let games = profiles
            .sorted()
            .into_iter()
            .map(|profile| {
                fixed.clear();
                flatten_sensitivity_into(profile, &mut fixed);
                table.start(&mut bits);
                table.apply(0, &fixed, &mut bits);
                let prefix = Prefix {
                    free_from: fixed.len(),
                    bits: bits.as_slice().into(),
                };
                (profile.id, prefix)
            })
            .collect();
        Some(TargetPrefixes { table, games })
    }

    /// The unclamped RM prediction of each row, appended to `out`: row `i`
    /// has target `targets[i]` and free features
    /// `free[i * AGGREGATE_INTENSITY_WIDTH..]`. `bits` is scratch for one
    /// block of [`SplitTable::ROW_LANES`] rows.
    pub(crate) fn predict_rows(
        &self,
        targets: &[Placement],
        free: &[f64],
        bits: &mut Vec<u32>,
        out: &mut Vec<f64>,
    ) {
        let lanes = SplitTable::ROW_LANES;
        out.reserve(targets.len());
        let blocks = free.chunks(lanes * AGGREGATE_INTENSITY_WIDTH);
        for (targets, free) in targets.chunks(lanes).zip(blocks) {
            bits.clear();
            // Grown to a full block at once, not row by row.
            bits.reserve(lanes * self.table.n_trees());
            for (&(game, _), x) in targets.iter().zip(free.chunks(AGGREGATE_INTENSITY_WIDTH)) {
                let prefix = self
                    .games
                    .get(&game)
                    .unwrap_or_else(|| panic!("no profile for game {game}"));
                let row = bits.len();
                bits.extend_from_slice(&prefix.bits);
                self.table.apply(prefix.free_from, x, &mut bits[row..]);
            }
            self.table.predict_rows(targets.len(), bits, out);
        }
    }

    pub(crate) fn stats(&self) -> PrefixStats {
        let free_from = self.games.values().map(|p| p.free_from).min();
        let fixed_splits = free_from.map_or(0, |f| self.table.splits_before(f));
        PrefixStats {
            fixed_splits,
            free_splits: self.table.n_splits() - fixed_splits,
            table_bytes: self.table.bytes(),
            games: self.games.len(),
            prefix_bytes: self.games.len() * self.table.n_trees() * std::mem::size_of::<u32>(),
        }
    }
}
