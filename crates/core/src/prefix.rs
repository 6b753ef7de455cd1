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
//!
//! The RM is staged ([`STAGE_ONE_TREES`]): its table is cut after its first
//! trees, each part with its own prefix per game, and a row's running leaf
//! sum goes through the first part and then on through the second, which
//! changes no bit. After the first stage alone a row has an upper bound on
//! its prediction — its partial sum plus the second part's ceiling for the
//! row's co-runner count, which every game keeps one of per count — so a
//! caller that finds the bound too low to matter can stop the row there.

use crate::features::{flatten_sensitivity_into, AGGREGATE_INTENSITY_WIDTH};
use crate::hash::FastMap;
use crate::train::{Placement, ProfileStore};
use gaugur_gamesim::GameId;
use gaugur_ml::splits::LANES;
use gaugur_ml::SplitTable;
use std::ops::Range;

/// Trees in the RM's first stage. Boosting's late trees carry small
/// leaves, so after its first quarter most rows' bounds already fall below
/// a candidate that wins. Sized on a serial replay of `place_cold`-shaped
/// traffic (the ledger's model, 400 trees, 64 servers, seed 7): the rows
/// that still need the second stage were 45.5 / 25.0 / 14.3 / 8.5 / 5.4 %
/// at 50 / 75 / 100 / 125 / 150 trees, while the first stage's share of a
/// row's work grows with it (about 29 % of its failing-split clears at
/// 100). From 75 to 150 the place time stayed within the host's spread;
/// 100 is the middle of that flat stretch.
pub(crate) const STAGE_ONE_TREES: usize = 100;

/// Co-runner counts a game keeps a second-stage ceiling for: 0 to 3, the
/// sizes a four-session server's colocations give its members.
const CEILING_COUNTS: usize = 4;

/// A model's split table, cut into two stages, and one prefix per profiled
/// game.
#[derive(Debug)]
pub(crate) struct TargetPrefixes {
    /// The model's first trees (all of them for an unstaged model).
    head: SplitTable,
    /// The rest: a row's leaf sum continues through these.
    tail: SplitTable,
    /// Where a row holds its target's sensitivity features: what a prefix
    /// has applied.
    fixed: Range<usize>,
    games: FastMap<GameId, Prefix>,
}

/// One game's prefix: the table states after its sensitivity features, and
/// the second stage's ceiling for each co-runner count.
#[derive(Debug)]
struct Prefix {
    /// The first stage's state, then the second's.
    bits: Box<[u32]>,
    /// [`SplitTable::ceiling`] of the second stage's state with the
    /// co-runner count (the first `I_G` feature) applied as well.
    ceilings: [f64; CEILING_COUNTS],
}

/// Size figures of one model's target prefixes, for `gaugur inspect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixStats {
    /// Splits on the target's own (fixed) features, applied once per game.
    pub fixed_splits: usize,
    /// Splits on the row's other (free) features, applied per row.
    pub free_splits: usize,
    /// Heap bytes of the split tables.
    pub table_bytes: usize,
    /// Games holding a prefix.
    pub games: usize,
    /// Heap bytes of all prefixes.
    pub prefix_bytes: usize,
    /// Trees in the first stage.
    pub stage_one_trees: usize,
    /// Trees in all.
    pub trees: usize,
    /// Heap bytes of the second-stage ceilings of all games.
    pub ceiling_bytes: usize,
}

impl TargetPrefixes {
    /// Prefixes of every game in `profiles`, for a table whose rows hold
    /// their target's sensitivity features from feature `fixed_from` on,
    /// with its first `stage_one` trees as the first stage.
    pub(crate) fn build(
        table: SplitTable,
        fixed_from: usize,
        stage_one: usize,
        profiles: &ProfileStore,
    ) -> TargetPrefixes {
        let (head, tail) = table.split_at(stage_one);
        let (mut values, mut bits, mut tail_bits) = (Vec::new(), Vec::new(), Vec::new());
        let games = profiles
            .sorted()
            .into_iter()
            .map(|profile| {
                values.clear();
                flatten_sensitivity_into(profile, &mut values);
                head.start(&mut bits);
                head.apply(fixed_from, &values, &mut bits);
                tail.start(&mut tail_bits);
                tail.apply(fixed_from, &values, &mut tail_bits);
                bits.extend_from_slice(&tail_bits);
                let count_feature = fixed_from + values.len();
                let ceilings = std::array::from_fn(|count| {
                    let mut state = tail_bits.clone();
                    tail.apply(count_feature, &[count as f64], &mut state);
                    tail.ceiling(&state)
                });
                let prefix = Prefix {
                    bits: bits.as_slice().into(),
                    ceilings,
                };
                (profile.id, prefix)
            })
            .collect();
        TargetPrefixes {
            head,
            tail,
            fixed: fixed_from..fixed_from + values.len(),
            games,
        }
    }

    fn prefix(&self, game: GameId) -> &Prefix {
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
        bits.extend_from_slice(&self.prefix(game).bits);
        let (first, second) = bits.split_at_mut(self.head.n_trees());
        let mut sum = 0.0;
        for (table, bits) in [(&self.head, first), (&self.tail, second)] {
            // A stage with no trees (the CM's second) adds nothing.
            if table.n_trees() == 0 {
                continue;
            }
            table.apply(0, head, bits);
            table.apply(self.fixed.end, tail, bits);
            sum = table.sum_onto(sum, bits);
        }
        self.head.output(sum)
    }

    /// Run one stage of the RM table over rows: row `i` has target
    /// `targets[i]` and `I_G` features `free[i * AGGREGATE_INTENSITY_WIDTH..]`,
    /// and its leaf sum continues from `sums[i]`, which it is left in. Rows
    /// go through the table [`LANES`] at a time, each block's last lanes
    /// padded with `-∞` features; `block` is scratch for one block. A stage
    /// with no trees leaves the sums as they are.
    fn run_stage(
        &self,
        second: bool,
        targets: &[Placement],
        free: &[f64],
        block: &mut Vec<[u32; LANES]>,
        sums: &mut [f64],
    ) {
        debug_assert_eq!(self.fixed.start, 0, "rows have no head features");
        let (table, from) = match second {
            false => (&self.head, 0),
            true => (&self.tail, self.head.n_trees()),
        };
        let n = table.n_trees();
        if n == 0 {
            return;
        }
        let blocks = free.chunks(LANES * AGGREGATE_INTENSITY_WIDTH);
        let sums = sums.chunks_mut(LANES);
        for ((targets, free), sums) in targets.chunks(LANES).zip(blocks).zip(sums) {
            let mut states: [&[u32]; LANES] = [&[]; LANES];
            let mut values = [[f64::NEG_INFINITY; LANES]; AGGREGATE_INTENSITY_WIDTH];
            let rows = targets.iter().zip(free.chunks(AGGREGATE_INTENSITY_WIDTH));
            for (l, (&(game, _), x)) in rows.enumerate() {
                states[l] = &self.prefix(game).bits[from..from + n];
                for (lanes, &v) in values.iter_mut().zip(x) {
                    lanes[l] = v;
                }
            }
            table.start_lanes(&states[..targets.len()], block);
            table.apply_lanes(self.fixed.end, &values, block);
            let mut lanes = [0.0; LANES];
            lanes[..sums.len()].copy_from_slice(sums);
            table.sum_lanes_onto(&mut lanes, block);
            sums.copy_from_slice(&lanes[..sums.len()]);
        }
    }

    /// The RM table's prediction of each row, appended to `out`: row `i`
    /// has target `targets[i]` and `I_G` features
    /// `free[i * AGGREGATE_INTENSITY_WIDTH..]`. `block` is scratch for one
    /// block of [`LANES`] rows.
    pub(crate) fn predict_rows(
        &self,
        targets: &[Placement],
        free: &[f64],
        block: &mut Vec<[u32; LANES]>,
        out: &mut Vec<f64>,
    ) {
        let first = out.len();
        out.resize(first + targets.len(), 0.0);
        let sums = &mut out[first..];
        self.run_stage(false, targets, free, block, sums);
        self.run_stage(true, targets, free, block, sums);
        for v in sums {
            *v = self.head.output(*v);
        }
    }

    /// The first stage of [`TargetPrefixes::predict_rows`]: each row's leaf
    /// sum over the first stage's trees, appended to `partials`, and an
    /// upper bound on its prediction, appended to `bounds` — the second
    /// stage's ceiling for the row's target and co-runner count (`+∞`, so
    /// no bound below the clamp, for a count it keeps none for).
    pub(crate) fn bound_rows(
        &self,
        targets: &[Placement],
        free: &[f64],
        block: &mut Vec<[u32; LANES]>,
        partials: &mut Vec<f64>,
        bounds: &mut Vec<f64>,
    ) {
        let first = partials.len();
        partials.resize(first + targets.len(), 0.0);
        self.run_stage(false, targets, free, block, &mut partials[first..]);
        let rows = targets.iter().zip(free.chunks(AGGREGATE_INTENSITY_WIDTH));
        bounds.extend(
            rows.zip(&partials[first..])
                .map(|((&(game, _), x), &partial)| {
                    let count = x[0] as usize;
                    let ceiling = match self.prefix(game).ceilings.get(count) {
                        Some(&ceiling) if count as f64 == x[0] => ceiling,
                        _ => f64::INFINITY,
                    };
                    self.tail.bound(partial, ceiling)
                }),
        );
    }

    /// The second stage: the prediction of each row
    /// [`TargetPrefixes::bound_rows`] left at `partials`, into `out` — the
    /// same bits as [`TargetPrefixes::predict_rows`].
    pub(crate) fn finish_rows(
        &self,
        targets: &[Placement],
        free: &[f64],
        partials: &[f64],
        block: &mut Vec<[u32; LANES]>,
        out: &mut [f64],
    ) {
        out.copy_from_slice(partials);
        self.run_stage(true, targets, free, block, out);
        for v in out {
            *v = self.head.output(*v);
        }
    }

    pub(crate) fn stats(&self) -> PrefixStats {
        let tables = [&self.head, &self.tail];
        let fixed =
            |t: &SplitTable| t.splits_before(self.fixed.end) - t.splits_before(self.fixed.start);
        let fixed_splits = tables.map(fixed).iter().sum();
        let trees = self.head.n_trees() + self.tail.n_trees();
        let games = self.games.len();
        PrefixStats {
            fixed_splits,
            free_splits: tables.map(SplitTable::n_splits).iter().sum::<usize>() - fixed_splits,
            table_bytes: tables.map(SplitTable::bytes).iter().sum(),
            games,
            prefix_bytes: games * trees * std::mem::size_of::<u32>(),
            stage_one_trees: self.head.n_trees(),
            trees,
            ceiling_bytes: games * std::mem::size_of::<[f64; CEILING_COUNTS]>(),
        }
    }
}
