//! # gaugur-sched — interference-aware game request assignment
//!
//! Section 5 of the GAugur paper applies the prediction models to two
//! scheduling problems:
//!
//! 1. **Minimizing resource usage with QoS guarantees** (Section 5.1,
//!    [`algorithm1`]): pack a stream of gaming requests onto as few servers
//!    as possible such that every colocated game keeps its QoS frame rate —
//!    a greedy set-cover over the feasible colocations (approximation ratio
//!    `ln k`).
//! 2. **Maximizing overall performance** (Section 5.2, [`maxfps`]): pack the
//!    requests onto a *fixed* fleet so the average frame rate is maximal —
//!    an online greedy guided by predicted FPS, against VBP worst-fit.
//!
//! Every Section 5.2 decision, offline or online, is one call of
//! [`select_server`] ([`placement`]): [`maxfps::assign`] streams a request
//! list through it, the [`dynamic`] module's discrete-event simulation of
//! live session arrivals and departures calls it per arrival, and so does
//! the serving daemon.
//!
//! The [`coloc`] module enumerates and measures the candidate colocations
//! (the 385 ≤4-game subsets of 10 games used throughout the paper's Figures
//! 9–10) and [`eval`] scores final placements against the simulator's ground
//! truth.
//!
//! ## The batched scoring hot path
//!
//! Every interference model enters the scheduler through
//! [`InterferencePredictor`] (re-exported from `gaugur-core`), wrapped by
//! [`PredictorFps`] into the [`FpsModel`] / [`FeasibilityModel`] vocabulary
//! the greedies speak. The hot path is two stages over a whole
//! [`ColocationBatch`] of candidate colocations:
//! [`FpsModel::bound_colocation_sums`] answers every colocation with its
//! summed FPS or an upper bound on it, and
//! [`FpsModel::finish_colocation_sum`] makes one bounded colocation exact.
//! An exact sum is the two run to the end ([`exact_colocation_sums`]). For
//! GAugur each stage is one fused pass over the RM's split tables, and a
//! finished sum is bit-identical to the scalar per-member loop by
//! contract.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithm1;
pub mod coloc;
pub mod dynamic;
pub mod eval;
pub mod maxfps;
pub mod placement;
pub mod requests;

pub use algorithm1::{pack_requests, PackingResult};
pub use coloc::{enumerate_subsets, ColocationTable, FeasibilityReport};
pub use dynamic::{simulate_dynamic, DynamicConfig, DynamicResult, Policy};
pub use eval::{evaluate_cluster, ClusterEvaluation};
pub use maxfps::{assign, assign_max_fps, MaxFpsResult};
pub use placement::{
    eligible_servers, rank_shard_selections, select_server, select_server_if_resident,
    select_server_incremental, select_server_incremental_with, NotResident, OccupancyView,
    PlacementScratch, ScoreCache, Selection,
};
pub use requests::{random_requests, RequestCounts};

use gaugur_core::{
    DegradationBatch, FeatureBuffer, GAugur, InterferencePredictor, Placement, ProfileStore,
};

/// A batch of prospective colocations to score together: member lists are
/// stored back to back in one flat pool, so refilling each decision round
/// allocates nothing once the backing storage has grown.
#[derive(Debug, Default)]
pub struct ColocationBatch {
    pool: Vec<Placement>,
    spans: Vec<(usize, usize)>,
}

impl ColocationBatch {
    /// A fresh, empty batch.
    pub fn new() -> ColocationBatch {
        ColocationBatch::default()
    }

    /// Drop all colocations, keeping capacity.
    pub fn clear(&mut self) {
        self.pool.clear();
        self.spans.clear();
    }

    /// Number of colocations queued.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no colocations are queued.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Queue one colocation.
    pub fn push(&mut self, members: &[Placement]) {
        let start = self.pool.len();
        self.pool.extend_from_slice(members);
        self.spans.push((start, members.len()));
    }

    /// Queue `members` with `extra` appended — the "what if this candidate
    /// joins" colocation, assembled without a temporary `Vec`.
    pub fn push_extended(&mut self, members: &[Placement], extra: Placement) {
        let start = self.pool.len();
        self.pool.extend_from_slice(members);
        self.pool.push(extra);
        self.spans.push((start, members.len() + 1));
    }

    /// The members of colocation `i`.
    pub fn members(&self, i: usize) -> &[Placement] {
        let (start, len) = self.spans[i];
        &self.pool[start..start + len]
    }
}

/// Reusable scratch for batched FPS scoring: the degradation query plan,
/// the feature buffers it is answered through, and the per-query results.
/// One per worker; a scoring call borrows it, overwrites its contents and
/// leaves the grown capacity behind (same ownership rule as
/// [`FeatureBuffer`]).
#[derive(Default)]
pub struct PredictScratch {
    /// Degradation queries assembled from the colocation batch.
    pub queries: DegradationBatch,
    /// Feature-assembly scratch threaded into the predictor.
    pub features: FeatureBuffer,
    /// Per-query degradation ratios returned by the predictor.
    pub values: Vec<f64>,
    /// Summed-FPS scratch for implementations.
    pub sums: Vec<f64>,
    /// First-stage answers that [`exact_colocation_sums`] finishes.
    pub bounds: Vec<SumBound>,
    /// What a cache in front of [`PredictorFps`] passes on to it.
    pub misses: CacheMisses,
    /// After [`PredictorFps`]'s first stage: where each colocation's member
    /// queries start in `queries` (a closed form has none).
    staged: Vec<usize>,
}

/// The colocations of a batch that a cache in front of [`PredictorFps`]
/// (the serving daemon's memo) does not hold, as a batch of their own for
/// `PredictorFps`'s two stages.
#[derive(Debug, Default)]
pub struct CacheMisses {
    /// The missed colocations, in the order of the batch they came from.
    pub batch: ColocationBatch,
    /// Each one's index in that batch, ascending.
    pub at: Vec<usize>,
    /// [`FpsModel::bound_colocation_sums`] of `batch`.
    pub bounds: Vec<SumBound>,
}

/// What the first scoring stage knows of one colocation's summed FPS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SumBound {
    /// The summed FPS itself.
    Exact(f64),
    /// An upper bound on it, compared as `f64`; NaN bounds nothing.
    AtMost(f64),
}

impl SumBound {
    /// The sum, when it is known exactly.
    pub fn exact(self) -> Option<f64> {
        match self {
            SumBound::Exact(sum) => Some(sum),
            SumBound::AtMost(_) => None,
        }
    }
}

impl PredictScratch {
    /// A fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> PredictScratch {
        PredictScratch::default()
    }
}

/// A methodology that predicts the absolute FPS of each member of a
/// prospective colocation (drives the Section 5.2 greedy).
pub trait FpsModel: Sync {
    /// Predicted FPS of `members[idx]` when all of `members` share a server.
    fn predict_member_fps(&self, members: &[Placement], idx: usize) -> f64;

    /// Predicted summed FPS over every member of a colocation. The default
    /// sums per-member predictions.
    fn predict_colocation_sum(&self, members: &[Placement]) -> f64 {
        (0..members.len())
            .map(|i| self.predict_member_fps(members, i))
            .sum()
    }

    /// Predicted summed FPS of every colocation in `batch`, written to
    /// `out` (cleared first) in batch order: where a model with one stage
    /// answers, asked by the default
    /// [`bound_colocation_sums`](FpsModel::bound_colocation_sums). Callers
    /// ask [`exact_colocation_sums`], which runs any model's stages. Must
    /// agree with [`predict_colocation_sum`](FpsModel::predict_colocation_sum)
    /// per colocation. The default scores one colocation after another.
    fn predict_colocation_sums(
        &self,
        batch: &ColocationBatch,
        _scratch: &mut PredictScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend((0..batch.len()).map(|i| self.predict_colocation_sum(batch.members(i))));
    }

    /// The first of two scoring stages: for every colocation in `batch`,
    /// written to `out` (cleared first) in batch order, its summed FPS or
    /// an upper bound on it. [`finish_colocation_sum`] gives the exact sum
    /// of any bounded one from what this leaves in `scratch`, so a caller
    /// that can tell from a bound that a colocation cannot matter never
    /// pays for it. The default has one stage: every sum exact, from one
    /// [`predict_colocation_sums`](FpsModel::predict_colocation_sums) call.
    ///
    /// [`finish_colocation_sum`]: FpsModel::finish_colocation_sum
    fn bound_colocation_sums(
        &self,
        batch: &ColocationBatch,
        scratch: &mut PredictScratch,
        out: &mut Vec<SumBound>,
    ) {
        let mut sums = std::mem::take(&mut scratch.sums);
        self.predict_colocation_sums(batch, scratch, &mut sums);
        out.clear();
        out.extend(sums.iter().map(|&sum| SumBound::Exact(sum)));
        scratch.sums = sums;
    }

    /// The second stage: the exact summed FPS of colocation `i` of `batch`,
    /// which the last [`bound_colocation_sums`] of this batch through this
    /// `scratch` left bounded (finishing others in between is allowed).
    /// Must equal [`predict_colocation_sum`] of its members, bit for bit.
    ///
    /// [`bound_colocation_sums`]: FpsModel::bound_colocation_sums
    /// [`predict_colocation_sum`]: FpsModel::predict_colocation_sum
    fn finish_colocation_sum(
        &self,
        batch: &ColocationBatch,
        i: usize,
        _scratch: &mut PredictScratch,
    ) -> f64 {
        self.predict_colocation_sum(batch.members(i))
    }

    /// [`bound_colocation_sums`](FpsModel::bound_colocation_sums) only if it
    /// takes no model evaluation: a model that caches sums and bounds
    /// answers the whole batch from its cache and returns `true`, or
    /// returns `false` (with `out` unspecified) as soon as one colocation
    /// has neither, so a caller holding a lock can release it before paying
    /// for the evaluation. A model without a cache has nothing to wait for:
    /// the default evaluates and returns `true`.
    fn resident_colocation_bounds(
        &self,
        batch: &ColocationBatch,
        scratch: &mut PredictScratch,
        out: &mut Vec<SumBound>,
    ) -> bool {
        self.bound_colocation_sums(batch, scratch, out);
        true
    }

    /// Display name for result tables.
    fn model_name(&self) -> &'static str;
}

/// A methodology that judges whether an entire colocation meets a QoS floor
/// (drives the Section 5.1 packing).
pub trait FeasibilityModel: Sync {
    /// Whether every member of `members` is predicted to reach `qos` FPS.
    fn feasible(&self, qos: f64, members: &[Placement]) -> bool;

    /// Display name for result tables.
    fn judge_name(&self) -> &'static str;
}

/// Every colocation's exact summed FPS, written to `out` (cleared first)
/// in batch order: the two scoring stages run to the end, one
/// [`FpsModel::bound_colocation_sums`] call for the batch, then
/// [`FpsModel::finish_colocation_sum`] for each colocation it left bounded.
/// The bounds are kept in [`PredictScratch::bounds`], so a caller that
/// reuses its scratch allocates nothing here.
pub fn exact_colocation_sums<M: FpsModel + ?Sized>(
    model: &M,
    batch: &ColocationBatch,
    scratch: &mut PredictScratch,
    out: &mut Vec<f64>,
) {
    let mut bounds = std::mem::take(&mut scratch.bounds);
    model.bound_colocation_sums(batch, scratch, &mut bounds);
    out.clear();
    for (i, &bound) in bounds.iter().enumerate() {
        out.push(match bound {
            SumBound::Exact(sum) => sum,
            SumBound::AtMost(_) => model.finish_colocation_sum(batch, i, scratch),
        });
    }
    scratch.bounds = bounds;
}

/// `Σ ratio · solo` over `members`, in member order, onto `-0.0` —
/// `Iterator::sum`'s additive identity, so even the empty colocation's sum
/// has the scalar `Σ predict_member_fps` path's bits.
fn member_sum(profiles: &ProfileStore, members: &[Placement], ratios: &[f64]) -> f64 {
    let mut sum = -0.0;
    for (&(id, res), ratio) in members.iter().zip(ratios) {
        sum += ratio * profiles.get(id).solo_fps_at(res);
    }
    sum
}

/// The summed FPS of a colocation of at most one member, which takes no
/// model: the empty sum `-0.0` (`Iterator::sum`'s additive identity), and
/// a lone member's solo FPS added to it. `None` for two or more members.
pub fn closed_form_sum(profiles: &ProfileStore, members: &[Placement]) -> Option<f64> {
    match *members {
        [] => Some(-0.0),
        [(game, res)] => Some(-0.0 + profiles.get(game).solo_fps_at(res)),
        _ => None,
    }
}

/// GAugur's classification model as a feasibility judge.
pub struct GaugurCm<'a>(pub &'a GAugur);

impl FeasibilityModel for GaugurCm<'_> {
    /// A game alone is judged by its solo FPS: the CM knows colocations.
    fn feasible(&self, qos: f64, members: &[Placement]) -> bool {
        if let [(game, res)] = *members {
            return self.0.profiles.get(game).solo_fps_at(res) >= qos;
        }
        self.0.colocation_feasible(qos, members)
    }

    fn judge_name(&self) -> &'static str {
        "GAugur(CM)"
    }
}

/// Adapter: any [`InterferencePredictor`] (GAugur's RM, Sigmoid, SMiTe,
/// …) plus the profile store becomes an FPS predictor / feasibility judge.
/// Its two scoring stages are the predictor's
/// [`bound_degradation_batch`](InterferencePredictor::bound_degradation_batch)
/// and [`finish_degradation_batch`](InterferencePredictor::finish_degradation_batch),
/// so a predictor with a fused batch path gets it on the scheduling hot
/// path for free. A member alone runs at its solo FPS ([`closed_form_sum`]).
/// The serving daemon's memo caches `PredictorFps::rm`: one scorer online
/// and offline.
pub struct PredictorFps<'a, P: InterferencePredictor + ?Sized> {
    /// The wrapped interference predictor.
    pub predictor: &'a P,
    /// Profiles supplying Eq.-2 solo frame rates.
    pub profiles: &'a ProfileStore,
}

impl<'a> PredictorFps<'a, GAugur> {
    /// GAugur's regression model, with the profiles it was built from.
    pub fn rm(gaugur: &'a GAugur) -> Self {
        PredictorFps {
            predictor: gaugur,
            profiles: &gaugur.profiles,
        }
    }
}

impl<P: InterferencePredictor + ?Sized> FpsModel for PredictorFps<'_, P> {
    /// The co-runners are gathered on the stack for any colocation a
    /// server can hold, so a scalar sum allocates nothing.
    fn predict_member_fps(&self, members: &[Placement], idx: usize) -> f64 {
        let target = members[idx];
        let solo = self.profiles.get(target.0).solo_fps_at(target.1);
        if members.len() == 1 {
            return solo;
        }
        let (mut inline, mut spilled) = ([target; maxfps::MAX_PER_SERVER], Vec::new());
        let others = match inline.get_mut(..members.len() - 1) {
            Some(others) => others,
            None => {
                spilled.resize(members.len() - 1, target);
                &mut spilled[..]
            }
        };
        others[..idx].copy_from_slice(&members[..idx]);
        others[idx..].copy_from_slice(&members[idx + 1..]);
        self.predictor.predict_degradation(target, others) * solo
    }

    /// Colocations of at most one member in closed form, exact and with no
    /// query row; one
    /// [`bound_degradation_batch`](InterferencePredictor::bound_degradation_batch)
    /// call over every member of the others, reduced per colocation to
    /// `Σ solo · bound` in member order. Degradation bounds are `≥` the
    /// ratios and solo frame rates are not negative, and a rounded product
    /// or sum never falls when an operand rises, so each colocation's
    /// bound is `≥` its exact sum, bit for bit as `f64`. A predictor with
    /// one stage answers exactly.
    fn bound_colocation_sums(
        &self,
        batch: &ColocationBatch,
        scratch: &mut PredictScratch,
        out: &mut Vec<SumBound>,
    ) {
        out.clear();
        scratch.queries.clear();
        scratch.staged.clear();
        for i in 0..batch.len() {
            let members = batch.members(i);
            scratch.staged.push(scratch.queries.len());
            let closed = closed_form_sum(self.profiles, members);
            if closed.is_none() {
                scratch.queries.push_colocation(members);
            }
            out.push(closed.map_or(SumBound::AtMost(f64::NAN), SumBound::Exact));
        }
        let exact = self.predictor.bound_degradation_batch(
            &scratch.queries,
            &mut scratch.features,
            &mut scratch.values,
        );
        for (i, &first) in scratch.staged.iter().enumerate() {
            if out[i].exact().is_none() {
                let sum = member_sum(self.profiles, batch.members(i), &scratch.values[first..]);
                out[i] = match exact {
                    true => SumBound::Exact(sum),
                    false => SumBound::AtMost(sum),
                };
            }
        }
    }

    /// Colocation `i`'s member ratios from
    /// [`finish_degradation_batch`](InterferencePredictor::finish_degradation_batch),
    /// summed in member order.
    fn finish_colocation_sum(
        &self,
        batch: &ColocationBatch,
        i: usize,
        scratch: &mut PredictScratch,
    ) -> f64 {
        let members = batch.members(i);
        let rows = scratch.staged[i]..scratch.staged[i] + members.len();
        self.predictor.finish_degradation_batch(
            &scratch.queries,
            rows.clone(),
            &mut scratch.features,
            &mut scratch.values[rows.clone()],
        );
        member_sum(self.profiles, members, &scratch.values[rows])
    }

    fn model_name(&self) -> &'static str {
        self.predictor.name()
    }
}

impl<P: InterferencePredictor + ?Sized> FeasibilityModel for PredictorFps<'_, P> {
    fn feasible(&self, qos: f64, members: &[Placement]) -> bool {
        (0..members.len()).all(|i| self.predict_member_fps(members, i) >= qos)
    }

    fn judge_name(&self) -> &'static str {
        self.predictor.name()
    }
}

/// VBP as a feasibility judge (QoS-oblivious by construction).
pub struct VbpJudge<'a>(pub &'a gaugur_baselines::VbpPolicy);

impl FeasibilityModel for VbpJudge<'_> {
    fn feasible(&self, _qos: f64, members: &[Placement]) -> bool {
        self.0.feasible(members)
    }

    fn judge_name(&self) -> &'static str {
        "VBP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugur_core::{ColocationPlan, GAugurConfig};
    use gaugur_gamesim::{GameCatalog, Resolution, Server};

    fn quick_build() -> (GameCatalog, GAugur) {
        let server = Server::reference(19);
        let catalog = GameCatalog::generate(42, 10);
        let config = GAugurConfig {
            plan: ColocationPlan {
                pairs: 25,
                triples: 8,
                quads: 0,
                seed: 5,
            },
            ..GAugurConfig::default()
        };
        let gaugur = GAugur::build(&server, &catalog, config);
        (catalog, gaugur)
    }

    fn mixed_batch(catalog: &GameCatalog) -> ColocationBatch {
        let res = Resolution::Fhd1080;
        let mut batch = ColocationBatch::new();
        batch.push(&[]);
        batch.push(&[(catalog[0].id, res)]);
        batch.push(&[(catalog[1].id, res), (catalog[2].id, Resolution::Hd720)]);
        batch.push_extended(
            &[(catalog[3].id, res), (catalog[4].id, res)],
            (catalog[5].id, res),
        );
        for w in catalog.games().windows(4) {
            batch.push(&[
                (w[0].id, res),
                (w[1].id, res),
                (w[2].id, res),
                (w[3].id, res),
            ]);
        }
        batch
    }

    #[test]
    fn gaugur_rm_batched_sums_are_bit_identical_to_scalar() {
        let (catalog, gaugur) = quick_build();
        let rm = PredictorFps::rm(&gaugur);
        let batch = mixed_batch(&catalog);
        let mut scratch = PredictScratch::new();
        // The first stage leaves colocations bounded, so the second runs.
        let mut bounds = Vec::new();
        rm.bound_colocation_sums(&batch, &mut scratch, &mut bounds);
        assert!(bounds.iter().any(|b| b.exact().is_none()));
        let mut out = Vec::new();
        exact_colocation_sums(&rm, &batch, &mut scratch, &mut out);
        assert_eq!(out.len(), batch.len());
        for (i, &got) in out.iter().enumerate() {
            let scalar = rm.predict_colocation_sum(batch.members(i));
            assert_eq!(
                got.to_bits(),
                scalar.to_bits(),
                "colocation {i}: {got} vs {scalar}"
            );
        }
    }

    #[test]
    fn predictor_fps_batched_sums_match_the_default_loop() {
        let (catalog, gaugur) = quick_build();
        // The bare RM through PredictorFps: its two stages run to the end
        // give the trait's default one-stage loop, bit for bit…
        let wrapped = PredictorFps::rm(&gaugur);
        let batch = mixed_batch(&catalog);
        let mut scratch = PredictScratch::new();
        let (mut exact, mut looped) = (Vec::new(), Vec::new());
        exact_colocation_sums(&wrapped, &batch, &mut scratch, &mut exact);
        wrapped.predict_colocation_sums(&batch, &mut scratch, &mut looped);
        assert_eq!(exact.len(), batch.len());
        for (i, (got, want)) in exact.iter().zip(&looped).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "colocation {i}");
        }
        // …and the wrapper inherits the predictor's display name.
        assert_eq!(wrapped.model_name(), "GAugur(RM)");
        assert_eq!(wrapped.judge_name(), "GAugur(RM)");
    }

    /// A colocation of at most one member is a closed form for every
    /// predictor: the empty sum `-0.0`, and a lone member's solo FPS added
    /// to it. The scalar member and sum paths give those bits, and the
    /// first stage answers them exactly with no query row.
    #[test]
    fn lone_and_empty_colocations_are_closed_forms_for_every_predictor() {
        use gaugur_baselines::{SigmoidPredictor, SmitePredictor};
        use gaugur_core::{measure_colocations, plan_colocations, Profiler};
        use gaugur_gamesim::game::ALL_RESOLUTIONS;

        let server = Server::reference(19);
        let catalog = GameCatalog::generate(42, 10);
        let config = GAugurConfig {
            plan: ColocationPlan {
                pairs: 25,
                triples: 8,
                quads: 0,
                seed: 5,
            },
            ..GAugurConfig::default()
        };
        let profiles =
            ProfileStore::new(Profiler::new(config.profiling).profile_catalog(&server, &catalog));
        let measured =
            measure_colocations(&server, &catalog, &plan_colocations(&catalog, &config.plan));
        let gaugur = GAugur::from_measurements(profiles.clone(), &measured, config);
        let sigmoid = SigmoidPredictor::train(profiles.clone(), &measured);
        let smite = SmitePredictor::train(profiles.clone(), &measured);
        let predictors: [&dyn InterferencePredictor; 3] = [&gaugur, &sigmoid, &smite];
        for predictor in predictors {
            let fps = PredictorFps {
                predictor,
                profiles: &profiles,
            };
            let name = predictor.name();
            let empty = (-0.0f64).to_bits();
            assert_eq!(fps.predict_colocation_sum(&[]).to_bits(), empty, "{name}");
            let mut batch = ColocationBatch::new();
            let mut want = vec![Some(empty)];
            batch.push(&[]);
            for game in catalog.games() {
                for res in ALL_RESOLUTIONS {
                    let lone = [(game.id, res)];
                    let solo = profiles.get(game.id).solo_fps_at(res);
                    let sum = (-0.0 + solo).to_bits();
                    let member = fps.predict_member_fps(&lone, 0).to_bits();
                    assert_eq!(member, solo.to_bits(), "{name}: {lone:?}");
                    assert_eq!(fps.predict_colocation_sum(&lone).to_bits(), sum);
                    batch.push(&lone);
                    want.push(Some(sum));
                }
            }
            let (mut scratch, mut bounds) = (PredictScratch::new(), Vec::new());
            fps.bound_colocation_sums(&batch, &mut scratch, &mut bounds);
            assert_eq!(scratch.queries.len(), 0, "{name}: a closed form took a row");
            let got: Vec<_> = bounds.iter().map(|b| b.exact().map(f64::to_bits)).collect();
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn colocation_batch_reuse_is_clean() {
        let (catalog, _) = quick_build();
        let res = Resolution::Fhd1080;
        let mut batch = ColocationBatch::new();
        batch.push(&[(catalog[0].id, res)]);
        batch.push_extended(&[(catalog[1].id, res)], (catalog[2].id, res));
        assert_eq!(batch.len(), 2);
        assert_eq!(
            batch.members(1),
            &[(catalog[1].id, res), (catalog[2].id, res)]
        );
        batch.clear();
        assert!(batch.is_empty());
        batch.push(&[(catalog[3].id, res)]);
        assert_eq!(batch.members(0), &[(catalog[3].id, res)]);
    }
}
