//! Incremental placement: score one arriving session against a live fleet.
//!
//! [`simulate_dynamic`](crate::dynamic::simulate_dynamic) originally held
//! this logic inline, which made it unusable from anything that is not the
//! discrete-event simulator. The serving daemon (`gaugur-serve`) faces the
//! same decision — one request, one view of fleet occupancy, pick a server —
//! so the eligibility filter and the per-policy argmax live here and both
//! callers share them, as does the fixed-fleet
//! [`assign`](crate::maxfps::assign) of Fig. 10.
//!
//! The delta-greedy objective (Section 5.2) has one scorer,
//! [`select_server_incremental_with`]: a [`ScoreCache`] keeps each server's
//! current predicted summed FPS (keyed by model version), so only the
//! *extended* colocations are predicted per request — and those are
//! assembled into **one** [`FpsModel::predict_colocation_sums`] batch call
//! over all candidates (likewise the cache misses among the `before` sums),
//! so a batched model pays one feature-matrix assembly and one ensemble pass
//! per admit instead of a prediction per candidate. All buffers live in a
//! caller-owned [`PlacementScratch`], one per worker: the hot path allocates
//! nothing once the buffers have grown. [`select_server`] dispatches every
//! [`Policy`] and sends `MaxPredictedFps` through it.
//!
//! The `after` sums come in two stages: one
//! [`FpsModel::bound_colocation_sums`] call gives every candidate its sum
//! or an upper bound on it, and only the candidates whose bound is not
//! strictly below the best exact delta so far are finished
//! ([`FpsModel::finish_colocation_sum`]), best bound first. A skipped
//! candidate's delta is strictly below a finished one's, so the choice and
//! its bits are the same as with every candidate finished. A model with
//! one stage (the default) answers every sum exactly in the first.
//!
//! [`select_server_if_resident`] is the same scorer for a caller that scores
//! under a lock: it completes only if the model answers every candidate
//! from its cache, with its sum or with a bound strictly below the best
//! exact delta, and otherwise hands the candidates back so the caller can
//! evaluate both stages with the lock released and then select for real.
//! Under the lock run the cache lookups, the score-cache reads and the
//! decision; the model runs there only for a `before` sum neither cache
//! holds.
//!
//! Empty servers are one candidate: the highest-index one. Every empty
//! server has the same `before` (the empty sum) and the same `after` (the
//! model's sum of the newcomer alone), so all of them score the same delta
//! bits, and the argmax breaks ties toward the later index — the lower
//! empty servers can never be chosen, whatever the model. A fleet of 64
//! servers with a dozen occupied scores 13 candidates, not 64.
//!
//! The cached `before` sum is the member-wise sum a from-scratch scorer
//! would recompute, and the batched sums are bit-identical to the scalar
//! ones by the [`FpsModel::predict_colocation_sums`] contract, so the
//! choice is the full recompute's over every eligible server (the tests
//! keep one as the reference).

use crate::dynamic::Policy;
use crate::maxfps::MAX_PER_SERVER;
use crate::{ColocationBatch, FpsModel, PredictScratch, SumBound};
use gaugur_core::Placement;
use gaugur_gamesim::GameId;
use std::cell::RefCell;

/// Borrowed, read-only view of per-server occupancy. Implemented by the
/// plain `Vec<Vec<Placement>>` snapshots the simulator builds and by
/// `gaugur-serve`'s live `ClusterState`, so the daemon's hot path never
/// clones the fleet just to score it.
pub trait OccupancyView: Sync {
    /// Number of servers in the fleet.
    fn n_servers(&self) -> usize;

    /// The placements currently running on `server`.
    fn members(&self, server: usize) -> &[Placement];
}

impl OccupancyView for [Vec<Placement>] {
    fn n_servers(&self) -> usize {
        self.len()
    }

    fn members(&self, server: usize) -> &[Placement] {
        &self[server]
    }
}

impl OccupancyView for Vec<Vec<Placement>> {
    fn n_servers(&self) -> usize {
        self.len()
    }

    fn members(&self, server: usize) -> &[Placement] {
        &self[server]
    }
}

/// Whether one server can legally accept `game`: below the per-server
/// session cap and not already running the same game.
fn server_eligible(members: &[Placement], game: GameId) -> bool {
    members.len() < MAX_PER_SERVER && !members.iter().any(|&(g, _)| g == game)
}

/// Indices of servers that can legally accept `game`: below the per-server
/// session cap and not already running the same game (two instances of one
/// game on one GPU is not a configuration the paper's testbed measures, so
/// the models are undefined on it).
pub fn eligible_servers<V: OccupancyView + ?Sized>(occupancy: &V, game: GameId) -> Vec<usize> {
    (0..occupancy.n_servers())
        .filter(|&s| server_eligible(occupancy.members(s), game))
        .collect()
}

/// Per-server cached predicted summed FPS, keyed by model version.
///
/// The delta-greedy only needs each candidate server's *current* summed FPS
/// (`before`) and the sum with the newcomer added (`after`); the former is
/// a property of the server that changes only on admit/depart/model-reload,
/// so recomputing it per request is pure waste. This cache holds it.
///
/// Invalidation rules:
/// * **Model reload** — entries carry the model version they were computed
///   under; a version mismatch is a miss, so reloads invalidate for free.
/// * **Admit** — the incremental selectors store the chosen server's
///   `after` sum at selection time, under the contract that the caller
///   admits the candidate there (both the daemon and the simulator do, and
///   both hold their fleet lock across select + admit).
/// * **Depart** — the caller must call [`invalidate`](ScoreCache::invalidate)
///   for the server that lost a session; the sum is rebuilt lazily on the
///   server's next appearance in a candidate set.
pub struct ScoreCache {
    sums: Vec<Option<(u64, f64)>>,
    hits: u64,
    misses: u64,
}

impl ScoreCache {
    /// An empty cache for a fleet of `n_servers`.
    pub fn new(n_servers: usize) -> ScoreCache {
        ScoreCache {
            sums: vec![None; n_servers],
            hits: 0,
            misses: 0,
        }
    }

    /// Drop the cached sum of one server (call after a departure).
    pub fn invalidate(&mut self, server: usize) {
        self.sums[server] = None;
    }

    /// `(hits, misses)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The server's cached sum under `version`. A read counts nothing by
    /// itself: a pass that completes counts its reads with
    /// [`count`](ScoreCache::count), and the caller is expected to compute
    /// and [`store`](ScoreCache::store) each sum that was not there.
    fn peek(&self, server: usize, version: u64) -> Option<f64> {
        self.sums[server].and_then(|(v, sum)| (v == version).then_some(sum))
    }

    /// Count `hits` reads that found a sum and `misses` that did not.
    fn count(&mut self, hits: usize, misses: usize) {
        self.hits += hits as u64;
        self.misses += misses as u64;
    }

    /// Record a server's summed FPS under `version` (freshly computed, or
    /// the post-admit sum of a pending admission).
    fn store(&mut self, server: usize, version: u64, sum: f64) {
        self.sums[server] = Some((version, sum));
    }

    /// Undo an admit-contract store after the caller undoes the admission
    /// itself — the serving daemon departs a session whose reply never
    /// reached the client, then calls this so the cache matches the
    /// restored occupancy. `after_sum`/`before_sum` are the
    /// [`Selection::server_sum`]/[`Selection::before_sum`] of the admission
    /// being rolled back.
    ///
    /// The pre-admit sum is restored only when the current entry still
    /// bit-matches `(version, after_sum)`; anything else means the server
    /// has moved on (another admit, a depart, a reload) and the entry is
    /// dropped instead, falling back to lazy recomputation. The bit-exact
    /// guard is what keeps rolled-back admissions byte-invisible: a restored
    /// sum is always identical to what a fresh recomputation would produce.
    pub fn rollback(&mut self, server: usize, version: u64, after_sum: f64, before_sum: f64) {
        match self.sums[server] {
            Some((v, sum)) if v == version && sum.to_bits() == after_sum.to_bits() => {
                self.sums[server] = Some((version, before_sum));
            }
            _ => self.sums[server] = None,
        }
    }
}

/// Outcome of an incremental selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Selection {
    /// The chosen server.
    pub server: usize,
    /// Predicted change in that server's summed FPS from the admission.
    pub delta: f64,
    /// Predicted summed FPS of the server *with* the candidate admitted.
    pub server_sum: f64,
    /// Predicted summed FPS of the server *before* the admission — the
    /// exact `before` term the delta was computed from, preserved so a
    /// caller that rolls the admission back can hand
    /// [`ScoreCache::rollback`] the bit-identical pre-admit sum
    /// (recomputing it as `server_sum - delta` is not bit-exact).
    pub before_sum: f64,
}

/// Caller-owned scratch for [`select_server_incremental_with`]: eligibility
/// and score buffers plus the model's [`PredictScratch`]. One per worker
/// (the daemon keeps one per thread); every buffer is overwritten each call
/// and retains its capacity, so steady-state selection allocates nothing.
#[derive(Default)]
pub struct PlacementScratch {
    eligible: Vec<usize>,
    befores: Vec<f64>,
    /// Candidates whose `before` the score cache did not hold, and their
    /// colocations.
    miss_at: Vec<usize>,
    missing: ColocationBatch,
    /// Whether `befores` holds the sums of `miss_at` yet.
    missing_evaluated: bool,
    /// Every candidate's colocation extended by the request.
    extended: ColocationBatch,
    afters: Vec<SumBound>,
    sums: Vec<f64>,
    /// Bounded candidates, best bound first.
    order: Vec<usize>,
    /// Scratch threaded into the model's batched scoring; also usable by
    /// callers for their own batched predictions between selections.
    pub predict: PredictScratch,
}

impl PlacementScratch {
    /// A fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> PlacementScratch {
        PlacementScratch::default()
    }
}

impl PlacementScratch {
    /// Fill `eligible` for `request`, in ascending server order: every
    /// eligible occupied server and the highest-index empty one; `false`
    /// when no server is eligible. Every empty server scores the same
    /// `after - before` bits, and [`pick`](PlacementScratch::pick) breaks
    /// ties toward the later index, so the lower empty servers can never
    /// win and are not candidates.
    fn gather_eligible<V: OccupancyView + ?Sized>(
        &mut self,
        occupancy: &V,
        request: Placement,
    ) -> bool {
        self.eligible.clear();
        let mut empty_kept = false;
        self.eligible
            .extend((0..occupancy.n_servers()).rev().filter(|&s| {
                let members = occupancy.members(s);
                if members.is_empty() {
                    !std::mem::replace(&mut empty_kept, true)
                } else {
                    server_eligible(members, request.0)
                }
            }));
        self.eligible.reverse();
        !self.eligible.is_empty()
    }

    /// Fill `extended` with every eligible server's colocation extended by
    /// `request`: the batch the `after` sums are asked for.
    fn queue_extended<V: OccupancyView + ?Sized>(&mut self, occupancy: &V, request: Placement) {
        self.extended.clear();
        for &s in &self.eligible {
            self.extended.push_extended(occupancy.members(s), request);
        }
    }

    /// Fill `befores` from the score cache, noting the candidates it holds
    /// no sum for in `miss_at` and their colocations in `missing`.
    fn read_befores<V: OccupancyView + ?Sized>(
        &mut self,
        occupancy: &V,
        model_version: u64,
        cache: &ScoreCache,
    ) {
        self.befores.clear();
        self.befores.resize(self.eligible.len(), 0.0);
        self.miss_at.clear();
        self.missing.clear();
        self.missing_evaluated = false;
        for (i, &s) in self.eligible.iter().enumerate() {
            match cache.peek(s, model_version) {
                Some(sum) => self.befores[i] = sum,
                None => {
                    self.miss_at.push(i);
                    self.missing.push(occupancy.members(s));
                }
            }
        }
    }

    /// Evaluate the `before` sums [`read_befores`](Self::read_befores) found
    /// missing, in one batch call, once.
    fn evaluate_befores(&mut self, model: &dyn FpsModel) {
        if self.missing_evaluated || self.miss_at.is_empty() {
            return;
        }
        model.predict_colocation_sums(&self.missing, &mut self.predict, &mut self.sums);
        for (&i, &sum) in self.miss_at.iter().zip(&self.sums) {
            self.befores[i] = sum;
        }
        self.missing_evaluated = true;
    }

    /// Count the reads of the pass that completes as the score cache's hits
    /// and misses, and store the sums it evaluated for the misses.
    fn commit_befores(&mut self, model_version: u64, cache: &mut ScoreCache) {
        debug_assert!(self.missing_evaluated || self.miss_at.is_empty());
        cache.count(self.eligible.len() - self.miss_at.len(), self.miss_at.len());
        for &i in &self.miss_at {
            cache.store(self.eligible[i], model_version, self.befores[i]);
        }
    }

    /// Fill `befores`: in steady state these are cache reads; the misses
    /// are gathered into one batch call and stored.
    fn fill_befores<V: OccupancyView + ?Sized>(
        &mut self,
        occupancy: &V,
        model: &dyn FpsModel,
        model_version: u64,
        cache: &mut ScoreCache,
    ) {
        self.read_befores(occupancy, model_version, cache);
        self.evaluate_befores(model);
        self.commit_befores(model_version, cache);
    }

    /// The second scoring stage over filled `befores` and `afters`: visit
    /// the bounded candidates by descending bound on their delta and finish
    /// each through `model` unless its bound is strictly below the best
    /// exact delta so far. A candidate left bounded then has a delta below
    /// a finished one, so the argmax over the exact candidates is the
    /// argmax over all of them — the same server, and the same bits, as if
    /// every candidate had been finished. With no `model` nothing is
    /// evaluated, and the return says whether nothing needed to be.
    fn finish_candidates(&mut self, model: Option<&dyn FpsModel>) -> bool {
        // Strictly below, as numbers; `max` passes over a NaN: a candidate
        // is skipped only below a number some exact delta is.
        let below = |delta: f64, best: f64| delta < best;
        // The best exact delta, the highest bound, and whether one is NaN.
        let (mut best, mut top, mut nan) = (f64::NEG_INFINITY, f64::NEG_INFINITY, false);
        for (after, before) in self.afters.iter().zip(&self.befores) {
            let (sum, exact) = match *after {
                SumBound::Exact(sum) => (sum, true),
                SumBound::AtMost(bound) => (bound, false),
            };
            let delta = sum - before;
            best = best.max(if exact { delta } else { f64::NEG_INFINITY });
            top = top.max(if exact { f64::NEG_INFINITY } else { delta });
            nan |= !exact & delta.is_nan();
        }
        // The best only rises, so a bound below it now stays below.
        if !nan && below(top, best) {
            return true;
        }
        // Only the others are ordered and visited, each checked one by one,
        // not cut off at the first: a NaN, which never compares below, may
        // sort anywhere.
        let (afters, befores) = (&mut self.afters, &self.befores);
        let bound = |after: SumBound, before: f64| match after {
            SumBound::Exact(sum) | SumBound::AtMost(sum) => sum - before,
        };
        self.order.clear();
        self.order.extend((0..afters.len()).filter(|&i| {
            afters[i].exact().is_none() && !below(bound(afters[i], befores[i]), best)
        }));
        let order = &mut self.order;
        order.sort_by(|&a, &b| {
            bound(afters[b], befores[b]).total_cmp(&bound(afters[a], befores[a]))
        });
        for &i in &self.order {
            if below(bound(afters[i], befores[i]), best) {
                continue;
            }
            let Some(model) = model else {
                return false;
            };
            let sum = model.finish_colocation_sum(&self.extended, i, &mut self.predict);
            afters[i] = SumBound::Exact(sum);
            best = best.max(sum - befores[i]);
        }
        true
    }

    /// The delta-greedy argmax over the finished candidates — ties to the
    /// later index, as `max_by` breaks them — stored into `cache` under the
    /// admit contract.
    fn pick(&self, model_version: u64, cache: &mut ScoreCache) -> Selection {
        let mut best: Option<(usize, f64, f64)> = None;
        for (i, (after, &before)) in self.afters.iter().zip(&self.befores).enumerate() {
            if let SumBound::Exact(after) = *after {
                let delta = after - before;
                if best.is_none_or(|(_, top, _)| delta.total_cmp(&top).is_ge()) {
                    best = Some((i, delta, after));
                }
            }
        }
        let (best, delta, after) = best.expect("a finished candidate");
        let selection = Selection {
            server: self.eligible[best],
            delta,
            server_sum: after,
            before_sum: self.befores[best],
        };
        cache.store(selection.server, model_version, selection.server_sum);
        selection
    }

    /// Evaluate what the [`select_server_if_resident`] call that just
    /// returned [`NotResident`] found missing, through `model`, which
    /// caches what it computes: the `before` sums the score cache did not
    /// hold, every candidate's first stage, and the second stage of every
    /// candidate that may still win. Meant to run with no lock held: the
    /// results are discarded here and read back from the model's cache by
    /// the selection that follows.
    pub fn evaluate_candidates(&mut self, model: &dyn FpsModel) {
        self.evaluate_befores(model);
        model.bound_colocation_sums(&self.extended, &mut self.predict, &mut self.afters);
        self.finish_candidates(Some(model));
    }
}

/// Choose a server for one arriving session by maximum predicted FPS delta,
/// reading `before` sums from (and maintaining) `cache`, with all buffers
/// supplied by the caller.
///
/// Scoring is batched and staged: the cache-missing `before` sums are
/// computed in one [`FpsModel::predict_colocation_sums`] call, and every
/// candidate's `after` sum, or an upper bound on it, in one
/// [`FpsModel::bound_colocation_sums`] call. Then only the candidates
/// whose bound does not fall strictly below an exact delta are finished
/// ([`FpsModel::finish_colocation_sum`]), best bound first. The result is
/// bit for bit the argmax over every candidate finished: a skipped
/// candidate's delta is below a finished one's.
///
/// Contract: on `Some(selection)`, the cache is updated as if the caller
/// admits the candidate on `selection.server` — the caller must do so
/// before releasing whatever lock guards the occupancy, or call
/// [`ScoreCache::invalidate`] on that server instead.
pub fn select_server_incremental_with<V: OccupancyView + ?Sized>(
    occupancy: &V,
    request: Placement,
    model: &dyn FpsModel,
    model_version: u64,
    cache: &mut ScoreCache,
    scratch: &mut PlacementScratch,
) -> Option<Selection> {
    if !scratch.gather_eligible(occupancy, request) {
        return None;
    }
    scratch.fill_befores(occupancy, model, model_version, cache);
    scratch.queue_extended(occupancy, request);
    model.bound_colocation_sums(&scratch.extended, &mut scratch.predict, &mut scratch.afters);
    scratch.finish_candidates(Some(model));
    Some(scratch.pick(model_version, cache))
}

/// [`select_server_if_resident`] stopped before touching the
/// [`ScoreCache`]: some candidate's `after` sum needs a model evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotResident;

/// [`select_server_incremental_with`] for a caller that holds a lock it
/// does not want to evaluate a model under. The candidates' `after` sums
/// and bounds are asked for first, through
/// [`FpsModel::resident_colocation_bounds`]. The pass completes exactly as
/// the ordinary call would (same result, same cache updates, same
/// contract) when the model answers every candidate from its cache with
/// its sum, or with a bound strictly below the best exact delta. The
/// `before` sums that decides with are read from `cache`, and those it
/// lacks evaluated, as the ordinary call would evaluate them; the reads
/// are counted and the evaluated sums stored only when the pass completes.
/// Otherwise it returns [`NotResident`] with `cache` untouched and the
/// candidates left in `scratch`; the caller releases its lock, calls
/// [`PlacementScratch::evaluate_candidates`], re-locks and runs the
/// ordinary selection, which finds the sums cached and evaluates inline
/// whatever the occupancy changed meanwhile.
pub fn select_server_if_resident<V: OccupancyView + ?Sized>(
    occupancy: &V,
    request: Placement,
    model: &dyn FpsModel,
    model_version: u64,
    cache: &mut ScoreCache,
    scratch: &mut PlacementScratch,
) -> Result<Option<Selection>, NotResident> {
    if !scratch.gather_eligible(occupancy, request) {
        return Ok(None);
    }
    scratch.queue_extended(occupancy, request);
    scratch.read_befores(occupancy, model_version, cache);
    let (extended, predict) = (&scratch.extended, &mut scratch.predict);
    if !model.resident_colocation_bounds(extended, predict, &mut scratch.afters) {
        return Err(NotResident);
    }
    scratch.evaluate_befores(model);
    if !scratch.finish_candidates(None) {
        return Err(NotResident);
    }
    scratch.commit_befores(model_version, cache);
    Ok(Some(scratch.pick(model_version, cache)))
}

/// Cross-shard argmax for sharded placement: rank per-shard candidate
/// [`Selection`]s best-first by predicted FPS delta, writing the shard
/// indices of the `Some` entries into `out` (cleared first, so a
/// caller-owned buffer makes this allocation-free in steady state).
///
/// Ties break toward the lower shard index, which keeps the ranking
/// deterministic regardless of the order shard scoring finished in. The
/// full ranking (not just the winner) is what the two-phase admit path
/// needs: when the best shard loses its re-validation race too many times,
/// admission falls back to the next entry.
pub fn rank_shard_selections(candidates: &[Option<Selection>], out: &mut Vec<usize>) {
    out.clear();
    out.extend(
        candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(shard, _)| shard),
    );
    // Stable sort on descending delta: equal deltas keep ascending shard
    // order.
    out.sort_by(|&a, &b| {
        let da = candidates[a].as_ref().expect("filtered Some").delta;
        let db = candidates[b].as_ref().expect("filtered Some").delta;
        db.total_cmp(&da)
    });
}

thread_local! {
    /// Scratch backing the convenience wrapper below: one per thread, so
    /// callers that never manage scratch explicitly (the simulator, tests)
    /// still run the zero-allocation path.
    static LOCAL_SCRATCH: RefCell<PlacementScratch> = RefCell::new(PlacementScratch::new());
}

/// [`select_server_incremental_with`] with a thread-local scratch — the
/// drop-in API for callers that do not thread their own buffers. Workers
/// that own a [`PlacementScratch`] (the serving daemon) should call the
/// `_with` variant directly.
pub fn select_server_incremental<V: OccupancyView + ?Sized>(
    occupancy: &V,
    request: Placement,
    model: &dyn FpsModel,
    model_version: u64,
    cache: &mut ScoreCache,
) -> Option<Selection> {
    LOCAL_SCRATCH.with(|scratch| {
        select_server_incremental_with(
            occupancy,
            request,
            model,
            model_version,
            cache,
            &mut scratch.borrow_mut(),
        )
    })
}

/// Choose a server for one arriving session under `policy`, or `None` when
/// no server is eligible. `MaxPredictedFps` goes through
/// [`select_server_incremental`] under `model_version` (same admit contract
/// on `cache`); the model-free policies leave the cache untouched.
pub fn select_server<V: OccupancyView + ?Sized>(
    occupancy: &V,
    request: Placement,
    policy: &Policy<'_>,
    model_version: u64,
    cache: &mut ScoreCache,
) -> Option<usize> {
    let eligible = || eligible_servers(occupancy, request.0).into_iter();
    match policy {
        Policy::MaxPredictedFps(model) => {
            select_server_incremental(occupancy, request, *model, model_version, cache)
                .map(|sel| sel.server)
        }
        Policy::FirstFit => eligible().next(),
        Policy::WorstFitVbp(vbp) => eligible()
            .map(|s| (s, vbp.remaining_capacity(occupancy.members(s))))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(s, _)| s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugur_gamesim::Resolution;
    use proptest::prelude::*;

    const R: Resolution = Resolution::Fhd1080;

    /// Deterministic fake FPS model: a pure function of the colocation, so
    /// the incremental and from-scratch selectors can be compared exactly.
    struct FakeFps;

    impl FpsModel for FakeFps {
        fn predict_member_fps(&self, members: &[Placement], idx: usize) -> f64 {
            let crowd = members.len() as f64;
            let (g, r) = members[idx];
            120.0 / crowd + (g.0 as f64 * 0.37) - (r as u8 as f64 * 1.5)
        }

        fn model_name(&self) -> &'static str {
            "fake"
        }
    }

    /// Every member of every colocation scores the same FPS, so every
    /// candidate's delta ties and the greedy must take the highest eligible
    /// index.
    struct FlatFps;

    impl FpsModel for FlatFps {
        fn predict_member_fps(&self, _members: &[Placement], _idx: usize) -> f64 {
            50.0
        }

        fn model_name(&self) -> &'static str {
            "flat"
        }
    }

    /// The full-recompute reference the incremental scorer must agree
    /// with: a candidate's `before` and `after` sums predicted member by
    /// member from scratch (the delta-greedy of Section 5.2).
    fn placement_delta_with(
        model: &dyn FpsModel,
        members: &[Placement],
        candidate: Placement,
    ) -> f64 {
        let sum = |members: &[Placement]| -> f64 {
            (0..members.len())
                .map(|i| model.predict_member_fps(members, i))
                .sum()
        };
        let mut extended = members.to_vec();
        extended.push(candidate);
        sum(&extended) - sum(members)
    }

    fn placement_delta(members: &[Placement], candidate: Placement) -> f64 {
        placement_delta_with(&FakeFps, members, candidate)
    }

    /// The full recompute's argmax over every eligible server, ties to the
    /// last index: the chosen server and its delta.
    fn full_recompute_with(
        model: &dyn FpsModel,
        occupancy: &[Vec<Placement>],
        request: Placement,
    ) -> Option<(usize, f64)> {
        eligible_servers(occupancy, request.0)
            .into_iter()
            .map(|s| (s, placement_delta_with(model, &occupancy[s], request)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    fn full_recompute(occupancy: &[Vec<Placement>], request: Placement) -> Option<usize> {
        full_recompute_with(&FakeFps, occupancy, request).map(|(s, _)| s)
    }

    /// A model that notes how many colocations each batch asked it for.
    struct Counting<'a> {
        inner: &'a dyn FpsModel,
        batches: std::sync::Mutex<Vec<usize>>,
    }

    impl FpsModel for Counting<'_> {
        fn predict_member_fps(&self, members: &[Placement], idx: usize) -> f64 {
            self.inner.predict_member_fps(members, idx)
        }

        fn predict_colocation_sums(
            &self,
            batch: &ColocationBatch,
            scratch: &mut PredictScratch,
            out: &mut Vec<f64>,
        ) {
            self.batches.lock().unwrap().push(batch.len());
            self.inner.predict_colocation_sums(batch, scratch, out);
        }

        fn model_name(&self) -> &'static str {
            "counting"
        }
    }

    /// A drawn fleet: a server whose roll is below 3 of 5 is empty, the
    /// others run the distinct games among their draws (1–4 members).
    fn sparse_fleet(draws: Vec<(u8, Vec<(u32, bool)>)>) -> Vec<Vec<Placement>> {
        let fleet = draws.into_iter().map(|(roll, games)| {
            let mut members: Vec<Placement> = Vec::new();
            for (g, hd) in games.into_iter().filter(|_| roll >= 3) {
                if !members.iter().any(|&(m, _)| m == GameId(g)) {
                    members.push((GameId(g), if hd { Resolution::Hd720 } else { R }));
                }
            }
            members
        });
        fleet.collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Scoring only the highest-index empty server picks what scoring
        /// every eligible server picks, with the same delta bits, and asks
        /// the model for one `before` and one `after` batch of exactly the
        /// occupied eligible servers plus one if any server is empty.
        #[test]
        fn empty_servers_are_one_candidate_and_the_choice_is_the_full_recomputes(
            draws in proptest::collection::vec(
                (0u8..5, proptest::collection::vec((0u32..12, any::<bool>()), 1..=4)),
                1..=40,
            ),
            game in 0u32..12,
            hd in any::<bool>(),
        ) {
            let occupancy = sparse_fleet(draws);
            let request = (GameId(game), if hd { Resolution::Hd720 } else { R });
            let eligible = eligible_servers(&occupancy, request.0);
            let occupied = eligible.iter().filter(|&&s| !occupancy[s].is_empty()).count();
            let candidates = occupied + usize::from(occupancy.iter().any(Vec::is_empty));
            let asked = if candidates == 0 { vec![] } else { vec![candidates; 2] };
            for (model, ties) in [(&FakeFps as &dyn FpsModel, false), (&FlatFps, true)] {
                let counting = Counting { inner: model, batches: Default::default() };
                let sel = select_server_incremental_with(
                    &occupancy,
                    request,
                    &counting,
                    1,
                    &mut ScoreCache::new(occupancy.len()),
                    &mut PlacementScratch::new(),
                );
                let got = sel.map(|sel| (sel.server, sel.delta.to_bits()));
                let want = full_recompute_with(model, &occupancy, request);
                prop_assert_eq!(got, want.map(|(s, delta)| (s, delta.to_bits())));
                prop_assert_eq!(counting.batches.into_inner().unwrap(), asked.clone());
                if ties {
                    prop_assert_eq!(sel.map(|sel| sel.server), eligible.last().copied());
                }
            }
        }
    }

    /// GAugur's RM, trained on a 10-game catalog: 400 trees, staged.
    fn real_model() -> &'static gaugur_core::GAugur {
        static MODEL: std::sync::OnceLock<gaugur_core::GAugur> = std::sync::OnceLock::new();
        MODEL.get_or_init(|| {
            let catalog = gaugur_gamesim::GameCatalog::generate(42, 10);
            let config = gaugur_core::GAugurConfig {
                plan: gaugur_core::ColocationPlan {
                    pairs: 25,
                    triples: 8,
                    quads: 4,
                    seed: 5,
                },
                ..gaugur_core::GAugurConfig::default()
            };
            gaugur_core::GAugur::build(&gaugur_gamesim::Server::reference(19), &catalog, config)
        })
    }

    /// A model's exact sums with the first stage's bounds taken away: every
    /// candidate finished, in one batch.
    struct Unbounded<'a>(&'a dyn FpsModel);

    impl FpsModel for Unbounded<'_> {
        fn predict_member_fps(&self, members: &[Placement], idx: usize) -> f64 {
            self.0.predict_member_fps(members, idx)
        }

        fn predict_colocation_sums(
            &self,
            batch: &ColocationBatch,
            scratch: &mut PredictScratch,
            out: &mut Vec<f64>,
        ) {
            self.0.predict_colocation_sums(batch, scratch, out);
        }

        fn model_name(&self) -> &'static str {
            "unbounded"
        }
    }

    /// A staged model that counts the candidates its first stage bounds
    /// and those it finishes.
    struct Staged<'a> {
        inner: &'a dyn FpsModel,
        bounded: std::sync::atomic::AtomicUsize,
        finished: std::sync::atomic::AtomicUsize,
    }

    impl FpsModel for Staged<'_> {
        fn predict_member_fps(&self, members: &[Placement], idx: usize) -> f64 {
            self.inner.predict_member_fps(members, idx)
        }

        fn predict_colocation_sums(
            &self,
            batch: &ColocationBatch,
            scratch: &mut PredictScratch,
            out: &mut Vec<f64>,
        ) {
            self.inner.predict_colocation_sums(batch, scratch, out);
        }

        fn bound_colocation_sums(
            &self,
            batch: &ColocationBatch,
            scratch: &mut PredictScratch,
            out: &mut Vec<SumBound>,
        ) {
            self.inner.bound_colocation_sums(batch, scratch, out);
            let bounded = out.iter().filter(|b| b.exact().is_none()).count();
            self.bounded
                .fetch_add(bounded, std::sync::atomic::Ordering::Relaxed);
        }

        fn finish_colocation_sum(
            &self,
            batch: &ColocationBatch,
            i: usize,
            scratch: &mut PredictScratch,
        ) -> f64 {
            self.finished
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.finish_colocation_sum(batch, i, scratch)
        }

        fn model_name(&self) -> &'static str {
            "staged"
        }
    }

    /// Random fleets of 4–24 servers fed arrivals and departures, scored
    /// side by side with the real GAugur model, pruned and unpruned: every
    /// selection is the full recompute's server with its delta bits, and
    /// the pruned path's server sums, counts and `before` sums are the
    /// unpruned path's, bit for bit, after every step — while it finishes
    /// only some of the candidates it bounds.
    #[test]
    fn pruned_selection_with_the_real_model_is_the_full_recomputes() {
        use rand::Rng;
        let gaugur = real_model();
        let rm = crate::GaugurRm(gaugur);
        let staged = Staged {
            inner: &rm,
            bounded: Default::default(),
            finished: Default::default(),
        };
        let games: Vec<GameId> = gaugur.profiles.sorted().iter().map(|p| p.id).collect();
        let sums = |cache: &ScoreCache| -> Vec<Option<(u64, u64)>> {
            cache
                .sums
                .iter()
                .map(|e| e.map(|(v, sum)| (v, sum.to_bits())))
                .collect()
        };
        let bits = |sel: Selection| {
            let Selection {
                server,
                delta,
                server_sum,
                before_sum,
            } = sel;
            (
                server,
                delta.to_bits(),
                server_sum.to_bits(),
                before_sum.to_bits(),
            )
        };
        let mut scratch = PlacementScratch::new();
        for stream in 0..6u64 {
            let mut rng = gaugur_gamesim::rng::rng_for(0x5EED, &[stream]);
            let n = rng.gen_range(4..=24);
            let mut fleet: Vec<Vec<Placement>> = vec![Vec::new(); n];
            let (mut pruned_cache, mut full_cache) = (ScoreCache::new(n), ScoreCache::new(n));
            for step in 0..50 {
                let occupied: Vec<usize> = (0..n).filter(|&s| !fleet[s].is_empty()).collect();
                if !occupied.is_empty() && rng.gen_bool(0.3) {
                    let s = occupied[rng.gen_range(0..occupied.len())];
                    let leaving = rng.gen_range(0..fleet[s].len());
                    fleet[s].swap_remove(leaving);
                    pruned_cache.invalidate(s);
                    full_cache.invalidate(s);
                    continue;
                }
                let res = if rng.gen_bool(0.5) {
                    R
                } else {
                    Resolution::Hd720
                };
                let request = (games[rng.gen_range(0..games.len())], res);
                let pruned = select_server_incremental_with(
                    &fleet,
                    request,
                    &staged,
                    1,
                    &mut pruned_cache,
                    &mut scratch,
                );
                let full = select_server_incremental_with(
                    &fleet,
                    request,
                    &Unbounded(&rm),
                    1,
                    &mut full_cache,
                    &mut PlacementScratch::new(),
                );
                let at = format!("stream {stream}, step {step}");
                assert_eq!(pruned.map(bits), full.map(bits), "{at}");
                let reference = full_recompute_with(&rm, &fleet, request);
                let got = pruned.map(|sel| (sel.server, sel.delta.to_bits()));
                assert_eq!(
                    got,
                    reference.map(|(s, delta)| (s, delta.to_bits())),
                    "{at}"
                );
                assert_eq!(sums(&pruned_cache), sums(&full_cache), "{at}");
                assert_eq!(pruned_cache.counts(), full_cache.counts(), "{at}");
                if let Some(sel) = pruned {
                    fleet[sel.server].push(request);
                }
            }
        }
        let bounded = staged.bounded.into_inner();
        let finished = staged.finished.into_inner();
        assert!(
            finished < bounded,
            "{finished} of {bounded} bounded candidates finished: nothing pruned"
        );
    }

    #[test]
    fn eligibility_respects_cap_and_duplicates() {
        let occupancy = vec![
            vec![(GameId(0), R); 1],
            vec![
                (GameId(1), R),
                (GameId(2), R),
                (GameId(3), R),
                (GameId(4), R),
            ],
            vec![(GameId(5), R)],
        ];
        // Server 1 is full; server 0 already runs game 0.
        assert_eq!(eligible_servers(&occupancy, GameId(0)), vec![2]);
        assert_eq!(eligible_servers(&occupancy, GameId(9)), vec![0, 2]);
    }

    #[test]
    fn first_fit_picks_lowest_eligible_index() {
        let occupancy = vec![vec![(GameId(7), R)], vec![], vec![]];
        let mut cache = ScoreCache::new(3);
        assert_eq!(
            select_server(&occupancy, (GameId(7), R), &Policy::FirstFit, 1, &mut cache),
            Some(1)
        );
        assert_eq!(
            select_server(&occupancy, (GameId(8), R), &Policy::FirstFit, 1, &mut cache),
            Some(0)
        );
    }

    #[test]
    fn saturated_fleet_yields_none() {
        let full = vec![vec![
            (GameId(1), R),
            (GameId(2), R),
            (GameId(3), R),
            (GameId(4), R),
        ]];
        let mut cache = ScoreCache::new(1);
        assert_eq!(
            select_server(&full, (GameId(9), R), &Policy::FirstFit, 1, &mut cache),
            None
        );
        assert_eq!(
            select_server_incremental(&full, (GameId(9), R), &FakeFps, 1, &mut cache),
            None
        );
    }

    #[test]
    fn incremental_selection_matches_full_recompute() {
        // A mixed fleet: empty, lightly and heavily loaded servers.
        let occupancy = vec![
            vec![],
            vec![(GameId(3), R), (GameId(8), Resolution::Hd720)],
            vec![(GameId(1), R)],
            vec![(GameId(2), R), (GameId(5), R), (GameId(9), R)],
            vec![(GameId(4), R); 1],
        ];
        let mut cache = ScoreCache::new(occupancy.len());
        for g in [0u32, 6, 7, 11, 13] {
            let request = (GameId(g), R);
            let full = full_recompute(&occupancy, request);
            let mut fresh = ScoreCache::new(occupancy.len());
            let policy = Policy::MaxPredictedFps(&FakeFps);
            let inc = select_server(&occupancy, request, &policy, 1, &mut fresh);
            assert_eq!(full, inc, "game {g} (cold cache)");
            let warm = select_server_incremental(&occupancy, request, &FakeFps, 1, &mut cache);
            assert_eq!(full, warm.map(|s| s.server), "game {g} (warm cache)");
            // The fleet does not change, so undo the admit-contract store to
            // keep the warm cache describing it.
            if let Some(sel) = warm {
                cache.invalidate(sel.server);
            }
        }
    }

    #[test]
    fn explicit_scratch_selection_matches_the_wrapper() {
        let occupancy = vec![
            vec![],
            vec![(GameId(3), R), (GameId(8), Resolution::Hd720)],
            vec![(GameId(1), R)],
            vec![(GameId(2), R), (GameId(5), R), (GameId(9), R)],
        ];
        let mut scratch = PlacementScratch::new();
        for g in [0u32, 6, 7, 11, 13] {
            let request = (GameId(g), R);
            let mut c1 = ScoreCache::new(occupancy.len());
            let mut c2 = ScoreCache::new(occupancy.len());
            let wrapped = select_server_incremental(&occupancy, request, &FakeFps, 1, &mut c1);
            let explicit = select_server_incremental_with(
                &occupancy,
                request,
                &FakeFps,
                1,
                &mut c2,
                &mut scratch,
            );
            assert_eq!(wrapped, explicit, "game {g}");
            assert_eq!(c1.counts(), c2.counts(), "game {g}");
        }
    }

    /// [`FakeFps`] behind a sum cache, the shape of the daemon's memoized
    /// model: resident-only lookups never evaluate, evaluations fill the
    /// cache.
    #[derive(Default)]
    struct CachedFake {
        sums: std::sync::Mutex<std::collections::HashMap<Vec<Placement>, f64>>,
        evaluations: std::sync::atomic::AtomicUsize,
    }

    impl FpsModel for CachedFake {
        fn predict_member_fps(&self, members: &[Placement], idx: usize) -> f64 {
            FakeFps.predict_member_fps(members, idx)
        }

        fn predict_colocation_sum(&self, members: &[Placement]) -> f64 {
            *self
                .sums
                .lock()
                .unwrap()
                .entry(members.to_vec())
                .or_insert_with(|| {
                    self.evaluations
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    FakeFps.predict_colocation_sum(members)
                })
        }

        fn resident_colocation_bounds(
            &self,
            batch: &ColocationBatch,
            _scratch: &mut PredictScratch,
            out: &mut Vec<SumBound>,
        ) -> bool {
            out.clear();
            let sums = self.sums.lock().unwrap();
            (0..batch.len()).all(|i| match sums.get(batch.members(i)) {
                Some(&sum) => {
                    out.push(SumBound::Exact(sum));
                    true
                }
                None => false,
            })
        }

        fn model_name(&self) -> &'static str {
            "cached fake"
        }
    }

    #[test]
    fn resident_selection_bails_out_before_the_score_cache_and_then_agrees() {
        let occupancy = vec![
            vec![],
            vec![(GameId(3), R), (GameId(8), Resolution::Hd720)],
            vec![(GameId(1), R)],
            vec![(GameId(2), R), (GameId(5), R), (GameId(9), R)],
        ];
        let request = (GameId(7), R);
        let model = CachedFake::default();
        let mut scratch = PlacementScratch::new();
        let mut cache = ScoreCache::new(occupancy.len());

        // Nothing cached: the pass stops without a probe or a store, and
        // without evaluating anything.
        let first =
            select_server_if_resident(&occupancy, request, &model, 1, &mut cache, &mut scratch);
        assert_eq!(first, Err(NotResident));
        assert_eq!(cache.counts(), (0, 0));
        assert_eq!(
            model.evaluations.load(std::sync::atomic::Ordering::Relaxed),
            0
        );

        // What it left behind: the four `before` sums the score cache
        // lacks, and the four extended colocations.
        scratch.evaluate_candidates(&model);
        assert_eq!(
            model.evaluations.load(std::sync::atomic::Ordering::Relaxed),
            8
        );

        // The ordinary pass now equals a selection that never bailed out.
        let second = select_server_incremental_with(
            &occupancy,
            request,
            &model,
            1,
            &mut cache,
            &mut scratch,
        );
        let mut reference_cache = ScoreCache::new(occupancy.len());
        let reference = select_server_incremental_with(
            &occupancy,
            request,
            &FakeFps,
            1,
            &mut reference_cache,
            &mut PlacementScratch::new(),
        );
        assert_eq!(second, reference);
        assert_eq!(cache.counts(), reference_cache.counts());

        // Everything resident (the unchanged fleet, rolled back): one pass,
        // same answer, same hit/miss stream as the ordinary call.
        let sel = second.unwrap();
        cache.rollback(sel.server, 1, sel.server_sum, sel.before_sum);
        reference_cache.rollback(sel.server, 1, sel.server_sum, sel.before_sum);
        let evaluated = model.evaluations.load(std::sync::atomic::Ordering::Relaxed);
        let third =
            select_server_if_resident(&occupancy, request, &model, 1, &mut cache, &mut scratch);
        let reference = select_server_incremental_with(
            &occupancy,
            request,
            &FakeFps,
            1,
            &mut reference_cache,
            &mut PlacementScratch::new(),
        );
        assert_eq!(third, Ok(reference));
        assert_eq!(cache.counts(), reference_cache.counts());
        assert_eq!(
            model.evaluations.load(std::sync::atomic::Ordering::Relaxed),
            evaluated
        );

        // A saturated fleet is an answer, not a bail-out.
        let full = vec![vec![
            (GameId(1), R),
            (GameId(2), R),
            (GameId(3), R),
            (GameId(4), R),
        ]];
        let mut cache = ScoreCache::new(1);
        assert_eq!(
            select_server_if_resident(&full, request, &model, 1, &mut cache, &mut scratch),
            Ok(None)
        );
    }

    #[test]
    fn resident_selection_with_an_uncached_model_is_the_ordinary_selection() {
        let occupancy = vec![
            vec![],
            vec![(GameId(3), R), (GameId(8), Resolution::Hd720)],
            vec![(GameId(2), R), (GameId(5), R), (GameId(9), R)],
        ];
        let mut scratch = PlacementScratch::new();
        for g in [0u32, 6, 7, 11] {
            let request = (GameId(g), R);
            let mut c1 = ScoreCache::new(occupancy.len());
            let mut c2 = ScoreCache::new(occupancy.len());
            let ordinary = select_server_incremental_with(
                &occupancy,
                request,
                &FakeFps,
                1,
                &mut c1,
                &mut scratch,
            );
            let resident =
                select_server_if_resident(&occupancy, request, &FakeFps, 1, &mut c2, &mut scratch);
            assert_eq!(resident, Ok(ordinary), "game {g}");
            assert_eq!(c1.counts(), c2.counts(), "game {g}");
        }
    }

    #[test]
    fn incremental_delta_equals_placement_delta() {
        let occupancy = vec![vec![(GameId(1), R), (GameId(2), R)], vec![(GameId(3), R)]];
        let request = (GameId(7), R);
        let mut cache = ScoreCache::new(2);
        let sel = select_server_incremental(&occupancy, request, &FakeFps, 1, &mut cache).unwrap();
        let direct = placement_delta(&occupancy[sel.server], request);
        assert!((sel.delta - direct).abs() < 1e-12);
    }

    #[test]
    fn score_cache_hits_after_warmup_and_invalidates_on_version_bump() {
        let occupancy = vec![vec![(GameId(1), R)], vec![(GameId(2), R)], vec![]];
        let mut cache = ScoreCache::new(3);
        // Cold: every eligible server misses. The selection seeds the
        // chosen server's post-admit sum, but the occupancy here does not
        // change, so drop that entry before re-scoring.
        let sel =
            select_server_incremental(&occupancy, (GameId(5), R), &FakeFps, 1, &mut cache).unwrap();
        assert_eq!(cache.counts(), (0, 3));
        cache.invalidate(sel.server);
        // Warm: the untouched servers hit.
        select_server_incremental(&occupancy, (GameId(6), R), &FakeFps, 1, &mut cache).unwrap();
        let (hits, misses) = cache.counts();
        assert_eq!(hits, 2);
        assert_eq!(misses, 4);
        // A model-version bump turns every entry stale.
        select_server_incremental(&occupancy, (GameId(6), R), &FakeFps, 2, &mut cache).unwrap();
        let (hits2, misses2) = cache.counts();
        assert_eq!(hits2, hits);
        assert_eq!(misses2, misses + 3);
    }

    #[test]
    fn rollback_restores_the_pre_admit_sum_bit_exactly() {
        let occupancy: Vec<Vec<Placement>> = vec![vec![(GameId(1), R)], vec![(GameId(2), R)]];
        let mut cache = ScoreCache::new(2);
        let sel =
            select_server_incremental(&occupancy, (GameId(5), R), &FakeFps, 1, &mut cache).unwrap();
        cache.rollback(sel.server, 1, sel.server_sum, sel.before_sum);
        // The restored entry must be indistinguishable from a fresh cache:
        // re-scoring the unchanged fleet picks the same server with the same
        // sums, and it does so from a cache *hit* on the rolled-back server.
        let (_, misses_before) = cache.counts();
        let again =
            select_server_incremental(&occupancy, (GameId(5), R), &FakeFps, 1, &mut cache).unwrap();
        assert_eq!(sel, again);
        let (_, misses_after) = cache.counts();
        assert_eq!(
            misses_before, misses_after,
            "rollback should restore, not invalidate"
        );
    }

    #[test]
    fn rollback_of_a_superseded_entry_invalidates_instead() {
        let mut cache = ScoreCache::new(1);
        // Another admission already replaced the entry being rolled back.
        cache.store(0, 1, 10.0);
        cache.rollback(0, 1, 11.0, 9.0);
        assert_eq!(cache.peek(0, 1), None);
        // A version bump likewise drops the entry rather than restoring a
        // sum computed under a stale model.
        cache.store(0, 2, 11.0);
        cache.rollback(0, 1, 11.0, 9.0);
        assert_eq!(cache.peek(0, 2), None);
    }

    #[test]
    fn shard_ranking_orders_by_delta_with_low_shard_ties() {
        let sel = |delta: f64| {
            Some(Selection {
                server: 0,
                delta,
                server_sum: 0.0,
                before_sum: 0.0,
            })
        };
        let mut out = Vec::new();
        rank_shard_selections(&[sel(1.0), None, sel(5.0), sel(1.0), sel(-2.0)], &mut out);
        // 5.0 first, then the two tied 1.0s in ascending shard order, then
        // the negative delta; the shard with no candidate never appears.
        assert_eq!(out, vec![2, 0, 3, 4]);

        rank_shard_selections(&[None, None], &mut out);
        assert!(out.is_empty());

        // NaN-free total order: -0.0 and 0.0 rank deterministically.
        rank_shard_selections(&[sel(0.0), sel(-0.0)], &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn sharded_scoring_agrees_with_whole_fleet_scoring() {
        // Score a 6-server fleet as one domain and as 3 two-server shards;
        // the cross-shard argmax must land on the same global server.
        let occupancy: Vec<Vec<Placement>> = vec![
            vec![(GameId(1), R), (GameId(2), R)],
            vec![],
            vec![(GameId(3), R)],
            vec![(GameId(4), R), (GameId(5), R), (GameId(6), R)],
            vec![(GameId(7), R)],
            vec![(GameId(8), R), (GameId(9), R)],
        ];
        for g in [0u32, 5, 10, 12] {
            let request = (GameId(g), R);
            let whole = full_recompute(&occupancy, request);

            let candidates: Vec<Option<Selection>> = occupancy
                .chunks(2)
                .map(|shard_occ| {
                    let mut cache = ScoreCache::new(shard_occ.len());
                    select_server_incremental(shard_occ, request, &FakeFps, 1, &mut cache)
                })
                .collect();
            let mut ranked = Vec::new();
            rank_shard_selections(&candidates, &mut ranked);
            let global = ranked
                .first()
                .map(|&shard| shard * 2 + candidates[shard].as_ref().expect("ranked Some").server);
            assert_eq!(whole, global, "game {g}");
        }
    }

    #[test]
    fn admit_contract_keeps_cache_consistent() {
        // Simulate the daemon loop: select, admit, repeat; then verify the
        // cached sums equal freshly computed ones.
        let mut occupancy: Vec<Vec<Placement>> = vec![vec![], vec![], vec![]];
        let mut cache = ScoreCache::new(3);
        for g in 0..6u32 {
            let request = (GameId(g), R);
            let sel = select_server_incremental(&occupancy, request, &FakeFps, 1, &mut cache)
                .expect("fleet has room");
            occupancy[sel.server].push(request);
            let fresh = FakeFps.predict_colocation_sum(&occupancy[sel.server]);
            assert!(
                (sel.server_sum - fresh).abs() < 1e-12,
                "cached sum diverged after admitting game {g}"
            );
        }
    }
}
