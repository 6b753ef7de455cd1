//! Model lifecycle: loading the persisted GAugur artifact, hot-swapping it
//! behind an `RwLock`, and memoizing predictions.
//!
//! In-flight requests clone the current `Arc<LoadedModel>` once at dispatch
//! and keep using it for the whole request, so a concurrent `ReloadModel`
//! can never fail or skew a request that already started — the old model
//! simply lives until its last request drops the Arc.

use crate::trace::{elapsed_us, RequestTrace, Stage};
use crate::wire::{BatchPlaceResult, Request, Response};
use gaugur_core::hash::FastMap;
use gaugur_core::{GAugur, Placement};
use gaugur_sched::maxfps::MAX_PER_SERVER;
use gaugur_sched::{
    closed_form_sum, ColocationBatch, FpsModel, PredictScratch, PredictorFps, SumBound,
};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One immutable loaded model plus its provenance.
pub struct LoadedModel {
    /// The trained predictor.
    pub gaugur: GAugur,
    /// Monotonic version, bumped on every (re)load.
    pub version: u64,
    /// The artifact the model came from.
    pub source: PathBuf,
}

impl LoadedModel {
    /// Whether `id` is a game this model can predict for.
    pub fn knows_game(&self, id: gaugur_gamesim::GameId) -> bool {
        self.gaugur.profiles.contains(id)
    }

    /// The reply text for a request naming a game this model has no
    /// profile for, or `Ok` when it knows `game`.
    pub(crate) fn check_game(&self, game: gaugur_gamesim::GameId) -> Result<(), String> {
        match self.knows_game(game) {
            true => Ok(()),
            false => Err(format!("unknown game {}", game.0)),
        }
    }

    /// The reply to a `Place` or a `PlaceBatch` (panics on any other
    /// request): an unknown game is an `Error` for a `Place` and a rejected
    /// item of a batch; every other item goes to `place`, in order, whose
    /// `(session, global server, predicted fps)` is placed and whose `None`
    /// is rejected as a saturated fleet.
    pub(crate) fn place_reply(
        &self,
        request: &Request,
        mut place: impl FnMut(Placement) -> Option<(u64, usize, f64)>,
    ) -> (Response, bool) {
        const SATURATED: &str = "no eligible server (fleet saturated)";
        let model_version = self.version;
        match request {
            Request::Place { game, resolution } => {
                if let Err(message) = self.check_game(*game) {
                    return (Response::Error { message }, false);
                }
                let reply = match place((*game, *resolution)) {
                    Some((session, server, predicted_fps)) => Response::Placed {
                        session,
                        server,
                        predicted_fps,
                        model_version,
                    },
                    None => Response::Rejected {
                        reason: SATURATED.into(),
                    },
                };
                (reply, true)
            }
            Request::PlaceBatch { requests } => {
                let mut item = |&(game, resolution): &Placement| {
                    self.check_game(game)?;
                    place((game, resolution)).ok_or_else(|| SATURATED.to_string())
                };
                let results = requests.iter().map(|placement| match item(placement) {
                    Ok((session, server, predicted_fps)) => BatchPlaceResult::Placed {
                        session,
                        server,
                        predicted_fps,
                    },
                    Err(reason) => BatchPlaceResult::Rejected { reason },
                });
                let results = results.collect();
                (
                    Response::PlacedBatch {
                        model_version,
                        results,
                    },
                    true,
                )
            }
            other => unreachable!("not a placement request: {other:?}"),
        }
    }

    /// The reply to a `Predict` of `target` beside `others` at floor `qos`,
    /// answered through `memo` (only that call is timed, as
    /// [`Stage::Predict`]) — or the error text of an unknown game or
    /// co-runner, or of a floor that is not a finite non-negative number.
    pub(crate) fn predict_reply(
        &self,
        memo: &PredictionMemo,
        target: Placement,
        others: &[Placement],
        qos: f64,
        scratch: &mut PredictScratch,
        trace: &mut RequestTrace,
    ) -> Result<Response, String> {
        self.check_game(target.0)?;
        if let Some(bad) = others.iter().find(|(g, _)| !self.knows_game(*g)) {
            return Err(format!("unknown co-runner game {}", bad.0 .0));
        }
        if !qos.is_finite() || qos < 0.0 {
            return Err(format!("invalid qos {qos}"));
        }
        let started = Instant::now();
        let (prediction, cached) = memo.predict_with(self, qos, target, others, scratch);
        trace.add(Stage::Predict, elapsed_us(started));
        Ok(Response::Prediction {
            feasible: prediction.feasible,
            degradation: prediction.degradation,
            fps: prediction.fps,
            model_version: self.version,
            cached,
        })
    }
}

/// Shared, hot-swappable reference to the current model.
pub struct ModelHandle {
    current: RwLock<Arc<LoadedModel>>,
    versions: AtomicU64,
}

impl ModelHandle {
    /// Load the initial model from a `gaugur build` JSON artifact.
    pub fn load(path: impl AsRef<Path>) -> io::Result<ModelHandle> {
        let path = path.as_ref();
        let gaugur = GAugur::load_json(path)?;
        Ok(ModelHandle {
            current: RwLock::new(Arc::new(LoadedModel {
                gaugur,
                version: 1,
                source: path.to_path_buf(),
            })),
            versions: AtomicU64::new(1),
        })
    }

    /// Wrap an already-trained model (tests, benches).
    pub fn from_model(gaugur: GAugur) -> ModelHandle {
        ModelHandle {
            current: RwLock::new(Arc::new(LoadedModel {
                gaugur,
                version: 1,
                source: PathBuf::from("<in-memory>"),
            })),
            versions: AtomicU64::new(1),
        }
    }

    /// The current model. Cheap: one read-lock acquisition and an Arc clone.
    pub fn get(&self) -> Arc<LoadedModel> {
        self.current.read().clone()
    }

    /// Version of the currently served model.
    pub fn version(&self) -> u64 {
        self.get().version
    }

    /// Reload from `path` (or the current model's source when `None`) and
    /// swap atomically. The swap happens only after a successful load: a
    /// bad artifact leaves the old model serving and returns the error.
    ///
    /// Concurrent reloads are safe: artifact loading (the slow part) runs
    /// outside any lock, but the version is assigned *under* the write
    /// lock, so whichever reload publishes later carries the strictly
    /// higher version — a slow reload racing a fast one can never roll the
    /// served model back while the version counter claims otherwise.
    pub fn reload(&self, path: Option<&Path>) -> io::Result<u64> {
        let source = match path {
            Some(p) => p.to_path_buf(),
            None => self.get().source.clone(),
        };
        let gaugur = GAugur::load_json(&source)?;
        Ok(self.publish(gaugur, source))
    }

    /// Swap in an already-loaded model; returns its assigned version.
    /// Version assignment and publication happen under one write-lock
    /// critical section, which is what makes the served version monotonic
    /// under concurrent reloads.
    fn publish(&self, gaugur: GAugur, source: PathBuf) -> u64 {
        let mut current = self.current.write();
        let version = self.versions.fetch_add(1, Ordering::SeqCst) + 1;
        *current = Arc::new(LoadedModel {
            gaugur,
            version,
            source,
        });
        version
    }
}

/// The members of a colocation as a fixed-size inline value: at most
/// [`MAX_PER_SERVER`] `(game, resolution)` pairs in sorted order — member
/// order is irrelevant to the model (features are symmetric sums), so
/// permutations share an entry — with the unused slots holding a filler no
/// real member can equal. Building one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Members {
    games: [u32; MAX_PER_SERVER],
    resolutions: [u8; MAX_PER_SERVER],
}

impl Members {
    /// `None` when `members` holds more than fit — such a set is never
    /// memoized (the fleet cannot produce one; a wire `Predict` can).
    fn canonical(members: &[Placement]) -> Option<Members> {
        if members.len() > MAX_PER_SERVER {
            return None;
        }
        // Sorted as one integer per member, game above resolution.
        let mut packed = [u64::MAX; MAX_PER_SERVER];
        for (slot, &(game, resolution)) in packed.iter_mut().zip(members) {
            *slot = u64::from(game.0) << 8 | resolution as u64;
        }
        packed.sort_unstable();
        Some(Members {
            games: packed.map(|p| (p >> 8) as u32),
            resolutions: packed.map(|p| p as u8),
        })
    }
}

/// Three fixed-width writes, three folds of the memo's hasher. The derive
/// would hash two length-prefixed slices; on a memo hit, where the hash is
/// most of the work, that and sorting pairs instead of integers measured
/// 57 ns against 45 ns a lookup (with std's SipHash).
impl std::hash::Hash for Members {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let [a, b, c, d] = self.games;
        state.write_u64(u64::from(a) << 32 | u64::from(b));
        state.write_u64(u64::from(c) << 32 | u64::from(d));
        state.write_u32(u32::from_le_bytes(self.resolutions));
    }
}

/// Memo key of one prediction: the full semantic input. The model version
/// is part of the key, which makes hot reloads invalidate the memo for free
/// (stale entries age out through the generations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    version: u64,
    /// The QoS floor's bits, `-0.0` written as `0.0`.
    qos: u64,
    game: u32,
    resolution: u8,
    others: Members,
}

fn memo_key(version: u64, qos: f64, target: Placement, others: &[Placement]) -> Option<MemoKey> {
    Some(MemoKey {
        version,
        // Exactly the floor asked: two floors that differ by any amount can
        // get different judgements. The two zeros are one floor.
        qos: if qos == 0.0 { 0.0f64 } else { qos }.to_bits(),
        game: target.0 .0,
        resolution: target.1 as u8,
        others: Members::canonical(others)?,
    })
}

/// A memoized prediction: QoS class plus degradation ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// CM-style class: does every-member-above-floor hold for the target.
    pub feasible: bool,
    /// Predicted degradation ratio δ̃.
    pub degradation: f64,
    /// Predicted absolute FPS (δ̃ × solo FPS at the target resolution).
    pub fps: f64,
}

/// What the memo keeps of a [`Prediction`], in 8 bytes: the degradation,
/// negated when the prediction is infeasible. The FPS is the degradation
/// times the target's solo FPS, and is recomputed on a hit — the same
/// product, so the same bits. At the paper's scale the map holds two
/// generations of some 28 k entries, so every byte of an entry is 56 KB.
#[derive(Clone, Copy)]
struct Memoized(f64);

impl Memoized {
    /// `None` for a degradation whose sign cannot carry the class — NaN, or
    /// one with its sign bit set, which the RM's positive clamp floor never
    /// yields: such a prediction is not memoized.
    fn new(feasible: bool, degradation: f64) -> Option<Memoized> {
        let positive = degradation.is_sign_positive() && !degradation.is_nan();
        positive.then_some(Memoized(if feasible { degradation } else { -degradation }))
    }

    fn feasible(self) -> bool {
        self.0.is_sign_positive()
    }

    fn degradation(self) -> f64 {
        self.0.abs()
    }
}

/// Memo key for a whole colocation's summed FPS: its members plus the model
/// version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SumKey {
    version: u64,
    members: Members,
}

fn sum_key(version: u64, members: &[Placement]) -> Option<SumKey> {
    Some(SumKey {
        version,
        members: Members::canonical(members)?,
    })
}

/// A colocation's memoized sum or first-stage bound in the 8 bytes of an
/// `f64`: a sum as it is, a bound negated ([`recalled`] reads it back). A
/// summed FPS is a sum of non-negative frame rates, so its sign bit is
/// clear, and a bound `≥` it is too; a bound with its sign bit set (the
/// sum is then at most `-0.0`) is kept as `-0.0`, and a NaN as NaN.
fn stored(entry: SumBound) -> f64 {
    match entry {
        SumBound::Exact(sum) => sum,
        SumBound::AtMost(bound) if bound.is_nan() => bound,
        SumBound::AtMost(bound) if bound.is_sign_negative() => -0.0,
        SumBound::AtMost(bound) => -bound,
    }
}

/// The [`SumBound`] a [`stored`] value stands for: a sum for a number with
/// its sign bit clear, a bound otherwise — its negation, which is `≥` the
/// sum whatever was stored. So the memo may answer a sum it holds with a
/// bound (a sum with its sign bit set, which only a model predicting
/// negative frame rates could give; a NaN), never a bound with a sum.
fn recalled(value: f64) -> SumBound {
    match value.is_sign_positive() && !value.is_nan() {
        true => SumBound::Exact(value),
        false => SumBound::AtMost(-value),
    }
}

/// A bounded map that forgets by generation instead of all at once.
///
/// Inserts go to the young generation; once it holds half the capacity the
/// generations rotate — the old one is dropped, the young one becomes old —
/// so at most `capacity` entries exist. A hit in the old generation moves
/// the entry back to the young one: whatever was used since the last
/// rotation survives the next. Both tables grow on demand and keep their
/// allocation across rotations, so a working set far below the capacity
/// costs what it holds and a lookup that hits allocates nothing. They hash
/// with [`FastState`](gaugur_core::hash::FastState): a key holds a
/// client's QoS floor and colocation, and which keys collide depends on a
/// per-process seed it cannot know.
///
/// A generation also ends early when its table is full and would have to
/// grow for less than it already holds: a table doubles when it grows, so
/// that last doubling would sit mostly empty until the rotation. After a
/// rotation the new generation takes the room the last one filled at once.
struct Generations<K, V> {
    young: FastMap<K, V>,
    old: FastMap<K, V>,
    /// Entries per generation.
    half: usize,
}

impl<K: std::hash::Hash + Eq + Copy, V: Copy> Generations<K, V> {
    fn new(capacity: usize) -> Generations<K, V> {
        Generations {
            young: FastMap::default(),
            old: FastMap::default(),
            half: capacity / 2,
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        if let Some(&hit) = self.young.get(key) {
            return Some(hit);
        }
        let hit = self.old.remove(key)?;
        self.insert(*key, hit);
        Some(hit)
    }

    fn insert(&mut self, key: K, value: V) {
        let len = self.young.len();
        if len >= self.half || (len == self.young.capacity() && 2 * len > self.half) {
            std::mem::swap(&mut self.young, &mut self.old);
            self.young.clear();
            // The new generation fills as the last one did: take its room
            // at once (no more than that table's) instead of doubling up to
            // it, which would hold a half-size table beside each new one.
            self.young.reserve(self.old.len());
        }
        self.young.insert(key, value);
    }

    fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }
}

/// Bounded memo of `(model, target, colocation, qos) → prediction`, plus a
/// second map memoizing whole-colocation summed FPS — the quantity the
/// placement greedy compares per candidate server — so a placement whose
/// candidates were seen recently costs one lookup per candidate instead of
/// one model evaluation per member.
///
/// At the paper's scale (100 games × 2 resolutions) the colocations a fleet
/// runs through far outnumber any sensible capacity, so the bound is in
/// force continuously: both maps keep two generations and never drop
/// recently hit entries. The memo is a pure cache — every value is a
/// function of its key — so what is resident changes cost, never an answer.
/// That holds for the upper bounds the first scoring stage computes, too:
/// the sum map keeps a colocation's bound until its exact sum replaces it.
///
/// Each question has one entry point. A prediction is
/// [`predict_with`](PredictionMemo::predict_with), the only one that runs
/// the CM. A summed FPS is the two stages of [`PredictorFps::rm`], cached:
/// [`colocation_bounds`] answers a batch with sums and bounds, and
/// [`finish_colocation_sum`] makes any bound exact; an exact sum is the two
/// run to the end ([`gaugur_sched::exact_colocation_sums`] through
/// [`MemoizedFps`]). [`resident_colocation_bounds`] is the first stage for
/// a caller that must not evaluate. A memoized bound is a hit to every
/// caller.
///
/// [`colocation_bounds`]: PredictionMemo::colocation_bounds
/// [`finish_colocation_sum`]: PredictionMemo::finish_colocation_sum
/// [`resident_colocation_bounds`]: PredictionMemo::resident_colocation_bounds
pub struct PredictionMemo {
    map: Mutex<Generations<MemoKey, Memoized>>,
    /// [`stored`] sums and bounds.
    sums: Mutex<Generations<SumKey, f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    rows: [AtomicU64; 3],
}

/// RM rows a [`PredictionMemo`] had the model evaluate, by how far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowCounts {
    /// Rows run through the first stage for a bound.
    pub first_stage: u64,
    /// Of those, rows later continued through the second stage.
    pub second_stage: u64,
    /// Rows run through every tree in one go: predictions, a memoized
    /// bound's colocation finished, the sums of a model with one stage.
    /// Every other exact sum runs the two stages.
    pub whole: u64,
}

impl RowCounts {
    /// Rows that went through every tree.
    pub fn through_all_trees(&self) -> u64 {
        self.second_stage + self.whole
    }

    /// Rows the first stage's bound stopped.
    pub fn stopped(&self) -> u64 {
        self.first_stage - self.second_stage
    }
}

/// Indices of [`PredictionMemo::rows`], in [`RowCounts`] order.
const FIRST_STAGE: usize = 0;
const SECOND_STAGE: usize = 1;
const WHOLE: usize = 2;

impl PredictionMemo {
    /// Memo bounded to `capacity` entries per map (at least 16).
    pub fn new(capacity: usize) -> PredictionMemo {
        let capacity = capacity.max(16);
        PredictionMemo {
            map: Mutex::new(Generations::new(capacity)),
            sums: Mutex::new(Generations::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rows: Default::default(),
        }
    }

    fn count_rows(&self, which: usize, rows: usize) {
        self.rows[which].fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// What the memo knows of `members`' summed FPS without evaluating: a
    /// closed form, or the sum or bound memoized for it — a hit, added to
    /// `hits` — else `None`. The sum map's lock is taken at the first
    /// colocation that needs it and kept in `sums` for the caller's pass.
    fn recall<'m>(
        &'m self,
        model: &LoadedModel,
        members: &[Placement],
        sums: &mut Option<MutexGuard<'m, Generations<SumKey, f64>>>,
        hits: &mut u64,
    ) -> Option<SumBound> {
        if let Some(sum) = closed_form_sum(&model.gaugur.profiles, members) {
            return Some(SumBound::Exact(sum));
        }
        let sums = sums.get_or_insert_with(|| self.sums.lock());
        let hit = sum_key(model.version, members).and_then(|key| sums.get(&key))?;
        *hits += 1;
        Some(recalled(hit))
    }

    /// [`colocation_bounds`](PredictionMemo::colocation_bounds) only if it
    /// takes no model evaluation: with every colocation of two or more
    /// members in `batch` resident — its sum or its bound — write what the
    /// memo holds into `out` and return `true`; at the first one that is
    /// not, return `false` with `out` unspecified. Counts the hits of a
    /// complete answer only — an abandoned pass is not a lookup the caller
    /// gets to use.
    pub fn resident_colocation_bounds(
        &self,
        model: &LoadedModel,
        batch: &ColocationBatch,
        out: &mut Vec<SumBound>,
    ) -> bool {
        out.clear();
        let (mut hits, mut sums) = (0, None);
        for i in 0..batch.len() {
            match self.recall(model, batch.members(i), &mut sums, &mut hits) {
                Some(known) => out.push(known),
                None => return false,
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        true
    }

    /// The first scoring stage over `batch`, through the memo: each
    /// colocation's exact sum or an upper bound on it into `out` (cleared
    /// first), in batch order. Empty and lone colocations are closed forms;
    /// a memoized sum or bound is a hit; the misses go, as a batch of their
    /// own ([`PredictScratch::misses`]) and with no memo lock held, to
    /// [`PredictorFps::rm`]'s first stage, whose answers are memoized — a
    /// model with one stage gives exact sums there, memoized as such.
    /// [`PredictionMemo::finish_colocation_sum`] finishes any bounded one.
    pub fn colocation_bounds(
        &self,
        model: &LoadedModel,
        batch: &ColocationBatch,
        scratch: &mut PredictScratch,
        out: &mut Vec<SumBound>,
    ) {
        out.clear();
        let mut misses = std::mem::take(&mut scratch.misses);
        misses.batch.clear();
        misses.at.clear();
        let (mut hits, mut rows, mut sums) = (0, 0, None);
        for i in 0..batch.len() {
            let members = batch.members(i);
            let known = self.recall(model, members, &mut sums, &mut hits);
            if known.is_none() {
                misses.batch.push(members);
                misses.at.push(i);
                rows += members.len();
            }
            out.push(known.unwrap_or(SumBound::AtMost(f64::NAN)));
        }
        drop(sums);
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses
            .fetch_add(misses.at.len() as u64, Ordering::Relaxed);
        if !misses.at.is_empty() {
            PredictorFps::rm(&model.gaugur).bound_colocation_sums(
                &misses.batch,
                scratch,
                &mut misses.bounds,
            );
            // A model with one stage answers every miss exactly.
            let exact = misses.bounds[0].exact().is_some();
            self.count_rows(if exact { WHOLE } else { FIRST_STAGE }, rows);
            let mut sums = self.sums.lock();
            for (&i, &bound) in misses.at.iter().zip(&misses.bounds) {
                let members = batch.members(i);
                out[i] = bound;
                if let Some(key) = sum_key(model.version, members) {
                    sums.insert(key, stored(bound));
                }
            }
        }
        scratch.misses = misses;
    }

    /// The second stage: the exact sum of colocation `i` of `batch`, which
    /// the last [`PredictionMemo::colocation_bounds`] of it through
    /// `scratch` left bounded, memoized in place of the bound. A missed
    /// colocation continues through [`PredictorFps::rm`]'s second stage;
    /// one whose bound came from the memo is `PredictorFps`'s scalar sum,
    /// which leaves `scratch` to the other candidates. Either way the bits
    /// are the member-wise sum's, the RM's alone: no sum runs the CM.
    pub fn finish_colocation_sum(
        &self,
        model: &LoadedModel,
        batch: &ColocationBatch,
        i: usize,
        scratch: &mut PredictScratch,
    ) -> f64 {
        let members = batch.members(i);
        let rm = PredictorFps::rm(&model.gaugur);
        let sum = match scratch.misses.at.binary_search(&i) {
            Ok(miss) => {
                self.count_rows(SECOND_STAGE, members.len());
                let misses = std::mem::take(&mut scratch.misses);
                let sum = rm.finish_colocation_sum(&misses.batch, miss, scratch);
                scratch.misses = misses;
                sum
            }
            Err(_) => {
                self.count_rows(WHOLE, members.len());
                rm.predict_colocation_sum(members)
            }
        };
        if let Some(key) = sum_key(model.version, members) {
            self.sums.lock().insert(key, sum);
        }
        sum
    }

    /// Predict `target` beside `others` at floor `qos` through the memo:
    /// the RM's degradation and the CM's feasibility, each one row through
    /// the model's scalar path, which gives a batch's bits without padding
    /// a lane block. Returns the prediction and whether it was served from
    /// cache. A target with no co-runners is answered in closed form and a
    /// co-runner set too large for a key (only a wire `Predict` can name
    /// one) straight from the model: neither takes an entry or a count.
    /// `_scratch` is not used: the model keeps a scalar row's buffers per
    /// thread.
    pub fn predict_with(
        &self,
        model: &LoadedModel,
        qos: f64,
        target: Placement,
        others: &[Placement],
        _scratch: &mut PredictScratch,
    ) -> (Prediction, bool) {
        let solo = model.gaugur.profiles.get(target.0).solo_fps_at(target.1);
        if others.is_empty() {
            // Solo: no interference, no model involved.
            let prediction = Prediction {
                feasible: solo >= qos,
                degradation: 1.0,
                fps: solo,
            };
            return (prediction, false);
        }
        let key = memo_key(model.version, qos, target, others);
        if let Some(hit) = key.and_then(|key| self.map.lock().get(&key)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let prediction = Prediction {
                feasible: hit.feasible(),
                degradation: hit.degradation(),
                fps: hit.degradation() * solo,
            };
            return (prediction, true);
        }
        let degradation = model.gaugur.predict_degradation(target, others);
        self.count_rows(WHOLE, 1);
        let prediction = Prediction {
            feasible: model.gaugur.predict_qos(qos, target, others),
            degradation,
            fps: degradation * solo,
        };
        if let Some(key) = key {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if let Some(memoized) = Memoized::new(prediction.feasible, prediction.degradation) {
                self.map.lock().insert(key, memoized);
            }
        }
        (prediction, false)
    }

    /// `(hits, misses)` so far. A colocation's memoized bound is a hit:
    /// [`PredictionMemo::finish_colocation_sum`] finishes it.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// The RM rows evaluated so far.
    pub fn row_counts(&self) -> RowCounts {
        let [first_stage, second_stage, whole] =
            self.rows.each_ref().map(|n| n.load(Ordering::Relaxed));
        RowCounts {
            first_stage,
            second_stage,
            whole,
        }
    }

    /// Prediction entries currently held.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether the memo holds no prediction entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// [`FpsModel`] adapter that routes every query through the memo, so the
/// placement greedy benefits from caching too.
pub struct MemoizedFps<'a> {
    /// The model snapshot this request is pinned to.
    pub model: &'a LoadedModel,
    /// The shared memo.
    pub memo: &'a PredictionMemo,
    /// QoS floor used for the feasibility half of memo entries.
    pub qos: f64,
}

impl FpsModel for MemoizedFps<'_> {
    /// Through [`PredictionMemo::predict_with`]: the placement hot path
    /// asks for sums, never for this.
    fn predict_member_fps(&self, members: &[Placement], idx: usize) -> f64 {
        let others: Vec<Placement> = members
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != idx)
            .map(|(_, &p)| p)
            .collect();
        let scratch = &mut PredictScratch::new();
        self.memo
            .predict_with(self.model, self.qos, members[idx], &others, scratch)
            .0
            .fps
    }

    /// The two stages run to the end
    /// ([`exact_colocation_sums`](gaugur_sched::exact_colocation_sums)).
    fn predict_colocation_sums(
        &self,
        batch: &ColocationBatch,
        scratch: &mut PredictScratch,
        out: &mut Vec<f64>,
    ) {
        gaugur_sched::exact_colocation_sums(self, batch, scratch, out);
    }

    fn bound_colocation_sums(
        &self,
        batch: &ColocationBatch,
        scratch: &mut PredictScratch,
        out: &mut Vec<SumBound>,
    ) {
        self.memo.colocation_bounds(self.model, batch, scratch, out);
    }

    fn finish_colocation_sum(
        &self,
        batch: &ColocationBatch,
        i: usize,
        scratch: &mut PredictScratch,
    ) -> f64 {
        self.memo
            .finish_colocation_sum(self.model, batch, i, scratch)
    }

    fn resident_colocation_bounds(
        &self,
        batch: &ColocationBatch,
        _scratch: &mut PredictScratch,
        out: &mut Vec<SumBound>,
    ) -> bool {
        self.memo.resident_colocation_bounds(self.model, batch, out)
    }

    fn model_name(&self) -> &'static str {
        "GAugur(RM, memoized)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugur_gamesim::{GameCatalog, GameId, Resolution, Server};

    fn tiny_model() -> GAugur {
        let server = Server::reference(7);
        let catalog = GameCatalog::generate(42, 8);
        let config = gaugur_core::GAugurConfig {
            plan: gaugur_core::ColocationPlan {
                pairs: 40,
                triples: 10,
                quads: 5,
                seed: 3,
            },
            ..Default::default()
        };
        GAugur::build(&server, &catalog, config)
    }

    /// `model`'s sums through `memo`, as the daemon asks for them.
    fn memoized<'a>(model: &'a LoadedModel, memo: &'a PredictionMemo) -> MemoizedFps<'a> {
        MemoizedFps {
            model,
            memo,
            qos: 60.0,
        }
    }

    /// The bit reference for the memo's sums: the unmemoized RM member by
    /// member ([`PredictorFps`]), summed by `Iterator::sum`.
    fn reference_sum(model: &LoadedModel, members: &[Placement]) -> u64 {
        PredictorFps::rm(&model.gaugur)
            .predict_colocation_sum(members)
            .to_bits()
    }

    /// Every colocation of `batch` through `fps`'s exact batch path.
    fn sums_of(
        fps: &MemoizedFps<'_>,
        batch: &ColocationBatch,
        scratch: &mut PredictScratch,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        fps.predict_colocation_sums(batch, scratch, &mut out);
        out
    }

    fn bits(sums: &[f64]) -> Vec<u64> {
        sums.iter().map(|s| s.to_bits()).collect()
    }

    /// The 8-byte memo values: a sum and a bound with their sign bits
    /// clear come back as they went in; anything else comes back as a
    /// bound `≥` what was stored (NaN bounds nothing), never as a sum. A
    /// prediction keeps its class in the degradation's sign, or is not kept.
    #[test]
    fn eight_byte_values_read_back_as_stored_or_as_a_bound() {
        let bits = |b: SumBound| match b {
            SumBound::Exact(v) => (true, v.to_bits()),
            SumBound::AtMost(v) => (false, v.to_bits()),
        };
        for v in [0.0, 1e-300, 0.75, 123.456, f64::MAX, f64::INFINITY] {
            assert_eq!(
                bits(recalled(stored(SumBound::Exact(v)))),
                (true, v.to_bits())
            );
            assert_eq!(
                bits(recalled(stored(SumBound::AtMost(v)))),
                (false, v.to_bits())
            );
        }
        for v in [-0.0, -2.5, f64::NEG_INFINITY] {
            assert_eq!(recalled(stored(SumBound::AtMost(v))), SumBound::AtMost(0.0));
            let SumBound::AtMost(bound) = recalled(stored(SumBound::Exact(v))) else {
                panic!("a sum with its sign bit set read back as a sum");
            };
            assert!(bound >= v);
        }
        for stored_nan in [
            stored(SumBound::Exact(f64::NAN)),
            stored(SumBound::AtMost(-f64::NAN)),
        ] {
            assert!(matches!(recalled(stored_nan), SumBound::AtMost(b) if b.is_nan()));
        }
        for (feasible, d) in [
            (true, 0.5),
            (false, 0.5),
            (true, 0.0),
            (false, 0.0),
            (false, 1.05),
        ] {
            let m = Memoized::new(feasible, d).expect("a positive degradation");
            assert_eq!(
                (m.feasible(), m.degradation().to_bits()),
                (feasible, d.to_bits())
            );
        }
        assert!(Memoized::new(true, f64::NAN).is_none());
        assert!(Memoized::new(false, -0.0).is_none());
    }

    #[test]
    fn memo_hits_on_repeat_and_permutation() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(1024);
        let mut scratch = PredictScratch::new();
        let t = (GameId(0), Resolution::Fhd1080);
        let others = [
            (GameId(1), Resolution::Hd720),
            (GameId(2), Resolution::Fhd1080),
        ];
        let reversed = [others[1], others[0]];

        let (p1, cached1) = memo.predict_with(&model, 60.0, t, &others, &mut scratch);
        assert!(!cached1);
        let (p2, cached2) = memo.predict_with(&model, 60.0, t, &others, &mut scratch);
        assert!(cached2);
        // Permutation of the co-runner multiset is the same colocation.
        let (p3, cached3) = memo.predict_with(&model, 60.0, t, &reversed, &mut scratch);
        assert!(cached3);
        assert_eq!(p1, p2);
        assert_eq!(p1, p3);
        assert_eq!(memo.counts(), (2, 1));

        // A different QoS floor is a different question.
        let (_, cached4) = memo.predict_with(&model, 30.0, t, &others, &mut scratch);
        assert!(!cached4);
    }

    #[test]
    fn memoized_predictions_match_direct_model_calls() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(1024);
        let t = (GameId(3), Resolution::Fhd1080);
        let others = [(GameId(5), Resolution::Fhd1080)];
        let (p, _) = memo.predict_with(&model, 60.0, t, &others, &mut PredictScratch::new());
        assert_eq!(p.degradation, model.gaugur.predict_degradation(t, &others));
        assert_eq!(p.fps, model.gaugur.predict_fps(t, &others));
        assert_eq!(p.feasible, model.gaugur.predict_qos(60.0, t, &others));
    }

    /// Two floors a hair apart are two questions. Above the CM's trained
    /// range `predict_qos` also asks whether the RM's FPS meets the floor,
    /// so a colocation the CM passes at 60 FPS whose predicted FPS is below
    /// 60.0004 is feasible at the one floor and not at the other.
    #[test]
    fn floors_a_hair_apart_get_their_own_judgements() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let gaugur = &model.gaugur;
        let (floor, above) = (60.0, 60.0004);
        let placements: Vec<Placement> = gaugur
            .profiles
            .sorted()
            .iter()
            .flat_map(|p| [(p.id, Resolution::Fhd1080), (p.id, Resolution::Hd720)])
            .collect();
        let (target, others) = placements
            .iter()
            .flat_map(|&t| placements.iter().map(move |&o| (t, [o])))
            .find(|(t, o)| gaugur.predict_qos(floor, *t, o) && !gaugur.predict_qos(above, *t, o))
            .expect("a colocation the CM passes at 60 FPS whose RM FPS is below it");
        let memo = PredictionMemo::new(1024);
        let mut scratch = PredictScratch::new();
        for qos in [floor, above] {
            let (prediction, _) = memo.predict_with(&model, qos, target, &others, &mut scratch);
            let want = gaugur.predict_qos(qos, target, &others);
            assert_eq!(prediction.feasible, want, "at {qos} FPS");
        }
    }

    #[test]
    fn solo_prediction_bypasses_the_models() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(64);
        let t = (GameId(1), Resolution::Hd720);
        let (p, _) = memo.predict_with(&model, 30.0, t, &[], &mut PredictScratch::new());
        assert_eq!(p.degradation, 1.0);
        let solo = model.gaugur.profiles.get(t.0).solo_fps_at(t.1);
        assert_eq!(p.fps, solo);
        assert_eq!(p.feasible, solo >= 30.0);
    }

    /// Lone sums and solo predictions are closed forms with the member-wise
    /// path's bits — the empty sum `-0.0` and `-0.0 + solo`; degradation
    /// 1.0, the solo FPS and the floor judged against it — through every
    /// entry point, with the counters and both tables left where they were.
    #[test]
    fn lone_sums_and_solo_predictions_never_touch_the_memo() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(1024);
        let fps = memoized(&model, &memo);
        let mut scratch = PredictScratch::new();
        // Ordinary traffic first, so there is something not to move.
        let pair = [
            (GameId(0), Resolution::Fhd1080),
            (GameId(1), Resolution::Hd720),
        ];
        let _ = memo.predict_with(&model, 60.0, pair[0], &pair[1..], &mut scratch);
        let mut batch = ColocationBatch::new();
        batch.push(&pair);
        let _ = sums_of(&fps, &batch, &mut scratch);
        let state = |memo: &PredictionMemo| (memo.counts(), memo.len(), memo.sums.lock().len());
        let before = state(&memo);
        assert_eq!(before, ((0, 2), 1, 1));

        let empty = (-0.0f64).to_bits();
        assert_eq!(reference_sum(&model, &[]), empty);
        let exact_bits = |bounds: &[SumBound]| -> Vec<u64> {
            bounds
                .iter()
                .map(|b| b.exact().unwrap().to_bits())
                .collect()
        };
        let mut bounds = Vec::new();
        for profile in model.gaugur.profiles.sorted() {
            for res in gaugur_gamesim::game::ALL_RESOLUTIONS {
                let lone = (profile.id, res);
                let solo = profile.solo_fps_at(res);
                let sum = (-0.0 + solo).to_bits();
                assert_eq!(reference_sum(&model, &[lone]), sum);
                assert_eq!(fps.predict_colocation_sum(&[lone]).to_bits(), sum);
                batch.clear();
                batch.push(&[lone]);
                batch.push(&[]);
                let sums = [sum, empty];
                assert_eq!(bits(&sums_of(&fps, &batch, &mut scratch)), sums);
                assert!(memo.resident_colocation_bounds(&model, &batch, &mut bounds));
                assert_eq!(exact_bits(&bounds), sums);
                memo.colocation_bounds(&model, &batch, &mut scratch, &mut bounds);
                assert_eq!(exact_bits(&bounds), sums);
                for qos in [0.0, 30.0, 60.0, solo, solo + 1.0] {
                    let want = (solo >= qos, 1.0f64.to_bits(), solo.to_bits(), false);
                    let (p, cached) = memo.predict_with(&model, qos, lone, &[], &mut scratch);
                    let got = (p.feasible, p.degradation.to_bits(), p.fps.to_bits(), cached);
                    assert_eq!(got, want, "{lone:?} at {qos} FPS");
                }
            }
        }
        assert_eq!(state(&memo), before);
    }

    /// Every ordered pair of distinct games, the newcomer first.
    fn pairs() -> Vec<(Placement, [Placement; 1])> {
        let res = Resolution::Fhd1080;
        (0..8u32)
            .flat_map(|g| (0..8u32).map(move |o| (g, o)))
            .filter(|(g, o)| g != o)
            .map(|(g, o)| ((GameId(g), res), [(GameId(o), res)]))
            .collect()
    }

    #[test]
    fn the_capacity_bound_holds_at_every_step() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(16);
        let fps = memoized(&model, &memo);
        let mut scratch = PredictScratch::new();
        let mut batch = ColocationBatch::new();
        for (target, others) in pairs() {
            let _ = memo.predict_with(&model, 60.0, target, &others, &mut scratch);
            batch.clear();
            batch.push_extended(&others, target);
            let _ = sums_of(&fps, &batch, &mut scratch);
            assert!(memo.len() <= 16, "{} prediction entries", memo.len());
            assert!(memo.sums.lock().len() <= 16);
        }
        // The bound bit: 56 distinct keys went through a 16-entry memo.
        assert!(memo.len() >= 7);
    }

    /// The regression test for clear-all eviction: a hot set that keeps
    /// being hit stays resident while cold keys stream through a memo many
    /// times its capacity. (Cleared wholesale at the bound, the hot set
    /// was recomputed after every clear.)
    #[test]
    fn a_hot_set_survives_cold_traffic_past_the_capacity() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(32);
        let mut scratch = PredictScratch::new();
        let all = pairs();
        let (hot, cold) = all.split_at(4);
        for (target, others) in hot {
            assert!(
                !memo
                    .predict_with(&model, 60.0, *target, others, &mut scratch)
                    .1
            );
        }
        // 52 cold keys, three floors each, through 32 entries: 156 inserts.
        for qos in [30.0, 45.0, 60.0] {
            for (i, (target, others)) in cold.iter().enumerate() {
                let _ = memo.predict_with(&model, qos, *target, others, &mut scratch);
                if i % 4 == 3 {
                    for (target, others) in hot {
                        let (_, cached) =
                            memo.predict_with(&model, 60.0, *target, others, &mut scratch);
                        assert!(cached, "hot entry evicted under cold traffic");
                    }
                }
                assert!(memo.len() <= 32);
            }
        }
    }

    #[test]
    fn a_version_bump_misses() {
        let handle = ModelHandle::from_model(tiny_model());
        let v1 = handle.get();
        let v2 = LoadedModel {
            gaugur: v1.gaugur.clone(),
            version: 2,
            source: PathBuf::from("<bumped>"),
        };
        let memo = PredictionMemo::new(64);
        let mut scratch = PredictScratch::new();
        let t = (GameId(0), Resolution::Fhd1080);
        let others = [(GameId(1), Resolution::Hd720)];
        assert!(!memo.predict_with(&v1, 60.0, t, &others, &mut scratch).1);
        assert!(memo.predict_with(&v1, 60.0, t, &others, &mut scratch).1);
        assert!(!memo.predict_with(&v2, 60.0, t, &others, &mut scratch).1);

        let mut batch = ColocationBatch::new();
        batch.push(&[t, others[0]]);
        let (_, m0) = memo.counts();
        let s1 = sums_of(&memoized(&v1, &memo), &batch, &mut scratch);
        let s2 = sums_of(&memoized(&v2, &memo), &batch, &mut scratch);
        assert_eq!(bits(&s1), bits(&s2));
        // Both sums missed, once each: a sum asks the memo no prediction.
        assert_eq!(memo.counts().1, m0 + 2);
        let (h0, _) = memo.counts();
        let _ = sums_of(&memoized(&v2, &memo), &batch, &mut scratch);
        assert_eq!(memo.counts().0, h0 + 1);
    }

    /// A wire `Predict` may name more co-runners than a server can hold;
    /// that set has no key, so it is answered from the model every time and
    /// leaves the memo and its counters alone.
    #[test]
    fn an_oversize_corunner_set_bypasses_the_memo() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(64);
        let mut scratch = PredictScratch::new();
        let res = Resolution::Fhd1080;
        let t = (GameId(0), res);
        let others: Vec<Placement> = (1..=MAX_PER_SERVER as u32 + 1)
            .map(|g| (GameId(g), res))
            .collect();
        for _ in 0..2 {
            let (p, cached) = memo.predict_with(&model, 60.0, t, &others, &mut scratch);
            assert!(!cached);
            assert_eq!(
                p.degradation.to_bits(),
                model.gaugur.predict_degradation(t, &others).to_bits()
            );
            assert_eq!(p.fps, model.gaugur.predict_fps(t, &others));
            assert_eq!(p.feasible, model.gaugur.predict_qos(60.0, t, &others));
        }
        assert_eq!(memo.counts(), (0, 0));
        assert!(memo.is_empty());

        // The largest set that does fit is memoized as usual.
        let fit = &others[..MAX_PER_SERVER];
        let (_, cached) = memo.predict_with(&model, 60.0, t, fit, &mut scratch);
        assert!(!cached);
        let (_, cached) = memo.predict_with(&model, 60.0, t, fit, &mut scratch);
        assert!(cached);

        // Likewise for sums: an oversize colocation is computed, not kept.
        let mut members = others.clone();
        members.push(t);
        let mut batch = ColocationBatch::new();
        batch.push(&members);
        let fps = memoized(&model, &memo);
        let mut bounds = Vec::new();
        for _ in 0..2 {
            let (_, m0) = memo.counts();
            let sums = sums_of(&fps, &batch, &mut scratch);
            assert_eq!(bits(&sums), [reference_sum(&model, &members)]);
            assert_eq!(memo.counts().1, m0 + 1);
            assert!(!memo.resident_colocation_bounds(&model, &batch, &mut bounds));
        }
    }

    #[test]
    fn resident_bounds_answer_only_without_evaluating() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(1024);
        let mut scratch = PredictScratch::new();
        let res = Resolution::Fhd1080;
        let mut batch = ColocationBatch::new();
        batch.push(&[]);
        batch.push(&[(GameId(1), res), (GameId(2), res)]);
        batch.push(&[(GameId(3), res), (GameId(4), res), (GameId(5), res)]);

        let mut out = Vec::new();
        assert!(!memo.resident_colocation_bounds(&model, &batch, &mut out));
        assert_eq!(memo.counts(), (0, 0), "an abandoned pass counts nothing");

        // The first stage memoizes bounds: resident, but no exact sum.
        memo.colocation_bounds(&model, &batch, &mut scratch, &mut out);
        assert_eq!(memo.counts(), (0, 2));
        let staged = out.clone();
        assert!(memo.resident_colocation_bounds(&model, &batch, &mut out));
        assert_eq!(memo.counts(), (2, 2));
        assert_eq!(out, staged);
        assert_eq!(out[0].exact().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert!(out[1..].iter().all(|b| b.exact().is_none()));

        // An exact pass hits the bounds and finishes them; its sums replace
        // the bounds.
        let evaluated = sums_of(&memoized(&model, &memo), &batch, &mut scratch);
        assert_eq!(memo.counts(), (4, 2));
        assert!(memo.resident_colocation_bounds(&model, &batch, &mut out));
        assert_eq!(memo.counts(), (6, 2));
        for (i, ((got, bound), want)) in out.iter().zip(&staged).zip(&evaluated).enumerate() {
            assert_eq!(got.exact().unwrap().to_bits(), want.to_bits());
            assert_eq!(want.to_bits(), reference_sum(&model, batch.members(i)));
            let (SumBound::Exact(bound) | SumBound::AtMost(bound)) = *bound;
            assert!(bound >= *want, "bound {bound} below the sum {want}");
        }
    }

    /// The first stage bounds each sum from above; finishing a colocation,
    /// whether its rows ran the first stage in this pass or its bound came
    /// from the memo, gives the unmemoized RM's bits and memoizes them;
    /// and the row counts say how far each row went.
    #[test]
    fn finished_sums_are_the_exact_passes_bits() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let res = Resolution::Fhd1080;
        let mut batch = ColocationBatch::new();
        for g in 0..6u32 {
            batch.push(&[(GameId(g), res), (GameId(g + 1), Resolution::Hd720)]);
            batch.push(&[(GameId(g), res), (GameId(g + 1), res), (GameId(g + 2), res)]);
        }
        let exact: Vec<u64> = (0..batch.len())
            .map(|i| reference_sum(&model, batch.members(i)))
            .collect();
        let (mut scratch, mut bounds) = (PredictScratch::new(), Vec::new());

        let memo = PredictionMemo::new(1024);
        memo.colocation_bounds(&model, &batch, &mut scratch, &mut bounds);
        let rows = 6 * (2 + 3);
        assert_eq!(memo.row_counts().first_stage, rows);
        for (i, (bound, &want)) in bounds.iter().zip(&exact).enumerate() {
            let SumBound::AtMost(bound) = *bound else {
                panic!("colocation {i} is exact after one stage");
            };
            let want = f64::from_bits(want);
            assert!(bound >= want, "colocation {i}: bound {bound} below {want}");
        }
        // Every other colocation, from the rows of this pass.
        for i in (0..batch.len()).step_by(2) {
            let got = memo.finish_colocation_sum(&model, &batch, i, &mut scratch);
            assert_eq!(got.to_bits(), exact[i], "colocation {i}");
        }
        assert_eq!(memo.row_counts().second_stage, 6 * 2);
        // A fresh pass: finished sums are exact hits, the rest memoized
        // bounds, finished member by member.
        memo.colocation_bounds(&model, &batch, &mut scratch, &mut bounds);
        for (i, bound) in bounds.iter().enumerate() {
            let got = match bound {
                SumBound::Exact(sum) => *sum,
                SumBound::AtMost(_) => memo.finish_colocation_sum(&model, &batch, i, &mut scratch),
            };
            assert_eq!(got.to_bits(), exact[i], "colocation {i}");
        }
        let counts = memo.row_counts();
        assert_eq!((counts.first_stage, counts.whole), (rows, 6 * 3));
        assert_eq!(
            (counts.stopped(), counts.through_all_trees()),
            (6 * 3, 6 * 5)
        );
        assert!(memo.resident_colocation_bounds(&model, &batch, &mut bounds));
        let sums = sums_of(&memoized(&model, &memo), &batch, &mut scratch);
        assert_eq!(bits(&sums), exact);
        assert_eq!(memo.row_counts(), counts, "every sum is memoized exact");
    }

    /// The exact batch path is the two stages run to the end. A missed
    /// colocation's rows run stage 1 and then stage 2. A `before`
    /// colocation whose entry is a first-stage bound — a candidate an
    /// earlier place left unfinished — is a hit, finished member by member
    /// to the same bits and memoized as a sum.
    #[test]
    fn exact_sums_finish_misses_and_memoized_bounds_alike() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(1024);
        let fps = memoized(&model, &memo);
        let mut scratch = PredictScratch::new();
        let res = Resolution::Fhd1080;
        let mut batch = ColocationBatch::new();
        batch.push(&[]);
        batch.push(&[(GameId(1), res), (GameId(2), Resolution::Hd720)]);
        batch.push(&[(GameId(3), res), (GameId(4), res), (GameId(5), res)]);
        let want: Vec<u64> = (0..batch.len())
            .map(|i| reference_sum(&model, batch.members(i)))
            .collect();
        let rows = |first_stage, second_stage, whole| RowCounts {
            first_stage,
            second_stage,
            whole,
        };

        // Misses: both stages, every row.
        assert_eq!(bits(&sums_of(&fps, &batch, &mut scratch)), want);
        assert_eq!(memo.counts(), (0, 2));
        assert_eq!(memo.row_counts(), rows(5, 5, 0));

        // Memoized bounds, as a pruned candidate leaves them.
        let memo = PredictionMemo::new(1024);
        let fps = memoized(&model, &memo);
        let mut bounds = Vec::new();
        memo.colocation_bounds(&model, &batch, &mut scratch, &mut bounds);
        assert!(bounds[1..].iter().all(|b| b.exact().is_none()));
        assert_eq!(memo.counts(), (0, 2));
        assert_eq!(memo.row_counts(), rows(5, 0, 0));
        // The befores: two hits, no miss, their five rows run whole.
        assert_eq!(bits(&sums_of(&fps, &batch, &mut scratch)), want);
        assert_eq!(memo.counts(), (2, 2));
        assert_eq!(memo.row_counts(), rows(5, 0, 5));
        // Now sums: hits again, and no row.
        assert_eq!(bits(&sums_of(&fps, &batch, &mut scratch)), want);
        assert_eq!(memo.counts(), (4, 2));
        assert_eq!(memo.row_counts(), rows(5, 0, 5));
        assert!(memo.resident_colocation_bounds(&model, &batch, &mut bounds));
        assert!(bounds.iter().all(|b| b.exact().is_some()));
    }

    #[test]
    fn colocation_sums_memoize_and_match_member_predictions() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(1024);
        let fps = memoized(&model, &memo);
        let mut scratch = PredictScratch::new();
        let members = [
            (GameId(0), Resolution::Fhd1080),
            (GameId(1), Resolution::Hd720),
            (GameId(2), Resolution::Fhd1080),
        ];
        let direct: f64 = (0..members.len())
            .map(|i| {
                let others: Vec<Placement> = members
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &p)| p)
                    .collect();
                model.gaugur.predict_fps(members[i], &others)
            })
            .sum();
        let mut batch = ColocationBatch::new();
        batch.push(&members);
        let sums = sums_of(&fps, &batch, &mut scratch);
        assert_eq!(bits(&sums), [direct.to_bits()]);
        // Repeat and permutation both hit the sum memo.
        let (h0, _) = memo.counts();
        let _ = sums_of(&fps, &batch, &mut scratch);
        batch.clear();
        batch.push(&[members[2], members[0], members[1]]);
        let _ = sums_of(&fps, &batch, &mut scratch);
        let (h1, m1) = memo.counts();
        assert_eq!(h1 - h0, 2);
        // An empty colocation sums to `-0.0` without touching the model.
        batch.clear();
        batch.push(&[]);
        assert_eq!(
            bits(&sums_of(&fps, &batch, &mut scratch)),
            [(-0.0f64).to_bits()]
        );
        assert_eq!(memo.counts(), (h1, m1));
    }

    #[test]
    fn batched_colocation_sums_are_bit_identical_to_scalar() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(1024);
        let fps = memoized(&model, &memo);

        let mut batch = ColocationBatch::new();
        batch.push(&[]);
        batch.push(&[(GameId(0), Resolution::Fhd1080)]);
        batch.push(&[
            (GameId(1), Resolution::Hd720),
            (GameId(2), Resolution::Fhd1080),
        ]);
        batch.push(&[
            (GameId(3), Resolution::Fhd1080),
            (GameId(4), Resolution::Qhd1440),
            (GameId(5), Resolution::Hd720),
        ]);

        let mut scratch = PredictScratch::new();
        let out = sums_of(&fps, &batch, &mut scratch);
        assert_eq!(out.len(), batch.len());
        for (i, &got) in out.iter().enumerate() {
            let direct = reference_sum(&model, batch.members(i));
            assert_eq!(
                got.to_bits(),
                direct,
                "colocation {i}: {got} vs {direct:#x}"
            );
            // `MemoizedFps`'s own scalar sum, member by member through
            // `predict_with`, has the same bits.
            let scalar = fps.predict_colocation_sum(batch.members(i));
            assert_eq!(scalar.to_bits(), direct, "colocation {i}");
        }

        // A second pass hits the sum memo for the pair and the triple; the
        // empty and the lone colocation touch neither the memo nor the
        // counters.
        let (h0, m0) = memo.counts();
        let again = sums_of(&fps, &batch, &mut scratch);
        let (h1, m1) = memo.counts();
        assert_eq!(h1 - h0, 2);
        assert_eq!(m1, m0);
        assert_eq!(bits(&out), bits(&again));
    }

    #[test]
    fn lone_members_take_no_query_row() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(1024);
        let p = |g: u32, res| (GameId(g), res);
        let colocations: [&[Placement]; 5] = [
            &[p(0, Resolution::Fhd1080)],
            &[p(1, Resolution::Hd720), p(2, Resolution::Fhd1080)],
            &[p(3, Resolution::Qhd1440)],
            &[p(4, Resolution::Fhd1080)],
            &[p(5, Resolution::Hd720), p(6, Resolution::Hd720)],
        ];
        let mut batch = ColocationBatch::new();
        for members in colocations {
            batch.push(members);
        }

        let mut scratch = PredictScratch::new();
        let out = sums_of(&memoized(&model, &memo), &batch, &mut scratch);
        // The query plan holds the pairs' four rows and nothing else.
        assert_eq!(scratch.queries.len(), 4);
        let targets: Vec<Placement> = (0..4).map(|i| scratch.queries.target(i)).collect();
        assert_eq!(targets, [colocations[1], colocations[4]].concat());
        for (i, &got) in out.iter().enumerate() {
            assert_eq!(
                got.to_bits(),
                reference_sum(&model, colocations[i]),
                "colocation {i}"
            );
        }
        // Only the two pairs are memo traffic; the lone members are
        // answered in closed form.
        assert_eq!(memo.counts(), (0, 2));
    }

    /// Member predictions go through `predict_with`: a `Predict`'s entry
    /// answers the placement model's member prediction, and vice versa.
    #[test]
    fn member_predictions_share_memo_entries_with_predict_with() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(1024);
        let fps = memoized(&model, &memo);
        let mut scratch = PredictScratch::new();
        let t = (GameId(2), Resolution::Fhd1080);
        let others = [
            (GameId(4), Resolution::Hd720),
            (GameId(6), Resolution::Fhd1080),
        ];

        let (p, cached) = memo.predict_with(&model, 60.0, t, &others, &mut scratch);
        assert!(!cached);
        assert_eq!(
            p.degradation.to_bits(),
            model.gaugur.predict_degradation(t, &others).to_bits()
        );
        assert_eq!(p.feasible, model.gaugur.predict_qos(60.0, t, &others));

        let members = [others[0], t, others[1]];
        assert_eq!(
            fps.predict_member_fps(&members, 1).to_bits(),
            p.fps.to_bits()
        );
        assert_eq!(memo.counts(), (1, 1));
        let s = (GameId(7), Resolution::Hd900);
        let _ = fps.predict_member_fps(&[others[1], others[0], s], 2);
        let (_, cached) = memo.predict_with(&model, 60.0, s, &others, &mut scratch);
        assert!(cached);
        assert_eq!(memo.counts(), (2, 2));

        // Solo queries bypass the model.
        let (solo, _) = memo.predict_with(&model, 30.0, t, &[], &mut scratch);
        assert_eq!(solo.degradation, 1.0);
    }

    /// The daemon's selection through the memo is the unmemoized one's, bit
    /// for bit — server, `delta`, `server_sum` and `before_sum`, and the
    /// score cache's counts — on seeded fleets with empty servers and
    /// departures. An empty server's `before_sum` is the empty sum, `-0.0`,
    /// on both sides. Each selection asks a fresh memo: a memoized sum
    /// keeps the member order it was first evaluated in, and three or more
    /// members summed in another order can differ in the last bit, so a
    /// memo that outlives a selection may answer a permuted colocation
    /// with its first order's bits.
    #[test]
    fn memoized_selection_is_the_unmemoized_ones_bit_for_bit() {
        use gaugur_sched::{
            select_server_incremental_with, PlacementScratch, ScoreCache, Selection,
        };
        use rand::Rng;
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let reference = PredictorFps::rm(&model.gaugur);
        let games: Vec<GameId> = model
            .gaugur
            .profiles
            .sorted()
            .iter()
            .map(|p| p.id)
            .collect();
        let key = |sel: Selection| {
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
        let mut onto_empty = 0;
        for stream in 0..6u64 {
            let mut rng = gaugur_gamesim::rng::rng_for(0xB175, &[stream]);
            let n = rng.gen_range(2..=12);
            let mut fleet: Vec<Vec<Placement>> = vec![Vec::new(); n];
            let (mut memo_cache, mut rm_cache) = (ScoreCache::new(n), ScoreCache::new(n));
            let mut scratch = [PlacementScratch::new(), PlacementScratch::new()];
            for step in 0..60 {
                let occupied: Vec<usize> = (0..n).filter(|&s| !fleet[s].is_empty()).collect();
                if !occupied.is_empty() && rng.gen_bool(0.35) {
                    let s = occupied[rng.gen_range(0..occupied.len())];
                    let leaving = rng.gen_range(0..fleet[s].len());
                    fleet[s].swap_remove(leaving);
                    memo_cache.invalidate(s);
                    rm_cache.invalidate(s);
                    continue;
                }
                let res = match rng.gen_bool(0.5) {
                    true => Resolution::Fhd1080,
                    false => Resolution::Hd720,
                };
                let request = (games[rng.gen_range(0..games.len())], res);
                let [memo_scratch, rm_scratch] = &mut scratch;
                let (memo, version) = (PredictionMemo::new(1024), model.version);
                let through_memo = select_server_incremental_with(
                    &fleet,
                    request,
                    &memoized(&model, &memo),
                    version,
                    &mut memo_cache,
                    memo_scratch,
                );
                let direct = select_server_incremental_with(
                    &fleet,
                    request,
                    &reference,
                    version,
                    &mut rm_cache,
                    rm_scratch,
                );
                let at = format!("stream {stream}, step {step}");
                assert_eq!(through_memo.map(key), direct.map(key), "{at}");
                assert_eq!(memo_cache.counts(), rm_cache.counts(), "{at}");
                if let Some(sel) = direct {
                    onto_empty += usize::from(fleet[sel.server].is_empty());
                    fleet[sel.server].push(request);
                }
            }
        }
        assert!(onto_empty > 0, "no selection chose an empty server");
    }

    /// Regression test for the reload rollback race: two concurrent reloads
    /// used to assign versions *before* taking the write lock, so a slow
    /// reload could publish an older artifact over a newer one while the
    /// version counter claimed the newer version. The served version must
    /// never decrease, no matter how reloads interleave.
    #[test]
    fn concurrent_reloads_never_roll_the_served_version_back() {
        use std::sync::atomic::AtomicBool;

        let handle = std::sync::Arc::new(ModelHandle::from_model(tiny_model()));
        let model = tiny_model();
        let stop = std::sync::Arc::new(AtomicBool::new(false));

        std::thread::scope(|scope| {
            // Racers publish concurrently (publish is the critical section;
            // artifact loading happens outside any lock and is irrelevant
            // to the ordering bug).
            for _ in 0..4 {
                let handle = handle.clone();
                let model = model.clone();
                scope.spawn(move || {
                    for _ in 0..300 {
                        handle.publish(model.clone(), PathBuf::from("<race>"));
                    }
                });
            }
            // Observer: the served version must be monotone non-decreasing.
            let observer = {
                let handle = handle.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        let v = handle.version();
                        assert!(v >= last, "served version rolled back: {last} -> {v}");
                        last = v;
                    }
                    // One final read: the stop flag may have been raised
                    // between this thread's last poll and the last publish.
                    last.max(handle.version())
                })
            };
            // Scope joins the racers when they finish; flag the observer
            // down from a watcher thread once the racers are done.
            let watcher = {
                let handle = handle.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    // 4 racers × 300 publishes on top of version 1.
                    while handle.version() < 1201 {
                        std::thread::yield_now();
                    }
                    stop.store(true, Ordering::SeqCst);
                })
            };
            watcher.join().unwrap();
            let final_seen = observer.join().unwrap();
            assert_eq!(final_seen, 1201);
        });
        assert_eq!(handle.version(), 1201);
    }

    #[test]
    fn reload_swaps_version_and_survives_bad_artifacts() {
        let dir = std::env::temp_dir().join(format!("gaugur-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let model = tiny_model();
        model.save_json(&path).unwrap();

        let handle = ModelHandle::load(&path).unwrap();
        assert_eq!(handle.version(), 1);
        assert_eq!(handle.reload(None).unwrap(), 2);
        assert_eq!(handle.version(), 2);

        // A bad artifact must not dislodge the serving model.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, b"{ not json").unwrap();
        assert!(handle.reload(Some(&bad)).is_err());
        assert_eq!(handle.version(), 2);

        // Old Arcs keep working across a reload (in-flight requests).
        let pinned = handle.get();
        handle.reload(None).unwrap();
        assert_eq!(pinned.version, 2);
        assert_eq!(handle.version(), 3);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A schema-mismatched artifact (e.g. produced by a newer `gaugur
    /// build`) must be rejected by `load_json` with a descriptive error, and
    /// a reload pointed at one must leave the old model serving.
    #[test]
    fn reload_of_mismatched_schema_artifact_leaves_old_model_serving() {
        let dir =
            std::env::temp_dir().join(format!("gaugur-serve-schema-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        tiny_model().save_json(&path).unwrap();

        let handle = ModelHandle::load(&path).unwrap();
        assert_eq!(handle.version(), 1);

        // Forge a "future" artifact by bumping the schema marker in place.
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"schema\":1", "\"schema\":999", 1);
        assert_ne!(text, tampered, "artifact must carry the schema marker");
        let future = dir.join("future.json");
        std::fs::write(&future, tampered).unwrap();

        let err = handle.reload(Some(&future)).unwrap_err();
        assert!(
            err.to_string().contains("999"),
            "undescriptive error: {err}"
        );
        assert_eq!(handle.version(), 1, "failed reload must not swap");

        // The old model keeps serving predictions untouched.
        let pinned = handle.get();
        let memo = PredictionMemo::new(64);
        let (p, _) = memo.predict_with(
            &pinned,
            60.0,
            (GameId(0), Resolution::Fhd1080),
            &[(GameId(1), Resolution::Hd720)],
            &mut PredictScratch::new(),
        );
        assert!(p.fps > 0.0 && p.degradation > 0.0);

        std::fs::remove_dir_all(&dir).ok();
    }
}
