//! Model lifecycle: loading the persisted GAugur artifact, hot-swapping it
//! behind an `RwLock`, and memoizing predictions.
//!
//! In-flight requests clone the current `Arc<LoadedModel>` once at dispatch
//! and keep using it for the whole request, so a concurrent `ReloadModel`
//! can never fail or skew a request that already started — the old model
//! simply lives until its last request drops the Arc.

use crate::trace::{elapsed_us, RequestTrace, Stage};
use crate::wire::{BatchPlaceResult, Request, Response};
use gaugur_core::{GAugur, InterferencePredictor, Placement};
use gaugur_sched::maxfps::MAX_PER_SERVER;
use gaugur_sched::{ColocationBatch, PredictScratch};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
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

/// Three fixed-width writes. The derive would hash two length-prefixed
/// slices; on a memo hit, where the hash is most of the work, that and
/// sorting pairs instead of integers measured 57 ns against 45 ns a lookup.
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
    qos_millis: u64,
    game: u32,
    resolution: u8,
    others: Members,
}

fn memo_key(version: u64, qos: f64, target: Placement, others: &[Placement]) -> Option<MemoKey> {
    Some(MemoKey {
        version,
        // QoS floors are human-chosen values like 30/60 FPS; milli-FPS
        // granularity keys them exactly without hashing raw f64 bits.
        qos_millis: (qos.max(0.0) * 1000.0).round() as u64,
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

/// What the memo keeps of a [`Prediction`]. The FPS is the degradation times
/// the target's solo FPS, and is recomputed on a hit — the same product, so
/// the same bits — which makes the value 16 bytes instead of 24: at the
/// paper's scale the map holds two generations of some 28 k entries.
#[derive(Clone, Copy)]
struct Memoized {
    feasible: bool,
    degradation: f64,
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

/// A bounded map that forgets by generation instead of all at once.
///
/// Inserts go to the young generation; once it holds half the capacity the
/// generations rotate — the old one is dropped, the young one becomes old —
/// so at most `capacity` entries exist. A hit in the old generation moves
/// the entry back to the young one: whatever was used since the last
/// rotation survives the next. Both tables grow on demand and keep their
/// allocation across rotations, so a working set far below the capacity
/// costs what it holds and a lookup that hits allocates nothing.
///
/// A generation also ends early when its table is full and would have to
/// grow for less than it already holds: a table doubles when it grows, so
/// that last doubling would sit mostly empty until the rotation.
struct Generations<K, V> {
    young: HashMap<K, V>,
    old: HashMap<K, V>,
    /// Entries per generation.
    half: usize,
}

impl<K: std::hash::Hash + Eq + Copy, V: Copy> Generations<K, V> {
    fn new(capacity: usize) -> Generations<K, V> {
        Generations {
            young: HashMap::new(),
            old: HashMap::new(),
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
pub struct PredictionMemo {
    map: Mutex<Generations<MemoKey, Memoized>>,
    sums: Mutex<Generations<SumKey, f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PredictionMemo {
    /// Memo bounded to `capacity` entries per map (at least 16).
    pub fn new(capacity: usize) -> PredictionMemo {
        let capacity = capacity.max(16);
        PredictionMemo {
            map: Mutex::new(Generations::new(capacity)),
            sums: Mutex::new(Generations::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Memoized summed FPS of every member of `members` together. Member
    /// predictions funnel through [`predict`](PredictionMemo::predict), so
    /// the per-member entries stay shared with `Predict` requests.
    pub fn colocation_sum(&self, model: &LoadedModel, qos: f64, members: &[Placement]) -> f64 {
        if members.is_empty() {
            return 0.0;
        }
        let key = sum_key(model.version, members);
        if let Some(hit) = key.and_then(|key| self.sums.lock().get(&key)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let sum: f64 = (0..members.len())
            .map(|i| {
                let others: Vec<Placement> = members
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &p)| p)
                    .collect();
                self.predict(model, qos, members[i], &others).0.fps
            })
            .sum();
        if let Some(key) = key {
            self.sums.lock().insert(key, sum);
        }
        sum
    }

    /// [`colocation_sums`](PredictionMemo::colocation_sums) only if it takes
    /// no model evaluation: with every non-empty colocation of `batch`
    /// resident, write the sums into `out` and return `true`; at the first
    /// one that is not, return `false` with `out` unspecified. Counts the
    /// hits of a complete answer only — an abandoned pass is not a lookup
    /// the caller gets to use.
    pub fn resident_colocation_sums(
        &self,
        model: &LoadedModel,
        batch: &ColocationBatch,
        out: &mut Vec<f64>,
    ) -> bool {
        out.clear();
        let mut hits = 0;
        let mut sums = self.sums.lock();
        for i in 0..batch.len() {
            let members = batch.members(i);
            if members.is_empty() {
                out.push(0.0);
                continue;
            }
            match sum_key(model.version, members).and_then(|key| sums.get(&key)) {
                Some(hit) => {
                    hits += 1;
                    out.push(hit);
                }
                None => return false,
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        true
    }

    /// Batched counterpart of [`colocation_sum`]: answer every colocation in
    /// `batch` at once, writing `batch.len()` summed-FPS values into `out`
    /// (cleared first) in batch order. Hits are served from the sum memo;
    /// all misses are assembled into one [`DegradationBatch`] query plan and
    /// answered by a single fused model call through `scratch` — with no
    /// memo lock held, so workers evaluate side by side and meet again only
    /// to insert. Bit-identical to the scalar path, including the `-0.0`
    /// empty-set sum identity.
    ///
    /// [`colocation_sum`]: PredictionMemo::colocation_sum
    /// [`DegradationBatch`]: gaugur_core::DegradationBatch
    pub fn colocation_sums(
        &self,
        model: &LoadedModel,
        batch: &ColocationBatch,
        scratch: &mut PredictScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(batch.len(), 0.0);
        let mut miss_at = std::mem::take(&mut scratch.indices);
        miss_at.clear();
        scratch.queries.clear();
        {
            let mut sums = self.sums.lock();
            for (i, slot) in out.iter_mut().enumerate() {
                let members = batch.members(i);
                if members.is_empty() {
                    // `out[i]` stays 0.0, matching the scalar early return
                    // (which touches neither the memo nor the counters).
                    continue;
                }
                match sum_key(model.version, members).and_then(|key| sums.get(&key)) {
                    Some(hit) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        *slot = hit;
                    }
                    None => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        miss_at.push(i);
                        // A lone member has no co-runners and takes no row.
                        if members.len() > 1 {
                            scratch.queries.push_colocation(members);
                        }
                    }
                }
            }
        }
        if !miss_at.is_empty() {
            model.gaugur.predict_degradation_batch(
                &scratch.queries,
                &mut scratch.features,
                &mut scratch.values,
            );
            let mut rows = scratch.values.iter();
            let mut sums = self.sums.lock();
            for &i in &miss_at {
                let members = batch.members(i);
                // -0.0 is `Iterator::sum`'s additive identity; seeding with
                // it keeps the accumulation bit-identical to the scalar path.
                let mut sum = -0.0;
                for &(id, res) in members {
                    let solo = model.gaugur.profiles.get(id).solo_fps_at(res);
                    // The scalar path serves a lone member its solo FPS
                    // without consulting the model.
                    sum += if members.len() == 1 {
                        solo
                    } else {
                        rows.next().expect("a row per member of a pair or more") * solo
                    };
                }
                if let Some(key) = sum_key(model.version, members) {
                    sums.insert(key, sum);
                }
                out[i] = sum;
            }
        }
        scratch.indices = miss_at;
    }

    /// Predict through the memo. Returns the prediction and whether it was
    /// served from cache.
    pub fn predict(
        &self,
        model: &LoadedModel,
        qos: f64,
        target: Placement,
        others: &[Placement],
    ) -> (Prediction, bool) {
        self.predict_inner(model, qos, target, others, |gaugur| {
            gaugur.predict_degradation(target, others)
        })
    }

    /// [`predict`](PredictionMemo::predict) routed through the batch API: on
    /// a miss, the degradation is computed as a one-query
    /// [`DegradationBatch`](gaugur_core::DegradationBatch) through the
    /// caller's scratch buffers. Memo entries are shared with the scalar
    /// entry point (the batch evaluator is bit-identical).
    pub fn predict_with(
        &self,
        model: &LoadedModel,
        qos: f64,
        target: Placement,
        others: &[Placement],
        scratch: &mut PredictScratch,
    ) -> (Prediction, bool) {
        self.predict_inner(model, qos, target, others, |gaugur| {
            scratch.queries.clear();
            scratch.queries.push(target, others);
            gaugur.predict_degradation_batch(
                &scratch.queries,
                &mut scratch.features,
                &mut scratch.values,
            );
            scratch.values[0]
        })
    }

    /// A co-runner set too large for a key (only a wire `Predict` can name
    /// one) is answered straight from the model: no entry, no counters.
    fn predict_inner(
        &self,
        model: &LoadedModel,
        qos: f64,
        target: Placement,
        others: &[Placement],
        degradation: impl FnOnce(&GAugur) -> f64,
    ) -> (Prediction, bool) {
        let key = memo_key(model.version, qos, target, others);
        let solo = model.gaugur.profiles.get(target.0).solo_fps_at(target.1);
        if let Some(hit) = key.and_then(|key| self.map.lock().get(&key)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let prediction = Prediction {
                feasible: hit.feasible,
                degradation: hit.degradation,
                fps: hit.degradation * solo,
            };
            return (prediction, true);
        }
        let prediction = if others.is_empty() {
            // Solo: no interference, no model involved.
            Prediction {
                feasible: solo >= qos,
                degradation: 1.0,
                fps: solo,
            }
        } else {
            let degradation = degradation(&model.gaugur);
            Prediction {
                feasible: model.gaugur.predict_qos(qos, target, others),
                degradation,
                fps: degradation * solo,
            }
        };
        if let Some(key) = key {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let memoized = Memoized {
                feasible: prediction.feasible,
                degradation: prediction.degradation,
            };
            self.map.lock().insert(key, memoized);
        }
        (prediction, false)
    }

    /// `(hits, misses)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
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

/// [`gaugur_sched::FpsModel`] adapter that routes every member-FPS query
/// through the memo, so the placement greedy benefits from caching too.
pub struct MemoizedFps<'a> {
    /// The model snapshot this request is pinned to.
    pub model: &'a LoadedModel,
    /// The shared memo.
    pub memo: &'a PredictionMemo,
    /// QoS floor used for the feasibility half of memo entries.
    pub qos: f64,
}

impl gaugur_sched::FpsModel for MemoizedFps<'_> {
    fn predict_member_fps(&self, members: &[Placement], idx: usize) -> f64 {
        let others: Vec<Placement> = members
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != idx)
            .map(|(_, &p)| p)
            .collect();
        self.memo
            .predict(self.model, self.qos, members[idx], &others)
            .0
            .fps
    }

    fn predict_colocation_sum(&self, members: &[Placement]) -> f64 {
        self.memo.colocation_sum(self.model, self.qos, members)
    }

    fn predict_colocation_sums(
        &self,
        batch: &ColocationBatch,
        scratch: &mut PredictScratch,
        out: &mut Vec<f64>,
    ) {
        self.memo.colocation_sums(self.model, batch, scratch, out);
    }

    fn resident_colocation_sums(
        &self,
        batch: &ColocationBatch,
        _scratch: &mut PredictScratch,
        out: &mut Vec<f64>,
    ) -> bool {
        self.memo.resident_colocation_sums(self.model, batch, out)
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

    #[test]
    fn memo_hits_on_repeat_and_permutation() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(1024);
        let t = (GameId(0), Resolution::Fhd1080);
        let others = [
            (GameId(1), Resolution::Hd720),
            (GameId(2), Resolution::Fhd1080),
        ];
        let reversed = [others[1], others[0]];

        let (p1, cached1) = memo.predict(&model, 60.0, t, &others);
        assert!(!cached1);
        let (p2, cached2) = memo.predict(&model, 60.0, t, &others);
        assert!(cached2);
        // Permutation of the co-runner multiset is the same colocation.
        let (p3, cached3) = memo.predict(&model, 60.0, t, &reversed);
        assert!(cached3);
        assert_eq!(p1, p2);
        assert_eq!(p1, p3);
        assert_eq!(memo.counts(), (2, 1));

        // A different QoS floor is a different question.
        let (_, cached4) = memo.predict(&model, 30.0, t, &others);
        assert!(!cached4);
    }

    #[test]
    fn memoized_predictions_match_direct_model_calls() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(1024);
        let t = (GameId(3), Resolution::Fhd1080);
        let others = [(GameId(5), Resolution::Fhd1080)];
        let (p, _) = memo.predict(&model, 60.0, t, &others);
        assert_eq!(p.degradation, model.gaugur.predict_degradation(t, &others));
        assert_eq!(p.fps, model.gaugur.predict_fps(t, &others));
        assert_eq!(p.feasible, model.gaugur.predict_qos(60.0, t, &others));
    }

    #[test]
    fn solo_prediction_bypasses_the_models() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(64);
        let t = (GameId(1), Resolution::Hd720);
        let (p, _) = memo.predict(&model, 30.0, t, &[]);
        assert_eq!(p.degradation, 1.0);
        let solo = model.gaugur.profiles.get(t.0).solo_fps_at(t.1);
        assert_eq!(p.fps, solo);
        assert_eq!(p.feasible, solo >= 30.0);
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
        let mut scratch = PredictScratch::new();
        let mut batch = ColocationBatch::new();
        let mut out = Vec::new();
        for (target, others) in pairs() {
            let _ = memo.predict(&model, 60.0, target, &others);
            batch.clear();
            batch.push_extended(&others, target);
            memo.colocation_sums(&model, &batch, &mut scratch, &mut out);
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
        let all = pairs();
        let (hot, cold) = all.split_at(4);
        for (target, others) in hot {
            assert!(!memo.predict(&model, 60.0, *target, others).1);
        }
        // 52 cold keys, three floors each, through 32 entries: 156 inserts.
        for qos in [30.0, 45.0, 60.0] {
            for (i, (target, others)) in cold.iter().enumerate() {
                let _ = memo.predict(&model, qos, *target, others);
                if i % 4 == 3 {
                    for (target, others) in hot {
                        let (_, cached) = memo.predict(&model, 60.0, *target, others);
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
        let t = (GameId(0), Resolution::Fhd1080);
        let others = [(GameId(1), Resolution::Hd720)];
        assert!(!memo.predict(&v1, 60.0, t, &others).1);
        assert!(memo.predict(&v1, 60.0, t, &others).1);
        assert!(!memo.predict(&v2, 60.0, t, &others).1);

        let members = [t, others[0]];
        let (_, m0) = memo.counts();
        let s1 = memo.colocation_sum(&v1, 60.0, &members);
        let s2 = memo.colocation_sum(&v2, 60.0, &members);
        assert_eq!(s1.to_bits(), s2.to_bits());
        // Both sums missed (their member predictions are memo traffic too).
        let (_, m1) = memo.counts();
        assert!(m1 - m0 >= 2);
        let (h0, _) = memo.counts();
        let _ = memo.colocation_sum(&v2, 60.0, &members);
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
            assert_eq!(p.feasible, model.gaugur.predict_qos(60.0, t, &others));
        }
        assert_eq!(memo.predict(&model, 60.0, t, &others).0.fps, {
            model.gaugur.predict_fps(t, &others)
        });
        assert_eq!(memo.counts(), (0, 0));
        assert!(memo.is_empty());

        // The largest set that does fit is memoized as usual.
        let (_, cached) = memo.predict(&model, 60.0, t, &others[..MAX_PER_SERVER]);
        assert!(!cached);
        let (_, cached) = memo.predict(&model, 60.0, t, &others[..MAX_PER_SERVER]);
        assert!(cached);

        // Likewise for sums: an oversize colocation is computed, not kept.
        let mut members = others.clone();
        members.push(t);
        let mut batch = ColocationBatch::new();
        batch.push(&members);
        let mut out = Vec::new();
        for _ in 0..2 {
            let (_, m0) = memo.counts();
            memo.colocation_sums(&model, &batch, &mut scratch, &mut out);
            assert_eq!(memo.counts().1, m0 + 1);
            assert!(!memo.resident_colocation_sums(&model, &batch, &mut out));
        }
    }

    #[test]
    fn resident_sums_answer_only_without_evaluating() {
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
        assert!(!memo.resident_colocation_sums(&model, &batch, &mut out));
        assert_eq!(memo.counts(), (0, 0), "an abandoned pass counts nothing");

        let mut evaluated = Vec::new();
        memo.colocation_sums(&model, &batch, &mut scratch, &mut evaluated);
        assert_eq!(memo.counts(), (0, 2));
        assert!(memo.resident_colocation_sums(&model, &batch, &mut out));
        assert_eq!(memo.counts(), (2, 2));
        assert_eq!(out.len(), 3);
        for (a, b) in out.iter().zip(&evaluated) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn colocation_sum_memoizes_and_matches_member_predictions() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(1024);
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
        let sum = memo.colocation_sum(&model, 60.0, &members);
        assert!((sum - direct).abs() < 1e-9);
        // Repeat and permutation both hit the sum memo.
        let (h0, _) = memo.counts();
        let _ = memo.colocation_sum(&model, 60.0, &members);
        let permuted = [members[2], members[0], members[1]];
        let _ = memo.colocation_sum(&model, 60.0, &permuted);
        let (h1, _) = memo.counts();
        assert_eq!(h1 - h0, 2);
        // An empty colocation sums to zero without touching the model.
        assert_eq!(memo.colocation_sum(&model, 60.0, &[]), 0.0);
    }

    #[test]
    fn batched_colocation_sums_are_bit_identical_to_scalar() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        // Separate memos so the batched path computes rather than replaying
        // values the scalar path already cached.
        let scalar_memo = PredictionMemo::new(1024);
        let batch_memo = PredictionMemo::new(1024);

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
        let mut out = Vec::new();
        batch_memo.colocation_sums(&model, &batch, &mut scratch, &mut out);
        assert_eq!(out.len(), batch.len());
        for (i, &got) in out.iter().enumerate() {
            let direct = scalar_memo.colocation_sum(&model, 60.0, batch.members(i));
            assert_eq!(
                got.to_bits(),
                direct.to_bits(),
                "colocation {i}: {got} vs {direct}"
            );
        }

        // A second pass hits the sum memo for every non-empty colocation;
        // the empty one touches neither the memo nor the counters.
        let (h0, m0) = batch_memo.counts();
        let mut again = Vec::new();
        batch_memo.colocation_sums(&model, &batch, &mut scratch, &mut again);
        let (h1, m1) = batch_memo.counts();
        assert_eq!(h1 - h0, 3);
        assert_eq!(m1, m0);
        assert_eq!(out, again);
    }

    #[test]
    fn lone_members_take_no_query_row() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let scalar_memo = PredictionMemo::new(1024);
        let batch_memo = PredictionMemo::new(1024);
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
        let mut out = Vec::new();
        batch_memo.colocation_sums(&model, &batch, &mut scratch, &mut out);
        // The query plan holds the pairs' four rows and nothing else.
        assert_eq!(scratch.queries.len(), 4);
        let targets: Vec<Placement> = (0..4).map(|i| scratch.queries.target(i)).collect();
        assert_eq!(targets, [colocations[1], colocations[4]].concat());
        for (i, &got) in out.iter().enumerate() {
            let direct = scalar_memo.colocation_sum(&model, 60.0, colocations[i]);
            assert_eq!(got.to_bits(), direct.to_bits(), "colocation {i}");
        }
        assert_eq!(batch_memo.counts(), (0, 5));
    }

    #[test]
    fn predict_with_shares_memo_entries_with_the_scalar_path() {
        let handle = ModelHandle::from_model(tiny_model());
        let model = handle.get();
        let memo = PredictionMemo::new(1024);
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

        // The entry it stored serves the scalar entry point, and vice versa.
        let (p2, cached2) = memo.predict(&model, 60.0, t, &others);
        assert!(cached2);
        assert_eq!(p, p2);
        let s = (GameId(7), Resolution::Hd900);
        let _ = memo.predict(&model, 30.0, s, &others);
        let (_, cached3) = memo.predict_with(&model, 30.0, s, &others, &mut scratch);
        assert!(cached3);

        // Solo queries bypass the model in both entry points.
        let (solo, _) = memo.predict_with(&model, 30.0, t, &[], &mut scratch);
        assert_eq!(solo.degradation, 1.0);
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
        let (p, _) = memo.predict(
            &pinned,
            60.0,
            (GameId(0), Resolution::Fhd1080),
            &[(GameId(1), Resolution::Hd720)],
        );
        assert!(p.fps > 0.0 && p.degradation > 0.0);

        std::fs::remove_dir_all(&dir).ok();
    }
}
