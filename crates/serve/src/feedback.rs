//! Online feedback: outcome ingestion, drift detection, and the dataset
//! the background retrainer learns from.
//!
//! Clients report the frame rate a session *actually* achieved
//! (`ReportOutcome`); the daemon resolves the session against the live
//! fleet and buffers a training record — the colocation that was running
//! plus the observed FPS. Ingestion is lock-light: records land in sharded
//! ring buffers (round-robin over shards, one short mutex hold each), and
//! drift statistics live behind a single small mutex updated with a few
//! arithmetic operations per report.
//!
//! Drift is detected with the Page–Hinkley test over the relative
//! prediction error `|observed - predicted| / predicted`, the standard
//! sequential change-point statistic: it accumulates deviations of the
//! error from its running mean and trips when the accumulation exceeds a
//! threshold `lambda`, i.e. when the error has *sustainably* grown rather
//! than spiked once. A sliding-window MAE is kept alongside for
//! observability and for the end-to-end "did retraining help" check.
//!
//! Stale reports — those tagged with a `model_version` older than the
//! model currently serving — are buffered as training data (the observed
//! FPS is real physics regardless of which model predicted it) but are
//! excluded from drift statistics, because their `predicted_fps` came from
//! a model that is no longer serving and would smear the error signal of
//! the current one.

use gaugur_core::{Placement, SessionOutcome};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Tuning knobs for the feedback subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackConfig {
    /// Ring-buffer shards (round-robin; more shards = less contention).
    pub shards: usize,
    /// Records each shard retains; the oldest are evicted on overflow.
    pub capacity_per_shard: usize,
    /// Sliding-window length for the observable MAE.
    pub window: usize,
    /// Page–Hinkley magnitude tolerance: error deviations smaller than
    /// this are considered noise.
    pub ph_delta: f64,
    /// Page–Hinkley trip threshold on the accumulated deviation.
    pub ph_lambda: f64,
    /// Fewest buffered records a retrain will accept; below this the
    /// retrain fails (counted, version untouched).
    pub min_retrain_samples: u64,
    /// Boosting rounds appended when the model supports warm-starting.
    pub extra_rounds: usize,
    /// Queue a retrain automatically when the drift detector trips.
    pub auto_retrain: bool,
}

impl Default for FeedbackConfig {
    fn default() -> FeedbackConfig {
        FeedbackConfig {
            shards: 8,
            capacity_per_shard: 4096,
            window: 256,
            ph_delta: 0.005,
            ph_lambda: 2.5,
            min_retrain_samples: 64,
            extra_rounds: 60,
            auto_retrain: true,
        }
    }
}

/// One ingested outcome: the colocation that was running plus what the
/// client observed, ready to become a regression sample.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeRecord {
    /// The reporting session's own placement.
    pub target: Placement,
    /// Its co-runners on the same server at report time.
    pub others: Vec<Placement>,
    /// Frame rate the client measured.
    pub observed_fps: f64,
}

/// Page–Hinkley sequential change detector over a stream of error values,
/// with a bounded window for the observable MAE.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    window: VecDeque<f64>,
    window_cap: usize,
    n: u64,
    mean: f64,
    cum: f64,
    min_cum: f64,
    delta: f64,
    lambda: f64,
}

impl DriftDetector {
    /// A fresh detector with the given window and Page–Hinkley parameters.
    pub fn new(window_cap: usize, delta: f64, lambda: f64) -> DriftDetector {
        DriftDetector {
            window: VecDeque::with_capacity(window_cap.min(4096)),
            window_cap: window_cap.max(1),
            n: 0,
            mean: 0.0,
            cum: 0.0,
            min_cum: 0.0,
            delta,
            lambda,
        }
    }

    /// Feed one error observation; returns `true` when the detector trips
    /// (sustained error growth beyond `lambda`). Tripping resets the
    /// accumulated statistic so the next regime is judged afresh.
    pub fn observe(&mut self, err: f64) -> bool {
        if self.window.len() == self.window_cap {
            self.window.pop_front();
        }
        self.window.push_back(err);
        self.n += 1;
        self.mean += (err - self.mean) / self.n as f64;
        self.cum += err - self.mean - self.delta;
        self.min_cum = self.min_cum.min(self.cum);
        if self.cum - self.min_cum > self.lambda {
            self.reset_ph();
            return true;
        }
        false
    }

    /// Current Page–Hinkley score (distance of the accumulation above its
    /// historical minimum; trips at `lambda`).
    pub fn score(&self) -> f64 {
        self.cum - self.min_cum
    }

    /// Mean absolute error over the sliding window (0 when empty).
    pub fn windowed_mae(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        self.window.iter().map(|e| e.abs()).sum::<f64>() / self.window.len() as f64
    }

    /// Observations seen so far.
    pub fn observations(&self) -> u64 {
        self.n
    }

    /// Full reset: Page–Hinkley state *and* the sliding error window.
    ///
    /// `observe` on a trip only resets the PH accumulator — the window keeps
    /// sliding so the MAE stays observable through the bad regime. After a
    /// successful retrain the old errors are no longer evidence about the
    /// *new* model, so the window must be cleared too; otherwise
    /// `windowed_mae` keeps reporting pre-retrain errors until `window_cap`
    /// fresh reports have displaced them.
    pub fn reset(&mut self) {
        self.reset_ph();
        self.window.clear();
    }

    fn reset_ph(&mut self) {
        self.n = 0;
        self.mean = 0.0;
        self.cum = 0.0;
        self.min_cum = 0.0;
    }
}

/// Counter snapshot mirrored into [`crate::stats::StatsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedbackCounters {
    /// Reports accepted (fresh + stale).
    pub accepted: u64,
    /// Accepted reports from an outdated model version.
    pub stale: u64,
    /// Reports rejected outright.
    pub dropped: u64,
    /// Records currently buffered.
    pub buffered: u64,
    /// Records evicted from full shards.
    pub evicted: u64,
    /// Distinct game pairs with aggregates.
    pub pairs: u64,
    /// Drift-detector trips since startup.
    pub drift_trips: u64,
    /// Successful background retrains.
    pub retrains_ok: u64,
    /// Failed background retrains.
    pub retrains_failed: u64,
    /// Duration of the last successful retrain (ms).
    pub last_retrain_ms: u64,
    /// Samples the last successful retrain used.
    pub last_retrain_samples: u64,
}

struct DriftState {
    overall: DriftDetector,
    per_game: HashMap<u32, DriftDetector>,
}

/// The feedback subsystem: sharded outcome rings, pair aggregates, drift
/// detectors, and retrain bookkeeping. One instance lives in the daemon's
/// shared state; ingestion happens on worker threads, dataset snapshots on
/// the retrainer thread.
pub struct Feedback {
    config: FeedbackConfig,
    shards: Vec<Mutex<VecDeque<OutcomeRecord>>>,
    next_shard: AtomicUsize,
    /// Canonical keys of the game pairs seen in reports against a live
    /// prediction.
    pairs: Mutex<HashSet<(u32, u32)>>,
    drift: Mutex<DriftState>,
    accepted: AtomicU64,
    stale: AtomicU64,
    dropped: AtomicU64,
    evicted: AtomicU64,
    drift_trips: AtomicU64,
    retrains_ok: AtomicU64,
    retrains_failed: AtomicU64,
    last_retrain_ms: AtomicU64,
    last_retrain_samples: AtomicU64,
}

impl Feedback {
    /// A fresh, empty subsystem.
    pub fn new(config: FeedbackConfig) -> Feedback {
        let shards = config.shards.max(1);
        Feedback {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            next_shard: AtomicUsize::new(0),
            pairs: Mutex::new(HashSet::new()),
            drift: Mutex::new(DriftState {
                overall: DriftDetector::new(config.window, config.ph_delta, config.ph_lambda),
                per_game: HashMap::new(),
            }),
            accepted: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            drift_trips: AtomicU64::new(0),
            retrains_ok: AtomicU64::new(0),
            retrains_failed: AtomicU64::new(0),
            last_retrain_ms: AtomicU64::new(0),
            last_retrain_samples: AtomicU64::new(0),
            config,
        }
    }

    /// The configuration this subsystem was built with.
    pub fn config(&self) -> &FeedbackConfig {
        &self.config
    }

    /// Ingest one resolved outcome. `predicted_fps` and `stale` come from
    /// the wire report (stale = tagged model version predates the serving
    /// one). Returns `true` when the drift detector tripped on this report.
    pub fn ingest(&self, record: OutcomeRecord, predicted_fps: f64, stale: bool) -> bool {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        if stale {
            self.stale.fetch_add(1, Ordering::Relaxed);
        }

        // Relative error only means something for a live-model prediction.
        let rel_err = if predicted_fps.is_finite() && predicted_fps > 0.0 {
            Some(((record.observed_fps - predicted_fps) / predicted_fps).abs())
        } else {
            None
        };

        if rel_err.is_some() {
            let mut pairs = self.pairs.lock();
            for &(other, _) in &record.others {
                pairs.insert(pair_key(record.target.0 .0, other.0));
            }
        }

        let mut tripped = false;
        if !stale {
            if let Some(err) = rel_err {
                let mut drift = self.drift.lock();
                let game = record.target.0 .0;
                let per_game = drift.per_game.entry(game).or_insert_with(|| {
                    DriftDetector::new(
                        self.config.window,
                        self.config.ph_delta,
                        self.config.ph_lambda,
                    )
                });
                let game_trip = per_game.observe(err);
                let overall_trip = drift.overall.observe(err);
                tripped = game_trip || overall_trip;
                if tripped {
                    self.drift_trips.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut ring = self.shards[shard].lock();
        if ring.len() == self.config.capacity_per_shard {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
        drop(ring);

        tripped
    }

    /// Count a rejected report (unknown session or non-finite FPS).
    pub fn note_dropped(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a successful retrain.
    pub fn note_retrain_ok(&self, duration_ms: u64, samples: u64) {
        self.retrains_ok.fetch_add(1, Ordering::Relaxed);
        self.last_retrain_ms.store(duration_ms, Ordering::Relaxed);
        self.last_retrain_samples.store(samples, Ordering::Relaxed);
    }

    /// Record a failed retrain.
    pub fn note_retrain_failed(&self) {
        self.retrains_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records currently buffered across all shards.
    pub fn buffered(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().len() as u64).sum()
    }

    /// Snapshot the buffered records as [`SessionOutcome`]s for retraining.
    /// Does not drain — the rings keep sliding so successive retrains see
    /// the freshest window of outcomes.
    pub fn snapshot_outcomes(&self) -> Vec<SessionOutcome> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let ring = shard.lock();
            out.extend(ring.iter().map(|r| SessionOutcome {
                target: r.target,
                others: r.others.clone(),
                observed_fps: r.observed_fps,
            }));
        }
        out
    }

    /// Counter snapshot plus live drift scores for `Stats`.
    pub fn counters(&self) -> FeedbackCounters {
        FeedbackCounters {
            accepted: self.accepted.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            buffered: self.buffered(),
            evicted: self.evicted.load(Ordering::Relaxed),
            pairs: self.pairs.lock().len() as u64,
            drift_trips: self.drift_trips.load(Ordering::Relaxed),
            retrains_ok: self.retrains_ok.load(Ordering::Relaxed),
            retrains_failed: self.retrains_failed.load(Ordering::Relaxed),
            last_retrain_ms: self.last_retrain_ms.load(Ordering::Relaxed),
            last_retrain_samples: self.last_retrain_samples.load(Ordering::Relaxed),
        }
    }

    /// Current overall drift score and windowed MAE.
    pub fn drift_stats(&self) -> (f64, f64) {
        let drift = self.drift.lock();
        (drift.overall.score(), drift.overall.windowed_mae())
    }

    /// Reset every drift detector (overall and per-game) after a successful
    /// retrain. The buffered outcome records are untouched — they remain
    /// valid training data — but error statistics accumulated against the
    /// *previous* model must not colour judgement of the new one.
    pub fn reset_drift(&self) {
        let mut drift = self.drift.lock();
        drift.overall.reset();
        for detector in drift.per_game.values_mut() {
            detector.reset();
        }
    }
}

/// Canonical (smaller, larger) key so `(a, b)` and `(b, a)` aggregate
/// together.
fn pair_key(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugur_gamesim::{GameId, Resolution};

    const R: Resolution = Resolution::Fhd1080;

    fn record(game: u32, others: &[u32], fps: f64) -> OutcomeRecord {
        OutcomeRecord {
            target: (GameId(game), R),
            others: others.iter().map(|&g| (GameId(g), R)).collect(),
            observed_fps: fps,
        }
    }

    fn small_config() -> FeedbackConfig {
        FeedbackConfig {
            shards: 2,
            capacity_per_shard: 4,
            window: 8,
            ..FeedbackConfig::default()
        }
    }

    #[test]
    fn ingestion_buffers_and_counts() {
        let fb = Feedback::new(small_config());
        for i in 0..5 {
            fb.ingest(record(1, &[2], 50.0 + i as f64), 52.0, false);
        }
        fb.ingest(record(2, &[1], 48.0), 50.0, true); // stale
        fb.note_dropped();
        let c = fb.counters();
        assert_eq!(c.accepted, 6);
        assert_eq!(c.stale, 1);
        assert_eq!(c.dropped, 1);
        assert_eq!(c.buffered, 6);
        assert_eq!(c.evicted, 0);
        assert_eq!(c.pairs, 1); // (1,2) and (2,1) canonicalise together
        assert_eq!(fb.snapshot_outcomes().len(), 6);
    }

    #[test]
    fn full_shards_evict_oldest_and_conserve_counts() {
        let fb = Feedback::new(small_config()); // 2 shards × 4 = 8 records
        for i in 0..20 {
            fb.ingest(record(1, &[], 60.0 + i as f64), 60.0, false);
        }
        let c = fb.counters();
        assert_eq!(c.accepted, 20);
        assert_eq!(c.buffered, 8);
        assert_eq!(c.evicted, 12);
        // Conservation: every accepted record is buffered or was evicted.
        assert_eq!(c.accepted, c.buffered + c.evicted);
        // The snapshot holds the 8 freshest observations.
        let fps: Vec<f64> = fb
            .snapshot_outcomes()
            .iter()
            .map(|o| o.observed_fps)
            .collect();
        assert!(fps.iter().all(|&f| f >= 72.0), "{fps:?}");
    }

    #[test]
    fn drift_detector_stays_quiet_on_stationary_errors() {
        let mut d = DriftDetector::new(64, 0.005, 2.5);
        for i in 0..2000 {
            // Small bounded noise around a constant error level.
            let err = 0.02 + 0.005 * ((i % 7) as f64 - 3.0) / 3.0;
            assert!(!d.observe(err), "tripped at {i}");
        }
        assert!(d.score() < 2.5);
        assert!(d.windowed_mae() < 0.03);
    }

    #[test]
    fn drift_detector_trips_on_sustained_error_growth() {
        let mut d = DriftDetector::new(64, 0.005, 2.5);
        for _ in 0..200 {
            d.observe(0.02);
        }
        let mut tripped = false;
        for _ in 0..200 {
            if d.observe(0.25) {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "sustained 25% error never tripped the detector");
        // Tripping resets the statistic so the next regime starts fresh.
        assert_eq!(d.observations(), 0);
        assert!(d.score() == 0.0);
    }

    #[test]
    fn subsystem_trips_and_counts_drift() {
        let mut config = small_config();
        config.window = 32;
        let fb = Feedback::new(config);
        for _ in 0..50 {
            fb.ingest(record(3, &[4], 59.0), 60.0, false);
        }
        assert_eq!(fb.counters().drift_trips, 0);
        let mut tripped = false;
        for _ in 0..100 {
            if fb.ingest(record(3, &[4], 40.0), 60.0, false) {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
        assert!(fb.counters().drift_trips >= 1);
        let (_, mae) = fb.drift_stats();
        assert!(mae > 0.05, "windowed MAE should reflect the bad regime");
    }

    #[test]
    fn stale_reports_feed_the_buffer_but_not_drift() {
        let fb = Feedback::new(small_config());
        // A torrent of terrible stale reports must not trip drift…
        for _ in 0..200 {
            assert!(!fb.ingest(record(1, &[], 10.0), 60.0, true));
        }
        let (score, mae) = fb.drift_stats();
        assert_eq!(score, 0.0);
        assert_eq!(mae, 0.0);
        // …but they are still training data.
        assert_eq!(fb.counters().buffered, 8);
    }

    #[test]
    fn pairs_count_canonical_keys_of_live_predictions() {
        let fb = Feedback::new(small_config());
        fb.ingest(record(1, &[2], 54.0), 60.0, false);
        fb.ingest(record(2, &[1], 66.0), 60.0, false);
        fb.ingest(record(1, &[3], 60.0), 60.0, false);
        // No live prediction to compare with: no pair.
        fb.ingest(record(4, &[5], 60.0), f64::NAN, false);
        assert_eq!(fb.counters().pairs, 2);
    }

    #[test]
    fn reset_clears_the_window_not_just_ph_state() {
        let mut d = DriftDetector::new(64, 0.005, 2.5);
        for _ in 0..50 {
            d.observe(0.25);
        }
        assert!(d.windowed_mae() > 0.2);

        // The buggy behaviour: reset_ph alone leaves the window populated,
        // so the MAE still reflects the old regime.
        d.reset_ph();
        assert!(
            d.windowed_mae() > 0.2,
            "reset_ph is PH-only by design; the window keeps sliding"
        );

        d.reset();
        assert_eq!(d.windowed_mae(), 0.0);
        assert_eq!(d.score(), 0.0);
        assert_eq!(d.observations(), 0);
    }

    #[test]
    fn reset_drift_clears_overall_and_per_game_detectors() {
        let fb = Feedback::new(small_config());
        for _ in 0..20 {
            fb.ingest(record(3, &[4], 40.0), 60.0, false);
            fb.ingest(record(5, &[6], 45.0), 60.0, false);
        }
        let (_, mae) = fb.drift_stats();
        assert!(mae > 0.2, "bad regime should show in the windowed MAE");

        fb.reset_drift();
        let (score, mae) = fb.drift_stats();
        assert_eq!(score, 0.0);
        assert_eq!(
            mae, 0.0,
            "post-retrain MAE must not reflect pre-retrain errors"
        );

        // Buffered training data survives the reset.
        assert!(fb.counters().buffered > 0);

        // Fresh reports repopulate the statistics from scratch.
        fb.ingest(record(3, &[4], 54.0), 60.0, false);
        let (_, mae) = fb.drift_stats();
        assert!((mae - 0.1).abs() < 1e-12, "mae={mae}");
    }

    #[test]
    fn retrain_bookkeeping_reaches_counters() {
        let fb = Feedback::new(small_config());
        fb.note_retrain_failed();
        fb.note_retrain_ok(120, 77);
        let c = fb.counters();
        assert_eq!(c.retrains_ok, 1);
        assert_eq!(c.retrains_failed, 1);
        assert_eq!(c.last_retrain_ms, 120);
        assert_eq!(c.last_retrain_samples, 77);
    }
}
