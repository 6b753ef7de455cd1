//! Rolling service-level windows and SLO burn-rate alerting.
//!
//! The since-boot counters answer "what happened since boot"; the windows
//! answer "what is happening *right now*". Every worker's block of
//! [`crate::stats::Telemetry`] ends in a ring of per-second slots holding
//! what the objectives below and the `gaugur_window_*` gauges read: request
//! ok/error counts, the whole-place service-time histogram, place attempts
//! and saturation rejections, and outcome counts and error sums. They are
//! merged on demand into 10 s / 1 m / 5 m rolling [`WindowView`]s. Stage
//! timings are kept since boot only. Time comes from an injectable
//! [`Clock`], so every window boundary is testable with a [`ManualClock`].
//!
//! On top of the windows sits the [`SloEngine`]: three fleet-wide QoS
//! objectives (rejections at admit, observed-FPS violations from
//! `ReportOutcome`, and p99 place latency) evaluated as SRE-style
//! multi-window burn rates — a severity fires only when **both** the fast
//! (10 s) and slow (5 m) windows burn past its threshold, so a one-second
//! blip cannot page and a real regression cannot hide — driving an
//! `Ok → Warn → Critical` alert state machine whose transitions feed the
//! flight recorder ([`crate::recorder`]).
//!
//! Read consistency: readers merge concurrently with writers using relaxed
//! loads, so a view taken mid-second may miss a handful of in-flight
//! increments; views are exact at quiesce points (after a drain), which is
//! when tests and oracles read them. A view's `max_us` is bucket-bounded
//! (the upper bound of the highest non-empty bucket, with the overflow
//! bucket reported as the largest finite bound, Prometheus-style).

use crate::stats::{StageStats, LATENCY_BUCKETS_US};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotone microsecond clock, injectable so windowed telemetry is
/// testable without sleeping. Implementations must be cheap (called on the
/// request hot path) and non-decreasing.
pub trait Clock: std::fmt::Debug + Send + Sync {
    /// Microseconds elapsed since this clock's epoch.
    fn now_us(&self) -> u64;
}

/// The production [`Clock`]: wall-clock-independent monotone time from
/// [`Instant`], with the epoch fixed at construction.
#[derive(Debug)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is "now".
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// A hand-cranked [`Clock`] for tests: time moves only when told to.
/// Hold an `Arc<ManualClock>` and hand out `Arc<dyn Clock>` clones.
#[derive(Debug, Default)]
pub struct ManualClock {
    us: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at `start_us`.
    pub fn new(start_us: u64) -> ManualClock {
        ManualClock {
            us: AtomicU64::new(start_us),
        }
    }

    /// Advance by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.us.fetch_add(us, Ordering::Relaxed);
    }

    /// Advance by whole seconds.
    pub fn advance_secs(&self, secs: u64) {
        self.advance_us(secs * 1_000_000);
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.us.load(Ordering::Relaxed)
    }
}

/// The rolling windows (seconds) merged by
/// [`crate::stats::Telemetry::views`]: fast, medium, slow. The SLO engine burns on the first and last.
pub const WINDOWS_SECS: [u64; 3] = [10, 60, 300];

/// Upper bound of the highest non-empty bucket; the open-ended overflow
/// bucket reports the largest finite bound (Prometheus `histogram_quantile`
/// semantics). 0 with no samples.
pub(crate) fn bucket_bounded_max(buckets: &[u64]) -> u64 {
    buckets
        .iter()
        .rposition(|&c| c > 0)
        .map(|i| {
            LATENCY_BUCKETS_US
                .get(i)
                .copied()
                .unwrap_or(LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1])
        })
        .unwrap_or(0)
}

/// Cumulative per-game QoS counters (since boot, not windowed) merged into
/// [`SloReport::per_game`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GameSlo {
    /// Placement attempts naming this game.
    pub place_attempts: u64,
    /// Attempts rejected on saturation: every server was at its session cap
    /// or already ran this game. The placement policy consults no QoS floor.
    pub qos_rejected: u64,
    /// Outcome reports received for sessions of this game.
    pub outcomes: u64,
    /// Outcome reports whose observed FPS fell below the QoS floor.
    pub outcomes_below_floor: u64,
}

/// One rolling window merged across all workers, in snapshot (wire) form.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowView {
    /// Window length in seconds (one of [`WINDOWS_SECS`]).
    pub window_secs: u64,
    /// Distinct seconds inside the window that recorded any telemetry; an
    /// idle or freshly started daemon shows fewer than `window_secs`.
    pub active_secs: u64,
    /// Requests answered successfully inside the window.
    pub requests_ok: u64,
    /// Requests answered with an error response inside the window.
    pub requests_err: u64,
    /// Whole-request service-time histogram of `place`/`place_batch`
    /// requests over the window; feeds the p99 place-latency objective.
    /// `count` is the bucket sum; `max_us` is bucket-bounded (see the
    /// module docs).
    pub place_latency: StageStats,
    /// Placement attempts (batch items count individually).
    pub place_attempts: u64,
    /// Attempts rejected on saturation (every server at its session cap or
    /// already running the game; no QoS floor is consulted).
    pub place_qos_rejected: u64,
    /// Outcome reports ingested inside the window.
    pub outcomes_total: u64,
    /// Outcome reports whose observed FPS fell below the QoS floor.
    pub outcomes_below_floor: u64,
    /// Sum of absolute relative FPS errors from outcome reports, in
    /// micro-units (1e-6) so the hot path stays integer-only.
    pub err_sum_micros: u64,
    /// Outcome reports contributing to `err_sum_micros`.
    pub err_count: u64,
}

impl WindowView {
    /// Handled requests per second over the full window length.
    pub fn request_rate(&self) -> f64 {
        (self.requests_ok + self.requests_err) as f64 / self.window_secs.max(1) as f64
    }

    /// Error responses per second over the full window length.
    pub fn error_rate(&self) -> f64 {
        self.requests_err as f64 / self.window_secs.max(1) as f64
    }

    /// Mean absolute relative FPS error over the window's outcome reports;
    /// 0 with none.
    pub fn windowed_mae(&self) -> f64 {
        if self.err_count == 0 {
            0.0
        } else {
            self.err_sum_micros as f64 / 1e6 / self.err_count as f64
        }
    }

    /// Fraction of placement attempts rejected on saturation; 0 with no
    /// attempts.
    pub fn qos_reject_ratio(&self) -> f64 {
        if self.place_attempts == 0 {
            0.0
        } else {
            self.place_qos_rejected as f64 / self.place_attempts as f64
        }
    }

    /// Fraction of outcome reports below the QoS floor; 0 with none.
    pub fn outcome_below_floor_ratio(&self) -> f64 {
        if self.outcomes_total == 0 {
            0.0
        } else {
            self.outcomes_below_floor as f64 / self.outcomes_total as f64
        }
    }

    /// p99 whole-request place latency over the window (µs, bucket-bounded).
    pub fn place_p99_us(&self) -> u64 {
        self.place_latency.percentile_us(99.0)
    }
}

/// Alert severity of one objective (or the whole fleet: the max across
/// objectives).
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize, Hash,
)]
pub enum AlertState {
    /// Burn rates below the warn threshold in at least one window.
    #[default]
    Ok,
    /// Both windows burning past the warn threshold.
    Warn,
    /// Both windows burning past the critical threshold.
    Critical,
}

impl AlertState {
    /// Stable numeric code for the Prometheus gauge (0/1/2).
    pub fn as_u8(self) -> u8 {
        match self {
            AlertState::Ok => 0,
            AlertState::Warn => 1,
            AlertState::Critical => 2,
        }
    }
}

impl std::fmt::Display for AlertState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AlertState::Ok => "ok",
            AlertState::Warn => "warn",
            AlertState::Critical => "critical",
        })
    }
}

/// The fleet-wide objective names, in evaluation order.
pub const OBJECTIVES: [&str; 3] = ["admit_qos", "observed_fps", "place_latency"];

/// SLO targets and burn thresholds; lives in
/// [`crate::daemon::DaemonConfig`].
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Error budget for the ratio objectives: the tolerated fraction of
    /// saturation rejections at admit, and of below-floor outcome reports.
    /// Burn rate = observed ratio / budget.
    pub fps_error_budget: f64,
    /// Target p99 whole-request place latency (µs). Burn rate = observed
    /// p99 / target.
    pub place_p99_target_us: u64,
    /// Burn rate at or above which (in both windows) an objective goes
    /// `Warn`.
    pub warn_burn: f64,
    /// Burn rate at or above which (in both windows) an objective goes
    /// `Critical`.
    pub critical_burn: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            fps_error_budget: 0.05,
            place_p99_target_us: 10_000,
            warn_burn: 1.0,
            critical_burn: 10.0,
        }
    }
}

/// One objective's evaluated burn state.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveStatus {
    /// Objective name (one of [`OBJECTIVES`]).
    pub name: String,
    /// Current alert severity.
    pub state: AlertState,
    /// Burn rate over the fast (10 s) window.
    pub fast_burn: f64,
    /// Burn rate over the slow (5 m) window.
    pub slow_burn: f64,
    /// Raw objective value over the fast window (ratio, or p99 µs).
    pub fast_value: f64,
    /// Raw objective value over the slow window.
    pub slow_value: f64,
    /// The budget/target the burn rates are measured against.
    pub target: f64,
}

/// An alert state change detected by one evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertTransition {
    /// Index into [`OBJECTIVES`] of the objective that changed.
    pub objective: usize,
    /// Previous severity.
    pub from: AlertState,
    /// New severity.
    pub to: AlertState,
}

/// Full SLO evaluation result, exported through `Stats`, the `SloStatus`
/// wire op and the Prometheus exposition.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// Fleet-wide severity: the max across objectives.
    pub state: AlertState,
    /// Alert state transitions since startup.
    pub transitions: u64,
    /// Per-objective burn states, in [`OBJECTIVES`] order.
    pub objectives: Vec<ObjectiveStatus>,
    /// The rolling windows the objectives were evaluated over, in
    /// [`WINDOWS_SECS`] order.
    pub windows: Vec<WindowView>,
    /// Cumulative per-game QoS counters, keyed by game id.
    pub per_game: BTreeMap<u64, GameSlo>,
}

impl std::fmt::Display for SloReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "slo: {} ({} transitions)",
            self.state.to_string().to_uppercase(),
            self.transitions
        )?;
        writeln!(
            f,
            "  {:<14} {:>8} {:>10} {:>10} {:>12} {:>12} {:>10}",
            "objective", "state", "burn 10s", "burn 5m", "value 10s", "value 5m", "target"
        )?;
        for o in &self.objectives {
            writeln!(
                f,
                "  {:<14} {:>8} {:>10.2} {:>10.2} {:>12.4} {:>12.4} {:>10.4}",
                o.name, o.state, o.fast_burn, o.slow_burn, o.fast_value, o.slow_value, o.target
            )?;
        }
        writeln!(
            f,
            "  {:<8} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "window", "active", "req/s", "err/s", "qos rej", "below flr", "mae", "place p99"
        )?;
        for w in &self.windows {
            writeln!(
                f,
                "  {:>6}s  {:>7}s {:>10.1} {:>10.2} {:>10.4} {:>10.4} {:>10.4} {:>8}µs",
                w.window_secs,
                w.active_secs,
                w.request_rate(),
                w.error_rate(),
                w.qos_reject_ratio(),
                w.outcome_below_floor_ratio(),
                w.windowed_mae(),
                w.place_p99_us()
            )?;
        }
        if !self.per_game.is_empty() {
            writeln!(
                f,
                "  {:<8} {:>10} {:>10} {:>10} {:>10}",
                "game", "attempts", "qos rej", "outcomes", "below flr"
            )?;
            for (game, g) in &self.per_game {
                writeln!(
                    f,
                    "  {:<8} {:>10} {:>10} {:>10} {:>10}",
                    game, g.place_attempts, g.qos_rejected, g.outcomes, g.outcomes_below_floor
                )?;
            }
        }
        Ok(())
    }
}

/// Multi-window burn-rate evaluator and alert state machine. One instance
/// lives in the daemon's shared state; evaluation is throttled to once per
/// second on the request path ([`SloEngine::tick_due`]) and runs in full on
/// every stats/SLO snapshot.
pub struct SloEngine {
    config: SloConfig,
    states: Mutex<[AlertState; OBJECTIVES.len()]>,
    transitions: AtomicU64,
    last_tick_sec: AtomicU64,
}

impl SloEngine {
    /// Engine with all objectives starting at `Ok`.
    pub fn new(config: SloConfig) -> SloEngine {
        SloEngine {
            config,
            states: Mutex::new([AlertState::Ok; OBJECTIVES.len()]),
            transitions: AtomicU64::new(0),
            last_tick_sec: AtomicU64::new(0),
        }
    }

    /// Claim the once-per-second evaluation slot for `now_sec`; returns
    /// true for exactly one caller per second (lossy under no traffic:
    /// evaluation simply waits for the next request or snapshot).
    pub fn tick_due(&self, now_sec: u64) -> bool {
        let last = self.last_tick_sec.load(Ordering::Relaxed);
        now_sec > last
            && self
                .last_tick_sec
                .compare_exchange(last, now_sec, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }

    fn severity(&self, fast_burn: f64, slow_burn: f64) -> AlertState {
        let floor = fast_burn.min(slow_burn);
        if floor >= self.config.critical_burn {
            AlertState::Critical
        } else if floor >= self.config.warn_burn {
            AlertState::Warn
        } else {
            AlertState::Ok
        }
    }

    /// Evaluate every objective against the fast and slow windows, advance
    /// the alert state machine, and return the report plus any transitions
    /// (for the flight recorder). `views` must be in [`WINDOWS_SECS`] order.
    pub fn evaluate(
        &self,
        views: &[WindowView],
        per_game: BTreeMap<u64, GameSlo>,
    ) -> (SloReport, Vec<AlertTransition>) {
        let fast = &views[0];
        let slow = &views[WINDOWS_SECS.len() - 1];
        let ratio_target = self.config.fps_error_budget.max(f64::EPSILON);
        let p99_target = (self.config.place_p99_target_us as f64).max(1.0);
        // (fast value, slow value, target) per objective, in OBJECTIVES
        // order; burn = value / target.
        let measured = [
            (
                fast.qos_reject_ratio(),
                slow.qos_reject_ratio(),
                ratio_target,
            ),
            (
                fast.outcome_below_floor_ratio(),
                slow.outcome_below_floor_ratio(),
                ratio_target,
            ),
            (
                fast.place_p99_us() as f64,
                slow.place_p99_us() as f64,
                p99_target,
            ),
        ];

        let mut states = self.states.lock();
        let mut transitions = Vec::new();
        let mut objectives = Vec::with_capacity(OBJECTIVES.len());
        for (i, &(fast_value, slow_value, target)) in measured.iter().enumerate() {
            let fast_burn = fast_value / target;
            let slow_burn = slow_value / target;
            let to = self.severity(fast_burn, slow_burn);
            let from = states[i];
            if to != from {
                states[i] = to;
                self.transitions.fetch_add(1, Ordering::Relaxed);
                transitions.push(AlertTransition {
                    objective: i,
                    from,
                    to,
                });
            }
            objectives.push(ObjectiveStatus {
                name: OBJECTIVES[i].to_string(),
                state: to,
                fast_burn,
                slow_burn,
                fast_value,
                slow_value,
                target,
            });
        }
        let state = *states.iter().max().expect("non-empty objectives");
        drop(states);
        let report = SloReport {
            state,
            transitions: self.transitions.load(Ordering::Relaxed),
            objectives,
            windows: views.to_vec(),
            per_game,
        };
        (report, transitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{Telemetry, N_BUCKETS};
    use crate::trace::{RequestTrace, SlowMeta, Stage};

    const SEC: u64 = 1_000_000;

    fn evaluate(
        engine: &SloEngine,
        t: &Telemetry,
        now_us: u64,
    ) -> (SloReport, Vec<AlertTransition>) {
        engine.evaluate(&t.views(now_us), t.per_game())
    }

    #[test]
    fn an_empty_fleet_evaluates_to_ok_with_zero_burn() {
        let t = Telemetry::new(4, 0, 0);
        let engine = SloEngine::new(SloConfig::default());
        let (report, transitions) = evaluate(&engine, &t, 0);
        assert_eq!(report.state, AlertState::Ok);
        assert!(transitions.is_empty());
        assert!(report.objectives.iter().all(|o| o.fast_burn == 0.0));
    }

    #[test]
    fn burn_rates_drive_the_alert_state_machine_both_windows_required() {
        let t = Telemetry::new(1, 0, 0);
        let engine = SloEngine::new(SloConfig {
            fps_error_budget: 0.05,
            ..SloConfig::default()
        });

        // 10 rejected of 10 attempts: ratio 1.0, burn 20 in *both* windows
        // (the slow window holds the same seconds early in the run).
        for _ in 0..10 {
            t.writer(0, SEC).place_attempt(1, false);
        }
        let (report, transitions) = evaluate(&engine, &t, SEC);
        assert_eq!(report.state, AlertState::Critical);
        assert_eq!(report.objectives[0].state, AlertState::Critical);
        assert_eq!(
            transitions,
            vec![AlertTransition {
                objective: 0,
                from: AlertState::Ok,
                to: AlertState::Critical,
            }]
        );
        assert_eq!(report.transitions, 1);

        // 11 seconds later the fast window is clean but the slow window
        // still burns: multi-window gating de-escalates to Ok (min rules).
        let (report, transitions) = evaluate(&engine, &t, 12 * SEC);
        assert_eq!(report.state, AlertState::Ok);
        assert_eq!(transitions.len(), 1);
        assert_eq!(transitions[0].to, AlertState::Ok);
        assert_eq!(report.transitions, 2);

        // Re-evaluating without movement stays put: no new transitions.
        let (report, transitions) = evaluate(&engine, &t, 12 * SEC);
        assert!(transitions.is_empty());
        assert_eq!(report.transitions, 2);
    }

    #[test]
    fn warn_fires_between_the_thresholds() {
        let t = Telemetry::new(1, 0, 0);
        // Budget 0.05: 1 rejection in 10 attempts is ratio 0.1, burn 2.0 —
        // past warn (1.0), short of critical (10.0).
        let engine = SloEngine::new(SloConfig::default());
        for i in 0..10 {
            t.writer(0, SEC).place_attempt(1, i != 0);
        }
        let (report, _) = evaluate(&engine, &t, SEC);
        assert_eq!(report.objectives[0].state, AlertState::Warn);
        assert_eq!(report.state, AlertState::Warn);
    }

    #[test]
    fn place_latency_objective_burns_on_p99() {
        let t = Telemetry::new(1, 0, 0);
        let engine = SloEngine::new(SloConfig {
            place_p99_target_us: 100,
            ..SloConfig::default()
        });
        // p99 lands in the ≤5000µs bucket: burn 5000/100 = 50 ≥ critical.
        let mut trace = RequestTrace::new();
        trace.add(Stage::Place, 3_000);
        for _ in 0..10 {
            t.writer(0, SEC)
                .flush(0, true, true, &trace, SlowMeta::default());
        }
        let (report, _) = evaluate(&engine, &t, SEC);
        let latency = &report.objectives[2];
        assert_eq!(latency.name, "place_latency");
        assert_eq!(latency.fast_value, 5_000.0);
        assert_eq!(latency.state, AlertState::Critical);
    }

    #[test]
    fn tick_due_claims_each_second_once() {
        let engine = SloEngine::new(SloConfig::default());
        assert!(!engine.tick_due(0), "second 0 is the startup sentinel");
        assert!(engine.tick_due(1));
        assert!(!engine.tick_due(1), "one evaluation per second");
        assert!(!engine.tick_due(0), "time going backwards never ticks");
        assert!(engine.tick_due(5));
    }

    #[test]
    fn report_display_renders_every_section() {
        let t = Telemetry::new(1, 0, 0);
        t.writer(0, SEC).place_attempt(2, false);
        t.writer(0, SEC).outcome(2, true, 0.5);
        let engine = SloEngine::new(SloConfig::default());
        let (report, _) = evaluate(&engine, &t, SEC);
        let text = report.to_string();
        assert!(text.contains("slo: CRITICAL"), "{text}");
        assert!(text.contains("admit_qos"), "{text}");
        assert!(text.contains("observed_fps"), "{text}");
        assert!(text.contains("place_latency"), "{text}");
        assert!(text.contains("300s"), "{text}");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let t = Telemetry::new(2, 0, 0);
        let mut trace = RequestTrace::new();
        trace.add(Stage::Place, 42);
        t.writer(0, SEC)
            .flush(0, true, true, &trace, SlowMeta::default());
        t.writer(1, SEC).place_attempt(7, true);
        t.writer(0, SEC).outcome(7, false, 0.1);
        let engine = SloEngine::new(SloConfig::default());
        let (report, _) = evaluate(&engine, &t, SEC);
        let json = serde_json::to_string(&report).unwrap();
        let back: SloReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn bucket_bounded_max_follows_the_highest_bucket() {
        let mut buckets = vec![0u64; N_BUCKETS];
        assert_eq!(bucket_bounded_max(&buckets), 0);
        buckets[0] = 3;
        assert_eq!(bucket_bounded_max(&buckets), 5);
        buckets[4] = 1;
        assert_eq!(bucket_bounded_max(&buckets), 100);
        buckets[N_BUCKETS - 1] = 1; // overflow reports the largest finite bound
        assert_eq!(bucket_bounded_max(&buckets), 1_000_000);
    }
}
