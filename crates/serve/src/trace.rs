//! Per-request stage tracing: where does a request's time go?
//!
//! The whole-request latency histograms say *how slow* a request was; the
//! stages say *why*. Every handled request is split into pipeline stages —
//! queue wait, decode, predict, place, admit-lock wait, encode, write-reply —
//! timed into a [`RequestTrace`] on the worker's stack and flushed once into
//! the worker's block of [`crate::stats::Telemetry`]. This module holds the
//! stage model, the slow-request ring, the accounting oracle and the
//! Prometheus exposition.
//!
//! Accounting contract (the "stage-sum invariant", oracle-checked by the
//! chaos suite): [`crate::stats::Writer::flush`] records exactly one sample
//! for *each* of the six request stages per handled request — a stage that
//! did not run (e.g. `predict` on a `Depart`) contributes a zero-duration
//! sample. Therefore every request stage's `count` equals the total of
//! `per_request` ok + errors at any quiesced snapshot. `queue_wait` is
//! sampled once per *connection* when a worker dequeues it, so its count
//! equals accepted connections minus those shed at the acceptor.
//!
//! Determinism: tracing draws no randomness, takes no fault-injection
//! decisions, and influences no placement — it only reads the clock and
//! bumps counters — so fault-free chaos replay stays byte-identical with
//! tracing enabled. The slow-request ring keeps the worst-N requests by
//! total service time under a mutex that is only taken when a request beats
//! the current floor; entries are ordered by a monotone admission sequence,
//! never wall-clock identity.

use crate::slo::{ObjectiveStatus, WindowView};
use crate::stats::{StageStats, StatsSnapshot, LATENCY_BUCKETS_US};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of traced stages.
pub const N_STAGES: usize = 7;

/// Stage names in pipeline order; index is `Stage as usize`.
pub const STAGES: [&str; N_STAGES] = [
    "queue_wait",
    "decode",
    "predict",
    "place",
    "place_admit_wait",
    "encode",
    "write_reply",
];

/// One timed slice of the request pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Accepted-to-dequeued wait in the bounded work queue (per connection).
    QueueWait = 0,
    /// JSON payload decode of an already-read frame.
    Decode = 1,
    /// Model inference (memoized FPS predictions).
    Predict = 2,
    /// Placement scoring: picking the best server per shard.
    Place = 3,
    /// Waiting to acquire fleet/shard locks on the admit and depart paths —
    /// the contention signal the sharded fleet exists to shrink.
    PlaceAdmitWait = 4,
    /// Response serialization.
    Encode = 5,
    /// Writing the reply frame to the socket.
    WriteReply = 6,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; N_STAGES] = [
        Stage::QueueWait,
        Stage::Decode,
        Stage::Predict,
        Stage::Place,
        Stage::PlaceAdmitWait,
        Stage::Encode,
        Stage::WriteReply,
    ];

    /// Exposition/snapshot name of this stage.
    pub fn name(self) -> &'static str {
        STAGES[self as usize]
    }
}

/// The six per-request stages — everything except [`Stage::QueueWait`],
/// which is sampled once per connection rather than once per request.
pub const REQUEST_STAGES: [Stage; 6] = [
    Stage::Decode,
    Stage::Predict,
    Stage::Place,
    Stage::PlaceAdmitWait,
    Stage::Encode,
    Stage::WriteReply,
];

/// Microseconds elapsed since `t` (saturating; u64 µs is ~584k years).
pub fn elapsed_us(t: Instant) -> u64 {
    t.elapsed().as_micros() as u64
}

/// One entry of the slow-request ring: a whole-request trace with its
/// per-stage breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowRequest {
    /// Monotone admission sequence number (arrival order of handled
    /// requests, 0-based) — stable across identical runs, unlike wall-clock.
    pub seq: u64,
    /// Request kind (see [`crate::wire::REQUEST_KINDS`]).
    pub kind: String,
    /// Whole-request service time: sum of the request stages (µs).
    pub total_us: u64,
    /// Per-stage durations (µs), indexed like [`STAGES`]; the `queue_wait`
    /// slot is always 0 (it is per-connection, not per-request).
    pub stage_us: Vec<u64>,
    /// Session id the request touched (admitted/departed), if any.
    pub session: Option<u64>,
    /// Placement shard the request landed on, if any.
    pub shard: Option<u64>,
    /// Model version that served the request, when one was involved.
    pub model_version: Option<u64>,
}

/// Request identity attached to a slow-ring entry so `gaugur top` output is
/// actionable on sharded fleets: which session, which shard, which model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlowMeta {
    /// Session id the request touched, if any.
    pub session: Option<u64>,
    /// Placement shard the request landed on, if any.
    pub shard: Option<u64>,
    /// Model version that served the request, when one was involved.
    pub model_version: Option<u64>,
}

/// Per-request stage accumulator, filled on a worker's stack while the
/// request is handled and flushed once via [`crate::stats::Writer::flush`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestTrace {
    us: [u64; N_STAGES],
}

impl RequestTrace {
    /// Fresh all-zero trace.
    pub fn new() -> RequestTrace {
        RequestTrace::default()
    }

    /// Add `us` microseconds to `stage` (accumulates — a batched placement
    /// sums its per-item predict/place slices into one sample each).
    pub fn add(&mut self, stage: Stage, us: u64) {
        self.us[stage as usize] += us;
    }

    /// Accumulated duration of `stage` (µs).
    pub fn get(&self, stage: Stage) -> u64 {
        self.us[stage as usize]
    }

    /// Whole-request service time: sum over the request stages (excludes
    /// `queue_wait`, which is per-connection).
    pub fn total_us(&self) -> u64 {
        REQUEST_STAGES.iter().map(|&s| self.us[s as usize]).sum()
    }
}

struct SlowEntry {
    seq: u64,
    kind: &'static str,
    total_us: u64,
    us: [u64; N_STAGES],
    meta: SlowMeta,
}

/// Worst-N requests by total service time. The `floor_us` fast path skips
/// the lock for requests that cannot displace anything once the ring is
/// full; ties keep the incumbent, so admission is deterministic given the
/// offered sequence.
pub(crate) struct SlowLog {
    capacity: usize,
    seq: AtomicU64,
    floor_us: AtomicU64,
    ring: Mutex<Vec<SlowEntry>>,
}

impl SlowLog {
    pub(crate) fn new(capacity: usize) -> SlowLog {
        SlowLog {
            capacity,
            seq: AtomicU64::new(0),
            floor_us: AtomicU64::new(0),
            ring: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    pub(crate) fn offer(&self, kind: &'static str, trace: &RequestTrace, meta: SlowMeta) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if self.capacity == 0 {
            return;
        }
        let total_us = trace.total_us();
        // floor_us stays 0 until the ring fills, so this never rejects early.
        if total_us > 0 && total_us <= self.floor_us.load(Ordering::Relaxed) {
            return;
        }
        let entry = SlowEntry {
            seq,
            kind,
            total_us,
            us: trace.us,
            meta,
        };
        let mut ring = self.ring.lock();
        if ring.len() < self.capacity {
            ring.push(entry);
            if ring.len() == self.capacity {
                let floor = ring.iter().map(|e| e.total_us).min().unwrap_or(0);
                self.floor_us.store(floor, Ordering::Relaxed);
            }
            return;
        }
        let (min_idx, min_total) = ring
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.total_us, std::cmp::Reverse(e.seq)))
            .map(|(i, e)| (i, e.total_us))
            .expect("non-empty full ring");
        if total_us > min_total {
            ring[min_idx] = entry;
            let floor = ring.iter().map(|e| e.total_us).min().unwrap_or(0);
            self.floor_us.store(floor, Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self) -> Vec<SlowRequest> {
        let ring = self.ring.lock();
        let mut entries: Vec<SlowRequest> = ring
            .iter()
            .map(|e| SlowRequest {
                seq: e.seq,
                kind: e.kind.to_string(),
                total_us: e.total_us,
                stage_us: e.us.to_vec(),
                session: e.meta.session,
                shard: e.meta.shard,
                model_version: e.meta.model_version,
            })
            .collect();
        drop(ring);
        entries.sort_by_key(|e| (std::cmp::Reverse(e.total_us), e.seq));
        entries
    }
}

/// Check the stage accounting contract on a **quiesced** snapshot (no
/// requests mid-flight — e.g. post-drain in the chaos harness, or after a
/// load run finished): every request stage's count equals the per-op
/// request total, bucket sums equal counts, and `queue_wait` samples equal
/// connections that reached a worker.
pub fn verify_stage_accounting(s: &StatsSnapshot) -> Result<(), String> {
    let handled: u64 = s.per_request.values().map(|r| r.total()).sum();
    for &stage in REQUEST_STAGES.iter() {
        let st = s.per_stage.get(stage.name()).cloned().unwrap_or_default();
        if st.count != handled {
            return Err(format!(
                "stage `{}` count {} != {} handled requests",
                stage.name(),
                st.count,
                handled
            ));
        }
        let in_buckets: u64 = st.buckets.iter().sum();
        if in_buckets != st.count {
            return Err(format!(
                "stage `{}` bucket sum {} != count {}",
                stage.name(),
                in_buckets,
                st.count
            ));
        }
    }
    let served = s
        .connections_accepted
        .saturating_sub(s.overloaded_rejections)
        .saturating_sub(s.shutdown_rejections);
    let qw = s
        .per_stage
        .get(Stage::QueueWait.name())
        .cloned()
        .unwrap_or_default();
    if qw.count != served {
        return Err(format!(
            "queue_wait count {} != {} worker-served connections",
            qw.count, served
        ));
    }
    Ok(())
}

/// A sample's value: counters and integer gauges print exactly, the rest
/// through `f64`'s `Display`.
#[derive(Clone, Copy)]
enum Value {
    Int(u64),
    Real(f64),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => v.fmt(f),
            Value::Real(v) => v.fmt(f),
        }
    }
}

/// A metric family's type and samples, each sample under its own label set
/// (`""` for none).
enum Samples<'a> {
    Counter(Vec<(String, Value)>),
    Gauge(Vec<(String, Value)>),
    /// One histogram per label set: cumulative `_bucket` series over
    /// [`LATENCY_BUCKETS_US`] and `+Inf`, then `_sum` and `_count`.
    Histogram(Vec<(String, &'a StageStats)>),
}

/// One metric family of the exposition: its name, help and samples. Text
/// format 0.0.4 wants each family's samples in one group under its own
/// `TYPE` line, which rendering from a list of these guarantees.
type Family<'a> = (&'static str, &'static str, Samples<'a>);

/// One unlabelled sample.
fn one(value: Value) -> Vec<(String, Value)> {
    vec![(String::new(), value)]
}

/// `result="…"` samples.
fn by_result(results: &[(&str, u64)]) -> Vec<(String, Value)> {
    let sample = |&(result, v): &(&str, u64)| (format!("result=\"{result}\""), Value::Int(v));
    results.iter().map(sample).collect()
}

/// Every family of the exposition, in rendering order: process gauges,
/// lifecycle counters, by-result counters, feedback gauges, shards, per-kind
/// and per-stage series, then — when the snapshot carries an evaluated
/// [`crate::SloReport`] — the `gaugur_slo_*` and `gaugur_window_*` gauges.
fn families(s: &StatsSnapshot) -> Vec<Family<'_>> {
    use Samples::{Counter, Gauge, Histogram};
    use Value::{Int, Real};
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let build = format!(
        "version=\"{}\",profile=\"{profile}\"",
        env!("CARGO_PKG_VERSION")
    );
    let mut families = vec![
        (
            "gaugur_build_info",
            "Build metadata of the running daemon; value is always 1.",
            Gauge(vec![(build, Int(1))]),
        ),
        (
            "gaugur_uptime_seconds",
            "Seconds since the daemon started.",
            Gauge(one(Real(s.uptime_ms as f64 / 1e3))),
        ),
        (
            "gaugur_model_version",
            "Version of the currently loaded model.",
            Gauge(one(Int(s.model_version))),
        ),
        (
            "gaugur_active_sessions",
            "Sessions currently placed on the fleet.",
            Gauge(one(Int(s.active_sessions))),
        ),
        (
            "gaugur_servers",
            "Configured fleet size.",
            Gauge(one(Int(s.servers as u64))),
        ),
        (
            "gaugur_connections_accepted_total",
            "Connections the acceptor admitted.",
            Counter(one(Int(s.connections_accepted))),
        ),
        (
            "gaugur_connections_closed_total",
            "Connections fully disposed of.",
            Counter(one(Int(s.connections_closed))),
        ),
        (
            "gaugur_overloaded_rejections_total",
            "Connections turned away with Overloaded.",
            Counter(one(Int(s.overloaded_rejections))),
        ),
        (
            "gaugur_shutdown_rejections_total",
            "Connections turned away during drain.",
            Counter(one(Int(s.shutdown_rejections))),
        ),
        (
            "gaugur_malformed_frames_total",
            "Frames that failed to decode.",
            Counter(one(Int(s.malformed_frames))),
        ),
        (
            "gaugur_placements_admitted_total",
            "Sessions admitted into the fleet.",
            Counter(one(Int(s.placements_admitted))),
        ),
        (
            "gaugur_placements_rolled_back_total",
            "Admissions undone after undeliverable replies.",
            Counter(one(Int(s.placements_rolled_back))),
        ),
        (
            "gaugur_place_admit_retries_total",
            "Two-phase admits that lost the re-validation race and re-scored.",
            Counter(one(Int(s.place_admit_retries))),
        ),
        (
            "gaugur_place_admit_fallbacks_total",
            "Two-phase admits that fell back to a next-best shard.",
            Counter(one(Int(s.place_admit_fallbacks))),
        ),
        (
            "gaugur_depart_unknown_sessions_total",
            "Depart requests naming an unknown session id.",
            Counter(one(Int(s.depart_unknown_sessions))),
        ),
        (
            "gaugur_shard_misrouted_sessions_total",
            "Sessions whose id routed to the wrong shard (must be 0).",
            Counter(one(Int(s.shard_misrouted_sessions))),
        ),
        (
            "gaugur_feedback_evicted_total",
            "Outcome records evicted from full ring shards.",
            Counter(one(Int(s.feedback_evicted))),
        ),
        (
            "gaugur_drift_trips_total",
            "Times the drift detector tripped.",
            Counter(one(Int(s.drift_trips))),
        ),
        (
            "gaugur_prediction_memo_total",
            "Prediction-memo lookups by result.",
            Counter(by_result(&[
                ("hit", s.cache_hits),
                ("miss", s.cache_misses),
            ])),
        ),
        (
            "gaugur_score_cache_total",
            "Per-server score-cache lookups by result.",
            Counter(by_result(&[
                ("hit", s.score_hits),
                ("miss", s.score_misses),
            ])),
        ),
        (
            "gaugur_feedback_reports_total",
            "Outcome reports by disposition (fresh+stale are buffered).",
            Counter(by_result(&[
                (
                    "fresh",
                    s.feedback_accepted.saturating_sub(s.feedback_stale),
                ),
                ("stale", s.feedback_stale),
                ("dropped", s.feedback_dropped),
            ])),
        ),
        (
            "gaugur_retrains_total",
            "Background retrains by outcome.",
            Counter(by_result(&[
                ("ok", s.retrains_ok),
                ("failed", s.retrains_failed),
            ])),
        ),
        (
            "gaugur_feedback_buffered",
            "Outcome records buffered for the next retrain.",
            Gauge(one(Real(s.feedback_buffered as f64))),
        ),
        (
            "gaugur_feedback_pairs",
            "Distinct colocation pairs with outcome aggregates.",
            Gauge(one(Real(s.feedback_pairs as f64))),
        ),
        (
            "gaugur_drift_score",
            "Current overall Page-Hinkley drift score.",
            Gauge(one(Real(s.drift_score))),
        ),
        (
            "gaugur_drift_windowed_mae",
            "Mean absolute relative FPS error over the sliding window.",
            Gauge(one(Real(s.windowed_mae))),
        ),
        (
            "gaugur_last_retrain_ms",
            "Duration of the most recent successful retrain.",
            Gauge(one(Real(s.last_retrain_ms as f64))),
        ),
        (
            "gaugur_placement_shards",
            "Placement shards the fleet is partitioned into.",
            Gauge(one(Int(s.shards as u64))),
        ),
        (
            "gaugur_shard_active_sessions",
            "Sessions currently placed, per placement shard.",
            Gauge(
                s.shard_active_sessions
                    .iter()
                    .enumerate()
                    .map(|(shard, &n)| (format!("shard=\"{shard}\""), Int(n)))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "gaugur_requests_total",
            "Handled requests by kind and outcome.",
            Counter(
                s.per_request
                    .iter()
                    .flat_map(|(kind, rs)| {
                        [
                            (format!("kind=\"{kind}\",outcome=\"ok\""), Int(rs.ok)),
                            (format!("kind=\"{kind}\",outcome=\"error\""), Int(rs.errors)),
                        ]
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "gaugur_request_latency_us",
            "Whole-request handler latency by kind (microseconds).",
            Histogram(
                s.per_request
                    .iter()
                    .map(|(kind, rs)| (format!("kind=\"{kind}\""), &rs.latency))
                    .collect(),
            ),
        ),
        (
            "gaugur_stage_duration_us",
            "Per-stage request pipeline durations (microseconds).",
            Histogram(
                s.per_stage
                    .iter()
                    .map(|(stage, st)| (format!("stage=\"{stage}\""), st))
                    .collect(),
            ),
        ),
    ];
    let Some(slo) = &s.slo else {
        return families;
    };
    let objective = |o: &ObjectiveStatus| format!("objective=\"{}\"", o.name);
    let per_objective = |value: fn(&ObjectiveStatus) -> Value| {
        let sample = |o| (objective(o), value(o));
        slo.objectives.iter().map(sample).collect::<Vec<_>>()
    };
    // The fast and slow evaluation windows of each objective.
    let per_objective_window = |value: fn(&ObjectiveStatus) -> [f64; 2]| {
        let samples = |o: &ObjectiveStatus| {
            let labels = |w| format!("objective=\"{}\",window=\"{w}\"", o.name);
            ["10s", "5m"]
                .map(labels)
                .into_iter()
                .zip(value(o).map(Real))
        };
        slo.objectives.iter().flat_map(samples).collect::<Vec<_>>()
    };
    let per_window = |value: fn(&WindowView) -> f64| {
        let sample = |w: &WindowView| {
            (
                format!("window=\"{}\"", window_label(w.window_secs)),
                Real(value(w)),
            )
        };
        slo.windows.iter().map(sample).collect::<Vec<_>>()
    };
    let mut states = per_objective(|o| Int(o.state.as_u8().into()));
    states.push(("objective=\"fleet\"".into(), Int(slo.state.as_u8().into())));
    families.extend([
        (
            "gaugur_slo_state",
            "Alert severity per objective (0 = ok, 1 = warn, 2 = critical).",
            Gauge(states),
        ),
        (
            "gaugur_slo_burn_rate",
            "Error-budget burn rate per objective and evaluation window.",
            Gauge(per_objective_window(|o| [o.fast_burn, o.slow_burn])),
        ),
        (
            "gaugur_slo_objective_value",
            "Raw objective value (ratio, or p99 µs) per evaluation window.",
            Gauge(per_objective_window(|o| [o.fast_value, o.slow_value])),
        ),
        (
            "gaugur_slo_target",
            "Error budget / target the burn rates are measured against.",
            Gauge(per_objective(|o| Real(o.target))),
        ),
        (
            "gaugur_slo_transitions_total",
            "Alert state transitions since startup.",
            Counter(one(Int(slo.transitions))),
        ),
        (
            "gaugur_window_request_rate",
            "Handled requests per second over the rolling window.",
            Gauge(per_window(WindowView::request_rate)),
        ),
        (
            "gaugur_window_error_rate",
            "Error responses per second over the rolling window.",
            Gauge(per_window(WindowView::error_rate)),
        ),
        (
            "gaugur_window_place_p99_us",
            "p99 place service time over the rolling window (µs).",
            Gauge(per_window(|w| w.place_p99_us() as f64)),
        ),
        (
            "gaugur_window_qos_reject_ratio",
            "Fraction of placement attempts rejected at the QoS floor.",
            Gauge(per_window(WindowView::qos_reject_ratio)),
        ),
        (
            "gaugur_window_outcome_below_floor_ratio",
            "Fraction of reported outcomes below the QoS floor.",
            Gauge(per_window(WindowView::outcome_below_floor_ratio)),
        ),
        (
            "gaugur_window_mae",
            "Mean absolute relative FPS error over the rolling window.",
            Gauge(per_window(WindowView::windowed_mae)),
        ),
        (
            "gaugur_window_active_seconds",
            "Seconds inside the rolling window that recorded telemetry.",
            Gauge(per_window(|w| w.active_secs as f64)),
        ),
    ]);
    families
}

/// Render a snapshot in Prometheus text-exposition format (version 0.0.4),
/// one `families` entry after another. Served by the `Metrics` wire op.
pub fn render_prometheus(s: &StatsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(16 * 1024);
    for (name, help, samples) in families(s) {
        let kind = match samples {
            Samples::Counter(_) => "counter",
            Samples::Gauge(_) => "gauge",
            Samples::Histogram(_) => "histogram",
        };
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        match samples {
            Samples::Counter(values) | Samples::Gauge(values) => {
                for (labels, value) in values {
                    write_sample(&mut out, name, "", &labels, value);
                }
            }
            Samples::Histogram(series) => {
                for (labels, h) in series {
                    let mut cumulative = 0;
                    for (i, &count) in h.buckets.iter().enumerate() {
                        cumulative += count;
                        let _ = match LATENCY_BUCKETS_US.get(i) {
                            Some(le) => {
                                writeln!(out, "{name}_bucket{{{labels},le=\"{le}\"}} {cumulative}")
                            }
                            None => {
                                writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cumulative}")
                            }
                        };
                    }
                    write_sample(&mut out, name, "_sum", &labels, Value::Int(h.total_us));
                    write_sample(&mut out, name, "_count", &labels, Value::Int(h.count));
                }
            }
        }
    }
    out
}

fn write_sample(out: &mut String, name: &str, suffix: &str, labels: &str, value: Value) {
    use std::fmt::Write as _;
    let _ = if labels.is_empty() {
        writeln!(out, "{name}{suffix} {value}")
    } else {
        writeln!(out, "{name}{suffix}{{{labels}}} {value}")
    };
}

/// Human label for a rolling-window length (10 → "10s", 60 → "1m",
/// 300 → "5m").
fn window_label(secs: u64) -> String {
    if secs >= 60 && secs.is_multiple_of(60) {
        format!("{}m", secs / 60)
    } else {
        format!("{secs}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{Counter, Telemetry, N_BUCKETS};

    fn trace_with(decode: u64, predict: u64, place: u64, encode: u64, write: u64) -> RequestTrace {
        let mut t = RequestTrace::new();
        t.add(Stage::Decode, decode);
        t.add(Stage::Predict, predict);
        t.add(Stage::Place, place);
        t.add(Stage::Encode, encode);
        t.add(Stage::WriteReply, write);
        t
    }

    #[test]
    fn request_total_excludes_queue_wait() {
        let mut t = trace_with(1, 2, 3, 4, 5);
        t.add(Stage::QueueWait, 1_000);
        assert_eq!(t.total_us(), 15);
        assert_eq!(t.get(Stage::QueueWait), 1_000);
        // Admit-lock wait is a request stage: it counts toward the total.
        t.add(Stage::PlaceAdmitWait, 6);
        assert_eq!(t.total_us(), 21);
    }

    #[test]
    fn slow_ring_keeps_the_worst_n_in_order() {
        let log = SlowLog::new(3);
        for (i, total) in [10u64, 50, 20, 90, 5, 50].into_iter().enumerate() {
            let kind = if i % 2 == 0 { "place" } else { "predict" };
            log.offer(kind, &trace_with(total, 0, 0, 0, 0), SlowMeta::default());
        }
        let slow = log.snapshot();
        assert_eq!(slow.len(), 3);
        // Worst three of [10, 50, 20, 90, 5, 50] are 90, 50, 50; the seq-1
        // entry was admitted first and keeps its slot on the tie.
        assert_eq!(
            slow.iter().map(|e| e.total_us).collect::<Vec<_>>(),
            vec![90, 50, 50]
        );
        assert_eq!(slow[0].seq, 3);
        assert_eq!(slow[1].seq, 1); // earlier arrival sorts first on ties
        assert_eq!(slow[0].kind, "predict");
        assert_eq!(slow[0].stage_us[Stage::Decode as usize], 90);
    }

    #[test]
    fn zero_capacity_slow_ring_records_nothing() {
        let t = Telemetry::new(1, 0, 0);
        t.writer(0, 0).flush(
            0,
            true,
            true,
            &trace_with(99, 0, 0, 0, 0),
            SlowMeta::default(),
        );
        let snap = t.snapshot(0);
        assert!(snap.slow_requests.is_empty());
        // Stage histograms still work.
        assert_eq!(snap.per_stage["decode"].count, 1);
    }

    #[test]
    fn stage_and_op_histograms_are_one_type() {
        // A kind's latency and a stage's durations are the same wire type,
        // so the table's percentiles and the exposition's buckets read both
        // the same way. On every boundary case a percentile is the upper
        // bound of the bucket holding its rank.
        let snap = populated_snapshot();
        let place: &StageStats = &snap.per_request["place"].latency;
        let decode: &StageStats = &snap.per_stage["decode"];
        assert_eq!((place.count, place.total_us, place.max_us), (1, 40, 40));
        assert_eq!((decode.count, decode.total_us, decode.max_us), (3, 11, 5));
        let mut buckets = vec![0u64; N_BUCKETS];
        buckets[0] = 4;
        buckets[3] = 4; // ≤50µs bucket
        let st = StageStats {
            count: 8,
            total_us: 0,
            max_us: 48,
            buckets,
        };
        for (p, want) in [
            (0.0, 5),
            (12.5, 5),
            (50.0, 5),
            (50.1, 50),
            (99.9, 50),
            (100.0, 50),
        ] {
            assert_eq!(st.percentile_us(p), want, "p={p}");
        }
    }

    /// `place` (40 µs, ok) on worker 0, `depart` (7 µs, ok) on worker 1,
    /// `stats` (3 µs, error) on worker 0, behind two connections.
    fn populated_snapshot() -> StatsSnapshot {
        let t = Telemetry::new(2, 4, 0);
        t.note(t.acceptor(), Counter::Connections, 2);
        t.writer(0, 0).queue_wait(2);
        t.writer(1, 0).queue_wait(4);
        for (worker, kind, ok, latency_us, trace) in [
            (0, 0, true, 40, trace_with(5, 20, 10, 2, 3)),
            (1, 2, true, 7, trace_with(4, 0, 0, 1, 2)),
            (0, 7, false, 3, trace_with(2, 0, 0, 1, 0)),
        ] {
            let w = t.writer(worker, 0);
            w.record(kind, ok, latency_us);
            w.flush(kind, ok, kind == 0, &trace, SlowMeta::default());
        }
        let mut snap = t.snapshot(0);
        snap.model_version = 3;
        snap.active_sessions = 1;
        snap.servers = 8;
        snap
    }

    #[test]
    fn stage_accounting_reconciles_on_a_quiesced_snapshot() {
        let snap = populated_snapshot();
        verify_stage_accounting(&snap).expect("accounting holds");
    }

    #[test]
    fn stage_accounting_catches_missing_samples() {
        let mut snap = populated_snapshot();
        snap.per_stage.get_mut("encode").unwrap().count -= 1;
        let err = verify_stage_accounting(&snap).unwrap_err();
        assert!(err.contains("encode"), "{err}");

        let mut snap = populated_snapshot();
        snap.per_stage.get_mut("queue_wait").unwrap().count += 1;
        let err = verify_stage_accounting(&snap).unwrap_err();
        assert!(err.contains("queue_wait"), "{err}");
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let mut snap = populated_snapshot();
        let t = Telemetry::new(1, 4, 0);
        let engine = crate::SloEngine::new(crate::SloConfig::default());
        snap.slo = Some(engine.evaluate(&t.views(0), t.per_game()).0);
        let text = render_prometheus(&snap);
        let mut seen_series = 0usize;
        // Each family is one group: its samples directly follow its own
        // TYPE line, and no family is typed twice.
        let mut typed = std::collections::HashSet::new();
        let mut family = "";
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                family = rest.split(' ').next().unwrap();
                assert!(typed.insert(family), "family typed twice: {line}");
                continue;
            }
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP "), "{line}");
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap();
            let suffix = name.strip_prefix(family).unwrap_or(name);
            assert!(
                ["", "_bucket", "_sum", "_count", "_total"].contains(&suffix),
                "sample outside its family's group (current family {family}): {line}"
            );
            // Every sample line is `name[{labels}] value` with a finite value.
            let (series, value) = line.rsplit_once(' ').expect(line);
            assert!(!series.is_empty(), "{line}");
            let name = series.split('{').next().unwrap();
            assert!(
                name.starts_with("gaugur_")
                    && name
                        .chars()
                        .all(|ch| ch.is_ascii_alphanumeric() || ch == '_'),
                "{line}"
            );
            assert!(value.parse::<f64>().expect(line).is_finite(), "{line}");
            seen_series += 1;
        }
        assert!(seen_series > 50, "exposition too small: {seen_series}");

        // Spot checks: the series the CI smoke job validates.
        assert!(text.contains("gaugur_requests_total{kind=\"place\",outcome=\"ok\"} 1"));
        assert!(text.contains("gaugur_stage_duration_us_count{stage=\"decode\"} 3"));
        assert!(text.contains("gaugur_stage_duration_us_count{stage=\"queue_wait\"} 2"));
        assert!(text.contains("gaugur_retrains_total{result=\"ok\"} 0"));
        assert!(text.contains("gaugur_score_cache_total{result=\"hit\"} 0"));
        assert!(text.contains("gaugur_drift_windowed_mae"));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("gaugur_slo_burn_rate{objective=\"admit_qos\",window=\"5m\"}"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let snap = populated_snapshot();
        let text = render_prometheus(&snap);
        let mut last: Option<u64> = None;
        let mut inf: Option<u64> = None;
        for line in text.lines() {
            if let Some(rest) =
                line.strip_prefix("gaugur_stage_duration_us_bucket{stage=\"decode\",le=\"")
            {
                let (le, v) = rest.split_once("\"} ").unwrap();
                let v: u64 = v.parse().unwrap();
                if let Some(prev) = last {
                    assert!(v >= prev, "bucket counts must be cumulative: {line}");
                }
                last = Some(v);
                if le == "+Inf" {
                    inf = Some(v);
                }
            }
        }
        assert_eq!(inf, Some(3), "+Inf bucket equals the sample count");
        assert_eq!(LATENCY_BUCKETS_US.len() + 1, N_BUCKETS);
    }

    #[test]
    fn slow_requests_survive_the_snapshot_roundtrip() {
        let snap = populated_snapshot();
        assert_eq!(snap.slow_requests.len(), 3);
        assert_eq!(snap.slow_requests[0].total_us, 40);
        let json = serde_json::to_string(&snap).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn slow_meta_propagates_to_the_snapshot() {
        let log = SlowLog::new(4);
        let meta = SlowMeta {
            session: Some(41),
            shard: Some(2),
            model_version: Some(3),
        };
        log.offer("place", &trace_with(9, 0, 0, 0, 0), meta);
        log.offer("stats", &trace_with(1, 0, 0, 0, 0), SlowMeta::default());
        let slow = log.snapshot();
        assert_eq!(slow[0].session, Some(41));
        assert_eq!(slow[0].shard, Some(2));
        assert_eq!(slow[0].model_version, Some(3));
        assert_eq!(slow[1].session, None);
        assert_eq!(slow[1].shard, None);
        assert_eq!(slow[1].model_version, None);
    }

    #[test]
    fn slow_request_decodes_pre_meta_json() {
        // Snapshots serialized before the identity fields existed must still
        // deserialize (serde defaults).
        let old = r#"{"seq":4,"kind":"place","total_us":12,"stage_us":[0,12,0,0,0,0,0]}"#;
        let back: SlowRequest = serde_json::from_str(old).unwrap();
        assert_eq!(back.session, None);
        assert_eq!(back.shard, None);
        assert_eq!(back.model_version, None);
    }

    #[test]
    fn prometheus_exposes_build_info() {
        let text = render_prometheus(&populated_snapshot());
        let line = text
            .lines()
            .find(|l| l.starts_with("gaugur_build_info{"))
            .expect("build_info series present");
        assert!(line.contains(&format!("version=\"{}\"", env!("CARGO_PKG_VERSION"))));
        assert!(line.contains("profile=\""));
        assert!(line.ends_with(" 1"));
    }

    #[test]
    fn prometheus_slo_section_renders_when_evaluated() {
        use crate::slo::{SloConfig, SloEngine};

        let mut snap = populated_snapshot();
        // Without an SLO report the section is absent entirely.
        assert!(!render_prometheus(&snap).contains("gaugur_slo_state"));

        let t = Telemetry::new(2, 0, 0);
        t.writer(0, 0).place_attempt(1, true);
        t.writer(1, 0).place_attempt(1, false); // rejected on saturation
        t.writer(0, 0).outcome(1, true, 0.5);
        let engine = SloEngine::new(SloConfig::default());
        let (report, _) = engine.evaluate(&t.views(0), t.per_game());
        snap.slo = Some(report);

        let text = render_prometheus(&snap);
        assert!(text.contains("gaugur_slo_state{objective=\"fleet\"}"));
        assert!(text.contains("gaugur_slo_state{objective=\"admit_qos\"}"));
        assert!(text.contains("gaugur_slo_burn_rate{objective=\"observed_fps\",window=\"10s\"}"));
        assert!(text.contains("gaugur_slo_burn_rate{objective=\"place_latency\",window=\"5m\"}"));
        assert!(
            text.contains("gaugur_slo_objective_value{objective=\"admit_qos\",window=\"10s\"} 0.5")
        );
        assert!(text.contains("gaugur_slo_transitions_total "));
        assert!(text.contains("gaugur_window_request_rate{window=\"10s\"}"));
        assert!(text.contains("gaugur_window_qos_reject_ratio{window=\"1m\"} 0.5"));
        assert!(text.contains("gaugur_window_outcome_below_floor_ratio{window=\"5m\"} 1"));
        assert!(text.contains("gaugur_window_active_seconds{window=\"5m\"} 1"));
        // The well-formedness contract holds with the section present.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect(line);
            assert!(value.parse::<f64>().expect(line).is_finite(), "{line}");
        }
    }

    #[test]
    fn window_labels_are_humanized() {
        assert_eq!(window_label(10), "10s");
        assert_eq!(window_label(60), "1m");
        assert_eq!(window_label(300), "5m");
        assert_eq!(window_label(45), "45s");
    }
}
