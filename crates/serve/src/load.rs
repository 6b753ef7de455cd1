//! Deterministic Poisson load driver for the placement daemon.
//!
//! Each connection thread generates its own arrival stream from a seeded
//! ChaCha8 RNG (`rng_for(seed, [LOAD_CTX, thread])`), so the *sequence* of
//! requests — which games arrive, at which resolutions, how long each
//! session lives — is a pure function of the seed, independently of wire
//! timing. Session lifetimes are measured in subsequent arrivals on the same
//! thread (not wall time), which keeps closed-loop benchmarking and
//! rate-paced runs equally deterministic.

use crate::client::{Client, ClientError, RetryPolicy};
use crate::slo::AlertState;
use crate::wire::{BatchPlaceResult, OutcomeReport, WirePlacement};
use gaugur_gamesim::rng::rng_for;
use gaugur_gamesim::{GameId, Resolution};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

const LOAD_CTX: u64 = 0x4C4F_4144; // "LOAD"
const RETRY_CTX: u64 = 0x5254_5259; // "RTRY"
const NOISE_CTX: u64 = 0x4E4F_4953; // "NOIS"

/// Load-driver configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address, e.g. `127.0.0.1:7071`.
    pub addr: String,
    /// Seed for the arrival streams.
    pub seed: u64,
    /// Parallel client connections (threads).
    pub connections: usize,
    /// Total `Place` attempts across all connections.
    pub requests: u64,
    /// Target aggregate arrival rate (requests/s). `f64::INFINITY` runs
    /// closed-loop: each thread issues its next arrival immediately and
    /// times it from the send. At a finite rate an arrival is timed from the
    /// instant it was due, so time the driver spends behind schedule counts.
    pub rate: f64,
    /// Mean session lifetime, in subsequent arrivals on the same thread
    /// (exponentially distributed, minimum 1).
    pub mean_session_arrivals: f64,
    /// Games to draw arrivals from (uniformly).
    pub games: Vec<GameId>,
    /// Resolutions to draw arrivals from (uniformly).
    pub resolutions: Vec<Resolution>,
    /// QoS floor: a placement whose predicted FPS falls below this counts as
    /// a violation in the report.
    pub qos: f64,
    /// Arrivals grouped into one `PlaceBatch` frame (1 = one `Place` per
    /// arrival; latency is then sampled per frame, not per arrival).
    pub batch: usize,
    /// Report a simulated observed frame rate for every placed session,
    /// closing the feedback loop (`ReportOutcome` / `ReportOutcomeBatch`).
    pub report_outcomes: bool,
    /// Multiplicative noise amplitude on simulated observations: observed
    /// FPS is drawn uniformly from `predicted × drift × [1−ε, 1+ε]`. Drawn
    /// from its own seeded stream (`NOISE_CTX`), so enabling reports never
    /// perturbs the arrival sequence.
    pub observe_noise: f64,
    /// World-drift multiplier applied to simulated observations; values
    /// away from 1.0 emulate a workload shift the serving model has not
    /// seen, which is what drives the drift detector and retraining.
    pub drift: f64,
    /// After the run, scrape the daemon's stats and check the per-stage
    /// accounting invariant ([`crate::trace::verify_stage_accounting`]):
    /// every request stage must hold exactly one sample per handled request.
    /// The result lands in [`LoadReport::trace_violation`]. Requires the
    /// daemon to be otherwise idle once the run drains (true for tests and
    /// benches; leave off when other clients share the daemon).
    pub verify_trace: bool,
    /// After the run, scrape the daemon's stats and verify its shard
    /// layout: exactly this many placement shards, per-shard active counts
    /// summing to the global count, and zero misrouted sessions. `None`
    /// skips the check. Same quiesce requirement as `verify_trace`; the
    /// result lands in [`LoadReport::shard_violation`].
    pub expect_shards: Option<usize>,
    /// After the run, fetch the daemon's SLO report and demand the fleet
    /// alert state reached *at least* this severity. `Some(AlertState::Ok)`
    /// just scrapes and records the state; `Some(AlertState::Critical)` is
    /// how CI asserts an injected QoS violation actually fired the alert.
    /// The result lands in [`LoadReport::slo_state`] /
    /// [`LoadReport::slo_violation`].
    pub expect_slo: Option<AlertState>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7071".into(),
            seed: 7,
            connections: 4,
            requests: 1000,
            rate: f64::INFINITY,
            mean_session_arrivals: 8.0,
            games: (0..16).map(GameId).collect(),
            resolutions: vec![Resolution::Hd720, Resolution::Fhd1080],
            qos: 60.0,
            batch: 1,
            report_outcomes: false,
            observe_noise: 0.05,
            drift: 1.0,
            verify_trace: false,
            expect_shards: None,
            expect_slo: None,
        }
    }
}

/// What one run of the driver observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Sessions successfully placed.
    pub placed: u64,
    /// Placements refused by the policy (fleet saturated).
    pub rejected: u64,
    /// `Overloaded` pushbacks received.
    pub overloaded: u64,
    /// Retries issued after `Overloaded` pushback (bounded per arrival; an
    /// arrival that exhausts its retries counts as an error, not a retry).
    pub retries: u64,
    /// Sessions departed (including the end-of-run drain).
    pub departed: u64,
    /// Transport or daemon errors.
    pub errors: u64,
    /// Outcome reports the daemon accepted (when `report_outcomes` is on).
    pub outcomes_reported: u64,
    /// Accepted outcome reports tagged with an outdated model version.
    pub outcomes_stale: u64,
    /// Outcome reports the daemon dropped (e.g. the session had already
    /// departed by the time the report arrived).
    pub outcomes_dropped: u64,
    /// Mean predicted FPS over placed sessions.
    pub mean_predicted_fps: f64,
    /// Fraction of placed sessions predicted below the QoS floor.
    pub violation_rate: f64,
    /// Placement latency percentiles (µs), measured client-side.
    pub p50_us: u64,
    /// 95th percentile placement latency (µs).
    pub p95_us: u64,
    /// 99th percentile placement latency (µs).
    pub p99_us: u64,
    /// Worst placement latency (µs).
    pub max_us: u64,
    /// Place attempts per second of wall time, across all connections.
    pub achieved_rps: f64,
    /// Requests the daemon handled with stage traces, per its post-run
    /// snapshot (0 when `verify_trace` is off or the scrape failed).
    pub traced_requests: u64,
    /// Stage-accounting violation found by the post-run check, if any
    /// (`None` = invariant held, or `verify_trace` was off).
    pub trace_violation: Option<String>,
    /// Shard layout the daemon reported in the post-run scrape (0 when
    /// `expect_shards` was off or the scrape failed).
    pub shards_seen: usize,
    /// Shard-layout violation found by the post-run check, if any (`None` =
    /// layout and conservation held, or `expect_shards` was off).
    pub shard_violation: Option<String>,
    /// Fleet-wide alert state from the post-run SLO scrape (`None` when
    /// `expect_slo` was off or the scrape failed).
    pub slo_state: Option<AlertState>,
    /// SLO expectation failure, if any (`None` = the fleet alert state
    /// reached the expected severity, or `expect_slo` was off).
    pub slo_violation: Option<String>,
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "load driver report")?;
        writeln!(f, "  placed:        {}", self.placed)?;
        writeln!(f, "  rejected:      {}", self.rejected)?;
        writeln!(f, "  overloaded:    {}", self.overloaded)?;
        writeln!(f, "  retries:       {}", self.retries)?;
        writeln!(f, "  departed:      {}", self.departed)?;
        writeln!(f, "  errors:        {}", self.errors)?;
        if self.outcomes_reported + self.outcomes_dropped > 0 {
            writeln!(
                f,
                "  outcomes:      {} reported ({} stale) / {} dropped",
                self.outcomes_reported, self.outcomes_stale, self.outcomes_dropped
            )?;
        }
        writeln!(f, "  predicted fps: {:.2} mean", self.mean_predicted_fps)?;
        writeln!(
            f,
            "  violations:    {:.2}% of placements",
            100.0 * self.violation_rate
        )?;
        writeln!(
            f,
            "  place latency: p50 {}µs  p95 {}µs  p99 {}µs  max {}µs",
            self.p50_us, self.p95_us, self.p99_us, self.max_us
        )?;
        writeln!(f, "  throughput:    {:.0} req/s", self.achieved_rps)?;
        match &self.trace_violation {
            Some(v) => writeln!(f, "  tracing:       VIOLATION: {v}")?,
            None if self.traced_requests > 0 => writeln!(
                f,
                "  tracing:       {} requests traced, stage accounting reconciled",
                self.traced_requests
            )?,
            None => {}
        }
        match &self.shard_violation {
            Some(v) => writeln!(f, "  shards:        VIOLATION: {v}")?,
            None if self.shards_seen > 0 => writeln!(
                f,
                "  shards:        {} placement shards, conservation held",
                self.shards_seen
            )?,
            None => {}
        }
        match (&self.slo_violation, self.slo_state) {
            (Some(v), _) => writeln!(f, "  slo:           VIOLATION: {v}"),
            (None, Some(state)) => writeln!(f, "  slo:           fleet alert state {state}"),
            (None, None) => Ok(()),
        }
    }
}

#[derive(Default)]
struct ThreadOutcome {
    placed: u64,
    rejected: u64,
    overloaded: u64,
    retries: u64,
    departed: u64,
    errors: u64,
    fps_sum: f64,
    violations: u64,
    latencies_us: Vec<u64>,
    outcomes_reported: u64,
    outcomes_stale: u64,
    outcomes_dropped: u64,
}

impl ThreadOutcome {
    /// Count `n` errors and, when their outcome is ambiguous (the transport
    /// died before a reply — see [`ClientError::is_ambiguous`]), reconnect
    /// so the thread keeps going on a fresh stream. Ambiguous failures are
    /// *never* retried: a `Place` the daemon may already have applied would
    /// double-place on retry. The arrival is simply charged as an error and
    /// the run moves on.
    fn error(&mut self, n: u64, client: &mut Client, addr: &str, error: &ClientError) {
        self.errors += n;
        if error.is_ambiguous() {
            if let Ok(fresh) = Client::connect(addr) {
                *client = fresh;
            }
        }
    }
}

/// Simulate the frame rate the session "actually" achieved: the model's
/// prediction, scaled by the configured world drift, with uniform
/// multiplicative noise.
fn observe_fps(noise_rng: &mut ChaCha8Rng, config: &LoadConfig, predicted: f64) -> f64 {
    let eps = config.observe_noise.max(0.0);
    let noise = if eps > 0.0 {
        noise_rng.gen_range(-eps..=eps)
    } else {
        0.0
    };
    predicted * config.drift * (1.0 + noise)
}

/// Send one outcome-report batch, folding the daemon's accounting into the
/// thread's tallies.
fn send_reports(
    client: &mut Client,
    config: &LoadConfig,
    reports: &[OutcomeReport],
    out: &mut ThreadOutcome,
) {
    if reports.is_empty() {
        return;
    }
    let result = if reports.len() == 1 {
        client.report_outcome(reports[0].clone())
    } else {
        client.report_outcomes(reports)
    };
    match result {
        Ok((accepted, stale, dropped)) => {
            out.outcomes_reported += accepted;
            out.outcomes_stale += stale;
            out.outcomes_dropped += dropped;
        }
        Err(e) => out.error(1, client, &config.addr, &e),
    }
}

fn exponential(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() * mean
}

/// Send one group of arrivals as one frame and read back one result per
/// arrival. The frame follows the run's configuration, not the group's
/// size: `single` (an unbatched run) sends a `Place`, anything else a
/// `PlaceBatch`, a trailing group of one included.
fn place_frame(
    client: &mut Client,
    wire: &[WirePlacement],
    single: bool,
) -> Result<(u64, Vec<BatchPlaceResult>), ClientError> {
    if !single {
        return client.place_batch(wire);
    }
    let (game, resolution) = wire[0];
    match client.place(game, resolution) {
        Ok(placed) => {
            let result = BatchPlaceResult::Placed {
                session: placed.session,
                server: placed.server,
                predicted_fps: placed.predicted_fps,
            };
            Ok((placed.model_version, vec![result]))
        }
        // A rejection is still a delivered reply; it carries no version.
        Err(ClientError::Rejected { reason }) => {
            Ok((0, vec![BatchPlaceResult::Rejected { reason }]))
        }
        Err(e) => Err(e),
    }
}

fn run_thread(config: &LoadConfig, thread: usize, n_arrivals: u64) -> ThreadOutcome {
    let mut out = ThreadOutcome {
        latencies_us: Vec::with_capacity(n_arrivals as usize),
        ..ThreadOutcome::default()
    };
    let mut rng = rng_for(config.seed, &[LOAD_CTX, thread as u64]);
    let mut retry_rng = rng_for(config.seed, &[LOAD_CTX, thread as u64, RETRY_CTX]);
    let mut noise_rng = rng_for(config.seed, &[LOAD_CTX, thread as u64, NOISE_CTX]);
    let per_thread_rate = config.rate / config.connections.max(1) as f64;
    let paced = per_thread_rate.is_finite() && per_thread_rate > 0.0;
    let batch = config.batch.max(1) as u64;
    // Min-heap of (departure arrival-index, session id).
    let mut departures: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();

    let mut client = match Client::connect(&config.addr) {
        Ok(c) => c,
        Err(_) => {
            out.errors += n_arrivals;
            return out;
        }
    };
    let started = Instant::now();
    let mut next_at = Duration::ZERO;

    let mut i = 0u64;
    while i < n_arrivals {
        let group = batch.min(n_arrivals - i);
        // Draw the whole group *before* any I/O so the request sequence
        // stays a pure function of the seed even when calls fail.
        let mut wire: Vec<WirePlacement> = Vec::with_capacity(group as usize);
        let mut lifetimes: Vec<u64> = Vec::with_capacity(group as usize);
        for _ in 0..group {
            let game = config.games[rng.gen_range(0..config.games.len())];
            let resolution = config.resolutions[rng.gen_range(0..config.resolutions.len())];
            let lifetime = exponential(&mut rng, config.mean_session_arrivals)
                .ceil()
                .max(1.0) as u64;
            if paced {
                next_at += Duration::from_secs_f64(exponential(&mut rng, 1.0 / per_thread_rate));
            }
            wire.push((game, resolution));
            lifetimes.push(lifetime);
        }
        // A batch frame fires when its *last* arrival is due, and a paced
        // arrival is timed from that instant: when the driver runs behind
        // (a slow reply, its own departs) the backlog is charged to the
        // arrivals that waited in it, not dropped from the record.
        let due = paced.then(|| {
            if let Some(wait) = next_at.checked_sub(started.elapsed()) {
                std::thread::sleep(wait);
            }
            started + next_at
        });

        // Sessions whose lifetime elapsed depart before the new arrivals.
        while let Some(&Reverse((due, session))) = departures.peek() {
            if due > i {
                break;
            }
            departures.pop();
            match client.depart(session) {
                Ok(_) => out.departed += 1,
                Err(e) => out.error(1, &mut client, &config.addr, &e),
            }
        }

        // A pushback is answered by reconnecting after the daemon's hint
        // plus jitter drawn from `retry_rng` — a *separate* stream from the
        // arrival RNG, so the request sequence stays a pure function of the
        // seed however many pushbacks wire timing produces. The jitter
        // closure runs once per retry, the op closure once per attempt.
        let t0 = due.unwrap_or_else(Instant::now);
        let frame = client.call_with_retry(
            RetryPolicy::default(),
            &mut || {
                out.retries += 1;
                retry_rng.gen()
            },
            |c| {
                let result = place_frame(c, &wire, batch == 1);
                if matches!(result, Err(ClientError::Overloaded { .. })) {
                    out.overloaded += 1;
                }
                result
            },
        );
        match frame {
            Ok((version, results)) => {
                // One latency sample per frame, not per arrival.
                out.latencies_us.push(t0.elapsed().as_micros() as u64);
                let mut reports: Vec<OutcomeReport> = Vec::new();
                for (k, result) in results.iter().enumerate() {
                    let (session, predicted_fps) = match *result {
                        BatchPlaceResult::Placed {
                            session,
                            predicted_fps,
                            ..
                        } => (session, predicted_fps),
                        BatchPlaceResult::Rejected { .. } => {
                            out.rejected += 1;
                            continue;
                        }
                    };
                    out.placed += 1;
                    out.fps_sum += predicted_fps;
                    if predicted_fps < config.qos {
                        out.violations += 1;
                    }
                    departures.push(Reverse((i + k as u64 + lifetimes[k], session)));
                    if config.report_outcomes {
                        reports.push(OutcomeReport {
                            session,
                            observed_fps: observe_fps(&mut noise_rng, config, predicted_fps),
                            predicted_fps,
                            model_version: version,
                        });
                    }
                }
                send_reports(&mut client, config, &reports, &mut out);
                out.errors += group.saturating_sub(results.len() as u64);
            }
            Err(e) => out.error(group, &mut client, &config.addr, &e),
        }
        i += group;
    }

    // Drain: everything this thread placed departs before it reports, so
    // daemon-side active_sessions reconciles to zero after a full run.
    while let Some(Reverse((_, session))) = departures.pop() {
        match client.depart(session) {
            Ok(_) => out.departed += 1,
            Err(e) => out.error(1, &mut client, &config.addr, &e),
        }
    }
    out
}

/// Run the driver against a live daemon and aggregate a [`LoadReport`].
pub fn run(config: &LoadConfig) -> LoadReport {
    assert!(!config.games.is_empty(), "need at least one game");
    assert!(
        !config.resolutions.is_empty(),
        "need at least one resolution"
    );
    let threads = config.connections.max(1);
    let base = config.requests / threads as u64;
    let remainder = config.requests % threads as u64;

    let started = Instant::now();
    let outcomes: Vec<ThreadOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let n = base + u64::from((t as u64) < remainder);
                scope.spawn(move || run_thread(config, t, n))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);

    let mut report = LoadReport::default();
    let mut latencies: Vec<u64> = Vec::new();
    let mut violations = 0u64;
    let mut fps_sum = 0.0;
    for o in outcomes {
        report.placed += o.placed;
        report.rejected += o.rejected;
        report.overloaded += o.overloaded;
        report.retries += o.retries;
        report.departed += o.departed;
        report.errors += o.errors;
        report.outcomes_reported += o.outcomes_reported;
        report.outcomes_stale += o.outcomes_stale;
        report.outcomes_dropped += o.outcomes_dropped;
        fps_sum += o.fps_sum;
        violations += o.violations;
        latencies.extend(o.latencies_us);
    }
    report.mean_predicted_fps = if report.placed > 0 {
        fps_sum / report.placed as f64
    } else {
        0.0
    };
    report.violation_rate = if report.placed > 0 {
        violations as f64 / report.placed as f64
    } else {
        0.0
    };
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * latencies.len() as f64).ceil().max(1.0) as usize;
        latencies[rank.min(latencies.len()) - 1]
    };
    report.p50_us = pct(50.0);
    report.p95_us = pct(95.0);
    report.p99_us = pct(99.0);
    report.max_us = latencies.last().copied().unwrap_or(0);
    report.achieved_rps = (report.placed + report.rejected) as f64 / elapsed;

    if config.verify_trace || config.expect_shards.is_some() {
        // The run has drained: every driver connection is closed, so the
        // daemon is quiesced and the stage-accounting and shard-conservation
        // invariants must hold exactly. (The scrape's own Stats request is
        // excluded from its own snapshot on both the per-op and per-stage
        // side, so it does not skew the checks.)
        match Client::connect(&config.addr).and_then(|mut c| c.stats()) {
            Ok(snap) => {
                if config.verify_trace {
                    report.traced_requests = snap.per_request.values().map(|r| r.total()).sum();
                    report.trace_violation = crate::trace::verify_stage_accounting(&snap).err();
                }
                if let Some(want) = config.expect_shards {
                    report.shards_seen = snap.shards;
                    report.shard_violation = verify_shard_layout(&snap, want).err();
                }
            }
            Err(e) => {
                let msg = format!("stats scrape failed: {e}");
                if config.verify_trace {
                    report.trace_violation = Some(msg.clone());
                }
                if config.expect_shards.is_some() {
                    report.shard_violation = Some(msg);
                }
            }
        }
    }
    if let Some(want) = config.expect_slo {
        match Client::connect(&config.addr).and_then(|mut c| c.slo_status()) {
            Ok(slo) => {
                report.slo_state = Some(slo.state);
                if slo.state < want {
                    report.slo_violation = Some(format!(
                        "fleet alert state {} never reached {want}",
                        slo.state
                    ));
                }
            }
            Err(e) => report.slo_violation = Some(format!("slo scrape failed: {e}")),
        }
    }
    report
}

/// The shard check behind [`LoadConfig::expect_shards`] and the chaos
/// suite's per-shard conservation oracle: the daemon must report exactly
/// the expected number of placement shards, one per-shard counter per
/// shard, per-shard active counts summing to the global count, and zero
/// misrouted sessions. Only meaningful at quiesce points — between them a
/// placement may land on one shard after another was already read into
/// the snapshot.
pub(crate) fn verify_shard_layout(
    snap: &crate::stats::StatsSnapshot,
    want: usize,
) -> Result<(), String> {
    if snap.shards != want {
        return Err(format!(
            "daemon reports {} placement shards, expected {want}",
            snap.shards
        ));
    }
    if snap.shard_active_sessions.len() != snap.shards {
        return Err(format!(
            "{} per-shard counters for {} shards",
            snap.shard_active_sessions.len(),
            snap.shards
        ));
    }
    let sum: u64 = snap.shard_active_sessions.iter().sum();
    if sum != snap.active_sessions {
        return Err(format!(
            "per-shard active sessions sum to {sum}, global count says {}",
            snap.active_sessions
        ));
    }
    if snap.shard_misrouted_sessions != 0 {
        return Err(format!(
            "{} sessions live in a shard their id does not route to",
            snap.shard_misrouted_sessions
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_streams_are_deterministic() {
        let config = LoadConfig::default();
        let mut a = rng_for(config.seed, &[LOAD_CTX, 0]);
        let mut b = rng_for(config.seed, &[LOAD_CTX, 0]);
        for _ in 0..100 {
            assert_eq!(
                a.gen_range(0..config.games.len()),
                b.gen_range(0..config.games.len())
            );
        }
        // Different threads draw different streams.
        let mut c = rng_for(config.seed, &[LOAD_CTX, 1]);
        let same = (0..100).all(|_| {
            let mut a = rng_for(config.seed, &[LOAD_CTX, 0]);
            a.gen_range(0..1000) == c.gen_range(0..1000)
        });
        assert!(!same);
    }

    #[test]
    fn retry_jitter_uses_a_separate_stream() {
        // Retry sleeps must not consume arrival-stream randomness, or wire
        // timing would change which games arrive.
        let config = LoadConfig::default();
        let mut arrivals = rng_for(config.seed, &[LOAD_CTX, 0]);
        let mut retry = rng_for(config.seed, &[LOAD_CTX, 0, RETRY_CTX]);
        let same = (0..100).all(|_| arrivals.gen::<u64>() == retry.gen::<u64>());
        assert!(!same);
    }

    #[test]
    fn observation_noise_uses_a_separate_stream_and_respects_drift() {
        // Enabling outcome reports must not perturb the arrival sequence.
        let config = LoadConfig::default();
        let mut arrivals = rng_for(config.seed, &[LOAD_CTX, 0]);
        let mut noise = rng_for(config.seed, &[LOAD_CTX, 0, NOISE_CTX]);
        let same = (0..100).all(|_| arrivals.gen::<u64>() == noise.gen::<u64>());
        assert!(!same);

        // Observations track predicted × drift within the noise envelope.
        let mut config = LoadConfig {
            drift: 0.8,
            observe_noise: 0.05,
            ..LoadConfig::default()
        };
        let mut rng = rng_for(config.seed, &[LOAD_CTX, 0, NOISE_CTX]);
        for _ in 0..200 {
            let obs = observe_fps(&mut rng, &config, 100.0);
            assert!((76.0..=84.0).contains(&obs), "{obs}");
        }
        // Zero noise is exact.
        config.observe_noise = 0.0;
        assert_eq!(observe_fps(&mut rng, &config, 50.0), 40.0);
    }

    /// A fake daemon that accepts `connections` connections, sheds the
    /// first `shed` with `Overloaded` as the real acceptor does, and serves
    /// the rest until they close: each `Place` gets a fresh session, each
    /// `Depart` its server.
    fn shedding_daemon(shed: usize, connections: usize) -> (String, std::thread::JoinHandle<()>) {
        use crate::wire::{read_frame, write_frame, Request, Response};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut sessions = 0;
            for (i, stream) in listener.incoming().take(connections).enumerate() {
                let mut stream = stream.unwrap();
                while let Ok(request) = read_frame::<_, Request>(&mut stream) {
                    let reply = match request {
                        _ if i < shed => Response::Overloaded { retry_after_ms: 1 },
                        Request::Place { .. } => {
                            sessions += 1;
                            Response::Placed {
                                session: sessions,
                                server: 0,
                                predicted_fps: 60.0,
                                model_version: 1,
                            }
                        }
                        Request::Depart { session } => Response::Departed { session, server: 0 },
                        other => panic!("the fake daemon does not serve {other:?}"),
                    };
                    write_frame(&mut stream, &reply).unwrap();
                    if i < shed {
                        break;
                    }
                }
            }
        });
        (addr, server)
    }

    #[test]
    fn pushbacks_and_retries_are_counted_per_arrival() {
        let drive = |shed, connections, requests| {
            let (addr, server) = shedding_daemon(shed, connections);
            let report = run(&LoadConfig {
                addr,
                connections: 1,
                requests,
                ..LoadConfig::default()
            });
            server.join().unwrap();
            report
        };
        // Two pushbacks, two retries, then the third connection places
        // both arrivals and departs them.
        let r = drive(2, 3, 2);
        assert_eq!((r.overloaded, r.retries, r.errors, r.placed), (2, 2, 0, 2));
        assert_eq!(r.departed, 2);
        // Five pushbacks exhaust the default policy's four retries: the
        // last pushback is an error, not a retry.
        let r = drive(5, 5, 1);
        assert_eq!((r.overloaded, r.retries, r.errors, r.placed), (5, 4, 1, 0));
    }

    #[test]
    fn exponential_has_roughly_the_requested_mean() {
        let mut rng = rng_for(1, &[LOAD_CTX, 99]);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, 8.0)).sum::<f64>() / n as f64;
        assert!((mean - 8.0).abs() < 0.5, "mean {mean}");
    }
}
