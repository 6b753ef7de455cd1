//! Seeded chaos scenarios against a live daemon, with invariant oracles.
//!
//! A scenario is a pure function of its seed: one ChaCha8 stream
//! (`rng_for(seed, [CHAOS_CTX])`) generates the operation mix, a second
//! (the [`FaultInjector`]'s, seeded from the same scenario seed) decides
//! which operations get faulted and how. The chaos client is strictly
//! sequential and only `Place`/`PlaceBatch` replies consult the injector on
//! the daemon side, so the interleaving of fault decisions — and therefore
//! every byte on the wire — is reproducible from the seed alone.
//!
//! After the run, five oracle families check the daemon never lied:
//!
//! 1. **Stats conservation** — every admitted placement was either
//!    confirmed to the client or rolled back
//!    (`placements_admitted == confirmed + placements_rolled_back`), every
//!    malformed frame was one the client deliberately poisoned, and every
//!    connection the runner opened was eventually closed.
//! 2. **No leaked placements** — after the drain, `active_sessions == 0`:
//!    a client that died mid-request must not leave sessions in the fleet.
//! 3. **Monotone model version** — the version observed across replies
//!    never decreases, and the final version is exactly
//!    `1 + successful reloads + successful retrains`.
//! 4. **Byte-identical replay** — the surviving operations, replayed
//!    against a fresh fault-free daemon, make bit-for-bit the same
//!    decisions (server choice, predicted-FPS bits, degradation bits), and
//!    the flight recorder's deterministic dumps of the two runs are
//!    byte-identical. Both runs read every decision reply through one
//!    decoder (`Sessions::decode`), so the comparison is `==` on the
//!    recorded ops. This is the strongest oracle: it holds only because
//!    lost placements are rolled back to a *bit-exact* pre-admit state
//!    (occupancy and score-cache sums), making every fault a net no-op.
//! 5. **Per-shard conservation** — the daemon under chaos runs *two*
//!    placement shards (single worker, so runs stay strictly sequential
//!    and seed-pure); at both quiesce points (post-drain, post-shutdown)
//!    the daemon must report both shards, the per-shard active counts must
//!    sum to the global count and every session id must route to exactly
//!    the shard that holds it (the check `gaugur load --shards` runs).
//!
//! Reproducing a failure locally: `gaugur chaos --seed <N>` re-runs the
//! scenario with the identical fault schedule and prints the report.

use crate::client::{Client, ClientError};
use crate::daemon::{self, DaemonConfig};
use crate::fault::{FaultAction, FaultEvent, FaultInjector, FaultPlan, InjectionPoint};
use crate::feedback::FeedbackConfig;
use crate::load::verify_shard_layout;
use crate::model::ModelHandle;
use crate::stats::StatsSnapshot;
use crate::wire::{
    encode_frame, read_frame, request_kind, BatchPlaceResult, OutcomeReport, Request, Response,
    WirePlacement,
};
use gaugur_gamesim::rng::rng_for;
use gaugur_gamesim::{GameId, Resolution};
use rand::Rng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RNG context tag for the operation stream (distinct from the fault
/// stream's [`crate::fault::FAULT_CTX`]).
pub const CHAOS_CTX: u64 = 0x4348_414F; // "CHAO"

/// Configuration of one chaos scenario.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Scenario seed; drives both the operation mix and the fault schedule.
    pub seed: u64,
    /// Operations to issue (each is a place, batch, depart, predict or
    /// reload drawn from the op stream).
    pub ops: u64,
    /// Fleet size of the daemon under test.
    pub n_servers: usize,
    /// Games to draw operations from (must all be known to the model).
    pub games: Vec<GameId>,
    /// Resolutions to draw operations from.
    pub resolutions: Vec<Resolution>,
    /// Path to the saved model artifact the daemon loads (and reloads).
    pub artifact: PathBuf,
    /// QoS floor for the daemon and for `Predict` operations.
    pub qos: f64,
    /// Fault probabilities; `plan.seed` is overridden with the scenario
    /// seed so one number reproduces everything.
    pub plan: FaultPlan,
    /// Daemon read deadline. Kept short: every `StalledFrame` fault costs
    /// one full deadline of wall time.
    pub read_timeout: Duration,
}

impl ChaosConfig {
    /// A scenario over `games` with the default chaos mix.
    pub fn for_seed(seed: u64, artifact: PathBuf, games: Vec<GameId>) -> ChaosConfig {
        ChaosConfig {
            seed,
            ops: 40,
            n_servers: 6,
            games,
            resolutions: vec![Resolution::Hd720, Resolution::Fhd1080],
            artifact,
            qos: 60.0,
            plan: FaultPlan::chaos(seed),
            read_timeout: Duration::from_millis(400),
        }
    }
}

/// What one scenario observed and whether its oracles held.
#[derive(Debug, Clone, Default)]
pub struct ScenarioReport {
    /// The scenario seed.
    pub seed: u64,
    /// Full fault-decision log, in order (identical across re-runs of the
    /// same seed).
    pub events: Vec<FaultEvent>,
    /// Placements whose reply reached the client (batch items count
    /// individually).
    pub confirmed: u64,
    /// Placement attempts the policy rejected (reply delivered).
    pub rejected: u64,
    /// Operations whose request never reached the daemon's handler
    /// (dropped, torn, stalled, corrupted or oversized on the way in).
    pub lost_requests: u64,
    /// Placement operations the daemon applied and then rolled back
    /// because the reply could not be delivered.
    pub lost_replies: u64,
    /// Successful model reloads.
    pub reloads_ok: u64,
    /// Reloads the injector pointed at a nonexistent artifact.
    pub reloads_failed: u64,
    /// Background retrains that completed and published a new version.
    pub retrains_ok: u64,
    /// Background retrains the injector forced to fail (unsatisfiable
    /// sample floor); these must never bump the model version.
    pub retrains_failed: u64,
    /// Outcome reports the daemon accepted.
    pub outcomes_accepted: u64,
    /// Outcome reports the daemon dropped (bogus session ids the scenario
    /// sent deliberately).
    pub outcomes_dropped: u64,
    /// Operations replayed against the fault-free daemon.
    pub replayed: u64,
    /// Hash of every decision (servers, FPS bits, degradation bits) made
    /// during the faulted run; excludes all wall-clock measurements.
    pub decision_digest: u64,
    /// Daemon stats after drain and shutdown.
    pub final_stats: StatsSnapshot,
    /// Deterministic flight-recorder dump (JSONL) from the faulted run —
    /// admit/depart events with all wall-clock and identity noise struck.
    /// `run_scenario` demands it byte-identical with the fault-free
    /// replay's dump; a mismatch is an oracle violation.
    pub recorder_dump: String,
    /// Oracle violations; empty means the scenario passed.
    pub violations: Vec<String>,
}

impl ScenarioReport {
    /// Whether every oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic digest of everything seed-determined in the report:
    /// the fault schedule, the outcome counters, every decision bit and the
    /// deterministic subset of the final stats. Two runs of the same seed
    /// produce equal digests; wall-clock fields (latencies, uptime) are
    /// excluded.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.seed.hash(&mut h);
        for e in &self.events {
            format!("{e:?}").hash(&mut h);
        }
        (
            self.confirmed,
            self.rejected,
            self.lost_requests,
            self.lost_replies,
            self.reloads_ok,
            self.reloads_failed,
            self.retrains_ok,
            self.retrains_failed,
            self.outcomes_accepted,
            self.outcomes_dropped,
            self.replayed,
            self.decision_digest,
        )
            .hash(&mut h);
        self.recorder_dump.hash(&mut h);
        for v in &self.violations {
            v.hash(&mut h);
        }
        let s = &self.final_stats;
        (
            s.model_version,
            s.active_sessions,
            s.connections_accepted,
            s.connections_closed,
            s.overloaded_rejections,
            s.shutdown_rejections,
            s.malformed_frames,
            s.placements_admitted,
            s.placements_rolled_back,
        )
            .hash(&mut h);
        (
            s.feedback_accepted,
            s.feedback_stale,
            s.feedback_dropped,
            s.feedback_buffered,
            s.feedback_evicted,
            s.retrains_ok,
            s.retrains_failed,
        )
            .hash(&mut h);
        h.finish()
    }
}

impl std::fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {:>4}  {}  confirmed {:>3}  rejected {:>2}  lost req/reply {:>2}/{:>2}  \
             reloads {}+{}f  retrains {}+{}f  outcomes {}/{}d  replayed {:>3}  digest {:016x}",
            self.seed,
            if self.passed() { "PASS" } else { "FAIL" },
            self.confirmed,
            self.rejected,
            self.lost_requests,
            self.lost_replies,
            self.reloads_ok,
            self.reloads_failed,
            self.retrains_ok,
            self.retrains_failed,
            self.outcomes_accepted,
            self.outcomes_dropped,
            self.replayed,
            self.digest(),
        )?;
        for v in &self.violations {
            write!(f, "\n  violation: {v}")?;
        }
        Ok(())
    }
}

/// What a confirmed placement decision looked like on the wire. FPS is kept
/// as raw bits: the replay oracle demands bit-identity, not closeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlaceOutcome {
    Placed {
        logical: u64,
        server: usize,
        fps: u64,
    },
    Rejected,
}

/// One delivered operation, recorded for the fault-free replay. Its `Debug`
/// form is what `decision_digest` hashes.
#[derive(Debug, Clone, PartialEq)]
enum TraceOp {
    Place {
        game: GameId,
        resolution: Resolution,
        outcome: PlaceOutcome,
    },
    Batch {
        reqs: Vec<WirePlacement>,
        outcomes: Vec<PlaceOutcome>,
    },
    Depart {
        logical: u64,
        server: usize,
    },
    Predict {
        game: GameId,
        resolution: Resolution,
        others: Vec<WirePlacement>,
        feasible: bool,
        degradation: u64,
        fps: u64,
    },
}

/// The sessions a run has confirmed, numbered by logical id in the order
/// their confirmations arrive. Wire session ids are not comparable across
/// runs (rolled-back admissions consume them); logical ids are.
#[derive(Default)]
struct Sessions {
    /// Live sessions as (logical id, wire session id, predicted-fps bits);
    /// the fps bits seed deterministic outcome reports.
    live: Vec<(u64, u64, u64)>,
    next_logical: u64,
}

impl Sessions {
    /// The one reply decoder: turn a delivered `(request, reply)` pair into
    /// the op the trace records, plus the model version the reply carries.
    /// The faulted run, its drain and the replay all read replies through
    /// here, so the replay oracle is `==` on recorded ops. A confirmed
    /// placement joins `live` under the next logical id; a departed session
    /// leaves it.
    fn decode(
        &mut self,
        request: &Request,
        response: Response,
    ) -> Result<(TraceOp, Option<u64>), String> {
        let mut confirm = |session: u64, server: usize, fps: f64| {
            let (logical, fps) = (self.next_logical, fps.to_bits());
            self.next_logical += 1;
            self.live.push((logical, session, fps));
            PlaceOutcome::Placed {
                logical,
                server,
                fps,
            }
        };
        match (request, response) {
            (
                &Request::Place { game, resolution },
                Response::Placed {
                    session,
                    server,
                    predicted_fps,
                    model_version,
                },
            ) => {
                let outcome = confirm(session, server, predicted_fps);
                let op = TraceOp::Place {
                    game,
                    resolution,
                    outcome,
                };
                Ok((op, Some(model_version)))
            }
            (&Request::Place { game, resolution }, Response::Rejected { .. }) => {
                let outcome = PlaceOutcome::Rejected;
                let op = TraceOp::Place {
                    game,
                    resolution,
                    outcome,
                };
                Ok((op, None))
            }
            (
                Request::PlaceBatch { requests },
                Response::PlacedBatch {
                    model_version,
                    results,
                },
            ) => {
                let outcomes = results
                    .into_iter()
                    .map(|result| match result {
                        BatchPlaceResult::Placed {
                            session,
                            server,
                            predicted_fps,
                        } => confirm(session, server, predicted_fps),
                        BatchPlaceResult::Rejected { .. } => PlaceOutcome::Rejected,
                    })
                    .collect();
                let reqs = requests.clone();
                Ok((TraceOp::Batch { reqs, outcomes }, Some(model_version)))
            }
            (&Request::Depart { session }, Response::Departed { server, .. }) => {
                let idx = self
                    .live
                    .iter()
                    .position(|&(_, wire, _)| wire == session)
                    .ok_or_else(|| format!("departed session {session} was never confirmed"))?;
                let (logical, ..) = self.live.swap_remove(idx);
                Ok((TraceOp::Depart { logical, server }, None))
            }
            (
                Request::Predict {
                    game,
                    resolution,
                    others,
                    ..
                },
                Response::Prediction {
                    feasible,
                    degradation,
                    fps,
                    model_version,
                    ..
                },
            ) => {
                let op = TraceOp::Predict {
                    game: *game,
                    resolution: *resolution,
                    others: others.clone(),
                    feasible,
                    degradation: degradation.to_bits(),
                    fps: fps.to_bits(),
                };
                Ok((op, Some(model_version)))
            }
            (request, other) => Err(format!("{} answered {other:?}", request_kind(request))),
        }
    }
}

/// A failed clean round trip: the harness, not the scenario, broke.
fn call_failed(e: ClientError) -> String {
    format!("harness call failed: {e}")
}

/// A client with the harness's 10 s read timeout, so a daemon that stops
/// answering fails the scenario instead of hanging it.
fn connect(addr: SocketAddr) -> Result<Client, String> {
    let client = Client::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .map_err(call_failed)?;
    Ok(client)
}

/// The sequential chaos client: one data connection at a time, request-side
/// fault injection before every operation, and a stats-based quiesce after
/// every reconnect so a dead connection's rollback lands before the next
/// operation reads fleet state.
struct Runner {
    client: Client,
    injector: Arc<FaultInjector>,
    max_frame_len: usize,
    connects: u64,
    corrupt_sent: u64,
    oversized_sent: u64,
}

impl Runner {
    /// Open a fresh data connection and wait until the daemon has finished
    /// with every previous one. The wait is what makes reply-loss rollbacks
    /// *happen-before* the next operation — without it, a racing worker
    /// could still hold a doomed session while the next placement decides,
    /// and determinism (and the replay oracle) would be lost.
    fn reconnect(&mut self) -> Result<(), String> {
        self.client = connect(self.client.peer_addr())?;
        self.connects += 1;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snapshot = self.client.stats().map_err(call_failed)?;
            if snapshot.connections_closed + 1 >= self.connects {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "quiesce timeout: {} of {} prior connections closed",
                    snapshot.connections_closed,
                    self.connects - 1
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Write part of a frame and flush; the daemon sees whatever arrives.
    fn write_part(&mut self, bytes: &[u8]) {
        let stream = self.client.stream();
        let _ = stream.write_all(bytes);
        let _ = stream.flush();
    }

    /// Read until the daemon closes the connection (used after stalled and
    /// oversized frames, where the daemon must cut the link).
    fn wait_for_close(&mut self) -> Result<(), String> {
        let mut buf = [0u8; 256];
        loop {
            match self.client.stream().read(&mut buf) {
                Ok(0) => return Ok(()),
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err("daemon did not close a dead connection in time".into());
                }
                Err(_) => return Ok(()),
            }
        }
    }

    /// Issue one operation with request-side fault injection. Returns the
    /// reply, or `None` for a lost operation, counted in `run`: either the
    /// daemon never parsed the request (a guaranteed net no-op), or it
    /// handled a placement whose reply died (and must have rolled it back).
    /// The daemon faults only placement replies; reply loss on any other
    /// operation is an oracle violation, not a tolerated fault.
    fn send_op(
        &mut self,
        request: &Request,
        run: &mut ScenarioReport,
    ) -> Result<Option<Response>, String> {
        let frame = || encode_frame(request).expect("requests serialize");
        let action = self.injector.decide(InjectionPoint::Request);
        match action {
            FaultAction::DropConnection | FaultAction::TornFrame => {
                if action == FaultAction::TornFrame {
                    let frame = frame();
                    self.write_part(&frame[..frame.len() / 2]);
                }
                let _ = self.client.stream().shutdown(std::net::Shutdown::Both);
            }
            FaultAction::StalledFrame => {
                // Header plus half the payload, then silence: only the
                // daemon's read deadline can end this connection.
                let frame = frame();
                self.write_part(&frame[..4 + (frame.len() - 4) / 2]);
                self.wait_for_close()?;
            }
            FaultAction::OversizedFrame => {
                // A header declaring one byte more than the daemon's cap;
                // it must answer a typed error *without allocating* and
                // close, because resync after a length violation is
                // impossible.
                self.write_part(&((self.max_frame_len + 1) as u32).to_be_bytes());
                self.oversized_sent += 1;
                match read_frame(self.client.stream()) {
                    Ok(Response::Error { .. }) => self.wait_for_close()?,
                    other => return Err(format!("oversized frame answered {other:?}, want Error")),
                }
            }
            FaultAction::CorruptFrame => {
                // Correct length, poisoned payload: the stream stays
                // framed, so the daemon must answer an error and *keep*
                // the connection.
                let mut frame = frame();
                frame[4] = 0xFF;
                self.write_part(&frame);
                self.corrupt_sent += 1;
                match read_frame(self.client.stream()) {
                    Ok(Response::Error { .. }) => run.lost_requests += 1,
                    other => return Err(format!("corrupt frame answered {other:?}, want Error")),
                }
                return Ok(None);
            }
            _ => match self.client.call(request) {
                Ok(response) => return Ok(Some(response)),
                Err(e) if e.is_ambiguous() => {
                    if !matches!(request, Request::Place { .. } | Request::PlaceBatch { .. }) {
                        return Err(format!("reply lost on a non-placement op ({request:?})"));
                    }
                    self.reconnect()?;
                    run.lost_replies += 1;
                    return Ok(None);
                }
                Err(e) => return Err(format!("reply decode failed: {e}")),
            },
        }
        self.reconnect()?;
        run.lost_requests += 1;
        Ok(None)
    }
}

/// Record a model version observed on the wire, checking monotonicity.
fn note_version(latest: &mut u64, v: u64, violations: &mut Vec<String>) {
    if v < *latest {
        violations.push(format!("model version rolled back: {latest} -> {v}"));
    }
    *latest = v;
}

/// The daemon a scenario runs against, faulted (`fault: Some`) or for the
/// replay (`None`). Replay demands bit-identical decisions, so both runs
/// build their daemon here and differ in the injector alone.
fn daemon_config(config: &ChaosConfig, fault: Option<Arc<FaultInjector>>) -> DaemonConfig {
    DaemonConfig {
        bind: "127.0.0.1:0".into(),
        n_servers: config.n_servers,
        // One worker and two shards: the sequential runner keeps at most
        // one request in flight, so the admit path never races (its epoch
        // checks always pass) and every decision stays seed-pure — while
        // the shard routing, id interleaving and per-shard rollback paths
        // are all exercised under fault injection.
        workers: 1,
        shards: 2,
        queue_capacity: 64,
        read_timeout: config.read_timeout,
        max_frame_len: 1024,
        qos: config.qos,
        print_stats_on_shutdown: false,
        fault,
        // Retrains fire only through explicit TriggerRetrain ops, decided
        // client-side on the fault stream — a drift-tripped auto-retrain
        // would fire at a wall-clock-dependent point and break determinism.
        feedback: FeedbackConfig {
            auto_retrain: false,
            min_retrain_samples: 1,
            ..FeedbackConfig::default()
        },
        ..Default::default()
    }
}

/// The oracles both quiesce points (post-drain, post-shutdown) share: no
/// session left, every request stage reconciled, the shard layout intact.
fn check_quiesced(snap: &StatsSnapshot, shards: usize, when: &str, violations: &mut Vec<String>) {
    let active = snap.active_sessions;
    if active != 0 {
        violations.push(format!("leaked placements ({when}): {active} active"));
    }
    // Per-stage tracing must reconcile exactly even under injected faults:
    // every handled request — including those whose replies were dropped,
    // torn, or stalled — holds exactly one sample in each request stage.
    if let Err(v) = crate::trace::verify_stage_accounting(snap) {
        violations.push(format!("stage accounting ({when}): {v}"));
    }
    if let Err(v) = verify_shard_layout(snap, shards) {
        violations.push(format!("shard conservation ({when}): {v}"));
    }
}

/// Drive the op mix against the daemon with fault injection, drain, run
/// the stats oracles, and shut the daemon down. Counts and oracle
/// violations land in `run`; the delivered operations come back for the
/// replay.
fn faulted_run(
    config: &ChaosConfig,
    injector: Arc<FaultInjector>,
    run: &mut ScenarioReport,
) -> Result<Vec<TraceOp>, String> {
    let model = ModelHandle::load(&config.artifact)
        .map_err(|e| format!("loading {} failed: {e}", config.artifact.display()))?;
    let daemon_config = daemon_config(config, Some(injector.clone()));
    let (max_frame_len, shards) = (daemon_config.max_frame_len, daemon_config.shards);
    let handle = daemon::start(daemon_config, model).map_err(|e| format!("start failed: {e}"))?;
    let mut runner = Runner {
        client: connect(handle.local_addr())?,
        injector,
        max_frame_len,
        connects: 1,
        corrupt_sent: 0,
        oversized_sent: 0,
    };

    let mut op_rng = rng_for(config.seed, &[CHAOS_CTX]);
    let mut violations: Vec<String> = Vec::new();
    let mut trace: Vec<TraceOp> = Vec::new();
    let mut sessions = Sessions::default();
    // The latest model version a reply carried (the daemon starts at 1).
    let mut latest = 1u64;

    let draw_placement = |rng: &mut rand_chacha::ChaCha8Rng| {
        let game = config.games[rng.gen_range(0..config.games.len())];
        let resolution = config.resolutions[rng.gen_range(0..config.resolutions.len())];
        (game, resolution)
    };

    for _ in 0..config.ops {
        let roll: f64 = op_rng.gen();
        // Places, batches, departs and predicts are decisions: each arm
        // builds its request, and the reply goes through the decoder below.
        // Reports, retrains and reloads are settled in their own arms.
        let (request, depart_idx) = if roll < 0.34 {
            let (game, resolution) = draw_placement(&mut op_rng);
            (Request::Place { game, resolution }, None)
        } else if roll < 0.48 {
            let n = op_rng.gen_range(2..=3usize);
            let requests = (0..n).map(|_| draw_placement(&mut op_rng)).collect();
            (Request::PlaceBatch { requests }, None)
        } else if roll < 0.62 && !sessions.live.is_empty() {
            // Depart a random live session. The emptiness check is
            // seed-deterministic (live contents are a function of the fault
            // schedule), so the draw sequence stays reproducible.
            let idx = op_rng.gen_range(0..sessions.live.len());
            let session = sessions.live[idx].1;
            (Request::Depart { session }, Some(idx))
        } else if roll < 0.74 {
            // Predict against 0–2 co-runners.
            let (game, resolution) = draw_placement(&mut op_rng);
            let n_others = op_rng.gen_range(0..=2usize);
            let others = (0..n_others).map(|_| draw_placement(&mut op_rng)).collect();
            let qos = config.qos;
            let request = Request::Predict {
                game,
                resolution,
                others,
                qos,
            };
            (request, None)
        } else if roll < 0.86 && !sessions.live.is_empty() {
            // Report observed FPS for 1–2 live sessions. Reports are pure
            // bookkeeping for the feedback buffer (chaos retrains append
            // zero trees, so the published model never changes), which is
            // why they stay out of the replay trace. A slice of reports
            // targets a bogus session id on purpose to exercise the
            // dropped path.
            let live = &sessions.live;
            let n = op_rng.gen_range(1..=2usize).min(live.len());
            let mut reports = Vec::with_capacity(n);
            for _ in 0..n {
                let (_, session, fps) = live[op_rng.gen_range(0..live.len())];
                let bogus = op_rng.gen::<f64>() < 0.2;
                let predicted = f64::from_bits(fps);
                reports.push(OutcomeReport {
                    session: if bogus { u64::MAX } else { session },
                    observed_fps: predicted * op_rng.gen_range(0.7..1.1),
                    predicted_fps: predicted,
                    model_version: latest,
                });
            }
            let request = if reports.len() == 1 {
                Request::ReportOutcome {
                    report: reports.pop().expect("one report"),
                }
            } else {
                Request::ReportOutcomeBatch { reports }
            };
            match runner.send_op(&request, run)? {
                Some(Response::OutcomeRecorded {
                    accepted, dropped, ..
                }) => {
                    run.outcomes_accepted += accepted;
                    run.outcomes_dropped += dropped;
                }
                Some(other) => violations.push(format!("report_outcome answered {other:?}")),
                None => {}
            }
            continue;
        } else if roll < 0.93 {
            // Trigger a background retrain. The Retrain injection point
            // decides up front (client-side, so the daemon never draws on
            // the fault stream from its retrainer thread) whether this one
            // demands an unsatisfiable sample floor and fails. Successful
            // retrains append zero extra boosting rounds: the republished
            // model is bit-identical, so swap timing cannot perturb any
            // placement decision the replay will check.
            let fail = runner.injector.decide(InjectionPoint::Retrain) == FaultAction::FailRetrain;
            let before = runner.client.stats().map_err(call_failed)?;
            let expect_ok = !fail && before.feedback_buffered > 0;
            let min_samples = if fail { Some(u64::MAX) } else { None };
            let request = Request::TriggerRetrain {
                min_samples,
                extra_rounds: Some(0),
            };
            match runner.send_op(&request, run)? {
                Some(Response::RetrainQueued { queued: true }) => {
                    // The retrainer runs asynchronously; wait for this job
                    // to settle so the model version is deterministic
                    // before the next op. Stats polling is control-plane
                    // and never draws on the fault stream.
                    let target = before.retrains_ok + before.retrains_failed + 1;
                    let deadline = Instant::now() + Duration::from_secs(30);
                    let snap = loop {
                        let snap = runner.client.stats().map_err(call_failed)?;
                        if snap.retrains_ok + snap.retrains_failed >= target {
                            break snap;
                        }
                        if Instant::now() > deadline {
                            return Err("retrain did not settle within 30s".into());
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    };
                    if expect_ok {
                        if snap.retrains_ok == before.retrains_ok + 1 {
                            run.retrains_ok += 1;
                            note_version(&mut latest, snap.model_version, &mut violations);
                        } else {
                            violations.push(format!(
                                "retrain over {} buffered outcomes failed",
                                before.feedback_buffered
                            ));
                        }
                    } else {
                        if snap.retrains_failed == before.retrains_failed + 1 {
                            run.retrains_failed += 1;
                        } else {
                            violations.push(
                                "a retrain that cannot meet its sample floor succeeded".into(),
                            );
                        }
                        if snap.model_version != before.model_version {
                            violations.push(format!(
                                "failed retrain bumped the model version: v{} -> v{}",
                                before.model_version, snap.model_version
                            ));
                        }
                    }
                }
                Some(Response::RetrainQueued { queued: false }) => {
                    violations.push("daemon refused to queue a retrain".into());
                }
                Some(other) => violations.push(format!("trigger_retrain answered {other:?}")),
                None => {}
            }
            continue;
        } else {
            // Hot reload; the Reload injection point decides up front
            // whether this one targets a nonexistent artifact.
            let fail = runner.injector.decide(InjectionPoint::Reload) == FaultAction::FailReload;
            let path = fail.then(|| "/nonexistent/gaugur-chaos/model.json".to_string());
            match runner.send_op(&Request::ReloadModel { path }, run)? {
                Some(Response::Reloaded { version }) => {
                    if fail {
                        violations.push(format!(
                            "reload of a nonexistent artifact answered Reloaded v{version}"
                        ));
                    } else {
                        note_version(&mut latest, version, &mut violations);
                        run.reloads_ok += 1;
                    }
                }
                Some(Response::Error { message }) => {
                    if fail {
                        run.reloads_failed += 1;
                    } else {
                        violations.push(format!("clean reload answered Error: {message}"));
                    }
                }
                Some(other) => violations.push(format!("reload answered {other:?}")),
                None => {}
            }
            continue;
        };

        match runner.send_op(&request, run)? {
            Some(response) => match sessions.decode(&request, response) {
                Ok((op, carried)) => {
                    if let Some(v) = carried {
                        note_version(&mut latest, v, &mut violations);
                    }
                    let outcomes = match &op {
                        TraceOp::Place { outcome, .. } => std::slice::from_ref(outcome),
                        TraceOp::Batch { outcomes, .. } => outcomes,
                        _ => &[],
                    };
                    let rejected = outcomes.iter().filter(|&&o| o == PlaceOutcome::Rejected);
                    run.rejected += rejected.count() as u64;
                    trace.push(op);
                }
                Err(v) => violations.push(v),
            },
            None => {
                if let Some(idx) = depart_idx {
                    // A depart is lost only on the way in: the session is
                    // still live, now at the back, where later draws look.
                    let session = sessions.live.swap_remove(idx);
                    sessions.live.push(session);
                }
            }
        }
    }

    // Every confirmed placement took one logical id. Drain them all (no
    // injection: the drain is bookkeeping, not part of the scenario).
    run.confirmed = sessions.next_logical;
    while let Some(&(_, session, _)) = sessions.live.last() {
        let request = Request::Depart { session };
        let response = runner.client.call(&request).map_err(call_failed)?;
        match sessions.decode(&request, response) {
            Ok((op, _)) => trace.push(op),
            Err(v) => {
                sessions.live.pop();
                violations.push(format!("drain: {v}"));
            }
        }
    }

    // Stats oracles against the live daemon, post-drain.
    let snapshot = runner.client.stats().map_err(call_failed)?;
    if snapshot.placements_admitted != run.confirmed + snapshot.placements_rolled_back {
        violations.push(format!(
            "placement conservation broken: admitted {} != confirmed {} + rolled back {}",
            snapshot.placements_admitted, run.confirmed, snapshot.placements_rolled_back
        ));
    }
    if snapshot.malformed_frames != runner.corrupt_sent + runner.oversized_sent {
        violations.push(format!(
            "malformed accounting: daemon counted {}, client sent {} corrupt + {} oversized",
            snapshot.malformed_frames, runner.corrupt_sent, runner.oversized_sent
        ));
    }
    if snapshot.model_version != 1 + run.reloads_ok + run.retrains_ok {
        violations.push(format!(
            "version arithmetic: v{} after {} successful reloads + {} successful retrains \
             (want v{})",
            snapshot.model_version,
            run.reloads_ok,
            run.retrains_ok,
            1 + run.reloads_ok + run.retrains_ok
        ));
    }
    if snapshot.feedback_accepted != run.outcomes_accepted
        || snapshot.feedback_dropped != run.outcomes_dropped
    {
        violations.push(format!(
            "outcome accounting: daemon accepted {} / dropped {}, client was acked {} / {}",
            snapshot.feedback_accepted,
            snapshot.feedback_dropped,
            run.outcomes_accepted,
            run.outcomes_dropped
        ));
    }
    if snapshot.feedback_accepted != snapshot.feedback_buffered + snapshot.feedback_evicted {
        violations.push(format!(
            "feedback conservation broken: accepted {} != buffered {} + evicted {}",
            snapshot.feedback_accepted, snapshot.feedback_buffered, snapshot.feedback_evicted
        ));
    }
    if snapshot.retrains_ok != run.retrains_ok || snapshot.retrains_failed != run.retrains_failed {
        violations.push(format!(
            "retrain accounting: daemon counted {}ok/{}f, client observed {}ok/{}f",
            snapshot.retrains_ok, snapshot.retrains_failed, run.retrains_ok, run.retrains_failed
        ));
    }
    let connects = runner.connects;
    if snapshot.connections_accepted != connects {
        violations.push(format!(
            "accept accounting: daemon accepted {}, client connected {} times",
            snapshot.connections_accepted, connects
        ));
    }
    check_quiesced(&snapshot, shards, "post-drain", &mut violations);

    // Snapshot the flight recorder's deterministic view before shutdown.
    // `run_scenario` demands these bytes identical to the fault-free
    // replay's dump: admissions whose replies were lost were rolled back,
    // so they appear in neither.
    let (jsonl, _, truncated) = runner.client.dump_recorder(true).map_err(call_failed)?;
    if truncated {
        violations.push("recorder dump truncated: ring too small for the scenario".into());
    }
    run.recorder_dump = jsonl;

    // Graceful shutdown must finish in-flight work and close every
    // connection — including the runner's, dropped here.
    drop(runner);
    let final_stats = handle.shutdown();
    if final_stats.connections_closed != connects {
        violations.push(format!(
            "close accounting after shutdown: closed {}, accepted {}",
            final_stats.connections_closed, connects
        ));
    }
    check_quiesced(&final_stats, shards, "after shutdown", &mut violations);

    run.final_stats = final_stats;
    run.violations = violations;
    Ok(trace)
}

/// Replay the surviving operations against a fresh fault-free daemon and
/// demand bit-identical decisions. Lost operations were net no-ops (rolled
/// back or never parsed), so the fleet trajectories must coincide exactly:
/// each recorded op's request is rebuilt (departs mapped from logical to
/// this run's wire ids), sent, and its reply decoded by the faulted run's
/// own decoder into an op that must equal the recorded one. Returns
/// `(violations, deterministic recorder dump)`.
fn replay(config: &ChaosConfig, trace: &[TraceOp]) -> Result<(Vec<String>, String), String> {
    let model = ModelHandle::load(&config.artifact).map_err(|e| format!("replay load: {e}"))?;
    let daemon_config = daemon_config(config, None);
    let shards = daemon_config.shards;
    let handle =
        daemon::start(daemon_config, model).map_err(|e| format!("replay start failed: {e}"))?;
    let mut client = connect(handle.local_addr())?;
    let mut sessions = Sessions::default();
    let mut violations = Vec::new();

    for (i, recorded) in trace.iter().enumerate() {
        let request = match recorded {
            &TraceOp::Place {
                game, resolution, ..
            } => Request::Place { game, resolution },
            TraceOp::Batch { reqs, .. } => Request::PlaceBatch {
                requests: reqs.clone(),
            },
            TraceOp::Depart { logical, .. } => {
                match sessions.live.iter().find(|&&(l, ..)| l == *logical) {
                    Some(&(_, session, _)) => Request::Depart { session },
                    None => {
                        violations.push(format!("depart of unmapped logical session {logical}"));
                        continue;
                    }
                }
            }
            TraceOp::Predict {
                game,
                resolution,
                others,
                ..
            } => Request::Predict {
                game: *game,
                resolution: *resolution,
                others: others.clone(),
                qos: config.qos,
            },
        };
        let response = client.call(&request).map_err(call_failed)?;
        let (op, _) = sessions
            .decode(&request, response)
            .map_err(|e| format!("replay {e}"))?;
        if op != *recorded {
            violations.push(format!(
                "op {i} diverged: faulted run {recorded:?}, replay {op:?}"
            ));
        }
    }

    // The trace ends fully drained, so the replay daemon must be quiesced
    // exactly like the faulted one.
    let snapshot = client.stats().map_err(call_failed)?;
    check_quiesced(&snapshot, shards, "replay", &mut violations);
    let (dump, ..) = client.dump_recorder(true).map_err(call_failed)?;
    drop(client);
    handle.shutdown();
    Ok((violations, dump))
}

/// Run one seeded scenario end to end: faulted run, stats oracles, then the
/// byte-identical replay. Never panics on oracle violations — they come
/// back in the report.
pub fn run_scenario(config: &ChaosConfig) -> ScenarioReport {
    let mut plan = config.plan;
    plan.seed = config.seed;
    let injector = Arc::new(FaultInjector::new(plan));

    let mut report = ScenarioReport {
        seed: config.seed,
        ..ScenarioReport::default()
    };

    match faulted_run(config, injector.clone(), &mut report) {
        Ok(trace) => {
            let mut h = DefaultHasher::new();
            for op in &trace {
                format!("{op:?}").hash(&mut h);
            }
            report.decision_digest = h.finish();
            match replay(config, &trace) {
                Ok((mut replay_violations, replay_dump)) => {
                    report.replayed = trace.len() as u64;
                    report.violations.append(&mut replay_violations);
                    if replay_dump != report.recorder_dump {
                        report.violations.push(format!(
                            "recorder dump diverged: faulted run {} bytes, fault-free replay \
                             {} bytes",
                            report.recorder_dump.len(),
                            replay_dump.len()
                        ));
                    }
                }
                Err(e) => report.violations.push(format!("replay harness error: {e}")),
            }
        }
        Err(e) => report.violations.push(format!("harness error: {e}")),
    }
    report.events = injector.events();
    report
}

/// Run `scenarios` consecutive seeds starting at `base.seed`, returning one
/// report per seed.
pub fn run_suite(base: &ChaosConfig, scenarios: u64) -> Vec<ScenarioReport> {
    (0..scenarios)
        .map(|i| {
            let mut config = base.clone();
            config.seed = base.seed + i;
            run_scenario(&config)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugur_core::{ColocationPlan, GAugur, GAugurConfig};
    use gaugur_gamesim::{GameCatalog, Server};
    use std::sync::OnceLock;

    fn artifact() -> PathBuf {
        static PATH: OnceLock<PathBuf> = OnceLock::new();
        PATH.get_or_init(|| {
            let server = Server::reference(7);
            let catalog = GameCatalog::generate(42, 6);
            let config = GAugurConfig {
                plan: ColocationPlan {
                    pairs: 24,
                    triples: 6,
                    quads: 3,
                    seed: 3,
                },
                ..Default::default()
            };
            let model = GAugur::build(&server, &catalog, config);
            let dir =
                std::env::temp_dir().join(format!("gaugur-chaos-unit-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("model.json");
            model.save_json(&path).unwrap();
            path
        })
        .clone()
    }

    fn small_config(seed: u64) -> ChaosConfig {
        let mut config = ChaosConfig::for_seed(seed, artifact(), (0..6).map(GameId).collect());
        config.ops = 15;
        config
    }

    #[test]
    fn a_quiet_scenario_passes_every_oracle() {
        let mut config = small_config(11);
        config.plan = FaultPlan::quiet(11);
        let report = run_scenario(&config);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.lost_requests + report.lost_replies, 0);
        assert!(report.confirmed > 0, "quiet run placed nothing");
        assert!(report.replayed > 0, "nothing survived to replay");
    }

    #[test]
    fn the_replay_oracle_catches_one_changed_decision() {
        let mut config = small_config(11);
        config.plan = FaultPlan::quiet(11);
        let mut run = ScenarioReport::default();
        let injector = Arc::new(FaultInjector::new(config.plan));
        let trace = faulted_run(&config, injector, &mut run).expect("faulted run");
        assert!(run.passed(), "violations: {:?}", run.violations);
        let (violations, _) = replay(&config, &trace).expect("replay");
        assert!(violations.is_empty(), "unmodified trace: {violations:?}");

        // One bit of one recorded Place's predicted FPS: the replay makes
        // the true decision, so exactly that op must be reported.
        let mut tampered = trace.clone();
        let fps = tampered
            .iter_mut()
            .find_map(|op| match op {
                TraceOp::Place {
                    outcome: PlaceOutcome::Placed { fps, .. },
                    ..
                } => Some(fps),
                _ => None,
            })
            .expect("the quiet run confirms a single Place");
        *fps ^= 1;
        let (violations, _) = replay(&config, &tampered).expect("replay");
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("diverged"), "{violations:?}");
    }

    #[test]
    fn recorder_dump_is_nonempty_schema_valid_and_survives_faults() {
        // run_scenario itself byte-compares the faulted dump against the
        // fault-free replay's — a divergence would fail passed(). Here we
        // additionally check the dump carries real events and every line
        // is valid standalone JSON.
        let report = run_scenario(&small_config(23));
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(
            !report.recorder_dump.is_empty(),
            "a scenario with confirmed placements must record admits"
        );
        for line in report.recorder_dump.lines() {
            let parsed = serde_json::parse_value_str(line);
            assert!(parsed.is_ok(), "unparseable dump line: {line}");
            assert!(
                line.contains("\"kind\":\"admit\"") || line.contains("\"kind\":\"depart\""),
                "deterministic dump leaked a non-deterministic event: {line}"
            );
        }
    }

    #[test]
    fn the_same_seed_reproduces_events_and_digest() {
        let config = small_config(5);
        let a = run_scenario(&config);
        let b = run_scenario(&config);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert_eq!(a.events, b.events, "fault schedule must be seed-pure");
        assert_eq!(a.digest(), b.digest(), "report digest must be seed-pure");
    }

    #[test]
    fn the_op_stream_is_independent_of_the_fault_stream() {
        // The op mix draws from CHAOS_CTX, faults from FAULT_CTX: the same
        // seed must produce different streams, or fault decisions would
        // warp which operations run.
        let mut ops = rng_for(9, &[CHAOS_CTX]);
        let mut faults = rng_for(9, &[crate::fault::FAULT_CTX]);
        let same = (0..64).all(|_| ops.gen::<u64>() == faults.gen::<u64>());
        assert!(!same);
    }
}
