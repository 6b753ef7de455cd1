//! The placement daemon: TCP acceptor, bounded work queue, worker pool.
//!
//! Threading model (no async runtime — std::net blocking I/O):
//!
//! * **Acceptor thread** — polls a non-blocking listener, admits
//!   connections into the bounded [`WorkQueue`], and answers `Overloaded`
//!   (with a retry hint) inline when the queue is full. Polling rather than
//!   blocking accept keeps shutdown deterministic without self-connects.
//! * **Worker pool** — each worker pops a connection and serves its frames
//!   until EOF, read timeout, or protocol violation. Handlers pin the
//!   current model `Arc` per request, so `ReloadModel` never disturbs
//!   in-flight work.
//! * **Shutdown** — `DaemonHandle::shutdown()` stops the acceptor, closes
//!   the queue (which *drains*: queued connections are still served, in
//!   drain mode answering exactly the frames already received), ends the
//!   read side of every connection being served so a worker parked between
//!   frames wakes at once, joins all threads and returns the final stats
//!   snapshot.
//!
//! Fleet state is partitioned into [`DaemonConfig::shards`] placement
//! domains (`cluster::Shard`), each behind its own mutex. `Place` takes one
//! path whatever the shard count (`place`); no global fleet lock exists on
//! the `Place`/`Depart` hot path, no worker holds two shard locks, and with
//! one worker every reply is the serial [`crate::Reference`]'s. The
//! candidates' extended-colocation sums are scored in two stages — every
//! candidate's upper bound from the RM's first trees, then the rest of the
//! trees only for the candidates whose bound does not fall below an exact
//! delta — and both stages run with the lock released (`score_shard`).
//! Every sum is the offline scorer's, `gaugur_sched::PredictorFps::rm`,
//! through the [`PredictionMemo`] that caches it. Under the lock run the
//! memo lookups, the score-cache reads and the decision, and two
//! evaluations can still run there: the newcomer's prediction at admit
//! (`predict_with`, the RM and the CM) and a `before` sum the `ScoreCache`
//! does not hold (the RM only), on a memo miss or a memoized bound.

use crate::cluster::{shard_of_session, Shard};
use crate::fault::{FaultAction, FaultInjector, InjectionPoint};
use crate::feedback::{Feedback, FeedbackConfig, OutcomeRecord};
use crate::model::{LoadedModel, MemoizedFps, ModelHandle, PredictionMemo};
use crate::queue::{PushError, WorkQueue};
use crate::recorder::{Event, Recorder};
use crate::slo::{AlertState, Clock, MonotonicClock, SloConfig, SloEngine, SloReport};
use crate::stats::{Counter, StatsSnapshot, Telemetry, Writer};
use crate::trace::{elapsed_us, RequestTrace, SlowMeta, Stage};
use crate::wire::{
    self, encode_frame_into, read_frame_into, request_kind_index, write_frame, FrameError,
    OutcomeReport, Request, Response,
};
use gaugur_core::Placement;
use gaugur_sched::{
    rank_shard_selections, select_server_if_resident, NotResident, PlacementScratch, Selection,
};
use parking_lot::{Mutex, MutexGuard};
use std::io::{self, BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub bind: String,
    /// Fleet size exposed to placement.
    pub n_servers: usize,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bound of the pending-connection queue.
    pub queue_capacity: usize,
    /// Per-connection read timeout; an idle or stalled connection is closed
    /// after it (a half-written frame counts as stalled).
    pub read_timeout: Duration,
    /// Per-connection write timeout; a reply stalled on a non-reading
    /// client fails after it, and the placements it carried are rolled back.
    pub write_timeout: Duration,
    /// Largest accepted request payload (bytes), at most
    /// [`wire::MAX_FRAME_LEN`]; a frame declaring more gets an `Error`
    /// reply — before any allocation — and the connection is closed.
    pub max_frame_len: usize,
    /// Backoff hint sent with `Overloaded` replies.
    pub retry_after: Duration,
    /// QoS floor used to memo-key placement-path predictions.
    pub qos: f64,
    /// Prediction-memo capacity (entries).
    pub memo_capacity: usize,
    /// Print the stats snapshot to stdout on shutdown.
    pub print_stats_on_shutdown: bool,
    /// Deterministic fault injector for chaos testing; `None` (production)
    /// makes every injection point a no-op. Only `Place`/`PlaceBatch`
    /// replies consult it, so control-plane traffic never draws from the
    /// injector's seeded stream.
    pub fault: Option<Arc<FaultInjector>>,
    /// Feedback-subsystem tuning: outcome buffering, drift detection, and
    /// background retraining.
    pub feedback: FeedbackConfig,
    /// Placement shard count. Servers are partitioned into this many
    /// contiguous disjoint ranges, each behind its own lock, so concurrent
    /// placements on different shards never contend. Clamped to
    /// `[1, n_servers]`; `1` (the default) reproduces the single-lock
    /// daemon bit-identically.
    pub shards: usize,
    /// SLO-engine tuning: error budgets, the place-latency target, and the
    /// warn/critical burn-rate thresholds.
    pub slo: SloConfig,
    /// Per-worker flight-recorder ring capacity (events). The recorder is
    /// always on; this only bounds how far back a dump can see.
    pub recorder_capacity: usize,
    /// When set, an alert transition to `Critical` snapshots the flight
    /// recorder to this path as an operator (non-deterministic) JSONL dump.
    pub recorder_dump_path: Option<PathBuf>,
    /// Clock behind uptime, windowed telemetry and recorder timestamps.
    /// `None` (production) uses a monotonic clock; tests inject a
    /// [`crate::ManualClock`] to drive the rolling windows deterministically.
    pub clock: Option<Arc<dyn Clock>>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            bind: "127.0.0.1:0".into(),
            n_servers: 50,
            workers: 4,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            max_frame_len: wire::MAX_FRAME_LEN,
            retry_after: Duration::from_millis(50),
            qos: 60.0,
            memo_capacity: 1 << 16,
            print_stats_on_shutdown: true,
            fault: None,
            feedback: FeedbackConfig::default(),
            shards: 1,
            slo: SloConfig::default(),
            recorder_capacity: 512,
            recorder_dump_path: None,
            clock: None,
        }
    }
}

/// One queued background retrain. `None` fields fall back to the
/// [`FeedbackConfig`] defaults; explicit values let operators (and the
/// chaos harness) pin the retrain's behaviour per request.
#[derive(Debug, Clone, Copy)]
struct RetrainJob {
    min_samples: Option<u64>,
    extra_rounds: Option<u64>,
}

/// Worst-N capacity of the slow-request ring exposed via `slow_requests`.
const SLOW_LOG_CAPACITY: usize = 16;

struct Shared {
    config: DaemonConfig,
    model: ModelHandle,
    memo: PredictionMemo,
    /// The fleet, partitioned into independently locked placement domains
    /// over disjoint contiguous server ranges. Exactly one entry when
    /// `config.shards` is 1 — the classic single-lock fleet.
    shards: Vec<Mutex<Shard>>,
    /// The one telemetry collector: a single-writer block per worker and one
    /// for the acceptor, behind `Stats`, `Metrics` and `SloStatus`.
    telemetry: Telemetry,
    /// Each queued connection carries its enqueue instant so the dequeuing
    /// worker can attribute the wait to the `queue_wait` stage.
    queue: WorkQueue<(TcpStream, Instant)>,
    shutdown: AtomicBool,
    /// Per worker, a handle on the connection it is serving, so a shutdown
    /// can wake a worker parked in a read between frames.
    serving: Vec<Mutex<Option<TcpStream>>>,
    feedback: Feedback,
    /// Sender side of the retrainer's job queue; `None` once shutdown has
    /// begun (taking it is what lets the retrainer thread exit).
    retrain_tx: Mutex<Option<mpsc::Sender<RetrainJob>>>,
    /// Clock behind uptime, windowed slots and recorder timestamps; a
    /// worker reads it once per frame.
    clock: Arc<dyn Clock>,
    /// Burn-rate evaluation + alert state machine over the rolling views.
    slo_engine: SloEngine,
    /// Always-on flight recorder (per-worker event rings + control buffer).
    recorder: Recorder,
}

impl Shared {
    /// The shard owning session `id` under the interleaved id scheme.
    fn shard_of_session(&self, id: u64) -> usize {
        shard_of_session(id, self.shards.len())
    }

    /// The placement path's view of `model`: this daemon's memo, keyed at
    /// its QoS floor.
    fn fps<'a>(&'a self, model: &'a LoadedModel) -> MemoizedFps<'a> {
        MemoizedFps {
            model,
            memo: &self.memo,
            qos: self.config.qos,
        }
    }

    /// Request shutdown: stop the acceptor, close the queue (queued
    /// connections are still served), and end the read side of every
    /// connection a worker is serving. Frames already received stay
    /// readable, so they are still answered; a worker parked between frames
    /// sees EOF at once instead of sitting out its read timeout. A worker
    /// that picks a connection up after this sweep finds the flag set and
    /// reads with the short drain timeout. Idempotent.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        for serving in &self.serving {
            if let Some(stream) = serving.lock().as_ref() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
    }

    fn snapshot(&self, now_us: u64) -> StatsSnapshot {
        let (hits, misses) = self.memo.counts();
        // Sequential per-shard reads, each internally consistent under its
        // own lock. There is deliberately no stop-the-world global lock:
        // placements may land on shard B after shard A was read, so the
        // merged totals are only exact at quiesce points — which is where
        // the conservation oracles assert them.
        let mut active = 0u64;
        let mut score_hits = 0u64;
        let mut score_misses = 0u64;
        let mut misrouted = 0u64;
        let mut shard_active = Vec::with_capacity(self.shards.len());
        for m in &self.shards {
            let shard = m.lock();
            let (sh, sm) = shard.scores.counts();
            let a = shard.cluster.active_sessions() as u64;
            score_hits += sh;
            score_misses += sm;
            misrouted += shard.cluster.misrouted_sessions();
            active += a;
            shard_active.push(a);
        }
        let mut snap = self.telemetry.snapshot(now_us);
        snap.model_version = self.model.version();
        snap.active_sessions = active;
        snap.servers = self.config.n_servers;
        snap.shards = self.shards.len();
        snap.shard_active_sessions = shard_active;
        snap.shard_misrouted_sessions = misrouted;
        snap.cache_hits = hits;
        snap.cache_misses = misses;
        snap.score_hits = score_hits;
        snap.score_misses = score_misses;
        let fc = self.feedback.counters();
        let (drift_score, windowed_mae) = self.feedback.drift_stats();
        snap.feedback_accepted = fc.accepted;
        snap.feedback_stale = fc.stale;
        snap.feedback_dropped = fc.dropped;
        snap.feedback_buffered = fc.buffered;
        snap.feedback_evicted = fc.evicted;
        snap.feedback_pairs = fc.pairs;
        snap.drift_score = drift_score;
        snap.windowed_mae = windowed_mae;
        snap.drift_trips = fc.drift_trips;
        snap.retrains_ok = fc.retrains_ok;
        snap.retrains_failed = fc.retrains_failed;
        snap.last_retrain_ms = fc.last_retrain_ms;
        snap.last_retrain_samples = fc.last_retrain_samples;
        snap.slo = Some(self.evaluate_slo(now_us));
        snap
    }

    /// Evaluate every SLO objective against the rolling windows at `now_us`,
    /// advance the alert state machine, and feed the side effects through:
    /// transitions land in the flight recorder, and a transition *into*
    /// `Critical` snapshots the recorder to
    /// [`DaemonConfig::recorder_dump_path`] so the incident's event history
    /// is captured at the moment it fired, not when an operator gets around
    /// to asking.
    fn evaluate_slo(&self, now_us: u64) -> SloReport {
        let (report, transitions) = self
            .slo_engine
            .evaluate(&self.telemetry.views(now_us), self.telemetry.per_game());
        for t in &transitions {
            let alert = crate::recorder::alert_event(t.objective, t.from, t.to);
            self.recorder.record_control(now_us, alert);
        }
        if transitions.iter().any(|t| t.to == AlertState::Critical) {
            if let Some(path) = &self.config.recorder_dump_path {
                let dump = self.recorder.dump(false);
                let _ = std::fs::write(path, dump.jsonl);
            }
        }
        report
    }

    /// Enqueue a background retrain; `false` when the retrainer has already
    /// shut down (the job would never run).
    fn queue_retrain(&self, job: RetrainJob) -> bool {
        match self.retrain_tx.lock().as_ref() {
            Some(tx) => tx.send(job).is_ok(),
            None => false,
        }
    }
}

/// A running daemon; dropping the handle without calling
/// [`shutdown`](DaemonHandle::shutdown) leaves threads running detached.
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    retrainer: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The address the daemon is actually listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Assert the cluster-state invariants (session index, per-server caps,
    /// id/member lockstep, id-stream membership) on every shard. Intended
    /// for tests; panics on violation.
    pub fn check_invariants(&self) {
        for shard in &self.shared.shards {
            shard.lock().cluster.check_invariants();
        }
    }

    /// Each shard's score-cache `(hits, misses)`, in shard order; `Stats`
    /// reports only their sums. Intended for tests that hold the daemon to
    /// a serial replay.
    pub fn shard_score_counts(&self) -> Vec<(u64, u64)> {
        let counts = |shard: &Mutex<Shard>| shard.lock().scores.counts();
        self.shared.shards.iter().map(counts).collect()
    }

    /// Stop accepting, drain queued and in-flight work, join every thread,
    /// and return the final statistics.
    pub fn shutdown(self) -> StatsSnapshot {
        self.shared.begin_shutdown();
        self.wait()
    }

    /// Block until a shutdown is requested — by [`shutdown`](Self::shutdown)
    /// or by a `Shutdown` request over the wire (how `gaugur serve` stops) —
    /// then drain and return the final statistics.
    pub fn wait(mut self) -> StatsSnapshot {
        // The acceptor runs until a shutdown is requested (or its listener
        // fails, which the repeated request below turns into a drain).
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        self.shared.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Dropping the sender lets the retrainer finish queued jobs and exit.
        self.shared.retrain_tx.lock().take();
        if let Some(r) = self.retrainer.take() {
            let _ = r.join();
        }
        let snap = self.shared.snapshot(self.shared.clock.now_us());
        if self.shared.config.print_stats_on_shutdown {
            println!("{snap}");
        }
        snap
    }
}

/// How the daemon creates its threads; injectable so tests can force spawn
/// failures at any position without exhausting real OS threads.
type ThreadSpawner<'a> =
    dyn FnMut(String, Box<dyn FnOnce() + Send + 'static>) -> io::Result<JoinHandle<()>> + 'a;

/// Start the daemon. Returns once the listener is bound and the worker pool
/// is running. An empty fleet is an `InvalidInput` error, returned before
/// anything is bound or spawned. A thread-spawn failure (OS thread limit,
/// memory pressure) is returned as an error — never a panic — with every
/// already-spawned thread joined and the listener socket released before
/// returning.
pub fn start(config: DaemonConfig, model: ModelHandle) -> io::Result<DaemonHandle> {
    start_with(config, model, &mut |name, body| {
        std::thread::Builder::new().name(name).spawn(body)
    })
}

/// Wrap a spawn failure with which daemon thread could not start.
fn spawn_failure(what: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("failed to spawn {what} thread: {e}"))
}

/// Unwind a partially started daemon after a spawn failure: request
/// shutdown, close the queue so workers fall out of `pop`, join everything
/// that did start, and release the retrainer by dropping its sender. The
/// caller still owns the listener, which drops (releasing the port) when it
/// returns the error.
fn teardown_after_spawn_failure(
    shared: &Shared,
    workers: Vec<JoinHandle<()>>,
    retrainer: Option<JoinHandle<()>>,
) {
    shared.begin_shutdown();
    for w in workers {
        let _ = w.join();
    }
    shared.retrain_tx.lock().take();
    if let Some(r) = retrainer {
        let _ = r.join();
    }
}

fn start_with(
    config: DaemonConfig,
    model: ModelHandle,
    spawn: &mut ThreadSpawner<'_>,
) -> io::Result<DaemonHandle> {
    let shards: Vec<Mutex<Shard>> = Shard::partition(config.n_servers, config.shards)?
        .into_iter()
        .map(Mutex::new)
        .collect();
    let listener = TcpListener::bind(&config.bind)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let (retrain_tx, retrain_rx) = mpsc::channel::<RetrainJob>();
    let workers_n = config.workers.max(1);
    let clock: Arc<dyn Clock> = config
        .clock
        .clone()
        .unwrap_or_else(|| Arc::new(MonotonicClock::new()));
    let shared = Arc::new(Shared {
        memo: PredictionMemo::new(config.memo_capacity),
        shards,
        telemetry: Telemetry::new(workers_n, SLOW_LOG_CAPACITY, clock.now_us()),
        queue: WorkQueue::new(config.queue_capacity),
        shutdown: AtomicBool::new(false),
        serving: (0..workers_n).map(|_| Mutex::new(None)).collect(),
        feedback: Feedback::new(config.feedback),
        retrain_tx: Mutex::new(Some(retrain_tx)),
        slo_engine: SloEngine::new(config.slo),
        recorder: Recorder::new(workers_n, config.recorder_capacity),
        clock,
        model,
        config: config.clone(),
    });

    let retrainer = {
        let shared_r = shared.clone();
        match spawn(
            "gaugur-serve-retrainer".into(),
            Box::new(move || retrainer_loop(&shared_r, &retrain_rx)),
        ) {
            Ok(h) => h,
            Err(e) => {
                shared.retrain_tx.lock().take();
                return Err(spawn_failure("retrainer", e));
            }
        }
    };

    let mut workers = Vec::with_capacity(workers_n);
    for i in 0..workers_n {
        let shared_w = shared.clone();
        match spawn(
            format!("gaugur-serve-worker-{i}"),
            Box::new(move || worker_loop(&shared_w, i)),
        ) {
            Ok(h) => workers.push(h),
            Err(e) => {
                teardown_after_spawn_failure(&shared, workers, Some(retrainer));
                return Err(spawn_failure("worker", e));
            }
        }
    }

    let acceptor = {
        let shared_a = shared.clone();
        match spawn(
            "gaugur-serve-acceptor".into(),
            Box::new(move || acceptor_loop(&listener, &shared_a)),
        ) {
            Ok(h) => h,
            Err(e) => {
                teardown_after_spawn_failure(&shared, workers, Some(retrainer));
                return Err(spawn_failure("acceptor", e));
            }
        }
    };

    Ok(DaemonHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers,
        retrainer: Some(retrainer),
    })
}

/// Monotone sequence for retrain artifact directories; combined with the
/// pid it keeps concurrent daemons (and successive retrains) from ever
/// writing over each other's artifacts.
static RETRAIN_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh directory name for one retrain's artifact.
fn retrain_artifact_dir() -> PathBuf {
    let seq = RETRAIN_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gaugur-retrain-{}-{seq}", std::process::id()))
}

/// The retrainer thread: serve queued jobs until the sender is dropped at
/// shutdown (queued jobs still run — shutdown drains, it does not abort).
fn retrainer_loop(shared: &Shared, rx: &mpsc::Receiver<RetrainJob>) {
    // Directory of the last retrain that published. It outlives the daemon
    // on purpose: it holds the artifact the serving model was loaded from.
    let mut published_dir = None;
    while let Ok(job) = rx.recv() {
        run_retrain(shared, job, &mut published_dir);
    }
}

/// One background retrain: snapshot the outcome dataset, warm-start the
/// regression model, persist a fresh versioned artifact, and publish it
/// through the hot-reload path. Every failure mode — too few samples, no
/// usable outcomes, artifact I/O, reload rejection — leaves the serving
/// model (and its version) untouched and only bumps `retrains_failed`.
/// `published_dir` is the artifact directory of the last retrain that
/// published: only that one is kept on disk.
fn run_retrain(shared: &Shared, job: RetrainJob, published_dir: &mut Option<PathBuf>) {
    let started_us = shared.clock.now_us();
    let fb = &shared.feedback;
    let cfg = fb.config();
    let min_samples = job.min_samples.unwrap_or(cfg.min_retrain_samples);
    let extra_rounds = job
        .extra_rounds
        .map(|r| r as usize)
        .unwrap_or(cfg.extra_rounds);

    let failed = || {
        fb.note_retrain_failed();
        shared
            .recorder
            .record_control(shared.clock.now_us(), Event::RetrainFailed);
    };
    let outcomes = fb.snapshot_outcomes();
    if (outcomes.len() as u64) < min_samples {
        return failed();
    }
    let model = shared.model.get();
    let Some((retrained, report)) = model.gaugur.retrain_from_outcomes(&outcomes, extra_rounds)
    else {
        return failed();
    };
    // Publish through the artifact + reload path rather than swapping
    // in-memory: the on-disk artifact stays the source of truth (a daemon
    // restart or an operator `reload` sees the retrained model), and the
    // swap inherits reload's monotone-version guarantee.
    let dir = retrain_artifact_dir();
    let path = dir.join("model.json");
    let published = std::fs::create_dir_all(&dir)
        .and_then(|_| retrained.save_json(&path))
        .and_then(|_| shared.model.reload(Some(&path)));
    match published {
        Ok(version) => {
            // The serving model's artifact stays; the one it superseded goes.
            if let Some(superseded) = published_dir.replace(dir) {
                let _ = std::fs::remove_dir_all(superseded);
            }
            // The new model's accuracy starts from a clean slate: drop the
            // sliding error window along with the Page–Hinkley state, so
            // `windowed_mae` no longer reflects the replaced model's errors
            // and recovery shows up immediately. Reset *before* bumping
            // `retrains_ok` — anyone polling for retrain completion must
            // never observe the success with stale drift statistics.
            fb.reset_drift();
            let finished_us = shared.clock.now_us();
            let samples = report.samples_used as u64;
            fb.note_retrain_ok(finished_us.saturating_sub(started_us) / 1_000, samples);
            let published = Event::RetrainOk { version, samples };
            shared.recorder.record_control(finished_us, published);
        }
        Err(_) => {
            let _ = std::fs::remove_dir_all(&dir);
            failed()
        }
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    let telemetry = &shared.telemetry;
    let me = telemetry.acceptor();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                telemetry.note(me, Counter::Connections, 1);
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
                let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
                match shared.queue.push((stream, Instant::now())) {
                    Ok(()) => {}
                    Err(PushError::Full((mut rejected, _))) => {
                        // Transient: shed with a retry hint.
                        telemetry.note(me, Counter::Overloaded, 1);
                        let retry = shared.config.retry_after.as_millis() as u64;
                        let _ = write_frame(
                            &mut rejected,
                            &Response::Overloaded {
                                retry_after_ms: retry,
                            },
                        );
                        telemetry.note(me, Counter::ConnectionsClosed, 1);
                        // Dropped: the client was told when to come back.
                    }
                    Err(PushError::Closed((mut rejected, _))) => {
                        // Terminal: the daemon is draining; a retry can
                        // never succeed, so say so instead of `Overloaded`.
                        telemetry.note(me, Counter::ShutdownRejected, 1);
                        let _ = write_frame(&mut rejected, &Response::ShuttingDown);
                        telemetry.note(me, Counter::ConnectionsClosed, 1);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// What a worker owns and reuses across every request it serves: the
/// request payload and reply frame buffers, the placement scratch
/// (colocation batches, degradation query plans, feature buffers), the
/// per-shard buffers of the admit path, and the admissions of the request
/// in hand. `worker_loop` builds one and lends it down by `&mut`; the
/// buffers grow on the first requests and are reused for the worker's
/// lifetime, so the steady-state `Place`/`PlaceBatch`/`Predict` path
/// allocates nothing of its own.
#[derive(Default)]
struct WorkerState {
    /// The payload of the frame in hand.
    payload: Vec<u8>,
    /// The reply frame, header and payload, as it is written.
    frame: Vec<u8>,
    scratch: PlacementScratch,
    /// Per shard scored so far in this pass: its candidate and the epoch it
    /// was scored at.
    candidates: Vec<Option<Selection>>,
    epochs: Vec<u64>,
    /// The shards with a candidate, best first.
    order: Vec<usize>,
    /// Admissions made while handling the current request.
    admitted: Vec<Admitted>,
}

fn worker_loop(shared: &Shared, worker: usize) {
    let mut state = WorkerState::default();
    // pop() drains the queue even after close, so connections admitted
    // before shutdown still get served.
    while let Some((stream, enqueued)) = shared.queue.pop() {
        let wait_us = elapsed_us(enqueued);
        shared
            .telemetry
            .writer(worker, shared.clock.now_us())
            .queue_wait(wait_us);
        // Registered before the first shutdown check in `serve_connection`,
        // so `begin_shutdown` either finds the handle or is seen by it.
        *shared.serving[worker].lock() = stream.try_clone().ok();
        serve_connection(shared, worker, &mut state, stream);
        *shared.serving[worker].lock() = None;
        shared.telemetry.note(worker, Counter::ConnectionsClosed, 1);
    }
}

/// A pending admission made while handling the current request. If the
/// reply cannot be delivered, these are rolled back — a client that died
/// mid-request must not leak sessions into the fleet, and the score cache
/// must forget the admissions it pre-stored under the admit contract.
struct Admitted {
    session: u64,
    /// Global server index (shard base + local); rollback re-derives the
    /// shard from the session id and subtracts the base again.
    server: usize,
    version: u64,
    /// Admitted game id, carried into the flight-recorder `admit` event.
    game: u64,
    /// Flight-recorder position, stamped under the shard lock.
    seq: u64,
    before_sum: f64,
    after_sum: f64,
}

/// Depart every admission whose reply never reached the client, newest
/// first, restoring the score cache to its bit-exact pre-admit state. Lost
/// placements thus become net no-ops: occupancy, cached sums and therefore
/// every later placement decision are identical to a run in which the lost
/// request never happened (the chaos harness's replay oracle relies on
/// exactly this).
///
/// Admissions are grouped by owning shard — one lock acquisition per shard
/// that has anything to undo. Shards hold disjoint sessions, so only the
/// within-shard unwind order (newest first) matters. Returns how many
/// admissions were undone.
fn rollback_admissions(shared: &Shared, admitted: &[Admitted]) -> u64 {
    let mut rolled_back = 0;
    for s in 0..shared.shards.len() {
        if !admitted
            .iter()
            .any(|a| shared.shard_of_session(a.session) == s)
        {
            continue;
        }
        let mut shard = shared.shards[s].lock();
        let Shard {
            cluster,
            scores,
            epoch,
            base,
        } = &mut *shard;
        for a in admitted
            .iter()
            .rev()
            .filter(|a| shared.shard_of_session(a.session) == s)
        {
            if cluster.depart(a.session).is_some() {
                scores.rollback(a.server - *base, a.version, a.after_sum, a.before_sum);
                *epoch += 1;
                rolled_back += 1;
            }
        }
    }
    rolled_back
}

/// Write one reply frame, applying reply-side fault injection when the
/// request is a placement (`faultable`). Restricting injection to placement
/// replies keeps control-plane round-trips (stats polling in particular)
/// from drawing on the injector's stream, which the chaos harness's
/// determinism depends on. The frame is encoded into the worker's reused
/// `frame` buffer and leaves in one `write`.
fn write_reply(
    shared: &Shared,
    mut stream: &TcpStream,
    frame: &mut Vec<u8>,
    response: &Response,
    faultable: bool,
    now_us: u64,
    trace: &mut RequestTrace,
) -> io::Result<()> {
    if faultable {
        if let Some(injector) = &shared.config.fault {
            let fired = |point| {
                let fault = Event::Fault { point };
                shared.recorder.record_control(now_us, fault)
            };
            match injector.decide(InjectionPoint::Reply) {
                FaultAction::DropConnection => {
                    // Nothing was encoded or written: the request's encode
                    // and write-reply stages keep zero-duration samples.
                    fired(0);
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "injected reply drop",
                    ));
                }
                FaultAction::TornFrame => {
                    fired(1);
                    let encode_started = Instant::now();
                    encode_frame_into(frame, response);
                    trace.add(Stage::Encode, elapsed_us(encode_started));
                    let cut = frame.len() / 2;
                    let write_started = Instant::now();
                    let _ = stream.write_all(&frame[..cut]);
                    let _ = stream.flush();
                    trace.add(Stage::WriteReply, elapsed_us(write_started));
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "injected torn reply",
                    ));
                }
                FaultAction::Stall(ms) => {
                    // The stall models a stalled reply write, so its wait is
                    // honest reply-delivery time.
                    fired(2);
                    let stall_started = Instant::now();
                    std::thread::sleep(Duration::from_millis(ms));
                    trace.add(Stage::WriteReply, elapsed_us(stall_started));
                }
                _ => {}
            }
        }
    }
    let encode_started = Instant::now();
    encode_frame_into(frame, response);
    trace.add(Stage::Encode, elapsed_us(encode_started));
    let write_started = Instant::now();
    let result = stream.write_all(frame).and_then(|()| stream.flush());
    trace.add(Stage::WriteReply, elapsed_us(write_started));
    result
}

fn serve_connection(shared: &Shared, worker: usize, state: &mut WorkerState, stream: TcpStream) {
    let draining_timeout = Duration::from_millis(100);
    // Buffered: a frame whose header and payload arrived together is read
    // with one `read`.
    let mut reader = BufReader::new(&stream);
    loop {
        let draining = shared.shutdown.load(Ordering::SeqCst);
        if draining {
            // Drain mode: answer frames already on the wire, but do not
            // wait long for new ones.
            let _ = stream.set_read_timeout(Some(draining_timeout));
        }
        match read_frame_into(&mut reader, shared.config.max_frame_len, &mut state.payload) {
            Ok(()) => {}
            Err(FrameError::Eof) | Err(FrameError::Io(_)) => return,
            Err(e @ FrameError::TooLarge { .. }) => {
                // Cannot resync after a length violation: error then close.
                shared.telemetry.note(worker, Counter::Malformed, 1);
                let _ = write_frame(
                    &mut &stream,
                    &Response::Error {
                        message: e.to_string(),
                    },
                );
                return;
            }
            Err(FrameError::Malformed(_)) => unreachable!("raw read does not parse"),
        }
        // The frame's one clock read: its window second, its recorder
        // timestamps, the SLO tick and anything it reports as "now".
        let tel = shared.telemetry.writer(worker, shared.clock.now_us());
        let decode_started = Instant::now();
        let decoded: Result<Request, FrameError> = wire::decode_payload(&state.payload);
        let decode_us = elapsed_us(decode_started);
        let request: Request = match decoded {
            Ok(r) => r,
            Err(e) => {
                // The frame was length-delimited, so the stream is intact:
                // reply with an error and keep the connection. Undecodable
                // frames have no request kind and are not traced.
                tel.note(Counter::Malformed, 1);
                let _ = write_frame(
                    &mut &stream,
                    &Response::Error {
                        message: e.to_string(),
                    },
                );
                continue;
            }
        };

        let kind = request_kind_index(&request);
        let mut trace = RequestTrace::new();
        trace.add(Stage::Decode, decode_us);
        let started = Instant::now();
        state.admitted.clear();
        let mut effects = RequestSideEffects::default();
        let (response, ok) =
            handle_request(shared, &tel, &request, state, &mut trace, &mut effects);
        let admitted = &state.admitted;
        tel.note(Counter::Admitted, admitted.len() as u64);
        tel.record(kind, ok, elapsed_us(started));

        let faultable = matches!(request, Request::Place { .. } | Request::PlaceBatch { .. });
        let delivered = write_reply(
            shared,
            &stream,
            &mut state.frame,
            &response,
            faultable,
            tel.now_us,
            &mut trace,
        );
        // Stage samples flush after the write attempt so a `Stats` or
        // `Metrics` request's own snapshot excludes itself on both the
        // per-op and the per-stage side — the accounting stays reconciled
        // at every sequential observation point.
        tel.flush(kind, ok, faultable, &trace, effects.meta);
        if delivered.is_ok() {
            // Admit events exist exactly when the client learned its
            // sessions do — the flight recorder's event stream mirrors the
            // conservation oracle (admitted = confirmed + rolled back).
            for a in admitted.iter() {
                shared.recorder.record_at(
                    worker,
                    a.seq,
                    tel.now_us,
                    Event::Admit {
                        session: a.session,
                        server: a.server as u64,
                        shard: shared.shard_of_session(a.session) as u64,
                        version: a.version,
                        game: a.game,
                    },
                );
            }
        } else {
            // The client never learned its sessions exist; un-admit them.
            tel.note(Counter::RolledBack, rollback_admissions(shared, admitted));
            for a in admitted.iter() {
                shared.recorder.record(
                    worker,
                    tel.now_us,
                    Event::Rollback {
                        session: a.session,
                        server: a.server as u64,
                        shard: shared.shard_of_session(a.session) as u64,
                    },
                );
            }
        }
        // Non-placement side effects (departs, reloads) happened whether or
        // not the reply made it out, so they are recorded unconditionally.
        for (seq, ev) in effects.events.drain(..) {
            shared.recorder.record_at(worker, seq, tel.now_us, ev);
        }
        // At most one worker a second pays for a full SLO evaluation, so
        // alerts fire during steady traffic without any dedicated thread.
        if shared.slo_engine.tick_due(tel.now_us / 1_000_000) {
            let _ = shared.evaluate_slo(tel.now_us);
        }
        if delivered.is_err() {
            return;
        }
        if matches!(request, Request::Shutdown) {
            return;
        }
    }
}

/// Observability side effects of one handled request, applied by the worker
/// *after* the reply write so the recorder's admit/rollback accounting can
/// depend on delivery.
#[derive(Default)]
struct RequestSideEffects {
    /// Identity attached to the slow-request ring entry.
    meta: SlowMeta,
    /// Flight-recorder events to emit post-write (departs, reloads), each
    /// with the recorder position it was stamped with when it happened.
    events: Vec<(u64, Event)>,
}

/// Lost-race budget for the two-phase admit: how many times a `Place` will
/// re-score the fleet after its winning shard's occupancy changed under it
/// before settling for the best shard that still admits.
const MAX_ADMIT_RETRIES: u32 = 3;

/// Lock shard `s`, charging the wait to the `place_admit_wait` stage.
fn lock_shard<'a>(shared: &'a Shared, s: usize, trace: &mut RequestTrace) -> MutexGuard<'a, Shard> {
    let wait_started = Instant::now();
    let shard = shared.shards[s].lock();
    trace.add(Stage::PlaceAdmitWait, elapsed_us(wait_started));
    shard
}

/// Choose a server on shard `s` with the *decision* under the shard lock
/// and the model *evaluation* outside it. The pass under the lock completes
/// when the memo holds every candidate's extended-colocation sum, or a
/// bound on it strictly below the best exact delta — then this is one lock
/// acquisition and one scoring pass. Otherwise it stops before touching
/// the score cache, the lock is released, both scoring stages of what is
/// missing are evaluated into the shared memo (so workers evaluate side by
/// side), and the ordinary pass runs under the re-taken lock: it hits the
/// memo and evaluates inline only what an admit or depart in between made
/// stale. At most two passes, never a retry.
///
/// The memo is a pure cache, so the selection is exactly the one a single
/// pass under the final lock acquisition would make; the first pass leaves
/// no trace but memo entries. Returns that final guard, still held, with
/// the score cache updated under the admit contract. A caller that already
/// holds the shard's lock (a batch between two of its items) passes it in
/// as `held` and gets it, or its successor, back.
fn score_shard<'a>(
    shared: &'a Shared,
    model: &LoadedModel,
    s: usize,
    held: Option<MutexGuard<'a, Shard>>,
    scratch: &mut PlacementScratch,
    placement: Placement,
    trace: &mut RequestTrace,
) -> (MutexGuard<'a, Shard>, Option<Selection>) {
    let fps_model = shared.fps(model);
    let mut shard = held.unwrap_or_else(|| lock_shard(shared, s, trace));
    let place_started = Instant::now();
    let Shard {
        cluster, scores, ..
    } = &mut *shard;
    let resident = select_server_if_resident(
        &*cluster,
        placement,
        &fps_model,
        model.version,
        scores,
        scratch,
    );
    let sel = match resident {
        Ok(sel) => {
            trace.add(Stage::Place, elapsed_us(place_started));
            sel
        }
        Err(NotResident) => {
            drop(shard);
            scratch.evaluate_candidates(&fps_model);
            trace.add(Stage::Place, elapsed_us(place_started));
            shard = lock_shard(shared, s, trace);
            shard.select(&fps_model, scratch, placement, trace)
        }
    };
    (shard, sel)
}

/// Admit `placement` on the server `sel` chose ([`Shard::admit`]) and note
/// the admission for delivery or rollback. The caller holds this shard's
/// lock and made `sel` under it, so the recorder stamp is in lock order.
fn admit_selected(
    shared: &Shared,
    model: &LoadedModel,
    shard: &mut Shard,
    state: &mut WorkerState,
    placement: Placement,
    sel: Selection,
    trace: &mut RequestTrace,
) -> (u64, usize, f64) {
    let fps_model = shared.fps(model);
    let placed = shard.admit(
        &fps_model,
        &mut state.scratch.predict,
        placement,
        &sel,
        trace,
    );
    let (session, server, _) = placed;
    state.admitted.push(Admitted {
        session,
        server,
        version: model.version,
        game: placement.0 .0 as u64,
        seq: shared.recorder.stamp(),
        before_sum: sel.before_sum,
        after_sum: sel.server_sum,
    });
    placed
}

/// Whether the last shard's candidate `sel` settles the request under the
/// hold it was scored in: it ranks first among the `earlier` shards'
/// candidates in [`rank_shard_selections`]' order — a delta strictly
/// greater under `total_cmp`, since ties go to the lower shard — or no
/// shard has an eligible server at all.
fn last_shard_decides(sel: Option<&Selection>, earlier: &[Option<Selection>]) -> bool {
    match sel {
        Some(sel) => earlier
            .iter()
            .flatten()
            .all(|c| sel.delta.total_cmp(&c.delta).is_gt()),
        None => earlier.iter().all(Option::is_none),
    }
}

/// Place one session, whatever the shard count. Phase 1 scores shards
/// `0..N` in order through [`score_shard`] (the decision under that shard's
/// lock, model evaluation outside it). When the last shard scored ranks
/// first ([`last_shard_decides`]), the session is admitted under the hold
/// that shard is already in and the guard comes back in `held`. On one
/// shard that is the whole path — one hold, no invalidation, the classic
/// single-lock decision and score-cache hit/miss stream — and a batch
/// passes `held` back in, so it takes the lock once for the burst and gives
/// it up only where an item has to evaluate.
///
/// Every other shard invalidates its speculative winner entry before
/// unlocking — the score cache's admit-or-invalidate contract does not
/// survive a lock release. If the last shard does not decide, phase 2 locks
/// only the ranked winner and re-validates via the shard epoch that the
/// occupancy the ranking was computed from is still in force; a lost race
/// re-scores (bounded by [`MAX_ADMIT_RETRIES`]), after which the request
/// settles for the best-ranked shard that still admits. A guard in `held`
/// is reused only by the shard it locks and dropped before any other lock
/// is taken, so no worker ever holds two shard locks.
fn place<'a>(
    shared: &'a Shared,
    tel: &Writer<'_>,
    model: &LoadedModel,
    state: &mut WorkerState,
    held: &mut Option<(usize, MutexGuard<'a, Shard>)>,
    placement: Placement,
    trace: &mut RequestTrace,
) -> Option<(u64, usize, f64)> {
    let last = shared.shards.len() - 1;
    for attempt in 0..=MAX_ADMIT_RETRIES {
        state.candidates.clear();
        state.epochs.clear();
        for s in 0..=last {
            let reuse = match held.take() {
                Some((h, guard)) if h == s => Some(guard),
                _ => None,
            };
            let (mut shard, sel) = score_shard(
                shared,
                model,
                s,
                reuse,
                &mut state.scratch,
                placement,
                trace,
            );
            if s == last && last_shard_decides(sel.as_ref(), &state.candidates) {
                let placed = sel.map(|sel| {
                    admit_selected(shared, model, &mut shard, state, placement, sel, trace)
                });
                *held = Some((s, shard));
                return placed;
            }
            if let Some(sel) = &sel {
                // We may never come back to this shard: drop the
                // speculatively stored post-admit sum now, under the lock.
                shard.scores.invalidate(sel.server);
            }
            state.epochs.push(shard.epoch);
            state.candidates.push(sel);
        }
        rank_shard_selections(&state.candidates, &mut state.order);
        // Non-empty: the last shard did not decide, so some shard has a
        // candidate.
        let winner = state.order[0];
        let mut shard = lock_shard(shared, winner, trace);
        if shard.epoch == state.epochs[winner] {
            // Occupancy unchanged since scoring, so the under-lock re-score
            // deterministically reproduces the phase-1 selection (and
            // restores the cache entry invalidated above) in one pass, its
            // candidate sums resident, before admitting.
            let sel = shard.select(&shared.fps(model), &mut state.scratch, placement, trace);
            return sel.map(|sel| {
                admit_selected(shared, model, &mut shard, state, placement, sel, trace)
            });
        }
        drop(shard);
        if attempt < MAX_ADMIT_RETRIES {
            tel.note(Counter::AdmitRetries, 1);
        }
    }
    // Out of retries under sustained contention: give up on cross-shard
    // optimality and take the best-ranked shard that still admits.
    tel.note(Counter::AdmitFallbacks, 1);
    for i in 0..state.order.len() {
        let s = state.order[i];
        let mut shard = lock_shard(shared, s, trace);
        if let Some(sel) = shard.select(&shared.fps(model), &mut state.scratch, placement, trace) {
            return Some(admit_selected(
                shared, model, &mut shard, state, placement, sel, trace,
            ));
        }
    }
    None
}

/// Ingest a batch of outcome reports (the shared body of `ReportOutcome`
/// and `ReportOutcomeBatch`). Each report's session is resolved against the
/// live fleet to recover the colocation the observation belongs to; unknown
/// sessions (already departed, or never placed) and non-finite frame rates
/// are dropped. Reports tagged with an older model version are buffered as
/// training data but kept out of the drift statistics — their prediction
/// error describes a model that is no longer serving.
fn ingest_reports(
    shared: &Shared,
    tel: &Writer<'_>,
    reports: &[OutcomeReport],
) -> (Response, bool) {
    let current_version = shared.model.version();
    let mut accepted = 0u64;
    let mut stale_count = 0u64;
    let mut dropped = 0u64;
    let mut tripped = false;
    for report in reports {
        if !report.observed_fps.is_finite() || report.observed_fps <= 0.0 {
            shared.feedback.note_dropped();
            dropped += 1;
            continue;
        }
        // Resolve under the owning shard's lock only, ingest outside it:
        // ingestion takes its own (feedback) locks and must not extend any
        // placement critical section.
        let resolved = {
            let shard = shared.shards[shared.shard_of_session(report.session)].lock();
            shard.cluster.lookup(report.session).map(|placed| {
                // Co-runners = the server's occupancy minus the session
                // itself (game ids are unique per server by invariant).
                let others: Vec<Placement> = shard
                    .cluster
                    .members(placed.server)
                    .iter()
                    .filter(|&&(g, _)| g != placed.placement.0)
                    .copied()
                    .collect();
                (placed.placement, others)
            })
        };
        match resolved {
            Some((target, others)) => {
                let stale = report.model_version < current_version;
                tripped |= shared.feedback.ingest(
                    OutcomeRecord {
                        target,
                        others,
                        observed_fps: report.observed_fps,
                    },
                    report.predicted_fps,
                    stale,
                );
                // The observed-FPS SLO objective and the windowed MAE both
                // feed off every accepted report (observed_fps > 0 was
                // checked above, so the relative error is well-defined).
                tel.outcome(
                    target.0 .0,
                    report.observed_fps < shared.config.qos,
                    (report.predicted_fps - report.observed_fps).abs() / report.observed_fps,
                );
                accepted += 1;
                if stale {
                    stale_count += 1;
                }
            }
            None => {
                shared.feedback.note_dropped();
                dropped += 1;
            }
        }
    }
    if tripped && shared.feedback.config().auto_retrain {
        let _ = shared.queue_retrain(RetrainJob {
            min_samples: None,
            extra_rounds: None,
        });
    }
    (
        Response::OutcomeRecorded {
            accepted,
            stale: stale_count,
            dropped,
        },
        true,
    )
}

fn handle_request(
    shared: &Shared,
    tel: &Writer<'_>,
    request: &Request,
    state: &mut WorkerState,
    trace: &mut RequestTrace,
    effects: &mut RequestSideEffects,
) -> (Response, bool) {
    match request {
        Request::Place { .. } | Request::PlaceBatch { .. } => {
            let model = shared.model.get();
            effects.meta.model_version = Some(model.version);
            // Items place in order and fail independently (unknown game or
            // saturation). The guard the last shard scored in comes back
            // (`held`), so a single-shard fleet keeps its lock across a
            // burst, releasing it only where an item has to evaluate the
            // model; on more shards the next item's scoring starts at
            // shard 0 and drops it first, so a long burst never pins any
            // one shard.
            let mut held = None;
            model.place_reply(request, |placement| {
                let placed = place(shared, tel, &model, state, &mut held, placement, trace);
                // Saturation (`None`): every server is at its session cap
                // or already runs this game. No QoS floor is consulted on
                // this path; the `admit_qos` objective burns on these
                // rejections all the same.
                let shard = placed.map(|(session, ..)| shared.shard_of_session(session));
                tel.place_attempt(placement.0 .0, placed.is_some());
                // The ring entry points at the first admitted session — one
                // concrete session to start debugging a slow burst from.
                if effects.meta.session.is_none() {
                    effects.meta.session = placed.map(|(session, ..)| session);
                    effects.meta.shard = shard.map(|s| s as u64);
                }
                placed
            })
        }
        Request::Depart { session } => {
            // The id scheme routes every session to exactly one shard, so a
            // depart touches one lock — never the whole fleet.
            let owner = shared.shard_of_session(*session);
            // Held to the end of the arm: the recorder stamp is taken in
            // lock order.
            let mut shard = lock_shard(shared, owner, trace);
            let departed = shard.depart(*session);
            match departed {
                Some(server) => {
                    effects.meta.session = Some(*session);
                    effects.meta.shard = Some(owner as u64);
                    effects.events.push((
                        shared.recorder.stamp(),
                        Event::Depart {
                            session: *session,
                            server: server as u64,
                            shard: owner as u64,
                        },
                    ));
                }
                // Typed, counted, and not a protocol error: departing an id
                // that is already gone (double-depart, rolled back, or never
                // issued) is a client-visible state, not noise.
                None => tel.note(Counter::DepartUnknown, 1),
            }
            (Response::departed(*session, departed), departed.is_some())
        }
        Request::Predict {
            game,
            resolution,
            others,
            qos,
        } => {
            let model = shared.model.get();
            let predicted = model.predict_reply(
                &shared.memo,
                (*game, *resolution),
                others,
                *qos,
                &mut state.scratch.predict,
                trace,
            );
            match predicted {
                Ok(reply) => (reply, true),
                Err(message) => (Response::Error { message }, false),
            }
        }
        Request::ReportOutcome { report } => {
            ingest_reports(shared, tel, std::slice::from_ref(report))
        }
        Request::ReportOutcomeBatch { reports } => ingest_reports(shared, tel, reports),
        Request::TriggerRetrain {
            min_samples,
            extra_rounds,
        } => {
            let queued = shared.queue_retrain(RetrainJob {
                min_samples: *min_samples,
                extra_rounds: *extra_rounds,
            });
            (Response::RetrainQueued { queued }, queued)
        }
        Request::Stats => (Response::Stats(Box::new(shared.snapshot(tel.now_us))), true),
        Request::Metrics => (
            // Control-plane like `Stats`: rendered from the same snapshot,
            // never fault-injected, so scrapes cannot perturb chaos replay.
            Response::Metrics {
                text: crate::trace::render_prometheus(&shared.snapshot(tel.now_us)),
            },
            true,
        ),
        Request::SloStatus => (
            Response::Slo(Box::new(shared.evaluate_slo(tel.now_us))),
            true,
        ),
        Request::DumpRecorder { deterministic } => {
            let dump = shared.recorder.dump(*deterministic);
            (
                Response::RecorderDump {
                    jsonl: dump.jsonl,
                    events: dump.events,
                    truncated: dump.truncated,
                },
                true,
            )
        }
        Request::ReloadModel { path } => {
            match shared.model.reload(path.as_deref().map(Path::new)) {
                Ok(version) => {
                    effects.meta.model_version = Some(version);
                    effects
                        .events
                        .push((shared.recorder.stamp(), Event::Reload { version }));
                    (Response::Reloaded { version }, true)
                }
                Err(e) => (
                    Response::Error {
                        message: format!("reload failed: {e}"),
                    },
                    false,
                ),
            }
        }
        Request::Shutdown => {
            shared.begin_shutdown();
            (Response::ShuttingDown, true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugur_gamesim::{GameCatalog, Server};

    /// `DaemonHandle` is not `Debug` (it owns join handles), so
    /// `expect_err` can't be used directly on `start_with`'s result.
    fn must_fail(r: io::Result<DaemonHandle>, what: &str) -> io::Error {
        match r {
            Ok(_) => panic!("{what}: expected a start failure, daemon started"),
            Err(e) => e,
        }
    }

    fn test_model() -> ModelHandle {
        let server = Server::reference(7);
        let catalog = GameCatalog::generate(42, 6);
        let config = gaugur_core::GAugurConfig {
            plan: gaugur_core::ColocationPlan {
                pairs: 12,
                triples: 4,
                quads: 2,
                seed: 3,
            },
            ..Default::default()
        };
        ModelHandle::from_model(gaugur_core::GAugur::build(&server, &catalog, config))
    }

    // A thread-spawn failure used to `.expect()` (panic) *after* the
    // listener was bound, leaking the already-spawned threads. It must be a
    // returned error with every spawned thread joined and the port released.
    #[test]
    fn worker_spawn_failure_tears_down_cleanly_and_frees_the_port() {
        // Reserve a concrete port so the release is provable afterwards.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);

        let config = DaemonConfig {
            bind: addr.to_string(),
            workers: 4,
            print_stats_on_shutdown: false,
            ..Default::default()
        };
        let mut spawned = 0u32;
        let err = must_fail(
            start_with(config, test_model(), &mut |name, body| {
                spawned += 1;
                // Call 1 is the retrainer; fail on the third worker. The
                // first two workers really run, so teardown must make them
                // exit.
                if spawned == 4 {
                    assert!(name.contains("worker"), "{name}");
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "thread limit reached",
                    ));
                }
                std::thread::Builder::new().name(name).spawn(body)
            }),
            "worker spawn",
        );
        assert!(err.to_string().contains("worker"), "{err}");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        // start_with returned, so teardown joined the live workers and the
        // retrainer; the listener dropped with it — the port binds again.
        TcpListener::bind(addr).expect("port released after teardown");
    }

    #[test]
    fn acceptor_spawn_failure_is_an_error_not_a_panic() {
        let mut calls = 0u32;
        let err = must_fail(
            start_with(
                DaemonConfig {
                    workers: 2,
                    print_stats_on_shutdown: false,
                    ..Default::default()
                },
                test_model(),
                &mut |name, body| {
                    calls += 1;
                    if name.contains("acceptor") {
                        return Err(io::Error::other("no more threads"));
                    }
                    std::thread::Builder::new().name(name).spawn(body)
                },
            ),
            "acceptor spawn",
        );
        assert!(err.to_string().contains("acceptor"), "{err}");
        // Retrainer + both workers were attempted before the acceptor.
        assert_eq!(calls, 4);
    }

    #[test]
    fn an_empty_fleet_is_invalid_input_before_anything_is_bound_or_spawned() {
        // The address is taken: an error other than `InvalidInput` would
        // mean the daemon tried to bind before it checked the fleet.
        let taken = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut calls = 0u32;
        let err = must_fail(
            start_with(
                DaemonConfig {
                    bind: taken.local_addr().unwrap().to_string(),
                    n_servers: 0,
                    print_stats_on_shutdown: false,
                    ..Default::default()
                },
                test_model(),
                &mut |name, body| {
                    calls += 1;
                    std::thread::Builder::new().name(name).spawn(body)
                },
            ),
            "empty fleet",
        );
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert_eq!(calls, 0, "no thread spawned for an empty fleet");
    }

    #[test]
    fn retrainer_spawn_failure_fails_fast_without_spawning_workers() {
        let mut calls = 0u32;
        let err = must_fail(
            start_with(
                DaemonConfig {
                    print_stats_on_shutdown: false,
                    ..Default::default()
                },
                test_model(),
                &mut |_name, _body| {
                    calls += 1;
                    Err(io::Error::other("nope"))
                },
            ),
            "retrainer spawn",
        );
        assert!(err.to_string().contains("retrainer"), "{err}");
        assert_eq!(calls, 1, "no workers attempted after the retrainer fails");
    }
}
