//! The passes a workload goes through: set-up, verify, end-to-end, traced.

use crate::loadgen::{self, ConnConfig, ConnResult, Phase, PhaseResult, Until, Wire, SLICES};
use crate::measure::{self, Budget, ClientRtt, Window};
use crate::oracle::Oracle;
use crate::span::{self, SpanLog};
use crate::stats::{self, Summary};
use crate::workload::{Kind, Quality, Spec, N_SERVERS};
use crate::{alloc, host, layers};
use gaugur_bench::ExperimentContext;
use gaugur_core::{GAugur, GAugurConfig};
use gaugur_gamesim::GameId;
use gaugur_serve::trace::REQUEST_STAGES;
use gaugur_serve::wire::{Request, Response};
use gaugur_serve::StatsSnapshot;
use gaugur_serve::{daemon, verify_stage_accounting, DaemonConfig, DaemonHandle, ModelHandle};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-layer numbers by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Client connections = daemon workers: a worker owns a connection until
/// it closes, so more connections than workers would wait in the accept
/// queue, and more threads than cores would measure the scheduler.
pub fn connections() -> usize {
    host::nproc().min(2)
}

pub struct Setup {
    pub ctx: ExperimentContext,
    pub model: GAugur,
    /// Profiling + campaign + training + daemon start, over the repeats.
    pub setup_s: Summary,
    pub profile_s: f64,
    pub train_s: f64,
}

/// Build the model every workload serves. Identical for every workload and
/// seed: the paper's 100-game catalog at two resolutions, profiled and
/// trained with `GAugurConfig::default()`. The measured campaign is 104
/// colocations (60 for training) where the paper uses 720 (420): training
/// is linear in samples (22 s at 420 on this host) and the benchmark must
/// set up several times inside a capped run, while inference cost (400
/// trees of depth 5) and the memo working set (the catalog) do not depend
/// on the campaign size.
pub fn set_up(repeats: usize) -> Result<Setup, String> {
    let mut totals = Vec::new();
    let mut profile = Vec::new();
    let mut train = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        let ctx = ExperimentContext::with_scale(1, 100, 72, 16, 16, 60);
        let t1 = Instant::now();
        let model =
            GAugur::from_measurements(ctx.profiles.clone(), &ctx.train, GAugurConfig::default());
        let t2 = Instant::now();
        // Daemon start, up to its first answered frame.
        let handle = start_daemon(&model, 1, connections())?;
        let scraped = scrape(&handle);
        handle.shutdown();
        scraped?;
        profile.push((t1 - t0).as_secs_f64());
        train.push((t2 - t1).as_secs_f64());
        totals.push(t0.elapsed().as_secs_f64());
        last = Some((ctx, model));
    }
    let (ctx, model) = last.expect("at least one repeat");
    let sequential = ctx
        .catalog
        .games()
        .iter()
        .enumerate()
        .all(|(i, g)| g.id == GameId(i as u32));
    if !sequential {
        return Err("catalog game ids are not 0..n: the traffic generator assumes they are".into());
    }
    Ok(Setup {
        ctx,
        model,
        setup_s: Summary::of(&totals),
        profile_s: Summary::of(&profile).median,
        train_s: Summary::of(&train).median,
    })
}

fn start_daemon(model: &GAugur, shards: usize, workers: usize) -> Result<DaemonHandle, String> {
    daemon::start(
        DaemonConfig {
            n_servers: N_SERVERS,
            workers,
            shards,
            print_stats_on_shutdown: false,
            ..DaemonConfig::default()
        },
        ModelHandle::from_model(model.clone()),
    )
    .map_err(|e| format!("daemon start: {e}"))
}

/// The daemon's own `Stats` op over a fresh connection.
fn scrape(handle: &DaemonHandle) -> Result<StatsSnapshot, String> {
    let mut wire = Wire::connect(handle.local_addr())?;
    match loadgen::exchange(&mut wire, &mut Vec::new(), &Request::Stats, None)?.0 {
        Response::Stats(snapshot) => Ok(*snapshot),
        other => Err(format!("Stats was answered with {other:?}")),
    }
}

/// What must hold of the daemon's statistics once every connection has
/// drained: stage accounting reconciles, nothing is still placed, shards
/// add up, and no operation failed.
fn check_quiesced(spec: &Spec, s: &StatsSnapshot) -> Result<(), String> {
    verify_stage_accounting(s).map_err(|e| format!("stage accounting: {e}"))?;
    let failed: u64 = s.per_request.values().map(|r| r.errors).sum();
    let shard_sum: u64 = s.shard_active_sessions.iter().sum();
    let checks = [
        (
            s.active_sessions == 0,
            "sessions still placed after the drain",
        ),
        (
            s.shards == spec.shards,
            "shard count differs from the workload's",
        ),
        (
            shard_sum == s.active_sessions,
            "per-shard sessions do not add up",
        ),
        (
            s.shard_misrouted_sessions == 0,
            "sessions on the wrong shard",
        ),
        (failed == 0, "the daemon counted failed operations"),
        (
            s.malformed_frames == 0,
            "the daemon counted malformed frames",
        ),
        (
            s.overloaded_rejections == 0,
            "the daemon refused connections",
        ),
        (
            s.placements_rolled_back == 0,
            "the daemon rolled placements back",
        ),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, what)) => Err(format!("{what}: {s}")),
        None => Ok(()),
    }
}

/// How to drive a daemon.
struct Drive<'a> {
    conns: usize,
    phases: &'a [Phase],
    /// Record client spans (one log per connection).
    spans: bool,
    /// Keep the latency of every kind of frame, not only placements.
    all_kinds: bool,
}

struct Driven<T> {
    conns: Vec<ConnResult>,
    /// One span log per connection when asked for.
    spans: Vec<SpanLog>,
    /// The daemon's statistics after every connection drained.
    stats: StatsSnapshot,
    /// What `during` returned.
    side: T,
}

impl<T> Driven<T> {
    fn frames(&self) -> u64 {
        self.conns.iter().map(|c| c.frames).sum()
    }

    /// Every connection's result of phase `p`.
    fn phase(&self, p: usize) -> Vec<&PhaseResult> {
        self.conns.iter().map(|c| &c.phases[p]).collect()
    }
}

/// Run the workload's connections against the daemon through the given
/// phases, one thread each, then check the daemon's statistics. `during`
/// runs on the calling thread while the connections work.
fn drive<T>(
    spec: &'static Spec,
    seed: u64,
    handle: &DaemonHandle,
    how: &Drive<'_>,
    during: impl FnOnce() -> T,
) -> Result<Driven<T>, String> {
    let mut wires = Vec::with_capacity(how.conns);
    for _ in 0..how.conns {
        wires.push(Wire::connect(handle.local_addr())?);
    }
    let epoch = Instant::now();
    let (results, side) = std::thread::scope(|scope| {
        let threads: Vec<_> = wires
            .into_iter()
            .enumerate()
            .map(|(c, mut wire)| {
                scope.spawn(move || {
                    let cfg = ConnConfig {
                        spec,
                        seed,
                        connection: c as u64,
                        connections: how.conns as u64,
                        phases: how.phases,
                        epoch,
                        keep_frames: false,
                        all_kinds: how.all_kinds,
                    };
                    let mut spans = how.spans.then(SpanLog::new);
                    let result = loadgen::run_connection(&cfg, &mut wire, spans.as_mut());
                    result.map(|conn| (conn, spans))
                })
            })
            .collect();
        let side = during();
        let results: Vec<_> = threads
            .into_iter()
            .map(|t| t.join().expect("a connection thread does not panic"))
            .collect();
        (results, side)
    });
    let mut conns = Vec::with_capacity(how.conns);
    let mut spans = Vec::new();
    for result in results {
        let (conn, log) = result?;
        conns.push(conn);
        spans.extend(log);
    }
    let stats = scrape(handle)?;
    check_quiesced(spec, &stats)?;
    Ok(Driven {
        conns,
        spans,
        stats,
        side,
    })
}

pub struct Verified {
    pub frames: u64,
    /// Placement quality over the verified arrivals: one connection, so a
    /// pure function of the seed.
    pub quality: Quality,
    /// Heap allocations (and bytes requested) per frame by the whole
    /// process, client and daemon, over the daemon run. The run is a fixed
    /// number of frames on one connection, so the count is a function of
    /// the seed, not of timing.
    pub allocs_per_req: f64,
    pub alloc_bytes_per_req: f64,
    /// Per-layer numbers of the in-process replay.
    pub layers: Layers,
    pub spans: SpanLog,
}

fn first_difference(expected: &[Vec<u8>], got: &[Vec<u8>], requests: &[Vec<u8>]) -> Option<String> {
    let show = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    let at = expected.iter().zip(got).position(|(e, g)| e != g);
    match at {
        Some(i) => Some(format!(
            "frame {i} {}: the replay answers {} and the daemon {}",
            show(&requests[i]),
            show(&expected[i]),
            show(&got[i])
        )),
        None if expected.len() != got.len() => Some(format!(
            "the replay exchanged {} frames and the daemon {}",
            expected.len(),
            got.len()
        )),
        None => None,
    }
}

/// The verify pass: the workload's first `arrivals` arrivals over one
/// connection, once through the in-process replay and once through a
/// one-worker daemon. On a one-shard workload every reply must be
/// byte-identical (server index, `predicted_fps` bits, session ids,
/// departed server); on two shards the kind of every reply is checked.
/// Either way the daemon's statistics must reconcile after the drain.
pub fn verify(
    spec: &'static Spec,
    seed: u64,
    setup: &Setup,
    arrivals: u64,
) -> Result<Verified, String> {
    let phases = [Phase {
        rate: None,
        until: Until::Arrivals(arrivals),
    }];
    let cfg = ConnConfig {
        spec,
        seed,
        connection: 0,
        connections: 1,
        phases: &phases,
        epoch: Instant::now(),
        keep_frames: true,
        all_kinds: false,
    };
    let model = ModelHandle::from_model(setup.model.clone()).get();
    let mut oracle = Oracle::new(model, true);
    let replay = loadgen::run_connection(&cfg, &mut oracle, None)
        .map_err(|e| format!("in-process replay: {e}"))?;
    if oracle.active_sessions() != 0 {
        return Err("the in-process replay left sessions placed".into());
    }

    // The daemon's side: one worker, one connection driven from this
    // thread, with every heap allocation of the process counted.
    let handle = start_daemon(&setup.model, spec.shards, 1)?;
    let run = (|| {
        let mut wire = Wire::connect(handle.local_addr())?;
        let (served, allocs, bytes) =
            alloc::counted(|| loadgen::run_connection(&cfg, &mut wire, None));
        drop(wire);
        check_quiesced(spec, &scrape(&handle)?)?;
        Ok::<_, String>((served?, allocs, bytes))
    })();
    handle.shutdown();
    let (served, allocs, bytes) = run.map_err(|e| format!("daemon run: {e}"))?;
    if spec.shards == 1 {
        if let Some(diff) = first_difference(&replay.replies, &served.replies, &replay.requests) {
            return Err(format!("daemon and in-process replay diverge at {diff}"));
        }
    } else if served.frames != replay.frames {
        // Kinds of reply were checked frame by frame; the sequence of
        // frames depends only on those kinds.
        return Err(format!(
            "the daemon exchanged {} frames and the replay {}",
            served.frames, replay.frames
        ));
    }

    let mut layers = oracle_layers(&oracle);
    layers.insert(
        "wire.allocs_per_frame",
        layers::wire_allocs_per_frame(&replay.requests, &replay.replies)?,
    );
    let spans = oracle
        .trace
        .into_inner()
        .expect("no thread panics while holding a ledger lock")
        .spans
        .expect("the oracle ran with spans");
    Ok(Verified {
        frames: served.frames,
        quality: served.phases[0].quality,
        allocs_per_req: allocs as f64 / served.frames.max(1) as f64,
        alloc_bytes_per_req: bytes as f64 / served.frames.max(1) as f64,
        layers,
        spans,
    })
}

/// `wire` (server side), `memo`, `sched`, `core` and `cluster` numbers from
/// the in-process replay's spans and the layers' public counters.
fn oracle_layers(oracle: &Oracle) -> Layers {
    let trace = oracle
        .trace
        .lock()
        .expect("no thread panics while holding a ledger lock");
    let totals = trace.spans.as_ref().expect("spans on").totals();
    let self_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.self_mean_ns());
    let m = trace.memo;
    let places = m.places.max(1) as f64;
    let (hits, misses) = oracle.memo.counts();
    let (score_hits, score_misses) = oracle.scores.counts();
    let share = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    Layers::from([
        ("wire.decode_request_ns", self_ns("wire.decode_request")),
        ("wire.encode_response_ns", self_ns("wire.encode_response")),
        ("memo.hit_ns", m.hit_ns()),
        ("memo.miss_ns", m.miss_ns()),
        ("memo.hit_share", share(hits, misses)),
        ("memo.lookups_per_place", m.lookups() as f64 / places),
        ("memo.misses_per_place", misses as f64 / places),
        ("memo.entries_end", oracle.memo.len() as f64),
        ("sched.place_self_ns", self_ns("sched.select")),
        ("sched.score_hit_share", share(score_hits, score_misses)),
        ("sched.candidates_per_place", m.candidates as f64 / places),
        ("core.evals_per_place", m.evals / places),
        ("cluster.admit_ns", self_ns("cluster.admit")),
        ("cluster.depart_ns", self_ns("cluster.depart")),
    ])
}

pub struct EndToEnd {
    pub window: Window,
    /// Highest resident set seen at a slice boundary of the window, MiB.
    pub peak_rss_mb: f64,
    pub frames: u64,
}

/// The end-to-end pass, tracing off: a fresh daemon, `connections()`
/// connections, a warm-up, then a window of `secs` seconds in ten slices.
pub fn end_to_end(
    spec: &'static Spec,
    seed: u64,
    setup: &Setup,
    secs: f64,
) -> Result<EndToEnd, String> {
    let warm_up = (secs / 10.0).clamp(0.2, 2.0);
    let phases = [
        Phase {
            rate: None,
            until: Until::Secs(warm_up),
        },
        Phase {
            rate: None,
            until: Until::Secs(secs),
        },
    ];
    let conns = connections();
    let handle = start_daemon(&setup.model, spec.shards, conns)?;
    let how = Drive {
        conns,
        phases: &phases,
        spans: false,
        all_kinds: false,
    };
    let run = drive(spec, seed, &handle, &how, || {
        std::thread::sleep(Duration::from_secs_f64(warm_up));
        let mut peak: f64 = 0.0;
        for _ in 0..SLICES {
            std::thread::sleep(Duration::from_secs_f64(secs / SLICES as f64));
            peak = peak.max(host::status_mib("VmRSS"));
        }
        peak
    });
    handle.shutdown();
    let run = run?;
    Ok(EndToEnd {
        window: measure::window(&run.conns, 1, spec.limit_us),
        peak_rss_mb: run.side,
        frames: run.frames(),
    })
}

/// The workload's connections, closed loop, for `secs` seconds against a
/// fresh daemon, with or without client spans, and the CPU time and context
/// switches of the daemon's threads meanwhile: the same shape as the
/// end-to-end pass, which keeps both vCPUs busy. (With one connection the
/// kernel wakes the worker on the idle vCPU or on the client's own from one
/// run to the next, and the round trip reads 21 or 50 us.)
fn wire_replay(
    spec: &'static Spec,
    seed: u64,
    setup: &Setup,
    secs: f64,
    spans: bool,
) -> Result<(Driven<()>, host::Usage), String> {
    let phases = [Phase {
        rate: None,
        until: Until::Secs(secs),
    }];
    let how = Drive {
        conns: connections(),
        phases: &phases,
        spans,
        all_kinds: true,
    };
    let handle = start_daemon(&setup.model, spec.shards, how.conns)?;
    let before = host::daemon_usage();
    let run = drive(spec, seed, &handle, &how, || ());
    let daemon = host::daemon_usage().since(before);
    handle.shutdown();
    let run = run?;
    if daemon.threads == 0 {
        return Err("no thread named gaugur-serve-* to read CPU time from".into());
    }
    Ok((run, daemon))
}

/// The `daemon` layer: mean µs per handled request of each stage the
/// daemon itself timed (its samples are whole µs), and its retry counters.
fn daemon_layers(s: &StatsSnapshot, out: &mut Layers) -> f64 {
    let handled: u64 = s.per_request.values().map(|r| r.total()).sum();
    let mean = |stage: &str| {
        let st = s.per_stage.get(stage);
        st.map_or(0.0, |st| st.total_us as f64 / st.count.max(1) as f64)
    };
    for (metric, stage) in [
        ("daemon.queue_wait_us", "queue_wait"),
        ("daemon.decode_us", "decode"),
        ("daemon.place_us", "place"),
        ("daemon.predict_us", "predict"),
        ("daemon.place_admit_wait_us", "place_admit_wait"),
        ("daemon.encode_us", "encode"),
        ("daemon.write_reply_us", "write_reply"),
    ] {
        out.insert(metric, mean(stage));
    }
    let stage_sum: u64 = REQUEST_STAGES
        .iter()
        .map(|st| s.per_stage.get(st.name()).map_or(0, |x| x.total_us))
        .sum();
    let stage_sum_us = stage_sum as f64 / handled.max(1) as f64;
    out.insert("daemon.stage_sum_us", stage_sum_us);
    out.insert("daemon.admit_retries", s.place_admit_retries as f64);
    out.insert("daemon.admit_fallbacks", s.place_admit_fallbacks as f64);
    out.insert("daemon.overloaded", s.overloaded_rejections as f64);
    stage_sum_us
}

pub struct Traced {
    pub layers: Layers,
    /// Client spans of the traced wire replay.
    pub spans: SpanLog,
    pub frames: u64,
}

/// The traced pass, about `secs` seconds: isolated layer measurements, a
/// wire replay with client spans and the daemon's `Stats` scrape, the same
/// replay without spans (the difference is the tracing overhead), and on
/// `mixed_open` the three-rate open-loop sweep.
pub fn traced(spec: &'static Spec, seed: u64, setup: &Setup, secs: f64) -> Result<Traced, String> {
    let mut layers = Layers::new();
    let (push_pop, handoff) = layers::queue();
    layers.insert("queue.push_pop_ns", push_pop);
    layers.insert("queue.handoff_ns", handoff);
    let core = layers::core(&setup.model, setup.ctx.catalog.len());
    layers.insert("core.predict_scalar_ns", core.predict_scalar_ns);
    layers.insert(
        "core.predict_batch32_ns_per_query",
        core.predict_batch32_ns_per_query,
    );
    layers.insert("core.predict_qos_ns", core.predict_qos_ns);
    layers.insert(
        "sched.algorithm1_pack_ms",
        layers::algorithm1_pack_ms(&setup.ctx, &setup.model),
    );
    layers.insert("core.profile_s", setup.profile_s);
    layers.insert("core.train_s", setup.train_s);

    let replay_secs = secs * if spec.mixed { 0.2 } else { 0.4 };
    // Which replay goes first alternates with the seed, so neither side of
    // the overhead ratio always runs on the warmer machine.
    let ((with, daemon), (without, _)) = if seed.is_multiple_of(2) {
        let with = wire_replay(spec, seed, setup, replay_secs, true)?;
        (with, wire_replay(spec, seed, setup, replay_secs, false)?)
    } else {
        let without = wire_replay(spec, seed, setup, replay_secs, false)?;
        (wire_replay(spec, seed, setup, replay_secs, true)?, without)
    };
    let n = with.frames().max(1) as f64;
    let totals = span::totals(&with.spans);
    let span_mean_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.self_mean_ns());
    layers.insert("wire.encode_request_ns", span_mean_ns("client.encode"));
    layers.insert("wire.decode_response_ns", span_mean_ns("client.decode"));
    let bytes = |f: fn(&ConnResult) -> u64| with.conns.iter().map(f).sum::<u64>() as f64 / n;
    layers.insert("wire.request_bytes", bytes(|c| c.request_bytes));
    layers.insert("wire.response_bytes", bytes(|c| c.response_bytes));

    let stage_sum_us = daemon_layers(&with.stats, &mut layers);
    let phases = with.phase(0);
    let rtt = ClientRtt::of(&phases);
    let untraced = ClientRtt::of(&without.phase(0));
    let budget = Budget {
        rtt_mean_us: rtt.mean_us,
        client_encode_us: span_mean_ns("client.encode") / 1e3,
        client_decode_us: span_mean_ns("client.decode") / 1e3,
        daemon_stage_sum_us: stage_sum_us,
    };
    let mut quality = Quality::default();
    for p in &phases {
        quality.add(&p.quality);
    }
    for (name, value) in [
        ("client.rtt_mean_us", rtt.mean_us),
        ("client.rtt_p50_us", rtt.p50_us),
        ("client.rtt_p90_us", rtt.p90_us),
        ("client.rtt_p99_us", rtt.p99_us),
        ("client.rtt_p_hi_us", rtt.p_hi_us),
        ("client.p_hi", rtt.p_hi),
        ("client.rtt_max_us", rtt.max_us),
        ("client.samples", rtt.samples as f64),
        ("client.rejected_share", quality.rejected_share()),
        (
            "client.place_p50_us",
            measure::kind_p50_us(&phases, Kind::Place),
        ),
        (
            "client.depart_p50_us",
            measure::kind_p50_us(&phases, Kind::Depart),
        ),
        ("client.unattributed_us", budget.unattributed_us()),
        ("process.cpu_us_per_req", daemon.cpu_us / n),
        ("process.user_cpu_us_per_req", daemon.user_cpu_us / n),
        (
            "process.ctx_switches_per_req",
            daemon.ctx_switches as f64 / n,
        ),
        (
            "trace.overhead_share",
            1.0 - rtt.frames_per_s / untraced.frames_per_s.max(1e-9),
        ),
    ] {
        layers.insert(name, value);
    }

    if spec.mixed {
        layers.insert(
            "client.predict_p50_us",
            measure::kind_p50_us(&phases, Kind::Predict),
        );
        layers.insert(
            "client.report_p50_us",
            measure::kind_p50_us(&phases, Kind::Report),
        );
        open_sweep(spec, seed, setup, secs * 0.15, &mut layers)?;
    }
    let frames = with.frames() + without.frames();
    Ok(Traced {
        layers,
        // The first connection's spans are the ones written out.
        spans: with.spans.into_iter().next().expect("spans were on"),
        frames,
    })
}

/// Offered rates of the open-loop sweep, arrivals/s.
const SWEEP: [(f64, [&str; 3]); 3] = [
    (
        1_000.0,
        [
            "open.r1000.p50_us",
            "open.r1000.p99_us",
            "open.r1000.within_limit_share",
        ],
    ),
    (
        2_500.0,
        [
            "open.r2500.p50_us",
            "open.r2500.p99_us",
            "open.r2500.within_limit_share",
        ],
    ),
    (
        5_000.0,
        [
            "open.r5000.p50_us",
            "open.r5000.p99_us",
            "open.r5000.within_limit_share",
        ],
    ),
];

/// Three open-loop phases on one daemon: latency from the due time at each
/// rate, and the highest rate that keeps 99 % of placements within the
/// limit while leaving less than 1 % of its arrivals unsent (no growing
/// backlog). Latency rises before throughput stops rising, so the 5 000/s
/// phase moves first.
fn open_sweep(
    spec: &'static Spec,
    seed: u64,
    setup: &Setup,
    secs_per_rate: f64,
    layers: &mut Layers,
) -> Result<(), String> {
    // A discarded phase first, so the lowest rate does not pay for the cold
    // memo.
    let phases: Vec<Phase> = std::iter::once(2_500.0)
        .chain(SWEEP.iter().map(|&(rate, _)| rate))
        .map(|rate| Phase {
            rate: Some(rate),
            until: Until::Secs(secs_per_rate),
        })
        .collect();
    let conns = connections();
    let handle = start_daemon(&setup.model, spec.shards, conns)?;
    let how = Drive {
        conns,
        phases: &phases,
        spans: false,
        all_kinds: false,
    };
    let run = drive(spec, seed, &handle, &how, || ());
    handle.shutdown();
    let results = run?.conns;
    let mut max_rate = 0.0;
    let mut late_p99 = 0.0;
    for (p, (rate, names)) in SWEEP.iter().enumerate() {
        let w = measure::window(&results, p + 1, spec.limit_us);
        layers.insert(names[0], w.overall_p50_us);
        layers.insert(names[1], w.overall_p99_us);
        layers.insert(names[2], w.overall_within);
        let backlog = w.abandoned as f64 / w.attempted.max(1) as f64;
        if w.overall_within >= 0.99 && backlog < 0.01 {
            max_rate = *rate;
        }
        if *rate == 2_500.0 {
            late_p99 = w.gen_late_p99_us;
        }
        if *rate == 5_000.0 {
            layers.insert("open.backlog_share_r5000", backlog);
        }
    }
    layers.insert("open.max_rate_within_limit_rps", max_rate);
    layers.insert("client.gen_late_p99_us", late_p99);
    Ok(())
}

/// Loopback echo, spin loop and load average: the host's side of the story.
pub fn host_layers() -> Layers {
    Layers::from([
        ("host.nproc", host::nproc() as f64),
        ("host.echo_rtt_p50_us", host::echo_rtt_p50_us()),
        ("host.spin_ms", host::spin_ms()),
        ("host.loadavg_1m", host::loadavg_1m()),
    ])
}

/// Mean of two readings taken before and after a workload.
pub fn mean_of(before: &Layers, after: &Layers) -> Layers {
    before
        .iter()
        .map(|(&k, &v)| (k, stats::mean(&[v, after.get(k).copied().unwrap_or(v)])))
        .collect()
}
