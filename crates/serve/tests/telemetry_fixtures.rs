//! Characterisation of everything the daemon renders from its telemetry:
//! the `Stats` JSON, the Prometheus exposition, the `SloReport` JSON and
//! both `Display` tables, compared byte for byte against fixtures generated
//! at the commit before the daemon's three counter sinks became one
//! collector (the same script, driven into all three). The exposition and
//! both tables are those bytes still. The two JSON fixtures were
//! re-baselined once, when the windows stopped holding stage histograms and
//! per-shard counters (nothing read them) and a kind's latency became the
//! one histogram type; they moved by exactly those keys. The script touches
//! every request kind (ok and error), every stage, queue waits, place
//! attempts admitted and rejected, outcomes, every lifecycle counter,
//! samples on bucket edges and in the overflow bucket, slow-ring eviction,
//! and three seconds far enough apart that the 10 s window and the longer
//! ones disagree.

use gaugur_serve::slo::{SloConfig, SloEngine};
use gaugur_serve::stats::Writer;
use gaugur_serve::trace::REQUEST_STAGES;
use gaugur_serve::wire::REQUEST_KINDS;
use gaugur_serve::{render_prometheus, Counter::*, RequestTrace, SlowMeta, Telemetry};

/// The script's clock (µs) and the collector it drives: two workers, a
/// four-entry slow ring, started at second 1.
struct Script {
    now_us: u64,
    telemetry: Telemetry,
}

impl Script {
    /// One handled request on `worker`: per-kind outcome and latency, then
    /// its stage samples `[decode, predict, place, place_admit_wait, encode,
    /// write_reply]` and its slow-ring identity `(session, shard, model)`.
    fn request(
        &self,
        worker: usize,
        kind: &str,
        ok: bool,
        latency_us: u64,
        stages: [u64; 6],
        meta: Identity,
    ) {
        let mut trace = RequestTrace::new();
        for (stage, us) in REQUEST_STAGES.iter().zip(stages) {
            trace.add(*stage, us);
        }
        let meta = SlowMeta {
            session: meta.0,
            shard: meta.1,
            model_version: meta.2,
        };
        let is_place = kind == "place" || kind == "place_batch";
        let kind = REQUEST_KINDS.iter().position(|&k| k == kind).unwrap();
        let writer = self.telemetry.writer(worker, self.now_us);
        writer.record(kind, ok, latency_us);
        writer.flush(kind, ok, is_place, &trace, meta);
    }

    /// Both workers' writers, positioned on the current second.
    fn workers(&self) -> (Writer<'_>, Writer<'_>) {
        let writer = |worker| self.telemetry.writer(worker, self.now_us);
        (writer(0), writer(1))
    }
}

type Identity = (Option<u64>, Option<u64>, Option<u64>);
const NOBODY: Identity = (None, None, None);
const DEPARTED: Identity = (Some(1), Some(0), None);
const RELOADED: Identity = (None, None, Some(4));

/// A session placed on `shard` by model version 3.
fn placed(session: u64, shard: u64) -> Identity {
    (Some(session), Some(shard), Some(3))
}

fn run_script() -> Script {
    let mut s = Script {
        now_us: 1_000_000,
        telemetry: Telemetry::new(2, 4, 1_000_000),
    };
    let acceptor = s.telemetry.acceptor();

    // Second 1: the acceptor sheds two of four connections; both workers
    // place, depart and predict.
    s.now_us = 1_200_000;
    let (w0, w1) = s.workers();
    s.telemetry.note(acceptor, Connections, 4);
    s.telemetry.note(acceptor, Overloaded, 1);
    s.telemetry.note(acceptor, ShutdownRejected, 1);
    s.telemetry.note(acceptor, ConnectionsClosed, 2);
    w0.queue_wait(12);
    w1.queue_wait(250);
    w0.place_attempt(3, true);
    w0.note(Admitted, 1);
    s.request(0, "place", true, 40, [5, 20, 10, 0, 2, 3], placed(1, 0));
    w1.place_attempt(4, false);
    s.request(1, "place", true, 38, [4, 0, 30, 1, 2, 2], NOBODY);
    s.request(0, "place", false, 3, [3, 0, 0, 0, 1, 1], NOBODY);
    w1.place_attempt(3, true);
    w1.note(AdmitRetries, 2);
    w1.note(AdmitFallbacks, 1);
    w1.place_attempt(5, true);
    w1.note(Admitted, 2);
    w1.place_attempt(4, false);
    s.request(
        1,
        "place_batch",
        true,
        600,
        [25, 100, 400, 6, 50, 10],
        placed(2, 1),
    );
    s.request(0, "depart", true, 7, [4, 0, 0, 1, 1, 2], DEPARTED);
    w1.note(DepartUnknown, 1);
    s.request(1, "depart", false, 5, [5, 0, 0, 0, 1, 1], NOBODY);
    s.request(0, "predict", true, 10, [6, 10, 0, 0, 2, 3], NOBODY);
    s.request(1, "predict", false, 2, [2, 0, 0, 0, 0, 1], NOBODY);

    // Second 2: feedback, the control plane, two undecodable frames, a
    // rolled-back admission, and a request that overflows the buckets.
    s.now_us = 2_500_000;
    let (w0, w1) = s.workers();
    w0.outcome(3, false, 0.25);
    s.request(0, "report_outcome", true, 9, [3, 0, 0, 0, 1, 2], NOBODY);
    w1.outcome(3, true, 0.75);
    w1.outcome(5, false, 0.0);
    w1.outcome(4, true, f64::NAN);
    s.request(
        1,
        "report_outcome_batch",
        true,
        31,
        [11, 0, 0, 0, 2, 4],
        NOBODY,
    );
    s.request(0, "trigger_retrain", true, 4, [2, 0, 0, 0, 1, 1], NOBODY);
    s.request(0, "trigger_retrain", false, 1, [1, 0, 0, 0, 1, 0], NOBODY);
    s.request(1, "stats", true, 120, [2, 0, 0, 0, 90, 25], NOBODY);
    s.request(1, "metrics", true, 251, [2, 0, 0, 0, 200, 49], NOBODY);
    s.request(0, "slo_status", true, 100, [2, 0, 0, 0, 60, 30], NOBODY);
    s.request(0, "dump_recorder", true, 55, [3, 0, 0, 0, 20, 26], NOBODY);
    s.request(
        1,
        "reload_model",
        true,
        24_000,
        [9, 0, 0, 0, 1, 2],
        RELOADED,
    );
    s.request(1, "reload_model", false, 5_000, [8, 0, 0, 0, 1, 1], NOBODY);
    w0.note(Malformed, 1);
    w1.note(Malformed, 1);
    w0.place_attempt(6, true);
    w0.note(Admitted, 1);
    w0.note(RolledBack, 1);
    let overflow = [1_000_000, 0, 1_000_001, 0, 0, 2_000_000];
    s.request(0, "place", true, 1_000_001, overflow, placed(4, 1));

    // Second 13: the 10 s window has forgotten everything above.
    s.now_us = 13_000_000;
    let (w0, w1) = s.workers();
    w1.queue_wait(0);
    w1.place_attempt(3, true);
    w1.note(Admitted, 1);
    s.request(1, "place", true, 26, [5, 10, 6, 0, 2, 3], placed(6, 1));
    w1.place_attempt(4, false);
    s.request(1, "place", true, 25, [5, 0, 14, 1, 2, 3], NOBODY);
    s.request(0, "shutdown", true, 1, [1, 0, 0, 0, 1, 1], NOBODY);
    w0.note(ConnectionsClosed, 1);
    w1.note(ConnectionsClosed, 1);
    s.now_us = 13_900_000;
    s
}

/// Render what the daemon would from the script's collector, with fixed
/// values in the fields other subsystems own; in fixture-file order.
fn render() -> [(&'static str, String); 5] {
    let Script { now_us, telemetry } = run_script();
    let engine = SloEngine::new(SloConfig::default());
    let (report, _) = engine.evaluate(&telemetry.views(now_us), telemetry.per_game());
    let mut snap = telemetry.snapshot(now_us);
    snap.model_version = 3;
    snap.active_sessions = 5;
    snap.servers = 8;
    snap.shards = 2;
    snap.shard_active_sessions = vec![3, 2];
    (snap.cache_hits, snap.cache_misses) = (900, 100);
    (snap.score_hits, snap.score_misses) = (70, 30);
    (snap.feedback_accepted, snap.feedback_stale) = (4, 1);
    (snap.feedback_dropped, snap.feedback_buffered) = (2, 3);
    (snap.feedback_evicted, snap.feedback_pairs) = (1, 2);
    (snap.drift_score, snap.windowed_mae, snap.drift_trips) = (0.125, 0.0625, 1);
    (snap.retrains_ok, snap.retrains_failed) = (1, 1);
    (snap.last_retrain_ms, snap.last_retrain_samples) = (468, 512);
    snap.slo = Some(report.clone());
    // The exposition names the build profile; the fixture holds a debug
    // build's.
    let metrics = render_prometheus(&snap).replace("profile=\"release\"", "profile=\"debug\"");
    [
        ("stats.json", serde_json::to_string(&snap).unwrap()),
        ("metrics.prom", metrics),
        ("slo.json", serde_json::to_string(&report).unwrap()),
        ("stats.txt", snap.to_string()),
        ("slo.txt", report.to_string()),
    ]
}

#[test]
fn rendered_telemetry_matches_the_parent_generated_fixtures() {
    let fixtures = [
        include_str!("fixtures/stats.json"),
        include_str!("fixtures/metrics.prom"),
        include_str!("fixtures/slo.json"),
        include_str!("fixtures/stats.txt"),
        include_str!("fixtures/slo.txt"),
    ];
    for ((name, actual), expected) in render().into_iter().zip(fixtures) {
        if actual == expected {
            continue;
        }
        let at = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        let dump =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("fixture-{name}"));
        std::fs::write(&dump, &actual).unwrap();
        panic!(
            "{name} differs from its fixture at line {}:\n  got      {:?}\n  expected {:?}\n(full output in {})",
            at + 1,
            actual.lines().nth(at),
            expected.lines().nth(at),
            dump.display()
        );
    }
}
