//! Feedback-loop overhead: outcome ingestion on the serving path and the
//! warm-start retrain that turns buffered outcomes into a fresh artifact.
//!
//! Ingestion sits on the daemon's request path, so its per-report cost must
//! be negligible next to a placement (~µs); the retrain runs on a background
//! thread, so what matters there is wall time staying in the low seconds at
//! realistic buffer sizes (it bounds how fast the loop can react to drift).
//! Each timed row is a [`Summary`] over in-process rounds: its spread is
//! within one process.

use gaugur_bench::{repeat, ExperimentContext, Summary};
use gaugur_core::{GAugur, GAugurConfig, Placement, SessionOutcome};
use gaugur_gamesim::{GameId, Resolution};
use gaugur_serve::{DriftDetector, Feedback, FeedbackConfig, OutcomeRecord};
use std::time::Instant;

/// Rounds per row.
const ROUNDS: usize = 11;

/// Synthesize `n` pair outcomes whose observed FPS sits a fixed factor
/// below the model's prediction — the drifted-environment shape the
/// retrain path exists for.
fn outcomes(gaugur: &GAugur, ids: &[GameId], n: usize) -> Vec<SessionOutcome> {
    let res = Resolution::Fhd1080;
    (0..n)
        .map(|i| {
            let target: Placement = (ids[i % ids.len()], res);
            let others: Vec<Placement> = vec![(ids[(i + 1 + i % 3) % ids.len()], res)];
            let observed_fps = 0.85 * gaugur.predict_fps(target, &others);
            SessionOutcome {
                target,
                others,
                observed_fps,
            }
        })
        .collect()
}

/// Per-report ingestion cost, single-threaded and across 4 threads (the
/// sharded buffer's contention story), each round into a fresh buffer.
/// Returns `(µs/report single, reports/s over 4 threads)`.
fn ingest_costs(gaugur: &GAugur, ids: &[GameId]) -> (Summary, Summary) {
    const N: usize = 100_000;
    let records: Vec<(OutcomeRecord, f64)> = outcomes(gaugur, ids, 512)
        .into_iter()
        .map(|o| {
            let predicted = o.observed_fps / 0.85;
            (
                OutcomeRecord {
                    target: o.target,
                    others: o.others,
                    observed_fps: o.observed_fps,
                },
                predicted,
            )
        })
        .collect();

    let single_us = repeat(ROUNDS, || {
        let feedback = Feedback::new(FeedbackConfig::default());
        let t0 = Instant::now();
        for i in 0..N {
            let (record, predicted) = &records[i % records.len()];
            feedback.ingest(record.clone(), *predicted, false);
        }
        t0.elapsed().as_secs_f64() * 1e6 / N as f64
    });

    let mt_rps = repeat(ROUNDS, || {
        let feedback = Feedback::new(FeedbackConfig::default());
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let feedback = &feedback;
                let records = &records;
                scope.spawn(move || {
                    for i in 0..N / 4 {
                        let (record, predicted) = &records[(t * 31 + i) % records.len()];
                        feedback.ingest(record.clone(), *predicted, false);
                    }
                });
            }
        });
        N as f64 / t0.elapsed().as_secs_f64()
    });
    (single_us, mt_rps)
}

/// Page–Hinkley + windowed-MAE update cost per observation, in ns.
fn drift_observe_ns() -> Summary {
    const N: usize = 100_000;
    let ns = repeat(ROUNDS, || {
        let mut detector = DriftDetector::new(256, 0.005, 2.5);
        let t0 = Instant::now();
        for i in 0..N {
            detector.observe(0.05 + 0.01 * ((i % 7) as f64));
        }
        let ns = t0.elapsed().as_secs_f64() * 1e9 / N as f64;
        assert!(detector.observations() as usize == N);
        // The post-retrain reset clears the whole state, window included.
        detector.reset();
        assert_eq!(detector.windowed_mae(), 0.0);
        assert_eq!(detector.observations(), 0);
        ns
    });
    // Drift updates ride the request path (one per fresh outcome report), so
    // they share tracing's overhead budget: well under a microsecond each.
    assert!(
        ns.median < 1_000.0,
        "drift observation blew its overhead budget: {:.1} ns",
        ns.median
    );
    ns
}

/// Warm-start retrain wall time over a realistic buffer, in ms.
fn retrain_ms(gaugur: &GAugur, ids: &[GameId], samples: usize) -> Summary {
    let data = outcomes(gaugur, ids, samples);
    repeat(ROUNDS, || {
        let t0 = Instant::now();
        let (retrained, report) = gaugur
            .retrain_from_outcomes(&data, 60)
            .expect("synthetic outcomes are usable");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(report.samples_used, samples);
        assert!(retrained.profiles.len() == gaugur.profiles.len());
        ms
    })
}

/// Write the machine-readable report the CI gate checks for.
fn emit_report(
    single_us: Summary,
    mt_rps: Summary,
    observe_ns: Summary,
    warm_ms: Summary,
    samples: usize,
) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_feedback.json");
    let json = format!(
        "{{\n  \"benchmark\": \"feedback\",\n  {},\n  \
         \"ingest_us_per_report\": {single_us:.3},\n  \
         \"ingest_4threads_reports_per_s\": {mt_rps:.0},\n  \
         \"drift_observe_ns\": {observe_ns:.1},\n  \
         \"retrain_warm_start_ms\": {warm_ms:.1},\n  \
         \"retrain_samples\": {samples}\n}}\n",
        gaugur_bench::host_fields(),
    );
    std::fs::write(path, json).expect("write BENCH_feedback.json");
    eprintln!("wrote {path}");
}

fn main() {
    let ctx = ExperimentContext::small(1);
    let gaugur =
        GAugur::from_measurements(ctx.profiles.clone(), &ctx.train, GAugurConfig::default());
    let ids: Vec<GameId> = ctx.catalog.games().iter().map(|g| g.id).collect();

    let (single_us, mt_rps) = ingest_costs(&gaugur, &ids);
    eprintln!(
        "feedback_ingest: {single_us:.3} µs/report single-threaded, \
         {mt_rps:.0} reports/s over 4 threads"
    );
    let observe_ns = drift_observe_ns();
    eprintln!("drift_observe: {observe_ns:.1} ns/observation");
    const SAMPLES: usize = 512;
    let warm_ms = retrain_ms(&gaugur, &ids, SAMPLES);
    eprintln!("retrain_warm_start: {warm_ms:.1} ms over {SAMPLES} outcomes (60 extra rounds)");
    emit_report(single_us, mt_rps, observe_ns, warm_ms, SAMPLES);
}
