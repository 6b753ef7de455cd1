//! Online prediction latency — the paper's "negligible overhead for online
//! prediction" claim (Sections 1 and 3.6).
//!
//! Gaming requests must be placed the moment they arrive, so the per-request
//! prediction cost is the latency budget that matters. Each timed row is a
//! [`Summary`] over in-process rounds: its spread is within one process.

use gaugur_bench::{repeat, ExperimentContext, Summary};
use gaugur_core::{
    DegradationBatch, FeatureBuffer, GAugur, GAugurConfig, InterferencePredictor, Placement,
};
use gaugur_gamesim::rng::rng_for;
use gaugur_gamesim::{GameId, Resolution};
use gaugur_serve::wire::{Request, Response};
use gaugur_serve::{DaemonConfig, ModelHandle, Reference, RowCounts};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Batch sizes swept by the batched-vs-scalar comparison.
const BATCH_SIZES: [usize; 4] = [1, 8, 32, 128];

/// Rounds per row, and the queries each round of the scalar, batched and
/// `predict_qos` rows times.
const ROUNDS: usize = 11;
const QUERIES_PER_ROUND: usize = 4_000;

/// Queries timed by the scalar `predict_qos` row.
const QOS_QUERIES: usize = 32;

/// The QoS floor of the `predict_qos` row: one of the CM's trained floors,
/// the daemon's default.
const QOS_FLOOR: f64 = 60.0;

/// `n` queries, each a distinct target under three co-runners — the shape
/// one admit produces when scoring every candidate server.
fn queries(ctx: &ExperimentContext, n: usize) -> Vec<(Placement, [Placement; 3])> {
    let res = Resolution::Fhd1080;
    let ids: Vec<_> = ctx.catalog.games().iter().map(|g| g.id).collect();
    (0..n)
        .map(|i| {
            let t = (ids[i % ids.len()], res);
            let o = [
                (ids[(i + 1) % ids.len()], res),
                (ids[(i + 2) % ids.len()], Resolution::Hd720),
                (ids[(i + 3) % ids.len()], res),
            ];
            (t, o)
        })
        .collect()
}

/// Scalar `predict_qos` at [`QOS_FLOOR`] over [`QOS_QUERIES`] queries, in
/// ns per query: one CM evaluation each.
fn qos_scalar(ctx: &ExperimentContext, gaugur: &GAugur) -> Summary {
    let queries = queries(ctx, QOS_QUERIES);
    let reps = QUERIES_PER_ROUND / QOS_QUERIES;
    let mut feasible = 0usize;
    for (t, o) in &queries {
        feasible += usize::from(gaugur.predict_qos(QOS_FLOOR, *t, o));
    }
    let ns = repeat(ROUNDS, || {
        let t0 = Instant::now();
        for _ in 0..reps {
            for (t, o) in &queries {
                feasible += usize::from(gaugur.predict_qos(QOS_FLOOR, *t, o));
            }
        }
        t0.elapsed().as_nanos() as f64 / (reps * QOS_QUERIES) as f64
    });
    std::hint::black_box(feasible);
    eprintln!("prediction_qos_scalar: {ns:.0} ns/query");
    ns
}

/// Shape of the `cold_place` replay: the ledger's `place_cold` workload
/// (100 games at two resolutions on 64 servers, one shard) with its two
/// connections' sessions, each living a mean 64 of its connection's
/// arrivals, folded into one stream living a mean 128 arrivals.
const COLD_SERVERS: usize = 64;
const COLD_GAMES: u32 = 100;
const COLD_LIFETIME: f64 = 128.0;
const COLD_SEED: u64 = 7;
/// Arrivals before the counted ones: the fleet and the memo fill up.
const COLD_WARMUP: u64 = 1_000;
const COLD_ARRIVALS: u64 = 4_000;
/// Replays, each from a fresh [`Reference`].
const COLD_ROUNDS: usize = 5;

/// What the `cold_place` replays measured over their counted arrivals. The
/// counts are the same in every replay; the bench checks that they are.
struct ColdPlace {
    ns_per_place: Summary,
    /// Candidate servers scored, summed over the counted arrivals.
    probes: u64,
    rows: RowCounts,
    places: u64,
}

/// A fixed-seed serial replay of `place_cold`-shaped traffic through a
/// fresh [`Reference`] — the daemon's placement path, one request at a time,
/// no socket and no threads: model work and memo traffic only. Returns the
/// counted arrivals' time in ns, candidate probes and RM rows.
fn cold_replay(model: &GAugur) -> (f64, u64, RowCounts) {
    let config = DaemonConfig {
        n_servers: COLD_SERVERS,
        shards: 1,
        ..DaemonConfig::default()
    };
    let mut reference = Reference::new(&config, ModelHandle::from_model(model.clone()).get())
        .expect("a non-empty fleet");
    let mut rng = rng_for(COLD_SEED, &[0xC01D]);
    let mut departures: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let (mut rows, mut probes, mut started) = (RowCounts::default(), 0, Instant::now());
    for arrival in 0..COLD_WARMUP + COLD_ARRIVALS {
        if arrival == COLD_WARMUP {
            rows = reference.memo().row_counts();
            probes = reference.score_counts().iter().map(|(h, m)| h + m).sum();
            started = Instant::now();
        }
        while departures
            .peek()
            .is_some_and(|Reverse((due, _))| *due <= arrival)
        {
            let Reverse((_, session)) = departures.pop().expect("peeked");
            reference.handle(&Request::Depart { session });
        }
        let game = GameId(rng.gen_range(0..COLD_GAMES));
        let resolution = [Resolution::Hd720, Resolution::Fhd1080][rng.gen_range(0..2usize)];
        let lifetime = (-COLD_LIFETIME * (1.0 - rng.gen::<f64>()).ln())
            .ceil()
            .max(1.0);
        if let Response::Placed { session, .. } =
            reference.handle(&Request::Place { game, resolution })
        {
            departures.push(Reverse((arrival + lifetime as u64, session)));
        }
    }
    let ns = started.elapsed().as_nanos() as f64;
    let end = reference.memo().row_counts();
    let probed: u64 = reference.score_counts().iter().map(|(h, m)| h + m).sum();
    let rows = RowCounts {
        first_stage: end.first_stage - rows.first_stage,
        second_stage: end.second_stage - rows.second_stage,
        whole: end.whole - rows.whole,
    };
    (ns, probed - probes, rows)
}

/// [`COLD_ROUNDS`] replays of [`cold_replay`]. Counts are exact and must
/// repeat; the time is the host's.
fn cold_place(model: &GAugur) -> ColdPlace {
    let places = COLD_ARRIVALS;
    let mut counts = None;
    let ns_per_place = repeat(COLD_ROUNDS, || {
        let (ns, probes, rows) = cold_replay(model);
        let first = *counts.get_or_insert((probes, rows));
        assert_eq!(
            (probes, rows),
            first,
            "a cold_place replay counted different candidate probes or RM rows"
        );
        ns / places as f64
    });
    let (probes, rows) = counts.expect("at least one replay");
    let cold = ColdPlace {
        ns_per_place,
        probes,
        rows,
        places,
    };
    eprintln!(
        "cold_place: {:.0} ns/place, {:.1} candidates/place, per place {:.2} rows stopped \
         after stage 1, {:.2} through all trees",
        cold.ns_per_place,
        probes as f64 / places as f64,
        rows.stopped() as f64 / places as f64,
        rows.through_all_trees() as f64 / places as f64,
    );
    cold
}

/// Time the scalar loop against the fused batch path at each batch size.
/// Returns `(batch size, scalar ns/query, batch ns/query)` rows.
fn batch_vs_scalar(ctx: &ExperimentContext, gaugur: &GAugur) -> Vec<(usize, Summary, Summary)> {
    let mut scratch = FeatureBuffer::new();
    let mut out = Vec::new();
    let mut results = Vec::new();
    let mut sink = 0.0f64;
    for &n in &BATCH_SIZES {
        let queries = queries(ctx, n);
        let mut batch = DegradationBatch::new();
        for (t, o) in &queries {
            batch.push(*t, o);
        }
        let reps = QUERIES_PER_ROUND / n;

        for (t, o) in &queries {
            sink += gaugur.predict_degradation(*t, o);
        }
        let scalar_ns = repeat(ROUNDS, || {
            let t0 = Instant::now();
            for _ in 0..reps {
                for (t, o) in &queries {
                    sink += gaugur.predict_degradation(*t, o);
                }
            }
            t0.elapsed().as_nanos() as f64 / (reps * n) as f64
        });

        gaugur.predict_degradation_batch(&batch, &mut scratch, &mut out);
        sink += out[0];
        let batch_ns = repeat(ROUNDS, || {
            let t0 = Instant::now();
            for _ in 0..reps {
                gaugur.predict_degradation_batch(&batch, &mut scratch, &mut out);
                sink += out[0];
            }
            t0.elapsed().as_nanos() as f64 / (reps * n) as f64
        });

        eprintln!(
            "prediction_batch_vs_scalar n={n}: scalar {scalar_ns:.0} ns/query, \
             batch {batch_ns:.0} ns/query ({:.2}x)",
            scalar_ns.median / batch_ns.median.max(1e-9)
        );
        results.push((n, scalar_ns, batch_ns));
    }
    std::hint::black_box(sink);
    results
}

/// Write the machine-readable report the CI gate checks for. `speedup` is
/// the scalar median over the batched one.
fn emit_report(results: &[(usize, Summary, Summary)], qos_ns: Summary, cold: &ColdPlace) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_prediction.json");
    let rows: Vec<String> = results
        .iter()
        .map(|(n, scalar_ns, batch_ns)| {
            format!(
                "    {{\"batch\": {n}, \"speedup\": {:.2},\n     \
                 \"scalar_ns_per_query\": {scalar_ns:.1},\n     \
                 \"batch_ns_per_query\": {batch_ns:.1}}}",
                scalar_ns.median / batch_ns.median.max(1e-9)
            )
        })
        .collect();
    let per_place = |count: u64| count as f64 / cold.places as f64;
    let json = format!(
        "{{\n  \"benchmark\": \"prediction\",\n  \"unit\": \"ns/query\",\n  \
         {},\n  \"results\": [\n{}\n  ],\n  \
         \"predict_qos\": {{\"floor_fps\": {QOS_FLOOR:.1}, \"queries\": {QOS_QUERIES},\n    \
         \"scalar_ns_per_query\": {qos_ns:.1}}},\n  \
         \"cold_place\": {{\"seed\": {COLD_SEED}, \"servers\": {COLD_SERVERS}, \
         \"places\": {}, \"candidates_per_place\": {:.2},\n    \
         \"rows_stopped_after_stage_1_per_place\": {:.3}, \
         \"rows_through_all_trees_per_place\": {:.3}, \
         \"rows_second_stage_per_place\": {:.3},\n    \
         \"ns_per_place\": {:.0}}}\n}}\n",
        gaugur_bench::host_fields(),
        rows.join(",\n"),
        cold.places,
        per_place(cold.probes),
        per_place(cold.rows.stopped()),
        per_place(cold.rows.through_all_trees()),
        per_place(cold.rows.second_stage),
        cold.ns_per_place,
    );
    std::fs::write(path, json).expect("write BENCH_prediction.json");
    eprintln!("wrote {path}");
}

fn main() {
    let ctx = ExperimentContext::small(1);
    let gaugur =
        GAugur::from_measurements(ctx.profiles.clone(), &ctx.train, GAugurConfig::default());

    // The ledger's model: the paper's 100-game catalog, 60 training
    // colocations, the default configuration.
    let ledger = ExperimentContext::with_scale(1, 100, 72, 16, 16, 60);
    let ledger_model = GAugur::from_measurements(
        ledger.profiles.clone(),
        &ledger.train,
        GAugurConfig::default(),
    );
    let cold = cold_place(&ledger_model);
    drop((ledger, ledger_model));
    emit_report(
        &batch_vs_scalar(&ctx, &gaugur),
        qos_scalar(&ctx, &gaugur),
        &cold,
    );
}
