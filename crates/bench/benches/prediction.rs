//! Online prediction latency — the paper's "negligible overhead for online
//! prediction" claim (Sections 1 and 3.6).
//!
//! Gaming requests must be placed the moment they arrive, so the per-request
//! prediction cost is the latency budget that matters.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gaugur_baselines::{InterferencePredictor, SigmoidPredictor, SmitePredictor, VbpPolicy};
use gaugur_bench::ExperimentContext;
use gaugur_core::{DegradationBatch, FeatureBuffer, GAugur, GAugurConfig, Placement};
use gaugur_gamesim::Resolution;
use std::time::Instant;

/// Batch sizes swept by the batched-vs-scalar comparison.
const BATCH_SIZES: [usize; 4] = [1, 8, 32, 128];

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
fn qos_scalar(ctx: &ExperimentContext, gaugur: &GAugur) -> f64 {
    let queries = queries(ctx, QOS_QUERIES);
    let reps = 20_000 / QOS_QUERIES;
    let mut feasible = 0usize;
    for (t, o) in &queries {
        feasible += usize::from(gaugur.predict_qos(QOS_FLOOR, *t, o));
    }
    let t0 = Instant::now();
    for _ in 0..reps {
        for (t, o) in &queries {
            feasible += usize::from(gaugur.predict_qos(QOS_FLOOR, *t, o));
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / (reps * QOS_QUERIES) as f64;
    std::hint::black_box(feasible);
    eprintln!("prediction_qos_scalar: {ns:.0} ns/query");
    ns
}

/// Time the scalar loop against the fused batch path at each batch size.
/// Returns `(batch size, scalar ns/query, batch ns/query)` rows.
fn batch_vs_scalar(ctx: &ExperimentContext, gaugur: &GAugur) -> Vec<(usize, f64, f64)> {
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
        let reps = (20_000 / n).max(20);

        for (t, o) in &queries {
            sink += gaugur.predict_degradation(*t, o);
        }
        let t0 = Instant::now();
        for _ in 0..reps {
            for (t, o) in &queries {
                sink += gaugur.predict_degradation(*t, o);
            }
        }
        let scalar_ns = t0.elapsed().as_nanos() as f64 / (reps * n) as f64;

        gaugur.predict_degradation_batch(&batch, &mut scratch, &mut out);
        sink += out[0];
        let t1 = Instant::now();
        for _ in 0..reps {
            gaugur.predict_degradation_batch(&batch, &mut scratch, &mut out);
            sink += out[0];
        }
        let batch_ns = t1.elapsed().as_nanos() as f64 / (reps * n) as f64;

        eprintln!(
            "prediction_batch_vs_scalar n={n}: scalar {scalar_ns:.0} ns/query, \
             batch {batch_ns:.0} ns/query ({:.2}x)",
            scalar_ns / batch_ns.max(1e-9)
        );
        results.push((n, scalar_ns, batch_ns));
    }
    std::hint::black_box(sink);
    results
}

/// Write the machine-readable report the CI gate checks for.
fn emit_report(results: &[(usize, f64, f64)], qos_ns: f64) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_prediction.json");
    let mut rows = String::new();
    for (i, &(n, scalar_ns, batch_ns)) in results.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&format!(
            "\n    {{\"batch\": {n}, \"scalar_ns_per_query\": {scalar_ns:.1}, \
             \"batch_ns_per_query\": {batch_ns:.1}, \"speedup\": {:.2}}}",
            scalar_ns / batch_ns.max(1e-9)
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"prediction\",\n  \"unit\": \"ns/query\",\n  \
         {},\n  \"results\": [{rows}\n  ],\n  \
         \"predict_qos\": {{\"floor_fps\": {QOS_FLOOR:.1}, \"queries\": {QOS_QUERIES}, \
         \"scalar_ns_per_query\": {qos_ns:.1}}}\n}}\n",
        gaugur_bench::host_fields()
    );
    std::fs::write(path, json).expect("write BENCH_prediction.json");
    eprintln!("wrote {path}");
}

fn bench(c: &mut Criterion) {
    let ctx = ExperimentContext::small(1);
    let gaugur =
        GAugur::from_measurements(ctx.profiles.clone(), &ctx.train, GAugurConfig::default());
    let sigmoid = SigmoidPredictor::train(ctx.profiles.clone(), &ctx.train);
    let smite = SmitePredictor::train(ctx.profiles.clone(), &ctx.train);
    let vbp = VbpPolicy::from_catalog(&ctx.catalog);

    let res = Resolution::Fhd1080;
    let target: Placement = (ctx.catalog[0].id, res);
    let others: Vec<Placement> = vec![
        (ctx.catalog[1].id, res),
        (ctx.catalog[2].id, res),
        (ctx.catalog[3].id, res),
    ];
    let members: Vec<Placement> = std::iter::once(target).chain(others.clone()).collect();

    emit_report(&batch_vs_scalar(&ctx, &gaugur), qos_scalar(&ctx, &gaugur));

    let mut g = c.benchmark_group("online_prediction");
    g.bench_function("gaugur_cm_qos", |b| {
        b.iter(|| gaugur.predict_qos(60.0, std::hint::black_box(target), &others))
    });
    g.bench_function("gaugur_rm_degradation", |b| {
        b.iter(|| gaugur.predict_degradation(std::hint::black_box(target), &others))
    });
    g.bench_function("gaugur_cm_full_colocation", |b| {
        b.iter(|| gaugur.colocation_feasible(60.0, std::hint::black_box(&members)))
    });
    g.bench_function("sigmoid_degradation", |b| {
        b.iter(|| sigmoid.predict_degradation(std::hint::black_box(target), &others))
    });
    g.bench_function("smite_degradation", |b| {
        b.iter(|| smite.predict_degradation(std::hint::black_box(target), &others))
    });
    g.bench_function("vbp_feasible", |b| {
        b.iter(|| vbp.feasible(std::hint::black_box(&members)))
    });
    g.finish();

    // Feature assembly alone (shows the model evaluation dominates).
    let mut g = c.benchmark_group("feature_assembly");
    let profile = ctx.profiles.get(target.0);
    g.bench_function("rm_features", |b| {
        b.iter_batched(
            || ctx.profiles.intensities(&others),
            |ints| gaugur_core::features::rm_features(std::hint::black_box(profile), &ints),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
