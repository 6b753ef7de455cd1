//! Offline model-training cost (paper Section 3.6: "the overhead of model
//! training is also O(N)"). Times the models the pipeline actually ships —
//! the gradient-boosted RM and CM and the whole of
//! `GAugur::from_measurements` — on the performance ledger's campaign and
//! on the paper's, writes `BENCH_training.json`, and compares the paper's
//! four algorithm families on the RM task at a fixed training-set size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gaugur_bench::ExperimentContext;
use gaugur_core::{
    build_cm_samples, build_rm_samples, to_dataset, Algorithm, ClassificationModel, GAugur,
    GAugurConfig, RegressionModel, ALL_ALGORITHMS,
};
use gaugur_ml::Dataset;
use std::time::Instant;

/// Wall time of `f` in seconds over `runs` runs — (median, min, max) — and
/// what the last run returned.
fn time_s<T>(runs: usize, mut f: impl FnMut() -> T) -> ((f64, f64, f64), T) {
    let mut last = None;
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            last = Some(std::hint::black_box(f()));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let timing = (samples[runs / 2], samples[0], samples[runs - 1]);
    (timing, last.expect("at least one run"))
}

fn timing_json((median, min, max): (f64, f64, f64)) -> String {
    format!("{{\"median_s\": {median:.3}, \"min_s\": {min:.3}, \"max_s\": {max:.3}}}")
}

fn shape_json(data: &Dataset, trees: usize) -> String {
    format!(
        "\"samples\": {}, \"features\": {}, \"trees\": {trees}",
        data.len(),
        data.width()
    )
}

/// One `"scales"` entry: RM fit, CM fit and the whole `from_measurements`
/// on `ctx`'s training campaign with the default (gradient-boosting) config.
fn scale_json(name: &str, ctx: &ExperimentContext, runs: usize) -> String {
    let config = GAugurConfig::default();
    let rm_data = to_dataset(&build_rm_samples(&ctx.profiles, &ctx.train));
    let cm_data = to_dataset(&build_cm_samples(
        &ctx.profiles,
        &ctx.train,
        &config.qos_values,
    ));
    let algo = Algorithm::GradientBoosting;

    let (rm, rm_model) = time_s(runs, || RegressionModel::train(&rm_data, algo, config.seed));
    let (cm, cm_model) = time_s(runs, || {
        ClassificationModel::train(&cm_data, algo, config.seed)
    });
    let (whole, _) = time_s(runs, || {
        GAugur::from_measurements(ctx.profiles.clone(), &ctx.train, config.clone())
    });
    eprintln!(
        "training[{name}]: RM {}x{} {:.3} s, CM {}x{} {:.3} s, from_measurements {:.3} s \
         (medians of {runs})",
        rm_data.len(),
        rm_data.width(),
        rm.0,
        cm_data.len(),
        cm_data.width(),
        cm.0,
        whole.0
    );
    format!(
        "\n    {{\"scale\": \"{name}\", \"train_colocations\": {}, \"runs\": {runs},\n     \
         \"rm_gbrt\": {{{}, \"fit\": {}}},\n     \
         \"cm_gbdt\": {{{}, \"fit\": {}}},\n     \
         \"from_measurements\": {}}}",
        ctx.train.len(),
        shape_json(&rm_data, rm_model.n_trees()),
        timing_json(rm),
        shape_json(&cm_data, cm_model.n_trees()),
        timing_json(cm),
        timing_json(whole)
    )
}

/// Write the machine-readable report the CI gate checks for.
fn emit_report() {
    let scales = [
        scale_json(
            "ledger",
            &ExperimentContext::with_scale(1, 100, 72, 16, 16, 60),
            5,
        ),
        scale_json("paper", &ExperimentContext::standard(1), 3),
    ];
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_training.json");
    let json = format!(
        "{{\n  \"benchmark\": \"training\",\n  \"unit\": \"s\",\n  {},\n  \"scales\": [{}\n  ]\n}}\n",
        gaugur_bench::host_fields(),
        scales.join(",")
    );
    std::fs::write(path, json).expect("write BENCH_training.json");
    eprintln!("wrote {path}");
}

fn bench(c: &mut Criterion) {
    emit_report();

    let ctx = ExperimentContext::small(1);
    let samples = build_rm_samples(&ctx.profiles, &ctx.train);
    let data = to_dataset(&samples[..samples.len().min(200)]);

    let mut g = c.benchmark_group("rm_training_200_samples");
    g.sample_size(10);
    for algo in ALL_ALGORITHMS {
        g.bench_with_input(
            BenchmarkId::new("train", algo.regression_name()),
            &algo,
            |b, &algo| b.iter(|| RegressionModel::train(std::hint::black_box(&data), algo, 1)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
