//! Offline profiling and model-training cost (paper Section 3.6: both are
//! O(N) in the number of games). Times one game's contention profile at the
//! shipped granularity, then the models the pipeline actually ships — the
//! gradient-boosted RM and CM and the whole of `GAugur::from_measurements` —
//! on the performance ledger's campaign and on the paper's, and writes
//! `BENCH_training.json`. Each timed row is a [`Summary`] over in-process
//! runs: its spread is within one process.

use gaugur_bench::{repeat, ExperimentContext, Summary};
use gaugur_core::{
    build_cm_samples, build_rm_samples, to_dataset, Algorithm, ClassificationModel, GAugur,
    GAugurConfig, Profiler, ProfilingConfig, RegressionModel,
};
use gaugur_gamesim::{GameCatalog, Server};
use gaugur_ml::Dataset;
use std::hint::black_box;
use std::time::Instant;

/// Wall time of `f` in seconds.
fn seconds<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = black_box(f());
    (t0.elapsed().as_secs_f64(), out)
}

fn shape_json(data: &Dataset, trees: usize) -> String {
    format!(
        "\"samples\": {}, \"features\": {}, \"trees\": {trees}",
        data.len(),
        data.width()
    )
}

/// The `"profile_game"` object: one game's contention profile at the
/// shipped granularity, in ms. Profiling is one such call per game.
fn profile_json() -> String {
    const ROUNDS: usize = 11;
    let server = Server::reference(1);
    let catalog = GameCatalog::generate(42, 10);
    let profiler = Profiler::new(ProfilingConfig::default());
    let ms = repeat(ROUNDS, || {
        seconds(|| profiler.profile_game(&server, black_box(&catalog[0]))).0 * 1e3
    });
    eprintln!(
        "profile_game: {ms:.2} ms at k = {}",
        profiler.config.granularity
    );
    format!(
        "{{\"granularity\": {}, \"ms_per_game\": {ms:.3}}}",
        profiler.config.granularity
    )
}

/// One `"scales"` entry: RM fit, CM fit and the whole `from_measurements`
/// on `ctx`'s training campaign with the default (gradient-boosting) config,
/// each timed `runs` times.
fn scale_json(name: &str, ctx: &ExperimentContext, runs: usize) -> String {
    let config = GAugurConfig::default();
    let rm_data = to_dataset(&build_rm_samples(&ctx.profiles, &ctx.train));
    let cm_data = to_dataset(&build_cm_samples(
        &ctx.profiles,
        &ctx.train,
        &config.qos_values,
    ));
    let algo = Algorithm::GradientBoosting;

    let (mut rm_trees, mut cm_trees) = (0, 0);
    let rm: Summary = repeat(runs, || {
        let (s, model) = seconds(|| RegressionModel::train(&rm_data, algo, config.seed));
        rm_trees = model.n_trees();
        s
    });
    let cm = repeat(runs, || {
        let (s, model) = seconds(|| ClassificationModel::train(&cm_data, algo, config.seed));
        cm_trees = model.n_trees();
        s
    });
    let whole = repeat(runs, || {
        seconds(|| GAugur::from_measurements(ctx.profiles.clone(), &ctx.train, config.clone())).0
    });
    eprintln!(
        "training[{name}]: RM {}x{} {rm:.3} s, CM {}x{} {cm:.3} s, from_measurements {whole:.3} s",
        rm_data.len(),
        rm_data.width(),
        cm_data.len(),
        cm_data.width(),
    );
    format!(
        "\n    {{\"scale\": \"{name}\", \"train_colocations\": {},\n     \
         \"rm_gbrt\": {{{}, \"fit\": {rm:.3}}},\n     \
         \"cm_gbdt\": {{{}, \"fit\": {cm:.3}}},\n     \
         \"from_measurements\": {whole:.3}}}",
        ctx.train.len(),
        shape_json(&rm_data, rm_trees),
        shape_json(&cm_data, cm_trees),
    )
}

/// Write the machine-readable report the CI gate checks for.
fn main() {
    let profile = profile_json();
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
        "{{\n  \"benchmark\": \"training\",\n  \"unit\": \"s\",\n  {},\n  \
         \"profile_game\": {profile},\n  \"scales\": [{}\n  ]\n}}\n",
        gaugur_bench::host_fields(),
        scales.join(",")
    );
    std::fs::write(path, json).expect("write BENCH_training.json");
    eprintln!("wrote {path}");
}
