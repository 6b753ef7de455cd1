//! Request-assignment throughput (Section 5): request arrival rates in a
//! production cloud-gaming front-end make per-request assignment latency a
//! real constraint.

use criterion::{criterion_group, criterion_main, Criterion};
use gaugur_bench::ExperimentContext;
use gaugur_core::{GAugur, GAugurConfig};
use gaugur_gamesim::{GameId, Resolution};
use gaugur_sched::{
    assign_max_fps, pack_requests, random_requests, ColocationTable, FeasibilityReport, GaugurCm,
    PredictorFps,
};

fn bench(c: &mut Criterion) {
    let ctx = ExperimentContext::small(1);
    let gaugur =
        GAugur::from_measurements(ctx.profiles.clone(), &ctx.train, GAugurConfig::default());
    let ids: Vec<GameId> = ctx.catalog.games().iter().take(8).map(|g| g.id).collect();
    let table = ColocationTable::measure(&ctx.server, &ctx.catalog, &ids, Resolution::Fhd1080, 4);
    let report = FeasibilityReport::build(&table, &GaugurCm(&gaugur), 60.0);
    let requests = random_requests(&ids, 500, 3);
    let stream = requests.as_request_stream(4);

    let mut g = c.benchmark_group("scheduling");
    g.sample_size(20);
    g.bench_function("algorithm1_pack_500_requests", |b| {
        b.iter(|| pack_requests(&table, std::hint::black_box(&report.usable), &requests))
    });
    g.bench_function("max_fps_assign_500_requests_200_servers", |b| {
        b.iter(|| {
            assign_max_fps(
                &PredictorFps::rm(&gaugur),
                Resolution::Fhd1080,
                std::hint::black_box(&stream),
                200,
            )
        })
    });
    g.bench_function("feasibility_report_all_subsets", |b| {
        b.iter(|| FeasibilityReport::build(&table, &GaugurCm(&gaugur), 60.0))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
