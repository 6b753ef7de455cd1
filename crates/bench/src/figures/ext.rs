//! Extension experiments — the paper's Section 7 discussion points and
//! Section 8 future-work items, implemented and measured:
//!
//! 1. **Temporal QoS violations** (Sec. 7): dynamic scenes make mean-FPS
//!    feasibility optimistic; a conservative margin trades capacity for
//!    fewer dips.
//! 2. **Server heterogeneity** (future work #1): how well does a model
//!    trained on one hardware class transfer to another, vs retraining?
//! 3. **Collaborative-filtering profiling** (related work \[13, 14\]): how
//!    much profiling cost can ALS completion save before accuracy suffers?
//! 4. **Dynamic sessions**: live arrivals/departures under three placement
//!    policies, measured end to end.

use crate::context::ExperimentContext;
use crate::figures::common::eval_records;
use crate::table::{f, pct, Table};
use gaugur_baselines::VbpPolicy;
use gaugur_core::cf::{profile_catalog_cf, CfConfig};
use gaugur_core::features::rm_features;
use gaugur_core::{
    measure_colocations, plan_colocations, Algorithm, ColocationPlan, ProfileStore, Profiler,
    ProfilingConfig, RegressionModel,
};
use gaugur_gamesim::{Resolution, Server, Workload, ALL_SERVER_CLASSES};
use gaugur_sched::{simulate_dynamic, DynamicConfig, Policy, PredictorFps};

/// Run all four extension experiments.
pub fn run(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    out.push_str(&temporal_qos(ctx));
    out.push('\n');
    out.push_str(&heterogeneity(ctx));
    out.push('\n');
    out.push_str(&cf_profiling(ctx));
    out.push('\n');
    out.push_str(&dynamic_sessions(ctx));
    out
}

/// Extension 1: temporary QoS violations under dynamic scenes.
fn temporal_qos(ctx: &ExperimentContext) -> String {
    let res = Resolution::Fhd1080;
    let qos = 60.0;
    let games = ctx.scheduling_games();

    // Find pairs whose *mean* colocated FPS clears the bar, then replay
    // them with dynamic scenes.
    let mut rows = Vec::new();
    let mut mean_feasible = 0usize;
    let mut dips = 0usize;
    let mut conservative_kept = 0usize;
    let mut conservative_dips = 0usize;
    let margin = 1.12; // ≈ the scene swing a worst-case alignment adds

    for i in 0..games.len() {
        for j in (i + 1)..games.len() {
            let a = ctx.catalog.get(games[i]).expect("id");
            let b = ctx.catalog.get(games[j]).expect("id");
            let pair = [Workload::game(a, res), Workload::game(b, res)];
            let steady = ctx.server.measure_colocation(&pair);
            let min_member = (0..2)
                .map(|k| steady.game_fps(k).expect("game"))
                .fold(f64::INFINITY, f64::min);
            if min_member < qos {
                continue;
            }
            mean_feasible += 1;
            let ts = ctx.server.measure_timeseries(&pair, 600.0, 2.0);
            let viol = (0..2)
                .map(|k| ts.violation_rate(k, qos))
                .fold(0.0_f64, f64::max);
            if viol > 0.0 {
                dips += 1;
            }
            let conservative_ok = min_member >= qos * margin;
            if conservative_ok {
                conservative_kept += 1;
                if viol > 0.0 {
                    conservative_dips += 1;
                }
            }
            if rows.len() < 8 {
                rows.push((
                    format!("{} + {}", a.name, b.name),
                    min_member,
                    viol,
                    conservative_ok,
                ));
            }
        }
    }

    let mut t = Table::new(["pair", "min mean FPS", "time below QoS", "kept by margin"]);
    for (name, fps, viol, kept) in rows {
        t.row([name, f(fps, 1), pct(viol), kept.to_string()]);
    }
    format!(
        "== Extension 1: temporary QoS violations under dynamic scenes (Sec. 7) ==\n\
         {}\nOf {mean_feasible} mean-feasible pairs, {dips} dip below {qos} FPS at least once\n\
         during a 10-minute window. A {:.0}% headroom margin keeps {conservative_kept} pairs,\n\
         of which {conservative_dips} still dip — conservative profiling trades capacity for\n\
         steadier QoS, exactly the Section 7 trade-off.\n",
        t.render(),
        (margin - 1.0) * 100.0
    )
}

/// Extension 2: cross-hardware-class transfer.
fn heterogeneity(ctx: &ExperimentContext) -> String {
    let plan = ColocationPlan {
        pairs: 120,
        triples: 30,
        quads: 20,
        seed: 0xE2,
    };
    let profiler = Profiler::new(ProfilingConfig::default());

    // Reference-trained model (reuses the context's profiles + campaign).
    let ref_pool = crate::figures::common::rm_training_pool(ctx, 0xF167);
    let ref_data = crate::figures::common::take_dataset(&ref_pool, 1000);
    let ref_model = RegressionModel::train(&ref_data, Algorithm::GradientBoosting, 7);

    let mut t = Table::new([
        "evaluation class",
        "transfer (ref-trained, ref profiles)",
        "retrained on class",
    ]);
    let mut errors = Vec::new();
    for class in ALL_SERVER_CLASSES {
        let server = Server::of_class(ctx.server.seed ^ 0xC1A5, class);
        let colocs = plan_colocations(&ctx.catalog, &plan);
        let mut measured = measure_colocations(&server, &ctx.catalog, &colocs);
        // Shuffle before splitting so both halves span all colocation sizes.
        use rand::seq::SliceRandom;
        measured.shuffle(&mut gaugur_gamesim::rng::rng_for(plan.seed, &[0xE2_5F]));
        let (train, test) = measured.split_at(measured.len() * 2 / 3);

        // Class-native profiles anchor both labels and the retrained model.
        let class_profiles = ProfileStore::new(profiler.profile_catalog(&server, &ctx.catalog));

        let err_with = |model: &RegressionModel, profiles: &ProfileStore| -> f64 {
            let mut errs = Vec::new();
            for m in test {
                for (i, &(id, res)) in m.members.iter().enumerate() {
                    let others: Vec<_> = m
                        .members
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, &p)| p)
                        .collect();
                    let actual =
                        (m.fps[i] / class_profiles.get(id).solo_fps_at(res)).clamp(0.01, 1.2);
                    let pred = model.predict(&rm_features(
                        profiles.get(id),
                        &profiles.intensities(&others),
                    ));
                    errs.push((pred - actual).abs() / actual);
                }
            }
            errs.iter().sum::<f64>() / errs.len().max(1) as f64
        };

        // Transfer: reference-trained model fed reference-class profiles.
        let transfer = err_with(&ref_model, &ctx.profiles);

        // Retrain: class profiles, class campaign.
        let retrain_samples = gaugur_core::build_rm_samples(&class_profiles, train);
        let retrain_data = gaugur_core::to_dataset(&retrain_samples);
        let retrained = RegressionModel::train(&retrain_data, Algorithm::GradientBoosting, 7);
        let retrain_err = err_with(&retrained, &class_profiles);

        t.row([class.to_string(), pct(transfer), pct(retrain_err)]);
        errors.push((class.to_string(), transfer, retrain_err));
    }
    format!(
        "== Extension 2: server heterogeneity (future work #1) ==\n{}{}",
        t.render(),
        heterogeneity_reading(&errors)
    )
}

/// What the heterogeneity table says, read from its rows: `(class,
/// transfer error, retrained error)`, the training class first and then by
/// hardware distance from it.
fn heterogeneity_reading(errors: &[(String, f64, f64)]) -> String {
    let transfer: Vec<f64> = errors.iter().map(|e| e.1).collect();
    let trend = if transfer.windows(2).all(|w| w[1] > w[0]) {
        "grows with"
    } else if transfer.windows(2).all(|w| w[1] < w[0]) {
        "falls with"
    } else {
        "does not grow steadily with"
    };
    let wins: Vec<&str> = errors
        .iter()
        .filter(|e| e.2 < e.1)
        .map(|e| e.0.as_str())
        .collect();
    let wins = match wins.as_slice() {
        [] => "no class".to_string(),
        wins => format!("the {}", wins.join(" and the ")),
    };
    format!(
        "Transfer error {trend} hardware distance from the training class.\n\
         Retrained on each class's smaller campaign (~110 colocations), the\n\
         model beats transfer on {wins}.\n"
    )
}

/// Extension 3: profiling-cost reduction via collaborative filtering.
fn cf_profiling(ctx: &ExperimentContext) -> String {
    let profiler = Profiler::new(ProfilingConfig::default());
    let mut t = Table::new(["profiling scheme", "sweep cost", "GBRT test error"]);

    let records = eval_records(ctx, &ctx.test);
    let eval = |profiles: &ProfileStore| -> f64 {
        let samples = gaugur_core::build_rm_samples(profiles, &ctx.train);
        let data = gaugur_core::to_dataset(&samples[..1000.min(samples.len())]);
        let model = RegressionModel::train(&data, Algorithm::GradientBoosting, 7);
        let errs: Vec<f64> = records
            .iter()
            .map(|r| {
                let actual = (r.actual_fps / profiles.get(r.target.0).solo_fps_at(r.target.1))
                    .clamp(0.01, 1.2);
                let pred = model.predict(&rm_features(
                    profiles.get(r.target.0),
                    &profiles.intensities(&r.others),
                ));
                (pred - actual).abs() / actual
            })
            .collect();
        errs.iter().sum::<f64>() / errs.len().max(1) as f64
    };

    t.row([
        "full profiling (baseline)".to_string(),
        pct(1.0),
        pct(eval(&ctx.profiles)),
    ]);
    for (frac, per_game) in [(0.3, 3), (0.2, 2)] {
        let config = CfConfig {
            full_fraction: frac,
            resources_per_game: per_game,
            seed: 0xCF,
            ..CfConfig::default()
        };
        let (profiles, stats) = profile_catalog_cf(&profiler, &ctx.server, &ctx.catalog, &config);
        let store = ProfileStore::new(profiles);
        t.row([
            format!("CF: {:.0}% full + {per_game}/7 resources", frac * 100.0),
            pct(stats.cost_fraction()),
            pct(eval(&store)),
        ]);
    }
    format!(
        "== Extension 3: collaborative-filtering profile completion ==\n{}\
         (Paragon/Quasar-style completion, an explicitly complementary\n\
         technique per the paper's related work.)\n",
        t.render()
    )
}

/// Extension 4: dynamic session stream under three placement policies.
fn dynamic_sessions(ctx: &ExperimentContext) -> String {
    let games = ctx.scheduling_games();
    let gaugur = crate::figures::fig9::build_gaugur(ctx);
    let vbp = VbpPolicy::from_catalog(&ctx.catalog);
    let config = DynamicConfig {
        n_servers: 40,
        arrival_rate: 0.22,
        mean_session_seconds: 600.0,
        duration_seconds: 4000.0,
        qos: 60.0,
        seed: ctx.server.seed ^ 0xD1,
    };

    let rm = PredictorFps::rm(&gaugur);
    let policies: Vec<(&str, Policy<'_>)> = vec![
        ("GAugur(RM) max-predicted-FPS", Policy::MaxPredictedFps(&rm)),
        ("VBP worst-fit", Policy::WorstFitVbp(&vbp)),
        ("first-fit", Policy::FirstFit),
    ];

    let mut t = Table::new([
        "policy",
        "served",
        "rejected",
        "mean FPS",
        "time below QoS",
        "avg colocation",
    ]);
    for (name, policy) in policies {
        let r = simulate_dynamic(
            &ctx.server,
            &ctx.catalog,
            &games,
            Resolution::Fhd1080,
            &policy,
            &config,
        );
        t.row([
            name.to_string(),
            r.sessions_served.to_string(),
            r.sessions_rejected.to_string(),
            f(r.mean_fps, 1),
            pct(r.violation_fraction),
            f(r.mean_colocation_size, 2),
        ]);
    }
    format!(
        "== Extension 4: live session stream (discrete-event, {} s) ==\n{}",
        config.duration_seconds,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::heterogeneity_reading;

    fn rows(errors: &[(f64, f64)]) -> Vec<(String, f64, f64)> {
        let names = ["home", "near", "far"];
        let rows = names.iter().zip(errors);
        rows.map(|(n, &(t, r))| (n.to_string(), t, r)).collect()
    }

    #[test]
    fn the_heterogeneity_reading_follows_the_table() {
        let reading = heterogeneity_reading(&rows(&[(0.147, 0.207), (0.142, 0.21), (0.177, 0.17)]));
        assert!(reading.starts_with("Transfer error does not grow steadily with"));
        assert!(
            reading.ends_with("model beats transfer on the far.\n"),
            "{reading}"
        );
        let reading = heterogeneity_reading(&rows(&[(0.1, 0.2), (0.12, 0.11), (0.2, 0.15)]));
        assert!(reading.starts_with("Transfer error grows with"));
        assert!(reading.ends_with("on the near and the far.\n"), "{reading}");
        let reading = heterogeneity_reading(&rows(&[(0.3, 0.4), (0.2, 0.3), (0.1, 0.2)]));
        assert!(reading.starts_with("Transfer error falls with"));
        assert!(reading.ends_with("on no class.\n"), "{reading}");
    }
}
