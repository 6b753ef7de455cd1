//! GAugur's serving models score each row from its target game's prefix
//! (the model's leaf bitvectors after the game's own sensitivity features)
//! and apply only the row's other features. Here every such path is held,
//! bit for bit, to the node walk over the full row — `rm.predict` and
//! `cm.classify` of `rm_features`/`cm_features` — for every target and
//! every co-runner set of one to three placements of a 12-game catalog at
//! two resolutions: the batched RM, the scalar RM and all three branches of
//! the scalar QoS judgement. It holds for every way a predictor is made,
//! and for models that have no table and walk their trees.
//!
//! The RM's staged answer is held to the same rows: its first stage bounds
//! every row and every candidate sum from above, as `f64`, clamped rows
//! included, and its second stage gives the node walk's bits.

use gaugur::core::features::{cm_features, rm_features};
use gaugur::core::{
    measure_colocations, plan_colocations, Algorithm, CfConfig, ColocationPlan, DegradationBatch,
    FeatureBuffer, GAugur, GAugurConfig, InterferencePredictor, Placement, ProfileStore, Profiler,
    SessionOutcome,
};
use gaugur::gamesim::{GameCatalog, Resolution, Resource, Server, Workload};
use gaugur::sched::{ColocationBatch, FpsModel, PredictScratch, PredictorFps, SumBound};
use proptest::prelude::*;
use std::sync::OnceLock;

const RESOLUTIONS: [Resolution; 2] = [Resolution::Fhd1080, Resolution::Hd720];

fn config(algorithm: Algorithm) -> GAugurConfig {
    GAugurConfig {
        plan: ColocationPlan {
            pairs: 40,
            triples: 10,
            quads: 5,
            seed: 1,
        },
        rm_algorithm: algorithm,
        cm_algorithm: algorithm,
        ..GAugurConfig::default()
    }
}

/// Every way a predictor is made, labelled: built, trained from
/// measurements, loaded, retrained, folded in, and a random forest's (no
/// split tables).
fn predictors() -> &'static [(&'static str, GAugur)] {
    static ALL: OnceLock<Vec<(&'static str, GAugur)>> = OnceLock::new();
    ALL.get_or_init(|| {
        let server = Server::reference(5);
        let catalog = GameCatalog::generate(42, 13);
        let (known, newcomer) = catalog.games().split_at(12);
        let twelve = GameCatalog::generate(42, 12);

        let base = GAugur::build(&server, &twelve, config(Algorithm::GradientBoosting));
        assert!(
            base.rm_prefix_stats().is_some(),
            "the default RM has prefixes"
        );
        assert!(
            base.cm_prefix_stats().is_some(),
            "the default CM has prefixes"
        );

        let profiler = Profiler::new(base.config.profiling);
        let profiles = ProfileStore::new(profiler.profile_catalog(&server, &twelve));
        let plan = ColocationPlan {
            seed: 9,
            ..base.config.plan
        };
        let measured = measure_colocations(&server, &twelve, &plan_colocations(&twelve, &plan));
        let from_measurements =
            GAugur::from_measurements(profiles, &measured, config(Algorithm::GradientBoosting));

        let dir = std::env::temp_dir().join(format!("gaugur-prefixes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        base.save_json(&path).unwrap();
        let loaded = GAugur::load_json(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded.rm_prefix_stats(), base.rm_prefix_stats());
        assert_eq!(loaded.cm_prefix_stats(), base.cm_prefix_stats());

        let res = Resolution::Fhd1080;
        let outcomes: Vec<SessionOutcome> = known
            .windows(2)
            .map(|pair| {
                let measured = server.measure_colocation(&[
                    Workload::game(&pair[0], res),
                    Workload::game(&pair[1], res),
                ]);
                SessionOutcome {
                    target: (pair[0].id, res),
                    others: vec![(pair[1].id, res)],
                    observed_fps: 0.9 * measured.game_fps(0).unwrap(),
                }
            })
            .collect();
        let (retrained, report) = base.retrain_from_outcomes(&outcomes, 12).unwrap();
        assert!(report.warm_started);

        let partial = profiler.profile_game_partial(
            &server,
            &newcomer[0],
            &[Resource::GpuCore, Resource::CpuCore],
        );
        let folded = base.fold_in_game(&partial, &CfConfig::default());
        assert_eq!(folded.rm_prefix_stats().unwrap().games, 13);
        assert_eq!(folded.cm_prefix_stats().unwrap().games, 13);

        let forest = GAugur::build(&server, &twelve, config(Algorithm::RandomForest));
        assert!(forest.rm_prefix_stats().is_none(), "a forest's RM walks");
        assert!(forest.cm_prefix_stats().is_none(), "a forest's CM walks");

        vec![
            ("built", base),
            ("from measurements", from_measurements),
            ("loaded", loaded),
            ("retrained", retrained),
            ("folded in", folded),
            ("random forest", forest),
        ]
    })
}

/// The RM's node walk over the full row.
fn reference(model: &GAugur, target: Placement, others: &[Placement]) -> f64 {
    let profile = model.profiles.get(target.0);
    model
        .rm
        .predict(&rm_features(profile, &model.profiles.intensities(others)))
}

/// `predict_qos` over node walks: the CM's inside the trained QoS range,
/// the CM's at the nearest trained floor and the RM's FPS outside it.
fn reference_qos(model: &GAugur, qos: f64, target: Placement, others: &[Placement]) -> bool {
    let profile = model.profiles.get(target.0);
    let solo = profile.solo_fps_at(target.1);
    if qos > solo {
        return false;
    }
    let intensities = model.profiles.intensities(others);
    let cm_at = |q: f64| {
        model
            .cm
            .classify(&cm_features(q, solo, profile, &intensities))
    };
    let fps_meets = || reference(model, target, others) * solo >= qos;
    let floors = &model.config.qos_values;
    let lo = floors.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = floors.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if (lo..=hi).contains(&qos) {
        cm_at(qos)
    } else if qos < lo {
        cm_at(lo) || fps_meets()
    } else {
        cm_at(hi) && fps_meets()
    }
}

/// Every profiled game at both resolutions.
fn placements(model: &GAugur) -> Vec<Placement> {
    model
        .profiles
        .sorted()
        .iter()
        .flat_map(|p| RESOLUTIONS.map(|res| (p.id, res)))
        .collect()
}

/// Every co-runner set of one to three placements drawn from `pool`.
fn corunner_sets(pool: &[Placement]) -> Vec<Vec<Placement>> {
    let mut sets = Vec::new();
    for i in 0..pool.len() {
        sets.push(vec![pool[i]]);
        for j in i + 1..pool.len() {
            sets.push(vec![pool[i], pool[j]]);
            for k in j + 1..pool.len() {
                sets.push(vec![pool[i], pool[j], pool[k]]);
            }
        }
    }
    sets
}

/// Every target and the co-runner sets from the other placements.
fn targets_and_sets(model: &GAugur) -> impl Iterator<Item = (Placement, Vec<Vec<Placement>>)> {
    let placements = placements(model);
    placements.clone().into_iter().map(move |target| {
        let pool: Vec<Placement> = placements
            .iter()
            .copied()
            .filter(|&p| p != target)
            .collect();
        (target, corunner_sets(&pool))
    })
}

/// Every target against every co-runner set, as explicit-others queries;
/// and every colocation of the target and one or two others, as one
/// shared-colocation query per member. The staged answer too: each first-
/// stage bound at or above the row, and the second stage, asked one
/// colocation's worth of queries at a time, on it. Returns how many rows
/// the RM's clamp decided.
fn assert_batch_equals_full_rows(model: &GAugur, label: &str) -> usize {
    let mut batch = DegradationBatch::new();
    let mut scratch = FeatureBuffer::new();
    let (mut out, mut bounds, mut finished) = (Vec::new(), Vec::new(), Vec::new());
    let mut want = Vec::new();
    let mut clamped = 0;
    for (target, sets) in targets_and_sets(model) {
        batch.clear();
        want.clear();
        for others in sets {
            batch.push(target, &others);
            want.push(reference(model, target, &others));
            if others.len() <= 2 {
                let members: Vec<Placement> = std::iter::once(target).chain(others).collect();
                batch.push_colocation(&members);
                for (m, &member) in members.iter().enumerate() {
                    let rest: Vec<Placement> = members
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != m)
                        .map(|(_, &p)| p)
                        .collect();
                    want.push(reference(model, member, &rest));
                }
            }
        }
        model.predict_degradation_batch(&batch, &mut scratch, &mut out);
        assert_eq!(out.len(), want.len());
        for (q, (got, want)) in out.iter().zip(&want).enumerate() {
            assert!(
                got.to_bits() == want.to_bits(),
                "{label}: target {target:?}, query {q}: batch {got} vs row {want}"
            );
        }
        clamped += want.iter().filter(|&&w| w == 0.01 || w == 1.05).count();
        if model.bound_degradation_batch(&batch, &mut scratch, &mut bounds) {
            assert_eq!(bounds, out, "{label}: a one-stage answer is exact");
            continue;
        }
        for (q, (bound, want)) in bounds.iter().zip(&want).enumerate() {
            assert!(
                bound >= want,
                "{label}: target {target:?}, query {q}: bound {bound} below row {want}"
            );
        }
        finished.clear();
        finished.resize(want.len(), f64::NAN);
        for (start, end) in (0..want.len())
            .step_by(3)
            .map(|q| (q, (q + 3).min(want.len())))
        {
            model.finish_degradation_batch(
                &batch,
                start..end,
                &mut scratch,
                &mut finished[start..end],
            );
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&finished),
            bits(&want),
            "{label}: target {target:?}, second stage"
        );
    }
    clamped
}

#[test]
fn batched_rm_rows_equal_full_rows_for_every_predictor() {
    let mut clamped = 0;
    for (label, model) in predictors() {
        clamped += assert_batch_equals_full_rows(model, label);
    }
    assert!(
        clamped > 0,
        "no row the clamp decided: the bounds met no saturated row"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Candidate sums of random colocations of two to four games at both
    /// resolutions, for every predictor: the first stage's bound of each is
    /// at or above its exact sum, as `f64`, and finishing it — in any
    /// order — gives the exact sum's bits.
    #[test]
    fn first_stage_candidate_bounds_dominate_the_sums(
        draws in proptest::collection::vec(
            proptest::collection::vec((0usize..12, any::<bool>()), 2..=4),
            1..=8,
        ),
    ) {
        for (label, model) in predictors() {
            let games: Vec<_> = model.profiles.sorted().iter().map(|p| p.id).collect();
            let mut batch = ColocationBatch::new();
            for draw in &draws {
                let mut members: Vec<Placement> = Vec::new();
                for &(g, hd) in draw {
                    let res = if hd { Resolution::Hd720 } else { Resolution::Fhd1080 };
                    if members.iter().all(|&(m, _)| m != games[g]) {
                        members.push((games[g], res));
                    }
                }
                batch.push(&members);
            }
            let fps = PredictorFps::rm(model);
            let sums: Vec<f64> =
                (0..batch.len()).map(|i| fps.predict_colocation_sum(batch.members(i))).collect();
            let (mut scratch, mut bounds) = (PredictScratch::new(), Vec::new());
            fps.bound_colocation_sums(&batch, &mut scratch, &mut bounds);
            for i in (0..batch.len()).rev() {
                let got = match bounds[i] {
                    SumBound::Exact(sum) => sum,
                    SumBound::AtMost(bound) => {
                        prop_assert!(bound >= sums[i], "{}: {} below {}", label, bound, sums[i]);
                        fps.finish_colocation_sum(&batch, i, &mut scratch)
                    }
                };
                prop_assert_eq!(got.to_bits(), sums[i].to_bits(), "{}: colocation {}", label, i);
            }
        }
    }
}

/// The scalar entry points against the node walk, at the config's floors
/// (50, 60), off the grid (55), below and above the trained range (30, 75)
/// and above the target's solo FPS.
#[test]
fn scalar_predictions_equal_the_node_walk_for_every_predictor() {
    for (label, model) in predictors() {
        assert_eq!(model.config.qos_values, [50.0, 60.0]);
        for (target, sets) in targets_and_sets(model) {
            let solo = model.profiles.get(target.0).solo_fps_at(target.1);
            for others in &sets {
                let got = model.predict_degradation(target, others);
                let want = reference(model, target, others);
                assert!(
                    got.to_bits() == want.to_bits(),
                    "{label}: {target:?} beside {others:?}: {got} vs {want}"
                );
                for qos in [50.0, 60.0, 55.0, 30.0, 75.0, solo + 1.0] {
                    assert_eq!(
                        model.predict_qos(qos, target, others),
                        reference_qos(model, qos, target, others),
                        "{label}: {target:?} beside {others:?} at {qos} FPS"
                    );
                }
            }
        }
    }
}
