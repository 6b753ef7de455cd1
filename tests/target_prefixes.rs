//! The batched RM path scores each row from its target game's prefix (the
//! RM's leaf bitvectors after the game's own sensitivity features) and
//! applies only the co-runner aggregate. Here it is held, bit for bit, to
//! the full-row reference `rm.predict(&rm_features(..))` for every target
//! and every co-runner set of one to three placements of a 12-game catalog
//! at two resolutions — for every way a predictor is made, and for an RM
//! that has no prefixes and keeps the row path.

use gaugur::core::features::rm_features;
use gaugur::core::{
    Algorithm, CfConfig, ColocationPlan, DegradationBatch, FeatureBuffer, GAugur, GAugurConfig,
    InterferencePredictor, Placement, Profiler, SessionOutcome,
};
use gaugur::gamesim::{GameCatalog, Resolution, Resource, Server, Workload};

const RESOLUTIONS: [Resolution; 2] = [Resolution::Fhd1080, Resolution::Hd720];

fn config(rm_algorithm: Algorithm) -> GAugurConfig {
    GAugurConfig {
        plan: ColocationPlan {
            pairs: 40,
            triples: 10,
            quads: 5,
            seed: 1,
        },
        rm_algorithm,
        // The CM plays no part here; a single tree keeps the build short.
        cm_algorithm: Algorithm::DecisionTree,
        ..GAugurConfig::default()
    }
}

fn reference(model: &GAugur, target: Placement, others: &[Placement]) -> f64 {
    let profile = model.profiles.get(target.0);
    model
        .rm
        .predict(&rm_features(profile, &model.profiles.intensities(others)))
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

/// Every target against every co-runner set, as explicit-others queries;
/// and every colocation of the target and one or two others, as one
/// shared-colocation query per member.
fn assert_batch_equals_full_rows(model: &GAugur, label: &str) {
    let placements: Vec<Placement> = model
        .profiles
        .sorted()
        .iter()
        .flat_map(|p| RESOLUTIONS.map(|res| (p.id, res)))
        .collect();
    let mut batch = DegradationBatch::new();
    let mut scratch = FeatureBuffer::new();
    let mut out = Vec::new();
    let mut want = Vec::new();
    for &target in &placements {
        let pool: Vec<Placement> = placements
            .iter()
            .copied()
            .filter(|&p| p != target)
            .collect();
        batch.clear();
        want.clear();
        for others in corunner_sets(&pool) {
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
    }
}

#[test]
fn batched_rm_rows_equal_full_rows_for_every_predictor() {
    let server = Server::reference(5);
    let catalog = GameCatalog::generate(42, 13);
    let (known, newcomer) = catalog.games().split_at(12);
    let twelve = GameCatalog::generate(42, 12);

    let base = GAugur::build(&server, &twelve, config(Algorithm::GradientBoosting));
    assert!(base.prefix_stats().is_some(), "the default RM has prefixes");
    assert_batch_equals_full_rows(&base, "built");

    let dir = std::env::temp_dir().join(format!("gaugur-prefixes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    base.save_json(&path).unwrap();
    let loaded = GAugur::load_json(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(loaded.prefix_stats(), base.prefix_stats());
    assert_batch_equals_full_rows(&loaded, "loaded");

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
    assert_batch_equals_full_rows(&retrained, "retrained");

    let profiler = Profiler::new(base.config.profiling);
    let partial = profiler.profile_game_partial(
        &server,
        &newcomer[0],
        &[Resource::GpuCore, Resource::CpuCore],
    );
    let folded = base.fold_in_game(&partial, &CfConfig::default());
    assert_eq!(folded.prefix_stats().unwrap().games, 13);
    assert_batch_equals_full_rows(&folded, "folded in");

    let forest = GAugur::build(&server, &twelve, config(Algorithm::RandomForest));
    assert!(
        forest.prefix_stats().is_none(),
        "a forest keeps the row path"
    );
    assert_batch_equals_full_rows(&forest, "random forest");
}
