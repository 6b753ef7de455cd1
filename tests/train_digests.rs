//! Training is pinned to the byte: the FNV-1a-64 digests of `save_json`'s
//! output in `tests/fixtures/train_digests.txt` were generated at the commit
//! before the split search was replaced (PR 19's parent) and must not move.
//! A change that alters a trained artifact on purpose regenerates the file —
//! the failure message prints the replacement — and says so out loud.

use gaugur::core::{Algorithm, GAugur, GAugurConfig, Placement, SessionOutcome};
use gaugur::gamesim::Resolution;
use gaugur_bench::ExperimentContext;

const GOLDEN: &str = include_str!("fixtures/train_digests.txt");

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of exactly what `save_json` writes.
fn artifact_digest(model: &GAugur, name: &str) -> u64 {
    let path = std::env::temp_dir().join(format!(
        "gaugur-train-digest-{}-{name}.json",
        std::process::id()
    ));
    model.save_json(&path).expect("write artifact");
    let bytes = std::fs::read(&path).expect("read artifact back");
    let _ = std::fs::remove_file(&path);
    fnv1a64(&bytes)
}

fn train(ctx: &ExperimentContext, algorithm: Algorithm) -> GAugur {
    let config = GAugurConfig {
        cm_algorithm: algorithm,
        rm_algorithm: algorithm,
        ..GAugurConfig::default()
    };
    GAugur::from_measurements(ctx.profiles.clone(), &ctx.train, config)
}

/// Pair outcomes observed 15 % below the model's own prediction: the
/// drifted-environment shape the warm-start retrain exists for.
fn drifted_outcomes(model: &GAugur, ctx: &ExperimentContext, n: usize) -> Vec<SessionOutcome> {
    let games = ctx.catalog.games();
    let res = Resolution::Fhd1080;
    (0..n)
        .map(|i| {
            let target: Placement = (games[i % games.len()].id, res);
            let others = vec![(games[(i + 1 + i % 3) % games.len()].id, res)];
            let observed_fps = 0.85 * model.predict_fps(target, &others);
            SessionOutcome {
                target,
                others,
                observed_fps,
            }
        })
        .collect()
}

#[test]
fn trained_artifacts_match_the_parent_generated_digests() {
    let mut lines = Vec::new();

    // The campaign the performance ledger trains on, default config.
    let ledger = ExperimentContext::with_scale(1, 100, 72, 16, 16, 60);
    let boosted = train(&ledger, Algorithm::GradientBoosting);
    lines.push(("gbrt+gbdt ledger", artifact_digest(&boosted, "gb")));

    let (retrained, report) = boosted
        .retrain_from_outcomes(&drifted_outcomes(&boosted, &ledger, 96), 8)
        .expect("synthetic outcomes are usable");
    assert!(report.warm_started);
    lines.push(("warm-start +8 ledger", artifact_digest(&retrained, "ws")));

    // The forest exercises `max_features` shuffling and bootstrap duplicates.
    let small = ExperimentContext::small(3);
    let forest = train(&small, Algorithm::RandomForest);
    lines.push(("random-forest small3", artifact_digest(&forest, "rf")));
    let tree = train(&small, Algorithm::DecisionTree);
    lines.push(("single-tree small3", artifact_digest(&tree, "dt")));

    let computed: String = lines
        .iter()
        .map(|(name, digest)| format!("{name}: {digest:016x}\n"))
        .collect();
    assert_eq!(
        computed, GOLDEN,
        "a trained artifact changed bytes; if that is intended, replace \
         tests/fixtures/train_digests.txt with:\n{computed}"
    );
}
