//! Seeded chaos suite against the live serving stack: N scenarios, each a
//! pure function of its seed, drive a faulted daemon through connection
//! drops, torn and corrupt frames, stalls, oversized floods and failing
//! reloads — then the invariant oracles (stats conservation, no leaked
//! placements, monotone model version, byte-identical fault-free replay)
//! must all hold, and re-running a seed must reproduce the identical event
//! sequence and verdict. Each seed's report digest is pinned in
//! `tests/fixtures/chaos_digests.txt`, generated at PR 20's parent: a change
//! that moves a fault schedule, a decision bit or a counted outcome on
//! purpose regenerates the file — the failure message prints the
//! replacement — and says so out loud.

mod common;

use gaugur::prelude::*;
use gaugur::serve::chaos::{run_scenario, run_suite, ChaosConfig};
use std::path::PathBuf;
use std::sync::OnceLock;

const SCENARIOS: u64 = 24;
const GOLDEN_DIGESTS: &str = include_str!("fixtures/chaos_digests.txt");

/// The shared model artifact, persisted once per test binary.
fn artifact() -> PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("gaugur-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        common::gaugur().save_json(&path).unwrap();
        path
    })
    .clone()
}

fn games() -> Vec<GameId> {
    common::fixture()
        .catalog
        .games()
        .iter()
        .map(|g| g.id)
        .collect()
}

#[test]
fn every_seeded_scenario_passes_all_oracles() {
    let base = ChaosConfig::for_seed(0, artifact(), games());
    let reports = run_suite(&base, SCENARIOS);
    assert_eq!(reports.len() as u64, SCENARIOS);

    let mut failures = Vec::new();
    let mut kinds = std::collections::BTreeSet::new();
    let (mut confirmed, mut lost) = (0u64, 0u64);
    let (mut retrains, mut outcomes) = (0u64, 0u64);
    let mut dump_bytes = 0usize;
    for report in &reports {
        if !report.passed() {
            failures.push(format!("{report}"));
        }
        // Byte-identity of the flight-recorder dump between the faulted run
        // and its fault-free replay is an oracle inside run_scenario; a
        // divergence would land in violations and fail above. Here we only
        // check the dumps carried real events across the suite.
        dump_bytes += report.recorder_dump.len();
        confirmed += report.confirmed;
        lost += report.lost_requests + report.lost_replies;
        retrains += report.retrains_ok + report.retrains_failed;
        outcomes += report.outcomes_accepted;
        for event in &report.events {
            kinds.insert(format!("{:?}", event.action));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {SCENARIOS} scenarios failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    let digests: String = reports
        .iter()
        .map(|r| format!("seed {}: {:016x}\n", r.seed, r.digest()))
        .collect();
    assert_eq!(
        digests, GOLDEN_DIGESTS,
        "a scenario digest moved; if that is intended, replace \
         tests/fixtures/chaos_digests.txt with:\n{digests}"
    );

    // The suite exercised recovery, not just the happy path: work got done
    // *and* faults actually fired, covering every injection kind.
    assert!(confirmed > 0, "no placement survived any scenario");
    assert!(
        dump_bytes > 0,
        "no scenario produced a flight-recorder dump"
    );
    assert!(lost > 0, "no fault ever fired across {SCENARIOS} seeds");
    assert!(
        retrains > 0,
        "no retrain ever settled across {SCENARIOS} seeds"
    );
    assert!(
        outcomes > 0,
        "no outcome report was ever accepted across {SCENARIOS} seeds"
    );
    for kind in [
        "DropConnection",
        "TornFrame",
        "CorruptFrame",
        "StalledFrame",
        "OversizedFrame",
        "FailReload",
        "FailRetrain",
        "None",
    ] {
        assert!(kinds.contains(kind), "suite never drew {kind}: {kinds:?}");
    }
    assert!(
        kinds.iter().any(|k| k.starts_with("Stall(")),
        "suite never drew a reply stall: {kinds:?}"
    );
}

#[test]
fn rerunning_a_seed_reproduces_the_event_sequence_and_verdict() {
    for seed in [3u64, 11, 17] {
        let config = ChaosConfig::for_seed(seed, artifact(), games());
        let a = run_scenario(&config);
        let b = run_scenario(&config);
        assert!(a.passed(), "seed {seed} failed: {:?}", a.violations);
        assert_eq!(
            a.events, b.events,
            "seed {seed}: fault schedule changed between runs"
        );
        assert_eq!(
            a.decision_digest, b.decision_digest,
            "seed {seed}: placement decisions changed between runs"
        );
        assert_eq!(
            a.digest(),
            b.digest(),
            "seed {seed}: report digest changed between runs"
        );
        assert_eq!(a.passed(), b.passed(), "seed {seed}: verdict flipped");
    }
}
