//! What background retrains leave on disk. A test binary of its own, with
//! one test: it points `TMPDIR` at a private directory before the daemon
//! starts, so every `gaugur-retrain-*` entry it counts is this daemon's, and
//! the retrain sequence numbers of the process start at 0.

use gaugur_core::GAugur;
use gaugur_gamesim::{GameCatalog, GameId, Resolution, Server};
use gaugur_serve::{daemon, Client, DaemonConfig, FeedbackConfig, ModelHandle, OutcomeReport};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn retrain_dirs(tmp: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(tmp)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            name.starts_with("gaugur-retrain-")
        })
        .collect();
    dirs.sort();
    dirs
}

/// Trigger a retrain over the buffered outcomes and wait until it settled.
fn retrain_and_settle(client: &mut Client, settled_before: u64) {
    assert!(client.trigger_retrain(Some(1), Some(4)).unwrap());
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let snap = client.stats().unwrap();
        if snap.retrains_ok + snap.retrains_failed > settled_before {
            return;
        }
        assert!(Instant::now() < deadline, "retrain did not settle");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn only_the_serving_models_retrain_artifact_stays_on_disk() {
    let tmp = std::env::temp_dir().join(format!("gaugur-retrain-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    std::env::set_var("TMPDIR", &tmp);

    let catalog = GameCatalog::generate(42, 6);
    let config = gaugur_core::GAugurConfig {
        plan: gaugur_core::ColocationPlan {
            pairs: 20,
            triples: 6,
            quads: 4,
            seed: 3,
        },
        ..Default::default()
    };
    let model = GAugur::build(&Server::reference(7), &catalog, config);
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 1,
            print_stats_on_shutdown: false,
            feedback: FeedbackConfig {
                auto_retrain: false,
                ..Default::default()
            },
            ..Default::default()
        },
        ModelHandle::from_model(model),
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // An in-memory model has no artifact to reload from yet.
    assert!(client.reload(None).is_err());

    // A few colocated outcomes for the retrains to train on.
    let res = Resolution::Fhd1080;
    for g in 0..4 {
        let first = client.place(GameId(g), res).unwrap();
        let second = client.place(GameId(g + 1), res).unwrap();
        let (accepted, _, _) = client
            .report_outcome(OutcomeReport {
                session: second.session,
                observed_fps: 0.8 * second.predicted_fps,
                predicted_fps: second.predicted_fps,
                model_version: second.model_version,
            })
            .unwrap();
        assert_eq!(accepted, 1);
        client.depart(second.session).unwrap();
        client.depart(first.session).unwrap();
    }

    // Retrain 0 publishes; its artifact is now the serving model's.
    retrain_and_settle(&mut client, 0);
    let first = retrain_dirs(&tmp);
    assert_eq!(first.len(), 1, "{first:?}");

    // Retrain 1 cannot write its artifact — a directory sits where
    // `model.json` goes — and must take its own directory with it.
    let blocked = tmp.join(format!("gaugur-retrain-{}-1", std::process::id()));
    std::fs::create_dir_all(blocked.join("model.json")).unwrap();
    retrain_and_settle(&mut client, 1);
    assert_eq!(retrain_dirs(&tmp), first, "a failed retrain left files");

    // Retrain 2 publishes and supersedes retrain 0's artifact.
    retrain_and_settle(&mut client, 2);
    let snap = client.stats().unwrap();
    assert_eq!((snap.retrains_ok, snap.retrains_failed), (2, 1));
    assert_eq!(snap.model_version, 3);
    let last = retrain_dirs(&tmp);
    assert_eq!(last.len(), 1, "{last:?}");
    assert_ne!(last, first, "the superseded artifact was kept instead");

    // What is left is what `ReloadModel` with no path, or a restart, needs.
    assert_eq!(client.reload(None).unwrap(), 4);
    handle.shutdown();
    assert_eq!(retrain_dirs(&tmp), last);
    GAugur::load_json(last[0].join("model.json")).unwrap();
    std::fs::remove_dir_all(&tmp).unwrap();
}
