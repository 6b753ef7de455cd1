//! Shared fixtures for the cross-crate integration tests: a small profiled
//! catalog plus a measured colocation campaign, built once per test binary.

use gaugur::core::{measure_colocations, plan_colocations, MeasuredColocation};
use gaugur::prelude::*;
use gaugur::serve::wire::{self, BatchPlaceResult, Request, Response};
use gaugur::serve::{daemon, DaemonHandle, Reference};
use std::sync::OnceLock;

/// A small but complete experiment fixture.
///
/// Not every test binary touches every field, so dead-code analysis (which
/// runs per binary) is silenced here.
#[allow(dead_code)]
pub struct Fixture {
    pub server: Server,
    pub catalog: GameCatalog,
    pub profiles: ProfileStore,
    pub train: Vec<MeasuredColocation>,
    pub test: Vec<MeasuredColocation>,
}

/// Build (once) a 16-game fixture with a 220-colocation campaign.
pub fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let server = Server::reference(101);
        let catalog = GameCatalog::generate(42, 16);
        let profiles = ProfileStore::new(
            Profiler::new(ProfilingConfig::default()).profile_catalog(&server, &catalog),
        );
        let plan = ColocationPlan {
            pairs: 150,
            triples: 40,
            quads: 30,
            seed: 9,
        };
        let mut measured =
            measure_colocations(&server, &catalog, &plan_colocations(&catalog, &plan));
        // Deterministic split that mixes sizes in both halves.
        let test = measured
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 == 0)
            .map(|(_, m)| m.clone())
            .collect();
        let mut i = 0;
        measured.retain(|_| {
            let keep = i % 4 != 0;
            i += 1;
            keep
        });
        Fixture {
            server,
            catalog,
            profiles,
            train: measured,
            test,
        }
    })
}

/// The (cached) GAugur predictor trained on the fixture. Training gradient
/// ensembles is seconds of work, so property tests must share one instance.
#[allow(dead_code)]
pub fn gaugur() -> &'static GAugur {
    static GAUGUR: OnceLock<GAugur> = OnceLock::new();
    GAUGUR.get_or_init(|| {
        let f = fixture();
        GAugur::from_measurements(f.profiles.clone(), &f.train, GAugurConfig::default())
    })
}

/// A daemon serving the fixture's predictor under `config`, beside the
/// serial reference built from the same configuration and model.
#[allow(dead_code)]
pub fn daemon_and_reference(config: DaemonConfig) -> (DaemonHandle, Reference) {
    let model = ModelHandle::from_model(gaugur().clone());
    let reference = Reference::new(&config, model.get()).unwrap();
    (daemon::start(config, model).unwrap(), reference)
}

/// Drive a daemon under `config` over one connection beside the serial
/// reference: `next` gets the step and the previous reply and returns the
/// next request, or `None` to stop. Every reply frame must be the
/// reference's byte for byte, and each shard's score-cache counts must be
/// too; returns those counts and the daemon's stats at shutdown.
#[allow(dead_code)]
pub fn drive_beside_reference(
    config: DaemonConfig,
    mut next: impl FnMut(usize, Option<Response>) -> Option<Request>,
) -> (Vec<(u64, u64)>, StatsSnapshot) {
    let (handle, mut reference) = daemon_and_reference(config);
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    // As the daemon's and the ledger's sockets are: no frame waits in
    // Nagle's buffer for an ACK.
    stream.set_nodelay(true).unwrap();
    let mut reply = None;
    for step in 0.. {
        let Some(request) = next(step, reply.take()) else {
            break;
        };
        wire::write_frame(&mut stream, &request).unwrap();
        let frame = wire::read_frame_bytes(&mut stream).unwrap();
        let expected = reference.handle(&request);
        let want = wire::encode_frame(&expected);
        assert_eq!(
            String::from_utf8_lossy(&frame),
            String::from_utf8_lossy(&want[4..]),
            "step {step}: {request:?}"
        );
        reply = Some(expected);
    }
    let counts = reference.score_counts();
    assert_eq!(handle.shard_score_counts(), counts);
    drop(stream);
    (counts, handle.shutdown())
}

/// The sessions a `Place` or `PlaceBatch` reply admitted, with the FPS
/// predicted for each.
#[allow(dead_code)]
pub fn admitted(reply: &Response) -> Vec<(u64, f64)> {
    match reply {
        Response::Placed {
            session,
            predicted_fps,
            ..
        } => vec![(*session, *predicted_fps)],
        Response::PlacedBatch { results, .. } => results
            .iter()
            .filter_map(|r| match *r {
                BatchPlaceResult::Placed {
                    session,
                    predicted_fps,
                    ..
                } => Some((session, predicted_fps)),
                BatchPlaceResult::Rejected { .. } => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}
