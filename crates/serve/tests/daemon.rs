//! End-to-end daemon tests: real TCP on an ephemeral port, real worker
//! threads, a real trained model. Covers the placement invariants, capacity
//! reclamation on departure, overload pushback, stats reconciliation and
//! hot-reload under live load.

use gaugur_core::GAugur;
use gaugur_gamesim::rng::rng_for;
use gaugur_gamesim::{GameCatalog, GameId, Resolution, Server};
use gaugur_sched::maxfps::MAX_PER_SERVER;
use gaugur_serve::wire::{read_frame, write_frame, Request, Response};
use gaugur_serve::{
    daemon, load, BatchPlaceResult, Client, ClientError, DaemonConfig, LoadConfig, ModelHandle,
};
use rand::Rng;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

const N_GAMES: u32 = 8;

/// One trained model for the whole test binary; training dominates runtime.
fn model() -> GAugur {
    static MODEL: OnceLock<GAugur> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            let server = Server::reference(7);
            let catalog = GameCatalog::generate(42, N_GAMES as usize);
            let config = gaugur_core::GAugurConfig {
                plan: gaugur_core::ColocationPlan {
                    pairs: 40,
                    triples: 10,
                    quads: 5,
                    seed: 3,
                },
                ..Default::default()
            };
            GAugur::build(&server, &catalog, config)
        })
        .clone()
}

fn quiet_config() -> DaemonConfig {
    DaemonConfig {
        print_stats_on_shutdown: false,
        ..Default::default()
    }
}

#[test]
fn two_hundred_requests_respect_fleet_invariants_and_stats_reconcile() {
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 3,
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Client-side mirror of the fleet, rebuilt purely from daemon replies.
    let mut mirror: Vec<Vec<(u64, GameId)>> = vec![Vec::new(); 3];
    let mut sessions: Vec<u64> = Vec::new();
    let mut rng = rng_for(0xE2E, &[1]);
    let (mut placed_n, mut rejected_n, mut departed_n) = (0u64, 0u64, 0u64);

    for _ in 0..200 {
        let depart = !sessions.is_empty() && rng.gen_bool(0.4);
        if depart {
            let session = sessions.swap_remove(rng.gen_range(0..sessions.len()));
            let server = client.depart(session).unwrap();
            let slot = mirror[server]
                .iter()
                .position(|&(id, _)| id == session)
                .expect("daemon departed a session from the server we placed it on");
            mirror[server].remove(slot);
            departed_n += 1;
            continue;
        }
        let game = GameId(rng.gen_range(0..N_GAMES));
        match client.place(game, Resolution::Fhd1080) {
            Ok(p) => {
                assert!(p.server < 3);
                // The invariants must have held *before* this admission.
                assert!(mirror[p.server].len() < MAX_PER_SERVER);
                assert!(mirror[p.server].iter().all(|&(_, g)| g != game));
                mirror[p.server].push((p.session, game));
                sessions.push(p.session);
                placed_n += 1;
            }
            Err(ClientError::Rejected { .. }) => {
                // Rejection must mean no server could legally take the game.
                for contents in &mirror {
                    let eligible =
                        contents.len() < MAX_PER_SERVER && contents.iter().all(|&(_, g)| g != game);
                    assert!(!eligible, "rejected {game:?} with an eligible server");
                }
                rejected_n += 1;
            }
            Err(e) => panic!("unexpected place error: {e}"),
        }
    }

    // Drain, then reconcile daemon stats against our own counts.
    for session in sessions.drain(..) {
        client.depart(session).unwrap();
        departed_n += 1;
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.active_sessions, 0);
    assert_eq!(stats.per_request["place"].ok, placed_n + rejected_n);
    assert_eq!(stats.per_request["place"].errors, 0);
    assert_eq!(stats.per_request["depart"].ok, departed_n);
    assert!(stats.cache_hits + stats.cache_misses > 0);

    let final_stats = handle.shutdown();
    assert_eq!(final_stats.per_request["place"].ok, placed_n + rejected_n);
}

/// The shard lock covers the decision, not the model: a `Place` whose
/// candidate sums the memo does not hold scores twice (a pass that stops at
/// the first missing sum, an evaluation with the lock released, the real
/// pass), but one whose sums are all resident is exactly one scoring pass
/// under one lock acquisition — one memo lookup per candidate, one for the
/// rebuilt `before` sum, one for the newcomer's own prediction, no miss.
#[test]
fn a_place_with_resident_sums_is_one_scoring_pass() {
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 4,
            workers: 1,
            shards: 1,
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let res = Resolution::Fhd1080;

    let mut servers = Vec::new();
    for g in 0..3 {
        servers.push(client.place(GameId(g), res).unwrap().server);
    }
    let cold = client.stats().unwrap();
    let first = client.place(GameId(3), res).unwrap();
    let warm = client.stats().unwrap();
    // Four candidates, none seen with game 3 before: every sum missed once,
    // and both passes looked all four up.
    assert_eq!(warm.cache_misses - cold.cache_misses, 4 + 1);
    assert!(warm.cache_hits - cold.cache_hits >= 4);

    // Same fleet, same request: everything it needs is resident now.
    client.depart(first.session).unwrap();
    let again = client.place(GameId(3), res).unwrap();
    let after = client.stats().unwrap();
    assert_eq!(again.server, first.server);
    assert_eq!(again.predicted_fps.to_bits(), first.predicted_fps.to_bits());
    // The departed server's `before` sum is rebuilt from the memo unless
    // the server is empty again (an empty colocation is not memo traffic).
    let rebuilt = u64::from(servers.contains(&first.server));
    assert_eq!(after.cache_hits - warm.cache_hits, 4 + rebuilt + 1);
    assert_eq!(after.cache_misses, warm.cache_misses);
    handle.shutdown();
}

#[test]
fn departures_free_capacity() {
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 1,
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let mut placed = HashMap::new();
    for g in 0..MAX_PER_SERVER as u32 {
        let p = client.place(GameId(g), Resolution::Fhd1080).unwrap();
        assert_eq!(p.server, 0);
        placed.insert(g, p.session);
    }
    // Server full: a fresh game has nowhere to go.
    match client.place(GameId(6), Resolution::Fhd1080) {
        Err(ClientError::Rejected { .. }) => {}
        other => panic!("expected rejection on a full fleet, got {other:?}"),
    }
    // One departure frees exactly one slot.
    client.depart(placed.remove(&0).unwrap()).unwrap();
    let p = client.place(GameId(6), Resolution::Fhd1080).unwrap();
    assert_eq!(p.server, 0);

    // Duplicate-game exclusion also rejects even with free slots.
    client.depart(p.session).unwrap();
    match client.place(GameId(1), Resolution::Fhd1080) {
        Err(ClientError::Rejected { .. }) => {}
        other => panic!("expected duplicate-game rejection, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn overload_rejects_with_backoff_instead_of_dropping() {
    let handle = daemon::start(
        DaemonConfig {
            workers: 1,
            queue_capacity: 1,
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let addr = handle.local_addr();

    // One worker, queue of one: the first connection parks the worker (a
    // served connection is held until EOF), the second fills the queue, and
    // every further connection must be answered `Overloaded` — not dropped.
    let mut streams: Vec<TcpStream> = (0..6)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            s
        })
        .collect();
    for s in &mut streams {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Streams already rejected by the acceptor are closed server-side;
        // writing to them may fail with EPIPE, which is fine — the
        // Overloaded frame is still waiting in the receive buffer.
        let _ = write_frame(s, &Request::Stats);
    }

    // The head connection is being served and must get a real reply.
    match read_frame::<_, Response>(&mut streams[0]).unwrap() {
        Response::Stats(_) => {}
        other => panic!("head connection expected stats, got {other:?}"),
    }
    // The tail connections must each hold an Overloaded frame with a hint.
    let mut overloaded = 0;
    for s in streams[2..].iter_mut() {
        if let Ok(Response::Overloaded { retry_after_ms }) = read_frame::<_, Response>(s) {
            assert!(retry_after_ms > 0);
            overloaded += 1;
        }
    }
    assert!(overloaded >= 1, "no connection was pushed back");

    // Closing the head connection lets the queued one drain and be served.
    drop(streams.remove(0));
    match read_frame::<_, Response>(&mut streams[0]).unwrap() {
        Response::Stats(stats) => assert!(stats.overloaded_rejections >= overloaded),
        other => panic!("queued connection expected stats, got {other:?}"),
    }
    drop(streams);
    handle.shutdown();
}

#[test]
fn hot_reload_under_live_load_fails_no_inflight_request() {
    let dir = std::env::temp_dir().join(format!("gaugur-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join("model.json");
    model().save_json(&artifact).unwrap();

    let handle = daemon::start(
        DaemonConfig {
            n_servers: 16,
            ..quiet_config()
        },
        ModelHandle::load(&artifact).unwrap(),
    )
    .unwrap();
    let addr = handle.local_addr().to_string();

    let driver = std::thread::spawn({
        let addr = addr.clone();
        move || {
            load::run(&LoadConfig {
                addr,
                seed: 11,
                connections: 3,
                requests: 300,
                rate: f64::INFINITY,
                mean_session_arrivals: 6.0,
                games: (0..N_GAMES).map(GameId).collect(),
                resolutions: vec![Resolution::Hd720, Resolution::Fhd1080],
                qos: 60.0,
                batch: 1,
                report_outcomes: false,
                observe_noise: 0.0,
                drift: 1.0,
                verify_trace: false,
                expect_shards: None,
                expect_slo: None,
            })
        }
    });

    // Hammer reloads while the driver is mid-flight.
    let mut admin = Client::connect(&*addr).unwrap();
    let mut last_version = 1;
    for _ in 0..5 {
        std::thread::sleep(Duration::from_millis(15));
        let v = admin.reload(None).unwrap();
        assert!(v > last_version);
        last_version = v;
    }

    let report = driver.join().unwrap();
    // The acceptance bar: reloading must never fail an in-flight request.
    assert_eq!(report.errors, 0, "reload failed in-flight requests");
    assert_eq!(report.placed + report.rejected, 300);
    assert_eq!(report.placed, report.departed);

    let stats = admin.stats().unwrap();
    assert_eq!(stats.active_sessions, 0);
    assert_eq!(stats.model_version, last_version);
    assert_eq!(stats.per_request["reload_model"].ok, 5);
    assert_eq!(
        stats.per_request["place"].ok,
        report.placed + report.rejected
    );

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_place_batch_depart_stress_reconciles() {
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 8,
            workers: 4,
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let addr = handle.local_addr();

    const THREADS: usize = 4;
    const ROUNDS: usize = 60;

    // (placed, rejected, departed, place_calls, batch_calls) per thread.
    let outcomes: Vec<(u64, u64, u64, u64, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut rng = rng_for(0x57E55, &[t as u64]);
                    let mut sessions: Vec<u64> = Vec::new();
                    let (mut placed, mut rejected, mut departed) = (0u64, 0u64, 0u64);
                    let (mut place_calls, mut batch_calls) = (0u64, 0u64);
                    for _ in 0..ROUNDS {
                        match rng.gen_range(0..3u32) {
                            0 => {
                                place_calls += 1;
                                let game = GameId(rng.gen_range(0..N_GAMES));
                                match client.place(game, Resolution::Fhd1080) {
                                    Ok(p) => {
                                        sessions.push(p.session);
                                        placed += 1;
                                    }
                                    Err(ClientError::Rejected { .. }) => rejected += 1,
                                    Err(e) => panic!("place failed: {e}"),
                                }
                            }
                            1 => {
                                batch_calls += 1;
                                let burst: Vec<_> = (0..4)
                                    .map(|_| {
                                        (GameId(rng.gen_range(0..N_GAMES)), Resolution::Fhd1080)
                                    })
                                    .collect();
                                let (_, results) = client.place_batch(&burst).unwrap();
                                assert_eq!(results.len(), burst.len());
                                for result in results {
                                    match result {
                                        BatchPlaceResult::Placed { session, .. } => {
                                            sessions.push(session);
                                            placed += 1;
                                        }
                                        BatchPlaceResult::Rejected { .. } => rejected += 1,
                                    }
                                }
                            }
                            _ => {
                                if sessions.is_empty() {
                                    continue;
                                }
                                let s = sessions.swap_remove(rng.gen_range(0..sessions.len()));
                                client.depart(s).unwrap();
                                departed += 1;
                            }
                        }
                    }
                    // Quiesce: every session this thread still owns departs.
                    for s in sessions.drain(..) {
                        client.depart(s).unwrap();
                        departed += 1;
                    }
                    (placed, rejected, departed, place_calls, batch_calls)
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // The daemon's internal bookkeeping survived the interleaving.
    handle.check_invariants();

    let placed: u64 = outcomes.iter().map(|o| o.0).sum();
    let departed: u64 = outcomes.iter().map(|o| o.2).sum();
    let place_calls: u64 = outcomes.iter().map(|o| o.3).sum();
    let batch_calls: u64 = outcomes.iter().map(|o| o.4).sum();
    assert_eq!(placed, departed, "quiesce departed every placement");

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.active_sessions, 0, "leaked sessions after quiesce");
    assert_eq!(stats.per_request["place"].ok, place_calls);
    assert_eq!(stats.per_request["place"].errors, 0);
    assert_eq!(stats.per_request["place_batch"].ok, batch_calls);
    assert_eq!(stats.per_request["place_batch"].errors, 0);
    assert_eq!(stats.per_request["depart"].ok, departed);
    assert_eq!(stats.per_request["depart"].errors, 0);
    assert!(
        stats.score_hits + stats.score_misses > 0,
        "score cache never consulted"
    );
    handle.shutdown();
}

#[test]
fn batched_load_driver_reconciles_like_singles() {
    // 240 arrivals fill 30 frames of 8. 242 leave each of the two
    // connections a trailing group of one, which must still go out as a
    // `PlaceBatch`: the frame follows the configured batch, not the group.
    for (requests, frames) in [(240, 30), (242, 32)] {
        let handle = daemon::start(
            DaemonConfig {
                n_servers: 12,
                ..quiet_config()
            },
            ModelHandle::from_model(model()),
        )
        .unwrap();
        let report = load::run(&LoadConfig {
            addr: handle.local_addr().to_string(),
            seed: 23,
            connections: 2,
            requests,
            games: (0..N_GAMES).map(GameId).collect(),
            batch: 8,
            ..LoadConfig::default()
        });
        assert_eq!(report.errors, 0, "{report}");
        assert_eq!(report.placed + report.rejected, requests);
        assert_eq!(report.placed, report.departed);
        // One latency frame per batch, so p50 exists but throughput counts arrivals.
        assert!(report.achieved_rps > 0.0);
        let stats = handle.shutdown();
        assert_eq!(stats.active_sessions, 0);
        assert_eq!(stats.per_request["place_batch"].ok, frames);
        assert_eq!(stats.per_request["place"].total(), 0);
    }
}

#[test]
fn departing_an_unknown_session_is_a_typed_counted_error() {
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 2,
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Never-issued id: typed, not a generic protocol error.
    match client.depart(424242) {
        Err(ClientError::UnknownSession { session: 424242 }) => {}
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    // Double-depart: the first succeeds, the second is typed too.
    let p = client.place(GameId(0), Resolution::Fhd1080).unwrap();
    client.depart(p.session).unwrap();
    match client.depart(p.session) {
        Err(ClientError::UnknownSession { session }) => assert_eq!(session, p.session),
        other => panic!("expected UnknownSession on double-depart, got {other:?}"),
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.depart_unknown_sessions, 2);
    assert_eq!(stats.per_request["depart"].ok, 1);
    assert_eq!(stats.per_request["depart"].errors, 2);
    assert_eq!(stats.active_sessions, 0);
    handle.shutdown();
}

#[test]
fn sharded_daemon_stress_reconciles_and_conserves_per_shard() {
    // The multi-shard two-phase admit under real contention: 4 workers
    // hammer a 4-shard fleet with places, batches and departs. Whatever
    // interleaving (including lost admit races and fallbacks) occurs, the
    // quiesced fleet must reconcile globally AND per shard.
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 8,
            shards: 4,
            workers: 4,
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let addr = handle.local_addr();

    const THREADS: usize = 4;
    const ROUNDS: usize = 60;
    let outcomes: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut rng = rng_for(0x5AD5, &[t as u64]);
                    let mut sessions: Vec<u64> = Vec::new();
                    let (mut placed, mut departed) = (0u64, 0u64);
                    for _ in 0..ROUNDS {
                        match rng.gen_range(0..3u32) {
                            0 => {
                                let game = GameId(rng.gen_range(0..N_GAMES));
                                match client.place(game, Resolution::Fhd1080) {
                                    Ok(p) => {
                                        assert!(p.server < 8, "global index on the wire");
                                        sessions.push(p.session);
                                        placed += 1;
                                    }
                                    Err(ClientError::Rejected { .. }) => {}
                                    Err(e) => panic!("place failed: {e}"),
                                }
                            }
                            1 => {
                                let burst: Vec<_> = (0..3)
                                    .map(|_| {
                                        (GameId(rng.gen_range(0..N_GAMES)), Resolution::Fhd1080)
                                    })
                                    .collect();
                                let (_, results) = client.place_batch(&burst).unwrap();
                                for result in results {
                                    if let BatchPlaceResult::Placed { session, .. } = result {
                                        sessions.push(session);
                                        placed += 1;
                                    }
                                }
                            }
                            _ => {
                                if sessions.is_empty() {
                                    continue;
                                }
                                let s = sessions.swap_remove(rng.gen_range(0..sessions.len()));
                                client.depart(s).unwrap();
                                departed += 1;
                            }
                        }
                    }
                    for s in sessions.drain(..) {
                        client.depart(s).unwrap();
                        departed += 1;
                    }
                    (placed, departed)
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });

    handle.check_invariants();
    let placed: u64 = outcomes.iter().map(|o| o.0).sum();
    let departed: u64 = outcomes.iter().map(|o| o.1).sum();
    assert_eq!(placed, departed);

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.shard_active_sessions.len(), 4);
    assert_eq!(stats.shard_active_sessions.iter().sum::<u64>(), 0);
    assert_eq!(stats.active_sessions, 0, "leaked sessions after quiesce");
    assert_eq!(stats.shard_misrouted_sessions, 0);
    assert_eq!(stats.depart_unknown_sessions, 0);
    assert_eq!(stats.per_request["depart"].errors, 0);
    handle.shutdown();
}

#[test]
fn sharded_load_driver_verifies_layout_and_tracing() {
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 12,
            shards: 4,
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let report = load::run(&LoadConfig {
        addr: handle.local_addr().to_string(),
        seed: 31,
        connections: 4,
        requests: 200,
        games: (0..N_GAMES).map(GameId).collect(),
        verify_trace: true,
        expect_shards: Some(4),
        expect_slo: None,
        ..LoadConfig::default()
    });
    assert_eq!(report.errors, 0, "{report}");
    assert_eq!(report.trace_violation, None, "{report}");
    assert_eq!(report.shard_violation, None, "{report}");
    assert_eq!(report.shards_seen, 4);
    assert!(report.traced_requests > 0);
    let stats = handle.shutdown();
    assert_eq!(stats.active_sessions, 0);
}

/// Poll stats on fresh connections until `pred` holds (rollbacks race the
/// client-visible EOF, so assertions on them must wait).
fn await_stats(
    addr: std::net::SocketAddr,
    pred: impl Fn(&gaugur_serve::StatsSnapshot) -> bool,
) -> gaugur_serve::StatsSnapshot {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = Client::connect(addr).unwrap();
        let stats = client.stats().unwrap();
        if pred(&stats) || std::time::Instant::now() > deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_dropped_reply_rolls_the_admission_back() {
    use gaugur_serve::{FaultInjector, FaultPlan};
    let plan = FaultPlan {
        drop_reply: 1.0,
        ..FaultPlan::quiet(1)
    };
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 2,
            fault: Some(std::sync::Arc::new(FaultInjector::new(plan))),
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let addr = handle.local_addr();

    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
    match client.place(GameId(0), Resolution::Fhd1080) {
        Err(e) if e.is_ambiguous() => {}
        other => panic!("expected an ambiguous transport error, got {other:?}"),
    }

    // The daemon admitted the session, failed the reply, and must depart it
    // again — the client never learned the id, so anything else is a leak.
    let stats = await_stats(addr, |s| s.placements_rolled_back == 1);
    assert_eq!(stats.placements_admitted, 1);
    assert_eq!(stats.placements_rolled_back, 1);
    assert_eq!(
        stats.active_sessions, 0,
        "leaked a session the client never saw"
    );
    handle.shutdown();
}

#[test]
fn a_torn_batch_reply_rolls_back_every_admission_in_the_batch() {
    use gaugur_serve::{FaultInjector, FaultPlan};
    let plan = FaultPlan {
        torn_reply: 1.0,
        ..FaultPlan::quiet(2)
    };
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 4,
            fault: Some(std::sync::Arc::new(FaultInjector::new(plan))),
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let addr = handle.local_addr();

    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
    let burst = [
        (GameId(0), Resolution::Fhd1080),
        (GameId(1), Resolution::Fhd1080),
        (GameId(2), Resolution::Hd720),
    ];
    match client.place_batch(&burst) {
        Err(ClientError::TornReply(_)) => {}
        other => panic!("expected TornReply, got {other:?}"),
    }

    // All three admissions of the half-written reply must unwind, newest
    // first, leaving the fleet exactly as before the batch.
    let stats = await_stats(addr, |s| s.placements_rolled_back == 3);
    assert_eq!(stats.placements_admitted, 3);
    assert_eq!(stats.placements_rolled_back, 3);
    assert_eq!(stats.active_sessions, 0);

    // The fleet is clean enough to take the identical batch again (every
    // reply tears under this plan, so it unwinds again): admissions and
    // rollbacks stay in lockstep and nothing accumulates.
    let mut retry = Client::connect(addr).unwrap();
    retry.set_timeout(Some(Duration::from_secs(5))).unwrap();
    match retry.place_batch(&burst) {
        Err(ClientError::TornReply(_)) => {}
        other => panic!("expected TornReply on the retry, got {other:?}"),
    }
    let stats = await_stats(addr, |s| s.placements_rolled_back == 6);
    assert_eq!(stats.placements_admitted, 6);
    assert_eq!(stats.placements_rolled_back, 6);
    assert_eq!(stats.active_sessions, 0);
    handle.shutdown();
}

#[test]
fn frames_above_the_configured_cap_get_a_typed_error_then_close() {
    let handle = daemon::start(
        DaemonConfig {
            max_frame_len: 64,
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let addr = handle.local_addr();

    // Small control frames still fit under the tightened cap.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.stats().unwrap().malformed_frames, 0);
    drop(client);

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    use std::io::{Read as _, Write as _};
    // A header declaring one byte over the cap: rejected before allocation,
    // answered with a typed error, then the connection is cut (no resync is
    // possible after a length violation).
    stream.write_all(&65u32.to_be_bytes()).unwrap();
    match read_frame::<_, Response>(&mut stream).unwrap() {
        Response::Error { message } => {
            assert!(message.contains("exceeds"), "unhelpful error: {message}")
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    let mut buf = [0u8; 16];
    assert_eq!(
        stream.read(&mut buf).unwrap(),
        0,
        "daemon kept a dead stream"
    );

    let stats = await_stats(addr, |s| s.malformed_frames == 1);
    assert_eq!(stats.malformed_frames, 1);
    handle.shutdown();
}

#[test]
fn the_read_deadline_cuts_a_stalled_half_frame() {
    let handle = daemon::start(
        DaemonConfig {
            read_timeout: Duration::from_millis(300),
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    use std::io::{Read as _, Write as _};
    // A header promising 100 bytes, then silence: only the daemon's read
    // deadline can end this connection, and it must.
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(b"{\"partial\":").unwrap();
    stream.flush().unwrap();
    let started = std::time::Instant::now();
    let mut buf = [0u8; 16];
    assert_eq!(
        stream.read(&mut buf).unwrap(),
        0,
        "daemon never cut the stalled connection"
    );
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "deadline took {:?}",
        started.elapsed()
    );
    handle.shutdown();
}

#[test]
fn shutdown_request_over_the_wire_stops_the_daemon() {
    let handle = daemon::start(quiet_config(), ModelHandle::from_model(model())).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.place(GameId(0), Resolution::Fhd1080).unwrap();
    client.shutdown().unwrap();
    let stats = handle.wait();
    assert_eq!(stats.per_request["place"].ok, 1);
    assert_eq!(stats.per_request["shutdown"].ok, 1);
}

#[test]
fn metrics_scrape_exposes_stage_timings_that_reconcile() {
    let handle = daemon::start(quiet_config(), ModelHandle::from_model(model())).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // A small mixed workload so every request stage has real samples.
    let mut sessions = Vec::new();
    for g in 0..4 {
        sessions.push(
            client
                .place(GameId(g), Resolution::Fhd1080)
                .unwrap()
                .session,
        );
    }
    client
        .predict(GameId(5), Resolution::Fhd1080, &[], 60.0)
        .unwrap();
    for s in sessions {
        client.depart(s).unwrap();
    }

    let text = client.metrics().unwrap();
    for needle in [
        "# TYPE gaugur_requests_total counter",
        "# TYPE gaugur_stage_duration_us histogram",
        "gaugur_requests_total{kind=\"place\",outcome=\"ok\"} 4",
        "gaugur_stage_duration_us_count{stage=\"place\"}",
        "gaugur_stage_duration_us_bucket{stage=\"decode\",le=\"+Inf\"}",
        "gaugur_active_sessions 0",
    ] {
        assert!(
            text.contains(needle),
            "exposition missing {needle:?}:\n{text}"
        );
    }

    // The snapshot behind the exposition satisfies the stage-accounting
    // invariant at this quiesced observation point, and a second scrape sees
    // counters that only moved forward.
    let snap = client.stats().unwrap();
    gaugur_serve::verify_stage_accounting(&snap).unwrap();
    let again = client.stats().unwrap();
    for (kind, rs) in &snap.per_request {
        assert!(
            again.per_request[kind].total() >= rs.total(),
            "{kind} went backwards"
        );
    }

    handle.shutdown();
}

#[test]
fn drifted_outcomes_feed_a_retrain_that_lowers_the_windowed_error() {
    // The closed loop end to end: the "real" environment delivers a constant
    // fraction of what the seed model predicts; outcome reports feed the
    // daemon's feedback buffer, a triggered retrain warm-starts on them and
    // hot-swaps the refreshed artifact, and the windowed relative error over
    // fresh reports must come down afterwards.
    const DRIFT: f64 = 0.8;
    let truth = model(); // frozen copy for computing ground-truth FPS
    let handle = daemon::start(
        DaemonConfig {
            // One server: the second placement of each round is forced to
            // colocate, so its prediction runs through the regression model
            // (solo placements short-circuit to the profiled solo FPS and
            // can never improve with retraining).
            n_servers: 1,
            feedback: gaugur_serve::FeedbackConfig {
                window: 16,
                min_retrain_samples: 16,
                auto_retrain: false,
                ..Default::default()
            },
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let res = Resolution::Fhd1080;
    let mut rng = rng_for(0xFEED, &[1]);

    // One phase = 20 rounds of: place a session, colocate a second beside
    // it, report the second one's observed FPS, then drain both. Reporting
    // before the fleet changes keeps the report's predicted FPS consistent
    // with the co-runner set the daemon resolves at ingest time.
    let phase = |client: &mut Client, rng: &mut rand_chacha::ChaCha8Rng| {
        for _ in 0..20 {
            let ga = GameId(rng.gen_range(0..N_GAMES));
            let gb = loop {
                let g = rng.gen_range(0..N_GAMES);
                if g != ga.0 {
                    break GameId(g);
                }
            };
            let pa = client.place(ga, res).unwrap();
            let pb = client.place(gb, res).unwrap();
            assert_eq!(pb.server, pa.server, "one server: must colocate");
            let (accepted, _, dropped) = client
                .report_outcome(gaugur_serve::OutcomeReport {
                    session: pb.session,
                    observed_fps: DRIFT * truth.predict_fps((gb, res), &[(ga, res)]),
                    predicted_fps: pb.predicted_fps,
                    model_version: pb.model_version,
                })
                .unwrap();
            assert_eq!((accepted, dropped), (1, 0));
            client.depart(pb.session).unwrap();
            client.depart(pa.session).unwrap();
        }
    };

    phase(&mut client, &mut rng);
    let pre = client.stats().unwrap();
    assert_eq!(pre.feedback_accepted, 20);
    assert_eq!(pre.feedback_dropped, 0);
    assert!(
        pre.windowed_mae > 0.15,
        "the drifted environment should show up as windowed error, got {}",
        pre.windowed_mae
    );

    assert!(client.trigger_retrain(None, None).unwrap());
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let settled = loop {
        let snap = client.stats().unwrap();
        if snap.retrains_ok + snap.retrains_failed > 0 {
            break snap;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "retrain did not settle"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(settled.retrains_ok, 1, "retrain over 20 outcomes failed");
    assert_eq!(
        settled.model_version, 2,
        "retrain must publish a new version"
    );
    assert_eq!(settled.last_retrain_samples, 20);
    // A successful retrain clears the *whole* drift state, sliding window
    // included — before any fresh report arrives, the windowed MAE must
    // read zero rather than keep echoing the replaced model's errors.
    assert_eq!(
        settled.windowed_mae, 0.0,
        "windowed MAE still reflects pre-retrain errors after the retrain"
    );
    assert_eq!(settled.drift_score, 0.0);

    // Fresh reports against the retrained model; the window (16) is smaller
    // than one phase's 20 reports, so the post snapshot is all-new data.
    phase(&mut client, &mut rng);
    let post = client.stats().unwrap();
    assert_eq!(post.feedback_dropped, 0);
    assert!(
        post.windowed_mae < pre.windowed_mae / 2.0,
        "retrain must at least halve the windowed error: pre {} post {}",
        pre.windowed_mae,
        post.windowed_mae
    );
    let final_stats = handle.shutdown();
    // Every request this test sent was answered successfully.
    for (kind, counters) in &final_stats.per_request {
        assert_eq!(counters.errors, 0, "{kind} requests failed");
    }
}

#[test]
fn slo_status_over_the_wire_reports_healthy_objectives() {
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 10,
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let mut sessions = Vec::new();
    for g in 0..4 {
        sessions.push(client.place(GameId(g), Resolution::Fhd1080).unwrap());
    }
    for p in &sessions {
        // Healthy observations: at the predicted rate, above the QoS floor.
        client
            .report_outcome(gaugur_serve::OutcomeReport {
                session: p.session,
                observed_fps: p.predicted_fps,
                predicted_fps: p.predicted_fps,
                model_version: p.model_version,
            })
            .unwrap();
        client.depart(p.session).unwrap();
    }

    let slo = client.slo_status().unwrap();
    assert_eq!(slo.state, gaugur_serve::AlertState::Ok, "{slo}");
    assert_eq!(slo.objectives.len(), 3);
    for o in &slo.objectives {
        assert_eq!(o.state, gaugur_serve::AlertState::Ok, "{}: {o:?}", o.name);
    }
    // The rolling views rode along: the fast window saw this test's traffic.
    assert_eq!(slo.windows.len(), 3);
    assert_eq!(
        slo.windows
            .iter()
            .map(|w| w.window_secs)
            .collect::<Vec<_>>(),
        vec![10, 60, 300]
    );
    assert!(slo.windows[0].requests_ok > 0, "{:?}", slo.windows[0]);
    assert_eq!(slo.windows[0].place_attempts, 4);
    assert_eq!(slo.windows[0].outcomes_total, 4);
    assert_eq!(slo.windows[0].outcomes_below_floor, 0);
    // Per-game QoS tallies resolved the games we placed.
    assert!(!slo.per_game.is_empty());

    // The same report is embedded in the stats snapshot.
    let stats = client.stats().unwrap();
    let embedded = stats.slo.expect("stats snapshot carries the SLO report");
    assert_eq!(embedded.state, gaugur_serve::AlertState::Ok);
    handle.shutdown();
}

#[test]
fn recorder_dump_over_the_wire_matches_the_session_history() {
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 10,
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let a = client.place(GameId(0), Resolution::Fhd1080).unwrap();
    let b = client.place(GameId(1), Resolution::Fhd1080).unwrap();
    let c = client.place(GameId(2), Resolution::Fhd1080).unwrap();
    client.depart(b.session).unwrap();

    // The deterministic view: three admits then one depart, renumbered,
    // with wall-clock and identity noise struck.
    let (jsonl, events, truncated) = client.dump_recorder(true).unwrap();
    assert!(!truncated);
    assert_eq!(events, 4, "3 admits + 1 depart:\n{jsonl}");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 4);
    for (i, line) in lines.iter().enumerate() {
        serde_json::parse_value_str(line).expect("dump line is standalone JSON");
        assert!(line.starts_with(&format!("{{\"i\":{i},")), "{line}");
        assert!(
            !line.contains("t_us"),
            "deterministic dump leaked time: {line}"
        );
    }
    assert!(lines[0].contains("\"kind\":\"admit\""));
    assert!(lines[3].contains("\"kind\":\"depart\""));
    assert!(lines[3].contains(&format!(
        "\"server\":{}",
        a.server.max(b.server).min(b.server)
    )));

    // The operator view keeps everything: timestamps, sequence numbers,
    // session ids, model versions.
    let (full, full_events, _) = client.dump_recorder(false).unwrap();
    assert!(full_events >= 4);
    assert!(full.contains("\"t_us\""));
    assert!(full.contains(&format!("\"session\":{}", c.session)));
    handle.shutdown();
}

#[test]
fn critical_alert_auto_dumps_the_flight_recorder() {
    let dir = std::env::temp_dir().join(format!("gaugur-slo-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump_path = dir.join("incident.jsonl");
    let _ = std::fs::remove_file(&dump_path);

    let handle = daemon::start(
        DaemonConfig {
            // One tiny server: a short burst of placements saturates the
            // fleet, and saturation rejections *are* the QoS floor biting —
            // the admit_qos objective's error budget burns at once.
            n_servers: 1,
            recorder_dump_path: Some(dump_path.clone()),
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let mut rejected = 0u64;
    for g in 0..N_GAMES {
        for _ in 0..4 {
            match client.place(GameId(g), Resolution::Fhd1080) {
                Ok(_) => {}
                Err(ClientError::Rejected { .. }) => rejected += 1,
                Err(e) => panic!("unexpected place error: {e}"),
            }
        }
    }
    assert!(rejected > 0, "one server must saturate under 32 placements");

    // Forcing an evaluation trips Ok -> Critical on the admit_qos
    // objective, which must write the incident dump to the configured path.
    let slo = client.slo_status().unwrap();
    let admit = &slo.objectives[0];
    assert_eq!(admit.name, "admit_qos");
    assert_eq!(admit.state, gaugur_serve::AlertState::Critical, "{slo}");
    assert!(slo.transitions > 0);

    let dumped = std::fs::read_to_string(&dump_path)
        .expect("Critical transition must write the recorder dump");
    assert!(!dumped.is_empty());
    for line in dumped.lines() {
        serde_json::parse_value_str(line).expect("dump line is standalone JSON");
    }
    // The operator dump records the alert transition itself.
    assert!(
        dumped.contains("\"kind\":\"alert\""),
        "incident dump should include the alert transition:\n{dumped}"
    );
    handle.shutdown();
}

#[test]
fn an_injected_manual_clock_drives_uptime_and_the_windowed_views() {
    use std::sync::Arc;
    let clock = Arc::new(gaugur_serve::ManualClock::new(1_000_000));
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 10,
            clock: Some(clock.clone()),
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let p = client.place(GameId(0), Resolution::Fhd1080).unwrap();
    let slo = client.slo_status().unwrap();
    assert_eq!(slo.windows[0].place_attempts, 1);

    // Jump the injected clock past the fast window: the 10s view forgets
    // the placement, the 5m view still holds it.
    clock.advance_secs(30);
    let slo = client.slo_status().unwrap();
    assert_eq!(slo.windows[0].place_attempts, 0, "{:?}", slo.windows[0]);
    assert_eq!(slo.windows[2].place_attempts, 1, "{:?}", slo.windows[2]);

    // Uptime follows the same clock.
    let stats = client.stats().unwrap();
    assert_eq!(stats.uptime_ms, 30_000);

    client.depart(p.session).unwrap();
    handle.shutdown();
}

/// `serve_connection` only looked at the shutdown flag between frames, so a
/// worker parked in a read on an idle connection sat out the whole 30 s
/// `read_timeout` before `shutdown()` could join it. A shutdown must wake
/// it, and still answer a frame that was already on the wire.
#[test]
fn shutdown_wakes_workers_parked_on_idle_connections() {
    for client_dropped_first in [true, false] {
        let handle = daemon::start(quiet_config(), ModelHandle::from_model(model())).unwrap();
        let addr = handle.local_addr();
        // One round trip each, so a worker owns each connection and is
        // parked in the read for its next frame.
        let mut idle = Client::connect(addr).unwrap();
        idle.place(GameId(0), Resolution::Fhd1080).unwrap();
        let mut busy = TcpStream::connect(addr).unwrap();
        // (`write_frame` is two writes; without this the second would wait
        // in Nagle's buffer for an ACK and the frame be half sent.)
        busy.set_nodelay(true).unwrap();
        write_frame(&mut busy, &Request::Stats).unwrap();
        let _: Response = read_frame(&mut busy).unwrap();
        // A frame the daemon has received before the shutdown is answered.
        let depart = Request::Depart { session: 1 };
        write_frame(&mut busy, &depart).unwrap();

        if client_dropped_first {
            drop(idle);
        }
        let started = std::time::Instant::now();
        let stats = handle.shutdown();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "shutdown took {took:?} (client dropped first: {client_dropped_first})"
        );
        match read_frame::<_, Response>(&mut busy) {
            Ok(Response::Departed { session: 1, .. }) => {}
            other => panic!("the in-flight depart went unanswered: {other:?}"),
        }
        assert_eq!(stats.per_request["depart"].ok, 1);
        assert_eq!(stats.active_sessions, 0);
        assert_eq!(stats.connections_accepted, stats.connections_closed);
    }
}

/// A worker reads the clock once per frame — the reading places the frame's
/// samples in a window second, stamps its recorder events, drives the SLO
/// tick and is the "now" of a `Stats` or `SloStatus` reply — and once per
/// connection, for the queue wait. It used to be four reads per `Place` and
/// one more per report in a batch.
#[test]
fn a_frame_costs_one_clock_read() {
    use gaugur_serve::slo::{Clock, MonotonicClock};
    use std::sync::atomic::{AtomicU64, Ordering};
    #[derive(Debug, Default)]
    struct CountingClock {
        inner: MonotonicClock,
        reads: AtomicU64,
    }
    impl Clock for CountingClock {
        fn now_us(&self) -> u64 {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.now_us()
        }
    }

    let clock = std::sync::Arc::new(CountingClock::default());
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 20,
            clock: Some(clock.clone()),
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let reads = || clock.reads.load(Ordering::Relaxed);

    let before = reads();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let mut place = |i| client.place(GameId(i % N_GAMES), Resolution::Fhd1080);
    let placed: Vec<_> = (0..40).map(|i| place(i).unwrap()).collect();
    assert_eq!(reads() - before, 40 + 1, "40 frames on 1 connection");

    let reports: Vec<_> = placed
        .iter()
        .map(|p| gaugur_serve::OutcomeReport {
            session: p.session,
            observed_fps: p.predicted_fps,
            predicted_fps: p.predicted_fps,
            model_version: p.model_version,
        })
        .collect();
    let before = reads();
    assert_eq!(client.report_outcomes(&reports).unwrap(), (40, 0, 0));
    assert_eq!(reads() - before, 1, "a batch of 40 reports is one frame");

    let before = reads();
    let stats = client.stats().unwrap();
    client.slo_status().unwrap();
    client.metrics().unwrap();
    assert_eq!(reads() - before, 3, "scrapes report the frame's reading");
    assert_eq!(stats.per_request["place"].ok, 40);
    handle.shutdown();
}

/// At a finite rate the driver used to start an arrival's stopwatch after
/// its pacing sleep and its departs, so time it spent behind schedule was
/// charged to nobody. Stall the first reply: every later arrival falls due
/// during the stall, and its latency must say so.
#[test]
fn a_paced_load_run_charges_its_own_lateness_to_the_arrivals() {
    use gaugur_serve::{FaultAction, FaultInjector, FaultPlan, InjectionPoint};
    const ARRIVALS: u64 = 8;
    const STALL_MS: u64 = 300;
    // A plan whose seeded stream stalls the first placement reply only.
    let plan = (0..)
        .map(|seed| FaultPlan {
            stall_reply: 0.2,
            stall_ms: STALL_MS,
            ..FaultPlan::quiet(seed)
        })
        .find(|&plan| {
            let probe = FaultInjector::new(plan);
            let mut draws = (0..ARRIVALS).map(|_| probe.decide(InjectionPoint::Reply));
            draws.next() == Some(FaultAction::Stall(STALL_MS))
                && draws.all(|action| action == FaultAction::None)
        })
        .unwrap();
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 8,
            fault: Some(std::sync::Arc::new(FaultInjector::new(plan))),
            ..quiet_config()
        },
        ModelHandle::from_model(model()),
    )
    .unwrap();
    let report = load::run(&LoadConfig {
        addr: handle.local_addr().to_string(),
        seed: 11,
        connections: 1,
        requests: ARRIVALS,
        // Mean gap 1 ms: all eight arrivals are due well inside the stall.
        rate: 1_000.0,
        games: (0..N_GAMES).map(GameId).collect(),
        ..Default::default()
    });
    handle.shutdown();
    assert_eq!(report.errors, 0, "{report}");
    assert_eq!(report.placed + report.rejected, ARRIVALS);
    // Timed from the send, only the stalled arrival itself would be slow
    // and the median a few dozen µs.
    assert!(
        report.p50_us >= STALL_MS * 1_000 / 2,
        "arrivals that were due during the stall report p50 {} µs",
        report.p50_us
    );
}
