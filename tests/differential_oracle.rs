//! Differential oracle for the placement daemon: whatever the daemon answers
//! over the wire must be what a plain serial loop over the library calls
//! answers — `select_server_incremental_with → PredictionMemo::predict_with →
//! ClusterState::admit / depart`, one request at a time, no locks, no
//! threads, no second scoring pass.
//!
//! The daemon evaluates the model with its shard lock released and decides
//! under it; this file is what holds that protocol to "exactly the serial
//! outcome for the lock order":
//!
//! * with one worker the lock order is the request order, so every reply
//!   frame must equal the oracle's byte for byte — over cold traffic (the
//!   whole catalog at two resolutions) and a 64-entry memo that evicts all
//!   the way through — and so must each shard's `ScoreCache` hit/miss
//!   counts, on one shard and on two, where the oracle also does what the
//!   daemon's one admit path does across shards: score them all in order,
//!   admit from the last shard's own selection when it ranks first, and
//!   otherwise drop every speculative entry and re-score the winner;
//! * with four racing workers, on one shard and on two, the order is
//!   whatever the race made it — the flight recorder stamps each admit and
//!   depart under its shard's lock, and replaying the recorded order through
//!   the oracle must reproduce every server choice and every
//!   `predicted_fps` bit the clients were told.

mod common;

use common::{fixture, gaugur};
use gaugur::core::Placement;
use gaugur::gamesim::rng::rng_for;
use gaugur::prelude::*;
use gaugur::sched::{
    rank_shard_selections, select_server_incremental_with, PlacementScratch, ScoreCache, Selection,
};
use gaugur::serve::wire::{self, Request, Response};
use gaugur::serve::{
    daemon, verify_stage_accounting, BatchPlaceResult, ClusterState, LoadedModel, MemoizedFps,
    PredictionMemo,
};
use rand::Rng;
use std::collections::HashMap;
use std::net::TcpStream;

const QOS: f64 = 60.0;
const SATURATED: &str = "no eligible server (fleet saturated)";

/// The serial reference: the fleet partitioned exactly as the daemon
/// partitions it, driven inline.
struct Oracle {
    model: LoadedModel,
    memo: PredictionMemo,
    /// Per shard: first global server index, occupancy, score cache.
    shards: Vec<(usize, ClusterState, ScoreCache)>,
    scratch: PlacementScratch,
    /// Requests [`Oracle::place_anywhere`] admitted from the last shard's
    /// own selection, and those it re-scored on an earlier winner.
    last_decided: u64,
    rescored: u64,
}

impl Oracle {
    fn new(n_servers: usize, n_shards: usize, memo_capacity: usize) -> Oracle {
        let mut shards = Vec::new();
        let mut base = 0;
        for s in 0..n_shards {
            let size = n_servers / n_shards + usize::from(s < n_servers % n_shards);
            let cluster = ClusterState::new_sharded(size, s as u64, n_shards as u64);
            shards.push((base, cluster, ScoreCache::new(size)));
            base += size;
        }
        Oracle {
            model: LoadedModel {
                gaugur: gaugur().clone(),
                version: 1,
                source: std::path::PathBuf::from("<oracle>"),
            },
            memo: PredictionMemo::new(memo_capacity),
            shards,
            scratch: PlacementScratch::new(),
            last_decided: 0,
            rescored: 0,
        }
    }

    /// Choose within `shard`, under the admit contract.
    fn select(&mut self, shard: usize, placement: Placement) -> Option<Selection> {
        let (_, cluster, scores) = &mut self.shards[shard];
        let fps_model = MemoizedFps {
            model: &self.model,
            memo: &self.memo,
            qos: QOS,
        };
        select_server_incremental_with(
            &*cluster,
            placement,
            &fps_model,
            self.model.version,
            scores,
            &mut self.scratch,
        )
    }

    /// Predict against the pre-admit co-runners, admit: `(session, global
    /// server, predicted fps)`.
    fn admit(&mut self, shard: usize, placement: Placement, sel: Selection) -> (u64, usize, f64) {
        let (base, cluster, _) = &mut self.shards[shard];
        let (prediction, _) = self.memo.predict_with(
            &self.model,
            QOS,
            placement,
            cluster.members(sel.server),
            &mut self.scratch.predict,
        );
        let session = cluster.admit(sel.server, placement);
        (session, *base + sel.server, prediction.fps)
    }

    /// Choose within `shard` and admit there.
    fn place(&mut self, shard: usize, placement: Placement) -> Option<(u64, usize, f64)> {
        let sel = self.select(shard, placement)?;
        Some(self.admit(shard, placement, sel))
    }

    /// One request through the daemon's admit path, uncontended: every
    /// shard chooses in order; the cross-shard winner is the largest delta,
    /// ties to the lower shard. Only the last shard's lock outlives its
    /// choice, so a winning last shard admits its own selection, and every
    /// other speculative entry is dropped — the winner then chooses again.
    fn place_anywhere(&mut self, placement: Placement) -> Option<(u64, usize, f64)> {
        let last = self.shards.len() - 1;
        let candidates: Vec<Option<Selection>> =
            (0..=last).map(|s| self.select(s, placement)).collect();
        let mut ranked = Vec::new();
        rank_shard_selections(&candidates, &mut ranked);
        let &winner = ranked.first()?;
        for (s, sel) in candidates.iter().enumerate() {
            if let Some(sel) = sel {
                if (s, winner) != (last, last) {
                    self.shards[s].2.invalidate(sel.server);
                }
            }
        }
        if winner == last {
            self.last_decided += 1;
            let sel = candidates[last].expect("the winner has a candidate");
            Some(self.admit(last, placement, sel))
        } else {
            self.rescored += 1;
            self.place(winner, placement)
        }
    }

    /// Depart `session` from the shard its id routes to: the global server.
    fn depart(&mut self, session: u64) -> Option<usize> {
        let shard = (session.wrapping_sub(1) % self.shards.len() as u64) as usize;
        let (base, cluster, scores) = &mut self.shards[shard];
        let placed = cluster.depart(session)?;
        scores.invalidate(placed.server);
        Some(*base + placed.server)
    }

    fn active_sessions(&self) -> usize {
        self.shards
            .iter()
            .map(|(_, cluster, _)| cluster.active_sessions())
            .sum()
    }

    /// Wire semantics of the requests the traffic below sends.
    fn handle(&mut self, request: &Request) -> Response {
        match request {
            Request::Place { game, resolution } => {
                match self.place_anywhere((*game, *resolution)) {
                    Some((session, server, predicted_fps)) => Response::Placed {
                        session,
                        server,
                        predicted_fps,
                        model_version: 1,
                    },
                    None => Response::Rejected {
                        reason: SATURATED.into(),
                    },
                }
            }
            Request::PlaceBatch { requests } => Response::PlacedBatch {
                model_version: 1,
                results: requests
                    .iter()
                    .map(|&p| match self.place_anywhere(p) {
                        Some((session, server, predicted_fps)) => BatchPlaceResult::Placed {
                            session,
                            server,
                            predicted_fps,
                        },
                        None => BatchPlaceResult::Rejected {
                            reason: SATURATED.into(),
                        },
                    })
                    .collect(),
            },
            Request::Depart { session } => match self.depart(*session) {
                Some(server) => Response::Departed {
                    session: *session,
                    server,
                },
                None => Response::UnknownSession { session: *session },
            },
            other => panic!("the oracle does not replay {other:?}"),
        }
    }
}

/// Any game of the catalog at one of two resolutions.
fn any_placement(rng: &mut impl Rng) -> Placement {
    let game = fixture().catalog[rng.gen_range(0..16)].id;
    let resolution = if rng.gen_bool(0.5) {
        Resolution::Hd720
    } else {
        Resolution::Fhd1080
    };
    (game, resolution)
}

fn start(n_servers: usize, shards: usize, workers: usize, memo: usize) -> daemon::DaemonHandle {
    daemon::start(
        DaemonConfig {
            n_servers,
            shards,
            workers,
            qos: QOS,
            memo_capacity: memo,
            recorder_capacity: 4096,
            print_stats_on_shutdown: false,
            ..Default::default()
        },
        ModelHandle::from_model(gaugur().clone()),
    )
    .unwrap()
}

/// What must hold of a daemon once its clients have drained it.
fn assert_drained(stats: &StatsSnapshot, shards: usize) {
    verify_stage_accounting(stats).unwrap();
    assert_eq!(stats.active_sessions, 0);
    assert_eq!(stats.placements_rolled_back, 0);
    assert_eq!(stats.shards, shards);
    assert_eq!(stats.shard_misrouted_sessions, 0);
}

fn one_worker_replies_match_the_serial_replay(shards: usize, seed: u64) {
    const N_SERVERS: usize = 5;
    const MEMO: usize = 64;
    let handle = start(N_SERVERS, shards, 1, MEMO);
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut oracle = Oracle::new(N_SERVERS, shards, MEMO);

    let mut rng = rng_for(seed, &[1]);
    let mut live: Vec<u64> = Vec::new();
    let mut rejected = 0;
    for step in 0..500 {
        // Fill, churn, and drain at the end.
        let request = if step >= 470 || (!live.is_empty() && rng.gen_bool(0.42)) {
            match live.len() {
                0 => break,
                n => Request::Depart {
                    session: live.swap_remove(rng.gen_range(0..n)),
                },
            }
        } else if rng.gen_bool(0.15) {
            Request::PlaceBatch {
                requests: (0..3).map(|_| any_placement(&mut rng)).collect(),
            }
        } else {
            let (game, resolution) = any_placement(&mut rng);
            Request::Place { game, resolution }
        };

        wire::write_frame(&mut stream, &request).unwrap();
        let reply = wire::read_frame_bytes(&mut stream).unwrap();
        let expected = oracle.handle(&request);
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, &expected).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&reply),
            String::from_utf8_lossy(&frame[4..]),
            "step {step}: {request:?}"
        );

        match expected {
            Response::Placed { session, .. } => live.push(session),
            Response::PlacedBatch { results, .. } => {
                for r in results {
                    match r {
                        BatchPlaceResult::Placed { session, .. } => live.push(session),
                        BatchPlaceResult::Rejected { .. } => rejected += 1,
                    }
                }
            }
            Response::Rejected { .. } => rejected += 1,
            _ => {}
        }
    }
    assert!(live.is_empty(), "the script drains what it placed");
    assert!(rejected > 0, "the fleet should saturate at least once");
    assert_eq!(oracle.active_sessions(), 0);
    assert!(oracle.last_decided > 0);
    if shards > 1 {
        assert!(oracle.rescored > 0, "no earlier shard ever won");
    }

    // The memo really was under eviction pressure the whole way, and each
    // of the daemon's score caches saw exactly the serial hit/miss stream:
    // its abandoned first passes never touch them.
    let (_, misses) = oracle.memo.counts();
    assert!(misses > 10 * MEMO as u64, "only {misses} memo misses");
    let per_shard: Vec<(u64, u64)> = oracle.shards.iter().map(|(_, _, c)| c.counts()).collect();
    assert_eq!(handle.shard_score_counts(), per_shard);
    wire::write_frame(&mut stream, &Request::Stats).unwrap();
    let Response::Stats(stats) = wire::read_frame(&mut stream).unwrap() else {
        panic!("stats reply expected");
    };
    let (hits, misses) = per_shard
        .iter()
        .fold((0, 0), |(h, m), &(sh, sm)| (h + sh, m + sm));
    assert_eq!((stats.score_hits, stats.score_misses), (hits, misses));
    assert_eq!(stats.place_admit_retries + stats.place_admit_fallbacks, 0);
    assert_drained(&stats, shards);
    drop(stream);
    handle.shutdown();
}

#[test]
fn one_worker_replies_are_byte_identical_to_the_serial_replay() {
    one_worker_replies_match_the_serial_replay(1, 0x0D1F_F0A1);
}

#[test]
fn one_worker_on_two_shards_replies_are_byte_identical_to_the_serial_replay() {
    one_worker_replies_match_the_serial_replay(2, 0x0D1F_F0A4);
}

/// What one client was told about a session it placed.
#[derive(Clone, Copy)]
struct Told {
    placement: Placement,
    server: usize,
    fps_bits: u64,
}

/// Four racing clients place and depart; returns what they were told, keyed
/// by session. A client never holds more than four sessions, so sixteen at
/// most are live on the eight servers and no placement can be refused.
fn race(handle: &daemon::DaemonHandle, seed: u64) -> HashMap<u64, Told> {
    let addr = handle.local_addr();
    let mut told = HashMap::new();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4u64)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut rng = rng_for(seed, &[c]);
                    let mut live: Vec<u64> = Vec::new();
                    let mut told = Vec::new();
                    for _ in 0..120 {
                        if live.len() == 4 || (!live.is_empty() && rng.gen_bool(0.4)) {
                            let session = live.swap_remove(rng.gen_range(0..live.len()));
                            client.depart(session).unwrap();
                        } else {
                            let placement = any_placement(&mut rng);
                            let placed = client.place(placement.0, placement.1).unwrap();
                            live.push(placed.session);
                            told.push((
                                placed.session,
                                Told {
                                    placement,
                                    server: placed.server,
                                    fps_bits: placed.predicted_fps.to_bits(),
                                },
                            ));
                        }
                    }
                    for session in live {
                        client.depart(session).unwrap();
                    }
                    told
                })
            })
            .collect();
        for client in clients {
            told.extend(client.join().unwrap());
        }
    });
    told
}

/// The unsigned integer field `name` of one flat JSON line of the dump.
fn field(line: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let digits = line
        .split_once(&key)
        .unwrap_or_else(|| panic!("recorder line without `{name}`: {line}"))
        .1;
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().unwrap()
}

fn racing_workers_match_the_replay_of_their_recorded_order(shards: usize, seed: u64) {
    const N_SERVERS: usize = 8;
    let handle = start(N_SERVERS, shards, 4, DaemonConfig::default().memo_capacity);
    let told = race(&handle, seed);

    let mut client = Client::connect(handle.local_addr()).unwrap();
    let (jsonl, events, truncated) = client.dump_recorder(false).unwrap();
    assert!(!truncated);
    assert_eq!(
        events as usize,
        2 * told.len(),
        "one admit, one depart each"
    );

    let mut oracle = Oracle::new(N_SERVERS, shards, DaemonConfig::default().memo_capacity);
    let mut last_seq = None;
    for line in jsonl.lines() {
        let seq = field(line, "seq");
        assert!(last_seq < Some(seq), "dump is in recorded order");
        last_seq = Some(seq);
        let session = field(line, "session");
        let server = field(line, "server") as usize;
        let kind = line.split_once("\"kind\":\"").expect("kind").1;
        match kind.split_once('"').expect("kind").0 {
            "admit" => {
                let client_saw = told[&session];
                assert_eq!(client_saw.server, server);
                let shard = field(line, "shard") as usize;
                let (replayed, at, fps) = oracle
                    .place(shard, client_saw.placement)
                    .expect("the daemon found room");
                assert_eq!(replayed, session, "seq {seq}: session id");
                assert_eq!(at, server, "seq {seq}: server choice for session {session}");
                assert_eq!(
                    fps.to_bits(),
                    client_saw.fps_bits,
                    "seq {seq}: predicted fps of session {session}"
                );
            }
            "depart" => assert_eq!(oracle.depart(session), Some(server), "seq {seq}"),
            other => panic!("unexpected recorder event {other}"),
        }
    }
    assert_eq!(oracle.active_sessions(), 0);

    let stats = client.stats().unwrap();
    assert_drained(&stats, shards);
    assert_eq!(stats.placements_admitted as usize, told.len());
    if shards == 1 {
        assert_eq!(stats.place_admit_retries + stats.place_admit_fallbacks, 0);
    }
    drop(client);
    handle.shutdown();
}

#[test]
fn four_workers_on_one_shard_match_the_replay_of_their_recorded_order() {
    racing_workers_match_the_replay_of_their_recorded_order(1, 0x0D1F_F0A2);
}

#[test]
fn four_workers_on_two_shards_match_the_replay_of_their_recorded_order() {
    racing_workers_match_the_replay_of_their_recorded_order(2, 0x0D1F_F0A3);
}
