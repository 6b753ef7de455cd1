//! Differential oracle for the placement daemon: whatever it answers over
//! the wire must be what the serial [`gaugur::serve::Reference`] answers
//! for the lock order the daemon ran in (DESIGN §13).
//!
//! * With one worker the lock order is the request order, so every reply
//!   frame must equal the reference's byte for byte, on one, two and three
//!   shards, over cold traffic (the whole catalog at two resolutions, with
//!   `Predict` reads and `ReportOutcome` reports beside the placements) and
//!   a 64-entry memo that evicts all the way through; so must each shard's
//!   `ScoreCache` hit/miss counts.
//! * With four racing workers, on one shard and on two, the flight recorder
//!   stamps each admit and depart under its shard's lock, and replaying the
//!   recorded order through the reference must reproduce every server
//!   choice and every `predicted_fps` bit the clients were told.

mod common;

use common::{admitted, daemon_and_reference, drive_beside_reference, fixture};
use gaugur::core::Placement;
use gaugur::gamesim::rng::rng_for;
use gaugur::prelude::*;
use gaugur::sched::maxfps::MAX_PER_SERVER;
use gaugur::serve::wire::{OutcomeReport, Request, Response};
use gaugur::serve::{daemon, verify_stage_accounting, Placed};
use rand::Rng;
use std::collections::HashMap;

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

fn config(n_servers: usize, shards: usize, workers: usize, memo: usize) -> DaemonConfig {
    DaemonConfig {
        n_servers,
        shards,
        workers,
        qos: 60.0,
        memo_capacity: memo,
        recorder_capacity: 4096,
        print_stats_on_shutdown: false,
        ..Default::default()
    }
}

/// What must hold of a daemon once its clients have drained it.
fn assert_drained(stats: &StatsSnapshot, shards: usize) {
    verify_stage_accounting(stats).unwrap();
    assert_eq!(stats.active_sessions, 0);
    assert_eq!(stats.placements_rolled_back, 0);
    assert_eq!(stats.shards, shards);
    assert_eq!(stats.shard_misrouted_sessions, 0);
}

/// The `n`-th `Predict`: one placement beside up to three others. One in
/// ten names a co-runner the model does not know, and one in ten more
/// co-runners than a server holds.
fn nth_predict(n: usize, rng: &mut impl Rng) -> Request {
    let (game, resolution) = any_placement(rng);
    let n_others = match n % 10 {
        5 => MAX_PER_SERVER,
        _ => rng.gen_range(0..4),
    };
    let mut others: Vec<Placement> = (0..n_others).map(|_| any_placement(rng)).collect();
    if n.is_multiple_of(10) {
        others.push((GameId(999), Resolution::Hd720));
    }
    let qos = if rng.gen_bool(0.5) { 60.0 } else { 30.0 };
    Request::Predict {
        game,
        resolution,
        others,
        qos,
    }
}

fn one_worker_replies_match_the_serial_replay(shards: usize, seed: u64) {
    const MEMO: usize = 64;
    let mut rng = rng_for(seed, &[1]);
    // Live sessions with the FPS each was predicted, and departed ones.
    let mut live: Vec<(u64, f64)> = Vec::new();
    let mut departed: Vec<u64> = Vec::new();
    let mut predicts = Vec::new();
    let mut per_shard = vec![0; shards];
    // What the traffic is meant to reach, each at least once.
    let mut unseen = vec![
        "Rejected",
        "cached: true",
        "Error",
        "accepted: 1",
        "dropped: 1",
    ];
    let next = |step, reply: Option<Response>| {
        if let Some(reply) = reply {
            let text = format!("{reply:?}");
            unseen.retain(|needle| !text.contains(needle));
            for (session, fps) in admitted(&reply) {
                live.push((session, fps));
                per_shard[(session as usize - 1) % shards] += 1;
            }
        }
        // Fill, churn, read, report, and drain at the end.
        Some(if step >= 570 || (!live.is_empty() && rng.gen_bool(0.35)) {
            let n = live.len().checked_sub(1)?;
            let (session, _) = live.swap_remove(rng.gen_range(0..=n));
            departed.push(session);
            Request::Depart { session }
        } else if rng.gen_bool(0.12) {
            // Half of them repeat the last read, which the memo then holds
            // unless the placements in between evicted it.
            match predicts.last() {
                Some(previous) if rng.gen_bool(0.5) => Request::clone(previous),
                _ => {
                    predicts.push(nth_predict(predicts.len(), &mut rng));
                    predicts[predicts.len() - 1].clone()
                }
            }
        } else if rng.gen_bool(0.1) {
            // The observed FPS is the predicted one, so drift never trips
            // and the model version stays 1.
            let (session, fps) = match rng.gen_range(0..4) {
                0 if !departed.is_empty() => (departed[rng.gen_range(0..departed.len())], 60.0),
                1 => (rng.gen_range(10_000..10_100), 60.0),
                _ if !live.is_empty() => live[rng.gen_range(0..live.len())],
                _ => (0, 60.0),
            };
            let report = OutcomeReport {
                session,
                observed_fps: fps,
                predicted_fps: fps,
                model_version: 1,
            };
            Request::ReportOutcome { report }
        } else if rng.gen_bool(0.15) {
            Request::PlaceBatch {
                requests: (0..3).map(|_| any_placement(&mut rng)).collect(),
            }
        } else {
            let (game, resolution) = any_placement(&mut rng);
            Request::Place { game, resolution }
        })
    };
    let (per_shard_counts, stats) = drive_beside_reference(config(5, shards, 1, MEMO), next);
    assert!(unseen.is_empty(), "no reply showed {unseen:?}");
    // Every shard admitted: on more than one, an earlier shard winning is
    // the re-scored branch and the last shard winning is its own decision.
    assert!(!per_shard.contains(&0), "admits per shard {per_shard:?}");

    // The memo really was under eviction pressure the whole way, and the
    // score caches' hit/miss streams were exactly the serial ones: the
    // daemon's abandoned first passes never touch them.
    let memo_misses = stats.cache_misses;
    assert!(memo_misses > 10 * MEMO as u64, "{memo_misses} memo misses");
    let hits = per_shard_counts.iter().map(|c| c.0).sum();
    let misses = per_shard_counts.iter().map(|c| c.1).sum();
    assert_eq!((stats.score_hits, stats.score_misses), (hits, misses));
    assert_eq!(stats.place_admit_retries + stats.place_admit_fallbacks, 0);
    assert_eq!((stats.model_version, stats.drift_trips), (1, 0));
    // Drained: the script departs everything it placed.
    assert_drained(&stats, shards);
}

#[test]
fn one_worker_replies_are_byte_identical_to_the_serial_replay() {
    one_worker_replies_match_the_serial_replay(1, 0x0D1F_F0A1);
}

#[test]
fn one_worker_on_two_shards_replies_are_byte_identical_to_the_serial_replay() {
    one_worker_replies_match_the_serial_replay(2, 0x0D1F_F0A4);
}

/// Five servers on three shards split 2/2/1.
#[test]
fn one_worker_on_three_shards_replies_are_byte_identical_to_the_serial_replay() {
    one_worker_replies_match_the_serial_replay(3, 0x0D1F_F0A5);
}

/// Four racing clients place and depart; returns what they asked for and
/// were told, keyed by session. A client never holds more than four
/// sessions, so sixteen at most are live on the eight servers and no
/// placement can be refused.
fn race(handle: &daemon::DaemonHandle, seed: u64) -> HashMap<u64, (Placement, Placed)> {
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
                            told.push((placed.session, (placement, placed)));
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
    let memo = DaemonConfig::default().memo_capacity;
    let (handle, mut reference) = daemon_and_reference(config(8, shards, 4, memo));
    let told = race(&handle, seed);

    let mut client = Client::connect(handle.local_addr()).unwrap();
    let (jsonl, events, truncated) = client.dump_recorder(false).unwrap();
    assert!(!truncated);
    assert_eq!(
        events as usize,
        2 * told.len(),
        "one admit, one depart each"
    );

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
                let (placement, saw) = told[&session];
                let shard = field(line, "shard") as usize;
                let (replayed, at, fps) = reference
                    .place_in(shard, placement)
                    .expect("the daemon found room");
                assert_eq!(
                    (replayed, at, fps.to_bits()),
                    (session, server, saw.predicted_fps.to_bits()),
                    "seq {seq}: session, server and predicted fps the client was told"
                );
                assert_eq!(saw.server, server, "seq {seq}: the recorded server");
            }
            "depart" => assert_eq!(reference.depart(session), Some(server), "seq {seq}"),
            other => panic!("unexpected recorder event {other}"),
        }
    }

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
