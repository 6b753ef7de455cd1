//! Isolated measurements of single layers, by timing calls into their
//! public functions: `queue`, `core`, `sched` (Algorithm 1) and the wire
//! codec's allocations. They do not depend on the workload seed; the
//! in-situ numbers of the same layers come from the spans of the replays.

use crate::alloc;
use crate::stats;
use gaugur_bench::ExperimentContext;
use gaugur_core::{GAugur, InterferencePredictor, Placement};
use gaugur_gamesim::rng::rng_for;
use gaugur_gamesim::{GameId, Resolution};
use gaugur_sched::{
    pack_requests, random_requests, ColocationTable, FeasibilityReport, GaugurCm, PredictScratch,
};
use gaugur_serve::queue::WorkQueue;
use gaugur_serve::wire::{self, Request, Response};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Median over `chunks` of the mean time of one call, ns: a burst of
/// neighbour noise spoils one chunk, not the number.
fn ns_per_call(chunks: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let means: Vec<f64> = (0..chunks)
        .map(|c| {
            let t = Instant::now();
            for i in 0..calls {
                f(c * calls + i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::Summary::of(&means).median
}

/// `(queue.push_pop_ns, queue.handoff_ns)`: a push and a pop on one thread,
/// and the time from a push on one thread to the return of the blocked pop
/// on another.
pub fn queue() -> (f64, f64) {
    let q: WorkQueue<usize> = WorkQueue::new(64);
    let push_pop = ns_per_call(5, 20_000, |i| {
        q.push(i).expect("queue has room");
        black_box(q.pop());
    });

    const ROUNDS: usize = 2_000;
    let there: WorkQueue<Instant> = WorkQueue::new(1);
    let back: WorkQueue<u64> = WorkQueue::new(1);
    let mut waits = Vec::with_capacity(ROUNDS);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while let Some(pushed) = there.pop() {
                let ns = pushed.elapsed().as_nanos() as u64;
                back.push(ns).expect("one item in flight");
            }
        });
        for _ in 0..ROUNDS {
            // The consumer is back in `pop` (or about to be) once its
            // answer has arrived, so each push is a real wake-up.
            there.push(Instant::now()).expect("one item in flight");
            waits.push(back.pop().expect("consumer answers") as f64);
        }
        there.close();
    });
    (push_pop, stats::mean(&waits))
}

/// Full-server colocations (a target and three co-runners) over the whole
/// catalog, fixed across seeds.
fn colocations(n_games: usize, n: usize) -> Vec<[Placement; 4]> {
    let mut rng = rng_for(0, &[0x4C41_5952]); // "LAYR"
    (0..n)
        .map(|_| {
            let mut games: Vec<u32> = Vec::with_capacity(4);
            while games.len() < 4 {
                let g = rng.gen_range(0..n_games) as u32;
                if !games.contains(&g) {
                    games.push(g);
                }
            }
            let p = |g: u32| (GameId(g), Resolution::Fhd1080);
            [p(games[0]), p(games[1]), p(games[2]), p(games[3])]
        })
        .collect()
}

pub struct Core {
    pub predict_scalar_ns: f64,
    pub predict_batch32_ns_per_query: f64,
    pub predict_qos_ns: f64,
}

pub fn core(model: &GAugur, n_games: usize) -> Core {
    let colos = colocations(n_games, 64);
    let predict_scalar_ns = ns_per_call(5, 2_000, |i| {
        let c = &colos[i % colos.len()];
        black_box(model.predict_degradation(c[0], &c[1..]));
    });
    let predict_qos_ns = ns_per_call(5, 2_000, |i| {
        let c = &colos[i % colos.len()];
        black_box(model.predict_qos(crate::workload::QOS_FPS, c[0], &c[1..]));
    });
    // 32 queries = 8 colocations x 4 members, as placement scoring asks.
    let mut scratch = PredictScratch::new();
    let batch_ns = ns_per_call(5, 200, |i| {
        scratch.queries.clear();
        for k in 0..8 {
            scratch
                .queries
                .push_colocation(&colos[(i * 8 + k) % colos.len()]);
        }
        model.predict_degradation_batch(
            &scratch.queries,
            &mut scratch.features,
            &mut scratch.values,
        );
        black_box(&scratch.values);
    });
    Core {
        predict_scalar_ns,
        predict_batch32_ns_per_query: batch_ns / 32.0,
        predict_qos_ns,
    }
}

/// `sched.algorithm1_pack_ms`: Algorithm 1 packing 1 000 requests over the
/// ten scheduling games' feasible colocations (the paper's Figure 9 path).
pub fn algorithm1_pack_ms(ctx: &ExperimentContext, model: &GAugur) -> f64 {
    let ids = ctx.scheduling_games();
    let table = ColocationTable::measure(&ctx.server, &ctx.catalog, &ids, Resolution::Fhd1080, 4);
    let report = FeasibilityReport::build(&table, &GaugurCm(model), crate::workload::QOS_FPS);
    let requests = random_requests(&ids, 1_000, 3);
    ns_per_call(5, 20, |_| {
        black_box(pack_requests(&table, black_box(&report.usable), &requests));
    }) / 1e6
}

/// `wire.allocs_per_frame`: heap allocations of the JSON codec for one
/// request and its reply, each encoded and decoded once. No other thread
/// runs while this is counted.
pub fn wire_allocs_per_frame(requests: &[Vec<u8>], replies: &[Vec<u8>]) -> Result<f64, String> {
    let n = requests.len().min(replies.len()).min(1_000);
    let decode = |e: wire::FrameError| e.to_string();
    let pairs: Vec<(Request, Response)> = requests
        .iter()
        .zip(replies)
        .take(n)
        .map(|(q, r)| {
            Ok((
                wire::decode_payload(q).map_err(decode)?,
                wire::decode_payload(r).map_err(decode)?,
            ))
        })
        .collect::<Result<_, String>>()?;
    let mut buf = Vec::with_capacity(4096);
    let ((), allocs, _) = alloc::counted(|| {
        for (request, response) in &pairs {
            buf.clear();
            wire::write_frame(&mut buf, request).expect("Vec write");
            black_box(wire::decode_payload::<Request>(&buf[4..]).expect("just encoded"));
            buf.clear();
            wire::write_frame(&mut buf, response).expect("Vec write");
            black_box(wire::decode_payload::<Response>(&buf[4..]).expect("just encoded"));
        }
    });
    Ok(allocs as f64 / n.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_numbers_are_positive_and_a_handoff_costs_more_than_a_local_pop() {
        let (push_pop, handoff) = queue();
        assert!(push_pop > 0.0);
        assert!(handoff > push_pop, "{handoff} vs {push_pop}");
    }

    #[test]
    fn colocations_hold_four_distinct_games() {
        for c in colocations(100, 64) {
            for i in 0..4 {
                for j in 0..i {
                    assert_ne!(c[i].0, c[j].0);
                }
            }
        }
    }

    #[test]
    fn the_codec_allocates_for_every_frame() {
        let mut q = Vec::new();
        wire::write_frame(&mut q, &Request::Depart { session: 9 }).unwrap();
        let mut r = Vec::new();
        wire::write_frame(
            &mut r,
            &Response::Departed {
                session: 9,
                server: 2,
            },
        )
        .unwrap();
        let a = wire_allocs_per_frame(&[q.split_off(4)], &[r.split_off(4)]).unwrap();
        assert!(a >= 4.0, "{a}");
    }
}
