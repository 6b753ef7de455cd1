//! In-process replay of a workload through the same public calls the daemon
//! makes, with a span around each.
//!
//! It serves two purposes. Its reply bytes are what a one-worker,
//! one-shard daemon must send back for the same frames (the differential
//! oracle of the verify pass), and its spans and counters are the per-layer
//! numbers for `wire` (server side), `sched`, `memo`, `core` and `cluster`.
//! Both are measured from outside the layers: the ledger times its own
//! calls and reads the layers' public counters.

use crate::loadgen::Backend;
use crate::span::SpanLog;
use crate::workload::{N_SERVERS, QOS_FPS};
use gaugur_core::Placement;
use gaugur_sched::{
    select_server_incremental_with, ColocationBatch, FpsModel, PlacementScratch, PredictScratch,
    ScoreCache,
};
use gaugur_serve::model::LoadedModel;
use gaugur_serve::wire::{self, BatchPlaceResult, Request, Response};
use gaugur_serve::{ClusterState, MemoizedFps, PredictionMemo};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Memo capacity of `DaemonConfig::default()`.
const MEMO_CAPACITY: usize = 1 << 16;

/// What the memo did, as seen from the calls into it.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoCalls {
    /// Time and lookups of calls that were answered from the memo alone.
    pub hit_only_ns: u64,
    pub hit_only_lookups: u64,
    /// Time, hits and misses of calls in which at least one lookup missed.
    pub missing_ns: u64,
    pub missing_hits: u64,
    pub missing_misses: u64,
    /// Model evaluations the misses caused: one per member of a missed
    /// colocation. Which colocations of a batch missed is not visible from
    /// outside, so a batch's misses are charged its mean member count.
    pub evals: f64,
    /// Candidate servers scored, summed over placements.
    pub candidates: u64,
    pub places: u64,
}

impl MemoCalls {
    fn note(&mut self, ns: u64, hits: u64, misses: u64, evals_per_miss: f64) {
        if misses == 0 {
            self.hit_only_ns += ns;
            self.hit_only_lookups += hits;
        } else {
            self.missing_ns += ns;
            self.missing_hits += hits;
            self.missing_misses += misses;
            self.evals += misses as f64 * evals_per_miss;
        }
    }

    pub fn lookups(&self) -> u64 {
        self.hit_only_lookups + self.missing_hits + self.missing_misses
    }

    /// Mean time of a lookup the memo answered, ns.
    pub fn hit_ns(&self) -> f64 {
        self.hit_only_ns as f64 / self.hit_only_lookups.max(1) as f64
    }

    /// Mean time of a lookup that missed (model evaluation and insert
    /// included): the missing calls' time less their hits at `hit_ns`.
    pub fn miss_ns(&self) -> f64 {
        if self.missing_misses == 0 {
            return 0.0;
        }
        let hits_ns = self.hit_ns() * self.missing_hits as f64;
        (self.missing_ns as f64 - hits_ns).max(0.0) / self.missing_misses as f64
    }
}

/// Span log and memo counters, shared between the oracle and the
/// [`FpsModel`] probe the scheduler calls back into (`FpsModel: Sync`, so
/// the sharing goes through a mutex; it is never contended).
#[derive(Default)]
pub struct Trace {
    pub spans: Option<SpanLog>,
    pub memo: MemoCalls,
}

/// [`MemoizedFps`] with a child span and counters around each batched call,
/// which is the only entry point incremental placement uses.
struct Probe<'a> {
    inner: MemoizedFps<'a>,
    trace: &'a Mutex<Trace>,
    /// Width of the most recent batch: the last call of a selection scores
    /// one prospective colocation per candidate server.
    last_batch: Mutex<u64>,
}

impl FpsModel for Probe<'_> {
    fn predict_member_fps(&self, members: &[Placement], idx: usize) -> f64 {
        self.inner.predict_member_fps(members, idx)
    }

    fn predict_colocation_sum(&self, members: &[Placement]) -> f64 {
        self.inner.predict_colocation_sum(members)
    }

    fn predict_colocation_sums(
        &self,
        batch: &ColocationBatch,
        scratch: &mut PredictScratch,
        out: &mut Vec<f64>,
    ) {
        let members: usize = (0..batch.len()).map(|i| batch.members(i).len()).sum();
        let span = lock(self.trace)
            .spans
            .as_mut()
            .map(|log| log.open("memo.sums"));
        let (h0, m0) = self.inner.memo.counts();
        let started = Instant::now();
        self.inner.predict_colocation_sums(batch, scratch, out);
        let ns = started.elapsed().as_nanos() as u64;
        let (h1, m1) = self.inner.memo.counts();
        let mut trace = lock(self.trace);
        if let (Some(log), Some(span)) = (trace.spans.as_mut(), span) {
            log.close(span);
        }
        trace.memo.note(
            ns,
            h1 - h0,
            m1 - m0,
            members as f64 / batch.len().max(1) as f64,
        );
        *lock(&self.last_batch) = batch.len() as u64;
    }

    fn model_name(&self) -> &'static str {
        self.inner.model_name()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("no thread panics while holding a ledger lock")
}

pub struct Oracle {
    model: Arc<LoadedModel>,
    pub memo: PredictionMemo,
    cluster: ClusterState,
    pub scores: ScoreCache,
    scratch: PlacementScratch,
    pub trace: Mutex<Trace>,
    request: u32,
}

impl Oracle {
    pub fn new(model: Arc<LoadedModel>, with_spans: bool) -> Oracle {
        Oracle {
            model,
            memo: PredictionMemo::new(MEMO_CAPACITY),
            cluster: ClusterState::new(N_SERVERS),
            scores: ScoreCache::new(N_SERVERS),
            scratch: PlacementScratch::new(),
            trace: Mutex::new(Trace {
                spans: with_spans.then(SpanLog::new),
                memo: MemoCalls::default(),
            }),
            request: 0,
        }
    }

    pub fn active_sessions(&self) -> usize {
        self.cluster.active_sessions()
    }

    fn spanned<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Oracle) -> T) -> T {
        let span = lock(&self.trace).spans.as_mut().map(|log| log.open(name));
        let out = f(self);
        if let Some(span) = span {
            if let Some(log) = lock(&self.trace).spans.as_mut() {
                log.close(span);
            }
        }
        out
    }

    /// The daemon's `admit_one_in_shard` for a one-shard fleet: choose a
    /// server incrementally, predict the newcomer's FPS against the
    /// pre-admit co-runners, admit.
    fn place(&mut self, placement: Placement) -> Option<(u64, usize, f64)> {
        let sel = self.spanned("sched.select", |o| {
            let probe = Probe {
                inner: MemoizedFps {
                    model: &o.model,
                    memo: &o.memo,
                    qos: QOS_FPS,
                },
                trace: &o.trace,
                last_batch: Mutex::new(0),
            };
            let sel = select_server_incremental_with(
                &o.cluster,
                placement,
                &probe,
                o.model.version,
                &mut o.scores,
                &mut o.scratch,
            );
            let candidates = *lock(&probe.last_batch);
            let mut trace = lock(&o.trace);
            trace.memo.candidates += candidates;
            trace.memo.places += 1;
            sel
        })?;
        let fps = self.spanned("memo.predict", |o| {
            let others = o.cluster.members(sel.server);
            let (h0, m0) = o.memo.counts();
            let started = Instant::now();
            let (prediction, _) =
                o.memo
                    .predict_with(&o.model, QOS_FPS, placement, others, &mut o.scratch.predict);
            let ns = started.elapsed().as_nanos() as u64;
            let (h1, m1) = o.memo.counts();
            // A solo prediction misses the memo but evaluates no model.
            let evals = if others.is_empty() { 0.0 } else { 1.0 };
            lock(&o.trace).memo.note(ns, h1 - h0, m1 - m0, evals);
            prediction.fps
        });
        let session = self.spanned("cluster.admit", |o| o.cluster.admit(sel.server, placement));
        Some((session, sel.server, fps))
    }

    fn handle(&mut self, request: &Request) -> Response {
        const SATURATED: &str = "no eligible server (fleet saturated)";
        let version = self.model.version;
        match request {
            Request::Place { game, resolution } => match self.place((*game, *resolution)) {
                Some((session, server, predicted_fps)) => Response::Placed {
                    session,
                    server,
                    predicted_fps,
                    model_version: version,
                },
                None => Response::Rejected {
                    reason: SATURATED.into(),
                },
            },
            Request::PlaceBatch { requests } => Response::PlacedBatch {
                model_version: version,
                results: requests
                    .iter()
                    .map(|&p| match self.place(p) {
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
            Request::Depart { session } => {
                let departed = self.spanned("cluster.depart", |o| {
                    let placed = o.cluster.depart(*session)?;
                    o.scores.invalidate(placed.server);
                    Some(placed.server)
                });
                match departed {
                    Some(server) => Response::Departed {
                        session: *session,
                        server,
                    },
                    None => Response::UnknownSession { session: *session },
                }
            }
            Request::Predict {
                game,
                resolution,
                others,
                qos,
            } => {
                let (p, cached) = self.spanned("memo.predict", |o| {
                    o.memo.predict_with(
                        &o.model,
                        *qos,
                        (*game, *resolution),
                        others,
                        &mut o.scratch.predict,
                    )
                });
                Response::Prediction {
                    feasible: p.feasible,
                    degradation: p.degradation,
                    fps: p.fps,
                    model_version: version,
                    cached,
                }
            }
            // The feedback rings are the daemon's; in process a report is
            // only acknowledged.
            Request::ReportOutcome { .. } => Response::OutcomeRecorded {
                accepted: 1,
                stale: 0,
                dropped: 0,
            },
            other => Response::Error {
                message: format!("the oracle does not replay {other:?}"),
            },
        }
    }
}

impl Backend for Oracle {
    fn roundtrip(&mut self, frame: &[u8]) -> Result<Vec<u8>, String> {
        let req = self.request;
        self.request += 1;
        if let Some(log) = lock(&self.trace).spans.as_mut() {
            log.set_request(req);
        }
        self.spanned("server.request", |o| {
            let request: Request = o
                .spanned("wire.decode_request", |_| wire::decode_payload(&frame[4..]))
                .map_err(|e| e.to_string())?;
            let response = o.handle(&request);
            let mut out = Vec::new();
            o.spanned("wire.encode_response", |_| {
                wire::write_frame(&mut out, &response)
            })
            .map_err(|e| e.to_string())?;
            Ok(out.split_off(4))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_time_is_what_is_left_after_the_hits() {
        let mut c = MemoCalls::default();
        c.note(1_000, 10, 0, 3.0); // ten hits at 100 ns
        c.note(5_500, 5, 2, 3.0); // five hits and two misses
        assert_eq!(c.hit_ns(), 100.0);
        assert_eq!(c.miss_ns(), 2_500.0);
        assert_eq!(c.lookups(), 17);
        assert_eq!(c.evals, 6.0);
        assert_eq!(MemoCalls::default().miss_ns(), 0.0);
    }
}
