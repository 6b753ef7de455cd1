//! The daemon's serial reference: what a one-worker daemon answers, one
//! request at a time, with no locks, no threads and no second scoring pass
//! (DESIGN §13, "The serial reference").
//!
//! It shares everything below the cross-shard decision with the daemon —
//! the partition, the session routing, the in-shard select, admit and
//! depart (`cluster::Shard`) and the reply texts — and states the cross-shard
//! rule in its own words (`Reference::place`), which is what holds the
//! daemon's lock releases, epoch checks and held batch guards to the serial
//! outcome. It does not model reloads or retrains (its model version never
//! moves), the feedback rings and drift detection (a `ReportOutcome` is
//! only counted), or telemetry.

use crate::cluster::{shard_of_session, Shard};
use crate::daemon::DaemonConfig;
use crate::model::{LoadedModel, MemoizedFps, PredictionMemo};
use crate::trace::RequestTrace;
use crate::wire::{OutcomeReport, Request, Response};
use gaugur_core::Placement;
use gaugur_sched::{rank_shard_selections, PlacementScratch};
use std::io;
use std::sync::Arc;

/// A serial model of the daemon's placement path. With the same
/// configuration and model, [`Reference::handle`] returns the reply a
/// one-worker daemon sends, byte for byte, and [`Reference::score_counts`]
/// equals [`crate::DaemonHandle::shard_score_counts`].
pub struct Reference {
    model: Arc<LoadedModel>,
    memo: PredictionMemo,
    qos: f64,
    shards: Vec<Shard>,
    scratch: PlacementScratch,
    /// Stage timings the shared in-shard step records; never read.
    trace: RequestTrace,
}

impl Reference {
    /// An empty fleet partitioned as [`crate::daemon::start`] partitions
    /// `config` (its `n_servers`, `shards`, `qos` and `memo_capacity`; the
    /// rest is the daemon's business), serving `model`. An empty fleet is
    /// an `InvalidInput` error, as it is for the daemon.
    pub fn new(config: &DaemonConfig, model: Arc<LoadedModel>) -> io::Result<Reference> {
        Ok(Reference {
            model,
            memo: PredictionMemo::new(config.memo_capacity),
            qos: config.qos,
            shards: Shard::partition(config.n_servers, config.shards)?,
            scratch: PlacementScratch::new(),
            trace: RequestTrace::new(),
        })
    }

    /// The reply a one-worker daemon sends to `request`, for `Place`,
    /// `PlaceBatch`, `Depart`, `Predict` and `ReportOutcome`; any other
    /// request gets an `Error` the daemon would not send.
    pub fn handle(&mut self, request: &Request) -> Response {
        match request {
            Request::Place { .. } | Request::PlaceBatch { .. } => {
                let model = Arc::clone(&self.model);
                model
                    .place_reply(request, |placement| self.place(placement))
                    .0
            }
            Request::Depart { session } => Response::departed(*session, self.depart(*session)),
            Request::Predict {
                game,
                resolution,
                others,
                qos,
            } => self
                .model
                .predict_reply(
                    &self.memo,
                    (*game, *resolution),
                    others,
                    *qos,
                    &mut self.scratch.predict,
                    &mut self.trace,
                )
                .unwrap_or_else(|message| Response::Error { message }),
            Request::ReportOutcome { report } => self.count_report(report),
            other => Response::Error {
                message: format!("the serial reference does not model {other:?}"),
            },
        }
    }

    /// Choose within shard `shard` only and admit there: `(session, global
    /// server, predicted fps)`, or `None` when the shard has no eligible
    /// server. Replaying a recorder dump's admits in stamp order, each on
    /// the shard it names, reproduces what a racing daemon decided.
    pub fn place_in(&mut self, shard: usize, placement: Placement) -> Option<(u64, usize, f64)> {
        let fps = MemoizedFps {
            model: &self.model,
            memo: &self.memo,
            qos: self.qos,
        };
        let shard = &mut self.shards[shard];
        let sel = shard.select(&fps, &mut self.scratch, placement, &mut self.trace)?;
        Some(shard.admit(
            &fps,
            &mut self.scratch.predict,
            placement,
            &sel,
            &mut self.trace,
        ))
    }

    /// Depart `session` from the shard its id routes to: the global server
    /// it left, or `None` for an id that is not live.
    pub fn depart(&mut self, session: u64) -> Option<usize> {
        let owner = shard_of_session(session, self.shards.len());
        self.shards[owner].depart(session)
    }

    /// The prediction memo the reference scores through.
    pub fn memo(&self) -> &PredictionMemo {
        &self.memo
    }

    /// Each shard's score-cache `(hits, misses)`, in shard order.
    pub fn score_counts(&self) -> Vec<(u64, u64)> {
        self.shards.iter().map(|s| s.scores.counts()).collect()
    }

    /// The cross-shard rule: every shard chooses in order; the winner is
    /// the largest delta, ties to the lower shard. A winning last shard
    /// admits its own selection; every other speculative entry is dropped
    /// and any other winner chooses again.
    fn place(&mut self, placement: Placement) -> Option<(u64, usize, f64)> {
        let fps = MemoizedFps {
            model: &self.model,
            memo: &self.memo,
            qos: self.qos,
        };
        let candidates: Vec<_> = self
            .shards
            .iter_mut()
            .map(|shard| shard.select(&fps, &mut self.scratch, placement, &mut self.trace))
            .collect();
        let mut ranked = Vec::new();
        rank_shard_selections(&candidates, &mut ranked);
        let &winner = ranked.first()?;
        let last = self.shards.len() - 1;
        let speculative = self.shards.iter_mut().zip(&candidates).enumerate();
        for (s, (shard, sel)) in speculative {
            if let Some(sel) = sel.filter(|_| (s, winner) != (last, last)) {
                shard.scores.invalidate(sel.server);
            }
        }
        if winner != last {
            return self.place_in(winner, placement);
        }
        let sel = candidates[last].expect("the winner has a candidate");
        Some(self.shards[last].admit(
            &fps,
            &mut self.scratch.predict,
            placement,
            &sel,
            &mut self.trace,
        ))
    }

    /// A `ReportOutcome` reply, counts only: accepted for a live session
    /// with a finite, positive observed FPS (and stale too when its
    /// `model_version` is older than the model's), dropped otherwise.
    fn count_report(&self, report: &OutcomeReport) -> Response {
        let owner = shard_of_session(report.session, self.shards.len());
        let accepted = report.observed_fps.is_finite()
            && report.observed_fps > 0.0
            && self.shards[owner].cluster.lookup(report.session).is_some();
        let stale = accepted && report.model_version < self.model.version;
        Response::OutcomeRecorded {
            accepted: u64::from(accepted),
            stale: u64::from(stale),
            dropped: u64::from(!accepted),
        }
    }
}
