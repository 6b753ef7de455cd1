//! The four workloads and the seeded traffic each connection sends.
//!
//! A connection's traffic is a pure function of `(seed, workload,
//! connection)` and of the replies it gets back (session ids and predicted
//! FPS feed the later `Depart` and `ReportOutcome` frames). Lifetimes are
//! counted in later arrivals on the same connection, not in wall time, so a
//! closed loop and a paced open loop send the same frames.

use gaugur_gamesim::rng::rng_for;
use gaugur_gamesim::{GameId, Resolution};
use gaugur_serve::wire::{BatchPlaceResult, OutcomeReport, Request, Response};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

const LEDGER_CTX: u64 = 0x4C45_4447; // "LEDG"
const NOISE_CTX: u64 = 0x4E4F_4953; // "NOIS"
const SCHEDULE_CTX: u64 = 0x5343_4844; // "SCHD"

/// QoS floor of the paper's Algorithm 1 guarantee, in FPS.
pub const QOS_FPS: f64 = 60.0;

/// Fleet size of every workload's daemon.
pub const N_SERVERS: usize = 64;

pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what the workload stresses.
    pub why: &'static str,
    /// Arrivals draw uniformly from the first `n_games` catalog games.
    pub n_games: usize,
    pub resolutions: &'static [Resolution],
    /// Mean session lifetime, in later arrivals on the same connection.
    pub mean_lifetime: f64,
    /// Arrivals per `PlaceBatch` frame; 1 sends one `Place` per arrival.
    pub batch: usize,
    /// `Predict` one arrival in ten and `ReportOutcome` after every
    /// placement; the traced pass adds the open-loop rate sweep.
    pub mixed: bool,
    pub shards: usize,
    /// A placement frame answered later than this misses the limit.
    pub limit_us: f64,
    /// Arrivals the verify pass replays (full runs; `--quick` caps at 2 000).
    pub verify_arrivals: u64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "place_hot",
        why: "20 games, memo-resident: wire codec, socket writes, wake-ups and telemetry do the work, the model almost none",
        n_games: 20,
        resolutions: &[Resolution::Fhd1080],
        mean_lifetime: 4.0,
        batch: 1,
        mixed: false,
        shards: 1,
        limit_us: 500.0,
        verify_arrivals: 5_000,
    },
    Spec {
        name: "batch16_hot",
        why: "same stream, 16 arrivals per PlaceBatch frame: wire cost amortised 16x, sched scoring and memo hits dominate",
        n_games: 20,
        resolutions: &[Resolution::Fhd1080],
        mean_lifetime: 4.0,
        batch: 16,
        mixed: false,
        shards: 1,
        limit_us: 2_000.0,
        verify_arrivals: 5_000,
    },
    Spec {
        name: "place_cold",
        why: "100 games x 2 resolutions, working set >> memo capacity: model inference, memo misses and the shard lock held across scoring do the work",
        n_games: 100,
        resolutions: &[Resolution::Hd720, Resolution::Fhd1080],
        mean_lifetime: 64.0,
        batch: 1,
        mixed: false,
        shards: 1,
        limit_us: 5_000.0,
        verify_arrivals: 1_500,
    },
    Spec {
        name: "mixed_open",
        why: "Predict reads beside Place/Depart/ReportOutcome writes on 2 shards (two-phase admit); its traced pass sweeps an open loop over 1000/2500/5000 arrivals/s",
        n_games: 100,
        resolutions: &[Resolution::Fhd1080],
        mean_lifetime: 16.0,
        batch: 1,
        mixed: true,
        shards: 2,
        limit_us: 1_000.0,
        verify_arrivals: 5_000,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn index_of(spec: &Spec) -> u64 {
    WORKLOADS
        .iter()
        .position(|w| w.name == spec.name)
        .expect("spec comes from WORKLOADS") as u64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// `Place` or `PlaceBatch`: the frame the end-to-end metrics time.
    Place,
    Depart,
    Predict,
    Report,
}

pub struct Frame {
    pub request: Request,
    pub kind: Kind,
    /// Arrivals the frame carries (0 for anything but a placement frame).
    pub arrivals: u32,
}

/// What the placements of a stretch of traffic looked like.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    pub placed: u64,
    pub rejected: u64,
    pub fps_sum: f64,
    pub below_qos: u64,
}

impl Quality {
    pub fn add(&mut self, o: &Quality) {
        self.placed += o.placed;
        self.rejected += o.rejected;
        self.fps_sum += o.fps_sum;
        self.below_qos += o.below_qos;
    }

    pub fn mean_fps(&self) -> f64 {
        self.fps_sum / self.placed.max(1) as f64
    }

    pub fn qos_violation_share(&self) -> f64 {
        self.below_qos as f64 / self.placed.max(1) as f64
    }

    pub fn rejected_share(&self) -> f64 {
        self.rejected as f64 / (self.placed + self.rejected).max(1) as f64
    }
}

fn exponential(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() * mean
}

/// One connection's traffic generator.
pub struct Traffic {
    spec: &'static Spec,
    rng: ChaCha8Rng,
    noise: ChaCha8Rng,
    arrivals: u64,
    /// Min-heap of (arrival index at which the session departs, session id).
    departures: BinaryHeap<Reverse<(u64, u64)>>,
    queue: VecDeque<Frame>,
    /// Lifetimes of the arrivals in the placement frame now in flight.
    lifetimes: Vec<u64>,
    first_of_group: u64,
    quality: Quality,
}

impl Traffic {
    pub fn new(spec: &'static Spec, seed: u64, connection: u64) -> Traffic {
        let ctx = [LEDGER_CTX, index_of(spec), connection];
        Traffic {
            spec,
            rng: rng_for(seed, &ctx),
            noise: rng_for(seed, &[ctx[0], ctx[1], ctx[2], NOISE_CTX]),
            arrivals: 0,
            departures: BinaryHeap::new(),
            queue: VecDeque::new(),
            lifetimes: Vec::new(),
            first_of_group: 0,
            quality: Quality::default(),
        }
    }

    /// Arrivals generated so far.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    fn draw_placement(&mut self) -> (GameId, Resolution) {
        let game = GameId(self.rng.gen_range(0..self.spec.n_games) as u32);
        let r = self.rng.gen_range(0..self.spec.resolutions.len());
        (game, self.spec.resolutions[r])
    }

    /// Queue the frames of the next arrival (or batch of arrivals): the
    /// departures now due, a `Predict` one time in ten on the mixed
    /// workload, then the placement frame.
    pub fn begin_arrival(&mut self) {
        debug_assert!(self.queue.is_empty(), "previous arrival still has frames");
        let first = self.arrivals;
        self.first_of_group = first;
        self.lifetimes.clear();
        // Draw the whole group before any frame goes out, so the sequence
        // stays a function of the seed alone.
        let mut placements = Vec::with_capacity(self.spec.batch);
        for _ in 0..self.spec.batch {
            placements.push(self.draw_placement());
            let life = exponential(&mut self.rng, self.spec.mean_lifetime)
                .ceil()
                .max(1.0);
            self.lifetimes.push(life as u64);
        }
        self.arrivals += self.spec.batch as u64;

        while let Some(&Reverse((due, session))) = self.departures.peek() {
            if due > first {
                break;
            }
            self.departures.pop();
            self.queue.push_back(Frame {
                request: Request::Depart { session },
                kind: Kind::Depart,
                arrivals: 0,
            });
        }
        if self.spec.mixed && self.rng.gen_range(0..10u32) == 0 {
            let target = self.draw_placement();
            let mut others = Vec::with_capacity(2);
            while others.len() < 2 {
                let o = self.draw_placement();
                if o.0 != target.0 && others.iter().all(|p: &(GameId, Resolution)| p.0 != o.0) {
                    others.push(o);
                }
            }
            self.queue.push_back(Frame {
                request: Request::Predict {
                    game: target.0,
                    resolution: target.1,
                    others,
                    qos: QOS_FPS,
                },
                kind: Kind::Predict,
                arrivals: 0,
            });
        }
        let request = if self.spec.batch == 1 {
            Request::Place {
                game: placements[0].0,
                resolution: placements[0].1,
            }
        } else {
            Request::PlaceBatch {
                requests: placements,
            }
        };
        self.queue.push_back(Frame {
            request,
            kind: Kind::Place,
            arrivals: self.spec.batch as u32,
        });
    }

    /// The next frame of the arrival in progress.
    pub fn pop(&mut self) -> Option<Frame> {
        self.queue.pop_front()
    }

    fn note_placed(&mut self, k: usize, session: u64, fps: f64, version: u64) {
        self.quality.placed += 1;
        self.quality.fps_sum += fps;
        if fps < QOS_FPS {
            self.quality.below_qos += 1;
        }
        let due = self.first_of_group + k as u64 + self.lifetimes[k];
        self.departures.push(Reverse((due, session)));
        if self.spec.mixed {
            // Observed = predicted x U[0.95, 1.05]: drift never trips.
            let noise = self.noise.gen_range(-0.05..=0.05);
            self.queue.push_back(Frame {
                request: Request::ReportOutcome {
                    report: OutcomeReport {
                        session,
                        observed_fps: fps * (1.0 + noise),
                        predicted_fps: fps,
                        model_version: version,
                    },
                },
                kind: Kind::Report,
                arrivals: 0,
            });
        }
    }

    /// Check that `reply` is the kind of answer `frame` calls for and fold
    /// it into the traffic state. An `Err` is a failed operation.
    pub fn on_reply(&mut self, frame: &Frame, reply: &Response) -> Result<(), String> {
        match (&frame.request, reply) {
            (
                Request::Place { .. },
                &Response::Placed {
                    session,
                    predicted_fps,
                    model_version,
                    ..
                },
            ) => self.note_placed(0, session, predicted_fps, model_version),
            (Request::Place { .. }, Response::Rejected { .. }) => self.quality.rejected += 1,
            (
                Request::PlaceBatch { requests },
                Response::PlacedBatch {
                    model_version,
                    results,
                },
            ) if results.len() == requests.len() => {
                for (k, r) in results.iter().enumerate() {
                    match *r {
                        BatchPlaceResult::Placed {
                            session,
                            predicted_fps,
                            ..
                        } => self.note_placed(k, session, predicted_fps, *model_version),
                        BatchPlaceResult::Rejected { .. } => self.quality.rejected += 1,
                    }
                }
            }
            (Request::Depart { session }, Response::Departed { session: s, .. })
                if s == session => {}
            (Request::Predict { .. }, Response::Prediction { fps, .. }) if fps.is_finite() => {}
            (
                Request::ReportOutcome { .. },
                Response::OutcomeRecorded {
                    accepted: 1,
                    dropped: 0,
                    ..
                },
            ) => {}
            (request, reply) => {
                return Err(format!("{request:?} was answered with {reply:?}"));
            }
        }
        Ok(())
    }

    /// After the last arrival: one `Depart` per session still placed.
    pub fn drain(&mut self) -> Option<Frame> {
        self.departures.pop().map(|Reverse((_, session))| Frame {
            request: Request::Depart { session },
            kind: Kind::Depart,
            arrivals: 0,
        })
    }

    /// Placement quality since the last call.
    pub fn take_quality(&mut self) -> Quality {
        std::mem::take(&mut self.quality)
    }
}

/// Poisson due times of one connection's open-loop phase, in ns from the
/// phase start. Its own stream: pacing never perturbs which games arrive.
pub struct Schedule {
    rng: ChaCha8Rng,
    mean_gap_ns: f64,
    next_ns: f64,
}

impl Schedule {
    pub fn new(
        spec: &Spec,
        seed: u64,
        connection: u64,
        phase: u64,
        rate_per_conn: f64,
    ) -> Schedule {
        Schedule {
            rng: rng_for(
                seed,
                &[LEDGER_CTX, index_of(spec), connection, SCHEDULE_CTX, phase],
            ),
            mean_gap_ns: 1e9 / rate_per_conn,
            next_ns: 0.0,
        }
    }

    pub fn next_due_ns(&mut self) -> u64 {
        self.next_ns += exponential(&mut self.rng, self.mean_gap_ns);
        self.next_ns as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(spec: &'static Spec, seed: u64, n: usize) -> Vec<String> {
        let mut t = Traffic::new(spec, seed, 0);
        let mut out = Vec::new();
        let mut next_session = 1u64;
        while out.len() < n {
            let f = t.pop().unwrap_or_else(|| {
                t.begin_arrival();
                t.pop()
                    .expect("an arrival has at least its placement frame")
            });
            out.push(format!("{:?}", f.request));
            let reply = match &f.request {
                Request::Place { .. } => {
                    next_session += 1;
                    Response::Placed {
                        session: next_session,
                        server: 0,
                        predicted_fps: 75.5,
                        model_version: 1,
                    }
                }
                Request::Depart { session } => Response::Departed {
                    session: *session,
                    server: 0,
                },
                Request::Predict { .. } => Response::Prediction {
                    feasible: true,
                    degradation: 0.9,
                    fps: 80.0,
                    model_version: 1,
                    cached: false,
                },
                Request::ReportOutcome { .. } => Response::OutcomeRecorded {
                    accepted: 1,
                    stale: 0,
                    dropped: 0,
                },
                other => panic!("unexpected frame {other:?}"),
            };
            t.on_reply(&f, &reply).unwrap();
        }
        out
    }

    #[test]
    fn traffic_is_a_pure_function_of_the_seed() {
        let mixed = find("mixed_open").unwrap();
        assert_eq!(frames(mixed, 7, 400), frames(mixed, 7, 400));
        assert_ne!(frames(mixed, 7, 400), frames(mixed, 8, 400));
        let kinds = frames(mixed, 7, 400).join(" ");
        for kind in ["Place", "Depart", "Predict", "ReportOutcome"] {
            assert!(kinds.contains(kind), "mixed traffic has no {kind} frame");
        }
    }

    #[test]
    fn open_loop_schedule_is_a_pure_function_of_the_seed() {
        let spec = find("mixed_open").unwrap();
        let dues = |seed, conn, phase| {
            let mut s = Schedule::new(spec, seed, conn, phase, 1_250.0);
            (0..1_000).map(|_| s.next_due_ns()).collect::<Vec<_>>()
        };
        assert_eq!(dues(3, 0, 0), dues(3, 0, 0));
        assert_ne!(dues(3, 0, 0), dues(4, 0, 0));
        assert_ne!(dues(3, 0, 0), dues(3, 1, 0));
        assert_ne!(dues(3, 0, 0), dues(3, 0, 1));
        let d = dues(3, 0, 0);
        assert!(d.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        // 1 000 arrivals at 1 250/s take about 0.8 s.
        let last = *d.last().unwrap() as f64 / 1e9;
        assert!((0.65..0.95).contains(&last), "{last}");
    }

    #[test]
    fn a_wrong_kind_of_reply_is_a_failed_operation() {
        let mut t = Traffic::new(find("place_hot").unwrap(), 1, 0);
        t.begin_arrival();
        let f = t.pop().unwrap();
        let err = t
            .on_reply(
                &f,
                &Response::Departed {
                    session: 1,
                    server: 0,
                },
            )
            .unwrap_err();
        assert!(err.contains("Departed"), "{err}");
    }

    #[test]
    fn batch_frames_carry_sixteen_arrivals_and_schedule_their_departures() {
        let spec = find("batch16_hot").unwrap();
        let mut t = Traffic::new(spec, 5, 0);
        t.begin_arrival();
        let f = t.pop().unwrap();
        assert_eq!((f.kind, f.arrivals), (Kind::Place, 16));
        let results = (0..16)
            .map(|k| BatchPlaceResult::Placed {
                session: k + 1,
                server: 0,
                predicted_fps: 50.0 + k as f64,
            })
            .collect();
        t.on_reply(
            &f,
            &Response::PlacedBatch {
                model_version: 1,
                results,
            },
        )
        .unwrap();
        let q = t.take_quality();
        assert_eq!((q.placed, q.below_qos), (16, 10));
        let mut departs = 0;
        while t.drain().is_some() {
            departs += 1;
        }
        assert_eq!(departs, 16);
    }
}
