//! Wire protocol of the placement daemon.
//!
//! Frames are a 4-byte big-endian payload length followed by that many bytes
//! of JSON — one [`Request`] or [`Response`] per frame. Length-prefixing
//! keeps the stream self-synchronizing: a payload that fails to decode is
//! still consumed exactly, so the daemon can reply with an error frame and
//! keep the connection (required: malformed frames must not cost the client
//! its connection).
//!
//! A frame leaves in one `write`: header and payload are encoded together
//! into a reused buffer ([`encode_frame_into`]; [`write_frame`] keeps one
//! per thread), so a `TCP_NODELAY` socket sends one segment, not two. The
//! codec streams: encoding appends JSON text to the buffer and decoding
//! reads the payload in place, so the hot messages (`Place`, `Placed`,
//! `Depart`, `Departed`, `Predict`, `Prediction`, `ReportOutcome`,
//! `OutcomeRecorded`) allocate nothing once the buffers have grown, and a
//! batch allocates its one `Vec`.
//!
//! The decoder is hardened for untrusted input: declared lengths above the
//! caller's cap ([`MAX_FRAME_LEN`] by default, configurable via
//! [`read_frame_into`]) are rejected with a typed error before any
//! allocation, payloads go through the depth-limited JSON parser, and no
//! input byte sequence panics or reads past its own frame.

use gaugur_gamesim::{GameId, Resolution};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::io::{self, Read, Write};

use crate::stats::StatsSnapshot;

/// Hard cap on a frame's payload size. Large enough for any real request
/// (a full `Stats` snapshot is ~4 KiB), small enough that a hostile length
/// cannot balloon memory.
pub const MAX_FRAME_LEN: usize = 256 * 1024;

/// A placement request: which game at which resolution.
pub type WirePlacement = (GameId, Resolution);

/// Client-to-daemon messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Admit a session: pick a server (max-predicted-FPS greedy) and place.
    Place {
        /// The requested game.
        game: GameId,
        /// The requested display resolution.
        resolution: Resolution,
    },
    /// Admit a burst of sessions in one frame. The whole batch is placed
    /// under a single fleet-lock acquisition, amortizing locking and score
    /// computation; items are placed in order and each succeeds or is
    /// rejected independently.
    PlaceBatch {
        /// The arriving sessions, in placement order.
        requests: Vec<WirePlacement>,
    },
    /// End a session previously admitted by `Place`.
    Depart {
        /// Session id returned by the `Placed` response.
        session: u64,
    },
    /// Query the model without touching cluster state.
    Predict {
        /// The game whose performance is being asked about.
        game: GameId,
        /// Its display resolution.
        resolution: Resolution,
        /// The colocated games it would share a server with.
        others: Vec<WirePlacement>,
        /// QoS frame-rate floor for the feasibility class.
        qos: f64,
    },
    /// Report one observed session outcome into the feedback loop.
    ReportOutcome {
        /// The observation.
        report: OutcomeReport,
    },
    /// Report a burst of observed outcomes in one frame; reports are
    /// ingested in order and each is accepted or dropped independently.
    ReportOutcomeBatch {
        /// The observations.
        reports: Vec<OutcomeReport>,
    },
    /// Snapshot the accumulated outcome buffer and retrain + hot-swap the
    /// model on the background retrainer thread.
    TriggerRetrain {
        /// Fail the retrain when the snapshot holds fewer outcomes than
        /// this; `None` uses the daemon's configured floor.
        min_samples: Option<u64>,
        /// Boosting rounds to append to the ensemble; `None` uses the
        /// daemon's configured default.
        extra_rounds: Option<u64>,
    },
    /// Fetch the daemon's counters and latency histograms.
    Stats,
    /// Fetch the same state rendered as Prometheus text exposition.
    /// Control-plane like `Stats`: never subject to fault injection, so a
    /// scrape cannot perturb deterministic chaos replay.
    Metrics,
    /// Evaluate the SLO engine now and fetch the full burn-rate report
    /// (objectives, rolling windows, per-game QoS counters). Control-plane:
    /// never fault-injected.
    SloStatus,
    /// Snapshot the flight recorder as a JSONL dump. Control-plane: never
    /// fault-injected.
    DumpRecorder {
        /// `true` strips run-varying fields (session ids, model versions,
        /// timestamps) and keeps only seed-pure events, so dumps are
        /// byte-comparable across a faulted run and its fault-free replay.
        deterministic: bool,
    },
    /// Hot-swap the model: reload from `path`, or from the original
    /// model file when `path` is `None`.
    ReloadModel {
        /// Optional new model artifact to load.
        path: Option<String>,
    },
    /// Ask the daemon to shut down gracefully (drains in-flight work).
    Shutdown,
}

/// One observed session outcome as reported over the wire.
///
/// The daemon resolves `session` against the live fleet to recover the
/// game, resolution, server, and co-runners — a reporter only needs what
/// the `Placed` reply gave it plus its own frame-rate measurement. Carrying
/// `predicted_fps` and `model_version` back lets the drift detector compare
/// prediction against observation and discount reports whose prediction
/// came from a model that has since been replaced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutcomeReport {
    /// The session the observation belongs to (from the `Placed` reply).
    pub session: u64,
    /// The frame rate the session actually achieved.
    pub observed_fps: f64,
    /// The frame rate predicted at placement time.
    pub predicted_fps: f64,
    /// Version of the model that made that prediction.
    pub model_version: u64,
}

/// Daemon-to-client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A `Place` succeeded.
    Placed {
        /// Daemon-assigned session id (pass to `Depart`).
        session: u64,
        /// Index of the chosen server.
        server: usize,
        /// Predicted FPS of the new session on that server.
        predicted_fps: f64,
        /// Version of the model that made the decision.
        model_version: u64,
    },
    /// A `Place` found no eligible server (fleet saturated).
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
    /// Answer to `PlaceBatch`: one outcome per request, in request order.
    PlacedBatch {
        /// Version of the model that made every decision in this batch.
        model_version: u64,
        /// Per-request outcomes.
        results: Vec<BatchPlaceResult>,
    },
    /// A `Depart` succeeded.
    Departed {
        /// The departed session.
        session: u64,
        /// The server whose capacity was freed.
        server: usize,
    },
    /// Answer to `Predict`.
    Prediction {
        /// CM/QoS class: whether the colocation keeps the target above
        /// the requested floor.
        feasible: bool,
        /// Predicted degradation ratio δ̃ in (0, ~1].
        degradation: f64,
        /// Predicted absolute FPS (δ̃ × solo FPS).
        fps: f64,
        /// Version of the model that answered.
        model_version: u64,
        /// Whether the answer came from the prediction memo (never for a
        /// target with no co-runners: its answer is its solo FPS).
        cached: bool,
    },
    /// Answer to `ReportOutcome` / `ReportOutcomeBatch`.
    OutcomeRecorded {
        /// Reports buffered as training outcomes.
        accepted: u64,
        /// Reports buffered but excluded from drift statistics because the
        /// serving model is newer than the one that made their prediction.
        stale: u64,
        /// Reports dropped entirely (session not live, non-finite FPS).
        dropped: u64,
    },
    /// Answer to `TriggerRetrain`.
    RetrainQueued {
        /// Whether the retrainer accepted the job (`false`: another
        /// retrain is already pending or running).
        queued: bool,
    },
    /// Answer to `Stats`.
    Stats(Box<StatsSnapshot>),
    /// Answer to `Metrics`: the Prometheus text-exposition document.
    Metrics {
        /// Exposition-format body (one metric sample or comment per line).
        text: String,
    },
    /// Answer to `ReloadModel`.
    Reloaded {
        /// The new model version.
        version: u64,
    },
    /// Answer to `SloStatus`: the full burn-rate evaluation.
    Slo(Box<crate::slo::SloReport>),
    /// Answer to `DumpRecorder`: the flight-recorder snapshot.
    RecorderDump {
        /// One JSON object per line, oldest event first.
        jsonl: String,
        /// Events included in the dump.
        events: u64,
        /// Whether oldest events were dropped to fit the frame budget.
        truncated: bool,
    },
    /// The work queue is full; retry after the suggested backoff.
    Overloaded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The daemon is draining and will not take further work.
    ShuttingDown,
    /// A `Depart` named a session id that is not placed (already departed,
    /// rolled back after an undeliverable reply, or never issued). Typed so
    /// clients can distinguish a double-depart from a protocol error.
    UnknownSession {
        /// The id the request named.
        session: u64,
    },
    /// The request could not be decoded or touched unknown entities.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// Outcome of one request inside a `PlaceBatch`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BatchPlaceResult {
    /// The session was placed.
    Placed {
        /// Daemon-assigned session id (pass to `Depart`).
        session: u64,
        /// Index of the chosen server.
        server: usize,
        /// Predicted FPS of the new session on that server.
        predicted_fps: f64,
    },
    /// The session could not be placed (fleet saturated for its game, or
    /// the game is unknown to the model).
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
}

impl Response {
    /// The reply to a `Depart` of `session`: the server it left, or `None`
    /// when it is not live.
    pub(crate) fn departed(session: u64, server: Option<usize>) -> Response {
        match server {
            Some(server) => Response::Departed { session, server },
            None => Response::UnknownSession { session },
        }
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end-of-stream at a frame boundary.
    Eof,
    /// Transport failure, including read timeouts.
    Io(io::Error),
    /// The declared length exceeds the reader's cap; the stream cannot be
    /// resynchronized and should be closed after an error reply. Raised
    /// before any allocation is attempted.
    TooLarge {
        /// The length the frame header declared.
        len: usize,
        /// The cap it violated.
        cap: usize,
    },
    /// The payload was consumed but is not a valid message; the stream is
    /// still in sync and the connection can continue.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::Io(e) => write!(f, "io error: {e}"),
            FrameError::TooLarge { len, cap } => {
                write!(f, "frame of {len} bytes exceeds limit of {cap}")
            }
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

thread_local! {
    /// [`write_frame`]'s frame buffer: grown once per thread, then reused.
    static FRAME: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Serialize `msg` as one frame onto `w`, in one `write_all`.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> io::Result<()> {
    FRAME.with_borrow_mut(|frame| {
        encode_frame_into(frame, msg);
        w.write_all(frame)?;
        w.flush()
    })
}

/// Replace `frame`'s contents with `msg` as one whole frame: header plus
/// payload.
pub fn encode_frame_into<T: Serialize>(frame: &mut Vec<u8>, msg: &T) {
    frame.clear();
    frame.extend_from_slice(&[0; 4]);
    msg.serialize(&mut serde::Serializer::new(frame));
    let len = frame.len() - 4;
    debug_assert!(len <= MAX_FRAME_LEN);
    frame[..4].copy_from_slice(&(len as u32).to_be_bytes());
}

/// Serialize `msg` as one whole frame — header plus payload — in a new
/// buffer. The fault paths write it cut or poisoned on purpose; clean
/// writes go through [`write_frame`].
pub fn encode_frame<T: Serialize>(msg: &T) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, msg);
    frame
}

/// Read one frame from `r` and decode it.
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> Result<T, FrameError> {
    let payload = read_frame_bytes(r)?;
    decode_payload(&payload)
}

/// Read one raw frame payload (length-checked against [`MAX_FRAME_LEN`],
/// fully consumed).
pub fn read_frame_bytes<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut payload = Vec::new();
    read_frame_into(r, MAX_FRAME_LEN, &mut payload)?;
    Ok(payload)
}

/// Read one raw frame payload into a reused buffer, rejecting declared
/// lengths above `cap` with [`FrameError::TooLarge`] *before* growing it.
/// `payload` holds the frame's payload on success and grows only for a
/// frame larger than any before it. The daemon reads with its configured
/// cap so an operator can bound per-connection memory below the protocol
/// maximum.
pub fn read_frame_into<R: Read>(
    r: &mut R,
    cap: usize,
    payload: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let mut header = [0u8; 4];
    match r.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(FrameError::Eof),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > cap {
        return Err(FrameError::TooLarge { len, cap });
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream closed mid-frame",
            ))
        } else {
            FrameError::Io(e)
        }
    })
}

/// Decode a fully-read payload. Never panics, for any input bytes.
pub fn decode_payload<T: Deserialize>(payload: &[u8]) -> Result<T, FrameError> {
    serde_json::from_slice(payload).map_err(|e| FrameError::Malformed(e.to_string()))
}

/// Stable label of a request kind, used as the stats key.
pub fn request_kind(req: &Request) -> &'static str {
    REQUEST_KINDS[request_kind_index(req)]
}

/// Position of a request's kind in [`REQUEST_KINDS`]: how the telemetry
/// blocks index their per-kind counters.
pub fn request_kind_index(req: &Request) -> usize {
    match req {
        Request::Place { .. } => 0,
        Request::PlaceBatch { .. } => 1,
        Request::Depart { .. } => 2,
        Request::Predict { .. } => 3,
        Request::ReportOutcome { .. } => 4,
        Request::ReportOutcomeBatch { .. } => 5,
        Request::TriggerRetrain { .. } => 6,
        Request::Stats => 7,
        Request::Metrics => 8,
        Request::SloStatus => 9,
        Request::DumpRecorder { .. } => 10,
        Request::ReloadModel { .. } => 11,
        Request::Shutdown => 12,
    }
}

/// All request-kind labels, in a stable order (drives stats pre-registration
/// so snapshots always carry every kind).
pub const REQUEST_KINDS: [&str; 13] = [
    "place",
    "place_batch",
    "depart",
    "predict",
    "report_outcome",
    "report_outcome_batch",
    "trigger_retrain",
    "stats",
    "metrics",
    "slo_status",
    "dump_recorder",
    "reload_model",
    "shutdown",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{Counter, Telemetry};
    use proptest::prelude::*;
    use std::io::Cursor;

    fn roundtrip_request(req: &Request) {
        let mut buf = Vec::new();
        write_frame(&mut buf, req).unwrap();
        assert_eq!(encode_frame(req), buf);
        let back: Request = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(*req, back);
        // The stats label, and with it the slot in every telemetry block, is
        // the variant's wire tag in snake case.
        let json = std::str::from_utf8(&buf[4..]).unwrap();
        let mut label = String::new();
        for c in json.trim_start_matches(['{', '"']).chars() {
            if !c.is_ascii_alphanumeric() {
                break;
            }
            if c.is_ascii_uppercase() && !label.is_empty() {
                label.push('_');
            }
            label.push(c.to_ascii_lowercase());
        }
        assert_eq!(request_kind(req), label);
    }

    fn roundtrip_response(resp: &Response) {
        let mut buf = Vec::new();
        write_frame(&mut buf, resp).unwrap();
        assert_eq!(encode_frame(resp), buf);
        let back: Response = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(*resp, back);
    }

    #[test]
    fn every_request_variant_roundtrips() {
        roundtrip_request(&Request::Place {
            game: GameId(3),
            resolution: Resolution::Fhd1080,
        });
        roundtrip_request(&Request::PlaceBatch {
            requests: vec![
                (GameId(3), Resolution::Fhd1080),
                (GameId(4), Resolution::Hd720),
            ],
        });
        roundtrip_request(&Request::PlaceBatch { requests: vec![] });
        roundtrip_request(&Request::Depart { session: 42 });
        roundtrip_request(&Request::Predict {
            game: GameId(0),
            resolution: Resolution::Hd720,
            others: vec![
                (GameId(1), Resolution::Fhd1080),
                (GameId(2), Resolution::Hd720),
            ],
            qos: 60.0,
        });
        roundtrip_request(&Request::ReportOutcome {
            report: OutcomeReport {
                session: 7,
                observed_fps: 54.5,
                predicted_fps: 58.25,
                model_version: 2,
            },
        });
        roundtrip_request(&Request::ReportOutcomeBatch {
            reports: vec![
                OutcomeReport {
                    session: 7,
                    observed_fps: 54.5,
                    predicted_fps: 58.25,
                    model_version: 2,
                },
                OutcomeReport {
                    session: 9,
                    observed_fps: 61.0,
                    predicted_fps: 59.5,
                    model_version: 1,
                },
            ],
        });
        roundtrip_request(&Request::ReportOutcomeBatch { reports: vec![] });
        roundtrip_request(&Request::TriggerRetrain {
            min_samples: None,
            extra_rounds: None,
        });
        roundtrip_request(&Request::TriggerRetrain {
            min_samples: Some(64),
            extra_rounds: Some(120),
        });
        roundtrip_request(&Request::Stats);
        roundtrip_request(&Request::Metrics);
        roundtrip_request(&Request::SloStatus);
        roundtrip_request(&Request::DumpRecorder {
            deterministic: true,
        });
        roundtrip_request(&Request::DumpRecorder {
            deterministic: false,
        });
        roundtrip_request(&Request::ReloadModel { path: None });
        roundtrip_request(&Request::ReloadModel {
            path: Some("/tmp/model.json".into()),
        });
        roundtrip_request(&Request::Shutdown);
    }

    #[test]
    fn every_response_variant_roundtrips() {
        roundtrip_response(&Response::Placed {
            session: 7,
            server: 3,
            predicted_fps: 58.25,
            model_version: 2,
        });
        roundtrip_response(&Response::Rejected {
            reason: "no eligible server".into(),
        });
        roundtrip_response(&Response::PlacedBatch {
            model_version: 2,
            results: vec![
                BatchPlaceResult::Placed {
                    session: 9,
                    server: 1,
                    predicted_fps: 61.5,
                },
                BatchPlaceResult::Rejected {
                    reason: "no eligible server".into(),
                },
            ],
        });
        roundtrip_response(&Response::Departed {
            session: 7,
            server: 3,
        });
        roundtrip_response(&Response::Prediction {
            feasible: true,
            degradation: 0.87,
            fps: 104.4,
            model_version: 2,
            cached: false,
        });
        roundtrip_response(&Response::OutcomeRecorded {
            accepted: 2,
            stale: 1,
            dropped: 0,
        });
        roundtrip_response(&Response::RetrainQueued { queued: true });
        roundtrip_response(&Response::Stats(Box::new(
            Telemetry::new(1, 0, 0).snapshot(0),
        )));
        roundtrip_response(&Response::Metrics {
            text: "# TYPE gaugur_requests_total counter\ngaugur_requests_total 7\n".into(),
        });
        roundtrip_response(&Response::Reloaded { version: 3 });
        {
            use crate::slo::{SloConfig, SloEngine};
            let t = Telemetry::new(1, 0, 0);
            t.writer(0, 0).place_attempt(3, true);
            t.writer(0, 0).outcome(3, false, 0.01);
            let engine = SloEngine::new(SloConfig::default());
            let (report, _) = engine.evaluate(&t.views(0), t.per_game());
            roundtrip_response(&Response::Slo(Box::new(report)));
        }
        roundtrip_response(&Response::RecorderDump {
            jsonl: "{\"i\":0,\"kind\":\"admit\",\"server\":4,\"shard\":0,\"game\":0}\n".into(),
            events: 1,
            truncated: false,
        });
        roundtrip_response(&Response::Overloaded { retry_after_ms: 25 });
        roundtrip_response(&Response::ShuttingDown);
        roundtrip_response(&Response::UnknownSession { session: 99 });
        roundtrip_response(&Response::Error {
            message: "unknown game 999".into(),
        });
    }

    #[test]
    fn stats_snapshot_roundtrips_with_populated_histograms() {
        let t = Telemetry::new(1, 4, 0);
        for us in [3, 70, 800, 12_000, 3_000_000] {
            t.writer(0, 0).record(0, true, us);
        }
        t.writer(0, 0).record(3, false, 55);
        t.note(t.acceptor(), Counter::Overloaded, 1);
        t.note(0, Counter::Malformed, 1);
        let snap = t.snapshot(9_000);
        let mut buf = Vec::new();
        write_frame(&mut buf, &Response::Stats(Box::new(snap.clone()))).unwrap();
        let back: Response = read_frame(&mut Cursor::new(&buf)).unwrap();
        match back {
            Response::Stats(s) => {
                assert_eq!(*s, snap);
                let place = &s.per_request["place"];
                assert_eq!(place.ok, 5);
                assert_eq!(place.latency.buckets.iter().sum::<u64>(), 5);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn truncated_header_is_eof_or_io() {
        // Empty stream: clean EOF.
        match read_frame::<_, Request>(&mut Cursor::new(&[] as &[u8])) {
            Err(FrameError::Eof) => {}
            other => panic!("{other:?}"),
        }
        // Partial header: also surfaces as Eof (read_exact semantics).
        match read_frame::<_, Request>(&mut Cursor::new(&[0u8, 0][..])) {
            Err(FrameError::Eof) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Stats).unwrap();
        buf.truncate(buf.len() - 2);
        match read_frame::<_, Request>(&mut Cursor::new(&buf)) {
            Err(FrameError::Io(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_declared_length_is_rejected_without_allocating() {
        let mut buf = (u32::MAX).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xxxx");
        match read_frame::<_, Request>(&mut Cursor::new(&buf)) {
            Err(FrameError::TooLarge { len, cap }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(cap, MAX_FRAME_LEN);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn configurable_cap_rejects_frames_the_default_accepts() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Stats).unwrap();
        match read_frame_into(&mut Cursor::new(&buf), 4, &mut Vec::new()) {
            Err(FrameError::TooLarge { len, cap }) => {
                assert_eq!(cap, 4);
                assert!(len > 4);
            }
            other => panic!("{other:?}"),
        }
        // The identical bytes pass under the default cap.
        assert!(read_frame_bytes(&mut Cursor::new(&buf)).is_ok());
    }

    /// One encoded frame per request variant, covering every payload shape
    /// the protocol can put on the wire.
    fn sample_frames() -> Vec<Vec<u8>> {
        let requests = [
            Request::Place {
                game: GameId(3),
                resolution: Resolution::Fhd1080,
            },
            Request::PlaceBatch {
                requests: vec![
                    (GameId(3), Resolution::Fhd1080),
                    (GameId(4), Resolution::Hd720),
                ],
            },
            Request::Depart { session: 42 },
            Request::Predict {
                game: GameId(0),
                resolution: Resolution::Hd720,
                others: vec![(GameId(1), Resolution::Fhd1080)],
                qos: 60.0,
            },
            Request::ReportOutcome {
                report: OutcomeReport {
                    session: 42,
                    observed_fps: 55.5,
                    predicted_fps: 58.0,
                    model_version: 1,
                },
            },
            Request::ReportOutcomeBatch {
                reports: vec![
                    OutcomeReport {
                        session: 42,
                        observed_fps: 55.5,
                        predicted_fps: 58.0,
                        model_version: 1,
                    },
                    OutcomeReport {
                        session: 43,
                        observed_fps: 61.25,
                        predicted_fps: 60.0,
                        model_version: 2,
                    },
                ],
            },
            Request::TriggerRetrain {
                min_samples: Some(16),
                extra_rounds: Some(40),
            },
            Request::Stats,
            Request::Metrics,
            Request::SloStatus,
            Request::DumpRecorder {
                deterministic: true,
            },
            Request::ReloadModel {
                path: Some("/tmp/model.json".into()),
            },
            Request::Shutdown,
        ];
        requests
            .iter()
            .map(|r| {
                let mut buf = Vec::new();
                write_frame(&mut buf, r).unwrap();
                buf
            })
            .collect()
    }

    #[test]
    fn truncation_at_every_byte_offset_fails_cleanly() {
        for frame in sample_frames() {
            for cut in 0..frame.len() {
                let mut cursor = Cursor::new(&frame[..cut]);
                match read_frame::<_, Request>(&mut cursor) {
                    // Inside the header: clean EOF. Inside the payload: the
                    // mid-frame io error. Never a successful decode, never a
                    // panic.
                    Err(FrameError::Eof) | Err(FrameError::Io(_)) => {}
                    Ok(r) => panic!("decoded {r:?} from a frame cut at {cut}/{}", frame.len()),
                    Err(e) => panic!("unexpected error at cut {cut}: {e}"),
                }
                // Never over-reads: the decoder consumed at most the bytes
                // that exist.
                assert!(cursor.position() as usize <= cut);
            }
        }
    }

    proptest! {
        #[test]
        fn payload_mutations_decode_cleanly_and_keep_the_stream_in_sync(
            which in 0usize..13,
            offset_seed in any::<u64>(),
            bit in 0u8..8,
        ) {
            let frames = sample_frames();
            let mut frame = frames[which % frames.len()].clone();
            // Flip one payload bit (the header stays intact, so framing is
            // preserved and the decoder must consume exactly this frame).
            let pos = 4 + (offset_seed as usize) % (frame.len() - 4);
            frame[pos] ^= 1 << bit;
            let frame_len = frame.len();
            write_frame(&mut frame, &Request::Stats).unwrap();
            let mut cursor = Cursor::new(frame.as_slice());
            match read_frame::<_, Request>(&mut cursor) {
                // A flip can still be valid JSON of the right shape; any
                // other outcome must be Malformed — never an io error, a
                // panic, or an over-read.
                Ok(_) | Err(FrameError::Malformed(_)) => {}
                Err(e) => prop_assert!(false, "payload flip produced {e}"),
            }
            prop_assert_eq!(cursor.position() as usize, frame_len);
            let next: Request = read_frame(&mut cursor).unwrap();
            prop_assert_eq!(next, Request::Stats);
        }

        #[test]
        fn header_mutations_never_panic_or_read_past_the_input(
            which in 0usize..13,
            pos in 0usize..4,
            bit in 0u8..8,
        ) {
            let frames = sample_frames();
            let mut frame = frames[which % frames.len()].clone();
            frame[pos] ^= 1 << bit;
            let mut cursor = Cursor::new(frame.as_slice());
            // A corrupted length can declare anything; whatever happens the
            // decoder returns an error or a value without reading past the
            // bytes that exist.
            let _ = read_frame::<_, Request>(&mut cursor);
            prop_assert!(cursor.position() as usize <= frame.len());
        }
    }

    #[test]
    fn hostile_payloads_are_errors_without_deep_recursion() {
        // A small stack: skipping an unknown value walks it with a counter,
        // so only the typed message's own shape recurses.
        let hostile = std::thread::Builder::new().stack_size(64 * 1024);
        hostile
            .spawn(|| {
                let depart = |junk: &str| format!(r#"{{"Depart":{{"junk":{junk},"session":1}}}}"#);
                let decode = |payload: String| decode_payload::<Request>(payload.as_bytes());
                let arrays = |n: usize| "[".repeat(n) + "1" + &"]".repeat(n);
                let objects = |n: usize| r#"{"a":"#.repeat(n) + "1" + &"}".repeat(n);
                // `junk` sits two containers deep: 100 more are skipped.
                for junk in [arrays(100), objects(100)] {
                    assert_eq!(
                        decode(depart(&junk)).unwrap(),
                        Request::Depart { session: 1 }
                    );
                }
                // Nested past MAX_DEPTH, however far: an error.
                for n in [serde_json::MAX_DEPTH, 10_000, 200_000] {
                    assert!(decode(depart(&arrays(n))).is_err(), "arrays {n}");
                    assert!(decode(depart(&objects(n))).is_err(), "objects {n}");
                    assert!(decode(depart(&"[".repeat(n))).is_err(), "unclosed {n}");
                }
                // Long escape runs: read in one pass, and refused where they
                // end badly or stand where a number belongs.
                let escapes = r"\\\né😀".repeat(20_000);
                let message = format!(r#"{{"Error":{{"message":"{escapes}"}}}}"#);
                let decoded = decode_payload::<Response>(message.as_bytes()).unwrap();
                let unescaped = "\\\né😀".repeat(20_000);
                assert_eq!(decoded, Response::Error { message: unescaped });
                assert!(decode(depart(&format!(r#""{escapes}\q""#))).is_err());
                assert!(decode(depart(&format!(r#""{escapes}\ud83d""#))).is_err());
                assert!(decode(depart(&format!(r#""{escapes}"#))).is_err());
                let session = format!(r#"{{"Depart":{{"session":"{escapes}"}}}}"#);
                assert!(decode(session).is_err());
                // 10 000-digit numbers: out of every integer type's range,
                // or infinite as a float; skipped or read, always an error.
                let digits = "9".repeat(10_000);
                let fraction = format!("0.5{}1", "0".repeat(10_000));
                for number in [
                    &digits,
                    &format!("-{digits}"),
                    &fraction,
                    &format!("{digits}e9"),
                ] {
                    assert!(decode(format!(r#"{{"Depart":{{"session":{number}}}}}"#)).is_err());
                    if number != &fraction {
                        assert!(decode(depart(number)).is_err(), "skipped {}", &number[..4]);
                    }
                }
            })
            .unwrap()
            .join()
            .expect("no panic and no stack overflow");
    }

    #[test]
    fn garbage_payload_is_malformed_not_fatal() {
        let payload = b"not json at all";
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(payload);
        // Well-formed JSON of the wrong shape is equally malformed.
        let mut cursor = Cursor::new(&buf);
        match read_frame::<_, Request>(&mut cursor) {
            Err(FrameError::Malformed(_)) => {}
            other => panic!("{other:?}"),
        }
        let payload = br#"{"Place":{"game":"not a number"}}"#;
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(payload);
        match read_frame::<_, Request>(&mut Cursor::new(&buf)) {
            Err(FrameError::Malformed(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_frame_leaves_stream_in_sync() {
        let mut buf = Vec::new();
        let bad = b"garbage";
        buf.extend_from_slice(&(bad.len() as u32).to_be_bytes());
        buf.extend_from_slice(bad);
        write_frame(&mut buf, &Request::Stats).unwrap();
        let mut cursor = Cursor::new(&buf);
        assert!(matches!(
            read_frame::<_, Request>(&mut cursor),
            Err(FrameError::Malformed(_))
        ));
        // The next frame decodes normally.
        let next: Request = read_frame(&mut cursor).unwrap();
        assert_eq!(next, Request::Stats);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            // Whatever arrives, the decoder returns (it must not panic or
            // loop); a successful parse is fine too.
            let _ = decode_payload::<Request>(&bytes);
            let _ = decode_payload::<Response>(&bytes);
            let _ = read_frame::<_, Request>(&mut Cursor::new(&bytes));
        }

        #[test]
        fn arbitrary_json_shapes_never_panic_the_decoder(
            depth in 0usize..6,
            n in 0usize..6,
            seed in 0u64..1_000_000,
        ) {
            // Structurally valid JSON with the wrong shape.
            fn build(depth: usize, n: usize, seed: u64) -> String {
                if depth == 0 {
                    return format!("{}", seed % 100);
                }
                let inner = build(depth - 1, n, seed / 7);
                match seed % 3 {
                    0 => format!("[{}]", vec![inner; n.max(1)].join(",")),
                    1 => format!("{{\"k{}\":{}}}", seed % 10, inner),
                    _ => format!("{{\"Place\":{inner}}}"),
                }
            }
            let doc = build(depth, n, seed);
            let _ = decode_payload::<Request>(doc.as_bytes());
            let _ = decode_payload::<Response>(doc.as_bytes());
        }
    }
}
