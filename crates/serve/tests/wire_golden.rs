//! Golden frames of the wire protocol, pinned against `fixtures/wire_golden.txt`.
//!
//! Two halves. The first encodes one payload per `Request` and `Response`
//! variant (plus the edge cases of the number and string encoders: a `u64`
//! above `i64::MAX`, NaN written as `null`, integral floats, escaped and
//! non-ASCII strings, the large `Stats`/`Slo`/`RecorderDump` replies) and
//! pins their bytes. The second decodes a fixed-seed corpus of odd and
//! mutated payloads as both a `Request` and a `Response` and pins each
//! verdict: the decoded value's `Debug` form, or `err` (the message text is
//! not pinned). Duplicate and unknown keys, missing `Option` fields,
//! `1e2`/`01`/digit-string integers, unit variants written as maps and
//! multi-key enum maps are all in it.
//!
//! A mismatch writes the full rendering next to the test binary's temp dir
//! and names the first differing line.

use gaugur_gamesim::{GameId, Resolution};
use gaugur_serve::slo::{SloConfig, SloEngine};
use gaugur_serve::wire::{self, BatchPlaceResult, OutcomeReport, Request, Response};
use gaugur_serve::{Counter, RequestTrace, SlowMeta, Stage, Telemetry};

fn report(session: u64, observed_fps: f64) -> OutcomeReport {
    OutcomeReport {
        session,
        observed_fps,
        predicted_fps: 58.25,
        model_version: 2,
    }
}

fn requests() -> Vec<(&'static str, Request)> {
    let fhd = Resolution::Fhd1080;
    vec![
        (
            "place",
            Request::Place {
                game: GameId(3),
                resolution: fhd,
            },
        ),
        (
            "place_qhd",
            Request::Place {
                game: GameId(u32::MAX),
                resolution: Resolution::Qhd1440,
            },
        ),
        (
            "place_batch",
            Request::PlaceBatch {
                requests: vec![(GameId(3), fhd), (GameId(4), Resolution::Hd720)],
            },
        ),
        (
            "place_batch_empty",
            Request::PlaceBatch { requests: vec![] },
        ),
        ("depart", Request::Depart { session: 42 }),
        ("depart_u64_max", Request::Depart { session: u64::MAX }),
        (
            "depart_above_i64",
            Request::Depart {
                session: i64::MAX as u64 + 1,
            },
        ),
        (
            "predict",
            Request::Predict {
                game: GameId(0),
                resolution: Resolution::Hd900,
                others: vec![(GameId(1), fhd), (GameId(2), Resolution::Hd720)],
                qos: 60.0,
            },
        ),
        (
            "predict_fractional_qos",
            Request::Predict {
                game: GameId(7),
                resolution: fhd,
                others: vec![],
                qos: 0.1 + 0.2,
            },
        ),
        (
            "report_outcome",
            Request::ReportOutcome {
                report: report(7, 54.5),
            },
        ),
        (
            "report_outcome_nan",
            Request::ReportOutcome {
                report: report(8, f64::NAN),
            },
        ),
        (
            "report_outcome_infinite",
            Request::ReportOutcome {
                report: report(9, f64::INFINITY),
            },
        ),
        (
            "report_outcome_batch",
            Request::ReportOutcomeBatch {
                reports: vec![report(7, 1e-7), report(u64::MAX, -0.0)],
            },
        ),
        (
            "trigger_retrain_defaults",
            Request::TriggerRetrain {
                min_samples: None,
                extra_rounds: None,
            },
        ),
        (
            "trigger_retrain",
            Request::TriggerRetrain {
                min_samples: Some(64),
                extra_rounds: Some(u64::MAX),
            },
        ),
        ("stats", Request::Stats),
        ("metrics", Request::Metrics),
        ("slo_status", Request::SloStatus),
        (
            "dump_recorder",
            Request::DumpRecorder {
                deterministic: true,
            },
        ),
        ("reload_default", Request::ReloadModel { path: None }),
        (
            "reload_path",
            Request::ReloadModel {
                path: Some("/models/new \"v2\"\\x.json".into()),
            },
        ),
        ("shutdown", Request::Shutdown),
    ]
}

/// A collector with a little of everything in it, so the snapshot and the
/// SLO report carry histograms, per-stage rows, per-game rows and a NaN
/// outcome error.
fn telemetry() -> Telemetry {
    let t = Telemetry::new(1, 2, 0);
    let w = t.writer(0, 1_500_000);
    w.queue_wait(40);
    w.place_attempt(3, true);
    w.note(Counter::Admitted, 1);
    w.record(0, true, 75);
    let mut trace = RequestTrace::new();
    trace.add(Stage::Decode, 2);
    trace.add(Stage::Place, 30);
    trace.add(Stage::WriteReply, 9);
    let meta = SlowMeta {
        session: Some(1),
        shard: Some(1),
        model_version: Some(2),
    };
    w.flush(0, true, true, &trace, meta);
    w.place_attempt(4, false);
    w.record(3, false, 3_000_000);
    w.outcome(3, true, 0.5);
    w.outcome(4, false, f64::NAN);
    t
}

fn responses() -> Vec<(&'static str, Response)> {
    let t = telemetry();
    let engine = SloEngine::new(SloConfig::default());
    let (slo, _) = engine.evaluate(&t.views(2_000_000), t.per_game());
    let mut stats = t.snapshot(2_000_000);
    stats.slo = Some(slo.clone());
    stats.drift_score = f64::NAN;
    vec![
        (
            "placed",
            Response::Placed {
                session: 7,
                server: 3,
                predicted_fps: 58.25,
                model_version: 2,
            },
        ),
        (
            "placed_integral_fps",
            Response::Placed {
                session: u64::MAX,
                server: usize::MAX,
                predicted_fps: 60.0,
                model_version: 0,
            },
        ),
        (
            "placed_nan_fps",
            Response::Placed {
                session: 1,
                server: 0,
                predicted_fps: f64::NAN,
                model_version: 1,
            },
        ),
        (
            "placed_tiny_fps",
            Response::Placed {
                session: 2,
                server: 1,
                predicted_fps: 1.0 / 3.0,
                model_version: 1,
            },
        ),
        (
            "rejected",
            Response::Rejected {
                reason: "no eligible server".into(),
            },
        ),
        (
            "placed_batch",
            Response::PlacedBatch {
                model_version: 2,
                results: vec![
                    BatchPlaceResult::Placed {
                        session: 9,
                        server: 1,
                        predicted_fps: 61.5,
                    },
                    BatchPlaceResult::Rejected {
                        reason: "game 999 \"unknown\"".into(),
                    },
                    BatchPlaceResult::Placed {
                        session: 10,
                        server: 0,
                        predicted_fps: 1e300,
                    },
                ],
            },
        ),
        (
            "placed_batch_empty",
            Response::PlacedBatch {
                model_version: 2,
                results: vec![],
            },
        ),
        (
            "departed",
            Response::Departed {
                session: 7,
                server: 3,
            },
        ),
        (
            "prediction",
            Response::Prediction {
                feasible: true,
                degradation: 0.87,
                fps: 104.4,
                model_version: 2,
                cached: false,
            },
        ),
        (
            "prediction_cached",
            Response::Prediction {
                feasible: false,
                degradation: 1.0,
                fps: -0.0,
                model_version: 2,
                cached: true,
            },
        ),
        (
            "outcome_recorded",
            Response::OutcomeRecorded {
                accepted: 2,
                stale: 1,
                dropped: 0,
            },
        ),
        ("retrain_queued", Response::RetrainQueued { queued: true }),
        ("stats", Response::Stats(Box::new(stats))),
        (
            "metrics",
            Response::Metrics {
                text: "# TYPE gaugur_requests_total counter\ngaugur_requests_total{kind=\"place\"} 7\n"
                    .into(),
            },
        ),
        ("reloaded", Response::Reloaded { version: 3 }),
        ("slo", Response::Slo(Box::new(slo))),
        (
            "recorder_dump",
            Response::RecorderDump {
                jsonl: "{\"i\":0,\"kind\":\"admit\",\"server\":4}\n{\"i\":1,\"kind\":\"depart\"}\n"
                    .into(),
                events: 2,
                truncated: true,
            },
        ),
        (
            "overloaded",
            Response::Overloaded { retry_after_ms: 25 },
        ),
        ("shutting_down", Response::ShuttingDown),
        ("unknown_session", Response::UnknownSession { session: 99 }),
        (
            "error_escapes",
            Response::Error {
                message: "tab\there \"quoted\" back\\slash\r\n\u{1}\u{8}\u{c}\u{1f} é☃ 😀 /".into(),
            },
        ),
    ]
}

fn payload<T: serde::Serialize>(msg: &T) -> Vec<u8> {
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, msg).unwrap();
    let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
    assert_eq!(len, frame.len() - 4, "header states the payload length");
    frame.split_off(4)
}

/// Odd payloads written by hand: each probes one decoding rule.
const ODD: &[&str] = &[
    // Duplicate keys: the first occurrence wins, the second is only parsed.
    r#"{"Depart":{"session":1,"session":2}}"#,
    r#"{"Depart":{"session":1,"session":"x"}}"#,
    r#"{"Depart":{"session":"x","session":1}}"#,
    r#"{"Place":{"game":1,"resolution":"Hd720","game":2}}"#,
    r#"{"Depart":{"session":1,"session":[1,2,}}"#,
    // Unknown keys are skipped, whatever they hold.
    r#"{"Depart":{"extra":{"a":[1,2,{"b":null}]},"session":5}}"#,
    r#"{"Depart":{"session":5,"extra":"é\n"}}"#,
    r#"{"Depart":{"session":5,"extra":tru}}"#,
    r#"{"Placed":{"session":1,"server":2,"predicted_fps":3.5,"model_version":4,"cached":true}}"#,
    // Missing fields: fine for `Option`, an error otherwise. A struct
    // variant's value must be an object even when every field is optional.
    r#"{"TriggerRetrain":{}}"#,
    r#"{"TriggerRetrain":{"min_samples":3}}"#,
    r#"{"TriggerRetrain":{"extra_rounds":null,"min_samples":null}}"#,
    r#"{"TriggerRetrain":null}"#,
    r#"{"TriggerRetrain":5}"#,
    r#"{"TriggerRetrain":[1,2]}"#,
    r#"{"ReloadModel":{}}"#,
    r#"{"ReloadModel":"x"}"#,
    r#"{"DumpRecorder":{}}"#,
    r#"{"DumpRecorder":7}"#,
    r#"{"Depart":{}}"#,
    r#"{"Place":{"game":1}}"#,
    r#"{"ReportOutcome":{"report":{"session":1,"observed_fps":1,"predicted_fps":2}}}"#,
    r#"{"ReportOutcome":{"report":5}}"#,
    r#"{"Stats":{"uptime_ms":1}}"#,
    // Numbers: exponents, leading zeros, digit strings, signs, overflow.
    r#"{"Depart":{"session":1e2}}"#,
    r#"{"Depart":{"session":1E2}}"#,
    r#"{"Depart":{"session":1.5e1}}"#,
    r#"{"Depart":{"session":01}}"#,
    r#"{"Depart":{"session":007}}"#,
    r#"{"Depart":{"session":"7"}}"#,
    r#"{"Depart":{"session":"-7"}}"#,
    r#"{"Depart":{"session":" 7"}}"#,
    r#"{"Depart":{"session":"1e2"}}"#,
    r#"{"Depart":{"session":"18446744073709551615"}}"#,
    r#"{"Depart":{"session":-1}}"#,
    r#"{"Depart":{"session":-0}}"#,
    r#"{"Depart":{"session":-0.0}}"#,
    r#"{"Depart":{"session":1.5}}"#,
    r#"{"Depart":{"session":2.0}}"#,
    r#"{"Depart":{"session":18446744073709551615}}"#,
    r#"{"Depart":{"session":18446744073709551616}}"#,
    r#"{"Depart":{"session":1e30}}"#,
    r#"{"Depart":{"session":1e400}}"#,
    r#"{"Depart":{"session":-}}"#,
    r#"{"Depart":{"session":--1}}"#,
    r#"{"Depart":{"session":1-2}}"#,
    r#"{"Depart":{"session":1.2.3}}"#,
    r#"{"Depart":{"session":+1}}"#,
    r#"{"Depart":{"session":.5}}"#,
    r#"{"Depart":{"session":true}}"#,
    r#"{"Depart":{"session":null}}"#,
    r#"{"Place":{"game":4294967296,"resolution":"Hd720"}}"#,
    r#"{"Place":{"game":"12","resolution":"Hd720"}}"#,
    r#"{"Place":{"game":-1,"resolution":"Hd720"}}"#,
    r#"{"Placed":{"session":1,"server":2,"predicted_fps":3,"model_version":4}}"#,
    r#"{"Placed":{"session":1,"server":2,"predicted_fps":18446744073709551615,"model_version":4}}"#,
    r#"{"Placed":{"session":1,"server":2,"predicted_fps":"3.5","model_version":4}}"#,
    r#"{"Placed":{"session":1,"server":2,"predicted_fps":null,"model_version":4}}"#,
    r#"{"Placed":{"session":1,"server":2,"predicted_fps":-1e-320,"model_version":4}}"#,
    r#"{"Predict":{"game":0,"resolution":"Hd720","others":[],"qos":1e2}}"#,
    r#"{"Predict":{"game":0,"resolution":"Hd720","others":[[1,"Hd720"]],"qos":60}}"#,
    r#"{"Predict":{"game":0,"resolution":"Hd720","others":[[1,"Hd720",2]],"qos":60}}"#,
    r#"{"Predict":{"game":0,"resolution":"Hd720","others":[[1]],"qos":60}}"#,
    r#"{"Predict":{"game":0,"resolution":"Hd720","others":{},"qos":60}}"#,
    r#"{"Predict":{"game":0,"resolution":"Hd720","others":null,"qos":60}}"#,
    r#"{"RetrainQueued":{"queued":1}}"#,
    r#"{"RetrainQueued":{"queued":"true"}}"#,
    // Enums: unit variants as strings only, tagged ones as single-key maps.
    r#""Stats""#,
    r#""stats""#,
    r#""Place""#,
    r#"{"Stats":null}"#,
    r#"{"Stats":{}}"#,
    r#"{"Shutdown":null}"#,
    r#"{"ShuttingDown":null}"#,
    r#""ShuttingDown""#,
    r#"{}"#,
    r#"{"Depart":{"session":1},"Stats":null}"#,
    r#"{"Depart":{"session":1},"Depart":{"session":2}}"#,
    r#"{"Nope":{"session":1}}"#,
    r#"{"Place":{"game":1,"resolution":"Uhd2160"}}"#,
    r#"{"Place":{"game":1,"resolution":{"Hd720":null}}}"#,
    r#"{"Place":{"game":1,"resolution":null}}"#,
    r#"{"PlaceBatch":{"requests":[[1,"Hd720"],[2,"Fhd1080"]]}}"#,
    r#"{"PlaceBatch":{"requests":[[1,"Hd720"],]}}"#,
    r#"{"PlacedBatch":{"model_version":1,"results":[{"Placed":{"session":1,"server":0,"predicted_fps":2.5}},{"Rejected":{"reason":"x"}}]}}"#,
    r#"{"PlacedBatch":{"model_version":1,"results":["Placed"]}}"#,
    r#"{"Error":{"message":"a\"b\\c\/d\b\f\n\r\tAé😀"}}"#,
    r#"{"Error":{"message":"\ud83d"}}"#,
    r#"{"Error":{"message":"\ude00"}}"#,
    r#"{"Error":{"message":"\u12"}}"#,
    r#"{"Error":{"message":"\x"}}"#,
    r#"{"Error":{"message":"raw	tab"}}"#,
    r#"{"Error":{"message":5}}"#,
    r#"{"Gepart":{"session":1}}"#,
    r#"{"Depart":{"session":1}}"#,
    // Whitespace, trailing bytes, truncation, literals.
    " \t\r\n{ \"Depart\" : { \"session\" : 3 } } \n",
    r#"{"Depart":{"session":3}} x"#,
    r#"{"Depart":{"session":3}}{}"#,
    r#"{"Depart":{"session":3}"#,
    r#"{"Depart":{"session":3},}"#,
    r#"{"Depart":{"session":3,}}"#,
    r#"{"Depart" {"session":3}}"#,
    r#"{'Depart':{'session':3}}"#,
    r#"{"RetrainQueued":{"queued":truex}}"#,
    r#"{"RetrainQueued":{"queued":nul}}"#,
    r#"{"DumpRecorder":{"deterministic":false}}"#,
    r#"[]"#,
    r#"null"#,
    r#"1"#,
    r#""""#,
    "",
    "   ",
];

/// splitmix64: a fixed-seed corpus without a dependency.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Fragments a mutation splices in: JSON structure, literals and the
/// number spellings the decoder classifies differently.
const SPLICES: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    " ",
    "null",
    "true",
    "0",
    "01",
    "1e2",
    "-1",
    "1.5",
    "\"7\"",
    "18446744073709551616",
    "{\"x\":1}",
    "\"Stats\"",
    "\\u0041",
    "é",
];

fn mutate(payload: &[u8], rng: &mut Mix) -> Vec<u8> {
    let mut out = payload.to_vec();
    let at = rng.below(out.len() + 1);
    match rng.below(5) {
        0 if !out.is_empty() => {
            let at = at.min(out.len() - 1);
            out[at] ^= 1 << rng.below(8);
        }
        1 if !out.is_empty() => {
            let at = at.min(out.len() - 1);
            out.remove(at);
        }
        2 => {
            let splice = SPLICES[rng.below(SPLICES.len())].as_bytes();
            out.splice(at..at, splice.iter().copied());
        }
        3 => {
            // Replace a run of digits (or the byte at `at`) with a splice.
            let start = (0..out.len())
                .cycle()
                .skip(at)
                .take(out.len())
                .find(|&i| out[i].is_ascii_digit());
            if let Some(start) = start {
                let end = (start..out.len())
                    .find(|&i| !out[i].is_ascii_digit())
                    .unwrap_or(out.len());
                let splice = SPLICES[rng.below(SPLICES.len())].as_bytes();
                out.splice(start..end, splice.iter().copied());
            }
        }
        _ => {
            // Duplicate a span in place: repeated keys, doubled values.
            let len = 1 + rng.below(16);
            let start = at.min(out.len().saturating_sub(len));
            let span: Vec<u8> = out[start..(start + len).min(out.len())].to_vec();
            out.splice(start..start, span);
        }
    }
    out
}

fn verdict<T: serde::Deserialize + std::fmt::Debug>(payload: &[u8]) -> String {
    match wire::decode_payload::<T>(payload) {
        Ok(v) => format!("ok {v:?}"),
        Err(_) => "err".to_string(),
    }
}

const MUTATIONS_PER_PAYLOAD: usize = 16;
/// Mutating the multi-kilobyte `Stats`/`Slo` payloads adds lines, not rules.
const MUTATED_PAYLOAD_MAX: usize = 600;

fn render() -> String {
    let mut out = String::new();
    let mut payloads = Vec::new();
    out.push_str("# payloads: name, then the JSON bytes of the frame\n");
    for (name, request) in requests() {
        let p = payload(&request);
        out.push_str(&format!(
            "request {name}\t{}\n",
            String::from_utf8(p.clone()).unwrap()
        ));
        payloads.push(p);
    }
    for (name, response) in responses() {
        let p = payload(&response);
        out.push_str(&format!(
            "response {name}\t{}\n",
            String::from_utf8(p.clone()).unwrap()
        ));
        payloads.push(p);
    }
    let mut corpus: Vec<Vec<u8>> = ODD.iter().map(|s| s.as_bytes().to_vec()).collect();
    let mut rng = Mix(0x5eed_0039);
    for p in payloads.iter().filter(|p| p.len() <= MUTATED_PAYLOAD_MAX) {
        for _ in 0..MUTATIONS_PER_PAYLOAD {
            corpus.push(mutate(p, &mut rng));
        }
    }
    out.push_str("# verdicts: input (escaped), as a Request, as a Response\n");
    for input in &corpus {
        out.push_str(&format!(
            "{}\t{}\t{}\n",
            input.escape_ascii(),
            verdict::<Request>(input),
            verdict::<Response>(input)
        ));
    }
    out
}

#[test]
fn frames_and_verdicts_match_the_golden_file() {
    let actual = render();
    let expected = include_str!("fixtures/wire_golden.txt");
    if actual == expected {
        return;
    }
    let at = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire_golden.txt");
    std::fs::write(&dump, &actual).unwrap();
    panic!(
        "wire_golden.txt differs at line {}:\n  got      {:?}\n  expected {:?}\n(full output in {})",
        at + 1,
        actual.lines().nth(at),
        expected.lines().nth(at),
        dump.display()
    );
}

#[test]
fn every_golden_payload_decodes_back_to_its_message() {
    // A non-finite float is written as `null`, which an `f64` field does not
    // read back; every other message roundtrips exactly.
    fn roundtrips<T>(name: &str, msg: &T)
    where
        T: serde::Serialize + serde::Deserialize + std::fmt::Debug,
    {
        let sent = format!("{msg:?}");
        match wire::decode_payload::<T>(&payload(msg)) {
            Ok(back) => assert_eq!(format!("{back:?}"), sent, "{name}"),
            Err(e) => assert!(sent.contains("NaN") || sent.contains("inf"), "{name}: {e}"),
        }
    }
    for (name, request) in requests() {
        roundtrips(name, &request);
    }
    for (name, response) in responses() {
        roundtrips(name, &response);
    }
}
