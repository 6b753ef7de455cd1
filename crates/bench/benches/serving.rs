//! Serving-stack micro-benchmarks: what one request's telemetry costs, a
//! `Metrics` render, and the wire codec per frame. Each row is a
//! [`gaugur_bench::Summary`] over [`ROUNDS`] in-process rounds, so its
//! spread is within one process; telling two builds apart takes alternated
//! process runs of each. End-to-end throughput and latency are the
//! performance ledger's to report (`crates/bench/examples/ledger`), with
//! their spread and their host; nothing here duplicates them.

use gaugur_bench::{repeat, ExperimentContext, Summary};
use gaugur_core::{GAugur, GAugurConfig};
use gaugur_gamesim::{GameId, Resolution};
use gaugur_serve::wire::{self, BatchPlaceResult, Request, Response};
use gaugur_serve::{
    daemon, load, Client, Clock, Counter, DaemonConfig, LoadConfig, ModelHandle, MonotonicClock,
    RequestTrace, SlowMeta, Stage, Telemetry,
};
use std::hint::black_box;
use std::time::Instant;

/// Rounds per row.
const ROUNDS: usize = 11;

/// Mean ns of one `op` over `reps` calls.
fn ns_per_call(reps: u32, mut op: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        op();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(reps)
}

/// What a worker spends on telemetry for one delivered `Place`, in process:
/// the frame's clock read, positioning on the current second, the place
/// attempt (windowed + per game), the admission count, the per-kind outcome
/// and latency before the reply, and after it the six stage samples (since
/// boot only), the windowed outcome and whole-place latency and the
/// slow-ring offer. Each round records into a fresh collector. The budget
/// is 100 ns; the assertion on the median is looser because shared hosts
/// are noisy.
fn telemetry_record_ns() -> Summary {
    let clock = MonotonicClock::new();
    let ns = repeat(ROUNDS, || {
        let telemetry = Telemetry::new(4, 16, clock.now_us());
        let mut i = 0u64;
        let ns = ns_per_call(100_000, || {
            let mut trace = RequestTrace::new();
            trace.add(Stage::Decode, 3);
            trace.add(Stage::Predict, 40);
            trace.add(Stage::Place, 60);
            trace.add(Stage::Encode, 5);
            trace.add(Stage::WriteReply, 7 + (i & 63));
            let writer = telemetry.writer((i % 4) as usize, clock.now_us());
            writer.place_attempt((i % 20) as u32, true);
            writer.note(Counter::Admitted, 1);
            writer.record(0, true, 110 + (i & 63));
            let meta = SlowMeta {
                session: Some(i),
                shard: Some(i % 2),
                model_version: Some(1),
            };
            writer.flush(0, true, true, &trace, meta);
            i += 1;
        });
        let now_us = clock.now_us();
        black_box((telemetry.snapshot(now_us), telemetry.views(now_us)));
        ns
    });
    eprintln!("telemetry_record: {ns:.0} ns per delivered place");
    assert!(
        ns.median < 500.0,
        "telemetry blew its overhead budget: {:.0} ns/request",
        ns.median
    );
    ns
}

/// Cost of rendering the Prometheus exposition from a populated snapshot —
/// the price of one `Metrics` scrape, minus the wire.
fn metrics_render_us(client: &mut Client) -> Summary {
    let snap = client.stats().expect("stats scrape");
    let us = repeat(ROUNDS, || {
        ns_per_call(200, || {
            black_box(gaugur_serve::render_prometheus(black_box(&snap)));
        }) / 1e3
    });
    eprintln!("metrics_render: {us:.1} µs per exposition");
    us
}

/// One frame kind's codec cost: `write_frame` into a reused buffer, then
/// `decode_payload` of its payload.
struct WireRow {
    frame: &'static str,
    payload_bytes: usize,
    encode_ns: Summary,
    decode_ns: Summary,
}

fn wire_row<T>(frame: &'static str, msg: &T) -> WireRow
where
    T: serde::Serialize + serde::Deserialize,
{
    const REPS: u32 = 20_000;
    let mut buf = Vec::new();
    wire::write_frame(&mut buf, msg).expect("Vec write");
    let payload = buf[4..].to_vec();

    let encode_ns = repeat(ROUNDS, || {
        ns_per_call(REPS, || {
            buf.clear();
            wire::write_frame(&mut buf, black_box(msg)).expect("Vec write");
        })
    });
    let decode_ns = repeat(ROUNDS, || {
        ns_per_call(REPS, || {
            black_box(wire::decode_payload::<T>(black_box(&payload)).expect("just encoded"));
        })
    });
    eprintln!(
        "wire {frame}: {} B, encode {encode_ns:.0} ns, decode {decode_ns:.0} ns",
        payload.len()
    );
    WireRow {
        frame,
        payload_bytes: payload.len(),
        encode_ns,
        decode_ns,
    }
}

/// The frames of the hot placement path, and the 16-arrival batch pair.
fn wire_rows() -> Vec<WireRow> {
    let session = 1_234_567;
    let fps = |i: u32| 41.0 + f64::from(i) * 1.618_033_988_749_895;
    let batch = Request::PlaceBatch {
        requests: (0..16).map(|i| (GameId(i), Resolution::Fhd1080)).collect(),
    };
    let placed_batch = Response::PlacedBatch {
        model_version: 1,
        results: (0..16)
            .map(|i| BatchPlaceResult::Placed {
                session: session + u64::from(i),
                server: (i * 3) as usize,
                predicted_fps: fps(i),
            })
            .collect(),
    };
    vec![
        wire_row(
            "Place",
            &Request::Place {
                game: GameId(7),
                resolution: Resolution::Fhd1080,
            },
        ),
        wire_row(
            "Placed",
            &Response::Placed {
                session,
                server: 17,
                predicted_fps: fps(5),
                model_version: 1,
            },
        ),
        wire_row("Depart", &Request::Depart { session }),
        wire_row(
            "Departed",
            &Response::Departed {
                session,
                server: 17,
            },
        ),
        wire_row("PlaceBatch16", &batch),
        wire_row("PlacedBatch16", &placed_batch),
    ]
}

/// Write the machine-readable report the CI gate checks for.
fn emit_report(telemetry_ns: Summary, render_us: Summary, wire: &[WireRow]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    let rows: Vec<String> = wire
        .iter()
        .map(|r| {
            format!(
                "    {{\"frame\": \"{}\", \"payload_bytes\": {},\n     \
                 \"encode_ns\": {:.0},\n     \"decode_ns\": {:.0}}}",
                r.frame, r.payload_bytes, r.encode_ns, r.decode_ns
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"serving\",\n  {},\n  \
         \"telemetry_record_ns_per_request\": {telemetry_ns:.1},\n  \
         \"metrics_render_us\": {render_us:.1},\n  \
         \"wire\": [\n{}\n  ]\n}}\n",
        gaugur_bench::host_fields(),
        rows.join(",\n"),
    );
    std::fs::write(path, json).expect("write BENCH_serving.json");
    eprintln!("wrote {path}");
}

fn main() {
    let ctx = ExperimentContext::small(1);
    let model =
        GAugur::from_measurements(ctx.profiles.clone(), &ctx.train, GAugurConfig::default());
    let games: Vec<GameId> = ctx.catalog.games().iter().map(|g| g.id).collect();

    let telemetry_ns = telemetry_record_ns();
    let wire = wire_rows();
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 64,
            workers: 4,
            print_stats_on_shutdown: false,
            ..Default::default()
        },
        ModelHandle::from_model(model),
    )
    .expect("daemon starts");

    // The rendered snapshot comes from one fixed, untimed load run, so it
    // holds the same traffic on every host.
    let report = load::run(&LoadConfig {
        addr: handle.local_addr().to_string(),
        seed: 7,
        connections: 4,
        requests: 2000,
        rate: f64::INFINITY,
        mean_session_arrivals: 4.0,
        games,
        resolutions: vec![Resolution::Fhd1080],
        qos: 60.0,
        batch: 1,
        ..Default::default()
    });
    assert_eq!(report.errors, 0);
    let mut client = Client::connect(handle.local_addr()).expect("client connects");
    emit_report(telemetry_ns, metrics_render_us(&mut client), &wire);
    drop(client);
    handle.shutdown();
}
