//! The performance ledger: one self-checking benchmark of the serving
//! stack. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--quick]
//! ledger compare A.json B.json
//! ```
//!
//! The ledger measures every layer from outside: it times its own calls
//! into public functions and scrapes the daemon's `Stats` op. It must not
//! call the daemon's telemetry sinks (`TraceCollector`, `WindowedCollector`,
//! `Recorder`, `AtomicStats`) directly; a later refactor means to delete
//! them.

mod alloc;
mod compare;
mod host;
mod layers;
mod loadgen;
mod measure;
mod metrics;
mod oracle;
mod passes;
mod report;
mod span;
mod stats;
mod workload;

use passes::{Layers, Setup};
use report::{RunInfo, WorkloadReport};
use serde::Value;
use stats::Summary;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workload::Spec;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Requests whose spans are written out when a traced pass ends.
const SPAN_REQUESTS: u32 = 2_000;

struct Options {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: verify + end-to-end. `Some(true)`: verify + traced.
    /// `None`: all three passes.
    trace: Option<bool>,
    out: Option<PathBuf>,
    quick: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: ledger [--workload {}] [--seed N] [--seconds 1..60] [--trace 0|1] \
         [--out FILE] [--quick]\n       ledger compare A.json B.json",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 12.0,
        trace: None,
        out: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload =
                    Some(workload::find(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&o.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.quick {
        o.seconds = 2.0;
    }
    Ok(o)
}

/// Where span files go: beside the build, which `.gitignore` covers.
fn span_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("ledger")
}

fn write_spans(name: &str, which: &str, spans: &span::SpanLog) -> Result<(), String> {
    let dir = span_dir();
    let path = dir.join(format!("{name}.{which}.spans.jsonl"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        spans.write_jsonl(&mut file, SPAN_REQUESTS)?;
        std::io::Write::flush(&mut file)
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}

/// Verify pass and (unless only tracing) end-to-end pass of one workload.
/// With tracing on, the in-process replay's per-layer numbers go into the
/// report and its spans to disk.
fn verify_and_measure(
    spec: &'static Spec,
    o: &Options,
    setup: &Setup,
    report: &mut WorkloadReport,
) {
    let arrivals = if o.quick {
        spec.verify_arrivals.min(2_000)
    } else {
        spec.verify_arrivals
    };
    match passes::verify(spec, o.seed, setup, arrivals) {
        Ok(v) => {
            report.attempted += v.frames;
            if o.trace != Some(false) {
                report.per_layer.extend(v.layers);
                report.per_layer.extend([
                    ("verify.frames", v.frames as f64),
                    ("verify.mean_predicted_fps", v.quality.mean_fps()),
                    (
                        "verify.qos_violation_share",
                        v.quality.qos_violation_share(),
                    ),
                    ("process.allocs_per_req", v.allocs_per_req),
                    ("process.alloc_bytes_per_req", v.alloc_bytes_per_req),
                ]);
                if let Err(e) = write_spans(spec.name, "replay", &v.spans) {
                    report.errors.push(e);
                }
            }
        }
        Err(e) => report.errors.push(format!("verify: {e}")),
    }
    if o.trace == Some(true) {
        return;
    }
    match passes::end_to_end(spec, o.seed, setup, o.seconds) {
        Ok(e) => {
            report.attempted += e.frames;
            let w = &e.window;
            report.notes.push(format!(
                "whole window: {} placement frames, p50 {:.1} us, p99 {:.1} us, \
                 {:.5} within {} us, {} refused by policy",
                w.attempted,
                w.overall_p50_us,
                w.overall_p99_us,
                w.overall_within,
                spec.limit_us,
                w.quality.rejected
            ));
            let q = &w.quality;
            report.end_to_end = vec![
                ("setup_s", setup.setup_s),
                ("throughput_rps", w.throughput_rps.quiet(true)),
                ("p50_us", w.p50_us.quiet(false)),
                ("within_limit_share", w.within_limit_share.quiet(true)),
                ("mean_predicted_fps", Summary::single(q.mean_fps())),
                (
                    "qos_ok_share",
                    Summary::single(1.0 - q.qos_violation_share()),
                ),
                ("peak_rss_mb", Summary::single(e.peak_rss_mb)),
            ];
        }
        Err(e) => report.errors.push(format!("end-to-end: {e}")),
    }
}

/// Traced pass of one workload, between two readings of the host probes.
fn trace(spec: &'static Spec, o: &Options, setup: &Setup, report: &mut WorkloadReport) {
    let host_before = passes::host_layers();
    match passes::traced(spec, o.seed, setup, o.seconds) {
        Ok(t) => {
            report.attempted += t.frames;
            report.per_layer.extend(t.layers);
            if let Err(e) = write_spans(spec.name, "wire", &t.spans) {
                report.errors.push(e);
            }
        }
        Err(e) => report.errors.push(format!("traced: {e}")),
    }
    report
        .per_layer
        .extend(passes::mean_of(&host_before, &passes::host_layers()));
    // A traced run that lost a metric is not a ledger row.
    let missing = metrics::PER_LAYER
        .iter()
        .find(|(name, _, _)| !report.per_layer.contains_key(name));
    if let (true, Some((name, _, _))) = (report.errors.is_empty(), missing) {
        report
            .errors
            .push(format!("per-layer metric {name} was not measured"));
    }
}

/// One workload in this process: set-up, verify, then the end-to-end pass,
/// the traced pass, or both.
fn run_one(spec: &'static Spec, o: &Options) -> Result<bool, String> {
    let load_before = host::loadavg_1m();
    let repeats = if o.quick { 1 } else { 3 };
    let setup = passes::set_up(repeats)?;
    let mut report = WorkloadReport {
        name: spec.name,
        why: spec.why,
        end_to_end: Vec::new(),
        per_layer: Layers::new(),
        attempted: 0,
        errors: Vec::new(),
        notes: Vec::new(),
    };
    // The end-to-end pass comes before the traced pass: span logs leave the
    // heap larger, and `peak_rss_mb` would read it.
    verify_and_measure(spec, o, &setup, &mut report);
    if o.trace != Some(false) {
        trace(spec, o, &setup, &mut report);
    }

    if o.quick {
        println!("quick: numbers not comparable");
    }
    println!(
        "ledger seed {} window {} s x {} slices, {} connections, set-up x{}",
        o.seed,
        o.seconds,
        loadgen::SLICES,
        passes::connections(),
        repeats
    );
    print!("{}", report.text());
    if let Some(path) = &o.out {
        let info = RunInfo {
            quick: o.quick,
            seed: o.seed,
            seconds: o.seconds,
            setup_repeats: repeats,
            connections: passes::connections(),
            host: host::block(o.seed, load_before),
        };
        std::fs::write(path, report::to_json(&info, &report))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    // The benchmark driver's protocol: one workload, one mode, one line.
    if let Some(traced) = o.trace {
        println!("{}", report.driver_line(traced));
    }
    Ok(report.correct())
}

/// Every workload, each in a process of its own (this program again, with
/// `--workload`), exactly as the benchmark driver runs them: what an earlier
/// workload left on the heap moved `peak_rss_mb` of the later ones by up to
/// 18 % between identical runs in one process. The children's reports are
/// merged into `--out`.
fn run_all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut correct = true;
    let mut merged: Option<Value> = None;
    for spec in &workload::WORKLOADS {
        let part = o
            .out
            .as_ref()
            .map(|out| out.with_extension(format!("{}.part", spec.name)));
        let mut child = Command::new(&exe);
        child.args(["--workload", spec.name, "--seed", &o.seed.to_string()]);
        child.args(["--seconds", &o.seconds.to_string()]);
        if o.quick {
            child.arg("--quick");
        }
        if let Some(traced) = o.trace {
            child.args(["--trace", if traced { "1" } else { "0" }]);
        }
        if let Some(part) = &part {
            child.arg("--out").arg(part);
        }
        // `status` waits for the child to end.
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        correct &= status.success();
        if let Some(part) = part {
            let text =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            let doc = serde_json::parse_value_str(&text)
                .map_err(|e| format!("{}: {e}", part.display()))?;
            let _ = std::fs::remove_file(&part);
            merged = Some(match merged {
                None => doc,
                Some(first) => report::merge(first, doc),
            });
        }
    }
    if let (Some(path), Some(doc)) = (&o.out, merged) {
        let text = serde_json::to_string_pretty(&doc).expect("a Value tree serializes");
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match args.as_slice() {
            [_, a, b] => compare::run(a, b).map(|(table, clean)| {
                print!("{table}");
                clean
            }),
            _ => Err(usage()),
        }
    } else {
        parse(&args)
            .map_err(|e| format!("{e}\n{}", usage()))
            .and_then(|o| match o.workload {
                Some(spec) => run_one(spec, &o),
                None => run_all(&o),
            })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
