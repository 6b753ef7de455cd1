//! # gaugur-bench — the reproduction harness
//!
//! Regenerates every figure of the GAugur paper (Figures 1, 2, 4, 5, 6, 7,
//! 8, 9, 10 — Figure 3 is the design schematic) plus the Section 3
//! observation validations and a set of design-choice ablations.
//!
//! The `reproduce` binary drives everything:
//!
//! ```text
//! cargo run -p gaugur-bench --release --bin reproduce -- all
//! cargo run -p gaugur-bench --release --bin reproduce -- fig7
//! ```
//!
//! The four benches (`cargo bench -p gaugur-bench`) back the timing claims
//! and each writes one `BENCH_*.json` report at the repository root:
//! `serving` (telemetry, a `Metrics` render, the wire codec), `prediction`
//! (online RM/CM latency and a serial cold-placement replay), `feedback`
//! (outcome ingestion, drift detection, warm retrain) and `training`
//! (profiling one game, RM/CM fits). Every timed field is a [`Summary`]
//! from [`repeat`]; every report carries [`host_fields`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod context;
pub mod figures;
pub mod table;
pub mod timing;

pub use context::ExperimentContext;
pub use timing::{repeat, Summary};

/// The `"nproc"`, `"profile"`, `"cpu_model"` and `"rustc"` fields of a
/// `BENCH_*.json` report. The numbers mean nothing without the host and the
/// build they came from: core count, whether assertions and overflow checks
/// were in, the CPU (the "model name" line of `/proc/cpuinfo`) and the
/// compiler on the `PATH` (`rustc -V`); either of the last two reads
/// `"unknown"` where it cannot be found.
pub fn host_fields() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug assertions on"
    } else {
        "bench (optimized, debug assertions off)"
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    let json = |s: &str| serde_json::to_string(s).expect("a string serializes");
    format!(
        "\"nproc\": {nproc},\n  \"profile\": \"{profile}\",\n  \"cpu_model\": {},\n  \"rustc\": {}",
        json(&cpu_model),
        json(&rustc)
    )
}
