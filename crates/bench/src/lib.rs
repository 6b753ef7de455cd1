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
//! Criterion benches (`cargo bench`) cover the timing claims: online
//! prediction latency, profiling cost, training cost, simulator and
//! scheduler throughput.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod context;
pub mod figures;
pub mod table;

pub use context::ExperimentContext;

/// The `"nproc"` and `"profile"` fields of a `BENCH_*.json` report. The
/// numbers mean nothing without the host and the build they came from: core
/// count, and whether assertions and overflow checks were in.
pub fn host_fields() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug assertions on"
    } else {
        "bench (optimized, debug assertions off)"
    };
    format!("\"nproc\": {nproc},\n  \"profile\": \"{profile}\"")
}
