//! # gaugur-serve — the online placement daemon
//!
//! `gaugur-core` trains and persists a GAugur model; this crate puts that
//! model *online*: a multi-threaded TCP daemon that holds live cluster
//! state, answers placement/prediction requests over a length-prefixed JSON
//! wire protocol, and can hot-swap its model without dropping in-flight
//! work. This is the serving half of the paper's story — the interference
//! predictor is only useful to a cloud-gaming operator as a low-latency
//! placement service.
//!
//! Deliberately **no async runtime**: the protocol is small and connections
//! are few (schedulers, not players, are the clients), so blocking
//! `std::net` I/O with an acceptor thread, a bounded work queue and a worker
//! pool is simpler and entirely dependency-free. Backpressure is explicit —
//! when the queue is full, new connections get `Overloaded { retry_after_ms }`
//! instead of unbounded latency.
//!
//! Module map:
//!
//! * [`wire`] — request/response types, framing, decode hardening.
//! * [`daemon`] — acceptor, worker pool, handlers, graceful shutdown.
//! * [`model`] — artifact loading, hot reload, prediction memoization.
//! * [`cluster`] — live fleet occupancy, session bookkeeping and the
//!   placement shards.
//! * [`reference`](mod@reference) — the serial reference the daemon's replies are held to.
//! * [`queue`] — the bounded work queue between acceptor and workers.
//! * [`stats`] — the telemetry collector: one single-writer counter block
//!   per thread, one histogram type, the `Stats` snapshot.
//! * [`trace`] — per-request stage model, slow-request ring, accounting
//!   oracle, Prometheus exposition.
//! * [`slo`] — clocks, rolling window views, burn-rate SLO engine and alert
//!   state machine.
//! * [`recorder`] — always-on flight recorder with deterministic JSONL
//!   dumps.
//! * [`feedback`] — outcome ingestion, drift detection, retrain dataset.
//! * [`client`] — typed blocking client over one connection.
//! * [`load`] — deterministic Poisson load driver.
//! * [`fault`] — seeded fault plans and the deterministic injector.
//! * [`chaos`] — seeded fault scenarios with invariant oracles and replay.
//!
//! ## Quick example
//!
//! ```
//! use gaugur_serve::{daemon, Client, DaemonConfig, ModelHandle};
//! use gaugur_gamesim::{GameCatalog, GameId, Resolution, Server};
//!
//! // Train a small model in-process (normally: `ModelHandle::load(path)`).
//! let server = Server::reference(7);
//! let catalog = GameCatalog::generate(42, 8);
//! let config = gaugur_core::GAugurConfig {
//!     plan: gaugur_core::ColocationPlan { pairs: 30, triples: 8, quads: 4, seed: 3 },
//!     ..Default::default()
//! };
//! let model = gaugur_core::GAugur::build(&server, &catalog, config);
//!
//! let handle = daemon::start(
//!     DaemonConfig { n_servers: 4, print_stats_on_shutdown: false, ..Default::default() },
//!     ModelHandle::from_model(model),
//! )
//! .unwrap();
//!
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! let placed = client.place(GameId(0), Resolution::Fhd1080).unwrap();
//! assert!(placed.predicted_fps > 0.0);
//! client.depart(placed.session).unwrap();
//! handle.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod client;
pub mod cluster;
pub mod daemon;
pub mod fault;
pub mod feedback;
pub mod load;
pub mod model;
pub mod queue;
pub mod recorder;
pub mod reference;
pub mod slo;
pub mod stats;
pub mod trace;
pub mod wire;

pub use chaos::{ChaosConfig, ScenarioReport};
pub use client::{Client, ClientError, Placed, Predicted, RetryPolicy};
pub use cluster::ClusterState;
pub use daemon::{start, DaemonConfig, DaemonHandle};
pub use fault::{FaultAction, FaultEvent, FaultInjector, FaultPlan, InjectionPoint};
pub use feedback::{DriftDetector, Feedback, FeedbackConfig, FeedbackCounters, OutcomeRecord};
pub use load::{LoadConfig, LoadReport};
pub use model::{LoadedModel, MemoizedFps, ModelHandle, PredictionMemo};
pub use recorder::{Event, Recorder, RecorderDump};
pub use reference::Reference;
pub use slo::{
    AlertState, Clock, ManualClock, MonotonicClock, SloConfig, SloEngine, SloReport, WindowView,
};
pub use stats::{Counter, RequestStats, StatsSnapshot, Telemetry};
pub use trace::{
    render_prometheus, verify_stage_accounting, RequestTrace, SlowMeta, SlowRequest, Stage,
    StageStats,
};
pub use wire::{BatchPlaceResult, OutcomeReport, Request, Response, WirePlacement};
