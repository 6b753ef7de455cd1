//! # gaugur — interference prediction for colocated cloud games
//!
//! A production-quality Rust reproduction of *GAugur: Quantifying
//! Performance Interference of Colocated Games for Improving Resource
//! Utilization in Cloud Gaming* (Li et al., HPDC '19).
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`gamesim`] — the simulated cloud-gaming testbed (games, seven shared
//!   resources, contention physics, pressure microbenchmarks);
//! * [`ml`] — from-scratch machine learning (CART, random forests, gradient
//!   boosting, SVMs, metrics);
//! * [`core`] — the GAugur methodology (profiling, feature construction,
//!   CM/RM models, online prediction);
//! * [`baselines`] — the paper's comparators (Sigmoid, SMiTe, VBP);
//! * [`sched`] — interference-aware request assignment (Algorithm 1, the
//!   max-FPS greedy, VBP worst-fit);
//! * [`serve`] — the online placement daemon (TCP wire protocol, live
//!   cluster state, model hot-reload, memoized prediction, load driver).
//!
//! ## Quickstart
//!
//! ```
//! use gaugur::prelude::*;
//!
//! // A simulated server and a small game catalog.
//! let server = Server::reference(7);
//! let catalog = GameCatalog::generate(42, 12);
//!
//! // Offline: profile every game, measure a training campaign, fit models.
//! let mut config = GAugurConfig::default();
//! config.plan = ColocationPlan { pairs: 40, triples: 10, quads: 5, seed: 1 };
//! let gaugur = GAugur::build(&server, &catalog, config);
//!
//! // Online: instantaneous predictions for an arbitrary colocation.
//! let res = Resolution::Fhd1080;
//! let target = (catalog[0].id, res);
//! let others = [(catalog[1].id, res), (catalog[2].id, res)];
//! let fps = gaugur.predict_fps(target, &others);
//! let ok = gaugur.predict_qos(60.0, target, &others);
//! assert!(fps > 0.0);
//! let _ = ok;
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use gaugur_baselines as baselines;
pub use gaugur_core as core;
pub use gaugur_gamesim as gamesim;
pub use gaugur_ml as ml;
pub use gaugur_sched as sched;
pub use gaugur_serve as serve;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use gaugur_baselines::{
        InterferencePredictor, SigmoidPredictor, SmitePredictor, VbpPolicy,
    };
    pub use gaugur_core::{
        Algorithm, ColocationPlan, GAugur, GAugurConfig, Placement, ProfileStore, Profiler,
        ProfilingConfig,
    };
    pub use gaugur_gamesim::{
        Game, GameCatalog, GameId, Genre, Microbenchmark, Resolution, Resource, Server, Workload,
    };
    pub use gaugur_sched::{
        assign, assign_max_fps, evaluate_cluster, pack_requests, random_requests, ColocationTable,
        FeasibilityReport, GaugurCm, Policy, PredictorFps,
    };
    pub use gaugur_serve::{Client, DaemonConfig, LoadConfig, ModelHandle, StatsSnapshot};
}
