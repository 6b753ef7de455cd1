//! # gaugur-core — the GAugur methodology
//!
//! The primary contribution of *GAugur: Quantifying Performance Interference
//! of Colocated Games for Improving Resource Utilization in Cloud Gaming*
//! (Li et al., HPDC '19), reproduced end to end:
//!
//! 1. **Contention-feature profiling** ([`profile`]): colocate each game
//!    with seven tunable single-resource microbenchmarks to extract
//!    sensitivity curves and intensities — `O(N)` offline cost.
//! 2. **Resolution modelling** ([`resolution`]): two profiled resolutions
//!    suffice; Eq. 2 and Observations 6–8 interpolate the rest.
//! 3. **Model building** ([`features`], [`model`]): a classification model
//!    (does a colocated game meet its QoS FPS floor?) and a regression model
//!    (its exact degradation ratio), each trainable with decision trees,
//!    random forests, gradient boosting or SVMs — all implemented in
//!    [`gaugur_ml`].
//! 4. **Training** ([`train`]): a few hundred measured colocations, each of
//!    `k` games yielding `k` samples.
//! 5. **Online prediction** ([`gaugur`]): instantaneous QoS / degradation /
//!    FPS predictions for arbitrary colocations, before the games are placed.
//!
//! The [`delay`] module implements the paper's Section 7 extension
//! (interaction-delay prediction); [`cf`] implements the related-work
//! combination with collaborative-filtering profile completion
//! (Paragon/Quasar-style), cutting the offline profiling cost.
//!
//! ```
//! use gaugur_core::{GAugur, GAugurConfig, ColocationPlan};
//! use gaugur_gamesim::{GameCatalog, Server, Resolution};
//!
//! let server = Server::reference(7);
//! let catalog = GameCatalog::generate(42, 10);
//! let mut config = GAugurConfig::default();
//! config.plan = ColocationPlan { pairs: 30, triples: 5, quads: 5, seed: 1 };
//! let gaugur = GAugur::build(&server, &catalog, config);
//! let res = Resolution::Fhd1080;
//! let ok = gaugur.predict_qos(60.0, (catalog[0].id, res), &[(catalog[1].id, res)]);
//! let degradation = gaugur.predict_degradation((catalog[0].id, res), &[(catalog[1].id, res)]);
//! assert!(degradation > 0.0 && degradation <= 1.05);
//! let _ = ok;
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cf;
pub mod delay;
pub mod features;
pub mod gaugur;
pub mod hash;
pub mod importance;
pub mod model;
pub mod predictor;
mod prefix;
pub mod profile;
pub mod resolution;
pub mod train;

pub use cf::{fold_in_profile, profile_catalog_cf, CfConfig, CfStats};
pub use features::FeatureBuffer;
pub use gaugur::{GAugur, GAugurConfig, RetrainReport, SessionOutcome, ARTIFACT_SCHEMA};
pub use importance::{permutation_importance, FeatureGroup};
pub use model::{Algorithm, ClassificationModel, RegressionModel, ALL_ALGORITHMS};
pub use predictor::{DegradationBatch, InterferencePredictor};
pub use prefix::PrefixStats;
pub use profile::{
    GameProfile, PartialProfile, Profiler, ProfilingConfig, ProfilingStat, SensitivityCurve,
};
pub use resolution::{IntensityModel, SoloFpsModel};
pub use train::{
    build_cm_samples, build_rm_samples, measure_colocations, plan_colocations, to_dataset,
    ColocationPlan, MeasuredColocation, Placement, ProfileStore, TaggedSample,
};
