//! The end-to-end GAugur facade: profile → train → predict online.
//!
//! Mirrors Figure 3 of the paper: the offline steps (contention-feature
//! profiling, model building, model training) run once in
//! [`GAugur::build`]; the online step ([`GAugur::predict_qos`],
//! [`GAugur::predict_degradation`], [`GAugur::predict_fps`]) serves
//! continuously arriving prediction requests with negligible overhead.

use crate::cf::{fold_in_profile, CfConfig};
use crate::features::{
    aggregate_intensity_into, cm_features, cm_head, rm_features, FeatureBuffer,
    AGGREGATE_INTENSITY_WIDTH, CM_HEAD_WIDTH,
};
use crate::model::{Algorithm, ClassificationModel, RegressionModel};
use crate::prefix::{PrefixStats, TargetPrefixes, STAGE_ONE_TREES};
use crate::profile::{PartialProfile, Profiler, ProfilingConfig};
use crate::train::{
    build_cm_samples, build_rm_samples, measure_colocations, plan_colocations, to_dataset,
    ColocationPlan, MeasuredColocation, Placement, ProfileStore,
};
use gaugur_gamesim::{GameCatalog, Server};
use gaugur_ml::Dataset;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::Arc;

/// Version of the on-disk artifact layout written by [`GAugur::save_json`].
///
/// Bump this whenever the serialized shape of [`GAugur`] (or the envelope
/// around it) changes incompatibly; [`GAugur::load_json`] refuses artifacts
/// whose version does not match, so a serving daemon can never hot-reload a
/// stale or future artifact into memory.
pub const ARTIFACT_SCHEMA: u32 = 1;

/// Configuration of the offline pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GAugurConfig {
    /// Profiling configuration (granularity, resolutions).
    pub profiling: ProfilingConfig,
    /// How many colocations to measure for training.
    pub plan: ColocationPlan,
    /// Algorithm for the classification model (paper default: GBDT).
    pub cm_algorithm: Algorithm,
    /// Algorithm for the regression model (paper default: GBRT).
    pub rm_algorithm: Algorithm,
    /// QoS values baked into the CM training set.
    pub qos_values: Vec<f64>,
    /// Training seed.
    pub seed: u64,
}

impl Default for GAugurConfig {
    fn default() -> Self {
        GAugurConfig {
            profiling: ProfilingConfig::default(),
            plan: ColocationPlan::default(),
            cm_algorithm: Algorithm::GradientBoosting,
            rm_algorithm: Algorithm::GradientBoosting,
            qos_values: vec![50.0, 60.0],
            seed: 0,
        }
    }
}

/// One observed colocation outcome reported back from the serving plane:
/// what the paper's offline measurement campaign produces, but harvested
/// from live sessions instead of a testbed sweep. A batch of these is the
/// training increment of [`GAugur::retrain_from_outcomes`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionOutcome {
    /// The observed session's own game and resolution.
    pub target: Placement,
    /// The co-runners it shared the server with while the FPS was measured.
    pub others: Vec<Placement>,
    /// The frame rate the session actually achieved.
    pub observed_fps: f64,
}

/// What one [`GAugur::retrain_from_outcomes`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetrainReport {
    /// Outcomes converted into training samples.
    pub samples_used: usize,
    /// Outcomes discarded (unprofiled game, non-finite or non-positive FPS).
    pub samples_skipped: usize,
    /// Boosting rounds appended to the regression ensemble (or the refit
    /// round budget for non-boosted families).
    pub extra_rounds: usize,
    /// Whether the ensemble was warm-started (gradient boosting) rather
    /// than refit from scratch.
    pub warm_started: bool,
}

/// A fully built GAugur predictor.
///
/// The public fields are for reading, and clones share them. Every way of
/// making a predictor — [`GAugur::from_measurements`],
/// [`GAugur::retrain_from_outcomes`], [`GAugur::fold_in_game`],
/// deserializing — derives each model's target prefixes from it and
/// `profiles`; a predictor whose fields are replaced keeps the prefixes of
/// the old ones.
#[derive(Debug, Clone)]
pub struct GAugur {
    /// Profiled contention features for every game.
    pub profiles: Arc<ProfileStore>,
    /// The trained classification model (Eq. 3).
    pub cm: Arc<ClassificationModel>,
    /// The trained regression model (Eq. 4).
    pub rm: Arc<RegressionModel>,
    /// The configuration used to build the predictor.
    pub config: GAugurConfig,
    /// Derived from `rm` and `profiles`; `None` when the RM has no split
    /// table. Not part of the artifact.
    pub(crate) rm_prefixes: Option<Arc<TargetPrefixes>>,
    /// Derived from `cm` and `profiles` likewise.
    cm_prefixes: Option<Arc<TargetPrefixes>>,
}

thread_local! {
    /// The scratch of the scalar entry points, which take none from their
    /// caller: grown once per thread, then reused.
    static SCALAR: RefCell<FeatureBuffer> = RefCell::new(FeatureBuffer::new());
}

/// The artifact is the four public fields, in declaration order.
impl Serialize for GAugur {
    fn serialize(&self, out: &mut serde::Serializer<'_>) {
        out.begin_map();
        out.key("profiles");
        self.profiles.serialize(out);
        out.key("cm");
        self.cm.serialize(out);
        out.key("rm");
        self.rm.serialize(out);
        out.key("config");
        self.config.serialize(out);
        out.end_map();
    }
}

/// The artifact as stored: what [`GAugur::new`] derives the prefixes from.
#[derive(Deserialize)]
struct GAugurArtifact {
    profiles: ProfileStore,
    cm: ClassificationModel,
    rm: RegressionModel,
    config: GAugurConfig,
}

impl Deserialize for GAugur {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let a = GAugurArtifact::deserialize(de)?;
        Ok(GAugur::new(
            Arc::new(a.profiles),
            Arc::new(a.cm),
            Arc::new(a.rm),
            a.config,
        ))
    }
}

/// `{"schema": N, "model": {…}}`: the versioned artifact [`GAugur::save_json`]
/// writes.
struct Envelope<'a>(&'a GAugur);

impl Serialize for Envelope<'_> {
    fn serialize(&self, out: &mut serde::Serializer<'_>) {
        out.begin_map();
        out.key("schema");
        ARTIFACT_SCHEMA.serialize(out);
        out.key("model");
        self.0.serialize(out);
        out.end_map();
    }
}

/// Check that `text` is one JSON document and find the envelope's first
/// `schema` value and the byte range of its first `model` value (either
/// absent when the document is not an object or lacks the key).
fn read_envelope(
    text: &str,
) -> Result<(Option<serde::Value>, Option<std::ops::Range<usize>>), serde::Error> {
    let mut de = serde::Deserializer::new(text);
    let (mut schema, mut model) = (None, None);
    if de.map_or_skip()? {
        while let Some(key) = de.next_key()? {
            match &*key {
                "schema" if schema.is_none() => schema = Some(serde::Value::deserialize(&mut de)?),
                "model" if model.is_none() => {
                    let start = de.offset();
                    de.skip()?;
                    model = Some(start..de.offset());
                }
                _ => de.skip()?,
            }
        }
    }
    de.end()?;
    Ok((schema, model))
}

impl GAugur {
    /// The one constructor: every predictor's target prefixes are built
    /// here.
    fn new(
        profiles: Arc<ProfileStore>,
        cm: Arc<ClassificationModel>,
        rm: Arc<RegressionModel>,
        config: GAugurConfig,
    ) -> GAugur {
        let prefixes = |table, fixed_from, stage_one| {
            Arc::new(TargetPrefixes::build(
                table, fixed_from, stage_one, &profiles,
            ))
        };
        let rm_prefixes = rm
            .split_table()
            .map(|table| prefixes(table, 0, STAGE_ONE_TREES));
        // The CM is one stage: nothing reads its bounds.
        let cm_prefixes = cm
            .split_table()
            .map(|table| prefixes(table, CM_HEAD_WIDTH, usize::MAX));
        GAugur {
            profiles,
            cm,
            rm,
            config,
            rm_prefixes,
            cm_prefixes,
        }
    }

    /// Run the full offline pipeline on a catalog: profile every game,
    /// measure the planned colocations, and train both models.
    pub fn build(server: &Server, catalog: &GameCatalog, config: GAugurConfig) -> GAugur {
        let profiler = Profiler::new(config.profiling);
        let profiles = ProfileStore::new(profiler.profile_catalog(server, catalog));
        let colocations = plan_colocations(catalog, &config.plan);
        let measured = measure_colocations(server, catalog, &colocations);
        GAugur::from_measurements(profiles, &measured, config)
    }

    /// Train from already-collected measurements (lets callers reuse one
    /// profiling campaign across experiments, as Section 4 does).
    pub fn from_measurements(
        profiles: ProfileStore,
        measured: &[MeasuredColocation],
        config: GAugurConfig,
    ) -> GAugur {
        let rm_data = to_dataset(&build_rm_samples(&profiles, measured));
        let cm_data = to_dataset(&build_cm_samples(&profiles, measured, &config.qos_values));
        // Side by side. Each fit draws only from generators it seeds itself,
        // so neither model depends on how the two threads are scheduled.
        let (rm, cm) = std::thread::scope(|scope| {
            let rm =
                scope.spawn(|| RegressionModel::train(&rm_data, config.rm_algorithm, config.seed));
            let cm = ClassificationModel::train(&cm_data, config.cm_algorithm, config.seed);
            let rm = rm.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            // Keep a copy made on this thread and drop the original. Under a
            // per-thread allocator arena (glibc's) everything the spawned
            // thread allocated is then free and the arena can be given back;
            // otherwise the one live model pins a megabyte of freed training
            // scratch in a process that goes on to serve.
            (rm.clone(), cm)
        });
        GAugur::new(Arc::new(profiles), Arc::new(cm), Arc::new(rm), config)
    }

    /// Online prediction (Eq. 4): the degradation ratio game `target` will
    /// suffer when colocated with `others`.
    pub fn predict_degradation(&self, target: Placement, others: &[Placement]) -> f64 {
        SCALAR.with_borrow_mut(|scratch| {
            self.gather(others, scratch);
            self.degradation_of(target, scratch)
        })
    }

    /// Gather the intensities of `others` into `scratch`, and their `I_G`.
    fn gather(&self, others: &[Placement], scratch: &mut FeatureBuffer) {
        let FeatureBuffer {
            intensities, rows, ..
        } = scratch;
        intensities.clear();
        intensities.extend(
            others
                .iter()
                .map(|&(id, res)| self.profiles.get(id).intensity_at(res)),
        );
        rows.clear();
        // A thread's first call grows it once, not once per doubling.
        rows.reserve(AGGREGATE_INTENSITY_WIDTH);
        aggregate_intensity_into(intensities, rows);
    }

    /// The RM's degradation ratio of `target` beside the co-runners
    /// [`GAugur::gather`] left in `scratch`: from the target's prefix, or by
    /// the node walk over the full row when the RM has no split table.
    fn degradation_of(&self, target: Placement, scratch: &mut FeatureBuffer) -> f64 {
        match &self.rm_prefixes {
            Some(prefixes) => {
                let raw = prefixes.predict(target.0, &[], &scratch.rows, &mut scratch.bits);
                self.rm.clamp(raw)
            }
            None => {
                let profile = self.profiles.get(target.0);
                self.rm.predict(&rm_features(profile, &scratch.intensities))
            }
        }
    }

    /// The CM's judgement that `target`, whose solo FPS is `solo`, meets
    /// `qos` beside the co-runners [`GAugur::gather`] left in `scratch`:
    /// from the target's prefix, or by the node walk over the full row when
    /// the CM has no split table.
    fn cm_meets(
        &self,
        qos: f64,
        solo: f64,
        target: Placement,
        scratch: &mut FeatureBuffer,
    ) -> bool {
        match &self.cm_prefixes {
            // The GBDT's `classify`: its score, the margin's sigmoid, ≥ 0.5.
            Some(prefixes) => {
                let head = cm_head(qos, solo);
                let margin = prefixes.predict(target.0, &head, &scratch.rows, &mut scratch.bits);
                gaugur_ml::gbdt::sigmoid(margin) >= 0.5
            }
            None => {
                let profile = self.profiles.get(target.0);
                self.cm
                    .classify(&cm_features(qos, solo, profile, &scratch.intensities))
            }
        }
    }

    /// Size of the RM's target prefixes (for `gaugur inspect`); `None` when
    /// the RM has no split table.
    pub fn rm_prefix_stats(&self) -> Option<PrefixStats> {
        self.rm_prefixes.as_deref().map(TargetPrefixes::stats)
    }

    /// Size of the CM's target prefixes (for `gaugur inspect`); `None` when
    /// the CM has no split table.
    pub fn cm_prefix_stats(&self) -> Option<PrefixStats> {
        self.cm_prefixes.as_deref().map(TargetPrefixes::stats)
    }

    /// Online prediction: the absolute FPS of `target` under colocation
    /// (degradation × Eq.-2 solo FPS).
    pub fn predict_fps(&self, target: Placement, others: &[Placement]) -> f64 {
        let solo = self.profiles.get(target.0).solo_fps_at(target.1);
        self.predict_degradation(target, others) * solo
    }

    /// Online prediction (Eq. 3): does `target` meet `qos` FPS when
    /// colocated with `others`?
    pub fn predict_qos(&self, qos: f64, target: Placement, others: &[Placement]) -> bool {
        let solo = self.profiles.get(target.0).solo_fps_at(target.1);
        // Colocation can only degrade a game, so a QoS bar above the solo
        // frame rate is unreachable no matter what the learned model says.
        if qos > solo {
            return false;
        }

        // The CM is only trained on the QoS values in the config; outside
        // that range tree models extrapolate arbitrarily. QoS satisfaction
        // is monotone (meeting a bar implies meeting every lower bar), so a
        // query below the trained range can be answered by the lowest
        // trained bar when positive, and falls back to RM thresholding
        // otherwise; symmetrically above the range.
        let lo = self
            .config
            .qos_values
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .config
            .qos_values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);

        SCALAR.with_borrow_mut(|scratch| {
            self.gather(others, scratch);
            let cm_at =
                |q: f64, scratch: &mut FeatureBuffer| self.cm_meets(q, solo, target, scratch);
            // The same product as `predict_fps`.
            let fps_meets =
                |scratch: &mut FeatureBuffer| self.degradation_of(target, scratch) * solo >= qos;
            if self.config.qos_values.is_empty() || (lo..=hi).contains(&qos) {
                cm_at(qos, scratch)
            } else if qos < lo {
                cm_at(lo, scratch) || fps_meets(scratch)
            } else {
                // lo..=hi excluded qos and qos > hi.
                cm_at(hi, scratch) && fps_meets(scratch)
            }
        })
    }

    /// Persist the whole trained predictor (profiles + both models) as a
    /// versioned JSON artifact: `{"schema": N, "model": {…}}`.
    ///
    /// The offline pipeline runs once per catalog; production front-ends load
    /// the artifact instead of re-profiling.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        serde_json::to_writer(std::io::BufWriter::new(file), &Envelope(self))
            .map_err(std::io::Error::other)
    }

    /// Load a predictor persisted with [`GAugur::save_json`].
    ///
    /// Rejects artifacts with a missing or mismatched `schema` field with a
    /// descriptive [`std::io::ErrorKind::InvalidData`] error, so operators
    /// see "wrong artifact version", not a serde shape error.
    pub fn load_json(path: impl AsRef<std::path::Path>) -> std::io::Result<GAugur> {
        let path = path.as_ref();
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let text = std::fs::read_to_string(path)?;
        let (schema, model) = read_envelope(&text)
            .map_err(|e| invalid(format!("artifact {}: not valid JSON: {e}", path.display())))?;
        let schema = schema.ok_or_else(|| {
            invalid(format!(
                "artifact {}: missing `schema` field — this artifact predates \
                 versioning (expected schema {ARTIFACT_SCHEMA}); re-export it \
                 with the current `gaugur train`/`GAugur::save_json`",
                path.display()
            ))
        })?;
        let found = schema.as_f64().ok_or_else(|| {
            invalid(format!(
                "artifact {}: `schema` must be an integer, found {}",
                path.display(),
                schema.kind()
            ))
        })?;
        if found != f64::from(ARTIFACT_SCHEMA) {
            return Err(invalid(format!(
                "artifact {}: schema version {found} does not match this \
                 build's supported version {ARTIFACT_SCHEMA}",
                path.display()
            )));
        }
        let model = model.ok_or_else(|| {
            invalid(format!(
                "artifact {}: missing `model` field",
                path.display()
            ))
        })?;
        serde_json::from_str(&text[model])
            .map_err(|e| invalid(format!("artifact {}: malformed model: {e}", path.display())))
    }

    /// Continuous retraining: warm-start the regression model on observed
    /// session outcomes. Each usable outcome becomes one RM sample exactly
    /// as in the offline pipeline — features from the target's profile and
    /// the co-runners' intensities, target `observed_fps / solo_fps` clamped
    /// to `[0.01, 1.2]` — and the RM continues boosting `extra_rounds`
    /// rounds on those fresh residuals
    /// ([`RegressionModel::warm_start`]). Profiles, the CM, and the config
    /// are carried over unchanged, so the result serializes under the same
    /// [`ARTIFACT_SCHEMA`] and hot-reloads like any other artifact.
    ///
    /// Outcomes naming unprofiled games or carrying unusable FPS values are
    /// skipped (and counted); returns `None` when nothing usable remains,
    /// so a retrain on garbage can never produce a model.
    pub fn retrain_from_outcomes(
        &self,
        outcomes: &[SessionOutcome],
        extra_rounds: usize,
    ) -> Option<(GAugur, RetrainReport)> {
        let mut features = Vec::new();
        let mut targets = Vec::new();
        let mut skipped = 0usize;
        for o in outcomes {
            let known = self.profiles.contains(o.target.0)
                && o.others.iter().all(|&(id, _)| self.profiles.contains(id));
            if !known || !o.observed_fps.is_finite() || o.observed_fps <= 0.0 {
                skipped += 1;
                continue;
            }
            let profile = self.profiles.get(o.target.0);
            let intensities = self.profiles.intensities(&o.others);
            let solo = profile.solo_fps_at(o.target.1);
            features.push(rm_features(profile, &intensities));
            targets.push((o.observed_fps / solo).clamp(0.01, 1.2));
        }
        if features.is_empty() {
            return None;
        }
        let data = Dataset::from_parts(features, targets);
        let report = RetrainReport {
            samples_used: data.len(),
            samples_skipped: skipped,
            extra_rounds,
            warm_started: self.rm.supports_warm_start(),
        };
        let rm = self.rm.warm_start(&data, extra_rounds, self.config.seed);
        Some((
            GAugur::new(
                self.profiles.clone(),
                self.cm.clone(),
                Arc::new(rm),
                self.config.clone(),
            ),
            report,
        ))
    }

    /// Fold a sparsely profiled newcomer into the predictor without a full
    /// profiling campaign: the existing catalog anchors an ALS completion
    /// matrix ([`crate::cf::fold_in_profile`]) that fills the newcomer's
    /// unmeasured sensitivity curves and intensities. The returned predictor
    /// can serve the new game immediately; its next
    /// [`GAugur::retrain_from_outcomes`] will then pick up the newcomer's
    /// observed outcomes as training signal.
    pub fn fold_in_game(&self, partial: &PartialProfile, cf: &CfConfig) -> GAugur {
        let profiler = Profiler::new(self.config.profiling);
        let known = self.profiles.sorted();
        let folded = fold_in_profile(&known, partial, &profiler, cf);
        let mut profiles = ProfileStore::clone(&self.profiles);
        profiles.insert(folded);
        GAugur::new(
            Arc::new(profiles),
            self.cm.clone(),
            self.rm.clone(),
            self.config.clone(),
        )
    }

    /// Whether an entire colocation is *feasible*: every member satisfies
    /// the QoS requirement (Section 5.1), judged by the CM.
    pub fn colocation_feasible(&self, qos: f64, members: &[Placement]) -> bool {
        members.iter().enumerate().all(|(i, &m)| {
            let others: Vec<Placement> = members
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &p)| p)
                .collect();
            self.predict_qos(qos, m, &others)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugur_gamesim::Resolution;

    fn quick_build() -> (Server, GameCatalog, GAugur) {
        let server = Server::reference(31);
        let catalog = GameCatalog::generate(42, 14);
        let config = GAugurConfig {
            plan: ColocationPlan {
                pairs: 60,
                triples: 15,
                quads: 10,
                seed: 2,
            },
            ..GAugurConfig::default()
        };
        let gaugur = GAugur::build(&server, &catalog, config);
        (server, catalog, gaugur)
    }

    #[test]
    fn end_to_end_predictions_are_sane_and_useful() {
        let (server, catalog, gaugur) = quick_build();
        let res = Resolution::Fhd1080;
        let indie = catalog.by_name("BlubBlub").unwrap().id;
        let heavy = catalog.by_name("ARK Survival Evolved").unwrap().id;
        let moba = catalog.by_name("Battlerite").unwrap().id;

        // Predicted degradation is a ratio.
        let d = gaugur.predict_degradation((moba, res), &[(heavy, res)]);
        assert!(d > 0.0 && d <= 1.05);

        // A heavy co-runner should hurt more than a light one.
        let d_light = gaugur.predict_degradation((moba, res), &[(indie, res)]);
        assert!(
            d_light > d,
            "indie co-runner {d_light} should degrade less than AAA {d}"
        );

        // Predicted FPS should correlate with the measured outcome.
        let pred = gaugur.predict_fps((moba, res), &[(heavy, res)]);
        let out = server.measure_colocation(&[
            gaugur_gamesim::Workload::game(catalog.get(moba).unwrap(), res),
            gaugur_gamesim::Workload::game(catalog.get(heavy).unwrap(), res),
        ]);
        let actual = out.game_fps(0).unwrap();
        let err = (pred - actual).abs() / actual;
        assert!(err < 0.35, "prediction {pred} vs actual {actual}");
    }

    /// `from_measurements` trains the RM and the CM on two threads; the
    /// artifact is the one training them one after the other gives.
    #[test]
    fn side_by_side_training_equals_one_after_the_other() {
        let server = Server::reference(31);
        let catalog = GameCatalog::generate(42, 10);
        let config = GAugurConfig::default();
        let profiles =
            ProfileStore::new(Profiler::new(config.profiling).profile_catalog(&server, &catalog));
        let plan = ColocationPlan {
            pairs: 30,
            triples: 8,
            quads: 6,
            seed: 2,
        };
        let measured = measure_colocations(&server, &catalog, &plan_colocations(&catalog, &plan));

        let rm_data = to_dataset(&build_rm_samples(&profiles, &measured));
        let cm_data = to_dataset(&build_cm_samples(&profiles, &measured, &config.qos_values));
        let in_turn = GAugur::new(
            Arc::new(profiles.clone()),
            Arc::new(ClassificationModel::train(
                &cm_data,
                config.cm_algorithm,
                config.seed,
            )),
            Arc::new(RegressionModel::train(
                &rm_data,
                config.rm_algorithm,
                config.seed,
            )),
            config.clone(),
        );
        let side_by_side = GAugur::from_measurements(profiles, &measured, config);
        assert!(
            serde_json::to_string(&side_by_side).unwrap()
                == serde_json::to_string(&in_turn).unwrap()
        );
    }

    #[test]
    fn feasibility_checks_every_member() {
        let (_, catalog, gaugur) = quick_build();
        let res = Resolution::Hd720;
        let light_pair = [
            (catalog.by_name("BlubBlub").unwrap().id, res),
            (catalog.by_name("Candle").unwrap().id, res),
        ];
        assert!(gaugur.colocation_feasible(30.0, &light_pair));
        // An absurd QoS bar cannot be met even solo-ish.
        assert!(!gaugur.colocation_feasible(10_000.0, &light_pair));
    }

    #[test]
    fn save_and_load_roundtrip_predictions() {
        let (_, catalog, gaugur) = quick_build();
        let dir = std::env::temp_dir().join("gaugur-test-persist");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("predictor.json");
        gaugur.save_json(&path).unwrap();
        let loaded = GAugur::load_json(&path).unwrap();
        let res = Resolution::Fhd1080;
        let t = (catalog[0].id, res);
        let o = [(catalog[1].id, res)];
        assert_eq!(
            gaugur.predict_degradation(t, &o),
            loaded.predict_degradation(t, &o)
        );
        assert_eq!(
            gaugur.predict_qos(60.0, t, &o),
            loaded.predict_qos(60.0, t, &o)
        );
        std::fs::remove_file(&path).ok();
    }

    /// The target prefixes are derived state: they must leave no trace
    /// in the artifact, so a loaded model re-saves to the very same bytes
    /// under the same schema version.
    #[test]
    fn loaded_artifact_resaves_to_identical_bytes() {
        let (_, _, gaugur) = quick_build();
        let dir = std::env::temp_dir().join("gaugur-test-resave");
        std::fs::create_dir_all(&dir).unwrap();
        let (first, second) = (dir.join("first.json"), dir.join("second.json"));
        gaugur.save_json(&first).unwrap();
        GAugur::load_json(&first)
            .unwrap()
            .save_json(&second)
            .unwrap();
        let bytes = std::fs::read(&first).unwrap();
        assert!(bytes.starts_with(b"{\"schema\":1,\"model\":{"));
        assert!(bytes == std::fs::read(&second).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(GAugur::load_json("/nonexistent/gaugur.json").is_err());
    }

    fn write_artifact(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gaugur-test-schema");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn old_shape_artifact_gets_a_clear_schema_message() {
        // A pre-versioning artifact was the bare GAugur map — no `schema`.
        let path = write_artifact("old-shape.json", r#"{"profiles": {}, "cm": {}, "rm": {}}"#);
        let err = GAugur::load_json(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("schema"), "unhelpful message: {msg}");
        assert!(msg.contains("predates"), "unhelpful message: {msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_schema_version_is_rejected_with_both_versions() {
        let path = write_artifact("future.json", r#"{"schema": 999, "model": {}}"#);
        let err = GAugur::load_json(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("999"), "should name the found version: {msg}");
        assert!(
            msg.contains(&ARTIFACT_SCHEMA.to_string()),
            "should name the supported version: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_integer_schema_is_rejected() {
        let path = write_artifact("bad-type.json", r#"{"schema": "one", "model": {}}"#);
        let err = GAugur::load_json(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("integer"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saved_artifact_carries_the_schema_version() {
        let (_, _, gaugur) = quick_build();
        let dir = std::env::temp_dir().join("gaugur-test-schema");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("versioned.json");
        gaugur.save_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value = serde_json::parse_value_str(&text).unwrap();
        assert_eq!(
            value.get("schema").and_then(|v| v.as_f64()),
            Some(f64::from(ARTIFACT_SCHEMA))
        );
        assert!(value.get("model").is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retrain_from_outcomes_warm_starts_and_keeps_the_envelope() {
        let (server, catalog, gaugur) = quick_build();
        let res = Resolution::Fhd1080;
        // Harvest "observed" outcomes from the simulator, exactly what the
        // serving feedback loop would report.
        let ids: Vec<_> = catalog.games().iter().map(|g| g.id).collect();
        let mut outcomes = Vec::new();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                let out = server.measure_colocation(&[
                    gaugur_gamesim::Workload::game(catalog.get(ids[i]).unwrap(), res),
                    gaugur_gamesim::Workload::game(catalog.get(ids[j]).unwrap(), res),
                ]);
                outcomes.push(SessionOutcome {
                    target: (ids[i], res),
                    others: vec![(ids[j], res)],
                    observed_fps: out.game_fps(0).unwrap(),
                });
            }
        }
        let (tuned, report) = gaugur.retrain_from_outcomes(&outcomes, 60).unwrap();
        assert!(report.warm_started);
        assert_eq!(report.samples_used, outcomes.len());
        assert_eq!(report.samples_skipped, 0);

        // The retrained artifact round-trips through the same envelope.
        let dir = std::env::temp_dir().join("gaugur-test-retrain");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("retrained.json");
        tuned.save_json(&path).unwrap();
        let loaded = GAugur::load_json(&path).unwrap();
        let t = (ids[0], res);
        let o = [(ids[1], res)];
        assert_eq!(
            tuned.predict_degradation(t, &o),
            loaded.predict_degradation(t, &o)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retrain_with_zero_rounds_changes_nothing() {
        let (_, catalog, gaugur) = quick_build();
        let res = Resolution::Fhd1080;
        let outcomes = vec![SessionOutcome {
            target: (catalog[0].id, res),
            others: vec![(catalog[1].id, res)],
            observed_fps: 40.0,
        }];
        let (same, _) = gaugur.retrain_from_outcomes(&outcomes, 0).unwrap();
        let t = (catalog[0].id, res);
        let o = [(catalog[1].id, res)];
        assert_eq!(
            gaugur.predict_degradation(t, &o).to_bits(),
            same.predict_degradation(t, &o).to_bits()
        );
    }

    #[test]
    fn retrain_skips_unusable_outcomes_and_refuses_all_garbage() {
        let (_, catalog, gaugur) = quick_build();
        let res = Resolution::Fhd1080;
        let unknown = gaugur_gamesim::GameId(9_999);
        let garbage = vec![
            SessionOutcome {
                target: (unknown, res),
                others: vec![],
                observed_fps: 50.0,
            },
            SessionOutcome {
                target: (catalog[0].id, res),
                others: vec![(unknown, res)],
                observed_fps: 50.0,
            },
            SessionOutcome {
                target: (catalog[0].id, res),
                others: vec![],
                observed_fps: f64::NAN,
            },
            SessionOutcome {
                target: (catalog[0].id, res),
                others: vec![],
                observed_fps: -3.0,
            },
        ];
        assert!(gaugur.retrain_from_outcomes(&garbage, 10).is_none());

        let mut mixed = garbage.clone();
        mixed.push(SessionOutcome {
            target: (catalog[0].id, res),
            others: vec![(catalog[1].id, res)],
            observed_fps: 45.0,
        });
        let (_, report) = gaugur.retrain_from_outcomes(&mixed, 10).unwrap();
        assert_eq!(report.samples_used, 1);
        assert_eq!(report.samples_skipped, 4);
    }

    #[test]
    fn fold_in_game_makes_a_newcomer_predictable() {
        let (server, _, gaugur) = quick_build();
        // A 15th game the model has never seen, sparsely profiled.
        let big_catalog = GameCatalog::generate(42, 15);
        let newcomer = &big_catalog.games()[14];
        assert!(!gaugur.profiles.contains(newcomer.id));
        let profiler = Profiler::new(gaugur.config.profiling);
        let partial = server_partial(&profiler, &server, newcomer);
        let extended = gaugur.fold_in_game(&partial, &crate::cf::CfConfig::default());
        assert!(extended.profiles.contains(newcomer.id));
        let res = Resolution::Fhd1080;
        let d = extended.predict_degradation(
            (newcomer.id, res),
            &[(extended.profiles.sorted()[0].id, res)],
        );
        assert!(d > 0.0 && d <= 1.05, "folded-in prediction {d}");
    }

    fn server_partial(
        profiler: &Profiler,
        server: &Server,
        game: &gaugur_gamesim::Game,
    ) -> PartialProfile {
        profiler.profile_game_partial(
            server,
            game,
            &[
                gaugur_gamesim::Resource::GpuCore,
                gaugur_gamesim::Resource::CpuCore,
            ],
        )
    }

    #[test]
    fn qos_via_rm_and_cm_mostly_agree() {
        let (_, catalog, gaugur) = quick_build();
        let res = Resolution::Fhd1080;
        let ids: Vec<_> = catalog.games().iter().map(|g| g.id).collect();
        let mut agree = 0;
        let mut total = 0;
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                let cm = gaugur.predict_qos(60.0, (ids[i], res), &[(ids[j], res)]);
                let rm = gaugur.predict_fps((ids[i], res), &[(ids[j], res)]) >= 60.0;
                agree += usize::from(cm == rm);
                total += 1;
            }
        }
        assert!(
            agree as f64 / total as f64 > 0.7,
            "CM and RM disagree too much: {agree}/{total}"
        );
    }
}
