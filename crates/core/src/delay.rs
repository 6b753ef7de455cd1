//! Interaction-delay prediction — the paper's Section 7 / future-work
//! extension, implemented here.
//!
//! "The processing delay of colocated games can be predicted in a similar
//! way using our methodology." The simulator exposes a per-input processing
//! delay (frame time plus command handling inflated by CPU contention); this
//! module trains a regression model on it with the same contention features
//! as the RM, plus the target's Eq.-2 solo FPS — delay is an absolute time,
//! so the model needs the game's baseline frame time, which the ratio-valued
//! RM does not.

use crate::features::rm_features;
use crate::model::{Algorithm, RegressionModel};
use crate::train::{MeasuredColocation, Placement, ProfileStore};
use gaugur_gamesim::{GameCatalog, Server, Workload};
use gaugur_ml::Dataset;
use serde::{Deserialize, Serialize};

/// A measured colocation annotated with per-member processing delays.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasuredDelays {
    /// The colocated games and resolutions.
    pub members: Vec<Placement>,
    /// Processing delay (ms) per member.
    pub delay_ms: Vec<f64>,
}

/// Measure processing delays for a set of colocations.
pub fn measure_delays(
    server: &Server,
    catalog: &GameCatalog,
    colocations: &[Vec<Placement>],
) -> Vec<MeasuredDelays> {
    colocations
        .iter()
        .map(|members| {
            let workloads: Vec<Workload<'_>> = members
                .iter()
                .map(|&(id, res)| Workload::game(catalog.get(id).expect("id in catalog"), res))
                .collect();
            let out = server.measure_colocation(&workloads);
            MeasuredDelays {
                members: members.clone(),
                delay_ms: (0..members.len())
                    .map(|i| out.game_delay_ms(i).expect("game workload"))
                    .collect(),
            }
        })
        .collect()
}

/// A trained interaction-delay predictor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DelayModel {
    model: RegressionModel,
}

impl DelayModel {
    /// Train from measured delays (same feature construction as the RM).
    pub fn train(
        profiles: &ProfileStore,
        measured: &[MeasuredDelays],
        algorithm: Algorithm,
        seed: u64,
    ) -> DelayModel {
        let mut data = Dataset::new();
        for m in measured {
            for (i, &(id, res)) in m.members.iter().enumerate() {
                let corunners: Vec<Placement> = m
                    .members
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &p)| p)
                    .collect();
                let intensities = profiles.intensities(&corunners);
                // Learn the delay as a multiple of the game's solo frame
                // time — a ratio, like the RM's degradation — so games with
                // very different baseline frame times share one scale.
                let solo_frame_ms = 1000.0 / profiles.get(id).solo_fps_at(res);
                data.push(
                    delay_features(profiles, (id, res), &intensities),
                    m.delay_ms[i] / solo_frame_ms,
                );
            }
        }
        DelayModel {
            model: RegressionModel::train_with_bounds(&data, algorithm, seed, (0.5, 100.0)),
        }
    }

    /// Predict the processing delay (ms) of `target` colocated with
    /// `others`.
    pub fn predict_delay_ms(
        &self,
        profiles: &ProfileStore,
        target: Placement,
        others: &[Placement],
    ) -> f64 {
        let intensities = profiles.intensities(others);
        let solo_frame_ms = 1000.0 / profiles.get(target.0).solo_fps_at(target.1);
        self.model
            .predict(&delay_features(profiles, target, &intensities))
            * solo_frame_ms
    }
}

/// Delay features: the target's solo FPS (baseline frame time) followed by
/// the standard RM features.
fn delay_features(
    profiles: &ProfileStore,
    target: Placement,
    corunner_intensities: &[gaugur_gamesim::ResourceVec],
) -> Vec<f64> {
    let profile = profiles.get(target.0);
    let mut f = Vec::with_capacity(1 + crate::features::rm_width(profile.granularity));
    f.push(profile.solo_fps_at(target.1));
    f.extend(rm_features(profile, corunner_intensities));
    f
}

/// Convert colocations with delays back into plain FPS measurements is not
/// needed; keep the delay campaign separate from the FPS campaign.
#[allow(dead_code)]
fn _doc_anchor(_m: &MeasuredColocation) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Profiler, ProfilingConfig};
    use crate::train::{plan_colocations, ColocationPlan, ProfileStore};
    use gaugur_gamesim::Resolution;

    #[test]
    fn delay_model_tracks_measured_delays() {
        let server = Server::reference(17);
        let catalog = GameCatalog::generate(42, 10);
        let profiles = ProfileStore::new(
            Profiler::new(ProfilingConfig::default()).profile_catalog(&server, &catalog),
        );
        let plan = ColocationPlan {
            pairs: 200,
            triples: 40,
            quads: 20,
            seed: 4,
        };
        let colocs = plan_colocations(&catalog, &plan);
        let measured = measure_delays(&server, &catalog, &colocs);
        let model = DelayModel::train(&profiles, &measured, Algorithm::GradientBoosting, 0);

        // Held-out check against fresh colocations.
        let test_plan = ColocationPlan {
            pairs: 20,
            triples: 0,
            quads: 0,
            seed: 99,
        };
        let test = measure_delays(&server, &catalog, &plan_colocations(&catalog, &test_plan));
        let mut errs = Vec::new();
        for m in &test {
            for (i, &p) in m.members.iter().enumerate() {
                let others: Vec<_> = m
                    .members
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &q)| q)
                    .collect();
                let pred = model.predict_delay_ms(&profiles, p, &others);
                errs.push((pred - m.delay_ms[i]).abs() / m.delay_ms[i]);
            }
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean_err < 0.25, "delay prediction error {mean_err}");
    }

    #[test]
    fn heavier_colocation_predicts_longer_delay() {
        let server = Server::reference(18);
        let catalog = GameCatalog::generate(42, 10);
        let profiles = ProfileStore::new(
            Profiler::new(ProfilingConfig::default()).profile_catalog(&server, &catalog),
        );
        let plan = ColocationPlan {
            pairs: 40,
            triples: 10,
            quads: 5,
            seed: 5,
        };
        let measured = measure_delays(&server, &catalog, &plan_colocations(&catalog, &plan));
        let model = DelayModel::train(&profiles, &measured, Algorithm::GradientBoosting, 0);

        let res = Resolution::Fhd1080;
        let target = (catalog[1].id, res);
        let light = [(catalog.by_name("A Walk in the Woods").unwrap().id, res)];
        let heavy = [
            (catalog.by_name("ARK Survival Evolved").unwrap().id, res),
            (catalog.by_name("Borderland2").unwrap().id, res),
        ];
        let d_light = model.predict_delay_ms(&profiles, target, &light);
        let d_heavy = model.predict_delay_ms(&profiles, target, &heavy);
        assert!(
            d_heavy > d_light,
            "heavy set should predict longer delay: {d_heavy} vs {d_light}"
        );
    }
}
