//! Contention-feature profiling (paper Section 3.2).
//!
//! For every game and every shared resource, the profiler colocates the game
//! with that resource's microbenchmark at pressures `{0, 1/k, …, 1}` and
//! records:
//!
//! * the game's FPS at each pressure → the **sensitivity curve**
//!   `S_r^A = [δ_r^A(0), …, δ_r^A(1)]` (FPS ratio vs solo), and
//! * the benchmark's average slowdown → the **intensity** `I_r^A`.
//!
//! Following Observations 6–8 the sweep runs at two resolutions: the
//! sensitivity curve is kept from the base resolution only; the intensities
//! and solo FPS from both resolutions feed the linear resolution models.
//! The whole step is offline and `O(N)` in the number of games.

use crate::resolution::{IntensityModel, SoloFpsModel};
use gaugur_gamesim::{
    Game, GameCatalog, GameId, Microbenchmark, Resolution, Resource, ResourceVec, Server, Workload,
    ALL_RESOURCES,
};
use serde::{Deserialize, Serialize};

/// How the per-window frame rate is summarized during profiling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProfilingStat {
    /// Mean FPS over the window (the paper's default).
    Mean,
    /// A conservative low percentile (the paper's Section 7 suggestion for
    /// avoiding transient QoS violations). The simulator models this as a
    /// fixed margin below the mean equal to `z` standard deviations of the
    /// frame-rate jitter.
    Percentile {
        /// Number of noise standard deviations below the mean.
        z: f64,
    },
}

/// Profiling configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ProfilingConfig {
    /// Sampling granularity `k` — pressures are `{0, 1/k, …, 1}`
    /// (the paper uses `k = 10`).
    pub granularity: usize,
    /// The resolution at which sensitivity curves are profiled.
    pub base_resolution: Resolution,
    /// The second resolution, used to fit the intensity / Eq. 2 models.
    pub alt_resolution: Resolution,
    /// Frame-rate summarization.
    pub stat: ProfilingStat,
}

impl Default for ProfilingConfig {
    fn default() -> Self {
        ProfilingConfig {
            granularity: 10,
            base_resolution: Resolution::Hd720,
            alt_resolution: Resolution::Qhd1440,
            stat: ProfilingStat::Mean,
        }
    }
}

/// One sensitivity curve: `k + 1` FPS-retention ratios, one per pressure
/// level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityCurve {
    /// `δ(0), δ(1/k), …, δ(1)` — colocated FPS divided by solo FPS.
    pub samples: Vec<f64>,
}

impl SensitivityCurve {
    /// The paper's "sensitivity score": degradation under maximum pressure,
    /// `δ_r(1)` (SMiTe consumes `1 − δ_r(1)` as its sensitivity).
    pub fn at_max_pressure(&self) -> f64 {
        *self.samples.last().expect("non-empty curve")
    }

    /// Linearly interpolate the curve at pressure `x ∈ [0, 1]`.
    pub fn interpolate(&self, x: f64) -> f64 {
        let k = self.samples.len() - 1;
        let x = x.clamp(0.0, 1.0) * k as f64;
        let lo = x.floor() as usize;
        let hi = x.ceil() as usize;
        if lo == hi {
            self.samples[lo]
        } else {
            let frac = x - lo as f64;
            self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
        }
    }
}

/// The complete profiled contention features of one game: everything GAugur
/// knows about it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GameProfile {
    /// The profiled game.
    pub id: GameId,
    /// Title, for reporting.
    pub name: String,
    /// Sensitivity curve per resource (resource-index order), profiled at the
    /// base resolution (Observation 6 makes one resolution sufficient).
    pub sensitivity: Vec<SensitivityCurve>,
    /// Intensity as a function of resolution (Observations 7–8).
    pub intensity: IntensityModel,
    /// Solo FPS as a function of resolution (Eq. 2).
    pub solo_fps: SoloFpsModel,
    /// The granularity the curves were sampled at.
    pub granularity: usize,
}

impl GameProfile {
    /// Intensity vector at a resolution.
    pub fn intensity_at(&self, res: Resolution) -> ResourceVec {
        self.intensity.at(res)
    }

    /// Predicted solo FPS at a resolution.
    pub fn solo_fps_at(&self, res: Resolution) -> f64 {
        self.solo_fps.fps_at(res)
    }

    /// Sensitivity curve for one resource.
    pub fn sensitivity_for(&self, r: Resource) -> &SensitivityCurve {
        &self.sensitivity[r.index()]
    }
}

/// A partially profiled game: sweeps exist only for a subset of resources
/// (collaborative filtering completes the rest — see [`crate::cf`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartialProfile {
    /// The profiled game.
    pub id: GameId,
    /// Title, for reporting.
    pub name: String,
    /// Measured solo FPS at the base profiling resolution.
    pub solo_base: f64,
    /// Measured solo FPS at the alternate profiling resolution.
    pub solo_alt: f64,
    /// Sensitivity curves for the swept resources (`None` = not swept).
    pub curves: Vec<Option<SensitivityCurve>>,
    /// Base-resolution intensities for the swept resources.
    pub intensity_base: Vec<Option<f64>>,
    /// Alternate-resolution intensities for the swept resources.
    pub intensity_alt: Vec<Option<f64>>,
    /// Sampling granularity of the curves.
    pub granularity: usize,
}

impl PartialProfile {
    /// Number of resources actually swept.
    pub fn swept_resources(&self) -> usize {
        self.curves.iter().filter(|c| c.is_some()).count()
    }
}

/// The offline profiler.
#[derive(Debug, Clone)]
pub struct Profiler {
    /// Configuration.
    pub config: ProfilingConfig,
}

impl Profiler {
    /// A profiler with the paper's defaults.
    pub fn new(config: ProfilingConfig) -> Profiler {
        assert!(config.granularity >= 1, "granularity must be at least 1");
        Profiler { config }
    }

    /// Profile one game on a server.
    pub fn profile_game(&self, server: &Server, game: &Game) -> GameProfile {
        let cfg = &self.config;
        let (base, alt) = (cfg.base_resolution, cfg.alt_resolution);

        let solo_base = self.summarize(server.measure_solo_fps(game, base));
        let solo_alt = self.summarize(server.measure_solo_fps(game, alt));

        let mut sensitivity = Vec::with_capacity(ALL_RESOURCES.len());
        let mut intensity_base = ResourceVec::ZERO;
        let mut intensity_alt = ResourceVec::ZERO;

        for r in ALL_RESOURCES {
            let (curve, int_b) = self.sweep(server, game, base, r, solo_base);
            let (_, int_a) = self.sweep(server, game, alt, r, solo_alt);
            sensitivity.push(curve);
            intensity_base[r] = int_b;
            intensity_alt[r] = int_a;
        }

        GameProfile {
            id: game.id,
            name: game.name.clone(),
            sensitivity,
            intensity: IntensityModel::from_two_points(base, &intensity_base, alt, &intensity_alt),
            solo_fps: SoloFpsModel::from_two_points(base, solo_base, alt, solo_alt),
            granularity: cfg.granularity,
        }
    }

    /// Profile a whole catalog, one game after another. Cost is `O(N)` in
    /// the number of games — the paper's headline overhead argument.
    pub fn profile_catalog(&self, server: &Server, catalog: &GameCatalog) -> Vec<GameProfile> {
        catalog
            .games()
            .iter()
            .map(|g| self.profile_game(server, g))
            .collect()
    }

    /// Profile one game on a *subset* of the shared resources, for the
    /// collaborative-filtering extension (see [`crate::cf`]): sweeps run
    /// only for the listed resources, cutting the per-game profiling cost
    /// proportionally. Solo frame rates are always measured (two runs are
    /// negligible next to the sweeps).
    pub fn profile_game_partial(
        &self,
        server: &Server,
        game: &Game,
        resources: &[Resource],
    ) -> PartialProfile {
        let cfg = &self.config;
        let (base, alt) = (cfg.base_resolution, cfg.alt_resolution);
        let solo_base = self.summarize(server.measure_solo_fps(game, base));
        let solo_alt = self.summarize(server.measure_solo_fps(game, alt));

        let mut curves: Vec<Option<SensitivityCurve>> = vec![None; ALL_RESOURCES.len()];
        let mut intensity_base: Vec<Option<f64>> = vec![None; ALL_RESOURCES.len()];
        let mut intensity_alt: Vec<Option<f64>> = vec![None; ALL_RESOURCES.len()];
        for &r in resources {
            let (curve, int_b) = self.sweep(server, game, base, r, solo_base);
            let (_, int_a) = self.sweep(server, game, alt, r, solo_alt);
            curves[r.index()] = Some(curve);
            intensity_base[r.index()] = Some(int_b);
            intensity_alt[r.index()] = Some(int_a);
        }

        PartialProfile {
            id: game.id,
            name: game.name.clone(),
            solo_base,
            solo_alt,
            curves,
            intensity_base,
            intensity_alt,
            granularity: cfg.granularity,
        }
    }

    /// Sweep one `(game, resolution, resource)` combination: returns the
    /// sensitivity curve and the mean benchmark slowdown minus one (the
    /// intensity).
    fn sweep(
        &self,
        server: &Server,
        game: &Game,
        res: Resolution,
        r: Resource,
        solo_fps: f64,
    ) -> (SensitivityCurve, f64) {
        let k = self.config.granularity;
        let bench = Microbenchmark::for_resource(r);
        let mut samples = Vec::with_capacity(k + 1);
        let mut slowdown_sum = 0.0;
        for step in 0..=k {
            let level = step as f64 / k as f64;
            let out = server
                .measure_colocation(&[Workload::game(game, res), Workload::bench(bench, level)]);
            let fps = self.summarize(out.game_fps(0).expect("game at index 0"));
            samples.push((fps / solo_fps).min(1.05));
            slowdown_sum += out.bench_slowdown(1).expect("bench at index 1");
        }
        let mean_slowdown = slowdown_sum / (k + 1) as f64;
        (SensitivityCurve { samples }, (mean_slowdown - 1.0).max(0.0))
    }

    /// Apply the configured frame-rate summarization to a mean measurement.
    fn summarize(&self, mean_fps: f64) -> f64 {
        match self.config.stat {
            ProfilingStat::Mean => mean_fps,
            ProfilingStat::Percentile { z } => mean_fps * (1.0 - z * 0.015).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Server, GameCatalog, Profiler) {
        (
            Server::reference(11),
            GameCatalog::generate(42, 100),
            Profiler::new(ProfilingConfig::default()),
        )
    }

    #[test]
    fn curves_have_k_plus_one_samples_and_start_near_one() {
        let (server, cat, prof) = setup();
        let p = prof.profile_game(&server, &cat[0]);
        for r in ALL_RESOURCES {
            let c = p.sensitivity_for(r);
            assert_eq!(c.samples.len(), 11);
            assert!(
                (c.samples[0] - 1.0).abs() < 0.08,
                "{r}: zero pressure should not degrade: {}",
                c.samples[0]
            );
            for &s in &c.samples {
                assert!(s > 0.0 && s <= 1.05);
            }
        }
    }

    #[test]
    fn curves_are_weakly_decreasing_up_to_noise() {
        let (server, cat, prof) = setup();
        let p = prof.profile_game(&server, &cat.by_name("Far Cry 4").unwrap().clone());
        for r in ALL_RESOURCES {
            let c = p.sensitivity_for(r);
            for w in c.samples.windows(2) {
                assert!(w[1] <= w[0] + 0.08, "{r}: {:?}", c.samples);
            }
        }
    }

    #[test]
    fn heavy_games_have_higher_intensity_than_light_games() {
        let (server, cat, prof) = setup();
        let aaa = prof.profile_game(&server, cat.by_name("Far Cry 4").unwrap());
        let indie = prof.profile_game(&server, cat.by_name("Stardew Valley").unwrap());
        let res = Resolution::Fhd1080;
        let heavy_sum = aaa.intensity_at(res).sum();
        let light_sum = indie.intensity_at(res).sum();
        assert!(
            heavy_sum > 2.0 * light_sum,
            "AAA {heavy_sum} vs indie {light_sum}"
        );
    }

    #[test]
    fn intensity_grows_with_resolution_on_gpu_resources() {
        let (server, cat, prof) = setup();
        let p = prof.profile_game(&server, cat.by_name("Rise of The Tomb Raider").unwrap());
        let lo = p.intensity_at(Resolution::Hd720);
        let hi = p.intensity_at(Resolution::Qhd1440);
        assert!(hi[Resource::GpuCore] > lo[Resource::GpuCore]);
        // CPU-side intensity is resolution-constant by construction (Obs 7).
        assert_eq!(hi[Resource::CpuCore], lo[Resource::CpuCore]);
    }

    #[test]
    fn eq2_model_predicts_intermediate_resolution_fps() {
        let (server, cat, prof) = setup();
        let g = cat.by_name("Dota2").unwrap();
        let p = prof.profile_game(&server, g);
        let predicted = p.solo_fps_at(Resolution::Fhd1080);
        let measured = server.measure_solo_fps(g, Resolution::Fhd1080);
        let err = (predicted - measured).abs() / measured;
        assert!(err < 0.12, "Eq.2 error {err}: {predicted} vs {measured}");
    }

    #[test]
    fn interpolate_endpoints_match_samples() {
        let c = SensitivityCurve {
            samples: vec![1.0, 0.8, 0.5],
        };
        assert_eq!(c.interpolate(0.0), 1.0);
        assert_eq!(c.interpolate(1.0), 0.5);
        assert!((c.interpolate(0.25) - 0.9).abs() < 1e-12);
        assert_eq!(c.at_max_pressure(), 0.5);
    }

    #[test]
    fn conservative_stat_lowers_reported_fps() {
        let (server, cat, _) = setup();
        let mean_prof = Profiler::new(ProfilingConfig::default());
        let p5_prof = Profiler::new(ProfilingConfig {
            stat: ProfilingStat::Percentile { z: 2.0 },
            ..ProfilingConfig::default()
        });
        let g = &cat[3];
        let pm = mean_prof.profile_game(&server, g);
        let pc = p5_prof.profile_game(&server, g);
        assert!(pc.solo_fps_at(Resolution::Fhd1080) < pm.solo_fps_at(Resolution::Fhd1080));
    }

    #[test]
    fn partial_profiling_sweeps_only_requested_resources() {
        let (server, cat, prof) = setup();
        let partial =
            prof.profile_game_partial(&server, &cat[2], &[Resource::GpuCore, Resource::Llc]);
        assert_eq!(partial.swept_resources(), 2);
        assert!(partial.curves[Resource::GpuCore.index()].is_some());
        assert!(partial.curves[Resource::CpuCore.index()].is_none());
        assert!(partial.intensity_base[Resource::Llc.index()].is_some());
        assert!(partial.intensity_alt[Resource::MemBw.index()].is_none());
        assert!(partial.solo_base > 0.0 && partial.solo_alt > 0.0);
    }

    #[test]
    fn partial_profile_of_all_resources_matches_full() {
        let (server, cat, prof) = setup();
        let full = prof.profile_game(&server, &cat[1]);
        let partial = prof.profile_game_partial(&server, &cat[1], &ALL_RESOURCES);
        for r in ALL_RESOURCES {
            assert_eq!(
                partial.curves[r.index()].as_ref().unwrap(),
                full.sensitivity_for(r)
            );
        }
    }

    #[test]
    fn profiling_is_deterministic() {
        let (server, cat, prof) = setup();
        let a = prof.profile_game(&server, &cat[5]);
        let b = prof.profile_game(&server, &cat[5]);
        assert_eq!(a.sensitivity, b.sensitivity);
    }
}
