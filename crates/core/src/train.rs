//! Training-data collection (paper Section 3.5 and the setup of Section 4).
//!
//! The paper measures 700 real game colocations — 500 pairs, 100 triples and
//! 100 quads of games drawn at random from the 100-game catalog, each game at
//! a random resolution — and turns a measured colocation of `k` games into
//! `k` training samples (one per member game). 400 colocations form the
//! training pool and 300 the test pool.

use crate::features::{cm_features, rm_features};
use crate::hash::FastMap;
use crate::profile::GameProfile;
use gaugur_gamesim::{GameCatalog, GameId, Resolution, ResourceVec, Server, Workload};
use gaugur_ml::Dataset;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A game placement request: which game, at which resolution.
pub type Placement = (GameId, Resolution);

/// How many colocations of each size to measure.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ColocationPlan {
    /// Number of 2-game colocations (paper: 500).
    pub pairs: usize,
    /// Number of 3-game colocations (paper: 100).
    pub triples: usize,
    /// Number of 4-game colocations (paper: 100).
    pub quads: usize,
    /// Seed for game/resolution sampling.
    pub seed: u64,
}

impl Default for ColocationPlan {
    fn default() -> Self {
        ColocationPlan {
            pairs: 500,
            triples: 100,
            quads: 100,
            seed: 0,
        }
    }
}

/// A measured colocation: members and their observed frame rates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasuredColocation {
    /// The colocated games (distinct) and their resolutions.
    pub members: Vec<Placement>,
    /// Measured FPS per member, same order.
    pub fps: Vec<f64>,
}

impl MeasuredColocation {
    /// Number of colocated games.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

/// Draw the colocation sets of a plan: distinct games per colocation, random
/// resolutions, deterministic in the plan seed. Colocations are distinct as
/// multisets of `(game, resolution)` — duplicates would waste measurement
/// budget and, worse, leak across a later train/test split — so collisions
/// are redrawn (bounded; tiny catalogs that exhaust the space keep the
/// duplicate rather than loop forever).
pub fn plan_colocations(catalog: &GameCatalog, plan: &ColocationPlan) -> Vec<Vec<Placement>> {
    let mut rng = gaugur_gamesim::rng::rng_for(plan.seed, &[0x504c_414e]);
    let resolutions = gaugur_gamesim::game::ALL_RESOLUTIONS;
    let ids: Vec<GameId> = catalog.games().iter().map(|g| g.id).collect();
    let mut out = Vec::with_capacity(plan.pairs + plan.triples + plan.quads);
    let mut seen: HashSet<Vec<(u32, Resolution)>> = HashSet::new();
    for (count, size) in [(plan.pairs, 2), (plan.triples, 3), (plan.quads, 4)] {
        for _ in 0..count {
            let mut attempts = 0;
            loop {
                let mut pool = ids.clone();
                pool.shuffle(&mut rng);
                let members: Vec<Placement> = pool[..size]
                    .iter()
                    .map(|&id| (id, resolutions[rng.gen_range(0..resolutions.len())]))
                    .collect();
                let mut key: Vec<(u32, Resolution)> =
                    members.iter().map(|&(id, res)| (id.0, res)).collect();
                key.sort_unstable_by_key(|&(id, res)| (id, res as u8));
                attempts += 1;
                if seen.insert(key) || attempts > 64 {
                    out.push(members);
                    break;
                }
            }
        }
    }
    out
}

/// Measure a set of colocations on a server, one after another. The
/// simulator is the expensive part of this offline step, as the physical
/// testbed is in the paper.
pub fn measure_colocations(
    server: &Server,
    catalog: &GameCatalog,
    colocations: &[Vec<Placement>],
) -> Vec<MeasuredColocation> {
    colocations
        .iter()
        .map(|members| {
            let workloads: Vec<Workload<'_>> = members
                .iter()
                .map(|&(id, res)| Workload::game(catalog.get(id).expect("id in catalog"), res))
                .collect();
            let out = server.measure_colocation(&workloads);
            let fps = (0..members.len())
                .map(|i| out.game_fps(i).expect("game workload"))
                .collect();
            MeasuredColocation {
                members: members.clone(),
                fps,
            }
        })
        .collect()
}

/// Keyed access to the profiles of a catalog.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProfileStore {
    /// Hashed by [`FastState`](crate::hash::FastState): a cold placement
    /// reads a few hundred profiles.
    profiles: FastMap<GameId, GameProfile>,
}

impl ProfileStore {
    /// Build from a list of profiles.
    pub fn new(profiles: Vec<GameProfile>) -> ProfileStore {
        ProfileStore {
            profiles: profiles.into_iter().map(|p| (p.id, p)).collect(),
        }
    }

    /// The profile of one game.
    pub fn get(&self, id: GameId) -> &GameProfile {
        self.profiles
            .get(&id)
            .unwrap_or_else(|| panic!("no profile for game {id}"))
    }

    /// Whether a game has been profiled.
    pub fn contains(&self, id: GameId) -> bool {
        self.profiles.contains_key(&id)
    }

    /// Number of profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// All profiles sorted by game id — the deterministic iteration order
    /// (the backing map is hashed, so raw iteration order is not stable
    /// across runs; anything feeding seeded numerics must use this).
    pub fn sorted(&self) -> Vec<&GameProfile> {
        let mut out: Vec<&GameProfile> = self.profiles.values().collect();
        out.sort_by_key(|p| p.id.0);
        out
    }

    /// Add (or replace) one game's profile.
    pub fn insert(&mut self, profile: GameProfile) {
        self.profiles.insert(profile.id, profile);
    }

    /// Intensity vectors of a set of placements.
    pub fn intensities(&self, placements: &[Placement]) -> Vec<ResourceVec> {
        placements
            .iter()
            .map(|&(id, res)| self.get(id).intensity_at(res))
            .collect()
    }
}

/// One labelled sample as `(features, target, colocation size)` — the size
/// tag supports the paper's per-size error breakdowns (Figures 7b, 8c).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaggedSample {
    /// Model input features.
    pub features: Vec<f64>,
    /// Regression target (degradation ratio) or class label (0/1).
    pub target: f64,
    /// Number of games in the colocation the sample came from.
    pub coloc_size: usize,
}

/// Turn tagged samples into a plain dataset.
pub fn to_dataset(samples: &[TaggedSample]) -> Dataset {
    Dataset::from_parts(
        samples.iter().map(|s| s.features.clone()).collect(),
        samples.iter().map(|s| s.target).collect(),
    )
}

/// Build RM samples: for each member A of each colocation, features are
/// `(S^A, I_G of the co-runners)` and the target is A's degradation ratio
/// (measured FPS over Eq.-2 solo FPS, as in the paper).
pub fn build_rm_samples(
    profiles: &ProfileStore,
    measured: &[MeasuredColocation],
) -> Vec<TaggedSample> {
    let mut out = Vec::new();
    for m in measured {
        for (i, &(id, res)) in m.members.iter().enumerate() {
            let target_profile = profiles.get(id);
            let corunners: Vec<Placement> = m
                .members
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &p)| p)
                .collect();
            let intensities = profiles.intensities(&corunners);
            let solo = target_profile.solo_fps_at(res);
            let degradation = (m.fps[i] / solo).clamp(0.01, 1.2);
            out.push(TaggedSample {
                features: rm_features(target_profile, &intensities),
                target: degradation,
                coloc_size: m.size(),
            });
        }
    }
    out
}

/// Build CM samples for a set of QoS requirements: the label is whether the
/// member's measured FPS met the requirement.
pub fn build_cm_samples(
    profiles: &ProfileStore,
    measured: &[MeasuredColocation],
    qos_values: &[f64],
) -> Vec<TaggedSample> {
    let mut out = Vec::new();
    for m in measured {
        for (i, &(id, res)) in m.members.iter().enumerate() {
            let target_profile = profiles.get(id);
            let corunners: Vec<Placement> = m
                .members
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &p)| p)
                .collect();
            let intensities = profiles.intensities(&corunners);
            let solo = target_profile.solo_fps_at(res);
            for &q in qos_values {
                out.push(TaggedSample {
                    features: cm_features(q, solo, target_profile, &intensities),
                    target: f64::from(m.fps[i] >= q),
                    coloc_size: m.size(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Profiler, ProfilingConfig};

    fn small_setup() -> (Server, GameCatalog, ProfileStore) {
        let server = Server::reference(21);
        let catalog = GameCatalog::generate(42, 12);
        let profiles = Profiler::new(ProfilingConfig::default()).profile_catalog(&server, &catalog);
        (server, catalog, ProfileStore::new(profiles))
    }

    #[test]
    fn plan_respects_counts_sizes_and_distinctness() {
        let catalog = GameCatalog::generate(42, 12);
        let plan = ColocationPlan {
            pairs: 10,
            triples: 5,
            quads: 3,
            seed: 1,
        };
        let colocs = plan_colocations(&catalog, &plan);
        assert_eq!(colocs.len(), 18);
        assert_eq!(colocs.iter().filter(|c| c.len() == 2).count(), 10);
        assert_eq!(colocs.iter().filter(|c| c.len() == 3).count(), 5);
        assert_eq!(colocs.iter().filter(|c| c.len() == 4).count(), 3);
        for c in &colocs {
            let mut ids: Vec<u32> = c.iter().map(|(id, _)| id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), c.len(), "games within a colocation are distinct");
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let catalog = GameCatalog::generate(42, 12);
        let plan = ColocationPlan {
            pairs: 5,
            triples: 0,
            quads: 0,
            seed: 7,
        };
        assert_eq!(
            plan_colocations(&catalog, &plan),
            plan_colocations(&catalog, &plan)
        );
    }

    #[test]
    fn samples_per_colocation_match_member_count() {
        let (server, catalog, profiles) = small_setup();
        let plan = ColocationPlan {
            pairs: 4,
            triples: 2,
            quads: 1,
            seed: 3,
        };
        let colocs = plan_colocations(&catalog, &plan);
        let measured = measure_colocations(&server, &catalog, &colocs);
        let rm = build_rm_samples(&profiles, &measured);
        // 4·2 + 2·3 + 1·4 = 18 samples.
        assert_eq!(rm.len(), 18);
        let cm = build_cm_samples(&profiles, &measured, &[50.0, 60.0]);
        assert_eq!(cm.len(), 36);
        for s in &rm {
            assert!(s.target > 0.0 && s.target <= 1.2);
            assert!(s.features.iter().all(|v| v.is_finite()));
            assert!((2..=4).contains(&s.coloc_size));
        }
        for s in &cm {
            assert!(s.target == 0.0 || s.target == 1.0);
        }
    }

    #[test]
    fn degradation_targets_reflect_interference() {
        let (server, catalog, profiles) = small_setup();
        // Pair every game with ARK (heavy) — degradations should mostly be
        // well below 1.
        let ark = catalog.by_name("ARK Survival Evolved").unwrap().id;
        let colocs: Vec<Vec<Placement>> = catalog
            .games()
            .iter()
            .filter(|g| g.id != ark)
            .take(5)
            .map(|g| vec![(g.id, Resolution::Fhd1080), (ark, Resolution::Fhd1080)])
            .collect();
        let measured = measure_colocations(&server, &catalog, &colocs);
        let rm = build_rm_samples(&profiles, &measured);
        let mean: f64 = rm.iter().map(|s| s.target).sum::<f64>() / rm.len() as f64;
        assert!(mean < 0.98, "heavy co-runner should degrade games: {mean}");
    }

    #[test]
    fn to_dataset_preserves_order() {
        let samples = vec![
            TaggedSample {
                features: vec![1.0],
                target: 0.5,
                coloc_size: 2,
            },
            TaggedSample {
                features: vec![2.0],
                target: 0.7,
                coloc_size: 3,
            },
        ];
        let d = to_dataset(&samples);
        assert_eq!(d.targets, vec![0.5, 0.7]);
        assert_eq!(d.features[1], vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "no profile")]
    fn missing_profile_panics() {
        let store = ProfileStore::new(vec![]);
        let _ = store.get(GameId(0));
    }
}
