//! Ground-truth evaluation of final placements.
//!
//! After a methodology has placed every request, the cluster's real
//! performance is what the *simulator* (standing in for the paper's physical
//! testbed) measures for each server's colocation — not what the methodology
//! predicted. Figures 9c and 10a/10b report these measured outcomes.

use gaugur_gamesim::{GameCatalog, GameId, Resolution, Server, Workload};
use gaugur_ml::metrics::Cdf;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Measured cluster-wide outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterEvaluation {
    /// Measured FPS of every placed game across all servers.
    pub fps: Vec<f64>,
    /// Number of non-empty servers.
    pub servers_used: usize,
}

impl ClusterEvaluation {
    /// Mean FPS over all placed games.
    pub fn average_fps(&self) -> f64 {
        if self.fps.is_empty() {
            return 0.0;
        }
        self.fps.iter().sum::<f64>() / self.fps.len() as f64
    }

    /// Fraction of games at or above `qos` FPS.
    pub fn qos_satisfaction(&self, qos: f64) -> f64 {
        if self.fps.is_empty() {
            return 1.0;
        }
        self.fps.iter().filter(|&&f| f >= qos).count() as f64 / self.fps.len() as f64
    }

    /// The FPS distribution as a CDF (Figure 10b).
    pub fn fps_cdf(&self) -> Cdf {
        Cdf::new(self.fps.clone())
    }
}

/// Measure every server's colocation and collect per-game outcomes.
///
/// Server contents that repeat (common: the greedy converges to a few good
/// mixes) are measured once and reused — the simulator is deterministic per
/// content set, like re-running the same test on the paper's testbed.
pub fn evaluate_cluster(
    server: &Server,
    catalog: &GameCatalog,
    placements: &[Vec<GameId>],
    resolution: Resolution,
) -> ClusterEvaluation {
    // Deduplicate contents.
    let mut unique: Vec<Vec<GameId>> = Vec::new();
    let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut counts: Vec<usize> = Vec::new();
    for contents in placements {
        if contents.is_empty() {
            continue;
        }
        let mut key: Vec<u32> = contents.iter().map(|g| g.0).collect();
        key.sort_unstable();
        match index.get(&key) {
            Some(&i) => counts[i] += 1,
            None => {
                index.insert(key, unique.len());
                unique.push(contents.clone());
                counts.push(1);
            }
        }
    }

    let measured: Vec<Vec<f64>> = unique
        .iter()
        .map(|contents| {
            let ws: Vec<Workload<'_>> = contents
                .iter()
                .map(|&id| Workload::game(catalog.get(id).expect("id"), resolution))
                .collect();
            let out = server.measure_colocation(&ws);
            (0..contents.len())
                .map(|i| out.game_fps(i).expect("game"))
                .collect()
        })
        .collect();

    let mut fps = Vec::new();
    let mut servers_used = 0;
    for (i, per_member) in measured.iter().enumerate() {
        for _ in 0..counts[i] {
            fps.extend_from_slice(per_member);
            servers_used += 1;
        }
    }

    ClusterEvaluation { fps, servers_used }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_counts_games_and_servers() {
        let server = Server::reference(9);
        let catalog = GameCatalog::generate(42, 6);
        let placements = vec![
            vec![GameId(0), GameId(1)],
            vec![GameId(2)],
            vec![],
            vec![GameId(0), GameId(1)], // duplicate content
        ];
        let eval = evaluate_cluster(&server, &catalog, &placements, Resolution::Fhd1080);
        assert_eq!(eval.servers_used, 3);
        assert_eq!(eval.fps.len(), 5);
        assert!(eval.average_fps() > 0.0);
        assert!(eval.qos_satisfaction(0.0) == 1.0);
        assert!(eval.qos_satisfaction(1e9) == 0.0);
        assert_eq!(eval.fps_cdf().len(), 5);
    }

    #[test]
    fn duplicate_contents_measure_identically() {
        let server = Server::reference(9);
        let catalog = GameCatalog::generate(42, 4);
        let placements = vec![vec![GameId(0), GameId(1)], vec![GameId(0), GameId(1)]];
        let eval = evaluate_cluster(&server, &catalog, &placements, Resolution::Fhd1080);
        assert_eq!(eval.fps[0], eval.fps[2]);
        assert_eq!(eval.fps[1], eval.fps[3]);
    }

    #[test]
    fn empty_cluster_is_well_defined() {
        let server = Server::reference(9);
        let catalog = GameCatalog::generate(42, 2);
        let eval = evaluate_cluster(&server, &catalog, &[], Resolution::Fhd1080);
        assert_eq!(eval.servers_used, 0);
        assert_eq!(eval.average_fps(), 0.0);
        assert_eq!(eval.qos_satisfaction(60.0), 1.0);
    }
}
