//! Ground-truth evaluation of final placements.
//!
//! After a methodology has placed every request, the cluster's real
//! performance is what the *simulator* (standing in for the paper's physical
//! testbed) measures for each server's colocation — not what the methodology
//! predicted. Figures 9c and 10a/10b report these measured outcomes.

use gaugur_gamesim::{GameCatalog, GameId, Resolution, Server, Workload};
use gaugur_ml::metrics::Cdf;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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

/// Measured FPS of each member of one server's content set, in member
/// order. `members` must be in ascending id order: ground truth is a
/// property of the set of games on a server, not of the order they arrived
/// in, so every caller measures the same set the same way.
pub fn measure_set(
    server: &Server,
    catalog: &GameCatalog,
    members: &[GameId],
    resolution: Resolution,
) -> Vec<f64> {
    debug_assert!(members.is_sorted(), "content set {members:?} not sorted");
    let ws: Vec<Workload<'_>> = members
        .iter()
        .map(|&id| Workload::game(catalog.get(id).expect("id"), resolution))
        .collect();
    let out = server.measure_colocation(&ws);
    (0..members.len())
        .map(|i| out.game_fps(i).expect("game"))
        .collect()
}

/// Measure every server's colocation and collect per-game outcomes.
///
/// Server contents that repeat (common: the greedy converges to a few good
/// mixes) are measured once and reused — the simulator is deterministic per
/// content set, like re-running the same test on the paper's testbed. The
/// result depends only on the multiset of server contents: contents are
/// counted by their sorted member list, measured through [`measure_set`]
/// and emitted in that key's order.
pub fn evaluate_cluster(
    server: &Server,
    catalog: &GameCatalog,
    placements: &[Vec<GameId>],
    resolution: Resolution,
) -> ClusterEvaluation {
    let mut counts: BTreeMap<Vec<GameId>, usize> = BTreeMap::new();
    for contents in placements.iter().filter(|c| !c.is_empty()) {
        let mut key = contents.clone();
        key.sort_unstable();
        *counts.entry(key).or_default() += 1;
    }

    let mut fps = Vec::new();
    let mut servers_used = 0;
    for (members, &count) in &counts {
        let measured = measure_set(server, catalog, members, resolution);
        for _ in 0..count {
            fps.extend_from_slice(&measured);
        }
        servers_used += count;
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
    fn evaluation_ignores_server_order_and_member_order() {
        let server = Server::reference(9);
        let catalog = GameCatalog::generate(42, 8);
        let ids = |v: &[u32]| v.iter().map(|&i| GameId(i)).collect::<Vec<_>>();
        let placements = vec![
            ids(&[0, 1, 2]),
            ids(&[3, 4]),
            ids(&[5]),
            ids(&[]),
            ids(&[6, 7, 0, 3]),
            ids(&[2, 1, 0]),
        ];
        // The same contents, servers in another order and every server's
        // members shuffled.
        let permuted = vec![
            ids(&[7, 3, 0, 6]),
            ids(&[]),
            ids(&[1, 0, 2]),
            ids(&[5]),
            ids(&[2, 0, 1]),
            ids(&[4, 3]),
        ];
        let a = evaluate_cluster(&server, &catalog, &placements, Resolution::Fhd1080);
        let b = evaluate_cluster(&server, &catalog, &permuted, Resolution::Fhd1080);
        let bits = |e: &ClusterEvaluation| e.fps.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(a.servers_used, b.servers_used);
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
