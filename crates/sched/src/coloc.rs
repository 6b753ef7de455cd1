//! Colocation enumeration and ground-truth measurement (Section 5.1 setup).
//!
//! "To give a complete verification, we consider a small problem size with
//! 10 (randomly selected) games. We only consider the game colocations
//! containing less than five games (there are 385 such colocations for 10
//! games)." — `C(10,1) + C(10,2) + C(10,3) + C(10,4) = 385`.

use crate::FeasibilityModel;
use gaugur_core::Placement;
use gaugur_gamesim::{GameCatalog, GameId, Resolution, Server, Workload};
use gaugur_ml::metrics::Confusion;
use serde::{Deserialize, Serialize};

/// All subsets of `ids` with between 1 and `max_size` members, in
/// lexicographic order of indices.
pub fn enumerate_subsets(ids: &[GameId], max_size: usize) -> Vec<Vec<GameId>> {
    let mut out = Vec::new();
    let n = ids.len();
    // Iterative subset enumeration by size, to keep ordering predictable.
    fn rec(
        ids: &[GameId],
        start: usize,
        current: &mut Vec<GameId>,
        size: usize,
        out: &mut Vec<Vec<GameId>>,
    ) {
        if current.len() == size {
            out.push(current.clone());
            return;
        }
        for i in start..ids.len() {
            current.push(ids[i]);
            rec(ids, i + 1, current, size, out);
            current.pop();
        }
    }
    for size in 1..=max_size.min(n) {
        rec(ids, 0, &mut Vec::new(), size, &mut out);
    }
    out
}

/// Measured ground truth for every candidate colocation at one resolution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColocationTable {
    /// The resolution every game runs at.
    pub resolution: Resolution,
    /// The candidate colocations (each a sorted list of distinct games).
    pub sets: Vec<Vec<GameId>>,
    /// Measured FPS per member, parallel to `sets`.
    pub actual_fps: Vec<Vec<f64>>,
}

impl ColocationTable {
    /// Measure every ≤`max_size` subset of `ids` on the server.
    pub fn measure(
        server: &Server,
        catalog: &GameCatalog,
        ids: &[GameId],
        resolution: Resolution,
        max_size: usize,
    ) -> ColocationTable {
        let sets = enumerate_subsets(ids, max_size);
        let actual_fps: Vec<Vec<f64>> = sets
            .iter()
            .map(|set| {
                let ws: Vec<Workload<'_>> = set
                    .iter()
                    .map(|&id| Workload::game(catalog.get(id).expect("id"), resolution))
                    .collect();
                let out = server.measure_colocation(&ws);
                (0..set.len())
                    .map(|i| out.game_fps(i).expect("game"))
                    .collect()
            })
            .collect();
        ColocationTable {
            resolution,
            sets,
            actual_fps,
        }
    }

    /// Number of candidate colocations.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The members of set `i` as placements.
    pub fn placements(&self, i: usize) -> Vec<Placement> {
        self.sets[i]
            .iter()
            .map(|&id| (id, self.resolution))
            .collect()
    }

    /// Whether set `i` actually satisfies `qos` for every member.
    pub fn actually_feasible(&self, i: usize, qos: f64) -> bool {
        self.actual_fps[i].iter().all(|&f| f >= qos)
    }

    /// Indices of the sets that are actually feasible under `qos`.
    pub fn feasible_indices(&self, qos: f64) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.actually_feasible(i, qos))
            .collect()
    }
}

/// A methodology's feasibility judgements against ground truth (Figure 9a/b).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeasibilityReport {
    /// Methodology name.
    pub name: String,
    /// Confusion matrix over all candidate colocations.
    pub confusion: Confusion,
    /// Indices of colocations the methodology judged feasible.
    pub predicted_feasible: Vec<usize>,
    /// Indices judged feasible that are also actually feasible (the TP sets,
    /// the only ones Algorithm 1 may use — "using the false positives is not
    /// meaningful").
    pub usable: Vec<usize>,
}

impl FeasibilityReport {
    /// Judge every colocation in the table with a methodology.
    pub fn build(
        table: &ColocationTable,
        judge: &dyn FeasibilityModel,
        qos: f64,
    ) -> FeasibilityReport {
        let mut confusion = Confusion::default();
        let mut predicted_feasible = Vec::new();
        let mut usable = Vec::new();
        for i in 0..table.len() {
            let members = table.placements(i);
            let predicted = judge.feasible(qos, &members);
            let actual = table.actually_feasible(i, qos);
            match (actual, predicted) {
                (true, true) => confusion.tp += 1,
                (false, true) => confusion.fp += 1,
                (true, false) => confusion.fn_ += 1,
                (false, false) => confusion.tn += 1,
            }
            if predicted {
                predicted_feasible.push(i);
                if actual {
                    usable.push(i);
                }
            }
        }
        FeasibilityReport {
            name: judge.judge_name().to_string(),
            confusion,
            predicted_feasible,
            usable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugur_gamesim::Resolution;

    #[test]
    fn subset_count_matches_the_paper() {
        let ids: Vec<GameId> = (0..10).map(GameId).collect();
        let subsets = enumerate_subsets(&ids, 4);
        // C(10,1)+C(10,2)+C(10,3)+C(10,4) = 10+45+120+210.
        assert_eq!(subsets.len(), 385);
        assert_eq!(subsets.iter().filter(|s| s.len() == 1).count(), 10);
        assert_eq!(subsets.iter().filter(|s| s.len() == 4).count(), 210);
        // Members are distinct and sorted.
        for s in &subsets {
            for w in s.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn subsets_cap_at_population() {
        let ids: Vec<GameId> = (0..3).map(GameId).collect();
        let subsets = enumerate_subsets(&ids, 5);
        assert_eq!(subsets.len(), 7); // 3 + 3 + 1
    }

    #[test]
    fn table_measures_every_set() {
        let server = Server::reference(3);
        let catalog = GameCatalog::generate(42, 6);
        let ids: Vec<GameId> = catalog.games().iter().map(|g| g.id).collect();
        let table = ColocationTable::measure(&server, &catalog, &ids, Resolution::Fhd1080, 3);
        assert_eq!(table.len(), 6 + 15 + 20);
        for (set, fps) in table.sets.iter().zip(&table.actual_fps) {
            assert_eq!(set.len(), fps.len());
            assert!(fps.iter().all(|&f| f > 0.0));
        }
        // Singletons are (almost) solo FPS; 4-sets are slower per member.
        let single_mean: f64 = (0..6).map(|i| table.actual_fps[i][0]).sum::<f64>() / 6.0;
        let triple_mean: f64 = table
            .sets
            .iter()
            .zip(&table.actual_fps)
            .filter(|(s, _)| s.len() == 3)
            .flat_map(|(_, f)| f.iter().copied())
            .sum::<f64>()
            / 60.0;
        assert!(triple_mean < single_mean);
    }

    #[test]
    fn feasibility_indices_respect_qos_monotonicity() {
        let server = Server::reference(3);
        let catalog = GameCatalog::generate(42, 5);
        let ids: Vec<GameId> = catalog.games().iter().map(|g| g.id).collect();
        let table = ColocationTable::measure(&server, &catalog, &ids, Resolution::Fhd1080, 3);
        let at40 = table.feasible_indices(40.0).len();
        let at60 = table.feasible_indices(60.0).len();
        let at90 = table.feasible_indices(90.0).len();
        assert!(at40 >= at60);
        assert!(at60 >= at90);
    }
}
