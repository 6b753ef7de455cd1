//! Figure 9: minimizing resource usage with QoS guarantees (Section 5.1).
//!
//! * (a) TP / FP / FN / TN of each methodology over the 385 candidate
//!   colocations of 10 games;
//! * (b) accuracy / precision / recall;
//! * (c) servers used by Algorithm 1 to pack 5000 requests, QoS ∈ {60, 50}.
//!
//! Paper anchors: GAugur(CM) precision ≈ 94%, recall ≈ 88%, and a 20–40%
//! server saving over Sigmoid / SMiTe / VBP (up to 60% vs no colocation).

use crate::context::ExperimentContext;
use crate::table::{pct, Table};
use gaugur_baselines::VbpPolicy;
use gaugur_core::{GAugur, GAugurConfig};
use gaugur_gamesim::{GameId, Resolution};
use gaugur_ml::metrics::Confusion;
use gaugur_sched::{
    pack_requests, random_requests, ColocationTable, FeasibilityReport, GaugurCm, PredictorFps,
    VbpJudge,
};
use serde::Serialize;

/// The resolution the Section 5 experiments run at.
pub const SCHED_RESOLUTION: Resolution = Resolution::Fhd1080;

/// Number of gaming requests packed in Figure 9c.
pub const N_REQUESTS: usize = 5000;

/// Structured results for Figure 9.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9 {
    /// The ten selected games.
    pub games: Vec<GameId>,
    /// Per-methodology confusion over the 385 colocations (QoS = 60).
    pub confusions: Vec<(String, Confusion)>,
    /// Usable (TP) colocations per size `[1, 2, 3, 4]` per methodology.
    pub usable_by_size: Vec<(String, [usize; 4])>,
    /// Actually feasible colocations per size `[1, 2, 3, 4]`.
    pub actual_by_size: [usize; 4],
    /// `(qos, methodology, servers used, fallback servers)` — Figure 9c.
    pub servers: Vec<(f64, String, usize, usize)>,
    /// Servers needed with colocation disallowed (= request count).
    pub no_colocation_servers: usize,
}

/// Build the shared GAugur predictor for the Section 5 experiments
/// ("trained as in Section 4").
pub fn build_gaugur(ctx: &ExperimentContext) -> GAugur {
    GAugur::from_measurements(ctx.profiles.clone(), &ctx.train, GAugurConfig::default())
}

impl Fig9 {
    /// Run the full Figure 9 experiment.
    pub fn run(ctx: &ExperimentContext) -> Fig9 {
        let games = ctx.scheduling_games();
        let table =
            ColocationTable::measure(&ctx.server, &ctx.catalog, &games, SCHED_RESOLUTION, 4);

        let gaugur = build_gaugur(ctx);
        let (sigmoid, smite) = crate::figures::common::train_baselines(ctx);
        let vbp = VbpPolicy::from_catalog(&ctx.catalog);

        let cm = GaugurCm(&gaugur);
        let rm = PredictorFps::rm(&gaugur);
        let sig = PredictorFps {
            predictor: &sigmoid,
            profiles: &ctx.profiles,
        };
        let smi = PredictorFps {
            predictor: &smite,
            profiles: &ctx.profiles,
        };
        let vbpj = VbpJudge(&vbp);
        let judges: Vec<&dyn gaugur_sched::FeasibilityModel> = vec![&cm, &rm, &sig, &smi, &vbpj];

        // --- 9a/9b: feasibility judgement quality (QoS = 60) -------------
        let mut confusions = Vec::new();
        let mut usable_by_size = Vec::new();
        let actual60 = table.feasible_indices(60.0);
        let actual_sizes = size_histogram(&table, &actual60);
        for judge in &judges {
            let report = FeasibilityReport::build(&table, *judge, 60.0);
            confusions.push((report.name.clone(), report.confusion));
            usable_by_size.push((report.name.clone(), size_histogram(&table, &report.usable)));
        }

        // --- 9c: Algorithm 1 server counts --------------------------------
        let requests = random_requests(&games, N_REQUESTS, ctx.server.seed ^ 0x9C);
        let mut servers = Vec::new();
        for &qos in &[60.0, 50.0] {
            for judge in &judges {
                let report = FeasibilityReport::build(&table, *judge, qos);
                let packed = pack_requests(&table, &report.usable, &requests);
                servers.push((
                    qos,
                    report.name.clone(),
                    packed.server_count(),
                    packed.fallback_servers,
                ));
            }
            // Oracle: perfect feasibility knowledge (upper bound on what any
            // predictor can enable under the same greedy).
            let oracle = pack_requests(&table, &table.feasible_indices(qos), &requests);
            servers.push((
                qos,
                "Oracle".to_string(),
                oracle.server_count(),
                oracle.fallback_servers,
            ));
        }

        Fig9 {
            games,
            confusions,
            usable_by_size,
            actual_by_size: actual_sizes,
            servers,
            no_colocation_servers: N_REQUESTS,
        }
    }

    /// The confusion matrix of a named methodology.
    pub fn confusion(&self, name: &str) -> Confusion {
        self.confusions
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .expect("methodology present")
    }

    /// Servers used by a named methodology at a QoS level.
    pub fn servers_used(&self, qos: f64, name: &str) -> usize {
        self.servers
            .iter()
            .find(|(q, n, _, _)| *q == qos && n == name)
            .map(|(_, _, s, _)| *s)
            .expect("methodology present")
    }

    /// Render the three panels as text.
    pub fn report(&self) -> String {
        let names: Vec<String> = self.games.iter().map(|id| id.to_string()).collect();
        let mut out = format!(
            "Selected games: {} ({} candidate colocations)\n\n",
            names.join(" "),
            385
        );

        out.push_str("== Figure 9a: TP / FP / FN / TN over 385 colocations (QoS = 60) ==\n");
        let mut t = Table::new(["method", "TP", "FP", "FN", "TN"]);
        for (name, c) in &self.confusions {
            t.row([
                name.clone(),
                c.tp.to_string(),
                c.fp.to_string(),
                c.fn_.to_string(),
                c.tn.to_string(),
            ]);
        }
        out.push_str(&t.render());

        out.push_str("\n== Figure 9b: accuracy / precision / recall (QoS = 60) ==\n");
        let mut t = Table::new(["method", "accuracy", "precision", "recall"]);
        for (name, c) in &self.confusions {
            t.row([
                name.clone(),
                pct(c.accuracy()),
                pct(c.precision()),
                pct(c.recall()),
            ]);
        }
        out.push_str(&t.render());

        out.push_str("\nUsable (true-positive) colocations by size:\n");
        let mut t = Table::new(["method", "1-game", "2-games", "3-games", "4-games"]);
        t.row([
            "actually feasible".to_string(),
            self.actual_by_size[0].to_string(),
            self.actual_by_size[1].to_string(),
            self.actual_by_size[2].to_string(),
            self.actual_by_size[3].to_string(),
        ]);
        for (name, h) in &self.usable_by_size {
            t.row([
                name.clone(),
                h[0].to_string(),
                h[1].to_string(),
                h[2].to_string(),
                h[3].to_string(),
            ]);
        }
        out.push_str(&t.render());

        out.push_str(&format!(
            "\n== Figure 9c: servers used to pack {} requests ==\n",
            N_REQUESTS
        ));
        let mut t = Table::new(["QoS", "method", "servers", "fallback (QoS-risk)"]);
        for (qos, name, servers, fallback) in &self.servers {
            t.row([
                format!("{qos} FPS"),
                name.clone(),
                servers.to_string(),
                fallback.to_string(),
            ]);
        }
        t.row([
            "any".into(),
            "No colocation".into(),
            self.no_colocation_servers.to_string(),
            "0".into(),
        ]);
        out.push_str(&t.render());
        out
    }
}

/// Count colocations of each size (1–4) among `indices`.
fn size_histogram(table: &ColocationTable, indices: &[usize]) -> [usize; 4] {
    let mut h = [0usize; 4];
    for &i in indices {
        let s = table.sets[i].len();
        if (1..=4).contains(&s) {
            h[s - 1] += 1;
        }
    }
    h
}
