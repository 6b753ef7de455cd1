//! Figure 10: maximizing overall performance on a fixed fleet
//! (Section 5.2).
//!
//! * (a) measured average FPS achieved by each methodology's placement of
//!   5000 requests onto 1500 / 2000 / 2500 / 3000 servers;
//! * (b) the FPS CDF across all games at 2000 servers.
//!
//! Paper anchors: GAugur(RM) wins at every fleet size, by up to 15%; more
//! servers → higher average FPS for everyone.

use crate::context::ExperimentContext;
use crate::figures::fig9::{build_gaugur, SCHED_RESOLUTION};
use crate::table::{f, Table};
use gaugur_baselines::VbpPolicy;
use gaugur_ml::metrics::Cdf;
use gaugur_sched::{
    assign, assign_max_fps, evaluate_cluster, random_requests, FpsModel, Policy, PredictorFps,
};
use serde::Serialize;

/// Fleet sizes swept in Figure 10a.
pub const FLEET_SWEEP: [usize; 4] = [1500, 2000, 2500, 3000];

/// Number of gaming requests placed.
pub const N_REQUESTS: usize = 5000;

/// Structured results for Figure 10.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10 {
    /// `(n_servers, methodology, measured average FPS, unplaced requests)`.
    pub average_fps: Vec<(usize, String, f64, usize)>,
    /// `(methodology, FPS quantiles p10/p25/p50/p75/p90)` at 2000 servers.
    pub cdf_at_2000: Vec<(String, [f64; 5])>,
}

impl Fig10 {
    /// Run the full Figure 10 experiment.
    pub fn run(ctx: &ExperimentContext) -> Fig10 {
        let games = ctx.scheduling_games();
        let requests =
            random_requests(&games, N_REQUESTS, ctx.server.seed ^ 0x9C).as_request_stream(11);

        let gaugur = build_gaugur(ctx);
        let (sigmoid, smite) = crate::figures::common::train_baselines(ctx);
        let vbp = VbpPolicy::from_catalog(&ctx.catalog);
        let worst_fit = Policy::WorstFitVbp(&vbp);

        let rm = PredictorFps::rm(&gaugur);
        let sig = PredictorFps {
            predictor: &sigmoid,
            profiles: &ctx.profiles,
        };
        let smi = PredictorFps {
            predictor: &smite,
            profiles: &ctx.profiles,
        };
        let models: Vec<&dyn FpsModel> = vec![&rm, &sig, &smi];

        let mut average_fps = Vec::new();
        let mut cdf_at_2000 = Vec::new();
        for &n_servers in &FLEET_SWEEP {
            for model in &models {
                let result = assign_max_fps(*model, SCHED_RESOLUTION, &requests, n_servers);
                let eval =
                    evaluate_cluster(&ctx.server, &ctx.catalog, &result.servers, SCHED_RESOLUTION);
                average_fps.push((
                    n_servers,
                    model.model_name().to_string(),
                    eval.average_fps(),
                    result.unplaced,
                ));
                if n_servers == 2000 {
                    cdf_at_2000.push((model.model_name().to_string(), quantiles(&eval.fps_cdf())));
                }
            }
            // VBP worst-fit.
            let result = assign(&worst_fit, SCHED_RESOLUTION, &requests, n_servers);
            let eval =
                evaluate_cluster(&ctx.server, &ctx.catalog, &result.servers, SCHED_RESOLUTION);
            average_fps.push((
                n_servers,
                "VBP".to_string(),
                eval.average_fps(),
                result.unplaced,
            ));
            if n_servers == 2000 {
                cdf_at_2000.push(("VBP".to_string(), quantiles(&eval.fps_cdf())));
            }
        }

        Fig10 {
            average_fps,
            cdf_at_2000,
        }
    }

    /// Measured average FPS of a methodology at a fleet size.
    pub fn avg_fps(&self, n_servers: usize, name: &str) -> f64 {
        self.average_fps
            .iter()
            .find(|(n, m, _, _)| *n == n_servers && m == name)
            .map(|(_, _, fps, _)| *fps)
            .expect("methodology present")
    }

    /// Render both panels as text.
    pub fn report(&self) -> String {
        let mut out = String::from("== Figure 10a: measured average FPS vs fleet size ==\n");
        let mut t = Table::new(["servers", "method", "avg FPS", "unplaced"]);
        for (n, name, fps, unplaced) in &self.average_fps {
            t.row([
                n.to_string(),
                name.clone(),
                f(*fps, 1),
                unplaced.to_string(),
            ]);
        }
        out.push_str(&t.render());

        out.push_str("\n== Figure 10b: FPS distribution at 2000 servers (quantiles) ==\n");
        let mut t = Table::new(["method", "p10", "p25", "p50", "p75", "p90"]);
        for (name, q) in &self.cdf_at_2000 {
            t.row([
                name.clone(),
                f(q[0], 1),
                f(q[1], 1),
                f(q[2], 1),
                f(q[3], 1),
                f(q[4], 1),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}

fn quantiles(cdf: &Cdf) -> [f64; 5] {
    [
        cdf.quantile(0.10),
        cdf.quantile(0.25),
        cdf.quantile(0.50),
        cdf.quantile(0.75),
        cdf.quantile(0.90),
    ]
}
