//! Fixed-fleet performance maximization (the paper's Section 5.2 problem):
//! with a given number of servers, place requests so the average measured
//! frame rate is as high as possible.
//!
//! ```text
//! cargo run --release --example max_performance
//! ```

use gaugur::prelude::*;

fn main() {
    let server = Server::reference(13);
    let catalog = GameCatalog::generate(42, 24);

    println!("building GAugur and the baselines …");
    let config = GAugurConfig {
        plan: ColocationPlan {
            pairs: 150,
            triples: 40,
            quads: 20,
            seed: 4,
        },
        ..GAugurConfig::default()
    };
    let gaugur = GAugur::build(&server, &catalog, config);
    let vbp = VbpPolicy::from_catalog(&catalog);

    let res = Resolution::Fhd1080;
    let ids: Vec<GameId> = catalog.games().iter().take(8).map(|g| g.id).collect();
    let stream = random_requests(&ids, 600, 5).as_request_stream(6);

    for n_servers in [200usize, 300, 400] {
        // Interference-aware greedy (GAugur RM predictions).
        let smart = assign_max_fps(&PredictorFps::rm(&gaugur), res, &stream, n_servers);
        let smart_eval = evaluate_cluster(&server, &catalog, &smart.servers, res);

        // Interference-blind worst-fit (VBP).
        let blind = assign(&Policy::WorstFitVbp(&vbp), res, &stream, n_servers);
        let blind_eval = evaluate_cluster(&server, &catalog, &blind.servers, res);

        println!(
            "{n_servers} servers: GAugur(RM) {:.1} FPS vs VBP worst-fit {:.1} FPS  (+{:.1}%)",
            smart_eval.average_fps(),
            blind_eval.average_fps(),
            (smart_eval.average_fps() / blind_eval.average_fps() - 1.0) * 100.0
        );
    }
}
