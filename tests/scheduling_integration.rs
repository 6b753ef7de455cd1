//! Scheduling integration: the full Section 5 loop — judge feasibility,
//! pack requests, place on a fleet, and verify the measured outcome.

mod common;

use common::{fixture, gaugur};
use gaugur::prelude::*;

fn servable_games(n: usize) -> Vec<GameId> {
    let f = fixture();
    f.catalog
        .games()
        .iter()
        .filter(|g| f.profiles.get(g.id).solo_fps_at(Resolution::Fhd1080) > 75.0)
        .take(n)
        .map(|g| g.id)
        .collect()
}

#[test]
fn algorithm1_packing_preserves_qos_on_remeasurement() {
    let f = fixture();
    let g = gaugur();
    let ids = servable_games(6);
    assert!(ids.len() >= 4, "fixture needs enough servable games");
    let table = ColocationTable::measure(&f.server, &f.catalog, &ids, Resolution::Fhd1080, 4);
    let report = FeasibilityReport::build(&table, &GaugurCm(g), 60.0);
    let requests = random_requests(&ids, 300, 5);
    let packed = pack_requests(&table, &report.usable, &requests);

    // Every request is served exactly once.
    let mut served = std::collections::HashMap::new();
    for s in &packed.servers {
        for &game in s {
            *served.entry(game).or_insert(0usize) += 1;
        }
    }
    for id in &ids {
        assert_eq!(served.get(id).copied().unwrap_or(0), requests.get(*id));
    }

    // TP-only packing must hold QoS when the cluster is re-measured (the
    // fixture server is deterministic, so TP sets re-measure identically;
    // fallback singletons are the only permitted violations).
    let eval = evaluate_cluster(&f.server, &f.catalog, &packed.servers, Resolution::Fhd1080);
    let violations = eval.fps.iter().filter(|&&v| v < 60.0).count();
    assert!(
        violations <= packed.fallback_servers,
        "{violations} violations > {} fallbacks",
        packed.fallback_servers
    );
}

#[test]
fn interference_aware_assignment_beats_blind_worst_fit() {
    let f = fixture();
    let g = gaugur();
    let vbp = VbpPolicy::from_catalog(&f.catalog);
    let ids = servable_games(8);
    let stream = random_requests(&ids, 400, 6).as_request_stream(7);

    let smart = assign_max_fps(&PredictorFps::rm(g), Resolution::Fhd1080, &stream, 150);
    let blind = assign(
        &Policy::WorstFitVbp(&vbp),
        Resolution::Fhd1080,
        &stream,
        150,
    );
    let smart_eval = evaluate_cluster(&f.server, &f.catalog, &smart.servers, Resolution::Fhd1080);
    let blind_eval = evaluate_cluster(&f.server, &f.catalog, &blind.servers, Resolution::Fhd1080);

    assert_eq!(smart.unplaced, 0);
    assert_eq!(blind.unplaced, 0);
    assert!(
        smart_eval.average_fps() > blind_eval.average_fps(),
        "GAugur {:.1} should beat VBP {:.1}",
        smart_eval.average_fps(),
        blind_eval.average_fps()
    );
}

/// Section 5.2 in the paper's words, sharing no code with the scheduler:
/// each request goes to the eligible server (below the colocation cap, not
/// already running the game) with the highest `score`, ties to the lowest
/// index, nothing cached. Returns the sorted content multiset.
fn paper_greedy(
    stream: &[GameId],
    n_servers: usize,
    score: impl Fn(&[Placement], Placement) -> f64,
) -> Vec<Vec<GameId>> {
    let mut servers: Vec<Vec<Placement>> = vec![Vec::new(); n_servers];
    for &game in stream {
        let request = (game, Resolution::Fhd1080);
        let mut best: Option<(usize, f64)> = None;
        for (s, members) in servers.iter().enumerate() {
            if members.len() >= 4 || members.iter().any(|&(g, _)| g == game) {
                continue;
            }
            let v = score(members, request);
            if best.is_none_or(|(_, b)| v > b) {
                best = Some((s, v));
            }
        }
        servers[best.expect("the fleet has room").0].push(request);
    }
    content_multiset(servers.iter().map(|m| m.iter().map(|p| p.0).collect()))
}

/// Server contents as a sorted multiset of sorted member lists.
fn content_multiset(servers: impl IntoIterator<Item = Vec<GameId>>) -> Vec<Vec<GameId>> {
    let mut sets: Vec<Vec<GameId>> = servers
        .into_iter()
        .map(|mut s| {
            s.sort();
            s
        })
        .collect();
    sets.sort();
    sets
}

#[test]
fn assignment_is_the_papers_greedy_for_every_policy() {
    use gaugur::sched::FpsModel;
    let f = fixture();
    let rm = PredictorFps::rm(gaugur());
    let vbp = VbpPolicy::from_catalog(&f.catalog);
    let stream = random_requests(&servable_games(8), 200, 6).as_request_stream(7);
    let (res, n) = (Resolution::Fhd1080, 70);

    let fps_sum =
        |m: &[Placement]| -> f64 { (0..m.len()).map(|i| rm.predict_member_fps(m, i)).sum() };
    let gain = |m: &[Placement], request| {
        let extended = [m, &[request]].concat();
        fps_sum(&extended) - fps_sum(m)
    };
    let greedy = paper_greedy(&stream, n, gain);
    for placed in [
        assign(&Policy::MaxPredictedFps(&rm), res, &stream, n),
        assign_max_fps(&rm, res, &stream, n),
    ] {
        assert_eq!(placed.unplaced, 0);
        assert_eq!(content_multiset(placed.servers), greedy);
    }

    let worst_fit = paper_greedy(&stream, n, |m, _| vbp.remaining_capacity(m));
    let placed = assign(&Policy::WorstFitVbp(&vbp), res, &stream, n);
    assert_eq!(placed.unplaced, 0);
    assert_eq!(content_multiset(placed.servers), worst_fit);
}

#[test]
fn colocation_always_beats_dedicated_servers_on_count() {
    let f = fixture();
    let g = gaugur();
    let ids = servable_games(6);
    let table = ColocationTable::measure(&f.server, &f.catalog, &ids, Resolution::Fhd1080, 4);
    let report = FeasibilityReport::build(&table, &GaugurCm(g), 60.0);
    let requests = random_requests(&ids, 300, 8);
    let packed = pack_requests(&table, &report.usable, &requests);
    assert!(
        packed.server_count() < requests.total(),
        "colocation should use fewer than {} servers, used {}",
        requests.total(),
        packed.server_count()
    );
}

#[test]
fn feasibility_reports_are_internally_consistent() {
    let f = fixture();
    let g = gaugur();
    let ids = servable_games(6);
    let table = ColocationTable::measure(&f.server, &f.catalog, &ids, Resolution::Fhd1080, 4);
    for qos in [50.0, 60.0] {
        let report = FeasibilityReport::build(&table, &GaugurCm(g), qos);
        let c = report.confusion;
        assert_eq!(c.total(), table.len());
        assert_eq!(report.predicted_feasible.len(), c.tp + c.fp);
        assert_eq!(report.usable.len(), c.tp);
        // Usable ⊆ predicted-feasible ∩ actually-feasible.
        for &i in &report.usable {
            assert!(report.predicted_feasible.contains(&i));
            assert!(table.actually_feasible(i, qos));
        }
    }
}

#[test]
fn dynamic_stream_interference_aware_policy_is_competitive() {
    use gaugur::sched::{simulate_dynamic, DynamicConfig, Policy};
    let f = fixture();
    let g = gaugur();
    let games = servable_games(8);
    let config = DynamicConfig {
        n_servers: 15,
        arrival_rate: 0.15,
        mean_session_seconds: 400.0,
        duration_seconds: 2000.0,
        qos: 60.0,
        seed: 12,
    };
    let rm = PredictorFps::rm(g);
    let smart = simulate_dynamic(
        &f.server,
        &f.catalog,
        &games,
        Resolution::Fhd1080,
        &Policy::MaxPredictedFps(&rm),
        &config,
    );
    let naive = simulate_dynamic(
        &f.server,
        &f.catalog,
        &games,
        Resolution::Fhd1080,
        &Policy::FirstFit,
        &config,
    );
    assert!(smart.sessions_served > 0);
    // Interference-aware placement must not lose to blind first-fit on the
    // metric it optimizes.
    assert!(
        smart.mean_fps >= naive.mean_fps * 0.98,
        "GAugur {:.1} vs first-fit {:.1}",
        smart.mean_fps,
        naive.mean_fps
    );
}
