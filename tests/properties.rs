//! Cross-crate property tests: invariants that must hold for *any* input,
//! checked with proptest over the fixture's games.

mod common;

use common::{fixture, gaugur};
use gaugur::core::Placement;
use gaugur::prelude::*;
use proptest::prelude::*;

fn res_from(i: u8) -> Resolution {
    match i % 4 {
        0 => Resolution::Hd720,
        1 => Resolution::Hd900,
        2 => Resolution::Fhd1080,
        _ => Resolution::Qhd1440,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Predictions must not depend on the order co-runners are listed in
    /// (the Eq. 5 aggregate is symmetric by construction).
    #[test]
    fn prediction_is_corunner_permutation_invariant(
        target in 0usize..16,
        mut others in proptest::collection::vec((0usize..16, 0u8..4), 1..4),
    ) {
        let f = fixture();
        let g = gaugur();
        others.retain(|(i, _)| *i != target);
        prop_assume!(!others.is_empty());
        let t: Placement = (f.catalog[target].id, Resolution::Fhd1080);
        let fwd: Vec<Placement> = others.iter().map(|&(i, r)| (f.catalog[i].id, res_from(r))).collect();
        let mut rev = fwd.clone();
        rev.reverse();
        prop_assert_eq!(g.predict_degradation(t, &fwd), g.predict_degradation(t, &rev));
        prop_assert_eq!(g.predict_qos(60.0, t, &fwd), g.predict_qos(60.0, t, &rev));
    }

    /// Degradation predictions are always physically valid ratios and FPS
    /// predictions finite and positive.
    #[test]
    fn predictions_are_physically_valid(
        target in 0usize..16,
        others in proptest::collection::vec((0usize..16, 0u8..4), 0..5),
        tres in 0u8..4,
    ) {
        let f = fixture();
        let g = gaugur();
        let t: Placement = (f.catalog[target].id, res_from(tres));
        let os: Vec<Placement> = others
            .iter()
            .filter(|(i, _)| *i != target)
            .map(|&(i, r)| (f.catalog[i].id, res_from(r)))
            .collect();
        let d = g.predict_degradation(t, &os);
        prop_assert!((0.01..=1.05).contains(&d), "degradation {d}");
        let fps = g.predict_fps(t, &os);
        prop_assert!(fps.is_finite() && fps > 0.0);
    }

    /// An impossible QoS bar is never judged satisfiable; a trivial one
    /// never judged unsatisfiable.
    #[test]
    fn qos_extremes_are_respected(
        target in 0usize..16,
        other in 0usize..16,
    ) {
        prop_assume!(target != other);
        let f = fixture();
        let g = gaugur();
        let res = Resolution::Fhd1080;
        let t: Placement = (f.catalog[target].id, res);
        let os = [(f.catalog[other].id, res)];
        prop_assert!(!g.predict_qos(100_000.0, t, &os));
        prop_assert!(g.predict_qos(0.1, t, &os) || g.predict_fps(t, &os) < 0.1);
    }

    /// With a single shard the daemon must reproduce the classic
    /// single-lock placement loop, the serial reference, bit for bit: the
    /// same reply frames (accept/reject stream, server choices,
    /// predicted-FPS bits, departed servers) and the same score-cache
    /// hit/miss counts, for any interleaving of places and departs. This
    /// pins the one admit path at `shards = 1` to the pre-sharding
    /// semantics.
    #[test]
    fn single_shard_daemon_is_bit_identical_to_single_lock_reference(
        ops in proptest::collection::vec((any::<bool>(), 0usize..16, 0u8..4, 0usize..64), 1..40),
    ) {
        use gaugur::serve::{Request, Response};

        let f = fixture();
        let config = DaemonConfig {
            n_servers: 3,
            shards: 1,
            workers: 1,
            qos: 60.0,
            print_stats_on_shutdown: false,
            ..Default::default()
        };
        let mut live: Vec<u64> = Vec::new();
        let next = |step: usize, reply: Option<Response>| {
            live.extend(reply.iter().flat_map(common::admitted).map(|(session, _)| session));
            let &(is_place, gi, ri, pick) = ops.get(step)?;
            Some(if is_place || live.is_empty() {
                Request::Place { game: f.catalog[gi].id, resolution: res_from(ri) }
            } else {
                Request::Depart { session: live.swap_remove(pick % live.len()) }
            })
        };
        let (counts, stats) = common::drive_beside_reference(config, next);
        prop_assert_eq!((stats.score_hits, stats.score_misses), counts[0]);
        prop_assert_eq!(stats.active_sessions, live.len() as u64);
        prop_assert_eq!(stats.shards, 1);
        prop_assert_eq!(stats.place_admit_retries, 0);
        prop_assert_eq!(stats.place_admit_fallbacks, 0);
    }

    /// The simulator degrades (never improves) games under added load, and
    /// measurement is deterministic.
    #[test]
    fn simulator_is_monotone_and_deterministic(
        a in 0usize..16,
        b in 0usize..16,
        c in 0usize..16,
    ) {
        prop_assume!(a != b && b != c && a != c);
        let f = fixture();
        let res = Resolution::Fhd1080;
        let ga = &f.catalog[a];
        let gb = &f.catalog[b];
        let gc = &f.catalog[c];
        let noiseless = Server::noiseless(f.server.seed);
        let solo = noiseless.measure_solo_fps(ga, res);
        let pair = noiseless
            .measure_colocation(&[Workload::game(ga, res), Workload::game(gb, res)])
            .game_fps(0)
            .unwrap();
        let triple = noiseless
            .measure_colocation(&[
                Workload::game(ga, res),
                Workload::game(gb, res),
                Workload::game(gc, res),
            ])
            .game_fps(0)
            .unwrap();
        prop_assert!(pair <= solo + 1e-9, "pair {pair} > solo {solo}");
        prop_assert!(triple <= pair + 1e-9, "triple {triple} > pair {pair}");

        let again = noiseless
            .measure_colocation(&[Workload::game(ga, res), Workload::game(gb, res)])
            .game_fps(0)
            .unwrap();
        prop_assert_eq!(pair, again);
    }
}
