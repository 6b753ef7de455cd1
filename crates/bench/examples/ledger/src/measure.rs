//! Turning the load generator's samples into the ledger's numbers.

use crate::loadgen::{ConnResult, PhaseResult, SLICES};
use crate::stats::{self, Summary};
use crate::workload::{Kind, Quality};

fn us(ns: u32) -> f64 {
    f64::from(ns) / 1e3
}

/// End-to-end numbers of one measured phase over all connections.
pub struct Window {
    /// Completed arrivals (placed or refused by policy) per second.
    pub throughput_rps: Summary,
    /// Median round trip of a placement frame, µs.
    pub p50_us: Summary,
    /// Placement frames attempted that were answered within the limit.
    pub within_limit_share: Summary,
    pub quality: Quality,
    /// Placement frames attempted: answered plus abandoned.
    pub attempted: u64,
    pub abandoned: u64,
    /// p99 of the open-loop generator's lateness, µs (0 for a closed loop).
    pub gen_late_p99_us: f64,
    /// p50 and p99 of the placement frame over the whole window, µs.
    pub overall_p50_us: f64,
    pub overall_p99_us: f64,
    /// Within-limit share over the whole window.
    pub overall_within: f64,
}

pub fn window(conns: &[ConnResult], phase: usize, limit_us: f64) -> Window {
    let phases: Vec<&PhaseResult> = conns.iter().map(|c| &c.phases[phase]).collect();
    // Timed phases start and end at the same offsets on every connection.
    let slice_ns = phases
        .first()
        .map_or(1, |p| (p.end_ns - p.start_ns) / SLICES as u64)
        .max(1);

    let mut arrivals = [0u64; SLICES];
    let mut lats: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    let mut quality = Quality::default();
    let mut abandoned = 0;
    let mut late = Vec::new();
    for p in &phases {
        quality.add(&p.quality);
        abandoned += p.abandoned;
        late.extend(p.late_ns.iter().map(|&l| us(l)));
        for i in 0..SLICES {
            arrivals[i] += p.arrivals[i];
            lats[i].extend(p.place_ns[i].iter().map(|&ns| us(ns)));
        }
    }

    let slice_secs = slice_ns as f64 / 1e9;
    let mut throughput = Vec::with_capacity(SLICES);
    let mut p50 = Vec::with_capacity(SLICES);
    let mut within = Vec::with_capacity(SLICES);
    let mut all = Vec::new();
    for (i, l) in lats.iter_mut().enumerate() {
        l.sort_by(f64::total_cmp);
        throughput.push(arrivals[i] as f64 / slice_secs);
        p50.push(stats::percentile(l, 50.0));
        // Arrivals the phase abandoned were due at its very end.
        let missed = if i == SLICES - 1 { abandoned } else { 0 };
        let ok = l.partition_point(|&x| x <= limit_us);
        within.push(ok as f64 / (l.len() as u64 + missed).max(1) as f64);
        all.extend_from_slice(l);
    }
    all.sort_by(f64::total_cmp);
    late.sort_by(f64::total_cmp);
    let attempted = all.len() as u64 + abandoned;
    Window {
        throughput_rps: Summary::of(&throughput),
        p50_us: Summary::of(&p50),
        within_limit_share: Summary::of(&within),
        quality,
        attempted,
        abandoned,
        gen_late_p99_us: stats::percentile(&late, 99.0),
        overall_p50_us: stats::percentile(&all, 50.0),
        overall_p99_us: stats::percentile(&all, 99.0),
        overall_within: all.partition_point(|&x| x <= limit_us) as f64 / attempted.max(1) as f64,
    }
}

/// Round-trip distribution of every frame of one phase, over the
/// connections that ran it.
pub struct ClientRtt {
    pub samples: usize,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    /// Highest percentile with at least ten samples beyond it, and its value.
    pub p_hi: f64,
    pub p_hi_us: f64,
    pub max_us: f64,
    /// Frames per second of wall time.
    pub frames_per_s: f64,
}

impl ClientRtt {
    pub fn of(phases: &[&PhaseResult]) -> ClientRtt {
        let all = kind_latencies_us(phases, None);
        let p_hi = stats::highest_supported_percentile(all.len()).unwrap_or(50.0);
        let wall_ns = phases
            .iter()
            .map(|p| p.end_ns - p.start_ns)
            .max()
            .unwrap_or(0)
            .max(1);
        ClientRtt {
            samples: all.len(),
            mean_us: stats::mean(&all),
            p50_us: stats::percentile(&all, 50.0),
            p90_us: stats::percentile(&all, 90.0),
            p99_us: stats::percentile(&all, 99.0),
            p_hi,
            p_hi_us: stats::percentile(&all, p_hi),
            max_us: all.last().copied().unwrap_or(0.0),
            frames_per_s: all.len() as f64 / (wall_ns as f64 / 1e9),
        }
    }
}

/// Ascending latencies (µs) of one kind of frame, or of every frame.
fn kind_latencies_us(phases: &[&PhaseResult], kind: Option<Kind>) -> Vec<f64> {
    let mut v: Vec<f64> = phases
        .iter()
        .flat_map(|p| {
            let places = p.place_ns.iter().flatten().map(|&ns| (Kind::Place, ns));
            places.chain(p.other_ns.iter().copied())
        })
        .filter(|&(k, _)| kind.is_none_or(|wanted| wanted == k))
        .map(|(_, ns)| us(ns))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median round trip of one kind of frame, µs (0 when the phase sent none).
pub fn kind_p50_us(phases: &[&PhaseResult], kind: Kind) -> f64 {
    stats::percentile(&kind_latencies_us(phases, Some(kind)), 50.0)
}

/// Where a round trip's mean time went. `unattributed_us` is what no span
/// and no daemon stage covers: socket buffers, wake-ups, the daemon's read
/// of the frame, telemetry after the reply. Later changes must shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub rtt_mean_us: f64,
    pub client_encode_us: f64,
    pub client_decode_us: f64,
    pub daemon_stage_sum_us: f64,
}

impl Budget {
    pub fn unattributed_us(&self) -> f64 {
        self.rtt_mean_us - self.client_encode_us - self.client_decode_us - self.daemon_stage_sum_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    /// A 1 s phase holding the given `(done_ms, lat_us)` placements.
    fn second_of(places: impl IntoIterator<Item = (u64, u64)>) -> PhaseResult {
        let mut phase = PhaseResult {
            start_ns: 0,
            end_ns: 1_000_000_000,
            ..PhaseResult::default()
        };
        for (done_ms, lat_us) in places {
            phase.record_place(done_ms * 1_000_000, lat_us * 1_000, 1);
        }
        phase
    }

    fn one_connection(phase: PhaseResult) -> [ConnResult; 1] {
        [ConnResult {
            phases: vec![phase],
            ..ConnResult::default()
        }]
    }

    #[test]
    fn a_window_reports_medians_over_ten_slices() {
        // One placement per ms; slice 4 is ten times slower and does a
        // tenth of the work: the medians must not move.
        let mut phase = second_of((0..1_000u64).filter_map(|ms| {
            let noisy = (400..500).contains(&ms);
            (!noisy || ms % 10 == 0).then_some((ms, if noisy { 300 } else { 30 }))
        }));
        // Other kinds of frame never count.
        phase.other_ns.push((Kind::Depart, 9_000_000));
        let w = window(&one_connection(phase), 0, 100.0);
        assert_eq!(w.throughput_rps.median, 1_000.0);
        assert_eq!(w.throughput_rps.min, 100.0);
        assert_eq!(w.throughput_rps.n, SLICES);
        assert_eq!(w.p50_us.median, 30.0);
        assert_eq!(w.p50_us.max, 300.0);
        assert_eq!(w.within_limit_share.median, 1.0);
        assert_eq!(w.within_limit_share.min, 0.0);
        assert_eq!(w.attempted, 910);
    }

    #[test]
    fn a_frame_answered_after_the_phase_closed_lands_in_the_last_slice() {
        let phase = second_of([(5, 20), (999, 20), (1_003, 4_000)]);
        assert_eq!(phase.place_ns[0].len(), 1);
        assert_eq!(phase.place_ns[SLICES - 1].len(), 2);
        assert_eq!(phase.arrivals.iter().sum::<u64>(), 3);
    }

    #[test]
    fn abandoned_arrivals_count_as_attempted_and_as_missing_the_limit() {
        let mut phase = second_of((0..1_000).map(|ms| (ms, 20)));
        phase.abandoned = 100;
        phase.late_ns = vec![5_000; 1_000];
        let w = window(&one_connection(phase), 0, 100.0);
        assert_eq!(w.attempted, 1_100);
        assert_eq!(w.within_limit_share.min, 0.5);
        assert!((w.overall_within - 1_000.0 / 1_100.0).abs() < 1e-12);
        assert_eq!(w.gen_late_p99_us, 5.0);
    }

    #[test]
    fn the_budget_parts_and_the_unattributed_line_add_up_to_the_round_trip() {
        let b = Budget {
            rtt_mean_us: 27.31,
            client_encode_us: 1.07,
            client_decode_us: 1.42,
            daemon_stage_sum_us: 9.5,
        };
        let parts = b.client_encode_us + b.client_decode_us + b.daemon_stage_sum_us;
        assert!((parts + b.unattributed_us() - b.rtt_mean_us).abs() < 1e-9);
        assert!(b.unattributed_us() > 15.0);
    }

    #[test]
    fn client_rtt_reports_the_highest_supported_percentile() {
        let mut phase = second_of((1..=999).map(|i| (i, i)));
        phase.other_ns.push((Kind::Depart, 1_000_000));
        let c = ClientRtt::of(&[&phase]);
        assert_eq!(c.samples, 1_000);
        assert_eq!((c.p50_us, c.p90_us, c.p99_us), (500.0, 900.0, 990.0));
        assert_eq!((c.p_hi, c.p_hi_us, c.max_us), (99.0, 990.0, 1_000.0));
        assert_eq!(c.frames_per_s, 1_000.0);
        assert_eq!(kind_p50_us(&[&phase], Kind::Depart), 1_000.0);
        assert_eq!(kind_p50_us(&[&phase], Kind::Predict), 0.0);
    }
}
