//! The metric names, units, directions and bounds the ledger reports.
//! `BENCHMARK.json` lists the same tables (a self-test compares them).

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "arrivals/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "within_limit_share",
        unit: "share",
        better: "higher",
        bound: 0.02,
    },
    EndToEnd {
        name: "mean_predicted_fps",
        unit: "fps",
        better: "higher",
        bound: 0.03,
    },
    EndToEnd {
        name: "qos_ok_share",
        unit: "share",
        better: "higher",
        bound: 0.03,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `(name, unit, better)` of every per-layer metric that exists on all four
/// workloads, in the order the report prints them.
pub const PER_LAYER: [(&str, &str, &str); 63] = [
    ("wire.encode_request_ns", "ns", "lower"),
    ("wire.decode_request_ns", "ns", "lower"),
    ("wire.encode_response_ns", "ns", "lower"),
    ("wire.decode_response_ns", "ns", "lower"),
    ("wire.request_bytes", "B", "lower"),
    ("wire.response_bytes", "B", "lower"),
    ("wire.allocs_per_frame", "count", "lower"),
    ("queue.push_pop_ns", "ns", "lower"),
    ("queue.handoff_ns", "ns", "lower"),
    ("memo.hit_ns", "ns", "lower"),
    ("memo.miss_ns", "ns", "lower"),
    ("memo.hit_share", "share", "higher"),
    ("memo.lookups_per_place", "count", "lower"),
    ("memo.misses_per_place", "count", "lower"),
    ("memo.entries_end", "count", "lower"),
    ("sched.place_self_ns", "ns", "lower"),
    ("sched.score_hit_share", "share", "higher"),
    ("sched.candidates_per_place", "count", "lower"),
    ("sched.algorithm1_pack_ms", "ms", "lower"),
    ("core.predict_scalar_ns", "ns", "lower"),
    ("core.predict_batch32_ns_per_query", "ns", "lower"),
    ("core.predict_qos_ns", "ns", "lower"),
    ("core.evals_per_place", "count", "lower"),
    ("core.profile_s", "s", "lower"),
    ("core.train_s", "s", "lower"),
    ("cluster.admit_ns", "ns", "lower"),
    ("cluster.depart_ns", "ns", "lower"),
    ("daemon.queue_wait_us", "us", "lower"),
    ("daemon.decode_us", "us", "lower"),
    ("daemon.place_us", "us", "lower"),
    ("daemon.predict_us", "us", "lower"),
    ("daemon.place_admit_wait_us", "us", "lower"),
    ("daemon.encode_us", "us", "lower"),
    ("daemon.write_reply_us", "us", "lower"),
    ("daemon.stage_sum_us", "us", "lower"),
    ("daemon.admit_retries", "count", "lower"),
    ("daemon.admit_fallbacks", "count", "lower"),
    ("daemon.overloaded", "count", "lower"),
    ("client.rtt_mean_us", "us", "lower"),
    ("client.rtt_p50_us", "us", "lower"),
    ("client.rtt_p90_us", "us", "lower"),
    ("client.rtt_p99_us", "us", "lower"),
    ("client.rtt_p_hi_us", "us", "lower"),
    ("client.p_hi", "%", "higher"),
    ("client.rtt_max_us", "us", "lower"),
    ("client.samples", "count", "higher"),
    ("client.rejected_share", "share", "lower"),
    ("client.place_p50_us", "us", "lower"),
    ("client.depart_p50_us", "us", "lower"),
    ("client.unattributed_us", "us", "lower"),
    ("process.cpu_us_per_req", "us", "lower"),
    ("process.user_cpu_us_per_req", "us", "lower"),
    ("process.allocs_per_req", "count", "lower"),
    ("process.alloc_bytes_per_req", "B", "lower"),
    ("process.ctx_switches_per_req", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("host.nproc", "count", "higher"),
    ("host.echo_rtt_p50_us", "us", "lower"),
    ("host.spin_ms", "ms", "lower"),
    ("host.loadavg_1m", "count", "lower"),
    ("verify.frames", "count", "higher"),
    ("verify.mean_predicted_fps", "fps", "higher"),
    ("verify.qos_violation_share", "share", "lower"),
];

/// Per-layer metrics only `mixed_open` has: the other kinds of frame and
/// the three-rate open-loop sweep. They are in the report, not in
/// `BENCHMARK.json`, whose per-layer list must hold on every workload.
pub const MIXED_ONLY: [(&str, &str); 14] = [
    ("client.predict_p50_us", "us"),
    ("client.report_p50_us", "us"),
    ("client.gen_late_p99_us", "us"),
    ("open.r1000.p50_us", "us"),
    ("open.r1000.p99_us", "us"),
    ("open.r1000.within_limit_share", "share"),
    ("open.r2500.p50_us", "us"),
    ("open.r2500.p99_us", "us"),
    ("open.r2500.within_limit_share", "share"),
    ("open.r5000.p50_us", "us"),
    ("open.r5000.p99_us", "us"),
    ("open.r5000.within_limit_share", "share"),
    ("open.max_rate_within_limit_rps", "arrivals/s"),
    ("open.backlog_share_r5000", "share"),
];

pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(MIXED_ONLY)
        .find(|&(n, _)| n == name)
        .map_or("", |(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn names_valid(name: &str, unit: &str) {
        let ok = |c: char, extra: &str| c.is_ascii_alphanumeric() || extra.contains(c);
        assert!(
            name.len() <= 64 && name.chars().all(|c| ok(c, "_.-")),
            "{name}"
        );
        assert!(
            !unit.is_empty() && unit.len() <= 16 && unit.chars().all(|c| ok(c, "_/%.-")),
            "{name}: {unit}"
        );
    }

    #[test]
    fn names_and_units_fit_the_benchmark_schema_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for m in &END_TO_END {
            names_valid(m.name, m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(seen.insert(m.name), "{} twice", m.name);
        }
        for &(name, unit, better) in &PER_LAYER {
            names_valid(name, unit);
            assert!(better == "lower" || better == "higher");
            assert!(seen.insert(name), "{name} twice");
        }
        for &(name, unit) in &MIXED_ONLY {
            names_valid(name, unit);
            assert!(seen.insert(name), "{name} twice");
        }
    }

    /// `BENCHMARK.json` at the repository root must list exactly these
    /// tables and the four workloads.
    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse_value_str(&text).expect("BENCHMARK.json parses");
        let list =
            |key: &str| -> Vec<Value> { doc.get(key).and_then(Value::as_seq).unwrap().to_vec() };
        let s = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (v, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                (s(v, "name"), s(v, "unit"), s(v, "better")),
                (m.name.into(), m.unit.into(), m.better.into())
            );
            assert_eq!(
                v.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (v, &(name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                (s(v, "name"), s(v, "unit"), s(v, "better")),
                (name.into(), unit.into(), better.into())
            );
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::workload::WORKLOADS.len());
        for (v, w) in workloads.iter().zip(&crate::workload::WORKLOADS) {
            assert_eq!(
                (s(v, "name"), s(v, "why")),
                (w.name.to_string(), w.why.to_string())
            );
            assert!(w.why.len() <= 200);
        }
    }
}
