//! What a ledger run found, as text for a reader and as JSON for
//! `ledger compare` and the benchmark driver.

use crate::metrics::{self, END_TO_END, MIXED_ONLY, PER_LAYER};
use crate::passes::Layers;
use crate::stats::Summary;
use serde::Value;
use std::fmt::Write as _;

pub struct WorkloadReport {
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// End-to-end metrics measured, by name; empty when that pass did not
    /// run.
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// Per-layer metrics measured, by name; empty when no traced pass ran.
    pub per_layer: Layers,
    /// Frames sent in every pass.
    pub attempted: u64,
    /// Checks that failed; empty means every output was correct.
    pub errors: Vec<String>,
    /// Context a reader wants beside the metrics (whole-window percentiles).
    pub notes: Vec<String>,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    fn failed(&self) -> u64 {
        self.errors.len() as u64
    }

    /// The table a reader sees: every metric by name, with its unit.
    pub fn text(&self) -> String {
        let mut out = format!("== {} ==\n  {}\n", self.name, self.why);
        for (name, s) in &self.end_to_end {
            let unit = metrics::end_to_end(name).map_or("", |m| m.unit);
            let _ = writeln!(
                out,
                "  {name:<28} {:>14.4} {unit:<10} (median {:.4}, q1 {:.4}, q3 {:.4}, min {:.4}, max {:.4}, n {})",
                s.value, s.median, s.q1, s.q3, s.min, s.max, s.n
            );
        }
        let known = PER_LAYER.iter().map(|&(n, _, _)| n);
        for name in known.chain(MIXED_ONLY.iter().map(|&(n, _)| n)) {
            if let Some(v) = self.per_layer.get(name) {
                let _ = writeln!(out, "  {name:<36} {v:>14.4} {}", metrics::layer_unit(name));
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        for e in &self.errors {
            let _ = writeln!(out, "  FAILED: {e}");
        }
        let _ = writeln!(
            out,
            "  checks: {} ({} frames)",
            if self.correct() {
                "all passed"
            } else {
                "FAILED"
            },
            self.attempted
        );
        out
    }

    fn layer_values(&self) -> Value {
        Value::Map(
            self.per_layer
                .iter()
                .map(|(&name, &v)| {
                    let unit = metrics::layer_unit(name);
                    (name.to_string(), metric_value(v, unit))
                })
                .collect(),
        )
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failed() as i64)),
            (
                "errors".into(),
                Value::Seq(self.errors.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "notes".into(),
                Value::Seq(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "end_to_end".into(),
                Value::Map(
                    self.end_to_end
                        .iter()
                        .map(|(name, s)| {
                            let unit = metrics::end_to_end(name).map_or("", |m| m.unit);
                            (name.to_string(), s.to_value(unit))
                        })
                        .collect(),
                ),
            ),
            ("per_layer".into(), self.layer_values()),
        ])
    }

    /// The one-line result the benchmark driver reads: the end-to-end
    /// metrics of an untraced run, or the per-layer metrics of a traced one
    /// (those that exist on every workload).
    pub fn driver_line(&self, traced: bool) -> String {
        let metrics = if traced {
            Value::Map(
                PER_LAYER
                    .iter()
                    .filter_map(|&(name, unit, _)| {
                        let v = *self.per_layer.get(name)?;
                        Some((name.to_string(), metric_value(v, unit)))
                    })
                    .collect(),
            )
        } else {
            Value::Map(
                self.end_to_end
                    .iter()
                    .map(|(name, s)| {
                        let unit = metrics::end_to_end(name).map_or("", |m| m.unit);
                        (name.to_string(), metric_value(s.value, unit))
                    })
                    .collect(),
            )
        };
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Int(self.attempted.max(1) as i64)),
            ("failed".into(), Value::Int(self.failed() as i64)),
            ("metrics".into(), metrics),
        ]);
        serde_json::to_string(&line).expect("a Value tree serializes")
    }
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::Map(vec![
        ("value".into(), Value::Float(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

pub struct RunInfo {
    pub quick: bool,
    pub seed: u64,
    pub seconds: f64,
    pub setup_repeats: usize,
    pub connections: usize,
    pub host: Value,
}

/// One workload's report as JSON: host block, bounds, and the workload's
/// values with medians, quartiles, range and sample count.
pub fn to_json(info: &RunInfo, workload: &WorkloadReport) -> String {
    let bounds = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Map(vec![
                    ("bound".into(), Value::Float(m.bound)),
                    ("better".into(), Value::Str(m.better.into())),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let doc = Value::Map(vec![
        ("ledger".into(), Value::Int(1)),
        ("quick".into(), Value::Bool(info.quick)),
        ("seed".into(), Value::Int(info.seed as i64)),
        ("window_seconds".into(), Value::Float(info.seconds)),
        ("slices".into(), Value::Int(crate::loadgen::SLICES as i64)),
        (
            "setup_repeats".into(),
            Value::Int(info.setup_repeats as i64),
        ),
        ("connections".into(), Value::Int(info.connections as i64)),
        ("host".into(), info.host.clone()),
        ("bounds".into(), Value::Map(bounds)),
        (
            "workloads".into(),
            Value::Map(vec![(workload.name.to_string(), workload.to_value())]),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("a Value tree serializes")
}

/// Add the workloads of `more` to the report `first` (whose host block and
/// run description stand for the whole).
pub fn merge(mut first: Value, more: Value) -> Value {
    let workloads = |doc: Value| match doc {
        Value::Map(entries) => entries.into_iter().find(|(k, _)| k == "workloads"),
        _ => None,
    };
    if let (Value::Map(entries), Some((_, Value::Map(added)))) = (&mut first, workloads(more)) {
        for (key, value) in entries.iter_mut() {
            if let ("workloads", Value::Map(have)) = (key.as_str(), value) {
                have.extend(added);
                break;
            }
        }
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadReport {
        WorkloadReport {
            name: "place_hot",
            why: "repeated keys",
            end_to_end: vec![
                ("setup_s", Summary::of(&[3.1, 3.3, 3.2])),
                ("p50_us", Summary::single(27.5)),
            ],
            per_layer: Layers::from([
                ("wire.encode_request_ns", 812.5),
                ("open.r5000.p99_us", 950.0),
            ]),
            attempted: 1234,
            errors: Vec::new(),
            notes: Vec::new(),
        }
    }

    #[test]
    fn the_driver_line_has_exactly_the_four_keys_and_the_right_metrics() {
        let r = sample();
        let line = serde_json::parse_value_str(&r.driver_line(false)).unwrap();
        let keys: Vec<&str> = line
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(3.2)
        );
        assert_eq!(
            m.get("p50_us").unwrap().get("unit").unwrap().as_str(),
            Some("us")
        );

        // A traced line leaves out what only one workload has.
        let traced = serde_json::parse_value_str(&r.driver_line(true)).unwrap();
        let m = traced.get("metrics").unwrap();
        assert!(m.get("wire.encode_request_ns").is_some());
        assert!(m.get("open.r5000.p99_us").is_none());
        assert!(m.get("p50_us").is_none());
    }

    #[test]
    fn merged_reports_hold_every_workload_under_the_first_header() {
        let info = |seed| RunInfo {
            quick: false,
            seed,
            seconds: 12.0,
            setup_repeats: 3,
            connections: 2,
            host: Value::Map(vec![("nproc".into(), Value::Int(2))]),
        };
        let mut cold = sample();
        cold.name = "place_cold";
        let parse = |text: String| serde_json::parse_value_str(&text).unwrap();
        let merged = merge(
            parse(to_json(&info(1), &sample())),
            parse(to_json(&info(2), &cold)),
        );
        let names: Vec<&str> = merged
            .get("workloads")
            .and_then(Value::as_map)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["place_hot", "place_cold"]);
        assert_eq!(merged.get("seed").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect_everywhere() {
        let mut r = sample();
        r.errors.push("daemon and replay diverge at frame 3".into());
        assert!(r.text().contains("FAILED: daemon and replay diverge"));
        let line = serde_json::parse_value_str(&r.driver_line(false)).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(1.0));
    }
}
