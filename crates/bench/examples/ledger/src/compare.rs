//! `ledger compare A.json B.json`: is B worse than A by more than a bound?
//!
//! For every workload × end-to-end metric it prints both reported values,
//! how much worse B's is as a share of A's, and the bound. A pair is `ok` when even
//! B's bad quartile against A's good quartile stays within the bound,
//! `BREACH` when even B's good quartile against A's bad quartile exceeds
//! it, and `unresolved` when the quartile ranges straddle the bound: the
//! spread between runs is then wider than the bound can resolve.

use crate::stats::Summary;
use serde::Value;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Breach,
}

/// How much worse `b` is than `a`, as a share of `a`'s value (negative
/// when better), at the reported values and at the two extreme quartile
/// pairings.
fn worsening(a: &Summary, b: &Summary, higher_is_better: bool) -> (f64, f64, f64) {
    let base = a.value.abs().max(f64::MIN_POSITIVE);
    let worse = |from: f64, to: f64| {
        let d = (to - from) / base;
        if higher_is_better {
            -d
        } else {
            d
        }
    };
    let (a_good, a_bad, b_good, b_bad) = if higher_is_better {
        (a.q3, a.q1, b.q3, b.q1)
    } else {
        (a.q1, a.q3, b.q1, b.q3)
    };
    (
        worse(a.value, b.value),
        worse(a_bad, b_good),
        worse(a_good, b_bad),
    )
}

pub fn judge(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (median, optimistic, pessimistic) = worsening(a, b, higher_is_better);
    let verdict = if median <= bound && pessimistic <= bound {
        Verdict::Ok
    } else if median > bound && optimistic > bound {
        Verdict::Breach
    } else {
        Verdict::Unresolved
    };
    (median, verdict)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::parse_value_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("quick") == Some(&Value::Bool(true)) {
        return Err(format!(
            "{path} is a --quick report: numbers not comparable"
        ));
    }
    Ok(doc)
}

/// Compare two reports; `Ok(true)` when no pair breaches its bound.
pub fn run(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = a
        .get("workloads")
        .and_then(Value::as_map)
        .ok_or("A has no workloads")?;
    let mut out = format!(
        "{:<12} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut clean = true;
    for (workload, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            return Err(format!("B has no workload {workload}"));
        };
        for side in [wa, wb] {
            if side.get("correct") != Some(&Value::Bool(true)) {
                return Err(format!(
                    "{workload}: a report with failed checks cannot be compared"
                ));
            }
        }
        let metrics = wa.get("end_to_end").and_then(Value::as_map).unwrap_or(&[]);
        for (metric, va) in metrics {
            let spec = a.get("bounds").and_then(|m| m.get(metric));
            let bound = spec.and_then(|s| s.get("bound")).and_then(Value::as_f64);
            let better = spec.and_then(|s| s.get("better")).and_then(Value::as_str);
            let sb = wb
                .get("end_to_end")
                .and_then(|m| m.get(metric))
                .and_then(Summary::from_value);
            let (Some(bound), Some(better), Some(sa), Some(sb)) =
                (bound, better, Summary::from_value(va), sb)
            else {
                return Err(format!("{workload}/{metric}: missing from one report"));
            };
            let (worse_by, verdict) = judge(&sa, &sb, better == "higher", bound);
            clean &= verdict != Verdict::Breach;
            let _ = writeln!(
                out,
                "{workload:<12} {metric:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {}",
                sa.value,
                sb.value,
                100.0 * worse_by,
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Breach => "BREACH",
                }
            );
        }
    }
    Ok((out, clean))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            value: median,
            median,
            q1,
            q3,
            min: q1,
            max: q3,
            n: 10,
        }
    }

    #[test]
    fn verdicts_follow_the_quartiles() {
        // Lower is better, bound 10 %.
        let a = s(98.0, 100.0, 102.0);
        assert_eq!(
            judge(&a, &s(99.0, 101.0, 103.0), false, 0.10).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &s(118.0, 120.0, 122.0), false, 0.10).1,
            Verdict::Breach
        );
        // Median within the bound, bad quartile beyond it.
        assert_eq!(
            judge(&a, &s(95.0, 108.0, 125.0), false, 0.10).1,
            Verdict::Unresolved
        );
        // Median beyond the bound, but the ranges still overlap it.
        assert_eq!(
            judge(&a, &s(100.0, 112.0, 130.0), false, 0.10).1,
            Verdict::Unresolved
        );
        // An improvement is never a breach.
        let (by, v) = judge(&a, &s(78.0, 80.0, 82.0), false, 0.10);
        assert_eq!(v, Verdict::Ok);
        assert!((by + 0.2).abs() < 1e-12);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let a = s(990.0, 1_000.0, 1_010.0);
        assert_eq!(
            judge(&a, &s(1_090.0, 1_100.0, 1_110.0), true, 0.10).1,
            Verdict::Ok
        );
        let (by, v) = judge(&a, &s(790.0, 800.0, 810.0), true, 0.10);
        assert_eq!(v, Verdict::Breach);
        assert!((by - 0.2).abs() < 1e-12);
    }
}
