//! The ledger's own arithmetic: percentiles, quartiles and the
//! highest-supported-percentile rule.

use serde::Value;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100); 0 for an
/// empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still has at least ten
/// samples beyond it among `n`; `None` below twenty samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // In whole hundredths of a percent, so that 100 samples support p90.
    [9_999usize, 9_990, 9_900, 9_000, 5_000]
        .into_iter()
        .find(|p| n * (10_000 - p) / 10_000 >= 10)
        .map(|p| p as f64 / 100.0)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median, quartiles, range and count of a set of repeated measurements,
/// and the one value the run reports for them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// What the run reports: the median, unless [`Summary::quiet`] chose
    /// the quartile on the metric's better side.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by the exclusive method of Python's
    /// `statistics.quantiles(values, n=4)`, the rule the benchmark driver
    /// applies to the ten runs, so a slice spread reads on the same scale.
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        let n = v.len();
        if n == 0 {
            return Summary::single(0.0);
        }
        if n == 1 {
            return Summary::single(v[0]);
        }
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            value: quartile(2),
            median: quartile(2),
            q1: quartile(1),
            q3: quartile(3),
            min: v[0],
            max: v[n - 1],
            n,
        }
    }

    /// A quantity measured once: every statistic is the value itself.
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// Report the quiet quartile instead of the median: the upper quartile
    /// of a metric that is better higher, the lower one otherwise. For the
    /// ten slices of a window. Neighbours on a shared host only ever slow a
    /// slice down, so the quartile on the better side moves less between
    /// identical runs than the median does (place_hot throughput: 9.7 %
    /// against 12.3 % between quartiles of ten runs; its p50: 6.3 % against
    /// 12.3 %), while one odd slice still cannot set it.
    pub fn quiet(self, better_higher: bool) -> Summary {
        Summary {
            value: if better_higher { self.q3 } else { self.q1 },
            ..self
        }
    }

    pub fn to_value(self, unit: &str) -> Value {
        Value::Map(vec![
            ("value".into(), Value::Float(self.value)),
            ("median".into(), Value::Float(self.median)),
            ("q1".into(), Value::Float(self.q1)),
            ("q3".into(), Value::Float(self.q3)),
            ("min".into(), Value::Float(self.min)),
            ("max".into(), Value::Float(self.max)),
            ("n".into(), Value::Int(self.n as i64)),
            ("unit".into(), Value::Str(unit.into())),
        ])
    }

    pub fn from_value(v: &Value) -> Option<Summary> {
        let f = |k: &str| v.get(k).and_then(Value::as_f64);
        Some(Summary {
            value: f("value")?,
            median: f("median")?,
            q1: f("q1")?,
            q3: f("q3")?,
            min: f("min")?,
            max: f("max")?,
            n: f("n")? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn highest_supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(600_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn summary_roundtrips_through_json() {
        let s = Summary::of(&[4.0, 8.0, 15.0, 16.0, 23.0, 42.0]).quiet(true);
        assert_eq!(Summary::from_value(&s.to_value("us")), Some(s));
    }

    #[test]
    fn the_quiet_quartile_is_on_the_better_side() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.value, 5.5);
        assert_eq!(s.quiet(true).value, 8.25);
        assert_eq!(s.quiet(false).value, 2.75);
        assert_eq!(Summary::single(3.0).quiet(true).value, 3.0);
    }
}
