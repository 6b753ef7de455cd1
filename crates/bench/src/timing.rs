//! The one timing primitive behind every `BENCH_*.json` row: run a
//! measurement `n` times in this process and keep its median, quartiles and
//! range. The spread is within one process; telling two builds apart still
//! takes alternated process runs of each.

use std::fmt;

/// Median, quartiles and range of `n` repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The middle value.
    pub median: f64,
    /// The lower quartile.
    pub q1: f64,
    /// The upper quartile.
    pub q3: f64,
    /// The smallest value.
    pub min: f64,
    /// The largest value.
    pub max: f64,
    /// How many values.
    pub n: usize,
}

impl Summary {
    /// Quartiles by the exclusive method of Python's
    /// `statistics.quantiles(values, n=4)`, the rule the performance ledger
    /// summarises its slices by. One value is every statistic at once.
    ///
    /// # Panics
    ///
    /// On an empty slice: nothing was measured.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one value");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quartile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median: quartile(2),
            q1: quartile(1),
            q3: quartile(3),
            min: v[0],
            max: v[n - 1],
            n,
        }
    }
}

/// One JSON object, `{"median": …, "q1": …, "q3": …, "min": …, "max": …,
/// "n": …}`, each statistic printed to the format's precision (`{:.1}`),
/// or in full without one.
impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = f.precision();
        let stat = |x: f64| match p {
            Some(p) => format!("{x:.p$}"),
            None => format!("{x}"),
        };
        write!(
            f,
            "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}",
            stat(self.median),
            stat(self.q1),
            stat(self.q3),
            stat(self.min),
            stat(self.max),
            self.n
        )
    }
}

/// Call `measure` `n` times and summarise what it returned: each call times
/// one round of the work (untimed set-up stays outside its clock) and
/// returns the row's value in the row's unit.
pub fn repeat(n: usize, mut measure: impl FnMut() -> f64) -> Summary {
    let values: Vec<f64> = (0..n).map(|_| measure()).collect();
    Summary::of(&values)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn one_value_is_every_statistic() {
        let s = Summary::of(&[81.5]);
        assert_eq!(
            s,
            Summary {
                median: 81.5,
                q1: 81.5,
                q3: 81.5,
                min: 81.5,
                max: 81.5,
                n: 1
            }
        );
        assert_eq!(
            format!("{s:.1}"),
            "{\"median\": 81.5, \"q1\": 81.5, \"q3\": 81.5, \"min\": 81.5, \"max\": 81.5, \"n\": 1}"
        );
    }

    #[test]
    fn repeat_measures_exactly_n_times() {
        let mut calls = 0;
        let s = repeat(7, || {
            calls += 1;
            f64::from(calls)
        });
        assert_eq!(calls, 7);
        assert_eq!((s.min, s.median, s.max, s.n), (1.0, 4.0, 7.0, 7));
    }
}
