//! Feature standardization (zero mean, unit variance), required by the SVM
//! models and harmless for the tree ensembles.

use crate::data::Dataset;
use serde::{Deserialize, Serialize};

/// Per-feature standardizer fitted on a training set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StandardScaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl StandardScaler {
    /// Fit on the columns of a dataset. Constant columns get unit scale so
    /// they pass through unchanged (after centring).
    pub fn fit(data: &Dataset) -> StandardScaler {
        let w = data.width();
        let n = data.len().max(1) as f64;
        let mut mean = vec![0.0; w];
        for x in &data.features {
            for (m, v) in mean.iter_mut().zip(x) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; w];
        for x in &data.features {
            for ((v, s), m) in x.iter().zip(&mut var).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        StandardScaler { mean, std }
    }

    /// Transform one feature vector.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len(), "feature width mismatch");
        x.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// Transform one feature vector into a reusable buffer (cleared first),
    /// without allocating once it has grown (bit-identical to
    /// [`StandardScaler::transform`]).
    pub fn transform_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.mean.len(), "feature width mismatch");
        out.clear();
        out.extend(
            x.iter()
                .zip(self.mean.iter().zip(&self.std))
                .map(|(v, (m, s))| (v - m) / s),
        );
    }

    /// Transform a whole dataset (targets pass through).
    pub fn transform_dataset(&self, data: &Dataset) -> Dataset {
        Dataset::from_parts(
            data.features.iter().map(|x| self.transform(x)).collect(),
            data.targets.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_to_zero_mean_unit_variance() {
        let data = Dataset::from_parts(
            vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]],
            vec![0.0; 3],
        );
        let sc = StandardScaler::fit(&data);
        let t = sc.transform_dataset(&data);
        for col in 0..2 {
            let vals: Vec<f64> = t.features.iter().map(|x| x[col]).collect();
            let mean = vals.iter().sum::<f64>() / 3.0;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_columns_survive() {
        let data = Dataset::from_parts(vec![vec![5.0], vec![5.0]], vec![0.0; 2]);
        let sc = StandardScaler::fit(&data);
        let t = sc.transform(&[5.0]);
        assert_eq!(t, vec![0.0]);
        let t2 = sc.transform(&[7.0]);
        assert_eq!(t2, vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let data = Dataset::from_parts(vec![vec![1.0, 2.0]], vec![0.0]);
        let sc = StandardScaler::fit(&data);
        let _ = sc.transform(&[1.0]);
    }
}
