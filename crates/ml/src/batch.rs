//! Batched, allocation-free evaluation of the tree models: the row-matrix
//! view the batch entry points take, and the tests that pin every batched
//! evaluator to its scalar counterpart.
//!
//! The serving hot path scores many feature rows per placement decision
//! (one per candidate server per colocation member). Callers pack those rows
//! into one reusable flat buffer and pass a [`Rows`] view of it; the
//! ensembles answer it through their compiled form (a private `compiled` module),
//! single trees through an interleaved lane walk ([`crate::tree`]). All of
//! it runs on the calling thread.
//!
//! Bit-identity contract: for every evaluator, the batched result of row
//! `i` is exactly `predict(rows.row(i))` bit for bit, because tree
//! contributions are accumulated per row in tree order starting from `0.0`.

/// A borrowed, row-major matrix of feature rows: `len × width` values in
/// one flat slice. This is the zero-copy batch input type — callers pack
/// rows into a reusable `Vec<f64>` and pass a `Rows` view of it.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    data: &'a [f64],
    width: usize,
}

impl<'a> Rows<'a> {
    /// View `data` as rows of `width` features each. `data.len()` must be
    /// a multiple of `width`.
    pub fn new(data: &'a [f64], width: usize) -> Rows<'a> {
        assert!(width > 0, "row width must be positive");
        assert!(
            data.len().is_multiple_of(width),
            "flat data length {} is not a multiple of row width {width}",
            data.len()
        );
        Rows { data, width }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.width
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Features per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// All rows back to back.
    pub(crate) fn flat(&self) -> &'a [f64] {
        self.data
    }

    /// The `i`-th row.
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Iterate over rows in order.
    pub fn iter(&self) -> std::slice::ChunksExact<'a, f64> {
        self.data.chunks_exact(self.width)
    }
}

/// Clear `out` and size it to hold one value per row.
pub(crate) fn reset_out(out: &mut Vec<f64>, n: usize) {
    out.clear();
    out.resize(n, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_view_slices_correctly() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let rows = Rows::new(&data, 3);
        assert_eq!(rows.len(), 2);
        assert!(!rows.is_empty());
        assert_eq!(rows.width(), 3);
        assert_eq!(rows.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(rows.row(1), &[4.0, 5.0, 6.0]);
        let collected: Vec<&[f64]> = rows.iter().collect();
        assert_eq!(collected, vec![&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]);
    }

    #[test]
    fn empty_rows_are_allowed() {
        let rows = Rows::new(&[], 5);
        assert_eq!(rows.len(), 0);
        assert!(rows.is_empty());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_data_panics() {
        let data = [1.0, 2.0, 3.0];
        let _ = Rows::new(&data, 2);
    }
}

#[cfg(test)]
mod bit_identity_tests {
    use super::Rows;
    use crate::data::Dataset;
    use crate::forest::{ForestParams, RandomForestClassifier, RandomForestRegressor};
    use crate::gbdt::{GbdtClassifier, GbdtParams, GbrtRegressor};
    use crate::tree::{DecisionTreeClassifier, DecisionTreeRegressor, TreeParams};
    use crate::{Classifier, Regressor};
    use proptest::prelude::*;

    fn training_sets(ys: &[f64]) -> (Dataset, Dataset) {
        let n = ys.len();
        let features: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, ((i * 7) % 13) as f64])
            .collect();
        let regression = Dataset::from_parts(features.clone(), ys.to_vec());
        let labels: Vec<f64> = ys.iter().map(|&y| f64::from(y > 0.0)).collect();
        let classification = Dataset::from_parts(features, labels);
        (regression, classification)
    }

    fn flat_probes(probes: &[(f64, f64)]) -> Vec<f64> {
        probes.iter().flat_map(|&(a, b)| [a, b]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn batched_regressors_match_scalar_bit_for_bit(
            ys in proptest::collection::vec(-5.0f64..5.0, 16..40),
            probes in proptest::collection::vec((-2.0f64..2.0, -1.0f64..14.0), 1..24),
            seed in 0u64..1000,
        ) {
            let (regression, _) = training_sets(&ys);
            let flat = flat_probes(&probes);
            let rows = Rows::new(&flat, 2);
            let mut out = Vec::new();

            let dtr = DecisionTreeRegressor::fit(
                &regression,
                TreeParams { seed, ..TreeParams::default() },
            );
            dtr.predict_rows(rows, &mut out);
            for (i, &(a, b)) in probes.iter().enumerate() {
                prop_assert_eq!(out[i].to_bits(), dtr.predict(&[a, b]).to_bits());
            }

            let rf = RandomForestRegressor::fit(
                &regression,
                ForestParams { n_trees: 7, seed, ..ForestParams::default() },
            );
            rf.predict_rows(rows, &mut out);
            for (i, &(a, b)) in probes.iter().enumerate() {
                prop_assert_eq!(out[i].to_bits(), rf.predict(&[a, b]).to_bits());
            }

            let gbrt = GbrtRegressor::fit(
                &regression,
                GbdtParams { n_estimators: 12, seed, ..GbdtParams::default() },
            );
            gbrt.predict_rows(rows, &mut out);
            for (i, &(a, b)) in probes.iter().enumerate() {
                prop_assert_eq!(out[i].to_bits(), gbrt.predict(&[a, b]).to_bits());
            }
        }

        #[test]
        fn batched_classifiers_match_scalar_bit_for_bit(
            ys in proptest::collection::vec(-5.0f64..5.0, 16..40),
            probes in proptest::collection::vec((-2.0f64..2.0, -1.0f64..14.0), 1..24),
            seed in 0u64..1000,
        ) {
            let (_, classification) = training_sets(&ys);
            let flat = flat_probes(&probes);
            let rows = Rows::new(&flat, 2);
            let mut out = Vec::new();

            let dtc = DecisionTreeClassifier::fit(
                &classification,
                TreeParams { seed, ..TreeParams::default() },
            );
            dtc.score_rows(rows, &mut out);
            for (i, &(a, b)) in probes.iter().enumerate() {
                prop_assert_eq!(out[i].to_bits(), dtc.score(&[a, b]).to_bits());
            }

            let rfc = RandomForestClassifier::fit(
                &classification,
                ForestParams { n_trees: 7, seed, ..ForestParams::default() },
            );
            rfc.score_rows(rows, &mut out);
            for (i, &(a, b)) in probes.iter().enumerate() {
                prop_assert_eq!(out[i].to_bits(), rfc.score(&[a, b]).to_bits());
            }

            let gbdt = GbdtClassifier::fit(
                &classification,
                GbdtParams { n_estimators: 12, seed, ..GbdtParams::default() },
            );
            gbdt.score_rows(rows, &mut out);
            for (i, &(a, b)) in probes.iter().enumerate() {
                prop_assert_eq!(out[i].to_bits(), gbdt.score(&[a, b]).to_bits());
            }
        }
    }

    #[test]
    fn many_row_batches_match_scalar_bit_for_bit() {
        // Several full row blocks plus a remainder.
        let ys: Vec<f64> = (0..40).map(|i| ((i * 29) % 17) as f64 - 8.0).collect();
        let (regression, _) = training_sets(&ys);
        let probes: Vec<(f64, f64)> = (0..131)
            .map(|i| (i as f64 / 50.0 - 0.5, ((i * 5) % 13) as f64))
            .collect();
        let flat = flat_probes(&probes);
        let rows = Rows::new(&flat, 2);
        let mut out = Vec::new();

        let gbrt = GbrtRegressor::fit(
            &regression,
            GbdtParams {
                n_estimators: 20,
                seed: 7,
                ..GbdtParams::default()
            },
        );
        gbrt.predict_rows(rows, &mut out);
        assert_eq!(out.len(), probes.len());
        for (i, &(a, b)) in probes.iter().enumerate() {
            assert_eq!(out[i].to_bits(), gbrt.predict(&[a, b]).to_bits());
        }

        let dtr = DecisionTreeRegressor::fit(&regression, TreeParams::default());
        dtr.predict_rows(rows, &mut out);
        for (i, &(a, b)) in probes.iter().enumerate() {
            assert_eq!(out[i].to_bits(), dtr.predict(&[a, b]).to_bits());
        }
    }
}
