//! # gaugur-ml — from-scratch machine learning for the GAugur reproduction
//!
//! The paper builds its interference models with "several popular machine
//! learning algorithms, including Decision Tree Classifier/Regression
//! (DTC/DTR), Random Forest (RF), Gradient Boost Decision/Regression Tree
//! (GBDT/GBRT) and Support Vector Clustering/Regression (SVC/SVR)"
//! (Section 3.4). No maintained pure-Rust equivalent of that stack is
//! available in the sanctioned offline dependency set, so this crate
//! implements all of them from first principles:
//!
//! * [`tree`] — CART decision trees (Gini classification, variance-reduction
//!   regression),
//! * [`forest`] — bagged random forests with per-split feature subsampling,
//! * [`gbdt`] — gradient-boosted trees (squared loss for regression,
//!   logistic loss for binary classification),
//! * [`svm`] — kernel SVC (SMO) and ε-SVR (pairwise dual coordinate
//!   descent), with RBF and linear kernels,
//! * [`splits`] — a boosted ensemble in feature-major leaf-bitvector form,
//!   for rows that share most of their features; every other prediction
//!   walks each tree's nodes,
//! * [`linear`] — ordinary/ridge least squares via normal equations,
//! * [`mf`] — ALS low-rank matrix completion (for collaborative-filtering
//!   profile completion),
//! * [`curvefit`] — the 3-parameter sigmoid fit used by the Sigmoid baseline,
//! * [`data`], [`scale`], [`metrics`] — datasets, standardization and the
//!   evaluation metrics the paper reports (relative error, accuracy,
//!   precision, recall, error CDFs).
//!
//! Everything is deterministic given explicit seeds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod curvefit;
pub mod data;
pub mod forest;
pub mod gbdt;
pub mod gridsearch;
pub mod linear;
pub mod metrics;
pub mod mf;
pub mod scale;
pub mod splits;
pub mod svm;
pub mod tree;

pub use data::Dataset;
pub use forest::{RandomForestClassifier, RandomForestRegressor};
pub use gbdt::{GbdtClassifier, GbrtRegressor};
pub use gridsearch::{cross_val_error, grid_search};
pub use linear::LinearRegression;
pub use mf::{MatrixFactorization, MfParams};
pub use scale::StandardScaler;
pub use splits::SplitTable;
pub use svm::{Kernel, SvmClassifier, SvmRegressor};
pub use tree::{DecisionTreeClassifier, DecisionTreeRegressor, TreeParams};

/// A trained regression model: maps a feature vector to a real value.
pub trait Regressor: Send + Sync {
    /// Predict the target for one feature vector.
    fn predict(&self, x: &[f64]) -> f64;
}

/// A trained binary classifier: maps a feature vector to a boolean decision
/// plus a real-valued score (probability-like, higher = more positive).
pub trait Classifier: Send + Sync {
    /// Score in favour of the positive class (0.5 is the decision threshold
    /// where meaningful).
    fn score(&self, x: &[f64]) -> f64;

    /// Hard decision.
    fn classify(&self, x: &[f64]) -> bool {
        self.score(x) >= 0.5
    }
}
