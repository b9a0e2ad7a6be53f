//! From-scratch classical ML baselines for the BoostHD evaluation.
//!
//! The paper compares BoostHD against six baselines (Table I): AdaBoost,
//! Random Forest, XGBoost, a linear SVM, a DNN, and OnlineHD. OnlineHD lives
//! in the `boosthd` crate; the remaining five are implemented here, from
//! scratch, with the hyperparameters the paper states in Section IV:
//!
//! | Model | Here | Paper setup |
//! |---|---|---|
//! | AdaBoost | [`AdaBoost`] | learning rate 1.0, 10 estimators |
//! | Random Forest | [`RandomForest`] | bootstrap enabled, 10 estimators |
//! | XGBoost | [`GradientBoostedTrees`] | 10 estimators (second-order softmax objective, gain splits, shrinkage) |
//! | SVM | [`LinearSvm`] | linear kernel (Pegasos SGD, one-vs-rest) |
//! | DNN | [`Mlp`] | conv-free MLP, linear layers `[2048, 1024, 512, classes]`, ReLU, dropout, lr 0.001 |
//!
//! All models implement [`boosthd::Classifier`], so the benchmark harness
//! sweeps them interchangeably with the HDC family, and the differentiable
//! ones ([`Mlp`], [`LinearSvm`]) list their weight and bias buffers to
//! [`boosthd::pipeline::Model::inject_bitflips`] for the bit-flip
//! robustness experiment (Figure 8).
//!
//! # Example
//!
//! ```
//! use baselines::{RandomForest, RandomForestConfig};
//! use boosthd::Classifier;
//! use linalg::Matrix;
//!
//! let x = Matrix::from_rows(&[
//!     vec![0.0, 0.0], vec![0.2, 0.1], vec![0.1, 0.3],
//!     vec![1.0, 1.0], vec![0.9, 1.1], vec![1.2, 0.8],
//! ])?;
//! let y = vec![0, 0, 0, 1, 1, 1];
//! let rf = RandomForest::fit(&RandomForestConfig::default(), &x, &y)?;
//! assert_eq!(rf.predict(&[0.1, 0.1]), 0);
//! assert_eq!(rf.predict(&[1.0, 0.9]), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod adaboost;
pub mod error;
pub mod forest;
pub mod gbt;
pub mod mlp;
pub mod spec;
pub mod svm;
pub mod tree;

pub use adaboost::{AdaBoost, AdaBoostConfig};
pub use error::{BaselineError, Result};
pub use forest::{RandomForest, RandomForestConfig};
pub use gbt::{GradientBoostedTrees, GradientBoostingConfig};
pub use mlp::{Mlp, MlpConfig};
pub use svm::{LinearSvm, LinearSvmConfig};
pub use tree::{DecisionTree, DecisionTreeConfig, FeatureSubset};
