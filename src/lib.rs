//! Umbrella crate for the BoostHD reproduction.
//!
//! Re-exports every subsystem so examples, integration tests, and
//! downstream users can depend on one crate:
//!
//! * [`boosthd`] — the paper's contribution: [`boosthd::BoostHd`] boosted
//!   ensembles over partitioned hyperspaces, plus [`boosthd::OnlineHd`] and
//!   [`boosthd::CentroidHd`];
//! * [`hdc`] — the hyperdimensional computing substrate (encoders, ops,
//!   partitioning, Marchenko–Pastur theory, span utilization);
//! * [`baselines`] — AdaBoost, Random Forest, gradient-boosted trees,
//!   linear SVM, and the dropout MLP, all from scratch;
//! * [`wearables`] — synthetic multimodal physiological datasets with the
//!   paper's preprocessing pipeline and subject-wise splits;
//! * [`reliability`] — the deterministic reliability-campaign engine
//!   ([`reliability::campaign`]) plus the underlying fault primitives
//!   (bit-flip injection, sensor/label noise, imbalance crafting);
//! * [`eval_harness`] — metrics, repeated-run statistics, timing, tables;
//! * [`serve`] — the batched streaming inference engine (micro-batching,
//!   thread fan-out, p50/p95/p99 latency accounting) over the wearables
//!   window stream;
//! * [`linalg`] — the dense linear algebra underneath it all.
//!
//! # Quickstart
//!
//! ```
//! use boosthd_repro::prelude::*;
//!
//! // A small WESAD-like dataset, split by subject, normalized.
//! let profile = DatasetProfile {
//!     subjects: 6,
//!     windows_per_state: 8,
//!     ..wearables::profiles::wesad_like()
//! };
//! let data = wearables::generate(&profile, 7)?;
//! let (train, test) = data.split_by_subject_fraction(0.3, 1)?;
//! let (train, test) = wearables::dataset::normalize_pair(&train, &test)?;
//!
//! // Declare BoostHD as a spec, train through the unified facade, evaluate.
//! let spec = ModelSpec::BoostHd(BoostHdConfig {
//!     dim_total: 1000, n_learners: 10, ..Default::default()
//! });
//! let model = Pipeline::fit(&spec, train.features(), train.labels())?;
//! let preds = model.predict_batch(test.features());
//! let acc = eval_harness::metrics::accuracy(&preds, test.labels());
//! assert!(acc > 0.5);
//!
//! // Confidence-aware prediction for reliability-gated serving.
//! let p = model.predict_with_confidence(test.features().row(0));
//! assert!((0.0..=1.0).contains(&p.confidence));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries regenerating every table and figure of the paper.

#![deny(missing_docs)]

pub use baselines;
pub use boosthd;
pub use boosthd_serve as serve;
pub use eval_harness;
pub use hdc;
pub use linalg;
pub use reliability;
pub use wearables;

/// The most common imports, bundled.
pub mod prelude {
    pub use baselines::{
        AdaBoost, AdaBoostConfig, GradientBoostedTrees, GradientBoostingConfig, LinearSvm,
        LinearSvmConfig, Mlp, MlpConfig, RandomForest, RandomForestConfig,
    };
    pub use boosthd::{
        BaselineKind, BaselineSpec, BoostHd, BoostHdConfig, CentroidHd, CentroidHdConfig,
        Classifier, Model, ModelSpec, OnlineHd, OnlineHdConfig, Pipeline, Prediction,
        QuantizedBoostHd, QuantizedHd, Tier, Voting,
    };
    pub use boosthd_serve::{EngineConfig, InferenceEngine};
    pub use eval_harness;
    pub use hdc::{DimensionPartition, SinusoidEncoder};
    pub use linalg::{Matrix, Rng64};
    pub use wearables::{self, Dataset, DatasetProfile, SubjectGroup};
}
