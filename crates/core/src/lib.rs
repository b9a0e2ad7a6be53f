//! BoostHD — boosting in hyperdimensional computing (the paper's primary
//! contribution), together with the HDC classifiers it builds on.
//!
//! The crate provides three trainable classifiers over the [`hdc`]
//! substrate:
//!
//! * [`CentroidHd`] — the classic single-pass HDC learner: bundle every
//!   encoded training sample into its class hypervector;
//! * [`OnlineHd`] — the OnlineHD classifier (Hernández-Cano et al., DATE'21)
//!   the paper uses as its strong/weak learner: an initial bundling pass
//!   followed by similarity-weighted iterative refinement;
//! * [`BoostHd`] — the paper's contribution: the `D`-dimensional hyperspace
//!   is partitioned into `n` disjoint sub-spaces of `D/n` dimensions, each
//!   owned by a weak OnlineHD learner, and the learners are trained
//!   sequentially under AdaBoost/SAMME sample re-weighting. Inference is a
//!   learner-weighted vote and parallelizes across queries.
//!
//! Every trained model can additionally be **frozen for deployment** on
//! a two-rung quantization ladder: `quantize_i8()` ([`quantized_i8`]
//! module) stores one scaled signed byte per dimension and scores through
//! the widening integer dot kernel (~4× smaller, cosine-faithful), and
//! `quantize()` ([`quantized`] module) sign-binarizes class hypervectors
//! into bitpacked `u64` words ([`hdc::PackedMatrix`]) scored
//! via XOR + popcount — 32× smaller and several times faster than the
//! f32 cosine path at the paper's `D = 4000`.
//!
//! # Memory × shape
//!
//! Inference is written once ([`frozen`]): a [`ClassMemory`] — f32 rows,
//! int8 [`I8Rows`] or packed sign rows — arranged in a [`Single`] (one
//! memory) or an [`Ensemble`] (`α`-weighted weak learners over segments
//! of one shared encoding). [`CentroidHd`] is `Single<Matrix>`,
//! [`OnlineHd`] and [`BoostHd`] hold a `Single<Matrix>` /
//! `Ensemble<Matrix>`, and quantizing maps the memory: the four quantized
//! models are `Single`/`Ensemble` over `PackedMatrix`/`I8Rows`, and a
//! quantized [`ModelSpec`] names the shape plus a [`Tier`]. A new
//! memory tier is one [`ClassMemory`] impl; [`persist`] tables the BHD1
//! kind of each (shape, memory) pair.
//!
//! All models implement the [`Classifier`] trait (shared with the
//! `baselines` crate). Bit-flip fault injection has one entry point,
//! [`Model::inject_bitflips`]: each class memory lists its stored bits
//! (f32 words, int8 bytes or packed sign rows) and
//! [`faults::flip_stored_bits`] flips them in place.
//!
//! The recommended front door is the **unified facade** ([`pipeline`]):
//! describe any model (HDC or classical baseline) as a serializable
//! [`ModelSpec`], train it with [`Pipeline::fit`], ask for
//! confidence-gated predictions
//! ([`Pipeline::predict_with_confidence`]), and persist it through one
//! versioned envelope ([`Pipeline::save`]/[`Pipeline::load`]) that wraps
//! the per-model codecs in [`persist`].
//!
//! # Quickstart
//!
//! ```
//! use boosthd::{BoostHd, BoostHdConfig, Classifier};
//! use linalg::{Matrix, Rng64};
//!
//! // Toy two-class problem: points around (0,0) vs points around (3,3).
//! let mut rng = Rng64::seed_from(5);
//! let mut rows = Vec::new();
//! let mut labels = Vec::new();
//! for i in 0..120 {
//!     let class = i % 2;
//!     let center = if class == 0 { 0.0 } else { 3.0 };
//!     rows.push(vec![center + 0.3 * rng.normal(), center + 0.3 * rng.normal()]);
//!     labels.push(class);
//! }
//! let x = Matrix::from_rows(&rows)?;
//!
//! let config = BoostHdConfig { dim_total: 512, n_learners: 8, ..BoostHdConfig::default() };
//! let model = BoostHd::fit(&config, &x, &labels)?;
//! let acc = model
//!     .predict_batch(&x)
//!     .iter()
//!     .zip(&labels)
//!     .filter(|(p, y)| p == y)
//!     .count() as f64 / labels.len() as f64;
//! assert!(acc > 0.95);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod boost;
pub mod centroid;
pub mod classifier;
pub mod error;
pub mod fleet;
pub mod frozen;
pub mod online;
pub mod parallel;
pub mod persist;
pub mod pipeline;
pub mod pool;
pub mod quantized;
pub mod quantized_i8;
pub mod spec;
pub mod toml;

pub use boost::{BoostHd, BoostHdConfig, Voting};
pub use centroid::{CentroidHd, CentroidHdConfig};
pub use classifier::{argmax, Classifier};
pub use error::{BoostHdError, Result};
pub use fleet::{Fleet, FleetConfig, FleetModel, ModelStore, StoreEntry};
pub use frozen::{ClassMemory, Ensemble, Single};
pub use online::{OnlineHd, OnlineHdConfig};
pub use pipeline::{Model, Pipeline, Prediction};
pub use quantized::{QuantizedBoostHd, QuantizedHd};
pub use quantized_i8::{I8Rows, QuantizedI8BoostHd, QuantizedI8Hd, QuantizedI8Query};
pub use spec::{BaselineKind, BaselineSpec, ModelSpec, Tier};
