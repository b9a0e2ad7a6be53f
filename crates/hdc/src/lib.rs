//! Hyperdimensional computing (HDC) substrate for the BoostHD reproduction.
//!
//! HDC encodes inputs as *hypervectors* — points in a `D`-dimensional space
//! with `D` in the thousands — and learns one *class hypervector* per label
//! by bundling (summing) encoded samples. Inference compares a query
//! hypervector against each class hypervector with cosine similarity.
//!
//! This crate provides the substrate the classifiers in the `boosthd` crate
//! are built on:
//!
//! * [`ops`] — bundling, cosine similarity, bipolar quantization, plus the
//!   packed sign-bit primitives (sign packing, XOR + popcount similarity);
//! * [`backend`] — the 1-bit hypervector storage: [`PackedHv`] (one sign
//!   bit per dimension in `u64` words) and [`PackedMatrix`] (a row-major
//!   stack of them with batch popcount scoring), which the 1-bit class
//!   memories in `boosthd` hold;
//! * [`encoder`] — the nonlinear random-projection encoder
//!   `φ(x) = cos(P·x + b) ⊙ sin(P·x)` the paper uses (`P ~ N(0,1)`,
//!   `b ~ U[0, 2π)`);
//! * [`partition`] — splitting the `D`-dimensional space into `n` disjoint
//!   sub-spaces of `D/n` dimensions each, the core structural move of
//!   BoostHD;
//! * [`theory`] — Marchenko–Pastur spectral analysis of Gaussian kernels
//!   (the paper's Equations 2–7 and Figure 2);
//! * [`span`] — span utilization `SP = (rank(K)/D) / Π πᵢ` (Figure 5).
//!
//! # Example
//!
//! ```
//! use hdc::encoder::{Encode, SinusoidEncoder};
//! use linalg::Rng64;
//!
//! let mut rng = Rng64::seed_from(1);
//! let enc = SinusoidEncoder::new(256, 6, &mut rng); // D = 256, 6 features
//! let hv = enc.encode_row(&[0.1, -0.3, 0.7, 0.0, 1.0, -1.0]);
//! assert_eq!(hv.len(), 256);
//! ```

#![deny(missing_docs)]

pub mod backend;
pub mod encoder;
pub mod error;
pub mod ops;
pub mod partition;
pub mod span;
pub mod theory;

pub use backend::{PackedHv, PackedMatrix};
pub use encoder::{Encode, SinusoidEncoder};
pub use error::{HdcError, Result};
pub use partition::DimensionPartition;
pub use span::{span_utilization, SpanUtilization};
