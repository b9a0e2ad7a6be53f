//! Minimal dense linear algebra substrate for the BoostHD reproduction.
//!
//! The BoostHD paper leans on three numerical building blocks:
//!
//! * dense matrix products for hyperdimensional encoding (`X · Pᵀ`),
//! * spectral analysis (singular values of encoded kernels, numerical rank)
//!   backing the Marchenko–Pastur span-utilization argument, and
//! * deterministic Gaussian sampling (`N(0, 1)` projection matrices).
//!
//! Everything is implemented from scratch on row-major `f32` storage: a
//! blocked matrix multiply, a cyclic Jacobi eigensolver for symmetric
//! matrices, singular values via the Gram matrix, and Box–Muller normal
//! sampling on top of [`rand`].
//!
//! # Example
//!
//! ```
//! use linalg::{Matrix, Rng64};
//!
//! let mut rng = Rng64::seed_from(42);
//! let p = Matrix::random_normal(64, 8, &mut rng); // 64-dim projection of 8 features
//! let x = Matrix::random_normal(10, 8, &mut rng); // 10 samples
//! let encoded = x.matmul_transposed(&p);          // 10 × 64
//! assert_eq!((encoded.rows(), encoded.cols()), (10, 64));
//! ```

#![deny(missing_docs)]

pub mod autotune;
pub mod eig;
pub mod error;
pub mod kernels;
pub mod matrix;
pub mod rng;
pub mod share;
pub mod stats;

pub use eig::{numerical_rank, singular_values, symmetric_eigenvalues};
pub use error::{LinalgError, Result};
pub use kernels::KernelLevel;
pub use matrix::Matrix;
pub use rng::Rng64;
pub use share::{Blob, SharedSlice, Storage};
