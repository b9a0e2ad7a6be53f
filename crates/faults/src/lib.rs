//! Foundational fault primitives for the BoostHD reliability evaluation.
//!
//! The paper stresses that healthcare deployments need more than accuracy:
//! models must stay dependable under *hardware faults* and *skewed data*.
//! This crate is the lowest layer of that story — the raw perturbation
//! machinery, free of any model or pipeline dependency so both the model
//! crates (which list their stored parameter buffers to it) and the
//! campaign engine in `reliability` can build on it without cycles:
//!
//! * [`bitflip`] — bit-flip injection on trained model parameters with
//!   per-bit probability `p_b`, modelling memory faults in wearable
//!   hardware (Figure 8). A model lists its stored buffers as
//!   [`StoredBits`] — f32 words (IEEE-754 flips), int8 bytes
//!   (two's-complement flips) or packed sign rows (flips land directly on
//!   hypervector components) — and [`flip_stored_bits`] walks them.
//! * [`imbalance`] — class-imbalance dataset crafting per the paper's
//!   Equation 8: keep every sample of the target class, subsample each other
//!   class to a fraction `r` (Figure 7).
//! * [`noise`] — additive Gaussian sensor noise, impulsive spike noise,
//!   channel dropout, and label flipping, used in robustness ablations.
//!
//! **Determinism contract.** Every injector in this crate draws all of its
//! randomness from the caller-supplied [`linalg::Rng64`] and touches no
//! other source of entropy (no clocks, no thread IDs, no global state), so
//! a fixed `(input, parameters, seed)` triple always produces the same
//! perturbation byte-for-byte. The campaign engine in `reliability` builds
//! its thread-count-invariant sweeps on exactly this guarantee.
//!
//! # Example: flipping bits in a parameter buffer
//!
//! ```
//! use faults::bitflip::{flip_stored_bits, StoredBits};
//! use linalg::Rng64;
//!
//! let mut params = vec![1.0f32; 1024];
//! let mut rng = Rng64::seed_from(1);
//! let store = vec![StoredBits::F32(&mut params)];
//! let report = flip_stored_bits([store], 1e-3, &mut rng);
//! assert!(report.flipped > 0);
//! assert!(params.iter().any(|&p| p != 1.0));
//! ```

#![deny(missing_docs)]

pub mod bitflip;
pub mod imbalance;
pub mod noise;

pub use bitflip::{flip_stored_bits, BitflipReport, StoredBits};
pub use imbalance::{imbalanced_indices, ImbalanceSpec};
