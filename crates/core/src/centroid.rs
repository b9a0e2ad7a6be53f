//! CentroidHD: the classic single-pass bundling classifier.
//!
//! The baseline HDC learning rule (paper Section II-C): encode every training
//! sample and bundle it into its label's class hypervector,
//! `C_l = Σ_{y_i = l} φ(x_i)`. No refinement, no error feedback — one pass.
//! Included both as the simplest member of the HDC family and as the ablation
//! weak learner ("what does BoostHD buy beyond bundling?").
//!
//! A trained centroid model keeps nothing but its encoder and class rows,
//! so it *is* the frozen single-memory shape over dense f32 rows
//! ([`Single<Matrix>`](crate::frozen::Single)): inference, persistence
//! and quantization all come from [`crate::frozen`].

use crate::error::{BoostHdError, Result};
use crate::frozen::Single;
use crate::online::{normalize_rows, normalize_weights, validate_training_inputs};
use hdc::encoder::{Encode, SinusoidEncoder};
use linalg::{Matrix, Rng64};
use serde::{Deserialize, Serialize};

/// Configuration for [`CentroidHd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CentroidHdConfig {
    /// Hyperspace dimensionality `D`.
    pub dim: usize,
    /// Seed for the encoder's random projection.
    pub seed: u64,
}

impl Default for CentroidHdConfig {
    fn default() -> Self {
        Self {
            dim: 4000,
            seed: 0x5EED,
        }
    }
}

/// A trained single-pass bundling classifier: one encoder plus unit-norm
/// f32 class rows.
///
/// # Example
///
/// ```
/// use boosthd::{CentroidHd, CentroidHdConfig, Classifier};
/// use linalg::Matrix;
///
/// let x = Matrix::from_rows(&[
///     vec![0.0, 0.1], vec![0.1, 0.0],   // class 0 cluster
///     vec![2.0, 2.1], vec![2.1, 2.0],   // class 1 cluster
/// ])?;
/// let y = vec![0, 0, 1, 1];
/// let config = CentroidHdConfig { dim: 256, ..CentroidHdConfig::default() };
/// let model = CentroidHd::fit(&config, &x, &y)?;
/// assert_eq!(model.predict(&[0.05, 0.05]), 0);
/// assert_eq!(model.predict(&[2.05, 2.05]), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type CentroidHd = Single<Matrix>;

impl CentroidHd {
    /// Trains by bundling every encoded sample into its class hypervector.
    ///
    /// # Errors
    ///
    /// * [`BoostHdError::InvalidConfig`] for a zero dimension;
    /// * [`BoostHdError::DataMismatch`] for empty data or label/feature
    ///   disagreement.
    pub fn fit(config: &CentroidHdConfig, x: &Matrix, y: &[usize]) -> Result<Self> {
        Self::fit_weighted(config, x, y, None)
    }

    /// Weighted variant of [`CentroidHd::fit`]; weights scale each sample's
    /// contribution to its class centroid.
    ///
    /// # Errors
    ///
    /// As [`CentroidHd::fit`], plus weight-length disagreement.
    pub fn fit_weighted(
        config: &CentroidHdConfig,
        x: &Matrix,
        y: &[usize],
        weights: Option<&[f64]>,
    ) -> Result<Self> {
        validate_training_inputs(x, y, weights)?;
        if config.dim == 0 {
            return Err(BoostHdError::InvalidConfig {
                reason: "dimensionality must be positive".into(),
            });
        }
        let num_classes = y.iter().copied().max().expect("validated non-empty") + 1;
        let mut rng = Rng64::seed_from(config.seed);
        let encoder =
            SinusoidEncoder::try_new(config.dim, x.cols(), &mut rng).map_err(BoostHdError::from)?;
        let z = encoder.encode_batch(x);
        let scale = normalize_weights(weights, y.len());
        let mut class_hvs = Matrix::zeros(num_classes, config.dim);
        // Kernel-dispatched per-class bundling, class-parallel on large
        // workloads (bit-identical to the serial sample loop).
        crate::online::bundle_classes(
            &mut class_hvs,
            &z,
            y,
            &scale,
            crate::online::bundling_threads(z.rows(), config.dim, num_classes),
        );
        normalize_rows(&mut class_hvs);
        Ok(Self {
            encoder,
            memory: class_hvs,
        })
    }

    /// The trained class hypervectors as a `classes × D` matrix.
    pub fn class_hypervectors(&self) -> &Matrix {
        &self.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Classifier;

    fn blobs(n: usize, seed: u64, sep: f32) -> (Matrix, Vec<usize>) {
        let mut rng = Rng64::seed_from(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let c = if class == 0 { -sep } else { sep };
            rows.push(vec![c + 0.4 * rng.normal(), c + 0.4 * rng.normal()]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn separable_blobs_are_learned() {
        let (x, y) = blobs(200, 1, 1.5);
        let config = CentroidHdConfig {
            dim: 512,
            ..Default::default()
        };
        let model = CentroidHd::fit(&config, &x, &y).unwrap();
        let preds = model.predict_batch(&x);
        let acc = preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn class_hv_count_matches_labels() {
        let (x, y) = blobs(40, 2, 1.5);
        let model = CentroidHd::fit(
            &CentroidHdConfig {
                dim: 128,
                ..Default::default()
            },
            &x,
            &y,
        )
        .unwrap();
        assert_eq!(model.class_hypervectors().rows(), 2);
        assert_eq!(model.dim(), 128);
    }

    #[test]
    fn weighted_bundling_shifts_centroids() {
        let (x, y) = blobs(100, 3, 0.5);
        let config = CentroidHdConfig {
            dim: 256,
            ..Default::default()
        };
        let uniform = CentroidHd::fit(&config, &x, &y).unwrap();
        let weights: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 10.0 } else { 1.0 })
            .collect();
        let weighted = CentroidHd::fit_weighted(&config, &x, &y, Some(&weights)).unwrap();
        assert_ne!(uniform.class_hypervectors(), weighted.class_hypervectors());
    }

    #[test]
    fn zero_dim_rejected() {
        let (x, y) = blobs(10, 4, 1.0);
        let config = CentroidHdConfig {
            dim: 0,
            ..Default::default()
        };
        assert!(matches!(
            CentroidHd::fit(&config, &x, &y),
            Err(BoostHdError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn batch_matches_rowwise() {
        let (x, y) = blobs(50, 5, 1.5);
        let model = CentroidHd::fit(
            &CentroidHdConfig {
                dim: 256,
                ..Default::default()
            },
            &x,
            &y,
        )
        .unwrap();
        let batch = model.predict_batch(&x);
        let rowwise: Vec<usize> = (0..x.rows()).map(|r| model.predict(x.row(r))).collect();
        assert_eq!(batch, rowwise);
    }

    #[test]
    fn perturbation_changes_predictions_eventually() {
        let (x, y) = blobs(100, 6, 1.5);
        let mut model = CentroidHd::fit(
            &CentroidHdConfig {
                dim: 256,
                ..Default::default()
            },
            &x,
            &y,
        )
        .unwrap();
        let before = model.predict_batch(&x);
        let mut rng = Rng64::seed_from(0);
        let report = model.flip_stored_bits(0.05, &mut rng);
        let after = model.predict_batch(&x);
        // At 5% per-bit flip rate the model is thoroughly scrambled; at least
        // the parameters must have changed (predictions usually too).
        assert_eq!(before.len(), after.len());
        assert!(report.flipped > 0);
    }
}
