//! Linear SVM trained with Pegasos SGD, one-vs-rest.
//!
//! The paper's "SVM (linear kernel)" baseline. Pegasos (Shalev-Shwartz et
//! al.) minimizes the regularized hinge loss
//! `λ/2‖w‖² + 1/n Σ max(0, 1 − y·(w·x + b))` with step size `1/(λt)`;
//! one binary machine per class, scored one-vs-rest. The bias is learned as
//! an extra unregularized-ish augmented feature (standard Pegasos
//! simplification).

use crate::error::{validate_inputs, BaselineError, Result};
use boosthd::{argmax, Classifier};
use linalg::{Matrix, Rng64};
use serde::{Deserialize, Serialize};

/// Configuration for [`LinearSvm`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearSvmConfig {
    /// Regularization strength `λ`.
    pub lambda: f64,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Seed for the SGD sampling order.
    pub seed: u64,
}

impl Default for LinearSvmConfig {
    fn default() -> Self {
        Self {
            lambda: 1e-4,
            epochs: 30,
            seed: 0x57A4,
        }
    }
}

/// A trained one-vs-rest linear SVM.
///
/// # Example
///
/// ```
/// use baselines::{LinearSvm, LinearSvmConfig};
/// use boosthd::Classifier;
/// use linalg::Matrix;
///
/// let x = Matrix::from_rows(&[
///     vec![0.0, 0.0], vec![0.1, 0.2], vec![2.0, 2.0], vec![2.1, 1.9],
/// ])?;
/// let y = vec![0, 0, 1, 1];
/// let svm = LinearSvm::fit(&LinearSvmConfig::default(), &x, &y)?;
/// assert_eq!(svm.predict(&[0.0, 0.1]), 0);
/// assert_eq!(svm.predict(&[2.0, 2.1]), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearSvm {
    /// `classes × (features + 1)` weights; the last column is the bias.
    pub(crate) weights: Matrix,
    num_classes: usize,
}

impl LinearSvm {
    /// Trains one Pegasos machine per class.
    ///
    /// # Errors
    ///
    /// * [`BaselineError::InvalidConfig`] for non-positive `lambda` or zero
    ///   epochs;
    /// * [`BaselineError::DataMismatch`] for empty/inconsistent inputs or
    ///   fewer than two classes.
    pub fn fit(config: &LinearSvmConfig, x: &Matrix, y: &[usize]) -> Result<Self> {
        validate_inputs(x, y, None)?;
        if config.lambda <= 0.0 {
            return Err(BaselineError::InvalidConfig {
                reason: "lambda must be positive".into(),
            });
        }
        if config.epochs == 0 {
            return Err(BaselineError::InvalidConfig {
                reason: "need at least one epoch".into(),
            });
        }
        let num_classes = y.iter().copied().max().expect("non-empty") + 1;
        if num_classes < 2 {
            return Err(BaselineError::DataMismatch {
                reason: "one-vs-rest needs at least two classes".into(),
            });
        }
        let n = y.len();
        let f = x.cols();
        let mut weights = Matrix::zeros(num_classes, f + 1);
        let mut rng = Rng64::seed_from(config.seed);

        for class in 0..num_classes {
            let w = weights.row_mut(class);
            let mut t = 1u64;
            for _epoch in 0..config.epochs {
                for _step in 0..n {
                    let i = rng.below(n);
                    let eta = 1.0 / (config.lambda * t as f64);
                    let label = if y[i] == class { 1.0f64 } else { -1.0 };
                    let xi = x.row(i);
                    // margin = y (w·x + b)
                    let mut dot = w[f] as f64; // bias term (augmented input 1)
                    for (wj, &xj) in w[..f].iter().zip(xi.iter()) {
                        dot += *wj as f64 * xj as f64;
                    }
                    let margin = label * dot;
                    // w ← (1 − ηλ)w [+ η y x  if margin < 1]
                    let decay = (1.0 - eta * config.lambda) as f32;
                    for wj in w.iter_mut() {
                        *wj *= decay;
                    }
                    if margin < 1.0 {
                        let step = (eta * label) as f32;
                        for (wj, &xj) in w[..f].iter_mut().zip(xi.iter()) {
                            *wj += step * xj;
                        }
                        w[f] += step;
                    }
                    t += 1;
                }
            }
        }

        Ok(Self {
            weights,
            num_classes,
        })
    }

    /// The learned weight matrix (`classes × (features + 1)`, bias last).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }
}

impl Classifier for LinearSvm {
    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn scores(&self, x: &[f32]) -> Vec<f32> {
        let f = self.weights.cols() - 1;
        (0..self.num_classes)
            .map(|c| {
                let w = self.weights.row(c);
                let mut dot = w[f];
                for (wj, &xj) in w[..f].iter().zip(x.iter()) {
                    dot += wj * xj;
                }
                dot
            })
            .collect()
    }

    fn predict(&self, x: &[f32]) -> usize {
        argmax(&self.scores(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boosthd::pipeline::Model;

    fn blobs(n: usize, seed: u64, sep: f32) -> (Matrix, Vec<usize>) {
        let mut rng = Rng64::seed_from(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let c = if class == 0 { -sep } else { sep };
            rows.push(vec![c + 0.5 * rng.normal(), c + 0.5 * rng.normal()]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn separates_blobs() {
        let (x, y) = blobs(200, 1, 1.5);
        let svm = LinearSvm::fit(&LinearSvmConfig::default(), &x, &y).unwrap();
        let acc = svm
            .predict_batch(&x)
            .iter()
            .zip(&y)
            .filter(|(p, t)| p == t)
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn three_class_ovr() {
        let mut rng = Rng64::seed_from(2);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let centers = [(-2.0f32, 0.0f32), (2.0, 0.0), (0.0, 3.0)];
        for i in 0..300 {
            let class = i % 3;
            let (cx, cy) = centers[class];
            rows.push(vec![cx + 0.5 * rng.normal(), cy + 0.5 * rng.normal()]);
            labels.push(class);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let svm = LinearSvm::fit(&LinearSvmConfig::default(), &x, &labels).unwrap();
        let acc = svm
            .predict_batch(&x)
            .iter()
            .zip(&labels)
            .filter(|(p, t)| p == t)
            .count() as f64
            / labels.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn bias_handles_offset_data() {
        // Both blobs on the same side of the origin: unbiased w would fail.
        let mut rng = Rng64::seed_from(3);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let class = i % 2;
            let c = if class == 0 { 5.0 } else { 8.0 };
            rows.push(vec![c + 0.4 * rng.normal()]);
            labels.push(class);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let svm = LinearSvm::fit(&LinearSvmConfig::default(), &x, &labels).unwrap();
        let acc = svm
            .predict_batch(&x)
            .iter()
            .zip(&labels)
            .filter(|(p, t)| p == t)
            .count() as f64
            / labels.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs(100, 4, 1.0);
        let a = LinearSvm::fit(&LinearSvmConfig::default(), &x, &y).unwrap();
        let b = LinearSvm::fit(&LinearSvmConfig::default(), &x, &y).unwrap();
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn invalid_config_rejected() {
        let (x, y) = blobs(20, 5, 1.0);
        assert!(LinearSvm::fit(
            &LinearSvmConfig {
                lambda: 0.0,
                ..Default::default()
            },
            &x,
            &y
        )
        .is_err());
        assert!(LinearSvm::fit(
            &LinearSvmConfig {
                epochs: 0,
                ..Default::default()
            },
            &x,
            &y
        )
        .is_err());
    }

    #[test]
    fn single_class_rejected() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        assert!(LinearSvm::fit(&LinearSvmConfig::default(), &x, &[0, 0]).is_err());
    }

    #[test]
    fn perturbable_exposes_weights() {
        let (x, y) = blobs(50, 6, 1.5);
        let mut svm = LinearSvm::fit(&LinearSvmConfig::default(), &x, &y).unwrap();
        let report = svm.inject_bitflips(0.0, &mut Rng64::seed_from(0)).unwrap();
        assert_eq!(report.words, 2 * 3); // 2 classes × (2 features + bias)
    }
}
