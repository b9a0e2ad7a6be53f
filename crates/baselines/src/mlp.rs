//! The DNN baseline: a dropout MLP trained with Adam.
//!
//! The paper configures its DNN with "a learning rate of 0.001, four linear
//! layers `[2048, 1024, 512, classes]`, ReLU activation, and dropout"
//! (Section IV). Since the model consumes the same statistical feature
//! vectors as every other model (not raw waveforms), the linear stack is the
//! operative architecture; those layer sizes and the learning rate are this
//! module's defaults.
//!
//! Training: minibatch softmax cross-entropy, inverted dropout on hidden
//! activations, He initialization, Adam. All heavy math runs through the
//! `linalg` blocked GEMM, batched over minibatches.

use crate::error::{validate_inputs, BaselineError, Result};
use boosthd::{argmax, Classifier};
use linalg::{Matrix, Rng64};
use serde::{Deserialize, Serialize};

/// Configuration for [`Mlp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Hidden layer widths (paper: `[2048, 1024, 512]`; the output layer is
    /// added automatically).
    pub hidden: Vec<usize>,
    /// Adam learning rate (paper: 0.001).
    pub lr: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Dropout probability on hidden activations.
    pub dropout: f32,
    /// Seed for initialization, shuffling, and dropout masks.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: vec![2048, 1024, 512],
            lr: 1e-3,
            epochs: 10,
            batch_size: 64,
            dropout: 0.2,
            seed: 0xD22,
        }
    }
}

impl MlpConfig {
    /// A small configuration for unit tests and quick experiments.
    pub fn small() -> Self {
        Self {
            hidden: vec![32, 16],
            epochs: 60,
            batch_size: 16,
            dropout: 0.1,
            ..Self::default()
        }
    }
}

/// A trained multilayer perceptron.
///
/// # Example
///
/// ```
/// use baselines::{Mlp, MlpConfig};
/// use boosthd::Classifier;
/// use linalg::Matrix;
///
/// let x = Matrix::from_rows(&[
///     vec![0.0, 0.0], vec![0.1, 0.1], vec![0.1, -0.1], vec![-0.1, 0.0],
///     vec![1.0, 1.0], vec![1.1, 0.9], vec![0.9, 1.1], vec![1.0, 1.2],
/// ])?;
/// let y = vec![0, 0, 0, 0, 1, 1, 1, 1];
/// let model = Mlp::fit(&MlpConfig::small(), &x, &y)?;
/// assert_eq!(model.predict(&[0.0, 0.05]), 0);
/// assert_eq!(model.predict(&[1.0, 1.05]), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    /// Per-layer weight matrices, shape `(fan_in, fan_out)`.
    pub(crate) weights: Vec<Matrix>,
    /// Per-layer biases.
    pub(crate) biases: Vec<Vec<f32>>,
    num_classes: usize,
}

impl Mlp {
    /// Trains the MLP with minibatch Adam.
    ///
    /// # Errors
    ///
    /// * [`BaselineError::InvalidConfig`] for an empty hidden stack, zero
    ///   epochs/batch, non-positive lr, or dropout outside `[0, 1)`;
    /// * [`BaselineError::DataMismatch`] for empty/inconsistent inputs.
    pub fn fit(config: &MlpConfig, x: &Matrix, y: &[usize]) -> Result<Self> {
        validate_inputs(x, y, None)?;
        if config.hidden.is_empty() || config.hidden.contains(&0) {
            return Err(BaselineError::InvalidConfig {
                reason: "hidden layers must be non-empty and positive".into(),
            });
        }
        if config.epochs == 0 || config.batch_size == 0 {
            return Err(BaselineError::InvalidConfig {
                reason: "epochs and batch size must be positive".into(),
            });
        }
        if config.lr <= 0.0 {
            return Err(BaselineError::InvalidConfig {
                reason: "learning rate must be positive".into(),
            });
        }
        if !(0.0..1.0).contains(&config.dropout) {
            return Err(BaselineError::InvalidConfig {
                reason: "dropout must lie in [0, 1)".into(),
            });
        }
        let num_classes = y.iter().copied().max().expect("non-empty") + 1;
        let mut rng = Rng64::seed_from(config.seed);

        // He initialization.
        let mut dims = vec![x.cols()];
        dims.extend_from_slice(&config.hidden);
        dims.push(num_classes);
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for l in 0..dims.len() - 1 {
            let std = (2.0 / dims[l] as f32).sqrt();
            let mut w = Matrix::random_normal(dims[l], dims[l + 1], &mut rng);
            w.scale_inplace(std);
            weights.push(w);
            biases.push(vec![0.0f32; dims[l + 1]]);
        }

        let mut opt = Adam::new(&weights, &biases, config.lr);
        let n = y.len();
        let mut order: Vec<usize> = (0..n).collect();

        for _epoch in 0..config.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(config.batch_size) {
                let xb = x.select_rows(chunk);
                let yb: Vec<usize> = chunk.iter().map(|&i| y[i]).collect();
                train_step(
                    &mut weights,
                    &mut biases,
                    &mut opt,
                    &xb,
                    &yb,
                    num_classes,
                    config.dropout,
                    &mut rng,
                );
            }
        }

        Ok(Self {
            weights,
            biases,
            num_classes,
        })
    }

    /// Number of layers (including the output layer).
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// Forward pass over a batch, returning logits (`B × classes`).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut a = x.clone();
        let last = self.weights.len() - 1;
        for (l, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let mut z = a.matmul(w);
            add_bias(&mut z, b);
            if l != last {
                z.map_inplace(|v| v.max(0.0));
            }
            a = z;
        }
        a
    }
}

impl Classifier for Mlp {
    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn scores(&self, x: &[f32]) -> Vec<f32> {
        let xm = Matrix::from_vec(1, x.len(), x.to_vec()).expect("row vector");
        self.forward(&xm).into_vec()
    }

    fn predict_batch(&self, x: &Matrix) -> Vec<usize> {
        let logits = self.forward(x);
        (0..logits.rows()).map(|r| argmax(logits.row(r))).collect()
    }
}

/// Adam optimizer state (first/second moments per parameter tensor).
struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m_w: Vec<Vec<f32>>,
    v_w: Vec<Vec<f32>>,
    m_b: Vec<Vec<f32>>,
    v_b: Vec<Vec<f32>>,
}

impl Adam {
    fn new(weights: &[Matrix], biases: &[Vec<f32>], lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m_w: weights
                .iter()
                .map(|w| vec![0.0; w.as_slice().len()])
                .collect(),
            v_w: weights
                .iter()
                .map(|w| vec![0.0; w.as_slice().len()])
                .collect(),
            m_b: biases.iter().map(|b| vec![0.0; b.len()]).collect(),
            v_b: biases.iter().map(|b| vec![0.0; b.len()]).collect(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn step_tensor(
        lr_t: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        params: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        for i in 0..params.len() {
            m[i] = beta1 * m[i] + (1.0 - beta1) * grads[i];
            v[i] = beta2 * v[i] + (1.0 - beta2) * grads[i] * grads[i];
            params[i] -= lr_t * m[i] / (v[i].sqrt() + eps);
        }
    }

    fn step(
        &mut self,
        weights: &mut [Matrix],
        biases: &mut [Vec<f32>],
        grad_w: &[Matrix],
        grad_b: &[Vec<f32>],
    ) {
        self.t += 1;
        // Bias-corrected step size.
        let lr_t =
            self.lr * (1.0 - self.beta2.powi(self.t)).sqrt() / (1.0 - self.beta1.powi(self.t));
        for l in 0..weights.len() {
            Self::step_tensor(
                lr_t,
                self.beta1,
                self.beta2,
                self.eps,
                weights[l].as_mut_slice(),
                grad_w[l].as_slice(),
                &mut self.m_w[l],
                &mut self.v_w[l],
            );
            Self::step_tensor(
                lr_t,
                self.beta1,
                self.beta2,
                self.eps,
                &mut biases[l],
                &grad_b[l],
                &mut self.m_b[l],
                &mut self.v_b[l],
            );
        }
    }
}

fn add_bias(z: &mut Matrix, b: &[f32]) {
    for r in 0..z.rows() {
        for (v, &bi) in z.row_mut(r).iter_mut().zip(b.iter()) {
            *v += bi;
        }
    }
}

/// One minibatch forward/backward/Adam step.
#[allow(clippy::too_many_arguments)]
fn train_step(
    weights: &mut [Matrix],
    biases: &mut [Vec<f32>],
    opt: &mut Adam,
    xb: &Matrix,
    yb: &[usize],
    num_classes: usize,
    dropout: f32,
    rng: &mut Rng64,
) {
    let batch = xb.rows();
    let layers = weights.len();

    // Forward, keeping activations and dropout masks.
    let mut activations: Vec<Matrix> = vec![xb.clone()];
    let mut masks: Vec<Option<Vec<f32>>> = Vec::with_capacity(layers);
    for l in 0..layers {
        let mut z = activations[l].matmul(&weights[l]);
        add_bias(&mut z, &biases[l]);
        if l != layers - 1 {
            z.map_inplace(|v| v.max(0.0));
            if dropout > 0.0 {
                let keep = 1.0 - dropout;
                let mask: Vec<f32> = (0..z.as_slice().len())
                    .map(|_| {
                        if rng.chance(dropout as f64) {
                            0.0
                        } else {
                            1.0 / keep
                        }
                    })
                    .collect();
                for (v, &m) in z.as_mut_slice().iter_mut().zip(mask.iter()) {
                    *v *= m;
                }
                masks.push(Some(mask));
            } else {
                masks.push(None);
            }
        } else {
            masks.push(None);
        }
        activations.push(z);
    }

    // Softmax cross-entropy gradient at the output: dZ = (p − onehot)/B.
    let logits = activations.last().expect("forward produced output");
    let mut dz = Matrix::zeros(batch, num_classes);
    for (r, &yr) in yb.iter().enumerate() {
        let row = logits.row(r);
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exp: Vec<f32> = row.iter().map(|&v| (v - m).exp()).collect();
        let z: f32 = exp.iter().sum();
        for (c, &e) in exp.iter().enumerate() {
            let p = e / z;
            let target = if yr == c { 1.0 } else { 0.0 };
            dz.set(r, c, (p - target) / batch as f32);
        }
    }

    // Backward through the stack.
    let mut grad_w: Vec<Matrix> = Vec::with_capacity(layers);
    let mut grad_b: Vec<Vec<f32>> = Vec::with_capacity(layers);
    for l in (0..layers).rev() {
        // dW = A_{l}ᵀ · dZ,  db = column sums of dZ.
        let gw = activations[l].transposed().matmul(&dz);
        let mut gb = vec![0.0f32; dz.cols()];
        for r in 0..dz.rows() {
            for (g, &v) in gb.iter_mut().zip(dz.row(r).iter()) {
                *g += v;
            }
        }
        if l > 0 {
            // dA = dZ · Wᵀ, then gate by ReLU derivative and dropout mask.
            let mut da = dz.matmul_transposed(&weights[l]);
            let act = &activations[l];
            for (v, &a) in da.as_mut_slice().iter_mut().zip(act.as_slice().iter()) {
                if a <= 0.0 {
                    *v = 0.0;
                }
            }
            if let Some(mask) = &masks[l - 1] {
                for (v, &m) in da.as_mut_slice().iter_mut().zip(mask.iter()) {
                    *v *= m;
                }
            }
            dz = da;
        }
        grad_w.push(gw);
        grad_b.push(gb);
    }
    grad_w.reverse();
    grad_b.reverse();

    opt.step(weights, biases, &grad_w, &grad_b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use boosthd::pipeline::Model;

    fn blobs(n: usize, seed: u64, sep: f32) -> (Matrix, Vec<usize>) {
        let mut rng = Rng64::seed_from(seed);
        let centers = [(-1.0f32, -1.0f32), (1.0, 1.0), (-1.0, 1.0)];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 3;
            let (cx, cy) = centers[class];
            rows.push(vec![
                cx * sep + 0.3 * rng.normal(),
                cy * sep + 0.3 * rng.normal(),
            ]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    fn accuracy(model: &Mlp, x: &Matrix, y: &[usize]) -> f64 {
        model
            .predict_batch(x)
            .iter()
            .zip(y)
            .filter(|(p, t)| p == t)
            .count() as f64
            / y.len() as f64
    }

    #[test]
    fn learns_three_blobs() {
        let (x, y) = blobs(240, 1, 1.0);
        let model = Mlp::fit(&MlpConfig::small(), &x, &y).unwrap();
        assert!(accuracy(&model, &x, &y) > 0.95);
        assert_eq!(model.num_classes(), 3);
        assert_eq!(model.num_layers(), 3); // 2 hidden + output
    }

    #[test]
    fn learns_xor_nonlinearity() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut rng = Rng64::seed_from(2);
        for _ in 0..200 {
            let a = rng.chance(0.5);
            let b = rng.chance(0.5);
            rows.push(vec![
                a as u8 as f32 + 0.1 * rng.normal(),
                b as u8 as f32 + 0.1 * rng.normal(),
            ]);
            labels.push((a ^ b) as usize);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let model = Mlp::fit(&MlpConfig::small(), &x, &labels).unwrap();
        assert!(
            accuracy(&model, &x, &labels) > 0.95,
            "a linear model cannot do this"
        );
    }

    #[test]
    fn generalizes() {
        let (xtr, ytr) = blobs(300, 3, 1.0);
        let (xte, yte) = blobs(120, 99, 1.0);
        let model = Mlp::fit(&MlpConfig::small(), &xtr, &ytr).unwrap();
        assert!(accuracy(&model, &xte, &yte) > 0.9);
    }

    #[test]
    fn batch_and_rowwise_predictions_agree() {
        let (x, y) = blobs(60, 4, 1.0);
        let model = Mlp::fit(&MlpConfig::small(), &x, &y).unwrap();
        let batch = model.predict_batch(&x);
        let rowwise: Vec<usize> = (0..x.rows()).map(|r| model.predict(x.row(r))).collect();
        assert_eq!(batch, rowwise);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs(90, 5, 1.0);
        let a = Mlp::fit(&MlpConfig::small(), &x, &y).unwrap();
        let b = Mlp::fit(&MlpConfig::small(), &x, &y).unwrap();
        assert_eq!(a.predict_batch(&x), b.predict_batch(&x));
    }

    #[test]
    fn dropout_zero_also_trains() {
        let (x, y) = blobs(120, 6, 1.0);
        let config = MlpConfig {
            dropout: 0.0,
            ..MlpConfig::small()
        };
        let model = Mlp::fit(&config, &x, &y).unwrap();
        assert!(accuracy(&model, &x, &y) > 0.9);
    }

    #[test]
    fn invalid_configs_rejected() {
        let (x, y) = blobs(20, 7, 1.0);
        for config in [
            MlpConfig {
                hidden: vec![],
                ..MlpConfig::small()
            },
            MlpConfig {
                hidden: vec![0],
                ..MlpConfig::small()
            },
            MlpConfig {
                epochs: 0,
                ..MlpConfig::small()
            },
            MlpConfig {
                batch_size: 0,
                ..MlpConfig::small()
            },
            MlpConfig {
                lr: 0.0,
                ..MlpConfig::small()
            },
            MlpConfig {
                dropout: 1.0,
                ..MlpConfig::small()
            },
        ] {
            assert!(
                Mlp::fit(&config, &x, &y).is_err(),
                "{config:?} should be rejected"
            );
        }
    }

    #[test]
    fn perturbable_exposes_all_layers() {
        let (x, y) = blobs(30, 8, 1.0);
        let mut model = Mlp::fit(&MlpConfig::small(), &x, &y).unwrap();
        let report = model
            .inject_bitflips(0.0, &mut Rng64::seed_from(0))
            .unwrap();
        // weights: 2·32 + 32·16 + 16·3 ; biases: 32 + 16 + 3
        assert_eq!(report.words, 2 * 32 + 32 * 16 + 16 * 3 + 32 + 16 + 3);
    }

    #[test]
    fn scores_length_matches_classes() {
        let (x, y) = blobs(30, 9, 1.0);
        let model = Mlp::fit(&MlpConfig::small(), &x, &y).unwrap();
        assert_eq!(model.scores(x.row(0)).len(), 3);
    }
}
