//! OnlineHD: single-pass adaptive hyperdimensional classification.
//!
//! Reimplementation of the classifier the paper builds on (its reference
//! \[18\]: Hernández-Cano et al., *"OnlineHD: Robust, efficient, and
//! single-pass online learning using hyperdimensional system"*, DATE 2021).
//! Training is two-phase:
//!
//! 1. **Bootstrap bundling** (optional, enabled in the paper's setup): every
//!    encoded sample is bundled into its class hypervector, `C_y += φ(x)`.
//! 2. **Iterative refinement**: for each sample, compare `φ(x)` against all
//!    class hypervectors with cosine similarity `δ`. On a misclassification
//!    (predicted class `p ≠ y`), pull the true class toward the sample and
//!    push the confused class away, scaled by how *wrong* the similarities
//!    were:
//!
//!    ```text
//!    C_y += lr · (1 − δ(φ, C_y)) · φ
//!    C_p −= lr · (1 − δ(φ, C_p)) · φ
//!    ```
//!
//! The paper configures OnlineHD with learning rate 0.035, bootstrap
//! enabled, and a Gaussian `N(0, 1)` projection encoder — those are this
//! module's defaults.
//!
//! The refinement loop also accepts per-sample weights (uniform for a plain
//! fit), which is the hook BoostHD's booster uses to focus weak learners on
//! previously misclassified samples.

use crate::classifier::{argmax, Classifier};
use crate::error::{BoostHdError, Result};
use crate::frozen::Single;
use faults::BitflipReport;
use hdc::encoder::{Encode, SinusoidEncoder};
use linalg::matrix::{dot, norm};
use linalg::{Matrix, Rng64};
use serde::{Deserialize, Serialize};

/// Configuration for [`OnlineHd`].
///
/// The defaults mirror the paper's experimental setup (Section IV):
/// `lr = 0.035`, bootstrap bundling enabled, `D = 4000`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineHdConfig {
    /// Hyperspace dimensionality `D`.
    pub dim: usize,
    /// Refinement learning rate (paper: 0.035).
    pub lr: f32,
    /// Number of refinement passes over the training set.
    pub epochs: usize,
    /// Whether to run the initial bundling pass before refinement.
    pub bootstrap: bool,
    /// Seed for the encoder's random projection.
    pub seed: u64,
}

impl Default for OnlineHdConfig {
    fn default() -> Self {
        Self {
            dim: 4000,
            lr: 0.035,
            epochs: 20,
            bootstrap: true,
            seed: 0x5EED,
        }
    }
}

/// A trained OnlineHD classifier.
///
/// See the [module documentation](self) for the algorithm and
/// [`OnlineHdConfig`] for the knobs. Construct with [`OnlineHd::fit`] or
/// [`OnlineHd::fit_weighted`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineHd {
    pub(crate) single: Single<Matrix>,
    config: OnlineHdConfig,
}

impl OnlineHd {
    /// Trains on feature rows `x` with labels `y` (uniform sample weights).
    ///
    /// # Errors
    ///
    /// See [`OnlineHd::fit_weighted`].
    pub fn fit(config: &OnlineHdConfig, x: &Matrix, y: &[usize]) -> Result<Self> {
        Self::fit_weighted(config, x, y, None)
    }

    /// Trains with optional per-sample weights (used by the booster).
    ///
    /// Weights are normalized internally; only their relative magnitudes
    /// matter.
    ///
    /// # Errors
    ///
    /// * [`BoostHdError::InvalidConfig`] for a zero dimension, non-positive
    ///   learning rate, or zero classes;
    /// * [`BoostHdError::DataMismatch`] for empty data, label/feature row
    ///   disagreement, or weight-length disagreement.
    pub fn fit_weighted(
        config: &OnlineHdConfig,
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
        if config.lr <= 0.0 {
            return Err(BoostHdError::InvalidConfig {
                reason: format!("learning rate must be positive, got {}", config.lr),
            });
        }
        let num_classes = y.iter().copied().max().expect("validated non-empty") + 1;
        let mut rng = Rng64::seed_from(config.seed);
        let encoder =
            SinusoidEncoder::try_new(config.dim, x.cols(), &mut rng).map_err(BoostHdError::from)?;
        let z = encoder.encode_batch(x);
        let normalized = normalize_weights(weights, y.len());
        let mut class_hvs = train_class_hvs(
            &z,
            y,
            &normalized,
            num_classes,
            config.lr,
            config.epochs,
            config.bootstrap,
        );
        normalize_rows(&mut class_hvs);
        Ok(Self {
            single: Single {
                encoder,
                memory: class_hvs,
            },
            config: *config,
        })
    }

    /// The trained class hypervectors as a `classes × D` matrix.
    pub fn class_hypervectors(&self) -> &Matrix {
        &self.single.memory
    }

    /// The encoder used to map features into the hyperspace.
    pub fn encoder(&self) -> &SinusoidEncoder {
        &self.single.encoder
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &OnlineHdConfig {
        &self.config
    }

    /// Hyperspace dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.single.dim()
    }

    /// Per-class cosine similarities for an already-encoded hypervector.
    pub fn scores_encoded(&self, h: &[f32]) -> Vec<f32> {
        self.single.scores_encoded(h)
    }

    /// Performs one *online* update with a freshly observed labeled sample —
    /// the single-pass adaptation OnlineHD is named for. On a
    /// misclassification the true class is pulled toward the sample and the
    /// confused class pushed away (the same rule as training), then the two
    /// touched class hypervectors are re-normalized. Returns the prediction
    /// made *before* the update, so callers can track streaming accuracy.
    ///
    /// This is the personalization hook for wearables: a deployed model
    /// adapts to its wearer without retraining from scratch.
    ///
    /// # Errors
    ///
    /// * [`BoostHdError::DataMismatch`] if `x` has the wrong feature count
    ///   or `y` is not one of the trained classes.
    pub fn update(&mut self, x: &[f32], y: usize) -> Result<usize> {
        let (input_len, k) = (self.encoder().input_len(), self.num_classes());
        if x.len() != input_len {
            return Err(BoostHdError::DataMismatch {
                reason: format!(
                    "sample has {} features but the encoder expects {input_len}",
                    x.len()
                ),
            });
        }
        if y >= k {
            return Err(BoostHdError::DataMismatch {
                reason: format!("label {y} outside the {k} trained classes"),
            });
        }
        let mut h = self.encoder().encode_row(x);
        let sims = self.scores_encoded(&h);
        let pred = argmax(&sims);
        if pred != y {
            // The stored class hypervectors are unit-normalized, so the
            // sample is normalized too before bundling — otherwise a single
            // update (‖φ(x)‖ ≈ √(D/8)) would overwrite the class direction
            // instead of nudging it.
            hdc::ops::normalize_inplace(&mut h);
            let lr = self.config.lr;
            let classes = &mut self.single.memory;
            hdc::ops::bundle_into(classes.row_mut(y), &h, lr * (1.0 - sims[y]));
            hdc::ops::bundle_into(classes.row_mut(pred), &h, -lr * (1.0 - sims[pred]));
            hdc::ops::normalize_inplace(classes.row_mut(y));
            hdc::ops::normalize_inplace(classes.row_mut(pred));
        }
        Ok(pred)
    }

    /// Streams a batch of labeled samples through [`OnlineHd::update`],
    /// returning the *prequential* accuracy (each sample is predicted
    /// before the model learns from it).
    ///
    /// # Errors
    ///
    /// As [`OnlineHd::update`].
    pub fn update_batch(&mut self, x: &Matrix, y: &[usize]) -> Result<f64> {
        if x.rows() != y.len() {
            return Err(BoostHdError::DataMismatch {
                reason: format!("{} feature rows but {} labels", x.rows(), y.len()),
            });
        }
        if y.is_empty() {
            return Err(BoostHdError::DataMismatch {
                reason: "streaming update needs at least one sample".into(),
            });
        }
        let mut correct = 0usize;
        for (r, &label) in y.iter().enumerate() {
            if self.update(x.row(r), label)? == label {
                correct += 1;
            }
        }
        Ok(correct as f64 / y.len() as f64)
    }

    /// Reassembles a model from its stored parts (the persistence path);
    /// fails when the encoder is not `config.dim` wide.
    pub(crate) fn from_parts(single: Single<Matrix>, config: OnlineHdConfig) -> Result<Self> {
        let (width, dim) = (single.encoder.dim(), config.dim);
        if width != dim {
            return Err(BoostHdError::DataMismatch {
                reason: format!(
                    "encoder is {width} wide but the model is configured for D = {dim}"
                ),
            });
        }
        Ok(Self { single, config })
    }

    /// Bit-flip injection over the class memory ([`Single`]'s).
    pub(crate) fn flip_stored_bits(&mut self, p_b: f64, rng: &mut Rng64) -> BitflipReport {
        self.single.flip_stored_bits(p_b, rng)
    }

    /// Quantizes the class hypervectors to bipolar `{−1, +1}` in place —
    /// the representation HDC accelerators store in 1-bit memories. Cosine
    /// scoring continues to work; accuracy typically drops by well under a
    /// point at experiment dimensionalities while the model shrinks 32×.
    pub fn quantize_bipolar(&mut self) {
        bipolarize_rows(&mut self.single.memory);
    }
}

/// Replaces every row of `m` by its unit-norm bipolar `{−1, +1}` sign
/// pattern.
pub(crate) fn bipolarize_rows(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let q = hdc::ops::to_bipolar(row);
        row.copy_from_slice(&q);
        hdc::ops::normalize_inplace(row);
    }
}

/// Validates feature/label/weight agreement shared by all HDC fits.
pub(crate) fn validate_training_inputs(
    x: &Matrix,
    y: &[usize],
    weights: Option<&[f64]>,
) -> Result<()> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(BoostHdError::DataMismatch {
            reason: "training data is empty".into(),
        });
    }
    if x.rows() != y.len() {
        return Err(BoostHdError::DataMismatch {
            reason: format!("{} feature rows but {} labels", x.rows(), y.len()),
        });
    }
    if let Some(w) = weights {
        if w.len() != y.len() {
            return Err(BoostHdError::DataMismatch {
                reason: format!("{} labels but {} weights", y.len(), w.len()),
            });
        }
        if w.iter().any(|&wi| wi < 0.0) || w.iter().sum::<f64>() <= 0.0 {
            return Err(BoostHdError::DataMismatch {
                reason: "sample weights must be non-negative with positive sum".into(),
            });
        }
    }
    Ok(())
}

/// Normalizes optional weights to mean 1 (so weighted updates reduce to the
/// unweighted rule under uniform weights).
pub(crate) fn normalize_weights(weights: Option<&[f64]>, n: usize) -> Vec<f32> {
    match weights {
        None => vec![1.0; n],
        Some(w) => {
            let total: f64 = w.iter().sum();
            let scale = n as f64 / total;
            w.iter().map(|&wi| (wi * scale) as f32).collect()
        }
    }
}

/// Normalizes every row of `m` to unit Euclidean norm (zero rows are left
/// untouched). Trained models store unit class hypervectors so inference
/// pays one dot product per class instead of a dot plus a norm.
pub(crate) fn normalize_rows(m: &mut Matrix) {
    linalg::kernels::normalize_rows(m);
}

/// Cosine similarities of `h` against *unit-norm* class hypervector rows:
/// `dot(c, h)/‖h‖`. Identical to [`scores_against`] when the rows have been
/// passed through [`normalize_rows`], at roughly half the cost.
#[cfg(test)]
pub(crate) fn scores_unit_classes(class_hvs: &Matrix, h: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; class_hvs.rows()];
    linalg::kernels::cosine_scores_into(class_hvs, h, norm(h), &mut out);
    out
}

/// Cosine similarities of `h` against every row of `class_hvs`.
///
/// General (norm-computing) variant kept as the reference implementation
/// for [`scores_unit_classes`]; production paths use the unit-class form.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn scores_against(class_hvs: &Matrix, h: &[f32]) -> Vec<f32> {
    let hn = norm(h);
    (0..class_hvs.rows())
        .map(|l| {
            let row = class_hvs.row(l);
            let cn = norm(row);
            if hn == 0.0 || cn == 0.0 {
                0.0
            } else {
                (dot(row, h) / (hn * cn)).clamp(-1.0, 1.0)
            }
        })
        .collect()
}

/// The OnlineHD training loop over *pre-encoded* samples. Shared by
/// [`OnlineHd`] (full hyperspace) and the BoostHD weak learners (dimension
/// slices).
///
/// The hot loop runs entirely on the dispatched SIMD kernels
/// ([`linalg::kernels`]): per-class bootstrap bundling (`axpy`, class-
/// parallel when the workload warrants it), a fused *K class rows vs one
/// sample* dot pass per refinement step, `axpy` pull/push updates, and
/// `norm2` refreshes for the two touched classes. All score and norm
/// scratch buffers are allocated once per fit and reused across every
/// sample and epoch.
pub(crate) fn train_class_hvs(
    z: &Matrix,
    y: &[usize],
    sample_scale: &[f32],
    num_classes: usize,
    lr: f32,
    epochs: usize,
    bootstrap: bool,
) -> Matrix {
    use linalg::kernels;

    let n = z.rows();
    let d = z.cols();
    let mut class_hvs = Matrix::zeros(num_classes, d);

    if bootstrap {
        bundle_classes(
            &mut class_hvs,
            z,
            y,
            sample_scale,
            bundling_threads(n, d, num_classes),
        );
    }

    // Cache class norms and sample norms: the inner loop is O(k·D) dots per
    // sample; norms would double that if recomputed every time.
    let mut class_norms: Vec<f32> = (0..num_classes)
        .map(|l| kernels::norm(class_hvs.row(l)))
        .collect();
    let sample_norms: Vec<f32> = (0..n).map(|i| kernels::norm(z.row(i))).collect();
    // One scores buffer for the whole fit instead of per-sample temporaries.
    let mut raw_dots = vec![0.0f32; num_classes];

    for _epoch in 0..epochs {
        for i in 0..n {
            let h = z.row(i);
            let hn = sample_norms[i];
            if hn == 0.0 {
                continue;
            }
            kernels::row_dots_into(&class_hvs, h, &mut raw_dots);
            let mut best = 0usize;
            let mut best_sim = f32::NEG_INFINITY;
            let mut true_sim = 0.0f32;
            for (l, (&raw, &cn)) in raw_dots.iter().zip(class_norms.iter()).enumerate() {
                let sim = if cn == 0.0 {
                    0.0
                } else {
                    (raw / (cn * hn)).clamp(-1.0, 1.0)
                };
                if sim > best_sim {
                    best_sim = sim;
                    best = l;
                }
                if l == y[i] {
                    true_sim = sim;
                }
            }
            if best != y[i] {
                let w = sample_scale[i];
                kernels::axpy(class_hvs.row_mut(y[i]), h, lr * (1.0 - true_sim) * w);
                kernels::axpy(class_hvs.row_mut(best), h, -lr * (1.0 - best_sim) * w);
                class_norms[y[i]] = kernels::norm(class_hvs.row(y[i]));
                class_norms[best] = kernels::norm(class_hvs.row(best));
            }
        }
    }
    class_hvs
}

/// Per-class bootstrap bundling: `class_hvs[y[i]] += scale[i] · z[i]` for
/// every sample, with the class rows split across `threads` workers.
///
/// Each worker owns a disjoint contiguous block of class rows and walks the
/// sample list, bundling only the samples of its classes — every class
/// still accumulates its samples in ascending order, so the result is
/// **bit-identical** to the serial loop for any thread count.
///
/// # Panics
///
/// Panics if `y`/`scale` lengths disagree with `z`, or any label is out of
/// range.
pub(crate) fn bundle_classes(
    class_hvs: &mut Matrix,
    z: &Matrix,
    y: &[usize],
    scale: &[f32],
    threads: usize,
) {
    assert_eq!(z.rows(), y.len(), "bundle label count mismatch");
    assert_eq!(z.rows(), scale.len(), "bundle scale count mismatch");
    let d = class_hvs.cols();
    let num_classes = class_hvs.rows();
    // Validate labels up front so the serial and class-parallel paths fail
    // identically (the parallel workers skip labels they don't own and
    // would otherwise drop an out-of-range sample silently).
    if let Some(&bad) = y.iter().find(|&&yi| yi >= num_classes) {
        panic!("bundle label {bad} outside the {num_classes} classes");
    }
    if threads <= 1 || num_classes <= 1 || d == 0 {
        for (i, &yi) in y.iter().enumerate() {
            linalg::kernels::axpy(class_hvs.row_mut(yi), z.row(i), scale[i]);
        }
        return;
    }
    let workers = threads.min(num_classes);
    let chunk = num_classes.div_ceil(workers);
    let mut rows: Vec<&mut [f32]> = class_hvs.as_mut_slice().chunks_mut(d).collect();
    std::thread::scope(|scope| {
        let mut rest = &mut rows[..];
        let mut class_base = 0usize;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            let base = class_base;
            class_base += take;
            scope.spawn(move || {
                // One pass over the samples per worker: each owned class
                // still sees its samples in ascending order, so this is
                // bit-identical to the serial loop.
                let end = base + head.len();
                for (i, &yi) in y.iter().enumerate() {
                    if yi >= base && yi < end {
                        linalg::kernels::axpy(head[yi - base], z.row(i), scale[i]);
                    }
                }
            });
        }
    });
}

/// Worker count for [`bundle_classes`]: parallel only when the bundling
/// traffic is large enough to amortize thread spawn (results are
/// bit-identical either way, so the threshold is purely a performance
/// knob).
pub(crate) fn bundling_threads(n: usize, d: usize, num_classes: usize) -> usize {
    const MIN_PARALLEL_ELEMENTS: usize = 1 << 21;
    if num_classes < 2 || n.saturating_mul(d) < MIN_PARALLEL_ELEMENTS {
        1
    } else {
        crate::parallel::default_threads().min(num_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated Gaussian blobs.
    fn blobs(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = Rng64::seed_from(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let c = if class == 0 { -1.5 } else { 1.5 };
            rows.push(vec![
                c + 0.4 * rng.normal(),
                c + 0.4 * rng.normal(),
                0.4 * rng.normal(),
            ]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    fn three_blobs(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = Rng64::seed_from(seed);
        let centers = [(-2.0, 0.0), (2.0, 0.0), (0.0, 2.5)];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 3;
            let (cx, cy) = centers[class];
            rows.push(vec![cx + 0.5 * rng.normal(), cy + 0.5 * rng.normal()]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    fn accuracy(model: &impl Classifier, x: &Matrix, y: &[usize]) -> f64 {
        let preds = model.predict_batch(x);
        preds.iter().zip(y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64
    }

    fn small_config() -> OnlineHdConfig {
        OnlineHdConfig {
            dim: 512,
            epochs: 10,
            ..OnlineHdConfig::default()
        }
    }

    #[test]
    fn learns_separable_blobs() {
        let (x, y) = blobs(200, 1);
        let model = OnlineHd::fit(&small_config(), &x, &y).unwrap();
        assert!(accuracy(&model, &x, &y) > 0.97);
    }

    #[test]
    fn learns_three_classes() {
        let (x, y) = three_blobs(240, 2);
        let model = OnlineHd::fit(&small_config(), &x, &y).unwrap();
        assert_eq!(model.num_classes(), 3);
        assert!(accuracy(&model, &x, &y) > 0.95);
    }

    #[test]
    fn generalizes_to_held_out_data() {
        let (xtr, ytr) = blobs(300, 3);
        let (xte, yte) = blobs(100, 99);
        let model = OnlineHd::fit(&small_config(), &xtr, &ytr).unwrap();
        assert!(accuracy(&model, &xte, &yte) > 0.9);
    }

    #[test]
    fn predict_batch_matches_rowwise_predict() {
        let (x, y) = blobs(60, 4);
        let model = OnlineHd::fit(&small_config(), &x, &y).unwrap();
        let batch = model.predict_batch(&x);
        let rowwise: Vec<usize> = (0..x.rows()).map(|r| model.predict(x.row(r))).collect();
        assert_eq!(batch, rowwise);
    }

    #[test]
    fn scores_have_class_count_length() {
        let (x, y) = three_blobs(90, 5);
        let model = OnlineHd::fit(&small_config(), &x, &y).unwrap();
        assert_eq!(model.scores(x.row(0)).len(), 3);
    }

    #[test]
    fn refinement_improves_on_pure_bundling() {
        // Overlapping blobs: plain bundling struggles, refinement helps.
        let mut rng = Rng64::seed_from(6);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..400 {
            let class = i % 2;
            let c = if class == 0 { -0.4 } else { 0.4 };
            rows.push(vec![c + rng.normal(), c + rng.normal()]);
            labels.push(class);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let no_refine = OnlineHd::fit(
            &OnlineHdConfig {
                dim: 1024,
                epochs: 0,
                ..OnlineHdConfig::default()
            },
            &x,
            &labels,
        )
        .unwrap();
        let refined = OnlineHd::fit(
            &OnlineHdConfig {
                dim: 1024,
                epochs: 20,
                ..OnlineHdConfig::default()
            },
            &x,
            &labels,
        )
        .unwrap();
        let a0 = accuracy(&no_refine, &x, &labels);
        let a1 = accuracy(&refined, &x, &labels);
        // Allow a whisker of seed noise; refinement must not collapse and
        // generally matches or improves the bundled model.
        assert!(
            a1 >= a0 - 0.02,
            "refined {a1} should not be clearly worse than bundled {a0}"
        );
    }

    #[test]
    fn weighted_fit_biases_toward_heavy_samples() {
        // Weight class 1 samples 50×: the model should nail class 1 even in
        // an overlapping region.
        let mut rng = Rng64::seed_from(7);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..300 {
            let class = i % 2;
            let c = if class == 0 { -0.3 } else { 0.3 };
            rows.push(vec![c + 0.8 * rng.normal(), c + 0.8 * rng.normal()]);
            labels.push(class);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let weights: Vec<f64> = labels
            .iter()
            .map(|&y| if y == 1 { 50.0 } else { 1.0 })
            .collect();
        let model = OnlineHd::fit_weighted(&small_config(), &x, &labels, Some(&weights)).unwrap();
        let preds = model.predict_batch(&x);
        let recall_1 = preds
            .iter()
            .zip(&labels)
            .filter(|(_, &t)| t == 1)
            .filter(|(p, t)| p == t)
            .count() as f64
            / labels.iter().filter(|&&t| t == 1).count() as f64;
        let recall_0 = preds
            .iter()
            .zip(&labels)
            .filter(|(_, &t)| t == 0)
            .filter(|(p, t)| p == t)
            .count() as f64
            / labels.iter().filter(|&&t| t == 0).count() as f64;
        assert!(
            recall_1 > recall_0,
            "heavy class recall {recall_1} vs {recall_0}"
        );
    }

    #[test]
    fn same_seed_reproduces_model() {
        let (x, y) = blobs(80, 8);
        let a = OnlineHd::fit(&small_config(), &x, &y).unwrap();
        let b = OnlineHd::fit(&small_config(), &x, &y).unwrap();
        assert_eq!(a.class_hypervectors(), b.class_hypervectors());
    }

    #[test]
    fn empty_data_rejected() {
        let x = Matrix::zeros(0, 3);
        let err = OnlineHd::fit(&small_config(), &x, &[]).unwrap_err();
        assert!(matches!(err, BoostHdError::DataMismatch { .. }));
    }

    #[test]
    fn label_count_mismatch_rejected() {
        let (x, _) = blobs(10, 9);
        let err = OnlineHd::fit(&small_config(), &x, &[0, 1]).unwrap_err();
        assert!(matches!(err, BoostHdError::DataMismatch { .. }));
    }

    #[test]
    fn bad_weights_rejected() {
        let (x, y) = blobs(10, 10);
        let w = vec![-1.0; 10];
        assert!(OnlineHd::fit_weighted(&small_config(), &x, &y, Some(&w)).is_err());
        let w = vec![0.0; 10];
        assert!(OnlineHd::fit_weighted(&small_config(), &x, &y, Some(&w)).is_err());
    }

    #[test]
    fn zero_lr_rejected() {
        let (x, y) = blobs(10, 11);
        let config = OnlineHdConfig {
            lr: 0.0,
            ..small_config()
        };
        assert!(matches!(
            OnlineHd::fit(&config, &x, &y),
            Err(BoostHdError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn perturbable_exposes_class_hvs() {
        let (x, y) = blobs(40, 12);
        let mut model = OnlineHd::fit(&small_config(), &x, &y).unwrap();
        let report = model.flip_stored_bits(0.0, &mut Rng64::seed_from(0));
        assert_eq!(report.words, 2 * 512);
    }

    #[test]
    fn streaming_update_adapts_to_shifted_distribution() {
        // Train on one blob geometry, then stream samples from a shifted
        // one: prequential accuracy over the late stream should beat the
        // frozen model's accuracy on the same data.
        let (xtr, ytr) = blobs(200, 30);
        let mut model = OnlineHd::fit(&small_config(), &xtr, &ytr).unwrap();
        let frozen = model.clone();
        // Shifted distribution: same labels, centers moved.
        let mut rng = Rng64::seed_from(31);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..300 {
            let class = i % 2;
            let c = if class == 0 { -0.2 } else { 2.8 }; // shifted from ±1.5
            rows.push(vec![
                c + 0.4 * rng.normal(),
                c + 0.4 * rng.normal(),
                0.4 * rng.normal(),
            ]);
            labels.push(class);
        }
        let xs = Matrix::from_rows(&rows).unwrap();
        model.update_batch(&xs, &labels).unwrap();
        let adapted_acc = accuracy(&model, &xs, &labels);
        let frozen_acc = accuracy(&frozen, &xs, &labels);
        assert!(
            adapted_acc > frozen_acc,
            "adapted {adapted_acc} should beat frozen {frozen_acc}"
        );
    }

    #[test]
    fn update_returns_pre_update_prediction() {
        let (x, y) = blobs(100, 32);
        let mut model = OnlineHd::fit(&small_config(), &x, &y).unwrap();
        let before = model.predict(x.row(0));
        let returned = model.update(x.row(0), y[0]).unwrap();
        assert_eq!(before, returned);
    }

    #[test]
    fn update_rejects_bad_inputs() {
        let (x, y) = blobs(50, 33);
        let mut model = OnlineHd::fit(&small_config(), &x, &y).unwrap();
        assert!(model.update(&[0.0; 7], 0).is_err(), "wrong feature count");
        assert!(model.update(x.row(0), 99).is_err(), "unknown class");
        let empty = Matrix::zeros(0, 3);
        assert!(model.update_batch(&empty, &[]).is_err());
    }

    #[test]
    fn correct_prediction_leaves_model_unchanged() {
        let (x, y) = blobs(100, 34);
        let mut model = OnlineHd::fit(&small_config(), &x, &y).unwrap();
        // Find a correctly classified sample.
        let idx = (0..x.rows())
            .find(|&r| model.predict(x.row(r)) == y[r])
            .expect("some sample is classified correctly");
        let before = model.class_hypervectors().clone();
        model.update(x.row(idx), y[idx]).unwrap();
        assert_eq!(&before, model.class_hypervectors());
    }

    #[test]
    fn bipolar_quantization_keeps_most_accuracy() {
        let (x, y) = blobs(200, 35);
        let mut model = OnlineHd::fit(
            &OnlineHdConfig {
                dim: 2048,
                epochs: 10,
                ..OnlineHdConfig::default()
            },
            &x,
            &y,
        )
        .unwrap();
        let full_acc = accuracy(&model, &x, &y);
        model.quantize_bipolar();
        // Every stored component is now ±1/√D.
        let d = model.dim();
        let expected = 1.0 / (d as f32).sqrt();
        for v in model.class_hypervectors().as_slice() {
            assert!((v.abs() - expected).abs() < 1e-5);
        }
        let quant_acc = accuracy(&model, &x, &y);
        assert!(
            quant_acc > full_acc - 0.05,
            "bipolar {quant_acc} vs full {full_acc}"
        );
    }

    #[test]
    fn unit_class_scorer_matches_general_scorer_after_normalization() {
        let mut rng = Rng64::seed_from(21);
        let mut class_hvs = Matrix::random_normal(4, 64, &mut rng);
        let h: Vec<f32> = (0..64).map(|_| rng.normal()).collect();
        let general = scores_against(&class_hvs, &h);
        normalize_rows(&mut class_hvs);
        let fast = scores_unit_classes(&class_hvs, &h);
        for (a, b) in general.iter().zip(&fast) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn normalize_weights_uniform_gives_ones() {
        let w = normalize_weights(None, 4);
        assert_eq!(w, vec![1.0; 4]);
        let w = normalize_weights(Some(&[0.25, 0.25, 0.25, 0.25]), 4);
        assert!(w.iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    #[test]
    fn parallel_class_bundling_is_bit_identical_to_serial() {
        let mut rng = Rng64::seed_from(40);
        let z = Matrix::random_normal(120, 96, &mut rng);
        let y: Vec<usize> = (0..120).map(|i| i % 5).collect();
        let scale: Vec<f32> = (0..120).map(|i| 0.5 + (i % 7) as f32 * 0.25).collect();
        let mut serial = Matrix::zeros(5, 96);
        bundle_classes(&mut serial, &z, &y, &scale, 1);
        for threads in [2usize, 3, 5, 8] {
            let mut parallel = Matrix::zeros(5, 96);
            bundle_classes(&mut parallel, &z, &y, &scale, threads);
            assert_eq!(serial, parallel, "threads {threads}");
        }
    }

    #[test]
    fn normalize_weights_preserves_ratios() {
        let w = normalize_weights(Some(&[1.0, 3.0]), 2);
        assert!((w[1] / w[0] - 3.0).abs() < 1e-5);
        assert!((w.iter().sum::<f32>() - 2.0).abs() < 1e-5);
    }
}
