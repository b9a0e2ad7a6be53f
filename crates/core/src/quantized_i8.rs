//! Scaled-integer (int8) frozen inference models — the middle rung of the
//! quantization ladder.
//!
//! The 1-bit tier in [`crate::quantized`] shrinks models 32× but pays for
//! it in sign-rounding noise; the f32 tier keeps full fidelity at 4 bytes
//! per dimension. This module adds the intermediate point the wearable
//! accelerator literature actually ships: **symmetric per-row int8**. Each
//! trained class hypervector row is scaled by `s = max|v| / 127` and
//! rounded to `q = round(v / s) ∈ [-127, 127]`, so a model stores one
//! signed byte per dimension plus one f32 scale per class row — a ~4×
//! shrink with quantization error bounded by half a step per component.
//!
//! Scoring stays a faithful cosine approximation. With class row
//! `c ≈ s_c · q_c` and encoded query `h ≈ s_h · q_h`,
//!
//! ```text
//! cos(c, h) = (c · h) / (‖c‖ ‖h‖) ≈ dot_i8(q_c, q_h) · s_h / (‖q_c‖ ‖h‖)
//! ```
//!
//! — the class scale `s_c` cancels, so the score is exact in the class
//! row's magnitude and only approximate in its *direction* (and the
//! query's). The integer dot runs through the runtime-dispatched
//! [`linalg::kernels::dot_i8`] `maddubs` kernel, which is bit-exact across
//! dispatch levels, so int8 predictions are identical on AVX2 and scalar
//! hosts. The per-row inverse norms `1/‖q_c‖` are derived from the stored
//! bytes (never persisted), so a save → load round trip reproduces scores
//! bit-for-bit.
//!
//! This module is the [`ClassMemory`] impl for [`I8Rows`]; the frozen
//! shapes over it are [`QuantizedI8Hd`] and [`QuantizedI8BoostHd`]
//! ([`crate::frozen`]). Bit-flip injection lands on the two's-complement
//! byte encoding of stored components ([`faults::StoredBits::I8`]) — the
//! faithful single-event-upset model for int8 weight memories, where one
//! upset perturbs one component by a power of two instead of an f32
//! exponent blow-up — and re-derives the norms afterwards, as a deployed
//! loader would.
//!
//! # Quantization-aware refit
//!
//! As with the 1-bit tier, refit epochs run straight-through
//! refinement: queries are scored against the *int8* class rows (exactly
//! what deployment will do) while OnlineHD updates accumulate in f32
//! shadow weights, and every touched row is re-quantized immediately. At
//! int8 the data-free rounding loss is already small, so refit is a
//! polish rather than a rescue.

use crate::boost::BoostHd;
use crate::error::{BoostHdError, Result};
use crate::frozen::{ClassMemory, Ensemble, Single};
use crate::online::OnlineHd;
use crate::persist::{Reader, Writer};
use crate::pipeline::PayloadKind;
use crate::CentroidHd;
use faults::StoredBits;
use linalg::kernels::dot_i8;
use linalg::matrix::norm;
use linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Symmetric per-row quantizer: fills `out` with
/// `round(v · 127 / max|v|)` clamped to `[-127, 127]` and returns the
/// dequantization scale `max|v| / 127`. An all-zero (or non-finite) row
/// quantizes to all zeros with scale `0.0`.
pub(crate) fn quantize_row_into(src: &[f32], out: &mut Vec<i8>) -> f32 {
    out.clear();
    out.resize(src.len(), 0);
    // Two branch-free (vectorizable) passes: `f32::max` silently drops NaN
    // operands, so finiteness is tracked separately instead of folded into
    // the maximum.
    let max_abs = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let all_finite = src.iter().fold(true, |ok, &v| ok & v.is_finite());
    if !(max_abs > 0.0 && max_abs.is_finite() && all_finite) {
        return 0.0;
    }
    let inv = 127.0 / max_abs;
    linalg::kernels::quantize_scale_i8(src, inv, out);
    max_abs / 127.0
}

/// A row-major block of int8-quantized class rows: one signed byte per
/// element, one dequantization scale per row, plus derived (never
/// persisted) per-row inverse integer norms used by the cosine
/// approximation (see the [module docs](self)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct I8Rows {
    data: Vec<i8>,
    scales: Vec<f32>,
    inv_qnorms: Vec<f32>,
    cols: usize,
}

impl I8Rows {
    /// Reassembles rows from stored parts, re-deriving the inverse norms
    /// from the bytes; fails unless `data` is `scales.len() × cols`.
    pub(crate) fn from_parts(data: Vec<i8>, scales: Vec<f32>, cols: usize) -> Result<Self> {
        if cols == 0 || data.len() != scales.len() * cols {
            return Err(BoostHdError::DataMismatch {
                reason: format!(
                    "int8 payload holds {} bytes, expected {} rows x {} cols",
                    data.len(),
                    scales.len(),
                    cols
                ),
            });
        }
        let mut rows = Self {
            data,
            scales,
            inv_qnorms: Vec::new(),
            cols,
        };
        rows.refresh_inv_qnorms();
        Ok(rows)
    }

    #[cfg(test)]
    pub(crate) fn data(&self) -> &[i8] {
        &self.data
    }

    #[cfg(test)]
    pub(crate) fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Recomputes the derived `1/‖q_r‖` cache from the stored bytes —
    /// required after any in-place mutation of `data` (fault injection).
    fn refresh_inv_qnorms(&mut self) {
        let cols = self.cols.max(1);
        self.inv_qnorms = self.data.chunks(cols).map(inv_qnorm).collect();
    }

    /// The integer-dot sweep alone: scores an already-quantized query
    /// (bytes `q`, combined cosine factor `f`) against every stored row.
    /// Exactly the arithmetic [`ClassMemory::score_row`] performs after
    /// quantizing, so pre-quantized and on-the-fly scoring agree
    /// bit-for-bit.
    fn scores_quantized_into(&self, q: &[i8], f: f32, out: &mut [f32]) {
        debug_assert_eq!(q.len(), self.cols);
        debug_assert_eq!(out.len(), self.scales.len());
        if f == 0.0 {
            out.fill(0.0);
            return;
        }
        let rows = self.data.chunks(self.cols).zip(&self.inv_qnorms);
        for (o, (row, &inv_qnorm)) in out.iter_mut().zip(rows) {
            *o = dot_i8(row, q) as f32 * inv_qnorm * f;
        }
    }
}

/// `1/‖q‖` of one stored byte row (`0.0` for an all-zero row).
fn inv_qnorm(row: &[i8]) -> f32 {
    let n2: i64 = row.iter().map(|&q| (q as i64) * (q as i64)).sum();
    if n2 == 0 {
        0.0
    } else {
        (1.0 / (n2 as f64).sqrt()) as f32
    }
}

/// Symmetric per-row int8 rows; scores approximate cosines.
impl ClassMemory for I8Rows {
    /// The quantized query bytes.
    type Scratch = Vec<i8>;
    const SINGLE: PayloadKind = PayloadKind::QuantizedI8Hd;
    const ENSEMBLE: PayloadKind = PayloadKind::QuantizedI8BoostHd;

    fn from_dense(classes: &Matrix) -> Self {
        let (rows, cols) = (classes.rows(), classes.cols());
        let mut frozen = Self {
            data: vec![0; rows * cols],
            scales: vec![0.0; rows],
            inv_qnorms: vec![0.0; rows],
            cols,
        };
        let mut qbuf = Vec::new();
        for r in 0..rows {
            frozen.set_row(r, classes.row(r), &mut qbuf);
        }
        frozen
    }

    fn rows(&self) -> usize {
        self.scales.len()
    }

    fn dim(&self) -> usize {
        self.cols
    }

    fn score_row(&self, h: &[f32], qbuf: &mut Vec<i8>, out: &mut [f32]) {
        debug_assert_eq!(h.len(), self.cols);
        let f = query_factor(h, qbuf);
        self.scores_quantized_into(qbuf, f, out);
    }

    fn set_row(&mut self, r: usize, src: &[f32], qbuf: &mut Vec<i8>) {
        self.scales[r] = quantize_row_into(src, qbuf);
        let cols = self.cols;
        let row = &mut self.data[r * cols..(r + 1) * cols];
        row.copy_from_slice(qbuf);
        self.inv_qnorms[r] = inv_qnorm(row);
    }

    /// The `i8` grid plus one f32 scale per row (derived norms excluded —
    /// they are recomputed at load).
    fn storage_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// One store per memory: the byte grid (the per-row scales are
    /// metadata, not per-dimension memory).
    fn stored_bits<'a>(memories: Vec<&'a mut Self>) -> Vec<Vec<StoredBits<'a>>> {
        memories
            .into_iter()
            .map(|m| vec![StoredBits::I8(&mut m.data)])
            .collect()
    }

    fn refresh(&mut self) {
        self.refresh_inv_qnorms();
    }

    fn put(&self, w: &mut Writer) {
        w.put_u64(self.scales.len() as u64);
        w.put_u64(self.cols as u64);
        w.put_f32_slice(&self.scales);
        w.put_i8_slice(&self.data);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let rows = r.get_len()?;
        let cols = r.get_len()?;
        let scales = r.get_f32_vec()?;
        let data = r.get_i8_vec()?;
        if scales.len() != rows {
            return Err(BoostHdError::DataMismatch {
                reason: "int8 scale count disagrees with row count".into(),
            });
        }
        I8Rows::from_parts(data, scales, cols)
    }
}

/// Quantizes encoded query `h` into `qbuf` and returns its combined cosine
/// factor `s_h / ‖h‖` — `0.0` for degenerate (zero or non-finite) queries,
/// in which case every score is defined as `0.0`.
fn query_factor(h: &[f32], qbuf: &mut Vec<i8>) -> f32 {
    let hn = norm(h);
    let qscale = quantize_row_into(h, qbuf);
    if hn == 0.0 || qscale == 0.0 || !hn.is_finite() {
        0.0
    } else {
        qscale / hn
    }
}

/// An encoded query pre-quantized for the int8 associative-memory sweep:
/// the signed-byte vector plus its combined cosine factor `s_h / ‖h‖`.
///
/// Quantizing the query costs several f32 passes over `D` values; the
/// integer-dot sweep it feeds costs one byte-pass per class row. When one
/// query is scored against many int8 memories — BoostHD weak learners, a
/// per-patient model fleet, or a throughput benchmark's class-memory sweep
/// — preparing the query once and reusing it amortizes that cost away,
/// exactly like [`hdc::backend::PackedHv`] does for the 1-bit tier.
/// `QuantizedI8Hd::scores_quantized_into` consumes it; results are
/// bit-identical to `QuantizedI8Hd::scores_encoded` on the same `h`.
#[derive(Debug, Clone)]
pub struct QuantizedI8Query {
    q: Vec<i8>,
    f: f32,
}

impl QuantizedI8Query {
    /// Quantizes an already-encoded hypervector (degenerate inputs yield a
    /// query that scores `0.0` everywhere, matching the dense paths).
    pub fn from_encoded(h: &[f32]) -> Self {
        let mut q = Vec::new();
        let f = query_factor(h, &mut q);
        Self { q, f }
    }

    /// Hyperspace dimensionality `D` of the quantized query.
    pub fn dim(&self) -> usize {
        self.q.len()
    }
}

/// A frozen single-learner HDC classifier with int8 class hypervectors
/// (quantized [`OnlineHd`] or [`CentroidHd`]).
pub type QuantizedI8Hd = Single<I8Rows>;

/// A frozen BoostHD ensemble with int8 weak learners.
///
/// Inference encodes the query once at full `D` with the f32 projection,
/// quantizes each weak learner's segment independently (each segment gets
/// its own query scale), and aggregates `α`-weighted integer-dot cosine
/// votes.
pub type QuantizedI8BoostHd = Ensemble<I8Rows>;

impl QuantizedI8Hd {
    #[cfg(test)]
    pub(crate) fn classes(&self) -> &I8Rows {
        &self.memory
    }

    /// Per-class similarities for a pre-quantized query — the integer-dot
    /// sweep alone, bit-identical to `scores_encoded` on the hypervector
    /// the query was built from. Use when one query is scored against
    /// several int8 memories (see [`QuantizedI8Query`]).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the query dimensionality disagrees with
    /// the model's.
    pub fn scores_quantized_into(&self, query: &QuantizedI8Query, out: &mut [f32]) {
        self.memory.scores_quantized_into(&query.q, query.f, out);
    }
}

impl OnlineHd {
    /// Freezes the trained model into a scaled-integer inference model:
    /// class hypervectors quantized to symmetric per-row int8, scoring via
    /// the widening integer dot kernel. See the [module docs](self).
    pub fn quantize_i8(&self) -> QuantizedI8Hd {
        self.single.freeze()
    }
}

impl CentroidHd {
    /// Freezes the trained model into a scaled-integer inference model;
    /// see [`OnlineHd::quantize_i8`].
    pub fn quantize_i8(&self) -> QuantizedI8Hd {
        self.freeze()
    }
}

impl BoostHd {
    /// Freezes the trained ensemble into a scaled-integer inference model:
    /// every weak learner's class hypervectors quantized to symmetric
    /// per-row int8, votes scored via the widening integer dot. See the
    /// [module docs](self).
    pub fn quantize_i8(&self) -> QuantizedI8BoostHd {
        self.ensemble.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boost::BoostHdConfig;
    use crate::classifier::Classifier;
    use crate::online::OnlineHdConfig;
    use hdc::encoder::Encode;
    use linalg::Rng64;

    fn blobs(n: usize, seed: u64, sep: f32, noise: f32) -> (Matrix, Vec<usize>) {
        let mut rng = Rng64::seed_from(seed);
        let centers = [(-1.0f32, -1.0f32), (1.0, 1.0), (-1.0, 1.0)];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 3;
            let (cx, cy) = centers[class];
            rows.push(vec![
                cx * sep + noise * rng.normal(),
                cy * sep + noise * rng.normal(),
                noise * rng.normal(),
            ]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    fn accuracy(model: &impl Classifier, x: &Matrix, y: &[usize]) -> f64 {
        model
            .predict_batch(x)
            .iter()
            .zip(y)
            .filter(|(p, t)| p == t)
            .count() as f64
            / y.len() as f64
    }

    #[test]
    fn quantize_row_handles_degenerate_inputs() {
        let mut q = Vec::new();
        assert_eq!(quantize_row_into(&[0.0, 0.0, 0.0], &mut q), 0.0);
        assert_eq!(q, vec![0, 0, 0]);
        assert_eq!(quantize_row_into(&[f32::NAN, 1.0], &mut q), 0.0);
        assert_eq!(q, vec![0, 0]);
        let scale = quantize_row_into(&[-2.0, 1.0, 0.5], &mut q);
        assert!((scale - 2.0 / 127.0).abs() < 1e-9);
        assert_eq!(q, vec![-127, 64, 32]);
    }

    #[test]
    fn quantize_row_error_is_within_half_step() {
        let mut rng = Rng64::seed_from(5);
        let src: Vec<f32> = (0..1000).map(|_| rng.normal()).collect();
        let mut q = Vec::new();
        let scale = quantize_row_into(&src, &mut q);
        for (&v, &qi) in src.iter().zip(q.iter()) {
            assert!(qi != i8::MIN);
            let err = (v - scale * qi as f32).abs();
            assert!(
                err <= 0.5 * scale * (1.0 + 1e-4),
                "err {err} exceeds half step {}",
                0.5 * scale
            );
        }
    }

    #[test]
    fn i8_scores_track_f32_scores() {
        // Satellite property: the int8 cosine approximation must stay
        // within a small absolute band of the f32 scores — quantization
        // error is bounded by half a step per component in both operands.
        let (x, y) = blobs(240, 1, 1.0, 0.35);
        let config = OnlineHdConfig {
            dim: 2048,
            epochs: 10,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let quantized = model.quantize_i8();
        let f32_scores = model.scores_batch(&x);
        let i8_scores = quantized.scores_batch(&x);
        let mut max_err = 0.0f32;
        for r in 0..x.rows() {
            for (a, b) in f32_scores.row(r).iter().zip(i8_scores.row(r)) {
                max_err = max_err.max((a - b).abs());
            }
        }
        assert!(
            max_err < 0.05,
            "int8 scores drifted {max_err} from f32 cosine"
        );
    }

    #[test]
    fn prequantized_queries_score_bit_identically() {
        let (x, y) = blobs(120, 12, 1.0, 0.4);
        let config = OnlineHdConfig {
            dim: 512,
            epochs: 4,
            ..Default::default()
        };
        let quantized = OnlineHd::fit(&config, &x, &y).unwrap().quantize_i8();
        let mut out = vec![0.0f32; quantized.num_classes()];
        for r in 0..x.rows() {
            let h = quantized.encoder().encode_row(x.row(r));
            let query = QuantizedI8Query::from_encoded(&h);
            assert_eq!(query.dim(), quantized.dim());
            quantized.scores_quantized_into(&query, &mut out);
            assert_eq!(out, quantized.scores_encoded(&h), "row {r}");
        }
        // Degenerate queries score 0.0 everywhere on both paths.
        let zero = QuantizedI8Query::from_encoded(&vec![0.0f32; quantized.dim()]);
        quantized.scores_quantized_into(&zero, &mut out);
        assert_eq!(out, vec![0.0; quantized.num_classes()]);
    }

    #[test]
    fn quantized_i8_onlinehd_tracks_f32_accuracy() {
        let (x, y) = blobs(240, 1, 1.0, 0.35);
        let config = OnlineHdConfig {
            dim: 2048,
            epochs: 10,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let quantized = model.quantize_i8();
        let full = accuracy(&model, &x, &y);
        let quant = accuracy(&quantized, &x, &y);
        assert!(quant > full - 0.02, "int8 {quant} vs f32 {full}");
        assert_eq!(quantized.num_classes(), 3);
        assert_eq!(quantized.dim(), 2048);
    }

    #[test]
    fn quantized_i8_boosthd_tracks_f32_accuracy() {
        let (x, y) = blobs(240, 2, 1.0, 0.35);
        let config = BoostHdConfig {
            dim_total: 2048,
            n_learners: 8,
            epochs: 8,
            ..Default::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        let quantized = model.quantize_i8();
        let full = accuracy(&model, &x, &y);
        let quant = accuracy(&quantized, &x, &y);
        assert!(quant > full - 0.02, "int8 {quant} vs f32 {full}");
        assert_eq!(quantized.num_learners(), 8);
        assert_eq!(quantized.alphas(), model.alphas());
    }

    #[test]
    fn i8_batch_matches_rowwise() {
        let (x, y) = blobs(90, 3, 1.0, 0.4);
        let config = BoostHdConfig {
            dim_total: 640,
            n_learners: 8,
            epochs: 6,
            ..Default::default()
        };
        let quantized = BoostHd::fit(&config, &x, &y).unwrap().quantize_i8();
        let batch = quantized.predict_batch(&x);
        let rowwise: Vec<usize> = (0..x.rows()).map(|r| quantized.predict(x.row(r))).collect();
        assert_eq!(batch, rowwise);
        assert_eq!(batch, quantized.predict_batch_parallel(&x, 4));
    }

    #[test]
    fn quantized_i8_centroid_works() {
        let (x, y) = blobs(120, 4, 1.2, 0.3);
        let config = crate::CentroidHdConfig {
            dim: 1024,
            ..Default::default()
        };
        let model = CentroidHd::fit(&config, &x, &y).unwrap();
        let quantized = model.quantize_i8();
        assert!(accuracy(&quantized, &x, &y) > 0.9);
    }

    #[test]
    fn quantized_i8_full_dimension_mode_works() {
        use crate::boost::EnsembleMode;
        let (x, y) = blobs(120, 5, 1.0, 0.4);
        let config = BoostHdConfig {
            dim_total: 256,
            n_learners: 4,
            epochs: 5,
            mode: EnsembleMode::FullDimension,
            ..Default::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        let quantized = model.quantize_i8();
        assert!(accuracy(&quantized, &x, &y) > 0.85);
        assert_eq!(
            quantized.predict_batch(&x),
            quantized.predict_batch_parallel(&x, 3)
        );
    }

    #[test]
    fn storage_shrinks_about_4x_versus_f32_classes() {
        let (x, y) = blobs(90, 6, 1.0, 0.4);
        let config = BoostHdConfig {
            dim_total: 640,
            n_learners: 5,
            epochs: 4,
            ..Default::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        let quantized = model.quantize_i8();
        let f32_bytes: usize = (0..model.num_learners())
            .map(|i| model.learner_class_hypervectors(i).as_slice().len() * 4)
            .sum();
        let i8_bytes = quantized.class_storage_bytes();
        // One byte per element plus one f32 scale per class row: just
        // under 4× for any realistic D_wl.
        assert!(i8_bytes * 3 < f32_bytes && f32_bytes < i8_bytes * 5);
    }

    #[test]
    fn i8_refit_improves_or_matches_data_free_quantization() {
        let (x, y) = blobs(300, 10, 0.7, 0.55);
        let config = BoostHdConfig {
            dim_total: 320,
            n_learners: 8,
            epochs: 8,
            ..Default::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        let plain = accuracy(&model.quantize_i8(), &x, &y);
        let refit = accuracy(
            &model
                .ensemble
                .refit::<I8Rows>(&x, &y, config.lr, 5)
                .unwrap(),
            &x,
            &y,
        );
        assert!(
            refit >= plain,
            "refit {refit} should not trail data-free {plain}"
        );
        // Zero refit epochs degenerates to data-free quantization.
        let zero = model
            .ensemble
            .refit::<I8Rows>(&x, &y, config.lr, 0)
            .unwrap();
        assert_eq!(
            zero.predict_batch(&x),
            model.quantize_i8().predict_batch(&x)
        );
    }

    #[test]
    fn i8_refit_rejects_bad_inputs() {
        let (x, y) = blobs(60, 11, 1.0, 0.4);
        let config = OnlineHdConfig {
            dim: 256,
            epochs: 4,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let refit = |x: &Matrix, y: &[usize]| model.single.refit::<I8Rows>(x, y, config.lr, 3);
        let empty = Matrix::zeros(0, 3);
        assert!(refit(&empty, &[]).is_err());
        assert!(refit(&x, &y[..10]).is_err());
        let bad_labels = vec![99usize; y.len()];
        assert!(refit(&x, &bad_labels).is_err());
    }

    #[test]
    fn i8_bitflips_land_on_stored_bytes() {
        let (x, y) = blobs(120, 7, 1.0, 0.4);
        let config = BoostHdConfig {
            dim_total: 640,
            n_learners: 8,
            epochs: 6,
            ..Default::default()
        };
        let mut quantized = BoostHd::fit(&config, &x, &y).unwrap().quantize_i8();
        let before = quantized.clone();
        let mut rng = Rng64::seed_from(0);
        let report = quantized.flip_stored_bits(0.01, &mut rng);
        assert!(report.flipped > 0);
        let changed = (0..quantized.num_learners())
            .any(|i| quantized.learners[i].memory.data() != before.learners[i].memory.data());
        assert!(changed);
        // Scoring a corrupted model must not panic even if a flip produced
        // -128 somewhere in the stored bytes.
        let _ = quantized.predict_batch(&x);
    }

    #[test]
    fn i8_ensemble_absorbs_moderate_bitflips() {
        let (x, y) = blobs(240, 8, 1.0, 0.35);
        let config = BoostHdConfig {
            dim_total: 2048,
            n_learners: 8,
            epochs: 8,
            ..Default::default()
        };
        let quantized = BoostHd::fit(&config, &x, &y).unwrap().quantize_i8();
        let clean = accuracy(&quantized, &x, &y);
        let mut corrupted = quantized.clone();
        let mut rng = Rng64::seed_from(3);
        corrupted.flip_stored_bits(1e-4, &mut rng);
        let faulty = accuracy(&corrupted, &x, &y);
        assert!(
            faulty > clean - 0.05,
            "sparse int8 flips should be absorbed: {clean} -> {faulty}"
        );
    }

    #[test]
    fn from_parts_validates_shapes() {
        let (x, y) = blobs(60, 9, 1.0, 0.4);
        let config = OnlineHdConfig {
            dim: 128,
            epochs: 3,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let q = model.quantize_i8();
        // Wrong class count must be rejected.
        let rows = I8Rows::from_parts(
            q.classes().data().to_vec(),
            q.classes().scales().to_vec(),
            128,
        )
        .unwrap();
        assert!(QuantizedI8Hd::from_parts(q.encoder().clone(), rows, 7).is_err());
        // Inconsistent byte payload must be rejected.
        assert!(I8Rows::from_parts(vec![0i8; 10], vec![0.1; 3], 4).is_err());
    }
}
