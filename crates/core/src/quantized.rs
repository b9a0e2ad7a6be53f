//! The 1-bit rung of the quantization ladder — the `quantize()` step.
//!
//! Training stays in f32 (gradient-like OnlineHD updates need magnitude
//! information), but a *deployed* model only scores queries. Sign-binarizing
//! the trained class hypervectors and packing them into `u64` words
//! ([`hdc::PackedMatrix`]) shrinks the stored model 32× and turns
//! every similarity into `⌈D/64⌉` XOR + popcount operations — the binary-HDC
//! execution model wearable accelerators implement in hardware.
//!
//! This module is the [`ClassMemory`] impl for [`PackedMatrix`]; the frozen
//! shapes over it are [`QuantizedHd`] and [`QuantizedBoostHd`]
//! ([`crate::frozen`]). [`OnlineHd::quantize`], [`CentroidHd::quantize`] and
//! [`BoostHd::quantize`] freeze a trained f32 model into them. Queries are
//! encoded with the unchanged f32 projection, sign-packed, and scored
//! entirely in the packed domain, so class *and* query quantization noise
//! are both bounded by the sign rounding — the packed arithmetic itself is
//! exact (see `hdc::ops::packed_similarity`).
//!
//! For fault-injection studies the packed memories list their words as
//! packed sign rows ([`faults::StoredBits::Signs`]): bit flips land
//! directly on the stored `u64` words, a more faithful single-event-upset
//! model for 1-bit memories than f32 mantissa flips.
//!
//! # Quantization-aware refit
//!
//! Plain sign binarization is data-free but lossy when the per-learner
//! dimensionality is small (similarity noise grows like `1/√D_wl`). A
//! quantized spec's `refit_epochs` (or [`crate::Pipeline::freeze`] with
//! refit data) runs a few straight-through refinement epochs before
//! freezing: queries are scored against the *binarized* class vectors
//! (exactly what deployment will do; each BoostHD learner on its own
//! segment) while the OnlineHD update accumulates in f32 shadow weights,
//! whose signs re-binarize after every touched update. On the wearable
//! workloads this recovers most of the sign-rounding loss at
//! `D_wl = 400`. A handful of epochs suffices; long refits start fitting
//! quantization noise.

use crate::boost::BoostHd;
use crate::error::Result;
use crate::frozen::{ClassMemory, Ensemble, Single};
use crate::online::OnlineHd;
use crate::persist::{Reader, Writer};
use crate::pipeline::PayloadKind;
use crate::CentroidHd;
use faults::StoredBits;
use hdc::backend::{PackedHv, PackedMatrix};
use linalg::Matrix;

/// A frozen single-learner HDC classifier with bitpacked class
/// hypervectors (quantized [`OnlineHd`] or [`CentroidHd`]).
pub type QuantizedHd = Single<PackedMatrix>;

/// A frozen BoostHD ensemble with bitpacked weak learners.
///
/// Inference encodes the query once at full `D` with the f32 projection,
/// sign-packs each weak learner's segment, and aggregates `α`-weighted
/// popcount votes.
pub type QuantizedBoostHd = Ensemble<PackedMatrix>;

/// Sign-packed class rows; scores are `1 − 2·hamming/D`, the cosine of
/// the bipolar vectors.
impl ClassMemory for PackedMatrix {
    /// The packed query words.
    type Scratch = Vec<u64>;
    const SINGLE: PayloadKind = PayloadKind::QuantizedHd;
    const ENSEMBLE: PayloadKind = PayloadKind::QuantizedBoostHd;

    fn from_dense(classes: &Matrix) -> Self {
        PackedMatrix::from_dense_rows(classes)
    }

    fn rows(&self) -> usize {
        PackedMatrix::rows(self)
    }

    fn dim(&self) -> usize {
        PackedMatrix::dim(self)
    }

    fn score_row(&self, h: &[f32], words: &mut Vec<u64>, out: &mut [f32]) {
        hdc::ops::pack_signs_into(h, words);
        self.similarities_into(words, out);
    }

    fn set_row(&mut self, r: usize, src: &[f32], _: &mut Vec<u64>) {
        self.set_row_signs(r, src);
    }

    fn storage_bytes(&self) -> usize {
        std::mem::size_of_val(self.as_words())
    }

    /// One store for all memories: an ensemble's sign rows are walked as
    /// one run of valid bits.
    fn stored_bits<'a>(memories: Vec<&'a mut Self>) -> Vec<Vec<StoredBits<'a>>> {
        let rows = memories.into_iter().map(|m| StoredBits::Signs {
            dim: m.dim(),
            words: m.as_words_mut(),
        });
        vec![rows.collect()]
    }

    fn put(&self, w: &mut Writer) {
        w.put_packed_matrix(self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.get_packed_matrix()
    }
}

impl QuantizedHd {
    /// The packed class hypervectors.
    pub fn class_bits(&self) -> &PackedMatrix {
        &self.memory
    }

    /// Per-class popcount similarities for an already-packed query.
    pub fn scores_packed(&self, query: &PackedHv) -> Vec<f32> {
        self.memory.similarities(query)
    }
}

impl OnlineHd {
    /// Freezes the trained model into a bitpacked inference model: class
    /// hypervectors sign-quantized into packed words, scoring via popcount.
    pub fn quantize(&self) -> QuantizedHd {
        self.single.freeze()
    }
}

impl CentroidHd {
    /// Freezes the trained model into a bitpacked inference model; see
    /// [`OnlineHd::quantize`].
    pub fn quantize(&self) -> QuantizedHd {
        self.freeze()
    }
}

impl BoostHd {
    /// Freezes the trained ensemble into a bitpacked inference model: every
    /// weak learner's class hypervectors sign-quantized into packed words,
    /// votes scored via popcount. See the [module docs](self).
    pub fn quantize(&self) -> QuantizedBoostHd {
        self.ensemble.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boost::BoostHdConfig;
    use crate::classifier::Classifier;
    use crate::online::OnlineHdConfig;
    use hdc::encoder::SinusoidEncoder;
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
    fn quantized_onlinehd_tracks_f32_accuracy() {
        let (x, y) = blobs(240, 1, 1.0, 0.35);
        let config = OnlineHdConfig {
            dim: 2048,
            epochs: 10,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let quantized = model.quantize();
        let full = accuracy(&model, &x, &y);
        let quant = accuracy(&quantized, &x, &y);
        assert!(quant > full - 0.05, "quantized {quant} vs f32 {full}");
        assert_eq!(quantized.num_classes(), 3);
        assert_eq!(quantized.dim(), 2048);
    }

    #[test]
    fn quantized_boosthd_tracks_f32_accuracy() {
        let (x, y) = blobs(240, 2, 1.0, 0.35);
        let config = BoostHdConfig {
            dim_total: 2048,
            n_learners: 8,
            epochs: 8,
            ..Default::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        let quantized = model.quantize();
        let full = accuracy(&model, &x, &y);
        let quant = accuracy(&quantized, &x, &y);
        assert!(quant > full - 0.05, "quantized {quant} vs f32 {full}");
        assert_eq!(quantized.num_learners(), 8);
        assert_eq!(quantized.alphas(), model.alphas());
    }

    #[test]
    fn packed_batch_matches_rowwise() {
        let (x, y) = blobs(90, 3, 1.0, 0.4);
        let config = BoostHdConfig {
            dim_total: 640,
            n_learners: 8,
            epochs: 6,
            ..Default::default()
        };
        let quantized = BoostHd::fit(&config, &x, &y).unwrap().quantize();
        let batch = quantized.predict_batch(&x);
        let rowwise: Vec<usize> = (0..x.rows()).map(|r| quantized.predict(x.row(r))).collect();
        assert_eq!(batch, rowwise);
        assert_eq!(batch, quantized.predict_batch_parallel(&x, 4));
    }

    #[test]
    fn quantized_centroid_works() {
        let (x, y) = blobs(120, 4, 1.2, 0.3);
        let config = crate::CentroidHdConfig {
            dim: 1024,
            ..Default::default()
        };
        let model = CentroidHd::fit(&config, &x, &y).unwrap();
        let quantized = model.quantize();
        assert!(accuracy(&quantized, &x, &y) > 0.9);
    }

    #[test]
    fn quantized_full_dimension_mode_works() {
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
        let quantized = model.quantize();
        assert!(accuracy(&quantized, &x, &y) > 0.85);
        assert_eq!(
            quantized.predict_batch(&x),
            quantized.predict_batch_parallel(&x, 3)
        );
    }

    #[test]
    fn storage_shrinks_32x_versus_f32_classes() {
        let (x, y) = blobs(90, 6, 1.0, 0.4);
        let config = BoostHdConfig {
            dim_total: 640,
            n_learners: 5,
            epochs: 4,
            ..Default::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        let quantized = model.quantize();
        let f32_bytes: usize = (0..model.num_learners())
            .map(|i| model.learner_class_hypervectors(i).as_slice().len() * 4)
            .sum();
        // 640/5 = 128 dims per learner → no padding → exactly 32×.
        assert_eq!(f32_bytes, 32 * quantized.class_storage_bytes());
    }

    #[test]
    fn refit_improves_or_matches_data_free_quantization() {
        // Dimension-starved learners (D_wl = 40) lose real accuracy to sign
        // rounding; straight-through refit must claw some back on the
        // training distribution.
        let (x, y) = blobs(300, 10, 0.7, 0.55);
        let config = BoostHdConfig {
            dim_total: 320,
            n_learners: 8,
            epochs: 8,
            ..Default::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        let plain = accuracy(&model.quantize(), &x, &y);
        let refit = accuracy(
            &model
                .ensemble
                .refit::<PackedMatrix>(&x, &y, config.lr, 5)
                .unwrap(),
            &x,
            &y,
        );
        assert!(
            refit >= plain,
            "refit {refit} should not trail data-free {plain}"
        );
    }

    #[test]
    fn refit_rejects_bad_inputs() {
        let (x, y) = blobs(60, 11, 1.0, 0.4);
        let config = BoostHdConfig {
            dim_total: 320,
            n_learners: 4,
            epochs: 4,
            ..Default::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        let refit = |x: &Matrix, y: &[usize], epochs| {
            model
                .ensemble
                .refit::<PackedMatrix>(x, y, config.lr, epochs)
        };
        let empty = Matrix::zeros(0, 3);
        assert!(refit(&empty, &[], 3).is_err());
        assert!(refit(&x, &y[..10], 3).is_err());
        let bad_labels = vec![99usize; y.len()];
        assert!(refit(&x, &bad_labels, 3).is_err());
        let narrow = Matrix::zeros(60, 1);
        assert!(refit(&narrow, &y, 3).is_err());
        // Zero refit epochs degenerates to data-free quantization.
        let zero = refit(&x, &y, 0).unwrap();
        assert_eq!(zero.predict_batch(&x), model.quantize().predict_batch(&x));
    }

    #[test]
    fn onlinehd_refit_quantization_works() {
        let (x, y) = blobs(200, 12, 0.8, 0.5);
        let config = OnlineHdConfig {
            dim: 256,
            epochs: 8,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let plain = accuracy(&model.quantize(), &x, &y);
        let refit = accuracy(
            &model
                .single
                .refit::<PackedMatrix>(&x, &y, config.lr, 5)
                .unwrap(),
            &x,
            &y,
        );
        assert!(refit >= plain - 1e-9, "refit {refit} vs plain {plain}");
    }

    #[test]
    fn from_parts_rejects_own_encoder_width_mismatch() {
        use crate::boost::EnsembleMode;
        let (x, y) = blobs(90, 15, 1.0, 0.4);
        let config = BoostHdConfig {
            dim_total: 128,
            n_learners: 2,
            epochs: 3,
            mode: EnsembleMode::FullDimension,
            ..Default::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        let good = model.quantize();
        // Rebuild the learners but give one an encoder of the wrong width:
        // loading such a blob must Err instead of panicking at inference.
        let mut rng = linalg::Rng64::seed_from(0);
        let wrong_encoder = SinusoidEncoder::new(64, x.cols(), &mut rng);
        let mut learners = good.learners.clone();
        for l in &mut learners {
            l.own_encoder = Some(wrong_encoder.clone());
        }
        assert!(QuantizedBoostHd::from_parts(
            good.encoder().clone(),
            learners,
            good.num_classes(),
            good.voting(),
            good.dim_total(),
        )
        .is_err());
    }

    #[test]
    fn packed_bitflips_land_on_stored_words() {
        let (x, y) = blobs(120, 7, 1.0, 0.4);
        let config = BoostHdConfig {
            dim_total: 640,
            n_learners: 8,
            epochs: 6,
            ..Default::default()
        };
        let mut quantized = BoostHd::fit(&config, &x, &y).unwrap().quantize();
        let before = quantized.clone();
        let mut rng = Rng64::seed_from(0);
        let report = quantized.flip_stored_bits(0.02, &mut rng);
        assert!(report.flipped > 0);
        // Flips must change stored words but keep every padding bit clear
        // (from_parts round-trip would reject set padding).
        let mut changed = false;
        for i in 0..quantized.num_learners() {
            let bits = &quantized.learners[i].memory;
            let bits_before = &before.learners[i].memory;
            if bits != bits_before {
                changed = true;
            }
            for r in 0..bits.rows() {
                assert!(
                    hdc::backend::PackedHv::from_words(bits.row_words(r).to_vec(), bits.dim())
                        .is_ok()
                );
            }
        }
        assert!(changed);
    }

    #[test]
    fn quantized_ensemble_absorbs_moderate_sign_flips() {
        let (x, y) = blobs(240, 8, 1.0, 0.35);
        let config = BoostHdConfig {
            dim_total: 2048,
            n_learners: 8,
            epochs: 8,
            ..Default::default()
        };
        let quantized = BoostHd::fit(&config, &x, &y).unwrap().quantize();
        let clean = accuracy(&quantized, &x, &y);
        let mut corrupted = quantized.clone();
        let mut rng = Rng64::seed_from(3);
        corrupted.flip_stored_bits(1e-3, &mut rng);
        let faulty = accuracy(&corrupted, &x, &y);
        assert!(
            faulty > clean - 0.05,
            "0.1% sign flips should be absorbed: {clean} -> {faulty}"
        );
    }
}
