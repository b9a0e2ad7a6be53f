//! BoostHD: AdaBoost over weak OnlineHD learners in partitioned hyperspace.
//!
//! This is the paper's contribution (Section III, Algorithm 1). Instead of a
//! single strong learner owning all `D` dimensions, the hyperspace is split
//! into `n` disjoint segments of `D/n` dimensions ([`hdc::DimensionPartition`]),
//! each owned by a weak [`OnlineHD`-style](crate::OnlineHd) learner. Weak
//! learners train *sequentially* under boosting sample re-weighting: after
//! learner `i` trains, its weighted error rate `ε_i` determines both its vote
//! weight `α_i` and the re-weighting that focuses learner `i+1` on the
//! samples learner `i` got wrong.
//!
//! The paper's Algorithm 1 sketches the loop loosely; we implement the
//! standard multi-class **SAMME** rule it describes in prose ("query weights
//! and model importances dynamically adjusted based on model error rates"):
//!
//! ```text
//! ε_i = Σ_j w_j · 1[ŷ_j ≠ y_j]                       (weighted error)
//! α_i = ln((1 − ε_i)/ε_i) + ln(K − 1)                (learner weight)
//! w_j ← w_j · exp(α_i · 1[ŷ_j ≠ y_j]);  w ← w / Σw   (sample re-weighting)
//! ```
//!
//! Inference aggregates learner votes: `ŷ = argmax_l Σ_i α_i · vote_i(l)`
//! (Algorithm 1's inference procedure), with either *hard* votes (the
//! learner's predicted class gets its full `α_i`) or *soft* votes (every
//! class receives `α_i · δ_i(l)`); see [`Voting`].
//!
//! Encoding is shared: samples are encoded **once** at full `D`, and each
//! weak learner reads its column slice. Total train/inference compute
//! therefore matches a single OnlineHD of the same `D_total` (plus `k`
//! dot products per learner), which is what makes the Table II latencies
//! land next to OnlineHD's.

use crate::classifier::argmax;
use crate::error::{BoostHdError, Result};
use crate::frozen::{ClassMemory, Ensemble, Learner};
use crate::online::{normalize_rows, normalize_weights, train_class_hvs, validate_training_inputs};
use faults::BitflipReport;
use hdc::encoder::{Encode, SinusoidEncoder};
use hdc::DimensionPartition;
use linalg::{Matrix, Rng64};
use serde::{Deserialize, Serialize};

/// How weak-learner votes are aggregated at inference time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Voting {
    /// Confidence voting: learner `i` adds `α_i · δ_i(l)` to every class
    /// `l`, where `δ_i(l)` is its cosine similarity to class `l`. This is
    /// the literal reading of Algorithm 1's inference
    /// (`ŷs = f_θ(x); ŷ = argmax(Σ ŷs · α)` — the score *vector* is
    /// weighted and summed) and the default.
    #[default]
    Soft,
    /// SAMME discrete voting: learner `i` adds `α_i` to its predicted class
    /// only. Ablation mode.
    Hard,
}

/// How boosting sample weights reach the weak learner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SampleMode {
    /// Draw a weighted bootstrap of the training set each round and train
    /// the weak learner unweighted (AdaBoost "by resampling"). The paper's
    /// OnlineHD setup enables bootstrap resampling, and the resample adds
    /// bagging-style diversity across weak learners — the stability
    /// mechanism behind Figure 6 — while staying robust when boosting
    /// weights concentrate on noisy labels. The default.
    #[default]
    Resample,
    /// Scale each sample's OnlineHD update by its boosting weight
    /// (AdaBoost "by reweighting"). Ablation mode.
    Reweight,
}

/// How weak learners relate to the hyperspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EnsembleMode {
    /// The paper's partitioning: one shared full-`D` encoder, each learner
    /// owns a disjoint `D/n` column slice. Total compute ≈ one strong
    /// learner. The default.
    #[default]
    Partitioned,
    /// The "simplistic parallel ensemble" the paper argues against: every
    /// weak learner gets its own independent full-`D` encoder, multiplying
    /// train and inference cost by `n`. Kept for the ablation benchmark.
    FullDimension,
}

/// Configuration for [`BoostHd`].
///
/// Defaults mirror the paper's setup: `D_total = 4000`, `N_L = 10` weak
/// learners (so `D_wl = 400`), OnlineHD weak learners with `lr = 0.035` and
/// bootstrap bundling, hard SAMME voting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoostHdConfig {
    /// Total hyperspace dimensionality `D_total` shared by all learners.
    pub dim_total: usize,
    /// Number of weak learners `N_L`.
    pub n_learners: usize,
    /// Weak-learner refinement learning rate (paper: 0.035).
    pub lr: f32,
    /// Weak-learner refinement epochs.
    pub epochs: usize,
    /// Whether weak learners run the initial bundling pass.
    pub bootstrap: bool,
    /// Vote aggregation rule.
    pub voting: Voting,
    /// Encoder layout (partitioned vs full-dimension ablation).
    pub mode: EnsembleMode,
    /// How boosting weights reach weak learners.
    pub sample_mode: SampleMode,
    /// Shrinkage on the sample re-weighting exponent (1.0 = full SAMME;
    /// smaller values damp the focus on hard samples, useful under label
    /// noise).
    pub boost_shrinkage: f64,
    /// Upper bound on any sample's weight as a multiple of the uniform
    /// weight `1/n`. Caps the runaway emphasis AdaBoost places on
    /// frequently-misclassified (often mislabeled) samples — the classic
    /// robust-boosting guard for noisy healthcare annotations. Use
    /// `f64::INFINITY` for textbook SAMME.
    pub weight_clamp: f64,
    /// Initialize sample weights inversely proportional to class frequency
    /// (cost-sensitive boosting) instead of uniformly. Algorithm 1 leaves
    /// the `Ws` initialization open; the balanced choice is what lets the
    /// boosted ensemble hold its macro accuracy on imbalanced cohorts
    /// (Figure 7) — every weak learner's weighted resample starts
    /// class-balanced, which no monolithic learner sees.
    pub class_balanced_init: bool,
    /// Seed for the shared random projection.
    pub seed: u64,
}

impl Default for BoostHdConfig {
    fn default() -> Self {
        Self {
            dim_total: 4000,
            n_learners: 10,
            lr: 0.035,
            epochs: 20,
            bootstrap: true,
            voting: Voting::Soft,
            mode: EnsembleMode::Partitioned,
            sample_mode: SampleMode::Resample,
            boost_shrinkage: 1.0,
            weight_clamp: 8.0,
            class_balanced_init: true,
            seed: 0x5EED,
        }
    }
}

/// A trained BoostHD ensemble.
///
/// Construct with [`BoostHd::fit`]; see the [module docs](self) for the
/// algorithm and the crate root for a runnable quickstart.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BoostHd {
    partition: DimensionPartition,
    /// The weak learners over the shared encoder: exactly the frozen f32
    /// inference model.
    pub(crate) ensemble: Ensemble<Matrix>,
    config: BoostHdConfig,
    train_errors: Vec<f64>,
}

impl BoostHd {
    /// Trains the boosted ensemble on feature rows `x` with labels `y`.
    ///
    /// # Errors
    ///
    /// * [`BoostHdError::InvalidConfig`] if `dim_total` or `n_learners` is
    ///   zero, `n_learners > dim_total`, or the learning rate is
    ///   non-positive;
    /// * [`BoostHdError::DataMismatch`] for empty data, label/feature row
    ///   disagreement, or fewer than two classes (boosting weights are
    ///   undefined for `K < 2`).
    pub fn fit(config: &BoostHdConfig, x: &Matrix, y: &[usize]) -> Result<Self> {
        Self::fit_with_threads(config, x, y, crate::parallel::default_threads())
    }

    /// [`BoostHd::fit`] with an explicit worker count for the
    /// embarrassingly-parallel per-learner encodes of the
    /// [`EnsembleMode::FullDimension`] ablation (the boosting rounds stay
    /// sequential regardless). The trained ensemble is bit-identical for
    /// every `threads` value; `fit` passes
    /// [`crate::parallel::default_threads`].
    ///
    /// Peak training memory in `Partitioned` mode is one learner's
    /// subspace encoding, `n × D/N_L` f32: each learner encodes its own
    /// segment just before its round. In `FullDimension` mode it scales
    /// with the wave: each wave holds up to `threads` private encoders
    /// plus full-batch encodings (`threads × n × D` f32) in flight at
    /// once, versus one at a time for `threads = 1` — size `threads`
    /// accordingly for large cohorts.
    pub(crate) fn fit_with_threads(
        config: &BoostHdConfig,
        x: &Matrix,
        y: &[usize],
        threads: usize,
    ) -> Result<Self> {
        validate_training_inputs(x, y, None)?;
        if config.lr <= 0.0 {
            return Err(BoostHdError::InvalidConfig {
                reason: format!("learning rate must be positive, got {}", config.lr),
            });
        }
        let num_classes = y.iter().copied().max().expect("validated non-empty") + 1;
        if num_classes < 2 {
            return Err(BoostHdError::DataMismatch {
                reason: "boosting requires at least two classes".into(),
            });
        }
        let partition = partition_of(config)?;

        let mut rng = Rng64::seed_from(config.seed);
        let encoder = SinusoidEncoder::try_new(config.dim_total, x.cols(), &mut rng)
            .map_err(BoostHdError::from)?;

        // Pre-draw every per-learner RNG fork in the exact order the
        // sequential loop used to consume them — per learner, the private-
        // encoder fork (FullDimension only) precedes the resample fork
        // (Resample only) — so restructuring the loop into waves below
        // cannot shift any stream: models stay bit-identical.
        let mut enc_rngs: Vec<Option<Rng64>> = Vec::with_capacity(config.n_learners);
        let mut resample_rngs: Vec<Option<Rng64>> = Vec::with_capacity(config.n_learners);
        for i in 0..config.n_learners {
            enc_rngs.push(match config.mode {
                EnsembleMode::FullDimension => Some(rng.fork(i as u64)),
                EnsembleMode::Partitioned => None,
            });
            resample_rngs.push(match config.sample_mode {
                SampleMode::Resample => Some(rng.fork(0x4E5A + i as u64)),
                SampleMode::Reweight => None,
            });
        }

        let n = y.len();
        let mut weights = if config.class_balanced_init {
            let mut counts = vec![0usize; num_classes];
            for &yi in y {
                counts[yi] += 1;
            }
            let per_class = 1.0 / num_classes as f64;
            y.iter()
                .map(|&yi| per_class / counts[yi].max(1) as f64)
                .collect::<Vec<f64>>()
        } else {
            vec![1.0f64 / n as f64; n]
        };
        // Per-sample weight ceilings: `weight_clamp ×` the initial weight,
        // so the cap composes with class-balanced initialization.
        let weight_caps: Vec<f64> = weights.iter().map(|w| w * config.weight_clamp).collect();
        let mut learners = Vec::with_capacity(config.n_learners);
        let mut train_errors = Vec::with_capacity(config.n_learners);

        // FullDimension ablation learners each own a private full-`D`
        // encoder, so the expensive part of their round — projection
        // sampling plus the full-batch encode GEMM — is independent across
        // learners. Process learners in waves of `threads`, encoding each
        // wave in parallel while the SAMME boosting rounds below stay
        // strictly sequential (the paper's re-weighting chain). Partitioned
        // mode encodes nothing per learner and runs as one wave.
        let wave = match config.mode {
            EnsembleMode::Partitioned => config.n_learners.max(1),
            EnsembleMode::FullDimension => threads.max(1),
        };
        let mut wave_start = 0usize;
        while wave_start < config.n_learners {
            let wave_end = (wave_start + wave).min(config.n_learners);
            let mut wave_encodings: Vec<Option<(SinusoidEncoder, Matrix)>> = match config.mode {
                EnsembleMode::Partitioned => Vec::new(),
                EnsembleMode::FullDimension => {
                    let enc_rngs = &enc_rngs;
                    crate::parallel::parallel_map_indices(
                        wave_end - wave_start,
                        wave_end - wave_start,
                        |k| {
                            let mut child = enc_rngs[wave_start + k]
                                .clone()
                                .expect("encoder fork pre-drawn");
                            let enc =
                                SinusoidEncoder::try_new(config.dim_total, x.cols(), &mut child)
                                    .map_err(BoostHdError::from)?;
                            let zi = enc.encode_batch(x);
                            Ok((enc, zi))
                        },
                    )
                    .into_iter()
                    .map(|r: Result<(SinusoidEncoder, Matrix)>| r.map(Some))
                    .collect::<Result<_>>()?
                }
            };

            for i in wave_start..wave_end {
                let seg = partition.segment(i);
                // A slice encodes bit-identically to the same columns of a
                // full-`D` encode (the GEMM and the activation work per
                // output element), so encoding per round moves no model bit.
                let (zi, own_encoder) = match config.mode {
                    EnsembleMode::Partitioned => {
                        (encoder.slice_dims(seg.start, seg.end).encode_batch(x), None)
                    }
                    EnsembleMode::FullDimension => {
                        let (enc, zi) = wave_encodings[i - wave_start]
                            .take()
                            .expect("wave encoding present");
                        (zi, Some(enc))
                    }
                };

                let mut class_hvs = match config.sample_mode {
                    SampleMode::Reweight => {
                        let scale = normalize_weights(Some(&weights), n);
                        train_class_hvs(
                            &zi,
                            y,
                            &scale,
                            num_classes,
                            config.lr,
                            config.epochs,
                            config.bootstrap,
                        )
                    }
                    SampleMode::Resample => {
                        let mut round_rng =
                            resample_rngs[i].take().expect("resample fork pre-drawn");
                        let picks = weighted_bootstrap(&weights, n, &mut round_rng);
                        let zb = zi.select_rows(&picks);
                        let yb: Vec<usize> = picks.iter().map(|&p| y[p]).collect();
                        train_class_hvs(
                            &zb,
                            &yb,
                            &vec![1.0; n],
                            num_classes,
                            config.lr,
                            config.epochs,
                            config.bootstrap,
                        )
                    }
                };
                normalize_rows(&mut class_hvs);

                // Weighted training error of this weak learner, scored
                // exactly as the trained model will score its segment.
                let sims = class_hvs.score_chunk(&zi, 0..zi.cols(), &mut ());
                let mut err = 0.0f64;
                let mut wrong = vec![false; n];
                for r in 0..n {
                    let pred = argmax(sims.row(r));
                    if pred != y[r] {
                        err += weights[r];
                        wrong[r] = true;
                    }
                }
                train_errors.push(err);

                // SAMME learner weight. Clamp the error into (0, 1 − 1/K) so a
                // perfect learner keeps a finite α and a worse-than-random one
                // contributes (approximately) nothing instead of voting
                // negatively.
                let k = num_classes as f64;
                let eps = 1e-10;
                let clamped = err.clamp(eps, 1.0 - 1.0 / k - eps);
                let alpha = (((1.0 - clamped) / clamped).ln() + (k - 1.0).ln()).max(0.0) as f32;

                // Re-weight samples: misclassified gain exp(trust · shrinkage · α),
                // bounded by the clamp so mislabeled points cannot monopolize
                // subsequent learners. `trust` scales the emphasis by how far
                // the weak learner beats chance: on clean data (ε ≈ 0) this is
                // textbook SAMME; when ε approaches the chance error the round
                // carries no signal worth amplifying — mostly annotation noise
                // in the healthcare setting — and re-weighting fades out.
                let chance_err = 1.0 - 1.0 / k;
                let trust = ((chance_err - err) / chance_err).clamp(0.0, 1.0).powi(2);
                let boost = (config.boost_shrinkage * trust * alpha as f64).exp();
                let mut total = 0.0f64;
                for r in 0..n {
                    if wrong[r] {
                        weights[r] = (weights[r] * boost).min(weight_caps[r]);
                    }
                    total += weights[r];
                }
                for w in &mut weights {
                    *w /= total;
                }

                learners.push(Learner {
                    memory: class_hvs,
                    alpha,
                    segment: seg,
                    own_encoder,
                });
            }
            wave_start = wave_end;
        }

        Ok(Self {
            partition,
            ensemble: Ensemble {
                encoder,
                learners,
                num_classes,
                voting: config.voting,
            },
            config: *config,
            train_errors,
        })
    }

    /// Vote weights `α_i` of the weak learners, in training order.
    pub fn alphas(&self) -> Vec<f32> {
        self.ensemble.alphas()
    }

    /// Weighted training error `ε_i` of each weak learner at the time it was
    /// trained (before subsequent re-weighting).
    pub fn training_errors(&self) -> &[f64] {
        &self.train_errors
    }

    /// The dimension partition mapping learners to hyperspace segments.
    pub fn partition(&self) -> &DimensionPartition {
        &self.partition
    }

    /// Number of weak learners `N_L`.
    pub fn num_learners(&self) -> usize {
        self.ensemble.num_learners()
    }

    /// Total hyperspace dimensionality `D_total`.
    pub fn dim_total(&self) -> usize {
        self.config.dim_total
    }

    /// The configuration the ensemble was trained with.
    pub fn config(&self) -> &BoostHdConfig {
        &self.config
    }

    /// The shared full-`D` encoder.
    pub fn encoder(&self) -> &SinusoidEncoder {
        &self.ensemble.encoder
    }

    /// Class hypervectors of weak learner `i` (a `classes × D/n` matrix).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_learners()`.
    pub fn learner_class_hypervectors(&self, i: usize) -> &Matrix {
        &self.ensemble.learners[i].memory
    }

    /// All per-learner class hypervectors embedded into the full-`D` space
    /// and stacked into an `(n·k) × D` matrix — the `K` matrix whose span
    /// utilization Figure 5 compares against OnlineHD's.
    ///
    /// Only meaningful in [`EnsembleMode::Partitioned`]; full-dimension
    /// learners are embedded at their nominal segments for comparability.
    pub fn stacked_class_hypervectors(&self) -> Matrix {
        let usable: Vec<(std::ops::Range<usize>, &Matrix)> = (self.ensemble.learners.iter())
            .filter(|l| l.segment.len() == l.memory.cols())
            .map(|l| (l.segment.clone(), &l.memory))
            .collect();
        hdc::span::embed_blocks(&usable, self.config.dim_total)
    }

    /// Reassembles an ensemble from stored parts (the persistence path);
    /// fails for an impossible partition or a learner count that
    /// disagrees with the configuration.
    pub(crate) fn from_parts(
        ensemble: Ensemble<Matrix>,
        config: BoostHdConfig,
        train_errors: Vec<f64>,
    ) -> Result<Self> {
        let partition = partition_of(&config)?;
        if ensemble.num_learners() != config.n_learners {
            return Err(BoostHdError::DataMismatch {
                reason: "learner count disagrees with config".into(),
            });
        }
        Ok(Self {
            partition,
            ensemble,
            config,
            train_errors,
        })
    }

    /// Bit-flip injection over every learner's memory ([`Ensemble`]'s).
    pub(crate) fn flip_stored_bits(&mut self, p_b: f64, rng: &mut Rng64) -> BitflipReport {
        self.ensemble.flip_stored_bits(p_b, rng)
    }

    /// Quantizes every weak learner's class hypervectors to bipolar
    /// `{−1, +1}` in place — the 1-bit representation HDC accelerators
    /// store. See [`crate::OnlineHd::quantize_bipolar`].
    pub fn quantize_bipolar(&mut self) {
        for learner in &mut self.ensemble.learners {
            crate::online::bipolarize_rows(&mut learner.memory);
        }
    }
}

/// The learner-to-segment partition `config` describes.
fn partition_of(config: &BoostHdConfig) -> Result<DimensionPartition> {
    DimensionPartition::new(config.dim_total, config.n_learners).map_err(|e| {
        BoostHdError::InvalidConfig {
            reason: e.to_string(),
        }
    })
}

/// Draws `count` indices from the weighted bootstrap distribution via the
/// inverse CDF.
fn weighted_bootstrap(weights: &[f64], count: usize, rng: &mut Rng64) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0f64;
    for &w in weights {
        acc += w;
        cdf.push(acc);
    }
    let total = acc.max(f64::MIN_POSITIVE);
    (0..count)
        .map(|_| {
            let u = rng.uniform() as f64 * total;
            match cdf.binary_search_by(|probe| probe.partial_cmp(&u).expect("finite weights")) {
                Ok(i) => i,
                Err(i) => i.min(weights.len() - 1),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Classifier;

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

    fn small_config() -> BoostHdConfig {
        BoostHdConfig {
            dim_total: 640,
            n_learners: 8,
            epochs: 8,
            ..BoostHdConfig::default()
        }
    }

    #[test]
    fn learns_three_blobs() {
        let (x, y) = blobs(240, 1, 1.0, 0.35);
        let model = BoostHd::fit(&small_config(), &x, &y).unwrap();
        assert!(accuracy(&model, &x, &y) > 0.95);
        assert_eq!(model.num_learners(), 8);
        assert_eq!(model.num_classes(), 3);
    }

    #[test]
    fn generalizes_to_held_out_data() {
        let (xtr, ytr) = blobs(300, 2, 1.0, 0.35);
        let (xte, yte) = blobs(120, 77, 1.0, 0.35);
        let model = BoostHd::fit(&small_config(), &xtr, &ytr).unwrap();
        assert!(accuracy(&model, &xte, &yte) > 0.9);
    }

    #[test]
    fn alphas_are_finite_and_nonnegative() {
        let (x, y) = blobs(150, 3, 1.0, 0.4);
        let model = BoostHd::fit(&small_config(), &x, &y).unwrap();
        for a in model.alphas() {
            assert!(a.is_finite() && a >= 0.0);
        }
        assert_eq!(model.training_errors().len(), 8);
    }

    #[test]
    fn later_learners_see_harder_distribution() {
        // With heavy class overlap, boosting should produce non-trivially
        // varying training errors (re-weighting changes the problem).
        let (x, y) = blobs(300, 4, 0.5, 0.8);
        let model = BoostHd::fit(&small_config(), &x, &y).unwrap();
        let errs = model.training_errors();
        let all_same = errs.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12);
        assert!(
            !all_same,
            "training errors should vary across learners: {errs:?}"
        );
    }

    #[test]
    fn predict_batch_matches_rowwise() {
        let (x, y) = blobs(90, 5, 1.0, 0.4);
        let model = BoostHd::fit(&small_config(), &x, &y).unwrap();
        let batch = model.predict_batch(&x);
        let rowwise: Vec<usize> = (0..x.rows()).map(|r| model.predict(x.row(r))).collect();
        assert_eq!(batch, rowwise);
    }

    #[test]
    fn parallel_prediction_matches_serial() {
        let (x, y) = blobs(120, 6, 1.0, 0.4);
        let model = BoostHd::fit(&small_config(), &x, &y).unwrap();
        assert_eq!(model.predict_batch(&x), model.predict_batch_parallel(&x, 4));
    }

    #[test]
    fn soft_voting_works() {
        let (x, y) = blobs(150, 7, 1.0, 0.4);
        let config = BoostHdConfig {
            voting: Voting::Soft,
            ..small_config()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        assert!(accuracy(&model, &x, &y) > 0.9);
    }

    #[test]
    fn full_dimension_mode_works() {
        let (x, y) = blobs(120, 8, 1.0, 0.4);
        let config = BoostHdConfig {
            dim_total: 256,
            n_learners: 4,
            epochs: 5,
            mode: EnsembleMode::FullDimension,
            ..BoostHdConfig::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        assert!(accuracy(&model, &x, &y) > 0.9);
        assert_eq!(model.predict_batch(&x), {
            let rowwise: Vec<usize> = (0..x.rows()).map(|r| model.predict(x.row(r))).collect();
            rowwise
        });
    }

    #[test]
    fn full_dimension_training_is_thread_invariant() {
        // The ablation's wave-parallel private-encoder encode must leave
        // the trained ensemble bit-identical for any worker count.
        let (x, y) = blobs(90, 21, 1.0, 0.4);
        let config = BoostHdConfig {
            dim_total: 192,
            n_learners: 6,
            epochs: 4,
            mode: EnsembleMode::FullDimension,
            ..BoostHdConfig::default()
        };
        let serial = BoostHd::fit_with_threads(&config, &x, &y, 1).unwrap();
        let parallel = BoostHd::fit_with_threads(&config, &x, &y, 4).unwrap();
        assert_eq!(serial.alphas(), parallel.alphas());
        for i in 0..serial.num_learners() {
            assert_eq!(
                serial.learner_class_hypervectors(i),
                parallel.learner_class_hypervectors(i),
                "learner {i}"
            );
        }
    }

    #[test]
    fn stacked_class_hvs_have_expected_shape() {
        let (x, y) = blobs(90, 9, 1.0, 0.4);
        let model = BoostHd::fit(&small_config(), &x, &y).unwrap();
        let stacked = model.stacked_class_hypervectors();
        assert_eq!(stacked.rows(), 8 * 3);
        assert_eq!(stacked.cols(), 640);
        // Rows from different learners live in disjoint column ranges.
        let r0 = stacked.row(0); // learner 0
        let r_last = stacked.row(8 * 3 - 1); // learner 7
        let overlap: f32 = r0.iter().zip(r_last.iter()).map(|(a, b)| a * b).sum();
        assert_eq!(overlap, 0.0);
    }

    #[test]
    fn single_class_rejected() {
        let (x, _) = blobs(30, 10, 1.0, 0.4);
        let y = vec![0usize; 30];
        assert!(matches!(
            BoostHd::fit(&small_config(), &x, &y),
            Err(BoostHdError::DataMismatch { .. })
        ));
    }

    #[test]
    fn more_learners_than_dims_rejected() {
        let (x, y) = blobs(30, 11, 1.0, 0.4);
        let config = BoostHdConfig {
            dim_total: 4,
            n_learners: 8,
            ..BoostHdConfig::default()
        };
        assert!(matches!(
            BoostHd::fit(&config, &x, &y),
            Err(BoostHdError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn reproducible_with_same_seed() {
        let (x, y) = blobs(90, 12, 1.0, 0.4);
        let a = BoostHd::fit(&small_config(), &x, &y).unwrap();
        let b = BoostHd::fit(&small_config(), &x, &y).unwrap();
        assert_eq!(a.alphas(), b.alphas());
        assert_eq!(a.predict_batch(&x), b.predict_batch(&x));
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = blobs(90, 13, 0.8, 0.6);
        let a = BoostHd::fit(&small_config(), &x, &y).unwrap();
        let config_b = BoostHdConfig {
            seed: 999,
            ..small_config()
        };
        let b = BoostHd::fit(&config_b, &x, &y).unwrap();
        assert_ne!(
            a.learner_class_hypervectors(0),
            b.learner_class_hypervectors(0)
        );
    }

    #[test]
    fn perturbable_covers_all_learners() {
        let (x, y) = blobs(60, 14, 1.0, 0.4);
        let mut model = BoostHd::fit(&small_config(), &x, &y).unwrap();
        // 8 learners × 3 classes × 80 dims (640/8).
        let report = model.flip_stored_bits(0.0, &mut Rng64::seed_from(0));
        assert_eq!(report.words, 8 * 3 * 80);
    }

    #[test]
    fn boosthd_beats_single_weak_learner_when_dimension_starved() {
        // The paper's core claim: an ensemble of n dimension-starved weak
        // learners outperforms any one of them. Use D_wl = 6, where a lone
        // OnlineHD is clearly limited, and average both sides over seeds to
        // wash out projection luck.
        use crate::online::{OnlineHd, OnlineHdConfig};
        let (xtr, ytr) = blobs(400, 15, 0.7, 0.5);
        let (xte, yte) = blobs(200, 1234, 0.7, 0.5);
        let mut boost_accs = Vec::new();
        let mut weak_accs = Vec::new();
        for seed in 0..3u64 {
            let boost_config = BoostHdConfig {
                dim_total: 60,
                n_learners: 10,
                epochs: 10,
                seed,
                ..BoostHdConfig::default()
            };
            let boost = BoostHd::fit(&boost_config, &xtr, &ytr).unwrap();
            boost_accs.push(accuracy(&boost, &xte, &yte));
            let weak_config = OnlineHdConfig {
                dim: 6,
                epochs: 10,
                seed,
                ..OnlineHdConfig::default()
            };
            let weak = OnlineHd::fit(&weak_config, &xtr, &ytr).unwrap();
            weak_accs.push(accuracy(&weak, &xte, &yte));
        }
        let boost_acc = boost_accs.iter().sum::<f64>() / boost_accs.len() as f64;
        let weak_acc = weak_accs.iter().sum::<f64>() / weak_accs.len() as f64;
        assert!(
            boost_acc > weak_acc,
            "ensemble {boost_acc} should beat one dimension-starved weak learner {weak_acc}"
        );
    }
}
