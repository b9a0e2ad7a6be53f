//! The [`Pipeline`] facade: config-driven training, confidence-aware
//! prediction, and one persistence envelope for every model family.
//!
//! The reproduction used to expose one bespoke config struct and ad-hoc
//! `fit`/`to_bytes` pair per model; a caller wiring a healthcare
//! deployment had to know five APIs and two blob formats. This module is
//! the single front door the ROADMAP's "architecture that enables all
//! three" step asks for:
//!
//! * [`Pipeline::fit`] turns a declarative [`ModelSpec`] into a trained
//!   model ([`Box<dyn Model>`] under the hood) — every family in the
//!   evaluation, HDC and classical, through one call;
//! * [`Pipeline::predict_with_confidence`] returns normalized per-class
//!   probabilities, the top-two margin, and an abstention flag driven by a
//!   configurable threshold — the "how sure are we?" signal an
//!   abstain/escalate clinical workflow gates on (the paper's reliability
//!   argument made operational);
//! * [`Pipeline::save`]/[`Pipeline::load`] wrap the per-model binary
//!   codecs in one versioned envelope that also records the spec, so a
//!   deployed artifact knows how to rebuild and re-evaluate itself.
//!
//! # Example
//!
//! ```
//! use boosthd::{ModelSpec, OnlineHdConfig, Pipeline};
//! use linalg::{Matrix, Rng64};
//!
//! let mut rng = Rng64::seed_from(9);
//! let x = Matrix::random_normal(60, 3, &mut rng);
//! let y: Vec<usize> = (0..60).map(|i| i % 2).collect();
//!
//! let spec = ModelSpec::OnlineHd(OnlineHdConfig { dim: 128, epochs: 3, ..Default::default() });
//! let pipeline = Pipeline::fit(&spec, &x, &y)?.with_abstain_threshold(0.55);
//!
//! let p = pipeline.predict_with_confidence(x.row(0));
//! assert!((0.0..=1.0).contains(&p.confidence));
//! assert_eq!(p.probabilities.len(), 2);
//!
//! // One envelope for every family: save, load, identical predictions.
//! let bytes = pipeline.to_bytes()?;
//! let restored = Pipeline::from_bytes(&bytes)?;
//! assert_eq!(pipeline.predict_batch(&x), restored.predict_batch(&x));
//! assert_eq!(restored.spec(), pipeline.spec());
//! # Ok::<(), boosthd::BoostHdError>(())
//! ```

use std::any::Any;
use std::sync::Mutex;

use crate::boost::BoostHd;
use crate::centroid::CentroidHd;
use crate::classifier::{argmax, map_row_chunks, predict_batch_chunked, Classifier};
use crate::error::{BoostHdError, Result};
use crate::frozen::{ClassMemory, Ensemble, Single};
use crate::online::OnlineHd;
use crate::persist::{format_of, Reader, Writer, FORMATS};
use crate::quantized_i8::I8Rows;
use crate::spec::{BaselineSpec, ModelSpec, Tier};
use faults::BitflipReport;
use hdc::backend::PackedMatrix;
use linalg::{Matrix, Rng64};

fn pipeline_err(reason: impl Into<String>) -> BoostHdError {
    BoostHdError::DataMismatch {
        reason: reason.into(),
    }
}

/// Which binary payload codec a [`Model`] serializes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// Dense-f32 OnlineHD ([`OnlineHd::to_bytes`]).
    OnlineHd,
    /// Dense-f32 centroid model ([`CentroidHd::to_bytes`]).
    CentroidHd,
    /// Dense-f32 boosted ensemble ([`BoostHd::to_bytes`]).
    BoostHd,
    /// Bitpacked single-learner model ([`crate::QuantizedHd`]).
    QuantizedHd,
    /// Bitpacked boosted ensemble ([`crate::QuantizedBoostHd`]).
    QuantizedBoostHd,
    /// Int8 single-learner model ([`crate::QuantizedI8Hd`]).
    QuantizedI8Hd,
    /// Int8 boosted ensemble ([`crate::QuantizedI8BoostHd`]).
    QuantizedI8BoostHd,
    /// No binary codec (the classical baselines); saving reports a clear
    /// error instead of writing an unreadable blob.
    Unsupported,
}

impl PayloadKind {
    /// The envelope/store payload tag ([`crate::persist`] kind table);
    /// 0 for [`PayloadKind::Unsupported`].
    fn tag(self) -> u8 {
        format_of(self).map_or(0, |f| f.tag)
    }

    fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(PayloadKind::Unsupported),
            _ => FORMATS
                .iter()
                .find(|f| f.tag == tag)
                .map(|f| f.payload)
                .ok_or_else(|| pipeline_err(format!("unknown payload kind {tag}"))),
        }
    }

    /// Decodes a full BHD1 blob of this kind from `r`.
    fn decode(self, r: &mut Reader<'_>, what: &str) -> Result<Box<dyn Model>> {
        let format = format_of(self)
            .ok_or_else(|| pipeline_err(format!("{what} holds no loadable payload")))?;
        (format.decode)(r)
    }
}

fn no_codec() -> BoostHdError {
    BoostHdError::InvalidConfig {
        reason: "model family has no binary codec; only the HDC models persist".into(),
    }
}

/// A trained model behind the [`Pipeline`] facade: classification plus the
/// persistence hooks the envelope needs, object-safe so heterogeneous
/// model zoos are `Vec<Pipeline>` instead of bespoke enums.
///
/// Implemented by the seven HDC models here — trained [`OnlineHd`] and
/// [`BoostHd`] plus the frozen [`Single`] and [`Ensemble`] shapes over
/// every [`ClassMemory`] (which cover [`CentroidHd`] and the four
/// quantized models) — and by the classical baselines in the `baselines`
/// crate.
pub trait Model: Classifier + Send + Sync {
    /// Which binary codec [`Model::to_payload`] writes.
    fn payload_kind(&self) -> PayloadKind;

    /// Clones the trained model behind the trait object (fault-injection
    /// campaigns corrupt a fresh clone per trial; `Box<dyn Model>` cannot
    /// derive `Clone`).
    fn clone_box(&self) -> Box<dyn Model>;

    /// Flips each stored parameter bit independently with probability
    /// `p_b`, drawing flip positions from `rng` — the memory-fault model
    /// of the paper's Section IV-D, and the one model-level injection
    /// entry point. Dense-f32 families take IEEE-754 word flips, int8
    /// families two's-complement byte flips (their row norms are then
    /// re-derived from the bytes), and bitpacked families sign-bit flips;
    /// see [`faults::flip_stored_bits`] for the walk. A `p_b` that is not
    /// positive (NaN included) flips nothing.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] for families that expose no
    /// parameter storage (the tree-based baselines).
    fn inject_bitflips(&mut self, p_b: f64, rng: &mut Rng64) -> Result<BitflipReport>;

    /// Serializes the model through its binary codec (by default, the
    /// inline form of [`Model::encode_store`]).
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] for families without a
    /// codec ([`PayloadKind::Unsupported`]).
    fn to_payload(&self) -> Result<Vec<u8>> {
        let mut w = Writer::new();
        self.encode_store(&mut w)?;
        Ok(w.into_bytes())
    }

    /// Writes the model's full blob through `w` — with a heap-mode writer
    /// this is the fleet store's record body, splitting bulk arrays into
    /// the payload heap.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] for families without a
    /// codec (the default implementation).
    fn encode_store(&self, w: &mut Writer) -> Result<()> {
        let _ = w;
        Err(no_codec())
    }

    /// Upcast for concrete-type escape hatches ([`Pipeline::downcast_ref`]).
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast ([`Pipeline::downcast_mut`]).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

macro_rules! impl_hdc_model {
    ($ty:ty $(where $g:ident: $bound:path)?, $kind:expr) => {
        impl$(<$g: $bound>)? Model for $ty {
            fn payload_kind(&self) -> PayloadKind {
                $kind
            }
            fn clone_box(&self) -> Box<dyn Model> {
                Box::new(self.clone())
            }
            fn inject_bitflips(&mut self, p_b: f64, rng: &mut Rng64) -> Result<BitflipReport> {
                Ok(self.flip_stored_bits(p_b, rng))
            }
            fn encode_store(&self, w: &mut Writer) -> Result<()> {
                if $kind == PayloadKind::Unsupported {
                    return Err(no_codec());
                }
                self.encode_into(w);
                Ok(())
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
    };
}

impl_hdc_model!(OnlineHd, PayloadKind::OnlineHd);
impl_hdc_model!(BoostHd, PayloadKind::BoostHd);
impl_hdc_model!(Single<M> where M: ClassMemory, M::SINGLE);
impl_hdc_model!(Ensemble<M> where M: ClassMemory, M::ENSEMBLE);

/// Builder the `baselines` crate registers so [`Pipeline::fit`] can
/// construct [`ModelSpec::Baseline`] models without a dependency cycle
/// (`baselines` depends on this crate for the [`Classifier`] trait).
pub type BaselineBuilder = fn(&BaselineSpec, &Matrix, &[usize]) -> Result<Box<dyn Model>>;

static BASELINE_BUILDER: Mutex<Option<BaselineBuilder>> = Mutex::new(None);

/// Registers the process-wide baseline builder (idempotent; the last
/// registration wins). Call `baselines::spec::install()` rather than this
/// directly.
pub fn register_baseline_builder(builder: BaselineBuilder) {
    *BASELINE_BUILDER
        .lock()
        .expect("baseline builder lock poisoned") = Some(builder);
}

fn baseline_builder() -> Result<BaselineBuilder> {
    BASELINE_BUILDER
        .lock()
        .expect("baseline builder lock poisoned")
        .ok_or_else(|| BoostHdError::InvalidConfig {
            reason: "no baseline builder registered — call baselines::spec::install() \
                     before fitting ModelSpec::Baseline"
                .into(),
        })
}

/// Softmax-normalized per-class probabilities for one score row.
///
/// Model score scales differ (cosine similarities, `α`-weighted votes,
/// margins, log-odds); the softmax puts them all on one `[0, 1]`,
/// sums-to-one scale whose argmax agrees with the raw scores. Non-finite
/// scores carry no evidence and map to probability 0; a row with no finite
/// score at all returns all zeros (so downstream confidence gating
/// abstains instead of trusting garbage).
pub fn normalized_probabilities(scores: &[f32]) -> Vec<f32> {
    let max = scores
        .iter()
        .copied()
        .filter(|s| s.is_finite())
        .fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return vec![0.0; scores.len()];
    }
    let exps: Vec<f32> = scores
        .iter()
        .map(|&s| if s.is_finite() { (s - max).exp() } else { 0.0 })
        .collect();
    let sum: f32 = exps.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        return vec![0.0; scores.len()];
    }
    exps.iter().map(|e| (e / sum).clamp(0.0, 1.0)).collect()
}

/// One confidence-aware prediction; see
/// [`Pipeline::predict_with_confidence`].
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The predicted class (argmax of the raw scores).
    pub class: usize,
    /// Probability of the predicted class, in `[0, 1]` (0 when the score
    /// row carried no finite evidence).
    pub confidence: f32,
    /// Top-1 minus top-2 probability, in `[0, 1]` — the separation signal
    /// the reliability literature gates on.
    pub margin: f32,
    /// Softmax-normalized per-class probabilities
    /// ([`normalized_probabilities`]).
    pub probabilities: Vec<f32>,
    /// Whether the confidence fell below the pipeline's abstention
    /// threshold.
    pub abstained: bool,
}

impl Prediction {
    /// The gated decision: `Some(class)` when confident enough, `None`
    /// when the pipeline abstained (escalate to a clinician / stronger
    /// model).
    pub fn decision(&self) -> Option<usize> {
        if self.abstained {
            None
        } else {
            Some(self.class)
        }
    }
}

/// `"BHDP"` little-endian — the envelope magic (distinct from the inner
/// model-blob magic so the two layers cannot be confused).
const ENVELOPE_MAGIC: u32 = 0x5044_4842;
/// Envelope version history:
///
/// * v1 — magic, version, kind, abstain threshold, spec TOML, payload.
/// * v2 — inserts a 9-byte record (`score_chunk: u32`, `threads: u32`,
///   source tag `u8`) after the abstain threshold, and assigns payload
///   kinds 6/7 to the int8 tier. The record once stamped the saving
///   machine's kernel tuning; it is now always [`TUNING_RECORD`] and is
///   kept only so the layout stays compatible. Loading checks the source
///   tag and otherwise skips the record, since predictions never depended
///   on it.
const ENVELOPE_VERSION: u8 = 2;
const ENVELOPE_MIN_VERSION: u8 = 1;
/// The fixed v2 record: score chunk 256, threads 0, source tag 0 (pinned).
/// Tag 1 (autotuned) still loads, so older envelopes stay readable.
const TUNING_RECORD: (u32, u32, u8) = (256, 0, 0);
const MAX_TUNING_SOURCE_TAG: u8 = 1;

/// The unified model facade; see the [module docs](self).
pub struct Pipeline {
    spec: ModelSpec,
    model: Box<dyn Model>,
    abstain_threshold: f32,
}

impl Clone for Pipeline {
    fn clone(&self) -> Self {
        Self {
            spec: self.spec.clone(),
            model: self.model.clone_box(),
            abstain_threshold: self.abstain_threshold,
        }
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("spec", &self.spec)
            .field("abstain_threshold", &self.abstain_threshold)
            .finish_non_exhaustive()
    }
}

impl Pipeline {
    /// Trains the model `spec` describes on feature rows `x` with labels
    /// `y` — the one construction path every experiment binary, example,
    /// and deployment goes through.
    ///
    /// # Errors
    ///
    /// * [`BoostHdError::InvalidConfig`] for invalid hyperparameters, a
    ///   garbage `HDC_THREADS`/`HDC_FORCE_SCALAR` environment value, or an
    ///   unregistered baseline builder;
    /// * [`BoostHdError::DataMismatch`] for inconsistent training data.
    pub fn fit(spec: &ModelSpec, x: &Matrix, y: &[usize]) -> Result<Self> {
        crate::parallel::validate_runtime_env()?;
        let model: Box<dyn Model> = match spec {
            ModelSpec::OnlineHd(c) => Box::new(OnlineHd::fit(c, x, y)?),
            ModelSpec::CentroidHd(c) => Box::new(CentroidHd::fit(c, x, y)?),
            ModelSpec::BoostHd(c) => Box::new(BoostHd::fit(c, x, y)?),
            ModelSpec::QuantizedOnlineHd {
                base,
                tier,
                refit_epochs,
            } => {
                let f32 = Self::fit(&ModelSpec::OnlineHd(*base), x, y)?;
                return f32.freeze(*tier, Some((x, y, *refit_epochs)));
            }
            ModelSpec::QuantizedBoostHd {
                base,
                tier,
                refit_epochs,
            } => {
                let f32 = Self::fit(&ModelSpec::BoostHd(*base), x, y)?;
                return f32.freeze(*tier, Some((x, y, *refit_epochs)));
            }
            ModelSpec::Baseline(b) => baseline_builder()?(b, x, y)?,
        };
        Ok(Self {
            spec: spec.clone(),
            model,
            abstain_threshold: 0.0,
        })
    }

    /// This fitted f32 OnlineHD or BoostHD pipeline with its class memory
    /// frozen into `tier`, under the matching quantized spec and the same
    /// abstention threshold. With `refit = Some((x, y, epochs))` the
    /// memory is first refined for `epochs` straight-through epochs on
    /// `(x, y)` (the data is validated even at 0 epochs); with `None` it
    /// is frozen data-free.
    ///
    /// This is the one freeze: [`Pipeline::fit`] runs it for the
    /// quantized specs and [`Pipeline::ladder`] for every rung.
    ///
    /// # Errors
    ///
    /// [`BoostHdError::DataMismatch`] for inconsistent refit data, and
    /// [`BoostHdError::InvalidConfig`] for any other model family.
    pub fn freeze(&self, tier: Tier, refit: Option<(&Matrix, &[usize], usize)>) -> Result<Self> {
        let epochs = refit.map_or(0, |(_, _, epochs)| epochs);
        let spec = self
            .spec
            .quantized(tier, epochs)
            .ok_or_else(not_freezable)?;
        let model = match tier {
            Tier::Int8 => freeze_into::<I8Rows>(self.model.as_ref(), refit)?,
            Tier::Binary => freeze_into::<PackedMatrix>(self.model.as_ref(), refit)?,
        };
        Ok(Self::from_model(spec, model).with_abstain_threshold(self.abstain_threshold))
    }

    /// The degrade ladder of this pipeline, most precise first: the
    /// pipeline itself, then — for f32 OnlineHD and BoostHD — its
    /// data-free [`Pipeline::freeze`] into each [`Tier::LADDER`] rung.
    /// Other families get a one-rung ladder.
    ///
    /// A rung persists byte for byte as [`Pipeline::fit`] of its
    /// `{ tier, refit_epochs: 0 }` spec. The server steps through this
    /// ladder under overload, and `hdrun fleet add --ladder` publishes it
    /// as one store record.
    pub fn ladder(&self) -> Vec<Pipeline> {
        let rungs = Tier::LADDER
            .into_iter()
            .map_while(|tier| self.freeze(tier, None).ok());
        std::iter::once(self.clone()).chain(rungs).collect()
    }

    /// Wraps an already-trained model with its spec (the load path, and
    /// the escape hatch for models trained outside the facade).
    pub fn from_model(spec: ModelSpec, model: Box<dyn Model>) -> Self {
        Self {
            spec,
            model,
            abstain_threshold: 0.0,
        }
    }

    /// The spec the model was built from.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The trained model behind the facade.
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// Concrete-type view of the trained model, when the caller knows the
    /// family (fault-injection sweeps cloning the model, streaming updates
    /// on [`OnlineHd`], ...).
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.model.as_any().downcast_ref::<T>()
    }

    /// Mutable concrete-type view ([`Pipeline::downcast_ref`]).
    pub fn downcast_mut<T: Any>(&mut self) -> Option<&mut T> {
        self.model.as_any_mut().downcast_mut::<T>()
    }

    /// Flips stored parameter bits of the model behind the facade with
    /// per-bit probability `p_b` — memory-fault injection without
    /// downcasting to the concrete family (see
    /// [`Model::inject_bitflips`]). The campaign engine clones a pipeline
    /// and corrupts the clone, one trial at a time.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] for families that expose no
    /// parameter storage.
    pub fn inject_bitflips(&mut self, p_b: f64, rng: &mut Rng64) -> Result<BitflipReport> {
        self.model.inject_bitflips(p_b, rng)
    }

    /// Sets the abstention threshold: predictions whose confidence falls
    /// below it report `abstained = true`. `0.0` (the default) never
    /// abstains. Returns `self` for chaining.
    pub fn with_abstain_threshold(mut self, threshold: f32) -> Self {
        self.set_abstain_threshold(threshold);
        self
    }

    /// In-place [`Pipeline::with_abstain_threshold`].
    pub fn set_abstain_threshold(&mut self, threshold: f32) {
        self.abstain_threshold = threshold.clamp(0.0, 1.0);
    }

    /// The active abstention threshold.
    pub fn abstain_threshold(&self) -> f32 {
        self.abstain_threshold
    }

    /// Predicted class for one feature vector (ungated; see
    /// [`Pipeline::predict_with_confidence`] for the reliability-aware
    /// form).
    pub fn predict(&self, x: &[f32]) -> usize {
        self.model.predict(x)
    }

    /// Predicted classes for every row of `x`, through the model's batched
    /// path.
    pub fn predict_batch(&self, x: &Matrix) -> Vec<usize> {
        self.model.predict_batch(x)
    }

    /// [`Pipeline::predict_batch`] fanned out over `threads` scoped worker
    /// threads (identical results for any thread count).
    pub fn predict_batch_parallel(&self, x: &Matrix, threads: usize) -> Vec<usize> {
        predict_batch_chunked(self, x, threads)
    }

    fn prediction_from_scores(&self, scores: &[f32]) -> Prediction {
        let probabilities = normalized_probabilities(scores);
        let class = argmax(scores);
        let mut top = 0.0f32;
        let mut second = 0.0f32;
        for &p in &probabilities {
            if p > top {
                second = top;
                top = p;
            } else if p > second {
                second = p;
            }
        }
        let confidence = probabilities.get(class).copied().unwrap_or(0.0);
        Prediction {
            class,
            confidence,
            margin: (top - second).clamp(0.0, 1.0),
            probabilities,
            abstained: self.abstain_threshold > 0.0 && confidence < self.abstain_threshold,
        }
    }

    /// Confidence-aware prediction for one feature vector: normalized
    /// per-class probabilities, top-two margin, and the abstention flag
    /// (see [`Prediction`]).
    pub fn predict_with_confidence(&self, x: &[f32]) -> Prediction {
        self.prediction_from_scores(&self.model.scores(x))
    }

    /// Confidence-aware predictions for every row of `x`, through the
    /// model's batched scoring path (row-identical to the single-sample
    /// form).
    pub fn predict_batch_with_confidence(&self, x: &Matrix) -> Vec<Prediction> {
        let scores = self.model.scores_batch(x);
        (0..scores.rows())
            .map(|r| self.prediction_from_scores(scores.row(r)))
            .collect()
    }

    /// [`Pipeline::predict_batch_with_confidence`] fanned out over
    /// `threads` contiguous row chunks on the worker pool — the network
    /// serving flush primitive. Scoring is row-independent, so the result
    /// is identical to the single-threaded form for any thread count.
    ///
    /// The [`crate::parallel::ExecBackend`] argument selects nothing (the
    /// type has a single variant); it is kept so existing callers compile.
    pub fn predict_batch_with_confidence_chunked(
        &self,
        x: &Matrix,
        threads: usize,
        _backend: crate::parallel::ExecBackend,
    ) -> Vec<Prediction> {
        map_row_chunks(x, threads, |chunk| {
            self.predict_batch_with_confidence(chunk)
        })
    }

    /// The payload kind the model persists as.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] for families without a
    /// binary codec (the classical baselines).
    fn persisted_kind(&self) -> Result<PayloadKind> {
        match self.model.payload_kind() {
            PayloadKind::Unsupported => Err(BoostHdError::InvalidConfig {
                reason: format!(
                    "model family `{}` has no binary codec; only the HDC models persist",
                    self.spec.display_name()
                ),
            }),
            kind => Ok(kind),
        }
    }

    /// Serializes the pipeline — spec, abstention threshold, and model
    /// payload — into the versioned envelope.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] for families without a
    /// binary codec (the classical baselines).
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let kind = self.persisted_kind()?;
        let payload = self.model.to_payload()?;
        let (score_chunk, threads, source) = TUNING_RECORD;
        let mut w = Writer::new();
        w.put_u32(ENVELOPE_MAGIC);
        w.put_u8(ENVELOPE_VERSION);
        w.put_u8(kind.tag());
        w.put_f32(self.abstain_threshold);
        w.put_u32(score_chunk);
        w.put_u32(threads);
        w.put_u8(source);
        put_counted(&mut w, self.spec.to_toml().as_bytes());
        put_counted(&mut w, &payload);
        Ok(w.into_bytes())
    }

    /// Deserializes an envelope written by [`Pipeline::to_bytes`],
    /// restoring the spec, abstention threshold, and model.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] for truncated or corrupt
    /// envelopes, and [`BoostHdError::InvalidConfig`] when the embedded
    /// spec disagrees with the payload kind.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        if r.get_u32()? != ENVELOPE_MAGIC {
            return Err(pipeline_err("not a pipeline envelope (bad magic)"));
        }
        let version = r.get_u8()?;
        if !(ENVELOPE_MIN_VERSION..=ENVELOPE_VERSION).contains(&version) {
            return Err(pipeline_err(format!(
                "unsupported envelope version {version} (supported \
                 {ENVELOPE_MIN_VERSION}..={ENVELOPE_VERSION})"
            )));
        }
        let kind = PayloadKind::from_tag(r.get_u8()?)?;
        let abstain_threshold = r.get_f32()?;
        if version >= 2 {
            r.get_u32()?;
            r.get_u32()?;
            if r.get_u8()? > MAX_TUNING_SOURCE_TAG {
                return Err(pipeline_err("unknown tuning-source tag in envelope"));
            }
        }
        // Both counted sections validate their length prefix against the
        // bytes actually present before any allocation, so a corrupted
        // prefix fails descriptively instead of aborting on a huge
        // reserve.
        let spec = read_spec(&mut r, kind, "envelope")?;
        let payload_len = r.get_len()?;
        let payload = r.get_bytes(payload_len, "envelope payload")?;
        if !r.is_exhausted() {
            return Err(pipeline_err("trailing bytes after pipeline envelope"));
        }
        let mut payload = Reader::new(payload);
        let model = kind.decode(&mut payload, "envelope")?;
        if !payload.is_exhausted() {
            return Err(pipeline_err("trailing bytes after model blob"));
        }
        let mut pipeline = Self::from_model(spec, model);
        pipeline.set_abstain_threshold(abstain_threshold);
        Ok(pipeline)
    }

    /// Writes the envelope to a file — atomically. The bytes land in a
    /// same-directory temp file, are fsynced, and only then renamed over
    /// `path`, so a crash or kill mid-save leaves either the previous
    /// artifact or the complete new one, never a torn envelope that
    /// [`Pipeline::load`] would reject (or worse, misload).
    ///
    /// # Errors
    ///
    /// As [`Pipeline::to_bytes`], plus I/O failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let bytes = self.to_bytes()?;
        crate::persist::atomic_write(path.as_ref(), &bytes).map_err(|e| pipeline_err(e.to_string()))
    }

    /// Reads an envelope written by [`Pipeline::save`].
    ///
    /// # Errors
    ///
    /// As [`Pipeline::from_bytes`], plus I/O failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| pipeline_err(e.to_string()))?;
        Self::from_bytes(&bytes)
    }

    /// Serializes the pipeline for a fleet-store record as
    /// `(structure, heap)`: the structure stream holds the payload kind,
    /// abstention threshold, spec TOML, and the model's scalar skeleton,
    /// while every bulk array (projections, class matrices, packed words,
    /// int8 grids) lands in the 8-byte-aligned payload heap at an offset
    /// the structure stream records. [`Pipeline::decode_store_parts`]
    /// decodes them back into owned buffers.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] for families without a
    /// binary codec (the classical baselines).
    pub(crate) fn encode_store_parts(&self) -> Result<(Vec<u8>, Vec<u8>)> {
        let kind = self.persisted_kind()?;
        let mut w = Writer::new_with_heap();
        w.put_u8(kind.tag());
        w.put_f32(self.abstain_threshold);
        put_counted(&mut w, self.spec.to_toml().as_bytes());
        self.model.encode_store(&mut w)?;
        Ok(w.into_parts())
    }

    /// Rebuilds a pipeline from a fleet-store record: `structure` is the
    /// stream [`Pipeline::encode_store_parts`] produced and `heap` its
    /// payload heap. Every array is decoded into an owned buffer, so the
    /// pipeline keeps no reference to the record bytes.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] for truncated or corrupt
    /// records, and [`BoostHdError::InvalidConfig`] when the embedded
    /// spec disagrees with the payload kind.
    pub(crate) fn decode_store_parts(structure: &[u8], heap: &[u8]) -> Result<Self> {
        let mut r = Reader::new_with_heap(structure, heap);
        let kind = PayloadKind::from_tag(r.get_u8()?)?;
        let abstain_threshold = r.get_f32()?;
        let spec = read_spec(&mut r, kind, "store record")?;
        let model = kind.decode(&mut r, "store record")?;
        if !r.is_exhausted() {
            return Err(pipeline_err("trailing bytes after store record structure"));
        }
        let mut pipeline = Self::from_model(spec, model);
        pipeline.set_abstain_threshold(abstain_threshold);
        Ok(pipeline)
    }
}

/// Writes a length-prefixed byte section.
fn put_counted(w: &mut Writer, bytes: &[u8]) {
    w.put_u64(bytes.len() as u64);
    bytes.iter().for_each(|&b| w.put_u8(b));
}

/// Reads the counted spec TOML of an envelope or store record (`what`)
/// and checks it against the payload kind the header announced.
fn read_spec(r: &mut Reader<'_>, kind: PayloadKind, what: &str) -> Result<ModelSpec> {
    let len = r.get_len()?;
    let text = std::str::from_utf8(r.get_bytes(len, &format!("{what} spec"))?)
        .map_err(|_| pipeline_err(format!("{what} spec is not valid UTF-8")))?;
    let spec = ModelSpec::from_toml_str(text)?;
    if expected_payload_kind(&spec) != kind {
        return Err(BoostHdError::InvalidConfig {
            reason: format!(
                "{what} payload kind disagrees with its spec (`{}`)",
                spec.kind_tag()
            ),
        });
    }
    Ok(spec)
}

/// The payload kind a spec's trained model serializes through.
fn expected_payload_kind(spec: &ModelSpec) -> PayloadKind {
    match spec {
        ModelSpec::OnlineHd(_) => PayloadKind::OnlineHd,
        ModelSpec::CentroidHd(_) => PayloadKind::CentroidHd,
        ModelSpec::BoostHd(_) => PayloadKind::BoostHd,
        ModelSpec::QuantizedOnlineHd { tier, .. } => tier.names(false).2,
        ModelSpec::QuantizedBoostHd { tier, .. } => tier.names(true).2,
        ModelSpec::Baseline(_) => PayloadKind::Unsupported,
    }
}

/// [`Pipeline::freeze`] of `model` into the memory `Q`.
fn freeze_into<Q: ClassMemory>(
    model: &dyn Model,
    refit: Option<(&Matrix, &[usize], usize)>,
) -> Result<Box<dyn Model>> {
    let any = model.as_any();
    if let Some(m) = any.downcast_ref::<OnlineHd>() {
        Ok(Box::new(match refit {
            Some((x, y, epochs)) => m.single.refit::<Q>(x, y, m.config().lr, epochs)?,
            None => m.single.freeze::<Q>(),
        }))
    } else if let Some(m) = any.downcast_ref::<BoostHd>() {
        Ok(Box::new(match refit {
            Some((x, y, epochs)) => m.ensemble.refit::<Q>(x, y, m.config().lr, epochs)?,
            None => m.ensemble.freeze::<Q>(),
        }))
    } else {
        Err(not_freezable())
    }
}

fn not_freezable() -> BoostHdError {
    BoostHdError::InvalidConfig {
        reason: "only f32 OnlineHD and BoostHD models freeze into a quantized tier".into(),
    }
}

impl Classifier for Pipeline {
    fn num_classes(&self) -> usize {
        self.model.num_classes()
    }

    fn scores(&self, x: &[f32]) -> Vec<f32> {
        self.model.scores(x)
    }

    fn scores_batch(&self, x: &Matrix) -> Matrix {
        self.model.scores_batch(x)
    }

    fn predict_batch(&self, x: &Matrix) -> Vec<usize> {
        self.model.predict_batch(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{default_specs, small_hdc_specs};
    use linalg::Rng64;

    fn toy() -> (Matrix, Vec<usize>) {
        let mut rng = Rng64::seed_from(12);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..90 {
            let class = i % 3;
            rows.push(vec![class as f32 + 0.2 * rng.normal(), 0.2 * rng.normal()]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn every_hdc_spec_fits_and_round_trips_the_envelope() {
        let (x, y) = toy();
        for spec in small_hdc_specs() {
            let pipeline = Pipeline::fit(&spec, &x, &y)
                .unwrap_or_else(|e| panic!("{} failed to fit: {e}", spec.kind_tag()));
            let restored = Pipeline::from_bytes(&pipeline.to_bytes().unwrap())
                .unwrap_or_else(|e| panic!("{} failed to reload: {e}", spec.kind_tag()));
            assert_eq!(
                pipeline.predict_batch(&x),
                restored.predict_batch(&x),
                "{} predictions drifted through the envelope",
                spec.kind_tag()
            );
            assert_eq!(restored.spec(), &spec, "{}", spec.kind_tag());
        }
    }

    #[test]
    fn ladder_rungs_persist_as_the_fitted_refit_free_tiers() {
        let (x, y) = toy();
        for base in &small_hdc_specs()[..3] {
            let pipeline = Pipeline::fit(base, &x, &y).unwrap();
            let ladder = pipeline.with_abstain_threshold(0.4).ladder();
            let tags: Vec<&str> = ladder.iter().map(|p| p.spec().tier_tag()).collect();
            let one_rung = matches!(base, ModelSpec::CentroidHd(_));
            let expected = if one_rung {
                &["f32"][..]
            } else {
                &["f32", "int8", "binary"]
            };
            assert_eq!(tags, expected, "{}", base.kind_tag());
            for rung in &ladder[1..] {
                let spec = rung.spec();
                assert!(spec.to_toml().contains("refit_epochs = 0"), "{spec:?}");
                let fitted = Pipeline::fit(spec, &x, &y)
                    .unwrap()
                    .with_abstain_threshold(0.4);
                let what = spec.kind_tag();
                assert_eq!(
                    rung.to_bytes().unwrap(),
                    fitted.to_bytes().unwrap(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn envelope_preserves_abstain_threshold() {
        let (x, y) = toy();
        let pipeline = Pipeline::fit(&small_hdc_specs()[0], &x, &y)
            .unwrap()
            .with_abstain_threshold(0.61);
        let restored = Pipeline::from_bytes(&pipeline.to_bytes().unwrap()).unwrap();
        assert!((restored.abstain_threshold() - 0.61).abs() < 1e-6);
    }

    #[test]
    fn corrupt_envelopes_fail_loudly() {
        let (x, y) = toy();
        let bytes = Pipeline::fit(&small_hdc_specs()[0], &x, &y)
            .unwrap()
            .to_bytes()
            .unwrap();
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(Pipeline::from_bytes(&bad_magic).is_err());
        assert!(Pipeline::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Pipeline::from_bytes(&trailing).is_err());
        let mut wrong_version = bytes;
        wrong_version[4] = 9;
        assert!(Pipeline::from_bytes(&wrong_version).is_err());
    }

    #[test]
    fn confidence_is_normalized_and_margin_bounded() {
        let (x, y) = toy();
        for spec in small_hdc_specs() {
            let pipeline = Pipeline::fit(&spec, &x, &y).unwrap();
            for p in pipeline.predict_batch_with_confidence(&x) {
                assert!(
                    (0.0..=1.0).contains(&p.confidence),
                    "{}: confidence {}",
                    spec.kind_tag(),
                    p.confidence
                );
                assert!((0.0..=1.0).contains(&p.margin));
                let sum: f32 = p.probabilities.iter().sum();
                assert!((sum - 1.0).abs() < 1e-4, "probabilities sum {sum}");
                assert!(!p.abstained, "threshold 0 never abstains");
            }
        }
    }

    #[test]
    fn batched_confidence_matches_rowwise() {
        let (x, y) = toy();
        let pipeline = Pipeline::fit(&small_hdc_specs()[2], &x, &y).unwrap();
        let batch = pipeline.predict_batch_with_confidence(&x);
        for (r, batched) in batch.iter().enumerate() {
            let single = pipeline.predict_with_confidence(x.row(r));
            assert_eq!(single.class, batched.class);
            assert!((single.confidence - batched.confidence).abs() < 1e-6);
        }
    }

    #[test]
    fn abstention_threshold_gates_monotonically() {
        let (x, y) = toy();
        let mut pipeline = Pipeline::fit(&small_hdc_specs()[0], &x, &y).unwrap();
        let mut previous = 0usize;
        for threshold in [0.0f32, 0.34, 0.6, 0.9, 1.0] {
            pipeline.set_abstain_threshold(threshold);
            let abstained = pipeline
                .predict_batch_with_confidence(&x)
                .iter()
                .filter(|p| p.abstained)
                .count();
            assert!(
                abstained >= previous,
                "raising the threshold to {threshold} reduced abstentions"
            );
            previous = abstained;
        }
        // At threshold 1.0 + ε-free softmax, every 3-class prediction with
        // confidence < 1 abstains; decision() mirrors the flag.
        pipeline.set_abstain_threshold(0.5);
        for p in pipeline.predict_batch_with_confidence(&x) {
            assert_eq!(p.decision().is_none(), p.abstained);
        }
    }

    #[test]
    fn nan_scores_yield_zero_confidence_and_abstain() {
        let (x, y) = toy();
        let pipeline = Pipeline::fit(&small_hdc_specs()[0], &x, &y)
            .unwrap()
            .with_abstain_threshold(0.1);
        let p = pipeline.prediction_from_scores(&[f32::NAN, f32::NAN, f32::NAN]);
        assert_eq!(p.confidence, 0.0);
        assert!(p.abstained);
        assert_eq!(p.decision(), None);
        let p = pipeline.prediction_from_scores(&[f32::NAN, 0.4, 0.1]);
        assert_eq!(p.class, 1, "NaN loses to finite scores");
        assert_eq!(p.probabilities[0], 0.0);
    }

    #[test]
    fn abstention_threshold_zero_and_one_edges() {
        let (x, y) = toy();
        let mut pipeline = Pipeline::fit(&small_hdc_specs()[0], &x, &y).unwrap();
        // Threshold 0.0 (the default) never abstains, even on a row with
        // zero confidence (no finite evidence at all).
        pipeline.set_abstain_threshold(0.0);
        let p = pipeline.prediction_from_scores(&[f32::NAN, f32::NAN, f32::NAN]);
        assert_eq!(p.confidence, 0.0);
        assert!(!p.abstained, "threshold 0 must never abstain");
        assert_eq!(p.decision(), Some(0), "documented all-NaN fallback class");
        // Threshold 1.0 abstains on everything except full certainty.
        pipeline.set_abstain_threshold(1.0);
        for p in pipeline.predict_batch_with_confidence(&x) {
            assert_eq!(p.abstained, p.confidence < 1.0);
        }
        let certain = pipeline.prediction_from_scores(&[1.0e4, -1.0e4, -1.0e4]);
        assert_eq!(certain.confidence, 1.0, "softmax saturates");
        assert!(!certain.abstained, "full certainty survives threshold 1.0");
        // Out-of-range thresholds clamp instead of misbehaving.
        pipeline.set_abstain_threshold(7.5);
        assert_eq!(pipeline.abstain_threshold(), 1.0);
        pipeline.set_abstain_threshold(-0.5);
        assert_eq!(pipeline.abstain_threshold(), 0.0);
    }

    #[test]
    fn two_way_ties_pick_the_earliest_class_with_zero_margin() {
        let (x, y) = toy();
        let pipeline = Pipeline::fit(&small_hdc_specs()[0], &x, &y)
            .unwrap()
            .with_abstain_threshold(0.6);
        let p = pipeline.prediction_from_scores(&[0.5, 0.5]);
        assert_eq!(p.class, 0, "ties resolve to the earliest index");
        assert_eq!(p.margin, 0.0, "a perfect tie has no separation");
        assert!((p.confidence - 0.5).abs() < 1e-6);
        assert!(p.abstained, "tied 0.5 confidence sits below 0.6");
        // Three-way tie: uniform probabilities, still index 0.
        let p = pipeline.prediction_from_scores(&[2.0, 2.0, 2.0]);
        assert_eq!(p.class, 0);
        assert!((p.confidence - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(p.margin, 0.0);
    }

    #[test]
    fn single_class_models_are_always_certain() {
        let (x, _) = toy();
        let y = vec![0usize; x.rows()];
        for spec in [small_hdc_specs()[0].clone(), small_hdc_specs()[1].clone()] {
            let pipeline = Pipeline::fit(&spec, &x, &y)
                .unwrap()
                .with_abstain_threshold(1.0);
            assert_eq!(pipeline.num_classes(), 1, "{}", spec.kind_tag());
            for p in pipeline.predict_batch_with_confidence(&x) {
                assert_eq!(p.class, 0);
                assert_eq!(p.probabilities, vec![1.0]);
                assert_eq!(p.confidence, 1.0);
                assert_eq!(p.margin, 1.0, "top-1 minus a nonexistent top-2");
                assert!(
                    !p.abstained,
                    "a one-class model is certain even at threshold 1.0"
                );
            }
        }
    }

    #[test]
    fn all_nan_and_mixed_nan_rows_pin_the_argmax_fix() {
        let (x, y) = toy();
        let pipeline = Pipeline::fit(&small_hdc_specs()[0], &x, &y)
            .unwrap()
            .with_abstain_threshold(0.1);
        // All-NaN row: fallback class 0, zero everything, abstains.
        let p = pipeline.prediction_from_scores(&[f32::NAN; 3]);
        assert_eq!((p.class, p.confidence, p.margin), (0, 0.0, 0.0));
        assert_eq!(p.probabilities, vec![0.0; 3]);
        assert!(p.abstained && p.decision().is_none());
        // The PR-4 argmax regression: NaN must lose to every finite score,
        // including -inf and negatives in later positions.
        let p = pipeline.prediction_from_scores(&[f32::NAN, -5.0, -7.0]);
        assert_eq!(p.class, 1);
        assert_eq!(p.probabilities[0], 0.0, "NaN carries no probability");
        let p = pipeline.prediction_from_scores(&[f32::NEG_INFINITY, f32::NAN]);
        assert_eq!(p.class, 0, "-inf is still finite evidence ordering-wise");
        // +inf saturates the softmax instead of poisoning it: the max
        // filter treats it as non-finite, so the remaining mass wins.
        let p = pipeline.prediction_from_scores(&[f32::INFINITY, 1.0, 0.0]);
        assert!(p.probabilities.iter().all(|q| q.is_finite()));
    }

    #[test]
    fn envelope_with_bumped_unknown_version_fails_with_expected_variant() {
        let (x, y) = toy();
        let bytes = Pipeline::fit(&small_hdc_specs()[0], &x, &y)
            .unwrap()
            .to_bytes()
            .unwrap();
        // Byte 4 is the envelope version (after the u32 magic).
        for future_version in [3u8, 9, 250] {
            let mut bumped = bytes.clone();
            bumped[4] = future_version;
            let err = Pipeline::from_bytes(&bumped).unwrap_err();
            assert!(
                matches!(err, BoostHdError::DataMismatch { .. }),
                "version {future_version}: wrong variant {err:?}"
            );
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("unsupported envelope version {future_version}")),
                "{msg}"
            );
            assert!(
                msg.contains(&format!("{ENVELOPE_MIN_VERSION}..={ENVELOPE_VERSION}")),
                "the error must name the supported range: {msg}"
            );
        }
        // Version 0 predates the format and is equally unreadable.
        let mut ancient = bytes.clone();
        ancient[4] = 0;
        assert!(Pipeline::from_bytes(&ancient).is_err());
    }

    #[test]
    fn envelope_with_unknown_model_kind_fails_with_expected_variant() {
        let (x, y) = toy();
        let bytes = Pipeline::fit(&small_hdc_specs()[0], &x, &y)
            .unwrap()
            .to_bytes()
            .unwrap();
        // Byte 5 is the payload-kind tag; 8..255 are unassigned futures
        // (6/7 became the int8 tier in envelope v2).
        for future_kind in [8u8, 42, 255] {
            let mut unknown = bytes.clone();
            unknown[5] = future_kind;
            let err = Pipeline::from_bytes(&unknown).unwrap_err();
            assert!(
                matches!(err, BoostHdError::DataMismatch { .. }),
                "kind {future_kind}: wrong variant {err:?}"
            );
            assert!(
                err.to_string()
                    .contains(&format!("unknown payload kind {future_kind}")),
                "{err}"
            );
        }
        // A *known* kind that disagrees with the embedded spec is a
        // config-level mismatch, also loud, also not a panic.
        let mut mismatched = bytes.clone();
        mismatched[5] = PayloadKind::CentroidHd.tag();
        let err = Pipeline::from_bytes(&mismatched).unwrap_err();
        assert!(matches!(err, BoostHdError::InvalidConfig { .. }), "{err:?}");
        assert!(err.to_string().contains("disagrees"), "{err}");
    }

    #[test]
    fn v1_envelopes_without_tuning_record_remain_readable() {
        let (x, y) = toy();
        let pipeline = Pipeline::fit(&small_hdc_specs()[0], &x, &y)
            .unwrap()
            .with_abstain_threshold(0.4);
        let v2 = pipeline.to_bytes().unwrap();
        // A v1 envelope is the v2 layout minus the 9-byte tuning record
        // (u32 score_chunk + u32 threads + u8 source tag) that v2 inserts
        // after the abstain threshold at offset 10.
        let mut v1 = Vec::with_capacity(v2.len() - 9);
        v1.extend_from_slice(&v2[..10]);
        v1.extend_from_slice(&v2[19..]);
        v1[4] = 1;
        let restored = Pipeline::from_bytes(&v1).expect("v1 envelope must stay readable");
        assert_eq!(restored.predict_batch(&x), pipeline.predict_batch(&x));
        assert!((restored.abstain_threshold() - 0.4).abs() < 1e-6);
    }

    #[test]
    fn tuning_record_is_fixed_on_save_and_skipped_on_load() {
        let (x, y) = toy();
        let pipeline = Pipeline::fit(&small_hdc_specs()[0], &x, &y).unwrap();
        let bytes = pipeline.to_bytes().unwrap();
        assert_eq!(bytes[10..19], [0, 1, 0, 0, 0, 0, 0, 0, 0]);
        // Older envelopes stamped whatever the saving process timed; any
        // chunk and thread count with a known source tag loads the same.
        let mut autotuned = bytes.clone();
        autotuned[10..19].copy_from_slice(&[64, 0, 0, 0, 1, 0, 0, 0, 1]);
        let restored = Pipeline::from_bytes(&autotuned).unwrap();
        assert_eq!(restored.predict_batch(&x), pipeline.predict_batch(&x));
        assert_eq!(restored.to_bytes().unwrap(), bytes);
        let mut unknown = bytes;
        unknown[18] = 2;
        let err = Pipeline::from_bytes(&unknown).unwrap_err();
        assert!(err.to_string().contains("tuning-source tag"), "{err}");
    }

    #[test]
    fn unregistered_baseline_reports_clear_error() {
        // Nothing in this crate's test binary ever registers a baseline
        // builder (the registration lives in the `baselines` crate), so
        // the registry is guaranteed empty here.
        let ModelSpec::Baseline(_) = &default_specs(1)[7] else {
            panic!("spec order changed");
        };
        let (x, y) = toy();
        let err = Pipeline::fit(&default_specs(1)[7], &x, &y).unwrap_err();
        assert!(
            err.to_string().contains("no baseline builder registered"),
            "{err}"
        );
        assert!(
            err.to_string().contains("baselines::spec::install"),
            "error must tell the caller the fix: {err}"
        );
    }

    #[test]
    fn downcasts_reach_the_concrete_model() {
        let (x, y) = toy();
        let mut pipeline = Pipeline::fit(&small_hdc_specs()[0], &x, &y).unwrap();
        assert!(pipeline.downcast_ref::<OnlineHd>().is_some());
        assert!(pipeline.downcast_ref::<BoostHd>().is_none());
        let before = pipeline.predict(x.row(0));
        // The mutable downcast reaches OnlineHd's streaming update hook.
        pipeline
            .downcast_mut::<OnlineHd>()
            .unwrap()
            .update(x.row(0), y[0])
            .unwrap();
        let _ = before;
    }

    #[test]
    fn pipeline_is_a_classifier_for_the_serving_engine() {
        fn takes_classifier<C: Classifier + Sync>(_c: &C) {}
        let (x, y) = toy();
        let pipeline = Pipeline::fit(&small_hdc_specs()[1], &x, &y).unwrap();
        takes_classifier(&pipeline);
        assert_eq!(
            pipeline.predict_batch_parallel(&x, 3),
            pipeline.predict_batch(&x)
        );
    }
}
