//! Frozen inference models: one class-memory abstraction, two shapes.
//!
//! At inference every HDC model in this crate does the same thing: encode
//! the query with a random projection, score (a segment of) the encoding
//! against a class memory, and — for BoostHD — let the weak learners cast
//! an `α`-weighted vote. This module writes that rule once.
//!
//! * [`ClassMemory`] is the associative memory a model scores against:
//!   dense f32 rows ([`Matrix`], cosine), int8 rows
//!   ([`crate::quantized_i8::I8Rows`], widening integer dot) or packed
//!   sign rows ([`hdc::backend::PackedMatrix`], XOR + popcount). It owns
//!   scoring, freezing from trained rows, the refit row update, storage
//!   bytes, bit-flip injection and its BHD1 array codec (zero-copy in
//!   the fleet store).
//! * [`Single`] is one encoder plus one memory; [`Ensemble`] is one
//!   shared encoder plus weak learners, each scoring a segment of the
//!   encoding (or, in the full-dimension ablation, its private encoder's
//!   output) against its memory. The shapes hold the only copy of chunked
//!   encoding, voting, `from_parts` validation, refit and the blob codec.
//!
//! Memory × shape gives the quantization ladder:
//!
//! | shape        | f32 [`Matrix`]              | int8 `I8Rows`                    | 1-bit `PackedMatrix`          |
//! |--------------|-----------------------------|----------------------------------|-------------------------------|
//! | [`Single`]   | [`crate::CentroidHd`], inside [`crate::OnlineHd`] | [`crate::QuantizedI8Hd`] | [`crate::QuantizedHd`] |
//! | [`Ensemble`] | inside [`crate::BoostHd`]   | [`crate::QuantizedI8BoostHd`]    | [`crate::QuantizedBoostHd`]   |
//!
//! Quantizing is a map over the memory: the encoder, segments and vote
//! weights carry over unchanged. A new memory tier is one [`ClassMemory`]
//! impl; the BHD1 kinds the shapes persist under are listed in the
//! [`crate::persist`] module docs.

use crate::boost::Voting;
use crate::classifier::{argmax, argmax_rows, Classifier};
use crate::error::{BoostHdError, Result};
use crate::online::scores_unit_classes_batch;
use crate::persist::{self, Reader, Writer};
use crate::pipeline::PayloadKind;
use faults::{BitflipReport, Perturbable};
use hdc::encoder::{Encode, SinusoidEncoder};
use linalg::matrix::norm;
use linalg::{Matrix, Rng64};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// The class memory a frozen model scores encoded queries against: one
/// row per class, at some storage precision. See the [module docs](self).
pub trait ClassMemory: Clone + std::fmt::Debug + Send + Sync + 'static {
    /// Per-query scratch reused across rows (the quantized query bytes or
    /// packed sign words); `()` when scoring needs none.
    type Scratch: Default;

    /// Payload kind a [`Single`] over this memory persists as.
    const SINGLE: PayloadKind;

    /// Payload kind an [`Ensemble`] over this memory persists as
    /// ([`PayloadKind::Unsupported`] when only a trained model wraps it).
    const ENSEMBLE: PayloadKind;

    /// Freezes trained dense class rows into this memory.
    fn from_dense(classes: &Matrix) -> Self;

    /// Number of class rows.
    fn rows(&self) -> usize;

    /// Width of each class row (the encoded segment it scores).
    fn dim(&self) -> usize;

    /// Scores one encoded segment `h` against every class row into `out`
    /// (`rows()` slots).
    fn score_row(&self, h: &[f32], scratch: &mut Self::Scratch, out: &mut [f32]);

    /// Scores columns `cols` of every row of the encoded chunk `z`, as a
    /// `z.rows() × rows()` matrix whose rows equal [`ClassMemory::score_row`]
    /// bit for bit.
    fn score_chunk(&self, z: &Matrix, cols: Range<usize>, scratch: &mut Self::Scratch) -> Matrix {
        let mut out = Matrix::zeros(z.rows(), self.rows());
        for r in 0..z.rows() {
            self.score_row(&z.row(r)[cols.clone()], scratch, out.row_mut(r));
        }
        out
    }

    /// Re-freezes class row `r` from fresh dense values (the
    /// straight-through refit update).
    fn set_row(&mut self, r: usize, src: &[f32], scratch: &mut Self::Scratch);

    /// Bytes a deployed memory holds for these rows.
    fn storage_bytes(&self) -> usize;

    /// Flips each stored bit of `memories`, taken as one parameter store
    /// in order, with probability `p_b`, and refreshes anything derived
    /// from the stored bits.
    fn inject_bitflips(memories: Vec<&mut Self>, p_b: f64, rng: &mut Rng64) -> BitflipReport;

    /// Writes the memory's BHD1 array encoding.
    fn put(&self, w: &mut Writer);

    /// Reads a memory written by [`ClassMemory::put`]; with a shared-mode
    /// reader the bulk array stays a zero-copy view into the blob.
    ///
    /// # Errors
    ///
    /// Fails on truncated or inconsistent input.
    fn get(r: &mut Reader<'_>) -> Result<Self>;
}

/// Several class memories viewed as one parameter store, in order — the
/// fault-injection target [`ClassMemory::inject_bitflips`] hands to the
/// [`faults`] injectors.
pub(crate) struct Stores<'a, M>(pub(crate) Vec<&'a mut M>);

impl Perturbable for Stores<'_, Matrix> {
    fn param_buffers_mut(&mut self) -> Vec<&mut [f32]> {
        self.0.iter_mut().map(|m| m.as_mut_slice()).collect()
    }
}

/// Unit-normalized dense f32 class rows; scores are cosine similarities.
impl ClassMemory for Matrix {
    type Scratch = ();
    /// The single f32 memory is [`crate::CentroidHd`].
    const SINGLE: PayloadKind = PayloadKind::CentroidHd;
    /// f32 ensembles persist only inside [`crate::BoostHd`].
    const ENSEMBLE: PayloadKind = PayloadKind::Unsupported;

    fn from_dense(classes: &Matrix) -> Self {
        classes.clone()
    }

    fn rows(&self) -> usize {
        Matrix::rows(self)
    }

    fn dim(&self) -> usize {
        self.cols()
    }

    fn score_row(&self, h: &[f32], _: &mut (), out: &mut [f32]) {
        linalg::kernels::cosine_scores_into(self, h, norm(h), out);
    }

    /// One `matmul_transposed` per chunk.
    fn score_chunk(&self, z: &Matrix, cols: Range<usize>, _: &mut ()) -> Matrix {
        if cols == (0..z.cols()) {
            scores_unit_classes_batch(self, z)
        } else {
            scores_unit_classes_batch(self, &z.slice_columns(cols.start, cols.end))
        }
    }

    fn set_row(&mut self, r: usize, src: &[f32], _: &mut ()) {
        self.row_mut(r).copy_from_slice(src);
    }

    fn storage_bytes(&self) -> usize {
        std::mem::size_of_val(self.as_slice())
    }

    fn inject_bitflips(memories: Vec<&mut Self>, p_b: f64, rng: &mut Rng64) -> BitflipReport {
        faults::flip_bits(&mut Stores(memories), p_b, rng)
    }

    fn put(&self, w: &mut Writer) {
        w.put_matrix(self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.get_matrix()
    }
}

/// Walks a batch in row chunks, calling `f(start, chunk)` for each. The
/// chunk width is large enough to amortize the projection stream across
/// an encode GEMM row block, small enough that the encoded chunk
/// (`chunk × D` f32) stays cache-resident instead of round-tripping a
/// whole-batch hypervector matrix through memory. It is the fixed
/// [`linalg::autotune::SCORE_CHUNK`], so a batch splits at the same seams
/// on every machine.
fn for_each_chunk(x: &Matrix, mut f: impl FnMut(usize, &Matrix)) {
    let chunk = linalg::autotune::SCORE_CHUNK;
    let mut start = 0;
    while start < x.rows() {
        let end = (start + chunk).min(x.rows());
        f(start, &x.slice_rows(start, end));
        start = end;
    }
}

/// Validates refit inputs against a trained model's shape.
fn validate_refit_inputs(
    x: &Matrix,
    y: &[usize],
    input_len: usize,
    num_classes: usize,
) -> Result<()> {
    let reason = if x.rows() == 0 || x.rows() != y.len() {
        format!("{} refit rows but {} labels", x.rows(), y.len())
    } else if x.cols() != input_len {
        let cols = x.cols();
        format!("refit samples have {cols} features but the encoder expects {input_len}")
    } else if let Some(&bad) = y.iter().find(|&&yi| yi >= num_classes) {
        format!("refit label {bad} outside the {num_classes} trained classes")
    } else {
        return Ok(());
    };
    Err(BoostHdError::DataMismatch { reason })
}

/// Straight-through refinement of one class memory: score each encoded
/// sample against the frozen rows (exactly the deployment arithmetic),
/// apply the OnlineHD update to the f32 `shadow` rows on a
/// misclassification, and re-freeze the two touched rows.
fn refit_memory<Q: ClassMemory>(
    z: &Matrix,
    y: &[usize],
    shadow: &mut Matrix,
    lr: f32,
    epochs: usize,
) -> Q {
    let mut memory = Q::from_dense(shadow);
    let mut scratch = Q::Scratch::default();
    let mut sims = vec![0.0f32; shadow.rows()];
    for _epoch in 0..epochs {
        for (r, &truth) in y.iter().enumerate() {
            let h = z.row(r);
            memory.score_row(h, &mut scratch, &mut sims);
            let pred = argmax(&sims);
            if pred == truth {
                continue;
            }
            let hn = norm(h);
            if hn == 0.0 {
                continue;
            }
            // Frozen scores live on the cosine scale, so the (1 − δ) error
            // weighting carries over; the sample is normalized like
            // OnlineHd::update so one step nudges rather than overwrites
            // the shadow direction.
            hdc::ops::bundle_into(shadow.row_mut(truth), h, lr * (1.0 - sims[truth]) / hn);
            hdc::ops::bundle_into(shadow.row_mut(pred), h, -lr * (1.0 - sims[pred]) / hn);
            memory.set_row(truth, shadow.row(truth), &mut scratch);
            memory.set_row(pred, shadow.row(pred), &mut scratch);
        }
    }
    memory
}

/// A single-learner model: one encoder and one class memory. See the
/// [module docs](self).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Single<M> {
    pub(crate) encoder: SinusoidEncoder,
    pub(crate) memory: M,
}

impl<M: ClassMemory> Single<M> {
    /// Reassembles a model from stored parts (the persistence path);
    /// fails when the memory's class count disagrees with `num_classes` or
    /// its width with the encoder's.
    pub(crate) fn from_parts(
        encoder: SinusoidEncoder,
        memory: M,
        num_classes: usize,
    ) -> Result<Self> {
        let reason = if memory.rows() != num_classes {
            "class count disagrees with header"
        } else if memory.dim() != encoder.dim() {
            "class width disagrees with encoder"
        } else {
            return Ok(Self { encoder, memory });
        };
        Err(BoostHdError::DataMismatch {
            reason: reason.into(),
        })
    }

    /// Hyperspace dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.memory.dim()
    }

    /// The (f32) query encoder.
    pub fn encoder(&self) -> &SinusoidEncoder {
        &self.encoder
    }

    /// Bytes of class-hypervector storage a deployed memory holds
    /// (excludes the projection).
    pub fn class_storage_bytes(&self) -> usize {
        self.memory.storage_bytes()
    }

    /// Per-class similarities for an already-encoded hypervector `h` —
    /// the associative-memory sweep alone, no encode.
    pub fn scores_encoded(&self, h: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.memory.rows()];
        self.memory
            .score_row(h, &mut M::Scratch::default(), &mut out);
        out
    }

    /// Bit-flip injection over the class memory ([`ClassMemory::inject_bitflips`]).
    pub(crate) fn inject_bitflips(&mut self, p_b: f64, rng: &mut Rng64) -> BitflipReport {
        M::inject_bitflips(vec![&mut self.memory], p_b, rng)
    }

    /// Writes the blob body after the header: class count, encoder, memory.
    pub(crate) fn put_body(&self, w: &mut Writer) {
        w.put_u64(self.memory.rows() as u64);
        persist::put_encoder(w, &self.encoder);
        self.memory.put(w);
    }

    /// Reads a body written by [`Single::put_body`] and validates it.
    pub(crate) fn get_body(r: &mut Reader<'_>, version: u8) -> Result<Self> {
        let num_classes = r.get_len()?;
        let encoder = persist::get_encoder(r, version)?;
        let memory = M::get(r)?;
        Self::from_parts(encoder, memory, num_classes)
    }

    /// Writes the full blob, header included.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        persist::put_header(w, M::SINGLE);
        self.put_body(w);
    }

    /// Decodes a full blob written by [`Single::encode_into`].
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let version = persist::check_header(r, M::SINGLE)?;
        Self::get_body(r, version)
    }
}

impl Single<Matrix> {
    /// Freezes the f32 memory into `Q` (data-free quantization).
    pub(crate) fn freeze<Q: ClassMemory>(&self) -> Single<Q> {
        Single {
            encoder: self.encoder.clone(),
            memory: Q::from_dense(&self.memory),
        }
    }

    /// Freezes into `Q` after `epochs` of straight-through refinement on
    /// `(x, y)` at learning rate `lr`.
    pub(crate) fn refit<Q: ClassMemory>(
        &self,
        x: &Matrix,
        y: &[usize],
        lr: f32,
        epochs: usize,
    ) -> Result<Single<Q>> {
        validate_refit_inputs(x, y, self.encoder.input_len(), self.memory.rows())?;
        if epochs == 0 {
            return Ok(self.freeze());
        }
        let z = self.encoder.encode_batch(x);
        let mut shadow = self.memory.clone();
        Ok(Single {
            encoder: self.encoder.clone(),
            memory: refit_memory(&z, y, &mut shadow, lr, epochs),
        })
    }
}

persist::blob_codec!(Single<M> where M: ClassMemory);

impl<M: ClassMemory> Classifier for Single<M> {
    fn num_classes(&self) -> usize {
        self.memory.rows()
    }

    fn scores(&self, x: &[f32]) -> Vec<f32> {
        self.scores_encoded(&self.encoder.encode_row(x))
    }

    fn scores_batch(&self, x: &Matrix) -> Matrix {
        // Each chunk is encoded once into a reused buffer and scored with
        // one batched sweep; scoring is row-independent, so the chunk width
        // cannot change results.
        let mut out = Matrix::zeros(x.rows(), self.memory.rows());
        let mut zbuf = Matrix::zeros(0, 0);
        let mut scratch = M::Scratch::default();
        for_each_chunk(x, |start, xc| {
            self.encoder.encode_batch_into(xc, &mut zbuf);
            let sims = self.memory.score_chunk(&zbuf, 0..zbuf.cols(), &mut scratch);
            for r in 0..sims.rows() {
                out.row_mut(start + r).copy_from_slice(sims.row(r));
            }
        });
        out
    }

    fn predict_batch(&self, x: &Matrix) -> Vec<usize> {
        argmax_rows(&self.scores_batch(x))
    }
}

/// One weak learner of an [`Ensemble`]: its class memory, vote weight and
/// the segment of the shared encoding it scores.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Learner<M> {
    pub(crate) memory: M,
    pub(crate) alpha: f32,
    pub(crate) segment: Range<usize>,
    /// Present only in the full-dimension ablation: the learner encodes
    /// queries itself instead of reading `segment` of the shared encoding.
    pub(crate) own_encoder: Option<SinusoidEncoder>,
}

/// A boosted ensemble of weak learners over one shared full-`D` encoder,
/// aggregated by an `α`-weighted vote. See the [module docs](self).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ensemble<M> {
    pub(crate) encoder: SinusoidEncoder,
    pub(crate) learners: Vec<Learner<M>>,
    pub(crate) num_classes: usize,
    pub(crate) voting: Voting,
}

impl<M: ClassMemory> Ensemble<M> {
    /// Reassembles an ensemble from stored parts (the persistence path);
    /// fails when the shared encoder is not `dim_total` wide, a segment
    /// falls outside it, or a learner's memory disagrees with
    /// `num_classes`, its segment or its private encoder.
    pub(crate) fn from_parts(
        encoder: SinusoidEncoder,
        learners: Vec<Learner<M>>,
        num_classes: usize,
        voting: Voting,
        dim_total: usize,
    ) -> Result<Self> {
        let mismatch = |reason: String| Err(BoostHdError::DataMismatch { reason });
        if encoder.dim() != dim_total {
            return mismatch(format!(
                "shared encoder is {} wide but the ensemble spans {dim_total} dimensions",
                encoder.dim()
            ));
        }
        for l in &learners {
            let seg = &l.segment;
            if seg.start > seg.end || seg.end > dim_total {
                return mismatch(format!("segment {}..{} out of bounds", seg.start, seg.end));
            }
            if l.memory.rows() != num_classes {
                return mismatch("learner class count disagrees with header".into());
            }
            match &l.own_encoder {
                None if l.memory.dim() != seg.len() => {
                    return mismatch("class width disagrees with segment".into());
                }
                Some(enc) if l.memory.dim() != enc.dim() => {
                    return mismatch("class width disagrees with learner encoder".into());
                }
                Some(enc) if enc.input_len() != encoder.input_len() => {
                    return mismatch("learner encoder input width disagrees".into());
                }
                _ => {}
            }
        }
        Ok(Self {
            encoder,
            learners,
            num_classes,
            voting,
        })
    }

    /// Number of weak learners `N_L`.
    pub fn num_learners(&self) -> usize {
        self.learners.len()
    }

    /// Total hyperspace dimensionality `D_total`.
    pub fn dim_total(&self) -> usize {
        self.encoder.dim()
    }

    /// Vote aggregation rule inherited from the f32 ensemble.
    pub fn voting(&self) -> Voting {
        self.voting
    }

    /// The shared full-`D` (f32) query encoder.
    pub fn encoder(&self) -> &SinusoidEncoder {
        &self.encoder
    }

    /// Vote weights `α_i`, in training order.
    pub fn alphas(&self) -> Vec<f32> {
        self.learners.iter().map(|l| l.alpha).collect()
    }

    /// Bytes of class-hypervector storage across all weak learners.
    pub fn class_storage_bytes(&self) -> usize {
        self.learners.iter().map(|l| l.memory.storage_bytes()).sum()
    }

    /// Bit-flip injection over every learner's memory, in training order.
    pub(crate) fn inject_bitflips(&mut self, p_b: f64, rng: &mut Rng64) -> BitflipReport {
        let memories = self.learners.iter_mut().map(|l| &mut l.memory).collect();
        M::inject_bitflips(memories, p_b, rng)
    }

    /// Whether any learner reads the shared encoding.
    fn needs_full(&self) -> bool {
        self.learners.iter().any(|l| l.own_encoder.is_none())
    }

    /// Adds one learner's vote for one query to `votes`.
    fn vote(&self, votes: &mut [f32], sims: &[f32], alpha: f32) {
        match self.voting {
            Voting::Hard => votes[argmax(sims)] += alpha,
            Voting::Soft => {
                for (v, s) in votes.iter_mut().zip(sims.iter()) {
                    *v += alpha * s;
                }
            }
        }
    }

    /// Writes the learner list: count, then per learner `α`, segment,
    /// memory and the optional private encoder.
    pub(crate) fn put_learners(&self, w: &mut Writer) {
        w.put_u64(self.learners.len() as u64);
        for l in &self.learners {
            w.put_f32(l.alpha);
            w.put_u64(l.segment.start as u64);
            w.put_u64(l.segment.end as u64);
            l.memory.put(w);
            match &l.own_encoder {
                None => w.put_u8(0),
                Some(enc) => {
                    w.put_u8(1);
                    persist::put_encoder(w, enc);
                }
            }
        }
    }

    /// Reads a learner list written by [`Ensemble::put_learners`]
    /// (validation is [`Ensemble::from_parts`]'s job).
    pub(crate) fn get_learners(r: &mut Reader<'_>, version: u8) -> Result<Vec<Learner<M>>> {
        let n = r.get_len()?;
        let mut learners = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let alpha = r.get_f32()?;
            let start = r.get_len()?;
            let end = r.get_len()?;
            let memory = M::get(r)?;
            let own_encoder = match r.get_u8()? {
                0 => None,
                1 => Some(persist::get_encoder(r, version)?),
                other => return Err(persist::persist_err(format!("unknown encoder tag {other}"))),
            };
            learners.push(Learner {
                memory,
                alpha,
                segment: start..end,
                own_encoder,
            });
        }
        Ok(learners)
    }

    /// Writes the full blob: header, `D_total`, voting, class count,
    /// shared encoder, learners.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        persist::put_header(w, M::ENSEMBLE);
        w.put_u64(self.dim_total() as u64);
        w.put_u8(persist::tag_of(&persist::VOTINGS, self.voting));
        w.put_u64(self.num_classes as u64);
        persist::put_encoder(w, &self.encoder);
        self.put_learners(w);
    }

    /// Decodes a full blob written by [`Ensemble::encode_into`].
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let version = persist::check_header(r, M::ENSEMBLE)?;
        let dim_total = r.get_len()?;
        let voting = persist::from_tag(&persist::VOTINGS, r.get_u8()?, "voting")?;
        let num_classes = r.get_len()?;
        let encoder = persist::get_encoder(r, version)?;
        let learners = Self::get_learners(r, version)?;
        Self::from_parts(encoder, learners, num_classes, voting, dim_total)
    }
}

impl Ensemble<Matrix> {
    /// Freezes every learner's memory into `Q`, keeping encoders,
    /// segments and vote weights.
    pub(crate) fn freeze<Q: ClassMemory>(&self) -> Ensemble<Q> {
        self.map_memories(|l| Q::from_dense(&l.memory))
    }

    /// Freezes into `Q` after `epochs` of per-learner straight-through
    /// refinement on `(x, y)`: each learner refines against its own
    /// segment of the encoded refit batch.
    pub(crate) fn refit<Q: ClassMemory>(
        &self,
        x: &Matrix,
        y: &[usize],
        lr: f32,
        epochs: usize,
    ) -> Result<Ensemble<Q>> {
        validate_refit_inputs(x, y, self.encoder.input_len(), self.num_classes)?;
        if epochs == 0 {
            return Ok(self.freeze());
        }
        let z = self.encoder.encode_batch(x);
        Ok(self.map_memories(|l| {
            let zi = match &l.own_encoder {
                None => z.slice_columns(l.segment.start, l.segment.end),
                Some(enc) => enc.encode_batch(x),
            };
            refit_memory(&zi, y, &mut l.memory.clone(), lr, epochs)
        }))
    }

    fn map_memories<Q: ClassMemory>(
        &self,
        mut f: impl FnMut(&Learner<Matrix>) -> Q,
    ) -> Ensemble<Q> {
        Ensemble {
            encoder: self.encoder.clone(),
            learners: self
                .learners
                .iter()
                .map(|l| Learner {
                    memory: f(l),
                    alpha: l.alpha,
                    segment: l.segment.clone(),
                    own_encoder: l.own_encoder.clone(),
                })
                .collect(),
            num_classes: self.num_classes,
            voting: self.voting,
        }
    }
}

persist::blob_codec!(Ensemble<M> where M: ClassMemory);

impl<M: ClassMemory> Classifier for Ensemble<M> {
    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn scores(&self, x: &[f32]) -> Vec<f32> {
        let full_h = if self.needs_full() {
            self.encoder.encode_row(x)
        } else {
            Vec::new()
        };
        let mut votes = vec![0.0f32; self.num_classes];
        let mut sims = vec![0.0f32; self.num_classes];
        let mut scratch = M::Scratch::default();
        for l in &self.learners {
            match &l.own_encoder {
                None => l
                    .memory
                    .score_row(&full_h[l.segment.clone()], &mut scratch, &mut sims),
                Some(enc) => l
                    .memory
                    .score_row(&enc.encode_row(x), &mut scratch, &mut sims),
            }
            self.vote(&mut votes, &sims, l.alpha);
        }
        votes
    }

    fn scores_batch(&self, x: &Matrix) -> Matrix {
        // Each chunk is encoded once at full `D` (plus once per private
        // encoder in the ablation), then every learner scores its segment
        // with one batched sweep. Learners are visited in training order so
        // the vote sums accumulate exactly like the row path.
        let mut votes = Matrix::zeros(x.rows(), self.num_classes);
        let needs_full = self.needs_full();
        let mut zbuf = Matrix::zeros(0, 0);
        let mut own_zbuf = Matrix::zeros(0, 0);
        let mut scratch = M::Scratch::default();
        for_each_chunk(x, |start, xc| {
            if needs_full {
                self.encoder.encode_batch_into(xc, &mut zbuf);
            }
            for l in &self.learners {
                let sims = match &l.own_encoder {
                    None => l.memory.score_chunk(&zbuf, l.segment.clone(), &mut scratch),
                    Some(enc) => {
                        enc.encode_batch_into(xc, &mut own_zbuf);
                        l.memory
                            .score_chunk(&own_zbuf, 0..own_zbuf.cols(), &mut scratch)
                    }
                };
                for r in 0..sims.rows() {
                    self.vote(votes.row_mut(start + r), sims.row(r), l.alpha);
                }
            }
        });
        votes
    }

    fn predict_batch(&self, x: &Matrix) -> Vec<usize> {
        argmax_rows(&self.scores_batch(x))
    }
}
