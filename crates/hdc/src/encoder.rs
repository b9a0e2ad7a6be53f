//! Encoders mapping feature vectors into hyperdimensional space.
//!
//! The paper's HDC pipeline (Section II-C) encodes a data point `x ∈ ℝᶠ` as a
//! hypervector `H ∈ ℝᴰ` by "matrix multiplication with Gaussian distribution
//! values and trigonometric activation functions such as sine and cosine".
//! Concretely, following the OnlineHD encoder this work builds on:
//!
//! ```text
//! z = P · x        with  P ∈ ℝ^{D×F},  P_{d,f} ~ N(0, 1)
//! φ(x)_d = cos(z_d + b_d) · sin(z_d)   with  b_d ~ U[0, 2π)
//! ```
//!
//! The projection rows are the per-dimension Gaussian kernels; the
//! trigonometric activation makes the encoding nonlinear (an approximation
//! of an RBF random-feature map). BoostHD's weak learners each own a
//! contiguous *row slice* of `P` — the `D/n`-dimensional sub-space — produced
//! by [`SinusoidEncoder::slice_dims`].

use crate::error::{HdcError, Result};
use linalg::{Matrix, Rng64};
use serde::{Deserialize, Serialize};

/// Types that encode feature vectors into hypervectors.
pub trait Encode {
    /// Output dimensionality `D`.
    fn dim(&self) -> usize;

    /// Expected input feature count `F`.
    fn input_len(&self) -> usize;

    /// Encodes one feature vector into a fresh hypervector buffer.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != self.input_len()`; use
    /// [`Encode::try_encode_row`] for a fallible variant.
    fn encode_row(&self, x: &[f32]) -> Vec<f32>;

    /// Fallible encoding with explicit feature-length checking.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::FeatureMismatch`] if `x.len() != self.input_len()`.
    fn try_encode_row(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.input_len() {
            return Err(HdcError::FeatureMismatch {
                expected: self.input_len(),
                actual: x.len(),
            });
        }
        Ok(self.encode_row(x))
    }

    /// Encodes a batch of samples (rows of `x`) into a `samples × D` matrix.
    ///
    /// Implementations must produce rows bit-identical to
    /// [`Encode::encode_row`] on the same inputs, so batched inference can
    /// replace row-at-a-time inference without changing a single
    /// prediction.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.input_len()`.
    fn encode_batch(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.cols(),
            self.input_len(),
            "batch feature count {} does not match encoder input {}",
            x.cols(),
            self.input_len()
        );
        let mut out = Matrix::zeros(x.rows(), self.dim());
        for r in 0..x.rows() {
            out.row_mut(r).copy_from_slice(&self.encode_row(x.row(r)));
        }
        out
    }

    /// [`Encode::encode_batch`] writing into a caller-owned matrix, reusing
    /// its allocation — the hook streaming inference loops use to encode
    /// micro-batch after micro-batch without allocator churn.
    ///
    /// `out` is reshaped to `x.rows() × self.dim()`; previous contents are
    /// discarded.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.input_len()`.
    fn encode_batch_into(&self, x: &Matrix, out: &mut Matrix) {
        *out = self.encode_batch(x);
    }
}

/// The nonlinear random-projection encoder `φ(x) = cos(Px + b) ⊙ sin(Px)`.
///
/// The raw projection entries are `N(0, 1)` as the paper states; at
/// construction they are scaled by `1/bandwidth` with `bandwidth = √F` by
/// default. This is the standard random-Fourier-feature normalization: for
/// z-scored inputs it keeps the projected phase `P·x` at unit-ish variance,
/// so the implied RBF kernel resolves neighborhoods instead of rendering
/// every pair of samples quasi-orthogonal. (OnlineHD's reference
/// implementation bakes the same effect into its feature scaling.) Use
/// [`SinusoidEncoder::try_with_bandwidth`] to pick a different kernel
/// width.
///
/// # Example
///
/// ```
/// use hdc::encoder::{Encode, SinusoidEncoder};
/// use linalg::Rng64;
///
/// let mut rng = Rng64::seed_from(0);
/// let enc = SinusoidEncoder::new(128, 4, &mut rng);
/// let hv = enc.encode_row(&[0.5, -0.5, 1.0, 0.0]);
/// assert_eq!(hv.len(), 128);
/// assert!(hv.iter().all(|v| v.abs() <= 1.0)); // product of two sinusoids
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SinusoidEncoder {
    /// The `F × D` transpose of the (bandwidth-scaled) Gaussian projection:
    /// the GEMM-friendly orientation and the only one either encode path
    /// reads, stored once. The `D × F` form is derived on demand
    /// ([`SinusoidEncoder::projection_matrix`]).
    projection_t: Matrix,
    /// Per-dimension phase `b ~ U[0, 2π)`.
    bias: Vec<f32>,
    /// Precomputed `½·sin(b_d)`: the constant term of the activation
    /// identity (see [`sinusoid_phi`]), so encoding costs one transcendental
    /// per dimension instead of two.
    half_sin_bias: Vec<f32>,
}

impl SinusoidEncoder {
    /// Creates an encoder for `input_len` features into `dim` dimensions,
    /// drawing `P ~ N(0,1)` and `b ~ U[0, 2π)` from `rng`, with the default
    /// `√F` kernel bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `input_len == 0`; use
    /// [`SinusoidEncoder::try_new`] for a fallible variant.
    pub fn new(dim: usize, input_len: usize, rng: &mut Rng64) -> Self {
        Self::try_new(dim, input_len, rng).expect("dim and input_len must be non-zero")
    }

    /// Fallible constructor with the default `√F` bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if `dim` or `input_len` is zero.
    pub fn try_new(dim: usize, input_len: usize, rng: &mut Rng64) -> Result<Self> {
        Self::try_with_bandwidth(dim, input_len, (input_len as f32).sqrt(), rng)
    }

    /// Fallible constructor with an explicit kernel bandwidth (the
    /// projection is divided by it).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if `dim` or `input_len` is zero,
    /// or `bandwidth` is not strictly positive.
    pub fn try_with_bandwidth(
        dim: usize,
        input_len: usize,
        bandwidth: f32,
        rng: &mut Rng64,
    ) -> Result<Self> {
        if dim == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "encoder dimensionality must be positive".into(),
            });
        }
        if input_len == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "encoder input length must be positive".into(),
            });
        }
        if bandwidth.is_nan() || bandwidth <= 0.0 {
            return Err(HdcError::InvalidConfig {
                reason: format!("bandwidth must be positive, got {bandwidth}"),
            });
        }
        let mut projection = Matrix::random_normal(dim, input_len, rng);
        projection.scale_inplace(1.0 / bandwidth);
        let bias = (0..dim)
            .map(|_| rng.uniform_in(0.0, std::f32::consts::TAU))
            .collect();
        Ok(Self::assemble(projection.transposed(), bias))
    }

    /// Builds the encoder from its `F × D` projection and phase vector,
    /// deriving the activation constants — the single construction path
    /// every constructor, slice, and persistence load funnels through.
    fn assemble(projection_t: Matrix, bias: Vec<f32>) -> Self {
        // Same sine as the hot loop, so φ(0) = ½sin(b) − ½sin(b) = 0 exactly.
        let half_sin_bias = bias.iter().map(|&b| 0.5 * fast_sin(b)).collect();
        Self {
            projection_t,
            bias,
            half_sin_bias,
        }
    }

    /// The Gaussian projection as a fresh `D × F` matrix (the stored
    /// transpose, transposed back). This is the persistence/interop
    /// orientation; neither encode path needs it.
    pub fn projection_matrix(&self) -> Matrix {
        self.projection_t.transposed()
    }

    /// Borrows the phase vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Reassembles an encoder from a stored projection and phase vector
    /// (the persistence path; bandwidth scaling is already baked into the
    /// projection values).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `bias.len()` differs from
    /// the projection row count, and [`HdcError::InvalidConfig`] for an
    /// empty projection.
    pub fn from_parts(projection: Matrix, bias: Vec<f32>) -> Result<Self> {
        if projection.rows() == 0 || projection.cols() == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "encoder projection must be non-empty".into(),
            });
        }
        if bias.len() != projection.rows() {
            return Err(HdcError::DimensionMismatch {
                expected: projection.rows(),
                actual: bias.len(),
            });
        }
        Ok(Self::assemble(projection.transposed(), bias))
    }

    /// Reassembles an encoder directly from the `F × D` **transposed**
    /// projection — the orientation the encoder holds in memory and the
    /// only one either encode path reads. This is the model-store path:
    /// the store persists `projection_t` verbatim so a loaded encoder
    /// skips the materialize-and-transpose round trip of
    /// [`SinusoidEncoder::from_parts`]. Outputs are bit-identical to an
    /// encoder rebuilt through `from_parts` on the untransposed matrix
    /// (transposition is a pure element permutation).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `bias.len()` differs
    /// from the projection column count (`D`), and
    /// [`HdcError::InvalidConfig`] for an empty projection.
    pub fn from_parts_transposed(projection_t: Matrix, bias: Vec<f32>) -> Result<Self> {
        if projection_t.rows() == 0 || projection_t.cols() == 0 {
            return Err(HdcError::InvalidConfig {
                reason: "encoder projection must be non-empty".into(),
            });
        }
        if bias.len() != projection_t.cols() {
            return Err(HdcError::DimensionMismatch {
                expected: projection_t.cols(),
                actual: bias.len(),
            });
        }
        Ok(Self::assemble(projection_t, bias))
    }

    /// Borrows the stored `F × D` transposed projection: the persistence
    /// orientation of the model store (see
    /// [`SinusoidEncoder::from_parts_transposed`]).
    pub fn projection_t(&self) -> &Matrix {
        &self.projection_t
    }

    /// Extracts the sub-encoder covering hyperspace dimensions
    /// `[start, end)` — a weak learner's `D/n`-dimensional slice.
    ///
    /// The slice *shares no state* with the parent: it owns copies of the
    /// corresponding projection rows and phases, so encoding through the
    /// slice is exactly the restriction of the parent encoding to those
    /// dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.dim()`.
    pub fn slice_dims(&self, start: usize, end: usize) -> SinusoidEncoder {
        assert!(
            start <= end && end <= self.dim(),
            "invalid dimension slice {start}..{end} for D={}",
            self.dim()
        );
        // Projection rows `start..end` are transpose columns `start..end`.
        SinusoidEncoder::assemble(
            self.projection_t.slice_columns(start, end),
            self.bias[start..end].to_vec(),
        )
    }
}

impl Encode for SinusoidEncoder {
    fn dim(&self) -> usize {
        self.projection_t.cols()
    }

    fn input_len(&self) -> usize {
        self.projection_t.rows()
    }

    fn encode_row(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.input_len(),
            "feature length {} does not match encoder input {}",
            x.len(),
            self.input_len()
        );
        // The single-row case of the batch kernel: every output element
        // accumulates its feature contributions one at a time in ascending
        // order, mirroring the blocked GEMM's per-element order, so a row
        // encoded alone is bit-identical to the same row inside a batch.
        let mut z = vec![0.0f32; self.dim()];
        for (f, &xf) in x.iter().enumerate() {
            for (o, &p) in z.iter_mut().zip(self.projection_t.row(f)) {
                *o += xf * p;
            }
        }
        self.activate(&mut z);
        z
    }

    fn encode_batch(&self, x: &Matrix) -> Matrix {
        let mut z = Matrix::zeros(0, 0);
        self.encode_batch_into(x, &mut z);
        z
    }

    fn encode_batch_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(
            x.cols(),
            self.input_len(),
            "batch feature count {} does not match encoder input {}",
            x.cols(),
            self.input_len()
        );
        // One fused GEMM (X · Pᵀ, via the stored transpose) then the
        // activation. The blocked kernel streams each projection chunk once
        // per row *block* instead of once per row — the memory-traffic win
        // that makes batched encode outpace the row-at-a-time loop.
        x.matmul_into(&self.projection_t, out);
        for r in 0..out.rows() {
            self.activate(out.row_mut(r));
        }
    }
}

impl SinusoidEncoder {
    /// Applies the activation in place over one encoded row (`z` holds the
    /// projected phases `P·x` on input, `φ(x)` on output).
    fn activate(&self, z: &mut [f32]) {
        for ((v, &b), &hsb) in z
            .iter_mut()
            .zip(self.bias.iter())
            .zip(self.half_sin_bias.iter())
        {
            *v = sinusoid_phi(*v, b, hsb);
        }
    }
}

/// The sinusoid activation `φ_d = cos(z_d + b_d) · sin(z_d)` — the single
/// definition every encode path (row and fused batch) shares, so the f32
/// training path and the packed inference path can never diverge.
///
/// Computed through the product-to-sum identity
/// `cos(z + b) · sin(z) = ½·(sin(2z + b) − sin(b))` with `½·sin(b)`
/// precomputed per dimension (`half_sin_bd`), so the hot loop pays one
/// transcendental per dimension instead of two — and that one is the
/// branch-free polynomial [`fast_sin`], which auto-vectorizes where libm's
/// scalar `sinf` cannot. The reference form is kept in
/// [`sinusoid_phi_reference`] and pinned by a unit test.
#[inline]
fn sinusoid_phi(zd: f32, bd: f32, half_sin_bd: f32) -> f32 {
    0.5 * fast_sin(2.0 * zd + bd) - half_sin_bd
}

/// Branch-free `sin(x)` for the activation hot loop: Cody–Waite range
/// reduction to `[-π, π]` followed by a degree-13 odd minimax polynomial.
///
/// Absolute error stays below `2e-6` for `|x| ≲ 10³` (pinned by a test
/// against libm over the encoder's working range), which is under one part
/// in 10⁷ of the activation's `[-1, 1]` output range — far below the
/// sign-quantization and f32 rounding noise the HDC pipeline already
/// absorbs. Every operation is lane-wise IEEE f32 arithmetic, so results
/// are deterministic and identical between scalar and auto-vectorized
/// call sites.
#[inline]
fn fast_sin(x: f32) -> f32 {
    const INV_TAU: f32 = 1.0 / std::f32::consts::TAU;
    // 2π split into three parts (Cody–Waite): the 9-significand-bit high
    // part keeps `n·TAU_HI` exact for |n| < 2¹⁵, so `x − n·2π` stays
    // accurate to ~1e-7 across the encoder's whole working range.
    const TAU_HI: f32 = 6.281_25;
    const TAU_MID: f32 = 1.935_307_2e-3;
    const TAU_LO: f32 = 1.025_313_2e-11;
    // Round-to-nearest via the 1.5·2²³ magic constant (valid |x·INV_TAU| <
    // 2²², far beyond the encoder's working range) — branch-free and
    // vectorizable, unlike `f32::round`.
    const MAGIC: f32 = 12_582_912.0;
    let n = (x * INV_TAU + MAGIC) - MAGIC;
    let r = x - n * TAU_HI - n * TAU_MID - n * TAU_LO; // r ∈ [-π, π]
                                                       // Degree-13 odd minimax polynomial for sin on [-π, π] (equi-ripple
                                                       // refit; ~1.2e-9 max error in f64, f32 rounding dominates in practice).
    let r2 = r * r;
    let mut p = 1.345_518_5e-10;
    p = p * r2 + -2.467_816_3e-8;
    p = p * r2 + 2.752_960_2e-6;
    p = p * r2 + -1.984_016_4e-4;
    p = p * r2 + 8.333_310_7e-3;
    p = p * r2 + -1.666_666_5e-1;
    p = p * r2 + 1.0; // fitted x¹ coefficient (0.999999995) rounds to 1.0 in f32
    r * p
}

/// The textbook form of the activation, used only as a test oracle for
/// [`sinusoid_phi`]'s identity rewrite.
#[cfg(test)]
fn sinusoid_phi_reference(zd: f32, bd: f32) -> f32 {
    (zd + bd).cos() * zd.sin()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::cosine_similarity;

    fn encoder(dim: usize, f: usize) -> SinusoidEncoder {
        let mut rng = Rng64::seed_from(42);
        SinusoidEncoder::new(dim, f, &mut rng)
    }

    #[test]
    fn output_dimensionality() {
        let enc = encoder(100, 5);
        assert_eq!(enc.dim(), 100);
        assert_eq!(enc.input_len(), 5);
        assert_eq!(enc.encode_row(&[0.0; 5]).len(), 100);
    }

    #[test]
    fn zero_dim_rejected() {
        let mut rng = Rng64::seed_from(0);
        assert!(SinusoidEncoder::try_new(0, 4, &mut rng).is_err());
        assert!(SinusoidEncoder::try_new(4, 0, &mut rng).is_err());
    }

    #[test]
    fn try_encode_rejects_wrong_length() {
        let enc = encoder(32, 4);
        assert!(matches!(
            enc.try_encode_row(&[0.0; 3]),
            Err(HdcError::FeatureMismatch {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn encoding_is_deterministic() {
        let enc = encoder(64, 4);
        let x = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(enc.encode_row(&x), enc.encode_row(&x));
    }

    #[test]
    fn encoding_values_bounded_by_one() {
        let enc = encoder(256, 6);
        let hv = enc.encode_row(&[2.0, -3.0, 0.5, 10.0, 0.0, -0.1]);
        assert!(hv.iter().all(|v| v.abs() <= 1.0 + 1e-6));
    }

    #[test]
    fn similar_inputs_encode_similarly() {
        let enc = encoder(2048, 6);
        let x = [0.5, -0.2, 0.8, 0.1, -0.6, 0.3];
        let mut y = x;
        y[0] += 0.01; // tiny perturbation
        let far = [-1.5, 2.0, -0.8, 1.4, 0.9, -2.2];
        let hx = enc.encode_row(&x);
        let hy = enc.encode_row(&y);
        let hfar = enc.encode_row(&far);
        let near_sim = cosine_similarity(&hx, &hy);
        let far_sim = cosine_similarity(&hx, &hfar);
        assert!(near_sim > far_sim, "near {near_sim} !> far {far_sim}");
        assert!(near_sim > 0.9);
    }

    #[test]
    fn batch_matches_rowwise_bit_for_bit() {
        // The blocked GEMM and the single-row kernel share one per-element
        // accumulation order, so equality is exact — not approximate.
        let enc = encoder(128, 5);
        let mut rng = Rng64::seed_from(7);
        let x = Matrix::random_uniform(9, 5, -1.0, 1.0, &mut rng);
        let batch = enc.encode_batch(&x);
        for r in 0..x.rows() {
            assert_eq!(batch.row(r), enc.encode_row(x.row(r)).as_slice());
        }
    }

    #[test]
    fn batch_matches_rowwise_with_zero_features() {
        // Exact zeros are the degenerate inputs most likely to expose an
        // ordering difference; rows must still agree bit-for-bit.
        let enc = encoder(96, 4);
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.0, -1.5, 0.0, 2.0],
            vec![1.0, 0.0, -0.5, 0.0],
        ])
        .unwrap();
        let batch = enc.encode_batch(&x);
        for r in 0..x.rows() {
            assert_eq!(batch.row(r), enc.encode_row(x.row(r)).as_slice());
        }
    }

    #[test]
    fn encode_batch_into_reuses_buffer() {
        let enc = encoder(64, 3);
        let mut rng = Rng64::seed_from(23);
        let a = Matrix::random_uniform(5, 3, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(2, 3, -1.0, 1.0, &mut rng);
        let mut buf = Matrix::zeros(0, 0);
        enc.encode_batch_into(&a, &mut buf);
        assert_eq!(buf, enc.encode_batch(&a));
        enc.encode_batch_into(&b, &mut buf);
        assert_eq!(buf, enc.encode_batch(&b));
    }

    #[test]
    fn fast_sin_tracks_libm_over_working_range() {
        let mut rng = Rng64::seed_from(31);
        let mut max_err = 0.0f32;
        for _ in 0..20_000 {
            let x = rng.uniform_in(-1000.0, 1000.0);
            max_err = max_err.max((fast_sin(x) - x.sin()).abs());
        }
        // Dense sweep around the reduction boundaries too.
        for i in -3000..3000 {
            let x = i as f32 * 1e-2;
            max_err = max_err.max((fast_sin(x) - x.sin()).abs());
        }
        assert!(max_err < 2e-6, "fast_sin max abs error {max_err}");
    }

    #[test]
    fn phi_identity_matches_reference_form() {
        let mut rng = Rng64::seed_from(29);
        for _ in 0..2000 {
            let z = rng.uniform_in(-8.0, 8.0);
            let b = rng.uniform_in(0.0, std::f32::consts::TAU);
            let fused = sinusoid_phi(z, b, 0.5 * b.sin());
            let reference = sinusoid_phi_reference(z, b);
            assert!(
                (fused - reference).abs() < 1e-5,
                "phi({z}, {b}): {fused} vs {reference}"
            );
        }
    }

    #[test]
    fn slice_dims_restricts_encoding() {
        let enc = encoder(96, 4);
        let sub = enc.slice_dims(32, 64);
        assert_eq!(sub.dim(), 32);
        let x = [0.3, -0.4, 0.5, 0.6];
        let full = enc.encode_row(&x);
        let part = sub.encode_row(&x);
        assert_eq!(&full[32..64], part.as_slice());
    }

    #[test]
    fn slices_partition_the_encoding() {
        let enc = encoder(100, 4);
        let x = [1.0, 0.0, -1.0, 0.5];
        let full = enc.encode_row(&x);
        let mut rebuilt = Vec::new();
        for chunk in 0..4 {
            let sub = enc.slice_dims(chunk * 25, (chunk + 1) * 25);
            rebuilt.extend(sub.encode_row(&x));
        }
        assert_eq!(full, rebuilt);
    }

    #[test]
    fn distinct_seeds_give_distinct_projections() {
        let mut r1 = Rng64::seed_from(1);
        let mut r2 = Rng64::seed_from(2);
        let e1 = SinusoidEncoder::new(64, 4, &mut r1);
        let e2 = SinusoidEncoder::new(64, 4, &mut r2);
        let x = [0.5; 4];
        assert_ne!(e1.encode_row(&x), e2.encode_row(&x));
    }
}
