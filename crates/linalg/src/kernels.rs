//! Runtime-dispatched SIMD kernels for the HDC hot loops.
//!
//! Training and inference both reduce to five primitives — `dot`, `axpy`
//! (the per-sample `class_hv += lr·err·φ(x)` update), `norm2`/row
//! normalization, a fused *K class rows vs one query* cosine pass, and the
//! XOR + popcount word sweep behind packed similarity. This module owns one
//! implementation pair for each: a portable scalar reference and an
//! AVX2+FMA variant selected at runtime with
//! [`is_x86_feature_detected!`](std::arch::is_x86_feature_detected).
//!
//! # Dispatch
//!
//! The first kernel call resolves a process-wide [`KernelLevel`]:
//!
//! 1. `HDC_FORCE_SCALAR=1` in the environment pins the scalar fallback
//!    (see [`FORCE_SCALAR_ENV_VAR`]);
//! 2. otherwise AVX2+FMA is used when the CPU supports it;
//! 3. otherwise the scalar path runs.
//!
//! [`set_kernel_level`] overrides the resolution programmatically (used by
//! the benchmark binaries to measure both paths in one process). The level
//! is global; flipping it concurrently with in-flight kernels is safe but
//! makes *which* implementation served a given call unspecified, so flip it
//! only from single-threaded setup code.
//!
//! # Numerical contract
//!
//! * Integer kernels ([`hamming_words`], [`dot_i8`]) are **bit-exact**
//!   across levels.
//! * Float kernels differ between levels only by summation order and FMA
//!   contraction — a few ULPs on the hypervector lengths used here (pinned
//!   by property tests). Within one level every kernel is deterministic,
//!   and the batched inference paths compute each entry with the *same*
//!   kernel as the row-at-a-time paths, so batch == row equalities hold
//!   bit-for-bit at every level.

use crate::matrix::Matrix;
use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable that pins the scalar fallback when set to `1` (or
/// `true`): `HDC_FORCE_SCALAR=1`. Read once, at first kernel dispatch.
pub const FORCE_SCALAR_ENV_VAR: &str = "HDC_FORCE_SCALAR";

/// Which kernel implementation the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelLevel {
    /// Portable scalar reference implementations (LLVM may still
    /// auto-vectorize them for the build target).
    Scalar,
    /// Hand-written AVX2 + FMA kernels (x86-64 only, runtime-detected).
    Avx2Fma,
}

impl KernelLevel {
    /// Human-readable name for benchmark labels and logs.
    pub fn name(self) -> &'static str {
        match self {
            KernelLevel::Scalar => "scalar",
            KernelLevel::Avx2Fma => "avx2+fma",
        }
    }
}

/// 0 = unresolved, 1 = scalar, 2 = avx2+fma.
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// Whether the running CPU supports the SIMD kernel set (AVX2 + FMA).
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Parses one `HDC_FORCE_SCALAR` value: `1`/`true` force the scalar path,
/// `0`/`false` (case-insensitive) and the empty string leave dispatch
/// automatic. Anything else is rejected — a typo like `HDC_FORCE_SCALAR=yes`
/// must not silently run the SIMD path it was trying to disable.
///
/// # Errors
///
/// Returns [`crate::LinalgError::InvalidEnv`] for unrecognized values.
pub fn parse_force_scalar_value(value: &str) -> crate::Result<bool> {
    let v = value.trim();
    if v == "1" || v.eq_ignore_ascii_case("true") {
        Ok(true)
    } else if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false") {
        Ok(false)
    } else {
        Err(crate::LinalgError::InvalidEnv {
            var: FORCE_SCALAR_ENV_VAR,
            value: value.to_string(),
            expected: "1, 0, true, or false",
        })
    }
}

/// Reads and validates `HDC_FORCE_SCALAR` from the environment.
///
/// # Errors
///
/// As [`parse_force_scalar_value`]; unset resolves to `false`.
pub fn force_scalar_from_env() -> crate::Result<bool> {
    match std::env::var(FORCE_SCALAR_ENV_VAR) {
        Ok(v) => parse_force_scalar_value(&v),
        Err(_) => Ok(false),
    }
}

/// Resolves the level from the environment and CPU features (ignores any
/// programmatic override).
///
/// # Panics
///
/// Panics with a descriptive message when `HDC_FORCE_SCALAR` holds a value
/// [`parse_force_scalar_value`] rejects (facade callers validate earlier
/// and surface the same condition as an error instead).
fn detect() -> KernelLevel {
    let forced = force_scalar_from_env().unwrap_or_else(|e| panic!("{e}"));
    if !forced && simd_available() {
        KernelLevel::Avx2Fma
    } else {
        KernelLevel::Scalar
    }
}

fn code_of(level: KernelLevel) -> u8 {
    match level {
        KernelLevel::Scalar => 1,
        KernelLevel::Avx2Fma => 2,
    }
}

/// The kernel level the process currently dispatches to (resolving it on
/// first use; see the [module docs](self) for the resolution order).
pub fn kernel_level() -> KernelLevel {
    match LEVEL.load(Ordering::Relaxed) {
        1 => KernelLevel::Scalar,
        2 => KernelLevel::Avx2Fma,
        _ => {
            let level = detect();
            LEVEL.store(code_of(level), Ordering::Relaxed);
            level
        }
    }
}

/// Overrides the dispatched kernel level for the rest of the process;
/// `None` re-resolves from `HDC_FORCE_SCALAR` and CPU detection. Requesting
/// [`KernelLevel::Avx2Fma`] on a CPU without AVX2+FMA quietly keeps the
/// scalar path. Returns the level actually in effect.
///
/// Intended for benchmarks and tests that measure both paths in one
/// process; call it from single-threaded setup code only.
pub fn set_kernel_level(level: Option<KernelLevel>) -> KernelLevel {
    let effective = match level {
        None => detect(),
        Some(KernelLevel::Scalar) => KernelLevel::Scalar,
        Some(KernelLevel::Avx2Fma) if simd_available() => KernelLevel::Avx2Fma,
        Some(KernelLevel::Avx2Fma) => KernelLevel::Scalar,
    };
    LEVEL.store(code_of(effective), Ordering::Relaxed);
    effective
}

// ---------------------------------------------------------------------------
// dot
// ---------------------------------------------------------------------------

/// Dot product of two equal-length slices, dispatched to the active
/// [`KernelLevel`].
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    match kernel_level() {
        KernelLevel::Scalar => dot_scalar(a, b),
        KernelLevel::Avx2Fma => dot_simd(a, b),
    }
}

/// Scalar reference `dot`: 4-lane manual unroll (LLVM turns this into SIMD
/// adds on capable targets).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    for j in chunks * 4..a.len() {
        total += a[j] * b[j];
    }
    total
}

/// AVX2+FMA `dot` (falls back to [`dot_scalar`] when the CPU lacks the
/// features, so it is always safe to call).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot_simd(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: AVX2+FMA presence just checked.
        return unsafe { avx2::dot(a, b) };
    }
    dot_scalar(a, b)
}

// ---------------------------------------------------------------------------
// axpy
// ---------------------------------------------------------------------------

/// `y += a · x`, dispatched to the active [`KernelLevel`].
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn axpy(y: &mut [f32], x: &[f32], a: f32) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    match kernel_level() {
        KernelLevel::Scalar => axpy_scalar(y, x, a),
        KernelLevel::Avx2Fma => axpy_simd(y, x, a),
    }
}

/// Scalar reference `axpy`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy_scalar(y: &mut [f32], x: &[f32], a: f32) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// AVX2+FMA `axpy` (falls back to [`axpy_scalar`] when unavailable).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy_simd(y: &mut [f32], x: &[f32], a: f32) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: AVX2+FMA presence just checked.
        unsafe { avx2::axpy(y, x, a) };
        return;
    }
    axpy_scalar(y, x, a)
}

// ---------------------------------------------------------------------------
// norms and normalization
// ---------------------------------------------------------------------------

/// Sum of squares `Σ vᵢ²` (the squared Euclidean norm), dispatched like
/// [`dot`].
#[inline]
pub fn norm2(v: &[f32]) -> f32 {
    dot(v, v)
}

/// Euclidean norm `‖v‖`.
#[inline]
pub fn norm(v: &[f32]) -> f32 {
    norm2(v).sqrt()
}

/// Normalizes `v` to unit Euclidean norm in place; a zero vector is left
/// untouched. The division is lane-wise IEEE `x / ‖v‖`, identical between
/// levels given the same norm.
pub fn normalize_inplace(v: &mut [f32]) {
    let n = norm(v);
    if n > 0.0 {
        scale_inplace(v, n);
    }
}

/// Normalizes every row of `m` to unit Euclidean norm (zero rows are left
/// untouched).
pub fn normalize_rows(m: &mut Matrix) {
    for r in 0..m.rows() {
        normalize_inplace(m.row_mut(r));
    }
}

/// Divides every element by `divisor` (dispatched; lane-wise IEEE
/// division, so scalar and SIMD agree bit-for-bit).
fn scale_inplace(v: &mut [f32], divisor: f32) {
    #[cfg(target_arch = "x86_64")]
    if kernel_level() == KernelLevel::Avx2Fma && simd_available() {
        // SAFETY: AVX2+FMA presence just checked.
        unsafe { avx2::div_by(v, divisor) };
        return;
    }
    for x in v {
        *x /= divisor;
    }
}

// ---------------------------------------------------------------------------
// fused query-vs-class-rows passes
// ---------------------------------------------------------------------------

/// Raw dot products of `q` against every row of `m`, written into `out` —
/// one fused pass with `q` hot across rows, each row computed by the same
/// dot kernel the dispatched [`dot`] uses (so per-row values match a
/// standalone [`dot`] call bit-for-bit).
///
/// # Panics
///
/// Panics if `q.len() != m.cols()` or `out.len() != m.rows()`.
pub fn row_dots_into(m: &Matrix, q: &[f32], out: &mut [f32]) {
    assert_eq!(q.len(), m.cols(), "row_dots_into query width mismatch");
    assert_eq!(out.len(), m.rows(), "row_dots_into output length mismatch");
    #[cfg(target_arch = "x86_64")]
    if kernel_level() == KernelLevel::Avx2Fma && simd_available() {
        // SAFETY: AVX2+FMA presence just checked.
        unsafe { avx2::row_dots(m, q, out) };
        return;
    }
    for (l, o) in out.iter_mut().enumerate() {
        *o = dot_scalar(m.row(l), q);
    }
}

/// Fused cosine scores of one query against *unit-norm* class rows:
/// `out[l] = clamp(dot(m.row(l), q) / qnorm, −1, 1)`, or all zeros when
/// `qnorm == 0` (a degenerate query has no direction).
///
/// One pass over the `K` class rows; every dot is computed by the
/// dispatched [`dot`] kernel and divided/clamped exactly like the batched
/// scoring path (`matmul_transposed` + row scaling), so row and batch
/// inference agree bit-for-bit at every kernel level.
///
/// # Panics
///
/// Panics if `q.len() != m.cols()` or `out.len() != m.rows()`.
pub fn cosine_scores_into(m: &Matrix, q: &[f32], qnorm: f32, out: &mut [f32]) {
    if qnorm == 0.0 {
        assert_eq!(out.len(), m.rows(), "cosine_scores_into output mismatch");
        out.fill(0.0);
        return;
    }
    row_dots_into(m, q, out);
    for o in out.iter_mut() {
        *o = (*o / qnorm).clamp(-1.0, 1.0);
    }
}

// ---------------------------------------------------------------------------
// packed popcount
// ---------------------------------------------------------------------------

/// Number of differing bits between two equal-length `u64` words slices —
/// the packed-hypervector Hamming kernel. Dispatched; **bit-exact** across
/// levels (integer arithmetic has no rounding).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn hamming_words(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "hamming word-count mismatch");
    match kernel_level() {
        KernelLevel::Scalar => hamming_words_scalar(a, b),
        KernelLevel::Avx2Fma => hamming_words_simd(a, b),
    }
}

/// Scalar reference Hamming kernel: word-unrolled XOR + `count_ones`
/// (POPCNT on x86-64).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn hamming_words_scalar(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "hamming word-count mismatch");
    let mut acc = [0u32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += (a[j] ^ b[j]).count_ones();
        acc[1] += (a[j + 1] ^ b[j + 1]).count_ones();
        acc[2] += (a[j + 2] ^ b[j + 2]).count_ones();
        acc[3] += (a[j + 3] ^ b[j + 3]).count_ones();
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    for j in chunks * 4..a.len() {
        total += (a[j] ^ b[j]).count_ones();
    }
    total
}

/// AVX2 Harley–Seal Hamming kernel (falls back to
/// [`hamming_words_scalar`] when unavailable).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn hamming_words_simd(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "hamming word-count mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: AVX2 presence just checked.
        return unsafe { avx2::hamming(a, b) };
    }
    hamming_words_scalar(a, b)
}

// ---------------------------------------------------------------------------
// quantized int8 dot
// ---------------------------------------------------------------------------

/// Widening dot product of two equal-length `i8` slices, accumulated in
/// `i32` — the scoring kernel of the int8 quantized model tier. Dispatched;
/// **bit-exact** across levels (integer arithmetic has no rounding, and
/// integer addition is order-free).
///
/// `b` must lie in `[-127, 127]`: the AVX2 path uses the
/// `abs`/`sign` + `maddubs` widening trick, whose `i16` pair sums only
/// avoid saturation when `|a·b| ≤ 128·127` per element (`128·127·2 =
/// 32512 < 32767`), and `_mm256_sign_epi8` cannot negate `-128`. The int8
/// quantizer clamps queries to `[-127, 127]` by construction; a stray
/// `i8::MIN` in `b` is caught by a debug assertion. `a` may additionally
/// hold `-128` (bit-flip fault injection can produce it in stored class
/// rows): `_mm256_abs_epi8(-128)` wraps to `0x80`, which `maddubs` reads
/// as the *unsigned* byte `128 = |-128|`, so the product stays exact. The
/// `i32` accumulator is exact for lengths up to `2³¹ / (128·127) ≈ 132k`
/// elements — far above any hypervector dimensionality here.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8 length mismatch");
    debug_assert!(
        b.iter().all(|&v| v != i8::MIN),
        "dot_i8 query operand must lie in [-127, 127]"
    );
    match kernel_level() {
        KernelLevel::Scalar => dot_i8_scalar(a, b),
        KernelLevel::Avx2Fma => dot_i8_simd(a, b),
    }
}

/// Scalar reference `dot_i8`: widen each element to `i32` and accumulate.
/// Integer addition is associative, so any re-ordering (including the SIMD
/// path's) produces the identical sum.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8 length mismatch");
    let mut acc = [0i32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] as i32 * b[j] as i32;
        acc[1] += a[j + 1] as i32 * b[j + 1] as i32;
        acc[2] += a[j + 2] as i32 * b[j + 2] as i32;
        acc[3] += a[j + 3] as i32 * b[j + 3] as i32;
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    for j in chunks * 4..a.len() {
        total += a[j] as i32 * b[j] as i32;
    }
    total
}

/// AVX2 `maddubs` widening `dot_i8` (falls back to [`dot_i8_scalar`] when
/// the CPU lacks AVX2, so it is always safe to call). Same operand
/// contract as [`dot_i8`].
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot_i8_simd(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8 length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: AVX2 presence just checked.
        return unsafe { avx2::dot_i8(a, b) };
    }
    dot_i8_scalar(a, b)
}

/// Scaled round-to-nearest-even quantization `out[i] =
/// clamp(round_ties_even(src[i] · inv), -127, 127)` — the query-side
/// quantizer of the int8 tier, dispatched and **bit-exact** across levels.
/// The scalar reference rounds half-to-even precisely because that is the
/// rounding `_mm256_cvtps_epi32` performs under the default MXCSR mode, so
/// both levels agree on every tie.
///
/// Contract: every `src[i]` must be finite and `|src[i] · inv|` must stay
/// below `2³¹` (the int8 quantizer derives `inv = 127 / max|src|`, which
/// keeps products near 127). Outside that range the SIMD conversion
/// saturates differently from scalar `as`-casting and the bit-exactness
/// guarantee is void; a debug assertion enforces finiteness.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn quantize_scale_i8(src: &[f32], inv: f32, out: &mut [i8]) {
    assert_eq!(src.len(), out.len(), "quantize_scale_i8 length mismatch");
    debug_assert!(
        src.iter().all(|v| v.is_finite()) && inv.is_finite(),
        "quantize_scale_i8 requires finite inputs"
    );
    match kernel_level() {
        KernelLevel::Scalar => quantize_scale_i8_scalar(src, inv, out),
        KernelLevel::Avx2Fma => quantize_scale_i8_simd(src, inv, out),
    }
}

/// Scalar reference [`quantize_scale_i8`].
///
/// # Panics
///
/// Panics if lengths differ.
pub fn quantize_scale_i8_scalar(src: &[f32], inv: f32, out: &mut [i8]) {
    assert_eq!(src.len(), out.len(), "quantize_scale_i8 length mismatch");
    for (o, &v) in out.iter_mut().zip(src) {
        *o = (v * inv).round_ties_even().clamp(-127.0, 127.0) as i8;
    }
}

/// AVX2 [`quantize_scale_i8`] (falls back to the scalar reference when the
/// CPU lacks AVX2, so it is always safe to call).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn quantize_scale_i8_simd(src: &[f32], inv: f32, out: &mut [i8]) {
    assert_eq!(src.len(), out.len(), "quantize_scale_i8 length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: AVX2 presence just checked.
        unsafe { avx2::quantize_scale_i8(src, inv, out) };
        return;
    }
    quantize_scale_i8_scalar(src, inv, out);
}

// ---------------------------------------------------------------------------
// AVX2 + FMA implementations
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Matrix;
    use std::arch::x86_64::*;

    /// Sums the 8 lanes of an f32 vector in a fixed (deterministic) order:
    /// low half + high half lane-wise, then pairwise within the half.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA; the function touches no memory.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum256(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let q = _mm_add_ps(lo, hi);
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let s = _mm_add_ss(d, _mm_shuffle_ps(d, d, 0b01));
        _mm_cvtss_f32(s)
    }

    /// Core FMA dot: four 8-lane accumulators over 32-element blocks, an
    /// 8-lane cleanup loop, then a scalar-FMA tail. Also the per-row body
    /// of [`row_dots`], so fused and standalone dots agree bit-for-bit.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA, and `a.len() == b.len()`, which
    /// the public wrapper asserts: the loads read both slices up to
    /// `a.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 32 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 16)),
                _mm256_loadu_ps(pb.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 24)),
                _mm256_loadu_ps(pb.add(i + 24)),
                acc3,
            );
            i += 32;
        }
        while i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            i += 8;
        }
        let acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        let mut total = hsum256(acc);
        while i < n {
            total = a[i].mul_add(b[i], total);
            i += 1;
        }
        total
    }

    /// `y += a · x`, eight lanes at a time with a scalar-FMA tail.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA, and `y.len() == x.len()`,
    /// which the public wrapper asserts: the loads read `x` up to
    /// `y.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy(y: &mut [f32], x: &[f32], a: f32) {
        debug_assert_eq!(y.len(), x.len());
        let n = y.len();
        let py = y.as_mut_ptr();
        let px = x.as_ptr();
        let va = _mm256_set1_ps(a);
        let mut i = 0;
        while i + 16 <= n {
            let y0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(py.add(i)));
            let y1 = _mm256_fmadd_ps(
                va,
                _mm256_loadu_ps(px.add(i + 8)),
                _mm256_loadu_ps(py.add(i + 8)),
            );
            _mm256_storeu_ps(py.add(i), y0);
            _mm256_storeu_ps(py.add(i + 8), y1);
            i += 16;
        }
        while i + 8 <= n {
            let y0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(py.add(i)));
            _mm256_storeu_ps(py.add(i), y0);
            i += 8;
        }
        while i < n {
            y[i] = a.mul_add(x[i], y[i]);
            i += 1;
        }
    }

    /// `v /= divisor`, eight lanes at a time with a scalar tail.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA. There is no length relation:
    /// every access stays inside `v`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn div_by(v: &mut [f32], divisor: f32) {
        let n = v.len();
        let pv = v.as_mut_ptr();
        let vd = _mm256_set1_ps(divisor);
        let mut i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(pv.add(i), _mm256_div_ps(_mm256_loadu_ps(pv.add(i)), vd));
            i += 8;
        }
        while i < n {
            v[i] /= divisor;
            i += 1;
        }
    }

    /// One pass of per-row dots with the query streamed once per row block;
    /// each row uses the same accumulator layout as [`dot`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA, and `q.len() == m.cols()`
    /// and `out.len() == m.rows()`, which the public wrapper asserts:
    /// each row's [`dot`] reads `q` up to `m.cols()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn row_dots(m: &Matrix, q: &[f32], out: &mut [f32]) {
        debug_assert_eq!(q.len(), m.cols());
        debug_assert_eq!(out.len(), m.rows());
        for (l, o) in out.iter_mut().enumerate() {
            *o = dot(m.row(l), q);
        }
    }

    /// Widening int8 dot: `_mm256_maddubs_epi16(|a|, sign(b, a))` turns the
    /// signed×signed product into unsigned×signed pairs summed to `i16`
    /// (saturation-free for operands in `[-127, 127]`), then
    /// `_mm256_madd_epi16` against ones widens the pairs to `i32` lanes.
    /// Integer addition is order-free, so the lane sum matches the scalar
    /// reference exactly.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `a.len() == b.len()`, which
    /// the public wrapper asserts: the loads read both slices up to
    /// `a.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let ones = _mm256_set1_epi16(1);
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 32 <= n {
            let va = _mm256_loadu_si256(pa.add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(pb.add(i) as *const __m256i);
            let abs_a = _mm256_abs_epi8(va);
            let b_signed = _mm256_sign_epi8(vb, va);
            let pairs = _mm256_maddubs_epi16(abs_a, b_signed);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
            i += 32;
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let mut total: i32 = lanes.iter().sum();
        while i < n {
            total += a[i] as i32 * b[i] as i32;
            i += 1;
        }
        total
    }

    /// 32-wide scaled quantization: multiply, `cvtps` (round-to-nearest-
    /// even under the default MXCSR mode — matching the scalar
    /// `round_ties_even` reference), saturating `i32→i16→i8` packs, then a
    /// permute to undo the per-128-bit-lane pack interleave and a
    /// `max_epi8(-127)` so saturation can never emit `-128`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `src.len() == out.len()`, which
    /// the public wrapper asserts: the stores write `out` up to
    /// `src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_scale_i8(src: &[f32], inv: f32, out: &mut [i8]) {
        debug_assert_eq!(src.len(), out.len());
        let n = src.len();
        let ps = src.as_ptr();
        let po = out.as_mut_ptr();
        let vinv = _mm256_set1_ps(inv);
        let floor = _mm256_set1_epi8(-127);
        // packs_epi32/packs_epi16 interleave within 128-bit lanes; this
        // permutation of 4-byte groups restores source order.
        let unshuffle = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let mut i = 0;
        while i + 32 <= n {
            let q0 = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(ps.add(i)), vinv));
            let q1 = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(ps.add(i + 8)), vinv));
            let q2 = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(ps.add(i + 16)), vinv));
            let q3 = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(ps.add(i + 24)), vinv));
            let words = _mm256_packs_epi16(_mm256_packs_epi32(q0, q1), _mm256_packs_epi32(q2, q3));
            let bytes = _mm256_permutevar8x32_epi32(words, unshuffle);
            let clamped = _mm256_max_epi8(bytes, floor);
            _mm256_storeu_si256(po.add(i) as *mut __m256i, clamped);
            i += 32;
        }
        while i < n {
            *po.add(i) = (*ps.add(i) * inv).round_ties_even().clamp(-127.0, 127.0) as i8;
            i += 1;
        }
    }

    /// Per-64-bit-lane popcount via the nibble-LUT `PSHUFB` trick
    /// (Muła/Kurz/Lemire): byte popcounts from two table lookups, then a
    /// `PSADBW` horizontal byte sum per 64-bit lane.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; the function touches no memory.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_lanes(v: __m256i) -> __m256i {
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        let cnt = _mm256_add_epi8(
            _mm256_shuffle_epi8(lookup, lo),
            _mm256_shuffle_epi8(lookup, hi),
        );
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// Carry-save adder: `(carry, sum)` bit-planes of `a + b + c`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; the function touches no memory.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn csa(a: __m256i, b: __m256i, c: __m256i) -> (__m256i, __m256i) {
        let u = _mm256_xor_si256(a, b);
        let carry = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
        let sum = _mm256_xor_si256(u, c);
        (carry, sum)
    }

    /// XOR of the 256-bit blocks at `a` and `b` (unaligned loads).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `a` and `b` must each be valid for
    /// reading 4 `u64`s.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn xor_load(a: *const u64, b: *const u64) -> __m256i {
        _mm256_xor_si256(
            _mm256_loadu_si256(a as *const __m256i),
            _mm256_loadu_si256(b as *const __m256i),
        )
    }

    /// Harley–Seal popcount of `a ^ b`: carry-save adders compress eight
    /// 256-bit XOR blocks (32 words) into `eights/fours/twos/ones`
    /// bit-planes per iteration, so only one vector popcount per 32 words
    /// runs in the main loop; leftovers popcount directly and the final
    /// planes unwind with their weights.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `a.len() == b.len()`, which
    /// the public wrapper asserts: the loads read both slices up to
    /// `a.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn hamming(a: &[u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut total = _mm256_setzero_si256(); // 4 × u64 running sums
        let mut ones = _mm256_setzero_si256();
        let mut twos = _mm256_setzero_si256();
        let mut fours = _mm256_setzero_si256();
        let mut i = 0;
        while i + 32 <= n {
            let (t_a, s_a) = csa(
                ones,
                xor_load(pa.add(i), pb.add(i)),
                xor_load(pa.add(i + 4), pb.add(i + 4)),
            );
            let (t_b, s_b) = csa(
                s_a,
                xor_load(pa.add(i + 8), pb.add(i + 8)),
                xor_load(pa.add(i + 12), pb.add(i + 12)),
            );
            let (f_a, tw) = csa(twos, t_a, t_b);
            let (t_c, s_c) = csa(
                s_b,
                xor_load(pa.add(i + 16), pb.add(i + 16)),
                xor_load(pa.add(i + 20), pb.add(i + 20)),
            );
            let (t_d, s_d) = csa(
                s_c,
                xor_load(pa.add(i + 24), pb.add(i + 24)),
                xor_load(pa.add(i + 28), pb.add(i + 28)),
            );
            let (f_b, tw2) = csa(tw, t_c, t_d);
            let (eights, f) = csa(fours, f_a, f_b);
            ones = s_d;
            twos = tw2;
            fours = f;
            total = _mm256_add_epi64(total, popcount_lanes(eights));
            i += 32;
        }
        // Weighted unwind of the residual carry-save planes.
        total = _mm256_slli_epi64(total, 3); // eights counted ×8
        total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount_lanes(fours), 2));
        total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount_lanes(twos), 1));
        total = _mm256_add_epi64(total, popcount_lanes(ones));
        // Remaining full 4-word blocks popcount directly.
        while i + 4 <= n {
            total = _mm256_add_epi64(total, popcount_lanes(xor_load(pa.add(i), pb.add(i))));
            i += 4;
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, total);
        let mut sum = (lanes[0] + lanes[1] + lanes[2] + lanes[3]) as u32;
        // Tail words.
        while i < n {
            sum += (a[i] ^ b[i]).count_ones();
            i += 1;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;
    use std::sync::Mutex;

    /// Serializes the tests that either flip the process-global kernel
    /// level or assert exact bitwise equality between two *separately
    /// dispatched* calls — a level flip landing between those calls would
    /// make the low-order bits differ.
    static LEVEL_LOCK: Mutex<()> = Mutex::new(());

    fn random_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Rng64::seed_from(seed);
        (0..n).map(|_| rng.uniform_in(-2.0, 2.0)).collect()
    }

    #[test]
    fn level_names_and_resolution() {
        let _guard = LEVEL_LOCK.lock().unwrap();
        let level = kernel_level();
        assert!(!level.name().is_empty());
        // Forcing scalar always succeeds; restoring auto matches detection.
        assert_eq!(
            set_kernel_level(Some(KernelLevel::Scalar)),
            KernelLevel::Scalar
        );
        let auto = set_kernel_level(None);
        assert_eq!(auto, kernel_level());
    }

    #[test]
    fn simd_dot_tracks_scalar() {
        for n in [0usize, 1, 3, 7, 8, 31, 32, 33, 100, 4000] {
            let a = random_vec(n, 1 + n as u64);
            let b = random_vec(n, 1000 + n as u64);
            let s = dot_scalar(&a, &b);
            let v = dot_simd(&a, &b);
            let tol = 1e-4 * s.abs().max(n as f32).max(1.0);
            assert!((s - v).abs() <= tol, "n={n}: scalar {s} vs simd {v}");
        }
    }

    #[test]
    fn simd_axpy_tracks_scalar() {
        for n in [0usize, 1, 5, 8, 16, 17, 63, 400] {
            let x = random_vec(n, 7 + n as u64);
            let mut ys = random_vec(n, 70 + n as u64);
            let mut yv = ys.clone();
            axpy_scalar(&mut ys, &x, 0.37);
            axpy_simd(&mut yv, &x, 0.37);
            for (s, v) in ys.iter().zip(&yv) {
                assert!((s - v).abs() <= 1e-5, "n={n}: {s} vs {v}");
            }
        }
    }

    fn random_i8_vec(n: usize, seed: u64) -> Vec<i8> {
        let mut rng = Rng64::seed_from(seed);
        (0..n)
            .map(|_| (rng.below(255) as i32 - 127) as i8)
            .collect()
    }

    #[test]
    fn dot_i8_simd_is_bit_exact() {
        for n in [0usize, 1, 3, 4, 5, 31, 32, 33, 63, 64, 100, 257, 4000] {
            let a = random_i8_vec(n, 21 + n as u64);
            let b = random_i8_vec(n, 4021 + n as u64);
            let naive: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
            assert_eq!(dot_i8_scalar(&a, &b), naive, "n={n} scalar");
            assert_eq!(dot_i8_simd(&a, &b), naive, "n={n} simd");
        }
    }

    #[test]
    fn dot_i8_extreme_magnitudes_do_not_saturate() {
        // ±127 everywhere maximizes every maddubs pair sum (32258, just
        // under the i16 limit) — the worst case the quantizer can produce.
        for n in [32usize, 64, 4000] {
            let a = vec![127i8; n];
            let b = vec![-127i8; n];
            let expect = -(127 * 127) * n as i32;
            assert_eq!(dot_i8_scalar(&a, &b), expect, "n={n}");
            assert_eq!(dot_i8_simd(&a, &b), expect, "n={n}");
            assert_eq!(dot_i8_simd(&a, &a), 127 * 127 * n as i32, "n={n}");
        }
    }

    #[test]
    fn dot_i8_accepts_min_in_stored_operand() {
        // Bit-flip fault injection can turn a stored class byte into -128;
        // the kernel must stay exact (abs wraps to the unsigned byte 128,
        // and 128·127·2 = 32512 still fits i16).
        for n in [32usize, 33, 64, 4000] {
            let a = vec![i8::MIN; n];
            let b = vec![127i8; n];
            let expect = -128 * 127 * n as i32;
            assert_eq!(dot_i8_scalar(&a, &b), expect, "n={n}");
            assert_eq!(dot_i8_simd(&a, &b), expect, "n={n}");
            let mut mixed = random_i8_vec(n, 77 + n as u64);
            mixed[0] = i8::MIN;
            if n > 33 {
                mixed[33] = i8::MIN;
            }
            let q = random_i8_vec(n, 990 + n as u64);
            assert_eq!(dot_i8_scalar(&mixed, &q), dot_i8_simd(&mixed, &q), "n={n}");
        }
    }

    #[test]
    fn quantize_scale_i8_simd_is_bit_exact() {
        for n in [0usize, 1, 3, 7, 8, 31, 32, 33, 63, 64, 100, 257, 4000] {
            let src = random_vec(n, 314 + n as u64);
            for inv in [0.5f32, 1.0, 63.5, 127.0 / 1.9] {
                let mut scalar = vec![0i8; n];
                let mut simd = vec![0i8; n];
                quantize_scale_i8_scalar(&src, inv, &mut scalar);
                quantize_scale_i8_simd(&src, inv, &mut simd);
                assert_eq!(scalar, simd, "n={n} inv={inv}");
                assert!(
                    simd.iter().all(|&q| q != i8::MIN),
                    "n={n} inv={inv}: output must stay in [-127, 127]"
                );
            }
        }
    }

    #[test]
    fn quantize_scale_i8_rounds_ties_to_even() {
        // cvtps2dq under the default MXCSR mode rounds ties to even; the
        // scalar reference must match it exactly on half-way values.
        let src = [0.5f32, 1.5, 2.5, -0.5, -1.5, -2.5, 126.5, -126.5];
        let expect = [0i8, 2, 2, 0, -2, -2, 126, -126];
        let mut scalar = vec![0i8; src.len()];
        let mut simd = vec![0i8; src.len()];
        quantize_scale_i8_scalar(&src, 1.0, &mut scalar);
        quantize_scale_i8_simd(&src, 1.0, &mut simd);
        assert_eq!(scalar, expect.to_vec());
        assert_eq!(simd, expect.to_vec());
    }

    #[test]
    fn quantize_scale_i8_saturates_to_plus_minus_127() {
        // Magnitudes past the i8 range clamp to ±127 on both paths — never
        // -128, which would break the asymmetric `dot_i8` query contract.
        let src: Vec<f32> = (0..64)
            .map(|i| if i % 2 == 0 { 500.0 } else { -500.0 })
            .collect();
        let mut scalar = vec![0i8; src.len()];
        let mut simd = vec![0i8; src.len()];
        quantize_scale_i8_scalar(&src, 1.0, &mut scalar);
        quantize_scale_i8_simd(&src, 1.0, &mut simd);
        for (i, (&s, &v)) in scalar.iter().zip(&simd).enumerate() {
            let want = if i % 2 == 0 { 127 } else { -127 };
            assert_eq!(s, want, "scalar i={i}");
            assert_eq!(v, want, "simd i={i}");
        }
    }

    #[test]
    fn hamming_simd_is_bit_exact() {
        let mut rng = Rng64::seed_from(9);
        for n in [0usize, 1, 3, 4, 5, 31, 32, 33, 63, 64, 100, 257] {
            let a: Vec<u64> = (0..n)
                .map(|_| (rng.below(1 << 30) as u64) << 34 | rng.below(1 << 30) as u64)
                .collect();
            let b: Vec<u64> = (0..n)
                .map(|_| (rng.below(1 << 30) as u64) << 34 | rng.below(1 << 30) as u64)
                .collect();
            assert_eq!(
                hamming_words_scalar(&a, &b),
                hamming_words_simd(&a, &b),
                "n={n}"
            );
        }
    }

    #[test]
    fn cosine_scores_match_manual_loop() {
        let _guard = LEVEL_LOCK.lock().unwrap();
        let mut rng = Rng64::seed_from(4);
        let m = Matrix::random_normal(5, 130, &mut rng);
        let q = random_vec(130, 11);
        let qn = norm(&q);
        let mut out = vec![0.0f32; 5];
        cosine_scores_into(&m, &q, qn, &mut out);
        for (l, &o) in out.iter().enumerate() {
            let expect = (dot(m.row(l), &q) / qn).clamp(-1.0, 1.0);
            assert_eq!(o, expect, "row {l}");
        }
        cosine_scores_into(&m, &q, 0.0, &mut out);
        assert!(out.iter().all(|&o| o == 0.0));
    }

    #[test]
    fn normalize_rows_gives_unit_rows() {
        let mut rng = Rng64::seed_from(5);
        let mut m = Matrix::random_normal(3, 70, &mut rng);
        m.row_mut(1).fill(0.0);
        normalize_rows(&mut m);
        assert!((norm(m.row(0)) - 1.0).abs() < 1e-5);
        assert!(m.row(1).iter().all(|&x| x == 0.0));
        assert!((norm(m.row(2)) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn norm2_is_dot_with_self() {
        let _guard = LEVEL_LOCK.lock().unwrap();
        let v = random_vec(37, 3);
        assert_eq!(norm2(&v), dot(&v, &v));
    }
}
