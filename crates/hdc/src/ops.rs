//! Primitive hypervector operations.
//!
//! The paper (Section II-C) builds its classifiers from two of them:
//!
//! * **Bundling** — element-wise addition `R = V₁ + V₂`, the memorization
//!   primitive that accumulates samples into class hypervectors;
//! * **Similarity** (Equation 1) — `δ(V₁, V₂) = V₁ᵀV₂ / (‖V₁‖·‖V₂‖)`,
//!   cosine similarity.
//!
//! Plus the sign-bit primitives the 1-bit class memories use: bipolar
//! quantization, sign packing and the packed XOR + popcount similarity.

use linalg::matrix::{dot, norm};

/// Cosine similarity `δ(a, b)` (paper Equation 1).
///
/// Returns 0 when either vector has zero norm (a degenerate hypervector has
/// no direction to compare).
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// let a = [1.0, 0.0];
/// let b = [0.0, 1.0];
/// assert_eq!(hdc::ops::cosine_similarity(&a, &b), 0.0);
/// assert!((hdc::ops::cosine_similarity(&a, &a) - 1.0).abs() < 1e-6);
/// ```
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine similarity length mismatch");
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Bundling: accumulates `src` into `acc` with weight `w` (`acc += w · src`).
///
/// This is the training-path `axpy` — it dispatches to the runtime-selected
/// SIMD kernel (see [`linalg::kernels`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn bundle_into(acc: &mut [f32], src: &[f32], w: f32) {
    assert_eq!(acc.len(), src.len(), "bundle length mismatch");
    linalg::kernels::axpy(acc, src, w);
}

/// Normalizes `v` to unit Euclidean norm in place; leaves a zero vector
/// untouched. Dispatches to the runtime-selected SIMD kernel.
pub fn normalize_inplace(v: &mut [f32]) {
    linalg::kernels::normalize_inplace(v);
}

/// Quantizes a real hypervector to bipolar `{-1, +1}` (`sign`, with ties to +1).
pub fn to_bipolar(v: &[f32]) -> Vec<f32> {
    v.iter()
        .map(|&x| if x < 0.0 { -1.0 } else { 1.0 })
        .collect()
}

/// Number of `u64` words required to store `dim` sign bits.
pub const fn packed_words(dim: usize) -> usize {
    dim.div_ceil(64)
}

/// Mask selecting the valid bits of the *last* word of a `dim`-bit packed
/// hypervector (all-ones when `dim` is a multiple of 64).
pub const fn last_word_mask(dim: usize) -> u64 {
    if dim.is_multiple_of(64) {
        u64::MAX
    } else {
        (1u64 << (dim % 64)) - 1
    }
}

/// Packs the signs of a dense hypervector into `u64` words: bit `d` of the
/// output is set iff `v[d] >= 0` (ties to +1, matching [`to_bipolar`]).
/// Padding bits past `v.len()` are zero.
pub fn pack_signs(v: &[f32]) -> Vec<u64> {
    let mut words = Vec::new();
    pack_signs_into(v, &mut words);
    words
}

/// [`pack_signs`] writing into a caller-owned word buffer, reusing its
/// allocation — the hook refit/streaming loops use to pack sample after
/// sample without allocator churn. The buffer is resized to
/// `⌈v.len()/64⌉` words; previous contents are discarded.
pub fn pack_signs_into(v: &[f32], words: &mut Vec<u64>) {
    words.clear();
    words.resize(packed_words(v.len()), 0);
    for (d, &x) in v.iter().enumerate() {
        // Identical tie handling to `to_bipolar`: everything not strictly
        // negative (including -0.0 and NaN) quantizes to +1.
        if x >= 0.0 || x.is_nan() {
            words[d / 64] |= 1u64 << (d % 64);
        }
    }
}

/// Hamming distance (number of differing sign bits) between two packed
/// hypervectors — the XOR + popcount word sweep, dispatched to the
/// runtime-selected kernel (AVX2 Harley–Seal or word-unrolled scalar
/// POPCNT; bit-exact either way, see [`linalg::kernels::hamming_words`]).
///
/// # Panics
///
/// Panics if the word slices have different lengths.
pub fn hamming_packed(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "packed hamming word-count mismatch");
    linalg::kernels::hamming_words(a, b)
}

/// Similarity of two `dim`-bit packed sign hypervectors, on the cosine
/// scale: `1 − 2·hamming/dim ∈ [−1, 1]`.
///
/// For bipolar vectors this *equals* their cosine similarity exactly
/// (`cos = (matches − mismatches)/D`), so packed scoring ranks classes
/// identically to f32 cosine over the same `±1` vectors.
///
/// # Panics
///
/// Panics if `dim == 0` or the word slices disagree with `dim`.
pub fn packed_similarity(a: &[u64], b: &[u64], dim: usize) -> f32 {
    assert!(dim > 0, "packed similarity of empty vectors");
    assert_eq!(a.len(), packed_words(dim), "word count disagrees with dim");
    1.0 - 2.0 * hamming_packed(a, b) as f32 / dim as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_identical_is_one() {
        let v = [0.3, -0.7, 1.2];
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_opposite_is_minus_one() {
        let v = [1.0, 2.0];
        let w = [-1.0, -2.0];
        assert!((cosine_similarity(&v, &w) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let v = [0.5, 1.5, -2.0];
        let scaled: Vec<f32> = v.iter().map(|x| 7.3 * x).collect();
        let w = [1.0, 0.0, 0.25];
        let a = cosine_similarity(&v, &w);
        let b = cosine_similarity(&scaled, &w);
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn bundling_accumulates_weighted() {
        let mut acc = vec![1.0, 1.0];
        bundle_into(&mut acc, &[2.0, -1.0], 0.5);
        assert_eq!(acc, vec![2.0, 0.5]);
    }

    #[test]
    fn normalize_gives_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize_inplace(&mut v);
        assert!((linalg::matrix::norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize_inplace(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn bipolar_quantization() {
        assert_eq!(to_bipolar(&[0.5, -0.5, 0.0]), vec![1.0, -1.0, 1.0]);
    }
}
