//! Bitpacked sign hypervectors: the 1-bit storage of binary HDC.
//!
//! The reference pipeline stores hypervectors as dense `Vec<f32>` and
//! compares them with cosine similarity. Binary HDC (Schmuck et al.,
//! *Hardware Optimizations of Dense Binary Hyperdimensional Computing*;
//! Karunaratne et al., *In-memory hyperdimensional computing*) instead
//! stores only the *sign* of each component — one bit per dimension — and
//! compares with Hamming distance, turning a `D = 4000` similarity into a
//! handful of `u64` XOR + popcount instructions while cutting memory 32×.
//!
//! * [`PackedHv`] — one sign-quantized hypervector in packed `u64` words,
//!   with popcount similarity;
//! * [`PackedMatrix`] — a row-major stack of packed hypervectors (the
//!   packed analogue of `linalg::Matrix`) with batch popcount scoring,
//!   which is what the 1-bit class memories store per class.
//!
//! The key exactness property (tested in `tests/properties.rs`): for
//! bipolar `±1` vectors, packed similarity *equals* f32 cosine, so class
//! rankings agree exactly — quantization error comes only from the sign
//! rounding itself, never from the packed arithmetic.

use crate::error::{HdcError, Result};
use crate::ops;
use serde::{Deserialize, Serialize};

/// A sign-quantized hypervector: `D` sign bits in `⌈D/64⌉` little-endian
/// `u64` words (bit `d` of word `d/64` set ⇔ component `d` is `+1`).
/// Padding bits past `D` are always zero.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedHv {
    words: Vec<u64>,
    dim: usize,
}

impl PackedHv {
    /// Packs the signs of a dense hypervector (ties to +1, matching
    /// [`ops::to_bipolar`]).
    pub fn from_signs(dense: &[f32]) -> Self {
        Self {
            words: ops::pack_signs(dense),
            dim: dense.len(),
        }
    }

    /// Reassembles from raw words (the persistence path).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the word count disagrees
    /// with `dim`, or [`HdcError::InvalidConfig`] if padding bits are set.
    pub fn from_words(words: Vec<u64>, dim: usize) -> Result<Self> {
        if words.len() != ops::packed_words(dim) {
            return Err(HdcError::DimensionMismatch {
                expected: ops::packed_words(dim),
                actual: words.len(),
            });
        }
        if let Some(&last) = words.last() {
            if last & !ops::last_word_mask(dim) != 0 {
                return Err(HdcError::InvalidConfig {
                    reason: "packed hypervector has padding bits set".into(),
                });
            }
        }
        Ok(Self { words, dim })
    }

    /// Dimensionality `D` (number of valid sign bits).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Hamming distance to `other` (differing sign bits).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn hamming(&self, other: &Self) -> u32 {
        assert_eq!(self.dim, other.dim, "packed hamming dimension mismatch");
        ops::hamming_packed(&self.words, &other.words)
    }

    /// Similarity on the cosine scale: `1 − 2·hamming/D`. Exactly the
    /// cosine of the underlying bipolar vectors.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn similarity(&self, other: &Self) -> f32 {
        assert_eq!(self.dim, other.dim, "packed similarity dimension mismatch");
        ops::packed_similarity(&self.words, &other.words, self.dim)
    }

    /// Expands to the dense bipolar `±1` hypervector.
    pub fn to_bipolar(&self) -> Vec<f32> {
        (0..self.dim)
            .map(|d| {
                if (self.words[d / 64] >> (d % 64)) & 1 == 1 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect()
    }
}

/// A row-major stack of packed hypervectors sharing one dimensionality —
/// the packed analogue of `linalg::Matrix`, used for class hypervectors.
///
/// Rows are stored contiguously so batch scoring walks one flat `u64`
/// buffer (cache-friendly across classes and weak learners).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedMatrix {
    words: Vec<u64>,
    words_per_row: usize,
    rows: usize,
    dim: usize,
}

impl PackedMatrix {
    /// Packs the sign of every row of a dense matrix.
    pub fn from_dense_rows(m: &linalg::Matrix) -> Self {
        let dim = m.cols();
        let words_per_row = ops::packed_words(dim);
        let mut words = Vec::with_capacity(words_per_row * m.rows());
        for r in 0..m.rows() {
            words.extend_from_slice(&ops::pack_signs(m.row(r)));
        }
        Self {
            words,
            words_per_row,
            rows: m.rows(),
            dim,
        }
    }

    /// Stacks already-packed hypervectors.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if rows disagree on `D`.
    pub fn from_rows(rows: &[PackedHv]) -> Result<Self> {
        let dim = rows.first().map_or(0, PackedHv::dim);
        let words_per_row = ops::packed_words(dim);
        let mut words = Vec::with_capacity(words_per_row * rows.len());
        for row in rows {
            if row.dim() != dim {
                return Err(HdcError::DimensionMismatch {
                    expected: dim,
                    actual: row.dim(),
                });
            }
            words.extend_from_slice(row.words());
        }
        Ok(Self {
            words,
            words_per_row,
            rows: rows.len(),
            dim,
        })
    }

    /// Reassembles from raw parts (the persistence path).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the flat word buffer
    /// disagrees with `rows × ⌈dim/64⌉`, or [`HdcError::InvalidConfig`] if
    /// any row has padding bits set (a corrupt or crafted blob; silently
    /// accepting it would skew every similarity against clean-padded
    /// queries).
    pub fn from_parts(words: Vec<u64>, rows: usize, dim: usize) -> Result<Self> {
        let words_per_row = ops::packed_words(dim);
        if words.len() != words_per_row * rows {
            return Err(HdcError::DimensionMismatch {
                expected: words_per_row * rows,
                actual: words.len(),
            });
        }
        let mask = ops::last_word_mask(dim);
        if words_per_row > 0 {
            for r in 0..rows {
                if words[(r + 1) * words_per_row - 1] & !mask != 0 {
                    return Err(HdcError::InvalidConfig {
                        reason: format!("packed matrix row {r} has padding bits set"),
                    });
                }
            }
        }
        Ok(Self {
            words,
            words_per_row,
            rows,
            dim,
        })
    }

    /// Number of stored hypervectors.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dimensionality `D` of every row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed words of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_words(&self, r: usize) -> &[u64] {
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        &self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Row `r` as an owned [`PackedHv`].
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> PackedHv {
        PackedHv {
            words: self.row_words(r).to_vec(),
            dim: self.dim,
        }
    }

    /// Re-packs row `r` from the signs of a dense vector (the
    /// quantization-aware refit hook: shadow f32 weights update, then the
    /// touched row re-binarizes in place).
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()` or `dense.len() != self.dim()`.
    pub fn set_row_signs(&mut self, r: usize, dense: &[f32]) {
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        assert_eq!(dense.len(), self.dim, "row width disagrees with dim");
        let packed = ops::pack_signs(dense);
        self.words[r * self.words_per_row..(r + 1) * self.words_per_row].copy_from_slice(&packed);
    }

    /// The flat word buffer (row-major).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable flat word buffer — the fault-injection hook. Callers
    /// flipping bits must stay below [`PackedMatrix::dim`] in each row;
    /// [`PackedMatrix::from_parts`] rejects set padding bits.
    pub fn as_words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Batch popcount scoring: similarity of `query` against every row, on
    /// the cosine scale. This is the quantized inference hot path — one
    /// fused pass over the flat word buffer.
    ///
    /// # Panics
    ///
    /// Panics if `query` has a different dimensionality.
    pub fn similarities(&self, query: &PackedHv) -> Vec<f32> {
        assert_eq!(self.dim, query.dim(), "query dimension mismatch");
        let mut out = vec![0.0f32; self.rows];
        self.similarities_into(query.words(), &mut out);
        out
    }

    /// [`PackedMatrix::similarities`] over raw query words, writing into a
    /// caller-owned buffer — the allocation-free form the quantized refit
    /// and serving loops call per sample. Each entry is one Harley–Seal
    /// XOR + popcount sweep ([`linalg::kernels::hamming_words`]) rescaled
    /// to the cosine scale, bit-identical to
    /// [`ops::packed_similarity`] on the same rows.
    ///
    /// # Panics
    ///
    /// Panics if `query_words` has the wrong word count for this
    /// dimensionality or `out.len() != self.rows()`.
    pub fn similarities_into(&self, query_words: &[u64], out: &mut [f32]) {
        assert_eq!(
            query_words.len(),
            self.words_per_row,
            "query word count disagrees with dim"
        );
        assert_eq!(out.len(), self.rows, "similarity output length mismatch");
        if self.rows > 0 {
            assert!(self.dim > 0, "packed similarity of empty vectors");
        }
        for (r, o) in out.iter_mut().enumerate() {
            // Exactly `ops::packed_similarity`'s arithmetic, so packed
            // scores agree bit-for-bit wherever they are computed.
            let hamming = linalg::kernels::hamming_words(self.row_words(r), query_words);
            *o = 1.0 - 2.0 * hamming as f32 / self.dim as f32;
        }
    }

    /// Total number of valid (non-padding) stored bits.
    pub fn bit_count(&self) -> u64 {
        self.rows as u64 * self.dim as u64
    }

    /// Batch-of-batches popcount scoring: similarity of every `queries` row
    /// against every stored row, as a `queries.rows() × self.rows()` dense
    /// matrix on the cosine scale.
    ///
    /// This is the quantized *batch* inference hot path — one sweep over
    /// two flat `u64` buffers with the class words hot in cache across all
    /// queries. Each entry equals the corresponding
    /// [`PackedMatrix::similarities`] entry exactly (popcount arithmetic
    /// has no rounding).
    ///
    /// # Panics
    ///
    /// Panics if `queries` has a different dimensionality.
    pub fn batch_similarities(&self, queries: &PackedMatrix) -> linalg::Matrix {
        assert_eq!(self.dim, queries.dim(), "query batch dimension mismatch");
        let mut out = linalg::Matrix::zeros(queries.rows(), self.rows);
        for q in 0..queries.rows() {
            self.similarities_into(queries.row_words(q), out.row_mut(q));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::{Matrix, Rng64};

    fn random_dense(dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = Rng64::seed_from(seed);
        (0..dim).map(|_| rng.normal()).collect()
    }

    #[test]
    fn packed_similarity_equals_cosine_on_bipolar() {
        for dim in [1usize, 63, 64, 65, 500, 4000] {
            let a = ops::to_bipolar(&random_dense(dim, 1));
            let b = ops::to_bipolar(&random_dense(dim, 2));
            let pa = PackedHv::from_signs(&a);
            let pb = PackedHv::from_signs(&b);
            let cos = ops::cosine_similarity(&a, &b);
            assert!(
                (pa.similarity(&pb) - cos).abs() < 1e-6,
                "dim {dim}: packed {} vs cosine {cos}",
                pa.similarity(&pb)
            );
        }
    }

    #[test]
    fn pack_then_unpack_round_trips_signs() {
        let v = random_dense(130, 3);
        let packed = PackedHv::from_signs(&v);
        assert_eq!(packed.to_bipolar(), ops::to_bipolar(&v));
        assert_eq!(packed.dim(), 130);
    }

    #[test]
    fn self_similarity_is_one_and_negation_minus_one() {
        let v = random_dense(256, 4);
        let p = PackedHv::from_signs(&v);
        assert_eq!(p.similarity(&p), 1.0);
        let neg: Vec<f32> = v.iter().map(|x| -x).collect();
        let pn = PackedHv::from_signs(&neg);
        assert_eq!(p.similarity(&pn), -1.0);
        assert_eq!(p.hamming(&pn), 256);
    }

    #[test]
    fn from_words_validates() {
        assert!(PackedHv::from_words(vec![0, 0], 100).is_ok());
        assert!(PackedHv::from_words(vec![0], 100).is_err(), "too few words");
        assert!(
            PackedHv::from_words(vec![0, 1 << 40], 100).is_err(),
            "padding bit set"
        );
    }

    #[test]
    fn packed_matrix_scores_match_rowwise() {
        let mut rng = Rng64::seed_from(9);
        let m = Matrix::random_normal(5, 300, &mut rng);
        let pm = PackedMatrix::from_dense_rows(&m);
        assert_eq!(pm.rows(), 5);
        assert_eq!(pm.dim(), 300);
        let q = PackedHv::from_signs(&random_dense(300, 10));
        let batch = pm.similarities(&q);
        for (r, &score) in batch.iter().enumerate() {
            assert_eq!(score, pm.row(r).similarity(&q));
        }
    }

    #[test]
    fn batch_similarities_match_per_query_sweeps() {
        let mut rng = Rng64::seed_from(21);
        let classes = PackedMatrix::from_dense_rows(&Matrix::random_normal(4, 130, &mut rng));
        let queries = PackedMatrix::from_dense_rows(&Matrix::random_normal(7, 130, &mut rng));
        let sims = classes.batch_similarities(&queries);
        assert_eq!(sims.shape(), (7, 4));
        for q in 0..queries.rows() {
            assert_eq!(sims.row(q), classes.similarities(&queries.row(q)));
        }
        // Empty query batch is fine.
        let empty = PackedMatrix::from_dense_rows(&Matrix::zeros(0, 130));
        assert_eq!(classes.batch_similarities(&empty).rows(), 0);
    }

    #[test]
    fn packed_matrix_round_trips_through_parts() {
        let mut rng = Rng64::seed_from(11);
        let m = Matrix::random_normal(4, 130, &mut rng);
        let pm = PackedMatrix::from_dense_rows(&m);
        let rebuilt =
            PackedMatrix::from_parts(pm.as_words().to_vec(), pm.rows(), pm.dim()).unwrap();
        assert_eq!(pm, rebuilt);
        assert!(PackedMatrix::from_parts(vec![0; 3], 4, 130).is_err());
        // Set padding bits (valid bits of the last word per row are 0..2 at
        // dim 130) must be rejected, not silently skew similarities.
        let mut corrupt = pm.as_words().to_vec();
        corrupt[2] |= 1 << 40; // row 0, word 2 is its last word
        assert!(PackedMatrix::from_parts(corrupt, pm.rows(), pm.dim()).is_err());
    }

    #[test]
    fn packed_matrix_from_rows_checks_dims() {
        let a = PackedHv::from_signs(&random_dense(64, 12));
        let b = PackedHv::from_signs(&random_dense(65, 13));
        assert!(PackedMatrix::from_rows(&[a.clone(), a.clone()]).is_ok());
        assert!(PackedMatrix::from_rows(&[a, b]).is_err());
    }

    #[test]
    fn bit_count_counts_valid_bits_only() {
        let mut rng = Rng64::seed_from(14);
        let m = Matrix::random_normal(3, 70, &mut rng);
        let pm = PackedMatrix::from_dense_rows(&m);
        assert_eq!(pm.bit_count(), 3 * 70);
    }
}
