//! Property-based tests for the HDC substrate.

use hdc::backend::{PackedHv, PackedMatrix};
use hdc::encoder::{Encode, SinusoidEncoder};
use hdc::theory::MarchenkoPastur;
use hdc::{ops, DimensionPartition};
use linalg::{Matrix, Rng64};
use proptest::prelude::*;

fn random_sign_vector(rng: &mut Rng64, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|_| if rng.chance(0.5) { 1.0 } else { -1.0 })
        .collect()
}

proptest! {
    #[test]
    fn cosine_similarity_is_bounded(seed in any::<u64>(), n in 1usize..128) {
        let mut rng = Rng64::seed_from(seed);
        let a: Vec<f32> = (0..n).map(|_| rng.uniform_in(-5.0, 5.0)).collect();
        let b: Vec<f32> = (0..n).map(|_| rng.uniform_in(-5.0, 5.0)).collect();
        let sim = ops::cosine_similarity(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&sim));
    }

    #[test]
    fn cosine_similarity_is_symmetric(seed in any::<u64>(), n in 1usize..64) {
        let mut rng = Rng64::seed_from(seed);
        let a: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        prop_assert_eq!(
            ops::cosine_similarity(&a, &b).to_bits(),
            ops::cosine_similarity(&b, &a).to_bits()
        );
    }

    #[test]
    fn partition_tiles_exactly(total in 1usize..5000, learners in 1usize..100) {
        prop_assume!(learners <= total);
        let p = DimensionPartition::new(total, learners).unwrap();
        let mut covered = 0usize;
        let mut next = 0usize;
        for seg in p.iter() {
            prop_assert_eq!(seg.start, next);
            covered += seg.len();
            next = seg.end;
            // Segments are within 1 of each other (balanced).
            prop_assert!(seg.len() >= total / learners);
            prop_assert!(seg.len() <= total / learners + 1);
        }
        prop_assert_eq!(covered, total);
    }

    #[test]
    fn encoder_slices_reassemble_full_encoding(
        seed in any::<u64>(),
        dim in 8usize..256,
        features in 1usize..16,
        cuts in 1usize..6,
    ) {
        prop_assume!(cuts <= dim);
        let mut rng = Rng64::seed_from(seed);
        let enc = SinusoidEncoder::new(dim, features, &mut rng);
        let x: Vec<f32> = (0..features).map(|_| rng.uniform_in(-2.0, 2.0)).collect();
        let full = enc.encode_row(&x);
        let partition = DimensionPartition::new(dim, cuts).unwrap();
        let mut rebuilt = Vec::new();
        for seg in partition.iter() {
            rebuilt.extend(enc.slice_dims(seg.start, seg.end).encode_row(&x));
        }
        prop_assert_eq!(full, rebuilt);
    }

    #[test]
    fn encoder_slices_batch_encode_the_full_columns(
        seed in any::<u64>(),
        rows in 1usize..40,
        features in 1usize..16,
    ) {
        // Segment widths on both sides of the GEMM's 256-column tile, and
        // totals the learner count does not divide.
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (dim, cuts) in [(200, 2), (513, 2), (1030, 4), (1000, 3), (2000, 7)] {
            let mut rng = Rng64::seed_from(seed);
            let enc = SinusoidEncoder::new(dim, features, &mut rng);
            let x = Matrix::random_uniform(rows, features, -2.0, 2.0, &mut rng);
            let full = enc.encode_batch(&x);
            for seg in DimensionPartition::new(dim, cuts).unwrap().iter() {
                let sliced = enc.slice_dims(seg.start, seg.end).encode_batch(&x);
                prop_assert_eq!(
                    bits(&sliced),
                    bits(&full.slice_columns(seg.start, seg.end)),
                    "D={} segment {:?}", dim, seg
                );
            }
        }
    }

    #[test]
    fn encoded_values_stay_in_unit_interval(seed in any::<u64>(), features in 1usize..24) {
        let mut rng = Rng64::seed_from(seed);
        let enc = SinusoidEncoder::new(64, features, &mut rng);
        let x: Vec<f32> = (0..features).map(|_| rng.uniform_in(-10.0, 10.0)).collect();
        for v in enc.encode_row(&x) {
            prop_assert!(v.abs() <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn mp_density_nonnegative_and_supported(q in 0.01f64..2.0, lambda in 0.0f64..10.0) {
        let mp = MarchenkoPastur::new(1.0, q);
        let d = mp.density(lambda);
        prop_assert!(d >= 0.0);
        if lambda < mp.lambda_min() || lambda > mp.lambda_max() {
            prop_assert_eq!(d, 0.0);
        }
    }

    #[test]
    fn mp_moments_match_closed_forms(q in 0.02f64..0.95) {
        let mp = MarchenkoPastur::new(1.0, q);
        prop_assert!((mp.mean_numeric() - mp.mean()).abs() < 5e-3);
        prop_assert!((mp.variance_numeric() - mp.variance()).abs() < 5e-3);
    }

    #[test]
    fn span_utilization_bounded_by_raw(seed in any::<u64>(), rows in 1usize..8, cols in 1usize..64) {
        let mut rng = Rng64::seed_from(seed);
        let m = linalg::Matrix::random_normal(rows, cols, &mut rng);
        let sp = hdc::span_utilization(&m).unwrap();
        prop_assert!(sp.sp <= sp.raw + 1e-12, "attenuation can only shrink SP");
        prop_assert!(sp.attenuation >= 1.0 - 1e-12);
        prop_assert!(sp.rank <= rows.min(cols));
    }

    #[test]
    fn packed_similarity_agrees_with_cosine_on_sign_vectors(
        seed in any::<u64>(),
        dim in 1usize..600,
    ) {
        // On ±1 vectors the packed popcount similarity IS the cosine:
        // cos = (matches − mismatches)/D = 1 − 2·hamming/D.
        let mut rng = Rng64::seed_from(seed);
        let a = random_sign_vector(&mut rng, dim);
        let b = random_sign_vector(&mut rng, dim);
        let cos = ops::cosine_similarity(&a, &b);
        let packed = PackedHv::from_signs(&a).similarity(&PackedHv::from_signs(&b));
        prop_assert!((packed - cos).abs() < 1e-5, "dim {}: packed {} cosine {}", dim, packed, cos);
    }

    #[test]
    fn packed_ranking_agrees_with_cosine_ranking(
        seed in any::<u64>(),
        dim in 1usize..400,
        classes in 2usize..8,
    ) {
        // Exact rank agreement: scoring a random sign query against random
        // sign class vectors orders classes identically under f32 cosine
        // and packed popcount (modulo exact ties, compared directly).
        let mut rng = Rng64::seed_from(seed);
        let q = random_sign_vector(&mut rng, dim);
        let class_rows: Vec<Vec<f32>> =
            (0..classes).map(|_| random_sign_vector(&mut rng, dim)).collect();
        let dense = linalg::Matrix::from_rows(&class_rows).unwrap();
        let packed = PackedMatrix::from_dense_rows(&dense);
        let cosine_scores: Vec<f32> =
            class_rows.iter().map(|c| ops::cosine_similarity(c, &q)).collect();
        let packed_scores = packed.similarities(&PackedHv::from_signs(&q));
        // Pairwise order agreement is stronger than argmax agreement and
        // robust to ties.
        for i in 0..classes {
            prop_assert!((packed_scores[i] - cosine_scores[i]).abs() < 1e-5);
            for j in 0..classes {
                let cos_gt = cosine_scores[i] > cosine_scores[j] + 1e-6;
                let packed_lt = packed_scores[i] < packed_scores[j] - 1e-6;
                prop_assert!(
                    !(cos_gt && packed_lt),
                    "rank flip between classes {} and {}", i, j
                );
            }
        }
    }

    #[test]
    fn pack_unpack_round_trips_any_signs(seed in any::<u64>(), dim in 1usize..500) {
        let mut rng = Rng64::seed_from(seed);
        let v: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
        let packed = PackedHv::from_signs(&v);
        prop_assert_eq!(packed.to_bipolar(), ops::to_bipolar(&v));
        prop_assert_eq!(packed.dim(), dim);
        // Round-trip through raw words preserves the vector and never
        // leaves padding bits set.
        let rebuilt = PackedHv::from_words(packed.words().to_vec(), dim).unwrap();
        prop_assert_eq!(rebuilt, packed);
    }

    #[test]
    fn batch_encode_equals_rowwise_encode_bit_for_bit(
        seed in any::<u64>(),
        rows in 1usize..10,
        dim in 1usize..200,
        features in 1usize..12,
    ) {
        // The tentpole exactness property: the fused batch GEMM and the
        // single-row kernel share one accumulation order, so batched
        // encoding is the row-by-row reference — not an approximation.
        // Exact zero features are injected as the degenerate case most
        // likely to expose an ordering difference.
        let mut rng = Rng64::seed_from(seed);
        let enc = SinusoidEncoder::new(dim, features, &mut rng);
        let mut x = linalg::Matrix::random_uniform(rows, features, -2.0, 2.0, &mut rng);
        for r in 0..rows {
            if rng.chance(0.3) {
                let f = rng.below(features);
                x.set(r, f, 0.0);
            }
        }
        let batch = enc.encode_batch(&x);
        prop_assert_eq!(batch.shape(), (rows, dim));
        for r in 0..rows {
            let row = enc.encode_row(x.row(r));
            let batch_bits: Vec<u32> = batch.row(r).iter().map(|v| v.to_bits()).collect();
            let row_bits: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(batch_bits, row_bits, "row {}", r);
        }
    }

    #[test]
    fn batched_popcount_sweep_equals_per_query_scoring(
        seed in any::<u64>(),
        classes in 1usize..6,
        queries in 0usize..6,
        dim in 1usize..300,
    ) {
        let mut rng = Rng64::seed_from(seed);
        let class_m = PackedMatrix::from_dense_rows(
            &linalg::Matrix::random_normal(classes, dim, &mut rng));
        let query_m = PackedMatrix::from_dense_rows(
            &linalg::Matrix::random_normal(queries, dim, &mut rng));
        let sims = class_m.batch_similarities(&query_m);
        prop_assert_eq!(sims.shape(), (queries, classes));
        for q in 0..queries {
            prop_assert_eq!(sims.row(q), class_m.similarities(&query_m.row(q)).as_slice());
        }
    }
}
