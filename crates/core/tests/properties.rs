//! Property-based tests for the classifier crate: invariants that must hold
//! for any seed, any (sane) configuration, and any label layout.

use boosthd::boost::EnsembleMode;
use boosthd::pipeline::Model;
use boosthd::{
    BoostHd, BoostHdConfig, CentroidHd, CentroidHdConfig, Classifier, OnlineHd, OnlineHdConfig,
};
use linalg::{Matrix, Rng64};
use proptest::prelude::*;

/// A small random but learnable dataset: class-dependent Gaussian blobs.
fn blob_data(seed: u64, n: usize, classes: usize) -> (Matrix, Vec<usize>) {
    let mut rng = Rng64::seed_from(seed);
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % classes;
        let angle = class as f32 / classes as f32 * std::f32::consts::TAU;
        rows.push(vec![
            2.0 * angle.cos() + 0.5 * rng.normal(),
            2.0 * angle.sin() + 0.5 * rng.normal(),
        ]);
        labels.push(class);
    }
    (Matrix::from_rows(&rows).unwrap(), labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn boosthd_predictions_always_in_label_range(
        seed in any::<u64>(),
        classes in 2usize..5,
        n_learners in 1usize..8,
    ) {
        let (x, y) = blob_data(seed, 60, classes);
        let config = BoostHdConfig {
            dim_total: 128,
            n_learners,
            epochs: 3,
            seed,
            ..Default::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        for p in model.predict_batch(&x) {
            prop_assert!(p < classes);
        }
    }

    #[test]
    fn boosthd_alphas_finite_nonnegative(seed in any::<u64>(), classes in 2usize..4) {
        let (x, y) = blob_data(seed, 45, classes);
        let config = BoostHdConfig { dim_total: 96, n_learners: 6, epochs: 3, seed, ..Default::default() };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        for a in model.alphas() {
            prop_assert!(a.is_finite() && a >= 0.0);
        }
        for e in model.training_errors() {
            prop_assert!((0.0..=1.0).contains(e));
        }
    }

    #[test]
    fn onlinehd_scores_are_valid_cosines(seed in any::<u64>()) {
        let (x, y) = blob_data(seed, 40, 3);
        let config = OnlineHdConfig { dim: 64, epochs: 3, seed, ..Default::default() };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        for r in 0..x.rows() {
            for s in model.scores(x.row(r)) {
                prop_assert!((-1.0 - 1e-5..=1.0 + 1e-5).contains(&s));
            }
        }
    }

    #[test]
    fn same_seed_same_predictions(seed in any::<u64>()) {
        let (x, y) = blob_data(seed, 40, 3);
        let config = BoostHdConfig { dim_total: 96, n_learners: 4, epochs: 3, seed, ..Default::default() };
        let a = BoostHd::fit(&config, &x, &y).unwrap();
        let b = BoostHd::fit(&config, &x, &y).unwrap();
        prop_assert_eq!(a.predict_batch(&x), b.predict_batch(&x));
    }

    #[test]
    fn parallel_inference_always_matches_serial(seed in any::<u64>(), threads in 1usize..5) {
        let (x, y) = blob_data(seed, 30, 3);
        let config = BoostHdConfig { dim_total: 96, n_learners: 4, epochs: 2, seed, ..Default::default() };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        prop_assert_eq!(model.predict_batch(&x), model.predict_batch_parallel(&x, threads));
    }

    #[test]
    fn weights_never_break_training(seed in any::<u64>()) {
        // Arbitrary positive weights must not panic or produce NaN scores.
        let (x, y) = blob_data(seed, 30, 2);
        let mut rng = Rng64::seed_from(seed);
        let w: Vec<f64> = (0..30).map(|_| 0.01 + rng.uniform() as f64 * 10.0).collect();
        let config = OnlineHdConfig { dim: 64, epochs: 2, seed, ..Default::default() };
        let model = OnlineHd::fit_weighted(&config, &x, &y, Some(&w)).unwrap();
        for s in model.scores(x.row(0)) {
            prop_assert!(s.is_finite());
        }
    }

    #[test]
    fn stacked_class_hvs_shape_invariant(seed in any::<u64>(), n_learners in 1usize..6) {
        let (x, y) = blob_data(seed, 30, 3);
        let config = BoostHdConfig { dim_total: 120, n_learners, epochs: 2, seed, ..Default::default() };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        let stacked = model.stacked_class_hypervectors();
        prop_assert_eq!(stacked.rows(), n_learners * 3);
        prop_assert_eq!(stacked.cols(), 120);
    }
}

/// Batch-vs-row equivalence: the tentpole invariant of the batched
/// inference refactor. Every classifier's `predict_batch`/`scores_batch`
/// must reproduce the mapped row-at-a-time calls bit for bit — dense,
/// int8 and packed, clean and fault-injected, within one score chunk and
/// across chunk seams — because the batched kernels share their
/// per-element arithmetic with the row kernels.
mod batch_row_equivalence {
    use super::*;
    use linalg::autotune::SCORE_CHUNK;

    /// `x`'s rows cycled to `2 * SCORE_CHUNK + 7` rows, each pass scaled a
    /// little differently so rows do not repeat: a batch that crosses two
    /// score-chunk seams and ends on a partial chunk.
    fn tall_batch(x: &Matrix) -> Matrix {
        let rows: Vec<Vec<f32>> = (0..2 * SCORE_CHUNK + 7)
            .map(|i| {
                let scale = 1.0 + (i / x.rows()) as f32 * 0.01;
                x.row(i % x.rows()).iter().map(|v| v * scale).collect()
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    fn assert_batch_matches_rows(name: &str, model: &dyn Classifier, x: &Matrix) {
        for x in [x.clone(), tall_batch(x)] {
            let rowwise: Vec<usize> = (0..x.rows()).map(|r| model.predict(x.row(r))).collect();
            assert_eq!(model.predict_batch(&x), rowwise, "{name}: predictions");
            let batch_scores = model.scores_batch(&x);
            assert_eq!(batch_scores.shape(), (x.rows(), model.num_classes()));
            for r in 0..x.rows() {
                // Compare raw bits so the contract also holds for NaN/Inf
                // scores produced by exponent-bit faults (NaN != NaN under
                // PartialEq).
                let batch_bits: Vec<u32> =
                    batch_scores.row(r).iter().map(|v| v.to_bits()).collect();
                let row_bits: Vec<u32> =
                    model.scores(x.row(r)).iter().map(|v| v.to_bits()).collect();
                assert_eq!(batch_bits, row_bits, "{name}: scores row {r}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn all_five_classifiers_dense_and_packed(seed in any::<u64>(), classes in 2usize..4) {
            let (x, y) = blob_data(seed, 36, classes);
            let online = OnlineHd::fit(
                &OnlineHdConfig { dim: 96, epochs: 3, seed, ..Default::default() }, &x, &y,
            ).unwrap();
            let centroid = CentroidHd::fit(
                &CentroidHdConfig { dim: 96, seed }, &x, &y,
            ).unwrap();
            let boost = BoostHd::fit(
                &BoostHdConfig { dim_total: 96, n_learners: 4, epochs: 2, seed, ..Default::default() },
                &x, &y,
            ).unwrap();
            let q_online = online.quantize();
            let q_boost = boost.quantize();
            let i8_online = online.quantize_i8();
            let i8_boost = boost.quantize_i8();
            let models: [(&str, &dyn Classifier); 7] = [
                ("OnlineHd", &online),
                ("CentroidHd", &centroid),
                ("BoostHd", &boost),
                ("QuantizedHd", &q_online),
                ("QuantizedBoostHd", &q_boost),
                ("QuantizedI8Hd", &i8_online),
                ("QuantizedI8BoostHd", &i8_boost),
            ];
            for (name, model) in models {
                assert_batch_matches_rows(name, model, &x);
            }
        }

        #[test]
        fn equivalence_survives_bit_flip_perturbation(seed in any::<u64>(), p_exp in 1u32..4) {
            // Fault-injected models must keep the batch/row contract: the
            // reliability sweeps predict whole batches and must measure
            // exactly what a per-sample deployment would produce.
            let p_b = 10f64.powi(-(p_exp as i32));
            let (x, y) = blob_data(seed, 30, 3);
            let config = BoostHdConfig {
                dim_total: 128, n_learners: 4, epochs: 2, seed, ..Default::default()
            };
            let mut boost = BoostHd::fit(&config, &x, &y).unwrap();
            let mut packed = boost.quantize();
            let mut online = OnlineHd::fit(
                &OnlineHdConfig { dim: 96, epochs: 2, seed, ..Default::default() }, &x, &y,
            ).unwrap();
            let mut q_online = online.quantize();

            let mut rng = Rng64::seed_from(seed ^ 0xF11);
            boost.inject_bitflips(p_b, &mut rng).unwrap();
            online.inject_bitflips(p_b, &mut rng).unwrap();
            packed.inject_bitflips(p_b, &mut rng).unwrap();
            q_online.inject_bitflips(p_b, &mut rng).unwrap();

            let models: [(&str, &dyn Classifier); 4] = [
                ("BoostHd+flips", &boost),
                ("OnlineHd+flips", &online),
                ("QuantizedBoostHd+flips", &packed),
                ("QuantizedHd+flips", &q_online),
            ];
            for (name, model) in models {
                assert_batch_matches_rows(name, model, &x);
            }
        }

        #[test]
        fn full_dimension_ablation_keeps_the_contract(seed in any::<u64>()) {
            let (x, y) = blob_data(seed, 30, 3);
            let config = BoostHdConfig {
                dim_total: 64, n_learners: 2, epochs: 2, seed,
                mode: EnsembleMode::FullDimension,
                ..Default::default()
            };
            let boost = BoostHd::fit(&config, &x, &y).unwrap();
            let packed = boost.quantize();
            assert_batch_matches_rows("BoostHd-fulldim", &boost, &x);
            assert_batch_matches_rows("QuantizedBoostHd-fulldim", &packed, &x);
        }

        #[test]
        fn chunked_parallel_prediction_is_thread_invariant(
            seed in any::<u64>(), threads in 1usize..6,
        ) {
            let (x, y) = blob_data(seed, 24, 3);
            let online = OnlineHd::fit(
                &OnlineHdConfig { dim: 64, epochs: 2, seed, ..Default::default() }, &x, &y,
            ).unwrap();
            let q = online.quantize();
            prop_assert_eq!(online.predict_batch(&x), online.predict_batch_parallel(&x, threads));
            prop_assert_eq!(q.predict_batch(&x), q.predict_batch_parallel(&x, threads));
        }
    }

    #[test]
    fn perturbable_surface_counts_are_consistent() {
        // Anchor the perturbation plumbing the equivalence tests rely on.
        let (x, y) = blob_data(7, 30, 3);
        let online = OnlineHd::fit(
            &OnlineHdConfig {
                dim: 64,
                epochs: 2,
                seed: 7,
                ..Default::default()
            },
            &x,
            &y,
        )
        .unwrap();
        let mut rng = Rng64::seed_from(0);
        let report = online.clone().inject_bitflips(0.0, &mut rng).unwrap();
        assert_eq!(report.words, 3 * 64);
        let report = online.quantize().inject_bitflips(1.0, &mut rng).unwrap();
        assert_eq!(report.flipped, 3 * 64, "every valid sign bit, no padding");
    }
}

// ---------------------------------------------------------------------------
// Unified ModelSpec → Pipeline facade
// ---------------------------------------------------------------------------

/// The five HDC spec variants at small, property-test-friendly sizes.
fn small_hdc_specs(seed: u64) -> Vec<boosthd::ModelSpec> {
    use boosthd::{ModelSpec, Tier};
    vec![
        ModelSpec::OnlineHd(OnlineHdConfig {
            dim: 72,
            epochs: 2,
            seed,
            ..Default::default()
        }),
        ModelSpec::CentroidHd(CentroidHdConfig { dim: 72, seed }),
        ModelSpec::BoostHd(BoostHdConfig {
            dim_total: 96,
            n_learners: 4,
            epochs: 2,
            seed,
            ..Default::default()
        }),
        ModelSpec::QuantizedOnlineHd {
            base: OnlineHdConfig {
                dim: 72,
                epochs: 2,
                seed,
                ..Default::default()
            },
            tier: Tier::Binary,
            refit_epochs: 1,
        },
        ModelSpec::QuantizedBoostHd {
            base: BoostHdConfig {
                dim_total: 96,
                n_learners: 4,
                epochs: 2,
                seed,
                ..Default::default()
            },
            tier: Tier::Binary,
            refit_epochs: 1,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance property of the persistence redesign: for every HDC
    /// model family and any seed, save → load through the single envelope
    /// reproduces batch predictions bit for bit, along with the spec.
    #[test]
    fn every_hdc_model_round_trips_the_envelope_bit_identically(seed in any::<u64>()) {
        let (x, y) = blob_data(seed, 42, 3);
        for spec in small_hdc_specs(seed) {
            let pipeline = boosthd::Pipeline::fit(&spec, &x, &y).unwrap();
            let restored = boosthd::Pipeline::from_bytes(&pipeline.to_bytes().unwrap()).unwrap();
            prop_assert_eq!(
                pipeline.predict_batch(&x),
                restored.predict_batch(&x),
                "{} drifted",
                spec.kind_tag()
            );
            prop_assert_eq!(restored.spec(), &spec);
        }
    }

    /// Spec serialization is lossless for arbitrary hyperparameters, not
    /// just the defaults.
    #[test]
    fn arbitrary_specs_round_trip_through_toml(
        seed in any::<u64>(),
        dim in 1usize..10_000,
        n_learners in 1usize..64,
        epochs in 0usize..50,
        lr in 0.001f64..0.5,
        bootstrap in any::<bool>(),
    ) {
        use boosthd::ModelSpec;
        let spec = ModelSpec::BoostHd(BoostHdConfig {
            dim_total: dim,
            n_learners,
            epochs,
            lr: lr as f32,
            bootstrap,
            seed,
            ..Default::default()
        });
        prop_assert_eq!(ModelSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
        let spec = ModelSpec::OnlineHd(OnlineHdConfig {
            dim,
            epochs,
            lr: lr as f32,
            bootstrap,
            seed,
        });
        prop_assert_eq!(ModelSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
    }

    /// Confidences are probabilities: every prediction of every family
    /// reports confidence and margin in [0, 1] with class probabilities
    /// summing to one, and the abstention count is monotone in the
    /// threshold.
    #[test]
    fn confidence_and_abstention_invariants(seed in any::<u64>()) {
        let (x, y) = blob_data(seed, 36, 3);
        for spec in small_hdc_specs(seed) {
            let mut pipeline = boosthd::Pipeline::fit(&spec, &x, &y).unwrap();
            let mut previous = 0usize;
            for threshold in [0.0f32, 0.4, 0.7, 1.0] {
                pipeline.set_abstain_threshold(threshold);
                let mut abstained = 0usize;
                for p in pipeline.predict_batch_with_confidence(&x) {
                    prop_assert!((0.0..=1.0).contains(&p.confidence), "{}", spec.kind_tag());
                    prop_assert!((0.0..=1.0).contains(&p.margin));
                    let sum: f32 = p.probabilities.iter().sum();
                    prop_assert!((sum - 1.0).abs() < 1e-4);
                    prop_assert!(p.confidence >= p.probabilities.iter().copied().fold(0.0, f32::max) - 1e-6);
                    if p.abstained {
                        abstained += 1;
                        prop_assert!(p.decision().is_none());
                        prop_assert!(p.confidence < threshold);
                    } else {
                        prop_assert_eq!(p.decision(), Some(p.class));
                    }
                }
                prop_assert!(abstained >= previous, "abstention not monotone in threshold");
                previous = abstained;
            }
        }
    }
}
