//! Cross-crate integration tests: the full data → preprocess → train →
//! evaluate pipeline, exercised the way the benchmark binaries use it.

use boosthd_repro::prelude::*;

fn small_profile() -> DatasetProfile {
    DatasetProfile {
        subjects: 6,
        windows_per_state: 8,
        window_samples: 240,
        ..wearables::profiles::wesad_like()
    }
}

fn small_split() -> (Dataset, Dataset) {
    let data = wearables::generate(&small_profile(), 31).expect("generation");
    let (train, test) = data.split_by_subject_fraction(0.34, 5).expect("split");
    wearables::dataset::normalize_pair(&train, &test).expect("normalize")
}

#[test]
fn boosthd_learns_synthetic_wesad_end_to_end() {
    let (train, test) = small_split();
    let config = BoostHdConfig {
        dim_total: 1000,
        n_learners: 10,
        ..Default::default()
    };
    let model = BoostHd::fit(&config, train.features(), train.labels()).unwrap();
    let acc = eval_harness::metrics::accuracy(&model.predict_batch(test.features()), test.labels());
    assert!(acc > 0.75, "end-to-end accuracy {acc}");
}

#[test]
fn every_model_beats_chance_on_the_clean_profile() {
    let (train, test) = small_split();
    let chance = 1.0 / train.num_classes() as f64;
    let models: Vec<(&str, Box<dyn Classifier>)> = vec![
        (
            "adaboost",
            Box::new(
                AdaBoost::fit(&AdaBoostConfig::default(), train.features(), train.labels())
                    .unwrap(),
            ),
        ),
        (
            "random forest",
            Box::new(
                RandomForest::fit(
                    &RandomForestConfig::default(),
                    train.features(),
                    train.labels(),
                )
                .unwrap(),
            ),
        ),
        (
            "gbt",
            Box::new(
                GradientBoostedTrees::fit(
                    &GradientBoostingConfig::default(),
                    train.features(),
                    train.labels(),
                )
                .unwrap(),
            ),
        ),
        (
            "svm",
            Box::new(
                LinearSvm::fit(
                    &LinearSvmConfig::default(),
                    train.features(),
                    train.labels(),
                )
                .unwrap(),
            ),
        ),
        (
            "mlp",
            Box::new(Mlp::fit(&MlpConfig::small(), train.features(), train.labels()).unwrap()),
        ),
        (
            "onlinehd",
            Box::new(
                OnlineHd::fit(
                    &OnlineHdConfig {
                        dim: 512,
                        ..Default::default()
                    },
                    train.features(),
                    train.labels(),
                )
                .unwrap(),
            ),
        ),
        (
            "centroidhd",
            Box::new(
                CentroidHd::fit(
                    &CentroidHdConfig {
                        dim: 512,
                        ..Default::default()
                    },
                    train.features(),
                    train.labels(),
                )
                .unwrap(),
            ),
        ),
    ];
    for (name, model) in models {
        let acc =
            eval_harness::metrics::accuracy(&model.predict_batch(test.features()), test.labels());
        assert!(acc > chance + 0.15, "{name} barely beats chance: {acc}");
    }
}

#[test]
fn subject_splits_do_not_leak() {
    let data = wearables::generate(&small_profile(), 8).expect("generation");
    let (train, test) = data.split_by_subject_fraction(0.34, 9).expect("split");
    for sid in test.subject_ids() {
        assert!(!train.subject_ids().contains(sid), "subject {sid} leaked");
    }
    assert_eq!(train.len() + test.len(), data.len());
}

#[test]
fn boosthd_serialization_round_trips_predictions() {
    let (train, test) = small_split();
    let config = BoostHdConfig {
        dim_total: 400,
        n_learners: 5,
        epochs: 5,
        ..Default::default()
    };
    let model = BoostHd::fit(&config, train.features(), train.labels()).unwrap();
    // serde round-trip through the derived impls (postcard/json are not in
    // the dependency set; a custom bincode-like check via serde_test would
    // be overkill — clone + compare verifies the Clone path instead, and
    // the serde derives are compile-checked by this call).
    let cloned = model.clone();
    assert_eq!(
        model.predict_batch(test.features()),
        cloned.predict_batch(test.features())
    );
}

#[test]
fn bitflip_robustness_ordering_holds_end_to_end() {
    // At a harsh flip rate, the boosted ensemble should retain at least as
    // much accuracy as the strong learner on average.
    let (train, test) = small_split();
    let online = OnlineHd::fit(
        &OnlineHdConfig {
            dim: 1000,
            ..Default::default()
        },
        train.features(),
        train.labels(),
    )
    .unwrap();
    let boost = BoostHd::fit(
        &BoostHdConfig {
            dim_total: 1000,
            n_learners: 10,
            ..Default::default()
        },
        train.features(),
        train.labels(),
    )
    .unwrap();
    let trials = 12;
    let pb = 2e-4;
    let mean_acc = |make: &dyn Fn(u64) -> Vec<usize>| -> f64 {
        (0..trials)
            .map(|t| {
                let preds = make(t);
                eval_harness::metrics::accuracy(&preds, test.labels())
            })
            .sum::<f64>()
            / trials as f64
    };
    let online_acc = mean_acc(&|t| {
        let mut m = online.clone();
        let mut rng = Rng64::seed_from(100 + t);
        m.inject_bitflips(pb, &mut rng).unwrap();
        m.predict_batch(test.features())
    });
    let boost_acc = mean_acc(&|t| {
        let mut m = boost.clone();
        let mut rng = Rng64::seed_from(100 + t);
        m.inject_bitflips(pb, &mut rng).unwrap();
        m.predict_batch(test.features())
    });
    assert!(
        boost_acc >= online_acc - 0.05,
        "ensemble should absorb faults at least as well: boost {boost_acc} vs online {online_acc}"
    );
}

#[test]
fn nan_flip_probability_leaves_the_model_untouched() {
    // Campaign specs reject non-finite severities, but the pipeline and
    // the server's live-model corruption pass `p_b` straight through.
    let (train, test) = small_split();
    let spec = ModelSpec::QuantizedOnlineHd {
        base: OnlineHdConfig {
            dim: 500,
            ..Default::default()
        },
        tier: Tier::Binary,
        refit_epochs: 0,
    };
    let clean = Pipeline::fit(&spec, train.features(), train.labels()).unwrap();
    let mut corrupted = clean.clone();
    let report = corrupted
        .inject_bitflips(f64::NAN, &mut Rng64::seed_from(1))
        .unwrap();
    assert_eq!(report.flipped, 0);
    assert_eq!(corrupted.to_bytes().unwrap(), clean.to_bytes().unwrap());
    assert_eq!(
        corrupted.predict_batch(test.features()),
        clean.predict_batch(test.features())
    );
}

#[test]
fn imbalance_pipeline_produces_macro_fair_numbers() {
    let (train, test) = small_split();
    let mut rng = Rng64::seed_from(3);
    let keep = reliability::imbalance::imbalanced_indices(
        train.labels(),
        reliability::imbalance::ImbalanceSpec::from_reduction(0, 0.6),
        &mut rng,
    );
    let sub = train.select(&keep);
    assert!(sub.len() < train.len());
    let model = BoostHd::fit(
        &BoostHdConfig {
            dim_total: 1000,
            n_learners: 10,
            ..Default::default()
        },
        sub.features(),
        sub.labels(),
    )
    .unwrap();
    let preds = model.predict_batch(test.features());
    let macro_acc = eval_harness::metrics::macro_accuracy(&preds, test.labels(), 3);
    assert!(
        macro_acc > 0.6,
        "macro accuracy under imbalance: {macro_acc}"
    );
}

#[test]
fn hdc_theory_consistency_with_trained_models() {
    // Span utilization of the trained ensemble dominates the strong
    // learner's — the Figure 5 property as an invariant.
    let (train, _test) = small_split();
    let online = OnlineHd::fit(
        &OnlineHdConfig {
            dim: 1000,
            ..Default::default()
        },
        train.features(),
        train.labels(),
    )
    .unwrap();
    let boost = BoostHd::fit(
        &BoostHdConfig {
            dim_total: 1000,
            n_learners: 10,
            ..Default::default()
        },
        train.features(),
        train.labels(),
    )
    .unwrap();
    let sp_online = hdc::span_utilization(online.class_hypervectors()).unwrap();
    let sp_boost = hdc::span_utilization(&boost.stacked_class_hypervectors()).unwrap();
    assert!(sp_boost.rank > sp_online.rank);
    assert!(sp_boost.sp > sp_online.sp);
}

#[test]
fn continuous_monitoring_pipeline_serves_streamed_windows() {
    // The serving tentpole end to end: train on the dataset view, fit the
    // normalizer on the training split, then serve the streaming view
    // (subjects × signals → preprocess → window) through the micro-batching
    // engine and check the answers are both accurate and identical to
    // row-at-a-time prediction.
    use boosthd_repro::serve;
    use wearables::preprocess::Normalizer;
    use wearables::streaming::WindowStream;

    let profile = small_profile();
    let data = wearables::generate(&profile, 41).expect("generation");
    let normalizer = Normalizer::fit(data.features()).expect("normalizer");
    let model = OnlineHd::fit(
        &OnlineHdConfig {
            dim: 1000,
            ..Default::default()
        },
        &normalizer.apply(data.features()),
        data.labels(),
    )
    .unwrap();

    let stream = WindowStream::new(&profile, profile.window_samples / 2, 42).expect("stream");
    let engine = serve::InferenceEngine::with_config(
        &model,
        serve::EngineConfig {
            max_batch: 32,
            ..Default::default()
        },
    );
    let (windows, outcome) = engine.serve_windows(stream, |w| {
        let row = Matrix::from_rows(std::slice::from_ref(&w.features)).unwrap();
        normalizer.apply(&row).row(0).to_vec()
    });
    assert_eq!(outcome.predictions.len(), windows.len());
    assert!(outcome.stats.batches >= windows.len() / 32);
    assert_eq!(outcome.stats.latency.count, windows.len());

    // Accuracy well above the 3-class chance floor.
    let correct = outcome
        .predictions
        .iter()
        .zip(&windows)
        .filter(|(p, w)| **p == w.state.label())
        .count();
    let acc = correct as f64 / windows.len() as f64;
    assert!(acc > 0.55, "served accuracy {acc}");

    // Engine answers == row-at-a-time answers, window for window.
    for (w, &p) in windows.iter().zip(&outcome.predictions) {
        let row = Matrix::from_rows(std::slice::from_ref(&w.features)).unwrap();
        let x = normalizer.apply(&row);
        assert_eq!(model.predict(x.row(0)), p);
    }
}
