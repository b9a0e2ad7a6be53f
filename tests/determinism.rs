//! Reproducibility invariants: every stochastic component must replay
//! exactly from its seed, across crate boundaries.

use boosthd_repro::prelude::*;

fn profile() -> DatasetProfile {
    DatasetProfile {
        subjects: 5,
        windows_per_state: 6,
        window_samples: 200,
        ..wearables::profiles::stress_predict_like()
    }
}

#[test]
fn dataset_generation_replays_exactly() {
    let a = wearables::generate(&profile(), 77).unwrap();
    let b = wearables::generate(&profile(), 77).unwrap();
    assert_eq!(a, b);
}

#[test]
fn full_training_pipeline_replays_exactly() {
    let run = || {
        let data = wearables::generate(&profile(), 5).unwrap();
        let (train, test) = data.split_by_subject_fraction(0.4, 2).unwrap();
        let (train, test) = wearables::dataset::normalize_pair(&train, &test).unwrap();
        let model = BoostHd::fit(
            &BoostHdConfig {
                dim_total: 300,
                n_learners: 6,
                epochs: 5,
                ..Default::default()
            },
            train.features(),
            train.labels(),
        )
        .unwrap();
        (model.alphas(), model.predict_batch(test.features()))
    };
    let (alphas_a, preds_a) = run();
    let (alphas_b, preds_b) = run();
    assert_eq!(alphas_a, alphas_b);
    assert_eq!(preds_a, preds_b);
}

#[test]
fn bitflip_injection_replays_exactly() {
    let data = wearables::generate(&profile(), 5).unwrap();
    let model = OnlineHd::fit(
        &OnlineHdConfig {
            dim: 256,
            epochs: 5,
            ..Default::default()
        },
        data.features(),
        data.labels(),
    )
    .unwrap();
    let corrupt = |seed: u64| {
        let mut m = model.clone();
        let mut rng = Rng64::seed_from(seed);
        let report = m.inject_bitflips(1e-3, &mut rng).unwrap();
        (report, m.class_hypervectors().clone())
    };
    let (report_a, params_a) = corrupt(9);
    let (report_b, params_b) = corrupt(9);
    assert_eq!(report_a, report_b);
    assert_eq!(params_a, params_b);
    let (_, params_c) = corrupt(10);
    assert_ne!(params_a, params_c);
}

#[test]
fn different_seeds_give_different_models_but_same_api_shape() {
    let data = wearables::generate(&profile(), 5).unwrap();
    let fit = |seed| {
        BoostHd::fit(
            &BoostHdConfig {
                dim_total: 300,
                n_learners: 6,
                epochs: 5,
                seed,
                ..Default::default()
            },
            data.features(),
            data.labels(),
        )
        .unwrap()
    };
    let a = fit(1);
    let b = fit(2);
    assert_eq!(a.num_learners(), b.num_learners());
    assert_eq!(a.num_classes(), b.num_classes());
    assert_ne!(
        a.learner_class_hypervectors(0),
        b.learner_class_hypervectors(0)
    );
}
