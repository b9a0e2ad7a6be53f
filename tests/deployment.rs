//! Integration tests for the deployment path: persist a trained model,
//! reload it, keep adapting it online, quantize it for 1-bit storage —
//! the full lifecycle a wearable would run.

use boosthd_repro::prelude::*;

fn small_split() -> (Dataset, Dataset) {
    let profile = DatasetProfile {
        subjects: 6,
        windows_per_state: 8,
        window_samples: 240,
        ..wearables::profiles::wesad_like()
    };
    let data = wearables::generate(&profile, 13).expect("generation");
    let (train, test) = data.split_by_subject_fraction(0.34, 2).expect("split");
    wearables::dataset::normalize_pair(&train, &test).expect("normalize")
}

#[test]
fn persisted_boosthd_round_trips_through_disk() {
    let (train, test) = small_split();
    let config = BoostHdConfig {
        dim_total: 500,
        n_learners: 5,
        epochs: 5,
        ..Default::default()
    };
    let model = BoostHd::fit(&config, train.features(), train.labels()).unwrap();

    let dir = std::env::temp_dir().join("boosthd_deployment_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ensemble.bhd");
    model.save(&path).unwrap();
    let restored = BoostHd::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(
        model.predict_batch(test.features()),
        restored.predict_batch(test.features())
    );
    assert_eq!(model.alphas(), restored.alphas());
}

#[test]
fn reloaded_onlinehd_keeps_learning_online() {
    let (train, test) = small_split();
    let config = OnlineHdConfig {
        dim: 500,
        ..Default::default()
    };
    let model = OnlineHd::fit(&config, train.features(), train.labels()).unwrap();

    // Ship to the device...
    let bytes = model.to_bytes();
    let mut on_device = OnlineHd::from_bytes(&bytes).unwrap();

    // ...and keep adapting there: a full streaming pass over the test
    // wearers must not degrade accuracy on their data.
    let before =
        eval_harness::metrics::accuracy(&on_device.predict_batch(test.features()), test.labels());
    on_device
        .update_batch(test.features(), test.labels())
        .unwrap();
    let after =
        eval_harness::metrics::accuracy(&on_device.predict_batch(test.features()), test.labels());
    assert!(
        after >= before - 0.02,
        "online adaptation must not hurt: {before} -> {after}"
    );
}

#[test]
fn quantized_models_survive_persistence_and_faults() {
    let (train, test) = small_split();
    let config = BoostHdConfig {
        dim_total: 1000,
        n_learners: 10,
        ..Default::default()
    };
    let mut model = BoostHd::fit(&config, train.features(), train.labels()).unwrap();
    let full_acc =
        eval_harness::metrics::accuracy(&model.predict_batch(test.features()), test.labels());

    // Quantize for 1-bit storage, round-trip through bytes, then inject
    // faults: the pipeline the robustness experiments assume.
    model.quantize_bipolar();
    let mut restored = BoostHd::from_bytes(&model.to_bytes()).unwrap();
    let quant_acc =
        eval_harness::metrics::accuracy(&restored.predict_batch(test.features()), test.labels());
    // Sign-quantization noise on per-learner similarities scales like
    // 1/√D_wl; at this test's deliberately small D_wl = 100 that is ~0.1,
    // so borderline windows flip and the budget must be looser than at the
    // paper's D_wl = 400 (tests/quantized.rs holds the 3-point bound there).
    assert!(
        quant_acc > full_acc - 0.12,
        "bipolar quantization cost too much: {full_acc} -> {quant_acc}"
    );

    let mut rng = Rng64::seed_from(5);
    let report = restored.inject_bitflips(1e-5, &mut rng).unwrap();
    assert!(report.words > 0);
    let faulty_acc =
        eval_harness::metrics::accuracy(&restored.predict_batch(test.features()), test.labels());
    assert!(
        faulty_acc > 0.5,
        "ensemble should absorb 1e-5 bit flips, got {faulty_acc}"
    );
}

#[test]
fn corrupted_blob_never_panics() {
    let (train, _test) = small_split();
    let config = OnlineHdConfig {
        dim: 128,
        epochs: 2,
        ..Default::default()
    };
    let model = OnlineHd::fit(&config, train.features(), train.labels()).unwrap();
    let bytes = model.to_bytes();
    // Truncate at every eighth boundary — every failure must be an Err,
    // never a panic or a silently wrong model.
    for cut in (0..bytes.len()).step_by(bytes.len() / 8 + 1) {
        assert!(OnlineHd::from_bytes(&bytes[..cut]).is_err());
    }
    // Flip a byte mid-payload: either rejected or produces a model of the
    // same shape (a single mutated f32 cannot change structure).
    let mut mutated = bytes.clone();
    let mid = mutated.len() / 2;
    mutated[mid] ^= 0x40;
    if let Ok(m) = OnlineHd::from_bytes(&mutated) {
        assert_eq!(m.num_classes(), model.num_classes());
        assert_eq!(m.dim(), model.dim());
    }
}
