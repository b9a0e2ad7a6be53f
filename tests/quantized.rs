//! Integration tests for the bitpacked inference backend: quantized models
//! must track their f32 parents on the wearable workload, survive disk
//! round-trips, and absorb packed-word bit flips — the full deployment
//! story for a 1-bit associative memory.

use boosthd::{QuantizedBoostHd, QuantizedHd};
use boosthd_repro::prelude::*;

fn small_split() -> (Dataset, Dataset) {
    let profile = DatasetProfile {
        subjects: 6,
        windows_per_state: 8,
        window_samples: 240,
        ..wearables::profiles::wesad_like()
    };
    let data = wearables::generate(&profile, 21).expect("generation");
    let (train, test) = data.split_by_subject_fraction(0.34, 3).expect("split");
    wearables::dataset::normalize_pair(&train, &test).expect("normalize")
}

#[test]
fn quantized_boosthd_stays_within_three_points_of_f32_on_wesad_like() {
    let (train, test) = small_split();
    // The paper's configuration: D_total = 4000, N_L = 10 → D_wl = 400.
    let config = BoostHdConfig {
        dim_total: 4000,
        n_learners: 10,
        ..Default::default()
    };
    let model = BoostHd::fit(&config, train.features(), train.labels()).unwrap();
    let f32_acc =
        eval_harness::metrics::accuracy(&model.predict_batch(test.features()), test.labels());

    // The recommended deployment flow: a few epochs of quantization-aware
    // refit before freezing. Holds the 3-point budget at D_wl = 400.
    let spec = ModelSpec::QuantizedBoostHd {
        base: config,
        tier: Tier::Binary,
        refit_epochs: 5,
    };
    let refit = Pipeline::fit(&spec, train.features(), train.labels()).unwrap();
    let refit_acc =
        eval_harness::metrics::accuracy(&refit.predict_batch(test.features()), test.labels());
    assert!(
        refit_acc >= f32_acc - 0.03,
        "bitpacked BoostHD dropped more than 3 points: f32 {f32_acc} -> packed {refit_acc}"
    );

    // Data-free sign binarization is lossier (sign-rounding noise ~1/√D_wl
    // per learner) but must stay in the same accuracy regime.
    let plain = model.quantize();
    let plain_acc =
        eval_harness::metrics::accuracy(&plain.predict_batch(test.features()), test.labels());
    assert!(
        plain_acc >= f32_acc - 0.10,
        "data-free binarization collapsed: f32 {f32_acc} -> packed {plain_acc}"
    );
    assert!(
        refit_acc >= plain_acc,
        "refit should not be worse than data-free: {plain_acc} -> {refit_acc}"
    );
}

#[test]
fn quantized_onlinehd_stays_within_three_points_of_f32_on_wesad_like() {
    let (train, test) = small_split();
    let config = OnlineHdConfig {
        dim: 4000,
        ..Default::default()
    };
    let model = OnlineHd::fit(&config, train.features(), train.labels()).unwrap();
    let quantized = model.quantize();
    let f32_acc =
        eval_harness::metrics::accuracy(&model.predict_batch(test.features()), test.labels());
    let quant_acc =
        eval_harness::metrics::accuracy(&quantized.predict_batch(test.features()), test.labels());
    assert!(
        quant_acc >= f32_acc - 0.03,
        "bitpacked OnlineHD dropped more than 3 points: f32 {f32_acc} -> packed {quant_acc}"
    );
}

#[test]
fn quantized_ensemble_survives_disk_and_packed_faults() {
    let (train, test) = small_split();
    let config = BoostHdConfig {
        dim_total: 2000,
        n_learners: 10,
        ..Default::default()
    };
    let quantized = BoostHd::fit(&config, train.features(), train.labels())
        .unwrap()
        .quantize();

    // Ship to the device and back.
    let dir = std::env::temp_dir().join("boosthd_quantized_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ensemble.qbhd");
    quantized.save(&path).unwrap();
    let mut on_device = QuantizedBoostHd::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        quantized.predict_batch(test.features()),
        on_device.predict_batch(test.features())
    );

    // Inject sign-bit upsets at the packed words. A flipped sign bit
    // perturbs one learner's similarity by exactly 2/D_wl, so the
    // α-weighted vote absorbs sparse flips.
    let clean_acc =
        eval_harness::metrics::accuracy(&on_device.predict_batch(test.features()), test.labels());
    let mut rng = Rng64::seed_from(11);
    let report = on_device.inject_bitflips(1e-3, &mut rng).unwrap();
    assert!(report.flipped > 0);
    let faulty_acc =
        eval_harness::metrics::accuracy(&on_device.predict_batch(test.features()), test.labels());
    assert!(
        faulty_acc > clean_acc - 0.05,
        "packed ensemble should absorb 0.1% sign flips: {clean_acc} -> {faulty_acc}"
    );
}

#[test]
fn quantized_onlinehd_round_trips_and_batches_consistently() {
    let (train, test) = small_split();
    let config = OnlineHdConfig {
        dim: 1000,
        ..Default::default()
    };
    let quantized = OnlineHd::fit(&config, train.features(), train.labels())
        .unwrap()
        .quantize();
    let restored = QuantizedHd::from_bytes(&quantized.to_bytes()).unwrap();
    let batch = restored.predict_batch(test.features());
    let rowwise: Vec<usize> = (0..test.features().rows())
        .map(|r| restored.predict(test.features().row(r)))
        .collect();
    assert_eq!(batch, rowwise);
    assert_eq!(batch, restored.predict_batch_parallel(test.features(), 4));
}
