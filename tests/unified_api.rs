//! Integration tests for the unified `ModelSpec → Pipeline` API: the
//! config-driven path every bench binary, example, and the `hdrun` CLI now
//! goes through, exercised end to end on the wearable dataset.

use boosthd_repro::prelude::*;
use boosthd_repro::serve::{EngineConfig, InferenceEngine};

fn small_split() -> (Dataset, Dataset) {
    let profile = DatasetProfile {
        subjects: 6,
        windows_per_state: 8,
        window_samples: 240,
        ..wearables::profiles::wesad_like()
    };
    let data = wearables::generate(&profile, 77).expect("generation");
    let (train, test) = data.split_by_subject_fraction(0.34, 5).expect("split");
    wearables::dataset::normalize_pair(&train, &test).expect("normalize")
}

fn hdc_specs() -> Vec<ModelSpec> {
    vec![
        ModelSpec::OnlineHd(OnlineHdConfig {
            dim: 256,
            epochs: 5,
            ..Default::default()
        }),
        ModelSpec::CentroidHd(CentroidHdConfig {
            dim: 256,
            ..Default::default()
        }),
        ModelSpec::BoostHd(BoostHdConfig {
            dim_total: 400,
            n_learners: 5,
            epochs: 5,
            ..Default::default()
        }),
        ModelSpec::QuantizedOnlineHd {
            base: OnlineHdConfig {
                dim: 256,
                epochs: 5,
                ..Default::default()
            },
            tier: Tier::Binary,
            refit_epochs: 2,
        },
        ModelSpec::QuantizedBoostHd {
            base: BoostHdConfig {
                dim_total: 400,
                n_learners: 5,
                epochs: 5,
                ..Default::default()
            },
            tier: Tier::Binary,
            refit_epochs: 2,
        },
    ]
}

#[test]
fn every_family_trains_through_one_call_and_beats_chance() {
    baselines::spec::install();
    let (train, test) = small_split();
    let chance = 1.0 / train.num_classes() as f64;
    let mut specs = hdc_specs();
    specs.push(ModelSpec::Baseline(BaselineSpec::new(
        BaselineKind::RandomForest,
        3,
    )));
    specs.push(ModelSpec::Baseline(BaselineSpec::new(BaselineKind::Svm, 3)));
    for spec in specs {
        let model = Pipeline::fit(&spec, train.features(), train.labels())
            .unwrap_or_else(|e| panic!("{} failed: {e}", spec.kind_tag()));
        let acc =
            eval_harness::metrics::accuracy(&model.predict_batch(test.features()), test.labels());
        assert!(
            acc > chance + 0.15,
            "{}: accuracy {acc} barely beats chance {chance}",
            spec.kind_tag()
        );
    }
}

#[test]
fn file_envelope_round_trips_every_hdc_family_bit_identically() {
    let (train, test) = small_split();
    let dir = std::env::temp_dir().join("boosthd_unified_api_test");
    std::fs::create_dir_all(&dir).unwrap();
    for (i, spec) in hdc_specs().into_iter().enumerate() {
        let pipeline = Pipeline::fit(&spec, train.features(), train.labels()).unwrap();
        let path = dir.join(format!("model_{i}.bhde"));
        pipeline.save(&path).unwrap();
        let restored = Pipeline::load(&path).unwrap();
        assert_eq!(
            pipeline.predict_batch(test.features()),
            restored.predict_batch(test.features()),
            "{} drifted through the file envelope",
            spec.kind_tag()
        );
        assert_eq!(restored.spec(), &spec);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn confidence_gating_never_hurts_accuracy_on_kept_windows() {
    let (train, test) = small_split();
    // Softmaxed 3-class confidences sit just above 1/3 for uncertain
    // windows, so a gate a few points over chance separates the tail
    // without starving throughput.
    let pipeline = Pipeline::fit(&hdc_specs()[2], train.features(), train.labels())
        .unwrap()
        .with_abstain_threshold(0.36);
    let predictions = pipeline.predict_batch_with_confidence(test.features());
    let all_correct = predictions
        .iter()
        .zip(test.labels())
        .filter(|(p, &t)| p.class == t)
        .count();
    let all_acc = all_correct as f64 / predictions.len() as f64;
    let kept: Vec<(usize, usize)> = predictions
        .iter()
        .zip(test.labels())
        .filter(|(p, _)| !p.abstained)
        .map(|(p, &t)| (p.class, t))
        .collect();
    // The gate must actually pass most traffic on this easy profile and
    // the kept subset must be at least as accurate as the ungated stream.
    assert!(kept.len() > predictions.len() / 2, "gate too aggressive");
    let kept_acc = kept.iter().filter(|(p, t)| p == t).count() as f64 / kept.len() as f64;
    assert!(
        kept_acc >= all_acc - 1e-9,
        "gating reduced accuracy: kept {kept_acc} vs all {all_acc}"
    );
}

#[test]
fn serving_engine_consumes_pipelines_directly() {
    let (train, test) = small_split();
    let pipeline = Pipeline::fit(&hdc_specs()[0], train.features(), train.labels()).unwrap();
    let engine = InferenceEngine::with_config(
        &pipeline,
        EngineConfig {
            max_batch: 13,
            threads: Some(2),
            ..Default::default()
        },
    );
    let outcome = engine.serve((0..test.len()).map(|r| test.features().row(r).to_vec()));
    assert_eq!(outcome.predictions, pipeline.predict_batch(test.features()));
}

#[test]
fn checked_in_hdrun_spec_stays_parseable() {
    // The CI smoke job trains from this file; a vocabulary drift must fail
    // here, in unit tests, not in the smoke job.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/specs/wesad_boosthd.toml"
    ))
    .expect("specs/wesad_boosthd.toml is checked in");
    let spec = ModelSpec::from_toml_str(&text).expect("spec parses");
    assert_eq!(spec.kind_tag(), "boost_hd");
    assert_eq!(spec.display_name(), "BoostHD");
    // And it round-trips through the writer.
    assert_eq!(ModelSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
}

#[test]
fn specs_reseed_uniformly_for_repeated_runs() {
    let base = hdc_specs()[2].clone();
    let a = base.clone().with_seed(100);
    let b = base.clone().with_seed(101);
    assert_ne!(a, b);
    let (train, _) = small_split();
    let ma = Pipeline::fit(&a, train.features(), train.labels()).unwrap();
    let mb = Pipeline::fit(&a, train.features(), train.labels()).unwrap();
    // Same spec → bit-identical model behavior (determinism through the
    // facade).
    assert_eq!(
        ma.predict_batch(train.features()),
        mb.predict_batch(train.features())
    );
}
