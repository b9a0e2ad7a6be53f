//! Quickstart: the unified `ModelSpec → Pipeline` API end to end — declare
//! a model, train it, ask it how confident it is, freeze it for the
//! device, and round-trip it through the persistence envelope.
//!
//! Run with: `cargo run --release --example quickstart`

use boosthd_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthesize a wearable stress dataset (15 subjects, 3 affect
    //    states, multimodal sensors) and split it by subject: the model
    //    never sees the test subjects during training.
    let profile = wearables::profiles::wesad_like();
    let data = wearables::generate(&profile, 42)?;
    println!(
        "dataset: {} windows x {} features, {} subjects, {} classes",
        data.len(),
        data.num_features(),
        data.subjects().len(),
        data.num_classes()
    );
    let (train, test) = data.split_by_subject_fraction(0.3, 7)?;
    let (train, test) = wearables::dataset::normalize_pair(&train, &test)?;

    // 2. Declare the two models. A spec is plain data — it serializes to
    //    the TOML the `hdrun` CLI consumes — so swapping models is a
    //    config change, not a code change.
    let online_spec = ModelSpec::OnlineHd(OnlineHdConfig {
        dim: 4000,
        ..Default::default()
    });
    let boost_spec = ModelSpec::BoostHd(BoostHdConfig {
        dim_total: 4000,
        n_learners: 10,
        ..Default::default()
    });
    println!("\nBoostHD spec as `hdrun` TOML:\n{}", boost_spec.to_toml());

    // 3. One fit call per spec, whatever the family.
    let online = Pipeline::fit(&online_spec, train.features(), train.labels())?;
    let boost = Pipeline::fit(&boost_spec, train.features(), train.labels())?;

    // 4. Evaluate both on the held-out subjects.
    let acc = |preds: &[usize]| eval_harness::metrics::accuracy(preds, test.labels()) * 100.0;
    println!(
        "OnlineHD accuracy: {:.2}%",
        acc(&online.predict_batch(test.features()))
    );
    println!(
        "BoostHD  accuracy: {:.2}%",
        acc(&boost.predict_batch(test.features()))
    );

    // 5. Reliability-gated prediction: normalized confidences plus an
    //    abstention threshold. Below-threshold windows return no decision
    //    — the abstain/escalate hook a clinical deployment needs.
    let gated = boost.with_abstain_threshold(0.5);
    let predictions = gated.predict_batch_with_confidence(test.features());
    let abstained = predictions.iter().filter(|p| p.abstained).count();
    let kept: Vec<(usize, usize)> = predictions
        .iter()
        .zip(test.labels())
        .filter(|(p, _)| !p.abstained)
        .map(|(p, &t)| (p.class, t))
        .collect();
    let kept_acc =
        kept.iter().filter(|(p, t)| p == t).count() as f64 / kept.len().max(1) as f64 * 100.0;
    println!(
        "confidence-gated BoostHD: abstains on {abstained}/{} windows, {kept_acc:.2}% on the rest",
        predictions.len()
    );

    // 6. Freeze for the device: the quantized variants are just another
    //    spec — trained in f32, refit against the binarized classes, and
    //    stored bitpacked (32x smaller class memory, XOR+popcount scoring).
    let packed_spec = ModelSpec::QuantizedBoostHd {
        base: BoostHdConfig {
            dim_total: 4000,
            n_learners: 10,
            ..Default::default()
        },
        tier: Tier::Binary,
        refit_epochs: 5,
    };
    let packed = Pipeline::fit(&packed_spec, train.features(), train.labels())?;
    println!(
        "bitpacked BoostHD accuracy: {:.2}% with {} B of class memory",
        acc(&packed.predict_batch(test.features())),
        packed
            .downcast_ref::<QuantizedBoostHd>()
            .expect("spec-built packed ensemble")
            .class_storage_bytes()
    );

    // 7. One persistence envelope for every family: save, load, and get
    //    bit-identical predictions plus the original spec back.
    let path = std::env::temp_dir().join("boosthd_quickstart.bhde");
    packed.save(&path)?;
    let restored = Pipeline::load(&path)?;
    assert_eq!(
        packed.predict_batch(test.features()),
        restored.predict_batch(test.features())
    );
    assert_eq!(restored.spec(), &packed_spec);
    std::fs::remove_file(&path).ok();
    println!("save -> load round trip: bit-identical predictions, spec preserved.");
    Ok(())
}
