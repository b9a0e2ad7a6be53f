//! Byte-level freeze of the persisted model formats.
//!
//! The checked-in fixtures under `tests/fixtures/` hold one small seeded
//! model per BHD1 kind (D = 64, 3 features) plus the full-dimension
//! ensembles whose learners carry private encoders:
//!
//! * `<name>.bhd` — the raw BHD1 blob;
//! * `<name>.bhdp` — the same model wrapped by `Pipeline::save`;
//! * `all_kinds.bhfs` — a BHFS store holding every model as one record.
//!
//! The tests decode and re-encode the stored bytes instead of hashing
//! freshly fitted models: float kernels may differ by a few ULPs across
//! dispatch levels, but a decode → encode round trip must reproduce every
//! byte on any machine. Regenerate the fixtures (only when a format change
//! is intended) with
//! `cargo test -p boosthd --test format_freeze -- --ignored regenerate_fixtures`.

use boosthd::boost::{EnsembleMode, Voting};
use boosthd::pipeline::Model;
use boosthd::{
    BoostHd, BoostHdConfig, CentroidHd, CentroidHdConfig, ModelSpec, ModelStore, OnlineHd,
    OnlineHdConfig, Pipeline, QuantizedBoostHd, QuantizedHd, QuantizedI8BoostHd, QuantizedI8Hd,
    Tier,
};
use linalg::{Matrix, Rng64};
use std::path::{Path, PathBuf};

const DIM: usize = 64;
const FEATURES: usize = 3;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn online() -> OnlineHdConfig {
    OnlineHdConfig {
        dim: DIM,
        epochs: 3,
        seed: 11,
        ..Default::default()
    }
}

fn boost(mode: EnsembleMode, voting: Voting) -> BoostHdConfig {
    let n_learners = match mode {
        EnsembleMode::Partitioned => 4,
        EnsembleMode::FullDimension => 2,
    };
    BoostHdConfig {
        dim_total: DIM,
        n_learners,
        epochs: 2,
        mode,
        voting,
        seed: 13,
        ..Default::default()
    }
}

/// `(fixture name, spec)` for every frozen model, in store order.
fn fixtures() -> Vec<(&'static str, ModelSpec)> {
    let part = boost(EnsembleMode::Partitioned, Voting::Soft);
    let full = boost(EnsembleMode::FullDimension, Voting::Hard);
    vec![
        ("kind1_online_hd", ModelSpec::OnlineHd(online())),
        ("kind2_boost_hd", ModelSpec::BoostHd(part)),
        (
            "kind3_quantized_online_hd",
            ModelSpec::QuantizedOnlineHd {
                base: online(),
                tier: Tier::Binary,
                refit_epochs: 2,
            },
        ),
        (
            "kind4_quantized_boost_hd",
            ModelSpec::QuantizedBoostHd {
                base: part,
                tier: Tier::Binary,
                refit_epochs: 2,
            },
        ),
        (
            "kind5_centroid_hd",
            ModelSpec::CentroidHd(CentroidHdConfig { dim: DIM, seed: 17 }),
        ),
        (
            "kind6_quantized_i8_online_hd",
            ModelSpec::QuantizedOnlineHd {
                base: online(),
                tier: Tier::Int8,
                refit_epochs: 2,
            },
        ),
        (
            "kind7_quantized_i8_boost_hd",
            ModelSpec::QuantizedBoostHd {
                base: part,
                tier: Tier::Int8,
                refit_epochs: 2,
            },
        ),
        ("kind2_boost_hd_full_dim", ModelSpec::BoostHd(full)),
        (
            "kind4_quantized_boost_hd_full_dim",
            ModelSpec::QuantizedBoostHd {
                base: full,
                tier: Tier::Binary,
                refit_epochs: 1,
            },
        ),
        (
            "kind7_quantized_i8_boost_hd_full_dim",
            ModelSpec::QuantizedBoostHd {
                base: full,
                tier: Tier::Int8,
                refit_epochs: 1,
            },
        ),
    ]
}

fn toy(seed: u64, n: usize) -> (Matrix, Vec<usize>) {
    let mut rng = Rng64::seed_from(seed);
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % 3;
        rows.push(
            (0..FEATURES)
                .map(|f| if f == class { 1.0 } else { 0.0 } + 0.4 * rng.normal())
                .collect::<Vec<f32>>(),
        );
        labels.push(class);
    }
    (Matrix::from_rows(&rows).unwrap(), labels)
}

/// Decodes a BHD1 blob through the codec of the kind its header names.
fn decode_bhd1(bytes: &[u8]) -> Box<dyn Model> {
    let kind = bytes[5];
    let decoded: boosthd::Result<Box<dyn Model>> = match kind {
        1 => OnlineHd::from_bytes(bytes).map(|m| Box::new(m) as _),
        2 => BoostHd::from_bytes(bytes).map(|m| Box::new(m) as _),
        3 => QuantizedHd::from_bytes(bytes).map(|m| Box::new(m) as _),
        4 => QuantizedBoostHd::from_bytes(bytes).map(|m| Box::new(m) as _),
        5 => CentroidHd::from_bytes(bytes).map(|m| Box::new(m) as _),
        6 => QuantizedI8Hd::from_bytes(bytes).map(|m| Box::new(m) as _),
        7 => QuantizedI8BoostHd::from_bytes(bytes).map(|m| Box::new(m) as _),
        other => panic!("unknown BHD1 kind {other}"),
    };
    decoded.unwrap_or_else(|e| panic!("kind {kind} failed to decode: {e}"))
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn record_bytes(store_file: &[u8], entry: &boosthd::StoreEntry) -> Vec<u8> {
    let start = entry.offset as usize;
    store_file[start..start + entry.total_len as usize].to_vec()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("boosthd-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn bhd1_blobs_reencode_byte_identically() {
    for (name, _) in fixtures() {
        let bytes = read(&fixture_dir().join(format!("{name}.bhd")));
        let model = decode_bhd1(&bytes);
        let again = model.to_payload().unwrap();
        assert!(again == bytes, "{name}: BHD1 re-encode changed the bytes");
    }
}

#[test]
fn envelopes_load_with_their_spec_and_bhd1_twin_predictions() {
    let (x, _) = toy(99, 40);
    for (name, spec) in fixtures() {
        let pipeline = Pipeline::load(fixture_dir().join(format!("{name}.bhdp")))
            .unwrap_or_else(|e| panic!("{name}: envelope failed to load: {e}"));
        assert_eq!(pipeline.spec(), &spec, "{name}: spec drifted");
        let twin = decode_bhd1(&read(&fixture_dir().join(format!("{name}.bhd"))));
        assert_eq!(
            pipeline.model().payload_kind(),
            twin.payload_kind(),
            "{name}: payload kind drifted"
        );
        assert_eq!(
            pipeline.predict_batch(&x),
            twin.predict_batch(&x),
            "{name}: envelope and BHD1 twin disagree"
        );
        assert_eq!(
            pipeline.model().to_payload().unwrap(),
            twin.to_payload().unwrap(),
            "{name}: envelope payload differs from its BHD1 twin"
        );
    }
}

/// Bytes 10..19 of a v2 envelope: the record that once stamped the saving
/// machine's kernel tuning and is now always score chunk 256, threads 0,
/// source tag 0 (pinned), all little-endian.
const FIXED_TUNING_RECORD: [u8; 9] = [0, 1, 0, 0, 0, 0, 0, 0, 0];

#[test]
fn envelopes_reencode_identically_apart_from_the_fixed_tuning_record() {
    for (name, _) in fixtures() {
        let original = read(&fixture_dir().join(format!("{name}.bhdp")));
        let again = Pipeline::load(fixture_dir().join(format!("{name}.bhdp")))
            .unwrap_or_else(|e| panic!("{name}: envelope failed to load: {e}"))
            .to_bytes()
            .unwrap();
        assert_eq!(again.len(), original.len(), "{name}: envelope length");
        assert!(
            again[..10] == original[..10] && again[19..] == original[19..],
            "{name}: re-encode changed bytes outside the tuning record"
        );
        assert_eq!(
            again[10..19],
            FIXED_TUNING_RECORD,
            "{name}: tuning record is not the fixed one"
        );
    }
}

#[test]
fn store_records_reappend_byte_identically() {
    let dir = scratch_dir("format-freeze");
    let copy = dir.join("all_kinds.bhfs");
    std::fs::copy(fixture_dir().join("all_kinds.bhfs"), &copy).unwrap();
    let store = ModelStore::open(&copy).unwrap();
    let entries = store.entries();
    assert_eq!(entries.len(), fixtures().len(), "store record count");
    let fresh_path = dir.join("fresh.bhfs");
    let fresh = ModelStore::create(&fresh_path).unwrap();
    let (x, _) = toy(99, 40);
    for ((name, spec), entry) in fixtures().into_iter().zip(&entries) {
        assert_eq!(entry.model_id, name);
        let pipeline = store
            .load_record(entry)
            .unwrap_or_else(|e| panic!("{name}: record failed to load: {e}"));
        assert_eq!(pipeline.spec(), &spec, "{name}: spec drifted");
        let twin = decode_bhd1(&read(&fixture_dir().join(format!("{name}.bhd"))));
        assert_eq!(
            pipeline.predict_batch(&x),
            twin.predict_batch(&x),
            "{name}: store record and BHD1 twin disagree"
        );
        fresh.append(name, entry.version, &[&pipeline]).unwrap();
    }
    let original = read(&copy);
    let rewritten = read(&fresh_path);
    for (old, new) in entries.iter().zip(fresh.entries()) {
        assert!(
            record_bytes(&original, old) == record_bytes(&rewritten, &new),
            "{}: re-appended record bytes differ",
            old.model_id
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites every fixture from freshly fitted models. Run only when a
/// format change is intended; see the module docs.
#[test]
#[ignore]
fn regenerate_fixtures() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let (x, y) = toy(7, 60);
    let store_path = dir.join("all_kinds.bhfs");
    let store = ModelStore::create(&store_path).unwrap();
    for (name, spec) in fixtures() {
        let pipeline = Pipeline::fit(&spec, &x, &y).unwrap();
        std::fs::write(
            dir.join(format!("{name}.bhd")),
            pipeline.model().to_payload().unwrap(),
        )
        .unwrap();
        pipeline.save(dir.join(format!("{name}.bhdp"))).unwrap();
        store.append(name, 1, &[&pipeline]).unwrap();
    }
}
