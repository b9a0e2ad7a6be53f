//! Golden bit-flip injection: for every model kind that accepts flips, a
//! fixed seed and flip probability must corrupt exactly the same stored
//! bits, release after release. Each case pins the injection report and a
//! hash of the corrupted model's score bits on a fixed query matrix, so a
//! change to the walk order, its grouping into stores or the bits a model
//! lists shows up here.
//!
//! Scores are computed on the scalar kernels so the hashes hold on every
//! machine (float kernels differ across dispatch levels by a few ULPs).

use boosthd_repro::prelude::*;
use linalg::kernels::{set_kernel_level, KernelLevel};
use reliability::BitflipReport;

const SEED: u64 = 0x60_1D;

/// Per kind: a flip probability that leaves its scores informative, then
/// the expected report (`words`, `flipped`) and corrupted-score hash.
const CASES: [(&str, f64, usize, usize, u64); 9] = [
    ("online", 2e-4, 1500, 8, 0x2619_7f34_3bc1_4dc8),
    ("boost", 2e-4, 3000, 16, 0x2751_086f_079e_c040),
    ("centroid", 2e-4, 1500, 8, 0xed8d_24bb_2044_bfa5),
    ("i8_online", 5e-3, 1500, 54, 0xb96f_be44_7f1c_e170),
    ("i8_boost", 5e-3, 3000, 111, 0x609f_a173_6ad8_573a),
    ("packed_online", 2e-2, 24, 23, 0x87af_4532_931b_0b83),
    ("packed_boost", 2e-2, 47, 54, 0xada4_becb_0c32_98af),
    ("mlp", 1e-3, 435, 13, 0xe8a3_8e37_02e2_fe81),
    ("svm", 1e-2, 51, 15, 0xa58b_dbd8_4b8c_3b9c),
];

/// The model each case trains.
fn spec(kind: &str) -> ModelSpec {
    let online = OnlineHdConfig {
        dim: 500,
        epochs: 3,
        seed: 5,
        ..Default::default()
    };
    let boost = BoostHdConfig {
        dim_total: 1000,
        n_learners: 5,
        epochs: 3,
        seed: 6,
        ..Default::default()
    };
    let baseline = |kind, seed| BaselineSpec {
        epochs: Some(3),
        hidden: Some(vec![16, 8]),
        ..BaselineSpec::new(kind, seed)
    };
    let refit_epochs = 1;
    match kind {
        "online" => ModelSpec::OnlineHd(online),
        "boost" => ModelSpec::BoostHd(boost),
        "centroid" => ModelSpec::CentroidHd(CentroidHdConfig { dim: 500, seed: 9 }),
        "i8_online" => ModelSpec::QuantizedOnlineHd {
            base: online,
            tier: Tier::Int8,
            refit_epochs,
        },
        "i8_boost" => ModelSpec::QuantizedBoostHd {
            base: boost,
            tier: Tier::Int8,
            refit_epochs,
        },
        "packed_online" => ModelSpec::QuantizedOnlineHd {
            base: online,
            tier: Tier::Binary,
            refit_epochs,
        },
        "packed_boost" => ModelSpec::QuantizedBoostHd {
            base: boost,
            tier: Tier::Binary,
            refit_epochs,
        },
        "mlp" => ModelSpec::Baseline(baseline(BaselineKind::Mlp, 7)),
        _ => ModelSpec::Baseline(baseline(BaselineKind::Svm, 8)),
    }
}

/// Three Gaussian blobs in sixteen features.
fn blobs(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = Rng64::seed_from(seed);
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            let center = |f: usize| if f % 3 == i % 3 { 1.5 } else { -0.5 };
            (0..16).map(|f| center(f) + 0.6 * rng.normal()).collect()
        })
        .collect();
    let labels = (0..n).map(|i| i % 3).collect();
    (Matrix::from_rows(&rows).unwrap(), labels)
}

/// FNV-1a over the bit patterns of every score.
fn score_hash(scores: &Matrix) -> u64 {
    let fold = |h: u64, s: &f32| (h ^ u64::from(s.to_bits())).wrapping_mul(0x0100_0000_01b3);
    scores.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, fold)
}

#[test]
fn every_kind_flips_the_same_bits_per_seed() {
    set_kernel_level(Some(KernelLevel::Scalar));
    baselines::spec::install();
    let (x, y) = blobs(90, 1);
    let (queries, _) = blobs(24, 2);
    for (kind, p_b, words, flipped, hash) in CASES {
        let mut model = Pipeline::fit(&spec(kind), &x, &y).unwrap();
        let report = model.inject_bitflips(p_b, &mut Rng64::seed_from(SEED));
        assert_eq!(report.unwrap(), BitflipReport { words, flipped }, "{kind}");
        let scores = score_hash(&model.model().scores_batch(&queries));
        assert_eq!(scores, hash, "{kind} corrupted scores");
        if kind.starts_with("i8_") {
            // An int8 memory re-derives its row norms from the stored
            // bytes at load; a flipped model must already score that way.
            let reloaded = Pipeline::from_bytes(&model.to_bytes().unwrap()).unwrap();
            let reloaded = score_hash(&reloaded.model().scores_batch(&queries));
            assert_eq!(reloaded, scores, "{kind} must score like its reload");
        }
    }
}
