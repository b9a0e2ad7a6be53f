//! Golden BoostHD fits: for each training branch (resampled and reweighted
//! rounds, hard voting, the full-dimension ablation and the refit of both
//! quantized tiers), a seeded fit must serialize to exactly the same
//! bytes, release after release. Each case pins an FNV-1a hash of the
//! model payload, so a change to how or when the learners' subspaces are
//! encoded, the boosting order or the refit shows up here.
//!
//! Fits run on the scalar kernels so the hashes hold on every machine
//! (float kernels differ across dispatch levels by a few ULPs).

use boosthd_repro::boosthd::boost::{EnsembleMode, SampleMode};
use boosthd_repro::boosthd::fleet::fnv1a64;
use boosthd_repro::prelude::*;
use linalg::kernels::{set_kernel_level, KernelLevel};

/// Per case: the spec name and the expected payload hash.
const CASES: [(&str, u64); 6] = [
    ("resample", 0xb2af_fdfd_39af_5e0f),
    ("reweight", 0x395c_5356_783b_4302),
    ("hard", 0xd9c6_1c36_19f3_b776),
    ("full_dimension", 0xc2a9_5a23_7896_5720),
    ("i8_refit", 0x560e_4899_6f8a_870d),
    ("binary_refit", 0xbca8_b897_9956_7543),
];

/// The model each case trains. `D = 1030` over four learners gives
/// segments of 258 and 257 dimensions: wider than one 256-column GEMM
/// tile, uneven, and starting off a tile edge.
fn spec(case: &str) -> ModelSpec {
    let base = BoostHdConfig {
        dim_total: 1030,
        n_learners: 4,
        epochs: 3,
        seed: 11,
        ..Default::default()
    };
    let quantized = |tier| ModelSpec::QuantizedBoostHd {
        base,
        tier,
        refit_epochs: 2,
    };
    match case {
        "resample" => ModelSpec::BoostHd(BoostHdConfig {
            sample_mode: SampleMode::Resample,
            ..base
        }),
        "reweight" => ModelSpec::BoostHd(BoostHdConfig {
            sample_mode: SampleMode::Reweight,
            ..base
        }),
        "hard" => ModelSpec::BoostHd(BoostHdConfig {
            voting: Voting::Hard,
            ..base
        }),
        "full_dimension" => ModelSpec::BoostHd(BoostHdConfig {
            dim_total: 300,
            mode: EnsembleMode::FullDimension,
            ..base
        }),
        "i8_refit" => quantized(Tier::Int8),
        _ => quantized(Tier::Binary),
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

#[test]
fn every_boosthd_fit_serializes_to_the_same_bytes_per_seed() {
    set_kernel_level(Some(KernelLevel::Scalar));
    let (x, y) = blobs(90, 3);
    let mut actual = Vec::new();
    for (case, _) in CASES {
        let model = Pipeline::fit(&spec(case), &x, &y).unwrap();
        actual.push((case, fnv1a64(&model.model().to_payload().unwrap())));
    }
    assert_eq!(actual, CASES.to_vec());
}
