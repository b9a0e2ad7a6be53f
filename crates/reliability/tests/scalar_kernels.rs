//! Kernel-dispatch invariance for campaign reports, in its own test
//! binary: [`set_kernel_level`] is process-global, so flipping it must
//! not race the other campaign tests (separate integration-test files
//! run as separate processes).

use boosthd::{BoostHdConfig, ModelSpec, OnlineHdConfig, Tier};
use linalg::kernels::{set_kernel_level, KernelLevel};
use linalg::{Matrix, Rng64};
use reliability::campaign::{self, CampaignData, CampaignSpec, FaultModel, ScenarioSpec};

fn blobs(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = Rng64::seed_from(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let class = i % 3;
        let c = class as f32 * 2.0 - 2.0;
        rows.push(vec![
            c + 0.5 * rng.normal(),
            -c + 0.5 * rng.normal(),
            0.3 * rng.normal(),
        ]);
        labels.push(class);
    }
    (Matrix::from_rows(&rows).unwrap(), labels)
}

#[test]
fn reports_are_byte_identical_under_forced_scalar_kernels() {
    // The `HDC_FORCE_SCALAR=1` CI lane runs this whole binary with the
    // env pin active; here we exercise the same switch programmatically
    // so a single AVX2 machine covers both dispatch levels in one run.
    let (x, y) = blobs(96, 8);
    let spec = spec(43);
    let data = CampaignData::new(&x, &y, &x, &y).unwrap();

    set_kernel_level(Some(KernelLevel::Scalar));
    let scalar = campaign::run(&spec, data, 3).unwrap().to_json();
    set_kernel_level(None);
    let dispatched = campaign::run(&spec, data, 3).unwrap().to_json();
    assert_eq!(
        scalar, dispatched,
        "kernel dispatch level leaked into the campaign report"
    );
}

fn spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        name: "scalar".into(),
        seed,
        trials: 2,
        abstain_threshold: 0.3,
        models: vec![
            ModelSpec::BoostHd(BoostHdConfig {
                dim_total: 120,
                n_learners: 4,
                epochs: 2,
                ..Default::default()
            }),
            ModelSpec::QuantizedOnlineHd {
                base: OnlineHdConfig {
                    dim: 96,
                    epochs: 2,
                    ..Default::default()
                },
                tier: Tier::Binary,
                refit_epochs: 1,
            },
        ],
        scenarios: vec![
            ScenarioSpec::new(FaultModel::BitFlip, vec![0.0, 1e-3]),
            ScenarioSpec::new(FaultModel::GaussianNoise, vec![0.2, 0.8]),
            ScenarioSpec::new(FaultModel::LabelNoise, vec![0.1, 0.3]),
        ],
    }
}
