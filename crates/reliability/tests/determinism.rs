//! Property tests for the campaign engine's determinism contract:
//! same spec + seed ⇒ byte-identical JSON reports for any thread count
//! (the kernel-dispatch half of the contract lives in
//! `tests/scalar_kernels.rs`, a separate process, because the kernel
//! override is process-global; the `HDC_FORCE_SCALAR=1` CI lane
//! additionally runs this whole suite under pinned scalar kernels).

use boosthd::{BoostHdConfig, CentroidHdConfig, ModelSpec, OnlineHdConfig, Tier};
use linalg::{Matrix, Rng64};
use proptest::prelude::*;
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

/// Every fault family at two severities over two model families — small
/// enough to sweep repeatedly, wide enough to cross every code path.
fn full_spec(seed: u64, trials: usize) -> CampaignSpec {
    CampaignSpec {
        name: "determinism".into(),
        seed,
        trials,
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
            ScenarioSpec::new(FaultModel::SpikeNoise { amplitude: 3.0 }, vec![0.05, 0.2]),
            ScenarioSpec::new(FaultModel::ChannelDropout, vec![0.2, 0.6]),
            ScenarioSpec::new(FaultModel::LabelNoise, vec![0.1, 0.3]),
            ScenarioSpec::new(
                FaultModel::ClassImbalance { target_class: 2 },
                vec![0.5, 0.9],
            ),
        ],
    }
}

#[test]
fn reports_are_byte_identical_at_1_2_and_8_threads() {
    let (x, y) = blobs(96, 7);
    let spec = full_spec(42, 2);
    let data = CampaignData::new(&x, &y, &x, &y).unwrap();
    let reference = campaign::run(&spec, data, 1).unwrap().to_json();
    assert!(reference.contains("\"class_imbalance\""));
    for threads in [2, 8] {
        let report = campaign::run(&spec, data, threads).unwrap().to_json();
        assert_eq!(
            report, reference,
            "thread count {threads} changed the report"
        );
    }
}

#[test]
fn repeated_runs_of_one_campaign_are_byte_identical() {
    let (x, y) = blobs(96, 9);
    let spec = full_spec(44, 3);
    let data = CampaignData::new(&x, &y, &x, &y).unwrap();
    let first = campaign::run(&spec, data, 4).unwrap().to_json();
    let second = campaign::run(&spec, data, 4).unwrap().to_json();
    assert_eq!(first, second);
}

proptest! {
    // Campaign runs train real models, so keep the case count tight; the
    // seeds/severities/trials axes are what the property quantifies over.
    #![proptest_config(ProptestConfig { cases: 6 })]

    #[test]
    fn any_seed_and_grid_is_thread_count_invariant(
        seed in any::<u64>(),
        severity in 0.0f64..0.02,
        trials in 1usize..3,
        threads in 2usize..9,
    ) {
        let (x, y) = blobs(60, 11);
        let spec = CampaignSpec {
            name: "prop".into(),
            seed,
            trials,
            abstain_threshold: 0.25,
            models: vec![ModelSpec::CentroidHd(CentroidHdConfig {
                dim: 64,
                ..Default::default()
            })],
            scenarios: vec![
                ScenarioSpec::new(FaultModel::BitFlip, vec![0.0, severity]),
                ScenarioSpec::new(FaultModel::ChannelDropout, vec![severity, 10.0 * severity]),
            ],
        };
        let data = CampaignData::new(&x, &y, &x, &y).unwrap();
        let serial = campaign::run(&spec, data, 1).unwrap().to_json();
        let parallel = campaign::run(&spec, data, threads).unwrap().to_json();
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn distinct_campaign_seeds_decorrelate_derived_scenarios(
        seed in any::<u64>(),
    ) {
        let spec_a = full_spec(seed, 1);
        let spec_b = full_spec(seed.wrapping_add(1), 1);
        // Derived scenario seeds are pure functions of (campaign seed,
        // index) and differ across scenarios and across campaign seeds.
        let a: Vec<u64> = (0..spec_a.scenarios.len()).map(|i| spec_a.scenario_seed(i)).collect();
        let b: Vec<u64> = (0..spec_b.scenarios.len()).map(|i| spec_b.scenario_seed(i)).collect();
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), a.len(), "scenario seeds collided");
        prop_assert_ne!(a, b, "campaign seed did not reach the scenario streams");
    }
}
