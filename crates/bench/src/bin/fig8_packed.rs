//! Figure-8-style scenario for the bitpacked backend: accuracy under
//! memory bit flips, f32 vs binary storage.
//!
//! A thin client of [`reliability::campaign`]: one bit-flip scenario at
//! the historical seed `0xB17F` over two model specs — the dense-f32
//! BoostHD ensemble and its quantization-aware bitpacked freeze (same
//! base seed, so the dense fit is shared bit-for-bit). The f32 model
//! takes IEEE-754 word flips: a hit on an exponent bit can swing one
//! parameter by orders of magnitude. The bitpacked model stores one sign
//! bit per dimension, so a single-event upset perturbs exactly one
//! similarity by `2/D_wl` — the faithful SEU model for 1-bit associative
//! memories. The sweep shows the binary model's degradation is both
//! smaller and flatter across `p_b`, *while* storing the class memory
//! 32× smaller.
//!
//! Usage: `fig8_packed [--runs N] [--quick]` (trials per point; default 30).

use boosthd::parallel::default_threads;
use boosthd::{BoostHd, ModelSpec, QuantizedBoostHd, Tier};
use boosthd_bench::{
    ensure_registry, parse_common_args, prepare_split, ModelKind, DEFAULT_DIM_TOTAL,
};
use eval_harness::table::Series;
use reliability::campaign::{Campaign, CampaignData, CampaignSpec, FaultModel, ScenarioSpec};
use wearables::profiles;

fn main() {
    let (trials, quick) = parse_common_args(30);
    let mut profile = profiles::wesad_like();
    profile.subjects = 10;
    profile.windows_per_state = if quick { 8 } else { 20 };
    let (train, test) = prepare_split(&profile, 42);
    let n_test = test.len().min(240);
    let idx: Vec<usize> = (0..n_test).collect();
    let test = test.select(&idx);

    let steps: Vec<f64> = if quick {
        vec![0.0, 1e-5, 1e-3]
    } else {
        vec![0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
    };
    let dense_spec = ModelKind::BoostHd.spec(0x5EED, DEFAULT_DIM_TOTAL);
    let ModelSpec::BoostHd(base_config) = dense_spec.clone() else {
        unreachable!("ModelKind::BoostHd builds a BoostHd spec");
    };
    let spec = CampaignSpec {
        name: "fig8_packed".into(),
        seed: 0xB17F,
        trials,
        abstain_threshold: 0.0,
        models: vec![
            dense_spec,
            // Same base config and seed: the dense fit is bit-identical,
            // then frozen with 5 quantization-aware refit epochs.
            ModelSpec::QuantizedBoostHd {
                base: base_config,
                tier: Tier::Binary,
                refit_epochs: 5,
            },
        ],
        scenarios: vec![ScenarioSpec::new(FaultModel::BitFlip, steps.clone()).with_seed(0xB17F)],
    };

    eprintln!("[fig8_packed] training f32 ensemble and quantizing ...");
    ensure_registry();
    let data = CampaignData::new(
        train.features(),
        train.labels(),
        test.features(),
        test.labels(),
    )
    .expect("campaign data");
    let campaign = Campaign::new(&spec, data).expect("campaign fit");

    let boost = campaign.base_models()[0]
        .downcast_ref::<BoostHd>()
        .expect("dense ensemble");
    let packed = campaign.base_models()[1]
        .downcast_ref::<QuantizedBoostHd>()
        .expect("bitpacked ensemble");
    let f32_bytes: usize = (0..boost.num_learners())
        .map(|i| boost.learner_class_hypervectors(i).as_slice().len() * 4)
        .sum();
    eprintln!(
        "[fig8_packed] class memory: f32 {f32_bytes} B vs packed {} B ({}x smaller)",
        packed.class_storage_bytes(),
        f32_bytes / packed.class_storage_bytes().max(1)
    );

    // Each trial predicts the whole test set through the batched pipeline
    // (encode GEMM + per-learner sweeps) fanned out over the thread pool —
    // the equivalence property tests pin this to the per-sample path, so
    // the sweep measures exactly what a row-at-a-time deployment would see.
    let report = campaign.run(default_threads()).expect("campaign run");

    let names = ["BoostHD-f32", "BoostHD-bitpacked"];
    let series: Vec<Series> = (0..2)
        .map(|m| {
            let mut s = Series::new(names[m]);
            for cell in report.model_cells(0, m) {
                s.push(cell.severity, cell.mean_accuracy_pct);
            }
            s
        })
        .collect();
    println!(
        "{}",
        Series::render_aligned(
            "Figure 8 (backend variant) — accuracy (%) vs per-bit flip rate p_b",
            "p_b",
            &series
        )
    );
    let pooled = |m: usize| {
        let all: Vec<f64> = report
            .model_cells(0, m)
            .iter()
            .flat_map(|c| c.accuracy_runs_pct.iter().copied())
            .collect();
        linalg::stats::median_abs_deviation(&all) / 100.0
    };
    println!("MAD: f32 {:.4}, bitpacked {:.4}", pooled(0), pooled(1));
}
