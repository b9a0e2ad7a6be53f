//! Quantization-ladder benchmark: accuracy, storage, and scoring
//! throughput of the f32 / int8 / 1-bit class-memory tiers across
//! hyperspace dimensionality and feature width — snapshotted to
//! `BENCH_quant.json`.
//!
//! All three tiers share the same trained OnlineHD model and the same
//! sinusoid encoder; what the ladder changes is the associative-memory
//! representation and its scoring kernel (f32 FMA cosine, widening i8×i8
//! `maddubs` dot, XOR + popcount). The benchmark therefore reports two
//! throughput numbers per tier:
//!
//! * `score_rows_per_sec` — the class-memory sweep alone, over queries
//!   prepared once in each tier's native representation (dense encoded
//!   f32, pre-quantized int8 [`boosthd::QuantizedI8Query`], pre-packed
//!   1-bit [`PackedHv`]). Encode cost is excluded because all tiers share
//!   it, and query preparation is excluded because it is a once-per-query
//!   cost the sweep amortizes across however many class memories the
//!   query visits (weak learners, per-patient fleets);
//! * `predict_rows_per_sec` — end-to-end batched prediction including
//!   the encode GEMM (the serving number, where the shared encode damps
//!   the ladder's separation).
//!
//! The workload is the paper's WESAD-like profile (`F = 32`) plus a
//! four-segment wide variant (`F = 128`), at `D ∈ {1000, 4000}`. Both
//! quantized tiers use 2 straight-through refit epochs (the
//! `default_specs` deployment setting).
//!
//! Usage: `quantbench [--quick]` — `--quick` shrinks everything for a CI
//! smoke run and skips the JSON snapshot. A full run, after writing the
//! snapshot, asserts that 1-bit scoring is at least 5× the f32 sweep at
//! `D = 4000` (`MIN_ONEBIT_SCORE_SPEEDUP`).

use std::time::Instant;

use boosthd::parallel::default_threads;
use boosthd::{
    Classifier, ModelSpec, OnlineHd, OnlineHdConfig, QuantizedHd, QuantizedI8Hd, QuantizedI8Query,
    Tier,
};
use boosthd_bench::{fit_spec, parse_common_args, prepare_split};
use eval_harness::metrics::accuracy;
use hdc::backend::PackedHv;
use hdc::Encode;
use linalg::Matrix;
use wearables::profiles::{self, DatasetProfile};

/// The least 1-bit over f32 class-memory scoring speedup a full run
/// accepts at the paper's `D = 4000`: XOR + popcount over `D/64` words has
/// to stay well ahead of a `D`-lane FMA sweep, or the 1-bit tier stops
/// paying for its accuracy drop.
const MIN_ONEBIT_SCORE_SPEEDUP: f64 = 5.0;

/// One measured (profile, dim, tier) cell.
struct Row {
    profile: String,
    features: usize,
    dim: usize,
    tier: &'static str,
    accuracy_pct: f64,
    class_bytes: usize,
    score_rows_per_sec: f64,
    predict_rows_per_sec: f64,
}

/// Rows/sec of `run` over `rows` queries, best of `reps` timed passes
/// after one warm-up.
fn measure(rows: usize, reps: usize, mut run: impl FnMut()) -> f64 {
    run(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    rows as f64 / best
}

/// Measures the three tiers for one (profile, dim), appending to `results`.
fn run_config(
    label: &str,
    profile: &DatasetProfile,
    dim: usize,
    quick: bool,
    results: &mut Vec<Row>,
) {
    let (train, test) = prepare_split(profile, 42);
    eprintln!(
        "[quantbench] {label}: D={dim} F={} train={} test={}",
        train.num_features(),
        train.len(),
        test.len()
    );
    let pipeline = fit_spec(
        &ModelSpec::OnlineHd(OnlineHdConfig {
            dim,
            seed: 42,
            ..Default::default()
        }),
        train.features(),
        train.labels(),
    );
    let refit = Some((train.features(), train.labels(), 2));
    let i8_tier = pipeline.freeze(Tier::Int8, refit).expect("int8 refit");
    let packed_tier = pipeline.freeze(Tier::Binary, refit).expect("1-bit refit");
    let model = pipeline
        .downcast_ref::<OnlineHd>()
        .expect("spec-built OnlineHD");
    let i8_model = i8_tier.downcast_ref::<QuantizedI8Hd>().expect("int8 tier");
    let packed = packed_tier
        .downcast_ref::<QuantizedHd>()
        .expect("1-bit tier");

    // Replicate the test split into a serving-sized query batch, then
    // prepare each tier's query representation once (encode, quantize,
    // pack) so the scoring measurement times only the class-memory sweep
    // every tier implements differently.
    let target_rows = if quick { 64 } else { 768 };
    let indices: Vec<usize> = (0..target_rows).map(|i| i % test.len()).collect();
    let queries: Matrix = test.features().select_rows(&indices);
    let rows = queries.rows();
    let reps = if quick { 1 } else { 5 };
    let mut encoded = Matrix::zeros(0, 0);
    model.encoder().encode_batch_into(&queries, &mut encoded);
    let i8_queries: Vec<QuantizedI8Query> = (0..rows)
        .map(|r| QuantizedI8Query::from_encoded(encoded.row(r)))
        .collect();
    let packed_queries: Vec<PackedHv> = (0..rows)
        .map(|r| PackedHv::from_signs(encoded.row(r)))
        .collect();

    let acc =
        |m: &dyn Classifier| accuracy(&m.predict_batch(test.features()), test.labels()) * 100.0;
    let mut push = |tier, accuracy_pct, class_bytes, score_rps, predict_rps| {
        results.push(Row {
            profile: label.to_string(),
            features: train.num_features(),
            dim,
            tier,
            accuracy_pct,
            class_bytes,
            score_rows_per_sec: score_rps,
            predict_rows_per_sec: predict_rps,
        });
    };

    let f32_bytes = model.class_hypervectors().rows() * dim * std::mem::size_of::<f32>();
    let score_f32 = measure(rows, reps, || {
        for r in 0..rows {
            std::hint::black_box(model.scores_encoded(encoded.row(r)));
        }
    });
    let predict_f32 = measure(rows, reps, || {
        std::hint::black_box(model.predict_batch(&queries));
    });
    push("f32", acc(model), f32_bytes, score_f32, predict_f32);

    let mut i8_scores = vec![0.0f32; model.class_hypervectors().rows()];
    let score_i8 = measure(rows, reps, || {
        for q in &i8_queries {
            i8_model.scores_quantized_into(q, &mut i8_scores);
            std::hint::black_box(&mut i8_scores);
        }
    });
    let predict_i8 = measure(rows, reps, || {
        std::hint::black_box(i8_model.predict_batch(&queries));
    });
    push(
        "int8",
        acc(i8_model),
        i8_model.class_storage_bytes(),
        score_i8,
        predict_i8,
    );

    let score_1bit = measure(rows, reps, || {
        for q in &packed_queries {
            std::hint::black_box(packed.scores_packed(q));
        }
    });
    let predict_1bit = measure(rows, reps, || {
        std::hint::black_box(packed.predict_batch(&queries));
    });
    push(
        "1bit",
        acc(packed),
        packed.class_storage_bytes(),
        score_1bit,
        predict_1bit,
    );
}

fn main() {
    let (_runs, quick) = parse_common_args(3);
    let dims: &[usize] = if quick { &[256] } else { &[1000, 4000] };
    let base = if quick {
        boosthd_bench::quick_profile(profiles::wesad_like())
    } else {
        profiles::wesad_like()
    };
    let wide = DatasetProfile {
        name: "wesad-like-wide".into(),
        segments: 4,
        ..base.clone()
    };

    let mut results: Vec<Row> = Vec::new();
    for &dim in dims {
        run_config("wesad_f32feat", &base, dim, quick, &mut results);
        run_config("wesad_f128feat", &wide, dim, quick, &mut results);
    }

    println!("profile         F    D     tier   acc%    bytes     score rows/s  predict rows/s");
    for r in &results {
        println!(
            "{:<15} {:<4} {:<5} {:<6} {:<7.2} {:<9} {:>12.0}  {:>14.0}",
            r.profile,
            r.features,
            r.dim,
            r.tier,
            r.accuracy_pct,
            r.class_bytes,
            r.score_rows_per_sec,
            r.predict_rows_per_sec
        );
    }
    let top_dim = *dims.last().expect("dims nonempty");
    let cell = |profile: &str, tier: &str| {
        results
            .iter()
            .find(|r| r.profile == profile && r.tier == tier && r.dim == top_dim)
            .expect("measured cell")
    };
    let base_f32 = cell("wesad_f32feat", "f32");
    let base_i8 = cell("wesad_f32feat", "int8");
    let base_1bit = cell("wesad_f32feat", "1bit");
    let i8_speedup = base_i8.score_rows_per_sec / base_f32.score_rows_per_sec;
    let bit_speedup = base_1bit.score_rows_per_sec / base_f32.score_rows_per_sec;
    let i8_drop = base_f32.accuracy_pct - base_i8.accuracy_pct;
    let bit_drop = base_f32.accuracy_pct - base_1bit.accuracy_pct;
    println!(
        "D={top_dim} wesad scoring speedup over f32: int8 {i8_speedup:.2}x \
         (acc {:+.2} pts), 1-bit {bit_speedup:.2}x (acc {:+.2} pts)",
        -i8_drop, -bit_drop
    );

    if quick {
        eprintln!("[quantbench] quick mode: skipping BENCH_quant.json snapshot");
        return;
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"profile\": \"wesad-like (+4-segment wide)\", \"dims\": {dims:?}, \"query_rows\": 768, \"refit_epochs\": 2, \"model\": \"OnlineHD\", \"machine_threads\": {}}},\n",
        default_threads()
    ));
    json.push_str("  \"rows\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"profile\": \"{}\", \"features\": {}, \"dim\": {}, \"tier\": \"{}\", \"accuracy_pct\": {:.2}, \"class_bytes\": {}, \"score_rows_per_sec\": {:.1}, \"predict_rows_per_sec\": {:.1}}}{}\n",
            r.profile,
            r.features,
            r.dim,
            r.tier,
            r.accuracy_pct,
            r.class_bytes,
            r.score_rows_per_sec,
            r.predict_rows_per_sec,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"summary_d{top_dim}_wesad\": {{\"int8_score_speedup_over_f32\": {i8_speedup:.2}, \"int8_accuracy_drop_pts\": {i8_drop:.2}, \"onebit_score_speedup_over_f32\": {bit_speedup:.2}, \"onebit_accuracy_drop_pts\": {bit_drop:.2}}}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_quant.json", json).expect("write BENCH_quant.json");
    eprintln!("[quantbench] wrote BENCH_quant.json");
    assert!(
        bit_speedup >= MIN_ONEBIT_SCORE_SPEEDUP,
        "1-bit scoring is only {bit_speedup:.2}x f32 at D={top_dim}; \
         expected at least {MIN_ONEBIT_SCORE_SPEEDUP}x"
    );
}
