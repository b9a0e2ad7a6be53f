//! The traced replay: each layer's public entry point timed on the
//! workload's own model, rows and request stream.

use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

use boosthd::parallel::ExecBackend;
use boosthd::{BoostHd, Fleet, FleetConfig, OnlineHd, Pipeline, Prediction};
use boosthd_serve::wire::{predict_response_fleet, Reply, Request};
use boosthd_serve::{EngineConfig, InferenceEngine};
use hdc::{Encode, SinusoidEncoder};
use linalg::Matrix;

use crate::deploy::{QueryPool, MAX_RESIDENT};
use crate::plan::NO_PATIENT;
use crate::stats::{median, percentile_sorted};
use crate::trace::Tracer;

/// Timing rounds per measurement; the median round is reported.
const ROUNDS: usize = 7;
/// Target length of one timing round.
const ROUND: Duration = Duration::from_millis(25);

/// Median ns per call of `f`, each round inside one `name` span.
fn ns_per_call(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let probe = Instant::now();
    f();
    let once = probe.elapsed().max(Duration::from_nanos(50));
    let iters = (ROUND.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as usize;
    let mut per_call = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let end = Instant::now();
        tracer.record(name, 0, 0, start, end);
        per_call.push((end - start).as_nanos() as f64 / iters as f64);
    }
    median(&per_call)
}

/// Rows per timed batch: the server's `max_batch`.
const BATCH: usize = 32;

/// The compute layers, fastest first.
#[derive(Debug, Clone, Copy, Default)]
pub struct Compute {
    /// `Matrix::matmul_transposed` of an encoded 32-row chunk against
    /// every class memory of the model, as its batched scoring calls it,
    /// ns/row.
    pub score_ns_per_row: f64,
    /// Bytes one scored row reads: every class memory plus the encoded
    /// row.
    pub bytes_per_row: f64,
    /// `SinusoidEncoder::encode_row`, ns.
    pub encode_ns_b1: f64,
    /// `SinusoidEncoder::encode_batch_into` on 32 rows, ns/row.
    pub encode_ns_b32: f64,
    /// `Pipeline::predict_with_confidence`, us.
    pub predict_us_b1: f64,
    /// `Pipeline::predict_batch_with_confidence` on 32 rows, ns/row.
    pub predict_ns_b32: f64,
    /// An empty `WorkerPool::scoped_map` over the serving thread count, us.
    pub pool_dispatch_us: f64,
    /// `predict_batch_with_confidence_chunked` on 32 rows over the pool,
    /// ns/row (the server's flush call).
    pub flush_ns_b32: f64,
}

/// The served model's encoder and class memories, each with the columns
/// of the encoded row it scores: one `K x D/N_L` segment per BoostHD
/// learner, or OnlineHD's whole `K x D` memory.
fn class_memories(model: &Pipeline) -> (&SinusoidEncoder, Vec<(Range<usize>, &Matrix)>) {
    if let Some(boost) = model.downcast_ref::<BoostHd>() {
        let memories = (0..boost.num_learners())
            .map(|i| {
                let classes = boost.learner_class_hypervectors(i);
                let segment = boost.partition().segment(i);
                assert_eq!(segment.len(), classes.cols(), "learner {i} segment");
                (segment, classes)
            })
            .collect();
        (boost.encoder(), memories)
    } else if let Some(online) = model.downcast_ref::<OnlineHd>() {
        (
            online.encoder(),
            vec![(0..online.dim(), online.class_hypervectors())],
        )
    } else {
        panic!("served models are BoostHD or OnlineHD");
    }
}

/// Times the compute layers of `model` on `rows`.
pub fn compute(tracer: &mut Tracer, model: &Pipeline, rows: &Matrix, threads: usize) -> Compute {
    let (encoder, memories) = class_memories(model);
    let batch = batch_of(rows, BATCH);
    let mut encoded = Matrix::zeros(BATCH, encoder.dim());
    encoder.encode_batch_into(&batch, &mut encoded);
    let segments: Vec<(Matrix, &Matrix)> = memories
        .iter()
        .map(|(cols, classes)| (encoded.slice_columns(cols.start, cols.end), *classes))
        .collect();
    let score_ns_per_row = ns_per_call(tracer, "linalg.Matrix::matmul_transposed", || {
        for (z, classes) in &segments {
            black_box(black_box(z).matmul_transposed(classes));
        }
    }) / BATCH as f64;
    let memory_floats: usize = memories.iter().map(|(_, c)| c.rows() * c.cols()).sum();

    let one = rows.row(0);
    let encode_ns_b1 = ns_per_call(tracer, "hdc.encoder.encode_row", || {
        black_box(encoder.encode_row(black_box(one)));
    });
    let encode_ns_b32 = ns_per_call(tracer, "hdc.encoder.encode_batch_into", || {
        encoder.encode_batch_into(black_box(&batch), &mut encoded);
        black_box(&encoded);
    }) / BATCH as f64;

    let predict_us_b1 = ns_per_call(tracer, "boosthd.pipeline.predict_with_confidence", || {
        black_box(model.predict_with_confidence(black_box(one)));
    }) / 1e3;
    let predict_ns_b32 = ns_per_call(
        tracer,
        "boosthd.pipeline.predict_batch_with_confidence",
        || {
            black_box(model.predict_batch_with_confidence(black_box(&batch)));
        },
    ) / BATCH as f64;

    let pool = boosthd::pool::global();
    let pool_dispatch_us = ns_per_call(tracer, "boosthd.pool.scoped_map", || {
        black_box(pool.scoped_map(threads, threads, black_box));
    }) / 1e3;
    let flush_ns_b32 = ns_per_call(
        tracer,
        "boosthd.pipeline.predict_batch_with_confidence_chunked",
        || {
            black_box(model.predict_batch_with_confidence_chunked(
                black_box(&batch),
                threads,
                ExecBackend::Pooled,
            ));
        },
    ) / BATCH as f64;

    Compute {
        score_ns_per_row,
        bytes_per_row: (4 * (memory_floats + encoder.dim())) as f64,
        encode_ns_b1,
        encode_ns_b32,
        predict_us_b1,
        predict_ns_b32,
        pool_dispatch_us,
        flush_ns_b32,
    }
}

/// The first `n` rows of `rows`, cycling if it has fewer.
pub fn batch_of(rows: &Matrix, n: usize) -> Matrix {
    let picked: Vec<usize> = (0..n).map(|i| i % rows.rows()).collect();
    rows.select_rows(&picked)
}

/// The in-process micro-batcher at the server's flush policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine {
    /// Rows per second through `InferenceEngine::serve`.
    pub rows_per_s: f64,
    /// Mean rows per flush.
    pub batch_rows_mean: f64,
}

/// Streams `n` pool rows through `InferenceEngine::serve` with the
/// server's `max_batch` / `max_wait`, three times; reports the median.
pub fn engine(tracer: &mut Tracer, model: &Pipeline, pool: &QueryPool, n: usize) -> Engine {
    let config = EngineConfig {
        max_batch: 32,
        max_wait: Duration::from_millis(5),
        threads: None,
        exec: ExecBackend::Pooled,
    };
    let engine = InferenceEngine::with_config(model, config);
    let mut rates = Vec::new();
    let mut batch = 0.0;
    for _ in 0..3 {
        let source = (0..n).map(|i| pool.rows[i % pool.rows.len()].clone());
        let outcome = tracer.span("serve.engine.serve", 0, 0, || engine.serve(source));
        rates.push(outcome.stats.rows_per_sec);
        batch = outcome.stats.mean_batch;
    }
    Engine {
        rows_per_s: median(&rates),
        batch_rows_mean: batch,
    }
}

/// The wire codec on the workload's own frames.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wire {
    /// `Request::parse` of one predict frame, ns.
    pub parse_ns: f64,
    /// `predict_response_fleet` of one reply, ns.
    pub serialize_ns: f64,
    /// `Reply::parse` of one reply frame, ns.
    pub reply_parse_ns: f64,
    /// Mean predict frame size including its newline, bytes.
    pub frame_bytes: f64,
}

/// A predict frame as `Client::send_predict` / `send_predict_model`
/// writes it (id, optional model, features in `f32` display form).
pub fn predict_frame(id: u64, model: Option<&str>, features: &[f32]) -> String {
    let mut frame = format!("{{\"id\":{id}");
    if let Some(m) = model {
        frame.push_str(&format!(",\"model\":\"{m}\""));
    }
    frame.push_str(",\"features\":[");
    for (i, f) in features.iter().enumerate() {
        if i > 0 {
            frame.push(',');
        }
        frame.push_str(&format!("{f}"));
    }
    frame.push_str("]}");
    frame
}

/// Times the codec over `requests` `(row, patient)` pairs of the stream.
pub fn wire(tracer: &mut Tracer, pool: &QueryPool, requests: &[(u32, u32)]) -> Wire {
    let name =
        |patient: u32| (patient != NO_PATIENT).then(|| pool.patients[patient as usize].as_str());
    let frames: Vec<String> = requests
        .iter()
        .enumerate()
        .map(|(i, &(row, patient))| {
            predict_frame(i as u64, name(patient), &pool.rows[row as usize])
        })
        .collect();
    let expected: Vec<&Prediction> = requests
        .iter()
        .map(|&(row, patient)| {
            let version = (patient != NO_PATIENT).then_some(1);
            pool.expected(row as usize, version)
                .expect("expected prediction")
        })
        .collect();
    let replies: Vec<String> = requests
        .iter()
        .zip(&expected)
        .enumerate()
        .map(|(i, (&(_, patient), p))| {
            predict_response_fleet(i as u64, p, "f32", name(patient).map(|m| (m, 1)))
        })
        .collect();
    let n = frames.len() as f64;
    let parse_ns = ns_per_call(tracer, "serve.wire.Request::parse", || {
        for f in &frames {
            black_box(Request::parse(black_box(f)).expect("valid frame"));
        }
    }) / n;
    let serialize_ns = ns_per_call(tracer, "serve.wire.predict_response_fleet", || {
        for (i, (&(_, patient), p)) in requests.iter().zip(&expected).enumerate() {
            black_box(predict_response_fleet(
                i as u64,
                black_box(p),
                "f32",
                name(patient).map(|m| (m, 1)),
            ));
        }
    }) / n;
    let reply_parse_ns = ns_per_call(tracer, "serve.wire.Reply::parse", || {
        for r in &replies {
            black_box(Reply::parse(black_box(r)).expect("valid reply"));
        }
    }) / n;
    Wire {
        parse_ns,
        serialize_ns,
        reply_parse_ns,
        frame_bytes: frames.iter().map(|f| f.len() + 1).sum::<usize>() as f64 / n,
    }
}

/// The fleet registry replayed on the served Zipf patient sequence.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetReplay {
    /// Share of `Fleet::get` calls served from residency.
    pub hit_ratio: f64,
    /// Median resident `Fleet::get`, us.
    pub hit_us: f64,
    /// Median `Fleet::get` that re-admits from disk, ms.
    pub readmit_p50_ms: f64,
    /// p99 of the same.
    pub readmit_p99_ms: f64,
    /// Misses that evicted a resident model.
    pub evictions: f64,
}

/// Replays `patients` through a fresh registry over the store at `path`
/// with the served residency cap.
pub fn fleet(tracer: &mut Tracer, path: &Path, names: &[String], patients: &[u32]) -> FleetReplay {
    let fleet = Fleet::open(
        path,
        FleetConfig {
            max_resident: MAX_RESIDENT,
        },
    )
    .expect("open the store for replay");
    let mut hits_us = Vec::new();
    let mut readmits_ms = Vec::new();
    let mut evictions = 0usize;
    let mut resident: Vec<String> = Vec::new();
    for &p in patients {
        let name = &names[p as usize];
        let before = fleet.resident_count();
        let was_resident = resident.binary_search(name).is_ok();
        let start = Instant::now();
        let got = fleet.get(name).expect("replayed patient is published");
        let end = Instant::now();
        black_box(got);
        let us = (end - start).as_secs_f64() * 1e6;
        if was_resident {
            tracer.record("fleet.Fleet::get.hit", 0, 0, start, end);
            hits_us.push(us);
        } else {
            tracer.record("fleet.Fleet::get.readmit", 0, 0, start, end);
            readmits_ms.push(us / 1e3);
            if fleet.resident_count() <= before {
                evictions += 1;
            }
            resident = fleet.resident().into_iter().map(|(id, _, _)| id).collect();
        }
    }
    readmits_ms.sort_by(f64::total_cmp);
    let pct = |q: f64| {
        if readmits_ms.is_empty() {
            0.0
        } else {
            percentile_sorted(&readmits_ms, q)
        }
    };
    FleetReplay {
        hit_ratio: hits_us.len() as f64 / patients.len().max(1) as f64,
        hit_us: if hits_us.is_empty() {
            0.0
        } else {
            median(&hits_us)
        },
        readmit_p50_ms: pct(50.0),
        readmit_p99_ms: pct(99.0),
        evictions: evictions as f64,
    }
}
