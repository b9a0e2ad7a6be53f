//! Batched streaming inference: the serving path for continuous health
//! monitoring.
//!
//! The training/evaluation crates predict over materialized datasets; a
//! deployed monitor instead sees an endless trickle of preprocessed windows
//! (one per wearer per hop) and must answer each within a latency budget.
//! [`InferenceEngine`] bridges the two worlds:
//!
//! 1. **Micro-batching** — incoming requests are buffered until either
//!    [`EngineConfig::max_batch`] requests are pending or the oldest has
//!    waited [`EngineConfig::max_wait`] (deadline checked as each request
//!    arrives — see [`EngineConfig::max_wait`]), then flushed as one batch
//!    through the model's fused `predict_batch` path (HDTorch's
//!    observation: HDC encode/inference as dense matrix ops is the
//!    dominant throughput lever).
//! 2. **Thread fan-out** — each flushed batch is split into contiguous
//!    chunks predicted on the persistent worker [`pool`]
//!    ([`boosthd::classifier::predict_batch_chunked`]), with the width
//!    taken from [`boosthd::parallel::default_threads`] (`HDC_THREADS`
//!    overridable) unless pinned in the config.
//! 3. **Latency accounting** — every request's enqueue→response time is
//!    recorded and summarized as `p50/p95/p99` tails
//!    ([`eval_harness::timing::LatencySummary`]), alongside aggregate
//!    rows/sec.
//!
//! Because every batched kernel in the stack is bit-identical to its
//! row-at-a-time counterpart, serving through the engine returns exactly
//! the predictions `model.predict` would have produced one window at a
//! time — only faster.
//!
//! The engine is generic over [`boosthd::Classifier`], so it serves any
//! [`boosthd::Pipeline`]-built model directly — one spec file away from
//! swapping the deployed family (see the `hdrun` CLI). For
//! reliability-gated serving, pair the engine's predictions with
//! [`boosthd::Pipeline::predict_batch_with_confidence`] and an abstention
//! threshold.
//!
//! # Example
//!
//! ```
//! use boosthd::{CentroidHd, CentroidHdConfig};
//! use boosthd_serve::{EngineConfig, InferenceEngine};
//! use linalg::{Matrix, Rng64};
//!
//! let mut rng = Rng64::seed_from(1);
//! let x = Matrix::random_uniform(40, 4, -1.0, 1.0, &mut rng);
//! let y: Vec<usize> = (0..40).map(|i| i % 2).collect();
//! let model = CentroidHd::fit(
//!     &CentroidHdConfig { dim: 128, ..Default::default() }, &x, &y)?;
//!
//! let engine = InferenceEngine::with_config(
//!     &model,
//!     EngineConfig { max_batch: 16, ..EngineConfig::default() },
//! );
//! let outcome = engine.serve((0..x.rows()).map(|r| x.row(r).to_vec()));
//! assert_eq!(outcome.predictions.len(), 40);
//! assert!(outcome.stats.batches >= 3); // 40 requests / max_batch 16
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod server;
pub mod wire;

/// The persistent worker pool the engine's flush fan-out runs on — a
/// re-export of [`boosthd::pool`] so serving-side callers (benchmarks,
/// chaos tests, the network front-end) reach it without depending on the
/// core crate's module layout.
pub mod pool {
    pub use boosthd::pool::{global, in_pool_worker, WorkerPool};
}

/// The model-fleet registry and its append-only store — a re-export of
/// [`boosthd::fleet`] so serving-side callers (the network front-end,
/// `hdrun fleet`, the serving benchmark) build and route fleets without
/// depending on the core crate's module layout.
pub mod fleet {
    pub use boosthd::fleet::{Fleet, FleetConfig, FleetModel, ModelStore, StoreEntry};
}

use std::time::{Duration, Instant};

use boosthd::classifier::predict_batch_chunked;
use boosthd::parallel::{default_threads, ExecBackend};
use boosthd::Classifier;
use eval_harness::timing::LatencySummary;
use linalg::Matrix;
use wearables::streaming::StreamedWindow;

/// Micro-batching knobs for [`InferenceEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Flush as soon as this many requests are pending.
    pub max_batch: usize,
    /// Flush a non-full batch once the oldest pending request has waited
    /// this long — the tail-latency guard for trickling sources.
    ///
    /// The engine is a synchronous pull loop, so the deadline is evaluated
    /// when each request arrives (and everything pending is flushed when
    /// the source ends): a source that blocks mid-stream delays the
    /// requests already queued behind it until it yields again.
    pub max_wait: Duration,
    /// Worker threads per flush; `None` resolves
    /// [`boosthd::parallel::default_threads`] at engine construction
    /// (respecting `HDC_THREADS` / `set_default_threads`).
    pub threads: Option<usize>,
    /// Selects nothing: [`ExecBackend`] has the single variant
    /// [`ExecBackend::Pooled`], and every flush fans out on the persistent
    /// [`pool`] workers. The field is kept so existing callers compile.
    pub exec: ExecBackend,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_wait: Duration::from_millis(5),
            threads: None,
            exec: ExecBackend::Pooled,
        }
    }
}

/// Aggregate serving statistics for one [`InferenceEngine::serve`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStats {
    /// Requests answered.
    pub requests: usize,
    /// Batches flushed.
    pub batches: usize,
    /// Mean flushed batch size.
    pub mean_batch: f64,
    /// Wall-clock seconds from first pull to last response.
    pub elapsed_secs: f64,
    /// Requests per second over the whole run.
    pub rows_per_sec: f64,
    /// Per-request enqueue→response latency tails.
    pub latency: LatencySummary,
}

impl EngineStats {
    /// One-line human-readable report (latencies in the paper's `10⁻⁵ s`
    /// units).
    pub fn report(&self) -> String {
        format!(
            "{} requests in {} batches (mean {:.1}/batch) | {:.0} rows/s | latency {}",
            self.requests,
            self.batches,
            self.mean_batch,
            self.rows_per_sec,
            self.latency.format_tenth_millis()
        )
    }
}

/// Predictions plus serving statistics from one stream run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Predicted class per request, in arrival order.
    pub predictions: Vec<usize>,
    /// Aggregate throughput/latency statistics.
    pub stats: EngineStats,
}

/// A micro-batching, thread-fanning serving front end over any
/// [`Classifier`]; see the [module docs](self).
#[derive(Debug)]
pub struct InferenceEngine<'m, C: Classifier + Sync + ?Sized> {
    model: &'m C,
    config: EngineConfig,
    threads: usize,
}

impl<'m, C: Classifier + Sync + ?Sized> InferenceEngine<'m, C> {
    /// Wraps `model` with the default configuration.
    pub fn new(model: &'m C) -> Self {
        Self::with_config(model, EngineConfig::default())
    }

    /// Wraps `model` with an explicit configuration.
    pub fn with_config(model: &'m C, config: EngineConfig) -> Self {
        let threads = config.threads.unwrap_or_else(default_threads).max(1);
        Self {
            model,
            config,
            threads,
        }
    }

    /// The resolved worker-thread count every flush fans out over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Re-pins the worker-thread count (e.g. for thread-scaling sweeps).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Predicts one already-materialized batch through the chunked
    /// thread-parallel path — the engine's flush primitive, exposed for
    /// callers that already hold a feature matrix.
    pub fn predict_batch(&self, x: &Matrix) -> Vec<usize> {
        predict_batch_chunked(self.model, x, self.threads)
    }

    /// Pulls feature rows off `source`, micro-batches them under the
    /// configured size/deadline policy, and returns every prediction in
    /// arrival order together with throughput and latency statistics.
    ///
    /// # Panics
    ///
    /// Panics if a yielded row's length disagrees with the model's expected
    /// feature count (surfaced by the underlying encoder).
    pub fn serve(&self, source: impl IntoIterator<Item = Vec<f32>>) -> ServeOutcome {
        self.serve_with_hook(source, &mut |_, _| {})
    }

    /// [`InferenceEngine::serve`] with a fault-injection hook: before each
    /// flushed batch is predicted, `hook(batch_index, features)` may mutate
    /// the materialized feature matrix in place — the seam the reliability
    /// campaign uses to corrupt live micro-batched traffic (sensor noise,
    /// spikes, dropped channels) and measure degradation mid-stream.
    ///
    /// Batch indices count flushes from 0 in arrival order, so a hook that
    /// derives its RNG from the batch index stays deterministic whenever
    /// batch composition is (pin `max_batch` and set a generous `max_wait`
    /// so flushes are size-triggered). The hook runs on the caller's
    /// thread, before the fan-out — worker count never affects what it
    /// sees.
    ///
    /// # Panics
    ///
    /// As [`InferenceEngine::serve`].
    pub fn serve_with_hook(
        &self,
        source: impl IntoIterator<Item = Vec<f32>>,
        hook: &mut dyn FnMut(usize, &mut Matrix),
    ) -> ServeOutcome {
        let started = Instant::now();
        let mut predictions = Vec::new();
        let mut latencies = Vec::new();
        let mut batches = 0usize;
        let mut pending: Vec<Vec<f32>> = Vec::with_capacity(self.config.max_batch);
        let mut arrivals: Vec<Instant> = Vec::with_capacity(self.config.max_batch);

        let mut flush = |pending: &mut Vec<Vec<f32>>, arrivals: &mut Vec<Instant>| {
            if pending.is_empty() {
                return;
            }
            let mut x = Matrix::from_rows(pending).expect("pending rows share one feature width");
            hook(batches, &mut x);
            predictions.extend(predict_batch_chunked(self.model, &x, self.threads));
            let done = Instant::now();
            latencies.extend(
                arrivals
                    .iter()
                    .map(|&arrived| done.duration_since(arrived).as_secs_f64()),
            );
            batches += 1;
            pending.clear();
            arrivals.clear();
        };

        for row in source {
            pending.push(row);
            arrivals.push(Instant::now());
            let deadline_hit = arrivals
                .first()
                .is_some_and(|first| first.elapsed() >= self.config.max_wait);
            if pending.len() >= self.config.max_batch.max(1) || deadline_hit {
                flush(&mut pending, &mut arrivals);
            }
        }
        flush(&mut pending, &mut arrivals);

        let elapsed_secs = started.elapsed().as_secs_f64();
        let requests = predictions.len();
        ServeOutcome {
            stats: EngineStats {
                requests,
                batches,
                mean_batch: if batches == 0 {
                    0.0
                } else {
                    requests as f64 / batches as f64
                },
                elapsed_secs,
                rows_per_sec: if elapsed_secs > 0.0 {
                    requests as f64 / elapsed_secs
                } else {
                    0.0
                },
                latency: LatencySummary::from_samples(&latencies),
            },
            predictions,
        }
    }

    /// [`InferenceEngine::serve`] over a wearables window stream: the
    /// end-to-end continuous-monitoring pipeline (subjects × signals →
    /// preprocess → window → micro-batch → classify). `normalize` maps each
    /// raw streamed feature vector into the model's input space — pass the
    /// training split's fitted
    /// [`wearables::preprocess::Normalizer::apply`]-equivalent closure.
    ///
    /// Windows are pulled lazily — each is normalized and enqueued as the
    /// micro-batcher demands it, so window synthesis time counts toward
    /// the measured latencies exactly as wearable ingest would. The
    /// consumed windows are returned alongside the predictions so callers
    /// can score accuracy against labels.
    pub fn serve_windows(
        &self,
        source: impl IntoIterator<Item = StreamedWindow>,
        mut normalize: impl FnMut(&StreamedWindow) -> Vec<f32>,
    ) -> (Vec<StreamedWindow>, ServeOutcome) {
        let mut windows: Vec<StreamedWindow> = Vec::new();
        let outcome = self.serve(source.into_iter().map(|w| {
            let features = normalize(&w);
            windows.push(w);
            features
        }));
        (windows, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boosthd::{CentroidHd, CentroidHdConfig, OnlineHd, OnlineHdConfig};
    use linalg::Rng64;

    fn blobs(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = Rng64::seed_from(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let c = if class == 0 { -1.5 } else { 1.5 };
            rows.push(vec![c + 0.4 * rng.normal(), c + 0.4 * rng.normal()]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    fn model() -> (CentroidHd, Matrix) {
        let (x, y) = blobs(60, 1);
        let config = CentroidHdConfig {
            dim: 128,
            ..Default::default()
        };
        (CentroidHd::fit(&config, &x, &y).unwrap(), x)
    }

    #[test]
    fn served_predictions_match_direct_batch_predict() {
        let (m, x) = model();
        let engine = InferenceEngine::with_config(
            &m,
            EngineConfig {
                max_batch: 7, // deliberately not a divisor of 60
                threads: Some(3),
                ..Default::default()
            },
        );
        let outcome = engine.serve((0..x.rows()).map(|r| x.row(r).to_vec()));
        assert_eq!(outcome.predictions, m.predict_batch(&x));
        assert_eq!(outcome.stats.requests, 60);
        assert_eq!(outcome.stats.batches, 60usize.div_ceil(7));
        assert!(outcome.stats.rows_per_sec > 0.0);
        assert_eq!(outcome.stats.latency.count, 60);
        assert!(outcome.stats.latency.p50 <= outcome.stats.latency.p99);
    }

    #[test]
    fn engine_flush_is_thread_count_invariant() {
        let (x, y) = blobs(50, 2);
        let m = OnlineHd::fit(
            &OnlineHdConfig {
                dim: 256,
                epochs: 5,
                ..Default::default()
            },
            &x,
            &y,
        )
        .unwrap();
        let reference = m.predict_batch(&x);
        for threads in [1, 2, 5, 16] {
            let mut engine = InferenceEngine::new(&m);
            engine.set_threads(threads);
            assert_eq!(engine.predict_batch(&x), reference, "threads={threads}");
        }
    }

    #[test]
    fn zero_wait_flushes_every_request_alone() {
        let (m, x) = model();
        let engine = InferenceEngine::with_config(
            &m,
            EngineConfig {
                max_batch: 64,
                max_wait: Duration::ZERO,
                threads: Some(1),
                ..Default::default()
            },
        );
        let outcome = engine.serve((0..10).map(|r| x.row(r).to_vec()));
        assert_eq!(outcome.stats.batches, 10, "deadline 0 → no batching");
        assert_eq!(outcome.stats.mean_batch, 1.0);
    }

    #[test]
    fn serve_hook_sees_each_flush_and_can_corrupt_it() {
        let (m, x) = model();
        let engine = InferenceEngine::with_config(
            &m,
            EngineConfig {
                max_batch: 10,
                max_wait: Duration::from_secs(3600),
                threads: Some(2),
                ..Default::default()
            },
        );
        let mut seen: Vec<(usize, usize)> = Vec::new();
        let outcome =
            engine.serve_with_hook((0..30).map(|r| x.row(r).to_vec()), &mut |b, batch| {
                seen.push((b, batch.rows()));
            });
        assert_eq!(seen, vec![(0, 10), (1, 10), (2, 10)]);
        assert_eq!(
            outcome.predictions,
            m.predict_batch(&x.slice_rows(0, 30)),
            "a non-mutating hook must not change predictions"
        );

        // A hook that wipes one mid-stream batch corrupts exactly those
        // rows, leaving the surrounding batches untouched.
        let clean = outcome.predictions;
        let corrupted =
            engine.serve_with_hook((0..30).map(|r| x.row(r).to_vec()), &mut |b, batch| {
                if b == 1 {
                    for v in batch.as_mut_slice() {
                        *v = 0.0;
                    }
                }
            });
        assert_eq!(corrupted.predictions[..10], clean[..10]);
        assert_eq!(corrupted.predictions[20..], clean[20..]);
        let zero_row = vec![0.0f32; x.cols()];
        let wiped = m.predict(&zero_row);
        assert!(
            corrupted.predictions[10..20].iter().all(|&p| p == wiped),
            "wiped batch must predict as the all-zero row does"
        );
    }

    #[test]
    fn empty_stream_serves_nothing() {
        let (m, _) = model();
        let engine = InferenceEngine::new(&m);
        let outcome = engine.serve(std::iter::empty());
        assert!(outcome.predictions.is_empty());
        assert_eq!(outcome.stats.batches, 0);
        assert_eq!(outcome.stats.latency.count, 0);
    }

    #[test]
    fn threads_resolve_from_defaults_and_config() {
        let (m, _) = model();
        boosthd::parallel::set_default_threads(3);
        let engine = InferenceEngine::new(&m);
        assert_eq!(engine.threads(), 3);
        boosthd::parallel::set_default_threads(0);
        let pinned = InferenceEngine::with_config(
            &m,
            EngineConfig {
                threads: Some(7),
                ..Default::default()
            },
        );
        assert_eq!(pinned.threads(), 7);
    }

    #[test]
    fn engine_serves_pipeline_built_models() {
        use boosthd::{ModelSpec, Pipeline, QuantizedHd};

        let (x, y) = blobs(48, 7);
        let spec = ModelSpec::QuantizedOnlineHd {
            base: OnlineHdConfig {
                dim: 256,
                epochs: 4,
                ..Default::default()
            },
            refit_epochs: 1,
        };
        let pipeline = Pipeline::fit(&spec, &x, &y).unwrap();
        let engine = InferenceEngine::with_config(
            &pipeline,
            EngineConfig {
                max_batch: 11,
                threads: Some(2),
                ..Default::default()
            },
        );
        let outcome = engine.serve((0..x.rows()).map(|r| x.row(r).to_vec()));
        assert_eq!(outcome.predictions, pipeline.predict_batch(&x));
        assert!(pipeline.downcast_ref::<QuantizedHd>().is_some());
    }

    #[test]
    fn engine_serves_int8_pipeline_models() {
        use boosthd::{ModelSpec, Pipeline, QuantizedI8Hd};

        let (x, y) = blobs(48, 8);
        let spec = ModelSpec::QuantizedI8OnlineHd {
            base: OnlineHdConfig {
                dim: 256,
                epochs: 4,
                ..Default::default()
            },
            refit_epochs: 1,
        };
        let pipeline = Pipeline::fit(&spec, &x, &y).unwrap();
        let engine = InferenceEngine::with_config(
            &pipeline,
            EngineConfig {
                max_batch: 13,
                threads: Some(2),
                ..Default::default()
            },
        );
        let outcome = engine.serve((0..x.rows()).map(|r| x.row(r).to_vec()));
        assert_eq!(outcome.predictions, pipeline.predict_batch(&x));
        assert!(pipeline.downcast_ref::<QuantizedI8Hd>().is_some());
    }

    #[test]
    fn stats_report_mentions_throughput_and_tails() {
        let stats = EngineStats {
            requests: 1,
            batches: 1,
            mean_batch: 1.0,
            elapsed_secs: 0.5,
            rows_per_sec: 2.0,
            latency: LatencySummary::from_samples(&[0.001]),
        };
        let report = stats.report();
        assert!(report.contains("rows/s") && report.contains("p99"));
    }

    #[test]
    fn serve_windows_round_trips_the_wearable_stream() {
        use wearables::preprocess::Normalizer;
        use wearables::profiles::{self, DatasetProfile};
        use wearables::streaming::WindowStream;

        let profile = DatasetProfile {
            subjects: 4,
            windows_per_state: 6,
            window_samples: 160,
            ..profiles::wesad_like()
        };
        let data = profiles::generate(&profile, 21).unwrap();
        let normalizer = Normalizer::fit(data.features()).unwrap();
        let m = CentroidHd::fit(
            &CentroidHdConfig {
                dim: 512,
                ..Default::default()
            },
            &normalizer.apply(data.features()),
            data.labels(),
        )
        .unwrap();

        let stream = WindowStream::new(&profile, 160, 22).unwrap();
        let engine = InferenceEngine::with_config(
            &m,
            EngineConfig {
                max_batch: 16,
                threads: Some(2),
                ..Default::default()
            },
        );
        let (windows, outcome) = engine.serve_windows(stream, |w| {
            let row = Matrix::from_rows(std::slice::from_ref(&w.features)).unwrap();
            normalizer.apply(&row).row(0).to_vec()
        });
        assert_eq!(outcome.predictions.len(), windows.len());
        let correct = outcome
            .predictions
            .iter()
            .zip(&windows)
            .filter(|(p, w)| **p == w.state.label())
            .count();
        let acc = correct as f64 / windows.len() as f64;
        assert!(acc > 0.5, "served stream accuracy {acc} vs chance 0.33");
        assert!(outcome.stats.report().contains("requests"));
    }
}
