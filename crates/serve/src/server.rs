//! The TCP serving front-end: connection handlers feeding one micro-batch
//! queue over the persistent worker pool, hardened for adverse conditions.
//!
//! Architecture (one box per thread kind):
//!
//! ```text
//!  clients ──► accept thread ──► handler thread per connection
//!                                   │  parse frame (wire.rs)
//!                                   │  validate feature count
//!                                   ▼
//!                        admission-controlled batch queue
//!                       (queue_depth bound: shed or block)
//!                                   ▼
//!                  batcher thread: size/deadline micro-batching
//!                (max_batch / max_wait — the EngineConfig policy)
//!                     │ deadline sweep · degrade controller
//!                                   ▼
//!            Pipeline::predict_batch_with_confidence_chunked
//!          (fan-out on the persistent boosthd::pool, on the tier
//!              the degrade ladder currently points at)
//!                                   ▼
//!              per-request reply channels ──► handler writes
//!
//!  watchdog thread: pool repair · flush-stall detection · model checksum
//! ```
//!
//! **Admission control.** Each predict request is admitted to the batch
//! queue only while the queue holds fewer than
//! [`ServerTuning::queue_depth`] pending rows. Past the bound the server
//! either *sheds* (answers a structured `shed` error carrying
//! `retry_after_ms` — open-loop clients keep their latency tails honest)
//! or *blocks* the connection's reader until space frees (closed-loop
//! clients get natural TCP backpressure); see [`Backpressure`].
//!
//! **Deadlines.** A request may carry `deadline_ms` (or inherit
//! [`ServerTuning::deadline_ms`]): its maximum *queue age*. The batcher
//! sweeps expired requests out of the queue at every flush-composition
//! point and answers them `deadline_exceeded` without scoring — a request
//! that already missed its deadline must not waste pool capacity. Socket
//! read/write timeouts ([`ServerTuning::read_timeout_ms`]) kill
//! slow-loris connections: a peer that stalls *mid-frame* (or stops
//! draining its replies) is disconnected, while an idle connection
//! between frames waits indefinitely.
//!
//! **Degrade ladder.** With [`DegradeConfig::enabled`], `bind` builds
//! quantized siblings of the model at startup — f32 → int8
//! (`quantize_i8()`) → 1-bit (`quantize()`) — and a hysteresis controller
//! in the batcher walks that ladder: queue depth at flush time at or above
//! [`DegradeConfig::high_depth`] for [`DegradeConfig::degrade_after`]
//! consecutive flushes steps one tier *down* (cheaper, lower-fidelity
//! scoring); depth at or below [`DegradeConfig::low_depth`] for
//! [`DegradeConfig::recover_after`] consecutive flushes steps back *up*.
//! Every predict reply names the tier that served it (`"tier"`). The
//! ladder's predictions are bit-identical to the corresponding standalone
//! quantized pipeline: the siblings are built by the same refit-free
//! `quantize_i8()` / `quantize()` calls. Beyond the last tier there is
//! nothing left to degrade to — admission control sheds, with
//! `retry_after_ms` telling clients when to come back.
//!
//! **Runtime self-checks.** The `health` wire command scores a pinned
//! canary window (deterministic pseudo-rows generated at bind, expected
//! classes recorded from the pristine model) and verifies an FNV-1a
//! checksum of every tier's live parameters against its bind-time BHDP
//! envelope; a mismatch — an SEU on the live model — triggers an atomic
//! reload from the pinned envelope bytes before the canary is scored. The
//! same verification runs periodically when
//! [`ServerTuning::model_check_interval_ms`] is non-zero.
//!
//! **Watchdog.** A supervisor thread (period
//! [`ServerTuning::watchdog_interval_ms`]) proactively replaces dead pool
//! workers ([`boosthd::pool::WorkerPool::repair`]) so a corpse never
//! delays the next flush, and counts flushes that stall past twice the
//! watchdog period (`watchdog_stalls`) — the observable symptom of a
//! stalled (not dead) worker, which the pool's caller-helps-execute
//! protocol works around.
//!
//! **Graceful drain.** A shutdown — wire `{"cmd":"shutdown"}` or
//! [`Server::request_shutdown`] — stops the accept loop and admission of
//! *new* work, while the batcher flushes every admitted request and every
//! handler writes every pending reply before sockets close: zero in-flight
//! requests are dropped (pinned by an integration test). The drain is
//! *bounded* by [`ServerTuning::drain_deadline_ms`]: a wedged batcher or
//! connection past the deadline is force-aborted (queued requests answer
//! an `internal` error, sockets close both halves, `aborted_drains` is
//! counted) instead of hanging the caller forever.
//!
//! **Model fleet.** [`Server::bind_with_fleet`] attaches a
//! [`boosthd::fleet::Fleet`] registry: predict frames carrying `"model"`
//! pin an `Arc` snapshot of the named model at admission and are flushed
//! in per-snapshot groups (never mixing models or versions in one
//! scoring batch); replies echo the model and serving version. Hot-swap
//! = append a new version to the store + [`Fleet::refresh`]; LRU
//! eviction under memory pressure re-admits transparently on the next
//! request.
//!
//! **Fault containment.** Protocol errors answer a descriptive error frame
//! carrying a stable [`crate::wire::ErrorCode`] tag and never touch other
//! connections; a worker-pool panic is isolated and the worker replaced
//! ([`boosthd::pool`]); a handler that dies with requests in flight only
//! discards its own replies (the batcher's sends to a dropped channel are
//! ignored).

use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use boosthd::fleet::{Fleet, FleetModel};
use boosthd::{BoostHd, ModelSpec, OnlineHd, Pipeline, Prediction};
use linalg::{Matrix, Rng64};

use crate::wire::{
    duration_to_wire_ms, error_response, error_response_retry, escape_json, ok_response,
    predict_response_fleet, read_frame, ErrorCode, Request, WireError, DEFAULT_MAX_FRAME_BYTES,
};
use crate::EngineConfig;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// What to do with a predict request that arrives while the batch queue is
/// at its [`ServerTuning::queue_depth`] bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Answer a structured `shed` error (with `retry_after_ms`)
    /// immediately and drop the request — the open-loop-friendly default
    /// (the client sees the overload instead of an unbounded queueing
    /// delay).
    #[default]
    Shed,
    /// Block this connection's reader until the queue has space — TCP
    /// backpressure for closed-loop clients.
    Block,
}

impl Backpressure {
    /// Stable lowercase tag (CLI flags, spec files).
    pub fn tag(self) -> &'static str {
        match self {
            Backpressure::Shed => "shed",
            Backpressure::Block => "block",
        }
    }

    /// Parses a tag produced by [`Backpressure::tag`].
    pub fn from_tag(tag: &str) -> Option<Backpressure> {
        match tag {
            "shed" => Some(Backpressure::Shed),
            "block" => Some(Backpressure::Block),
            _ => None,
        }
    }
}

/// Hysteresis thresholds for the degraded-mode quantization ladder; see
/// the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeConfig {
    /// Build the quantized siblings at bind and let the batcher walk the
    /// ladder. Off by default: fidelity never silently changes unless the
    /// operator opted in.
    pub enabled: bool,
    /// Flush-time queue depth at or above this counts as an overloaded
    /// flush.
    pub high_depth: usize,
    /// Flush-time queue depth at or below this counts as a calm flush.
    pub low_depth: usize,
    /// Consecutive overloaded flushes before stepping one tier down.
    pub degrade_after: u32,
    /// Consecutive calm flushes before stepping one tier back up.
    pub recover_after: u32,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            high_depth: 64,
            low_depth: 8,
            degrade_after: 3,
            recover_after: 3,
        }
    }
}

/// Server-side knobs beyond the micro-batching policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerTuning {
    /// Maximum pending (admitted, un-flushed) predict requests before
    /// admission control engages.
    pub queue_depth: usize,
    /// Reaction once `queue_depth` is reached.
    pub backpressure: Backpressure,
    /// Per-frame byte cap ([`crate::wire`] framing).
    pub max_frame_bytes: usize,
    /// Default maximum queue age (ms) for requests that do not carry their
    /// own `deadline_ms`; `None` = unbounded.
    pub deadline_ms: Option<u64>,
    /// Socket read/write timeout (ms) guarding against slow-loris peers: a
    /// connection that stalls mid-frame (or stops draining replies) for
    /// this long is closed. `0` disables the timeouts. Idle connections
    /// *between* frames are unaffected.
    pub read_timeout_ms: u64,
    /// The `retry_after_ms` hint carried by `shed` replies.
    pub retry_after_ms: u64,
    /// Upper bound (ms) on the shutdown drain before wedged work is
    /// force-aborted; see the [module docs](self).
    pub drain_deadline_ms: u64,
    /// The degraded-mode ladder controller.
    pub degrade: DegradeConfig,
    /// Period (ms) of the periodic live-model checksum; `0` (default)
    /// checks only on the `health` command.
    pub model_check_interval_ms: u64,
    /// Watchdog period (ms): pool repair + flush-stall detection. `0`
    /// disables the watchdog thread.
    pub watchdog_interval_ms: u64,
    /// Rows in the pinned canary window the `health` command scores.
    pub canary_rows: usize,
}

impl Default for ServerTuning {
    fn default() -> Self {
        Self {
            queue_depth: 1024,
            backpressure: Backpressure::default(),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            deadline_ms: None,
            read_timeout_ms: 30_000,
            retry_after_ms: 50,
            drain_deadline_ms: 5_000,
            degrade: DegradeConfig::default(),
            model_check_interval_ms: 0,
            watchdog_interval_ms: 200,
            canary_rows: 8,
        }
    }
}

/// Full server configuration: the engine micro-batch policy plus the
/// server tuning.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerConfig {
    /// Micro-batching (`max_batch`, `max_wait`, `threads`) — the
    /// same policy the in-process [`crate::InferenceEngine`] applies.
    pub engine: EngineConfig,
    /// Queue bound, backpressure mode, frame cap, deadlines, degrade
    /// ladder, watchdog.
    pub tuning: ServerTuning,
}

/// Declares [`ServerStats`], its atomic twin and the snapshot between
/// them from one counter list. The `{"cmd":"stats"}` frame is built from
/// [`ServerStats::counters`], so no counter can be missing from it.
macro_rules! server_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Monotonic counters exported by `{"cmd":"stats"}` and
        /// [`Server::stats`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct ServerStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl ServerStats {
            /// Every counter as `(name, value)`, in declaration order —
            /// the keys of the `{"cmd":"stats"}` frame.
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }
        }

        #[derive(Default)]
        struct AtomicStats {
            $($name: AtomicU64,)*
        }

        impl AtomicStats {
            fn snapshot(&self) -> ServerStats {
                ServerStats {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

server_counters! {
    /// Connections accepted.
    connections,
    /// Predict requests admitted to the queue.
    admitted,
    /// Predict requests answered with a prediction.
    answered,
    /// Predict requests shed by admission control (`shed` taxonomy code).
    shed,
    /// Frames rejected as malformed / bad requests / oversized (aggregate
    /// of `bad_frame` + `oversized` + `wrong_width`).
    protocol_errors,
    /// Micro-batches flushed.
    batches,
    /// `bad_frame` taxonomy replies (malformed JSON, unrecognized shape,
    /// mid-frame disconnects and slow-loris stalls).
    bad_frame,
    /// `oversized` taxonomy replies (frame cap exceeded).
    oversized,
    /// `wrong_width` taxonomy replies (feature-count mismatch).
    wrong_width,
    /// `deadline_exceeded` taxonomy replies (queue age beat the flush).
    deadline_exceeded,
    /// `internal` taxonomy replies (server-side faults, force-aborts).
    internal,
    /// `unknown_model` taxonomy replies (fleet routing to a model that
    /// is not in the registry's store, or no fleet is attached).
    unknown_model,
    /// Degrade-ladder steps down (toward cheaper tiers).
    degrade_steps,
    /// Degrade-ladder steps up (recovery toward full fidelity).
    recover_steps,
    /// Dead pool workers the watchdog replaced proactively.
    watchdog_repairs,
    /// Flushes the watchdog observed stalling past twice its period.
    watchdog_stalls,
    /// Atomic model reloads after a checksum mismatch (SEU detection).
    model_reloads,
    /// Canary windows scored by the `health` command.
    canary_checks,
    /// Canary windows whose classes diverged from the pinned expectation.
    canary_failures,
    /// Drains that hit [`ServerTuning::drain_deadline_ms`] and
    /// force-aborted wedged work.
    aborted_drains,
}

impl AtomicStats {
    /// Bumps the per-code taxonomy counter (and the `protocol_errors`
    /// aggregate for the frame-level codes).
    fn count_error(&self, code: ErrorCode) {
        match code {
            ErrorCode::BadFrame => {
                self.bad_frame.fetch_add(1, Ordering::Relaxed);
                self.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
            ErrorCode::Oversized => {
                self.oversized.fetch_add(1, Ordering::Relaxed);
                self.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
            ErrorCode::WrongWidth => {
                self.wrong_width.fetch_add(1, Ordering::Relaxed);
                self.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
            ErrorCode::Shed => {
                self.shed.fetch_add(1, Ordering::Relaxed);
            }
            ErrorCode::DeadlineExceeded => {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            ErrorCode::Internal => {
                self.internal.fetch_add(1, Ordering::Relaxed);
            }
            ErrorCode::UnknownModel => {
                self.unknown_model.fetch_add(1, Ordering::Relaxed);
                self.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Optional per-row transform applied at admission (e.g. the training
/// split's fitted normalizer), so clients send raw window features.
pub type RowPrep = dyn Fn(Vec<f32>) -> Vec<f32> + Send + Sync;

/// How the batcher resolved one admitted request.
enum BatchOutcome {
    /// Scored on the named ladder tier.
    Predicted {
        prediction: Prediction,
        tier: &'static str,
        /// `(model_id, version)` when a fleet model served the request.
        fleet: Option<(String, u64)>,
    },
    /// Queue age exceeded the request deadline before a flush reached it.
    DeadlineExceeded { waited_ms: u64 },
}

struct PendingRequest {
    row: Vec<f32>,
    reply: mpsc::Sender<BatchOutcome>,
    admitted: Instant,
    deadline: Option<Duration>,
    /// The fleet snapshot pinned at admission (`None`: the default
    /// model). Holding the `Arc` here is what makes hot-swap safe: a
    /// swap or eviction between admission and flush cannot invalidate
    /// this request's model.
    fleet_model: Option<Arc<FleetModel>>,
}

/// One rung of the quantization ladder: the live model plus everything
/// needed to detect corruption and restore it.
struct TierEntry {
    /// Stable tier tag carried on predict replies (`f32`, `int8`,
    /// `binary`, ...).
    tag: &'static str,
    /// The live model. Swapped atomically (write lock) on reload or chaos
    /// corruption; flushes clone the `Arc` and predict lock-free.
    model: RwLock<Arc<Pipeline>>,
    /// BHDP envelope bytes pinned at bind — the reload source.
    pristine: Option<Vec<u8>>,
    /// FNV-1a checksum of `pristine`.
    checksum: u64,
    /// Canary classes recorded from the pristine model at bind.
    canary_expected: Vec<usize>,
}

/// Outcome of one runtime self-check ([`Server::health_check`] / the
/// `health` wire command).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// `"ok"`, `"recovered"` (a checksum mismatch was repaired by an
    /// atomic reload), or `"degraded"` (the ladder is below full
    /// fidelity).
    pub status: String,
    /// The tier currently serving predictions.
    pub tier: String,
    /// Whether the active tier's canary window scored the pinned classes.
    pub canary_ok: bool,
    /// Whether every tier's live checksum matched at check time (before
    /// any reload this check performed).
    pub checksum_ok: bool,
    /// Tiers atomically reloaded by this check.
    pub reloaded: u64,
}

struct Inner {
    prep: Option<Box<RowPrep>>,
    expected_features: usize,
    config: ServerConfig,
    threads: usize,
    /// The quantization ladder; index 0 is full fidelity.
    tiers: Vec<TierEntry>,
    /// The model-fleet registry, when this server routes `"model"`
    /// frames ([`Server::bind_with_fleet`]).
    fleet: Option<Arc<Fleet>>,
    /// Index into `tiers` the next flush will score on.
    active_tier: AtomicUsize,
    /// The pinned canary window (empty when canaries are disabled).
    canary: Option<Matrix>,
    queue: Mutex<VecDeque<PendingRequest>>,
    /// Batcher waits here for work; handlers signal on enqueue.
    work_ready: Condvar,
    /// Blocked handlers ([`Backpressure::Block`]) wait here for space.
    space_ready: Condvar,
    stats: AtomicStats,
    shutting_down: AtomicBool,
    /// Chaos/test seam: a paused batcher composes no batches (admission
    /// continues), so tests can engineer exact queue states.
    batcher_paused: AtomicBool,
    /// Set when the drain deadline fired: wedged work must abort.
    force_abort: AtomicBool,
    /// Latched true by the batcher on exit; the bounded drain waits here.
    batcher_done: (Mutex<bool>, Condvar),
    /// Start instant of the flush currently on the pool (stall watchdog).
    flush_started: Mutex<Option<Instant>>,
    /// `wait()` blocks on this pair until someone requests shutdown.
    shutdown_requested: (Mutex<bool>, Condvar),
    addr: SocketAddr,
    /// Live connection streams, so drain can unblock parked readers.
    conns: Mutex<Vec<TcpStream>>,
}

impl Inner {
    fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    fn request_shutdown(&self) {
        let (flag, cv) = &self.shutdown_requested;
        *lock(flag) = true;
        cv.notify_all();
    }

    fn active_tier_tag(&self) -> &'static str {
        self.tiers[self.active_tier.load(Ordering::Relaxed)].tag
    }

    /// Verifies every tier's live checksum; a mismatch triggers an atomic
    /// reload from the pinned envelope. Returns `(all_matched_before,
    /// reloads_performed)`. Idempotent and race-free: the reload decision
    /// is re-checked under the write lock, so concurrent checkers repair a
    /// given corruption exactly once.
    fn verify_checksums(&self) -> (bool, u64) {
        let mut all_ok = true;
        let mut reloaded = 0u64;
        for tier in &self.tiers {
            let Some(pristine) = tier.pristine.as_ref() else {
                continue; // unserializable model: no checksum protection
            };
            let live = Arc::clone(&tier.model.read().unwrap_or_else(|e| e.into_inner()));
            let matches = live
                .to_bytes()
                .map(|b| fnv1a64(&b) == tier.checksum)
                .unwrap_or(false);
            if matches {
                continue;
            }
            all_ok = false;
            let mut w = tier.model.write().unwrap_or_else(|e| e.into_inner());
            let still_bad = !w
                .to_bytes()
                .map(|b| fnv1a64(&b) == tier.checksum)
                .unwrap_or(false);
            if still_bad {
                if let Ok(fresh) = Pipeline::from_bytes(pristine) {
                    *w = Arc::new(fresh);
                    self.stats.model_reloads.fetch_add(1, Ordering::Relaxed);
                    reloaded += 1;
                }
            }
        }
        (all_ok, reloaded)
    }

    /// The full runtime self-check: checksum verification (with repair)
    /// first, then the canary window on the active tier — so a corrupted
    /// model is restored *before* it is scored.
    fn health_check(&self) -> HealthReport {
        let (checksum_ok, reloaded) = self.verify_checksums();
        let tier_idx = self.active_tier.load(Ordering::Relaxed);
        let tier = &self.tiers[tier_idx];
        let canary_ok = match &self.canary {
            None => true,
            Some(x) => {
                self.stats.canary_checks.fetch_add(1, Ordering::Relaxed);
                let model = Arc::clone(&tier.model.read().unwrap_or_else(|e| e.into_inner()));
                let classes: Vec<usize> = model
                    .predict_batch_with_confidence_chunked(x, self.threads, self.config.engine.exec)
                    .into_iter()
                    .map(|p| p.class)
                    .collect();
                let ok = classes == tier.canary_expected;
                if !ok {
                    self.stats.canary_failures.fetch_add(1, Ordering::Relaxed);
                }
                ok
            }
        };
        let status = if tier_idx > 0 {
            "degraded"
        } else if reloaded > 0 {
            "recovered"
        } else if canary_ok && checksum_ok {
            "ok"
        } else {
            "failing"
        };
        HealthReport {
            status: status.to_string(),
            tier: tier.tag.to_string(),
            canary_ok,
            checksum_ok,
            reloaded,
        }
    }
}

/// FNV-1a over the serialized model — cheap, deterministic, and any
/// single-bit flip in the parameters changes it.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The stable tier tag for the model a pipeline was built from.
fn base_tier_tag(spec: &ModelSpec) -> &'static str {
    match spec {
        ModelSpec::OnlineHd(_) | ModelSpec::CentroidHd(_) | ModelSpec::BoostHd(_) => "f32",
        ModelSpec::QuantizedI8OnlineHd { .. } | ModelSpec::QuantizedI8BoostHd { .. } => "int8",
        ModelSpec::QuantizedOnlineHd { .. } | ModelSpec::QuantizedBoostHd { .. } => "binary",
        ModelSpec::Baseline(_) => "baseline",
    }
}

/// Builds the degrade ladder: the pipeline itself, then refit-free
/// quantized siblings where the model family supports them (dense
/// OnlineHD/BoostHD → int8 → 1-bit). Other families serve a one-rung
/// ladder.
fn build_ladder(pipeline: &Arc<Pipeline>, degrade_enabled: bool) -> Vec<(&'static str, Pipeline)> {
    let mut tiers: Vec<(&'static str, Pipeline)> = vec![(
        base_tier_tag(pipeline.spec()),
        Pipeline::clone(pipeline.as_ref()),
    )];
    if !degrade_enabled {
        return tiers;
    }
    let threshold = pipeline.abstain_threshold();
    match pipeline.spec().clone() {
        ModelSpec::OnlineHd(cfg) => {
            if let Some(m) = pipeline.downcast_ref::<OnlineHd>() {
                tiers.push((
                    "int8",
                    Pipeline::from_model(
                        ModelSpec::QuantizedI8OnlineHd {
                            base: cfg,
                            refit_epochs: 0,
                        },
                        Box::new(m.quantize_i8()),
                    )
                    .with_abstain_threshold(threshold),
                ));
                tiers.push((
                    "binary",
                    Pipeline::from_model(
                        ModelSpec::QuantizedOnlineHd {
                            base: cfg,
                            refit_epochs: 0,
                        },
                        Box::new(m.quantize()),
                    )
                    .with_abstain_threshold(threshold),
                ));
            }
        }
        ModelSpec::BoostHd(cfg) => {
            if let Some(m) = pipeline.downcast_ref::<BoostHd>() {
                tiers.push((
                    "int8",
                    Pipeline::from_model(
                        ModelSpec::QuantizedI8BoostHd {
                            base: cfg,
                            refit_epochs: 0,
                        },
                        Box::new(m.quantize_i8()),
                    )
                    .with_abstain_threshold(threshold),
                ));
                tiers.push((
                    "binary",
                    Pipeline::from_model(
                        ModelSpec::QuantizedBoostHd {
                            base: cfg,
                            refit_epochs: 0,
                        },
                        Box::new(m.quantize()),
                    )
                    .with_abstain_threshold(threshold),
                ));
            }
        }
        _ => {}
    }
    tiers
}

/// Refit-free degrade-ladder siblings of a fitted pipeline, most precise
/// first (dense OnlineHD/BoostHD → int8 → 1-bit; other families a single
/// rung). This is the tier set `hdrun fleet add --ladder` publishes under
/// one `(model_id, version)` so the whole ladder hot-swaps as one unit.
pub fn fleet_ladder(pipeline: &Arc<Pipeline>) -> Vec<Pipeline> {
    build_ladder(pipeline, true)
        .into_iter()
        .map(|(_, model)| model)
        .collect()
}

/// Seed of the deterministic pseudo-row canary window (fixed: the canary
/// must be identical across restarts for pinned expectations to be
/// meaningful).
const CANARY_SEED: u64 = 0xCA9A_527E_ED01;

fn canary_matrix(features: usize, rows: usize) -> Option<Matrix> {
    if features == 0 || rows == 0 {
        return None;
    }
    let mut rng = Rng64::seed_from(CANARY_SEED);
    let rows: Vec<Vec<f32>> = (0..rows)
        .map(|_| (0..features).map(|_| rng.uniform_in(-1.5, 1.5)).collect())
        .collect();
    Matrix::from_rows(&rows).ok()
}

/// A running network serving front-end; see the [module docs](self).
///
/// Dropping the handle drains and joins the server
/// ([`Server::shutdown_and_join`] semantics, bounded by
/// [`ServerTuning::drain_deadline_ms`]).
pub struct Server {
    inner: Arc<Inner>,
    accept_thread: Option<JoinHandle<()>>,
    batcher_thread: Option<JoinHandle<()>>,
    watchdog_thread: Option<JoinHandle<()>>,
    handler_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    joined: bool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.inner.addr)
            .field("stats", &self.inner.stats.snapshot())
            .finish()
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, or port `0` for an ephemeral
    /// port) and starts the accept, handler, batcher, and watchdog
    /// threads. With [`DegradeConfig::enabled`] the quantized ladder
    /// siblings are built here, and every tier's envelope bytes, checksum,
    /// and canary expectations are pinned for the runtime self-checks.
    ///
    /// `expected_features` is the feature-vector length every predict
    /// request must carry; `prep` optionally maps each admitted raw row
    /// into the model's input space (fitted normalizer).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(
        pipeline: Arc<Pipeline>,
        expected_features: usize,
        addr: &str,
        config: ServerConfig,
        prep: Option<Box<RowPrep>>,
    ) -> std::io::Result<Server> {
        Self::bind_with_fleet(pipeline, expected_features, addr, config, prep, None)
    }

    /// [`Server::bind`] with a model-fleet registry attached: predict
    /// frames carrying `"model"` are routed through `fleet`
    /// ([`boosthd::fleet::Fleet`]) — each request pins an `Arc` snapshot
    /// of the named model at admission, flushes are partitioned per
    /// snapshot (no batch ever mixes models or versions), and replies
    /// echo the model and the version that served them. Frames without
    /// `"model"` serve on `pipeline` exactly as [`Server::bind`].
    ///
    /// The caller keeps its own `Arc<Fleet>` handle: appending a new
    /// version to the store and calling [`Fleet::refresh`] hot-swaps the
    /// model under live traffic with zero failed requests (in-flight
    /// snapshots drain on the old version).
    ///
    /// All fleet models must share the server's `expected_features`
    /// width — one feature extractor per serving endpoint.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_with_fleet(
        pipeline: Arc<Pipeline>,
        expected_features: usize,
        addr: &str,
        config: ServerConfig,
        prep: Option<Box<RowPrep>>,
        fleet: Option<Arc<Fleet>>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let threads = config
            .engine
            .threads
            .unwrap_or_else(boosthd::parallel::default_threads)
            .max(1);
        let canary = canary_matrix(expected_features, config.tuning.canary_rows);
        let tiers: Vec<TierEntry> = build_ladder(&pipeline, config.tuning.degrade.enabled)
            .into_iter()
            .map(|(tag, model)| {
                let pristine = model.to_bytes().ok();
                let checksum = pristine.as_deref().map(fnv1a64).unwrap_or(0);
                let canary_expected = canary
                    .as_ref()
                    .map(|x| {
                        model
                            .predict_batch_with_confidence_chunked(x, threads, config.engine.exec)
                            .into_iter()
                            .map(|p| p.class)
                            .collect()
                    })
                    .unwrap_or_default();
                TierEntry {
                    tag,
                    model: RwLock::new(Arc::new(model)),
                    pristine,
                    checksum,
                    canary_expected,
                }
            })
            .collect();
        let inner = Arc::new(Inner {
            prep,
            expected_features,
            config,
            threads,
            tiers,
            fleet,
            active_tier: AtomicUsize::new(0),
            canary,
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
            stats: AtomicStats::default(),
            shutting_down: AtomicBool::new(false),
            batcher_paused: AtomicBool::new(false),
            force_abort: AtomicBool::new(false),
            batcher_done: (Mutex::new(false), Condvar::new()),
            flush_started: Mutex::new(None),
            shutdown_requested: (Mutex::new(false), Condvar::new()),
            addr: local,
            conns: Mutex::new(Vec::new()),
        });

        let handler_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_inner = Arc::clone(&inner);
        let accept_handlers = Arc::clone(&handler_threads);
        let accept_thread = std::thread::Builder::new()
            .name("hdc-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_inner, accept_handlers))
            .expect("spawn accept thread");

        let batch_inner = Arc::clone(&inner);
        let batcher_thread = std::thread::Builder::new()
            .name("hdc-serve-batcher".into())
            .spawn(move || {
                batcher_loop(&batch_inner);
                let (flag, cv) = &batch_inner.batcher_done;
                *lock(flag) = true;
                cv.notify_all();
            })
            .expect("spawn batcher thread");

        let watchdog_thread = if config.tuning.watchdog_interval_ms > 0 {
            let dog_inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("hdc-serve-watchdog".into())
                    .spawn(move || watchdog_loop(&dog_inner))
                    .expect("spawn watchdog thread"),
            )
        } else {
            None
        };

        Ok(Server {
            inner,
            accept_thread: Some(accept_thread),
            batcher_thread: Some(batcher_thread),
            watchdog_thread,
            handler_threads,
            joined: false,
        })
    }

    /// The actually bound address (resolves port `0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats.snapshot()
    }

    /// The tier tag the next flush will serve on (`"f32"` at full
    /// fidelity).
    pub fn current_tier(&self) -> &'static str {
        self.inner.active_tier_tag()
    }

    /// Admitted-but-unflushed requests right now.
    pub fn queue_len(&self) -> usize {
        lock(&self.inner.queue).len()
    }

    /// Runs the runtime self-check (checksums with atomic repair, then the
    /// canary window) — the same path as the `health` wire command.
    pub fn health_check(&self) -> HealthReport {
        self.inner.health_check()
    }

    /// Chaos/test seam: holds the batcher before its next batch
    /// composition. Admission (and shedding) continues, so tests can
    /// engineer exact queue states deterministically. Pair with
    /// [`Server::resume_batcher`].
    pub fn pause_batcher(&self) {
        self.inner.batcher_paused.store(true, Ordering::SeqCst);
        self.inner.work_ready.notify_all();
    }

    /// Releases [`Server::pause_batcher`].
    pub fn resume_batcher(&self) {
        self.inner.batcher_paused.store(false, Ordering::SeqCst);
        self.inner.work_ready.notify_all();
    }

    /// Chaos/test seam: flips each bit of the *live* full-fidelity model
    /// with probability `p_b` (seeded — deterministic), simulating an SEU
    /// on serving memory. Returns the number of bits flipped. The pinned
    /// envelope and checksum are untouched, so the next self-check detects
    /// and repairs the corruption.
    pub fn corrupt_live_model(&self, p_b: f64, seed: u64) -> usize {
        let tier = &self.inner.tiers[0];
        let mut w = tier.model.write().unwrap_or_else(|e| e.into_inner());
        let mut corrupted = Pipeline::clone(w.as_ref());
        let mut rng = Rng64::seed_from(seed);
        match corrupted.inject_bitflips(p_b, &mut rng) {
            Ok(report) => {
                *w = Arc::new(corrupted);
                report.flipped
            }
            Err(_) => 0,
        }
    }

    /// Flags the server for graceful drain without blocking (the wire
    /// `shutdown` command calls the same path). Pair with
    /// [`Server::shutdown_and_join`] or [`Server::wait`].
    pub fn request_shutdown(&self) {
        self.inner.request_shutdown();
    }

    /// Blocks until a shutdown is requested (wire command or another
    /// thread), then drains and joins. This is `hdrun serve --listen`'s
    /// main loop.
    pub fn wait(mut self) -> ServerStats {
        self.block_until_shutdown_requested();
        self.drain_and_join()
    }

    /// Requests shutdown, then drains and joins: stops accepting, flushes
    /// every admitted request, answers it, closes sockets, joins all
    /// threads. No in-flight request is dropped — unless the drain exceeds
    /// [`ServerTuning::drain_deadline_ms`], at which point wedged work is
    /// force-aborted (see the [module docs](self)).
    pub fn shutdown_and_join(mut self) -> ServerStats {
        self.inner.request_shutdown();
        self.drain_and_join()
    }

    fn block_until_shutdown_requested(&self) {
        let (flag, cv) = &self.inner.shutdown_requested;
        let mut requested = lock(flag);
        while !*requested {
            requested = cv.wait(requested).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn drain_and_join(&mut self) -> ServerStats {
        if self.joined {
            return self.inner.stats.snapshot();
        }
        self.joined = true;
        let drain_deadline = Instant::now()
            + Duration::from_millis(self.inner.config.tuning.drain_deadline_ms.max(1));
        // 1. Stop admission + accept.
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        self.inner.request_shutdown();
        self.inner.work_ready.notify_all();
        self.inner.space_ready.notify_all();
        // Unblock the accept loop with a wake-up connection.
        let _ = TcpStream::connect(self.inner.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // 2. Batcher drains every admitted request — bounded by the drain
        // deadline.
        let drained = self.wait_batcher_done(drain_deadline);
        if drained {
            if let Some(h) = self.batcher_thread.take() {
                let _ = h.join();
            }
        } else {
            // The drain deadline fired with the batcher wedged (a stalled
            // flush, or a chaos pause never released): force-abort. Queued
            // requests resolve by dropping their reply senders; handlers
            // answer an `internal` error and exit.
            self.inner
                .stats
                .aborted_drains
                .fetch_add(1, Ordering::Relaxed);
            self.inner.force_abort.store(true, Ordering::SeqCst);
            self.inner.work_ready.notify_all();
            let abandoned: Vec<PendingRequest> = lock(&self.inner.queue).drain(..).collect();
            drop(abandoned);
            self.inner.space_ready.notify_all();
            // One grace window for the batcher to notice the abort; a
            // flush genuinely stuck on the pool cannot be joined — leak it
            // rather than hang the caller.
            let grace = Instant::now() + Duration::from_millis(250);
            if self.wait_batcher_done(grace) {
                if let Some(h) = self.batcher_thread.take() {
                    let _ = h.join();
                }
            } else {
                let _ = self.batcher_thread.take();
            }
        }
        // 3. Handlers: the batcher has resolved every admitted request,
        // but handlers may still be writing those replies out. Shut down
        // only the READ half of each connection: parked readers wake with
        // EOF and exit, while the write half stays open so every pending
        // reply still reaches its client.
        for stream in lock(&self.inner.conns).iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let handlers: Vec<JoinHandle<()>> = lock(&self.handler_threads).drain(..).collect();
        for h in handlers {
            let _ = h.join();
        }
        // 4. The watchdog wakes within its own period and sees the flag.
        if let Some(h) = self.watchdog_thread.take() {
            let _ = h.join();
        }
        self.inner.stats.snapshot()
    }

    /// Waits for the batcher-exit latch until `deadline`; `true` when the
    /// batcher finished.
    fn wait_batcher_done(&self, deadline: Instant) -> bool {
        let (flag, cv) = &self.inner.batcher_done;
        let mut done = lock(flag);
        while !*done {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (d, _timeout) = cv
                .wait_timeout(done, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            done = d;
        }
        true
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.request_shutdown();
        self.drain_and_join();
    }
}

fn accept_loop(
    listener: TcpListener,
    inner: Arc<Inner>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if inner.is_shutting_down() {
            break; // the drain wake-up connection lands here
        }
        let Ok(stream) = stream else { continue };
        inner.stats.connections.fetch_add(1, Ordering::Relaxed);
        stream.set_nodelay(true).ok();
        let timeout_ms = inner.config.tuning.read_timeout_ms;
        if timeout_ms > 0 {
            // Slow-loris guards: a peer stalling mid-frame, or refusing to
            // drain its replies, gets disconnected instead of pinning this
            // handler forever. (Idle BETWEEN frames stays legal: read_frame
            // swallows timeouts while its buffer is empty.)
            let t = Duration::from_millis(timeout_ms);
            stream.set_read_timeout(Some(t)).ok();
            stream.set_write_timeout(Some(t)).ok();
        }
        if let Ok(clone) = stream.try_clone() {
            lock(&inner.conns).push(clone);
        }
        let conn_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("hdc-serve-conn".into())
            .spawn(move || handle_connection(stream, conn_inner))
            .expect("spawn connection handler");
        lock(&handlers).push(handle);
    }
}

/// One connection: read frames, answer in request order.
fn handle_connection(stream: TcpStream, inner: Arc<Inner>) {
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let max_frame = inner.config.tuning.max_frame_bytes;

    loop {
        let frame = match read_frame(&mut reader, max_frame) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean close
            Err(e @ WireError::FrameTooLarge { .. }) => {
                // Framing is lost: report and close.
                inner.stats.count_error(ErrorCode::Oversized);
                let _ = writeln!(
                    writer,
                    "{}",
                    error_response(None, ErrorCode::Oversized, &e.to_string())
                );
                let _ = writer.shutdown(Shutdown::Both);
                return;
            }
            Err(e @ WireError::Stalled) => {
                // Slow-loris: mid-frame stall past the read timeout.
                inner.stats.count_error(ErrorCode::BadFrame);
                let _ = writeln!(
                    writer,
                    "{}",
                    error_response(None, ErrorCode::BadFrame, &e.to_string())
                );
                let _ = writer.shutdown(Shutdown::Both);
                return;
            }
            Err(WireError::Io(_)) => return, // mid-stream disconnect
            Err(e) => {
                // Mid-frame EOF / non-UTF-8: answer if the socket is still
                // writable, then close (the stream state is unknown).
                inner.stats.count_error(ErrorCode::BadFrame);
                let _ = writeln!(
                    writer,
                    "{}",
                    error_response(None, ErrorCode::BadFrame, &e.to_string())
                );
                return;
            }
        };
        match Request::parse(&frame) {
            Err(e) => {
                // Parse errors keep the connection: framing is intact.
                inner.stats.count_error(ErrorCode::BadFrame);
                if writeln!(
                    writer,
                    "{}",
                    error_response(None, ErrorCode::BadFrame, &e.to_string())
                )
                .is_err()
                {
                    return;
                }
            }
            Ok(Request::Ping) => {
                if writeln!(writer, "{}", ok_response("pong")).is_err() {
                    return;
                }
            }
            Ok(Request::Stats) => {
                let frame = stats_frame(&inner);
                if writeln!(writer, "{frame}").is_err() {
                    return;
                }
            }
            Ok(Request::Health) => {
                let report = inner.health_check();
                let frame = format!(
                    "{{\"ok\":\"health\",\"status\":\"{}\",\"tier\":\"{}\",\"canary_ok\":{},\"checksum_ok\":{},\"reloaded\":{}}}",
                    escape_json(&report.status),
                    escape_json(&report.tier),
                    report.canary_ok,
                    report.checksum_ok,
                    report.reloaded,
                );
                if writeln!(writer, "{frame}").is_err() {
                    return;
                }
            }
            Ok(Request::Shutdown) => {
                let _ = writeln!(writer, "{}", ok_response("shutdown"));
                inner.request_shutdown();
                return;
            }
            Ok(Request::Predict {
                id,
                features,
                deadline_ms,
                model,
            }) => {
                if !answer_predict(&inner, &mut writer, id, features, deadline_ms, model) {
                    return;
                }
            }
        }
    }
}

/// The `{"cmd":"stats"}` reply: every [`ServerStats`] counter, then the
/// ladder and queue gauges.
fn stats_frame(inner: &Inner) -> String {
    let mut frame = String::from("{\"ok\":\"stats\"");
    for (name, value) in inner.stats.snapshot().counters() {
        frame.push_str(&format!(",\"{name}\":{value}"));
    }
    frame.push_str(&format!(
        ",\"tier\":\"{}\",\"queue_depth\":{}}}",
        inner.active_tier_tag(),
        lock(&inner.queue).len()
    ));
    frame
}

/// Admits one predict request, waits for its reply, writes it. Returns
/// `false` when the connection should close.
fn answer_predict(
    inner: &Inner,
    writer: &mut TcpStream,
    id: u64,
    features: Vec<f32>,
    deadline_ms: Option<u64>,
    model: Option<String>,
) -> bool {
    // Fleet routing resolves FIRST: the request pins its model snapshot
    // before admission, so nothing between here and the flush — not a
    // hot-swap, not an LRU eviction — can change which version answers.
    let fleet_model: Option<Arc<FleetModel>> = match model {
        None => None,
        Some(name) => {
            let resolved = inner
                .fleet
                .as_deref()
                .ok_or_else(|| "this server serves no model fleet".to_string())
                .and_then(|fleet| fleet.get(&name).map_err(|e| e.to_string()));
            match resolved {
                Ok(m) => Some(m),
                Err(msg) => {
                    inner.stats.count_error(ErrorCode::UnknownModel);
                    return writeln!(
                        writer,
                        "{}",
                        error_response(Some(id), ErrorCode::UnknownModel, &msg)
                    )
                    .is_ok();
                }
            }
        }
    };
    if features.len() != inner.expected_features {
        inner.stats.count_error(ErrorCode::WrongWidth);
        let msg = format!(
            "feature count mismatch: got {}, model expects {}",
            features.len(),
            inner.expected_features
        );
        return writeln!(
            writer,
            "{}",
            error_response(Some(id), ErrorCode::WrongWidth, &msg)
        )
        .is_ok();
    }
    if inner.is_shutting_down() {
        inner.stats.count_error(ErrorCode::Shed);
        let msg = "server is shutting down";
        return writeln!(
            writer,
            "{}",
            error_response_retry(
                Some(id),
                ErrorCode::Shed,
                msg,
                inner.config.tuning.retry_after_ms
            )
        )
        .is_ok();
    }
    let row = match &inner.prep {
        Some(prep) => prep(features),
        None => features,
    };
    let deadline = deadline_ms
        .or(inner.config.tuning.deadline_ms)
        .map(Duration::from_millis);
    let (tx, rx) = mpsc::channel();
    {
        let mut queue = lock(&inner.queue);
        if queue.len() >= inner.config.tuning.queue_depth {
            match inner.config.tuning.backpressure {
                Backpressure::Shed => {
                    drop(queue);
                    inner.stats.count_error(ErrorCode::Shed);
                    let msg = format!(
                        "overloaded: queue depth {} reached; request shed",
                        inner.config.tuning.queue_depth
                    );
                    return writeln!(
                        writer,
                        "{}",
                        error_response_retry(
                            Some(id),
                            ErrorCode::Shed,
                            &msg,
                            inner.config.tuning.retry_after_ms
                        )
                    )
                    .is_ok();
                }
                Backpressure::Block => {
                    while queue.len() >= inner.config.tuning.queue_depth
                        && !inner.is_shutting_down()
                    {
                        queue = inner
                            .space_ready
                            .wait(queue)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
        }
        queue.push_back(PendingRequest {
            row,
            reply: tx,
            admitted: Instant::now(),
            deadline,
            fleet_model,
        });
        inner.stats.admitted.fetch_add(1, Ordering::Relaxed);
    }
    inner.work_ready.notify_all();
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(BatchOutcome::Predicted {
                prediction,
                tier,
                fleet,
            }) => {
                inner.stats.answered.fetch_add(1, Ordering::Relaxed);
                let frame = predict_response_fleet(
                    id,
                    &prediction,
                    tier,
                    fleet.as_ref().map(|(m, v)| (m.as_str(), *v)),
                );
                return writeln!(writer, "{frame}").is_ok();
            }
            Ok(BatchOutcome::DeadlineExceeded { waited_ms }) => {
                inner.stats.count_error(ErrorCode::DeadlineExceeded);
                let msg = format!("deadline exceeded after {waited_ms}ms in queue; not scored");
                return writeln!(
                    writer,
                    "{}",
                    error_response(Some(id), ErrorCode::DeadlineExceeded, &msg)
                )
                .is_ok();
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if inner.force_abort.load(Ordering::SeqCst) {
                    // The bounded drain gave up on the batcher; answer
                    // rather than hang.
                    inner.stats.count_error(ErrorCode::Internal);
                    let msg = "internal error: drain deadline aborted the request";
                    let _ = writeln!(
                        writer,
                        "{}",
                        error_response(Some(id), ErrorCode::Internal, msg)
                    );
                    return false;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Batcher gone without answering — only possible on a
                // catastrophic internal error or a force-abort; report
                // rather than hang.
                inner.stats.count_error(ErrorCode::Internal);
                let msg = "internal error: batcher dropped the request";
                let _ = writeln!(
                    writer,
                    "{}",
                    error_response(Some(id), ErrorCode::Internal, msg)
                );
                return false;
            }
        }
    }
}

/// Sweeps deadline-expired requests out of the queue, answering each
/// `deadline_exceeded` through its reply channel — a request that already
/// missed its deadline must not waste flush capacity. Returns how many
/// were swept.
fn sweep_expired(queue: &mut VecDeque<PendingRequest>) -> usize {
    let now = Instant::now();
    let mut swept = 0;
    let mut i = 0;
    while i < queue.len() {
        let expired = queue[i]
            .deadline
            .is_some_and(|d| now.duration_since(queue[i].admitted) >= d);
        if expired {
            if let Some(req) = queue.remove(i) {
                let waited_ms = duration_to_wire_ms(now.duration_since(req.admitted));
                let _ = req.reply.send(BatchOutcome::DeadlineExceeded { waited_ms });
                swept += 1;
            }
        } else {
            i += 1;
        }
    }
    swept
}

/// The micro-batcher: applies the `max_batch` / `max_wait` policy over the
/// shared queue, sweeps deadline-expired requests at every composition
/// point, walks the degrade ladder by queue-depth hysteresis, and flushes
/// through the pool-backed confidence path on the active tier. On shutdown
/// it drains everything admitted before exiting (unless force-aborted by
/// the bounded drain).
fn batcher_loop(inner: &Arc<Inner>) {
    let max_batch = inner.config.engine.max_batch.max(1);
    let max_wait = inner.config.engine.max_wait;
    let degrade = inner.config.tuning.degrade;
    // Hysteresis state: consecutive overloaded / calm flushes.
    let mut hot_flushes = 0u32;
    let mut calm_flushes = 0u32;
    loop {
        if inner.force_abort.load(Ordering::SeqCst) {
            return;
        }
        let (batch, depth_at_flush): (Vec<PendingRequest>, usize) = {
            let mut queue = lock(&inner.queue);
            let deadline: Option<Instant> = loop {
                if inner.force_abort.load(Ordering::SeqCst) {
                    return;
                }
                if inner.batcher_paused.load(Ordering::SeqCst) {
                    // Chaos hold: compose nothing (admission continues).
                    queue = inner
                        .work_ready
                        .wait_timeout(queue, Duration::from_millis(20))
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                    continue;
                }
                if sweep_expired(&mut queue) > 0 {
                    inner.space_ready.notify_all();
                }
                if queue.len() >= max_batch {
                    break None; // full batch: flush now
                }
                if inner.is_shutting_down() {
                    if queue.is_empty() {
                        return; // drained: exit
                    }
                    break None; // flush the remainder
                }
                if queue.is_empty() {
                    queue = inner
                        .work_ready
                        .wait(queue)
                        .unwrap_or_else(|e| e.into_inner());
                    continue;
                }
                // Non-empty, non-full: flush once the oldest admitted
                // request has waited max_wait, counted from its admission
                // (not from now: requests that queued up during a flush
                // or a pause have already spent part of their wait).
                break queue.front().map(|oldest| oldest.admitted + max_wait);
            };
            if let Some(deadline) = deadline {
                loop {
                    if inner.force_abort.load(Ordering::SeqCst) {
                        return;
                    }
                    let now = Instant::now();
                    if queue.len() >= max_batch
                        || now >= deadline
                        || inner.is_shutting_down()
                        || inner.batcher_paused.load(Ordering::SeqCst)
                    {
                        break;
                    }
                    let (q, _timeout) = inner
                        .work_ready
                        .wait_timeout(queue, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    queue = q;
                }
                if inner.batcher_paused.load(Ordering::SeqCst) {
                    continue; // re-enter the pause gate without composing
                }
                if sweep_expired(&mut queue) > 0 {
                    inner.space_ready.notify_all();
                }
            }
            let depth = queue.len();
            let take = depth.min(max_batch);
            (queue.drain(..take).collect(), depth)
        };
        inner.space_ready.notify_all();
        if batch.is_empty() {
            continue;
        }
        // Degrade controller: hysteresis on flush-time queue depth. The
        // decision lands before this flush, so a step-down already serves
        // the current batch on the cheaper tier.
        if degrade.enabled && inner.tiers.len() > 1 {
            let mut active = inner.active_tier.load(Ordering::Relaxed);
            if depth_at_flush >= degrade.high_depth {
                hot_flushes += 1;
                calm_flushes = 0;
                if hot_flushes >= degrade.degrade_after.max(1) && active + 1 < inner.tiers.len() {
                    active += 1;
                    inner.active_tier.store(active, Ordering::Relaxed);
                    inner.stats.degrade_steps.fetch_add(1, Ordering::Relaxed);
                    hot_flushes = 0;
                }
            } else if depth_at_flush <= degrade.low_depth {
                calm_flushes += 1;
                hot_flushes = 0;
                if calm_flushes >= degrade.recover_after.max(1) && active > 0 {
                    active -= 1;
                    inner.active_tier.store(active, Ordering::Relaxed);
                    inner.stats.recover_steps.fetch_add(1, Ordering::Relaxed);
                    calm_flushes = 0;
                }
            } else {
                hot_flushes = 0;
                calm_flushes = 0;
            }
        }
        // Partition the composed batch by serving model: the default
        // ladder plus one group per distinct fleet snapshot. Grouping is
        // by `Arc` identity, so requests admitted across a hot-swap land
        // in separate groups — a flush never mixes model versions, and
        // each group scores on exactly the snapshot its requests pinned.
        let mut groups: Vec<(Option<Arc<FleetModel>>, Vec<PendingRequest>)> = Vec::new();
        for request in batch {
            let key = request.fleet_model.as_ref().map(Arc::as_ptr);
            match groups
                .iter_mut()
                .find(|(m, _)| m.as_ref().map(Arc::as_ptr) == key)
            {
                Some((_, members)) => members.push(request),
                None => groups.push((request.fleet_model.clone(), vec![request])),
            }
        }
        let active = inner.active_tier.load(Ordering::Relaxed);
        inner.stats.batches.fetch_add(1, Ordering::Relaxed);
        for (fleet_model, group) in groups {
            // Fleet models walk the same degrade ladder index as the
            // default model, clamped to the tiers they actually ship.
            let (model, tier_tag, fleet_info): (
                Arc<Pipeline>,
                &'static str,
                Option<(String, u64)>,
            ) = match &fleet_model {
                Some(fm) => {
                    let p = Arc::clone(fm.tier(active));
                    (
                        Arc::clone(&p),
                        base_tier_tag(p.spec()),
                        Some((fm.model_id().to_string(), fm.version())),
                    )
                }
                None => {
                    let tier = &inner.tiers[active];
                    (
                        Arc::clone(&tier.model.read().unwrap_or_else(|e| e.into_inner())),
                        tier.tag,
                        None,
                    )
                }
            };
            let rows: Vec<Vec<f32>> = group.iter().map(|r| r.row.clone()).collect();
            let x =
                Matrix::from_rows(&rows).expect("admitted rows share the validated feature width");
            *lock(&inner.flush_started) = Some(Instant::now());
            let predictions = model.predict_batch_with_confidence_chunked(
                &x,
                inner.threads,
                inner.config.engine.exec,
            );
            *lock(&inner.flush_started) = None;
            for (request, prediction) in group.into_iter().zip(predictions) {
                // A send error means the handler/connection died
                // mid-flight; the prediction is simply discarded.
                let _ = request.reply.send(BatchOutcome::Predicted {
                    prediction,
                    tier: tier_tag,
                    fleet: fleet_info.clone(),
                });
            }
        }
    }
}

/// The supervisor: proactive pool repair, flush-stall detection, and the
/// optional periodic model checksum. Exits when the server shuts down.
fn watchdog_loop(inner: &Arc<Inner>) {
    let interval = Duration::from_millis(inner.config.tuning.watchdog_interval_ms.max(1));
    let stall_after = interval * 2;
    let check_every = inner.config.tuning.model_check_interval_ms;
    let mut last_model_check = Instant::now();
    let mut stalled_flush: Option<Instant> = None;
    while !inner.is_shutting_down() {
        std::thread::sleep(interval);
        // Dead workers are replaced before the next flush needs them (the
        // pool would also self-heal lazily mid-fanout; proactive repair
        // removes that latency from the serving path).
        let repaired = boosthd::pool::global().repair() as u64;
        if repaired > 0 {
            inner
                .stats
                .watchdog_repairs
                .fetch_add(repaired, Ordering::Relaxed);
        }
        // A flush still running after two periods is stalled (a held
        // worker, not a dead one — repair can't fix it, the pool's
        // help-execute protocol eventually completes it). Count each stall
        // once.
        let started = *lock(&inner.flush_started);
        match started {
            Some(t0) if t0.elapsed() >= stall_after => {
                if stalled_flush != Some(t0) {
                    stalled_flush = Some(t0);
                    inner.stats.watchdog_stalls.fetch_add(1, Ordering::Relaxed);
                }
            }
            _ => stalled_flush = None,
        }
        if check_every > 0 && last_model_check.elapsed() >= Duration::from_millis(check_every) {
            last_model_check = Instant::now();
            inner.verify_checksums();
        }
    }
}
