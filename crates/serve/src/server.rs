//! The TCP serving front-end: pipelined connections feeding one
//! micro-batch queue over the persistent worker pool, hardened for adverse
//! conditions.
//!
//! Architecture (one box per thread kind):
//!
//! ```text
//!  clients ──► accept thread ──► per connection: reader thread
//!                                   │  parse frame (wire.rs)
//!                                   │  validate feature count
//!                                   │  admit without waiting for replies
//!                                   ▼
//!                        admission-controlled batch queue
//!                       (queue_depth bound: shed or block)
//!                                   ▼
//!                  batcher thread: paced micro-batching
//!     (takes up to max_batch queued rows as soon as it is idle and its
//!      row budget holds a batch; the budget refills one batch per
//!                         2 · max_wait)
//!        │ deadline sweep · degrade controller · fleet snapshot resolve
//!                                   ▼
//!            Pipeline::predict_batch_with_confidence_chunked
//!          (fan-out on the persistent boosthd::pool, on the tier
//!              the degrade ladder currently points at)
//!                                   ▼
//!         per connection: writer thread (replies in completion order)
//!
//!  watchdog thread: pool repair · flush-stall detection · model checksum
//! ```
//!
//! **Pipelining.** A connection's reader admits every frame as it
//! arrives; it never waits for a reply. Every reply of the connection —
//! predictions, errors, control-command acknowledgements — goes through
//! one channel to the connection's writer, the only thread that writes
//! its socket. Replies therefore arrive in *completion* order, and
//! clients match them to requests by `id`. A reader stops reading once
//! its connection has [`ServerTuning::queue_depth`] replies not yet
//! written, so a client that sends without reading is held back by TCP
//! backpressure instead of growing server memory. A connection closes
//! only after it has written a reply for every frame it admitted.
//!
//! **Flush policy.** The batcher takes whatever is queued, up to
//! [`EngineConfig::max_batch`] rows, as soon as it is free and its row
//! budget holds a whole batch; each row it takes spends one. The budget
//! refills at `max_batch` rows per two [`EngineConfig::max_wait`] periods
//! (one for a batch to form, one for it to be scored) and holds at most
//! [`ServerTuning::queue_depth`] rows (never less than one batch).
//! Below that rate the budget stays full, every flush starts at once and
//! batch size follows load. At saturation the server answers `max_batch`
//! rows every `2 · max_wait` (3,200 rows/s at 32 rows and 5 ms): the
//! configuration sets the figure, not the share of CPU the host happens
//! to give the process, so saturated throughput is the same from run to
//! run, and the connection threads keep CPU to spare. A drain flushes
//! unpaced; `max_wait` of zero turns pacing off.
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
//! the model's [`Pipeline::ladder`] at startup — f32 → int8 → 1-bit for
//! dense OnlineHD and BoostHD, one rung otherwise — and a hysteresis
//! controller in the batcher walks that ladder: queue depth at flush
//! time at or above [`DegradeConfig::high_depth`] for
//! [`DegradeConfig::degrade_after`] consecutive flushes steps one tier
//! *down* (cheaper, lower-fidelity scoring); depth at or below
//! [`DegradeConfig::low_depth`] for [`DegradeConfig::recover_after`]
//! consecutive flushes steps back *up*.
//! Every predict reply names the tier that served it (`"tier"`). Each
//! rung is the model [`Pipeline::fit`] builds for the matching
//! `{ tier, refit_epochs: 0 }` spec, byte for byte: both go through one
//! freeze. Beyond the last tier there is nothing left to degrade to —
//! admission control sheds, with `retry_after_ms` telling clients when to
//! come back.
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
//! writer writes every pending reply before its socket closes: zero
//! in-flight requests are dropped (pinned by an integration test). The
//! drain is *bounded* by [`ServerTuning::drain_deadline_ms`]: a wedged
//! batcher past the deadline is force-aborted (queued requests answer an
//! `internal` error, writers stop waiting and close both halves,
//! `aborted_drains` is counted) instead of hanging the caller forever.
//!
//! **Model fleet.** [`Server::bind_with_fleet`] attaches a
//! [`boosthd::fleet::Fleet`] registry: predict frames carrying `"model"`
//! are resolved by the batcher, which pins one `Arc` snapshot per named
//! model when it composes a flush and scores per-snapshot groups (never
//! mixing models or versions in one scoring batch); replies echo the
//! model and serving version. Groups are answered in the order of their
//! first request and flushes are composed one after another, so a
//! model's version never goes backwards on a connection. Every fleet
//! load and decode runs on the one long-lived batcher thread. Hot-swap
//! = append a new version to the store + [`Fleet::refresh`]; LRU
//! eviction under memory pressure re-admits transparently on the next
//! request.
//!
//! **Fault containment.** Protocol errors answer a descriptive error frame
//! carrying a stable [`crate::wire::ErrorCode`] tag and never touch other
//! connections; a worker-pool panic is isolated and the worker replaced
//! ([`boosthd::pool`]); a connection that dies with requests in flight
//! only discards its own replies (the batcher's sends to a closed writer
//! are ignored).

use std::collections::{HashMap, VecDeque};
use std::io::{BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use boosthd::fleet::{fnv1a64, Fleet, FleetModel};
use boosthd::{Pipeline, Prediction};
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
    /// admission control engages. Also the most replies one connection
    /// may have waiting to be written before its reader stops reading,
    /// and the burst of the batcher's row budget (see the
    /// [module docs](self)).
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
    /// Micro-batching (`max_batch`, `max_wait`, `threads`). The server
    /// paces flushes at `max_batch` rows per `2 · max_wait` instead of
    /// holding a batch for `max_wait` as the in-process
    /// [`crate::InferenceEngine`] does (see the [module docs](self)).
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

/// One reply on its way to its connection's writer thread.
enum Outbound {
    /// A control-command acknowledgement, rendered by the reader.
    Frame(String),
    /// A scored predict request.
    Predicted {
        id: u64,
        prediction: Prediction,
        tier: &'static str,
        /// `(model_id, version)` when a fleet model served the request.
        fleet: Option<(String, u64)>,
    },
    /// A coded error; `id` when the failing frame carried one.
    Error {
        id: Option<u64>,
        code: ErrorCode,
        message: String,
    },
}

/// The way back to one admitted request's connection. Dropping it
/// unanswered (a force-aborted drain discarding the queue, or a batcher
/// that panicked mid-flush) still answers `internal`, so no admitted
/// request goes silent.
struct ReplyTo {
    id: u64,
    tx: Option<mpsc::Sender<Outbound>>,
}

impl ReplyTo {
    fn predicted(
        mut self,
        prediction: Prediction,
        tier: &'static str,
        fleet: Option<(String, u64)>,
    ) {
        let id = self.id;
        self.send(Outbound::Predicted {
            id,
            prediction,
            tier,
            fleet,
        });
    }

    fn error(mut self, code: ErrorCode, message: String) {
        let id = Some(self.id);
        self.send(Outbound::Error { id, code, message });
    }

    fn send(&mut self, reply: Outbound) {
        // A send error means the connection is gone; the reply is
        // simply discarded.
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(reply);
        }
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        let id = Some(self.id);
        self.send(Outbound::Error {
            id,
            code: ErrorCode::Internal,
            message: "internal error: the request was dropped unanswered".into(),
        });
    }
}

struct PendingRequest {
    row: Vec<f32>,
    admitted: Instant,
    deadline: Option<Duration>,
    /// The fleet model the frame names (`None`: the default model). The
    /// batcher resolves it to an `Arc` snapshot when it composes the
    /// flush; holding that `Arc` through the flush is what makes
    /// hot-swap and eviction safe.
    model: Option<String>,
    reply: ReplyTo,
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
    /// Batcher waits here for work (or for its row budget); readers
    /// signal when the queue turns non-empty, and drain, pause and abort
    /// signal too.
    work_ready: Condvar,
    /// Blocked readers ([`Backpressure::Block`]) wait here for space.
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
    /// Live connections by accept order: a stream handle (so drain can
    /// unblock parked readers) and the connection's thread. A connection
    /// removes its own entry when its reader and writer have finished.
    conns: Mutex<HashMap<u64, Connection>>,
}

struct Connection {
    stream: TcpStream,
    thread: JoinHandle<()>,
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
    /// port) and starts the accept, batcher, and watchdog threads (each
    /// accepted connection gets its own reader and writer). With
    /// [`DegradeConfig::enabled`] the quantized ladder siblings are built
    /// here, and every tier's envelope bytes, checksum, and canary
    /// expectations are pinned for the runtime self-checks.
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
    /// ([`boosthd::fleet::Fleet`]) — the batcher pins an `Arc` snapshot
    /// of each named model when it composes a flush, flushes are
    /// partitioned per snapshot (no batch ever mixes models or versions),
    /// and replies echo the model and the version that served them.
    /// Frames without `"model"` serve on `pipeline` exactly as
    /// [`Server::bind`].
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
        let ladder = if config.tuning.degrade.enabled {
            pipeline.ladder()
        } else {
            vec![Pipeline::clone(&pipeline)]
        };
        let tiers: Vec<TierEntry> = ladder
            .into_iter()
            .map(|model| {
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
                    tag: model.spec().tier_tag(),
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
            conns: Mutex::new(HashMap::new()),
        });

        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::Builder::new()
            .name("hdc-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_inner))
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
            // requests answer `internal` as they drop; writers stop
            // waiting for replies a wedged flush still holds.
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
        // 3. Connections: the batcher has resolved every admitted
        // request, but writers may still be writing those replies out.
        // Shut down only the READ half of each connection: parked readers
        // wake with EOF and exit, while the write half stays open so every
        // pending reply still reaches its client.
        let live: Vec<Connection> = lock(&self.inner.conns).drain().map(|(_, c)| c).collect();
        for conn in &live {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        for conn in live {
            let _ = conn.thread.join();
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

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    let mut next_id = 0u64;
    for stream in listener.incoming() {
        if inner.is_shutting_down() {
            break; // the drain wake-up connection lands here
        }
        let Ok(stream) = stream else { continue };
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        inner.stats.connections.fetch_add(1, Ordering::Relaxed);
        stream.set_nodelay(true).ok();
        let timeout_ms = inner.config.tuning.read_timeout_ms;
        if timeout_ms > 0 {
            // Slow-loris guards: a peer stalling mid-frame, or refusing to
            // drain its replies, gets disconnected instead of pinning this
            // connection forever. (Idle BETWEEN frames stays legal:
            // read_frame swallows timeouts while its buffer is empty.)
            let t = Duration::from_millis(timeout_ms);
            stream.set_read_timeout(Some(t)).ok();
            stream.set_write_timeout(Some(t)).ok();
        }
        let id = next_id;
        next_id += 1;
        let conn_inner = Arc::clone(&inner);
        // The registry lock is held across the spawn, so the thread's own
        // removal of its entry always comes after the insert below.
        let mut conns = lock(&inner.conns);
        let thread = std::thread::Builder::new()
            .name("hdc-serve-conn".into())
            .spawn(move || {
                handle_connection(stream, &conn_inner);
                // Dropping the entry closes the last handle on the socket
                // and detaches this (finishing) thread.
                lock(&conn_inner.conns).remove(&id);
            })
            .expect("spawn connection handler");
        conns.insert(
            id,
            Connection {
                stream: handle,
                thread,
            },
        );
    }
}

/// What a connection's reader and writer share: the count of replies
/// handed to the writer and not yet written.
#[derive(Default)]
struct ConnState {
    /// `(unwritten replies, writer gone)`.
    backlog: Mutex<(usize, bool)>,
    /// Signalled whenever the writer writes replies or exits.
    written: Condvar,
}

impl ConnState {
    /// Reserves room for one more reply, waiting while `limit` replies
    /// are unwritten. `false` once the writer is gone.
    fn reserve(&self, limit: usize) -> bool {
        let mut backlog = lock(&self.backlog);
        while backlog.0 >= limit && !backlog.1 {
            backlog = self
                .written
                .wait(backlog)
                .unwrap_or_else(|e| e.into_inner());
        }
        backlog.0 += 1;
        !backlog.1
    }

    /// Releases `n` written replies; `closed` marks the writer gone.
    fn release(&self, n: usize, closed: bool) {
        let mut backlog = lock(&self.backlog);
        backlog.0 = backlog.0.saturating_sub(n);
        backlog.1 |= closed;
        self.written.notify_all();
    }
}

/// How long a writer waits for a reply before checking whether a
/// force-aborted drain gave up on the batcher.
const ABORT_POLL: Duration = Duration::from_millis(100);

/// One connection: this thread reads and admits frames while a scoped
/// writer thread sends the replies in completion order. Returns once the
/// writer has written a reply for every frame the reader took in and
/// closed the socket.
fn handle_connection(stream: TcpStream, inner: &Inner) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let conn = ConnState::default();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let spawned = std::thread::Builder::new()
            .name("hdc-serve-write".into())
            .spawn_scoped(scope, || write_replies(&stream, rx, &conn, inner));
        if spawned.is_ok() {
            read_frames(read_half, &tx, &conn, inner);
        }
        // Dropping the reader's sender lets the writer finish once every
        // admitted request has answered.
        drop(tx);
    });
}

/// The reader half: parses frames and admits predicts without waiting for
/// their replies. Returns when the connection should stop reading.
fn read_frames(read_half: TcpStream, tx: &mpsc::Sender<Outbound>, conn: &ConnState, inner: &Inner) {
    let mut reader = std::io::BufReader::new(read_half);
    let max_frame = inner.config.tuning.max_frame_bytes;
    let limit = inner.config.tuning.queue_depth.max(1);
    // Every reply takes a slot first, so at most `limit` sit unwritten.
    let reply = |out: Outbound| conn.reserve(limit) && tx.send(out).is_ok();
    let error = |id: Option<u64>, code: ErrorCode, message: String| {
        reply(Outbound::Error { id, code, message })
    };
    loop {
        let frame = match read_frame(&mut reader, max_frame) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean close
            Err(e @ WireError::FrameTooLarge { .. }) => {
                // Framing is lost: report and close.
                error(None, ErrorCode::Oversized, e.to_string());
                return;
            }
            Err(WireError::Io(_)) => return, // mid-stream disconnect
            Err(e) => {
                // A mid-frame stall (slow-loris), mid-frame EOF or
                // non-UTF-8 bytes: answer if the socket is still
                // writable, then close (the stream state is unknown).
                error(None, ErrorCode::BadFrame, e.to_string());
                return;
            }
        };
        let keep_reading = match Request::parse(&frame) {
            // Parse errors keep the connection: framing is intact.
            Err(e) => error(None, ErrorCode::BadFrame, e.to_string()),
            Ok(Request::Ping) => reply(Outbound::Frame(ok_response("pong"))),
            Ok(Request::Stats) => reply(Outbound::Frame(stats_frame(inner))),
            Ok(Request::Health) => {
                let report = inner.health_check();
                reply(Outbound::Frame(format!(
                    "{{\"ok\":\"health\",\"status\":\"{}\",\"tier\":\"{}\",\"canary_ok\":{},\"checksum_ok\":{},\"reloaded\":{}}}",
                    escape_json(&report.status),
                    escape_json(&report.tier),
                    report.canary_ok,
                    report.checksum_ok,
                    report.reloaded,
                )))
            }
            Ok(Request::Shutdown) => {
                reply(Outbound::Frame(ok_response("shutdown")));
                inner.request_shutdown();
                return;
            }
            Ok(Request::Predict {
                id,
                features,
                deadline_ms,
                model,
            }) => {
                if !conn.reserve(limit) {
                    return;
                }
                admit_predict(inner, tx, id, features, deadline_ms, model)
            }
        };
        if !keep_reading {
            return;
        }
    }
}

/// The writer half: renders and writes every reply of the connection, in
/// the order they complete, batching whatever is ready into one socket
/// write. Exits once every sender (the reader and each admitted request)
/// is gone, then closes the socket.
fn write_replies(
    stream: &TcpStream,
    rx: mpsc::Receiver<Outbound>,
    conn: &ConnState,
    inner: &Inner,
) {
    let mut out = BufWriter::new(stream);
    let mut healthy = true;
    loop {
        let first = match rx.recv_timeout(ABORT_POLL) {
            Ok(reply) => reply,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if inner.force_abort.load(Ordering::SeqCst) {
                    // A wedged flush may hold this connection's requests
                    // forever; stop waiting for them.
                    break;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        let mut written = 0;
        let mut next = Some(first);
        while let Some(reply) = next {
            let frame = render(inner, reply);
            if healthy {
                healthy = writeln!(out, "{frame}").is_ok();
            }
            written += 1;
            next = rx.try_recv().ok();
        }
        healthy = healthy && out.flush().is_ok();
        if !healthy {
            // Unwritable (peer gone, or a write timeout on a peer that
            // stopped reading): wake the reader so it stops too. Replies
            // still in flight are rendered and discarded.
            let _ = stream.shutdown(Shutdown::Both);
        }
        conn.release(written, !healthy);
    }
    conn.release(0, true);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Renders one reply frame and counts it.
fn render(inner: &Inner, reply: Outbound) -> String {
    match reply {
        Outbound::Frame(frame) => frame,
        Outbound::Predicted {
            id,
            prediction,
            tier,
            fleet,
        } => {
            inner.stats.answered.fetch_add(1, Ordering::Relaxed);
            predict_response_fleet(
                id,
                &prediction,
                tier,
                fleet.as_ref().map(|(m, v)| (m.as_str(), *v)),
            )
        }
        Outbound::Error { id, code, message } => {
            inner.stats.count_error(code);
            if code == ErrorCode::Shed {
                error_response_retry(id, code, &message, inner.config.tuning.retry_after_ms)
            } else {
                error_response(id, code, &message)
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

/// Admits one predict request whose reply slot the reader has already
/// reserved. Immediate rejections (wrong width, shed) answer here; an
/// admitted request is answered by the batcher, through the writer.
/// Returns `false` when the connection should stop reading.
fn admit_predict(
    inner: &Inner,
    tx: &mpsc::Sender<Outbound>,
    id: u64,
    features: Vec<f32>,
    deadline_ms: Option<u64>,
    model: Option<String>,
) -> bool {
    let reject = |code: ErrorCode, message: String| {
        tx.send(Outbound::Error {
            id: Some(id),
            code,
            message,
        })
        .is_ok()
    };
    if features.len() != inner.expected_features {
        let msg = format!(
            "feature count mismatch: got {}, model expects {}",
            features.len(),
            inner.expected_features
        );
        return reject(ErrorCode::WrongWidth, msg);
    }
    let row = match &inner.prep {
        Some(prep) => prep(features),
        None => features,
    };
    let deadline = deadline_ms
        .or(inner.config.tuning.deadline_ms)
        .map(Duration::from_millis);
    let depth = inner.config.tuning.queue_depth;
    let mut queue = lock(&inner.queue);
    if queue.len() >= depth && !inner.is_shutting_down() {
        match inner.config.tuning.backpressure {
            Backpressure::Shed => {
                drop(queue);
                let msg = format!("overloaded: queue depth {depth} reached; request shed");
                return reject(ErrorCode::Shed, msg);
            }
            Backpressure::Block => {
                while queue.len() >= depth && !inner.is_shutting_down() {
                    queue = inner
                        .space_ready
                        .wait(queue)
                        .unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }
    // Checked under the queue lock, where the batcher also decides to
    // exit: nothing is admitted after the drain's last flush.
    if inner.is_shutting_down() {
        drop(queue);
        return reject(ErrorCode::Shed, "server is shutting down".into());
    }
    // The batcher waits on `work_ready` for an empty queue to fill; while
    // the queue holds work it is busy or paced and needs no wake-up.
    let was_empty = queue.is_empty();
    queue.push_back(PendingRequest {
        row,
        admitted: Instant::now(),
        deadline,
        model,
        reply: ReplyTo {
            id,
            tx: Some(tx.clone()),
        },
    });
    inner.stats.admitted.fetch_add(1, Ordering::Relaxed);
    drop(queue);
    if was_empty {
        inner.work_ready.notify_all();
    }
    true
}

/// Sweeps deadline-expired requests out of the queue, answering each
/// `deadline_exceeded` — a request that already missed its deadline must
/// not waste flush capacity. Returns how many were swept.
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
                let msg = format!("deadline exceeded after {waited_ms}ms in queue; not scored");
                req.reply.error(ErrorCode::DeadlineExceeded, msg);
                swept += 1;
            }
        } else {
            i += 1;
        }
    }
    swept
}

/// Partitions a composed batch by serving model — the default ladder plus
/// one group per named fleet model — in the order of each group's first
/// request. Each name resolves once per flush, so its group scores on one
/// pinned snapshot; a name the fleet cannot resolve answers
/// `unknown_model`.
fn group_by_model(
    inner: &Inner,
    batch: Vec<PendingRequest>,
) -> Vec<(Option<Arc<FleetModel>>, Vec<PendingRequest>)> {
    let mut by_name: Vec<(Option<String>, Vec<PendingRequest>)> = Vec::new();
    for request in batch {
        match by_name.iter_mut().find(|(name, _)| *name == request.model) {
            Some((_, members)) => members.push(request),
            None => by_name.push((request.model.clone(), vec![request])),
        }
    }
    let mut groups = Vec::with_capacity(by_name.len());
    for (name, members) in by_name {
        let Some(name) = name else {
            groups.push((None, members));
            continue;
        };
        let resolved = inner
            .fleet
            .as_deref()
            .ok_or_else(|| "this server serves no model fleet".to_string())
            .and_then(|fleet| fleet.get(&name).map_err(|e| e.to_string()));
        match resolved {
            Ok(model) => groups.push((Some(model), members)),
            Err(msg) => {
                for request in members {
                    request.reply.error(ErrorCode::UnknownModel, msg.clone());
                }
            }
        }
    }
    groups
}

/// The pacing of [`batcher_loop`]: a token bucket in rows. Rows accrue
/// at `max_batch` per two `max_wait` periods (one for a batch to form,
/// one for it to be scored) up to a burst of `queue_depth` rows, never
/// less than one batch; every flushed row spends one.
struct RowBudget {
    /// Rows per second; infinite when `max_wait` is zero (no pacing).
    rate: f64,
    burst: f64,
    tokens: f64,
    refilled: Instant,
}

impl RowBudget {
    fn new(config: &ServerConfig) -> Self {
        let max_batch = config.engine.max_batch.max(1);
        let burst = config.tuning.queue_depth.max(max_batch) as f64;
        RowBudget {
            rate: max_batch as f64 / (2.0 * config.engine.max_wait.as_secs_f64()),
            burst,
            tokens: burst,
            refilled: Instant::now(),
        }
    }

    /// How long until the budget holds `rows` rows (zero: now).
    fn wait_for(&mut self, rows: usize) -> Duration {
        if self.rate.is_infinite() {
            return Duration::ZERO;
        }
        let now = Instant::now();
        let accrued = now.duration_since(self.refilled).as_secs_f64() * self.rate;
        self.tokens = (self.tokens + accrued).min(self.burst);
        self.refilled = now;
        let missing = rows as f64 - self.tokens;
        if missing <= 0.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(missing / self.rate)
        }
    }

    fn spend(&mut self, rows: usize) {
        self.tokens -= rows as f64;
    }
}

/// The micro-batcher: it takes up to `max_batch` queued requests as soon
/// as it is free and the [`RowBudget`] allows them, sweeps
/// deadline-expired requests at every composition point, walks the
/// degrade ladder by queue-depth hysteresis, pins fleet snapshots, and
/// flushes through the pool-backed confidence path on the active tier. On
/// shutdown it drains everything admitted, unpaced, before exiting
/// (unless force-aborted by the bounded drain).
fn batcher_loop(inner: &Arc<Inner>) {
    let max_batch = inner.config.engine.max_batch.max(1);
    let degrade = inner.config.tuning.degrade;
    let mut budget = RowBudget::new(&inner.config);
    // Hysteresis state: consecutive overloaded / calm flushes.
    let mut hot_flushes = 0u32;
    let mut calm_flushes = 0u32;
    loop {
        let (batch, depth_at_flush): (Vec<PendingRequest>, usize) = {
            let mut queue = lock(&inner.queue);
            loop {
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
                if queue.is_empty() {
                    if inner.is_shutting_down() {
                        return; // drained: exit
                    }
                    queue = inner
                        .work_ready
                        .wait(queue)
                        .unwrap_or_else(|e| e.into_inner());
                    continue;
                }
                // A whole batch's budget, so paced flushes are full ones.
                let wait = budget.wait_for(max_batch);
                if wait.is_zero() || inner.is_shutting_down() {
                    break;
                }
                // Admissions into a non-empty queue do not notify; a
                // drain, pause or abort does.
                queue = inner
                    .work_ready
                    .wait_timeout(queue, wait)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
            let depth = queue.len();
            let take = depth.min(max_batch);
            (queue.drain(..take).collect(), depth)
        };
        budget.spend(batch.len());
        inner.space_ready.notify_all();
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
        let groups = group_by_model(inner, batch);
        if groups.is_empty() {
            continue;
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
                        p.spec().tier_tag(),
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
            // One copy: each row goes straight into the flush matrix.
            let width = group[0].row.len();
            let mut data = Vec::with_capacity(group.len() * width);
            for request in &group {
                data.extend_from_slice(&request.row);
            }
            let x = Matrix::from_vec(group.len(), width, data)
                .expect("admitted rows share the validated feature width");
            *lock(&inner.flush_started) = Some(Instant::now());
            let predictions = model.predict_batch_with_confidence_chunked(
                &x,
                inner.threads,
                inner.config.engine.exec,
            );
            *lock(&inner.flush_started) = None;
            for (request, prediction) in group.into_iter().zip(predictions) {
                request
                    .reply
                    .predicted(prediction, tier_tag, fleet_info.clone());
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
