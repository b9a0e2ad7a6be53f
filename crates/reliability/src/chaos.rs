//! Deterministic chaos campaign over the *network* serving stack.
//!
//! [`campaign`](crate::campaign) measures how the **model** degrades under
//! faults; this module measures how the **serving system** around it holds
//! up — the paper's reliability story only counts if the deployment
//! surface (sockets, queues, worker pool, live parameter memory) survives
//! adversity too. Each scenario in [`run_campaign`] boots a real
//! [`boosthd_serve::server::Server`] on an ephemeral loopback port and
//! drives it through a seeded fault schedule: deadline storms, burst
//! overload into the degrade ladder, live-model SEUs, protocol abuse
//! (garbage, oversized frames, slow-loris stalls, mid-frame disconnects),
//! and worker-pool panics.
//!
//! # Determinism contract
//!
//! The emitted [`ResilienceReport`] is **byte-identical for any server
//! thread count** (the `--threads 1/2/8` acceptance gate) and for repeated
//! runs at the same seed. That holds because nothing in the report is
//! derived from wall-clock time or scheduler interleaving:
//!
//! * **Virtual clock.** The driver advances an integer tick counter
//!   ([`TICK_MS`] virtual milliseconds per tick); every latency and
//!   recovery time in the report is `ticks × TICK_MS`, never a measured
//!   duration. Real time is used only to *guarantee* outcomes that the
//!   server judges in real time (a 1 ms request deadline is held for 25
//!   real milliseconds before the batcher may sweep it — expiry is certain
//!   either way).
//! * **Lockstep admission.** The batcher is held with
//!   [`Server::pause_batcher`] while requests are admitted one at a time,
//!   each confirmed against the server's own counters before the next is
//!   sent, so the queue content at every flush is a pure function of the
//!   schedule. Releasing the batcher drains the engineered queue in
//!   `max_batch`-sized flushes whose composition is therefore also fixed.
//! * **Seeded faults.** Every stochastic choice (arrival schedule, row
//!   payloads, bitflip positions) comes from a [`Rng64`] forked per
//!   scenario from the campaign seed; per-row predictions are
//!   thread-count-invariant by the chunked-execution contract of
//!   [`boosthd::Pipeline`].
//! * **No environment leakage.** The report deliberately omits the thread
//!   count, hostnames, ports, and timestamps.
//!
//! Quantities that *do* depend on the thread count (e.g. how many pool
//! workers the panic scenario replaces when `threads == 1` never fans
//! out) are asserted in tests at a fixed thread count and kept out of the
//! report.
//!
//! # Example
//!
//! ```no_run
//! use reliability::chaos::{run_campaign, ChaosConfig};
//!
//! let report = run_campaign(&ChaosConfig {
//!     seed: 42,
//!     threads: 2,
//!     quick: true,
//! });
//! assert!(report.scenarios.iter().all(|s| s.availability_pct > 0.0));
//! println!("{}", report.to_json());
//! ```

use std::sync::Arc;
use std::time::Duration;

use crate::campaign::json_f64;
use boosthd::parallel::ExecBackend;
use boosthd::{Classifier, ModelSpec, OnlineHd, OnlineHdConfig, Pipeline, Tier};
use boosthd_serve::server::{Backpressure, DegradeConfig, Server, ServerConfig, ServerTuning};
use boosthd_serve::wire::{escape_json, Client, ErrorCode, Reply};
use boosthd_serve::EngineConfig;
use linalg::{Matrix, Rng64};

/// Virtual milliseconds per driver tick; every latency / recovery figure
/// in the report is a multiple of this.
pub const TICK_MS: u64 = 20;

/// Current [`ResilienceReport::format_version`].
pub const RESILIENCE_FORMAT_VERSION: u32 = 1;

/// Feature width of the synthetic serving workload.
const FEATURES: usize = 6;

/// Number of stable error-taxonomy codes; sized from the wire enum so a
/// new code widens every per-code counter automatically.
const TAXONOMY: usize = ErrorCode::ALL.len();

/// How long the driver waits (real time) for a server-side counter to
/// confirm an admission before declaring the campaign wedged.
const CONFIRM_TIMEOUT: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// Public config / report types
// ---------------------------------------------------------------------------

/// Campaign inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Master seed; every scenario forks its own RNG from it.
    pub seed: u64,
    /// Server-side engine thread count. Varies across the determinism
    /// gate (`1/2/8`) and must not leak into the report.
    pub threads: usize,
    /// Shrinks tick counts for smoke/CI-PR runs.
    pub quick: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            threads: 2,
            quick: false,
        }
    }
}

/// One scenario's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Stable scenario identifier.
    pub name: &'static str,
    /// What the scenario subjects the server to.
    pub description: &'static str,
    /// Prediction requests submitted (protocol-abuse frames are tracked
    /// in `errors`, not here).
    pub requests: u64,
    /// Requests answered with a prediction.
    pub ok: u64,
    /// `ok / requests` as a percentage (100 when nothing was submitted).
    pub availability_pct: f64,
    /// 99th percentile of successful-request latency in virtual
    /// milliseconds (`None` when nothing succeeded).
    pub p99_under_fault_ms: Option<u64>,
    /// Virtual milliseconds from the end of the fault window to the first
    /// fully-healthy observation (0 for the no-fault control).
    pub recovery_time_ms: u64,
    /// Per-taxonomy-code error reply counts, indexed like
    /// [`ErrorCode::ALL`].
    pub errors: [u64; TAXONOMY],
    /// Scenario-specific facts (key, pre-rendered JSON value), emitted in
    /// insertion order.
    pub detail: Vec<(&'static str, String)>,
}

/// The full campaign result; see the [module docs](self) for the
/// determinism contract governing its serialized form.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Schema tag (`boosthd.resilience.report`).
    pub format_version: u32,
    /// The campaign seed.
    pub seed: u64,
    /// Whether the shortened schedules ran.
    pub quick: bool,
    /// Outcomes in fixed scenario order.
    pub scenarios: Vec<ScenarioOutcome>,
}

impl ResilienceReport {
    /// Serializes the report as deterministic JSON: fixed key order, no
    /// maps, integers where the metric is exact — two runs with the same
    /// seed produce identical bytes regardless of server thread count.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str("  \"format\": \"boosthd.resilience.report\",\n");
        out.push_str(&format!(
            "  \"format_version\": {},\n  \"seed\": {},\n  \"tick_ms\": {},\n  \"quick\": {},\n",
            self.format_version, self.seed, TICK_MS, self.quick
        ));
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", escape_json(s.name)));
            out.push_str(&format!(
                "      \"description\": \"{}\",\n",
                escape_json(s.description)
            ));
            out.push_str(&format!(
                "      \"requests\": {},\n      \"ok\": {},\n      \"availability_pct\": {},\n",
                s.requests,
                s.ok,
                json_f64(s.availability_pct)
            ));
            out.push_str(&format!(
                "      \"p99_under_fault_ms\": {},\n",
                s.p99_under_fault_ms
                    .map_or_else(|| "null".into(), |v| v.to_string())
            ));
            out.push_str(&format!(
                "      \"recovery_time_ms\": {},\n",
                s.recovery_time_ms
            ));
            out.push_str("      \"errors\": {");
            for (j, code) in ErrorCode::ALL.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {}", code.tag(), s.errors[j]));
            }
            out.push_str("},\n");
            out.push_str("      \"detail\": {");
            for (j, (key, value)) in s.detail.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{key}\": {value}"));
            }
            out.push_str("}\n");
            out.push_str(if i + 1 == self.scenarios.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The outcome of scenario `name`, when it ran.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioOutcome> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

// ---------------------------------------------------------------------------
// Arrival schedule
// ---------------------------------------------------------------------------

/// Per-tick arrival counts from a Lewis–Shedler-thinned inhomogeneous
/// Poisson process with a sinusoidal (diurnal) rate, discretized to
/// driver ticks.
fn poisson_arrivals_per_tick(
    rng: &mut Rng64,
    ticks: u64,
    base_rate: f64,
    peak_rate: f64,
    period: f64,
) -> Vec<u32> {
    let lambda_max = peak_rate.max(base_rate).max(1e-9);
    (0..ticks)
        .map(|t| {
            let phase = (t as f64) / period * std::f64::consts::TAU;
            let lambda = base_rate + (peak_rate - base_rate) * 0.5 * (1.0 + phase.sin());
            // Thinning: candidates at the envelope rate, each kept with
            // probability lambda(t) / lambda_max.
            let candidates = lambda_max.ceil() as u32 * 2;
            (0..candidates)
                .filter(|_| {
                    rng.chance(lambda_max / f64::from(candidates))
                        && rng.chance(lambda / lambda_max)
                })
                .count() as u32
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Lockstep driver
// ---------------------------------------------------------------------------

/// One admitted-and-unanswered request.
struct Pending {
    conn: Client,
    id: u64,
    admit_tick: u64,
    row: Vec<f32>,
}

/// A prediction reply as collected by [`Driver::drain`] (its virtual
/// latency is recorded on the driver).
struct Served {
    id: u64,
    class: usize,
    tier: Option<String>,
    row: Vec<f32>,
}

/// The lockstep harness around one scenario server; see the
/// [module docs](self) for the protocol that makes it deterministic.
struct Driver {
    addr: String,
    next_id: u64,
    tick: u64,
    requests: u64,
    ok: u64,
    errors: [u64; TAXONOMY],
    latencies_ms: Vec<u64>,
    pending: Vec<Pending>,
}

impl Driver {
    fn new(server: &Server) -> Driver {
        // Hold the batcher from the start: every scenario engineers its
        // queue states explicitly.
        server.pause_batcher();
        Driver {
            addr: server.local_addr().to_string(),
            next_id: 0,
            tick: 0,
            requests: 0,
            ok: 0,
            errors: [0; TAXONOMY],
            latencies_ms: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn record_error_code(&mut self, code: Option<&str>) {
        let idx = code
            .and_then(|c| ErrorCode::ALL.iter().position(|e| e.tag() == c))
            .unwrap_or_else(|| {
                ErrorCode::ALL
                    .iter()
                    .position(|e| *e == ErrorCode::Internal)
                    .expect("internal is in the taxonomy")
            });
        self.errors[idx] += 1;
    }

    /// Admits one request while the batcher is held, confirming the
    /// outcome against server counters before returning. Sheds and
    /// immediate protocol rejections are recorded here; admitted requests
    /// join `pending` until [`Driver::drain`].
    fn submit(&mut self, server: &Server, row: Vec<f32>, deadline_ms: Option<u64>) {
        let before = server.stats();
        let id = self.next_id;
        self.next_id += 1;
        self.requests += 1;
        let mut conn = Client::connect(&self.addr).expect("connect chaos client");
        match deadline_ms {
            Some(d) => conn.send_predict_with_deadline(id, &row, d),
            None => conn.send_predict(id, &row),
        }
        .expect("send chaos request");
        let deadline = std::time::Instant::now() + CONFIRM_TIMEOUT;
        loop {
            let now = server.stats();
            if now.admitted > before.admitted {
                self.pending.push(Pending {
                    conn,
                    id,
                    admit_tick: self.tick,
                    row,
                });
                return;
            }
            if now.shed > before.shed || now.wrong_width > before.wrong_width {
                match conn.recv().expect("read rejection reply") {
                    Some(Reply::Error { code, .. }) => {
                        self.record_error_code(code.as_deref());
                    }
                    other => panic!("expected a coded rejection, got {other:?}"),
                }
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "request {id} neither admitted nor rejected within {CONFIRM_TIMEOUT:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Advances the virtual clock without touching the server.
    fn advance(&mut self, ticks: u64) {
        self.tick += ticks;
    }

    /// Releases the batcher, collects every pending reply, re-holds the
    /// batcher, and advances the clock one tick (all replies land on the
    /// next tick boundary — latency is queue *age* in ticks, minimum one).
    fn drain(&mut self, server: &Server) -> Vec<Served> {
        server.resume_batcher();
        let complete_tick = self.tick + 1;
        let mut served = Vec::new();
        for mut pending in std::mem::take(&mut self.pending) {
            match pending.conn.recv().expect("read drained reply") {
                Some(Reply::Predict {
                    id, class, tier, ..
                }) => {
                    assert_eq!(id, pending.id, "each chaos connection carries one request");
                    self.ok += 1;
                    self.latencies_ms
                        .push((complete_tick - pending.admit_tick) * TICK_MS);
                    served.push(Served {
                        id,
                        class,
                        tier,
                        row: pending.row,
                    });
                }
                Some(Reply::Error { code, .. }) => {
                    self.record_error_code(code.as_deref());
                }
                other => panic!("pending request {} got {other:?}", pending.id),
            }
        }
        server.pause_batcher();
        self.tick = complete_tick;
        served
    }

    /// Nearest-rank p99 over successful-request latencies.
    fn p99_ms(&self) -> Option<u64> {
        if self.latencies_ms.is_empty() {
            return None;
        }
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64) * 0.99).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    fn availability_pct(&self) -> f64 {
        if self.requests == 0 {
            100.0
        } else {
            (self.ok as f64) * 100.0 / (self.requests as f64)
        }
    }

    fn outcome(
        &self,
        name: &'static str,
        description: &'static str,
        recovery_time_ms: u64,
        detail: Vec<(&'static str, String)>,
    ) -> ScenarioOutcome {
        ScenarioOutcome {
            name,
            description,
            requests: self.requests,
            ok: self.ok,
            availability_pct: self.availability_pct(),
            p99_under_fault_ms: self.p99_ms(),
            recovery_time_ms,
            errors: self.errors,
            detail,
        }
    }
}

// ---------------------------------------------------------------------------
// Shared fixture
// ---------------------------------------------------------------------------

/// The campaign's serving workload: a deterministic two-class OnlineHD
/// pipeline over six synthetic features.
fn chaos_pipeline() -> Arc<Pipeline> {
    let mut rng = Rng64::seed_from(0xC4A0_5BEE);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..80 {
        let class = i % 2;
        let center = if class == 0 { -1.5f32 } else { 1.5 };
        rows.push(
            (0..FEATURES)
                .map(|_| center + 0.4 * rng.normal())
                .collect::<Vec<f32>>(),
        );
        labels.push(class);
    }
    let x = Matrix::from_rows(&rows).expect("fixture rows are rectangular");
    Arc::new(
        Pipeline::fit(
            &ModelSpec::OnlineHd(OnlineHdConfig {
                dim: 256,
                epochs: 3,
                ..Default::default()
            }),
            &x,
            &labels,
        )
        .expect("fit chaos fixture"),
    )
}

fn random_row(rng: &mut Rng64) -> Vec<f32> {
    (0..FEATURES).map(|_| rng.uniform_in(-2.0, 2.0)).collect()
}

fn engine(cfg: &ChaosConfig, max_batch: usize) -> EngineConfig {
    EngineConfig {
        max_batch,
        max_wait: Duration::from_millis(5),
        threads: Some(cfg.threads.max(1)),
        exec: ExecBackend::Pooled,
    }
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// No faults: Poisson arrivals through the full-fidelity path. The
/// availability floor asserted by `hdrun chaos` (≥ 99%) guards this
/// scenario.
fn scenario_control(cfg: &ChaosConfig, pipeline: &Arc<Pipeline>) -> ScenarioOutcome {
    let mut rng = Rng64::seed_from(cfg.seed ^ 0xC0_0001);
    let server = Server::bind(
        Arc::clone(pipeline),
        FEATURES,
        "127.0.0.1:0",
        ServerConfig {
            engine: engine(cfg, 8),
            tuning: ServerTuning::default(),
        },
        None,
    )
    .expect("bind control server");
    let mut driver = Driver::new(&server);

    let ticks = if cfg.quick { 8 } else { 24 };
    let arrivals = poisson_arrivals_per_tick(&mut rng, ticks, 1.0, 3.0, 12.0);
    for (t, &n) in arrivals.iter().enumerate() {
        for _ in 0..n {
            let row = random_row(&mut rng);
            driver.submit(&server, row, None);
        }
        // Drain every other tick so queue ages span 1–2 ticks and the p99
        // is a distribution, not a constant.
        if t % 2 == 1 {
            driver.drain(&server);
        } else {
            driver.advance(1);
        }
    }
    driver.drain(&server);

    let detail = vec![
        ("ticks", ticks.to_string()),
        (
            "tier",
            format!("\"{}\"", escape_json(server.current_tier())),
        ),
    ];
    let outcome = driver.outcome(
        "control",
        "no-fault baseline: diurnal Poisson arrivals, full-fidelity serving",
        0,
        detail,
    );
    server.resume_batcher();
    server.shutdown_and_join();
    outcome
}

/// Requests carrying 1 ms deadlines are held in the queue long past
/// expiry; the sweep must answer them `deadline_exceeded` without scoring
/// while patient traffic admitted alongside is served.
fn scenario_deadline_storm(cfg: &ChaosConfig, pipeline: &Arc<Pipeline>) -> ScenarioOutcome {
    let mut rng = Rng64::seed_from(cfg.seed ^ 0xC0_0002);
    let server = Server::bind(
        Arc::clone(pipeline),
        FEATURES,
        "127.0.0.1:0",
        ServerConfig {
            engine: engine(cfg, 8),
            tuning: ServerTuning::default(),
        },
        None,
    )
    .expect("bind deadline server");
    let mut driver = Driver::new(&server);

    let storm_ticks = if cfg.quick { 2 } else { 4 };
    let per_tick = 3u32;
    for _ in 0..storm_ticks {
        for _ in 0..per_tick {
            let patient = random_row(&mut rng);
            driver.submit(&server, patient, None);
            let impatient = random_row(&mut rng);
            driver.submit(&server, impatient, Some(1));
        }
        driver.advance(1);
    }
    // Real-time guard: the 1 ms deadlines are certainly expired before the
    // batcher is allowed to sweep (virtual hold: `storm_ticks` already
    // advanced above).
    std::thread::sleep(Duration::from_millis(25));
    driver.drain(&server);
    let batches_after_storm = server.stats().batches;

    // Recovery: the first post-storm probe is served normally.
    let probe = random_row(&mut rng);
    driver.submit(&server, probe, Some(60_000));
    let recovered = !driver.drain(&server).is_empty();
    assert!(recovered, "post-storm probe must be served");

    let detail = vec![
        ("storm_ticks", storm_ticks.to_string()),
        ("deadline_ms", "1".to_string()),
        ("batches_during_storm", batches_after_storm.to_string()),
    ];
    let outcome = driver.outcome(
        "deadline_storm",
        "1ms-deadline requests held past expiry are swept without scoring; patient traffic is served",
        TICK_MS,
        detail,
    );
    server.resume_batcher();
    server.shutdown_and_join();
    outcome
}

/// Burst overload with the degrade ladder enabled: the queue is filled to
/// capacity plus four sheds, the ladder steps f32 → int8 under sustained
/// depth, degraded replies are cross-checked bit-for-bit against a
/// standalone `quantize_i8()` sibling, and recovery is measured as the
/// virtual time until the ladder is back at full fidelity.
fn scenario_overload_degrade(cfg: &ChaosConfig, pipeline: &Arc<Pipeline>) -> ScenarioOutcome {
    let mut rng = Rng64::seed_from(cfg.seed ^ 0xC0_0003);
    let standalone_i8 = pipeline
        .downcast_ref::<OnlineHd>()
        .expect("chaos fixture is OnlineHD")
        .quantize_i8();
    let server = Server::bind(
        Arc::clone(pipeline),
        FEATURES,
        "127.0.0.1:0",
        ServerConfig {
            engine: engine(cfg, 4),
            tuning: ServerTuning {
                queue_depth: 16,
                backpressure: Backpressure::Shed,
                retry_after_ms: 40,
                degrade: DegradeConfig {
                    enabled: true,
                    high_depth: 8,
                    low_depth: 2,
                    degrade_after: 2,
                    recover_after: 2,
                },
                ..Default::default()
            },
        },
        None,
    )
    .expect("bind overload server");
    let mut driver = Driver::new(&server);

    // Fill the queue to capacity, then four more that must shed with a
    // structured retry hint.
    for _ in 0..20 {
        let row = random_row(&mut rng);
        driver.submit(&server, row, None);
    }
    let served = driver.drain(&server);
    let mut quantized_mismatches = 0u64;
    let mut tier_trail: Vec<&str> = Vec::new();
    for s in &served {
        let tag = s.tier.as_deref().unwrap_or("?");
        if tier_trail.last() != Some(&tag) {
            tier_trail.push(tag);
        }
        if tag == Tier::Int8.tag() {
            let x =
                Matrix::from_rows(std::slice::from_ref(&s.row)).expect("served row is rectangular");
            if Classifier::predict_batch(&standalone_i8, &x)[0] != s.class {
                quantized_mismatches += 1;
            }
        }
    }
    let degraded_replies = served
        .iter()
        .filter(|s| s.tier.as_deref() != Some("f32"))
        .count() as u64;

    // Recovery: calm single-request flushes until the ladder reports full
    // fidelity again.
    let mut recovery_ticks = 0u64;
    while server.current_tier() != "f32" {
        assert!(recovery_ticks < 16, "ladder failed to recover");
        let row = random_row(&mut rng);
        driver.submit(&server, row, None);
        driver.drain(&server);
        recovery_ticks += 1;
    }
    let stats = server.stats();

    let detail = vec![
        ("queue_depth", "16".to_string()),
        ("burst", "20".to_string()),
        (
            "tier_trail",
            format!("\"{}\"", escape_json(&tier_trail.join(","))),
        ),
        ("degraded_replies", degraded_replies.to_string()),
        ("quantized_mismatches", quantized_mismatches.to_string()),
        ("degrade_steps", stats.degrade_steps.to_string()),
        ("recover_steps", stats.recover_steps.to_string()),
        ("retry_hint_ms", "40".to_string()),
    ];
    let outcome = driver.outcome(
        "overload_degrade",
        "burst past queue capacity: ladder steps to int8 under sustained depth, sheds carry retry_after_ms, recovery restores f32",
        recovery_ticks * TICK_MS,
        detail,
    );
    server.resume_batcher();
    server.shutdown_and_join();
    outcome
}

/// A seeded SEU on the live full-fidelity model: serving must continue
/// through the corruption, the next self-check must detect the checksum
/// mismatch and atomically reload from the pinned envelope, and
/// post-reload predictions must be bit-identical to pre-fault ones.
fn scenario_seu_reload(cfg: &ChaosConfig, pipeline: &Arc<Pipeline>) -> ScenarioOutcome {
    let mut rng = Rng64::seed_from(cfg.seed ^ 0xC0_0004);
    let server = Server::bind(
        Arc::clone(pipeline),
        FEATURES,
        "127.0.0.1:0",
        ServerConfig {
            engine: engine(cfg, 8),
            tuning: ServerTuning::default(),
        },
        None,
    )
    .expect("bind seu server");
    let mut driver = Driver::new(&server);

    let probes: Vec<Vec<f32>> = (0..6).map(|_| random_row(&mut rng)).collect();
    let classify = |driver: &mut Driver| -> Vec<usize> {
        for row in &probes {
            driver.submit(&server, row.clone(), None);
        }
        let mut served = driver.drain(&server);
        served.sort_by_key(|s| s.id);
        assert_eq!(served.len(), probes.len(), "every probe must be served");
        served.into_iter().map(|s| s.class).collect()
    };

    let baseline = classify(&mut driver);
    let flipped = server.corrupt_live_model(0.01, cfg.seed ^ 0x5E0) as u64;
    assert!(flipped > 0, "the SEU must actually flip bits");
    let corrupted = classify(&mut driver);
    let divergence = baseline
        .iter()
        .zip(&corrupted)
        .filter(|(a, b)| a != b)
        .count() as u64;

    let health = server.health_check();
    assert_eq!(
        health.status, "recovered",
        "self-check must detect and repair the SEU"
    );
    driver.advance(1); // the self-check tick
    let restored = classify(&mut driver);

    let detail = vec![
        ("bits_flipped", flipped.to_string()),
        ("corrupted_probe_divergence", divergence.to_string()),
        ("model_reloads", server.stats().model_reloads.to_string()),
        ("restored_bit_identical", (restored == baseline).to_string()),
    ];
    let outcome = driver.outcome(
        "seu_reload",
        "live-model bitflips: serving continues, checksum self-check reloads the pinned envelope, predictions restored bit-identically",
        TICK_MS,
        detail,
    );
    server.resume_batcher();
    server.shutdown_and_join();
    outcome
}

/// Protocol abuse interleaved with good traffic: garbage frames,
/// oversized frames, wrong-width rows, mid-frame disconnects, and a
/// slow-loris stall. Good requests must keep a perfect success rate and
/// every abuse lands in the right taxonomy bucket.
fn scenario_conn_chaos(cfg: &ChaosConfig, pipeline: &Arc<Pipeline>) -> ScenarioOutcome {
    let mut rng = Rng64::seed_from(cfg.seed ^ 0xC0_0005);
    let server = Server::bind(
        Arc::clone(pipeline),
        FEATURES,
        "127.0.0.1:0",
        ServerConfig {
            engine: engine(cfg, 8),
            tuning: ServerTuning {
                read_timeout_ms: 150,
                ..Default::default()
            },
        },
        None,
    )
    .expect("bind conn-chaos server");
    let mut driver = Driver::new(&server);
    let mut disconnects = 0u64;

    let rounds = if cfg.quick { 4 } else { 8 };
    for round in 0..rounds {
        let row = random_row(&mut rng);
        driver.submit(&server, row, None);
        driver.drain(&server);
        match round % 4 {
            0 => {
                // Garbage frame: coded bad_frame, connection survives.
                let mut conn = Client::connect(&driver.addr).expect("connect abuser");
                conn.send_raw("chaos, not json").expect("send garbage");
                match conn.recv().expect("read garbage reply") {
                    Some(Reply::Error { code, .. }) => driver.record_error_code(code.as_deref()),
                    other => panic!("expected bad_frame, got {other:?}"),
                }
            }
            1 => {
                // Oversized frame: coded rejection, then the server hangs
                // up. The write may fail part-way (the server can close
                // its read half as soon as the cap trips) — that's fine,
                // the cap has certainly tripped by then.
                let mut conn = Client::connect(&driver.addr).expect("connect abuser");
                let huge = format!("{{\"id\":1,\"pad\":\"{}\"}}", "x".repeat(96 * 1024));
                let _ = conn.send_raw(&huge);
                match conn.recv().expect("read oversized reply") {
                    Some(Reply::Error { code, .. }) => driver.record_error_code(code.as_deref()),
                    other => panic!("expected oversized, got {other:?}"),
                }
            }
            2 => {
                // Wrong-width predict: rejected at admission (counts as a
                // request — it asked for a prediction).
                driver.submit(&server, vec![1.0, 2.0], None);
            }
            _ => {
                // Mid-frame disconnect: no reply to await; later good
                // traffic proves the handler died cleanly.
                use std::io::Write as _;
                let mut raw = std::net::TcpStream::connect(&driver.addr).expect("connect abuser");
                raw.write_all(b"{\"id\":9,\"fea")
                    .expect("send partial frame");
                drop(raw);
                disconnects += 1;
            }
        }
        driver.advance(1);
    }
    // Slow-loris finale: half a frame (no terminator), then silence past
    // the read timeout — the server must reply with a coded stall error
    // and hang up.
    {
        use std::io::{Read as _, Write as _};
        let mut loris = std::net::TcpStream::connect(&driver.addr).expect("connect loris");
        loris
            .write_all(b"{\"id\":10,\"featur")
            .expect("send partial frame");
        let mut response = String::new();
        loris
            .read_to_string(&mut response)
            .expect("read stall rejection");
        assert!(
            response.contains("\"code\":\"bad_frame\""),
            "slow-loris must be answered with a coded stall error: {response}"
        );
        driver.record_error_code(Some("bad_frame"));
    }
    // Health after the storm of abuse.
    let row = random_row(&mut rng);
    driver.submit(&server, row, None);
    let healthy = !driver.drain(&server).is_empty();
    assert!(healthy, "server must survive protocol abuse");

    let detail = vec![
        ("rounds", rounds.to_string()),
        ("mid_frame_disconnects", disconnects.to_string()),
        ("read_timeout_ms", "150".to_string()),
    ];
    let outcome = driver.outcome(
        "conn_chaos",
        "garbage/oversized/wrong-width frames, mid-frame disconnects, and a slow-loris stall interleaved with good traffic",
        TICK_MS,
        detail,
    );
    server.resume_batcher();
    server.shutdown_and_join();
    outcome
}

/// A worker in the shared prediction pool is chaos-killed (and another
/// briefly stalled) mid-campaign; pooled batch flushes must keep
/// answering through the catch-and-replace path.
fn scenario_worker_chaos(cfg: &ChaosConfig, pipeline: &Arc<Pipeline>) -> ScenarioOutcome {
    let mut rng = Rng64::seed_from(cfg.seed ^ 0xC0_0006);
    let server = Server::bind(
        Arc::clone(pipeline),
        FEATURES,
        "127.0.0.1:0",
        ServerConfig {
            engine: engine(cfg, 4),
            tuning: ServerTuning::default(),
        },
        None,
    )
    .expect("bind worker-chaos server");
    let mut driver = Driver::new(&server);
    let pool = boosthd_serve::pool::global();

    let burst = |driver: &mut Driver, rng: &mut Rng64| {
        for _ in 0..4 {
            let row = random_row(rng);
            driver.submit(&server, row, None);
        }
        driver.drain(&server).len() as u64
    };

    assert_eq!(burst(&mut driver, &mut rng), 4, "pre-fault burst");
    pool.inject_worker_panic();
    pool.inject_worker_stall(Duration::from_millis(50));
    let bursts = if cfg.quick { 2 } else { 4 };
    let mut served_after_fault = 0u64;
    for _ in 0..bursts {
        served_after_fault += burst(&mut driver, &mut rng);
    }
    // Leave the shared pool healthy for whoever runs next.
    pool.repair();

    let detail = vec![
        ("bursts_after_fault", bursts.to_string()),
        ("served_after_fault", served_after_fault.to_string()),
    ];
    let outcome = driver.outcome(
        "worker_chaos",
        "a pool worker is chaos-killed and another stalled; pooled flushes keep answering via catch-and-replace",
        TICK_MS,
        detail,
    );
    server.resume_batcher();
    server.shutdown_and_join();
    outcome
}

// ---------------------------------------------------------------------------
// Campaign entry point
// ---------------------------------------------------------------------------

/// Runs every chaos scenario in fixed order and assembles the report.
///
/// See the [module docs](self) for the determinism contract: the returned
/// report serializes to identical bytes for any `cfg.threads`.
pub fn run_campaign(cfg: &ChaosConfig) -> ResilienceReport {
    let pipeline = chaos_pipeline();
    let scenarios = vec![
        scenario_control(cfg, &pipeline),
        scenario_deadline_storm(cfg, &pipeline),
        scenario_overload_degrade(cfg, &pipeline),
        scenario_seu_reload(cfg, &pipeline),
        scenario_conn_chaos(cfg, &pipeline),
        scenario_worker_chaos(cfg, &pipeline),
    ];
    ResilienceReport {
        format_version: RESILIENCE_FORMAT_VERSION,
        seed: cfg.seed,
        quick: cfg.quick,
        scenarios,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_are_seed_deterministic_and_rate_bounded() {
        let mut a = Rng64::seed_from(5);
        let mut b = Rng64::seed_from(5);
        let xs = poisson_arrivals_per_tick(&mut a, 64, 1.0, 3.0, 12.0);
        let ys = poisson_arrivals_per_tick(&mut b, 64, 1.0, 3.0, 12.0);
        assert_eq!(xs, ys);
        let total: u32 = xs.iter().sum();
        assert!(total > 0, "a 64-tick window at rate >=1 must see arrivals");
        assert!(
            xs.iter().all(|&n| n <= 8),
            "per-tick counts stay near the envelope rate"
        );
    }

    #[test]
    fn report_json_is_stable_for_a_fixed_outcome() {
        let report = ResilienceReport {
            format_version: RESILIENCE_FORMAT_VERSION,
            seed: 7,
            quick: true,
            scenarios: vec![ScenarioOutcome {
                name: "control",
                description: "x",
                requests: 4,
                ok: 4,
                availability_pct: 100.0,
                p99_under_fault_ms: Some(40),
                recovery_time_ms: 0,
                errors: [0; TAXONOMY],
                detail: vec![("ticks", "8".into())],
            }],
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"availability_pct\": 100"));
        assert!(a.contains("\"deadline_exceeded\": 0"));
        assert!(a.contains("\"detail\": {\"ticks\": 8}"));
    }
}
