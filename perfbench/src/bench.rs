//! The two kinds of run: the untraced end-to-end run and the traced
//! layer-by-layer replay.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::time::{Duration, Instant};

use linalg::Matrix;

use crate::deploy::{deploy, Deployment, Workload};
use crate::layers;
use crate::load::{run_phase, Phase, PhaseResult, Probe, SwapWatch};
use crate::plan::{Planned, RequestStream};
use crate::report::{Env, Metrics, Outcome};
use crate::stats::{judge_stage, median, percentile_sorted, Digest, RateSearch, StagePoint, SLO};
use crate::trace::{Trace, Tracer};

/// Generator connections (one sender and one reader thread each).
pub const CONNECTIONS: usize = 2;
/// The fixed nominal rate latency is reported at, requests/s.
pub const NOMINAL_RPS: f64 = 100.0;
/// Requests in the latency phase: the most for which p99 is still the
/// highest percentile with 10 samples beyond it.
const LATENCY_REQUESTS: usize = 1_999;
/// Requests of the warm-up phase, at twice the nominal rate.
const WARMUP_REQUESTS: usize = 100;
/// Requests kept in flight per connection while saturating (the server's
/// `max_batch`).
pub const WINDOW: usize = 32;
/// Shortest saturation phase.
const MIN_SATURATION: Duration = Duration::from_secs(2);
/// Requests of the traced run's untraced nominal-rate phase: enough that
/// p99 has 10 samples beyond it.
const PLAIN_REQUESTS: usize = 1_000;
/// Requests of the traced run's traced nominal-rate phase.
const TRACED_REQUESTS: usize = 400;
/// Length of one rate-search stage.
const STAGE: Duration = Duration::from_millis(2_500);
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Interval between hot-swaps on `fleet_patients`.
const SWAP_EVERY: Duration = Duration::from_secs(1);

/// One hot-swap's timings.
#[derive(Debug, Clone, Copy)]
struct SwapSample {
    /// `ModelStore::append` of the new version, ms.
    append_ms: f64,
    /// `Fleet::refresh`, ms.
    refresh_ms: f64,
    /// Append start to the first reply carrying the new version, ms.
    swap_ms: f64,
    /// `Fleet::draining_count` right after the refresh.
    draining: usize,
    /// Stored size of the new record, bytes.
    record_bytes: u64,
}

/// Everything the served phases of one run add up to.
#[derive(Default)]
struct Served {
    all: PhaseResult,
    swaps: Vec<SwapSample>,
}

impl Served {
    fn absorb(&mut self, phase: PhaseResult, swaps: Vec<SwapSample>) {
        self.all.absorb(phase);
        self.swaps.extend(swaps);
    }

    fn outcome(&self, metrics: Metrics) -> Outcome {
        Outcome {
            correct: self.all.mismatches == 0 && self.all.unmatched == 0 && self.all.answered > 0,
            attempted: self.all.attempted(),
            failed: self.all.stage.failed,
            distinct_rows: self.all.served_rows.iter().filter(|&&s| s).count(),
            pool_rows: self.all.served_rows.len(),
            notes: self.all.failure_notes.clone(),
            metrics,
        }
    }
}

/// The hot-swap driver's fixed inputs.
struct Swapper<'a> {
    dep: &'a Deployment,
    watch: &'a SwapWatch,
    probe_rows: Vec<u32>,
}

impl Swapper<'_> {
    /// Publishes the next version of the hot patient, refreshes it, asks
    /// connection 0 to send a probe for it, and waits for the first reply
    /// that carries the new version.
    fn swap(&self, n: usize, probes: &Sender<Probe>, stop: &AtomicBool) -> Option<SwapSample> {
        let side = self.dep.fleet.as_ref()?;
        let patient = self.watch.patient as usize;
        let name = &self.dep.pool.patients[patient];
        let version = self.watch.latest.load(Ordering::SeqCst) + 1;
        let model = &side.models[side.subject_of(patient)][((version - 1) % 2) as usize];
        *self.watch.seen.lock().expect("swap watch") = None;
        self.watch.awaited.store(version, Ordering::SeqCst);
        self.watch.latest.store(version, Ordering::SeqCst);
        let started = Instant::now();
        side.fleet
            .store()
            .append(name, version, &[model])
            .expect("append a new version");
        let appended = Instant::now();
        side.fleet.refresh(name).expect("refresh the hot patient");
        let refreshed = Instant::now();
        let draining = side.fleet.draining_count();
        let row = self.probe_rows[n % self.probe_rows.len()];
        probes
            .send(Probe {
                row,
                patient: patient as u32,
            })
            .ok()?;
        let give_up = Instant::now() + Duration::from_secs(3);
        let seen = loop {
            if let Some(t) = *self.watch.seen.lock().expect("swap watch") {
                break Some(t);
            }
            if stop.load(Ordering::SeqCst) || Instant::now() > give_up {
                break None;
            }
            std::thread::sleep(Duration::from_micros(200));
        }?;
        let record_bytes = side
            .fleet
            .store()
            .entries()
            .iter()
            .find(|e| &e.model_id == name && e.version == version)
            .map_or(0, |e| e.total_len);
        let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
        Some(SwapSample {
            append_ms: ms(started, appended),
            refresh_ms: ms(appended, refreshed),
            swap_ms: ms(started, seen),
            draining,
            record_bytes,
        })
    }
}

/// A run's deployment plus the state its phases share.
struct Run<'a> {
    dep: &'a Deployment,
    /// Hot-swap once a second beside the reads (fleet only).
    swaps: bool,
    addr: String,
    stream: RequestStream,
    watch: SwapWatch,
    epoch: Instant,
}

impl<'a> Run<'a> {
    fn new(dep: &'a Deployment, seed: u64, epoch: Instant, swaps: bool) -> Run<'a> {
        let stream = RequestStream::new(&dep.pool, seed);
        let watch = SwapWatch {
            patient: stream.hot_patient().unwrap_or(0) as u32,
            ..SwapWatch::default()
        };
        watch.latest.store(1, Ordering::SeqCst);
        Run {
            addr: dep.server.local_addr().to_string(),
            dep,
            swaps,
            stream,
            watch,
            epoch,
        }
    }

    /// Runs `plans` (hot-swapping once a second when the run swaps) and
    /// returns the phase result with its swaps.
    fn phase(
        &mut self,
        plans: Vec<Vec<Planned>>,
        cap: usize,
        saturate: Option<Duration>,
        trace: bool,
    ) -> (PhaseResult, Vec<SwapSample>) {
        let last_due = plans
            .iter()
            .flat_map(|p| p.last())
            .map(|p| p.due_s)
            .fold(0.0f64, f64::max);
        let swapper = self
            .dep
            .fleet
            .as_ref()
            .filter(|_| self.swaps && saturate.is_none());
        let swapper = swapper.map(|side| Swapper {
            dep: self.dep,
            watch: &self.watch,
            probe_rows: self.dep.pool.rows_by_subject[side.subject_of(self.watch.patient as usize)]
                .iter()
                .map(|&r| r as u32)
                .collect(),
        });
        let (tx, rx) = channel();
        let stop = AtomicBool::new(false);
        let phase_start = Instant::now();
        std::thread::scope(|scope| {
            let swaps = scope.spawn(|| {
                let mut samples = Vec::new();
                let Some(swapper) = swapper else {
                    return samples;
                };
                let mut next = phase_start + SWAP_EVERY / 2;
                let mut n = 0;
                loop {
                    while Instant::now() < next {
                        if stop.load(Ordering::SeqCst) {
                            return samples;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    // Leave the probe time to land inside the schedule.
                    if next.saturating_duration_since(phase_start).as_secs_f64() + 0.5 > last_due {
                        return samples;
                    }
                    samples.extend(swapper.swap(n, &tx, &stop));
                    n += 1;
                    next += SWAP_EVERY;
                }
            });
            let result = run_phase(Phase {
                addr: &self.addr,
                pool: &self.dep.pool,
                plans,
                cap,
                saturate,
                trace,
                epoch: self.epoch,
                swap: Some(&self.watch).filter(|_| self.dep.fleet.is_some()),
                probes: Some(rx).filter(|_| self.dep.fleet.is_some()),
            });
            stop.store(true, Ordering::SeqCst);
            (result, swaps.join().expect("swap driver panicked"))
        })
    }

    /// An open-loop Poisson phase of `n` requests at `rate`.
    fn open_loop(
        &mut self,
        n: usize,
        rate: f64,
        cap: usize,
        trace: bool,
    ) -> (PhaseResult, Vec<SwapSample>) {
        let plans = self.stream.plan(n, rate, CONNECTIONS);
        self.phase(plans, cap, None, trace)
    }

    /// Keeps `WINDOW` requests in flight on every connection for
    /// `duration`; returns the phase, its answered rows per second and the
    /// server's rows per flush meanwhile.
    fn saturate(&mut self, duration: Duration) -> (PhaseResult, f64, f64) {
        // Far more requests than a run can send: the deadline ends it.
        let n = (20_000.0 * duration.as_secs_f64()) as usize;
        let plans = self.stream.plan(n, 1e9, CONNECTIONS);
        let before = self.dep.server.stats();
        let (mut phase, _) = self.phase(plans, WINDOW, Some(duration), false);
        let after = self.dep.server.stats();
        let rps = phase.answered as f64 / phase.elapsed.as_secs_f64().max(1e-9);
        let batch_rows = after.answered.saturating_sub(before.answered) as f64
            / after.batches.saturating_sub(before.batches).max(1) as f64;
        // Every send is due at once by design: lags and latencies here are
        // not the generator's or the SLO's, so only the checks are kept.
        phase.stage.lags_ms.clear();
        phase.stage.latencies_ms.clear();
        (phase, rps, batch_rows)
    }

    /// The `max_rps_at_slo` search, seeded with a phase already run at the
    /// nominal rate, within `budget`.
    fn search(&mut self, nominal: StagePoint, budget: Duration, served: &mut Served) -> f64 {
        let stages = budget.as_secs_f64() / (STAGE.as_secs_f64() + 0.3);
        let mut search = RateSearch::new(2.0 * NOMINAL_RPS, 2.0, stages.floor().max(2.0) as usize);
        search.seed(nominal);
        while let Some(rate) = search.next_rate() {
            let n = (rate * STAGE.as_secs_f64()).round().max(10.0) as usize;
            let (stage, swaps) = self.open_loop(n, rate, stage_cap(rate), false);
            let verdict = judge_stage(&stage.stage, rate, &SLO);
            let point = stage_point(&stage, rate, verdict.passed());
            eprintln!(
                "[perfbench] stage {rate:8.1} rps: {} ({} sent, {} answered, p99 {:.1} ms)",
                if verdict.passed() {
                    "pass".to_string()
                } else {
                    verdict.reasons.join(", ")
                },
                stage.stage.sent,
                stage.answered,
                point.p99_ms.unwrap_or(0.0),
            );
            search.report(point);
            served.absorb(stage, swaps);
        }
        let max_rps = search.best_offered().unwrap_or(0.0);
        eprintln!("[perfbench] highest passing stage {max_rps:.1} rps");
        max_rps
    }
}

/// In-flight cap per connection for a rate-search stage: far above what
/// a passing stage holds, low enough that a failing one stops quickly.
fn stage_cap(rate: f64) -> usize {
    8 + (rate / CONNECTIONS as f64 * 0.1) as usize
}

/// A judged stage as the rate search keeps it.
fn stage_point(phase: &PhaseResult, rate: f64, passed: bool) -> StagePoint {
    let mut sorted = phase.stage.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    StagePoint {
        offered: rate,
        p99_ms: (!sorted.is_empty()).then(|| percentile_sorted(&sorted, 99.0)),
        passed,
    }
}

/// Peak resident set size, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced end-to-end run: set up `SETUPS` times, then latency at
/// the nominal rate and pipelined saturation on the last deployment.
///
/// Hot-swaps run in the traced run only: each is an fsync-bound store
/// append that blocks registry misses for its duration, so with them the
/// latency figures here would follow the disk's fsync latency.
pub fn end_to_end(workload: Workload, seed: u64, seconds: u64, work_dir: &Path) -> (Outcome, Env) {
    let epoch = Instant::now();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut dep: Option<Deployment> = None;
    for _ in 0..SETUPS {
        if let Some(old) = dep.take() {
            old.server.shutdown_and_join();
        }
        let d = deploy(workload, seed, work_dir);
        eprintln!(
            "[perfbench] set-up: generate {:.3} s, fit {:.3} s, publish {:.1} ms, ready after {:.3} s (setup_s {:.3})",
            d.setup.generate_s,
            d.setup.fit_s,
            d.setup.publish_ms,
            d.setup.total_s,
            d.setup.setup_s()
        );
        setups.push(d.setup.setup_s());
        dep = Some(d);
    }
    let dep = dep.expect("at least one set-up");
    let env = Env::capture();
    let measure_start = Instant::now();
    let mut run = Run::new(&dep, seed, epoch, false);
    let mut served = Served::default();

    // Warm-up: lazy set-up and caches, checked but not timed.
    let (warm, swaps) = run.open_loop(WARMUP_REQUESTS, 2.0 * NOMINAL_RPS, 1_000, false);
    served.absorb(warm, swaps);

    let (latency, swaps) = run.open_loop(LATENCY_REQUESTS, NOMINAL_RPS, 1_000, false);
    let digest = Digest::of(&latency.stage.latencies_ms);
    served.absorb(latency, swaps);

    let left = Duration::from_secs(seconds).saturating_sub(measure_start.elapsed());
    let (saturation, saturation_rps, batch_rows) = run.saturate(left.max(MIN_SATURATION));
    served.absorb(saturation, Vec::new());
    drop(run);
    dep.server.shutdown_and_join();

    // Too few answers for a median is as bad as latency gets.
    let d = digest.unwrap_or(Digest {
        n: 0,
        p50: f64::MAX,
        p90: f64::MAX,
        tail_q: 0.0,
        tail: f64::MAX,
    });
    println!("{}", latency_line(&d));
    println!("saturated: {saturation_rps:.1} rows/s at {batch_rows:.2} rows/flush");
    let mut metrics = Metrics::default();
    metrics.push("setup_s", median(&setups), "s");
    metrics.push("p50_ms", d.p50, "ms");
    metrics.push("saturation_rps", saturation_rps, "1/s");
    let attempted = served.all.attempted().max(1) as f64;
    metrics.push(
        "ok_pct",
        100.0 * (attempted - served.all.stage.failed as f64) / attempted,
        "%",
    );
    metrics.push(
        "accuracy_pct",
        100.0 * served.all.correct as f64 / served.all.answered.max(1) as f64,
        "%",
    );
    metrics.push("peak_rss_mb", peak_rss_mb(), "MB");
    (served.outcome(metrics), env)
}

/// The latency summary line: median, p90 and the highest percentile with
/// ten samples beyond it, with the sample count.
fn latency_line(d: &Digest) -> String {
    format!(
        "latency at {NOMINAL_RPS} rps over {} samples: p50 {:.3} ms, p90 {:.3} ms, p{} {:.3} ms",
        d.n, d.p50, d.p90, d.tail_q, d.tail
    )
}

/// The traced run: set up once, replay every layer, serve the nominal
/// rate untraced and then traced, search `max_rps_at_slo`, and saturate.
pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: u64,
    work_dir: &Path,
    trace_path: &Path,
) -> (Outcome, Env) {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, true);
    let dep = deploy(workload, seed, work_dir);
    let env = Env::capture();
    let measure_start = Instant::now();
    let mut run = Run::new(&dep, seed, epoch, true);
    let threads = boosthd::parallel::default_threads();

    // Layer replays on the workload's own model, rows and stream.
    let rows = Matrix::from_rows(&dep.pool.rows).expect("pool rows");
    let compute = layers::compute(&mut tracer, &dep.model, &rows, threads);
    let mut replay_stream = RequestStream::new(&dep.pool, seed);
    let requests: Vec<(u32, u32)> = (0..512).map(|_| replay_stream.next_request()).collect();
    let wire = layers::wire(&mut tracer, &dep.pool, &requests);
    let engine = layers::engine(&mut tracer, &dep.model, &dep.pool, 2_048);
    let fleet = dep.fleet.as_ref().map(|side| {
        let patients: Vec<u32> = (0..3_000).map(|_| replay_stream.next_request().1).collect();
        layers::fleet(&mut tracer, &side.store_path, &dep.pool.patients, &patients)
    });
    eprintln!(
        "[perfbench] layer replay took {:.1} s",
        measure_start.elapsed().as_secs_f64()
    );

    // Served: the nominal rate untraced, then traced; the rate search;
    // saturation.
    let mut served = Served::default();
    let (warm, swaps) = run.open_loop(WARMUP_REQUESTS, 2.0 * NOMINAL_RPS, 1_000, false);
    served.absorb(warm, swaps);
    let (plain, swaps) = run.open_loop(PLAIN_REQUESTS, NOMINAL_RPS, 1_000, false);
    let plain_p50 = median(&plain.stage.latencies_ms);
    let plain_digest = Digest::of(&plain.stage.latencies_ms);
    if let Some(d) = &plain_digest {
        println!("{}", latency_line(d));
    }
    let nominal = stage_point(
        &plain,
        NOMINAL_RPS,
        judge_stage(&plain.stage, NOMINAL_RPS, &SLO).passed(),
    );
    served.absorb(plain, swaps);
    let before = dep.server.stats();
    let (traced, swaps) = run.open_loop(TRACED_REQUESTS, NOMINAL_RPS, 1_000, true);
    let after = dep.server.stats();
    let traced_p50 = median(&traced.stage.latencies_ms);
    served.absorb(traced, swaps);
    let budget = Duration::from_secs(seconds)
        .saturating_sub(measure_start.elapsed())
        .saturating_sub(MIN_SATURATION);
    let max_rps = run.search(nominal, budget, &mut served);
    let (saturation, saturation_rps, saturation_batch_rows) = run.saturate(MIN_SATURATION);
    served.absorb(saturation, Vec::new());
    let mut trace = Trace::default();
    trace.absorb(tracer.into_spans());
    trace.absorb(std::mem::take(&mut served.all.spans));
    drop(run);
    let setup = dep.setup;
    dep.server.shutdown_and_join();

    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let answered = d(before.answered, after.answered);
    let batch_rows = answered / d(before.batches, after.batches).max(1.0);
    let lags = &served.all.stage.lags_ms;
    let mut m = Metrics::default();
    m.push("wearables.generate_s", setup.generate_s, "s");
    m.push("boosthd.fit_s", setup.fit_s, "s");
    m.push("fleet.publish_ms", setup.publish_ms, "ms");
    m.push(
        "linalg.kernels.score_ns_per_row",
        compute.score_ns_per_row,
        "ns",
    );
    m.push("linalg.kernels.bytes_per_row", compute.bytes_per_row, "B");
    m.push(
        "hdc.encoder.encode_ns_per_row.b1",
        compute.encode_ns_b1,
        "ns",
    );
    m.push(
        "hdc.encoder.encode_ns_per_row.b32",
        compute.encode_ns_b32,
        "ns",
    );
    m.push(
        "boosthd.pipeline.predict_us.b1",
        compute.predict_us_b1,
        "us",
    );
    m.push(
        "boosthd.pipeline.predict_ns_per_row.b32",
        compute.predict_ns_b32,
        "ns",
    );
    m.push("boosthd.pool.dispatch_us", compute.pool_dispatch_us, "us");
    m.push(
        "boosthd.pool.flush_ns_per_row.b32",
        compute.flush_ns_b32,
        "ns",
    );
    m.push("serve.wire.parse_ns", wire.parse_ns, "ns");
    m.push("serve.wire.serialize_ns", wire.serialize_ns, "ns");
    m.push("serve.wire.reply_parse_ns", wire.reply_parse_ns, "ns");
    m.push("serve.wire.frame_bytes", wire.frame_bytes, "B");
    m.push("serve.engine.rows_per_s", engine.rows_per_s, "1/s");
    m.push(
        "serve.engine.batch_rows_mean",
        engine.batch_rows_mean,
        "rows",
    );
    m.push("serve.server.batch_rows_mean", batch_rows, "rows");
    m.push("serve.server.answered", answered, "count");
    m.push(
        "serve.server.batches",
        d(before.batches, after.batches),
        "count",
    );
    m.push("serve.server.shed", d(before.shed, after.shed), "count");
    m.push(
        "serve.server.deadline_exceeded",
        d(before.deadline_exceeded, after.deadline_exceeded),
        "count",
    );
    m.push(
        "serve.server.protocol_errors",
        d(before.protocol_errors, after.protocol_errors),
        "count",
    );
    m.push(
        "serve.server.unknown_model",
        d(before.unknown_model, after.unknown_model),
        "count",
    );
    m.push(
        "serve.server.noncompute_p50_ms",
        plain_p50 - compute.predict_us_b1 / 1e3,
        "ms",
    );
    m.push(
        "serve.latency.p90_ms",
        plain_digest.map_or(f64::MAX, |d| d.p90),
        "ms",
    );
    m.push(
        "serve.latency.p99_ms",
        plain_digest.map_or(f64::MAX, |d| d.tail),
        "ms",
    );
    m.push("serve.server.max_rps_at_slo", max_rps, "1/s");
    m.push("serve.server.saturation_rows_per_s", saturation_rps, "1/s");
    m.push(
        "serve.server.saturation_batch_rows_mean",
        saturation_batch_rows,
        "rows",
    );
    let f = fleet.unwrap_or_default();
    let swaps = &served.swaps;
    let swap_median = |g: fn(&SwapSample) -> f64| {
        if swaps.is_empty() {
            0.0
        } else {
            median(&swaps.iter().map(g).collect::<Vec<_>>())
        }
    };
    m.push("fleet.get_hit_ratio", f.hit_ratio, "ratio");
    m.push("fleet.get_hit_us", f.hit_us, "us");
    m.push("fleet.readmit_ms.p50", f.readmit_p50_ms, "ms");
    m.push("fleet.readmit_ms.p99", f.readmit_p99_ms, "ms");
    m.push("fleet.evictions", f.evictions, "count");
    m.push("fleet.refresh_ms", swap_median(|s| s.refresh_ms), "ms");
    m.push("fleet.store.append_ms", swap_median(|s| s.append_ms), "ms");
    m.push("fleet.swap_ms", swap_median(|s| s.swap_ms), "ms");
    m.push(
        "fleet.draining_max",
        swaps.iter().map(|s| s.draining).max().unwrap_or(0) as f64,
        "count",
    );
    m.push("fleet.swaps", swaps.len() as f64, "count");
    m.push(
        "fleet.record_bytes",
        swap_median(|s| s.record_bytes as f64),
        "B",
    );
    let mut sorted_lags = lags.clone();
    sorted_lags.sort_by(f64::total_cmp);
    m.push(
        "gen.lag_p99_ms",
        if sorted_lags.is_empty() {
            0.0
        } else {
            percentile_sorted(&sorted_lags, 99.0)
        },
        "ms",
    );
    m.push(
        "gen.late_sends",
        lags.iter().filter(|&&l| l > SLO.late_ms).count() as f64,
        "count",
    );
    m.push(
        "gen.distinct_rows",
        served.all.served_rows.iter().filter(|&&s| s).count() as f64,
        "count",
    );
    m.push(
        "trace.overhead_pct",
        100.0 * (traced_p50 / plain_p50 - 1.0),
        "%",
    );

    eprintln!("[perfbench] {} spans", trace.len());
    if let Some(parent) = trace_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let written = std::fs::write(
        trace_path,
        format!("{{\"env\":\"{}\"}}\n{}", env.line(), trace.to_json_lines()),
    );
    if let Err(e) = written {
        eprintln!("[perfbench] could not write {}: {e}", trace_path.display());
    }
    crate::report::print_waterfall(
        workload,
        &env,
        &compute,
        &wire,
        &engine,
        crate::report::ServedPath {
            p50_ms: plain_p50,
            batch_rows,
            max_rps_at_slo: max_rps,
            saturation_rps,
            saturation_batch_rows,
        },
    );
    (served.outcome(m), env)
}
