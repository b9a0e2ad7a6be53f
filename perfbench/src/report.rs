//! Result line, environment stamp and waterfall summary.

use linalg::kernels;

use crate::bench::CONNECTIONS;
use crate::deploy::Workload;
use crate::layers::{Compute, Engine, Wire};

/// Named metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.entries.push((name, value, unit));
    }
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Every reply equalled its in-process prediction.
    pub correct: bool,
    /// Requests sent.
    pub attempted: usize,
    /// Error, wrong or missing replies.
    pub failed: usize,
    /// Query-pool rows served at least once.
    pub distinct_rows: usize,
    /// Rows in the query pool.
    pub pool_rows: usize,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
    /// The run's metrics.
    pub metrics: Metrics,
}

/// A JSON number; non-finite values (no samples) print as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl Outcome {
    /// The result object, on one line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What the figures depend on besides the code.
#[derive(Debug, Clone)]
pub struct Env {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// `linalg::kernels::kernel_level()`.
    pub kernel_level: &'static str,
    /// `linalg::autotune::score_chunk()`, timed once per process.
    pub score_chunk: usize,
    /// `HDC_THREADS`, or `unset`.
    pub hdc_threads: String,
    /// The checkout's git revision, when it has one.
    pub git_rev: String,
}

impl Env {
    /// Reads the environment of this process.
    pub fn capture() -> Env {
        let raw = std::env::var("HDC_THREADS").unwrap_or_default();
        Env {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel_level: kernels::kernel_level().name(),
            score_chunk: linalg::autotune::score_chunk(),
            hdc_threads: if raw.is_empty() { "unset".into() } else { raw },
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
        }
    }

    /// One line naming every field.
    pub fn line(&self) -> String {
        format!(
            "env: available_parallelism={} kernel_level={} score_chunk={} HDC_THREADS={} git_rev={}",
            self.available_parallelism,
            self.kernel_level,
            self.score_chunk,
            self.hdc_threads,
            self.git_rev
        )
    }
}

/// The revision `.git/HEAD` names, read without running git.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.chars().take(12).collect());
    };
    let rev = std::fs::read_to_string(format!(".git/{reference}"))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })?;
    Some(rev.trim().chars().take(12).collect())
}

/// What the served path measured, for the waterfall.
#[derive(Debug, Clone, Copy)]
pub struct ServedPath {
    /// p50 at the nominal rate, ms.
    pub p50_ms: f64,
    /// Rows per flush at the nominal rate.
    pub batch_rows: f64,
    /// The rate-search result, requests/s.
    pub max_rps_at_slo: f64,
    /// Rows per second with every connection's window full.
    pub saturation_rps: f64,
    /// Rows per flush meanwhile.
    pub saturation_batch_rows: f64,
}

/// Prints the served-versus-in-process waterfall: one row per layer, from
/// kernel scoring up to loopback TCP.
pub fn print_waterfall(
    workload: Workload,
    env: &Env,
    compute: &Compute,
    wire: &Wire,
    engine: &Engine,
    served: ServedPath,
) {
    let per_s = |ns: f64| if ns > 0.0 { 1e9 / ns } else { 0.0 };
    let wire_ns = wire.parse_ns + wire.serialize_ns + wire.reply_parse_ns;
    let rows: [(&str, f64, String); 8] = [
        (
            "linalg matmul_transposed (32)",
            per_s(compute.score_ns_per_row),
            format!(
                "{:.0} ns/row, {:.0} B/row",
                compute.score_ns_per_row, compute.bytes_per_row
            ),
        ),
        (
            "hdc.encoder encode_batch_into (32)",
            per_s(compute.encode_ns_b32),
            format!(
                "{:.0} ns/row (batch 1: {:.0} ns)",
                compute.encode_ns_b32, compute.encode_ns_b1
            ),
        ),
        (
            "boosthd.pipeline predict (32)",
            per_s(compute.predict_ns_b32),
            format!(
                "{:.0} ns/row (batch 1: {:.1} us)",
                compute.predict_ns_b32, compute.predict_us_b1
            ),
        ),
        (
            "boosthd.pool chunked flush (32)",
            per_s(compute.flush_ns_b32),
            format!(
                "{:.0} ns/row, empty dispatch {:.1} us",
                compute.flush_ns_b32, compute.pool_dispatch_us
            ),
        ),
        (
            "serve.engine in-process batcher",
            engine.rows_per_s,
            format!("{:.2} rows/flush", engine.batch_rows_mean),
        ),
        (
            "serve.wire parse+serialize+reply",
            per_s(wire_ns),
            format!("{:.0} ns/row, {:.0} B/frame", wire_ns, wire.frame_bytes),
        ),
        (
            "serve.server TCP, windows full",
            served.saturation_rps,
            format!(
                "{CONNECTIONS} connections x {} in flight, {:.2} rows/flush",
                crate::bench::WINDOW,
                served.saturation_batch_rows
            ),
        ),
        (
            "serve.server TCP, p99 <= 25 ms",
            served.max_rps_at_slo,
            format!(
                "p50 {:.3} ms and {:.2} rows/flush at {} rps",
                served.p50_ms,
                served.batch_rows,
                crate::bench::NOMINAL_RPS
            ),
        ),
    ];
    println!(
        "waterfall {} ({} hardware threads, kernels {}):",
        workload.name(),
        env.available_parallelism,
        env.kernel_level
    );
    println!("  {:<36} {:>12}  detail", "layer", "rows/s");
    for (layer, rate, detail) in rows {
        println!("  {layer:<36} {rate:>12.0}  {detail}");
    }
}
