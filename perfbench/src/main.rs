//! `perfbench` — the serving benchmark of the BoostHD stack.
//!
//! Self-hosts a `boosthd_serve::server::Server` on loopback and drives it
//! with an open-loop Poisson generator (two connections, one sender and
//! one reply reader each), checking every served reply against the
//! in-process prediction for the same row.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gateway_ref --seed 1 --seconds 26 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays every
//! layer, serves the nominal rate with and without spans, prints the
//! per-layer waterfall and writes the spans under `.perfbench_out/`.
//! The last line of standard output is the result object.
//!
//! The percentile, SLO, rate-search, plan and span rules are unit-tested:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

mod bench;
mod deploy;
mod layers;
mod load;
mod plan;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use deploy::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(26),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload gateway_ref|gateway_wide|fleet_patients --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let work_root = PathBuf::from(".perfbench_work");
    let work_dir = work_root.join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let (outcome, env) = if args.trace {
        let trace_path = PathBuf::from(".perfbench_out").join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        bench::traced(
            args.workload,
            args.seed,
            args.seconds,
            &work_dir,
            &trace_path,
        )
    } else {
        bench::end_to_end(args.workload, args.seed, args.seconds, &work_dir)
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(&work_root);
    for note in &outcome.notes {
        eprintln!("[perfbench] failure: {note}");
    }
    println!("{}", env.line());
    println!(
        "served {} distinct of {} held-out rows; {} requests, {} failed",
        outcome.distinct_rows, outcome.pool_rows, outcome.attempted, outcome.failed
    );
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
