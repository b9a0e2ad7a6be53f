//! `hdrun` — train, evaluate, and serve any model of the reproduction from
//! one declarative TOML spec file.
//!
//! The spec file has up to three tables:
//!
//! * `[model]` — a [`boosthd::ModelSpec`] (see `specs/wesad_boosthd.toml`
//!   for the full key set);
//! * `[dataset]` — which synthetic wearable profile to generate and how to
//!   split it (`profile`, `subjects`, `windows_per_state`,
//!   `window_samples`, `segments`, `seed`, `test_fraction`);
//! * `[serve]` — micro-batching and reliability gating for the serving
//!   engine (`max_batch`, `max_wait_ms`, `threads`, `abstain_threshold`,
//!   `windows`, `hop_samples`), plus network-mode knobs (`queue_depth`,
//!   `backpressure` = `"shed"`/`"block"`, `max_frame_bytes`) and
//!   resilience knobs (`deadline_ms`, `read_timeout_ms`, `retry_after_ms`,
//!   `drain_deadline_ms`, `degrade` + `degrade_high_depth` /
//!   `degrade_low_depth` / `degrade_after` / `recover_after`,
//!   `watchdog_interval_ms`, `model_check_interval_ms`, `canary_rows` —
//!   see the annotated `specs/wesad_boosthd.toml`).
//!
//! Campaign spec files (`hdrun campaign`) additionally hold one or more
//! model tables (`[model]`, `[model-1]`, ...), one or more `[scenario]` /
//! `[scenario-N]` tables (see [`reliability::campaign`]), an optional
//! `[campaign]` header (`name`, `seed`, `trials`, `abstain_threshold`),
//! and an optional `[stream]` table that measures live micro-batched
//! degradation (`windows`, `hop_samples`, `max_batch`, `model`, `seed`,
//! plus a sensor `fault` + `severity`).
//!
//! Subcommands:
//!
//! ```text
//! hdrun train    --spec <file> [--out <model.bhde>]   # fit + evaluate (+ save envelope)
//! hdrun eval     --spec <file> --model <model.bhde>   # load + evaluate + confidence report
//! hdrun serve    --spec <file> --model <model.bhde>   # load + stream windows through the engine
//! hdrun serve    --spec <file> --model <model.bhde> --listen 127.0.0.1:7878
//!                                                     # network mode: JSON-lines over TCP
//! hdrun campaign <spec.toml> [--out <report.json>] [--threads N]
//!                                                     # deterministic reliability sweep
//! hdrun chaos    [--out <report.json>] [--threads N] [--seed N] [--quick]
//!                                                     # serving chaos campaign -> BENCH_resilience.json
//! hdrun fleet add   --store <models.bhfs> --spec <f> --id <name> [--version N] [--ladder]
//! hdrun fleet list  --store <models.bhfs>             # index: model, version, tiers, bytes
//! hdrun fleet serve --store <models.bhfs> --spec <f> --listen <addr:port>
//!                   [--max-resident N] [--pin a,b]    # registry-routed TCP serving
//! ```
//!
//! `fleet add` fits the spec's model and appends it to an append-only
//! BHFS model store ([`boosthd::fleet::ModelStore`]); `--ladder` also
//! publishes the refit-free int8 and 1-bit degrade siblings under the
//! same version so the whole ladder hot-swaps as one unit. `fleet serve`
//! routes predict frames carrying `"model"` through the LRU registry
//! ([`boosthd::fleet::Fleet`]) — re-running `fleet add` for a served id
//! and letting the server refresh hot-swaps versions with zero failed
//! requests.
//!
//! `eval` and `serve` regenerate the dataset from the `[dataset]` seed, so
//! the normalization fitted on the training split is reproduced exactly and
//! a loaded envelope scores bit-identically to the model that was saved.
//! `campaign` reports are byte-identical for any `--threads` value (the
//! engine pre-forks every cell's RNG from the spec).

use std::error::Error;
use std::process::ExitCode;
use std::time::Duration;

use boosthd::toml::TomlDoc;
use boosthd::{BoostHdError, ModelSpec, Pipeline};
use boosthd_repro::serve::fleet::{Fleet, FleetConfig, ModelStore};
use boosthd_repro::serve::server::{
    fleet_ladder, Backpressure, Server, ServerConfig, ServerTuning,
};
use boosthd_repro::serve::{EngineConfig, InferenceEngine};
use eval_harness::metrics::accuracy;
use linalg::Matrix;
use reliability::campaign::{Campaign, CampaignData, CampaignSpec};
use wearables::dataset::normalize_pair;
use wearables::preprocess::Normalizer;
use wearables::streaming::WindowStream;
use wearables::{Dataset, DatasetProfile};

fn usage() -> &'static str {
    "usage:\n  hdrun train --spec <file> [--out <model.bhde>]\n  hdrun eval  --spec <file> --model <model.bhde>\n  hdrun serve --spec <file> --model <model.bhde> [--listen <addr:port>]\n  hdrun campaign <spec.toml> [--out <report.json>] [--threads N]\n  hdrun chaos [--out <report.json>] [--threads N] [--seed N] [--quick]\n  hdrun fleet add   --store <models.bhfs> --spec <file> --id <name> [--version N] [--ladder]\n  hdrun fleet list  --store <models.bhfs>\n  hdrun fleet serve --store <models.bhfs> --spec <file> --listen <addr:port> [--max-resident N] [--pin a,b]"
}

struct Args {
    command: String,
    spec: Option<String>,
    model: Option<String>,
    out: Option<String>,
    threads: Option<usize>,
    listen: Option<String>,
    seed: Option<u64>,
    quick: bool,
    store: Option<String>,
    id: Option<String>,
    version: Option<u64>,
    ladder: bool,
    max_resident: Option<usize>,
    pin: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().collect();
    let mut command = argv.get(1).cloned().ok_or_else(|| usage().to_string())?;
    let mut i = 2;
    if command == "fleet" {
        // `hdrun fleet add|list|serve ...` — fold the subcommand in.
        let sub = argv
            .get(2)
            .cloned()
            .ok_or_else(|| format!("fleet needs a subcommand\n{}", usage()))?;
        command = format!("fleet {sub}");
        i = 3;
    }
    let mut args = Args {
        command,
        spec: None,
        model: None,
        out: None,
        threads: None,
        listen: None,
        seed: None,
        quick: false,
        store: None,
        id: None,
        version: None,
        ladder: false,
        max_resident: None,
        pin: Vec::new(),
    };
    while i < argv.len() {
        let take = |i: usize| -> Result<String, String> {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value\n{}", argv[i], usage()))
        };
        match argv[i].as_str() {
            "--spec" => args.spec = Some(take(i)?),
            "--model" => args.model = Some(take(i)?),
            "--out" => args.out = Some(take(i)?),
            "--listen" => args.listen = Some(take(i)?),
            "--threads" => {
                let v = take(i)?;
                args.threads =
                    Some(v.parse::<usize>().ok().filter(|&t| t > 0).ok_or_else(|| {
                        format!("--threads needs a positive integer, got `{v}`\n{}", usage())
                    })?);
            }
            "--seed" => {
                let v = take(i)?;
                args.seed = Some(v.parse::<u64>().map_err(|_| {
                    format!("--seed needs an unsigned integer, got `{v}`\n{}", usage())
                })?);
            }
            "--quick" => {
                args.quick = true;
                i -= 1; // flag: no value to skip
            }
            "--store" => args.store = Some(take(i)?),
            "--id" => args.id = Some(take(i)?),
            "--version" => {
                let v = take(i)?;
                args.version = Some(v.parse::<u64>().map_err(|_| {
                    format!(
                        "--version needs an unsigned integer, got `{v}`\n{}",
                        usage()
                    )
                })?);
            }
            "--ladder" => {
                args.ladder = true;
                i -= 1; // flag: no value to skip
            }
            "--max-resident" => {
                let v = take(i)?;
                args.max_resident = Some(v.parse::<usize>().map_err(|_| {
                    format!(
                        "--max-resident needs an unsigned integer, got `{v}`\n{}",
                        usage()
                    )
                })?);
            }
            "--pin" => {
                args.pin = take(i)?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            positional if !positional.starts_with('-') && args.spec.is_none() => {
                // `hdrun campaign specs/foo.toml` reads naturally.
                args.spec = Some(positional.to_string());
                i -= 1;
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
        i += 2;
    }
    Ok(args)
}

/// The `[dataset]` table resolved against the named base profile.
struct DatasetSpec {
    profile: DatasetProfile,
    seed: u64,
    test_fraction: f64,
}

fn dataset_spec(doc: &TomlDoc) -> Result<DatasetSpec, BoostHdError> {
    let invalid = |reason: String| BoostHdError::InvalidConfig { reason };
    let table = doc.table("dataset");
    let name = match table {
        Some(t) if t.get("profile").is_some() => t.get_str("profile")?.to_string(),
        _ => "wesad_like".to_string(),
    };
    let mut profile = match name.as_str() {
        "wesad_like" => wearables::profiles::wesad_like(),
        "nurse_like" => wearables::profiles::nurse_like(),
        "stress_predict_like" => wearables::profiles::stress_predict_like(),
        other => return Err(invalid(format!("unknown dataset profile `{other}`"))),
    };
    let mut seed = 42u64;
    let mut test_fraction = 0.3f64;
    if let Some(t) = table {
        for key in t.keys() {
            if !matches!(
                key,
                "profile"
                    | "subjects"
                    | "windows_per_state"
                    | "window_samples"
                    | "segments"
                    | "seed"
                    | "test_fraction"
            ) {
                return Err(invalid(format!("unknown key `{key}` in [dataset]")));
            }
        }
        if t.get("subjects").is_some() {
            profile.subjects = t.get_usize("subjects")?;
        }
        if t.get("windows_per_state").is_some() {
            profile.windows_per_state = t.get_usize("windows_per_state")?;
        }
        if t.get("window_samples").is_some() {
            profile.window_samples = t.get_usize("window_samples")?;
        }
        if t.get("segments").is_some() {
            profile.segments = t.get_usize("segments")?;
        }
        if t.get("seed").is_some() {
            seed = t.get_u64("seed")?;
        }
        if t.get("test_fraction").is_some() {
            test_fraction = t.get_float("test_fraction")?;
            if !(0.0..1.0).contains(&test_fraction) {
                return Err(invalid(format!(
                    "test_fraction must be in [0, 1), got {test_fraction}"
                )));
            }
        }
    }
    Ok(DatasetSpec {
        profile,
        seed,
        test_fraction,
    })
}

/// The `[serve]` table.
struct ServeSpec {
    max_batch: usize,
    max_wait: Duration,
    threads: Option<usize>,
    abstain_threshold: f32,
    windows: usize,
    hop_samples: usize,
    tuning: ServerTuning,
}

fn serve_spec(doc: &TomlDoc, default_hop: usize) -> Result<ServeSpec, BoostHdError> {
    let invalid = |reason: String| BoostHdError::InvalidConfig { reason };
    let mut spec = ServeSpec {
        max_batch: EngineConfig::default().max_batch,
        max_wait: EngineConfig::default().max_wait,
        threads: None,
        abstain_threshold: 0.0,
        windows: 200,
        hop_samples: default_hop,
        tuning: ServerTuning::default(),
    };
    let Some(t) = doc.table("serve") else {
        return Ok(spec);
    };
    for key in t.keys() {
        if !matches!(
            key,
            "max_batch"
                | "max_wait_ms"
                | "threads"
                | "abstain_threshold"
                | "windows"
                | "hop_samples"
                | "queue_depth"
                | "backpressure"
                | "max_frame_bytes"
                | "deadline_ms"
                | "read_timeout_ms"
                | "retry_after_ms"
                | "drain_deadline_ms"
                | "degrade"
                | "degrade_high_depth"
                | "degrade_low_depth"
                | "degrade_after"
                | "recover_after"
                | "watchdog_interval_ms"
                | "model_check_interval_ms"
                | "canary_rows"
        ) {
            return Err(invalid(format!("unknown key `{key}` in [serve]")));
        }
    }
    if t.get("max_batch").is_some() {
        spec.max_batch = t.get_usize("max_batch")?;
    }
    if t.get("max_wait_ms").is_some() {
        spec.max_wait = Duration::from_millis(t.get_u64("max_wait_ms")?);
    }
    if t.get("threads").is_some() {
        spec.threads = Some(t.get_usize("threads")?);
    }
    if t.get("abstain_threshold").is_some() {
        spec.abstain_threshold = t.get_float("abstain_threshold")? as f32;
    }
    if t.get("windows").is_some() {
        spec.windows = t.get_usize("windows")?;
    }
    if t.get("hop_samples").is_some() {
        spec.hop_samples = t.get_usize("hop_samples")?;
    }
    if t.get("queue_depth").is_some() {
        spec.tuning.queue_depth = t.get_usize("queue_depth")?.max(1);
    }
    if t.get("backpressure").is_some() {
        let tag = t.get_str("backpressure")?;
        spec.tuning.backpressure = Backpressure::from_tag(tag).ok_or_else(|| {
            invalid(format!(
                "[serve] backpressure must be shed|block, got `{tag}`"
            ))
        })?;
    }
    if t.get("max_frame_bytes").is_some() {
        spec.tuning.max_frame_bytes = t.get_usize("max_frame_bytes")?.max(64);
    }
    if t.get("deadline_ms").is_some() {
        // 0 means "no default deadline" so specs can disable it explicitly.
        spec.tuning.deadline_ms = match t.get_u64("deadline_ms")? {
            0 => None,
            ms => Some(ms),
        };
    }
    if t.get("read_timeout_ms").is_some() {
        spec.tuning.read_timeout_ms = t.get_u64("read_timeout_ms")?;
    }
    if t.get("retry_after_ms").is_some() {
        spec.tuning.retry_after_ms = t.get_u64("retry_after_ms")?;
    }
    if t.get("drain_deadline_ms").is_some() {
        spec.tuning.drain_deadline_ms = t.get_u64("drain_deadline_ms")?;
    }
    if t.get("degrade").is_some() {
        spec.tuning.degrade.enabled = t.get_bool("degrade")?;
    }
    if t.get("degrade_high_depth").is_some() {
        spec.tuning.degrade.high_depth = t.get_usize("degrade_high_depth")?.max(1);
    }
    if t.get("degrade_low_depth").is_some() {
        spec.tuning.degrade.low_depth = t.get_usize("degrade_low_depth")?;
    }
    if t.get("degrade_after").is_some() {
        spec.tuning.degrade.degrade_after = t.get_usize("degrade_after")?.max(1) as u32;
    }
    if t.get("recover_after").is_some() {
        spec.tuning.degrade.recover_after = t.get_usize("recover_after")?.max(1) as u32;
    }
    if t.get("watchdog_interval_ms").is_some() {
        spec.tuning.watchdog_interval_ms = t.get_u64("watchdog_interval_ms")?;
    }
    if t.get("model_check_interval_ms").is_some() {
        spec.tuning.model_check_interval_ms = t.get_u64("model_check_interval_ms")?;
    }
    if t.get("canary_rows").is_some() {
        spec.tuning.canary_rows = t.get_usize("canary_rows")?;
    }
    Ok(spec)
}

fn load_doc(path: &str) -> Result<TomlDoc, Box<dyn Error>> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec file {path}: {e}"))?;
    Ok(TomlDoc::parse(&text)?)
}

/// Regenerates the `[dataset]` cohort and its normalized subject-wise
/// split (deterministic in the spec, so `eval`/`serve` see exactly the
/// training-time feature space).
fn prepare(ds: &DatasetSpec) -> Result<(Dataset, Dataset), Box<dyn Error>> {
    let data = wearables::generate(&ds.profile, ds.seed)?;
    let (train, test) = data.split_by_subject_fraction(ds.test_fraction, ds.seed ^ 0x5117)?;
    Ok(normalize_pair(&train, &test)?)
}

fn confidence_report(pipeline: &Pipeline, x: &Matrix, y: &[usize]) -> String {
    let predictions = pipeline.predict_batch_with_confidence(x);
    let n = predictions.len().max(1);
    let mean_conf: f32 = predictions.iter().map(|p| p.confidence).sum::<f32>() / n as f32;
    let abstained = predictions.iter().filter(|p| p.abstained).count();
    let kept: Vec<(usize, usize)> = predictions
        .iter()
        .zip(y)
        .filter(|(p, _)| !p.abstained)
        .map(|(p, &t)| (p.class, t))
        .collect();
    let kept_acc = if kept.is_empty() {
        f64::NAN
    } else {
        kept.iter().filter(|(p, t)| p == t).count() as f64 / kept.len() as f64 * 100.0
    };
    format!(
        "mean confidence {mean_conf:.3} | abstained {abstained}/{} (threshold {:.2}) | accuracy on kept {kept_acc:.2}%",
        predictions.len(),
        pipeline.abstain_threshold()
    )
}

fn cmd_train(spec_path: &str, out: Option<&str>) -> Result<(), Box<dyn Error>> {
    let doc = load_doc(spec_path)?;
    let model_table = doc
        .table("model")
        .ok_or_else(|| format!("spec file {spec_path} has no [model] table"))?;
    let model_spec = ModelSpec::from_toml_table(model_table)?;
    let ds = dataset_spec(&doc)?;
    let sv = serve_spec(&doc, ds.profile.window_samples)?;
    let (train, test) = prepare(&ds)?;
    eprintln!(
        "[hdrun] {}: train {} x {} features, test {}, model {}",
        ds.profile.name,
        train.len(),
        train.num_features(),
        test.len(),
        model_spec.display_name()
    );
    let started = std::time::Instant::now();
    let pipeline = Pipeline::fit(&model_spec, train.features(), train.labels())?
        .with_abstain_threshold(sv.abstain_threshold);
    let fit_secs = started.elapsed().as_secs_f64();
    let train_acc = accuracy(&pipeline.predict_batch(train.features()), train.labels()) * 100.0;
    let test_acc = accuracy(&pipeline.predict_batch(test.features()), test.labels()) * 100.0;
    println!(
        "train: {} fitted in {fit_secs:.2}s | train acc {train_acc:.2}% | test acc {test_acc:.2}%",
        model_spec.display_name()
    );
    println!(
        "confidence: {}",
        confidence_report(&pipeline, test.features(), test.labels())
    );
    if let Some(out) = out {
        pipeline.save(out)?;
        println!(
            "saved envelope to {out} ({} bytes)",
            std::fs::metadata(out)?.len()
        );
    }
    Ok(())
}

fn cmd_eval(spec_path: &str, model_path: &str) -> Result<(), Box<dyn Error>> {
    let doc = load_doc(spec_path)?;
    let ds = dataset_spec(&doc)?;
    let (train, test) = prepare(&ds)?;
    let pipeline = Pipeline::load(model_path)?;
    eprintln!(
        "[hdrun] loaded {} from {model_path}",
        pipeline.spec().display_name()
    );
    let train_acc = accuracy(&pipeline.predict_batch(train.features()), train.labels()) * 100.0;
    let test_acc = accuracy(&pipeline.predict_batch(test.features()), test.labels()) * 100.0;
    println!(
        "eval: {} | train acc {train_acc:.2}% | test acc {test_acc:.2}%",
        pipeline.spec().display_name()
    );
    println!(
        "confidence: {}",
        confidence_report(&pipeline, test.features(), test.labels())
    );
    Ok(())
}

fn cmd_serve(
    spec_path: &str,
    model_path: &str,
    listen: Option<&str>,
) -> Result<(), Box<dyn Error>> {
    let doc = load_doc(spec_path)?;
    let ds = dataset_spec(&doc)?;
    let sv = serve_spec(&doc, ds.profile.window_samples)?;
    let pipeline = Pipeline::load(model_path)?;
    eprintln!(
        "[hdrun] serving {} from {model_path}",
        pipeline.spec().display_name()
    );
    // The serving-side normalizer is fitted on the training split the
    // model saw, reproduced from the [dataset] seed.
    let (train, _test) = prepare(&ds)?;
    let normalizer = Normalizer::fit(train.features())?;

    if let Some(addr) = listen {
        return serve_network(pipeline, normalizer, train.num_features(), addr, &sv);
    }

    let stream = WindowStream::new(&ds.profile, sv.hop_samples, ds.seed ^ 0x57EA)?;
    let engine = InferenceEngine::with_config(
        &pipeline,
        EngineConfig {
            max_batch: sv.max_batch,
            max_wait: sv.max_wait,
            threads: sv.threads,
            ..EngineConfig::default()
        },
    );
    // Normalize each window once; the engine and the confidence report
    // below must see the exact same rows.
    let mut rows: Vec<Vec<f32>> = Vec::new();
    let (windows, outcome) = engine.serve_windows(stream.take(sv.windows), |w| {
        let row = Matrix::from_rows(std::slice::from_ref(&w.features)).expect("window row");
        let normalized = normalizer.apply(&row).row(0).to_vec();
        rows.push(normalized.clone());
        normalized
    });
    let correct = outcome
        .predictions
        .iter()
        .zip(&windows)
        .filter(|(p, w)| **p == w.state.label())
        .count();
    println!("serve: {}", outcome.stats.report());
    println!(
        "accuracy over {} streamed windows: {:.2}%",
        windows.len(),
        correct as f64 / windows.len().max(1) as f64 * 100.0
    );
    // Reliability gate on the same served windows, through the pipeline's
    // confidence path.
    let x = Matrix::from_rows(&rows)?;
    let labels: Vec<usize> = windows.iter().map(|w| w.state.label()).collect();
    println!("confidence: {}", confidence_report(&pipeline, &x, &labels));
    Ok(())
}

/// `hdrun serve --listen <addr>`: the JSON-lines TCP front-end. Blocks
/// until a client sends `{"cmd":"shutdown"}`, then drains every in-flight
/// request and reports the final counters.
fn serve_network(
    pipeline: Pipeline,
    normalizer: Normalizer,
    num_features: usize,
    addr: &str,
    sv: &ServeSpec,
) -> Result<(), Box<dyn Error>> {
    let config = ServerConfig {
        engine: EngineConfig {
            max_batch: sv.max_batch,
            max_wait: sv.max_wait,
            threads: sv.threads,
            ..EngineConfig::default()
        },
        tuning: sv.tuning,
    };
    let prep = Box::new(move |row: Vec<f32>| {
        let m = Matrix::from_rows(std::slice::from_ref(&row)).expect("validated feature width");
        normalizer.apply(&m).row(0).to_vec()
    });
    let server = Server::bind(
        std::sync::Arc::new(pipeline),
        num_features,
        addr,
        config,
        Some(prep),
    )?;
    println!(
        "listening on {} ({} features/request, queue_depth {}, backpressure {})",
        server.local_addr(),
        num_features,
        config.tuning.queue_depth,
        config.tuning.backpressure.tag(),
    );
    let stats = server.wait();
    println!(
        "serve: drained | {} connections, {} answered, {} shed, {} protocol errors, {} batches",
        stats.connections, stats.answered, stats.shed, stats.protocol_errors, stats.batches
    );
    Ok(())
}

/// Opens a BHFS fleet store, creating an empty one if the path does not
/// exist yet (so `fleet add` bootstraps a store on first use).
fn open_or_create_store(path: &str) -> Result<ModelStore, Box<dyn Error>> {
    if std::path::Path::new(path).exists() {
        Ok(ModelStore::open(path)?)
    } else {
        Ok(ModelStore::create(path)?)
    }
}

/// `hdrun fleet add`: fit the spec's model and publish it into the store
/// under `--id`, auto-incrementing the version unless `--version` pins
/// one. With `--ladder`, the refit-free int8 and 1-bit siblings publish
/// with it as one atomic unit.
fn cmd_fleet_add(
    store_path: &str,
    spec_path: &str,
    id: &str,
    version: Option<u64>,
    ladder: bool,
) -> Result<(), Box<dyn Error>> {
    let doc = load_doc(spec_path)?;
    let model_table = doc
        .table("model")
        .ok_or_else(|| format!("spec file {spec_path} has no [model] table"))?;
    let model_spec = ModelSpec::from_toml_table(model_table)?;
    let ds = dataset_spec(&doc)?;
    let sv = serve_spec(&doc, ds.profile.window_samples)?;
    let (train, test) = prepare(&ds)?;
    let pipeline = Pipeline::fit(&model_spec, train.features(), train.labels())?
        .with_abstain_threshold(sv.abstain_threshold);
    let test_acc = accuracy(&pipeline.predict_batch(test.features()), test.labels()) * 100.0;

    let store = open_or_create_store(store_path)?;
    let version = match version {
        Some(v) => v,
        None => store.latest_version(id).map_or(1, |v| v + 1),
    };
    let tiers: Vec<Pipeline> = if ladder {
        fleet_ladder(&std::sync::Arc::new(pipeline))
    } else {
        vec![pipeline]
    };
    let tier_refs: Vec<&Pipeline> = tiers.iter().collect();
    store.append(id, version, &tier_refs)?;
    println!(
        "fleet add: published {id} v{version} to {store_path} ({} | {} tier{} | test acc {test_acc:.2}%)",
        model_spec.display_name(),
        tiers.len(),
        if tiers.len() == 1 { "" } else { "s" },
    );
    Ok(())
}

/// `hdrun fleet list`: print every `(model, version)` in the store with
/// its tier count and on-disk footprint.
fn cmd_fleet_list(store_path: &str) -> Result<(), Box<dyn Error>> {
    let store = ModelStore::open(store_path)?;
    let entries = store.entries();
    println!("fleet store {store_path}: {} record(s)", entries.len());
    // Group tiers under their (model, version) unit, in append order.
    let mut units: Vec<(String, u64, usize, u64)> = Vec::new();
    for e in &entries {
        match units
            .iter_mut()
            .find(|(id, v, _, _)| *id == e.model_id && *v == e.version)
        {
            Some((_, _, tiers, bytes)) => {
                *tiers += 1;
                *bytes += e.total_len;
            }
            None => units.push((e.model_id.clone(), e.version, 1, e.total_len)),
        }
    }
    for (id, version, tiers, bytes) in units {
        println!("  {id} v{version}: {tiers} tier(s), {bytes} bytes");
    }
    Ok(())
}

/// `hdrun fleet serve`: serve every model in the store over TCP. Predict
/// frames carrying `"model"` route through the registry (LRU residency,
/// `--max-resident`); frames without one serve the latest version of the
/// first published model.
fn cmd_fleet_serve(
    store_path: &str,
    spec_path: &str,
    listen: &str,
    max_resident: Option<usize>,
    pins: &[String],
) -> Result<(), Box<dyn Error>> {
    let doc = load_doc(spec_path)?;
    let ds = dataset_spec(&doc)?;
    let sv = serve_spec(&doc, ds.profile.window_samples)?;
    // The serving-side normalizer is fitted on the training split every
    // stored model saw, reproduced from the [dataset] seed. One feature
    // extractor per endpoint: all fleet models share this width.
    let (train, _test) = prepare(&ds)?;
    let normalizer = Normalizer::fit(train.features())?;
    let num_features = train.num_features();

    let store = ModelStore::open(store_path)?;
    let mut ids: Vec<String> = Vec::new();
    for e in store.entries() {
        if !ids.contains(&e.model_id) {
            ids.push(e.model_id.clone());
        }
    }
    if ids.is_empty() {
        return Err(format!("fleet store {store_path} holds no models").into());
    }
    let fleet = std::sync::Arc::new(Fleet::new(
        store,
        FleetConfig {
            max_resident: max_resident.unwrap_or(0),
        },
    ));
    for id in pins {
        fleet.pin(id, true)?;
    }
    let default_model = fleet.get(&ids[0])?;
    let pipeline = std::sync::Arc::clone(default_model.primary());

    let config = ServerConfig {
        engine: EngineConfig {
            max_batch: sv.max_batch,
            max_wait: sv.max_wait,
            threads: sv.threads,
            ..EngineConfig::default()
        },
        tuning: sv.tuning,
    };
    let prep = Box::new(move |row: Vec<f32>| {
        let m = Matrix::from_rows(std::slice::from_ref(&row)).expect("validated feature width");
        normalizer.apply(&m).row(0).to_vec()
    });
    let server = Server::bind_with_fleet(
        pipeline,
        num_features,
        listen,
        config,
        Some(prep),
        Some(std::sync::Arc::clone(&fleet)),
    )?;
    println!(
        "fleet: listening on {} ({} model(s), default `{}` v{}, max_resident {}, {} features/request)",
        server.local_addr(),
        ids.len(),
        default_model.model_id(),
        default_model.version(),
        if max_resident.unwrap_or(0) == 0 {
            "unbounded".to_string()
        } else {
            max_resident.unwrap_or(0).to_string()
        },
        num_features,
    );
    let stats = server.wait();
    println!(
        "fleet: drained | {} connections, {} answered, {} shed, {} unknown model, {} protocol errors",
        stats.connections, stats.answered, stats.shed, stats.unknown_model, stats.protocol_errors
    );
    Ok(())
}

/// The optional `[stream]` table: live micro-batched degradation
/// measurement appended to the campaign report.
fn run_stream(
    table: &boosthd::toml::TomlTable,
    ds: &DatasetSpec,
    base_models: &[Pipeline],
    train: &Dataset,
) -> Result<reliability::campaign::StreamingResult, Box<dyn Error>> {
    const STREAM_KEYS: [&str; 9] = [
        "windows",
        "hop_samples",
        "max_batch",
        "model",
        "seed",
        "fault",
        "severity",
        "amplitude",
        "target_class",
    ];
    if let Some(bad) = table.keys().find(|k| !STREAM_KEYS.contains(k)) {
        return Err(format!(
            "unknown key `{bad}` in [stream] (allowed: {})",
            STREAM_KEYS.join(", ")
        )
        .into());
    }
    let get_or = |key: &str, default: usize| -> Result<usize, BoostHdError> {
        match table.get(key) {
            Some(_) => table.get_usize(key),
            None => Ok(default),
        }
    };
    let windows = get_or("windows", 200)?;
    let hop = get_or("hop_samples", ds.profile.window_samples)?;
    let max_batch = get_or("max_batch", 32)?.max(1);
    let model_index = get_or("model", 1)?;
    let seed = match table.get("seed") {
        Some(_) => table.get_u64("seed")?,
        None => ds.seed ^ 0x57A1,
    };
    let fault = reliability::campaign::parse_fault(table)?;
    let severity = table.get_float("severity")?;
    if !severity.is_finite() || severity < 0.0 {
        return Err(
            format!("[stream] severity {severity} is not a finite non-negative number").into(),
        );
    }
    let pipeline = base_models
        .get(model_index.wrapping_sub(1))
        .ok_or_else(|| {
            format!(
                "[stream] model = {model_index} out of range (campaign has {} models, 1-based)",
                base_models.len()
            )
        })?;

    let normalizer = Normalizer::fit(train.features())?;
    let mut rows: Vec<Vec<f32>> = Vec::with_capacity(windows);
    let mut labels: Vec<usize> = Vec::with_capacity(windows);
    for w in WindowStream::new(&ds.profile, hop, ds.seed ^ 0x57EA)?.take(windows) {
        let row = Matrix::from_rows(std::slice::from_ref(&w.features))?;
        rows.push(normalizer.apply(&row).row(0).to_vec());
        labels.push(w.state.label());
    }
    // Size-triggered flushes keep batch composition (and therefore the
    // per-batch fault streams) deterministic.
    let engine = InferenceEngine::with_config(
        pipeline,
        EngineConfig {
            max_batch,
            max_wait: Duration::from_secs(3600),
            threads: None,
            ..Default::default()
        },
    );
    Ok(reliability::campaign::measure_streaming_degradation(
        &engine, &rows, &labels, &fault, severity, seed,
    )?)
}

fn print_campaign_summary(report: &reliability::campaign::CampaignReport) {
    for (s, scenario) in report.scenarios.iter().enumerate() {
        eprintln!(
            "scenario {}: {} ({} = {:?}, seed {})",
            s + 1,
            scenario.fault.tag(),
            scenario.fault.severity_axis(),
            scenario.severities,
            scenario.seed
        );
        for m in 0..report.models.len() {
            let cells = report.model_cells(s, m);
            let points: Vec<String> = cells
                .iter()
                .map(|c| format!("{:.2}", c.mean_accuracy_pct))
                .collect();
            let abstain: f64 =
                cells.iter().map(|c| c.abstention_rate).sum::<f64>() / cells.len().max(1) as f64;
            eprintln!(
                "  {:<20} acc% [{}]  abstain {:.3}",
                report.models[m].1,
                points.join(", "),
                abstain
            );
        }
    }
    if let Some(s) = &report.streaming {
        eprintln!(
            "streaming: {} severity {} over {} windows in {} batches | clean {:.2}% -> faulted {:.2}%",
            s.fault.tag(),
            s.severity,
            s.windows,
            s.batches,
            s.clean_accuracy_pct,
            s.faulted_accuracy_pct
        );
    }
}

fn cmd_campaign(
    spec_path: &str,
    out: Option<&str>,
    threads_override: Option<usize>,
) -> Result<(), Box<dyn Error>> {
    let doc = load_doc(spec_path)?;
    let campaign_spec = CampaignSpec::from_doc(&doc)?;
    let ds = dataset_spec(&doc)?;
    let (train, test) = prepare(&ds)?;
    let threads = match threads_override {
        Some(t) => t,
        None => boosthd::parallel::try_default_threads()?,
    };
    eprintln!(
        "[hdrun] campaign `{}` on {}: {} models x {} scenarios, {} trials/cell, {} threads",
        campaign_spec.name,
        ds.profile.name,
        campaign_spec.models.len(),
        campaign_spec.scenarios.len(),
        campaign_spec.trials,
        threads
    );
    let data = CampaignData::new(
        train.features(),
        train.labels(),
        test.features(),
        test.labels(),
    )?;
    let campaign = Campaign::new(&campaign_spec, data)?;
    let mut report = campaign.run(threads)?;
    if let Some(stream_table) = doc.table("stream") {
        report.streaming = Some(run_stream(
            stream_table,
            &ds,
            campaign.base_models(),
            &train,
        )?);
    }
    print_campaign_summary(&report);
    let json = report.to_json();
    match out {
        Some(path) => {
            std::fs::write(path, &json)?;
            println!("wrote report to {path} ({} bytes)", json.len());
        }
        None => print!("{json}"),
    }
    Ok(())
}

/// `hdrun chaos`: the serving-resilience campaign over a real loopback
/// server (no spec needed — the workload is the campaign's own synthetic
/// fixture, so the report is comparable across machines). Fails the run
/// when the no-fault control scenario's availability drops below 99% —
/// the in-binary CI gate.
fn cmd_chaos(
    out: Option<&str>,
    threads_override: Option<usize>,
    seed: u64,
    quick: bool,
) -> Result<(), Box<dyn Error>> {
    let threads = match threads_override {
        Some(t) => t,
        None => boosthd::parallel::try_default_threads()?,
    };
    eprintln!(
        "[hdrun] chaos campaign: seed {seed}, {threads} server threads{}",
        if quick { ", quick schedules" } else { "" }
    );
    let report = reliability::chaos::run_campaign(&reliability::chaos::ChaosConfig {
        seed,
        threads,
        quick,
    });
    for s in &report.scenarios {
        eprintln!(
            "  {:<18} {:>3}/{:<3} ok ({:.1}% available) | p99 {} | recovery {}ms | {} error replies",
            s.name,
            s.ok,
            s.requests,
            s.availability_pct,
            s.p99_under_fault_ms
                .map_or_else(|| "n/a".to_string(), |v| format!("{v}ms")),
            s.recovery_time_ms,
            s.errors.iter().sum::<u64>(),
        );
    }
    let control = report
        .scenario("control")
        .ok_or("chaos campaign must include the control scenario")?;
    if control.availability_pct < 99.0 {
        return Err(format!(
            "control-scenario availability {:.2}% is below the 99% floor",
            control.availability_pct
        )
        .into());
    }
    let json = report.to_json();
    match out {
        Some(path) => {
            std::fs::write(path, &json)?;
            println!("wrote report to {path} ({} bytes)", json.len());
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn run() -> Result<(), Box<dyn Error>> {
    // Every command, not just `train`, reads these variables; a garbage
    // value must be an error here rather than a panic at its first read.
    boosthd::parallel::validate_runtime_env()?;
    baselines::spec::install();
    let args = parse_args().map_err(|e| -> Box<dyn Error> { e.into() })?;
    if args.command == "chaos" {
        // Chaos carries its own synthetic workload; no spec file involved.
        return cmd_chaos(
            args.out.as_deref(),
            args.threads,
            args.seed.unwrap_or(42),
            args.quick,
        );
    }
    if let Some(fleet_cmd) = args.command.strip_prefix("fleet ") {
        let store = args
            .store
            .as_deref()
            .ok_or_else(|| format!("fleet commands need --store\n{}", usage()))?;
        return match fleet_cmd {
            "list" => cmd_fleet_list(store),
            "add" => cmd_fleet_add(
                store,
                args.spec
                    .as_deref()
                    .ok_or_else(|| format!("fleet add needs --spec\n{}", usage()))?,
                args.id
                    .as_deref()
                    .ok_or_else(|| format!("fleet add needs --id\n{}", usage()))?,
                args.version,
                args.ladder,
            ),
            "serve" => cmd_fleet_serve(
                store,
                args.spec
                    .as_deref()
                    .ok_or_else(|| format!("fleet serve needs --spec\n{}", usage()))?,
                args.listen
                    .as_deref()
                    .ok_or_else(|| format!("fleet serve needs --listen\n{}", usage()))?,
                args.max_resident,
                &args.pin,
            ),
            other => Err(format!("unknown fleet subcommand `{other}`\n{}", usage()).into()),
        };
    }
    let spec = args
        .spec
        .as_deref()
        .ok_or_else(|| format!("--spec is required\n{}", usage()))?;
    match args.command.as_str() {
        "train" => cmd_train(spec, args.out.as_deref()),
        "eval" => cmd_eval(
            spec,
            args.model
                .as_deref()
                .ok_or_else(|| format!("eval needs --model\n{}", usage()))?,
        ),
        "serve" => cmd_serve(
            spec,
            args.model
                .as_deref()
                .ok_or_else(|| format!("serve needs --model\n{}", usage()))?,
            args.listen.as_deref(),
        ),
        "campaign" => cmd_campaign(spec, args.out.as_deref(), args.threads),
        other => Err(format!("unknown command `{other}`\n{}", usage()).into()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hdrun: {e}");
            ExitCode::from(2)
        }
    }
}
