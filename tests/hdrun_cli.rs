//! Integration tests for the `hdrun` CLI binary: the full
//! train → save → load → eval → serve → campaign lifecycle through a
//! temporary directory, plus the failure modes (garbage spec files, wrong
//! paths, malformed arguments) that until now only a CI smoke job
//! exercised.
//!
//! Every test invokes the real binary (`CARGO_BIN_EXE_hdrun`) and asserts
//! on exit codes and message fragments, so regressions in argument
//! parsing, spec validation, or error wording fail `cargo test` directly.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

use boosthd_serve::wire::{Client, Reply};

/// A unique per-test scratch directory under the system temp dir,
/// removed on drop (no external tempdir crate in the dependency policy).
struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "hdrun_cli_{tag}_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create tempdir");
        Self { path }
    }

    fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn hdrun(args: &[&str]) -> Output {
    hdrun_with_env(args, &[])
}

fn hdrun_with_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hdrun"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("spawn hdrun")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn assert_fails_mentioning(out: &Output, fragments: &[&str]) {
    assert_eq!(
        out.status.code(),
        Some(2),
        "expected exit code 2, got {:?}\nstdout: {}\nstderr: {}",
        out.status.code(),
        stdout_of(out),
        stderr_of(out)
    );
    let err = stderr_of(out);
    for fragment in fragments {
        assert!(
            err.contains(fragment),
            "stderr should mention `{fragment}`:\n{err}"
        );
    }
}

/// A tiny, fast training spec (seconds, not minutes, in debug builds).
fn tiny_model_spec(dir: &TempDir) -> PathBuf {
    let path = dir.file("tiny.toml");
    std::fs::write(
        &path,
        "[model]\nkind = \"boost_hd\"\ndim_total = 200\nn_learners = 4\nepochs = 2\nseed = 7\n\n\
         [dataset]\nprofile = \"wesad_like\"\nsubjects = 4\nwindows_per_state = 4\n\
         window_samples = 160\nseed = 7\ntest_fraction = 0.3\n\n\
         [serve]\nmax_batch = 8\nwindows = 12\nabstain_threshold = 0.4\n",
    )
    .expect("write spec");
    path
}

/// A tiny campaign spec reusing the same dataset table.
fn tiny_campaign_spec(dir: &TempDir) -> PathBuf {
    let path = dir.file("campaign.toml");
    std::fs::write(
        &path,
        "[campaign]\nname = \"cli_test\"\nseed = 7\ntrials = 2\nabstain_threshold = 0.3\n\n\
         [dataset]\nprofile = \"wesad_like\"\nsubjects = 4\nwindows_per_state = 4\n\
         window_samples = 160\nseed = 7\ntest_fraction = 0.3\n\n\
         [model-1]\nkind = \"centroid_hd\"\ndim = 128\nseed = 7\n\n\
         [model-2]\nkind = \"online_hd\"\ndim = 128\nepochs = 2\nseed = 7\n\n\
         [scenario-1]\nfault = \"bit_flip\"\nseverities = [0.0, 0.001]\n\n\
         [scenario-2]\nfault = \"gaussian_noise\"\nseverities = [0.0, 0.5]\n\n\
         [stream]\nwindows = 10\nmax_batch = 4\nmodel = 1\nfault = \"gaussian_noise\"\nseverity = 0.5\n",
    )
    .expect("write campaign spec");
    path
}

#[test]
fn full_lifecycle_train_save_load_eval_serve_campaign() {
    let dir = TempDir::new("lifecycle");
    let spec = tiny_model_spec(&dir);
    let model = dir.file("model.bhde");

    // train + save
    let out = hdrun(&[
        "train",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "train: {}", stderr_of(&out));
    let train_stdout = stdout_of(&out);
    assert!(train_stdout.contains("test acc"), "{train_stdout}");
    assert!(train_stdout.contains("saved envelope"), "{train_stdout}");
    assert!(model.exists(), "envelope file written");

    // load + eval: the reloaded envelope scores the regenerated split.
    let out = hdrun(&[
        "eval",
        "--spec",
        spec.to_str().unwrap(),
        "--model",
        model.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "eval: {}", stderr_of(&out));
    let eval_stdout = stdout_of(&out);
    assert!(eval_stdout.contains("eval: BoostHD"), "{eval_stdout}");
    assert!(eval_stdout.contains("confidence:"), "{eval_stdout}");

    // train and eval agree on the test accuracy of the same split.
    let acc_of = |s: &str| {
        let at = s.find("test acc ").expect("test acc field") + "test acc ".len();
        s[at..].split('%').next().unwrap().to_string()
    };
    assert_eq!(acc_of(&train_stdout), acc_of(&eval_stdout));

    // serve the saved envelope over a window stream.
    let out = hdrun(&[
        "serve",
        "--spec",
        spec.to_str().unwrap(),
        "--model",
        model.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "serve: {}", stderr_of(&out));
    assert!(
        stdout_of(&out).contains("streamed windows"),
        "{}",
        stdout_of(&out)
    );

    // campaign over the same tempdir, report written to disk.
    let campaign = tiny_campaign_spec(&dir);
    let report = dir.file("report.json");
    let out = hdrun(&[
        "campaign",
        campaign.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
        "--threads",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0), "campaign: {}", stderr_of(&out));
    let json = std::fs::read_to_string(&report).expect("report written");
    assert!(json.contains("\"format\": \"boosthd.campaign.report\""));
    assert!(json.contains("\"bit_flip\"") && json.contains("\"gaussian_noise\""));
    assert!(json.contains("\"streaming\""), "stream table ran");
}

/// A spawned child process, killed if a failing test leaves it running.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_listen_answers_predicts_and_drains() {
    let dir = TempDir::new("listen");
    let spec = tiny_model_spec(&dir);
    let model = dir.file("model.bhde");
    let out = hdrun(&[
        "train",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "train: {}", stderr_of(&out));

    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_hdrun"))
            .args([
                "serve",
                "--spec",
                spec.to_str().unwrap(),
                "--model",
                model.to_str().unwrap(),
                "--listen",
                "127.0.0.1:0",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn hdrun serve"),
    );
    let mut stdout = BufReader::new(server.0.stdout.take().unwrap());
    // `listening on <addr> (<F> features/request, ...)`
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let (addr, rest) = line
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_once(" ("))
        .unwrap_or_else(|| panic!("expected the listening line, got `{line}`"));
    let features: usize = rest.split(' ').next().unwrap().parse().unwrap();

    let mut client = Client::connect(addr).unwrap();
    for id in 0..20u64 {
        let row: Vec<f32> = (0..features)
            .map(|j| ((id as usize + j) % 5) as f32 - 2.0)
            .collect();
        match client.predict(id, &row).unwrap() {
            Reply::Predict { id: got, .. } => assert_eq!(got, id),
            other => panic!("predict {id}: {other:?}"),
        }
    }
    match client.predict(20, &vec![0.0; features + 1]).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code.as_deref(), Some("wrong_width")),
        other => panic!("expected a wrong_width error, got {other:?}"),
    }
    assert_eq!(
        client.shutdown_server().unwrap(),
        Reply::Ok("shutdown".into())
    );

    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert_eq!(server.0.wait().unwrap().code(), Some(0), "{rest}");
    assert!(rest.contains("serve: drained"), "{rest}");
    assert!(rest.contains(" 20 answered,"), "{rest}");
}

#[test]
fn campaign_reports_are_identical_across_thread_flags() {
    let dir = TempDir::new("threads");
    let campaign = tiny_campaign_spec(&dir);
    let mut reports = Vec::new();
    for threads in ["1", "2", "8"] {
        let report = dir.file(&format!("report_{threads}.json"));
        let out = hdrun(&[
            "campaign",
            campaign.to_str().unwrap(),
            "--out",
            report.to_str().unwrap(),
            "--threads",
            threads,
        ]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        reports.push(std::fs::read(&report).unwrap());
    }
    assert_eq!(reports[0], reports[1], "1 vs 2 threads");
    assert_eq!(reports[0], reports[2], "1 vs 8 threads");
}

#[test]
fn missing_and_wrong_paths_fail_descriptively() {
    let dir = TempDir::new("paths");
    let spec = tiny_model_spec(&dir);

    // Nonexistent spec file names the path.
    let out = hdrun(&["train", "--spec", "no/such/spec.toml"]);
    assert_fails_mentioning(&out, &["no/such/spec.toml", "cannot read spec file"]);

    // eval without --model explains the requirement and prints usage.
    let out = hdrun(&["eval", "--spec", spec.to_str().unwrap()]);
    assert_fails_mentioning(&out, &["eval needs --model", "usage:"]);

    // eval against a model path that does not exist.
    let missing = dir.file("missing.bhde");
    let out = hdrun(&[
        "eval",
        "--spec",
        spec.to_str().unwrap(),
        "--model",
        missing.to_str().unwrap(),
    ]);
    assert_fails_mentioning(&out, &["hdrun:"]);

    // A non-envelope file fails the magic check, not a panic.
    let garbage_model = dir.file("garbage.bhde");
    std::fs::write(&garbage_model, b"definitely not an envelope").unwrap();
    let out = hdrun(&[
        "eval",
        "--spec",
        spec.to_str().unwrap(),
        "--model",
        garbage_model.to_str().unwrap(),
    ]);
    assert_fails_mentioning(&out, &["bad magic"]);
}

#[test]
fn garbage_runtime_env_fails_descriptively_when_loading_a_model() {
    let dir = TempDir::new("env");
    let spec = tiny_model_spec(&dir);
    let model = dir.file("model.bhde");
    let out = hdrun(&[
        "train",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "train: {}", stderr_of(&out));

    // `eval` never reaches `Pipeline::fit`, so only hdrun's own
    // up-front check turns these values into an error.
    for (var, value) in [("HDC_FORCE_SCALAR", "maybe"), ("HDC_THREADS", "abc")] {
        let out = hdrun_with_env(
            &[
                "eval",
                "--spec",
                spec.to_str().unwrap(),
                "--model",
                model.to_str().unwrap(),
            ],
            &[(var, value)],
        );
        assert_fails_mentioning(&out, &["invalid configuration", var, value]);
    }
}

#[test]
fn garbage_specs_fail_descriptively() {
    let dir = TempDir::new("specs");

    // Unparseable TOML names the line.
    let bad_toml = dir.file("bad.toml");
    std::fs::write(&bad_toml, "[model\nkind = \"boost_hd\"\n").unwrap();
    let out = hdrun(&["train", "--spec", bad_toml.to_str().unwrap()]);
    assert_fails_mentioning(&out, &["line 1", "unterminated table header"]);

    // A misspelled hyperparameter is rejected, not silently defaulted.
    let misspelled = dir.file("misspelled.toml");
    std::fs::write(&misspelled, "[model]\nkind = \"boost_hd\"\nn_leaners = 4\n").unwrap();
    let out = hdrun(&["train", "--spec", misspelled.to_str().unwrap()]);
    assert_fails_mentioning(&out, &["n_leaners", "allowed"]);

    // Missing [model] table for train.
    let no_model = dir.file("no_model.toml");
    std::fs::write(&no_model, "[dataset]\nsubjects = 4\n").unwrap();
    let out = hdrun(&["train", "--spec", no_model.to_str().unwrap()]);
    assert_fails_mentioning(&out, &["no [model] table"]);

    // Unknown dataset profile.
    let bad_profile = dir.file("bad_profile.toml");
    std::fs::write(
        &bad_profile,
        "[model]\nkind = \"centroid_hd\"\n\n[dataset]\nprofile = \"mars_rover\"\n",
    )
    .unwrap();
    let out = hdrun(&["train", "--spec", bad_profile.to_str().unwrap()]);
    assert_fails_mentioning(&out, &["mars_rover", "unknown dataset profile"]);

    // Campaign spec without scenarios.
    let no_scenarios = dir.file("no_scenarios.toml");
    std::fs::write(&no_scenarios, "[model]\nkind = \"centroid_hd\"\ndim = 64\n").unwrap();
    let out = hdrun(&["campaign", no_scenarios.to_str().unwrap()]);
    assert_fails_mentioning(&out, &["no scenario tables"]);

    // Campaign [stream] severity must be finite and non-negative.
    let bad_stream = dir.file("bad_stream.toml");
    std::fs::write(
        &bad_stream,
        "[model]\nkind = \"centroid_hd\"\ndim = 64\n\n\
         [scenario]\nfault = \"bit_flip\"\nseverities = [0.0]\n\n\
         [stream]\nwindows = 5\nfault = \"gaussian_noise\"\nseverity = -0.5\n",
    )
    .unwrap();
    let out = hdrun(&["campaign", bad_stream.to_str().unwrap()]);
    assert_fails_mentioning(&out, &["[stream] severity", "finite non-negative"]);

    // Campaign scenario with an unknown fault.
    let bad_fault = dir.file("bad_fault.toml");
    std::fs::write(
        &bad_fault,
        "[model]\nkind = \"centroid_hd\"\ndim = 64\n\n\
         [scenario]\nfault = \"cosmic_rays\"\nseverities = [0.1]\n",
    )
    .unwrap();
    let out = hdrun(&["campaign", bad_fault.to_str().unwrap()]);
    assert_fails_mentioning(&out, &["cosmic_rays", "known:"]);

    // The removed `exec` backend knob is an unknown [serve] key.
    let exec_key = dir.file("exec_key.toml");
    std::fs::write(
        &exec_key,
        "[model]\nkind = \"centroid_hd\"\ndim = 64\n\n[serve]\nexec = \"pooled\"\n",
    )
    .unwrap();
    let out = hdrun(&[
        "serve",
        "--spec",
        exec_key.to_str().unwrap(),
        "--model",
        dir.file("unused.bhde").to_str().unwrap(),
    ]);
    assert_fails_mentioning(&out, &["unknown key `exec`"]);
}

#[test]
fn malformed_arguments_fail_descriptively() {
    // No command at all prints usage.
    let out = hdrun(&[]);
    assert_fails_mentioning(&out, &["usage:"]);

    // Unknown command.
    let out = hdrun(&["explode", "--spec", "x.toml"]);
    assert_fails_mentioning(&out, &["unknown command `explode`"]);

    // Unknown flag.
    let out = hdrun(&["train", "--spec", "x.toml", "--loud"]);
    assert_fails_mentioning(&out, &["unknown argument --loud"]);

    // Flag without its value.
    let out = hdrun(&["train", "--spec"]);
    assert_fails_mentioning(&out, &["--spec needs a value"]);

    // Garbage --threads.
    let out = hdrun(&["campaign", "spec.toml", "--threads", "zero"]);
    assert_fails_mentioning(&out, &["--threads needs a positive integer"]);
    let out = hdrun(&["campaign", "spec.toml", "--threads", "0"]);
    assert_fails_mentioning(&out, &["--threads needs a positive integer"]);

    // Missing spec entirely.
    let out = hdrun(&["train"]);
    assert_fails_mentioning(&out, &["--spec is required"]);
}

#[test]
fn campaign_without_out_prints_the_report_to_stdout() {
    let dir = TempDir::new("stdout");
    let campaign = dir.file("minimal.toml");
    std::fs::write(
        &campaign,
        "[campaign]\ntrials = 1\n\n\
         [dataset]\nsubjects = 4\nwindows_per_state = 3\nwindow_samples = 160\nseed = 3\n\n\
         [model]\nkind = \"centroid_hd\"\ndim = 64\nseed = 3\n\n\
         [scenario]\nfault = \"channel_dropout\"\nseverities = [0.0, 0.3]\n",
    )
    .unwrap();
    let out = hdrun(&["campaign", campaign.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(
        stdout.contains("\"format\": \"boosthd.campaign.report\""),
        "{stdout}"
    );
    assert!(stdout.trim_end().ends_with('}'), "JSON is the last output");
}
