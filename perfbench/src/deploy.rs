//! Workload set-up: data generation, fit, publish and server bind, plus
//! the query pool every served reply is checked against.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use boosthd::parallel::ExecBackend;
use boosthd::Prediction;
use boosthd::{BoostHdConfig, Fleet, FleetConfig, ModelSpec, ModelStore, OnlineHdConfig, Pipeline};
use boosthd_serve::server::{Server, ServerConfig, ServerTuning};
use boosthd_serve::EngineConfig;
use linalg::Rng64;
use wearables::dataset::{normalize_pair, Dataset};
use wearables::profiles::{self, DatasetProfile};

/// Patients published in the `fleet_patients` store.
pub const PATIENTS: usize = 1_000;
/// Fleet residency cap (`hdrun fleet serve --max-resident 64`).
pub const MAX_RESIDENT: usize = 64;
/// Abstention threshold of both reference specs' `[serve]` tables.
const ABSTAIN_THRESHOLD: f32 = 0.4;
/// Held-out share: subjects for the gateways, windows per subject for
/// the fleet (the specs' `test_fraction`).
const TEST_FRACTION: f64 = 0.3;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// BoostHD D=2000, N_L=10 on `wesad_like` (32 features).
    GatewayRef,
    /// BoostHD D=10000, N_L=10 on `wesad_like` with 4 sub-segments (128
    /// features).
    GatewayWide,
    /// Person-specific OnlineHD D=1000 under 1,000 patient ids.
    FleetPatients,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "gateway_ref" => Some(Workload::GatewayRef),
            "gateway_wide" => Some(Workload::GatewayWide),
            "fleet_patients" => Some(Workload::FleetPatients),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GatewayRef => "gateway_ref",
            Workload::GatewayWide => "gateway_wide",
            Workload::FleetPatients => "fleet_patients",
        }
    }

    fn profile(self) -> DatasetProfile {
        let segments = if self == Workload::GatewayWide { 4 } else { 1 };
        DatasetProfile {
            segments,
            ..profiles::wesad_like()
        }
    }
}

/// Set-up phase durations.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `wearables::generate` plus split and normalization, seconds.
    pub generate_s: f64,
    /// Every `Pipeline::fit`, seconds.
    pub fit_s: f64,
    /// Publishing every patient to the store, ms (0 on the gateways).
    pub publish_ms: f64,
    /// Start to server ready, seconds.
    pub total_s: f64,
}

impl SetupTimes {
    /// `setup_s`: start to server ready, less the publish. Every store
    /// append fsyncs twice, so the publish follows the disk's latency of
    /// the hour more than the code; `fleet.publish_ms` reports it.
    pub fn setup_s(&self) -> f64 {
        self.total_s - self.publish_ms / 1e3
    }
}

/// The held-out rows served, with the in-process prediction each served
/// reply must equal.
#[derive(Debug)]
pub struct QueryPool {
    /// Feature rows, already normalized as a gateway forwards them.
    pub rows: Vec<Vec<f32>>,
    /// True label per row.
    pub labels: Vec<usize>,
    /// In-process predictions, `expected[variant][row]`. Gateways have one
    /// variant; fleet version `v` serves variant `(v - 1) % 2`.
    pub expected: Vec<Vec<Prediction>>,
    /// Held-out row indices per subject (fleet only).
    pub rows_by_subject: Vec<Vec<usize>>,
    /// Patient ids (fleet only); patient `p` belongs to subject
    /// `p % rows_by_subject.len()`.
    pub patients: Vec<String>,
}

impl QueryPool {
    /// The prediction a reply for `row` served at fleet `version` (gateway:
    /// `None`) must carry.
    pub fn expected(&self, row: usize, version: Option<u64>) -> Option<&Prediction> {
        let variant = match version {
            None => 0,
            Some(0) => return None,
            Some(v) => ((v - 1) % self.expected.len() as u64) as usize,
        };
        self.expected.get(variant)?.get(row)
    }
}

/// The fleet side of `fleet_patients`: the store, the registry and the
/// fitted models a hot-swap publishes.
pub struct FleetSide {
    /// The registry the server routes through.
    pub fleet: Arc<Fleet>,
    /// The store file.
    pub store_path: PathBuf,
    /// `models[subject][variant]`.
    pub models: Vec<Vec<Pipeline>>,
}

impl FleetSide {
    /// Subject whose model patient `p` is served.
    pub fn subject_of(&self, patient: usize) -> usize {
        patient % self.models.len()
    }
}

/// A served workload, ready for traffic.
pub struct Deployment {
    /// The running server.
    pub server: Server,
    /// What is served and what each reply must be.
    pub pool: QueryPool,
    /// Present on `fleet_patients`.
    pub fleet: Option<FleetSide>,
    /// Set-up durations.
    pub setup: SetupTimes,
    /// The model the compute layers are replayed on.
    pub model: Arc<Pipeline>,
}

/// The `[serve]` table both reference specs share: `max_batch` 32,
/// `max_wait` 5 ms, degrade off, the pool backend.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        engine: EngineConfig {
            max_batch: 32,
            max_wait: Duration::from_millis(5),
            threads: None,
            exec: ExecBackend::Pooled,
        },
        tuning: ServerTuning::default(),
    }
}

/// Generates the cohort and returns normalized `(train, test)` splits:
/// subject-wise for the gateways, window-wise within every subject for
/// the fleet.
fn generate(workload: Workload, seed: u64) -> (Dataset, Dataset) {
    let data = wearables::generate(&workload.profile(), seed).expect("dataset generation");
    let (train, test) = if workload == Workload::FleetPatients {
        let mut rng = Rng64::seed_from(seed ^ 0xF1EE7);
        let mut train_idx = Vec::new();
        let mut test_idx = Vec::new();
        for subject in data.distinct_subject_ids() {
            let mut idx: Vec<usize> = (0..data.len())
                .filter(|&i| data.subject_ids()[i] == subject)
                .collect();
            rng.shuffle(&mut idx);
            let n_test = ((idx.len() as f64) * TEST_FRACTION).round() as usize;
            test_idx.extend_from_slice(&idx[..n_test]);
            train_idx.extend_from_slice(&idx[n_test..]);
        }
        (data.select(&train_idx), data.select(&test_idx))
    } else {
        data.split_by_subject_fraction(TEST_FRACTION, seed ^ 0x5117)
            .expect("subject split")
    };
    normalize_pair(&train, &test).expect("normalization")
}

fn fit(spec: &ModelSpec, train: &Dataset) -> Pipeline {
    Pipeline::fit(spec, train.features(), train.labels())
        .expect("fit")
        .with_abstain_threshold(ABSTAIN_THRESHOLD)
}

fn rows_of(test: &Dataset) -> Vec<Vec<f32>> {
    test.features().iter_rows().map(<[f32]>::to_vec).collect()
}

/// Patient id of patient `p`.
pub fn patient_id(p: usize) -> String {
    format!("p{p:04}")
}

/// Sets `workload` up from `seed` and binds its server on loopback.
/// `work_dir` holds the fleet store.
pub fn deploy(workload: Workload, seed: u64, work_dir: &Path) -> Deployment {
    let started = Instant::now();
    let (train, test) = generate(workload, seed);
    let generate_s = started.elapsed().as_secs_f64();
    let features = train.num_features();

    let fit_started = Instant::now();
    match workload {
        Workload::GatewayRef | Workload::GatewayWide => {
            let dim = if workload == Workload::GatewayRef {
                2_000
            } else {
                10_000
            };
            let spec = ModelSpec::BoostHd(BoostHdConfig {
                dim_total: dim,
                n_learners: 10,
                epochs: 10,
                seed,
                ..Default::default()
            });
            let model = Arc::new(fit(&spec, &train));
            let fit_s = fit_started.elapsed().as_secs_f64();
            let server = Server::bind(
                Arc::clone(&model),
                features,
                "127.0.0.1:0",
                server_config(),
                None,
            )
            .expect("bind gateway server");
            let total_s = started.elapsed().as_secs_f64();
            let pool = QueryPool {
                rows: rows_of(&test),
                labels: test.labels().to_vec(),
                expected: vec![model.predict_batch_with_confidence(test.features())],
                rows_by_subject: Vec::new(),
                patients: Vec::new(),
            };
            Deployment {
                server,
                pool,
                fleet: None,
                setup: SetupTimes {
                    generate_s,
                    fit_s,
                    publish_ms: 0.0,
                    total_s,
                },
                model,
            }
        }
        Workload::FleetPatients => {
            let subjects = train.distinct_subject_ids();
            let per_subject = |d: &Dataset, s: usize| -> Vec<usize> {
                (0..d.len()).filter(|&i| d.subject_ids()[i] == s).collect()
            };
            // Two fits per subject: version v of a patient serves variant
            // (v - 1) % 2, so every hot-swap changes the served model.
            let models: Vec<Vec<Pipeline>> = subjects
                .iter()
                .map(|&s| {
                    let own = train.select(&per_subject(&train, s));
                    (0..2u64)
                        .map(|variant| {
                            let spec = ModelSpec::OnlineHd(OnlineHdConfig {
                                dim: 1_000,
                                epochs: 5,
                                seed: seed.wrapping_add(variant).wrapping_add(s as u64 * 7),
                                ..Default::default()
                            });
                            fit(&spec, &own)
                        })
                        .collect()
                })
                .collect();
            let fit_s = fit_started.elapsed().as_secs_f64();

            let publish_started = Instant::now();
            let store_path = work_dir.join("patients.bhfs");
            let _ = std::fs::remove_file(&store_path);
            let store = ModelStore::create(&store_path).expect("create store");
            for p in 0..PATIENTS {
                store
                    .append(&patient_id(p), 1, &[&models[p % subjects.len()][0]])
                    .expect("publish patient");
            }
            let publish_ms = publish_started.elapsed().as_secs_f64() * 1e3;
            let fleet = Arc::new(Fleet::new(
                store,
                FleetConfig {
                    max_resident: MAX_RESIDENT,
                },
            ));
            let model = Arc::new(models[0][0].clone());
            let server = Server::bind_with_fleet(
                Arc::clone(&model),
                features,
                "127.0.0.1:0",
                server_config(),
                None,
                Some(Arc::clone(&fleet)),
            )
            .expect("bind fleet server");
            let total_s = started.elapsed().as_secs_f64();

            // Expected predictions: every held-out row under its own
            // subject's model, for both variants.
            let mut rows_by_subject = Vec::new();
            let mut expected = vec![Vec::new(), Vec::new()];
            let mut rows = Vec::new();
            let mut labels = Vec::new();
            for (k, &s) in subjects.iter().enumerate() {
                let idx = per_subject(&test, s);
                let own = test.select(&idx);
                rows_by_subject.push((rows.len()..rows.len() + idx.len()).collect());
                for (variant, out) in expected.iter_mut().enumerate() {
                    out.extend(models[k][variant].predict_batch_with_confidence(own.features()));
                }
                rows.extend(rows_of(&own));
                labels.extend_from_slice(own.labels());
            }
            let pool = QueryPool {
                rows,
                labels,
                expected,
                rows_by_subject,
                patients: (0..PATIENTS).map(patient_id).collect(),
            };
            Deployment {
                server,
                pool,
                fleet: Some(FleetSide {
                    fleet,
                    store_path,
                    models,
                }),
                setup: SetupTimes {
                    generate_s,
                    fit_s,
                    publish_ms,
                    total_s,
                },
                model,
            }
        }
    }
}
