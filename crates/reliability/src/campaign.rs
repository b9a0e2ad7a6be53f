//! The deterministic reliability-campaign engine.
//!
//! The paper's headline claim is that BoostHD degrades more gracefully
//! than OnlineHD and classical baselines under hardware faults and messy
//! healthcare data. This module turns that claim into a first-class,
//! testable subsystem: one engine that applies parameterized fault models
//! to any [`Pipeline`]-built model, sweeps severity grids in parallel,
//! and emits a versioned JSON report — replacing the divergent
//! perturbation loops the figure binaries used to hand-roll.
//!
//! # Fault models
//!
//! A [`ScenarioSpec`] names one [`FaultModel`] and a severity grid:
//!
//! | fault | severity axis | where it lands |
//! |---|---|---|
//! | [`FaultModel::BitFlip`] | per-bit flip probability `p_b` | trained parameters (IEEE-754 words for dense models, sign bits for bitpacked) |
//! | [`FaultModel::GaussianNoise`] | noise `std` | test features (analog sensor noise) |
//! | [`FaultModel::SpikeNoise`] | per-feature spike probability | test features (impulsive artifacts) |
//! | [`FaultModel::ChannelDropout`] | per-channel drop probability | test features (dead sensors) |
//! | [`FaultModel::LabelNoise`] | per-label flip probability | training labels (refits per trial) |
//! | [`FaultModel::ClassImbalance`] | non-target reduction `r` | training set (Equation-8 resampling, refits per trial) |
//!
//! # Determinism contract
//!
//! Every campaign cell — one `(scenario, model, severity)` triple — runs
//! its trials with **pre-forked RNGs**: trial `t` at severity index `v`
//! of a scenario with effective seed `s` always draws from
//! `Rng64::seed_from(s ^ (v << 16) ^ t)`, a pure function of the spec.
//! Cells are swept in parallel through [`boosthd::parallel`], but no cell
//! ever touches another cell's RNG, and results are reassembled in spec
//! order — so [`CampaignReport::to_json`] is byte-identical for any
//! thread count. Reports also hold byte-identical across kernel dispatch
//! levels (`HDC_FORCE_SCALAR=1` vs AVX2): every cell statistic except
//! mean confidence is an exact function of integer prediction counts, and
//! mean confidence is rounded past the ULP-level summation-order noise
//! the dispatch levels can differ by (see [`CellResult::mean_confidence`]).
//! The seed derivation is a stable contract: the `fig8` / `fig8_packed`
//! binaries reproduce their historical per-trial accuracies through it.
//!
//! # Example
//!
//! ```
//! use boosthd::{ModelSpec, OnlineHdConfig};
//! use linalg::{Matrix, Rng64};
//! use reliability::campaign::{self, CampaignData, CampaignSpec, FaultModel, ScenarioSpec};
//!
//! let mut rng = Rng64::seed_from(5);
//! let x = Matrix::random_normal(80, 4, &mut rng);
//! let y: Vec<usize> = (0..80).map(|i| i % 2).collect();
//!
//! let spec = CampaignSpec {
//!     name: "demo".into(),
//!     seed: 7,
//!     trials: 2,
//!     abstain_threshold: 0.0,
//!     models: vec![ModelSpec::OnlineHd(OnlineHdConfig { dim: 64, epochs: 2, ..Default::default() })],
//!     scenarios: vec![ScenarioSpec::new(FaultModel::GaussianNoise, vec![0.0, 0.5])],
//! };
//! let data = CampaignData::new(&x, &y, &x, &y)?;
//! let report = campaign::run(&spec, data, 2)?;
//! assert_eq!(report.scenarios[0].cells.len(), 2);
//! assert!(report.to_json().contains("gaussian_noise"));
//! # Ok::<(), boosthd::BoostHdError>(())
//! ```

use boosthd::parallel::parallel_map_indices;
use boosthd::toml::{TomlDoc, TomlTable, TomlWriter};
use boosthd::{BoostHdError, Classifier, ModelSpec, Pipeline, Prediction, Result};
use boosthd_serve::wire::escape_json;
use boosthd_serve::InferenceEngine;
use eval_harness::metrics::{accuracy, macro_f1};
use eval_harness::repeat::RunStats;
use faults::imbalance::{imbalanced_indices, ImbalanceSpec};
use faults::noise::{add_gaussian_noise, add_spike_noise, drop_channels, flip_labels};
use linalg::{Matrix, Rng64};

fn campaign_err(reason: impl Into<String>) -> BoostHdError {
    BoostHdError::InvalidConfig {
        reason: reason.into(),
    }
}

/// One parameterized fault family; see the [module docs](self) for the
/// severity axis of each.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultModel {
    /// Memory bit flips on trained parameters with per-bit probability
    /// `severity` ([`Pipeline::inject_bitflips`]): IEEE-754 word flips for
    /// dense models, stored-sign-bit flips for bitpacked models.
    BitFlip,
    /// I.i.d. `N(0, severity²)` noise added to every test feature —
    /// analog sensor noise.
    GaussianNoise,
    /// Each test feature takes an additive `±amplitude` spike with
    /// probability `severity` — impulsive artifacts (electrode pops,
    /// motion, ADC glitches).
    SpikeNoise {
        /// Spike magnitude, in (normalized) feature units.
        amplitude: f64,
    },
    /// Each feature column of the test set is zeroed with probability
    /// `severity` — dead or disconnected sensor channels.
    ChannelDropout,
    /// Each training label flips to a uniformly random different class
    /// with probability `severity`; the model refits per trial.
    LabelNoise,
    /// Equation-8 imbalance crafting: every sample of `target_class` is
    /// kept, each other class is reduced by fraction `severity`
    /// (`severity = 0.8` keeps 20%); the model refits per trial.
    ClassImbalance {
        /// The class whose samples are never dropped.
        target_class: usize,
    },
}

impl FaultModel {
    /// Stable spec-file / report tag.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultModel::BitFlip => "bit_flip",
            FaultModel::GaussianNoise => "gaussian_noise",
            FaultModel::SpikeNoise { .. } => "spike_noise",
            FaultModel::ChannelDropout => "channel_dropout",
            FaultModel::LabelNoise => "label_noise",
            FaultModel::ClassImbalance { .. } => "class_imbalance",
        }
    }

    /// What the severity value means for this fault (report axis label).
    pub fn severity_axis(&self) -> &'static str {
        match self {
            FaultModel::BitFlip => "p_b",
            FaultModel::GaussianNoise => "std",
            FaultModel::SpikeNoise { .. } => "p_spike",
            FaultModel::ChannelDropout => "p_drop",
            FaultModel::LabelNoise => "p_flip",
            FaultModel::ClassImbalance { .. } => "reduction",
        }
    }

    /// Whether this fault perturbs feature rows (and can therefore be
    /// injected into live streamed traffic via [`sensor_fault_hook`]).
    pub fn is_sensor_fault(&self) -> bool {
        matches!(
            self,
            FaultModel::GaussianNoise | FaultModel::SpikeNoise { .. } | FaultModel::ChannelDropout
        )
    }
}

/// One scenario: a fault model plus the severity grid it is swept over.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The fault family.
    pub fault: FaultModel,
    /// Severity grid, in the fault's axis (see
    /// [`FaultModel::severity_axis`]); swept in order.
    pub severities: Vec<f64>,
    /// Explicit RNG seed for this scenario's cells. `None` derives one
    /// from the campaign seed and the scenario's position (so scenarios
    /// never share fault streams by accident); the figure binaries pin
    /// historical seeds here.
    pub seed: Option<u64>,
}

impl ScenarioSpec {
    /// A scenario with a derived (position-based) seed.
    pub fn new(fault: FaultModel, severities: Vec<f64>) -> Self {
        Self {
            fault,
            severities,
            seed: None,
        }
    }

    /// Returns the scenario with its seed pinned (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }
}

/// The declarative description of a whole campaign: which models, which
/// scenarios, how many trials, and the base seed everything derives from.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (report header).
    pub name: String,
    /// Base seed; per-scenario and per-cell RNGs derive from it (see the
    /// [module docs](self)).
    pub seed: u64,
    /// Trials per cell (independent fault draws at one severity).
    pub trials: usize,
    /// Abstention threshold applied to every fitted pipeline; cells
    /// report the resulting abstention rate.
    pub abstain_threshold: f32,
    /// The model specs under test, swept against every scenario.
    pub models: Vec<ModelSpec>,
    /// The fault scenarios.
    pub scenarios: Vec<ScenarioSpec>,
}

const CAMPAIGN_KEYS: [&str; 4] = ["name", "seed", "trials", "abstain_threshold"];
const SCENARIO_KEYS: [&str; 5] = ["fault", "severities", "seed", "amplitude", "target_class"];

impl CampaignSpec {
    /// Parses a campaign spec document: one optional `[campaign]` table,
    /// one or more model tables (`[model]`, `[model-1]`, `[model-2]`, ...,
    /// each holding a [`ModelSpec`]), and one or more scenario tables
    /// (`[scenario]`, `[scenario-1]`, ...). Other tables (`[dataset]`,
    /// `[serve]`, `[stream]`) are left for the caller.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] for malformed TOML, unknown
    /// keys, missing models/scenarios, empty or negative severity grids,
    /// or fault-specific parameters on the wrong fault kind.
    pub fn from_toml_str(text: &str) -> Result<Self> {
        Self::from_doc(&TomlDoc::parse(text)?)
    }

    /// [`CampaignSpec::from_toml_str`] over an already-parsed document.
    ///
    /// # Errors
    ///
    /// As [`CampaignSpec::from_toml_str`].
    pub fn from_doc(doc: &TomlDoc) -> Result<Self> {
        let mut spec = CampaignSpec {
            name: "campaign".into(),
            seed: 42,
            trials: 10,
            abstain_threshold: 0.0,
            models: Vec::new(),
            scenarios: Vec::new(),
        };
        if let Some(t) = doc.table("campaign") {
            if let Some(bad) = t.keys().find(|k| !CAMPAIGN_KEYS.contains(k)) {
                return Err(campaign_err(format!(
                    "unknown key `{bad}` in [campaign] (allowed: {})",
                    CAMPAIGN_KEYS.join(", ")
                )));
            }
            if t.get("name").is_some() {
                spec.name = t.get_str("name")?.to_string();
            }
            if t.get("seed").is_some() {
                spec.seed = t.get_u64("seed")?;
            }
            if t.get("trials").is_some() {
                spec.trials = t.get_usize("trials")?;
            }
            if t.get("abstain_threshold").is_some() {
                spec.abstain_threshold = t.get_float("abstain_threshold")? as f32;
                if !(0.0..=1.0).contains(&spec.abstain_threshold) {
                    return Err(campaign_err(format!(
                        "abstain_threshold must be in [0, 1], got {}",
                        spec.abstain_threshold
                    )));
                }
            }
        }
        if spec.trials == 0 {
            return Err(campaign_err("trials must be >= 1"));
        }
        for table in doc.tables() {
            let name = table.name();
            if name == "model" || name.starts_with("model-") {
                spec.models.push(ModelSpec::from_toml_table(table)?);
            } else if name == "scenario" || name.starts_with("scenario-") {
                spec.scenarios.push(parse_scenario(table)?);
            } else if !matches!(name, "campaign" | "dataset" | "serve" | "stream") {
                // A typo'd table name must not silently drop a whole model
                // or scenario from the sweep; [dataset]/[serve]/[stream]
                // are reserved for the CLI layer.
                return Err(campaign_err(format!(
                    "unknown table [{}] in campaign spec (expected [campaign], [model], \
                     [model-N], [scenario], [scenario-N], [dataset], [serve], or [stream])",
                    if name.is_empty() {
                        "<top-level keys>"
                    } else {
                        name
                    }
                )));
            }
        }
        if spec.models.is_empty() {
            return Err(campaign_err(
                "campaign spec has no model tables ([model], [model-1], ...)",
            ));
        }
        if spec.scenarios.is_empty() {
            return Err(campaign_err(
                "campaign spec has no scenario tables ([scenario], [scenario-1], ...)",
            ));
        }
        Ok(spec)
    }

    /// Serializes the campaign back into the spec-file format
    /// ([`CampaignSpec::from_toml_str`] inverts it).
    pub fn to_toml(&self) -> String {
        let mut w = TomlWriter::new();
        w.table("campaign");
        w.str("name", &self.name);
        w.u64("seed", self.seed);
        w.int("trials", self.trials as i64);
        w.float("abstain_threshold", self.abstain_threshold as f64);
        for (i, model) in self.models.iter().enumerate() {
            model.write_toml_table(&mut w, &format!("model-{}", i + 1));
        }
        for (i, scenario) in self.scenarios.iter().enumerate() {
            w.table(&format!("scenario-{}", i + 1));
            w.str("fault", scenario.fault.tag());
            match scenario.fault {
                FaultModel::SpikeNoise { amplitude } => w.float("amplitude", amplitude),
                FaultModel::ClassImbalance { target_class } => {
                    w.int("target_class", target_class as i64)
                }
                _ => {}
            }
            w.float_array("severities", &scenario.severities);
            if let Some(seed) = scenario.seed {
                w.u64("seed", seed);
            }
        }
        w.into_string()
    }

    /// The effective RNG seed of scenario `index`: its pinned seed, or a
    /// splitmix64-derived stream off the campaign seed so distinct
    /// scenarios never share fault draws.
    pub fn scenario_seed(&self, index: usize) -> u64 {
        self.scenarios[index].seed.unwrap_or_else(|| {
            splitmix64(
                self.seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1)),
            )
        })
    }
}

/// Parses the `fault` / `amplitude` / `target_class` keys of any table
/// into a [`FaultModel`] — shared by scenario tables and the `hdrun`
/// CLI's `[stream]` section.
///
/// # Errors
///
/// Returns [`BoostHdError::InvalidConfig`] for unknown fault tags,
/// a missing `amplitude` on `spike_noise`, or fault-specific keys on the
/// wrong fault kind.
pub fn parse_fault(table: &TomlTable) -> Result<FaultModel> {
    let tag = table.get_str("fault")?;
    let fault = match tag {
        "bit_flip" => FaultModel::BitFlip,
        "gaussian_noise" => FaultModel::GaussianNoise,
        "spike_noise" => FaultModel::SpikeNoise {
            amplitude: table.get_float("amplitude")?,
        },
        "channel_dropout" => FaultModel::ChannelDropout,
        "label_noise" => FaultModel::LabelNoise,
        "class_imbalance" => FaultModel::ClassImbalance {
            target_class: match table.get("target_class") {
                Some(_) => table.get_usize("target_class")?,
                None => 0,
            },
        },
        other => {
            return Err(campaign_err(format!(
                "unknown fault `{other}` in [{}] (known: bit_flip, gaussian_noise, \
                 spike_noise, channel_dropout, label_noise, class_imbalance)",
                table.name()
            )))
        }
    };
    if !matches!(fault, FaultModel::SpikeNoise { .. }) && table.get("amplitude").is_some() {
        return Err(campaign_err(format!(
            "`amplitude` in [{}] only applies to fault = \"spike_noise\"",
            table.name()
        )));
    }
    if !matches!(fault, FaultModel::ClassImbalance { .. }) && table.get("target_class").is_some() {
        return Err(campaign_err(format!(
            "`target_class` in [{}] only applies to fault = \"class_imbalance\"",
            table.name()
        )));
    }
    Ok(fault)
}

fn parse_scenario(table: &TomlTable) -> Result<ScenarioSpec> {
    if let Some(bad) = table.keys().find(|k| !SCENARIO_KEYS.contains(k)) {
        return Err(campaign_err(format!(
            "unknown key `{bad}` in [{}] (allowed: {})",
            table.name(),
            SCENARIO_KEYS.join(", ")
        )));
    }
    let fault = parse_fault(table)?;
    let severities = table.get_float_array("severities")?;
    if severities.is_empty() {
        return Err(campaign_err(format!(
            "[{}] has an empty severity grid",
            table.name()
        )));
    }
    if let Some(&bad) = severities.iter().find(|s| !s.is_finite() || **s < 0.0) {
        return Err(campaign_err(format!(
            "[{}] severity {bad} is not a finite non-negative number",
            table.name()
        )));
    }
    let seed = match table.get("seed") {
        Some(_) => Some(table.get_u64("seed")?),
        None => None,
    };
    Ok(ScenarioSpec {
        fault,
        severities,
        seed,
    })
}

/// The splitmix64 finalizer: cheap, full-avalanche seed derivation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pre-forked RNG seed of one campaign trial — a pure function of the
/// scenario seed, the severity's grid index, and the trial index. This is
/// a stable contract (the figure binaries reproduce their historical
/// sweeps through it): `scenario_seed ^ (severity_idx << 16) ^ trial`.
pub fn trial_seed(scenario_seed: u64, severity_idx: usize, trial: usize) -> u64 {
    scenario_seed ^ ((severity_idx as u64) << 16) ^ trial as u64
}

/// Borrowed training and evaluation splits a campaign runs against.
#[derive(Debug, Clone, Copy)]
pub struct CampaignData<'a> {
    train_x: &'a Matrix,
    train_y: &'a [usize],
    test_x: &'a Matrix,
    test_y: &'a [usize],
}

impl<'a> CampaignData<'a> {
    /// Bundles the splits, validating shapes.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] for row/label length
    /// mismatches, differing feature widths, or empty splits.
    pub fn new(
        train_x: &'a Matrix,
        train_y: &'a [usize],
        test_x: &'a Matrix,
        test_y: &'a [usize],
    ) -> Result<Self> {
        let mismatch = |reason: String| BoostHdError::DataMismatch { reason };
        if train_x.rows() != train_y.len() || test_x.rows() != test_y.len() {
            return Err(mismatch(format!(
                "row/label mismatch: train {} x vs {} y, test {} x vs {} y",
                train_x.rows(),
                train_y.len(),
                test_x.rows(),
                test_y.len()
            )));
        }
        if train_x.rows() == 0 || test_x.rows() == 0 {
            return Err(mismatch("campaign splits must be non-empty".into()));
        }
        if train_x.cols() != test_x.cols() {
            return Err(mismatch(format!(
                "train has {} features but test has {}",
                train_x.cols(),
                test_x.cols()
            )));
        }
        Ok(Self {
            train_x,
            train_y,
            test_x,
            test_y,
        })
    }

    fn num_classes(&self) -> usize {
        self.train_y
            .iter()
            .chain(self.test_y)
            .copied()
            .max()
            .map_or(0, |m| m + 1)
    }
}

/// Per-cell aggregate: one `(scenario, model, severity)` triple over all
/// trials.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Model spec tag ([`ModelSpec::kind_tag`]).
    pub model: String,
    /// Human-readable model name ([`ModelSpec::display_name`]).
    pub display: String,
    /// The severity this cell was run at.
    pub severity: f64,
    /// Test accuracy (%) per trial, in trial order.
    pub accuracy_runs_pct: Vec<f64>,
    /// Mean of [`CellResult::accuracy_runs_pct`].
    pub mean_accuracy_pct: f64,
    /// Mean macro-F1 across trials, in `[0, 1]`.
    pub mean_macro_f1: f64,
    /// Fraction of predictions abstained (under the campaign's abstention
    /// threshold), pooled over trials.
    pub abstention_rate: f64,
    /// Mean predicted-class confidence, pooled over trials — rounded to
    /// `10⁻⁴`: every other cell statistic is an exact function of integer
    /// counts, but raw confidences carry ULP-level noise across kernel
    /// dispatch levels (AVX2 vs scalar summation order), and the rounding
    /// keeps the byte-identical report contract intact under
    /// `HDC_FORCE_SCALAR=1`.
    pub mean_confidence: f64,
    /// Confidence histogram pooled over trials: 10 equal bins over
    /// `[0, 1]`, the last bin closed.
    pub confidence_hist: [usize; 10],
}

/// One scenario's swept results.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The fault swept.
    pub fault: FaultModel,
    /// The effective scenario seed the cells derived their RNGs from.
    pub seed: u64,
    /// The severity grid.
    pub severities: Vec<f64>,
    /// Cell aggregates, model-major then severity (spec order).
    pub cells: Vec<CellResult>,
}

/// Degradation of one live micro-batched stream under a sensor fault; see
/// [`measure_streaming_degradation`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingResult {
    /// The injected sensor fault.
    pub fault: FaultModel,
    /// Its severity.
    pub severity: f64,
    /// Windows served.
    pub windows: usize,
    /// Batches flushed on the faulted run.
    pub batches: usize,
    /// Accuracy (%) of the clean serve pass.
    pub clean_accuracy_pct: f64,
    /// Accuracy (%) with the fault injected at every flush.
    pub faulted_accuracy_pct: f64,
}

/// The versioned campaign output; [`CampaignReport::to_json`] is the
/// persisted artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Report schema version (bumped on breaking layout changes).
    pub format_version: u32,
    /// Campaign name.
    pub name: String,
    /// Base seed.
    pub seed: u64,
    /// Trials per cell.
    pub trials: usize,
    /// Abstention threshold applied to every model.
    pub abstain_threshold: f32,
    /// `(kind_tag, display_name)` of every model, in spec order.
    pub models: Vec<(String, String)>,
    /// Per-scenario sweeps, in spec order.
    pub scenarios: Vec<ScenarioResult>,
    /// Live-stream degradation measurement, when the caller ran one.
    pub streaming: Option<StreamingResult>,
}

/// The current [`CampaignReport::format_version`].
pub const REPORT_FORMAT_VERSION: u32 = 1;

impl CampaignReport {
    /// Serializes the report as deterministic JSON: fixed key order, no
    /// maps, floats via Rust's shortest-round-trip formatter — two runs
    /// with identical cell results produce identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str("  \"format\": \"boosthd.campaign.report\",\n");
        out.push_str(&format!(
            "  \"format_version\": {},\n  \"name\": \"{}\",\n  \"seed\": {},\n  \"trials\": {},\n",
            self.format_version,
            escape_json(&self.name),
            self.seed,
            self.trials
        ));
        out.push_str(&format!(
            "  \"abstain_threshold\": {},\n",
            if self.abstain_threshold.is_finite() {
                // f32 Display keeps `0.4` as `0.4` (widening to f64 first
                // would print its ULP neighborhood instead).
                format!("{}", self.abstain_threshold)
            } else {
                "null".into()
            }
        ));
        out.push_str("  \"models\": [");
        for (i, (kind, display)) in self.models.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"kind\": \"{}\", \"display\": \"{}\"}}",
                escape_json(kind),
                escape_json(display)
            ));
        }
        out.push_str("],\n");
        out.push_str("  \"scenarios\": [\n");
        for (i, scenario) in self.scenarios.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"fault\": \"{}\",\n      \"axis\": \"{}\",\n      \"seed\": {},\n",
                escape_json(scenario.fault.tag()),
                escape_json(scenario.fault.severity_axis()),
                scenario.seed
            ));
            match scenario.fault {
                FaultModel::SpikeNoise { amplitude } => {
                    out.push_str(&format!("      \"amplitude\": {},\n", json_f64(amplitude)));
                }
                FaultModel::ClassImbalance { target_class } => {
                    out.push_str(&format!("      \"target_class\": {target_class},\n"));
                }
                _ => {}
            }
            out.push_str(&format!(
                "      \"severities\": {},\n",
                json_f64_array(&scenario.severities)
            ));
            out.push_str("      \"cells\": [\n");
            for (j, cell) in scenario.cells.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"model\": \"{}\", \"display\": \"{}\", \"severity\": {}, \
                     \"mean_accuracy_pct\": {}, \"mean_macro_f1\": {}, \
                     \"abstention_rate\": {}, \"mean_confidence\": {}, \
                     \"confidence_hist\": [{}], \"accuracy_runs_pct\": {}}}",
                    escape_json(&cell.model),
                    escape_json(&cell.display),
                    json_f64(cell.severity),
                    json_f64(cell.mean_accuracy_pct),
                    json_f64(cell.mean_macro_f1),
                    json_f64(cell.abstention_rate),
                    json_f64(cell.mean_confidence),
                    cell.confidence_hist
                        .iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(", "),
                    json_f64_array(&cell.accuracy_runs_pct)
                ));
                out.push_str(if j + 1 < scenario.cells.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("      ]\n");
            out.push_str(if i + 1 < self.scenarios.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]");
        if let Some(s) = &self.streaming {
            out.push_str(",\n  \"streaming\": ");
            out.push_str(&format!(
                "{{\"fault\": \"{}\", \"severity\": {}, \"windows\": {}, \"batches\": {}, \
                 \"clean_accuracy_pct\": {}, \"faulted_accuracy_pct\": {}}}",
                escape_json(s.fault.tag()),
                json_f64(s.severity),
                s.windows,
                s.batches,
                json_f64(s.clean_accuracy_pct),
                json_f64(s.faulted_accuracy_pct)
            ));
        }
        out.push_str("\n}\n");
        out
    }

    /// The cells of scenario `scenario_idx` belonging to model
    /// `model_idx`, in severity order — the figure binaries' accessor.
    pub fn model_cells(&self, scenario_idx: usize, model_idx: usize) -> &[CellResult] {
        let scenario = &self.scenarios[scenario_idx];
        let per_model = scenario.severities.len();
        &scenario.cells[model_idx * per_model..(model_idx + 1) * per_model]
    }
}

/// A JSON number for `v`, or `null` when it is not finite.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Rust's shortest-round-trip Display never emits exponents for
        // f64, so the output is plain JSON-safe decimal.
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_f64_array(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|&v| json_f64(v)).collect();
    format!("[{}]", items.join(", "))
}

/// A prepared campaign: the spec, the data, and the base models fitted
/// once on the clean training split (inference-time faults corrupt clones
/// of these; train-time faults refit from the spec per trial).
pub struct Campaign<'a> {
    spec: &'a CampaignSpec,
    data: CampaignData<'a>,
    base: Vec<Pipeline>,
}

impl<'a> Campaign<'a> {
    /// Fits every model spec on the clean training split.
    ///
    /// Baseline specs require `baselines::spec::install()` to have been
    /// called (the CLI and figure binaries do).
    ///
    /// # Errors
    ///
    /// Propagates training failures ([`Pipeline::fit`]).
    pub fn new(spec: &'a CampaignSpec, data: CampaignData<'a>) -> Result<Self> {
        let base = spec
            .models
            .iter()
            .map(|m| {
                Ok(Pipeline::fit(m, data.train_x, data.train_y)?
                    .with_abstain_threshold(spec.abstain_threshold))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { spec, data, base })
    }

    /// The clean-fit pipelines, in spec order (severity-0 reference and
    /// storage inspection for the figure binaries).
    pub fn base_models(&self) -> &[Pipeline] {
        &self.base
    }

    /// Runs the full sweep: every `(scenario, model, severity)` cell for
    /// [`CampaignSpec::trials`] trials, fanned out over `threads` worker
    /// threads. Reports are bit-identical for any `threads` value (see
    /// the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Propagates the first cell failure (unsupported fault/model pairs,
    /// refit failures) in cell order.
    pub fn run(&self, threads: usize) -> Result<CampaignReport> {
        // (scenario, model, severity) in spec order.
        let mut cells: Vec<(usize, usize, usize)> = Vec::new();
        for (s, scenario) in self.spec.scenarios.iter().enumerate() {
            for m in 0..self.spec.models.len() {
                for v in 0..scenario.severities.len() {
                    cells.push((s, m, v));
                }
            }
        }
        let results = parallel_map_indices(cells.len(), threads, |i| {
            let (s, m, v) = cells[i];
            self.run_cell(s, m, v)
        })
        .into_iter()
        .collect::<Result<Vec<CellResult>>>()?;

        let mut iter = results.into_iter();
        let scenarios = self
            .spec
            .scenarios
            .iter()
            .enumerate()
            .map(|(s, scenario)| ScenarioResult {
                fault: scenario.fault.clone(),
                seed: self.spec.scenario_seed(s),
                severities: scenario.severities.clone(),
                cells: iter
                    .by_ref()
                    .take(self.spec.models.len() * scenario.severities.len())
                    .collect(),
            })
            .collect();
        Ok(CampaignReport {
            format_version: REPORT_FORMAT_VERSION,
            name: self.spec.name.clone(),
            seed: self.spec.seed,
            trials: self.spec.trials,
            abstain_threshold: self.spec.abstain_threshold,
            models: self
                .spec
                .models
                .iter()
                .map(|m| (m.kind_tag().to_string(), m.display_name().to_string()))
                .collect(),
            scenarios,
            streaming: None,
        })
    }

    fn run_cell(&self, s: usize, m: usize, v: usize) -> Result<CellResult> {
        let scenario = &self.spec.scenarios[s];
        let severity = scenario.severities[v];
        let scenario_seed = self.spec.scenario_seed(s);
        let model_spec = &self.spec.models[m];
        let num_classes = self.data.num_classes().max(self.base[m].num_classes());

        let mut accuracy_runs = Vec::with_capacity(self.spec.trials);
        let mut f1_sum = 0.0f64;
        let mut abstained = 0usize;
        let mut confidence_sum = 0.0f64;
        let mut predicted = 0usize;
        let mut hist = [0usize; 10];
        for t in 0..self.spec.trials {
            let mut rng = Rng64::seed_from(trial_seed(scenario_seed, v, t));
            let (predictions, truth): (Vec<Prediction>, &[usize]) = match &scenario.fault {
                FaultModel::BitFlip => {
                    let mut corrupted = self.base[m].clone();
                    corrupted.inject_bitflips(severity, &mut rng)?;
                    (
                        corrupted.predict_batch_with_confidence(self.data.test_x),
                        self.data.test_y,
                    )
                }
                FaultModel::GaussianNoise => {
                    let mut x = self.data.test_x.clone();
                    add_gaussian_noise(&mut x, severity as f32, &mut rng);
                    (
                        self.base[m].predict_batch_with_confidence(&x),
                        self.data.test_y,
                    )
                }
                FaultModel::SpikeNoise { amplitude } => {
                    let mut x = self.data.test_x.clone();
                    add_spike_noise(&mut x, severity, *amplitude as f32, &mut rng);
                    (
                        self.base[m].predict_batch_with_confidence(&x),
                        self.data.test_y,
                    )
                }
                FaultModel::ChannelDropout => {
                    let mut x = self.data.test_x.clone();
                    drop_channels(&mut x, severity, &mut rng);
                    (
                        self.base[m].predict_batch_with_confidence(&x),
                        self.data.test_y,
                    )
                }
                FaultModel::LabelNoise => {
                    if num_classes < 2 {
                        return Err(campaign_err(
                            "label_noise needs at least two classes in the training labels",
                        ));
                    }
                    let mut y = self.data.train_y.to_vec();
                    flip_labels(&mut y, num_classes, severity, &mut rng);
                    let refit = Pipeline::fit(model_spec, self.data.train_x, &y)?
                        .with_abstain_threshold(self.spec.abstain_threshold);
                    (
                        refit.predict_batch_with_confidence(self.data.test_x),
                        self.data.test_y,
                    )
                }
                FaultModel::ClassImbalance { target_class } => {
                    if *target_class >= num_classes {
                        return Err(campaign_err(format!(
                            "class_imbalance target_class {target_class} out of range \
                             (labels span {num_classes} classes)"
                        )));
                    }
                    let keep = imbalanced_indices(
                        self.data.train_y,
                        ImbalanceSpec::from_reduction(*target_class, severity),
                        &mut rng,
                    );
                    let rows: Vec<Vec<f32>> = keep
                        .iter()
                        .map(|&i| self.data.train_x.row(i).to_vec())
                        .collect();
                    let y: Vec<usize> = keep.iter().map(|&i| self.data.train_y[i]).collect();
                    let x = Matrix::from_rows(&rows).map_err(|e| campaign_err(e.to_string()))?;
                    let refit = Pipeline::fit(model_spec, &x, &y)?
                        .with_abstain_threshold(self.spec.abstain_threshold);
                    (
                        refit.predict_batch_with_confidence(self.data.test_x),
                        self.data.test_y,
                    )
                }
            };
            let classes: Vec<usize> = predictions.iter().map(|p| p.class).collect();
            accuracy_runs.push(accuracy(&classes, truth) * 100.0);
            f1_sum += macro_f1(&classes, truth, num_classes);
            for p in &predictions {
                predicted += 1;
                confidence_sum += p.confidence as f64;
                if p.abstained {
                    abstained += 1;
                }
                let bin = ((p.confidence * 10.0) as usize).min(9);
                hist[bin] += 1;
            }
        }
        let mean_accuracy_pct = RunStats::from_runs(accuracy_runs.clone()).mean();
        Ok(CellResult {
            model: model_spec.kind_tag().to_string(),
            display: model_spec.display_name().to_string(),
            severity,
            accuracy_runs_pct: accuracy_runs,
            mean_accuracy_pct,
            mean_macro_f1: f1_sum / self.spec.trials as f64,
            abstention_rate: abstained as f64 / predicted.max(1) as f64,
            mean_confidence: (confidence_sum / predicted.max(1) as f64 * 1e4).round() / 1e4,
            confidence_hist: hist,
        })
    }
}

/// Fits and sweeps in one call; see [`Campaign`].
///
/// # Errors
///
/// As [`Campaign::new`] and [`Campaign::run`].
pub fn run(spec: &CampaignSpec, data: CampaignData<'_>, threads: usize) -> Result<CampaignReport> {
    Campaign::new(spec, data)?.run(threads)
}

/// Builds the [`InferenceEngine::serve_with_hook`] hook that injects a
/// sensor fault into every flushed micro-batch: the hook for batch `b`
/// draws from `Rng64::seed_from(splitmix64(seed ^ b))`, so the corruption
/// stream is a pure function of `(fault, severity, seed, batch index)` —
/// deterministic whenever batch composition is (size-triggered flushes).
///
/// # Errors
///
/// Returns [`BoostHdError::InvalidConfig`] for faults that do not perturb
/// feature rows (bit flips, label noise, imbalance).
pub fn sensor_fault_hook(
    fault: &FaultModel,
    severity: f64,
    seed: u64,
) -> Result<impl FnMut(usize, &mut Matrix) + '_> {
    if !fault.is_sensor_fault() {
        return Err(campaign_err(format!(
            "fault `{}` does not apply to streamed feature rows \
             (streaming supports gaussian_noise, spike_noise, channel_dropout)",
            fault.tag()
        )));
    }
    let fault = fault.clone();
    Ok(move |batch: usize, x: &mut Matrix| {
        let mut rng = Rng64::seed_from(splitmix64(seed ^ batch as u64));
        match &fault {
            FaultModel::GaussianNoise => add_gaussian_noise(x, severity as f32, &mut rng),
            FaultModel::SpikeNoise { amplitude } => {
                add_spike_noise(x, severity, *amplitude as f32, &mut rng);
            }
            FaultModel::ChannelDropout => {
                drop_channels(x, severity, &mut rng);
            }
            _ => unreachable!("validated above"),
        }
    })
}

/// Serves `rows` through `engine` twice — once clean, once with
/// [`sensor_fault_hook`] corrupting every flushed batch — and reports the
/// accuracy drop: reliability degradation under live micro-batched
/// traffic rather than materialized matrices.
///
/// Determinism follows the hook's contract: pin the engine's `max_batch`
/// and use a generous `max_wait` so flushes are size-triggered, and the
/// faulted predictions are a pure function of `(rows, fault, severity,
/// seed)`.
///
/// # Errors
///
/// As [`sensor_fault_hook`].
pub fn measure_streaming_degradation<C>(
    engine: &InferenceEngine<'_, C>,
    rows: &[Vec<f32>],
    labels: &[usize],
    fault: &FaultModel,
    severity: f64,
    seed: u64,
) -> Result<StreamingResult>
where
    C: boosthd::Classifier + Sync + ?Sized,
{
    let mut hook = sensor_fault_hook(fault, severity, seed)?;
    let clean = engine.serve(rows.iter().cloned());
    let faulted = engine.serve_with_hook(rows.iter().cloned(), &mut hook);
    Ok(StreamingResult {
        fault: fault.clone(),
        severity,
        windows: rows.len(),
        batches: faulted.stats.batches,
        clean_accuracy_pct: accuracy(&clean.predictions, labels) * 100.0,
        faulted_accuracy_pct: accuracy(&faulted.predictions, labels) * 100.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use boosthd::{CentroidHdConfig, OnlineHdConfig};

    fn blobs(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = Rng64::seed_from(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 3;
            let c = class as f32 * 2.0 - 2.0;
            rows.push(vec![c + 0.4 * rng.normal(), -c + 0.4 * rng.normal()]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "unit".into(),
            seed: 11,
            trials: 2,
            abstain_threshold: 0.35,
            models: vec![
                ModelSpec::OnlineHd(OnlineHdConfig {
                    dim: 64,
                    epochs: 2,
                    ..Default::default()
                }),
                ModelSpec::CentroidHd(CentroidHdConfig {
                    dim: 64,
                    ..Default::default()
                }),
            ],
            scenarios: vec![
                ScenarioSpec::new(FaultModel::BitFlip, vec![0.0, 1e-3]),
                ScenarioSpec::new(FaultModel::GaussianNoise, vec![0.0, 0.8]).with_seed(99),
                ScenarioSpec::new(FaultModel::LabelNoise, vec![0.0, 0.4]),
            ],
        }
    }

    #[test]
    fn campaign_shape_matches_spec() {
        let (x, y) = blobs(90, 1);
        let spec = tiny_spec();
        let report = run(&spec, CampaignData::new(&x, &y, &x, &y).unwrap(), 2).unwrap();
        assert_eq!(report.format_version, REPORT_FORMAT_VERSION);
        assert_eq!(report.scenarios.len(), 3);
        for scenario in &report.scenarios {
            assert_eq!(scenario.cells.len(), 2 * 2, "models x severities");
            for cell in &scenario.cells {
                assert_eq!(cell.accuracy_runs_pct.len(), spec.trials);
                assert!((0.0..=100.0).contains(&cell.mean_accuracy_pct));
                assert!((0.0..=1.0).contains(&cell.mean_macro_f1));
                assert!((0.0..=1.0).contains(&cell.abstention_rate));
                let pooled: usize = cell.confidence_hist.iter().sum();
                assert_eq!(pooled, spec.trials * x.rows());
            }
        }
        // Pinned scenario seeds pass through; derived ones differ.
        assert_eq!(report.scenarios[1].seed, 99);
        assert_ne!(report.scenarios[0].seed, report.scenarios[2].seed);
        // model_cells slices severity-contiguous runs per model.
        let cells = report.model_cells(0, 1);
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.model == "centroid_hd"));
    }

    #[test]
    fn severity_zero_cells_match_clean_accuracy() {
        let (x, y) = blobs(90, 2);
        let spec = tiny_spec();
        let campaign = Campaign::new(&spec, CampaignData::new(&x, &y, &x, &y).unwrap()).unwrap();
        let clean: Vec<f64> = campaign
            .base_models()
            .iter()
            .map(|p| accuracy(&p.predict_batch(&x), &y) * 100.0)
            .collect();
        let report = campaign.run(1).unwrap();
        for (m, &clean_acc) in clean.iter().enumerate() {
            for (s, _) in spec.scenarios.iter().enumerate() {
                let cell = &report.model_cells(s, m)[0];
                assert_eq!(cell.severity, 0.0);
                for &run in &cell.accuracy_runs_pct {
                    assert_eq!(run, clean_acc, "scenario {s} model {m}");
                }
            }
        }
    }

    #[test]
    fn reports_are_identical_across_thread_counts() {
        let (x, y) = blobs(90, 3);
        let spec = tiny_spec();
        let data = CampaignData::new(&x, &y, &x, &y).unwrap();
        let reference = run(&spec, data, 1).unwrap().to_json();
        for threads in [2, 8] {
            assert_eq!(
                run(&spec, data, threads).unwrap().to_json(),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn trial_seed_contract_is_stable() {
        // fig8's historical derivation: base ^ (severity_idx << 16) ^ trial.
        assert_eq!(trial_seed(0xF11A, 0, 0), 0xF11A);
        assert_eq!(trial_seed(0xF11A, 2, 3), 0xF11A ^ (2 << 16) ^ 3);
    }

    #[test]
    fn spec_round_trips_through_toml() {
        let spec = CampaignSpec {
            name: "roundtrip".into(),
            seed: u64::MAX - 3,
            trials: 4,
            abstain_threshold: 0.25,
            models: tiny_spec().models,
            scenarios: vec![
                ScenarioSpec::new(FaultModel::SpikeNoise { amplitude: 4.0 }, vec![0.0, 0.1]),
                ScenarioSpec::new(
                    FaultModel::ClassImbalance { target_class: 1 },
                    vec![0.0, 0.5, 0.9],
                )
                .with_seed(77),
                ScenarioSpec::new(FaultModel::ChannelDropout, vec![0.25]),
            ],
        };
        let text = spec.to_toml();
        let back = CampaignSpec::from_toml_str(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back, spec, "{text}");
    }

    #[test]
    fn malformed_specs_fail_loudly() {
        // No models / no scenarios.
        assert!(CampaignSpec::from_toml_str("[campaign]\nseed = 1\n").is_err());
        let base = "[model]\nkind = \"centroid_hd\"\n";
        assert!(CampaignSpec::from_toml_str(base).is_err(), "no scenario");
        // Unknown fault.
        let err = CampaignSpec::from_toml_str(&format!(
            "{base}[scenario]\nfault = \"gamma_rays\"\nseverities = [0.1]\n"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("gamma_rays"), "{err}");
        // Fault-specific keys on the wrong fault.
        assert!(CampaignSpec::from_toml_str(&format!(
            "{base}[scenario]\nfault = \"bit_flip\"\namplitude = 2.0\nseverities = [0.1]\n"
        ))
        .is_err());
        // Spike noise requires its amplitude.
        assert!(CampaignSpec::from_toml_str(&format!(
            "{base}[scenario]\nfault = \"spike_noise\"\nseverities = [0.1]\n"
        ))
        .is_err());
        // Empty and negative severity grids.
        assert!(CampaignSpec::from_toml_str(&format!(
            "{base}[scenario]\nfault = \"bit_flip\"\nseverities = []\n"
        ))
        .is_err());
        assert!(CampaignSpec::from_toml_str(&format!(
            "{base}[scenario]\nfault = \"bit_flip\"\nseverities = [-0.5]\n"
        ))
        .is_err());
        // Unknown keys anywhere.
        assert!(CampaignSpec::from_toml_str(&format!(
            "[campaign]\ntrails = 3\n{base}[scenario]\nfault = \"bit_flip\"\nseverities = [0.1]\n"
        ))
        .is_err());
        // A typo'd table name must not silently drop a sweep axis.
        let err = CampaignSpec::from_toml_str(&format!(
            "{base}[scenario]\nfault = \"bit_flip\"\nseverities = [0.1]\n\
             [scenaro-2]\nfault = \"gaussian_noise\"\nseverities = [0.5]\n"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("scenaro-2"), "{err}");
        let err = CampaignSpec::from_toml_str(&format!(
            "{base}[model_2]\nkind = \"online_hd\"\n[scenario]\nfault = \"bit_flip\"\nseverities = [0.1]\n"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("model_2"), "{err}");
        // ... while the CLI-reserved tables pass through untouched.
        assert!(CampaignSpec::from_toml_str(&format!(
            "{base}[scenario]\nfault = \"bit_flip\"\nseverities = [0.1]\n\
             [dataset]\nsubjects = 4\n[serve]\nmax_batch = 8\n[stream]\nwindows = 10\n"
        ))
        .is_ok());
        // Stray top-level keys are rejected, not ignored.
        let err = CampaignSpec::from_toml_str(&format!(
            "trials = 9\n{base}[scenario]\nfault = \"bit_flip\"\nseverities = [0.1]\n"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("top-level"), "{err}");
        // Zero trials.
        assert!(CampaignSpec::from_toml_str(&format!(
            "[campaign]\ntrials = 0\n{base}[scenario]\nfault = \"bit_flip\"\nseverities = [0.1]\n"
        ))
        .is_err());
    }

    #[test]
    fn streaming_hook_rejects_model_faults_and_measures_sensor_faults() {
        assert!(sensor_fault_hook(&FaultModel::BitFlip, 0.1, 1).is_err());
        assert!(sensor_fault_hook(&FaultModel::LabelNoise, 0.1, 1).is_err());

        let (x, y) = blobs(60, 4);
        let spec = ModelSpec::CentroidHd(CentroidHdConfig {
            dim: 128,
            ..Default::default()
        });
        let pipeline = Pipeline::fit(&spec, &x, &y).unwrap();
        let engine = InferenceEngine::with_config(
            &pipeline,
            boosthd_serve::EngineConfig {
                max_batch: 16,
                max_wait: std::time::Duration::from_secs(3600),
                threads: Some(2),
                ..Default::default()
            },
        );
        let rows: Vec<Vec<f32>> = (0..x.rows()).map(|r| x.row(r).to_vec()).collect();
        let clean =
            measure_streaming_degradation(&engine, &rows, &y, &FaultModel::GaussianNoise, 0.0, 9)
                .unwrap();
        assert_eq!(clean.clean_accuracy_pct, clean.faulted_accuracy_pct);
        let noisy =
            measure_streaming_degradation(&engine, &rows, &y, &FaultModel::GaussianNoise, 3.0, 9)
                .unwrap();
        assert_eq!(noisy.windows, 60);
        assert!(noisy.faulted_accuracy_pct <= noisy.clean_accuracy_pct);
        // Determinism: same call, same numbers.
        let again =
            measure_streaming_degradation(&engine, &rows, &y, &FaultModel::GaussianNoise, 3.0, 9)
                .unwrap();
        assert_eq!(again, noisy);
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let (x, y) = blobs(60, 5);
        let mut spec = tiny_spec();
        spec.trials = 1;
        spec.scenarios.truncate(1);
        let report = run(&spec, CampaignData::new(&x, &y, &x, &y).unwrap(), 1).unwrap();
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"format_version\": 1"));
        assert!(json.contains("\"bit_flip\""));
        assert!(!json.contains("NaN"));
        assert!(escape_json("a\"b\\c\n").contains("\\\""));
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
