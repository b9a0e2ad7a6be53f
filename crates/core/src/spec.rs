//! [`ModelSpec`]: the declarative, serializable description of every model
//! in the evaluation.
//!
//! The paper (and the broader HDC-classification literature: HDTorch, the
//! Ge & Parhi review) treats model choice as a swept design-space
//! parameter; this module makes that literal. One `ModelSpec` value names
//! a model family plus its full hyperparameter set — HDC encoder
//! dimensionality, training knobs, storage precision, and for the
//! classical baselines the handful of knobs the Table I zoo varies.
//! Precision is a field, not a family: a quantized spec names its shape
//! (`QuantizedOnlineHd` or `QuantizedBoostHd`) and the [`Tier`] (int8 or
//! 1-bit) its trained f32 class memory is frozen into, and [`Tier`] alone
//! knows each tier's `kind` tag, report name and payload kind. Specs round-trip through the TOML subset in [`crate::toml`]
//! (`[model]` tables, the `hdrun` CLI's file format) and through the
//! persistence envelope ([`crate::pipeline`]), so a trained artifact
//! always records exactly how to rebuild itself.
//!
//! Construct a spec directly from the existing config structs:
//!
//! ```
//! use boosthd::{BoostHdConfig, ModelSpec};
//!
//! let spec = ModelSpec::BoostHd(BoostHdConfig { dim_total: 2000, ..Default::default() });
//! let text = spec.to_toml();
//! assert_eq!(ModelSpec::from_toml_str(&text)?, spec);
//! # Ok::<(), boosthd::BoostHdError>(())
//! ```

use crate::boost::{BoostHdConfig, EnsembleMode, SampleMode, Voting};
use crate::centroid::CentroidHdConfig;
use crate::error::{BoostHdError, Result};
use crate::online::OnlineHdConfig;
use crate::pipeline::PayloadKind;
use crate::toml::{TomlDoc, TomlTable, TomlWriter};
use serde::{Deserialize, Serialize};

fn spec_err(reason: impl Into<String>) -> BoostHdError {
    BoostHdError::InvalidConfig {
        reason: reason.into(),
    }
}

/// Which classical baseline a [`BaselineSpec`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BaselineKind {
    /// AdaBoost over shallow trees.
    AdaBoost,
    /// Random forest.
    RandomForest,
    /// Gradient-boosted trees (XGBoost-style).
    Gbt,
    /// Linear SVM (Pegasos, one-vs-rest).
    Svm,
    /// The dropout MLP the paper calls "DNN".
    Mlp,
}

impl BaselineKind {
    /// Stable spec-file tag.
    pub fn tag(self) -> &'static str {
        match self {
            BaselineKind::AdaBoost => "adaboost",
            BaselineKind::RandomForest => "random_forest",
            BaselineKind::Gbt => "gbt",
            BaselineKind::Svm => "svm",
            BaselineKind::Mlp => "mlp",
        }
    }

    fn from_tag(tag: &str) -> Result<Self> {
        Ok(match tag {
            "adaboost" => BaselineKind::AdaBoost,
            "random_forest" => BaselineKind::RandomForest,
            "gbt" | "xgboost" => BaselineKind::Gbt,
            "svm" => BaselineKind::Svm,
            "mlp" | "dnn" => BaselineKind::Mlp,
            other => return Err(spec_err(format!("unknown baseline kind `{other}`"))),
        })
    }
}

/// Declarative description of one classical baseline: the kind plus the
/// knobs the evaluation varies. `None` fields take the baseline crate's
/// defaults (the paper's hyperparameters).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineSpec {
    /// Which baseline family.
    pub kind: BaselineKind,
    /// Seed for bootstraps / initialization / shuffling.
    pub seed: u64,
    /// Estimator count override (trees / boosting rounds), where the
    /// family has one.
    pub n_estimators: Option<usize>,
    /// Epoch override (SVM passes, MLP epochs), where the family has one.
    pub epochs: Option<usize>,
    /// Learning-rate override, where the family has one.
    pub lr: Option<f64>,
    /// Hidden-layer widths override (MLP only).
    pub hidden: Option<Vec<usize>>,
}

impl BaselineSpec {
    /// A baseline spec of `kind` with every knob at the paper default.
    pub fn new(kind: BaselineKind, seed: u64) -> Self {
        Self {
            kind,
            seed,
            n_estimators: None,
            epochs: None,
            lr: None,
            hidden: None,
        }
    }
}

/// The storage precision a quantized spec freezes its trained f32 class
/// memory into: one rung of the quantization ladder below f32. The model
/// shape (single learner or boosted ensemble) stays in the [`ModelSpec`]
/// variant, mirroring [`crate::Single`]/[`crate::Ensemble`] ×
/// [`crate::ClassMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// Symmetric per-row int8 ([`crate::I8Rows`]).
    Int8,
    /// Bitpacked signs ([`hdc::backend::PackedMatrix`]).
    Binary,
}

impl Tier {
    /// The quantized tiers, most precise first: the rungs the degrade
    /// ladder steps down through after f32.
    pub const LADDER: [Tier; 2] = [Tier::Int8, Tier::Binary];

    /// The tier's name in serving replies and health reports.
    pub fn tag(self) -> &'static str {
        match self {
            Tier::Int8 => "int8",
            Tier::Binary => "binary",
        }
    }

    /// The spec-file `kind`, report name and payload kind of the
    /// quantized single-learner (`ensemble = false`) or boosted
    /// (`ensemble = true`) model at this tier.
    pub(crate) fn names(self, ensemble: bool) -> (&'static str, &'static str, PayloadKind) {
        match (self, ensemble) {
            (Tier::Int8, false) => (
                "quantized_i8_online_hd",
                "OnlineHD(int8)",
                PayloadKind::QuantizedI8Hd,
            ),
            (Tier::Int8, true) => (
                "quantized_i8_boost_hd",
                "BoostHD(int8)",
                PayloadKind::QuantizedI8BoostHd,
            ),
            (Tier::Binary, false) => (
                "quantized_online_hd",
                "OnlineHD(bitpacked)",
                PayloadKind::QuantizedHd,
            ),
            (Tier::Binary, true) => (
                "quantized_boost_hd",
                "BoostHD(bitpacked)",
                PayloadKind::QuantizedBoostHd,
            ),
        }
    }

    /// The tier and shape a quantized spec-file `kind` names.
    fn from_kind_tag(kind: &str) -> Option<(Tier, bool)> {
        Tier::LADDER
            .into_iter()
            .flat_map(|tier| [(tier, false), (tier, true)])
            .find(|&(tier, ensemble)| tier.names(ensemble).0 == kind)
    }
}

/// The unified, declarative model description: every model family of the
/// evaluation with its nested hyperparameters. See the [module
/// docs](self) and [`crate::pipeline::Pipeline::fit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// OnlineHD with a dense-f32 backend.
    OnlineHd(OnlineHdConfig),
    /// Single-pass centroid bundling with a dense-f32 backend.
    CentroidHd(CentroidHdConfig),
    /// The paper's boosted partitioned ensemble, dense-f32 backend.
    BoostHd(BoostHdConfig),
    /// OnlineHD trained in f32 then frozen to a quantized [`Tier`]
    /// (optionally with quantization-aware refit epochs).
    QuantizedOnlineHd {
        /// The f32 training configuration.
        base: OnlineHdConfig,
        /// The storage precision the class memory is frozen into.
        tier: Tier,
        /// Straight-through refinement epochs before freezing (0 = plain
        /// data-free quantization).
        refit_epochs: usize,
    },
    /// BoostHD trained in f32 then frozen to a quantized [`Tier`].
    QuantizedBoostHd {
        /// The f32 training configuration.
        base: BoostHdConfig,
        /// The storage precision every learner's memory is frozen into.
        tier: Tier,
        /// Straight-through refinement epochs before freezing (0 = plain
        /// data-free quantization).
        refit_epochs: usize,
    },
    /// A classical baseline from the Table I zoo (constructed through the
    /// registered builder; see [`crate::pipeline::register_baseline_builder`]).
    Baseline(BaselineSpec),
}

impl ModelSpec {
    /// Stable spec-file tag of the model family (`kind = "..."`).
    pub fn kind_tag(&self) -> &'static str {
        match self {
            ModelSpec::OnlineHd(_) => "online_hd",
            ModelSpec::CentroidHd(_) => "centroid_hd",
            ModelSpec::BoostHd(_) => "boost_hd",
            ModelSpec::QuantizedOnlineHd { tier, .. } => tier.names(false).0,
            ModelSpec::QuantizedBoostHd { tier, .. } => tier.names(true).0,
            ModelSpec::Baseline(b) => b.kind.tag(),
        }
    }

    /// Human-readable family name for reports.
    pub fn display_name(&self) -> &'static str {
        match self {
            ModelSpec::OnlineHd(_) => "OnlineHD",
            ModelSpec::CentroidHd(_) => "CentroidHD",
            ModelSpec::BoostHd(_) => "BoostHD",
            ModelSpec::QuantizedOnlineHd { tier, .. } => tier.names(false).1,
            ModelSpec::QuantizedBoostHd { tier, .. } => tier.names(true).1,
            ModelSpec::Baseline(b) => match b.kind {
                BaselineKind::AdaBoost => "Adaboost",
                BaselineKind::RandomForest => "RF",
                BaselineKind::Gbt => "XGBoost",
                BaselineKind::Svm => "SVM",
                BaselineKind::Mlp => "DNN",
            },
        }
    }

    /// Re-seeds the spec in place (the repeated-run harness derives one
    /// spec per run from a base spec).
    pub fn set_seed(&mut self, seed: u64) {
        match self {
            ModelSpec::OnlineHd(c) | ModelSpec::QuantizedOnlineHd { base: c, .. } => c.seed = seed,
            ModelSpec::CentroidHd(c) => c.seed = seed,
            ModelSpec::BoostHd(c) | ModelSpec::QuantizedBoostHd { base: c, .. } => c.seed = seed,
            ModelSpec::Baseline(b) => b.seed = seed,
        }
    }

    /// Returns the spec with its seed replaced (builder-style
    /// [`ModelSpec::set_seed`]).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.set_seed(seed);
        self
    }

    /// The precision the spec's model scores at, as serving replies name
    /// it: `"f32"` for the dense HDC families, the [`Tier::tag`] of a
    /// quantized spec, `"baseline"` for the classical baselines.
    pub fn tier_tag(&self) -> &'static str {
        match self {
            ModelSpec::OnlineHd(_) | ModelSpec::CentroidHd(_) | ModelSpec::BoostHd(_) => "f32",
            ModelSpec::QuantizedOnlineHd { tier, .. }
            | ModelSpec::QuantizedBoostHd { tier, .. } => tier.tag(),
            ModelSpec::Baseline(_) => "baseline",
        }
    }

    /// The spec of this f32 OnlineHD or BoostHD spec's model frozen into
    /// `tier` after `refit_epochs`; `None` for every other family.
    pub(crate) fn quantized(&self, tier: Tier, refit_epochs: usize) -> Option<ModelSpec> {
        match self {
            ModelSpec::OnlineHd(base) => Some(ModelSpec::QuantizedOnlineHd {
                base: *base,
                tier,
                refit_epochs,
            }),
            ModelSpec::BoostHd(base) => Some(ModelSpec::QuantizedBoostHd {
                base: *base,
                tier,
                refit_epochs,
            }),
            _ => None,
        }
    }

    /// Serializes the spec as a `[model]` TOML table (the `hdrun` spec-file
    /// format; every field is written explicitly so the file doubles as
    /// documentation of the paper defaults).
    pub fn to_toml(&self) -> String {
        let mut w = TomlWriter::new();
        self.write_toml_table(&mut w, "model");
        w.into_string()
    }

    /// Writes the spec as a named `[table]` into an ongoing document —
    /// campaign spec files hold several model tables (`[model-1]`,
    /// `[model-2]`, ...), all sharing the `[model]` key vocabulary.
    pub fn write_toml_table(&self, w: &mut TomlWriter, table: &str) {
        w.table(table);
        w.str("kind", self.kind_tag());
        match self {
            ModelSpec::OnlineHd(c) => write_online(w, c),
            ModelSpec::CentroidHd(c) => {
                w.int("dim", c.dim as i64);
                w.u64("seed", c.seed);
            }
            ModelSpec::BoostHd(c) => write_boost(w, c),
            ModelSpec::QuantizedOnlineHd {
                base, refit_epochs, ..
            } => {
                write_online(w, base);
                w.int("refit_epochs", *refit_epochs as i64);
            }
            ModelSpec::QuantizedBoostHd {
                base, refit_epochs, ..
            } => {
                write_boost(w, base);
                w.int("refit_epochs", *refit_epochs as i64);
            }
            ModelSpec::Baseline(b) => {
                w.u64("seed", b.seed);
                if let Some(n) = b.n_estimators {
                    w.int("n_estimators", n as i64);
                }
                if let Some(e) = b.epochs {
                    w.int("epochs", e as i64);
                }
                if let Some(lr) = b.lr {
                    w.float("lr", lr);
                }
                if let Some(h) = &b.hidden {
                    w.int_array("hidden", h);
                }
            }
        }
    }

    /// Parses a spec from a document containing a `[model]` table (inverse
    /// of [`ModelSpec::to_toml`]; missing optional keys take the paper
    /// defaults).
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] for malformed TOML, a
    /// missing `[model]` table, an unknown `kind`, or mistyped fields.
    pub fn from_toml_str(text: &str) -> Result<Self> {
        let doc = TomlDoc::parse(text)?;
        let table = doc
            .table("model")
            .ok_or_else(|| spec_err("spec file has no [model] table"))?;
        Self::from_toml_table(table)
    }

    /// Parses a spec from an already-located `[model]` table.
    ///
    /// Unknown keys are rejected: a misspelled hyperparameter
    /// (`dim` for `dim_total`, `n_leaners`, ...) must fail loudly, not
    /// silently train with the paper defaults.
    ///
    /// # Errors
    ///
    /// As [`ModelSpec::from_toml_str`].
    pub fn from_toml_table(table: &TomlTable) -> Result<Self> {
        let kind = table.get_str("kind")?;
        // A quantized kind reads its f32 base's keys, plus `refit_epochs`.
        let quantized = Tier::from_kind_tag(kind);
        let base_kind = match quantized {
            Some((_, true)) => "boost_hd",
            Some((_, false)) => "online_hd",
            None => kind,
        };
        let mut allowed: Vec<&str> = match base_kind {
            "online_hd" => ONLINE_KEYS.to_vec(),
            "centroid_hd" => vec!["kind", "dim", "seed"],
            "boost_hd" => BOOST_KEYS.to_vec(),
            _ => vec!["kind", "seed", "n_estimators", "epochs", "lr", "hidden"],
        };
        allowed.extend(quantized.map(|_| "refit_epochs"));
        if let Some(bad) = table.keys().find(|k| !allowed.contains(k)) {
            return Err(spec_err(format!(
                "unknown key `{bad}` in [model] for kind `{kind}` (allowed: {})",
                allowed.join(", ")
            )));
        }
        let spec = match base_kind {
            "online_hd" => ModelSpec::OnlineHd(read_online(table)?),
            "centroid_hd" => {
                let mut c = CentroidHdConfig::default();
                if let Some(v) = opt_usize(table, "dim")? {
                    c.dim = v;
                }
                if let Some(v) = opt_u64(table, "seed")? {
                    c.seed = v;
                }
                ModelSpec::CentroidHd(c)
            }
            "boost_hd" => ModelSpec::BoostHd(read_boost(table)?),
            other => {
                let mut b = BaselineSpec::new(BaselineKind::from_tag(other)?, 0x5EED);
                if let Some(v) = opt_u64(table, "seed")? {
                    b.seed = v;
                }
                b.n_estimators = opt_usize(table, "n_estimators")?;
                b.epochs = opt_usize(table, "epochs")?;
                b.lr = opt_float(table, "lr")?;
                b.hidden = match table.get("hidden") {
                    Some(_) => Some(table.get_usize_array("hidden")?),
                    None => None,
                };
                ModelSpec::Baseline(b)
            }
        };
        Ok(match quantized {
            Some((tier, _)) => {
                let refit_epochs = opt_usize(table, "refit_epochs")?.unwrap_or(0);
                spec.quantized(tier, refit_epochs)
                    .expect("a quantized kind reads an OnlineHD or BoostHD base")
            }
            None => spec,
        })
    }
}

/// Key vocabularies per spec kind, shared by the writer and the
/// unknown-key validation in [`ModelSpec::from_toml_table`]; the quantized
/// kinds add `refit_epochs` to their shape's.
const ONLINE_KEYS: [&str; 6] = ["kind", "dim", "lr", "epochs", "bootstrap", "seed"];
const BOOST_KEYS: [&str; 13] = [
    "kind",
    "dim_total",
    "n_learners",
    "lr",
    "epochs",
    "bootstrap",
    "voting",
    "mode",
    "sample_mode",
    "boost_shrinkage",
    "weight_clamp",
    "class_balanced_init",
    "seed",
];
fn opt_usize(table: &TomlTable, key: &str) -> Result<Option<usize>> {
    match table.get(key) {
        Some(_) => Ok(Some(table.get_usize(key)?)),
        None => Ok(None),
    }
}

fn opt_u64(table: &TomlTable, key: &str) -> Result<Option<u64>> {
    match table.get(key) {
        Some(_) => Ok(Some(table.get_u64(key)?)),
        None => Ok(None),
    }
}

fn opt_float(table: &TomlTable, key: &str) -> Result<Option<f64>> {
    match table.get(key) {
        Some(_) => Ok(Some(table.get_float(key)?)),
        None => Ok(None),
    }
}

fn opt_bool(table: &TomlTable, key: &str) -> Result<Option<bool>> {
    match table.get(key) {
        Some(_) => Ok(Some(table.get_bool(key)?)),
        None => Ok(None),
    }
}

fn opt_str<'t>(table: &'t TomlTable, key: &str) -> Result<Option<&'t str>> {
    match table.get(key) {
        Some(_) => table.get_str(key).map(Some),
        None => Ok(None),
    }
}

fn write_online(w: &mut TomlWriter, c: &OnlineHdConfig) {
    w.int("dim", c.dim as i64);
    w.float("lr", c.lr as f64);
    w.int("epochs", c.epochs as i64);
    w.bool("bootstrap", c.bootstrap);
    w.u64("seed", c.seed);
}

fn read_online(table: &TomlTable) -> Result<OnlineHdConfig> {
    let mut c = OnlineHdConfig::default();
    if let Some(v) = opt_usize(table, "dim")? {
        c.dim = v;
    }
    if let Some(v) = opt_float(table, "lr")? {
        c.lr = v as f32;
    }
    if let Some(v) = opt_usize(table, "epochs")? {
        c.epochs = v;
    }
    if let Some(v) = opt_bool(table, "bootstrap")? {
        c.bootstrap = v;
    }
    if let Some(v) = opt_u64(table, "seed")? {
        c.seed = v;
    }
    Ok(c)
}

fn voting_tag(v: Voting) -> &'static str {
    match v {
        Voting::Soft => "soft",
        Voting::Hard => "hard",
    }
}

fn mode_tag(m: EnsembleMode) -> &'static str {
    match m {
        EnsembleMode::Partitioned => "partitioned",
        EnsembleMode::FullDimension => "full_dimension",
    }
}

fn sample_tag(s: SampleMode) -> &'static str {
    match s {
        SampleMode::Resample => "resample",
        SampleMode::Reweight => "reweight",
    }
}

fn write_boost(w: &mut TomlWriter, c: &BoostHdConfig) {
    w.int("dim_total", c.dim_total as i64);
    w.int("n_learners", c.n_learners as i64);
    w.float("lr", c.lr as f64);
    w.int("epochs", c.epochs as i64);
    w.bool("bootstrap", c.bootstrap);
    w.str("voting", voting_tag(c.voting));
    w.str("mode", mode_tag(c.mode));
    w.str("sample_mode", sample_tag(c.sample_mode));
    w.float("boost_shrinkage", c.boost_shrinkage);
    w.float("weight_clamp", c.weight_clamp);
    w.bool("class_balanced_init", c.class_balanced_init);
    w.u64("seed", c.seed);
}

fn read_boost(table: &TomlTable) -> Result<BoostHdConfig> {
    let mut c = BoostHdConfig::default();
    if let Some(v) = opt_usize(table, "dim_total")? {
        c.dim_total = v;
    }
    if let Some(v) = opt_usize(table, "n_learners")? {
        c.n_learners = v;
    }
    if let Some(v) = opt_float(table, "lr")? {
        c.lr = v as f32;
    }
    if let Some(v) = opt_usize(table, "epochs")? {
        c.epochs = v;
    }
    if let Some(v) = opt_bool(table, "bootstrap")? {
        c.bootstrap = v;
    }
    if let Some(v) = opt_str(table, "voting")? {
        c.voting = match v {
            "soft" => Voting::Soft,
            "hard" => Voting::Hard,
            other => return Err(spec_err(format!("unknown voting `{other}`"))),
        };
    }
    if let Some(v) = opt_str(table, "mode")? {
        c.mode = match v {
            "partitioned" => EnsembleMode::Partitioned,
            "full_dimension" => EnsembleMode::FullDimension,
            other => return Err(spec_err(format!("unknown ensemble mode `{other}`"))),
        };
    }
    if let Some(v) = opt_str(table, "sample_mode")? {
        c.sample_mode = match v {
            "resample" => SampleMode::Resample,
            "reweight" => SampleMode::Reweight,
            other => return Err(spec_err(format!("unknown sample mode `{other}`"))),
        };
    }
    if let Some(v) = opt_float(table, "boost_shrinkage")? {
        c.boost_shrinkage = v;
    }
    if let Some(v) = opt_float(table, "weight_clamp")? {
        c.weight_clamp = v;
    }
    if let Some(v) = opt_bool(table, "class_balanced_init")? {
        c.class_balanced_init = v;
    }
    if let Some(v) = opt_u64(table, "seed")? {
        c.seed = v;
    }
    Ok(c)
}

/// Every spec variant at paper-default hyperparameters — the sweep axis
/// used by round-trip tests and the design-space tooling.
pub fn default_specs(seed: u64) -> Vec<ModelSpec> {
    let online = ModelSpec::OnlineHd(OnlineHdConfig {
        seed,
        ..Default::default()
    });
    let centroid = ModelSpec::CentroidHd(CentroidHdConfig {
        seed,
        ..Default::default()
    });
    let boost = ModelSpec::BoostHd(BoostHdConfig {
        seed,
        ..Default::default()
    });
    // Both shapes at each tier; the lossier 1-bit tier refits longer.
    let quantized: Vec<ModelSpec> = [(Tier::Binary, 5), (Tier::Int8, 2)]
        .into_iter()
        .flat_map(|(tier, epochs)| [&online, &boost].map(|base| base.quantized(tier, epochs)))
        .flatten()
        .collect();
    let baselines = [
        BaselineKind::AdaBoost,
        BaselineKind::RandomForest,
        BaselineKind::Gbt,
        BaselineKind::Svm,
        BaselineKind::Mlp,
    ]
    .map(|kind| ModelSpec::Baseline(BaselineSpec::new(kind, seed)));
    [online, centroid, boost]
        .into_iter()
        .chain(quantized)
        .chain(baselines)
        .collect()
}

/// Every persistable HDC spec at test sizes: the three f32 specs, then
/// OnlineHD (2 refit epochs) and BoostHD (refit-free) at each quantized
/// tier.
#[cfg(test)]
pub(crate) fn small_hdc_specs() -> Vec<ModelSpec> {
    let online = ModelSpec::OnlineHd(OnlineHdConfig {
        dim: 96,
        epochs: 3,
        ..Default::default()
    });
    let boost = ModelSpec::BoostHd(BoostHdConfig {
        dim_total: 120,
        n_learners: 4,
        epochs: 2,
        ..Default::default()
    });
    let quantized: Vec<ModelSpec> = [Tier::Binary, Tier::Int8]
        .into_iter()
        .flat_map(|tier| [online.quantized(tier, 2), boost.quantized(tier, 0)])
        .flatten()
        .collect();
    let centroid = ModelSpec::CentroidHd(CentroidHdConfig {
        dim: 96,
        ..Default::default()
    });
    [online, centroid, boost]
        .into_iter()
        .chain(quantized)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips_through_toml() {
        for (i, spec) in default_specs(17).into_iter().enumerate() {
            let text = spec.to_toml();
            let back = ModelSpec::from_toml_str(&text)
                .unwrap_or_else(|e| panic!("variant {i} failed to re-parse: {e}\n{text}"));
            assert_eq!(back, spec, "variant {i} drifted through TOML:\n{text}");
        }
    }

    #[test]
    fn non_default_fields_round_trip() {
        let spec = ModelSpec::BoostHd(BoostHdConfig {
            dim_total: 1234,
            n_learners: 7,
            lr: 0.06,
            epochs: 3,
            bootstrap: false,
            voting: Voting::Hard,
            mode: EnsembleMode::FullDimension,
            sample_mode: SampleMode::Reweight,
            boost_shrinkage: 0.5,
            weight_clamp: 2.5,
            class_balanced_init: false,
            seed: 99,
        });
        assert_eq!(ModelSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);

        let spec = ModelSpec::Baseline(BaselineSpec {
            kind: BaselineKind::Mlp,
            seed: 3,
            n_estimators: None,
            epochs: Some(2),
            lr: Some(0.01),
            hidden: Some(vec![64, 32]),
        });
        assert_eq!(ModelSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
    }

    #[test]
    fn missing_keys_take_paper_defaults() {
        let spec = ModelSpec::from_toml_str("[model]\nkind = \"online_hd\"\n").unwrap();
        assert_eq!(spec, ModelSpec::OnlineHd(OnlineHdConfig::default()));
        let spec =
            ModelSpec::from_toml_str("[model]\nkind = \"boost_hd\"\ndim_total = 800\n").unwrap();
        match spec {
            ModelSpec::BoostHd(c) => {
                assert_eq!(c.dim_total, 800);
                assert_eq!(c.n_learners, BoostHdConfig::default().n_learners);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_and_bad_enum_tags_fail() {
        assert!(ModelSpec::from_toml_str("[model]\nkind = \"mystery\"\n").is_err());
        assert!(
            ModelSpec::from_toml_str("[model]\nkind = \"boost_hd\"\nvoting = \"loud\"\n").is_err()
        );
        assert!(ModelSpec::from_toml_str("no model table here = 1\n").is_err());
    }

    #[test]
    fn misspelled_hyperparameters_are_rejected_not_defaulted() {
        // `dim` on boost_hd (user meant dim_total) must not silently train
        // at the paper-default D=4000.
        let err =
            ModelSpec::from_toml_str("[model]\nkind = \"boost_hd\"\ndim = 2000\n").unwrap_err();
        assert!(err.to_string().contains("dim"), "{err}");
        assert!(err.to_string().contains("dim_total"), "{err}");
        let err =
            ModelSpec::from_toml_str("[model]\nkind = \"boost_hd\"\nn_leaners = 20\n").unwrap_err();
        assert!(err.to_string().contains("n_leaners"), "{err}");
        assert!(
            ModelSpec::from_toml_str("[model]\nkind = \"online_hd\"\nrefit_epochs = 2\n").is_err(),
            "refit_epochs belongs to the quantized variants only"
        );
        assert!(
            ModelSpec::from_toml_str("[model]\nkind = \"svm\"\nhidden = [3]\n").is_ok(),
            "baseline key vocabulary is shared across families"
        );
    }

    #[test]
    fn reseeding_touches_every_variant() {
        for spec in default_specs(1) {
            let reseeded = spec.clone().with_seed(777);
            let text = reseeded.to_toml();
            assert!(text.contains("seed = 777"), "{text}");
            assert_ne!(reseeded, spec);
        }
    }

    #[test]
    fn display_names_match_paper_columns() {
        let names: Vec<&str> = default_specs(0).iter().map(|s| s.display_name()).collect();
        assert!(names.contains(&"BoostHD"));
        assert!(names.contains(&"XGBoost"));
        assert!(names.contains(&"DNN"));
    }
}
