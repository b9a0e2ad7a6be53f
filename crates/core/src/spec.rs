//! [`ModelSpec`]: the declarative, serializable description of every model
//! in the evaluation.
//!
//! The paper (and the broader HDC-classification literature: HDTorch, the
//! Ge & Parhi review) treats model choice as a swept design-space
//! parameter; this module makes that literal. One `ModelSpec` value names
//! a model family plus its full hyperparameter set — HDC encoder
//! dimensionality, training knobs, backend (dense f32 vs bitpacked sign),
//! and for the classical baselines the handful of knobs the Table I zoo
//! varies. Specs round-trip through the TOML subset in [`crate::toml`]
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
    /// OnlineHD trained in f32 then frozen to the bitpacked sign backend
    /// (optionally with quantization-aware refit epochs).
    QuantizedOnlineHd {
        /// The f32 training configuration.
        base: OnlineHdConfig,
        /// Straight-through refinement epochs before freezing (0 = plain
        /// sign binarization).
        refit_epochs: usize,
    },
    /// BoostHD trained in f32 then frozen to the bitpacked sign backend.
    QuantizedBoostHd {
        /// The f32 training configuration.
        base: BoostHdConfig,
        /// Straight-through refinement epochs before freezing (0 = plain
        /// sign binarization).
        refit_epochs: usize,
    },
    /// OnlineHD trained in f32 then frozen to the int8 scaled-integer
    /// backend (the middle rung of the quantization ladder).
    QuantizedI8OnlineHd {
        /// The f32 training configuration.
        base: OnlineHdConfig,
        /// Straight-through refinement epochs before freezing (0 = plain
        /// data-free quantization).
        refit_epochs: usize,
    },
    /// BoostHD trained in f32 then frozen to the int8 scaled-integer
    /// backend.
    QuantizedI8BoostHd {
        /// The f32 training configuration.
        base: BoostHdConfig,
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
            ModelSpec::QuantizedOnlineHd { .. } => "quantized_online_hd",
            ModelSpec::QuantizedBoostHd { .. } => "quantized_boost_hd",
            ModelSpec::QuantizedI8OnlineHd { .. } => "quantized_i8_online_hd",
            ModelSpec::QuantizedI8BoostHd { .. } => "quantized_i8_boost_hd",
            ModelSpec::Baseline(b) => b.kind.tag(),
        }
    }

    /// Human-readable family name for reports.
    pub fn display_name(&self) -> &'static str {
        match self {
            ModelSpec::OnlineHd(_) => "OnlineHD",
            ModelSpec::CentroidHd(_) => "CentroidHD",
            ModelSpec::BoostHd(_) => "BoostHD",
            ModelSpec::QuantizedOnlineHd { .. } => "OnlineHD(bitpacked)",
            ModelSpec::QuantizedBoostHd { .. } => "BoostHD(bitpacked)",
            ModelSpec::QuantizedI8OnlineHd { .. } => "OnlineHD(int8)",
            ModelSpec::QuantizedI8BoostHd { .. } => "BoostHD(int8)",
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
            ModelSpec::OnlineHd(c)
            | ModelSpec::QuantizedOnlineHd { base: c, .. }
            | ModelSpec::QuantizedI8OnlineHd { base: c, .. } => c.seed = seed,
            ModelSpec::CentroidHd(c) => c.seed = seed,
            ModelSpec::BoostHd(c)
            | ModelSpec::QuantizedBoostHd { base: c, .. }
            | ModelSpec::QuantizedI8BoostHd { base: c, .. } => c.seed = seed,
            ModelSpec::Baseline(b) => b.seed = seed,
        }
    }

    /// Returns the spec with its seed replaced (builder-style
    /// [`ModelSpec::set_seed`]).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.set_seed(seed);
        self
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
            ModelSpec::QuantizedOnlineHd { base, refit_epochs }
            | ModelSpec::QuantizedI8OnlineHd { base, refit_epochs } => {
                write_online(w, base);
                w.int("refit_epochs", *refit_epochs as i64);
            }
            ModelSpec::QuantizedBoostHd { base, refit_epochs }
            | ModelSpec::QuantizedI8BoostHd { base, refit_epochs } => {
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
        let allowed: &[&str] = match kind {
            "online_hd" => &ONLINE_KEYS,
            "centroid_hd" => &["kind", "dim", "seed"],
            "boost_hd" => &BOOST_KEYS,
            "quantized_online_hd" | "quantized_i8_online_hd" => &QUANT_ONLINE_KEYS,
            "quantized_boost_hd" | "quantized_i8_boost_hd" => &QUANT_BOOST_KEYS,
            _ => &["kind", "seed", "n_estimators", "epochs", "lr", "hidden"],
        };
        if let Some(bad) = table.keys().find(|k| !allowed.contains(k)) {
            return Err(spec_err(format!(
                "unknown key `{bad}` in [model] for kind `{kind}` (allowed: {})",
                allowed.join(", ")
            )));
        }
        Ok(match kind {
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
            "quantized_online_hd" => ModelSpec::QuantizedOnlineHd {
                base: read_online(table)?,
                refit_epochs: opt_usize(table, "refit_epochs")?.unwrap_or(0),
            },
            "quantized_boost_hd" => ModelSpec::QuantizedBoostHd {
                base: read_boost(table)?,
                refit_epochs: opt_usize(table, "refit_epochs")?.unwrap_or(0),
            },
            "quantized_i8_online_hd" => ModelSpec::QuantizedI8OnlineHd {
                base: read_online(table)?,
                refit_epochs: opt_usize(table, "refit_epochs")?.unwrap_or(0),
            },
            "quantized_i8_boost_hd" => ModelSpec::QuantizedI8BoostHd {
                base: read_boost(table)?,
                refit_epochs: opt_usize(table, "refit_epochs")?.unwrap_or(0),
            },
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
        })
    }
}

/// Key vocabularies per spec kind, shared by the writer and the
/// unknown-key validation in [`ModelSpec::from_toml_table`].
const ONLINE_KEYS: [&str; 6] = ["kind", "dim", "lr", "epochs", "bootstrap", "seed"];
const QUANT_ONLINE_KEYS: [&str; 7] = [
    "kind",
    "dim",
    "lr",
    "epochs",
    "bootstrap",
    "seed",
    "refit_epochs",
];
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
const QUANT_BOOST_KEYS: [&str; 14] = [
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
    "refit_epochs",
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
    vec![
        ModelSpec::OnlineHd(OnlineHdConfig {
            seed,
            ..Default::default()
        }),
        ModelSpec::CentroidHd(CentroidHdConfig {
            seed,
            ..Default::default()
        }),
        ModelSpec::BoostHd(BoostHdConfig {
            seed,
            ..Default::default()
        }),
        ModelSpec::QuantizedOnlineHd {
            base: OnlineHdConfig {
                seed,
                ..Default::default()
            },
            refit_epochs: 5,
        },
        ModelSpec::QuantizedBoostHd {
            base: BoostHdConfig {
                seed,
                ..Default::default()
            },
            refit_epochs: 5,
        },
        ModelSpec::QuantizedI8OnlineHd {
            base: OnlineHdConfig {
                seed,
                ..Default::default()
            },
            refit_epochs: 2,
        },
        ModelSpec::QuantizedI8BoostHd {
            base: BoostHdConfig {
                seed,
                ..Default::default()
            },
            refit_epochs: 2,
        },
        ModelSpec::Baseline(BaselineSpec::new(BaselineKind::AdaBoost, seed)),
        ModelSpec::Baseline(BaselineSpec::new(BaselineKind::RandomForest, seed)),
        ModelSpec::Baseline(BaselineSpec::new(BaselineKind::Gbt, seed)),
        ModelSpec::Baseline(BaselineSpec::new(BaselineKind::Svm, seed)),
        ModelSpec::Baseline(BaselineSpec::new(BaselineKind::Mlp, seed)),
    ]
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
