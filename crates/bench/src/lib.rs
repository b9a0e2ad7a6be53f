//! Shared harness for the benchmark binaries.
//!
//! Every table/figure binary needs the same three ingredients: the three
//! dataset profiles, the seven-model zoo with the paper's hyperparameters,
//! and normalized subject-wise splits. They live here so each binary is a
//! thin orchestration script.
//!
//! Model construction is **config-driven**: [`ModelKind::spec`] maps each
//! zoo column onto a [`boosthd::ModelSpec`], and [`train_model`] feeds it
//! through the unified [`boosthd::Pipeline`] facade (registering the
//! baseline builders on first use). No binary wires a model by hand.
//!
//! Binaries (one per paper artifact — see DESIGN.md §4):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table I (accuracy, 3 datasets × 7 models) |
//! | `table2` | Table II (inference time) |
//! | `table3` | Table III (person-specific accuracy) |
//! | `fig2`   | Figure 2 (Marchenko–Pastur variance terms) |
//! | `fig3`   | Figure 3 (accuracy heatmaps over `N_L` × `D`) |
//! | `fig4`   | Figure 4 (kernel spectra / axis ratios) |
//! | `fig5`   | Figure 5 (span utilization) |
//! | `fig6`   | Figure 6 (stability vs `D`) |
//! | `fig7`   | Figure 7 (imbalance robustness) |
//! | `fig8`   | Figure 8 (bit-flip robustness) |
//! | `ablation` | design-choice ablations (voting, partitioning, weak learner) |

#![deny(missing_docs)]

pub mod training;

use boosthd::{BaselineKind, BaselineSpec, BoostHdConfig, ModelSpec, OnlineHdConfig, Pipeline};
use linalg::Matrix;
use wearables::dataset::normalize_pair;
use wearables::{Dataset, DatasetProfile};

/// The seven models of the paper's evaluation, in table column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// AdaBoost over shallow trees (lr 1.0, 10 estimators).
    AdaBoost,
    /// Random Forest (bootstrap, 10 trees).
    RandomForest,
    /// Gradient-boosted trees, XGBoost-style (10 estimators).
    XgBoost,
    /// Linear SVM (Pegasos, one-vs-rest).
    Svm,
    /// The dropout MLP (`[2048, 1024, 512, k]`, lr 0.001).
    Dnn,
    /// OnlineHD (lr 0.035, bootstrap).
    OnlineHd,
    /// BoostHD (`N_L = 10`, `D_wl = D_total / N_L`).
    BoostHd,
}

impl ModelKind {
    /// Table column order used throughout the paper.
    pub const TABLE_ORDER: [ModelKind; 7] = [
        ModelKind::AdaBoost,
        ModelKind::RandomForest,
        ModelKind::XgBoost,
        ModelKind::Svm,
        ModelKind::Dnn,
        ModelKind::OnlineHd,
        ModelKind::BoostHd,
    ];

    /// Column header as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::AdaBoost => "Adaboost",
            ModelKind::RandomForest => "RF",
            ModelKind::XgBoost => "XGBoost",
            ModelKind::Svm => "SVM",
            ModelKind::Dnn => "DNN",
            ModelKind::OnlineHd => "OnlineHD",
            ModelKind::BoostHd => "BoostHD",
        }
    }

    /// The declarative spec for this zoo column with the paper's
    /// hyperparameters, the given seed, and (for the HDC family) the given
    /// `D_total`.
    pub fn spec(self, seed: u64, dim_total: usize) -> ModelSpec {
        match self {
            ModelKind::AdaBoost => {
                ModelSpec::Baseline(BaselineSpec::new(BaselineKind::AdaBoost, seed))
            }
            ModelKind::RandomForest => {
                ModelSpec::Baseline(BaselineSpec::new(BaselineKind::RandomForest, seed))
            }
            ModelKind::XgBoost => ModelSpec::Baseline(BaselineSpec::new(BaselineKind::Gbt, seed)),
            ModelKind::Svm => ModelSpec::Baseline(BaselineSpec::new(BaselineKind::Svm, seed)),
            ModelKind::Dnn => ModelSpec::Baseline(BaselineSpec {
                epochs: Some(8),
                ..BaselineSpec::new(BaselineKind::Mlp, seed)
            }),
            ModelKind::OnlineHd => ModelSpec::OnlineHd(OnlineHdConfig {
                dim: dim_total,
                seed,
                ..OnlineHdConfig::default()
            }),
            ModelKind::BoostHd => ModelSpec::BoostHd(BoostHdConfig {
                dim_total,
                n_learners: DEFAULT_N_LEARNERS,
                seed,
                ..BoostHdConfig::default()
            }),
        }
    }
}

/// Hyperdimensional budget shared by OnlineHD and BoostHD in the default
/// experiments (`D_total`; the paper sweeps 10…10 000 and fixes `N_L = 10`).
pub const DEFAULT_DIM_TOTAL: usize = 4000;

/// Number of weak learners in the default BoostHD setup.
pub const DEFAULT_N_LEARNERS: usize = 10;

/// Registers the baseline builders with the [`Pipeline`] facade
/// (idempotent; called by [`fit_spec`] so binaries don't have to).
pub fn ensure_registry() {
    baselines::spec::install();
}

/// Fits any [`ModelSpec`] through the unified facade with the baseline
/// registry installed — the single construction path every binary uses.
///
/// # Panics
///
/// Panics if training fails (the harness treats that as a bug in the
/// experiment setup, not a recoverable condition).
pub fn fit_spec(spec: &ModelSpec, x: &Matrix, y: &[usize]) -> Pipeline {
    ensure_registry();
    Pipeline::fit(spec, x, y)
        .unwrap_or_else(|e| panic!("{} training failed: {e}", spec.display_name()))
}

/// Trains `kind` on `(x, y)` with the paper's hyperparameters and the given
/// seed.
///
/// # Panics
///
/// As [`fit_spec`].
pub fn train_model(kind: ModelKind, x: &Matrix, y: &[usize], seed: u64) -> Pipeline {
    fit_spec(&kind.spec(seed, DEFAULT_DIM_TOTAL), x, y)
}

/// Fraction of subjects held out for testing throughout the benchmarks.
pub const TEST_SUBJECT_FRACTION: f64 = 0.3;

/// Generates a profile's dataset and returns normalized subject-wise
/// `(train, test)` splits for run `seed`.
///
/// # Panics
///
/// Panics if generation or splitting fails.
pub fn prepare_split(profile: &DatasetProfile, seed: u64) -> (Dataset, Dataset) {
    let data = wearables::generate(profile, seed).expect("dataset generation");
    let (train, test) = data
        .split_by_subject_fraction(TEST_SUBJECT_FRACTION, seed ^ 0x5117)
        .expect("subject split");
    normalize_pair(&train, &test).expect("normalization")
}

/// Parses a `--runs N` / `--quick` style argument list shared by the
/// binaries. Returns `(runs, quick)`.
pub fn parse_common_args(default_runs: usize) -> (usize, bool) {
    let args: Vec<String> = std::env::args().collect();
    let mut runs = default_runs;
    let mut quick = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--runs" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    runs = v;
                    i += 1;
                }
            }
            "--quick" => quick = true,
            other => eprintln!("ignoring unknown argument {other}"),
        }
        i += 1;
    }
    (runs, quick)
}

/// Shrinks a profile for `--quick` smoke runs.
pub fn quick_profile(mut profile: DatasetProfile) -> DatasetProfile {
    profile.subjects = profile.subjects.min(8);
    profile.windows_per_state = profile.windows_per_state.min(10);
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearables::profiles;

    fn tiny_split() -> (Dataset, Dataset) {
        let profile = DatasetProfile {
            subjects: 5,
            windows_per_state: 6,
            window_samples: 160,
            ..profiles::wesad_like()
        };
        prepare_split(&profile, 3)
    }

    #[test]
    fn zoo_trains_and_predicts_every_model() {
        let (train, test) = tiny_split();
        for kind in ModelKind::TABLE_ORDER {
            // Keep the DNN tiny in unit tests.
            let spec = if kind == ModelKind::Dnn {
                ModelSpec::Baseline(BaselineSpec {
                    hidden: Some(vec![32, 16]),
                    epochs: Some(60),
                    ..BaselineSpec::new(BaselineKind::Mlp, 1)
                })
            } else {
                kind.spec(1, 256)
            };
            let model = fit_spec(&spec, train.features(), train.labels());
            let preds = model.predict_batch(test.features());
            assert_eq!(preds.len(), test.len(), "{}", kind.name());
            assert!(preds.iter().all(|&p| p < 3), "{}", kind.name());
        }
    }

    #[test]
    fn zoo_specs_round_trip_through_toml() {
        for kind in ModelKind::TABLE_ORDER {
            let spec = kind.spec(42, DEFAULT_DIM_TOTAL);
            let back = ModelSpec::from_toml_str(&spec.to_toml())
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert_eq!(back, spec, "{}", kind.name());
        }
    }

    #[test]
    fn spec_display_names_match_table_headers() {
        for kind in ModelKind::TABLE_ORDER {
            assert_eq!(kind.spec(0, 100).display_name(), kind.name());
        }
    }

    #[test]
    fn table_order_has_paper_names() {
        let names: Vec<&str> = ModelKind::TABLE_ORDER.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["Adaboost", "RF", "XGBoost", "SVM", "DNN", "OnlineHD", "BoostHD"]
        );
    }

    #[test]
    fn prepare_split_is_subject_disjoint() {
        let (train, test) = tiny_split();
        for sid in test.subject_ids() {
            assert!(!train.subject_ids().contains(sid));
        }
    }

    #[test]
    fn quick_profile_shrinks() {
        let q = quick_profile(profiles::nurse_like());
        assert!(q.subjects <= 8);
        assert!(q.windows_per_state <= 10);
    }
}
