//! Registry glue between the classical baselines and the unified
//! [`boosthd::Pipeline`] facade.
//!
//! The `boosthd` crate owns the [`boosthd::ModelSpec`] vocabulary and the
//! [`boosthd::pipeline::Model`] trait, but depends on nothing here (this
//! crate depends on it for [`boosthd::Classifier`]). [`install`] closes the
//! loop at runtime: it registers a builder that maps
//! [`boosthd::ModelSpec::Baseline`] specs onto the concrete models in this
//! crate. Call it once at process start (the benchmark harness and the
//! `hdrun` CLI both do) before fitting baseline specs:
//!
//! ```
//! use boosthd::{BaselineKind, BaselineSpec, ModelSpec, Pipeline};
//! use linalg::Matrix;
//!
//! baselines::spec::install();
//! let x = Matrix::from_rows(&[
//!     vec![0.0, 0.0], vec![0.1, 0.2], vec![1.0, 1.0], vec![0.9, 1.1],
//! ])?;
//! let y = vec![0, 0, 1, 1];
//! let spec = ModelSpec::Baseline(BaselineSpec::new(BaselineKind::RandomForest, 7));
//! let model = Pipeline::fit(&spec, &x, &y)?;
//! assert_eq!(model.predict_batch(&x).len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::{
    AdaBoost, AdaBoostConfig, GradientBoostedTrees, GradientBoostingConfig, LinearSvm,
    LinearSvmConfig, Mlp, MlpConfig, RandomForest, RandomForestConfig,
};
use boosthd::pipeline::{register_baseline_builder, Model, PayloadKind};
use boosthd::{BaselineKind, BaselineSpec, BoostHdError};
use linalg::Matrix;

fn unsupported_persistence(name: &str) -> BoostHdError {
    BoostHdError::InvalidConfig {
        reason: format!("baseline `{name}` has no binary codec; only the HDC models persist"),
    }
}

macro_rules! impl_baseline_model {
    // The differentiable families list their f32 parameter buffers
    // (`$m => buffers`), each walked as its own store with IEEE-754 word
    // flips; the tree-based families report a clear error instead.
    (@inject $name:literal, $m:ident => $buffers:expr) => {
        fn inject_bitflips(
            &mut self,
            p_b: f64,
            rng: &mut linalg::Rng64,
        ) -> boosthd::Result<faults::BitflipReport> {
            let $m = self;
            let stores = $buffers.map(|b: &mut [f32]| vec![faults::StoredBits::F32(b)]);
            Ok(faults::flip_stored_bits(stores, p_b, rng))
        }
    };
    (@inject $name:literal, opaque) => {
        fn inject_bitflips(
            &mut self,
            _p_b: f64,
            _rng: &mut linalg::Rng64,
        ) -> boosthd::Result<faults::BitflipReport> {
            Err(BoostHdError::InvalidConfig {
                reason: format!(
                    "baseline `{}` exposes no parameter storage for bit-flip injection",
                    $name
                ),
            })
        }
    };
    ($ty:ty, $name:literal, $($storage:tt)+) => {
        impl Model for $ty {
            fn payload_kind(&self) -> PayloadKind {
                PayloadKind::Unsupported
            }
            fn clone_box(&self) -> Box<dyn Model> {
                Box::new(self.clone())
            }
            impl_baseline_model!(@inject $name, $($storage)+);
            fn to_payload(&self) -> boosthd::Result<Vec<u8>> {
                Err(unsupported_persistence($name))
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
    };
}

impl_baseline_model!(AdaBoost, "adaboost", opaque);
impl_baseline_model!(RandomForest, "random_forest", opaque);
impl_baseline_model!(GradientBoostedTrees, "gbt", opaque);
impl_baseline_model!(LinearSvm, "svm", m => [m.weights.as_mut_slice()].into_iter());
impl_baseline_model!(Mlp, "mlp", m => {
    let weights = m.weights.iter_mut().map(Matrix::as_mut_slice);
    weights.chain(m.biases.iter_mut().map(Vec::as_mut_slice))
});

fn convert_err(e: crate::BaselineError) -> BoostHdError {
    BoostHdError::DataMismatch {
        reason: e.to_string(),
    }
}

/// Builds the baseline a spec names, applying its overrides on top of the
/// paper-default configuration of that family. Knobs a family doesn't
/// have (`hidden` on a forest, `n_estimators` on the SVM) are ignored.
fn build(spec: &BaselineSpec, x: &Matrix, y: &[usize]) -> boosthd::Result<Box<dyn Model>> {
    Ok(match spec.kind {
        BaselineKind::AdaBoost => {
            let mut c = AdaBoostConfig {
                seed: spec.seed,
                ..Default::default()
            };
            if let Some(n) = spec.n_estimators {
                c.n_estimators = n;
            }
            if let Some(lr) = spec.lr {
                c.learning_rate = lr;
            }
            Box::new(AdaBoost::fit(&c, x, y).map_err(convert_err)?)
        }
        BaselineKind::RandomForest => {
            let mut c = RandomForestConfig {
                seed: spec.seed,
                ..Default::default()
            };
            if let Some(n) = spec.n_estimators {
                c.n_trees = n;
            }
            Box::new(RandomForest::fit(&c, x, y).map_err(convert_err)?)
        }
        BaselineKind::Gbt => {
            let mut c = GradientBoostingConfig::default();
            if let Some(n) = spec.n_estimators {
                c.n_estimators = n;
            }
            if let Some(lr) = spec.lr {
                c.learning_rate = lr as f32;
            }
            Box::new(GradientBoostedTrees::fit(&c, x, y).map_err(convert_err)?)
        }
        BaselineKind::Svm => {
            let mut c = LinearSvmConfig {
                seed: spec.seed,
                ..Default::default()
            };
            if let Some(e) = spec.epochs {
                c.epochs = e;
            }
            Box::new(LinearSvm::fit(&c, x, y).map_err(convert_err)?)
        }
        BaselineKind::Mlp => {
            let mut c = MlpConfig {
                seed: spec.seed,
                ..Default::default()
            };
            if let Some(e) = spec.epochs {
                c.epochs = e;
            }
            if let Some(lr) = spec.lr {
                c.lr = lr as f32;
            }
            if let Some(hidden) = &spec.hidden {
                c.hidden = hidden.clone();
            }
            Box::new(Mlp::fit(&c, x, y).map_err(convert_err)?)
        }
    })
}

/// Registers this crate's models with the [`boosthd::Pipeline`] facade
/// (idempotent).
pub fn install() {
    register_baseline_builder(build);
}

#[cfg(test)]
mod tests {
    use super::*;
    use boosthd::{ModelSpec, Pipeline};
    use linalg::Rng64;

    fn toy() -> (Matrix, Vec<usize>) {
        let mut rng = Rng64::seed_from(5);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let class = i % 2;
            let c = if class == 0 { -1.2 } else { 1.2 };
            rows.push(vec![c + 0.3 * rng.normal(), c + 0.3 * rng.normal()]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn every_baseline_spec_fits_through_the_pipeline() {
        install();
        let (x, y) = toy();
        for kind in [
            BaselineKind::AdaBoost,
            BaselineKind::RandomForest,
            BaselineKind::Gbt,
            BaselineKind::Svm,
            BaselineKind::Mlp,
        ] {
            let mut base = BaselineSpec::new(kind, 3);
            if kind == BaselineKind::Mlp {
                // Mirror MlpConfig::small(): full-size nets are unit-test
                // hostile and tiny nets need the extra epochs to converge.
                base.hidden = Some(vec![32, 16]);
                base.epochs = Some(60);
            }
            let spec = ModelSpec::Baseline(base);
            let pipeline = Pipeline::fit(&spec, &x, &y)
                .unwrap_or_else(|e| panic!("{} failed: {e}", kind.tag()));
            let acc = pipeline
                .predict_batch(&x)
                .iter()
                .zip(&y)
                .filter(|(p, t)| p == t)
                .count() as f64
                / y.len() as f64;
            assert!(acc > 0.8, "{} accuracy {acc}", kind.tag());
            // Confidence is defined for every family.
            let p = pipeline.predict_with_confidence(x.row(0));
            assert!((0.0..=1.0).contains(&p.confidence), "{}", kind.tag());
        }
    }

    #[test]
    fn baseline_envelopes_are_rejected_with_a_clear_error() {
        install();
        let (x, y) = toy();
        let spec = ModelSpec::Baseline(BaselineSpec::new(BaselineKind::Svm, 1));
        let pipeline = Pipeline::fit(&spec, &x, &y).unwrap();
        let err = pipeline.to_bytes().unwrap_err();
        assert!(err.to_string().contains("no binary codec"), "{err}");
    }

    #[test]
    fn overrides_reach_the_underlying_config() {
        install();
        let (x, y) = toy();
        let spec = ModelSpec::Baseline(BaselineSpec {
            kind: BaselineKind::RandomForest,
            seed: 9,
            n_estimators: Some(3),
            epochs: None,
            lr: None,
            hidden: None,
        });
        let pipeline = Pipeline::fit(&spec, &x, &y).unwrap();
        let forest = pipeline.downcast_ref::<RandomForest>().expect("downcast");
        assert_eq!(forest.trees().len(), 3);
    }
}
