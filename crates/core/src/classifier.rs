//! The [`Classifier`] trait shared by every model in the reproduction.

use crate::parallel::{chunk_bounds, parallel_map_indices};
use linalg::Matrix;

/// Index of the largest value in `xs`; 0 for an empty slice. Ties resolve to
/// the earliest index, matching `argmax` conventions in the reference
/// implementations.
///
/// `NaN` entries lose to every non-`NaN` value, including `-∞` — a
/// corrupted score must never win just because comparisons against it are
/// vacuously false. A row of only `NaN`s returns 0 (and the confidence
/// layer reports zero confidence for it, so gated deployments abstain
/// rather than trust the fallback index).
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    let mut best_val = f32::NAN;
    for (i, &x) in xs.iter().enumerate() {
        if x.is_nan() {
            continue;
        }
        if best_val.is_nan() || x > best_val {
            best_val = x;
            best = i;
        }
    }
    best
}

/// A trained multi-class classifier.
///
/// Every model in the evaluation — the HDC family here and the classical
/// baselines in the `baselines` crate — implements this trait, so the
/// benchmark harness can sweep models uniformly.
///
/// The trait is object-safe; heterogeneous model zoos are stored as
/// `Vec<Box<dyn Classifier>>` in the table benchmarks.
pub trait Classifier {
    /// Number of classes the model was trained on.
    fn num_classes(&self) -> usize;

    /// Per-class decision scores for one feature vector (higher is more
    /// confident). The scale is model-specific; only the argmax and relative
    /// ordering are meaningful across models.
    fn scores(&self, x: &[f32]) -> Vec<f32>;

    /// Predicted class for one feature vector.
    fn predict(&self, x: &[f32]) -> usize {
        argmax(&self.scores(x))
    }

    /// Per-class decision scores for every row of `x`, as a
    /// `samples × classes` matrix.
    ///
    /// The default loops over [`Classifier::scores`]; the HDC family
    /// overrides it with genuinely batched paths (one fused encode GEMM
    /// feeding one scoring sweep) whose rows are bit-identical to the
    /// row-at-a-time scores.
    fn scores_batch(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.num_classes());
        for r in 0..x.rows() {
            out.row_mut(r).copy_from_slice(&self.scores(x.row(r)));
        }
        out
    }

    /// Predicted classes for every row of `x`.
    ///
    /// The default loops over [`Classifier::predict`]; models with a faster
    /// batched path (HDC's fused encode GEMM) override it.
    fn predict_batch(&self, x: &Matrix) -> Vec<usize> {
        (0..x.rows()).map(|r| self.predict(x.row(r))).collect()
    }

    /// Predicted classes for every row of `x`, fanned out over `threads`
    /// contiguous row chunks ([`predict_batch_chunked`]). Inference is
    /// embarrassingly parallel across queries (the paper's
    /// "parallelization becomes feasible during the inference phase"), so
    /// the result is identical to [`Classifier::predict_batch`] for any
    /// thread count.
    fn predict_batch_parallel(&self, x: &Matrix, threads: usize) -> Vec<usize>
    where
        Self: Sync + Sized,
    {
        predict_batch_chunked(self, x, threads)
    }
}

/// Row-major argmax over a scores matrix: the shared decision rule batched
/// predictors apply after [`Classifier::scores_batch`].
pub fn argmax_rows(scores: &Matrix) -> Vec<usize> {
    (0..scores.rows()).map(|r| argmax(scores.row(r))).collect()
}

/// Predicts every row of `x` by splitting the batch into `threads`
/// contiguous chunks ([`crate::parallel::chunk_bounds`]) and running
/// [`Classifier::predict_batch`] on each chunk from a persistent pool
/// worker — the fan-out primitive the serving engine and the `*_parallel`
/// model methods share.
///
/// Every chunk flows through the same batched kernels as the whole batch,
/// and those kernels are row-independent, so the result is identical to
/// `model.predict_batch(x)` for any thread count.
pub fn predict_batch_chunked<C>(model: &C, x: &Matrix, threads: usize) -> Vec<usize>
where
    C: Classifier + Sync + ?Sized,
{
    map_row_chunks(x, threads, |chunk| model.predict_batch(chunk))
}

/// Runs `f` on `threads` contiguous row chunks of `x`
/// ([`crate::parallel::chunk_bounds`]) on the worker pool and concatenates
/// the results in row order; one chunk runs inline on the caller.
pub(crate) fn map_row_chunks<T: Send>(
    x: &Matrix,
    threads: usize,
    f: impl Fn(&Matrix) -> Vec<T> + Sync,
) -> Vec<T> {
    let rows = x.rows();
    let workers = threads.clamp(1, rows.max(1));
    if workers <= 1 {
        return f(x);
    }
    parallel_map_indices(workers, workers, |w| {
        let (start, end) = chunk_bounds(rows, workers, w);
        f(&x.slice_rows(start, end))
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Constant {
        k: usize,
        winner: usize,
    }

    impl Classifier for Constant {
        fn num_classes(&self) -> usize {
            self.k
        }
        fn scores(&self, _x: &[f32]) -> Vec<f32> {
            (0..self.k)
                .map(|i| if i == self.winner { 1.0 } else { 0.0 })
                .collect()
        }
    }

    #[test]
    fn argmax_basics() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[]), 0);
        assert_eq!(argmax(&[2.0, 2.0]), 0, "ties resolve to earliest");
        assert_eq!(argmax(&[f32::NEG_INFINITY, -1.0]), 1);
    }

    #[test]
    fn argmax_nan_loses_to_any_non_nan_value() {
        // Regression: NaN in slot 0 used to survive because `x > NaN` and
        // `NaN > x` are both false — with user-facing confidences a
        // corrupted score must never be reported as the winner.
        assert_eq!(argmax(&[f32::NAN, -5.0]), 1);
        assert_eq!(argmax(&[f32::NAN, f32::NEG_INFINITY]), 1);
        assert_eq!(argmax(&[1.0, f32::NAN, 2.0]), 2);
        assert_eq!(argmax(&[f32::NAN, f32::NAN, 0.5, f32::NAN]), 2);
        assert_eq!(argmax(&[f32::NEG_INFINITY, f32::NAN]), 0);
        // All-NaN rows fall back to 0 by documented convention.
        assert_eq!(argmax(&[f32::NAN, f32::NAN]), 0);
    }

    #[test]
    fn default_predict_uses_scores() {
        let c = Constant { k: 4, winner: 2 };
        assert_eq!(c.predict(&[0.0]), 2);
    }

    #[test]
    fn default_predict_batch_loops() {
        let c = Constant { k: 3, winner: 1 };
        let x = Matrix::zeros(5, 2);
        assert_eq!(c.predict_batch(&x), vec![1; 5]);
    }

    #[test]
    fn trait_is_object_safe() {
        let models: Vec<Box<dyn Classifier>> = vec![
            Box::new(Constant { k: 2, winner: 0 }),
            Box::new(Constant { k: 2, winner: 1 }),
        ];
        assert_eq!(models[0].predict(&[1.0]), 0);
        assert_eq!(models[1].predict(&[1.0]), 1);
    }
}
