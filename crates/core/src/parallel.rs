//! Deterministic fork/join helpers for parallel ensemble inference.
//!
//! The paper notes that while BoostHD *training* is inherently sequential
//! (each weak learner corrects its predecessors), *inference* parallelizes —
//! both across queries and across weak learners. This module provides the
//! small deterministic fork/join primitive the classifiers use.
//!
//! Batch fan-outs run on the process-wide persistent
//! [`crate::pool::WorkerPool`] ([`parallel_map_indices`]), which pays two
//! mutex hops per fan-out instead of `threads` thread spawns — the
//! serving-path fix: a long-lived server flushes thousands of
//! micro-batches. [`parallel_map_indices_scoped`] is the plain
//! `std::thread::scope` fan-out the pool itself uses for nested calls;
//! both split work with one chunking function ([`chunk_bounds`]), so they
//! are bit-identical for every thread count.

/// The fan-out venue of a parallel batch call. It has one variant and
/// selects nothing: every batch runs on the persistent worker pool. The
/// type survives only so existing callers that name it keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// The persistent process-wide worker pool ([`crate::pool::global`]).
    #[default]
    Pooled,
}

/// The shared chunking rule: `0..count` split into `workers` contiguous
/// chunks of `ceil(count / workers)` indices; chunk `w` is
/// `start..end` (clamped to `count`). Both fan-outs call this
/// exact function, which is what makes pooled and scoped results
/// bit-identical — any drift in chunk boundaries would reorder
/// floating-point reductions in kernels that accumulate per chunk.
pub fn chunk_bounds(count: usize, workers: usize, w: usize) -> (usize, usize) {
    let chunk = count.div_ceil(workers.max(1));
    ((w * chunk).min(count), ((w + 1) * chunk).min(count))
}

/// Applies `f` to every index in `0..count`, splitting the range into
/// `threads` contiguous chunks ([`chunk_bounds`]) executed on the
/// persistent worker pool. Results are returned in index order and are
/// bit-identical to [`parallel_map_indices_scoped`] for any `threads`.
///
/// With `threads <= 1` (or a trivial range) the work runs inline, so callers
/// can use one code path for both serial and parallel execution. Calls
/// nested inside a pool worker fall back to scoped threads
/// (see [`crate::pool`]), so re-entrant fan-outs cannot deadlock.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map_indices<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    crate::pool::global().scoped_map(count, threads, f)
}

/// The scoped-thread fan-out: spawns `threads` scoped workers per call.
/// The pool runs nested fan-outs on it, and tests use it as the reference.
/// Chunking and results are identical to [`parallel_map_indices`]; only
/// the execution venue (and its per-call spawn cost) differs.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map_indices_scoped<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    let workers = threads.min(count);
    let mut results: Vec<Vec<T>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (start, end) = chunk_bounds(count, workers, w);
            let f = &f;
            handles.push(scope.spawn(move || (start..end).map(f).collect::<Vec<T>>()));
        }
        for h in handles {
            results.push(h.join().expect("parallel worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// Process-wide thread-count override set by [`set_default_threads`]
/// (0 = unset).
static THREAD_OVERRIDE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Environment variable consulted by [`default_threads`] when no
/// programmatic override is set.
pub const THREADS_ENV_VAR: &str = "HDC_THREADS";

/// Overrides the worker-thread count returned by [`default_threads`] for
/// the rest of the process. Pass `0` to clear the override and fall back to
/// the `HDC_THREADS` environment variable / hardware detection.
pub fn set_default_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, std::sync::atomic::Ordering::Relaxed);
}

/// Parses one `HDC_THREADS` value: a positive integer worker count. The
/// empty string resolves to `None` (unset). Anything else — zero,
/// negatives, non-numeric text — is rejected so a typo like
/// `HDC_THREADS=max` cannot silently fall back to hardware detection.
///
/// # Errors
///
/// Returns [`crate::BoostHdError::InvalidConfig`] naming the variable and
/// the offending value.
pub fn parse_threads_value(value: &str) -> crate::error::Result<Option<usize>> {
    let v = value.trim();
    if v.is_empty() {
        return Ok(None);
    }
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(crate::BoostHdError::InvalidConfig {
            reason: format!(
                "environment variable {THREADS_ENV_VAR} holds unparseable value `{value}` \
                 (expected a positive integer)"
            ),
        }),
    }
}

/// [`default_threads`] with validated environment parsing: garbage
/// `HDC_THREADS` values surface as an error instead of a silent hardware
/// fallback. The facade ([`crate::Pipeline::fit`]) and the `hdrun` CLI go
/// through this form.
///
/// # Errors
///
/// As [`parse_threads_value`].
pub fn try_default_threads() -> crate::error::Result<usize> {
    let forced = THREAD_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed);
    if forced > 0 {
        return Ok(forced);
    }
    let from_env = match std::env::var(THREADS_ENV_VAR) {
        Ok(v) => parse_threads_value(&v)?,
        Err(_) => None,
    };
    Ok(from_env.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    }))
}

/// Validates every runtime-tuning environment variable the stack consults
/// (`HDC_THREADS` here, `HDC_FORCE_SCALAR` in `linalg::kernels`), mapping
/// each failure to a clear [`crate::BoostHdError::InvalidConfig`]. Called
/// once per [`crate::Pipeline::fit`], and by front ends such as `hdrun`
/// before they load a model, so garbage is rejected before any work starts
/// instead of panicking at the variable's first read.
///
/// # Errors
///
/// Returns the first invalid variable found.
pub fn validate_runtime_env() -> crate::error::Result<()> {
    try_default_threads()?;
    linalg::kernels::force_scalar_from_env().map_err(|e| crate::BoostHdError::InvalidConfig {
        reason: e.to_string(),
    })?;
    Ok(())
}

/// Number of worker threads to use by default, resolved in priority order:
///
/// 1. a programmatic [`set_default_threads`] override;
/// 2. the `HDC_THREADS` environment variable (positive integer);
/// 3. the machine's available parallelism, capped at 8 (the experiment
///    binaries never benefit beyond that at our batch sizes).
///
/// # Panics
///
/// Panics with a descriptive message when `HDC_THREADS` holds a value
/// [`parse_threads_value`] rejects (use [`try_default_threads`] to surface
/// the same condition as an error).
pub fn default_threads() -> usize {
    try_default_threads().unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map_indices(100, 4, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let serial = parallel_map_indices(37, 1, |i| i as f32 * 0.5);
        let parallel = parallel_map_indices(37, 5, |i| i as f32 * 0.5);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn pooled_and_scoped_backends_agree_for_every_shape() {
        for count in [0usize, 1, 2, 7, 33, 100] {
            for threads in [1usize, 2, 3, 8, 16] {
                let f = |i: usize| (i as f32).sin() * 1e3;
                let pooled = parallel_map_indices(count, threads, f);
                let scoped = parallel_map_indices_scoped(count, threads, f);
                assert_eq!(pooled, scoped, "count={count} threads={threads}");
            }
        }
    }

    #[test]
    fn chunk_bounds_cover_range_exactly_once() {
        for count in [0usize, 1, 5, 17, 100] {
            for workers in [1usize, 2, 3, 7, 100] {
                let mut covered = Vec::new();
                for w in 0..workers {
                    let (start, end) = chunk_bounds(count, workers, w);
                    assert!(start <= end && end <= count);
                    covered.extend(start..end);
                }
                assert_eq!(
                    covered,
                    (0..count).collect::<Vec<_>>(),
                    "count={count} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn empty_range() {
        let out: Vec<usize> = parallel_map_indices(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map_indices(3, 16, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn threads_value_parsing_accepts_positives_and_rejects_garbage() {
        // String-level tests: mutating the process environment would race
        // the other tests in this binary.
        assert_eq!(parse_threads_value("4").unwrap(), Some(4));
        assert_eq!(parse_threads_value(" 12 ").unwrap(), Some(12));
        assert_eq!(parse_threads_value("").unwrap(), None);
        for garbage in ["0", "-3", "max", "4.5", "eight", "1e2"] {
            let err = parse_threads_value(garbage).unwrap_err();
            assert!(err.to_string().contains("HDC_THREADS"), "{garbage}: {err}");
            assert!(err.to_string().contains(garbage), "{garbage}: {err}");
        }
    }

    #[test]
    fn force_scalar_parsing_rejects_garbage() {
        use linalg::kernels::parse_force_scalar_value;
        assert!(parse_force_scalar_value("1").unwrap());
        assert!(parse_force_scalar_value("TRUE").unwrap());
        assert!(!parse_force_scalar_value("0").unwrap());
        assert!(!parse_force_scalar_value("").unwrap());
        for garbage in ["yes", "2", "scalar", "on"] {
            let err = parse_force_scalar_value(garbage).unwrap_err();
            assert!(
                err.to_string().contains("HDC_FORCE_SCALAR"),
                "{garbage}: {err}"
            );
        }
    }

    #[test]
    fn validate_runtime_env_passes_in_clean_environments() {
        // CI never exports garbage values; locally this doubles as a guard
        // that the validation path stays wired.
        if std::env::var(THREADS_ENV_VAR).is_err() {
            assert!(validate_runtime_env().is_ok());
        }
    }

    #[test]
    fn setter_overrides_and_clears() {
        // Exercises the programmatic override end of the resolution order
        // (the env-var path would race other tests in this process).
        set_default_threads(5);
        assert_eq!(default_threads(), 5);
        set_default_threads(0);
        assert!(default_threads() >= 1);
    }
}
