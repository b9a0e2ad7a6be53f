//! Error types for the `linalg` crate.

use std::error::Error as StdError;
use std::fmt;

/// Convenient alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Errors reported by linear-algebra routines.
///
/// # Example
///
/// ```
/// use linalg::{LinalgError, Matrix};
///
/// let a = Matrix::zeros(2, 3);
/// let b = Matrix::zeros(4, 5);
/// let err = a.try_matmul(&b).unwrap_err();
/// assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Operation name for diagnostics, e.g. `"matmul"`.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A routine that requires a square matrix was given a rectangular one.
    NotSquare {
        /// Shape of the offending matrix.
        shape: (usize, usize),
    },
    /// An iterative solver failed to converge within its iteration budget.
    NoConvergence {
        /// The solver that failed, e.g. `"jacobi"`.
        solver: &'static str,
        /// Number of sweeps/iterations performed before giving up.
        iterations: usize,
    },
    /// The matrix dimensions were empty where data was required.
    Empty {
        /// Operation name for diagnostics.
        op: &'static str,
    },
    /// An environment variable consulted by the runtime kernel dispatch
    /// held an unparseable value.
    InvalidEnv {
        /// The environment variable name.
        var: &'static str,
        /// The offending value.
        value: String,
        /// What would have been accepted.
        expected: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix is not square: {}x{}", shape.0, shape.1)
            }
            LinalgError::NoConvergence { solver, iterations } => {
                write!(f, "{solver} did not converge after {iterations} iterations")
            }
            LinalgError::Empty { op } => write!(f, "empty matrix passed to {op}"),
            LinalgError::InvalidEnv {
                var,
                value,
                expected,
            } => write!(
                f,
                "environment variable {var} holds unparseable value `{value}` (expected {expected})"
            ),
        }
    }
}

impl StdError for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = LinalgError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let msg = err.to_string();
        assert!(msg.contains("matmul"));
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }

    #[test]
    fn not_square_display() {
        let err = LinalgError::NotSquare { shape: (3, 4) };
        assert_eq!(err.to_string(), "matrix is not square: 3x4");
    }

    #[test]
    fn no_convergence_display() {
        let err = LinalgError::NoConvergence {
            solver: "jacobi",
            iterations: 64,
        };
        assert!(err.to_string().contains("jacobi"));
        assert!(err.to_string().contains("64"));
    }
}
