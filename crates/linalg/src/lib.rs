//! Dense linear algebra, statistics, and random-number distributions used
//! throughout the `fsda` workspace.
//!
//! The crate is deliberately small and self-contained: the paper's methods
//! only require dense operations on matrices of at most a few thousand rows
//! and a few hundred columns, so a straightforward row-major [`Matrix`]
//! with `O(n^3)` decompositions is both sufficient and easy to audit.
//!
//! # Modules
//!
//! * [`matrix`] — the row-major [`Matrix`] type and elementwise / BLAS-like ops.
//! * [`kernel`] — blocked, runtime-dispatched GEMM kernels (`f32` and
//!   `f64`, AVX2 or scalar) behind the precision-generic [`kernel::Element`]
//!   trait; the `f64` path is bit-identical to the naive reference.
//! * [`decomp`] — Cholesky, LU inverse/solve, and symmetric (Jacobi) eigen.
//! * [`stats`] — means, covariance, (partial) correlation, Fisher-z tests.
//! * [`rng`] — seeded sampling: normal (Box–Muller), multivariate normal,
//!   categorical, Gumbel.
//! * [`par`] — the deterministic self-scheduling worker pool behind every
//!   parallel hot loop in the workspace (PC skeleton, F-node search,
//!   random forest, experiment repeats).
//!
//! # Example
//!
//! ```
//! use fsda_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = a.matmul(&a.transpose());
//! assert_eq!(b.get(0, 0), 5.0);
//! ```

pub mod decomp;
pub mod kernel;
pub mod matrix;
pub mod par;
pub mod rng;
pub mod stats;

pub use matrix::Matrix;
pub use rng::SeededRng;

/// Error type for linear-algebra operations that can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes; the payload describes them.
    ShapeMismatch(String),
    /// A matrix expected to be positive definite was not.
    NotPositiveDefinite,
    /// A matrix expected to be invertible was (numerically) singular.
    Singular,
    /// The input was empty where a non-empty input is required.
    Empty(String),
    /// A computation produced (or received) NaN/Inf where a finite value is
    /// required.
    NonFinite(String),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            LinalgError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::Empty(msg) => write!(f, "empty input: {msg}"),
            LinalgError::NonFinite(msg) => write!(f, "non-finite value: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let variants = [
            LinalgError::ShapeMismatch("2x2 vs 3x3".into()),
            LinalgError::NotPositiveDefinite,
            LinalgError::Singular,
            LinalgError::Empty("rows".into()),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
