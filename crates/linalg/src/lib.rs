//! Dense linear algebra kernels used throughout the DisTenC reproduction.
//!
//! This crate deliberately implements only what the paper's algorithms need,
//! from scratch and without unsafe code:
//!
//! * [`Mat`] — a small row-major dense matrix with the handful of BLAS-like
//!   operations the completion algorithms perform on `R×R` and `I×R`
//!   operands (products, Gram matrices, Hadamard products, norms).
//! * [`chol`] — Cholesky factorization and SPD solves for the
//!   `(UᵀU + λI + ηI)⁻¹`-style systems in Algorithm 1 / Algorithm 3.
//! * [`eigen`] — a cyclic Jacobi eigensolver for small dense symmetric
//!   matrices.
//! * [`sketch`] — scratch and row kernels for the sampled least-squares
//!   estimators of the sketched solver tier.
//! * [`tridiag`] — implicit-shift QL for symmetric tridiagonal matrices,
//!   the inner solver of Lanczos.
//! * [`lanczos`] — truncated Lanczos with full reorthogonalization over an
//!   abstract [`LinOp`], standing in for the MRRR eigensolver the paper uses
//!   to truncate graph Laplacians (`L ≈ VΛVᵀ`, §III-B).

#![warn(missing_docs)]

#![allow(clippy::needless_range_loop)] // indexed loops mirror the math in numeric kernels

pub mod chol;
pub mod eigen;
pub mod lanczos;
pub mod mat;
pub mod sketch;
pub mod tridiag;
pub mod vec_ops;

pub use chol::Cholesky;
pub use eigen::{jacobi_eigen, EigenPairs};
pub use lanczos::{lanczos_smallest, LinOp};
pub use mat::Mat;
pub use sketch::SketchScratch;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Shape of the left operand.
        lhs: (usize, usize),
        /// Shape of the right operand.
        rhs: (usize, usize),
    },
    /// The matrix was expected to be symmetric positive definite but a
    /// non-positive pivot was encountered during factorization.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// Value of the failing pivot.
        value: f64,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Which method failed.
        method: &'static str,
        /// Number of iterations performed.
        iters: usize,
    },
    /// An argument was out of the accepted domain (e.g. `k > n` eigenpairs).
    InvalidArgument(String),
    /// An input matrix holds a NaN or infinite entry.
    NonFinite {
        /// Which matrix or operation rejected it.
        what: &'static str,
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: {lhs:?} vs {rhs:?}")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => {
                write!(f, "matrix not positive definite: pivot {pivot} = {value}")
            }
            LinalgError::NoConvergence { method, iters } => {
                write!(f, "{method} did not converge after {iters} iterations")
            }
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            LinalgError::NonFinite { what, row, col, value } => {
                write!(f, "non-finite {what} entry ({row}, {col}) = {value}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
