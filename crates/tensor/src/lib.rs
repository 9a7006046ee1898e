//! Sparse tensors and CP/Kruskal algebra for the DisTenC reproduction.
//!
//! The paper's tensors are extremely sparse (billions of cells, ≤10⁹
//! non-zeros), stored in coordinate (COO) format — exactly how the Spark
//! implementation keeps them ("all entries are stored in a list with the
//! coordinate format", §III-F). This crate provides:
//!
//! * [`CooTensor`] — the N-order sparse tensor, with per-mode slice
//!   statistics (input to the greedy partitioner, Algorithm 2),
//! * [`KruskalTensor`] — a CP factorization `[[A⁽¹⁾,…,A⁽ᴺ⁾]]`, evaluable at
//!   individual indices in `O(R)`,
//! * [`mttkrp`] — the matricized-tensor-times-Khatri-Rao-product kernel
//!   (naive reference plus the blocked COO kernel) and the Gram-product
//!   identity `UᵀU = ⊛ₖ A⁽ᵏ⁾ᵀA⁽ᵏ⁾` (Eq. 12),
//! * [`khatri_rao`] — explicit (dense) Khatri-Rao / Kronecker products and
//!   matricizations, used as small-scale oracles in tests,
//! * [`residual`] — the sparse residual tensor `E = Ω∗(T − [[A…]])`
//!   (Eq. 14) that keeps every iteration `O(nnz)`,
//! * [`layout`] — the [`TensorLayout`] dispatch point: the cache-blocked
//!   tiled layout (the production default, with the only fused
//!   refresh+MTTKRP kernel) and plain COO (the bit-exactness reference
//!   the tiled kernels are gated against),
//! * [`sample`] — deterministic norm-proportional entry sampling, the
//!   randomization behind the sketched solver tier,
//! * [`dense`] — a tiny dense tensor for test oracles,
//! * [`ttm`] — the n-mode tensor-matrix product (Definition 2.1.5),
//! * [`split`] — train/test splitting by missing rate,
//! * [`io`] — plain-text COO serialization.

#![warn(missing_docs)]

pub mod coo;
pub mod dense;
pub mod io;
pub mod khatri_rao;
pub mod layout;
pub mod kruskal;
pub mod mttkrp;
pub mod residual;
pub mod sample;
pub mod split;
pub mod ttm;

pub use coo::CooTensor;
pub use dense::DenseTensor;
pub use kruskal::KruskalTensor;
pub use layout::{LayoutAccel, LayoutKind, LayoutWorkspace, TensorLayout, LAYOUT_ENV};

/// One tick on the pass-count instrument per full entry-list sweep over
/// `entries` nonzeros (see `distenc_dataflow::passes`); compiles to
/// nothing without the `pass-count` feature. Called once per kernel
/// invocation — never per thread or chunk — so counts are
/// host-independent.
#[inline]
pub(crate) fn record_entry_sweep(entries: usize) {
    #[cfg(feature = "pass-count")]
    distenc_dataflow::passes::record_sweep(entries);
    #[cfg(not(feature = "pass-count"))]
    let _ = entries;
}

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// An entry's index fell outside the tensor's shape.
    IndexOutOfBounds {
        /// Offending index tuple.
        index: Vec<usize>,
        /// Tensor shape.
        shape: Vec<usize>,
    },
    /// Operand orders/shapes are incompatible.
    ShapeMismatch(String),
    /// A tensor shape itself is malformed (empty, or a zero dimension).
    InvalidShape {
        /// The rejected shape.
        shape: Vec<usize>,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A NaN or infinite value offered as a tensor entry. Observations
    /// must be finite: one non-finite value poisons every factor it
    /// touches.
    NonFinite {
        /// Index tuple of the offending entry.
        index: Vec<usize>,
        /// The rejected value.
        value: f64,
    },
    /// An unknown tensor-layout name (from `--layout` or
    /// `DISTENC_LAYOUT`); the payload is the rejected name.
    InvalidLayout(String),
    /// Wrapped linear-algebra failure.
    Linalg(distenc_linalg::LinalgError),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            TensorError::InvalidShape { shape, reason } => {
                write!(f, "invalid tensor shape {shape:?}: {reason}")
            }
            TensorError::NonFinite { index, value } => {
                write!(f, "non-finite value {value} at index {index:?}")
            }
            TensorError::InvalidLayout(name) => {
                write!(f, "unknown tensor layout {name:?} (expected coo or tiled)")
            }
            TensorError::Linalg(e) => write!(f, "linalg error: {e}"),
        }
    }
}

impl std::error::Error for TensorError {}

impl From<distenc_linalg::LinalgError> for TensorError {
    fn from(e: distenc_linalg::LinalgError) -> Self {
        TensorError::Linalg(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
