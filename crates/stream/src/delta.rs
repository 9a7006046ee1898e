//! Validated change sets over an observed tensor.

use distenc_core::CoreError;

/// Errors from delta validation and application. Every misuse surfaces as
/// a typed error — no path in this crate panics on user input.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A coordinate lies outside the (grown) tensor shape.
    OutOfRange {
        /// The offending coordinate.
        index: Vec<usize>,
        /// The shape it was checked against (base shape plus growth).
        shape: Vec<usize>,
    },
    /// The same cell appears more than once within one batch (across
    /// inserts and updates combined).
    DuplicateInBatch {
        /// The repeated coordinate.
        index: Vec<usize>,
    },
    /// An update targets a cell the tensor has never observed.
    UnobservedUpdate {
        /// The coordinate with no matching entry.
        index: Vec<usize>,
    },
    /// An insert targets a cell that is already observed (use an update).
    AlreadyObserved {
        /// The coordinate that already exists.
        index: Vec<usize>,
    },
    /// An insert or update carries a NaN or infinite value.
    NonFinite {
        /// The offending coordinate.
        index: Vec<usize>,
        /// The rejected value.
        value: f64,
    },
    /// Dimension growth on a mode that carries auxiliary similarity
    /// information: the Laplacian's row space cannot be grown
    /// incrementally, so the batch is refused rather than silently
    /// dropping the regularizer.
    GrowthWithAux {
        /// The mode whose Laplacian blocks the growth.
        mode: usize,
    },
    /// Structural problems: wrong arity, shape mismatch against the
    /// solver's tensor, a batch built for a different base shape.
    BadBatch(String),
    /// Propagated solver-core failure.
    Core(CoreError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::OutOfRange { index, shape } => {
                write!(f, "coordinate {index:?} is outside the grown shape {shape:?}")
            }
            StreamError::DuplicateInBatch { index } => {
                write!(f, "coordinate {index:?} appears more than once in the batch")
            }
            StreamError::UnobservedUpdate { index } => {
                write!(f, "update targets unobserved cell {index:?}")
            }
            StreamError::AlreadyObserved { index } => {
                write!(f, "insert targets already-observed cell {index:?}")
            }
            StreamError::NonFinite { index, value } => {
                write!(f, "non-finite value {value} at coordinate {index:?}")
            }
            StreamError::GrowthWithAux { mode } => {
                write!(
                    f,
                    "mode {mode} carries a similarity Laplacian; its dimension cannot grow incrementally"
                )
            }
            StreamError::BadBatch(msg) => write!(f, "malformed delta batch: {msg}"),
            StreamError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<CoreError> for StreamError {
    fn from(e: CoreError) -> Self {
        StreamError::Core(e)
    }
}

impl From<distenc_tensor::TensorError> for StreamError {
    fn from(e: distenc_tensor::TensorError) -> Self {
        StreamError::Core(CoreError::Tensor(e))
    }
}

/// One validated change set against a tensor of a known shape.
///
/// A batch can carry, in any combination:
/// * **growth** — per-mode dimension increases (new slice indices appear
///   at the top of each grown mode);
/// * **inserts** — new nonzeros, which may live in the grown region;
/// * **updates** — revised values for cells that are already observed.
///
/// Construction ([`DeltaBatch::try_new`]) checks everything checkable
/// without the tensor itself: coordinate arity, bounds against the grown
/// shape, finite values, and cross-batch duplicates. Observedness (updates must hit
/// existing entries, inserts must not) is checked at apply time by
/// [`crate::StreamingSolver::apply`], which rejects the whole batch
/// before mutating anything.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBatch {
    base_shape: Vec<usize>,
    growth: Vec<usize>,
    inserts: Vec<(Vec<usize>, f64)>,
    updates: Vec<(Vec<usize>, f64)>,
}

impl DeltaBatch {
    /// Validate and build a batch against `base_shape` (the shape of the
    /// tensor the batch will be applied to). `growth[n]` is how many new
    /// indices mode `n` gains; coordinates are checked against
    /// `base_shape + growth`. Inserts and updates are stored sorted in
    /// lexicographic coordinate order.
    pub fn try_new(
        base_shape: &[usize],
        growth: &[usize],
        inserts: Vec<(Vec<usize>, f64)>,
        updates: Vec<(Vec<usize>, f64)>,
    ) -> crate::Result<Self> {
        let order = base_shape.len();
        if order == 0 {
            return Err(StreamError::BadBatch("base shape has no modes".into()));
        }
        if growth.len() != order {
            return Err(StreamError::BadBatch(format!(
                "growth has {} modes, base shape has {order}",
                growth.len()
            )));
        }
        let new_shape: Vec<usize> =
            base_shape.iter().zip(growth).map(|(&d, &g)| d + g).collect();
        for (idx, v) in inserts.iter().chain(&updates) {
            if !v.is_finite() {
                return Err(StreamError::NonFinite { index: idx.clone(), value: *v });
            }
            if idx.len() != order {
                return Err(StreamError::BadBatch(format!(
                    "coordinate {idx:?} has {} modes, tensor has {order}",
                    idx.len()
                )));
            }
            if idx.iter().zip(&new_shape).any(|(&i, &d)| i >= d) {
                return Err(StreamError::OutOfRange {
                    index: idx.clone(),
                    shape: new_shape,
                });
            }
        }
        // Updates must address cells that existed before this batch, so
        // they can never legally touch the grown region.
        for (idx, _) in &updates {
            if idx.iter().zip(base_shape).any(|(&i, &d)| i >= d) {
                return Err(StreamError::UnobservedUpdate { index: idx.clone() });
            }
        }
        let mut keys: Vec<&[usize]> =
            inserts.iter().chain(&updates).map(|(idx, _)| idx.as_slice()).collect();
        keys.sort_unstable();
        if let Some(w) = keys.windows(2).find(|w| w[0] == w[1]) {
            return Err(StreamError::DuplicateInBatch { index: w[0].to_vec() });
        }
        let mut inserts = inserts;
        let mut updates = updates;
        inserts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        updates.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(DeltaBatch { base_shape: base_shape.to_vec(), growth: growth.to_vec(), inserts, updates })
    }

    /// The shape this batch was validated against.
    pub fn base_shape(&self) -> &[usize] {
        &self.base_shape
    }

    /// Per-mode dimension growth.
    pub fn growth(&self) -> &[usize] {
        &self.growth
    }

    /// The shape after applying this batch.
    pub fn new_shape(&self) -> Vec<usize> {
        self.base_shape.iter().zip(&self.growth).map(|(&d, &g)| d + g).collect()
    }

    /// New nonzeros, sorted by coordinate.
    pub fn inserts(&self) -> &[(Vec<usize>, f64)] {
        &self.inserts
    }

    /// Value revisions to existing entries, sorted by coordinate.
    pub fn updates(&self) -> &[(Vec<usize>, f64)] {
        &self.updates
    }

    /// True when the batch changes nothing at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.updates.is_empty() && self.growth.iter().all(|&g| g == 0)
    }

    /// True when the batch changes the support or the shape (anything but
    /// pure value updates). Structural batches invalidate index-dependent
    /// caches (the tiled entry orders); value-only batches do not.
    pub fn is_structural(&self) -> bool {
        !self.inserts.is_empty() || self.growth.iter().any(|&g| g > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_well_formed_batch() {
        let b = DeltaBatch::try_new(
            &[4, 3],
            &[1, 0],
            vec![(vec![4, 2], 1.0), (vec![0, 1], 2.0)],
            vec![(vec![3, 0], -1.0)],
        )
        .unwrap();
        assert_eq!(b.new_shape(), vec![5, 3]);
        // Inserts come back sorted.
        assert_eq!(b.inserts()[0].0, vec![0, 1]);
        assert!(b.is_structural());
        assert!(!b.is_empty());
    }

    #[test]
    fn rejects_out_of_range_coordinates() {
        let err = DeltaBatch::try_new(&[4, 3], &[0, 0], vec![(vec![4, 0], 1.0)], vec![])
            .unwrap_err();
        assert_eq!(
            err,
            StreamError::OutOfRange { index: vec![4, 0], shape: vec![4, 3] }
        );
        // The same coordinate is fine once growth covers it.
        assert!(DeltaBatch::try_new(&[4, 3], &[1, 0], vec![(vec![4, 0], 1.0)], vec![]).is_ok());
    }

    #[test]
    fn rejects_duplicates_within_a_batch() {
        let err = DeltaBatch::try_new(
            &[4, 3],
            &[0, 0],
            vec![(vec![1, 1], 1.0), (vec![1, 1], 2.0)],
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, StreamError::DuplicateInBatch { index: vec![1, 1] });
        // Also across the insert/update split.
        let err = DeltaBatch::try_new(
            &[4, 3],
            &[0, 0],
            vec![(vec![2, 1], 1.0)],
            vec![(vec![2, 1], 2.0)],
        )
        .unwrap_err();
        assert_eq!(err, StreamError::DuplicateInBatch { index: vec![2, 1] });
    }

    #[test]
    fn rejects_updates_into_the_grown_region() {
        let err = DeltaBatch::try_new(&[4, 3], &[1, 0], vec![], vec![(vec![4, 0], 1.0)])
            .unwrap_err();
        assert_eq!(err, StreamError::UnobservedUpdate { index: vec![4, 0] });
    }

    #[test]
    fn rejects_non_finite_values() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = DeltaBatch::try_new(&[4, 3], &[0, 0], vec![(vec![1, 1], v)], vec![])
                .unwrap_err();
            assert!(matches!(err, StreamError::NonFinite { ref index, .. } if *index == [1, 1]));
            let err = DeltaBatch::try_new(&[4, 3], &[0, 0], vec![], vec![(vec![2, 0], v)])
                .unwrap_err();
            assert!(matches!(err, StreamError::NonFinite { ref index, .. } if *index == [2, 0]));
        }
    }

    #[test]
    fn rejects_malformed_arity() {
        assert!(matches!(
            DeltaBatch::try_new(&[4, 3], &[0], vec![], vec![]),
            Err(StreamError::BadBatch(_))
        ));
        assert!(matches!(
            DeltaBatch::try_new(&[4, 3], &[0, 0], vec![(vec![1], 1.0)], vec![]),
            Err(StreamError::BadBatch(_))
        ));
    }
}
