//! Coordinate-format sparse tensors.

use crate::{Result, TensorError};

/// An N-order sparse tensor in coordinate (COO) format.
///
/// Indices are stored flattened: entry `e`'s index tuple occupies
/// `indices[e*N .. (e+1)*N]`. This keeps one contiguous allocation per
/// tensor and makes per-entry access cache-friendly during MTTKRP.
#[derive(Debug, Clone, PartialEq)]
pub struct CooTensor {
    shape: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CooTensor {
    /// An empty tensor with the given shape.
    ///
    /// Convenience wrapper over [`CooTensor::try_new`] for shapes known
    /// to be well-formed (literals, shapes copied from an existing
    /// tensor). Library code handling *external* shapes — parsed files,
    /// user configuration — should call `try_new` and propagate the
    /// error.
    ///
    /// # Panics
    /// Panics if `shape` is empty or has a zero dimension.
    pub fn new(shape: Vec<usize>) -> Self {
        match Self::try_new(shape) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// An empty tensor with the given shape, rejecting malformed shapes
    /// (empty, or any zero dimension) with
    /// [`TensorError::InvalidShape`].
    pub fn try_new(shape: Vec<usize>) -> Result<Self> {
        if shape.is_empty() {
            return Err(TensorError::InvalidShape { shape, reason: "tensor order must be ≥ 1" });
        }
        if shape.contains(&0) {
            return Err(TensorError::InvalidShape { shape, reason: "dimensions must be positive" });
        }
        Ok(CooTensor { shape, indices: Vec::new(), values: Vec::new() })
    }

    /// Build from parallel `(index tuple, value)` entries, validating
    /// bounds.
    pub fn from_entries(shape: Vec<usize>, entries: &[(&[usize], f64)]) -> Result<Self> {
        let mut t = CooTensor::try_new(shape)?;
        t.reserve(entries.len());
        for (idx, v) in entries {
            t.push(idx, *v)?;
        }
        Ok(t)
    }

    /// Reserve space for `n` additional entries.
    pub fn reserve(&mut self, n: usize) {
        self.indices.reserve(n * self.order());
        self.values.reserve(n);
    }

    /// Append one non-zero entry. Every constructor funnels through
    /// here, so an out-of-bounds index or a NaN/infinite value is a typed
    /// error at construction, never a poisoned solve later.
    pub fn push(&mut self, index: &[usize], value: f64) -> Result<()> {
        if index.len() != self.order()
            || index.iter().zip(&self.shape).any(|(&i, &d)| i >= d)
        {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.clone(),
            });
        }
        if !value.is_finite() {
            return Err(TensorError::NonFinite { index: index.to_vec(), value });
        }
        self.indices.extend_from_slice(index);
        self.values.push(value);
        Ok(())
    }

    /// Tensor order `N` (number of modes).
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Shape (mode lengths).
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of stored non-zero entries, `nnz(X)`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Index tuple of entry `e`.
    #[allow(clippy::should_implement_trait)] // domain term: COO "index" of an entry
    #[inline]
    pub fn index(&self, e: usize) -> &[usize] {
        let n = self.order();
        &self.indices[e * n..(e + 1) * n]
    }

    /// Value of entry `e`.
    #[inline]
    pub fn value(&self, e: usize) -> f64 {
        self.values[e]
    }

    /// All values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to all values (the Ω-masked updates rewrite values in
    /// place while indices stay fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Iterate `(index tuple, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[usize], f64)> + '_ {
        let n = self.order();
        self.indices
            .chunks_exact(n.max(1))
            .zip(self.values.iter().copied())
    }

    /// Number of non-zeros in each slice of `mode` — the `θ⁽ⁿ⁾` histogram
    /// that Algorithm 2 feeds its greedy boundary search.
    pub fn slice_nnz(&self, mode: usize) -> Vec<usize> {
        assert!(mode < self.order(), "mode {mode} out of range");
        let mut counts = vec![0usize; self.shape[mode]];
        let n = self.order();
        for chunk in self.indices.chunks_exact(n) {
            counts[chunk[mode]] += 1;
        }
        counts
    }

    /// Squared Frobenius norm over stored entries.
    pub fn frob_norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Frobenius norm over stored entries.
    pub fn frob_norm(&self) -> f64 {
        self.frob_norm_sq().sqrt()
    }

    /// Sort entries lexicographically by index and sum duplicates.
    ///
    /// Generators may emit collisions; algorithms assume each cell appears
    /// once.
    pub fn sort_dedup(&mut self) {
        let n = self.order();
        let mut order: Vec<usize> = (0..self.nnz()).collect();
        order.sort_by(|&a, &b| self.index(a).cmp(self.index(b)));
        let mut indices = Vec::with_capacity(self.indices.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.values.len());
        for &e in &order {
            let idx = self.index(e);
            let dup = !values.is_empty() && {
                let last = &indices[indices.len() - n..];
                last == idx
            };
            if dup {
                *values.last_mut().expect("non-empty") += self.values[e];
            } else {
                indices.extend_from_slice(idx);
                values.push(self.values[e]);
            }
        }
        self.indices = indices;
        self.values = values;
    }

    /// Binary-search the entry holding `index`, returning its position.
    ///
    /// Requires the entries to be in lexicographic index order (the
    /// [`CooTensor::sort_dedup`] invariant); on unsorted tensors the
    /// result is meaningless. Returns `None` when the cell is not stored
    /// (or the tuple has the wrong order). `O(N · log nnz)`.
    pub fn position_of(&self, index: &[usize]) -> Option<usize> {
        if index.len() != self.order() {
            return None;
        }
        let (mut lo, mut hi) = (0usize, self.nnz());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.index(mid) < index {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.nnz() && self.index(lo) == index).then_some(lo)
    }

    /// Merge another sorted tensor's entries into this one, keeping the
    /// lexicographic order. Both operands must be sorted
    /// ([`CooTensor::sort_dedup`]) and share a shape; colliding cells sum
    /// their values (the `sort_dedup` convention). One linear pass —
    /// `O((nnz + other.nnz) · N)` — instead of re-sorting from scratch,
    /// which is what makes folding a small delta batch into a large
    /// tensor cheap.
    pub fn merge_sorted(&mut self, other: &CooTensor) -> Result<()> {
        if other.shape != self.shape {
            return Err(TensorError::ShapeMismatch(format!(
                "cannot merge shape {:?} into shape {:?}",
                other.shape, self.shape
            )));
        }
        if other.nnz() == 0 {
            return Ok(());
        }
        let mut indices = Vec::with_capacity(self.indices.len() + other.indices.len());
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.nnz() && b < other.nnz() {
            match self.index(a).cmp(other.index(b)) {
                std::cmp::Ordering::Less => {
                    indices.extend_from_slice(self.index(a));
                    values.push(self.values[a]);
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    indices.extend_from_slice(other.index(b));
                    values.push(other.values[b]);
                    b += 1;
                }
                std::cmp::Ordering::Equal => {
                    indices.extend_from_slice(self.index(a));
                    values.push(self.values[a] + other.values[b]);
                    a += 1;
                    b += 1;
                }
            }
        }
        while a < self.nnz() {
            indices.extend_from_slice(self.index(a));
            values.push(self.values[a]);
            a += 1;
        }
        while b < other.nnz() {
            indices.extend_from_slice(other.index(b));
            values.push(other.values[b]);
            b += 1;
        }
        self.indices = indices;
        self.values = values;
        Ok(())
    }

    /// Grow the tensor's shape in place (dimension growth: new slice
    /// indices appended to the end of one or more modes). Every mode of
    /// `new_shape` must be at least as long as the current one; stored
    /// entries are untouched and stay valid.
    pub fn grow_shape(&mut self, new_shape: &[usize]) -> Result<()> {
        if new_shape.len() != self.order()
            || new_shape.iter().zip(&self.shape).any(|(&n, &o)| n < o)
        {
            return Err(TensorError::InvalidShape {
                shape: new_shape.to_vec(),
                reason: "grown shape must keep the order and dominate every mode",
            });
        }
        self.shape = new_shape.to_vec();
        Ok(())
    }

    /// The set of distinct indices appearing in `mode`, sorted. Determines
    /// which factor-matrix rows are "active" (the basis of DisTenC's and
    /// SCouT's ability to scale to 10⁹-dimensional modes with 10⁷
    /// non-zeros; see DESIGN.md §5).
    pub fn active_indices(&self, mode: usize) -> Vec<usize> {
        assert!(mode < self.order(), "mode {mode} out of range");
        let n = self.order();
        let mut idx: Vec<usize> = self
            .indices
            .chunks_exact(n)
            .map(|chunk| chunk[mode])
            .collect();
        idx.sort_unstable();
        idx.dedup();
        idx
    }

    /// Approximate heap footprint in bytes (memory accounting).
    pub fn mem_bytes(&self) -> usize {
        self.indices.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// Split entries into `parts` contiguous chunks of near-equal entry
    /// count (a cheap non-balanced partitioning; the real balancing lives
    /// in `distenc-partition`).
    pub fn chunk_entries(&self, parts: usize) -> Vec<CooTensor> {
        assert!(parts > 0);
        let per = self.nnz().div_ceil(parts.max(1)).max(1);
        let mut out = Vec::with_capacity(parts);
        let mut e = 0;
        for _ in 0..parts {
            let mut t = CooTensor::new(self.shape.clone());
            let end = (e + per).min(self.nnz());
            for i in e..end {
                t.indices.extend_from_slice(self.index(i));
                t.values.push(self.values[i]);
            }
            out.push(t);
            e = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooTensor {
        CooTensor::from_entries(
            vec![3, 4, 2],
            &[
                (&[0, 0, 0], 1.0),
                (&[1, 2, 1], 2.0),
                (&[2, 3, 0], 3.0),
                (&[1, 0, 1], 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let t = sample();
        assert_eq!(t.order(), 3);
        assert_eq!(t.shape(), &[3, 4, 2]);
        assert_eq!(t.nnz(), 4);
        assert_eq!(t.index(1), &[1, 2, 1]);
        assert_eq!(t.value(2), 3.0);
    }

    #[test]
    fn try_new_rejects_malformed_shapes() {
        assert!(matches!(
            CooTensor::try_new(vec![]),
            Err(TensorError::InvalidShape { .. })
        ));
        assert!(matches!(
            CooTensor::try_new(vec![3, 0, 2]),
            Err(TensorError::InvalidShape { .. })
        ));
        assert_eq!(CooTensor::try_new(vec![3, 2]).unwrap().shape(), &[3, 2]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut t = CooTensor::new(vec![2, 2]);
        assert!(matches!(
            t.push(&[2, 0], 1.0),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert!(t.push(&[0, 0, 0], 1.0).is_err()); // wrong order
    }

    #[test]
    fn non_finite_values_rejected() {
        let mut t = CooTensor::new(vec![2, 2]);
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(t.push(&[1, 0], v), Err(TensorError::NonFinite { .. })));
        }
        assert_eq!(t.nnz(), 0, "a rejected entry must not be stored");
        assert!(CooTensor::from_entries(vec![2], &[(&[0], f64::NAN)]).is_err());
    }

    #[test]
    fn slice_nnz_counts_per_slice() {
        let t = sample();
        assert_eq!(t.slice_nnz(0), vec![1, 2, 1]);
        assert_eq!(t.slice_nnz(1), vec![2, 0, 1, 1]);
        assert_eq!(t.slice_nnz(2), vec![2, 2]);
    }

    #[test]
    fn frob_norm_known() {
        let t = sample();
        assert!((t.frob_norm_sq() - (1.0 + 4.0 + 9.0 + 16.0)).abs() < 1e-14);
    }

    #[test]
    fn sort_dedup_merges_duplicates() {
        let mut t = CooTensor::from_entries(
            vec![2, 2],
            &[(&[1, 1], 1.0), (&[0, 0], 2.0), (&[1, 1], 3.0)],
        )
        .unwrap();
        t.sort_dedup();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.index(0), &[0, 0]);
        assert_eq!(t.value(0), 2.0);
        assert_eq!(t.index(1), &[1, 1]);
        assert_eq!(t.value(1), 4.0);
    }

    #[test]
    fn active_indices_sorted_unique() {
        let t = sample();
        assert_eq!(t.active_indices(0), vec![0, 1, 2]);
        assert_eq!(t.active_indices(1), vec![0, 2, 3]);
        assert_eq!(t.active_indices(2), vec![0, 1]);
    }

    #[test]
    fn chunk_entries_covers_all() {
        let t = sample();
        let chunks = t.chunk_entries(3);
        assert_eq!(chunks.len(), 3);
        let total: usize = chunks.iter().map(|c| c.nnz()).sum();
        assert_eq!(total, t.nnz());
        for c in &chunks {
            assert_eq!(c.shape(), t.shape());
        }
    }

    #[test]
    fn position_of_finds_sorted_entries() {
        let mut t = sample();
        t.sort_dedup();
        for e in 0..t.nnz() {
            assert_eq!(t.position_of(t.index(e)), Some(e));
        }
        assert_eq!(t.position_of(&[0, 1, 0]), None); // absent cell
        assert_eq!(t.position_of(&[0, 0]), None); // wrong order
    }

    #[test]
    fn merge_sorted_interleaves_and_sums() {
        let mut a = CooTensor::from_entries(
            vec![4, 4],
            &[(&[0, 0], 1.0), (&[2, 2], 2.0)],
        )
        .unwrap();
        let b = CooTensor::from_entries(
            vec![4, 4],
            &[(&[0, 1], 5.0), (&[2, 2], 3.0), (&[3, 3], 7.0)],
        )
        .unwrap();
        a.merge_sorted(&b).unwrap();
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.index(0), &[0, 0]);
        assert_eq!(a.index(1), &[0, 1]);
        assert_eq!(a.value(2), 5.0); // 2.0 + 3.0 at [2,2]
        assert_eq!(a.index(3), &[3, 3]);
        // Result is itself sorted: every lookup works.
        assert_eq!(a.position_of(&[3, 3]), Some(3));
        // Shape mismatch rejected.
        let c = CooTensor::new(vec![5, 4]);
        assert!(a.merge_sorted(&c).is_err());
    }

    #[test]
    fn grow_shape_extends_modes() {
        let mut t = sample();
        assert!(t.grow_shape(&[3, 4]).is_err()); // wrong order
        assert!(t.grow_shape(&[2, 4, 2]).is_err()); // shrinks mode 0
        t.grow_shape(&[5, 4, 3]).unwrap();
        assert_eq!(t.shape(), &[5, 4, 3]);
        assert_eq!(t.nnz(), 4); // entries untouched
        t.push(&[4, 3, 2], 9.0).unwrap(); // new slices are addressable
    }

    #[test]
    fn iter_yields_all_entries() {
        let t = sample();
        let collected: Vec<(Vec<usize>, f64)> =
            t.iter().map(|(i, v)| (i.to_vec(), v)).collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[3], (vec![1, 0, 1], 4.0));
    }
}
