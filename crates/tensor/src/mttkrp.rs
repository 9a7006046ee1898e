//! MTTKRP — matricized tensor times Khatri-Rao product — and the Gram
//! product, the two kernels §III-C builds DisTenC's factor update from.
//!
//! [`mttkrp`] is the naive sequential reference; [`mttkrp_blocked_into`]
//! is the COO reference layout's thread-blocked kernel. The production
//! kernels live with the tiled layout in [`crate::layout`].

use crate::coo::CooTensor;
use crate::{Result, TensorError};
use distenc_dataflow::Executor;
use distenc_linalg::Mat;

/// Row-wise MTTKRP (Eq. 10/11): `H = X₍ₙ₎ U⁽ⁿ⁾` computed directly from COO
/// entries without materializing `U⁽ⁿ⁾`:
///
/// `H(iₙ, :) = Σ_{x ∈ X with mode-n index iₙ} x · ⊛_{k≠n} A⁽ᵏ⁾(iₖ, :)`
///
/// Runs in `O(nnz(X) · N · R)` time with `O(R)` scratch — the "fiber-based"
/// granularity of SPLATT the paper adopts.
pub fn mttkrp(x: &CooTensor, factors: &[Mat], mode: usize) -> Result<Mat> {
    validate(x, factors, mode)?;
    crate::record_entry_sweep(x.nnz());
    let r = factors[0].cols();
    let mut h = Mat::zeros(x.shape()[mode], r);
    let mut scratch = vec![0.0; r];
    for (idx, v) in x.iter() {
        scratch.iter_mut().for_each(|s| *s = v);
        for (k, f) in factors.iter().enumerate() {
            if k == mode {
                continue;
            }
            let row = f.row(idx[k]);
            for (s, &a) in scratch.iter_mut().zip(row) {
                *s *= a;
            }
        }
        let out = h.row_mut(idx[mode]);
        for (o, &s) in out.iter_mut().zip(&scratch) {
            *o += s;
        }
    }
    Ok(h)
}

/// The Gram product `U⁽ⁿ⁾ᵀU⁽ⁿ⁾ = ⊛_{k≠n} A⁽ᵏ⁾ᵀA⁽ᵏ⁾` (Eq. 12), an `R×R`
/// matrix computed from cached per-factor Grams instead of the huge
/// `U⁽ⁿ⁾`.
pub fn gram_product(grams: &[Mat], mode: usize) -> Result<Mat> {
    if grams.is_empty() {
        return Err(TensorError::ShapeMismatch("no gram matrices".into()));
    }
    let r = grams[0].rows();
    let mut acc = Mat::from_vec(r, r, vec![1.0; r * r]);
    gram_product_into(grams, mode, &mut acc)?;
    Ok(acc)
}

/// Allocation-free [`gram_product`]: `out` is set to all-ones, then each
/// non-`mode` Gram is Hadamard-multiplied in, in the same ascending-`k`
/// order — elementwise products in an identical sequence, so the result
/// is bit-identical.
pub fn gram_product_into(grams: &[Mat], mode: usize, out: &mut Mat) -> Result<()> {
    if grams.is_empty() {
        return Err(TensorError::ShapeMismatch("no gram matrices".into()));
    }
    let r = grams[0].rows();
    if out.shape() != (r, r) {
        return Err(TensorError::ShapeMismatch(format!(
            "gram product output is {:?}, want ({r}, {r})",
            out.shape()
        )));
    }
    out.fill(1.0);
    for (k, g) in grams.iter().enumerate() {
        if k == mode {
            continue;
        }
        if g.shape() != (r, r) {
            return Err(TensorError::ShapeMismatch(format!(
                "gram {k} is {:?}, want ({r}, {r})",
                g.shape()
            )));
        }
        for (o, &v) in out.as_mut_slice().iter_mut().zip(g.as_slice()) {
            *o *= v;
        }
    }
    Ok(())
}

/// Reusable per-mode state for [`mttkrp_blocked_into`]: the entry buckets
/// (fixed once the tensor's support and the Algorithm-2 boundaries are
/// fixed), one accumulation slab per part, and one `R`-vector scratch per
/// part so a steady-state call allocates nothing.
///
/// `boundaries` are Algorithm 2-style ascending cut points over the
/// mode's index space: part `p` owns output rows
/// `boundaries[p-1]..boundaries[p]` (part 0 starts at row 0), and the
/// last boundary must equal the mode's dimension.
///
/// The workspace is bound to the `(support, mode, boundaries, rank)` it
/// was built for; using it with a tensor whose entry positions differ
/// from the construction-time tensor is a logic error (debug-asserted).
pub struct MttkrpWorkspace {
    mode: usize,
    nnz: usize,
    parts: Vec<MttkrpPart>,
}

struct MttkrpPart {
    bucket: Vec<usize>,
    lo: usize,
    slab: Mat,
    scratch: Vec<f64>,
}

impl MttkrpWorkspace {
    /// Bucket `x`'s entries for a mode-`mode` blocked MTTKRP at rank `r`.
    /// The forward scan keeps each bucket in original entry order — the
    /// load-bearing step for bit-exactness (see [`mttkrp_blocked_into`]).
    pub fn new(x: &CooTensor, mode: usize, boundaries: &[usize], r: usize) -> Result<Self> {
        if mode >= x.order() {
            return Err(TensorError::ShapeMismatch(format!(
                "mode {mode} out of range for order {}",
                x.order()
            )));
        }
        let dim = x.shape()[mode];
        let ok = boundaries.last() == Some(&dim)
            && boundaries.windows(2).all(|w| w[0] <= w[1]);
        if !ok {
            return Err(TensorError::ShapeMismatch(format!(
                "boundaries {boundaries:?} do not cover mode-{mode} rows 0..{dim}"
            )));
        }
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); boundaries.len()];
        for pos in 0..x.nnz() {
            let i = x.index(pos)[mode];
            let part = boundaries.partition_point(|&b| b <= i);
            buckets[part].push(pos);
        }
        let starts: Vec<usize> =
            std::iter::once(0).chain(boundaries.iter().copied()).collect();
        let parts = buckets
            .into_iter()
            .enumerate()
            .map(|(p, bucket)| MttkrpPart {
                bucket,
                lo: starts[p],
                slab: Mat::zeros(boundaries[p] - starts[p], r),
                scratch: vec![0.0; r],
            })
            .collect();
        Ok(MttkrpWorkspace { mode, nnz: x.nnz(), parts })
    }
}

/// Block-parallel MTTKRP over the workspace's mode-row ranges, written
/// into a caller-owned `h`. Each part becomes one work unit on `exec`,
/// accumulating into its own row slab — no atomics, no shared writes —
/// and the slabs are copied into disjoint row ranges of `h` in fixed
/// part order. The steady state allocates nothing (dispatch to the
/// threaded executor shares one borrowed closure — no job boxes; the
/// sequential one is a plain loop).
///
/// **Bit-exact for every blocking and every [`ExecMode`]**: each bucket
/// keeps its original entry order, and a row of `h` is only ever touched
/// by the one part that owns it, so every output row sums its
/// contributions in exactly the order the sequential [`mttkrp`] uses.
///
/// [`ExecMode`]: distenc_dataflow::ExecMode
pub fn mttkrp_blocked_into(
    x: &CooTensor,
    factors: &[Mat],
    ws: &mut MttkrpWorkspace,
    exec: &Executor,
    h: &mut Mat,
) -> Result<()> {
    validate(x, factors, ws.mode)?;
    debug_assert_eq!(x.nnz(), ws.nnz, "workspace built for a different support");
    let mode = ws.mode;
    let r = factors[0].cols();
    let dim = x.shape()[mode];
    if h.shape() != (dim, r) || ws.parts.first().is_some_and(|p| p.slab.cols() != r) {
        return Err(TensorError::ShapeMismatch(format!(
            "mttkrp output is {:?}, want ({dim}, {r})",
            h.shape()
        )));
    }
    crate::record_entry_sweep(x.nnz());
    exec.run_mut(&mut ws.parts, |_, part| {
        // Exactly the loop of the sequential [`mttkrp`], per bucket.
        let MttkrpPart { bucket, lo, slab, scratch } = part;
        slab.fill(0.0);
        for &pos in bucket.iter() {
            let idx = x.index(pos);
            let v = x.value(pos);
            scratch.iter_mut().for_each(|s| *s = v);
            for (k, f) in factors.iter().enumerate() {
                if k == mode {
                    continue;
                }
                for (s, &a) in scratch.iter_mut().zip(f.row(idx[k])) {
                    *s *= a;
                }
            }
            for (o, &s) in slab.row_mut(idx[mode] - *lo).iter_mut().zip(scratch.iter()) {
                *o += s;
            }
        }
    });
    for part in &ws.parts {
        h.as_mut_slice()[part.lo * r..(part.lo + part.slab.rows()) * r]
            .copy_from_slice(part.slab.as_slice());
    }
    Ok(())
}

pub(crate) fn validate(x: &CooTensor, factors: &[Mat], mode: usize) -> Result<()> {
    if factors.len() != x.order() {
        return Err(TensorError::ShapeMismatch(format!(
            "{} factors for an order-{} tensor",
            factors.len(),
            x.order()
        )));
    }
    if mode >= x.order() {
        return Err(TensorError::ShapeMismatch(format!(
            "mode {mode} out of range for order {}",
            x.order()
        )));
    }
    let r = factors[0].cols();
    for (k, f) in factors.iter().enumerate() {
        if f.cols() != r {
            return Err(TensorError::ShapeMismatch("rank mismatch across factors".into()));
        }
        if f.rows() != x.shape()[k] {
            return Err(TensorError::ShapeMismatch(format!(
                "factor {k} has {} rows, tensor mode has length {}",
                f.rows(),
                x.shape()[k]
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTensor;
    use crate::khatri_rao::khatri_rao_skip;
    use crate::kruskal::KruskalTensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_coo(shape: &[usize], nnz: usize, seed: u64) -> CooTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = CooTensor::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> =
                shape.iter().map(|&d| rng.random_range(0..d)).collect();
            t.push(&idx, rng.random::<f64>() * 2.0 - 1.0).unwrap();
        }
        t.sort_dedup();
        t
    }

    #[test]
    fn mttkrp_matches_explicit_khatri_rao() {
        let shape = [4, 5, 3];
        let x = random_coo(&shape, 20, 1);
        let k = KruskalTensor::random(&shape, 3, 2);
        for mode in 0..3 {
            let got = mttkrp(&x, k.factors(), mode).unwrap();
            // Oracle: densify, matricize, multiply by explicit U.
            let dense = DenseTensor::from_coo(&x);
            let u = khatri_rao_skip(k.factors(), mode).unwrap();
            let want = dense.matricize(mode).matmul(&u).unwrap();
            assert_eq!(got.shape(), want.shape());
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-10, "mode {mode}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn mttkrp_4_order() {
        let shape = [3, 2, 4, 2];
        let x = random_coo(&shape, 15, 7);
        let k = KruskalTensor::random(&shape, 2, 8);
        for mode in 0..4 {
            let got = mttkrp(&x, k.factors(), mode).unwrap();
            let dense = DenseTensor::from_coo(&x);
            let u = khatri_rao_skip(k.factors(), mode).unwrap();
            let want = dense.matricize(mode).matmul(&u).unwrap();
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn mttkrp_blocked_into_is_bitwise_identical_to_sequential() {
        use distenc_dataflow::{ExecMode, Executor};
        let shape = [13, 7, 5];
        let x = random_coo(&shape, 150, 4);
        let rank = 3;
        let seq = Executor::new(ExecMode::Sequential);
        let par = Executor::new(ExecMode::Threads(3));
        for (mode, &dim) in shape.iter().enumerate() {
            // Several blockings, including degenerate (empty parts, one
            // part, one row per part): all must be *bit*-identical.
            let cuts: Vec<Vec<usize>> = vec![
                vec![dim],
                vec![dim / 2, dim],
                vec![0, 1, dim / 3, dim / 2, dim, dim],
                (1..=dim).collect(),
            ];
            for boundaries in &cuts {
                for exec in [&seq, &par] {
                    let mut ws = MttkrpWorkspace::new(&x, mode, boundaries, rank).unwrap();
                    let mut h = Mat::random(dim, rank, 77); // dirty on purpose
                    // Two different factor sets through the same workspace:
                    // slab zeroing must erase all state between calls.
                    for seed in [5, 6] {
                        let k = KruskalTensor::random(&shape, rank, seed);
                        let want = mttkrp(&x, k.factors(), mode).unwrap();
                        mttkrp_blocked_into(&x, k.factors(), &mut ws, exec, &mut h).unwrap();
                        assert_eq!(
                            h.as_slice(),
                            want.as_slice(),
                            "mode {mode}, cuts {boundaries:?}, seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gram_product_into_is_bit_identical() {
        let k = KruskalTensor::random(&[4, 6, 5], 3, 3);
        let grams: Vec<Mat> = k.factors().iter().map(Mat::gram).collect();
        let mut out = Mat::random(3, 3, 50); // dirty on purpose
        for mode in 0..3 {
            gram_product_into(&grams, mode, &mut out).unwrap();
            assert_eq!(out, gram_product(&grams, mode).unwrap());
        }
        assert!(gram_product_into(&grams, 0, &mut Mat::zeros(2, 2)).is_err());
    }

    #[test]
    fn mttkrp_workspace_rejects_bad_boundaries() {
        let x = random_coo(&[4, 4], 5, 1);
        assert!(MttkrpWorkspace::new(&x, 0, &[], 2).is_err());
        assert!(MttkrpWorkspace::new(&x, 0, &[2], 2).is_err());
        assert!(MttkrpWorkspace::new(&x, 0, &[3, 2, 4], 2).is_err());
        assert!(MttkrpWorkspace::new(&x, 5, &[4], 2).is_err());
    }

    #[test]
    fn gram_product_matches_explicit() {
        let k = KruskalTensor::random(&[4, 6, 5], 3, 3);
        let grams: Vec<Mat> = k.factors().iter().map(Mat::gram).collect();
        for mode in 0..3 {
            let got = gram_product(&grams, mode).unwrap();
            let u = khatri_rao_skip(k.factors(), mode).unwrap();
            let want = u.gram();
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn empty_tensor_gives_zero_mttkrp() {
        let x = CooTensor::new(vec![3, 3, 3]);
        let k = KruskalTensor::random(&[3, 3, 3], 2, 4);
        let h = mttkrp(&x, k.factors(), 0).unwrap();
        assert_eq!(h.frob_norm(), 0.0);
    }

    #[test]
    fn shape_validation() {
        let x = CooTensor::new(vec![3, 3]);
        let k = KruskalTensor::random(&[3, 3, 3], 2, 4);
        assert!(mttkrp(&x, k.factors(), 0).is_err()); // order mismatch
        let k2 = KruskalTensor::random(&[3, 4], 2, 4);
        assert!(mttkrp(&x, k2.factors(), 0).is_err()); // row mismatch
        let k3 = KruskalTensor::random(&[3, 3], 2, 4);
        assert!(mttkrp(&x, k3.factors(), 5).is_err()); // bad mode
    }
}
