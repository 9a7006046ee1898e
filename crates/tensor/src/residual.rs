//! The sparse residual tensor (Eq. 14) and the H₁ identity (Eq. 16).
//!
//! Tensor completion differs from factorization in that the estimated
//! tensor `X = T + Ω᷀ᶜ ∗ [[A…]]` is *dense*. §III-D's insight: since
//! `X₍ₙ₎ = [[A…]]₍ₙ₎ + E₍ₙ₎` with `E = Ω ∗ (T − [[A…]])` sparse, the
//! MTTKRP against `X` splits into a cheap Gram part and a sparse part:
//!
//! `H₁ = X₍ₙ₎U⁽ⁿ⁾ = A⁽ⁿ⁾(U⁽ⁿ⁾ᵀU⁽ⁿ⁾) + E₍ₙ₎U⁽ⁿ⁾`
//!
//! keeping every iteration `O(nnz(T))`.
//!
//! Note: Algorithm 3 line 13 as printed computes
//! `Ω ∗ ([[Aₜ₊₁]] − [[Aₜ]])`, which contradicts both Eq. 14 and the
//! derivation of Eq. 16 (which needs `X₍₁₎ = [[A]]₍₁₎ + E₍₁₎`, i.e.
//! `E = Ω ∗ (T − [[A]])`). We implement Eq. 14 and treat line 13 as a typo.

use crate::coo::CooTensor;
use crate::kruskal::KruskalTensor;
use crate::mttkrp::mttkrp;
use crate::{Result, TensorError};
use distenc_dataflow::{even_ranges, Executor};
use distenc_linalg::Mat;

/// Compute the residual tensor `E = Ω ∗ (T − [[A…]])` (Eq. 14). `E` shares
/// `T`'s support, so it is exactly as sparse as the observations.
pub fn residual(observed: &CooTensor, model: &KruskalTensor) -> Result<CooTensor> {
    if observed.shape() != model.shape().as_slice() {
        return Err(TensorError::ShapeMismatch(format!(
            "observed shape {:?} vs model shape {:?}",
            observed.shape(),
            model.shape()
        )));
    }
    crate::record_entry_sweep(observed.nnz());
    let mut e = CooTensor::new(observed.shape().to_vec());
    e.reserve(observed.nnz());
    for (idx, v) in observed.iter() {
        e.push(idx, v - model.eval(idx))?;
    }
    Ok(e)
}

/// Reusable chunk buffers for [`residual_refresh_exec`], sized once for a
/// fixed support and executor so the steady-state refresh allocates
/// nothing.
pub struct ResidualWorkspace {
    jobs: Vec<ResidualChunk>,
}

struct ResidualChunk {
    range: std::ops::Range<usize>,
    buf: Vec<f64>,
}

impl ResidualWorkspace {
    /// Chunk `nnz` entries for `exec` (`parallelism × 4` chunks: by
    /// deliverable concurrency, not the configured thread count, since
    /// oversplitting past the host's cores only adds dispatch overhead).
    /// When the executor cannot actually run chunks concurrently the
    /// refresh takes its flat sequential path, so no buffers are reserved
    /// at all.
    pub fn new(nnz: usize, exec: &Executor) -> Self {
        if exec.parallelism() <= 1 {
            return ResidualWorkspace { jobs: Vec::new() };
        }
        let jobs = even_ranges(nnz, exec.parallelism() * 4)
            .into_iter()
            .map(|range| {
                let len = range.len();
                ResidualChunk { range, buf: vec![0.0; len] }
            })
            .collect();
        ResidualWorkspace { jobs }
    }
}

/// Refresh an already-initialized residual in place — the "calculate
/// and cache the residual tensor" step of Algorithm 3 — with the
/// per-entry evaluations spread over `exec`, allocation-free. Every entry
/// `e[i] = t[i] − [[A…]](idx[i])` is computed independently, so the
/// values are bit-identical to [`residual`] for any chunking. At one
/// thread this *is* the sequential loop (no buffers touched); threaded
/// runs fill the workspace's per-chunk buffers and copy back in chunk
/// order. A support mismatch is an error, never a silent reallocation.
pub fn residual_refresh_exec(
    observed: &CooTensor,
    model: &KruskalTensor,
    e: &mut CooTensor,
    ws: &mut ResidualWorkspace,
    exec: &Executor,
) -> Result<()> {
    // Shape check without materializing `model.shape()` (a fresh `Vec`):
    // this runs once per solver iteration and must stay allocation-free.
    let shape_ok = model.factors().len() == observed.order()
        && model.factors().iter().zip(observed.shape()).all(|(f, &d)| f.rows() == d);
    if !shape_ok {
        return Err(TensorError::ShapeMismatch(format!(
            "observed shape {:?} vs model shape {:?}",
            observed.shape(),
            model.shape()
        )));
    }
    if e.nnz() != observed.nnz() || e.shape() != observed.shape() {
        return Err(TensorError::ShapeMismatch(
            "residual refresh requires a residual sharing the observed support".into(),
        ));
    }
    crate::record_entry_sweep(observed.nnz());
    if exec.parallelism() <= 1 {
        let vals = e.values_mut();
        for (i, v) in vals.iter_mut().enumerate() {
            *v = observed.value(i) - model.eval(observed.index(i));
        }
        return Ok(());
    }
    debug_assert_eq!(
        ws.jobs.iter().map(|j| j.range.len()).sum::<usize>(),
        observed.nnz(),
        "workspace built for a different support"
    );
    exec.run_mut(&mut ws.jobs, |_, job| {
        for (b, i) in job.buf.iter_mut().zip(job.range.clone()) {
            *b = observed.value(i) - model.eval(observed.index(i));
        }
    });
    let vals = e.values_mut();
    for job in &ws.jobs {
        vals[job.range.clone()].copy_from_slice(&job.buf);
    }
    Ok(())
}

/// The completed-tensor MTTKRP via the residual trick (Eq. 16):
///
/// `H₁ = A⁽ⁿ⁾ · F⁽ⁿ⁾ + E₍ₙ₎U⁽ⁿ⁾` with `F⁽ⁿ⁾ = U⁽ⁿ⁾ᵀU⁽ⁿ⁾`.
///
/// `f` must be the Gram product of the *current* factors
/// ([`crate::mttkrp::gram_product`] over the cached per-factor Grams) —
/// solvers form `F⁽ⁿ⁾` for the normal equations anyway, so it is passed
/// in rather than recomputed. The sparse part is the sequential
/// [`mttkrp`]; this is the reference the baselines and oracles use (the
/// DisTenC solvers assemble the same sum from their layout kernels).
pub fn completed_mttkrp(
    e: &CooTensor,
    model: &KruskalTensor,
    f: &Mat,
    mode: usize,
) -> Result<Mat> {
    let mut h = model.factors()[mode].matmul(f)?;
    let sparse_part = mttkrp(e, model.factors(), mode)?;
    h.axpy(1.0, &sparse_part)?;
    Ok(h)
}

/// The ablation baseline for §III-D: the MTTKRP against the completed
/// tensor computed **naively** — materialize the dense
/// `X = T + Ωᶜ∗[[A…]]`, matricize it, multiply by the explicit Khatri-Rao
/// product. `O(∏ dims)` memory and time; this is the "significant
/// increase in the computation" the residual trick removes. Only callable
/// at toy sizes, which is the point the ablation bench makes.
pub fn completed_mttkrp_naive(
    observed: &CooTensor,
    model: &KruskalTensor,
    mode: usize,
) -> Result<Mat> {
    let mut x = crate::dense::DenseTensor::from_kruskal(model);
    for (idx, v) in observed.iter() {
        x.set(idx, v);
    }
    let u = crate::khatri_rao::khatri_rao_skip(model.factors(), mode)?;
    Ok(x.matricize(mode).matmul(&u)?)
}

/// Training RMSE over the observed entries:
/// `√(‖Ω∗(T − X)‖²_F / nnz(T))` — the metric of §IV-E.
pub fn observed_rmse(observed: &CooTensor, model: &KruskalTensor) -> Result<f64> {
    if observed.nnz() == 0 {
        return Ok(0.0);
    }
    let e = residual(observed, model)?;
    Ok((e.frob_norm_sq() / observed.nnz() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTensor;
    use crate::khatri_rao::khatri_rao_skip;
    use crate::mttkrp::gram_product;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_coo(shape: &[usize], nnz: usize, seed: u64) -> CooTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = CooTensor::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> =
                shape.iter().map(|&d| rng.random_range(0..d)).collect();
            t.push(&idx, rng.random::<f64>()).unwrap();
        }
        t.sort_dedup();
        t
    }

    #[test]
    fn residual_zero_when_model_exact() {
        let k = KruskalTensor::random(&[4, 3, 2], 2, 5);
        let mask = random_coo(&[4, 3, 2], 10, 1);
        let t = k.eval_at(&mask).unwrap();
        let e = residual(&t, &k).unwrap();
        assert!(e.frob_norm() < 1e-12);
    }

    #[test]
    fn residual_matches_pointwise() {
        let k = KruskalTensor::random(&[3, 3], 2, 9);
        let t = random_coo(&[3, 3], 5, 2);
        let e = residual(&t, &k).unwrap();
        for i in 0..t.nnz() {
            let want = t.value(i) - k.eval(t.index(i));
            assert!((e.value(i) - want).abs() < 1e-14);
        }
    }

    #[test]
    fn residual_refresh_exec_is_bitwise_identical() {
        use distenc_dataflow::{ExecMode, Executor};
        let t = random_coo(&[6, 5, 4], 40, 2);
        for mode in [ExecMode::Sequential, ExecMode::Threads(3)] {
            let exec = Executor::new(mode);
            let mut ws = ResidualWorkspace::new(t.nnz(), &exec);
            let k0 = KruskalTensor::random(&[6, 5, 4], 3, 9);
            let mut e = residual(&t, &k0).unwrap();
            // Refresh against two successive models through one workspace.
            for seed in [10, 11] {
                let k = KruskalTensor::random(&[6, 5, 4], 3, seed);
                residual_refresh_exec(&t, &k, &mut e, &mut ws, &exec).unwrap();
                assert_eq!(e, residual(&t, &k).unwrap());
            }
            // Support mismatch must error, never silently reallocate.
            let mut wrong = CooTensor::new(vec![6, 5, 4]);
            assert!(residual_refresh_exec(&t, &k0, &mut wrong, &mut ws, &exec).is_err());
        }
    }

    #[test]
    fn eq_16_identity_holds() {
        // H₁ computed via the residual trick must equal the naive
        // X₍ₙ₎U⁽ⁿ⁾ against the *completed dense* tensor
        // X = T + Ωᶜ∗[[A…]].
        let shape = [4, 3, 3];
        let model = KruskalTensor::random(&shape, 2, 11);
        let t = random_coo(&shape, 12, 3);
        let e = residual(&t, &model).unwrap();
        let grams: Vec<Mat> = model.factors().iter().map(Mat::gram).collect();

        // Build the dense completed tensor.
        let mut x = DenseTensor::from_kruskal(&model);
        for (idx, v) in t.iter() {
            x.set(idx, v); // observed cells keep their observed values
        }

        for mode in 0..3 {
            let f = gram_product(&grams, mode).unwrap();
            let fast = completed_mttkrp(&e, &model, &f, mode).unwrap();
            let u = khatri_rao_skip(model.factors(), mode).unwrap();
            let naive = x.matricize(mode).matmul(&u).unwrap();
            for (a, b) in fast.as_slice().iter().zip(naive.as_slice()) {
                assert!((a - b).abs() < 1e-9, "mode {mode}: {a} vs {b}");
            }
            let oracle = completed_mttkrp_naive(&t, &model, mode).unwrap();
            assert_eq!(naive.as_slice(), oracle.as_slice());
        }
    }

    #[test]
    fn observed_rmse_zero_for_exact_model() {
        let k = KruskalTensor::random(&[4, 4], 3, 6);
        let mask = random_coo(&[4, 4], 6, 8);
        let t = k.eval_at(&mask).unwrap();
        assert!(observed_rmse(&t, &k).unwrap() < 1e-12);
    }

    #[test]
    fn observed_rmse_empty_tensor_is_zero() {
        let k = KruskalTensor::random(&[4, 4], 3, 6);
        let t = CooTensor::new(vec![4, 4]);
        assert_eq!(observed_rmse(&t, &k).unwrap(), 0.0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let k = KruskalTensor::random(&[4, 4], 3, 6);
        let t = CooTensor::new(vec![4, 5]);
        assert!(residual(&t, &k).is_err());
    }
}
