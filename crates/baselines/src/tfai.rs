//! TFAI — tensor factorization with auxiliary information (Narita et al.),
//! the single-machine baseline of §IV-A.
//!
//! Same objective family as DisTenC (within-mode trace regularization)
//! but *without* ADMM splitting: the regularizer stays attached to the
//! factor matrix, so each mode update must solve the Sylvester-type
//! system
//!
//! `α·Lₙ·A + A·(F⁽ⁿ⁾ + λI) = H⁽ⁿ⁾`
//!
//! which couples all rows of `A` through `Lₙ`. We solve it through the
//! Laplacian eigenbasis: with `Lₙ ≈ VΛVᵀ` (truncated, complement treated
//! as `λ ≈ 0`), each eigen-row decouples into an `R×R` solve:
//!
//! `Ãᵢ = H̃ᵢ(F + (λ + αλᵢ)I)⁻¹`,  `A = VÃ + (H − VH̃)(F + λI)⁻¹`.
//!
//! The paper's complaint that TFAI "requires solving the Sylvester
//! equation with a high cost several times in each of iterations" is this
//! step; its single-machine memory ceiling is the subject of
//! [`TfaiModel`].

use distenc_core::config::AdmmConfig;
use distenc_core::model::{MethodModel, WorkloadSpec};
use distenc_core::trace::{ConvergenceTrace, TracePoint};
use distenc_core::{CompletionResult, CoreError, Result};
use distenc_dataflow::ClusterConfig;
use distenc_graph::{Laplacian, TruncatedLaplacian};
use distenc_linalg::{Cholesky, Mat};
use distenc_tensor::mttkrp::gram_product;
use distenc_tensor::residual::{completed_mttkrp, residual};
use distenc_tensor::{CooTensor, KruskalTensor};
use std::time::Instant;

/// TFAI hyper-parameters (deliberately the same knobs as
/// [`AdmmConfig`], minus the ADMM penalty schedule).
#[derive(Debug, Clone, PartialEq)]
pub struct TfaiConfig {
    /// CP rank `R`.
    pub rank: usize,
    /// Ridge weight `λ`.
    pub lambda: f64,
    /// Trace-regularizer weight `α`.
    pub alpha: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence tolerance on the max factor delta.
    pub tol: f64,
    /// Laplacian eigen-truncation width.
    pub eigen_k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TfaiConfig {
    fn default() -> Self {
        let a = AdmmConfig::default();
        TfaiConfig {
            rank: a.rank,
            lambda: a.lambda,
            alpha: a.alpha,
            max_iters: a.max_iters,
            tol: a.tol,
            eigen_k: a.eigen_k,
            seed: a.seed,
        }
    }
}

/// The single-machine TFAI solver.
#[derive(Debug, Clone)]
pub struct TfaiSolver {
    cfg: TfaiConfig,
}

impl TfaiSolver {
    /// Create a solver, validating the configuration.
    pub fn new(cfg: TfaiConfig) -> Result<Self> {
        if cfg.rank == 0 || cfg.max_iters == 0 || !(cfg.tol.is_finite() && cfg.tol > 0.0) || cfg.lambda < 0.0 {
            return Err(CoreError::Invalid("bad TFAI configuration".into()));
        }
        Ok(TfaiSolver { cfg })
    }

    /// Run completion with optional per-mode auxiliary Laplacians.
    pub fn solve(
        &self,
        observed: &CooTensor,
        laplacians: &[Option<&Laplacian>],
    ) -> Result<CompletionResult> {
        if observed.nnz() == 0 {
            return Err(CoreError::Invalid("observed tensor has no entries".into()));
        }
        if laplacians.len() != observed.order() {
            return Err(CoreError::Invalid("one Laplacian slot per mode".into()));
        }
        let shape = observed.shape().to_vec();
        let rank = self.cfg.rank;
        let truncated: Vec<TruncatedLaplacian> = shape
            .iter()
            .zip(laplacians)
            .map(|(&d, lap)| match lap {
                Some(l) => {
                    if l.dim() != d {
                        return Err(CoreError::Invalid("Laplacian dimension mismatch".into()));
                    }
                    Ok(l.truncate(self.cfg.eigen_k, self.cfg.seed)?)
                }
                None => Ok(TruncatedLaplacian::zero(d)),
            })
            .collect::<Result<_>>()?;

        let start = Instant::now();
        let mut model = KruskalTensor::random(&shape, rank, self.cfg.seed);
        let mut grams: Vec<Mat> = model.factors().iter().map(Mat::gram).collect();
        let mut e = residual(observed, &model)?;

        let mut trace = ConvergenceTrace::new();
        let mut converged = false;
        let mut iterations = 0;

        for t in 0..self.cfg.max_iters {
            iterations = t + 1;
            let mut delta = 0.0_f64;
            for n in 0..shape.len() {
                let f = gram_product(&grams, n)?;
                let h = completed_mttkrp(&e, &model, &f, n)?;
                let a_new = sylvester_solve(&truncated[n], self.cfg.alpha, self.cfg.lambda, &f, &h)?;
                delta = delta.max(model.factors()[n].frob_dist(&a_new)?);
                model.set_factor(n, a_new)?;
                grams[n] = model.factors()[n].gram();
                e = residual(observed, &model)?; // Gauss-Seidel
            }
            let train_rmse = (e.frob_norm_sq() / observed.nnz() as f64).sqrt();
            trace.push(TracePoint {
                iter: t,
                seconds: start.elapsed().as_secs_f64(),
                train_rmse,
                factor_delta: delta,
            });
            if delta < self.cfg.tol {
                converged = true;
                break;
            }
        }
        Ok(CompletionResult { model, trace, iterations, converged })
    }
}

/// Solve `α·L·A + A·(F + λI) = H` through the truncated eigenbasis. The
/// truncated complement is modelled at its exact mean eigenvalue `λ̄`
/// (see [`TruncatedLaplacian`]), so the complement solve uses
/// `(F + (λ + αλ̄)I)⁻¹`.
fn sylvester_solve(
    trunc: &TruncatedLaplacian,
    alpha: f64,
    lambda: f64,
    f: &Mat,
    h: &Mat,
) -> Result<Mat> {
    let rank = f.rows();
    // Complement part: (F + (λ + αλ̄)I)⁻¹ applied to H − V(VᵀH).
    let mut base = f.clone();
    base.add_diag(lambda + alpha * trunc.complement_lambda);
    let base_ch = Cholesky::factor(&base)?;
    if trunc.k() == 0 || alpha == 0.0 {
        return Ok(base_ch.solve_right(h)?);
    }
    // H̃ = VᵀH.
    let v = &trunc.vectors;
    let h_tilde = v.transpose().matmul(h)?;
    // Eigen rows: Ãᵢ = H̃ᵢ(F + (λ+αλᵢ)I)⁻¹.
    let mut a_tilde = Mat::zeros(trunc.k(), rank);
    for (i, &lam) in trunc.values.iter().enumerate() {
        let mut sys = f.clone();
        sys.add_diag(lambda + alpha * lam);
        let mut row = h_tilde.row(i).to_vec();
        // Solve rowᵀ against the symmetric system.
        Cholesky::factor(&sys)?.solve_vec_in_place(&mut row)?;
        a_tilde.row_mut(i).copy_from_slice(&row);
    }
    // A = VÃ + (H − VH̃)(F+λI)⁻¹.
    let vh = v.matmul(&h_tilde)?;
    let mut perp = h.clone();
    perp.axpy(-1.0, &vh).map_err(CoreError::from)?;
    let mut a = base_ch.solve_right(&perp)?;
    a.axpy(1.0, &v.matmul(&a_tilde)?).map_err(CoreError::from)?;
    Ok(a)
}

/// Scalability model of TFAI (single machine).
///
/// Memory terms: COO observations, factor matrices plus two work copies,
/// the eigen-state of the Sylvester solver. The dominant `WORKSPACE_BYTES
/// × I` term is the solver's dense per-row workspace, **calibrated** to
/// the paper's observed failure boundary (completes at `I = 10⁵`, O.O.M.
/// at `I = 10⁶` on one 16 GB node — Fig. 3a); see DESIGN.md §2 on
/// calibrated substitutions.
#[derive(Debug, Clone, Copy, Default)]
pub struct TfaiModel;

/// Calibrated dense solver workspace per mode row (bytes).
const WORKSPACE_BYTES: u64 = 18_000;

impl MethodModel for TfaiModel {
    fn name(&self) -> &'static str {
        "TFAI"
    }

    fn mem_per_machine(&self, w: &WorkloadSpec, _c: &ClusterConfig) -> u64 {
        // Single machine: nothing divides by M.
        let tensor = w.nnz * (w.entry_bytes() + 8) * 3; // MATLAB-ish copies
        let factors: u64 = w.dims.iter().map(|&d| d * w.rank * 8 * 3).sum();
        let solver: u64 = w.dims.iter().map(|&d| d * WORKSPACE_BYTES).sum::<u64>() / 3;
        tensor + factors + solver
    }

    fn seconds(&self, w: &WorkloadSpec, c: &ClusterConfig) -> f64 {
        let cores = c.cores_per_machine as f64;
        let r = w.rank as f64;
        let n_modes = w.dims.len() as f64;
        let nnz = w.nnz as f64;
        let dims_sum: f64 = w.dims.iter().map(|&d| d as f64).sum();
        // Sparse sweeps + the expensive Sylvester solves ("a high cost
        // several times in each of iterations"): ~R³ work per row.
        let flops_per_iter =
            2.0 * n_modes * nnz * n_modes * r + dims_sum * (r * r * r / 2.0 + 4.0 * r * r);
        let setup = dims_sum * (w.eigen_k as f64) * 8.0; // eigensolver
        (setup + w.iters as f64 * flops_per_iter) / cores * c.cost.seconds_per_flop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distenc_core::model::RunOutcome;
    use distenc_graph::builders::tridiagonal_chain;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
        let truth = KruskalTensor::random(shape, rank, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e57);
        let mut mask = CooTensor::try_new(shape.to_vec()).unwrap();
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
            mask.push(&idx, 1.0).unwrap();
        }
        mask.sort_dedup();
        truth.eval_at(&mask).unwrap()
    }

    #[test]
    fn recovers_planted_data_without_aux() {
        let observed = planted(&[12, 10, 8], 2, 600, 2);
        let cfg = TfaiConfig { rank: 2, lambda: 1e-3, max_iters: 80, tol: 1e-7, ..Default::default() };
        let res = TfaiSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
        assert!(res.trace.final_rmse().unwrap() < 0.02);
    }

    #[test]
    fn sylvester_solve_satisfies_equation() {
        // Full (untruncated) basis: the solve must satisfy
        // αLA + A(F+λI) = H exactly.
        let n = 14;
        let lap = Laplacian::from_similarity(tridiagonal_chain(n));
        let trunc = lap.truncate_dense(n).unwrap();
        let f = {
            let mut g = Mat::random(8, 3, 3).gram();
            g.add_diag(0.2);
            g
        };
        let h = Mat::random(n, 3, 5);
        let (alpha, lambda) = (0.7, 0.3);
        let a = sylvester_solve(&trunc, alpha, lambda, &f, &h).unwrap();
        // αLA:
        let la = lap.to_dense().matmul(&a).unwrap().scaled(alpha);
        // A(F+λI):
        let mut f_l = f.clone();
        f_l.add_diag(lambda);
        let af = a.matmul(&f_l).unwrap();
        for ((x, y), want) in la.as_slice().iter().zip(af.as_slice()).zip(h.as_slice()) {
            assert!((x + y - want).abs() < 1e-8, "{} vs {want}", x + y);
        }
    }

    #[test]
    fn aux_info_helps_on_smooth_factors() {
        // Same construction as the ADMM test: linear factors + chain
        // similarity at high missing rate.
        let dim = 25;
        let r = 2;
        let mut rng = StdRng::seed_from_u64(31);
        let mut factors = Vec::new();
        for _ in 0..3 {
            let mut m = Mat::zeros(dim, r);
            for rr in 0..r {
                let slope: f64 = rng.random::<f64>() * 0.1;
                let inter: f64 = rng.random::<f64>();
                for i in 0..dim {
                    m.set(i, rr, i as f64 * slope + inter);
                }
            }
            factors.push(m);
        }
        let truth = KruskalTensor::new(factors).unwrap();
        let mut mask = CooTensor::try_new(vec![dim; 3]).unwrap();
        for _ in 0..500 {
            let idx = [
                rng.random_range(0..dim),
                rng.random_range(0..dim),
                rng.random_range(0..dim),
            ];
            mask.push(&idx, 1.0).unwrap();
        }
        mask.sort_dedup();
        let observed = truth.eval_at(&mask).unwrap();
        let split = distenc_tensor::split::split_missing(&observed, 0.7, 4);
        let laps: Vec<Laplacian> = (0..3)
            .map(|_| Laplacian::from_similarity(tridiagonal_chain(dim)))
            .collect();
        let cfg = TfaiConfig { rank: r, max_iters: 60, tol: 1e-9, eigen_k: 12, ..Default::default() };
        let aux = TfaiSolver::new(TfaiConfig { alpha: 5.0, ..cfg.clone() })
            .unwrap()
            .solve(&split.train, &[Some(&laps[0]), Some(&laps[1]), Some(&laps[2])])
            .unwrap();
        let plain = TfaiSolver::new(TfaiConfig { alpha: 0.0, ..cfg })
            .unwrap()
            .solve(&split.train, &[None, None, None])
            .unwrap();
        let rmse_aux = distenc_tensor::residual::observed_rmse(&split.test, &aux.model).unwrap();
        let rmse_plain =
            distenc_tensor::residual::observed_rmse(&split.test, &plain.model).unwrap();
        assert!(rmse_aux < rmse_plain, "aux {rmse_aux} vs plain {rmse_plain}");
    }

    #[test]
    fn model_oom_at_paper_threshold() {
        // Fig. 3a: TFAI completes at I = 10⁵, O.O.M. at I = 10⁶ (16 GB).
        let c = ClusterConfig::single_machine();
        let ok = TfaiModel.estimate(&WorkloadSpec::cube(100_000, 10_000_000, 20), &c);
        assert!(ok.is_ok(), "{ok:?}");
        let oom = TfaiModel.estimate(&WorkloadSpec::cube(1_000_000, 10_000_000, 20), &c);
        assert!(matches!(oom, RunOutcome::OutOfMemory { .. }), "{oom:?}");
    }

    #[test]
    fn model_oom_when_nnz_explodes() {
        // Fig. 3b: TFAI is the only method that dies as density grows.
        let c = ClusterConfig::single_machine();
        let ok = TfaiModel.estimate(&WorkloadSpec::cube(100_000, 100_000_000, 10), &c);
        assert!(ok.is_ok(), "{ok:?}");
        let oom = TfaiModel.estimate(&WorkloadSpec::cube(100_000, 1_000_000_000, 10), &c);
        assert!(matches!(oom, RunOutcome::OutOfMemory { .. }), "{oom:?}");
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(TfaiSolver::new(TfaiConfig { rank: 0, ..Default::default() }).is_err());
        let observed = planted(&[6, 6], 2, 20, 9);
        let s = TfaiSolver::new(TfaiConfig::default()).unwrap();
        assert!(s.solve(&observed, &[None]).is_err()); // wrong lap count
        let lap = Laplacian::from_similarity(tridiagonal_chain(4));
        assert!(s.solve(&observed, &[Some(&lap), None]).is_err()); // dim mismatch
    }
}
