//! Distributed CP-ALS tensor completion (the `ALS` baseline, §IV-A).
//!
//! Alternating least squares without auxiliary information: each mode
//! update solves the regularized normal equations against the *completed*
//! tensor, using the same residual identity DisTenC uses (it predates the
//! paper — Smith et al. SC'16):
//!
//! `A⁽ⁿ⁾ ← (A⁽ⁿ⁾F⁽ⁿ⁾ + E₍ₙ₎U⁽ⁿ⁾)(F⁽ⁿ⁾ + λI)⁻¹`,  `F⁽ⁿ⁾ = ⊛_{k≠n}A⁽ᵏ⁾ᵀA⁽ᵏ⁾`
//!
//! ALS is *Gauss-Seidel* across modes (each mode uses the freshest other
//! factors — that is what "alternating" means), unlike DisTenC's
//! Jacobi-style ADMM sweep.
//!
//! The distributed execution is **coarse-grained** (the paper's words:
//! "ALS requires each communication of entire factor matrices per epoch
//! in the worst case as a coarse-grained decomposition"): entries are
//! chunk-partitioned, every machine keeps full replicas of all factor
//! matrices, and each epoch rebroadcasts them. That replication is why
//! Fig. 3a kills ALS at `I = 10⁷`.

use distenc_core::model::{MethodModel, WorkloadSpec};
use distenc_core::trace::{ConvergenceTrace, TracePoint};
use distenc_core::{CompletionResult, CoreError, Result};
use distenc_dataflow::cluster::TaskCost;
use distenc_dataflow::{Cluster, ClusterConfig};
use distenc_linalg::{Cholesky, Mat};
use distenc_tensor::mttkrp::gram_product;
use distenc_tensor::residual::{completed_mttkrp, residual};
use distenc_tensor::{CooTensor, KruskalTensor};
use std::time::Instant;

const F64: u64 = 8;

/// ALS hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AlsConfig {
    /// CP rank `R`.
    pub rank: usize,
    /// Ridge weight `λ`.
    pub lambda: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence tolerance on the max factor delta.
    pub tol: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AlsConfig {
    fn default() -> Self {
        AlsConfig { rank: 10, lambda: 0.1, max_iters: 60, tol: 1e-3, seed: 42 }
    }
}

/// The ALS solver. Construct with [`AlsSolver::new`] for a serial run or
/// [`AlsSolver::on_cluster`] to also account the coarse-grained
/// distributed execution.
#[derive(Debug)]
pub struct AlsSolver<'c> {
    cfg: AlsConfig,
    cluster: Option<&'c Cluster>,
}

impl<'c> AlsSolver<'c> {
    /// Serial solver (wall-clock trace timestamps).
    pub fn new(cfg: AlsConfig) -> Result<Self> {
        if cfg.rank == 0 || cfg.max_iters == 0 || !(cfg.tol.is_finite() && cfg.tol > 0.0) || cfg.lambda < 0.0 {
            return Err(CoreError::Invalid("bad ALS configuration".into()));
        }
        Ok(AlsSolver { cfg, cluster: None })
    }

    /// Distributed solver: same numerics, with stage/broadcast accounting
    /// on `cluster` and virtual-time trace timestamps.
    pub fn on_cluster(cfg: AlsConfig, cluster: &'c Cluster) -> Result<Self> {
        let mut s = Self::new(cfg)?;
        s.cluster = Some(cluster);
        Ok(s)
    }

    /// Run ALS completion. ALS has no auxiliary-information path; callers
    /// comparing against aux-aware methods simply pass the same observed
    /// tensor.
    pub fn solve(&self, observed: &CooTensor) -> Result<CompletionResult> {
        if observed.nnz() == 0 {
            return Err(CoreError::Invalid("observed tensor has no entries".into()));
        }
        let shape = observed.shape().to_vec();
        let n_modes = shape.len();
        let rank = self.cfg.rank;
        let start = Instant::now();

        // Coarse-grained setup: chunk entries evenly; replicate factors.
        if let Some(cl) = self.cluster {
            self.charge_setup(cl, observed)?;
        }

        let mut model = KruskalTensor::random(&shape, rank, self.cfg.seed);
        let mut grams: Vec<Mat> = model.factors().iter().map(Mat::gram).collect();
        let mut e = residual(observed, &model)?;

        let mut trace = ConvergenceTrace::new();
        let mut converged = false;
        let mut iterations = 0;

        for t in 0..self.cfg.max_iters {
            iterations = t + 1;
            let mut delta = 0.0_f64;
            for n in 0..n_modes {
                let mut f = gram_product(&grams, n)?;
                let h = completed_mttkrp(&e, &model, &f, n)?;
                f.add_diag(self.cfg.lambda);
                let a_new = Cholesky::factor(&f)?.solve_right(&h)?;
                delta = delta.max(model.factors()[n].frob_dist(&a_new)?);
                model.set_factor(n, a_new)?;
                grams[n] = model.factors()[n].gram();
                // Gauss-Seidel: the residual must track the freshest
                // factors so the next mode's identity holds.
                e = residual(observed, &model)?;
            }
            if let Some(cl) = self.cluster {
                self.charge_epoch(cl, observed, &shape)?;
            }
            let train_rmse = (e.frob_norm_sq() / observed.nnz() as f64).sqrt();
            let seconds = match self.cluster {
                Some(cl) => cl.now(),
                None => start.elapsed().as_secs_f64(),
            };
            trace.push(TracePoint { iter: t, seconds, train_rmse, factor_delta: delta });
            if delta < self.cfg.tol {
                converged = true;
                break;
            }
        }
        Ok(CompletionResult { model, trace, iterations, converged })
    }

    /// Initial distribution: entries chunked evenly, full factors
    /// broadcast to every machine.
    fn charge_setup(&self, cl: &Cluster, observed: &CooTensor) -> Result<()> {
        let m = cl.machines();
        let entry_bytes = (observed.order() as u64 + 1) * F64;
        let per = observed.nnz().div_ceil(m) as u64;
        let tasks: Vec<TaskCost> = (0..m)
            .map(|mach| TaskCost {
                machine: mach,
                flops: per as f64,
                input_bytes: per * entry_bytes,
                output_bytes: 0,
            })
            .collect();
        cl.run_stage(&tasks)?;
        // Resident: entries per machine + 3 full-matrix replicas (local,
        // send buffer, recv buffer — the coarse-grained cost).
        let full: u64 = observed
            .shape()
            .iter()
            .map(|&d| (d * self.cfg.rank) as u64 * F64)
            .sum();
        for mach in 0..m {
            cl.reserve(mach, per * entry_bytes + 3 * full)?;
        }
        Ok(())
    }

    /// One epoch of the coarse-grained execution: sparse sweeps over local
    /// entries, R×R reductions, then an *entire factor matrix* exchange.
    fn charge_epoch(&self, cl: &Cluster, observed: &CooTensor, shape: &[usize]) -> Result<()> {
        let m = cl.machines();
        let rank = self.cfg.rank as u64;
        let n_modes = shape.len() as u64;
        let per = observed.nnz().div_ceil(m) as u64;
        let entry_bytes = (n_modes + 1) * F64;
        for &dim in shape {
            // MTTKRP + residual refresh over local entries; Gram + solve
            // over the (replicated) factor rows.
            let tasks: Vec<TaskCost> = (0..m)
                .map(|mach| TaskCost {
                    machine: mach,
                    flops: (per * 2 * n_modes * rank) as f64
                        + (dim as u64 * 3 * rank * rank) as f64 / m as f64,
                    input_bytes: per * entry_bytes,
                    output_bytes: per * F64,
                })
                .collect();
            cl.run_stage(&tasks)?;
            // Entire updated factor matrix travels to every machine.
            cl.broadcast_charge(dim as u64 * rank * F64)?;
        }
        Ok(())
    }
}

/// Scalability model of the coarse-grained ALS (DESIGN.md §5).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlsModel;

impl MethodModel for AlsModel {
    fn name(&self) -> &'static str {
        "ALS"
    }

    fn mem_per_machine(&self, w: &WorkloadSpec, c: &ClusterConfig) -> u64 {
        let m = c.machines as u64;
        // Full `I×R` replicas of every mode, double-buffered for the
        // epoch exchange, plus per-row communication bookkeeping (index
        // maps and displacement arrays of the MPI all-to-all) that scales
        // with I but not R — together the O.O.M. driver at I = 10⁷.
        let replicas: u64 = w.dims.iter().map(|&d| d * w.rank * 8).sum::<u64>() * 2;
        let row_bookkeeping: u64 = w.dims.iter().map(|&d| d * 256).sum();
        let tensor = w.nnz * (w.entry_bytes() + 8) / m;
        tensor + replicas + row_bookkeeping
    }

    fn seconds(&self, w: &WorkloadSpec, c: &ClusterConfig) -> f64 {
        let m = c.machines as f64;
        let cores = c.cores_per_machine as f64;
        let r = w.rank as f64;
        let n_modes = w.dims.len() as f64;
        let nnz = w.nnz as f64;
        let cost = &c.cost;
        // Native MPI/OpenMP implementation: no JVM, no serialization —
        // the reason the paper's ALS is the fastest completer at moderate
        // scale (Fig. 3b) despite doing comparable arithmetic.
        const NATIVE_SPEEDUP: f64 = 0.4;
        // ALS epochs: Gauss-Seidel means two sparse passes per mode
        // (MTTKRP + residual refresh), plus per-row normal-equation
        // solves. The paper highlights the *cubic* rank growth (Fig. 3c):
        // the per-row solve applies an R×R factorization folded into each
        // row block, i.e. O(I·R³).
        let act_sum = w.active_total() as f64;
        let flops_per_iter = (2.0 * n_modes * nnz * n_modes * r
            + act_sum * (r * r * r / 2.0 + 3.0 * r * r))
            * NATIVE_SPEEDUP;
        // Chunked (non-greedy) entry partitioning leaves stragglers: the
        // slowest machine carries ~30% extra work once data is spread out.
        // DisTenC's Algorithm 2 exists precisely to avoid this.
        let imbalance = 1.0 + 0.3 * (m - 1.0) / m;
        // Entire factor matrices exchanged every epoch (zero at M = 1) —
        // the coarse-grained penalty, over MPI (native constant).
        let dims_sum: f64 = w.dims.iter().map(|&d| d as f64).sum();
        let net_per_iter = dims_sum * r * 8.0 * NATIVE_SPEEDUP * (m - 1.0).min(1.0);
        let stages = 2.0 * n_modes;
        let per_iter = flops_per_iter * imbalance / (m * cores) * cost.seconds_per_flop
            + net_per_iter * cost.seconds_per_net_byte
            + stages * cost.stage_latency;
        // Setup: one pass over the input plus the one-time scatter of the
        // entries across ranks (MPI_Alltoallv at the native constant).
        let entry = w.entry_bytes() as f64;
        let setup = nnz / (m * cores) * cost.seconds_per_flop
            + nnz * entry * (m - 1.0) / (m * m) * cost.seconds_per_net_byte * NATIVE_SPEEDUP;
        setup + w.iters as f64 * per_iter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distenc_core::model::RunOutcome;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
        let truth = KruskalTensor::random(shape, rank, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5151);
        let mut mask = CooTensor::try_new(shape.to_vec()).unwrap();
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
            mask.push(&idx, 1.0).unwrap();
        }
        mask.sort_dedup();
        truth.eval_at(&mask).unwrap()
    }

    #[test]
    fn recovers_planted_data() {
        let observed = planted(&[12, 10, 8], 2, 600, 1);
        let cfg = AlsConfig { rank: 2, lambda: 1e-3, max_iters: 80, tol: 1e-7, ..Default::default() };
        let res = AlsSolver::new(cfg).unwrap().solve(&observed).unwrap();
        assert!(res.trace.final_rmse().unwrap() < 0.02);
    }

    #[test]
    fn rmse_decreases() {
        let observed = planted(&[10, 10, 10], 3, 500, 3);
        let cfg = AlsConfig { rank: 3, max_iters: 30, ..Default::default() };
        let res = AlsSolver::new(cfg).unwrap().solve(&observed).unwrap();
        let first = res.trace.points[0].train_rmse;
        let last = res.trace.final_rmse().unwrap();
        assert!(last < first);
        assert!(res.trace.roughly_monotone(1e-6), "ALS is monotone in training loss");
    }

    #[test]
    fn cluster_accounting_happens() {
        let observed = planted(&[15, 15, 15], 2, 400, 5);
        let cluster = Cluster::new(ClusterConfig::test(3).with_time_budget(None));
        let cfg = AlsConfig { rank: 2, max_iters: 3, tol: 1e-12, ..Default::default() };
        let res = AlsSolver::on_cluster(cfg, &cluster).unwrap().solve(&observed).unwrap();
        let m = cluster.metrics();
        assert!(m.stages > 3);
        assert!(m.broadcast_bytes > 0, "coarse-grained ALS broadcasts full factors");
        assert!(res.trace.total_seconds() > 0.0);
    }

    #[test]
    fn serial_and_distributed_numerics_agree() {
        let observed = planted(&[12, 12, 12], 2, 400, 7);
        let cfg = AlsConfig { rank: 2, max_iters: 6, tol: 1e-12, ..Default::default() };
        let serial = AlsSolver::new(cfg.clone()).unwrap().solve(&observed).unwrap();
        let cluster = Cluster::new(ClusterConfig::test(4).with_time_budget(None));
        let dist = AlsSolver::on_cluster(cfg, &cluster).unwrap().solve(&observed).unwrap();
        // Accounting must not perturb the numerics at all.
        for (a, b) in serial.model.factors().iter().zip(dist.model.factors()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn model_oom_at_paper_threshold() {
        // Fig. 3a: ALS O.O.M. at I = 10⁷ (12 GB executors), fine at 10⁶.
        let c = ClusterConfig::paper_spark();
        let ok = AlsModel.estimate(&WorkloadSpec::cube(1_000_000, 10_000_000, 20), &c);
        assert!(ok.is_ok(), "{ok:?}");
        let oom = AlsModel.estimate(&WorkloadSpec::cube(10_000_000, 10_000_000, 20), &c);
        assert!(matches!(oom, RunOutcome::OutOfMemory { .. }), "{oom:?}");
    }

    #[test]
    fn model_rank_growth_is_steeper_than_distenc() {
        // Fig. 3c's shape: ALS grows ~cubically with rank, DisTenC does
        // not.
        use distenc_core::model::DisTenCModel;
        let c = ClusterConfig::paper_spark();
        let w10 = WorkloadSpec::cube(1_000_000, 10_000_000, 10);
        let w200 = WorkloadSpec::cube(1_000_000, 10_000_000, 200);
        let als_ratio = AlsModel.seconds(&w200, &c) / AlsModel.seconds(&w10, &c);
        let dis_ratio = DisTenCModel.seconds(&w200, &c) / DisTenCModel.seconds(&w10, &c);
        assert!(
            als_ratio > 2.0 * dis_ratio,
            "ALS ratio {als_ratio:.1} vs DisTenC ratio {dis_ratio:.1}"
        );
    }

    #[test]
    fn model_fast_at_moderate_scale() {
        // Fig. 3b: ALS is the fastest completer at I = 10⁵.
        use distenc_core::model::DisTenCModel;
        let c = ClusterConfig::paper_spark();
        let w = WorkloadSpec::cube(100_000, 100_000_000, 10);
        assert!(AlsModel.seconds(&w, &c) < DisTenCModel.seconds(&w, &c));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(AlsSolver::new(AlsConfig { rank: 0, ..Default::default() }).is_err());
        assert!(AlsSolver::new(AlsConfig { max_iters: 0, ..Default::default() }).is_err());
        let empty = CooTensor::try_new(vec![3, 3]).unwrap();
        assert!(AlsSolver::new(AlsConfig::default()).unwrap().solve(&empty).is_err());
    }
}
