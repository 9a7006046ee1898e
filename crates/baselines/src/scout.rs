//! SCouT-style coupled matrix-tensor factorization on MapReduce (Jeon et
//! al., ICDE'16 — the `SCouT` baseline of §IV-A).
//!
//! The paper integrates each mode's similarity matrix "as coupled
//! matrices" (§IV-A): besides the tensor term, mode `n` with similarity
//! `Sₙ` contributes `(β/2)‖Sₙ − A⁽ⁿ⁾D⁽ⁿ⁾ᵀ‖²_F` with a coupled factor
//! `D⁽ⁿ⁾`. Alternating least squares gives closed-form updates:
//!
//! `A⁽ⁿ⁾ ← (H⁽ⁿ⁾ + βSₙD⁽ⁿ⁾)(F⁽ⁿ⁾ + λI + βD⁽ⁿ⁾ᵀD⁽ⁿ⁾)⁻¹`
//! `D⁽ⁿ⁾ ← SₙA⁽ⁿ⁾(A⁽ⁿ⁾ᵀA⁽ⁿ⁾ + (λ/β)I)⁻¹`
//!
//! State is row-partitioned (active rows), so SCouT scales in *memory*
//! like DisTenC — it reaches `I = 10⁹` in Fig. 3a. What hurts it is the
//! substrate: every MapReduce stage spills to disk and factor matrices
//! are re-read by mappers each stage, which is exactly the paper's
//! explanation for its slow convergence (Fig. 6b) and its poor machine
//! scalability (Fig. 4).

use distenc_core::model::{MethodModel, WorkloadSpec};
use distenc_core::trace::{ConvergenceTrace, TracePoint};
use distenc_core::{CompletionResult, CoreError, Result};
use distenc_dataflow::cluster::TaskCost;
use distenc_dataflow::{Cluster, ClusterConfig};
use distenc_graph::SparseSym;
use distenc_linalg::{Cholesky, Mat};
use distenc_tensor::mttkrp::gram_product;
use distenc_tensor::residual::{completed_mttkrp, residual};
use distenc_tensor::{CooTensor, KruskalTensor};
use std::time::Instant;

const F64: u64 = 8;

/// SCouT hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoutConfig {
    /// CP rank `R`.
    pub rank: usize,
    /// Ridge weight `λ`.
    pub lambda: f64,
    /// Coupling weight `β` for the similarity factorizations.
    pub beta: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence tolerance on the max factor delta.
    pub tol: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScoutConfig {
    fn default() -> Self {
        ScoutConfig { rank: 10, lambda: 0.1, beta: 0.5, max_iters: 60, tol: 1e-3, seed: 42 }
    }
}

/// The SCouT solver (serial numerics, optional MapReduce accounting).
#[derive(Debug)]
pub struct ScoutSolver<'c> {
    cfg: ScoutConfig,
    cluster: Option<&'c Cluster>,
}

impl<'c> ScoutSolver<'c> {
    /// Serial solver.
    pub fn new(cfg: ScoutConfig) -> Result<Self> {
        if cfg.rank == 0 || cfg.max_iters == 0 || !(cfg.tol.is_finite() && cfg.tol > 0.0) || cfg.beta < 0.0 {
            return Err(CoreError::Invalid("bad SCouT configuration".into()));
        }
        Ok(ScoutSolver { cfg, cluster: None })
    }

    /// Distributed solver; pass a MapReduce-mode cluster to reproduce the
    /// paper's setup.
    pub fn on_cluster(cfg: ScoutConfig, cluster: &'c Cluster) -> Result<Self> {
        let mut s = Self::new(cfg)?;
        s.cluster = Some(cluster);
        Ok(s)
    }

    /// Run coupled completion; `similarities[n]` is mode `n`'s coupled
    /// matrix (or `None` to leave that mode uncoupled).
    pub fn solve(
        &self,
        observed: &CooTensor,
        similarities: &[Option<&SparseSym>],
    ) -> Result<CompletionResult> {
        if observed.nnz() == 0 {
            return Err(CoreError::Invalid("observed tensor has no entries".into()));
        }
        if similarities.len() != observed.order() {
            return Err(CoreError::Invalid("one similarity slot per mode".into()));
        }
        for (n, s) in similarities.iter().enumerate() {
            if let Some(s) = s {
                if s.dim() != observed.shape()[n] {
                    return Err(CoreError::Invalid(format!(
                        "similarity for mode {n} has dim {}, mode has {}",
                        s.dim(),
                        observed.shape()[n]
                    )));
                }
            }
        }
        let shape = observed.shape().to_vec();
        let rank = self.cfg.rank;
        let start = Instant::now();

        if let Some(cl) = self.cluster {
            self.charge_setup(cl, observed)?;
        }

        let mut model = KruskalTensor::random(&shape, rank, self.cfg.seed);
        // Coupled factors for modes with similarities.
        let mut coupled: Vec<Option<Mat>> = shape
            .iter()
            .enumerate()
            .map(|(n, &d)| {
                similarities[n].map(|_| Mat::random(d, rank, self.cfg.seed.wrapping_add(100 + n as u64)))
            })
            .collect();
        let mut grams: Vec<Mat> = model.factors().iter().map(Mat::gram).collect();
        let mut e = residual(observed, &model)?;

        let mut trace = ConvergenceTrace::new();
        let mut converged = false;
        let mut iterations = 0;

        for t in 0..self.cfg.max_iters {
            iterations = t + 1;
            let mut delta = 0.0_f64;
            for n in 0..shape.len() {
                let mut f = gram_product(&grams, n)?;
                let mut h = completed_mttkrp(&e, &model, &f, n)?;
                if let (Some(s), Some(d)) = (similarities[n], coupled[n].as_ref()) {
                    // Coupled contribution: + βS D on the left, + βDᵀD in
                    // the system.
                    h.axpy(self.cfg.beta, &spmm(s, d)).map_err(CoreError::from)?;
                    f.axpy(self.cfg.beta, &d.gram()).map_err(CoreError::from)?;
                }
                f.add_diag(self.cfg.lambda);
                let a_new = Cholesky::factor(&f)?.solve_right(&h)?;
                delta = delta.max(model.factors()[n].frob_dist(&a_new)?);
                model.set_factor(n, a_new)?;
                grams[n] = model.factors()[n].gram();
                e = residual(observed, &model)?;

                // D-update for coupled modes.
                if let Some(s) = similarities[n] {
                    let a = &model.factors()[n];
                    let mut sys = grams[n].clone();
                    sys.add_diag(self.cfg.lambda / self.cfg.beta.max(1e-12));
                    let rhs = spmm(s, a);
                    coupled[n] = Some(Cholesky::factor(&sys)?.solve_right(&rhs)?);
                }
            }
            if let Some(cl) = self.cluster {
                self.charge_epoch(cl, observed, &shape, similarities)?;
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

    fn charge_setup(&self, cl: &Cluster, observed: &CooTensor) -> Result<()> {
        let m = cl.machines();
        let entry_bytes = (observed.order() as u64 + 1) * F64;
        let per = observed.nnz().div_ceil(m) as u64;
        let tasks: Vec<TaskCost> = (0..m)
            .map(|mach| TaskCost {
                machine: mach,
                flops: per as f64,
                input_bytes: per * entry_bytes,
                output_bytes: per * entry_bytes,
            })
            .collect();
        cl.run_stage(&tasks)?;
        // Row-partitioned factor state: in MapReduce mode `reserve`
        // spills to disk (nothing stays resident).
        for (n, &d) in observed.shape().iter().enumerate() {
            let rows = d.min(observed.nnz()) as u64;
            let _ = n;
            for mach in 0..m {
                cl.reserve(mach, rows * self.cfg.rank as u64 * F64 * 2 / m as u64)?;
            }
        }
        Ok(())
    }

    /// One iteration's MapReduce jobs: every stage re-reads its inputs
    /// from disk (the engine charges that in MapReduce mode) and factor
    /// matrices are shipped to mappers each stage *without* locality.
    fn charge_epoch(
        &self,
        cl: &Cluster,
        observed: &CooTensor,
        shape: &[usize],
        similarities: &[Option<&SparseSym>],
    ) -> Result<()> {
        let m = cl.machines();
        let rank = self.cfg.rank as u64;
        let n_modes = shape.len() as u64;
        let per = observed.nnz().div_ceil(m) as u64;
        let entry_bytes = (n_modes + 1) * F64;
        for (n, &dim) in shape.iter().enumerate() {
            let rows = dim.min(observed.nnz()) as u64;
            let coupled_nnz = similarities[n].map_or(0, |s| s.nnz()) as u64;
            // Map: sparse sweep + coupled product; Reduce: row solves.
            let tasks: Vec<TaskCost> = (0..m)
                .map(|mach| TaskCost {
                    machine: mach,
                    flops: (per * 2 * n_modes * rank + coupled_nnz * rank / m as u64) as f64
                        + (rows * 4 * rank * rank) as f64 / m as f64,
                    input_bytes: per * entry_bytes + rows * rank * F64 / m as u64,
                    output_bytes: rows * rank * F64 / m as u64,
                })
                .collect();
            cl.run_stage(&tasks)?;
            // Mapper-side model distribution: the full mode's rows travel
            // each stage (no Spark-style cached locality on Hadoop).
            let bytes = rows * rank * F64;
            let mut sent = vec![0u64; m];
            let mut received = vec![bytes / m as u64; m];
            sent[0] = bytes / m as u64 * m as u64;
            let total_sent: u64 = sent.iter().sum();
            let total_recv: u64 = received.iter().sum();
            if total_recv > total_sent {
                sent[0] += total_recv - total_sent;
            } else {
                received[0] += total_sent - total_recv;
            }
            cl.shuffle(&sent, &received)?;
        }
        Ok(())
    }
}

/// Sparse-symmetric × dense product `S·A` in `O(nnz(S)·R)`.
fn spmm(s: &SparseSym, a: &Mat) -> Mat {
    let mut out = Mat::zeros(s.dim(), a.cols());
    for i in 0..s.dim() {
        let (cols, vals) = s.row(i);
        let out_row = out.row_mut(i);
        for (&j, &v) in cols.iter().zip(vals) {
            for (o, &x) in out_row.iter_mut().zip(a.row(j)) {
                *o += v * x;
            }
        }
    }
    out
}

/// Scalability model of SCouT (DESIGN.md §5): active-row memory (reaches
/// `10⁹` dims), MapReduce disk + non-local model distribution time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScoutModel;

impl MethodModel for ScoutModel {
    fn name(&self) -> &'static str {
        "SCouT"
    }

    fn mem_per_machine(&self, w: &WorkloadSpec, c: &ClusterConfig) -> u64 {
        let m = c.machines as u64;
        // MapReduce: per-task working set, not resident state — tensor
        // chunk + the mode rows a task touches.
        let tensor = w.nnz * (w.entry_bytes() + 8) / m;
        let rows: u64 = (0..w.dims.len()).map(|n| w.active(n) * w.rank * 8 * 2 / m).sum();
        tensor + rows
    }

    fn seconds(&self, w: &WorkloadSpec, c: &ClusterConfig) -> f64 {
        let m = c.machines as f64;
        let cores = c.cores_per_machine as f64;
        let r = w.rank as f64;
        let n_modes = w.dims.len() as f64;
        let nnz = w.nnz as f64;
        let act_sum = w.active_total() as f64;
        let cost = &c.cost;
        let entry = w.entry_bytes() as f64;

        let flops_per_iter = 2.0 * n_modes * nnz * n_modes * r + act_sum * 4.0 * r * r;
        // Disk: every one of the N stages spills its tensor chunk in and
        // out, plus the factor rows.
        let disk_per_iter = n_modes * (2.0 * nnz * entry + act_sum * r * 8.0);
        // Network: every mapper pulls the full mode rows from the DFS
        // each stage — per-machine receive volume does NOT shrink with M
        // (no Spark-style cached locality), so this term is constant in
        // the machine count.
        let net_per_iter = act_sum * r * 8.0;
        let stages = 2.0 * n_modes;

        let per_iter = flops_per_iter / (m * cores) * cost.seconds_per_flop
            + disk_per_iter / m * cost.seconds_per_disk_byte
            + net_per_iter * cost.seconds_per_net_byte
            + stages * cost.mr_job_latency; // Hadoop job launch ≫ Spark stage
        let setup = nnz / (m * cores) * cost.seconds_per_flop
            + nnz * entry / m * cost.seconds_per_disk_byte;
        setup + w.iters as f64 * per_iter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distenc_core::model::DisTenCModel;
    use distenc_dataflow::Platform;
    use distenc_graph::builders::{community_blocks, tridiagonal_chain};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
        let truth = KruskalTensor::random(shape, rank, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5c07);
        let mut mask = CooTensor::try_new(shape.to_vec()).unwrap();
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
            mask.push(&idx, 1.0).unwrap();
        }
        mask.sort_dedup();
        truth.eval_at(&mask).unwrap()
    }

    #[test]
    fn recovers_planted_data_uncoupled() {
        let observed = planted(&[12, 10, 8], 2, 600, 4);
        let cfg = ScoutConfig { rank: 2, lambda: 1e-3, max_iters: 80, tol: 1e-7, ..Default::default() };
        let res = ScoutSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
        assert!(res.trace.final_rmse().unwrap() < 0.02);
    }

    #[test]
    fn spmm_matches_dense() {
        let s = community_blocks(8, 2, 1.0, 0);
        let a = Mat::random(8, 3, 1);
        let fast = spmm(&s, &a);
        for i in 0..8 {
            for r in 0..3 {
                let mut want = 0.0;
                for j in 0..8 {
                    want += s.get(i, j) * a.get(j, r);
                }
                assert!((fast.get(i, r) - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn coupling_changes_solution_and_still_fits() {
        let observed = planted(&[15, 15, 15], 2, 700, 6);
        let sim = tridiagonal_chain(15);
        let cfg = ScoutConfig { rank: 2, max_iters: 40, tol: 1e-9, ..Default::default() };
        let coupled = ScoutSolver::new(cfg.clone())
            .unwrap()
            .solve(&observed, &[Some(&sim), None, None])
            .unwrap();
        let plain = ScoutSolver::new(cfg)
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap();
        assert!(coupled.trace.final_rmse().unwrap() < 0.5);
        assert!(
            coupled.model.factors()[0]
                .frob_dist(&plain.model.factors()[0])
                .unwrap()
                > 1e-6,
            "coupling must actually influence the factors"
        );
    }

    #[test]
    fn mapreduce_accounting_charges_disk() {
        let observed = planted(&[15, 15, 15], 2, 400, 8);
        let cluster = Cluster::new(
            ClusterConfig::test(3)
                .with_mode(Platform::MapReduce)
                .with_time_budget(None),
        );
        let cfg = ScoutConfig { rank: 2, max_iters: 3, tol: 1e-12, ..Default::default() };
        let _ = ScoutSolver::on_cluster(cfg, &cluster)
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap();
        assert!(cluster.metrics().disk_bytes > 0, "MapReduce must touch disk");
    }

    #[test]
    fn model_reaches_billion_dims() {
        let c = ClusterConfig::paper_mapreduce();
        let out = ScoutModel.estimate(&WorkloadSpec::cube(1_000_000_000, 10_000_000, 20), &c);
        assert!(out.is_ok(), "SCouT must fit at 10⁹ like Fig. 3a: {out:?}");
    }

    #[test]
    fn model_slower_than_distenc_per_workload() {
        // Fig. 3b: DisTenC outperforms SCouT thanks to Spark vs Hadoop.
        let w = WorkloadSpec::cube(100_000, 100_000_000, 10);
        let scout = ScoutModel.seconds(&w, &ClusterConfig::paper_mapreduce());
        let dis = DisTenCModel.seconds(&w, &ClusterConfig::paper_spark());
        assert!(scout > dis, "SCouT {scout} must be slower than DisTenC {dis}");
    }

    #[test]
    fn model_machine_scaling_saturates_vs_distenc() {
        // Fig. 4: DisTenC speeds up more linearly than SCouT.
        let w = WorkloadSpec::cube(100_000, 10_000_000, 10);
        let su = |model: &dyn MethodModel, base: &ClusterConfig| {
            model.seconds(&w, &base.clone().with_machines(1))
                / model.seconds(&w, &base.clone().with_machines(8))
        };
        let scout_speedup = su(&ScoutModel, &ClusterConfig::paper_mapreduce());
        let dis_speedup = su(&DisTenCModel, &ClusterConfig::paper_spark());
        assert!(
            dis_speedup > scout_speedup,
            "DisTenC speedup {dis_speedup:.2} vs SCouT {scout_speedup:.2}"
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ScoutSolver::new(ScoutConfig { rank: 0, ..Default::default() }).is_err());
        let observed = planted(&[6, 6], 2, 20, 9);
        let s = ScoutSolver::new(ScoutConfig::default()).unwrap();
        assert!(s.solve(&observed, &[None]).is_err());
        let sim = tridiagonal_chain(4);
        assert!(s.solve(&observed, &[Some(&sim), None]).is_err());
    }
}
