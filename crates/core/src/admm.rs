//! Serial ADMM reference solver (Algorithm 1 with the §III updates).
//!
//! This is the single-machine ground truth that the distributed
//! [`crate::DisTenC`] must reproduce. All three of the paper's
//! efficiency ideas are already applied here, because they are exact
//! reformulations, not approximations (modulo Laplacian truncation):
//!
//! 1. `B⁽ⁿ⁾`-update through the precomputed truncated eigendecomposition
//!    (Eq. 7),
//! 2. `U⁽ⁿ⁾ᵀU⁽ⁿ⁾` as a Hadamard product of cached Gram matrices (Eq. 12),
//! 3. the MTTKRP against the *completed* tensor via the sparse residual
//!    (Eq. 16).
//!
//! Within an iteration every mode update reads the factors from the
//! iteration's start (`A⁽ⁿ⁾ₜ` on every right-hand side, exactly as
//! Algorithm 3 lines 8–12 are written). This Jacobi ordering is what makes
//! the mode updates independent — and therefore distributable.

use crate::config::{AdmmConfig, SolverTier};
use crate::solver::checkpoint::Checkpoint;
use crate::solver::{self, HostBackend, ResidualStore, SketchedBackend, SolverState};
use crate::trace::{ConvergenceTrace, TracePoint};
use crate::{CompletionResult, CoreError, Result};
use distenc_dataflow::Executor;
use distenc_graph::{Laplacian, TruncatedLaplacian};
use distenc_tensor::{CooTensor, KruskalTensor, LayoutAccel, TensorLayout};
use std::path::PathBuf;
use std::time::Instant;

/// The serial Algorithm 1 solver.
#[derive(Debug, Clone)]
pub struct AdmmSolver {
    cfg: AdmmConfig,
}

impl AdmmSolver {
    /// Create a solver, validating the configuration.
    pub fn new(cfg: AdmmConfig) -> Result<Self> {
        cfg.validate().map_err(CoreError::Invalid)?;
        Ok(AdmmSolver { cfg })
    }

    /// The configuration in use.
    pub fn config(&self) -> &AdmmConfig {
        &self.cfg
    }

    /// Run tensor completion on `observed` (the `Ω∗X = T` constraint data)
    /// with optional per-mode auxiliary Laplacians.
    ///
    /// `laplacians[n] = None` means mode `n` has no side information (its
    /// trace term vanishes; the `B`-update degenerates to `(ηA−Y)/η`).
    pub fn solve(
        &self,
        observed: &CooTensor,
        laplacians: &[Option<&Laplacian>],
    ) -> Result<CompletionResult> {
        validate_problem(observed, laplacians, &self.cfg)?;
        let truncated = truncate_all(observed.shape(), laplacians, &self.cfg)?;
        let start = Instant::now();
        solve_with(observed, &truncated, &self.cfg, None, |_iter| {
            start.elapsed().as_secs_f64()
        })
    }

    /// Warm-started completion: continue from an existing model instead of
    /// a random initialization — the online scenario where new
    /// observations arrive and the previous factors are a good starting
    /// point. The ADMM state (`B`, `Y`, `η`) restarts, only the factors
    /// carry over.
    pub fn solve_from(
        &self,
        observed: &CooTensor,
        laplacians: &[Option<&Laplacian>],
        init: &KruskalTensor,
    ) -> Result<CompletionResult> {
        validate_problem(observed, laplacians, &self.cfg)?;
        if init.shape() != observed.shape() || init.rank() != self.cfg.rank {
            return Err(CoreError::Invalid(format!(
                "warm-start model (shape {:?}, rank {}) does not match problem                  (shape {:?}, rank {})",
                init.shape(),
                init.rank(),
                observed.shape(),
                self.cfg.rank
            )));
        }
        let truncated = truncate_all(observed.shape(), laplacians, &self.cfg)?;
        let start = Instant::now();
        solve_with(observed, &truncated, &self.cfg, Some(init.clone()), |_iter| {
            start.elapsed().as_secs_f64()
        })
    }

    /// Streaming completion step: a solve that accepts — and returns — a
    /// [`ResidualHandoff`] so consecutive re-solves over a drifting
    /// observation set never rebuild the residual from scratch.
    ///
    /// * `init = None` is a cold solve, identical to [`AdmmSolver::solve`]
    ///   (bit-for-bit), that additionally hands the final residual out.
    /// * `init = Some` with `carry = None` is [`AdmmSolver::solve_from`]:
    ///   warm factors, residual rebuilt by the prologue.
    /// * `init = Some` with `carry = Some` is the fully warm path: the
    ///   carried residual values must be exactly `Ω∗(T − [[init…]])` on
    ///   `observed`'s support (the invariant the streaming delta apply
    ///   maintains), and the prologue refresh is skipped — the solve
    ///   starts in `O(1)` residual work instead of `O(nnz·N·R)`. The
    ///   result is bit-identical to `solve_from` on the same inputs.
    ///
    /// The ADMM auxiliaries restart either way (`Y = 0`, `η = η₀`; `B`'s
    /// carried value is irrelevant because every mode step recomputes it
    /// from `ηA − Y` before any read), so warm state is exactly: factors
    /// plus residual.
    pub fn solve_streamed(
        &self,
        observed: &CooTensor,
        laplacians: &[Option<&Laplacian>],
        init: Option<&KruskalTensor>,
        carry: Option<ResidualHandoff>,
    ) -> Result<(CompletionResult, ResidualHandoff)> {
        validate_problem(observed, laplacians, &self.cfg)?;
        if let Some(m) = init {
            if m.shape() != observed.shape() || m.rank() != self.cfg.rank {
                return Err(CoreError::Invalid(format!(
                    "warm-start model (shape {:?}, rank {}) does not match problem (shape {:?}, rank {})",
                    m.shape(),
                    m.rank(),
                    observed.shape(),
                    self.cfg.rank
                )));
            }
        }
        if let Some(c) = &carry {
            if init.is_none() {
                return Err(CoreError::Invalid(
                    "a residual hand-off requires the warm-start model it was computed against"
                        .into(),
                ));
            }
            if c.e.shape() != observed.shape() || c.e.nnz() != observed.nnz() {
                return Err(CoreError::Invalid(format!(
                    "carried residual (shape {:?}, nnz {}) does not share the observed support (shape {:?}, nnz {})",
                    c.e.shape(),
                    c.e.nnz(),
                    observed.shape(),
                    observed.nnz()
                )));
            }
            if (0..observed.nnz()).any(|i| c.e.index(i) != observed.index(i)) {
                return Err(CoreError::Invalid(
                    "carried residual support diverges from the observed tensor".into(),
                ));
            }
        }
        let truncated = truncate_all(observed.shape(), laplacians, &self.cfg)?;
        let start = Instant::now();
        solve_with_handoff(observed, &truncated, &self.cfg, init.cloned(), carry, |_iter| {
            start.elapsed().as_secs_f64()
        })
    }

    /// Continue an interrupted solve from a [`Checkpoint`] (typically read
    /// back with [`Checkpoint::read_file`]).
    ///
    /// The iteration-determining numerics (rank, λ, α, η schedule, seed,
    /// tolerance, …) come from the *checkpoint* — they are what the
    /// interrupted run was solving — while the environment-dependent
    /// settings come from *this* solver: its execution mode and its
    /// checkpoint policy (so a resumed run keeps snapshotting if asked
    /// to). The solver tier is pinned to [`SolverTier::Exact`]:
    /// checkpoints are exact-tier artifacts.
    ///
    /// **Bit-exact recovery invariant**: resuming from a checkpoint of
    /// iteration `k` produces exactly — bit for bit — the factors, RMSE,
    /// and trace the uninterrupted run would have produced, at
    /// `DISTENC_THREADS=1` and in threaded mode alike
    /// (`tests/fault_recovery.rs` pins this). A checkpoint whose
    /// `iters_done` already reached `max_iters` returns the stored state
    /// without iterating.
    ///
    /// `observed` and `laplacians` must be the same problem the
    /// interrupted run was solving: shape, observed support size, and
    /// Laplacian dimensions are validated, and the checkpointed residual
    /// is trusted to be `Ω∗(T − [[A…]])` on that support (the format's
    /// checksum guards transport corruption; it cannot detect a swapped
    /// input tensor).
    pub fn resume(
        &self,
        observed: &CooTensor,
        laplacians: &[Option<&Laplacian>],
        ckpt: &Checkpoint,
    ) -> Result<CompletionResult> {
        let cfg = AdmmConfig {
            exec: self.cfg.exec,
            checkpoint: self.cfg.checkpoint.clone(),
            // Like `exec`, the layout is an environment knob of *this*
            // invocation: every layout resumes bit-identically.
            layout: self.cfg.layout,
            ..ckpt.config.clone()
        };
        cfg.validate().map_err(CoreError::Invalid)?;
        validate_problem(observed, laplacians, &cfg)?;
        if ckpt.shape != observed.shape() {
            return Err(CoreError::Invalid(format!(
                "checkpoint shape {:?} does not match observed tensor shape {:?}",
                ckpt.shape,
                observed.shape()
            )));
        }
        if ckpt.residual.len() != observed.nnz() {
            return Err(CoreError::Invalid(format!(
                "checkpoint residual has {} entries, observed support has {}",
                ckpt.residual.len(),
                observed.nnz()
            )));
        }
        let truncated = truncate_all(observed.shape(), laplacians, &cfg)?;
        // The checkpointed residual values are fresh for the checkpointed
        // factors (snapshots are taken right after the iteration's
        // residual refresh), so they re-enter the solve through the same
        // hand-off machinery the streaming path uses: prologue skipped,
        // bit-invisibly.
        let mut e = observed.clone();
        e.values_mut().copy_from_slice(&ckpt.residual);
        let carry = ResidualHandoff { e, accel: LayoutAccel::default() };
        let init = KruskalTensor::new(ckpt.factors.clone())?;
        let start = Instant::now();
        solve_exact(
            observed,
            &truncated,
            &cfg,
            Some(init),
            Some(carry),
            Some(ckpt),
            |_iter| start.elapsed().as_secs_f64(),
        )
        .map(|(r, _)| r)
    }
}

/// Host-side [`solver::CheckpointSink`]: serializes each snapshot into
/// the versioned on-disk format at the configured path. Writes are
/// atomic (temp-file-then-rename), so an interrupted save never
/// corrupts the previously persisted snapshot.
struct FileSink<'a> {
    cfg: &'a AdmmConfig,
    shape: Vec<usize>,
    path: PathBuf,
}

impl solver::CheckpointSink for FileSink<'_> {
    fn save(
        &mut self,
        st: &SolverState,
        iters_done: usize,
        trace: &ConvergenceTrace,
    ) -> Result<()> {
        let layout = st.residual.host()?;
        let ckpt = Checkpoint {
            config: self.cfg.clone(),
            shape: self.shape.clone(),
            iters_done,
            eta: st.eta,
            factors: st.model.factors().to_vec(),
            y_mul: st.y_mul.clone(),
            residual: layout.values().to_vec(),
            trace: trace.clone(),
        };
        ckpt.write_file(&self.path)?;
        Ok(())
    }
}

/// Fresh residual state handed between consecutive streaming solves.
///
/// Invariant: `e`'s values are exactly `Ω∗(T − [[model…]])` for the model
/// returned alongside it — [`solver::run`] leaves them that way (the last
/// iteration's residual refresh runs *after* the final factor swap), and
/// the streaming delta apply keeps them that way when the observation set
/// changes. `accel` carries the layout's acceleration structure (the
/// tiled entry orders); it is reusable as long as the support is
/// unchanged, and the streaming layer clears it on structural deltas so
/// the next solve rebuilds.
#[derive(Debug, Clone)]
pub struct ResidualHandoff {
    /// Residual values on the observed support, in entry order.
    pub e: CooTensor,
    /// Layout acceleration structure of the solve that produced `e`
    /// (empty for the plain COO layout).
    pub accel: LayoutAccel,
}

/// Shared problem validation (also used by the distributed solver).
pub(crate) fn validate_problem(
    observed: &CooTensor,
    laplacians: &[Option<&Laplacian>],
    cfg: &AdmmConfig,
) -> Result<()> {
    if laplacians.len() != observed.order() {
        return Err(CoreError::Invalid(format!(
            "{} Laplacians for an order-{} tensor",
            laplacians.len(),
            observed.order()
        )));
    }
    for (n, lap) in laplacians.iter().enumerate() {
        if let Some(l) = lap {
            if l.dim() != observed.shape()[n] {
                return Err(CoreError::Invalid(format!(
                    "Laplacian for mode {n} has dimension {}, mode has length {}",
                    l.dim(),
                    observed.shape()[n]
                )));
            }
        }
    }
    if observed.nnz() == 0 {
        return Err(CoreError::Invalid("observed tensor has no entries".into()));
    }
    // Construction rejects non-finite values; this catches ones written
    // in place afterwards (`values_mut`), before any kernel sees them.
    if let Some(pos) = observed.values().iter().position(|v| !v.is_finite()) {
        let (index, value) = (observed.index(pos).to_vec(), observed.value(pos));
        return Err(distenc_tensor::TensorError::NonFinite { index, value }.into());
    }
    let _ = cfg;
    Ok(())
}

/// Truncate every provided Laplacian once, up front (§III-B: the
/// eigendecomposition is precomputed because `L` never changes).
pub(crate) fn truncate_all(
    shape: &[usize],
    laplacians: &[Option<&Laplacian>],
    cfg: &AdmmConfig,
) -> Result<Vec<TruncatedLaplacian>> {
    shape
        .iter()
        .zip(laplacians)
        .map(|(&dim, lap)| match lap {
            Some(l) => Ok(l.truncate(cfg.eigen_k, cfg.seed)?),
            None => Ok(TruncatedLaplacian::zero(dim)),
        })
        .collect()
}

/// The host driver: build the single-machine backend and state, then run
/// the shared core ([`solver::run`]). The `clock` closure stamps each
/// trace point (wall time here, virtual cluster time for the distributed
/// driver).
pub(crate) fn solve_with(
    observed: &CooTensor,
    truncated: &[TruncatedLaplacian],
    cfg: &AdmmConfig,
    initial: Option<KruskalTensor>,
    clock: impl Fn(usize) -> f64,
) -> Result<CompletionResult> {
    solve_with_handoff(observed, truncated, cfg, initial, None, clock).map(|(r, _)| r)
}

/// The host driver with residual hand-off: the full streaming-aware
/// path, dispatching on [`AdmmConfig::solver_tier`].
///
/// * [`SolverTier::Exact`] runs the bit-pinned single-phase solve.
/// * [`SolverTier::Sketched`] runs the two-phase schedule
///   ([`solve_sketched`]) — unless a documented fallback applies:
///   `samples ≥ nnz` (a sample that large can't beat a full sweep; the
///   exact path is also what makes the degenerate config bit-identical
///   to `Exact`, which `tests/sketched_equivalence.rs` pins) or
///   `polish_iters ≥ max_iters` (no sketch-phase budget left).
pub(crate) fn solve_with_handoff(
    observed: &CooTensor,
    truncated: &[TruncatedLaplacian],
    cfg: &AdmmConfig,
    initial: Option<KruskalTensor>,
    carry: Option<ResidualHandoff>,
    clock: impl Fn(usize) -> f64,
) -> Result<(CompletionResult, ResidualHandoff)> {
    if let SolverTier::Sketched { samples, polish_iters } = cfg.solver_tier {
        let sketch_iters = cfg.max_iters.saturating_sub(polish_iters);
        if samples < observed.nnz() && sketch_iters > 0 {
            return solve_sketched(
                observed, truncated, cfg, initial, carry, samples, sketch_iters, clock,
            );
        }
    }
    solve_exact(observed, truncated, cfg, initial, carry, None, clock)
}

/// Shared host-side setup: the executor, the Algorithm 2 greedy MTTKRP
/// boundaries, and the residual store (carried or rebuilt) in its
/// layout. Used by both the exact path and the sketch phase
/// so a tier switch never changes how the problem is laid out.
///
/// The per-mode boundaries are computed once — the support never changes
/// *within* a solve — and any blocking is bit-exact, so sizing them to
/// the worker count is free. `parallelism()` (not `threads()`) clamps
/// the chunk count to the cores actually available, so a
/// `DISTENC_THREADS` setting above the machine's core count does not
/// oversplit the kernels.
///
/// The residual shares the observed support. Cold: its values start
/// stale (they still hold `T`'s) and the solver refreshes them before
/// anything reads them. Warm: the carried values are already fresh for
/// the warm-start model and the prologue is skipped. The carried layout
/// acceleration structure (tiled orders) is reused when it
/// still matches the support; otherwise the layout rebuilds it.
fn build_host_layout(
    observed: &CooTensor,
    cfg: &AdmmConfig,
    carry: Option<ResidualHandoff>,
) -> Result<(Executor, Vec<Vec<usize>>, ResidualStore, bool)> {
    let n_modes = observed.order();
    let exec = Executor::new(cfg.exec);
    let boundaries: Vec<Vec<usize>> = (0..n_modes)
        .map(|n| {
            distenc_partition::greedy_boundaries(&observed.slice_nnz(n), exec.parallelism())
        })
        .collect();

    let kind = cfg.resolved_layout().map_err(CoreError::Invalid)?;
    let residual_fresh = carry.is_some();
    let (e, accel) = match carry {
        Some(c) => (c.e, c.accel),
        None => (observed.clone(), LayoutAccel::default()),
    };
    let layout = TensorLayout::build_with(e, kind, accel)?;
    Ok((exec, boundaries, ResidualStore::Host(layout), residual_fresh))
}

/// The single-phase exact host solve (the pre-tier behavior,
/// bit-for-bit when no checkpointing or resumption is in play).
///
/// `resume` continues at the checkpoint's iteration cursor: the caller
/// already routed the checkpointed factors through `initial` and the
/// checkpointed residual through `carry`; this function restores the
/// remaining ADMM state (duals `Y`, penalty `η`) and the trace. A
/// [`FileSink`] is attached when the config asks for on-disk
/// checkpointing ([`crate::CheckpointPolicy::with_path`]); a policy
/// without a path is the distributed driver's concern and is a no-op
/// here.
fn solve_exact(
    observed: &CooTensor,
    truncated: &[TruncatedLaplacian],
    cfg: &AdmmConfig,
    initial: Option<KruskalTensor>,
    carry: Option<ResidualHandoff>,
    resume: Option<&Checkpoint>,
    clock: impl Fn(usize) -> f64,
) -> Result<(CompletionResult, ResidualHandoff)> {
    let (exec, boundaries, store, residual_fresh) = build_host_layout(observed, cfg, carry)?;
    let mut backend =
        HostBackend::new(store.host()?, &boundaries, cfg.rank, exec, cfg.fused, clock)?;
    let mut st = SolverState::new(observed, truncated, cfg, initial, store, boundaries)?;
    let resume_point = resume.map(|ck| {
        st.y_mul = ck.y_mul.clone();
        st.eta = ck.eta;
        solver::ResumePoint { start_iter: ck.iters_done, trace: ck.trace.clone() }
    });
    let mut file_sink = cfg
        .checkpoint
        .as_ref()
        .and_then(|policy| policy.path.as_ref())
        .map(|path| FileSink { cfg, shape: observed.shape().to_vec(), path: path.clone() });
    let sink: Option<&mut dyn solver::CheckpointSink> = match file_sink.as_mut() {
        Some(s) => Some(s),
        None => None,
    };
    let (result, residual) = solver::run_resumable(
        observed,
        truncated,
        cfg,
        &mut backend,
        st,
        residual_fresh,
        resume_point,
        sink,
    )?;
    let (e, accel) = residual.into_host()?.into_parts();
    Ok((result, ResidualHandoff { e, accel }))
}

/// The two-phase sketched solve: `sketch_iters` sampled iterations on
/// the [`SketchedBackend`], then the remaining `max_iters − sketch_iters`
/// exact polish iterations on the [`HostBackend`], warm-started through
/// the same [`ResidualHandoff`] machinery the streaming path uses.
///
/// The hand-off between the phases is free: the sketch phase's final
/// `fused_step` performs a full exact residual refresh (the
/// [`ResidualHandoff`] invariant), so the polish phase skips its
/// prologue rebuild and starts directly on fresh values. Both phases
/// stamp trace points through the same `clock` closure, so `seconds` is
/// cumulative across the whole solve; the polish phase's trace points
/// are renumbered to continue the sketch phase's iteration count. Trace
/// `train_rmse` during the sketch phase is the *sampled estimate* of the
/// true RMSE (unbiased in the squared norm); the polish phase's points —
/// including the final one — are exact.
#[allow(clippy::too_many_arguments)]
fn solve_sketched(
    observed: &CooTensor,
    truncated: &[TruncatedLaplacian],
    cfg: &AdmmConfig,
    initial: Option<KruskalTensor>,
    carry: Option<ResidualHandoff>,
    samples: usize,
    sketch_iters: usize,
    clock: impl Fn(usize) -> f64,
) -> Result<(CompletionResult, ResidualHandoff)> {
    // Phase A: sampled iterations. The config keeps every solver knob
    // except the iteration budget; the sketched backend ignores the
    // `fused` ablation flag (its fused sampled sweep *is* the schedule —
    // there is no unfused sampled path to ablate against). Checkpointing
    // is stripped from both phases: checkpoints are exact-tier artifacts
    // (a sketch-phase snapshot would resume into a different sampling
    // stream, and a polish-phase snapshot would store a phase-local
    // iteration cursor that lies about the whole solve).
    let cfg_a = AdmmConfig { max_iters: sketch_iters, checkpoint: None, ..cfg.clone() };
    let (exec, boundaries, store, residual_fresh) = build_host_layout(observed, &cfg_a, carry)?;
    let mut backend_a =
        SketchedBackend::new(observed, samples, cfg.rank, exec, cfg.seed, &clock)?;
    let st = SolverState::new(observed, truncated, &cfg_a, initial, store, boundaries)?;
    let (res_a, residual) =
        solver::run(observed, truncated, &cfg_a, &mut backend_a, st, residual_fresh)?;
    let (e, accel) = residual.into_host()?.into_parts();
    let handoff = ResidualHandoff { e, accel };

    // Phase B: exact polish, warm-started from the sketch phase's model
    // and (fresh) residual. `polish_iters = 0` is legal: the fallback in
    // `solve_with_handoff` only guards the sketch budget, so a zero
    // polish config returns the sketch phase's result directly.
    let polish_iters = cfg.max_iters - sketch_iters;
    let cfg_b = AdmmConfig {
        max_iters: polish_iters,
        solver_tier: SolverTier::Exact,
        checkpoint: None,
        ..cfg.clone()
    };
    let (res_b, handoff) = solve_exact(
        observed,
        truncated,
        &cfg_b,
        Some(res_a.model),
        Some(handoff),
        None,
        &clock,
    )?;

    // Merge the phases into one result: polish trace points continue the
    // sketch phase's iteration numbering, iteration counts add, and the
    // convergence flag is the polish phase's (the sketch phase's flag
    // only matters when there is no polish to run).
    let offset = res_a.iterations;
    let mut trace = res_a.trace;
    trace.points.reserve(res_b.trace.points.len());
    for p in res_b.trace.points {
        trace.push(TracePoint { iter: offset + p.iter, ..p });
    }
    let converged = if res_b.iterations > 0 { res_b.converged } else { res_a.converged };
    let result = CompletionResult {
        model: res_b.model,
        trace,
        iterations: offset + res_b.iterations,
        converged,
    };
    Ok((result, handoff))
}


#[cfg(test)]
mod tests {
    use super::*;
    use distenc_graph::builders::tridiagonal_chain;
    use distenc_linalg::Mat;
    use distenc_tensor::split::split_missing;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Planted low-rank data: sample a mask, evaluate a ground-truth CP
    /// model on it.
    fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> (CooTensor, KruskalTensor) {
        let truth = KruskalTensor::random(shape, rank, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let mut mask = CooTensor::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
            mask.push(&idx, 1.0).unwrap();
        }
        mask.sort_dedup();
        let observed = truth.eval_at(&mask).unwrap();
        (observed, truth)
    }

    #[test]
    fn recovers_planted_low_rank_data() {
        let shape = [12, 10, 8];
        let (observed, _) = planted(&shape, 3, 700, 2);
        let cfg = AdmmConfig {
            rank: 3,
            lambda: 1e-3,
            max_iters: 120,
            tol: 1e-7,
            ..Default::default()
        };
        let solver = AdmmSolver::new(cfg).unwrap();
        let res = solver.solve(&observed, &[None, None, None]).unwrap();
        let rmse = res.trace.final_rmse().unwrap();
        assert!(rmse < 0.02, "train RMSE {rmse} too high");
    }

    #[test]
    fn generalizes_to_held_out_entries() {
        let shape = [12, 10, 8];
        let (observed, _truth) = planted(&shape, 2, 900, 3);
        let split = split_missing(&observed, 0.3, 5);
        let cfg = AdmmConfig {
            rank: 2,
            lambda: 1e-3,
            max_iters: 150,
            tol: 1e-8,
            ..Default::default()
        };
        let res = AdmmSolver::new(cfg)
            .unwrap()
            .solve(&split.train, &[None, None, None])
            .unwrap();
        let test_rmse =
            distenc_tensor::residual::observed_rmse(&split.test, &res.model).unwrap();
        // Mean |value| of products of 3 uniforms is 1/8; RMSE ≪ that means
        // real signal was recovered.
        assert!(test_rmse < 0.1, "test RMSE {test_rmse}");
    }

    #[test]
    fn auxiliary_information_helps_on_smooth_factors() {
        // The paper's §IV-A construction: factor rows vary linearly with
        // the index, so consecutive rows are similar and the chain
        // similarity (Eq. 17) is informative.
        let (i1, i2, i3, r) = (30, 30, 30, 3);
        let mut rng = StdRng::seed_from_u64(11);
        let mut factors = Vec::new();
        for &dim in &[i1, i2, i3] {
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
        let mut mask = CooTensor::new(vec![i1, i2, i3]);
        for _ in 0..800 {
            let idx = [
                rng.random_range(0..i1),
                rng.random_range(0..i2),
                rng.random_range(0..i3),
            ];
            mask.push(&idx, 1.0).unwrap();
        }
        mask.sort_dedup();
        let observed = truth.eval_at(&mask).unwrap();
        let split = split_missing(&observed, 0.7, 2); // 70% missing: hard
        let laps: Vec<Laplacian> = (0..3)
            .map(|_| Laplacian::from_similarity(tridiagonal_chain(30)))
            .collect();

        let cfg = AdmmConfig {
            rank: r,
            lambda: 1e-2,
            max_iters: 80,
            tol: 1e-8,
            eigen_k: 15,
            ..Default::default()
        };
        let with_aux = AdmmSolver::new(cfg.clone().with_alpha(5.0))
            .unwrap()
            .solve(&split.train, &[Some(&laps[0]), Some(&laps[1]), Some(&laps[2])])
            .unwrap();
        let without_aux = AdmmSolver::new(cfg.with_alpha(0.0))
            .unwrap()
            .solve(&split.train, &[None, None, None])
            .unwrap();

        let rmse_aux =
            distenc_tensor::residual::observed_rmse(&split.test, &with_aux.model).unwrap();
        let rmse_plain =
            distenc_tensor::residual::observed_rmse(&split.test, &without_aux.model).unwrap();
        assert!(
            rmse_aux < rmse_plain,
            "aux RMSE {rmse_aux} should beat plain {rmse_plain} at 70% missing"
        );
    }

    #[test]
    fn converges_and_reports_flag() {
        let (observed, _) = planted(&[8, 8, 8], 2, 400, 9);
        let cfg = AdmmConfig { rank: 2, max_iters: 200, tol: 1e-5, ..Default::default() };
        let res = AdmmSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
        assert!(res.converged, "should converge within 200 iterations");
        assert!(res.iterations < 200);
        assert_eq!(res.trace.points.len(), res.iterations);
    }

    #[test]
    fn trace_rmse_decreases_overall() {
        let (observed, _) = planted(&[10, 9, 8], 2, 500, 13);
        let cfg = AdmmConfig { rank: 2, max_iters: 40, ..Default::default() };
        let res = AdmmSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
        let first = res.trace.points.first().unwrap().train_rmse;
        let last = res.trace.final_rmse().unwrap();
        assert!(last < first * 0.5, "RMSE {first} → {last} must at least halve");
        assert!(res.trace.roughly_monotone(0.05));
    }

    #[test]
    fn nonneg_projection_respected() {
        let (observed, _) = planted(&[8, 8, 8], 2, 300, 17);
        let cfg = AdmmConfig { rank: 2, max_iters: 10, nonneg: true, ..Default::default() };
        let res = AdmmSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
        for f in res.model.factors() {
            assert!(f.as_slice().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn rejects_bad_setups() {
        let t = CooTensor::new(vec![4, 4]);
        let solver = AdmmSolver::new(AdmmConfig::default()).unwrap();
        // Empty tensor.
        assert!(solver.solve(&t, &[None, None]).is_err());
        // Wrong Laplacian count.
        let (observed, _) = planted(&[4, 4], 2, 10, 1);
        assert!(solver.solve(&observed, &[None]).is_err());
        // Wrong Laplacian dimension.
        let lap = Laplacian::from_similarity(tridiagonal_chain(7));
        assert!(solver.solve(&observed, &[Some(&lap), None]).is_err());
        // Invalid config.
        assert!(AdmmSolver::new(AdmmConfig { rank: 0, ..Default::default() }).is_err());
    }

    #[test]
    fn warm_start_improves_on_its_initialization() {
        let (observed, _) = planted(&[12, 10, 8], 2, 500, 41);
        let cfg = AdmmConfig { rank: 2, max_iters: 10, tol: 1e-12, ..Default::default() };
        let solver = AdmmSolver::new(cfg).unwrap();
        let first = solver.solve(&observed, &[None, None, None]).unwrap();
        let first_rmse = first.trace.final_rmse().unwrap();
        // Continue from the first run's model: training RMSE keeps going
        // down (or stays), never regresses past the handoff point.
        let second = solver
            .solve_from(&observed, &[None, None, None], &first.model)
            .unwrap();
        let second_rmse = second.trace.final_rmse().unwrap();
        assert!(
            second_rmse <= first_rmse * 1.01,
            "warm start must not regress: {first_rmse} → {second_rmse}"
        );
        // And a warm start must beat a cold run of the same length when
        // the init is good.
        assert!(second_rmse < first.trace.points[0].train_rmse);
    }

    #[test]
    fn warm_start_rejects_mismatched_model() {
        let (observed, _) = planted(&[8, 8, 8], 2, 200, 43);
        let solver =
            AdmmSolver::new(AdmmConfig { rank: 2, ..Default::default() }).unwrap();
        let wrong_rank = KruskalTensor::random(&[8, 8, 8], 5, 1);
        assert!(solver.solve_from(&observed, &[None, None, None], &wrong_rank).is_err());
        let wrong_shape = KruskalTensor::random(&[8, 8, 9], 2, 1);
        assert!(solver.solve_from(&observed, &[None, None, None], &wrong_shape).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let (observed, _) = planted(&[8, 8, 8], 2, 300, 21);
        let cfg = AdmmConfig { rank: 2, max_iters: 15, ..Default::default() };
        let a = AdmmSolver::new(cfg.clone()).unwrap().solve(&observed, &[None, None, None]).unwrap();
        let b = AdmmSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
        assert_eq!(a.trace.final_rmse(), b.trace.final_rmse());
    }
}
