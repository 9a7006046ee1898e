//! The streaming solver: delta application + warm re-solves.

use crate::delta::{DeltaBatch, StreamError};
use distenc_core::{AdmmConfig, AdmmSolver, CompletionResult, DisTenC, ResidualHandoff};
use distenc_graph::Laplacian;
use distenc_linalg::Mat;
use distenc_tensor::{CooTensor, KruskalTensor};

/// Seed for the rows appended to a factor when mode `mode` grows past
/// `old_rows` indices. Deterministic in `(base, mode, old_rows)` so a
/// replayed delta sequence reproduces the exact same model regardless of
/// how the sequence is batched — the same Fibonacci-hash mixing the
/// kernels use elsewhere for decorrelating per-mode streams.
fn growth_seed(base: u64, mode: usize, old_rows: usize) -> u64 {
    base.wrapping_add(
        0x9E37_79B9_7F4A_7C15u64.wrapping_mul(((mode as u64) << 32) ^ (old_rows as u64) ^ 1),
    )
}

/// Streaming tensor completion: owns the evolving observation set, the
/// current model, and the residual hand-off between solves.
///
/// Lifecycle:
///
/// ```text
/// new(T₀) ── solve() ──▶ model₀            (cold)
///    apply(Δ₁)… apply(Δₖ)                  (incremental fold-in)
///    solve() ──▶ model₁                    (warm: factors + residual)
///    apply(Δ…), solve() ──▶ model₂ …
/// ```
///
/// * `apply` folds a [`DeltaBatch`] into the observed tensor **and** the
///   carried residual in one pass over the delta (plus a linear merge for
///   inserts): each touched cell's residual becomes `t − [[model…]](i)`,
///   computed with the same fold the solver's refresh kernels use, so the
///   carried residual stays bit-identical to a from-scratch rebuild.
/// * `solve` warm-starts ADMM from the previous factors and the carried
///   residual under the configured convergence budget
///   ([`StreamingSolver::set_budget`]). New slice indices get seeded
///   random rows (deterministic in the config seed, the mode, and the
///   pre-growth dimension — see the module source) so replays reproduce.
/// * Validation is atomic: a rejected batch leaves the solver untouched.
///
/// The host backend is used by `solve`; [`StreamingSolver::solve_distributed`]
/// runs the same warm-factor restart on a [`DisTenC`] cluster (the blocked
/// residual is rebuilt there — blocks live on remote machines, so there is
/// no hand-off to carry).
#[derive(Debug)]
pub struct StreamingSolver {
    cfg: AdmmConfig,
    solver: AdmmSolver,
    laplacians: Vec<Option<Laplacian>>,
    observed: CooTensor,
    model: Option<KruskalTensor>,
    carry: Option<ResidualHandoff>,
    generation: u64,
}

impl StreamingSolver {
    /// Create a streaming solver over an initial observation set.
    /// `laplacians[n]` is mode `n`'s optional similarity Laplacian; modes
    /// with one cannot grow (see [`StreamError::GrowthWithAux`]).
    pub fn new(
        mut observed: CooTensor,
        laplacians: Vec<Option<Laplacian>>,
        cfg: AdmmConfig,
    ) -> crate::Result<Self> {
        if laplacians.len() != observed.order() {
            return Err(StreamError::BadBatch(format!(
                "{} Laplacians for an order-{} tensor",
                laplacians.len(),
                observed.order()
            )));
        }
        let solver = AdmmSolver::new(cfg.clone())?;
        observed.sort_dedup();
        Ok(StreamingSolver {
            cfg,
            solver,
            laplacians,
            observed,
            model: None,
            carry: None,
            generation: 0,
        })
    }

    /// The current observation set.
    pub fn observed(&self) -> &CooTensor {
        &self.observed
    }

    /// The most recently solved model, if any.
    pub fn model(&self) -> Option<&KruskalTensor> {
        self.model.as_ref()
    }

    /// How many solves have completed (the model generation counter the
    /// serve tier tags responses with).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The configuration in use.
    pub fn config(&self) -> &AdmmConfig {
        &self.cfg
    }

    /// Change the convergence budget for subsequent re-solves. Streaming
    /// deployments typically run the initial solve to tight tolerance and
    /// then cap re-solve work per batch.
    pub fn set_budget(&mut self, max_iters: usize, tol: f64) -> crate::Result<()> {
        self.cfg.max_iters = max_iters;
        self.cfg.tol = tol;
        self.solver = AdmmSolver::new(self.cfg.clone())?;
        Ok(())
    }

    /// Fold one validated batch into the observed tensor, the model (new
    /// slice rows), and the carried residual. All-or-nothing: every check
    /// runs before the first mutation, so a rejected batch leaves the
    /// solver exactly as it was.
    pub fn apply(&mut self, batch: &DeltaBatch) -> crate::Result<()> {
        if batch.base_shape() != self.observed.shape() {
            return Err(StreamError::BadBatch(format!(
                "batch built for shape {:?}, tensor is {:?}",
                batch.base_shape(),
                self.observed.shape()
            )));
        }
        for (mode, &g) in batch.growth().iter().enumerate() {
            if g > 0 && self.laplacians[mode].is_some() {
                return Err(StreamError::GrowthWithAux { mode });
            }
        }
        // Resolve every update against the current support, and prove
        // every insert absent, before touching anything.
        let mut update_pos = Vec::with_capacity(batch.updates().len());
        for (idx, _) in batch.updates() {
            match self.observed.position_of(idx) {
                Some(pos) => update_pos.push(pos),
                None => return Err(StreamError::UnobservedUpdate { index: idx.clone() }),
            }
        }
        for (idx, _) in batch.inserts() {
            if self.observed.position_of(idx).is_some() {
                return Err(StreamError::AlreadyObserved { index: idx.clone() });
            }
        }

        // ---- Mutate: grow, update, insert — in that order. -------------
        let new_shape = batch.new_shape();
        if batch.growth().iter().any(|&g| g > 0) {
            self.observed.grow_shape(&new_shape)?;
            if let Some(c) = &mut self.carry {
                c.e.grow_shape(&new_shape)?;
            }
            if let Some(model) = &mut self.model {
                for (mode, &g) in batch.growth().iter().enumerate() {
                    if g == 0 {
                        continue;
                    }
                    let old = &model.factors()[mode];
                    let (old_rows, rank) = (old.rows(), old.cols());
                    let fresh = Mat::random(g, rank, growth_seed(self.cfg.seed, mode, old_rows));
                    let mut data = old.as_slice().to_vec();
                    data.extend_from_slice(fresh.as_slice());
                    model.set_factor(mode, Mat::from_vec(old_rows + g, rank, data))?;
                }
            }
        }
        for ((idx, v), &pos) in batch.updates().iter().zip(&update_pos) {
            self.observed.values_mut()[pos] = *v;
            if let Some(c) = &mut self.carry {
                // The model is present whenever a carry is (solve() set
                // both); keep the residual invariant e = t − [[model]].
                let model = self.model.as_ref().expect("carry without model");
                c.e.values_mut()[pos] = *v - model.eval(idx);
            }
        }
        if !batch.inserts().is_empty() {
            let mut patch = CooTensor::new(new_shape.clone());
            for (idx, v) in batch.inserts() {
                patch.push(idx, *v)?;
            }
            self.observed.merge_sorted(&patch)?;
            if let Some(c) = &mut self.carry {
                let model = self.model.as_ref().expect("carry without model");
                let mut resid = CooTensor::new(new_shape);
                for (idx, v) in batch.inserts() {
                    resid.push(idx, *v - model.eval(idx))?;
                }
                c.e.merge_sorted(&resid)?;
            }
        }
        if batch.is_structural() {
            // The support (or shape) changed: the carried tiled entry
            // orders no longer describe it. Drop them; the next solve
            // rebuilds.
            if let Some(c) = &mut self.carry {
                c.accel.clear();
            }
        }
        Ok(())
    }

    /// Re-solve on the host backend. Cold on the first call; afterwards a
    /// warm restart from the previous factors and the carried residual,
    /// bit-identical to [`AdmmSolver::solve_from`] on the current tensor.
    pub fn solve(&mut self) -> crate::Result<CompletionResult> {
        let laps: Vec<Option<&Laplacian>> = self.laplacians.iter().map(|l| l.as_ref()).collect();
        let (result, handoff) =
            self.solver
                .solve_streamed(&self.observed, &laps, self.model.as_ref(), self.carry.take())?;
        self.model = Some(result.model.clone());
        self.carry = Some(handoff);
        self.generation += 1;
        Ok(result)
    }

    /// Re-solve on a [`DisTenC`] cluster: warm factors, blocked residual
    /// rebuilt on the machines (no hand-off exists across a cluster). The
    /// local carry is cleared — the next host `solve` restarts from the
    /// distributed model with a residual rebuild.
    pub fn solve_distributed(&mut self, distenc: &DisTenC) -> crate::Result<CompletionResult> {
        let laps: Vec<Option<&Laplacian>> = self.laplacians.iter().map(|l| l.as_ref()).collect();
        let result = match &self.model {
            Some(m) => distenc.solve_from(&self.observed, &laps, m)?,
            None => distenc.solve(&self.observed, &laps)?,
        };
        self.model = Some(result.model.clone());
        self.carry = None;
        self.generation += 1;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
        let truth = KruskalTensor::random(shape, rank, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let mut mask = CooTensor::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
            mask.push(&idx, 1.0).unwrap();
        }
        mask.sort_dedup();
        truth.eval_at(&mask).unwrap()
    }

    fn cfg(rank: usize) -> AdmmConfig {
        AdmmConfig { rank, max_iters: 6, tol: 1e-12, ..Default::default() }
    }

    #[test]
    fn apply_rejects_update_of_unobserved_cell() {
        let observed = planted(&[6, 5, 4], 2, 40, 1);
        let mut s = StreamingSolver::new(observed.clone(), vec![None, None, None], cfg(2)).unwrap();
        // Find a cell that is NOT observed.
        let mut idx = vec![0, 0, 0];
        while observed.position_of(&idx).is_some() {
            idx[2] += 1;
        }
        let b = DeltaBatch::try_new(&[6, 5, 4], &[0, 0, 0], vec![], vec![(idx.clone(), 1.0)])
            .unwrap();
        assert_eq!(s.apply(&b).unwrap_err(), StreamError::UnobservedUpdate { index: idx });
    }

    #[test]
    fn apply_rejects_insert_of_observed_cell() {
        let observed = planted(&[6, 5, 4], 2, 40, 2);
        let existing = observed.index(0).to_vec();
        let mut s = StreamingSolver::new(observed, vec![None, None, None], cfg(2)).unwrap();
        let b = DeltaBatch::try_new(&[6, 5, 4], &[0, 0, 0], vec![(existing.clone(), 1.0)], vec![])
            .unwrap();
        assert_eq!(s.apply(&b).unwrap_err(), StreamError::AlreadyObserved { index: existing });
        // Atomicity: the rejected batch left the tensor untouched.
        assert_eq!(s.observed().shape(), &[6, 5, 4]);
    }

    #[test]
    fn apply_rejects_growth_on_a_mode_with_aux_info() {
        use distenc_graph::builders::tridiagonal_chain;
        let observed = planted(&[6, 5, 4], 2, 40, 3);
        let lap = Laplacian::from_similarity(tridiagonal_chain(5));
        let mut s =
            StreamingSolver::new(observed, vec![None, Some(lap), None], cfg(2)).unwrap();
        let b = DeltaBatch::try_new(&[6, 5, 4], &[0, 1, 0], vec![], vec![]).unwrap();
        assert_eq!(s.apply(&b).unwrap_err(), StreamError::GrowthWithAux { mode: 1 });
    }

    #[test]
    fn apply_rejects_shape_mismatch() {
        let observed = planted(&[6, 5, 4], 2, 40, 4);
        let mut s = StreamingSolver::new(observed, vec![None, None, None], cfg(2)).unwrap();
        let b = DeltaBatch::try_new(&[7, 5, 4], &[0, 0, 0], vec![], vec![]).unwrap();
        assert!(matches!(s.apply(&b).unwrap_err(), StreamError::BadBatch(_)));
    }

    #[test]
    fn warm_resolve_is_bit_identical_to_solve_from() {
        let observed = planted(&[8, 7, 6], 2, 120, 5);
        let mut s = StreamingSolver::new(observed, vec![None, None, None], cfg(2)).unwrap();
        let first = s.solve().unwrap();

        // A mixed batch: one growth mode, inserts (one in the grown
        // slice), one value update.
        let upd = s.observed().index(3).to_vec();
        let mut ins = vec![(vec![8, 0, 0], 0.7)];
        let mut probe = vec![0, 0, 0];
        while s.observed().position_of(&probe).is_some() {
            probe[1] += 1;
        }
        ins.push((probe, 0.3));
        let b = DeltaBatch::try_new(&[8, 7, 6], &[1, 0, 0], ins, vec![(upd, -0.2)]).unwrap();
        s.apply(&b).unwrap();

        // Oracle: solve_from on the final tensor with the grown model.
        let oracle = AdmmSolver::new(cfg(2).clone())
            .unwrap()
            .solve_from(s.observed(), &[None, None, None], s.model().unwrap())
            .unwrap();
        let warm = s.solve().unwrap();
        assert_eq!(warm.iterations, oracle.iterations);
        for (a, b) in warm.model.factors().iter().zip(oracle.model.factors()) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "warm solve must be bit-exact");
            }
        }
        assert_eq!(s.generation(), 2);
        let _ = first;
    }

    #[test]
    fn growth_rows_are_deterministic() {
        let observed = planted(&[6, 5, 4], 2, 60, 6);
        let run = || {
            let mut s =
                StreamingSolver::new(observed.clone(), vec![None, None, None], cfg(2)).unwrap();
            s.solve().unwrap();
            let b =
                DeltaBatch::try_new(&[6, 5, 4], &[2, 0, 0], vec![(vec![7, 1, 1], 1.0)], vec![])
                    .unwrap();
            s.apply(&b).unwrap();
            s.model().unwrap().factors()[0].as_slice().to_vec()
        };
        assert_eq!(run(), run());
    }
}
