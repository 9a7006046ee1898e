//! The sampled (sketched) [`StepBackend`]: statistical MTTKRP estimates
//! from a norm-proportional entry sample, in the spirit of randomized
//! sparse CP decomposition (Bharadwaj et al., arXiv 2210.05105).
//!
//! **Estimator.** For an output mode `n`, the exact sparse MTTKRP is
//! `Σ_i e_i · ⊛_{k≠n} A⁽ᵏ⁾(i_k,:)` over all `nnz` residual entries. The
//! sketched step draws `S` entry positions i.i.d. from a fixed
//! importance distribution `p` ([`EntrySampler`]) and accumulates the
//! importance-weighted partial sum `(1/S) Σ_s (e_s / p_s) · ⊛rows` — an
//! unbiased estimator whose variance the sampler's uniform floor keeps
//! finite. The residual value `e_s` is *recomputed from the model at
//! draw time* (`e = t − [[A…]](idx)`, via the same partial Hadamard
//! product completed with the skipped row), so the backend never needs
//! the `O(nnz)` residual refresh during the sketch phase: the residual
//! store's values stay stale until the phase's final exact refresh.
//!
//! **Pass economics.** One sketched iteration of an order-N tensor
//! touches exactly `N·S` entries: `N−1` sampled MTTKRPs of `S` draws for
//! modes `1..N`, plus one `S`-draw fused sweep ([`StepBackend::fused_step`])
//! that estimates `‖E‖²_F` and banks the next iteration's mode-0 MTTKRP
//! estimate from the same draws — mirroring the exact backend's N-pass
//! fusion. The exact tier touches `N·nnz`; `tests/pass_count.rs` pins the
//! ratio through the entry-touch instrument
//! ([`distenc_dataflow::passes::entries_touched`]). Sampled gathers are
//! charged as entry touches but *not* as sweeps — they never traverse
//! the full nonzero list.
//!
//! **Determinism.** All sampled computation runs sequentially on the
//! driver thread; the RNG is seeded from the config seed and consumed in
//! a fixed order ([`EntrySampler::draw_into`]). The executor is only used
//! for the end-of-phase exact refresh, which is bit-exact under any
//! chunking — so the whole sketched schedule is bit-identical across
//! `DISTENC_THREADS` settings (`tests/sketched_equivalence.rs` and the
//! sketched golden trace pin this).
//!
//! **Hand-off invariant.** When [`StepBackend::fused_step`] is called
//! with `fuse_next = false` (final or converged iteration), this backend
//! performs a *full exact* residual refresh and returns the exact
//! `‖E‖²_F`, so the residual values leaving the sketch phase satisfy the
//! [`crate::ResidualHandoff`] invariant (`e = Ω∗(T − [[model…]])`) and
//! the exact polish phase warm-starts without a prologue rebuild.

use super::{ResidualStore, StepBackend};
use crate::Result;
use distenc_dataflow::Executor;
use distenc_linalg::sketch::{hadamard_rows_skip_into, SketchScratch};
use distenc_linalg::vec_ops::dot;
use distenc_linalg::Mat;
use distenc_tensor::residual::ResidualWorkspace;
use distenc_tensor::sample::EntrySampler;
use distenc_tensor::{CooTensor, KruskalTensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stream-separation constant XORed into the config seed so the sampler
/// never shares an RNG stream with the factor initialization (which uses
/// the raw seed).
const SAMPLER_STREAM: u64 = 0x5ce7_c4ed_9b1f_a301;

/// Sketched backend: sampled MTTKRP / norm estimates during the sketch
/// phase, exact residual refresh only at phase exit.
pub(crate) struct SketchedBackend<'t, C> {
    /// The observed tensor — sampled entries read `t_i` (and indices)
    /// directly from it; the residual value is recomputed per draw.
    observed: &'t CooTensor,
    /// Fixed norm-proportional importance distribution over `observed`.
    sampler: EntrySampler,
    /// Driver-thread RNG, consumed sequentially (one `f64` per draw).
    rng: StdRng,
    /// Draws per sampled kernel invocation.
    samples: usize,
    /// Reused draw buffer (entry positions into `observed`).
    draws: Vec<usize>,
    /// Reused `R`-vector for the partial Hadamard row product.
    scratch: SketchScratch,
    /// Executor for the end-of-phase exact refresh only.
    exec: Executor,
    res: ResidualWorkspace,
    /// Stashed sampled mode-0 MTTKRP estimate banked by the fused sweep.
    h0: Mat,
    h0_ready: bool,
    clock: C,
}

impl<'t, C: Fn(usize) -> f64> SketchedBackend<'t, C> {
    /// Build the sampler over `observed`, seed the draw stream from
    /// `seed`, and size all scratch for `samples` draws at rank `rank`.
    pub fn new(
        observed: &'t CooTensor,
        samples: usize,
        rank: usize,
        exec: Executor,
        seed: u64,
        clock: C,
    ) -> Result<Self> {
        let sampler = EntrySampler::norm_proportional(observed)?;
        let res = ResidualWorkspace::new(observed.nnz(), &exec);
        let h0 = Mat::zeros(observed.shape()[0], rank);
        Ok(SketchedBackend {
            observed,
            sampler,
            rng: StdRng::seed_from_u64(seed ^ SAMPLER_STREAM),
            samples,
            draws: Vec::with_capacity(samples),
            scratch: SketchScratch::new(rank),
            exec,
            res,
            h0,
            h0_ready: false,
            clock,
        })
    }

    /// Draw the next sample set into the reusable buffer and charge the
    /// entry-touch instrument (a gather, not a sweep).
    fn draw(&mut self) {
        self.sampler.draw_into(&mut self.rng, self.samples, &mut self.draws);
        crate::record_entry_gather(self.draws.len());
    }
}

impl<'t, C: Fn(usize) -> f64> StepBackend for SketchedBackend<'t, C> {
    fn sparse_mttkrp(
        &mut self,
        _residual: &ResidualStore,
        model: &KruskalTensor,
        mode: usize,
        out: &mut Mat,
    ) -> Result<()> {
        if mode == 0 && self.h0_ready {
            // The fused sweep already estimated this against the very
            // same (post-swap) factors; serving the stash keeps the
            // iteration at N·S touches.
            self.h0_ready = false;
            out.as_mut_slice().copy_from_slice(self.h0.as_slice());
            return Ok(());
        }
        self.draw();
        out.fill(0.0);
        let inv_s = 1.0 / self.samples as f64;
        for &pos in &self.draws {
            let idx = self.observed.index(pos);
            // e = t − [[A…]](idx); the model evaluation completes the
            // partial Hadamard product with the skipped mode's row.
            hadamard_rows_skip_into(model.factors(), mode, idx, &mut self.scratch.had)?;
            let pred = dot(&self.scratch.had, model.factors()[mode].row(idx[mode]));
            let e = self.observed.value(pos) - pred;
            let w = e * inv_s / self.sampler.prob(pos);
            let row = out.row_mut(idx[mode]);
            for (o, &h) in row.iter_mut().zip(self.scratch.had.iter()) {
                *o += w * h;
            }
        }
        Ok(())
    }

    fn refresh_gram(&mut self, factor: &Mat, _mode: usize, out: &mut Mat) -> Result<()> {
        // Grams are O(Iₙ·R²), independent of nnz — always exact.
        factor.gram_into(out)?;
        Ok(())
    }

    fn refresh_residual(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        residual: &mut ResidualStore,
    ) -> Result<()> {
        // The one exact kernel this backend runs — dispatched through the
        // layout like the host backend's.
        residual
            .host_mut()?
            .refresh_values(observed, model, &mut self.res, &self.exec)?;
        Ok(())
    }

    fn fused_step(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        residual: &mut ResidualStore,
        fuse_next: bool,
    ) -> Result<f64> {
        if !fuse_next {
            // Final (or converged) iteration of the sketch phase: restore
            // the hand-off invariant with one exact refresh so the polish
            // phase — or a streaming carry — starts from fresh values.
            self.h0_ready = false;
            self.refresh_residual(observed, model, residual)?;
            return Ok(residual.frob_norm_sq());
        }
        // One S-draw sweep estimates ‖E‖²_F = Σ e² (importance-weighted)
        // and banks the mode-0 MTTKRP estimate from the same draws — the
        // sampled analogue of the exact backend's fused pass.
        self.draw();
        self.h0.fill(0.0);
        let inv_s = 1.0 / self.samples as f64;
        let mut frob = 0.0;
        for &pos in &self.draws {
            let idx = self.observed.index(pos);
            hadamard_rows_skip_into(model.factors(), 0, idx, &mut self.scratch.had)?;
            let pred = dot(&self.scratch.had, model.factors()[0].row(idx[0]));
            let e = self.observed.value(pos) - pred;
            let p = self.sampler.prob(pos);
            frob += e * e / p;
            let w = e * inv_s / p;
            let row = self.h0.row_mut(idx[0]);
            for (o, &h) in row.iter_mut().zip(self.scratch.had.iter()) {
                *o += w * h;
            }
        }
        self.h0_ready = true;
        Ok(frob * inv_s)
    }

    fn clock(&self, iter: usize) -> f64 {
        (self.clock)(iter)
    }
}
