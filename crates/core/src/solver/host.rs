//! The single-machine [`StepBackend`]: thread-blocked kernels on a
//! [`distenc_dataflow::Executor`], no accounting.
//!
//! All storage-dependent work goes through the residual's
//! [`TensorLayout`] — this backend never inspects which layout (tiled or
//! COO) is in play; it sizes one [`LayoutWorkspace`] at
//! construction and hands every kernel call to the layout's dispatch
//! point. The steady state allocates nothing on the calling thread (the
//! threaded executor hands work to its resident pool through an unboxed
//! index broadcast; the sequential path is a plain loop).
//!
//! With fusion enabled this backend implements the N-pass schedule: the
//! end-of-iteration [`StepBackend::fused_step`] refreshes the residual,
//! reduces `‖E‖²_F`, and precomputes the next iteration's mode-0 MTTKRP
//! into the `h0` stash in one sweep over the nonzeros; the next
//! [`StepBackend::sparse_mttkrp`] call for mode 0 serves the stash
//! instead of sweeping again. The tiled layout's fused kernel is
//! bit-identical to the separate sweeps it replaces (and COO simply runs
//! them; `distenc_tensor::layout` pins both), so the solver's iterates —
//! and the golden traces — are unchanged.

use super::{ResidualStore, StepBackend};
use crate::Result;
use distenc_dataflow::Executor;
use distenc_linalg::Mat;
use distenc_tensor::residual::ResidualWorkspace;
use distenc_tensor::{CooTensor, KruskalTensor, LayoutWorkspace, TensorLayout};

/// Host backend: Algorithm 2 greedy thread blocking for the MTTKRP,
/// even-chunked residual refresh, plain Grams, wall-clock trace stamps.
pub(crate) struct HostBackend<C> {
    exec: Executor,
    /// The layout's per-mode sweep workspace (tile partitions for tiled,
    /// buckets for COO).
    lw: LayoutWorkspace,
    res: ResidualWorkspace,
    /// Fuse the residual refresh with the next mode-0 MTTKRP
    /// ([`crate::AdmmConfig::fused`]).
    fused: bool,
    /// Stashed `E₍₀₎U⁽⁰⁾` (`I₀×R`) banked by the fused sweep for the next
    /// iteration's mode-0 [`StepBackend::sparse_mttkrp`].
    h0: Mat,
    /// Whether `h0` holds a live stash for the upcoming mode-0 call.
    h0_ready: bool,
    clock: C,
}

impl<C: Fn(usize) -> f64> HostBackend<C> {
    /// Size the layout workspace for every mode over `boundaries` at rank
    /// `rank`, chunk the residual refresh for `exec`, and stamp trace
    /// points with `clock`.
    pub fn new(
        layout: &TensorLayout,
        boundaries: &[Vec<usize>],
        rank: usize,
        exec: Executor,
        fused: bool,
        clock: C,
    ) -> Result<Self> {
        let lw = layout.workspace(rank, boundaries, &exec)?;
        let res = ResidualWorkspace::new(layout.nnz(), &exec);
        let h0 = Mat::zeros(layout.entries().shape()[0], rank);
        Ok(HostBackend { exec, lw, res, fused, h0, h0_ready: false, clock })
    }
}

impl<C: Fn(usize) -> f64> StepBackend for HostBackend<C> {
    fn sparse_mttkrp(
        &mut self,
        residual: &ResidualStore,
        model: &KruskalTensor,
        mode: usize,
        out: &mut Mat,
    ) -> Result<()> {
        if mode == 0 && self.h0_ready {
            // The fused sweep already computed this against the very same
            // factors (no swap happens between the refresh and this call);
            // serving the stash saves the whole pass.
            self.h0_ready = false;
            out.as_mut_slice().copy_from_slice(self.h0.as_slice());
            return Ok(());
        }
        residual
            .host()?
            .mttkrp_into(model.factors(), mode, &mut self.lw, &self.exec, out)?;
        Ok(())
    }

    fn refresh_gram(&mut self, factor: &Mat, _mode: usize, out: &mut Mat) -> Result<()> {
        factor.gram_into(out)?;
        Ok(())
    }

    fn refresh_residual(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        residual: &mut ResidualStore,
    ) -> Result<()> {
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
        if !(self.fused && fuse_next) {
            // Nothing to bank (ablation switch off, or no next iteration):
            // the plain refresh does one pass without the MTTKRP flops.
            self.refresh_residual(observed, model, residual)?;
            return Ok(residual.frob_norm_sq());
        }
        let frob = residual.host_mut()?.fused_refresh_into(
            observed,
            model,
            &mut self.lw,
            &self.exec,
            &mut self.h0,
        )?;
        self.h0_ready = true;
        Ok(frob)
    }

    fn clock(&self, iter: usize) -> f64 {
        (self.clock)(iter)
    }
}
