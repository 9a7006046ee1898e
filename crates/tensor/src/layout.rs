//! Storage layouts behind one dispatch point: [`TensorLayout`].
//!
//! The solver's residual tensor `E = Ω∗(T − [[A…]])` is traversed by
//! three kernels every iteration — per-mode MTTKRP, the fused
//! refresh+MTTKRP sweep, and the residual value refresh. A
//! [`TensorLayout`] wraps the residual entries plus the layout's
//! acceleration structure and exposes those kernels; callers never match
//! on concrete storage.
//!
//! Two layouts exist:
//!
//! * [`LayoutKind::Tiled`] — **the production default.** Per mode,
//!   entries are stably counting-sorted into tiles of [`TILE_ROWS`]
//!   consecutive output rows (the per-tile `H` slab stays L1-resident)
//!   with indices and entry positions packed as `u32`, and the sweep runs
//!   an explicit 4-entry-interleaved, 4-way-unrolled kernel. It owns the
//!   only fused refresh+MTTKRP kernel. **Bit-identical to COO at every
//!   thread count** — see below.
//! * [`LayoutKind::Coo`] — the flat entry list, swept in file order
//!   through the blocked kernel of [`crate::mttkrp`]. It is the
//!   reference the tiled kernels are gated against; its "fused" sweep is
//!   the unfused sequence (refresh, then mode-0 MTTKRP, then `‖E‖²_F`),
//!   so it costs one extra pass per iteration.
//!
//! # Why the tiled layout is bit-exact
//!
//! Every number the COO kernels produce is a left fold in a pinned
//! order; the tiled kernels reproduce each fold's exact operation
//! sequence:
//!
//! * **Per-output-row MTTKRP chains.** A mode-`n` tile contains *whole*
//!   output rows (`tile = row / TILE_ROWS`), and the counting sort is
//!   stable, so within a tile — and hence within a row — entries keep
//!   their original order. Every `H` row therefore sums its
//!   contributions in exactly the sequential COO order, for any tile
//!   size and any partitioning of tiles across threads.
//! * **Per-entry scratch chains.** Each entry's contribution is built by
//!   the same sequence: broadcast the value, Hadamard-multiply the
//!   non-`mode` factor rows in ascending mode order. The 4-way lane
//!   unroll only regroups *independent* elementwise lanes; each lane's
//!   chain is unchanged.
//! * **The fused eval fold.** [`KruskalTensor::eval`] computes
//!   `Σᵣ Πₖ A⁽ᵏ⁾(iₖ,r)` with `r` outer and `k` inner. The tiled kernel
//!   restructures this as: per-lane products with `k` outer (each lane
//!   `r` multiplies the same factors in the same ascending order — the
//!   identical chain), then one scalar sum over `r` ascending (the
//!   identical chain). Processing 4 entries per step gives 4 independent
//!   accumulator chains, hiding the serial-add latency that dominates
//!   the one-entry-at-a-time sweep — without touching any single chain.
//!   The MTTKRP contribution then starts a *separate* fold from the
//!   fresh value, exactly like a plain MTTKRP of the refreshed residual.
//! * **`‖E‖²_F`** is folded flat over the residual values in entry order
//!   after the tile-order results are scattered back — the same chain as
//!   [`CooTensor::frob_norm_sq`].
//!
//! `tests/layout_equivalence.rs` pins COO↔tiled bit-identity of whole
//! solves (factors, RMSE, trace) at `DISTENC_THREADS=1` and `=4`.
//!
//! # Selection
//!
//! The solver resolves its layout with precedence **config > CLI >
//! env**: an explicit `AdmmConfig::layout`, else the `--layout
//! coo|tiled` CLI flag (which sets the config field), else the
//! [`LAYOUT_ENV`] environment variable, else [`LayoutKind::Tiled`].
//! Invalid names are typed errors, never silent fallbacks.

use crate::coo::CooTensor;
use crate::kruskal::KruskalTensor;
use crate::mttkrp::{mttkrp_blocked_into, validate, MttkrpWorkspace};
use crate::residual::{residual_refresh_exec, ResidualWorkspace};
use crate::{Result, TensorError};
use distenc_dataflow::Executor;
use distenc_linalg::Mat;

/// Environment variable naming the layout (`coo` or `tiled`) when
/// neither the config nor the CLI picks one.
pub const LAYOUT_ENV: &str = "DISTENC_LAYOUT";

/// Output rows per tile. 16 rows × rank 16 × 8 bytes = 2 KiB per slab
/// tile — comfortably L1-resident. The value is a pure performance knob:
/// the stable tile sort preserves per-row entry order for *any* tile
/// size, so changing it never changes a bit (see the module docs).
const TILE_ROWS: usize = 16;

/// The storage layouts a [`TensorLayout`] can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutKind {
    /// Flat COO entry list (the bit-exactness reference).
    Coo,
    /// Cache-blocked tile order with widened kernels and the fused sweep
    /// (the production default; bit-identical to COO).
    Tiled,
}

impl LayoutKind {
    /// Parse a layout name. Unknown names are a typed
    /// [`TensorError::InvalidLayout`] — selection must never fall back
    /// silently.
    pub fn parse(s: &str) -> Result<LayoutKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "coo" => Ok(LayoutKind::Coo),
            "tiled" => Ok(LayoutKind::Tiled),
            _ => Err(TensorError::InvalidLayout(s.to_string())),
        }
    }

    /// The layout requested by the [`LAYOUT_ENV`] environment variable:
    /// `Ok(None)` when unset, a typed error when set to an unknown name.
    pub fn from_env() -> Result<Option<LayoutKind>> {
        match std::env::var(LAYOUT_ENV) {
            Ok(v) => LayoutKind::parse(&v).map(Some),
            Err(_) => Ok(None),
        }
    }
}

impl std::fmt::Display for LayoutKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LayoutKind::Coo => "coo",
            LayoutKind::Tiled => "tiled",
        })
    }
}

impl std::str::FromStr for LayoutKind {
    type Err = TensorError;

    fn from_str(s: &str) -> Result<LayoutKind> {
        LayoutKind::parse(s)
    }
}

/// One mode's tiled entry order: entry positions stably sorted by output
/// tile (`row / TILE_ROWS`), the per-tile entry ranges, and all index
/// tuples packed as `u32` in tile order so the sweep streams one
/// contiguous array instead of strided `usize` gathers.
///
/// The structure depends only on the observed *support*, never on the
/// values, so it is reusable across re-solves on an unchanged support.
#[derive(Debug, Clone)]
pub(crate) struct TiledMode {
    /// Tile `t` owns tile-order positions `tile_ptr[t]..tile_ptr[t+1]`
    /// (and output rows `t*TILE_ROWS..min((t+1)*TILE_ROWS, dim)`).
    tile_ptr: Vec<usize>,
    /// Tile-order position → original entry position.
    perm: Vec<u32>,
    /// Packed index tuples in tile order: entry `j`'s tuple is
    /// `idx[j*order..(j+1)*order]`.
    idx: Vec<u32>,
    /// The mode's dimension.
    dim: usize,
    /// Entries covered (must match the residual's support).
    nnz: usize,
}

/// The tiled layout packs indices and entry positions as `u32`: a
/// dimension or an entry count beyond that range is a typed error.
fn check_packable(shape: &[usize], nnz: usize) -> Result<()> {
    const MAX: usize = u32::MAX as usize;
    if let Some(&d) = shape.iter().find(|&&d| d > MAX) {
        return Err(TensorError::ShapeMismatch(format!(
            "tiled layout packs indices as u32; dimension {d} exceeds {MAX}"
        )));
    }
    if nnz > MAX {
        return Err(TensorError::ShapeMismatch(format!(
            "tiled layout packs entry positions as u32; nnz {nnz} exceeds {MAX}"
        )));
    }
    Ok(())
}

impl TiledMode {
    /// Lay out `e`'s entries in mode-`mode` tile order. A forward-scan
    /// counting sort — stable, so per-row entry order is preserved (the
    /// bit-exactness invariant).
    fn build(e: &CooTensor, mode: usize) -> Result<Self> {
        check_packable(e.shape(), e.nnz())?;
        let order = e.order();
        let dim = e.shape()[mode];
        let nnz = e.nnz();
        let n_tiles = dim.div_ceil(TILE_ROWS);
        let mut counts = vec![0usize; n_tiles];
        for pos in 0..nnz {
            counts[e.index(pos)[mode] / TILE_ROWS] += 1;
        }
        let mut tile_ptr = Vec::with_capacity(n_tiles + 1);
        let mut acc = 0usize;
        tile_ptr.push(0);
        for &c in &counts {
            acc += c;
            tile_ptr.push(acc);
        }
        let mut cursor = tile_ptr.clone();
        let mut perm = vec![0u32; nnz];
        for pos in 0..nnz {
            let t = e.index(pos)[mode] / TILE_ROWS;
            perm[cursor[t]] = pos as u32;
            cursor[t] += 1;
        }
        let mut idx = Vec::with_capacity(nnz * order);
        for &pos in &perm {
            for &i in e.index(pos as usize) {
                idx.push(i as u32);
            }
        }
        Ok(TiledMode { tile_ptr, perm, idx, dim, nnz })
    }
}

/// Layout acceleration structure carried between consecutive solves on
/// an unchanged support (inside `ResidualHandoff`): the tiled entry
/// orders. They depend only on the support, so the streaming layer
/// clears them on structural deltas and the next solve rebuilds.
#[derive(Debug, Clone, Default)]
pub struct LayoutAccel {
    tiled: Vec<TiledMode>,
}

impl LayoutAccel {
    /// Drop every carried structure (support changed — rebuild at the
    /// next solve).
    pub fn clear(&mut self) {
        self.tiled.clear();
    }

    /// Whether any structure is carried.
    pub fn is_empty(&self) -> bool {
        self.tiled.is_empty()
    }
}

/// The residual tensor in a selected storage layout — the one dispatch
/// point for storage-dependent kernels. Owns the entry list (values in
/// original entry order, shared with the observed support) plus the
/// layout's acceleration structure.
#[derive(Debug, Clone)]
pub struct TensorLayout {
    kind: LayoutKind,
    e: CooTensor,
    /// One tile order per mode (empty for COO).
    tiled: Vec<TiledMode>,
}

impl TensorLayout {
    /// Wrap `e` in layout `kind`, building the acceleration structure
    /// from scratch.
    pub fn build(e: CooTensor, kind: LayoutKind) -> Result<Self> {
        Self::build_with(e, kind, LayoutAccel::default())
    }

    /// Wrap `e` in layout `kind`, reusing carried acceleration structure
    /// when it still matches the support (same mode count, same nnz —
    /// the caller is responsible for support identity, as with the
    /// residual hand-off itself). Tiled orders are value-free, so reuse
    /// needs no value re-scatter.
    pub fn build_with(e: CooTensor, kind: LayoutKind, accel: LayoutAccel) -> Result<Self> {
        let n_modes = e.order();
        let carried = accel.tiled;
        let tiled: Vec<TiledMode> = match kind {
            LayoutKind::Coo => Vec::new(),
            LayoutKind::Tiled
                if carried.len() == n_modes && carried.iter().all(|t| t.nnz == e.nnz()) =>
            {
                carried
            }
            LayoutKind::Tiled => {
                (0..n_modes).map(|n| TiledMode::build(&e, n)).collect::<Result<_>>()?
            }
        };
        Ok(TensorLayout { kind, e, tiled })
    }

    /// The layout in use.
    pub fn kind(&self) -> LayoutKind {
        self.kind
    }

    /// The residual entries (values in original entry order).
    pub fn entries(&self) -> &CooTensor {
        &self.e
    }

    /// Residual values in entry order.
    pub fn values(&self) -> &[f64] {
        self.e.values()
    }

    /// Stored entry count.
    pub fn nnz(&self) -> usize {
        self.e.nnz()
    }

    /// `‖E‖²_F` — the flat entry-order fold, identical for every layout.
    pub fn frob_norm_sq(&self) -> f64 {
        self.e.frob_norm_sq()
    }

    /// Split back into the entry list and the reusable acceleration
    /// structure (for the residual hand-off).
    pub fn into_parts(self) -> (CooTensor, LayoutAccel) {
        (self.e, LayoutAccel { tiled: self.tiled })
    }

    /// Build the per-mode sweep workspace this layout's kernels need:
    /// blocked MTTKRP buckets over the Algorithm-2 `boundaries` plus
    /// residual-refresh chunks for COO, per-mode tile partitions sized to
    /// [`Executor::parallelism`] for tiled (which ignores `boundaries`).
    pub fn workspace(
        &self,
        rank: usize,
        boundaries: &[Vec<usize>],
        exec: &Executor,
    ) -> Result<LayoutWorkspace> {
        let sweeps = match self.kind {
            LayoutKind::Coo => {
                if boundaries.len() != self.e.order() {
                    return Err(TensorError::ShapeMismatch(format!(
                        "{} boundary sets for an order-{} tensor",
                        boundaries.len(),
                        self.e.order()
                    )));
                }
                let mtt = boundaries
                    .iter()
                    .enumerate()
                    .map(|(n, b)| MttkrpWorkspace::new(&self.e, n, b, rank))
                    .collect::<Result<_>>()?;
                Sweeps::Coo { mtt, res: ResidualWorkspace::new(self.e.nnz(), exec) }
            }
            LayoutKind::Tiled => Sweeps::Tiled(
                self.tiled
                    .iter()
                    .map(|tm| TiledModeWs::new(tm, rank, exec.parallelism()))
                    .collect(),
            ),
        };
        Ok(LayoutWorkspace(sweeps))
    }

    /// Mode-`mode` MTTKRP of the residual against `factors`, written
    /// into `h`. One entry sweep; allocation-free in steady state.
    pub fn mttkrp_into(
        &self,
        factors: &[Mat],
        mode: usize,
        lw: &mut LayoutWorkspace,
        exec: &Executor,
        h: &mut Mat,
    ) -> Result<()> {
        validate(&self.e, factors, mode)?;
        match (self.kind, &mut lw.0) {
            (LayoutKind::Coo, Sweeps::Coo { mtt, .. }) => {
                mttkrp_blocked_into(&self.e, factors, &mut mtt[mode], exec, h)
            }
            (LayoutKind::Tiled, Sweeps::Tiled(ws)) => {
                self.tiled_mttkrp(factors, mode, &mut ws[mode], exec, h)
            }
            _ => Err(workspace_mismatch(self.kind)),
        }
    }

    /// Refresh the residual values to `Ω∗(T − [[model…]])` (no MTTKRP).
    /// The tile orders carry no values, so nothing else needs syncing.
    pub fn refresh_values(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        ws: &mut ResidualWorkspace,
        exec: &Executor,
    ) -> Result<()> {
        residual_refresh_exec(observed, model, &mut self.e, ws, exec)
    }

    /// Residual refresh + mode-0 MTTKRP: refreshes the residual values in
    /// place, overwrites `h` with `E₍₀₎U⁽⁰⁾` against the fresh values,
    /// and returns `‖E‖²_F` — bit-wise the numbers of
    /// [`Self::refresh_values`] + [`Self::mttkrp_into`] +
    /// [`Self::frob_norm_sq`]. The tiled layout does it in one fused entry
    /// sweep; COO runs exactly that unfused sequence (two sweeps).
    pub fn fused_refresh_into(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        lw: &mut LayoutWorkspace,
        exec: &Executor,
        h: &mut Mat,
    ) -> Result<f64> {
        match (self.kind, &mut lw.0) {
            (LayoutKind::Coo, Sweeps::Coo { res, .. }) => {
                residual_refresh_exec(observed, model, &mut self.e, res, exec)?;
                self.mttkrp_into(model.factors(), 0, lw, exec, h)?;
                Ok(self.frob_norm_sq())
            }
            (LayoutKind::Tiled, Sweeps::Tiled(ws)) => {
                self.tiled_fused(observed, model, &mut ws[0], exec, h)
            }
            _ => Err(workspace_mismatch(self.kind)),
        }
    }

    /// The tiled blocked MTTKRP: per-part tile-range sweeps into row
    /// slabs, stitched in fixed part order. Values are gathered through
    /// the tile permutation; per-row accumulation order is the original
    /// entry order (see module docs), so the result is bit-identical to
    /// the COO kernels.
    fn tiled_mttkrp(
        &self,
        factors: &[Mat],
        mode: usize,
        ws: &mut TiledModeWs,
        exec: &Executor,
        h: &mut Mat,
    ) -> Result<()> {
        let tm = &self.tiled[mode];
        ws.check(tm, factors[0].cols(), h)?;
        crate::record_entry_sweep(self.e.nnz());
        let cx = TiledCtx { tm, factors, mode, vals: self.e.values() };
        ws.sweep::<false>(cx, exec, h);
        Ok(())
    }

    /// The tiled fused sweep (mode 0): fresh values are computed in tile
    /// order into per-part carriers, scattered back to entry order, and
    /// `‖E‖²` is folded flat afterwards — every chain identical to the
    /// unfused COO sequence's (see the module docs).
    fn tiled_fused(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        ws: &mut TiledModeWs,
        exec: &Executor,
        h: &mut Mat,
    ) -> Result<f64> {
        let factors = model.factors();
        validate(observed, factors, 0)?;
        let TensorLayout { e, tiled, .. } = self;
        if e.nnz() != observed.nnz() || e.shape() != observed.shape() {
            return Err(TensorError::ShapeMismatch(
                "fused refresh requires a residual sharing the observed support".into(),
            ));
        }
        let tm = &tiled[0];
        ws.check(tm, model.rank(), h)?;
        crate::record_entry_sweep(observed.nnz());
        // Observed values in tile order, gathered once per workspace
        // (the support — and hence the order — is fixed within a solve).
        let mut tvals = std::mem::take(&mut ws.tvals);
        if tvals.len() != observed.nnz() {
            tvals.clear();
            tvals.extend(tm.perm.iter().map(|&pos| observed.value(pos as usize)));
        }
        for part in ws.parts.iter_mut() {
            part.vals.resize(part.jhi - part.jlo, 0.0);
        }
        ws.sweep::<true>(TiledCtx { tm, factors, mode: 0, vals: &tvals }, exec, h);
        ws.tvals = tvals;
        let evals = e.values_mut();
        for part in &ws.parts {
            for (off, &v) in part.vals.iter().enumerate() {
                evals[tm.perm[part.jlo + off] as usize] = v;
            }
        }
        Ok(e.values().iter().map(|v| v * v).sum())
    }
}

/// Per-solve sweep state for a [`TensorLayout`]'s kernels, built by
/// [`TensorLayout::workspace`] for that layout. Steady-state kernel calls
/// allocate nothing (the fused value carriers are sized on first use,
/// amortized).
pub struct LayoutWorkspace(Sweeps);

enum Sweeps {
    /// One blocked [`MttkrpWorkspace`] per mode, plus the refresh chunks
    /// for the unfused refresh+MTTKRP sequence.
    Coo { mtt: Vec<MttkrpWorkspace>, res: ResidualWorkspace },
    /// One partitioned tile workspace per mode.
    Tiled(Vec<TiledModeWs>),
}

/// A workspace handed to a layout of another kind.
fn workspace_mismatch(kind: LayoutKind) -> TensorError {
    TensorError::ShapeMismatch(format!("workspace was not built for the {kind} layout"))
}

/// One mode's tiled sweep workspace: contiguous tile ranges partitioned
/// across the executor's parallelism, each with its own output-row slab
/// and 4-lane scratch.
struct TiledModeWs {
    parts: Vec<TiledPart>,
    /// Observed values in tile order (fused sweep only; filled on first
    /// use).
    tvals: Vec<f64>,
}

struct TiledPart {
    /// Tile-order entry range `jlo..jhi`.
    jlo: usize,
    jhi: usize,
    /// First output row owned by this part.
    row_lo: usize,
    slab: Mat,
    /// Four rank-length scratch lanes for the dynamic-rank bodies.
    scratch: Vec<f64>,
    /// Fresh residual values in tile order (fused sweep; sized on first
    /// use).
    vals: Vec<f64>,
}

impl TiledModeWs {
    /// Reject an output or workspace that does not fit mode `tm` at rank
    /// `r`.
    fn check(&self, tm: &TiledMode, r: usize, h: &Mat) -> Result<()> {
        debug_assert_eq!(
            self.parts.last().map_or(0, |p| p.jhi),
            tm.nnz,
            "workspace built for a different tile order"
        );
        if h.shape() != (tm.dim, r) {
            return Err(TensorError::ShapeMismatch(format!(
                "mttkrp output is {:?}, want ({}, {r})",
                h.shape(),
                tm.dim
            )));
        }
        if self.parts.first().is_some_and(|p| p.scratch.len() != 4 * r) {
            return Err(TensorError::ShapeMismatch(format!(
                "tiled workspace is rank {}, factors are rank {r}",
                self.parts[0].scratch.len() / 4
            )));
        }
        Ok(())
    }

    /// Run every part's tile range on `exec`, then stitch the slabs into
    /// `h` in fixed part order.
    fn sweep<const FUSED: bool>(&mut self, cx: TiledCtx<'_>, exec: &Executor, h: &mut Mat) {
        let r = cx.factors[0].cols();
        exec.run_mut(&mut self.parts, |_, part| {
            TiledKernel::<FUSED> { cx, part }.run(r);
        });
        for part in &self.parts {
            h.as_mut_slice()[part.row_lo * r..(part.row_lo + part.slab.rows()) * r]
                .copy_from_slice(part.slab.as_slice());
        }
    }

    fn new(tm: &TiledMode, rank: usize, max_parts: usize) -> Self {
        let parts = partition_tiles(&tm.tile_ptr, max_parts)
            .into_iter()
            .map(|(t0, t1)| {
                let row_lo = t0 * TILE_ROWS;
                let row_hi = (t1 * TILE_ROWS).min(tm.dim);
                TiledPart {
                    jlo: tm.tile_ptr[t0],
                    jhi: tm.tile_ptr[t1],
                    row_lo,
                    slab: Mat::zeros(row_hi - row_lo, rank),
                    scratch: vec![0.0; 4 * rank],
                    vals: Vec::new(),
                }
            })
            .collect();
        TiledModeWs { parts, tvals: Vec::new() }
    }
}

/// Split `0..n_tiles` into at most `max_parts` contiguous,
/// entries-balanced ranges (cuts at the tile boundaries nearest the
/// uniform cumulative-entry targets). The partitioning — like the COO
/// boundaries — is bit-invisible: per-row accumulation order does not
/// depend on it.
fn partition_tiles(tile_ptr: &[usize], max_parts: usize) -> Vec<(usize, usize)> {
    let n_tiles = tile_ptr.len() - 1;
    let nnz = *tile_ptr.last().unwrap_or(&0);
    let parts = max_parts.max(1).min(n_tiles.max(1));
    if parts <= 1 || n_tiles <= 1 {
        return vec![(0, n_tiles)];
    }
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(0usize);
    for p in 1..parts {
        let target = p * nnz / parts;
        let t = tile_ptr
            .partition_point(|&c| c < target)
            .max(cuts[p - 1] + 1)
            .min(n_tiles - (parts - p));
        cuts.push(t);
    }
    cuts.push(n_tiles);
    cuts.windows(2).map(|w| (w[0], w[1])).collect()
}

/// 4-way-unrolled elementwise multiply: `s[i] *= row[i]`. Lanes are
/// independent, so regrouping them is bit-invisible; the explicit unroll
/// autovectorizes.
#[inline(always)]
fn mul_lanes(s: &mut [f64], row: &[f64]) {
    let mut sc = s.chunks_exact_mut(4);
    let mut rc = row.chunks_exact(4);
    for (sv, rv) in (&mut sc).zip(&mut rc) {
        sv[0] *= rv[0];
        sv[1] *= rv[1];
        sv[2] *= rv[2];
        sv[3] *= rv[3];
    }
    for (v, &a) in sc.into_remainder().iter_mut().zip(rc.remainder()) {
        *v *= a;
    }
}

/// 4-way-unrolled elementwise add: `out[i] += s[i]`.
#[inline(always)]
fn add_lanes(out: &mut [f64], s: &[f64]) {
    let mut oc = out.chunks_exact_mut(4);
    let mut sc = s.chunks_exact(4);
    for (ov, sv) in (&mut oc).zip(&mut sc) {
        ov[0] += sv[0];
        ov[1] += sv[1];
        ov[2] += sv[2];
        ov[3] += sv[3];
    }
    for (o, &a) in oc.into_remainder().iter_mut().zip(sc.remainder()) {
        *o += a;
    }
}

/// What one tiled sweep reads: mode `mode`'s tile order, the factors,
/// and the values to scatter — the residual in entry order (gathered
/// through `perm`) for a plain MTTKRP, the observed values in tile order
/// for the fused sweep.
#[derive(Clone, Copy)]
struct TiledCtx<'a> {
    tm: &'a TiledMode,
    factors: &'a [Mat],
    mode: usize,
    vals: &'a [f64],
}

/// Defines one step of the tiled sweep over tile-order entries
/// `j..j+W`, one independent scratch lane per entry (the lane list is
/// spelled out so every step compiles to straight-line code). Per entry:
/// the lane starts from the value (plain), or — `FUSED` — from the fresh
/// residual `t − Σᵣ Πₖ A⁽ᵏ⁾(iₖ,r)`, folded as per-lane products over
/// ascending modes then one scalar sum over ascending `r` (the chains of
/// [`KruskalTensor::eval`]) and written to `out_vals`. Then the MTTKRP
/// contribution: a separate fold multiplying the non-`mode` rows in
/// ascending order, added into the slab row in entry order. Lanes are
/// independent, so the width never changes a bit.
macro_rules! tiled_step {
    ($name:ident, $width:literal, $($w:literal)+) => {
        #[inline(always)]
        #[allow(clippy::too_many_arguments)]
        fn $name<const FUSED: bool>(
            cx: TiledCtx<'_>,
            j: usize,
            jlo: usize,
            row_lo: usize,
            slab: &mut Mat,
            out_vals: &mut [f64],
            s: [&mut [f64]; $width],
        ) {
            let order = cx.factors.len();
            let ii = [$(&cx.tm.idx[(j + $w) * order..(j + $w + 1) * order]),+];
            if FUSED {
                $(s[$w].fill(1.0);)+
                for (k, f) in cx.factors.iter().enumerate() {
                    $(mul_lanes(s[$w], f.row(ii[$w][k] as usize));)+
                }
                let mut acc = [0.0f64; $width];
                for rr in 0..s[0].len() {
                    $(acc[$w] += s[$w][rr];)+
                }
                $(
                    let v = cx.vals[j + $w] - acc[$w];
                    out_vals[j + $w - jlo] = v;
                    s[$w].fill(v);
                )+
            } else {
                $(s[$w].fill(cx.vals[cx.tm.perm[j + $w] as usize]);)+
            }
            for (k, f) in cx.factors.iter().enumerate() {
                if k == cx.mode {
                    continue;
                }
                $(mul_lanes(s[$w], f.row(ii[$w][k] as usize));)+
            }
            $(add_lanes(slab.row_mut(ii[$w][cx.mode] as usize - row_lo), s[$w]);)+
        }
    };
}

tiled_step!(tiled_step4, 4, 0 1 2 3);
tiled_step!(tiled_step2, 2, 0 1);
tiled_step!(tiled_step1, 1, 0);

/// The tiled sweep over one part's tile range `jlo..jhi`.
#[inline(always)]
fn tiled_sweep<const FUSED: bool>(
    cx: TiledCtx<'_>,
    (jlo, jhi, row_lo): (usize, usize, usize),
    slab: &mut Mat,
    out_vals: &mut [f64],
    [s0, s1, s2, s3]: [&mut [f64]; 4],
) {
    slab.fill(0.0);
    let mut j = jlo;
    // Interleave width: 4 independent lanes up to rank 8, 2 beyond —
    // 4×R live accumulators overflow the register file past R≈8 and the
    // spills cost more than the lost ILP.
    if s0.len() <= 8 {
        while j + 4 <= jhi {
            let s = [&mut *s0, &mut *s1, &mut *s2, &mut *s3];
            tiled_step4::<FUSED>(cx, j, jlo, row_lo, slab, out_vals, s);
            j += 4;
        }
    } else {
        while j + 2 <= jhi {
            tiled_step2::<FUSED>(cx, j, jlo, row_lo, slab, out_vals, [&mut *s0, &mut *s1]);
            j += 2;
        }
    }
    while j < jhi {
        tiled_step1::<FUSED>(cx, j, jlo, row_lo, slab, out_vals, [&mut *s0]);
        j += 1;
    }
}

/// One part of a tiled sweep, dispatched on the rank: a monomorphized
/// body with `[f64; R]` stack lanes for R ∈ {8, 16}, the part's heap
/// scratch otherwise. Both run [`tiled_sweep`], so specialization changes
/// compile-time knowledge (constant trip counts, stack scratch), never a
/// single bit of the result.
struct TiledKernel<'a, const FUSED: bool> {
    cx: TiledCtx<'a>,
    part: &'a mut TiledPart,
}

impl<const FUSED: bool> TiledKernel<'_, FUSED> {
    #[inline]
    fn run(self, rank: usize) {
        match rank {
            8 => self.run_const::<8>(),
            16 => self.run_const::<16>(),
            _ => self.run_dyn(),
        }
    }

    fn run_const<const R: usize>(self) {
        let TiledPart { jlo, jhi, row_lo, slab, vals, scratch } = self.part;
        debug_assert_eq!(scratch.len(), 4 * R);
        let mut s = [[0.0f64; R]; 4];
        let [s0, s1, s2, s3] = &mut s;
        tiled_sweep::<FUSED>(self.cx, (*jlo, *jhi, *row_lo), slab, vals, [s0, s1, s2, s3]);
    }

    fn run_dyn(self) {
        let TiledPart { jlo, jhi, row_lo, slab, vals, scratch } = self.part;
        let r = scratch.len() / 4;
        let (s0, rest) = scratch.split_at_mut(r);
        let (s1, rest) = rest.split_at_mut(r);
        let (s2, s3) = rest.split_at_mut(r);
        tiled_sweep::<FUSED>(self.cx, (*jlo, *jhi, *row_lo), slab, vals, [s0, s1, s2, s3]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mttkrp::mttkrp;
    use crate::residual::residual;
    use distenc_dataflow::{ExecMode, Executor};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_coo(shape: &[usize], nnz: usize, seed: u64) -> CooTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = CooTensor::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
            t.push(&idx, rng.random::<f64>() * 2.0 - 1.0).unwrap();
        }
        t.sort_dedup();
        t
    }

    #[test]
    fn layout_kind_parses_and_rejects() {
        assert_eq!(LayoutKind::parse(" COO ").unwrap(), LayoutKind::Coo);
        assert_eq!(LayoutKind::parse("Tiled").unwrap(), LayoutKind::Tiled);
        assert_eq!(
            LayoutKind::parse("hilbert"),
            Err(TensorError::InvalidLayout("hilbert".into()))
        );
        for k in [LayoutKind::Coo, LayoutKind::Tiled] {
            assert_eq!(LayoutKind::parse(&k.to_string()).unwrap(), k);
        }
    }

    #[test]
    fn layout_env_round_trips_and_rejects() {
        // The only test in this binary that touches DISTENC_LAYOUT; no
        // other tensor-crate test reads it, so set/remove is race-free.
        std::env::remove_var(LAYOUT_ENV);
        assert_eq!(LayoutKind::from_env().unwrap(), None);
        std::env::set_var(LAYOUT_ENV, "tiled");
        assert_eq!(LayoutKind::from_env().unwrap(), Some(LayoutKind::Tiled));
        std::env::set_var(LAYOUT_ENV, "zorder");
        assert_eq!(
            LayoutKind::from_env(),
            Err(TensorError::InvalidLayout("zorder".into()))
        );
        std::env::remove_var(LAYOUT_ENV);
    }

    #[test]
    fn partition_tiles_covers_and_bounds() {
        let tile_ptr = vec![0usize, 4, 4, 9, 11, 20, 21, 30];
        for max_parts in 1..10 {
            let parts = partition_tiles(&tile_ptr, max_parts);
            assert!(parts.len() <= max_parts.max(1));
            assert_eq!(parts.first().unwrap().0, 0);
            assert_eq!(parts.last().unwrap().1, 7);
            for w in parts.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            for &(a, b) in &parts {
                assert!(a < b);
            }
        }
    }

    #[test]
    fn both_layouts_match_the_reference_kernels_bitwise() {
        // Ranks cover the specialized tiled bodies (8, 16), the generic
        // fallback, and both interleave widths; every result is compared
        // to the naive kernels by bits, twice through one workspace
        // (reuse must be clean) with dirty outputs.
        let shape = [45, 23, 17];
        let x = random_coo(&shape, 400, 4);
        let boundaries: Vec<Vec<usize>> = shape.iter().map(|&d| vec![d / 3, d / 2, d]).collect();
        let execs = [Executor::new(ExecMode::Sequential), Executor::new(ExecMode::Threads(3))];
        for &rank in &[1usize, 3, 8, 16, 17] {
            let k = KruskalTensor::random(&shape, rank, 5 + rank as u64);
            let we = residual(&x, &k).unwrap();
            let wh = mttkrp(&we, k.factors(), 0).unwrap();
            for kind in [LayoutKind::Coo, LayoutKind::Tiled] {
                for exec in &execs {
                    let mut layout = TensorLayout::build(x.clone(), kind).unwrap();
                    let mut lw = layout.workspace(rank, &boundaries, exec).unwrap();
                    let label = format!("{kind} rank {rank}");
                    for (mode, &dim) in shape.iter().enumerate() {
                        let want = mttkrp(&x, k.factors(), mode).unwrap();
                        let mut h = Mat::random(dim, rank, 9);
                        for _ in 0..2 {
                            layout.mttkrp_into(k.factors(), mode, &mut lw, exec, &mut h).unwrap();
                            assert_eq!(h.as_slice(), want.as_slice(), "{label} mode {mode}");
                        }
                    }
                    // Refresh + mode-0 MTTKRP == residual, MTTKRP, ‖E‖².
                    let mut h = Mat::random(shape[0], rank, 13);
                    for _ in 0..2 {
                        let f = layout.fused_refresh_into(&x, &k, &mut lw, exec, &mut h).unwrap();
                        assert_eq!(layout.entries(), &we, "{label}");
                        assert_eq!(h.as_slice(), wh.as_slice(), "{label}");
                        assert_eq!(f.to_bits(), we.frob_norm_sq().to_bits(), "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn workspace_of_another_layout_is_a_typed_error() {
        let shape = [6, 5, 4];
        let x = random_coo(&shape, 40, 5);
        let k = KruskalTensor::random(&shape, 2, 6);
        let exec = Executor::new(ExecMode::Sequential);
        let boundaries: Vec<Vec<usize>> = shape.iter().map(|&d| vec![d]).collect();
        let mut coo = TensorLayout::build(x.clone(), LayoutKind::Coo).unwrap();
        let mut tiled = TensorLayout::build(x.clone(), LayoutKind::Tiled).unwrap();
        let mut coo_ws = coo.workspace(2, &boundaries, &exec).unwrap();
        let mut tiled_ws = tiled.workspace(2, &boundaries, &exec).unwrap();
        let mut h = Mat::zeros(6, 2);
        assert!(coo.mttkrp_into(k.factors(), 0, &mut tiled_ws, &exec, &mut h).is_err());
        assert!(tiled.fused_refresh_into(&x, &k, &mut coo_ws, &exec, &mut h).is_err());
        assert!(coo.fused_refresh_into(&x, &k, &mut tiled_ws, &exec, &mut h).is_err());
        assert!(coo.workspace(2, &boundaries[..1], &exec).is_err());
    }

    #[test]
    fn build_with_reuses_carried_structure() {
        let x = random_coo(&[30, 20, 10], 250, 9);
        let kind = LayoutKind::Tiled;
        let l1 = TensorLayout::build(x.clone(), kind).unwrap();
        let (e, accel) = l1.into_parts();
        assert!(!accel.is_empty());
        let l2 = TensorLayout::build_with(e, kind, accel).unwrap();
        assert_eq!(l2.kind(), kind);
        // Reuse must not change behavior: a fused sweep matches the
        // freshly built layout's.
        let model = KruskalTensor::random(&[30, 20, 10], 8, 2);
        let exec = Executor::new(ExecMode::Sequential);
        let mut fresh = TensorLayout::build(x.clone(), kind).unwrap();
        let mut reused = l2;
        let mut lw_a = fresh.workspace(8, &[], &exec).unwrap();
        let mut lw_b = reused.workspace(8, &[], &exec).unwrap();
        let mut ha = Mat::zeros(30, 8);
        let mut hb = Mat::zeros(30, 8);
        let fa = fresh.fused_refresh_into(&x, &model, &mut lw_a, &exec, &mut ha).unwrap();
        let fb = reused.fused_refresh_into(&x, &model, &mut lw_b, &exec, &mut hb).unwrap();
        assert_eq!(fa.to_bits(), fb.to_bits());
        assert_eq!(ha.as_slice(), hb.as_slice());
        assert_eq!(fresh.values(), reused.values());
        // A COO layout carries nothing to hand off.
        let (_, none) = TensorLayout::build(x.clone(), LayoutKind::Coo).unwrap().into_parts();
        assert!(none.is_empty());
        // A mismatched carry (different support) is rebuilt, not trusted.
        let y = random_coo(&[30, 20, 10], 100, 10);
        let (_, accel) = TensorLayout::build(x.clone(), LayoutKind::Tiled).unwrap().into_parts();
        let rebuilt = TensorLayout::build_with(y.clone(), LayoutKind::Tiled, accel).unwrap();
        assert_eq!(rebuilt.nnz(), y.nnz());
    }

    #[test]
    fn tiled_rejects_dimensions_and_entry_counts_beyond_u32() {
        let big = CooTensor::new(vec![u32::MAX as usize + 2, 2]);
        assert!(matches!(
            TensorLayout::build(big, LayoutKind::Tiled),
            Err(TensorError::ShapeMismatch(_))
        ));
        // Entry positions are packed as u32 too. A tensor that large
        // cannot be materialized in a test, so the shared check is driven
        // directly.
        let max = u32::MAX as usize;
        assert!(check_packable(&[4, 4], max).is_ok());
        assert!(matches!(
            check_packable(&[4, 4], max + 1),
            Err(TensorError::ShapeMismatch(msg)) if msg.contains("nnz")
        ));
    }
}
