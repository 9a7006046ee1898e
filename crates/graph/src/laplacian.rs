//! Graph Laplacians and their truncated eigendecompositions (§III-B).

use crate::sparse::SparseSym;
use distenc_linalg::{
    jacobi_eigen, lanczos_smallest, LinOp, LinalgError, Mat, Result as LinResult,
};

/// The (unnormalized) graph Laplacian `L = D − S` of a similarity matrix,
/// kept matrix-free: only `S` and the degree vector `d` are stored.
#[derive(Debug, Clone)]
pub struct Laplacian {
    similarity: SparseSym,
    degrees: Vec<f64>,
}

impl Laplacian {
    /// Build `L = D − S` from a symmetric similarity matrix.
    pub fn from_similarity(similarity: SparseSym) -> Self {
        let degrees = similarity.row_sums();
        Laplacian { similarity, degrees }
    }

    /// Build the *symmetric normalized* Laplacian
    /// `L_sym = I − D^{-1/2} S D^{-1/2}` from a similarity matrix.
    ///
    /// Internally this is the unnormalized Laplacian of the rescaled
    /// similarity `S'ᵢⱼ = Sᵢⱼ/√(dᵢdⱼ)` with unit degrees, so every other
    /// operation (truncation, `tr(BᵀLB)`, shifted solves) works
    /// unchanged. Normalization bounds the spectrum by `[0, 2]`, which
    /// decouples the `α` weight from the graph's degree scale — useful
    /// when mode similarities have wildly different densities. (The paper
    /// uses the unnormalized form; this is an extension.)
    ///
    /// Isolated nodes (degree 0) contribute zero rows, matching the
    /// convention that they carry no smoothness constraint.
    pub fn normalized_from_similarity(similarity: SparseSym) -> Self {
        let degrees = similarity.row_sums();
        let inv_sqrt: Vec<f64> = degrees
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let n = similarity.dim();
        let mut triplets = Vec::with_capacity(similarity.nnz());
        for i in 0..n {
            let (cols, vals) = similarity.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if j >= i {
                    triplets.push((i, j, v * inv_sqrt[i] * inv_sqrt[j]));
                }
            }
        }
        let scaled = SparseSym::from_triplets(n, &triplets);
        // Unit degree wherever the node participates in the graph.
        let unit_degrees = degrees
            .iter()
            .map(|&d| if d > 0.0 { 1.0 } else { 0.0 })
            .collect();
        Laplacian { similarity: scaled, degrees: unit_degrees }
    }

    /// Dimension `I` of the mode this Laplacian regularizes.
    pub fn dim(&self) -> usize {
        self.similarity.dim()
    }

    /// The underlying similarity matrix.
    pub fn similarity(&self) -> &SparseSym {
        &self.similarity
    }

    /// Exact `tr(BᵀLB)` — the regularization term of Eq. 4, evaluated
    /// sparsely in `O(nnz(S)·R)`.
    pub fn trace_quadratic(&self, b: &Mat) -> f64 {
        let n = self.dim();
        assert_eq!(b.rows(), n, "B must have one row per graph node");
        let mut acc = 0.0;
        // tr(BᵀLB) = Σᵢ dᵢ‖Bᵢ‖² − Σᵢⱼ Sᵢⱼ⟨Bᵢ, Bⱼ⟩.
        for i in 0..n {
            let bi = b.row(i);
            let norm_sq: f64 = bi.iter().map(|v| v * v).sum();
            acc += self.degrees[i] * norm_sq;
            let (cols, vals) = self.similarity.row(i);
            for (&j, &s) in cols.iter().zip(vals) {
                let bj = b.row(j);
                let dot: f64 = bi.iter().zip(bj).map(|(x, y)| x * y).sum();
                acc -= s * dot;
            }
        }
        acc
    }

    /// Densify (test/TFAI oracle only — `O(I²)` memory, which is exactly
    /// what makes the single-machine baseline die first in Fig. 3a).
    pub fn to_dense(&self) -> Mat {
        let n = self.dim();
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.set(i, i, self.degrees[i]);
            let (cols, vals) = self.similarity.row(i);
            for (&j, &s) in cols.iter().zip(vals) {
                let cur = m.get(i, j);
                m.set(i, j, cur - s);
            }
        }
        m
    }

    /// Truncated eigendecomposition keeping the `k` *smallest* eigenpairs
    /// (the smooth graph structure the trace regularizer preserves; see
    /// [`TruncatedLaplacian`]).
    ///
    /// Component-aware: the Laplacian of a disconnected graph is block
    /// diagonal, so each connected component is eigensolved independently
    /// — exactly (dense Jacobi) when the component is small, matrix-free
    /// Lanczos when it is large — and the globally smallest `k` pairs are
    /// kept. This handles the zero eigenvalue's multiplicity (one per
    /// component) that a single Krylov sequence cannot resolve, which
    /// matters because community-style similarity graphs are exactly
    /// unions of blocks.
    pub fn truncate(&self, k: usize, seed: u64) -> LinResult<TruncatedLaplacian> {
        const DENSE_COMPONENT: usize = 200;
        self.check_finite()?;
        let n = self.dim();
        let k = k.min(n);
        let comps = self.similarity.components();
        // Global → component-local index, built once: every component's
        // dense block and matrix-free operator reads it.
        let mut local = vec![0; n];
        for comp in &comps {
            for (l, &node) in comp.iter().enumerate() {
                local[node] = l;
            }
        }
        // Collect candidate eigenpairs: up to k smallest per component.
        let mut pairs: Vec<(f64, Vec<(usize, f64)>)> = Vec::new();
        for comp in &comps {
            if comp.len() == 1 {
                // Isolated node: eigenvalue 0, indicator vector.
                pairs.push((0.0, vec![(comp[0], 1.0)]));
                continue;
            }
            let k_local = k.min(comp.len());
            let (values, vectors) = if comp.len() <= DENSE_COMPONENT {
                let full = jacobi_eigen(&self.component_laplacian(comp, &local))?;
                (full.values, full.vectors)
            } else {
                let op = ComponentOp { lap: self, nodes: comp, local: &local };
                lanczos_smallest(&op, k_local, seed)?
            };
            for (j, &lam) in values.iter().take(k_local).enumerate() {
                let entries = comp
                    .iter()
                    .enumerate()
                    .map(|(local, &node)| (node, vectors.get(local, j)))
                    .collect();
                pairs.push((lam, entries));
            }
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        pairs.truncate(k);
        let mut values = Vec::with_capacity(pairs.len());
        let mut vectors = Mat::zeros(n, pairs.len());
        for (col, (lam, entries)) in pairs.into_iter().enumerate() {
            values.push(lam);
            for (node, v) in entries {
                vectors.set(node, col, v);
            }
        }
        Ok(TruncatedLaplacian::new(values, vectors, self.trace()))
    }

    /// The ablation baseline for §III-B: solve `(ηI + αL) B = R` with a
    /// fresh dense Cholesky factorization — the `O(I³)` path the paper's
    /// eigendecomposition trick avoids. Because `η` changes every
    /// iteration, a real solver would pay this *per iteration*; the
    /// ablation bench measures exactly that gap.
    pub fn shifted_solve_dense(
        &self,
        eta: f64,
        alpha: f64,
        rhs: &Mat,
    ) -> LinResult<Mat> {
        let mut shifted = self.to_dense().scaled(alpha);
        shifted.add_diag(eta);
        distenc_linalg::Cholesky::factor(&shifted)?.solve_mat(rhs)
    }

    /// Dense Laplacian of one connected component (rows/cols restricted
    /// to `nodes`; `local` maps each node to its position in `nodes`).
    fn component_laplacian(&self, nodes: &[usize], local: &[usize]) -> Mat {
        let mut m = Mat::zeros(nodes.len(), nodes.len());
        for (li, &node) in nodes.iter().enumerate() {
            m.set(li, li, self.degrees[node]);
            let (cols, vals) = self.similarity.row(node);
            for (&j, &s) in cols.iter().zip(vals) {
                let lj = local[j]; // neighbours stay within the component
                let cur = m.get(li, lj);
                m.set(li, lj, cur - s);
            }
        }
        m
    }

    /// Reject a NaN or infinite similarity weight (or degree) before any
    /// eigensolve runs on it: the eigensolvers would otherwise burn their
    /// whole iteration budget and report a misleading non-convergence.
    fn check_finite(&self) -> LinResult<()> {
        for i in 0..self.dim() {
            let (cols, vals) = self.similarity.row(i);
            if let Some((&col, &value)) = cols.iter().zip(vals).find(|(_, v)| !v.is_finite()) {
                return Err(LinalgError::NonFinite { what: "similarity", row: i, col, value });
            }
            let value = self.degrees[i];
            if !value.is_finite() {
                return Err(LinalgError::NonFinite { what: "degree", row: i, col: i, value });
            }
        }
        Ok(())
    }

    /// Exact dense path: full Jacobi eigendecomposition, keep the `k`
    /// smallest eigenpairs.
    pub fn truncate_dense(&self, k: usize) -> LinResult<TruncatedLaplacian> {
        self.check_finite()?;
        let full = jacobi_eigen(&self.to_dense())?;
        let n = self.dim();
        let k = k.min(n);
        // jacobi_eigen sorts ascending; the smallest k lead.
        let mut values = Vec::with_capacity(k);
        let mut vectors = Mat::zeros(n, k);
        for src in 0..k {
            values.push(full.values[src]);
            for i in 0..n {
                vectors.set(i, src, full.vectors.get(i, src));
            }
        }
        Ok(TruncatedLaplacian::new(values, vectors, self.trace()))
    }

    /// Matrix-free path: Lanczos yields the smallest eigenpairs of `L`,
    /// in `O(k·(nnz(S) + I·k))` — the `O(K·I)` profile the paper assumes
    /// for its truncated eigensolver.
    pub fn truncate_lanczos(&self, k: usize, seed: u64) -> LinResult<TruncatedLaplacian> {
        self.check_finite()?;
        let (values, vectors) = lanczos_smallest(self, k.max(1), seed)?;
        Ok(TruncatedLaplacian::new(values, vectors, self.trace()))
    }

    /// `tr(L) = Σᵢ dᵢ` (diagonal of `D − S` ignoring self-loops in `S`)
    /// — exactly the sum of all eigenvalues, used to place the truncated
    /// complement.
    pub fn trace(&self) -> f64 {
        let mut t: f64 = self.degrees.iter().sum();
        // Self-loop similarity contributes to the degree but sits on the
        // diagonal of S, so it cancels in L's trace.
        for i in 0..self.dim() {
            t -= self.similarity.get(i, i);
        }
        t
    }
}

/// Matrix-free view of one component's Laplacian block.
struct ComponentOp<'a> {
    lap: &'a Laplacian,
    nodes: &'a [usize],
    /// Global → component-local index (see [`Laplacian::truncate`]).
    local: &'a [usize],
}

impl LinOp for ComponentOp<'_> {
    fn dim(&self) -> usize {
        self.nodes.len()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        for (o, (&node, &xi)) in out.iter_mut().zip(self.nodes.iter().zip(x)) {
            let mut acc = self.lap.degrees[node] * xi;
            let (cols, vals) = self.lap.similarity.row(node);
            for (&j, &s) in cols.iter().zip(vals) {
                acc -= s * x[self.local[j]];
            }
            *o = acc;
        }
    }
}

impl LinOp for Laplacian {
    fn dim(&self) -> usize {
        self.similarity.dim()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        // (D − S) x.
        self.similarity.matvec(x, out);
        for ((o, &d), &xi) in out.iter_mut().zip(&self.degrees).zip(x) {
            *o = d * xi - *o;
        }
    }
}

/// A truncated eigendecomposition `L ≈ V Λ Vᵀ` (eigenvalues descending)
/// with the shifted-inverse application of Eq. 6/7.
///
/// The update rule for auxiliary variables (Algorithm 1 line 4) is
/// `B ← (ηI + αL)⁻¹ R` with `R = ηA − Y`. Expanding on the eigenbasis:
///
/// `(ηI + αL)⁻¹ = Σᵢ vᵢvᵢᵀ / (η + αλᵢ)`
///
/// Keeping the `K` **smallest** eigenvalues — the smooth graph directions
/// the regularizer is supposed to *preserve* — and modelling every
/// remaining (rougher) direction at the complement's mean eigenvalue
/// `λ̄ = (tr(L) − Σ_kept λ) / (I − K)` (exact, because `tr(L) = Σ dᵢ` is
/// known without any eigensolve) gives
///
/// `B ≈ V diag(1/(η+αλ)) (VᵀR) + (R − V(VᵀR)) / (η + αλ̄)`.
///
/// This reduces to the exact inverse at `K = I` and to `R/η` for a zero
/// Laplacian, and — unlike keeping the large end — it damps *all* rough
/// directions, which is what makes small `K` (≈ the number of smooth
/// structures, e.g. communities) sufficient in practice. Eq. 7's
/// FLOP-ordering is preserved: the `K×R` product `VᵀR` is formed first,
/// diagonally rescaled, then expanded by `V` — `O(IR + IKR)` instead of
/// an `O(I³)` solve per iteration. (The paper prints only the `VΛ⁻¹VᵀR`
/// term; without a complement term a truncated basis would annihilate
/// every component of `R` outside `span(V)`, so we keep it. The two
/// coincide exactly when the decomposition is not truncated.)
#[derive(Debug, Clone)]
pub struct TruncatedLaplacian {
    /// Kept eigenvalues, ascending (the small end of the spectrum).
    pub values: Vec<f64>,
    /// Matching eigenvectors as columns (`I × K`).
    pub vectors: Mat,
    /// Mean eigenvalue `λ̄` of the truncated complement.
    pub complement_lambda: f64,
}

impl TruncatedLaplacian {
    /// Assemble from kept eigenpairs plus the operator's exact trace.
    pub fn new(values: Vec<f64>, vectors: Mat, trace: f64) -> Self {
        let n = vectors.rows();
        let k = values.len();
        let kept: f64 = values.iter().sum();
        let complement_lambda = if n > k {
            ((trace - kept) / (n - k) as f64).max(0.0)
        } else {
            0.0
        };
        TruncatedLaplacian { values, vectors, complement_lambda }
    }

    /// A zero Laplacian (identity similarity ⇒ `L = 0`), for modes without
    /// auxiliary information: `apply_shifted_inverse` becomes `R/η`.
    pub fn zero(n: usize) -> Self {
        TruncatedLaplacian {
            values: Vec::new(),
            vectors: Mat::zeros(n, 0),
            complement_lambda: 0.0,
        }
    }

    /// Number of kept eigenpairs `K`.
    pub fn k(&self) -> usize {
        self.values.len()
    }

    /// Mode dimension `I`.
    pub fn dim(&self) -> usize {
        self.vectors.rows()
    }

    /// Apply `(ηI + αL)⁻¹` to `rhs` using the truncated basis (Eq. 7 with
    /// the complement term; see the type-level docs).
    pub fn apply_shifted_inverse(&self, eta: f64, alpha: f64, rhs: &Mat) -> LinResult<Mat> {
        assert!(eta > 0.0, "penalty η must be positive");
        if alpha == 0.0 {
            return Ok(rhs.scaled(1.0 / eta));
        }
        // Baseline: every direction damped at the complement rate.
        let base = 1.0 / (eta + alpha * self.complement_lambda);
        if self.k() == 0 {
            return Ok(rhs.scaled(base));
        }
        // Step 1 (small): P = Vᵀ R, shape K×R.
        let p = self.vectors.matvec_mat_t(rhs)?;
        // Step 2 (diagonal): scale row i of P by 1/(η+αλᵢ) − base, so the
        // expansion below is the *correction* to the baseline.
        let mut scaled = p;
        for (i, &lam) in self.values.iter().enumerate() {
            let coeff = 1.0 / (eta + alpha * lam) - base;
            for v in scaled.row_mut(i) {
                *v *= coeff;
            }
        }
        // Step 3: B = base·R + V · scaled.
        let mut out = rhs.scaled(base);
        let corr = self.vectors.matmul(&scaled)?;
        out.axpy(1.0, &corr)?;
        Ok(out)
    }

    /// Approximate heap footprint in bytes (`O(I·K + K)`, Lemma 2's
    /// eigen-decomposition term).
    pub fn mem_bytes(&self) -> usize {
        self.vectors.mem_bytes() + self.values.len() * std::mem::size_of::<f64>()
    }

    /// Allocation-free [`TruncatedLaplacian::apply_shifted_inverse`]:
    /// identical arithmetic (including the separate correction buffer the
    /// bit-exactness of the three-step expansion depends on), with every
    /// intermediate supplied by a [`ShiftedInverseScratch`] sized once.
    pub fn apply_shifted_inverse_into(
        &self,
        eta: f64,
        alpha: f64,
        rhs: &Mat,
        out: &mut Mat,
        scratch: &mut ShiftedInverseScratch,
    ) -> LinResult<()> {
        assert!(eta > 0.0, "penalty η must be positive");
        if alpha == 0.0 {
            return rhs.scaled_into(1.0 / eta, out);
        }
        let base = 1.0 / (eta + alpha * self.complement_lambda);
        if self.k() == 0 {
            return rhs.scaled_into(base, out);
        }
        let p = &mut scratch.p;
        self.vectors.matvec_mat_t_into(rhs, p)?;
        for (i, &lam) in self.values.iter().enumerate() {
            let coeff = 1.0 / (eta + alpha * lam) - base;
            for v in p.row_mut(i) {
                *v *= coeff;
            }
        }
        rhs.scaled_into(base, out)?;
        self.vectors.matmul_into(p, &mut scratch.corr)?;
        out.axpy(1.0, &scratch.corr)?;
        Ok(())
    }
}

/// Preallocated intermediates for
/// [`TruncatedLaplacian::apply_shifted_inverse_into`]: the `K×R`
/// projection `VᵀR` and the `I×R` correction expansion.
#[derive(Debug, Clone)]
pub struct ShiftedInverseScratch {
    p: Mat,
    corr: Mat,
}

impl ShiftedInverseScratch {
    /// Size the scratch for applying `trunc` to right-hand sides with `r`
    /// columns.
    pub fn new(trunc: &TruncatedLaplacian, r: usize) -> Self {
        ShiftedInverseScratch {
            p: Mat::zeros(trunc.k(), r),
            corr: Mat::zeros(trunc.dim(), r),
        }
    }
}

/// Helper: `Vᵀ R` without materializing `Vᵀ`.
trait MatVecT {
    fn matvec_mat_t(&self, rhs: &Mat) -> LinResult<Mat>;
    fn matvec_mat_t_into(&self, rhs: &Mat, out: &mut Mat) -> LinResult<()>;
}

impl MatVecT for Mat {
    fn matvec_mat_t(&self, rhs: &Mat) -> LinResult<Mat> {
        let mut out = Mat::zeros(self.cols(), rhs.cols());
        self.matvec_mat_t_into(rhs, &mut out)?;
        Ok(out)
    }

    fn matvec_mat_t_into(&self, rhs: &Mat, out: &mut Mat) -> LinResult<()> {
        // self: I×K, rhs: I×R → out: K×R. Row-major friendly accumulation.
        let (i_dim, k_dim) = self.shape();
        let r_dim = rhs.cols();
        if out.shape() != (k_dim, r_dim) {
            return Err(distenc_linalg::LinalgError::ShapeMismatch {
                op: "matvec_mat_t_into",
                lhs: (k_dim, r_dim),
                rhs: out.shape(),
            });
        }
        out.fill(0.0);
        for i in 0..i_dim {
            let v_row = self.row(i);
            let r_row = rhs.row(i);
            for (kk, &v) in v_row.iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                let o = out.row_mut(kk);
                for (oo, &rr) in o.iter_mut().zip(r_row) {
                    *oo += v * rr;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::tridiagonal_chain;
    use distenc_linalg::Cholesky;

    fn chain_laplacian(n: usize) -> Laplacian {
        Laplacian::from_similarity(tridiagonal_chain(n))
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let l = chain_laplacian(6).to_dense();
        for i in 0..6 {
            let s: f64 = l.row(i).iter().sum();
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn trace_quadratic_matches_dense() {
        let lap = chain_laplacian(8);
        let b = Mat::random(8, 3, 4);
        let sparse = lap.trace_quadratic(&b);
        let dense = lap.to_dense();
        // tr(BᵀLB) via explicit products.
        let ltb = dense.matmul(&b).unwrap();
        let mut want = 0.0;
        for i in 0..8 {
            for r in 0..3 {
                want += b.get(i, r) * ltb.get(i, r);
            }
        }
        assert!((sparse - want).abs() < 1e-10);
    }

    #[test]
    fn trace_quadratic_zero_for_constant_columns() {
        // L annihilates constant vectors on a connected graph.
        let lap = chain_laplacian(10);
        let b = Mat::from_vec(10, 2, vec![3.0; 20]);
        assert!(lap.trace_quadratic(&b).abs() < 1e-10);
    }

    #[test]
    fn full_truncation_matches_exact_inverse() {
        // With K = I the shifted-inverse application must equal a direct
        // solve of (ηI + αL) B = R.
        let lap = chain_laplacian(12);
        let trunc = lap.truncate_dense(12).unwrap();
        let rhs = Mat::random(12, 3, 7);
        let (eta, alpha) = (0.7, 1.3);
        let fast = trunc.apply_shifted_inverse(eta, alpha, &rhs).unwrap();
        let mut shifted = lap.to_dense().scaled(alpha);
        shifted.add_diag(eta);
        let exact = Cholesky::factor(&shifted).unwrap().solve_mat(&rhs).unwrap();
        for (a, b) in fast.as_slice().iter().zip(exact.as_slice()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn truncated_application_approaches_exact_as_k_grows() {
        let lap = chain_laplacian(20);
        let rhs = Mat::random(20, 2, 9);
        let (eta, alpha) = (1.0, 2.0);
        let mut shifted = lap.to_dense().scaled(alpha);
        shifted.add_diag(eta);
        let exact = Cholesky::factor(&shifted).unwrap().solve_mat(&rhs).unwrap();
        let mut last_err = f64::INFINITY;
        for k in [2, 5, 10, 20] {
            let trunc = lap.truncate_dense(k).unwrap();
            let approx = trunc.apply_shifted_inverse(eta, alpha, &rhs).unwrap();
            let err = approx.frob_dist(&exact).unwrap();
            assert!(
                err <= last_err + 1e-9,
                "error must shrink with k: k={k}, {err} > {last_err}"
            );
            last_err = err;
        }
        assert!(last_err < 1e-8);
    }

    #[test]
    fn shifted_inverse_into_is_bit_identical() {
        let lap = chain_laplacian(15);
        let rhs = Mat::random(15, 3, 11);
        for (k, eta, alpha) in [(0, 0.9, 0.0), (0, 0.9, 1.4), (6, 0.7, 1.3), (15, 1.1, 2.0)] {
            let trunc = if k == 0 { TruncatedLaplacian::zero(15) } else { lap.truncate_dense(k).unwrap() };
            let mut scratch = ShiftedInverseScratch::new(&trunc, 3);
            let mut out = Mat::random(15, 3, 99); // dirty on purpose
            // Apply twice through the same scratch: reuse must not drift.
            for _ in 0..2 {
                trunc.apply_shifted_inverse_into(eta, alpha, &rhs, &mut out, &mut scratch).unwrap();
                let want = trunc.apply_shifted_inverse(eta, alpha, &rhs).unwrap();
                assert_eq!(out, want, "k={k} eta={eta} alpha={alpha}");
            }
        }
    }

    #[test]
    fn zero_laplacian_scales_by_inverse_eta() {
        let trunc = TruncatedLaplacian::zero(5);
        let rhs = Mat::random(5, 2, 3);
        let out = trunc.apply_shifted_inverse(2.0, 1.0, &rhs).unwrap();
        for (a, b) in out.as_slice().iter().zip(rhs.as_slice()) {
            assert!((a - b / 2.0).abs() < 1e-14);
        }
    }

    #[test]
    fn lanczos_truncation_close_to_dense_on_small_eigenvalues() {
        // The chain Laplacian's small eigenvalues cluster near zero, the
        // hardest case for an un-restarted Krylov method; what matters
        // downstream is the *shifted-inverse application*, which is
        // smooth in λ. Check both: eigenvalues to coarse accuracy, and
        // the application to tight accuracy.
        let lap = chain_laplacian(40);
        let dense = lap.truncate_dense(3).unwrap();
        let lz = lap.truncate_lanczos(3, 5).unwrap();
        for (a, b) in dense.values.iter().zip(&lz.values) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
        let rhs = Mat::random(40, 2, 3);
        let (eta, alpha) = (1.0, 1.0);
        let via_dense = dense.apply_shifted_inverse(eta, alpha, &rhs).unwrap();
        let via_lz = lz.apply_shifted_inverse(eta, alpha, &rhs).unwrap();
        let rel = via_dense.frob_dist(&via_lz).unwrap() / via_dense.frob_norm();
        assert!(rel < 0.05, "application deviates by {rel}");
    }

    #[test]
    fn normalized_laplacian_spectrum_bounded_by_two() {
        let sim = crate::builders::community_blocks(40, 4, 0.6, 3);
        let lap = Laplacian::normalized_from_similarity(sim);
        let full = lap.truncate_dense(40).unwrap();
        for &v in &full.values {
            assert!((-1e-9..=2.0 + 1e-9).contains(&v), "eigenvalue {v} out of [0,2]");
        }
        // Smallest eigenvalue is 0 (one per connected component).
        assert!(full.values[0].abs() < 1e-9);
    }

    #[test]
    fn normalized_equals_unnormalized_on_regular_graphs() {
        // A cycle is 2-regular: L_sym = L / 2 exactly.
        let n = 12;
        let mut triplets: Vec<(usize, usize, f64)> =
            (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        triplets.dedup();
        let sim = crate::sparse::SparseSym::from_triplets(n, &triplets);
        let un = Laplacian::from_similarity(sim.clone()).to_dense();
        let norm = Laplacian::normalized_from_similarity(sim).to_dense();
        for (a, b) in norm.as_slice().iter().zip(un.as_slice()) {
            assert!((a - b / 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normalized_isolated_nodes_are_zero_rows() {
        // Node 3 has no edges.
        let sim = crate::sparse::SparseSym::from_triplets(4, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let lap = Laplacian::normalized_from_similarity(sim);
        let dense = lap.to_dense();
        for j in 0..4 {
            assert_eq!(dense.get(3, j), 0.0);
        }
    }

    #[test]
    fn component_aware_truncate_resolves_multiplicity() {
        // Three disconnected blocks ⇒ the zero eigenvalue has multiplicity
        // three; a single Krylov sequence cannot see that, the
        // component-aware path must.
        let sim = crate::builders::community_blocks(60, 3, 1.0, 0);
        let lap = Laplacian::from_similarity(sim);
        let t = lap.truncate(3, 1).unwrap();
        assert_eq!(t.k(), 3);
        for &v in &t.values {
            assert!(v.abs() < 1e-8, "all three kept eigenvalues must be ~0, got {v}");
        }
        // Each kept eigenvector is constant on exactly one block.
        for j in 0..3 {
            let col = t.vectors.col(j);
            let nonzero_blocks: Vec<usize> = (0..3)
                .filter(|&b| (0..20).any(|i| col[b * 20 + i].abs() > 1e-8))
                .collect();
            assert_eq!(nonzero_blocks.len(), 1, "eigenvector {j} spans {nonzero_blocks:?}");
        }
    }

    #[test]
    fn lanczos_components_with_non_contiguous_ids_match_dense() {
        // Two interleaved components over 200 nodes each (even and odd
        // ids), so each one takes the Lanczos path through the global →
        // local index map, plus isolated nodes after them. Each component
        // is five dense rings joined by weak bridges: five small
        // eigenvalues well below the bulk, which Lanczos resolves.
        let (size, rings, isolated) = (205, 5, 3);
        let ring = size / rings;
        let n = 2 * size + isolated;
        let mut triplets = Vec::new();
        for c in 0..2 {
            let id = |local: usize| 2 * local + c;
            for q in 0..rings {
                for a in 0..ring {
                    for d in 1..=6 {
                        triplets.push((id(q * ring + a), id(q * ring + (a + d) % ring), 1.0));
                    }
                }
                if q + 1 < rings {
                    let bridge = 0.05 * (c + 1) as f64;
                    triplets.push((id(q * ring + ring - 1), id((q + 1) * ring), bridge));
                }
            }
        }
        let lap = Laplacian::from_similarity(crate::sparse::SparseSym::from_triplets(n, &triplets));
        let comps = lap.similarity().components();
        assert_eq!(comps.len(), 2 + isolated);
        assert!(comps.iter().filter(|c| c.len() > 200).count() == 2);
        let k = 10;
        let dense = lap.truncate_dense(k).unwrap();
        let lz = lap.truncate(k, 5).unwrap();
        // The isolated nodes' zero eigenvalues lead; the rest come from
        // the two Lanczos runs. Same tolerances as
        // `lanczos_truncation_close_to_dense_on_small_eigenvalues`.
        assert_eq!(lz.k(), k);
        for (a, b) in dense.values.iter().zip(&lz.values) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
        let rhs = Mat::random(n, 2, 3);
        let (eta, alpha) = (1.0, 1.0);
        let via_dense = dense.apply_shifted_inverse(eta, alpha, &rhs).unwrap();
        let via_lz = lz.apply_shifted_inverse(eta, alpha, &rhs).unwrap();
        let rel = via_dense.frob_dist(&via_lz).unwrap() / via_dense.frob_norm();
        assert!(rel < 0.05, "application deviates by {rel}");
    }

    /// A chain whose edge (5, 6) carries `bad`.
    fn chain_with_weight(n: usize, bad: f64) -> Laplacian {
        let triplets: Vec<(usize, usize, f64)> =
            (0..n - 1).map(|i| (i, i + 1, if i == 5 { bad } else { 1.0 })).collect();
        Laplacian::from_similarity(crate::sparse::SparseSym::from_triplets(n, &triplets))
    }

    #[test]
    fn non_finite_weight_is_a_typed_error_before_any_eigensolve() {
        // 30 nodes take the dense Jacobi path, 260 the Lanczos one; both
        // used to run a full eigensolve and report non-convergence.
        for n in [30, 260] {
            for bad in [f64::NAN, f64::INFINITY] {
                let lap = chain_with_weight(n, bad);
                let checks = [lap.truncate(8, 1), lap.truncate_lanczos(8, 1)];
                for err in checks.into_iter().map(Result::unwrap_err) {
                    match err {
                        LinalgError::NonFinite { what: "similarity", row: 5, col: 6, value } => {
                            assert_eq!(value.is_nan(), bad.is_nan(), "n={n}")
                        }
                        other => panic!("n={n}, weight {bad}: unexpected {other:?}"),
                    }
                }
            }
        }
        let err = chain_with_weight(30, f64::NAN).truncate_dense(8).unwrap_err();
        assert!(err.to_string().contains("non-finite similarity entry (5, 6)"), "{err}");
    }

    #[test]
    fn truncate_auto_picks_and_clamps_k() {
        let lap = chain_laplacian(10);
        let t = lap.truncate(50, 1).unwrap();
        assert_eq!(t.k(), 10);
    }
}
