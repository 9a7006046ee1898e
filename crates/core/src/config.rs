//! Hyper-parameters of the ADMM completion solvers.

/// How many exact polish iterations a sketched solve runs by default
/// (the tail of the iteration budget handed to [`crate::AdmmSolver`]'s
/// exact backend).
pub const DEFAULT_POLISH_ITERS: usize = 8;

/// Which solver tier executes the per-iteration kernels.
///
/// `Exact` is the bit-pinned reference path (every golden trace and
/// equivalence proptest runs it). `Sketched` is the first *approximate*
/// tier: per-mode MTTKRPs are estimated from a deterministic seeded
/// sample of the nonzeros (`O(samples·N·R)` per iteration instead of
/// `O(nnz·N·R)`), and the final `polish_iters` iterations hand off to the
/// exact host backend so the returned model and RMSE are exact-path
/// artifacts. Its accuracy contract is statistical, not bitwise — the
/// accuracy gate (`tests/accuracy_gate.rs`, tolerance constant in
/// `distenc_eval::accuracy`) pins final-RMSE parity with the exact
/// solver.
///
/// Documented fallbacks (never errors, never panics):
/// * `samples ≥ nnz` — sampling cannot beat a full sweep, so the whole
///   run degenerates to the exact tier, bit-identical to `Exact`.
/// * `polish_iters ≥ max_iters` — no sketch phase remains; ditto.
/// * the distributed [`crate::DisTenC`] driver — Algorithm 3's virtual
///   cluster models the exact schedule only, so it always runs `Exact`
///   whatever the config says.
/// * combined with [`AdmmConfig::fused`] — the sketch phase always runs
///   its own fused sampled sweep (the flag is an exact-path schedule
///   switch); the polish phase honors the flag as usual.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverTier {
    /// The exact reference path (the default).
    Exact,
    /// Sampled MTTKRP steps followed by an exact polish phase.
    Sketched {
        /// Entries drawn per sampled kernel step (must be ≥ 1).
        samples: usize,
        /// Trailing iterations run on the exact backend.
        polish_iters: usize,
    },
}

/// Environment variable holding the solver tier when neither the config
/// nor the CLI picks one.
pub const TIER_ENV: &str = "DISTENC_TIER";

impl SolverTier {
    /// The tier requested by the [`TIER_ENV`] environment variable:
    /// `Ok(None)` when unset, an error naming the variable when it is set
    /// to something [`SolverTier::parse`] rejects — a typo must not
    /// silently change which solver runs.
    pub fn from_env() -> Result<Option<SolverTier>, String> {
        match std::env::var(TIER_ENV) {
            Ok(raw) => SolverTier::parse(&raw).map(Some).map_err(|e| format!("{TIER_ENV}: {e}")),
            Err(_) => Ok(None),
        }
    }

    /// Parse a tier spec: `exact` for [`SolverTier::Exact`];
    /// `sketched[:SAMPLES[:POLISH]]` for [`SolverTier::Sketched`] (with
    /// `SAMPLES` defaulting to 4096 draws and `POLISH` to
    /// [`DEFAULT_POLISH_ITERS`]). Unknown names and malformed numbers are
    /// errors.
    pub fn parse(raw: &str) -> Result<SolverTier, String> {
        let bad = || {
            format!("{raw:?} is not a solver tier (expected exact or sketched[:SAMPLES[:POLISH]])")
        };
        let mut parts = raw.trim().split(':').map(str::trim);
        let tier = match parts.next() {
            Some("exact") => SolverTier::Exact,
            Some("sketched") => {
                let mut num = |default| match parts.next() {
                    Some(s) => s.parse::<usize>().map_err(|_| bad()),
                    None => Ok(default),
                };
                let samples = num(4096)?;
                let polish_iters = num(DEFAULT_POLISH_ITERS)?;
                SolverTier::Sketched { samples, polish_iters }
            }
            _ => return Err(bad()),
        };
        match parts.next() {
            Some(_) => Err(bad()),
            None => Ok(tier),
        }
    }

    /// Whether this tier is the sketched one.
    pub fn is_sketched(&self) -> bool {
        matches!(self, SolverTier::Sketched { .. })
    }
}

impl Default for SolverTier {
    /// The default comes from the environment (see
    /// [`SolverTier::from_env`]), so `DISTENC_TIER=sketched cargo run`
    /// flips the tier without touching any call site — the same pattern
    /// `DISTENC_THREADS` uses for the execution backend. `Default` cannot
    /// fail: a malformed value falls back to `Exact` here and is rejected
    /// by [`AdmmConfig::validate`] before any solve runs.
    fn default() -> Self {
        SolverTier::from_env().ok().flatten().unwrap_or(SolverTier::Exact)
    }
}

/// When (and where) the solver snapshots its state for fault recovery.
///
/// Checkpoints are an **exact-tier** artifact: they capture the solver
/// loop's complete per-iteration state (factors, ADMM duals, penalty,
/// residual, trace), and a solve resumed from one finishes with
/// bit-identical factors and RMSE to the uninterrupted run (the recovery
/// invariant, proven in `tests/fault_recovery.rs`). The sketched tier's
/// phases strip the policy and run checkpoint-free.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointPolicy {
    /// Snapshot after every `n`-th completed iteration (must be ≥ 1).
    pub every_n_iters: usize,
    /// Where the host solver writes snapshots. `None` means no on-disk
    /// persistence: the distributed driver keeps its latest snapshot on
    /// the driver (its simulated "reliable store") and ignores this
    /// field, while the host solver skips checkpointing entirely.
    pub path: Option<std::path::PathBuf>,
}

impl CheckpointPolicy {
    /// Policy snapshotting every `n` iterations with no on-disk path.
    pub fn every(n: usize) -> Self {
        CheckpointPolicy { every_n_iters: n, path: None }
    }

    /// Builder-style on-disk destination for host-solver snapshots.
    pub fn with_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.path = Some(path.into());
        self
    }
}

/// Configuration shared by [`crate::AdmmSolver`] (Algorithm 1) and
/// [`crate::DisTenC`] (Algorithm 3). Field names follow the paper's
/// symbols.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmmConfig {
    /// CP rank `R` (pre-defined input, §II-B).
    pub rank: usize,
    /// Ridge weight `λ` on `‖A⁽ⁿ⁾‖²_F`.
    pub lambda: f64,
    /// Trace-regularizer weight `αₙ` (one value applied to every mode that
    /// has auxiliary information).
    pub alpha: f64,
    /// Initial ADMM penalty `η₀`.
    pub eta0: f64,
    /// Penalty growth factor `ρ` (`ηₜ₊₁ = min(ρηₜ, η_max)`).
    pub rho: f64,
    /// Penalty ceiling `η_max`.
    pub eta_max: f64,
    /// Iteration cap `T`.
    pub max_iters: usize,
    /// Convergence tolerance on `max ₙ ‖A⁽ⁿ⁾ₜ₊₁ − A⁽ⁿ⁾ₜ‖_F` (Algorithm 3
    /// line 15).
    pub tol: f64,
    /// Truncation width `K` of the Laplacian eigendecompositions (§III-B).
    pub eigen_k: usize,
    /// RNG seed for factor initialization (and Lanczos starts).
    pub seed: u64,
    /// Project factors onto the non-negative orthant after each update
    /// (the `A⁽ⁿ⁾ ≥ 0` constraint of Eq. 4; off by default because the
    /// synthetic-error data of §IV-A is signed).
    pub nonneg: bool,
    /// Block-boundary strategy for the distributed solver (Algorithm 2's
    /// greedy balancing by default; the equal-width baseline exists for
    /// the load-balancing ablation).
    pub partition: distenc_partition::PartitionStrategy,
    /// Which storage layout the host solver keeps the residual tensor in
    /// (see [`distenc_tensor::LayoutKind`]): the cache-blocked tiled
    /// layout or the flat COO reference, bit-identical to each other.
    /// `None` (the default) resolves at solve time with precedence
    /// **config > CLI > env**: the `--layout` CLI flag writes this field,
    /// the `DISTENC_LAYOUT` environment variable is consulted next
    /// (unknown names are typed errors, never silent fallbacks), and
    /// finally the tiled default applies. See
    /// [`AdmmConfig::resolved_layout`].
    pub layout: Option<distenc_tensor::LayoutKind>,
    /// Host execution backend for the solver's per-iteration kernels
    /// (MTTKRP, residual). Bit-identical results under every setting —
    /// see `distenc-dataflow`'s `exec` module; defaults from the
    /// `DISTENC_THREADS` environment variable.
    pub exec: distenc_dataflow::ExecMode,
    /// Fuse the end-of-iteration residual refresh with the *next*
    /// iteration's mode-0 MTTKRP into a single sweep over the nonzeros
    /// (N passes per iteration instead of N+1 for an order-N tensor).
    /// Bit-identical to the unfused schedule — the fused kernels replay
    /// the exact same floating-point folds — so this is on by default;
    /// the switch exists for the ablation and the pass-count gate.
    pub fused: bool,
    /// Which solver tier runs the per-iteration kernels (see
    /// [`SolverTier`]): the bit-pinned exact path, or the sampled
    /// sketched tier with an exact final polish. Defaults from the
    /// `DISTENC_TIER` environment variable (unset ⇒ exact).
    pub solver_tier: SolverTier,
    /// Optional checkpoint cadence for fault recovery (see
    /// [`CheckpointPolicy`]). `None` (the default) never snapshots.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Default for AdmmConfig {
    fn default() -> Self {
        AdmmConfig {
            rank: 10,
            lambda: 0.1,
            alpha: 1.0,
            eta0: 1.0,
            rho: 1.05,
            eta_max: 1.0e6,
            max_iters: 60,
            tol: 1.0e-3,
            eigen_k: 20,
            seed: 42,
            nonneg: false,
            partition: distenc_partition::PartitionStrategy::Greedy,
            layout: None,
            exec: distenc_dataflow::ExecMode::default(),
            fused: true,
            solver_tier: SolverTier::default(),
            checkpoint: None,
        }
    }
}

impl AdmmConfig {
    /// Builder-style rank override.
    pub fn with_rank(mut self, rank: usize) -> Self {
        self.rank = rank;
        self
    }

    /// Builder-style host-execution-backend override.
    pub fn with_exec(mut self, exec: distenc_dataflow::ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// Builder-style iteration cap override.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Builder-style auxiliary-weight override.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style tolerance override.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Builder-style eigen-truncation override.
    pub fn with_eigen_k(mut self, k: usize) -> Self {
        self.eigen_k = k;
        self
    }

    /// Builder-style fused-sweep override (see [`AdmmConfig::fused`]).
    pub fn with_fused(mut self, fused: bool) -> Self {
        self.fused = fused;
        self
    }

    /// Builder-style solver-tier override (see [`SolverTier`]).
    pub fn with_tier(mut self, tier: SolverTier) -> Self {
        self.solver_tier = tier;
        self
    }

    /// Builder-style sketched-tier shorthand: `samples` draws per sampled
    /// step and the default exact polish tail
    /// ([`DEFAULT_POLISH_ITERS`]).
    pub fn with_sketched(mut self, samples: usize) -> Self {
        self.solver_tier =
            SolverTier::Sketched { samples, polish_iters: DEFAULT_POLISH_ITERS };
        self
    }

    /// Builder-style checkpoint-policy override (see
    /// [`CheckpointPolicy`]).
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Builder-style residual-layout override (see [`AdmmConfig::layout`]).
    pub fn with_layout(mut self, layout: distenc_tensor::LayoutKind) -> Self {
        self.layout = Some(layout);
        self
    }

    /// The residual layout this config selects, with the documented
    /// precedence: an explicit [`AdmmConfig::layout`] wins, else the
    /// `DISTENC_LAYOUT` environment variable (an unknown name is a typed
    /// error, consistent with `--layout` parsing — a typo must not
    /// silently change which kernels run), else [`LayoutKind::Tiled`],
    /// the production default.
    ///
    /// [`LayoutKind::Tiled`]: distenc_tensor::LayoutKind::Tiled
    pub fn resolved_layout(
        &self,
    ) -> std::result::Result<distenc_tensor::LayoutKind, String> {
        use distenc_tensor::LayoutKind;
        if let Some(kind) = self.layout {
            return Ok(kind);
        }
        match LayoutKind::from_env() {
            Ok(kind) => Ok(kind.unwrap_or(LayoutKind::Tiled)),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Sanity-check parameter ranges, returning a description of the first
    /// violation. Also rejects a malformed `DISTENC_THREADS` or
    /// `DISTENC_TIER`: the env-driven defaults of [`AdmmConfig::exec`] and
    /// [`AdmmConfig::solver_tier`] cannot fail, so this is where a typo in
    /// either surfaces, before any solve runs on the fallback.
    pub fn validate(&self) -> std::result::Result<(), String> {
        distenc_dataflow::ExecMode::from_env()?;
        SolverTier::from_env()?;
        if self.rank == 0 {
            return Err("rank must be ≥ 1".into());
        }
        if self.lambda < 0.0 || self.alpha < 0.0 {
            return Err("λ and α must be non-negative".into());
        }
        if self.eta0 <= 0.0 || self.eta_max < self.eta0 {
            return Err("need 0 < η₀ ≤ η_max".into());
        }
        if self.rho < 1.0 {
            return Err("ρ must be ≥ 1 (penalty must not shrink)".into());
        }
        if self.max_iters == 0 {
            return Err("max_iters must be ≥ 1".into());
        }
        if !(self.tol.is_finite() && self.tol > 0.0) {
            return Err("tol must be positive".into());
        }
        if let SolverTier::Sketched { samples, .. } = self.solver_tier {
            if samples == 0 {
                return Err("sketched tier needs samples ≥ 1".into());
            }
        }
        if let Some(policy) = &self.checkpoint {
            if policy.every_n_iters == 0 {
                return Err("checkpoint cadence must be ≥ 1 iteration".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(AdmmConfig::default().validate().is_ok());
    }

    #[test]
    fn builders_chain() {
        let c = AdmmConfig::default()
            .with_rank(5)
            .with_max_iters(9)
            .with_alpha(0.5)
            .with_seed(7)
            .with_tol(1e-6)
            .with_eigen_k(3)
            .with_fused(false);
        assert!(!c.fused);
        assert!(AdmmConfig::default().fused, "fusion is the default schedule");
        assert_eq!(c.rank, 5);
        assert_eq!(c.max_iters, 9);
        assert_eq!(c.alpha, 0.5);
        assert_eq!(c.seed, 7);
        assert_eq!(c.tol, 1e-6);
        assert_eq!(c.eigen_k, 3);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(AdmmConfig { rank: 0, ..Default::default() }.validate().is_err());
        assert!(AdmmConfig { lambda: -1.0, ..Default::default() }.validate().is_err());
        assert!(AdmmConfig { eta0: 0.0, ..Default::default() }.validate().is_err());
        assert!(AdmmConfig { rho: 0.5, ..Default::default() }.validate().is_err());
        assert!(AdmmConfig { eta_max: 0.1, eta0: 1.0, ..Default::default() }
            .validate()
            .is_err());
        assert!(AdmmConfig { max_iters: 0, ..Default::default() }.validate().is_err());
        assert!(AdmmConfig { tol: f64::NAN, ..Default::default() }.validate().is_err());
        assert!(AdmmConfig::default().with_sketched(0).validate().is_err());
    }

    #[test]
    fn tier_spec_parses() {
        assert_eq!(SolverTier::parse("exact"), Ok(SolverTier::Exact));
        assert_eq!(
            SolverTier::parse("sketched"),
            Ok(SolverTier::Sketched { samples: 4096, polish_iters: DEFAULT_POLISH_ITERS })
        );
        assert_eq!(
            SolverTier::parse(" sketched:512 "),
            Ok(SolverTier::Sketched { samples: 512, polish_iters: DEFAULT_POLISH_ITERS })
        );
        assert_eq!(
            SolverTier::parse("sketched:512:3"),
            Ok(SolverTier::Sketched { samples: 512, polish_iters: 3 })
        );
    }

    #[test]
    fn tier_typos_are_errors() {
        // Unknown names and malformed numbers used to fall back to
        // `Exact` silently.
        for bad in ["nonsense", "sketchd", "", "sketched:many", "sketched:512:3:1", "exact:5"] {
            let err = SolverTier::parse(bad).unwrap_err();
            assert!(err.contains("not a solver tier"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn explicit_layout_beats_env() {
        // Env-independent precedence check: an explicit config layout
        // wins regardless of DISTENC_LAYOUT (the env and default cases
        // live in tests/layout_equivalence.rs, which owns the variable).
        use distenc_tensor::LayoutKind;
        for kind in [LayoutKind::Coo, LayoutKind::Tiled] {
            let c = AdmmConfig::default().with_layout(kind);
            assert_eq!(c.resolved_layout().unwrap(), kind);
            assert!(c.validate().is_ok());
        }
    }

    #[test]
    fn sketched_builders_chain() {
        let c = AdmmConfig::default()
            .with_tier(SolverTier::Sketched { samples: 100, polish_iters: 2 });
        assert_eq!(c.solver_tier, SolverTier::Sketched { samples: 100, polish_iters: 2 });
        assert!(c.solver_tier.is_sketched());
        let c = AdmmConfig::default().with_sketched(777);
        assert_eq!(
            c.solver_tier,
            SolverTier::Sketched { samples: 777, polish_iters: DEFAULT_POLISH_ITERS }
        );
        assert!(c.validate().is_ok());
    }
}
