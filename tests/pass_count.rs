//! The pass-count gate: fusion saves exactly one sweep over the nonzeros
//! per iteration (requires `--features pass-count`; without the feature
//! this file compiles to nothing).
//!
//! Every entry-sweep kernel ticks `distenc_dataflow::passes` once per
//! *invocation* — never per thread, chunk, or block — so the counts are
//! identical on any host and under any `DISTENC_THREADS` setting. The
//! contract (see `distenc-core`'s `solver` module docs): a steady-state
//! iteration of an order-N solve sweeps the entry list
//!
//! * **N+1** times unfused — N MTTKRPs plus the residual refresh,
//! * **N** times fused — N−1 MTTKRPs, one fused refresh+MTTKRP sweep, and
//!   a mode-0 update served from the stash without touching the entries.
//!
//! Only the tiled layout (the default) has a fused kernel; on the COO
//! reference layout the fused schedule runs the refresh and the mode-0
//! MTTKRP as two sweeps, so it stays at N+1.
//!
//! Alongside sweeps, the instrument counts **entries touched**, which is
//! what prices the sketched tier: a sampled gather of `S` draws charges
//! `S` entries but zero sweeps (it never traverses the full list). A
//! steady-state *sketch-phase* iteration therefore touches exactly
//! `N·samples` entries — `N−1` sampled MTTKRPs plus one fused sampled
//! sweep that banks the mode-0 estimate — where an exact fused iteration
//! touches `N·nnz`. The gate below pins both counts exactly and the
//! `≥ 2×` discount at the accuracy gate's `samples = nnz/4` budget.
//!
//! Methodology mirrors `tests/alloc_budget.rs`: the solver is
//! deterministic, so runs differing only in `max_iters` (2 vs 10) do
//! identical setup; the sweep-count difference over the 8 extra
//! iterations is exactly the per-iteration cost. For the sketched tier
//! the polish budget is held fixed while `max_iters` grows, so the 8
//! extra iterations are all sketch-phase iterations (the polish phase,
//! the prologue, and the phase-boundary exact refresh are identical in
//! both runs and cancel). One `#[test]` because the counter is
//! process-global.

#![cfg(feature = "pass-count")]

use distenc::core::{AdmmConfig, AdmmSolver, DisTenC, LayoutKind, SolverTier};
use distenc::dataflow::passes;
use distenc::dataflow::{Cluster, ClusterConfig};
use distenc::tensor::{CooTensor, KruskalTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    let truth = KruskalTensor::random(shape, rank, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a55);
    let mut mask = CooTensor::new(shape.to_vec());
    for _ in 0..nnz {
        let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
        mask.push(&idx, 1.0).unwrap();
    }
    mask.sort_dedup();
    truth.eval_at(&mask).unwrap()
}

/// Entry sweeps per steady-state iteration of the host solver.
fn host_sweeps_per_iter(observed: &CooTensor, cfg: &AdmmConfig) -> f64 {
    let count = |iters: usize| {
        let cfg = AdmmConfig { max_iters: iters, ..cfg.clone() };
        let laps = vec![None; observed.order()];
        let before = passes::sweeps();
        let res = AdmmSolver::new(cfg).unwrap().solve(observed, &laps).unwrap();
        assert_eq!(res.iterations, iters, "must not converge early");
        passes::sweeps() - before
    };
    (count(10) - count(2)) as f64 / 8.0
}

/// Entry sweeps per steady-state iteration of the distributed solver.
fn distenc_sweeps_per_iter(observed: &CooTensor, cfg: &AdmmConfig) -> f64 {
    let count = |iters: usize| {
        let cfg = AdmmConfig { max_iters: iters, ..cfg.clone() };
        let laps = vec![None; observed.order()];
        let cluster = Cluster::new(ClusterConfig::test(3).with_time_budget(None));
        let before = passes::sweeps();
        let res = DisTenC::new(&cluster, cfg).unwrap().solve(observed, &laps).unwrap();
        assert_eq!(res.iterations, iters, "must not converge early");
        passes::sweeps() - before
    };
    (count(10) - count(2)) as f64 / 8.0
}

/// Entries touched per steady-state iteration of the host solver.
fn host_entries_per_iter(observed: &CooTensor, cfg: &AdmmConfig) -> f64 {
    let count = |iters: usize| {
        let cfg = AdmmConfig { max_iters: iters, ..cfg.clone() };
        let laps = vec![None; observed.order()];
        let before = passes::entries_touched();
        let res = AdmmSolver::new(cfg).unwrap().solve(observed, &laps).unwrap();
        assert_eq!(res.iterations, iters, "must not converge early");
        passes::entries_touched() - before
    };
    (count(10) - count(2)) as f64 / 8.0
}

/// (sweeps, entries) per steady-state *sketch-phase* iteration: the
/// polish budget stays fixed while `max_iters` grows, so the differenced
/// iterations are all sampled ones.
fn sketched_per_iter(
    observed: &CooTensor,
    cfg: &AdmmConfig,
    samples: usize,
    polish_iters: usize,
) -> (f64, f64) {
    let count = |sketch_iters: usize| {
        let cfg = AdmmConfig {
            max_iters: polish_iters + sketch_iters,
            solver_tier: SolverTier::Sketched { samples, polish_iters },
            ..cfg.clone()
        };
        let laps = vec![None; observed.order()];
        let (s0, e0) = (passes::sweeps(), passes::entries_touched());
        let res = AdmmSolver::new(cfg).unwrap().solve(observed, &laps).unwrap();
        assert_eq!(res.iterations, polish_iters + sketch_iters, "must not converge early");
        (passes::sweeps() - s0, passes::entries_touched() - e0)
    };
    let (s_short, e_short) = count(2);
    let (s_long, e_long) = count(10);
    ((s_long - s_short) as f64 / 8.0, (e_long - e_short) as f64 / 8.0)
}

#[test]
fn fused_iterations_sweep_the_nonzeros_one_time_fewer() {
    let base = AdmmConfig { rank: 3, tol: 1e-300, ..Default::default() };
    let order3 = planted(&[14, 12, 10], 3, 600, 2);
    let order4 = planted(&[9, 8, 7, 6], 3, 700, 3);

    // --- Host solver, tiled layout (explicit, and as the default). ----
    // Cache-blocking reorders the entry walk but must not add passes:
    // the tiled sweep is one traversal of the (permuted) entry list.
    let fused = AdmmConfig { fused: true, ..base.clone() };
    let plain = AdmmConfig { fused: false, ..base.clone() };
    let tiled_fused = AdmmConfig { layout: Some(LayoutKind::Tiled), ..fused.clone() };
    let tiled_plain = AdmmConfig { layout: Some(LayoutKind::Tiled), ..plain.clone() };
    assert_eq!(host_sweeps_per_iter(&order3, &tiled_fused), 3.0, "order 3 fused");
    assert_eq!(host_sweeps_per_iter(&order3, &tiled_plain), 4.0, "order 3 unfused");
    assert_eq!(host_sweeps_per_iter(&order4, &tiled_fused), 4.0, "order 4 fused");
    assert_eq!(host_sweeps_per_iter(&order4, &tiled_plain), 5.0, "order 4 unfused");
    assert_eq!(host_sweeps_per_iter(&order3, &fused), 3.0, "default layout fused");

    // --- Host solver, COO reference layout: no fused kernel. ---------
    let coo_fused = AdmmConfig { layout: Some(LayoutKind::Coo), ..fused.clone() };
    let coo_plain = AdmmConfig { layout: Some(LayoutKind::Coo), ..plain.clone() };
    assert_eq!(host_sweeps_per_iter(&order3, &coo_fused), 4.0, "COO fused");
    assert_eq!(host_sweeps_per_iter(&order3, &coo_plain), 4.0, "COO unfused");

    // --- Distributed solver, block-local kernels. --------------------
    assert_eq!(distenc_sweeps_per_iter(&order3, &fused), 3.0, "distenc fused");
    assert_eq!(distenc_sweeps_per_iter(&order3, &plain), 4.0, "distenc unfused");

    // --- Entry touches: exact vs sketched. ---------------------------
    // An exact fused iteration touches every nonzero on each of its N
    // sweeps; a sketch-phase iteration touches exactly N·samples — and
    // performs *zero* full sweeps (sampled gathers are charged as
    // entries only).
    let nnz = order3.nnz() as f64;
    assert_eq!(host_entries_per_iter(&order3, &fused), 3.0 * nnz, "exact entries");
    assert_eq!(host_entries_per_iter(&order3, &tiled_fused), 3.0 * nnz, "tiled entries");
    let samples = order3.nnz() / 4;
    let (sk_sweeps, sk_entries) = sketched_per_iter(&order3, &base, samples, 2);
    assert_eq!(sk_sweeps, 0.0, "sketch-phase iterations do no full sweeps");
    assert_eq!(sk_entries, 3.0 * samples as f64, "sketched entries = N·samples");
    assert!(
        sk_entries <= 3.0 * samples as f64,
        "sketched iteration must touch ≤ samples·N entries"
    );
    let ratio = (3.0 * nnz) / sk_entries;
    assert!(ratio >= 2.0, "entry-touch discount {ratio:.2} below the 2x bar");
}
