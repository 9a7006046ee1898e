//! Allocation-budget test for the unified solver core (requires
//! `--features alloc-count`, which installs the counting global
//! allocator; without the feature this file compiles to nothing).
//!
//! The contract (see `distenc-core`'s `solver` module docs): after
//! `SolverState` and the backend size their workspaces, a steady-state
//! host iteration performs **zero** heap allocations — sequential *and*
//! threaded, with fusion on (the default) or off. The threaded executor
//! used to box one job per dispatch unit (~32 boxes per iteration); it
//! now hands work to the resident pool through `Pool::run_indexed`, an
//! unboxed index broadcast, so nothing is left to allocate.
//!
//! Methodology: the solver is deterministic, so two runs differing only
//! in `max_iters` (2 vs 10) perform identical setup work; the difference
//! in allocation counts divided by 8 is exactly the per-iteration cost.
//! All measurements live in one `#[test]` because the global counters are
//! process-wide and concurrently running tests would pollute each other.

#![cfg(feature = "alloc-count")]

use distenc::core::{AdmmConfig, AdmmSolver};
use distenc::dataflow::alloc;
use distenc::dataflow::ExecMode;
use distenc::tensor::{CooTensor, KruskalTensor};

fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let truth = KruskalTensor::random(shape, rank, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa11c);
    let mut mask = CooTensor::new(shape.to_vec());
    for _ in 0..nnz {
        let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
        mask.push(&idx, 1.0).unwrap();
    }
    mask.sort_dedup();
    truth.eval_at(&mask).unwrap()
}

/// Thread-local allocation count of one full solve.
fn thread_allocs_of(observed: &CooTensor, cfg: &AdmmConfig) -> u64 {
    let before = alloc::snapshot();
    let res = AdmmSolver::new(cfg.clone())
        .unwrap()
        .solve(observed, &[None, None, None])
        .unwrap();
    let d = alloc::snapshot().delta(before);
    assert_eq!(res.iterations, cfg.max_iters, "must not converge early");
    drop(res);
    d.thread_allocs
}

/// Global (all-threads) allocation count of one full solve.
fn global_allocs_of(observed: &CooTensor, cfg: &AdmmConfig) -> u64 {
    let before = alloc::snapshot();
    let res = AdmmSolver::new(cfg.clone())
        .unwrap()
        .solve(observed, &[None, None, None])
        .unwrap();
    let d = alloc::snapshot().delta(before);
    assert_eq!(res.iterations, cfg.max_iters, "must not converge early");
    drop(res);
    d.global_allocs
}

/// Per-steady-iteration allocations: difference between a 10-iteration
/// and a 2-iteration run of the *same* problem, over the 8 extra
/// iterations. Setup allocations cancel exactly (the solver is
/// deterministic and both runs size identical workspaces).
fn per_iter(observed: &CooTensor, cfg: &AdmmConfig, count: fn(&CooTensor, &AdmmConfig) -> u64) -> f64 {
    let short = AdmmConfig { max_iters: 2, ..cfg.clone() };
    let long = AdmmConfig { max_iters: 10, ..cfg.clone() };
    let a = count(observed, &short);
    let b = count(observed, &long);
    (b.saturating_sub(a)) as f64 / 8.0
}

#[test]
fn steady_state_iterations_allocate_o1_heap() {
    // tol far below reachable so every run executes exactly max_iters.
    // The default layout is the production one: tiled, fused sweep.
    let base = AdmmConfig { rank: 3, tol: 1e-300, ..Default::default() };
    let small = planted(&[14, 12, 10], 3, 600, 2);
    let large = planted(&[28, 24, 20], 3, 2400, 3);

    // --- Sequential: literally zero allocations per steady iteration,
    // --- with the fused sweep (default) and without it. -----------------
    let seq = AdmmConfig { exec: ExecMode::Sequential, ..base.clone() };
    let seq_small = per_iter(&small, &seq, thread_allocs_of);
    assert_eq!(seq_small, 0.0, "sequential fused steady state must not allocate");
    let seq_unfused = per_iter(&small, &seq.clone().with_fused(false), thread_allocs_of);
    assert_eq!(seq_unfused, 0.0, "sequential unfused steady state must not allocate");
    let seq_large = per_iter(&large, &seq, thread_allocs_of);
    assert_eq!(seq_large, 0.0, "sequential budget must not grow with nnz");
    let seq_rank5 = per_iter(
        &planted(&[14, 12, 10], 3, 600, 2),
        &AdmmConfig { rank: 5, ..seq.clone() },
        thread_allocs_of,
    );
    assert_eq!(seq_rank5, 0.0, "sequential budget must not grow with rank");

    // --- Threaded: also zero. The unboxed broadcast dispatches through
    // pool-resident state, and on hosts where the pool is bypassed (a
    // single core, or single-chunk work) the inline fast path is the
    // sequential loop above. Measured globally so worker-thread
    // allocations would be caught too.
    let thr = AdmmConfig { exec: ExecMode::Threads(4), ..base.clone() };
    let thr_small = per_iter(&small, &thr, global_allocs_of);
    assert_eq!(thr_small, 0.0, "threaded steady state must not allocate");
    let thr_large = per_iter(&large, &thr, global_allocs_of);
    assert_eq!(thr_large, 0.0, "threaded budget must not grow with nnz");
    let thr_rank5 = per_iter(
        &planted(&[14, 12, 10], 3, 600, 2),
        &AdmmConfig { rank: 5, ..thr.clone() },
        global_allocs_of,
    );
    assert_eq!(thr_rank5, 0.0, "threaded budget must not grow with rank");
}

/// The dispatch mechanism itself, measured directly on the pool: an index
/// broadcast allocates nothing, no matter how many indices it fans out.
/// (The solver-level assertions above inline on single-core hosts; this
/// pins the pool path everywhere.)
#[test]
fn pool_index_broadcast_allocates_nothing() {
    use std::sync::atomic::{AtomicU64, Ordering};
    // `Pool::new` returns only once both workers run, so no thread's
    // startup state can land in the measured window.
    let pool = scoped_pool::Pool::new(2);
    let hits = AtomicU64::new(0);
    let task = |_i: usize| {
        hits.fetch_add(1, Ordering::Relaxed);
    };
    // Warm up so lazily initialized thread state doesn't bill the
    // measured window.
    pool.run_indexed(64, &task);
    let before = alloc::snapshot();
    for _ in 0..10 {
        pool.run_indexed(64, &task);
    }
    let d = alloc::snapshot().delta(before);
    assert_eq!(hits.load(Ordering::Relaxed), 64 * 11);
    assert_eq!(
        d.global_allocs, 0,
        "run_indexed must not allocate on any thread in steady state"
    );
}
