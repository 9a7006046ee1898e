//! Streaming-vs-batch equivalence.
//!
//! The streaming contract has two tiers, both tested here:
//!
//! 1. **Bit-exact warm restart.** After `apply`, the carried residual is
//!    exactly `Ω∗(T − [[model…]])` on the new support, so a warm
//!    [`StreamingSolver::solve`] must be *bit-identical* to
//!    [`AdmmSolver::solve_from`] on the final tensor with the same
//!    (grown) model — for empty deltas, value updates, inserts, and
//!    dimension growth alike, on both the tiled and the COO layout.
//! 2. **Tolerance vs a cold solve.** A delta sequence plus warm
//!    re-solves must land at the same training quality a from-scratch
//!    solve of the final tensor reaches (local minima differ in the
//!    factors, so the comparison is on RMSE, not parameters).
//!
//! `ci.sh` runs this file under `DISTENC_THREADS=1` and `=4`; the exec
//! backend comes from `ExecMode::default()`, so both schedules are
//! covered without test-side plumbing.

use distenc::core::{AdmmConfig, AdmmSolver, LayoutKind};
use distenc::stream::{DeltaBatch, StreamingSolver};
use distenc::tensor::{CooTensor, KruskalTensor};
use proptest::prelude::*;
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

fn assert_models_bit_equal(a: &KruskalTensor, b: &KruskalTensor, what: &str) {
    for (n, (fa, fb)) in a.factors().iter().zip(b.factors()).enumerate() {
        assert_eq!(fa.rows(), fb.rows(), "{what}: mode {n} row count");
        for (x, y) in fa.as_slice().iter().zip(fb.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: mode {n} factor bits");
        }
    }
}

/// Build a random batch against `observed`: some value updates on
/// existing entries, some inserts into empty cells (possibly in a grown
/// slice), occasional growth of one mode. With `truth` given, values come
/// from that planted model (so the drifted tensor stays exactly low-rank
/// and completable) and growth never exceeds the truth's shape; without
/// it, values are arbitrary noise (fine for bit-exactness checks).
fn random_batch(
    observed: &CooTensor,
    rng: &mut StdRng,
    truth: Option<&KruskalTensor>,
) -> DeltaBatch {
    let base = observed.shape().to_vec();
    let order = base.len();
    let mut growth = vec![0usize; order];
    if rng.random_bool(0.5) {
        let mode = rng.random_range(0..order);
        let cap = truth.map_or(usize::MAX, |t| t.shape()[mode] - base[mode]);
        growth[mode] = rng.random_range(1usize..3).min(cap);
    }
    let new_shape: Vec<usize> = base.iter().zip(&growth).map(|(&d, &g)| d + g).collect();
    let value = |idx: &[usize], rng: &mut StdRng| match truth {
        Some(t) => t.eval(idx),
        None => rng.random_range(-1.0..1.0),
    };

    let mut updates = Vec::new();
    for _ in 0..rng.random_range(0..6) {
        let e = rng.random_range(0..observed.nnz());
        let idx = observed.index(e).to_vec();
        if updates.iter().all(|(i, _)| *i != idx) {
            let v = value(&idx, rng);
            updates.push((idx, v));
        }
    }
    let mut inserts: Vec<(Vec<usize>, f64)> = Vec::new();
    for _ in 0..rng.random_range(1..8) {
        let idx: Vec<usize> =
            new_shape.iter().map(|&d| rng.random_range(0..d)).collect();
        if observed.position_of(&idx).is_none() && inserts.iter().all(|(i, _)| *i != idx) {
            let v = value(&idx, rng);
            inserts.push((idx, v));
        }
    }
    DeltaBatch::try_new(&base, &growth, inserts, updates).unwrap()
}

#[test]
fn empty_delta_warm_resolve_is_bit_exact() {
    for layout in [LayoutKind::Coo, LayoutKind::Tiled] {
        let observed = planted(&[10, 9, 8], 2, 200, 11);
        let cfg = AdmmConfig { rank: 2, max_iters: 7, tol: 1e-12, ..Default::default() }
            .with_layout(layout);
        let mut s =
            StreamingSolver::new(observed.clone(), vec![None, None, None], cfg.clone()).unwrap();
        s.solve().unwrap();
        let before = s.model().unwrap().clone();

        // The degenerate batch: changes nothing.
        let b = DeltaBatch::try_new(&[10, 9, 8], &[0, 0, 0], vec![], vec![]).unwrap();
        s.apply(&b).unwrap();
        let warm = s.solve().unwrap();

        let oracle = AdmmSolver::new(cfg)
            .unwrap()
            .solve_from(&observed, &[None, None, None], &before)
            .unwrap();
        assert_eq!(warm.iterations, oracle.iterations, "layout {layout}");
        assert_models_bit_equal(&warm.model, &oracle.model, "empty delta");
    }
}

#[test]
fn delta_sequence_then_converge_matches_cold_solve_within_tolerance() {
    // One planted truth over the *final* (fully grown) shape; the base
    // tensor observes its [12,10,8] corner and every delta reveals more
    // of the same truth, so the drifted tensor stays exactly rank-2 and
    // both solvers can reach near-zero training error.
    let truth = KruskalTensor::random(&[18, 16, 14], 2, 29);
    let mut rng = StdRng::seed_from_u64(29 ^ 0xabcd);
    let mut observed = CooTensor::new(vec![12, 10, 8]);
    for _ in 0..500 {
        let idx: Vec<usize> =
            [12usize, 10, 8].iter().map(|&d| rng.random_range(0..d)).collect();
        observed.push(&idx, truth.eval(&idx)).unwrap();
    }
    observed.sort_dedup();

    // Near-zero ridge so the exactly-rank-2 data admits near-zero
    // training error (the default λ=0.1 shrinks factors and floors RMSE).
    let cfg =
        AdmmConfig { rank: 2, max_iters: 60, tol: 1e-10, lambda: 1e-6, ..Default::default() };
    let mut s = StreamingSolver::new(observed, vec![None, None, None], cfg.clone()).unwrap();
    s.solve().unwrap();

    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..3 {
        let b = random_batch(s.observed(), &mut rng, Some(&truth));
        s.apply(&b).unwrap();
        let _ = s.solve().unwrap();
    }
    // One final full-budget convergence pass on the drifted tensor.
    let warm = s.solve().unwrap();
    let cold = AdmmSolver::new(cfg)
        .unwrap()
        .solve(s.observed(), &[None, None, None])
        .unwrap();
    let (w, c) = (
        warm.trace.final_rmse().unwrap(),
        cold.trace.final_rmse().unwrap(),
    );
    // Same training quality: a stream of warm re-solves must not drift
    // away from what a from-scratch solve of the final tensor reaches.
    // (Both plateau at the solver's η-damped fixed point — around 0.18
    // RMSE on this data — and random inits land in different equivalent
    // minima, so the comparison is on RMSE, not factors.)
    assert!(w.is_finite() && c.is_finite());
    assert!(w < 0.5, "warm RMSE {w} lost the signal entirely");
    assert!(c < 0.5, "cold RMSE {c} lost the signal entirely");
    assert!((w - c).abs() < 0.05, "warm {w} vs cold {c}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any random delta sequence, warm-solved, lands bit-exactly where
    /// `solve_from` lands on the final tensor — growth, inserts, updates,
    /// tiled or COO layout.
    #[test]
    fn warm_resolve_matches_solve_from_bitwise(
        seed in 0u64..1000,
        n_batches in 1usize..4,
        tiled_bit in 0u8..2,
    ) {
        let layout = if tiled_bit == 1 { LayoutKind::Tiled } else { LayoutKind::Coo };
        let observed = planted(&[8, 7, 6], 2, 150, seed.wrapping_mul(7).wrapping_add(1));
        let cfg = AdmmConfig {
            rank: 2, max_iters: 5, tol: 1e-12, layout: Some(layout), ..Default::default()
        };
        let mut s = StreamingSolver::new(
            observed, vec![None, None, None], cfg.clone(),
        ).unwrap();
        s.solve().unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..n_batches {
            let b = random_batch(s.observed(), &mut rng, None);
            s.apply(&b).unwrap();
        }
        // The model StreamingSolver will warm-start from (post-growth).
        let init = s.model().unwrap().clone();
        let final_tensor = s.observed().clone();
        let warm = s.solve().unwrap();
        let oracle = AdmmSolver::new(cfg)
            .unwrap()
            .solve_from(&final_tensor, &[None, None, None], &init)
            .unwrap();
        prop_assert_eq!(warm.iterations, oracle.iterations);
        for (fa, fb) in warm.model.factors().iter().zip(oracle.model.factors()) {
            for (x, y) in fa.as_slice().iter().zip(fb.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
