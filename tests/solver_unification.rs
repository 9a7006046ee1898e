//! Cross-driver unification tests: `AdmmSolver` and `DisTenC` now share
//! one solver core (`distenc-core`'s `solver` module), so their agreement
//! is a *structural* fact, not a numerical coincidence. These tests pin
//! the two strongest consequences:
//!
//! 1. On a **one-machine cluster** the distributed decomposition collapses
//!    to a single block and a single partition per mode, making every
//!    kernel's floating-point association identical to the serial
//!    solver's — the two drivers must agree **bit for bit**, at any
//!    `DISTENC_THREADS` setting (both sides are thread-count bit-exact).
//! 2. On a **multi-machine cluster** only the per-block accumulation
//!    order differs, so factors agree to rounding (1e-8).
//!
//! Plus regression tests that an empty observed tensor is an error from
//! every solver — never a `NaN` train RMSE (0/0) leaking into the trace —
//! and that a solve going non-finite is a typed divergence error on every
//! tier, never a "converged" NaN model.

use distenc::baselines::{AlsConfig, AlsSolver};
use distenc::core::{AdmmConfig, AdmmSolver, CoreError, DisTenC, SolverTier};
use distenc::dataflow::{Cluster, ClusterConfig};
use distenc::tensor::{CooTensor, KruskalTensor, TensorError};
use proptest::prelude::*;

fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let truth = KruskalTensor::random(shape, rank, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut mask = CooTensor::new(shape.to_vec());
    for _ in 0..nnz {
        let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
        mask.push(&idx, 1.0).unwrap();
    }
    mask.sort_dedup();
    truth.eval_at(&mask).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One machine ⇒ one block, one partition per mode ⇒ the cluster
    /// backend's kernels run the very same floating-point associations as
    /// the host backend's. Every factor entry, every traced RMSE, and
    /// every traced delta must be bit-identical.
    #[test]
    fn one_machine_distenc_is_bitwise_the_serial_solver(
        dims in prop::collection::vec(3usize..=9, 3),
        rank in 1usize..=3,
        nnz in 30usize..=90,
        seed in any::<u64>(),
    ) {
        let observed = planted(&dims, rank, nnz, seed);
        let cfg = AdmmConfig { rank, max_iters: 4, tol: 1e-12, ..Default::default() };

        let serial = AdmmSolver::new(cfg.clone())
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap();
        let cluster = Cluster::new(ClusterConfig::test(1).with_time_budget(None));
        let dist = DisTenC::new(&cluster, cfg)
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap();

        prop_assert_eq!(serial.iterations, dist.iterations);
        for (a, b) in serial.model.factors().iter().zip(dist.model.factors()) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "factor entries must be bit-identical");
            }
        }
        for (p, q) in serial.trace.points.iter().zip(&dist.trace.points) {
            prop_assert_eq!(p.train_rmse.to_bits(), q.train_rmse.to_bits());
            prop_assert_eq!(p.factor_delta.to_bits(), q.factor_delta.to_bits());
        }
    }

    /// Multi-machine blocking only reassociates the MTTKRP and Gram sums:
    /// the shared core guarantees everything else, so factors agree to
    /// rounding.
    #[test]
    fn multi_machine_distenc_matches_serial_to_rounding(
        machines in 2usize..=4,
        seed in any::<u64>(),
    ) {
        let observed = planted(&[12, 10, 8], 2, 300, seed);
        let cfg = AdmmConfig { rank: 2, max_iters: 6, tol: 1e-12, ..Default::default() };
        let serial = AdmmSolver::new(cfg.clone())
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap();
        let cluster = Cluster::new(ClusterConfig::test(machines).with_time_budget(None));
        let dist = DisTenC::new(&cluster, cfg)
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap();
        for (a, b) in serial.model.factors().iter().zip(dist.model.factors()) {
            prop_assert!(a.frob_dist(b).unwrap() < 1e-8);
        }
    }
}

/// An empty observed tensor must surface as a setup error from every
/// solver — the shared core also guards it defensively so a future driver
/// can never produce `train_rmse = √(0/0) = NaN`.
#[test]
fn empty_tensor_is_an_error_not_a_nan() {
    let empty = CooTensor::new(vec![6, 5, 4]);
    let cfg = AdmmConfig { rank: 2, max_iters: 3, ..Default::default() };

    let serial = AdmmSolver::new(cfg.clone()).unwrap().solve(&empty, &[None, None, None]);
    assert!(serial.is_err(), "AdmmSolver must reject an empty tensor");

    let cluster = Cluster::new(ClusterConfig::test(2).with_time_budget(None));
    let dist = DisTenC::new(&cluster, cfg).unwrap().solve(&empty, &[None, None, None]);
    assert!(dist.is_err(), "DisTenC must reject an empty tensor");

    let als = AlsSolver::new(AlsConfig { rank: 2, max_iters: 3, ..Default::default() })
        .unwrap()
        .solve(&empty);
    assert!(als.is_err(), "ALS baseline must reject an empty tensor");
}

/// The error path must fire before any trace point exists: no partial
/// trace with NaNs, no "converged" flag.
#[test]
fn empty_tensor_error_carries_no_partial_state() {
    let empty = CooTensor::new(vec![4, 4]);
    let solver = AdmmSolver::new(AdmmConfig { rank: 2, ..Default::default() }).unwrap();
    let err = solver.solve(&empty, &[None, None]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("no entries"), "unexpected error message: {msg}");
}

/// Every tier on `observed`: exact host, sketched host, and the cluster.
fn solve_every_tier(observed: &CooTensor) -> Vec<(&'static str, Result<bool, CoreError>)> {
    let cfg = AdmmConfig { rank: 2, max_iters: 10, ..Default::default() };
    let laps = [None, None, None];
    let exact = AdmmSolver::new(cfg.clone()).unwrap().solve(observed, &laps);
    let tier = SolverTier::Sketched { samples: observed.nnz() / 3, polish_iters: 2 };
    let sketched = AdmmSolver::new(cfg.clone().with_tier(tier)).unwrap().solve(observed, &laps);
    let cluster = Cluster::new(ClusterConfig::test(3).with_time_budget(None));
    let dist = DisTenC::new(&cluster, cfg).unwrap().solve(observed, &laps);
    [("exact", exact), ("sketched", sketched), ("cluster", dist)]
        .into_iter()
        .map(|(tier, r)| (tier, r.map(|r| r.converged)))
        .collect()
}

#[test]
fn diverging_solve_is_a_typed_error_on_every_tier() {
    // Finite input whose residual squares overflow: the first factor
    // update is ~1e300, so the factor delta (and the RMSE) leave the
    // finite range. Unguarded, the exact tier reports convergence with a
    // non-finite model (`max` drops a NaN delta).
    let mut observed = planted(&[8, 7, 6], 2, 150, 3);
    observed.values_mut()[5] = 1e300;
    for (tier, res) in solve_every_tier(&observed) {
        assert!(matches!(res, Err(CoreError::Diverged { .. })), "{tier}: got {res:?}");
    }
}

#[test]
fn non_finite_values_written_in_place_are_rejected_on_every_tier() {
    // Construction rejects NaN/inf entries; values written in place
    // afterwards are caught at the solve boundary with the same typed
    // error, on every tier, before any kernel runs.
    for bad in [f64::NAN, f64::INFINITY] {
        let mut observed = planted(&[8, 7, 6], 2, 150, 3);
        observed.values_mut()[5] = bad;
        for (tier, res) in solve_every_tier(&observed) {
            assert!(
                matches!(res, Err(CoreError::Tensor(TensorError::NonFinite { .. }))),
                "{tier} ({bad}): got {res:?}"
            );
        }
    }
}
