//! Determinism and degeneracy contracts of the sketched solver tier.
//!
//! The sketched tier is randomized, but its randomness is *pinned*: the
//! sampler draws sequentially on the driver thread from a config-seeded
//! RNG, so the whole sampled schedule is a pure function of (tensor,
//! config). These tests hold the tier to that contract:
//!
//! * same seed + config ⇒ bit-identical sampled index sets, and
//!   bit-identical factors under `ExecMode::Sequential` vs
//!   `ExecMode::Threads(4)`, on both the tiled and COO layouts (proptest,
//!   across seeds);
//! * `samples ≥ nnz` degenerates to the exact tier **bit-identically**
//!   (the documented fallback routes through `HostBackend` before any
//!   sketched machinery is built);
//! * negative paths are typed errors or documented fallbacks — never
//!   panics: `samples == 0` and `tol ≤ 0` are rejected at config
//!   validation, `polish_iters ≥ max_iters` falls back to exact, and
//!   `sketched + fused=false` runs the sketch phase's own fused sampled
//!   sweep (the ablation flag only governs the exact path).

use distenc::core::{AdmmConfig, AdmmSolver, CompletionResult, LayoutKind, SolverTier};
use distenc::dataflow::ExecMode;
use distenc::tensor::sample::EntrySampler;
use distenc::tensor::{CooTensor, KruskalTensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Planted low-rank data, same construction as the solver unit tests.
fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    let truth = KruskalTensor::random(shape, rank, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
    let mut mask = CooTensor::new(shape.to_vec());
    for _ in 0..nnz {
        let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
        mask.push(&idx, 1.0).unwrap();
    }
    mask.sort_dedup();
    truth.eval_at(&mask).unwrap()
}

fn solve(observed: &CooTensor, cfg: AdmmConfig) -> CompletionResult {
    let laps = vec![None; observed.order()];
    AdmmSolver::new(cfg).unwrap().solve(observed, &laps).unwrap()
}

/// Factor matrices as raw f64 bits, for exact comparison.
fn factor_bits(r: &CompletionResult) -> Vec<Vec<u64>> {
    r.model
        .factors()
        .iter()
        .map(|f| f.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

proptest! {
    // Full solves per case: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sampler_index_sets_are_bit_identical_for_a_seed(
        seed in any::<u64>(),
        count in 1usize..256,
        data_seed in 0u64..64,
    ) {
        let t = planted(&[9, 8, 7], 2, 300, data_seed);
        let s = EntrySampler::norm_proportional(&t).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        s.draw_into(&mut StdRng::seed_from_u64(seed), count, &mut a);
        s.draw_into(&mut StdRng::seed_from_u64(seed), count, &mut b);
        prop_assert_eq!(&a, &b);
        // A freshly built sampler over the same tensor draws the same
        // sets: the distribution is a pure function of the values.
        let s2 = EntrySampler::norm_proportional(&t).unwrap();
        let mut c = Vec::new();
        s2.draw_into(&mut StdRng::seed_from_u64(seed), count, &mut c);
        prop_assert_eq!(&a, &c);
        prop_assert!(a.iter().all(|&p| p < t.nnz()));
    }

    #[test]
    fn sketched_factors_are_bit_identical_across_executors(
        seed in 0u64..256,
        tiled in any::<bool>(),
    ) {
        let observed = planted(&[12, 10, 8], 2, 700, seed);
        let samples = (observed.nnz() / 3).max(1);
        let base = AdmmConfig {
            rank: 2,
            max_iters: 8,
            tol: 1e-12,
            seed,
            layout: Some(if tiled { LayoutKind::Tiled } else { LayoutKind::Coo }),
            solver_tier: SolverTier::Sketched { samples, polish_iters: 3 },
            ..Default::default()
        };
        let seq = solve(&observed, AdmmConfig { exec: ExecMode::Sequential, ..base.clone() });
        let par = solve(&observed, AdmmConfig { exec: ExecMode::Threads(4), ..base });
        prop_assert_eq!(seq.iterations, par.iterations);
        prop_assert_eq!(factor_bits(&seq), factor_bits(&par));
        // The traces agree bit-for-bit too (sampled RMSE estimates
        // included) — seconds are wall-clock and excluded.
        for (a, b) in seq.trace.points.iter().zip(&par.trace.points) {
            prop_assert_eq!(a.train_rmse.to_bits(), b.train_rmse.to_bits());
            prop_assert_eq!(a.factor_delta.to_bits(), b.factor_delta.to_bits());
        }
    }
}

#[test]
fn oversized_sample_budget_is_bit_identical_to_exact() {
    let observed = planted(&[10, 9, 8], 2, 500, 21);
    let base = AdmmConfig { rank: 2, max_iters: 10, tol: 1e-12, ..Default::default() };
    let exact = solve(&observed, base.clone());
    for samples in [observed.nnz(), observed.nnz() + 1, observed.nnz() * 10] {
        let sk = solve(
            &observed,
            AdmmConfig {
                solver_tier: SolverTier::Sketched { samples, polish_iters: 2 },
                ..base.clone()
            },
        );
        assert_eq!(factor_bits(&exact), factor_bits(&sk), "samples = {samples}");
        assert_eq!(exact.iterations, sk.iterations);
    }
}

#[test]
fn polish_budget_covering_the_run_is_bit_identical_to_exact() {
    let observed = planted(&[10, 9, 8], 2, 500, 22);
    let base = AdmmConfig { rank: 2, max_iters: 6, tol: 1e-12, ..Default::default() };
    let exact = solve(&observed, base.clone());
    for polish_iters in [6, 7, 100] {
        let sk = solve(
            &observed,
            AdmmConfig {
                solver_tier: SolverTier::Sketched { samples: 50, polish_iters },
                ..base.clone()
            },
        );
        assert_eq!(factor_bits(&exact), factor_bits(&sk), "polish = {polish_iters}");
    }
}

#[test]
fn zero_samples_is_a_typed_config_error() {
    let cfg = AdmmConfig {
        solver_tier: SolverTier::Sketched { samples: 0, polish_iters: 2 },
        ..Default::default()
    };
    let err = AdmmSolver::new(cfg).unwrap_err();
    assert!(matches!(err, distenc::core::CoreError::Invalid(_)), "got {err:?}");
    assert!(err.to_string().contains("samples"), "message: {err}");
}

#[test]
fn nonpositive_tol_is_a_typed_config_error() {
    for tol in [0.0, -1e-6, f64::NAN] {
        let cfg = AdmmConfig {
            tol,
            solver_tier: SolverTier::Sketched { samples: 64, polish_iters: 2 },
            ..Default::default()
        };
        let err = AdmmSolver::new(cfg).unwrap_err();
        assert!(matches!(err, distenc::core::CoreError::Invalid(_)), "tol {tol}: {err:?}");
    }
}

#[test]
fn sketched_with_fused_disabled_runs_and_stays_finite() {
    // The `fused` ablation flag governs the exact path only; the sketch
    // phase always uses its own fused sampled sweep (there is no unfused
    // sampled schedule). Documented fallback, not an error — and the
    // polish phase honors the flag.
    let observed = planted(&[10, 9, 8], 2, 500, 23);
    let cfg = AdmmConfig {
        rank: 2,
        max_iters: 10,
        tol: 1e-12,
        fused: false,
        solver_tier: SolverTier::Sketched { samples: 100, polish_iters: 3 },
        ..Default::default()
    };
    let res = solve(&observed, cfg);
    assert_eq!(res.iterations, 10);
    for f in res.model.factors() {
        assert!(f.as_slice().iter().all(|v| v.is_finite()));
    }
    let rmse = distenc::tensor::residual::observed_rmse(&observed, &res.model).unwrap();
    assert!(rmse.is_finite());
}

#[test]
fn polish_phase_continues_trace_numbering_and_timing() {
    let observed = planted(&[10, 9, 8], 2, 500, 24);
    let cfg = AdmmConfig {
        rank: 2,
        max_iters: 9,
        tol: 1e-12,
        solver_tier: SolverTier::Sketched { samples: 100, polish_iters: 4 },
        ..Default::default()
    };
    let res = solve(&observed, cfg);
    assert_eq!(res.iterations, 9);
    assert_eq!(res.trace.points.len(), 9);
    for (i, p) in res.trace.points.iter().enumerate() {
        assert_eq!(p.iter, i, "trace renumbering across the phase boundary");
    }
    // Seconds are cumulative across both phases (shared clock).
    for w in res.trace.points.windows(2) {
        assert!(w[1].seconds >= w[0].seconds);
    }
}
