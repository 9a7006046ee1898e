//! Thread-scaling benchmarks of the ADMM hot path: the blocked COO
//! MTTKRP, the residual refresh, and a full one-iteration solve at
//! 1/2/4/8 threads.
//!
//! Besides the criterion timings, the run writes `BENCH_parallel.json`
//! at the repository root with the measured medians and the host's
//! available parallelism. The JSON records what the host could actually
//! show: on a single-core container every thread count necessarily ties
//! (the pool adds dispatch overhead and nothing else), so speedups are
//! *reported*, never asserted.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use distenc_core::{AdmmConfig, AdmmSolver};
use distenc_dataflow::{ExecMode, Executor};
use distenc_linalg::Mat;
use distenc_partition::greedy_boundaries;
use distenc_tensor::mttkrp::{mttkrp_blocked_into, MttkrpWorkspace};
use distenc_tensor::residual::{residual_refresh_exec, ResidualWorkspace};
use distenc_tensor::{CooTensor, KruskalTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SHAPE: [usize; 3] = [300, 200, 100];
const NNZ: usize = 120_000;
const RANK: usize = 16;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn random_coo(seed: u64) -> CooTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = CooTensor::new(SHAPE.to_vec());
    for _ in 0..NNZ {
        let idx: Vec<usize> = SHAPE.iter().map(|&d| rng.random_range(0..d)).collect();
        t.push(&idx, rng.random::<f64>() * 2.0 - 1.0).unwrap();
    }
    t.sort_dedup();
    t
}

fn executor(n: usize) -> Executor {
    Executor::new(if n >= 2 { ExecMode::Threads(n) } else { ExecMode::Sequential })
}

/// Mode-0 blocked-MTTKRP workspace over the Algorithm 2 boundaries for
/// `exec`, plus its output buffer.
fn mttkrp_mode0(x: &CooTensor, exec: &Executor) -> (MttkrpWorkspace, Mat) {
    let cuts = greedy_boundaries(&x.slice_nnz(0), exec.parallelism());
    let ws = MttkrpWorkspace::new(x, 0, &cuts, RANK).unwrap();
    (ws, Mat::zeros(SHAPE[0], RANK))
}

fn bench_mttkrp_threads(c: &mut Criterion) {
    let x = random_coo(3);
    let model = KruskalTensor::random(&SHAPE, RANK, 5);
    let mut g = c.benchmark_group("mttkrp_mode0_120k_nnz");
    for n in THREADS {
        let exec = executor(n);
        let (mut ws, mut h) = mttkrp_mode0(&x, &exec);
        g.bench_function(&format!("threads_{n}"), |b| {
            b.iter(|| {
                mttkrp_blocked_into(black_box(&x), model.factors(), &mut ws, &exec, &mut h)
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_residual_threads(c: &mut Criterion) {
    let x = random_coo(7);
    let model = KruskalTensor::random(&SHAPE, RANK, 9);
    let mut g = c.benchmark_group("residual_refresh_120k_nnz");
    for n in THREADS {
        let exec = executor(n);
        let mut e = x.clone();
        let mut ws = ResidualWorkspace::new(x.nnz(), &exec);
        g.bench_function(&format!("threads_{n}"), |b| {
            b.iter(|| {
                residual_refresh_exec(black_box(&x), &model, &mut e, &mut ws, &exec).unwrap()
            })
        });
    }
    g.finish();
}

fn solve_once(x: &CooTensor, n: usize) {
    let cfg = AdmmConfig {
        rank: RANK,
        max_iters: 1,
        tol: 1e-15,
        exec: if n >= 2 { ExecMode::Threads(n) } else { ExecMode::Sequential },
        ..Default::default()
    };
    let laps = vec![None; 3];
    AdmmSolver::new(cfg).unwrap().solve(x, &laps).unwrap();
}

fn bench_admm_iteration_threads(c: &mut Criterion) {
    let x = random_coo(11);
    let mut g = c.benchmark_group("admm_one_iteration");
    for n in THREADS {
        g.bench_function(&format!("threads_{n}"), |b| {
            b.iter(|| solve_once(black_box(&x), n))
        });
    }
    g.finish();
}

/// Median-of-`reps` wall time of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Re-measure the same workloads with a plain timer and persist the
/// numbers for the trajectory file. Honest by construction: whatever the
/// host gives is what lands in the JSON.
fn emit_json(_c: &mut Criterion) {
    let x = random_coo(3);
    let model = KruskalTensor::random(&SHAPE, RANK, 5);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut mttkrp_ns = Vec::new();
    let mut admm_ns = Vec::new();
    for n in THREADS {
        let exec = executor(n);
        let (mut ws, mut h) = mttkrp_mode0(&x, &exec);
        mttkrp_ns.push((
            n,
            median_ns(7, || {
                mttkrp_blocked_into(&x, model.factors(), &mut ws, &exec, &mut h).unwrap();
            }),
        ));
        admm_ns.push((n, median_ns(3, || solve_once(&x, n))));
    }

    let fmt = |pairs: &[(usize, u128)]| {
        pairs
            .iter()
            .map(|(n, ns)| format!("\"{n}\": {ns}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let speedup = |pairs: &[(usize, u128)], n: usize| {
        let base = pairs.iter().find(|(t, _)| *t == 1).map(|(_, ns)| *ns).unwrap_or(1);
        let at = pairs.iter().find(|(t, _)| *t == n).map(|(_, ns)| *ns).unwrap_or(base);
        base as f64 / at.max(1) as f64
    };
    let json = format!(
        "{{\n  \"host_parallelism\": {host},\n  \"shape\": {:?},\n  \"nnz\": {NNZ},\n  \"rank\": {RANK},\n  \"mttkrp_median_ns\": {{ {} }},\n  \"admm_one_iteration_median_ns\": {{ {} }},\n  \"mttkrp_speedup_4_threads\": {:.3},\n  \"admm_speedup_4_threads\": {:.3},\n  \"note\": \"measured on this host; with host_parallelism=1 no speedup is physically possible and none is asserted\"\n}}\n",
        SHAPE,
        fmt(&mttkrp_ns),
        fmt(&admm_ns),
        speedup(&mttkrp_ns, 4),
        speedup(&admm_ns, 4),
    );
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_parallel.json");
    std::fs::write(&path, &json).expect("write BENCH_parallel.json");
    eprintln!("wrote {}", path.display());
}

criterion_group!(
    benches,
    bench_mttkrp_threads,
    bench_residual_threads,
    bench_admm_iteration_threads,
    emit_json
);
criterion_main!(benches);
