//! Microbenchmarks of the computational kernels every method is built
//! from: MTTKRP, Gram products, the residual tensor, Khatri-Rao oracles,
//! Cholesky solves, and the Laplacian eigensolvers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use distenc_dataflow::{ExecMode, Executor};
use distenc_graph::builders::{community_blocks, tridiagonal_chain};
use distenc_graph::Laplacian;
use distenc_linalg::{Cholesky, Mat};
use distenc_tensor::khatri_rao::khatri_rao;
use distenc_tensor::mttkrp::{gram_product, mttkrp};
use distenc_tensor::residual::{completed_mttkrp, residual};
use distenc_tensor::{CooTensor, KruskalTensor, LayoutKind, TensorLayout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_coo(shape: &[usize], nnz: usize, seed: u64) -> CooTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = CooTensor::new(shape.to_vec());
    for _ in 0..nnz {
        let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
        t.push(&idx, rng.random::<f64>()).unwrap();
    }
    t.sort_dedup();
    t
}

fn bench_mttkrp(c: &mut Criterion) {
    let exec = Executor::new(ExecMode::Sequential);
    // Uniform support, then a fiber-dense one (few distinct (i, j)
    // prefixes): the naive reference kernel against the production tiled
    // layout on each.
    for (label, shape, seed) in
        [("50k", [500usize, 400, 300], 1), ("fiberdense_50k", [50, 50, 300], 2)]
    {
        let x = random_coo(&shape, 50_000, seed);
        let model = KruskalTensor::random(&shape, 10, seed + 1);
        c.bench_function(&format!("mttkrp_coo_{label}_r10"), |b| {
            b.iter(|| mttkrp(black_box(&x), model.factors(), 0).unwrap())
        });
        let tiled = TensorLayout::build(x.clone(), LayoutKind::Tiled).unwrap();
        let mut lw = tiled.workspace(10, &[], &exec).unwrap();
        let mut h = Mat::zeros(shape[0], 10);
        c.bench_function(&format!("mttkrp_tiled_{label}_r10"), |b| {
            b.iter(|| {
                tiled
                    .mttkrp_into(black_box(model.factors()), 0, &mut lw, &exec, &mut h)
                    .unwrap()
            })
        });
    }
}

fn bench_gram_product(c: &mut Criterion) {
    let model = KruskalTensor::random(&[2000, 2000, 2000], 20, 3);
    let grams: Vec<Mat> = model.factors().iter().map(Mat::gram).collect();
    c.bench_function("gram_product_r20", |b| {
        b.iter(|| gram_product(black_box(&grams), 0).unwrap())
    });
    c.bench_function("gram_2000x20", |b| {
        b.iter(|| black_box(&model.factors()[0]).gram())
    });
}

fn bench_residual(c: &mut Criterion) {
    let shape = [500usize, 400, 300];
    let x = random_coo(&shape, 50_000, 4);
    let model = KruskalTensor::random(&shape, 10, 5);
    c.bench_function("residual_50k_r10", |b| {
        b.iter(|| residual(black_box(&x), &model).unwrap())
    });
    let e = residual(&x, &model).unwrap();
    let grams: Vec<Mat> = model.factors().iter().map(Mat::gram).collect();
    let f = gram_product(&grams, 0).unwrap();
    c.bench_function("completed_mttkrp_50k_r10", |b| {
        b.iter(|| completed_mttkrp(black_box(&e), &model, &f, 0).unwrap())
    });
}

fn bench_khatri_rao(c: &mut Criterion) {
    let a = Mat::random(200, 10, 6);
    let bm = Mat::random(150, 10, 7);
    c.bench_function("khatri_rao_200x150_r10", |b| {
        b.iter(|| khatri_rao(black_box(&a), black_box(&bm)).unwrap())
    });
}

fn bench_cholesky(c: &mut Criterion) {
    let mut g = Mat::random(64, 32, 8).gram();
    g.add_diag(1.0);
    let rhs = Mat::random(500, 32, 9);
    c.bench_function("cholesky_factor_r32", |b| {
        b.iter(|| Cholesky::factor(black_box(&g)).unwrap())
    });
    let ch = Cholesky::factor(&g).unwrap();
    c.bench_function("cholesky_solve_right_500x32", |b| {
        b.iter(|| ch.solve_right(black_box(&rhs)).unwrap())
    });
}

fn bench_eigensolvers(c: &mut Criterion) {
    let chain = Laplacian::from_similarity(tridiagonal_chain(400));
    c.bench_function("laplacian_truncate_chain400_k20", |b| {
        b.iter(|| chain.truncate(20, 1).unwrap())
    });
    let blocks = Laplacian::from_similarity(community_blocks(600, 10, 0.3, 2));
    c.bench_function("laplacian_truncate_blocks600_k20", |b| {
        b.iter(|| blocks.truncate(20, 1).unwrap())
    });
    let trunc = chain.truncate(20, 1).unwrap();
    let rhs = Mat::random(400, 10, 3);
    c.bench_function("shifted_inverse_apply_400x10_k20", |b| {
        b.iter(|| trunc.apply_shifted_inverse(1.0, 2.0, black_box(&rhs)).unwrap())
    });
}

criterion_group!(
    benches,
    bench_mttkrp,
    bench_gram_product,
    bench_residual,
    bench_khatri_rao,
    bench_cholesky,
    bench_eigensolvers
);
criterion_main!(benches);
