//! Workload inputs: generated from the seed into files (never timed), then
//! read back through the program's own loaders (timed as set-up).

use crate::span::Tracer;
use distenc_datagen::{error_tensor, netflix_like};
use distenc_graph::{Laplacian, SparseSym};
use distenc_linalg::Mat;
use distenc_tensor::split::split_missing;
use distenc_tensor::{io, CooTensor, KruskalTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The Full-profile Netflix analog of the paper's Fig. 6a.
fn netflix(seed: u64) -> distenc_datagen::Dataset {
    netflix_like(1_200, 500, 40, 400_000, seed)
}

/// Shape and rank of the serving model (the size `BENCH_serve_slo` uses).
const SERVE_SHAPE: [usize; 3] = [4000, 800, 40];
const SERVE_RANK: usize = 8;

fn write_tensor(t: &CooTensor, path: PathBuf) -> Res<()> {
    io::write_coo_file(t, &path).map_err(err(&path.display().to_string()))
}

/// A similarity matrix as a square 2-order COO file (upper triangle), the
/// format `distenc complete --similarity FILE@MODE` reads.
fn write_similarity(sim: &SparseSym, path: PathBuf) -> Res<()> {
    let mut coo = CooTensor::new(vec![sim.dim(), sim.dim()]);
    for i in 0..sim.dim() {
        let (cols, vals) = sim.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            if j >= i {
                coo.push(&[i, j], v).map_err(err("similarity"))?;
            }
        }
    }
    write_tensor(&coo, path)
}

fn write_sims(dir: &Path, sims: &[Option<&SparseSym>]) -> Res<()> {
    for (n, sim) in sims.iter().enumerate() {
        if let Some(sim) = sim {
            write_similarity(sim, dir.join(format!("sim{n}.coo")))?;
        }
    }
    Ok(())
}

fn fresh_dir(dir: &Path) -> Res<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(err(&dir.display().to_string()))
}

/// `complete-netflix` files: 50/50 train/test split of the analog plus its
/// movie-movie similarity.
pub fn gen_netflix(dir: &Path, seed: u64) -> Res<()> {
    fresh_dir(dir)?;
    let ds = netflix(seed);
    let split = split_missing(&ds.tensor, 0.5, seed ^ 0x5e11);
    write_tensor(&split.train, dir.join("train.tns"))?;
    write_tensor(&split.test, dir.join("test.tns"))?;
    write_sims(dir, &ds.similarity_refs())
}

/// `stream-refresh` files: the Netflix split again, with 10% of the
/// training cells held back as later inserts, plus re-ratings of cells
/// the base already holds (the value updates).
pub fn gen_stream(dir: &Path, seed: u64, batches: usize, updates_per_batch: usize) -> Res<()> {
    fresh_dir(dir)?;
    let ds = netflix(seed);
    let split = split_missing(&ds.tensor, 0.5, seed ^ 0x5e11);
    let held = split_missing(&split.train, 0.1, seed ^ 0x4e1d);
    let (base, late) = (held.train, held.test);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0bda7e);
    let mut updates = CooTensor::new(base.shape().to_vec());
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < batches * updates_per_batch {
        picked.insert(rng.random_range(0..base.nnz()));
    }
    for &e in &picked {
        let old = base.value(e);
        let new = if old < 4.0 { old + 1.0 } else { old - 1.0 };
        updates.push(base.index(e), new).map_err(err("updates"))?;
    }
    write_tensor(&base, dir.join("base.tns"))?;
    write_tensor(&late, dir.join("inserts.tns"))?;
    write_tensor(&updates, dir.join("updates.tns"))?;
    write_tensor(&split.test, dir.join("test.tns"))?;
    write_sims(dir, &ds.similarity_refs())
}

/// `complete-cluster` files: the §IV-A synthetic with a tri-diagonal
/// similarity on every mode, and held-out ground truth at unobserved
/// cells.
pub fn gen_cluster(dir: &Path, seed: u64) -> Res<()> {
    fresh_dir(dir)?;
    let et = error_tensor(&[300, 300, 300], 5, 300_000, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e57);
    let mut test = CooTensor::new(vec![300, 300, 300]);
    while test.nnz() < 20_000 {
        let idx: Vec<usize> = (0..3).map(|_| rng.random_range(0..300)).collect();
        if et.observed.position_of(&idx).is_none() {
            test.push(&idx, et.truth.eval(&idx)).map_err(err("test"))?;
        }
    }
    test.sort_dedup();
    // The generator's scale varies by an order of magnitude across seeds
    // (its ε constants are standard normal); unit variance keeps the ADMM
    // penalty schedule, and so the iterations a seed needs, comparable.
    let mut observed = et.observed;
    let n = observed.nnz().max(1) as f64;
    let mean = observed.values().iter().sum::<f64>() / n;
    let var = observed
        .values()
        .iter()
        .map(|v| (v - mean) * (v - mean))
        .sum::<f64>()
        / n;
    let sd = var.sqrt().max(1e-12);
    for v in observed.values_mut().iter_mut().chain(test.values_mut()) {
        *v /= sd;
    }
    write_tensor(&observed, dir.join("observed.tns"))?;
    write_tensor(&test, dir.join("test.tns"))?;
    let sims: Vec<Option<&SparseSym>> = et.similarities.iter().map(Some).collect();
    write_sims(dir, &sims)
}

/// A rank-8 CP model whose mode-0 rows carry a power-law popularity skew
/// (row norms decay like `i^-0.7`), as recommendation factors do.
fn skewed_model(seed: u64) -> Res<KruskalTensor> {
    let mut factors: Vec<Mat> = SERVE_SHAPE
        .iter()
        .enumerate()
        .map(|(n, &d)| Mat::random(d, SERVE_RANK, seed.wrapping_mul(31).wrapping_add(n as u64)))
        .collect();
    for i in 0..SERVE_SHAPE[0] {
        let scale = 1.0 / (1.0 + i as f64).powf(0.7);
        for v in factors[0].row_mut(i) {
            *v *= scale;
        }
    }
    KruskalTensor::new(factors).map_err(err("model"))
}

/// `serve-openloop` files: the served model and the alternate model the
/// harness publishes over it.
pub fn gen_serve(dir: &Path, seed: u64) -> Res<()> {
    fresh_dir(dir)?;
    for (name, s) in [("model.kr", seed), ("model_alt.kr", seed ^ 0xa17)] {
        let path = dir.join(name);
        io::write_kruskal_file(&skewed_model(s)?, &path).map_err(err(name))?;
    }
    Ok(())
}

pub fn read_tensor(tr: &Tracer, path: &Path) -> Res<CooTensor> {
    tr.span("tensor", "io::read_coo_file", || io::read_coo_file(path))
        .map_err(err(&path.display().to_string()))
}

pub fn read_model(tr: &Tracer, path: &Path) -> Res<KruskalTensor> {
    tr.span("tensor", "io::read_kruskal_file", || {
        io::read_kruskal_file(path)
    })
    .map_err(err(&path.display().to_string()))
}

/// Solver inputs after loading: the mean-centred training tensor, the
/// held-out cells (raw values), and one optional Laplacian per mode.
pub struct SolverInput {
    pub train: CooTensor,
    pub mean: f64,
    pub test: CooTensor,
    pub laps: Vec<Option<Laplacian>>,
    pub train_file: PathBuf,
}

impl SolverInput {
    pub fn lap_refs(&self) -> Vec<Option<&Laplacian>> {
        self.laps.iter().map(|l| l.as_ref()).collect()
    }

    /// Held-out RMSE of `model` (plus the training mean).
    pub fn test_rmse(&self, model: &KruskalTensor) -> f64 {
        let sq: f64 = self
            .test
            .iter()
            .map(|(idx, v)| {
                let d = model.eval(idx) + self.mean - v;
                d * d
            })
            .sum();
        (sq / self.test.nnz().max(1) as f64).sqrt()
    }

    /// Standard deviation of the held-out values: the RMSE of always
    /// predicting their mean, which any fitted model must beat.
    pub fn test_sd(&self) -> f64 {
        let vals = self.test.values();
        let m = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        (vals.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / vals.len().max(1) as f64).sqrt()
    }
}

/// Read a training tensor, its similarity files and the held-out cells,
/// and centre the training values on their mean.
pub fn load_solver(tr: &Tracer, dir: &Path, train: &str) -> Res<SolverInput> {
    let train_file = dir.join(train);
    let mut t = read_tensor(tr, &train_file)?;
    let test = read_tensor(tr, &dir.join("test.tns"))?;
    let mut laps = Vec::with_capacity(t.order());
    for n in 0..t.order() {
        let path = dir.join(format!("sim{n}.coo"));
        if !path.exists() {
            laps.push(None);
            continue;
        }
        let coo = read_tensor(tr, &path)?;
        if coo.order() != 2 || coo.shape()[0] != coo.shape()[1] || coo.shape()[0] != t.shape()[n] {
            return Err(format!(
                "{}: not a square similarity for mode {n}",
                path.display()
            ));
        }
        let triplets: Vec<(usize, usize, f64)> =
            coo.iter().map(|(idx, v)| (idx[0], idx[1], v)).collect();
        let lap = tr.span("graph", "Laplacian::from_similarity", || {
            Laplacian::from_similarity(SparseSym::from_triplets(coo.shape()[0], &triplets))
        });
        laps.push(Some(lap));
    }
    let mean = t.values().iter().sum::<f64>() / t.nnz().max(1) as f64;
    for v in t.values_mut() {
        *v -= mean;
    }
    Ok(SolverInput {
        train: t,
        mean,
        test,
        laps,
        train_file,
    })
}
