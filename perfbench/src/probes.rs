//! Per-layer probes for the traced run: timed calls into each crate's
//! public functions on the workload's own inputs, each inside a span.
//!
//! The host solver's iteration is modelled from these probes as one
//! B-update, one Gram product and one Cholesky refactor + right-solve per
//! mode, plus N−1 plain MTTKRP sweeps and one fused refresh sweep (the
//! fused schedule, Algorithm 1 lines 8–12). [`reconcile`] compares that
//! model, plus the measured solve prologue, against the measured time.

use crate::data::{Res, SolverInput};
use crate::stats::median;
use crate::{put, Ctx, Metrics};
use distenc_core::{AdmmConfig, CompletionResult, DisTenC};
use distenc_dataflow::{Cluster, ClusterConfig, ExecMode, Executor};
use distenc_graph::{ShiftedInverseScratch, TruncatedLaplacian};
use distenc_linalg::{Cholesky, Mat};
use distenc_partition::{greedy_boundaries, PartitionStrategy, TensorBlocks};
use distenc_stream::{DeltaBatch, StreamingSolver};
use distenc_tensor::{CooTensor, KruskalTensor, TensorLayout};
use std::time::Instant;

pub fn e<E: std::fmt::Display>(err: E) -> String {
    err.to_string()
}

/// Median wall time of `reps` calls of `f`, in seconds.
fn time_reps(reps: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f()?;
        xs.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&xs))
}

/// Per-iteration costs of the host solver's layers, from the probes.
#[derive(Debug, Default, Clone)]
pub struct IterModel {
    pub truncate_ms: f64,
    pub layout_build_ms: f64,
    /// `(part, ms per iteration)` in Algorithm 1 order.
    pub parts: Vec<(&'static str, f64)>,
}

impl IterModel {
    pub fn per_iter_ms(&self) -> f64 {
        self.parts.iter().map(|p| p.1).sum()
    }
}

/// `tensor.io.*`: re-read the workload's tensor file.
pub fn io(ctx: &Ctx, input: &SolverInput, layer: &mut Metrics) -> Res<()> {
    let tr = &ctx.tracer;
    let bytes = std::fs::metadata(&input.train_file).map_err(e)?.len() as f64;
    let secs = time_reps(3, || {
        tr.span("tensor", "io::read_coo_file", || {
            distenc_tensor::io::read_coo_file(&input.train_file)
                .map(|_| ())
                .map_err(e)
        })
    })?;
    put(layer, "tensor.io.read_ms", secs * 1e3, "ms");
    put(layer, "tensor.io.read_mb_s", bytes / 1e6 / secs, "MB/s");
    Ok(())
}

/// `graph.*` and `linalg.*`: Laplacian truncation at the solver's
/// `eigen_k` and seed, then the Eq. 7 B-update, the Gram product and the
/// Cholesky refactor + I×R right-solve on every mode at I×R×K.
pub fn graph_linalg(
    ctx: &Ctx,
    input: &SolverInput,
    cfg: &AdmmConfig,
    layer: &mut Metrics,
    model: &mut IterModel,
) -> Res<()> {
    const REPS: usize = 31;
    let tr = &ctx.tracer;
    let shape = input.train.shape().to_vec();
    let r = cfg.rank;
    let mut truncate_s = 0.0;
    let mut truncs = Vec::with_capacity(shape.len());
    for (n, lap) in input.laps.iter().enumerate() {
        match lap {
            Some(l) => {
                let t0 = Instant::now();
                let t = tr
                    .span("graph", "Laplacian::truncate", || {
                        l.truncate(cfg.eigen_k, cfg.seed)
                    })
                    .map_err(e)?;
                truncate_s += t0.elapsed().as_secs_f64();
                truncs.push(t);
            }
            None => truncs.push(TruncatedLaplacian::zero(shape[n])),
        }
    }
    let (mut b_s, mut gram_s, mut chol_s) = (0.0, 0.0, 0.0);
    for (n, trunc) in truncs.iter().enumerate() {
        let rhs = Mat::random(shape[n], r, ctx.seed ^ n as u64);
        let mut out = Mat::zeros(shape[n], r);
        let mut scratch = ShiftedInverseScratch::new(trunc, r);
        b_s += time_reps(REPS, || {
            tr.span(
                "graph",
                "TruncatedLaplacian::apply_shifted_inverse_into",
                || trunc.apply_shifted_inverse_into(1.5, cfg.alpha, &rhs, &mut out, &mut scratch),
            )
            .map_err(e)
        })?;
        let mut g = Mat::zeros(r, r);
        gram_s += time_reps(REPS, || {
            tr.span("linalg", "Mat::gram_into", || rhs.gram_into(&mut g))
                .map_err(e)
        })?;
        let mut spd = g.clone();
        spd.add_diag(cfg.lambda + 1.5);
        let mut chol = Cholesky::factor(&spd).map_err(e)?;
        let mut a = Mat::zeros(shape[n], r);
        chol_s += time_reps(REPS, || {
            tr.span("linalg", "Cholesky::refactor+solve_right_into", || {
                chol.refactor(&spd)?;
                chol.solve_right_into(&rhs, &mut a)
            })
            .map_err(e)
        })?;
    }
    put(layer, "graph.truncate_ms", truncate_s * 1e3, "ms");
    put(layer, "graph.b_update_us", b_s * 1e6, "us");
    put(layer, "linalg.gram_us", gram_s * 1e6, "us");
    put(layer, "linalg.cholesky_us", chol_s * 1e6, "us");
    model.truncate_ms = truncate_s * 1e3;
    model.parts.push(("graph.b_update", b_s * 1e3));
    model.parts.push(("linalg.gram", gram_s * 1e3));
    model.parts.push(("linalg.cholesky", chol_s * 1e3));
    Ok(())
}

/// Bytes the fused refresh sweep touches per stored entry, computed (not
/// measured): N coordinates, the observed value, a residual read and
/// write, N gathered factor rows and a read-modify-write output row.
fn fused_bytes_per_nnz(order: usize, rank: usize) -> f64 {
    (8 * order + 8 + 16 + 8 * rank * order + 16 * rank) as f64
}

/// `tensor.layout.*` and the kernel sweeps, at one thread and at `nproc`.
pub fn kernels(
    ctx: &Ctx,
    input: &SolverInput,
    cfg: &AdmmConfig,
    layer: &mut Metrics,
    model: &mut IterModel,
) -> Res<()> {
    const REPS: usize = 5;
    let tr = &ctx.tracer;
    let t = &input.train;
    let kind = cfg.resolved_layout()?;
    let build_s = time_reps(3, || {
        let copy = t.clone();
        tr.span("tensor", "TensorLayout::build", || {
            TensorLayout::build(copy, kind)
        })
        .map(|_| ())
        .map_err(e)
    })?;
    put(layer, "tensor.layout.build_ms", build_s * 1e3, "ms");
    model.layout_build_ms = build_s * 1e3;

    let km = KruskalTensor::random(t.shape(), cfg.rank, ctx.seed ^ 0xfac7);
    let nnz = t.nnz().max(1) as f64;
    let mut fused = Vec::new();
    for (label, mode) in [("t1", ExecMode::Sequential), ("nproc", ctx.exec())] {
        let exec = Executor::new(mode);
        let mut lay = TensorLayout::build(t.clone(), kind).map_err(e)?;
        let bounds: Vec<Vec<usize>> = (0..t.order())
            .map(|n| greedy_boundaries(&t.slice_nnz(n), exec.parallelism()))
            .collect();
        let mut lw = lay.workspace(cfg.rank, &bounds, &exec).map_err(e)?;
        let mut mttkrp_s = Vec::new();
        for n in 0..t.order() {
            let mut h = Mat::zeros(t.shape()[n], cfg.rank);
            mttkrp_s.push(time_reps(REPS, || {
                tr.span("tensor", "TensorLayout::mttkrp_into", || {
                    lay.mttkrp_into(km.factors(), n, &mut lw, &exec, &mut h)
                })
                .map_err(e)
            })?);
        }
        let mut h0 = Mat::zeros(t.shape()[0], cfg.rank);
        let fused_s = time_reps(REPS, || {
            tr.span("tensor", "TensorLayout::fused_refresh_into", || {
                lay.fused_refresh_into(t, &km, &mut lw, &exec, &mut h0)
            })
            .map(|_| ())
            .map_err(e)
        })?;
        let avg = mttkrp_s.iter().sum::<f64>() / mttkrp_s.len() as f64;
        put(
            layer,
            &format!("tensor.mttkrp_ns_per_nnz.{label}"),
            avg * 1e9 / nnz,
            "ns",
        );
        put(
            layer,
            &format!("tensor.fused_ns_per_nnz.{label}"),
            fused_s * 1e9 / nnz,
            "ns",
        );
        fused.push(fused_s);
        if label == "nproc" {
            model
                .parts
                .push(("tensor.mttkrp", mttkrp_s[1..].iter().sum::<f64>() * 1e3));
            model.parts.push(("tensor.fused_refresh", fused_s * 1e3));
        }
    }
    put(layer, "tensor.fused_scaling", fused[0] / fused[1], "x");
    let bytes = fused_bytes_per_nnz(t.order(), cfg.rank) * nnz;
    put(layer, "tensor.fused_gb_s", bytes / fused[1] / 1e9, "GB/s");
    Ok(())
}

/// `partition.*`: Algorithm 2's greedy blocking on the paper's 9 machines.
pub fn partition(ctx: &Ctx, t: &CooTensor, layer: &mut Metrics) -> Res<()> {
    let machines = ClusterConfig::paper_spark().machines;
    let parts: Vec<usize> = t.shape().iter().map(|&d| d.min(machines)).collect();
    let mut blocks = None;
    let secs = time_reps(3, || {
        blocks = Some(
            ctx.tracer
                .span("partition", "TensorBlocks::build_with", || {
                    TensorBlocks::build_with(t, &parts, PartitionStrategy::Greedy)
                }),
        );
        Ok(())
    })?;
    let blocks = blocks.expect("built at least once");
    put(layer, "partition.build_ms", secs * 1e3, "ms");
    for n in 0..3 {
        let imb = if n < t.order() {
            blocks.balance(n).imbalance
        } else {
            1.0
        };
        put(layer, &format!("partition.imbalance.mode{n}"), imb, "ratio");
    }
    Ok(())
}

/// `dataflow.*` from a finished cluster solve.
pub fn dataflow_metrics(m: &distenc_dataflow::Metrics, wall_s: f64, layer: &mut Metrics) {
    put(layer, "dataflow.stages", m.stages as f64, "count");
    put(
        layer,
        "dataflow.shuffled_mb",
        m.shuffled_bytes as f64 / 1e6,
        "MB",
    );
    put(
        layer,
        "dataflow.broadcast_mb",
        m.broadcast_bytes as f64 / 1e6,
        "MB",
    );
    put(
        layer,
        "dataflow.peak_resident_mb",
        m.peak_resident as f64 / 1e6,
        "MB",
    );
    put(
        layer,
        "dataflow.wall_per_stage_us",
        wall_s * 1e6 / m.stages.max(1) as f64,
        "us",
    );
}

/// `dataflow.*` for workloads that do not run the cluster themselves: a
/// short DisTenC solve of the same input on the paper's cluster.
pub fn dataflow(ctx: &Ctx, input: &SolverInput, cfg: &AdmmConfig, layer: &mut Metrics) -> Res<()> {
    let machines = ClusterConfig::paper_spark().with_exec(ctx.exec());
    let cluster = ctx
        .tracer
        .span("dataflow", "Cluster::new", || Cluster::new(machines));
    let cfg = AdmmConfig {
        max_iters: 10,
        ..cfg.clone()
    };
    let laps = input.lap_refs();
    let t0 = Instant::now();
    ctx.tracer
        .span("core", "DisTenC::solve", || {
            DisTenC::new(&cluster, cfg)?.solve(&input.train, &laps)
        })
        .map_err(e)?;
    dataflow_metrics(&cluster.metrics(), t0.elapsed().as_secs_f64(), layer);
    Ok(())
}

/// One solve's trace, reduced: wall time, the in-loop total the trace
/// clock covers, and the time and iteration at which it hit the target.
#[derive(Debug, Clone)]
pub struct SolveStats {
    pub wall_s: f64,
    pub loop_s: f64,
    pub iters: usize,
    pub iter_ms: f64,
    pub to_target_s: Option<f64>,
    pub iters_to_target: Option<usize>,
    pub final_rmse: f64,
    /// Train RMSE after every tenth iteration (how the target was chosen).
    pub curve: Vec<f64>,
}

impl SolveStats {
    /// `host_clock`: the trace is wall time (host solver), so the
    /// prologue before its clock started is `wall − loop`; a cluster
    /// trace runs on the virtual clock and is reported as is.
    pub fn new(res: &CompletionResult, wall_s: f64, target: f64, host_clock: bool) -> Self {
        let pts = &res.trace.points;
        let loop_s = res.trace.total_seconds();
        let deltas: Vec<f64> = pts
            .windows(2)
            .map(|w| w[1].seconds - w[0].seconds)
            .collect();
        let iter_ms = if deltas.is_empty() {
            loop_s * 1e3
        } else {
            median(&deltas) * 1e3
        };
        let offset = if host_clock { wall_s - loop_s } else { 0.0 };
        SolveStats {
            wall_s,
            loop_s,
            iters: res.iterations,
            iter_ms,
            to_target_s: res.trace.time_to_rmse(target).map(|t| offset + t),
            iters_to_target: pts
                .iter()
                .position(|p| p.train_rmse <= target)
                .map(|i| i + 1),
            final_rmse: res.trace.final_rmse().unwrap_or(f64::NAN),
            curve: pts
                .iter()
                .skip(9)
                .step_by(10)
                .map(|p| p.train_rmse)
                .collect(),
        }
    }

    pub fn prologue_s(&self) -> f64 {
        self.wall_s - self.loop_s
    }
}

/// `core.*` from host solves of the workload's own input.
pub fn core_metrics(solves: &[SolveStats], layer: &mut Metrics) {
    let pick = |f: &dyn Fn(&SolveStats) -> f64| median(&solves.iter().map(f).collect::<Vec<_>>());
    put(layer, "core.iter_ms", pick(&|s| s.iter_ms), "ms");
    put(
        layer,
        "core.prologue_ms",
        pick(&|s| s.prologue_s() * 1e3),
        "ms",
    );
    let to_target = pick(&|s| s.iters_to_target.map_or(f64::NAN, |i| i as f64));
    put(layer, "core.iters_to_target", to_target, "count");
}

/// Per-refresh stream numbers: apply, re-solve wall, in-loop, iterations.
#[derive(Debug, Clone)]
pub struct Refresh {
    pub apply_s: f64,
    pub resolve: SolveStats,
    pub publish_s: f64,
}

pub fn stream_metrics(refreshes: &[Refresh], layer: &mut Metrics) {
    let pick = |f: &dyn Fn(&Refresh) -> f64| median(&refreshes.iter().map(f).collect::<Vec<_>>());
    put(layer, "stream.apply_ms", pick(&|r| r.apply_s * 1e3), "ms");
    put(
        layer,
        "stream.resolve_ms",
        pick(&|r| r.resolve.wall_s * 1e3),
        "ms",
    );
    put(
        layer,
        "stream.resolve_loop_ms",
        pick(&|r| r.resolve.loop_s * 1e3),
        "ms",
    );
    put(
        layer,
        "stream.resolve_iters",
        pick(&|r| r.resolve.iters as f64),
        "count",
    );
    put(
        layer,
        "serve.live.publish_us",
        pick(&|r| r.publish_s * 1e6),
        "us",
    );
}

/// `core.*` and `stream.*` for workloads that do not stream: a cold
/// streaming solve of the input less 1% of its cells, then those cells
/// applied as one batch and re-solved under a 10-iteration budget.
pub fn stream(
    ctx: &Ctx,
    input: &SolverInput,
    cfg: &AdmmConfig,
    target: f64,
    with_core: bool,
    layer: &mut Metrics,
) -> Res<()> {
    let tr = &ctx.tracer;
    let t = &input.train;
    let mut base = CooTensor::new(t.shape().to_vec());
    let mut late = Vec::new();
    for (e_, (idx, v)) in t.iter().enumerate() {
        if e_ % 100 == 17 {
            late.push((idx.to_vec(), v));
        } else {
            base.push(idx, v).map_err(e)?;
        }
    }
    let zeros = vec![0; t.order()];
    let batch = DeltaBatch::try_new(t.shape(), &zeros, late, vec![]).map_err(e)?;
    let mut s = StreamingSolver::new(base, input.laps.clone(), cfg.clone()).map_err(e)?;
    let t0 = Instant::now();
    let cold = tr
        .span("stream", "StreamingSolver::solve", || s.solve())
        .map_err(e)?;
    let cold_stats = SolveStats::new(&cold, t0.elapsed().as_secs_f64(), target, true);
    if with_core {
        core_metrics(&[cold_stats], layer);
    }
    let live = distenc_serve::LiveEngine::new(&cold.model, Default::default()).map_err(e)?;
    s.set_budget(10, cfg.tol).map_err(e)?;
    let t0 = Instant::now();
    tr.span("stream", "StreamingSolver::apply", || s.apply(&batch))
        .map_err(e)?;
    let apply_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let warm = tr
        .span("stream", "StreamingSolver::solve", || s.solve())
        .map_err(e)?;
    let resolve = SolveStats::new(&warm, t0.elapsed().as_secs_f64(), target, true);
    let t0 = Instant::now();
    tr.span("serve", "LiveEngine::publish", || live.publish(&warm.model))
        .map_err(e)?;
    let publish_s = t0.elapsed().as_secs_f64();
    stream_metrics(
        &[Refresh {
            apply_s,
            resolve,
            publish_s,
        }],
        layer,
    );
    Ok(())
}

/// Run every solver-side probe on `input`.
pub fn solver_layers(
    ctx: &Ctx,
    input: &SolverInput,
    cfg: &AdmmConfig,
    layer: &mut Metrics,
) -> Res<IterModel> {
    let mut model = IterModel::default();
    io(ctx, input, layer)?;
    graph_linalg(ctx, input, cfg, layer, &mut model)?;
    kernels(ctx, input, cfg, layer, &mut model)?;
    partition(ctx, &input.train, layer)?;
    Ok(model)
}

/// Stage reconciliation: how much of `measured_ms` the probes explain.
/// `explained = prologue-side probes + iterations × per-iteration model`;
/// the remainder is reported as its own number, never folded away.
pub fn reconcile(
    measured_ms: f64,
    explained: &[(&str, f64)],
    layer: &mut Metrics,
) -> crate::json::J {
    use crate::json::{obj, J};
    let total: f64 = explained.iter().map(|p| p.1).sum();
    let unexplained = measured_ms - total;
    put(layer, "reconcile.measured_ms", measured_ms, "ms");
    put(layer, "reconcile.explained_ms", total, "ms");
    put(layer, "reconcile.unexplained_ms", unexplained, "ms");
    put(
        layer,
        "reconcile.unexplained_pct",
        100.0 * unexplained / measured_ms,
        "%",
    );
    let mut rows: Vec<(String, J)> = explained
        .iter()
        .map(|(k, v)| (k.to_string(), J::Num(*v)))
        .collect();
    rows.push(("unexplained".into(), J::Num(unexplained)));
    obj(vec![
        ("measured_ms", J::Num(measured_ms)),
        ("parts_ms", J::Obj(rows)),
    ])
}

/// Tracing overhead: traced minus untraced median of the same operation.
pub fn overhead(traced: &[f64], untraced: &[f64], layer: &mut Metrics) {
    let (t, u) = (median(traced), median(untraced));
    put(layer, "trace.overhead_ms", (t - u) * 1e3, "ms");
    put(layer, "trace.overhead_pct", 100.0 * (t - u) / u, "%");
}
