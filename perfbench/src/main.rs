//! The DisTenC workspace benchmark: one workload per invocation.
//!
//! ```text
//! distenc-perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//! ```
//!
//! Inputs are generated from `--seed` into `DIR` (untimed), then read back
//! through the program's loaders. The last stdout line is the result
//! object; the line before it is the workload's full report (every
//! workload-specific metric with its unit, the correctness checks and, in
//! traced runs, the reconciliation of the measured time against the
//! per-layer spans). See README.md for the workloads and metrics.

mod data;
mod json;
mod probes;
mod serve;
mod solver;
mod span;
mod stats;

use json::{obj, s, J};
use span::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

pub const WORKLOADS: [&str; 4] = [
    "complete-netflix",
    "complete-cluster",
    "stream-refresh",
    "serve-openloop",
];

/// End-to-end metrics every workload reports with tracing off.
pub const END_TO_END: [&str; 3] = ["setup_s", "op_p50_ms", "peak_rss_mb"];

/// Per-layer metrics every workload reports with tracing on.
pub const PER_LAYER: [&str; 56] = [
    "tensor.io.read_ms",
    "tensor.io.read_mb_s",
    "tensor.layout.build_ms",
    "tensor.mttkrp_ns_per_nnz.t1",
    "tensor.mttkrp_ns_per_nnz.nproc",
    "tensor.fused_ns_per_nnz.t1",
    "tensor.fused_ns_per_nnz.nproc",
    "tensor.fused_scaling",
    "tensor.fused_gb_s",
    "graph.truncate_ms",
    "graph.b_update_us",
    "linalg.gram_us",
    "linalg.cholesky_us",
    "core.iter_ms",
    "core.prologue_ms",
    "core.iters_to_target",
    "dataflow.stages",
    "dataflow.shuffled_mb",
    "dataflow.broadcast_mb",
    "dataflow.peak_resident_mb",
    "dataflow.wall_per_stage_us",
    "partition.imbalance.mode0",
    "partition.imbalance.mode1",
    "partition.imbalance.mode2",
    "partition.build_ms",
    "stream.apply_ms",
    "stream.resolve_ms",
    "stream.resolve_loop_ms",
    "stream.resolve_iters",
    "serve.live.publish_us",
    "serve.engine.point_us",
    "serve.engine.batch_us",
    "serve.engine.topk_us",
    "serve.queue.overhead_p50_us",
    "serve.queue.batch_size_mean",
    "serve.queue.depth_peak",
    "serve.cache.hit_rate",
    "serve.topk.prune_rate",
    "serve.shed_rate",
    "harness.gen_lateness_p99_us",
    "self.tensor_ms",
    "self.graph_ms",
    "self.linalg_ms",
    "self.core_ms",
    "self.dataflow_ms",
    "self.partition_ms",
    "self.stream_ms",
    "self.serve_ms",
    "self.harness_ms",
    "trace.spans",
    "trace.overhead_ms",
    "trace.overhead_pct",
    "reconcile.measured_ms",
    "reconcile.explained_ms",
    "reconcile.unexplained_ms",
    "reconcile.unexplained_pct",
];

/// How many times set-up runs per invocation; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dir: PathBuf,
    pub tracer: Tracer,
    pub nproc: usize,
}

impl Ctx {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The solver executor: `nproc` worker threads (the harness thread
    /// only waits while they run).
    pub fn exec(&self) -> distenc_dataflow::ExecMode {
        if self.nproc >= 2 {
            distenc_dataflow::ExecMode::Threads(self.nproc)
        } else {
            distenc_dataflow::ExecMode::Sequential
        }
    }
}

/// A named value with its unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

pub fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks; any `false` fails the run.
    pub checks: Vec<(String, bool)>,
    /// The universal end-to-end metrics ([`END_TO_END`]).
    pub e2e: Metrics,
    /// Every end-to-end metric specific to this workload.
    pub report: Metrics,
    /// Per-layer metrics ([`PER_LAYER`]), traced runs only.
    pub layer: Metrics,
    /// Extra report sections (reconciliation table, sample counts).
    pub extra: Vec<(String, J)>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }
}

fn metrics_json(m: &Metrics, names: Option<&[&str]>) -> J {
    let pairs = m
        .iter()
        .filter(|(k, _)| names.is_none_or(|ns| ns.contains(&k.as_str())))
        .map(|(k, (v, unit))| {
            (
                k.clone(),
                obj(vec![("value", J::Num(*v)), ("unit", s(*unit))]),
            )
        })
        .collect();
    J::Obj(pairs)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

impl Args {
    /// This run's directory: generated inputs (removed when the run ends)
    /// and the span file of a traced run.
    fn run_dir(&self) -> PathBuf {
        self.work_dir
            .join(format!("{}-s{}", self.workload, self.seed))
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let pos = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(pos + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let work_dir = PathBuf::from(get("--work-dir")?);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
    })
}

fn run(args: &Args) -> Result<(Outcome, Ctx), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: args.run_dir(),
        tracer: Tracer::new(args.trace),
        nproc,
    };
    let mut out = match args.workload.as_str() {
        "complete-netflix" => solver::complete_netflix(&ctx)?,
        "complete-cluster" => solver::complete_cluster(&ctx)?,
        "stream-refresh" => solver::stream_refresh(&ctx)?,
        _ => serve::serve_openloop(&ctx)?,
    };
    let rss = stats::peak_rss_mb();
    put(&mut out.e2e, "peak_rss_mb", rss, "MB");
    put(&mut out.report, "peak_rss_mb", rss, "MB");
    if args.trace {
        put(
            &mut out.layer,
            "trace.spans",
            ctx.tracer.len() as f64,
            "count",
        );
        for (layer, ms) in ctx.tracer.self_ms() {
            put(&mut out.layer, &format!("self.{layer}_ms"), ms, "ms");
        }
        let rows = ctx
            .tracer
            .summary()
            .into_iter()
            .map(|(layer, name, count, total, own)| {
                obj(vec![
                    ("layer", s(layer)),
                    ("span", s(name)),
                    ("count", J::Int(count as i64)),
                    ("total_ms", J::Num(total)),
                    ("self_ms", J::Num(own)),
                ])
            });
        out.extra
            .push(("span_summary".into(), J::Arr(rows.collect())));
        let path = ctx.dir.join("spans.jsonl");
        ctx.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.extra
            .push(("spans_file".into(), s(path.display().to_string())));
    }
    Ok((out, ctx))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("distenc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let steal0 = stats::steal_s();
    let result = run(&args);
    let host_steal_s = stats::steal_s() - steal0;
    let _ = std::fs::remove_dir_all(args.run_dir().join("inputs"));
    let (out, ctx) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("distenc-perfbench: {} failed: {e}", args.workload);
            println!(
                "{}",
                obj(vec![
                    ("correct", J::Bool(false)),
                    ("attempted", J::Int(1)),
                    ("failed", J::Int(1)),
                    ("metrics", J::Obj(vec![])),
                ])
            );
            std::process::exit(1);
        }
    };
    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let emitted = if args.trace { &out.layer } else { &out.e2e };
    let mut problems: Vec<String> = Vec::new();
    for name in wanted {
        match emitted.get(*name) {
            None => problems.push(format!("metric {name} missing")),
            Some((v, _)) if !v.is_finite() => problems.push(format!("metric {name} = {v}")),
            _ => {}
        }
    }
    for (name, ok) in &out.checks {
        if !ok {
            problems.push(format!("check failed: {name}"));
        }
    }
    if out.failed > 0 {
        problems.push(format!(
            "{} of {} operations failed",
            out.failed, out.attempted
        ));
    }
    let correct = problems.is_empty() && out.attempted > 0;
    let checks = J::Obj(
        out.checks
            .iter()
            .map(|(k, ok)| (k.clone(), J::Bool(*ok)))
            .collect(),
    );
    // What the solver knobs resolved to from the environment.
    let defaults = distenc_core::AdmmConfig::default();
    let layout = defaults
        .resolved_layout()
        .map_or_else(|e| format!("invalid: {e}"), |k| k.to_string());
    let mut report = vec![
        ("workload".to_string(), s(args.workload.clone())),
        ("seed".to_string(), J::Int(args.seed as i64)),
        ("trace".to_string(), J::Bool(args.trace)),
        ("nproc".to_string(), J::Int(ctx.nproc as i64)),
        ("exec".to_string(), s(format!("{:?}", ctx.exec()))),
        ("layout".to_string(), s(layout)),
        ("tier".to_string(), s(format!("{:?}", defaults.solver_tier))),
        ("host_steal_s".to_string(), J::Num(host_steal_s)),
        ("metrics".to_string(), metrics_json(&out.report, None)),
        ("checks".to_string(), checks),
        (
            "problems".to_string(),
            J::Arr(problems.iter().map(|p| s(p.clone())).collect()),
        ),
    ];
    if args.trace {
        report.push(("per_layer".to_string(), metrics_json(&out.layer, None)));
    }
    report.extend(out.extra);
    println!("{}", obj(vec![("report", J::Obj(report))]));
    for p in &problems {
        eprintln!("distenc-perfbench: {p}");
    }
    let metrics = if correct {
        metrics_json(emitted, Some(wanted))
    } else {
        J::Obj(vec![])
    };
    println!(
        "{}",
        obj(vec![
            ("correct", J::Bool(correct)),
            ("attempted", J::Int(out.attempted as i64)),
            ("failed", J::Int(out.failed as i64)),
            ("metrics", metrics),
        ])
    );
    if !correct {
        std::process::exit(1);
    }
}
