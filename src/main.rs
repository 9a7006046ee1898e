//! `distenc` — command-line tensor completion.
//!
//! ```text
//! distenc generate --kind error --dims 40,40,40 --nnz 8000 --out data.coo
//! distenc complete --input data.coo --rank 5 --out model.kruskal \
//!                  [--similarity sim.coo@0]... [--alpha 2.0] [--iters 60]
//! distenc evaluate --model model.kruskal --test held_out.coo
//! distenc predict  --model model.kruskal --at 3,17,2
//! distenc predict  --model model.kruskal --at-file queries.coo
//! distenc predict  --model model.kruskal --top-k 10 --mode 1 --at 3,_,2
//! distenc serve-bench --model model.kruskal --queries 100000
//! ```
//!
//! Tensors are plain-text COO files (`# shape: …` header, one
//! `i j k value` line per entry); similarity matrices are 2-order COO
//! files attached to a mode with `path@mode`. Models round-trip through
//! the same text format (`distenc_tensor::io`). Prediction and the
//! serving benchmark go through `distenc_serve::Engine`, so scores are
//! bit-identical to `KruskalTensor::eval` on the loaded model.

use distenc::core::{AdmmConfig, AdmmSolver, Checkpoint, CheckpointPolicy, LayoutKind};
use distenc::graph::{Laplacian, SparseSym};
use distenc::serve::{
    open_loop_trace, synth_trace, AdmissionControl, ApproxTopK, Engine, EngineConfig,
    MetricsSnapshot, ModelRegistry, OpenLoopConfig, QueueConfig, Request, Response,
    RetryPolicy, ServeError, ServeQueue, Ticket, TopKQuery, TraceConfig,
};
use distenc::tensor::{io, CooTensor, KruskalTensor};
use std::collections::{BTreeMap, VecDeque};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(rest),
        "complete" => cmd_complete(rest),
        "resume" => cmd_resume(rest),
        "stream" => cmd_stream(rest),
        "evaluate" => cmd_evaluate(rest),
        "predict" => cmd_predict(rest),
        "serve-bench" => cmd_serve_bench(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
distenc — trace-regularized tensor completion (DisTenC, ICDE 2018)

USAGE:
  distenc generate --kind <scalability|error|skewed> --dims d1,d2,.. \\
                   --nnz N --out FILE [--seed S]
  distenc complete --input FILE --rank R --out MODEL
                   [--similarity FILE@MODE].. [--alpha A] [--lambda L]
                   [--iters T] [--tol EPS] [--eigen-k K] [--seed S] [--nonneg]
                   [--threads N]      (N >= 2 enables the thread-pool backend;
                                       results are bit-identical either way)
                   [--sketched] [--samples N] [--polish P]
                                      (sampled MTTKRP tier: N draws per step,
                                       last P iterations polished exactly;
                                       DISTENC_TIER=sketched[:N[:P]] is the
                                       env equivalent)
                   [--layout coo|tiled]
                                      (residual storage layout, bit-identical
                                       either way; tiled is the default and
                                       faster, coo is the reference.
                                       Precedence: --layout, then
                                       DISTENC_LAYOUT, then tiled. Unknown
                                       names are errors)
                   [--checkpoint FILE] [--checkpoint-every N]
                                      (snapshot the solver state to FILE every
                                       N iterations, default 5; atomic,
                                       checksummed, resumable)
  distenc resume   --checkpoint FILE --input FILE --out MODEL
                   [--similarity FILE@MODE].. [--threads N]
                   [--checkpoint-every N] [--layout coo|tiled]
                   (continue an interrupted `complete` from its snapshot;
                    the finished model is bit-identical to the run that was
                    never interrupted. --checkpoint-every keeps snapshotting
                    to the same FILE while resuming)
  distenc stream   --input FILE --delta FILE.. --rank R --out MODEL
                   [--iters T] [--budget-iters T] [--tol EPS] [--seed S]
                   [--layout coo|tiled]
                   (each --delta is a COO file; entries on observed cells
                    become value updates, new cells become inserts, and a
                    larger `# shape:` header grows the tensor — the model
                    is warm re-solved after every batch)
  distenc evaluate --model MODEL --test FILE
  distenc predict  --model MODEL --at i1,i2,..
  distenc predict  --model MODEL --at-file FILE         (scores every index)
  distenc predict  --model MODEL --top-k K --mode M --at i1,_,..
                   [--budget-ms MS]
  distenc serve-bench [--model MODEL | --dims d1,d2,.. --rank R]
                   [--queries N] [--point-frac F] [--batch-frac F]
                   [--batch-size B] [--k K] [--zipf S] [--budget-ms MS]
                   [--cache N] [--shard-rows N] [--workers W]
                   [--window-us U] [--capacity N] [--max-batch N] [--seed S]
                   [--approx-scan N | --approx-coverage F] [--recall-every N]
                   [--qps Q] [--tenants N] [--tenant-zipf S] [--json]
                   [--shed-watermark N] [--tenant-share N] [--deadline-ms MS]

serve-bench replays a closed-loop Zipf trace by default; --qps switches to
an open-loop (offered-load) harness with Poisson arrivals, admission
control, per-tenant fair queuing when --tenants > 1, and a --json report
of throughput, shed rate, e2e latency quantiles, recall@K, and per-tenant
queue occupancy.";

/// Parse `--key value` pairs (plus bare flags listed in `flags`).
fn parse_opts(
    args: &[String],
    flags: &[&str],
) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected an option, got `{a}`"))?;
        if flags.contains(&key) {
            out.insert(key.to_string(), "true".to_string());
        } else {
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            // Repeatable options accumulate separated by '\n'.
            out.entry(key.to_string())
                .and_modify(|cur| {
                    cur.push('\n');
                    cur.push_str(v);
                })
                .or_insert_with(|| v.clone());
        }
    }
    Ok(out)
}

fn req<'a>(opts: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: `{s}`"))
}

fn parse_list(s: &str, what: &str) -> Result<Vec<usize>, String> {
    s.split(',').map(|p| parse_num(p.trim(), what)).collect()
}

/// `--layout coo|tiled`. Unknown names are errors, never fallbacks —
/// a typo must not silently change which kernels run.
fn parse_layout(opts: &BTreeMap<String, String>) -> Result<Option<LayoutKind>, String> {
    opts.get("layout")
        .map(|s| LayoutKind::parse(s).map_err(|e| e.to_string()))
        .transpose()
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, &[])?;
    let kind = req(&opts, "kind")?;
    let dims = parse_list(req(&opts, "dims")?, "dimension")?;
    let nnz: usize = parse_num(req(&opts, "nnz")?, "nnz")?;
    let out = req(&opts, "out")?;
    let seed: u64 = opts.get("seed").map_or(Ok(42), |s| parse_num(s, "seed"))?;

    use distenc::datagen::synthetic;
    let tensor = match kind {
        "scalability" => synthetic::scalability_tensor(&dims, nnz, seed),
        "skewed" => synthetic::skewed_tensor(&dims, nnz, seed),
        "error" => {
            let data = synthetic::error_tensor(&dims, 5, nnz, seed);
            // Also emit the chain similarities next to the tensor.
            for (n, sim) in data.similarities.iter().enumerate() {
                let path = format!("{out}.sim{n}");
                write_similarity(sim, &path)?;
                eprintln!("wrote mode-{n} similarity to {path}");
            }
            data.observed
        }
        other => return Err(format!("unknown --kind `{other}`")),
    };
    io::write_coo_file(&tensor, out).map_err(|e| e.to_string())?;
    eprintln!("wrote {} entries of shape {:?} to {out}", tensor.nnz(), tensor.shape());
    Ok(())
}

fn write_similarity(s: &SparseSym, path: &str) -> Result<(), String> {
    let mut coo = CooTensor::new(vec![s.dim(), s.dim()]);
    for i in 0..s.dim() {
        let (cols, vals) = s.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            if j >= i {
                coo.push(&[i, j], v).map_err(|e| e.to_string())?;
            }
        }
    }
    io::write_coo_file(&coo, path).map_err(|e| e.to_string())
}

fn read_similarity(path: &str) -> Result<SparseSym, String> {
    let coo = io::read_coo_file(path).map_err(|e| e.to_string())?;
    if coo.order() != 2 || coo.shape()[0] != coo.shape()[1] {
        return Err(format!("{path}: similarity must be a square 2-order COO file"));
    }
    let triplets: Vec<(usize, usize, f64)> = coo
        .iter()
        .filter(|(idx, _)| idx[0] <= idx[1]) // upper triangle; mirrored on build
        .map(|(idx, v)| (idx[0], idx[1], v))
        .collect();
    Ok(SparseSym::from_triplets(coo.shape()[0], &triplets))
}

fn cmd_complete(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, &["nonneg", "sketched"])?;
    let input = req(&opts, "input")?;
    let out = req(&opts, "out")?;
    let observed = io::read_coo_file(input).map_err(|e| e.to_string())?;

    // --sketched [--samples N] [--polish P] selects the sampled solver
    // tier; without the flag the DISTENC_TIER-driven default applies
    // (and --samples/--polish refine it when that default is sketched).
    let solver_tier = {
        let default = distenc::core::SolverTier::default();
        if opts.contains_key("sketched") || default.is_sketched() {
            let (mut samples, mut polish_iters) = match default {
                distenc::core::SolverTier::Sketched { samples, polish_iters } => {
                    (samples, polish_iters)
                }
                distenc::core::SolverTier::Exact => {
                    (4096, distenc::core::DEFAULT_POLISH_ITERS)
                }
            };
            if let Some(s) = opts.get("samples") {
                samples = parse_num(s, "samples")?;
            }
            if let Some(p) = opts.get("polish") {
                polish_iters = parse_num(p, "polish")?;
            }
            distenc::core::SolverTier::Sketched { samples, polish_iters }
        } else {
            distenc::core::SolverTier::Exact
        }
    };

    let checkpoint = parse_checkpoint(&opts)?;
    if checkpoint.is_some() && solver_tier.is_sketched() {
        eprintln!(
            "warning: checkpoints are exact-tier artifacts; the sketched solve will not snapshot"
        );
    }
    let cfg = AdmmConfig {
        solver_tier,
        checkpoint,
        layout: parse_layout(&opts)?,
        rank: parse_num(req(&opts, "rank")?, "rank")?,
        lambda: opts.get("lambda").map_or(Ok(0.1), |s| parse_num(s, "lambda"))?,
        alpha: opts.get("alpha").map_or(Ok(1.0), |s| parse_num(s, "alpha"))?,
        max_iters: opts.get("iters").map_or(Ok(60), |s| parse_num(s, "iters"))?,
        tol: opts.get("tol").map_or(Ok(1e-4), |s| parse_num(s, "tol"))?,
        eigen_k: opts.get("eigen-k").map_or(Ok(20), |s| parse_num(s, "eigen-k"))?,
        seed: opts.get("seed").map_or(Ok(42), |s| parse_num(s, "seed"))?,
        nonneg: opts.contains_key("nonneg"),
        exec: match opts.get("threads") {
            Some(s) => match parse_num::<usize>(s, "threads")? {
                n if n >= 2 => distenc_dataflow::ExecMode::Threads(n),
                _ => distenc_dataflow::ExecMode::Sequential,
            },
            // Unset: inherit the DISTENC_THREADS-driven default.
            None => distenc_dataflow::ExecMode::default(),
        },
        ..Default::default()
    };

    let laps = parse_similarities(&opts, observed.order())?;
    let lap_refs: Vec<Option<&Laplacian>> = laps.iter().map(|l| l.as_ref()).collect();

    let solver = AdmmSolver::new(cfg).map_err(|e| e.to_string())?;
    let result = solver.solve(&observed, &lap_refs).map_err(|e| e.to_string())?;
    eprintln!(
        "completed in {} iterations (converged: {}, train RMSE {:.6})",
        result.iterations,
        result.converged,
        result.trace.final_rmse().unwrap_or(f64::NAN)
    );
    io::write_kruskal_file(&result.model, out).map_err(|e| e.to_string())?;
    eprintln!("wrote rank-{} model to {out}", result.model.rank());
    Ok(())
}

/// `--similarity FILE@MODE`, repeatable.
fn parse_similarities(
    opts: &BTreeMap<String, String>,
    order: usize,
) -> Result<Vec<Option<Laplacian>>, String> {
    let mut laps: Vec<Option<Laplacian>> = vec![None; order];
    if let Some(specs) = opts.get("similarity") {
        for spec in specs.split('\n') {
            let (path, mode) = spec
                .rsplit_once('@')
                .ok_or_else(|| format!("--similarity needs FILE@MODE, got `{spec}`"))?;
            let mode: usize = parse_num(mode, "similarity mode")?;
            if mode >= order {
                return Err(format!("mode {mode} out of range for order {order}"));
            }
            laps[mode] = Some(Laplacian::from_similarity(read_similarity(path)?));
        }
    }
    Ok(laps)
}

/// `--checkpoint FILE [--checkpoint-every N]` (default cadence 5).
fn parse_checkpoint(
    opts: &BTreeMap<String, String>,
) -> Result<Option<CheckpointPolicy>, String> {
    let Some(path) = opts.get("checkpoint") else {
        if opts.contains_key("checkpoint-every") {
            return Err("--checkpoint-every needs --checkpoint FILE".into());
        }
        return Ok(None);
    };
    let every: usize =
        opts.get("checkpoint-every").map_or(Ok(5), |s| parse_num(s, "checkpoint-every"))?;
    Ok(Some(CheckpointPolicy::every(every).with_path(path)))
}

fn cmd_resume(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, &[])?;
    let ckpt_path = req(&opts, "checkpoint")?;
    let input = req(&opts, "input")?;
    let out = req(&opts, "out")?;
    let observed = io::read_coo_file(input).map_err(|e| e.to_string())?;
    let ckpt = Checkpoint::read_file(std::path::Path::new(ckpt_path))
        .map_err(|e| format!("reading {ckpt_path}: {e}"))?;

    // The solve numerics come from the snapshot; only the environment
    // knobs are taken from this invocation. `--checkpoint-every` keeps
    // snapshotting to the same file while the resumed run progresses.
    let mut cfg = ckpt.config.clone();
    cfg.checkpoint = opts
        .get("checkpoint-every")
        .map(|s| parse_num(s, "checkpoint-every"))
        .transpose()?
        .map(|every| CheckpointPolicy::every(every).with_path(ckpt_path));
    cfg.exec = match opts.get("threads") {
        Some(s) => match parse_num::<usize>(s, "threads")? {
            n if n >= 2 => distenc_dataflow::ExecMode::Threads(n),
            _ => distenc_dataflow::ExecMode::Sequential,
        },
        None => distenc_dataflow::ExecMode::default(),
    };
    cfg.layout = parse_layout(&opts)?;

    let laps = parse_similarities(&opts, observed.order())?;
    let lap_refs: Vec<Option<&Laplacian>> = laps.iter().map(|l| l.as_ref()).collect();

    let solver = AdmmSolver::new(cfg).map_err(|e| e.to_string())?;
    let result = solver.resume(&observed, &lap_refs, &ckpt).map_err(|e| e.to_string())?;
    eprintln!(
        "resumed at iteration {} and finished at {} (converged: {}, train RMSE {:.6})",
        ckpt.iters_done,
        result.iterations,
        result.converged,
        result.trace.final_rmse().unwrap_or(f64::NAN)
    );
    io::write_kruskal_file(&result.model, out).map_err(|e| e.to_string())?;
    eprintln!("wrote rank-{} model to {out}", result.model.rank());
    Ok(())
}

fn cmd_stream(args: &[String]) -> Result<(), String> {
    use distenc::stream::{DeltaBatch, StreamingSolver};

    let opts = parse_opts(args, &[])?;
    let input = req(&opts, "input")?;
    let out = req(&opts, "out")?;
    let observed = io::read_coo_file(input).map_err(|e| e.to_string())?;
    let order = observed.order();

    let cfg = AdmmConfig {
        layout: parse_layout(&opts)?,
        rank: parse_num(req(&opts, "rank")?, "rank")?,
        max_iters: opts.get("iters").map_or(Ok(60), |s| parse_num(s, "iters"))?,
        tol: opts.get("tol").map_or(Ok(1e-4), |s| parse_num(s, "tol"))?,
        seed: opts.get("seed").map_or(Ok(42), |s| parse_num(s, "seed"))?,
        ..Default::default()
    };
    let budget: usize =
        opts.get("budget-iters").map_or(Ok(cfg.max_iters), |s| parse_num(s, "budget-iters"))?;
    let tol = cfg.tol;

    let mut solver =
        StreamingSolver::new(observed, vec![None; order], cfg).map_err(|e| e.to_string())?;
    let first = solver.solve().map_err(|e| e.to_string())?;
    eprintln!(
        "initial solve: {} iterations, train RMSE {:.6}",
        first.iterations,
        first.trace.final_rmse().unwrap_or(f64::NAN)
    );

    // Each --delta COO file is one batch: its entries are split into
    // updates (cells already observed) and inserts (new cells); a larger
    // shape header grows the tensor.
    solver.set_budget(budget, tol).map_err(|e| e.to_string())?;
    for path in req(&opts, "delta")?.split('\n') {
        let delta = io::read_coo_file(path).map_err(|e| e.to_string())?;
        if delta.order() != order {
            return Err(format!("{path}: delta is order {}, tensor is {order}", delta.order()));
        }
        let base = solver.observed().shape().to_vec();
        let growth: Vec<usize> = delta
            .shape()
            .iter()
            .zip(&base)
            .map(|(&d, &b)| d.saturating_sub(b))
            .collect();
        let (mut inserts, mut updates) = (Vec::new(), Vec::new());
        for (idx, v) in delta.iter() {
            if solver.observed().position_of(idx).is_some() {
                updates.push((idx.to_vec(), v));
            } else {
                inserts.push((idx.to_vec(), v));
            }
        }
        let batch = DeltaBatch::try_new(&base, &growth, inserts, updates)
            .map_err(|e| format!("{path}: {e}"))?;
        solver.apply(&batch).map_err(|e| format!("{path}: {e}"))?;
        let r = solver.solve().map_err(|e| e.to_string())?;
        eprintln!(
            "{path}: applied {} entries -> generation {}: {} iterations, train RMSE {:.6}",
            delta.nnz(),
            solver.generation(),
            r.iterations,
            r.trace.final_rmse().unwrap_or(f64::NAN)
        );
    }

    let model = solver.model().expect("solved at least once");
    io::write_kruskal_file(model, out).map_err(|e| e.to_string())?;
    eprintln!("wrote rank-{} model to {out}", model.rank());
    Ok(())
}

fn cmd_evaluate(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, &[])?;
    let model = io::read_kruskal_file(req(&opts, "model")?).map_err(|e| e.to_string())?;
    let test = io::read_coo_file(req(&opts, "test")?).map_err(|e| e.to_string())?;
    if test.shape() != model.shape().as_slice() {
        return Err(format!(
            "test shape {:?} does not match model shape {:?}",
            test.shape(),
            model.shape()
        ));
    }
    let rmse = distenc::tensor::residual::observed_rmse(&test, &model)
        .map_err(|e| e.to_string())?;
    let mut num = 0.0;
    let mut den = 0.0;
    for (idx, truth) in test.iter() {
        let p = model.eval(idx);
        num += (p - truth) * (p - truth);
        den += truth * truth;
    }
    let rel = if den > 0.0 { (num / den).sqrt() } else { 0.0 };
    println!("entries: {}", test.nnz());
    println!("rmse: {rmse:.6}");
    println!("relative_error: {rel:.6}");
    Ok(())
}

/// Parse an index list where `_` or `*` marks the free-mode placeholder.
fn parse_index_spec(s: &str, what: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| {
            let p = p.trim();
            if p == "_" || p == "*" {
                Ok(0)
            } else {
                parse_num(p, what)
            }
        })
        .collect()
}

fn parse_budget(opts: &BTreeMap<String, String>) -> Result<Option<Duration>, String> {
    opts.get("budget-ms")
        .map(|s| parse_num::<u64>(s, "budget-ms").map(Duration::from_millis))
        .transpose()
}

fn cmd_predict(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, &[])?;
    let model = io::read_kruskal_file(req(&opts, "model")?).map_err(|e| e.to_string())?;
    let engine = Engine::new(&model, EngineConfig::default()).map_err(|e| e.to_string())?;

    if let Some(k) = opts.get("top-k") {
        // Rank the free mode with everything else pinned.
        let k: usize = parse_num(k, "top-k")?;
        let mode: usize = parse_num(req(&opts, "mode")?, "mode")?;
        let at = parse_index_spec(req(&opts, "at")?, "index")?;
        let res = engine
            .topk(&TopKQuery { mode, at, k }, parse_budget(&opts)?)
            .map_err(|e| e.to_string())?;
        if res.degraded {
            eprintln!(
                "warning: budget expired after {} of {} candidates; showing best-so-far",
                res.scanned,
                model.shape()[mode]
            );
        }
        for item in &res.items {
            println!("{} {}", item.index, item.score);
        }
    } else if let Some(path) = opts.get("at-file") {
        // Score every index of a COO-style list in one batch pass
        // (values in the file, if any, are ignored).
        let queries = io::read_coo_file(path).map_err(|e| format!("reading {path}: {e}"))?;
        if queries.shape() != model.shape().as_slice() {
            return Err(format!(
                "query shape {:?} does not match model shape {:?}",
                queries.shape(),
                model.shape()
            ));
        }
        let indices: Vec<Vec<usize>> = queries.iter().map(|(idx, _)| idx.to_vec()).collect();
        let scores = engine.batch(&indices).map_err(|e| e.to_string())?;
        for (idx, score) in indices.iter().zip(scores) {
            let coords: Vec<String> = idx.iter().map(|i| i.to_string()).collect();
            println!("{} {score}", coords.join(" "));
        }
    } else {
        let idx = parse_list(req(&opts, "at")?, "index")?;
        println!("{}", engine.point(&idx).map_err(|e| e.to_string())?);
    }
    Ok(())
}

fn cmd_serve_bench(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, &["json"])?;
    let seed: u64 = opts.get("seed").map_or(Ok(42), |s| parse_num(s, "seed"))?;
    let model = match opts.get("model") {
        Some(path) => io::read_kruskal_file(path).map_err(|e| e.to_string())?,
        None => {
            let dims = opts
                .get("dims")
                .map(|s| parse_list(s, "dimension"))
                .transpose()?
                .unwrap_or_else(|| vec![2000, 500, 20]);
            let rank: usize = opts.get("rank").map_or(Ok(8), |s| parse_num(s, "rank"))?;
            KruskalTensor::random(&dims, rank, seed)
        }
    };
    let approx_topk = match (opts.get("approx-scan"), opts.get("approx-coverage")) {
        (Some(_), Some(_)) => {
            return Err("--approx-scan and --approx-coverage are mutually exclusive".into())
        }
        (Some(s), None) => Some(ApproxTopK::ScanLimit(parse_num(s, "approx-scan")?)),
        (None, Some(c)) => Some(ApproxTopK::NormCoverage(parse_num(c, "approx-coverage")?)),
        (None, None) => None,
    };
    let engine_cfg = EngineConfig {
        shard_rows: opts.get("shard-rows").map_or(Ok(4096), |s| parse_num(s, "shard-rows"))?,
        topk_cache: opts.get("cache").map_or(Ok(1024), |s| parse_num(s, "cache"))?,
        approx_topk,
        recall_check_every: opts
            .get("recall-every")
            .map_or(Ok(0), |s| parse_num(s, "recall-every"))?,
        ..Default::default()
    };

    let trace_cfg = TraceConfig {
        queries: opts.get("queries").map_or(Ok(100_000), |s| parse_num(s, "queries"))?,
        point_frac: opts.get("point-frac").map_or(Ok(0.6), |s| parse_num(s, "point-frac"))?,
        batch_frac: opts.get("batch-frac").map_or(Ok(0.2), |s| parse_num(s, "batch-frac"))?,
        batch_size: opts.get("batch-size").map_or(Ok(32), |s| parse_num(s, "batch-size"))?,
        k: opts.get("k").map_or(Ok(10), |s| parse_num(s, "k"))?,
        topk_budget: parse_budget(&opts)?,
        zipf_exponent: opts.get("zipf").map_or(Ok(1.1), |s| parse_num(s, "zipf"))?,
        seed,
    };
    if !(0.0..=1.0).contains(&trace_cfg.point_frac)
        || !(0.0..=1.0).contains(&trace_cfg.batch_frac)
        || trace_cfg.point_frac + trace_cfg.batch_frac > 1.0
    {
        return Err(format!(
            "--point-frac ({}) and --batch-frac ({}) must be non-negative and sum to at most 1",
            trace_cfg.point_frac, trace_cfg.batch_frac
        ));
    }
    if let Some(qps) = opts.get("qps") {
        return serve_bench_open_loop(
            &opts,
            &model,
            engine_cfg,
            trace_cfg,
            parse_num(qps, "qps")?,
        );
    }

    let engine = Arc::new(Engine::new(&model, engine_cfg).map_err(|e| e.to_string())?);
    let shape = model.shape();
    let trace = synth_trace(&shape, &trace_cfg);
    let store = engine.store();
    eprintln!(
        "replaying {} requests against shape {:?} rank {} ({} shards, {:.1} MiB store)",
        trace.len(),
        shape,
        model.rank(),
        (0..store.order()).map(|m| store.num_shards(m)).sum::<usize>(),
        store.mem_bytes() as f64 / (1024.0 * 1024.0),
    );

    let workers: usize = opts.get("workers").map_or(Ok(0), |s| parse_num(s, "workers"))?;
    let total = trace.len();
    let start = Instant::now();
    if workers == 0 {
        // Direct replay: every request hits the engine synchronously.
        for request in &trace {
            match request {
                Request::Point { index } => {
                    engine.point(index).map_err(|e| e.to_string())?;
                }
                Request::Batch { indices } => {
                    engine.batch(indices).map_err(|e| e.to_string())?;
                }
                Request::TopK { query, budget } => {
                    engine.topk(query, *budget).map_err(|e| e.to_string())?;
                }
            }
        }
    } else {
        // Queued replay: submissions flow through the bounded batching
        // queue. Backpressure is absorbed in two steps: a short
        // retry-with-backoff first (workers usually free capacity within
        // microseconds), then — if the queue is still full — the replayer
        // waits for its oldest in-flight ticket before trying again.
        let retry = RetryPolicy::default();
        let queue_cfg = QueueConfig {
            capacity: opts.get("capacity").map_or(Ok(1024), |s| parse_num(s, "capacity"))?,
            max_batch: opts.get("max-batch").map_or(Ok(64), |s| parse_num(s, "max-batch"))?,
            window: Duration::from_micros(
                opts.get("window-us").map_or(Ok(200), |s| parse_num(s, "window-us"))?,
            ),
            workers,
            ..Default::default()
        };
        let queue =
            ServeQueue::new(Arc::clone(&engine), queue_cfg).map_err(|e| e.to_string())?;
        let mut pending: VecDeque<Ticket> = VecDeque::new();
        for request in trace {
            loop {
                match queue.submit_with_retry(request.clone(), &retry) {
                    Ok(ticket) => {
                        pending.push_back(ticket);
                        break;
                    }
                    Err(ServeError::QueueFull { .. }) => match pending.pop_front() {
                        Some(ticket) => {
                            ticket.wait();
                        }
                        None => std::thread::yield_now(),
                    },
                    Err(e) => return Err(e.to_string()),
                }
            }
        }
        for ticket in pending {
            ticket.wait();
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "replayed {total} requests in {elapsed:.3} s ({:.0} req/s)",
        total as f64 / elapsed.max(1e-9)
    );
    println!("{}", engine.snapshot());
    Ok(())
}

/// Spin/sleep until `start + offset` (sleep for coarse gaps, spin the
/// final stretch — high-QPS inter-arrival gaps are far below OS sleep
/// granularity).
fn pace(start: Instant, offset: Duration) {
    let target = start + offset;
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        if target - now > Duration::from_micros(300) {
            std::thread::sleep(target - now - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open-loop serve-bench: offered load at a fixed QPS (Poisson
/// arrivals), optional admission control, multi-tenant fair queuing, and
/// a machine-readable `--json` report.
fn serve_bench_open_loop(
    opts: &BTreeMap<String, String>,
    model: &KruskalTensor,
    engine_cfg: EngineConfig,
    trace_cfg: TraceConfig,
    qps: f64,
) -> Result<(), String> {
    let tenants: usize = opts.get("tenants").map_or(Ok(1), |s| parse_num(s, "tenants"))?;
    if tenants == 0 {
        return Err("--tenants must be at least 1".into());
    }
    let workers: usize = opts.get("workers").map_or(Ok(2), |s| parse_num(s, "workers"))?;
    if workers == 0 {
        return Err("open-loop mode needs --workers >= 1".into());
    }
    let deadline = opts
        .get("deadline-ms")
        .map(|s| parse_num::<u64>(s, "deadline-ms").map(Duration::from_millis))
        .transpose()?;
    let queue_cfg = QueueConfig {
        capacity: opts.get("capacity").map_or(Ok(1024), |s| parse_num(s, "capacity"))?,
        max_batch: opts.get("max-batch").map_or(Ok(64), |s| parse_num(s, "max-batch"))?,
        window: Duration::from_micros(
            opts.get("window-us").map_or(Ok(200), |s| parse_num(s, "window-us"))?,
        ),
        workers,
        admission: AdmissionControl {
            shed_watermark: opts
                .get("shed-watermark")
                .map(|s| parse_num(s, "shed-watermark"))
                .transpose()?,
            deadline_aware: deadline.is_some(),
            tenant_share: opts
                .get("tenant-share")
                .map(|s| parse_num(s, "tenant-share"))
                .transpose()?,
        },
        ..Default::default()
    };

    // Single tenant fronts one engine; several front a model registry
    // (every tenant serving this same model, each with its own engine).
    enum Fleet {
        Single(Arc<Engine>),
        Multi(Arc<ModelRegistry>),
    }
    let names: Vec<String> = (0..tenants).map(|i| format!("tenant-{i}")).collect();
    let (queue, fleet) = if tenants > 1 {
        let reg = Arc::new(ModelRegistry::new());
        for name in &names {
            reg.register(name, model, engine_cfg.clone()).map_err(|e| e.to_string())?;
        }
        let queue =
            ServeQueue::with_registry(Arc::clone(&reg), queue_cfg).map_err(|e| e.to_string())?;
        (queue, Fleet::Multi(reg))
    } else {
        let engine = Arc::new(Engine::new(model, engine_cfg).map_err(|e| e.to_string())?);
        let queue =
            ServeQueue::new(Arc::clone(&engine), queue_cfg).map_err(|e| e.to_string())?;
        (queue, Fleet::Single(engine))
    };

    let open_cfg = OpenLoopConfig {
        qps,
        tenants,
        tenant_zipf: opts.get("tenant-zipf").map_or(Ok(1.0), |s| parse_num(s, "tenant-zipf"))?,
        trace: trace_cfg,
    };
    let shape = model.shape();
    let trace = open_loop_trace(&shape, &open_cfg);
    eprintln!(
        "offering {} requests at {qps:.0} qps across {tenants} tenant(s), shape {shape:?} rank {}",
        trace.len(),
        model.rank(),
    );

    let mut tickets = Vec::with_capacity(trace.len());
    let mut rejected = 0u64;
    let start = Instant::now();
    for tr in &trace {
        pace(start, tr.offset);
        let submitted = if tenants > 1 {
            queue.submit_for_with_deadline(&names[tr.tenant], tr.request.clone(), deadline)
        } else {
            queue.submit_with_deadline(tr.request.clone(), deadline)
        };
        match submitted {
            Ok(t) => tickets.push((tr.tenant, t)),
            Err(ServeError::QueueFull { .. }) => rejected += 1,
            Err(e) => return Err(e.to_string()),
        }
    }
    let mut served = vec![0u64; tenants];
    let mut shed = vec![0u64; tenants];
    let (mut timed_out, mut errors) = (0u64, 0u64);
    for (tenant, ticket) in tickets {
        match ticket.wait() {
            Response::Value(_) | Response::Values(_) | Response::TopK(_) => served[tenant] += 1,
            Response::Shed(_) => shed[tenant] += 1,
            Response::TimedOut => timed_out += 1,
            Response::Error(_) => errors += 1,
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let occupancy = queue.occupancy();
    drop(queue);

    let snap: MetricsSnapshot = match &fleet {
        Fleet::Single(engine) => engine.snapshot(),
        Fleet::Multi(reg) => reg.snapshot(),
    };
    // The fleet block never sees recall samples (each tenant's engine
    // records its own), so aggregate recall across tenant snapshots.
    let (recall_overlap, recall_possible, recall_checks) = match &fleet {
        Fleet::Single(engine) => {
            let s = engine.snapshot();
            (s.recall_overlap, s.recall_possible, s.recall_checks)
        }
        Fleet::Multi(reg) => reg.tenant_snapshots().iter().fold((0, 0, 0), |acc, (_, s)| {
            (acc.0 + s.recall_overlap, acc.1 + s.recall_possible, acc.2 + s.recall_checks)
        }),
    };
    let recall = if recall_possible == 0 {
        0.0
    } else {
        recall_overlap as f64 / recall_possible as f64
    };
    let total_served: u64 = served.iter().sum();
    let total_shed: u64 = shed.iter().sum();
    let achieved = total_served as f64 / wall.max(1e-9);

    if opts.contains_key("json") {
        let tenant_rows: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let peak =
                    occupancy.iter().find(|(n, _, _)| n == name || (tenants == 1 && n == "default"))
                        .map_or(0, |(_, _, p)| *p);
                format!(
                    "    {{ \"tenant\": \"{name}\", \"served\": {}, \"shed\": {}, \"queued_peak\": {peak} }}",
                    served[i], shed[i]
                )
            })
            .collect();
        println!(
            "{{\n  \"offered_qps\": {qps:.0},\n  \"achieved_qps\": {achieved:.0},\n  \"wall_secs\": {wall:.3},\n  \"requests\": {},\n  \"served\": {total_served},\n  \"shed\": {total_shed},\n  \"sheds_queue_depth\": {},\n  \"sheds_deadline\": {},\n  \"sheds_tenant_share\": {},\n  \"rejected\": {rejected},\n  \"timed_out\": {timed_out},\n  \"errors\": {errors},\n  \"shed_rate\": {:.4},\n  \"queue_depth_peak\": {},\n  \"e2e_us\": {{ \"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}, \"mean\": {:.1} }},\n  \"recall_at_k\": {recall:.4},\n  \"recall_checks\": {recall_checks},\n  \"tenants\": [\n{}\n  ]\n}}",
            trace.len(),
            snap.sheds_queue_depth,
            snap.sheds_deadline,
            snap.sheds_tenant_share,
            snap.shed_rate(),
            snap.queue_depth_peak,
            snap.e2e_p50.as_secs_f64() * 1e6,
            snap.e2e_p90.as_secs_f64() * 1e6,
            snap.e2e_p99.as_secs_f64() * 1e6,
            snap.e2e_mean.as_secs_f64() * 1e6,
            tenant_rows.join(",\n"),
        );
    } else {
        println!(
            "offered {} requests at {qps:.0} qps in {wall:.3} s: {total_served} served ({achieved:.0} qps), {total_shed} shed, {rejected} rejected, {timed_out} timed out, {errors} errors",
            trace.len(),
        );
        println!("{snap}");
        for (i, name) in names.iter().enumerate() {
            let peak = occupancy
                .iter()
                .find(|(n, _, _)| n == name || (tenants == 1 && n == "default"))
                .map_or(0, |(_, _, p)| *p);
            println!(
                "  {name}: served {} shed {} peak queue {peak}",
                served[i], shed[i]
            );
        }
    }
    Ok(())
}
