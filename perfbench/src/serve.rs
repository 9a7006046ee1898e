//! The `serve-openloop` workload and the serve-layer probes.
//!
//! One harness thread paces Poisson arrivals, submits them to a
//! one-worker `ServeQueue`, polls every outstanding ticket between sends,
//! and publishes an alternate model at a fixed interval. Harness thread +
//! queue worker = 2 threads, the host's `nproc`. Each request is timed
//! from its *scheduled* send time to when its response is observed, so a
//! stall in the generator counts against the requests it delays.

use crate::data::{self, Res};
use crate::json::{obj, J};
use crate::probes::e;
use crate::stats::{median, quantile, sorted, tail, StealMeter, STEAL_TOLERANCE};
use crate::{put, Ctx, Metrics, Outcome};
use distenc_serve::{
    open_loop_trace, AdmissionControl, Engine, EngineConfig, ModelRegistry, OpenLoopConfig,
    QueueConfig, Request, Response, ServeError, ServeQueue, Ticket, TraceConfig,
};
use distenc_tensor::KruskalTensor;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency limit of the SLO: a request meets it when a successful
/// response is observed within this long of its scheduled send time.
pub const LIMIT: Duration = Duration::from_millis(2);
/// Offered rates: about 40% and 80% of one worker's capacity on the
/// serving model (see README.md for the capacity probe).
pub const NOMINAL_QPS: f64 = 40_000.0;
pub const PEAK_QPS: f64 = 80_000.0;
/// The ladder that finds the highest rate meeting the limit.
const LADDER_QPS: [f64; 4] = [90_000.0, 100_000.0, 110_000.0, 120_000.0];
/// A rung meets the limit when this share of sent requests do.
const RUNG_ATTAINMENT: f64 = 0.99;
const PUBLISH_EVERY: Duration = Duration::from_millis(500);
/// A resolved ticket is checked for a second response this long after
/// its first, then dropped.
const RECHECK_AFTER: Duration = Duration::from_millis(20);
/// Every this-many-th request is re-answered by a direct `Engine`.
const SAMPLE_EVERY: usize = 97;

fn queue_config() -> QueueConfig {
    QueueConfig {
        capacity: 4096,
        max_batch: 64,
        window: Duration::from_micros(100),
        workers: 1,
        admission: AdmissionControl {
            shed_watermark: Some(2048),
            deadline_aware: true,
            tenant_share: None,
        },
        fair_quantum: 8,
    }
}

/// The request mix: 70% point, 15% batch-16, 15% top-8, Zipf popularity.
fn mix(queries: usize, seed: u64) -> TraceConfig {
    TraceConfig {
        queries,
        point_frac: 0.70,
        batch_frac: 0.15,
        batch_size: 16,
        k: 8,
        topk_budget: None,
        zipf_exponent: 1.1,
        seed,
    }
}

#[derive(Debug, Default)]
pub struct Rung {
    pub qps: f64,
    pub sent: u64,
    pub ok: u64,
    pub met: u64,
    pub shed: u64,
    pub rejected: u64,
    pub timed_out: u64,
    pub errors: u64,
    pub unresolved: u64,
    pub duplicates: u64,
    pub mismatches: u64,
    pub samples: u64,
    pub latency_us: Vec<f64>,
    pub lateness_us: Vec<f64>,
    pub publish_us: Vec<f64>,
    pub wall_s: f64,
    pub batches: u64,
    pub depth_peak: u64,
    pub cache_hit_rate: f64,
    pub prune_rate: f64,
    /// Steal share of the machine while the rung ran.
    pub steal: f64,
}

impl Rung {
    pub fn attainment(&self) -> f64 {
        self.met as f64 / self.sent.max(1) as f64
    }

    fn failed(&self) -> u64 {
        self.shed + self.rejected + self.timed_out + self.errors + self.unresolved
    }
}

fn same(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (Response::Value(x), Response::Value(y)) => x.to_bits() == y.to_bits(),
        (Response::Values(x), Response::Values(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Response::TopK(x), Response::TopK(y)) => {
            x.items.len() == y.items.len()
                && x.items
                    .iter()
                    .zip(&y.items)
                    .all(|(p, q)| p.index == q.index && p.score.to_bits() == q.score.to_bits())
        }
        _ => false,
    }
}

/// Answer `req` with a direct engine call.
fn direct(engine: &Engine, req: &Request) -> Res<Response> {
    Ok(match req {
        Request::Point { index } => Response::Value(engine.point(index).map_err(e)?),
        Request::Batch { indices } => Response::Values(engine.batch(indices).map_err(e)?),
        Request::TopK { query, budget } => Response::TopK(engine.topk(query, *budget).map_err(e)?),
    })
}

/// The harness's ledger of one rung: outstanding tickets, which requests
/// have resolved, the sampled answers, and resolved tickets kept briefly
/// so a second response on any of them is caught.
struct Book {
    rung: Rung,
    answered: Vec<bool>,
    kept: HashMap<usize, Response>,
    pending: Vec<(usize, Ticket, Instant)>,
    done: VecDeque<(Instant, Ticket)>,
}

impl Book {
    /// Collect every response that has arrived, timing each from its
    /// scheduled send time.
    fn poll(&mut self) {
        let rung = &mut self.rung;
        let mut j = 0;
        while j < self.pending.len() {
            let Some(resp) = self.pending[j].1.wait_for(Duration::ZERO) else {
                j += 1;
                continue;
            };
            let lat = self.pending[j].2.elapsed();
            let (i, ticket, _) = self.pending.swap_remove(j);
            match &resp {
                Response::Value(_) | Response::Values(_) | Response::TopK(_) => {
                    rung.ok += 1;
                    rung.latency_us.push(lat.as_secs_f64() * 1e6);
                    if lat <= LIMIT {
                        rung.met += 1;
                    }
                }
                Response::Shed(_) => rung.shed += 1,
                Response::TimedOut => rung.timed_out += 1,
                Response::Error(_) => rung.errors += 1,
            }
            if std::mem::replace(&mut self.answered[i], true) {
                rung.duplicates += 1;
            }
            if i % SAMPLE_EVERY == 0 {
                self.kept.insert(i, resp);
            }
            let now = Instant::now();
            self.done.push_back((now, ticket));
            while self
                .done
                .front()
                .is_some_and(|(t, _)| now - *t > RECHECK_AFTER)
            {
                let (_, old) = self.done.pop_front().expect("front exists");
                if old.wait_for(Duration::ZERO).is_some() {
                    rung.duplicates += 1;
                }
            }
        }
    }
}

/// One open-loop rung against a fresh registry + queue serving
/// `models[0]`, publishing the other model every [`PUBLISH_EVERY`].
pub fn run_rung(
    ctx: &Ctx,
    models: [&KruskalTensor; 2],
    qps: f64,
    secs: f64,
    seed: u64,
) -> Res<Rung> {
    let tr = &ctx.tracer;
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register("default", models[0], EngineConfig::default())
        .map_err(e)?;
    let mut queue = ServeQueue::with_registry(Arc::clone(&registry), queue_config()).map_err(e)?;
    let shape = models[0].shape().to_vec();
    let queries = ((qps * secs).ceil() as usize).max(1);
    let trace = open_loop_trace(
        &shape,
        &OpenLoopConfig {
            qps,
            tenants: 1,
            tenant_zipf: 0.0,
            trace: mix(queries, seed),
        },
    );
    let mut book = Book {
        rung: Rung {
            qps,
            ..Rung::default()
        },
        answered: vec![false; trace.len()],
        kept: HashMap::new(),
        pending: Vec::new(),
        done: VecDeque::new(),
    };
    let mut sampled: Vec<(Request, usize)> = Vec::new();
    let mut publishes = 0usize;
    let meter = StealMeter::start(ctx.nproc);
    let start = Instant::now() + Duration::from_millis(2);
    let mut next_publish = start + PUBLISH_EVERY;
    tr.span("harness", "open-loop rung", || {
        for (i, timed) in trace.into_iter().enumerate() {
            let due = start + timed.offset;
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                if now >= next_publish {
                    publishes += 1;
                    let t0 = Instant::now();
                    let r = tr.span("serve", "ModelRegistry::publish", || {
                        registry.publish("default", models[publishes % 2])
                    });
                    book.rung.publish_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    if r.is_err() {
                        book.rung.errors += 1;
                    }
                    next_publish += PUBLISH_EVERY;
                    continue;
                }
                book.poll();
                std::hint::spin_loop();
            }
            book.rung
                .lateness_us
                .push(due.elapsed().as_secs_f64() * 1e6);
            if i % SAMPLE_EVERY == 0 {
                sampled.push((timed.request.clone(), i));
            }
            book.rung.sent += 1;
            match tr.span("serve", "ServeQueue::submit", || {
                queue.submit_with_deadline(timed.request, Some(LIMIT))
            }) {
                Ok(t) => book.pending.push((i, t, due)),
                Err(ServeError::QueueFull { .. }) => book.rung.rejected += 1,
                Err(_) => book.rung.errors += 1,
            }
        }
        let drain_until = Instant::now() + Duration::from_secs(10);
        while !book.pending.is_empty() && Instant::now() < drain_until {
            book.poll();
        }
    });
    let mut rung = std::mem::take(&mut book.rung);
    rung.wall_s = start.elapsed().as_secs_f64();
    rung.steal = meter.share();
    rung.unresolved = book.pending.len() as u64;
    rung.duplicates += book
        .done
        .iter()
        .filter(|(_, t)| t.wait_for(Duration::ZERO).is_some())
        .count() as u64;

    let fleet = registry.snapshot();
    rung.batches = fleet.batches_executed;
    rung.depth_peak = fleet.queue_depth_peak;
    let engine = registry
        .engine("default")
        .ok_or("tenant vanished")?
        .snapshot();
    rung.cache_hit_rate = engine.cache_hit_rate();
    rung.prune_rate = engine.prune_rate();
    queue.shutdown();

    let engines = [
        Engine::new(models[0], EngineConfig::default()).map_err(e)?,
        Engine::new(models[1], EngineConfig::default()).map_err(e)?,
    ];
    for (req, i) in &sampled {
        let Some(served) = book.kept.get(i) else {
            continue;
        };
        if matches!(
            served,
            Response::Shed(_) | Response::TimedOut | Response::Error(_)
        ) {
            continue;
        }
        rung.samples += 1;
        let a = direct(&engines[0], req)?;
        let b = direct(&engines[1], req)?;
        if !same(served, &a) && !same(served, &b) {
            rung.mismatches += 1;
        }
    }
    Ok(rung)
}

/// Direct `Engine` latency per request type on the same mix, in µs.
fn engine_probe(ctx: &Ctx, model: &KruskalTensor, layer: &mut Metrics) -> Res<f64> {
    let engine = Engine::new(model, EngineConfig::default()).map_err(e)?;
    let reqs = distenc_serve::synth_trace(&model.shape(), &mix(4000, ctx.seed ^ 0xd1ec7));
    let (mut point, mut batch, mut topk, mut all) = (vec![], vec![], vec![], vec![]);
    for req in &reqs {
        let t0 = Instant::now();
        ctx.tracer
            .span("serve", "Engine::query", || direct(&engine, req))?;
        let us = t0.elapsed().as_secs_f64() * 1e6;
        all.push(us);
        match req {
            Request::Point { .. } => point.push(us),
            Request::Batch { .. } => batch.push(us),
            Request::TopK { .. } => topk.push(us),
        }
    }
    put(layer, "serve.engine.point_us", median(&point), "us");
    put(layer, "serve.engine.batch_us", median(&batch), "us");
    put(layer, "serve.engine.topk_us", median(&topk), "us");
    Ok(median(&all))
}

fn rung_layers(rung: &Rung, engine_p50_us: f64, layer: &mut Metrics) {
    let p50 = median(&rung.latency_us);
    put(
        layer,
        "serve.queue.overhead_p50_us",
        p50 - engine_p50_us,
        "us",
    );
    put(
        layer,
        "serve.queue.batch_size_mean",
        rung.sent as f64 / rung.batches.max(1) as f64,
        "count",
    );
    put(
        layer,
        "serve.queue.depth_peak",
        rung.depth_peak as f64,
        "count",
    );
    put(layer, "serve.cache.hit_rate", rung.cache_hit_rate, "ratio");
    put(layer, "serve.topk.prune_rate", rung.prune_rate, "ratio");
    put(
        layer,
        "serve.shed_rate",
        rung.shed as f64 / rung.sent.max(1) as f64,
        "ratio",
    );
    let late = sorted(&rung.lateness_us);
    put(
        layer,
        "harness.gen_lateness_p99_us",
        quantile(&late, 0.99),
        "us",
    );
    put(
        layer,
        "serve.live.publish_us",
        median(&rung.publish_us),
        "us",
    );
}

/// Serve-layer probes for the solver workloads: direct engine calls and a
/// short nominal-rate rung on the solved model (publishing a perturbed
/// copy of it).
pub fn serve_layers(ctx: &Ctx, model: &KruskalTensor, layer: &mut Metrics) -> Res<()> {
    let engine_p50 = engine_probe(ctx, model, layer)?;
    let mut alt = model.clone();
    for v in alt.factors_mut()[0].as_mut_slice() {
        *v *= 1.0 + 1e-9;
    }
    let rung = run_rung(ctx, [model, &alt], NOMINAL_QPS, 1.0, ctx.seed ^ 0x5e7e)?;
    rung_layers(&rung, engine_p50, layer);
    Ok(())
}

fn rung_json(r: &Rung) -> J {
    let lat = sorted(&r.latency_us);
    obj(vec![
        ("offered_qps", J::Num(r.qps)),
        ("sent", J::Int(r.sent as i64)),
        ("ok", J::Int(r.ok as i64)),
        ("shed", J::Int(r.shed as i64)),
        ("rejected", J::Int(r.rejected as i64)),
        ("timed_out", J::Int(r.timed_out as i64)),
        ("errors", J::Int(r.errors as i64)),
        ("p50_us", J::Num(quantile(&lat, 0.5))),
        ("p99_us", J::Num(quantile(&lat, 0.99))),
        ("attainment", J::Num(r.attainment())),
        ("achieved_qps", J::Num(r.ok as f64 / r.wall_s)),
        ("queue_depth_peak", J::Int(r.depth_peak as i64)),
        ("steal_share", J::Num(r.steal)),
        ("publishes", J::Int(r.publish_us.len() as i64)),
        (
            "publish_max_us",
            J::Num(r.publish_us.iter().copied().fold(0.0, f64::max)),
        ),
        (
            "lateness_p99_us",
            J::Num(quantile(&sorted(&r.lateness_us), 0.99)),
        ),
        (
            "lateness_max_us",
            J::Num(r.lateness_us.iter().copied().fold(0.0, f64::max)),
        ),
    ])
}

pub fn serve_openloop(ctx: &Ctx) -> Res<Outcome> {
    let dir = ctx.dir.join("inputs");
    data::gen_serve(&dir, ctx.seed)?;
    let tr = &ctx.tracer;
    let (setup_s, (model, alt)) = crate::solver::timed_setup(ctx, || {
        let model = data::read_model(tr, &dir.join("model.kr"))?;
        let alt = data::read_model(tr, &dir.join("model_alt.kr"))?;
        let registry = Arc::new(ModelRegistry::new());
        tr.span("serve", "ModelRegistry::register", || {
            registry.register("default", &model, EngineConfig::default())
        })
        .map_err(e)?;
        let queue = tr
            .span("serve", "ServeQueue::with_registry", || {
                ServeQueue::with_registry(Arc::clone(&registry), queue_config())
            })
            .map_err(e)?;
        drop(queue);
        Ok((model, alt))
    })?;
    // Pre-generated traces grow with rate × time; past ten seconds the
    // medians no longer move but memory would.
    let s = ctx.seconds.min(10.0) / if ctx.trace { 3.0 } else { 1.0 };
    let models = [&model, &alt];
    // The nominal rung gives `op_p50_ms`: one stolen from by the
    // hypervisor runs again (twice at most) and the cleaner one counts.
    let mut nominal = run_rung(ctx, models, NOMINAL_QPS, 0.4 * s, ctx.seed ^ 1)?;
    for _ in 0..2 {
        if nominal.steal <= STEAL_TOLERANCE {
            break;
        }
        let again = run_rung(ctx, models, NOMINAL_QPS, 0.4 * s, ctx.seed ^ 1)?;
        if again.steal < nominal.steal {
            nominal = again;
        }
    }
    let peak = run_rung(ctx, models, PEAK_QPS, 0.3 * s, ctx.seed ^ 2)?;
    let mut ladder = Vec::new();
    if !ctx.trace {
        for (j, &qps) in LADDER_QPS.iter().enumerate() {
            ladder.push(run_rung(
                ctx,
                models,
                qps,
                0.075 * s,
                ctx.seed ^ (3 + j as u64),
            )?);
        }
    }
    let mut out = Outcome::default();
    let rungs: Vec<&Rung> = [&nominal, &peak].into_iter().chain(&ladder).collect();
    out.attempted = rungs.iter().map(|r| r.sent).sum();
    out.failed = rungs.iter().map(|r| r.errors + r.unresolved).sum();
    out.check(
        "every ticket resolves exactly once",
        rungs.iter().all(|r| r.unresolved == 0 && r.duplicates == 0),
    );
    out.check(
        "sampled answers are bit-equal to direct Engine answers",
        rungs.iter().all(|r| r.mismatches == 0) && nominal.samples > 0,
    );
    out.check("no error responses", rungs.iter().all(|r| r.errors == 0));

    let lat = sorted(&nominal.latency_us);
    let p50 = quantile(&lat, 0.5);
    put(&mut out.e2e, "setup_s", setup_s, "s");
    put(&mut out.e2e, "op_p50_ms", p50 / 1e3, "ms");
    put(&mut out.report, "setup_s", setup_s, "s");
    put(&mut out.report, "serve_p50_us", p50, "us");
    put(&mut out.report, "serve_p99_us", quantile(&lat, 0.99), "us");
    put(
        &mut out.report,
        "serve_slo_attainment",
        peak.attainment(),
        "ratio",
    );
    let sustained = [&nominal, &peak]
        .into_iter()
        .chain(&ladder)
        .filter(|r| r.attainment() >= RUNG_ATTAINMENT)
        .map(|r| r.qps)
        .fold(0.0, f64::max);
    put(&mut out.report, "serve_sustained_qps", sustained, "1/s");
    let sent_failed: u64 = rungs.iter().map(|r| r.failed()).sum();
    put(
        &mut out.report,
        "error_rate",
        sent_failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    if let Some((pct, v)) = tail(&nominal.latency_us) {
        out.extra.push((
            "nominal_tail".into(),
            obj(vec![("percentile", J::Num(pct)), ("us", J::Num(v))]),
        ));
    }
    out.extra
        .push(("limit_us".into(), J::Num(LIMIT.as_secs_f64() * 1e6)));
    out.extra.push((
        "rungs".into(),
        J::Arr(rungs.iter().map(|r| rung_json(r)).collect()),
    ));

    if ctx.trace {
        let engine_p50 = engine_probe(ctx, &model, &mut out.layer)?;
        rung_layers(&nominal, engine_p50, &mut out.layer);
        // The untraced comparison rung for the tracing overhead.
        tr.set_enabled(false);
        let plain = run_rung(ctx, models, NOMINAL_QPS, 0.4 * s, ctx.seed ^ 1)?;
        tr.set_enabled(true);
        crate::probes::overhead(
            &[p50 / 1e6],
            &[median(&plain.latency_us) / 1e6],
            &mut out.layer,
        );
        let window_us = queue_config().window.as_secs_f64() * 1e6;
        let table = crate::probes::reconcile(
            p50 / 1e3,
            &[
                ("serve.engine (direct, mix median)", engine_p50 / 1e3),
                ("serve.queue batching window", window_us / 1e3),
            ],
            &mut out.layer,
        );
        out.extra.push(("reconcile".into(), table));
        // Solver layers: this workload has no tensor, so they are probed on
        // the Netflix analog generated from the same seed.
        let probe_dir = ctx.dir.join("inputs").join("probe");
        data::gen_netflix(&probe_dir, ctx.seed)?;
        let input = data::load_solver(tr, &probe_dir, "train.tns")?;
        let cfg = crate::solver::netflix_cfg(ctx);
        let served_publish = out.layer.get("serve.live.publish_us").copied();
        crate::probes::solver_layers(ctx, &input, &cfg, &mut out.layer)?;
        crate::probes::stream(
            ctx,
            &input,
            &cfg,
            crate::solver::NETFLIX_TARGET,
            true,
            &mut out.layer,
        )?;
        crate::probes::dataflow(ctx, &input, &cfg, &mut out.layer)?;
        if let Some(v) = served_publish {
            out.layer.insert("serve.live.publish_us".into(), v);
        }
    }
    Ok(out)
}
