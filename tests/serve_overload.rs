//! Overload-stress gate for the serving queue: drive the queue well past
//! capacity from many threads with mixed deadlines and tenants, and
//! prove the accounting contract holds under contention —
//!
//! * no panics anywhere in the stack,
//! * the queued depth never exceeds the configured capacity,
//! * every submission resolves to **exactly one** outcome: a served
//!   response, a typed shed, a deadline timeout, or a submit-side
//!   `QueueFull` rejection,
//! * the engine's metrics balance against the caller-observed outcome
//!   counts (sheds, rejections, served e2e samples, deadline misses).
//!
//! A proptest sweep then replays the same contract over randomized small
//! queue configurations in deterministic manual-drain mode.

use distenc::serve::{
    AdmissionControl, Engine, EngineConfig, QueueConfig, Request, Response, ServeError,
    ServeQueue, TopKQuery,
};
use distenc::tensor::KruskalTensor;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn test_engine(seed: u64) -> Arc<Engine> {
    let model = KruskalTensor::random(&[40, 20, 10], 4, seed);
    Arc::new(Engine::new(&model, EngineConfig::default()).unwrap())
}

#[test]
fn overload_storm_resolves_every_ticket_exactly_once() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 200;
    let engine = test_engine(77);
    let cfg = QueueConfig {
        capacity: 32,
        max_batch: 16,
        window: Duration::from_micros(50),
        workers: 2,
        admission: AdmissionControl {
            shed_watermark: Some(24),
            deadline_aware: true,
            tenant_share: Some(16),
        },
        fair_quantum: 4,
    };
    let queue = Arc::new(ServeQueue::new(Arc::clone(&engine), cfg).unwrap());

    let served = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let timed_out = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let depth_violations = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let queue = Arc::clone(&queue);
            let (served, shed, timed_out, errors, rejected, depth_violations) =
                (&served, &shed, &timed_out, &errors, &rejected, &depth_violations);
            s.spawn(move || {
                let tenant = format!("tenant-{}", t % 4);
                for i in 0..PER_THREAD {
                    let req = match i % 3 {
                        0 => Request::Point { index: vec![i % 40, i % 20, i % 10] },
                        1 => Request::Batch {
                            indices: vec![vec![0, 0, 0], vec![i % 40, i % 20, i % 10]],
                        },
                        _ => Request::TopK {
                            query: TopKQuery { mode: 0, at: vec![0, i % 20, i % 10], k: 3 },
                            budget: None,
                        },
                    };
                    // Mixed deadlines: none, comfortable, and tight enough
                    // to be shed at admission or expire in the queue.
                    let deadline = match i % 4 {
                        0 | 1 => None,
                        2 => Some(Duration::from_millis(50)),
                        _ => Some(Duration::from_micros(300)),
                    };
                    match queue.submit_for_with_deadline(&tenant, req, deadline) {
                        Ok(ticket) => match ticket.wait() {
                            Response::Value(_) | Response::Values(_) | Response::TopK(_) => {
                                served.fetch_add(1, Ordering::Relaxed);
                            }
                            Response::Shed(_) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Response::TimedOut => {
                                timed_out.fetch_add(1, Ordering::Relaxed);
                            }
                            Response::Error(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        Err(ServeError::QueueFull { .. }) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                    if queue.len() > 32 {
                        depth_violations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let (served, shed, timed_out, errors, rejected) = (
        served.into_inner(),
        shed.into_inner(),
        timed_out.into_inner(),
        errors.into_inner(),
        rejected.into_inner(),
    );
    // Exactly-once accounting: the five outcome classes tile the storm.
    assert_eq!(
        served + shed + timed_out + errors + rejected,
        (THREADS * PER_THREAD) as u64,
        "served {served} shed {shed} timed_out {timed_out} errors {errors} rejected {rejected}"
    );
    assert_eq!(errors, 0, "every request in the storm is valid");
    assert!(served > 0, "the queue must make forward progress under overload");
    assert_eq!(depth_violations.into_inner(), 0, "queued depth stayed within capacity");
    assert!(queue.is_empty(), "nothing may linger after every ticket resolved");

    // Caller-observed outcomes balance against the engine's own counters.
    let s = engine.snapshot();
    assert_eq!(s.sheds(), shed);
    assert_eq!(s.queue_rejections, rejected);
    assert_eq!(s.e2e_recorded, served);
    // `deadline_misses` counts queue-level timeouts plus top-K scans that
    // degraded inside their clipped budget (each of those also ticks
    // `degraded_results`), so the two streams balance exactly.
    assert_eq!(s.deadline_misses, timed_out + s.degraded_results);
    assert!(s.queue_depth_peak <= 32, "peak {} over capacity", s.queue_depth_peak);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exactly-once/balance contract over randomized small configs,
    /// in deterministic manual-drain mode: submissions interleave with
    /// drains, and at the end every ticket has resolved, the queue is
    /// empty, and the metrics mirror the observed outcome counts.
    #[test]
    fn accounting_balances_over_small_configs(
        capacity in 1usize..8,
        max_batch in 1usize..5,
        fair_quantum in 1usize..4,
        // 0 encodes "off" (the vendored proptest has no Option strategy).
        watermark_sel in 0usize..9,
        share_sel in 0usize..4,
        n_tenants in 1usize..4,
        submissions in 1usize..40,
        drain_every in 1usize..12,
    ) {
        let engine = test_engine(5);
        let watermark = (watermark_sel > 0).then(|| ((watermark_sel - 1) % capacity) + 1);
        let tenant_share = (share_sel > 0).then_some(share_sel);
        let cfg = QueueConfig {
            capacity,
            max_batch,
            window: Duration::ZERO,
            workers: 0,
            admission: AdmissionControl {
                shed_watermark: watermark,
                deadline_aware: false,
                tenant_share,
            },
            fair_quantum,
        };
        let queue = ServeQueue::new(Arc::clone(&engine), cfg).unwrap();
        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        for i in 0..submissions {
            let tenant = format!("t{}", i % n_tenants);
            let req = Request::Point { index: vec![i % 6, i % 5, i % 4] };
            match queue.submit_for(&tenant, req) {
                Ok(t) => tickets.push(t),
                Err(ServeError::QueueFull { .. }) => rejected += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
            prop_assert!(queue.len() <= capacity);
            if i % drain_every == drain_every - 1 {
                queue.drain_once();
            }
        }
        while queue.drain_once() > 0 {}
        let (mut served, mut shed) = (0u64, 0u64);
        for t in tickets {
            match t.wait() {
                Response::Value(_) => served += 1,
                Response::Shed(_) => shed += 1,
                other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
            }
        }
        prop_assert_eq!(served + shed + rejected, submissions as u64);
        prop_assert!(queue.is_empty());
        let s = engine.snapshot();
        prop_assert_eq!(s.sheds(), shed);
        prop_assert_eq!(s.queue_rejections, rejected);
        prop_assert_eq!(s.e2e_recorded, served);
    }
}

/// Deficit-round-robin under live overload: a cold tenant trickling
/// requests through a hot flood is never starved and never shed, because
/// the hot tenant's admission share caps how much queue it can hold and
/// DRR guarantees the cold lane a slice of every batch.
#[test]
fn cold_tenant_survives_hot_flood() {
    let engine = test_engine(99);
    let cfg = QueueConfig {
        capacity: 64,
        max_batch: 16,
        window: Duration::from_micros(50),
        workers: 2,
        admission: AdmissionControl {
            shed_watermark: None,
            deadline_aware: false,
            tenant_share: Some(8),
        },
        fair_quantum: 4,
    };
    let queue = Arc::new(ServeQueue::new(Arc::clone(&engine), cfg).unwrap());
    std::thread::scope(|s| {
        for _ in 0..4 {
            let queue = Arc::clone(&queue);
            s.spawn(move || {
                for i in 0..500usize {
                    let req = Request::Point { index: vec![i % 40, i % 20, i % 10] };
                    match queue.submit_for("hot", req) {
                        Ok(t) => drop(t.wait()),
                        Err(ServeError::QueueFull { .. }) => {}
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
            });
        }
        // The cold tenant trickles 50 requests while the flood rages.
        let mut cold_served = 0usize;
        for i in 0..50usize {
            let req = Request::Point { index: vec![i % 40, i % 20, i % 10] };
            let ticket = queue.submit_for("cold", req).expect("cold submit");
            if matches!(ticket.wait(), Response::Value(_)) {
                cold_served += 1;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        assert_eq!(cold_served, 50, "cold tenant must never be starved or shed");
    });
}
