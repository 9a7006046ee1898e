//! Live model swap under concurrent load.
//!
//! Readers hammer a [`LiveEngine`] with point and top-K queries while the
//! main thread publishes a series of new model generations. The test
//! proves the swap protocol's two user-visible guarantees:
//!
//! * **zero failed reads** — no query errors, blocks, or torn values
//!   across any publish;
//! * **attributability** — every response carries exactly one generation
//!   tag, and its payload is bit-identical to what that generation's
//!   model produces, so a response can never mix two models.

use distenc::serve::{EngineConfig, LiveEngine, TopKQuery};
use distenc::tensor::KruskalTensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SHAPE: [usize; 3] = [60, 40, 20];
const RANK: usize = 3;
const GENERATIONS: u64 = 6;

#[test]
fn concurrent_queries_survive_model_swaps() {
    // Generation g is models[g-1]; every model is a different seed, so a
    // cross-generation mixup changes bits and the asserts catch it.
    let models: Vec<KruskalTensor> =
        (0..GENERATIONS).map(|g| KruskalTensor::random(&SHAPE, RANK, 100 + g)).collect();
    let live = Arc::new(LiveEngine::new(&models[0], EngineConfig::default()).unwrap());
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|r| {
            let (live, stop) = (Arc::clone(&live), Arc::clone(&stop));
            let models = models.clone();
            std::thread::spawn(move || {
                let mut reads = 0u64;
                let mut seen = std::collections::BTreeSet::new();
                let mut at = [0usize; 3];
                loop {
                    at = [
                        (at[0] + r + 1) % SHAPE[0],
                        (at[1] + 3) % SHAPE[1],
                        (at[2] + 7) % SHAPE[2],
                    ];
                    // Point query: the value must be exactly the tagged
                    // generation's model at that cell.
                    let p = live.point(&at).expect("point query failed during swap");
                    assert!(
                        (1..=GENERATIONS).contains(&p.generation),
                        "generation tag {} out of range",
                        p.generation
                    );
                    let oracle = models[(p.generation - 1) as usize].eval(&at);
                    assert_eq!(
                        p.value.to_bits(),
                        oracle.to_bits(),
                        "response not attributable to generation {}",
                        p.generation
                    );
                    // Top-K query: scores must come from one model too.
                    let q = TopKQuery { mode: 0, at: at.to_vec(), k: 3 };
                    let t = live.topk(&q, None).expect("topk query failed during swap");
                    let m = &models[(t.generation - 1) as usize];
                    for item in &t.value.items {
                        let mut idx = at;
                        idx[0] = item.index;
                        assert_eq!(
                            item.score.to_bits(),
                            m.eval(&idx).to_bits(),
                            "top-K score not attributable to generation {}",
                            t.generation
                        );
                    }
                    seen.insert(p.generation);
                    reads += 2;
                    if reads >= 400 && stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                (reads, seen)
            })
        })
        .collect();

    // Publish the remaining generations while the readers run.
    for m in &models[1..] {
        live.publish(m).unwrap();
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);

    let mut total_reads = 0u64;
    for r in readers {
        let (reads, seen) = r.join().expect("reader panicked (failed read)");
        total_reads += reads;
        assert!(!seen.is_empty());
        assert!(seen.iter().all(|g| (1..=GENERATIONS).contains(g)));
    }
    assert!(total_reads >= 1600, "readers made {total_reads} reads");

    // Steady state: the final generation serves, counters saw every
    // publish and every read.
    assert_eq!(live.generation(), GENERATIONS);
    let s = live.snapshot();
    assert_eq!(s.models_published, GENERATIONS);
    assert_eq!(s.serving_generation, GENERATIONS);
    assert_eq!(s.point_queries + s.topk_queries, total_reads);
}

#[test]
fn swap_changes_shape_without_interrupting_readers() {
    // Streaming growth: each generation adds rows to mode 0. Readers only
    // query the region every generation has, and must never fail.
    let models: Vec<KruskalTensor> =
        (0..4u64).map(|g| KruskalTensor::random(&[30 + 5 * g as usize, 10], 2, g)).collect();
    let live = Arc::new(LiveEngine::new(&models[0], EngineConfig::default()).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (live, stop) = (Arc::clone(&live), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut reads = 0u64;
                loop {
                    let r = live.point(&[reads as usize % 30, 3]).expect("failed read");
                    assert!(r.generation >= 1);
                    reads += 1;
                    if reads >= 100 && stop.load(Ordering::Relaxed) {
                        return reads;
                    }
                }
            })
        })
        .collect();
    for m in &models[1..] {
        live.publish(m).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() >= 100);
    }
    assert_eq!(live.shape(), vec![45, 10]);
}
