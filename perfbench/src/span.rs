//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span is (id, parent, layer, name, start, end). Spans live in memory
//! and are written out once, when the run ends. With tracing off,
//! [`Tracer::span`] is a plain call, so the untraced runs pay one branch.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layers a span can be charged to: the workspace crates plus the
/// benchmark's own harness.
pub const LAYERS: [&str; 9] = [
    "tensor",
    "graph",
    "linalg",
    "core",
    "dataflow",
    "partition",
    "stream",
    "serve",
    "harness",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Pause or resume recording (a traced run times some operations
    /// untraced to measure the tracing overhead).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Run `f` inside a span charged to `layer`. Spans opened inside `f`
    /// become its children.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            let parent = self.stack.borrow().last().copied();
            let now = self.now_ns();
            spans.push(Span {
                id,
                parent,
                layer,
                name,
                start_ns: now,
                end_ns: now,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Each span's self time: its duration minus the time its children
    /// cover.
    fn self_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        spans
            .iter()
            .map(|s| s.dur_ns().saturating_sub(child_ns[s.id]))
            .collect()
    }

    /// Per-layer self time in milliseconds, in [`LAYERS`] order.
    pub fn self_ms(&self) -> Vec<(&'static str, f64)> {
        let own = self.self_ns();
        let spans = self.spans.borrow();
        LAYERS
            .iter()
            .map(|&layer| {
                let ns: u64 = spans
                    .iter()
                    .filter(|s| s.layer == layer)
                    .map(|s| own[s.id])
                    .sum();
                (layer, ns as f64 / 1e6)
            })
            .collect()
    }

    /// `(layer, span name, count, total ms, self ms)` per distinct span
    /// name, largest self time first.
    pub fn summary(&self) -> Vec<(&'static str, &'static str, usize, f64, f64)> {
        let own = self.self_ns();
        let mut rows: std::collections::BTreeMap<(&str, &str), (usize, u64, u64)> =
            std::collections::BTreeMap::new();
        for s in self.spans.borrow().iter() {
            let row = rows.entry((s.layer, s.name)).or_default();
            row.0 += 1;
            row.1 += s.dur_ns();
            row.2 += own[s.id];
        }
        let mut out: Vec<_> = rows
            .into_iter()
            .map(|((l, n), (c, t, o))| (l, n, c, t as f64 / 1e6, o as f64 / 1e6))
            .collect();
        out.sort_by(|a, b| b.4.total_cmp(&a.4));
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                parent,
                s.layer,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            )?;
        }
        out.flush()
    }
}
