//! Host execution backend: run independent work units on real threads.
//!
//! The simulated cluster models *virtual* time; this module decides how
//! the actual Rust closures behind each stage execute on the host. The
//! contract every caller relies on:
//!
//! **Determinism / bit-exactness.** [`Executor::run`] applies `f` to each
//! item independently and returns results **in item order**, regardless
//! of which thread computed what or when. As long as `f(i, item)` is a
//! pure function of its arguments (every kernel in this workspace is),
//! `ExecMode::Threads(n)` produces bit-identical output to
//! `ExecMode::Sequential` for every `n` — threads only change *wall*
//! time, never a single bit of the result. Reductions that combine the
//! per-item results must merge them in fixed item order for the same
//! guarantee to extend end-to-end; see DESIGN.md §9.

use scoped_pool::Pool;

/// How the host executes the real computation behind stages: on the
/// calling thread, or spread over a reusable thread pool.
///
/// Orthogonal to [`crate::Platform`]: `Platform` changes what the
/// *simulation* charges (Spark vs MapReduce semantics), `ExecMode`
/// changes how fast the host finishes the identical arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Everything on the calling thread, in item order.
    Sequential,
    /// Work units spread over a pool of this many threads. `Threads(0)`
    /// and `Threads(1)` behave like `Sequential`.
    Threads(usize),
}

/// Environment variable holding the host thread count when neither the
/// config nor the CLI picks one.
pub const THREADS_ENV: &str = "DISTENC_THREADS";

impl ExecMode {
    /// The mode for a thread count: `0` or `1` mean
    /// [`ExecMode::Sequential`], `n ≥ 2` means [`ExecMode::Threads`]`(n)`.
    pub fn from_thread_count(n: usize) -> ExecMode {
        if n >= 2 {
            ExecMode::Threads(n)
        } else {
            ExecMode::Sequential
        }
    }

    /// Parse a thread count (see [`ExecMode::from_thread_count`]). Anything
    /// that is not a non-negative integer is an error, never a silent
    /// fallback to the sequential backend.
    pub fn parse(raw: &str) -> Result<ExecMode, String> {
        raw.trim()
            .parse::<usize>()
            .map(ExecMode::from_thread_count)
            .map_err(|_| format!("{raw:?} is not a thread count (expected an integer ≥ 0)"))
    }

    /// The mode requested by the [`THREADS_ENV`] environment variable:
    /// `Ok(None)` when unset, an error naming the variable when it is set
    /// to something [`ExecMode::parse`] rejects. This is how CI runs the
    /// whole test suite under both backends without touching any test.
    pub fn from_env() -> Result<Option<ExecMode>, String> {
        match std::env::var(THREADS_ENV) {
            Ok(raw) => ExecMode::parse(&raw).map(Some).map_err(|e| format!("{THREADS_ENV}: {e}")),
            Err(_) => Ok(None),
        }
    }

    /// Worker count this mode implies (`Sequential` → 1).
    pub fn threads(self) -> usize {
        match self {
            ExecMode::Sequential => 1,
            ExecMode::Threads(n) => n.max(1),
        }
    }
}

/// The default mode comes from the environment (see
/// [`ExecMode::from_env`]), so `DISTENC_THREADS=4 cargo test` exercises
/// the threaded backend across the entire suite. `Default` cannot fail:
/// a malformed value falls back to [`ExecMode::Sequential`] here and is
/// rejected where a solve is configured (`AdmmConfig::validate` in
/// `distenc-core`, and the CLI).
impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::from_env().ok().flatten().unwrap_or(ExecMode::Sequential)
    }
}

/// A reusable executor bound to an [`ExecMode`]. Cheap to create in
/// `Sequential` mode; `Threads(n)` spawns its pool once, up front.
///
/// Dispatch is allocation-free: multi-item batches go through
/// `Pool::run_indexed`, which shares one borrowed closure and has workers
/// claim item indices from a pool-resident counter — no per-item job
/// boxes. Single-item batches, `Threads(≤1)`, and single-core hosts (see
/// [`Executor::parallelism`]) run inline on the caller's stack.
#[derive(Debug)]
pub struct Executor {
    mode: ExecMode,
    pool: Option<Pool>,
    /// Host cores available at construction time
    /// (`std::thread::available_parallelism`, 1 on error).
    host: usize,
}

impl Executor {
    /// Build an executor (spawning the pool for `Threads(n ≥ 2)`).
    pub fn new(mode: ExecMode) -> Executor {
        let pool = match mode.threads() {
            0 | 1 => None,
            n => Some(Pool::new(n)),
        };
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        Executor { mode, pool, host }
    }

    /// The mode this executor runs under.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Number of host threads used (1 when sequential).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, Pool::threads)
    }

    /// Concurrency the host can actually deliver: the configured worker
    /// count clamped to `available_parallelism`. Size chunk counts from
    /// this, not [`Executor::threads`] — splitting work into more chunks
    /// than the host has cores buys no concurrency and pays dispatch
    /// overhead per chunk (the oversplit pessimization BENCH_parallel.json
    /// measured: `--threads 8` on a 1-core host ran ~12% slower than
    /// sequential). Any chunk count is bit-exact; this only affects speed.
    pub fn parallelism(&self) -> usize {
        self.threads().min(self.host)
    }

    /// Whether batches should be dispatched to the pool at all: with one
    /// usable core the pool adds handoff latency and zero concurrency, so
    /// everything runs inline (bit-identical either way).
    #[inline]
    fn inline_only(&self) -> bool {
        self.pool.is_none() || self.host == 1
    }

    /// Apply `f` to every item, returning the results **in item order**.
    /// Items are independent work units; `f` must not rely on execution
    /// order across items (it cannot: it only gets `&T`).
    pub fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.inline_only() || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        self.run_mut(&mut out, |i, slot| *slot = Some(f(i, &items[i])));
        out.into_iter()
            .map(|r| r.expect("broadcast task completed"))
            .collect()
    }

    /// Apply `f` to every item in place. Same ordering guarantee as
    /// [`Executor::run`]: each item is touched exactly once, by exactly
    /// one thread, with no cross-item interaction.
    pub fn run_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        if self.inline_only() || items.len() <= 1 {
            for (i, t) in items.iter_mut().enumerate() {
                f(i, t);
            }
            return;
        }
        let pool = self.pool.as_ref().expect("inline_only is false");
        // Hand each claimed index a disjoint `&mut` into the slice. The
        // wrapper restores `Sync` for the raw base pointer; soundness
        // rests on `run_indexed` claiming each index exactly once.
        struct Base<T>(*mut T);
        unsafe impl<T: Send> Sync for Base<T> {}
        let base = Base(items.as_mut_ptr());
        let f = &f;
        pool.run_indexed(items.len(), &move |i| {
            let base = &base;
            // SAFETY: `i < items.len()` and each index is claimed by
            // exactly one worker, so this `&mut` aliases nothing.
            let item = unsafe { &mut *base.0.add(i) };
            f(i, item);
        });
    }
}

/// Split `len` items into at most `parts` contiguous half-open ranges of
/// near-equal size (the trailing ranges are one shorter when `len` does
/// not divide evenly). Useful for chunking element-wise kernels where any
/// blocking is bit-exact.
pub fn even_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_env_parses() {
        // Can't mutate the environment safely in parallel tests; exercise
        // the numeric mapping instead.
        assert_eq!(ExecMode::Sequential.threads(), 1);
        assert_eq!(ExecMode::Threads(0).threads(), 1);
        assert_eq!(ExecMode::Threads(1).threads(), 1);
        assert_eq!(ExecMode::Threads(6).threads(), 6);
    }

    #[test]
    fn thread_counts_parse_and_typos_are_errors() {
        assert_eq!(ExecMode::parse("4"), Ok(ExecMode::Threads(4)));
        assert_eq!(ExecMode::parse(" 2 "), Ok(ExecMode::Threads(2)));
        assert_eq!(ExecMode::parse("1"), Ok(ExecMode::Sequential));
        assert_eq!(ExecMode::parse("0"), Ok(ExecMode::Sequential));
        for bad in ["four", "", "-2", "2.5"] {
            let err = ExecMode::parse(bad).unwrap_err();
            assert!(err.contains("not a thread count"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn sequential_and_threaded_agree_in_order() {
        let items: Vec<u64> = (0..257).collect();
        let seq = Executor::new(ExecMode::Sequential);
        let par = Executor::new(ExecMode::Threads(4));
        let f = |i: usize, x: &u64| (i as u64) * 1_000_003 + x * x;
        assert_eq!(seq.run(&items, f), par.run(&items, f));
    }

    #[test]
    fn run_mut_touches_each_item_once() {
        let mut a: Vec<usize> = vec![0; 100];
        let mut b = a.clone();
        Executor::new(ExecMode::Sequential).run_mut(&mut a, |i, x| *x = i + 1);
        Executor::new(ExecMode::Threads(3)).run_mut(&mut b, |i, x| *x = i + 1);
        assert_eq!(a, b);
        assert_eq!(a[99], 100);
    }

    #[test]
    fn threads_one_does_not_spawn_a_pool() {
        assert_eq!(Executor::new(ExecMode::Threads(1)).threads(), 1);
        assert_eq!(Executor::new(ExecMode::Threads(0)).threads(), 1);
        assert_eq!(Executor::new(ExecMode::Threads(2)).threads(), 2);
    }

    #[test]
    fn parallelism_clamps_to_host_cores() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Executor::new(ExecMode::Sequential).parallelism(), 1);
        assert_eq!(Executor::new(ExecMode::Threads(2)).parallelism(), 2.min(host));
        let wide = Executor::new(ExecMode::Threads(1024));
        assert_eq!(wide.parallelism(), host, "oversubscription is clamped");
        assert_eq!(wide.threads(), 1024, "threads() still reports the request");
    }

    #[test]
    fn even_ranges_cover_exactly() {
        for (len, parts) in [(10, 3), (0, 4), (5, 8), (100, 1), (7, 7)] {
            let ranges = even_ranges(len, parts);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, len, "len {len} parts {parts}");
            if len > 0 {
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(mx - mn <= 1, "near-equal sizes: {sizes:?}");
            }
        }
    }
}
