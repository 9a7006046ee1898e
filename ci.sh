#!/usr/bin/env sh
# Repo CI gate: build, test, lint. Run from the repo root.
set -eu

echo "==> cargo build --release"
cargo build --release

# Run the whole suite under both execution backends. ExecMode::default()
# reads DISTENC_THREADS, so no test needs to opt in: the same binaries
# exercise the sequential path and the thread pool, and every result must
# be bit-identical (tests/parallel_equivalence.rs proves the contract).
echo "==> DISTENC_THREADS=1 cargo test -q"
DISTENC_THREADS=1 cargo test -q

echo "==> DISTENC_THREADS=4 cargo test -q"
DISTENC_THREADS=4 cargo test -q

# The streaming and live-swap contracts get named gates (they also run in
# the sweeps above): warm re-solves must be bit-identical to solve_from on
# the final tensor, and a model publish must never fail a concurrent read.
# Both are exercised under each backend, like everything else.
echo "==> DISTENC_THREADS=1 cargo test -q --test streaming_equivalence --test live_swap"
DISTENC_THREADS=1 cargo test -q --test streaming_equivalence --test live_swap

echo "==> DISTENC_THREADS=4 cargo test -q --test streaming_equivalence --test live_swap"
DISTENC_THREADS=4 cargo test -q --test streaming_equivalence --test live_swap

# The sketched-tier gates: the statistical accuracy gate (sketched final
# RMSE within the documented tolerance of exact on the planted gate
# workloads — the tolerance constant lives in distenc_eval::accuracy) and
# the determinism/degeneracy contracts (seeded sampling is bit-identical
# across executors; samples >= nnz degenerates to exact bit-for-bit).
# Both run under both thread counts: the sampled schedule is computed on
# the driver, so the numbers must not move at all.
echo "==> DISTENC_THREADS=1 cargo test -q --release --test accuracy_gate --test sketched_equivalence"
DISTENC_THREADS=1 cargo test -q --release --test accuracy_gate --test sketched_equivalence

echo "==> DISTENC_THREADS=4 cargo test -q --release --test accuracy_gate --test sketched_equivalence"
DISTENC_THREADS=4 cargo test -q --release --test accuracy_gate --test sketched_equivalence

# The layout-equivalence gate: tiled solves (the default) must be
# bit-identical to the COO reference — factors, RMSE trace, delta trace —
# through the exact tier, the sketched tier, and streaming warm re-solves,
# and unknown layout names (--layout flag or DISTENC_LAYOUT env) must
# surface as typed errors, never fallbacks.
# Both thread counts: tile partitioning, like COO blocking, must be
# bit-invisible. The pass-count gate below separately proves the tiled
# sweep is still one traversal per kernel (N sweeps per fused iteration).
echo "==> DISTENC_THREADS=1 cargo test -q --test layout_equivalence"
DISTENC_THREADS=1 cargo test -q --test layout_equivalence

echo "==> DISTENC_THREADS=4 cargo test -q --test layout_equivalence"
DISTENC_THREADS=4 cargo test -q --test layout_equivalence

# The fault-tolerance gate: injected crashes, flaky tasks, and stragglers
# must recover to bit-identical factors/RMSE (lineage restart on the
# cluster, checkpoint files + `resume` on the host) or surface a typed
# error — never a panic, never silently different numerics. Recovery cost
# is charged to the virtual clock, so the gate also checks the economics
# (an interval-1 resume beats a cold restart). Both thread counts, same
# bits.
echo "==> DISTENC_THREADS=1 cargo test -q --test fault_recovery"
DISTENC_THREADS=1 cargo test -q --test fault_recovery

echo "==> DISTENC_THREADS=4 cargo test -q --test fault_recovery"
DISTENC_THREADS=4 cargo test -q --test fault_recovery

# The serve-SLO gate: fixed-work invariants of the serving stack, never
# wall-clock — shed accounting balances exactly (every submission is one
# of served / typed shed / rejected, and the metrics mirror the caller's
# counts), the approximate top-K tier holds recall@K >= 0.95 with its
# shadow-sampling counters proven live, and a registry-backed queue under
# concurrent hot-publishes never fails a read. The overload storm gate
# proves the same exactly-once accounting under multi-threaded
# past-capacity pressure plus a proptest sweep of small queue configs.
# The serve queue sizes its workers from DISTENC_THREADS, so both
# sweeps exercise single-worker and multi-worker draining.
echo "==> DISTENC_THREADS=1 cargo test -q --test serve_slo --test serve_overload"
DISTENC_THREADS=1 cargo test -q --test serve_slo --test serve_overload

echo "==> DISTENC_THREADS=4 cargo test -q --test serve_slo --test serve_overload"
DISTENC_THREADS=4 cargo test -q --test serve_slo --test serve_overload

# The allocation-budget gate needs the counting global allocator, which
# only exists behind the alloc-count feature; it runs the solver itself,
# so it is kept out of the default feature set (and the two sweeps above).
# Single test thread: the counters are process-global, so the two tests
# in the binary would pollute each other's measured windows if they ran
# concurrently (a rare flake on busy hosts).
echo "==> cargo test -q --features alloc-count --test alloc_budget -- --test-threads=1"
cargo test -q --features alloc-count --test alloc_budget -- --test-threads=1

# The pass-count gate proves the fused schedule sweeps the nonzeros N
# times per iteration versus N+1 unfused, and that a sketch-phase
# iteration touches exactly N·samples entries (zero full sweeps) versus
# the exact tier's N·nnz. Counts tick once per kernel invocation (never
# per thread/chunk), so this is host-independent; like alloc-count, the
# instrument stays out of the default feature set.
echo "==> cargo test -q --features pass-count --test pass_count"
cargo test -q --features pass-count --test pass_count

# Lint every target (tests, benches, examples), not just the libraries.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ci.sh OK"
