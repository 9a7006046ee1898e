#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--out DIR]

The first form builds the benchmark (`perfbench/Cargo.toml`, a package of
its own that depends on the repository's crates by path) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload, and
prints the workload's report line, a host-descriptor line and, last, the
result object.  `--all` runs every workload untraced and traced, saves
each run's output under `--out`, and prints the summary table.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["complete-netflix", "complete-cluster", "stream-refresh", "serve-openloop"]
# The repository pieces the benchmark builds against.
REQUIRED = ["Cargo.toml", "crates/core/Cargo.toml", "crates/serve/Cargo.toml", "vendor/rand/Cargo.toml"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        die(f"repository sources not found next to perfbench/ (missing {', '.join(missing)})")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        # Cargo's own output goes to stderr so stdout carries only results.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if done.returncode != 0:
        die(f"build failed ({done.returncode})")
    return target_dir() / "release" / "distenc-perfbench"


def capture(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result can be
    tied to its code when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    for base in ("crates", "vendor", "perfbench/src"):
        files += sorted(p for p in (ROOT / base).rglob("*") if p.suffix in (".rs", ".toml"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def host():
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "rustc": capture(["rustc", "--version"]),
        "git_rev": capture(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "source_sha256": source_digest(),
        "env": {k: os.environ.get(k) for k in ("DISTENC_THREADS", "DISTENC_LAYOUT", "DISTENC_TIER")},
        "platform": platform.platform(),
    }


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout lines, host line)."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    # Relative to the checkout root (the child's cwd), so reports name
    # their span files by checkout-relative paths.
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", ".bench_work"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = done.stdout.splitlines()
    return done.returncode, lines


def emit(lines, host_line, out=sys.stdout):
    """Report lines, then the host descriptor, then the result line last."""
    for line in lines[:-1]:
        print(line, file=out)
    print(json.dumps({"host": host_line}), file=out)
    if lines:
        print(lines[-1], file=out)
    out.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--out", default=".bench_work/results", help="where --all saves each run's output")
    args = ap.parse_args()
    if not args.all and args.workload is None:
        die("give --workload NAME or --all")

    binary = build()
    host_line = host()
    if not args.all:
        code, lines = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
        if not lines:
            die(f"{args.workload} printed no result (exit {code})", code or 1)
        emit(lines, host_line)
        sys.exit(code)

    out_dir = ROOT / args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    files, worst = [], 0
    for trace in (0, 1):
        for workload in WORKLOADS:
            t0 = time.monotonic()
            code, lines = run_one(binary, workload, args.seed, args.seconds, trace)
            path = out_dir / f"{workload}-s{args.seed}-t{trace}.jsonl"
            with open(path, "w") as f:
                emit(lines, host_line, f)
            files.append(str(path))
            worst = max(worst, code)
            print(f"{workload} trace={trace}: exit {code} in {time.monotonic() - t0:.1f} s -> {path}",
                  file=sys.stderr)
    subprocess.run([sys.executable, str(HERE / "summarize.py"), "show", *files], check=False)
    sys.exit(worst)


if __name__ == "__main__":
    main()
