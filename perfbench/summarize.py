#!/usr/bin/env python3
"""Summarise and compare benchmark result files.

A result file is the stdout of one `perfbench/run.py` run (report line,
host line, result line).

    python3 perfbench/summarize.py show FILE...
        median and quartiles of every metric, per workload (untraced and
        traced runs are kept apart)

    python3 perfbench/summarize.py compare --base FILE... --new FILE...
        per-workload, per-metric diff of the medians, judged against the
        bounds in BENCHMARK.json (end-to-end metrics) and REPORT_BOUNDS
        below (the workload-specific metrics of the report line)

Quartiles are Python's `statistics.quantiles(values, n=4)`, the same
numbers the benchmark's acceptance rule uses.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Workload-specific end-to-end metrics (report line): better, bound.
REPORT_BOUNDS = {
    "solve_s": ("lower", 0.15),
    "time_to_target_s": ("lower", 0.15),
    "test_rmse": ("lower", 0.02),
    "virtual_s": ("lower", 0.01),
    "virtual_time_to_target_s": ("lower", 0.01),
    "stages": ("lower", 0.0),
    "shuffled_mb": ("lower", 0.01),
    "refresh_p50_ms": ("lower", 0.15),
    "refresh_tail_ms": ("lower", 0.2),
    "serve_p50_us": ("lower", 0.15),
    "serve_p99_us": ("lower", 0.25),
    "serve_slo_attainment": ("higher", 0.02),
    "serve_sustained_qps": ("higher", 0.15),
    "error_rate": ("lower", 0.0),
    "setup_s": ("lower", 0.25),
    "peak_rss_mb": ("lower", 0.1),
}


def load(path):
    """(workload, traced, {metric: (value, unit)}, host) of one run."""
    report, host, result = None, None, None
    for line in Path(path).read_text().splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "report" in obj:
            report = obj["report"]
        elif "host" in obj:
            host = obj["host"]
        elif "correct" in obj:
            result = obj
    if report is None or result is None:
        raise SystemExit(f"{path}: not a benchmark result file")
    if not result["correct"]:
        print(f"warning: {path} is marked incorrect: {report.get('problems')}", file=sys.stderr)
    metrics = {k: (v["value"], v["unit"]) for k, v in report.get("metrics", {}).items()}
    metrics.update({k: (v["value"], v["unit"]) for k, v in result["metrics"].items()})
    return report["workload"], bool(report.get("trace")), metrics, host


def group(paths):
    runs = defaultdict(lambda: defaultdict(list))
    units = {}
    for p in paths:
        workload, traced, metrics, _ = load(p)
        for name, (value, unit) in metrics.items():
            if value is not None:
                runs[(workload, traced)][name].append(value)
                units[name] = unit
    return runs, units


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = dict(REPORT_BOUNDS)
    for m in spec["end_to_end"]:
        table[m["name"]] = (m["better"], m["bound"])
    return table


def show(paths):
    runs, units = group(paths)
    for (workload, traced), metrics in sorted(runs.items()):
        n = max(len(v) for v in metrics.values())
        print(f"\n{workload} ({'traced' if traced else 'untraced'}, {n} runs)")
        print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}  unit")
        for name, values in sorted(metrics.items()):
            q1, med, q3 = quartiles(values)
            rel = (q3 - q1) / abs(med) if med else 0.0
            print(f"  {name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {rel:8.3f}  {units[name]}")


def compare(base_paths, new_paths):
    base, units = group(base_paths)
    new, _ = group(new_paths)
    table = bounds()
    print(f"  {'workload':18} {'metric':34} {'base':>12} {'new':>12} {'change':>8} "
          f"{'bound':>6} {'spread':>7}  verdict")
    worst = 0
    for key in sorted(set(base) & set(new)):
        workload, traced = key
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = base[key][name], new[key][name]
            _, bm, _ = quartiles(b)
            q1, _, q3 = quartiles(b)
            _, nm, _ = quartiles(n)
            better, bound = table.get(name, (None, None))
            change = (nm - bm) / abs(bm) if bm else 0.0
            spread = (q3 - q1) / abs(bm) if bm else 0.0
            if better is None or traced:
                verdict = "-"  # per-layer metrics carry no bound
            else:
                worse = change if better == "lower" else -change
                all_better = (max(n) < min(b)) if better == "lower" else (min(n) > max(b))
                if spread > bound and not all_better:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "REGRESSION"
                    worst = 1
                elif -worse > max(spread, bound / 3):
                    verdict = "better"
                else:
                    verdict = "same"
            label = f"{workload}{' (t)' if traced else ''}"
            bound_s = "-" if bound is None else f"{bound:.2f}"
            print(f"  {label:18} {name:34} {bm:12.6g} {nm:12.6g} {change:+8.3f} "
                  f"{bound_s:>6} {spread:7.3f}  {verdict}")
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("show")
    s.add_argument("files", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("--base", nargs="+", required=True)
    c.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    if args.cmd == "show":
        show(args.files)
    else:
        sys.exit(compare(args.base, args.new))


if __name__ == "__main__":
    main()
