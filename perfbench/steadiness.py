#!/usr/bin/env python3
"""Steadiness report: run-to-run spread of every end-to-end metric.

    python3 perfbench/steadiness.py --runs 10 --out runs.jsonl [--workload W ...]
    python3 perfbench/steadiness.py --load runs.jsonl

Runs ``perfbench/run.py`` once per seed (1..runs) on each workload, or
loads earlier runs, and prints per workload and metric the median and the
spread: the interquartile range of the runs as a share of their median
(``statistics.quantiles(values, n=4)``).  Runs whose host block differs
from the first run's are refused: their numbers are not comparable.  The
largest percentile gap ratio of any run flags a reported percentile that
sits between two modes of the latency histogram.

Each normalized metric is shown beside its raw, host-speed-bound twin
from the run's host line.  The proposed bound of each metric is three
times its worst spread over the workloads, at most 0.25; the bounds in
``BENCHMARK.json`` are set by hand from it.  A raw twin whose bound
would exceed 0.25 cannot be gated, which is why only the normalized
metrics are end-to-end metrics.

Repeat check: the first seed of each workload also runs a second time
with ``--trace 0`` and twice with ``--trace 1``.  Every ``count``
metric of the traced runs and ``util_after_mean`` of the untraced ones
must repeat exactly; the script exits with 1 when one does not.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
MAX_BOUND = 0.25


def run_once(workload: str, seed: int, trace: int = 0) -> dict:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1]), "wall_s": wall,
            "trace": trace}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


#: Raw (host-speed-bound) twin of each normalized metric, from the host line.
RAW_TWIN = {
    "throughput_norm": "throughput_ops_s",
    "latency_p50_norm": "latency_p50_ms",
    "latency_tail_norm": "latency_tail_ms",
    "setup_s": "setup_wall_s",
}
#: End-to-end metrics that must repeat exactly for a seed.
EXACT_END_TO_END = ("util_after_mean",)


def propose(worst: float) -> float:
    """Three times the worst spread, rounded up to 0.001, in [0.01, 0.25]."""
    return min(MAX_BOUND, max(math.ceil(3000 * worst) / 1000, 0.01))


def report(runs: list[dict]) -> dict[str, float]:
    host = runs[0]["host"]
    foreign = [r for r in runs if r["host"] != host]
    if foreign:
        raise SystemExit(
            f"refusing to compare: {len(foreign)} run(s) have a host block other than {host}"
        )
    print(f"host: {json.dumps(host)}")
    worst: dict[str, float] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        # One untraced run per seed; repeats only feed the repeat check.
        by_seed = {}
        for r in runs:
            if r["workload"] == workload and not r.get("trace", 0):
                by_seed.setdefault(r["seed"], r)
        rs = list(by_seed.values())
        failed = sum(r["result"]["failed"] for r in rs)
        walls = [r["wall_s"] for r in rs if "wall_s" in r]
        gaps = [max(r["raw"]["p50_gap_ratio"], r["raw"]["tail_gap_ratio"]) for r in rs]
        print(f"\n{workload}: {len(rs)} runs, {rs[0]['ops']} ops each, "
              f"tail = p{rs[0]['tail_percentile']}, failed ops {failed}, "
              f"largest percentile gap ratio {max(gaps):.2f}"
              + (f", run wall {min(walls):.0f}-{max(walls):.0f} s" if walls else ""))
        print(f"  {'metric':20s} {'median':>10s} {'spread':>7s}   {'raw twin':18s} {'median':>10s} {'spread':>7s}")
        rows = [(name, [r["result"]["metrics"][name]["value"] for r in rs])
                for name in rs[0]["result"]["metrics"]]
        rows.append(("raw ref_probe_ms", [r["raw"]["ref_probe_ms"] for r in rs]))
        for name, vals in rows:
            s = spread(vals) if len(vals) >= 2 else 0.0
            worst[name] = max(worst.get(name, 0.0), s)
            line = f"  {name:20s} {statistics.median(vals):10.4f} {s:7.4f}"
            twin = RAW_TWIN.get(name)
            if twin:
                tv = [r["raw"][twin] for r in rs]
                ts = spread(tv) if len(tv) >= 2 else 0.0
                worst["raw " + twin] = max(worst.get("raw " + twin, 0.0), ts)
                line += f"   {twin:18s} {statistics.median(tv):10.4f} {ts:7.4f}"
            print(line)
    bounds = {name: propose(w) for name, w in worst.items()}
    print("\nproposed bounds from the worst spread over the workloads (3 x spread, at most 0.25):")
    for name, b in bounds.items():
        note = "  (cannot be bounded: 3 x spread > 0.25)" if 3 * worst[name] > MAX_BOUND else ""
        print(f"  {name:22s} {b:.3f}   worst spread {worst[name]:.4f}{note}")
    return bounds


def exact_values(run: dict) -> dict[str, float]:
    metrics = run["result"]["metrics"]
    if run.get("trace", 0):
        return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}
    return {k: metrics[k]["value"] for k in EXACT_END_TO_END if k in metrics}


def repeat_check(runs: list[dict]) -> list[str]:
    """Metrics that differ between runs of one workload, seed and trace mode."""
    groups: dict[tuple, list[dict]] = {}
    for r in runs:
        groups.setdefault((r["workload"], r["seed"], r.get("trace", 0)), []).append(r)
    checked, diffs = 0, []
    for (workload, seed, trace), rs in groups.items():
        if len(rs) < 2:
            continue
        checked += 1
        first = exact_values(rs[0])
        for other in rs[1:]:
            again = exact_values(other)
            for name in sorted(first.keys() | again.keys()):
                if first.get(name) != again.get(name):
                    diffs.append(f"{workload} seed {seed} trace {trace}: {name} "
                                 f"{first.get(name)} != {again.get(name)}")
    print(f"\nrepeat check: {checked} repeated (workload, seed, trace) groups, "
          f"{len(diffs)} differing exact metrics")
    for d in diffs:
        print(f"  {d}")
    return diffs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="workload to run (default: every one in BENCHMARK.json)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, help="append each run as a JSON line here")
    ap.add_argument("--load", type=Path, help="report on runs saved by --out")
    args = ap.parse_args()
    if args.load:
        runs = [json.loads(line) for line in args.load.read_text().splitlines() if line]
    else:
        runs = []
        names = args.workload or [w["name"] for w in BENCH["workloads"]]
        for workload in names:
            plan = [(seed, 0) for seed in range(args.first_seed, args.first_seed + args.runs)]
            plan += [(args.first_seed, 0), (args.first_seed, 1), (args.first_seed, 1)]
            for seed, trace in plan:
                run = run_once(workload, seed, trace)
                runs.append(run)
                if args.out:
                    with args.out.open("a") as fh:
                        fh.write(json.dumps(run) + "\n")
                print(f"{workload} seed {seed} trace {trace}: {run['wall_s']:.1f} s",
                      file=sys.stderr)
    report(runs)
    return 1 if repeat_check(runs) else 0


if __name__ == "__main__":
    sys.exit(main())
