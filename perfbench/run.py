#!/usr/bin/env python3
"""Performance benchmark of the repro pipeline.

    python3 perfbench/run.py --workload ch3_flow --seed 1 --seconds 20 --trace 0

Runs one workload (``ch3_flow``, ``ch3_dse``, ``ch5_iterate`` or
``service_jobs``; see ``perfbench/README.md``) from the root of a source
checkout.  Before the last line it prints one ``{"host": ...}`` line with
the host block and the run's shape.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Steadiness rules:

* the op count is fixed by ``--seconds`` and a per-workload nominal rate,
  never by how fast the host runs, so counts and memory repeat exactly;
* a fixed pure-Python reference probe is timed before every op, and the
  ``*_norm`` metrics divide each op by the median of the probes started
  within ``PROBE_WINDOW_S`` of it, removing host-speed drift; the raw
  twins go to the host line, ungated;
* nothing runs in a process pool except the service's one worker, every
  op gets fresh inputs, and one warm-up op runs before timing.

Exit codes: 0 with a result line; 2 without one (bad arguments, or no
``src/repro`` package under the checkout).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("ch3_flow", "ch3_dse", "ch5_iterate", "service_jobs")
#: Template rounds per second of ``--seconds``, measured on a 2-CPU host;
#: the op count is ``round(seconds * rate) * len(templates)``.
ROUNDS_PER_SECOND = {
    "ch3_flow": 0.25,
    "ch3_dse": 0.2,
    "ch5_iterate": 0.33,
    "service_jobs": 0.5,
}
SETUP_REPEATS = 5
#: Iterations of the reference probe, and the slices they run in.
PROBE_ITERS = 25_000
PROBE_SLICES = 5
#: The probe's duration on the reference host (a 2-CPU x86_64 VM);
#: ``setup_s`` is reported in that host's seconds.
REF_PROBE_MS = 4.0
#: Probes taken before and again after each set-up.
SETUP_PROBES = 15
#: An op is normalized by the median of the probes started within this
#: many seconds of its own probe.
PROBE_WINDOW_S = 2.0
#: An in-process op slower than this counts as failed (timed out).
OP_TIMEOUT_S = 60.0
#: The tail percentile is the highest one with this many samples beyond it.
TAIL_SAMPLES = 10

CACHE_KINDS = ("library", "curve", "selection", "pareto", "mlgp", "service")
#: Counters read as deltas of ``obs.metrics_snapshot()``: metric -> counter.
COUNTERS = {
    "enumeration.visited": "enumeration.visited",
    "enumeration.feasible": "enumeration.feasible",
    "enumeration.candidates": "enumeration.candidates_kept",
    "core.rms_nodes_visited": "selection.rms.nodes_visited",
    "core.edf_dp_cells": "selection.edf.dp_cells",
    "rtsched.sim_events": "sim.events",
    "rtsched.sim_preemptions": "sim.preemptions",
    "rtsched.sim_misses": "sim.misses",
    "mlgp.moves": "mlgp.moves",
    "mlgp.repairs": "mlgp.repairs",
    "mlgp.iterations": "mlgp.iterations",
}
LAYERS = (
    "workloads", "frontend", "enumeration", "selection", "core", "pareto",
    "rtsched", "mlgp", "service",
)
#: Layer of the program's own spans, by full name or first dotted part;
#: they split the time the service's pool worker spends in a job.
PROGRAM_SPAN_LAYER = {
    "identify": "enumeration",
    "curves": "selection",
    "select": "core",
    "pareto": "pareto",
    "validate.simulate": "rtsched",
    "mlgp": "mlgp",
}


def ref_probe() -> float:
    """Wall milliseconds of a fixed pure-Python loop: the host-speed unit.

    The loop runs in ``PROBE_SLICES`` slices with a CPU yield between
    them, and only the slices are timed.  A probing service client then
    holds up a server that shares its CPU for one slice at most.
    """
    total = 0.0
    acc = 0
    for _ in range(PROBE_SLICES):
        t0 = time.perf_counter()
        for i in range(PROBE_ITERS // PROBE_SLICES):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        total += time.perf_counter() - t0
        os.sched_yield()
    return total * 1e3


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of *values* (pct in [0, 100])."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ``TAIL_SAMPLES`` samples
    beyond it among *n* (p50 when there are too few samples)."""
    for pct in range(99, 50, -1):
        if n - 1 - math.floor((n - 1) * pct / 100.0) >= TAIL_SAMPLES:
            return pct
    return 50


def gap_ratio(values, pct: float, k: int = 2) -> float:
    """Ratio of the samples ``k`` ranks above and below a percentile.

    Near 1 inside a mode; large when the percentile falls in a gap
    between two modes of the latency histogram.
    """
    xs = sorted(values)
    if len(xs) < 2:
        return 1.0
    pos = round((len(xs) - 1) * pct / 100.0)
    lo, hi = xs[max(0, pos - k)], xs[min(len(xs) - 1, pos + k)]
    return hi / lo if lo > 0 else 1.0


def iqr_frac(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def normalized(records) -> list[float]:
    """Each op's wall time in units of the median probe around it."""
    by_time = sorted((r["t"], r["probe_ms"]) for r in records)
    times = [t for t, _ in by_time]
    out = []
    for r in records:
        lo = bisect.bisect_left(times, r["t"] - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, r["t"] + PROBE_WINDOW_S)
        out.append(r["ms"] / statistics.median(p for _, p in by_time[lo:hi]))
    return out


def host_block() -> dict:
    import numpy as np

    from repro import jit

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jit_toolchain": jit.toolchain(),
        "bitwise_count": hasattr(np, "bitwise_count"),
    }


def counter_snapshot() -> dict:
    from repro import obs

    return dict(obs.metrics_snapshot()["counters"])


def counter_deltas(before: dict, after: dict) -> dict:
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def run_pass(wl, items, traced: bool):
    """Time every item's op, each after a reference probe; check it."""
    from repro import obs

    before = counter_snapshot()
    if traced:
        obs.clear_trace()
        obs.enable_tracing()
    records = []
    try:
        for item in items:
            t = time.perf_counter()
            probe_ms = ref_probe()
            out, error = None, None
            t0 = time.perf_counter()
            try:
                with obs.span("bench.op"):
                    out = wl.op(item)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                error = repr(exc)
            ms = (time.perf_counter() - t0) * 1e3
            if out is not None:
                error = "; ".join(wl.check(item, out)) or None
            if ms > OP_TIMEOUT_S * 1e3:
                error = f"timed out ({ms / 1e3:.1f} s)"
            records.append({
                "t": t,
                "probe_ms": probe_ms,
                "ms": ms,
                "error": error,
                "util": out.get("util") if out else None,
                "counts": out.get("counts", {}) if out else {},
            })
            del out
    finally:
        if traced:
            obs.disable_tracing()
    return records, counter_deltas(before, counter_snapshot())


def make_workload(name: str, run_dir: Path):
    import workloads as w

    if name == "ch3_flow":
        return w.Ch3Flow()
    if name == "ch3_dse":
        return w.Ch3Dse()
    if name == "ch5_iterate":
        return w.Ch5Iterate()
    return w.ServiceJobs(run_dir)


class SetupTimer:
    """Times each set-up, bracketed by reference probes.

    ``setup_s`` reports the median set-up in reference-host seconds
    (wall time x ``REF_PROBE_MS`` / the bracketing probes' median): raw
    set-up wall time drifted by up to 50% between runs of one host.
    """

    def __init__(self) -> None:
        self.wall_s: list[float] = []
        self.ref_s: list[float] = []
        self._t0 = 0.0
        self._probes: list[float] = []

    def __enter__(self) -> "SetupTimer":
        self._probes = [ref_probe() for _ in range(SETUP_PROBES)]
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._t0
        self._probes += [ref_probe() for _ in range(SETUP_PROBES)]
        self.wall_s.append(wall)
        self.ref_s.append(wall * REF_PROBE_MS / statistics.median(self._probes))


def run_in_process(wl, seed: int, reps: int, trace: bool) -> dict:
    from repro import cache

    # The whole run stays on one CPU: on a shared host the CPUs drift
    # apart, and a probe on one CPU does not measure an op, or a set-up's
    # child interpreter, on another.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup = SetupTimer()
    for _ in range(SETUP_REPEATS):
        with setup:
            wl.setup()
    rng = random.Random(seed)
    uid0 = seed * 100_000
    warm = wl.plan(random.Random(~seed), 1, uid0 + 90_000)[0]
    warm_records, _ = run_pass(wl, [warm], traced=False)
    # The warm-up op is attempted, not timed.
    result = {"setup": setup, "extra_ops": 1, "extra_failed": int(warm_records[0]["error"] is not None)}
    if not trace:
        result["records"], result["counters"] = run_pass(wl, wl.plan(rng, reps, uid0), False)
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result
    # Both passes run the same ops; clearing the cache in between makes
    # pass B repeat pass A's work exactly, with tracing on.
    plan = wl.plan(rng, max(1, round(reps / 2)), uid0)
    result["records_a"], _ = run_pass(wl, plan, False)
    cache.clear()
    result["records"], result["counters"] = run_pass(wl, plan, True)
    return result


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
def run_service(wl, seed: int, reps: int, trace: bool) -> dict:
    import workloads as w

    from repro import obs

    rng = random.Random(seed)
    uid0 = seed * 100_000
    # Untraced: set-up-only starts, then the measured server.
    # Traced: one set-up-only start, then pass A untraced and pass B traced,
    # each on a fresh server running the same streams.
    roles = [None, "A", "B"] if trace else [None] * (SETUP_REPEATS - 1) + ["A"]
    warm_params = wl.write_inputs([[(uid0 + 90_000, "identify", ("crc32",), {})]])
    warm_job = next(iter(warm_params.values()))
    setup = SetupTimer()
    # Each server's warm-up job and its stop are attempted, not timed.
    result = {"setup": setup, "extra_ops": 2 * len(roles), "extra_failed": 0}
    streams = wl.plan(rng, max(1, round(reps / 2)) if trace else reps, uid0)
    params = wl.write_inputs(streams)
    for role in roles:
        traced = role == "B"
        server = None
        try:
            with setup:
                server = wl.start_server(trace=traced)
                try:
                    with server.client() as client:
                        client.submit("identify", warm_job, timeout=w.JOB_TIMEOUT_S)
                except Exception:  # noqa: BLE001 - counted, set-up goes on
                    result["extra_failed"] += 1
            if role is None:
                continue
            with server.client() as client:
                h0 = client.health()
            wall0 = time.perf_counter()
            pass_t0 = time.monotonic()
            if traced:
                obs.clear_trace()
                obs.enable_tracing()
            try:
                records = w.run_service_pass(server, streams, params, ref_probe)
            finally:
                obs.disable_tracing()
            wall_ms = (time.perf_counter() - wall0) * 1e3
            with server.client() as client:
                h1 = client.health()
            key = "records_a" if (trace and role == "A") else "records"
            result[key] = records
            result[key + "_wall_ms"] = wall_ms
            if role == ("B" if trace else "A"):
                result["rss_mb"] = server.peak_rss_mb()
                result["service"] = {
                    "counters": {k: h1["counters"].get(k, 0) - h0["counters"].get(k, 0)
                                 for k in h1["counters"]},
                    "journal_appends": h1["journal"]["appends"] - h0["journal"]["appends"],
                }
        finally:
            stop_error = server.stop() if server is not None else None
            if stop_error:
                result["extra_failed"] += 1
                print(stop_error, file=sys.stderr)
        if traced:
            spans, trace_metrics = server.trace()
            result["counters"] = trace_metrics.get("counters", {})
            # Spans carry ``time.monotonic()`` starts, one clock for every
            # process: this drops the server's warm-up job.
            result["server_spans"] = [s for s in spans if s["t0"] >= pass_t0]
    return result


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(run: dict, tail_pct: int, service: bool) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw (host-speed-bound) twins of
    the normalized ones, which go to the host line."""
    recs = run["records"]
    n = len(recs)
    ms = [r["ms"] for r in recs]
    norm = normalized(recs)
    if service:
        wall_ms = run["records_wall_ms"]
        throughput = n / (wall_ms / 1e3)
        throughput_norm = throughput * statistics.median(r["probe_ms"] for r in recs)
    else:
        throughput = n / (sum(ms) / 1e3)
        throughput_norm = 1e3 * n / sum(norm)
    utils = [r["util"] for r in recs if r["util"] is not None and r["error"] is None]
    failed = sum(1 for r in recs if r["error"] is not None)
    metrics = {
        "throughput_norm": (throughput_norm, "ops/kprobe"),
        "latency_p50_norm": (percentile(norm, 50), "probe"),
        "latency_tail_norm": (percentile(norm, tail_pct), "probe"),
        "setup_s": (statistics.median(run["setup"].ref_s), "s"),
        "peak_rss_mb": (run["rss_mb"], "MB"),
        "success_rate": ((n - failed) / n, "ratio"),
        "util_after_mean": (sum(utils) / len(utils) if utils else 0.0, "ratio"),
    }
    raw = {
        "throughput_ops_s": throughput,
        "latency_p50_ms": percentile(ms, 50),
        "latency_tail_ms": percentile(ms, tail_pct),
        "setup_wall_s": statistics.median(run["setup"].wall_s),
        "ref_probe_ms": statistics.median(r["probe_ms"] for r in recs),
        "p50_gap_ratio": gap_ratio(ms, 50),
        "tail_gap_ratio": gap_ratio(ms, tail_pct),
    }
    return metrics, raw


def span_layers(spans, server_spans=()) -> tuple[dict, float]:
    """Self time per ``bench.<layer>`` span name, and total op time (ms).

    A layer's self time is its spans' durations minus the durations of
    the ``bench.*`` spans nested directly inside them; the program's own
    spans inside a layer stay attributed to that layer.  The service's
    worker time, from *server_spans*, moves from ``service`` to the
    layers the worker ran.
    """
    by_id = {s["id"]: s for s in spans}
    child_ms: Counter = Counter()
    for s in spans:
        if s["name"].startswith("bench.") and s["parent"] in by_id:
            parent = by_id[s["parent"]]
            if parent["name"].startswith("bench."):
                child_ms[parent["id"]] += s["dur"] * 1e3
    self_ms: Counter = Counter()
    op_ms = 0.0
    for s in spans:
        if s["name"] == "bench.op":
            op_ms += s["dur"] * 1e3
        elif s["name"].startswith("bench."):
            self_ms[s["name"][6:]] += s["dur"] * 1e3 - child_ms[s["id"]]
    for lay, ms in worker_layers(server_spans).items():
        self_ms[lay] += ms
        self_ms["service"] -= ms
    return self_ms, op_ms


def worker_layers(spans) -> Counter:
    """Self time (ms) per layer of the program's own spans.

    Every job the server's worker ran belongs to one session (none is
    coalesced), so this time lies inside the sessions' ``bench.service``
    spans.
    """
    child_ms: Counter = Counter()
    for s in spans:
        child_ms[s["parent"]] += s["dur"] * 1e3
    out: Counter = Counter()
    for s in spans:
        name = s["name"]
        lay = PROGRAM_SPAN_LAYER.get(name) or PROGRAM_SPAN_LAYER.get(name.split(".")[0])
        if lay:
            out[lay] += s["dur"] * 1e3 - child_ms[s["id"]]
    return out


def mean_ms(spans, name: str, call: str | None = None) -> float:
    durs = [
        s["dur"] * 1e3 for s in spans
        if s["name"] == name and (call is None or s.get("attrs", {}).get("call") == call)
    ]
    return sum(durs) / len(durs) if durs else 0.0


def per_layer(run: dict, spans, tail_pct: int) -> dict:
    recs, recs_a = run["records"], run["records_a"]
    counters = run["counters"]
    counts: Counter = Counter()
    for r in recs:
        counts.update(r["counts"])
    server_spans = run.get("server_spans", [])
    self_ms, op_ms = span_layers(spans, server_spans)
    out: dict = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def ratio(a, b):
        return a / b if b else 0.0

    for lay in LAYERS:
        put(f"{lay}.self_share", ratio(self_ms.get(lay, 0.0), op_ms), "ratio")
    put("obs.unattributed_share", ratio(op_ms - sum(self_ms.values()), op_ms), "ratio")
    put("frontend.ingest_ms", mean_ms(spans, "bench.frontend"), "ms")
    put("workloads.synth_ms", mean_ms(spans, "bench.workloads"), "ms")
    put("enumeration.ms_per_task", mean_ms(spans, "bench.enumeration"), "ms")
    put("selection.curve_ms_per_task", mean_ms(spans, "bench.selection"), "ms")
    put("selection.configurations", ratio(counts["configurations"], counts["tasks"]), "count")
    put("core.edf_ms", mean_ms(spans, "bench.core", "select_edf"), "ms")
    put("core.rms_ms", mean_ms(spans, "bench.core", "select_rms"), "ms")
    put("core.schedulable_ratio", ratio(counts["schedulable"], counts["selections"]), "ratio")
    put("pareto.exact_ms", mean_ms(spans, "bench.pareto"), "ms")
    put("pareto.points", ratio(counts["pareto_points"], counts["pareto_calls"]), "count")
    put("rtsched.simulate_ms", mean_ms(spans, "bench.rtsched", "simulate_taskset"), "ms")
    partitions = [s for s in [*spans, *server_spans] if s["name"] == "mlgp.partition"]
    put("mlgp.partition_ms", mean_ms(partitions, "mlgp.partition"), "ms")
    put("mlgp.partition_calls", len(partitions), "count")
    for metric, counter in COUNTERS.items():
        put(metric, counters.get(counter, 0), "count")
    put("enumeration.feasible_ratio",
        ratio(counters.get("enumeration.feasible", 0), counters.get("enumeration.visited", 0)),
        "ratio")
    for kind in CACHE_KINDS:
        hits = counters.get(f"cache.{kind}.hits", 0)
        misses = counters.get(f"cache.{kind}.misses", 0)
        put(f"cache.{kind}.hit_ratio", ratio(hits, hits + misses), "ratio")
    put_service(put, run, tail_pct)
    norm_a, norm_b = normalized(recs_a), normalized(recs)
    put("obs.trace_overhead_frac",
        (sum(norm_b) / len(norm_b)) / (sum(norm_a) / len(norm_a)) - 1.0, "ratio")
    probes = [r["probe_ms"] for r in recs_a + recs]
    put("host.ref_probe_ms", statistics.median(probes), "ms")
    put("host.ref_probe_iqr_frac", iqr_frac(probes), "ratio")
    ms_a = [r["ms"] for r in recs_a]
    put("host.raw_latency_p50_ms", percentile(ms_a, 50), "ms")
    put("host.raw_latency_tail_ms", percentile(ms_a, tail_pct), "ms")
    put("latency.p50_gap_ratio", gap_ratio(ms_a, 50), "ratio")
    put("latency.tail_gap_ratio", gap_ratio(ms_a, tail_pct), "ratio")
    return out


def put_service(put, run: dict, tail_pct: int) -> None:
    """Service-side times from the public job records; counts from the
    server's health/stats replies and its exported metrics."""
    svc = run.get("service", {})
    submits = [sub for r in run["records"] for sub in r.get("submits", [])]
    jobs = [sub["job"] for sub in submits]
    computed = [j for j in jobs if j.get("started") is not None and j.get("source") != "store"]
    hits = [j for j in jobs if j.get("source") == "store"]
    queue = [(j["started"] - j["created"]) * 1e3 for j in computed]
    worker = [(j["finished"] - j["started"]) * 1e3 for j in computed]
    overhead = [sub["ms"] - (sub["job"]["finished"] - sub["job"]["created"]) * 1e3 for sub in submits]
    put("service.queue_wait_ms_p50", percentile(queue, 50), "ms")
    put("service.queue_wait_ms_tail", percentile(queue, tail_pct), "ms")
    put("service.worker_ms_p50", percentile(worker, 50), "ms")
    put("service.worker_ms_tail", percentile(worker, tail_pct), "ms")
    put("service.hit_ms_p50", percentile([(j["finished"] - j["created"]) * 1e3 for j in hits], 50), "ms")
    put("service.compute_ms_p50", percentile([(j["finished"] - j["created"]) * 1e3 for j in computed], 50), "ms")
    put("service.client_overhead_ms_p50", percentile(overhead, 50), "ms")
    c = svc.get("counters", {})
    for name in ("computed", "result_hits", "coalesced"):
        put(f"service.{name}", c.get(name, 0), "count")
    put("service.journal_appends", svc.get("journal_appends", 0), "count")
    put("service.journal_fsyncs", run["counters"].get("service.journal.fsyncs", 0) if svc else 0, "count")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[var]  # pinned: default engines, no disk cache tier
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

    from repro import obs

    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        wl = make_workload(args.workload, run_dir)
        reps = max(1, round(args.seconds * ROUNDS_PER_SECOND[args.workload]))
        service = args.workload == "service_jobs"
        run = (run_service if service else run_in_process)(wl, args.seed, reps, bool(args.trace))
        recs = run["records"] + run.get("records_a", [])
        n = len(run["records"])
        tail_pct = tail_percentile(n)
        failed = sum(1 for r in recs if r["error"] is not None)
        failed += run["extra_failed"]
        for r in recs:
            if r["error"] is not None:
                print(f"failed op: {r['error']}", file=sys.stderr)
        raw = {}
        if args.trace:
            trace_file = run_dir / "trace.jsonl"
            obs.export_trace(trace_file)
            spans, _ = obs.load_trace(trace_file)
            metrics = per_layer(run, spans, tail_pct)
        else:
            metrics, raw = end_to_end(run, tail_pct, service)
        print(json.dumps({
            "host": host_block(),
            "workload": args.workload,
            "seed": args.seed,
            "ops": n,
            "tail_percentile": tail_pct,
            "raw": raw,
        }))
        attempted = len(recs) + run["extra_ops"]
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
