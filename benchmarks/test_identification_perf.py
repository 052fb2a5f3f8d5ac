"""Identification-pipeline speed harness (perf trajectory for future PRs).

Times the identification → configuration-curve → selection pipeline on the
Figure 3.3 workload (the unique programs of the six Chapter 3 task sets)
under these setups, every ``*_cold`` row starting from emptied artifact
caches (library, curve and selection alike), so their ``total_seconds``
compare like with like:

* ``reference_cold`` — the original set-based ESU enumerator, no caching;
* ``fast_cold``      — the fast (bitset ESU) engine;
* ``fast_warm``      — the fast engine re-run directly after
  ``fast_cold``, on the caches that row primed.

Only the per-DFG bitset masks, which live on the program objects, are
shared: the first row to enumerate builds them.

Per-stage wall clock (enumerate / curves / select), candidate-visit rates
and the speedup ratios are written to
``benchmarks/results/BENCH_identification.json``.  Engine enumeration
comparisons (rates and ``*_enumeration`` ratios) use the pure
``stats["enumerate_seconds"]`` measured around :func:`enumerate_connected`
itself — the stage timer also covers candidate costing, which is
engine-independent work that would dilute the ratios.
"""

from __future__ import annotations

import math
import time

from benchmarks.common import emit_json, reset_stages, stage, stage_report
from repro import cache, obs
from repro.core import select_edf, select_rms
from repro.enumeration import build_candidate_library
from repro.rtsched import PeriodicTask, scale_periods_for_utilization
from repro.selection import build_configuration_curve, downsample_curve
from repro.workloads import CH3_TASK_SETS, get_program

#: Repeats for the enumeration-only engine comparison; the min filters
#: scheduler noise out of the per-engine kernel time (single-shot cold
#: rows stay in the payload for the end-to-end picture).
ENUM_REPEATS = 5

AREA_FRACTIONS = tuple(i / 10 for i in range(11))


def _workload_pairs() -> list[tuple[str, int]]:
    """Unique (benchmark, salt) pairs across the six Chapter 3 task sets."""
    pairs: set[tuple[str, int]] = set()
    for names in CH3_TASK_SETS.values():
        seen: dict[str, int] = {}
        for name in names:
            salt = seen.get(name, 0)
            seen[name] = salt + 1
            pairs.add((name, salt))
    return sorted(pairs)


def _run_pipeline(engine: str, use_cache: bool, label: str) -> dict:
    """One full identification+curve+selection pass over the workload."""
    reset_stages()
    enum_stats: dict = {}
    tasks: dict[tuple[str, int], PeriodicTask] = {}
    t0 = time.perf_counter()
    for name, salt in _workload_pairs():
        program = get_program(name, salt)
        with stage("enumerate"):
            library = build_candidate_library(
                program, engine=engine, use_cache=use_cache, stats=enum_stats
            )
        with stage("curves"):
            curve = downsample_curve(
                build_configuration_curve(
                    program, library.candidates, use_cache=use_cache
                ),
                24,
            )
        tasks[(name, salt)] = PeriodicTask(
            name=program.name,
            period=2.0 * curve[0].cycles,
            wcet=curve[0].cycles,
            configurations=tuple(curve),
        )
    with stage("select"):
        for k, names in sorted(CH3_TASK_SETS.items()):
            seen: dict[str, int] = {}
            members = []
            for name in names:
                salt = seen.get(name, 0)
                seen[name] = salt + 1
                members.append(tasks[(name, salt)])
            ts = scale_periods_for_utilization(members, 1.05, name=f"ts{k}")
            for frac in AREA_FRACTIONS:
                budget = ts.max_area * frac
                select_edf(ts, budget)
                select_rms(ts, budget)
    total = time.perf_counter() - t0
    report = stage_report()
    stage_enum_seconds = report.get("enumerate", {}).get("seconds", 0.0)
    # Pure time inside enumerate_connected (excludes candidate costing,
    # which the enumerate *stage* also covers) — the engine-comparable
    # denominator for visit rates and enumeration speedups.
    enum_seconds = enum_stats.get("enumerate_seconds", 0.0)
    visited = enum_stats.get("visited", 0)
    return {
        "label": label,
        "engine": engine,
        "use_cache": use_cache,
        "programs": len(tasks),
        "total_seconds": round(total, 4),
        "stages": {k: round(v["seconds"], 4) for k, v in report.items()},
        "identification_seconds": round(
            stage_enum_seconds + report.get("curves", {}).get("seconds", 0.0), 4
        ),
        "enumerate_seconds": round(enum_seconds, 4),
        "candidates_visited": visited,
        "candidates_visited_per_sec": (
            round(visited / enum_seconds) if enum_seconds > 0 and visited else None
        ),
    }


def _enumeration_seconds(engine: str, repeats: int = ENUM_REPEATS) -> float:
    """Best-of-*repeats* pure enumeration time for one engine.

    Sweeps :func:`enumerate_connected` over every hot block of the
    Figure 3.3 workload (the library's own parameters: 4/2 ports,
    ``max_size`` 12, 2000 candidates per block) and returns the fastest
    full sweep — the engine's kernel time with warm masks/constants,
    insulated from one-off scheduler stalls and from the
    candidate-costing allocator churn a full library build interleaves.
    This is the figure behind the ``*_enumeration_best`` speedup.
    """
    from repro.enumeration import enumerate_connected
    from repro.enumeration.library import hot_block_indices

    dfgs = []
    for name, salt in _workload_pairs():
        program = get_program(name, salt)
        dfgs += [
            program.basic_blocks[i].dfg for i in hot_block_indices(program)
        ]
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for dfg in dfgs:
            enumerate_connected(
                dfg, max_inputs=4, max_outputs=2, max_size=12,
                max_candidates=2000, engine=engine,
            )
        best = min(best, time.perf_counter() - t0)
    return best


def _disabled_span_ns(iterations: int = 200_000) -> float:
    """Average per-call cost of :func:`repro.obs.span` with tracing off."""
    assert not obs.tracing_enabled()
    span = obs.span
    t0 = time.perf_counter()
    for _ in range(iterations):
        with span("overhead-probe"):
            pass
    return (time.perf_counter() - t0) / iterations * 1e9


def _enabled_span_ns(iterations: int = 20_000) -> float:
    """Average per-call cost of :func:`repro.obs.span` with tracing on
    (entry, exit and the append of its record to the trace buffer)."""
    assert not obs.tracing_enabled()
    span = obs.span
    obs.clear_trace()
    obs.enable_tracing()
    try:
        t0 = time.perf_counter()
        for _ in range(iterations):
            with span("overhead-probe"):
                pass
        elapsed = time.perf_counter() - t0
    finally:
        obs.disable_tracing()
        obs.clear_trace()
    return elapsed / iterations * 1e9


def test_obs_disabled_overhead_guard():
    """Disabled tracing must be a near-free no-op on the hot path.

    The guard bounds the per-``span()`` cost with tracing off; the 5 µs
    ceiling is ~100x the observed cost, so only a broken no-op path (e.g.
    losing the ``_TRACING`` early-out) trips it — timer noise cannot.
    """
    assert obs.span("a") is obs.span("b"), "disabled span must be a shared singleton"
    per_call_ns = _disabled_span_ns()
    assert per_call_ns < 5_000, f"disabled span costs {per_call_ns:.0f}ns/call"


def test_obs_enabled_overhead_guard():
    """A recorded span must stay cheap enough to trace a whole run.

    The 50 µs ceiling is ~14x the observed cost (~3.5 µs on a 2-CPU
    x86_64 host), so only a broken record or append path (e.g. work
    proportional to the buffer length) trips it.
    """
    per_call_ns = _enabled_span_ns()
    assert per_call_ns < 50_000, f"enabled span costs {per_call_ns:.0f}ns/call"


def test_identification_pipeline_speed(benchmark):
    cache.clear()
    reference = _run_pipeline("reference", use_cache=False, label="reference_cold")

    cache.clear()
    obs.reset()  # the payload's metrics block covers the fast rows only
    cold = _run_pipeline("fast", use_cache=True, label="fast_cold")
    warm = benchmark.pedantic(
        _run_pipeline, args=("fast", True, "fast_warm"), rounds=1, iterations=1
    )

    fast_best = _enumeration_seconds("fast")
    # The reference engine is ~10x slower, so noise is proportionally
    # smaller — two repeats suffice.
    reference_best = _enumeration_seconds("reference", repeats=2)

    def ratio(a: float, b: float) -> float:
        return round(a / b, 2) if b > 0 else math.inf

    payload = {
        "workload": "figure_3_3",
        "rows": [reference, cold, warm],
        "enumeration_best_of": {
            "repeats": ENUM_REPEATS,
            "reference_seconds": round(reference_best, 4),
            "fast_seconds": round(fast_best, 4),
        },
        "speedups": {
            "fast_vs_reference_identification": ratio(
                reference["identification_seconds"], cold["identification_seconds"]
            ),
            "fast_vs_reference_total": ratio(
                reference["total_seconds"], cold["total_seconds"]
            ),
            "fast_vs_reference_enumeration": ratio(
                reference["enumerate_seconds"], cold["enumerate_seconds"]
            ),
            "fast_vs_reference_enumeration_best": ratio(
                reference_best, fast_best
            ),
            "warm_vs_cold_identification": ratio(
                cold["identification_seconds"], warm["identification_seconds"]
            ),
            "warm_vs_cold_total": ratio(
                cold["total_seconds"], warm["total_seconds"]
            ),
        },
        "obs": {
            "disabled_span_ns": round(_disabled_span_ns(20_000), 1),
            "enabled_span_ns": round(_enabled_span_ns(), 1),
        },
    }
    emit_json("BENCH_identification", payload)

    # Acceptance: the fast engine is ≥3x faster on identification+curves,
    # and the warm-cache rerun ≥10x faster than cold.  Assert with margin so
    # CI noise cannot flake the build while still catching regressions.
    speedups = payload["speedups"]
    assert speedups["fast_vs_reference_identification"] >= 2.0
    assert speedups["warm_vs_cold_identification"] >= 5.0
    assert warm["total_seconds"] < cold["total_seconds"]
