"""Identification-stage perf rows on the Figure 3.3 workload (the unique
programs of the six Chapter 3 task sets), written to
``benchmarks/results/BENCH_identification.json``.

Engine rows (fast vs reference, uncached), both from the same library
builds:

* ``build_candidate_library`` — the whole build, timed by the
  ``identify.enumerate`` spans (guard >= 2x);
* ``enumerate_connected`` — its per-block ESU searches, timed by the
  ``identify.search`` spans (guard >= 2x).

The engines return the same candidates only where the visit budgets do
not bind (``tests/test_enumeration_differential.py``).  On this workload
they bind, and the fast engine's pruning must reach at least as many
candidates in every program; that is what these rows assert.

Cache rows (cold vs warm):

* ``identify`` — ``build_task`` per program, timed by the ``identify``
  and ``curves`` spans (guard >= 5x);
* ``select`` — EDF and RMS selection over the six task sets at eleven
  area budgets, wall clock (the selection spans sit behind the cache
  lookup; guard: warm strictly beats cold, i.e. a two-decimal ratio of
  at least 1.01).

The two ``obs`` guards bound the per-``span()`` cost with tracing off
and on; CI also reads them from the JSON (``obs.disabled_span_ns``,
``obs.enabled_span_ns``).
"""

from __future__ import annotations

import functools

from benchmarks.common import (
    CacheRow,
    EngineRow,
    assert_guards,
    best_of,
    emit_json,
    run_cache_rows,
    run_engine_rows,
)
from repro import cache, obs
from repro.core import build_task, select_edf, select_rms
from repro.enumeration import build_candidate_library, enumerate_connected
from repro.rtsched import scale_periods_for_utilization
from repro.workloads import CH3_TASK_SETS, get_program

AREA_FRACTIONS = tuple(i / 10 for i in range(11))
WORKLOAD = "figure_3_3"


def _salted(names) -> list[tuple[str, int]]:
    """(benchmark, salt) per task: repeats of a name get fresh salts."""
    seen: dict[str, int] = {}
    pairs = []
    for name in names:
        pairs.append((name, seen.get(name, 0)))
        seen[name] = pairs[-1][1] + 1
    return pairs


PAIRS = sorted({p for names in CH3_TASK_SETS.values() for p in _salted(names)})


@functools.cache
def _programs() -> tuple:
    return tuple(get_program(name, salt) for name, salt in PAIRS)


def _libraries(engine: str) -> list[list]:
    return [
        build_candidate_library(p, engine=engine, use_cache=False).candidates
        for p in _programs()
    ]


def _fast_reaches_as_many(fast: list[list], ref: list[list]) -> bool:
    return len(fast) == len(ref) and all(
        len(f) >= len(r) > 0 for f, r in zip(fast, ref)
    )


def _tasks() -> list:
    return [build_task(p) for p in _programs()]


@functools.cache
def _task_sets() -> tuple:
    tasks = dict(zip(PAIRS, _tasks()))
    return tuple(
        scale_periods_for_utilization(
            [tasks[pair] for pair in _salted(names)], 1.05, name=f"ts{k}"
        )
        for k, names in sorted(CH3_TASK_SETS.items())
    )


def _select() -> list:
    return [
        (select_edf(ts, ts.max_area * f), select_rms(ts, ts.max_area * f))
        for ts in _task_sets()
        for f in AREA_FRACTIONS
    ]


ENGINE_ROWS = (
    EngineRow(
        build_candidate_library, _libraries, WORKLOAD, guard=2.0,
        spans=("identify.enumerate",), repeats=2, agree=_fast_reaches_as_many,
    ),
    EngineRow(
        enumerate_connected, _libraries, WORKLOAD, guard=2.0,
        spans=("identify.search",), repeats=2, agree=_fast_reaches_as_many,
    ),
)

CACHE_ROWS = (
    CacheRow("identify", _tasks, WORKLOAD, guard=5.0, spans=("identify", "curves")),
    CacheRow(
        "select", _select, WORKLOAD, guard=1.01,
        clear=lambda: (_task_sets(), cache.clear()),
    ),
)


def _span_ns(tracing: bool, iterations: int) -> float:
    """Average per-call cost of :func:`repro.obs.span` (entry, exit and,
    with tracing on, the append of its record to the trace buffer)."""
    assert not obs.tracing_enabled()
    span = obs.span

    def loop() -> None:
        for _ in range(iterations):
            with span("overhead-probe"):
                pass

    if tracing:
        obs.enable_tracing()
    try:
        (sample,), _ = best_of(loop)
    finally:
        obs.disable_tracing()
        obs.clear_trace()
    return sample["wall"] / iterations * 1e9


def test_obs_disabled_overhead_guard():
    """Disabled tracing must be a near-free no-op on the hot path.

    The 5 µs ceiling is ~100x the observed cost, so only a broken no-op
    path (e.g. losing the ``_TRACING`` early-out) trips it.
    """
    assert obs.span("a") is obs.span("b"), "disabled span must be a shared singleton"
    per_call_ns = _span_ns(False, 200_000)
    assert per_call_ns < 5_000, f"disabled span costs {per_call_ns:.0f}ns/call"


def test_obs_enabled_overhead_guard():
    """A recorded span must stay cheap enough to trace a whole run.

    The 50 µs ceiling is ~14x the observed cost (~3.5 µs on a 2-CPU
    x86_64 host), so only a broken record or append path (e.g. work
    proportional to the buffer length) trips it.
    """
    per_call_ns = _span_ns(True, 20_000)
    assert per_call_ns < 50_000, f"enabled span costs {per_call_ns:.0f}ns/call"


def test_identification_pipeline_speed():
    obs.reset()
    payload = {
        "workload": WORKLOAD,
        "engine_rows": run_engine_rows(ENGINE_ROWS),
        "cache_rows": run_cache_rows(CACHE_ROWS),
        "obs": {
            "disabled_span_ns": round(_span_ns(False, 20_000), 1),
            "enabled_span_ns": round(_span_ns(True, 20_000), 1),
        },
    }
    emit_json("BENCH_identification", payload)
    assert_guards(payload["engine_rows"], payload["cache_rows"])
