"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the thesis evaluation:
the series/rows are printed and also written to ``benchmarks/results/`` so
they survive pytest's output capturing.  Expensive per-benchmark task
construction is cached across benches within a session.

The per-stage perf benches (``test_{identification,selection,
partitioning}_perf.py``) are tables of rows run by two runners:

* :func:`run_engine_rows` runs each :class:`EngineRow` under the
  reference and the fast engine, both uncached, asserts the answers
  agree and records the reference/fast ratio.  The three benches' engine
  tables together must name every implementation point (each function
  that calls :func:`repro.engines.check_engine`) exactly once.
* :func:`run_cache_rows` runs each :class:`CacheRow` cold (caches
  emptied) and then warm, asserts the same answer and records the
  cold/warm ratio.

A sample is timed by the production :mod:`repro.obs` spans a row names,
summed over the run; a call that no span wraps is timed by wall clock.
Both come from :func:`best_of`, the harness's one timer.  Every timed
row reports its repeats and min/median/max; ratios compare the best
samples of runs in the same cache state.  :func:`assert_guards` checks
the ratios after :func:`emit_json` has persisted the ``BENCH_*.json``.
"""

from __future__ import annotations

import ast
import functools
import importlib
import json
import os
import platform
import statistics
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import repro
from repro import cache, obs
from repro.core import build_task
from repro.rtsched import PeriodicTask, TaskSet, scale_periods_for_utilization
from repro.workloads import get_program

RESULTS_DIR = Path(__file__).parent / "results"

#: The benches whose ``ENGINE_ROWS`` together cover every implementation point.
ENGINE_BENCHES = ("identification", "selection", "partitioning")


def emit(name: str, lines: list[str]) -> None:
    """Print a table/series and persist it under benchmarks/results/."""
    text = "\n".join(lines)
    print(f"\n=== {name} ===\n{text}")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


#: Version of the shared ``BENCH_*.json`` envelope (``schema_version``,
#: ``host``, ``metrics`` + bench-specific keys).  Bump when the envelope
#: itself changes shape.
BENCH_SCHEMA_VERSION = 2


def host_info() -> dict:
    """Machine fingerprint stored in every ``BENCH_*.json``.

    Timings are only comparable within one host; this records enough to
    tell apart trajectories from different machines/interpreters.
    """
    return {
        "platform": platform.platform(),
        "python_version": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def emit_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable result under benchmarks/results/.

    Every ``BENCH_*.json`` shares one envelope: ``schema_version``, a
    ``host`` fingerprint and a snapshot of the obs metrics registry under
    ``metrics`` (each only filled in when the payload does not already
    carry it), plus the bench-specific keys.
    """
    payload.setdefault("schema_version", BENCH_SCHEMA_VERSION)
    payload.setdefault("host", host_info())
    payload.setdefault("metrics", obs.metrics_snapshot())
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n=== {name} ===\n{json.dumps(payload, indent=2, sort_keys=True)}")
    return path


def best_of(
    call: Callable[[], Any], repeats: int = 1, spans: tuple[str, ...] = ()
) -> tuple[list[dict[str, float]], Any]:
    """Time *repeats* runs of *call*; returns one sample per run and the
    last run's result.

    A sample maps ``"wall"`` to the run's wall-clock seconds and each
    name in *spans* to the summed duration of the spans of that name the
    run emitted.  Tracing is on during a run only when *spans* is given.
    """
    samples = []
    result = None
    for _ in range(repeats):
        if spans:
            obs.clear_trace()
            obs.enable_tracing()
        t0 = time.perf_counter()
        try:
            result = call()
        finally:
            wall = time.perf_counter() - t0
            if spans:
                obs.disable_tracing()
        sample = dict.fromkeys(spans, 0.0)
        if spans:
            for record in obs.trace_spans():
                if record["name"] in sample:
                    sample[record["name"]] += record["dur"]
            obs.clear_trace()
        sample["wall"] = wall
        samples.append(sample)
    return samples, result


def spread(seconds: Sequence[float]) -> dict:
    """Repeats and min/median/max of one row's timed samples."""
    return {
        "repeats": len(seconds),
        "min_s": round(min(seconds), 6),
        "median_s": round(statistics.median(seconds), 6),
        "max_s": round(max(seconds), 6),
    }


def _seconds(sample: dict[str, float], spans: tuple[str, ...]) -> float:
    return sum(sample[s] for s in spans) if spans else sample["wall"]


@dataclass(frozen=True)
class EngineRow:
    """Fast vs reference on one implementation point, both uncached."""

    fn: Callable  # the implementation point this row backs
    run: Callable[[str], Any]  # the workload under one engine
    workload: str
    guard: float  # least reference/fast ratio (best samples)
    spans: tuple[str, ...] = ()  # production spans timing a run; () = wall
    repeats: int = 3
    agree: Callable[[Any, Any], bool] = lambda fast, ref: fast == ref


@dataclass(frozen=True)
class CacheRow:
    """Cold vs warm runs of one cached call."""

    name: str
    run: Callable[[], Any]  # the workload with caches on
    workload: str
    guard: float  # least cold/warm ratio (best samples)
    spans: tuple[str, ...] = ()
    repeats: int = 3
    clear: Callable[[], Any] = cache.clear  # runs before each cold run


def engine_points() -> set[str]:
    """Qualified names of the functions that call ``check_engine``."""
    root = Path(repro.__file__).parent
    found = set()
    for path in root.rglob("*.py"):
        parts = path.relative_to(root.parent).with_suffix("").parts
        module = ".".join(parts).removesuffix(".__init__")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "check_engine"
                for call in ast.walk(node)
            ):
                found.add(f"{module}.{node.name}")
    return found


def _point(fn: Callable) -> str:
    return f"{fn.__module__}.{fn.__qualname__}"


def run_engine_rows(rows: Sequence[EngineRow]) -> dict:
    """Run one bench's engine table; returns its payload rows.

    Rows sharing a ``run`` share its runs (each reads its own spans).
    """
    tables = [
        importlib.import_module(f"benchmarks.test_{bench}_perf").ENGINE_ROWS
        for bench in ENGINE_BENCHES
    ]
    named = sorted(_point(row.fn) for table in tables for row in table)
    points = sorted(engine_points())
    assert named == points, f"engine rows {named} != check_engine callers {points}"
    spans_of: dict[Callable, set[str]] = {}
    for row in rows:
        spans_of.setdefault(row.run, set()).update(row.spans)
    runs: dict[tuple[Callable, str], tuple[list, Any]] = {}
    out = {}
    for row in rows:
        timing, answers = {}, {}
        for engine in ("reference", "fast"):
            if (row.run, engine) not in runs:
                runs[row.run, engine] = best_of(
                    functools.partial(row.run, engine),
                    row.repeats,
                    tuple(sorted(spans_of[row.run])),
                )
            samples, answers[engine] = runs[row.run, engine]
            timing[engine] = spread([_seconds(s, row.spans) for s in samples])
        name = row.fn.__name__
        assert timing["fast"]["min_s"] > 0, f"{name}: {row.spans} never closed"
        assert row.agree(answers["fast"], answers["reference"]), (
            f"{name}: the engines disagree on {row.workload}"
        )
        out[name] = {
            "workload": row.workload,
            "timed_by": list(row.spans) or "wall",
            **timing,
            "ratio": round(timing["reference"]["min_s"] / timing["fast"]["min_s"], 2),
            "guard": row.guard,
        }
    return out


def run_cache_rows(rows: Sequence[CacheRow]) -> dict:
    """Run one bench's cache table; returns its payload rows."""
    out = {}
    for row in rows:
        cold, warm = [], []
        for _ in range(row.repeats):
            row.clear()
            (cold_sample,), cold_answer = best_of(row.run, spans=row.spans)
            (warm_sample,), warm_answer = best_of(row.run, spans=row.spans)
            assert warm_answer == cold_answer, f"{row.name}: warm answer differs"
            cold.append(_seconds(cold_sample, row.spans))
            warm.append(_seconds(warm_sample, row.spans))
        out[row.name] = {
            "workload": row.workload,
            "timed_by": list(row.spans) or "wall",
            "cold": spread(cold),
            "warm": spread(warm),
            "ratio": round(min(cold) / max(min(warm), 1e-9), 2),
            "guard": row.guard,
        }
    return out


def assert_guards(*tables: dict) -> None:
    """Every row's ratio reaches its guard."""
    low = {
        name: (row["ratio"], row["guard"])
        for table in tables
        for name, row in table.items()
        if not row["ratio"] >= row["guard"]
    }
    assert not low, f"(ratio, guard) under the guard: {low}"


@functools.lru_cache(maxsize=None)
def cached_task(name: str, salt: int = 0, objective: str = "avg") -> PeriodicTask:
    """Build (and cache) a periodic task with its configuration curve."""
    return build_task(get_program(name, salt), objective=objective)


def cached_task_set(
    names: tuple[str, ...], utilization: float, label: str = ""
) -> TaskSet:
    """A task set over cached tasks with periods scaled to *utilization*."""
    seen: dict[str, int] = {}
    tasks = []
    for name in names:
        salt = seen.get(name, 0)
        seen[name] = salt + 1
        tasks.append(cached_task(name, salt))
    return scale_periods_for_utilization(tasks, utilization, name=label)


def once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
