"""Job kinds of the customization service.

A job kind ties a request name to two functions:

* ``resolve(params) -> (key, normalized_params)`` — **cheap** (no
  enumeration, no solving): fills defaults, validates the request and
  derives the content-addressed dedup key from the same digests the
  artifact cache uses (:func:`repro.cache.program_fingerprint`,
  :func:`~repro.cache.hot_loops_digest`,
  :func:`~repro.cache.reconfig_tasks_digest`).  Two requests that would
  compute the same artifact get the same key even when their surface
  parameters differ in irrelevant ways — the server coalesces them.
* ``compute(params) -> dict`` — the actual pipeline run, returning a
  JSON-serializable result.  Dispatched module-level through
  :func:`compute_job` so a ``(kind, params)`` pair pickles cleanly into a
  process-pool worker.

Bad requests raise :class:`~repro.errors.ReproError` (unknown kind,
unknown benchmark, malformed params) — the server turns those into failed
jobs / error responses, never tracebacks.

Custom kinds can be registered with :func:`register_kind` (tests use this
to inject controllable jobs; embedders can expose bespoke flows).
Registration is process-local: a custom kind is only computable in pool
workers if the registering module is importable there, so tests register
custom kinds on inline (``use_processes=False``) servers.

Benchmark names resolve through :func:`repro.workloads.get_program`, which
includes ingested real-code workloads (:mod:`repro.workloads.registry`):
path-like names and ``$REPRO_WORKLOAD_DIR`` entries re-resolve identically
inside process-pool workers (the path / environment travels with the
process), while in-memory ``register_program`` bindings only resolve on
inline servers.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro import cache
from repro.errors import ReproError

__all__ = [
    "JOB_KINDS",
    "JobKind",
    "compute_job",
    "journal_safe_params",
    "register_kind",
    "resolve_job",
]


@dataclass(frozen=True)
class JobKind:
    """A request type: cheap key derivation + the picklable computation."""

    name: str
    resolve: Callable[[dict], tuple[str, dict]]
    compute: Callable[[dict], dict]


JOB_KINDS: dict[str, JobKind] = {}


def register_kind(
    name: str,
    resolve: Callable[[dict], tuple[str, dict]],
    compute: Callable[[dict], dict],
) -> None:
    """Register (or replace) a job kind under *name*."""
    JOB_KINDS[name] = JobKind(name=name, resolve=resolve, compute=compute)


def resolve_job(kind: str, params: dict | None) -> tuple[str, dict]:
    """Validate a request and derive its dedup key (cheap; may raise)."""
    jk = JOB_KINDS.get(kind)
    if jk is None:
        raise ReproError(
            f"unknown job kind {kind!r}; known: {', '.join(sorted(JOB_KINDS))}"
        )
    return jk.resolve(dict(params or {}))


def compute_job(kind: str, params: dict) -> dict:
    """Run one job's computation (module-level, so it pickles)."""
    jk = JOB_KINDS.get(kind)
    if jk is None:
        raise ReproError(f"unknown job kind {kind!r}")
    return jk.compute(params)


def journal_safe_params(params: dict) -> dict:
    """Canonicalize *params* through a JSON round-trip for the journal.

    The write-ahead journal (:mod:`repro.service.journal`) replays
    ``(kind, params)`` pairs across a server restart, so journaled
    params must survive JSON serialization *and* resolve to the same
    content key when loaded back (tuples come back as lists — the
    builtin kinds' resolve steps already normalize to JSON types).
    Raises :class:`~repro.errors.ReproError` for params a journal could
    not faithfully replay (sets, objects, NaN...), so the caller can
    degrade to a non-durable job instead of corrupting the journal.
    """
    try:
        return json.loads(json.dumps(params, sort_keys=True, allow_nan=False))
    except (TypeError, ValueError) as exc:
        raise ReproError(
            f"job params are not JSON-serializable for the journal: {exc}"
        ) from exc


def _pool_entry(spec: tuple[str, dict]) -> tuple[dict, dict]:
    """Process-pool wrapper: compute plus the worker's obs payload.

    Mirrors :func:`repro.parallel._captured_job`: the worker captures its
    spans and metric deltas so the server can merge them into its own
    trace/metrics view (cache hit counters from workers stay visible).
    """
    from repro import obs

    obs.begin_child_capture()
    result = compute_job(*spec)
    return result, obs.end_child_capture()


# ----------------------------------------------------------------------
# Param helpers
# ----------------------------------------------------------------------
def _take(params: dict, defaults: dict[str, Any], kind: str) -> dict:
    """Defaults + validation: unknown parameter names are user errors."""
    unknown = set(params) - set(defaults)
    if unknown:
        raise ReproError(
            f"unknown parameter(s) for {kind!r}: {', '.join(sorted(unknown))}"
        )
    out = dict(defaults)
    out.update(params)
    return out


def _benchmarks(value: Any, kind: str) -> tuple[str, ...]:
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)) or not value or not all(
        isinstance(b, str) for b in value
    ):
        raise ReproError(f"{kind!r} needs a non-empty benchmark name list")
    return tuple(value)


def _programs(names: tuple[str, ...]):
    from repro.workloads import programs_for

    return programs_for(names)


def _joint_fingerprint(programs) -> str:
    return "+".join(cache.program_fingerprint(p) for p in programs)


_ENUM_ENGINES = ("bitset", "reference")
_MLGP_ENGINES = ("fast", "reference")


def _engine_key(p: dict, kind: str, engines: tuple[str, ...]) -> str:
    """Validate the engine param and return it as its cache-key value."""
    engine = p["engine"]
    if engine not in engines:
        raise ReproError(
            f"unknown {kind!r} engine {engine!r}; "
            f"use one of {', '.join(engines)}"
        )
    return engine


# ----------------------------------------------------------------------
# identify — candidate library for one benchmark program
# ----------------------------------------------------------------------
_IDENTIFY_DEFAULTS: dict[str, Any] = {
    "benchmark": None,
    "max_inputs": 4,
    "max_outputs": 2,
    "engine": "bitset",
}


def _resolve_identify(params: dict) -> tuple[str, dict]:
    p = _take(params, _IDENTIFY_DEFAULTS, "identify")
    if not isinstance(p["benchmark"], str):
        raise ReproError("'identify' needs a benchmark name")
    from repro.workloads import get_program

    fp = cache.program_fingerprint(get_program(p["benchmark"]))
    # Engine IS folded into the key: the engines agree on the search
    # space but can return different candidate sets under binding
    # budgets, so results from different engines are distinct artifacts
    # and must not dedupe against each other.
    key = cache.artifact_key(
        fp,
        svc="identify",
        max_inputs=p["max_inputs"],
        max_outputs=p["max_outputs"],
        engine=_engine_key(p, "identify", _ENUM_ENGINES),
    )
    return key, p


def _compute_identify(params: dict) -> dict:
    from repro.enumeration import build_candidate_library
    from repro.workloads import get_program

    stats: dict = {}
    lib = build_candidate_library(
        get_program(params["benchmark"]),
        max_inputs=params["max_inputs"],
        max_outputs=params["max_outputs"],
        engine=params["engine"],
        stats=stats,
    )
    candidates = lib.candidates
    return {
        "benchmark": params["benchmark"],
        "n_candidates": len(candidates),
        "max_area": max((c.area for c in candidates), default=0.0),
        "visited": stats.get("visited", 0),
        "feasible": stats.get("feasible", 0),
    }


# ----------------------------------------------------------------------
# curve — one task's (area, cycles) configuration curve
# ----------------------------------------------------------------------
_CURVE_DEFAULTS: dict[str, Any] = {
    "benchmark": None,
    "objective": "avg",
    "engine": "bitset",
}


def _resolve_curve(params: dict) -> tuple[str, dict]:
    p = _take(params, _CURVE_DEFAULTS, "curve")
    if not isinstance(p["benchmark"], str):
        raise ReproError("'curve' needs a benchmark name")
    from repro.workloads import get_program

    fp = cache.program_fingerprint(get_program(p["benchmark"]))
    key = cache.artifact_key(
        fp,
        svc="curve",
        objective=p["objective"],
        engine=_engine_key(p, "curve", _ENUM_ENGINES),
    )
    return key, p


def _compute_curve(params: dict) -> dict:
    from repro.core import build_task
    from repro.workloads import get_program

    task = build_task(
        get_program(params["benchmark"]),
        objective=params["objective"],
        engine=params["engine"],
    )
    return {
        "benchmark": params["benchmark"],
        "wcet": task.wcet,
        "configurations": [
            [c.area, c.cycles] for c in task.configurations
        ],
    }


# ----------------------------------------------------------------------
# pareto — utilization-area Pareto front over a task set
# ----------------------------------------------------------------------
_PARETO_DEFAULTS: dict[str, Any] = {
    "benchmarks": None,
    "eps": 0.69,
    "utilization": 1.0,
    "engine": "bitset",
}


def _resolve_pareto(params: dict) -> tuple[str, dict]:
    p = _take(params, _PARETO_DEFAULTS, "pareto")
    p["benchmarks"] = list(_benchmarks(p["benchmarks"], "pareto"))
    fp = _joint_fingerprint(_programs(tuple(p["benchmarks"])))
    key = cache.artifact_key(
        fp,
        svc="pareto",
        eps=p["eps"],
        utilization=p["utilization"],
        engine=_engine_key(p, "pareto", _ENUM_ENGINES),
    )
    return key, p


def _compute_pareto(params: dict) -> dict:
    from repro.core.flow import build_tasks
    from repro.pareto import TaskCurve, approx_utilization_curve

    tasks = build_tasks(
        _programs(tuple(params["benchmarks"])), engine=params["engine"]
    )
    alpha = len(tasks) / params["utilization"]
    curves = [
        TaskCurve(
            period=alpha * t.wcet,
            workloads=tuple(c.cycles for c in t.configurations),
            areas=tuple(round(c.area) for c in t.configurations),
        )
        for t in tasks
    ]
    front = approx_utilization_curve(curves, params["eps"])
    return {
        "benchmarks": params["benchmarks"],
        "eps": params["eps"],
        "n_points": len(front),
        "points": [
            {"area": pt.cost, "utilization": pt.value} for pt in front
        ],
    }


# ----------------------------------------------------------------------
# mlgp — iterative on-demand CI generation (Ch. 5)
# ----------------------------------------------------------------------
_MLGP_DEFAULTS: dict[str, Any] = {
    "benchmarks": None,
    "utilization": 1.05,
    "target": 1.0,
    "seed": 0,
    "engine": "fast",
}


def _resolve_mlgp(params: dict) -> tuple[str, dict]:
    p = _take(params, _MLGP_DEFAULTS, "mlgp")
    # Validated but NOT folded into the key: the MLGP engines are
    # bit-identical, so either engine's result deduplicates against the
    # other's.
    _engine_key(p, "mlgp", _MLGP_ENGINES)
    p["benchmarks"] = list(_benchmarks(p["benchmarks"], "mlgp"))
    fp = _joint_fingerprint(_programs(tuple(p["benchmarks"])))
    key = cache.artifact_key(
        fp,
        svc="mlgp",
        utilization=p["utilization"],
        target=p["target"],
        seed=p["seed"],
    )
    return key, p


def _compute_mlgp(params: dict) -> dict:
    from repro.mlgp.flow import iterative_customization

    programs = _programs(tuple(params["benchmarks"]))
    alpha = len(programs) / params["utilization"]
    periods = [alpha * p.wcet() for p in programs]
    result = iterative_customization(
        programs,
        periods,
        u_target=params["target"],
        seed=params["seed"],
        engine=params["engine"],
    )
    return {
        "benchmarks": params["benchmarks"],
        "utilization": result.utilization,
        "target": result.target,
        "met_target": result.met_target,
        "n_custom_instructions": len(result.custom_instructions),
        "total_area": result.total_area,
        "iterations": len(result.records),
    }


# ----------------------------------------------------------------------
# reconfig — hot-loop partitioning (Ch. 6; default: JPEG case study)
# ----------------------------------------------------------------------
_RECONFIG_DEFAULTS: dict[str, Any] = {
    "loops": None,  # hot-loops dict (repro.io schema); None = JPEG
    "benchmarks": None,  # alternatively: derive loops from benchmark curves
    "max_versions": 4,  # versions kept per derived loop
    "max_area": None,
    "rho": None,
    "seed": 0,
    "engine": "fast",
}


def _reconfig_inputs(p: dict):
    if p.get("benchmarks"):
        # Derive hot loops from the benchmarks' configuration curves
        # (works for ingested real-code workloads too).  This runs
        # enumeration, so it only happens in the compute step — the
        # resolve step keys on program fingerprints instead.
        from repro import frontend

        loops, trace = frontend.loops_from_programs(
            _programs(_benchmarks(p["benchmarks"], "reconfig")),
            max_versions=p["max_versions"],
        )
        max_area = p["max_area"] if p["max_area"] is not None else 2048.0
        rho = p["rho"] if p["rho"] is not None else 15.0
        return loops, trace, max_area, rho
    if p["loops"] is not None:
        from repro import io as repro_io

        loops, trace = repro_io.hot_loops_from_dict(p["loops"])
        if not trace:
            raise ReproError("'reconfig' loops carry no loop trace")
        max_area = p["max_area"] if p["max_area"] is not None else 2048.0
        rho = p["rho"] if p["rho"] is not None else 15.0
    else:
        from repro.workloads import (
            JPEG_MAX_AREA,
            JPEG_RHO,
            jpeg_loops,
            jpeg_trace,
        )

        loops, trace = jpeg_loops(), jpeg_trace()
        max_area = p["max_area"] if p["max_area"] is not None else JPEG_MAX_AREA
        rho = p["rho"] if p["rho"] is not None else JPEG_RHO
    return loops, trace, max_area, rho


def _resolve_reconfig(params: dict) -> tuple[str, dict]:
    p = _take(params, _RECONFIG_DEFAULTS, "reconfig")
    if p["loops"] is not None and p["benchmarks"]:
        raise ReproError("'reconfig' takes either 'loops' or 'benchmarks'")
    if p["benchmarks"]:
        # Keep resolve cheap: key on the programs' content fingerprints,
        # not on the derived loops (deriving them runs enumeration).
        p["benchmarks"] = list(_benchmarks(p["benchmarks"], "reconfig"))
        fp = _joint_fingerprint(_programs(tuple(p["benchmarks"])))
        key = cache.artifact_key(
            fp,
            svc="reconfig",
            max_versions=p["max_versions"],
            max_area=p["max_area"],
            rho=p["rho"],
            seed=p["seed"],
        )
        return key, p
    loops, trace, max_area, rho = _reconfig_inputs(p)
    key = cache.artifact_key(
        cache.hot_loops_digest(loops, trace),
        svc="reconfig",
        max_area=max_area,
        rho=rho,
        seed=p["seed"],
    )
    return key, p


def _compute_reconfig(params: dict) -> dict:
    from repro.reconfig import iterative_partition

    loops, trace, max_area, rho = _reconfig_inputs(params)
    sol = iterative_partition(
        loops,
        trace,
        max_area,
        rho,
        seed=params["seed"],
        engine=params["engine"],
    )
    return {
        "gain": sol.gain,
        "n_configurations": sol.n_configurations,
        "selection": list(sol.partition.selection),
        "max_area": max_area,
        "rho": rho,
    }


# ----------------------------------------------------------------------
# mtreconfig — multi-task spatial/temporal partitioning (Ch. 7)
# ----------------------------------------------------------------------
_MTRECONFIG_DEFAULTS: dict[str, Any] = {
    "benchmarks": [],
    "tasks": 12,
    "seed": 0,
    "utilization": 1.2,
    "engine": "dp",
    "fabric_area": None,
    "rho": None,
}


def _mtreconfig_inputs(p: dict):
    from repro.mtreconfig import synthetic_reconfig_tasks, tasks_from_benchmarks

    if p["benchmarks"]:
        tasks = tasks_from_benchmarks(
            _benchmarks(p["benchmarks"], "mtreconfig"),
            target_utilization=p["utilization"],
        )
    else:
        tasks = synthetic_reconfig_tasks(
            p["tasks"], seed=p["seed"], target_utilization=p["utilization"]
        )
    fabric_area = p["fabric_area"]
    if fabric_area is None:
        fabric_area = 2.0 * max(
            (v.area for t in tasks for v in t.versions), default=1.0
        )
    rho = p["rho"]
    if rho is None:
        rho = 0.01 * min((t.period for t in tasks), default=1.0)
    return tasks, fabric_area, rho


def _resolve_mtreconfig(params: dict) -> tuple[str, dict]:
    p = _take(params, _MTRECONFIG_DEFAULTS, "mtreconfig")
    if p["engine"] not in ("dp", "ilp", "static"):
        raise ReproError(f"unknown mtreconfig engine {p['engine']!r}")
    tasks, fabric_area, rho = _mtreconfig_inputs(p)
    key = cache.artifact_key(
        cache.reconfig_tasks_digest(tasks),
        svc="mtreconfig",
        engine=p["engine"],
        fabric_area=fabric_area,
        rho=rho,
    )
    return key, p


def _compute_mtreconfig(params: dict) -> dict:
    import time

    from repro.mtreconfig import dp_solution, ilp_solution, static_solution

    tasks, fabric_area, rho = _mtreconfig_inputs(params)
    if params["engine"] == "dp":
        report = dp_solution(tasks, fabric_area, rho)
        solution, elapsed = report.solution, report.elapsed
    elif params["engine"] == "ilp":
        report = ilp_solution(tasks, fabric_area, rho)
        solution, elapsed = report.solution, report.elapsed
    else:
        t0 = time.perf_counter()
        solution = static_solution(tasks, fabric_area, rho=rho)
        elapsed = time.perf_counter() - t0
    n_configs = len({
        g for g, j in zip(solution.group_of, solution.selection) if j != 0
    })
    return {
        "engine": params["engine"],
        "utilization": solution.utilization,
        "schedulable": solution.utilization <= 1.0 + 1e-9,
        "n_configurations": n_configs,
        "fabric_area": fabric_area,
        "rho": rho,
        "elapsed": elapsed,
    }


register_kind("identify", _resolve_identify, _compute_identify)
register_kind("curve", _resolve_curve, _compute_curve)
register_kind("pareto", _resolve_pareto, _compute_pareto)
register_kind("mlgp", _resolve_mlgp, _compute_mlgp)
register_kind("reconfig", _resolve_reconfig, _compute_reconfig)
register_kind("mtreconfig", _resolve_mtreconfig, _compute_mtreconfig)
