"""Job kinds: one request layer for the chapter commands and the service.

One kind per pipeline flow — ``identify``, ``curve``, ``pareto``,
``mlgp``, ``reconfig``, ``mtreconfig`` — and each built-in kind owns,
here and nowhere else:

* its **defaults table** (:attr:`JobKind.defaults`): every parameter
  name with its default;
* **normalize** — defaults plus validation, cheap.  Unknown parameter
  names and malformed values raise :class:`~repro.errors.ReproError`;
* **key** — the content-addressed dedup key: a content digest of the
  inputs (program fingerprints from :mod:`repro.cache`, or the hot-loop
  and reconfigurable-task digests below) joined through
  ``cache.artifact_key``, so requests that compute the same answer share
  a key;
* **compute** ``(params)`` — the run, returning a JSON-serializable
  result that carries everything ``repro <kind>`` prints.

``repro curve|pareto|mlgp|reconfig|mtreconfig`` call :func:`normalize_job`
and :func:`compute_job` in-process and only format the result; the server
(:mod:`repro.service.server`) calls :func:`resolve_job` (normalize, then
key), then queues, coalesces, caches and journals.  Nothing here imports
:mod:`repro.service`.

:func:`register_kind` adds custom kinds (tests inject controllable jobs
this way).  Registration is process-local, so custom kinds belong on
inline servers.  Benchmark names resolve through
:func:`repro.workloads.get_program`: path-like names and
``$REPRO_WORKLOAD_DIR`` entries re-resolve identically in pool workers;
in-memory ``register_program`` bindings only on inline servers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro import cache
from repro import io as repro_io
from repro.errors import ReproError
from repro.workloads import JPEG_MAX_AREA, JPEG_RHO, jpeg_loops, jpeg_trace
from repro.workloads import get_program, programs_for

__all__ = [
    "JOB_KINDS",
    "JobKind",
    "compute_job",
    "import_compute_modules",
    "normalize_job",
    "register_kind",
    "resolve_job",
]

#: Result layout of the kinds whose results gained the fields the CLI
#: prints.  It is part of their keys, so at-rest entries stored under an
#: older layout miss instead of serving a result without those fields.
_LAYOUT = 2


@dataclasses.dataclass(frozen=True)
class JobKind:
    """A request type: key derivation plus the picklable computation.

    ``defaults`` and ``normalize`` are set for the built-in kinds, whose
    ``resolve`` is ``normalize`` followed by their key derivation.
    """

    name: str
    resolve: Callable[[dict], tuple[str, dict]]
    compute: Callable[[dict], dict]
    defaults: Mapping[str, Any] | None = None
    normalize: Callable[[dict], dict] | None = None


JOB_KINDS: dict[str, JobKind] = {}


def register_kind(
    name: str,
    resolve: Callable[[dict], tuple[str, dict]],
    compute: Callable[[dict], dict],
) -> None:
    """Register (or replace) a job kind under *name*."""
    JOB_KINDS[name] = JobKind(name=name, resolve=resolve, compute=compute)


def _kind(kind: str) -> JobKind:
    jk = JOB_KINDS.get(kind)
    if jk is None:
        raise ReproError(
            f"unknown job kind {kind!r}; known: {', '.join(sorted(JOB_KINDS))}"
        )
    return jk


def resolve_job(kind: str, params: dict | None) -> tuple[str, dict]:
    """Validate a request and derive its dedup key (cheap; may raise)."""
    return _kind(kind).resolve(dict(params or {}))


def normalize_job(kind: str, params: dict | None) -> dict:
    """Defaults plus validation of a built-in kind, without a key."""
    return _kind(kind).normalize(dict(params or {}))


def compute_job(kind: str, params: dict) -> dict:
    """Run one job's computation (module-level, so it pickles)."""
    return _kind(kind).compute(params)


#: What the built-in kinds' computations import, numpy included.  scipy
#: (only the ILP solvers) and the front-end (only ``reconfig`` on
#: benchmarks, whose identification dwarfs the import) stay first-use
#: imports.
_COMPUTE_MODULES = (
    "numpy",
    "repro.core",
    "repro.enumeration",
    "repro.mlgp.flow",
    "repro.mtreconfig",
    "repro.pareto",
    "repro.reconfig",
)


def import_compute_modules() -> None:
    """Import every built-in kind's compute modules.

    The job server's pool workers run this at start, so no job pays a
    first import while the server process itself stays light.
    """
    for name in _COMPUTE_MODULES:
        importlib.import_module(name)


def _builtin(
    name: str,
    defaults: dict[str, Any],
    check: Callable[[dict], None],
    key: Callable[[dict], str],
    compute: Callable[..., dict],
) -> None:
    def normalize(params: dict) -> dict:
        unknown = set(params) - set(defaults)
        if unknown:
            raise ReproError(
                f"unknown parameter(s) for {name!r}: "
                f"{', '.join(sorted(unknown))}"
            )
        p = {**defaults, **params}
        check(p)
        return p

    def resolve(params: dict) -> tuple[str, dict]:
        p = normalize(params)
        return key(p), p

    JOB_KINDS[name] = JobKind(name, resolve, compute, defaults, normalize)


# ----------------------------------------------------------------------
# Param helpers
# ----------------------------------------------------------------------
def _need_benchmark(p: dict, kind: str) -> None:
    if not isinstance(p["benchmark"], str):
        raise ReproError(f"{kind!r} needs a benchmark name")


def _need_benchmarks(p: dict, kind: str) -> None:
    names = p["benchmarks"]
    if isinstance(names, str):
        names = [names]
    if not isinstance(names, (list, tuple)) or not names or not all(
        isinstance(b, str) for b in names
    ):
        raise ReproError(f"{kind!r} needs a non-empty benchmark name list")
    p["benchmarks"] = list(names)


def _joint_fingerprint(names) -> str:
    return "+".join(cache.program_fingerprint(p) for p in programs_for(names))


def _hot_loops_digest(loops: Sequence[Any], trace: Sequence[int]) -> str:
    """SHA-256 hex digest of hot loops + their trace: every loop's (area,
    gain) version curve in loop order plus the trace; names excluded."""
    payload = repr(
        (
            tuple(
                tuple((v.area, v.gain) for v in lp.versions) for lp in loops
            ),
            tuple(trace),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _reconfig_tasks_digest(tasks: Sequence[Any]) -> str:
    """SHA-256 hex digest of reconfigurable tasks: periods and every
    version's (area, cycles) pair in task order; names excluded."""
    payload = repr(
        tuple(
            (t.period, tuple((v.area, v.cycles) for v in t.versions))
            for t in tasks
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _placement(names, selection, config_of) -> list[dict]:
    """Per task or loop: its version and configuration (None: software)."""
    return [
        {"name": n, "version": j, "config": config_of[i] if j != 0 else None}
        for i, (n, j) in enumerate(zip(names, selection))
    ]


# ----------------------------------------------------------------------
# identify — candidate library for one benchmark program
# ----------------------------------------------------------------------
def _key_identify(p: dict) -> str:
    return cache.artifact_key(
        cache.program_fingerprint(get_program(p["benchmark"])),
        svc="identify",
        max_inputs=p["max_inputs"],
        max_outputs=p["max_outputs"],
    )


def _compute_identify(params: dict) -> dict:
    from repro.enumeration import build_candidate_library

    stats: dict = {}
    lib = build_candidate_library(
        get_program(params["benchmark"]),
        max_inputs=params["max_inputs"],
        max_outputs=params["max_outputs"],
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


_builtin(
    "identify",
    {"benchmark": None, "max_inputs": 4, "max_outputs": 2},
    lambda p: _need_benchmark(p, "identify"),
    _key_identify,
    _compute_identify,
)


# ----------------------------------------------------------------------
# curve — one task's (area, cycles) configuration curve
# ----------------------------------------------------------------------
def _check_curve(p: dict) -> None:
    _need_benchmark(p, "curve")
    if p["objective"] not in ("avg", "wcet"):
        raise ReproError(
            f"unknown curve objective {p['objective']!r} (avg or wcet)"
        )


def _key_curve(p: dict) -> str:
    return cache.artifact_key(
        cache.program_fingerprint(get_program(p["benchmark"])),
        svc="curve",
        layout=_LAYOUT,
        objective=p["objective"],
    )


def _compute_curve(params: dict) -> dict:
    from repro.core import build_task

    task = build_task(
        get_program(params["benchmark"]), objective=params["objective"]
    )
    return {
        "benchmark": params["benchmark"],
        "name": task.name,
        "period": task.period,
        "wcet": task.wcet,
        "configurations": [
            [c.area, c.cycles] for c in task.configurations
        ],
    }


_builtin(
    "curve",
    {"benchmark": None, "objective": "avg"},
    _check_curve,
    _key_curve,
    _compute_curve,
)


# ----------------------------------------------------------------------
# pareto — utilization-area Pareto front over a task set (Ch. 4)
# ----------------------------------------------------------------------
def _key_pareto(p: dict) -> str:
    return cache.artifact_key(
        _joint_fingerprint(p["benchmarks"]),
        svc="pareto",
        eps=p["eps"],
        utilization=p["utilization"],
    )


def _compute_pareto(params: dict) -> dict:
    from repro.core.flow import build_tasks
    from repro.pareto import TaskCurve, approx_utilization_curve

    tasks = build_tasks(programs_for(params["benchmarks"]))
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


_builtin(
    "pareto",
    {"benchmarks": None, "eps": 0.69, "utilization": 1.0},
    lambda p: _need_benchmarks(p, "pareto"),
    _key_pareto,
    _compute_pareto,
)


# ----------------------------------------------------------------------
# mlgp — iterative on-demand CI generation (Ch. 5)
# ----------------------------------------------------------------------
def _key_mlgp(p: dict) -> str:
    return cache.artifact_key(
        _joint_fingerprint(p["benchmarks"]),
        svc="mlgp",
        layout=_LAYOUT,
        utilization=p["utilization"],
        target=p["target"],
        seed=p["seed"],
    )


def _compute_mlgp(params: dict) -> dict:
    from repro.mlgp.flow import iterative_customization

    programs = programs_for(params["benchmarks"])
    alpha = len(programs) / params["utilization"]
    periods = [alpha * p.wcet() for p in programs]
    result = iterative_customization(
        programs, periods, u_target=params["target"], seed=params["seed"]
    )
    return {
        "benchmarks": params["benchmarks"],
        "utilization": result.utilization,
        "target": result.target,
        "met_target": result.met_target,
        "n_custom_instructions": len(result.custom_instructions),
        "total_area": result.total_area,
        "iterations": len(result.records),
        "records": [dataclasses.asdict(r) for r in result.records],
    }


_builtin(
    "mlgp",
    {"benchmarks": None, "utilization": 1.05, "target": 1.0, "seed": 0},
    lambda p: _need_benchmarks(p, "mlgp"),
    _key_mlgp,
    _compute_mlgp,
)


# ----------------------------------------------------------------------
# reconfig — hot-loop partitioning (Ch. 6; default: JPEG case study)
# ----------------------------------------------------------------------
def _check_reconfig(p: dict) -> None:
    if p["loops"] is not None and p["benchmarks"]:
        raise ReproError("'reconfig' takes either 'loops' or 'benchmarks'")
    if p["benchmarks"]:
        _need_benchmarks(p, "reconfig")


def _reconfig_area_rho(p: dict) -> tuple[float, float]:
    """(MaxA, ρ) as given; else the JPEG case study's, or 2048 and 15 for
    hot loops from a file or from benchmarks."""
    jpeg = p["loops"] is None and not p["benchmarks"]
    max_area, rho = (JPEG_MAX_AREA, JPEG_RHO) if jpeg else (2048.0, 15.0)
    return (
        max_area if p["max_area"] is None else p["max_area"],
        rho if p["rho"] is None else p["rho"],
    )


def _reconfig_inputs(p: dict):
    """(loops, trace, max_area, rho): the JPEG case study by default, or
    hot loops given as a ``repro.io`` dict or derived from benchmarks."""
    if p["benchmarks"]:
        # Derive hot loops from the benchmarks' configuration curves
        # (works for ingested real-code workloads too).
        from repro import frontend

        loops, trace = frontend.loops_from_programs(
            programs_for(p["benchmarks"]), max_versions=p["max_versions"]
        )
    elif p["loops"] is not None:
        loops, trace = repro_io.hot_loops_from_dict(p["loops"])
        if not trace:
            raise ReproError("'reconfig' loops carry no loop trace")
    else:
        loops, trace = jpeg_loops(), jpeg_trace()
    return (loops, trace, *_reconfig_area_rho(p))


def _key_reconfig(p: dict) -> str:
    if p["benchmarks"]:
        # Keep resolve cheap: deriving the loops runs enumeration, so key
        # on the programs' content fingerprints instead.
        digest = _joint_fingerprint(p["benchmarks"])
        extra = {"max_versions": p["max_versions"]}
    else:
        digest = _hot_loops_digest(*_reconfig_inputs(p)[:2])
        extra = {}
    max_area, rho = _reconfig_area_rho(p)
    return cache.artifact_key(
        digest,
        svc="reconfig",
        layout=_LAYOUT,
        max_area=max_area,
        rho=rho,
        seed=p["seed"],
        **extra,
    )


def _compute_reconfig(params: dict) -> dict:
    from repro.reconfig import greedy_partition, iterative_partition

    loops, trace, max_area, rho = _reconfig_inputs(params)
    it = iterative_partition(loops, trace, max_area, rho, seed=params["seed"])
    greedy = greedy_partition(loops, trace, max_area, rho)
    return {
        "gain": it.gain,
        "n_configurations": it.n_configurations,
        "greedy_gain": greedy.gain,
        "greedy_n_configurations": greedy.n_configurations,
        "selection": list(it.partition.selection),
        "loops": _placement(
            [lp.name for lp in loops],
            it.partition.selection,
            it.partition.config_of,
        ),
        "max_area": max_area,
        "rho": rho,
    }


_builtin(
    "reconfig",
    {
        "loops": None,  # hot-loops dict (repro.io schema); None = JPEG
        "benchmarks": None,  # alternatively: derive loops from benchmarks
        "max_versions": 4,  # versions kept per derived loop
        "max_area": None,
        "rho": None,
        "seed": 0,
    },
    _check_reconfig,
    _key_reconfig,
    _compute_reconfig,
)


# ----------------------------------------------------------------------
# mtreconfig — multi-task spatial/temporal partitioning (Ch. 7)
# ----------------------------------------------------------------------
def _check_mtreconfig(p: dict) -> None:
    if p["solver"] not in ("dp", "ilp", "static"):
        raise ReproError(f"unknown mtreconfig solver {p['solver']!r}")
    if p["benchmarks"]:
        _need_benchmarks(p, "mtreconfig")


def _mtreconfig_inputs(p: dict):
    """(tasks, fabric_area, rho): the benchmarks' tasks or a seeded
    synthetic set; the fabric holds twice the largest version and ρ is
    1% of the shortest period unless given."""
    from repro.mtreconfig import synthetic_reconfig_tasks, tasks_from_benchmarks

    if p["benchmarks"]:
        tasks = tasks_from_benchmarks(
            tuple(p["benchmarks"]), target_utilization=p["utilization"]
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


def _key_mtreconfig(p: dict) -> str:
    if p["benchmarks"]:
        # Keep resolve cheap: building the tasks runs identification, so
        # key on the programs' content fingerprints and the given knobs
        # (an omitted area or rho is derived from the tasks: None here).
        digest = _joint_fingerprint(p["benchmarks"])
        fabric_area, rho = p["fabric_area"], p["rho"]
        extra = {"utilization": p["utilization"]}
    else:
        tasks, fabric_area, rho = _mtreconfig_inputs(p)
        digest = _reconfig_tasks_digest(tasks)
        extra = {}
    return cache.artifact_key(
        digest,
        svc="mtreconfig",
        layout=_LAYOUT,
        solver=p["solver"],
        fabric_area=fabric_area,
        rho=rho,
        **extra,
    )


def _compute_mtreconfig(params: dict) -> dict:
    import time

    from repro.mtreconfig import dp_solution, ilp_solution, static_solution

    tasks, fabric_area, rho = _mtreconfig_inputs(params)
    if params["solver"] == "static":
        # Load numpy before the clock starts, as dp_solution does.
        import numpy  # noqa: F401

        t0 = time.perf_counter()
        solution = static_solution(tasks, fabric_area, rho=rho)
        elapsed = time.perf_counter() - t0
    else:
        solve = dp_solution if params["solver"] == "dp" else ilp_solution
        report = solve(tasks, fabric_area, rho)
        solution, elapsed = report.solution, report.elapsed
    n_configs = len({
        g for g, j in zip(solution.group_of, solution.selection) if j != 0
    })
    return {
        "solver": params["solver"],
        "utilization": solution.utilization,
        "schedulable": solution.utilization <= 1.0 + 1e-9,
        "n_configurations": n_configs,
        "fabric_area": fabric_area,
        "rho": rho,
        "elapsed": elapsed,
        "tasks": _placement(
            [t.name for t in tasks], solution.selection, solution.group_of
        ),
    }


_builtin(
    "mtreconfig",
    {
        "benchmarks": [],
        "tasks": 12,
        "seed": 0,
        "utilization": 1.2,
        "solver": "dp",
        "fabric_area": None,
        "rho": None,
    },
    _check_mtreconfig,
    _key_mtreconfig,
    _compute_mtreconfig,
)
