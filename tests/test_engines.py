"""One engine vocabulary: every stage accepts ``fast`` | ``reference``.

Retired engine names — the pre-unification per-stage spellings of the
fast path and the deleted array/compiled/auto tiers — must be rejected
at every surface: :class:`ValueError` from the library entry points,
:class:`~repro.errors.ReproError` from the job service, and exit status
2 from the CLI's argument parser.

The Chapter 6 k-way partitioner has a single implementation, so the
``reconfig`` surfaces take no engine at all.
"""

from __future__ import annotations

import pytest

from repro.engines import ENGINES
from repro.errors import ReproError

RETIRED = ("bitset", "vector", "merge", "event", "array", "compiled", "auto")


def _dfg():
    from repro.testing import random_dfg

    return random_dfg(1)


def _program():
    from repro.workloads import get_program

    return get_program("crc32")


def _task_set():
    from repro.testing import random_task_set

    return random_task_set(3, n_tasks=3, max_configs=3)


def _curves():
    from repro.pareto import TaskCurve

    return [TaskCurve(period=10.0, workloads=(5.0, 3.0), areas=(0, 4))]


def _enumerate(engine):
    from repro.enumeration import enumerate_connected

    enumerate_connected(_dfg(), 4, 2, engine=engine)


def _library(engine, use_cache=True):
    from repro.enumeration import build_candidate_library

    build_candidate_library(_program(), engine=engine, use_cache=use_cache)


def _frontend(engine):
    from repro.frontend import loops_from_programs

    loops_from_programs([_program()], engine=engine)


def _flow(engine):
    from repro.core import build_task

    build_task(_program(), engine=engine)


def _inter(engine):
    from repro.pareto import exact_utilization_curve

    exact_utilization_curve(_curves(), engine=engine)


def _intra(engine):
    from repro.pareto import CIOption, exact_workload_curve

    exact_workload_curve(10.0, [CIOption(delta=2.0, area=1)], engine=engine)


def _knapsack(engine):
    from repro.selection.knapsack import select_knapsack

    select_knapsack([], 1.0, engine=engine)


def _simulate(engine):
    from repro.rtsched import simulate

    simulate([4.0, 6.0], [1.0, 2.0], engine=engine)


def _faults_sweep(engine):
    from repro.faults import sweep_faults

    sweep_faults(_task_set(), engine=engine)


def _faults_degraded(engine):
    from repro.faults import cross_validate_single_fault

    cross_validate_single_fault(_task_set(), [0, 0, 0], engine=engine)


def _rms(engine):
    from repro.core import select_rms

    select_rms(_task_set(), 10.0, engine=engine)


def _mlgp(engine, use_cache=True):
    from repro.mlgp import mlgp_partition

    dfg = _dfg()
    mlgp_partition(
        dfg, max(dfg.regions(), key=len), engine=engine, use_cache=use_cache
    )


def _mlgp_flow(engine):
    from repro.mlgp import iterative_customization

    iterative_customization([_program()], [1.0], engine=engine)


def _mlgp_profile(engine):
    from repro.mlgp import mlgp_program_profile

    mlgp_program_profile(_program(), engine=engine)


ENTRY_POINTS = {
    "enumeration": _enumerate,
    "library": _library,
    "library.uncached": lambda e: _library(e, use_cache=False),
    "frontend": _frontend,
    "core.flow": _flow,
    "pareto.inter": _inter,
    "pareto.intra": _intra,
    "knapsack": _knapsack,
    "simulator": _simulate,
    "faults.sweep": _faults_sweep,
    "faults.degraded": _faults_degraded,
    "rms": _rms,
    "mlgp": _mlgp,
    "mlgp.uncached": lambda e: _mlgp(e, use_cache=False),
    "mlgp.flow": _mlgp_flow,
    "mlgp.profile": _mlgp_profile,
}

SERVICE_KINDS = {
    "identify": {"benchmark": "crc32"},
    "curve": {"benchmark": "crc32"},
    "pareto": {"benchmarks": ["crc32"]},
    "mlgp": {"benchmarks": ["crc32"]},
}

CLI_FLAGS = {
    "--engine": lambda e: ["--engine", e, "curve", "crc32"],
    "mlgp --engine": lambda e: ["mlgp", "crc32", "--engine", e],
    "faults --sim-engine": lambda e: ["faults", "crc32", "--sim-engine", e],
}


def _surfaces():
    for name, call in ENTRY_POINTS.items():
        yield pytest.param("api", call, id=f"api:{name}")
    for kind, params in SERVICE_KINDS.items():
        yield pytest.param("service", (kind, params), id=f"service:{kind}")
    for flag, argv in CLI_FLAGS.items():
        yield pytest.param("cli", argv, id=f"cli:{flag}")


@pytest.mark.parametrize("surface,target", list(_surfaces()))
def test_retired_engine_names_rejected(surface, target, capsys):
    accepted = ", ".join(ENGINES)
    for engine in RETIRED:
        if surface == "api":
            with pytest.raises(ValueError, match=accepted):
                target(engine)
        elif surface == "service":
            from repro.service.jobs import resolve_job

            kind, params = target
            with pytest.raises(ReproError, match=accepted):
                resolve_job(kind, dict(params, engine=engine))
        else:
            from repro.cli import main

            with pytest.raises(SystemExit) as exc:
                main(target(engine))
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


def test_reconfig_takes_no_engine(capsys):
    from repro.cli import main
    from repro.service.jobs import resolve_job

    with pytest.raises(ReproError, match="unknown parameter.*engine"):
        resolve_job("reconfig", {"engine": "fast"})
    with pytest.raises(SystemExit) as exc:
        main(["reconfig", "--engine", "fast"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
