"""One engine vocabulary, chosen only where both implementations live.

A stage with two implementations takes ``engine="fast"|"reference"`` at
the function that holds both (the eight implementation points below) and
rejects any other name with :class:`ValueError`, the retired
pre-unification spellings included.

Nothing above those points forwards an engine: the flow functions take
no ``engine`` argument (:class:`TypeError`), the job service treats it as
an unknown parameter (:class:`~repro.errors.ReproError`) and the CLI has
no engine flag (exit status 2).  Every run above the implementation
points uses the fast paths.
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


def _inter(engine):
    from repro.pareto import exact_utilization_curve

    exact_utilization_curve(_curves(), engine=engine)


def _intra(engine):
    from repro.pareto import CIOption, exact_workload_curve

    exact_workload_curve(10.0, [CIOption(delta=2.0, area=1)], engine=engine)


def _knapsack(engine):
    from repro.selection.knapsack import select_knapsack

    select_knapsack([], 1.0, engine=engine)


def _rms(engine):
    from repro.core import select_rms

    select_rms(_task_set(), 10.0, engine=engine)


def _simulate(engine):
    from repro.rtsched import simulate

    simulate([4.0, 6.0], [1.0, 2.0], engine=engine)


def _simulate_taskset(engine):
    from repro.rtsched.simulator import simulate_taskset

    simulate_taskset(_task_set(), assignment=[0, 0, 0], engine=engine)


def _mlgp(engine, use_cache=True):
    from repro.mlgp import mlgp_partition

    dfg = _dfg()
    mlgp_partition(
        dfg, max(dfg.regions(), key=len), engine=engine, use_cache=use_cache
    )


#: The functions that hold both implementations (cached and uncached
#: paths of the two memoized ones are separate surfaces).
IMPLEMENTATIONS = {
    "enumeration": _enumerate,
    "library": _library,
    "library.uncached": lambda e: _library(e, use_cache=False),
    "pareto.inter": _inter,
    "pareto.intra": _intra,
    "rms": _rms,
    "simulator": _simulate,
    "simulator.taskset": _simulate_taskset,
    "mlgp": _mlgp,
    "mlgp.uncached": lambda e: _mlgp(e, use_cache=False),
}


def _frontend(engine):
    from repro.frontend import loops_from_programs

    loops_from_programs([_program()], engine=engine)


def _flow(engine):
    from repro.core import build_task

    build_task(_program(), engine=engine)


def _faults_sweep(engine):
    from repro.faults import sweep_faults

    sweep_faults(_task_set(), engine=engine)


def _faults_degraded(engine):
    from repro.faults import cross_validate_single_fault

    cross_validate_single_fault(_task_set(), [0, 0, 0], engine=engine)


def _mlgp_flow(engine):
    from repro.mlgp import iterative_customization

    iterative_customization([_program()], [1.0], engine=engine)


def _mlgp_profile(engine):
    from repro.mlgp import mlgp_program_profile

    mlgp_program_profile(_program(), engine=engine)


#: Functions that take no engine: the flow functions above the
#: implementation points, and the knapsack DP (one scalar implementation).
FORWARDERS = {
    "knapsack": _knapsack,
    "frontend": _frontend,
    "core.flow": _flow,
    "faults.sweep": _faults_sweep,
    "faults.degraded": _faults_degraded,
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


def _assert_rejected(surface, target, engine, capsys):
    """*engine* is refused at a surface above the implementation points."""
    if surface == "forward":
        with pytest.raises(TypeError, match="engine"):
            target(engine)
    elif surface == "service":
        from repro.jobs import resolve_job

        kind, params = target
        with pytest.raises(ReproError, match="unknown parameter.*engine"):
            resolve_job(kind, dict(params, engine=engine))
    else:
        from repro.cli import main

        # argparse reads an unknown top-level flag's value as the
        # subcommand ("invalid choice"); after one, it is "unrecognized".
        with pytest.raises(SystemExit) as exc:
            main(target(engine))
        assert exc.value.code == 2
        assert "repro: error:" in capsys.readouterr().err


def _surfaces():
    for name, call in IMPLEMENTATIONS.items():
        yield pytest.param("api", call, id=f"api:{name}")
    for name, call in FORWARDERS.items():
        yield pytest.param("forward", call, id=f"api:{name}")
    for kind, params in SERVICE_KINDS.items():
        yield pytest.param("service", (kind, params), id=f"service:{kind}")
    for flag, argv in CLI_FLAGS.items():
        yield pytest.param("cli", argv, id=f"cli:{flag}")


@pytest.mark.parametrize("surface,target", list(_surfaces()))
def test_retired_engine_names_rejected(surface, target, capsys):
    """Implementation points refuse retired names; every surface above
    them refuses any engine, the accepted names included."""
    accepted = ", ".join(ENGINES)
    if surface == "api":
        for engine in RETIRED:
            with pytest.raises(ValueError, match=accepted):
                target(engine)
        return
    for engine in RETIRED + ENGINES:
        _assert_rejected(surface, target, engine, capsys)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", list(IMPLEMENTATIONS))
def test_implementation_points_accept_both_engines(name, engine):
    IMPLEMENTATIONS[name](engine)


def test_reconfig_takes_no_engine(capsys):
    from repro.cli import main
    from repro.jobs import resolve_job

    with pytest.raises(ReproError, match="unknown parameter.*engine"):
        resolve_job("reconfig", {"engine": "fast"})
    with pytest.raises(SystemExit) as exc:
        main(["reconfig", "--engine", "fast"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_mtreconfig_picks_a_solver_not_an_engine(capsys):
    from repro.cli import main
    from repro.jobs import compute_job, resolve_job

    assert main(["mtreconfig", "--tasks", "4", "--solver", "static"]) in (0, 1)
    assert "solver          static" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["mtreconfig", "--engine", "dp"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err

    with pytest.raises(ReproError, match="unknown parameter.*engine"):
        resolve_job("mtreconfig", {"tasks": 4, "engine": "dp"})
    with pytest.raises(ReproError, match="unknown mtreconfig solver"):
        resolve_job("mtreconfig", {"tasks": 4, "solver": "fast"})
    dp_key, params = resolve_job("mtreconfig", {"tasks": 4})
    assert params["solver"] == "dp"
    static_key, params = resolve_job(
        "mtreconfig", {"tasks": 4, "solver": "static"}
    )
    assert static_key != dp_key
    assert compute_job("mtreconfig", params)["solver"] == "static"
