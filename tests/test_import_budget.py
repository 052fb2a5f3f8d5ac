"""Import budget: numpy, scipy and networkx stay off every entry point's import path.

``import repro`` is a lazy facade that imports a subpackage on first use
of one of its names.  numpy (~0.15 s with its dependencies) is imported
inside the functions that build arrays, and scipy (~0.6 s) inside the two
ILP solvers; networkx is not a runtime dependency at all (only the
graph-theory oracles in the test suite use it).  A module-level import
anywhere on the paths below brings the cost back into every CLI process,
``repro submit --health`` poll and benchmark set-up, so these tests import
the entry points in a fresh interpreter and check ``sys.modules``.  The
job server's pool workers are the exception: they import the compute
modules, numpy included, when they start, so no job pays a first import.
Nothing is timed, so the tests cannot flake on a slow host.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.server import pool_allowed

SRC = Path(__file__).resolve().parent.parent / "src"

#: What a cold one-shot pipeline run imports (the perfbench set-up).
PIPELINE = ("repro", "repro.core", "repro.mlgp", "repro.frontend")

ENTRY_POINTS = (
    *PIPELINE,
    "repro.cli",
    "repro.service.server",
    "repro.service.client",
)

DEFERRED = ("numpy", "scipy", "networkx")

#: The Chapter 4, 6 and 7 packages, which the pipeline set-up never needs.
CHAPTER_PACKAGES = ("repro.pareto", "repro.reconfig", "repro.mtreconfig")

#: Runs the same in a cold child and in this process: EDF, RMS and the
#: exact inter-task Pareto curve on the thesis Figure 3.2 task set.
_ANSWERS = """
def answers():
    from repro.core import select_edf, select_rms
    from repro.pareto import TaskCurve, exact_utilization_curve
    from repro.rtsched import PeriodicTask, TaskSet
    from repro.selection.config_curve import TaskConfiguration

    specs = [(6, [(0, 2), (7, 1)]), (8, [(0, 3), (6, 2)]), (12, [(0, 6), (4, 5)])]
    ts = TaskSet([
        PeriodicTask(
            name=f"T{i}", period=period, wcet=configs[0][1],
            configurations=tuple(TaskConfiguration(a, c) for a, c in configs),
        )
        for i, (period, configs) in enumerate(specs)
    ])
    edf = select_edf(ts, 10.0, use_cache=False)
    rms = select_rms(ts, 10.0, use_cache=False)
    curve = exact_utilization_curve([
        TaskCurve(period=period, workloads=tuple(c for _, c in configs),
                  areas=tuple(a for a, _ in configs))
        for period, configs in specs
    ])
    return {
        "edf": [edf.utilization, edf.assignment, edf.area],
        "rms": [rms.utilization, rms.assignment, rms.area, rms.nodes_visited],
        "pareto": [[p.value, p.cost, p.choice] for p in curve],
    }
"""

_CHILD = f"""
import importlib, json, sys

def loaded(names):
    return sorted(m for m in sys.modules if m.split(".")[0] in names)

for name in {PIPELINE!r}:
    importlib.import_module(name)
pipeline = {{
    "deferred": loaded({DEFERRED!r}),
    "chapters": sorted(m for m in {CHAPTER_PACKAGES!r} if m in sys.modules),
}}
for name in {ENTRY_POINTS!r}:
    importlib.import_module(name)
entry_points = loaded({DEFERRED!r})
{_ANSWERS}
result = answers()
numpy_after = "numpy" in sys.modules

from repro.enumeration.patterns import Candidate
from repro.selection import select_ilp

def cand(nodes, gain, area):
    return Candidate(
        block_index=0, nodes=frozenset(nodes), sw_cycles=gain + 1,
        hw_cycles=1, area=area, inputs=2, outputs=1,
    )

# Disjoint, but the budget fits only one: the gain-per-area ratio prefers
# the second, the optimum is the first.
pool = [cand((0, 1), 10, 6.0), cand((2, 3), 8, 3.0)]
selection = select_ilp(pool, 8.0)
print(json.dumps({{
    "pipeline": pipeline,
    "entry_points": entry_points,
    "answers": result,
    "numpy_after_answers": numpy_after,
    "selection": selection,
    "optimize_after_ilp": "scipy.optimize" in sys.modules,
}}))
"""


def _run(code: str, **env_overrides: str) -> dict:
    """Run *code* in a fresh interpreter; its last stdout line is JSON."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC)
    env.update(env_overrides)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_entry_points_do_not_import_scipy_or_networkx():
    report = _run(_CHILD)
    assert report["pipeline"] == {"deferred": [], "chapters": []}
    assert report["entry_points"] == []
    # The deferred imports work from a cold process, with the same answers.
    namespace: dict = {}
    exec(_ANSWERS, namespace)
    assert report["answers"] == json.loads(json.dumps(namespace["answers"]()))
    assert report["numpy_after_answers"] is True
    assert report["optimize_after_ilp"] is True
    assert report["selection"] == [0]


_FACADE_CHILD = """
import json, sys

import repro

cold = sorted(m for m in sys.modules if m.startswith("repro"))
unresolved = [n for n in repro.__all__ if getattr(repro, n, None) is None]
namespace = {}
exec("from repro import *", namespace)
print(json.dumps({
    "cold": cold,
    "unresolved": unresolved,
    "unbound": [n for n in repro.__all__ if n not in namespace],
    "undir": sorted(set(repro.__all__) - set(dir(repro))),
    "subpackages": [repro.core.__name__, repro.obs.__name__, repro.cache.__name__],
    "unknown": hasattr(repro, "no_such_name"),
    "version": repro.__version__,
}))
"""


def test_facade_is_lazy_and_complete():
    report = _run(_FACADE_CHILD)
    assert report["cold"] == ["repro"]
    assert report["unresolved"] == []
    assert report["unbound"] == []
    assert report["undir"] == []
    assert report["subpackages"] == ["repro.core", "repro.obs", "repro.cache"]
    assert report["unknown"] is False
    assert report["version"] == "1.0.0"


#: Modules a chapter command must not load: the job server, its client
#: and the event loop behind them.
SERVER_ONLY = ("repro.service.server", "repro.service.client", "asyncio")

_COMMAND_CHILD = """
import contextlib, io, json, runpy, sys

sys.argv = ["repro", *{argv!r}]
code = 0
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(json.dumps({{
    "code": code,
    "loaded": sorted(m for m in {modules!r} if m in sys.modules),
}}))
"""


def _run_command(argv: list[str], modules: tuple[str, ...]) -> dict:
    return _run(_COMMAND_CHILD.format(argv=argv, modules=modules))


def test_chapter_command_does_not_load_the_server():
    report = _run_command(["--no-cache", "curve", "crc32"], SERVER_ONLY)
    assert report == {"code": 0, "loaded": []}


def test_help_does_not_load_numpy():
    report = _run_command(["--help"], DEFERRED)
    assert report == {"code": 0, "loaded": []}


#: The chaos CI job runs the suite with process pools forbidden; the
#: warm-up runs only in a real pool worker.
needs_pool = pytest.mark.skipif(
    not pool_allowed() or multiprocessing.get_start_method() != "fork",
    reason="needs a real fork-based process pool",
)

#: Modules the first job in a pool worker must find already imported.
WARM = ("numpy", "repro.pareto.inter", "repro.mlgp.flow", "repro.core.flow")

_WORKER_CHILD = f"""
import json, sys

from repro import jobs
from repro.service.client import ServiceClient
from repro.service.server import ServerThread

def resolve(params):
    return "import-probe", {{}}

def compute(params):
    return {{"loaded": [m for m in {WARM!r} if m in sys.modules]}}

jobs.register_kind("import-probe", resolve, compute)
srv = ServerThread(use_processes=True, workers=1).start()
try:
    with ServiceClient(**srv.address) as client:
        job = client.submit("import-probe", {{}}, timeout=60)["job"]
finally:
    srv.stop()
print(json.dumps({{
    "state": job["state"],
    "worker": job["result"]["loaded"],
    "server_numpy": "numpy" in sys.modules,
}}))
"""


@needs_pool
def test_pool_worker_imports_compute_modules_before_its_first_job(tmp_path):
    report = _run(_WORKER_CHILD, REPRO_CACHE_DIR=str(tmp_path))
    assert report == {"state": "done", "worker": list(WARM), "server_numpy": False}
