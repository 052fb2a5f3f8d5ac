"""Import budget: scipy and networkx stay off every entry point's import path.

scipy (~0.6 s) is used only by the two ILP solvers, which import it inside
the solver functions; networkx is not a runtime dependency at all (only the
graph-theory oracles in the test suite use it).  A module-level import
anywhere on the path below brings the cost back into every CLI process,
service process and benchmark set-up, so this test
imports the entry points in a fresh interpreter and checks ``sys.modules``.
Nothing is timed, so the test cannot flake on a slow host.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_POINTS = (
    "repro",
    "repro.core",
    "repro.mlgp",
    "repro.frontend",
    "repro.cli",
    "repro.service.server",
    "repro.service.client",
)

DEFERRED = ("scipy", "networkx")

_CHILD = f"""
import importlib, json, sys

for name in {ENTRY_POINTS!r}:
    importlib.import_module(name)
loaded = sorted(
    m for m in sys.modules if m.split(".")[0] in {DEFERRED!r}
)

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
    "loaded_by_imports": loaded,
    "selection": selection,
    "optimize_after_ilp": "scipy.optimize" in sys.modules,
}}))
"""


def _run_child() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_entry_points_do_not_import_scipy_or_networkx():
    report = _run_child()
    assert report["loaded_by_imports"] == []
    # The deferred import path still works from a cold process.
    assert report["optimize_after_ilp"] is True
    assert report["selection"] == [0]
