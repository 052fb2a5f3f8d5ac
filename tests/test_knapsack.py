"""Pinned tie-breaks of the multiple-choice knapsack callers.

Algorithm 1 (``select_edf``), Algorithm 7 (``spatial_select``), the
Chapter 7 static baseline (``static_solution``) and the recursion-(4.2)
inter-task curves all pick one option per group under a quantized area
budget.  The brute-force tests check only the optimum *value*; these
digests pin *which* of several tied options each caller returns.

Inputs are seeded ``random`` draws or literal tables that no builtin
``sum`` of floats goes into, and only integer outputs (assignments,
selections, ``choice`` tuples) are hashed, so the digests hold across
Python versions (``sum`` compensates float rounding from 3.12 on).
Some inputs draw from a few distinct values on purpose, so that tied
optima are common.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.edf_select import select_edf
from repro.mtreconfig.model import ReconfigTask, TaskVersion
from repro.mtreconfig.static import static_solution
from repro.mtreconfig.workload import synthetic_reconfig_tasks
from repro.pareto.inter import (
    TaskCurve,
    approx_utilization_curve,
    exact_utilization_curve,
)
from repro.reconfig.spatial import spatial_select
from repro.workloads import JPEG_MAX_AREA, jpeg_loops, synthetic_loops
from tests.test_core import _random_taskset

SEEDS = range(16)


def _edf() -> list:
    out = []
    for seed in SEEDS:
        ts, budget = _random_taskset(seed, n_tasks=4)
        for kwargs in ({"scale": 1}, {}, {"max_steps": 3}):
            out.append(select_edf(ts, budget, use_cache=False, **kwargs).assignment)
    return out


def _spatial() -> list:
    out = []
    for seed in SEEDS:
        loops = synthetic_loops(5 + seed % 8, seed=seed)
        for budget, max_steps in ((150.0, 20000), (60.0, 20000), (150.0, 40)):
            out.append(spatial_select(loops, budget, max_steps=max_steps)[0])
    for k in (0.5, 1, 2, 4):
        out.append(spatial_select(jpeg_loops(), k * JPEG_MAX_AREA)[0])
    for seed in SEEDS:  # few distinct gains: many tied optima
        loops = synthetic_loops(6, seed=seed, gain_range=(1, 3), area_range=(1, 6))
        out.append(spatial_select(loops, 9.0)[0])
    return out


def _static() -> list:
    out = []
    for seed in SEEDS:
        tasks = synthetic_reconfig_tasks(3 + seed % 5, seed=seed)
        for area, max_steps in ((2500.0, 20000), (800.0, 20000), (2500.0, 60)):
            out.append(static_solution(tasks, area, max_steps=max_steps).selection)
        # Few distinct areas and cycle counts: many tied optima.
        rng = random.Random(seed)
        tasks = [
            ReconfigTask(
                name=f"t{i}",
                period=float(rng.randint(5, 9)),
                versions=(
                    TaskVersion(area=0.0, cycles=12.0),
                    *(
                        TaskVersion(
                            area=float(rng.randint(1, 4)),
                            cycles=float(rng.randint(4, 8)),
                        )
                        for _ in range(4)
                    ),
                ),
            )
            for i in range(4)
        ]
        out.append(static_solution(tasks, 7.0).selection)
    return out


def _curves(seed: int) -> list[TaskCurve]:
    if seed % 2:  # few distinct workloads and areas: many tied optima
        rng = random.Random(seed)
        return [
            TaskCurve(
                period=float(rng.randint(4, 8)),
                workloads=tuple(float(rng.randint(1, 3)) for _ in range(4)),
                areas=(0, *(rng.randint(1, 4) for _ in range(3))),
            )
            for _ in range(3)
        ]
    return [
        TaskCurve(
            period=t.period,
            workloads=tuple(v.cycles for v in t.versions),
            areas=tuple(int(v.area) for v in t.versions),
        )
        for t in synthetic_reconfig_tasks(2 + seed % 3, seed=seed)
    ]


def _inter_exact() -> list:
    return [
        [p.choice for p in exact_utilization_curve(_curves(seed), engine="reference")]
        for seed in range(8)
    ]


def _inter_approx() -> list:
    return [
        [p.choice for p in approx_utilization_curve(_curves(seed), eps)]
        for seed in range(8)
        for eps in (0.1, 0.5)
    ]


CASES = {
    "select_edf": (
        _edf,
        "2e1c8b46808a6f197b7a0c747ba613a5e25344bc325f33a35e7c908b5619f2ce",
    ),
    "spatial_select": (
        _spatial,
        "1a792b0ed2cbc89a2d3ac2235a72387f77a4a5befab1972b96773b5931661de1",
    ),
    "static_solution": (
        _static,
        "9d5d21ea952aa20c54cce9d43ae3f8b8fc6e41902a5dff9be5d59ce4fde48939",
    ),
    "inter_exact_reference": (
        _inter_exact,
        "2524ad0fc4fe380e649d6d773db39ffaa9eded2b5e5f1d69c86681b2a62a8470",
    ),
    "inter_approx": (
        _inter_approx,
        "b3f0ca3991a507bc2a9c534b93c893c556a46398c69f71eba67a6b9b6d83772e",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tie_breaks_are_pinned(name):
    run, expected = CASES[name]
    assert hashlib.sha256(repr(run()).encode()).hexdigest() == expected
