"""Differential tests: every fast engine against its retained scalar oracle.

Each DSE stage with a fast path keeps the original implementation
behind ``engine="reference"``.  These tests drive both engines over
seeded random inputs and assert *bit-identical* results — equal floats,
equal assignments, equal node counts — not approximate agreement.
The selection cache is bypassed (``use_cache=False``) so the engines
cannot observe each other's results: the selection key leaves the engine
out (engines never change an answer), so a cached fast result would
otherwise answer the oracle's call.
"""

from __future__ import annotations

import random

import pytest

from repro.core.rms_select import select_rms
from repro.pareto.inter import TaskCurve, exact_utilization_curve
from repro.pareto.intra import CIOption, exact_workload_curve
from repro.testing import random_task_set

SEEDS = range(12)


def _random_curves(rng: random.Random) -> list[TaskCurve]:
    curves = []
    for _ in range(rng.randint(2, 5)):
        n_opts = rng.randint(2, 6)
        period = float(rng.randint(50, 400))
        workloads = sorted(
            (float(rng.randint(5, 200)) for _ in range(n_opts)), reverse=True
        )
        areas = [0] + sorted(rng.randint(1, 25) for _ in range(n_opts - 1))
        curves.append(
            TaskCurve(period=period, workloads=tuple(workloads), areas=tuple(areas))
        )
    return curves


@pytest.mark.parametrize("seed", SEEDS)
def test_inter_exact_merge_matches_reference(seed):
    curves = _random_curves(random.Random(seed))
    merge = exact_utilization_curve(curves, engine="fast")
    ref = exact_utilization_curve(curves, engine="reference")
    # The (utilization, area) frontier must be bit-identical.
    assert [(p.value, p.cost) for p in merge] == [(p.value, p.cost) for p in ref]
    # Ties can be realized by different choices; each reported choice must
    # reproduce its point exactly (utilization accumulated in task order,
    # matching both engines' float addition order).
    for p in merge:
        u, c = 0.0, 0
        for t, k in zip(curves, p.choice):
            u += t.workloads[k] / t.period
            c += t.areas[k]
        assert u == p.value
        assert float(c) == p.cost


@pytest.mark.parametrize("seed", SEEDS)
def test_intra_vector_matches_reference(seed):
    rng = random.Random(1000 + seed)
    base = float(rng.randint(100, 1000))
    options = [
        CIOption(delta=float(rng.randint(0, 60)), area=rng.randint(0, 20))
        for _ in range(rng.randint(1, 10))
    ]
    fast = exact_workload_curve(base, options, engine="fast")
    ref = exact_workload_curve(base, options, engine="reference")
    assert [(p.value, p.cost) for p in fast] == [(p.value, p.cost) for p in ref]


@pytest.mark.parametrize("seed", SEEDS)
def test_rms_select_fast_matches_reference(seed):
    # utilization near 1 gives a mix of schedulable and infeasible sets.
    ts = random_task_set(seed, n_tasks=4, max_configs=4, utilization=1.15)
    budget = 0.6 * ts.max_area if ts.max_area > 0 else 1.0
    fast = select_rms(ts, budget, engine="fast", use_cache=False)
    ref = select_rms(ts, budget, engine="reference", use_cache=False)
    assert fast.assignment == ref.assignment
    assert fast.utilization == ref.utilization
    assert fast.area == ref.area
    # Identical search tree, not just identical answers.
    assert fast.nodes_visited == ref.nodes_visited
