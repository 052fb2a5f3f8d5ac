"""Differential tests: every fast engine against its retained scalar oracle.

PR convention: each vectorized/restructured hot path keeps the original
implementation behind ``engine="reference"``.  These tests drive both
engines over seeded random inputs and assert *bit-identical* results —
equal floats, equal assignments, equal node counts — not approximate
agreement.  Caching is bypassed (``use_cache=False``) so the engines
cannot observe each other's results: the EDF/RMS selection keys leave
the engine out (engines never change an answer), so a cached fast
result would otherwise answer the oracle's call.
"""

from __future__ import annotations

import random

import pytest

from repro.core.edf_select import select_edf
from repro.core.rms_select import select_rms
from repro.enumeration.patterns import Candidate
from repro.pareto.inter import TaskCurve, exact_utilization_curve
from repro.pareto.intra import CIOption, exact_workload_curve
from repro.rtsched.dbf import edf_constrained_schedulable
from repro.rtsched.response_time import response_time, rta_schedulable
from repro.selection.knapsack import select_knapsack
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
    merge = exact_utilization_curve(curves, engine="merge", use_cache=False)
    ref = exact_utilization_curve(curves, engine="reference", use_cache=False)
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
    fast = exact_workload_curve(base, options, engine="vector")
    ref = exact_workload_curve(base, options, engine="reference")
    assert [(p.value, p.cost) for p in fast] == [(p.value, p.cost) for p in ref]


@pytest.mark.parametrize("seed", SEEDS)
def test_edf_select_vector_matches_reference(seed):
    ts = random_task_set(seed, n_tasks=5, max_configs=6)
    budget = 0.5 * ts.max_area if ts.max_area > 0 else 1.0
    fast = select_edf(ts, budget, engine="vector", use_cache=False)
    ref = select_edf(ts, budget, engine="reference", use_cache=False)
    assert fast.assignment == ref.assignment
    assert fast.utilization == ref.utilization
    assert fast.area == ref.area


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


@pytest.mark.parametrize("seed", SEEDS)
def test_knapsack_vector_matches_reference(seed):
    rng = random.Random(2000 + seed)
    candidates = []
    for i in range(rng.randint(1, 12)):
        sw = rng.randint(1, 20)
        candidates.append(
            Candidate(
                block_index=i,
                nodes=frozenset({i}),
                sw_cycles=sw,
                hw_cycles=rng.randint(0, sw),
                area=float(rng.randint(0, 8)) + rng.choice((0.0, 0.5)),
                inputs=2,
                outputs=1,
                frequency=float(rng.randint(1, 50)),
            )
        )
    budget = rng.uniform(0.0, sum(c.area for c in candidates) + 1.0)
    fast = select_knapsack(candidates, budget, engine="vector")
    ref = select_knapsack(candidates, budget, engine="reference")
    assert fast == ref


@pytest.mark.parametrize("seed", SEEDS)
def test_dbf_vector_matches_reference(seed):
    rng = random.Random(3000 + seed)
    n = rng.randint(1, 5)
    periods = [float(rng.choice((4, 5, 6, 8, 10, 12, 16, 20))) for _ in range(n)]
    costs = [float(rng.randint(1, int(p))) for p in periods]
    deadlines = [float(rng.randint(max(1, int(c)), int(p))) for p, c in zip(periods, costs)]
    fast = edf_constrained_schedulable(periods, costs, deadlines, engine="vector")
    ref = edf_constrained_schedulable(periods, costs, deadlines, engine="reference")
    assert fast == ref


@pytest.mark.parametrize("seed", SEEDS)
def test_rta_vector_matches_reference(seed):
    rng = random.Random(4000 + seed)
    n = rng.randint(1, 6)
    periods = sorted(float(rng.randint(5, 50)) for _ in range(n))
    costs = [float(rng.randint(1, int(p))) for p in periods]
    for i in range(n):
        fast = response_time(periods, costs, i, engine="vector")
        ref = response_time(periods, costs, i, engine="reference")
        assert fast == ref  # None or bit-equal float
    assert rta_schedulable(periods, costs, engine="vector") == rta_schedulable(
        periods, costs, engine="reference"
    )
