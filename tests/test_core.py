"""Tests for the Chapter 3 selection algorithms (EDF DP, RMS B&B)."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import select_edf, select_rms
from repro.errors import ScheduleError
from repro.rtsched import PeriodicTask, TaskSet, rms_schedulable, simulate_taskset
from repro.selection.config_curve import TaskConfiguration
from repro.testing import random_task_set


def _task(name, period, configs):
    """configs: list of (area, cycles); first must be (0, wcet)."""
    return PeriodicTask(
        name=name,
        period=period,
        wcet=configs[0][1],
        configurations=tuple(TaskConfiguration(a, c) for a, c in configs),
    )


def motivating_example() -> TaskSet:
    """Thesis Figure 3.2: three tasks, area budget 10, optimal U = 1.0."""
    return TaskSet(
        [
            _task("T1", 6, [(0, 2), (7, 1)]),
            _task("T2", 8, [(0, 3), (6, 2)]),
            _task("T3", 12, [(0, 6), (4, 5)]),
        ]
    )


def _random_taskset(seed: int, n_tasks: int = 3, n_cfg: int = 4):
    rng = random.Random(seed)
    tasks = []
    for i in range(n_tasks):
        wcet = rng.randint(4, 20)
        period = wcet * rng.uniform(1.2, 4.0)
        configs = [(0.0, float(wcet))]
        area, cycles = 0.0, float(wcet)
        for _ in range(rng.randint(0, n_cfg - 1)):
            area += rng.randint(1, 8)
            cycles = max(1.0, cycles - rng.randint(1, 4))
            configs.append((area, cycles))
        tasks.append(_task(f"t{i}", period, configs))
    budget = float(rng.randint(0, 30))
    return TaskSet(tasks), budget


def _brute_force_edf(ts: TaskSet, budget: float):
    best = float("inf")
    for assign in itertools.product(*[range(t.n_configurations) for t in ts]):
        if ts.area_for(assign) <= budget + 1e-9:
            best = min(best, ts.utilization_for(assign))
    return best


class TestEdfSelect:
    def test_motivating_example_schedulable(self):
        ts = motivating_example()
        sel = select_edf(ts, 10.0)
        assert sel.utilization == pytest.approx(1.0)
        assert sel.assignment == (0, 1, 1)
        assert sel.schedulable

    def test_motivating_example_tight_budget_fails(self):
        ts = motivating_example()
        # Budget 3 fits nothing: utilization stays 29/24.
        sel = select_edf(ts, 3.0)
        assert sel.assignment == (0, 0, 0)
        assert not sel.schedulable

    @given(st.integers(0, 300))
    @settings(max_examples=50, deadline=None)
    def test_matches_bruteforce(self, seed):
        ts, budget = _random_taskset(seed)
        expected = _brute_force_edf(ts, budget)
        sel = select_edf(ts, budget, scale=1)  # integer areas: exact
        assert sel.utilization == pytest.approx(expected)

    def test_budget_respected(self):
        ts, budget = _random_taskset(5, n_tasks=5)
        sel = select_edf(ts, budget, scale=1)
        assert sel.area <= budget + 1e-9

    def test_negative_budget_rejected(self):
        with pytest.raises(ScheduleError):
            select_edf(motivating_example(), -1.0)

    def test_zero_budget_gives_software(self):
        ts = motivating_example()
        sel = select_edf(ts, 0.0)
        assert sel.assignment == (0, 0, 0)

    def test_monotone_in_budget(self):
        ts = motivating_example()
        utils = [select_edf(ts, b).utilization for b in (0, 4, 6, 10, 17)]
        assert utils == sorted(utils, reverse=True)

    def test_edf_solution_validated_by_simulation(self):
        ts = motivating_example()
        sel = select_edf(ts, 10.0)
        sim = simulate_taskset(ts, sel.assignment, policy="edf")
        assert sim.schedulable


def _brute_force_rms(ts: TaskSet, budget: float):
    best_u, best_assign = float("inf"), None
    for assign in itertools.product(*[range(t.n_configurations) for t in ts]):
        if ts.area_for(assign) > budget + 1e-9:
            continue
        if not rms_schedulable(ts, assign):
            continue
        u = ts.utilization_for(assign)
        if u < best_u - 1e-12:
            best_u, best_assign = u, assign
    return best_u, best_assign


class TestRmsSelect:
    def test_motivating_example(self):
        ts = motivating_example()
        sel = select_rms(ts, 10.0)
        # The same configuration is also RMS-schedulable here (harmonic-ish
        # periods 6, 8, 12 with U = 1 fails RMS; check via brute force).
        expected_u, expected_assign = _brute_force_rms(ts, 10.0)
        assert sel.utilization == pytest.approx(expected_u) or (
            sel.assignment is None and expected_assign is None
        )

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce(self, seed):
        ts, budget = _random_taskset(seed)
        expected_u, expected_assign = _brute_force_rms(ts, budget)
        sel = select_rms(ts, budget)
        if expected_assign is None:
            assert sel.assignment is None
        else:
            assert sel.assignment is not None
            assert sel.utilization == pytest.approx(expected_u)

    @given(
        st.integers(0, 10_000),
        st.integers(5, 6),
        st.floats(0.9, 1.25),
        st.floats(0.05, 0.4),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_bruteforce_at_tight_budgets(self, seed, n_tasks, u0, frac):
        """Budgets of at most 40% of the maximum area make the area-aware
        lower bound cut most subtrees; the optimum must not move."""
        ts = random_task_set(seed, n_tasks=n_tasks, max_configs=6, utilization=u0)
        budget = frac * ts.max_area
        expected_u, expected_assign = _brute_force_rms(ts, budget)
        fast = select_rms(ts, budget, use_cache=False)
        ref = select_rms(ts, budget, engine="reference", use_cache=False)
        assert fast == ref
        if expected_assign is None:
            assert fast.assignment is None
        else:
            assert fast.assignment is not None
            assert fast.area <= budget + 1e-9
            assert fast.utilization == pytest.approx(expected_u)

    def test_area_bound_prunes_and_counts(self):
        ts = random_task_set(3, n_tasks=6, max_configs=6, utilization=1.1)
        budget = 0.3 * ts.max_area
        before = obs.metrics_snapshot()["counters"].get(
            "selection.rms.area_pruned", 0
        )
        sel = select_rms(ts, budget, use_cache=False)
        after = obs.metrics_snapshot()["counters"]["selection.rms.area_pruned"]
        assert after > before
        assert sel.utilization == pytest.approx(_brute_force_rms(ts, budget)[0])

    def test_solution_is_rms_schedulable(self):
        ts, budget = _random_taskset(11, n_tasks=4)
        sel = select_rms(ts, budget)
        if sel.assignment is not None:
            assert rms_schedulable(ts, sel.assignment)
            sim = simulate_taskset(ts, sel.assignment, policy="rm")
            assert sim.schedulable

    def test_unschedulable_reports_none(self):
        ts = TaskSet([_task("t", 4, [(0, 5)])])  # U > 1 with no options
        sel = select_rms(ts, 100.0)
        assert sel.assignment is None
        assert not sel.schedulable

    def test_area_budget_respected(self):
        ts, budget = _random_taskset(23, n_tasks=4)
        sel = select_rms(ts, budget)
        if sel.assignment is not None:
            assert sel.area <= budget + 1e-9


class TestEdfVsRms:
    @given(st.integers(0, 150))
    @settings(max_examples=30, deadline=None)
    def test_edf_never_worse_when_rms_schedulable(self, seed):
        """EDF dominates RMS: any RMS-schedulable assignment satisfies the
        EDF bound, so the EDF optimum cannot exceed the RMS optimum."""
        ts, budget = _random_taskset(seed)
        rms = select_rms(ts, budget)
        if rms.assignment is None:
            return
        edf = select_edf(ts, budget, scale=1)
        assert edf.utilization <= rms.utilization + 1e-9
