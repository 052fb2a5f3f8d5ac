"""Tests for Chapter 7 multi-tasking runtime reconfiguration."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.mtreconfig import (
    ReconfigTask,
    TaskVersion,
    dp_solution,
    effective_utilization,
    ilp_solution,
    static_solution,
    synthetic_reconfig_tasks,
)


def _task(name, period, versions):
    return ReconfigTask(
        name=name,
        period=period,
        versions=tuple(TaskVersion(a, c) for a, c in versions),
    )


class TestModel:
    def test_version_zero_must_be_software(self):
        with pytest.raises(ReproError):
            _task("t", 10, [(5.0, 4.0)])

    def test_effective_utilization_single_config_no_tax(self):
        tasks = [
            _task("a", 10, [(0, 6), (4, 3)]),
            _task("b", 20, [(0, 8), (4, 4)]),
        ]
        u = effective_utilization(tasks, [1, 1], [0, 0], rho=100.0)
        assert u == pytest.approx(3 / 10 + 4 / 20)

    def test_effective_utilization_multi_config_tax(self):
        tasks = [
            _task("a", 10, [(0, 6), (4, 3)]),
            _task("b", 20, [(0, 8), (4, 4)]),
        ]
        u = effective_utilization(tasks, [1, 1], [0, 1], rho=1.0)
        assert u == pytest.approx((3 + 1) / 10 + (4 + 1) / 20)

    def test_software_tasks_pay_no_tax(self):
        tasks = [
            _task("a", 10, [(0, 6), (4, 3)]),
            _task("b", 20, [(0, 8), (4, 4)]),
            _task("c", 40, [(0, 8), (4, 4)]),
        ]
        u = effective_utilization(tasks, [0, 1, 1], [0, 1, 2], rho=1.0)
        assert u == pytest.approx(6 / 10 + 5 / 20 + 5 / 40)


def _brute_force(tasks, fabric_area, rho):
    """Exact optimum over version choices and all/one-config options."""
    best = float("inf")
    for choice in itertools.product(*[range(len(t.versions)) for t in tasks]):
        if any(
            tasks[i].versions[j].area > fabric_area for i, j in enumerate(choice)
        ):
            continue
        hw = [i for i, j in enumerate(choice) if j != 0]
        # Option A: single configuration (must fit together).
        if sum(tasks[i].versions[choice[i]].area for i in hw) <= fabric_area + 1e-9:
            u = effective_utilization(tasks, choice, [0] * len(tasks), rho)
            best = min(best, u)
        # Option B: every hardware task its own configuration.
        group = list(range(len(tasks)))
        u = effective_utilization(tasks, choice, group, rho)
        best = min(best, u)
    return best


class TestSolvers:
    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_dp_matches_bruteforce(self, seed):
        tasks = synthetic_reconfig_tasks(4, seed=seed, n_versions=(2, 4))
        fabric = 1500.0
        rho = 30000.0
        expected = _brute_force(tasks, fabric, rho)
        got = dp_solution(tasks, fabric, rho, scale=1).solution.utilization
        assert got == pytest.approx(expected, rel=1e-6)

    @given(st.integers(0, 120))
    @settings(max_examples=12, deadline=None)
    def test_ilp_matches_dp(self, seed):
        tasks = synthetic_reconfig_tasks(4, seed=seed, n_versions=(2, 4))
        fabric = 1500.0
        rho = 30000.0
        dp = dp_solution(tasks, fabric, rho, scale=1).solution.utilization
        ilp = ilp_solution(tasks, fabric, rho).solution.utilization
        assert ilp == pytest.approx(dp, rel=1e-6)

    def test_static_never_better_than_dp(self):
        for seed in range(5):
            tasks = synthetic_reconfig_tasks(5, seed=seed)
            st_u = static_solution(tasks, 1200.0).utilization
            dp_u = dp_solution(tasks, 1200.0, 25000.0).solution.utilization
            assert dp_u <= st_u + 1e-9

    def test_zero_area_forces_software(self):
        tasks = synthetic_reconfig_tasks(3, seed=1)
        sol = static_solution(tasks, 0.0)
        assert sol.selection == (0, 0, 0)
        assert sol.utilization == pytest.approx(
            sum(t.software_utilization for t in tasks)
        )

    def test_large_rho_prefers_static(self):
        tasks = synthetic_reconfig_tasks(4, seed=2)
        huge_rho = 1e12
        dp = dp_solution(tasks, 1000.0, huge_rho).solution
        # With a prohibitive tax the DP must coincide with static.
        st_sol = static_solution(tasks, 1000.0)
        assert dp.utilization == pytest.approx(st_sol.utilization)

    def test_zero_rho_gives_every_task_best_fitting_version(self):
        tasks = synthetic_reconfig_tasks(4, seed=3)
        dp = dp_solution(tasks, 2000.0, 0.0).solution
        for i, t in enumerate(tasks):
            best = min(
                (v.cycles for v in t.versions if v.area <= 2000.0),
            )
            assert t.versions[dp.selection[i]].cycles == pytest.approx(best)

    def test_solution_configurations_fit_fabric(self):
        tasks = synthetic_reconfig_tasks(6, seed=4)
        sol = dp_solution(tasks, 800.0, 20000.0).solution
        by_group: dict[int, float] = {}
        for i, j in enumerate(sol.selection):
            if j == 0:
                continue
            g = sol.group_of[i]
            by_group[g] = by_group.get(g, 0.0) + tasks[i].versions[j].area
        for area in by_group.values():
            assert area <= 800.0 + 1e-9

    def test_ilp_enforce_deadline_infeasible_raises(self):
        from repro.errors import SolverError

        # One task that can never meet its deadline.
        t = _task("t", 10, [(0, 100)])
        with pytest.raises(SolverError):
            ilp_solution([t], 100.0, 0.0, enforce_deadline=True)


class TestWorkload:
    def test_synthetic_tasks_monotone_versions(self):
        for t in synthetic_reconfig_tasks(5, seed=9):
            areas = [v.area for v in t.versions]
            assert areas == sorted(areas)
            assert t.versions[0].area == 0

    def test_target_utilization_hit(self):
        tasks = synthetic_reconfig_tasks(6, seed=10, target_utilization=1.3)
        u = sum(t.software_utilization for t in tasks)
        assert u == pytest.approx(1.3, rel=1e-6)

    def test_determinism(self):
        a = synthetic_reconfig_tasks(4, seed=11)
        b = synthetic_reconfig_tasks(4, seed=11)
        assert a == b
        assert (
            dp_solution(a, 2000.0, 5000.0).solution
            == dp_solution(b, 2000.0, 5000.0).solution
        )


class TestBenchmarkWorkload:
    def test_tasks_from_benchmarks_structure(self):
        from repro.mtreconfig import tasks_from_benchmarks

        tasks = tasks_from_benchmarks(("crc32", "lms"), target_utilization=1.1)
        assert [t.name for t in tasks] == ["crc32", "lms"]
        u = sum(t.software_utilization for t in tasks)
        assert u == pytest.approx(1.1, rel=1e-6)
        for t in tasks:
            assert t.versions[0].area == 0.0
            cycles = [v.cycles for v in t.versions]
            assert cycles == sorted(cycles, reverse=True)

    def test_version_cap(self):
        from repro.mtreconfig import tasks_from_benchmarks

        tasks = tasks_from_benchmarks(("crc32",), max_versions=4)
        assert all(len(t.versions) <= 4 for t in tasks)
