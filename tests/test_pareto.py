"""Tests for exact / ε-approximate Pareto curve computation (Chapter 4)."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.pareto import (
    CIOption,
    ParetoPoint,
    TaskCurve,
    approx_utilization_curve,
    approx_workload_curve,
    dominates,
    exact_utilization_curve,
    exact_workload_curve,
    gap_solve,
    is_eps_cover,
    pareto_filter,
)


class TestFront:
    def test_dominates(self):
        a = ParetoPoint(1.0, 1.0)
        b = ParetoPoint(2.0, 2.0)
        assert dominates(a, b)
        assert not dominates(b, a)
        assert not dominates(a, a)

    def test_filter_removes_dominated(self):
        pts = [ParetoPoint(3, 0), ParetoPoint(2, 1), ParetoPoint(2.5, 2)]
        front = pareto_filter(pts)
        assert [(p.value, p.cost) for p in front] == [(3, 0), (2, 1)]

    def test_filter_sorted_by_cost(self):
        pts = [ParetoPoint(1, 5), ParetoPoint(3, 0), ParetoPoint(2, 2)]
        front = pareto_filter(pts)
        costs = [p.cost for p in front]
        assert costs == sorted(costs)

    def test_eps_cover(self):
        exact = [ParetoPoint(10, 10), ParetoPoint(5, 20)]
        approx = [ParetoPoint(11, 10), ParetoPoint(5.5, 21)]
        assert is_eps_cover(approx, exact, 0.2)
        assert not is_eps_cover(approx, exact, 0.01)


def _random_options(seed: int, n: int = 8):
    rng = random.Random(seed)
    return [
        CIOption(delta=rng.randint(1, 30), area=rng.randint(1, 12))
        for _ in range(n)
    ]


def _brute_intra(base: float, options):
    pts = []
    for r in range(len(options) + 1):
        for combo in itertools.combinations(range(len(options)), r):
            w = base - sum(options[i].delta for i in combo)
            c = sum(options[i].area for i in combo)
            pts.append(ParetoPoint(value=w, cost=float(c)))
    return pareto_filter(pts)


class TestIntraExact:
    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_matches_bruteforce(self, seed):
        options = _random_options(seed, n=7)
        base = 500.0
        exact = exact_workload_curve(base, options)
        brute = _brute_intra(base, options)
        assert [(p.value, p.cost) for p in exact] == [
            (p.value, p.cost) for p in brute
        ]

    def test_starts_at_software_point(self):
        exact = exact_workload_curve(100.0, _random_options(1))
        assert exact[0].cost == 0.0
        assert exact[0].value == 100.0

    def test_no_options(self):
        curve = exact_workload_curve(42.0, [])
        assert len(curve) == 1 and curve[0].value == 42.0

    def test_strictly_improving(self):
        curve = exact_workload_curve(500.0, _random_options(9))
        for a, b in zip(curve, curve[1:]):
            assert b.cost > a.cost and b.value < a.value


class TestGap:
    def test_must_answer_when_strictly_better_solution_exists(self):
        # A solution with cost 2 <= 13/1.5 and workload 40 <= 70/1.5 exists,
        # so the GAP contract forbids a 'no' answer.
        options = [CIOption(delta=60, area=2), CIOption(delta=20, area=8)]
        sol = gap_solve(100.0, options, cost_bound=13, workload_bound=70.0, eps=0.5)
        assert sol is not None
        assert sol.value <= 70.0 + 1e-9
        assert sol.cost <= 13.0 + 1e-9

    def test_declares_gap_when_infeasible(self):
        options = [CIOption(delta=10, area=5)]
        # Asking for workload <= 80 requires the option; with cost bound
        # scaled below its cost there is no solution.
        sol = gap_solve(100.0, options, cost_bound=1, workload_bound=85.0, eps=0.1)
        assert sol is None

    @given(st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_gap_guarantee(self, seed):
        """If GAP says 'no', then no solution beats both bounds by (1+eps)."""
        options = _random_options(seed, n=6)
        base = 300.0
        eps = 0.5
        rng = random.Random(seed + 1)
        c_bound = rng.randint(1, 40)
        w_bound = base - rng.randint(1, 60)
        sol = gap_solve(base, options, c_bound, w_bound, eps)
        if sol is None:
            # Brute-force: no subset with cost <= c/(1+eps) and workload
            # <= w/(1+eps) may exist.
            for r in range(len(options) + 1):
                for combo in itertools.combinations(range(len(options)), r):
                    cost = sum(options[i].area for i in combo)
                    workload = base - sum(options[i].delta for i in combo)
                    assert not (
                        cost <= c_bound / (1 + eps) + 1e-9
                        and workload <= w_bound / (1 + eps) + 1e-9
                    )


class TestIntraApprox:
    @given(st.integers(0, 150), st.sampled_from([0.21, 0.44, 0.69, 3.0]))
    @settings(max_examples=30, deadline=None)
    def test_is_eps_cover_of_exact(self, seed, eps):
        options = _random_options(seed, n=8)
        base = 500.0
        exact = exact_workload_curve(base, options)
        approx = approx_workload_curve(base, options, eps)
        assert is_eps_cover(approx, exact, eps)

    def test_fewer_points_with_larger_eps(self):
        options = _random_options(3, n=12)
        small = approx_workload_curve(800.0, options, 0.21)
        large = approx_workload_curve(800.0, options, 3.0)
        assert len(large) <= len(small)

    def test_invalid_eps(self):
        with pytest.raises(ReproError):
            approx_workload_curve(10.0, [], 0.0)


def _random_task_curves(seed: int, n_tasks: int = 3):
    rng = random.Random(seed)
    curves = []
    for _ in range(n_tasks):
        base = rng.randint(50, 200)
        n_pts = rng.randint(1, 4)
        workloads = [float(base)]
        areas = [0]
        w, a = float(base), 0
        for _ in range(n_pts):
            w = max(1.0, w - rng.randint(5, 40))
            a += rng.randint(1, 15)
            workloads.append(w)
            areas.append(a)
        curves.append(
            TaskCurve(
                period=float(base * rng.uniform(1.5, 3.0)),
                workloads=tuple(workloads),
                areas=tuple(areas),
            )
        )
    return curves


def _brute_inter(curves):
    pts = []
    for choice in itertools.product(*[range(len(c.areas)) for c in curves]):
        u = sum(c.workloads[k] / c.period for c, k in zip(curves, choice))
        cost = sum(c.areas[k] for c, k in zip(curves, choice))
        pts.append(ParetoPoint(value=u, cost=float(cost), choice=choice))
    return pareto_filter(pts)


class TestInter:
    @given(st.integers(0, 150))
    @settings(max_examples=30, deadline=None)
    def test_exact_matches_bruteforce(self, seed):
        curves = _random_task_curves(seed)
        exact = exact_utilization_curve(curves)
        brute = _brute_inter(curves)
        assert [(round(p.value, 9), p.cost) for p in exact] == [
            (round(p.value, 9), p.cost) for p in brute
        ]

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_exact_choices_consistent(self, seed):
        curves = _random_task_curves(seed)
        for p in exact_utilization_curve(curves):
            u = sum(
                c.workloads[k] / c.period for c, k in zip(curves, p.choice)
            )
            cost = sum(c.areas[k] for c, k in zip(curves, p.choice))
            assert u == pytest.approx(p.value)
            # Reported cost may include slack from the DP cost axis but the
            # realized cost never exceeds it.
            assert cost <= p.cost + 1e-9

    @given(st.integers(0, 100), st.sampled_from([0.44, 0.69, 3.0]))
    @settings(max_examples=20, deadline=None)
    def test_approx_is_eps_cover(self, seed, eps):
        curves = _random_task_curves(seed)
        exact = exact_utilization_curve(curves)
        approx = approx_utilization_curve(curves, eps)
        assert is_eps_cover(approx, exact, eps)

    @given(st.integers(0, 200), st.sampled_from([0.1, 0.69, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_every_point_recomputes_from_its_choice(self, seed, eps):
        """Value and cost of every point of both curves are those of its
        ``choice``, also when a task's cheapest option has area."""
        rng = random.Random(seed)
        curves = [
            TaskCurve(
                period=c.period,
                workloads=c.workloads,
                areas=tuple(a + floor for a in c.areas),
            )
            for c, floor in zip(
                _random_task_curves(seed),
                (rng.choice((0, rng.randint(1, 20))) for _ in range(3)),
            )
        ]
        for p in [
            *exact_utilization_curve(curves),
            *approx_utilization_curve(curves, eps),
        ]:
            u = 0.0
            for c, k in zip(curves, p.choice):
                u += c.utilizations[k]
            cost = sum(c.areas[k] for c, k in zip(curves, p.choice))
            assert (p.value, p.cost) == (u, float(cost))

    def test_validation(self):
        with pytest.raises(ReproError):
            exact_utilization_curve([])
        with pytest.raises(ReproError):
            TaskCurve(period=0.0, workloads=(1.0,), areas=(0,))
        with pytest.raises(ReproError):
            TaskCurve(period=1.0, workloads=(), areas=())
