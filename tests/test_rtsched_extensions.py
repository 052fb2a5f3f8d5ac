"""Tests for RTA and constrained-deadline EDF analysis."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.rtsched import (
    edf_constrained_schedulable,
    response_time,
    rms_schedulable_costs,
    rta_schedulable,
    simulate,
)
from repro.rtsched.dbf import demand_bound, deadline_points


class TestResponseTime:
    def test_single_task(self):
        assert response_time([10], [3], 0) == pytest.approx(3)

    def test_classic_two_tasks(self):
        # T1 (P=4, C=1), T2 (P=6, C=2): R2 = 2 + 1*ceil(R2/4).
        r = response_time([4, 6], [1, 2], 1)
        assert r == pytest.approx(3)

    def test_interference_accumulates(self):
        r = response_time([2, 10], [1, 3], 1)
        # R = 3 + ceil(R/2): fixed point at R = 6 -> 3+3=6.
        assert r == pytest.approx(6)

    def test_converges_above_deadline(self):
        # Converges at R = 16 > P = 10: reported, schedulability says no.
        r = response_time([2, 10], [1.5, 4], 1)
        assert r == pytest.approx(16)
        assert not rta_schedulable([2, 10], [1.5, 4])

    def test_divergence_returns_none(self):
        # Higher-priority utilization 1.0: the recurrence never settles.
        assert response_time([2, 10], [2, 1], 1) is None

    def test_bad_index(self):
        with pytest.raises(ScheduleError):
            response_time([2], [1], 3)

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_rta_agrees_with_schedulability_point_test(self, seed):
        """RTA and the Theorem-1 exact test are both exact for D = P."""
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        periods = [float(rng.choice([2, 3, 4, 5, 6, 8, 10, 12])) for _ in range(n)]
        costs = [max(1.0, round(p * rng.uniform(0.1, 0.6))) for p in periods]
        assert rta_schedulable(periods, costs) == rms_schedulable_costs(
            periods, costs
        )

    def test_deadline_monotonic_priorities(self):
        # A tight deadline promotes T2 above T1; both still fit.
        assert rta_schedulable([4.0, 6.0], [1.0, 2.0], deadlines=[4.0, 2.5])

    def test_constrained_deadlines_harder(self):
        periods = [4.0, 6.0]
        costs = [1.5, 2.5]
        assert rta_schedulable(periods, costs)
        # Equal 3.0 deadlines: T2's response time 5.5 misses its deadline.
        assert not rta_schedulable(periods, costs, deadlines=[3.0, 3.0])

    def test_deadline_beyond_period_rejected(self):
        with pytest.raises(ScheduleError):
            rta_schedulable([4.0], [1.0], deadlines=[5.0])


class TestDemandBound:
    def test_dbf_zero_before_first_deadline(self):
        assert demand_bound([10], [3], [5], 4.9) == 0.0

    def test_dbf_steps_at_deadlines(self):
        assert demand_bound([10], [3], [5], 5.0) == 3.0
        assert demand_bound([10], [3], [5], 15.0) == 6.0

    def test_deadline_points_sorted_unique(self):
        pts = deadline_points([4, 6], [3, 6], 24.0)
        assert pts == sorted(set(pts))
        assert pts[0] == 3.0

    def test_implicit_deadline_reduces_to_utilization(self):
        assert edf_constrained_schedulable([4, 6], [2, 3])
        assert not edf_constrained_schedulable([4, 6], [2.5, 3.1])

    def test_constrained_case(self):
        # U < 1 but a tight deadline makes it infeasible.
        assert edf_constrained_schedulable([10, 10], [3, 3], [10, 10])
        assert not edf_constrained_schedulable([10, 10], [3, 3], [10, 2.9])
        assert edf_constrained_schedulable([10, 10], [3, 3], [10, 3.0])
        assert edf_constrained_schedulable([10, 10], [3, 3], [10, 6.5])

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_dbf_matches_edf_simulation(self, seed):
        """Exact DBF verdict matches a hyperperiod EDF simulation for
        implicit deadlines (simulator covers D = P only)."""
        rng = random.Random(seed)
        n = rng.randint(2, 3)
        periods = [float(rng.choice([2, 3, 4, 6, 8, 12])) for _ in range(n)]
        costs = [max(1.0, round(p * rng.uniform(0.2, 0.5))) for p in periods]
        analytic = edf_constrained_schedulable(periods, costs)
        sim = simulate(periods, costs, policy="edf")
        assert analytic == sim.schedulable

    def test_max_points_guard_fires_before_points_are_built(self, monkeypatch):
        """U = 0.9 with a 5e7 deadline slack: the horizon is 1.5e8, so the
        period-1 task alone would need 1.5e8 (> 10^7) deadline points.  The
        guard must raise from the per-task counts, never materializing a
        point list."""
        from repro.rtsched import dbf

        def no_points(*args, **kwargs):
            raise AssertionError("deadline points built before the guard")

        monkeypatch.setattr(dbf, "deadline_points", no_points)
        with pytest.raises(ScheduleError, match=r"needs 150000002 points"):
            dbf.edf_constrained_schedulable(
                [1.0, 1e8], [0.5, 4e7], [1.0, 5e7], max_points=10**7
            )

    def test_validation(self):
        with pytest.raises(ScheduleError):
            edf_constrained_schedulable([4], [1], [5])  # D > P
        with pytest.raises(ScheduleError):
            edf_constrained_schedulable([4], [1, 2])


class TestRtaVsSimulation:
    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_analytic_response_time_bounds_observed(self, seed):
        """The RTA fixed point upper-bounds every simulated response time,
        and is *attained* (critical instant at the synchronous release)."""
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        periods = sorted(
            float(rng.choice([2, 3, 4, 5, 6, 8, 10, 12])) for _ in range(n)
        )
        costs = [max(1.0, round(p * rng.uniform(0.1, 0.4))) for p in periods]
        sim = simulate(periods, costs, policy="rm")
        if not sim.schedulable:
            return
        for i in range(n):
            r = response_time(periods, costs, i)
            assert r is not None
            observed = sim.max_response[i]
            assert observed <= r + 1e-6
            # Synchronous release is the critical instant for RM.
            assert observed == pytest.approx(r)

    def test_max_response_recorded(self):
        sim = simulate([4, 6], [1, 2], policy="rm")
        assert sim.max_response[0] == pytest.approx(1.0)
        assert sim.max_response[1] == pytest.approx(3.0)
