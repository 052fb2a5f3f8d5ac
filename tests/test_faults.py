"""Tests for the fault-injection and degraded-mode analysis subsystem.

The two load-bearing properties (ISSUE acceptance criteria):

* on >= 25 seeded task sets the degraded-mode analytic verdict
  (single-CFU-failure, fallback-to-base) agrees with the fault-injecting
  simulator for both EDF and RMS, on both simulator engines (the
  reference engine run directly, below the fault-analysis API);
* simulation with an empty :class:`FaultModel` is bit-identical to the
  plain engines.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow import customize
from repro.errors import FaultError, ScheduleError
from repro.faults import (
    CONTAINMENT_POLICIES,
    FaultModel,
    cross_validate_single_fault,
    degraded_costs,
    degraded_schedulable,
    default_scenarios,
    format_fault_report,
    single_fault_report,
    sweep_faults,
)
from repro.rtsched.simulator import _CONTAINMENTS, simulate, simulate_taskset
from repro.rtsched.task import PeriodicTask, TaskSet
from repro.selection.config_curve import TaskConfiguration

PERIODS = (8.0, 10.0, 12.0, 16.0, 20.0, 24.0, 40.0)


def seeded_task_set(seed: int) -> tuple[TaskSet, list[int]]:
    """A random task set with (software, custom) curves and an assignment.

    Costs and periods stay integral so one-hyperperiod simulation is exact
    and analytic/simulated verdicts must agree bit for bit.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    tasks = []
    for i in range(n):
        period = rng.choice(PERIODS)
        base = float(rng.randint(2, max(2, int(period) - 1)))
        custom = float(rng.randint(1, int(base)))
        tasks.append(
            PeriodicTask(
                name=f"t{i}",
                period=period,
                wcet=base,
                configurations=(
                    TaskConfiguration(area=0.0, cycles=base),
                    TaskConfiguration(area=float(rng.randint(1, 8)), cycles=custom),
                ),
            )
        )
    return TaskSet(tasks, name=f"seed{seed}"), [1] * n


class TestDegradedDifferential:
    """Analytic degraded verdict vs. fault-injecting simulator."""

    @pytest.mark.parametrize("seed", range(30))
    def test_single_fault_analysis_matches_simulation(self, seed):
        """The analytic verdict agrees with both simulator engines: the
        fast one through :func:`cross_validate_single_fault`, the
        reference one run directly under the same fault and containment."""
        task_set, assignment = seeded_task_set(seed)
        for policy in ("edf", "rms"):
            for fault in range(len(task_set)):
                verdict, fast, agree = cross_validate_single_fault(
                    task_set, assignment, policy, fault
                )
                assert agree == (fast.schedulable == verdict.schedulable)
                ref_verdict = degraded_schedulable(
                    task_set, assignment, policy, fault
                )
                ref = simulate_taskset(
                    task_set,
                    assignment,
                    policy="rm" if policy == "rms" else policy,
                    engine="reference",
                    faults=FaultModel(cfu_failed=frozenset({fault})),
                    containment="fallback-to-base",
                )
                for engine, v, sim in (
                    ("fast", verdict, fast),
                    ("reference", ref_verdict, ref),
                ):
                    assert v.schedulable == sim.schedulable, (
                        f"seed={seed} policy={policy} fault={fault} "
                        f"engine={engine}: analytic={v.schedulable} "
                        f"sim={sim.schedulable}"
                    )

    @pytest.mark.parametrize("seed", range(30))
    def test_engines_agree_under_injection(self, seed):
        """The two engines stay field-identical with faults injected."""
        task_set, assignment = seeded_task_set(seed)
        model = FaultModel(
            seed=seed, overrun_prob=0.5, overrun_frac=0.5, jitter_frac=0.25
        )
        for policy in ("edf", "rm"):
            for containment in CONTAINMENT_POLICIES:
                a = simulate_taskset(
                    task_set, assignment, policy=policy, engine="fast",
                    faults=model, containment=containment,
                )
                b = simulate_taskset(
                    task_set, assignment, policy=policy, engine="reference",
                    faults=model, containment=containment,
                )
                assert a.missed == b.missed
                assert a.aborted == b.aborted
                assert a.fault_stats == b.fault_stats
                assert a.busy_time == b.busy_time

    def test_nominal_verdict_matches_plain_simulation(self):
        task_set, assignment = seeded_task_set(3)
        verdict = degraded_schedulable(task_set, assignment, "edf", None)
        sim = simulate_taskset(task_set, assignment, policy="edf")
        assert verdict.schedulable == sim.schedulable

    def test_degraded_costs_pins_fault_task_to_base(self):
        task_set, assignment = seeded_task_set(5)
        costs = degraded_costs(task_set, assignment, 0)
        assert costs[0] == task_set[0].configurations[0].cycles
        for i in range(1, len(task_set)):
            assert costs[i] == task_set[i].configurations[1].cycles

    def test_report_classifies_fragile_tasks(self):
        # Custom costs fit exactly; any fallback to base overloads.
        tasks = [
            PeriodicTask(
                name=f"t{i}", period=10.0, wcet=8.0,
                configurations=(
                    TaskConfiguration(0.0, 8.0),
                    TaskConfiguration(4.0, 3.0),
                ),
            )
            for i in range(3)
        ]
        ts = TaskSet(tasks)
        report = single_fault_report(ts, [1, 1, 1], "edf")
        assert report.nominal.schedulable
        assert not report.robust
        assert report.fragile_tasks == (0, 1, 2)

    def test_all_software_assignment_is_trivially_robust(self):
        task_set, _ = seeded_task_set(7)
        if not degraded_schedulable(task_set, [0] * len(task_set), "edf").schedulable:
            pytest.skip("software-only unschedulable for this seed")
        report = single_fault_report(task_set, [0] * len(task_set), "edf")
        assert report.robust  # failing a CFU nobody uses changes nothing


class TestEmptyModelBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=1_000),
    )
    def test_empty_model_bit_identical(self, seed, model_seed):
        task_set, assignment = seeded_task_set(seed % 50)
        empty = FaultModel(seed=model_seed)
        assert empty.empty
        for policy in ("edf", "rm"):
            for engine in ("fast", "reference"):
                plain = simulate_taskset(
                    task_set, assignment, policy=policy, engine=engine
                )
                injected = simulate_taskset(
                    task_set, assignment, policy=policy, engine=engine,
                    faults=empty,
                )
                # Dataclass equality compares every field, floats included;
                # fault_stats must be None on both sides (no injection ran).
                assert plain == injected
                assert injected.fault_stats is None

    def test_zero_magnitude_faults_are_empty(self):
        assert FaultModel(overrun_prob=1.0, overrun_frac=0.0).empty
        assert FaultModel(overrun_prob=0.0, overrun_frac=2.0).empty
        assert FaultModel(jitter_frac=0.0).empty
        assert not FaultModel(cfu_failed=frozenset({0})).empty
        assert not FaultModel(overrun_prob=0.1, overrun_frac=0.1).empty


class TestFaultModel:
    def test_draws_are_deterministic(self):
        m = FaultModel(seed=11, overrun_prob=0.5, overrun_frac=0.3)
        a = [m.job_fault(0, k, 4.0, 9.0) for k in range(50)]
        b = [m.job_fault(0, k, 4.0, 9.0) for k in range(50)]
        assert a == b

    def test_different_seeds_differ(self):
        kw = dict(overrun_prob=0.5, overrun_frac=0.3)
        a = [FaultModel(seed=1, **kw).job_fault(0, k, 4.0, 9.0) for k in range(64)]
        b = [FaultModel(seed=2, **kw).job_fault(0, k, 4.0, 9.0) for k in range(64)]
        assert a != b

    def test_cfu_failure_uses_base_budget(self):
        m = FaultModel(cfu_failed={1})
        jf = m.job_fault(1, 0, 4.0, 9.0)
        assert jf.cfu_failed and jf.budget == 9.0 and jf.demand == 9.0
        jf = m.job_fault(0, 0, 4.0, 9.0)
        assert not jf.faulted and jf.demand == 4.0

    def test_overrun_tasks_restriction(self):
        m = FaultModel(overrun_prob=1.0, overrun_frac=0.5, overrun_tasks={2})
        assert not m.job_fault(0, 0, 4.0, 9.0).overrun
        jf = m.job_fault(2, 0, 4.0, 9.0)
        assert jf.overrun and jf.demand == pytest.approx(6.0)

    def test_validation(self):
        with pytest.raises(FaultError):
            FaultModel(overrun_prob=1.5)
        with pytest.raises(FaultError):
            FaultModel(jitter_prob=-0.1)
        with pytest.raises(FaultError):
            FaultModel(overrun_frac=-1.0)
        with pytest.raises(FaultError):
            FaultModel(cfu_failed={-1})

    def test_with_cfu_failed_preserves_other_knobs(self):
        m = FaultModel(seed=9, overrun_prob=0.2, overrun_frac=0.4)
        m2 = m.with_cfu_failed({0, 2})
        assert m2.cfu_failed == frozenset({0, 2})
        assert m2.seed == 9 and m2.overrun_prob == 0.2

    def test_policies_in_sync_with_simulator(self):
        assert CONTAINMENT_POLICIES == _CONTAINMENTS


class TestContainmentPolicies:
    def _set(self):
        # One task, generous period: overruns only hurt the task itself.
        return [10.0, 20.0], [3.0, 4.0], [8.0, 9.0]

    def test_run_to_completion_lets_overruns_miss(self):
        periods, costs, base = self._set()
        m = FaultModel(seed=0, overrun_prob=1.0, overrun_frac=5.0)
        r = simulate(periods, costs, faults=m, base_costs=base,
                     containment="run-to-completion")
        assert not r.schedulable and not r.aborted
        assert r.fault_stats.overruns == r.fault_stats.jobs

    def test_abort_job_contains_and_accounts(self):
        periods, costs, base = self._set()
        m = FaultModel(seed=0, overrun_prob=1.0, overrun_frac=5.0)
        r = simulate(periods, costs, faults=m, base_costs=base,
                     containment="abort-job")
        # Every job is truncated to its analyzed budget: the schedule holds
        # but every job is an accounted abort, and no demand leaks past the
        # budgets.
        assert r.schedulable
        assert len(r.aborted) == r.fault_stats.jobs
        assert r.fault_stats.contained == r.fault_stats.jobs
        assert r.fault_stats.excess_demand == 0.0

    def test_fallback_to_base_caps_at_software_cost(self):
        periods, costs, base = self._set()
        m = FaultModel(seed=0, overrun_prob=1.0, overrun_frac=50.0)
        r = simulate(periods, costs, faults=m, base_costs=base,
                     containment="fallback-to-base")
        # Demand is capped at the base-ISA cost, never 51x the budget.
        assert r.fault_stats.contained == r.fault_stats.jobs
        per_job_excess = [b - c for c, b in zip(costs, base)]
        assert r.fault_stats.excess_demand <= sum(
            e * 3 for e in per_job_excess
        ) + 1e-9  # 3 jobs of t0, 1-2 of t1 in the 20-hyperperiod

    def test_unknown_containment_rejected(self):
        with pytest.raises(ScheduleError):
            simulate([10.0], [2.0], faults=FaultModel(cfu_failed={0}),
                     containment="ostrich")

    def test_fault_task_out_of_range_rejected(self):
        with pytest.raises(ScheduleError):
            simulate([10.0], [2.0], faults=FaultModel(cfu_failed={5}))


class TestFlowIntegration:
    def test_customize_check_single_fault(self):
        task_set, _ = seeded_task_set(2)
        result = customize(
            task_set, 0.5 * task_set.max_area, policy="edf",
            check_single_fault=True,
        )
        if result.assignment is None:
            pytest.skip("no schedulable assignment for this seed")
        expected = single_fault_report(
            task_set, result.assignment, "edf"
        ).robust
        assert result.single_fault_robust == expected

    def test_customize_default_skips_check(self):
        task_set, _ = seeded_task_set(2)
        result = customize(task_set, 0.5 * task_set.max_area)
        assert result.single_fault_robust is None


class TestSweep:
    def _curved_set(self):
        def task(name, period, base, custom, area):
            return PeriodicTask(
                name=name, period=period, wcet=base,
                configurations=(
                    TaskConfiguration(0.0, base),
                    TaskConfiguration(area, custom),
                ),
            )

        return TaskSet(
            [task("a", 10.0, 8.0, 3.0, 4.0), task("b", 12.0, 9.0, 4.0, 5.0)],
            name="sweep-toy",
        )

    def test_sweep_report_shape_and_determinism(self):
        ts = self._curved_set()
        rep1 = sweep_faults(ts, seed=4)
        rep2 = sweep_faults(ts, seed=4)
        assert rep1 == rep2  # fully deterministic under a fixed seed
        policies = {e["policy"] for e in rep1["policies"]}
        assert policies == {"edf", "rms"}
        for entry in rep1["policies"]:
            if entry["single_cfu_failure"] is None:
                continue
            assert entry["single_cfu_failure"]["sim_agrees_all"]
            assert len(entry["single_cfu_failure"]["modes"]) == len(ts)

    def test_sweep_is_json_serializable(self):
        import json

        report = sweep_faults(self._curved_set(), seed=1)
        json.loads(json.dumps(report))

    def test_format_fault_report_renders(self):
        report = sweep_faults(self._curved_set(), area_budget=9.0, seed=1)
        text = format_fault_report(report)
        assert "single CFU failure" in text
        assert "sweep-toy" in text

    def test_default_scenarios_cover_all_containments(self):
        names = {s.containment for s in default_scenarios()}
        assert names == set(CONTAINMENT_POLICIES)
