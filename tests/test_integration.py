"""Cross-module integration tests: full pipelines end to end."""

from __future__ import annotations

import pytest

from repro.core import build_task, build_task_set, customize
from repro.mtreconfig import dp_solution, ilp_solution, tasks_from_benchmarks
from repro.pareto import (
    TaskCurve,
    approx_utilization_curve,
    exact_utilization_curve,
    is_eps_cover,
)
from repro.reconfig import greedy_partition, iterative_partition
from repro.rtsched import simulate_taskset
from repro.workloads import (
    JPEG_MAX_AREA,
    JPEG_RHO,
    get_program,
    jpeg_loops,
    jpeg_trace,
    programs_for,
)


@pytest.fixture(scope="module")
def small_task_set():
    """Two small benchmarks, periods scaled to software U = 1.1."""
    programs = programs_for(("crc32", "ndes"))
    return build_task_set(programs, target_utilization=1.1, name="it")


class TestChapter3Pipeline:
    def test_customization_makes_unschedulable_set_schedulable(
        self, small_task_set
    ):
        assert small_task_set.utilization > 1.0
        res = customize(small_task_set, small_task_set.max_area, policy="edf")
        assert res.schedulable
        assert res.utilization_after < res.utilization_before

    def test_edf_result_validated_by_simulation(self, small_task_set):
        res = customize(small_task_set, small_task_set.max_area, policy="edf")
        # Integer-period simulation: round periods conservatively down.
        import math

        tasks = small_task_set.tasks
        periods = [float(math.floor(t.period)) for t in tasks]
        costs = [
            math.ceil(t.configurations[j].cycles)
            for t, j in zip(tasks, res.assignment)
        ]
        from repro.rtsched import simulate

        sim = simulate(periods, costs, policy="edf", horizon=20 * max(periods))
        assert sim.schedulable

    def test_rms_policy_runs(self, small_task_set):
        res = customize(small_task_set, small_task_set.max_area, policy="rms")
        assert res.policy == "rms"
        if res.schedulable:
            assert res.utilization_after <= 1.0 + 1e-9

    def test_more_area_never_hurts(self, small_task_set):
        max_area = small_task_set.max_area
        utils = [
            customize(small_task_set, max_area * f, policy="edf").utilization_after
            for f in (0.0, 0.3, 0.6, 1.0)
        ]
        assert utils == sorted(utils, reverse=True)


class TestChapter4Pipeline:
    def test_curves_from_real_tasks(self):
        """Intra-task curves from built tasks feed the inter-task stage."""
        programs = programs_for(("crc32", "lms"))
        tasks = [build_task(p, max_configs=8) for p in programs]
        curves = [
            TaskCurve(
                period=2.0 * t.wcet,
                workloads=tuple(c.cycles for c in t.configurations),
                areas=tuple(int(round(c.area)) for c in t.configurations),
            )
            for t in tasks
        ]
        exact = exact_utilization_curve(curves)
        approx = approx_utilization_curve(curves, eps=0.69)
        assert len(exact) >= 1
        assert len(approx) <= len(exact) or len(exact) <= 3
        assert is_eps_cover(approx, exact, 0.69)


class TestChapter6Pipeline:
    def test_jpeg_iterative_beats_greedy_or_close(self):
        loops, trace = jpeg_loops(), jpeg_trace()
        it = iterative_partition(loops, trace, JPEG_MAX_AREA, JPEG_RHO)
        gr = greedy_partition(loops, trace, JPEG_MAX_AREA, JPEG_RHO)
        assert it.gain >= gr.gain - 1e-9
        assert iterative_partition(loops, trace, JPEG_MAX_AREA, JPEG_RHO) == it

    def test_jpeg_reconfiguration_beats_static(self):
        """With multiple configurations the JPEG app gains more than any
        single static configuration (thesis Section 6.4.2 conclusion)."""
        from repro.reconfig import spatial_select

        loops, trace = jpeg_loops(), jpeg_trace()
        _sel, static_gain = spatial_select(loops, JPEG_MAX_AREA)
        it = iterative_partition(loops, trace, JPEG_MAX_AREA, JPEG_RHO)
        assert it.gain >= static_gain - 1e-9


class TestChapter7Pipeline:
    def test_benchmark_tasks_flow(self):
        tasks = tasks_from_benchmarks(("crc32", "lms"), target_utilization=1.2)
        fabric = 0.4 * sum(max(v.area for v in t.versions) for t in tasks)
        rho = 0.001 * min(t.period for t in tasks)
        dp = dp_solution(tasks, fabric, rho)
        ilp = ilp_solution(tasks, fabric, rho)
        assert dp.solution.utilization == pytest.approx(
            ilp.solution.utilization, rel=0.05
        )
        assert dp.solution.utilization < sum(
            t.software_utilization for t in tasks
        )


class TestChapter8Pipeline:
    def test_biomonitor_customization_speedup(self):
        from repro.enumeration import build_candidate_library
        from repro.selection import build_configuration_curve
        from repro.workloads import biomonitor_program

        program = biomonitor_program("ecg_filter")
        lib = build_candidate_library(program)
        curve = build_configuration_curve(program, lib.candidates)
        speedup = curve[0].cycles / curve[-1].cycles
        assert speedup > 1.1
