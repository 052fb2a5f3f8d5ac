"""Edge-case and error-path tests across modules."""

from __future__ import annotations

import math

import pytest

from repro.errors import ReproError, ScheduleError, WorkloadError
from repro.graphs.dfg import DataFlowGraph
from repro.isa.opcodes import Opcode
from tests.conftest import to_networkx


class TestTaskSetErrors:
    def test_empty_task_set_rejected(self):
        from repro.rtsched import TaskSet

        with pytest.raises(ScheduleError):
            TaskSet([])

    def test_assignment_length_checked(self):
        from repro.rtsched import PeriodicTask, TaskSet

        ts = TaskSet([PeriodicTask(name="t", period=2.0, wcet=1.0)])
        with pytest.raises(ScheduleError):
            ts.utilization_for([0, 0])
        with pytest.raises(ScheduleError):
            ts.area_for([])

    def test_hyperperiod_requires_integral_periods(self):
        from repro.rtsched import PeriodicTask, TaskSet

        ts = TaskSet([PeriodicTask(name="t", period=2.5, wcet=1.0)])
        with pytest.raises(ScheduleError):
            ts.hyperperiod()

    def test_scale_periods_invalid_target(self):
        from repro.rtsched import PeriodicTask, scale_periods_for_utilization

        t = PeriodicTask(name="t", period=2.0, wcet=1.0)
        with pytest.raises(ScheduleError):
            scale_periods_for_utilization([t], 0.0)
        with pytest.raises(ScheduleError):
            scale_periods_for_utilization([], 1.0)


class TestCoreFlowErrors:
    def test_unknown_policy(self):
        from repro.core import customize
        from repro.rtsched import PeriodicTask, TaskSet

        ts = TaskSet([PeriodicTask(name="t", period=2.0, wcet=1.0)])
        with pytest.raises(ScheduleError):
            customize(ts, 1.0, policy="fifo")

    def test_negative_budget_rejected_both_policies(self):
        from repro.core import select_edf, select_rms
        from repro.rtsched import PeriodicTask, TaskSet

        ts = TaskSet([PeriodicTask(name="t", period=2.0, wcet=1.0)])
        with pytest.raises(ScheduleError):
            select_edf(ts, -1.0)
        with pytest.raises(ScheduleError):
            select_rms(ts, -1.0)

    def test_mpsoc_invalid_args(self):
        from repro.core import customize_mpsoc, partition_tasks_worst_fit
        from repro.rtsched import PeriodicTask

        t = PeriodicTask(name="t", period=2.0, wcet=1.0)
        with pytest.raises(ScheduleError):
            partition_tasks_worst_fit([t], 0)
        with pytest.raises(ScheduleError):
            customize_mpsoc([t], 1, total_area=-5.0)


class TestReconfigErrors:
    def test_iterative_needs_loops(self):
        from repro.reconfig import iterative_partition

        with pytest.raises(ReproError):
            iterative_partition([], [], 10.0, 1.0)

    def test_net_gain_length_check(self):
        from repro.reconfig import CISVersion, HotLoop, Partition, net_gain

        loops = [HotLoop("a", (CISVersion(0, 0),))]
        bad = Partition(selection=(0, 0), config_of=(0, 0))
        with pytest.raises(ReproError):
            net_gain(loops, bad, [], 1.0)

    def test_spatial_negative_budget(self):
        from repro.reconfig import CISVersion, HotLoop, spatial_select

        loops = [HotLoop("a", (CISVersion(0, 0),))]
        with pytest.raises(ReproError):
            spatial_select(loops, -1.0)

    def test_cisversion_validation(self):
        from repro.reconfig import CISVersion

        with pytest.raises(ReproError):
            CISVersion(area=-1.0, gain=1.0)


class TestMtreconfigErrors:
    def test_taskversion_validation(self):
        from repro.mtreconfig import TaskVersion

        with pytest.raises(ReproError):
            TaskVersion(area=1.0, cycles=0.0)

    def test_effective_utilization_length_check(self):
        from repro.mtreconfig import ReconfigTask, TaskVersion, effective_utilization

        t = ReconfigTask(name="t", period=2.0, versions=(TaskVersion(0.0, 1.0),))
        with pytest.raises(ReproError):
            effective_utilization([t], [0, 0], [0], 1.0)

    def test_static_negative_area(self):
        from repro.mtreconfig import ReconfigTask, TaskVersion, static_solution

        t = ReconfigTask(name="t", period=2.0, versions=(TaskVersion(0.0, 1.0),))
        with pytest.raises(ScheduleError):
            static_solution([t], -1.0)


class TestDfgMisc:
    def test_to_networkx_roundtrip(self, diamond_dfg):
        g = to_networkx(diamond_dfg)
        assert set(g.nodes) == set(diamond_dfg.nodes)
        assert g.has_edge(0, 1) and g.has_edge(2, 3)

    def test_opcode_str(self):
        assert str(Opcode.ADD) == "add"

    def test_repr_contains_name(self):
        dfg = DataFlowGraph("blk")
        assert "blk" in repr(dfg)

    def test_io_count_accepts_frozenset(self, diamond_dfg):
        io = diamond_dfg.io_count(frozenset({1, 2}))
        assert io.outputs == 2


class TestSimulatorEdges:
    def test_explicit_horizon(self):
        from repro.rtsched import simulate

        res = simulate([4.0], [1.0], policy="edf", horizon=8.0)
        assert res.horizon == 8.0
        assert res.busy_time == pytest.approx(2.0)

    def test_non_integral_periods_default_horizon(self):
        from repro.rtsched import simulate

        res = simulate([2.5, 3.5], [0.5, 0.5], policy="edf")
        assert res.horizon == pytest.approx(20.0 * 3.5)
        assert res.schedulable

    def test_zero_utilization_idle(self):
        from repro.rtsched import simulate

        res = simulate([100.0], [1.0], policy="rm", horizon=100.0)
        assert res.observed_utilization == pytest.approx(0.01)


class TestWorkloadEdges:
    def test_synthetic_loops_single(self):
        from repro.workloads import synthetic_loops

        loops = synthetic_loops(1, seed=0)
        assert len(loops) == 1

    def test_synthetic_trace_has_target_length(self):
        from repro.workloads import synthetic_trace

        trace = synthetic_trace(4, seed=0, length=100)
        assert len(trace) >= 100

    def test_jpeg_trace_single_mcu(self):
        from repro.workloads import jpeg_trace

        assert len(jpeg_trace(1)) == 8

    def test_get_program_cached(self):
        from repro.workloads import get_program

        assert get_program("lms") is get_program("lms")


class TestEnergyEdges:
    def test_unknown_policy(self):
        from repro.errors import ScheduleError
        from repro.rtsched import lowest_feasible_point

        with pytest.raises(ScheduleError):
            lowest_feasible_point(0.5, 2, policy="weird")

    def test_custom_operating_points(self):
        from repro.rtsched import OperatingPoint, lowest_feasible_point

        pts = (OperatingPoint(100.0, 1.0), OperatingPoint(200.0, 1.4))
        p = lowest_feasible_point(0.5, 1, "edf", points=pts)
        assert p is not None and p.mhz == 100.0


class TestParetoEdges:
    def test_cioption_validation(self):
        from repro.pareto import CIOption

        with pytest.raises(ReproError):
            CIOption(delta=-1.0, area=1)
        with pytest.raises(ReproError):
            CIOption(delta=1.0, area=-1)

    def test_exact_curve_zero_cost_options(self):
        from repro.pareto import CIOption, exact_workload_curve

        # All-zero-area options collapse to a single (improved) point.
        curve = exact_workload_curve(10.0, [CIOption(delta=2.0, area=0)])
        assert len(curve) == 1
        assert curve[0].value == pytest.approx(8.0)
