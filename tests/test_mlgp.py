"""Tests for MLGP custom-instruction generation and the iterative flow."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.program import Loop, Program, Seq
from repro.mlgp import (
    iterative_customization,
    iterative_selection,
    mlgp_partition,
    mlgp_program_profile,
)
from tests.conftest import random_small_dfg


class TestMlgpPartition:
    def test_partitions_disjoint_and_feasible(self):
        dfg = random_small_dfg(3, 20)
        region = dfg.regions()[0]
        res = mlgp_partition(dfg, region)
        seen: set[int] = set()
        for part in res.partitions:
            assert not (part & seen)
            seen |= part
            assert dfg.is_feasible(part, 4, 2)

    def test_partitions_within_region(self):
        dfg = random_small_dfg(5, 18)
        region = dfg.regions()[0]
        res = mlgp_partition(dfg, region)
        region_set = set(region)
        for part in res.partitions:
            assert part <= region_set

    @given(st.integers(0, 60))
    @settings(max_examples=20, deadline=None)
    def test_gains_match_cost_model(self, seed):
        from repro.isa.costmodel import DEFAULT_COST_MODEL

        dfg = random_small_dfg(seed, 15)
        regions = dfg.regions()
        if not regions or len(regions[0]) < 2:
            return
        res = mlgp_partition(dfg, regions[0])
        for part, gain in zip(res.partitions, res.gains):
            nodes = sorted(part)
            preds = {n: [p for p in dfg.preds(n) if p in part] for n in nodes}
            ops = {n: dfg.op(n) for n in nodes}
            cost = DEFAULT_COST_MODEL.subgraph_cost(nodes, preds, ops)
            expected = float(cost.gain) if len(part) > 1 else 0.0
            assert gain == pytest.approx(max(0.0, expected)) or gain == pytest.approx(expected)

    def test_deterministic_for_seed(self):
        dfg = random_small_dfg(9, 25)
        region = dfg.regions()[0]
        a = mlgp_partition(dfg, region, seed=5)
        b = mlgp_partition(dfg, region, seed=5)
        assert a.partitions == b.partitions

    def test_respects_io_constraints(self):
        dfg = random_small_dfg(13, 22)
        region = dfg.regions()[0]
        res = mlgp_partition(dfg, region, max_inputs=2, max_outputs=1)
        for part in res.partitions:
            io = dfg.io_count(part)
            assert io.inputs <= 2
            assert io.outputs <= 1

    def test_custom_instructions_positive_gain(self):
        dfg = random_small_dfg(17, 30)
        region = dfg.regions()[0]
        res = mlgp_partition(dfg, region)
        for ci in res.custom_instructions():
            idx = list(res.partitions).index(ci)
            assert res.gains[idx] > 0


class TestIterativeSelection:
    def test_cis_disjoint(self):
        dfg = random_small_dfg(21, 25)
        steps = iterative_selection(dfg, max_iterations=5)
        seen: set[int] = set()
        for s in steps:
            assert not (s.nodes & seen)
            seen |= s.nodes

    def test_cis_feasible_with_positive_gain(self):
        dfg = random_small_dfg(22, 25)
        steps = iterative_selection(dfg, max_iterations=5)
        for s in steps:
            assert dfg.is_feasible(s.nodes, 4, 2)
            assert s.gain > 0

    def test_first_instruction_is_best(self):
        """IS commits the maximum-gain single cut first."""
        dfg = random_small_dfg(23, 14)
        steps = iterative_selection(dfg, max_iterations=3)
        if len(steps) >= 2:
            assert steps[0].gain >= steps[1].gain - 1e-9

    def test_max_iterations(self):
        dfg = random_small_dfg(24, 30)
        steps = iterative_selection(dfg, max_iterations=2)
        assert len(steps) <= 2

    def test_elapsed_monotone(self):
        dfg = random_small_dfg(25, 25)
        steps = iterative_selection(dfg, max_iterations=4)
        times = [s.elapsed for s in steps]
        assert times == sorted(times)


class TestIterativeFlow:
    def _programs(self):
        from tests.conftest import random_small_dfg
        from repro.graphs.program import Block

        def prog(name, seed):
            kern = Block(random_small_dfg(seed, 30))
            return Program(name, Seq([Loop(kern, bound=100)]))

        return [prog("a", 31), prog("b", 32)]

    def test_utilization_decreases(self):
        programs = self._programs()
        wcets = [p.wcet() for p in programs]
        periods = [w * 2 / 1.3 for w in wcets]  # software U = 1.3
        res = iterative_customization(programs, periods, u_target=1.0)
        u_before = sum(w / p for w, p in zip(wcets, periods))
        assert res.utilization < u_before
        utils = [r.utilization for r in res.records]
        assert utils == sorted(utils, reverse=True)

    def test_stops_at_target(self):
        programs = self._programs()
        wcets = [p.wcet() for p in programs]
        periods = [w * 2 / 1.05 for w in wcets]
        res = iterative_customization(programs, periods, u_target=1.0)
        if res.met_target:
            # No more iterations after the target is reached.
            assert res.records[-1].utilization <= 1.0 + 1e-9

    def test_total_area_shares_isomorphic(self):
        programs = self._programs()
        wcets = [p.wcet() for p in programs]
        periods = [w * 2 / 1.4 for w in wcets]
        res = iterative_customization(programs, periods, u_target=0.5)
        naive = sum(ci.area for ci in res.custom_instructions)
        assert res.total_area <= naive + 1e-9


class TestProgramProfile:
    def test_speedup_monotone_nondecreasing(self, tiny_program):
        steps = mlgp_program_profile(tiny_program)
        speedups = [s.speedup for s in steps]
        assert speedups == sorted(speedups)
        assert all(s.speedup >= 1.0 for s in steps)

    def test_area_accumulates(self, tiny_program):
        steps = mlgp_program_profile(tiny_program)
        areas = [s.area for s in steps]
        assert areas == sorted(areas)


class TestFlowKnobs:
    def _programs(self):
        from repro.graphs.program import Block, Loop, Program, Seq

        def prog(name, seed):
            kern = Block(random_small_dfg(seed, 30))
            return Program(name, Seq([Loop(kern, bound=100)]))

        return [prog("a", 61), prog("b", 62)]

    def test_max_iterations_cap(self):
        programs = self._programs()
        wcets = [p.wcet() for p in programs]
        periods = [w * 2 / 1.5 for w in wcets]
        res = iterative_customization(
            programs, periods, u_target=0.1, max_iterations=2
        )
        assert len(res.records) <= 2

    def test_unreachable_target_exhausts_tasks(self):
        """An impossible target deactivates every task and terminates."""
        programs = self._programs()
        wcets = [p.wcet() for p in programs]
        periods = [w * 2 / 1.5 for w in wcets]
        res = iterative_customization(programs, periods, u_target=0.0001)
        assert not res.met_target
        assert res.utilization > 0

    def test_coverage_parameter(self):
        programs = self._programs()
        wcets = [p.wcet() for p in programs]
        periods = [w * 2 / 1.3 for w in wcets]
        full = iterative_customization(
            programs, periods, u_target=0.5, path_weight_coverage=1.0
        )
        assert full.custom_instructions


class TestIsegenVsMlgp:
    def test_both_generate_feasible_cis_on_same_block(self):
        from repro.mlgp import isegen_selection

        dfg = random_small_dfg(71, 40)
        region_nodes = set(dfg.regions()[0])
        mlgp_res = mlgp_partition(dfg, sorted(region_nodes))
        isegen_res = isegen_selection(dfg, max_iterations=10)
        assert mlgp_res.total_gain >= 0
        for step in isegen_res:
            assert dfg.is_feasible(step.nodes, 4, 2)
