"""Differential tests: fast partitioning engines vs their reference oracles.

The fast MLGP and k-way engines are promised *bit-identical* to the
reference implementations under a fixed seed — same partitions, same
float gains/areas, same assignments.  These tests enforce that promise
across seeded random workloads and real benchmark regions, plus the
seed-determinism and cache-consistency properties the pipeline relies
on.
"""

from __future__ import annotations

import random

import pytest

from repro import cache, obs
from repro.graphs.dfg import DataFlowGraph
from repro.isa.costmodel import HardwareCostModel
from repro.isa.opcodes import Opcode
from repro.mlgp.mlgp import mlgp_partition
from repro.mtreconfig.dp import dp_solution
from repro.mtreconfig.model import ReconfigTask, TaskVersion
from repro.mtreconfig.workload import synthetic_reconfig_tasks
from repro.reconfig.extract import extract_hot_loops
from repro.reconfig.iterative import iterative_partition
from repro.reconfig.kwaypart import edge_cut, kway_partition
from repro.workloads import get_program
from tests.conftest import random_small_dfg


def _mlgp_pair(dfg, region, seed, **kw):
    """(reference, fast) results for one region/seed."""
    return tuple(
        mlgp_partition(
            dfg, region, seed=seed, engine=eng, use_cache=False, **kw
        )
        for eng in ("reference", "fast")
    )


class TestMlgpDifferential:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n", (10, 18))
    def test_random_dfgs_bit_identical(self, seed, n):
        """20 seeded random workloads: fast == reference, bitwise."""
        dfg = random_small_dfg(seed, n=n)
        for region in dfg.regions():
            if len(region) < 2:
                continue
            ref, fast = _mlgp_pair(dfg, region, seed)
            assert ref.partitions == fast.partitions
            assert ref.gains == fast.gains
            assert ref.areas == fast.areas

    @pytest.mark.parametrize("name", ("sha", "adpcm"))
    def test_benchmark_regions_bit_identical(self, name):
        prog = get_program(name)
        for bi, blk in enumerate(prog.basic_blocks):
            for region in blk.dfg.regions():
                if len(region) < 2:
                    continue
                ref, fast = _mlgp_pair(blk.dfg, region, bi)
                assert (ref.partitions, ref.gains, ref.areas) == (
                    fast.partitions,
                    fast.gains,
                    fast.areas,
                )

    def test_port_constraint_sweep(self):
        dfg = random_small_dfg(3, n=16)
        region = max(dfg.regions(), key=len)
        for mi, mo in ((2, 1), (3, 2), (6, 3)):
            ref, fast = _mlgp_pair(
                dfg, region, 7, max_inputs=mi, max_outputs=mo
            )
            assert ref.partitions == fast.partitions

    def test_reference_counters_match_fast(self):
        """Same search, not just the same final partitions: identical
        mlgp.moves and mlgp.repairs tallies."""
        dfg = random_small_dfg(8, n=18)
        region = max(dfg.regions(), key=len)

        def counters(engine):
            obs.reset()
            mlgp_partition(dfg, region, seed=4, engine=engine, use_cache=False)
            snap = obs.metrics_snapshot()["counters"]
            return {k: v for k, v in snap.items() if k.startswith("mlgp.")}

        assert counters("fast") == counters("reference")

    @pytest.mark.parametrize("seed", (0, 3, 29))
    @pytest.mark.parametrize("ports", ((4, 2), (3, 1)))
    def test_repair_counters_match_across_sources(self, seed, ports):
        """A move rejected for want of repair nodes in one source partition
        is still tried, and repaired, from another: the fast engine's
        repair-pool pre-check must not change the repair tally."""
        dfg = random_small_dfg(seed, n=18)
        region = max(dfg.regions(), key=len)
        mi, mo = ports

        def counters(engine):
            obs.reset()
            mlgp_partition(
                dfg, region, seed=seed, max_inputs=mi, max_outputs=mo,
                engine=engine, use_cache=False,
            )
            snap = obs.metrics_snapshot()["counters"]
            return {k: v for k, v in snap.items() if k.startswith("mlgp.")}

        ref = counters("reference")
        assert ref["mlgp.repairs"] > 0
        assert counters("fast") == ref

    def test_seed_determinism(self):
        """Same seed -> same result; the seed is part of the cache key."""
        dfg = random_small_dfg(5, n=14)
        region = max(dfg.regions(), key=len)
        a = mlgp_partition(dfg, region, seed=9, use_cache=False)
        b = mlgp_partition(dfg, region, seed=9, use_cache=False)
        assert (a.partitions, a.gains, a.areas) == (
            b.partitions,
            b.gains,
            b.areas,
        )

    def test_cache_hit_matches_computation(self):
        dfg = random_small_dfg(6, n=14)
        region = max(dfg.regions(), key=len)
        cache.clear()
        cold = mlgp_partition(dfg, region, seed=2)
        warm = mlgp_partition(dfg, region, seed=2)
        assert cold.partitions == warm.partitions
        assert cache.stats()["mlgp"]["hits"] >= 1

    def test_counters_flushed(self):
        obs.reset()
        dfg = random_small_dfg(4, n=16)
        region = max(dfg.regions(), key=len)
        mlgp_partition(dfg, region, seed=0, use_cache=False)
        counters = obs.metrics_snapshot()["counters"]
        assert "mlgp.moves" in counters
        assert "mlgp.repairs" in counters


def _random_graph(rng: random.Random, n: int, density: float = 0.08):
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges[(u, v)] = rng.uniform(0.5, 10.0)
    for u in range(n - 1):
        edges.setdefault((u, u + 1), rng.uniform(0.5, 5.0))
    return edges


class TestKwayDifferential:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n,k", ((12, 2), (60, 3), (150, 8)))
    def test_random_graphs_bit_identical(self, seed, n, k):
        """30 seeded random workloads: identical assignments."""
        rng = random.Random(seed * 13 + 1)
        edges = _random_graph(rng, n)
        weights = [rng.uniform(0.5, 4.0) for _ in range(n)]
        ref = kway_partition(n, edges, weights, k=k, seed=seed,
                             engine="reference")
        fast = kway_partition(n, edges, weights, k=k, seed=seed,
                              engine="fast")
        assert ref == fast
        assert edge_cut(edges, ref) == edge_cut(edges, fast)

    def test_edge_cases_match(self):
        for engine in ("fast", "reference"):
            assert kway_partition(0, {}, engine=engine) == []
            assert kway_partition(3, {}, k=5, engine=engine) == [0, 1, 2]
            assert kway_partition(4, {(0, 1): 1.0}, k=1,
                                  engine=engine) == [0, 0, 0, 0]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            kway_partition(4, {}, k=2, engine="bogus")

    def test_counters_flushed(self):
        obs.reset()
        rng = random.Random(11)
        edges = _random_graph(rng, 40)
        kway_partition(40, edges, k=4, seed=1)
        counters = obs.metrics_snapshot()["counters"]
        assert counters.get("kway.kl_passes", 0) >= 1


class TestIterativePartitionDifferential:
    def test_engines_and_cache_agree(self):
        ex = extract_hot_loops(get_program("adpcm"))
        loops, trace = ex.loops, ex.trace
        ref = iterative_partition(
            loops, trace, 150.0, 400.0, seed=3, engine="reference",
            use_cache=False,
        )
        fast = iterative_partition(
            loops, trace, 150.0, 400.0, seed=3, engine="fast",
            use_cache=False,
        )
        assert ref.partition == fast.partition
        assert ref.gain == fast.gain
        cache.clear()
        cold = iterative_partition(loops, trace, 150.0, 400.0, seed=3)
        warm = iterative_partition(loops, trace, 150.0, 400.0, seed=3)
        assert cold.partition == warm.partition == fast.partition
        assert warm.gain == fast.gain


def _mk_task(name, period, versions):
    return ReconfigTask(
        name=name,
        period=period,
        versions=tuple(TaskVersion(area=a, cycles=c) for a, c in versions),
    )


class TestDpEdgeCases:
    def test_empty_task_set(self):
        report = dp_solution([], 1000.0, 50.0, use_cache=False)
        assert report.solution.selection == ()
        assert report.solution.utilization == 0.0

    def test_rho_zero_prefers_hardware(self):
        tasks = [
            _mk_task("a", 1000.0, [(0.0, 900.0), (10.0, 300.0)]),
            _mk_task("b", 1000.0, [(0.0, 800.0), (10.0, 250.0)]),
        ]
        report = dp_solution(tasks, 12.0, 0.0, use_cache=False)
        # With rho = 0 the tax vanishes, so every fitting hardware version
        # is free to use even across multiple configurations.
        assert all(j != 0 for j in report.solution.selection)
        expected = (300.0 + 250.0) / 1000.0
        assert report.solution.utilization == pytest.approx(expected)

    def test_fabric_smaller_than_every_version_is_all_software(self):
        tasks = [
            _mk_task("a", 1000.0, [(0.0, 900.0), (50.0, 300.0)]),
            _mk_task("b", 1000.0, [(0.0, 800.0), (60.0, 250.0)]),
        ]
        report = dp_solution(tasks, 10.0, 5.0, use_cache=False)
        assert report.solution.selection == (0, 0)
        assert report.solution.utilization == pytest.approx(
            0.9 + 0.8
        )

    def test_single_task_pays_no_multi_config_tax(self):
        # One hardware task always collapses to a single configuration,
        # so the reconfiguration tax must not be charged.
        tasks = [_mk_task("solo", 1000.0, [(0.0, 900.0), (10.0, 300.0)])]
        report = dp_solution(tasks, 20.0, 500.0, use_cache=False)
        assert report.solution.selection == (1,)
        assert report.solution.utilization == pytest.approx(0.3)

    def test_cache_roundtrip_deterministic(self):
        tasks = synthetic_reconfig_tasks(8, seed=4)
        cache.clear()
        cold = dp_solution(tasks, 2000.0, 5000.0)
        warm = dp_solution(tasks, 2000.0, 5000.0)
        assert cold.solution == warm.solution
        uncached = dp_solution(tasks, 2000.0, 5000.0, use_cache=False)
        assert uncached.solution == cold.solution


class _RecordingModel(HardwareCostModel):
    """Cost model subclass that records every subgraph it is asked about."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: set[tuple] = set()

    def subgraph_cost(self, nodes, preds, node_op):
        self.calls.add(
            (
                tuple(nodes),
                tuple((n, tuple(preds[n])) for n in nodes),
                tuple(node_op[n] for n in nodes),
            )
        )
        return super().subgraph_cost(nodes, preds, node_op)


class TestMlgpRegionLocalIndex:
    """Hand-built regions whose answer depends on nodes outside the region:
    the fast engine's compact per-region bit space must keep them."""

    def test_path_through_outside_nodes_breaks_convexity(self):
        # a -> LOAD -> LOAD -> b joins a and b only outside the region
        # (the first LOAD is no region node's predecessor); a -> c <- b
        # keeps the region connected.
        dfg = DataFlowGraph()
        a = dfg.add_op(Opcode.ADD)
        l1 = dfg.add_op(Opcode.LOAD, preds=[a])
        l2 = dfg.add_op(Opcode.LOAD, preds=[l1])
        b = dfg.add_op(Opcode.ADD, preds=[l2])
        c = dfg.add_op(Opcode.ADD, preds=[a, b])
        for seed in range(4):
            ref, fast = _mlgp_pair(dfg, [a, b, c], seed)
            assert (ref.partitions, ref.gains, ref.areas) == (
                fast.partitions,
                fast.gains,
                fast.areas,
            )
            assert not any({a, b} <= p for p in fast.partitions)

    @pytest.mark.parametrize("max_inputs", (2, 3))
    def test_shared_outside_predecessor_counted_once(self, max_inputs):
        # x and y both read one LOAD: {x, y, z} has 1 + 1 + 1 = 3 inputs,
        # so it fits 3 ports but not 2 (4 if the shared producer were
        # counted twice, 2 if it were not counted).
        dfg = DataFlowGraph()
        p = dfg.add_op(Opcode.LOAD)
        x = dfg.add_op(Opcode.ADD, preds=[p])
        y = dfg.add_op(Opcode.ADD, preds=[p])
        z = dfg.add_op(Opcode.ADD, preds=[x, y])
        ref, fast = _mlgp_pair(dfg, [x, y, z], 0, max_inputs=max_inputs)
        assert (ref.partitions, ref.gains, ref.areas) == (
            fast.partitions,
            fast.gains,
            fast.areas,
        )
        whole = frozenset({x, y, z})
        assert (whole in fast.partitions) == (max_inputs == 3)

    def test_only_successor_outside_is_an_output(self):
        # r2 and r3 each feed only a STORE outside the region, so the
        # whole region has two outputs and breaks max_outputs=1.
        dfg = DataFlowGraph()
        r1 = dfg.add_op(Opcode.ADD)
        r2 = dfg.add_op(Opcode.SHL, preds=[r1])
        r3 = dfg.add_op(Opcode.SHR, preds=[r1])
        dfg.add_op(Opcode.STORE, preds=[r2])
        dfg.add_op(Opcode.STORE, preds=[r3])
        region = [r1, r2, r3]
        for seed in range(4):
            ref, fast = _mlgp_pair(dfg, region, seed, max_outputs=1)
            assert (ref.partitions, ref.gains, ref.areas) == (
                fast.partitions,
                fast.gains,
                fast.areas,
            )
            assert frozenset(region) not in fast.partitions
            for part in fast.partitions:
                assert dfg.io_count(part).outputs <= 1

    def test_cost_model_subclass_sees_global_ids(self):
        # Out-of-region nodes first, so local and global ids differ.
        dfg = DataFlowGraph()
        l0 = dfg.add_op(Opcode.LOAD)
        l1 = dfg.add_op(Opcode.LOAD)
        n2 = dfg.add_op(Opcode.ADD, preds=[l0, l1])
        n3 = dfg.add_op(Opcode.MUL, preds=[n2, l1])
        n4 = dfg.add_op(Opcode.XOR, preds=[n3])
        dfg.add_op(Opcode.STORE, preds=[n4, l0])
        n6 = dfg.add_op(Opcode.SUB, preds=[n3, n4])
        region = [n2, n3, n4, n6]
        models = {eng: _RecordingModel() for eng in ("reference", "fast")}
        results = {
            eng: mlgp_partition(
                dfg, region, seed=1, model=m, engine=eng, use_cache=False
            )
            for eng, m in models.items()
        }
        ref, fast = results["reference"], results["fast"]
        assert (ref.partitions, ref.gains, ref.areas) == (
            fast.partitions,
            fast.gains,
            fast.areas,
        )
        assert models["fast"].calls == models["reference"].calls
        seen = {n for call in models["fast"].calls for n in call[0]}
        assert seen == set(region)
