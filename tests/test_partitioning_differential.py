"""Differential tests: the fast MLGP engine vs its reference oracle.

The fast MLGP engine is promised *bit-identical* to the reference
implementation under a fixed seed — same partitions, same float
gains/areas.  These tests enforce that promise across seeded random
workloads and real benchmark regions, plus the seed-determinism and
MLGP cache-consistency properties the pipeline relies on.

The k-way partitioner has a single implementation; its answers on seeded
random graphs are pinned (sha256 of each assignment plus its edge-cut),
so a change to its refinement cannot alter results unnoticed.  The batch
stages take no ``workers=``, and the calls whose whole answer a run
computes once (Pareto curves, Algorithm 6, the Ch. 7 DP) take no
``use_cache=``.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro import cache, obs
from repro.core.flow import build_task_set, build_tasks
from repro.graphs.dfg import DataFlowGraph
from repro.isa.costmodel import HardwareCostModel
from repro.isa.opcodes import Opcode
from repro.mlgp.flow import iterative_customization, mlgp_program_profile
from repro.mlgp.mlgp import mlgp_partition
from repro.mlgp.mlgp_fast import _Ctx
from repro.mtreconfig.dp import dp_solution
from repro.mtreconfig.model import ReconfigTask, TaskVersion
from repro.mtreconfig.workload import synthetic_reconfig_tasks
from repro.pareto.inter import (
    TaskCurve,
    approx_utilization_curve,
    exact_utilization_curve,
)
from repro.reconfig.iterative import iterative_partition
from repro.reconfig.kwaypart import edge_cut, kway_partition
from repro.workloads import CH3_TASK_SETS, get_program
from repro.workloads.loops import synthetic_loops, synthetic_trace
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

    def test_ctx_cost_area_is_subgraph_area_bit_for_bit(self):
        """The fast engine's area is the reference's builtin ``sum`` over
        ascending node ids, on every Table 3.1 region: whole and in seeded
        subsets.  (A running ``+=`` agrees with ``sum`` before Python
        3.12; from 3.12 ``sum`` compensates rounding.)"""
        model = HardwareCostModel()
        rng = random.Random(31)
        names = sorted({n for s in CH3_TASK_SETS.values() for n in s})
        checked = 0
        for name in names:
            for blk in get_program(name).basic_blocks:
                dfg = blk.dfg
                for region in dfg.regions():
                    ctx = _Ctx(dfg, region, 4, 2, model)
                    subsets = [region] + [
                        rng.sample(region, rng.randint(1, len(region)))
                        for _ in range(4)
                    ]
                    for nodes in subsets:
                        m = 0
                        for g in nodes:
                            m |= 1 << ctx.region_pos[region.index(g)]
                        ops = [dfg.op(g) for g in sorted(nodes)]
                        assert ctx.cost(m)[1] == model.subgraph_area(ops)
                        checked += 1
        assert checked > 100


def _random_graph(rng: random.Random, n: int, density: float = 0.08):
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges[(u, v)] = rng.uniform(0.5, 10.0)
    for u in range(n - 1):
        edges.setdefault((u, u + 1), rng.uniform(0.5, 5.0))
    return edges


# (n, k, seed) -> (sha256 of the comma-joined assignment, its edge-cut).
KWAY_PINS = {
    (12, 2, 0): (
        "c49a4377754cc13edd6652f7664b99a981f8a70cc629ade54ad5ab638718ea3c",
        18.57285554172865,
    ),
    (12, 2, 1): (
        "08a39dc2edd7c3a28b44719ef3b19691468dadce799aae315295450303cd724b",
        0.5859769971227449,
    ),
    (12, 2, 2): (
        "7287d56f8e3071a7616af895f114b31f4340146e30a65dcd73b5acaf582ee4de",
        22.06545419127036,
    ),
    (12, 2, 3): (
        "b3ef5356842e12b11848a950e645450270421a0c5f41e6d9d1546509b0a85b3c",
        9.108182460465176,
    ),
    (12, 2, 4): (
        "1c5a4a19c33e4aff556aa1675bc8d94f4a8d6ea5093aa2af9cf2d1cafe930147",
        4.162486025268368,
    ),
    (12, 2, 5): (
        "3766dbb719b72b4a7cb19f81d9e494067bd5ab154470b33911c23655e9fbadea",
        1.321589313068979,
    ),
    (12, 2, 6): (
        "ac454c036d165a6c064ea0ed840c737a1ab8cbb562336b270d5ee6da3214cea2",
        10.540288011022161,
    ),
    (12, 2, 7): (
        "41192f4b7eda339a49526fab68904f289d186cf9d76e9ddfab85b5f0346a5131",
        19.277028900100305,
    ),
    (12, 2, 8): (
        "b186116f914b012c881f5e69aeafdf4bfa235f74bd625684d9dfddbc31783f61",
        5.615417934074689,
    ),
    (12, 2, 9): (
        "7b5d22fb4ac72a628bb4c6df898d8cee349d93a8b1415b6aaec3ab2fb2a27a6c",
        16.240072856794452,
    ),
    (60, 3, 0): (
        "697efec268b44875c2e7d3e3222b6c7485f0b5ce6cd5501b1a7b4e43c5eb8bbf",
        274.57744732638207,
    ),
    (60, 3, 1): (
        "502ed5cf3aed13baee91c80062127fd7344f0fdc5df99a874871f57906a13079",
        325.3474458224999,
    ),
    (60, 3, 2): (
        "faa7ef986d5445815fe5615b8eb849a7b84395150896f11023ab55966ad4385d",
        241.43780409050976,
    ),
    (60, 3, 3): (
        "26c754eb245040ce4b3e38186b6da754923592e895399d0e047bdf85c866b491",
        252.92474572050062,
    ),
    (60, 3, 4): (
        "5c22de21bcfcc66e15210e8b0ae3a33a9f6d6a39f1811bb3de3fefc81236047c",
        239.28800955040813,
    ),
    (60, 3, 5): (
        "dfabe082afa45634591330a01b1c88f044b84422e6c3392fa3ba95be6b9ace2e",
        190.52323044301247,
    ),
    (60, 3, 6): (
        "bff61169ee1bf55ce7611a555c728dd172ebfb2ede799b0f2789a9b9f1b895bf",
        235.31774534893492,
    ),
    (60, 3, 7): (
        "db5547b479f0023d7e8be9f9344fb878f4b0e0036ab8b472fc9a82dedb1a1aeb",
        313.3630195724707,
    ),
    (60, 3, 8): (
        "267aff0e3e63afe230de6f4e3e2d437c4522c093a7bbd7af872f802988e6c881",
        312.40012188085876,
    ),
    (60, 3, 9): (
        "7df6d3dabc2b1b5acf24704d78a08f2698ed501d72c7d82c51bae80e8f48e309",
        207.85629458682837,
    ),
    (150, 8, 0): (
        "1a3c710268a89ca0da79f71d3248efb2c3c5d01b06ee1f2a716ed37e661824ce",
        3029.1873976711586,
    ),
    (150, 8, 1): (
        "64e2d049eb4e7d96bcc708e8a32bffbb842a04290e6b6ca36c8d2591d1d35619",
        3125.4454801866495,
    ),
    (150, 8, 2): (
        "08c10dbd70bc759efe1050d29102cccb5e86b123e0a7c6c38b6bf495836edb19",
        3113.456122493918,
    ),
    (150, 8, 3): (
        "40fa76ffe933f408f7d13e35e143e8276a5f8d642b3bf55634cc0bfe1b0a2352",
        3196.089080668108,
    ),
    (150, 8, 4): (
        "fc23c8f5390bca25b81ef298c97da784770473cf6a382cd2e17bfb48f9c395a1",
        3305.2257548820667,
    ),
    (150, 8, 5): (
        "2c5deb130ed3cc770d3db0306861588f35777e6013f6c88c6bb9b42cf906d6da",
        3080.085606631512,
    ),
    (150, 8, 6): (
        "ade9f8889f4c8d63f39175bc632f3bfa99fff13642f7af5d6e78bf574cff8910",
        2962.735901055933,
    ),
    (150, 8, 7): (
        "8f3b6f25cfa98702003a47f0c37685533493b4d0a7753837799b3d4a498179b7",
        3191.341889644116,
    ),
    (150, 8, 8): (
        "c2081acd6849b1c436861623dbf8ffc731c2de44426fee95e2f389c77d8f8965",
        3318.707093747149,
    ),
    (150, 8, 9): (
        "1557b712b6c0cd2c8401e12a2ffb04736edbbb008b6dd53f21a6b22829e5bb14",
        3076.591942592336,
    ),
}


class TestKwayDifferential:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n,k", ((12, 2), (60, 3), (150, 8)))
    def test_random_graphs_bit_identical(self, seed, n, k):
        """30 seeded random workloads: assignments and edge-cuts match
        the pinned answers bit for bit."""
        rng = random.Random(seed * 13 + 1)
        edges = _random_graph(rng, n)
        weights = [rng.uniform(0.5, 4.0) for _ in range(n)]
        assign = kway_partition(n, edges, weights, k=k, seed=seed)
        digest = hashlib.sha256(",".join(map(str, assign)).encode())
        assert (digest.hexdigest(), edge_cut(edges, assign)) == KWAY_PINS[
            (n, k, seed)
        ]

    def test_counters_flushed(self):
        obs.reset()
        rng = random.Random(11)
        edges = _random_graph(rng, 40)
        kway_partition(40, edges, k=4, seed=1)
        counters = obs.metrics_snapshot()["counters"]
        assert counters.get("kway.kl_passes", 0) >= 1


#: Batch entry points that run serially: none takes ``workers=``.
_SERIAL_ENTRY_POINTS = {
    "iterative_customization": lambda: iterative_customization(
        [get_program("crc32")], [1.0], workers=2
    ),
    "mlgp_program_profile": lambda: mlgp_program_profile(
        get_program("crc32"), workers=2
    ),
    "build_tasks": lambda: build_tasks([get_program("crc32")], workers=2),
    "build_task_set": lambda: build_task_set(
        [get_program("crc32")], 1.0, workers=2
    ),
    "iterative_partition": lambda: iterative_partition(
        synthetic_loops(4, seed=0), synthetic_trace(4, seed=0), 150.0, 400.0,
        workers=2,
    ),
}


#: Entry points whose whole answer is computed once per run, so nothing
#: memoizes it: none takes ``use_cache=``.
_UNCACHED_ENTRY_POINTS = {
    "exact_utilization_curve": lambda: exact_utilization_curve(
        [TaskCurve(period=1.0, workloads=(2.0, 1.0), areas=(0, 1))],
        use_cache=False,
    ),
    "approx_utilization_curve": lambda: approx_utilization_curve(
        [TaskCurve(period=1.0, workloads=(2.0, 1.0), areas=(0, 1))], 0.5,
        use_cache=False,
    ),
    "iterative_partition": lambda: iterative_partition(
        synthetic_loops(4, seed=0), synthetic_trace(4, seed=0), 150.0, 400.0,
        use_cache=False,
    ),
    "dp_solution": lambda: dp_solution(
        synthetic_reconfig_tasks(4, seed=0), 2000.0, 5000.0, use_cache=False
    ),
}


@pytest.mark.parametrize("entry", sorted(_UNCACHED_ENTRY_POINTS))
def test_whole_answer_calls_take_no_use_cache(entry):
    with pytest.raises(TypeError, match="use_cache"):
        _UNCACHED_ENTRY_POINTS[entry]()


class TestBatchStagesAreSerial:
    """Task building, Algorithm 4 and Algorithm 6 have no process fan-out."""

    @pytest.mark.parametrize("entry", sorted(_SERIAL_ENTRY_POINTS))
    def test_takes_no_workers(self, entry):
        with pytest.raises(TypeError, match="workers"):
            _SERIAL_ENTRY_POINTS[entry]()

    def test_cli_mlgp_takes_no_workers(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["mlgp", "crc32", "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _mk_task(name, period, versions):
    return ReconfigTask(
        name=name,
        period=period,
        versions=tuple(TaskVersion(area=a, cycles=c) for a, c in versions),
    )


class TestDpEdgeCases:
    def test_empty_task_set(self):
        report = dp_solution([], 1000.0, 50.0)
        assert report.solution.selection == ()
        assert report.solution.utilization == 0.0

    def test_rho_zero_prefers_hardware(self):
        tasks = [
            _mk_task("a", 1000.0, [(0.0, 900.0), (10.0, 300.0)]),
            _mk_task("b", 1000.0, [(0.0, 800.0), (10.0, 250.0)]),
        ]
        report = dp_solution(tasks, 12.0, 0.0)
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
        report = dp_solution(tasks, 10.0, 5.0)
        assert report.solution.selection == (0, 0)
        assert report.solution.utilization == pytest.approx(
            0.9 + 0.8
        )

    def test_single_task_pays_no_multi_config_tax(self):
        # One hardware task always collapses to a single configuration,
        # so the reconfiguration tax must not be charged.
        tasks = [_mk_task("solo", 1000.0, [(0.0, 900.0), (10.0, 300.0)])]
        report = dp_solution(tasks, 20.0, 500.0)
        assert report.solution.selection == (1,)
        assert report.solution.utilization == pytest.approx(0.3)


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
