"""Differential tests: the bitset enumeration engine vs the reference.

The default ``engine="bitset"`` enumerator is promised
*candidate-identical* to the original set-based ``engine="reference"``
whenever the visit budgets and candidate caps do not bind.  These tests
enforce that promise across seeded random DFGs, synthetic blocks, real
benchmark blocks and front-end-ingested kernels, mirroring
:mod:`tests.test_partitioning_differential` for the partitioning
engines.  Where the reference keeps a matching counter the bitset
tally must agree with it: both count the same feasible subgraphs, and
a budget that cannot bind records no budget cut.  Under binding budgets the engines differ
— bitset's pruning reaches more candidates within the same budget — so
the bitset engine's own answers are pinned instead:
:class:`TestBitsetPinned` records the ordered candidate lists and all
five counters on real Table 3.1 hot blocks, so a speed change to the
engine cannot silently change what it returns.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.enumeration import enumerate_connected, make_candidate
from repro.workloads import get_program
from repro.workloads.synthesis import OP_MIXES, synth_dfg
from tests.conftest import random_small_dfg

#: Budgets far beyond anything the small test graphs can exhaust: with
#: these, both engines must agree candidate for candidate.
NO_BUDGET = dict(max_candidates=10**7, min_size=2, max_visited=10**9)

STAT_KEYS = (
    "visited",
    "feasible",
    "pruned_visit_budget",
    "pruned_inputs",
    "pruned_outputs",
)


def _run(dfg, engine, **kw):
    stats: dict = {}
    out = enumerate_connected(dfg, engine=engine, stats=stats, **kw)
    return out, {k: stats.get(k, 0) for k in STAT_KEYS}


def _assert_engines_identical(dfg, **kw):
    ref, ref_stats = _run(dfg, "reference", **kw)
    bit, bit_stats = _run(dfg, "bitset", **kw)
    assert bit == ref, "bitset candidates diverged from reference"
    # Non-binding budgets: the same feasible subgraphs are counted (bitset
    # visits fewer, since it prunes), and no budget cut is reported.
    assert bit_stats["feasible"] == ref_stats["feasible"]
    assert bit_stats["pruned_visit_budget"] == 0


class TestArrayDifferential:
    """Bitset vs reference, non-binding budgets.  (The class keeps the
    name it had when it also covered the retired array engine, so test
    ids stay stable across the change.)"""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n", (10, 18, 26))
    def test_random_dfgs_bit_identical(self, seed, n):
        """30 seeded random DFGs: bitset == reference, non-binding
        budgets."""
        dfg = random_small_dfg(seed, n=n)
        _assert_engines_identical(
            dfg, max_inputs=4, max_outputs=2, max_size=8, **NO_BUDGET
        )

    @pytest.mark.parametrize("mi,mo", ((2, 1), (3, 2), (4, 3)))
    def test_port_constraint_sweep(self, mi, mo):
        dfg = random_small_dfg(3, n=20)
        _assert_engines_identical(
            dfg, max_inputs=mi, max_outputs=mo, max_size=7, **NO_BUDGET
        )

    @pytest.mark.parametrize("mix", ("crypto", "dsp"))
    def test_synth_blocks_bit_identical(self, mix):
        rng = random.Random(mix)
        dfg = synth_dfg(rng, 60, OP_MIXES[mix])
        _assert_engines_identical(
            dfg, max_inputs=4, max_outputs=2, max_size=6, **NO_BUDGET
        )

    @pytest.mark.parametrize("name", ("sha", "adpcm"))
    def test_benchmark_blocks_bit_identical(self, name):
        prog = get_program(name)
        for blk in prog.basic_blocks:
            _assert_engines_identical(
                blk.dfg, max_inputs=4, max_outputs=2, max_size=6, **NO_BUDGET
            )

    def test_min_size_filter_matches(self):
        dfg = random_small_dfg(7, n=18)
        for min_size in (1, 3):
            kw = dict(NO_BUDGET, min_size=min_size)
            _assert_engines_identical(
                dfg, max_inputs=4, max_outputs=2, max_size=6, **kw
            )


class TestArrayBudgets:
    """Binding budgets: equality with the reference is not promised, but
    determinism and cap-respect are.  (The class name predates the
    retirement of the array engine and is kept for stable test ids.)"""

    def test_binding_budget_is_deterministic(self):
        rng = random.Random(99)
        dfg = synth_dfg(rng, 80, OP_MIXES["crypto"])
        # Loose ports + a tight visit cap: the per-root visit budget binds
        # (rather than the candidate cap stopping the search first).
        kw = dict(
            max_inputs=6, max_outputs=4, max_size=12,
            max_candidates=10**6, min_size=2, max_visited=300,
        )
        a1, s1 = _run(dfg, "bitset", **kw)
        a2, s2 = _run(dfg, "bitset", **kw)
        assert a1 == a2
        assert s1 == s2
        # The budget really bound (otherwise this test is vacuous).
        assert s1["pruned_visit_budget"] >= 1

    def test_candidate_cap_respected(self):
        rng = random.Random(99)
        dfg = synth_dfg(rng, 80, OP_MIXES["crypto"])
        out, stats = _run(
            dfg, "bitset", max_inputs=4, max_outputs=2, max_size=10,
            max_candidates=25, min_size=2, max_visited=None,
        )
        assert len(out) <= 25
        assert stats["feasible"] >= len(out)

    def test_non_binding_budget_flags_no_pruning(self):
        dfg = random_small_dfg(1, n=16)
        _, stats = _run(
            dfg, "bitset", max_inputs=4, max_outputs=2, max_size=8, **NO_BUDGET
        )
        assert stats["pruned_visit_budget"] == 0


class TestIngestedDifferential:
    """Engine parity on DFGs built by the real-code front-end.

    Ingested graphs have shapes the synthetic generator never produces
    (MAC chains, invalid LOAD/STORE/BRANCH region splits, latch CMPs),
    so they are a distinct corpus for the bitset/reference differential.
    """

    @pytest.fixture(scope="class")
    def ingested_blocks(self):
        from pathlib import Path

        from repro.frontend import ingest_path

        example = Path(__file__).resolve().parent.parent / "examples" / "fir_kernel.py"
        program = ingest_path(example, function="fir_filter")
        return [b.dfg for b in program.basic_blocks]

    def test_example_kernel_blocks_bit_identical(
        self, ingested_blocks
    ):
        assert len(ingested_blocks) >= 3
        for dfg in ingested_blocks:
            _assert_engines_identical(
                dfg, max_inputs=4, max_outputs=2, max_size=6, **NO_BUDGET
            )

    def test_ingested_source_bit_identical(self):
        from repro.frontend import ingest_source

        src = (
            "def mix(a, b, c, x, i):\n"
            "    t = a + b * c\n"
            "    u = x[i] ^ t\n"
            "    v = min(u, t) + max(a, c)\n"
            "    w = (v << 2) - (u & 0xFF)\n"
            "    return w\n"
        )
        program = ingest_source(src)
        for block in program.basic_blocks:
            _assert_engines_identical(
                block.dfg, max_inputs=4, max_outputs=2, max_size=6, **NO_BUDGET
            )


class TestBitsetPinned:
    """The bitset engine's answers under *binding* budgets, pinned.

    Each case is an unsalted Table 3.1 hot block at the candidate-library
    defaults (4 inputs, 2 outputs, up to 12 operations, 2000 candidates
    per block) where the per-root visit budget, or the candidate cap,
    cuts the search.  The digest covers every candidate in order, so the
    visit order itself is pinned: a search that spends the budget on a
    different node returns a different list.
    """

    LIBRARY_DEFAULTS = dict(
        max_inputs=4, max_outputs=2, max_size=12, max_candidates=2000
    )

    # (program, block, overrides, candidates, sha256, counters in
    # STAT_KEYS order)
    CASES = (
        ("blowfish", 2, {}, 968,
         "65f77e82064605659f930d80ab012298ec2e3394662268655cade329df7025c3",
         (27239, 1051, 104, 15545, 443)),
        ("sha", 2, {}, 934,
         "abb3e0e12a2ec137a78642d4c2d317823e28650b944ad1c28489bb5e775a8e6a",
         (34364, 1010, 139, 19165, 369)),
        ("jpeg_decoder", 2, {}, 292,
         "871af069b3c0d48027cae7db96aca5d11d1c6b6a8a13af11a7ccb32dd6a83a04",
         (10635, 315, 25, 6341, 205)),
        ("susan", 2, {}, 226,
         "0e5063ac88b358c248ed7fc67070eb99d10063ee5bbb24e95d3cf160aec82946",
         (15961, 252, 35, 8396, 112)),
        ("sha", 4, {"max_visited": 500}, 155,
         "b4e7c65f489560d42d475b6d2853ca6a48cfd024d2a617b1849ed72f7b933753",
         (2828, 183, 10, 1079, 67)),
        ("g721_encoder", 2, {"max_candidates": 50}, 46,
         "bcacc8f23434a964c3a1115cb813a7e54b50f2b9e0e42b28812ad7bfa9279603",
         (1613, 50, 5, 872, 14)),
    )

    @pytest.mark.parametrize(
        "name,block,overrides,count,digest,counters",
        CASES,
        ids=[f"{c[0]}-b{c[1]}-{'-'.join(c[2]) or 'defaults'}" for c in CASES],
    )
    def test_binding_budget_answers_pinned(
        self, name, block, overrides, count, digest, counters
    ):
        dfg = get_program(name).basic_blocks[block].dfg
        out, stats = _run(
            dfg, "bitset", **dict(self.LIBRARY_DEFAULTS, **overrides)
        )
        assert stats["pruned_visit_budget"] > 0, "budget must bind"
        assert len(out) == count
        ordered = repr([sorted(s) for s in out]).encode()
        assert hashlib.sha256(ordered).hexdigest() == digest
        assert tuple(stats[k] for k in STAT_KEYS) == counters

    @pytest.mark.parametrize("seed", range(6))
    def test_candidate_fields_match_graph_queries(self, seed):
        """``make_candidate`` builds its key and port counts from its own
        induced maps; they must equal the graph's direct queries."""
        rng = random.Random(seed)
        dfg = synth_dfg(rng, 40, OP_MIXES["crypto" if seed % 2 else "dsp"])
        node_sets = enumerate_connected(dfg, 4, 2, max_size=8)
        assert node_sets
        for nodes in rng.sample(node_sets, min(40, len(node_sets))):
            cand = make_candidate(dfg, nodes)
            assert cand.nodes == nodes
            assert cand.structural_key == dfg.structural_key(nodes)
            io = dfg.io_count(nodes)
            assert (cand.inputs, cand.outputs) == (io.inputs, io.outputs)
            assert cand.inputs <= 4 and cand.outputs <= 2
            assert make_candidate(dfg, sorted(nodes)) == cand
