"""Tests for MISO/MIMO candidate enumeration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumeration.mimo import enumerate_connected, enumerate_exhaustive
from repro.enumeration.miso import maximal_misos
from repro.graphs.dfg import DataFlowGraph
from repro.isa.opcodes import Opcode
from tests.conftest import random_small_dfg, to_networkx


class TestMiso:
    def test_chain_yields_cone(self, chain_dfg):
        patterns = maximal_misos(chain_dfg, max_inputs=4)
        assert frozenset([0, 1, 2]) in patterns

    def test_input_constraint_limits_cone(self, chain_dfg):
        patterns = maximal_misos(chain_dfg, max_inputs=2)
        # Full chain needs 4 inputs; cones must stay within 2.
        for p in patterns:
            assert chain_dfg.io_count(p).inputs <= 2

    def test_all_patterns_single_output(self, diamond_dfg):
        for p in maximal_misos(diamond_dfg, max_inputs=4):
            assert diamond_dfg.io_count(p).outputs <= 1

    def test_no_singletons(self, diamond_dfg):
        for p in maximal_misos(diamond_dfg, max_inputs=4):
            assert len(p) >= 2

    def test_invalid_nodes_excluded(self, load_split_dfg):
        for p in maximal_misos(load_split_dfg, max_inputs=4):
            assert all(load_split_dfg.is_valid_node(n) for n in p)


class TestExhaustive:
    def test_all_results_feasible(self, diamond_dfg):
        for sub in enumerate_exhaustive(diamond_dfg, 4, 2):
            assert diamond_dfg.is_feasible(sub, 4, 2)

    def test_finds_full_diamond(self, diamond_dfg):
        subs = enumerate_exhaustive(diamond_dfg, 4, 2)
        assert frozenset([0, 1, 2, 3]) in subs

    def test_excludes_nonconvex(self, diamond_dfg):
        subs = enumerate_exhaustive(diamond_dfg, 8, 8)
        assert frozenset([0, 3]) not in subs

    def test_size_bounds_respected(self, diamond_dfg):
        subs = enumerate_exhaustive(diamond_dfg, 8, 8, min_size=3, max_size=3)
        assert all(len(s) == 3 for s in subs)

    def test_node_restriction(self, diamond_dfg):
        subs = enumerate_exhaustive(diamond_dfg, 8, 8, nodes=[0, 1])
        assert all(s <= {0, 1} for s in subs)


class TestConnected:
    def test_results_feasible_and_connected(self):
        dfg = random_small_dfg(3, 12)
        subs = enumerate_connected(dfg, 4, 2)
        import networkx as nx

        und = to_networkx(dfg).to_undirected()
        for s in subs:
            assert dfg.is_feasible(s, 4, 2)
            assert nx.is_connected(und.subgraph(s))

    def test_no_duplicates(self):
        dfg = random_small_dfg(5, 14)
        subs = enumerate_connected(dfg, 4, 2)
        assert len(subs) == len(set(subs))

    def test_candidate_cap_respected(self):
        dfg = random_small_dfg(7, 20)
        subs = enumerate_connected(dfg, 4, 2, max_candidates=5)
        assert len(subs) <= 5

    @given(st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_matches_exhaustive_connected_subset(self, seed):
        """Every connected feasible subgraph found exhaustively is found by
        the ESU enumerator on small graphs (with generous budgets)."""
        import networkx as nx

        dfg = random_small_dfg(seed, 8)
        esu = set(
            enumerate_connected(
                dfg, 4, 2, max_size=8, max_candidates=10000, max_visited=10**6
            )
        )
        und = to_networkx(dfg).to_undirected()
        for sub in enumerate_exhaustive(dfg, 4, 2):
            sub_nodes = set(sub)
            if nx.is_connected(und.subgraph(sub_nodes)):
                assert sub in esu

    def test_deterministic(self):
        dfg = random_small_dfg(11, 16)
        a = enumerate_connected(dfg, 4, 2)
        b = enumerate_connected(dfg, 4, 2)
        assert a == b


class TestBitsetEngine:
    """Differential tests: bitset engine ≡ reference engine ≡ exhaustive."""

    GENEROUS = dict(max_candidates=100000, max_visited=10**7)

    def test_unknown_engine_rejected(self, diamond_dfg):
        with pytest.raises(ValueError):
            enumerate_connected(diamond_dfg, 4, 2, engine="magic")

    @given(st.integers(0, 150), st.sampled_from([(2, 1), (3, 2), (4, 2), (8, 8)]))
    @settings(max_examples=60, deadline=None)
    def test_identical_to_reference(self, seed, io):
        """Same feasible sets, same counts, same ordering as the reference
        engine across I/O-constraint combinations (generous budgets)."""
        max_inputs, max_outputs = io
        dfg = random_small_dfg(seed, 10)
        ref = enumerate_connected(
            dfg, max_inputs, max_outputs, max_size=10,
            engine="reference", **self.GENEROUS,
        )
        bit = enumerate_connected(
            dfg, max_inputs, max_outputs, max_size=10,
            engine="fast", **self.GENEROUS,
        )
        assert bit == ref

    @given(st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_equals_connected_subset_of_exhaustive(self, seed):
        """The bitset engine returns exactly the connected members of the
        exhaustive ground truth."""
        import networkx as nx

        dfg = random_small_dfg(seed, 8)
        bit = enumerate_connected(
            dfg, 4, 2, max_size=8, engine="fast", **self.GENEROUS
        )
        und = to_networkx(dfg).to_undirected()
        expected = sorted(
            (
                s
                for s in enumerate_exhaustive(dfg, 4, 2)
                if nx.is_connected(und.subgraph(set(s)))
            ),
            key=lambda s: (-len(s), sorted(s)),
        )
        assert bit == expected

    def test_invalid_nodes_excluded(self, load_split_dfg):
        for sub in enumerate_connected(load_split_dfg, 8, 8, engine="fast"):
            assert all(load_split_dfg.is_valid_node(n) for n in sub)

    def test_stats_counters_populated(self):
        dfg = random_small_dfg(5, 12)
        stats: dict = {}
        found = enumerate_connected(dfg, 4, 2, engine="fast", stats=stats)
        # ``feasible`` counts pre-dedup visits, so it can exceed the result.
        assert stats["feasible"] >= len(found)
        assert stats["visited"] >= stats["feasible"]

    def test_masks_match_graph_structure(self):
        dfg = random_small_dfg(17, 12)
        m = dfg.bitset_masks()
        g = to_networkx(dfg)
        import networkx as nx

        for n in dfg.nodes:
            assert m.pred[n] == sum(1 << p for p in dfg.preds(n))
            assert m.succ[n] == sum(1 << s for s in dfg.succs(n))
            assert m.anc[n] == sum(1 << a for a in nx.ancestors(g, n))
            assert m.desc[n] == sum(1 << d for d in nx.descendants(g, n))

    def test_masks_invalidated_on_mutation(self, chain_dfg):
        from repro.isa.opcodes import Opcode

        before = chain_dfg.bitset_masks()
        chain_dfg.add_op(Opcode.ADD, preds=[2])
        after = chain_dfg.bitset_masks()
        assert after.full != before.full
        chain_dfg.set_live_out(3)
        assert chain_dfg.bitset_masks().live_out != after.live_out
