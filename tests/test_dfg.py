"""Tests for the dataflow-graph substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.dfg import DataFlowGraph
from repro.isa.opcodes import Opcode, op_info
from tests.conftest import random_small_dfg, to_networkx


class TestConstruction:
    def test_insertion_order_is_topological(self, chain_dfg):
        for n in chain_dfg.nodes:
            assert all(p < n for p in chain_dfg.preds(n))

    def test_unknown_predecessor_rejected(self):
        dfg = DataFlowGraph()
        with pytest.raises(GraphError):
            dfg.add_op(Opcode.ADD, preds=[0])

    def test_forward_reference_rejected(self):
        dfg = DataFlowGraph()
        dfg.add_op(Opcode.ADD)
        with pytest.raises(GraphError):
            dfg.add_op(Opcode.ADD, preds=[5])

    def test_external_inputs_default_from_arity(self):
        dfg = DataFlowGraph()
        n0 = dfg.add_op(Opcode.ADD)  # 2 external operands
        n1 = dfg.add_op(Opcode.ADD, preds=[n0])  # 1 external
        assert dfg.external_inputs(n0) == 2
        assert dfg.external_inputs(n1) == 1

    def test_negative_external_inputs_rejected(self):
        dfg = DataFlowGraph()
        with pytest.raises(GraphError):
            dfg.add_op(Opcode.ADD, external_inputs=-1)

    def test_duplicate_preds_deduplicated(self):
        dfg = DataFlowGraph()
        n0 = dfg.add_op(Opcode.ADD)
        n1 = dfg.add_op(Opcode.MUL, preds=[n0, n0])
        assert dfg.preds(n1) == [n0]

    def test_succs_mirror_preds(self, diamond_dfg):
        assert diamond_dfg.succs(0) == [1, 2]
        assert diamond_dfg.preds(3) == [1, 2]

    def test_sw_cycles_follows_add_op(self):
        """The cached total is dropped by add_op, not kept stale."""
        dfg = DataFlowGraph()
        n0 = dfg.add_op(Opcode.ADD)
        before = dfg.sw_cycles()
        dfg.add_op(Opcode.MUL, preds=[n0])
        assert dfg.sw_cycles() == before + op_info(Opcode.MUL).sw_cycles
        assert dfg.sw_cycles() == sum(
            op_info(dfg.op(n)).sw_cycles for n in dfg.nodes
        )


class TestIOCount:
    def test_chain_full_io(self, chain_dfg):
        io = chain_dfg.io_count([0, 1, 2])
        # Externals: n0 has 2, n1 has 1, n2 has 1 -> 4 inputs; only n2's
        # value leaves (it is a sink with no live_out -> 0 outputs).
        assert io.inputs == 4
        assert io.outputs == 0

    def test_interior_cut_counts_producer(self, chain_dfg):
        io = chain_dfg.io_count([1, 2])
        # Producer n0 is one input; n1's own external operand and n2's.
        assert io.inputs == 3

    def test_output_counted_when_consumed_outside(self, chain_dfg):
        io = chain_dfg.io_count([0, 1])
        assert io.outputs == 1  # n1 feeds n2 outside

    def test_live_out_counts_as_output(self, chain_dfg):
        chain_dfg.set_live_out(2)
        io = chain_dfg.io_count([0, 1, 2])
        assert io.outputs == 1

    def test_diamond_single_output(self, diamond_dfg):
        io = diamond_dfg.io_count([0, 1, 2, 3])
        assert io.outputs == 0  # n3 is a sink, not live-out
        io = diamond_dfg.io_count([0, 1, 2])
        assert io.outputs == 2  # n1 and n2 both feed n3


class TestConvexity:
    def test_singletons_convex(self, diamond_dfg):
        for n in diamond_dfg.nodes:
            assert diamond_dfg.is_convex([n])

    def test_diamond_hole_not_convex(self, diamond_dfg):
        assert not diamond_dfg.is_convex([0, 3])
        assert not diamond_dfg.is_convex([0, 1, 3])  # n2 path escapes

    def test_full_diamond_convex(self, diamond_dfg):
        assert diamond_dfg.is_convex([0, 1, 2, 3])

    def test_parallel_branches_convex(self, diamond_dfg):
        assert diamond_dfg.is_convex([1, 2])

    @given(st.integers(0, 200), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_convexity_matches_bruteforce(self, seed, n):
        """Fast convexity check agrees with a path-based definition."""
        import itertools

        import networkx as nx

        dfg = random_small_dfg(seed, n)
        g = to_networkx(dfg)
        rng_nodes = list(dfg.nodes)
        # Try a handful of subsets per graph.
        import random as _random

        rng = _random.Random(seed)
        for _ in range(8):
            size = rng.randint(1, n)
            sub = set(rng.sample(rng_nodes, size))
            # Brute force: exists path u ->* v (u, v in sub) through outside?
            brute_convex = True
            for u in sub:
                for v in sub:
                    if u == v:
                        continue
                    for path in nx.all_simple_paths(g, u, v, cutoff=n):
                        if any(x not in sub for x in path[1:-1]):
                            brute_convex = False
                            break
                    if not brute_convex:
                        break
                if not brute_convex:
                    break
            assert dfg.is_convex(sub) == brute_convex


class TestFeasibility:
    def test_io_limits_enforced(self, chain_dfg):
        assert chain_dfg.is_feasible([0, 1, 2], max_inputs=4, max_outputs=2)
        assert not chain_dfg.is_feasible([0, 1, 2], max_inputs=3, max_outputs=2)

    def test_invalid_node_rejected(self, load_split_dfg):
        assert not load_split_dfg.is_feasible([1, 2], 4, 2)  # node 2 is LOAD

    def test_empty_set_infeasible(self, chain_dfg):
        assert not chain_dfg.is_feasible([], 4, 2)


class TestRegions:
    def test_load_splits_regions(self, load_split_dfg):
        regions = load_split_dfg.regions()
        assert sorted(map(sorted, regions)) == [[0, 1], [3, 4]]

    def test_regions_exclude_invalid_nodes(self, load_split_dfg):
        for region in load_split_dfg.regions():
            assert all(load_split_dfg.is_valid_node(n) for n in region)

    def test_single_region_when_connected(self, diamond_dfg):
        assert diamond_dfg.regions() == [[0, 1, 2, 3]]

    def test_regions_sorted_by_size(self):
        dfg = DataFlowGraph()
        a = dfg.add_op(Opcode.ADD)
        dfg.add_op(Opcode.LOAD)
        b = dfg.add_op(Opcode.ADD)
        c = dfg.add_op(Opcode.MUL, preds=[b])
        d = dfg.add_op(Opcode.SUB, preds=[c])
        regions = dfg.regions()
        assert len(regions[0]) >= len(regions[-1])


class TestStructuralKey:
    def test_isomorphic_subgraphs_same_key(self):
        dfg = DataFlowGraph()
        # Two identical add->mul chains.
        a0 = dfg.add_op(Opcode.ADD)
        a1 = dfg.add_op(Opcode.MUL, preds=[a0])
        b0 = dfg.add_op(Opcode.ADD)
        b1 = dfg.add_op(Opcode.MUL, preds=[b0])
        assert dfg.structural_key([a0, a1]) == dfg.structural_key([b0, b1])

    def test_different_shapes_different_keys(self, diamond_dfg):
        assert diamond_dfg.structural_key([0, 1]) != diamond_dfg.structural_key([1, 2])

    def test_key_independent_of_node_order(self, diamond_dfg):
        assert diamond_dfg.structural_key([1, 0]) == diamond_dfg.structural_key([0, 1])
