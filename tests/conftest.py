"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import faulthandler
import os
import random

import pytest

from repro import obs
from repro.graphs.dfg import DataFlowGraph
from repro.graphs.program import Block, Loop, Program, Seq
from repro.isa.opcodes import Opcode


#: Per-test hang bound in seconds: about 8x the slowest test.  A test
#: still running when it expires dumps every thread's stack and ends the
#: run with a failure instead of letting a hang pass slowly.
TEST_TIMEOUT_S = 60

#: Where the watchdog writes: a duplicate of the terminal's stderr, taken
#: in ``pytest_configure`` while output capture is suspended (a dump into
#: a per-test capture buffer would be lost when the process exits).
_hang_dump_fd = 2


def pytest_configure(config):
    global _hang_dump_fd
    _hang_dump_fd = os.dup(2)


def pytest_unconfigure(config):
    os.close(_hang_dump_fd)


@pytest.fixture(autouse=True)
def _hang_bound():
    """Arm a watchdog for each test (``pytest-timeout`` is not a dependency)."""
    faulthandler.dump_traceback_later(
        TEST_TIMEOUT_S, exit=True, file=_hang_dump_fd
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def _fresh_obs_epoch():
    """Start every test in a fresh observability epoch.

    Zeroed metrics, re-armed one-shot warnings and an empty span buffer
    make warn-once and counter assertions order-independent across tests.
    """
    obs.reset()
    yield
    obs.disable_tracing()


@pytest.fixture
def chain_dfg() -> DataFlowGraph:
    """add -> mul -> sub chain with external inputs.

    Node 0: ADD(ext, ext); node 1: MUL(n0, ext); node 2: SUB(n1, ext).
    """
    dfg = DataFlowGraph("chain")
    n0 = dfg.add_op(Opcode.ADD)
    n1 = dfg.add_op(Opcode.MUL, preds=[n0])
    dfg.add_op(Opcode.SUB, preds=[n1])
    return dfg


@pytest.fixture
def diamond_dfg() -> DataFlowGraph:
    """Diamond: n0 feeds n1 and n2; both feed n3.

    Classic convexity test shape: {n1, n2, n3} is convex, {n0, n3} is not.
    """
    dfg = DataFlowGraph("diamond")
    n0 = dfg.add_op(Opcode.ADD)
    n1 = dfg.add_op(Opcode.SHL, preds=[n0])
    n2 = dfg.add_op(Opcode.XOR, preds=[n0])
    dfg.add_op(Opcode.OR, preds=[n1, n2])
    return dfg


@pytest.fixture
def load_split_dfg() -> DataFlowGraph:
    """Two valid clusters separated by an (invalid) load.

    Nodes 0,1 form region A; node 2 is a LOAD; nodes 3,4 form region B fed
    by the load.
    """
    dfg = DataFlowGraph("split")
    a0 = dfg.add_op(Opcode.ADD)
    a1 = dfg.add_op(Opcode.MUL, preds=[a0])
    ld = dfg.add_op(Opcode.LOAD, preds=[a1])
    b0 = dfg.add_op(Opcode.SUB, preds=[ld])
    dfg.add_op(Opcode.XOR, preds=[b0])
    return dfg


def random_small_dfg(seed: int, n: int = 10) -> DataFlowGraph:
    """A random, valid-op-only DAG for property tests."""
    rng = random.Random(seed)
    valid_ops = [
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.XOR,
        Opcode.AND,
        Opcode.SHL,
        Opcode.CMP,
    ]
    dfg = DataFlowGraph(f"rand{seed}")
    for i in range(n):
        preds = []
        if i > 0:
            count = rng.randint(0, min(2, i))
            preds = rng.sample(range(i), count)
        dfg.add_op(rng.choice(valid_ops), preds=preds)
    return dfg


def to_networkx(dfg: DataFlowGraph):
    """The dependence graph as a networkx DiGraph (node ids preserved);
    the graph-theory oracle for the convexity and connectivity tests."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(dfg.nodes)
    for n in dfg.nodes:
        for p in dfg.preds(n):
            g.add_edge(p, n)
    return g


@pytest.fixture
def tiny_program() -> Program:
    """init block; loop(bound=10) around one kernel block; exit block."""
    def block(ops: int, seed: int) -> Block:
        return Block(random_small_dfg(seed, ops))

    return Program(
        "tiny",
        Seq([block(4, 1), Loop(block(8, 2), bound=10, avg_trip=8.0), block(3, 3)]),
    )
