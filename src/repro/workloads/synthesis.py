"""Deterministic synthetic program synthesis.

The thesis compiles MiBench/MediaBench/WCET benchmarks with Trimaran and
feeds their DFG/CFG/profiles to the customization algorithms.  Offline, we
substitute seeded synthetic program models with matching *structure*: basic
blocks whose dataflow graphs have realistic shapes (operand locality, a mix
of arithmetic/logic/memory operations per application domain) and sizes
matching the published per-benchmark statistics (thesis Table 5.1).  All the
customization algorithms consume only this structural information, so the
synthetic models exercise identical code paths.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections.abc import Mapping
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.graphs.dfg import DataFlowGraph
from repro.graphs.program import Block, Loop, Program, Seq
from repro.isa.opcodes import Opcode, op_info

__all__ = [
    "OP_MIXES",
    "ProgramSpec",
    "seed_for",
    "synth_dfg",
    "synth_pipeline_program",
    "synth_program",
]


#: Opcode mixes per application domain.  Weights need not sum to one.
OP_MIXES: dict[str, dict[Opcode, float]] = {
    # Ciphers / hashes: bit-twiddling heavy, few multiplies.
    "crypto": {
        Opcode.XOR: 0.22,
        Opcode.AND: 0.10,
        Opcode.OR: 0.08,
        Opcode.NOT: 0.03,
        Opcode.SHL: 0.09,
        Opcode.SHR: 0.09,
        Opcode.ROTL: 0.05,
        Opcode.ROTR: 0.04,
        Opcode.ADD: 0.15,
        Opcode.SUB: 0.04,
        Opcode.CONST: 0.04,
        Opcode.LOAD: 0.05,
        Opcode.STORE: 0.02,
    },
    # Signal processing / codecs: multiply-accumulate dominated.
    "dsp": {
        Opcode.MUL: 0.13,
        Opcode.MAC: 0.06,
        Opcode.ADD: 0.25,
        Opcode.SUB: 0.10,
        Opcode.SHR: 0.08,
        Opcode.SHL: 0.05,
        Opcode.MIN: 0.02,
        Opcode.MAX: 0.02,
        Opcode.CMP: 0.05,
        Opcode.SELECT: 0.04,
        Opcode.CONST: 0.05,
        Opcode.LOAD: 0.10,
        Opcode.STORE: 0.05,
    },
    # Image / media kernels: mixed integer arithmetic with saturation.
    "media": {
        Opcode.MUL: 0.08,
        Opcode.ADD: 0.22,
        Opcode.SUB: 0.10,
        Opcode.SHR: 0.08,
        Opcode.SHL: 0.06,
        Opcode.AND: 0.06,
        Opcode.OR: 0.04,
        Opcode.MIN: 0.04,
        Opcode.MAX: 0.04,
        Opcode.CMP: 0.05,
        Opcode.SELECT: 0.05,
        Opcode.CONST: 0.04,
        Opcode.LOAD: 0.10,
        Opcode.STORE: 0.04,
    },
    # Control-dominated integer code (dictionaries, compression).
    "control": {
        Opcode.ADD: 0.20,
        Opcode.SUB: 0.10,
        Opcode.CMP: 0.12,
        Opcode.SELECT: 0.08,
        Opcode.AND: 0.08,
        Opcode.OR: 0.05,
        Opcode.XOR: 0.05,
        Opcode.SHL: 0.04,
        Opcode.SHR: 0.04,
        Opcode.CONST: 0.06,
        Opcode.LOAD: 0.12,
        Opcode.STORE: 0.06,
    },
}


@dataclass(frozen=True)
class ProgramSpec:
    """Specification of one synthetic benchmark program.

    Attributes:
        name: benchmark name.
        domain: op-mix key in :data:`OP_MIXES`.
        max_bb: size of the largest basic block in primitive instructions.
        avg_bb: mean basic-block size target.
        n_kernel_blocks: blocks inside the hot loop.
        n_cold_blocks: straight-line blocks outside the loop.
        wcet_cycles: target worst-case cycle count (sets the loop bound).
        avg_trip_ratio: average/worst-case trip-count ratio for profiling.
    """

    name: str
    domain: str
    max_bb: int
    avg_bb: int
    n_kernel_blocks: int = 3
    n_cold_blocks: int = 4
    wcet_cycles: float = 1.0e6
    avg_trip_ratio: float = 0.8

    def __post_init__(self) -> None:
        if self.domain not in OP_MIXES:
            raise WorkloadError(
                f"unknown domain {self.domain!r}; choose from {sorted(OP_MIXES)}"
            )
        if self.max_bb < 2 or self.avg_bb < 2:
            raise WorkloadError("basic-block sizes must be at least 2")


def seed_for(name: str, salt: int = 0) -> int:
    """Stable 64-bit seed derived from a benchmark name."""
    digest = hashlib.sha256(f"{name}:{salt}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def synth_dfg(
    rng: random.Random,
    n_ops: int,
    mix: Mapping[Opcode, float],
    name: str = "",
    locality: int = 8,
) -> DataFlowGraph:
    """Generate one basic block's dataflow graph.

    Nodes are appended in topological order.  Each operand of a new node
    connects to a recently produced value with high probability (operand
    locality window), otherwise it is an external live-in.  A fraction of
    sink nodes are marked live-out.

    Args:
        rng: seeded random source.
        n_ops: number of primitive operations.
        mix: opcode weights.
        name: DFG label.
        locality: producer window size for operand selection.
    """
    dfg = DataFlowGraph(name=name)
    producers: list[int] = []  # nodes that yield a register value
    # Cumulative weights built once per call: the same floats (and so the
    # same RNG stream) random.choices derives from ``weights=`` per draw.
    ops = list(mix)
    cum_weights = list(itertools.accumulate(mix[o] for o in ops))
    for _ in range(n_ops):
        op = rng.choices(ops, cum_weights=cum_weights, k=1)[0]
        arity = op_info(op).arity
        preds: list[int] = []
        if producers:
            window = producers[-locality:]
            for _slot in range(arity):
                # 70%: consume a recent in-block value; else external input.
                if window and rng.random() < 0.7:
                    choice = rng.choice(window)
                    if choice not in preds:
                        preds.append(choice)
        node = dfg.add_op(op, preds=preds)
        if op not in (Opcode.STORE, Opcode.BRANCH):
            producers.append(node)
    # Mark ~20% of pure sinks live-out so they count as outputs.
    for node in dfg.nodes:
        if not dfg.succs(node) and rng.random() < 0.2:
            dfg.set_live_out(node)
    return dfg


def synth_program(spec: ProgramSpec, salt: int = 0) -> Program:
    """Generate the full synthetic program for *spec*.

    Structure: a few cold straight-line blocks, then a hot counted loop whose
    body holds the kernel blocks (including the largest block), then a cold
    epilogue.  The loop bound is chosen so the program WCET approximates
    ``spec.wcet_cycles``.
    """
    rng = random.Random(seed_for(spec.name, salt))
    mix = OP_MIXES[spec.domain]

    def block(size: int, label: str) -> Block:
        return Block(synth_dfg(rng, size, mix, name=f"{spec.name}:{label}"))

    def cold_size() -> int:
        return max(2, int(rng.gauss(spec.avg_bb * 0.6, spec.avg_bb * 0.2)))

    def kernel_size() -> int:
        return max(3, int(rng.gauss(spec.avg_bb * 1.5, spec.avg_bb * 0.5)))

    prologue = [block(cold_size(), f"pro{i}") for i in range(spec.n_cold_blocks // 2)]
    epilogue = [
        block(cold_size(), f"epi{i}")
        for i in range(spec.n_cold_blocks - spec.n_cold_blocks // 2)
    ]
    kernel_blocks = [block(spec.max_bb, "kern0")]
    kernel_blocks += [
        block(kernel_size(), f"kern{i}") for i in range(1, spec.n_kernel_blocks)
    ]
    body = Seq(list(kernel_blocks))
    body_cycles = sum(b.dfg.sw_cycles() for b in kernel_blocks)
    outer_cycles = sum(b.dfg.sw_cycles() for b in prologue + epilogue)
    bound = max(1, round((spec.wcet_cycles - outer_cycles) / body_cycles))
    loop = Loop(body, bound=bound, avg_trip=max(1.0, bound * spec.avg_trip_ratio))
    root = Seq([*prologue, loop, *epilogue])
    return Program(spec.name, root)


def synth_pipeline_program(
    name: str,
    n_kernels: int = 6,
    frames: int = 24,
    domain: str = "media",
    kernel_size: tuple[int, int] = (40, 160),
    inner_trip: tuple[int, int] = (8, 64),
    salt: int = 0,
) -> Program:
    """Generate a multi-kernel streaming program (JPEG-like pipeline).

    Structure: an outer per-frame loop whose body is a sequence of
    *n_kernels* inner counted loops, each wrapping one kernel basic block.
    Every inner loop is a distinct hot loop, which is exactly the shape the
    Chapter 6 extraction + partitioning flow expects (several hot loops
    alternating per frame).

    Args:
        name: program name.
        n_kernels: number of pipeline stages (inner loops).
        frames: outer-loop trip count.
        domain: op-mix key.
        kernel_size: (min, max) operations per kernel block.
        inner_trip: (min, max) inner-loop trip count.
        salt: extra seed material.
    """
    rng = random.Random(seed_for(name, salt) ^ 0x9E3779B9)
    mix = OP_MIXES[domain]
    stages = []
    for k in range(n_kernels):
        size = rng.randint(*kernel_size)
        block = Block(synth_dfg(rng, size, mix, name=f"{name}:stage{k}"))
        trip = rng.randint(*inner_trip)
        stages.append(Loop(block, bound=trip, avg_trip=float(trip)))
    prologue = Block(synth_dfg(rng, 8, OP_MIXES["control"], name=f"{name}:init"))
    frame_loop = Loop(Seq(list(stages)), bound=frames, avg_trip=float(frames))
    return Program(name, Seq([prologue, frame_loop]))
