"""Custom-instruction candidates and candidate libraries.

A *candidate* is a feasible induced subgraph of one basic block's DFG,
annotated with its hardware cost and its per-execution cycle gain.  A
*candidate library* aggregates candidates over a program's (hot) basic
blocks, weighting gains by block execution frequency — the benefit of a
candidate is ``(sw_cycles - hw_cycles) x frequency`` (thesis Section 2.3.2).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.graphs.dfg import DataFlowGraph, induced_structural_key
from repro.isa.costmodel import DEFAULT_COST_MODEL, HardwareCostModel

__all__ = ["Candidate", "make_candidate", "CandidateLibrary"]


@dataclass(frozen=True)
class Candidate:
    """One feasible custom-instruction candidate.

    Attributes:
        block_index: index of the owning basic block within its program.
        nodes: member node ids within the block's DFG.
        sw_cycles: software latency of the covered operations.
        hw_cycles: latency of the custom instruction in processor cycles.
        area: hardware area in adder units.
        inputs / outputs: operand counts.
        frequency: execution count of the owning block (profile weight).
        structural_key: canonical key; equal keys mean isomorphic datapaths.
    """

    block_index: int
    nodes: frozenset[int]
    sw_cycles: int
    hw_cycles: int
    area: float
    inputs: int
    outputs: int
    frequency: float = 1.0
    structural_key: tuple = ()

    @property
    def gain_per_exec(self) -> int:
        """Cycles saved each time the owning block executes."""
        return self.sw_cycles - self.hw_cycles

    @property
    def total_gain(self) -> float:
        """Cycles saved over the whole profile."""
        return self.gain_per_exec * self.frequency

    @property
    def size(self) -> int:
        """Number of primitive operations covered."""
        return len(self.nodes)

    def overlaps(self, other: "Candidate") -> bool:
        """True if the two candidates cover a common operation.

        Overlapping candidates from the same block conflict: a base operation
        is covered by at most one custom instruction (thesis Section 2.3.2).
        """
        return self.block_index == other.block_index and bool(
            self.nodes & other.nodes
        )


def make_candidate(
    dfg: DataFlowGraph,
    nodes: Iterable[int],
    block_index: int = 0,
    frequency: float = 1.0,
    model: HardwareCostModel = DEFAULT_COST_MODEL,
) -> Candidate:
    """Build a :class:`Candidate` from a node set (assumed feasible).

    A plain :class:`HardwareCostModel` is evaluated in the block's bit
    space: one pass over the member bits in ascending id order reads the
    per-node tables of :meth:`DataFlowGraph.bitset_masks` and yields the
    cost (:meth:`HardwareCostModel.subgraph_cost`), the operand counts
    (:meth:`DataFlowGraph.io_count`) and the structural key
    (:func:`induced_structural_key`), equal field for field to what those
    reference functions return.  A model subclass may override any cost
    primitive, so it is priced through its own ``subgraph_cost``.
    """
    node_set = nodes if isinstance(nodes, frozenset) else frozenset(nodes)
    if type(model) is not HardwareCostModel:
        node_list = sorted(node_set)
        preds = {n: [p for p in dfg.preds(n) if p in node_set] for n in node_list}
        ops = {n: dfg.op(n) for n in node_list}
        cost = model.subgraph_cost(node_list, preds, ops)
        io = dfg.io_count(node_set)
        return Candidate(
            block_index=block_index,
            nodes=node_set,
            sw_cycles=cost.sw_cycles,
            hw_cycles=cost.hw_cycles,
            area=cost.area,
            inputs=io.inputs,
            outputs=io.outputs,
            frequency=frequency,
            structural_key=induced_structural_key(node_list, preds, ops),
        )
    m = dfg.bitset_masks()
    pred = m.pred
    succ = m.succ
    live_out = m.live_out
    ext_inp = m.external_inputs
    op_value = m.op_value
    sw_cycles = m.sw_cycles
    hw_delay = m.hw_delay
    hw_area = m.hw_area
    mask = 0
    for n in node_set:
        mask |= 1 << n
    outside = ~mask
    sw = 0
    areas = []
    longest = 0.0
    finish: dict[int, float] = {}
    label: dict[int, tuple] = {}
    pred_union = 0
    live_ins = 0
    outputs = 0
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        n = low.bit_length() - 1
        pm = pred[n]
        pred_union |= pm
        pm &= mask
        start = 0.0
        if pm:
            in_labels = []
            while pm:
                plow = pm & -pm
                pm ^= plow
                p = plow.bit_length() - 1
                t = finish[p]
                if t > start:
                    start = t
                in_labels.append(label[p])
            in_labels.sort()
            label[n] = (op_value[n], tuple(in_labels))
        else:
            label[n] = (op_value[n], ())
        end = start + hw_delay[n]
        finish[n] = end
        if end > longest:
            longest = end
        sw += sw_cycles[n]
        areas.append(hw_area[n])
        live_ins += ext_inp[n]
        if live_out & low or succ[n] & outside:
            outputs += 1
    return Candidate(
        block_index=block_index,
        nodes=node_set,
        sw_cycles=sw,
        hw_cycles=model.hw_cycles(longest),
        # The builtin sum, over the same ascending order as subgraph_area:
        # from Python 3.12 it compensates float rounding, so a running
        # ``+=`` could differ from the reference in the last bit.
        area=sum(areas),
        inputs=(pred_union & outside).bit_count() + live_ins,
        outputs=outputs,
        frequency=frequency,
        structural_key=tuple(sorted(label.values())),
    )


class CandidateLibrary:
    """An ordered collection of candidates with conflict information."""

    def __init__(self, candidates: Sequence[Candidate] = ()) -> None:
        self._candidates = list(candidates)

    def __len__(self) -> int:
        return len(self._candidates)

    def __iter__(self):
        return iter(self._candidates)

    def __getitem__(self, i: int) -> Candidate:
        return self._candidates[i]

    def add(self, candidate: Candidate) -> None:
        self._candidates.append(candidate)

    def extend(self, candidates: Iterable[Candidate]) -> None:
        self._candidates.extend(candidates)

    @property
    def candidates(self) -> list[Candidate]:
        return list(self._candidates)

    def profitable(self) -> "CandidateLibrary":
        """Sub-library of candidates with strictly positive total gain."""
        return CandidateLibrary([c for c in self._candidates if c.total_gain > 0])

    def conflicts(self) -> list[tuple[int, int]]:
        """Pairs of candidate indices that cover a common operation."""
        by_block: dict[int, list[int]] = {}
        for i, c in enumerate(self._candidates):
            by_block.setdefault(c.block_index, []).append(i)
        pairs: list[tuple[int, int]] = []
        for indices in by_block.values():
            for a in range(len(indices)):
                for b in range(a + 1, len(indices)):
                    i, j = indices[a], indices[b]
                    if self._candidates[i].nodes & self._candidates[j].nodes:
                        pairs.append((i, j))
        return pairs

    def isomorphism_classes(self) -> dict[tuple, list[int]]:
        """Group candidate indices by structural key (shared datapaths)."""
        classes: dict[tuple, list[int]] = {}
        for i, c in enumerate(self._candidates):
            classes.setdefault(c.structural_key, []).append(i)
        return classes
