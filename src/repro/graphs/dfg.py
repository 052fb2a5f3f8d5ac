"""Dataflow graphs (DFGs) of basic blocks.

A basic block is represented as a directed acyclic graph whose nodes are
primitive operations and whose edges are data dependencies (thesis
Section 2.2).  A *custom instruction* candidate is an induced subgraph that
satisfies three architectural constraints:

* **input constraint** — at most ``Nin`` distinct input operands (register
  file read ports);
* **output constraint** — at most ``Nout`` values consumed outside the
  subgraph (register file write ports);
* **convexity** — no dataflow path may leave the subgraph and re-enter it,
  otherwise the instruction cannot execute atomically.

Operations that access memory or transfer control are *invalid* and can never
be part of a custom instruction; they split the DFG into *regions* (thesis
Section 5.2.1).

Adjacency is kept in plain lists (node ids are dense ints in topological
order) because candidate enumeration performs millions of subgraph queries.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.errors import GraphError
from repro.isa.opcodes import OP_TABLE, Opcode, is_valid_op, op_info

__all__ = ["DataFlowGraph", "DFGMasks", "IOCount", "induced_structural_key"]


@dataclass(frozen=True)
class IOCount:
    """Input/output operand counts of a candidate subgraph."""

    inputs: int
    outputs: int


@dataclass(frozen=True)
class DFGMasks:
    """Per-node bitmask views of a DFG, for bit-parallel subgraph queries,
    plus the per-node cost tables candidate costing reads beside them.

    Node ``n`` corresponds to bit ``1 << n``.  All masks are restricted to
    ``full`` (non-negative), so ``int.bit_count`` is always meaningful.

    Attributes:
        full: mask with one bit per node.
        valid: nodes whose opcode may appear in a custom instruction.
        live_out: nodes whose value escapes the basic block.
        pred / succ: direct predecessor / successor mask per node.
        anc / desc: strict transitive ancestor / descendant mask per node.
        adj_valid: undirected adjacency restricted to valid nodes.
        external_inputs: live-in operand count per node.
        op_value / sw_cycles / hw_delay / hw_area: each node's opcode value
            and its :func:`~repro.isa.opcodes.op_info` cost primitives.
    """

    full: int
    valid: int
    live_out: int
    pred: tuple[int, ...]
    succ: tuple[int, ...]
    anc: tuple[int, ...]
    desc: tuple[int, ...]
    adj_valid: tuple[int, ...]
    external_inputs: tuple[int, ...]
    op_value: tuple[str, ...]
    sw_cycles: tuple[int, ...]
    hw_delay: tuple[float, ...]
    hw_area: tuple[float, ...]


#: Each opcode's row of the :class:`DFGMasks` cost tables.
_COST_ROW = {
    op: (op.value, info.sw_cycles, info.hw_delay, info.hw_area)
    for op, info in OP_TABLE.items()
}


@dataclass
class _Node:
    op: Opcode
    live_out: bool = False
    #: Number of operands fed from outside the block (register live-ins /
    #: immediates); derived from arity minus in-graph predecessors unless
    #: explicitly overridden at construction.
    external_inputs: int = 0


class DataFlowGraph:
    """A DAG of primitive operations with data-dependence edges.

    Nodes are dense integer ids assigned in insertion order, which is also a
    valid topological order (an edge may only point from an existing node to
    the new node).

    Args:
        name: optional label (used in reports and repr).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._nodes: list[_Node] = []
        self._preds: list[list[int]] = []
        self._succs: list[list[int]] = []
        self._masks: DFGMasks | None = None
        self._sw_cycles: int | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_op(
        self,
        op: Opcode,
        preds: Iterable[int] = (),
        live_out: bool = False,
        external_inputs: int | None = None,
    ) -> int:
        """Append an operation node.

        Args:
            op: the primitive opcode.
            preds: ids of producer nodes this operation consumes.
            live_out: True if the value escapes the basic block (is written
                to a register read by later blocks).
            external_inputs: number of operands sourced from outside the
                block.  Defaults to ``arity - len(preds)`` (never negative).

        Returns:
            The new node id.

        Raises:
            GraphError: if a predecessor id does not exist (which would break
                the topological-order invariant) or operand counts are
                inconsistent.
        """
        preds = list(dict.fromkeys(preds))
        node_id = len(self._nodes)
        for p in preds:
            if not 0 <= p < node_id:
                raise GraphError(
                    f"predecessor {p} of new node {node_id} does not exist"
                )
        arity = op_info(op).arity
        if external_inputs is None:
            external_inputs = max(0, arity - len(preds))
        if external_inputs < 0:
            raise GraphError("external_inputs must be non-negative")
        self._nodes.append(
            _Node(op=op, live_out=live_out, external_inputs=external_inputs)
        )
        self._preds.append(preds)
        self._succs.append([])
        for p in preds:
            self._succs[p].append(node_id)
        self._masks = None
        self._sw_cycles = None
        return node_id

    def set_live_out(self, node: int, live_out: bool = True) -> None:
        """Mark *node*'s value as escaping the basic block."""
        self._nodes[node].live_out = live_out
        self._masks = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataFlowGraph({self.name!r}, nodes={len(self)})"

    @property
    def nodes(self) -> range:
        """All node ids, in topological order."""
        return range(len(self._nodes))

    def op(self, node: int) -> Opcode:
        """Opcode of *node*."""
        return self._nodes[node].op

    def is_live_out(self, node: int) -> bool:
        """True if *node*'s value escapes the basic block."""
        return self._nodes[node].live_out

    def external_inputs(self, node: int) -> int:
        """Number of operands of *node* sourced from outside the block."""
        return self._nodes[node].external_inputs

    def preds(self, node: int) -> list[int]:
        """Producer nodes of *node*."""
        return list(self._preds[node])

    def succs(self, node: int) -> list[int]:
        """Consumer nodes of *node*."""
        return list(self._succs[node])

    def is_valid_node(self, node: int) -> bool:
        """True if *node* may be part of a custom instruction."""
        return is_valid_op(self._nodes[node].op)

    @property
    def valid_nodes(self) -> list[int]:
        """All nodes whose opcode may appear in a custom instruction."""
        return [n for n in self.nodes if self.is_valid_node(n)]

    def sw_cycles(self) -> int:
        """Total software latency of the block on the base processor
        (cached until the next :meth:`add_op`)."""
        if self._sw_cycles is None:
            self._sw_cycles = sum(op_info(n.op).sw_cycles for n in self._nodes)
        return self._sw_cycles

    def bitset_masks(self) -> DFGMasks:
        """Precomputed bitmask views of the graph (cached until mutation).

        Computed once per DFG in O(V·E) word operations and reused by the
        bitset enumeration engine, which replaces per-subgraph set algebra
        with O(1) big-int operations, and by candidate costing
        (:func:`repro.enumeration.patterns.make_candidate`), which reads the
        per-node cost tables.
        """
        if self._masks is not None:
            return self._masks
        n = len(self._nodes)
        full = (1 << n) - 1
        pred = [0] * n
        succ = [0] * n
        anc = [0] * n
        desc = [0] * n
        valid = 0
        live_out = 0
        for i, node in enumerate(self._nodes):
            bit = 1 << i
            if is_valid_op(node.op):
                valid |= bit
            if node.live_out:
                live_out |= bit
            pm = 0
            am = 0
            for p in self._preds[i]:
                pm |= 1 << p
                am |= anc[p] | (1 << p)
            pred[i] = pm
            anc[i] = am  # ids are topological, so anc[p] is final
            for s in self._succs[i]:
                succ[i] |= 1 << s
        for i in range(n - 1, -1, -1):
            dm = 0
            for s in self._succs[i]:
                dm |= desc[s] | (1 << s)
            desc[i] = dm
        adj_valid = [
            (pred[i] | succ[i]) & valid if valid >> i & 1 else 0 for i in range(n)
        ]
        op_value, sw_cycles, hw_delay, hw_area = (
            zip(*[_COST_ROW[nd.op] for nd in self._nodes]) if n else ((),) * 4
        )
        self._masks = DFGMasks(
            full=full,
            valid=valid,
            live_out=live_out,
            pred=tuple(pred),
            succ=tuple(succ),
            anc=tuple(anc),
            desc=tuple(desc),
            adj_valid=tuple(adj_valid),
            external_inputs=tuple(nd.external_inputs for nd in self._nodes),
            op_value=op_value,
            sw_cycles=sw_cycles,
            hw_delay=hw_delay,
            hw_area=hw_area,
        )
        return self._masks

    # ------------------------------------------------------------------
    # Subgraph queries
    # ------------------------------------------------------------------
    def io_count(self, subgraph: Iterable[int]) -> IOCount:
        """Input/output operand counts of an induced subgraph.

        Inputs are counted as: distinct producer nodes *outside* the subgraph
        feeding some node inside, plus every external (live-in) operand of a
        member node.  Outputs are the member nodes whose value is consumed by
        a node outside the subgraph or is live-out of the block.
        """
        sub = subgraph if isinstance(subgraph, (set, frozenset)) else set(subgraph)
        external_producers: set[int] = set()
        live_in_operands = 0
        outputs = 0
        for n in sub:
            node = self._nodes[n]
            live_in_operands += node.external_inputs
            for p in self._preds[n]:
                if p not in sub:
                    external_producers.add(p)
            if node.live_out:
                outputs += 1
            else:
                for s in self._succs[n]:
                    if s not in sub:
                        outputs += 1
                        break
        return IOCount(inputs=len(external_producers) + live_in_operands, outputs=outputs)

    def is_convex(self, subgraph: Iterable[int]) -> bool:
        """True if no path leaves *subgraph* and re-enters it.

        A subgraph ``S`` is convex iff no node outside ``S`` lies on a path
        between two members.  Checked by a forward BFS from edges escaping
        ``S``, bounded by the maximum member id (ids are topological, so a
        re-entrant path must pass below it).
        """
        sub = subgraph if isinstance(subgraph, (set, frozenset)) else set(subgraph)
        if len(sub) <= 1:
            return True
        hi = max(sub)
        frontier: list[int] = []
        seen: set[int] = set()
        for n in sub:
            for s in self._succs[n]:
                if s not in sub and s < hi and s not in seen:
                    seen.add(s)
                    frontier.append(s)
        while frontier:
            cur = frontier.pop()
            for s in self._succs[cur]:
                if s in sub:
                    return False
                if s < hi and s not in seen:
                    seen.add(s)
                    frontier.append(s)
        return True

    def is_feasible(
        self, subgraph: Iterable[int], max_inputs: int, max_outputs: int
    ) -> bool:
        """True if *subgraph* is a legal custom instruction.

        Checks node validity, the I/O constraints and convexity.
        """
        sub = subgraph if isinstance(subgraph, (set, frozenset)) else set(subgraph)
        if not sub:
            return False
        if any(not self.is_valid_node(n) for n in sub):
            return False
        io = self.io_count(sub)
        if io.inputs > max_inputs or io.outputs > max_outputs:
            return False
        return self.is_convex(sub)

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------
    def regions(self) -> list[list[int]]:
        """Decompose the DFG into regions.

        A region is a maximal set of *valid* nodes connected by undirected
        paths that do not pass through invalid nodes (thesis Section 5.2.1).
        Returned as lists of node ids in topological order, sorted by
        descending size (the thesis's "weight" of a region is its operation
        count).
        """
        parent: dict[int, int] = {n: n for n in self.valid_nodes}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for n in parent:
            for p in self._preds[n]:
                if p in parent:
                    ra, rb = find(n), find(p)
                    if ra != rb:
                        parent[ra] = rb
        groups: dict[int, list[int]] = {}
        for n in parent:
            groups.setdefault(find(n), []).append(n)
        comps = [sorted(g) for g in groups.values()]
        comps.sort(key=lambda c: (-len(c), c))
        return comps

    # ------------------------------------------------------------------
    # Structural hashing (used for isomorphism-based area sharing)
    # ------------------------------------------------------------------
    def structural_key(self, subgraph: Iterable[int]) -> tuple:
        """A hashable key equal for structurally isomorphic subgraphs.

        Computed as the sorted multiset of per-node canonical labels, where a
        node's label is built bottom-up from its opcode and the labels of its
        in-subgraph predecessors (:func:`induced_structural_key`).  Subgraphs
        with equal keys are structurally identical (same DAG shape and
        opcodes), so a single hardware datapath can serve both (thesis
        Section 5.2: "identify isomorphic custom instructions ... take
        advantage of hardware area sharing").
        """
        sub = sorted(set(subgraph))
        sub_set = set(sub)
        preds = {n: [p for p in self._preds[n] if p in sub_set] for n in sub}
        ops = {n: self._nodes[n].op for n in sub}
        return induced_structural_key(sub, preds, ops)


def induced_structural_key(
    nodes: Iterable[int],
    preds: Mapping[int, Iterable[int]],
    node_op: Mapping[int, Opcode],
) -> tuple:
    """Structural key of an induced subgraph given as its own maps.

    The single labelling rule behind :meth:`DataFlowGraph.structural_key`,
    shared with callers that already hold the induced maps (candidate
    costing under a cost-model subclass builds them for ``subgraph_cost``;
    the plain model's bit-space pass reproduces the rule label for label).

    Args:
        nodes: member ids in topological (increasing) order.
        preds: each member's predecessors *within* the subgraph.
        node_op: each member's opcode.
    """
    label: dict[int, tuple] = {}
    for n in nodes:
        label[n] = (node_op[n].value, tuple(sorted(label[p] for p in preds[n])))
    return tuple(sorted(label.values()))
