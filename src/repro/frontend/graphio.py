"""DFG / program import-export: JSON dicts and DOT text.

The JSON form is the artifact written by ``repro ingest`` (schema
``repro/v1``); the DOT importer is the exact inverse of
:func:`repro.graphs.export.dfg_to_dot` — ``import_dot(dfg_to_dot(g))``
rebuilds a graph with the same name, opcodes, edges, live-outs and
external-input counts.

Both importers validate the graph shape and raise
:class:`~repro.errors.FrontendError` (a :class:`~repro.errors.ReproError`)
with one-line messages for: duplicate node ids, non-dense ids, unknown
opcodes, edges to missing nodes, and cycles.  Node ids must be dense
``0..n-1`` in topological order (the :class:`DataFlowGraph` invariant);
graphs numbered another way import with ``relabel=True``, which renumbers
them stably (smallest original id first among ready nodes).
"""

from __future__ import annotations

import heapq
import re
from typing import Any

from repro.errors import FrontendError
from repro.graphs.dfg import DataFlowGraph
from repro.graphs.program import Block, IfElse, Loop, Program, Seq
from repro.isa.opcodes import Opcode

__all__ = [
    "dfg_from_dict",
    "dfg_to_dict",
    "import_dot",
    "program_from_dict",
    "program_to_dict",
]

_SCHEMA = "repro/v1"  # matches repro.io._SCHEMA


# ----------------------------------------------------------------------
# JSON (dict) form
# ----------------------------------------------------------------------
def _nodes_to_list(dfg: DataFlowGraph) -> list[dict[str, Any]]:
    return [
        {
            "id": n,
            "op": str(dfg.op(n)),
            "preds": dfg.preds(n),
            "live_out": dfg.is_live_out(n),
            "external_inputs": dfg.external_inputs(n),
        }
        for n in dfg.nodes
    ]


def dfg_to_dict(dfg: DataFlowGraph) -> dict[str, Any]:
    """Serialize one :class:`DataFlowGraph` as a ``repro/v1`` artifact."""
    return {
        "schema": _SCHEMA,
        "kind": "dfg",
        "name": dfg.name,
        "nodes": _nodes_to_list(dfg),
    }


def dfg_from_dict(data: dict[str, Any], relabel: bool = False) -> DataFlowGraph:
    """Inverse of :func:`dfg_to_dict` (schema/kind markers optional).

    Args:
        data: a dict with ``name`` and ``nodes`` keys (a full artifact or
            an embedded block record).
        relabel: accept non-topological ids and renumber them stably.
    """
    if not isinstance(data, dict):
        raise FrontendError("DFG record must be a JSON object")
    if "kind" in data and data["kind"] != "dfg":
        raise FrontendError(f"expected kind 'dfg', got {data['kind']!r}")
    nodes = data.get("nodes")
    if not isinstance(nodes, list):
        raise FrontendError("DFG record has no 'nodes' list")
    records = []
    for i, node in enumerate(nodes):
        if not isinstance(node, dict) or "id" not in node or "op" not in node:
            raise FrontendError(f"node #{i}: needs 'id' and 'op' fields")
        records.append(
            _NodeRecord(
                id=node["id"],
                op=node["op"],
                preds=list(node.get("preds", ())),
                live_out=bool(node.get("live_out", False)),
                external_inputs=node.get("external_inputs"),
            )
        )
    return _build_dfg(str(data.get("name", "")), records, relabel=relabel)


# ----------------------------------------------------------------------
# DOT form
# ----------------------------------------------------------------------
_DOT_HEADER = re.compile(r'^digraph\s+"((?:[^"\\]|\\.)*)"\s*\{$')
_DOT_NODE = re.compile(
    r'^n(\d+)\s+\[label="((?:[^"\\]|\\.)*)"'
    r"(?:,\s*shape=\w+)?"
    r"(?:,\s*xin=(\d+))?"
    r"(?P<liveout>,\s*liveout=true)?"
    r"(?:,\s*style=\w+)?"
    r"\];$"
)
_DOT_EDGE = re.compile(r"^n(\d+)\s*->\s*n(\d+);$")
#: Presentation-only lines the importer skips.
_DOT_SKIP = re.compile(
    r"^(rankdir=|node\s*\[|subgraph\s|label=|\}$|\{$)"
)


def _unesc(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def import_dot(text: str, relabel: bool = False) -> DataFlowGraph:
    """Parse :func:`~repro.graphs.export.dfg_to_dot` output back to a DFG.

    Presentation attributes (shapes, styles, clusters) are ignored; the
    label's ``id: op`` pair, the ``xin``/``liveout`` marks and the edge
    list fully determine the graph.  Hand-written DOT in the same shape
    imports too — ``xin`` defaults to the opcode arity left unfed and
    ``liveout`` to false.
    """
    name = ""
    seen_header = False
    records: dict[int, _NodeRecord] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not seen_header:
            m = _DOT_HEADER.match(line)
            if not m:
                raise FrontendError(
                    f"DOT line {lineno}: expected 'digraph \"name\" {{'"
                )
            name = _unesc(m.group(1))
            seen_header = True
            continue
        m = _DOT_EDGE.match(line)
        if m:
            edges.append((int(m.group(1)), int(m.group(2))))
            continue
        m = _DOT_NODE.match(line)
        if m:
            node_id = int(m.group(1))
            label = _unesc(m.group(2))
            label_id, sep, op_name = label.partition(": ")
            if not sep or label_id != str(node_id):
                raise FrontendError(
                    f"DOT line {lineno}: node n{node_id} label must be "
                    f"'{node_id}: <opcode>', got {label!r}"
                )
            if node_id in records:
                raise FrontendError(
                    f"DOT line {lineno}: duplicate node id {node_id}"
                )
            records[node_id] = _NodeRecord(
                id=node_id,
                op=op_name,
                preds=[],
                live_out=m.group("liveout") is not None,
                external_inputs=int(m.group(3)) if m.group(3) else None,
            )
            continue
        if _DOT_SKIP.match(line):
            continue
        raise FrontendError(f"DOT line {lineno}: unrecognized line {line!r}")
    if not seen_header:
        raise FrontendError("DOT text has no 'digraph' header")
    for src, dst in edges:
        for end in (src, dst):
            if end not in records:
                raise FrontendError(
                    f"DOT edge n{src} -> n{dst} references undeclared node n{end}"
                )
        records[dst].preds.append(src)
    ordered = [records[k] for k in sorted(records)]
    return _build_dfg(name, ordered, relabel=relabel)


# ----------------------------------------------------------------------
# Shared validation / construction
# ----------------------------------------------------------------------
class _NodeRecord:
    __slots__ = ("id", "op", "preds", "live_out", "external_inputs")

    def __init__(self, id, op, preds, live_out, external_inputs) -> None:
        self.id = id
        self.op = op
        self.preds = preds
        self.live_out = live_out
        self.external_inputs = external_inputs


def _build_dfg(
    name: str, records: list[_NodeRecord], relabel: bool
) -> DataFlowGraph:
    ids = [r.id for r in records]
    seen: set[int] = set()
    for i in ids:
        if not isinstance(i, int) or isinstance(i, bool):
            raise FrontendError(f"node id {i!r} is not an integer")
        if i in seen:
            raise FrontendError(f"duplicate node id {i}")
        seen.add(i)
    n = len(records)
    if seen != set(range(n)):
        missing = sorted(set(range(n)) - seen)[:3]
        raise FrontendError(
            f"node ids must be dense 0..{n - 1}; missing {missing} "
            f"(got {sorted(seen)[:5]}...)"
            if missing
            else f"node ids must be dense 0..{n - 1}"
        )
    by_id = {r.id: r for r in records}
    ops: dict[int, Opcode] = {}
    for r in records:
        try:
            ops[r.id] = Opcode(r.op)
        except ValueError:
            raise FrontendError(
                f"node {r.id}: unknown opcode {r.op!r}"
            ) from None
        for p in r.preds:
            if p not in by_id:
                raise FrontendError(
                    f"node {r.id}: predecessor {p} does not exist"
                )
            if p == r.id:
                raise FrontendError(f"node {r.id}: self-edge (cycle)")
    # Ids that increase along every edge already prove the graph acyclic,
    # and Kahn's smallest-id-first order of such a graph is 0..n-1, so
    # only a graph with a backward edge needs the topological sort (which
    # raises on cycles).
    bad = next(
        ((p, r.id) for r in records for p in r.preds if p > r.id), None
    )
    if bad is None:
        order = range(n)
    else:
        order = _topo_order(records)
        if not relabel:
            raise FrontendError(
                f"node ids are not in topological order (edge {bad[0]} -> "
                f"{bad[1]}); pass relabel=True (--relabel) to renumber"
            )
    renum = {old: new for new, old in enumerate(order)}
    dfg = DataFlowGraph(name=name)
    for old in order:
        r = by_id[old]
        dfg.add_op(
            ops[old],
            [renum[p] for p in r.preds],
            live_out=r.live_out,
            external_inputs=(
                None if r.external_inputs is None else int(r.external_inputs)
            ),
        )
    return dfg


def _topo_order(records: list[_NodeRecord]) -> list[int]:
    """Kahn's algorithm, smallest-id-first; raises FrontendError on cycles."""
    indeg = {r.id: 0 for r in records}
    succs: dict[int, list[int]] = {r.id: [] for r in records}
    for r in records:
        for p in set(r.preds):
            succs[p].append(r.id)
            indeg[r.id] += 1
    ready = [i for i, d in sorted(indeg.items()) if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        cur = heapq.heappop(ready)
        order.append(cur)
        for s in succs[cur]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
    if len(order) != len(records):
        stuck = sorted(i for i, d in indeg.items() if d > 0)[:5]
        raise FrontendError(f"graph has a cycle involving node(s) {stuck}")
    return order


# ----------------------------------------------------------------------
# Program (construct tree) form
# ----------------------------------------------------------------------
def program_to_dict(program: Program) -> dict[str, Any]:
    """Serialize a :class:`Program` as a ``repro/v1`` artifact."""
    return {
        "schema": _SCHEMA,
        "kind": "program",
        "name": program.name,
        "root": _construct_to_dict(program.root),
    }


def _construct_to_dict(node) -> dict[str, Any]:
    if isinstance(node, Block):
        return {
            "type": "block",
            "name": node.dfg.name,
            "nodes": _nodes_to_list(node.dfg),
        }
    if isinstance(node, Seq):
        return {
            "type": "seq",
            "children": [_construct_to_dict(c) for c in node.children],
        }
    if isinstance(node, Loop):
        return {
            "type": "loop",
            "bound": node.bound,
            "avg_trip": node.avg_trip,
            "body": _construct_to_dict(node.body),
        }
    if isinstance(node, IfElse):
        return {
            "type": "ifelse",
            "taken_prob": node.taken_prob,
            "then": _construct_to_dict(node.then_branch),
            "else": _construct_to_dict(node.else_branch),
        }
    raise FrontendError(f"cannot serialize construct {type(node).__name__!r}")


def program_from_dict(data: dict[str, Any], relabel: bool = False) -> Program:
    """Inverse of :func:`program_to_dict`."""
    if data.get("schema") != _SCHEMA:
        raise FrontendError(
            f"expected schema {_SCHEMA}, got {data.get('schema')!r}"
        )
    if data.get("kind") != "program":
        raise FrontendError(
            f"expected kind 'program', got {data.get('kind')!r}"
        )
    name = data.get("name")
    if not name or not isinstance(name, str):
        raise FrontendError("program artifact needs a non-empty 'name'")
    root = data.get("root")
    if not isinstance(root, dict):
        raise FrontendError("program artifact needs a 'root' construct")
    return Program(name, _construct_from_dict(root, relabel))


def _construct_from_dict(data: dict[str, Any], relabel: bool):
    kind = data.get("type")
    if kind == "block":
        return Block(dfg_from_dict({**data, "kind": "dfg"}, relabel=relabel))
    if kind == "seq":
        children = data.get("children", [])
        if not isinstance(children, list):
            raise FrontendError("seq construct needs a 'children' list")
        return Seq([_construct_from_dict(c, relabel) for c in children])
    if kind == "loop":
        if "bound" not in data or "body" not in data:
            raise FrontendError("loop construct needs 'bound' and 'body'")
        return Loop(
            body=_construct_from_dict(data["body"], relabel),
            bound=int(data["bound"]),
            avg_trip=(
                None if data.get("avg_trip") is None else float(data["avg_trip"])
            ),
        )
    if kind == "ifelse":
        if "then" not in data or "else" not in data:
            raise FrontendError("ifelse construct needs 'then' and 'else'")
        return IfElse(
            then_branch=_construct_from_dict(data["then"], relabel),
            else_branch=_construct_from_dict(data["else"], relabel),
            taken_prob=float(data.get("taken_prob", 0.5)),
        )
    raise FrontendError(f"unknown construct type {kind!r}")
