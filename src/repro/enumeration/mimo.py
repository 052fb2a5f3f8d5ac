"""MIMO (multiple-input multiple-output) candidate enumeration.

The number of convex subgraphs of a DFG is exponential in the worst case
(thesis Section 2.3.1), so practical identification bounds the search.  Two
enumerators are provided:

* :func:`enumerate_connected` — ESU-style enumeration of *connected* induced
  subgraphs without duplicates (each subgraph is generated exactly once from
  its minimum-id node), filtered by the I/O and convexity constraints, with
  size and count caps.  This is the production enumerator used to build
  candidate libraries.  Two engines implement it: the default
  ``"bitset"`` engine represents subgraphs as Python int bitmasks with
  incremental feasibility tracking, and the ``"reference"`` engine is
  the original set-based implementation kept for differential testing.
* :func:`enumerate_exhaustive` — plain subset enumeration over a (small)
  node set; exact but exponential.  Used by tests as ground truth and for
  tiny regions.
"""

from __future__ import annotations

from itertools import combinations

from repro.graphs.dfg import DataFlowGraph

__all__ = [
    "enumerate_connected",
    "enumerate_exhaustive",
    "ENGINES",
]

#: Engine names accepted by :func:`enumerate_connected`.
ENGINES = ("bitset", "reference")


def _undirected_adjacency(
    dfg: DataFlowGraph, allowed: set[int] | None = None
) -> dict[int, set[int]]:
    pool = dfg.valid_nodes if allowed is None else [
        n for n in dfg.valid_nodes if n in allowed
    ]
    pool_set = set(pool)
    adj: dict[int, set[int]] = {n: set() for n in pool}
    for n in pool:
        for p in dfg.preds(n):
            if p in pool_set:
                adj[n].add(p)
                adj[p].add(n)
    return adj


def enumerate_connected(
    dfg: DataFlowGraph,
    max_inputs: int,
    max_outputs: int,
    max_size: int = 12,
    max_candidates: int = 20000,
    min_size: int = 2,
    max_visited: int | None = None,
    engine: str = "bitset",
    stats: dict | None = None,
) -> list[frozenset[int]]:
    """Enumerate feasible connected subgraphs of *dfg*.

    Uses the ESU scheme: for every valid node ``v`` (in increasing id order),
    enumerate exactly once every connected subgraph whose minimum node id is
    ``v`` by extending only with neighbours of id greater than ``v``.  Each
    enumerated subgraph is kept if it satisfies the input/output constraints
    and convexity.

    Args:
        dfg: the basic block's dataflow graph.
        max_inputs / max_outputs: register-port constraints.
        max_size: maximum number of operations in a candidate.
        max_candidates: stop after this many feasible candidates (the
            enumeration itself may visit more subgraphs).
        min_size: smallest candidate worth keeping (default 2; a singleton
            custom instruction cannot beat the native operation).
        max_visited: cap on subgraphs *visited* (feasible or not); defaults
            to ``25 x max_candidates``.  Bounds worst-case runtime on large
            dense blocks.
        engine: ``"bitset"`` (default; int-bitmask subgraphs, incremental
            feasibility, monotone input-bound pruning) or ``"reference"``
            (the original set-based path).  Both engines return the same
            candidate set when the visit budgets and candidate caps do
            not bind; under binding budgets the bitset engine's pruning
            lets it reach more feasible subgraphs than the reference
            within the same budget.
        stats: optional dict; when given, ``"visited"`` and ``"feasible"``
            counters are accumulated into it (for the benchmark harness).
            The bitset engine additionally accumulates per-constraint
            prune counters: ``"pruned_visit_budget"`` (visit-budget
            cuts), ``"pruned_inputs"`` (monotone input-bound cuts) and
            ``"pruned_outputs"`` (output-port rejections).

    Returns:
        Feasible candidate node sets, largest first.
    """
    if engine == "bitset":
        return _enumerate_bitset(
            dfg, max_inputs, max_outputs, max_size, max_candidates,
            min_size, max_visited, stats,
        )
    if engine == "reference":
        return _enumerate_reference(
            dfg, max_inputs, max_outputs, max_size, max_candidates,
            min_size, max_visited, stats,
        )
    raise ValueError(
        f"unknown engine {engine!r}; use one of {', '.join(ENGINES)}"
    )


def _enumerate_reference(
    dfg: DataFlowGraph,
    max_inputs: int,
    max_outputs: int,
    max_size: int,
    max_candidates: int,
    min_size: int,
    max_visited: int | None,
    stats: dict | None = None,
) -> list[frozenset[int]]:
    """Original set-based ESU enumeration (differential-testing baseline)."""
    adj = _undirected_adjacency(dfg)
    feasible: list[frozenset[int]] = []
    total_budget = max_visited if max_visited is not None else 25 * max_candidates
    roots = sorted(adj)
    if not roots:
        return []
    # Spread the visit budget across roots so large blocks are covered
    # end-to-end instead of exhausting the budget on the first few roots.
    per_root_budget = max(200, total_budget // len(roots))
    per_root_cap = max(20, max_candidates // len(roots))
    visited = 0
    found = 0
    all_visited = 0

    def extend(sub: set[int], extension: list[int], root: int) -> bool:
        """Returns False when this root's visit or candidate cap is hit."""
        nonlocal visited, found, all_visited
        visited += 1
        all_visited += 1
        if visited > per_root_budget:
            return False
        if len(sub) >= min_size and dfg.is_feasible(sub, max_inputs, max_outputs):
            feasible.append(frozenset(sub))
            found += 1
            if found >= per_root_cap or len(feasible) >= max_candidates:
                return False
        if len(sub) >= max_size:
            return True
        # ESU: pick each extension node in turn; the new extension set adds
        # exclusive neighbours (> root, not adjacent to current sub members
        # already processed).
        while extension:
            w = extension.pop()
            new_ext = list(extension)
            sub_and_ext = sub | set(extension) | {w}
            for u in adj[w]:
                if u > root and u not in sub_and_ext:
                    new_ext.append(u)
            sub.add(w)
            if not extend(sub, new_ext, root):
                return False
            sub.remove(w)
        return True

    for root in roots:
        if len(feasible) >= max_candidates:
            break
        visited = 0
        found = 0
        ext = [u for u in adj[root] if u > root]
        extend({root}, ext, root)
    if stats is not None:
        stats["visited"] = stats.get("visited", 0) + all_visited
        stats["feasible"] = stats.get("feasible", 0) + len(feasible)
    # Deduplicate (different roots cannot duplicate, but be safe) and order.
    unique = sorted(set(feasible), key=lambda s: (-len(s), sorted(s)))
    return unique


def _enumerate_bitset(
    dfg: DataFlowGraph,
    max_inputs: int,
    max_outputs: int,
    max_size: int,
    max_candidates: int,
    min_size: int,
    max_visited: int | None,
    stats: dict | None = None,
) -> list[frozenset[int]]:
    """Bitset ESU with incremental feasibility and monotone-input pruning.

    Subgraphs, adjacency, ancestor/descendant closures and the growing
    extension set are all Python int bitmasks precomputed once per DFG
    (:meth:`DataFlowGraph.bitset_masks`).  Along the DFS path the engine
    threads four monotone accumulators — the union of member predecessor
    masks, the live-in operand total, and the ancestor/descendant closure
    unions — so each visited subgraph is checked with O(1) big-int
    operations plus an O(|S|) output scan:

    * inputs  = popcount(pred_union & ~S) + live_ins  (distinct external
      producers plus live-in operands);
    * convex  ⇔ (desc_union & anc_union) & ~S == 0  (a violation witness is
      exactly an outside node that is both a descendant and an ancestor of
      members);
    * outputs = members that are live-out or feed a consumer outside S.

    Pruning (Pozzi/Atasu style): external producers that can never join the
    subgraph — invalid nodes and ids below the ESU root — plus live-in
    operands only grow along a branch, so once they exceed ``max_inputs``
    the whole branch is infeasible and is cut.  ``never`` is disjoint from
    every subgraph of its root, so the bound is simply
    ``popcount((pred_union | pred[w]) & never)``.

    Each child is visited by its *parent*: the parent's extension loop
    counts the visit, applies the per-root visit budget and the input
    bound inline, and recurses only into survivors.  Most children are
    cut by the bound at once (over half of all visits on the Table 3.1
    blocks), so they never pay for a call, an extension-list copy or a
    fresh-neighbour scan.  Visit order and every counter are exactly
    those of a search that checks each child on entry.

    Feasible masks are decoded by peeling their low bits, O(|S|) big-int
    operations per candidate, and sorted on the decoded id lists.
    """
    m = dfg.bitset_masks()
    full = m.full
    valid = m.valid
    if valid == 0:
        return []
    adj = m.adj_valid
    pred = m.pred
    succ = m.succ
    anc = m.anc
    desc = m.desc
    live_out = m.live_out
    ext_inp = m.external_inputs
    invalid = full & ~valid

    roots = [n for n in range(len(adj)) if valid >> n & 1]
    feasible: list[int] = []
    total_budget = max_visited if max_visited is not None else 25 * max_candidates
    per_root_budget = max(200, total_budget // len(roots))
    per_root_cap = max(20, max_candidates // len(roots))
    visited = 0
    found = 0
    all_visited = 0
    # Prune accounting per constraint (local ints: near-free on the DFS).
    cut_budget = 0
    cut_inputs = 0
    cut_outputs = 0
    # Per-root constants, read by ``extend`` from the enclosing scope.
    never = 0
    above_root = 0

    def extend(
        sub: int,
        size: int,
        extension: list[int],
        ext_mask: int,
        pred_union: int,
        live_ins: int,
        anc_union: int,
        desc_union: int,
    ) -> bool:
        """Score *sub* (already counted and bounded by its parent), then
        visit its children.  Returns False when this root's visit or
        candidate cap is hit."""
        nonlocal visited, found, all_visited
        nonlocal cut_budget, cut_inputs, cut_outputs
        outside = ~sub
        if (
            size >= min_size
            and (pred_union & outside).bit_count() + live_ins <= max_inputs
            and desc_union & anc_union & outside == 0
        ):
            outputs = 0
            rem = sub
            while rem:
                low = rem & -rem
                rem ^= low
                if live_out & low or succ[low.bit_length() - 1] & outside:
                    outputs += 1
                    if outputs > max_outputs:
                        break
            if outputs <= max_outputs:
                feasible.append(sub)
                found += 1
                if found >= per_root_cap or len(feasible) >= max_candidates:
                    return False
            else:
                cut_outputs += 1
        if size >= max_size:
            return True
        size += 1
        while extension:
            w = extension.pop()
            wbit = 1 << w
            ext_mask &= ~wbit
            # The child's visit: budget, then the monotone input bound.
            visited += 1
            all_visited += 1
            if visited > per_root_budget:
                cut_budget += 1
                return False
            child_preds = pred_union | pred[w]
            child_live_ins = live_ins + ext_inp[w]
            if (child_preds & never).bit_count() + child_live_ins > max_inputs:
                cut_inputs += 1
                continue
            if size < max_size:
                new_ext = list(extension)
                fresh = adj[w] & above_root & ~(sub | ext_mask)
                new_ext_mask = ext_mask | fresh
                while fresh:
                    low = fresh & -fresh
                    new_ext.append(low.bit_length() - 1)
                    fresh ^= low
            else:  # a child at max_size is scored but never extended
                new_ext = []
                new_ext_mask = 0
            if not extend(
                sub | wbit,
                size,
                new_ext,
                new_ext_mask,
                child_preds,
                child_live_ins,
                anc_union | anc[w],
                desc_union | desc[w],
            ):
                return False
        return True

    for root in roots:
        if len(feasible) >= max_candidates:
            break
        # The root's visit, checked the way a parent checks a child (a
        # fresh per-root budget of >= 200 cannot bind on the first visit).
        visited = 1
        all_visited += 1
        found = 0
        never = ((1 << root) - 1) | invalid
        if (pred[root] & never).bit_count() + ext_inp[root] > max_inputs:
            cut_inputs += 1
            continue
        above_root = full & ~((1 << (root + 1)) - 1)
        ext_mask = adj[root] & above_root
        ext = []
        rem = ext_mask
        while rem:
            low = rem & -rem
            ext.append(low.bit_length() - 1)
            rem ^= low
        extend(
            1 << root,
            1,
            ext,
            ext_mask,
            pred[root],
            ext_inp[root],
            anc[root],
            desc[root],
        )
    if stats is not None:
        stats["visited"] = stats.get("visited", 0) + all_visited
        stats["feasible"] = stats.get("feasible", 0) + len(feasible)
        stats["pruned_visit_budget"] = (
            stats.get("pruned_visit_budget", 0) + cut_budget
        )
        stats["pruned_inputs"] = stats.get("pruned_inputs", 0) + cut_inputs
        stats["pruned_outputs"] = stats.get("pruned_outputs", 0) + cut_outputs
    decoded: list[list[int]] = []
    for s in set(feasible):
        ids = []
        while s:
            low = s & -s
            ids.append(low.bit_length() - 1)
            s ^= low
        decoded.append(ids)
    decoded.sort(key=lambda ids: (-len(ids), ids))
    return [frozenset(ids) for ids in decoded]


def enumerate_exhaustive(
    dfg: DataFlowGraph,
    max_inputs: int,
    max_outputs: int,
    nodes: list[int] | None = None,
    min_size: int = 2,
    max_size: int | None = None,
) -> list[frozenset[int]]:
    """Enumerate *all* feasible subgraphs over *nodes* by subset search.

    Exponential in ``len(nodes)``; intended for ground-truth checks and tiny
    regions (roughly up to 18 nodes).

    Args:
        dfg: the dataflow graph.
        max_inputs / max_outputs: register-port constraints.
        nodes: restrict the search to these nodes (defaults to all valid
            nodes).
        min_size / max_size: candidate size bounds.

    Returns:
        All feasible candidate node sets (connected or not), largest first.
    """
    pool = sorted(set(nodes if nodes is not None else dfg.valid_nodes))
    pool = [n for n in pool if dfg.is_valid_node(n)]
    upper = max_size if max_size is not None else len(pool)
    feasible: list[frozenset[int]] = []
    for size in range(min_size, upper + 1):
        for combo in combinations(pool, size):
            if dfg.is_feasible(combo, max_inputs, max_outputs):
                feasible.append(frozenset(combo))
    feasible.sort(key=lambda s: (-len(s), sorted(s)))
    return feasible
