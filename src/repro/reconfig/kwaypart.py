"""Self-contained multilevel k-way weighted graph partitioner.

A METIS-style partitioner (Karypis & Kumar [55, 56]) used for the temporal
partitioning of hot loops into configurations (thesis Section 6.3.3):

* **coarsening** — heavy-edge matching collapses the graph until it is
  small;
* **initial partitioning** — longest-processing-time balanced assignment of
  the coarse vertices to ``k`` parts;
* **uncoarsening + refinement** — Kernighan-Lin-style boundary moves that
  reduce the edge-cut while keeping parts within a balance tolerance.

Objective: minimize the summed weight of edges whose endpoints are in
different parts, with part vertex-weights roughly equal.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence

from repro import obs

__all__ = ["kway_partition", "edge_cut"]


def edge_cut(
    edges: Mapping[tuple[int, int], float], assign: Sequence[int]
) -> float:
    """Summed weight of edges crossing part boundaries."""
    return sum(w for (u, v), w in edges.items() if assign[u] != assign[v])


def _heavy_edge_matching(
    n: int,
    adj: list[dict[int, float]],
    weights: list[float],
    rng: random.Random,
) -> list[list[int]] | None:
    order = list(range(n))
    rng.shuffle(order)
    matched = [False] * n
    groups: list[list[int]] = []
    merged = False
    for u in order:
        if matched[u]:
            continue
        matched[u] = True
        best_v, best_w = -1, -1.0
        for v, w in adj[u].items():
            if not matched[v] and w > best_w:
                best_v, best_w = v, w
        if best_v >= 0:
            matched[best_v] = True
            groups.append([u, best_v])
            merged = True
        else:
            groups.append([u])
    return groups if merged else None


def _refine(
    n: int,
    adj: list[dict[int, float]],
    weights: list[float],
    assign: list[int],
    k: int,
    max_part_weight: float,
    rng: random.Random,
    counters: dict[str, int],
    passes: int = 4,
) -> None:
    part_weight = [0.0] * k
    for v in range(n):
        part_weight[assign[v]] += weights[v]
    for _ in range(passes):
        counters["kl_passes"] += 1
        improved = False
        order = list(range(n))
        rng.shuffle(order)
        for v in order:
            src = assign[v]
            # Connectivity of v to each part.
            link: dict[int, float] = {}
            for u, w in adj[v].items():
                link[assign[u]] = link.get(assign[u], 0.0) + w
            internal = link.get(src, 0.0)
            best_dest, best_gain = -1, 0.0
            for dest, w in link.items():
                if dest == src:
                    continue
                if part_weight[dest] + weights[v] > max_part_weight:
                    continue
                gain = w - internal
                if gain > best_gain + 1e-12:
                    best_dest, best_gain = dest, gain
            if best_dest >= 0:
                assign[v] = best_dest
                part_weight[src] -= weights[v]
                part_weight[best_dest] += weights[v]
                improved = True
                counters["moves"] += 1
        if not improved:
            break


def kway_partition(
    n: int,
    edges: Mapping[tuple[int, int], float],
    weights: Sequence[float] | None = None,
    k: int = 2,
    imbalance: float = 0.3,
    seed: int = 0,
) -> list[int]:
    """Partition ``n`` vertices into ``k`` parts minimizing the edge-cut.

    Args:
        n: vertex count (ids 0..n-1).
        edges: undirected edge weights keyed by ``(min, max)`` pairs.
        weights: vertex weights (default: all 1).
        k: number of parts.
        imbalance: allowed part-weight slack over the perfect balance
            (``max part weight <= (1+imbalance) x total / k``, floored at
            the largest single vertex).
        seed: RNG seed for matching/refinement order.

    Returns:
        Part id (0..k-1) per vertex.  For ``k >= n`` every vertex gets its
        own part.
    """
    if n == 0:
        return []
    w = [1.0] * n if weights is None else list(weights)
    if k >= n:
        return list(range(n))
    if k <= 1:
        return [0] * n
    rng = random.Random(seed)
    counters = {"kl_passes": 0, "moves": 0}

    # --- Coarsening -----------------------------------------------------
    levels: list[tuple[list[dict[int, float]], list[float], list[int]]] = []
    cur_adj: list[dict[int, float]] = [dict() for _ in range(n)]
    for (u, v), wt in edges.items():
        if u == v:
            continue
        cur_adj[u][v] = cur_adj[u].get(v, 0.0) + wt
        cur_adj[v][u] = cur_adj[v].get(u, 0.0) + wt
    cur_w = list(w)
    while len(cur_w) > max(4 * k, 16):
        groups = _heavy_edge_matching(len(cur_w), cur_adj, cur_w, rng)
        if groups is None:
            break
        coarse_of = [0] * len(cur_w)
        for ci, g in enumerate(groups):
            for m in g:
                coarse_of[m] = ci
        new_w = [sum(cur_w[m] for m in g) for g in groups]
        new_adj: list[dict[int, float]] = [dict() for _ in groups]
        for u in range(len(cur_w)):
            cu = coarse_of[u]
            for v, wt in cur_adj[u].items():
                cv = coarse_of[v]
                if cu != cv and u < v:
                    new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + wt
                    new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + wt
        levels.append((cur_adj, cur_w, coarse_of))
        cur_adj, cur_w = new_adj, new_w

    # --- Initial partitioning (connectivity-aware greedy growth) --------
    m = len(cur_w)
    total = sum(w)
    max_part_weight = max(
        (1.0 + imbalance) * total / k,
        max(cur_w) if cur_w else 1.0,
    )
    assign = [-1] * m
    part_weight = [0.0] * k
    for v in sorted(range(m), key=lambda x: -cur_w[x]):
        link = [0.0] * k
        for u, wt in cur_adj[v].items():
            if assign[u] >= 0:
                link[assign[u]] += wt
        # Prefer the most-connected part that still has room; fall back to
        # the lightest part when none fits.
        open_parts = [
            p for p in range(k) if part_weight[p] + cur_w[v] <= max_part_weight
        ]
        if open_parts:
            p = max(open_parts, key=lambda x: (link[x], -part_weight[x]))
        else:
            p = min(range(k), key=lambda x: part_weight[x])
        assign[v] = p
        part_weight[p] += cur_w[v]
    _refine(m, cur_adj, cur_w, assign, k, max_part_weight, rng, counters)

    # --- Uncoarsening ----------------------------------------------------
    for fine_adj, fine_w, coarse_of in reversed(levels):
        assign = [assign[coarse_of[v]] for v in range(len(fine_w))]
        _refine(
            len(fine_w),
            fine_adj,
            fine_w,
            assign,
            k,
            max_part_weight,
            rng,
            counters,
        )
    obs.inc("kway.kl_passes", counters["kl_passes"])
    obs.inc("kway.moves", counters["moves"])
    return assign
