"""Multi-Level Graph Partitioning (MLGP) custom-instruction generation.

Thesis Section 5.2.3.  Given a *region* (a maximal invalid-node-free
subgraph of a basic block's DFG), MLGP partitions it into a small number of
large, legal custom instructions in three phases, following the multilevel
paradigm of Karypis & Kumar [56]:

1. **Coarsening** — repeatedly match adjacent vertices whose merged
   projection onto the original DFG stays feasible (I/O + convexity),
   preferring the match with the highest gain/area ratio.  A coarse vertex
   is therefore always a feasible candidate subgraph.
2. **Initial partitioning** — every vertex of the coarsest graph becomes
   its own partition (candidate custom instruction); the number of
   partitions is *not* fixed a priori (unlike classic k-way partitioning).
3. **Uncoarsening + refinement** — partitions are projected back level by
   level; at each level boundary vertices may move to a neighbouring
   partition when the move improves the summed gain/area ratio
   (Algorithm 5).  When a move violates the input (output) constraint the
   algorithm tries to repair it by pulling predecessor (successor) vertices
   of the moved vertex from the source partition into the destination.

The result is a set of disjoint feasible partitions; those with positive
gain become custom instructions.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from repro import cache, obs
from repro.graphs.dfg import DataFlowGraph
from repro.isa.costmodel import DEFAULT_COST_MODEL, HardwareCostModel
from repro.mlgp.mlgp_fast import run_fast_mlgp

__all__ = ["MlgpResult", "mlgp_partition"]

#: Engine names accepted by :func:`mlgp_partition`.
ENGINES = ("fast", "reference")


def check_engine(engine: str) -> None:
    """Raise :class:`ValueError` unless *engine* is one of :data:`ENGINES`."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown MLGP engine {engine!r}; use one of {', '.join(ENGINES)}"
        )


@dataclass(frozen=True)
class MlgpResult:
    """Outcome of MLGP on one region.

    Attributes:
        partitions: disjoint node sets; each is feasible under the
            constraints used for the run.
        gains: per-partition cycle gain (``sw - hw``; 0 if not profitable).
        areas: per-partition hardware area.
    """

    partitions: tuple[frozenset[int], ...]
    gains: tuple[float, ...]
    areas: tuple[float, ...]

    @property
    def total_gain(self) -> float:
        return sum(self.gains)

    @property
    def total_area(self) -> float:
        return sum(a for a, g in zip(self.areas, self.gains) if g > 0)

    def custom_instructions(self) -> list[frozenset[int]]:
        """Partitions worth implementing (positive gain)."""
        return [p for p, g in zip(self.partitions, self.gains) if g > 0]


class _Level:
    """One level of the multilevel hierarchy."""

    def __init__(self, vertices: list[frozenset[int]], adj: list[set[int]]) -> None:
        self.vertices = vertices  # projection of each vertex onto G0 nodes
        self.adj = adj  # coarse undirected adjacency
        self.parent: list[int] = []  # vertex -> vertex index in coarser level


def _project_cost(
    dfg: DataFlowGraph, nodes: frozenset[int], model: HardwareCostModel
) -> tuple[float, float]:
    """(gain, area) of a projected subgraph; gain 0 for singletons."""
    node_list = sorted(nodes)
    preds = {n: [p for p in dfg.preds(n) if p in nodes] for n in node_list}
    ops = {n: dfg.op(n) for n in node_list}
    cost = model.subgraph_cost(node_list, preds, ops)
    gain = float(cost.gain) if len(nodes) > 1 else 0.0
    return gain, cost.area


def _ratio(gain: float, area: float) -> float:
    if area <= 0:
        return 0.0
    return gain / area


def _build_level0(dfg: DataFlowGraph, region: Sequence[int]) -> _Level:
    region_set = set(region)
    index = {n: i for i, n in enumerate(region)}
    vertices = [frozenset([n]) for n in region]
    adj: list[set[int]] = [set() for _ in region]
    for n in region:
        for p in dfg.preds(n):
            if p in region_set:
                adj[index[n]].add(index[p])
                adj[index[p]].add(index[n])
    return _Level(vertices, adj)


def _coarsen(
    dfg: DataFlowGraph,
    level: _Level,
    rng: random.Random,
    max_inputs: int,
    max_outputs: int,
    model: HardwareCostModel,
) -> _Level | None:
    """One coarsening pass; None when no pair could be matched."""
    n = len(level.vertices)
    order = list(range(n))
    rng.shuffle(order)
    matched = [False] * n
    groups: list[list[int]] = []
    merged_any = False
    for u in order:
        if matched[u]:
            continue
        best_v = -1
        best_ratio = -1.0
        for v in sorted(level.adj[u]):
            if matched[v] or v == u:
                continue
            merged = level.vertices[u] | level.vertices[v]
            if not dfg.is_feasible(merged, max_inputs, max_outputs):
                continue
            gain, area = _project_cost(dfg, merged, model)
            r = _ratio(gain, area)
            if r > best_ratio:
                best_ratio = r
                best_v = v
        matched[u] = True
        if best_v >= 0:
            matched[best_v] = True
            groups.append([u, best_v])
            merged_any = True
        else:
            groups.append([u])
    if not merged_any:
        return None
    # Build the coarser level.
    coarse_vertices = [
        frozenset().union(*(level.vertices[m] for m in g)) for g in groups
    ]
    coarse_of = [0] * n
    for ci, g in enumerate(groups):
        for m in g:
            coarse_of[m] = ci
    coarse_adj: list[set[int]] = [set() for _ in groups]
    for u in range(n):
        for v in level.adj[u]:
            cu, cv = coarse_of[u], coarse_of[v]
            if cu != cv:
                coarse_adj[cu].add(cv)
                coarse_adj[cv].add(cu)
    level.parent = coarse_of
    return _Level(coarse_vertices, coarse_adj)


class _PartitionState:
    """Mutable partition bookkeeping during refinement at one level."""

    def __init__(
        self,
        dfg: DataFlowGraph,
        level: _Level,
        assign: list[int],
        n_parts: int,
        max_inputs: int,
        max_outputs: int,
        model: HardwareCostModel,
    ) -> None:
        self.dfg = dfg
        self.level = level
        self.assign = assign
        self.max_inputs = max_inputs
        self.max_outputs = max_outputs
        self.model = model
        self.members: list[set[int]] = [set() for _ in range(n_parts)]
        for v, p in enumerate(assign):
            self.members[p].add(v)
        self._cache: dict[int, tuple[float, float, bool]] = {}

    def nodes_of(self, part: int) -> frozenset[int]:
        if not self.members[part]:
            return frozenset()
        return frozenset().union(
            *(self.level.vertices[v] for v in self.members[part])
        )

    def stats(self, part: int) -> tuple[float, float, bool]:
        """(gain, area, feasible) of a partition, cached."""
        if part in self._cache:
            return self._cache[part]
        nodes = self.nodes_of(part)
        if not nodes:
            result = (0.0, 0.0, True)
        else:
            feasible = self.dfg.is_feasible(nodes, self.max_inputs, self.max_outputs)
            gain, area = _project_cost(self.dfg, nodes, self.model)
            result = (gain if feasible else 0.0, area, feasible)
        self._cache[part] = result
        return result

    def ratio(self, part: int) -> float:
        gain, area, _feasible = self.stats(part)
        return _ratio(gain, area)

    def move(self, vertices: list[int], dest: int) -> None:
        for v in vertices:
            src = self.assign[v]
            self.members[src].discard(v)
            self.members[dest].add(v)
            self.assign[v] = dest
            self._cache.pop(src, None)
        self._cache.pop(dest, None)

    def boundary_vertices(self) -> list[int]:
        out = []
        for v, p in enumerate(self.assign):
            if any(self.assign[u] != p for u in self.level.adj[v]):
                out.append(v)
        return out

    def neighbor_parts(self, v: int) -> set[int]:
        return {
            self.assign[u] for u in self.level.adj[v] if self.assign[u] != self.assign[v]
        }


def _try_move(
    state: _PartitionState,
    v: int,
    dest: int,
    rng: random.Random,
    counters: dict[str, int] | None = None,
) -> tuple[float, list[int]] | None:
    """Evaluate moving vertex *v* (plus repair vertices) into *dest*.

    Implements the move of Algorithm 5: when the input (output) constraint
    of the destination breaks, pull predecessor (successor) vertices of *v*
    from the *source* partition along to repair it.  Returns the ratio
    improvement and the vertex list to move, or None if infeasible/worse.
    """
    dfg = state.dfg
    src = state.assign[v]
    src_members = state.members[src]
    dest_nodes = state.nodes_of(dest)
    moving = [v]
    moving_nodes = set(state.level.vertices[v])

    # Source without the moved vertices must stay feasible (or empty).
    def src_ok(moving_set: set[int]) -> bool:
        rest = src_members - moving_set
        if not rest:
            return True
        nodes = frozenset().union(*(state.level.vertices[u] for u in rest))
        return dfg.is_feasible(nodes, state.max_inputs, state.max_outputs)

    def feasible(nodes: frozenset[int]) -> bool:
        return dfg.is_feasible(nodes, state.max_inputs, state.max_outputs)

    candidate = frozenset(dest_nodes | moving_nodes)
    repair_budget = 4
    while not feasible(candidate) and repair_budget > 0:
        io = dfg.io_count(candidate)
        # Pick a repair direction: absorb producers to cut inputs, consumers
        # to cut outputs.
        pool: list[int] = []
        if io.inputs > state.max_inputs:
            for n in candidate:
                for p in dfg.preds(n):
                    if p not in candidate:
                        pool.append(p)
        elif io.outputs > state.max_outputs:
            for n in candidate:
                for s in dfg.succs(n):
                    if s not in candidate:
                        pool.append(s)
        else:
            break  # convexity violation: single-vertex repair will not fix it
        # Only vertices currently in the source partition may be pulled in
        # (keeps the two-partition accounting of Algorithm 5 exact).
        vertex_of: dict[int, int] = {}
        for u in src_members:
            if u in moving:
                continue
            for node in state.level.vertices[u]:
                vertex_of[node] = u
        counts: dict[int, int] = {}
        for node in pool:
            u = vertex_of.get(node)
            if u is not None:
                counts[u] = counts.get(u, 0) + 1
        if not counts:
            return None
        # Absorb the vertex connected by the most edges first.
        u = max(counts, key=lambda k: (counts[k], -k))
        moving.append(u)
        moving_nodes |= state.level.vertices[u]
        candidate = frozenset(dest_nodes | moving_nodes)
        repair_budget -= 1
        if counters is not None:
            counters["repairs"] += 1
    if not feasible(candidate):
        return None
    if not src_ok(set(moving)):
        return None

    # Ratio improvement (Algorithm 5 line 11).
    gain_p, area_p, _ = state.stats(dest)
    gain_pv, area_pv, _ = state.stats(src)
    new_gain_p, new_area_p = _project_cost(dfg, candidate, state.model)
    rest = src_members - set(moving)
    if rest:
        rest_nodes = frozenset().union(*(state.level.vertices[u] for u in rest))
        new_gain_pv, new_area_pv = _project_cost(dfg, rest_nodes, state.model)
    else:
        new_gain_pv, new_area_pv = 0.0, 0.0
    improv = (
        _ratio(new_gain_p, new_area_p)
        - _ratio(gain_p, area_p)
        + _ratio(new_gain_pv, new_area_pv)
        - _ratio(gain_pv, area_pv)
    )
    if improv <= 1e-12:
        return None
    return improv, moving


def _refine(
    state: _PartitionState,
    rng: random.Random,
    max_passes: int = 3,
    counters: dict[str, int] | None = None,
) -> None:
    for _ in range(max_passes):
        improved = False
        boundary = state.boundary_vertices()
        rng.shuffle(boundary)
        for v in boundary:
            best: tuple[float, list[int], int] | None = None
            for dest in sorted(state.neighbor_parts(v)):
                res = _try_move(state, v, dest, rng, counters)
                if res is not None and (best is None or res[0] > best[0]):
                    best = (res[0], res[1], dest)
            if best is not None:
                state.move(best[1], best[2])
                if counters is not None:
                    counters["moves"] += len(best[1])
                improved = True
        if not improved:
            break


def mlgp_partition(
    dfg: DataFlowGraph,
    region: Sequence[int],
    max_inputs: int = 4,
    max_outputs: int = 2,
    model: HardwareCostModel = DEFAULT_COST_MODEL,
    seed: int = 0,
    refine_passes: int = 3,
    engine: str = "fast",
    use_cache: bool = True,
) -> MlgpResult:
    """Run MLGP on one region of a DFG.

    Args:
        dfg: the basic block's dataflow graph.
        region: node ids of the region to partition (valid nodes only).
        max_inputs / max_outputs: register-port constraints.
        model: hardware cost model.
        seed: RNG seed for matching/refinement visit order.
        refine_passes: refinement passes per uncoarsening level.
        engine: ``"fast"`` (bitset node sets, memoized projection tables,
            incremental bookkeeping; see :mod:`repro.mlgp.mlgp_fast`) or
            ``"reference"`` (the original frozenset implementation).  Both
            engines produce bit-identical results, asserted by the
            differential tests, so the cache key is engine-independent.
        use_cache: memoize the result behind a content key (DFG digest +
            region + parameters) in :mod:`repro.cache`.  Only plain
            :class:`HardwareCostModel` instances are content-addressable;
            a model subclass bypasses the cache.

    Returns:
        An :class:`MlgpResult` with disjoint feasible partitions.
    """
    check_engine(engine)
    key = None
    if use_cache and type(model) is HardwareCostModel:
        key = cache.artifact_key(
            cache.dfg_digest(dfg),
            kind="mlgp",
            region=tuple(region),
            max_inputs=max_inputs,
            max_outputs=max_outputs,
            cycle_delay=model.cycle_delay,
            seed=seed,
            refine_passes=refine_passes,
        )
        cached = cache.fetch_mlgp(key)
        if cached is not None:
            return MlgpResult(
                partitions=tuple(frozenset(p) for p in cached["partitions"]),
                gains=tuple(cached["gains"]),
                areas=tuple(cached["areas"]),
            )
    with obs.span("mlgp.partition", nodes=len(region), engine=engine):
        if engine == "fast":
            (partitions, gains, areas), counters = run_fast_mlgp(
                dfg, region, max_inputs, max_outputs, model, seed, refine_passes
            )
            result = MlgpResult(
                partitions=partitions, gains=gains, areas=areas
            )
        else:
            counters = {"moves": 0, "repairs": 0}
            result = _reference_mlgp(
                dfg,
                region,
                max_inputs,
                max_outputs,
                model,
                seed,
                refine_passes,
                counters,
            )
    # Hot-loop counters are accumulated locally and flushed once per run.
    obs.inc("mlgp.moves", counters["moves"])
    obs.inc("mlgp.repairs", counters["repairs"])
    if key is not None:
        cache.store_mlgp(
            key,
            {
                "partitions": [sorted(p) for p in result.partitions],
                "gains": list(result.gains),
                "areas": list(result.areas),
            },
        )
    return result


def _reference_mlgp(
    dfg: DataFlowGraph,
    region: Sequence[int],
    max_inputs: int,
    max_outputs: int,
    model: HardwareCostModel,
    seed: int,
    refine_passes: int,
    counters: dict[str, int],
) -> MlgpResult:
    """The original frozenset MLGP implementation (differential oracle)."""
    rng = random.Random(seed)
    level0 = _build_level0(dfg, region)
    levels: list[_Level] = [level0]
    # Coarsening phase.
    while True:
        coarser = _coarsen(
            dfg, levels[-1], rng, max_inputs, max_outputs, model
        )
        if coarser is None:
            break
        levels.append(coarser)

    # Initial partitioning: each coarsest vertex is its own partition.
    coarsest = levels[-1]
    n_parts = len(coarsest.vertices)
    assign = list(range(n_parts))

    # Uncoarsening with refinement.
    for li in range(len(levels) - 1, -1, -1):
        level = levels[li]
        if li < len(levels) - 1:
            finer_assign = [assign[level.parent[v]] for v in range(len(level.vertices))]
            assign = finer_assign
        state = _PartitionState(
            dfg, level, assign, n_parts, max_inputs, max_outputs, model
        )
        _refine(state, rng, max_passes=refine_passes, counters=counters)
        assign = state.assign

    # Collect final partitions from level 0.
    final = _PartitionState(
        dfg, levels[0], assign, n_parts, max_inputs, max_outputs, model
    )
    partitions: list[frozenset[int]] = []
    gains: list[float] = []
    areas: list[float] = []
    for p in range(n_parts):
        nodes = final.nodes_of(p)
        if not nodes:
            continue
        gain, area, feasible = final.stats(p)
        if not feasible:
            # Infeasible leftovers stay in software: drop them.
            continue
        partitions.append(nodes)
        gains.append(gain)
        areas.append(area)
    return MlgpResult(
        partitions=tuple(partitions), gains=tuple(gains), areas=tuple(areas)
    )
