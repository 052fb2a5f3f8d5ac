"""Bitset fast path for MLGP partitioning (``engine="fast"``).

Mirrors the reference algorithm in :mod:`repro.mlgp.mlgp` step for step —
same RNG stream, same visit orders, same float arithmetic — so the
produced partitions are *bit-identical* to the reference oracle under any
seed (asserted by ``tests/test_partitioning_differential.py``).  What
changes is the data representation and the bookkeeping cost:

* **node sets are int bitsets** — a coarse vertex's projection onto the
  original DFG is one Python int (bit ``n`` = node ``n``), so set algebra
  (union, difference, membership) is single word-vector operations
  instead of ``frozenset`` traffic;
* **memoized projection tables** — feasibility, I/O counts and
  (gain, area) cost projections are cached per bitset for the whole run,
  so the refinement loop's repeated re-evaluation of the same candidate
  subgraphs (across passes *and* uncoarsening levels) collapses to dict
  lookups;
* **incremental partition bookkeeping** — each partition's projected node
  bitset and each vertex's foreign-neighbour count are maintained under
  :meth:`_FastPartition.move` in O(moved vertices · degree), so
  ``boundary_vertices``/``stats`` no longer rescan the whole level.

Feasibility itself is evaluated in O(|S|) word operations from the
precomputed :class:`~repro.graphs.dfg.DFGMasks`:

* inputs  = ``popcount(union of member preds & ~S)`` + live-in operands;
* outputs = members with a live-out value or a successor outside ``S``;
* convexity — ``S`` is convex iff no node outside ``S`` is both a
  descendant of a member and an ancestor of a member:
  ``(U_desc & U_anc) & ~S == 0``.
"""

from __future__ import annotations

import random
import weakref
from collections.abc import Sequence

from repro.graphs.dfg import DataFlowGraph
from repro.isa.costmodel import HardwareCostModel
from repro.isa.opcodes import op_info

__all__ = ["run_fast_mlgp"]


def _bits(mask: int) -> list[int]:
    """Set bit positions of *mask*, ascending (= topological node order)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Ctx:
    """Per-run projection tables shared across levels and passes."""

    def __init__(
        self,
        dfg: DataFlowGraph,
        max_inputs: int,
        max_outputs: int,
        model: HardwareCostModel,
    ) -> None:
        masks = dfg.bitset_masks()
        self.masks = masks
        self.pred = masks.pred
        self.succ = masks.succ
        self.anc = masks.anc
        self.desc = masks.desc
        self.valid = masks.valid
        self.live_out = masks.live_out
        self.ext_in = masks.external_inputs
        self.max_inputs = max_inputs
        self.max_outputs = max_outputs
        self.model = model
        # Original predecessor lists (insertion order), so the cost model
        # sees exactly the same structures as the reference engine.
        self.preds_list = [dfg.preds(n) for n in dfg.nodes]
        self.ops = [dfg.op(n) for n in dfg.nodes]
        # Per-node cost primitives for the inlined evaluation.  A model
        # subclass may override subgraph_cost, so only a plain
        # HardwareCostModel is evaluated inline.
        self.plain_model = type(model) is HardwareCostModel
        self.sw_cycles = [op_info(op).sw_cycles for op in self.ops]
        self.hw_delay = [op_info(op).hw_delay for op in self.ops]
        self.hw_area = [op_info(op).hw_area for op in self.ops]
        self._io_memo: dict[int, tuple[int, int]] = {}
        # comp[m] = (ext-input sum, pred union, succ union, anc union,
        # desc union, output-node mask).  The components of a union of two
        # cached masks combine in O(words) — only the output-node mask
        # needs a recheck, and only over the parts' non-live-out outputs
        # (outputs can only *leave* a growing set, never appear).
        self._comp_memo: dict[int, tuple[int, int, int, int, int, int]] = {}
        self._feas_memo: dict[int, bool] = {}
        self._cost_memo: dict[int, tuple[float, float]] = {}
        self._stats_memo: dict[int, tuple[float, float, bool]] = {}
        # Repair-free move evaluations are pure in the three projected
        # masks (moving vertex, destination, source) — whether a repair is
        # needed at all is decided by candidate feasibility, itself
        # mask-only — so their outcomes transfer across levels and runs.
        # Value: ratio improvement, or None for a rejected move.
        self.eval_memo: dict[tuple[int, int, int], float | None] = {}
        # Local counters, flushed once per run by the caller.
        self.moves = 0
        self.repairs = 0

    def comp(self, m: int) -> tuple[int, int, int, int, int, int]:
        """Projection components of *m* (single-pass bit loop), memoized."""
        c = self._comp_memo.get(m)
        if c is not None:
            return c
        ext = 0
        predu = 0
        succu = 0
        ancu = 0
        descu = 0
        outset = 0
        live = self.live_out
        rest = m
        while rest:
            low = rest & -rest
            n = low.bit_length() - 1
            rest ^= low
            ext += self.ext_in[n]
            predu |= self.pred[n]
            sn = self.succ[n]
            succu |= sn
            ancu |= self.anc[n]
            descu |= self.desc[n]
            if (live >> n) & 1 or sn & ~m:
                outset |= low
        c = (ext, predu, succu, ancu, descu, outset)
        self._comp_memo[m] = c
        return c

    def comp_union(self, a: int, b: int, m: int) -> tuple[int, int, int, int, int, int]:
        """Components of the disjoint union ``m = a | b`` in O(changed).

        Unions/sums combine directly; only the output-node mask must be
        rechecked, and only over the parts' non-live-out output nodes
        whose external successors may now all lie inside *m*.
        """
        c = self._comp_memo.get(m)
        if c is not None:
            return c
        ca = self._comp_memo.get(a)
        if ca is None:
            ca = self.comp(a)
        cb = self._comp_memo.get(b)
        if cb is None:
            cb = self.comp(b)
        outset = ca[5] | cb[5]
        check = outset & ~self.live_out
        while check:
            low = check & -check
            n = low.bit_length() - 1
            check ^= low
            if not self.succ[n] & ~m:
                outset ^= low
        c = (
            ca[0] + cb[0],
            ca[1] | cb[1],
            ca[2] | cb[2],
            ca[3] | cb[3],
            ca[4] | cb[4],
            outset,
        )
        self._comp_memo[m] = c
        return c

    def io(self, m: int) -> tuple[int, int]:
        """(inputs, outputs) of the projected subgraph *m*, memoized."""
        r = self._io_memo.get(m)
        if r is not None:
            return r
        c = self.comp(m)
        r = ((c[1] & ~m).bit_count() + c[0], c[5].bit_count())
        self._io_memo[m] = r
        return r

    def feasible(self, m: int) -> bool:
        """Legality of *m* as a custom instruction, memoized."""
        r = self._feas_memo.get(m)
        if r is not None:
            return r
        if m == 0 or m & ~self.valid:
            r = False
        else:
            c = self.comp(m)
            r = (
                (c[1] & ~m).bit_count() + c[0] <= self.max_inputs
                and c[5].bit_count() <= self.max_outputs
                and (c[3] & c[4] & ~m) == 0
            )
        self._feas_memo[m] = r
        return r

    def feasible_union(self, a: int, b: int, m: int) -> bool:
        """``feasible(a | b)`` computed incrementally from cached parts.

        Callers are expected to have missed ``_feas_memo[m]`` already (no
        recheck here).  The I/O counts fall out of the combination, so
        they are stored as a side effect — the repair loop reads them
        back as a pure memo hit.
        """
        if m & ~self.valid:
            r = False
        else:
            comp_memo = self._comp_memo
            c = comp_memo.get(m)
            if c is None:
                ca = comp_memo.get(a)
                if ca is None:
                    ca = self.comp(a)
                cb = comp_memo.get(b)
                if cb is None:
                    cb = self.comp(b)
                outset = ca[5] | cb[5]
                check = outset & ~self.live_out
                while check:
                    low = check & -check
                    n = low.bit_length() - 1
                    check ^= low
                    if not self.succ[n] & ~m:
                        outset ^= low
                c = (
                    ca[0] + cb[0],
                    ca[1] | cb[1],
                    ca[2] | cb[2],
                    ca[3] | cb[3],
                    ca[4] | cb[4],
                    outset,
                )
                comp_memo[m] = c
            inputs = (c[1] & ~m).bit_count() + c[0]
            outputs = c[5].bit_count()
            self._io_memo[m] = (inputs, outputs)
            r = (
                inputs <= self.max_inputs
                and outputs <= self.max_outputs
                and (c[3] & c[4] & ~m) == 0
            )
        self._feas_memo[m] = r
        return r

    def cost(self, m: int) -> tuple[float, float]:
        """(gain, area) of the projected subgraph, memoized.

        Delegates to ``model.subgraph_cost`` on the same (sorted) node
        list / predecessor lists the reference engine builds, so the
        floats are identical bit for bit.
        """
        r = self._cost_memo.get(m)
        if r is not None:
            return r
        if self.plain_model:
            # Inlined subgraph_cost: identical summation/DP order (node
            # ids ascending, the reference's sorted order), so the floats
            # match the reference engine bit for bit.
            sw = 0
            area = 0.0
            longest = 0.0
            finish: dict[int, float] = {}
            count = 0
            rest = m
            while rest:
                low = rest & -rest
                n = low.bit_length() - 1
                rest ^= low
                start = 0.0
                pm = self.pred[n] & m
                while pm:
                    plow = pm & -pm
                    t = finish[plow.bit_length() - 1]
                    pm ^= plow
                    if t > start:
                        start = t
                end = start + self.hw_delay[n]
                finish[n] = end
                if end > longest:
                    longest = end
                sw += self.sw_cycles[n]
                area += self.hw_area[n]
                count += 1
            gain = float(sw - self.model.hw_cycles(longest)) if count > 1 else 0.0
            r = (gain, area)
        else:
            nodes = _bits(m)
            preds = {
                n: [p for p in self.preds_list[n] if (m >> p) & 1]
                for n in nodes
            }
            ops = {n: self.ops[n] for n in nodes}
            cost = self.model.subgraph_cost(nodes, preds, ops)
            gain = float(cost.gain) if len(nodes) > 1 else 0.0
            r = (gain, cost.area)
        self._cost_memo[m] = r
        return r

    def stats(self, m: int) -> tuple[float, float, bool]:
        """(gain, area, feasible) with the reference's zero-gain rule."""
        if m == 0:
            return (0.0, 0.0, True)
        r = self._stats_memo.get(m)
        if r is not None:
            return r
        feasible = self.feasible(m)
        gain, area = self.cost(m)
        r = (gain if feasible else 0.0, area, feasible)
        self._stats_memo[m] = r
        return r


# Contexts (per-node tables + projection memos) are pure functions of the
# DFG structure and the (constraints, model) pair, so they are shared
# across calls: the flow re-partitions the same DFG's regions many times
# (different seeds, different iterations) and every run then reuses the
# accumulated feasibility/cost tables.  A masks-identity check guards
# against DFG mutation (mutators drop the cached DFGMasks object).
_CTX_CACHE: "weakref.WeakKeyDictionary[DataFlowGraph, dict]" = (
    weakref.WeakKeyDictionary()
)


def _get_ctx(
    dfg: DataFlowGraph,
    max_inputs: int,
    max_outputs: int,
    model: HardwareCostModel,
) -> _Ctx:
    if type(model) is not HardwareCostModel:
        # Subclasses may close over arbitrary state; memos keyed on the
        # object would go stale silently, so build a fresh context.
        return _Ctx(dfg, max_inputs, max_outputs, model)
    per = _CTX_CACHE.get(dfg)
    if per is None:
        per = {}
        _CTX_CACHE[dfg] = per
    key = (max_inputs, max_outputs, model.cycle_delay)
    ctx = per.get(key)
    if ctx is None or ctx.masks is not dfg.bitset_masks():
        ctx = _Ctx(dfg, max_inputs, max_outputs, model)
        per[key] = ctx
    return ctx


def _ratio(gain: float, area: float) -> float:
    if area <= 0:
        return 0.0
    return gain / area


class _Level:
    """One level of the multilevel hierarchy (bitset vertices).

    Adjacency is stored as sorted tuples — the reference visits
    neighbours in ``sorted(set)`` order, so presorting once at level
    construction removes every per-visit sort.
    """

    def __init__(
        self, vertices: list[int], adj: list[tuple[int, ...]]
    ) -> None:
        self.vertices = vertices  # projection bitset per coarse vertex
        self.adj = adj
        self.parent: list[int] = []


def _build_level0(region: Sequence[int], ctx: _Ctx) -> _Level:
    region_mask = 0
    for n in region:
        region_mask |= 1 << n
    index = {n: i for i, n in enumerate(region)}
    vertices = [1 << n for n in region]
    adj: list[set[int]] = [set() for _ in region]
    for n in region:
        for p in ctx.preds_list[n]:
            if (region_mask >> p) & 1:
                adj[index[n]].add(index[p])
                adj[index[p]].add(index[n])
    return _Level(vertices, [tuple(sorted(s)) for s in adj])


def _coarsen(level: _Level, rng: random.Random, ctx: _Ctx) -> _Level | None:
    """One coarsening pass; mirrors the reference matching order exactly."""
    n = len(level.vertices)
    order = list(range(n))
    rng.shuffle(order)
    matched = [False] * n
    groups: list[list[int]] = []
    merged_any = False
    feas_memo = ctx._feas_memo
    vertices = level.vertices
    for u in order:
        if matched[u]:
            continue
        best_v = -1
        best_ratio = -1.0
        umask = vertices[u]
        for v in level.adj[u]:  # presorted
            if matched[v] or v == u:
                continue
            merged = umask | vertices[v]
            feas = feas_memo.get(merged)
            if feas is None:
                feas = ctx.feasible_union(umask, vertices[v], merged)
            if not feas:
                continue
            gain, area = ctx.cost(merged)
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
    coarse_vertices = []
    for g in groups:
        m = 0
        for member in g:
            m |= level.vertices[member]
        coarse_vertices.append(m)
    coarse_of = [0] * n
    for ci, g in enumerate(groups):
        for member in g:
            coarse_of[member] = ci
    coarse_adj: list[set[int]] = [set() for _ in groups]
    for u in range(n):
        for v in level.adj[u]:
            cu, cv = coarse_of[u], coarse_of[v]
            if cu != cv:
                coarse_adj[cu].add(cv)
                coarse_adj[cv].add(cu)
    level.parent = coarse_of
    return _Level(coarse_vertices, [tuple(sorted(s)) for s in coarse_adj])


class _FastPartition:
    """Incremental partition bookkeeping (bitset counterpart of
    ``_PartitionState``): per-partition projected bitsets and per-vertex
    foreign-neighbour counts are updated in O(changed) on every move."""

    def __init__(
        self, ctx: _Ctx, level: _Level, assign: list[int], n_parts: int
    ) -> None:
        self.ctx = ctx
        self.level = level
        self.assign = assign
        self.part_mask: list[int] = [0] * n_parts
        for v, p in enumerate(assign):
            self.part_mask[p] |= level.vertices[v]
        # node -> vertex index at this level (repair lookups); built
        # lazily — most levels never trigger a repair.
        self._vertex_of_node: dict[int, int] | None = None
        # foreign[v] = number of neighbours in a different partition.
        adj = level.adj
        self.foreign = [
            sum(1 for u in adj[v] if assign[u] != p)
            for v, p in enumerate(assign)
        ]
        # Move evaluations are pure in (v, dest nodes, src nodes) at a
        # fixed level, so results are reusable across refinement passes.
        # Keyed by (v, dest, dest version, src, src version) — partition
        # versions bump on every move, so version equality implies mask
        # equality without hashing the (wide) masks themselves.
        # Value: (improvement or None, vertices to move, repair count).
        self.version = [0] * n_parts
        self.try_memo: dict[
            tuple[int, int, int, int, int],
            tuple[float | None, tuple[int, ...] | None, int],
        ] = {}

    @property
    def vertex_of_node(self) -> dict[int, int]:
        table = self._vertex_of_node
        if table is None:
            table = {}
            for v, mask in enumerate(self.level.vertices):
                for node in _bits(mask):
                    table[node] = v
            self._vertex_of_node = table
        return table

    def boundary_vertices(self) -> list[int]:
        """Same contents and order as the reference's O(V·deg) scan."""
        return [v for v, f in enumerate(self.foreign) if f > 0]

    def neighbor_parts(self, v: int) -> set[int]:
        assign = self.assign
        return {assign[u] for u in self.level.adj[v] if assign[u] != assign[v]}

    def move(self, vertices: list[int], dest: int) -> None:
        level = self.level
        assign = self.assign
        touched: set[int] = set()
        for v in vertices:
            src = assign[v]
            self.part_mask[src] &= ~level.vertices[v]
            self.part_mask[dest] |= level.vertices[v]
            self.version[src] += 1
            assign[v] = dest
            touched.add(v)
            touched.update(level.adj[v])
        self.version[dest] += 1
        for v in touched:
            p = assign[v]
            self.foreign[v] = sum(
                1 for u in level.adj[v] if assign[u] != p
            )
        self.ctx.moves += len(vertices)


_MISS = object()


def _try_move(
    state: _FastPartition,
    v: int,
    dest_mask: int,
    src_mask: int,
    vmask: int,
    memo_key: tuple[int, int, int, int, int],
    ekey: tuple[int, int, int],
) -> tuple[float, list[int]] | None:
    """Bitset mirror of the reference move evaluation (Algorithm 5).

    Callers (``_refine``) have already consulted both memo layers, so
    this always evaluates; it stores the outcome under *memo_key*
    (per-level memo) and, when repair-free, under *ekey* (ctx memo).
    """
    ctx = state.ctx
    moving = [v]
    moving_mask = vmask
    repairs = 0
    feas_memo = ctx._feas_memo

    candidate = dest_mask | moving_mask
    repair_budget = 4
    while True:
        feas = feas_memo.get(candidate)
        if feas is None:
            feas = ctx.feasible_union(dest_mask, moving_mask, candidate)
        if feas or repair_budget <= 0:
            break
        r = ctx._io_memo.get(candidate)
        inputs, outputs = r if r is not None else ctx.io(candidate)
        # Pool of repair nodes, weighted by connecting-edge count so the
        # most-connected vertex is absorbed first (as in the reference,
        # which appends one pool entry per edge).  Rather than walking
        # every member's adjacency, scan only the external boundary
        # *restricted to the source partition* — only vertices still in
        # the source may be pulled in, already-moving vertices lie inside
        # the candidate, and any other producer/consumer is filtered by
        # the mask intersection before a single dict lookup happens.  An
        # outside producer p contributes popcount(succ[p] & candidate)
        # edges, an outside consumer s popcount(pred[s] & candidate).
        counts: dict[int, int] = {}
        table = state._vertex_of_node
        if table is None:
            table = state.vertex_of_node
        if inputs > ctx.max_inputs:
            ext = ctx.comp(candidate)[1] & ~candidate & src_mask
            while ext:
                low = ext & -ext
                p = low.bit_length() - 1
                ext ^= low
                u = table[p]
                edges = (ctx.succ[p] & candidate).bit_count()
                counts[u] = counts.get(u, 0) + edges
        elif outputs > ctx.max_outputs:
            ext = ctx.comp(candidate)[2] & ~candidate & src_mask
            while ext:
                low = ext & -ext
                s = low.bit_length() - 1
                ext ^= low
                u = table[s]
                edges = (ctx.pred[s] & candidate).bit_count()
                counts[u] = counts.get(u, 0) + edges
        else:
            break  # convexity violation: single-vertex repair will not fix it
        if not counts:
            ctx.repairs += repairs
            state.try_memo[memo_key] = (None, None, repairs)
            return None
        u = max(counts, key=lambda k: (counts[k], -k))
        moving.append(u)
        umask = state.level.vertices[u]
        ctx.comp_union(moving_mask, umask, moving_mask | umask)
        moving_mask |= umask
        candidate = dest_mask | moving_mask
        repair_budget -= 1
        repairs += 1
    ctx.repairs += repairs
    if not feas:
        state.try_memo[memo_key] = (None, None, repairs)
        if repairs == 0:
            ctx.eval_memo[ekey] = None
        return None
    rest_mask = src_mask & ~moving_mask
    if rest_mask:
        rest_feas = feas_memo.get(rest_mask)
        if rest_feas is None:
            rest_feas = ctx.feasible(rest_mask)
        if not rest_feas:
            state.try_memo[memo_key] = (None, None, repairs)
            if repairs == 0:
                ctx.eval_memo[ekey] = None
            return None

    cost_memo = ctx._cost_memo
    stats_memo = ctx._stats_memo
    s = stats_memo.get(dest_mask)
    gain_p, area_p, _ = s if s is not None else ctx.stats(dest_mask)
    s = stats_memo.get(src_mask)
    gain_pv, area_pv, _ = s if s is not None else ctx.stats(src_mask)
    r = cost_memo.get(candidate)
    new_gain_p, new_area_p = r if r is not None else ctx.cost(candidate)
    if rest_mask:
        r = cost_memo.get(rest_mask)
        new_gain_pv, new_area_pv = r if r is not None else ctx.cost(rest_mask)
    else:
        new_gain_pv, new_area_pv = 0.0, 0.0
    improv = (
        _ratio(new_gain_p, new_area_p)
        - _ratio(gain_p, area_p)
        + _ratio(new_gain_pv, new_area_pv)
        - _ratio(gain_pv, area_pv)
    )
    if improv <= 1e-12:
        state.try_memo[memo_key] = (None, None, repairs)
        if repairs == 0:
            ctx.eval_memo[ekey] = None
        return None
    state.try_memo[memo_key] = (improv, tuple(moving), repairs)
    if repairs == 0:
        ctx.eval_memo[ekey] = improv
    return improv, moving


def _refine(
    state: _FastPartition,
    rng: random.Random,
    max_passes: int = 3,
) -> None:
    ctx = state.ctx
    try_memo = state.try_memo
    eval_memo = ctx.eval_memo
    part_mask = state.part_mask
    version = state.version
    assign = state.assign
    adj = state.level.adj
    vertices = state.level.vertices
    for _ in range(max_passes):
        improved = False
        boundary = state.boundary_vertices()
        rng.shuffle(boundary)
        for v in boundary:
            p = assign[v]
            neighbor_parts = {assign[u] for u in adj[v] if assign[u] != p}
            best: tuple[float, list[int], int] | None = None
            src_mask = part_mask[p]
            pver = version[p]
            vmask = vertices[v]
            for dest in sorted(neighbor_parts):
                # Inlined memo-hit paths: per-level memo first (knows
                # repaired moves), then the ctx-wide repair-free memo, so
                # repeat visits across passes/levels skip _try_move.
                memo_key = (v, dest, version[dest], p, pver)
                hit = try_memo.get(memo_key)
                if hit is not None:
                    improv, moving_t, repairs = hit
                    ctx.repairs += repairs
                    if improv is None:
                        continue
                    res: tuple[float, list[int]] | None = (
                        improv,
                        list(moving_t),
                    )
                else:
                    dmask = part_mask[dest]
                    ekey = (vmask, dmask, src_mask)
                    ehit = eval_memo.get(ekey, _MISS)
                    if ehit is not _MISS:
                        if ehit is None:
                            continue
                        res = (ehit, [v])
                    else:
                        res = _try_move(
                            state, v, dmask, src_mask, vmask, memo_key, ekey
                        )
                if res is not None and (best is None or res[0] > best[0]):
                    best = (res[0], res[1], dest)
            if best is not None:
                state.move(best[1], best[2])
                improved = True
        if not improved:
            break


def run_fast_mlgp(
    dfg: DataFlowGraph,
    region: Sequence[int],
    max_inputs: int,
    max_outputs: int,
    model: HardwareCostModel,
    seed: int,
    refine_passes: int,
) -> tuple[
    tuple[tuple[frozenset[int], ...], tuple[float, ...], tuple[float, ...]],
    dict[str, int],
]:
    """Run the bitset MLGP engine on one region.

    Returns ``((partitions, gains, areas), counters)`` where *partitions*
    are frozensets (identical to the reference engine's output) and
    *counters* carries the local ``moves``/``repairs`` totals for a single
    flush into the metrics registry.
    """
    ctx = _get_ctx(dfg, max_inputs, max_outputs, model)
    ctx.moves = 0
    ctx.repairs = 0
    rng = random.Random(seed)
    levels: list[_Level] = [_build_level0(region, ctx)]
    while True:
        coarser = _coarsen(levels[-1], rng, ctx)
        if coarser is None:
            break
        levels.append(coarser)

    coarsest = levels[-1]
    n_parts = len(coarsest.vertices)
    assign = list(range(n_parts))

    for li in range(len(levels) - 1, -1, -1):
        level = levels[li]
        if li < len(levels) - 1:
            assign = [assign[level.parent[v]] for v in range(len(level.vertices))]
        state = _FastPartition(ctx, level, assign, n_parts)
        _refine(state, rng, max_passes=refine_passes)
        assign = state.assign

    final = _FastPartition(ctx, levels[0], assign, n_parts)
    partitions: list[frozenset[int]] = []
    gains: list[float] = []
    areas: list[float] = []
    for p in range(n_parts):
        mask = final.part_mask[p]
        if not mask:
            continue
        gain, area, feasible = ctx.stats(mask)
        if not feasible:
            continue
        partitions.append(frozenset(_bits(mask)))
        gains.append(gain)
        areas.append(area)
    counters = {"moves": ctx.moves, "repairs": ctx.repairs}
    return (tuple(partitions), tuple(gains), tuple(areas)), counters
