"""Bitset fast path for MLGP partitioning (``engine="fast"``).

Mirrors the reference algorithm in :mod:`repro.mlgp.mlgp` step for step —
same RNG stream, same visit orders, same float arithmetic — so the
produced partitions are *bit-identical* to the reference oracle under any
seed (asserted by ``tests/test_partitioning_differential.py``).  What
changes is the data representation and the bookkeeping cost:

* **node sets are int bitsets in a region-local index** — a coarse
  vertex's projection onto the original DFG is one Python int, so set
  algebra (union, difference, membership) is single word-vector
  operations instead of ``frozenset`` traffic.  Bit ``i`` is the
  ``i``-th node, in ascending global id, of the region ``R`` plus its
  outside predecessors ``P`` (a producer shared by several members is
  one input) plus the outside nodes ``B`` lying between two region nodes
  (a path through an invalid node breaks convexity).  Every subgraph
  MLGP builds lies in ``R``, so no other node can change an answer, and
  masks are as wide as the region's neighbourhood rather than the whole
  block.  The relabel preserves order, so every summation order, bit
  walk and tie-break is the global one;
* **memoized projection tables** — feasibility, I/O counts and
  (gain, area) cost projections are cached per bitset for the whole run,
  so the refinement loop's repeated re-evaluation of the same candidate
  subgraphs (across passes *and* uncoarsening levels) collapses to dict
  lookups;
* **repair-pool pre-check** — each infeasible move candidate
  ``dest | v`` records the nodes a first repair could pull in; a move
  whose source partition holds none of them is rejected without entering
  :func:`_try_move`, which would have rejected it with zero repairs;
* **incremental partition bookkeeping** — each partition's projected node
  bitset and each vertex's foreign-neighbour count are maintained under
  :meth:`_FastPartition.move` in O(moved vertices · degree), so
  ``boundary_vertices``/``stats`` no longer rescan the whole level.

Feasibility itself is evaluated in O(|S|) word operations from the
per-region tables, built once per region from the DFG's
:class:`~repro.graphs.dfg.DFGMasks`:

* inputs  = ``popcount(union of member preds & ~S)`` + live-in operands;
* outputs = members with a live-out value or a successor outside ``S``
  (a region node with a successor outside ``R`` is folded into the local
  live-out set: it is an output of every subgraph MLGP builds);
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
    """Per-region projection tables in a compact local bit space.

    Bit ``i`` of every mask here is local node ``i``; ``nodes[i]`` is its
    global DFG id and ``region_pos`` holds the local index of each region
    node, in region order.  The local index lists, in ascending global
    order, the region ``R``, its outside predecessors ``P`` (so a producer
    shared by several members is one input) and the outside nodes ``B``
    that lie between two region nodes (so a path through an invalid node
    still breaks convexity).  Every subgraph MLGP evaluates is a subset of
    ``R``, so nothing else can change an answer.
    """

    def __init__(
        self,
        dfg: DataFlowGraph,
        region: Sequence[int],
        max_inputs: int,
        max_outputs: int,
        model: HardwareCostModel,
    ) -> None:
        masks = dfg.bitset_masks()
        self.masks = masks
        gpred = masks.pred
        gsucc = masks.succ
        region_g = 0
        for n in region:
            region_g |= 1 << n
        predu = ancu = descu = 0
        for n in region:
            predu |= gpred[n]
            ancu |= masks.anc[n]
            descu |= masks.desc[n]
        # Ascending global ids, so every bit-order walk (sums, _bits, tie
        # breaks) visits nodes exactly as the global masks would.
        nodes = _bits(region_g | ((predu | (ancu & descu)) & ~region_g))
        self.nodes = nodes
        pos = {g: i for i, g in enumerate(nodes)}
        self.region_pos = [pos[g] for g in region]
        k = len(nodes)
        # Original predecessor lists (insertion order, global ids), so the
        # cost model sees exactly the same structures as the reference.
        self.preds_list = [dfg.preds(g) for g in nodes]
        pred = [0] * k
        succ = [0] * k
        anc = [0] * k
        for i, preds in enumerate(self.preds_list):
            pm = 0
            am = 0
            for p in preds:
                j = pos.get(p)
                if j is not None:
                    pm |= 1 << j
                    am |= anc[j] | (1 << j)
                    succ[j] |= 1 << i
            pred[i] = pm
            anc[i] = am  # ascending ids are topological, anc[j] is final
        desc = [0] * k
        for i in range(k - 1, -1, -1):
            dm = 0
            sm = succ[i]
            while sm:
                low = sm & -sm
                sm ^= low
                dm |= desc[low.bit_length() - 1] | low
            desc[i] = dm
        valid = 0
        live_out = 0
        for g in region:
            bit = 1 << pos[g]
            if (masks.valid >> g) & 1:
                valid |= bit
            # A successor outside R is outside every subgraph MLGP builds,
            # so the node is always an output: fold it into live_out.
            if (masks.live_out >> g) & 1 or gsucc[g] & ~region_g:
                live_out |= bit
        self.pred = pred
        self.succ = succ
        self.anc = anc
        self.desc = desc
        self.valid = valid
        self.live_out = live_out
        self.ext_in = [masks.external_inputs[g] for g in nodes]
        self.max_inputs = max_inputs
        self.max_outputs = max_outputs
        self.model = model
        self.ops = [dfg.op(g) for g in nodes]
        # Per-node cost primitives for the inlined evaluation.  A model
        # subclass may override subgraph_cost, so only a plain
        # HardwareCostModel is evaluated inline.
        self.plain_model = type(model) is HardwareCostModel
        self.sw_cycles = [masks.sw_cycles[g] for g in nodes]
        self.hw_delay = [masks.hw_delay[g] for g in nodes]
        self.hw_area = [masks.hw_area[g] for g in nodes]
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
        # Infeasible move candidate (destination | moving vertex) -> the
        # nodes a first repair could pull in: its external predecessors
        # if inputs overflow, else its external successors, 0 for a
        # convexity violation.  A move whose source holds none of them is
        # rejected without a repair, before entering _try_move.
        self.pool_memo: dict[int, int] = {}
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
            # match the reference engine bit for bit.  Areas go through
            # the builtin sum, as in subgraph_area: from Python 3.12 it
            # compensates rounding, which a running ``+=`` would not.
            sw = 0
            areas = []
            longest = 0.0
            finish: dict[int, float] = {}
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
                areas.append(self.hw_area[n])
            gain = (
                float(sw - self.model.hw_cycles(longest))
                if len(areas) > 1 else 0.0
            )
            r = (gain, sum(areas))
        else:
            local = _bits(m)
            nodes = [self.nodes[i] for i in local]
            members = set(nodes)
            preds = {
                g: [p for p in self.preds_list[i] if p in members]
                for i, g in zip(local, nodes)
            }
            ops = {g: self.ops[i] for i, g in zip(local, nodes)}
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


# Contexts are pure functions of the DFG structure, the region and the
# (constraints, model) pair, so they are shared across calls: the flow
# re-partitions the same regions under different seeds and every run then
# reuses the accumulated feasibility/cost tables.  A masks-identity check
# guards against DFG mutation (mutators drop the cached DFGMasks object).
_CTX_CACHE: "weakref.WeakKeyDictionary[DataFlowGraph, dict]" = (
    weakref.WeakKeyDictionary()
)


def _get_ctx(
    dfg: DataFlowGraph,
    region: Sequence[int],
    max_inputs: int,
    max_outputs: int,
    model: HardwareCostModel,
) -> _Ctx:
    if type(model) is not HardwareCostModel:
        # Subclasses may close over arbitrary state; memos keyed on the
        # object would go stale silently, so build a fresh context.
        return _Ctx(dfg, region, max_inputs, max_outputs, model)
    per = _CTX_CACHE.get(dfg)
    if per is None:
        per = {}
        _CTX_CACHE[dfg] = per
    key = (tuple(region), max_inputs, max_outputs, model.cycle_delay)
    ctx = per.get(key)
    if ctx is None or ctx.masks is not dfg.bitset_masks():
        ctx = _Ctx(dfg, region, max_inputs, max_outputs, model)
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


def _build_level0(ctx: _Ctx) -> _Level:
    slots = ctx.region_pos
    vertex_of = {i: vi for vi, i in enumerate(slots)}
    adj: list[set[int]] = [set() for _ in slots]
    for vi, i in enumerate(slots):
        for j in _bits(ctx.pred[i]):
            pj = vertex_of.get(j)
            if pj is not None:
                adj[vi].add(pj)
                adj[pj].add(vi)
    return _Level([1 << i for i in slots], [tuple(sorted(s)) for s in adj])


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

    Callers (``_refine``) have already consulted the memo layers and
    the repair-pool pre-check, so this always evaluates; it stores the
    outcome under *memo_key* (per-level memo) and, when repair-free and
    not replayed by the pre-check, under *ekey* (ctx memo).
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
        # Pool of repair nodes: the candidate's outside producers when
        # inputs overflow, else its outside consumers; none for a
        # convexity violation (a single-vertex repair will not fix it).
        if inputs > ctx.max_inputs:
            pool = ctx.comp(candidate)[1] & ~candidate
            edges_of = ctx.succ
        elif outputs > ctx.max_outputs:
            pool = ctx.comp(candidate)[2] & ~candidate
            edges_of = ctx.pred
        else:
            pool = 0
        if not repairs:
            ctx.pool_memo[candidate] = pool
        # Only vertices still in the source partition may be pulled in
        # (already-moving vertices lie inside the candidate).  Each is
        # weighted by its connecting-edge count so the most-connected
        # vertex is absorbed first (as in the reference, which appends one
        # pool entry per edge): an outside producer p contributes
        # popcount(succ[p] & candidate) edges, a consumer s
        # popcount(pred[s] & candidate).
        ext = pool & src_mask
        if not ext:
            # No repair can fix it.  The pool pre-check in _refine replays
            # this rejection, so the ctx-wide eval memo need not keep it.
            ctx.repairs += repairs
            state.try_memo[memo_key] = (None, None, repairs)
            return None
        counts: dict[int, int] = {}
        table = state._vertex_of_node
        if table is None:
            table = state.vertex_of_node
        while ext:
            low = ext & -ext
            x = low.bit_length() - 1
            ext ^= low
            u = table[x]
            edges = (edges_of[x] & candidate).bit_count()
            counts[u] = counts.get(u, 0) + edges
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
    pool_memo = ctx.pool_memo
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
                # repaired moves), then the repair-pool pre-check, then
                # the ctx-wide repair-free memo, so repeat visits across
                # passes/levels skip _try_move.
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
                    pool = pool_memo.get(dmask | vmask)
                    if pool is not None and not pool & src_mask:
                        continue
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
    ctx = _get_ctx(dfg, region, max_inputs, max_outputs, model)
    ctx.moves = 0
    ctx.repairs = 0
    rng = random.Random(seed)
    levels: list[_Level] = [_build_level0(ctx)]
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
        partitions.append(frozenset(ctx.nodes[i] for i in _bits(mask)))
        gains.append(gain)
        areas.append(area)
    counters = {"moves": ctx.moves, "repairs": ctx.repairs}
    return (tuple(partitions), tuple(gains), tuple(areas)), counters
