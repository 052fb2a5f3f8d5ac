"""Iterative temporal/spatial partitioning (thesis Algorithm 6).

For every candidate configuration count ``k`` from 1 to the number of hot
loops:

1. **global spatial partition** — optimally select CIS versions under a
   *continuous* budget ``k x MaxA`` (ignoring reconfiguration cost); this
   upper-bounds what ``k`` configurations could achieve;
2. **temporal partition** — build the reconfiguration cost graph and
   k-way-partition the selected loops (vertex weight = selected version
   area) so the reconfiguration cost is minimized and parts are roughly
   ``MaxA``-sized; also compute an alternative partition ``P'`` of *all*
   loops with unit weights that ignores the phase-1 selection (better when
   reconfiguration cost dominates);
3. **local spatial partition** — within each configuration, re-select
   versions under the real per-configuration budget ``MaxA``.

The candidate solutions are evaluated by net gain (gain minus
reconfiguration cost over the loop trace) and the best across all ``k`` is
returned.  Early exit: if some solution already gives every loop its best
version, larger ``k`` cannot help.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro import obs
from repro.errors import ReproError
from repro.reconfig.kwaypart import kway_partition
from repro.reconfig.model import HotLoop, Partition, net_gain
from repro.reconfig.rcg import build_rcg
from repro.reconfig.spatial import spatial_select

__all__ = ["PartitionSolution", "iterative_partition"]


@dataclass(frozen=True)
class PartitionSolution:
    """A complete partitioning solution with its evaluation."""

    partition: Partition
    gain: float
    n_configurations: int


def _cap_versions(loops: Sequence[HotLoop], max_area: float) -> list[HotLoop]:
    """Drop versions that cannot fit a single configuration."""
    capped = []
    for lp in loops:
        versions = tuple(v for v in lp.versions if v.area <= max_area)
        capped.append(HotLoop(name=lp.name, versions=versions))
    return capped


def _local_spatial(
    loops: Sequence[HotLoop],
    members: Sequence[int],
    base_selection: list[int],
    max_area: float,
) -> None:
    """Re-select versions of *members* under ``max_area``, in place."""
    if not members:
        return
    sub = [loops[i] for i in members]
    sel, _gain = spatial_select(sub, max_area)
    for i, j in zip(members, sel):
        base_selection[i] = j


def _evaluate(
    loops: Sequence[HotLoop],
    selection: list[int],
    config_of: list[int],
    trace: Sequence[int],
    rho: float,
) -> PartitionSolution:
    part = Partition(selection=tuple(selection), config_of=tuple(config_of))
    return PartitionSolution(
        partition=part,
        gain=net_gain(loops, part, trace, rho),
        n_configurations=part.n_configurations(),
    )


def _prune_to_software(
    loops: Sequence[HotLoop],
    selection: list[int],
    config_of: list[int],
    trace: Sequence[int],
    rho: float,
) -> None:
    """Demote loops whose reconfiguration contribution exceeds their gain.

    Phases 1-3 ignore the interaction between version selection and
    reconfiguration cost; this greedy descent repeatedly moves the loop
    with the largest net benefit to software.  Removing loop *i* from the
    hardware trace deletes its boundary switches and may create new ones
    between its neighbours; the exact removal delta for every loop is
    computed in one sweep per pass.
    """
    while True:
        hw = {i for i, j in enumerate(selection) if j != 0}
        if not hw:
            return
        # Run-compressed hardware trace: per-run removal deltas sum to the
        # exact whole-loop removal delta (neighbouring runs always belong
        # to other loops).
        elided: list[int] = []
        for x in trace:
            if x in hw and (not elided or elided[-1] != x):
                elided.append(x)
        delta: dict[int, int] = {i: 0 for i in hw}
        m = len(elided)
        for pos, cur in enumerate(elided):
            prev_cfg = config_of[elided[pos - 1]] if pos > 0 else None
            next_cfg = config_of[elided[pos + 1]] if pos + 1 < m else None
            cur_cfg = config_of[cur]
            removed = 0
            if prev_cfg is not None and prev_cfg != cur_cfg:
                removed += 1
            if next_cfg is not None and next_cfg != cur_cfg:
                removed += 1
            created = (
                1
                if prev_cfg is not None
                and next_cfg is not None
                and prev_cfg != next_cfg
                else 0
            )
            delta[cur] += removed - created
        best_i, best_benefit = -1, 0.0
        for i in hw:
            benefit = delta[i] * rho - loops[i].versions[selection[i]].gain
            if benefit > best_benefit + 1e-9:
                best_i, best_benefit = i, benefit
        if best_i < 0:
            return
        selection[best_i] = 0


def _solutions_for_k(
    loops: Sequence[HotLoop],
    trace: Sequence[int],
    max_area: float,
    rho: float,
    seed: int,
    prune: bool,
    k: int,
    edges_all: Mapping[tuple[int, int], float],
) -> list[PartitionSolution]:
    """Candidate solutions for one configuration count *k* (phases 1-3).

    *edges_all* is the reconfiguration cost graph over all loops (the
    graph of partition P', the same for every *k*).  Returned in the
    order :func:`iterative_partition` compares them: each base candidate
    followed by its pruned variant when it differs.
    """
    with obs.span("reconfig.k", k=k, loops=len(loops)):
        n = len(loops)
        # Phase 1: global spatial partitioning over continuous area k*MaxA.
        selection, _ = spatial_select(loops, k * max_area)
        hw = [i for i, j in enumerate(selection) if j != 0]

        candidates: list[tuple[list[int], list[int]]] = []
        # Partition P: selected loops, weights = selected version areas.
        if hw:
            rcg = build_rcg(trace, hw)
            local = {v: i for i, v in enumerate(hw)}
            edges = {
                (local[u], local[v]): float(w) for (u, v), w in rcg.items()
            }
            weights = [loops[i].versions[selection[i]].area for i in hw]
            assign = kway_partition(
                len(hw), edges, weights, k=min(k, len(hw)), seed=seed
            )
            config_of = [0] * n
            for i, part_id in zip(hw, assign):
                config_of[i] = part_id
            candidates.append((list(selection), config_of))
        # Partition P': all loops, unit weights, selection ignored.
        assign_all = kway_partition(n, edges_all, None, k=k, seed=seed)
        candidates.append(([0] * n, list(assign_all)))

        solutions: list[PartitionSolution] = []
        for base_selection, config_of in candidates:
            final_selection = list(base_selection)
            parts: dict[int, list[int]] = {}
            pool = (
                [i for i in range(n) if base_selection[i] != 0]
                if any(base_selection)
                else range(n)
            )
            for i in pool:
                parts.setdefault(config_of[i], []).append(i)
            # Phase 3: local spatial partitioning per configuration.
            for members in parts.values():
                _local_spatial(loops, members, final_selection, max_area)
            solutions.append(
                _evaluate(loops, final_selection, config_of, trace, rho)
            )
            if not prune:
                continue
            # Post-pass: demote loops whose reconfiguration cost outweighs
            # their gain (keeps whichever variant evaluates better).
            pruned_selection = list(final_selection)
            _prune_to_software(loops, pruned_selection, config_of, trace, rho)
            if pruned_selection != final_selection:
                solutions.append(
                    _evaluate(loops, pruned_selection, config_of, trace, rho)
                )
        return solutions


def iterative_partition(
    loops: Sequence[HotLoop],
    trace: Sequence[int],
    max_area: float,
    rho: float,
    seed: int = 0,
    prune: bool = True,
) -> PartitionSolution:
    """Run Algorithm 6 and return the best solution found.

    Args:
        loops: hot loops with CIS versions.
        trace: loop trace (execution sequence of loop indices).
        max_area: hardware area of one configuration (``MaxA``).
        rho: cost of one reconfiguration.
        seed: RNG seed for the k-way partitioner.
        prune: run the software-demotion post-pass on each candidate
            solution (ablation switch; True in normal use).

    Returns:
        The best :class:`PartitionSolution`.
    """
    n = len(loops)
    if n == 0:
        raise ReproError("need at least one hot loop")
    loops = _cap_versions(loops, max_area)

    with obs.span("reconfig.partition", loops=n):
        edges_all = {
            e: float(w) for e, w in build_rcg(trace, range(n)).items()
        }
        best: PartitionSolution | None = None
        best_total_gain = sum(
            lp.versions[lp.best_version].gain for lp in loops
        )
        for k in range(1, n + 1):
            for sol in _solutions_for_k(
                loops, trace, max_area, rho, seed, prune, k, edges_all
            ):
                if best is None or sol.gain > best.gain:
                    best = sol
            # Early exit: every loop already at its best version.
            if best is not None and all(
                best.partition.selection[i] == loops[i].best_version
                for i in range(n)
            ):
                break
            if best is not None and best.gain >= best_total_gain:
                break
        assert best is not None
    return best
