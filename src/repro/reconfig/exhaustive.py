"""Exhaustive partitioning baseline (thesis Section 6.4).

Enumerates *every* set partition of the hot loops into configurations
(restricted-growth-string enumeration, after Kreher & Stinson [63]); for
each partition the optimal per-configuration version selection is computed
(memoized per loop subset) and the net gain evaluated over the trace.
Super-exponential: the number of partitions is the Bell number ``B(N)``,
so it "fails to return any solution with more than 12 hot loops" (thesis
Figure 6.8).

Note on optimality: following the thesis procedure, the per-configuration
selection maximizes *gain* under the area budget; it never demotes a loop
to software purely to save reconfiguration cost.  The search is therefore
exact over the thesis's solution space, but the iterative algorithm's
software-demotion post-pass can occasionally beat it on reconfiguration-
dominated inputs.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence

from repro.errors import SolverError
from repro.reconfig.iterative import PartitionSolution, _evaluate
from repro.reconfig.model import HotLoop
from repro.reconfig.spatial import spatial_select

__all__ = ["exhaustive_partition", "set_partitions"]


def set_partitions(n: int) -> Iterator[list[int]]:
    """Yield every partition of ``{0..n-1}`` as a restricted growth string.

    Element ``i`` of the yielded list is the block id of item *i*; block ids
    are dense and first-occurrence ordered.
    """
    if n == 0:
        yield []
        return
    rgs = [0] * n
    maxes = [0] * n
    while True:
        yield list(rgs)
        # Advance to the next restricted growth string.
        i = n - 1
        while i > 0 and rgs[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        maxes[i] = max(maxes[i - 1], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            maxes[j] = maxes[i]


def exhaustive_partition(
    loops: Sequence[HotLoop],
    trace: Sequence[int],
    max_area: float,
    rho: float,
    time_budget: float | None = None,
) -> PartitionSolution:
    """Optimal partitioning by full set-partition enumeration.

    Args:
        loops: hot loops with CIS versions.
        trace: loop trace.
        max_area: hardware area of one configuration.
        rho: cost of one reconfiguration.
        time_budget: optional wall-clock cutoff in seconds.

    Returns:
        The optimal :class:`PartitionSolution`.

    Raises:
        SolverError: when the time budget expires before any solution is
            evaluated.
    """
    n = len(loops)
    # Load numpy before the clock starts: the budget bounds the search, not
    # the first import behind spatial_select's knapsack table.
    import numpy  # noqa: F401

    start = time.perf_counter()
    best: PartitionSolution | None = None
    # Memoized optimal local selection per loop subset.
    memo: dict[frozenset[int], list[int]] = {}

    def local_selection(members: frozenset[int]) -> list[int]:
        cached = memo.get(members)
        if cached is None:
            sub = [loops[i] for i in sorted(members)]
            cached, _ = spatial_select(sub, max_area)
            memo[members] = cached
        return cached

    for rgs in set_partitions(n):
        if time_budget is not None and time.perf_counter() - start > time_budget:
            if best is None:
                raise SolverError(
                    "exhaustive search exceeded its time budget with no solution"
                )
            return best
        blocks: dict[int, list[int]] = {}
        for i, b in enumerate(rgs):
            blocks.setdefault(b, []).append(i)
        selection = [0] * n
        for members in blocks.values():
            sel = local_selection(frozenset(members))
            for i, j in zip(sorted(members), sel):
                selection[i] = j
        sol = _evaluate(loops, selection, rgs, trace, rho)
        if best is None or sol.gain > best.gain:
            best = sol
    assert best is not None
    return best
