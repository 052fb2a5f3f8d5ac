"""0-1 knapsack DP for non-overlapping candidate selection.

When candidates are pairwise disjoint (e.g. pre-clustered per region, or the
winners of a per-block pre-selection), selection under an area budget is a
plain 0-1 knapsack (Cong et al., thesis Section 2.3.2), solved optimally in
pseudo-polynomial time over a quantized area axis.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from repro.enumeration.patterns import Candidate

__all__ = ["select_knapsack", "area_quantum"]


def area_quantum(areas: Sequence[float], budget: float, scale: int = 100) -> int:
    """Integer quantization step for an area axis.

    Areas are scaled by *scale* and rounded; the returned quantum is the GCD
    of all scaled areas and the budget (thesis Algorithm 1 chooses the step
    as "the greatest common divisor of all configurations' area ... and
    AREA").
    """
    ints = [round(a * scale) for a in areas if a > 0]
    ints.append(max(1, round(budget * scale)))
    g = 0
    for v in ints:
        g = gcd(g, v)
    return max(1, g)


def select_knapsack(
    candidates: Sequence[Candidate],
    area_budget: float,
    scale: int = 100,
) -> list[int]:
    """Optimal selection of pairwise-disjoint candidates (0-1 knapsack).

    Args:
        candidates: disjoint candidate pool (overlaps are *not* checked).
        area_budget: total CFU area available.
        scale: fixed-point scale for area quantization.

    Returns:
        Indices of the selected candidates.
    """
    items = [
        (i, c.total_gain, round(c.area * scale))
        for i, c in enumerate(candidates)
        if c.total_gain > 0
    ]
    cap = int(round(area_budget * scale))
    if cap <= 0 or not items:
        return []
    quantum = area_quantum([c.area for c in candidates], area_budget, scale)
    cap //= quantum

    best = [0.0] * (cap + 1)
    take: list[list[int]] = [[] for _ in range(cap + 1)]
    for idx, gain, area_scaled in items:
        w = -(-area_scaled // quantum)  # ceil division: never under-count area
        if w > cap:
            continue
        for a in range(cap, w - 1, -1):
            cand_val = best[a - w] + gain
            if cand_val > best[a]:
                best[a] = cand_val
                take[a] = take[a - w] + [idx]
    best_a = max(range(cap + 1), key=lambda a: best[a])
    return sorted(take[best_a])
