"""Knapsack DPs over a quantized area axis.

:func:`multichoice_table` and :func:`multichoice_backtrack` solve the
multiple-choice knapsack: one option per group, smallest summed value under
the budget.  Algorithm 1 (EDF selection), recursion (4.2) (inter-task
Pareto curves) and the Chapter 7 static baseline minimize utilization with
it; Algorithm 7 / recursion (6.3) (spatial partitioning) minimizes negated
gain.  :func:`select_knapsack` is the 0-1 knapsack for pairwise-disjoint
candidates (Cong et al., thesis Section 2.3.2).
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd
from typing import TYPE_CHECKING

from repro.enumeration.patterns import Candidate

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "area_quantum",
    "quantize",
    "multichoice_table",
    "multichoice_backtrack",
    "select_knapsack",
]


def area_quantum(
    areas: Sequence[float],
    budget: float,
    scale: int = 100,
    max_steps: int | None = None,
) -> int:
    """Integer step for an area axis scaled by *scale*.

    The GCD of every scaled area and the budget (thesis Algorithm 1 takes
    "the greatest common divisor of all configurations' area ... and
    AREA"), coarsened to ``ceil(budget / max_steps)`` when the budget would
    span more than *max_steps* steps.
    """
    cap = int(round(budget * scale))
    g = gcd(max(1, cap), *(round(a * scale) for a in areas if a > 0))
    if max_steps is not None and cap // g > max_steps:
        g = -(-cap // max_steps)
    return g


def quantize(
    area_groups: Sequence[Sequence[float]], budget: float, scale: int, max_steps: int
) -> tuple[int, list[list[int]]]:
    """``(cap, steps)``: the budget and each option's area in whole
    :func:`area_quantum` steps.  The budget rounds down and areas round
    *up*, so quantization never understates consumed area."""
    flat = [a for group in area_groups for a in group]
    q = area_quantum(flat, max(budget, 1e-9), scale, max_steps)
    steps = [[-(-round(a * scale) // q) for a in group] for group in area_groups]
    return int(round(budget * scale)) // q, steps


def multichoice_table(
    groups: Sequence[Sequence[tuple[int, float]]], cap: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Pick one ``(steps, value)`` option per group, minimizing the sum.

    ``best[a]`` is the smallest sum within ``a`` steps (``inf`` if nothing
    fits) and ``picks[i][a]`` group *i*'s option in it.  A strict ``<``
    keeps the earliest option on ties; options wider than *cap* are skipped.
    """
    import numpy as np

    best = np.zeros(cap + 1)
    picks: list[np.ndarray] = []
    for options in groups:
        new = np.full(cap + 1, np.inf)
        pick = np.zeros(cap + 1, dtype=np.int32)
        for j, (w, value) in enumerate(options):
            if w > cap:
                continue
            # Budgets below w cannot fit this option: compare only the
            # shifted tail and write through the views.
            cand = best[: cap + 1 - w] + value
            new_tail, pick_tail = new[w:], pick[w:]
            better = cand < new_tail
            new_tail[better] = cand[better]
            pick_tail[better] = j
        best = new
        picks.append(pick)
    return best, picks


def multichoice_backtrack(
    groups: Sequence[Sequence[tuple[int, float]]], picks: list[np.ndarray], a: int
) -> tuple[int, ...]:
    """Each group's option in the :func:`multichoice_table` solution at *a*."""
    choice = [0] * len(groups)
    for i in range(len(groups) - 1, -1, -1):
        choice[i] = j = int(picks[i][a])
        a -= groups[i][j][0]
    return tuple(choice)


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
