"""Spatial partitioning DP (thesis Algorithm 7).

Selects one CIS version per loop maximizing total gain under an area budget
— recursion (6.3)::

    G_i(A) = max_{j : area_{i,j} <= A} ( gain_{i,j} + G_{i-1}(A - area_{i,j}) )

Pseudo-polynomial over a quantized area axis, vectorized; the step is the
GCD of the version areas and the budget (coarsened beyond ``max_steps``
with areas rounded up, so the budget always holds).

Used twice by the iterative partitioning algorithm: *globally* with budget
``k x MaxA`` (phase 1) and *locally* per configuration with budget ``MaxA``
(phase 3).
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

import numpy as np

from repro.errors import ReproError
from repro.reconfig.model import HotLoop

__all__ = ["spatial_select"]


def _quantum(areas: list[float], budget: float, scale: int, max_steps: int) -> int:
    ints = [round(a * scale) for a in areas if a > 0]
    ints.append(max(1, round(budget * scale)))
    g = 0
    for v in ints:
        g = gcd(g, v)
    g = max(1, g)
    cap = int(round(budget * scale))
    if cap // g > max_steps:
        g = -(-cap // max_steps)
    return g


def spatial_select(
    loops: Sequence[HotLoop],
    area_budget: float,
    scale: int = 100,
    max_steps: int = 20000,
) -> tuple[list[int], float]:
    """Optimal version selection under an area budget.

    Args:
        loops: the hot loops with CIS versions.
        area_budget: available hardware area.
        scale: fixed-point scale for fractional areas.
        max_steps: DP table width cap.

    Returns:
        (version index per loop, total gain).
    """
    if area_budget < 0:
        raise ReproError("area budget must be non-negative")
    areas = [v.area for lp in loops for v in lp.versions]
    q = _quantum(areas, max(area_budget, 1e-9), scale, max_steps)
    cap = int(round(area_budget * scale)) // q

    def steps(a: float) -> int:
        return -(-round(a * scale) // q)  # ceil: never understate area

    neg_inf = -np.inf
    best = np.zeros(cap + 1)
    picks: list[np.ndarray] = []
    for lp in loops:
        new = np.full(cap + 1, neg_inf)
        pick = np.zeros(cap + 1, dtype=np.int32)
        for j, v in enumerate(lp.versions):
            w = steps(v.area)
            if w > cap:
                continue
            # Budgets below w cannot fit this version: compare only the
            # shifted tail and write through the views.
            seg = best[: cap + 1 - w] + v.gain
            new_tail, pick_tail = new[w:], pick[w:]
            better = seg > new_tail
            new_tail[better] = seg[better]
            pick_tail[better] = j
        best = new
        picks.append(pick)

    a = int(np.argmax(best))
    selection = [0] * len(loops)
    for i in range(len(loops) - 1, -1, -1):
        j = int(picks[i][a])
        selection[i] = j
        a -= steps(loops[i].versions[j].area)
    total = sum(lp.versions[j].gain for lp, j in zip(loops, selection))
    return selection, total
