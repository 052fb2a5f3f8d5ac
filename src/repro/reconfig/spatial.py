"""Spatial partitioning DP (thesis Algorithm 7).

Selects one CIS version per loop maximizing total gain under an area budget
— recursion (6.3)::

    G_i(A) = max_{j : area_{i,j} <= A} ( gain_{i,j} + G_{i-1}(A - area_{i,j}) )

This is the multiple-choice knapsack of :mod:`repro.selection.knapsack`
with each version's negated gain as its value.

Used twice by the iterative partitioning algorithm: *globally* with budget
``k x MaxA`` (phase 1) and *locally* per configuration with budget ``MaxA``
(phase 3).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ReproError
from repro.reconfig.model import HotLoop
from repro.selection.knapsack import (
    multichoice_backtrack,
    multichoice_table,
    quantize,
)

__all__ = ["spatial_select"]


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
    cap, steps = quantize(
        [[v.area for v in lp.versions] for lp in loops],
        area_budget,
        scale,
        max_steps,
    )
    groups = [
        [(w, -v.gain) for w, v in zip(ws, lp.versions)]
        for lp, ws in zip(loops, steps)
    ]
    best, picks = multichoice_table(groups, cap)
    selection = list(multichoice_backtrack(groups, picks, int(best.argmin())))
    total = sum(lp.versions[j].gain for lp, j in zip(loops, selection))
    return selection, total
