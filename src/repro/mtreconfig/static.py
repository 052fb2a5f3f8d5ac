"""Static (single-configuration) baseline for Chapter 7.

With exactly one configuration the fabric never reconfigures, but every
selected hardware version must fit the fabric *simultaneously* — this is
precisely the Chapter 3 selection problem: a multi-choice knapsack
minimizing utilization under the total area budget, solved by the shared
DP of :mod:`repro.selection.knapsack`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import obs
from repro.errors import ScheduleError
from repro.mtreconfig.model import MTSolution, ReconfigTask, effective_utilization
from repro.selection.knapsack import (
    multichoice_backtrack,
    multichoice_table,
    quantize,
)

__all__ = ["static_solution"]


def static_solution(
    tasks: Sequence[ReconfigTask],
    fabric_area: float,
    rho: float = 0.0,
    scale: int = 100,
    max_steps: int = 20000,
) -> MTSolution:
    """Optimal single-configuration solution (no reconfiguration).

    Args:
        tasks: the periodic tasks with CIS versions.
        fabric_area: total fabric area (one configuration).
        rho: unused (kept for a uniform solver signature).
        scale / max_steps: area quantization controls.

    Returns:
        The utilization-minimal :class:`MTSolution` with all hardware tasks
        in configuration 0.
    """
    if fabric_area < 0:
        raise ScheduleError("fabric area must be non-negative")
    with obs.span("mtreconfig.static", tasks=len(tasks)):
        cap, steps = quantize(
            [[v.area for v in t.versions] for t in tasks], fabric_area, scale, max_steps
        )
        groups = [
            [(w, v.cycles / t.period) for w, v in zip(ws, t.versions)]
            for t, ws in zip(tasks, steps)
        ]
        best, picks = multichoice_table(groups, cap)
        selection = multichoice_backtrack(groups, picks, int(np.argmin(best)))
        group_of = (0,) * len(tasks)
        util = effective_utilization(tasks, selection, group_of, rho)
    return MTSolution(selection=selection, group_of=group_of, utilization=util)
