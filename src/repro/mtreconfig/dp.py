"""Pseudo-polynomial DP for spatial/temporal partitioning (Chapter 7).

Solves the Chapter 7 model (see :mod:`repro.mtreconfig.model`): minimize
the effective utilization of a periodic task set sharing a reconfigurable
fabric, where hardware tasks pay a worst-case reconfiguration tax of
``rho`` per period whenever more than one configuration exists.

The search space splits cleanly by the number of configurations:

* ``k = 1`` (static) — all hardware versions must co-reside: the
  multi-choice knapsack DP of the static baseline (pseudo-polynomial in
  the quantized fabric area);
* ``k >= 2`` — the tax applies to every hardware task, and since tasks in
  different configurations do not constrain each other spatially, each
  task independently picks its best version among those fitting the
  fabric (``argmin_j (cycles_j + rho [j>0]) / P``), then tasks are packed
  into configurations first-fit-decreasing by area.

The DP returns whichever case yields the lower utilization; when both are
unschedulable (``U > 1``) the lower-utilization one is still returned so
callers can report infeasibility.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro import obs
from repro.mtreconfig.model import MTSolution, ReconfigTask, effective_utilization
from repro.mtreconfig.static import static_solution

__all__ = ["DpReport", "dp_solution"]


@dataclass(frozen=True)
class DpReport:
    """DP outcome plus timing for the thesis Table 7.2 comparison."""

    solution: MTSolution
    elapsed: float


def _pack_first_fit(
    tasks: Sequence[ReconfigTask], selection: Sequence[int], fabric_area: float
) -> list[int]:
    """First-fit-decreasing packing of hardware versions into configurations."""
    hw = [
        (tasks[i].versions[selection[i]].area, i)
        for i in range(len(tasks))
        if selection[i] != 0
    ]
    hw.sort(reverse=True)
    bins: list[float] = []
    group_of = [0] * len(tasks)
    for area, i in hw:
        placed = False
        for b, used in enumerate(bins):
            if used + area <= fabric_area + 1e-9:
                bins[b] = used + area
                group_of[i] = b
                placed = True
                break
        if not placed:
            bins.append(area)
            group_of[i] = len(bins) - 1
    return group_of


def dp_solution(
    tasks: Sequence[ReconfigTask],
    fabric_area: float,
    rho: float,
    scale: int = 100,
    max_steps: int = 20000,
) -> DpReport:
    """Near-optimal spatial+temporal partitioning via the two-case DP.

    Args:
        tasks: the periodic tasks with CIS versions.
        fabric_area: area of one fabric configuration.
        rho: reconfiguration cost (time units).
        scale / max_steps: quantization controls of the static knapsack.

    Returns:
        A :class:`DpReport` with the best solution found and the runtime.
    """
    start = time.perf_counter()
    with obs.span("mtreconfig.dp", tasks=len(tasks)):
        # Case 1: single configuration, no reconfiguration cost.
        static = static_solution(
            tasks, fabric_area, rho=rho, scale=scale, max_steps=max_steps
        )

        # Case 2: multiple configurations, per-period tax on hardware tasks.
        selection = [0] * len(tasks)
        for i, task in enumerate(tasks):
            best_j, best_cost = 0, task.versions[0].cycles
            for j, v in enumerate(task.versions):
                if j == 0 or v.area > fabric_area:
                    continue
                cost = v.cycles + rho
                if cost < best_cost:
                    best_j, best_cost = j, cost
            selection[i] = best_j
        group_of = _pack_first_fit(tasks, selection, fabric_area)
        multi = MTSolution(
            selection=tuple(selection),
            group_of=tuple(group_of),
            # A packing into one configuration pays no tax:
            # effective_utilization handles that case.
            utilization=effective_utilization(tasks, selection, group_of, rho),
        )

        best = min((static, multi), key=lambda s: s.utilization)
        return DpReport(solution=best, elapsed=time.perf_counter() - start)
