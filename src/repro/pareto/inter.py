"""Inter-task utilization-area Pareto curves (thesis Section 4.2.2).

Input: per task ``T_i`` its workload-area Pareto curve
``P_i = {(w_{i,k}, c_{i,k})}`` (from the intra-task stage) plus its period.
A *global design configuration* picks exactly one curve point per task; its
utilization is ``sum_i w_{i,k_i} / P_i`` and its cost ``sum_i c_{i,k_i}``.
The exact utilization-area Pareto curve comes from recursion (4.2), the
multiple-choice knapsack of :mod:`repro.selection.knapsack`; the
ε-approximate curve runs that DP over geometrically scaled costs, the same
cost-partition + cost-scaling GAP routine as the intra-task stage.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.engines import check_engine
from repro.errors import ReproError
from repro.pareto.front import ParetoPoint, pareto_filter
from repro.selection.knapsack import multichoice_backtrack, multichoice_table

if TYPE_CHECKING:
    import numpy as np

__all__ = ["TaskCurve", "exact_utilization_curve", "approx_utilization_curve"]


@dataclass(frozen=True)
class TaskCurve:
    """One task's workload-area Pareto curve.

    Attributes:
        period: the task period ``P_i``.
        workloads: curve point workloads ``w_{i,k}``.
        areas: curve point integer hardware costs ``c_{i,k}``.
    """

    period: float
    workloads: tuple[float, ...]
    areas: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ReproError("period must be positive")
        if len(self.workloads) != len(self.areas) or not self.workloads:
            raise ReproError("workloads/areas must be non-empty and aligned")
        if min(self.areas) < 0:
            raise ReproError("areas must be non-negative")

    @property
    def utilizations(self) -> tuple[float, ...]:
        return tuple(w / self.period for w in self.workloads)


def _staircase_keep(costs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Indices of the strict lower-staircase of ``(cost, value)`` points.

    Sorted by (cost, value); a point survives iff its value is *strictly*
    below every cheaper-or-equal point's value.  Strict (zero-tolerance)
    pruning never discards a point the EPS-tolerant ``pareto_filter`` would
    keep, so running the survivors through ``pareto_filter`` afterwards
    yields the same frontier the unpruned point set would.
    """
    import numpy as np

    order = np.lexsort((values, costs))
    v = values[order]
    prev_min = np.concatenate(([np.inf], np.minimum.accumulate(v)[:-1]))
    return order[v < prev_min]


def _merge_curve(tasks: Sequence[TaskCurve]) -> list[ParetoPoint]:
    """Frontier-merge engine for the exact utilization-area curve.

    Folds tasks left-to-right, keeping only the undominated partial
    frontier between merges (dominance pruning), so the point set stays at
    the size of the final curve instead of the full cost axis of the DP.
    Utilization accumulates in task order — the same float additions the
    DP performs — so the resulting curve is bit-identical.
    """
    import numpy as np

    first = tasks[0]
    front_c = np.asarray(first.areas, dtype=np.int64)
    front_u = np.asarray(first.utilizations, dtype=float)
    keep = _staircase_keep(front_c, front_u)
    front_c, front_u = front_c[keep], front_u[keep]
    # Backtracking trace: level 0 holds option indices; each later level
    # holds (parent frontier index, option index) per kept point.
    trace: list[tuple[np.ndarray, np.ndarray] | np.ndarray] = [keep]
    for curve in tasks[1:]:
        opt_c = np.asarray(curve.areas, dtype=np.int64)
        opt_u = np.asarray(curve.utilizations, dtype=float)
        k = len(opt_c)
        flat_c = (front_c[:, None] + opt_c[None, :]).ravel()
        flat_u = (front_u[:, None] + opt_u[None, :]).ravel()
        keep = _staircase_keep(flat_c, flat_u)
        trace.append((keep // k, keep % k))
        front_c, front_u = flat_c[keep], flat_u[keep]

    n = len(tasks)
    points = []
    for idx in range(len(front_c)):
        choice = [0] * n
        at = idx
        for level in range(n - 1, 0, -1):
            parents, opts = trace[level]
            choice[level] = int(opts[at])
            at = int(parents[at])
        choice[0] = int(trace[0][at])
        points.append(
            ParetoPoint(
                value=float(front_u[idx]),
                cost=float(front_c[idx]),
                choice=tuple(choice),
            )
        )
    return pareto_filter(points)


def exact_utilization_curve(
    tasks: Sequence[TaskCurve], engine: str = "fast"
) -> list[ParetoPoint]:
    """The exact utilization-area Pareto curve of a task set.

    Args:
        tasks: per-task workload-area curves.
        engine: ``"fast"`` (default) folds per-task frontiers with
            dominance pruning between merges; ``"reference"`` runs the
            recursion-(4.2) DP over the full cost axis (the differential
            oracle).  Both produce bit-identical ``(value, cost)`` curves.

    Returns:
        Undominated ``(utilization, area)`` points; each point's ``choice``
        holds the per-task curve-point indices realizing it.
    """
    if not tasks:
        raise ReproError("need at least one task curve")
    check_engine(engine)
    with obs.span("pareto.exact", tasks=len(tasks), engine=engine) as sp:
        if engine == "fast":
            curve = _merge_curve(tasks)
        else:
            groups = [list(zip(t.areas, t.utilizations)) for t in tasks]
            cap = sum(max(t.areas) for t in tasks)
            best, picks = multichoice_table(groups, cap)
            curve = pareto_filter(
                ParetoPoint(
                    value=float(best[j]),
                    cost=float(j),
                    choice=multichoice_backtrack(groups, picks, j),
                )
                for j in range(cap + 1)
                if math.isfinite(best[j])
            )
        sp.set(points=len(curve))
    return curve


def approx_utilization_curve(
    tasks: Sequence[TaskCurve], eps: float
) -> list[ParetoPoint]:
    """ε-approximate utilization-area Pareto curve (Algorithm 3, stage 2)."""
    if eps <= 0:
        raise ReproError("eps must be positive")
    if not tasks:
        raise ReproError("need at least one task curve")
    with obs.span("pareto.approx", tasks=len(tasks), eps=eps) as sp:
        eps_prime = math.sqrt(1.0 + eps) - 1.0
        n_options = sum(len(t.areas) for t in tasks)
        total_cost = sum(max(t.areas) for t in tasks)
        utils = [t.utilizations for t in tasks]

        def corner(rank) -> ParetoPoint:
            # Every task at its first option minimal under rank(task, option).
            choice = tuple(
                min(range(len(t.areas)), key=lambda k: rank(t, k)) for t in tasks
            )
            u = 0.0
            for t_utils, k in zip(utils, choice):
                u += t_utils[k]
            cost = sum(t.areas[k] for t, k in zip(tasks, choice))
            return ParetoPoint(value=u, cost=float(cost), choice=choice)

        # Cheapest corner: every task at its cheapest (software) option.
        points = [corner(lambda t, k: (t.areas[k], t.workloads[k]))]
        r = math.ceil(n_options / eps_prime)
        coord = 1.0
        while coord <= total_cost:
            groups = [
                [(math.ceil(a * r / coord), u) for a, u in zip(t.areas, t_utils)]
                for t, t_utils in zip(tasks, utils)
            ]
            best, picks = multichoice_table(groups, r)
            j = int(best.argmin())
            if math.isfinite(best[j]):
                choice = multichoice_backtrack(groups, picks, j)
                # Report the solution's true cost (property (a) bounds it by coord).
                cost = sum(t.areas[k] for t, k in zip(tasks, choice))
                points.append(
                    ParetoPoint(value=float(best[j]), cost=float(cost), choice=choice)
                )
            coord *= 1.0 + eps_prime
        # Exact full-cost corner: every task at its fastest option.
        points.append(corner(lambda t, k: (t.workloads[k], t.areas[k])))
        curve = pareto_filter(points)
        sp.set(points=len(curve))
    return curve
