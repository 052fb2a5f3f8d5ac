"""Optimal custom-instruction selection under EDF (thesis Algorithm 1).

Pseudo-polynomial dynamic program over a quantized area axis.  Let
``U_i(A)`` be the minimum total utilization of tasks ``T_1 .. T_i`` under an
area budget ``A``::

    U_i(A) = min_{j : area_{i,j} <= A} ( cycle_{i,j} / P_i + U_{i-1}(A - area_{i,j}) )

The step ``delta`` is the greatest common divisor of every configuration
area and of the budget (Algorithm 1); when that would make the table larger
than ``max_steps`` the step is coarsened, with configuration areas rounded
*up* so the budget is never exceeded.  Complexity
``O(N x AREA/delta x max_i n_i)``; each configuration's update runs as one
numpy slice operation over the area axis.  Because
EDF schedulability is exactly ``U <= 1``, minimizing utilization by
definition works toward meeting all deadlines.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from repro import cache, obs
from repro.errors import ScheduleError
from repro.rtsched.task import TaskSet

__all__ = ["EdfSelection", "select_edf"]


@dataclass(frozen=True)
class EdfSelection:
    """Result of the EDF selection DP.

    Attributes:
        utilization: minimum achievable total utilization under the budget.
        assignment: chosen configuration index per task.
        area: total area consumed by the assignment.
    """

    utilization: float
    assignment: tuple[int, ...]
    area: float

    @property
    def schedulable(self) -> bool:
        return self.utilization <= 1.0 + 1e-9


def _quantum(areas: list[float], budget: float, scale: int, max_steps: int) -> int:
    ints = [round(v * scale) for v in areas if v > 0]
    ints.append(max(1, round(budget * scale)))
    g = 0
    for v in ints:
        g = gcd(g, v)
    g = max(1, g)
    cap_scaled = int(round(budget * scale))
    if cap_scaled // g > max_steps:
        g = -(-cap_scaled // max_steps)  # ceil division
    return g


def select_edf(
    task_set: TaskSet,
    area_budget: float,
    scale: int = 100,
    max_steps: int = 4000,
    use_cache: bool = True,
) -> EdfSelection:
    """Select per-task configurations minimizing utilization under EDF.

    Args:
        task_set: tasks with configuration curves.
        area_budget: total CFU area constraint ``AREA``.
        scale: fixed-point scale used to quantize fractional areas.
        max_steps: upper bound on the DP table width (coarser quantization
            is used beyond it; areas round up, so the budget holds).
        use_cache: memoize the result behind a content key (task-set digest
            + budget + quantization parameters) in :mod:`repro.cache`.

    Returns:
        The optimal (up to area quantization) :class:`EdfSelection`.

    Raises:
        ScheduleError: if the budget is negative.
    """
    if area_budget < 0:
        raise ScheduleError("area budget must be non-negative")
    key = None
    if use_cache:
        key = cache.artifact_key(
            cache.taskset_digest(task_set),
            kind="select_edf",
            budget=area_budget,
            scale=scale,
            max_steps=max_steps,
        )
        cached = cache.fetch_selection(key)
        if cached is not None:
            return EdfSelection(
                utilization=cached["utilization"],
                assignment=tuple(cached["assignment"]),
                area=cached["area"],
            )
    with obs.span("select.edf", tasks=len(task_set)):
        return _select_edf_dp(task_set, area_budget, scale, max_steps, key)


def _select_edf_dp(
    task_set: TaskSet,
    area_budget: float,
    scale: int,
    max_steps: int,
    key: str | None,
) -> EdfSelection:
    """The DP proper (split out so the span covers exactly the solve)."""
    tasks = task_set.tasks
    all_areas = [c.area for t in tasks for c in t.configurations]
    q = _quantum(all_areas, max(area_budget, 1e-9), scale, max_steps)
    cap = int(round(area_budget * scale)) // q
    obs.inc("selection.edf.dp_cells", (cap + 1) * len(tasks))

    def steps(a: float) -> int:
        # Round *up* so quantization never understates consumed area.
        return -(-round(a * scale) // q)

    inf = float("inf")
    best = np.zeros(cap + 1)
    picks: list[np.ndarray] = []
    for task in tasks:
        feasible = [
            (j, steps(cfg.area), cfg.cycles / task.period)
            for j, cfg in enumerate(task.configurations)
            if steps(cfg.area) <= cap
        ]
        if not feasible:
            raise ScheduleError(
                f"task {task.name!r} has no configuration fitting the budget"
            )
        new = np.full(cap + 1, inf)
        pick = np.zeros(cap + 1, dtype=np.int32)
        for j, w, u in feasible:
            # Strict less-than keeps the earliest configuration on ties.
            cand = best[: cap + 1 - w] + u
            better = cand < new[w:]
            new[w:][better] = cand[better]
            pick[w:][better] = j
        best = new
        picks.append(pick)

    a = int(np.argmin(best))  # ties resolve to the smallest area index
    assignment = [0] * len(tasks)
    for i in range(len(tasks) - 1, -1, -1):
        j = int(picks[i][a])
        assignment[i] = j
        a -= steps(tasks[i].configurations[j].area)
    util = task_set.utilization_for(assignment)
    area = task_set.area_for(assignment)
    result = EdfSelection(utilization=util, assignment=tuple(assignment), area=area)
    if key is not None:
        cache.store_selection(
            key,
            {
                "utilization": result.utilization,
                "assignment": list(result.assignment),
                "area": result.area,
            },
        )
    return result
