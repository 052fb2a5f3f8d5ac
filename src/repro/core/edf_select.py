"""Optimal custom-instruction selection under EDF (thesis Algorithm 1).

Let ``U_i(A)`` be the minimum total utilization of tasks ``T_1 .. T_i``
under an area budget ``A``::

    U_i(A) = min_{j : area_{i,j} <= A} ( cycle_{i,j} / P_i + U_{i-1}(A - area_{i,j}) )

This is the multiple-choice knapsack of :mod:`repro.selection.knapsack`
with each configuration's utilization as its value, in
``O(N x AREA/delta x max_i n_i)`` for an area step ``delta``.  Because
EDF schedulability is exactly ``U <= 1``, minimizing utilization by
definition works toward meeting all deadlines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import cache, obs
from repro.errors import ScheduleError
from repro.rtsched.task import TaskSet
from repro.selection.knapsack import (
    multichoice_backtrack,
    multichoice_table,
    quantize,
)

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
        tasks = task_set.tasks
        cap, steps = quantize(
            [[c.area for c in t.configurations] for t in tasks],
            area_budget,
            scale,
            max_steps,
        )
        obs.inc("selection.edf.dp_cells", (cap + 1) * len(tasks))
        for task, ws in zip(tasks, steps):
            if min(ws) > cap:
                raise ScheduleError(
                    f"task {task.name!r} has no configuration fitting the budget"
                )
        groups = [
            [(w, c.cycles / t.period) for w, c in zip(ws, t.configurations)]
            for t, ws in zip(tasks, steps)
        ]
        best, picks = multichoice_table(groups, cap)
        # argmin: ties resolve to the smallest area column.
        assignment = multichoice_backtrack(groups, picks, int(best.argmin()))
        result = EdfSelection(
            utilization=task_set.utilization_for(assignment),
            assignment=assignment,
            area=task_set.area_for(assignment),
        )
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
