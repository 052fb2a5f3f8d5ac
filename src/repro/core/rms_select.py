"""Optimal custom-instruction selection under RMS (thesis Algorithm 2).

Branch-and-bound over per-task configuration choices:

* tasks are explored in decreasing priority (increasing period) order, so a
  partial solution only ever needs the schedulability check ``L_i <= 1`` of
  the newly configured task (higher-priority tasks cannot be disturbed by a
  lower-priority one);
* at each task the configurations are tried in increasing execution time,
  which reaches a good incumbent quickly;
* a subtree is pruned when (a) its area is exhausted, (b) the new task
  misses its deadline, or (c) the utilization lower bound — current partial
  utilization plus every remaining task at the best configuration whose
  own area fits the remaining budget — cannot beat the incumbent.

``L_i`` is monotone in ``C_i``, so the configurations passing (b) form a
prefix of the increasing-execution-time order; each node computes that
prefix once.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro import cache, obs
from repro.engines import check_engine
from repro.errors import ScheduleError
from repro.rtsched.rms import rms_points, rms_task_load
from repro.rtsched.task import TaskSet

__all__ = ["RmsSelection", "select_rms"]

EPS = 1e-9


@dataclass(frozen=True)
class RmsSelection:
    """Result of the RMS branch-and-bound search.

    Attributes:
        utilization: minimum utilization over schedulable assignments, or
            ``inf`` when no assignment is schedulable under the budget.
        assignment: chosen configuration per task (priority order of the
            *input* task set), or None when unschedulable.
        area: total area of the assignment (0 when unschedulable).
        nodes_visited: size of the explored search tree (for reporting).
    """

    utilization: float
    assignment: tuple[int, ...] | None
    area: float
    nodes_visited: int = 0

    @property
    def schedulable(self) -> bool:
        return self.assignment is not None


def select_rms(
    task_set: TaskSet,
    area_budget: float,
    engine: str = "fast",
    use_cache: bool = True,
) -> RmsSelection:
    """Select per-task configurations minimizing utilization under RMS.

    Args:
        task_set: tasks with configuration curves.
        area_budget: total CFU area constraint.
        engine: ``"fast"`` (default) precomputes the schedulability-point
            sets ``S_{i-1}(P_i)`` — they depend only on the periods — and
            evaluates each node's exact test for all of the task's
            configurations at once, as one ``(points x configs)`` load
            matrix; ``"reference"`` calls the recursive scalar
            :func:`rms_task_load` per configuration.  Both share the
            search skeleton and its area-aware bound, so they explore the
            identical tree (same ``nodes_visited``, smaller than with the
            area-blind bound) and return the identical assignment.
        use_cache: memoize the result behind a content key (task-set digest
            + budget) in :mod:`repro.cache`.

    Returns:
        The optimal :class:`RmsSelection` (exact; schedulability is checked
        with the exact RMS test of Theorem 1).
    """
    if area_budget < 0:
        raise ScheduleError("area budget must be non-negative")
    check_engine(engine)
    key = None
    if use_cache:
        key = cache.artifact_key(
            cache.taskset_digest(task_set),
            kind="select_rms",
            budget=area_budget,
        )
        cached = cache.fetch_selection(key)
        if cached is not None:
            return RmsSelection(
                utilization=(
                    float("inf")
                    if cached["utilization"] is None
                    else cached["utilization"]
                ),
                assignment=(
                    None
                    if cached["assignment"] is None
                    else tuple(cached["assignment"])
                ),
                area=cached["area"],
                nodes_visited=cached["nodes_visited"],
            )
    # Priority order: increasing period.
    order = sorted(range(len(task_set)), key=lambda i: task_set[i].period)
    tasks = [task_set[i] for i in order]
    n = len(tasks)
    periods = [t.period for t in tasks]

    # Per task: configurations sorted by increasing execution time.
    sorted_cfgs = [
        sorted(
            ((j, c.cycles, c.area) for j, c in enumerate(t.configurations)),
            key=lambda x: x[1],
        )
        for t in tasks
    ]
    # For the lower bound: per task, the staircase of the best utilization
    # reachable with at most a given area (areas ascending, utilizations
    # strictly falling).
    stairs: list[tuple[list[float], list[float]]] = []
    for i, cfgs in enumerate(sorted_cfgs):
        areas: list[float] = []
        utils: list[float] = []
        for _, cycles, area in sorted(cfgs, key=lambda x: (x[2], x[1])):
            u = cycles / periods[i]
            if not utils or u < utils[-1]:
                areas.append(area)
                utils.append(u)
        stairs.append((areas, utils))

    incumbent_util = float("inf")
    incumbent: list[int] | None = None
    # Chosen execution times along the current path (the scalar test reads
    # the list, the vectorized one the array).
    costs = [0.0] * n
    costs_arr = np.zeros(n)
    path = [0] * n
    visited = 0
    area_pruned = 0

    # L_i = min over points t in S_{i-1}(P_i) of
    # sum_{j<=i} ceil(t/P_j - EPS) C_j / t is monotone in C_i, so the
    # configurations (sorted by C_i) that pass the exact test form a prefix.
    # passing(i, area_left) yields them, given the higher-priority choices.
    if engine == "fast":
        # The point sets depend only on the periods, so hoist them out of
        # the search.  Each node then sums the higher-priority demand per
        # point once (a cumulative sum, i.e. the scalar test's sequential
        # order) and adds task i's own demand for every configuration at
        # once: one (points x configs) load matrix per node, same floats.
        tables: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for i in range(n):
            pts = np.asarray(
                [t for t in rms_points(periods, i, periods[i]) if t > EPS]
            )
            ceils = np.ceil(
                pts[:, None] / np.asarray(periods[: i + 1])[None, :] - EPS
            )
            own = ceils[:, i : i + 1] * np.asarray(
                [c for _, c, _ in sorted_cfgs[i]]
            )
            tables.append((pts[:, None], ceils[:, :i], own))

        def passing(i: int, area_left: float) -> list[tuple[int, float, float]]:
            pts, hp_ceils, own = tables[i]
            if i:
                hp = (hp_ceils * costs_arr[:i]).cumsum(axis=1)[:, -1:]
                own = hp + own
            loads = (own / pts).min(axis=0)
            return sorted_cfgs[i][: int(np.searchsorted(loads, 1.0 + EPS, "right"))]

    else:

        def passing(i: int, area_left: float) -> Iterator[tuple[int, float, float]]:
            # The scalar test, one configuration at a time, only for the
            # configurations whose area fits.
            for cfg in sorted_cfgs[i]:
                if cfg[2] > area_left + EPS:
                    continue
                costs[i] = cfg[1]
                if rms_task_load(periods, costs, i) > 1.0 + EPS:
                    return
                yield cfg

    def area_bound(util: float, i: int, area_left: float) -> float:
        """*util* plus every task from *i* on at its best configuration
        whose own area fits *area_left* (added in the search's order, so
        no completion of the path can come out below it)."""
        fit = area_left + EPS
        for areas, utils in stairs[i:]:
            k = bisect_right(areas, fit)
            if not k:
                return float("inf")
            util += utils[k - 1]
        return util

    def search(i: int, util: float, area_left: float) -> None:
        nonlocal incumbent_util, incumbent, visited, area_pruned
        visited += 1
        for j, cycles, area in passing(i, area_left):
            if area > area_left + EPS:
                continue
            new_util = util + cycles / periods[i]
            if i == n - 1:
                if new_util < incumbent_util - EPS:
                    incumbent_util = new_util
                    path[i] = j
                    incumbent = list(path)
                continue
            rest = area_left - area
            if area_bound(new_util, i + 1, rest) >= incumbent_util - EPS:
                area_pruned += 1
                continue
            path[i] = j
            costs_arr[i] = cycles
            search(i + 1, new_util, rest)

    with obs.span("select.rms", tasks=n, engine=engine):
        search(0, 0.0, area_budget)
    obs.inc("selection.rms.nodes_visited", visited)
    obs.inc("selection.rms.area_pruned", area_pruned)

    if incumbent is None:
        result = RmsSelection(
            utilization=float("inf"), assignment=None, area=0.0, nodes_visited=visited
        )
    else:
        # Map the priority-ordered assignment back to the input task order.
        assignment = [0] * n
        for pos, orig in enumerate(order):
            assignment[orig] = incumbent[pos]
        util = task_set.utilization_for(assignment)
        area = task_set.area_for(assignment)
        result = RmsSelection(
            utilization=util,
            assignment=tuple(assignment),
            area=area,
            nodes_visited=visited,
        )
    if key is not None:
        cache.store_selection(
            key,
            {
                "utilization": (
                    None if incumbent is None else result.utilization
                ),
                "assignment": (
                    None if result.assignment is None else list(result.assignment)
                ),
                "area": result.area,
                "nodes_visited": result.nodes_visited,
            },
        )
    return result
