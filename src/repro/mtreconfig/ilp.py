"""Exact ILP for the Chapter 7 partitioning model (thesis Section 7.3.1).

Implements the three stated constraint families over binaries
``x_{i,j}`` (task *i* runs version *j*) and ``z`` (more than one
configuration in use):

* **uniqueness** — ``sum_j x_{i,j} = 1`` for every task;
* **resource** — with a single configuration (``z = 0``) all selected
  hardware versions must co-reside: ``sum_{i,j>0} area_{i,j} x_{i,j} <= A``;
  with multiple configurations the constraint is relaxed (every version
  individually fits ``A`` by construction) — modeled as
  ``sum area x <= A + M z``;
* **scheduling / objective** — effective utilization
  ``sum_{i,j} (cycles_{i,j} x_{i,j} + rho w_{i,j}) / P_i`` is minimized,
  where ``w_{i,j} >= x_{i,j} + z - 1`` linearizes the reconfiguration tax
  paid by hardware versions when ``z = 1``; optionally ``U <= 1`` is
  enforced as a hard deadline constraint.

Solved with ``scipy.optimize.milp`` (HiGHS).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import SolverError
from repro.mtreconfig.dp import _pack_first_fit
from repro.mtreconfig.model import MTSolution, ReconfigTask, effective_utilization

__all__ = ["IlpReport", "ilp_solution"]


@dataclass(frozen=True)
class IlpReport:
    """ILP outcome plus timing for the thesis Table 7.2 comparison."""

    solution: MTSolution
    elapsed: float


def ilp_solution(
    tasks: Sequence[ReconfigTask],
    fabric_area: float,
    rho: float,
    enforce_deadline: bool = False,
    time_limit: float | None = None,
) -> IlpReport:
    """Optimal solution of the Chapter 7 model via MILP.

    Args:
        tasks: the periodic tasks with CIS versions.
        fabric_area: area of one fabric configuration.
        rho: reconfiguration cost.
        enforce_deadline: additionally require ``U <= 1``.
        time_limit: optional solver limit in seconds.

    Returns:
        An :class:`IlpReport`.

    Raises:
        SolverError: if the MILP backend fails (e.g. infeasible with
            ``enforce_deadline``).
    """
    # Load scipy before the clock starts: ``elapsed`` is the solve time that
    # Table 7.2 sets against the DP, not the ~0.6 s first import.
    import scipy.optimize  # noqa: F401

    start = time.perf_counter()
    with obs.span("mtreconfig.ilp", tasks=len(tasks)):
        return _ilp_solution(
            tasks, fabric_area, rho, enforce_deadline, time_limit, start
        )


def _ilp_solution(
    tasks: Sequence[ReconfigTask],
    fabric_area: float,
    rho: float,
    enforce_deadline: bool,
    time_limit: float | None,
    start: float,
) -> IlpReport:
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(tasks)
    # Variable layout: x_{i,j} for usable versions, then w_{i,j} mirrors of
    # hardware x variables, then z last.
    x_index: dict[tuple[int, int], int] = {}
    cursor = 0
    for i, task in enumerate(tasks):
        for j, v in enumerate(task.versions):
            if j > 0 and v.area > fabric_area:
                continue  # can never fit any configuration
            x_index[(i, j)] = cursor
            cursor += 1
    w_index: dict[tuple[int, int], int] = {}
    for (i, j) in x_index:
        if j > 0:
            w_index[(i, j)] = cursor
            cursor += 1
    z_col = cursor
    n_vars = cursor + 1

    c = np.zeros(n_vars)
    for (i, j), col in x_index.items():
        c[col] = tasks[i].versions[j].cycles / tasks[i].period
    for (i, j), col in w_index.items():
        c[col] = rho / tasks[i].period

    constraints = []
    # Uniqueness.
    for i in range(n):
        row = np.zeros(n_vars)
        for (ti, j), col in x_index.items():
            if ti == i:
                row[col] = 1.0
        constraints.append(LinearConstraint(row, 1.0, 1.0))
    # Resource (relaxed when z = 1).
    big_m = sum(
        max(v.area for v in t.versions) for t in tasks
    )
    row = np.zeros(n_vars)
    for (i, j), col in x_index.items():
        if j > 0:
            row[col] = tasks[i].versions[j].area
    row[z_col] = -big_m
    constraints.append(LinearConstraint(row, -np.inf, fabric_area))
    # Linking w >= x + z - 1  <=>  x + z - w <= 1.
    for (i, j), wcol in w_index.items():
        row = np.zeros(n_vars)
        row[x_index[(i, j)]] = 1.0
        row[z_col] = 1.0
        row[wcol] = -1.0
        constraints.append(LinearConstraint(row, -np.inf, 1.0))
    # Optional hard deadline U <= 1.
    if enforce_deadline:
        constraints.append(LinearConstraint(c.copy(), -np.inf, 1.0))

    integrality = np.ones(n_vars)
    bounds = Bounds(np.zeros(n_vars), np.ones(n_vars))
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    result = milp(
        c,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        options=options,
    )
    if not result.success:
        raise SolverError(f"Chapter 7 MILP failed: {result.message}")

    selection = [0] * n
    for (i, j), col in x_index.items():
        if result.x[col] > 0.5:
            selection[i] = j
    z = result.x[z_col] > 0.5
    if z:
        group_of = _pack_first_fit(tasks, selection, fabric_area)
    else:
        group_of = [0] * n
    util = effective_utilization(tasks, selection, group_of, rho)
    solution = MTSolution(
        selection=tuple(selection), group_of=tuple(group_of), utilization=util
    )
    return IlpReport(solution=solution, elapsed=time.perf_counter() - start)
