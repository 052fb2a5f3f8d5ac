"""Intra-task workload-area Pareto curves (thesis Section 4.2.1).

Per task ``T_i`` the custom-instruction library gives choices
``S_i = {(delta_{i,j}, a_{i,j})}``: selecting instruction *j* lowers the
workload ``E_i`` by ``delta_{i,j}`` at hardware cost ``a_{i,j}`` (integer
adders).  The *exact* workload-area Pareto curve comes from the
pseudo-polynomial DP of recursion (4.1)::

    w_{k,j} = min( w_{k-1,j},  w_{k-1, j - a_k} - delta_k )

over an exact-cost axis up to ``n_i x C`` (``C`` = max single cost).  The
*approximate* curve follows Algorithm 3: partition the cost range
geometrically with ratio ``(1+eps')``, ``eps' = sqrt(1+eps) - 1``, solve the
GAP problem at each coordinate via cost scaling (``r = ceil(n_i / eps')``,
``a'_j = ceil(a_j r / b)``), and keep the undominated answers.  Properties
(a)/(b) of Section 4.2.1.1 guarantee an ε-approximate Pareto curve.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.engines import check_engine
from repro.errors import ReproError
from repro.pareto.front import ParetoPoint, pareto_filter

__all__ = ["CIOption", "exact_workload_curve", "approx_workload_curve", "gap_solve"]


@dataclass(frozen=True)
class CIOption:
    """One custom-instruction choice: workload reduction at a hardware cost."""

    delta: float
    area: int

    def __post_init__(self) -> None:
        if self.area < 0:
            raise ReproError("area must be non-negative")
        if self.delta < 0:
            raise ReproError("delta must be non-negative")


def _best_reduction_by_cost(
    deltas: Sequence[float], areas: Sequence[int], cap: int
) -> np.ndarray:
    """DP: max total workload reduction achievable with cost <= j, j=0..cap."""
    best = np.zeros(cap + 1)
    for delta, area in zip(deltas, areas):
        if area > cap:
            continue
        if area == 0:
            best += delta
            continue
        shifted = best[: cap + 1 - area] + delta
        np.maximum(best[area:], shifted, out=best[area:])
    return best


def exact_workload_curve(
    base_workload: float, options: Sequence[CIOption], engine: str = "fast"
) -> list[ParetoPoint]:
    """The exact workload-area Pareto curve of one task.

    Args:
        base_workload: software workload ``E_i``.
        options: the task's custom-instruction choices.
        engine: ``"fast"`` (default) extracts the curve's staircase with
            numpy before materializing points; ``"reference"`` builds one
            point per cost index (the original path).  Identical output.

    Returns:
        Undominated ``(workload, area)`` points, area increasing, starting
        from the pure-software point ``(E_i, 0)``.
    """
    check_engine(engine)
    cap = sum(o.area for o in options)
    if cap == 0 or not options:
        # Zero-cost options are always worth taking.
        free = sum(o.delta for o in options if o.area == 0)
        return [ParetoPoint(value=base_workload - free, cost=0.0)]
    best = _best_reduction_by_cost(
        [o.delta for o in options], [o.area for o in options], cap
    )
    if engine == "fast":
        # Strict staircase over the (monotone) reduction array: keep the
        # first cost index of every new maximum.  Strict pruning keeps a
        # superset of what the EPS-tolerant filter keeps, so the final
        # pareto_filter pass yields the reference output exactly.
        values = base_workload - best
        prev_max = np.concatenate(([-np.inf], np.maximum.accumulate(best)[:-1]))
        idx = np.flatnonzero(best > prev_max)  # index 0 always survives
        points = [ParetoPoint(value=float(values[j]), cost=float(j)) for j in idx]
        return pareto_filter(points)
    points = [
        ParetoPoint(value=base_workload - best[j], cost=float(j))
        for j in range(cap + 1)
    ]
    return pareto_filter(points)


def gap_solve(
    base_workload: float,
    options: Sequence[CIOption],
    cost_bound: float,
    workload_bound: float,
    eps: float,
) -> ParetoPoint | None:
    """Solve the GAP problem at one ``(cost, workload)`` corner.

    Either returns a solution with ``cost <= cost_bound`` and
    ``workload <= workload_bound``, or returns None — in which case no
    solution exists with both coordinates better by a factor ``(1+eps)``
    (thesis Section 4.2.1.1: properties (a) and (b) of the transformed
    costs ``a' = ceil(a r / cost_bound)``, ``r = ceil(n/eps)``).

    The reported cost of a returned solution is *cost_bound* (property (a)
    guarantees the true cost does not exceed it).
    """
    n = len(options)
    if n == 0:
        if base_workload <= workload_bound:
            return ParetoPoint(value=base_workload, cost=0.0)
        return None
    r = math.ceil(n / eps)
    scaled = [
        math.ceil(o.area * r / cost_bound) if cost_bound > 0 else (0 if o.area == 0 else r + 1)
        for o in options
    ]
    best = _best_reduction_by_cost([o.delta for o in options], scaled, r)
    achieved = base_workload - float(best[r])
    if achieved <= workload_bound:
        return ParetoPoint(value=achieved, cost=float(cost_bound))
    return None


def approx_workload_curve(
    base_workload: float, options: Sequence[CIOption], eps: float
) -> list[ParetoPoint]:
    """ε-approximate workload-area Pareto curve (Algorithm 3).

    Args:
        base_workload: software workload ``E_i``.
        options: the task's custom-instruction choices.
        eps: approximation parameter (> 0; need not be <= 1).

    Returns:
        A polynomial-size undominated point set ``P_eps`` such that every
        exact Pareto point is within ``(1+eps)`` in both coordinates.
    """
    if eps <= 0:
        raise ReproError("eps must be positive")
    if not options:
        return [ParetoPoint(value=base_workload, cost=0.0)]
    eps_prime = math.sqrt(1.0 + eps) - 1.0
    total_cost = sum(o.area for o in options)
    points: list[ParetoPoint] = [ParetoPoint(value=base_workload, cost=0.0)]
    if total_cost == 0:
        return pareto_filter(points)
    # Geometric partition of the cost axis from 1 to total_cost.
    b = 1.0
    coords: list[float] = []
    while b <= total_cost:
        coords.append(b)
        b *= 1.0 + eps_prime
    for coord in coords:
        sol = gap_solve(
            base_workload,
            options,
            cost_bound=coord,
            workload_bound=float("inf"),
            eps=eps_prime,
        )
        if sol is not None:
            points.append(sol)
    # The all-selected corner is exact and guarantees coverage of the
    # high-cost end of the curve despite cost-scaling round-up.
    points.append(
        ParetoPoint(
            value=base_workload - sum(o.delta for o in options),
            cost=float(total_cost),
        )
    )
    return pareto_filter(points)
