"""Processor-demand analysis for EDF with constrained deadlines.

For deadline = period the EDF test is the utilization bound; for
*constrained* deadlines ``D_i <= P_i`` (Baruah, Rosier & Howell) the exact
condition is that the demand bound function never exceeds the elapsed
time::

    dbf(t) = sum_i max(0, floor((t - D_i) / P_i) + 1) C_i  <=  t

checked at every absolute deadline up to a bounded horizon (the smaller of
the hyperperiod + max deadline and the busy-period style bound
``U / (1 - U) * max_i (P_i - D_i)``).

This extends the Chapter 3 selection machinery to constrained-deadline
workloads: :func:`edf_constrained_schedulable` plugs into the same
configuration-assignment interface as the plain utilization test.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.errors import ScheduleError

__all__ = ["demand_bound", "deadline_points", "edf_constrained_schedulable"]

EPS = 1e-9


def demand_bound(
    periods: Sequence[float],
    costs: Sequence[float],
    deadlines: Sequence[float],
    t: float,
) -> float:
    """The EDF demand bound function ``dbf(t)``."""
    total = 0.0
    for p, c, d in zip(periods, costs, deadlines):
        if t + EPS >= d:
            total += (math.floor((t - d) / p + EPS) + 1) * c
    return total


def deadline_points(
    periods: Sequence[float],
    deadlines: Sequence[float],
    horizon: float,
) -> list[float]:
    """All absolute deadlines ``d_i + k p_i`` up to *horizon*, sorted."""
    points: set[float] = set()
    for p, d in zip(periods, deadlines):
        t = d
        while t <= horizon + EPS:
            points.add(t)
            t += p
    return sorted(points)


def edf_constrained_schedulable(
    periods: Sequence[float],
    costs: Sequence[float],
    deadlines: Sequence[float] | None = None,
    max_points: int = 200_000,
) -> bool:
    """Exact EDF schedulability with constrained deadlines.

    Args:
        periods: task periods.
        costs: execution times.
        deadlines: relative deadlines (defaults to the periods, where the
            test reduces to ``U <= 1``).
        max_points: guard on the number of checked deadline points,
            applied to the per-task deadline counts before any point is
            built.

    Returns:
        True iff every job meets its deadline under preemptive EDF.

    Raises:
        ScheduleError: malformed input or an unbounded test horizon that
            would exceed *max_points* (callers should fall back to the
            utilization bound or tighten deadlines).
    """
    n = len(periods)
    if len(costs) != n:
        raise ScheduleError("periods and costs must be aligned")
    if deadlines is None:
        deadlines = list(periods)
    if len(deadlines) != n:
        raise ScheduleError("deadlines must align with periods")
    for d, p in zip(deadlines, periods):
        if d > p + EPS:
            raise ScheduleError("constrained deadlines require D <= P")
        if d <= 0:
            raise ScheduleError("deadlines must be positive")

    utilization = sum(c / p for c, p in zip(costs, periods))
    if utilization > 1.0 + EPS:
        return False
    if all(abs(d - p) < EPS for d, p in zip(deadlines, periods)):
        return True  # implicit deadlines: the utilization bound is exact

    # Busy-period style horizon (finite because U <= 1 was checked; for
    # U == 1 fall back to hyperperiod-bounded horizon when periods are
    # integral, else a generous multiple of the largest period).
    slack = max(p - d for p, d in zip(periods, deadlines))
    if utilization < 1.0 - 1e-12:
        horizon = utilization / (1.0 - utilization) * slack
    else:
        horizon = 0.0
    if horizon <= 0:
        horizon = max(periods) + max(deadlines)
    horizon = min(horizon, _lcm_or_large(periods) + max(deadlines))

    # Guard on the per-task deadline counts (an upper bound on the distinct
    # points) before deadline_points materializes any of them.
    total = sum(
        max(0, math.floor((horizon + EPS - d) / p) + 1)
        for p, d in zip(periods, deadlines)
    )
    if total > max_points:
        raise ScheduleError(
            f"demand test horizon needs {total} points (> {max_points})"
        )
    return all(
        demand_bound(periods, costs, deadlines, t) <= t + EPS
        for t in deadline_points(periods, deadlines, horizon)
    )


def _lcm_or_large(periods: Sequence[float]) -> float:
    result = 1
    for p in periods:
        r = round(p)
        if abs(p - r) > EPS:
            return 50.0 * max(periods)
        result = math.lcm(result, max(1, r))
    return float(result)
