"""Response-time analysis (RTA) for fixed-priority scheduling.

An alternative exact schedulability test for RMS (Joseph & Pandya / Audsley
et al.): the worst-case response time of task ``T_i`` under preemptive
fixed priorities is the least fixed point of::

    R = C_i + sum_{j in hp(i)} ceil(R / P_j) C_j

iterated from ``R = C_i``; the task is schedulable iff ``R <= D_i``.
Equivalent to the schedulability-point test of Theorem 1 (used in
:mod:`repro.rtsched.rms`) for deadline = period; both are exposed so they
can cross-validate each other, and RTA additionally supports constrained
deadlines ``D_i <= P_i``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.errors import ScheduleError

__all__ = ["response_time", "rta_schedulable"]

EPS = 1e-9


def response_time(
    periods: Sequence[float],
    costs: Sequence[float],
    i: int,
    max_iterations: int = 10_000,
) -> float | None:
    """Worst-case response time of task *i* (0-based, arrays period-sorted).

    Args:
        periods: task periods sorted increasingly (higher priority first).
        costs: execution times aligned with *periods*.
        i: index of the analyzed task.
        max_iterations: divergence guard.

    Returns:
        The response time, or None if the iteration exceeds the period
        (the task is then unschedulable with deadline = period; callers
        with shorter deadlines should compare against their own bound).
    """
    if not 0 <= i < len(periods):
        raise ScheduleError(f"task index {i} out of range")
    c_i = costs[i]
    r = c_i
    for _ in range(max_iterations):
        interference = sum(
            math.ceil(r / periods[j] - EPS) * costs[j] for j in range(i)
        )
        nxt = c_i + interference
        if nxt <= r + EPS:
            return nxt
        r = nxt
        if r > periods[i] * 2 + EPS:
            # Far past any sensible deadline; treat as divergent.
            return None
    return None


def rta_schedulable(
    periods: Sequence[float],
    costs: Sequence[float],
    deadlines: Sequence[float] | None = None,
) -> bool:
    """Exact fixed-priority schedulability via response-time analysis.

    Priorities are rate-monotonic (shorter period = higher priority) when
    *deadlines* is None, deadline-monotonic otherwise.

    Args:
        periods: task periods (any order).
        costs: execution times aligned with *periods*.
        deadlines: optional constrained deadlines (``D_i <= P_i``);
            defaults to the periods.
    """
    n = len(periods)
    if len(costs) != n:
        raise ScheduleError("periods and costs must be aligned")
    if deadlines is None:
        deadlines = list(periods)
    elif len(deadlines) != n:
        raise ScheduleError("deadlines must align with periods")
    for d, p in zip(deadlines, periods):
        if d > p + EPS:
            raise ScheduleError("RTA here supports constrained deadlines only")
    # Deadline-monotonic priority order (equals RM when D = P).
    order = sorted(range(n), key=lambda k: (deadlines[k], periods[k]))
    p = [periods[k] for k in order]
    c = [costs[k] for k in order]
    d = [deadlines[k] for k in order]
    for i in range(n):
        r = response_time(p, c, i)
        if r is None or r > d[i] + EPS:
            return False
    return True
