"""ILP-based custom-instruction selection (Lee et al. style, thesis 2.3.2).

Formulation, over binary variables ``x_i`` (candidate *i* selected):

* maximize  ``sum_i gain_i * x_i``
* subject to ``sum_i area_i * x_i <= AREA``
* and ``x_i + x_j <= 1`` for every overlapping pair *(i, j)*.

With ``share_isomorphic=True``, candidates of the same structural class share
one datapath: class variables ``y_k`` carry the area and ``x_i <= y_k`` links
members to their class, so selecting several isomorphic instances pays the
area once.

Solved with ``scipy.optimize.milp`` (HiGHS).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.enumeration.patterns import Candidate, CandidateLibrary
from repro.errors import SolverError

__all__ = ["select_ilp"]


def select_ilp(
    candidates: Sequence[Candidate],
    area_budget: float,
    share_isomorphic: bool = False,
    time_limit: float | None = None,
) -> list[int]:
    """Optimal conflict-free selection via integer linear programming.

    Args:
        candidates: the candidate pool.
        area_budget: total CFU area available.
        share_isomorphic: count the area of structurally identical
            candidates only once.
        time_limit: optional solver time limit in seconds.

    Returns:
        Indices of the selected candidates.

    Raises:
        SolverError: if the MILP backend reports failure.
    """
    # scipy and numpy are imported here, not at module level: they cost
    # ~0.6 s and nothing else on the package's import path needs them.
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(candidates)
    if n == 0:
        return []
    lib = CandidateLibrary(list(candidates))
    conflict_pairs = lib.conflicts()

    if share_isomorphic:
        classes = list(lib.isomorphism_classes().items())
        n_classes = len(classes)
    else:
        classes = []
        n_classes = 0
    n_vars = n + n_classes

    # Objective: milp minimizes, so negate gains.
    c = np.zeros(n_vars)
    for i, cand in enumerate(candidates):
        c[i] = -cand.total_gain

    constraints = []
    # Area constraint.
    area_row = np.zeros(n_vars)
    if share_isomorphic:
        for k, (_, members) in enumerate(classes):
            # Class area = max member area (isomorphic => equal, but be safe).
            area_row[n + k] = max(candidates[m].area for m in members)
    else:
        for i, cand in enumerate(candidates):
            area_row[i] = cand.area
    constraints.append(LinearConstraint(area_row, -np.inf, area_budget))

    # Conflict constraints x_i + x_j <= 1.
    for i, j in conflict_pairs:
        row = np.zeros(n_vars)
        row[i] = 1.0
        row[j] = 1.0
        constraints.append(LinearConstraint(row, -np.inf, 1.0))

    # Linking constraints x_i - y_k <= 0.
    if share_isomorphic:
        for k, (_, members) in enumerate(classes):
            for m in members:
                row = np.zeros(n_vars)
                row[m] = 1.0
                row[n + k] = -1.0
                constraints.append(LinearConstraint(row, -np.inf, 0.0))

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
        raise SolverError(f"MILP selection failed: {result.message}")
    return [i for i in range(n) if result.x[i] > 0.5]
