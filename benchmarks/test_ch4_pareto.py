"""Chapter 4 benches: Tables 4.1/4.2 and Figure 4.4.

* Table 4.1 — composition of the five task sets (6-10 tasks each);
* Table 4.2 — analysis-time speedup of the ε-approximation scheme over the
  exact Pareto computation for ε in {0.21, 0.44, 0.69, 3.0};
* Figure 4.4 — exact vs. ε-approximate Pareto curves: (a) workload-area for
  g721decode (intra-task), (b) utilization-area for task set 1 (inter-task).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.common import cached_task, emit, once
from repro.enumeration import build_candidate_library
from repro.pareto import (
    CIOption,
    TaskCurve,
    approx_utilization_curve,
    approx_workload_curve,
    exact_utilization_curve,
    exact_workload_curve,
    is_eps_cover,
)
from repro.workloads import CH4_TASK_SETS, get_program

EPSILONS = (0.21, 0.44, 0.69, 3.0)

#: Cost-axis unit: the thesis reports hardware area in logic gates
#: (1K - 23K gates per task); one 32-bit adder is about 50 gates.
GATES_PER_ADDER = 50


def intra_options(name: str, cap: int = 60) -> tuple[float, list[CIOption]]:
    """Per-task CI options (workload delta, integer area) for the intra stage."""
    program = get_program(name)
    library = build_candidate_library(program)
    # Keep the strongest non-overlapping candidates as independent options.
    from repro.selection import select_greedy

    chosen = select_greedy(library.candidates, float("inf"))[:cap]
    options = [
        CIOption(
            delta=library.candidates[i].total_gain,
            area=max(1, round(library.candidates[i].area * GATES_PER_ADDER)),
        )
        for i in chosen
    ]
    base = program.avg_cycles()
    return base, options


def _task_curves(names: tuple[str, ...]) -> list[TaskCurve]:
    curves = []
    seen: dict[str, int] = {}
    for name in names:
        salt = seen.get(name, 0)
        seen[name] = salt + 1
        task = cached_task(name, salt)
        curves.append(
            TaskCurve(
                period=task.period,
                workloads=tuple(c.cycles for c in task.configurations),
                areas=tuple(
                    max(0, round(c.area * GATES_PER_ADDER))
                    for c in task.configurations
                ),
            )
        )
    return curves


def test_table_4_1(benchmark):
    def run():
        return [
            f"{k} | {len(names)} tasks | {', '.join(names)}"
            for k, names in sorted(CH4_TASK_SETS.items())
        ]

    rows = once(benchmark, run)
    emit("table_4_1_task_sets", ["Task set | Size | Benchmarks", *rows])


def test_table_4_2(benchmark):
    """Approximation-scheme speedup over the exact Pareto computation."""

    def run():
        lines = ["eps    " + "  ".join(f"ts{k:>6d}" for k in sorted(CH4_TASK_SETS))]
        exact_times = {}
        for k, names in sorted(CH4_TASK_SETS.items()):
            curves = _task_curves(names)
            t0 = time.perf_counter()
            exact_utilization_curve(curves)
            exact_times[k] = time.perf_counter() - t0
        for eps in EPSILONS:
            cells = []
            for k, names in sorted(CH4_TASK_SETS.items()):
                curves = _task_curves(names)
                t0 = time.perf_counter()
                approx_utilization_curve(curves, eps)
                dt = time.perf_counter() - t0
                speedup = exact_times[k] / dt if dt > 0 else float("inf")
                cells.append(f"{speedup:8.1f}")
            lines.append(f"{eps:5.2f}  " + "  ".join(cells))
        return lines

    lines = once(benchmark, run)
    emit("table_4_2_approx_speedup", lines)


def test_figure_4_4a(benchmark):
    """Exact vs ε-approximate workload-area curves for g721decode."""

    def run():
        base, options = intra_options("g721decode")
        exact = exact_workload_curve(base, options)
        lines = [f"exact points: {len(exact)}"]
        for eps in (0.69, 3.0):
            approx = approx_workload_curve(base, options, eps)
            cover = is_eps_cover(approx, exact, eps)
            lines.append(
                f"eps={eps:4.2f}: points={len(approx)} "
                f"({100 * (1 - len(approx) / max(1, len(exact))):.0f}% fewer) "
                f"eps-cover={cover}"
            )
            lines.extend(
                f"  {p.cost:10.0f} {p.value:14.0f}" for p in approx
            )
        return lines, exact

    lines, exact = once(benchmark, run)
    emit("figure_4_4a_intra_pareto", lines)
    assert len(exact) >= 2
    assert all("eps-cover=True" in l for l in lines if "eps-cover" in l)


def test_figure_4_4b(benchmark):
    """Exact vs ε-approximate utilization-area curves for task set 1."""

    def run():
        curves = _task_curves(CH4_TASK_SETS[1])
        exact = exact_utilization_curve(curves)
        lines = [f"exact points: {len(exact)}"]
        for eps in (0.69, 3.0):
            approx = approx_utilization_curve(curves, eps)
            cover = is_eps_cover(approx, exact, eps)
            lines.append(
                f"eps={eps:4.2f}: points={len(approx)} eps-cover={cover}"
            )
            lines.extend(
                f"  {p.cost:10.0f} {p.value:10.4f}" for p in approx
            )
        return lines

    lines = once(benchmark, run)
    emit("figure_4_4b_inter_pareto", lines)
    assert all("eps-cover=True" in l for l in lines if "eps-cover" in l)
