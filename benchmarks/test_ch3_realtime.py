"""Chapter 3 (DATE 2007) benches: Tables 3.1 and Figures 3.1, 3.3, 3.4.

Regenerates, on the synthetic substrate:

* Table 3.1 — composition of the six task sets;
* Figure 3.1 — cycles-vs-area configuration curve of the g721 decoding task;
* Figure 3.3 — utilization vs. area for every task set under EDF and RMS at
  original utilizations U in {0.80, 1.00, 1.05, 1.08, 1.10};
* Figure 3.4 — energy improvement vs. area for task set 3 (EDF and RMS,
  TM5400 static voltage scaling).
"""

from __future__ import annotations

import math

import pytest

from benchmarks.common import cached_task, cached_task_set, emit, once
from repro.core import select_edf, select_rms
from repro.rtsched import energy_improvement
from repro.workloads import CH3_TASK_SETS

UTILIZATIONS = (0.80, 1.00, 1.05, 1.08, 1.10)
AREA_FRACTIONS = tuple(i / 10 for i in range(11))


def test_table_3_1(benchmark):
    def run():
        return [
            f"{k} | {', '.join(names)}" for k, names in sorted(CH3_TASK_SETS.items())
        ]

    rows = once(benchmark, run)
    emit("table_3_1_task_sets", ["Task set | Benchmarks", *rows])


def test_figure_3_1(benchmark):
    """Per-task performance/area trade-off (g721 decode analogue)."""

    def run():
        task = cached_task("g721decode")
        return [
            f"{cfg.area:10.1f} {cfg.cycles:14.0f}" for cfg in task.configurations
        ]

    rows = once(benchmark, run)
    emit(
        "figure_3_1_g721_curve",
        ["area(adders)  cycles", *rows],
    )
    # Shape check: strictly decreasing cycles along the curve.
    cycles = [float(r.split()[1]) for r in rows]
    assert cycles == sorted(cycles, reverse=True)


def test_figure_3_3(benchmark):
    """Utilization vs. area for all 6 task sets, EDF and RMS."""

    def run():
        lines = ["set  U0    policy  " + "  ".join(f"{f:4.1f}" for f in AREA_FRACTIONS)]
        for k, names in sorted(CH3_TASK_SETS.items()):
            for u0 in UTILIZATIONS:
                ts = cached_task_set(names, u0, label=f"ts{k}")
                max_area = ts.max_area
                for policy in ("edf", "rms"):
                    utils = []
                    for frac in AREA_FRACTIONS:
                        budget = max_area * frac
                        if policy == "edf":
                            u = select_edf(ts, budget).utilization
                        else:
                            sel = select_rms(ts, budget)
                            u = sel.utilization if sel.assignment else math.inf
                        utils.append(u)
                    cells = "  ".join(
                        f"{u:4.2f}" if math.isfinite(u) else " -- " for u in utils
                    )
                    lines.append(f"ts{k}  {u0:4.2f}  {policy:6s}  {cells}")
        return lines

    lines = once(benchmark, run)
    emit("figure_3_3_utilization_vs_area", lines)

    # Shape checks (thesis findings): utilization decreases with area, and
    # at U0 = 0.8 EDF and RMS pick identical configurations.
    for line in lines[1:]:
        cells = [c for c in line.split("  ") if c.strip()]
        vals = [float(v) for v in cells[3:] if v.strip() != "--"]
        assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))


def test_figure_3_4(benchmark):
    """Energy improvement vs. area, task set 3, EDF and RMS."""

    improvement = {}  # (U0, policy, frac) -> energy improvement %, or None

    def run():
        names = CH3_TASK_SETS[3]
        lines = ["U0    policy  frac  energy_improvement_%"]
        for u0 in UTILIZATIONS:
            ts = cached_task_set(names, u0, label="ts3")
            max_area = ts.max_area
            for policy in ("edf", "rms"):
                for frac in AREA_FRACTIONS[1:]:
                    budget = max_area * frac
                    if policy == "edf":
                        sel = select_edf(ts, budget)
                        assignment = sel.assignment
                    else:
                        rsel = select_rms(ts, budget)
                        assignment = rsel.assignment
                    if assignment is None:
                        improvement[u0, policy, frac] = None
                        lines.append(f"{u0:4.2f}  {policy:6s}  {frac:4.2f}  unschedulable")
                        continue
                    imp = energy_improvement(ts, None, list(assignment), policy=policy)
                    improvement[u0, policy, frac] = imp
                    val = "n/a" if imp is None else f"{imp:6.2f}"
                    lines.append(f"{u0:4.2f}  {policy:6s}  {frac:4.2f}  {val}")
        return lines

    lines = once(benchmark, run)
    emit("figure_3_4_energy_vs_area", lines)
    # Shape check: some positive energy improvement exists for EDF.
    improvements = [
        float(l.split()[-1])
        for l in lines[1:]
        if l.split()[-1] not in ("unschedulable", "n/a")
    ]
    assert improvements and max(improvements) > 0.0
    # EXPERIMENTS.md: EDF stays at or above RMS wherever both have a value
    # (the RMS test's Liu-Layland conservatism leaves less slack to scale).
    pairs = [
        (improvement[u0, "edf", f], improvement[u0, "rms", f])
        for u0 in UTILIZATIONS
        for f in AREA_FRACTIONS[1:]
        if improvement[u0, "edf", f] is not None
        and improvement[u0, "rms", f] is not None
    ]
    assert pairs and all(edf >= rms for edf, rms in pairs), pairs
