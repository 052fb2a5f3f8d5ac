"""Chapter 6 benches: Tables 6.1/6.2 and Figures 6.8/6.10.

* Table 6.1 — running time of exhaustive / greedy / iterative partitioning
  on synthetic inputs with 5 to 100 hot loops (exhaustive drops out beyond
  ~12 loops, as in the thesis);
* Figure 6.8 — solution quality (net gain) of the three algorithms on the
  synthetic inputs;
* Table 6.2 — the JPEG application's hot loops and CIS versions;
* Figure 6.10 — solution quality on the JPEG case study across
  reconfiguration costs.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.common import emit, once
from repro.errors import SolverError
from repro.reconfig import (
    exhaustive_partition,
    greedy_partition,
    iterative_partition,
    spatial_select,
)
from repro.workloads import (
    JPEG_MAX_AREA,
    JPEG_RHO,
    jpeg_loops,
    jpeg_trace,
    synthetic_loops,
    synthetic_trace,
)

LOOP_COUNTS = (5, 6, 7, 8, 9, 10, 11, 12, 20, 40, 60, 80, 100)
EXHAUSTIVE_LIMIT = 11  # beyond this the enumeration becomes impractical
EXHAUSTIVE_BUDGET = 120.0
MAX_AREA = 150.0
RHO = 400.0

_rows_cache: list[tuple] | None = None


def _run_all() -> list[tuple]:
    """(n, gains..., times...) per synthetic input size, memoized."""
    global _rows_cache
    if _rows_cache is not None:
        return _rows_cache
    rows = []
    for n in LOOP_COUNTS:
        loops = synthetic_loops(n, seed=n)
        trace = synthetic_trace(n, seed=n)
        if n <= EXHAUSTIVE_LIMIT:
            t0 = time.perf_counter()
            try:
                ex = exhaustive_partition(
                    loops, trace, MAX_AREA, RHO, time_budget=EXHAUSTIVE_BUDGET
                )
                ex_gain, ex_time = ex.gain, time.perf_counter() - t0
            except SolverError:
                ex_gain, ex_time = None, None
        else:
            ex_gain, ex_time = None, None
        t0 = time.perf_counter()
        gr = greedy_partition(loops, trace, MAX_AREA, RHO)
        gr_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        it = iterative_partition(loops, trace, MAX_AREA, RHO)
        it_time = time.perf_counter() - t0
        rows.append((n, ex_gain, gr.gain, it.gain, ex_time, gr_time, it_time))
    _rows_cache = rows
    return rows


def test_table_6_1(benchmark):
    """Running time of the three algorithms on synthetic inputs."""

    rows = once(benchmark, _run_all)
    lines = ["n_loops  exhaustive_s  greedy_s  iterative_s"]
    for n, _eg, _gg, _ig, ex_t, gr_t, it_t in rows:
        ex_cell = f"{ex_t:12.2f}" if ex_t is not None else "        N.A."
        lines.append(f"{n:7d}  {ex_cell}  {gr_t:8.4f}  {it_t:11.4f}")
    emit("table_6_1_running_times", lines)
    # Shape: exhaustive time explodes with n; iterative stays in seconds.
    times = [r[4] for r in rows if r[4] is not None]
    assert times == sorted(times)
    assert all(r[6] < 60.0 for r in rows)


def test_figure_6_8(benchmark):
    """Solution quality of the three algorithms on synthetic inputs."""

    rows = once(benchmark, _run_all)
    lines = ["n_loops  exhaustive  greedy  iterative  iter/exh  greedy/exh"]
    for n, ex_g, gr_g, it_g, *_ in rows:
        if ex_g is not None:
            lines.append(
                f"{n:7d}  {ex_g:10.0f}  {gr_g:6.0f}  {it_g:9.0f}  "
                f"{it_g / ex_g:8.3f}  {gr_g / ex_g:10.3f}"
            )
        else:
            lines.append(f"{n:7d}        N.A.  {gr_g:6.0f}  {it_g:9.0f}")
    emit("figure_6_8_solution_quality", lines)
    # Shape: exhaustive is exact over the thesis search space; iterative
    # stays close (and may exceed it via software demotion); greedy never
    # beats exhaustive.
    ratios = []
    for n, ex_g, gr_g, it_g, *_ in rows:
        if ex_g is None:
            continue
        assert it_g >= 0.85 * ex_g
        assert ex_g >= gr_g - 1e-6
        ratios.append(it_g / ex_g)
    assert sum(ratios) / len(ratios) >= 0.9


def test_table_6_2(benchmark):
    """JPEG hot loops and their CIS versions."""

    def run():
        lines = ["loop              version  area_AU  gain_Kcycles"]
        for lp in jpeg_loops():
            for j, v in enumerate(lp.versions):
                lines.append(f"{lp.name:16s}  {j:7d}  {v.area:7.0f}  {v.gain:12.0f}")
        return lines

    lines = once(benchmark, run)
    emit("table_6_2_jpeg_cis_versions", lines)


def test_figure_6_10(benchmark):
    """JPEG case study: solution quality across reconfiguration costs."""

    def run():
        loops, trace = jpeg_loops(), jpeg_trace()
        rows = []
        for rho in (0.0, 5.0, JPEG_RHO, 30.0, 60.0, 120.0):
            _sel, static_gain = spatial_select(loops, JPEG_MAX_AREA)
            gr = greedy_partition(loops, trace, JPEG_MAX_AREA, rho)
            it = iterative_partition(loops, trace, JPEG_MAX_AREA, rho)
            ex = exhaustive_partition(
                loops, trace, JPEG_MAX_AREA, rho, time_budget=EXHAUSTIVE_BUDGET
            )
            rows.append(
                (rho, static_gain, gr.gain, it.gain, ex.gain, it.n_configurations)
            )
        return rows

    rows = once(benchmark, run)
    lines = ["rho_K   static  greedy  iterative  exhaustive  n_cfg_iter"]
    for rho, static_g, gr_g, it_g, ex_g, n_cfg in rows:
        lines.append(
            f"{rho:5.0f}  {static_g:7.0f}  {gr_g:6.0f}  "
            f"{it_g:9.0f}  {ex_g:10.0f}  {n_cfg:10d}"
        )
    emit("figure_6_10_jpeg_quality", lines)
    # Shape (EXPERIMENTS.md): at rho=0 reconfiguration beats static;
    # iterative matches exhaustive at every rho with greedy at or below it;
    # from rho=30K on, iterative collapses to the single static configuration.
    _rho, static_g, _gr, it_g, _ex, _n = rows[0]
    assert it_g > static_g
    for rho, static_g, gr_g, it_g, ex_g, n_cfg in rows:
        assert it_g == pytest.approx(ex_g, abs=1e-6), rho
        assert gr_g <= it_g + 1e-6, rho
        if rho >= 30.0:
            assert it_g == pytest.approx(static_g, abs=1e-6), rho
            assert n_cfg == 1, rho
