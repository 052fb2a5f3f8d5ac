"""Scalability benches for the core solvers (engineering study).

Not thesis tables: these measure how this implementation's solvers scale
with problem size, so downstream users know what to expect.

* EDF selection DP vs. task count and configurations per task;
* RMS branch and bound vs. task count (exponential worst case, pruned);
* candidate enumeration vs. basic-block size;
* multilevel k-way partitioner vs. graph size.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.common import emit, once
from repro.core import select_edf, select_rms
from repro.enumeration import enumerate_connected
from repro.reconfig import kway_partition
from repro.rtsched import PeriodicTask, TaskSet
from repro.selection.config_curve import TaskConfiguration
from repro.workloads.synthesis import OP_MIXES, synth_dfg


#: Timed runs per block size in the enumeration sweep; the row reports
#: the best (as ``test_identification_perf.ENUM_REPEATS``).
ENUM_REPEATS = 5


def _taskset(n_tasks: int, n_cfg: int, seed: int = 0) -> TaskSet:
    rng = random.Random(seed)
    tasks = []
    for i in range(n_tasks):
        wcet = float(rng.randint(50, 200))
        configs = [TaskConfiguration(0.0, wcet)]
        area, cycles = 0.0, wcet
        for _ in range(n_cfg - 1):
            area += rng.randint(2, 20)
            cycles = max(1.0, cycles * rng.uniform(0.8, 0.95))
            configs.append(TaskConfiguration(area, cycles))
        tasks.append(
            PeriodicTask(
                name=f"t{i}",
                period=wcet * rng.uniform(1.5, 3.0),
                wcet=wcet,
                configurations=tuple(configs),
            )
        )
    return TaskSet(tasks)


def test_scalability_edf_dp(benchmark):
    def run():
        lines = ["n_tasks  n_cfg  time_ms"]
        for n_tasks in (4, 8, 16, 32, 64):
            for n_cfg in (8, 24):
                ts = _taskset(n_tasks, n_cfg, seed=n_tasks)
                budget = 0.5 * ts.max_area
                t0 = time.perf_counter()
                select_edf(ts, budget)
                dt = (time.perf_counter() - t0) * 1000
                lines.append(f"{n_tasks:7d}  {n_cfg:5d}  {dt:7.1f}")
        return lines

    lines = once(benchmark, run)
    emit("scalability_edf_dp", lines)
    # Pseudo-polynomial: even 64 tasks x 24 configs stays fast.
    assert all(float(l.split()[2]) < 2000 for l in lines[1:])


def test_scalability_rms_bb(benchmark):
    def run():
        lines = ["n_tasks  time_ms  nodes_visited  schedulable"]
        for n_tasks in (3, 5, 7, 9, 11):
            ts = _taskset(n_tasks, 8, seed=n_tasks + 100)
            budget = 0.4 * ts.max_area
            t0 = time.perf_counter()
            sel = select_rms(ts, budget, use_cache=False)
            dt = (time.perf_counter() - t0) * 1000
            lines.append(
                f"{n_tasks:7d}  {dt:7.1f}  {sel.nodes_visited:13d}  {sel.schedulable}"
            )
        return lines

    lines = once(benchmark, run)
    emit("scalability_rms_bb", lines)


def test_scalability_enumeration(benchmark):
    def run():
        # Candidate counts stop growing linearly on the larger blocks: the
        # default visit budgets bind there.  Per-candidate microseconds is
        # the size-comparable figure.  Equality with the reference engine
        # under non-binding budgets is tests/test_enumeration_differential.py.
        lines = ["block_ops  bitset_cands  bitset_ms  bitset_us_per_cand"]
        for n_ops in (50, 100, 250, 500, 1000, 2000):
            rng = random.Random(n_ops)
            dfg = synth_dfg(rng, n_ops, OP_MIXES["crypto"])
            ms = float("inf")
            # Best of ENUM_REPEATS: neither the per-DFG masks (built by
            # the first call) nor a slow spell of the host lands in a row.
            for _ in range(ENUM_REPEATS):
                t0 = time.perf_counter()
                res = enumerate_connected(dfg, 4, 2, engine="bitset")
                ms = min(ms, (time.perf_counter() - t0) * 1000)
            lines.append(
                f"{n_ops:9d}  {len(res):12d}  {ms:9.1f}  "
                f"{1000 * ms / len(res):18.1f}"
            )
        return lines

    lines = once(benchmark, run)
    emit("scalability_enumeration", lines)
    # Budgeted enumeration: bounded wall time even at 2000 ops.
    assert all(float(l.split()[2]) < 15_000 for l in lines[1:])


def test_scalability_kway(benchmark):
    def run():
        lines = ["n_vertices  k  cut_time_ms"]
        for n in (50, 200, 800, 2000):
            rng = random.Random(n)
            edges = {}
            for _ in range(n * 4):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    key = (min(u, v), max(u, v))
                    edges[key] = edges.get(key, 0.0) + rng.randint(1, 9)
            for k in (4, 16):
                t0 = time.perf_counter()
                kway_partition(n, edges, k=k, seed=n)
                dt = (time.perf_counter() - t0) * 1000
                lines.append(f"{n:10d}  {k:2d}  {dt:11.1f}")
        return lines

    lines = once(benchmark, run)
    emit("scalability_kway", lines)
    assert all(float(l.split()[2]) < 10_000 for l in lines[1:])
