"""Workload builders for the Chapter 7 experiments.

Two sources of :class:`~repro.mtreconfig.model.ReconfigTask` sets:

* :func:`tasks_from_benchmarks` — full-pipeline tasks whose CIS version
  curves come from candidate enumeration + selection on the synthetic
  benchmark programs (Table 7.1 analogue);
* :func:`synthetic_reconfig_tasks` — fast seeded task sets for scalability
  studies (Table 7.2 timing comparison).
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.core.flow import build_task
from repro.mtreconfig.model import ReconfigTask, TaskVersion
from repro.workloads.tasksets import programs_for

__all__ = ["tasks_from_benchmarks", "synthetic_reconfig_tasks"]


def tasks_from_benchmarks(
    names: Sequence[str],
    target_utilization: float = 1.2,
    max_versions: int = 8,
) -> list[ReconfigTask]:
    """Build reconfigurable tasks from benchmark configuration curves.

    Periods are scaled uniformly so the software-only utilization equals
    *target_utilization*.
    """
    programs = programs_for(names)
    periodic = [build_task(p, max_configs=max_versions) for p in programs]
    alpha = len(periodic) / target_utilization
    tasks: list[ReconfigTask] = []
    for t in periodic:
        period = alpha * t.wcet
        versions = tuple(
            TaskVersion(area=c.area, cycles=c.cycles) for c in t.configurations
        )
        tasks.append(ReconfigTask(name=t.name, period=period, versions=versions))
    return tasks


def synthetic_reconfig_tasks(
    n_tasks: int,
    seed: int = 0,
    target_utilization: float = 1.2,
    n_versions: tuple[int, int] = (3, 8),
    base_cycles: tuple[int, int] = (50_000, 500_000),
    area_range: tuple[int, int] = (100, 2000),
    max_speedup: float = 2.0,
) -> list[ReconfigTask]:
    """Seeded synthetic reconfigurable task sets.

    Each task gets a monotone version curve: areas increase, cycles
    decrease towards ``base / max_speedup``.
    """
    rng = random.Random(seed)
    raw: list[tuple[str, float, list[TaskVersion]]] = []
    for i in range(n_tasks):
        base = float(rng.randint(*base_cycles))
        k = rng.randint(*n_versions)
        areas = sorted(rng.randint(*area_range) for _ in range(k))
        versions = [TaskVersion(area=0.0, cycles=base)]
        for rank, a in enumerate(areas, start=1):
            frac = rank / k
            speedup = 1.0 + (max_speedup - 1.0) * frac * rng.uniform(0.8, 1.0)
            versions.append(TaskVersion(area=float(a), cycles=base / speedup))
        raw.append((f"task{i}", base, versions))
    # Each task gets software utilization target / n, the set the target.
    tasks: list[ReconfigTask] = []
    for name, base, versions in raw:
        period = base * n_tasks / target_utilization
        tasks.append(ReconfigTask(name=name, period=period, versions=tuple(versions)))
    return tasks
