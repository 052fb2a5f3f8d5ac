"""Analytic degraded-mode schedulability: surviving a single CFU failure.

The selection algorithms of Chapter 3 prove the *nominal* configuration
schedulable.  This module answers the robustness question behind the
``repro faults`` report: **does the selected configuration still meet every
deadline if any single CFU fails?**  A failed CFU pins its task to the
base-ISA (configuration 0) cost while every other task keeps its customized
cost; the EDF utilization/demand-bound tests and the RMS point/response-time
tests are then re-run on the degraded cost vector.

Each policy's verdict is produced by two independent exact tests that must
agree (EDF: utilization bound and the processor-demand test; RMS: the
Bini-Buttazzo point test and response-time analysis) — an internal
differential oracle; disagreement raises :class:`~repro.errors.FaultError`.
:func:`cross_validate_single_fault` additionally replays the same fault
through the discrete-event simulator (``fallback-to-base`` containment),
which is exact over one hyperperiod for integral periods.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import FaultError, ScheduleError
from repro.faults.model import FaultModel
from repro.rtsched.dbf import edf_constrained_schedulable
from repro.rtsched.edf import edf_schedulable_costs
from repro.rtsched.response_time import rta_schedulable
from repro.rtsched.rms import rms_schedulable_costs, rms_task_loads
from repro.rtsched.simulator import SimulationResult, simulate_taskset
from repro.rtsched.task import TaskSet

__all__ = [
    "DegradedReport",
    "DegradedVerdict",
    "cross_validate_single_fault",
    "degraded_costs",
    "degraded_schedulable",
    "single_fault_report",
]

EPS = 1e-9


@dataclass(frozen=True)
class DegradedVerdict:
    """Schedulability of one degraded mode (one failed CFU).

    Attributes:
        fault_task: index of the task whose CFU failed (-1 = nominal mode).
        policy: ``"edf"`` or ``"rms"``.
        schedulable: every deadline still met in this mode.
        utilization: total utilization of the degraded cost vector.
        worst_load: binding load — the utilization under EDF, the maximum
            per-task load factor ``L_i`` under RMS.
    """

    fault_task: int
    policy: str
    schedulable: bool
    utilization: float
    worst_load: float


@dataclass(frozen=True)
class DegradedReport:
    """Single-CFU-failure robustness of a configuration assignment.

    Attributes:
        policy: ``"edf"`` or ``"rms"``.
        nominal: verdict for the fault-free mode (``fault_task = -1``).
        verdicts: one verdict per task, in task order, with that task's
            CFU failed out.
    """

    policy: str
    nominal: DegradedVerdict
    verdicts: tuple[DegradedVerdict, ...]

    @property
    def robust(self) -> bool:
        """Nominal mode and every single-fault mode are schedulable."""
        return self.nominal.schedulable and all(
            v.schedulable for v in self.verdicts
        )

    @property
    def fragile_tasks(self) -> tuple[int, ...]:
        """Tasks whose CFU failure breaks schedulability."""
        return tuple(v.fault_task for v in self.verdicts if not v.schedulable)


def degraded_costs(
    task_set: TaskSet,
    assignment: Sequence[int],
    fault_task: int | None,
) -> list[float]:
    """Per-task costs under *assignment* with *fault_task* pinned to base.

    Args:
        task_set: tasks with configuration curves.
        assignment: configuration index per task.
        fault_task: the task whose CFU failed (its cost becomes the
            configuration-0 software cost), or None for the nominal mode.
    """
    tasks = task_set.tasks
    if len(assignment) != len(tasks):
        raise ScheduleError("assignment length must match task count")
    if fault_task is not None and not 0 <= fault_task < len(tasks):
        raise FaultError(f"fault_task {fault_task} out of range")
    costs = [
        t.configurations[j].cycles for t, j in zip(tasks, assignment)
    ]
    if fault_task is not None:
        fallback = tasks[fault_task].configurations[0]
        if not fallback.is_software:
            raise FaultError(
                f"task {tasks[fault_task].name!r}: configuration 0 is not a "
                "pure-software fallback"
            )
        costs[fault_task] = fallback.cycles
    return costs


def degraded_schedulable(
    task_set: TaskSet,
    assignment: Sequence[int],
    policy: str = "edf",
    fault_task: int | None = None,
) -> DegradedVerdict:
    """Analytic schedulability of one degraded mode.

    Runs two independent exact tests per policy and requires them to agree
    (internal differential oracle).

    Raises:
        FaultError: the two exact tests disagree — an analysis bug, never
            a property of the workload.
    """
    if policy not in ("edf", "rms"):
        raise ScheduleError(f"unknown policy {policy!r}; use 'edf' or 'rms'")
    periods = [t.period for t in task_set.tasks]
    costs = degraded_costs(task_set, assignment, fault_task)
    utilization = sum(c / p for c, p in zip(costs, periods))
    if policy == "edf":
        ok = edf_schedulable_costs(periods, costs)
        cross = edf_constrained_schedulable(periods, costs)
        worst = utilization
    else:
        ok = rms_schedulable_costs(periods, costs)
        cross = rta_schedulable(periods, costs)
        worst = max(rms_task_loads(periods, costs))
    if ok != cross:
        raise FaultError(
            f"degraded-mode tests disagree for policy {policy!r}, "
            f"fault_task={fault_task}: primary={ok}, cross={cross}"
        )
    return DegradedVerdict(
        fault_task=-1 if fault_task is None else fault_task,
        policy=policy,
        schedulable=ok,
        utilization=utilization,
        worst_load=worst,
    )


def single_fault_report(
    task_set: TaskSet,
    assignment: Sequence[int],
    policy: str = "edf",
) -> DegradedReport:
    """Degraded-mode verdicts for every possible single CFU failure."""
    nominal = degraded_schedulable(task_set, assignment, policy, None)
    verdicts = tuple(
        degraded_schedulable(task_set, assignment, policy, i)
        for i in range(len(task_set))
    )
    return DegradedReport(policy=policy, nominal=nominal, verdicts=verdicts)


def cross_validate_single_fault(
    task_set: TaskSet,
    assignment: Sequence[int],
    policy: str = "edf",
    fault_task: int | None = None,
    horizon: float | None = None,
) -> tuple[DegradedVerdict, SimulationResult, bool]:
    """Degraded analytic verdict vs. the fault-injecting simulator.

    The simulator runs with a :class:`FaultModel` failing exactly
    *fault_task*'s CFU under ``fallback-to-base`` containment — the same
    semantics the analytic test assumes.  For integral periods (simulation
    over one hyperperiod from the synchronous release is exact) the two
    verdicts must agree.

    Returns:
        ``(verdict, simulation, agree)``.
    """
    verdict = degraded_schedulable(task_set, assignment, policy, fault_task)
    model = FaultModel(
        cfu_failed=frozenset() if fault_task is None else frozenset({fault_task})
    )
    sim = simulate_taskset(
        task_set,
        assignment=list(assignment),
        policy="rm" if policy == "rms" else policy,
        horizon=horizon,
        faults=model,
        containment="fallback-to-base",
    )
    return verdict, sim, verdict.schedulable == sim.schedulable
