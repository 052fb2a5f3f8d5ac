"""End-to-end customization flow for multi-tasking real-time systems.

Implements the design flow of thesis Figure 1.3:

1. identify custom-instruction candidates per constituent task;
2. build each task's (area, cycles) configuration curve;
3. select configurations across tasks under the area and real-time
   constraints (EDF dynamic program or RMS branch and bound);
4. optionally validate the resulting assignment with the discrete-event
   scheduler simulator and estimate energy savings via voltage scaling.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro import obs
from repro.core.edf_select import EdfSelection, select_edf
from repro.core.rms_select import RmsSelection, select_rms
from repro.enumeration.library import build_candidate_library
from repro.errors import ScheduleError
from repro.graphs.program import Program
from repro.rtsched.task import PeriodicTask, TaskSet, scale_periods_for_utilization
from repro.selection.config_curve import (
    build_configuration_curve,
    downsample_curve,
)

__all__ = [
    "CustomizationResult",
    "build_task",
    "build_tasks",
    "build_task_set",
    "customize",
]


@dataclass(frozen=True)
class CustomizationResult:
    """Outcome of the multi-task customization flow.

    Attributes:
        policy: ``"edf"`` or ``"rms"``.
        utilization_before: software-only utilization.
        utilization_after: utilization with the selected customization
            (``inf`` if RMS found no schedulable assignment).
        assignment: chosen configuration index per task, or None.
        area: consumed CFU area.
        area_budget: the budget the selection ran under.
        single_fault_robust: True/False when the degraded-mode check ran
            (``customize(check_single_fault=True)``): does the assignment
            stay schedulable if any single CFU fails?  None when the check
            was not requested or no assignment exists.
    """

    policy: str
    utilization_before: float
    utilization_after: float
    assignment: tuple[int, ...] | None
    area: float
    area_budget: float
    single_fault_robust: bool | None = None

    @property
    def schedulable(self) -> bool:
        return self.assignment is not None and self.utilization_after <= 1.0 + 1e-9

    @property
    def utilization_reduction_pct(self) -> float:
        if self.assignment is None or self.utilization_before <= 0:
            return 0.0
        return 100.0 * (1.0 - self.utilization_after / self.utilization_before)


def build_task(
    program: Program,
    period: float | None = None,
    objective: str = "avg",
    max_inputs: int = 4,
    max_outputs: int = 2,
    curve_steps: int = 12,
    method: str = "greedy",
    max_configs: int = 24,
    use_cache: bool = True,
) -> PeriodicTask:
    """Build a :class:`PeriodicTask` with a configuration curve from a program.

    Args:
        program: the task's program model.
        period: task period; defaults to twice the software cost (caller
            usually rescales periods afterwards for a target utilization).
        objective: ``"avg"`` or ``"wcet"`` task cost measure.
        max_inputs / max_outputs: register-port constraints.
        curve_steps: number of area budgets explored for the curve.
        method: candidate-selection method for the curve.
        use_cache: memoize the identification artifacts (candidate library
            and configuration curve) through :mod:`repro.cache`.
    """
    with obs.span("identify", task=program.name) as sp:
        library = build_candidate_library(
            program,
            max_inputs=max_inputs,
            max_outputs=max_outputs,
            use_cache=use_cache,
        )
        sp.set(candidates=len(library.candidates))
    with obs.span("curves", task=program.name) as sp:
        curve = build_configuration_curve(
            program,
            library.candidates,
            steps=curve_steps,
            objective=objective,
            method=method,
            use_cache=use_cache,
        )
        curve = downsample_curve(curve, max_configs)
        sp.set(configurations=len(curve))
    wcet = curve[0].cycles
    return PeriodicTask(
        name=program.name,
        period=period if period is not None else 2.0 * wcet,
        wcet=wcet,
        configurations=tuple(curve),
    )


def build_tasks(
    programs: Sequence[Program],
    **task_kwargs,
) -> list[PeriodicTask]:
    """Build one :class:`PeriodicTask` per program, in program order.

    Args:
        programs: the task programs.
        **task_kwargs: forwarded to :func:`build_task`.
    """
    with obs.span("identify.batch", tasks=len(programs)):
        return [build_task(p, **task_kwargs) for p in programs]


def build_task_set(
    programs: Sequence[Program],
    target_utilization: float,
    name: str = "",
    objective: str = "avg",
    **task_kwargs,
) -> TaskSet:
    """Build a task set from programs with periods scaled to a utilization."""
    tasks = build_tasks(programs, objective=objective, **task_kwargs)
    return scale_periods_for_utilization(tasks, target_utilization, name=name)


def customize(
    task_set: TaskSet,
    area_budget: float,
    policy: str = "edf",
    check_single_fault: bool = False,
) -> CustomizationResult:
    """Run the inter-task selection stage on a prepared task set.

    Args:
        task_set: tasks with configuration curves attached.
        area_budget: total CFU area available.
        policy: ``"edf"`` (Algorithm 1) or ``"rms"`` (Algorithm 2).
        check_single_fault: additionally run the degraded-mode analysis of
            :mod:`repro.faults.degraded` on the selected assignment and
            record whether it survives any single CFU failure.

    Returns:
        A :class:`CustomizationResult`.
    """
    u_before = task_set.utilization
    with obs.span("select", policy=policy, tasks=len(task_set)):
        if policy == "edf":
            sel: EdfSelection | RmsSelection = select_edf(task_set, area_budget)
            area = sel.area
        elif policy == "rms":
            sel = select_rms(task_set, area_budget)
            area = sel.area if sel.assignment is not None else 0.0
        else:
            raise ScheduleError(f"unknown policy {policy!r}; use 'edf' or 'rms'")
    robust: bool | None = None
    if check_single_fault and sel.assignment is not None:
        # Imported lazily: repro.faults composes over this module.
        from repro.faults.degraded import single_fault_report

        with obs.span("validate", kind="single_fault", policy=policy):
            robust = single_fault_report(task_set, sel.assignment, policy).robust
    return CustomizationResult(
        policy=policy,
        utilization_before=u_before,
        utilization_after=sel.utilization,
        assignment=sel.assignment,
        area=area,
        area_budget=area_budget,
        single_fault_robust=robust,
    )
