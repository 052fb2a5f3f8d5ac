"""Fault-scenario sweeps producing the robustness report.

Given a task set with configuration curves, :func:`sweep_faults` runs the
full robustness battery behind ``repro faults``:

1. **nominal selection** — the Chapter 3 customization under EDF and RMS;
2. **single-CFU-failure analysis** — the analytic degraded-mode verdict
   for every possible failed CFU, each cross-validated against the
   fault-injecting simulator (``fallback-to-base`` containment);
3. **scenario injection** — seeded WCET-overrun and reconfiguration-jitter
   campaigns under every containment policy, with per-policy miss/abort
   accounting.

The result is a plain-JSON dict (the ``BENCH_faults.json`` payload written
by the CLI); :func:`repro.report.format_fault_report` renders it as text.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro import obs
from repro.core.flow import customize
from repro.faults.degraded import cross_validate_single_fault
from repro.faults.model import CONTAINMENT_POLICIES, FaultModel
from repro.report import format_fault_report
from repro.rtsched.simulator import simulate_taskset
from repro.rtsched.task import TaskSet

__all__ = ["FaultScenario", "default_scenarios", "format_fault_report", "sweep_faults"]


@dataclass(frozen=True)
class FaultScenario:
    """One named injection campaign: a fault model plus a containment."""

    name: str
    faults: FaultModel
    containment: str = "run-to-completion"


def default_scenarios(
    seed: int = 0,
    overrun_fracs: Sequence[float] = (0.10, 0.25, 0.50),
    overrun_prob: float = 0.25,
    jitter_frac: float = 0.10,
) -> tuple[FaultScenario, ...]:
    """The stock sweep: overrun campaigns x containments, plus jitter."""
    scenarios = [
        FaultScenario(
            name=f"overrun{round(100 * frac)}pct-{containment}",
            faults=FaultModel(
                seed=seed, overrun_prob=overrun_prob, overrun_frac=frac
            ),
            containment=containment,
        )
        for frac in overrun_fracs
        for containment in CONTAINMENT_POLICIES
    ]
    scenarios.append(
        FaultScenario(
            name=f"reconfig-jitter{round(100 * jitter_frac)}pct",
            faults=FaultModel(seed=seed, jitter_frac=jitter_frac),
            containment="run-to-completion",
        )
    )
    return tuple(scenarios)


def _scenario_record(name: str, containment: str, sim) -> dict:
    stats = sim.fault_stats
    return {
        "name": name,
        "containment": containment,
        "schedulable": sim.schedulable,
        "n_missed": len(sim.missed),
        "n_aborted": len(sim.aborted),
        "jobs": 0 if stats is None else stats.jobs,
        "faulted_jobs": 0 if stats is None else stats.faulted,
        "overruns": 0 if stats is None else stats.overruns,
        "cfu_fallbacks": 0 if stats is None else stats.cfu_fallbacks,
        "jittered": 0 if stats is None else stats.jittered,
        "contained": 0 if stats is None else stats.contained,
        "excess_demand": 0.0 if stats is None else stats.excess_demand,
        "observed_utilization": sim.observed_utilization,
    }


def sweep_faults(
    task_set: TaskSet,
    area_budget: float | None = None,
    policies: Sequence[str] = ("edf", "rms"),
    seed: int = 0,
    scenarios: Sequence[FaultScenario] | None = None,
    horizon: float | None = None,
) -> dict:
    """Run the robustness battery on one task set.

    Args:
        task_set: tasks with configuration curves attached.
        area_budget: CFU area for the nominal selection (default: half of
            ``max_area``, matching the CLI's ``customize`` default).
        policies: scheduling policies to sweep (``"edf"``/``"rms"``).
        seed: root seed for the scenario fault models.
        scenarios: injection campaigns (default: :func:`default_scenarios`
            with *seed*).
        horizon: simulation horizon override (default: the simulator's own).

    Returns:
        A JSON-serializable report dict.
    """
    budget = area_budget if area_budget is not None else 0.5 * task_set.max_area
    if scenarios is None:
        scenarios = default_scenarios(seed)
    report: dict = {
        "task_set": task_set.name or "(unnamed)",
        "n_tasks": len(task_set),
        "area_budget": budget,
        "seed": seed,
        "policies": [],
    }
    with obs.span("faults.sweep", tasks=len(task_set)):
        for policy in policies:
            sim_policy = "rm" if policy == "rms" else policy
            with obs.span("faults.policy", policy=policy):
                selection = customize(task_set, budget, policy=policy)
                entry: dict = {
                    "policy": policy,
                    "schedulable": selection.schedulable,
                    "utilization_before": selection.utilization_before,
                    "utilization_after": selection.utilization_after,
                    "assignment": (
                        None
                        if selection.assignment is None
                        else list(selection.assignment)
                    ),
                }
                if not selection.schedulable:
                    # Nothing to degrade: the nominal selection already fails.
                    entry["single_cfu_failure"] = None
                    entry["scenarios"] = []
                    report["policies"].append(entry)
                    continue
                assignment = list(selection.assignment)
                modes = []
                robust = True
                all_agree = True
                with obs.span("validate", kind="single_fault", policy=policy):
                    for i, task in enumerate(task_set.tasks):
                        verdict, sim, agree = cross_validate_single_fault(
                            task_set, assignment, policy, i, horizon=horizon
                        )
                        robust = robust and verdict.schedulable
                        all_agree = all_agree and agree
                        modes.append(
                            {
                                "fault_task": i,
                                "task": task.name,
                                "schedulable": verdict.schedulable,
                                "utilization": verdict.utilization,
                                "worst_load": verdict.worst_load,
                                "sim_schedulable": sim.schedulable,
                                "sim_agrees": agree,
                            }
                        )
                entry["single_cfu_failure"] = {
                    "robust": robust,
                    "sim_agrees_all": all_agree,
                    "modes": modes,
                }
                entry["scenarios"] = []
                for sc in scenarios:
                    with obs.span("faults.scenario", name=sc.name, policy=policy):
                        sim = simulate_taskset(
                            task_set,
                            assignment=assignment,
                            policy=sim_policy,
                            horizon=horizon,
                            faults=sc.faults,
                            containment=sc.containment,
                        )
                    obs.inc("faults.scenarios")
                    entry["scenarios"].append(
                        _scenario_record(sc.name, sc.containment, sim)
                    )
                report["policies"].append(entry)
    return report
