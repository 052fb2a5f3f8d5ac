"""repro — instruction-set customization for multi-tasking real-time systems.

A production-quality reproduction of *Instruction-Set Customization for
Real-Time Embedded Systems* (Huynh & Mitra, DATE 2007) and the surrounding
thesis system (Huynh, NUS 2009): custom-instruction identification and
selection, EDF/RMS-aware inter-task customization, ε-approximate Pareto
trade-off exploration, MLGP-based iterative generation, and runtime
reconfiguration of custom instructions for single- and multi-tasking
applications.

Quickstart::

    from repro import build_task_set, customize, CH3_TASK_SETS, programs_for

    programs = programs_for(CH3_TASK_SETS[1])
    task_set = build_task_set(programs, target_utilization=1.05)
    result = customize(task_set, area_budget=500.0, policy="edf")
    print(result.utilization_after, result.schedulable)

The names below load on first access (PEP 562): ``import repro`` imports no
subpackage, so a command pays only for the stages it runs.  Subpackages are
attributes too (``repro.core``, ``repro.obs``).
"""

import importlib

__version__ = "1.0.0"

#: Subpackage -> the names re-exported from it.
_EXPORTS = {
    "repro.core": (
        "CustomizationResult",
        "EdfSelection",
        "RmsSelection",
        "build_task",
        "build_task_set",
        "customize",
        "select_edf",
        "select_rms",
    ),
    "repro.enumeration": (
        "Candidate",
        "CandidateLibrary",
        "build_candidate_library",
        "enumerate_connected",
        "enumerate_exhaustive",
        "maximal_misos",
    ),
    "repro.errors": (
        "ConstraintError",
        "GraphError",
        "ReproError",
        "ScheduleError",
        "SolverError",
        "WorkloadError",
    ),
    "repro.graphs": ("Block", "DataFlowGraph", "IfElse", "Loop", "Program", "Seq"),
    "repro.isa": ("HardwareCostModel", "Opcode"),
    "repro.mlgp": (
        "iterative_customization",
        "iterative_selection",
        "mlgp_partition",
        "mlgp_program_profile",
    ),
    "repro.mtreconfig": (
        "ReconfigTask",
        "TaskVersion",
        "dp_solution",
        "ilp_solution",
        "static_solution",
    ),
    "repro.pareto": (
        "CIOption",
        "ParetoPoint",
        "TaskCurve",
        "approx_utilization_curve",
        "approx_workload_curve",
        "exact_utilization_curve",
        "exact_workload_curve",
    ),
    "repro.reconfig": (
        "CISVersion",
        "HotLoop",
        "exhaustive_partition",
        "greedy_partition",
        "iterative_partition",
    ),
    "repro.rtsched": (
        "PeriodicTask",
        "TaskSet",
        "edf_schedulable",
        "rms_schedulable",
        "scale_periods_for_utilization",
        "simulate_taskset",
    ),
    "repro.selection": (
        "build_configuration_curve",
        "select_branch_bound",
        "select_greedy",
        "select_ilp",
        "select_knapsack",
    ),
    "repro.workloads": (
        "CH3_TASK_SETS",
        "CH4_TASK_SETS",
        "CH5_TASK_SETS",
        "benchmark_names",
        "get_program",
        "programs_for",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "obs", *_SOURCE]


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is not None:
        value = getattr(importlib.import_module(module), name)
        globals()[name] = value
        return value
    if not name.startswith("_"):
        # A subpackage or module: importing it binds it on this package.
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
