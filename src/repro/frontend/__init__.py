"""Real-code front-end: ingest Python kernels and DFG files as workloads.

Three entry points feed the pipelines:

* :func:`ingest_function` / :func:`ingest_source` / :func:`ingest_path` —
  compile a plain Python function (optionally decorated with
  :func:`kernel` hints) into a :class:`~repro.graphs.program.Program`;
* :func:`dfg_from_dict` / :func:`import_dot` — load a single
  :class:`~repro.graphs.dfg.DataFlowGraph` from the JSON artifact form or
  from :func:`~repro.graphs.export.dfg_to_dot` output (exact inverse);
* :func:`program_to_dict` / :func:`program_from_dict` — the ``repro/v1``
  program artifact schema written by ``repro ingest`` and resolved by the
  workload registry (:mod:`repro.workloads.registry`).

Ingested programs are first-class workloads: registering one (or pointing
a benchmark name at an artifact path) makes it consumable by every chapter
pipeline and all service job kinds, content-keyed through the existing
``cache.program_fingerprint``/``dfg_digest``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.frontend.graphio import (
    dfg_from_dict,
    dfg_to_dict,
    import_dot,
    program_from_dict,
    program_to_dict,
)
from repro.frontend.pyast import (
    DEFAULT_LOOP_BOUND,
    KernelHints,
    ingest_function,
    ingest_path,
    ingest_source,
    kernel,
)

__all__ = [
    "DEFAULT_LOOP_BOUND",
    "KernelHints",
    "dfg_from_dict",
    "dfg_to_dict",
    "import_dot",
    "ingest_function",
    "ingest_path",
    "ingest_source",
    "kernel",
    "loops_from_programs",
    "program_from_dict",
    "program_to_dict",
]


def loops_from_programs(
    programs: Sequence,
    max_versions: int = 4,
    max_inputs: int = 4,
    max_outputs: int = 2,
    use_cache: bool = True,
):
    """Derive Chapter 6 hot loops from programs' configuration curves.

    Each program becomes one :class:`~repro.reconfig.model.HotLoop`: the
    area/cycles configuration curve of its customized task is re-expressed
    as CIS versions, with ``gain = software cycles - configured cycles``
    (version 0 stays the mandatory software version).  At most
    *max_versions* versions are kept per loop (evenly thinned from the
    curve, always keeping the highest-gain point).

    Returns:
        ``(loops, trace)`` where the trace visits the loops round-robin —
        a neutral default when no measured loop trace exists.
    """
    from repro.core.flow import build_task  # lazy: core pulls heavy deps
    from repro.reconfig.model import CISVersion, HotLoop

    loops: list[HotLoop] = []
    for program in programs:
        task = build_task(
            program,
            curve_steps=max(max_versions, 2),
            max_inputs=max_inputs,
            max_outputs=max_outputs,
            use_cache=use_cache,
        )
        curve = list(task.configurations)
        base_cycles = curve[0].cycles
        versions = [CISVersion(area=0.0, gain=0.0)]
        for cfg in curve[1:]:
            gain = base_cycles - cfg.cycles
            if gain > 0 and cfg.area > 0:
                versions.append(CISVersion(area=cfg.area, gain=gain))
        if len(versions) > max_versions:
            # Thin evenly but always keep the last (highest-gain) point.
            keep = {0, len(versions) - 1}
            step = (len(versions) - 1) / (max_versions - 1)
            keep.update(round(i * step) for i in range(max_versions))
            versions = [v for i, v in enumerate(versions) if i in keep][
                :max_versions
            ]
        loops.append(HotLoop(name=program.name, versions=tuple(versions)))
    reps = 3
    trace = [i for _ in range(reps) for i in range(len(loops))]
    return loops, trace
