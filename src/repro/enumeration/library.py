"""Candidate-library construction for whole programs.

Ties together profiling, region decomposition and MIMO enumeration: for each
*hot* basic block (a block whose profile weight is at least a fraction of the
program's total cycles — thesis Section 2.2), enumerate feasible candidates
and annotate them with the block's execution frequency.

Libraries are memoized through :mod:`repro.cache` keyed on the program's
structural fingerprint plus every enumeration parameter, so area/utilization
sweeps that revisit the same program skip enumeration entirely.
"""

from __future__ import annotations

from repro import cache, obs
from repro.engines import check_engine
from repro.enumeration.mimo import enumerate_connected
from repro.enumeration.patterns import CandidateLibrary, make_candidate
from repro.graphs.program import Program
from repro.isa.costmodel import DEFAULT_COST_MODEL, HardwareCostModel

__all__ = ["build_candidate_library", "hot_block_indices"]


def hot_block_indices(program: Program, hot_threshold: float = 0.01) -> list[int]:
    """Indices of blocks contributing at least *hot_threshold* of cycles.

    The contribution of block *i* is ``frequency_i x sw_cycles_i`` over the
    program's total average cycles.
    """
    freq = program.profile()
    blocks = program.basic_blocks
    contrib = {
        i: freq.get(i, 0.0) * blocks[i].dfg.sw_cycles() for i in range(len(blocks))
    }
    total = sum(contrib.values())
    if total <= 0:
        return []
    hot = [i for i, c in contrib.items() if c / total >= hot_threshold]
    hot.sort(key=lambda i: -contrib[i])
    return hot


def build_candidate_library(
    program: Program,
    max_inputs: int = 4,
    max_outputs: int = 2,
    hot_threshold: float = 0.01,
    max_size: int = 12,
    max_candidates_per_block: int = 2000,
    include_disconnected: bool = False,
    max_disconnected_per_block: int = 200,
    model: HardwareCostModel = DEFAULT_COST_MODEL,
    engine: str = "fast",
    use_cache: bool = True,
    stats: dict | None = None,
) -> CandidateLibrary:
    """Enumerate custom-instruction candidates for *program*.

    Args:
        program: the task's program model.
        max_inputs / max_outputs: register-port constraints (the thesis uses
            4 inputs / 2 outputs throughout).
        hot_threshold: minimum fraction of program cycles for a block to be
            analyzed.
        max_size: maximum operations per candidate.
        max_candidates_per_block: enumeration cap per basic block.
        include_disconnected: also pair independent connected candidates
            into disconnected MIMO candidates (thesis Section 2.3.1; their
            hardware latency is the max of the component paths).
        max_disconnected_per_block: pairing cap per block.
        model: the hardware cost model.
        engine: enumeration engine (see
            :func:`repro.enumeration.mimo.enumerate_connected`).
        use_cache: consult/populate the content-keyed artifact cache
            (:mod:`repro.cache`).
        stats: optional dict accumulating enumeration ``visited``/``feasible``
            counters (bypassed on cache hits).  Time is not kept here: the
            ``identify.enumerate`` span covers the whole build and each
            ``identify.search`` span one block's :func:`enumerate_connected`
            call (see :mod:`repro.obs`).

    Returns:
        A :class:`CandidateLibrary` with profitable candidates only, ordered
        by decreasing total gain.
    """
    # Checked before the cache lookup so a retired engine name can never
    # be served an artifact stored under it by an older build.
    check_engine(engine)
    key = None
    if use_cache:
        key = cache.artifact_key(
            cache.program_fingerprint(program),
            kind="library",
            max_inputs=max_inputs,
            max_outputs=max_outputs,
            hot_threshold=hot_threshold,
            max_size=max_size,
            max_candidates_per_block=max_candidates_per_block,
            include_disconnected=include_disconnected,
            max_disconnected_per_block=max_disconnected_per_block,
            model=(type(model).__name__, model.cycle_delay),
            # The engines differ under binding visit budgets.
            engine=engine,
        )
        hit = cache.fetch_candidates(key)
        if hit is not None:
            return CandidateLibrary(hit)
    freq = program.profile()
    blocks = program.basic_blocks
    library = CandidateLibrary()
    enum_stats: dict = stats if stats is not None else {}
    before = {k: enum_stats.get(k, 0) for k in (
        "visited", "feasible", "pruned_visit_budget", "pruned_inputs",
        "pruned_outputs",
    )}
    with obs.span("identify.enumerate", program=program.name, engine=engine):
        for i in hot_block_indices(program, hot_threshold):
            dfg = blocks[i].dfg
            with obs.span("identify.search", block=i, ops=len(dfg)):
                node_sets = enumerate_connected(
                    dfg,
                    max_inputs=max_inputs,
                    max_outputs=max_outputs,
                    max_size=max_size,
                    max_candidates=max_candidates_per_block,
                    engine=engine,
                    stats=enum_stats,
                )
                if include_disconnected:
                    from repro.enumeration.disconnected import pair_disconnected

                    node_sets = node_sets + pair_disconnected(
                        dfg,
                        node_sets[: max(20, max_disconnected_per_block // 4)],
                        max_inputs=max_inputs,
                        max_outputs=max_outputs,
                        max_pairs=max_disconnected_per_block,
                    )
            with obs.span("identify.cost", block=i, candidates=len(node_sets)):
                for nodes in node_sets:
                    cand = make_candidate(
                        dfg,
                        nodes,
                        block_index=i,
                        frequency=freq.get(i, 0.0),
                        model=model,
                    )
                    if cand.total_gain > 0:
                        library.add(cand)
    for k, v0 in before.items():
        delta = enum_stats.get(k, 0) - v0
        if delta:
            obs.inc(f"enumeration.{k}", delta)
    ordered = sorted(library, key=lambda c: (-c.total_gain, c.area))
    obs.inc("enumeration.candidates_kept", len(ordered))
    if use_cache and key is not None:
        cache.store_candidates(key, ordered)
    return CandidateLibrary(ordered)
