"""System-level iterative custom-instruction generation (thesis Algorithm 4).

Top-down on-demand customization of a multi-tasking real-time system: the
utilization target guides which task, which basic blocks and which regions
get custom instructions, so no effort is spent enumerating candidates for
tasks that never become the bottleneck.

Per iteration:

1. stop if the current utilization meets the target;
2. pick the task with the maximum utilization;
3. the WCET must drop by ``delta = (U - U_target) x P_i``;
4. take the basic blocks covering (by default) 90% of the WCET path weight,
   visit their unexplored regions in descending weight, run MLGP on each and
   commit the generated custom instructions until ``delta`` is reached;
5. recompute the task's WCET and the system utilization; a task whose
   regions are exhausted is excluded from further iterations.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro import obs
from repro.graphs.program import Block, Program
from repro.isa.costmodel import DEFAULT_COST_MODEL, HardwareCostModel
from repro.mlgp.mlgp import MlgpResult, check_engine, mlgp_partition
from repro.parallel import parallel_map

__all__ = ["GeneratedCI", "IterationRecord", "IterativeResult", "iterative_customization", "mlgp_program_profile", "ProfileStep"]


@dataclass(frozen=True)
class GeneratedCI:
    """A committed custom instruction.

    Attributes:
        task: owning task name.
        block_index: basic block within the task's program.
        nodes: DFG node ids covered.
        gain: cycles saved per block execution.
        area: hardware area (adders).
        structural_key: isomorphism key for area sharing.
    """

    task: str
    block_index: int
    nodes: frozenset[int]
    gain: float
    area: float
    structural_key: tuple = ()


@dataclass(frozen=True)
class IterationRecord:
    """State after one iteration of Algorithm 4."""

    iteration: int
    task: str
    utilization: float
    new_cis: int
    elapsed: float


@dataclass
class IterationState:
    """Per-task mutable state of the iterative flow."""

    program: Program
    period: float
    saved_by_block: dict[int, float] = field(default_factory=dict)
    explored: set[tuple[int, int]] = field(default_factory=set)
    active: bool = True

    def block_cost(self) -> Callable[[Block], float]:
        index = {id(b): i for i, b in enumerate(self.program.basic_blocks)}

        def cost(block: Block) -> float:
            i = index[id(block)]
            return max(
                1.0,
                float(block.dfg.sw_cycles()) - self.saved_by_block.get(i, 0.0),
            )

        return cost

    def wcet(self) -> float:
        return self.program.wcet(self.block_cost())

    def utilization(self) -> float:
        return self.wcet() / self.period


@dataclass
class IterativeResult:
    """Full outcome of :func:`iterative_customization`."""

    records: list[IterationRecord]
    custom_instructions: list[GeneratedCI]
    utilization: float
    target: float

    @property
    def met_target(self) -> bool:
        return self.utilization <= self.target + 1e-9

    @property
    def total_area(self) -> float:
        """Hardware area with isomorphic custom instructions shared."""
        seen: dict[tuple, float] = {}
        extra = 0.0
        for ci in self.custom_instructions:
            if ci.structural_key and ci.structural_key in seen:
                continue
            if ci.structural_key:
                seen[ci.structural_key] = ci.area
            else:
                extra += ci.area
        return sum(seen.values()) + extra


def iterative_customization(
    programs: Sequence[Program],
    periods: Sequence[float],
    u_target: float = 1.0,
    max_inputs: int = 4,
    max_outputs: int = 2,
    model: HardwareCostModel = DEFAULT_COST_MODEL,
    path_weight_coverage: float = 0.9,
    max_iterations: int = 100,
    seed: int = 0,
    engine: str = "fast",
    use_cache: bool = True,
    workers: int | None = None,
) -> IterativeResult:
    """Run Algorithm 4 on a task set.

    Args:
        programs: the tasks' program models.
        periods: task periods aligned with *programs*.
        u_target: utilization target (1.0 = EDF schedulability boundary).
        max_inputs / max_outputs: register-port constraints.
        model: hardware cost model.
        path_weight_coverage: fraction of the WCET path weight whose blocks
            are considered for customization (thesis: "typically ... exceeds
            90%").
        max_iterations: safety cap on iterations.
        seed: MLGP seed.
        engine: MLGP engine (``"fast"`` or ``"reference"``); engines are
            bit-identical under a fixed seed.
        use_cache: memoize per-region MLGP results in :mod:`repro.cache`.
        workers: with > 1, precompute each iteration's candidate regions
            in that many parallel processes; the serial commit fold (and
            its delta early exit) is applied afterwards, so the result is
            identical to the serial flow.

    Returns:
        An :class:`IterativeResult` with the per-iteration utilization
        trajectory and every committed custom instruction.
    """
    check_engine(engine)
    start = time.perf_counter()
    states = [
        IterationState(program=p, period=per)
        for p, per in zip(programs, periods)
    ]
    cis: list[GeneratedCI] = []
    records: list[IterationRecord] = []
    utilization = sum(s.utilization() for s in states)

    with obs.span("mlgp.iterative", tasks=len(states), target=u_target) as top:
        for iteration in range(1, max_iterations + 1):
            if utilization <= u_target + 1e-9:
                break
            active = [s for s in states if s.active]
            if not active:
                break
            state = max(active, key=lambda s: s.utilization())
            delta = (utilization - u_target) * state.period
            with obs.span(
                "mlgp.iteration", task=state.program.name, iteration=iteration
            ):
                new_cis = _customize_task(
                    state,
                    delta,
                    max_inputs,
                    max_outputs,
                    model,
                    path_weight_coverage,
                    seed + iteration,
                    engine,
                    use_cache,
                    workers,
                )
            if new_cis:
                cis.extend(new_cis)
            else:
                state.active = False
            utilization = sum(s.utilization() for s in states)
            records.append(
                IterationRecord(
                    iteration=iteration,
                    task=state.program.name,
                    utilization=utilization,
                    new_cis=len(new_cis),
                    elapsed=time.perf_counter() - start,
                )
            )
        top.set(iterations=len(records), custom_instructions=len(cis))
    obs.inc("mlgp.iterations", len(records))
    obs.inc("mlgp.custom_instructions", len(cis))
    return IterativeResult(
        records=records,
        custom_instructions=cis,
        utilization=utilization,
        target=u_target,
    )


def _mlgp_job(
    args: tuple,
) -> MlgpResult:
    """Module-level worker so per-region MLGP jobs can be pickled."""
    dfg, region, max_inputs, max_outputs, model, seed, engine = args
    return mlgp_partition(
        dfg,
        region,
        max_inputs=max_inputs,
        max_outputs=max_outputs,
        model=model,
        seed=seed,
        engine=engine,
    )


def _customize_task(
    state: IterationState,
    delta: float,
    max_inputs: int,
    max_outputs: int,
    model: HardwareCostModel,
    coverage: float,
    seed: int,
    engine: str = "fast",
    use_cache: bool = True,
    workers: int | None = None,
) -> list[GeneratedCI]:
    """Generate custom instructions for one task until *delta* is reached."""
    program = state.program
    blocks = program.basic_blocks
    index = {id(b): i for i, b in enumerate(blocks)}
    path = program.wcet_path(state.block_cost())
    total = sum(w.cycles for w in path)
    chosen: list[tuple[int, float]] = []  # (block index, execution count)
    acc = 0.0
    for w in path:
        chosen.append((index[id(w.block)], w.count))
        acc += w.cycles
        if total > 0 and acc / total >= coverage:
            break

    # Candidate regions in the exact order the serial fold visits them.
    # With workers the whole list is precomputed in parallel (possibly
    # past the delta early-exit point — extra work, identical results);
    # without, a lazy generator keeps the original on-demand behaviour.
    work: list[tuple[int, float, int, frozenset[int] | tuple[int, ...]]] = []
    seen: set[tuple[int, int]] = set()
    for block_idx, count in chosen:
        dfg = blocks[block_idx].dfg
        for region_rank, region in enumerate(dfg.regions()):
            key = (block_idx, region_rank)
            if key in state.explored or key in seen or len(region) < 2:
                continue
            seen.add(key)
            work.append((block_idx, count, region_rank, region))
    jobs = [
        (blocks[b].dfg, region, max_inputs, max_outputs, model, seed, engine)
        for b, _count, _rank, region in work
    ]
    if workers is not None and workers > 1 and len(jobs) > 1:
        results = iter(parallel_map(_mlgp_job, jobs, workers, label="regions"))
    else:
        results = (
            mlgp_partition(
                blocks[b].dfg,
                region,
                max_inputs=max_inputs,
                max_outputs=max_outputs,
                model=model,
                seed=seed,
                engine=engine,
                use_cache=use_cache,
            )
            for b, _count, _rank, region in work
        )

    new_cis: list[GeneratedCI] = []
    gained_on_path = 0.0
    for (block_idx, count, region_rank, region), result in zip(work, results):
        dfg = blocks[block_idx].dfg
        state.explored.add((block_idx, region_rank))
        region_gain = 0.0
        for part, gain, area in zip(result.partitions, result.gains, result.areas):
            if gain <= 0:
                continue
            region_gain += gain
            new_cis.append(
                GeneratedCI(
                    task=program.name,
                    block_index=block_idx,
                    nodes=part,
                    gain=gain,
                    area=area,
                    structural_key=dfg.structural_key(part),
                )
            )
        if region_gain > 0:
            state.saved_by_block[block_idx] = (
                state.saved_by_block.get(block_idx, 0.0) + region_gain
            )
            gained_on_path += region_gain * count
        if gained_on_path >= delta:
            return new_cis
    return new_cis


@dataclass(frozen=True)
class ProfileStep:
    """Cumulative speedup/area reached at a point in analysis time."""

    elapsed: float
    speedup: float
    area: float


def mlgp_program_profile(
    program: Program,
    max_inputs: int = 4,
    max_outputs: int = 2,
    model: HardwareCostModel = DEFAULT_COST_MODEL,
    seed: int = 0,
    time_budget: float | None = None,
    engine: str = "fast",
    use_cache: bool = True,
    workers: int | None = None,
) -> list[ProfileStep]:
    """Average-case speedup-vs-analysis-time profile of MLGP on a program.

    Counterpart of the IS profile for thesis Figures 5.5/5.6: hot basic
    blocks (by execution-frequency weight) are processed in descending
    weight order; regions within a block in descending size; after every
    region the cumulative application speedup ``SW / HW`` and the cumulative
    hardware area are recorded.

    With ``workers`` > 1 every region is precomputed in parallel before
    the serial fold; the reported speedup/area sequence is identical, but
    ``elapsed`` reflects the parallel wall-clock and ``time_budget`` only
    truncates the fold, not the precompute.
    """
    check_engine(engine)
    with obs.span("mlgp.profile", program=program.name, engine=engine):
        return _mlgp_program_profile(
            program, max_inputs, max_outputs, model, seed, time_budget,
            engine, use_cache, workers,
        )


def _mlgp_program_profile(
    program: Program,
    max_inputs: int,
    max_outputs: int,
    model: HardwareCostModel,
    seed: int,
    time_budget: float | None,
    engine: str = "fast",
    use_cache: bool = True,
    workers: int | None = None,
) -> list[ProfileStep]:
    start = time.perf_counter()
    freq = program.profile()
    blocks = program.basic_blocks
    order = sorted(
        range(len(blocks)),
        key=lambda i: -(freq.get(i, 0.0) * blocks[i].dfg.sw_cycles()),
    )
    sw_total = sum(
        freq.get(i, 0.0) * blocks[i].dfg.sw_cycles() for i in range(len(blocks))
    )
    work = [
        (i, region)
        for i in order
        if freq.get(i, 0.0) > 0
        for region in blocks[i].dfg.regions()
        if len(region) >= 2
    ]
    if workers is not None and workers > 1 and len(work) > 1:
        jobs = [
            (blocks[i].dfg, region, max_inputs, max_outputs, model, seed,
             engine)
            for i, region in work
        ]
        results = iter(parallel_map(_mlgp_job, jobs, workers, label="regions"))
    else:
        results = (
            mlgp_partition(
                blocks[i].dfg,
                region,
                max_inputs=max_inputs,
                max_outputs=max_outputs,
                model=model,
                seed=seed,
                engine=engine,
                use_cache=use_cache,
            )
            for i, region in work
        )
    saved = 0.0
    area = 0.0
    steps: list[ProfileStep] = []
    for (i, _region), result in zip(work, results):
        if time_budget is not None and time.perf_counter() - start > time_budget:
            return steps
        gain = sum(g for g in result.gains if g > 0)
        if gain <= 0:
            continue
        saved += gain * freq[i]
        area += result.total_area
        speedup = sw_total / max(1.0, sw_total - saved)
        steps.append(
            ProfileStep(
                elapsed=time.perf_counter() - start,
                speedup=speedup,
                area=area,
            )
        )
    return steps
