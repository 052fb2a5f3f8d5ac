"""Discrete-event preemptive uniprocessor scheduler simulator.

Independent validation substrate for the analytic schedulability tests: jobs
of periodic tasks are released every period, run under preemptive EDF or
fixed-priority rate-monotonic scheduling, and deadline misses are recorded.
Simulating one hyperperiod starting from the synchronous release (the
critical instant) is exact for both policies with deadline = period.

Two engines share the semantics:

* ``engine="fast"`` (default) — event-compressed: idle spans jump straight
  to the next release, simultaneous releases are batched, and the running
  job executes in a single span up to its completion or the first
  *preempting* release (computed analytically from the period structure)
  instead of being re-queued at every release.  ``stop_on_first_miss=True``
  additionally abandons the horizon at the first recorded deadline miss.
* ``engine="reference"`` — the original release-by-release simulator, kept
  as a differential oracle (see ``tests/test_simulator_properties.py``).

Fault injection (``faults=``, a :class:`repro.faults.model.FaultModel`)
perturbs per-job demands — CFU-unavailable fallback to the base-ISA cost,
WCET overruns, reconfiguration jitter — identically in both engines.  The
``containment`` policy decides what the scheduler does with a job whose
demand exceeds its analyzed budget:

* ``"run-to-completion"`` (default) — the job runs its full demand; the
  overrun propagates as interference and shows up as deadline misses.
* ``"abort-job"`` — the job is killed once it has consumed its budget; it
  never completes (recorded in ``SimulationResult.aborted``, plus a miss
  if even the truncated job finishes past its deadline).
* ``"fallback-to-base"`` — demand is capped at the task's base-ISA cost:
  the runtime abandons the custom-instruction path rather than running
  arbitrarily long.

Injecting an **empty** fault model takes the exact same code path as no
injection at all, so the results are bit-identical (property-tested in
``tests/test_faults.py``).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro.engines import check_engine
from repro.errors import ScheduleError
from repro.rtsched.task import TaskSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> here)
    from repro.faults.model import FaultModel

__all__ = ["FaultStats", "SimulationResult", "simulate", "simulate_taskset"]

EPS = 1e-9
_INF = float("inf")

#: Containment policies for jobs whose injected demand exceeds the budget
#: (kept in sync with :data:`repro.faults.model.CONTAINMENT_POLICIES`).
_CONTAINMENTS = ("run-to-completion", "abort-job", "fallback-to-base")


@dataclass
class FaultStats:
    """Per-run accounting of injected faults and containment actions.

    Attributes:
        jobs: jobs resolved through the fault model.
        faulted: jobs with at least one fault effect applied.
        overruns: jobs that drew a WCET overrun.
        cfu_fallbacks: jobs that ran at base-ISA cost (CFU unavailable).
        jittered: jobs delayed by reconfiguration jitter.
        contained: jobs capped or aborted by the containment policy.
        excess_demand: total injected demand beyond the analyzed budgets
            (after containment).
    """

    jobs: int = 0
    faulted: int = 0
    overruns: int = 0
    cfu_fallbacks: int = 0
    jittered: int = 0
    contained: int = 0
    excess_demand: float = 0.0


@dataclass
class SimulationResult:
    """Outcome of a scheduling simulation.

    Attributes:
        schedulable: True if no job missed its deadline.
        missed: (task_index, release_time) of each deadline miss.
        busy_time: total processor busy time in the horizon.
        horizon: simulated time span.
        max_response: worst observed response time per task (completed
            jobs only; 0.0 for tasks whose jobs never completed).
        aborted: (task_index, release_time) of each job killed by the
            ``abort-job`` containment policy (empty without injection).
        fault_stats: injection/containment accounting, or None when the
            run injected nothing.
    """

    schedulable: bool
    missed: list[tuple[int, float]] = field(default_factory=list)
    busy_time: float = 0.0
    horizon: float = 0.0
    max_response: list[float] = field(default_factory=list)
    aborted: list[tuple[int, float]] = field(default_factory=list)
    fault_stats: FaultStats | None = None

    @property
    def observed_utilization(self) -> float:
        return self.busy_time / self.horizon if self.horizon > 0 else 0.0


@dataclass(order=True)
class _Job:
    key: tuple
    task: int = field(compare=False)
    release: float = field(compare=False)
    deadline: float = field(compare=False)
    remaining: float = field(compare=False)


def _default_horizon(periods: Sequence[float]) -> float:
    if all(abs(p - round(p)) < EPS for p in periods):
        h = 1
        for p in periods:
            h = math.lcm(h, max(1, round(p)))
        return float(h)
    return 20.0 * max(periods)


def simulate(
    periods: Sequence[float],
    costs: Sequence[float],
    policy: str = "edf",
    horizon: float | None = None,
    engine: str = "fast",
    stop_on_first_miss: bool = False,
    faults: "FaultModel | None" = None,
    containment: str = "run-to-completion",
    base_costs: Sequence[float] | None = None,
) -> SimulationResult:
    """Simulate periodic tasks under EDF or RM.

    Args:
        periods: task periods (deadline = period); all released at time 0.
        costs: execution requirements aligned with *periods*.
        policy: ``"edf"`` (dynamic deadline priority) or ``"rm"`` (static
            shortest-period priority).
        horizon: simulated span; defaults to the hyperperiod for integral
            periods, otherwise ``20 x max period``.
        engine: ``"fast"`` (event-compressed; default) or ``"reference"`` (the
            original release-by-release oracle).
        stop_on_first_miss: abandon the horizon at the first recorded miss
            (the result then carries that single miss and ``horizon`` is
            the simulated span up to it).
        faults: optional :class:`repro.faults.model.FaultModel` perturbing
            per-job demands; an empty model is bit-identical to None.
        containment: policy for jobs whose demand exceeds the budget —
            ``"run-to-completion"``, ``"abort-job"`` or
            ``"fallback-to-base"`` (see the module docstring).
        base_costs: base-ISA (software) execution times aligned with
            *periods*, used by CFU-unavailable faults and the
            fallback-to-base cap; defaults to *costs* (no distinct
            software path, so CFU faults are no-ops).

    Returns:
        A :class:`SimulationResult`.
    """
    n = len(periods)
    if n == 0 or len(costs) != n:
        raise ScheduleError("periods and costs must be non-empty and aligned")
    if policy not in ("edf", "rm"):
        raise ScheduleError(f"unknown policy {policy!r}; use 'edf' or 'rm'")
    check_engine(engine)
    if containment not in _CONTAINMENTS:
        raise ScheduleError(
            f"unknown containment {containment!r}; use one of {_CONTAINMENTS}"
        )
    if faults is not None and faults.empty:
        faults = None  # inert by construction; take the untouched path
    if faults is not None:
        if any(t >= n for t in faults.cfu_failed):
            raise ScheduleError("fault model names a task index out of range")
        if base_costs is None:
            base_costs = costs
        elif len(base_costs) != n:
            raise ScheduleError("base_costs must align with periods")
    if horizon is None:
        horizon = _default_horizon(periods)
    with obs.span("validate.simulate", policy=policy, engine=engine, tasks=n):
        if engine == "reference":
            return _simulate_reference(
                periods, costs, policy, horizon, stop_on_first_miss,
                faults, containment, base_costs,
            )
        return _simulate_event(
            periods, costs, policy, horizon, stop_on_first_miss,
            faults, containment, base_costs,
        )


def _flush_sim_counters(
    events: int,
    preemptions: int,
    stats: FaultStats | None,
    missed: list[tuple[int, float]],
    train_jobs: int = 0,
) -> None:
    """Fold one run's locally-accumulated counters into the obs registry.

    The engines keep plain ints in their hot loops and flush once per run,
    so the per-event cost of instrumentation is zero.  ``train_jobs``
    counts the jobs the event engine resolved inside a release train.
    """
    obs.inc("sim.runs")
    obs.inc("sim.events", events)
    obs.inc("sim.preemptions", preemptions)
    obs.inc("sim.train_jobs", train_jobs)
    obs.inc("sim.misses", len(missed))
    if stats is not None:
        obs.inc("faults.jobs", stats.jobs)
        obs.inc("faults.faulted", stats.faulted)
        obs.inc("faults.overruns", stats.overruns)
        obs.inc("faults.cfu_fallbacks", stats.cfu_fallbacks)
        obs.inc("faults.jittered", stats.jittered)
        obs.inc("faults.contained", stats.contained)


def _inject_job(
    faults: "FaultModel",
    containment: str,
    task: int,
    job: int,
    nominal: float,
    base: float,
    release: float,
    abort_keys: set[tuple[int, float]],
    stats: FaultStats,
) -> float:
    """Resolve one job through the fault model + containment policy.

    Returns the demand the simulator should charge; under ``abort-job`` a
    demand above budget is truncated to the budget and the job is marked
    in *abort_keys* so its completion is recorded as an abort.
    """
    jf = faults.job_fault(task, job, nominal, base)
    stats.jobs += 1
    if jf.cfu_failed:
        stats.cfu_fallbacks += 1
    if jf.overrun:
        stats.overruns += 1
    if jf.jitter > 0.0:
        stats.jittered += 1
    if jf.faulted:
        stats.faulted += 1
    demand = jf.demand
    if containment == "fallback-to-base":
        cap = base if base > jf.budget else jf.budget
        if demand > cap:
            demand = cap
            stats.contained += 1
    elif containment == "abort-job" and demand > jf.budget + EPS:
        demand = jf.budget
        abort_keys.add((task, release))
        stats.contained += 1
    stats.excess_demand += demand - jf.budget
    return demand


def _simulate_event(
    periods: Sequence[float],
    costs: Sequence[float],
    policy: str,
    horizon: float,
    stop_on_first_miss: bool,
    faults: "FaultModel | None" = None,
    containment: str = "run-to-completion",
    base_costs: Sequence[float] | None = None,
) -> SimulationResult:
    """Event-compressed engine: the running job advances in one span to its
    completion or the first preempting release; idle gaps jump to the next
    release; simultaneous releases enter the queue in one batch; release
    trains are replayed without heap traffic (see ``replay_train``)."""
    n = len(periods)
    edf = policy == "edf"
    rm_rank = [0] * n
    by_rank: list[int] = sorted(range(n), key=lambda i: periods[i])
    if not edf:
        for r, task in enumerate(by_rank):
            rm_rank[task] = r

    push = heapq.heappush
    pop = heapq.heappop
    # Heap entries are plain tuples (key..., release, remaining); the key
    # prefix reproduces the reference priority order exactly.
    ready: list[tuple] = []
    # Pending-release min-heap (release, task): O(1) next-release queries
    # so completion events that coincide with no release skip the task scan.
    next_release = [0.0] * n
    release_cap = horizon - EPS
    rel_heap: list[tuple[float, int]] = (
        [(0.0, i) for i in range(n)] if release_cap > 0 else []
    )
    time = 0.0
    busy = 0.0
    events = 0
    preemptions = 0
    train_jobs = 0
    missed: list[tuple[int, float]] = []
    max_response = [0.0] * n
    # Fault-injection state (inert when faults is None: job demands are the
    # untouched cost floats, abort_keys stays empty, stats stays None).
    stats = FaultStats() if faults is not None else None
    aborted: list[tuple[int, float]] = []
    abort_keys: set[tuple[int, float]] = set()
    release_idx = [0] * n
    # Trains charge every job its nominal cost, so injected runs (whose
    # demands come from the fault model) take the generic path throughout.
    trains = faults is None

    def push_due(now: float) -> None:
        bound = now + EPS
        while rel_heap and rel_heap[0][0] <= bound:
            r, i = pop(rel_heap)
            p = periods[i]
            if faults is not None:
                k = release_idx[i]
                release_idx[i] = k + 1
                demand = _inject_job(
                    faults, containment, i, k, costs[i], base_costs[i],
                    r, abort_keys, stats,
                )
            else:
                demand = costs[i]
            if edf:
                push(ready, (r + p, i, r, demand))
            else:
                push(ready, (rm_rank[i], r + p, i, r, demand))
            r += p
            next_release[i] = r
            if r < release_cap:
                push(rel_heap, (r, i))

    def replay_train(
        time: float, remaining: float, deadline: float, task: int
    ) -> tuple[float, float]:
        """Replay the release train at the top of the release heap.

        A round of a train is one job of the task ``q`` that owns the
        earliest pending release: that release is the only one due at its
        instant, it preempts the running job ``task`` (``task < 0``: the CPU
        is idle), and the job completes on time, inside the horizon and
        before any other release.  Rounds repeat while that holds.  Each
        round does the generic loop's float operations in the same order,
        so results are identical; only the ready/release heap round trips
        are skipped.  Returns the new ``(time, remaining)`` of the running
        job, unchanged when no round qualified.
        """
        nonlocal busy, events, preemptions, train_jobs
        r, q = rel_heap[0]
        running = task >= 0
        if running and not edf and rm_rank[q] >= rm_rank[task]:
            return time, remaining
        # Only q's release moves during a train, so the other pending
        # releases' minimum (a child of the heap root) stays fixed.
        size = len(rel_heap)
        other = rel_heap[1][0] if size > 1 else _INF
        if size > 2 and rel_heap[2][0] < other:
            other = rel_heap[2][0]
        p = periods[q]
        c = costs[q]
        b = busy
        resp = max_response[q]
        jobs = 0
        while other > r + EPS:
            if running and r >= time + remaining:
                break
            nxt = r + p  # q's deadline, and its next release
            if running and edf and not (
                nxt < deadline or (nxt == deadline and q < task)
            ):
                break
            fin = r + c
            bound = fin + EPS
            # Finishing before q's next release (its deadline) is on time.
            if (
                fin >= release_cap
                or other <= bound
                or (nxt <= bound and nxt < release_cap)
            ):
                break
            if running:
                run = r - time
                b += run
                remaining -= run
            b += c
            time = fin
            if fin - r > resp:
                resp = fin - r
            jobs += 1
            r = nxt
            if r >= release_cap:
                break
        if jobs:
            next_release[q] = r
            if r < release_cap:
                heapq.heapreplace(rel_heap, (r, q))
            else:
                pop(rel_heap)
            busy = b
            max_response[q] = resp
            train_jobs += jobs
            if running:
                events += 2 * jobs
                preemptions += jobs
            else:
                events += jobs
        return time, remaining

    push_due(0.0)
    while time < horizon - EPS:
        if not ready:
            if trains and rel_heap:
                time = replay_train(time, 0.0, 0.0, -1)[0]
            # Idle: skip straight to the next release (or the horizon).
            if not rel_heap:
                time = horizon
                break
            time = min(rel_heap[0][0], horizon)
            push_due(time)
            continue
        job = pop(ready)
        events += 1
        if edf:
            deadline, task, release, remaining = job
        else:
            _rank, deadline, task, release, remaining = job
        if trains and rel_heap and rel_heap[0][0] < time + remaining:
            time, remaining = replay_train(time, remaining, deadline, task)
        finish = time + remaining
        # Earliest release that preempts this job.  Under RM only a
        # higher-rank task preempts; under EDF a release at r preempts iff
        # its deadline tuple (r + P_i, i) precedes the running job's.  The
        # earliest pending release answers it outright when it preempts.
        t_pre = _INF
        if rel_heap and rel_heap[0][0] < finish:
            r, i = rel_heap[0]
            if edf:
                d_new = r + periods[i]
                if d_new < deadline or (d_new == deadline and i < task):
                    t_pre = r
                else:
                    for i in range(n):
                        r = next_release[i]
                        if r >= finish or r >= release_cap or r >= t_pre:
                            continue
                        d_new = r + periods[i]
                        if d_new < deadline or (d_new == deadline and i < task):
                            t_pre = r
            elif rm_rank[i] < _rank:
                t_pre = r
            else:
                # Only strictly higher-rank tasks preempt; scan rank order.
                for rank in range(_rank):
                    r = next_release[by_rank[rank]]
                    if r < t_pre and r < release_cap:
                        t_pre = r
        if t_pre < finish:
            # Preempted: bank the span, requeue the remainder, take the batch.
            preemptions += 1
            run = t_pre - time
            busy += run
            time = t_pre
            if edf:
                push(ready, (deadline, task, release, remaining - run))
            else:
                push(ready, (_rank, deadline, task, release, remaining - run))
            push_due(time)
            continue
        if finish > horizon:
            # The horizon cuts the span; the job stays pending for the
            # end-of-horizon miss accounting below.
            run = horizon - time
            busy += run
            time = horizon
            if edf:
                push(ready, (deadline, task, release, remaining - run))
            else:
                push(ready, (_rank, deadline, task, release, remaining - run))
            break
        busy += remaining
        time = finish
        if abort_keys and (task, release) in abort_keys:
            # The containment policy killed this job at budget exhaustion:
            # it consumed its budget but never completed (no response).
            abort_keys.discard((task, release))
            aborted.append((task, release))
        else:
            response = time - release
            if response > max_response[task]:
                max_response[task] = response
        if time > deadline + EPS:
            missed.append((task, release))
            if stop_on_first_miss:
                missed.sort()
                aborted.sort()
                _flush_sim_counters(events, preemptions, stats, missed, train_jobs)
                return SimulationResult(
                    schedulable=False,
                    missed=missed,
                    busy_time=busy,
                    horizon=time,
                    max_response=max_response,
                    aborted=aborted,
                    fault_stats=stats,
                )
        if rel_heap and rel_heap[0][0] <= time + EPS:
            push_due(time)

    # Jobs released during the final running span were never queued; flush
    # them so the end-of-horizon accounting sees every released job.
    push_due(horizon)
    # Unfinished jobs whose deadline lies within the horizon are misses.
    for job in ready:
        remaining = job[-1]
        deadline = job[0] if edf else job[1]
        task = job[1] if edf else job[2]
        release = job[-2]
        if remaining > EPS and deadline <= horizon + EPS:
            missed.append((task, release))
    missed.sort()
    aborted.sort()
    _flush_sim_counters(events, preemptions, stats, missed, train_jobs)
    return SimulationResult(
        schedulable=not missed,
        missed=missed,
        busy_time=busy,
        horizon=horizon,
        max_response=max_response,
        aborted=aborted,
        fault_stats=stats,
    )


def _simulate_reference(
    periods: Sequence[float],
    costs: Sequence[float],
    policy: str,
    horizon: float,
    stop_on_first_miss: bool = False,
    faults: "FaultModel | None" = None,
    containment: str = "run-to-completion",
    base_costs: Sequence[float] | None = None,
) -> SimulationResult:
    """The original release-by-release simulator (differential oracle)."""
    n = len(periods)

    # Static RM priorities: shorter period = higher priority (lower number).
    rm_priority = sorted(range(n), key=lambda i: periods[i])
    rm_rank = {task: r for r, task in enumerate(rm_priority)}

    def job_key(task: int, deadline: float) -> tuple:
        if policy == "edf":
            return (deadline, task)
        return (rm_rank[task], deadline, task)

    ready: list[_Job] = []
    next_release = [0.0] * n
    time = 0.0
    busy = 0.0
    events = 0
    preemptions = 0
    missed: list[tuple[int, float]] = []
    max_response = [0.0] * n
    stats = FaultStats() if faults is not None else None
    aborted: list[tuple[int, float]] = []
    abort_keys: set[tuple[int, float]] = set()
    release_idx = [0] * n

    def release_due(now: float) -> None:
        for i in range(n):
            while next_release[i] <= now + EPS and next_release[i] < horizon - EPS:
                r = next_release[i]
                if faults is not None:
                    k = release_idx[i]
                    release_idx[i] = k + 1
                    demand = _inject_job(
                        faults, containment, i, k, costs[i], base_costs[i],
                        r, abort_keys, stats,
                    )
                else:
                    demand = costs[i]
                heapq.heappush(
                    ready,
                    _Job(
                        key=job_key(i, r + periods[i]),
                        task=i,
                        release=r,
                        deadline=r + periods[i],
                        remaining=demand,
                    ),
                )
                next_release[i] = r + periods[i]

    release_due(0.0)
    while time < horizon - EPS:
        upcoming = min(
            (next_release[i] for i in range(n) if next_release[i] < horizon - EPS),
            default=horizon,
        )
        if not ready:
            # Idle until the next release.
            time = min(upcoming, horizon)
            release_due(time)
            continue
        job = heapq.heappop(ready)
        # Run the job until it finishes or the next release preempts it.
        run = min(job.remaining, max(0.0, upcoming - time))
        if run <= EPS and job.remaining > EPS:
            # A release occurs right now; take it into the queue first.
            heapq.heappush(ready, job)
            release_due(upcoming)
            time = upcoming
            continue
        time += run
        busy += run
        job.remaining -= run
        events += 1
        if job.remaining <= EPS:
            if abort_keys and (job.task, job.release) in abort_keys:
                abort_keys.discard((job.task, job.release))
                aborted.append((job.task, job.release))
            else:
                max_response[job.task] = max(
                    max_response[job.task], time - job.release
                )
            if time > job.deadline + EPS:
                missed.append((job.task, job.release))
                if stop_on_first_miss:
                    missed.sort()
                    aborted.sort()
                    _flush_sim_counters(events, preemptions, stats, missed)
                    return SimulationResult(
                        schedulable=False,
                        missed=missed,
                        busy_time=busy,
                        horizon=time,
                        max_response=max_response,
                        aborted=aborted,
                        fault_stats=stats,
                    )
        else:
            preemptions += 1
            heapq.heappush(ready, job)
        release_due(time)

    # Unfinished jobs whose deadline lies within the horizon are misses.
    for job in ready:
        if job.remaining > EPS and job.deadline <= horizon + EPS:
            missed.append((job.task, job.release))
    missed.sort()
    aborted.sort()
    _flush_sim_counters(events, preemptions, stats, missed)
    return SimulationResult(
        schedulable=not missed,
        missed=missed,
        busy_time=busy,
        horizon=horizon,
        max_response=max_response,
        aborted=aborted,
        fault_stats=stats,
    )


def simulate_taskset(
    task_set: TaskSet,
    assignment: Sequence[int] | None = None,
    policy: str = "edf",
    horizon: float | None = None,
    engine: str = "fast",
    stop_on_first_miss: bool = False,
    faults: "FaultModel | None" = None,
    containment: str = "run-to-completion",
) -> SimulationResult:
    """Simulate a :class:`TaskSet` under a configuration assignment.

    When *faults* is given, CFU-unavailable faults fall each affected
    task's jobs back to its configuration-0 (software) cost.
    """
    tasks = task_set.tasks
    if assignment is None:
        costs = [t.wcet for t in tasks]
    else:
        costs = [t.configurations[j].cycles for t, j in zip(tasks, assignment)]
    return simulate(
        [t.period for t in tasks],
        costs,
        policy=policy,
        horizon=horizon,
        engine=engine,
        stop_on_first_miss=stop_on_first_miss,
        faults=faults,
        containment=containment,
        base_costs=[t.configurations[0].cycles for t in tasks],
    )
