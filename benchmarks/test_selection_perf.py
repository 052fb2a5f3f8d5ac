"""Design-space-exploration engine rows (fast vs reference, uncached),
written to ``benchmarks/results/BENCH_selection.json``:

* ``exact_utilization_curve`` — frontier merge vs the recursion-(4.2)
  DP over the full cost axis on a gate-scale 8-task x 12-option
  instance, timed by the ``pareto.exact`` spans (guard >= 3x);
* ``exact_workload_curve`` — the numpy staircase vs one point per cost
  index on Figure 4.4a's g721decode options; no span wraps it, so wall
  clock, best of 7 (guard >= 2x);
* ``simulate`` — the event-compressed simulator vs the release-by-release
  walk, EDF and RM, over two lcm-hyperperiod sets and a ``ch3_dse``-shaped
  set (4 tasks, ~1000x period spread, two periods of the longest task),
  timed by the ``validate.simulate`` spans (guard >= 2.5x);
* ``select_rms`` — the per-node vectorized RMS test vs the scalar
  per-configuration test (same tree, same answer), timed by the
  ``select.rms`` spans (guard: not slower).

Each row asserts identical answers, so the ratios always describe
equivalent computations.  The ``ch3_dse``-shaped simulations must also
run mostly in release trains (``sim.train_jobs`` vs ``sim.events``).
"""

from __future__ import annotations

import functools
import random

from benchmarks.common import EngineRow, assert_guards, emit_json, run_engine_rows
from benchmarks.test_ch4_pareto import intra_options
from repro import obs
from repro.core import select_rms
from repro.pareto import TaskCurve, exact_utilization_curve, exact_workload_curve
from repro.rtsched.simulator import simulate
from repro.testing import random_task_set


@functools.cache
def _gate_scale_curves(seed: int = 7) -> tuple[TaskCurve, ...]:
    """8 tasks x 12 options with realistic (hundreds-of-adders) areas.

    Large per-option areas blow up the reference DP's cost axis
    (cap = sum of per-task maxima) while the fast (frontier-merge) engine
    only ever holds the undominated partial frontier.
    """
    rng = random.Random(seed)
    curves = []
    for _ in range(8):
        period = float(rng.randint(2_000, 8_000))
        workloads = sorted(
            (float(rng.randint(200, 1_900)) for _ in range(12)), reverse=True
        )
        areas = [0] + sorted(rng.randint(20, 900) for _ in range(11))
        curves.append(
            TaskCurve(period=period, workloads=tuple(workloads), areas=tuple(areas))
        )
    return tuple(curves)


#: Simulation workloads, (periods, costs, horizon): two non-harmonic sets
#: (large lcm hyperperiods, simulated over one) and a ch3_dse-shaped set
#: (Table 3.1 sets span ~3000x in period) over two periods of the longest
#: task, as ``ch3_dse`` validates.
SIM_WORKLOADS = {
    "8task_lcm9240": (
        (8.0, 10.0, 12.0, 15.0, 20.0, 22.0, 28.0, 30.0),
        (1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 5.0, 5.0),
        None,
    ),
    "5task_lcm8400": (
        (7.0, 12.0, 16.0, 25.0, 30.0),
        (1.0, 3.0, 4.0, 6.0, 7.0),
        None,
    ),
    "ch3_4task_spread1000": (
        (1_000.0, 7_300.0, 91_000.0, 1_000_000.0),
        (300.0, 1_500.0, 9_000.0, 150_000.0),
        2_000_000.0,
    ),
}


def _simulations(engine: str) -> list[tuple]:
    out = []
    for periods, costs, horizon in SIM_WORKLOADS.values():
        for policy in ("edf", "rm"):
            r = simulate(
                list(periods), list(costs), policy=policy, horizon=horizon,
                engine=engine,
            )
            # Integral workloads: busy time and responses match exactly.
            out.append((r.schedulable, r.missed, r.busy_time, r.max_response))
    return out


def _inter(engine: str) -> list[tuple]:
    curve = exact_utilization_curve(list(_gate_scale_curves()), engine=engine)
    return [(p.value, p.cost) for p in curve]


@functools.cache
def _g721_options() -> tuple:
    return intra_options("g721decode")


def _intra(engine: str) -> list[tuple]:
    base, options = _g721_options()
    return [
        (p.value, p.cost)
        for p in exact_workload_curve(base, options, engine=engine)
    ]


@functools.cache
def _rms_instance():
    # A tight budget (30% of the maximum area) on a set just over U = 1:
    # every node runs the exact test and the area-aware bound prunes.
    ts = random_task_set(17, n_tasks=7, max_configs=12, utilization=1.1)
    return ts, 0.3 * ts.max_area


def _rms(engine: str):
    ts, budget = _rms_instance()
    return select_rms(ts, budget, engine=engine, use_cache=False)


ENGINE_ROWS = (
    EngineRow(
        exact_utilization_curve, _inter, "8tasks_x_12options_gate_scale",
        guard=3.0, spans=("pareto.exact",),
    ),
    EngineRow(
        exact_workload_curve, _intra, "figure_4_4a_g721decode_options",
        guard=2.0, repeats=7,
    ),
    EngineRow(
        simulate, _simulations, "lcm9240_lcm8400_ch3spread1000_edf_rm",
        guard=2.5, spans=("validate.simulate",), repeats=5,
    ),
    EngineRow(
        select_rms, _rms, "7tasks_x_12configs_u1.1_budget0.3",
        guard=1.0, spans=("select.rms",),
    ),
)


def _ch3_release_trains() -> dict:
    """Events and release-train jobs of the fast ch3-shaped simulations."""
    periods, costs, horizon = SIM_WORKLOADS["ch3_4task_spread1000"]
    out = {}
    for policy in ("edf", "rm"):
        before = obs.metrics_snapshot()["counters"]
        simulate(list(periods), list(costs), policy=policy, horizon=horizon)
        after = obs.metrics_snapshot()["counters"]
        out[policy] = {
            name: after.get(name, 0) - before.get(name, 0)
            for name in ("sim.events", "sim.train_jobs")
        }
    return out


def test_selection_pipeline_speed():
    _gate_scale_curves(), _g721_options(), _rms_instance()  # built untimed
    payload = {
        "engine_rows": run_engine_rows(ENGINE_ROWS),
        "ch3_simulation": _ch3_release_trains(),
    }
    emit_json("BENCH_selection", payload)
    assert_guards(payload["engine_rows"])
    for counts in payload["ch3_simulation"].values():
        assert counts["sim.train_jobs"] > 0.4 * counts["sim.events"], counts
