"""Design-space-exploration speed harness (PR 2 perf trajectory).

Times the fast engines introduced for the chapter 4-7 pipeline against the
scalar oracles they retain:

* ``inter_pareto``   — the frontier-merge exact utilization-area curve vs
  the recursion-(4.2) DP over the full cost axis, on a gate-scale 8-task
  x 12-option instance;
* ``simulation``     — the event-compressed scheduler simulator vs the
  release-by-release reference over one hyperperiod, EDF and RM, plus a
  ``ch3_dse``-shaped set (4 tasks, ~1000x period spread, two periods of
  the longest task) where most jobs resolve inside release trains;
* ``rms_selection``  — the RMS branch-and-bound's per-node vectorized
  test vs the scalar per-configuration test (same tree, same answer).

Each comparison also asserts bit-identical results (same curves, same
verdicts, same assignments) so the speed numbers always describe
equivalent computations.  Speedups and timings are written to
``benchmarks/results/BENCH_selection.json``.
"""

from __future__ import annotations

import math
import random
import time

from benchmarks.common import emit_json
from repro import cache, obs
from repro.core import select_rms
from repro.pareto import TaskCurve, exact_utilization_curve
from repro.rtsched.simulator import simulate
from repro.testing import random_task_set


def _gate_scale_curves(seed: int = 7) -> list[TaskCurve]:
    """8 tasks x 12 options with realistic (hundreds-of-adders) areas.

    Large per-option areas blow up the reference DP's cost axis
    (cap = sum of per-task maxima) while the fast (frontier-merge) engine
    only ever holds
    the undominated partial frontier.
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
    return curves


#: Simulation workloads: non-harmonic periods -> large lcm hyperperiods.
SIM_WORKLOADS = {
    "8task_lcm9240": (
        (8.0, 10.0, 12.0, 15.0, 20.0, 22.0, 28.0, 30.0),
        (1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 5.0, 5.0),
    ),
    "5task_lcm8400": (
        (7.0, 12.0, 16.0, 25.0, 30.0),
        (1.0, 3.0, 4.0, 6.0, 7.0),
    ),
}
#: A ch3_dse-shaped set (Table 3.1 sets span ~3000x in period): simulated
#: over two periods of the longest task, as ``ch3_dse`` validates.
CH3_SIM_WORKLOAD = (
    (1_000.0, 7_300.0, 91_000.0, 1_000_000.0),
    (300.0, 1_500.0, 9_000.0, 150_000.0),
)


def _best_of(fn, repeats: int = 3) -> tuple[float, object]:
    """Minimum wall-clock over *repeats* runs (and the last result)."""
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _ratio(a: float, b: float) -> float:
    return round(a / b, 2) if b > 0 else math.inf


def _bench_inter_pareto() -> dict:
    curves = _gate_scale_curves()
    t_ref, ref = _best_of(
        lambda: exact_utilization_curve(curves, engine="reference", use_cache=False),
        repeats=1,
    )
    t_fast, fast = _best_of(
        lambda: exact_utilization_curve(curves, engine="fast", use_cache=False)
    )
    assert [(p.value, p.cost) for p in fast] == [(p.value, p.cost) for p in ref]
    return {
        "instance": "8tasks_x_12options_gate_scale",
        "curve_points": len(fast),
        "reference_seconds": round(t_ref, 4),
        "fast_seconds": round(t_fast, 4),
        "speedup": _ratio(t_ref, t_fast),
    }


def _counter(name: str) -> float:
    return obs.metrics_snapshot()["counters"].get(name, 0)


def _bench_simulation() -> dict:
    rows = {}
    workloads = [(label, p, c, None) for label, (p, c) in SIM_WORKLOADS.items()]
    periods, costs = CH3_SIM_WORKLOAD
    workloads.append(("ch3_4task_spread1000", periods, costs, 2.0 * max(periods)))
    for label, periods, costs, horizon in workloads:
        for policy in ("edf", "rm"):
            t_ref, ref = _best_of(
                lambda p=periods, c=costs, pol=policy, h=horizon: simulate(
                    list(p), list(c), policy=pol, horizon=h, engine="reference"
                ),
                repeats=1,
            )
            events0, trains0 = _counter("sim.events"), _counter("sim.train_jobs")
            t_fast, fast = _best_of(
                lambda p=periods, c=costs, pol=policy, h=horizon: simulate(
                    list(p), list(c), policy=pol, horizon=h
                ),
                repeats=5,
            )
            # Integral workloads: busy time and responses match exactly too.
            assert (fast.schedulable, fast.missed, fast.busy_time) == (
                ref.schedulable,
                ref.missed,
                ref.busy_time,
            )
            assert fast.max_response == ref.max_response
            rows[f"{label}_{policy}"] = {
                "horizon": ref.horizon,
                "schedulable": ref.schedulable,
                "events": (_counter("sim.events") - events0) / 5,
                "train_jobs": (_counter("sim.train_jobs") - trains0) / 5,
                "reference_seconds": round(t_ref, 4),
                "fast_seconds": round(t_fast, 4),
                "speedup": _ratio(t_ref, t_fast),
            }
    return rows


def _bench_rms_selection() -> dict:
    # A tight budget (30% of the maximum area) on a set just over U = 1:
    # every node runs the exact test and the area-aware bound prunes.
    ts = random_task_set(17, n_tasks=7, max_configs=12, utilization=1.1)
    budget = 0.3 * ts.max_area
    t_ref, ref = _best_of(
        lambda: select_rms(ts, budget, engine="reference", use_cache=False)
    )
    pruned0 = _counter("selection.rms.area_pruned")
    t_fast, fast = _best_of(
        lambda: select_rms(ts, budget, engine="fast", use_cache=False)
    )
    assert fast == ref  # same assignment, utilization, area and tree
    return {
        "instance": "7tasks_x_12configs_u1.1_budget0.3",
        "nodes_visited": fast.nodes_visited,
        "area_pruned": (_counter("selection.rms.area_pruned") - pruned0) / 3,
        "reference_seconds": round(t_ref, 4),
        "fast_seconds": round(t_fast, 4),
        "speedup": _ratio(t_ref, t_fast),
    }


def test_selection_pipeline_speed(benchmark):
    cache.clear()

    def run() -> dict:
        return {
            "inter_pareto": _bench_inter_pareto(),
            "simulation": _bench_simulation(),
            "rms_selection": _bench_rms_selection(),
        }

    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    sim_speedups = {k: v["speedup"] for k, v in payload["simulation"].items()}
    lcm_speedups = [
        v for k, v in sim_speedups.items() if not k.startswith("ch3_")
    ]
    payload["speedups"] = {
        "inter_pareto_fast_vs_reference": payload["inter_pareto"]["speedup"],
        "simulation_fast_vs_reference": sim_speedups,
        "simulation_fast_vs_reference_best": max(lcm_speedups),
        "rms_selection_fast_vs_reference": payload["rms_selection"]["speedup"],
    }
    emit_json("BENCH_selection", payload)

    # Acceptance: merge-based inter-task Pareto ≥3x over the full-axis DP
    # (headline ~30-40x) and the event-compressed simulator ≥3x over the
    # release-by-release engine on lcm-hyperperiod workloads (headline
    # ~4-5x).  Assert with margin so CI noise cannot flake the build.
    assert payload["speedups"]["inter_pareto_fast_vs_reference"] >= 3.0
    assert payload["speedups"]["simulation_fast_vs_reference_best"] >= 2.5
    # The per-node vectorized RMS test must not be slower than the
    # scalar oracle (headline ~5x).
    assert payload["speedups"]["rms_selection_fast_vs_reference"] >= 1.0
    # The ch3-shaped simulation must actually run in release trains.
    ch3_rows = [
        v for k, v in payload["simulation"].items()
        if k.startswith("ch3_")
    ]
    assert all(row["train_jobs"] > 0.4 * row["events"] for row in ch3_rows)
