"""Property tests tying the scheduler simulator to the analytic tests.

Simulating one hyperperiod from the synchronous release (the critical
instant) is exact for preemptive EDF and RM with deadline = period, so on
randomized integral task sets the simulator verdict must agree with:

* EDF — the utilization bound ``U <= 1`` (exact for implicit deadlines)
  and the processor-demand test of :mod:`repro.rtsched.dbf`;
* RM — the exact Bini-Buttazzo point test of :mod:`repro.rtsched.rms` and
  response-time analysis of :mod:`repro.rtsched.response_time`.

The event-compressed engine is additionally checked against the retained
release-by-release reference engine field by field.  Workloads stay
integral so both engines accumulate exactly representable floats.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtsched.dbf import edf_constrained_schedulable
from repro.rtsched.response_time import rta_schedulable
from repro.rtsched.rms import rms_schedulable_costs
from repro.rtsched.simulator import simulate

PERIOD_CHOICES = (2, 3, 4, 5, 6, 8, 10, 12, 15, 20)


@st.composite
def task_sets(draw, max_tasks: int = 5):
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    periods = [float(draw(st.sampled_from(PERIOD_CHOICES))) for _ in range(n)]
    costs = [
        float(draw(st.integers(min_value=1, max_value=max(1, int(p)))))
        for p in periods
    ]
    return periods, costs


def _hyperperiod(periods):
    h = 1
    for p in periods:
        h = math.lcm(h, round(p))
    return float(h)


@settings(max_examples=150, deadline=None)
@given(task_sets())
def test_edf_simulation_matches_analysis(ts):
    periods, costs = ts
    utilization = sum(c / p for c, p in zip(costs, periods))
    analytic = utilization <= 1.0 + 1e-9
    sim = simulate(periods, costs, policy="edf", horizon=_hyperperiod(periods))
    assert sim.schedulable == analytic
    # The demand-bound test must agree with the utilization bound here
    # (implicit deadlines) and hence with the simulator.
    assert edf_constrained_schedulable(periods, costs) == analytic


@settings(max_examples=150, deadline=None)
@given(task_sets())
def test_rms_simulation_matches_analysis(ts):
    periods, costs = ts
    sim = simulate(periods, costs, policy="rm", horizon=_hyperperiod(periods))
    assert sim.schedulable == rms_schedulable_costs(periods, costs)
    assert sim.schedulable == rta_schedulable(periods, costs)


@st.composite
def wide_task_sets(draw, max_tasks: int = 5):
    """Integral sets whose periods spread up to ~500x at utilization
    0.3-1.3: the event engine spends most of a run in long release trains
    of the shortest-period task."""
    n = draw(st.integers(min_value=2, max_value=max_tasks))
    p_min = draw(st.integers(min_value=2, max_value=8))
    p_max = p_min * draw(st.integers(min_value=2, max_value=500))
    periods = [
        float(p_min),
        float(p_max),
        *(float(draw(st.integers(p_min, p_max))) for _ in range(n - 2)),
    ]
    utilization = draw(st.floats(min_value=0.3, max_value=1.3))
    weights = [draw(st.integers(min_value=1, max_value=10)) for _ in range(n)]
    costs = [
        float(max(1, round(utilization * w / sum(weights) * p)))
        for w, p in zip(weights, periods)
    ]
    return periods, costs


def _assert_same_result(fast, ref):
    # Integral workloads accumulate exactly, so every field matches.
    assert fast.schedulable == ref.schedulable
    assert fast.missed == ref.missed
    assert fast.horizon == ref.horizon
    assert fast.busy_time == ref.busy_time
    assert fast.max_response == ref.max_response
    assert fast.aborted == ref.aborted
    assert fast.fault_stats == ref.fault_stats


@settings(max_examples=150, deadline=None)
@given(task_sets(), st.sampled_from(["edf", "rm"]))
def test_event_engine_matches_reference(ts, policy):
    periods, costs = ts
    fast = simulate(periods, costs, policy=policy)
    ref = simulate(periods, costs, policy=policy, engine="reference")
    _assert_same_result(fast, ref)


@settings(max_examples=60, deadline=None)
@given(wide_task_sets(), st.sampled_from(["edf", "rm"]), st.booleans())
def test_event_engine_matches_reference_on_wide_spread(ts, policy, stop):
    periods, costs = ts
    kw = {"policy": policy, "horizon": 2.0 * max(periods), "stop_on_first_miss": stop}
    fast = simulate(periods, costs, **kw)
    ref = simulate(periods, costs, engine="reference", **kw)
    _assert_same_result(fast, ref)


@settings(max_examples=80, deadline=None)
@given(task_sets(), st.sampled_from(["edf", "rm"]))
def test_stop_on_first_miss_consistent(ts, policy):
    periods, costs = ts
    full = simulate(periods, costs, policy=policy)
    quick = simulate(periods, costs, policy=policy, stop_on_first_miss=True)
    assert quick.schedulable == full.schedulable
    if not full.schedulable:
        assert quick.missed
        assert quick.missed[0] in full.missed
        assert quick.horizon <= full.horizon + 1e-9
