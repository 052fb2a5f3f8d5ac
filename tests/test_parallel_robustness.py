"""Robustness tests for :func:`repro.parallel.parallel_map`.

The process pool is infrastructure, not a correctness dependency: worker
crashes and forbidden pools must both degrade to serial execution with
the same results — never a lost batch, never a wrong result.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import obs, parallel
from repro.parallel import parallel_map

#: The chaos CI job runs the suite with process pools forbidden; tests that
#: assert on pool-degradation behaviour need a real pool to degrade from.
needs_pool = pytest.mark.skipif(
    bool(os.environ.get("REPRO_NO_PROCESS_POOL")),
    reason="process pools disabled via REPRO_NO_PROCESS_POOL",
)


def _square(x: int) -> int:
    return x * x


def _crash_in_worker(x: int) -> int:
    """Dies hard in a pool worker; computes normally in the parent."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return x + 100


def _raise_value_error(x: int) -> int:
    raise ValueError(f"job {x} is bad")


@pytest.fixture(autouse=True)
def _rearm_warning():
    parallel._reset_warning()
    yield
    parallel._reset_warning()


@pytest.fixture
def multicore(monkeypatch):
    """Pretend the host has CPUs to spare: single-core hosts skip the
    pool by design, so tests exercising pool behaviour must fake the
    core count (pool *creation* works fine on one core)."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


class TestHappyPaths:
    def test_serial_when_workers_none(self):
        assert parallel_map(_square, [1, 2, 3], workers=None) == [1, 4, 9]

    def test_serial_single_job(self):
        assert parallel_map(_square, [5], workers=8) == [25]

    def test_parallel_matches_serial(self, multicore):
        jobs = list(range(6))
        assert parallel_map(_square, jobs, workers=2) == [
            _square(j) for j in jobs
        ]


class TestDegradedPaths:
    @needs_pool
    def test_worker_crash_retries_serially(self, multicore, caplog):
        with caplog.at_level("WARNING", logger="repro.parallel"):
            out = parallel_map(
                _crash_in_worker, [1, 2, 3, 4], workers=2, label="crashers"
            )
        assert out == [101, 102, 103, 104]
        assert any("crashers" in r.message for r in caplog.records)
        assert any("BrokenProcessPool" in r.message for r in caplog.records)

    @needs_pool
    def test_crash_warning_is_one_shot(self, multicore, caplog):
        with caplog.at_level("WARNING", logger="repro.parallel"):
            parallel_map(_crash_in_worker, [1, 2], workers=2)
            parallel_map(_crash_in_worker, [3, 4], workers=2)
        assert len(caplog.records) == 1

    @needs_pool
    def test_crash_warning_rearmed_by_obs_reset(self, multicore, caplog):
        with caplog.at_level("WARNING", logger="repro.parallel"):
            parallel_map(_crash_in_worker, [1, 2], workers=2)
            obs.reset()
            parallel_map(_crash_in_worker, [3, 4], workers=2)
        assert len(caplog.records) == 2

    def test_single_core_host_skips_pool_silently(self, monkeypatch, caplog):
        """With one CPU there is no parallelism to gain: no pool is
        spun up and no degradation warning fires — serial-by-design is
        not a degradation."""
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        before = obs.metrics_snapshot()["counters"]
        with caplog.at_level("WARNING", logger="repro.parallel"):
            # _crash_in_worker would break any pool; serial results prove
            # no pool was ever created.
            out = parallel_map(_crash_in_worker, [1, 2, 3], workers=4)
        assert out == [101, 102, 103]
        assert not caplog.records
        after = obs.metrics_snapshot()["counters"]
        assert after.get("parallel.pool_failures", 0) == before.get(
            "parallel.pool_failures", 0
        )

    def test_cpu_count_none_treated_as_single_core(self, monkeypatch):
        """``os.cpu_count()`` may return None; treat it as one core."""
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert parallel_map(_crash_in_worker, [1, 2], workers=4) == [101, 102]

    def test_workers_one_skips_pool_silently(self, caplog):
        with caplog.at_level("WARNING", logger="repro.parallel"):
            out = parallel_map(_crash_in_worker, [1, 2, 3], workers=1)
        assert out == [101, 102, 103]
        assert not caplog.records

    def test_env_kill_switch_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_PROCESS_POOL", "1")
        # _crash_in_worker would break any pool; serial execution proves
        # no pool was ever created.
        assert parallel_map(_crash_in_worker, [1, 2, 3], workers=4) == [
            101, 102, 103,
        ]


class TestErrorPropagation:
    def test_fn_exception_propagates_serially(self):
        with pytest.raises(ValueError, match="job 1 is bad"):
            parallel_map(_raise_value_error, [1, 2], workers=None)

    def test_fn_exception_propagates_from_pool(self, multicore):
        with pytest.raises(ValueError, match="is bad"):
            parallel_map(_raise_value_error, [1, 2, 3], workers=2)
