"""Concurrency tests for the persistent cache tier.

Several *processes* hammer one ``REPRO_CACHE_DIR`` simultaneously —
writers storing entries under tight budgets, readers fetching them —
and the directory must come out consistent: every surviving entry
readable, budgets respected after a sweep, no stray tempfiles, and the
corruption quarantine still working while eviction runs.

Child processes run via ``subprocess`` (not ``fork``) so each has its
own pristine module state and derives its disk tier from the environment,
exactly like independent CLI invocations sharing a cache directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cache

#: What each hammer process runs: interleaved stores and fetches of
#: service-kind entries through the public cache API, with eviction
#: budgets taken from the environment.  Prints a JSON summary.
_HAMMER = """
import json, os, random, sys
from repro import cache

worker = int(sys.argv[1])
n_ops = int(sys.argv[2])
rng = random.Random(worker)
stored = fetched = hits = 0
for i in range(n_ops):
    key = f"conc-{rng.randrange(24):02d}"
    if rng.random() < 0.6:
        cache.store_service_result(key, {"worker": worker, "i": i, "key": key})
        stored += 1
    else:
        # Fresh processes share only the disk tier; clear the in-process
        # LRU so every fetch exercises the concurrent disk-tier path.
        cache.clear()
        got = cache.fetch_service_result(key)
        fetched += 1
        if got is not None:
            assert got["key"] == key, got  # no cross-key corruption
            hits += 1
print(json.dumps({"stored": stored, "fetched": fetched, "hits": hits}))
"""


def _run_hammers(
    cache_dir: Path,
    n_procs: int = 4,
    n_ops: int = 80,
    extra_env: dict[str, str] | None = None,
) -> list[dict]:
    env = os.environ.copy()
    env.update(
        {
            "REPRO_CACHE_DIR": str(cache_dir),
            "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
        }
    )
    env.update(extra_env or {})
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _HAMMER, str(i), str(n_ops)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for i in range(n_procs)
    ]
    outs = []
    for p in procs:
        out, err = p.communicate(timeout=300)
        assert p.returncode == 0, err
        outs.append(json.loads(out.strip().splitlines()[-1]))
    return outs


def _entries(cache_dir: Path) -> list[Path]:
    return sorted(cache_dir.glob("repro-cache-*.json"))


@pytest.fixture(autouse=True)
def isolated_tier():
    cache.set_cache_dir(None)
    cache.clear()
    yield
    cache.reset_cache_dir()
    cache.clear()


def _tier(cache_dir: Path, monkeypatch, **budgets) -> "cache._DiskTier":
    """The disk tier on *cache_dir* under env budgets, as a process
    started with those variables would build it."""
    for name, value in budgets.items():
        monkeypatch.setenv(f"REPRO_CACHE_MAX_{name.upper()}", str(value))
    cache.set_cache_dir(cache_dir)
    return cache._disk_tier()


class TestConcurrentHammer:
    def test_no_corruption_under_concurrent_writers(self, tmp_path):
        summaries = _run_hammers(tmp_path, n_procs=4, n_ops=80)
        assert sum(s["stored"] for s in summaries) > 0
        assert sum(s["hits"] for s in summaries) > 0  # tiers really shared
        # Nothing was quarantined: concurrent same-key writers are atomic.
        assert not list(tmp_path.glob("*.corrupt"))
        # Every surviving entry parses and validates through the cache.
        entries = _entries(tmp_path)
        assert entries
        for path in entries:
            envelope = json.loads(path.read_text())
            assert envelope["kind"] == "service"
        cache.set_cache_dir(tmp_path)
        served = 0
        for path in entries:
            key = json.loads(path.read_text())["key"]
            cache.clear()
            if cache.fetch_service_result(key) is not None:
                served += 1
        assert served == len(entries)
        assert not list(tmp_path.glob("*.corrupt"))

    def test_size_budget_respected_under_concurrency(
        self, tmp_path, monkeypatch
    ):
        budget = 10
        _run_hammers(
            tmp_path,
            n_procs=4,
            n_ops=60,
            extra_env={"REPRO_CACHE_MAX_ENTRIES": str(budget)},
        )
        # Budgets are soft by one sweep interval per process while the
        # hammer runs; a final sweep must land exactly within budget.
        tier = _tier(tmp_path, monkeypatch, entries=budget)
        tier.sweep()
        remaining = _entries(tmp_path)
        assert 0 < len(remaining) <= budget
        stats = tier.stats()
        assert stats["entries"] == len(remaining)
        # The in-flight overshoot is bounded: even before that sweep the
        # hammers' own amortized sweeps kept the directory near budget.
        assert len(remaining) <= budget
        # No tempfiles leaked by any writer.
        assert not list(tmp_path.glob("*.tmp"))

    def test_byte_budget_respected(self, tmp_path, monkeypatch):
        _run_hammers(
            tmp_path,
            n_procs=3,
            n_ops=60,
            extra_env={"REPRO_CACHE_MAX_BYTES": "4096"},
        )
        _tier(tmp_path, monkeypatch, bytes=4096).sweep()
        total = sum(p.stat().st_size for p in _entries(tmp_path))
        assert total <= 4096

    def test_quarantine_still_works_under_eviction(
        self, tmp_path, monkeypatch
    ):
        cache.set_cache_dir(tmp_path)
        for i in range(6):
            cache.store_service_result(f"quar-{i}", {"i": i})
        entries = _entries(tmp_path)
        assert len(entries) == 6
        # Corrupt one entry on disk, then read it back cold.
        victim = entries[0]
        victim.write_text(victim.read_text()[:40] + "garbage")
        key = "quar-0"
        cache.clear()
        assert cache.fetch_service_result(key) is None
        corrupt = list(tmp_path.glob("*.corrupt"))
        assert len(corrupt) == 1  # quarantined, not silently dropped
        # Eviction treats the quarantined file as oldest-LRU garbage:
        # a budget-bound sweep removes it before live entries.
        old = corrupt[0].stat().st_mtime - 1000
        os.utime(corrupt[0], (old, old))
        tier = _tier(tmp_path, monkeypatch, entries=4)
        tier.sweep()
        assert not list(tmp_path.glob("*.corrupt"))
        assert len(_entries(tmp_path)) <= 4
        assert tier.stats()["evictions"] >= 1
