"""Tests for the content-keyed identification-artifact cache."""

from __future__ import annotations

import pytest

from repro import cache
from repro.core.flow import build_task
from repro.enumeration import build_candidate_library
from repro.graphs.dfg import DataFlowGraph
from repro.graphs.program import Block, Loop, Program, Seq
from repro.isa.opcodes import Opcode
from repro.selection import build_configuration_curve
from tests.conftest import random_small_dfg


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts with an empty in-process cache and no disk tier."""
    cache.set_enabled(True)
    cache.set_cache_dir(None)
    cache.clear()
    yield
    cache.set_enabled(True)
    cache.reset_cache_dir()
    cache.clear()


def make_program(name: str = "p", bound: int = 10) -> Program:
    def block(ops: int, seed: int) -> Block:
        return Block(random_small_dfg(seed, ops))

    return Program(
        name,
        Seq([block(4, 1), Loop(block(8, 2), bound=bound), block(3, 3)]),
    )


class TestFingerprint:
    def test_identical_structure_same_fingerprint(self):
        a, b = make_program("a"), make_program("b")
        assert cache.program_fingerprint(a) == cache.program_fingerprint(b)

    def test_structural_change_changes_fingerprint(self):
        a = make_program(bound=10)
        b = make_program(bound=11)
        assert cache.program_fingerprint(a) != cache.program_fingerprint(b)

    def test_dfg_change_changes_fingerprint(self):
        a = make_program()
        b = make_program()
        b.basic_blocks[0].dfg.set_live_out(0)
        assert cache.program_fingerprint(a) != cache.program_fingerprint(b)

    def test_artifact_key_sensitive_to_params(self):
        fp = cache.program_fingerprint(make_program())
        assert cache.artifact_key(fp, max_inputs=4) != cache.artifact_key(
            fp, max_inputs=2
        )


class TestLibraryCache:
    def test_second_build_hits_cache(self):
        program = make_program()
        first = build_candidate_library(program)
        before = cache.stats()["library"]["hits"]
        second = build_candidate_library(program)
        assert cache.stats()["library"]["hits"] == before + 1
        assert first.candidates == second.candidates

    def test_equivalent_program_objects_share_entries(self):
        first = build_candidate_library(make_program("x"))
        second = build_candidate_library(make_program("y"))
        assert first.candidates == second.candidates
        assert cache.stats()["library"]["hits"] >= 1

    def test_use_cache_false_bypasses(self):
        program = make_program()
        build_candidate_library(program, use_cache=False)
        assert cache.stats()["library"]["size"] == 0

    def test_param_change_misses(self):
        program = make_program()
        build_candidate_library(program)
        build_candidate_library(program, max_inputs=2)
        assert cache.stats()["library"]["size"] == 2

    def test_disabled_globally(self):
        cache.set_enabled(False)
        build_candidate_library(make_program())
        assert cache.stats()["library"]["size"] == 0


class TestCurveCache:
    def test_second_curve_hits_cache(self):
        program = make_program()
        lib = build_candidate_library(program)
        a = build_configuration_curve(program, lib.candidates)
        b = build_configuration_curve(program, lib.candidates)
        assert a == b
        assert cache.stats()["curve"]["hits"] >= 1

    def test_candidate_subset_gets_distinct_entry(self):
        program = make_program()
        lib = build_candidate_library(program)
        full = build_configuration_curve(program, lib.candidates)
        half = build_configuration_curve(program, lib.candidates[: len(lib) // 2])
        assert cache.stats()["curve"]["size"] == 2
        assert full[0].cycles == half[0].cycles  # same software point


class TestDiskCache:
    def test_roundtrip_through_disk(self, tmp_path):
        cache.set_cache_dir(tmp_path)
        program = make_program()
        lib = build_candidate_library(program)
        curve = build_configuration_curve(program, lib.candidates)
        assert list(tmp_path.glob("repro-cache-*.json"))
        # Drop the in-process tier; the disk tier must reproduce everything.
        cache.clear()
        lib2 = build_candidate_library(program)
        curve2 = build_configuration_curve(program, lib2.candidates)
        assert lib2.candidates == lib.candidates
        assert curve2 == curve

    def test_structural_keys_survive_json(self, tmp_path):
        cache.set_cache_dir(tmp_path)
        program = make_program()
        lib = build_candidate_library(program)
        cache.clear()
        lib2 = build_candidate_library(program)
        assert lib.isomorphism_classes() == lib2.isomorphism_classes()

    def test_corrupt_file_ignored(self, tmp_path):
        cache.set_cache_dir(tmp_path)
        program = make_program()
        build_candidate_library(program)
        for f in tmp_path.glob("repro-cache-*.json"):
            f.write_text("{not json")
        cache.clear()
        lib = build_candidate_library(program)  # silently rebuilds
        assert len(lib) > 0


class TestTaskBuildIntegration:
    def test_build_task_warm_path_equal(self):
        program = make_program()
        cold = build_task(program)
        warm = build_task(program)
        assert cold == warm
        info = cache.stats()
        assert info["library"]["hits"] >= 1
        assert info["curve"]["hits"] >= 1

    def test_engines_cached_separately(self):
        """The library key holds the engine: the reference oracle may
        return another candidate set under binding visit budgets."""
        program = make_program()
        build_candidate_library(program, engine="fast")
        build_candidate_library(program, engine="reference")
        assert cache.stats()["library"]["size"] == 2


class TestDiskHardening:
    """Corrupt, truncated or tampered disk entries degrade to misses."""

    def _store_one(self, tmp_path):
        cache.set_cache_dir(tmp_path)
        program = make_program()
        task = build_task(program)
        files = list(tmp_path.glob("repro-cache-*.json"))
        assert files, "expected disk entries"
        return program, task, files

    def test_entries_carry_checksum_and_schema(self, tmp_path):
        import json

        _, _, files = self._store_one(tmp_path)
        for f in files:
            entry = json.loads(f.read_text())
            assert entry["schema"] == cache.SCHEMA_VERSION
            assert entry["checksum"] == cache._payload_checksum(entry["payload"])

    def test_truncated_entry_quarantined_and_rebuilt(self, tmp_path):
        program, task, files = self._store_one(tmp_path)
        for f in files:
            f.write_text(f.read_text()[: len(f.read_text()) // 2])
        cache.clear()
        rebuilt = build_task(program)  # miss -> recompute, never raises
        assert rebuilt == task
        assert list(tmp_path.glob("*.corrupt")), "corrupt files not quarantined"

    def test_garbage_entry_quarantined(self, tmp_path):
        program, task, files = self._store_one(tmp_path)
        for f in files:
            f.write_text("\x00\xff garbage not json")
        cache.clear()
        assert build_task(program) == task
        assert len(list(tmp_path.glob("*.corrupt"))) == len(files)

    def test_tampered_payload_rejected_by_checksum(self, tmp_path):
        import json

        program, task, files = self._store_one(tmp_path)
        for f in files:
            entry = json.loads(f.read_text())
            if isinstance(entry["payload"], list) and entry["payload"]:
                entry["payload"] = entry["payload"][:-1]  # drop an element
                f.write_text(json.dumps(entry))
        cache.clear()
        assert build_task(program) == task  # tamper detected -> recompute

    def test_non_object_entry_quarantined(self, tmp_path):
        program, task, files = self._store_one(tmp_path)
        for f in files:
            f.write_text('["not", "an", "object"]')
        cache.clear()
        assert build_task(program) == task
        assert list(tmp_path.glob("*.corrupt"))

    def test_stale_schema_is_plain_miss_without_quarantine(self, tmp_path):
        import json

        program, task, files = self._store_one(tmp_path)
        for f in files:
            entry = json.loads(f.read_text())
            entry["schema"] = cache.SCHEMA_VERSION - 1
            f.write_text(json.dumps(entry))
        cache.clear()
        assert build_task(program) == task
        assert not list(tmp_path.glob("*.corrupt"))

    def test_writes_are_atomic_no_tmp_left_behind(self, tmp_path):
        self._store_one(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))

    def test_clear_disk_sweeps_quarantined_files(self, tmp_path):
        program, _, files = self._store_one(tmp_path)
        files[0].write_text("{broken")
        cache.clear()
        cache.fetch_candidates("0" * 64)  # touch the disk tier
        build_task(program)
        cache.clear(disk=True)
        assert not list(tmp_path.glob("repro-cache-*"))

    def test_corruption_round_trip_preserves_results(self, tmp_path):
        """Alternating corruption and rebuilds never changes the artifact."""
        program, task, _ = self._store_one(tmp_path)
        for _ in range(3):
            for f in tmp_path.glob("repro-cache-*.json"):
                f.write_text("{torn write")
            cache.clear()
            assert build_task(program) == task


class TestBackendsAndEviction:
    """The persistent directory tier: budgets, LRU eviction, stats."""

    def _fill(self, n: int, prefix: str = "ev") -> list[str]:
        keys = [f"{prefix}-{i:02d}" for i in range(n)]
        for i, key in enumerate(keys):
            cache.store_service_result(key, {"i": i, "pad": "x" * 64})
        return keys

    @staticmethod
    def _budgeted_tier(tmp_path, monkeypatch, interval: int, **budgets):
        """The disk tier on *tmp_path* under env budgets, sweeping every
        *interval* stores."""
        for name, value in budgets.items():
            monkeypatch.setenv(f"REPRO_CACHE_MAX_{name.upper()}", str(value))
        monkeypatch.setattr(cache, "_SWEEP_INTERVAL", interval)
        cache.set_cache_dir(tmp_path)
        return cache._disk_tier()

    def test_memory_backend_roundtrip_and_entry_budget(
        self, tmp_path, monkeypatch
    ):
        tier = self._budgeted_tier(tmp_path, monkeypatch, 1, entries=3)
        keys = self._fill(5)
        stats = tier.stats()
        assert stats["entries"] == 3
        assert stats["evictions"] == 2
        # Survivors are the most recently stored; clear the LRU so the
        # fetch has to go through the disk tier.
        cache.clear()
        assert cache.fetch_service_result(keys[0]) is None
        assert cache.fetch_service_result(keys[4]) == {
            "i": 4, "pad": "x" * 64,
        }

    def test_memory_backend_byte_budget(self, tmp_path, monkeypatch):
        tier = self._budgeted_tier(tmp_path, monkeypatch, 1, bytes=600)
        self._fill(8)
        assert tier.stats()["bytes"] <= 600
        assert tier.stats()["evictions"] >= 1

    def test_local_dir_eviction_is_lru_by_mtime(self, tmp_path, monkeypatch):
        import os
        import time as time_mod

        tier = self._budgeted_tier(tmp_path, monkeypatch, 1, entries=2)
        keys = self._fill(2, prefix="lru")
        # Backdate the first entry, then *hit* it: the validated read
        # refreshes its mtime, so the un-hit second entry is evicted.
        (first,) = [p for p in tmp_path.glob("repro-cache-service-*lru-00*")]
        old = time_mod.time() - 1000
        os.utime(first, (old, old))
        cache.clear()
        assert cache.fetch_service_result(keys[0]) is not None
        self._fill(1, prefix="lru-new")
        tier.sweep()
        names = sorted(p.name for p in tmp_path.glob("repro-cache-*.json"))
        assert len(names) == 2
        assert any("lru-00" in n for n in names)   # refreshed: kept
        assert any("lru-new" in n for n in names)  # newest: kept
        assert not any("lru-01" in n for n in names)  # LRU: evicted

    def test_sweep_is_amortized_over_stores(self, tmp_path, monkeypatch):
        tier = self._budgeted_tier(tmp_path, monkeypatch, 50, entries=2)
        self._fill(6)
        # Below the sweep interval: budget intentionally not enforced
        # yet (sweeps cost a directory scan; they are amortized).
        assert len(list(tmp_path.glob("repro-cache-*.json"))) == 6
        tier.sweep()
        assert len(list(tmp_path.glob("repro-cache-*.json"))) == 2

    def test_stats_carries_disk_row_with_backend(self, tmp_path):
        cache.set_cache_dir(tmp_path)
        self._fill(3)
        stats = cache.stats()
        assert stats["disk"]["path"] == str(tmp_path)
        assert stats["disk"]["entries"] == 3
        assert stats["disk"]["bytes"] > 0
        for field in ("evictions", "evicted_bytes", "lock_contention"):
            assert field in stats["disk"]
        cache.set_cache_dir(None)
        assert "disk" not in cache.stats()
        assert cache.disk_stats() is None

    def test_disk_entries_count_live_entries_only(self, tmp_path):
        """Quarantined ``*.corrupt`` files and foreign files wearing the
        entry prefix are not live entries (the sweep still ages them out
        under the budgets)."""
        from repro import obs

        cache.set_cache_dir(tmp_path)
        build_task(make_program())
        live = sorted(tmp_path.glob("repro-cache-*.json"))
        assert len(live) == 2  # one library, one curve
        (tmp_path / (live[0].name + ".corrupt")).write_text("{torn")
        (tmp_path / "repro-cache-deadbeef01.json").write_text("{torn")
        stats = cache.stats()["disk"]
        assert stats["entries"] == 2
        assert stats["bytes"] == sum(p.stat().st_size for p in live)
        assert obs.metrics_snapshot()["gauges"]["cache.disk.entries"] == 2
        obs.set_gauge("cache.disk.entries", -1)
        cache._disk_tier().sweep()  # no budget: evicts nothing
        assert obs.metrics_snapshot()["gauges"]["cache.disk.entries"] == 2
        assert len(list(tmp_path.glob("repro-cache-*"))) == 4

    def test_local_sweep_skips_while_another_process_holds_the_lock(
        self, tmp_path, monkeypatch
    ):
        import fcntl
        import os

        tier = self._budgeted_tier(tmp_path, monkeypatch, 50, entries=1)
        self._fill(3)
        # A second open file description conflicts with the tier's own
        # exactly as another process's flock would.
        fd = os.open(tmp_path / "repro-cache.lock", os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            tier.sweep()  # contended: must skip, not block or evict
            assert tier.lock_contention == 1
            assert tier.evictions == 0
            assert len(list(tmp_path.glob("repro-cache-*.json"))) == 3
        finally:
            os.close(fd)
        tier.sweep()
        assert tier.lock_contention == 1
        assert tier.evictions == 2
        assert len(list(tmp_path.glob("repro-cache-*.json"))) == 1

    def test_env_budget_drives_auto_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "4")
        cache.set_cache_dir(tmp_path)
        tier = cache._disk_tier()
        assert tier is not None and tier.max_entries == 4
        self._fill(9)
        tier.sweep()
        assert len(list(tmp_path.glob("repro-cache-*.json"))) == 4

    def test_literal_schema2_entry_is_a_disk_hit(self, tmp_path):
        """Pins the on-disk format: file name (kind + first 40 key
        characters), envelope fields and payload checksum."""
        import json

        from repro import obs

        key = "ab" * 32
        (tmp_path / f"repro-cache-service-{'ab' * 20}.json").write_text(
            json.dumps({
                "schema": 2,
                "kind": "service",
                "key": key,
                # SHA-256 of the canonical payload '{"answer":42}'.
                "checksum": "ecf59a2696ca44a417e20e2a7eabb1b2"
                            "6e82c779f8546bea354a2cc80e8e1eed",
                "payload": {"answer": 42},
            })
        )
        cache.set_cache_dir(tmp_path)
        before = obs.metrics_snapshot()["counters"].get(
            "cache.service.disk_hits", 0
        )
        assert cache.fetch_service_result(key) == {"answer": 42}
        after = obs.metrics_snapshot()["counters"]["cache.service.disk_hits"]
        assert after == before + 1
        assert not list(tmp_path.glob("*.corrupt"))

    def test_cli_metrics_report_disk_tier_after_the_run(
        self, tmp_path, capsys
    ):
        import re

        from repro.cli import main

        assert main(
            ["--cache-dir", str(tmp_path), "--metrics", "curve", "crc32"]
        ) == 0
        out = capsys.readouterr().out
        # The run stored a library and a curve: the gauges describe the
        # directory as the run left it, not as it found it.
        assert re.search(r"^cache\.disk\.entries\s+2\s*$", out, re.M), out
