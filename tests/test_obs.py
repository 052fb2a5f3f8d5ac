"""Tests for :mod:`repro.obs` — tracer, metrics registry and warn-once.

Also carries the regression tests for the observability bugfixes: the
derived ``cache.stats()`` report and the epoch-scoped corrupt-cache
warning.
"""

from __future__ import annotations

import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro import cache, jobs, obs
from repro.service.server import _pool_entry


@pytest.fixture
def tracing():
    """Enable tracing for one test and guarantee it is switched back off."""
    obs.enable_tracing()
    obs.clear_trace()
    yield
    obs.disable_tracing()
    obs.clear_trace()


def _traced_job(params: dict) -> dict:
    """Job kind that records one span and one counter per call."""
    with obs.span("obs-test.child", x=params["x"]):
        pass
    obs.inc("obs-test.child_jobs")
    return {"y": params["x"] + 1}


@pytest.fixture
def pool_map():
    """Run ``obs-test`` jobs in real pool workers through the job server's
    :func:`_pool_entry` and merge each payload, as the server does.

    The pool forks after the kind is registered, so workers resolve it.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork-started pool workers")
    jobs.register_kind("obs-test", lambda p: (str(p["x"]), p), _traced_job)
    ctx = multiprocessing.get_context("fork")

    def run(xs: list[int]) -> list[int]:
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            specs = [("obs-test", {"x": x}) for x in xs]
            outs = list(pool.map(_pool_entry, specs))
        for _, payload in outs:
            obs.merge_payload(payload)
        return [result["y"] for result, _ in outs]

    yield run
    jobs.JOB_KINDS.pop("obs-test", None)


class TestIdentifySpans:
    def test_search_and_cost_split_per_hot_block(self, tracing, tiny_program):
        """``identify.enumerate`` has one ``identify.search`` and one
        ``identify.cost`` child per hot block, in that order."""
        from repro.enumeration import build_candidate_library
        from repro.enumeration.library import hot_block_indices

        build_candidate_library(tiny_program, use_cache=False)
        spans = obs.trace_spans()
        (outer,) = [s for s in spans if s["name"] == "identify.enumerate"]
        children = [s for s in spans if s["parent"] == outer["id"]]
        hot = hot_block_indices(tiny_program)
        assert hot
        assert [(s["name"], s["attrs"]["block"]) for s in children] == [
            (name, i) for i in hot
            for name in ("identify.search", "identify.cost")
        ]
        assert sum(s["dur"] for s in children) <= outer["dur"]


class TestParseSpans:
    """Each parse of a path-named workload is one ``workloads.load`` span;
    the server's own parse nests under ``service.resolve``."""

    @staticmethod
    def _artifact(tmp_path, program) -> Path:
        from repro.frontend import program_to_dict
        from repro.io import save_json

        path = tmp_path / "tiny.json"
        save_json(program_to_dict(program), path)
        return path

    def test_file_parse_is_one_span(self, tracing, tmp_path, tiny_program):
        from repro.workloads import get_program

        path = self._artifact(tmp_path, tiny_program)
        get_program(str(path))
        get_program(str(path))  # unchanged file: served by the file cache
        loads = [s for s in obs.trace_spans() if s["name"] == "workloads.load"]
        assert [s["attrs"]["path"] for s in loads] == [str(path)]

    def test_server_resolve_span_holds_its_parse(
        self, tracing, tmp_path, tiny_program
    ):
        from repro.service.client import ServiceClient
        from repro.service.server import ServerThread

        path = self._artifact(tmp_path, tiny_program)
        with ServerThread(workers=1, use_processes=False) as srv:
            with ServiceClient(**srv.address) as c:
                c.submit("identify", {"benchmark": str(path)})
        spans = obs.trace_spans()
        (resolve,) = [s for s in spans if s["name"] == "service.resolve"]
        assert resolve["attrs"]["kind"] == "identify"
        (load,) = [s for s in spans if s["name"] == "workloads.load"]
        assert load["parent"] == resolve["id"]


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        assert not obs.tracing_enabled()
        assert obs.span("a") is obs.span("b")
        with obs.span("ignored", key="value") as sp:
            sp.set(more="attrs")
        assert obs.trace_spans() == []

    def test_nesting_parent_links_and_ordering(self, tracing):
        with obs.span("outer", stage="x"):
            with obs.span("inner-1"):
                pass
            with obs.span("inner-2") as sp:
                sp.set(points=7)
        spans = obs.trace_spans()
        assert [s["name"] for s in spans] == ["outer", "inner-1", "inner-2"]
        outer, inner1, inner2 = spans
        assert outer["parent"] is None
        assert inner1["parent"] == outer["id"]
        assert inner2["parent"] == outer["id"]
        assert outer["attrs"] == {"stage": "x"}
        assert inner2["attrs"] == {"points": 7}
        # Sorted by start time; durations are non-negative and nested
        # spans cannot outlast their parent.
        assert outer["t0"] <= inner1["t0"] <= inner2["t0"]
        assert all(s["dur"] >= 0.0 for s in spans)
        assert inner1["dur"] <= outer["dur"]

    def test_sibling_spans_share_no_parent(self, tracing):
        with obs.span("first"):
            pass
        with obs.span("second"):
            pass
        first, second = obs.trace_spans()
        assert first["parent"] is None
        assert second["parent"] is None
        assert first["id"] != second["id"]

    def test_name_attribute_does_not_collide(self, tracing):
        # span() takes its own name positionally-only, so payload attrs
        # may themselves be called "name".
        with obs.span("scenario", name="burst"):
            pass
        (span,) = obs.trace_spans()
        assert span["name"] == "scenario"
        assert span["attrs"] == {"name": "burst"}

    def test_exception_still_closes_span(self, tracing):
        with pytest.raises(ValueError):
            with obs.span("doomed"):
                raise ValueError("boom")
        (span,) = obs.trace_spans()
        assert span["name"] == "doomed"
        assert span["dur"] >= 0.0


class TestMetrics:
    def test_counters_gauges_histograms(self):
        obs.inc("m.count")
        obs.inc("m.count", 4)
        obs.set_gauge("m.gauge", 2.5)
        obs.set_gauge("m.gauge", 7)
        for v in (3.0, 1.0, 5.0):
            obs.observe("m.hist", v)
        snap = obs.metrics_snapshot()
        assert snap["counters"]["m.count"] == 5
        assert snap["gauges"]["m.gauge"] == 7
        hist = snap["histograms"]["m.hist"]
        assert hist["count"] == 3
        assert hist["total"] == 9.0
        assert hist["min"] == 1.0
        assert hist["max"] == 5.0

    def test_metrics_work_with_tracing_disabled(self):
        assert not obs.tracing_enabled()
        obs.inc("m.always_on")
        assert obs.metrics_snapshot()["counters"]["m.always_on"] == 1

    def test_reset_clears_state_and_bumps_epoch(self):
        obs.inc("m.count")
        obs.set_gauge("m.gauge", 1)
        obs.observe("m.hist", 1.0)
        epoch = obs.metrics_snapshot()["epoch"]
        obs.reset()
        snap = obs.metrics_snapshot()
        assert snap["epoch"] == epoch + 1
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_warn_once_per_epoch(self):
        assert obs.warn_once("k") is True
        assert obs.warn_once("k") is False
        assert obs.warn_once("other") is True
        obs.rearm_warning("k")
        assert obs.warn_once("k") is True
        obs.reset()  # a new epoch re-arms every key
        assert obs.warn_once("k") is True
        assert obs.warn_once("other") is True


class TestExport:
    def test_jsonl_round_trip(self, tracing, tmp_path):
        with obs.span("root", kind="demo"):
            with obs.span("leaf"):
                pass
        obs.inc("rt.counter", 3)
        path = tmp_path / "trace.jsonl"
        obs.export_trace(path)

        lines = path.read_text().splitlines()
        assert len(lines) == 3  # two spans + one metrics line

        spans, metrics = obs.load_trace(path)
        assert [s["name"] for s in spans] == ["root", "leaf"]
        assert spans[1]["parent"] == spans[0]["id"]
        assert metrics["counters"]["rt.counter"] == 3

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            obs.load_trace(tmp_path / "absent.jsonl")


class TestChildCapture:
    def test_merge_payload_reparents_and_merges(self, tracing):
        # Simulate a worker process: capture spans/metrics in a clean
        # buffer, then merge them back under the parent's open span.
        obs.begin_child_capture()
        with obs.span("child-root"):
            with obs.span("child-leaf"):
                pass
        obs.inc("merge.counter", 2)
        obs.set_gauge("merge.gauge", 1)
        obs.observe("merge.hist", 4.0)
        payload = obs.end_child_capture()

        obs.enable_tracing()
        obs.clear_trace()
        obs.inc("merge.counter", 1)
        obs.set_gauge("merge.gauge", 9)
        obs.observe("merge.hist", 2.0)
        with obs.span("parent") as sp:
            del sp
            obs.merge_payload(payload)
        spans = {s["name"]: s for s in obs.trace_spans()}
        assert set(spans) == {"parent", "child-root", "child-leaf"}
        assert spans["child-root"]["parent"] == spans["parent"]["id"]
        assert spans["child-leaf"]["parent"] == spans["child-root"]["id"]

        snap = obs.metrics_snapshot()
        assert snap["counters"]["merge.counter"] == 3  # additive
        assert snap["gauges"]["merge.gauge"] == 1  # last merge wins
        hist = snap["histograms"]["merge.hist"]
        assert hist["count"] == 2
        assert hist["total"] == 6.0
        assert hist["min"] == 2.0
        assert hist["max"] == 4.0

    def test_pool_entry_merges_worker_spans(self, tracing, pool_map):
        # Every job's span and counter, recorded in a pool worker, must
        # land in the parent trace under the span open at merge time.
        with obs.span("parent"):
            out = pool_map([1, 2, 3])
        assert out == [2, 3, 4]
        spans = obs.trace_spans()
        (parent,) = [s for s in spans if s["name"] == "parent"]
        children = [s for s in spans if s["name"] == "obs-test.child"]
        assert sorted(s["attrs"]["x"] for s in children) == [1, 2, 3]
        assert all(s["parent"] == parent["id"] for s in children)
        assert obs.metrics_snapshot()["counters"]["obs-test.child_jobs"] == 3

    def test_pool_entry_merges_worker_counters_without_tracing(self, pool_map):
        # Workers record spans regardless; with tracing off the parent
        # keeps only their metric deltas, so counters sum the same.
        obs.disable_tracing()
        obs.clear_trace()
        before = obs.metrics_snapshot()["counters"].get("obs-test.child_jobs", 0)
        out = pool_map([1, 2, 3, 4])
        assert out == [2, 3, 4, 5]
        after = obs.metrics_snapshot()["counters"].get("obs-test.child_jobs", 0)
        assert after - before == 4
        assert obs.trace_spans() == []  # spans stay off with tracing off


class TestCacheRegressions:
    def test_stats_keys_match_registered_kinds(self):
        # stats() carries one row per registered kind, plus — when a
        # persistent tier is configured (e.g. the chaos CI job sets
        # REPRO_CACHE_DIR for the whole suite) — a "disk" occupancy row.
        stats = cache.stats()
        kinds = {k: v for k, v in stats.items() if k != "disk"}
        assert tuple(sorted(kinds)) == cache.registered_kinds()
        # Only kinds that a supported run hits.
        assert cache.registered_kinds() == (
            "curve", "library", "mlgp", "selection", "service"
        )
        for row in kinds.values():
            assert set(row) == {"hits", "misses", "size"}

    def test_clear_zeroes_every_counter(self):
        # Drive at least one kind, then verify clear() zeroes all of them.
        cache.fetch_candidates("no-such-key")
        assert any(
            row["misses"]
            for kind, row in cache.stats().items()
            if kind != "disk"
        )
        cache.clear()
        for kind, row in cache.stats().items():
            if kind == "disk":
                continue
            assert row == {"hits": 0, "misses": 0, "size": 0}, kind

    def test_corrupt_warning_once_per_epoch_counts_all(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            cache._warn_corrupt_once(Path("a.json"), "bad checksum")
            cache._warn_corrupt_once(Path("b.json"), "bad checksum")
        assert len(caplog.records) == 1  # log-once per epoch
        assert obs.metrics_snapshot()["counters"]["cache.corrupt_entries"] == 2

        caplog.clear()
        obs.reset()  # new epoch re-arms the warning
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            cache._warn_corrupt_once(Path("c.json"), "bad checksum")
        assert len(caplog.records) == 1
        assert obs.metrics_snapshot()["counters"]["cache.corrupt_entries"] == 1
