"""Tests for the customization job server (:mod:`repro.service`).

Coalescing and at-rest dedup are the core contract — N concurrent
identical requests must produce exactly one computation — so those tests
count actual compute invocations, not just server counters.  The server
runs inline (no process pool) throughout: test-local job kinds are
registered in this module only, so a pool worker could not resolve them,
and inline mode keeps the invocation counters observable.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import cache
from repro.errors import ReproError
from repro import jobs as jobs_mod
from repro.service.client import (
    ConnectionLostError,
    ServiceClient,
)
from repro.service.server import ServerThread


@pytest.fixture(autouse=True)
def fresh_cache():
    """Service results are cached; isolate every test's store."""
    cache.set_enabled(True)
    cache.set_cache_dir(None)
    cache.clear()
    yield
    cache.set_enabled(True)
    cache.reset_cache_dir()
    cache.clear()


class _Recorder:
    """A registered job kind that records its compute invocations."""

    def __init__(self, name: str, delay: float = 0.0):
        self.name = name
        self.calls: list[dict] = []
        self.delay = delay
        self.gate: threading.Event | None = None
        self._lock = threading.Lock()
        jobs_mod.register_kind(name, self._resolve, self._compute)

    def _resolve(self, params):
        x = params.get("x", 0)
        return f"svc-test-{self.name}-{x}", {"x": x}

    def _compute(self, params):
        with self._lock:
            self.calls.append(dict(params))
        if self.gate is not None:
            assert self.gate.wait(timeout=30)
        if self.delay:
            time.sleep(self.delay)
        if params["x"] < 0:
            raise ReproError(f"negative x {params['x']}")
        return {"x": params["x"], "doubled": params["x"] * 2}


@pytest.fixture
def recorder(request):
    name = f"rec-{request.node.name}"[:48]
    rec = _Recorder(name, delay=0.05)
    yield rec
    jobs_mod.JOB_KINDS.pop(name, None)


def _server(**kwargs) -> ServerThread:
    kwargs.setdefault("use_processes", False)
    return ServerThread(**kwargs)


class TestCoalescing:
    def test_concurrent_identical_requests_compute_once(self, recorder):
        n_clients = 6
        with _server(workers=2) as srv:
            results: list[dict] = []

            def go():
                with ServiceClient(**srv.address) as c:
                    results.append(c.submit(recorder.name, {"x": 7}))

            threads = [threading.Thread(target=go) for _ in range(n_clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServiceClient(**srv.address) as c:
                stats = c.stats()

        assert len(recorder.calls) == 1  # the exactly-once contract
        assert len(results) == n_clients
        assert all(r["job"]["result"]["doubled"] == 14 for r in results)
        counters = stats["counters"]
        assert counters["computed"] == 1
        assert counters["coalesced"] == n_clients - 1
        assert counters["submitted"] == n_clients
        dispositions = sorted(r["disposition"] for r in results)
        assert dispositions.count("coalesced") == n_clients - 1
        assert dispositions.count("queued") == 1

    def test_distinct_params_do_not_coalesce(self, recorder):
        with _server(workers=2) as srv:
            with ServiceClient(**srv.address) as c:
                r1 = c.submit(recorder.name, {"x": 1})
                r2 = c.submit(recorder.name, {"x": 2})
        assert len(recorder.calls) == 2
        assert r1["job"]["key"] != r2["job"]["key"]


class TestAtRestDedup:
    def test_repeat_request_hits_result_store(self, recorder):
        with _server() as srv:
            with ServiceClient(**srv.address) as c:
                first = c.submit(recorder.name, {"x": 3})
                second = c.submit(recorder.name, {"x": 3})
                stats = c.stats()
        assert first["disposition"] == "queued"
        assert second["disposition"] == "cached"
        assert second["job"]["result"] == first["job"]["result"]
        assert len(recorder.calls) == 1
        assert stats["counters"]["result_hits"] == 1

    def test_results_survive_server_restart_via_backend(
        self, recorder, tmp_path
    ):
        # The at-rest store is the artifact cache's persistent tier: a
        # fresh server (even a fresh process-level LRU) serves results
        # computed before it started.
        cache.set_cache_dir(tmp_path)
        with _server() as srv:
            with ServiceClient(**srv.address) as c:
                c.submit(recorder.name, {"x": 11})
        # Simulate a restart: drop the in-process LRU, keep the directory.
        cache.clear(disk=False)
        with _server() as srv:
            with ServiceClient(**srv.address) as c:
                resp = c.submit(recorder.name, {"x": 11})
        assert resp["disposition"] == "cached"
        assert resp["job"]["result"]["doubled"] == 22
        assert len(recorder.calls) == 1


class TestQueueSemantics:
    def test_priority_orders_queued_jobs(self, recorder):
        recorder.gate = threading.Event()
        with _server(workers=1) as srv:
            with ServiceClient(**srv.address) as c:
                # Occupy the single worker, then queue behind it.
                blocker = c.submit(recorder.name, {"x": 100}, wait=False)
                deadline = time.time() + 10
                while not recorder.calls and time.time() < deadline:
                    time.sleep(0.01)
                low = c.submit(
                    recorder.name, {"x": 1}, priority=0, wait=False
                )
                high = c.submit(
                    recorder.name, {"x": 2}, priority=5, wait=False
                )
                recorder.gate.set()
                c.wait(low["job"]["id"], timeout=30)
                c.wait(high["job"]["id"], timeout=30)
                c.wait(blocker["job"]["id"], timeout=30)
        order = [call["x"] for call in recorder.calls]
        assert order[0] == 100
        assert order[1:] == [2, 1]  # high priority ran first

    def test_bounded_queue_rejects_when_full(self, recorder):
        recorder.gate = threading.Event()
        try:
            with _server(workers=1, queue_size=1) as srv:
                with ServiceClient(**srv.address) as c:
                    c.submit(recorder.name, {"x": 100}, wait=False)
                    # Wait until the worker picked the blocker up, so the
                    # next submit occupies the queue's single slot.
                    deadline = time.time() + 10
                    while not recorder.calls and time.time() < deadline:
                        time.sleep(0.01)
                    c.submit(recorder.name, {"x": 1}, wait=False)
                    with pytest.raises(ReproError, match="queue is full"):
                        c.submit(recorder.name, {"x": 2}, wait=False)
                    stats = c.stats()
                    recorder.gate.set()
        finally:
            recorder.gate.set()
        assert stats["counters"]["rejected"] == 1

    def test_job_timeout_fails_the_job(self, recorder):
        recorder.gate = threading.Event()
        try:
            with _server(workers=1, job_timeout=0.2) as srv:
                with ServiceClient(**srv.address) as c:
                    with pytest.raises(ReproError, match="job_timeout"):
                        c.submit(recorder.name, {"x": 1})
                    stats = c.stats()
        finally:
            recorder.gate.set()
        assert stats["counters"]["timeouts"] == 1
        assert stats["counters"]["failed"] == 1


class TestPoolPathClassification:
    """Only ``BrokenProcessPool`` is infrastructure on the pool path.

    Regression tests for the bug where the pool path caught OSError
    broadly: a job timeout (builtin TimeoutError is an OSError subclass
    on >= 3.11) or a job-raised OSError destroyed the healthy pool and
    silently re-ran the job inline.  A ``ThreadPoolExecutor`` stands in
    for the process pool so test-local job kinds resolve inside the
    "pool" and ``_run``'s exception classification is exercised exactly
    as with processes.
    """

    @staticmethod
    def _install_pool(srv):
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=1)
        srv.server._pool = pool
        return pool

    def test_job_oserror_fails_the_job_not_the_pool(self, recorder):
        calls: list[dict] = []

        def compute(params):
            calls.append(dict(params))
            raise FileNotFoundError("/no/such/profile")

        jobs_mod.register_kind(recorder.name, recorder._resolve, compute)
        with _server(workers=1) as srv:
            pool = self._install_pool(srv)
            with ServiceClient(**srv.address) as c:
                with pytest.raises(ReproError, match="FileNotFoundError"):
                    c.submit(recorder.name, {"x": 1})
                stats = c.stats()
            pool_after = srv.server._pool  # before stop() releases it
        assert len(calls) == 1  # pool attempt only: no inline re-run
        assert stats["counters"]["pool_failures"] == 0
        assert pool_after is pool  # the healthy pool survived

    def test_job_timeout_is_not_a_pool_failure(self, recorder):
        def compute(params):
            time.sleep(5.0)
            return {}

        jobs_mod.register_kind(recorder.name, recorder._resolve, compute)
        with _server(workers=1, job_timeout=0.2) as srv:
            pool = self._install_pool(srv)
            with ServiceClient(**srv.address) as c:
                with pytest.raises(ReproError, match="job_timeout"):
                    c.submit(recorder.name, {"x": 1})
                stats = c.stats()
            pool_after = srv.server._pool
        assert stats["counters"]["timeouts"] == 1
        assert stats["counters"]["pool_failures"] == 0
        assert pool_after is pool

    def test_broken_pool_is_replaced_and_job_retries_on_it(self, recorder):
        from concurrent.futures import ThreadPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        calls: list[dict] = []

        def compute(params):
            calls.append(dict(params))
            if len(calls) == 1:
                raise BrokenProcessPool("a worker died")
            return {"x": params["x"], "doubled": params["x"] * 2}

        jobs_mod.register_kind(recorder.name, recorder._resolve, compute)
        with _server(workers=1) as srv:
            pool = self._install_pool(srv)
            # The replacement must also be a stand-in thread pool, or
            # the retry would run in a process that cannot resolve the
            # test-local kind (and `calls` would be invisible).
            srv.server._new_pool = lambda: ThreadPoolExecutor(max_workers=1)
            with ServiceClient(**srv.address) as c:
                resp = c.submit(recorder.name, {"x": 9})
                stats = c.stats()
            pool_after = srv.server._pool
        assert resp["job"]["result"]["doubled"] == 18
        assert len(calls) == 2  # pool attempt + retry on the replacement
        assert stats["counters"]["pool_failures"] == 1
        assert stats["counters"]["retried"] == 1
        assert pool_after is not None
        assert pool_after is not pool  # replaced, not degraded


class TestFailuresAndProtocol:
    def test_job_error_propagates_and_server_survives(self, recorder):
        with _server() as srv:
            with ServiceClient(**srv.address) as c:
                with pytest.raises(ReproError, match="negative x"):
                    c.submit(recorder.name, {"x": -1})
                # The server keeps serving after a failed job.
                ok = c.submit(recorder.name, {"x": 4})
                stats = c.stats()
        assert ok["job"]["result"]["doubled"] == 8
        assert stats["counters"]["failed"] == 1

    def test_failed_jobs_are_not_stored_at_rest(self, recorder):
        with _server() as srv:
            with ServiceClient(**srv.address) as c:
                for _ in range(2):
                    with pytest.raises(ReproError, match="negative x"):
                        c.submit(recorder.name, {"x": -2})
        # Both submits computed: a failure must never be served as a hit.
        assert len(recorder.calls) == 2

    def test_unknown_kind_is_an_error(self):
        with _server() as srv:
            with ServiceClient(**srv.address) as c:
                with pytest.raises(ReproError, match="unknown job kind"):
                    c.submit("no-such-kind", {})

    def test_unknown_param_is_an_error(self):
        with _server() as srv:
            with ServiceClient(**srv.address) as c:
                with pytest.raises(ReproError, match="unknown"):
                    c.submit("curve", {"benchmark": "crc32", "bogus": 1})

    def test_ping_stats_jobs_ops(self, recorder):
        with _server() as srv:
            with ServiceClient(**srv.address) as c:
                assert c.ping()
                c.submit(recorder.name, {"x": 5})
                jobs = c.jobs()
                stats = c.stats()
        assert len(jobs) == 1
        assert jobs[0]["state"] == "done"
        assert "result" not in jobs[0]  # listing omits payloads
        assert stats["queue_depth"] == 0
        assert "cache" in stats

    def test_malformed_request_line_is_rejected(self, recorder):
        with _server() as srv:
            with ServiceClient(**srv.address) as c:
                c._file.write(b"this is not json\n")
                c._file.flush()
                resp = c._recv()
                assert resp["ok"] is False
                assert "bad request" in resp["error"]
                # The connection stays usable afterwards.
                assert c.ping()

    def test_watch_streams_lifecycle_events(self, recorder):
        with _server() as srv:
            with ServiceClient(**srv.address) as c:
                sub = c.submit(recorder.name, {"x": 6}, wait=False)
                events = list(c.watch(sub["job"]["id"]))
        names = [e.get("event") for e in events if "event" in e]
        assert names[0] == "queued"
        assert "started" in names
        assert names[-1] == "done"
        summary = events[-1]
        assert summary["done"] is True
        assert summary["job"]["result"]["doubled"] == 12

    def test_unix_socket_transport(self, recorder, tmp_path):
        with _server(socket_path=str(tmp_path / "svc.sock")) as srv:
            with ServiceClient(**srv.address) as c:
                assert c.ping()
                resp = c.submit(recorder.name, {"x": 8})
        assert resp["job"]["result"]["doubled"] == 16

    def test_shutdown_op_stops_the_server(self, recorder):
        srv = _server().start()
        with ServiceClient(**srv.address) as c:
            c.shutdown()
        srv._thread.join(timeout=10)
        assert not srv._thread.is_alive()


class _ScriptedServer:
    """A raw TCP endpoint sending scripted bytes — a misbehaving server.

    Reads one request line per scripted reply, writes the raw bytes
    verbatim, then closes the connection.  Lets the client-side protocol
    tests exercise truncated lines, garbage bytes and close races
    without teaching the real server to misbehave.
    """

    def __init__(self, *replies: bytes):
        self.replies = replies
        self._srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._srv.bind(("127.0.0.1", 0))
        self._srv.listen(1)
        self.port = self._srv.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            conn, _ = self._srv.accept()
        except OSError:
            return
        with conn:
            fh = conn.makefile("rwb")
            for raw in self.replies:
                if not fh.readline():
                    return
                fh.write(raw)
                fh.flush()

    def __enter__(self) -> "_ScriptedServer":
        return self

    def __exit__(self, *exc) -> None:
        self._srv.close()
        self._thread.join(timeout=5)


class TestProtocolRobustness:
    """Client-side handling of a misbehaving or vanishing server."""

    def test_garbage_bytes_raise_repro_error_naming_endpoint(self):
        with _ScriptedServer(b"\xff\xfe not json either\n") as fake:
            with ServiceClient(port=fake.port, timeout=10) as c:
                with pytest.raises(ReproError, match="malformed response"):
                    c.ping()

    def test_non_json_line_raises_repro_error(self):
        with _ScriptedServer(b"HTTP/1.1 400 Bad Request\n") as fake:
            with ServiceClient(port=fake.port, timeout=10) as c:
                with pytest.raises(
                    ReproError, match=f"service at 127.0.0.1:{fake.port}"
                ):
                    c.ping()

    def test_truncated_line_then_close_raises_repro_error(self):
        # The server dies mid-write: the client reads a torn fragment
        # with no newline, which must surface as a one-line ReproError,
        # not a JSONDecodeError traceback.
        with _ScriptedServer(b'{"ok": true, "po') as fake:
            with ServiceClient(port=fake.port, timeout=10) as c:
                with pytest.raises(ReproError, match="malformed response"):
                    c.ping()

    def test_close_without_reply_is_connection_lost(self):
        with _ScriptedServer() as fake:  # accepts, reads, closes
            with ServiceClient(port=fake.port, timeout=10) as c:
                # Clean EOF or RST depending on timing — both must
                # surface as the retryable ConnectionLostError.
                with pytest.raises(ConnectionLostError):
                    c.ping()

    def test_shutdown_race_with_connection_close_is_success(self):
        # The server may close the connection before the shutdown reply
        # lands; that IS a successful shutdown (satellite fix).
        with _ScriptedServer() as fake:
            with ServiceClient(port=fake.port, timeout=10) as c:
                c.shutdown()  # must not raise

    def test_real_shutdown_still_reports_success(self, recorder):
        srv = _server().start()
        with ServiceClient(**srv.address) as c:
            c.shutdown()
        srv._thread.join(timeout=10)
        assert not srv._thread.is_alive()

    def test_server_closing_mid_watch_ends_cleanly(self, recorder):
        # A watcher whose server goes away mid-stream must get either
        # the in-memory failure notification ("server stopped") or a
        # clean ReproError on the closed connection — never a hang or a
        # raw traceback.
        recorder.gate = threading.Event()
        srv = _server(workers=1).start()
        try:
            with ServiceClient(**srv.address) as c:
                sub = c.submit(recorder.name, {"x": 21}, wait=False)
                stream = c.watch(sub["job"]["id"])
                assert next(stream).get("event") == "queued"
                srv.stop()
                recorder.gate.set()
                try:
                    rest = list(stream)
                except ReproError:
                    rest = None  # connection died first: fine
                if rest is not None:
                    last = rest[-1]
                    assert last.get("done") or last.get("event") == "failed"
                    if last.get("done"):
                        assert last["job"]["state"] == "failed"
                        assert "server stopped" in last["job"]["error"]
        finally:
            recorder.gate.set()
            srv.stop()


class TestClientReconnect:
    """retries= survives a server restart (content keys make it safe)."""

    def test_submit_reconnects_after_restart(self, recorder, tmp_path):
        sock = str(tmp_path / "svc.sock")
        first = _server(socket_path=sock).start()
        try:
            c = ServiceClient(socket_path=sock, retries=4, backoff=0.05)
            assert c.submit(recorder.name, {"x": 2})["job"]["state"] == "done"
            first.stop()
            second = _server(socket_path=sock).start()
            try:
                # Same connection object: the retry layer reconnects.
                resp = c.submit(recorder.name, {"x": 2})
                assert resp["job"]["result"]["doubled"] == 4
                assert resp["disposition"] == "cached"  # at-rest dedup
            finally:
                c.close()
                second.stop()
        finally:
            first.stop()
        assert len(recorder.calls) == 1  # the restart recomputed nothing

    def test_wait_reattaches_by_resubmitting_spec(self, recorder, tmp_path):
        sock = str(tmp_path / "svc.sock")
        first = _server(socket_path=sock).start()
        try:
            c = ServiceClient(socket_path=sock, retries=4, backoff=0.05)
            sub = c.submit(recorder.name, {"x": 3}, wait=False)
            job_id = sub["job"]["id"]
            c.wait(job_id, timeout=30)
            first.stop()
            second = _server(socket_path=sock).start()
            try:
                # The new server never heard of job_id; the client
                # resubmits the remembered spec, which is a cache hit.
                resp = c.wait(job_id, timeout=30)
                assert resp["job"]["result"]["doubled"] == 6
            finally:
                c.close()
                second.stop()
        finally:
            first.stop()
        assert len(recorder.calls) == 1

    def test_watch_reattaches_after_restart(self, recorder, tmp_path):
        sock = str(tmp_path / "svc.sock")
        first = _server(socket_path=sock).start()
        try:
            c = ServiceClient(socket_path=sock, retries=4, backoff=0.05)
            sub = c.submit(recorder.name, {"x": 5}, wait=False)
            job_id = sub["job"]["id"]
            c.wait(job_id, timeout=30)
            first.stop()
            second = _server(socket_path=sock).start()
            try:
                events = list(c.watch(job_id))
                assert events[-1]["done"] is True
                assert events[-1]["job"]["result"]["doubled"] == 10
            finally:
                c.close()
                second.stop()
        finally:
            first.stop()

    def test_no_retries_still_fails_fast(self, recorder, tmp_path):
        # The client connects just before stop(), so its connection may
        # still be mid-accept: stop() must hand it EOF, not leave it to
        # the client's 300 s socket timeout.
        sock = str(tmp_path / "svc.sock")
        srv = _server(socket_path=sock).start()
        c = ServiceClient(socket_path=sock)
        t0 = time.monotonic()
        srv.stop()
        with pytest.raises(ReproError):
            c.submit(recorder.name, {"x": 1})
        c.close()
        assert time.monotonic() - t0 < 2.0


class TestJobKinds:
    def test_resolve_is_deterministic_and_param_sensitive(self):
        k1, p1 = jobs_mod.resolve_job("curve", {"benchmark": "crc32"})
        k2, _ = jobs_mod.resolve_job("curve", {"benchmark": "crc32"})
        k3, _ = jobs_mod.resolve_job(
            "curve", {"benchmark": "crc32", "objective": "wcet"}
        )
        k4, _ = jobs_mod.resolve_job("curve", {"benchmark": "sha"})
        assert k1 == k2
        assert len({k1, k3, k4}) == 3
        assert p1["objective"] == "avg"  # defaults are normalized in

    def test_reconfig_key_names_the_resolved_area_and_rho(self):
        """Spelling out the defaults is the same job (benchmark-derived
        loops default to MaxA 2048 and rho 15)."""
        bench = {"benchmarks": ["crc32"]}
        explicit = dict(bench, max_area=2048.0, rho=15.0)
        assert (
            jobs_mod.resolve_job("reconfig", bench)[0]
            == jobs_mod.resolve_job("reconfig", explicit)[0]
            != jobs_mod.resolve_job("reconfig", dict(bench, rho=16.0))[0]
        )

    def test_mtreconfig_resolve_builds_no_tasks(self, monkeypatch):
        """Resolving runs on the server's event loop: a benchmarks request
        is keyed on program fingerprints, never on the built task set."""
        import repro.mtreconfig
        import repro.mtreconfig.workload

        def refuse(*args, **kwargs):
            raise AssertionError("resolve_job built the task set")

        for module in (repro.mtreconfig, repro.mtreconfig.workload):
            monkeypatch.setattr(module, "tasks_from_benchmarks", refuse)
        params = {"benchmarks": ["sha", "blowfish"]}
        key, norm = jobs_mod.resolve_job("mtreconfig", params)
        assert key == jobs_mod.resolve_job("mtreconfig", dict(params))[0]
        assert norm["fabric_area"] is None and norm["rho"] is None
        others = [
            dict(params, utilization=1.1),
            dict(params, solver="static"),
            dict(params, fabric_area=2000.0),
            dict(params, rho=5.0),
            {"benchmarks": ["sha"]},
        ]
        keys = {jobs_mod.resolve_job("mtreconfig", p)[0] for p in others}
        assert len(keys | {key}) == len(others) + 1

    def test_every_builtin_kind_resolves(self):
        for kind in ("identify", "curve", "pareto", "mlgp", "mtreconfig"):
            params = (
                {"benchmark": "crc32"}
                if kind in ("identify", "curve")
                else {"benchmarks": ["crc32"]}
            )
            if kind == "mtreconfig":
                params = {"benchmarks": [], "tasks": 4}
            key, norm = jobs_mod.resolve_job(kind, params)
            assert key and isinstance(norm, dict)
        key, norm = jobs_mod.resolve_job("reconfig", {})
        assert key

    def test_curve_compute_matches_direct_build(self):
        from repro.core import build_task
        from repro.workloads import get_program

        _, params = jobs_mod.resolve_job("curve", {"benchmark": "crc32"})
        out = jobs_mod.compute_job("curve", params)
        task = build_task(get_program("crc32"))
        assert out["wcet"] == task.wcet
        assert out["configurations"] == [
            [c.area, c.cycles] for c in task.configurations
        ]
