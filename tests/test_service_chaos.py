"""Chaos harness for the durable service (:mod:`repro.service`).

Three failure families, escalating in realism:

* **journal semantics** — unit tests of :mod:`repro.service.journal`:
  replay, torn-tail/garbage truncation, compaction, fsync lag,
  unserializable params;
* **in-process chaos** — :class:`ServerThread` servers with stand-in
  pools and directly-written journals: retry budgets, graceful drain,
  recovered-job-as-cache-hit;
* **subprocess chaos** — a real ``repro serve`` process SIGKILLed
  mid-flight (journal recovery, client retry/backoff across the
  restart) and SIGTERMed (graceful drain).

Subprocess servers run ``--inline`` so the chaos job kind registered by
the launcher script resolves inside the serving process without pool
bootstrapping; the pool-path chaos (worker SIGKILL, retry budget) is
covered by the in-process tests.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import cache, parallel
from repro.errors import ReproError
from repro import jobs as jobs_mod
from repro.service.client import ServiceClient
from repro.service.journal import JobJournal, replay_journal
from repro.service.server import ServerThread

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture(autouse=True)
def fresh_cache():
    cache.set_enabled(True)
    cache.set_cache_dir(None)
    cache.clear()
    yield
    cache.set_enabled(True)
    cache.reset_cache_dir()
    cache.clear()


# ---------------------------------------------------------------------------
# Journal semantics
# ---------------------------------------------------------------------------
class TestJournalReplay:
    def test_missing_file_is_an_empty_journal(self, tmp_path):
        live, stats = replay_journal(str(tmp_path / "absent.jsonl"))
        assert live == []
        assert stats == {
            "records": 0, "bad_offset": None, "truncated_bytes": 0,
        }

    def test_live_set_is_submits_without_terminal_records(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = JobJournal(path, fsync_every=1)
        j.open()
        j.record_submitted("k1", "curve", {"x": 1})
        j.record_submitted("k2", "curve", {"x": 2})
        j.record_started("k1")
        j.record_done("k1")
        j.record_submitted("k3", "curve", {"x": 3})
        j.record_failed("k3", "boom")
        # No close(): simulate the process dying here.
        live, stats = replay_journal(path)
        assert [rec["key"] for rec in live] == ["k2"]
        assert stats["truncated_bytes"] == 0

    def test_torn_tail_is_truncated_on_disk(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = JobJournal(path, fsync_every=1)
        j.open()
        j.record_submitted("k1", "curve", {"x": 1})
        j.close()
        with open(path, "ab") as fh:  # a crash mid-append: no newline
            fh.write(b'{"rec": "done", "key": "k1"')
        good = os.path.getsize(path) - len(b'{"rec": "done", "key": "k1"')
        live, stats = replay_journal(path)
        assert [rec["key"] for rec in live] == ["k1"]
        assert stats["truncated_bytes"] > 0
        assert os.path.getsize(path) == good  # bad bytes are gone

    def test_records_after_corruption_are_dropped(self, tmp_path):
        # A valid-looking suffix after garbage cannot be trusted to be
        # ordered: replay keeps only the good prefix.
        path = str(tmp_path / "j.jsonl")
        j = JobJournal(path, fsync_every=1)
        j.open()
        j.record_submitted("k1", "curve", {"x": 1})
        j.close()
        rec = {"rec": "submitted", "key": "k2", "kind": "curve",
               "params": {"x": 2}}
        with open(path, "ab") as fh:
            fh.write(b"\x00\xffgarbage\n")
            fh.write(json.dumps(rec).encode() + b"\n")
        live, stats = replay_journal(path)
        assert [r["key"] for r in live] == ["k1"]
        assert stats["truncated_bytes"] > 0

    def test_open_compacts_and_appends_after_corruption(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = JobJournal(path, fsync_every=1)
        j.open()
        j.record_submitted("k1", "curve", {"x": 1})
        j.close()
        with open(path, "ab") as fh:
            fh.write(b"not json at all\n")
        j2 = JobJournal(path, fsync_every=1)
        replayed = j2.open()
        assert [rec["key"] for rec in replayed] == ["k1"]
        assert j2.truncated_bytes > 0
        j2.record_done("k1")  # the journal stays usable after surgery
        j2.close()
        live, _ = replay_journal(path)
        assert live == []

    def test_unserializable_params_skip_journaling(self, tmp_path):
        j = JobJournal(str(tmp_path / "j.jsonl"), fsync_every=1)
        j.open()
        assert j.record_submitted("k1", "curve", {"x": object()}) is False
        assert j.record_submitted("k2", "curve", {"x": 2}) is True
        j.close()
        live, _ = replay_journal(j.path)
        assert [rec["key"] for rec in live] == ["k2"]

    def test_compaction_bounds_the_file(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = JobJournal(path, fsync_every=1, compact_every=16)
        j.open()
        for i in range(40):  # 80 appends >> compact_every
            j.record_submitted(f"k{i}", "curve", {"x": i})
            j.record_done(f"k{i}")
        j.record_submitted("tail", "curve", {"x": -1})
        j.close()
        assert j.compactions >= 2
        live, stats = replay_journal(path)
        assert [rec["key"] for rec in live] == ["tail"]
        # The file holds the records since the last checkpoint, not the
        # full history.
        assert stats["records"] < 20

    def test_fsync_lag_is_reported_and_clearable(self, tmp_path):
        j = JobJournal(str(tmp_path / "j.jsonl"), fsync_every=100)
        j.open()
        for i in range(3):
            j.record_submitted(f"k{i}", "curve", {"x": i})
        assert j.lag() == 3
        j.sync()
        assert j.lag() == 0
        assert j.stats()["live"] == 3
        j.close()


# ---------------------------------------------------------------------------
# In-process chaos
# ---------------------------------------------------------------------------
class _Kind:
    """A test-local job kind with an optional gate and call count.

    ``running`` is set once a computation has started (before it waits
    on the gate), so tests can wait for it instead of polling.
    """

    def __init__(self, name: str):
        self.name = name
        self.calls: list[dict] = []
        self.gate: threading.Event | None = None
        self.running = threading.Event()
        self._lock = threading.Lock()
        jobs_mod.register_kind(name, self._resolve, self._compute)

    def _resolve(self, params):
        x = params.get("x", 0)
        return f"svc-chaos-{self.name}-{x}", {"x": x}

    def _compute(self, params):
        with self._lock:
            self.calls.append(dict(params))
        self.running.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=30)
        return {"x": params["x"], "tripled": params["x"] * 3}


@pytest.fixture
def kind(request):
    name = f"chaos-{request.node.name}"[:48]
    k = _Kind(name)
    yield k
    jobs_mod.JOB_KINDS.pop(name, None)


class TestCrashRecovery:
    def test_journaled_jobs_replay_and_complete(self, kind, tmp_path):
        # Forge the journal a crashed server would have left: two
        # submitted records, no terminal records.
        journal = str(tmp_path / "j.jsonl")
        j = JobJournal(journal, fsync_every=1)
        j.open()
        for x in (1, 2):
            key, norm = kind._resolve({"x": x})
            j.record_submitted(key, kind.name, norm)
        j.close()

        srv = ServerThread(journal=journal, use_processes=False).start()
        try:
            with ServiceClient(**srv.address) as c:
                # Replay finishes before start() returns, so both jobs
                # are listed; wait for each to reach its terminal state.
                replayed = c.jobs()
                assert len(replayed) == 2
                for job in replayed:
                    c.wait(job["id"], timeout=30)
                stats = c.stats()
                # Submitting the same work again is served at rest.
                resp = c.submit(kind.name, {"x": 1})
        finally:
            srv.stop()
        assert stats["counters"]["recovered"] == 2
        assert stats["counters"]["computed"] == 2
        assert resp["disposition"] == "cached"
        assert resp["job"]["result"]["tripled"] == 3
        assert len(kind.calls) == 2  # exactly once each
        live, _ = replay_journal(journal)
        assert live == []  # terminal records landed

    def test_recovered_completed_job_is_a_cache_hit(self, kind, tmp_path):
        # The crash lost the `done` record but the result reached the
        # at-rest store: replay must land as a hit, not a recompute —
        # and must write the missing terminal record.
        journal = str(tmp_path / "j.jsonl")
        key, norm = kind._resolve({"x": 5})
        cache.store_service_result(key, {"x": 5, "tripled": 15})
        j = JobJournal(journal, fsync_every=1)
        j.open()
        j.record_submitted(key, kind.name, norm)
        j.close()

        srv = ServerThread(journal=journal, use_processes=False).start()
        try:
            with ServiceClient(**srv.address) as c:
                stats = c.stats()
        finally:
            srv.stop()
        assert stats["counters"]["recovered"] == 1
        assert stats["counters"]["result_hits"] == 1
        assert stats["counters"]["computed"] == 0
        assert kind.calls == []
        live, _ = replay_journal(journal)
        assert live == []

    def test_unknown_kind_replay_fails_durably(self, tmp_path):
        # A journal from an older deployment may reference kinds this
        # server no longer registers: the record must turn terminal
        # instead of replaying (and warning) forever.
        journal = str(tmp_path / "j.jsonl")
        j = JobJournal(journal, fsync_every=1)
        j.open()
        j.record_submitted("stale-key", "no-such-kind", {"x": 1})
        j.close()
        srv = ServerThread(journal=journal, use_processes=False).start()
        try:
            with ServiceClient(**srv.address) as c:
                stats = c.stats()
        finally:
            srv.stop()
        assert stats["counters"]["recovered"] == 0
        live, _ = replay_journal(journal)
        assert live == []


    @staticmethod
    def _replay_fails_durably(tmp_path, engines):
        """Journal one ``identify`` record per engine value; the server
        must start healthy, fail each record terminally once (the kind
        rejects ``engine`` as an unknown parameter), and replay none of
        them on the next start."""
        from repro import obs

        journal = str(tmp_path / "j.jsonl")
        keys = [f"svc-identify-crc32-{engine}" for engine in engines]
        j = JobJournal(journal, fsync_every=1)
        j.open()
        for key, engine in zip(keys, engines):
            j.record_submitted(
                key,
                "identify",
                {"benchmark": "crc32", "max_inputs": 4, "max_outputs": 2,
                 "engine": engine},
            )
        j.close()

        obs.reset()
        srv = ServerThread(journal=journal, use_processes=False).start()
        try:
            with ServiceClient(**srv.address) as c:
                health = c.health()
        finally:
            srv.stop()
        assert health["accepting"] is True
        assert health["counters"]["recovered"] == 0
        counters = obs.metrics_snapshot()["counters"]
        assert counters.get("service.journal.replay_failed") == len(keys)
        with open(journal, "rb") as fh:
            records = [json.loads(line) for line in fh]
        failed = [r for r in records if r["rec"] == "failed"]
        assert sorted(r["key"] for r in failed) == sorted(keys)
        for rec in failed:
            assert "unknown parameter(s) for 'identify': engine" in rec["error"]

        srv2 = ServerThread(journal=journal, use_processes=False).start()
        srv2.stop()
        assert srv2.server.counters["recovered"] == 0
        counters = obs.metrics_snapshot()["counters"]
        assert counters.get("service.journal.replay_failed") == len(keys)
        live, _ = replay_journal(journal)
        assert live == []

    def test_retired_engine_replay_fails_durably(self, tmp_path):
        # An older server accepted engines this one no longer ships
        # ("auto" and "bitset" among them) and journaled such jobs.
        self._replay_fails_durably(tmp_path, ("auto", "bitset"))

    def test_engine_param_replay_fails_durably(self, tmp_path):
        # Servers that still took an engine on 'identify' journaled the
        # normalized default, engine "fast"; the kind now takes none.
        self._replay_fails_durably(tmp_path, ("fast",))


class TestDrain:
    def test_drain_finishes_running_and_journals_queued(self, kind, tmp_path):
        import asyncio

        journal = str(tmp_path / "j.jsonl")
        kind.gate = threading.Event()
        srv = ServerThread(
            journal=journal, use_processes=False, workers=1
        ).start()

        async def drain_then_release():
            # The drain marks the server draining before its first await;
            # release the running job only then, so it finishes inside
            # the drain window and the queued job can no longer start.
            drain = asyncio.ensure_future(srv.server.drain(timeout=10))
            await asyncio.sleep(0)
            assert srv.server._draining
            kind.gate.set()
            await drain

        try:
            with ServiceClient(**srv.address) as c:
                c.submit(kind.name, {"x": 1}, wait=False)  # runs, gated
                assert kind.running.wait(timeout=10)
                c.submit(kind.name, {"x": 2}, wait=False)  # stays queued
                health = c.health()
                assert health["accepting"] is True
            asyncio.run_coroutine_threadsafe(
                drain_then_release(), srv._loop
            ).result(timeout=30)
            srv._thread.join(timeout=10)  # as ServerThread.drain does
        finally:
            kind.gate.set()
            srv.stop()
        counters = srv.server.counters
        assert counters["drained"] == 1  # only the queued job
        assert len(kind.calls) == 1  # the queued job never started
        live, _ = replay_journal(journal)
        assert [rec["key"] for rec in live] == [kind._resolve({"x": 2})[0]]

        # The next start picks the drained job up and runs it to its
        # terminal state (and terminal journal record).
        srv2 = ServerThread(journal=journal, use_processes=False).start()
        try:
            with ServiceClient(**srv2.address) as c:
                (replayed,) = c.jobs()
                done = c.wait(replayed["id"], timeout=30)
        finally:
            srv2.stop()
        assert done["job"]["state"] == "done"
        assert srv2.server.counters["recovered"] == 1
        assert len(kind.calls) == 2
        live, _ = replay_journal(journal)
        assert live == []

    def test_draining_server_rejects_submits_as_retryable(self, kind):
        from repro.service.client import ServiceBusyError

        kind.gate = threading.Event()
        srv = ServerThread(use_processes=False, workers=1).start()
        try:
            with ServiceClient(**srv.address) as c:
                c.submit(kind.name, {"x": 1}, wait=False)
                deadline = time.time() + 10
                while not kind.calls and time.time() < deadline:
                    time.sleep(0.01)
                # Start the drain without waiting for it, then poke the
                # draining server from a fresh connection.
                import asyncio

                asyncio.run_coroutine_threadsafe(
                    srv.server.drain(timeout=5), srv._loop
                )
                deadline = time.time() + 5
                while not srv.server._draining and time.time() < deadline:
                    time.sleep(0.01)
                with ServiceClient(**srv.address) as c2:
                    with pytest.raises(ServiceBusyError, match="draining"):
                        c2.submit(kind.name, {"x": 9})
        finally:
            kind.gate.set()
            srv.stop()


    def test_stop_right_after_start_stops_the_thread(self):
        # stop() issued the moment start() returns must find the server
        # serving and end the thread, in every one of many tries.
        for _ in range(30):
            srv = ServerThread(use_processes=False).start()
            srv.stop(timeout=5)
            assert not srv._thread.is_alive()

    @pytest.mark.parametrize("hold", ("before_close", "after_close"))
    def test_stop_after_serving_ended_leaves_no_coroutine(
        self, hold, monkeypatch
    ):
        # ServerThread.stop racing the thread's exit: serving has already
        # ended (here through the shutdown op), so the loop will not turn
        # again, yet the thread is still alive.  The thread is held there
        # deterministically, just before or just after its loop closes;
        # stop() must neither raise nor drop a never-awaited coroutine.
        import asyncio
        import gc
        import warnings

        ended, release = threading.Event(), threading.Event()
        real_new_loop = asyncio.new_event_loop

        def held_loop():
            loop = real_new_loop()
            real_close = loop.close

            def close():
                if hold == "after_close":
                    real_close()
                ended.set()
                release.wait(timeout=10)
                if hold == "before_close":
                    real_close()

            loop.close = close
            return loop

        monkeypatch.setattr(asyncio, "new_event_loop", held_loop)
        srv = ServerThread(use_processes=False).start()
        try:
            with ServiceClient(**srv.address) as c:
                c.shutdown()
            assert ended.wait(timeout=10)
            assert srv._thread.is_alive()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                srv.stop(timeout=0)
                release.set()
                srv._thread.join(timeout=10)
                gc.collect()
        finally:
            release.set()
            srv.stop()
        assert not srv._thread.is_alive()
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert runtime == [], [str(w.message) for w in runtime]


class TestRetryBudget:
    @staticmethod
    def _thread_pools(srv):
        from concurrent.futures import ThreadPoolExecutor

        srv.server._pool = ThreadPoolExecutor(max_workers=1)
        srv.server._new_pool = lambda: ThreadPoolExecutor(max_workers=1)

    def test_budget_exhaustion_fails_the_job(self, kind):
        from concurrent.futures.process import BrokenProcessPool

        def compute(params):
            kind.calls.append(dict(params))
            raise BrokenProcessPool("worker OOM-killed")

        jobs_mod.register_kind(kind.name, kind._resolve, compute)
        srv = ServerThread(use_processes=False, retries=1).start()
        try:
            self._thread_pools(srv)
            with ServiceClient(**srv.address) as c:
                with pytest.raises(ReproError, match="retry budget"):
                    c.submit(kind.name, {"x": 4})
                stats = c.stats()
        finally:
            srv.stop()
        assert len(kind.calls) == 2  # first attempt + 1 retry
        assert stats["counters"]["retried"] == 1
        assert stats["counters"]["pool_failures"] == 2
        assert stats["counters"]["failed"] == 1

    def test_zero_budget_fails_on_first_worker_death(self, kind):
        from concurrent.futures.process import BrokenProcessPool

        def compute(params):
            kind.calls.append(dict(params))
            raise BrokenProcessPool("worker died")

        jobs_mod.register_kind(kind.name, kind._resolve, compute)
        srv = ServerThread(use_processes=False, retries=0).start()
        try:
            self._thread_pools(srv)
            with ServiceClient(**srv.address) as c:
                with pytest.raises(ReproError, match="retry budget"):
                    c.submit(kind.name, {"x": 4})
                stats = c.stats()
        finally:
            srv.stop()
        assert len(kind.calls) == 1
        assert stats["counters"]["retried"] == 0

    @pytest.mark.skipif(
        not parallel.pool_allowed()
        or multiprocessing.get_start_method() != "fork",
        reason="needs a real fork-based process pool",
    )
    def test_sigkilled_pool_worker_retries_then_succeeds(
        self, kind, tmp_path
    ):
        # The real thing: the job SIGKILLs its own pool worker on the
        # first attempt (marker file arbitrates), which the server sees
        # as BrokenProcessPool; the retry on the replaced pool succeeds.
        marker = str(tmp_path / "died-once")

        def compute(params):
            if not os.path.exists(marker):
                with open(marker, "w") as fh:
                    fh.write("x")
                os.kill(os.getpid(), signal.SIGKILL)
            return {"x": params["x"], "survived": True}

        jobs_mod.register_kind(kind.name, kind._resolve, compute)
        srv = ServerThread(use_processes=True, workers=1, retries=2).start()
        try:
            with ServiceClient(**srv.address) as c:
                resp = c.submit(kind.name, {"x": 6}, timeout=60)
                stats = c.stats()
        finally:
            srv.stop()
        assert resp["job"]["result"]["survived"] is True
        assert stats["counters"]["retried"] >= 1
        assert stats["counters"]["pool_failures"] >= 1
        assert stats["counters"]["failed"] == 0


# ---------------------------------------------------------------------------
# Subprocess chaos: a real `repro serve` killed and restarted
# ---------------------------------------------------------------------------
_LAUNCHER = """\
import sys
sys.path.insert(0, sys.argv.pop(1))
import time
from repro import jobs

def _resolve(params):
    x = int(params.get("x", 0))
    delay = float(params.get("delay", 0.0))
    return f"svc-subproc-chaos-{x}-{delay}", {"x": x, "delay": delay}

def _compute(params):
    time.sleep(params["delay"])
    return {"x": params["x"], "squared": params["x"] ** 2}

jobs.register_kind("chaos", _resolve, _compute)

from repro.cli import main
sys.argv[0] = "repro"
sys.exit(main())
"""


class _Server:
    """One `repro serve` subprocess with the chaos kind registered."""

    def __init__(self, tmp_path, cache_dir):
        self.tmp = tmp_path
        self.socket = str(tmp_path / "svc.sock")
        self.journal = str(tmp_path / "journal.jsonl")
        self.script = str(tmp_path / "launcher.py")
        with open(self.script, "w") as fh:
            fh.write(_LAUNCHER)
        self.env = {
            **os.environ,
            "PYTHONPATH": SRC,
            "REPRO_CACHE_DIR": cache_dir,
        }
        self.proc: subprocess.Popen | None = None

    def start(self, drain_timeout=10.0):
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        self.proc = subprocess.Popen(
            [
                sys.executable, self.script, SRC, "serve",
                "--socket", self.socket, "--journal", self.journal,
                "--inline", "--workers", "2",
                "--drain-timeout", str(drain_timeout),
            ],
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        return self

    def wait_healthy(self, timeout=30.0) -> dict:
        """Readiness-gate on the health op, as the CI smoke does."""
        deadline = time.time() + timeout
        last: Exception | None = None
        while time.time() < deadline:
            if self.proc is not None and self.proc.poll() is not None:
                err = self.proc.stderr.read().decode(errors="replace")
                raise AssertionError(
                    f"server exited {self.proc.returncode}: {err}"
                )
            try:
                with self.client() as c:
                    health = c.health()
                if health.get("accepting"):
                    return health
            except ReproError as exc:
                last = exc
            time.sleep(0.05)
        raise AssertionError(f"server never became healthy: {last}")

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient(socket_path=self.socket, **kwargs)

    def sigkill(self):
        self.proc.kill()
        self.proc.wait(timeout=10)

    def sigterm(self) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=30)

    def stop(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


class TestSubprocessChaos:
    def test_sigkill_midflight_then_journal_recovery(self, tmp_path):
        srv = _Server(tmp_path, str(tmp_path / "cache")).start()
        try:
            srv.wait_healthy()
            with srv.client() as c:
                done = c.submit("chaos", {"x": 2, "delay": 0.0})
                assert done["job"]["result"]["squared"] == 4
                c.submit("chaos", {"x": 3, "delay": 5.0}, wait=False)
                c.submit("chaos", {"x": 4, "delay": 5.0}, wait=False)
                deadline = time.time() + 10
                while time.time() < deadline:
                    if c.health()["running"] >= 2:
                        break
                    time.sleep(0.02)
            srv.sigkill()  # mid-flight: both slow jobs are running

            # SIGKILL never reached the journal: the two unfinished
            # submits are live (flushed to the OS, no fsync needed for
            # a process kill), the completed one is terminal.
            live, _ = replay_journal(srv.journal)
            assert {rec["params"]["x"] for rec in live} == {3, 4}

            srv.start()
            srv.wait_healthy()
            with srv.client() as c:
                deadline = time.time() + 60
                while time.time() < deadline:
                    health = c.health()
                    if (
                        health["counters"]["recovered"] == 2
                        and health["inflight"] == 0
                    ):
                        break
                    time.sleep(0.1)
                health = c.health()
                assert health["counters"]["recovered"] == 2
                # Exactly once: the replayed jobs computed here, and
                # nothing recomputed the job that finished pre-crash.
                assert health["counters"]["computed"] == 2
                again = c.submit("chaos", {"x": 2, "delay": 0.0})
                assert again["disposition"] == "cached"
                assert c.health()["counters"]["computed"] == 2
                c.shutdown()
        finally:
            srv.stop()

    def test_client_submit_survives_restart(self, tmp_path):
        srv = _Server(tmp_path, str(tmp_path / "cache")).start()
        try:
            srv.wait_healthy()
            restarted = threading.Event()

            def chaos_monkey():
                time.sleep(0.5)
                srv.sigkill()
                time.sleep(0.3)
                srv.start()
                restarted.set()

            monkey = threading.Thread(target=chaos_monkey)
            monkey.start()
            try:
                with srv.client(retries=20, backoff=0.2) as c:
                    # Sent to the first server, killed mid-wait; the
                    # retry layer reconnects and resubmits (idempotent
                    # by content key) against the restarted server.
                    resp = c.submit("chaos", {"x": 7, "delay": 2.0})
            finally:
                monkey.join(timeout=30)
            assert restarted.is_set()
            assert resp["job"]["result"]["squared"] == 49
            with srv.client() as c:
                c.shutdown()
        finally:
            srv.stop()

    def test_sigterm_drains_gracefully(self, tmp_path):
        srv = _Server(tmp_path, str(tmp_path / "cache")).start(
            drain_timeout=15.0
        )
        try:
            srv.wait_healthy()
            with srv.client() as c:
                c.submit("chaos", {"x": 5, "delay": 1.0}, wait=False)
                deadline = time.time() + 10
                while time.time() < deadline:
                    if c.health()["running"] >= 1:
                        break
                    time.sleep(0.02)
            rc = srv.sigterm()
            assert rc == 0  # drained, not crashed
            # The running job finished inside the drain window and its
            # terminal record landed: nothing is left to replay.
            live, _ = replay_journal(srv.journal)
            assert live == []
            # And the result is servable at rest after a restart.
            srv.start()
            srv.wait_healthy()
            with srv.client() as c:
                resp = c.submit("chaos", {"x": 5, "delay": 1.0})
                assert resp["disposition"] == "cached"
                assert resp["job"]["result"]["squared"] == 25
                c.shutdown()
        finally:
            srv.stop()

    def test_garbled_journal_degrades_gracefully(self, tmp_path):
        # Seed a journal with one good record and a garbage tail; the
        # server must start, warn, truncate and recover the prefix.
        srv = _Server(tmp_path, str(tmp_path / "cache"))
        j = JobJournal(srv.journal, fsync_every=1)
        j.open()
        key = "svc-subproc-chaos-9-0.0"
        j.record_submitted(key, "chaos", {"x": 9, "delay": 0.0})
        j.close()
        with open(srv.journal, "ab") as fh:
            fh.write(b"\xde\xad\xbe\xef not a record")
        srv.start()
        try:
            srv.wait_healthy()
            with srv.client() as c:
                deadline = time.time() + 30
                while time.time() < deadline:
                    health = c.health()
                    if health["inflight"] == 0:
                        break
                    time.sleep(0.05)
                assert health["counters"]["recovered"] == 1
                resp = c.submit("chaos", {"x": 9, "delay": 0.0})
                assert resp["disposition"] == "cached"
                assert resp["job"]["result"]["squared"] == 81
                c.shutdown()
        finally:
            srv.stop()
