"""The asyncio job server: bounded priority queue, coalescing, workers.

Request lifecycle
-----------------

``submit(kind, params, priority)`` resolves the request to its
content-addressed key (:func:`repro.jobs.resolve_job`) and then
dedupes **twice** before any work is queued:

1. **in-flight coalescing** — an identical request already queued or
   running returns that job; N concurrent submits await one computation
   (counter ``service.coalesced``);
2. **at-rest hit** — a completed result stored behind the same key in the
   artifact cache's ``service`` kind (in-process LRU + the persistent
   tier, so server restarts and other processes on the host sharing a
   cache directory are covered) materializes a done job without touching
   the queue (counter ``service.result_hits``).

Everything else enters a bounded :class:`asyncio.PriorityQueue` (higher
``priority`` runs earlier; FIFO within a priority level; a full queue
rejects the submit — backpressure instead of unbounded memory) and is
picked up by one of ``workers`` async consumers.

Jobs run in a :class:`~concurrent.futures.ProcessPoolExecutor` when
process pools are allowed (:func:`pool_allowed`: more than one core and
``REPRO_NO_PROCESS_POOL`` unset); otherwise inline.  A broken pool
(worker OOM-killed — ``BrokenProcessPool``) is *infrastructure*, not the
job: the failing job retries inline (never lost), the broken executor is
replaced with a fresh one for subsequent jobs, and only when no pool can
be created (denied at start, or the replacement fails) does the server
degrade to inline thread execution — each with a once-per-epoch warning
and a ``service.pool_failures`` counter.  Exceptions raised *by the job*
(including OSError subclasses) fail that job only; they never touch the
pool.  ``job_timeout`` is a hard per-job deadline: on expiry the job
fails with a labelled timeout (counter ``service.timeouts``); it is
never silently extended and never mistaken for a pool failure.

Pool workers capture their :mod:`repro.obs` spans and metric deltas
(:func:`_pool_entry`); the server merges them on
completion, so worker cache-hit counters and per-stage spans stay visible
in the server's ``--trace``/``--metrics`` view and each job's ``spans``
event streams the per-stage timings to watchers.

Durability and self-healing
---------------------------

With ``journal=`` the server keeps a **write-ahead job journal**
(:class:`repro.service.journal.JobJournal`): queued jobs are journaled as
``submitted``, workers append ``started``, and :meth:`JobServer._finish`
appends the terminal record.  On startup the journal is replayed and
every non-terminal job resubmitted (counter ``service.recovered``) —
exactly-once because jobs are content-keyed, so a job that completed
before the crash replays as an at-rest cache hit.  In-memory failures
that only mean "this server is going away" (stop, drain) are *not*
journaled, so those jobs stay replayable.

Per-job transient failures get a **retry budget**: a job whose pool
worker dies (``BrokenProcessPool``) is retried on the replaced pool up
to ``retries`` times (counter ``service.retried``) before being failed —
a job that *keeps* killing its worker (OOM) must not retry forever, and
must never retry inline where it would take the server down with it.

:meth:`JobServer.drain` is the graceful path (``repro serve`` wires it
to SIGTERM/SIGINT): new submits are rejected with a retryable
``draining`` error, running jobs get ``drain_timeout`` seconds to
finish, and whatever remains is left non-terminal in the journal for the
next start, with watchers/waiters woken by a non-durable ``draining:``
failure.  The ``health`` op reports queue depth, pool state, journal lag
and uptime — the readiness probe for orchestration and CI.

Transport: JSON lines over a unix socket (``start_unix``) or localhost
TCP (``start_tcp``); one request object per line, one response per line
(``watch`` streams multiple).  :class:`ServerThread` runs the whole
server on a background thread for tests, benchmarks and embedding.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from repro import cache, obs
from repro import jobs as jobs_mod
from repro.errors import ReproError
from repro.service.journal import JobJournal

__all__ = [
    "DrainingError",
    "Job",
    "JobServer",
    "QueueFullError",
    "ServerThread",
]

logger = logging.getLogger("repro.service")

#: Terminal job states.
_DONE_STATES = ("done", "failed")

#: Error prefix for jobs failed in-memory by a drain; replies carrying it
#: are marked retryable so clients resubmit after the restart.
_DRAIN_ERROR = "draining:"

#: Loop cycles a connection accepted just before stop() needs to reach
#: its handler (accept task, ``connection_made``, handler start), plus one
#: to spare.
_HANDOFF_CYCLES = 4

#: Jobs remembered for ``wait``/``jobs``/``watch`` lookups; beyond this
#: many the oldest terminal ones are forgotten (results stay cached).
_HISTORY = 1024


#: Environment kill switch: run every job inline, never in a process pool
#: (chaos testing / known pool-hostile environments).
_ENV_NO_POOL = "REPRO_NO_PROCESS_POOL"


def pool_allowed() -> bool:
    """Is a process pool worth attempting in this environment?

    ``False`` on single-core hosts (no parallelism to gain) and when the
    ``REPRO_NO_PROCESS_POOL`` kill switch is set.  A ``True`` answer is
    *advisory*: pool creation can still fail at runtime, and the server
    degrades to inline execution instead of crashing.
    """
    return (os.cpu_count() or 1) > 1 and not os.environ.get(_ENV_NO_POOL)


def _pool_entry(spec: tuple[str, dict]) -> tuple[dict, dict]:
    """Process-pool wrapper: compute plus the worker's obs payload.

    The worker captures its spans and metric deltas so the server can
    merge them into its own trace/metrics view
    (:func:`repro.obs.merge_payload`; cache hit counters from workers stay
    visible).
    """
    obs.begin_child_capture()
    result = jobs_mod.compute_job(*spec)
    return result, obs.end_child_capture()


class QueueFullError(ReproError):
    """The bounded job queue rejected a submit (backpressure)."""


class DrainingError(ReproError):
    """The server is draining and no longer accepts submits."""


class Job:
    """One deduplicated unit of work and its lifecycle record."""

    __slots__ = (
        "id", "kind", "key", "params", "priority", "state", "source",
        "created", "started", "finished", "result", "error", "coalesced",
        "events", "done_event", "journaled", "retries",
    )

    def __init__(
        self, job_id: str, kind: str, key: str, params: dict, priority: int
    ) -> None:
        self.id = job_id
        self.kind = kind
        self.key = key
        self.params = params
        self.priority = priority
        self.state = "queued"
        self.source = "computed"
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.result: dict | None = None
        self.error: str | None = None
        self.coalesced = 0
        self.events: list[dict] = []
        self.done_event = asyncio.Event()
        self.journaled = False  # has a live `submitted` journal record
        self.retries = 0  # pool-worker deaths charged to this job

    def to_dict(self, include_result: bool = True) -> dict[str, Any]:
        d: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "key": self.key,
            "params": self.params,
            "priority": self.priority,
            "state": self.state,
            "source": self.source,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "coalesced": self.coalesced,
        }
        if self.error is not None:
            d["error"] = self.error
        if include_result and self.result is not None:
            d["result"] = self.result
        return d


class JobServer:
    """See the module docstring; construct, ``start()``, then serve."""

    def __init__(
        self,
        workers: int = 2,
        queue_size: int = 128,
        use_processes: bool = True,
        job_timeout: float | None = None,
        journal: str | JobJournal | None = None,
        retries: int = 2,
        drain_timeout: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ReproError("need at least one worker")
        if queue_size < 1:
            raise ReproError("queue_size must be positive")
        if retries < 0:
            raise ReproError("retries must be >= 0")
        self.workers = workers
        self.queue_size = queue_size
        self.use_processes = use_processes and pool_allowed()
        self.job_timeout = job_timeout
        self.retries = retries
        self.drain_timeout = drain_timeout
        self.started_at: float | None = None
        self.counters: dict[str, int] = {
            "submitted": 0,
            "computed": 0,
            "coalesced": 0,
            "result_hits": 0,
            "failed": 0,
            "rejected": 0,
            "timeouts": 0,
            "pool_failures": 0,
            "retried": 0,
            "recovered": 0,
            "drained": 0,
        }
        self._journal_spec = journal
        self._journal: JobJournal | None = None
        self._queue: asyncio.PriorityQueue | None = None
        self._inflight: dict[str, Job] = {}
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []  # insertion order, for history trim
        self._worker_tasks: list[asyncio.Task] = []
        self._pool: ProcessPoolExecutor | None = None
        self._endpoints: list[asyncio.AbstractServer] = []
        self._conns: set[asyncio.StreamWriter] = set()
        self._seq = itertools.count(1)
        self._stopped: asyncio.Event | None = None
        self._started = False
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Create the queue and workers, replay the journal, maybe pool."""
        if self._started:
            return
        self._queue = asyncio.PriorityQueue(maxsize=self.queue_size)
        self._stopped = asyncio.Event()
        if self.use_processes:
            try:
                self._pool = self._new_pool()
            except (OSError, PermissionError) as exc:
                self._degrade_pool(exc)
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"repro-svc-worker-{i}")
            for i in range(self.workers)
        ]
        self._started = True
        self._draining = False
        self.started_at = time.time()
        obs.inc("service.starts")
        if self._journal_spec is not None:
            await self._open_and_replay_journal()

    def _new_pool(self) -> ProcessPoolExecutor:
        """Pool factory; tests substitute thread pools here."""
        return ProcessPoolExecutor(max_workers=self.workers)

    async def _open_and_replay_journal(self) -> None:
        """Open the journal and resubmit every non-terminal job.

        Replay is crash-safe and exactly-once: the journal's open()
        truncates corruption and compacts to the live set, and replayed
        jobs are content-keyed — whatever already completed (even with
        its terminal record lost) comes back as an at-rest cache hit.
        """
        spec = self._journal_spec
        journal = spec if isinstance(spec, JobJournal) else JobJournal(str(spec))
        loop = asyncio.get_running_loop()
        replayed = await loop.run_in_executor(None, journal.open)
        self._journal = journal
        for rec in replayed:
            try:
                job, _ = await self.submit(
                    rec["kind"],
                    rec["params"],
                    priority=int(rec.get("priority", 0)),
                    _replayed=True,
                )
            except QueueFullError:
                # Still live in the journal: deferred to the next start.
                obs.inc("service.journal.replay_deferred")
            except ReproError as exc:
                # Unknown kind / params no longer resolvable: make the
                # record terminal so it stops replaying every start.
                obs.inc("service.journal.replay_failed")
                logger.warning(
                    "journal replay: dropping job %s (%s)",
                    rec.get("key"),
                    exc,
                )
                journal.record_failed(rec["key"], f"replay failed: {exc}")
            else:
                if job.key != rec["key"]:
                    # The kind's key changed since this record was
                    # written (its result layout grew): move the record
                    # to the new key so it turns terminal.
                    if job.state not in _DONE_STATES:
                        journal.record_submitted(
                            job.key, job.kind, job.params, job.priority
                        )
                    journal.record_done(rec["key"], source="rekeyed")
                self.counters["recovered"] += 1
                obs.inc("service.recovered")
        if replayed:
            logger.info(
                "journal %s: resubmitted %d non-terminal job(s)",
                journal.path,
                self.counters["recovered"],
            )

    async def start_unix(self, path: str) -> None:
        """Additionally accept the JSON-lines protocol on a unix socket."""
        await self.start()
        srv = await asyncio.start_unix_server(self._handle_conn, path=path)
        self._endpoints.append(srv)

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Accept the protocol on localhost TCP; returns the bound port."""
        await self.start()
        srv = await asyncio.start_server(self._handle_conn, host=host, port=port)
        self._endpoints.append(srv)
        return srv.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` is called (e.g. by a shutdown op)."""
        assert self._stopped is not None, "start() first"
        await self._stopped.wait()

    async def stop(self) -> None:
        """Stop accepting, cancel the workers, release the pool.

        A hard stop: in-flight jobs fail in memory with "server
        stopped", but *non-durably* — their journal records stay live,
        so a journaled server replays them on the next start.
        """
        if not self._started:
            return
        self._started = False
        # Stop accepting, then let connections the loop already accepted
        # finish their hand-off (accept -> transport -> handler, one loop
        # cycle each) before closing the endpoints: a connection still in
        # that pipeline when its server closes has its transport creation
        # fail inside asyncio, and the orphaned socket stays open until
        # garbage collection, so its client would never see EOF.
        loop = asyncio.get_running_loop()
        for srv in self._endpoints:
            for sock in srv.sockets:
                loop.remove_reader(sock.fileno())
        for _ in range(_HANDOFF_CYCLES):
            await asyncio.sleep(0)
        for srv in self._endpoints:
            srv.close()
        for srv in self._endpoints:
            try:
                await srv.wait_closed()
            except Exception:  # pragma: no cover - best-effort close
                pass
        self._endpoints.clear()
        for task in self._worker_tasks:
            task.cancel()
        for task in self._worker_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._worker_tasks.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        # Fail whatever is still marked in-flight so waiters wake up.
        for job in list(self._inflight.values()):
            if job.state not in _DONE_STATES:
                self._finish(job, error="server stopped", durable=False)
        if self._journal is not None:
            self._journal.close()
        # Give woken waiters/streams a few cycles to flush their final
        # messages, then close every remaining connection: a client must
        # see EOF (so its retry layer reconnects to the replacement
        # server), never a half-open socket abandoned with the loop.
        for _ in range(3):
            await asyncio.sleep(0)
        for writer in list(self._conns):
            try:
                writer.close()
            except Exception:  # pragma: no cover - best-effort close
                pass
        if self._stopped is not None:
            self._stopped.set()

    async def drain(self, timeout: float | None = None) -> None:
        """Graceful shutdown: reject new submits, let running jobs
        finish within *timeout* (default ``drain_timeout``) seconds,
        journal the rest, then :meth:`stop`.

        Jobs that do not finish in time fail in memory with a retryable
        ``draining:`` error (watchers and waiters wake up and can
        resubmit after the restart) but stay live in the journal, so the
        next start replays them.
        """
        if self._draining or not self._started:
            return
        self._draining = True
        obs.inc("service.drains")
        budget = self.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        logger.info(
            "draining: %d in-flight job(s), budget %.1fs",
            len(self._inflight),
            budget,
        )
        while time.monotonic() < deadline:
            if not any(
                j.state == "running" for j in self._inflight.values()
            ):
                break
            await asyncio.sleep(0.05)
        # Whatever is left — still queued, or running past the budget —
        # is failed in memory only; its journal record stays live.
        for job in list(self._inflight.values()):
            if job.state in _DONE_STATES:
                continue
            self.counters["drained"] += 1
            obs.inc("service.drained")
            self._event(job, "drained")
            self._finish(
                job,
                error=f"{_DRAIN_ERROR} job journaled for the next start",
                durable=False,
            )
        await self.stop()

    # ------------------------------------------------------------------
    # Submission: dedup, then queue
    # ------------------------------------------------------------------
    async def submit(
        self,
        kind: str,
        params: dict | None = None,
        priority: int = 0,
        _replayed: bool = False,
    ) -> tuple[Job, str]:
        """Submit a request; returns ``(job, disposition)``.

        Disposition is ``"coalesced"`` (an identical request is already
        in flight — the caller awaits that job), ``"cached"`` (served
        from the at-rest result store) or ``"queued"``.  Raises
        :class:`QueueFullError` when the bounded queue is full,
        :class:`DrainingError` while the server is draining and
        :class:`~repro.errors.ReproError` for malformed requests.

        ``_replayed`` marks journal-replay resubmits: they are already
        in the compacted journal, so they must not be journaled again.
        """
        assert self._queue is not None, "start() first"
        if self._draining and not _replayed:
            self.counters["rejected"] += 1
            obs.inc("service.rejected")
            raise DrainingError(
                "server is draining and accepts no new submits; "
                "retry after the restart"
            )
        self.counters["submitted"] += 1
        obs.inc("service.submitted")
        # Resolving parses a path-named workload to fingerprint it; the
        # pool worker parses it again (its ``workloads.load`` span).
        with obs.span("service.resolve", kind=kind):
            key, norm = jobs_mod.resolve_job(kind, params)

        inflight = self._inflight.get(key)
        if inflight is not None:
            inflight.coalesced += 1
            self.counters["coalesced"] += 1
            obs.inc("service.coalesced")
            return inflight, "coalesced"

        # Register the job in-flight *before* the at-rest lookup: the
        # lookup runs in a thread (reading a large cache directory must
        # not stall the event loop), and a concurrent identical
        # submit arriving during the await coalesces onto this job
        # instead of racing a second lookup/computation.
        job = self._new_job(kind, key, norm, priority)
        self._inflight[key] = job
        try:
            stored = await asyncio.get_running_loop().run_in_executor(
                None, cache.fetch_service_result, key
            )
        except Exception:  # noqa: BLE001 - the cache is an accelerator
            stored = None
        if stored is not None:
            self.counters["result_hits"] += 1
            obs.inc("service.result_hits")
            job.source = "store"
            job.result = stored
            # A replayed job resolving to a cache hit must still write
            # its terminal journal record, or it would replay (harmless
            # but noisy) on every future start.
            job.journaled = _replayed
            self._finish(job)  # releases the in-flight slot, wakes waiters
            return job, "cached"

        try:
            # Higher priority pops first; FIFO within one level.
            self._queue.put_nowait((-priority, next(self._seq), job))
        except asyncio.QueueFull:
            self.counters["rejected"] += 1
            obs.inc("service.rejected")
            if job.coalesced:
                # Coalesced submitters already hold this job: fail it so
                # their waits wake instead of hanging on a forgotten job.
                self._finish(
                    job,
                    error=f"job queue is full ({self.queue_size} pending)",
                )
            else:
                self._inflight.pop(key, None)
                self._forget(job)
            raise QueueFullError(
                f"job queue is full ({self.queue_size} pending); retry later"
            ) from None
        if self._journal is not None:
            # Replayed jobs already sit in the compacted journal file.
            job.journaled = _replayed or self._journal.record_submitted(
                key, kind, norm, priority
            )
        self._event(job, "queued", depth=self._queue.qsize())
        return job, "queued"

    def _new_job(self, kind: str, key: str, params: dict, priority: int) -> Job:
        job = Job(f"job-{next(self._seq)}", kind, key, params, priority)
        self._jobs[job.id] = job
        self._order.append(job.id)
        while len(self._order) > _HISTORY:
            old = self._order.pop(0)
            stale = self._jobs.get(old)
            if stale is not None and stale.state in _DONE_STATES:
                del self._jobs[old]
            else:  # still running: keep it and stop trimming
                self._order.insert(0, old)
                break
        return job

    def _forget(self, job: Job) -> None:
        self._jobs.pop(job.id, None)
        try:
            self._order.remove(job.id)
        except ValueError:
            pass

    def get_job(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            _, _, job = await self._queue.get()
            try:
                if self._draining:
                    # Don't start new work during a drain; the job stays
                    # in-flight and the drain sweep journals it for the
                    # next start.
                    continue
                await self._run(job)
            finally:
                self._queue.task_done()

    def _degrade_pool(self, exc: BaseException) -> None:
        self.counters["pool_failures"] += 1
        obs.inc("service.pool_failures")
        if obs.warn_once("service.pool_degraded"):
            logger.warning(
                "process pool unavailable (%s: %s); running jobs inline — "
                "the requested worker fan-out is degraded",
                type(exc).__name__,
                exc,
            )
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _pool_failure(self, pool: ProcessPoolExecutor, exc: BaseException) -> None:
        """One job observed a broken pool: replace it, don't degrade.

        The broken executor is discarded and a fresh pool created so one
        crashed worker never permanently downgrades the server; only when
        the replacement cannot be created does the server fall back to
        inline threads.  Concurrent observers of the same broken pool all
        land here; only the one for which it is still current swaps it.
        """
        self.counters["pool_failures"] += 1
        obs.inc("service.pool_failures")
        pool.shutdown(wait=False, cancel_futures=True)
        if self._pool is not pool:
            return
        self._pool = None
        try:
            self._pool = self._new_pool()
        except (OSError, PermissionError):
            self._pool = None
        if self._pool is None:
            if obs.warn_once("service.pool_degraded"):
                logger.warning(
                    "process pool broke (%s: %s) and could not be "
                    "replaced; running jobs inline — the requested "
                    "worker fan-out is degraded",
                    type(exc).__name__,
                    exc,
                )
        elif obs.warn_once("service.pool_replaced"):
            logger.warning(
                "process pool broke (%s: %s); replaced it — the failing "
                "job retries on the fresh pool (budget %d)",
                type(exc).__name__,
                exc,
                self.retries,
            )

    async def _run(self, job: Job) -> None:
        from concurrent.futures.process import BrokenProcessPool

        job.state = "running"
        job.started = time.time()
        self._event(job, "started")
        if job.journaled and self._journal is not None:
            self._journal.record_started(job.key)
        loop = asyncio.get_running_loop()
        deadline = (
            loop.time() + self.job_timeout
            if self.job_timeout is not None
            else None
        )
        try:
            while True:
                result: dict | None = None
                pool = self._pool
                if pool is not None:
                    try:
                        result, payload = await self._await(
                            loop.run_in_executor(
                                pool,
                                _pool_entry,
                                (job.kind, job.params),
                            ),
                            deadline,
                        )
                        obs.merge_payload(payload)
                    except BrokenProcessPool as exc:
                        # Infrastructure, not the job: a pool worker died
                        # (OOM kill, hard crash).  Replace the pool and
                        # retry this job on it — but within a budget: a
                        # job that *keeps* killing its worker must not
                        # retry forever, and must never fall back inline
                        # where it would take the server down with it.
                        # Only BrokenProcessPool is infrastructure here:
                        # exceptions raised *by the job* — OSError
                        # subclasses included, and on Python >= 3.11 the
                        # builtin TimeoutError that asyncio raises on
                        # job_timeout IS an OSError subclass — must fall
                        # through to the handlers below, not destroy a
                        # healthy pool.
                        self._pool_failure(pool, exc)
                        job.retries += 1
                        if job.retries > self.retries:
                            self._finish(
                                job,
                                error=(
                                    f"worker died running this job "
                                    f"{job.retries} time(s); retry budget "
                                    f"({self.retries}) exhausted: "
                                    f"{type(exc).__name__}: {exc}"
                                ),
                            )
                            return
                        self.counters["retried"] += 1
                        obs.inc("service.retried")
                        self._event(job, "retried", attempt=job.retries)
                        continue  # replaced pool, or inline when none
                    except asyncio.CancelledError:
                        # A peer worker replacing the broken pool
                        # cancelled our pending future: retry on the
                        # replacement, uncharged.  A real cancellation
                        # (server stop) keeps propagating.
                        if not self._started or self._pool is pool:
                            raise
                        continue
                if result is None:
                    result = await self._await(
                        loop.run_in_executor(
                            None, jobs_mod.compute_job, job.kind, job.params
                        ),
                        deadline,
                    )
                break
        except asyncio.TimeoutError:
            self.counters["timeouts"] += 1
            obs.inc("service.timeouts")
            self._finish(
                job,
                error=f"job exceeded job_timeout={self.job_timeout}s",
            )
        except ReproError as exc:
            self._finish(job, error=str(exc))
        except Exception as exc:  # noqa: BLE001 - a job must not kill the server
            self._finish(job, error=f"{type(exc).__name__}: {exc}")
        else:
            job.result = result
            self.counters["computed"] += 1
            obs.inc("service.computed")
            await loop.run_in_executor(
                None, cache.store_service_result, job.key, result
            )
            self._finish(job)

    @staticmethod
    async def _await(fut, deadline: float | None):
        if deadline is None:
            return await fut
        remaining = deadline - asyncio.get_running_loop().time()
        return await asyncio.wait_for(fut, timeout=max(0.0, remaining))

    def _finish(
        self, job: Job, error: str | None = None, durable: bool = True
    ) -> None:
        """Move *job* to a terminal state and wake its waiters.

        ``durable=False`` marks failures that only mean "this server is
        going away" (stop, drain): they are not journaled, so the job
        stays live in the journal and replays on the next start.
        """
        if job.state in _DONE_STATES:
            return
        self._inflight.pop(job.key, None)
        job.finished = time.time()
        if error is None:
            job.state = "done"
            self._event(
                job,
                "done",
                source=job.source,
                elapsed=job.finished - job.created,
            )
            if job.journaled and self._journal is not None:
                self._journal.record_done(job.key, source=job.source)
        else:
            job.state = "failed"
            job.error = error
            self.counters["failed"] += 1
            obs.inc("service.failed")
            self._event(job, "failed", error=error)
            if durable and job.journaled and self._journal is not None:
                self._journal.record_failed(job.key, error)
        job.done_event.set()

    def _event(self, job: Job, name: str, **fields: Any) -> None:
        job.events.append({"event": name, "t": time.time(), **fields})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Queue/dedup/cache counters (the ``stats`` protocol op).

        ``cache.stats()`` may scan the cache directory — blocking; the
        protocol handler runs this in an executor, direct callers
        (tests, embedding) call it from their own thread.
        """
        return {
            "counters": dict(self.counters),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "queue_size": self.queue_size,
            "inflight": len(self._inflight),
            "workers": self.workers,
            "pool": self._pool is not None,
            "cache": cache.stats(),
        }

    def health(self) -> dict[str, Any]:
        """Cheap readiness/liveness snapshot (the ``health`` op).

        Unlike :meth:`stats` this never touches the cache directory, so
        it is safe to poll aggressively (CI readiness gates, load
        balancers): queue depth, pool state, journal lag and uptime.
        """
        h: dict[str, Any] = {
            "accepting": self._started and not self._draining,
            "draining": self._draining,
            "uptime_s": (
                time.time() - self.started_at
                if self.started_at is not None
                else 0.0
            ),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "queue_size": self.queue_size,
            "inflight": len(self._inflight),
            "running": sum(
                1 for j in self._inflight.values() if j.state == "running"
            ),
            "workers": self.workers,
            "pool": self._pool is not None,
            "retries": self.retries,
            "counters": dict(self.counters),
        }
        if self._journal is not None:
            h["journal"] = self._journal.stats()
        return h

    # ------------------------------------------------------------------
    # JSON-lines protocol
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async def send(payload: dict) -> None:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()

        self._conns.add(writer)
        try:
            # A connection handed off after stop() began gets EOF at once.
            while self._started:
                line = await reader.readline()
                if not line:
                    break
                try:
                    req = json.loads(line)
                    if not isinstance(req, dict):
                        raise ValueError("request is not an object")
                except ValueError as exc:
                    await send({"ok": False, "error": f"bad request: {exc}"})
                    continue
                try:
                    stop_after = await self._handle_op(req, send)
                except (QueueFullError, DrainingError) as exc:
                    # Transient by construction: the client may retry
                    # (after backoff / the restart) without rephrasing.
                    await send({
                        "ok": False,
                        "error": str(exc),
                        "retryable": True,
                    })
                    continue
                except ReproError as exc:
                    await send({"ok": False, "error": str(exc)})
                    continue
                if stop_after:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conns.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # pragma: no cover - best-effort close
                pass

    async def _handle_op(self, req: dict, send) -> bool:
        op = req.get("op")
        if op == "ping":
            await send({"ok": True, "pong": True})
        elif op == "submit":
            job, disposition = await self.submit(
                req.get("kind", ""),
                req.get("params") or {},
                priority=int(req.get("priority", 0)),
            )
            if req.get("wait", True):
                await self._wait_done(job, req.get("timeout"))
                await send(self._job_reply(job, disposition=disposition))
            else:
                await send({
                    "ok": True,
                    "disposition": disposition,
                    "job": job.to_dict(include_result=False),
                })
        elif op == "wait":
            job = self.get_job(str(req.get("job_id")))
            if job is None:
                await send({"ok": False, "error": "unknown job_id"})
            else:
                await self._wait_done(job, req.get("timeout"))
                await send(self._job_reply(job))
        elif op == "watch":
            job = self.get_job(str(req.get("job_id")))
            if job is None:
                await send({"ok": False, "error": "unknown job_id"})
            else:
                await self._stream_events(job, send)
        elif op == "jobs":
            await send({
                "ok": True,
                "jobs": [
                    self._jobs[jid].to_dict(include_result=False)
                    for jid in self._order
                    if jid in self._jobs
                ],
            })
        elif op == "stats":
            # cache.stats() scans the cache directory; keep that off the
            # event loop so a large directory never stalls connections.
            st = await asyncio.get_running_loop().run_in_executor(
                None, self.stats
            )
            await send({"ok": True, "stats": st})
        elif op == "health":
            # Cheap by construction (no cache scan): safe inline.
            await send({"ok": True, "health": self.health()})
        elif op == "shutdown":
            await send({"ok": True, "stopping": True})
            asyncio.get_running_loop().create_task(self.stop())
            return True
        else:
            await send({"ok": False, "error": f"unknown op {op!r}"})
        return False

    @staticmethod
    def _job_reply(job: Job, **extra: Any) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "ok": job.state == "done",
            "job": job.to_dict(),
            **extra,
        }
        if job.error:
            payload["error"] = job.error
            if job.error.startswith(_DRAIN_ERROR):
                # Drain failures are transient: the job is journaled and
                # replays after the restart — tell the client to retry.
                payload["retryable"] = True
        return payload

    @staticmethod
    async def _wait_done(job: Job, timeout: float | None) -> None:
        if job.state in _DONE_STATES:
            return
        if timeout is None:
            await job.done_event.wait()
        else:
            try:
                await asyncio.wait_for(job.done_event.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                raise ReproError(
                    f"timed out after {timeout}s waiting for {job.id} "
                    f"(state {job.state})"
                ) from None

    async def _stream_events(self, job: Job, send) -> None:
        """Stream job events as they happen, then a terminal summary.

        Events include the per-stage span timings merged from the worker
        (the ``spans`` event appended at completion), so a watcher sees
        queued → started → per-stage progress → done.
        """
        sent = 0
        while True:
            while sent < len(job.events):
                await send({"ok": True, **job.events[sent]})
                sent += 1
            if job.state in _DONE_STATES:
                await send({"ok": True, "done": True, "job": job.to_dict()})
                return
            try:
                await asyncio.wait_for(job.done_event.wait(), timeout=0.2)
            except asyncio.TimeoutError:
                pass  # poll for incremental events


class ServerThread:
    """A :class:`JobServer` running its own event loop on a thread.

    For tests, benchmarks and embedding: construct, :meth:`start`, talk
    to it with a :class:`~repro.service.client.ServiceClient`, then
    :meth:`stop`.  Exactly one endpoint is opened: a unix socket when
    *socket_path* is given, else localhost TCP on *port* (0 = ephemeral).
    """

    def __init__(
        self,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **server_kwargs: Any,
    ) -> None:
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.server = JobServer(**server_kwargs)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._serving: asyncio.Task | None = None
        self._stop_task: asyncio.Task | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise ReproError("service thread failed to start in time")
        return self

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def boot() -> None:
            try:
                if self.socket_path is not None:
                    await self.server.start_unix(self.socket_path)
                else:
                    self.port = await self.server.start_tcp(
                        self.host, self.port
                    )
                # Created before start() returns, so a stop() issued
                # right after start() finds the server serving.
                self._serving = loop.create_task(self.server.serve_forever())
            except BaseException as exc:  # surfaced to start()
                self._startup_error = exc
            finally:
                self._ready.set()

        loop.run_until_complete(boot())
        if self._serving is not None:
            loop.run_until_complete(self._serving)
        # Drain pending callbacks (closed connections etc.), then close.
        loop.run_until_complete(asyncio.sleep(0))
        loop.close()

    @property
    def address(self) -> dict[str, Any]:
        """Client-ready address of the one open endpoint."""
        if self.socket_path is not None:
            return {"socket_path": self.socket_path}
        return {"host": self.host, "port": self.port}

    def stop(self, timeout: float = 10.0) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        if thread.is_alive():
            try:
                loop.call_soon_threadsafe(self._stop_if_serving)
            except RuntimeError:  # the loop closed; the thread is exiting
                pass
        thread.join(timeout=timeout)

    def _stop_if_serving(self) -> None:
        """Start :meth:`JobServer.stop` on the loop thread, but only while
        ``serve_forever`` is pending: the loop then runs until the stop
        completes.  Once serving ended (a drain or a ``shutdown`` op got
        there first) the loop may never turn again, and a coroutine
        created then would be dropped unawaited."""
        if self._serving is not None and not self._serving.done():
            # Keep a reference: the loop holds tasks only weakly.
            self._stop_task = self._serving.get_loop().create_task(
                self.server.stop()
            )

    def drain(self, timeout: float | None = None) -> None:
        """Graceful counterpart of :meth:`stop` (blocks until drained)."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        if thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.server.drain(timeout), loop
            ).result(timeout=(timeout or self.server.drain_timeout) + 30)
        thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
