"""Blocking JSON-lines client for the job server.

Used by ``repro submit``, the tests and the benchmarks.  One client is
one connection; requests are serialized on it (the server multiplexes
across connections, not within one).  Stdlib only: a :mod:`socket`
plus newline-delimited JSON.

Self-healing: with ``retries=N`` the client survives a server restart.
A lost connection (:class:`ConnectionLostError`) or a retryable server
rejection (:class:`ServiceBusyError` — queue full, draining, a job
failed by a drain) is retried up to N times with jittered exponential
backoff, reconnecting first when the connection dropped.  This is safe
because jobs are content-keyed: resubmitting after a restart is
idempotent — a job that completed before the restart comes back as an
at-rest cache hit.  ``wait``/``watch`` re-attach across restarts by
resubmitting the remembered job spec when the new server reports
``unknown job_id``.  Every retry increments ``service.client.retries``.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Any, Callable, Iterator

from repro import obs
from repro.errors import ReproError

__all__ = ["ConnectionLostError", "ServiceBusyError", "ServiceClient"]

#: Remembered job specs for wait/watch re-attach, per client (bounded).
_REMEMBER_CAP = 256

#: Ceiling on a single backoff sleep, seconds.
_BACKOFF_CAP = 10.0


class ConnectionLostError(ReproError):
    """The server connection dropped (closed, reset, or unreachable)."""


class ServiceBusyError(ReproError):
    """The server rejected the request but marked it retryable
    (bounded queue full, draining, or a job failed by a drain)."""


class ServiceClient:
    """Talk to a :class:`~repro.service.server.JobServer` endpoint.

    Address it with either ``socket_path=...`` (unix socket) or
    ``host=...``/``port=...`` (localhost TCP) — matching
    :attr:`repro.service.server.ServerThread.address`, so
    ``ServiceClient(**thread.address)`` always connects.

    ``retries``/``backoff`` arm the self-healing described in the
    module docstring; the default ``retries=0`` keeps the old
    fail-fast behaviour.
    """

    def __init__(
        self,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        timeout: float | None = 300.0,
        retries: int = 0,
        backoff: float = 0.25,
    ) -> None:
        if socket_path is None and port is None:
            raise ReproError("need socket_path or port to reach the server")
        if retries < 0:
            raise ReproError("retries must be >= 0")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._rng = random.Random()
        self._sock: socket.socket | None = None
        self._file: Any = None
        self._submitted: dict[str, dict[str, Any]] = {}
        self._connect()

    # ------------------------------------------------------------------
    # Connection
    # ------------------------------------------------------------------
    @property
    def _where(self) -> str:
        return self.socket_path or f"{self.host}:{self.port}"

    def _connect(self) -> None:
        try:
            if self.socket_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
            else:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
        except OSError as exc:
            raise ConnectionLostError(
                f"cannot reach service at {self._where}: {exc}"
            ) from exc
        self._sock = sock
        self._file = sock.makefile("rwb")

    def _ensure_connected(self) -> None:
        if self._file is None:
            self._connect()

    def _drop_connection(self) -> None:
        file, sock = self._file, self._sock
        self._file = self._sock = None
        for closable in (file, sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:  # pragma: no cover - best-effort close
                    pass

    def _backoff_delay(self, attempt: int) -> float:
        """Jittered exponential backoff for retry *attempt* (1-based)."""
        base = min(_BACKOFF_CAP, self.backoff * (2 ** (attempt - 1)))
        return base * (0.5 + self._rng.random())

    def _with_retries(self, fn: Callable[[], Any]) -> Any:
        """Run *fn*, retrying retryable failures with backoff.

        A :class:`ConnectionLostError` drops the connection so the next
        attempt reconnects (the server may have restarted); a
        :class:`ServiceBusyError` retries on the live connection.
        """
        attempt = 0
        while True:
            try:
                self._ensure_connected()
                return fn()
            except (ConnectionLostError, ServiceBusyError) as exc:
                if isinstance(exc, ConnectionLostError):
                    self._drop_connection()
                attempt += 1
                if attempt > self.retries:
                    raise
                obs.inc("service.client.retries")
                time.sleep(self._backoff_delay(attempt))

    # ------------------------------------------------------------------
    # Wire
    # ------------------------------------------------------------------
    def _send(self, req: dict[str, Any]) -> None:
        if self._file is None:
            raise ConnectionLostError(
                f"not connected to service at {self._where}"
            )
        try:
            self._file.write(json.dumps(req).encode() + b"\n")
            self._file.flush()
        except OSError as exc:
            raise ConnectionLostError(
                f"lost connection to service at {self._where}: {exc}"
            ) from exc

    def _recv(self) -> dict[str, Any]:
        if self._file is None:
            raise ConnectionLostError(
                f"not connected to service at {self._where}"
            )
        try:
            line = self._file.readline()
        except OSError as exc:
            raise ConnectionLostError(
                f"lost connection to service at {self._where}: {exc}"
            ) from exc
        if not line:
            raise ConnectionLostError(
                f"service at {self._where} closed the connection"
            )
        try:
            return json.loads(line)
        except ValueError as exc:
            # Torn line / garbage: surface a one-line ReproError naming
            # the endpoint instead of leaking a JSONDecodeError.
            raise ReproError(
                f"malformed response from service at {self._where}: {exc}"
            ) from exc

    def request(self, req: dict[str, Any]) -> dict[str, Any]:
        """One request, one response; raises on a server-side error.

        Responses flagged ``retryable`` (queue full, draining, a job
        failed by a drain) raise :class:`ServiceBusyError` so the retry
        layer — or the caller — can back off and resubmit.
        """
        self._send(req)
        resp = self._recv()
        if not resp.get("ok") and resp.get("retryable"):
            raise ServiceBusyError(
                resp.get("error", "service busy; retry later")
            )
        if not resp.get("ok") and "error" in resp and "job" not in resp:
            raise ReproError(resp["error"])
        return resp

    # ------------------------------------------------------------------
    # Re-attach bookkeeping
    # ------------------------------------------------------------------
    def _remember(self, job_id: str, spec: dict[str, Any]) -> None:
        self._submitted[job_id] = spec
        while len(self._submitted) > _REMEMBER_CAP:
            self._submitted.pop(next(iter(self._submitted)))

    def _resubmit(self, spec: dict[str, Any], wait: bool) -> dict[str, Any]:
        """Idempotent resubmit of a remembered spec (content-keyed)."""
        return self.request({
            "op": "submit",
            "kind": spec["kind"],
            "params": spec["params"],
            "priority": spec["priority"],
            "wait": wait,
        })

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(
            self._with_retries(
                lambda: self.request({"op": "ping"})
            ).get("pong")
        )

    def submit(
        self,
        kind: str,
        params: dict[str, Any] | None = None,
        priority: int = 0,
        wait: bool = True,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Submit a job; with ``wait`` (default) returns the finished job.

        The response carries ``disposition`` (``queued`` / ``coalesced``
        / ``cached``) and ``job`` (including ``result`` when done).  A
        failed job raises with its error.  With ``retries`` armed the
        submit transparently survives a server restart: the content key
        makes the resubmit idempotent.
        """
        req: dict[str, Any] = {
            "op": "submit",
            "kind": kind,
            "params": params or {},
            "priority": priority,
            "wait": wait,
        }
        if timeout is not None:
            req["timeout"] = timeout
        resp = self._with_retries(lambda: self.request(req))
        if wait and not resp.get("ok"):
            raise ReproError(resp.get("error", "job failed"))
        job = resp.get("job")
        if isinstance(job, dict) and "id" in job:
            self._remember(
                job["id"],
                {"kind": kind, "params": params or {}, "priority": priority},
            )
        return resp

    def wait(self, job_id: str, timeout: float | None = None) -> dict[str, Any]:
        """Wait for *job_id*; re-attaches across a server restart by
        resubmitting the remembered spec when the id is unknown."""
        req: dict[str, Any] = {"op": "wait", "job_id": job_id}
        if timeout is not None:
            req["timeout"] = timeout

        def attempt() -> dict[str, Any]:
            try:
                return self.request(req)
            except ServiceBusyError:
                raise
            except ReproError as exc:
                spec = self._submitted.get(job_id)
                if spec is not None and "unknown job_id" in str(exc):
                    # The server restarted and forgot the id: the spec
                    # is content-keyed, so resubmitting is the same job.
                    return self._resubmit(spec, wait=True)
                raise

        resp = self._with_retries(attempt)
        if not resp.get("ok"):
            raise ReproError(resp.get("error", "job failed"))
        return resp

    def watch(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Stream a job's lifecycle events until its terminal summary.

        Yields each event dict (``queued`` / ``started`` / ``spans`` /
        ``done`` / ``failed``) and finally the ``{"done": true, "job":
        ...}`` summary.

        With ``retries`` armed the stream survives a server restart:
        the watch re-attaches (resubmitting the remembered spec when
        the id is unknown) and already-yielded events are skipped, so
        consumers never see a duplicate.
        """
        watch_id = job_id
        yielded = 0
        attempt = 0
        while True:
            try:
                self._ensure_connected()
                self._send({"op": "watch", "job_id": watch_id})
                skip = yielded
                while True:
                    event = self._recv()
                    if not event.get("ok") and "error" in event:
                        if event.get("retryable"):
                            raise ServiceBusyError(event["error"])
                        raise ReproError(event["error"])
                    if skip > 0 and not event.get("done"):
                        # Replayed after a reconnect: already yielded.
                        skip -= 1
                        continue
                    yield event
                    yielded += 1
                    if event.get("done"):
                        return
            except (ConnectionLostError, ServiceBusyError) as exc:
                if isinstance(exc, ConnectionLostError):
                    self._drop_connection()
                attempt += 1
                if attempt > self.retries:
                    raise
                obs.inc("service.client.retries")
                time.sleep(self._backoff_delay(attempt))
            except ReproError as exc:
                spec = self._submitted.get(job_id)
                if spec is not None and "unknown job_id" in str(exc):
                    # Restarted server: resubmit (idempotent) and watch
                    # the replacement job's stream instead.
                    resp = self._resubmit(spec, wait=False)
                    watch_id = resp["job"]["id"]
                    self._remember(watch_id, spec)
                    continue
                raise

    def jobs(self) -> list[dict[str, Any]]:
        return self._with_retries(
            lambda: self.request({"op": "jobs"})["jobs"]
        )

    def stats(self) -> dict[str, Any]:
        return self._with_retries(
            lambda: self.request({"op": "stats"})["stats"]
        )

    def health(self) -> dict[str, Any]:
        """The server's cheap readiness snapshot (the ``health`` op)."""
        return self._with_retries(
            lambda: self.request({"op": "health"})["health"]
        )

    def shutdown(self) -> None:
        """Ask the server to stop.

        The server closes the connection as it stops, so the reply and
        the close race: a connection closed after the request was sent
        IS a successful shutdown, not an error.
        """
        try:
            self._ensure_connected()
            self.request({"op": "shutdown"})
        except ConnectionLostError:
            pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
