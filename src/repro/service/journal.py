"""Write-ahead job journal for the customization service.

A :class:`~repro.service.server.JobServer` crash loses every queued and
running job — unacceptable for minutes-long jobs.  :class:`JobJournal`
makes the job table durable: an **append-only JSONL log** of lifecycle
records written as jobs move through the server,

* ``submitted`` — key, kind, normalized params, priority (the replayable
  request);
* ``started`` — the job reached a worker (diagnostic only);
* ``done`` / ``failed`` — terminal; the key needs no replay.

On restart the server replays the journal (:meth:`JobJournal.open`) and
resubmits every **non-terminal** job.  This is safe and exactly-once
because every job is content-keyed: a job that actually completed before
the crash (its ``done`` record lost to fsync batching, or its result
stored but the record torn) re-resolves to the same key and lands as an
at-rest cache hit, not a recompute.

Durability/throughput trade-offs are explicit:

* **fsync batching** — appends are flushed immediately but fsynced every
  ``fsync_every`` records (:meth:`sync` forces one; :meth:`lag` reports
  the un-synced backlog for the ``health`` op).  A crash can lose the
  last few *records*, never corrupt earlier ones; lost ``submitted``
  records were unacknowledged submits, lost terminal records merely
  cause a cache-hit replay.
* **compaction on checkpoint** — every ``compact_every`` appends (and
  once on open, right after replay) the log is atomically rewritten with
  only the live (non-terminal) records, so it stays proportional to the
  in-flight set instead of growing forever.
* **corruption-tolerant replay** — :func:`replay_journal` parses records
  until the first bad one (torn tail after a crash, garbled bytes) and
  truncates the file to the good prefix; everything before it is kept,
  everything after is dropped.  A journal can therefore always be
  opened, whatever state a crash left it in.

One server per journal path; two live servers appending to the same file
would interleave records.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import time
from typing import Any

from repro import obs
from repro.errors import ReproError

__all__ = ["JobJournal", "journal_safe_params", "replay_journal"]

logger = logging.getLogger("repro.service")

_TERMINAL = ("done", "failed")
_REC_NAMES = ("submitted", "started", "done", "failed")


def journal_safe_params(params: dict) -> dict:
    """Canonicalize *params* through a JSON round-trip for the journal.

    The journal replays ``(kind, params)`` pairs across a server
    restart, so journaled params must survive JSON serialization *and*
    resolve to the same content key when loaded back (tuples come back
    as lists — the built-in kinds normalize to JSON types).  Raises
    :class:`~repro.errors.ReproError` for params a journal could not
    faithfully replay (sets, objects, NaN...), so the caller can degrade
    to a non-durable job instead of corrupting the journal.
    """
    try:
        return json.loads(json.dumps(params, sort_keys=True, allow_nan=False))
    except (TypeError, ValueError) as exc:
        raise ReproError(
            f"job params are not JSON-serializable for the journal: {exc}"
        ) from exc


def _valid_record(rec: Any) -> bool:
    if not isinstance(rec, dict):
        return False
    name = rec.get("rec")
    if name not in _REC_NAMES:
        return False
    if not isinstance(rec.get("key"), str) or not rec["key"]:
        return False
    if name == "submitted":
        return isinstance(rec.get("kind"), str) and isinstance(
            rec.get("params"), dict
        )
    return True


def replay_journal(path: str) -> tuple[list[dict], dict[str, Any]]:
    """Replay a journal file; returns ``(live_records, stats)``.

    ``live_records`` are the ``submitted`` records of jobs with no
    terminal record, in submission order — exactly the jobs a restarted
    server must resubmit.  Parsing stops at the *first* bad record and
    the file is truncated to the good prefix (a record after corruption
    cannot be trusted to be ordered); ``stats`` reports ``records``
    kept, the ``bad_offset`` (or None) and ``truncated_bytes`` dropped.
    A missing file is an empty journal, not an error.
    """
    stats: dict[str, Any] = {
        "records": 0,
        "bad_offset": None,
        "truncated_bytes": 0,
    }
    live: dict[str, dict] = {}
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return [], stats
    with fh:
        good_end = 0
        while True:
            line = fh.readline()
            if not line:
                break
            if line.endswith(b"\n"):
                try:
                    rec = json.loads(line)
                except ValueError:
                    rec = None
            else:  # torn tail: the crash interrupted an append
                rec = None
            if not _valid_record(rec):
                stats["bad_offset"] = good_end
                break
            good_end += len(line)
            stats["records"] += 1
            key = rec["key"]
            if rec["rec"] == "submitted":
                live[key] = rec
            elif rec["rec"] in _TERMINAL:
                live.pop(key, None)
        if stats["bad_offset"] is not None:
            end = fh.seek(0, os.SEEK_END)
            stats["truncated_bytes"] = end - good_end
    if stats["truncated_bytes"] > 0:
        with open(path, "r+b") as out:
            out.truncate(good_end)
    return list(live.values()), stats


class JobJournal:
    """Append-only JSONL job journal with replay, fsync batching and
    compaction.  See the module docstring for the design."""

    def __init__(
        self,
        path: str | os.PathLike,
        fsync_every: int = 8,
        compact_every: int = 4096,
    ) -> None:
        self.path = str(path)
        self.fsync_every = max(1, int(fsync_every))
        self.compact_every = max(16, int(compact_every))
        self._fh: Any = None
        self._pending = 0  # appends since the last fsync
        self._since_compact = 0
        self._live: dict[str, dict] = {}
        self.appends = 0
        self.compactions = 0
        self.truncated_bytes = 0
        self.replayed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self) -> list[dict]:
        """Replay, compact to the live set, start appending.

        Returns the live (non-terminal) ``submitted`` records in
        submission order for the server to resubmit.  The returned jobs
        are already in the compacted file, so the server must *not*
        journal them again on resubmit.
        """
        live, stats = replay_journal(self.path)
        self.replayed = len(live)
        self.truncated_bytes = stats["truncated_bytes"]
        if stats["truncated_bytes"]:
            obs.inc(
                "service.journal.truncated_bytes", stats["truncated_bytes"]
            )
            if obs.warn_once("service.journal.corrupt"):
                logger.warning(
                    "journal %s: bad record at byte %d; kept the %d-record "
                    "prefix, dropped %d bytes",
                    self.path,
                    stats["bad_offset"],
                    stats["records"],
                    stats["truncated_bytes"],
                )
        self._live = {rec["key"]: rec for rec in live}
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        # The restart is a checkpoint: rewrite the log to the live set.
        self._rewrite(self._live.values())
        if stats["records"] > len(live):
            self.compactions += 1
        self._fh = open(self.path, "ab")
        return list(self._live.values())

    def close(self) -> None:
        """Force a final fsync and stop appending (idempotent)."""
        if self._fh is None:
            return
        self.sync()
        self._fh.close()
        self._fh = None

    @property
    def closed(self) -> bool:
        return self._fh is None

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def record_submitted(
        self, key: str, kind: str, params: dict, priority: int = 0
    ) -> bool:
        """Journal a queued job; returns False when it cannot be made
        durable (unserializable params) — the job still runs, it just
        will not be replayed after a crash."""
        try:
            params = journal_safe_params(params)
        except ReproError as exc:
            obs.inc("service.journal.skipped")
            if obs.warn_once("service.journal.unserializable"):
                logger.warning(
                    "journal %s: cannot journal a %r job (%s); it will not "
                    "survive a crash",
                    self.path,
                    kind,
                    exc,
                )
            return False
        rec = {
            "rec": "submitted",
            "key": key,
            "kind": kind,
            "params": params,
            "priority": priority,
            "t": time.time(),
        }
        self._live[key] = rec
        self._append(rec)
        return True

    def record_started(self, key: str) -> None:
        self._append({"rec": "started", "key": key, "t": time.time()})

    def record_done(self, key: str, source: str = "computed") -> None:
        self._live.pop(key, None)
        self._append(
            {"rec": "done", "key": key, "source": source, "t": time.time()}
        )

    def record_failed(self, key: str, error: str) -> None:
        self._live.pop(key, None)
        self._append({
            "rec": "failed",
            "key": key,
            "error": str(error)[:500],
            "t": time.time(),
        })

    def _append(self, rec: dict) -> None:
        if self._fh is None:
            return  # closed (server stopping): drop silently
        self._fh.write(json.dumps(rec, sort_keys=True).encode() + b"\n")
        self._fh.flush()
        self.appends += 1
        obs.inc("service.journal.appends")
        self._pending += 1
        if self._pending >= self.fsync_every:
            self.sync()
        self._since_compact += 1
        if self._since_compact >= self.compact_every:
            self.compact()

    # ------------------------------------------------------------------
    # Durability controls
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Force the batched fsync now."""
        if self._fh is None or self._pending == 0:
            return
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:  # pragma: no cover - exotic filesystems
            pass
        obs.inc("service.journal.fsyncs")
        self._pending = 0

    def lag(self) -> int:
        """Appended-but-not-yet-fsynced record count (journal lag)."""
        return self._pending

    def compact(self) -> None:
        """Checkpoint: atomically rewrite the log with only live records."""
        if self._fh is None:
            return
        self._fh.close()
        self._fh = None
        self._rewrite(self._live.values())
        self._fh = open(self.path, "ab")
        self.compactions += 1
        obs.inc("service.journal.compactions")

    def _rewrite(self, records) -> None:
        parent = os.path.dirname(os.path.abspath(self.path))
        fd, tmp = tempfile.mkstemp(prefix=".journal-", dir=parent)
        try:
            with os.fdopen(fd, "wb") as out:
                for rec in records:
                    out.write(json.dumps(rec, sort_keys=True).encode() + b"\n")
                out.flush()
                try:
                    os.fsync(out.fileno())
                except OSError:  # pragma: no cover
                    pass
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._pending = 0
        self._since_compact = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def live(self) -> int:
        """Number of non-terminal (replayable) jobs in the journal."""
        return len(self._live)

    def stats(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "appends": self.appends,
            "lag": self.lag(),
            "live": self.live,
            "compactions": self.compactions,
            "replayed": self.replayed,
            "truncated_bytes": self.truncated_bytes,
        }
