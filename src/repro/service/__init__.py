"""Customization-as-a-service: a long-running job server over the pipeline.

Every per-stage speedup in this repository (the fast enumeration,
Pareto and partitioning engines, the artifact cache) was trapped behind a batch
CLI: each invocation pays full process startup and can only reuse work
through the cold disk cache.  This package wraps the pipeline in a
long-running asyncio **job server** so heavy multi-tenant traffic turns
into cache hits:

* :mod:`repro.jobs` (re-exported here) — the request-type registry: one
  ``identify`` / ``curve`` / ``pareto`` / ``mlgp`` / ``reconfig`` /
  ``mtreconfig`` job kind per pipeline flow, each owning its defaults,
  validation, **content-addressed dedup key** (from the existing cache
  digests) and picklable *compute* step.  The chapter CLI commands run
  the same kinds in-process; the server keys, queues and caches them;
* :mod:`repro.service.server` — :class:`~repro.service.server.JobServer`:
  a bounded priority queue, a process-backed worker pool with
  :mod:`repro.parallel`'s degradation semantics, **in-flight coalescing**
  (concurrent identical requests await one computation) and **at-rest
  dedup** (completed results are stored behind the same key in the
  ``service`` kind of :mod:`repro.cache`, so restarts and other
  processes on the host sharing a cache directory serve them without
  recomputing), plus a JSON-lines protocol over a unix socket or
  localhost TCP;
* :mod:`repro.service.journal` — the write-ahead job journal
  (:class:`~repro.service.journal.JobJournal`): an append-only JSONL log
  of job lifecycle records with fsync batching, compaction on checkpoint
  and corruption-tolerant replay, so a crashed or drained server replays
  its non-terminal jobs on the next start (exactly-once, because jobs
  are content-keyed);
* :mod:`repro.service.client` — a blocking stdlib client
  (:class:`~repro.service.client.ServiceClient`) used by ``repro submit``,
  the tests and the benchmarks, with optional retry/backoff reconnect
  (``retries=``/``backoff=``) that survives server restarts.

Run a server with ``repro serve --socket /tmp/repro.sock --journal
/var/lib/repro/journal.jsonl`` and submit work with ``repro submit
--socket /tmp/repro.sock curve crc32``.
"""

from repro.service.client import (
    ConnectionLostError,
    ServiceBusyError,
    ServiceClient,
)
from repro.jobs import (
    JOB_KINDS,
    compute_job,
    register_kind,
    resolve_job,
)
from repro.service.journal import (
    JobJournal,
    journal_safe_params,
    replay_journal,
)
from repro.service.server import (
    DrainingError,
    JobServer,
    QueueFullError,
    ServerThread,
)

__all__ = [
    "JOB_KINDS",
    "ConnectionLostError",
    "DrainingError",
    "JobJournal",
    "JobServer",
    "QueueFullError",
    "ServerThread",
    "ServiceBusyError",
    "ServiceClient",
    "compute_job",
    "journal_safe_params",
    "register_kind",
    "replay_journal",
    "resolve_job",
]
