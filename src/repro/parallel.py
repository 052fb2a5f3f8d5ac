"""Shared process-pool fan-out with an explicit serial fallback.

Both the identification flow (:func:`repro.core.flow.build_tasks`) and the
reconfiguration searches fan independent jobs out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  The pool is treated as
*infrastructure that may break*, never as a correctness dependency:

* Sandboxed environments (CI runners, seccomp jails) often forbid spawning
  processes — pool creation fails with ``OSError``/``PermissionError``.
* A worker can die mid-map (OOM kill, segfault), which surfaces as
  :class:`~concurrent.futures.BrokenExecutor` on the affected futures.

Jobs that did not finish in the pool are retried serially in the parent,
so a *broken* pool always yields the same results a serial run would
produce.  Exceptions raised by the job function itself are *not*
swallowed — they propagate exactly as they would serially.

Every degradation is logged once per observability epoch
(:func:`repro.obs.warn_once`; re-armed by :func:`repro.obs.reset`) and
counted on the metrics registry regardless of logging:
``parallel.pool_failures`` and ``parallel.serial_retries``.

Every pool job is wrapped so its worker captures its own spans and metric
deltas; the parent merges them back into one trace/metrics view
(:func:`repro.obs.merge_payload`), keeping the spans only when it is
tracing itself.  Counters therefore sum the same with or without tracing.

Setting the ``REPRO_NO_PROCESS_POOL`` environment variable (to anything
non-empty) forces every map serial — the chaos-test knob for running the
suite with process pools forbidden.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Callable, Iterable, Sequence
from typing import Any, TypeVar

from repro import obs

__all__ = ["parallel_map", "pool_allowed"]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment kill switch: force serial execution (chaos testing / known
#: pool-hostile environments).
_ENV_NO_POOL = "REPRO_NO_PROCESS_POOL"

#: Warn-once key for the degradation warning (one log line per obs epoch).
_WARN_KEY = "parallel.degraded"

logger = logging.getLogger("repro.parallel")

_MISSING = object()


def _warn_once(exc: BaseException, label: str, retried: int = 0) -> None:
    if not obs.warn_once(_WARN_KEY):
        return
    if retried:
        logger.warning(
            "process pool failed mid-map (%s: %s); retrying %d unfinished "
            "%s serially — the requested --workers fan-out is degraded",
            type(exc).__name__,
            exc,
            retried,
            label,
        )
    else:
        logger.warning(
            "process pool unavailable (%s: %s); running %s serially — "
            "the requested --workers fan-out is ignored",
            type(exc).__name__,
            exc,
            label,
        )


def _reset_warning() -> None:
    """Re-arm the per-epoch degradation warning (test hook)."""
    obs.rearm_warning(_WARN_KEY)


def pool_allowed() -> bool:
    """Is a process pool worth attempting in this environment?

    The single policy shared by :func:`parallel_map` and the job server
    (:class:`repro.service.server.JobServer`): ``False`` on single-core
    hosts (no parallelism to gain) and when the ``REPRO_NO_PROCESS_POOL``
    kill switch is set.  A ``True`` answer is *advisory* — pool creation
    can still fail at runtime and callers must degrade, not crash.
    """
    return (os.cpu_count() or 1) > 1 and not os.environ.get(_ENV_NO_POOL)


def _captured_job(fn: Callable[[_T], _R], job: _T) -> tuple[_R, dict]:
    """Pool-worker wrapper: run *fn* and ship the worker's observability
    payload (spans + metric deltas) back with the result."""
    obs.begin_child_capture()
    result = fn(job)
    return result, obs.end_child_capture()


def parallel_map(
    fn: Callable[[_T], _R],
    jobs: Iterable[_T],
    workers: int | None,
    label: str = "jobs",
) -> list[_R]:
    """Map a picklable *fn* over *jobs*, optionally across processes.

    Args:
        fn: module-level (picklable) worker function.
        jobs: job inputs; results come back in job order.
        workers: with > 1 and more than one job, fan out over that many
            processes; otherwise run serially.  A single-core host
            (``os.cpu_count() <= 1``) also runs serially — spinning up a
            pool there costs fork/pickle overhead with no parallelism to
            gain — and, like ``workers=1``, does so silently: declining
            a fan-out that cannot help is not a degradation, so no
            warning is emitted.  If the pool cannot be
            created (``OSError``/``PermissionError``, e.g. a sandbox
            without process support) or breaks mid-map
            (:class:`~concurrent.futures.BrokenExecutor`: a worker was
            OOM-killed or segfaulted), the jobs that did not complete in
            the pool are retried serially and a warning (once per obs
            epoch) names the failure.  Exceptions raised by *fn* itself
            propagate.
        label: what the jobs are, for the degradation warning.

    Returns:
        ``[fn(j) for j in jobs]``.
    """
    job_list: Sequence[Any] = list(jobs)
    n = len(job_list)
    use_pool = workers is not None and workers > 1 and n > 1 and pool_allowed()
    obs.inc("parallel.maps")
    results: list[Any] = [_MISSING] * n
    if use_pool:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, wait

        pool = None
        failure: BaseException | None = None
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
            futures = [pool.submit(_captured_job, fn, job) for job in job_list]
            wait(futures)
            for i, fut in enumerate(futures):
                exc = fut.exception()
                if exc is None:
                    results[i], payload = fut.result()
                    obs.merge_payload(payload)
                elif isinstance(exc, (BrokenExecutor, OSError, PermissionError)):
                    # Infrastructure failure on this job; retry it serially.
                    failure = exc
                else:
                    # fn itself raised: a genuine error, same as serial.
                    raise exc
        except (BrokenExecutor, OSError, PermissionError) as exc:
            failure = exc
        finally:
            if pool is not None:
                # Never block on a broken pool; leftover workers exit on
                # their own once their job ends.
                pool.shutdown(wait=False, cancel_futures=True)
        if failure is not None:
            unfinished = sum(1 for r in results if r is _MISSING)
            obs.inc("parallel.pool_failures")
            obs.inc("parallel.serial_retries", unfinished)
            _warn_once(failure, label, retried=unfinished)
    for i, r in enumerate(results):
        if r is _MISSING:
            results[i] = fn(job_list[i])
    return results
