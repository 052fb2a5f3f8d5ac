"""Observability: span-based tracing, a metrics registry, and warn-once state.

The pipeline stages (identify → curves → select → validate), the artifact
cache, the process-pool fan-out, the simulators and the fault harness all
report here instead of keeping ad-hoc ``time.perf_counter()`` fields and
module-level warning flags.  Three facilities share one module so a single
:func:`reset` gives tests and long-lived processes a clean epoch:

* **Spans** — :func:`span` is a context manager recording a named,
  monotonic-clock-timed interval with nesting (per-thread parent stack)
  and arbitrary attributes.  Tracing is **off by default**: ``span()``
  then returns a shared no-op object and records nothing, so the disabled
  cost is one boolean check plus a call — the overhead contract of
  ``benchmarks/test_identification_perf.py`` (< 2%).  Enable with
  :func:`enable_tracing`; export with :func:`export_trace` (JSONL, one
  span per line, final line = metrics snapshot).
* **Metrics** — named counters (:func:`inc`), gauges (:func:`set_gauge`)
  and histograms (:func:`observe`; count/total/min/max).  Always on:
  increments are dict updates under a lock, performed at stage
  granularity (hot loops accumulate locally and flush once).
* **Warn-once** — :func:`warn_once` returns True the first time a key is
  seen in the current epoch, so degradation log lines appear once per
  epoch instead of once per process lifetime; every occurrence should
  *also* be counted so suppression never hides events.

The job server's pool workers (:mod:`repro.service.server`) capture
their spans and metric deltas with :func:`begin_child_capture` /
:func:`end_child_capture`; the parent folds them back with
:func:`merge_payload`, re-parenting child root spans under the span active
at merge time so the trace stays one tree.

This module imports only the standard library — every other ``repro``
module may depend on it without cycles.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any

__all__ = [
    "begin_child_capture",
    "clear_trace",
    "disable_tracing",
    "enable_tracing",
    "end_child_capture",
    "export_trace",
    "inc",
    "load_trace",
    "merge_payload",
    "metrics_snapshot",
    "observe",
    "rearm_warning",
    "reset",
    "set_gauge",
    "span",
    "trace_spans",
    "tracing_enabled",
    "warn_once",
]

_lock = threading.RLock()
_local = threading.local()  # per-thread span stack (parent linkage)

_TRACING = False
_spans: list[dict[str, Any]] = []
_span_seq = 0

_counters: dict[str, float] = {}
_gauges: dict[str, float] = {}
_histograms: dict[str, dict[str, float]] = {}
_warned: set[str] = set()
_epoch = 0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _NullSpan:
    """Shared no-op span: the entire cost of tracing when it is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        """Ignore attribute updates (tracing is off)."""


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "attrs", "span_id", "parent", "t0")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = ""
        self.parent: str | None = None
        self.t0 = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (e.g. result sizes)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        global _span_seq
        with _lock:
            _span_seq += 1
            self.span_id = f"{os.getpid()}-{_span_seq}"
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        self.parent = stack[-1] if stack else None
        stack.append(self.span_id)
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc: object) -> bool:
        dur = time.monotonic() - self.t0
        stack = getattr(_local, "stack", None)
        if stack and stack[-1] == self.span_id:
            stack.pop()
        record: dict[str, Any] = {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent,
            "pid": os.getpid(),
            "t0": self.t0,
            "dur": dur,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        with _lock:
            if _TRACING:
                _spans.append(record)
        return False


def span(name: str, /, **attrs: Any):
    """A timed, nestable span; a shared no-op when tracing is disabled."""
    if not _TRACING:
        return _NULL_SPAN
    return _Span(name, attrs)


def enable_tracing() -> None:
    """Start recording spans (idempotent)."""
    global _TRACING
    _TRACING = True


def disable_tracing() -> None:
    """Stop recording spans; the buffer is kept until :func:`clear_trace`."""
    global _TRACING
    _TRACING = False


def tracing_enabled() -> bool:
    return _TRACING


def clear_trace() -> None:
    """Drop every buffered span."""
    with _lock:
        _spans.clear()


def trace_spans() -> list[dict[str, Any]]:
    """A snapshot of the buffered span records, ordered by start time."""
    with _lock:
        return sorted(_spans, key=lambda s: s["t0"])


def current_span_id() -> str | None:
    """The id of the innermost open span on this thread, or None."""
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def inc(name: str, n: float = 1) -> None:
    """Add *n* to the named counter (created at 0)."""
    with _lock:
        _counters[name] = _counters.get(name, 0) + n


def set_gauge(name: str, value: float) -> None:
    """Set the named gauge to *value* (last write wins)."""
    with _lock:
        _gauges[name] = value


def observe(name: str, value: float) -> None:
    """Record *value* into the named histogram (count/total/min/max)."""
    with _lock:
        h = _histograms.get(name)
        if h is None:
            _histograms[name] = {
                "count": 1, "total": value, "min": value, "max": value,
            }
        else:
            h["count"] += 1
            h["total"] += value
            if value < h["min"]:
                h["min"] = value
            if value > h["max"]:
                h["max"] = value


def metrics_snapshot() -> dict[str, Any]:
    """A JSON-serializable copy of every counter/gauge/histogram."""
    with _lock:
        return {
            "epoch": _epoch,
            "counters": dict(sorted(_counters.items())),
            "gauges": dict(sorted(_gauges.items())),
            "histograms": {
                k: dict(v) for k, v in sorted(_histograms.items())
            },
        }


# ----------------------------------------------------------------------
# Warn-once epochs
# ----------------------------------------------------------------------
def warn_once(key: str) -> bool:
    """True exactly once per *key* per epoch (the caller should then log).

    Callers must count every occurrence separately (e.g. ``inc(...)``)
    so suppressed repeats remain visible in the metrics.
    """
    with _lock:
        if key in _warned:
            return False
        _warned.add(key)
        return True


def rearm_warning(key: str) -> None:
    """Re-arm one warn-once key without starting a new epoch."""
    with _lock:
        _warned.discard(key)


def reset() -> None:
    """Start a fresh epoch: zero metrics, re-arm warnings, drop spans."""
    global _epoch
    with _lock:
        _counters.clear()
        _gauges.clear()
        _histograms.clear()
        _warned.clear()
        _spans.clear()
        _epoch += 1


# ----------------------------------------------------------------------
# Child-process capture (job-server pool workers)
# ----------------------------------------------------------------------
def begin_child_capture() -> None:
    """Prepare a pool worker: clean buffers, tracing on.

    Called at the start of every captured job so fork-inherited parent
    state never leaks into the child's payload and spawn-started workers
    (fresh module, tracing off) still record.
    """
    with _lock:
        _counters.clear()
        _gauges.clear()
        _histograms.clear()
        _spans.clear()
    _local.stack = []
    enable_tracing()


def end_child_capture() -> dict[str, Any]:
    """Collect the worker's spans and metric deltas for the parent."""
    with _lock:
        payload = {
            "spans": list(_spans),
            "counters": dict(_counters),
            "gauges": dict(_gauges),
            "histograms": {k: dict(v) for k, v in _histograms.items()},
        }
        _spans.clear()
        _counters.clear()
        _gauges.clear()
        _histograms.clear()
    return payload


def merge_payload(payload: dict[str, Any], parent: str | None = None) -> None:
    """Fold a worker payload into this process.

    Child root spans (``parent is None``) are re-parented under *parent*
    (default: the span currently open on the calling thread) so the merged
    trace remains a single tree.
    """
    if parent is None:
        parent = current_span_id()
    with _lock:
        for s in payload.get("spans", ()):
            if parent is not None and s.get("parent") is None:
                s = dict(s)
                s["parent"] = parent
            if _TRACING:
                _spans.append(s)
        for k, v in payload.get("counters", {}).items():
            _counters[k] = _counters.get(k, 0) + v
        for k, v in payload.get("gauges", {}).items():
            _gauges[k] = v
        for k, h in payload.get("histograms", {}).items():
            mine = _histograms.get(k)
            if mine is None:
                _histograms[k] = dict(h)
            else:
                mine["count"] += h["count"]
                mine["total"] += h["total"]
                mine["min"] = min(mine["min"], h["min"])
                mine["max"] = max(mine["max"], h["max"])


# ----------------------------------------------------------------------
# JSONL export / import
# ----------------------------------------------------------------------
def export_trace(path: str | os.PathLike) -> Path:
    """Write the buffered spans plus a metrics snapshot as JSONL.

    One ``{"type": "span", ...}`` line per span (start-time order) and a
    final ``{"type": "metrics", "metrics": {...}}`` line, so a trace file
    is self-contained for ``repro trace summarize``.
    """
    path = Path(path)
    lines = [
        json.dumps({"type": "span", **s}, sort_keys=True)
        for s in trace_spans()
    ]
    lines.append(
        json.dumps(
            {"type": "metrics", "metrics": metrics_snapshot()}, sort_keys=True
        )
    )
    path.write_text("\n".join(lines) + "\n")
    return path


def load_trace(path: str | os.PathLike) -> tuple[list[dict], dict]:
    """Read a JSONL trace back as ``(spans, metrics)``."""
    spans: list[dict] = []
    metrics: dict = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("type") == "span":
            spans.append({k: v for k, v in record.items() if k != "type"})
        elif record.get("type") == "metrics":
            metrics = record.get("metrics", {})
    return spans, metrics
