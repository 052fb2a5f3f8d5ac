"""Pluggable storage backends for the artifact cache's persistent tier.

:mod:`repro.cache` keeps the *logic* of the persistent tier — entry
envelopes, payload checksums, corruption quarantine — and delegates the
*storage* to a backend object.  Two backends ship:

* :class:`LocalDirBackend` — the default: one JSON file per entry under a
  local directory (``REPRO_CACHE_DIR``), written atomically (unique
  tempfile + ``os.replace``) so concurrent writers never produce a torn
  file, with **LRU-by-mtime eviction** under configurable byte/entry
  budgets.  Reads refresh the entry's mtime, so recently used artifacts
  survive the sweep; the sweep itself is guarded by a non-blocking
  ``flock`` so exactly one process pays for it at a time (contenders skip
  and count ``cache.disk.lock_contention``).  The directory is meant for
  the processes of one host: ``flock`` is not reliable on network
  filesystems.
* :class:`MemoryBackend` — a process-local dict with the same budgets and
  LRU behavior; for tests and for embedding the job server without
  touching the filesystem.

Budgets come from the constructor or the environment
(``REPRO_CACHE_MAX_BYTES`` / ``REPRO_CACHE_MAX_ENTRIES``; unset means
unbounded, matching the pre-backend behavior).  Occupancy and eviction
are mirrored into :mod:`repro.obs`: gauges ``cache.disk.bytes`` /
``cache.disk.entries`` (refreshed by every sweep) and counters
``cache.disk.evictions`` / ``cache.disk.evicted_bytes`` /
``cache.disk.lock_contention`` / ``cache.disk.sweeps``.

Backends store and return *entry text* (the serialized envelope); they
never interpret it.  A backend must never raise out of ``load``/``store``
for environmental reasons (full disk, read-only directory, a vanished
file): the cache tier is an accelerator, not a correctness dependency.
"""

from __future__ import annotations

import fcntl
import os
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro import obs

__all__ = [
    "CacheBackend",
    "LocalDirBackend",
    "MemoryBackend",
    "ENV_MAX_BYTES",
    "ENV_MAX_ENTRIES",
]

ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"
ENV_MAX_ENTRIES = "REPRO_CACHE_MAX_ENTRIES"

#: A *.tmp file older than this is an orphan from a crashed writer.
_STALE_TMP_SECONDS = 300.0


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


class CacheBackend:
    """Interface of a persistent-tier storage backend.

    Subclasses provide entry-text storage keyed by file-like names
    (``repro-cache-<kind>-<key>.json``); eviction, budgets and stats are
    backend concerns, envelope validation is :mod:`repro.cache`'s.
    """

    name = "base"

    def load(self, entry: str) -> str | None:
        """The stored text for *entry*, or None when absent/unreadable."""
        raise NotImplementedError

    def store(self, entry: str, text: str) -> None:
        """Persist *text* under *entry* atomically; never raises for
        environmental failures (full/read-only storage is a no-op)."""
        raise NotImplementedError

    def touch(self, entry: str) -> None:
        """Mark *entry* recently used (LRU refresh after a validated hit)."""

    def quarantine(self, entry: str, reason: str) -> None:
        """Move a corrupt *entry* aside so it is never re-read."""

    def clear(self) -> None:
        """Drop every entry (including quarantined and orphaned ones)."""

    def sweep(self) -> None:
        """Force an eviction sweep now (normally triggered by stores)."""

    def stats(self) -> dict[str, Any]:
        """Occupancy/eviction/contention counters for ``cache.stats()``."""
        raise NotImplementedError


class LocalDirBackend(CacheBackend):
    """Local-directory tier: atomic JSON files + flock-guarded eviction."""

    name = "local"

    #: Stores between occupancy sweeps when budgets are configured.  The
    #: sweep scans the directory, so amortize it; the budgets are soft by
    #: at most ``sweep_interval`` entries of overshoot per process.
    DEFAULT_SWEEP_INTERVAL = 8

    def __init__(
        self,
        root: str | os.PathLike,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        sweep_interval: int | None = None,
    ) -> None:
        self.root = Path(root)
        self.max_bytes = (
            max_bytes if max_bytes is not None else _env_int(ENV_MAX_BYTES)
        )
        self.max_entries = (
            max_entries
            if max_entries is not None
            else _env_int(ENV_MAX_ENTRIES)
        )
        self.sweep_interval = (
            sweep_interval
            if sweep_interval is not None
            else self.DEFAULT_SWEEP_INTERVAL
        )
        self._lock = threading.Lock()
        self._stores_since_sweep = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.lock_contention = 0
        self._last_bytes = 0
        self._last_entries = 0

    # -- storage -------------------------------------------------------
    def _path(self, entry: str) -> Path:
        return self.root / entry

    def load(self, entry: str) -> str | None:
        path = self._path(entry)
        try:
            return path.read_text()
        except OSError:
            return None

    def store(self, entry: str, text: str) -> None:
        path = self._path(entry)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            # Unique tempfile in the same directory + os.replace:
            # concurrent writers cannot interleave and readers never
            # observe a torn file.
            fd, tmp_name = tempfile.mkstemp(
                prefix=path.name + ".", suffix=".tmp", dir=self.root
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                os.replace(tmp_name, path)
            except OSError:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full cache directory must never fail the
            # pipeline.
            return
        if self.max_bytes is not None or self.max_entries is not None:
            with self._lock:
                self._stores_since_sweep += 1
                due = self._stores_since_sweep >= self.sweep_interval
                if due:
                    self._stores_since_sweep = 0
            if due:
                self.sweep()

    def touch(self, entry: str) -> None:
        try:
            os.utime(self._path(entry))
        except OSError:
            pass

    def quarantine(self, entry: str, reason: str) -> None:
        path = self._path(entry)
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            # Read-only directory: leave the file; reads keep treating it
            # as a miss, so correctness is unaffected.
            pass

    def clear(self) -> None:
        if not self.root.is_dir():
            return
        for pattern in (
            "repro-cache-*.json",
            "repro-cache-*.json.corrupt",
            "repro-cache-*.tmp",
        ):
            for f in self.root.glob(pattern):
                f.unlink(missing_ok=True)

    # -- eviction ------------------------------------------------------
    def _scan(self) -> list[tuple[float, int, str]]:
        """(mtime, size, name) of every cache-owned file, oldest first.

        Quarantined ``*.corrupt`` files age out through the same LRU:
        nothing refreshes their mtime, so they are among the first evicted
        once a budget binds.  Orphaned ``*.tmp`` files from crashed
        writers are deleted on sight once stale.
        """
        now = time.time()
        rows: list[tuple[float, int, str]] = []
        try:
            it = os.scandir(self.root)
        except OSError:
            return rows
        with it:
            for de in it:
                name = de.name
                if not name.startswith("repro-cache-"):
                    continue
                try:
                    st = de.stat()
                except OSError:
                    continue
                if name.endswith(".tmp"):
                    if now - st.st_mtime > _STALE_TMP_SECONDS:
                        try:
                            os.unlink(de.path)
                        except OSError:
                            pass
                    continue
                rows.append((st.st_mtime, st.st_size, name))
        rows.sort()
        return rows

    def sweep(self) -> None:
        fd = -1
        try:
            fd = os.open(
                self.root / "repro-cache.lock", os.O_CREAT | os.O_RDWR, 0o644
            )
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            if fd >= 0:
                os.close(fd)
            # Another process is sweeping; skip rather than queue up —
            # its sweep covers our writes too.
            self.lock_contention += 1
            obs.inc("cache.disk.lock_contention")
            return
        try:
            rows = self._scan()
            total = sum(size for _, size, _ in rows)
            count = len(rows)
            evicted = 0
            evicted_bytes = 0
            for mtime, size, name in rows:
                over_bytes = (
                    self.max_bytes is not None and total > self.max_bytes
                )
                over_entries = (
                    self.max_entries is not None and count > self.max_entries
                )
                if not over_bytes and not over_entries:
                    break
                try:
                    os.unlink(self._path(name))
                except OSError:
                    continue
                total -= size
                count -= 1
                evicted += 1
                evicted_bytes += size
            with self._lock:
                self.evictions += evicted
                self.evicted_bytes += evicted_bytes
                self._last_bytes = total
                self._last_entries = count
            obs.inc("cache.disk.sweeps")
            if evicted:
                obs.inc("cache.disk.evictions", evicted)
                obs.inc("cache.disk.evicted_bytes", evicted_bytes)
            obs.set_gauge("cache.disk.bytes", total)
            obs.set_gauge("cache.disk.entries", count)
        finally:
            # Unlock explicitly: a child forked mid-sweep shares the open
            # file description, so closing ours alone would not release it.
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def stats(self) -> dict[str, Any]:
        # Refresh occupancy so stats() reflects the directory as-is even
        # when no store triggered a sweep recently.
        rows = self._scan()
        with self._lock:
            self._last_bytes = sum(size for _, size, _ in rows)
            self._last_entries = len(rows)
            obs.set_gauge("cache.disk.bytes", self._last_bytes)
            obs.set_gauge("cache.disk.entries", self._last_entries)
            return {
                "backend": self.name,
                "path": str(self.root),
                "bytes": self._last_bytes,
                "entries": self._last_entries,
                "max_bytes": self.max_bytes,
                "max_entries": self.max_entries,
                "evictions": self.evictions,
                "evicted_bytes": self.evicted_bytes,
                "lock_contention": self.lock_contention,
            }


class MemoryBackend(CacheBackend):
    """Process-local dict tier with the same budgets/LRU semantics.

    For tests and for embedding :mod:`repro.service` without a writable
    filesystem.  Thread-safe; *not* shared across processes.
    """

    name = "memory"

    def __init__(
        self,
        max_bytes: int | None = None,
        max_entries: int | None = None,
    ) -> None:
        self.max_bytes = (
            max_bytes if max_bytes is not None else _env_int(ENV_MAX_BYTES)
        )
        self.max_entries = (
            max_entries
            if max_entries is not None
            else _env_int(ENV_MAX_ENTRIES)
        )
        self._data: OrderedDict[str, str] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.evictions = 0
        self.evicted_bytes = 0
        self.lock_contention = 0

    def load(self, entry: str) -> str | None:
        with self._lock:
            return self._data.get(entry)

    def store(self, entry: str, text: str) -> None:
        with self._lock:
            old = self._data.pop(entry, None)
            if old is not None:
                self._bytes -= len(old)
            self._data[entry] = text
            self._bytes += len(text)
            self._evict_locked()

    def touch(self, entry: str) -> None:
        with self._lock:
            try:
                self._data.move_to_end(entry)
            except KeyError:
                pass

    def quarantine(self, entry: str, reason: str) -> None:
        with self._lock:
            old = self._data.pop(entry, None)
            if old is not None:
                self._bytes -= len(old)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._bytes = 0

    def sweep(self) -> None:
        with self._lock:
            self._evict_locked()

    def _evict_locked(self) -> None:
        evicted = 0
        evicted_bytes = 0
        while self._data and (
            (self.max_entries is not None and len(self._data) > self.max_entries)
            or (self.max_bytes is not None and self._bytes > self.max_bytes)
        ):
            _, old = self._data.popitem(last=False)
            self._bytes -= len(old)
            evicted += 1
            evicted_bytes += len(old)
        if evicted:
            self.evictions += evicted
            self.evicted_bytes += evicted_bytes
            obs.inc("cache.disk.evictions", evicted)
            obs.inc("cache.disk.evicted_bytes", evicted_bytes)
        obs.set_gauge("cache.disk.bytes", self._bytes)
        obs.set_gauge("cache.disk.entries", len(self._data))

    def stats(self) -> dict[str, Any]:
        with self._lock:
            obs.set_gauge("cache.disk.bytes", self._bytes)
            obs.set_gauge("cache.disk.entries", len(self._data))
            return {
                "backend": self.name,
                "path": None,
                "bytes": self._bytes,
                "entries": len(self._data),
                "max_bytes": self.max_bytes,
                "max_entries": self.max_entries,
                "evictions": self.evictions,
                "evicted_bytes": self.evicted_bytes,
                "lock_contention": self.lock_contention,
            }
