"""Content-keyed memoization for identification artifacts.

Area/utilization sweeps (e.g. the Chapter 3 benches) re-run the
identification pipeline — candidate enumeration plus configuration-curve
construction — over the *same* programs at many budget points.  Both
artifacts depend only on the program's structure and the pipeline
parameters, so they are memoized behind a content key.  So are the
other results a run repeats: EDF/RMS selections (``selection``), MLGP
region partitions (``mlgp``) and completed service jobs (``service``).
Whole-answer results that a run computes once (Pareto curves, Ch. 6
partitions, Ch. 7 solutions) are not cached.

Every kind works the same way:

* **key** — SHA-256 over a canonical rendering of the program's syntax tree
  and every basic block's DFG (opcodes, edges, live-outs, live-in operand
  counts) plus the enumeration/selection parameters
  (:func:`program_fingerprint`, :func:`artifact_key`);
* **in-process LRU** — always on (a caller of a cached kind can bypass
  it per call, or disable it globally with :func:`set_enabled`);
* **on-disk JSON** — off by default; enabled by setting the
  ``REPRO_CACHE_DIR`` environment variable (or :func:`set_cache_dir`) to a
  writable directory, where artifacts persist across processes.

The cache stores immutable payloads (tuples of frozen dataclasses) and
returns them as fresh lists, so callers can mutate their copies freely.

The disk tier is hardened against a hostile filesystem: entries are
written atomically (unique tempfile + ``os.replace``) and carry a SHA-256
payload checksum; on load, a corrupt, truncated or checksum-mismatched
entry is treated as a plain miss — the offending file is quarantined with
a ``.corrupt`` suffix and a warning is logged once per observability epoch
(every occurrence is still counted on the ``cache.corrupt_entries``
metric; see :func:`repro.obs.reset`), never an exception, never a wrong
payload.

The persistent tier (:class:`_DiskTier`) keeps one JSON file per entry
under ``REPRO_CACHE_DIR``, shared by the processes of one host, with
**LRU-by-mtime eviction** under the ``REPRO_CACHE_MAX_BYTES`` /
``REPRO_CACHE_MAX_ENTRIES`` budgets (unset means unbounded).  Validated
hits refresh an entry's mtime, so hot artifacts survive the sweeps.

Hit/miss accounting is mirrored into :mod:`repro.obs` under
``cache.<kind>.hits`` / ``.misses`` / ``.disk_hits``; the persistent
tier's eviction/contention counters live under ``cache.disk.*`` and in
the ``"disk"`` section of :func:`stats`, which also refreshes the
``cache.disk.bytes`` / ``cache.disk.entries`` occupancy gauges.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import tempfile
import threading
import time
import weakref
from collections import OrderedDict
from collections.abc import Callable, Iterable, Sequence
from pathlib import Path
from typing import Any

from repro import obs
from repro.enumeration.patterns import Candidate
from repro.graphs.program import Block, IfElse, Loop, Program, Seq
from repro.selection.config_curve import TaskConfiguration

__all__ = [
    "artifact_key",
    "cache_dir",
    "disk_stats",
    "registered_kinds",
    "stats",
    "candidates_digest",
    "clear",
    "dfg_digest",
    "fetch_candidates",
    "fetch_curve",
    "fetch_mlgp",
    "fetch_selection",
    "fetch_service_result",
    "program_fingerprint",
    "reset_cache_dir",
    "set_cache_dir",
    "set_enabled",
    "store_candidates",
    "store_curve",
    "store_mlgp",
    "store_selection",
    "store_service_result",
    "taskset_digest",
]

#: Bump when the serialized payload layout changes (stale disk entries with
#: an older schema are ignored, never misread).  2: entries carry a payload
#: checksum.
SCHEMA_VERSION = 2

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"
_ENV_MAX_ENTRIES = "REPRO_CACHE_MAX_ENTRIES"

#: Stores between eviction sweeps when a budget is set.  A sweep scans the
#: directory, so it is amortized; the budgets are soft by at most this many
#: entries of overshoot per process.
_SWEEP_INTERVAL = 8

#: A *.tmp file older than this is an orphan from a crashed writer.
_STALE_TMP_SECONDS = 300.0

logger = logging.getLogger("repro.cache")


def _warn_corrupt_once(path: Path, reason: str) -> None:
    # Every occurrence is counted even when the log line is suppressed;
    # obs.reset() re-arms the log-once state (one line per epoch).
    obs.inc("cache.corrupt_entries")
    if obs.warn_once("cache.corrupt"):
        logger.warning(
            "corrupt cache entry %s (%s); quarantined as *.corrupt and treated "
            "as a miss (further corrupt entries are handled silently)",
            path.name,
            reason,
        )


def _quarantine(path: Path, reason: str) -> None:
    """Move a corrupt entry aside so it is never re-read, and log once."""
    try:
        os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
    except OSError:
        # Read-only directory: leave the file; reads keep treating it as
        # a miss, so correctness is unaffected.
        pass
    _warn_corrupt_once(path, reason)


def _payload_checksum(payload: Any) -> str:
    """SHA-256 over the canonical JSON rendering of a payload."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class _LRUCache:
    """A small thread-safe LRU map (no TTL; artifacts are content-keyed)."""

    def __init__(self, kind: str, maxsize: int) -> None:
        self.kind = kind
        self.maxsize = maxsize
        self._data: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Any | None:
        with self._lock:
            try:
                value = self._data.pop(key)
            except KeyError:
                self.misses += 1
                obs.inc(f"cache.{self.kind}.misses")
                return None
            self._data[key] = value
            self.hits += 1
            obs.inc(f"cache.{self.kind}.hits")
            return value

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._data.pop(key, None)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._data)


def _env_int(name: str) -> int | None:
    """A positive integer budget from the environment, else ``None``."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def _is_live_entry(name: str) -> bool:
    """Whether *name* is a ``repro-cache-<kind>-<key>.json`` entry of a
    registered kind, not a quarantined ``*.corrupt`` file or a foreign
    file wearing the prefix."""
    if not name.endswith(".json"):
        return False
    kind, sep, _ = name[len("repro-cache-"):].partition("-")
    return bool(sep) and kind in _KINDS


def _publish_occupancy(rows: list[tuple[float, int, str]]) -> tuple[int, int]:
    """Bytes and count of the live entries among *rows*, also set on the
    ``cache.disk.bytes`` / ``cache.disk.entries`` gauges."""
    sizes = [size for _, size, name in rows if _is_live_entry(name)]
    obs.set_gauge("cache.disk.bytes", sum(sizes))
    obs.set_gauge("cache.disk.entries", len(sizes))
    return sum(sizes), len(sizes)


class _DiskTier:
    """One local directory of JSON entry files, shared by the processes of
    one host.

    Writes are atomic (unique tempfile + ``os.replace``), so concurrent
    writers never produce a torn file.  When a budget is set, every
    :data:`_SWEEP_INTERVAL`-th store runs an LRU-by-mtime eviction sweep
    guarded by a non-blocking ``flock``, so exactly one process pays for it
    at a time (contenders skip and count ``cache.disk.lock_contention``);
    ``flock`` is not reliable on network filesystems.  Nothing here raises
    for environmental reasons (full disk, read-only directory, a vanished
    file): the tier is an accelerator, not a correctness dependency.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.max_bytes = _env_int(_ENV_MAX_BYTES)
        self.max_entries = _env_int(_ENV_MAX_ENTRIES)
        self._lock = threading.Lock()
        self._stores_since_sweep = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.lock_contention = 0

    def store(self, entry: str, text: str) -> None:
        path = self.root / entry
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
                due = self._stores_since_sweep >= _SWEEP_INTERVAL
                if due:
                    self._stores_since_sweep = 0
            if due:
                self.sweep()

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
        """Evict least-recently-used files until both budgets hold."""
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
            evicted: set[str] = set()
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
                    os.unlink(self.root / name)
                except OSError:
                    continue
                total -= size
                count -= 1
                evicted.add(name)
                evicted_bytes += size
            with self._lock:
                self.evictions += len(evicted)
                self.evicted_bytes += evicted_bytes
            obs.inc("cache.disk.sweeps")
            if evicted:
                obs.inc("cache.disk.evictions", len(evicted))
                obs.inc("cache.disk.evicted_bytes", evicted_bytes)
            _publish_occupancy([r for r in rows if r[2] not in evicted])
        finally:
            # Unlock explicitly: a child forked mid-sweep shares the open
            # file description, so closing ours alone would not release it.
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def stats(self) -> dict[str, Any]:
        """The directory's live-entry occupancy as it is now (also
        refreshing the ``cache.disk.bytes`` / ``cache.disk.entries``
        gauges) plus this process's eviction and contention totals."""
        total, entries = _publish_occupancy(self._scan())
        with self._lock:
            return {
                "path": str(self.root),
                "bytes": total,
                "entries": entries,
                "max_bytes": self.max_bytes,
                "max_entries": self.max_entries,
                "evictions": self.evictions,
                "evicted_bytes": self.evicted_bytes,
                "lock_contention": self.lock_contention,
            }


#: Single registry of artifact kinds: stats()/clear() derive from it, so a
#: new kind can never drift out of the report or survive a clear().
_KINDS: dict[str, _LRUCache] = {}


def _register_kind(kind: str, maxsize: int) -> _LRUCache:
    lru = _LRUCache(kind, maxsize)
    _KINDS[kind] = lru
    return lru


_LIBRARIES = _register_kind("library", maxsize=256)
_CURVES = _register_kind("curve", maxsize=512)
_SELECTIONS = _register_kind("selection", maxsize=2048)
_MLGP = _register_kind("mlgp", maxsize=4096)
_SERVICE = _register_kind("service", maxsize=1024)
_enabled = True
_dir_override: Path | None | str = ""  # "" means "follow the environment"
#: Memoized disk tier: (directory, budget env values) -> tier.
_tier_memo: tuple[tuple, _DiskTier] | None = None


def set_enabled(enabled: bool) -> None:
    """Globally enable/disable the in-process and on-disk caches."""
    global _enabled
    _enabled = enabled


def set_cache_dir(path: str | os.PathLike | None) -> None:
    """Override the on-disk cache directory (``None`` disables the disk tier).

    Without an override the directory comes from the ``REPRO_CACHE_DIR``
    environment variable; when neither is set, no files are written.  Use
    :func:`reset_cache_dir` to drop the override and follow the environment
    again.
    """
    global _dir_override
    _dir_override = None if path is None else Path(path)


def reset_cache_dir() -> None:
    """Drop any :func:`set_cache_dir` override; follow ``REPRO_CACHE_DIR``."""
    global _dir_override
    _dir_override = ""


def cache_dir() -> Path | None:
    """The active on-disk cache directory, or ``None`` when disabled."""
    if _dir_override != "":
        return _dir_override  # type: ignore[return-value]
    env = os.environ.get(_ENV_DIR)
    return Path(env) if env else None


def _disk_tier() -> _DiskTier | None:
    """The persistent tier on :func:`cache_dir`, or ``None`` when disabled;
    memoized until the directory or a budget variable changes."""
    global _tier_memo
    d = cache_dir()
    if d is None:
        return None
    sig = (
        str(d),
        os.environ.get(_ENV_MAX_BYTES),
        os.environ.get(_ENV_MAX_ENTRIES),
    )
    if _tier_memo is None or _tier_memo[0] != sig:
        _tier_memo = (sig, _DiskTier(d))
    return _tier_memo[1]


def disk_stats() -> dict[str, Any] | None:
    """Occupancy/eviction/contention stats of the persistent tier, or
    ``None`` when the disk tier is off (the ``"disk"`` row of
    :func:`stats`)."""
    tier = _disk_tier()
    return tier.stats() if tier is not None else None


def clear(disk: bool = False) -> None:
    """Drop all in-process entries of every registered kind, zero every
    hit/miss counter (and optionally delete the persistent-tier entries)."""
    for lru in _KINDS.values():
        lru.clear()
    if disk:
        tier = _disk_tier()
        if tier is not None:
            tier.clear()


def registered_kinds() -> tuple[str, ...]:
    """Every artifact kind known to the cache, sorted."""
    return tuple(sorted(_KINDS))


def stats() -> dict[str, dict[str, Any]]:
    """Hit/miss/size counters per artifact kind (for tests and reports).

    The per-kind rows are derived from the kind registry, so those keys
    are exactly :func:`registered_kinds` — a kind can never drift out of
    the report.  When the disk tier is on, one extra ``"disk"`` row
    carries its occupancy/eviction/contention stats (:func:`disk_stats`).
    """
    out: dict[str, dict[str, Any]] = {
        kind: {"hits": lru.hits, "misses": lru.misses, "size": len(lru)}
        for kind, lru in sorted(_KINDS.items())
    }
    disk = disk_stats()
    if disk is not None:
        out["disk"] = disk
    return out


# ----------------------------------------------------------------------
# Content keys
# ----------------------------------------------------------------------
def _construct_repr(node: Any, block_ids: dict[int, int]) -> Any:
    if isinstance(node, Block):
        return ("B", block_ids[id(node)])
    if isinstance(node, Seq):
        return ("S", tuple(_construct_repr(c, block_ids) for c in node.children))
    if isinstance(node, Loop):
        return (
            "L",
            node.bound,
            node.avg_trip,
            _construct_repr(node.body, block_ids),
        )
    if isinstance(node, IfElse):
        return (
            "I",
            node.taken_prob,
            _construct_repr(node.then_branch, block_ids),
            _construct_repr(node.else_branch, block_ids),
        )
    raise TypeError(f"unknown construct {type(node).__name__}")


def _dfg_repr(block: Block) -> tuple:
    dfg = block.dfg
    return tuple(
        (
            dfg.op(n).value,
            tuple(dfg.preds(n)),
            dfg.is_live_out(n),
            dfg.external_inputs(n),
        )
        for n in dfg.nodes
    )


_FINGERPRINTS: "weakref.WeakKeyDictionary[Program, str]" = weakref.WeakKeyDictionary()


def program_fingerprint(program: Program) -> str:
    """SHA-256 hex digest of a program's structure.

    Two programs with identical syntax trees (bounds, trip counts, branch
    probabilities) and identical basic-block DFGs (opcodes, dependence
    edges, live-outs, live-in operand counts) get the same fingerprint, so
    identification artifacts computed for one are valid for the other.
    Names are deliberately excluded — the cache is content-addressed.
    Memoized per program object (programs are treated as immutable once
    handed to the pipeline).
    """
    memo = _FINGERPRINTS.get(program)
    if memo is not None:
        return memo
    blocks = program.basic_blocks
    block_ids = {id(b): i for i, b in enumerate(blocks)}
    payload = repr(
        (
            _construct_repr(program.root, block_ids),
            tuple(_dfg_repr(b) for b in blocks),
        )
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()
    _FINGERPRINTS[program] = digest
    return digest


_DFG_DIGESTS: "weakref.WeakKeyDictionary[Any, str]" = weakref.WeakKeyDictionary()


def dfg_digest(dfg: Any) -> str:
    """SHA-256 hex digest of one DFG's structure (for MLGP cache keys).

    Covers opcodes, dependence edges, live-outs and live-in operand
    counts — the same per-block rendering :func:`program_fingerprint`
    uses.  Memoized per DFG object (DFGs are treated as immutable once
    handed to the partitioning pipeline, like programs).
    """
    memo = _DFG_DIGESTS.get(dfg)
    if memo is not None:
        return memo
    payload = repr(
        tuple(
            (
                dfg.op(n).value,
                tuple(dfg.preds(n)),
                dfg.is_live_out(n),
                dfg.external_inputs(n),
            )
            for n in dfg.nodes
        )
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()
    _DFG_DIGESTS[dfg] = digest
    return digest


def candidates_digest(candidates: Sequence[Candidate]) -> str:
    """SHA-256 hex digest of a candidate list (for curve cache keys)."""
    payload = repr(
        tuple(
            (
                c.block_index,
                tuple(sorted(c.nodes)),
                c.sw_cycles,
                c.hw_cycles,
                c.area,
                c.frequency,
            )
            for c in candidates
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def taskset_digest(task_set: Any) -> str:
    """SHA-256 hex digest of a task set's schedulability-relevant content.

    Covers periods and every configuration's (area, cycles) pair, in task
    order; names are deliberately excluded (content addressing, as with
    :func:`program_fingerprint`).  Accepts any object with a ``tasks``
    sequence of objects carrying ``period`` and ``configurations``.
    """
    payload = repr(
        tuple(
            (t.period, tuple((c.area, c.cycles) for c in t.configurations))
            for t in task_set.tasks
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def artifact_key(fingerprint: str, **params: Any) -> str:
    """Key for one artifact: program fingerprint + pipeline parameters."""
    canon = json.dumps(params, sort_keys=True, default=repr)
    return hashlib.sha256(
        f"{SCHEMA_VERSION}:{fingerprint}:{canon}".encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Serialization (on-disk JSON tier)
# ----------------------------------------------------------------------
def _tuplify(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def _candidate_to_jsonable(c: Candidate) -> dict[str, Any]:
    return {
        "block_index": c.block_index,
        "nodes": sorted(c.nodes),
        "sw_cycles": c.sw_cycles,
        "hw_cycles": c.hw_cycles,
        "area": c.area,
        "inputs": c.inputs,
        "outputs": c.outputs,
        "frequency": c.frequency,
        "structural_key": c.structural_key,
    }


def _candidate_from_jsonable(d: dict[str, Any]) -> Candidate:
    return Candidate(
        block_index=d["block_index"],
        nodes=frozenset(d["nodes"]),
        sw_cycles=d["sw_cycles"],
        hw_cycles=d["hw_cycles"],
        area=d["area"],
        inputs=d["inputs"],
        outputs=d["outputs"],
        frequency=d["frequency"],
        structural_key=_tuplify(d["structural_key"]),
    )


def _configuration_to_jsonable(p: TaskConfiguration) -> dict[str, Any]:
    return {"area": p.area, "cycles": p.cycles, "selected": list(p.selected)}


def _configuration_from_jsonable(d: dict[str, Any]) -> TaskConfiguration:
    return TaskConfiguration(
        area=d["area"], cycles=d["cycles"], selected=tuple(d["selected"])
    )


def _entry_name(kind: str, key: str) -> str:
    return f"repro-cache-{kind}-{key[:40]}.json"


def _disk_read(kind: str, key: str) -> Any | None:
    tier = _disk_tier()
    if tier is None:
        return None
    path = tier.root / _entry_name(kind, key)
    try:
        text = path.read_text()
    except OSError:
        return None
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        # Truncated write, bit rot, or a foreign file wearing our name.
        _quarantine(path, "not valid JSON")
        return None
    if not isinstance(data, dict):
        _quarantine(path, "entry is not a JSON object")
        return None
    if data.get("schema") != SCHEMA_VERSION:
        # A legitimately stale entry from an older layout: a plain miss
        # (it will be overwritten by the next store), not corruption.
        return None
    if data.get("key") != key:
        _quarantine(path, "key does not match the file name")
        return None
    payload = data.get("payload")
    try:
        checksum = _payload_checksum(payload)
    except (TypeError, ValueError):
        _quarantine(path, "payload is not canonically serializable")
        return None
    if data.get("checksum") != checksum:
        _quarantine(path, "payload checksum mismatch")
        return None
    # A validated hit refreshes the entry's LRU position, so hot
    # artifacts survive budget-bound eviction sweeps.
    try:
        os.utime(path)
    except OSError:
        pass
    return payload


def _disk_write(tier: _DiskTier, kind: str, key: str, payload: Any) -> None:
    text = json.dumps({
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "key": key,
        "checksum": _payload_checksum(payload),
        "payload": payload,
    })
    tier.store(_entry_name(kind, key), text)


# ----------------------------------------------------------------------
# Typed fetch/store
# ----------------------------------------------------------------------
def _fetch(
    lru: _LRUCache,
    kind: str,
    key: str,
    decode: Callable[[dict[str, Any]], Any],
) -> list[Any] | None:
    if not _enabled:
        return None
    cached = lru.get(key)
    if cached is not None:
        return list(cached)
    raw = _disk_read(kind, key)
    if raw is None:
        return None
    obs.inc(f"cache.{kind}.disk_hits")
    values = [decode(d) for d in raw]
    lru.put(key, tuple(values))
    return values


def _store(
    lru: _LRUCache,
    kind: str,
    key: str,
    values: Iterable[Any],
    encode: Callable[[Any], dict[str, Any]],
) -> None:
    if not _enabled:
        return
    frozen = tuple(values)
    lru.put(key, frozen)
    tier = _disk_tier()
    if tier is not None:
        _disk_write(tier, kind, key, [encode(v) for v in frozen])


def _fetch_json(lru: _LRUCache, kind: str, key: str) -> Any | None:
    """Generic JSON-payload fetch (LRU stores the serialized form, so every
    hit hands back a fresh deep copy the caller can mutate freely)."""
    if not _enabled:
        return None
    cached = lru.get(key)
    if cached is not None:
        return json.loads(cached)
    raw = _disk_read(kind, key)
    if raw is None:
        return None
    obs.inc(f"cache.{kind}.disk_hits")
    lru.put(key, json.dumps(raw))
    return raw


def _store_json(lru: _LRUCache, kind: str, key: str, payload: Any) -> None:
    if not _enabled:
        return
    lru.put(key, json.dumps(payload))
    tier = _disk_tier()
    if tier is not None:
        _disk_write(tier, kind, key, payload)


def fetch_candidates(key: str) -> list[Candidate] | None:
    """Cached candidate list for *key*, or None on a miss."""
    return _fetch(_LIBRARIES, "library", key, _candidate_from_jsonable)


def store_candidates(key: str, candidates: Sequence[Candidate]) -> None:
    """Memoize a built candidate library."""
    _store(_LIBRARIES, "library", key, candidates, _candidate_to_jsonable)


def fetch_curve(key: str) -> list[TaskConfiguration] | None:
    """Cached configuration curve for *key*, or None on a miss."""
    return _fetch(_CURVES, "curve", key, _configuration_from_jsonable)


def store_curve(key: str, curve: Sequence[TaskConfiguration]) -> None:
    """Memoize a built configuration curve."""
    _store(_CURVES, "curve", key, curve, _configuration_to_jsonable)


def fetch_selection(key: str) -> dict[str, Any] | None:
    """Cached selection result (solver-specific jsonable dict) or None."""
    return _fetch_json(_SELECTIONS, "selection", key)


def store_selection(key: str, payload: dict[str, Any]) -> None:
    """Memoize a selection-solver result."""
    _store_json(_SELECTIONS, "selection", key, payload)


def fetch_mlgp(key: str) -> dict[str, Any] | None:
    """Cached MLGP region result (partitions/gains/areas dict) or None."""
    return _fetch_json(_MLGP, "mlgp", key)


def store_mlgp(key: str, payload: dict[str, Any]) -> None:
    """Memoize an MLGP region result."""
    _store_json(_MLGP, "mlgp", key, payload)


def fetch_service_result(key: str) -> dict[str, Any] | None:
    """Cached :mod:`repro.service` job result (jsonable dict) or None.

    The service's at-rest dedup tier: completed job results are
    content-keyed like every other artifact, so every worker process
    sharing the cache directory serves repeated requests straight from
    the store.
    """
    return _fetch_json(_SERVICE, "service", key)


def store_service_result(key: str, payload: dict[str, Any]) -> None:
    """Memoize a completed service job result."""
    _store_json(_SERVICE, "service", key, payload)
