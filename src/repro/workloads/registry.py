"""Registry resolving ingested (real-code) programs as first-class workloads.

Benchmark names throughout the repo resolve through
:func:`repro.workloads.get_program`.  This module extends that resolution
beyond the synthetic :data:`~repro.workloads.benchmarks.BENCHMARKS` table:

1. **In-memory registrations** — :func:`register_program` binds a
   :class:`~repro.graphs.program.Program` to its name for the current
   process (used by tests and by ``ingest_function`` callers).
2. **Path-like names** — a name containing a path separator or ending in
   ``.json`` / ``.dot`` / ``.py`` is treated as a file: a ``repro/v1``
   program or DFG artifact, a DOT graph, or a Python kernel to ingest.
3. **Workload directories** — ``$REPRO_WORKLOAD_DIR`` (or the directory
   passed to ``repro ingest --register``) is searched for
   ``<name>.json`` / ``<name>.dot`` / ``<name>.py``.

Paths and the environment variable survive into process-pool workers
(which re-resolve benchmarks by name), so service jobs on ingested
workloads behave exactly like jobs on built-in benchmarks; in-memory
registrations are per-process only.

File loads are cached on ``(path, mtime_ns, size)`` so repeated
resolution does not re-parse, while edits to the file are picked up.  The
cache keeps the :data:`FILE_CACHE_SIZE` most recently used files: a
long-running service resolves every path-named job through it, and a
cached program keeps its DFGs and their per-region MLGP contexts alive.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path

from repro import obs
from repro.errors import WorkloadError
from repro.graphs.program import Block, Program

__all__ = [
    "clear_registry",
    "lookup",
    "register_program",
    "registered_names",
    "unregister_program",
    "workload_dir",
]

ENV_WORKLOAD_DIR = "REPRO_WORKLOAD_DIR"

#: File suffixes the registry can load, in probe order.
_SUFFIXES = (".json", ".dot", ".py")

#: Most path-named programs kept parsed; the least recently used goes first.
#: A service re-resolves a job's files on every re-submit.  With two
#: clients on a two-worker server, at most 10 other files were resolved in
#: between (2,016 re-resolutions measured), so 16 keeps every hit while
#: holding ~1.8 MB per MLGP-sized program.
FILE_CACHE_SIZE = 16

_registry: dict[str, Program] = {}
_file_cache: OrderedDict[str, tuple[tuple[int, int], Program]] = OrderedDict()
# Inline servers resolve jobs on executor threads.
_file_cache_lock = threading.Lock()


def register_program(program: Program, name: str | None = None) -> str:
    """Bind *program* under *name* (default: its own name) for this process.

    Returns the name it was registered under.  Registered names shadow
    built-in benchmarks of the same name.
    """
    key = name or program.name
    if not key:
        raise WorkloadError("cannot register a program without a name")
    _registry[key] = program
    return key


def unregister_program(name: str) -> None:
    """Remove an in-memory registration (missing names are ignored)."""
    _registry.pop(name, None)


def registered_names() -> list[str]:
    """Names registered in this process, sorted."""
    return sorted(_registry)


def clear_registry() -> None:
    """Drop all in-memory registrations (file/dir resolution is unaffected)."""
    _registry.clear()


def workload_dir() -> Path | None:
    """The configured ingested-workload directory, if any."""
    value = os.environ.get(ENV_WORKLOAD_DIR, "").strip()
    return Path(value) if value else None


def lookup(name: str) -> Program | None:
    """Resolve *name* to an ingested program, or None if it isn't one.

    Resolution order: in-memory registry, then path-like names, then
    ``$REPRO_WORKLOAD_DIR/<name>.{json,dot,py}``.
    """
    program = _registry.get(name)
    if program is not None:
        return program
    if _is_path_like(name):
        path = Path(name)
        if not path.exists():
            raise WorkloadError(f"workload file {name!r} does not exist")
        return _load_path(path)
    base = workload_dir()
    if base is not None:
        for suffix in _SUFFIXES:
            path = base / f"{name}{suffix}"
            if path.exists():
                return _load_path(path)
    return None


def _is_path_like(name: str) -> bool:
    if "/" in name or os.sep in name:
        return True
    return name.endswith(_SUFFIXES)


def _load_path(path: Path) -> Program:
    """Load (with caching) a program from an artifact / DOT / Python file."""
    key = str(path)
    try:
        st = path.stat()
    except OSError as exc:
        raise WorkloadError(f"workload file {key!r}: cannot stat ({exc})") from exc
    stamp = (st.st_mtime_ns, st.st_size)
    with _file_cache_lock:
        cached = _file_cache.get(key)
        if cached is not None and cached[0] == stamp:
            _file_cache.move_to_end(key)
            return cached[1]
    with obs.span("workloads.load", path=key, suffix=path.suffix.lower()):
        program = _parse_path(path)
    with _file_cache_lock:
        _file_cache[key] = (stamp, program)
        _file_cache.move_to_end(key)
        while len(_file_cache) > FILE_CACHE_SIZE:
            _file_cache.popitem(last=False)
    return program


def _parse_path(path: Path) -> Program:
    # Lazy imports: repro.io pulls solver modules, and repro.frontend is
    # only needed once a real-code workload is actually referenced.
    from repro import frontend

    suffix = path.suffix.lower()
    if suffix == ".json":
        from repro.io import load_json

        data = load_json(path)
        kind = data.get("kind")
        if kind == "program":
            return frontend.program_from_dict(data)
        if kind == "dfg":
            dfg = frontend.dfg_from_dict(data)
            return Program(dfg.name or path.stem, Block(dfg))
        raise WorkloadError(
            f"{path}: artifact kind {kind!r} is not a workload "
            "(expected 'program' or 'dfg')"
        )
    if suffix == ".dot":
        try:
            text = path.read_text()
        except OSError as exc:
            raise WorkloadError(f"{path}: cannot read ({exc})") from exc
        dfg = frontend.import_dot(text)
        return Program(dfg.name or path.stem, Block(dfg))
    if suffix == ".py":
        return frontend.ingest_path(path)
    raise WorkloadError(
        f"{path}: unsupported workload file type {suffix!r} "
        f"(expected one of {', '.join(_SUFFIXES)})"
    )
