"""Host toolchain probe kept for benchmark host blocks.

The package ships no JIT-compiled kernels, so :func:`toolchain` always
reports ``"none"``.  The module exists only because
``perfbench/run.py::host_block`` imports it to record the host's
toolchain in every benchmark report; deleting it would break those runs.
"""

from __future__ import annotations

__all__ = ["toolchain"]


def toolchain() -> str:
    """The active JIT tier: always ``"none"`` (no compiled kernels ship)."""
    return "none"
