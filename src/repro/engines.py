"""The engine vocabulary shared by every stage.

A stage with more than one implementation keeps exactly two, under the
same names everywhere: ``"fast"`` (the default) and ``"reference"`` (the
plain implementation, kept as the differential oracle).  Only the
functions that hold both implementations take an ``engine`` argument;
nothing above them forwards one.
"""

from __future__ import annotations

__all__ = ["ENGINES", "check_engine"]

#: Engine names accepted by every engine-taking function.
ENGINES = ("fast", "reference")


def check_engine(engine: str) -> None:
    """Raise :class:`ValueError` unless *engine* is one of :data:`ENGINES`."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; use one of {', '.join(ENGINES)}"
        )
