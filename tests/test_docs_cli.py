"""Every ``python -m repro …`` line in README.md and docs/USAGE.md parses.

Lines are read as a shell would: ``\\``-continued lines are joined,
``VAR=value`` prefixes, ``#`` comments and a trailing ``&`` are dropped,
and the arguments after ``python -m repro`` go through
:func:`repro.cli.build_parser`'s ``parse_args``.  Nothing is executed.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "docs/USAGE.md")
_ENV_PREFIX = re.compile(r"^(?:[A-Za-z_][A-Za-z0-9_]*=\S*\s+)+")


def _commands(doc: str):
    pending, first = "", None
    for lineno, raw in enumerate((ROOT / doc).read_text().splitlines(), 1):
        first = first or lineno
        if raw.endswith("\\"):
            pending += raw[:-1] + " "
            continue
        line = _ENV_PREFIX.sub("", (pending + raw).strip())
        if line.startswith("python -m repro"):
            argv = shlex.split(line, comments=True)[3:]
            if argv[-1:] == ["&"]:
                argv.pop()
            yield pytest.param(argv, id=f"{doc}:{first}")
        pending, first = "", None


@pytest.mark.parametrize("argv", [c for d in DOCS for c in _commands(d)])
def test_documented_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a parse error exits 2
        assert exc.code == 0


@pytest.mark.parametrize("doc", DOCS)
def test_document_has_commands(doc):
    assert list(_commands(doc))
