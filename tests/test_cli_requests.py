"""One request layer: the chapter commands run the job kinds in-process.

``repro curve|pareto|mlgp|reconfig|mtreconfig`` build a params dict from
their flags, let :mod:`repro.jobs` normalize and compute it, and only
format the result.  These tests pin that:

* the printed output, exit codes and the ``curve --output`` file equal
  the outputs recorded before the commands went through the job kinds
  (``tests/data/cli_golden.json``; elapsed columns masked);
* ``repro <kind>`` and the same request submitted to an inline server
  give equal answers;
* ``--workers`` is an execution argument: never a parameter, so never in
  a key or the journal;
* re-keyed kinds do not serve at-rest entries stored under their old
  keys, and journal records written under an old key turn terminal.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro import cache, jobs
from repro import io as repro_io
from repro.cli import _SHOW, build_parser, main
from repro.errors import ReproError
from repro.service.client import ServiceClient
from repro.service.journal import JobJournal, replay_journal
from repro.service.server import ServerThread
from repro.workloads import get_program, jpeg_loops, jpeg_trace

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text()
)

#: Golden name -> argv; ``{loops}``, ``{notrace}`` and ``{curve_out}``
#: are files made per test.
COMMANDS = {
    "curve": ["curve", "crc32", "--output", "{curve_out}"],
    "pareto": ["pareto", "crc32", "lms", "--eps", "3.0"],
    "mlgp": ["mlgp", "crc32", "sha", "--utilization", "1.2"],
    "reconfig": ["reconfig"],
    "reconfig_input": ["reconfig", "--input", "{loops}"],
    "reconfig_notrace": ["reconfig", "--input", "{notrace}"],
    "mt_dp": ["mtreconfig", "--tasks", "4", "--solver", "dp"],
    "mt_ilp": ["mtreconfig", "--tasks", "4", "--solver", "ilp"],
    "mt_static": ["mtreconfig", "--tasks", "4", "--solver", "static"],
    "mt_bench": ["mtreconfig", "crc32", "sha"],
}

#: One request per kind: CLI argv and the same request as job params.
REQUESTS = {
    "curve": (["curve", "crc32"], {"benchmark": "crc32"}),
    "pareto": (
        ["pareto", "crc32", "lms", "--eps", "3.0"],
        {"benchmarks": ["crc32", "lms"], "eps": 3.0},
    ),
    "mlgp": (
        ["mlgp", "crc32", "sha", "--utilization", "1.2"],
        {"benchmarks": ["crc32", "sha"], "utilization": 1.2},
    ),
    "reconfig": (["reconfig"], {}),
    "mtreconfig": (["mtreconfig", "--tasks", "4"], {"tasks": 4}),
}

_ELAPSED = re.compile(r"^\d+(\.\d+)?m?s$")


def _mask(text: str) -> list[list[str]]:
    """Tokens per line, with elapsed times and rule widths masked (an
    elapsed cell can widen its column)."""
    return [
        [
            "<elapsed>" if _ELAPSED.match(tok)
            else "-" if set(tok) == {"-"} else tok
            for tok in line.split()
        ]
        for line in text.splitlines()
    ]


def _answers(value):
    """*value* without its elapsed-time fields."""
    if isinstance(value, dict):
        return {k: _answers(v) for k, v in value.items() if k != "elapsed"}
    if isinstance(value, list):
        return [_answers(v) for v in value]
    return value


@pytest.fixture(autouse=True)
def fresh_cache():
    cache.set_enabled(True)
    cache.set_cache_dir(None)
    cache.clear()
    yield
    cache.set_enabled(True)
    cache.reset_cache_dir()
    cache.clear()


@pytest.fixture
def files(tmp_path):
    loops = tmp_path / "jpeg_loops.json"
    repro_io.save_json(
        repro_io.hot_loops_to_dict(jpeg_loops(), jpeg_trace()), loops
    )
    notrace = tmp_path / "notrace.json"
    repro_io.save_json(repro_io.hot_loops_to_dict(jpeg_loops()), notrace)
    return {
        "loops": str(loops),
        "notrace": str(notrace),
        "curve_out": str(tmp_path / "curve_out.json"),
    }


@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_matches_golden(name, files, capsys):
    argv = [a.format(**files) for a in COMMANDS[name]]
    code = main(argv)
    out = capsys.readouterr().out
    expected = GOLDEN[name]
    assert code == expected["rc"]
    assert _mask(out) == _mask(expected["stdout"].format(**files))
    if name == "curve":
        text = Path(files["curve_out"]).read_text()
        assert text == GOLDEN["curve_output_file"]


@pytest.mark.parametrize("kind", list(REQUESTS))
def test_cli_and_service_give_equal_answers(kind, monkeypatch, capsys):
    argv, params = REQUESTS[kind]
    seen = []
    compute = jobs.compute_job

    def spy(kind, p, **options):
        result = compute(kind, p, **options)
        seen.append(result)
        return result

    monkeypatch.setattr(jobs, "compute_job", spy)
    cli_code = main(argv)
    cli_out = capsys.readouterr().out
    monkeypatch.undo()
    cache.clear()  # the service computes cold, not from the CLI's artifacts
    with ServerThread(use_processes=False) as srv:
        with ServiceClient(**srv.address) as c:
            job = c.submit(kind, params, timeout=60)["job"]
    assert job["source"] == "computed"
    (cli_result,) = seen
    assert _answers(job["result"]) == _answers(cli_result)
    # The service's answer, formatted by the CLI, is what the CLI printed.
    p = jobs.normalize_job(kind, params)
    args = build_parser().parse_args(argv)
    assert _SHOW[kind](args, p, job["result"]) == cli_code
    assert _mask(capsys.readouterr().out) == _mask(cli_out)


def test_workers_is_never_a_job_parameter(monkeypatch, capsys):
    calls = []
    compute = jobs.compute_job

    def spy(kind, p, **options):
        calls.append((kind, dict(p), options))
        return compute(kind, p, **options)

    monkeypatch.setattr(jobs, "compute_job", spy)
    assert main(["pareto", "crc32", "--workers", "2"]) == 0
    assert main(["reconfig", "--workers", "2"]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    assert [(k, o) for k, _, o in calls] == [
        ("pareto", {"workers": 2}), ("reconfig", {"workers": 2}),
    ]
    for kind, params, _ in calls:
        assert "workers" not in params
        with pytest.raises(ReproError, match="unknown parameter.*workers"):
            jobs.resolve_job(kind, dict(params, workers=2))


def test_workers_never_reaches_the_journal(tmp_path):
    journal = tmp_path / "j.jsonl"
    with ServerThread(journal=str(journal), use_processes=False) as srv:
        with ServiceClient(**srv.address) as c:
            with pytest.raises(ReproError, match="unknown parameter.*workers"):
                c.submit("reconfig", {"workers": 2}, timeout=60)
            c.submit("reconfig", {}, timeout=60)
            lines = journal.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["rec"] for r in records] == ["submitted", "started", "done"]
    assert "workers" not in records[0]["params"]


def _parent_curve_key() -> str:
    """The ``curve`` key before its result gained ``name``/``period``."""
    fp = cache.program_fingerprint(get_program("crc32"))
    return cache.artifact_key(fp, svc="curve", objective="avg")


def test_old_layout_at_rest_entry_is_not_served():
    stale = {"benchmark": "crc32", "wcet": 1.0, "configurations": [[0.0, 1.0]]}
    cache.store_service_result(_parent_curve_key(), stale)
    with ServerThread(use_processes=False) as srv:
        with ServiceClient(**srv.address) as c:
            job = c.submit("curve", {"benchmark": "crc32"}, timeout=60)["job"]
    assert job["source"] == "computed"
    assert job["result"]["name"] == "crc32"
    assert job["result"]["period"] > 0


def test_old_key_journal_record_turns_terminal(tmp_path):
    journal = str(tmp_path / "j.jsonl")
    j = JobJournal(journal, fsync_every=1)
    j.open()
    j.record_submitted(
        _parent_curve_key(),
        "curve",
        {"benchmark": "crc32", "objective": "avg"},
    )
    j.close()
    with ServerThread(journal=journal, use_processes=False) as srv:
        with ServiceClient(**srv.address) as c:
            (replayed,) = c.jobs()
            c.wait(replayed["id"], timeout=60)
            assert c.stats()["counters"]["recovered"] == 1
    live, _ = replay_journal(journal)
    assert live == []
    srv2 = ServerThread(journal=journal, use_processes=False).start()
    srv2.stop()
    assert srv2.server.counters["recovered"] == 0


def test_submit_slot_comes_from_the_kind_defaults(capsys):
    jobs.register_kind("custom-slot", lambda p: ("k", p), lambda p: {})
    try:
        with ServerThread(use_processes=False) as srv:
            port = ["--port", str(srv.port)]
            assert main(["submit", *port, "curve", "crc32"]) == 0
            assert '"name": "crc32"' in capsys.readouterr().out
            assert main(["submit", *port, "curve", "crc32", "sha"]) == 2
            assert "single benchmark" in capsys.readouterr().err
            assert main(["submit", *port, "custom-slot", "crc32"]) == 2
            assert "use --params" in capsys.readouterr().err
    finally:
        jobs.JOB_KINDS.pop("custom-slot", None)


#: The request surface: each chapter subcommand's options and each
#: built-in kind's parameter names.  Neither grows with this layer.
OPTIONS = {
    "curve": {"--objective", "--output"},
    "pareto": {"--eps", "--utilization", "--workers", "--no-cache"},
    "mlgp": {"--utilization", "--target", "--seed", "--no-cache"},
    "reconfig": {
        "--input", "--max-area", "--rho", "--seed", "--workers", "--no-cache",
    },
    "mtreconfig": {
        "--solver", "--fabric-area", "--rho", "--utilization", "--tasks",
        "--seed", "--no-cache",
    },
}
PARAMS = {
    "identify": {"benchmark", "max_inputs", "max_outputs"},
    "curve": {"benchmark", "objective"},
    "pareto": {"benchmarks", "eps", "utilization"},
    "mlgp": {"benchmarks", "utilization", "target", "seed"},
    "reconfig": {
        "loops", "benchmarks", "max_versions", "max_area", "rho", "seed",
    },
    "mtreconfig": {
        "benchmarks", "tasks", "seed", "utilization", "solver", "fabric_area",
        "rho",
    },
}


def test_request_surface_is_unchanged():
    (sub,) = [
        a for a in build_parser()._actions if hasattr(a, "choices")
        and isinstance(a.choices, dict)
    ]
    for command, options in OPTIONS.items():
        got = set(sub.choices[command]._option_string_actions)
        assert got - {"-h", "--help", "--trace", "--metrics"} == options
    assert {k: set(jobs.JOB_KINDS[k].defaults) for k in PARAMS} == PARAMS
