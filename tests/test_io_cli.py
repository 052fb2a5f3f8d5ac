"""Tests for JSON serialization, text reports and the CLI."""

from __future__ import annotations

import json

import pytest

from repro import io as repro_io
from repro.cli import main
from repro.errors import ReproError
from repro.mtreconfig import synthetic_reconfig_tasks
from repro.report import format_curve, format_table, sparkline
from repro.rtsched import PeriodicTask, TaskSet
from repro.selection.config_curve import TaskConfiguration
from repro.workloads import jpeg_loops, jpeg_trace


def _task_set() -> TaskSet:
    t = PeriodicTask(
        name="t",
        period=10.0,
        wcet=4.0,
        configurations=(
            TaskConfiguration(0.0, 4.0),
            TaskConfiguration(3.0, 2.0),
        ),
    )
    return TaskSet([t], name="demo")


class TestIo:
    def test_task_set_roundtrip(self, tmp_path):
        ts = _task_set()
        path = tmp_path / "ts.json"
        repro_io.save_json(repro_io.task_set_to_dict(ts), path)
        loaded = repro_io.task_set_from_dict(repro_io.load_json(path))
        assert loaded.name == "demo"
        assert loaded[0].period == 10.0
        assert loaded[0].configurations == ts[0].configurations

    def test_hot_loops_roundtrip(self, tmp_path):
        loops, trace = jpeg_loops(), jpeg_trace(2)
        path = tmp_path / "loops.json"
        repro_io.save_json(repro_io.hot_loops_to_dict(loops, trace), path)
        loaded_loops, loaded_trace = repro_io.hot_loops_from_dict(
            repro_io.load_json(path)
        )
        assert loaded_trace == trace
        assert [lp.name for lp in loaded_loops] == [lp.name for lp in loops]
        assert loaded_loops[0].versions == loops[0].versions

    def test_reconfig_tasks_roundtrip(self, tmp_path):
        tasks = synthetic_reconfig_tasks(3, seed=1)
        path = tmp_path / "mt.json"
        repro_io.save_json(repro_io.reconfig_tasks_to_dict(tasks), path)
        loaded = repro_io.reconfig_tasks_from_dict(repro_io.load_json(path))
        assert loaded == tasks

    def test_schema_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v9"}))
        with pytest.raises(ReproError):
            repro_io.load_json(path)

    def test_kind_validation(self):
        data = repro_io.task_set_to_dict(_task_set())
        with pytest.raises(ReproError):
            repro_io.hot_loops_from_dict(data)


class TestAtomicSave:
    def test_failed_replace_leaves_original_and_no_litter(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "art.json"
        repro_io.save_json({"v": 1}, path)

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(repro_io.os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            repro_io.save_json({"v": 2}, path)
        monkeypatch.undo()
        assert json.loads(path.read_text()) == {"v": 1}
        assert list(tmp_path.iterdir()) == [path]  # no .tmp left behind

    def test_unserializable_payload_never_touches_target(self, tmp_path):
        path = tmp_path / "art.json"
        repro_io.save_json({"v": 1}, path)
        with pytest.raises(TypeError):
            repro_io.save_json({"v": object()}, path)
        assert json.loads(path.read_text()) == {"v": 1}
        assert list(tmp_path.iterdir()) == [path]

    def test_kill_during_write_never_corrupts(self, tmp_path):
        """SIGKILL a writer mid-save; the artifact must stay parseable."""
        import signal
        import subprocess
        import sys
        import time

        import repro

        src_dir = repro.__file__.rsplit("/repro/", 1)[0]
        target = tmp_path / "hammer.json"
        repro_io.save_json({"schema": "x", "blob": "y" * 400_000}, target)
        script = (
            f"import sys; sys.path.insert(0, {src_dir!r})\n"
            "from repro import io\n"
            "from pathlib import Path\n"
            f"p = Path({str(target)!r})\n"
            "data = {'schema': 'x', 'blob': 'z' * 400_000}\n"
            "while True:\n"
            "    io.save_json(data, p)\n"
        )
        for _ in range(5):
            proc = subprocess.Popen([sys.executable, "-c", script])
            time.sleep(0.05)
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            data = json.loads(target.read_text())  # never truncated/mixed
            assert data["blob"][0] == data["blob"][-1]
        # Stray .tmp files from the killed writer are acceptable litter,
        # but the target itself must always be one complete payload.


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["name", "value"], [("a", 1.5), ("long-name", 20)])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
        assert "long-name" in lines[3]

    def test_sparkline_range(self):
        s = sparkline([0, 1, 2, 3])
        assert len(s) == 4
        assert s[0] == "▁" and s[-1] == "█"

    def test_sparkline_constant(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_format_curve_contains_both(self):
        out = format_curve([0, 1], [10, 5], "x", "y")
        assert "x" in out and "y:" in out


class TestCli:
    def test_benchmarks_lists(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "crc32" in out and "sha" in out

    def test_curve_and_save(self, tmp_path, capsys):
        out_file = tmp_path / "crc32.json"
        assert main(["curve", "crc32", "--output", str(out_file)]) == 0
        assert out_file.exists()
        loaded = repro_io.task_set_from_dict(repro_io.load_json(out_file))
        assert loaded[0].name == "crc32"

    def test_customize_from_json(self, tmp_path, capsys):
        ts_file = tmp_path / "ts.json"
        repro_io.save_json(repro_io.task_set_to_dict(_task_set()), ts_file)
        code = main(["customize", "x", "--input", str(ts_file), "--area", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "utilization after" in out

    def test_customize_synthetic(self, capsys):
        code = main(
            ["customize", "crc32", "ndes", "--utilization", "1.05"]
        )
        assert code == 0

    def test_reconfig_default_jpeg(self, capsys):
        assert main(["reconfig"]) == 0
        out = capsys.readouterr().out
        assert "iterative" in out and "fdct_row" in out

    def test_reconfig_from_json(self, tmp_path, capsys):
        loops, trace = jpeg_loops(), jpeg_trace(4)
        path = tmp_path / "loops.json"
        repro_io.save_json(repro_io.hot_loops_to_dict(loops, trace), path)
        assert main(["reconfig", "--input", str(path)]) == 0

    def test_reconfig_missing_trace_errors(self, tmp_path, capsys):
        loops = jpeg_loops()
        path = tmp_path / "loops.json"
        repro_io.save_json(repro_io.hot_loops_to_dict(loops), path)
        assert main(["reconfig", "--input", str(path)]) == 2

    def test_pareto(self, capsys):
        assert main(["pareto", "crc32", "lms", "--eps", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "Pareto" in out


class TestCliFaults:
    def test_faults_synthetic_and_save(self, tmp_path, capsys):
        out_file = tmp_path / "faults.json"
        code = main(
            [
                "faults", "crc32", "sha",
                "--utilization", "1.05",
                "--policy", "edf",
                "--overrun-frac", "0.25",
                "--output", str(out_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "single CFU failure" in out
        report = json.loads(out_file.read_text())
        assert report["policies"][0]["policy"] == "edf"
        assert report["policies"][0]["single_cfu_failure"]["sim_agrees_all"]

    def test_faults_from_json(self, tmp_path, capsys):
        ts_file = tmp_path / "ts.json"
        repro_io.save_json(repro_io.task_set_to_dict(_task_set()), ts_file)
        code = main(
            ["faults", "x", "--input", str(ts_file), "--area", "5",
             "--policy", "both"]
        )
        assert code in (0, 1)  # robust or fragile, but never an error
        out = capsys.readouterr().out
        assert "robustness report" in out

    def test_faults_deterministic_across_runs(self, tmp_path, capsys):
        args = ["faults", "crc32", "--utilization", "1.05", "--policy",
                "rms", "--seed", "7"]
        main(args + ["--output", str(tmp_path / "a.json")])
        main(args + ["--output", str(tmp_path / "b.json")])
        capsys.readouterr()
        assert (tmp_path / "a.json").read_text() == (
            tmp_path / "b.json"
        ).read_text()

    def test_faults_bad_input_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["faults", "x", "--input", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
