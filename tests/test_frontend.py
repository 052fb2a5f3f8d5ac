"""Tests for the real-code front-end (:mod:`repro.frontend`).

Covers the Python AST builder (opcode mapping, MAC fusion, liveness
across blocks, hints, WCET composition), the JSON/DOT importers (exact
inverse of ``dfg_to_dot``, malformed-graph rejection), the workload
registry, the ``repro ingest`` CLI and the service job kinds running on
ingested programs.
"""

from __future__ import annotations

import json
from collections import Counter, OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cache
from repro import frontend
from repro.cli import main
from repro.errors import FrontendError, ReproError, WorkloadError
from repro.frontend import (
    DEFAULT_LOOP_BOUND,
    KernelHints,
    dfg_from_dict,
    dfg_to_dict,
    import_dot,
    ingest_function,
    ingest_path,
    ingest_source,
    kernel,
    program_from_dict,
    program_to_dict,
)
from repro.graphs.dfg import DataFlowGraph
from repro.graphs.export import dfg_to_dot
from repro.graphs.program import Block, IfElse, Loop, Seq
from repro.isa.opcodes import Opcode
from repro.workloads import get_program, registry
from tests.conftest import random_small_dfg

KERNEL_SRC = '''
from repro.frontend import kernel

@kernel(bounds={"i": 16}, avg_trips={"i": 12}, taken_probs={0: 0.25})
def fir(x, h, n, acc):
    for i in range(n):
        acc = acc + x[i] * h[i]
    if acc > 255:
        acc = 255
    return acc
'''


def _ops(dfg: DataFlowGraph) -> Counter:
    return Counter(str(dfg.op(n)) for n in dfg.nodes)


def _all_ops(program) -> Counter:
    total: Counter = Counter()
    for b in program.basic_blocks:
        total.update(_ops(b.dfg))
    return total


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    registry.clear_registry()
    # CLI --no-cache flips the process-wide switch; restore it so later
    # test files keep their warm-cache assertions.
    cache.set_enabled(True)


# ----------------------------------------------------------------------
# AST builder
# ----------------------------------------------------------------------
class TestPyAstBuilder:
    def test_straightline_expression_mapping(self):
        p = ingest_source(
            "def f(a, b, c):\n"
            "    d = (a + b) - (a & b)\n"
            "    e = d << 2\n"
            "    g = min(d, e, c)\n"
            "    h = abs(g) ^ max(d, e)\n"
            "    s = h if g > 0 else d\n"
            "    return s\n"
        )
        ops = _all_ops(p)
        assert ops["add"] == 1 and ops["sub"] == 1 and ops["and"] == 1
        assert ops["shl"] == 1 and ops["min"] == 2  # 3-arg min folds
        assert ops["abs"] == 1 and ops["max"] == 1 and ops["xor"] == 1
        assert ops["cmp"] == 1 and ops["select"] == 1
        assert len(p.basic_blocks) == 1

    def test_mac_fusion_both_orders(self):
        p = ingest_source(
            "def f(a, b, c):\n"
            "    x = a + b * c\n"
            "    y = b * c + a\n"
            "    return x, y\n"
        )
        ops = _all_ops(p)
        assert ops["mac"] == 2
        assert ops["mul"] == 0 and ops["add"] == 0
        # MAC is a 3-input op: here one operand (a) is a live-in.
        dfg = p.basic_blocks[0].dfg
        for n in dfg.nodes:
            if dfg.op(n) is Opcode.MAC:
                assert len(dfg.preds(n)) + dfg.external_inputs(n) == 3

    def test_loads_stores_calls_are_invalid_and_split_regions(self):
        p = ingest_source(
            "def f(x, i, a, b):\n"
            "    t = x[i] + a\n"
            "    u = helper(t)\n"
            "    v = u * b\n"
            "    x[i] = v\n"
            "    return v\n"
        )
        dfg = p.basic_blocks[0].dfg
        ops = _ops(dfg)
        assert ops["load"] == 1 and ops["store"] == 1 and ops["call"] == 1
        invalid = [n for n in dfg.nodes if not dfg.is_valid_node(n)]
        assert len(invalid) == 3
        # The invalid ops split the valid nodes into >1 region.
        assert len(dfg.regions()) >= 2

    def test_constant_dedup_per_block(self):
        p = ingest_source(
            "def f(a):\n"
            "    x = a + 3\n"
            "    y = a - 3\n"
            "    z = x * 4\n"
            "    return y, z\n"
        )
        assert _ops(p.basic_blocks[0].dfg)["const"] == 2  # 3 deduped, 4

    def test_augmented_assign_desugars(self):
        p = ingest_source("def f(a, b):\n    a += b\n    a <<= 1\n    return a\n")
        ops = _all_ops(p)
        assert ops["add"] == 1 and ops["shl"] == 1

    def test_compare_chain_folds_to_and(self):
        p = ingest_source("def f(a, b, c):\n    ok = a < b < c\n    return ok\n")
        ops = _all_ops(p)
        assert ops["cmp"] == 2 and ops["and"] == 1

    def test_cross_block_use_marks_liveout_and_livein(self):
        p = ingest_source(
            "def f(a, b):\n"
            "    t = a + b\n"
            "    if a > 0:\n"
            "        u = t * 2\n"
            "    else:\n"
            "        u = t + 1\n"
            "    return u\n"
        )
        pre = p.basic_blocks[0].dfg  # add + cmp + branch block
        add_node = next(n for n in pre.nodes if pre.op(n) is Opcode.ADD)
        assert pre.is_live_out(add_node)
        # Both branch definitions of `u` escape to the return.
        for blk in p.basic_blocks[1:]:
            producers = [n for n in blk.dfg.nodes if blk.dfg.is_live_out(n)]
            assert producers, f"{blk.dfg.name} has no live-out"

    def test_loop_carried_value_is_liveout(self):
        p = ingest_source(
            "def f(n, acc):\n"
            "    for i in range(8):\n"
            "        acc = acc + i\n"
            "    return acc\n"
        )
        body = p.basic_blocks[0].dfg
        adds = [n for n in body.nodes if body.op(n) is Opcode.ADD]
        # Both the induction step and the accumulator are carried.
        assert all(body.is_live_out(n) for n in adds)

    def test_static_range_bound_and_hint_override(self):
        p = ingest_source("def f(a):\n    for i in range(8):\n        a = a + i\n    return a\n")
        loop = p.root.children[0]
        assert isinstance(loop, Loop) and loop.bound == 8
        q = ingest_source(
            "def f(a):\n    for i in range(8):\n        a = a + i\n    return a\n",
            hints={"bounds": {"i": 3}},
        )
        assert q.root.children[0].bound == 3

    def test_dynamic_range_uses_default_bound(self):
        p = ingest_source("def f(a, n):\n    for i in range(n):\n        a = a + i\n    return a\n")
        assert p.root.children[0].bound == DEFAULT_LOOP_BOUND

    def test_while_bound_keyed_in_source_order(self):
        src = (
            "def f(a):\n"
            "    while a > 0:\n"
            "        a = a - 1\n"
            "    while a < 100:\n"
            "        a = a + 3\n"
            "    return a\n"
        )
        p = ingest_source(src, hints={"bounds": {"while#0": 5, "while#1": 9}})
        loops = [c for c in p.root.children if isinstance(c, Loop)]
        assert [lp.bound for lp in loops] == [5, 9]

    def test_statically_empty_loop_is_dropped(self):
        p = ingest_source(
            "def f(a):\n"
            "    for i in range(0):\n"
            "        a = a * 2\n"
            "    return a + 1\n"
        )
        assert not any(isinstance(c, Loop) for c in p.root.children)

    def test_taken_prob_hint_shapes_profile(self):
        src = (
            "def f(a):\n"
            "    if a > 0:\n"
            "        b = a * 3\n"
            "    else:\n"
            "        b = a + 1\n"
            "    return b\n"
        )
        hot = ingest_source(src, hints={"taken_probs": {0: 1.0}})
        cold = ingest_source(src, hints={"taken_probs": {0: 0.0}})
        # MUL costs more than ADD, so always-taken runs longer on average.
        assert hot.avg_cycles() > cold.avg_cycles()
        assert hot.wcet() == cold.wcet()  # WCET takes max regardless

    def test_wcet_composition_nested_loop_ifelse(self):
        src = (
            "def f(a, b):\n"
            "    t = a + b\n"
            "    for i in range(4):\n"
            "        for j in range(2):\n"
            "            t = t + i * j\n"
            "        if t > 10:\n"
            "            t = t // 3\n"
            "        else:\n"
            "            t = t + 2\n"
            "    return t\n"
        )
        p = ingest_source(src)
        blocks = p.basic_blocks
        assert len(blocks) == 7
        c = [float(b.dfg.sw_cycles()) for b in blocks]
        # Seq(bb0, Loop4(Seq(bb1, Loop2(bb2), bb3, IfElse(bb4, bb5), bb6)))
        expected = c[0] + 4 * (c[1] + 2 * c[2] + c[3] + max(c[4], c[5]) + c[6])
        assert p.wcet() == pytest.approx(expected)
        # Average case: both trips at bound, branches split 50/50.
        expected_avg = c[0] + 4 * (
            c[1] + 2 * c[2] + c[3] + 0.5 * c[4] + 0.5 * c[5] + c[6]
        )
        assert p.avg_cycles() == pytest.approx(expected_avg)

    def test_empty_function_errors_with_location(self):
        with pytest.raises(FrontendError, match=r"body\.py:2: .*no operations"):
            ingest_source("\ndef empty():\n    pass\n", filename="body.py")

    def test_unsupported_statement_names_file_and_line(self):
        src = "def f(a):\n    x = a + 1\n    with a:\n        pass\n    return x\n"
        with pytest.raises(FrontendError, match=r"k\.py:3: unsupported construct 'With'"):
            ingest_source(src, filename="k.py")

    def test_unsupported_expression_names_file_and_line(self):
        src = "def f(a):\n    return {1: a}\n"
        with pytest.raises(FrontendError, match=r"k\.py:2: unsupported expression"):
            ingest_source(src, filename="k.py")

    def test_unknown_hint_rejected(self):
        with pytest.raises(FrontendError, match="unknown kernel hint"):
            KernelHints.from_mapping({"boundz": 3})

    def test_kernel_decorator_keeps_function_callable(self):
        @kernel(bound=7)
        def plain(a, b):
            return a + b

        assert plain(2, 3) == 5
        assert plain.__repro_hints__.bound == 7

    def test_ingest_path_reads_static_decorator_hints(self, tmp_path):
        path = tmp_path / "fir.py"
        path.write_text(KERNEL_SRC)
        p = ingest_path(path)
        loop = next(c for c in p.root.children if isinstance(c, Loop))
        assert loop.bound == 16 and loop.avg_trip == 12.0
        cond = next(c for c in p.root.children if isinstance(c, IfElse))
        assert cond.taken_prob == 0.25

    def test_function_selection(self, tmp_path):
        src = "def a(x):\n    return x + 1\n\ndef b(x):\n    return x * 2\n"
        path = tmp_path / "two.py"
        path.write_text(src)
        assert ingest_path(path, function="b").name == "b"
        with pytest.raises(FrontendError, match="2 functions found"):
            ingest_path(path)
        with pytest.raises(FrontendError, match="no function named 'c'"):
            ingest_path(path, function="c")

    def test_fingerprint_is_content_addressed(self):
        src = "def f(a, b):\n    return a + b * 3\n"
        p1 = ingest_source(src, filename="one.py")
        p2 = ingest_source(src, filename="two.py", name="f")
        assert cache.program_fingerprint(p1) == cache.program_fingerprint(p2)


# ----------------------------------------------------------------------
# JSON / DOT importers
# ----------------------------------------------------------------------
def _demo_dfg(name: str = "demo") -> DataFlowGraph:
    dfg = DataFlowGraph(name=name)
    a = dfg.add_op(Opcode.CONST)
    b = dfg.add_op(Opcode.LOAD, [a])
    c = dfg.add_op(Opcode.MAC, [a, b], external_inputs=1)
    dfg.add_op(Opcode.STORE, [c, a])
    dfg.set_live_out(c)
    return dfg


class TestImporters:
    def test_json_roundtrip(self):
        dfg = _demo_dfg()
        back = dfg_from_dict(dfg_to_dict(dfg))
        assert cache.dfg_digest(back) == cache.dfg_digest(dfg)
        assert back.name == dfg.name

    def test_dot_roundtrip_is_exact_inverse(self):
        dfg = _demo_dfg()
        back = import_dot(dfg_to_dot(dfg))
        assert cache.dfg_digest(back) == cache.dfg_digest(dfg)
        assert back.name == dfg.name
        for n in dfg.nodes:
            assert back.preds(n) == dfg.preds(n)
            assert back.external_inputs(n) == dfg.external_inputs(n)
            assert back.is_live_out(n) == dfg.is_live_out(n)

    def test_dot_roundtrip_with_clusters(self):
        dfg = _demo_dfg()
        dot = dfg_to_dot(dfg, instructions=[[0, 2]])
        back = import_dot(dot)
        assert cache.dfg_digest(back) == cache.dfg_digest(dfg)

    @pytest.mark.parametrize(
        "name",
        ['quo"ted', "back\\slash", 'both\\"mixed\\\\"', "trailing\\"],
    )
    def test_dot_roundtrip_exotic_names(self, name):
        dfg = _demo_dfg(name)
        back = import_dot(dfg_to_dot(dfg))
        assert back.name == name
        assert cache.dfg_digest(back) == cache.dfg_digest(dfg)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(4, 24),
        name=st.text(
            st.characters(blacklist_categories=("Cs", "Cc")),
            min_size=1,
            max_size=12,
        ),
    )
    def test_dot_roundtrip_property(self, seed, n, name):
        dfg = random_small_dfg(seed, n=n)
        dfg.name = name
        back = import_dot(dfg_to_dot(dfg))
        assert back.name == name
        assert cache.dfg_digest(back) == cache.dfg_digest(dfg)

    def test_import_rejects_cycle(self):
        data = {
            "name": "cyc",
            "nodes": [
                {"id": 0, "op": "add", "preds": [1]},
                {"id": 1, "op": "add", "preds": [0]},
            ],
        }
        with pytest.raises(ReproError, match="cycle"):
            dfg_from_dict(data, relabel=True)

    def test_import_rejects_self_edge(self):
        data = {"name": "x", "nodes": [{"id": 0, "op": "add", "preds": [0]}]}
        with pytest.raises(ReproError, match="self-edge"):
            dfg_from_dict(data)

    def test_import_rejects_duplicate_ids(self):
        data = {
            "name": "dup",
            "nodes": [{"id": 0, "op": "add"}, {"id": 0, "op": "sub"}],
        }
        with pytest.raises(ReproError, match="duplicate node id 0"):
            dfg_from_dict(data)

    def test_import_rejects_non_dense_ids(self):
        data = {
            "name": "gap",
            "nodes": [{"id": 0, "op": "add"}, {"id": 2, "op": "sub"}],
        }
        with pytest.raises(ReproError, match="dense"):
            dfg_from_dict(data)

    def test_import_rejects_unknown_opcode(self):
        data = {"name": "bad", "nodes": [{"id": 0, "op": "frobnicate"}]}
        with pytest.raises(ReproError, match="unknown opcode 'frobnicate'"):
            dfg_from_dict(data)

    def test_import_rejects_missing_pred(self):
        data = {"name": "bad", "nodes": [{"id": 0, "op": "add", "preds": [7]}]}
        with pytest.raises(ReproError, match="predecessor 7 does not exist"):
            dfg_from_dict(data)

    def test_non_topological_needs_relabel(self):
        data = {
            "name": "rev",
            "nodes": [
                {"id": 0, "op": "add", "preds": [1]},
                {"id": 1, "op": "const", "preds": []},
            ],
        }
        with pytest.raises(ReproError, match="relabel"):
            dfg_from_dict(data)
        dfg = dfg_from_dict(data, relabel=True)
        assert dfg.op(0) is Opcode.CONST and dfg.op(1) is Opcode.ADD
        assert dfg.preds(1) == [0]

    def test_import_dot_rejects_garbage_line(self):
        text = 'digraph "g" {\n  n0 [label="0: add", shape=box];\n  what is this\n}\n'
        with pytest.raises(ReproError, match="DOT line 3"):
            import_dot(text)

    def test_import_dot_rejects_missing_header(self):
        with pytest.raises(ReproError, match="digraph"):
            import_dot("graph g {}\n")

    def test_import_dot_rejects_undeclared_edge_endpoint(self):
        text = 'digraph "g" {\n  n0 [label="0: add", shape=box];\n  n0 -> n5;\n}\n'
        with pytest.raises(ReproError, match="undeclared node n5"):
            import_dot(text)

    def test_program_roundtrip_preserves_fingerprint_and_structure(self):
        p = ingest_source(KERNEL_SRC, filename="fir.py")
        back = program_from_dict(program_to_dict(p))
        assert cache.program_fingerprint(back) == cache.program_fingerprint(p)
        assert back.name == p.name
        assert back.wcet() == p.wcet()
        assert back.avg_cycles() == pytest.approx(p.avg_cycles())

    def test_program_dict_rejects_bad_schema_and_kind(self):
        p = ingest_source("def f(a):\n    return a + 1\n")
        good = program_to_dict(p)
        with pytest.raises(ReproError, match="schema"):
            program_from_dict({**good, "schema": "other/v9"})
        with pytest.raises(ReproError, match="kind"):
            program_from_dict({**good, "kind": "task_set"})
        with pytest.raises(ReproError, match="construct type"):
            program_from_dict({**good, "root": {"type": "goto"}})


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_register_and_resolve_by_name(self):
        p = ingest_source("def reg_demo(a, b):\n    return a * b + 1\n")
        name = registry.register_program(p)
        assert name == "reg_demo"
        assert get_program("reg_demo") is p
        registry.unregister_program("reg_demo")
        with pytest.raises(WorkloadError, match="unknown benchmark"):
            get_program("reg_demo")

    def test_registered_name_shadows_builtin(self):
        p = ingest_source("def f(a):\n    return a + 1\n", name="crc32")
        registry.register_program(p, name="crc32")
        assert get_program("crc32") is p
        registry.clear_registry()
        assert get_program("crc32") is not p

    def test_path_like_names_resolve(self, tmp_path):
        p = ingest_source(KERNEL_SRC, filename="fir.py")
        artifact = tmp_path / "fir.json"
        from repro.io import save_json

        save_json(program_to_dict(p), artifact)
        loaded = get_program(str(artifact))
        assert cache.program_fingerprint(loaded) == cache.program_fingerprint(p)
        # .py sources ingest directly
        src_path = tmp_path / "fir_src.py"
        src_path.write_text(KERNEL_SRC)
        assert get_program(str(src_path)).name == "fir"
        # .dot graphs load as single-block programs
        dot_path = tmp_path / "block.dot"
        dot_path.write_text(dfg_to_dot(p.basic_blocks[0].dfg))
        assert len(get_program(str(dot_path)).basic_blocks) == 1

    def test_missing_path_is_workload_error(self):
        with pytest.raises(WorkloadError, match="does not exist"):
            get_program("no/such/file.json")

    def test_workload_dir_resolution(self, tmp_path, monkeypatch):
        p = ingest_source(KERNEL_SRC, filename="fir.py")
        from repro.io import save_json

        save_json(program_to_dict(p), tmp_path / "fir.json")
        monkeypatch.setenv(registry.ENV_WORKLOAD_DIR, str(tmp_path))
        assert get_program("fir").name == "fir"

    def test_file_cache_invalidates_on_change(self, tmp_path):
        from repro.io import save_json

        p1 = ingest_source("def f(a):\n    return a + 1\n", name="v")
        p2 = ingest_source("def f(a):\n    return a * 2 + 1\n", name="v")
        path = tmp_path / "v.json"
        save_json(program_to_dict(p1), path)
        first = get_program(str(path))
        save_json(program_to_dict(p2), path)
        second = get_program(str(path))
        assert cache.program_fingerprint(first) != cache.program_fingerprint(
            second
        )

    @staticmethod
    def _program_files(tmp_path, n):
        from repro.io import save_json

        data = program_to_dict(ingest_source("def f(a):\n    return a + 1\n"))
        paths = [str(tmp_path / f"p{i}.json") for i in range(n)]
        for path in paths:
            save_json(data, path)
        return paths

    def test_file_cache_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(registry, "_file_cache", OrderedDict())
        bound = registry.FILE_CACHE_SIZE
        paths = self._program_files(tmp_path, bound + 1)
        for path in paths:
            get_program(path)
        assert len(registry._file_cache) == bound
        assert paths[0] not in registry._file_cache

    def test_file_cache_evicts_least_recently_used(self, tmp_path, monkeypatch):
        monkeypatch.setattr(registry, "_file_cache", OrderedDict())
        bound = registry.FILE_CACHE_SIZE
        paths = self._program_files(tmp_path, bound + 1)
        loaded = [get_program(path) for path in paths[:bound]]
        assert get_program(paths[0]) is loaded[0]  # touch: now most recent
        get_program(paths[bound])  # evicts paths[1], the least recent
        assert get_program(paths[0]) is loaded[0]
        reparsed = get_program(paths[1])
        assert reparsed is not loaded[1]
        assert cache.program_fingerprint(reparsed) == cache.program_fingerprint(
            loaded[1]
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestIngestCli:
    def test_ingest_py_to_artifact_and_dot(self, tmp_path, capsys):
        src = tmp_path / "fir.py"
        src.write_text(KERNEL_SRC)
        out = tmp_path / "fir.json"
        dot = tmp_path / "fir.dot"
        code = main(
            ["ingest", str(src), "--output", str(out), "--dot", str(dot)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "fingerprint" in stdout
        data = json.loads(out.read_text())
        assert data["kind"] == "program" and data["schema"] == "repro/v1"
        assert import_dot(dot.read_text())  # the render parses back

    def test_ingest_register_then_pipelines_resolve(
        self, tmp_path, monkeypatch, capsys
    ):
        src = tmp_path / "fir.py"
        src.write_text(KERNEL_SRC)
        wl = tmp_path / "wl"
        code = main(
            ["ingest", str(src), "--output", str(tmp_path / "a.json"),
             "--register", str(wl)]
        )
        assert code == 0
        monkeypatch.setenv(registry.ENV_WORKLOAD_DIR, str(wl))
        assert main(["--no-cache", "curve", "fir"]) == 0
        assert "configuration curve for fir" in capsys.readouterr().out

    def test_ingest_hints_override(self, tmp_path, capsys):
        src = tmp_path / "k.py"
        src.write_text("def f(a, n):\n    for i in range(n):\n        a = a + i\n    return a\n")
        out = tmp_path / "k.json"
        assert main(
            ["ingest", str(src), "--output", str(out),
             "--hints", '{"bounds": {"i": 2}}']
        ) == 0
        capsys.readouterr()
        program = program_from_dict(json.loads(out.read_text()))
        loop = next(c for c in program.root.children if isinstance(c, Loop))
        assert loop.bound == 2

    def test_ingest_unsupported_construct_exit_2(self, tmp_path, capsys):
        src = tmp_path / "bad.py"
        src.write_text("def f(a):\n    with a:\n        pass\n    return a\n")
        assert main(["ingest", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.py:2" in err

    def test_ingest_cyclic_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "cyc.json"
        bad.write_text(json.dumps({
            "schema": "repro/v1", "kind": "dfg", "name": "cyc",
            "nodes": [
                {"id": 0, "op": "add", "preds": [1]},
                {"id": 1, "op": "add", "preds": [0]},
            ],
        }))
        assert main(["ingest", str(bad), "--relabel"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cycle" in err

    def test_ingest_wrong_kind_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "ts.json"
        bad.write_text(json.dumps({"schema": "repro/v1", "kind": "task_set"}))
        assert main(["ingest", str(bad)]) == 2
        assert "not ingestible" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Service job kinds on ingested workloads
# ----------------------------------------------------------------------
class TestServiceJobs:
    def test_identify_and_curve_on_ingested_path(self, tmp_path):
        from repro.io import save_json
        from repro.jobs import compute_job, resolve_job

        p = ingest_source(KERNEL_SRC, filename="fir.py")
        path = tmp_path / "fir.json"
        save_json(program_to_dict(p), path)

        key1, params = resolve_job("identify", {"benchmark": str(path)})
        key2, _ = resolve_job("identify", {"benchmark": "crc32"})
        assert key1 != key2
        result = compute_job("identify", params)
        assert result["n_candidates"] > 0

        _, cparams = resolve_job("curve", {"benchmark": str(path)})
        curve = compute_job("curve", cparams)
        assert len(curve["configurations"]) >= 2

    def test_identify_key_is_content_addressed(self, tmp_path):
        from repro.io import save_json
        from repro.jobs import resolve_job

        p = ingest_source(KERNEL_SRC, filename="fir.py")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_json(program_to_dict(p), a)
        save_json(program_to_dict(p), b)
        key_a, _ = resolve_job("identify", {"benchmark": str(a)})
        key_b, _ = resolve_job("identify", {"benchmark": str(b)})
        assert key_a == key_b  # same content, different paths -> same job

    def test_reconfig_from_benchmarks(self):
        from repro.jobs import compute_job, resolve_job

        p = ingest_source(
            "def tiny(a, b):\n"
            "    for i in range(4):\n"
            "        a = a + b * i\n"
            "    return a\n"
        )
        registry.register_program(p, name="tiny_loop")
        key, params = resolve_job(
            "reconfig", {"benchmarks": ["tiny_loop"], "max_versions": 3}
        )
        result = compute_job("reconfig", params)
        assert "gain" in result and "selection" in result

    def test_reconfig_rejects_loops_and_benchmarks(self):
        from repro.jobs import resolve_job

        with pytest.raises(ReproError, match="either"):
            resolve_job(
                "reconfig",
                {"benchmarks": ["crc32"], "loops": {"schema": "repro/v1"}},
            )
