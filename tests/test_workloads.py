"""Tests for the workload substrate (benchmarks, task sets, traces, cases)."""

from __future__ import annotations

import pytest

from repro import cache
from repro.errors import WorkloadError
from repro.workloads import (
    BENCHMARKS,
    BIOMONITOR_KERNELS,
    CH3_TASK_SETS,
    CH4_TASK_SETS,
    CH5_TASK_SETS,
    benchmark_names,
    biomonitor_program,
    biomonitor_programs,
    get_program,
    get_spec,
    jpeg_loops,
    jpeg_trace,
    programs_for,
    synthetic_loops,
    synthetic_trace,
)
from repro.workloads.synthesis import ProgramSpec, seed_for, synth_program


class TestBenchmarks:
    def test_table_5_1_benchmarks_present(self):
        for name in (
            "adpcm",
            "sha",
            "jfdctint",
            "g721decode",
            "lms",
            "ndes",
            "rijndael",
            "3des",
            "aes",
            "blowfish",
        ):
            assert name in BENCHMARKS

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(WorkloadError):
            get_spec("nonexistent")

    def test_max_block_size_matches_spec(self):
        for name in ("sha", "adpcm", "ndes"):
            spec = get_spec(name)
            program = get_program(name)
            mx, _avg = program.block_stats()
            assert mx == spec.max_bb

    def test_wcet_close_to_spec(self):
        for name in ("sha", "crc32", "rijndael"):
            spec = get_spec(name)
            wcet = get_program(name).wcet()
            assert wcet == pytest.approx(spec.wcet_cycles, rel=0.25)

    def test_determinism(self):
        a = synth_program(get_spec("sha"))
        b = synth_program(get_spec("sha"))
        assert a.wcet() == b.wcet()
        assert [len(x.dfg) for x in a.basic_blocks] == [
            len(x.dfg) for x in b.basic_blocks
        ]

    def test_salt_changes_program(self):
        a = synth_program(get_spec("crc32"), salt=0)
        b = synth_program(get_spec("crc32"), salt=1)
        assert a.wcet() != b.wcet() or [len(x.dfg) for x in a.basic_blocks] != [
            len(x.dfg) for x in b.basic_blocks
        ]

    #: ``cache.program_fingerprint`` of every Table 5.2 program at two
    #: salts.  Any drift in the generator's RNG stream changes them.
    PINNED_FINGERPRINTS = {
        (0, "3des"): "b3e3e7865f05a9dc89b2ce7b95cd623443d2306da68e9740008985c70b3e3a80",
        (0, "adpcm"): "eb2990649a9bc79ec8c5f852785c65c01d4c5b1c9c857c77132f11cf7d749f31",
        (0, "aes"): "f48e2c9e4030746420d1f11ef789f534d66d6add676dcdccd5bda94118950e73",
        (0, "g721decode"): "e945d6e3fa5640f484f855daffe6a7e0237f7bad98e8daf79eaac3b2cb26e830",
        (0, "jfdctint"): "860514a4abd87b4f004c9fba2b9eeebff7799bc0da62e58530c3d3af05654e89",
        (0, "ndes"): "070a5240d642b4b085d33bbcaa32d5174f30aeb139c27e9262357acb28001534",
        (0, "rijndael"): "2f17e03269838c2a335264a7c6565ae9a5656252d3fec3a6e9dd41492e316848",
        (0, "sha"): "f01e84c03d12b412b570b0e0384a0dbbd8624af27f602f7f8524d0967c85e548",
        (7, "3des"): "479af3a75460e0776babf724d8515c921877fab1a68d86017f2f76d011d50711",
        (7, "adpcm"): "be49cbe217f0a604fc77d06e7a338c6565b30f1bba07fa49d54088088ec8a2fb",
        (7, "aes"): "2f593f8d2fd1be602f083dee4fb83042bfdace7b992ec6cbe9a365b7191a203c",
        (7, "g721decode"): "9c7c385e52c4073e03f86c5db64f4aa12bd078aac345ae2933d8bc4b3e440947",
        (7, "jfdctint"): "1e9e712770790dcad704db1becf1f96bd3d79d5162968dce229644f3e0c2008f",
        (7, "ndes"): "d9b90d57ab70b359bbaa95a2299dbd6f0e2e797e726c0ef21ded91637abe4d7d",
        (7, "rijndael"): "429f22de471cf9749faa9756dba5f54ddca00e788b4c40fc84c32f66c96d2d2b",
        (7, "sha"): "6233ae3c15353e7a8e13ab1b28ccc459ea41bce8dee68009d890bcbf0ea6f3dd",
    }

    def test_table_5_2_programs_pinned(self):
        names = {n for s in CH5_TASK_SETS.values() for n in s}
        assert {n for _salt, n in self.PINNED_FINGERPRINTS} == names
        for (salt, name), digest in self.PINNED_FINGERPRINTS.items():
            program = synth_program(get_spec(name), salt=salt)
            assert cache.program_fingerprint(program) == digest, (salt, name)

    def test_seed_for_stable(self):
        assert seed_for("x") == seed_for("x")
        assert seed_for("x") != seed_for("y")

    def test_invalid_spec_rejected(self):
        with pytest.raises(WorkloadError):
            ProgramSpec("bad", "nope", max_bb=10, avg_bb=5)
        with pytest.raises(WorkloadError):
            ProgramSpec("bad", "dsp", max_bb=1, avg_bb=1)


class TestTaskSets:
    def test_ch3_compositions(self):
        assert len(CH3_TASK_SETS) == 6
        assert all(len(v) == 4 for v in CH3_TASK_SETS.values())
        assert CH3_TASK_SETS[1] == ("crc32", "sha", "jpeg_decoder", "blowfish")

    def test_ch4_sizes_grow(self):
        sizes = [len(CH4_TASK_SETS[i]) for i in range(1, 6)]
        assert sizes == [6, 7, 8, 9, 10]

    def test_ch5_compositions(self):
        assert CH5_TASK_SETS[1] == ("3des", "rijndael", "sha", "g721decode")

    def test_programs_for_instantiates_all(self):
        progs = programs_for(CH3_TASK_SETS[1])
        assert [p.name for p in progs] == list(CH3_TASK_SETS[1])

    def test_duplicates_get_distinct_instances(self):
        progs = programs_for(("crc32", "crc32"))
        assert progs[0] is not progs[1]

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            programs_for(())


class TestSyntheticLoops:
    def test_loop_count_and_software_version(self):
        loops = synthetic_loops(10, seed=1)
        assert len(loops) == 10
        for lp in loops:
            assert lp.versions[0].area == 0 and lp.versions[0].gain == 0

    def test_version_curves_monotone(self):
        for lp in synthetic_loops(20, seed=2):
            areas = [v.area for v in lp.versions]
            gains = [v.gain for v in lp.versions]
            assert areas == sorted(areas)
            assert gains == sorted(gains)

    def test_trace_covers_all_loops(self):
        trace = synthetic_trace(15, seed=3)
        assert set(trace) == set(range(15))

    def test_trace_deterministic(self):
        assert synthetic_trace(8, seed=4) == synthetic_trace(8, seed=4)


class TestJpeg:
    def test_eight_pipeline_loops(self):
        loops = jpeg_loops()
        assert len(loops) == 8
        names = [lp.name for lp in loops]
        assert "fdct_row" in names and "huffman_ac" in names

    def test_versions_fit_fabric(self):
        from repro.workloads import JPEG_MAX_AREA

        for lp in jpeg_loops():
            for v in lp.versions:
                assert v.area <= JPEG_MAX_AREA

    def test_trace_structure(self):
        trace = jpeg_trace(n_mcu=3)
        assert len(trace) == 24
        assert trace[:8] == list(range(8))


class TestBiomonitor:
    def test_all_kernels_build(self):
        progs = biomonitor_programs()
        assert len(progs) == len(BIOMONITOR_KERNELS)
        for p in progs:
            assert p.wcet() > 0

    def test_fixed_point_only(self):
        """Post fixed-point conversion: no floating-point ops exist (our
        opcode set is integer-only, but verify DIV-free DSP kernels too)."""
        from repro.isa.opcodes import Opcode

        for p in biomonitor_programs():
            for block in p.basic_blocks:
                for n in block.dfg.nodes:
                    assert block.dfg.op(n) != Opcode.DIV

    def test_kernels_customizable(self):
        """Every kernel's hot loop yields at least one profitable candidate."""
        from repro.enumeration import build_candidate_library

        for name in ("ecg_filter", "fall_detect", "ptt_compute"):
            program = biomonitor_program(name)
            lib = build_candidate_library(program)
            assert len(lib) > 0

    def test_programs_independent_of_hash_seed(self):
        """String hashing is salted per process; the generator must not
        depend on it, or every process builds different programs."""
        import os
        import subprocess
        import sys

        code = (
            "from repro import cache\n"
            "from repro.workloads import biomonitor_programs\n"
            "print([cache.program_fingerprint(p) for p in biomonitor_programs()])"
        )
        outs = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            outs.add(
                subprocess.run(
                    [sys.executable, "-c", code],
                    env=env, capture_output=True, text=True, check=True,
                ).stdout
            )
        assert len(outs) == 1
        fingerprints = [cache.program_fingerprint(p) for p in biomonitor_programs()]
        assert outs == {f"{fingerprints}\n"}


class TestSdr:
    def test_loops_and_modes(self):
        from repro.workloads import SDR_MODE_A, SDR_MODE_B, sdr_loops

        loops = sdr_loops()
        assert len(loops) == 6
        assert set(SDR_MODE_A) | set(SDR_MODE_B) == set(range(6))
        assert not set(SDR_MODE_A) & set(SDR_MODE_B)

    def test_gains_scale_with_dwell(self):
        from repro.workloads import sdr_loops

        short = sdr_loops(frames_per_dwell=10)
        long = sdr_loops(frames_per_dwell=100)
        for a, b in zip(short, long):
            assert b.versions[-1].gain == pytest.approx(10 * a.versions[-1].gain)
            assert b.versions[-1].area == a.versions[-1].area

    def test_trace_alternates_modes(self):
        from repro.workloads import SDR_MODE_A, SDR_MODE_B, sdr_trace

        trace = sdr_trace(frames_per_dwell=2, dwells=2)
        first_half = trace[: len(trace) // 2]
        second_half = trace[len(trace) // 2 :]
        assert set(first_half) <= set(SDR_MODE_A)
        assert set(second_half) <= set(SDR_MODE_B)

    def test_reconfiguration_amortizes_with_dwell(self):
        """The thesis's mode-switching motivation: reconfiguration pays off
        once mode dwells are long enough to amortize the reload cost."""
        from repro.reconfig import iterative_partition, spatial_select
        from repro.workloads import SDR_MAX_AREA, sdr_loops, sdr_trace

        rho = 100.0
        advantages = []
        for dwell in (5, 80, 320):
            loops = sdr_loops(frames_per_dwell=dwell)
            trace = sdr_trace(frames_per_dwell=dwell)
            _sel, static = spatial_select(loops, SDR_MAX_AREA)
            it = iterative_partition(loops, trace, SDR_MAX_AREA, rho)
            advantages.append(it.gain / static)
        assert advantages == sorted(advantages)
        assert advantages[0] == pytest.approx(1.0)  # short dwell: stay static
        assert advantages[-1] > 1.5  # long dwell: reconfiguration wins big
