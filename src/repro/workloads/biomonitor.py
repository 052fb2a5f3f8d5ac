"""Wearable bio-monitoring case study (thesis Chapter 8).

The thesis customizes a processor for two wearable applications:

* **continuous vital-sign monitoring** — ECG and PPG streams are filtered,
  R-peaks / pulse peaks detected, and the Pulse Transit Time (PTT, the delay
  between the ECG R-peak and the PPG pulse arrival) is derived as a cuffless
  blood-pressure surrogate;
* **fall detection** — tri-axial accelerometer magnitude is compared
  against impact/posture thresholds.

All kernels are converted to fixed-point arithmetic before customization
(Section 8.2.1) — our program models therefore use integer ops only
(multiplies, adds, shifts for scaling).  Each kernel is a structured
program: sample-loop around a filtering/feature DFG.
"""

from __future__ import annotations

import random

from repro.graphs.dfg import DataFlowGraph
from repro.graphs.program import Block, Loop, Program, Seq
from repro.isa.opcodes import Opcode
from repro.workloads.synthesis import OP_MIXES, seed_for, synth_dfg

__all__ = ["BIOMONITOR_KERNELS", "biomonitor_program", "biomonitor_programs"]


def _fir_block(rng: random.Random, taps: int, name: str) -> Block:
    """A fixed-point FIR filter body: taps x (load, mul, acc) + scaling."""
    dfg = DataFlowGraph(name=name)
    acc = dfg.add_op(Opcode.CONST)
    for _ in range(taps):
        sample = dfg.add_op(Opcode.LOAD)
        coeff = dfg.add_op(Opcode.CONST)
        prod = dfg.add_op(Opcode.MUL, preds=[sample, coeff])
        acc = dfg.add_op(Opcode.ADD, preds=[acc, prod])
    scaled = dfg.add_op(Opcode.SHR, preds=[acc])  # fixed-point rescale
    dfg.add_op(Opcode.STORE, preds=[scaled])
    return Block(dfg)


def _peak_block(rng: random.Random, name: str) -> Block:
    """Derivative + squaring + threshold compare (Pan-Tompkins style)."""
    dfg = DataFlowGraph(name=name)
    x0 = dfg.add_op(Opcode.LOAD)
    x1 = dfg.add_op(Opcode.LOAD)
    diff = dfg.add_op(Opcode.SUB, preds=[x0, x1])
    sq = dfg.add_op(Opcode.MUL, preds=[diff, diff])
    win = dfg.add_op(Opcode.LOAD)
    acc = dfg.add_op(Opcode.ADD, preds=[sq, win])
    avg = dfg.add_op(Opcode.SHR, preds=[acc])
    thr = dfg.add_op(Opcode.CONST)
    cmp = dfg.add_op(Opcode.CMP, preds=[avg, thr])
    flag = dfg.add_op(Opcode.SELECT, preds=[cmp, avg, thr])
    dfg.add_op(Opcode.STORE, preds=[flag])
    return Block(dfg)


def _magnitude_block(rng: random.Random, name: str) -> Block:
    """Accelerometer magnitude^2 + dual threshold (fall detection)."""
    dfg = DataFlowGraph(name=name)
    parts = []
    for _axis in range(3):
        v = dfg.add_op(Opcode.LOAD)
        bias = dfg.add_op(Opcode.CONST)
        centered = dfg.add_op(Opcode.SUB, preds=[v, bias])
        parts.append(dfg.add_op(Opcode.MUL, preds=[centered, centered]))
    s = dfg.add_op(Opcode.ADD, preds=[parts[0], parts[1]])
    mag2 = dfg.add_op(Opcode.ADD, preds=[s, parts[2]])
    hi = dfg.add_op(Opcode.CONST)
    lo = dfg.add_op(Opcode.CONST)
    over = dfg.add_op(Opcode.CMP, preds=[mag2, hi])
    under = dfg.add_op(Opcode.CMP, preds=[mag2, lo])
    both = dfg.add_op(Opcode.AND, preds=[over, under])
    dfg.add_op(Opcode.STORE, preds=[both])
    return Block(dfg)


#: Kernel name -> (builder description, samples per window).
BIOMONITOR_KERNELS: dict[str, dict] = {
    "ecg_filter": {"kind": "fir", "taps": 16, "samples": 512},
    "ppg_filter": {"kind": "fir", "taps": 12, "samples": 256},
    "rpeak_detect": {"kind": "peak", "samples": 512},
    "pulse_detect": {"kind": "peak", "samples": 256},
    "ptt_compute": {"kind": "ptt", "samples": 32},
    "fall_detect": {"kind": "fall", "samples": 128},
}


def _ptt_block(rng: random.Random, name: str) -> Block:
    """PTT pairing: R-peak/pulse timestamp difference + BP regression."""
    dfg = DataFlowGraph(name=name)
    t_r = dfg.add_op(Opcode.LOAD)
    t_p = dfg.add_op(Opcode.LOAD)
    ptt = dfg.add_op(Opcode.SUB, preds=[t_p, t_r])
    a = dfg.add_op(Opcode.CONST)
    b = dfg.add_op(Opcode.CONST)
    scaled = dfg.add_op(Opcode.MUL, preds=[ptt, a])
    shifted = dfg.add_op(Opcode.SHR, preds=[scaled])
    bp = dfg.add_op(Opcode.ADD, preds=[shifted, b])
    lo = dfg.add_op(Opcode.CONST)
    hi = dfg.add_op(Opcode.CONST)
    clip_lo = dfg.add_op(Opcode.MAX, preds=[bp, lo])
    clip = dfg.add_op(Opcode.MIN, preds=[clip_lo, hi])
    dfg.add_op(Opcode.STORE, preds=[clip])
    return Block(dfg)


def biomonitor_program(name: str, salt: int = 0) -> Program:
    """Build the program model for one bio-monitoring kernel."""
    spec = BIOMONITOR_KERNELS[name]
    rng = random.Random(seed_for(name, salt))
    kind = spec["kind"]
    if kind == "fir":
        body = _fir_block(rng, spec["taps"], f"{name}:fir")
    elif kind == "peak":
        body = _peak_block(rng, f"{name}:peak")
    elif kind == "ptt":
        body = _ptt_block(rng, f"{name}:ptt")
    elif kind == "fall":
        body = _magnitude_block(rng, f"{name}:mag")
    else:  # pragma: no cover - table is closed
        raise ValueError(f"unknown kernel kind {kind!r}")
    prologue = Block(synth_dfg(rng, 6, OP_MIXES["control"], name=f"{name}:init"))
    loop = Loop(body, bound=spec["samples"])
    return Program(name, Seq([prologue, loop]))


def biomonitor_programs(salt: int = 0) -> list[Program]:
    """All bio-monitoring kernel programs."""
    return [biomonitor_program(name, salt) for name in BIOMONITOR_KERNELS]
