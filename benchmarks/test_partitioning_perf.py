"""Partitioning-layer perf rows (Chapters 5-7), written to
``benchmarks/results/BENCH_partitioning.json``:

* engine row ``mlgp_partition`` — one full Table 5.1 region sweep, fast
  vs reference, uncached and with a cold per-region context, timed by the
  ``mlgp.partition`` spans (guard >= 2x);
* cache row ``mlgp`` — the same sweep on the fast engine, cold vs warm
  region cache: what every repeated same-seed sweep of the Chapter 5
  generation pipeline gets (guard >= 5x).

The cache row is timed by wall clock: the production spans of these
calls sit behind their cache lookups, so a warm run emits none.
"""

from __future__ import annotations

import functools

from benchmarks.common import (
    CacheRow,
    EngineRow,
    assert_guards,
    emit_json,
    run_cache_rows,
    run_engine_rows,
)
from repro import cache
from repro.mlgp import mlgp_fast
from repro.mlgp.mlgp import mlgp_partition
from repro.workloads import get_program

#: The thesis Table 5.1 benchmark set (the MLGP evaluation workload).
TABLE_5_1 = (
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
)


@functools.cache
def _region_work() -> tuple:
    """(dfg, region, seed) jobs for every Table 5.1 benchmark's full
    region sweep."""
    work = []
    for name in TABLE_5_1:
        for bi, blk in enumerate(get_program(name).basic_blocks):
            for region in blk.dfg.regions():
                if len(region) >= 2:
                    work.append((blk.dfg, region, bi))
    return tuple(work)


def _sweep(engine: str, use_cache: bool = False) -> list[tuple]:
    results = []
    for dfg, region, seed in _region_work():
        r = mlgp_partition(dfg, region, seed=seed, engine=engine, use_cache=use_cache)
        results.append((r.partitions, r.gains, r.areas))
    return results


def _cold_sweep(engine: str) -> list[tuple]:
    mlgp_fast._CTX_CACHE.clear()  # cold context: full setup paid
    return _sweep(engine)


ENGINE_ROWS = (
    EngineRow(
        mlgp_partition, _cold_sweep, "table_5_1_full_region_sweep",
        guard=2.0, spans=("mlgp.partition",),
    ),
)

CACHE_ROWS = (
    CacheRow(
        "mlgp", lambda: _sweep("fast", use_cache=True),
        "table_5_1_full_region_sweep", guard=5.0,
        clear=lambda: (cache.clear(), mlgp_fast._CTX_CACHE.clear()),
    ),
)


def test_partitioning_speed_trajectory():
    _region_work()  # built untimed
    payload = {
        "engine_rows": run_engine_rows(ENGINE_ROWS),
        "cache_rows": run_cache_rows(CACHE_ROWS),
    }
    emit_json("BENCH_partitioning", payload)
    assert_guards(payload["engine_rows"], payload["cache_rows"])
