"""Partitioning-layer speed harness (perf trajectory for future PRs).

Times the Chapter 5-7 partitioning stack on the Table 5.1 workload and
writes ``benchmarks/results/BENCH_partitioning.json``:

* ``mlgp.engine`` — one full region sweep per benchmark, reference vs
  fast MLGP engine, both cache-cold and cache-free, best of ``BEST_OF``
  samples; the engines' results are asserted bit-identical while timing.
* ``mlgp.pipeline`` — the repeated same-seed sweep the ch5 generation
  pipeline performs, pre-PR stack (reference engine, no region cache)
  vs current stack (fast engine + content-keyed ``mlgp`` cache).
* ``reconfig`` / ``dp`` — cold vs warm content-cache runs of the Ch. 6
  iterative partitioner and the Ch. 7 DP, best of ``BEST_OF``.  The
  ``reconfig`` input reaches k > 1, and its row also times the cold
  per-k ``workers=2`` fan-out (ratio recorded, same solution asserted).

Guards: the MLGP engine alone must be >= 2x; the pipeline layer
(engine + cache) must be >= 5x on the repeated sweep; warm cache runs
must beat cold ones.
"""

from __future__ import annotations

import time

from benchmarks.common import emit_json
from repro import cache
from repro.mlgp import mlgp_fast
from repro.mlgp.mlgp import mlgp_partition
from repro.mtreconfig.dp import dp_solution
from repro.mtreconfig.workload import synthetic_reconfig_tasks
from repro.reconfig.iterative import iterative_partition
from repro.workloads import get_program
from repro.workloads.loops import synthetic_loops, synthetic_trace

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

#: Repetitions of the same-seed sweep in the pipeline-layer comparison.
PIPELINE_REPS = 3

#: Samples per engine and per cold/warm timing; the best one is kept, so
#: a single preempted run on a shared host cannot move a guarded speedup.
BEST_OF = 3


def _region_work(name: str) -> list[tuple[object, tuple, int]]:
    """(dfg, region, seed) jobs for one benchmark's full region sweep."""
    prog = get_program(name)
    work = []
    for bi, blk in enumerate(prog.basic_blocks):
        for region in blk.dfg.regions():
            if len(region) >= 2:
                work.append((blk.dfg, region, bi))
    return work


def _sweep(work, engine: str, use_cache: bool) -> tuple[float, list]:
    """Run one region sweep; returns (seconds, results)."""
    results = []
    t0 = time.perf_counter()
    for dfg, region, seed in work:
        r = mlgp_partition(
            dfg, region, seed=seed, engine=engine, use_cache=use_cache
        )
        results.append((r.partitions, r.gains, r.areas))
    return time.perf_counter() - t0, results


def _bench_mlgp_engine() -> dict:
    """Engine-pure comparison: reference vs fast, no caches anywhere."""
    per_benchmark = {}
    ref_total = fast_total = 0.0
    for name in TABLE_5_1:
        work = _region_work(name)
        t_ref = t_fast = float("inf")
        for _rep in range(BEST_OF):
            t, ref_results = _sweep(work, "reference", use_cache=False)
            t_ref = min(t_ref, t)
            mlgp_fast._CTX_CACHE.clear()  # cold context: full setup paid
            t, fast_results = _sweep(work, "fast", use_cache=False)
            t_fast = min(t_fast, t)
            assert ref_results == fast_results, f"engines diverged on {name}"
        ref_total += t_ref
        fast_total += t_fast
        per_benchmark[name] = {
            "regions": len(work),
            "reference_seconds": round(t_ref, 4),
            "fast_seconds": round(t_fast, 4),
            "speedup": round(t_ref / t_fast, 2),
        }
    return {
        "workload": "table_5_1_full_region_sweep",
        "per_benchmark": per_benchmark,
        "reference_seconds": round(ref_total, 4),
        "fast_seconds": round(fast_total, 4),
        "speedup": round(ref_total / fast_total, 2),
    }


def _bench_mlgp_pipeline() -> dict:
    """Layer comparison on the repeated same-seed sweep of the pipeline.

    Pre-PR the generation pipeline re-ran the reference engine on every
    repeated (dfg, region, seed) visit — there was no region-level cache.
    The current stack runs the fast engine behind the content-keyed
    ``mlgp`` cache, so repeats are hits.
    """
    work = [job for name in TABLE_5_1 for job in _region_work(name)]
    pre_total = post_total = 0.0
    pre_last = post_last = None
    cache.clear()
    mlgp_fast._CTX_CACHE.clear()
    for _rep in range(PIPELINE_REPS):
        t, pre_last = _sweep(work, "reference", use_cache=False)
        pre_total += t
    for _rep in range(PIPELINE_REPS):
        t, post_last = _sweep(work, "fast", use_cache=True)
        post_total += t
    assert pre_last == post_last, "pipeline stacks diverged"
    return {
        "workload": "table_5_1_repeated_sweep",
        "reps": PIPELINE_REPS,
        "regions_per_rep": len(work),
        "pre_pr_seconds": round(pre_total, 4),
        "current_seconds": round(post_total, 4),
        "speedup": round(pre_total / post_total, 2),
    }


def _bench_reconfig_warm() -> dict:
    """Ch. 6 Algorithm 6 on a Table 6.1-style synthetic input whose search
    reaches k > 1: cold serial, cold ``workers=2`` and warm runs.

    The fan-out ratio is recorded, not guarded: runner core counts vary.
    """
    loops, trace = synthetic_loops(40, seed=40), synthetic_trace(40, seed=40)
    columns = (("cold", None), ("cold_workers2", 2), ("warm", None))
    samples: dict[str, list[float]] = {column: [] for column, _ in columns}
    for _rep in range(BEST_OF):
        runs = {}
        for column, workers in columns:
            if column != "warm":
                cache.clear()
            t0 = time.perf_counter()
            runs[column] = iterative_partition(
                loops, trace, 150.0, 400.0, seed=2, workers=workers
            )
            samples[column].append(time.perf_counter() - t0)
        cold = runs["cold"]
        for column in ("cold_workers2", "warm"):
            assert runs[column].partition == cold.partition, column
            assert runs[column].gain == cold.gain, column
    assert cold.n_configurations > 1, "search stopped at k = 1"
    cold_s, fanned_s, warm_s = (min(samples[c]) for c in samples)
    return {
        "workload": "synthetic_loops_40_seed_40",
        "n_configurations": cold.n_configurations,
        "repeats": BEST_OF,
        "cold_seconds": round(cold_s, 4),
        "cold_seconds_max": round(max(samples["cold"]), 4),
        "cold_workers2_seconds": round(fanned_s, 4),
        "cold_workers2_seconds_max": round(max(samples["cold_workers2"]), 4),
        "workers2_ratio": round(cold_s / fanned_s, 2),
        "warm_seconds": round(warm_s, 6),
        "speedup": round(cold_s / max(warm_s, 1e-9), 1),
    }


def _bench_dp_warm() -> dict:
    tasks = synthetic_reconfig_tasks(16, seed=5)
    cold_s = warm_s = float("inf")
    for _rep in range(BEST_OF):
        cache.clear()
        t0 = time.perf_counter()
        cold = dp_solution(tasks, 2000.0, 5000.0)
        cold_s = min(cold_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        warm = dp_solution(tasks, 2000.0, 5000.0)
        warm_s = min(warm_s, time.perf_counter() - t0)
        assert cold.solution == warm.solution
    return {
        "workload": "synthetic_16_tasks",
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 6),
        "speedup": round(cold_s / max(warm_s, 1e-9), 1),
    }


def test_partitioning_speed_trajectory():
    """End-to-end partitioning perf snapshot with correctness asserts."""
    engine = _bench_mlgp_engine()
    pipeline = _bench_mlgp_pipeline()
    reconfig = _bench_reconfig_warm()
    dp = _bench_dp_warm()

    payload = {
        "mlgp": {"engine": engine, "pipeline": pipeline},
        "reconfig": reconfig,
        "dp": dp,
        "speedups": {
            "mlgp_engine": engine["speedup"],
            "mlgp_pipeline": pipeline["speedup"],
            "reconfig_warm_cache": reconfig["speedup"],
            "dp_warm_cache": dp["speedup"],
        },
    }
    emit_json("BENCH_partitioning", payload)

    assert engine["speedup"] >= 2.0, (
        f"MLGP fast engine only {engine['speedup']}x vs reference "
        "(guard: >= 2x)"
    )
    assert pipeline["speedup"] >= 5.0, (
        f"partitioning pipeline only {pipeline['speedup']}x vs the "
        "pre-PR stack (target: >= 5x)"
    )
    assert reconfig["speedup"] > 1.0, "warm reconfig cache not faster"
    assert dp["speedup"] > 1.0, "warm dp cache not faster"
