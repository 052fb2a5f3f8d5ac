"""Customization-as-a-service throughput harness (``BENCH_service.json``).

Measures what the job server buys over batch CLI invocations on a
repeated mixed chapter-3-to-7 workload (identify / curve / pareto / mlgp
/ reconfig / mtreconfig):

* ``serial_sweep_s`` — the baseline: every job computed directly with
  cold caches, like a loop of independent ``repro`` CLI invocations
  (each CLI process starts with an empty in-process cache; process
  startup itself is *not* charged, so the baseline is conservative);
* ``cold_sweep_s``   — the same sweep submitted through the server with
  cold caches: the one-time cost of filling the result store;
* ``warm_sweep_s``   — the sweep repeated through the server: every
  submit is an at-rest result hit;
* ``computed_sweep_s`` / ``computed_sweep_journal_s`` — best-of-N
  sweeps whose every job is computed (caches cleared first), against a
  server without and a server with the write-ahead job journal.  Only
  computed jobs are journaled (at-rest hits never queue), so warm sweeps
  cannot measure the durability tax.  ``journal_overhead_frac`` is the
  median over back-to-back pairs of the journaled/unjournaled time
  ratio, minus one, asserted to stay under 10%;
* the coalescing phase — N concurrent identical requests against a cold
  key must collapse to exactly one computation (the counter is asserted
  here and recorded in the payload).

The server runs inline (no process pool): the bench measures dedup and
cache-tier effects, not process fan-out, and inline keeps it meaningful
under the chaos job's ``REPRO_NO_PROCESS_POOL=1``.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

from benchmarks.common import emit_json, once
from repro import cache
from repro.service import jobs as jobs_mod
from repro.service.client import ServiceClient
from repro.service.server import ServerThread

#: One sweep of the mixed workload: every pipeline chapter represented,
#: sized so a sweep stays in CI scale.
MIX: tuple[tuple[str, dict], ...] = (
    ("identify", {"benchmark": "crc32"}),
    ("identify", {"benchmark": "bitcount"}),
    ("curve", {"benchmark": "crc32"}),
    ("curve", {"benchmark": "sha"}),
    ("pareto", {"benchmarks": ["crc32", "bitcount"]}),
    ("mlgp", {"benchmarks": ["crc32"], "utilization": 1.05}),
    ("reconfig", {}),
    ("mtreconfig", {"benchmarks": [], "tasks": 6}),
)

#: Warm sweeps through the service (the repeated-workload phase).
WARM_SWEEPS = 5
#: Back-to-back (unjournaled, journaled) computed sweep pairs in the
#: journal phase.  Their order alternates within a pair, and the guard
#: takes the median pair ratio: a shared host's load drift hits both
#: sweeps of a pair, and slower second sweeps do not bias the ratio.
JOURNAL_SWEEPS = 16
#: Concurrent identical requests in the coalescing phase.
COALESCE_CLIENTS = 8


def _serial_sweep() -> float:
    """The equivalent serial CLI loop: cold caches for every job."""
    t0 = time.perf_counter()
    for kind, params in MIX:
        cache.clear()  # each CLI invocation starts cold
        _, norm = jobs_mod.resolve_job(kind, params)
        jobs_mod.compute_job(kind, norm)
    return time.perf_counter() - t0


def _sweep_via(client: ServiceClient) -> tuple[float, list[dict]]:
    t0 = time.perf_counter()
    rows = []
    for kind, params in MIX:
        t1 = time.perf_counter()
        resp = client.submit(kind, params)
        rows.append({
            "kind": kind,
            "latency_s": time.perf_counter() - t1,
            "disposition": resp["disposition"],
        })
    return time.perf_counter() - t0, rows


def _computed_sweep(client: ServiceClient) -> tuple[float, list[dict]]:
    """One sweep from cleared caches: every job misses the result store
    and is queued, computed and (on a journaled server) journaled."""
    cache.clear()
    return _sweep_via(client)


def _journal_phase(client: ServiceClient) -> dict:
    """The durability tax: computed sweeps against *client*'s server and
    against a second one journaling every lifecycle record."""
    plain_s: list[float] = []
    journal_s: list[float] = []
    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        journal = os.path.join(tmp, "journal.jsonl")
        with ServerThread(
            use_processes=False, workers=2, journal=journal
        ) as jsrv:
            with ServiceClient(**jsrv.address) as jclient:
                for i in range(JOURNAL_SWEEPS):
                    pair = [client, jclient] if i % 2 else [jclient, client]
                    for c in pair:
                        sweep_s, sweep_rows = _computed_sweep(c)
                        if c is jclient:
                            journal_s.append(sweep_s)
                            rows.extend(sweep_rows)
                        else:
                            plain_s.append(sweep_s)
                stats = jclient.health().get("journal", {})
    ratios = sorted(j / max(p, 1e-9) for p, j in zip(plain_s, journal_s))
    return {
        "journal_sweeps": JOURNAL_SWEEPS,
        "computed_sweep_s": min(plain_s),
        "computed_sweep_journal_s": min(journal_s),
        "journal_overhead_frac": ratios[len(ratios) // 2] - 1.0,
        "computed_rate_journal": sum(
            r["disposition"] == "queued" for r in rows
        ) / len(rows),
        "journal": stats,
    }


def _coalesce_phase(address: dict) -> dict:
    """N concurrent identical cold requests; returns the dedup counters."""
    cache.clear()  # make the key cold again
    results: list[str] = []
    lock = threading.Lock()

    def go() -> None:
        with ServiceClient(**address) as c:
            resp = c.submit("curve", {"benchmark": "sha"})
            with lock:
                results.append(resp["disposition"])

    threads = [threading.Thread(target=go) for _ in range(COALESCE_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return {
        "clients": COALESCE_CLIENTS,
        "dispositions": sorted(results),
        "computed": results.count("queued"),
        "coalesced": results.count("coalesced"),
        "cached": results.count("cached"),
    }


def test_service_perf(benchmark):
    def run() -> dict:
        cache.set_enabled(True)
        cache.set_cache_dir(None)
        try:
            serial_s = _serial_sweep()

            cache.clear()
            with ServerThread(use_processes=False, workers=2) as srv:
                with ServiceClient(**srv.address) as client:
                    cold_s, cold_rows = _sweep_via(client)
                    warm_t0 = time.perf_counter()
                    warm_rows: list[dict] = []
                    for _ in range(WARM_SWEEPS):
                        sweep_s, rows = _sweep_via(client)
                        warm_rows.extend(rows)
                    warm_total = time.perf_counter() - warm_t0
                    journal_phase = _journal_phase(client)
                    coalesce = _coalesce_phase(srv.address)
                    counters = client.stats()["counters"]

            warm_sweep_s = warm_total / WARM_SWEEPS
            n_jobs = len(MIX)
            payload = {
                "bench": "service",
                "mix": [
                    {"kind": k, "params": p} for k, p in MIX
                ],
                "warm_sweeps": WARM_SWEEPS,
                "serial_sweep_s": serial_s,
                "cold_sweep_s": cold_s,
                "warm_sweep_s": warm_sweep_s,
                **journal_phase,
                "speedup_warm_vs_serial": serial_s / max(warm_sweep_s, 1e-9),
                "jobs_per_sec_warm": n_jobs * WARM_SWEEPS / max(
                    warm_total, 1e-9
                ),
                "warm_hit_rate": sum(
                    r["disposition"] == "cached" for r in warm_rows
                ) / len(warm_rows),
                "cold_latency_s": {
                    r["kind"]: r["latency_s"] for r in cold_rows
                },
                "coalescing": coalesce,
                "coalescing_ratio": coalesce["coalesced"] / coalesce["clients"],
                "server_counters": counters,
            }
            return payload
        finally:
            cache.reset_cache_dir()
            cache.clear()

    payload = once(benchmark, run)
    emit_json("BENCH_service", payload)

    # Exactly-once under concurrency: the dedup contract of the service.
    assert payload["coalescing"]["computed"] == 1, payload["coalescing"]
    assert (
        payload["coalescing"]["coalesced"] + payload["coalescing"]["cached"]
        == COALESCE_CLIENTS - 1
    )
    # Every warm submit was an at-rest hit.
    assert payload["warm_hit_rate"] == 1.0
    # The journal guard measures journaled work: every timed job was
    # computed, so each one wrote its lifecycle records.
    assert payload["computed_rate_journal"] == 1.0
    assert payload["journal"]["appends"] > 0, payload["journal"]
    # The durability tax on computed sweeps stays under 10%.
    assert payload["journal_overhead_frac"] <= 0.10, payload
    # Acceptance bar: a warm sweep through the service beats the serial
    # cold CLI loop by >= 5x (in practice it is orders of magnitude).
    assert payload["speedup_warm_vs_serial"] >= 5.0, payload
