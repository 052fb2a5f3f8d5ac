"""Customization-as-a-service throughput harness (``BENCH_service.json``).

Measures what the job server buys over batch CLI invocations on a
repeated mixed chapter-3-to-7 workload (identify / curve / pareto / mlgp
/ reconfig / mtreconfig), against one server that journals every job:

* ``serial_sweep_s`` — the baseline: every job computed directly with
  cold caches, like a loop of independent ``repro`` CLI invocations
  (each CLI process starts with an empty in-process cache; process
  startup itself is *not* charged, so the baseline is conservative);
* ``cold_sweep_s``   — the same sweep submitted through the server with
  cold caches: the one-time cost of filling the result store;
* ``warm_sweep_s``   — the sweep repeated through the server: every
  submit is an at-rest result hit;
* ``journal_overhead_frac`` — the durability tax: over ``JOURNAL_SWEEPS``
  sweeps whose every job is computed (caches cleared first), the summed
  duration of the ``service.journal`` spans (one per lifecycle record)
  over the summed submit wall time of the same traced sweeps, asserted to
  stay under 10%; as many untraced sweeps are recorded beside it
  (``computed_sweep_untraced``), so tracing's share of the denominator
  shows.
  Only computed jobs are journaled (at-rest hits never queue), so warm
  sweeps cannot measure it;
* the coalescing phase — N concurrent identical requests against a cold
  key must collapse to exactly one computation (the counter is asserted
  here and recorded in the payload).

The server runs inline (no process pool): the bench measures dedup,
cache-tier and journal effects, not process fan-out, and inline keeps it
meaningful under the chaos job's ``REPRO_NO_PROCESS_POOL=1``.
"""

from __future__ import annotations

import os
import tempfile
import threading

from benchmarks.common import best_of, emit_json, spread
from repro import cache
from repro import jobs as jobs_mod
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
#: Computed sweeps in the journal phase.
JOURNAL_SWEEPS = 16
#: Concurrent identical requests in the coalescing phase.
COALESCE_CLIENTS = 8


def _serial_sweep() -> None:
    """The equivalent serial CLI loop: cold caches for every job."""
    for kind, params in MIX:
        cache.clear()  # each CLI invocation starts cold
        _, norm = jobs_mod.resolve_job(kind, params)
        jobs_mod.compute_job(kind, norm)


def _sweep(client: ServiceClient) -> list[dict]:
    """One sweep through the server: per-submit latency and disposition."""
    rows = []
    for kind, params in MIX:
        (sample,), resp = best_of(lambda: client.submit(kind, params))
        rows.append({
            "kind": kind,
            "latency_s": sample["wall"],
            "disposition": resp["disposition"],
        })
    return rows


def _journal_phase(client: ServiceClient) -> dict:
    """Computed sweeps: every job misses the result store, is queued,
    computed and journaled.  The traced sweeps give the guarded fraction;
    as many untraced ones show what tracing adds to its denominator."""
    rows: list[list[dict]] = []

    def computed_sweep() -> None:
        cache.clear()
        rows.append(_sweep(client))

    def sweep_s() -> list[float]:
        return [sum(r["latency_s"] for r in sweep) for sweep in rows[-JOURNAL_SWEEPS:]]

    best_of(computed_sweep, JOURNAL_SWEEPS)
    untraced_s = sweep_s()
    samples, _ = best_of(computed_sweep, JOURNAL_SWEEPS, ("service.journal",))
    traced_s = sweep_s()
    journal_s = [s["service.journal"] for s in samples]
    jobs = [r for sweep in rows for r in sweep]
    return {
        "journal_sweeps": JOURNAL_SWEEPS,
        "computed_sweep": spread(traced_s),
        "computed_sweep_untraced": spread(untraced_s),
        "journal_span": spread(journal_s),
        "journal_overhead_frac": sum(journal_s) / sum(traced_s),
        "computed_rate_journal": sum(
            r["disposition"] == "queued" for r in jobs
        ) / len(jobs),
        "journal": client.health()["journal"],
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


def test_service_perf():
    cache.set_enabled(True)
    cache.set_cache_dir(None)
    try:
        (serial,), _ = best_of(_serial_sweep)
        cache.clear()
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            journal = os.path.join(tmp, "journal.jsonl")
            with ServerThread(
                use_processes=False, workers=2, journal=journal
            ) as srv, ServiceClient(**srv.address) as client:
                cold_rows = _sweep(client)
                warm_rows = [r for _ in range(WARM_SWEEPS) for r in _sweep(client)]
                journal_phase = _journal_phase(client)
                coalesce = _coalesce_phase(srv.address)
                counters = client.stats()["counters"]
    finally:
        cache.reset_cache_dir()
        cache.clear()

    warm_sweep_s = sum(r["latency_s"] for r in warm_rows) / WARM_SWEEPS
    payload = {
        "bench": "service",
        "mix": [{"kind": k, "params": p} for k, p in MIX],
        "warm_sweeps": WARM_SWEEPS,
        "serial_sweep_s": serial["wall"],
        "cold_sweep_s": sum(r["latency_s"] for r in cold_rows),
        "warm_sweep_s": warm_sweep_s,
        **journal_phase,
        "speedup_warm_vs_serial": serial["wall"] / max(warm_sweep_s, 1e-9),
        "jobs_per_sec_warm": len(MIX) / max(warm_sweep_s, 1e-9),
        "warm_hit_rate": sum(
            r["disposition"] == "cached" for r in warm_rows
        ) / len(warm_rows),
        "cold_latency_s": {r["kind"]: r["latency_s"] for r in cold_rows},
        "coalescing": coalesce,
        "coalescing_ratio": coalesce["coalesced"] / coalesce["clients"],
        "server_counters": counters,
    }
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
    assert payload["journal_span"]["min_s"] > 0, "no service.journal span"
    # The durability tax on computed sweeps stays under 10%.
    assert payload["journal_overhead_frac"] <= 0.10, payload
    # Acceptance bar: a warm sweep through the service beats the serial
    # cold CLI loop by >= 5x (in practice it is orders of magnitude).
    assert payload["speedup_warm_vs_serial"] >= 5.0, payload
