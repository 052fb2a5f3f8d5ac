"""The four benchmark workloads.

Every workload has a fixed list of op *templates*.  A run executes each
template the same number of times, in a seeded shuffled order, and gives
every op fresh inputs (a fresh generator salt; for ``ch3_dse`` a fresh
U0), so the latency mix is the same in every run and no artifact-cache
entry is ever reused across ops (except the service's designed
re-submits).  Op counts are fixed by the
run length, never by how fast the host ran, so every counter repeats
exactly for a given seed.

A workload object provides:

* ``setup()`` — the once-per-session work a user pays before the first
  op (timed several times by the harness; the last one stays in effect);
* ``plan(rng, reps, uid0)`` — the seeded op items;
* ``op(item)`` — the timed calls into the program, each wrapped in a
  ``bench.<layer>`` span named after the module it calls;
* ``check(item, out)`` — independent output checks; a non-empty list of
  messages fails the op.

The service workload drives its own two client threads and is run by
:func:`run_service_pass` instead of the harness' serial loop.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro import cache, obs
from repro.core import select_edf, select_rms
from repro.enumeration import build_candidate_library
from repro.frontend import ingest_path, program_to_dict
from repro.io import save_json
from repro.mlgp import iterative_customization
from repro.pareto import TaskCurve, exact_utilization_curve
from repro.rtsched import PeriodicTask, scale_periods_for_utilization, simulate_taskset
from repro.selection import build_configuration_curve
from repro.selection.config_curve import downsample_curve
from repro.service import ServiceClient
from repro.workloads import CH3_TASK_SETS, CH5_TASK_SETS, get_spec, synth_program

ROOT = Path(__file__).resolve().parents[1]
FIR_KERNEL = ROOT / "examples" / "fir_kernel.py"

#: ``build_task``'s defaults, reproduced because the benchmark calls the
#: enumeration and selection layers separately to time each one.
CURVE_STEPS = 12
MAX_CONFIGS = 24

#: Area fractions of the ``ch3_flow`` selection step ("a few budgets").
FLOW_FRACTIONS = (0.1, 0.3, 0.6, 1.0)
#: Software utilization of the ``ch3_flow`` task sets (thesis Fig. 3.3).
FLOW_U0 = 1.05
#: The 11 area fractions of the ``ch3_dse`` sweep (thesis Fig. 3.3 axis).
DSE_FRACTIONS = tuple(i / 10 for i in range(11))
DSE_U0_RANGE = (0.8, 1.1)
#: Input utilizations of the ``ch5_iterate`` Algorithm 4 runs.
CH5_UTILIZATIONS = (1.1, 1.3, 1.5)

EPS = 1e-9


def layer(name: str, **attrs):
    """A ``bench.<layer>`` span around one call into a repro module."""
    return obs.span(f"bench.{name}", **attrs)


def fresh_programs(names, salt: int):
    """Fresh programs straight from the public generator.

    Bypasses ``get_program``'s unbounded memo, which would otherwise hold
    every one of a run's thousands of salted programs.
    """
    with layer("workloads"):
        return [synth_program(get_spec(n), salt=salt + i) for i, n in enumerate(names)]


def identify_task(program) -> PeriodicTask:
    """``core.build_task`` split into its enumeration and selection calls."""
    with layer("enumeration"):
        library = build_candidate_library(program)
    with layer("selection"):
        curve = downsample_curve(
            build_configuration_curve(program, library.candidates, steps=CURVE_STEPS),
            MAX_CONFIGS,
        )
    wcet = curve[0].cycles
    return PeriodicTask(
        name=program.name, period=2.0 * wcet, wcet=wcet, configurations=tuple(curve)
    )


def task_curves(task_set) -> list[TaskCurve]:
    return [
        TaskCurve(
            period=t.period,
            workloads=tuple(c.cycles for c in t.configurations),
            areas=tuple(round(c.area) for c in t.configurations),
        )
        for t in task_set
    ]


def select_and_validate(task_set, fractions) -> dict:
    """EDF and RMS selection at each budget, the exact Pareto curve, and
    a simulator run of every distinct schedulable assignment."""
    max_area = task_set.max_area
    selections = []
    for frac in fractions:
        budget = max_area * frac
        with layer("core", call="select_edf"):
            edf = select_edf(task_set, budget)
        with layer("core", call="select_rms"):
            rms = select_rms(task_set, budget)
        selections.append((budget, "edf", edf.assignment, edf.utilization))
        selections.append((budget, "rms", rms.assignment, rms.utilization))
    with layer("pareto"):
        front = exact_utilization_curve(task_curves(task_set))
    # Two periods of the longest task cover the synchronous critical
    # instant of every task; the default 20-period horizon makes sets with
    # a 1000x period spread cost seconds per simulation.
    horizon = 2.0 * max(t.period for t in task_set)
    sims = {}
    for _, policy, assignment, util in selections:
        if assignment is None or util > 1.0 + EPS or (policy, assignment) in sims:
            continue
        with layer("rtsched", call="simulate_taskset"):
            sims[(policy, assignment)] = simulate_taskset(
                task_set,
                list(assignment),
                policy="rm" if policy == "rms" else "edf",
                horizon=horizon,
            )
    edf_utils = [u for _, p, _, u in selections if p == "edf"]
    return {
        "task_set": task_set,
        "selections": selections,
        "front": front,
        "sims": sims,
        "util": sum(edf_utils) / len(edf_utils),
        "counts": {
            "selections": len(selections),
            "schedulable": sum(
                1 for _, _, a, u in selections if a is not None and u <= 1.0 + EPS
            ),
            "pareto_points": len(front),
            "pareto_calls": 1,
            "simulations": len(sims),
        },
    }


def check_selection(out: dict) -> list[str]:
    """Budgets, utilizations, the Pareto end point and analytic-vs-simulated
    verdicts, each recomputed from the task set itself."""
    errors = []
    tasks = list(out["task_set"])
    for budget, policy, assignment, util in out["selections"]:
        if assignment is None:
            if policy == "edf" or math.isfinite(util):
                errors.append(f"{policy}@{budget:.1f}: no assignment but util {util}")
            continue
        cfgs = [t.configurations[j] for t, j in zip(tasks, assignment)]
        area = sum(c.area for c in cfgs)
        if area > budget * (1 + 1e-9) + 1e-6:
            errors.append(f"{policy}: area {area:.2f} exceeds budget {budget:.2f}")
        recomputed = sum(c.cycles / t.period for c, t in zip(cfgs, tasks))
        if abs(recomputed - util) > 1e-6 * max(1.0, util):
            errors.append(f"{policy}: utilization {util} != recomputed {recomputed}")
    for (policy, assignment), sim in out["sims"].items():
        if not sim.schedulable or sim.missed:
            errors.append(f"{policy} {assignment}: analytic test accepts, simulator misses")
    best = sum(min(c.cycles for c in t.configurations) / t.period for t in tasks)
    front = out["front"]
    if not front or abs(min(p.value for p in front) - best) > 1e-9 * max(1.0, best):
        errors.append("exact Pareto curve misses the all-max-area utilization")
    for a, b in zip(front, front[1:]):
        if not (a.cost < b.cost and a.value > b.value):
            errors.append("exact Pareto curve is not strictly monotone")
            break
    return errors


class Ch3Flow:
    """The DATE 2007 flow, cold: fresh Table 3.1 programs plus the ingested
    FIR kernel, identify -> curves -> EDF/RMS selection -> exact Pareto ->
    simulator validation."""

    templates = sorted(CH3_TASK_SETS)

    def setup(self) -> None:
        import_in_fresh_interpreter()

    def plan(self, rng, reps: int, uid0: int) -> list[tuple]:
        items = [t for t in self.templates for _ in range(reps)]
        rng.shuffle(items)
        return [(set_id, uid0 + k) for k, set_id in enumerate(items)]

    def op(self, item) -> dict:
        set_id, uid = item
        programs = fresh_programs(CH3_TASK_SETS[set_id], salt=uid * 8)
        with layer("frontend"):
            # A distinct average trip count per op gives the kernel a fresh
            # fingerprint, so its cache entries never hit either.
            fir = ingest_path(
                FIR_KERNEL,
                hints={
                    "bounds": {"i": 32},
                    "avg_trips": {"i": 16 + (uid % 100_000) * 1.6e-4},
                    "taken_probs": {0: 0.1},
                },
            )
        tasks = [identify_task(p) for p in programs]
        fir_task = identify_task(fir)
        with layer("rtsched", call="scale_periods"):
            task_set = scale_periods_for_utilization(tasks, FLOW_U0)
        # The FIR kernel's period is ~1e6x shorter than blowfish's, so it
        # is identified but not scheduled with the Table 3.1 set.
        out = select_and_validate(task_set, FLOW_FRACTIONS)
        out["fir"] = fir_task
        all_tasks = [*tasks, fir_task]
        out["counts"].update(
            tasks=len(all_tasks),
            configurations=sum(len(t.configurations) for t in all_tasks),
        )
        return out

    def check(self, item, out) -> list[str]:
        errors = check_selection(out)
        fir = out["fir"]
        if len(fir.configurations) < 2 or fir.configurations[-1].cycles >= fir.wcet:
            errors.append("FIR kernel got no profitable custom instruction")
        return errors


class Ch3Dse:
    """A warm design-space sweep: the six Table 3.1 sets (their standard,
    unsalted programs) are identified in set-up; each op draws a U0 and a
    set and sweeps 11 area budgets."""

    #: Sets 2, 3 and 5 cost ~2x the others per op and appear twice: with
    #: equal weights the p50 fell exactly in the gap between the two cost
    #: modes; now p50 and the tail both sit inside the costlier mode.
    templates = [1, 2, 3, 4, 5, 6, 2, 3, 5]

    def __init__(self) -> None:
        self.tasks: dict[int, list[PeriodicTask]] = {}

    def setup(self) -> None:
        cache.clear()
        with layer("workloads"):
            programs = {
                set_id: [synth_program(get_spec(n)) for n in names]
                for set_id, names in CH3_TASK_SETS.items()
            }
        self.tasks = {
            set_id: [identify_task(p) for p in progs] for set_id, progs in programs.items()
        }

    def plan(self, rng, reps: int, uid0: int) -> list[tuple]:
        """U0 is stratified: each set's ``reps`` draws fall one into each
        of ``reps`` equal slices of the range, so every run sweeps the
        whole range evenly (selection cost depends steeply on U0)."""
        items = [(t, r) for t in self.templates for r in range(reps)]
        rng.shuffle(items)
        lo, hi = DSE_U0_RANGE
        return [(set_id, lo + (hi - lo) * (r + rng.random()) / reps) for set_id, r in items]

    def op(self, item) -> dict:
        set_id, u0 = item
        with layer("rtsched", call="scale_periods"):
            task_set = scale_periods_for_utilization(self.tasks[set_id], u0)
        return select_and_validate(task_set, DSE_FRACTIONS)

    def check(self, item, out) -> list[str]:
        return check_selection(out)


class Ch5Iterate:
    """Algorithm 4 iterative MLGP customization on fresh Table 5.2 sets."""

    templates = [(s, u) for s in sorted(CH5_TASK_SETS) for u in CH5_UTILIZATIONS]

    def setup(self) -> None:
        import_in_fresh_interpreter()

    def plan(self, rng, reps: int, uid0: int) -> list[tuple]:
        items = [t for t in self.templates for _ in range(reps)]
        rng.shuffle(items)
        return [(s, u, uid0 + k) for k, (s, u) in enumerate(items)]

    def op(self, item) -> dict:
        set_id, u_in, uid = item
        programs = fresh_programs(CH5_TASK_SETS[set_id], salt=uid * 8)
        periods = [p.wcet() * len(programs) / u_in for p in programs]
        with layer("mlgp", call="iterative_customization"):
            result = iterative_customization(programs, periods, u_target=1.0)
        return {
            "programs": programs,
            "periods": periods,
            "result": result,
            "util": result.utilization,
            "counts": {"tasks": len(programs)},
        }

    def check(self, item, out) -> list[str]:
        result, programs, periods = out["result"], out["programs"], out["periods"]
        u_in = sum(p.wcet() / t for p, t in zip(programs, periods))
        errors = []
        utils = [u_in, *(r.utilization for r in result.records)]
        if any(b > a + EPS for a, b in zip(utils, utils[1:])):
            errors.append("utilization rose across iterations")
        if abs(utils[-1] - result.utilization) > EPS:
            errors.append("final utilization differs from the last iteration's")
        if result.custom_instructions and result.utilization >= u_in - EPS:
            errors.append("custom instructions generated but utilization unchanged")
        if any(ci.area <= 0 or ci.gain <= 0 for ci in result.custom_instructions):
            errors.append("a generated instruction has no area or no gain")
        return errors


def import_in_fresh_interpreter() -> None:
    """The set-up a cold one-shot run pays: importing the pipeline."""
    subprocess.run(
        [sys.executable, "-c", "import repro, repro.core, repro.mlgp, repro.frontend"],
        env=child_env(),
        check=True,
        timeout=60,
    )


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ----------------------------------------------------------------------
# service_jobs
# ----------------------------------------------------------------------
#: Distinct-job templates: (kind, benchmarks, extra params).
SERVICE_TEMPLATES = (
    ("identify", ("sha",), {}),
    ("identify", ("blowfish",), {}),
    ("curve", ("jpeg_decoder",), {}),
    ("curve", ("adpcm_decoder",), {}),
    ("pareto", ("crc32", "susan"), {"utilization": 1.0}),
    ("pareto", ("g721_encoder", "crc32"), {"utilization": 1.0}),
    ("mlgp", ("ndes", "rijndael"), {"utilization": 1.2}),
    ("mlgp", ("adpcm", "jfdctint"), {"utilization": 1.3}),
)
#: Submissions per distinct job: one computes, the rest are at-rest hits.
SUBMITS_PER_JOB = 4
#: Closed-loop clients, at most one per CPU.
CLIENTS = min(2, os.cpu_count() or 1)
CLIENT_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
START_TIMEOUT_S = 60.0
SWITCH_INTERVAL_S = 0.0002


class ServiceJobs:
    """``repro serve`` with one pool worker, a journal and the in-memory
    cache tier, driven by two closed-loop clients with disjoint streams."""

    templates = SERVICE_TEMPLATES

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.starts = 0

    def start_server(self, trace: bool = False) -> "Server":
        self.starts += 1
        server = Server(self.run_dir / f"server{self.starts}", trace=trace)
        server.start()
        return server

    def plan(self, rng, reps: int, uid0: int) -> list[list[tuple]]:
        """One stream of distinct jobs per client, in seeded order."""
        streams = []
        uid = uid0
        for _ in range(CLIENTS):
            jobs = []
            for template in self.templates:
                for _ in range(reps):
                    jobs.append((uid, *template))
                    uid += 1
            rng.shuffle(jobs)
            streams.append(jobs)
        return streams

    def write_inputs(self, streams) -> dict[int, dict]:
        """Write each distinct job's fresh programs as ``repro/v1`` files
        (path-like benchmark names resolve in the server and its worker)."""
        inputs_dir = self.run_dir / "programs"
        inputs_dir.mkdir(exist_ok=True)
        params = {}
        for stream in streams:
            for uid, kind, names, extra in stream:
                paths = []
                for i, name in enumerate(names):
                    path = inputs_dir / f"j{uid}_{i}_{name}.json"
                    save_json(program_to_dict(synth_program(get_spec(name), salt=uid * 8 + i)), path)
                    paths.append(str(path))
                if kind in ("identify", "curve"):
                    params[uid] = {"benchmark": paths[0], **extra}
                else:
                    params[uid] = {"benchmarks": paths, **extra}
        return params


def run_service_pass(server: "Server", streams, params, probe) -> list[dict]:
    """Run every client stream against *server* concurrently.

    One op is one session: a distinct job submitted ``SUBMITS_PER_JOB``
    times in a row, so its first submit computes and the rest hit the
    at-rest store.  Timed per submit, the p50 landed among ~2 ms store
    hits whose latency is set by how the OS schedules three processes on
    two CPUs, and moved 40% between identical runs.  The session keeps
    the hit share while its latency is a compute plus its hits.

    Returns one record per session: ``probe_ms``, ``ms`` and ``error``
    (None when every submit succeeded and passed its checks), plus per
    submit the client round trip and the server-side job record.

    The clients are threads of this process.  One client's probe holds
    the interpreter lock, and with the default 5 ms switch interval a
    reply landing meanwhile waited out the whole probe, so the interval
    is shortened for the pass.
    """
    records: list[list[dict]] = [[] for _ in streams]
    # Both clients probing at once would share the interpreter lock and
    # time each other, not the host.
    probe_lock = threading.Lock()

    def client_loop(c: int) -> None:
        out = records[c]
        try:
            client = ServiceClient(port=server.port, timeout=CLIENT_TIMEOUT_S)
        except Exception as exc:  # noqa: BLE001 - a failed connect fails every op
            out.extend(
                {"t": 0.0, "probe_ms": 1.0, "ms": 0.0, "submits": [], "error": repr(exc),
                 "util": None, "counts": {}}
                for _ in streams[c]
            )
            return
        with client:
            for uid, kind, _names, _extra in streams[c]:
                with probe_lock:
                    t = time.perf_counter()
                    p = probe()
                submits, error = [], None
                t0 = time.perf_counter()
                with obs.span("bench.op"), layer("service", kind=kind):
                    for _ in range(SUBMITS_PER_JOB):
                        s0 = time.perf_counter()
                        try:
                            job = client.submit(kind, params[uid], timeout=JOB_TIMEOUT_S)["job"]
                        except Exception as exc:  # noqa: BLE001 - counted as a failed op
                            error = repr(exc)
                            break
                        submits.append({"ms": (time.perf_counter() - s0) * 1e3, "job": job})
                ms = (time.perf_counter() - t0) * 1e3
                jobs = [sub["job"] for sub in submits]
                error = error or check_service_session(kind, jobs)
                util = None
                if error is None and kind == "mlgp":
                    util = jobs[0]["result"]["utilization"]
                out.append({
                    "t": t, "probe_ms": p, "ms": ms, "submits": submits, "error": error,
                    "util": util, "counts": {},
                })

    threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(len(streams))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    return [r for stream in records for r in stream]


def check_service_session(kind: str, jobs: list[dict]) -> str | None:
    """The first submit computed and every later one is a store hit with
    the cold result; the result itself is sane for its kind."""
    first = jobs[0]
    result = first.get("result")
    if any(j.get("state") != "done" for j in jobs) or not isinstance(result, dict):
        return "a submit did not finish as done"
    if first.get("source") == "store":
        return "a job's first submit was served from the store"
    if any(j.get("source") != "store" or j.get("result") != result for j in jobs[1:]):
        return "a re-submit was not a store hit with the cold result"
    if kind == "identify" and result["n_candidates"] <= 0:
        return "identify found no candidates"
    if kind == "curve":
        cycles = [c for _, c in result["configurations"]]
        if any(b > a for a, b in zip(cycles, cycles[1:])):
            return "configuration curve cycles rise with area"
    if kind == "pareto":
        pts = result["points"]
        if not pts or any(b["area"] < a["area"] for a, b in zip(pts, pts[1:])):
            return "Pareto points are empty or unsorted by area"
    if kind == "mlgp" and result["met_target"] != (result["utilization"] <= result["target"] + EPS):
        return "mlgp met_target disagrees with its utilization"
    return None


class Server:
    """One ``repro serve`` process: one pool worker, a journal in its own
    directory, no disk cache tier (``REPRO_CACHE_DIR`` is unset)."""

    def __init__(self, work_dir: Path, trace: bool) -> None:
        self.work_dir = work_dir
        self.trace_path = work_dir / "server_trace.jsonl" if trace else None
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        self.work_dir.mkdir(parents=True)
        log = self.work_dir / "server.log"
        cmd = [sys.executable, "-m", "repro"]
        if self.trace_path is not None:
            cmd += ["--trace", str(self.trace_path)]
        cmd += [
            "serve", "--port", "0", "--workers", "1",
            "--journal", str(self.work_dir / "journal.jsonl"),
        ]
        with open(log, "wb") as fh:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=fh, env=child_env(), cwd=self.work_dir
            )
        try:
            self._await_ready(log)
        except BaseException:
            self.proc.kill()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
            raise

    def _await_ready(self, log: Path) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.port:
            text = log.read_text(errors="replace")
            for line in text.splitlines():
                if line.startswith("serving on "):
                    self.port = int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during start-up: {text[-500:]}")
            if time.monotonic() > deadline:
                raise TimeoutError("server did not report its port")
            time.sleep(0.01)
        with ServiceClient(port=self.port, timeout=CLIENT_TIMEOUT_S) as client:
            while not client.health().get("accepting"):
                if time.monotonic() > deadline:
                    raise TimeoutError("server never became healthy")
                time.sleep(0.01)

    def client(self) -> ServiceClient:
        return ServiceClient(port=self.port, timeout=CLIENT_TIMEOUT_S)

    def workers(self) -> list[int]:
        """Pids of the server's child processes (its pool worker)."""
        pids = []
        for stat in Path("/proc").glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == self.proc.pid:
                pids.append(int(stat.parent.name))
        return pids

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus its pool worker(s)."""
        total_kb = 0
        for pid in [self.proc.pid, *self.workers()]:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def stop(self) -> str | None:
        """Shut down and wait, bounded; returns an error or None."""
        if self.proc is None:
            return None
        error = None
        try:
            with self.client() as client:
                client.shutdown()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except Exception as exc:  # noqa: BLE001 - a stalled stop is a failed op
            error = f"server stop failed: {exc!r}"
            for pid in self.workers():
                os.kill(pid, signal.SIGKILL)
            self.proc.kill()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        self.proc = None
        return error

    def trace(self) -> tuple[list[dict], dict]:
        """The stopped server's exported spans (its worker's merged in)
        and metrics."""
        if self.trace_path is None or not self.trace_path.exists():
            return [], {}
        return obs.load_trace(self.trace_path)
