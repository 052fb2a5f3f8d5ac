"""Command-line interface for the repro toolkit.

Subcommands mirror the library's main flows:

* ``repro benchmarks`` — list the built-in synthetic benchmarks;
* ``repro ingest <file>`` — compile a Python kernel (or load a
  ``.json``/``.dot`` graph) into a ``repro/v1`` program artifact and
  optionally register it as a named workload;
* ``repro curve <benchmark>`` — build and print a task's configuration
  curve (optionally save it as JSON);
* ``repro customize <benchmarks...>`` — Chapter 3 inter-task selection for
  a task set under EDF or RMS;
* ``repro pareto <benchmarks...>`` — Chapter 4 ε-approximate
  utilization-area Pareto curve;
* ``repro mlgp <benchmarks...>`` — Chapter 5 iterative on-demand
  custom-instruction generation for a task set;
* ``repro reconfig <loops.json>`` — Chapter 6 partitioning of hot loops
  (falls back to the JPEG case study without an input file);
* ``repro mtreconfig [benchmarks...]`` — Chapter 7 multi-task
  spatial/temporal partitioning (DP, ILP or static solver);
* ``repro faults <benchmarks...>`` — fault-injection sweep and
  degraded-mode (single-CFU-failure) robustness report;
* ``repro serve`` / ``repro submit`` — run the long-lived customization
  job server (:mod:`repro.service`: bounded priority queue, in-flight
  coalescing, shared result cache) and submit jobs to it.

The five chapter commands ``curve``, ``pareto``, ``mlgp``, ``reconfig`` and
``mtreconfig`` are the job kinds of :mod:`repro.jobs` run in this process:
their flags build a params dict (an absent flag leaves its parameter out,
so the kind's own default applies), the kind normalizes and computes it,
and this module only formats the returned dict.  The server is never
imported by these commands.

Library errors (:class:`repro.errors.ReproError`) are caught at the top
level and reported as a one-line message with exit status 2 — a bad input
never produces a traceback.

Run ``python -m repro --help`` for details.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro import io as repro_io
from repro import jobs, obs
from repro.errors import ReproError
from repro.report import (
    format_curve,
    format_fault_report,
    format_health,
    format_metrics,
    format_table,
    format_trace_summary,
)

__all__ = ["main", "build_parser"]


def _add_obs_flags(p: argparse.ArgumentParser, no_cache=False) -> None:
    """Attach ``--trace``/``--metrics`` (and ``--no-cache``) to a subparser.

    The ``SUPPRESS`` default keeps an absent subcommand flag from
    clobbering the top-level value.
    """
    p.add_argument("--trace", metavar="FILE", default=argparse.SUPPRESS,
                   help="record a span trace of this run as JSONL")
    p.add_argument("--metrics", action="store_true",
                   default=argparse.SUPPRESS,
                   help="print the metrics registry after the run")
    if no_cache:
        p.add_argument("--no-cache", action="store_true",
                       default=argparse.SUPPRESS,
                       help="disable the artifact cache for this run")


def _param(
    p: argparse.ArgumentParser, kind: str, flag: str, help: str, **kw
) -> None:
    """A job-parameter flag.  Absent, it leaves the parameter out of the
    request, so the default comes from the kind's table (shown in help)."""
    default = jobs.JOB_KINDS[kind].defaults[flag[2:].replace("-", "_")]
    if default is not None:
        help = f"{help} (default {default})"
    p.add_argument(flag, default=argparse.SUPPRESS, help=help, **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Instruction-set customization for real-time embedded systems",
    )
    parser.add_argument("--cache-dir", default=None,
                        help="persist identification artifacts as JSON under "
                             "this directory (overrides $REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the in-process artifact cache")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="record a span trace of this run as JSONL")
    parser.add_argument("--metrics", action="store_true", default=False,
                        help="print the metrics registry after the run")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("benchmarks",
                             help="list built-in synthetic benchmarks")
    _add_obs_flags(p_bench)

    p_ing = sub.add_parser(
        "ingest",
        help="ingest real code (.py kernel, .json artifact or .dot graph) "
             "as a workload",
    )
    p_ing.add_argument("source",
                       help="a Python kernel (.py), a repro/v1 program/DFG "
                            "artifact (.json) or a DOT graph (.dot)")
    p_ing.add_argument("--function", default=None,
                       help="function to ingest from a .py source (default: "
                            "the only/decorated one)")
    p_ing.add_argument("--name", default=None,
                       help="workload name (default: the kernel's own name)")
    p_ing.add_argument("--hints", default=None, metavar="JSON",
                       help="kernel hints as a JSON object (overrides "
                            "@kernel decorator hints)")
    p_ing.add_argument("--output", default=None, metavar="FILE",
                       help="write the program artifact here "
                            "(default <name>.json)")
    p_ing.add_argument("--register", nargs="?", const="", default=None,
                       metavar="DIR",
                       help="also install the artifact into DIR (default "
                            "$REPRO_WORKLOAD_DIR), making the name "
                            "resolvable by every pipeline")
    p_ing.add_argument("--dot", default=None, metavar="FILE",
                       help="render the largest basic block as DOT here")
    p_ing.add_argument("--relabel", action="store_true",
                       help="renumber non-topological node ids in imported "
                            ".json/.dot graphs instead of rejecting them")
    _add_obs_flags(p_ing)

    p_curve = sub.add_parser("curve", help="build a task's configuration curve")
    p_curve.add_argument("benchmark")
    _param(p_curve, "curve", "--objective", "task cost measure: avg or wcet")
    p_curve.add_argument("--output", help="save the task set as JSON")
    _add_obs_flags(p_curve)

    p_cust = sub.add_parser("customize", help="inter-task selection (Ch. 3)")
    p_cust.add_argument("benchmarks", nargs="+")
    p_cust.add_argument("--utilization", type=float, default=1.05,
                        help="software-only utilization target (default 1.05)")
    p_cust.add_argument("--policy", choices=("edf", "rms"), default="edf")
    p_cust.add_argument("--area", type=float, default=None,
                        help="CFU area budget (default: half of MaxArea)")
    p_cust.add_argument("--input", help="load the task set from JSON instead")
    _add_obs_flags(p_cust)

    p_par = sub.add_parser("pareto", help="utilization-area Pareto curve (Ch. 4)")
    p_par.add_argument("benchmarks", nargs="+")
    _param(p_par, "pareto", "--eps", "approximation factor", type=float)
    _param(p_par, "pareto", "--utilization", "software-only utilization",
           type=float)
    _add_obs_flags(p_par, no_cache=True)

    p_exp = sub.add_parser("explain", help="sensitivity analysis of a task set")
    p_exp.add_argument("benchmarks", nargs="+")
    p_exp.add_argument("--utilization", type=float, default=1.05)
    p_exp.add_argument("--area", type=float, default=None)
    _add_obs_flags(p_exp)

    p_val = sub.add_parser("validate", help="cross-model consistency checks")
    p_val.add_argument("benchmarks", nargs="+")
    p_val.add_argument("--utilization", type=float, default=1.05)
    _add_obs_flags(p_val)

    p_mlgp = sub.add_parser(
        "mlgp", help="iterative custom-instruction generation (Ch. 5)"
    )
    p_mlgp.add_argument("benchmarks", nargs="+")
    _param(p_mlgp, "mlgp", "--utilization",
           "software-only utilization of the task set", type=float)
    _param(p_mlgp, "mlgp", "--target",
           "utilization target to customize down to", type=float)
    _param(p_mlgp, "mlgp", "--seed", "MLGP seed", type=int)
    _add_obs_flags(p_mlgp, no_cache=True)

    p_rec = sub.add_parser("reconfig", help="hot-loop partitioning (Ch. 6)")
    p_rec.add_argument("--input", help="hot-loops JSON (default: JPEG case study)")
    _param(p_rec, "reconfig", "--max-area",
           "area of one configuration (default: JPEG's, or 2048 for an "
           "input file)", type=float)
    _param(p_rec, "reconfig", "--rho",
           "reconfiguration cost (default: JPEG's, or 15 for an input "
           "file)", type=float)
    _param(p_rec, "reconfig", "--seed", "k-way partitioner seed", type=int)
    _add_obs_flags(p_rec, no_cache=True)

    p_mt = sub.add_parser(
        "mtreconfig",
        help="multi-task spatial/temporal partitioning (Ch. 7)",
    )
    p_mt.add_argument("benchmarks", nargs="*",
                      help="constituent tasks (default: a seeded synthetic "
                           "task set)")
    _param(p_mt, "mtreconfig", "--solver", "solver: dp, ilp or static")
    _param(p_mt, "mtreconfig", "--fabric-area",
           "area of one fabric configuration (default: 2x the largest "
           "version)", type=float)
    _param(p_mt, "mtreconfig", "--rho",
           "reconfiguration cost (default: 1%% of the shortest period)",
           type=float)
    _param(p_mt, "mtreconfig", "--utilization",
           "software-only utilization of the task set", type=float)
    _param(p_mt, "mtreconfig", "--tasks",
           "synthetic task count when no benchmarks are given", type=int)
    _param(p_mt, "mtreconfig", "--seed", "seed of the synthetic task set",
           type=int)
    _add_obs_flags(p_mt, no_cache=True)

    p_flt = sub.add_parser(
        "faults",
        help="fault-injection sweep + degraded-mode robustness report",
    )
    p_flt.add_argument("benchmarks", nargs="*",
                       help="constituent tasks (default: thesis Table 3.1 "
                            "task set 1)")
    p_flt.add_argument("--input", help="load the task set from JSON instead")
    p_flt.add_argument("--utilization", type=float, default=1.05,
                       help="software-only utilization target (default 1.05)")
    p_flt.add_argument("--area", type=float, default=None,
                       help="CFU area budget (default: half of MaxArea)")
    p_flt.add_argument("--policy", choices=("edf", "rms", "both"),
                       default="both")
    p_flt.add_argument("--seed", type=int, default=0,
                       help="root seed for the injected fault scenarios")
    p_flt.add_argument("--overrun-frac", type=float, nargs="*",
                       default=(0.10, 0.25, 0.50), metavar="FRAC",
                       help="WCET overrun fractions to sweep")
    p_flt.add_argument("--overrun-prob", type=float, default=0.25,
                       help="per-job overrun probability (default 0.25)")
    p_flt.add_argument("--jitter-frac", type=float, default=0.10,
                       help="reconfiguration jitter fraction (default 0.10)")
    p_flt.add_argument("--output",
                       help="write the robustness report JSON here "
                            "(BENCH_faults.json style)")
    _add_obs_flags(p_flt)

    p_srv = sub.add_parser(
        "serve",
        help="run the customization job server (coalescing + shared cache)",
    )
    p_srv.add_argument("--socket", default=None,
                       help="serve on this unix socket path instead of TCP")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="TCP bind host (default 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=7453,
                       help="TCP bind port (default 7453; 0 = ephemeral)")
    p_srv.add_argument("--workers", type=int, default=2,
                       help="concurrent job workers (default 2)")
    p_srv.add_argument("--queue-size", type=int, default=128,
                       help="bounded job-queue capacity (default 128)")
    p_srv.add_argument("--job-timeout", type=float, default=None,
                       help="hard per-job deadline in seconds")
    p_srv.add_argument("--inline", action="store_true",
                       help="run jobs inline instead of in a process pool")
    p_srv.add_argument("--journal", default=None, metavar="PATH",
                       help="write-ahead job journal (JSONL); replayed on "
                            "start so a crash or drain loses no jobs")
    p_srv.add_argument("--retries", type=int, default=2,
                       help="per-job retry budget for pool-worker deaths "
                            "(default 2)")
    p_srv.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds a SIGTERM/SIGINT drain waits for "
                            "running jobs (default 30)")
    _add_obs_flags(p_srv)

    p_sbm = sub.add_parser(
        "submit", help="submit a job to a running `repro serve` instance"
    )
    p_sbm.add_argument("kind", nargs="?", default=None,
                       help="job kind: identify, curve, pareto, mlgp, "
                            "reconfig or mtreconfig")
    p_sbm.add_argument("benchmarks", nargs="*",
                       help="benchmark name(s) for the job, when it takes any")
    p_sbm.add_argument("--socket", default=None,
                       help="connect over this unix socket path")
    p_sbm.add_argument("--host", default="127.0.0.1")
    p_sbm.add_argument("--port", type=int, default=7453)
    p_sbm.add_argument("--params", default=None, metavar="JSON",
                       help="job parameters as a JSON object "
                            "(merged over positional benchmarks)")
    p_sbm.add_argument("--priority", type=int, default=0,
                       help="queue priority (higher runs earlier)")
    p_sbm.add_argument("--timeout", type=float, default=None,
                       help="give up waiting for the result after N seconds")
    p_sbm.add_argument("--watch", action="store_true",
                       help="stream the job's lifecycle events as they happen")
    p_sbm.add_argument("--no-wait", action="store_true",
                       help="enqueue and print the job id without waiting")
    p_sbm.add_argument("--stats", action="store_true",
                       help="print server queue/dedup/cache stats and exit")
    p_sbm.add_argument("--health", action="store_true",
                       help="print the server's readiness snapshot and exit "
                            "(exit 0 only when it is accepting submits)")
    p_sbm.add_argument("--shutdown", action="store_true",
                       help="ask the server to stop and exit")
    p_sbm.add_argument("--retries", type=int, default=0,
                       help="retry lost connections / retryable rejections "
                            "N times with backoff (survives restarts)")
    p_sbm.add_argument("--backoff", type=float, default=0.25,
                       help="base backoff seconds between retries "
                            "(jittered exponential; default 0.25)")

    p_tr = sub.add_parser("trace", help="inspect a recorded span trace")
    p_tr.add_argument("action", choices=("summarize",),
                      help="report to produce")
    p_tr.add_argument("file", help="trace JSONL written by --trace")
    p_tr.add_argument("--top", type=int, default=10,
                      help="number of slowest spans to list (default 10)")

    return parser


def _cmd_benchmarks(args: argparse.Namespace) -> int:
    from repro.workloads import BENCHMARKS

    rows = []
    for name, spec in sorted(BENCHMARKS.items()):
        rows.append((name, spec.domain, spec.max_bb, spec.avg_bb, spec.wcet_cycles))
    print(format_table(
        ["benchmark", "domain", "max_bb", "avg_bb", "wcet_cycles"], rows
    ))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json as json_mod
    from pathlib import Path

    from repro import cache, frontend
    from repro.graphs.export import dfg_to_dot

    hints = None
    if args.hints:
        try:
            hints = json_mod.loads(args.hints)
            if not isinstance(hints, dict):
                raise ValueError("not a JSON object")
        except ValueError as exc:
            raise ReproError(f"bad --hints: {exc}") from exc

    source = Path(args.source)
    suffix = source.suffix.lower()
    if suffix == ".py":
        program = frontend.ingest_path(
            source, function=args.function, hints=hints, name=args.name
        )
    elif suffix == ".json":
        from repro.graphs.program import Block, Program

        data = repro_io.load_json(source)
        kind = data.get("kind")
        if kind == "program":
            program = frontend.program_from_dict(data, relabel=args.relabel)
        elif kind == "dfg":
            dfg = frontend.dfg_from_dict(data, relabel=args.relabel)
            program = Program(dfg.name or source.stem, Block(dfg))
        else:
            raise ReproError(
                f"{source}: artifact kind {kind!r} is not ingestible "
                "(expected 'program' or 'dfg')"
            )
        if args.name:
            program = Program(args.name, program.root)
    elif suffix == ".dot":
        try:
            text = source.read_text()
        except OSError as exc:
            raise ReproError(f"{source}: cannot read ({exc})") from exc
        from repro.graphs.program import Block, Program

        dfg = frontend.import_dot(text, relabel=args.relabel)
        program = Program(args.name or dfg.name or source.stem, Block(dfg))
    else:
        raise ReproError(
            f"{source}: unsupported source type {suffix!r} "
            "(expected .py, .json or .dot)"
        )

    fingerprint = cache.program_fingerprint(program)
    max_bb, avg_bb = program.block_stats()
    n_ops = sum(len(b.dfg) for b in program.basic_blocks)
    rows = [
        ("name", program.name),
        ("source", str(source)),
        ("basic blocks", len(program.basic_blocks)),
        ("operations", n_ops),
        ("max/avg block size", f"{max_bb}/{avg_bb:.1f}"),
        ("wcet cycles", f"{program.wcet():.0f}"),
        ("avg cycles", f"{program.avg_cycles():.1f}"),
        ("fingerprint", fingerprint[:16]),
    ]
    print(format_table(["property", "value"], rows))

    artifact = frontend.program_to_dict(program)
    output = Path(args.output) if args.output else Path(f"{program.name}.json")
    repro_io.save_json(artifact, output)
    print(f"saved program artifact to {output}")

    if args.register is not None:
        from repro.workloads import registry

        target_dir = Path(args.register) if args.register else registry.workload_dir()
        if target_dir is None:
            raise ReproError(
                "--register needs a directory (or set $REPRO_WORKLOAD_DIR)"
            )
        target_dir.mkdir(parents=True, exist_ok=True)
        installed = target_dir / f"{program.name}.json"
        repro_io.save_json(artifact, installed)
        print(f"registered as {program.name!r} in {target_dir} "
              f"(set {registry.ENV_WORKLOAD_DIR}={target_dir} to resolve it "
              "by name)")

    if args.dot:
        biggest = max(program.basic_blocks, key=lambda b: len(b.dfg))
        Path(args.dot).write_text(dfg_to_dot(biggest.dfg))
        print(f"rendered largest block ({len(biggest.dfg)} ops) to {args.dot}")
    return 0


def _run_kind(args: argparse.Namespace) -> int:
    """Run a chapter command's job kind in this process; format the result."""
    kind = args.command
    defaults = jobs.JOB_KINDS[kind].defaults
    params = {k: v for k, v in vars(args).items() if k in defaults}
    if getattr(args, "input", None):
        params["loops"] = repro_io.load_json(args.input)
    p = jobs.normalize_job(kind, params)
    return _SHOW[kind](args, p, jobs.compute_job(kind, p))


def _show_curve(args: argparse.Namespace, p: dict, r: dict) -> int:
    from repro.rtsched.task import PeriodicTask, TaskSet
    from repro.selection.config_curve import TaskConfiguration

    xs = [a for a, _ in r["configurations"]]
    ys = [c for _, c in r["configurations"]]
    print(f"configuration curve for {p['benchmark']} ({p['objective']}):")
    print(format_curve(xs, ys, "area(adders)", "cycles"))
    if args.output:
        task = PeriodicTask(
            name=r["name"],
            period=r["period"],
            wcet=r["wcet"],
            configurations=tuple(
                TaskConfiguration(area=a, cycles=c) for a, c in zip(xs, ys)
            ),
        )
        repro_io.save_json(
            repro_io.task_set_to_dict(TaskSet([task], name=p["benchmark"])),
            args.output,
        )
        print(f"saved to {args.output}")
    return 0


def _cmd_customize(args: argparse.Namespace) -> int:
    from repro.core import build_task_set, customize
    from repro.workloads import programs_for

    if args.input:
        task_set = repro_io.task_set_from_dict(repro_io.load_json(args.input))
    else:
        programs = programs_for(tuple(args.benchmarks))
        task_set = build_task_set(programs, target_utilization=args.utilization)
    budget = args.area if args.area is not None else 0.5 * task_set.max_area
    result = customize(task_set, budget, policy=args.policy)
    rows = [
        ("policy", args.policy),
        ("area budget", budget),
        ("utilization before", result.utilization_before),
        ("utilization after", result.utilization_after),
        ("schedulable", result.schedulable),
        ("area used", result.area),
    ]
    if result.assignment is not None:
        # Cross-check the analytic verdict with the discrete-event
        # simulator (the exit code stays analytic).
        from repro.rtsched.simulator import simulate_taskset

        with obs.span("validate", kind="simulation", policy=args.policy):
            sim = simulate_taskset(
                task_set,
                assignment=list(result.assignment),
                policy="rm" if args.policy == "rms" else "edf",
                stop_on_first_miss=True,
            )
        rows.append(("simulation agrees", sim.schedulable == result.schedulable))
    print(format_table(["metric", "value"], rows))
    if result.assignment is not None:
        for t, j in zip(task_set, result.assignment):
            cfg = t.configurations[j]
            print(f"  {t.name}: configuration {j} (area {cfg.area:.1f}, "
                  f"cycles {cfg.cycles:.0f})")
    return 0 if result.schedulable else 1


def _show_pareto(args: argparse.Namespace, p: dict, r: dict) -> int:
    points = r["points"]
    print(f"eps={r['eps']} utilization-area Pareto curve "
          f"({r['n_points']} points):")
    print(format_curve(
        [q["area"] for q in points], [q["utilization"] for q in points],
        "area(adders)", "utilization",
    ))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.analysis import marginal_area_utility, utilization_breakdown
    from repro.core import build_task_set, select_edf
    from repro.workloads import programs_for

    programs = programs_for(tuple(args.benchmarks))
    task_set = build_task_set(programs, target_utilization=args.utilization)
    budget = args.area if args.area is not None else 0.5 * task_set.max_area
    sel = select_edf(task_set, budget)
    rows = [
        (
            r.name,
            r.configuration,
            f"{r.utilization:.4f}",
            f"{100 * r.share:.1f}%",
            f"{r.area:.1f}",
            f"{r.headroom:.4f}",
        )
        for r in utilization_breakdown(task_set, sel.assignment)
    ]
    print(f"budget {budget:.1f} adders -> U = {sel.utilization:.4f}")
    print(format_table(
        ["task", "cfg", "utilization", "share", "area", "headroom"], rows
    ))
    mu = marginal_area_utility(task_set, budget)
    print(f"marginal utility at this budget: {mu:.6f} utilization per adder")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core import build_task_set
    from repro.validation import validate_program_costs, validate_task_set
    from repro.workloads import get_program, programs_for

    programs = programs_for(tuple(args.benchmarks))
    task_set = build_task_set(programs, target_utilization=args.utilization)
    report = validate_task_set(task_set, 0.5 * task_set.max_area)
    print(report.summary())
    ok = report.passed
    for name in args.benchmarks[:2]:
        prog_report = validate_program_costs(get_program(name))
        print(prog_report.summary())
        ok = ok and prog_report.passed
    return 0 if ok else 1


def _show_mlgp(args: argparse.Namespace, p: dict, r: dict) -> int:
    rows = [
        (x["iteration"], x["task"], f"{x['utilization']:.4f}", x["new_cis"],
         f"{x['elapsed']:.2f}s")
        for x in r["records"]
    ]
    print(format_table(
        ["iteration", "task", "utilization", "new CIs", "elapsed"], rows
    ))
    print(f"final utilization {r['utilization']:.4f} "
          f"(target {r['target']}) — "
          f"{r['n_custom_instructions']} custom instructions, "
          f"shared area {r['total_area']:.1f} adders")
    return 0 if r["met_target"] else 1


def _print_placement(entries: list[dict]) -> None:
    for e in entries:
        where = "software" if e["config"] is None else f"config {e['config']}"
        print(f"  {e['name']}: version {e['version']} -> {where}")


def _show_reconfig(args: argparse.Namespace, p: dict, r: dict) -> int:
    print(format_table(
        ["algorithm", "net gain", "configurations"],
        [
            ("iterative", r["gain"], r["n_configurations"]),
            ("greedy", r["greedy_gain"], r["greedy_n_configurations"]),
        ],
    ))
    _print_placement(r["loops"])
    return 0


def _show_mtreconfig(args: argparse.Namespace, p: dict, r: dict) -> int:
    print(format_table(
        ["metric", "value"],
        [
            ("solver", r["solver"]),
            ("fabric area", r["fabric_area"]),
            ("rho", r["rho"]),
            ("utilization", f"{r['utilization']:.4f}"),
            ("schedulable", r["schedulable"]),
            ("configurations", r["n_configurations"]),
            ("elapsed", f"{r['elapsed'] * 1e3:.1f}ms"),
        ],
    ))
    _print_placement(r["tasks"])
    return 0 if r["schedulable"] else 1


#: The chapter commands' formatters, keyed by job kind (= subcommand).
_SHOW = {
    "curve": _show_curve,
    "pareto": _show_pareto,
    "mlgp": _show_mlgp,
    "reconfig": _show_reconfig,
    "mtreconfig": _show_mtreconfig,
}


def _cmd_faults(args: argparse.Namespace) -> int:
    import json

    from repro.core import build_task_set
    from repro.faults import default_scenarios, sweep_faults
    from repro.workloads import CH3_TASK_SETS, programs_for

    if args.input:
        task_set = repro_io.task_set_from_dict(repro_io.load_json(args.input))
    else:
        names = tuple(args.benchmarks) or CH3_TASK_SETS[1]
        task_set = build_task_set(
            programs_for(names),
            target_utilization=args.utilization,
            name="+".join(names),
        )
    policies = ("edf", "rms") if args.policy == "both" else (args.policy,)
    scenarios = default_scenarios(
        seed=args.seed,
        overrun_fracs=tuple(args.overrun_frac),
        overrun_prob=args.overrun_prob,
        jitter_frac=args.jitter_frac,
    )
    report = sweep_faults(
        task_set,
        area_budget=args.area,
        policies=policies,
        seed=args.seed,
        scenarios=scenarios,
    )
    print(format_fault_report(report))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"saved robustness report to {args.output}")
    robust = all(
        entry["single_cfu_failure"] is not None
        and entry["single_cfu_failure"]["robust"]
        for entry in report["policies"]
    )
    return 0 if robust else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service.server import JobServer

    server = JobServer(
        workers=args.workers,
        queue_size=args.queue_size,
        use_processes=not args.inline,
        job_timeout=args.job_timeout,
        journal=args.journal,
        retries=args.retries,
        drain_timeout=args.drain_timeout,
    )

    async def run() -> None:
        if args.socket:
            await server.start_unix(args.socket)
            print(f"serving on unix socket {args.socket}", file=sys.stderr)
        else:
            port = await server.start_tcp(args.host, args.port)
            print(f"serving on {args.host}:{port}", file=sys.stderr)
        if args.journal:
            print(f"journaling jobs to {args.journal}", file=sys.stderr)

        # Graceful drain on SIGTERM/SIGINT: stop accepting, let running
        # jobs finish within --drain-timeout, journal the rest.  A
        # second signal during the drain hard-stops.
        loop = asyncio.get_running_loop()
        draining = False

        def _on_signal(signame: str) -> None:
            nonlocal draining
            if draining:
                print(f"{signame} again; stopping now", file=sys.stderr)
                loop.create_task(server.stop())
                return
            draining = True
            print(
                f"{signame}: draining (up to {args.drain_timeout:.0f}s)",
                file=sys.stderr,
            )
            loop.create_task(server.drain())

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, _on_signal, signal.Signals(sig).name
                )
            except (NotImplementedError, RuntimeError):
                pass  # non-unix event loop: fall back to KeyboardInterrupt
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; stopping", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as json_mod
    import time

    from repro.service.client import ServiceClient

    address: dict = (
        {"socket_path": args.socket}
        if args.socket
        else {"host": args.host, "port": args.port}
    )
    with ServiceClient(
        **address, retries=args.retries, backoff=args.backoff
    ) as client:
        if args.health:
            health = client.health()
            print(format_health(health))
            return 0 if health.get("accepting") else 1
        if args.stats:
            stats = client.stats()
            print(format_table(
                ["counter", "value"], sorted(stats["counters"].items())
            ))
            print(f"queue depth: {stats['queue_depth']}/{stats['queue_size']}"
                  f"  inflight: {stats['inflight']}"
                  f"  workers: {stats['workers']}"
                  f"  pool: {stats['pool']}")
            disk = stats.get("cache", {}).get("disk")
            if disk:
                print(format_table(
                    ["disk tier", "value"], sorted(disk.items())
                ))
            return 0
        if args.shutdown:
            client.shutdown()
            print("server stopping")
            return 0
        if not args.kind:
            raise ReproError(
                "submit needs a job kind (or --stats / --shutdown)"
            )

        params: dict = {}
        if args.benchmarks:
            # The positional names feed the kind's benchmark parameter;
            # custom kinds have no defaults table and take --params only.
            jk = jobs.JOB_KINDS.get(args.kind)
            slots = (jk and jk.defaults) or {}
            if "benchmark" in slots:
                if len(args.benchmarks) > 1:
                    raise ReproError(
                        f"{args.kind} takes a single benchmark, got "
                        f"{len(args.benchmarks)}"
                    )
                params["benchmark"] = args.benchmarks[0]
            elif "benchmarks" in slots:
                params["benchmarks"] = list(args.benchmarks)
            else:
                raise ReproError(
                    f"{args.kind} does not take positional benchmarks; "
                    "use --params"
                )
        if args.params:
            try:
                extra = json_mod.loads(args.params)
                if not isinstance(extra, dict):
                    raise ValueError("not a JSON object")
            except ValueError as exc:
                raise ReproError(f"bad --params: {exc}") from exc
            params.update(extra)

        t0 = time.perf_counter()
        resp = client.submit(
            args.kind,
            params,
            priority=args.priority,
            wait=not (args.no_wait or args.watch),
            timeout=args.timeout,
        )
        job = resp["job"]
        if args.watch:
            for event in client.watch(job["id"]):
                if event.get("done"):
                    job = event["job"]
                    break
                name = event.get("event", "?")
                extras = " ".join(
                    f"{k}={v}" for k, v in sorted(event.items())
                    if k not in ("ok", "event", "t")
                )
                print(f"[{job['id']}] {name} {extras}".rstrip())
            if job["state"] != "done":
                raise ReproError(job.get("error", "job failed"))
        elapsed = time.perf_counter() - t0
        if args.no_wait and not args.watch:
            print(f"{job['id']} queued ({resp['disposition']})")
            return 0
        print(
            f"{job['id']} {job['state']} ({resp['disposition']}, "
            f"{elapsed:.3f}s)"
        )
        print(json_mod.dumps(job.get("result"), indent=2, sort_keys=True))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    spans, metrics = obs.load_trace(args.file)
    print(format_trace_summary(spans, metrics, top=args.top))
    return 0


_COMMANDS = {
    "benchmarks": _cmd_benchmarks,
    "ingest": _cmd_ingest,
    "customize": _cmd_customize,
    "explain": _cmd_explain,
    "validate": _cmd_validate,
    "faults": _cmd_faults,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "trace": _cmd_trace,
    **{kind: _run_kind for kind in _SHOW},
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    :class:`~repro.errors.ReproError` subclasses become a one-line
    ``error:`` message on stderr with exit status 2 instead of a
    traceback — malformed inputs are a user problem, not a crash.
    """
    args = build_parser().parse_args(argv)
    from repro import cache

    if args.cache_dir:
        cache.set_cache_dir(args.cache_dir)
    if args.no_cache:
        cache.set_enabled(False)
    trace_path = getattr(args, "trace", None)
    show_metrics = getattr(args, "metrics", False)
    if trace_path:
        obs.enable_tracing()
    try:
        with obs.span("cli", command=args.command):
            code = _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    if trace_path or show_metrics:
        # Refresh the cache.disk.* occupancy gauges to the directory as
        # this run left it.
        cache.disk_stats()
    if trace_path:
        obs.export_trace(trace_path)
        print(f"trace written to {trace_path}", file=sys.stderr)
    if show_metrics:
        print(format_metrics(obs.metrics_snapshot()))
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
