"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    List registered devices, models, datasets, and search algorithms.
``solve``
    Serve one problem and print the FastTTS-vs-baseline comparison.
``sweep``
    Baseline-vs-FastTTS beam sweep inside one
    :func:`~repro.experiments.runner.orchestrate` block: ``--jobs N``
    shards cells over worker processes, and completed cells are memoized
    in the on-disk result cache (:mod:`repro.experiments.cache`; default
    ``benchmarks/benchmark_results/cache/``; ``--cache-dir`` /
    ``$REPRO_CACHE_DIR`` override, ``--no-cache`` disables).
``fleet``
    Multi-request serving: a one-tenant trace with no deadlines, whose
    request *i* is problem *i* of ``(--dataset, --seed)`` arriving at the
    ``--arrivals`` process's *i*-th time (any registered process, at
    ``--rate``), served through the same path as ``trace run``. Reports
    fleet metrics (request throughput, p50/p95 queueing delay and
    sojourn, busy fraction, KV swap time). Serving policy is one
    :class:`~repro.core.fleet_spec.FleetSpec`, and ``add_fleet_flags``
    generates a flag for every field of it (``fleet --help`` lists them;
    every default is byte-identical to the goldens). ``--scheduler all``
    compares every registered policy on one workload.
``trace``
    Open-loop trace-driven serving. ``trace generate`` synthesizes a
    multi-tenant arrival trace (``--tenant
    "chat:arrival=poisson,rate=0.05,deadline=300,ttft=60"`` — arrival
    processes ``uniform``/``poisson``/``diurnal``/``bursty``, per-tenant
    dataset, difficulty mix, search budget and SLO targets) and writes
    replayable JSONL; ``trace run`` generates and serves it in one step;
    ``trace replay`` serves a trace file byte-identically to the run that
    wrote it. Requests arrive at their trace timestamps regardless of capacity
    — queues build and deadlines expire. ``run`` and ``replay`` take every
    ``FleetSpec`` flag, including the one ``fleet`` omits (its closed-loop
    requests carry no deadlines): ``--late-policy drop`` sheds queued
    requests at deadline expiry, ``serve_late`` serves them anyway and
    lets SLO attainment take the hit. Reports add SLO attainment,
    goodput-under-deadline, queue-depth/overload stats and a per-tenant
    table.
``schedulers``
    List the registered request-scheduling, placement and routing policies.
``devices``
    List the registered device specs (VRAM, peak FLOPs, bandwidths).
``report``
    Deployment feasibility + roofline report for a config on a device.
``straggler``
    Analytical idle-fraction table (why speculation has room to work).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from math import isfinite

from repro.analysis.reports import deployment_report
from repro.analysis.straggler import idle_fraction
from repro.core.config import AXIS_CHOICES, baseline_config, fasttts_config
from repro.core.fleet import run_trace
from repro.core.fleet_spec import FleetSpec, axis_flag
from repro.core.pool import PLACEMENTS
from repro.core.scheduler import SCHEDULERS
from repro.core.server import TTSServer
from repro.errors import ConfigError
from repro.metrics.fleet import compare_policies
from repro.routing import ROUTERS
from repro.workloads.arrivals import ARRIVALS
from repro.workloads.tenants import TenantSpec, generate_trace, tenant_rng
from repro.workloads.trace import Trace, TraceRequest
from repro.experiments.cache import ResultCache
from repro.experiments.runner import ExperimentSpec, orchestrate, sweep_n
from repro.hardware.device import DEVICES
from repro.metrics.goodput import format_gain, throughput_gain
from repro.models.zoo import MODELS
from repro.search.registry import ALGORITHMS, build_algorithm
from repro.utils.tables import render_table
from repro.workloads.datasets import DATASETS, build_dataset

__all__ = ["main", "build_parser"]


def _cmd_info(args: argparse.Namespace) -> int:
    print("devices:   " + ", ".join(DEVICES.names()))
    print("models:    " + ", ".join(MODELS.names()))
    print("datasets:  " + ", ".join(DATASETS.names()))
    print("algorithms:" + " " + ", ".join(ALGORITHMS.names()))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.problem < 0:
        raise ConfigError(
            f"--problem must be a non-negative index, got {args.problem}"
        )
    if args.n < 1:
        raise ConfigError(f"-n must be >= 1, got {args.n}")
    dataset = build_dataset(args.dataset, seed=args.seed, size=args.problem + 1)
    problem = list(dataset)[args.problem]
    algorithm = build_algorithm(args.algorithm, args.n)
    rows = []
    for label, factory in (("baseline", baseline_config), ("fasttts", fasttts_config)):
        config = factory(
            device_name=args.device,
            model_config=args.config,
            memory_fraction=args.memory_fraction,
            seed=args.seed,
        )
        result = TTSServer(config, dataset).solve(problem, algorithm)
        rows.append([
            label,
            round(result.goodput, 1),
            round(result.latency.total, 1),
            round(result.latency.generation, 1),
            round(result.latency.verification, 1),
            result.top1_correct,
        ])
    print(render_table(
        ["system", "goodput tok/s", "latency s", "gen s", "verify s", "top1"],
        rows,
        title=(f"{problem.problem_id} | {args.config} on {args.device} "
               f"| {args.algorithm} n={args.n}"),
    ))
    gain = throughput_gain(rows[1][1], rows[0][1])
    print(f"goodput gain: {format_gain(gain)}x")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    if args.problems < 1:
        raise ConfigError(f"--problems must be >= 1, got {args.problems}")
    spec = ExperimentSpec(
        dataset_name=args.dataset,
        dataset_size=args.problems,
        model_config=args.config,
        device_name=args.device,
        algorithm=args.algorithm,
        seed=args.seed,
        memory_fraction=args.memory_fraction,
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    with orchestrate(jobs=args.jobs, cache=cache):
        pairs = sweep_n(spec, list(args.n_values))
    print(render_table(
        ["config", "dataset", "algorithm", "n", "baseline tok/s",
         "fasttts tok/s", "gain x", "latency -%"],
        [pair.summary_row() for pair in pairs],
        title=(f"sweep: {args.config} on {args.device} | {args.algorithm} "
               f"| {args.problems} problems | jobs={args.jobs}"),
    ))
    if cache is not None:
        print(
            f"result cache: {cache.hits} hits, {cache.misses} misses "
            f"under {cache.directory}/"
        )
    return 0


#: The one place a subcommand opts out of a serving axis: ``fleet``'s
#: closed-loop requests carry no deadlines, so ``--late-policy`` would
#: have nothing to act on there.
_FLEET_OMITS = ("late_policy",)


def add_fleet_flags(
    parser: argparse.ArgumentParser, omit: tuple[str, ...] = ()
) -> dict[str, argparse.Action]:
    """One flag per :class:`FleetSpec` field, generated from the field.

    Defaults, help and value sets come from the spec; enum axes and the
    scheduler/placement registries become argparse ``choices``, while
    open grammars (devices, lanes, faults, router) are checked by
    ``FleetSpec.from_args`` so typos get a did-you-mean. Returns the
    actions by field name.
    """
    actions = {}
    for axis in fields(FleetSpec):
        if axis.name in omit:
            continue
        meta = axis.metadata
        options = {key: meta[key] for key in ("metavar", "type") if key in meta}
        if axis.name in AXIS_CHOICES:
            options["choices"] = AXIS_CHOICES[axis.name]
        elif "choices" in meta:
            options["choices"] = meta["choices"]()
        help_text = meta["help"]
        if "describe" in meta:
            help_text += ". " + "; ".join(
                f"{name}: {desc}" for name, desc in meta["describe"]().items()
            )
        actions[axis.name] = parser.add_argument(
            axis_flag(axis), dest=axis.name, default=axis.default,
            help=help_text, **options,
        )
    return actions


def add_serve_flags(
    parser: argparse.ArgumentParser, omit: tuple[str, ...] = ()
) -> dict[str, argparse.Action]:
    """Everything ``_serve`` reads: the server's config plus the fleet flags."""
    parser.add_argument("--config", default="1.5B+1.5B")
    parser.add_argument("--device", default="rtx4090", choices=DEVICES.names())
    parser.add_argument("--system", choices=("baseline", "fasttts"),
                        default="fasttts")
    parser.add_argument("--memory-fraction", type=float, default=0.4)
    return add_fleet_flags(parser, omit)


def _serve(args, kind: str, workload: str, trace: Trace) -> int:
    """Shared tail of ``fleet`` and ``trace run/replay``.

    Builds the spec and server config from the flags, serves ``trace``
    through :func:`~repro.core.fleet.run_trace` once per scheduling policy
    (``--scheduler all`` compares them), and prints the report tables.
    """
    policies = SCHEDULERS.names() if args.scheduler == "all" else [args.scheduler]
    spec = FleetSpec.from_args(args, scheduler=policies[0])
    lanes = spec.lanes
    factory = fasttts_config if args.system == "fasttts" else baseline_config
    config = factory(
        device_name=(lanes[0].device_name if lanes
                     else spec.devices[0] if spec.devices else args.device),
        model_config=(lanes[0].model_config if lanes else args.config),
        memory_fraction=args.memory_fraction,
        seed=trace.seed,
    )
    reports = {
        p: run_trace(trace, config, spec=replace(spec, scheduler=p))
        for p in policies
    }

    if lanes:
        served = "lanes " + ",".join(lane.label for lane in lanes)
    else:
        served = f"{args.config} on {','.join(spec.devices or [args.device])}"
    title = f"{workload} | {args.system} {served}" + "".join(
        f" | {axis_flag(axis)[2:]} {getattr(spec, axis.name)}"
        for axis in fields(spec)
        if axis.name not in ("scheduler", "devices", "lanes")
        and getattr(spec, axis.name) != axis.default
    )
    if len(reports) > 1:
        print(compare_policies(
            {policy: report.metrics for policy, report in reports.items()},
            title=f"{kind} scheduler comparison: {title}",
        ))
        return 0
    report = reports[spec.scheduler]
    print(report.table(title=f"{kind} [{spec.scheduler}]: {title}"))
    if len(report.devices) > 1:
        print(report.device_table(title="per-device utilization"))
    if spec.router != "off":
        print(report.lane_class_table(title="per-lane-class rollup"))
        decisions = ", ".join(
            f"{cls}: {count}" for cls, count in report.router_decisions().items()
        )
        print(f"router decisions: {decisions or 'none'}")
    if kind == "trace":
        print(report.tenant_table(title="per-tenant SLOs"))
        print(report.slo_summary().table(title="fleet SLO summary"))
    for record in report.records:
        if not record.accepted:
            fate = ("dropped" if record.dropped
                    else "lost" if record.lost else "rejected")
            print(f"{fate} {record.request_id}: {record.reject_reason}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.requests < 1:
        raise ConfigError(f"--requests must be >= 1, got {args.requests}")
    if args.n < 1:
        raise ConfigError(f"-n must be >= 1, got {args.n}")
    if not (isfinite(args.rate) and args.rate > 0):
        raise ConfigError(f"--rate must be finite and > 0, got {args.rate}")
    process = TenantSpec(
        "fleet", arrival=args.arrivals, rate_rps=args.rate
    ).arrival_process()
    arrivals = process.times(tenant_rng(args.seed, "fleet"), args.requests)
    requests = tuple(
        TraceRequest(
            request_id=f"fleet-{i:04d}", tenant="fleet", arrival_s=arrival,
            dataset=args.dataset, dataset_seed=args.seed, problem_index=i,
            algorithm=args.algorithm, n=args.n,
        )
        for i, arrival in enumerate(arrivals)
    )
    trace = Trace(seed=args.seed, requests=requests, base_dataset=args.dataset)
    workload = (f"{args.requests} requests @ {args.rate}/s ({args.arrivals}) "
                f"| {args.algorithm} n={args.n}")
    return _serve(args, "fleet", workload, trace)


#: Tenants used when ``trace generate``/``trace run`` get no ``--tenant``:
#: a latency-sensitive interactive stream plus a bursty batch backfill.
_DEFAULT_TENANTS = (
    "chat:arrival=poisson,rate=0.02,deadline=300,ttft=120",
    "batch:arrival=bursty,rate=0.01,deadline=1200,slo=batch",
)


def _trace_from_args(args: argparse.Namespace) -> Trace:
    """Build a trace from ``--tenant`` specs (raises ConfigError)."""
    if args.requests < 1:
        raise ConfigError(f"--requests must be >= 1, got {args.requests}")
    specs = list(args.tenant) if args.tenant else list(_DEFAULT_TENANTS)
    tenants = [TenantSpec.parse(spec) for spec in specs]
    return generate_trace(
        tenants,
        seed=args.seed,
        default_requests=args.requests,
        base_dataset=args.base_dataset,
    )


def _print_trace_summary(trace: Trace) -> None:
    per_tenant: dict[str, int] = {}
    for request in trace.requests:
        per_tenant[request.tenant] = per_tenant.get(request.tenant, 0) + 1
    rows = [[name, count] for name, count in sorted(per_tenant.items())]
    print(render_table(
        ["tenant", "requests"], rows,
        title=(f"trace: {len(trace.requests)} requests | seed {trace.seed} "
               f"| horizon {trace.horizon_s:.0f}s "
               f"| base dataset {trace.base_dataset}"),
    ))


def _serve_trace(trace: Trace, args: argparse.Namespace) -> int:
    """Replay ``trace`` through the open-loop fleet and print SLO tables."""
    workload = (f"{len(trace.requests)} requests / {len(trace.tenants)} tenants "
                f"over {trace.horizon_s:.0f}s")
    return _serve(args, "trace", workload, trace)


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "replay":
        return _serve_trace(Trace.load(args.trace), args)
    trace = _trace_from_args(args)
    if args.trace_command == "generate":
        trace.save(args.out)
        _print_trace_summary(trace)
        print(f"wrote {args.out}")
        return 0
    # run: generate + serve in one step
    if args.out is not None:
        trace.save(args.out)
        print(f"wrote {args.out}")
    return _serve_trace(trace, args)


def _cmd_schedulers(args: argparse.Namespace) -> int:
    for registry, title in ((SCHEDULERS, "registered request schedulers"),
                            (PLACEMENTS, "registered placement policies"),
                            (ROUTERS, "registered routing policies")):
        rows = [[name, desc] for name, desc in registry.descriptions().items()]
        print(render_table([registry.kind, "policy"], rows, title=title))
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    rows = []
    for name in DEVICES.names():
        spec = DEVICES[name]
        rows.append([
            name,
            round(spec.vram_bytes / 1024**3, 1),
            round(spec.peak_flops / 1e12, 1),
            round(spec.mem_bandwidth / 1e9, 1),
            round(spec.pcie_bandwidth / 1e9, 1),
        ])
    print(render_table(
        ["device", "vram GB", "peak TFLOP/s", "mem GB/s", "pcie GB/s"],
        rows,
        title="registered devices",
    ))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(deployment_report(
        model_config=args.config,
        device_name=args.device,
        memory_fraction=args.memory_fraction,
        dataset_name=args.dataset,
        n=args.n,
    ))
    return 0


def _cmd_straggler(args: argparse.Namespace) -> int:
    profile = DATASETS[args.dataset]
    rows = [
        [batch, round(idle_fraction(profile.step_model, batch) * 100, 1)]
        for batch in (1, 4, 16, 64, 256)
    ]
    print(render_table(
        ["batch size", "expected idle slot-time %"],
        rows,
        title=f"straggler idle fraction ({args.dataset} step lengths)",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FastTTS reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list devices/models/datasets/algorithms")

    solve = sub.add_parser("solve", help="serve one problem on both systems")
    solve.add_argument("--dataset", default="aime24", choices=DATASETS.names())
    solve.add_argument("--problem", type=int, default=0)
    solve.add_argument("--config", default="1.5B+1.5B")
    solve.add_argument("--device", default="rtx4090", choices=DEVICES.names())
    solve.add_argument("--algorithm", default="beam_search",
                       choices=ALGORITHMS.names())
    solve.add_argument("-n", type=int, default=16)
    solve.add_argument("--memory-fraction", type=float, default=0.4)
    solve.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser(
        "sweep", help="parallel cached baseline-vs-fasttts beam sweep"
    )
    sweep.add_argument("--dataset", default="aime24", choices=DATASETS.names())
    sweep.add_argument("--config", default="1.5B+1.5B")
    sweep.add_argument("--device", default="rtx4090", choices=DEVICES.names())
    sweep.add_argument("--algorithm", default="beam_search",
                       choices=ALGORITHMS.names())
    sweep.add_argument("--n-values", type=int, nargs="+", default=[4, 8, 16],
                       help="beam budgets to sweep")
    sweep.add_argument("--problems", type=int, default=2)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes to shard cells across")
    sweep.add_argument("--cache-dir", default=None,
                       help="result-cache directory (default: "
                            "benchmarks/benchmark_results/cache or "
                            "$REPRO_CACHE_DIR)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="run every cell even if cached")
    sweep.add_argument("--memory-fraction", type=float, default=None,
                       help="override the paper's per-config memory fraction")
    sweep.add_argument("--seed", type=int, default=0)

    fleet = sub.add_parser(
        "fleet", help="serve a multi-request stream and report fleet metrics"
    )
    fleet.add_argument("--dataset", default="amc23", choices=DATASETS.names())
    fleet.add_argument("--algorithm", default="beam_search",
                       choices=ALGORITHMS.names())
    fleet.add_argument("-n", type=int, default=8)
    fleet.add_argument("--requests", type=int, default=6)
    fleet.add_argument("--rate", type=float, default=0.02,
                       help="arrival rate in requests per simulated second")
    fleet.add_argument("--arrivals", choices=ARRIVALS.names(), default="poisson",
                       help="arrival process at --rate (diurnal and bursty "
                            "take trace --tenant's default shape parameters)")
    fleet.add_argument("--seed", type=int, default=0)
    compare = add_serve_flags(fleet, omit=_FLEET_OMITS)["scheduler"]
    compare.choices = (*compare.choices, "all")
    compare.help += (", or 'all' to compare every registered policy on the "
                     "same workload")

    trace = sub.add_parser(
        "trace", help="open-loop trace-driven serving with SLO metrics"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    arrival_help = "; ".join(
        f"{name}: {desc}" for name, desc in ARRIVALS.descriptions().items()
    )

    def add_workload_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tenant", action="append", metavar="SPEC",
                       help="tenant spec 'name:key=value,...' (repeatable); "
                            "keys: arrival, rate, peak_rate, period, "
                            "burst_rate, on_s, off_s, dataset, difficulty, "
                            "algorithm, n, deadline, ttft, slo, requests. "
                            f"Arrival processes — {arrival_help}")
        p.add_argument("--requests", type=int, default=8,
                       help="requests per tenant unless the spec overrides")
        p.add_argument("--base-dataset", default=None, choices=DATASETS.names(),
                       help="dataset whose step-length dynamics the serving "
                            "fleet uses (default: first tenant's dataset)")
        p.add_argument("--seed", type=int, default=0)

    trace_generate = trace_sub.add_parser(
        "generate", help="synthesize a multi-tenant trace and write JSONL"
    )
    add_workload_flags(trace_generate)
    trace_generate.add_argument("--out", required=True, metavar="PATH",
                                help="JSONL trace file to write")

    trace_run = trace_sub.add_parser(
        "run", help="generate a trace and serve it open-loop in one step"
    )
    add_workload_flags(trace_run)
    add_serve_flags(trace_run)
    trace_run.add_argument("--out", default=None, metavar="PATH",
                           help="also save the generated trace as JSONL")

    trace_replay = trace_sub.add_parser(
        "replay", help="serve a previously generated JSONL trace"
    )
    trace_replay.add_argument("--trace", required=True, metavar="PATH",
                              help="JSONL trace file to replay")
    add_serve_flags(trace_replay)

    sub.add_parser("schedulers",
                   help="list request-scheduling, placement and routing policies")

    sub.add_parser("devices", help="list registered device specs")

    report = sub.add_parser("report", help="deployment feasibility report")
    report.add_argument("--config", default="1.5B+1.5B")
    report.add_argument("--device", default="rtx4090", choices=DEVICES.names())
    report.add_argument("--dataset", default="aime24", choices=DATASETS.names())
    report.add_argument("-n", type=int, default=64)
    report.add_argument("--memory-fraction", type=float, default=0.9)

    straggler = sub.add_parser("straggler", help="idle-fraction analysis")
    straggler.add_argument("--dataset", default="aime24", choices=DATASETS.names())

    return parser


_HANDLERS = {
    "info": _cmd_info,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "fleet": _cmd_fleet,
    "trace": _cmd_trace,
    "schedulers": _cmd_schedulers,
    "devices": _cmd_devices,
    "report": _cmd_report,
    "straggler": _cmd_straggler,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command; a :class:`ConfigError` anywhere is exit status 2."""
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
