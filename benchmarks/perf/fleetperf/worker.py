"""One benchmark repetition: build a workload's trace, drain it, report.

Run as ``python -m fleetperf.worker`` by :mod:`fleetperf.cli` — a fresh
single-threaded process per repetition, because host times measured on
this kind of box drift upward across in-process repetitions (README,
"Noise protocol"). The last stdout line is one JSON document.

The body mirrors :func:`repro.core.fleet.run_trace` call for call
(``materialize_problems`` → ``build_dataset`` → ``TTSFleet`` →
``submit`` per request → ``drain``) so set-up and drain can be timed
apart; the smoke test pins that both produce the same records.

Modes:

``timed``
    nothing instrumented: host CPU of the drain region, set-up CPU, RSS.
``count``
    the drain region under ``cProfile`` (Python-level calls only): the
    exact call count and its per-layer rollup.
``span``
    layer entry points wrapped by :mod:`fleetperf.tracing`; spans go to
    ``spans_path`` and per-layer self times are returned.
``micro``
    the leaf microbenchmarks of :mod:`fleetperf.micro` (no workload).
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import json
import random
import resource
import sys
import time

from fleetperf import ensure_repro_importable
from fleetperf.specs import Workload, get_workload

__all__ = ["SCHEDULE_SEED", "build_trace", "run_once", "main"]

#: Passes that drain a workload; ``micro`` runs the leaf benchmarks instead.
DRAIN_MODES = ("timed", "count", "span")

#: Seeds the arrival schedule, each tenant's problem pool and the server
#: config. These stay fixed so every ``--seed`` offers the same load
#: curve to the same modelled device; ``--seed`` draws *which problem*
#: each scheduled arrival asks. Re-seeding arrivals or the config as well
#: re-draws every service time and answer, and with the few hundred
#: requests the run-time cap affords that moved the queueing metrics by
#: 20-150 % between seeds (README, "What the seed varies").
SCHEDULE_SEED = 0

#: One problem pick in this many is re-drawn under ``--seed`` (which ones
#: is the seed's choice too): enough that the request population, and so
#: every metric, differs between seeds; few enough that total work and
#: accuracy move by a few percent only.
REDRAW_EVERY = 8


def peak_rss_mib() -> float:
    """Process high-water RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there
        rss /= 1024
    return rss / 1024


def build_trace(workload: Workload, seed: int, scale: float):
    """The workload's open-loop trace for ``seed``.

    Arrival times, deadlines and problem pools come from the fixed
    schedule trace. Each tenant's sequence of problem picks is the
    schedule's own, with every :data:`REDRAW_EVERY`-th pick — counted
    from an offset drawn under ``seed`` — re-drawn under ``seed``.
    """
    from repro.workloads import tenants as tenants_mod
    from repro.workloads.trace import Trace

    tenants = [
        tenants_mod.TenantSpec.parse(t) for t in workload.tenant_specs(scale)
    ]
    # Looked up through the module at call time so the span pass's
    # wrapper (installed on the module attribute) is the one called.
    schedule = tenants_mod.generate_trace(
        tenants, seed=SCHEDULE_SEED, base_dataset="amc23"
    )
    redrawn = tenants_mod.generate_trace(
        tenants, seed=seed, base_dataset="amc23"
    )
    rng = random.Random(seed)
    picks: dict[str, list[int]] = {}
    for tenant in tenants:
        mine = [r.problem_index for r in schedule if r.tenant == tenant.name]
        fresh = [r.problem_index for r in redrawn if r.tenant == tenant.name]
        # A tenant shorter than the stride still gets one pick re-drawn.
        offset = rng.randrange(min(REDRAW_EVERY, len(mine)))
        mine[offset::REDRAW_EVERY] = fresh[offset::REDRAW_EVERY]
        picks[tenant.name] = mine[::-1]  # popped from the end, in order
    return Trace(
        seed=SCHEDULE_SEED,
        requests=tuple(
            dataclasses.replace(r, problem_index=picks[r.tenant].pop())
            for r in schedule
        ),
        base_dataset=schedule.base_dataset,
    )


def _build_fleet(workload: Workload, seed: int, scale: float):
    """A fleet with the whole trace submitted, ready to drain."""
    from repro.core import config as config_mod
    from repro.core.fleet import TTSFleet
    from repro.search.registry import build_algorithm
    from repro.workloads import trace as trace_mod
    from repro.workloads.datasets import build_dataset

    trace = build_trace(workload, seed, scale)
    factory = {
        "fasttts": config_mod.fasttts_config,
        "baseline": config_mod.baseline_config,
    }[workload.config]
    problems = trace_mod.materialize_problems(trace)
    fleet = TTSFleet(
        factory(memory_fraction=0.4, seed=SCHEDULE_SEED),
        build_dataset(trace.base_dataset, seed=trace.seed),
        faults=workload.fault_spec(scale),
        **workload.fleet,
    )
    for request in trace:
        fleet.submit(
            problems[request.request_id],
            build_algorithm(request.algorithm, request.n),
            arrival_s=request.arrival_s,
            deadline_s=request.deadline_s,
            ttft_slo_s=request.ttft_slo_s,
            tenant=request.tenant,
            slo_class=request.slo_class,
        )
    return fleet


def run_once(
    workload: Workload,
    seed: int,
    scale: float = 1.0,
    mode: str = "timed",
    spans_path: str | None = None,
    cpu_at_start: float | None = None,
) -> dict:
    """Build, drain and summarise ``workload`` once; see the module doc.

    ``cpu_at_start`` is the ``time.process_time()`` reading set-up is
    measured from: 0.0 in a worker process (interpreter boot and imports
    count as set-up), "now" for in-process callers.
    """
    if mode not in DRAIN_MODES:
        raise ValueError(f"mode must be one of {DRAIN_MODES}, got {mode!r}")
    if cpu_at_start is None:
        cpu_at_start = time.process_time()
    ensure_repro_importable()
    from fleetperf import simmetrics

    tracer = None
    if mode == "span":
        from fleetperf.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        fleet = _build_fleet(workload, seed, scale)
        profiler = (
            cProfile.Profile(subcalls=False, builtins=False)
            if mode == "count" else None
        )
        cpu_setup_done = time.process_time()
        if profiler is not None:
            profiler.enable()
        # -- the measured region: drain + both metric aggregations --------
        report = fleet.drain()
        metrics = report.metrics
        report.slo_summary()
        # ------------------------------------------------------------------
        if profiler is not None:
            profiler.disable()
        cpu_done = time.process_time()
    finally:
        if tracer is not None:
            tracer.uninstall()

    out = {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "mode": mode,
        "setup_s": cpu_setup_done - cpu_at_start,
        "host_cpu_s": cpu_done - cpu_setup_done,
        "peak_rss_mib": peak_rss_mib(),
        "records_digest": simmetrics.records_digest(report),
        "tally": simmetrics.tally(report),
        "layer_counters": simmetrics.layer_counters(report, metrics),
    }
    if profiler is not None:
        from fleetperf.tracing import pycalls_by_layer

        out["pycalls"], out["layer_pycalls"] = pycalls_by_layer(profiler)
    if tracer is not None:
        out["restored"] = tracer.restored()
        out["layers"] = tracer.layer_stats()
        out["layer_counters"].update(tracer.counter_metrics())
        out["spans"] = len(tracer.spans)
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=(*DRAIN_MODES, "micro"), default="timed")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    if args.mode == "micro":
        ensure_repro_importable()
        from fleetperf.micro import run_micro

        result = run_micro()
    else:
        result = run_once(
            get_workload(args.workload), args.seed, args.scale, args.mode,
            spans_path=args.spans_out, cpu_at_start=0.0,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
