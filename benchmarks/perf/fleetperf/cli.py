"""Benchmark driver: spawn the passes of a run, aggregate, check, print.

One *run* measures one workload under one ``--seed``:

untraced (``--trace 0``, the end-to-end metrics)
    timed repetitions, each a fresh worker process draining one of the
    run's :data:`SUBSEEDS` sub-traces in turn, until ``--seconds`` of
    measuring have passed (never fewer than one per sub-trace); then one
    call-count pass under ``cProfile``. Simulated metrics are taken over
    the pooled requests of the sub-traces; host time is each sub-trace's
    minimum over its repetitions, summed.
traced (``--trace 1``, the per-layer metrics)
    one untraced reference repetition, the span pass, the call-count
    pass, two shorter drains for the scaling exponent, and the leaf
    microbenchmarks — all on sub-trace 0.

Workers never overlap: host numbers on a two-core shared box do not
survive a neighbour. The whole run works against one wall-clock
:data:`RUN_BUDGET_S`; a pass that would overrun it is killed and the
run exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time

from fleetperf import (
    BENCH_DIR, REPO_ROOT, SRC_DIR, ensure_repro_importable, simmetrics,
)
from fleetperf.catalogue import END_TO_END, NAME_PATTERN, PER_LAYER
from fleetperf.specs import get_workload, workload_names
from fleetperf.tracing import LAYERS

__all__ = ["SUBSEEDS", "MAX_REPS", "RUN_BUDGET_S", "main"]

#: Distinct sub-traces one run pools its simulated metrics over; each is
#: timed at least once.
SUBSEEDS = 3
MAX_REPS = 12
DEFAULT_SECONDS = 5
#: Wall seconds one invocation may take (the benchmark driver stops a run
#: at 180 s); every worker's timeout is what is left of it.
RUN_BUDGET_S = 165.0
_deadline = math.inf  # set by main()
#: Spans and ``--out`` files land here (git-ignored).
OUT_DIR = BENCH_DIR / "out"


def sub_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th sub-trace; disjoint across ``--seed``."""
    return seed * SUBSEEDS + index


# -- running one pass ---------------------------------------------------------


def _spawn(mode, workload=None, seed=0, scale=1.0, spans_path=None) -> dict:
    """Run one pass in a fresh single-threaded worker process."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(BENCH_DIR), str(SRC_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [sys.executable, "-m", "fleetperf.worker", "--mode", mode]
    if workload is not None:
        command += ["--workload", workload, "--seed", str(seed),
                    "--scale", repr(scale)]
    if spans_path is not None:
        command += ["--spans-out", str(spans_path)]
    left = _deadline - time.monotonic()
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, check=True,
        timeout=max(1.0, left) if math.isfinite(left) else None,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _inline(mode, workload=None, seed=0, scale=1.0, spans_path=None) -> dict:
    """Run one pass in this process (smoke tests; not for measurement)."""
    if mode == "micro":
        from fleetperf.micro import run_micro

        return run_micro(ops_scale=0.02)
    from fleetperf.worker import run_once

    return run_once(
        get_workload(workload), seed, scale, mode,
        spans_path=str(spans_path) if spans_path else None,
    )


# -- aggregation --------------------------------------------------------------


def _spread(values: list[float]) -> dict:
    return {
        "min": min(values), "median": statistics.median(values),
        "max": max(values), "n": len(values),
    }


def _requests(tally: dict) -> dict:
    return {
        k: tally[k]
        for k in ("submitted", "completed", "rejected", "dropped", "lost")
    }


def _pooled_digest(passes: list[dict]) -> str:
    joined = "".join(p["records_digest"] for p in passes)
    return hashlib.sha256(joined.encode("ascii")).hexdigest()


def _check_passes(passes: list[dict], checks: dict) -> None:
    """Accounting identities per pass; same sub-trace ⇒ same simulation."""
    first_by_seed: dict[int, dict] = {}
    for p in passes:
        t = p["tally"]
        tag = f"{p['mode']}@{p['seed']}x{p['scale']:g}"
        checks[f"{tag}: submitted = completed + rejected + dropped + lost"] = (
            t["submitted"]
            == t["completed"] + t["rejected"] + t["dropped"] + t["lost"]
        )
        checks[f"{tag}: one terminal record per request id"] = (
            t["request_ids"] == t["submitted"]
        )
        if "restored" in p:
            checks[f"{tag}: wrapped attributes restored"] = p["restored"]
        key = (p["seed"], p["scale"])
        first = first_by_seed.setdefault(key, p)
        if first is not p:
            checks[f"{tag}: reproduces the {first['mode']} pass"] = (
                p["records_digest"] == first["records_digest"]
                and simmetrics.summarise(t) == simmetrics.summarise(first["tally"])
            )


def _check_metrics(metrics: dict, declared: dict, checks: dict) -> None:
    """Every declared metric present, finite, named legally — and no extras."""
    checks["metric names match the declared set"] = set(metrics) == set(declared)
    for name, entry in metrics.items():
        ok = (
            re.match(NAME_PATTERN, name) is not None
            and isinstance(entry["value"], (int, float))
            and math.isfinite(entry["value"])
            and entry["unit"] == declared.get(name, (None,))[0]
        )
        if not ok:
            checks[f"metric {name} is finite with its declared unit"] = False


def measure(workload: str, seed: int, seconds: float, reps: int,
            scale: float, run_pass) -> dict:
    """An untraced run: the end-to-end metrics of ``workload``."""
    started = time.monotonic()
    timed: list[dict] = []
    while True:
        done = len(timed)
        if reps:
            if done >= reps:
                break
        elif done >= SUBSEEDS and (
            time.monotonic() - started >= seconds or done >= MAX_REPS
        ):
            break
        timed.append(
            run_pass("timed", workload, sub_seed(seed, done % SUBSEEDS), scale)
        )
    count = run_pass("count", workload, sub_seed(seed, 0), scale)

    pooled = timed[:SUBSEEDS]
    tally = simmetrics.merge([p["tally"] for p in pooled])
    sim = simmetrics.summarise(tally)
    per_request = [
        1000.0 * p["host_cpu_s"] / p["tally"]["submitted"] for p in timed
    ]
    # Noise only ever adds, so each sub-trace counts at its fastest drain.
    fastest = [
        min(p["host_cpu_s"] for p in timed[i::SUBSEEDS])
        for i in range(len(pooled))
    ]
    host = {
        "setup_s": _spread([p["setup_s"] for p in timed + [count]]),
        "host_cpu_ms_per_request": _spread(per_request),
        "peak_rss_mib": _spread([p["peak_rss_mib"] for p in timed]),
    }
    values = {
        "setup_s": host["setup_s"]["median"],
        "host_cpu_ms_per_request": 1000.0 * sum(fastest) / tally["submitted"],
        "host_pycalls_per_request": (
            count["pycalls"] / count["tally"]["submitted"]
        ),
        "peak_rss_mib": host["peak_rss_mib"]["median"],
    }
    values.update({k: v for k, v in sim.items() if k in END_TO_END})
    metrics = {
        name: {"value": values[name], "unit": END_TO_END[name][0]}
        for name in END_TO_END if name in values
    }
    checks: dict[str, bool] = {}
    _check_passes(timed + [count], checks)
    _check_metrics(metrics, END_TO_END, checks)
    return {
        "workload": workload, "seed": seed, "scale": scale, "trace": 0,
        "repetitions": len(timed), "sub_traces": len(pooled),
        "records_digest": _pooled_digest(pooled),
        "requests": _requests(tally),
        "samples": {"latency": len(tally["sojourn_s"]),
                    "ttft": len(tally["ttft_s"])},
        "failed_share": sim["failed_share"],
        "host": host, "metrics": metrics, "checks": checks,
    }


def _log_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(cost) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(cost) for _, cost in points]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    spread = sum((x - mean_x) ** 2 for x in xs)
    if spread == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / spread


def trace(workload: str, seed: int, scale: float, run_pass) -> dict:
    """A traced run: the per-layer metrics of ``workload``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}.jsonl"
    first = sub_seed(seed, 0)
    reference = run_pass("timed", workload, first, scale)
    span = run_pass("span", workload, first, scale, spans_path)
    count = run_pass("count", workload, first, scale)
    probes = [run_pass("timed", workload, first, scale * f) for f in (0.25, 0.5)]
    micro = run_pass("micro")

    curve = [
        (p["tally"]["submitted"], p["host_cpu_s"]) for p in probes + [reference]
    ]
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = span["layers"][layer]["self_s"]
        values[f"{layer}.calls"] = span["layers"][layer]["calls"]
        values[f"{layer}.pycalls"] = count["layer_pycalls"][layer]
    values["core.fleet.scaling_exponent"] = _log_slope(curve)
    values.update(span["layer_counters"])
    summary = simmetrics.summarise(span["tally"])
    for name in ("sim_ttft_p50_s", "sim_ttft_p90_s", "failed_share"):
        values[name] = summary[name]
    values["trace.overhead_ratio"] = span["host_cpu_s"] / reference["host_cpu_s"]
    values.update(micro)
    metrics = {
        name: {"value": values[name], "unit": PER_LAYER[name][0]}
        for name in PER_LAYER if name in values
    }
    checks: dict[str, bool] = {}
    _check_passes([reference, span, count] + probes, checks)
    _check_metrics(metrics, PER_LAYER, checks)
    return {
        "workload": workload, "seed": seed, "scale": scale, "trace": 1,
        "records_digest": reference["records_digest"],
        "requests": _requests(reference["tally"]),
        "spans_file": str(spans_path.relative_to(REPO_ROOT)), "spans": span["spans"],
        "scaling_curve": curve,
        "layer_entries": {
            layer: span["layers"][layer]["entries"] for layer in LAYERS
        },
        "pycalls_other": count["layer_pycalls"]["other"],
        "metrics": metrics, "checks": checks,
    }


# -- printing -----------------------------------------------------------------


def _print_result(result: dict) -> None:
    req = result["requests"]
    print(f"== {result['workload']}  seed={result['seed']} "
          f"scale={result['scale']:g} trace={result['trace']}")
    print("   open loop on the simulated clock; latencies timed from each "
          "request's scheduled arrival; generator lateness 0 by construction")
    print(f"   requests: submitted={req['submitted']} completed={req['completed']} "
          f"rejected={req['rejected']} dropped={req['dropped']} lost={req['lost']}")
    if result["trace"] == 0:
        print(f"   repetitions={result['repetitions']} pooled sub-traces="
              f"{result['sub_traces']} latency samples={result['samples']['latency']} "
              f"ttft samples={result['samples']['ttft']} "
              f"failed_share={result['failed_share']:.4f}")
    else:
        print(f"   spans={result['spans']} -> {result['spans_file']}")
        print("   scaling curve (requests, host cpu s): " + ", ".join(
            f"({n}, {cost:.3f})" for n, cost in result["scaling_curve"]))
    print(f"   records_digest={result['records_digest']}")
    kinds = END_TO_END if result["trace"] == 0 else None
    for name, entry in result["metrics"].items():
        kind = kinds[name][3] if kinds else ""
        line = f"   {name:42s} {entry['value']:>16.6g} {entry['unit']:6s} {kind}"
        spread = result.get("host", {}).get(name)
        if spread:
            line += (f"  [min {spread['min']:.4g} / median {spread['median']:.4g}"
                     f" / max {spread['max']:.4g} over {spread['n']}]")
        print(line)
    failed = [name for name, ok in result["checks"].items() if not ok]
    print(f"   checks: {len(result['checks']) - len(failed)} passed, "
          f"{len(failed)} failed")
    for name in failed:
        print(f"   CHECK FAILED: {name}")


def _trace_flag(text: str) -> int:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("--trace takes 0 or 1")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description="Layered perf benchmark of the fleet simulator."
    )
    parser.add_argument("--workload", choices=workload_names(),
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="keep adding timed repetitions until this many "
                             "seconds of measuring have passed")
    parser.add_argument("--reps", type=int, default=0,
                        help="exactly this many timed repetitions instead")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every tenant's request count")
    parser.add_argument("--trace", type=_trace_flag, nargs="?", const=1,
                        default=0, help="1: the per-layer traced run")
    parser.add_argument("--out", help="also write the full result as JSON here")
    parser.add_argument("--in-process", action="store_true",
                        help="run passes in this process (tests only: host "
                             "numbers are not comparable)")
    global _deadline
    args = parser.parse_args(argv)
    if args.seed < 0 or args.reps < 0 or args.scale <= 0 or args.seconds < 0:
        parser.error("--seed/--reps/--seconds must be >= 0 and --scale > 0")

    try:
        ensure_repro_importable()
    except ImportError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2
    run_pass = _inline if args.in_process else _spawn
    names = [args.workload] if args.workload else workload_names()
    results = []
    for name in names:
        _deadline = time.monotonic() + RUN_BUDGET_S  # per workload
        try:
            if args.trace:
                result = trace(name, args.seed, args.scale, run_pass)
            else:
                result = measure(
                    name, args.seed, args.seconds, args.reps, args.scale,
                    run_pass,
                )
        except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as error:
            print(f"run.py: {name}: {error}", file=sys.stderr)
            return 3
        _print_result(result)
        results.append(result)
    if args.out:
        environment = {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
        }
        with open(args.out, "w") as handle:
            json.dump(
                {"environment": environment, "results": results}, handle, indent=1
            )

    correct = all(all(r["checks"].values()) for r in results)
    summary = {
        "correct": correct,
        "attempted": sum(r["requests"]["submitted"] for r in results),
        "failed": sum(
            r["requests"][k] for r in results
            for k in ("rejected", "dropped", "lost")
        ),
    }
    if args.workload:
        summary["metrics"] = results[0]["metrics"]
    else:
        summary["workloads"] = {r["workload"]: r["metrics"] for r in results}
    print(json.dumps(summary))
    return 0 if correct else 1
