"""Regenerate the serving goldens in this directory.

Run from the repo root::

    PYTHONPATH=src python tests/goldens/capture.py             # all goldens
    PYTHONPATH=src python tests/goldens/capture.py --filter fleet

The goldens pin the exact observable behaviour of the serving loop —
per-problem results, round-level traces, and FIFO fleet records — so that
refactors of the solve loop (e.g. the SolveSession state machine, the
DevicePool fleet redesign) can assert byte-identity against the original
monolithic implementation. ``--filter`` regenerates one family (``solve``
or ``fleet``) instead of both — handy when one legitimately changed and
the other must provably not. That every serving axis *spelled at its
default* reproduces the fleet golden is a tier-1 test,
``tests/core/test_scheduler.py::TestFifoGoldens``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.core.config import baseline_config, fasttts_config
from repro.core.fleet import TTSFleet
from repro.core.server import TTSServer
from repro.search.registry import ALGORITHMS, build_algorithm
from repro.utils.rng import KeyedRng
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.datasets import build_dataset

HERE = Path(__file__).parent

SOLVE_N = 8
SOLVE_SEED = 3
FLEET_SEED = 0


def capture_solves() -> dict:
    dataset = build_dataset("amc23", seed=SOLVE_SEED, size=2)
    problem = list(dataset)[0]
    cells = {}
    for system, factory in (("baseline", baseline_config), ("fasttts", fasttts_config)):
        for algorithm_name in ALGORITHMS.names():
            server = TTSServer(factory(memory_fraction=0.4, seed=SOLVE_SEED), dataset)
            outcome = server.solve_detailed(
                problem, build_algorithm(algorithm_name, SOLVE_N), trace=True
            )
            cells[f"{system}/{algorithm_name}"] = {
                "result": outcome.result.to_json_dict(),
                "trace": outcome.trace.to_jsonl(),
            }
    # Arrival preemption: a request lands mid-solve and halts speculation.
    for label, arrivals in (
        ("fasttts/beam_search/preempt-mid", (5.0,)),
        ("fasttts/beam_search/preempt-immediate", (-1.0, 4.0)),
    ):
        server = TTSServer(fasttts_config(memory_fraction=0.4, seed=SOLVE_SEED), dataset)
        session = server.session(
            problem, build_algorithm("beam_search", SOLVE_N), trace=True
        )
        session.preempt_at = min(arrivals)
        outcome = session.run()
        cells[label] = {
            "result": outcome.result.to_json_dict(),
            "trace": outcome.trace.to_jsonl(),
        }
    return cells


def _record_dict(record) -> dict:
    return {
        "request_id": record.request_id,
        "arrival_s": record.arrival_s,
        "start_s": record.start_s,
        "finish_s": record.finish_s,
        "accepted": record.accepted,
        "reject_reason": record.reject_reason,
        "latency": record.latency.to_json_dict() if record.latency else None,
    }


def capture_fleet() -> dict:
    runs = {}
    for label, rate, max_in_flight in (
        ("open-slow", 0.005, None),
        ("open-busy", 0.05, None),
        ("capped-saturated", 1.0, 2),
    ):
        dataset = build_dataset("amc23", seed=FLEET_SEED, size=5)
        config = baseline_config(memory_fraction=0.4, seed=FLEET_SEED)
        fleet = TTSFleet(config, dataset, max_in_flight=max_in_flight)
        arrivals = PoissonProcess(rate_rps=rate).times(KeyedRng(FLEET_SEED), 5)
        for problem, arrival in zip(dataset, arrivals):
            fleet.submit(
                problem, build_algorithm("beam_search", 4), arrival_s=arrival
            )
        report = fleet.drain()
        runs[label] = {
            "records": [_record_dict(r) for r in report.records],
            "results": {
                rid: res.to_json_dict() for rid, res in sorted(report.results.items())
            },
        }
    return runs


# golden family name -> (output file, capture function)
GOLDENS = {
    "solve": ("solve_goldens.json", capture_solves),
    "fleet": ("fleet_fifo_goldens.json", capture_fleet),
}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--filter",
        action="append",
        choices=sorted(GOLDENS),
        default=None,
        metavar="NAME",
        help="golden family to regenerate (repeatable; "
             f"one of: {', '.join(sorted(GOLDENS))}; default: all)",
    )
    args = parser.parse_args(argv)
    selected = args.filter or sorted(GOLDENS)
    for name in selected:
        filename, capture = GOLDENS[name]
        (HERE / filename).write_text(
            json.dumps(capture(), indent=1, sort_keys=True) + "\n"
        )
        print(f"{name}: wrote {HERE / filename}")


if __name__ == "__main__":
    main()
