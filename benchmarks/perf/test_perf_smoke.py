"""Smoke test of the perf benchmark harness (collected by the tier-1 run).

Everything runs in-process at ``--scale 0.04`` — a handful of requests
per workload — so it checks the harness's plumbing, not performance:
output shape, determinism, the seed's effect, agreement with
``run_trace``, and that the span pass leaves the traced classes exactly
as it found them (later tests in the same pytest process must see
unpatched code).
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fleetperf import REPO_ROOT, simmetrics  # noqa: E402
from fleetperf.catalogue import END_TO_END, NAME_PATTERN, PER_LAYER  # noqa: E402
from fleetperf.cli import main, sub_seed  # noqa: E402
from fleetperf.specs import WORKLOADS, get_workload, workload_names  # noqa: E402
from fleetperf.tracing import ENTRY_POINTS, Tracer  # noqa: E402
from fleetperf.worker import SCHEDULE_SEED, build_trace, run_once  # noqa: E402

SCALE = 0.04


def _run(capsys, *argv) -> dict:
    """Run the CLI in-process; return its last stdout line, parsed."""
    status = main([*argv, "--scale", str(SCALE), "--in-process"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert status == 0 and result["correct"] is True, lines
    return result


def _assert_metrics(result: dict, declared: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert re.match(NAME_PATTERN, name)
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == declared[name][0]
        assert math.isfinite(entry["value"])


@pytest.mark.parametrize("workload", workload_names())
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    # One timed repetition plus the count pass on the same sub-trace: the
    # run's own checks assert both passes produced identical simulated
    # metrics and digest, so ``correct`` covers repeatability.
    result = _run(capsys, "--workload", workload, "--reps", "1", "--trace", "0")
    _assert_metrics(result, END_TO_END)
    assert result["metrics"]["served_share"]["value"] == 1.0


def test_traced_run_reports_every_per_layer_metric(capsys):
    result = _run(capsys, "--workload", "pool_faults", "--trace", "1")
    _assert_metrics(result, PER_LAYER)
    spans = REPO_ROOT / "benchmarks/perf/out/spans-pool_faults.jsonl"
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    ids = {row["id"] for row in rows}
    assert rows and all(
        row["end_ns"] >= row["start_ns"]
        and (row["parent"] is None or row["parent"] in ids)
        for row in rows
    )
    assert result["metrics"]["faults.injector.events"]["value"] > 0


@pytest.mark.parametrize("workload", workload_names())
def test_span_pass_restores_every_wrapped_attribute(workload):
    tracer = Tracer()
    tracer.install()
    patched = tracer.targets()
    tracer.uninstall()
    assert len(patched) >= len(ENTRY_POINTS)
    traced = run_once(get_workload(workload), sub_seed(0, 0), SCALE, "span")
    plain = run_once(get_workload(workload), sub_seed(0, 0), SCALE, "timed")
    assert traced["restored"] is True
    assert all(vars(holder)[attr] is raw for holder, attr, raw in patched)
    assert traced["records_digest"] == plain["records_digest"]
    assert traced["spans"] > 0


def test_seed_changes_the_inputs_and_only_the_seed(capsys):
    spec = get_workload("openloop_overload")
    same = [run_once(spec, 3, SCALE)["records_digest"] for _ in range(2)]
    other = run_once(spec, 4, SCALE)["records_digest"]
    assert same[0] == same[1] != other
    # Arrival times are the schedule's for every seed; problems differ.
    base, varied = build_trace(spec, SCHEDULE_SEED, 0.1), build_trace(spec, 4, 0.1)
    assert [r.arrival_s for r in base] == [r.arrival_s for r in varied]
    assert [r.problem_index for r in base] != [r.problem_index for r in varied]


def test_worker_matches_run_trace_and_the_slo_summary():
    from repro.core.config import baseline_config
    from repro.core.fleet import run_trace

    spec = get_workload("pool_faults")
    report = run_trace(
        build_trace(spec, 5, SCALE),
        baseline_config(memory_fraction=0.4, seed=SCHEDULE_SEED),
        faults=spec.fault_spec(SCALE),
        **spec.fleet,
    )
    ours = run_once(spec, 5, SCALE)
    assert ours["records_digest"] == simmetrics.records_digest(report)
    summary = simmetrics.summarise(ours["tally"])
    assert summary["sim_goodput_rps"] == report.slo_summary().goodput_ud_rps
    assert summary["sim_tpot_ms"] == pytest.approx(
        report.metrics.tpot_mean_s * 1000.0
    )


def test_benchmark_json_agrees_with_the_catalogue():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/perf"]
    assert {(w["name"], w["why"]) for w in spec["workloads"]} == {
        (w.name, w.why) for w in WORKLOADS
    }
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    } == {name: entry[:3] for name, entry in END_TO_END.items()}
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == PER_LAYER
