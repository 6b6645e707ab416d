"""Simulated-side numbers read off a drained :class:`FleetReport`.

Everything here is a pure function of the report, so it repeats exactly
for a fixed ``(workload, seed, scale)`` — the *sim* half of the
benchmark. ``records_digest`` pins the whole record tuple; the named
metrics are the parts of it a user of the modelled edge device would
see. No real-hardware reference exists in this repository, so these
numbers are **unvalidated** model output and carry no error figure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

__all__ = [
    "TAIL_PERCENTILE", "records_digest", "tally", "merge", "summarise",
    "layer_counters",
]

#: The tail every ``*_p90_*`` metric reports. A run pools three
#: sub-traces; the two beam-search workloads then hold ~100 completions,
#: so p90 has ~10 samples beyond it (p95 would have five, and at twice
#: the requests its seed-to-seed spread already measured twice as wide).
#: Sample counts are printed.
TAIL_PERCENTILE = 90.0


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule).

    Own copy of ``repro.utils.stats.percentile`` so the process that pools
    the workers' tallies never imports the package under test.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def records_digest(report) -> str:
    """SHA-256 of the canonical JSON of ``report.records``."""
    payload = [dataclasses.asdict(record) for record in report.records]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _slo_met(record) -> bool:
    """Completed inside its deadline *and* TTFT target (unset targets pass)."""
    return (
        record.accepted
        and record.deadline_met is not False
        and record.ttft_slo_met is not False
    )


def tally(report) -> dict:
    """One drain's request accounting as sums and raw latency samples.

    Kept additive so the harness can pool several sub-traces of one run
    (:func:`merge`) before any ratio or percentile is taken. Goodput
    under deadline follows :class:`~repro.metrics.fleet.SLOSummary`:
    correct completions that did not miss their deadline, per second of
    makespan (the smoke test pins the two against each other).
    """
    records = report.records
    done = [r for r in records if r.accepted]
    correct = {
        rid: res.top1_correct for rid, res in report.results.items()
    }
    results = [
        report.results[r.request_id] for r in done
        if r.request_id in report.results
    ]
    tpots = [r.tpot_s for r in done if r.tpot_s is not None]
    return {
        "submitted": len(records),
        "completed": len(done),
        "rejected": sum(
            not (r.accepted or r.dropped or r.lost) for r in records
        ),
        "dropped": sum(r.dropped for r in records),
        "lost": sum(r.lost for r in records),
        "request_ids": len({r.request_id for r in records}),
        "slo_met": sum(map(_slo_met, records)),
        "ttft_judged": sum(r.ttft_slo_met is not None for r in records),
        "ttft_met": sum(r.ttft_slo_met is True for r in records),
        "correct": sum(correct.get(r.request_id, False) for r in done),
        "in_deadline_correct": sum(
            1 for r in done
            if r.deadline_met is not False and correct.get(r.request_id, False)
        ),
        "makespan_s": max((r.finish_s for r in done), default=0.0),
        "token_goodput_sum": sum(res.goodput for res in results),
        "token_goodput_n": len(results),
        "tpot_sum_s": sum(tpots),
        "tpot_n": len(tpots),
        "device_s": sum(r.device_seconds for r in done),
        "sojourn_s": [r.sojourn_s for r in done],
        "ttft_s": [r.ttft_s for r in done if r.ttft_s is not None],
    }


def merge(tallies: list[dict]) -> dict:
    """Pool tallies: counts and sums add, sample lists concatenate."""
    merged: dict = {}
    for one in tallies:
        for key, value in one.items():
            merged[key] = merged[key] + value if key in merged else value
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarise(t: dict) -> dict:
    """The simulated end-to-end metrics of a (pooled) tally."""
    failed = t["rejected"] + t["dropped"] + t["lost"]
    return {
        "sim_goodput_rps": _ratio(t["in_deadline_correct"], t["makespan_s"]),
        "sim_token_goodput_tps": _ratio(
            t["token_goodput_sum"], t["token_goodput_n"]
        ),
        "sim_slo_attainment": _ratio(t["slo_met"], t["submitted"]),
        "sim_ttft_attainment": _ratio(t["ttft_met"], t["ttft_judged"]),
        "sim_latency_p50_s": percentile(t["sojourn_s"], 50.0),
        "sim_latency_p90_s": percentile(t["sojourn_s"], TAIL_PERCENTILE),
        "sim_ttft_p50_s": percentile(t["ttft_s"], 50.0),
        "sim_ttft_p90_s": percentile(t["ttft_s"], TAIL_PERCENTILE),
        "sim_tpot_ms": 1000.0 * _ratio(t["tpot_sum_s"], t["tpot_n"]),
        "sim_accuracy": _ratio(t["correct"], t["submitted"]),
        "sim_device_s_per_request": _ratio(t["device_s"], t["completed"]),
        "served_share": _ratio(t["completed"], t["submitted"]),
        "failed_share": _ratio(failed, t["submitted"]),
    }


def layer_counters(report, metrics) -> dict:
    """Per-layer simulated counters available without any tracing."""
    results = list(report.results.values())
    used = sum(r.tokens.speculative_used for r in results)
    wasted = sum(r.tokens.speculative_wasted for r in results)
    total_s = sum(r.latency.total for r in results)
    devices = report.devices
    return {
        "core.scheduler.queue_wait_p95_s": metrics.queue_delay_p95_s,
        "core.pool.affinity_hit_ratio": metrics.affinity_hit_ratio,
        "core.pool.migrations": sum(d.migrations_in for d in devices),
        "core.pool.migration_bytes_saved": metrics.kv_migration_bytes_saved,
        "core.batcher.occupancy_mean": metrics.batch_occupancy_mean,
        "core.batcher.occupancy_peak": metrics.batch_occupancy_peak,
        "core.session.spec_efficiency": (
            used / (used + wasted) if used + wasted else 0.0
        ),
        "core.session.verifier_time_share": (
            sum(r.latency.verification for r in results) / total_s
            if total_s > 0 else 0.0
        ),
        "kvcache.gen_hit_rate": (
            sum(r.gen_cache_hit_rate for r in results) / len(results)
            if results else 0.0
        ),
        "kvcache.ver_hit_rate": (
            sum(r.ver_cache_hit_rate for r in results) / len(results)
            if results else 0.0
        ),
        "kvcache.evicted_segments": sum(
            r.gen_evicted_segments + r.ver_evicted_segments for r in results
        ),
        "hardware.memory.swap_s": metrics.kv_swap_s,
        "hardware.memory.dedup_ratio": metrics.kv_dedup_ratio,
        "hardware.memory.denied": sum(
            1 for r in report.records
            if not r.accepted and (r.reject_reason or "").startswith("KV budget")
        ),
        "faults.injector.availability": metrics.availability,
        "faults.injector.redone_work_s": metrics.redone_work_s,
        "faults.injector.failed_over": metrics.failed_over,
        "faults.injector.mttr_s": metrics.mttr_s or 0.0,
    }
