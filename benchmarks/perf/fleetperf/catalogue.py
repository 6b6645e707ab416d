"""The metric catalogue: every name the benchmark prints, with its unit.

``BENCHMARK.json`` at the repository root repeats the names, units,
directions and bounds in the driver's schema; the smoke test checks the
two agree. ``kind`` says how to read a number: *sim* metrics are what
the modelled edge device would do and repeat exactly for a fixed
``--seed`` (any move is a behaviour change); *host* metrics are what the
Python simulator costs and carry this box's noise; *count* metrics are
host-side but deterministic.
"""

from __future__ import annotations

from fleetperf.micro import BENCHMARKS
from fleetperf.tracing import LAYERS

__all__ = ["END_TO_END", "PER_LAYER", "NAME_PATTERN"]

NAME_PATTERN = r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$"

#: name → (unit, better, bound, kind). Bounds come from the measured
#: seed-to-seed spread (README, "Bounds"): at least three times the widest
#: spread seen on any workload, or the contract's cap of 0.25 where that
#: is more than the cap.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, "host"),
    "host_cpu_ms_per_request": ("ms", "lower", 0.25, "host"),
    "host_pycalls_per_request": ("count", "lower", 0.25, "count"),
    "peak_rss_mib": ("MiB", "lower", 0.05, "host"),
    "sim_goodput_rps": ("1/s", "higher", 0.25, "sim"),
    "sim_token_goodput_tps": ("tok/s", "higher", 0.25, "sim"),
    "sim_slo_attainment": ("ratio", "higher", 0.25, "sim"),
    "sim_ttft_attainment": ("ratio", "higher", 0.25, "sim"),
    "sim_latency_p50_s": ("s", "lower", 0.25, "sim"),
    "sim_latency_p90_s": ("s", "lower", 0.25, "sim"),
    "sim_tpot_ms": ("ms", "lower", 0.15, "sim"),
    "sim_accuracy": ("ratio", "higher", 0.25, "sim"),
    "sim_device_s_per_request": ("s", "lower", 0.15, "sim"),
    "served_share": ("ratio", "higher", 0.01, "sim"),
}

_SIM_COUNTERS = {
    "core.scheduler.runnable_mean": ("count", "lower"),
    "core.scheduler.queue_wait_p95_s": ("s", "lower"),
    "core.pool.affinity_hit_ratio": ("ratio", "higher"),
    "core.pool.migrations": ("count", "lower"),
    "core.pool.migration_bytes_saved": ("B", "higher"),
    "core.batcher.occupancy_mean": ("count", "higher"),
    "core.batcher.occupancy_peak": ("count", "higher"),
    "core.session.steps": ("count", "lower"),
    "core.session.spec_efficiency": ("ratio", "higher"),
    "core.session.verifier_time_share": ("ratio", "lower"),
    "kvcache.gen_hit_rate": ("ratio", "higher"),
    "kvcache.ver_hit_rate": ("ratio", "higher"),
    "kvcache.evicted_segments": ("count", "lower"),
    "hardware.memory.evictions": ("count", "lower"),
    "hardware.memory.restores": ("count", "lower"),
    "hardware.memory.swap_s": ("s", "lower"),
    "hardware.memory.dedup_ratio": ("ratio", "higher"),
    "hardware.memory.denied": ("count", "lower"),
    "hardware.roofline.compute_bound_share": ("ratio", "higher"),
    "faults.injector.events": ("count", "lower"),
    "faults.injector.availability": ("ratio", "higher"),
    "faults.injector.redone_work_s": ("s", "lower"),
    "faults.injector.failed_over": ("count", "lower"),
    "faults.injector.mttr_s": ("s", "lower"),
    # Time-to-first-token percentiles sit at the knee between "started
    # at once" and "queued", so they swing 12-56 % between seeds; the
    # bounded end-to-end view of TTFT is ``sim_ttft_attainment``.
    "sim_ttft_p50_s": ("s", "lower"),
    "sim_ttft_p90_s": ("s", "lower"),
    "failed_share": ("ratio", "lower"),
}

#: name → (unit, better). Per-layer metrics carry no bound.
PER_LAYER: dict[str, tuple[str, str]] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.pycalls"] = ("count", "lower")
PER_LAYER["core.fleet.scaling_exponent"] = ("ratio", "lower")
PER_LAYER.update(_SIM_COUNTERS)
PER_LAYER["trace.overhead_ratio"] = ("ratio", "lower")
for _name in BENCHMARKS:
    PER_LAYER[f"micro.{_name}_us"] = ("us", "lower")
    PER_LAYER[f"micro.{_name}_pycalls"] = ("count", "lower")
