"""Per-figure experiment definitions.

One function per table/figure in the paper's evaluation. Each returns a
plain-data dict (series and rows) and, where useful, a rendered ASCII
table, so the benchmark harness can both print the paper's rows and assert
the paper's qualitative shape. Scale parameters default to bench-friendly
sizes; pass larger ones to approach the paper's full sweep.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.allocator import RooflineAllocator, WorkloadProfile
from repro.core.prefix_sched import (
    eviction_cost,
    greedy_order,
    lineage_order,
    random_order,
    worst_case_order,
)
from repro.engine.telemetry import Phase
from repro.experiments.reference import pure_search
from repro.experiments.runner import (
    ExperimentSpec,
    PairResult,
    run_metrics,
    run_pair,
    run_problem,
    sweep_n,
)
from repro.hardware.device import get_device
from repro.hardware.offload import OffloadLink
from repro.hardware.roofline import Roofline
from repro.kvcache.radix import RadixTree
from repro.metrics.report import RunMetrics
from repro.metrics.utilization import decay_ratio, mean_phase_utilization
from repro.models.costs import decode_step_cost, prefill_cost
from repro.models.zoo import get_model, model_pair
from repro.search.registry import build_algorithm
from repro.search.tree import prompt_segment_id, step_segment_id
from repro.utils.rng import KeyedRng
from repro.utils.tables import render_table
from repro.workloads.datasets import build_dataset

__all__ = [
    "fig1b_frontier",
    "fig3_tts_methods",
    "fig3_step_lengths",
    "fig4_phase_utilization",
    "fig5_prefix_sharing",
    "fig6_kv_throughput",
    "fig10_allocation_sweep",
    "fig11_search_variants",
    "fig12_goodput_grid",
    "fig13_latency_grid",
    "fig14_accuracy",
    "fig15_generality",
    "fig16_ablation",
    "fig17_speculation",
    "fig18_prefix_memory",
    "CLOUD_REFERENCES",
]

# Fig. 1b reference points, as reported by the paper (cloud latency is the
# first-answer latency of GPT-o3-pro / GPT-5 thinking models; accuracy is
# GPT-o1-preview on AIME). These are plot constants, not measurements.
CLOUD_REFERENCES = {
    "cloud_accuracy": 0.447,
    "cloud_latency_s": 110.0,
    "baseline_vllm_latency_s": 200.0,
}


def fig1b_frontier(n_values=(16, 64), problems: int = 2, seed: int = 0) -> dict:
    """Latency-vs-accuracy frontier: FastTTS pushes the baseline's curve."""
    spec = ExperimentSpec(
        dataset_name="aime24", dataset_size=problems, model_config="1.5B+1.5B", seed=seed
    )
    pairs = sweep_n(spec, list(n_values))
    rows = []
    for pair in pairs:
        rows.append(
            [
                pair.spec.n,
                round(pair.baseline.latency.total, 1),
                round(pair.fasttts.latency.total, 1),
                round(pair.baseline.top1_accuracy, 3),
                round(pair.fasttts.top1_accuracy, 3),
            ]
        )
    table = render_table(
        ["n", "baseline latency s", "fasttts latency s", "baseline acc", "fasttts acc"],
        rows,
        title="Fig 1b: latency/accuracy frontier (AIME, 1.5B+1.5B)",
    )
    return {"pairs": pairs, "rows": rows, "table": table, "cloud": CLOUD_REFERENCES}


def fig3_tts_methods(n: int = 16, problems: int = 4, seed: int = 0) -> dict:
    """Accuracy vs latency of BoN / Beam Search / DVTS on MATH-500."""
    results: dict[str, RunMetrics] = {}
    spec = ExperimentSpec(
        dataset_name="math500", dataset_size=problems, model_config="1.5B+1.5B",
        n=n, seed=seed,
    )
    dataset = spec.build_dataset()
    for algorithm in ("best_of_n", "beam_search", "dvts"):
        algo_spec = replace(spec, algorithm=algorithm)
        metrics, _ = run_metrics(algo_spec, algo_spec.build_config(fast=False), dataset)
        results[algorithm] = metrics
    rows = [
        [name, round(m.latency.total, 1), round(m.top1_accuracy, 3)]
        for name, m in results.items()
    ]
    table = render_table(
        ["method", "latency s", "top1 acc"],
        rows,
        title="Fig 3 (left): TTS methods on MATH-500 (baseline serving)",
    )
    return {"metrics": results, "rows": rows, "table": table}


def fig3_step_lengths(
    n_paths: int = 64, max_steps: int = 10, seed: int = 0
) -> dict:
    """Avg and max token count per generation step on AIME (Fig. 3 right)."""
    dataset = build_dataset("aime24", seed=seed, size=4)
    from repro.llm.generator import SimulatedGenerator

    generator = SimulatedGenerator(get_model("qwen2.5-math-1.5b"), dataset, KeyedRng(seed))
    per_step_avg, per_step_max = [], []
    for step_idx in range(max_steps):
        lengths = [
            generator.step_tokens(problem, (i,) * (step_idx + 1), step_idx)
            for problem in dataset
            for i in range(n_paths // len(dataset))
        ]
        per_step_avg.append(float(np.mean(lengths)))
        per_step_max.append(float(np.max(lengths)))
    rows = [
        [s + 1, round(a, 1), m]
        for s, (a, m) in enumerate(zip(per_step_avg, per_step_max))
    ]
    table = render_table(
        ["step", "avg tokens", "max tokens"],
        rows,
        title="Fig 3 (right): token count per generation step (AIME, 1.5B)",
    )
    return {"avg": per_step_avg, "max": per_step_max, "rows": rows, "table": table}


def fig4_phase_utilization(n: int = 32, seed: int = 0) -> dict:
    """GPU occupancy: decaying during generation, flat-high in verification."""
    spec = ExperimentSpec(dataset_name="aime24", dataset_size=1, n=n, seed=seed)
    result = run_problem(spec, spec.build_config(fast=False))
    gen_util = mean_phase_utilization(result.util_spans, Phase.GENERATION)
    ver_util = mean_phase_utilization(result.util_spans, Phase.VERIFICATION)
    gen_decay = decay_ratio(result.util_spans, Phase.GENERATION)
    table = render_table(
        ["phase", "mean occupancy", "end/start occupancy"],
        [
            ["generation", round(gen_util, 3), round(gen_decay, 3)],
            ["verification", round(ver_util, 3), 1.0],
        ],
        title="Fig 4: batch occupancy by phase (baseline, beam search)",
    )
    return {
        "generation_util": gen_util,
        "verification_util": ver_util,
        "generation_decay": gen_decay,
        "spans": result.util_spans,
        "table": table,
    }


def _tree_from_trace(problem, trace, round_idx: int) -> tuple[RadixTree, list[int]]:
    """Radix tree + active leaf segments at one round of a reference trace."""
    tree = RadixTree()
    root = prompt_segment_id(problem)
    tree.add_node(root, None, problem.prompt_tokens)
    leaves = []
    for lineage in trace.rounds[round_idx]:
        parent = root
        for i in range(len(lineage)):
            seg = step_segment_id(problem, lineage, i)
            if seg not in tree:
                tree.add_node(seg, parent, 1)
            parent = seg
        leaves.append(parent)
    return tree, leaves


def fig5_prefix_sharing(n: int = 64, seed: int = 0) -> dict:
    """Beams-in-memory with and without prefix caching, per iteration."""
    dataset = build_dataset("aime24", seed=seed, size=1)
    problem = list(dataset)[0]
    series = {}
    for name in ("beam_search", "dvts"):
        trace = pure_search(problem, dataset, build_algorithm(name, n), seed=seed)
        shared, private = [], []
        for r, lineages in enumerate(trace.rounds):
            unique_nodes = {
                (lineage[: i + 1], i) for lineage in lineages for i in range(len(lineage))
            }
            shared.append(len(unique_nodes))
            private.append(sum(len(lineage) for lineage in lineages))
        series[name] = {"with_cache": shared, "without_cache": private}
    rows = []
    beam = series["beam_search"]
    for r in range(len(beam["with_cache"])):
        rows.append([r + 1, beam["with_cache"][r], beam["without_cache"][r]])
    table = render_table(
        ["iteration", "beams in memory (cached)", "beams in memory (no cache)"],
        rows,
        title="Fig 5 (left): prefix-cache sharing (beam search)",
    )
    return {"series": series, "rows": rows, "table": table}


def fig6_kv_throughput(seed: int = 0) -> dict:
    """Normalized throughput vs KV size: prefill saturates far earlier."""
    model = get_model("qwen2.5-math-1.5b")
    roofline = Roofline(get_device("rtx4090"))
    kv_sizes_gb = np.logspace(-2, np.log10(16), 24)
    prefill_seq, decode_seq = 640, 512
    prefill_tp, decode_tp = [], []
    for kv_gb in kv_sizes_gb:
        kv_bytes = int(kv_gb * 1024**3)
        b_pre = max(1, kv_bytes // (prefill_seq * model.kv_bytes_per_token))
        cost = prefill_cost(model, b_pre, prefill_seq)
        prefill_tp.append(b_pre * prefill_seq / roofline.latency(cost.flops, cost.bytes))
        b_dec = max(1, kv_bytes // (decode_seq * model.kv_bytes_per_token))
        cost = decode_step_cost(model, b_dec, decode_seq / 2)
        decode_tp.append(b_dec / roofline.latency(cost.flops, cost.bytes))
    prefill_norm = np.asarray(prefill_tp) / max(prefill_tp)
    decode_norm = np.asarray(decode_tp) / max(decode_tp)

    def crossing(norm):
        idx = int(np.argmax(norm >= 0.8))
        return float(kv_sizes_gb[idx])

    table = render_table(
        ["stage", "KV GB to reach 80% of peak"],
        [["prefill", round(crossing(prefill_norm), 2)],
         ["decoding", round(crossing(decode_norm), 2)]],
        title="Fig 6: throughput saturation vs KV cache size",
    )
    return {
        "kv_gb": kv_sizes_gb.tolist(),
        "prefill_norm": prefill_norm.tolist(),
        "decode_norm": decode_norm.tolist(),
        "prefill_80_gb": crossing(prefill_norm),
        "decode_80_gb": crossing(decode_norm),
        "table": table,
    }


def fig10_allocation_sweep(n: int = 128, seed: int = 0) -> dict:
    """Optimal prefill/decode batch sizes across KV budgets (Fig. 10)."""
    dataset = build_dataset("aime24", seed=seed, size=1)
    generator, verifier = model_pair("1.5B+1.5B")
    device = get_device("rtx4090")
    allocator = RooflineAllocator(verifier, generator, Roofline(device), OffloadLink(device))
    profile = WorkloadProfile.from_dataset(dataset, n)
    floor_gb = (
        profile.max_path_tokens
        * (generator.kv_bytes_per_token + verifier.kv_bytes_per_token)
        / 1024**3
    )
    budgets_gb = [g for g in (1.0, 2.0, 4.0, 8.0, 16.0) if g > floor_gb]
    rows, plans = [], []
    for budget_gb in budgets_gb:
        plan = allocator.search(profile, int(budget_gb * 1024**3))
        plans.append(plan)
        rows.append(
            [budget_gb, plan.b_pre, plan.b_dec, round(1.0 / plan.est_total_time, 3)]
        )
    best_tp = max(row[3] for row in rows)
    for row in rows:
        row[3] = round(row[3] / best_tp, 3)
    table = render_table(
        ["KV budget GB", "B_pre", "B_dec", "normalized throughput"],
        rows,
        title="Fig 10: roofline-guided KV allocation",
    )
    return {"plans": plans, "rows": rows, "table": table}


def fig11_search_variants(
    n_values=(8, 32), problems: int = 2, seed: int = 0
) -> dict:
    """Goodput across search-algorithm variants, baseline vs FastTTS."""
    variants = ("beam_search", "dvts", "dynamic_branching", "varying_granularity")
    results: dict[str, list[PairResult]] = {}
    for variant in variants:
        spec = ExperimentSpec(
            dataset_name="aime24", dataset_size=problems,
            model_config="1.5B+1.5B", algorithm=variant, seed=seed,
        )
        results[variant] = sweep_n(spec, list(n_values))
    rows = [
        [variant, pair.spec.n, round(pair.baseline.goodput, 2),
         round(pair.fasttts.goodput, 2), round(pair.goodput_gain, 2)]
        for variant, pairs in results.items()
        for pair in pairs
    ]
    table = render_table(
        ["variant", "n", "baseline tok/s", "fasttts tok/s", "gain x"],
        rows,
        title="Fig 11: goodput across search variants (AIME, 1.5B+1.5B)",
    )
    return {"results": results, "rows": rows, "table": table}


def _main_grid(
    n_values, problems, seed, datasets=("aime24", "amc23"),
    configs=("1.5B+1.5B", "1.5B+7B", "7B+1.5B"),
) -> list[PairResult]:
    pairs = []
    for dataset_name in datasets:
        for model_config in configs:
            spec = ExperimentSpec(
                dataset_name=dataset_name, dataset_size=problems,
                model_config=model_config, seed=seed,
            )
            pairs.extend(sweep_n(spec, list(n_values)))
    return pairs


def fig12_goodput_grid(n_values=(8, 64), problems: int = 2, seed: int = 0) -> dict:
    """The main result: goodput across configs x datasets x n (Fig. 12)."""
    pairs = _main_grid(n_values, problems, seed)
    rows = [pair.summary_row() for pair in pairs]
    gains = [pair.goodput_gain for pair in pairs]
    table = render_table(
        ["config", "dataset", "algorithm", "n", "baseline tok/s",
         "fasttts tok/s", "gain x", "latency -%"],
        rows,
        title="Fig 12: FastTTS goodput improvement",
    )
    return {
        "pairs": pairs,
        "rows": rows,
        "table": table,
        "mean_gain": float(np.mean(gains)),
        "max_gain": float(np.max(gains)),
    }


def fig13_latency_grid(n_values=(8, 64), problems: int = 2, seed: int = 0) -> dict:
    """Completion latency and its generator/verifier breakdown (Fig. 13)."""
    pairs = _main_grid(n_values, problems, seed)
    rows = []
    for pair in pairs:
        rows.append(
            [
                pair.spec.model_config,
                pair.spec.dataset_name,
                pair.spec.n,
                round(pair.baseline.latency.total, 1),
                round(pair.fasttts.latency.total, 1),
                round(pair.latency_reduction * 100, 1),
                round(pair.generator_latency_reduction * 100, 1),
                round(pair.verifier_latency_reduction * 100, 1),
            ]
        )
    table = render_table(
        ["config", "dataset", "n", "baseline s", "fasttts s",
         "latency -%", "gen -%", "verifier -%"],
        rows,
        title="Fig 13: completion latency improvement",
    )
    reductions = [pair.latency_reduction for pair in pairs]
    return {
        "pairs": pairs,
        "rows": rows,
        "table": table,
        "mean_latency_reduction": float(np.mean(reductions)),
    }


def fig14_accuracy(n: int = 64, problems: int = 4, seed: int = 0) -> dict:
    """Top-1 and Pass@N: FastTTS matches the baseline (Sec. 6.3)."""
    rows_top1, rows_pass = [], []
    pass_points = (1, 4, 16, 64)
    outcomes = {}
    for model_config in ("1.5B+7B", "7B+1.5B", "1.5B+1.5B"):
        for dataset_name in ("aime24", "amc23"):
            spec = ExperimentSpec(
                dataset_name=dataset_name, dataset_size=problems,
                model_config=model_config, n=n, seed=seed,
            )
            pair = run_pair(spec)
            outcomes[(model_config, dataset_name)] = pair
            rows_top1.append(
                [model_config, dataset_name,
                 round(pair.baseline.top1_accuracy, 3),
                 round(pair.fasttts.top1_accuracy, 3)]
            )
            for k in pass_points:
                if k <= n:
                    rows_pass.append(
                        [model_config, dataset_name, k,
                         round(pair.baseline.pass_at.get(k, 0.0), 3),
                         round(pair.fasttts.pass_at.get(k, 0.0), 3)]
                    )
    table = render_table(
        ["config", "dataset", "baseline top1", "fasttts top1"],
        rows_top1,
        title=f"Fig 14a: Top-1 accuracy (n={n})",
    )
    table_pass = render_table(
        ["config", "dataset", "N", "baseline pass@N", "fasttts pass@N"],
        rows_pass,
        title="Fig 14b: Pass@N accuracy",
    )
    return {
        "outcomes": outcomes,
        "rows_top1": rows_top1,
        "rows_pass": rows_pass,
        "table": table,
        "table_pass": table_pass,
    }


def fig15_generality(n_values=(8, 32), problems: int = 2, seed: int = 0) -> dict:
    """Constrained GPUs (3070 Ti with offloading, 4070 Ti) plus HumanEval."""
    scenarios = [
        ("rtx3070ti", "aime24", "1.5B+1.5B", 0.95),
        ("rtx4070ti", "aime24", "1.5B+1.5B", 0.90),
        ("rtx4090", "humaneval", "1.5B+1.5B", 0.40),
    ]
    rows, pairs_by_scenario = [], {}
    for device, dataset_name, model_config, fraction in scenarios:
        spec = ExperimentSpec(
            dataset_name=dataset_name, dataset_size=problems,
            model_config=model_config, device_name=device,
            memory_fraction=fraction, seed=seed,
        )
        pairs = sweep_n(spec, list(n_values))
        pairs_by_scenario[(device, dataset_name)] = pairs
        for pair in pairs:
            rows.append(
                [device, dataset_name, pair.spec.n,
                 round(pair.baseline.goodput, 2), round(pair.fasttts.goodput, 2),
                 round(pair.goodput_gain, 2)]
            )
    table = render_table(
        ["device", "dataset", "n", "baseline tok/s", "fasttts tok/s", "gain x"],
        rows,
        title="Fig 15: generality across hardware and benchmarks",
    )
    return {"pairs": pairs_by_scenario, "rows": rows, "table": table}


def fig16_ablation(n: int = 32, problems: int = 2, seed: int = 0) -> dict:
    """Cumulative goodput gain of P, M+P, S+M+P over the baseline."""
    stages = {
        "P": dict(prefix_caching=True, prefix_aware=True),
        "M+P": dict(prefix_caching=True, prefix_aware=True, asymmetric_alloc=True),
        "S+M+P": dict(
            prefix_caching=True, prefix_aware=True, asymmetric_alloc=True,
            speculation=True, lookahead=True,
        ),
    }
    results = {}
    rows = []
    for model_config in ("1.5B+1.5B", "1.5B+7B", "7B+1.5B"):
        spec = ExperimentSpec(
            dataset_name="aime24", dataset_size=problems,
            model_config=model_config, n=n, seed=seed,
        )
        dataset = spec.build_dataset()
        base_metrics, _ = run_metrics(spec, spec.build_config(fast=False), dataset)
        gains = {}
        for stage_name, flags in stages.items():
            config = spec.build_config(fast=False, **flags)
            metrics, _ = run_metrics(spec, config, dataset)
            gains[stage_name] = metrics.goodput / base_metrics.goodput - 1.0
        results[model_config] = gains
        rows.append(
            [model_config]
            + [round(gains[s] * 100, 1) for s in ("P", "M+P", "S+M+P")]
        )
    table = render_table(
        ["config", "P gain %", "M+P gain %", "S+M+P gain %"],
        rows,
        title=f"Fig 16: cumulative goodput gain breakdown (AIME, n={n})",
    )
    return {"results": results, "rows": rows, "table": table}


def fig17_speculation(
    n: int = 32, problems: int = 2, seed: int = 0, ratios=(0.0, 0.85)
) -> dict:
    """Speculative Beam Extension: occupancy traces + truncation-ratio sweep."""
    spec = ExperimentSpec(
        dataset_name="aime24", dataset_size=1, model_config="1.5B+1.5B",
        n=n, seed=seed,
    )
    dataset = spec.build_dataset()
    base_result = run_problem(spec, spec.build_config(fast=False), dataset=dataset)
    fast_result = run_problem(spec, spec.build_config(fast=True), dataset=dataset)
    base_util = mean_phase_utilization(base_result.util_spans, Phase.GENERATION)
    fast_util = mean_phase_utilization(fast_result.util_spans, Phase.GENERATION)

    sweep_rows = []
    goodputs = {}
    for dataset_name in ("aime24", "amc23"):
        for ratio in ratios:
            r_spec = ExperimentSpec(
                dataset_name=dataset_name, dataset_size=problems,
                model_config="1.5B+1.5B", n=n, seed=seed,
            )
            metrics, _ = run_metrics(
                r_spec,
                r_spec.build_config(fast=True, spec_truncation_ratio=ratio),
            )
            goodputs[(dataset_name, ratio)] = metrics.goodput
            sweep_rows.append([dataset_name, ratio, round(metrics.goodput, 2)])
    table = render_table(
        ["dataset", "R", "goodput tok/s"],
        sweep_rows,
        title="Fig 17 (right): impact of the truncation ratio R",
    )
    return {
        "baseline_generation_util": base_util,
        "fasttts_generation_util": fast_util,
        "goodputs": goodputs,
        "rows": sweep_rows,
        "table": table,
    }


def fig18_prefix_memory(n: int = 64, seed: int = 0, capacities=(16, 32, 64)) -> dict:
    """Scheduling-order effect on eviction + memory-dependence of P / M+P."""
    dataset = build_dataset("aime24", seed=seed, size=1)
    problem = list(dataset)[0]
    trace = pure_search(problem, dataset, build_algorithm("beam_search", n), seed=seed)
    final_round = len(trace.rounds) - 1
    tree, leaves = _tree_from_trace(problem, trace, final_round)
    items = list(leaves)
    rng = KeyedRng(seed)

    orders = {
        "prefix_aware": greedy_order(items, tree, lambda x: x),
        "lineage_grouped": lineage_order(items, lambda leaf: tuple(tree.path(leaf))),
        "random": random_order(items, rng),
        "worst_case": worst_case_order(items, tree, lambda x: x),
    }
    rows = []
    costs: dict[str, dict[int, int]] = {}
    for name, order in orders.items():
        costs[name] = {
            cap: eviction_cost(order, tree, lambda x: x, cap) for cap in capacities
        }
        rows.append([name] + [costs[name][cap] for cap in capacities])
    table = render_table(
        ["order"] + [f"evictions @cap={c}" for c in capacities],
        rows,
        title="Fig 18 (left): eviction cost by scheduling order",
    )

    gain_rows = []
    device = get_device("rtx4090")
    weights = 2 * 1_540_000_000 * 2  # both 1.5B models at fp16
    for kv_gb, label in ((1.2, "scarce"), (14.0, "ample")):
        fraction = min(1.0, (weights + kv_gb * 1024**3) / device.usable_bytes)
        spec = ExperimentSpec(
            dataset_name="aime24", dataset_size=1, model_config="1.5B+1.5B",
            n=128, seed=seed, memory_fraction=fraction,
        )
        ds = spec.build_dataset()
        # Baseline here has caching but naive (shuffled) scheduling —
        # isolating the *ordering* gain, as the paper's Fig. 18 does.
        base, _ = run_metrics(
            spec, spec.build_config(fast=False, prefix_caching=True), ds
        )
        p_only, _ = run_metrics(
            spec,
            spec.build_config(fast=False, prefix_caching=True, prefix_aware=True),
            ds,
        )
        mp, _ = run_metrics(
            spec,
            spec.build_config(
                fast=False, prefix_caching=True, prefix_aware=True,
                asymmetric_alloc=True,
            ),
            ds,
        )
        gain_rows.append(
            [label, round((p_only.goodput / base.goodput - 1) * 100, 1),
             round((mp.goodput / base.goodput - 1) * 100, 1)]
        )
    gain_table = render_table(
        ["memory", "P gain %", "M+P gain %"],
        gain_rows,
        title="Fig 18 (right): optimization gains vs memory availability",
    )
    return {
        "costs": costs,
        "rows": rows,
        "table": table,
        "gain_rows": gain_rows,
        "gain_table": gain_table,
    }
