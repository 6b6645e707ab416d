#!/usr/bin/env python3
"""Reproduce the paper's evaluation, end to end.

The counterpart of the artifact's ``run_all_experiments.py`` (Appendix B.5):
runs every figure experiment, prints the paper's rows as text tables, and
writes JSONL logs plus tables under ``benchmarks/benchmark_results/``.

Usage::

    python run_all_experiments.py --exp              # run everything
    python run_all_experiments.py --exp --jobs 4     # shard cells over 4 procs
    python run_all_experiments.py --exp --figures fig12 fig13
    python run_all_experiments.py --exp --scale full # paper-scale sweep
    python run_all_experiments.py --list

``--scale bench`` (default) uses small problem counts and n grids so the
whole sweep finishes in minutes on a laptop; ``--scale full`` approaches
the paper's grid (hours).

Every figure runs inside one ``orchestrate(jobs, cache)`` block
(:mod:`repro.experiments.runner`): ``--jobs N`` shards independent cells
over N worker processes, and completed cells are memoized in an on-disk
result cache (:mod:`repro.experiments.cache`; default
``benchmarks/benchmark_results/cache/``; override with ``--cache-dir`` or
``$REPRO_CACHE_DIR``, disable with ``--no-cache``).
Because all randomness is hash-keyed, a ``--jobs 4`` run is byte-identical
to a sequential one, and a second invocation replays entirely from cache.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import figures as F
from repro.experiments.export import DEFAULT_RESULTS_DIR, ResultsWriter, export_figure
from repro.experiments.cache import ResultCache
from repro.experiments.runner import orchestrate

# Each entry: figure id -> (callable, bench kwargs, full kwargs, extra outputs)
EXPERIMENTS: dict[str, dict] = {
    "fig1b": dict(
        fn=F.fig1b_frontier,
        bench=dict(n_values=(8, 32), problems=2),
        full=dict(n_values=(8, 32, 128, 512), problems=10),
    ),
    "fig3_left": dict(
        fn=F.fig3_tts_methods,
        bench=dict(n=16, problems=8),
        full=dict(n=64, problems=60),
    ),
    "fig3_right": dict(
        fn=F.fig3_step_lengths,
        bench=dict(n_paths=64, max_steps=10),
        full=dict(n_paths=256, max_steps=10),
    ),
    "fig4": dict(
        fn=F.fig4_phase_utilization,
        bench=dict(n=32),
        full=dict(n=128),
        rows_key=None,
    ),
    "fig5": dict(
        fn=F.fig5_prefix_sharing,
        bench=dict(n=64),
        full=dict(n=256),
    ),
    "fig6": dict(
        fn=F.fig6_kv_throughput,
        bench=dict(),
        full=dict(),
        rows_key=None,
    ),
    "fig10": dict(
        fn=F.fig10_allocation_sweep,
        bench=dict(n=128),
        full=dict(n=512),
    ),
    "fig11": dict(
        fn=F.fig11_search_variants,
        bench=dict(n_values=(8, 32), problems=2),
        full=dict(n_values=(8, 32, 128, 512), problems=10),
    ),
    "fig12": dict(
        fn=F.fig12_goodput_grid,
        bench=dict(n_values=(8, 64), problems=2),
        full=dict(n_values=(8, 32, 128, 512), problems=10),
    ),
    "fig13": dict(
        fn=F.fig13_latency_grid,
        bench=dict(n_values=(8, 64), problems=2),
        full=dict(n_values=(8, 32, 128, 512), problems=10),
    ),
    "fig14": dict(
        fn=F.fig14_accuracy,
        bench=dict(n=32, problems=6),
        full=dict(n=512, problems=30),
        rows_key="rows_top1",
        export_name="fig14_top1",
    ),
    "fig15": dict(
        fn=F.fig15_generality,
        bench=dict(n_values=(8, 32), problems=2),
        full=dict(n_values=(8, 32, 128, 256), problems=10),
    ),
    "fig16": dict(
        fn=F.fig16_ablation,
        bench=dict(n=32, problems=2),
        full=dict(n=128, problems=10),
    ),
    "fig17": dict(
        fn=F.fig17_speculation,
        bench=dict(n=32, problems=2),
        full=dict(n=128, problems=10),
    ),
    "fig18": dict(
        fn=F.fig18_prefix_memory,
        bench=dict(n=64),
        full=dict(n=256),
    ),
}


def _render_plots(figure_id: str, output: dict) -> None:
    """Terminal renderings of series figures (the artifact's PDFs)."""
    from repro.utils.ascii_plot import series_plot

    try:
        if figure_id == "fig5":
            beam = output["series"]["beam_search"]
            print(series_plot(
                {"cached": beam["with_cache"], "no-cache": beam["without_cache"]},
                title="fig5: beams in memory per iteration",
                x_label="iteration",
            ))
        elif figure_id == "fig6":
            print(series_plot(
                {"prefill": output["prefill_norm"], "decode": output["decode_norm"]},
                title="fig6: normalized throughput vs KV size (log-spaced)",
                x_label="kv budget",
            ))
    except (KeyError, ValueError):
        pass  # plots are best-effort garnish on top of the tables


def run(
    figure_ids: list[str],
    scale: str,
    results_dir: str,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> int:
    writer = ResultsWriter(results_dir)
    index: dict[str, dict] = {}
    with orchestrate(jobs=jobs, cache=cache):
        failures = _run_figures(figure_ids, scale, writer, index)
    writer.write_index(index)
    if cache is not None:
        print(
            f"\nresult cache: {cache.hits} hits, {cache.misses} misses "
            f"under {cache.directory}/"
        )
    print(f"results written under {writer.directory}/")
    return failures


def _run_figures(
    figure_ids: list[str],
    scale: str,
    writer: ResultsWriter,
    index: dict[str, dict],
) -> int:
    failures = 0
    for figure_id in figure_ids:
        entry = EXPERIMENTS[figure_id]
        kwargs = entry["full"] if scale == "full" else entry["bench"]
        print(f"\n=== {figure_id} {kwargs}")
        start = time.time()
        try:
            output = entry["fn"](**kwargs)
        except Exception as error:  # keep the sweep alive
            print(f"FAILED: {error}")
            failures += 1
            index[figure_id] = {"status": "failed", "error": str(error)}
            continue
        elapsed = time.time() - start
        for key in ("table", "table_pass", "gain_table"):
            if output.get(key):
                print(output[key])
        _render_plots(figure_id, output)
        rows_key = entry.get("rows_key", "rows")
        produced = {}
        if rows_key:
            produced = export_figure(
                entry.get("export_name", figure_id), output, writer,
                rows_key=rows_key,
            )
        index[figure_id] = {
            "status": "ok",
            "elapsed_s": round(elapsed, 2),
            "scale": scale,
            **produced,
        }
        print(f"[{figure_id} done in {elapsed:.1f}s]")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--exp", action="store_true", help="run the experiments")
    parser.add_argument("--list", action="store_true", help="list figure ids")
    parser.add_argument("--figures", nargs="+", default=None,
                        help="subset of figure ids (default: all)")
    parser.add_argument("--scale", choices=("bench", "full"), default="bench")
    parser.add_argument("--results-dir", default=str(DEFAULT_RESULTS_DIR))
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes to shard experiment cells across")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory (default: "
                             "benchmarks/benchmark_results/cache or "
                             "$REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="run every cell even if a cached result exists")
    args = parser.parse_args()

    if args.list:
        print("\n".join(EXPERIMENTS))
        return 0
    if not args.exp:
        parser.print_help()
        return 0
    figure_ids = args.figures or list(EXPERIMENTS)
    unknown = [f for f in figure_ids if f not in EXPERIMENTS]
    if unknown:
        print(f"unknown figures: {unknown}; use --list")
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return run(figure_ids, args.scale, args.results_dir, jobs=args.jobs, cache=cache)


if __name__ == "__main__":
    sys.exit(main())
