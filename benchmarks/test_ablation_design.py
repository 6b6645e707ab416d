"""Design-choice ablations beyond the paper's figures.

Two substrate-level design decisions are worth ablating:

* **Speculation bandwidth cap** — speculative slots ride along with the
  straggler's weight reads but add their own KV traffic. An uncapped
  policy can slow the straggler it is hiding at large n; the default cap
  (25% of weight bytes) should be at least as good as both extremes.
* **Quantization orthogonality** — the paper claims FastTTS composes with
  quantization (Sec. 6.4). int8 deployment should speed up both systems
  while preserving FastTTS's relative gain and the search results.
"""

from repro.experiments import ExperimentSpec, run_metrics, run_pair


def test_speculation_bandwidth_cap(benchmark, show):
    """The default cap avoids the uncapped policy's large-n regression."""

    def sweep():
        spec = ExperimentSpec(
            dataset_name="aime24", dataset_size=2, model_config="1.5B+1.5B",
            n=64, seed=0,
        )
        dataset = spec.build_dataset()
        results = {}
        for label, fraction in [("tiny", 0.01), ("default", 0.25), ("uncapped", 1e9)]:
            metrics, _ = run_metrics(
                spec,
                spec.build_config(fast=True, offload="off",
                                  spec_bandwidth_fraction=fraction),
                dataset,
            )
            results[label] = metrics.goodput
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\nspec bandwidth cap sweep (goodput tok/s): {results}")
    assert results["default"] >= results["uncapped"] * 0.98
    assert results["default"] >= results["tiny"] * 0.98
    benchmark.extra_info["goodputs"] = results


def test_quantization_orthogonality(benchmark, show):
    """int8 speeds both systems; FastTTS's relative gain survives."""

    def sweep():
        out = {}
        for label, quant in [("fp16", None), ("int8", "int8")]:
            spec = ExperimentSpec(
                dataset_name="aime24", dataset_size=2, model_config="1.5B+1.5B",
                n=32, seed=0,
            )
            pair = run_pair(
                spec,
                baseline_overrides=dict(quantization=quant),
                fast_overrides=dict(quantization=quant),
            )
            out[label] = pair
        return out

    pairs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for label, pair in pairs.items():
        print(f"\n{label}: baseline={pair.baseline.goodput:.1f} tok/s "
              f"fasttts={pair.fasttts.goodput:.1f} tok/s "
              f"gain x{pair.goodput_gain:.2f}")
    # quantization speeds up both systems...
    assert pairs["int8"].fasttts.goodput > pairs["fp16"].fasttts.goodput
    assert pairs["int8"].baseline.goodput > pairs["fp16"].baseline.goodput
    # ...and FastTTS still wins on top of it (orthogonality)
    assert pairs["int8"].goodput_gain > 1.0
    # accuracy untouched in both regimes (equivalence + cost-only transform)
    assert (
        pairs["int8"].fasttts.top1_accuracy == pairs["fp16"].fasttts.top1_accuracy
    )
    benchmark.extra_info["gains"] = {
        label: round(pair.goodput_gain, 2) for label, pair in pairs.items()
    }


def test_block_size_ablation(benchmark, show):
    """Paged-block granularity is a fidelity knob, not a results knob."""

    def sweep():
        spec = ExperimentSpec(
            dataset_name="amc23", dataset_size=1, model_config="1.5B+1.5B",
            n=16, seed=0,
        )
        dataset = spec.build_dataset()
        from repro.core.server import TTSServer
        from repro.search.registry import build_algorithm

        outcomes = {}
        for block_tokens in (8, 16, 32):
            server = TTSServer(
                spec.build_config(fast=True, block_tokens=block_tokens), dataset
            )
            result = server.solve(list(dataset)[0], build_algorithm("beam_search", 16))
            outcomes[block_tokens] = result
        return outcomes

    outcomes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    signatures = {
        block: sorted((b.lineage, b.answer) for b in result.beams)
        for block, result in outcomes.items()
    }
    print("\nblock size -> goodput: "
          + str({b: round(r.goodput, 1) for b, r in outcomes.items()}))
    # search results identical across block granularities
    assert signatures[8] == signatures[16] == signatures[32]
    # timing differences stay within a narrow band (fragmentation only)
    goodputs = [r.goodput for r in outcomes.values()]
    assert max(goodputs) / min(goodputs) < 1.2
