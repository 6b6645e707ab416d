"""Straggler analysis: the analytical model vs the simulated engine.

The straggler claim — idle batch slots are pure waste because
decode is memory-bound — has an analytical counterpart: with capped
lognormal step lengths, the expected idle slot-time fraction of a k-beam
batch is ``1 - E[L] / E[max_k L]``. This bench checks that the serving
simulator's measured generation-phase occupancy is consistent with the
order-statistics prediction, tying Fig. 4 to first principles.
"""

from repro.analysis.straggler import idle_fraction
from repro.engine.telemetry import Phase
from repro.experiments import ExperimentSpec
from repro.core.server import TTSServer
from repro.metrics.utilization import mean_phase_utilization
from repro.search.registry import build_algorithm
from repro.utils.tables import render_table
from repro.workloads.datasets import DATASETS


def test_straggler_model_vs_simulation(benchmark, show):
    def measure():
        step_model = DATASETS["aime24"].step_model
        rows = []
        for n in (8, 32):
            predicted_busy = 1.0 - idle_fraction(step_model, n)
            spec = ExperimentSpec(
                dataset_name="aime24", dataset_size=2, model_config="1.5B+1.5B",
                n=n, seed=0,
            )
            dataset = spec.build_dataset()
            server = TTSServer(spec.build_config(fast=False), dataset)
            results = server.run(list(dataset), build_algorithm("beam_search", n))
            spans = [s for r in results for s in r.util_spans]
            simulated_busy = mean_phase_utilization(spans, Phase.GENERATION)
            rows.append([n, round(predicted_busy, 3), round(simulated_busy, 3)])
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    show(render_table(
        ["batch n", "predicted busy fraction", "simulated busy fraction"],
        rows,
        title="Straggler order-statistics vs serving simulation",
    ))
    for n, predicted, simulated in rows:
        # The simulation includes effects the closed form ignores (waves,
        # head-of-line prefill, early-terminating beams), so require
        # agreement in band, not equality.
        assert abs(predicted - simulated) < 0.25
        assert simulated < 0.75  # far from full occupancy: the paper's point
    # idleness grows with batch width in both views
    assert rows[0][1] > rows[1][1]
    assert rows[0][2] > rows[1][2]
