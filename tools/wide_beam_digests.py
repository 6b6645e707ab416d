"""Print a digest of wide-beam solves, where the decode round's batch is
hundreds of slots wide.

No golden (n=8) and no perf workload (n <= 64) reaches these widths, so
CI diffs this output against the merge base: a change to the generation
round or the paged KV cache that moves any result at n=256 or n=512
shows here. Each line is one ``beam_search`` solve of amc23 problem 0
(seed 0) under one config and generator memory fraction: the sha256 of
its ``ProblemRunResult.to_json_dict()``, serialised with sorted keys.
At n=512 and memory 0.4 the baseline's decode spans fall short of
blocks and preempt, so the round's shortfall path runs too.

Usage, from the repository root (``ROOT``, another checkout whose
``src/`` to solve with, defaults to this one)::

    python tools/wide_beam_digests.py [ROOT]
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT.resolve() / "src"))

from repro.core.config import baseline_config, fasttts_config  # noqa: E402
from repro.core.server import TTSServer  # noqa: E402
from repro.search.registry import build_algorithm  # noqa: E402
from repro.workloads.datasets import build_dataset  # noqa: E402

CELLS = ((512, 0.4), (256, 0.9))  # (beam width n, generator memory fraction)
CONFIGS = (("baseline", baseline_config), ("fasttts", fasttts_config))


def main() -> None:
    dataset = build_dataset("amc23", seed=0, size=1)
    problem = list(dataset)[0]
    for n, memory in CELLS:
        for name, config in CONFIGS:
            server = TTSServer(config(memory_fraction=memory, seed=0), dataset)
            result = server.solve(problem, build_algorithm("beam_search", n))
            blob = json.dumps(result.to_json_dict(), sort_keys=True).encode()
            print(f"n={n} memory={memory} {name} {hashlib.sha256(blob).hexdigest()}")


if __name__ == "__main__":
    main()
