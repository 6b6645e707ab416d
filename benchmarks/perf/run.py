#!/usr/bin/env python3
"""Entry point of the layered perf benchmark (see README.md beside this file).

    python3 benchmarks/perf/run.py [--workload NAME] [--seed S] [--seconds T]
        [--reps R] [--scale F] [--trace [0|1]] [--out PATH]

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). Exit status is non-zero when an
output check fails.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fleetperf.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
