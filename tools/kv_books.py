"""Print what each lane KV ledger books while the perf workloads drain.

Read-only: every ``KVLedger`` call the fleet makes is counted on its way
through, and the drains are the perf benchmark's own
(``benchmarks/perf/fleetperf``). One line per workload and seed:

* ``reports``: ``charge_growth_segments`` calls; ``empty``: the whole
  lists among them that hold no bytes (no claim, or a 0-byte one);
* ``owners``: the most owners one ledger held at once;
* ``split``: reports after which some lane-tree node has owners claiming
  different lengths;
* ``evicted``: victims reported by reports, restores and resizes, and
  their bytes; ``calls``: the calls that evicted, and ``nodes``: the
  lane-tree nodes summed over those calls (``len(ledger.tree)`` before
  each), which is what the ledger's per-call frontier pass scans;
* ``restores``: ``restore`` calls, and the bytes brought back by
  restores and reports;
* ``succ``: ``greedy_successor`` calls, the ``prefix_affinity``
  scheduler's reads of lane-tree lengths.

Every perf workload runs at seeds 0 and 1, and so does
``sharing_batched:off``: ``sharing_batched`` on lanes that do not batch,
where the ``prefix_affinity`` scheduler picks each turn's session.
Usage, from the repository root (``ROOT``, another checkout to measure,
defaults to this one)::

    python tools/kv_books.py [ROOT]
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter
from pathlib import Path

root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent)
sys.path.insert(0, str(root.resolve() / "benchmarks" / "perf"))

from fleetperf import ensure_repro_importable, specs, worker  # noqa: E402

ensure_repro_importable()
from repro.core import prefix_sched  # noqa: E402
from repro.hardware.memory import KVLedger  # noqa: E402

books: Counter = Counter()
real_successor = prefix_sched.greedy_successor


def _successor(*args):
    books["succ"] += 1
    return real_successor(*args)


# ``PrefixAffinityScheduler.pick`` looks the function up on each call.
prefix_sched.greedy_successor = _successor


def _evictions(evicted, nodes: int) -> None:
    books["evicted"] += len(evicted)
    books["evicted_b"] += sum(num_bytes for _, num_bytes in evicted)
    if evicted:
        books["calls"] += 1
        books["nodes"] += nodes


def _counted(name):
    real = getattr(KVLedger, name)

    def call(ledger, *a):
        nodes = len(ledger.tree)
        result = real(ledger, *a)
        if name == "resize":
            _evictions(result, nodes)
            return result
        restored, evicted = result
        books["restored_b"] += restored
        _evictions(evicted, nodes)
        if name == "restore":
            books["restores"] += 1
        else:
            books["reports"] += 1
            whole = len(a) < 3 or a[2] is None  # not a delta
            books["empty"] += whole and not any(c.num_bytes for c in a[1])
            books["owners"] = max(books["owners"], len(ledger.owners))
            books["split"] += any(
                len(set(seg.owners.values())) > 1
                for seg in ledger._segments.values()
            )
        return result

    setattr(KVLedger, name, call)


for method in ("charge_growth_segments", "restore", "resize"):
    _counted(method)
print(f"{'workload':<19} seed reports empty owners split evicted   MiB calls "
      "nodes restores   MiB succ")
workloads = [specs.get_workload(name) for name in specs.workload_names()]
sharing = specs.get_workload("sharing_batched")
workloads.append(dataclasses.replace(
    sharing, name="sharing_batched:off", fleet={**sharing.fleet, "batching": "off"}
))
for workload in workloads:
    for seed in (0, 1):
        books.clear()
        worker._build_fleet(workload, seed, 1.0).drain()
        b = books
        print(f"{workload.name:<19} {seed:>4} {b['reports']:>7} {b['empty']:>5} "
              f"{b['owners']:>6} {b['split']:>5} {b['evicted']:>7} "
              f"{b['evicted_b'] / 2**20:>5.1f} {b['calls']:>5} {b['nodes']:>5} "
              f"{b['restores']:>8} {b['restored_b'] / 2**20:>5.1f} {b['succ']:>4}")
