"""Outside-in tracing: spans around each layer's public entry points.

Nothing under ``src/`` knows it is being traced. :class:`Tracer`
temporarily replaces (``setattr``, restored in ``uninstall``) the public
methods and functions listed in :data:`ENTRY_POINTS` with timing
wrappers, so a *span* is one call across a layer boundary: name, start,
end, parent span and the session / ledger-owner id it worked for (child
spans inherit their parent's owner, so all spans of one session share an
identifier). A layer's **self time** is its spans' duration minus the
part covered by child spans — nested wrapped calls, in whatever layer.

Hot leaves (``KeyedRng.stream``, ``stable_hash64``, ``Roofline.point``,
the radix-tree walkers) are called hundreds of thousands of times per
drain; they take part in the same parent/child time accounting but only
feed count + total-time accumulators instead of emitting span rows.

What outside-in tracing cannot see: code a layer runs through a callback
that is not itself an entry point is billed to the layer that invoked
the callback (the fleet's ``charge_growth``/``on_done`` closures run
inside ``RoundBatcher.run_iteration`` and so count as ``core.batcher``
self time, minus the ledger calls they make). In-program spans are
ROADMAP item 3.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

__all__ = ["LAYERS", "ENTRY_POINTS", "Tracer", "layer_of_file", "pycalls_by_layer"]

#: Layer names, in report order. A layer is a module (or package) of
#: ``repro``; ``core.session`` also owns the round executors, allocator,
#: speculation and prefix scheduling it drives.
LAYERS = (
    "core.fleet", "core.scheduler", "core.pool", "core.batcher",
    "core.session", "engine.worker", "kvcache", "hardware.memory",
    "hardware.roofline", "utils.rng", "faults.injector", "metrics.fleet",
    "workloads",
)

#: ``repro``-relative source path prefix → layer, for the cProfile rollup.
#: First match wins, so the specific ``core/*`` files precede nothing
#: broader; files matching no prefix roll up under ``other``.
_FILE_LAYERS = (
    ("core/fleet.py", "core.fleet"),
    ("core/scheduler.py", "core.scheduler"),
    ("core/pool.py", "core.pool"),
    ("core/batcher.py", "core.batcher"),
    ("core/session.py", "core.session"),
    ("core/generation_round.py", "core.session"),
    ("core/verification_round.py", "core.session"),
    ("core/allocator.py", "core.session"),
    ("core/spec_select.py", "core.session"),
    ("core/prefix_sched.py", "core.session"),
    ("engine/worker.py", "engine.worker"),
    ("kvcache/", "kvcache"),
    ("hardware/memory.py", "hardware.memory"),
    ("hardware/roofline.py", "hardware.roofline"),
    ("utils/rng.py", "utils.rng"),
    ("faults/", "faults.injector"),
    ("metrics/fleet.py", "metrics.fleet"),
    ("workloads/", "workloads"),
)


def _count_pick(counters, args, result) -> None:
    counters["pick_runnable"] += len(args[1])


def _count_evictions(counters, args, result) -> None:
    counters["evictions"] += len(result)


def _count_growth(counters, args, result) -> None:
    restored, evictions = result
    counters["evictions"] += len(evictions)
    if restored > 0:
        counters["restores"] += 1


def _count_roofline(counters, args, result) -> None:
    counters["roofline_points"] += 1
    counters["roofline_compute_bound"] += result.compute_bound


def _count_faults(counters, args, result) -> None:
    counters["fault_events"] += len(result)


_SESSION = "session"  # owner = self.session_id
_ARG1 = "arg1"  # owner = first positional argument when it is a str

#: (layer, module, class or None, attribute, leaf?, owner rule, observer).
#: A class entry is wrapped wherever the attribute is *defined* in the
#: class or any loaded subclass, so abstract hooks (``pick``, ``choose``)
#: are timed on every concrete policy.
ENTRY_POINTS = (
    ("core.fleet", "repro.core.fleet", "TTSFleet", "submit", False, None, None),
    ("core.fleet", "repro.core.fleet", "TTSFleet", "drain", False, None, None),
    ("core.scheduler", "repro.core.scheduler", "RequestScheduler", "pick", False, None, _count_pick),
    ("core.scheduler", "repro.core.scheduler", "RequestScheduler", "choose_device", False, None, None),
    ("core.scheduler", "repro.core.scheduler", "RequestScheduler", "sessions_for", False, None, None),
    ("core.scheduler", "repro.core.scheduler", "RequestScheduler", "drop_expired", False, None, None),
    ("core.pool", "repro.core.pool", "PlacementPolicy", "choose", False, None, None),
    ("core.pool", "repro.core.pool", "DevicePool", "migrate", False, None, None),
    ("core.pool", "repro.core.pool", "PooledDevice", "fail_lane", False, None, None),
    ("core.pool", "repro.core.pool", "PooledDevice", "recover_lane", False, None, None),
    ("core.pool", "repro.core.pool", "PooledDevice", "stall", False, None, None),
    ("core.pool", "repro.core.pool", "PooledDevice", "apply_kv_pressure", False, None, None),
    ("core.batcher", "repro.core.batcher", "RoundBatcher", "run_iteration", False, None, None),
    ("core.session", "repro.core.session", "SolveSession", "step", False, _SESSION, None),
    ("core.session", "repro.core.session", "SolveSession", "begin_generation_round", False, _SESSION, None),
    ("core.session", "repro.core.session", "SolveSession", "finish_generation_round", False, _SESSION, None),
    ("core.session", "repro.core.session", "SolveSession", "step_verification", False, _SESSION, None),
    ("core.session", "repro.core.session", "SolveSession", "kv_segments", False, _SESSION, None),
    # The batcher runs a session's contributed round itself, so the round
    # executor is an entry point too (billed to the session layer).
    ("core.session", "repro.core.generation_round", "GenerationRound", "run", False, None, None),
    ("engine.worker", "repro.engine.worker", "ModelWorker", "prefill_batch", False, None, None),
    ("engine.worker", "repro.engine.worker", "ModelWorker", "materialize_path", False, None, None),
    ("engine.worker", "repro.engine.worker", "GeneratorWorker", "decode_span", False, None, None),
    ("kvcache", "repro.kvcache.cache", "PagedKVCache", "materialize", False, None, None),
    ("kvcache", "repro.kvcache.cache", "PagedKVCache", "extend_segment", False, None, None),
    ("kvcache", "repro.kvcache.cache", "PagedKVCache", "evict_path", False, None, None),
    ("kvcache", "repro.kvcache.radix", "RadixTree", "path", True, None, None),
    ("kvcache", "repro.kvcache.radix", "RadixTree", "add_node", True, None, None),
    ("kvcache", "repro.kvcache.radix", "RadixTree", "ensure_node", True, None, None),
    ("hardware.memory", "repro.hardware.memory", "KVLedger", "admit", False, _ARG1, _count_evictions),
    ("hardware.memory", "repro.hardware.memory", "KVLedger", "admit_segments", False, _ARG1, _count_evictions),
    ("hardware.memory", "repro.hardware.memory", "KVLedger", "charge_growth", False, _ARG1, _count_growth),
    ("hardware.memory", "repro.hardware.memory", "KVLedger", "charge_growth_segments", False, _ARG1, _count_growth),
    ("hardware.memory", "repro.hardware.memory", "KVLedger", "restore", False, _ARG1, _count_growth),
    ("hardware.memory", "repro.hardware.memory", "KVLedger", "release", False, _ARG1, None),
    ("hardware.memory", "repro.hardware.memory", "KVLedger", "resize", False, None, _count_evictions),
    ("hardware.memory", "repro.hardware.memory", "KVLedger", "unique_planned_bytes", False, None, None),
    ("hardware.memory", "repro.hardware.memory", "KVLedger", "resident_subtree_bytes", False, None, None),
    ("hardware.roofline", "repro.hardware.roofline", "Roofline", "point", True, None, _count_roofline),
    ("hardware.roofline", "repro.hardware.roofline", "Roofline", "batched_point", True, None, None),
    ("utils.rng", "repro.utils.rng", "KeyedRng", "stream", True, None, None),
    ("utils.rng", "repro.utils.rng", None, "stable_hash64", True, None, None),
    ("faults.injector", "repro.faults.injector", "FaultInjector", "pop_due", False, None, _count_faults),
    ("metrics.fleet", "repro.metrics.fleet", "FleetMetrics", "aggregate", False, None, None),
    ("metrics.fleet", "repro.metrics.fleet", "SLOSummary", "aggregate", False, None, None),
    ("workloads", "repro.workloads.tenants", None, "generate_trace", False, None, None),
    ("workloads", "repro.workloads.trace", None, "materialize_problems", False, None, None),
)


def _class_tree(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _class_tree(sub)


class Tracer:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        #: Span rows: (id, name, start_ns, end_ns, parent id or None, owner).
        self.spans: list[tuple] = []
        #: name → [calls, total_ns, self_ns], spans and leaves alike.
        self.stats: dict[str, list[int]] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._layer_of: dict[str, str] = {}
        self._stack: list[list] = []  # frames: [span id, child_ns, owner]
        self._next_id = 0
        #: (holder, attribute, original raw attribute, installed wrapper)
        self._patched: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, leaf, owner_rule, observe):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack, spans, counters = self._stack, self.spans, self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            owner = parent[2] if parent else None
            if owner_rule is _SESSION:
                owner = args[0].session_id
            elif owner_rule is _ARG1 and len(args) > 1 and isinstance(args[1], str):
                owner = args[1]
            self._next_id += 1
            frame = [self._next_id, 0, owner]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if not leaf:
                    spans.append(
                        (frame[0], name, start, end,
                         parent[0] if parent else None, owner)
                    )
            if observe is not None:
                observe(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, holder, attr, raw, name, leaf, owner_rule, observe) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(
                self._wrap(raw.__func__, name, leaf, owner_rule, observe)
            )
        else:
            wrapper = self._wrap(raw, name, leaf, owner_rule, observe)
        setattr(holder, attr, wrapper)
        self._patched.append((holder, attr, raw, wrapper))

    def install(self) -> None:
        """Wrap every entry point; call :meth:`uninstall` in a ``finally``."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for layer, mod_name, cls_name, attr, leaf, owner_rule, observe in ENTRY_POINTS:
            module = importlib.import_module(mod_name)
            if cls_name is None:
                fn = getattr(module, attr)
                name = f"{layer}:{attr}"
                self._layer_of[name] = layer
                # ``from x import fn`` copies the reference: patch every
                # loaded repro module that holds this very function.
                for holder in list(sys.modules.values()):
                    if (
                        getattr(holder, "__name__", "").startswith("repro")
                        and vars(holder).get(attr) is fn
                    ):
                        self._patch(holder, attr, fn, name, leaf, owner_rule, observe)
                continue
            for cls in _class_tree(getattr(module, cls_name)):
                raw = vars(cls).get(attr)
                if raw is None or getattr(raw, "__isabstractmethod__", False):
                    continue
                name = f"{layer}:{cls.__name__}.{attr}"
                self._layer_of[name] = layer
                self._patch(cls, attr, raw, name, leaf, owner_rule, observe)

    def uninstall(self) -> None:
        """Put every original attribute back (idempotent)."""
        for holder, attr, raw, _ in reversed(self._patched):
            setattr(holder, attr, raw)

    def targets(self) -> list[tuple]:
        """(holder, attribute, original) for everything :meth:`install` wrapped."""
        return [(holder, attr, raw) for holder, attr, raw, _ in self._patched]

    def restored(self) -> bool:
        """True when every patched attribute is the original object again."""
        return all(
            vars(holder).get(attr) is raw for holder, attr, raw, _ in self._patched
        )

    # -- results -----------------------------------------------------------

    def layer_stats(self) -> dict[str, dict]:
        """Per layer: boundary calls and self seconds, plus per-entry rows."""
        layers = {
            layer: {"calls": 0, "self_s": 0.0, "entries": {}} for layer in LAYERS
        }
        for name, (calls, total_ns, self_ns) in self.stats.items():
            row = layers[self._layer_of[name]]
            row["calls"] += calls
            row["self_s"] += self_ns / 1e9
            row["entries"][name] = {
                "calls": calls, "total_s": total_ns / 1e9, "self_s": self_ns / 1e9,
            }
        return layers

    def counter_metrics(self) -> dict[str, float]:
        """Ratios counted at the boundaries where the work happens."""
        c = self.counters
        picks = sum(
            calls for name, (calls, _, _) in self.stats.items()
            if name.endswith(".pick")
        )
        # One generation round per reasoning step, batched or not.
        steps = self.stats.get("core.session:GenerationRound.run", [0])[0]
        return {
            "core.scheduler.runnable_mean": (
                c["pick_runnable"] / picks if picks else 0.0
            ),
            "core.session.steps": steps,
            "hardware.memory.evictions": c["evictions"],
            "hardware.memory.restores": c["restores"],
            "hardware.roofline.compute_bound_share": (
                c["roofline_compute_bound"] / c["roofline_points"]
                if c["roofline_points"] else 0.0
            ),
            "faults.injector.events": c["fault_events"],
        }

    def write_spans(self, path: str) -> None:
        """One JSON object per line; times are ns from the first span."""
        origin = min((row[2] for row in self.spans), default=0)
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, owner in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "layer": self._layer_of[name],
                    "start_ns": start - origin, "end_ns": end - origin,
                    "parent": parent, "owner": owner,
                }) + "\n")


def layer_of_file(filename: str) -> str | None:
    """Layer owning a source file; None outside ``repro``; else ``other``."""
    marker = "/repro/"
    index = filename.rfind(marker)
    if index < 0:
        return None
    relative = filename[index + len(marker):]
    for prefix, layer in _FILE_LAYERS:
        if relative.startswith(prefix):
            return layer
    return "other"


def pycalls_by_layer(profiler) -> tuple[int, dict[str, int]]:
    """Total Python-level calls and the per-layer rollup of a profile.

    ``total`` counts every profiled Python function (numpy/stdlib Python
    helpers included); the rollup covers functions defined in ``repro``
    source files, the remainder of ``repro`` under ``other``.
    """
    total = 0
    layers: dict[str, int] = {layer: 0 for layer in LAYERS}
    layers["other"] = 0
    for entry in profiler.getstats():
        total += entry.callcount
        code = entry.code
        layer = layer_of_file(getattr(code, "co_filename", ""))
        if layer is not None:
            layers[layer] += entry.callcount
    return total, layers
