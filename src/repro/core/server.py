"""The serving system: baseline vLLM-style and FastTTS in one loop.

``TTSServer`` executes the abstract verifier-guided search (Sec. 3.1) over
a simulated device. Every FastTTS optimization is a configuration switch
(see :mod:`repro.core.config`):

* ``speculation``      — Speculative Beam Extension inside the generation
  round, plus head-start adoption and R-truncation at branching (Alg. 1);
* ``prefix_aware``     — Dynamic Prefix-Aware Scheduling of generation and
  verification job order;
* ``asymmetric_alloc`` — Roofline-guided KV partitioning (vs a static
  50/50 split);
* ``lookahead``        — LookAhead Verification via the score cache;
* ``offload``          — the Sec. 4.3.2 dual strategy on tiny GPUs.

Because every stochastic quantity is keyed by *what* is generated, two
servers with different switches produce identical reasoning trees, scores,
selections and answers — only simulated time, memory traffic and
utilization differ. The test suite asserts this equivalence directly.

Sessions
--------
The solve loop itself lives in :class:`~repro.core.session.SolveSession`,
a resumable state machine whose one transition method,
:meth:`~repro.core.session.SolveSession.step`, advances one
generation-or-verification round. ``TTSServer.solve``, ``run`` and
``solve_detailed`` create a session and drive it to completion (pinned by
the goldens under ``tests/goldens/``). Callers that want round-granular
control — fleet schedulers interleaving many requests on one device,
cancellation, pause/resume — use :meth:`TTSServer.session` directly; a
request *stream* is served by :class:`~repro.core.fleet.TTSFleet`.
The budget left after both models' weights is the KV budget the Sec. 4.3
allocator splits per request (:meth:`TTSServer.plan_allocation`).
"""

from __future__ import annotations

from repro.core.config import OffloadMode, ServerConfig
from repro.core.allocator import (
    AllocationPlan,
    RooflineAllocator,
    WorkloadProfile,
    static_split_plan,
)
from repro.core.session import SolveOutcome, SolveSession
from repro.errors import DeploymentError
from repro.hardware.device import get_device
from repro.hardware.offload import OffloadLink
from repro.hardware.roofline import Roofline
from repro.llm.generator import SimulatedGenerator
from repro.llm.verifier import SimulatedPRM
from repro.metrics.report import ProblemRunResult
from repro.models.spec import ModelSpec
from repro.models.zoo import model_pair
from repro.search.base import SearchAlgorithm
from repro.utils.rng import KeyedRng
from repro.workloads.problem import Dataset, Problem

__all__ = ["TTSServer", "SolveOutcome"]


class TTSServer:
    """One serving-system instance bound to a device, model pair, dataset.

    The server owns everything *shared across requests* — models, cost
    models, the keyed RNG, the memory budget. Per-request execution state
    lives on :class:`~repro.core.session.SolveSession` objects created by
    :meth:`session`, so any number of solves can be in flight (interleaved
    round-by-round) on one server.
    """

    def __init__(
        self, config: ServerConfig, dataset: Dataset, pairs: dict | None = None
    ) -> None:
        self._config = config
        self._dataset = dataset
        self._device = get_device(config.device_name)
        generator_model, verifier_model = model_pair(config.model_config)
        if config.quantization is not None:
            from repro.models.quantize import quantized

            generator_model = quantized(generator_model, config.quantization)
            verifier_model = quantized(verifier_model, config.quantization)
        self._gen_model = generator_model
        self._ver_model = verifier_model
        self._roofline = Roofline(self._device)
        self._link = OffloadLink(self._device)
        self._rng = KeyedRng(config.seed)
        # ``pairs`` (one pool's) hands every server with this seed and model
        # pair, on its one dataset, the same generator/PRM and step tables.
        key = (config.seed, generator_model, verifier_model)
        pair = None if pairs is None else pairs.get(key)
        if pair is None:
            generator = SimulatedGenerator(generator_model, dataset, self._rng)
            pair = generator, SimulatedPRM(verifier_model, generator.oracle, self._rng)
            if pairs is not None:
                pairs[key] = pair
        self._generator, self._prm = pair

        budget = int(self._device.usable_bytes * config.memory_fraction)
        weights = generator_model.weight_bytes + verifier_model.weight_bytes
        if weights >= budget:
            raise DeploymentError(
                f"model weights ({weights} B) exceed the memory budget "
                f"({budget} B) on {self._device.name}"
            )
        self._kv_budget = budget - weights
        # plan_allocation's memo: one frozen plan per feasible beam budget.
        self._plans: dict[int, AllocationPlan] = {}

    # -- public surface ------------------------------------------------

    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def kv_budget_bytes(self) -> int:
        return self._kv_budget

    @property
    def device(self):
        """The :class:`~repro.hardware.device.DeviceSpec` this server runs on."""
        return self._device

    @property
    def gen_model(self) -> ModelSpec:
        return self._gen_model

    @property
    def ver_model(self) -> ModelSpec:
        return self._ver_model

    @property
    def roofline(self) -> Roofline:
        return self._roofline

    @property
    def link(self) -> OffloadLink:
        return self._link

    @property
    def rng(self) -> KeyedRng:
        return self._rng

    @property
    def generator(self) -> SimulatedGenerator:
        return self._generator

    @property
    def prm(self) -> SimulatedPRM:
        return self._prm

    def plan_allocation(self, n: int) -> AllocationPlan:
        """The memory plan this server would use for a beam budget ``n``.

        Planned once per ``n`` and kept: the plan is frozen, and all its
        inputs (the frozen config, the dataset's statistics, the models,
        the roofline and the KV budget) are fixed for the server's life.
        An infeasible ``n`` keeps nothing, so every call raises its
        :class:`~repro.errors.CapacityError` afresh.
        """
        plan = self._plans.get(n)
        if plan is not None:
            return plan
        profile = WorkloadProfile.from_dataset(self._dataset, n)
        allocator = RooflineAllocator(
            self._ver_model, self._gen_model, self._roofline, self._link
        )
        if self._config.asymmetric_alloc:
            allow = self._config.offload is not OffloadMode.OFF
            plan = allocator.best_plan(profile, self._kv_budget, allow_offload=allow)
        else:
            plan = static_split_plan(
                self._ver_model, self._gen_model, self._roofline, profile,
                self._kv_budget,
            )
        # FORCE plans the split first, as it always has: an infeasible
        # split raises before any offload search.
        if self._config.offload is OffloadMode.FORCE:
            plan = allocator.search_offload(profile, self._kv_budget)
        self._plans[n] = plan
        return plan

    # -- session factory --------------------------------------------------

    def session(
        self,
        problem: Problem,
        algorithm: SearchAlgorithm,
        trace: bool = False,
        rng: KeyedRng | None = None,
        session_id: str | None = None,
        launch_log: bool = True,
    ) -> SolveSession:
        """Create a resumable :class:`SolveSession` for one request.

        The caller drives it with ``step()`` (round-granular) or ``run()``
        (to completion). Sessions are independent: many can interleave on
        one server without sharing any mutable state. ``launch_log=False``
        keeps no per-launch utilization spans (a fleet drain's choice).
        """
        return SolveSession(
            self, problem, algorithm, trace=trace, rng=rng,
            session_id=session_id, launch_log=launch_log,
        )

    # -- run-to-completion wrappers ---------------------------------------

    def solve(self, problem: Problem, algorithm: SearchAlgorithm) -> ProblemRunResult:
        """Solve one problem; returns the paper's per-request metrics."""
        return self.solve_detailed(problem, algorithm).result

    def run(
        self, problems: list[Problem], algorithm: SearchAlgorithm
    ) -> list[ProblemRunResult]:
        """Solve a list of problems sequentially (batch size 1, Sec. 6.1)."""
        return [self.solve(p, algorithm) for p in problems]

    def solve_detailed(
        self,
        problem: Problem,
        algorithm: SearchAlgorithm,
        trace: bool = False,
    ) -> SolveOutcome:
        """Full solve with access to collected paths and the memory plan.

        ``trace=True`` records a round-level JSONL-able event log (the
        artifact's log format) on the returned outcome.

        This is a thin wrapper: it creates a :class:`SolveSession` and
        steps it to completion.
        """
        return self.session(problem, algorithm, trace=trace).run()
