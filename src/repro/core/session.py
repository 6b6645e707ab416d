"""Resumable solve sessions: the serving loop as an explicit state machine.

``TTSServer.solve_detailed`` used to be a run-to-completion monolith, which
meant a fleet could only serve requests FIFO with whole-request
granularity. :class:`SolveSession` decomposes that loop into explicit
states with a :meth:`SolveSession.step` method that advances exactly one
generation-or-verification round and then yields control::

    ADMITTED ──step()──▶ GENERATING ──step()──▶ VERIFYING ─┐
                              ▲                            │ survivors
                              └────────────────────────────┘
                                                           │ none / budget
                                                           ▼
                                      FINALIZING ──step()──▶ DONE

    cancel() from any live state ──▶ CANCELLED

* ``ADMITTED → GENERATING``: zero-cost setup — allocation plan, KV caches,
  workers, the initial beam set.
* ``GENERATING → VERIFYING``: one generation round (continuous beam
  batching + optional speculative extension).
* ``VERIFYING → GENERATING | FINALIZING``: one verification round (when
  the algorithm scores steps), terminal collection, selection, expansion.
* ``FINALIZING → DONE``: best-of-N outcome scoring (if any) and result
  assembly; :attr:`SolveSession.outcome` becomes available.
* ``cancel()`` aborts a session between rounds (the First-Finish-Search
  scheduler uses this to kill losing replicas).

Every piece of per-request state — active paths, KV caches, phase timers,
the simulated clock — lives on the session, so multiple sessions can
interleave round-by-round on one simulated device. A session driven
straight to completion is byte-identical (results, traces, metrics) to the
pre-refactor monolith; the goldens under ``tests/goldens/`` pin this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING, NoReturn

from repro.core.allocator import AllocationPlan
from repro.core.claims import ClaimNames
from repro.core.generation_round import GenerationRound
from repro.core.prefix_sched import lineage_order, random_order
from repro.core.spec_select import speculative_potential
from repro.core.verification_round import VerificationRound
from repro.engine.clock import SimClock
from repro.engine.jobs import GenJob, VerifyJob
from repro.engine.telemetry import Phase, PhaseTimer, TokenCounters, UtilSpan
from repro.engine.tracing import SolveTrace
from repro.engine.worker import GeneratorWorker, VerifierWorker
from repro.errors import SchedulingError
from repro.kvcache.cache import PagedKVCache
from repro.llm.generator import SimulatedGenerator, StepPlan
from repro.llm.verifier import SimulatedPRM
from repro.metrics.goodput import BeamRecord
from repro.metrics.latency import LatencyBreakdown
from repro.metrics.report import ProblemRunResult
from repro.search.base import SearchAlgorithm
from repro.search.tree import ReasoningPath, prompt_segment_id, step_segment_id
from repro.utils import rng as rng_module
from repro.utils.rng import KeyedRng, stable_hash64
from repro.workloads.problem import Problem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (server builds sessions)
    from repro.core.config import ServerConfig
    from repro.core.server import TTSServer

__all__ = ["SessionState", "SolveOutcome", "SolveSession",
           "path_segments", "schedule_jobs", "lookahead_worthy"]

_TRUNCATION_STD = 0.05  # spread of the R-truncation draw (Alg. 1, line 19)
_MAX_SLOTS = 1024  # engine batch-slot cap on top of the memory plan's widths
_LINEAGE = attrgetter("lineage")  # prefix-aware order's key: no call per job


class SessionState(str, Enum):
    """Lifecycle states of a :class:`SolveSession`."""

    ADMITTED = "admitted"
    GENERATING = "generating"
    VERIFYING = "verifying"
    FINALIZING = "finalizing"
    DONE = "done"
    CANCELLED = "cancelled"

    def __init__(self, value: str) -> None:
        #: Whether the session still accepts :meth:`SolveSession.step`. A
        #: member attribute, not a property: every fleet turn reads it.
        self.live = value not in ("done", "cancelled")


@dataclass(frozen=True, slots=True)
class SolveOutcome:
    """Low-level solve artifacts, for tests and deep-dive benches."""

    result: ProblemRunResult
    collected: tuple[ReasoningPath, ...]
    plan: AllocationPlan
    trace: "SolveTrace | None" = None


# -- stateless policy helpers: pure functions of config, rng and problem --


def path_segments(
    config: "ServerConfig",
    problem: Problem,
    lineage: tuple[int, ...],
    steps_done: int,
) -> tuple[int, ...]:
    """KV segment ids for a path's prompt + generated steps.

    With prefix caching, ids derive from lineage *prefixes*, so ancestors
    and siblings share segments (vLLM automatic prefix caching / native
    fork). Without it, ids derive from the *full* lineage: every sequence
    owns private copies, is re-prefilled from scratch each engine call, and
    occupies un-deduplicated memory — the search-and-learn-on-vLLM baseline.
    """
    if config.prefix_caching:
        segments = [prompt_segment_id(problem)]
        segments.extend(
            step_segment_id(problem, lineage, i) for i in range(steps_done)
        )
        return tuple(segments)
    # ``stable_hash64`` of each key, with neither its frame nor a
    # comprehension's; looked up per call, so a patched ``_hash64`` sees it.
    pid, hash64 = problem.problem_id, rng_module._hash64
    segments = [hash64(b"", ("private-prompt", pid, lineage))]
    for i in range(steps_done):
        segments.append(hash64(b"", ("private-segment", pid, lineage, i)))
    return tuple(segments)


def schedule_jobs(
    config: "ServerConfig",
    rng: KeyedRng,
    problem: Problem,
    jobs: list,
    round_idx: int,
    stage: str,
) -> list:
    """Order a round's jobs per the scheduling policy.

    Prefix-aware scheduling groups siblings while preserving parent order
    (Sec. 4.2). The naive policy is a keyed shuffle: under vLLM's FCFS
    scheduler, beams arrive in completion order of the previous iteration,
    which scatters tree-adjacent beams (the paper's Fig. 5 right heatmap).
    The shuffle changes execution order only — all draws are keyed, so
    search results are untouched.
    """
    if len(jobs) <= 1:
        return list(jobs)  # one order only: nothing to sort, fork or shuffle
    if config.prefix_aware:
        return lineage_order(jobs, _LINEAGE)
    return random_order(
        jobs,
        rng.fork("naive-order", problem.problem_id, stage),
        salt=round_idx,
    )


def lookahead_worthy(path: ReasoningPath, algorithm: SearchAlgorithm) -> bool:
    """Gate LookAhead Verification by speculative potential.

    Pre-verifying a speculated step only pays off if the search keeps the
    beam; for beams outside the top score bin the extra verifier prefill
    (expensive for a 7B PRM) is usually wasted. The gate reuses SelectSPEC's
    zero-overhead proxy: previous-step score in bin C1.
    """
    scores = path.scores  # ``path.last_score``, inlined: read once per beam
    branching = algorithm.branching_factor
    potential = speculative_potential(scores[-1] if scores else None, branching)
    return potential == branching


class SolveSession:
    """One request's solve, advanced round-by-round.

    ``state``, ``session_id``, ``clock`` and ``first_token_s`` are plain
    attributes, read on every fleet turn; only the session writes them
    (``state`` in its transitions and :meth:`cancel`, ``first_token_s``
    after its first generation round). Callers treat them as read-only.

    ``preempt_at`` is the one attribute callers write: the session-clock
    time from which Phase-2 speculation must stop because another request
    is waiting to take the batch slots it frees (Sec. 4.1.2; a fleet sets
    it on continuous-batching lanes only). ``math.inf`` (the default)
    never preempts, ``-math.inf`` preempts from the next round's start. A
    generation round reads it once, when it is built.

    Parameters
    ----------
    server:
        The :class:`~repro.core.server.TTSServer` providing models, cost
        models and the keyed RNG. Sessions never mutate server state, so
        any number of them can interleave on one server.
    problem / algorithm:
        What to solve and with which search budget.
    trace:
        Record a round-level JSONL-able event log on the outcome.
    rng:
        Override the keyed RNG (and with it the simulated generator and
        PRM). The First-Finish-Search scheduler uses forked RNGs to race
        divergent replicas of one request; everyone else leaves this None
        for byte-identity with the server's own solve.
    session_id:
        Optional label used by fleet schedulers and error messages.
    launch_log:
        Keep one :class:`~repro.engine.telemetry.UtilSpan` per launch and
        return them as the result's ``util_spans`` (the utilization
        figures read them). Fleet schedulers pass False: their workers then
        hold no log, and the result carries ``util_spans=()``.
    """

    def __init__(
        self,
        server: "TTSServer",
        problem: Problem,
        algorithm: SearchAlgorithm,
        trace: bool = False,
        rng: KeyedRng | None = None,
        session_id: str | None = None,
        launch_log: bool = True,
    ) -> None:
        self._server = server
        self._config = server.config
        self._problem = problem
        self._algorithm = algorithm
        #: Label used by fleet schedulers, ledgers and error messages.
        self.session_id = session_id or f"session-{problem.problem_id}"
        self._want_trace = trace
        #: Lifecycle state; :meth:`step` and :meth:`cancel` write it.
        self.state = SessionState.ADMITTED
        # The dataset's step cap, read every round: fixed for the server.
        self._max_steps = server.dataset.max_steps

        if rng is None:
            self._rng = server.rng
            self._generator = server.generator
            self._prm = server.prm
        else:
            self._rng = rng
            self._generator = SimulatedGenerator(server.gen_model, server.dataset, rng)
            self._prm = SimulatedPRM(server.ver_model, self._generator.oracle, rng)
        # This problem's step tables on the pair, now its most recently used.
        self._table = self._generator.tables.acquire(problem.problem_id)
        self._prm.tables.acquire(problem.problem_id)

        # Engine state (one simulated device's worth, private to the session).
        #: The session-private clock; ``clock.now`` is service time so far.
        self.clock = SimClock()
        self._timer = PhaseTimer()
        self._spans: list[UtilSpan] | None = [] if launch_log else None
        self._trace: SolveTrace | None = None
        self._plan: AllocationPlan | None = None
        self._gen_worker: GeneratorWorker | None = None
        self._ver_worker: VerifierWorker | None = None
        self._gen_cache: PagedKVCache | None = None
        self._ver_cache: PagedKVCache | None = None
        self._active_model = "generator"

        # Search state.
        self._active: list[ReasoningPath] = []
        self._collected: list[ReasoningPath] = []
        self._counters = TokenCounters()
        self._score_cache: dict[tuple[tuple[int, ...], int], float] = {}
        self._heads_kept: dict[tuple[int, ...], int] = {}
        self._round_idx = 0
        self._slot_budget = 0
        self._batch_pre = 0

        # Per-round carry between the GENERATING and VERIFYING states.
        self._plans: dict[tuple[int, ...], StepPlan] = {}
        self._gen_result = None
        #: Session-clock time of the first generated token (None until
        #: then). Service time, not fleet time: the fleet adds the
        #: session's clock anchor to place it on the shared timeline.
        self.first_token_s: float | None = None
        #: This session's KV as lane-ledger claims (see repro.core.claims).
        self.claim_names = ClaimNames(self._table)

        #: Session-clock time from which speculation stops (callers write it).
        self.preempt_at = math.inf

        self._outcome: SolveOutcome | None = None

    # -- public surface --------------------------------------------------

    @property
    def server(self) -> "TTSServer":
        return self._server

    @property
    def problem(self) -> Problem:
        return self._problem

    @property
    def algorithm(self) -> SearchAlgorithm:
        return self._algorithm

    @property
    def outcome(self) -> SolveOutcome:
        """The finished solve's artifacts (only after reaching ``DONE``)."""
        if self._outcome is None:
            raise SchedulingError(
                f"{self.session_id} has no outcome in state {self.state.value}"
            )
        return self._outcome

    @property
    def resident_kv_bytes(self) -> int:
        """This session's device-resident KV footprint right now.

        Zero before setup (``ADMITTED``). Under an offloading plan only
        the active model's cache occupies the device (the inactive one
        lives in host memory between :meth:`_swap_to` transfers), so the
        footprint is the active cache alone; otherwise both caches count.
        The per-device :class:`~repro.hardware.memory.KVLedger` uses this
        to model cross-session contention.
        """
        gen, ver = self._gen_cache, self._ver_cache
        if gen is None:
            return 0
        # Each cache counts in its own model's KV bytes per token.
        if not self._plan.offload:
            return (
                gen._resident_token_count * gen._kv_bytes_per_token
                + ver._resident_token_count * ver._kv_bytes_per_token
            )
        cache = gen if self._active_model == "generator" else ver
        return cache._resident_token_count * cache._kv_bytes_per_token

    def device_caches(self) -> list[tuple[str, PagedKVCache, int]]:
        """``(tag, cache, KV bytes per token)`` of each cache on the device now.

        Empty before setup; under an offloading plan only the active model's.
        """
        if self._gen_cache is None:
            return []
        views = [
            ("gen", self._gen_cache, self._server.gen_model.kv_bytes_per_token),
            ("ver", self._ver_cache, self._server.ver_model.kv_bytes_per_token),
        ]
        if self._plan is not None and self._plan.offload:
            return views[:1] if self._active_model == "generator" else views[1:]
        return views

    @property
    def kv_namespace(self) -> str | None:
        """Content namespace for cross-session KV sharing.

        ``None`` marks a *canonical* session — one sampling from the
        server's own keyed RNG, whose draws for a given ``(problem,
        lineage, step)`` are identical to every other canonical session's.
        Such sessions may physically share step KV. A session on a forked
        RNG (a First-Finish replica) samples *different* tokens under the
        same stable segment ids, so its steps are namespaced by session
        id and only rng-independent segments (the prompt) dedup.
        """
        return None if self._rng is self._server.rng else self.session_id

    def charge_kv_swap(self, dt: float) -> None:
        """Charge cross-session KV swap time against this session.

        The fleet calls this when resuming the session requires restoring
        its evicted KV from host memory, or when its growth evicts a
        co-resident session's KV. The time lands on this session's clock
        (it is part of serving this request) under the SWAP phase, exactly
        like the intra-session offload transfers in :meth:`_swap_to`.
        """
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if dt == 0:
            return
        if not self.state.live:
            self._refuse("charge swap time to")
        self._charge_swap(dt, "kv_contention_swap")

    def _charge_swap(self, dt: float, event: str, **fields) -> None:
        self.clock.advance(dt)
        self._timer.add(Phase.SWAP, dt)
        if self._trace is not None:
            self._trace.record(
                self.clock.now, event, -1, **fields, seconds=round(dt, 6)
            )

    def cancel(self) -> None:
        """Abort the session; no outcome will be produced."""
        if self.state is SessionState.DONE:
            raise SchedulingError(f"cannot cancel finished {self.session_id}")
        self.state = SessionState.CANCELLED

    def _refuse(self, action: str) -> NoReturn:
        raise SchedulingError(
            f"cannot {action} {self.session_id} in state {self.state.value}"
        )

    def step(self, occupancy: int = 1) -> SessionState:
        """Advance exactly one lifecycle transition and return the new state.

        One call performs one unit of simulated device work: setup
        (zero-cost), one generation round, one verification-and-selection
        round, or finalization (result assembly, plus the single
        best-of-N outcome-scoring pass for algorithms that skip per-step
        verification). A generation or verification round bills this
        session ``1/occupancy`` of the weight reads: its co-batched
        sub-batch (:class:`~repro.core.batcher.RoundBatcher`) shares one.
        """
        if not isinstance(occupancy, int) or occupancy < 1:
            raise ValueError("occupancy must be an integer >= 1")
        state = self.state
        if state is SessionState.ADMITTED:
            self._step_admit()
        elif state is SessionState.GENERATING:
            self._step_generate(occupancy)
        elif state is SessionState.VERIFYING:
            self._ver_worker.batch_share = occupancy
            try:
                self._step_verify()
            finally:
                self._ver_worker.batch_share = 1
        elif state is SessionState.FINALIZING:
            self._step_finalize()
        else:
            self._refuse("step")
        return self.state

    def run(self) -> SolveOutcome:
        """Drive the session to completion and return the outcome."""
        while self.state.live:
            self.step()
        if self.state is SessionState.CANCELLED:
            raise SchedulingError(f"{self.session_id} was cancelled")
        return self.outcome

    # -- state handlers --------------------------------------------------

    def _step_admit(self) -> None:
        """ADMITTED → GENERATING: allocation plan, caches, workers, beams."""
        server = self._server
        cfg = self._config
        plan = server.plan_allocation(self._algorithm.n)
        self._plan = plan
        self._trace = SolveTrace() if self._want_trace else None

        self._gen_cache = PagedKVCache(
            plan.kv_dec_bytes, server.gen_model.kv_bytes_per_token, cfg.block_tokens
        )
        self._ver_cache = PagedKVCache(
            plan.kv_pre_bytes, server.ver_model.kv_bytes_per_token, cfg.block_tokens
        )
        root = self._segment_chain((), True)[0]  # the prompt, in either spelling
        for cache in (self._gen_cache, self._ver_cache):
            cache.register_segment(root, None, self._problem.prompt_tokens)
        self._gen_worker = GeneratorWorker(
            server.gen_model, server.roofline, self._gen_cache, self.clock,
            self._timer, self._spans,
        )
        self._ver_worker = VerifierWorker(
            server.ver_model, server.roofline, self._ver_cache, self.clock,
            self._timer, self._spans,
        )

        self._slot_budget = min(plan.b_dec, _MAX_SLOTS)
        self._batch_pre = min(plan.b_pre, _MAX_SLOTS)
        self._active = [
            ReasoningPath(lineage=(i,))
            for i in range(self._algorithm.initial_width())
        ]
        if self._active and self._round_idx < self._max_steps:
            self.state = SessionState.GENERATING
        else:  # pragma: no cover - empty searches cannot be constructed
            self.state = SessionState.FINALIZING

    def _step_generate(self, occupancy: int) -> None:
        """GENERATING → VERIFYING: one generation round for the active set."""
        cfg = self._config
        algorithm = self._algorithm
        round_idx = self._round_idx

        plan_step, problem = self._generator.plan_step, self._problem
        cap = algorithm.step_cap(round_idx)
        table, prefix_caching = self._table, cfg.prefix_caching
        heads_kept, prompt_tokens = self._heads_kept, problem.prompt_tokens
        plans, jobs = {}, []
        for path in self._active:
            lineage = path.lineage
            # ``plan_step``'s memo, inline: a planned step is its StepPlan.
            step = table.get(("plan", lineage, round_idx, cap))
            if type(step) is not StepPlan:
                step = plan_step(problem, lineage, round_idx, cap)
            plans[lineage] = step
            # The path is generating step ``len(lineage) - 1``: the chain's
            # last id is the segment being written.
            chain = table.get(("chain", lineage, prefix_caching))
            if chain is None:
                chain = self._segment_chain(lineage)
            jobs.append(GenJob(
                lineage=lineage,
                path_segments=chain[:-1],
                path_segment_tokens=(prompt_tokens, *path.step_tokens),
                new_segment=chain[-1],
                step_tokens=step.n_tokens,
                head_start=min(heads_kept.pop(lineage, 0), step.n_tokens),
                prev_score=path.scores[-1] if path.scores else None,
            ))
        jobs = self._schedule(jobs, round_idx, "gen")

        self._swap_to("generator")
        self._gen_worker.batch_share = occupancy
        self._plans = plans
        planner, has_child = (
            self._child_planner(plans, round_idx) if cfg.speculation else (None, None)
        )
        gen_result = GenerationRound(
            worker=self._gen_worker,
            slot_budget=self._slot_budget,
            speculation=cfg.speculation,
            branching_factor=algorithm.branching_factor,
            child_planner=planner,
            has_child=has_child,
            preempt_at=self.preempt_at,
            spec_bandwidth_fraction=cfg.spec_bandwidth_fraction,
        ).run(jobs)
        self._gen_worker.batch_share = 1
        self._counters.recomputed += gen_result.stats.recomputed_tokens
        self._counters.committed += gen_result.stats.decoded_tokens
        if (
            self.first_token_s is None
            and gen_result.stats.first_token_time is not None
        ):
            self.first_token_s = gen_result.stats.first_token_time
        if self._trace is not None:
            self._trace.record(
                self.clock.now, "generation_round", round_idx,
                active_beams=len(self._active),
                decoded_tokens=gen_result.stats.decoded_tokens,
                speculative_tokens=gen_result.stats.speculative_tokens,
                recomputed_tokens=gen_result.stats.recomputed_tokens,
                round_time=round(gen_result.stats.round_time, 6),
                head_starts=len(gen_result.head_starts),
            )
        if not cfg.prefix_caching:
            # No automatic prefix caching: KV dies with the engine call,
            # exactly like the search-and-learn-on-vLLM baseline.
            self._gen_cache.evict_all(now=self.clock.now)

        for path in self._active:
            step = plans[path.lineage]
            path.record_step(step.n_tokens, step.soundness)

        self._gen_result = gen_result
        self.state = SessionState.VERIFYING

    def _step_verify(self) -> None:
        """VERIFYING → GENERATING | FINALIZING: verify, collect, select."""
        algorithm = self._algorithm
        round_idx = self._round_idx

        if algorithm.verifies_steps:
            self._verify_active(round_idx)

        survivors: list[ReasoningPath] = []
        plans, finished_at = self._plans, self._gen_result.finished_at
        final_answer, problem = self._generator.final_answer, self._problem
        for path in self._active:
            lineage = path.lineage
            if not plans[lineage].is_terminal:
                survivors.append(path)
                continue
            # The path is done: its completion time and answer, with
            # ``path.mean_soundness``'s own expression (the same float).
            path.terminal = True
            path.completion_time = finished_at[lineage]
            soundness = path.soundness
            path.answer_correct, path.answer = final_answer(
                problem, lineage, sum(soundness) / len(soundness) if soundness else 0.0
            )
            self._collected.append(path)
        if not survivors:
            self._active = []
            self.state = SessionState.FINALIZING
            return

        decision = algorithm.select(survivors, round_idx, self._generator.select_rng)
        if self._trace is not None:
            self._trace.record(
                self.clock.now, "selection", round_idx,
                survivors=len(survivors),
                kept=len(decision.expansions),
                children=decision.total_children,
            )
        self._active = self._expand(decision, round_idx)
        self._round_idx = round_idx + 1
        if self._active and self._round_idx < self._max_steps:
            self.state = SessionState.GENERATING
        else:
            self.state = SessionState.FINALIZING

    def _step_finalize(self) -> None:
        """FINALIZING → DONE: outcome scoring (BoN) and result assembly."""
        if not self._algorithm.verifies_steps and self._collected:
            self._final_scoring()
        result = self._build_result()
        self._outcome = SolveOutcome(
            result=result,
            collected=tuple(self._collected),
            plan=self._plan,
            trace=self._trace,
        )
        self.state = SessionState.DONE

    # -- step planning ---------------------------------------------------

    def _schedule(self, jobs: list, round_idx: int, stage: str) -> list:
        return schedule_jobs(
            self._config, self._rng, self._problem, jobs, round_idx, stage
        )

    def _segment_chain(
        self, lineage: tuple[int, ...], prefix_caching: bool | None = None
    ) -> tuple[int, ...]:
        """:func:`path_segments` for ``steps_done = len(lineage)``, derived
        once per lineage and id spelling in the problem's step table: the
        prompt's id plus those of steps ``0 .. len(lineage) - 1``.

        With prefix caching (the server's setting unless one is given) a
        step's id is a function of its lineage *prefix*: a chain is its
        parent prefix's chain plus one hash (its last element *is* that
        prefix's segment id). Without it ids key on the full lineage, so
        each lineage hashes its private chain once.
        """
        table = self._table
        cfg = self._config
        if prefix_caching is None:
            prefix_caching = cfg.prefix_caching
        key = ("chain", lineage, prefix_caching)
        chain = table.get(key)
        if chain is None:
            if not prefix_caching:
                chain = path_segments(cfg, self._problem, lineage, len(lineage))
            elif lineage:
                parent = table.get(("chain", lineage[:-1], True))
                if parent is None:
                    parent = self._segment_chain(lineage[:-1], True)
                # ``step_segment_id(problem, lineage, len(lineage) - 1)``:
                # the same key, as the lineage is its own prefix.
                chain = parent + (stable_hash64(
                    "segment", self._problem.problem_id, lineage, len(lineage) - 1
                ),)
            else:
                chain = (prompt_segment_id(self._problem),)
            table[key] = chain
        return chain

    def _child_planner(
        self, plans: dict[tuple[int, ...], StepPlan], round_idx: int
    ):
        """A closure resolving speculative branches to child step
        identities, and a builtin telling, without a draw, whether a beam's
        step can have one: membership in the set of non-terminal plans.

        A child's identity is the plain ``ChildStepPlan`` field tuple
        ``(child_lineage, segment_id, parent_leaf_segment, n_tokens)``; its
        chain and step length are read from the step table's memos, and
        derived only on a miss. In the last round a step can have no
        child, which is decided here once rather than per call.
        """
        next_step, next_cap = round_idx + 1, self._algorithm.step_cap(round_idx + 1)
        last_round = next_step >= self._max_steps
        has_child = (frozenset() if last_round else {
            lineage for lineage, plan in plans.items() if not plan.is_terminal
        }).__contains__
        table, prefix_caching = self._table, self._config.prefix_caching
        generator, problem = self._generator, self._problem

        def planner(
            parent_lineage: tuple[int, ...], child_index: int
        ) -> tuple[tuple[int, ...], int, int, int] | None:
            if last_round:
                return None
            parent_plan = plans.get(parent_lineage)
            if parent_plan is None or parent_plan.is_terminal:
                return None
            child_lineage = parent_lineage + (child_index,)
            # ``_segment_chain``'s memo, inline: the chain ends ..., parent, child.
            chain = table.get(("chain", child_lineage, prefix_caching))
            if chain is None:
                chain = self._segment_chain(child_lineage)
            # ``step_tokens``'s memo, inline: a length, or the step's plan.
            step = table.get(("plan", child_lineage, next_step, next_cap))
            if step is None:
                n_tokens = generator.step_tokens(problem, child_lineage, next_step, next_cap)
            else:
                n_tokens = step if type(step) is int else step.n_tokens
            if n_tokens <= 0:
                raise ValueError("n_tokens must be positive")
            return child_lineage, chain[-1], chain[-2], n_tokens

        return planner, has_child

    # -- verification ----------------------------------------------------

    def _verify_active(self, round_idx: int) -> None:
        cfg, algorithm, plans = self._config, self._algorithm, self._plans
        self._swap_to("verifier")
        table, prefix_caching = self._table, cfg.prefix_caching
        lookahead, prompt_tokens = cfg.lookahead, self._problem.prompt_tokens
        vjobs = []
        for path in self._active:
            lineage = path.lineage
            gated = lookahead and not plans[lineage].is_terminal
            if gated and lookahead_worthy(path, algorithm):
                job = self._verify_job(path, round_idx)
                if job is not None:
                    vjobs.append(job)
                    continue
            # :meth:`_score_job`, inline: the chain's last segment is the new step.
            chain = table.get(("chain", lineage, prefix_caching))
            if chain is None:
                chain = self._segment_chain(lineage)
            step_tokens, soundness = path.step_tokens, path.soundness
            vjobs.append(VerifyJob(
                lineage=lineage,
                step_idx=len(step_tokens) - 1,
                path_segments=chain[:-1],
                path_segment_tokens=(prompt_tokens, *step_tokens[:-1]),
                new_segment=chain[-1],
                new_tokens=step_tokens[-1],
                # ``path.mean_soundness``'s own expression: the same float.
                mean_soundness=sum(soundness) / len(soundness) if soundness else 0.0,
            ))
        vjobs = self._schedule(vjobs, round_idx, "verify")
        verification = VerificationRound(
            self._ver_worker, self._prm, self._batch_pre, lookahead=lookahead
        )
        if self._trace is not None:
            cached_scores = sum(
                1 for job in vjobs if (job.lineage, job.step_idx) in self._score_cache
            )
        ver_result = verification.run(self._problem, vjobs, self._score_cache)
        self._score_cache.update(ver_result.lookahead_scores)
        for path in self._active:
            path.record_score(ver_result.scores[path.lineage])
        if self._trace is not None:
            self._trace.record(
                self.clock.now, "verification_round", round_idx,
                jobs=len(vjobs),
                prefilled_tokens=ver_result.stats.prefilled_tokens,
                cache_hit_tokens=ver_result.stats.cache_hit_tokens,
                lookahead_scores=len(ver_result.lookahead_scores),
                cached_scores=cached_scores,
            )
        if not cfg.prefix_caching:
            self._ver_worker.cache.evict_all(now=self.clock.now)

    def _score_job(self, path: ReasoningPath, **lookahead) -> VerifyJob:
        """Score ``path``'s newest step (it is already recorded, so the
        chain's last segment is the new one)."""
        chain = self._segment_chain(path.lineage)
        return VerifyJob(
            lineage=path.lineage,
            step_idx=path.steps_done - 1,
            path_segments=chain[:-1],
            path_segment_tokens=(self._problem.prompt_tokens, *path.step_tokens[:-1]),
            new_segment=chain[-1],
            new_tokens=path.step_tokens[-1],
            mean_soundness=path.mean_soundness,
            **lookahead,
        )

    def _verify_job(self, path: ReasoningPath, round_idx: int) -> VerifyJob | None:
        """The lookahead job of a path that passed the lookahead gate
        (lookahead on, step not terminal, :func:`lookahead_worthy`): it
        carries child 0's step when last round's speculation fully
        pre-generated it. None when it did not: the path's job is then
        the plain one, which :meth:`_verify_active` builds inline."""
        child_lineage = path.lineage + (0,)
        head = self._gen_result.head_starts.get(child_lineage)
        if head is not None and round_idx + 1 < self._max_steps:
            next_cap = self._algorithm.step_cap(round_idx + 1)
            generator, problem = self._generator, self._problem
            if head[0] >= generator.step_tokens(
                problem, child_lineage, round_idx + 1, next_cap
            ):
                child_step = generator.plan_step(
                    problem, child_lineage, round_idx + 1, next_cap
                )
                soundness = path.soundness + [child_step.soundness]
                return self._score_job(
                    path,
                    lookahead_child=child_lineage,
                    lookahead_segment=head[1],
                    lookahead_tokens=child_step.n_tokens,
                    lookahead_soundness=sum(soundness) / len(soundness),
                )
        return None

    # -- expansion ---------------------------------------------------------

    def _expand(self, decision, round_idx: int) -> list[ReasoningPath]:
        new_active: list[ReasoningPath] = []
        adopted: set[tuple[int, ...]] = set()
        gen_result = self._gen_result
        for expansion in decision.expansions:
            for child_index in range(expansion.n_children):
                child = expansion.path.make_child(child_index)
                head = gen_result.head_starts.get(child.lineage)
                if head is not None:
                    tokens, segment_id = head
                    kept = self._truncate_head(child.lineage, child_index, tokens)
                    if kept < tokens:
                        self._gen_cache.truncate_segment(
                            segment_id, kept, now=self.clock.now
                        )
                    if kept > 0:
                        self._heads_kept[child.lineage] = kept
                    self._counters.speculative_used += kept
                    self._counters.speculative_wasted += tokens - kept
                    adopted.add(child.lineage)
                new_active.append(child)
        for lineage, (tokens, _) in gen_result.head_starts.items():
            if lineage not in adopted:
                self._counters.speculative_wasted += tokens
        return new_active

    def _truncate_head(
        self, child_lineage: tuple[int, ...], child_index: int, head_tokens: int
    ) -> int:
        """Alg. 1 line 19: the original keeps all, duplicates keep ~R."""
        if child_index == 0:
            return head_tokens
        ratio = self._config.spec_truncation_ratio
        key = ("cut", child_lineage, ratio)
        fraction = self._table.get(key)
        if fraction is None:
            fraction = self._table[key] = self._rng.normal(
                "spec-truncation",
                self._problem.problem_id,
                child_lineage,
                loc=ratio,
                scale=_TRUNCATION_STD,
            )
        fraction = min(1.0, max(0.0, fraction))
        return int(round(fraction * head_tokens))

    # -- termination -------------------------------------------------------

    def _final_scoring(self) -> None:
        """Best-of-N outcome scoring: one full-path verification at the end."""
        self._swap_to("verifier")
        vjobs = [self._score_job(path) for path in self._collected]
        vjobs = self._schedule(vjobs, -1, "final")
        verification = VerificationRound(self._ver_worker, self._prm, self._batch_pre)
        ver_result = verification.run(self._problem, vjobs)
        for path in self._collected:
            path.record_score(ver_result.scores[path.lineage])

    # -- offloading --------------------------------------------------------

    def _swap_to(self, model: str) -> None:
        """Charge PCIe time when the active model changes under offloading."""
        if self._plan is None or not self._plan.offload:
            return
        if self._active_model == model:
            return
        outgoing, incoming = (
            (self._gen_worker, self._ver_worker)
            if model == "verifier"
            else (self._ver_worker, self._gen_worker)
        )
        out_bytes = outgoing.cache.resident_tokens * outgoing.model.kv_bytes_per_token
        in_bytes = incoming.cache.resident_tokens * incoming.model.kv_bytes_per_token
        self._charge_swap(
            self._server.link.swap_time(out_bytes, in_bytes), "swap",
            to=model, out_bytes=out_bytes, in_bytes=in_bytes,
        )
        self._active_model = model

    # -- result assembly -----------------------------------------------

    def _build_result(self) -> ProblemRunResult:
        now = self.clock.now
        # ``total_tokens`` and ``final_score``'s own expressions, inline.
        beams = tuple([
            BeamRecord(
                lineage=path.lineage,
                tokens=sum(path.step_tokens),
                completion_time=path.completion_time or now,
                answer=path.answer if path.answer is not None else -1,
                correct=bool(path.answer_correct),
                score=path.scores[-1] if path.scores else 0.0,
            )
            for path in self._collected
        ])
        latency = LatencyBreakdown(
            total=self.clock.now,
            generation=self._timer.get(Phase.GENERATION),
            verification=self._timer.get(Phase.VERIFICATION),
            swap=self._timer.get(Phase.SWAP),
        )
        return ProblemRunResult(
            problem_id=self._problem.problem_id,
            algorithm=self._algorithm.name,
            n=self._algorithm.n,
            beams=beams,
            latency=latency,
            tokens=self._counters,
            util_spans=tuple(self._spans or ()),
            gen_cache_hit_rate=self._gen_cache.stats.hit_rate,
            ver_cache_hit_rate=self._ver_cache.stats.hit_rate,
            gen_evicted_segments=self._gen_cache.stats.evicted_segments,
            ver_evicted_segments=self._ver_cache.stats.evicted_segments,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SolveSession({self.session_id}, state={self.state.value}, "
            f"round={self._round_idx}, t={self.clock.now:.3f})"
        )
