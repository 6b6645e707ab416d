"""Tests for the resumable SolveSession state machine.

The headline guarantee: a session stepped to completion is byte-identical
— same ``ProblemRunResult`` JSON, same ``SolveTrace`` JSONL — to the
pre-refactor monolithic solve loop, whose outputs are pinned in
``tests/goldens/solve_goldens.json`` (regenerate with
``tests/goldens/capture.py``).
"""

import cProfile
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.core import session as session_module
from repro.core.config import baseline_config, fasttts_config
from repro.core.generation_round import GenerationRound
from repro.core.server import TTSServer
from repro.core.session import SessionState, SolveSession
from repro.core.spec_select import SelectSpec
from repro.engine.telemetry import UtilSpan
from repro.engine.worker import GeneratorWorker, ModelWorker
from repro.errors import SchedulingError
from repro.experiments.reference import pure_search
from repro.kvcache.cache import PagedKVCache
from repro.llm.generator import StepPlan
from repro.search import tree as tree_module
from repro.search.registry import ALGORITHMS, build_algorithm
from repro.utils import rng as rng_module
from repro.utils.rng import KeyedRng, stream_counts
from repro.workloads.datasets import build_dataset

GOLDENS = json.loads(
    (Path(__file__).parent.parent / "goldens" / "solve_goldens.json").read_text()
)
N = 8
SEED = 3  # must match tests/goldens/capture.py


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("amc23", seed=SEED, size=2)


@pytest.fixture(scope="module")
def problem(dataset):
    return list(dataset)[0]


def make_server(dataset, system: str) -> TTSServer:
    factory = fasttts_config if system == "fasttts" else baseline_config
    return TTSServer(factory(memory_fraction=0.4, seed=SEED), dataset)


class TestGoldenEquivalence:
    """Session-stepped execution == the legacy run-to-completion monolith."""

    @pytest.mark.parametrize("system", ["baseline", "fasttts"])
    @pytest.mark.parametrize("algorithm_name", ALGORITHMS.names())
    def test_byte_identical_to_legacy_solve(
        self, dataset, problem, system, algorithm_name
    ):
        golden = GOLDENS[f"{system}/{algorithm_name}"]
        server = make_server(dataset, system)
        outcome = server.solve_detailed(
            problem, build_algorithm(algorithm_name, N), trace=True
        )
        assert outcome.result.to_json_dict() == golden["result"]
        assert outcome.trace.to_jsonl() == golden["trace"]

    @pytest.mark.parametrize(
        "label, arrivals",
        [
            ("fasttts/beam_search/preempt-mid", (5.0,)),
            ("fasttts/beam_search/preempt-immediate", (-1.0, 4.0)),
        ],
    )
    def test_arrival_preemption_byte_identical(
        self, dataset, problem, label, arrivals
    ):
        golden = GOLDENS[label]
        server = make_server(dataset, "fasttts")
        session = server.session(problem, build_algorithm("beam_search", N), trace=True)
        session.preempt_at = min(arrivals)
        outcome = session.run()
        assert outcome.result.to_json_dict() == golden["result"]
        assert outcome.trace.to_jsonl() == golden["trace"]

    def test_manual_stepping_matches_run(self, dataset, problem):
        """Driving step() by hand produces the same outcome as run()."""
        server = make_server(dataset, "fasttts")
        algo = build_algorithm("beam_search", N)
        stepped = server.session(problem, algo, trace=True)
        while stepped.state.live:
            stepped.step()
        golden = GOLDENS["fasttts/beam_search"]
        assert stepped.outcome.result.to_json_dict() == golden["result"]
        assert stepped.outcome.trace.to_jsonl() == golden["trace"]


class TestStateMachine:
    def test_lifecycle_transitions(self, dataset, problem):
        server = make_server(dataset, "baseline")
        session = server.session(problem, build_algorithm("beam_search", N))
        assert session.state is SessionState.ADMITTED
        assert session.step() is SessionState.GENERATING
        assert session.clock.now == 0.0  # setup is free
        assert session.step() is SessionState.VERIFYING
        assert session.clock.now > 0.0  # a generation round costs time
        seen = {SessionState.ADMITTED, SessionState.GENERATING,
                SessionState.VERIFYING}
        while session.state.live:
            seen.add(session.step())
        assert session.state is SessionState.DONE
        assert SessionState.FINALIZING in seen

    def test_alternates_generation_and_verification(self, dataset, problem):
        server = make_server(dataset, "baseline")
        session = server.session(problem, build_algorithm("beam_search", N))
        session.step()
        states = []
        while session.state.live:
            states.append(session.state)
            session.step()
        rounds = states[:-1] if states[-1] is SessionState.FINALIZING else states
        for i, state in enumerate(rounds):
            expected = (SessionState.GENERATING if i % 2 == 0
                        else SessionState.VERIFYING)
            assert state is expected

    def test_outcome_unavailable_before_done(self, dataset, problem):
        server = make_server(dataset, "baseline")
        session = server.session(problem, build_algorithm("beam_search", N))
        with pytest.raises(SchedulingError):
            _ = session.outcome

    def test_step_after_done_raises(self, dataset, problem):
        server = make_server(dataset, "baseline")
        session = server.session(problem, build_algorithm("beam_search", N))
        session.run()
        with pytest.raises(SchedulingError):
            session.step()

    def test_cancel(self, dataset, problem):
        server = make_server(dataset, "baseline")
        session = server.session(problem, build_algorithm("beam_search", N))
        session.step()
        session.step()
        session.cancel()
        assert session.state is SessionState.CANCELLED
        with pytest.raises(SchedulingError):
            session.step()
        with pytest.raises(SchedulingError):
            _ = session.outcome

    def test_cancel_after_done_raises(self, dataset, problem):
        server = make_server(dataset, "baseline")
        session = server.session(problem, build_algorithm("beam_search", N))
        session.run()
        with pytest.raises(SchedulingError):
            session.cancel()

    def test_run_on_cancelled_session_raises(self, dataset, problem):
        server = make_server(dataset, "baseline")
        session = server.session(problem, build_algorithm("beam_search", N))
        session.cancel()
        with pytest.raises(SchedulingError):
            session.run()

    def test_live_is_false_exactly_for_the_terminal_states(self):
        terminal = {SessionState.DONE, SessionState.CANCELLED}
        for member in SessionState:
            assert member.live == (member not in terminal), member

    @pytest.mark.parametrize("end", ["done", "cancelled"])
    def test_a_step_after_the_end_names_the_session_and_its_state(
        self, dataset, problem, end
    ):
        session = make_server(dataset, "baseline").session(
            problem, build_algorithm("beam_search", N), session_id="req-0007"
        )
        if end == "done":
            session.run()
        else:
            session.step()
            session.cancel()
        message = f"cannot step req-0007 in state {end}"
        with pytest.raises(SchedulingError, match=f"^{re.escape(message)}$"):
            session.step()
        assert session.state.value == end


class TestOccupancy:
    """``step(occupancy)``: a co-batched round bills its share of one weight
    read, and changes nothing but time."""

    @staticmethod
    def pair(dataset, problem):
        server = make_server(dataset, "fasttts")
        algo = build_algorithm("beam_search", N)
        solo, batched = server.session(problem, algo), server.session(problem, algo)
        for session in (solo, batched):
            session.step()  # ADMITTED -> GENERATING
        return solo, batched

    @staticmethod
    def timed_step(session, occupancy):
        before = session.clock.now
        session.step(occupancy)
        assert session._gen_worker.batch_share == 1
        assert session._ver_worker.batch_share == 1
        return session.clock.now - before

    @staticmethod
    def search(outcome):
        beams = [
            (b.lineage, b.tokens, b.answer, b.correct, b.score)
            for b in outcome.result.beams
        ]
        return beams, [path.lineage for path in outcome.collected]

    def test_a_shared_weight_read_is_cheaper_and_changes_no_answer(
        self, dataset, problem
    ):
        solo, batched = self.pair(dataset, problem)
        assert solo.state is batched.state is SessionState.GENERATING
        # Decode is bound by weight reads, so a quarter of them is faster.
        assert self.timed_step(batched, 4) < self.timed_step(solo, 1)
        assert solo.state is batched.state is SessionState.VERIFYING
        assert self.timed_step(batched, 4) <= self.timed_step(solo, 1)
        solo_outcome, batched_outcome = solo.run(), batched.run()
        assert self.search(batched_outcome) == self.search(solo_outcome)

    @pytest.mark.parametrize("system", ["baseline", "fasttts"])
    @pytest.mark.parametrize("algorithm_name", ALGORITHMS.names())
    def test_occupancy_moves_only_round_time(
        self, dataset, problem, system, algorithm_name
    ):
        """Stepped side by side, an ``occupancy=4`` session walks the same
        states: its generation rounds are strictly faster, its verification
        rounds no slower, setup and finalization take the same time, and it
        ends with the same search."""
        server = make_server(dataset, system)
        algo = build_algorithm(algorithm_name, N)
        solo, batched = server.session(problem, algo), server.session(problem, algo)
        while solo.state.live:
            state = solo.state
            assert batched.state is state
            solo_dt = self.timed_step(solo, 1)
            batched_dt = self.timed_step(batched, 4)
            # Each ``dt`` is a difference of two absolute clock readings,
            # so an equal span may differ in its last bits.
            if state is SessionState.GENERATING:
                assert batched_dt < solo_dt
            elif state is SessionState.VERIFYING:
                assert batched_dt <= solo_dt * (1 + 1e-12)
            else:
                assert batched_dt == pytest.approx(solo_dt, rel=1e-12)
        assert batched.state is solo.state is SessionState.DONE
        assert self.search(batched.outcome) == self.search(solo.outcome)


class TestInterleaving:
    def test_interleaved_sessions_match_isolated_runs(self, dataset):
        """Round-robin interleaving on one server changes nothing per solve."""
        problems = list(dataset)
        algo = build_algorithm("beam_search", N)

        isolated = {}
        for p in problems:
            server = make_server(dataset, "fasttts")
            isolated[p.problem_id] = server.solve_detailed(p, algo, trace=True)

        server = make_server(dataset, "fasttts")
        sessions = [server.session(p, algo, trace=True) for p in problems]
        while any(s.state.live for s in sessions):
            for session in sessions:
                if session.state.live:
                    session.step()
        for p, session in zip(problems, sessions):
            assert (session.outcome.result.to_json_dict()
                    == isolated[p.problem_id].result.to_json_dict())
            assert (session.outcome.trace.to_jsonl()
                    == isolated[p.problem_id].trace.to_jsonl())

    def test_sessions_have_private_clocks(self, dataset):
        problems = list(dataset)
        server = make_server(dataset, "baseline")
        algo = build_algorithm("beam_search", N)
        a = server.session(problems[0], algo)
        b = server.session(problems[1], algo)
        a.step(); a.step()  # setup + one generation round
        assert a.clock.now > 0.0
        assert b.clock.now == 0.0

    def test_forked_rng_session_diverges(self, dataset, problem):
        """An rng-forked replica explores a different sampled search."""
        server = make_server(dataset, "fasttts")
        algo = build_algorithm("beam_search", N)
        canonical = server.session(problem, algo).run()
        variant = server.session(
            problem, algo, rng=server.rng.fork("replica", 1)
        ).run()
        assert (canonical.result.to_json_dict()
                != variant.result.to_json_dict())


class TestServerWrappers:
    def test_solve_matches_session_run(self, dataset, problem):
        server = make_server(dataset, "fasttts")
        algo = build_algorithm("beam_search", N)
        via_wrapper = server.solve(problem, algo)
        via_session = server.session(problem, algo).run().result
        assert via_wrapper.to_json_dict() == via_session.to_json_dict()

    def test_a_solves_plans_are_tabled_on_its_generator(self, dataset, problem):
        server = make_server(dataset, "fasttts")
        session = server.session(problem, build_algorithm("beam_search", N))
        table = server.generator.tables[problem.problem_id]  # acquired, empty
        assert table == {}
        session.run()
        plans = [v for key, v in table.items() if key[0] == "plan"]
        assert any(isinstance(plan, StepPlan) for plan in plans)
        # A repeat plans from the table: nothing is derived, nothing added.
        entries, built = dict(table), stream_counts.built
        server.session(problem, build_algorithm("beam_search", N)).run()
        assert table == entries and stream_counts.built == built


class TestSpeculationSeam:
    """``has_child`` answers what the child planner would, without planning."""

    def test_has_child_agrees_with_the_planner(self, dataset, problem):
        session = make_server(dataset, "fasttts").session(
            problem, build_algorithm("beam_search", N)
        )
        live, terminal, unknown = (0,), (1,), (2,)
        plans = {live: StepPlan(40, False, 0.5), terminal: StepPlan(40, True, 0.5)}
        last_round = dataset.max_steps - 1
        answers = {}
        for round_idx in (0, last_round):
            planner, has_child = session._child_planner(plans, round_idx)
            assert not hasattr(has_child, "__code__")  # a builtin: no frame
            for parent in (live, terminal, unknown):
                answers[round_idx, parent] = has_child(parent)
                assert answers[round_idx, parent] == (planner(parent, 0) is not None)
        # Only a live parent before the last round can have a child.
        assert [key for key, yes in answers.items() if yes] == [(0, live)]

    def test_the_planner_refuses_a_child_of_no_tokens(
        self, dataset, problem, monkeypatch
    ):
        session = make_server(dataset, "fasttts").session(
            problem, build_algorithm("beam_search", N)
        )
        planner, _ = session._child_planner({(0,): StepPlan(40, False, 0.5)}, 0)
        child_lineage, segment_id, parent_segment, n_tokens = planner((0,), 1)
        assert child_lineage == (0, 1) and n_tokens > 0
        monkeypatch.setattr(
            type(session._generator), "step_tokens", lambda *args: 0
        )
        # Child 1's length is memoised now; child 2's is drawn, as 0.
        with pytest.raises(ValueError, match="n_tokens must be positive"):
            planner((0,), 2)


class TestInlineVerifyJobs:
    """A round builds each path's plain verification job in its own loop;
    the job equals :meth:`SolveSession._score_job`'s, field by field."""

    @pytest.mark.parametrize("system", ["baseline", "fasttts"])
    def test_an_inline_job_is_the_score_job(
        self, dataset, problem, monkeypatch, system
    ):
        expected, built = {}, []
        real_verify = SolveSession._verify_active
        real_run = session_module.VerificationRound.run

        def recording_verify(session, round_idx):
            for path in session._active:
                expected[session._round_idx, path.lineage] = session._score_job(path)
            return real_verify(session, round_idx)

        def recording_run(verification, problem, jobs, score_cache):
            built.append(list(jobs))
            return real_run(verification, problem, jobs, score_cache)

        monkeypatch.setattr(SolveSession, "_verify_active", recording_verify)
        monkeypatch.setattr(session_module.VerificationRound, "run", recording_run)
        make_server(dataset, system).solve(problem, build_algorithm("beam_search", 16))
        plain = lookahead = 0
        for round_idx, jobs in enumerate(built):
            for job in jobs:
                if job.lookahead_child is not None:
                    lookahead += 1
                    continue
                plain += 1
                assert job == expected[round_idx, job.lineage]
        assert plain > 16
        assert (lookahead > 0) == (system == "fasttts")


class TestDeriveOnce:
    """One n=64 FastTTS solve — the paper's wide-beam case — derives each
    fact once, and draws only what it consumes. Deterministic: these are
    call and stream counts, not timings."""

    WIDTH = 64
    #: Python-level calls of this very solve before segment ids were kept
    #: with the lineage, subtree constants memoised and KV growth batched
    #: (1 024 951), after that (245 842), with speculative children
    #: drawing only their length (236 873), with the paged KV cache
    #: keeping its books in place (154 169), with each launch charged and
    #: each key hashed in one pass (138 779), with each segment carrying
    #: its root path (119 773 measured), and with keyed draws at their
    #: straight-line floor and no child length drawn to learn whether a
    #: finished beam can have children (114 787 before, 108 076 measured),
    #: and with each step value derived once per generator, no first-draw
    #: memo in front of every draw and ties hashed only when scores tie
    #: (102 434 measured), and with each admission burst pinned in one
    #: cache call and a segment registered in one (102 407 before, 91 897
    #: measured), and with each launch billed in one ``_charge`` and the
    #: clock's time a plain attribute (91 895 before, 82 361 measured),
    #: and with each launch priced inline in the worker, a slot built in
    #: one call, the speculation heap ordered by tuples and jobs sorted by
    #: an ``attrgetter`` key (81 371 before, 69 063 measured), and with the
    #: session's lifecycle, the search budget and the binding's anchor
    #: plain attributes, each child plan checked by its planner and a
    #: beam's last score read inline (69 096 before, 66 500 measured), and
    #: with each beam's jobs built in the loop that holds it, a decode
    #: span's batch grown inline and a launch moving the clock itself
    #: (66 469 before, 56 231 measured), and with a decode round working
    #: at events (admission and speculation entered only when they can
    #: act, a planner returning plain values from the step table's memos,
    #: finished beams settled inline) and a path finalized where it is
    #: verified (56 263 before, 51 516 measured), and with the fleet's
    #: preemption one deadline compared only while speculating and a
    #: speculative candidate's potential computed inline (51 445 before,
    #: 50 787 measured), and with each speculation fill claimed, registered
    #: and pinned as one burst and a head start a bare pair (50 276 before,
    #: 47 917 measured; the bound keeps the 1 013 calls of headroom it had).
    CALLS_NOW = 48_950
    #: Distinct strings the solve hashes: with a cold memo, each is one
    #: ``_encode_part`` call, and they were all of that function's calls
    #: before keys were encoded in one pass.
    STR_MISSES = 20
    #: The part of them made in ``repro/kvcache/``: 103 235 while each
    #: segment transition went through block, LRU and statistics helpers,
    #: 26 488 while each path operation walked the parent links, 14 123
    #: while each beam was pinned by its own calls, 8 092 while a span's
    #: ``grow_span`` and a leaving tail's ``release_tail`` took over from
    #: ``extend_segments`` and the plain unpin one for one, 6 867 since each
    #: speculation fill registers and pins its heads in one ``pin_paths``.
    KVCACHE_CALLS_NOW = 6_925

    def solve(self, dataset, problem):
        server = make_server(dataset, "fasttts")
        return server.solve_detailed(problem, build_algorithm("beam_search", self.WIDTH))

    def test_segment_ids_and_subtree_constants_are_drawn_once(
        self, dataset, problem, monkeypatch, streams_built
    ):
        hashed = Counter()
        real_hash = tree_module.stable_hash64

        def counting_hash(*parts):
            if parts[0] == "segment" and isinstance(parts[2], tuple):
                hashed[parts] += 1
            return real_hash(*parts)

        monkeypatch.setattr(tree_module, "stable_hash64", counting_hash)
        monkeypatch.setattr(session_module, "stable_hash64", counting_hash)
        outcome = self.solve(dataset, problem)

        # Every step segment's id is hashed once, however many rounds, jobs
        # and speculative plans name it ...
        assert len(hashed) > len(outcome.collected)
        assert set(hashed.values()) == {1}
        # ... and each (problem, root branch) constant is one stream built.
        drawn = {
            key: n for key, n in streams_built.items()
            if key[0] in ("approach", "subtree-bias")
        }
        assert drawn == {
            (label, problem.problem_id, root): 1
            for label in ("approach", "subtree-bias")
            for root in range(self.WIDTH)
        }

    def test_soundness_and_termination_are_drawn_only_for_steps_taken(
        self, dataset, problem, monkeypatch, streams_built
    ):
        lookahead = set()
        real_run = session_module.VerificationRound.run

        def recording_run(verification, problem, jobs, score_cache):
            lookahead.update(
                (job.lookahead_child, job.step_idx + 1)
                for job in jobs if job.lookahead_child is not None
            )
            return real_run(verification, problem, jobs, score_cache)

        monkeypatch.setattr(session_module.VerificationRound, "run", recording_run)
        algorithm = build_algorithm("beam_search", self.WIDTH)
        make_server(dataset, "fasttts").solve(problem, algorithm)
        solved = Counter(streams_built)  # the reference below draws its own

        # FastTTS selects what the serving-free search selects, so that
        # search names the (lineage, step) pairs that were ever active; the
        # verifier's jobs name the children offered for lookahead scoring.
        reference = pure_search(problem, dataset, algorithm, seed=SEED)
        taken = {
            (lineage, round_idx)
            for round_idx, lineages in enumerate(reference.rounds)
            for lineage in lineages
        }
        assert lookahead - taken

        by_label = {
            label: Counter(
                {key[2:]: n for key, n in solved.items() if key[0] == label}
            )
            for label in ("step-len", "soundness", "terminal")
        }
        assert set(by_label["soundness"]) == taken | lookahead
        assert set(by_label["terminal"]) <= taken | lookahead
        # Speculative children that were never adopted drew a length only.
        assert set(by_label["step-len"]) > taken | lookahead
        for counts in by_label.values():
            assert set(counts.values()) == {1}

    def test_a_finished_beam_is_offered_without_a_draw(
        self, dataset, problem, monkeypatch, streams_built
    ):
        """A round learns whether a finished beam can have children from
        its plan, not by planning child 0: it draws step lengths only for
        the children speculation claims."""
        offered, claimed, drawn = set(), set(), set()
        real_offer, real_claim = SelectSpec.offer, SelectSpec.claim
        real_run = GenerationRound.run

        def recording_offer(selector, lineage, prev_score):
            offered.add(lineage)
            return real_offer(selector, lineage, prev_score)

        def recording_claim(selector, k):
            claims = real_claim(selector, k)
            claimed.update(parent + (child,) for parent, child in claims)
            return claims

        def recording_run(gen_round, jobs):
            before = Counter(streams_built)
            result = real_run(gen_round, jobs)
            drawn.update(
                key[2] for key in streams_built - before if key[0] == "step-len"
            )
            return result

        monkeypatch.setattr(SelectSpec, "offer", recording_offer)
        monkeypatch.setattr(SelectSpec, "claim", recording_claim)
        monkeypatch.setattr(GenerationRound, "run", recording_run)
        self.solve(dataset, problem)

        # Some finished beams were offered and never had a child planned ...
        assert offered - {child[:-1] for child in claimed}
        # ... and no round drew a length for a child it did not claim.
        assert drawn and drawn <= claimed

    def test_a_one_beam_round_is_not_shuffled(self, dataset, problem, streams_built):
        server = make_server(dataset, "baseline")
        server.solve(problem, build_algorithm("beam_search", 1))
        assert streams_built
        assert not [key for key in streams_built if key[0] == "random-order"]
        server.solve(problem, build_algorithm("beam_search", 4))
        assert [key for key in streams_built if key[0] == "random-order"]

    def test_a_repeat_solve_builds_no_stream_but_a_forked_replica_does(
        self, dataset, problem, monkeypatch
    ):
        server = make_server(dataset, "fasttts")
        algorithm = build_algorithm("beam_search", N)
        first = server.solve(problem, algorithm)
        built = stream_counts.built

        hashed = Counter()
        real_hash = rng_module._hash64

        def counting_hash(prefix, parts):
            hashed[parts] += 1
            return real_hash(prefix, parts)

        monkeypatch.setattr(rng_module, "_hash64", counting_hash)
        again = server.solve(problem, algorithm)
        assert again.to_json_dict() == first.to_json_dict()
        # Every value the repeat reads, the first solve derived: no stream
        # is built and no key is even hashed.
        assert stream_counts.built == built
        assert not hashed

        # A first_finish replica solves on a forked rng: other keys, other
        # values, its own streams.
        replica = server.session(problem, algorithm, rng=server.rng.fork("replica", 1))
        replica.run()
        assert stream_counts.built > built

    def test_the_select_rng_is_forked_once_per_generator(
        self, dataset, problem, monkeypatch
    ):
        algorithm = build_algorithm("beam_search", N)
        # Selection runs once per round but the last.
        assert pure_search(problem, dataset, algorithm, seed=SEED).n_rounds > 2
        forks = Counter()
        real_fork = KeyedRng.fork

        def counting_fork(rng, *key):
            forks[key] += 1
            return real_fork(rng, *key)

        monkeypatch.setattr(KeyedRng, "fork", counting_fork)
        server = make_server(dataset, "fasttts")
        for _ in range(2):
            server.session(problem, algorithm).run()
        assert forks[("select",)] == 1
        assert server.generator.select_rng.seed == server.rng.fork("select").seed

    def test_total_python_calls_stay_derived_once(self, dataset, problem):
        profiler = cProfile.Profile(subcalls=False, builtins=False)
        profiler.enable()
        outcome = self.solve(dataset, problem)
        profiler.disable()
        assert len(outcome.collected) >= self.WIDTH
        calls = sum(entry.callcount for entry in profiler.getstats())
        assert calls <= self.CALLS_NOW

    def test_the_paged_cache_keeps_its_books_in_place(self, dataset, problem):
        """Block counts, LRU filing and statistics move inside the loops
        that hold the segment: no helper is called per transition, and
        eviction is only entered on a shortfall."""
        profiler = cProfile.Profile(subcalls=False, builtins=False)
        profiler.enable()
        outcome = self.solve(dataset, problem)
        profiler.disable()
        calls = Counter()
        for entry in profiler.getstats():
            code = entry.code
            if isinstance(code, str):
                continue  # a builtin
            if Path(code.co_filename).parent.name == "kvcache":
                calls[code.co_qualname] += entry.callcount
        assert sum(calls.values()) <= self.KVCACHE_CALLS_NOW
        for helper in (
            "BlockPool.free_blocks", "BlockPool.allocate", "CacheStats.record",
            "PagedKVCache.segment", "RadixTree.__contains__",
        ):
            assert calls[helper] == 0, helper
        result = outcome.result
        evicted = result.gen_evicted_segments + result.ver_evicted_segments
        assert 0 < calls["PagedKVCache._evict_for"] <= evicted

    def test_a_path_op_walks_nothing(self, dataset, problem, monkeypatch):
        """A path operation reads the root path its leaf carries and pins
        or unpins in its own loop; the decode loop keeps what is fixed for
        the round instead of re-deriving it per span."""
        jobs_per_round = []
        real_run = GenerationRound.run

        def counting_run(gen_round, jobs):
            jobs_per_round.append(len(jobs))
            return real_run(gen_round, jobs)

        pinned, fills = [], []
        real_pin_paths = PagedKVCache.pin_paths

        def counting_pin_paths(cache, *args, **kwargs):
            splits = real_pin_paths(cache, *args, **kwargs)
            pinned.append(len(splits) - splits.count(None))  # a fill's refusals
            if kwargs.get("heads"):
                fills.append(len(splits))
            return splits

        monkeypatch.setattr(GenerationRound, "run", counting_run)
        monkeypatch.setattr(PagedKVCache, "pin_paths", counting_pin_paths)
        profiler = cProfile.Profile(subcalls=False, builtins=False)
        profiler.enable()
        self.solve(dataset, problem)
        profiler.disable()
        calls = Counter()
        for entry in profiler.getstats():
            if not isinstance(entry.code, str):
                calls[entry.code.co_qualname] += entry.callcount
        # Every pin is released exactly once, and every pin is a burst's.
        assert sum(pinned) > 0
        assert calls["PagedKVCache.release_tail"] == sum(pinned)
        assert calls["PagedKVCache.materialize"] == 0
        # A speculation burst is one claim and one cache call, which
        # registers its heads (``register_segment`` was one call per head).
        assert sum(fills) > len(fills) == calls["SelectSpec.claim"] > 0
        assert calls["PagedKVCache.register_segment"] < sum(fills)
        # No generator is left in a round: no span scans the batch to ask
        # whether a standard slot is still running, and the slots are
        # built without a resumed call per job.
        assert jobs_per_round
        assert calls["GenerationRound.run.<locals>.<genexpr>"] == 0

    def test_a_launch_and_a_keyed_hash_are_one_pass(self, dataset, problem):
        """The worker prices a launch itself, in one ``_charge`` that moves
        the clock itself: no launch calls into the clock, the roofline or
        the cost functions, which only the allocator's plan search still
        asks. A span is kept by comparing its ends; and a key is encoded
        inside ``_hash64``, whose fallback sees only what the one-pass
        encoder does not spell out."""
        rng_module._encode_str.cache_clear()  # its misses call _encode_part
        profiler = cProfile.Profile(builtins=False)  # subcalls: who calls what
        profiler.enable()
        self.solve(dataset, problem)
        profiler.disable()
        launches = {
            ModelWorker._charge.__code__, ModelWorker.prefill_batch.__code__,
            GeneratorWorker.decode_span.__code__,
        }
        calls, worker_callees = Counter(), Counter()
        for entry in profiler.getstats():
            code = entry.code
            if isinstance(code, str):
                continue
            calls[code.co_qualname] += entry.callcount
            if code in launches:
                for sub in entry.calls or ():
                    if not isinstance(sub.code, str):
                        worker_callees[sub.code] += sub.callcount
        assert calls["UtilSpan.duration"] == 0
        assert calls["_encode_parts"] == 0
        assert calls["ModelWorker._charge"] > 0
        # A launch bills itself and keeps its span, nothing else: no
        # ``SimClock.advance``, ``Roofline.point``, ``decode_step_cost``,
        # ``prefill_cost`` or ``StageCost``.
        assert set(worker_callees) == {
            ModelWorker._charge.__code__, UtilSpan.__init__.__code__,
        }
        # Only the allocator's plan search prices through the roofline.
        assert calls["Roofline.point"] == calls["Roofline.latency"] > 0
        # Only swap charges call the clock to move it.
        assert calls["SimClock.advance"] == calls["SolveSession._charge_swap"]
        # The fallback encodes the string memo's misses and each KeyedRng's
        # seed, nothing else of a key.
        misses = rng_module._encode_str.cache_info().misses
        assert misses <= self.STR_MISSES
        assert calls["_encode_part"] == misses + calls["KeyedRng.__init__"]


class TestBaselineCacheCalls:
    """The paper's baseline keeps no prefix cache across calls: every
    round registers each beam's private chain and flushes both caches.
    One call registers a chain and one flushes a cache, however long the
    chain and however many victims."""

    #: Python calls in ``repro/kvcache/`` of one n=1 baseline solve: 96
    #: while a chain was registered and a flush evicted segment by
    #: segment, 42 since.
    KVCACHE_CALLS_NOW = 45

    def test_a_chain_and_a_flush_are_one_call_each(self, dataset, problem):
        server = make_server(dataset, "baseline")
        profiler = cProfile.Profile(subcalls=False, builtins=False)
        profiler.enable()
        outcome = server.solve_detailed(problem, build_algorithm("beam_search", 1))
        profiler.disable()
        calls = Counter()
        for entry in profiler.getstats():
            code = entry.code
            if not isinstance(code, str) and Path(code.co_filename).parent.name == "kvcache":
                calls[code.co_qualname] += entry.callcount
        assert sum(calls.values()) <= self.KVCACHE_CALLS_NOW
        result = outcome.result
        evicted = result.gen_evicted_segments + result.ver_evicted_segments
        assert evicted > calls["PagedKVCache.evict_all"] > 0
        for helper in (
            "PagedKVCache._evict_segment", "PagedKVCache._pop_candidate",
            "PagedKVCache._evict_for",
        ):
            assert calls[helper] == 0, helper
        # Only the prompt roots are registered one by one, at setup.
        assert calls["PagedKVCache.register_segment"] == 2
        assert calls["PagedKVCache.register_chain"] > 0
