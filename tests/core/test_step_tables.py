"""Step tables: each keyed step value is derived once per generator/PRM pair.

A canonical session reads plans, lengths, scores, answers, segment chains
and truncation cuts from its pair's tables, so a repeat request for a
problem — on the same server or on any lane of a homogeneous pool —
derives nothing. A forked replica, a heterogeneous lane and another pool
each draw on a pair of their own.
"""

import dataclasses
import json
from collections import Counter

import pytest

from repro.core.config import baseline_config, fasttts_config
from repro.core.fleet import TTSFleet
from repro.core.pool import DevicePool
from repro.core.server import TTSServer
from repro.routing.lanes import LaneSpec
from repro.search.registry import build_algorithm
from repro.utils import rng as rng_module
from repro.utils.rng import StepTables, stream_counts
from repro.workloads.datasets import build_dataset

SEED = 3


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("amc23", seed=SEED, size=2)


@pytest.fixture(scope="module")
def problem(dataset):
    return list(dataset)[0]


def owners(server):
    return server.generator, server.prm


def snapshot(server) -> list[dict]:
    """Every table entry of the server's pair, copied."""
    return [
        {pid: dict(table) for pid, table in owner.tables.items()}
        for owner in owners(server)
    ]


@pytest.fixture
def hashed(monkeypatch) -> Counter:
    """Keys hashed (streams seeded, forks and segment ids) during the test."""
    keys: Counter = Counter()
    real_hash = rng_module._hash64

    def counting_hash(prefix, parts):
        keys[parts] += 1
        return real_hash(prefix, parts)

    monkeypatch.setattr(rng_module, "_hash64", counting_hash)
    return keys


class TestRepeats:
    def test_a_sibling_lane_of_a_homogeneous_pool_derives_nothing(
        self, dataset, problem, hashed
    ):
        pool = DevicePool.build(
            fasttts_config(memory_fraction=0.4, seed=SEED), dataset,
            device_names=["rtx4090", "rtx4090"],
        )
        first, sibling = pool[0].server, pool[1].server
        assert first is not sibling and first.rng is not sibling.rng
        assert first.generator is sibling.generator and first.prm is sibling.prm

        algorithm = build_algorithm("beam_search", 8)
        solved = first.solve(problem, algorithm)
        built = stream_counts.built
        hashed.clear()
        again = sibling.solve(problem, algorithm)
        assert again.to_json_dict() == solved.to_json_dict()
        assert stream_counts.built == built
        assert not hashed

    def test_a_repeat_still_skips_verifier_prefill_exactly_as_before(
        self, dataset, problem
    ):
        """Scores are tabled, but which verify jobs skip prefill is the
        session's own lookahead score cache: a repeat solve with every
        score already tabled runs the same rounds at the same cost."""
        server = TTSServer(fasttts_config(memory_fraction=0.4, seed=SEED), dataset)
        algorithm = build_algorithm("beam_search", 16)
        first = server.solve_detailed(problem, algorithm, trace=True)
        rows = [json.loads(line) for line in first.trace.to_jsonl().splitlines()]
        assert sum(
            row["cached_scores"] for row in rows
            if row["kind"] == "verification_round"
        ) > 0
        again = server.solve_detailed(problem, algorithm, trace=True)
        assert again.trace.to_jsonl() == first.trace.to_jsonl()
        fresh = TTSServer(fasttts_config(memory_fraction=0.4, seed=SEED), dataset)
        assert fresh.solve_detailed(
            problem, algorithm, trace=True
        ).trace.to_jsonl() == first.trace.to_jsonl()


class TestNothingShared:
    def test_a_forked_replica_draws_on_its_own_pair(self, dataset, problem):
        config = fasttts_config(memory_fraction=0.4, seed=SEED)
        server = TTSServer(config, dataset)
        algorithm = build_algorithm("beam_search", 8)
        server.solve(problem, algorithm)
        canonical = snapshot(server)

        replica = server.session(problem, algorithm, rng=server.rng.fork("ffs", 1))
        got = replica.run().result
        # Its answers are a fresh solve's on the same fork ...
        fresh = TTSServer(config, dataset)
        expected = fresh.session(problem, algorithm, rng=fresh.rng.fork("ffs", 1))
        assert got.to_json_dict() == expected.run().result.to_json_dict()
        # ... and the canonical tables neither lent nor took a value.
        assert snapshot(server) == canonical
        assert replica._generator is not server.generator

    def test_an_int8_lane_shares_nothing_with_an_unquantised_one(self, dataset):
        pool = DevicePool.build(
            fasttts_config(memory_fraction=0.9, seed=SEED), dataset,
            lanes=[
                LaneSpec("1.5B+1.5B", "rtx4090"),
                LaneSpec("1.5B+1.5B", "rtx4090", dtype="int8"),
                LaneSpec("1.5B+1.5B", "rtx4090"),
            ],
        )
        plain, int8, twin = (lane.server for lane in pool)
        assert twin.generator is plain.generator and twin.prm is plain.prm
        for a, b in zip(owners(plain), owners(int8)):
            assert a is not b and a.tables is not b.tables

    def test_two_pools_in_one_process_share_nothing(self, dataset, problem):
        def pool():
            return DevicePool.build(
                baseline_config(memory_fraction=0.4, seed=SEED), dataset,
                device_names=["rtx4090", "rtx4090"],
            )

        one, two = pool(), pool()
        one[0].server.solve(problem, build_algorithm("beam_search", 4))
        for a, b in zip(owners(one[0].server), owners(two[0].server)):
            assert a is not b
            assert a.tables and not b.tables


class TestBounded:
    def test_a_trace_ten_times_the_cap_keeps_entries_at_or_below_it(
        self, monkeypatch
    ):
        dataset = build_dataset("amc23", seed=SEED, size=40)

        def drain():
            fleet = TTSFleet(baseline_config(memory_fraction=0.4, seed=SEED), dataset)
            for index, problem in enumerate(dataset):
                fleet.submit(problem, build_algorithm("beam_search", 4), index * 2.0)
            return [dataclasses.asdict(record) for record in fleet.drain().records]

        entries: dict[int, list[int]] = {}
        real_acquire = StepTables.acquire

        def recording_acquire(tables, problem_id):
            table = real_acquire(tables, problem_id)
            seen = entries.setdefault(id(tables), [])
            seen.append((sum(map(len, tables.values())), len(tables)))
            return table

        monkeypatch.setattr(StepTables, "acquire", recording_acquire)
        monkeypatch.setattr(rng_module, "TABLE_CAP", 10**9)
        unbounded = drain()
        grown = max(max(seen)[0] for seen in entries.values())
        cap = grown // 10
        assert cap > 0

        entries.clear()
        monkeypatch.setattr(rng_module, "TABLE_CAP", cap)
        assert drain() == unbounded  # values never depend on the tables
        assert max(max(seen)[0] for seen in entries.values()) <= cap
        # ... so whole problems were evicted on the way.
        assert max(max(n for _, n in seen) for seen in entries.values()) < len(dataset)
