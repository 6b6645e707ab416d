"""Tests for ``orchestrate`` (worker pool + result cache) and the cache itself."""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.experiments import figures as F
from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    cache_key,
    default_cache_dir,
)
from repro.experiments.runner import (
    ExperimentSpec,
    orchestrate,
    run_metrics,
    run_pair,
    run_pairs,
    run_problem,
    sweep_n,
)

SPEC = ExperimentSpec(
    dataset_name="amc23", dataset_size=1, model_config="1.5B+1.5B",
    algorithm="beam_search", n=4, seed=0,
)


class TestCacheKey:
    def test_stable(self):
        config = SPEC.build_config(fast=False)
        assert cache_key(SPEC, config) == cache_key(SPEC, config)

    def test_spec_content_changes_key(self):
        config = SPEC.build_config(fast=False)
        other = ExperimentSpec(
            dataset_name="amc23", dataset_size=1, model_config="1.5B+1.5B",
            algorithm="beam_search", n=4, seed=1,
        )
        assert cache_key(SPEC, config) != cache_key(other, other.build_config(fast=False))

    def test_config_content_changes_key(self):
        base = SPEC.build_config(fast=False)
        fast = SPEC.build_config(fast=True)
        assert cache_key(SPEC, base) != cache_key(SPEC, fast)

    def test_kind_separates_namespaces(self):
        config = SPEC.build_config(fast=False)
        assert cache_key(SPEC, config, kind="run") != cache_key(
            SPEC, config, kind="problem", problem_index=0
        )

    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = SPEC.build_config(fast=False)
        key = cache_key(SPEC, config)
        assert cache.load_metrics(key) is None
        assert cache.misses == 1

        with orchestrate(cache=cache):
            metrics, results = run_metrics(SPEC, config)
        assert results  # fresh run carries per-problem results
        assert cache.load_metrics(key) is not None
        assert cache.hits == 1

    def test_round_trip_is_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = SPEC.build_config(fast=True)
        with orchestrate(cache=cache):
            fresh, _ = run_metrics(SPEC, config)
            replay, replay_results = run_metrics(SPEC, config)
        assert replay == fresh  # bit-identical floats through JSON
        assert replay_results == []  # aggregate-only on a hit

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = SPEC.build_config(fast=False)
        key = cache_key(SPEC, config)
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text("{not json")
        assert cache.load_metrics(key) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = SPEC.build_config(fast=False)
        key = cache_key(SPEC, config)
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text(
            json.dumps({"schema": CACHE_SCHEMA_VERSION + 1, "kind": "run"})
        )
        assert cache.load_metrics(key) is None

    def test_entries_record_provenance(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = SPEC.build_config(fast=False)
        with orchestrate(cache=cache):
            run_metrics(SPEC, config)
        payload = json.loads(cache.path_for(cache_key(SPEC, config)).read_text())
        assert payload["spec"]["dataset_name"] == "amc23"
        assert payload["config"]["speculation"] is False

    def test_concurrent_stores_of_one_key(self, tmp_path):
        # Writers of one key (threads here, or two runs sharing a cache
        # directory) each write their own temp file before the atomic
        # replace, so none finds its temp file already moved away.
        cache = ResultCache(tmp_path)
        config = SPEC.build_config(fast=False)
        metrics, _ = run_metrics(SPEC, config)
        key = cache_key(SPEC, config)

        def store_repeatedly(_):
            for _ in range(50):
                cache.store_metrics(key, SPEC, config, metrics)

        with ThreadPoolExecutor(max_workers=4) as pool:
            for done in [pool.submit(store_repeatedly, i) for i in range(4)]:
                done.result()  # re-raises any writer's error
        assert cache.load_metrics(key) == metrics
        assert [path.name for path in tmp_path.iterdir()] == [f"{key}.json"]

    def test_problem_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = SPEC.build_config(fast=False)
        with orchestrate(cache=cache):
            fresh = run_problem(SPEC, config)
            replay = run_problem(SPEC, config)
        assert replay == fresh
        assert cache.hits == 1

    def test_foreign_dataset_bypasses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = SPEC.build_config(fast=False)
        foreign = ExperimentSpec(
            dataset_name="aime24", dataset_size=1, n=4
        ).build_dataset()
        with orchestrate(cache=cache):
            run_metrics(SPEC, config, dataset=foreign)
        assert cache.load_metrics(cache_key(SPEC, config)) is None

    def test_same_shape_different_seed_bypasses_cache(self, tmp_path):
        # Same dataset name and size but another seed: only the problem ids
        # betray the difference — the guard must still refuse to cache.
        cache = ResultCache(tmp_path)
        config = SPEC.build_config(fast=False)
        reseeded = ExperimentSpec(
            dataset_name="amc23", dataset_size=1, n=4, seed=7
        ).build_dataset()
        with orchestrate(cache=cache):
            run_metrics(SPEC, config, dataset=reseeded)
        assert cache.load_metrics(cache_key(SPEC, config)) is None

    def test_orchestrated_pair_honours_foreign_dataset(self, tmp_path):
        # A run_pair on a hand-picked dataset must solve *that* dataset even
        # when orchestrated — matching the in-process path, uncached.
        reseeded = ExperimentSpec(
            dataset_name="amc23", dataset_size=1, n=4, seed=7
        ).build_dataset()
        direct = run_pair(SPEC, dataset=reseeded)
        cache = ResultCache(tmp_path)
        with orchestrate(cache=cache):
            routed = run_pair(SPEC, dataset=reseeded)
        assert routed.baseline == direct.baseline
        assert routed.fasttts == direct.fasttts
        assert cache.hits == 0 and cache.misses == 0


class TestParallelEquivalence:
    def test_process_parallel_matches_in_process(self):
        direct = run_pair(SPEC)
        with orchestrate(jobs=2):
            parallel = run_pair(SPEC)
        assert parallel.baseline == direct.baseline
        assert parallel.fasttts == direct.fasttts

    def test_sweep_matches_in_process(self, tmp_path):
        direct = sweep_n(SPEC, [4, 8])
        with orchestrate(jobs=2, cache=ResultCache(tmp_path)):
            sharded = sweep_n(SPEC, [4, 8])
            replay = sweep_n(SPEC, [4, 8])
        for seq, par, rep in zip(direct, sharded, replay):
            assert par.baseline == seq.baseline and par.fasttts == seq.fasttts
            assert rep.baseline == seq.baseline and rep.fasttts == seq.fasttts

    def test_run_pairs_keeps_spec_order(self):
        specs = [replace(SPEC, n=8), SPEC, replace(SPEC, n=8)]
        with orchestrate(jobs=2):
            sharded = run_pairs(specs)
        assert [pair.spec for pair in sharded] == specs
        assert sharded == [run_pair(spec) for spec in specs]


class TestOrchestrate:
    def test_installs_and_restores(self, tmp_path):
        outer, inner = ResultCache(tmp_path / "outer"), ResultCache(tmp_path / "inner")
        with orchestrate(cache=outer):
            first = run_pair(SPEC)
            with orchestrate(cache=inner):
                run_pair(SPEC)
            again = run_pair(SPEC)
        run_pair(SPEC)  # outside every block: neither cache is read
        assert again == first
        assert (outer.hits, outer.misses) == (2, 2)
        assert (inner.hits, inner.misses) == (0, 2)

    def test_run_metrics_routes_through_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = SPEC.build_config(fast=False)
        with orchestrate(cache=cache):
            run_metrics(SPEC, config)
            _, results = run_metrics(SPEC, config)
        assert results == []
        assert cache.hits == 1

    def test_run_problem_routes_through_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = SPEC.build_config(fast=False)
        direct = run_problem(SPEC, config)
        with orchestrate(cache=cache):
            assert run_problem(SPEC, config) == direct
            assert run_problem(SPEC, config) == direct
        assert cache.hits == 1

    @pytest.mark.parametrize(
        "figure, kwargs",
        [
            (F.fig16_ablation, dict(n=4, problems=1)),
            (F.fig1b_frontier, dict(n_values=(4, 8), problems=1)),
        ],
    )
    def test_figures_route_through_the_cache(self, tmp_path, figure, kwargs):
        reference = figure(**kwargs)
        cache = ResultCache(tmp_path)
        with orchestrate(cache=cache):
            fresh = figure(**kwargs)
        misses = cache.misses
        with orchestrate(cache=cache):
            replay = figure(**kwargs)
        assert fresh == reference and replay == reference
        assert misses > 0 and cache.misses == misses  # the replay missed nothing

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            with orchestrate(jobs=0):
                pass

    def test_problem_index_out_of_range(self):
        with pytest.raises(IndexError):
            run_problem(SPEC, SPEC.build_config(fast=False), problem_index=5)
