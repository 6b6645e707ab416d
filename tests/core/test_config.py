"""Tests for server configuration."""

import pytest

from repro.core.config import OffloadMode, ServerConfig, baseline_config, fasttts_config
from repro.errors import ConfigError


class TestServerConfig:
    def test_baseline_all_off(self):
        cfg = baseline_config()
        assert not cfg.speculation
        assert not cfg.prefix_caching
        assert not cfg.prefix_aware
        assert not cfg.asymmetric_alloc
        assert not cfg.lookahead
        assert cfg.offload is OffloadMode.OFF

    def test_fasttts_all_on(self):
        cfg = fasttts_config()
        assert cfg.speculation and cfg.prefix_caching and cfg.prefix_aware
        assert cfg.asymmetric_alloc and cfg.lookahead
        assert cfg.offload is OffloadMode.AUTO

    def test_lookahead_requires_speculation(self):
        with pytest.raises(ConfigError):
            ServerConfig(lookahead=True)

    def test_prefix_aware_requires_caching(self):
        with pytest.raises(ConfigError):
            ServerConfig(prefix_aware=True)

    def test_speculation_requires_caching(self):
        with pytest.raises(ConfigError):
            ServerConfig(speculation=True)

    def test_memory_fraction_bounds(self):
        with pytest.raises(ConfigError):
            ServerConfig(memory_fraction=0.0)
        with pytest.raises(ConfigError):
            ServerConfig(memory_fraction=1.5)

    def test_truncation_ratio_bounds(self):
        with pytest.raises(ConfigError):
            ServerConfig(spec_truncation_ratio=1.1)

    @pytest.mark.parametrize(
        "fraction", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0]
    )
    def test_spec_bandwidth_fraction_must_be_positive_and_finite(self, fraction):
        # NaN and inf used to pass a ``<= 0`` test, then crash mid-solve
        # converting the speculation slot cap to an int.
        with pytest.raises(ConfigError, match="positive and finite"):
            ServerConfig(spec_bandwidth_fraction=fraction)

    def test_with_overrides(self):
        cfg = fasttts_config().with_overrides(seed=9)
        assert cfg.seed == 9
        assert cfg.speculation

    def test_with_overrides_unknown_key(self):
        with pytest.raises(ConfigError) as excinfo:
            fasttts_config().with_overrides(speculatoin=False)
        assert "speculatoin" in str(excinfo.value)

    def test_with_overrides_suggests_nearest_key(self):
        with pytest.raises(ConfigError) as excinfo:
            fasttts_config().with_overrides(speculatoin=False)
        assert "did you mean 'speculation'?" in str(excinfo.value)

    def test_with_overrides_no_suggestion_for_nonsense(self):
        with pytest.raises(ConfigError) as excinfo:
            fasttts_config().with_overrides(zzqx=1)
        assert "did you mean" not in str(excinfo.value)

    def test_with_overrides_reports_every_unknown_key(self):
        with pytest.raises(ConfigError) as excinfo:
            fasttts_config().with_overrides(bogus=1, also_bogus=2)
        assert "also_bogus" in str(excinfo.value)
        assert "bogus" in str(excinfo.value)

    def test_overrides_in_factory(self):
        cfg = fasttts_config(speculation=False, lookahead=False)
        assert not cfg.speculation
        assert cfg.prefix_aware
