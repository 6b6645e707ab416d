"""Keyed arrival processes: determinism, shape, and registry errors."""

import math

import pytest

from repro.errors import ConfigError
from repro.utils.rng import KeyedRng
from repro.workloads.arrivals import (
    ARRIVALS,
    BurstyProcess,
    DiurnalProcess,
    PoissonProcess,
    UniformProcess,
)

PROCESSES = [
    PoissonProcess(rate_rps=0.5),
    DiurnalProcess(rate_rps=0.2, peak_rate_rps=1.0, period_s=600.0),
    BurstyProcess(rate_rps=0.1, burst_rate_rps=1.0, on_s=30.0, off_s=120.0),
]


@pytest.mark.parametrize("process", PROCESSES, ids=lambda p: p.name)
class TestAllProcesses:
    def test_exact_count_strictly_increasing_positive(self, process):
        times = process.times(KeyedRng(3), 25)
        assert len(times) == 25
        assert all(t > 0 for t in times)
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_deterministic_per_seed(self, process):
        assert process.times(KeyedRng(7), 12) == process.times(KeyedRng(7), 12)
        assert process.times(KeyedRng(7), 12) != process.times(KeyedRng(8), 12)

    def test_independent_of_interleaved_draws(self, process):
        rng = KeyedRng(5)
        baseline = process.times(rng, 10)
        rng.uniform("unrelated", 0)
        rng.stream("other").normal(size=100)
        assert process.times(rng, 10) == baseline

    def test_prefix_stability(self, process):
        # Asking for more arrivals never changes the earlier ones.
        short = process.times(KeyedRng(2), 6)
        long = process.times(KeyedRng(2), 18)
        assert long[:6] == short

    def test_zero_count(self, process):
        assert process.times(KeyedRng(0), 0) == ()

    def test_negative_count_rejected(self, process):
        with pytest.raises(ValueError):
            process.times(KeyedRng(0), -1)


class TestUniform:
    def test_registry_spacing(self):
        rng = KeyedRng(0)
        assert ARRIVALS.build("uniform", rate_rps=0.5).times(rng, 3) == (0.0, 2.0, 4.0)

    def test_draws_nothing(self):
        # Seed-independent by construction, and exactly i / rate.
        process = UniformProcess(rate_rps=0.3)
        assert process.times(KeyedRng(1), 7) == process.times(KeyedRng(2), 7)
        assert process.times(KeyedRng(0), 7) == tuple(i / 0.3 for i in range(7))

    def test_count_contract(self):
        process = UniformProcess(rate_rps=2.0)
        assert process.times(KeyedRng(0), 0) == ()
        with pytest.raises(ValueError):
            process.times(KeyedRng(0), -1)

    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigError):
            UniformProcess(rate_rps=0.0)


#: One valid parameter set per registered process.
VALID = {
    "uniform": {"rate_rps": 0.5},
    "poisson": {"rate_rps": 0.5},
    "diurnal": {"rate_rps": 0.2, "peak_rate_rps": 1.0, "period_s": 600.0},
    "bursty": {"rate_rps": 0.1, "burst_rate_rps": 1.0, "on_s": 30.0, "off_s": 120.0},
}


class TestParametersFiniteAndPositive:
    def test_every_registered_process_has_a_valid_case(self):
        assert set(VALID) == set(ARRIVALS.names())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize(
        "name, param",
        [(name, param) for name, params in VALID.items() for param in params],
    )
    def test_non_finite_rejected_at_construction(self, name, param, bad):
        with pytest.raises(ConfigError, match=f"finite {param} > 0"):
            ARRIVALS.build(name, **VALID[name] | {param: bad})

    def test_infinite_diurnal_peak_rejected_at_construction(self):
        # An infinite peak made every candidate gap 0 and every acceptance
        # ratio 0: times() never returned.
        with pytest.raises(ConfigError, match="peak_rate_rps"):
            DiurnalProcess(rate_rps=0.1, peak_rate_rps=math.inf, period_s=3600.0)


class TestPoisson:
    def test_mean_gap_tracks_rate(self):
        times = PoissonProcess(rate_rps=0.25).times(KeyedRng(0), 400)
        mean_gap = times[-1] / len(times)
        assert 1 / 0.25 * 0.85 < mean_gap < 1 / 0.25 * 1.15

    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigError):
            PoissonProcess(rate_rps=0.0)


class TestDiurnal:
    def test_rate_at_swings_between_trough_and_peak(self):
        process = DiurnalProcess(rate_rps=0.2, peak_rate_rps=1.0, period_s=400.0)
        assert process.rate_at(0.0) == pytest.approx(0.6)  # midpoint
        assert process.rate_at(100.0) == pytest.approx(1.0)  # quarter in: peak
        assert process.rate_at(300.0) == pytest.approx(0.2)  # trough
        for t in range(0, 800, 7):
            assert 0.2 <= process.rate_at(float(t)) <= 1.0

    def test_validators(self):
        with pytest.raises(ConfigError):
            DiurnalProcess(rate_rps=0.0, peak_rate_rps=1.0, period_s=60.0)
        with pytest.raises(ConfigError):
            DiurnalProcess(rate_rps=1.0, peak_rate_rps=0.5, period_s=60.0)
        with pytest.raises(ConfigError):
            DiurnalProcess(rate_rps=0.2, peak_rate_rps=1.0, period_s=0.0)


class TestBursty:
    def test_faster_than_background_poisson(self):
        # Bursts inject extra arrivals, so the same count finishes sooner
        # than the pure background-rate process.
        bursty = BurstyProcess(
            rate_rps=0.05, burst_rate_rps=1.0, on_s=60.0, off_s=120.0
        )
        background = PoissonProcess(rate_rps=0.05)
        assert (
            bursty.times(KeyedRng(1), 60)[-1]
            < background.times(KeyedRng(1), 60)[-1]
        )

    def test_validators(self):
        with pytest.raises(ConfigError):
            BurstyProcess(rate_rps=0.0, burst_rate_rps=1.0, on_s=1.0, off_s=1.0)
        with pytest.raises(ConfigError):
            BurstyProcess(rate_rps=0.1, burst_rate_rps=0.0, on_s=1.0, off_s=1.0)
        with pytest.raises(ConfigError):
            BurstyProcess(rate_rps=0.1, burst_rate_rps=1.0, on_s=0.0, off_s=1.0)
        with pytest.raises(ConfigError):
            BurstyProcess(rate_rps=0.1, burst_rate_rps=1.0, on_s=1.0, off_s=0.0)


class TestRegistry:
    def test_lists_all_four(self):
        assert ARRIVALS.names() == ["bursty", "diurnal", "poisson", "uniform"]
        assert set(ARRIVALS.descriptions()) == set(ARRIVALS.names())
        assert all(ARRIVALS.descriptions().values())

    def test_build_by_name(self):
        process = ARRIVALS.build("poisson", rate_rps=0.3)
        assert isinstance(process, PoissonProcess)
        assert process.rate_rps == 0.3
        assert isinstance(ARRIVALS.build("uniform", rate_rps=0.3), UniformProcess)

    def test_unknown_name_suggests(self):
        with pytest.raises(ConfigError, match="did you mean 'poisson'"):
            ARRIVALS.build("poison", rate_rps=0.3)

    def test_bad_parameters_wrapped(self):
        with pytest.raises(ConfigError, match="bad poisson arrival process parameters"):
            ARRIVALS.build("poisson", rate=0.3)
