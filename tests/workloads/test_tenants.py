"""Tenant specs: parsing, derived arrivals, and trace generation."""

import pytest

from repro.errors import ConfigError
from repro.utils.rng import KeyedRng
from repro.workloads.arrivals import (
    BurstyProcess,
    DiurnalProcess,
    PoissonProcess,
    UniformProcess,
)
from repro.workloads.tenants import TenantSpec, generate_trace, tenant_rng
from repro.workloads.trace import materialize_problems


class TestParse:
    def test_full_spec(self):
        spec = TenantSpec.parse(
            "chat:arrival=diurnal,rate=0.05,peak_rate=0.4,period=1200,"
            "dataset=math500,difficulty=hard,algorithm=best_of_n,n=8,"
            "deadline=300,ttft=60,slo=premium,requests=20"
        )
        assert spec.name == "chat"
        assert spec.arrival == "diurnal"
        assert spec.rate_rps == 0.05
        assert spec.peak_rate_rps == 0.4
        assert spec.period_s == 1200.0
        assert spec.dataset == "math500"
        assert spec.difficulty == "hard"
        assert spec.algorithm == "best_of_n"
        assert spec.n == 8
        assert spec.deadline_s == 300.0
        assert spec.ttft_slo_s == 60.0
        assert spec.slo_class == "premium"
        assert spec.requests == 20

    def test_name_optional(self):
        assert TenantSpec.parse("rate=0.1").name == "tenant"
        assert TenantSpec.parse("solo:").name == "solo"

    def test_defaults(self):
        spec = TenantSpec.parse("t:")
        assert spec.arrival == "poisson"
        assert spec.deadline_s is None
        assert spec.slo_class == "standard"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("", "empty tenant spec"),
            ("t:rate", "key=value"),
            ("t:ratee=1", "did you mean 'rate'"),
            ("t:rate=fast", "needs a float"),
            ("t:n=four", "needs a int"),
            ("t:arrival=posson", "did you mean 'poisson'"),
            ("t:rate=-1", "rate > 0"),
            ("t:rate=nan", "finite rate > 0"),
            ("t:rate=inf", "finite rate > 0"),
            ("t:deadline=0", "deadline > 0"),
            ("t:ttft=-5", "ttft > 0"),
            ("t:difficulty=extreme", "difficulty must be one of"),
            ("t:dataset=gsm8k", "unknown dataset"),
            ("t:requests=0", "requests >= 1"),
            ("t:n=0", "n >= 1"),
        ],
    )
    def test_errors(self, spec, message):
        with pytest.raises(ConfigError, match=message):
            TenantSpec.parse(spec)

    def test_bad_name_characters(self):
        with pytest.raises(ConfigError, match="tenant name"):
            TenantSpec(name="a=b")


class TestArrivalProcess:
    def test_poisson(self):
        process = TenantSpec.parse("t:rate=0.3").arrival_process()
        assert isinstance(process, PoissonProcess)
        assert process.rate_rps == 0.3

    def test_diurnal_derived_defaults(self):
        process = TenantSpec.parse("t:arrival=diurnal,rate=0.1").arrival_process()
        assert isinstance(process, DiurnalProcess)
        assert process.peak_rate_rps == pytest.approx(0.4)
        assert process.period_s == 3600.0

    def test_bursty_derived_defaults(self):
        process = TenantSpec.parse("t:arrival=bursty,rate=0.1").arrival_process()
        assert isinstance(process, BurstyProcess)
        assert process.burst_rate_rps == pytest.approx(1.0)
        assert (process.on_s, process.off_s) == (60.0, 240.0)

    def test_explicit_parameters_win(self):
        process = TenantSpec.parse(
            "t:arrival=bursty,rate=0.1,burst_rate=2,on_s=5,off_s=9"
        ).arrival_process()
        assert process.burst_rate_rps == 2.0
        assert (process.on_s, process.off_s) == (5.0, 9.0)

    def test_rate_only_process_falls_through_to_the_registry(self):
        process = TenantSpec.parse("t:arrival=uniform,rate=0.5").arrival_process()
        assert isinstance(process, UniformProcess)
        assert process.times(KeyedRng(0), 3) == (0.0, 2.0, 4.0)

    @pytest.mark.parametrize(
        "spec",
        [
            "t:arrival=diurnal,rate=0.1,peak_rate=0",
            "t:arrival=diurnal,rate=0.1,period=0",
            "t:arrival=bursty,rate=0.1,burst_rate=0",
            "t:arrival=bursty,rate=0.1,on_s=0",
            "t:arrival=bursty,rate=0.1,off_s=0",
        ],
    )
    def test_explicit_zero_is_not_a_default(self, spec):
        with pytest.raises(ConfigError, match="> 0"):
            TenantSpec.parse(spec)

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("t:arrival=poisson,peak_rate=9,on_s=3", "peak_rate"),
            ("t:arrival=uniform,period=60", "period"),
            ("t:arrival=diurnal,on_s=5", "on_s"),
            ("t:arrival=bursty,peak_rate=1", "peak_rate"),
        ],
    )
    def test_parameter_the_process_does_not_take_rejected(self, spec, key):
        with pytest.raises(ConfigError, match=f"arrivals take no {key}"):
            TenantSpec.parse(spec)

    def test_infinite_diurnal_peak_rejected_at_construction(self):
        # At any finite trough, an infinite peak made trace generation
        # loop forever; the spec itself now refuses it.
        with pytest.raises(ConfigError, match="peak_rate_rps"):
            TenantSpec.parse("t:arrival=diurnal,rate=0.1,peak_rate=inf")


class TestGenerateTrace:
    def test_arrivals_draw_from_the_tenant_rng(self):
        spec = TenantSpec.parse("a:arrival=bursty,rate=0.1,requests=5")
        trace = generate_trace([spec], seed=4)
        expected = spec.arrival_process().times(tenant_rng(4, "a"), 5)
        assert tuple(r.arrival_s for r in trace) == expected

    def test_deterministic(self):
        tenants = [TenantSpec.parse("a:rate=0.1"), TenantSpec.parse("b:rate=0.2")]
        assert generate_trace(tenants, seed=5) == generate_trace(tenants, seed=5)
        assert generate_trace(tenants, seed=5) != generate_trace(tenants, seed=6)

    def test_tenant_isolation(self):
        # Adding a tenant never perturbs another tenant's stream.
        a = TenantSpec.parse("a:rate=0.1")
        alone = generate_trace([a], seed=3, default_requests=6)
        paired = generate_trace(
            [a, TenantSpec.parse("b:rate=0.4")], seed=3, default_requests=6
        )
        a_rows = tuple(r for r in paired if r.tenant == "a")
        assert a_rows == alone.requests

    def test_sorted_unique_ids_and_counts(self):
        trace = generate_trace(
            [TenantSpec.parse("a:rate=0.2"), TenantSpec.parse("b:rate=0.2,requests=3")],
            seed=0,
            default_requests=5,
        )
        ids = [r.request_id for r in trace]
        assert len(set(ids)) == len(ids) == 8
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert sum(1 for r in trace if r.tenant == "b") == 3

    def test_slo_fields_stamped(self):
        trace = generate_trace(
            [TenantSpec.parse("a:rate=0.2,deadline=90,ttft=20,slo=gold")], seed=0
        )
        assert all(r.deadline_s == 90.0 for r in trace)
        assert all(r.ttft_slo_s == 20.0 for r in trace)
        assert all(r.slo_class == "gold" for r in trace)

    def test_difficulty_bias(self):
        def mean_difficulty(difficulty: str) -> float:
            trace = generate_trace(
                [TenantSpec.parse(f"t:rate=0.2,difficulty={difficulty},requests=48")],
                seed=2,
            )
            problems = materialize_problems(trace)
            return sum(p.difficulty for p in problems.values()) / len(problems)

        assert mean_difficulty("easy") < mean_difficulty("mixed") < mean_difficulty("hard")

    def test_base_dataset_defaults_to_first_tenant(self):
        trace = generate_trace([TenantSpec.parse("t:dataset=math500,rate=0.1")], seed=0)
        assert trace.base_dataset == "math500"

    def test_errors(self):
        with pytest.raises(ConfigError, match="at least one tenant"):
            generate_trace([], seed=0)
        spec = TenantSpec.parse("dup:rate=0.1")
        with pytest.raises(ConfigError, match="duplicate tenant names"):
            generate_trace([spec, spec], seed=0)
        with pytest.raises(ConfigError, match="default_requests"):
            generate_trace([spec], seed=0, default_requests=0)
