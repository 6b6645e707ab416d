"""Tests for the simulation clock and telemetry."""

import math
from types import SimpleNamespace

import pytest

from repro.core.batcher import _attach
from repro.core.scheduler import SessionHandle
from repro.engine.clock import SimClock
from repro.engine.telemetry import Phase, PhaseTimer, TokenCounters, UtilSpan


class TestSimClock:
    def test_advances(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)

    def test_advance_to_sets_absolute_time(self):
        clock = SimClock()
        clock.advance_to(3.25)
        assert clock.now == 3.25
        clock.advance_to(3.25)  # idempotent at the same instant
        assert clock.now == 3.25

    def test_advance_to_rejects_rewind(self):
        clock = SimClock(start=5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.0)

    def test_advance_to_clamps_float_jitter(self):
        clock = SimClock(start=1.0)
        assert clock.advance_to(1.0 - 1e-12) == 1.0

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda bad: SimClock(start=bad), id="start"),
        pytest.param(lambda bad: SimClock().advance(bad), id="advance"),
        pytest.param(lambda bad: SimClock(start=2.0).advance_to(bad), id="advance_to"),
    ])
    def test_nan_and_negative_times_are_rejected(self, call, bad):
        """A NaN compares False both ways: each check must reject it, or
        one NaN turns every later ``advance_to`` into a silent no-op."""
        with pytest.raises(ValueError):
            call(bad)

    def test_a_rejected_nan_leaves_the_clock_usable(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(math.nan)
        assert clock.advance_to(1.5) == 1.5


class TestClockBinding:
    """The session-to-lane clock handoff, on a handle's ``anchor``.

    "Rebind" is the batcher's ``_attach``: a member that takes the lane is
    anchored at ``lane.clock.now - session.clock.now``. "Sync" is the
    expression every round ends with, ``lane.clock.advance_to(anchor +
    session.clock.now)``.
    """

    class _Run:
        """The two fleet hooks ``_attach`` calls, with nothing to charge."""

        @staticmethod
        def service_start(lane, handle):
            handle.start_s = lane.clock.now

        @staticmethod
        def charge_restore(lane, handle):
            pass

    @staticmethod
    def handle(session):
        return SessionHandle(
            arrival_s=0.0, seq=0, replica=0,
            session=SimpleNamespace(clock=session),
        )

    def rebind(self, handle, clock):
        _attach(self._Run, SimpleNamespace(clock=clock), handle)

    @staticmethod
    def sync(handle, clock):
        return clock.advance_to(handle.anchor + handle.session.clock.now)

    def test_sync_maps_session_time_onto_fleet_time(self):
        fleet, session = SimClock(), SimClock()
        binding = self.handle(session)
        fleet.advance(10.0)
        self.rebind(binding, fleet)
        assert binding.anchor == 10.0 and binding.start_s == 10.0
        session.advance(2.5)
        assert self.sync(binding, fleet) == 12.5

    def test_rebind_after_interleaving(self):
        fleet, session = SimClock(), SimClock()
        binding = self.handle(session)
        self.rebind(binding, fleet)
        session.advance(2.0)
        self.sync(binding, fleet)
        fleet.advance(5.0)  # another session ran for 5s
        self.rebind(binding, fleet)
        assert binding.anchor == 5.0  # fleet 7.0 minus 2.0 already served
        assert binding.start_s == 0.0  # a resume is not a new service start
        session.advance(1.0)
        assert self.sync(binding, fleet) == 8.0

    def test_rebind_onto_a_second_clock(self):
        """One session clock handed across two lane timelines."""
        lane_a, lane_b, session = SimClock(), SimClock(), SimClock()
        binding = self.handle(session)
        self.rebind(binding, lane_a)
        session.advance(3.0)
        self.sync(binding, lane_a)
        # destination lane had its own (later) history
        lane_b.advance(4.5)
        self.rebind(binding, lane_b)
        assert binding.anchor == 1.5  # lane_b 4.5 minus 3.0 already served
        session.advance(2.0)
        assert self.sync(binding, lane_b) == 6.5
        # the first lane is untouched by rounds on the second
        assert lane_a.now == 3.0

    def test_anchor_handoff_roundtrip_has_no_drift(self):
        """Alternating across two shared clocks lands on exact floats."""
        lane_a, lane_b, session = SimClock(), SimClock(), SimClock()
        binding = self.handle(session)
        steps = [0.1, 0.2, 0.3, 0.4]
        for i, dt in enumerate(steps):
            lane = lane_a if i % 2 == 0 else lane_b
            self.rebind(binding, lane)
            session.advance(dt)
            self.sync(binding, lane)
        # each lane was pushed to anchor + session total at its turns:
        # the reconstruction is absolute, never an accumulation of deltas
        assert lane_b.now == binding.anchor + session.now
        assert session.now == pytest.approx(sum(steps))

    def test_sync_with_equal_timestamps_is_idempotent(self):
        """advance_to at the exact current instant must not move or raise."""
        fleet, session = SimClock(), SimClock()
        binding = self.handle(session)
        self.rebind(binding, fleet)
        session.advance(1.25)
        assert self.sync(binding, fleet) == 1.25
        # a second sync with no session progress targets the same float
        assert self.sync(binding, fleet) == 1.25
        assert fleet.now == 1.25

    def test_rebind_is_stable_when_clocks_already_agree(self):
        fleet, session = SimClock(), SimClock()
        binding = self.handle(session)
        self.rebind(binding, fleet)
        session.advance(2.0)
        self.sync(binding, fleet)
        anchor = binding.anchor
        # re-binding at the position sync just produced changes nothing
        self.rebind(binding, fleet)
        assert binding.anchor == anchor
        assert self.sync(binding, fleet) == fleet.now


class TestUtilSpan:
    def test_utilization(self):
        span = UtilSpan(0.0, 1.0, busy_slots=3, capacity_slots=4, phase=Phase.GENERATION)
        assert span.utilization == 0.75
        assert span.duration == 1.0

    def test_zero_capacity(self):
        span = UtilSpan(0.0, 1.0, busy_slots=0, capacity_slots=0, phase=Phase.GENERATION)
        assert span.utilization == 0.0


class TestPhaseTimer:
    def test_accumulates(self):
        timer = PhaseTimer()
        timer.add(Phase.GENERATION, 1.0)
        timer.add(Phase.GENERATION, 2.0)
        timer.add(Phase.SWAP, 0.5)
        assert timer.get(Phase.GENERATION) == 3.0
        assert timer.total == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PhaseTimer().add(Phase.SWAP, -1.0)

    def test_rejects_nan(self):
        timer = PhaseTimer()
        with pytest.raises(ValueError):
            timer.add(Phase.SWAP, math.nan)
        assert timer.totals == {}


class TestTokenCounters:
    def test_speculation_efficiency(self):
        counters = TokenCounters(speculative_used=30, speculative_wasted=10)
        assert counters.speculation_efficiency == 0.75

    def test_efficiency_zero_when_no_speculation(self):
        assert TokenCounters().speculation_efficiency == 0.0

    def test_counters_have_no_instance_dict(self):
        """One set lives on every result a drain keeps: slots, no dict."""
        assert not hasattr(TokenCounters(), "__dict__")
