"""Simulated wall clock.

All latency in the reproduction is virtual: workers advance this clock by
roofline-estimated durations. The clock is strictly monotonic; rewinding is
a bug and raises immediately. ``now`` is a plain attribute (read on every
launch, so not a property), and only :meth:`SimClock.advance` and
:meth:`SimClock.advance_to` write it.

Sessions and fleets use *different* clocks: each
:class:`~repro.core.session.SolveSession` owns a private clock measuring
its own service time, while every device lane of a
:class:`~repro.core.pool.DevicePool` owns a shared wall clock the requests
placed on it queue against (all lanes share the same time origin, so lane
times are directly comparable). :class:`ClockBinding` performs the handoff
between the two — it anchors a session clock at the lane time where the
scheduler (re)started the session, so stepping the session maps its
service-time progress back onto the lane timeline exactly (anchor +
session time, one addition, no drift from re-accumulating round deltas).
"""

from __future__ import annotations

__all__ = ["SimClock", "ClockBinding"]

# Absolute slack (seconds) tolerated when two independently-derived float
# timelines are reconciled; anything beyond this is a real rewind bug.
_REWIND_TOLERANCE = 1e-9


class SimClock:
    """Monotonic simulated time in seconds.

    ``now`` is a plain attribute that only :meth:`advance` and
    :meth:`advance_to` write; each checks the move before making it.
    """

    __slots__ = ("now", "label")

    def __init__(self, start: float = 0.0, label: str | None = None) -> None:
        if not start >= 0:
            raise ValueError("start time must be non-negative")
        self.now = float(start)
        self.label = label  # debug aid: which lane/session owns this timeline

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds and return the new time."""
        if not dt >= 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        self.now += dt
        return self.now

    def advance_to(self, target: float) -> float:
        """Move time forward to an absolute ``target`` and return it.

        Unlike :meth:`advance`, this *sets* the time rather than adding a
        delta, so a caller reconstructing the timeline as ``anchor +
        elapsed`` lands on exactly that float. Targets a hair in the past
        (within float-reconciliation tolerance) are clamped to ``now``;
        anything earlier raises.
        """
        if not target >= self.now - _REWIND_TOLERANCE:
            raise ValueError(
                f"cannot rewind clock from {self.now} to {target}"
            )
        if target > self.now:
            self.now = float(target)
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f", label={self.label!r}" if self.label else ""
        return f"SimClock(now={self.now:.6f}{tag})"


class ClockBinding:
    """Maps one session-local clock onto a shared fleet clock.

    A scheduler that interleaves sessions re-binds whenever it switches
    which session occupies the device: ``rebind`` records the fleet time
    at which the session resumed (minus service it already accumulated),
    and ``sync`` pushes the fleet clock to ``anchor + local.now`` after a
    step. Computing the absolute target (instead of accumulating per-round
    deltas) keeps a run-to-completion schedule bit-identical to driving
    the session without a fleet at all.
    """

    def __init__(self, local: SimClock) -> None:
        self._local = local
        self._anchor = 0.0

    @property
    def anchor(self) -> float:
        """Fleet time corresponding to the session clock's zero."""
        return self._anchor

    def rebind(self, shared: SimClock) -> None:
        """Anchor the session's elapsed service at the current fleet time."""
        self._anchor = shared.now - self._local.now

    def sync(self, shared: SimClock) -> float:
        """Advance the fleet clock to this session's current position."""
        return shared.advance_to(self._anchor + self._local.now)
