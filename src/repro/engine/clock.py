"""Simulated wall clock.

All latency in the reproduction is virtual: workers advance this clock by
roofline-estimated durations. The clock is strictly monotonic; rewinding is
a bug and raises immediately. ``now`` is a plain attribute (read on every
launch, so not a property), and only :meth:`SimClock.advance`,
:meth:`SimClock.advance_to` and a launch (``ModelWorker._charge``, with
:meth:`SimClock.advance`'s check) write it.

Each :class:`~repro.core.session.SolveSession` owns a private clock of its
own service time; each device lane owns a wall clock on the pool's shared
origin. A fleet handle's ``anchor`` maps the first onto the second.
"""

from __future__ import annotations

__all__ = ["SimClock"]

# Absolute slack (seconds) tolerated when two independently-derived float
# timelines are reconciled; anything beyond this is a real rewind bug.
_REWIND_TOLERANCE = 1e-9


class SimClock:
    """Monotonic simulated time in seconds.

    ``now`` is a plain attribute that only :meth:`advance`,
    :meth:`advance_to` and a worker's launch write; each checks the move
    before making it.
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

