"""Continuous cross-session batching: the per-lane round batcher.

Without it, co-resident sessions on one :class:`~repro.core.pool
.PooledDevice` time-slice — each generation round runs alone and pays the
full weight-read traffic, so interleaving N sessions costs N weight reads
per round of progress. Real engines (vLLM-style iteration-level
continuous batching) run every runnable sequence in one jointly-launched
batch per iteration and read the weights once for all of them.

:class:`RoundBatcher` models that at *round* granularity, the granularity
this simulator's sessions already expose:

* one **iteration** advances every runnable co-resident session on the
  lane by exactly one lifecycle step;
* sessions in their generation state contribute their rounds via
  :meth:`~repro.core.session.SolveSession.begin_generation_round` and run
  them *concurrently in simulated time* — all start at the lane's current
  time, the lane clock advances to the latest member's end, and each
  member's decode/prefill launches bill only ``1/k`` of the weight
  traffic (:meth:`~repro.hardware.roofline.Roofline.batched_point`), so
  the batch as a whole reads the weights once;
* sessions in their verification state form the iteration's second
  sub-batch (batched PRM scoring shares one weight pass the same way),
  serialized after generation exactly as the two workers time-share the
  device within a single session;
* **iteration-level join/leave**: membership is re-evaluated every
  iteration — a newly admitted (arrived) session joins at the next
  iteration, and finished sessions settle *first* within an iteration,
  freeing their batch slots (and, under racing schedulers, cancelling
  their losing replicas) before the round launches.

The batcher owns no fleet bookkeeping: admission, arrival offsets, KV
restore/growth charging and request settlement stay with the fleet's run
state (``repro.core.fleet._FleetRun``), whose bound methods are passed in
as hooks. Timing is
the only thing batching changes — every token and score draw is keyed, so
a batched run's answers are byte-identical to the unbatched ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.scheduler import SessionHandle, arrival_key
from repro.core.session import SessionState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pool import PooledDevice

__all__ = ["RoundBatcher"]


class RoundBatcher:
    """Drives one lane's runnable sessions through jointly-costed rounds.

    Stateless between iterations: the fleet calls :meth:`run_iteration`
    with the members it considers runnable-and-arrived, and the batcher
    partitions them by lifecycle state, runs the sub-batches, and updates
    the lane's occupancy counters.
    """

    def run_iteration(
        self,
        lane: "PooledDevice",
        members: "list[SessionHandle]",
        turn: int,
        on_service_start: "Callable[[PooledDevice, SessionHandle], None]",
        charge_restore: "Callable[[PooledDevice, SessionHandle], None]",
        charge_growth: "Callable[[PooledDevice, SessionHandle], None]",
        on_done: "Callable[[SessionHandle, PooledDevice], None]",
    ) -> int:
        """Advance every member by one lifecycle step; returns the turn counter.

        Hooks are bound methods of the fleet's run state:
        ``on_service_start`` marks a handle's first service (start time,
        arrival offset), ``charge_restore``/``charge_growth`` do the
        KV-ledger accounting around a member's round, ``on_done`` settles
        a finished request (and keeps the fleet's runnable index current,
        which is why every DONE edge must reach it).
        """
        clock = lane.clock
        members = sorted(members, key=arrival_key)

        # Finished searches first: finalization is result assembly (plus
        # the single BoN scoring pass), it settles the request, and — for
        # racing schedulers — cancels losing replicas, so their batch
        # slots free before this iteration's rounds launch.
        for handle in members:
            if handle.session.state is not SessionState.FINALIZING:
                continue
            self._attach(lane, handle, on_service_start, charge_restore)
            handle.session.step()
            charge_growth(lane, handle)
            handle.binding.sync(clock)
            handle.last_stepped = turn
            turn += 1
            if handle.session.state is SessionState.DONE:
                on_done(handle, lane)

        # Re-partition after settlement: on_done may have cancelled
        # sibling replicas that were members of this iteration.
        generating = [
            h for h in members
            if h.session.state in (SessionState.ADMITTED, SessionState.GENERATING)
        ]
        verifying = [
            h for h in members if h.session.state is SessionState.VERIFYING
        ]

        # Generation sub-batch: every member's round starts at the lane's
        # current time and runs concurrently; the lane advances to the
        # latest member's end (stragglers gate the iteration, exactly the
        # lockstep pathology continuous batching trades for occupancy).
        occupancy = len(generating)
        if occupancy:
            lane.batch_iterations += 1
            lane.batch_member_rounds += occupancy
            lane.batch_peak_occupancy = max(lane.batch_peak_occupancy, occupancy)
            ends = []
            for handle in generating:
                self._attach(lane, handle, on_service_start, charge_restore)
                session = handle.session
                if session.state is SessionState.ADMITTED:
                    session.step()  # zero-cost setup: plan, caches, workers
                contribution = session.begin_generation_round(occupancy=occupancy)
                result = contribution.round.run(contribution.jobs)
                session.finish_generation_round(result)
                charge_growth(lane, handle)
                if (
                    handle.first_token_s is None
                    and session.first_token_s is not None
                ):
                    handle.first_token_s = (
                        handle.binding.anchor + session.first_token_s
                    )
                ends.append(handle.binding.anchor + session.clock.now)
                handle.last_stepped = turn
                turn += 1
            clock.advance_to(max(max(ends), clock.now))

        # Verification sub-batch: serialized after generation (one device
        # runs one model's launches at a time) but jointly costed across
        # its members — batched PRM prefill shares one weight read.
        occupancy = len(verifying)
        if occupancy:
            ends = []
            for handle in verifying:
                self._attach(lane, handle, on_service_start, charge_restore)
                handle.session.step_verification(occupancy=occupancy)
                charge_growth(lane, handle)
                ends.append(handle.binding.anchor + handle.session.clock.now)
                handle.last_stepped = turn
                turn += 1
            clock.advance_to(max(max(ends), clock.now))

        return turn

    @staticmethod
    def _attach(
        lane: "PooledDevice",
        handle: "SessionHandle",
        on_service_start,
        charge_restore,
    ) -> None:
        """Bind a member onto the lane at the sub-batch's start time.

        First service marks the start (no idle gap: batched members have
        arrived by construction); resumed members pay to restore any KV
        the ledger swapped out since they last ran.
        """
        if handle.start_s is None:
            on_service_start(lane, handle)
            handle.binding.rebind(lane.clock)
        else:
            handle.binding.rebind(lane.clock)
            charge_restore(lane, handle)
