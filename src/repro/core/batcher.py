"""The lane iteration: the one place a fleet session takes a round.

Every scheduling turn of a fleet lane runs one :class:`RoundBatcher`
iteration. On a ``batching="off"`` lane its one member is the
scheduler's pick: co-resident sessions time-slice, and interleaving N of
them costs N weight reads per round of progress. Real engines
(vLLM-style iteration-level continuous batching) run every runnable
sequence in one jointly-launched batch per iteration and read the
weights once for all of them; a ``batching="continuous"`` lane models
that at *round* granularity:

* one **iteration** advances every runnable co-resident session on the
  lane by exactly one lifecycle step;
* sessions in their generation state each take one
  :meth:`~repro.core.session.SolveSession.step` with the sub-batch's
  occupancy ``k``, *concurrently in simulated time* — all start at the
  lane's current time, the lane clock advances to the latest member's
  end, and each member's decode/prefill launches bill only ``1/k`` of
  the weight traffic
  (:meth:`~repro.hardware.roofline.Roofline.batched_point`), so the
  batch as a whole reads the weights once;
* sessions in their verification state form the iteration's second
  sub-batch (batched PRM scoring shares one weight pass the same way),
  serialized after generation exactly as the two workers time-share the
  device within a single session;
* **iteration-level join/leave**: membership is re-evaluated every
  iteration — a newly admitted (arrived) session joins at the next
  iteration, and finished sessions settle *first* within an iteration,
  freeing their batch slots (and, under racing schedulers, cancelling
  their losing replicas) before the round launches.

The batcher owns no fleet bookkeeping: admission, service start, KV
restore/growth charging and request settlement stay with the drain's run
state (``repro.core.fleet._FleetRun``), which is passed in. It moves the
two numbers a fleet tells a session: a member's ``anchor`` (its lane
time at session-clock zero) when it takes the lane, and, on a
continuous lane, its ``preempt_at`` (``-inf`` once an admission followed
its start) before a generation round: only a lane that shares its batch
has slots a newcomer can take when speculation halts (Sec. 4.1.2).
Timing is the only thing batching changes — every token and score draw
is keyed, so a batched run's answers are byte-identical to the
unbatched ones.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.session import SessionState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fleet import _FleetRun
    from repro.core.pool import PooledDevice
    from repro.core.scheduler import SessionHandle

__all__ = ["RoundBatcher"]


class RoundBatcher:
    """Drives one lane's members through one jointly-costed iteration.

    Stateless: the fleet's run state calls :meth:`run_iteration` with the
    members it chose, and the batcher partitions them by lifecycle state,
    runs the sub-batches, and updates a continuous lane's occupancy
    counters.
    """

    @staticmethod
    def run_iteration(
        run: "_FleetRun",
        lane: "PooledDevice",
        members: "list[SessionHandle]",
    ) -> None:
        """Advance every member, given in arrival order, by one lifecycle step.

        ``run`` does the fleet bookkeeping around each member's round:
        ``service_start`` marks a handle's first service (start time,
        admission count, next arrival's offset),
        ``charge_restore``/``charge_growth`` do the KV-ledger accounting,
        ``settle`` takes a finished request (and keeps the fleet's
        runnable index current, which is why every DONE edge must reach
        it). ``run.turn`` numbers the rounds, ``run.admissions`` counts
        admissions (on a continuous lane, a generating member started
        before the latest one stops speculating; an ``off`` lane's
        newcomer waits for the lane whatever its members speculate), and
        the handle in ``run.current[lane]`` is still anchored at the lane
        clock.
        """
        clock = lane.clock
        current = run.current[lane.index]
        continuous = lane.batching == "continuous"
        admissions = run.admissions
        # A lone pick that must wait out the idle gap to its arrival is no batch.
        batched = continuous and members[0].arrival_s <= clock.now
        finalizing, generating, verifying = [], [], []
        for handle in members:
            state = handle.session.state
            if state is SessionState.FINALIZING:
                finalizing.append(handle)
            elif state is SessionState.VERIFYING:
                verifying.append(handle)
            else:  # ADMITTED or GENERATING
                generating.append(handle)

        # Finished searches first: finalization is result assembly (plus
        # the single BoN scoring pass), it settles the request, and — for
        # racing schedulers — cancels losing replicas, so their batch
        # slots free before this iteration's rounds launch.
        for handle in finalizing:
            if handle.session.state is not SessionState.FINALIZING:
                continue  # a race loser an earlier settlement cancelled
            if handle is not current:
                _attach(run, lane, handle)
            handle.session.step()
            run.charge_growth(lane, handle)
            clock.advance_to(handle.anchor + handle.session.clock.now)
            handle.last_stepped = run.turn
            run.turn += 1
            if handle.session.state is SessionState.DONE:
                run.settle(handle, lane)
        if finalizing:  # settlement may have cancelled sibling replicas
            generating = [h for h in generating if h.session.state.live]
            verifying = [h for h in verifying if h.session.state.live]

        # Each sub-batch's rounds start at the lane's current time and run
        # concurrently; the lane advances to the latest member's end
        # (stragglers gate the iteration, exactly the lockstep pathology
        # continuous batching trades for occupancy). Verification runs
        # after generation (one device runs one model's launches at a
        # time), jointly costed the same way: batched PRM prefill shares
        # one weight read.
        for sub_batch in (generating, verifying):
            occupancy = len(sub_batch)
            if not occupancy:
                continue
            if batched and sub_batch is generating:
                lane.batch_iterations += 1
                lane.batch_member_rounds += occupancy
                lane.batch_peak_occupancy = max(lane.batch_peak_occupancy, occupancy)
            ends = []
            for handle in sub_batch:
                if handle is not current:
                    _attach(run, lane, handle)
                session = handle.session
                if sub_batch is generating:
                    if session.state is SessionState.ADMITTED:
                        session.step()  # zero-cost setup: plan, caches, workers
                    if continuous and admissions > handle.admissions:
                        session.preempt_at = -math.inf  # somebody arrived since
                session.step(occupancy)
                if (
                    sub_batch is generating
                    and handle.first_token_s is None
                    and session.first_token_s is not None
                ):
                    # Map the first-token time onto the fleet timeline.
                    handle.first_token_s = handle.anchor + session.first_token_s
                run.charge_growth(lane, handle)
                ends.append(handle.anchor + session.clock.now)
                handle.last_stepped = run.turn
                run.turn += 1
            clock.advance_to(max(ends))


def _attach(run: "_FleetRun", lane: "PooledDevice", handle: "SessionHandle") -> None:
    """Anchor a member at the lane clock at its sub-batch's start time.

    A first service marks the start, after waiting out any idle gap to
    the arrival; a resumed member pays to restore whatever KV the ledger
    swapped out since it last ran.
    """
    clock = lane.clock
    if handle.start_s is None:
        run.service_start(lane, handle)
        if handle.start_s > clock.now:
            clock.advance(handle.start_s - clock.now)  # idle gap
        handle.anchor = clock.now - handle.session.clock.now
    else:
        handle.anchor = clock.now - handle.session.clock.now
        run.charge_restore(lane, handle)
