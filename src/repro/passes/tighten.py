"""Intra-trap clock tightening by dependency-safe gate hoisting.

Gates run serially inside a trap but in parallel across traps; a MOVE
synchronizes its two endpoint clocks (Section II-B1).  The compiler
emits each gate the moment it becomes executable in *program* order,
which often places a trap-local gate after an unrelated shuttle that
stalls the trap on a busy neighbour — the gate then runs after the
synchronization barrier even though its ions were sitting idle before
it.  Hoisting the gate in front of the barrier fills the wait with
useful work and tightens the makespan.

A gate is hoisted only past ops it provably commutes with:

* gates in *other* traps acting on disjoint qubits (no shared clock, no
  shared dependency edge — DAG order is preserved),
* split/merge/swap ops of *other* traps with disjoint ions,
* MOVE ops of disjoint ions (any endpoints — this crossing is the one
  that buys time).

It never crosses ops touching its own qubits (placement and dependency
edges stay intact) nor non-move ops of its own trap (the trap's heat
event order is preserved, so every gate sees exactly the n̄ it saw
before — the rewrite is fidelity-neutral by construction and only the
clock interleaving changes).  Since a gate never crosses another gate
on a shared qubit, each qubit's gate sequence is unchanged, which is
exactly the per-qubit-order check the pass manager's
:class:`~repro.passes.verify.EquivalenceReference` applies to every
pass output.  Each candidate hoist is kept only when the timing replay
confirms a strict makespan improvement.

The makespan guard is incremental: the pass keeps
:class:`~repro.core.observers.ClockObserver` snapshots every K ops
(K = √N) over the current stream, scores a candidate by resuming the
snapshot nearest its hoist window and driving only the remainder, and
abandons the scan early the moment the candidate's clock vector
re-converges with a stored baseline snapshot — identical clocks from
identical remaining ops mean an identical makespan, i.e. a rejection,
without ever touching the tail.  Before any tail scan, a *dominance
prefilter* compares the candidate's clocks right after the hoist
window with the baseline's at the same point: when no trap is ahead
in the candidate, the tail cannot make it finish sooner (clock updates
are monotone, even under float rounding — DESIGN.md §15), and the
candidate is rejected at once.  Clock restoration is float-exact, so
every accept/reject decision (and the final stream) matches what a
from-scratch :func:`~repro.core.observers.estimate_makespan` per
candidate used to produce.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import isqrt

from .base import PassContext, SchedulePass
from ..core.observers import ClockObserver
from ..core.ops import GateOp, MergeOp, MoveOp, SplitOp, SwapOp
from ..obs import active as _obs_active
from ..sim.schedule import Schedule


def _commutes(op, gate_op: GateOp) -> bool:
    """True when ``gate_op`` may hoist from after ``op`` to before it."""
    qubits = gate_op.gate.qubits
    if isinstance(op, GateOp):
        return op.trap != gate_op.trap and not (
            set(op.gate.qubits) & set(qubits)
        )
    if isinstance(op, MoveOp):
        return op.ion not in qubits
    if isinstance(op, (SplitOp, MergeOp)):
        return op.trap != gate_op.trap and op.ion not in qubits
    if isinstance(op, SwapOp):
        return op.trap != gate_op.trap and not (
            {op.ion_a, op.ion_b} & set(qubits)
        )
    return False  # pragma: no cover - exhaustive over MachineOp


class GateHoisting(SchedulePass):
    """Hoist gates ahead of unrelated shuttles to tighten trap clocks."""

    name = "tighten-gates"
    description = (
        "hoist trap-local gates ahead of unrelated shuttle barriers "
        "(dependency-safe, fidelity-neutral, makespan-guarded)"
    )

    #: Bound on hoist candidates considered per run: every hoist that
    #: crosses a barrier counts once, whether the dominance prefilter
    #: rejects it outright or it is scored by an incremental clock scan
    #: from the nearest checkpoint.  Candidates past the budget are not
    #: considered at all.
    max_evaluations = 512

    #: Bound on how far back one gate may bubble.  Keeps the commute
    #: scan O(n * window) on gate-dense schedules — without it a long
    #: run of mutually-independent gates costs a quadratic scan that
    #: never even reaches a move to justify it.
    max_hoist_distance = 256

    def run(
        self, schedule: Schedule, ctx: PassContext
    ) -> tuple[Schedule, int]:
        plain = list(schedule)
        n = len(plain)
        # Each op's row in ``schedule``: the result takes its rows
        # rather than encoding the moved ops again.
        order = list(range(n))
        if not n:
            return schedule, 0
        rewrites = 0
        evaluations = 0
        pruned = 0

        clock = ClockObserver(ctx.machine.num_traps)
        interval = max(32, isqrt(n))
        # Baseline clock snapshots every `interval` ops over the
        # current stream (index -> clocks after ops[:index]), plus the
        # exact baseline makespan — identical floats to one
        # uninterrupted estimate_makespan scan.
        cp_indices: list[int] = [0]
        cp_clocks: list[tuple] = [clock.snapshot()]
        for i in range(0, n, interval):
            clock.drive(plain[i : i + interval])
            if i + interval < n:
                cp_indices.append(i + interval)
                cp_clocks.append(clock.snapshot())
        makespan = clock.makespan

        # Sorted stream positions of the moves touching each trap: the
        # "does the hoist cross a barrier of this trap?" probe is two
        # bisects instead of an O(window) scan per gate.
        moves_of_trap: dict[int, list[int]] = {}
        for j, op in enumerate(plain):
            if isinstance(op, MoveOp):
                moves_of_trap.setdefault(op.src, []).append(j)
                moves_of_trap.setdefault(op.dst, []).append(j)

        position = 1
        while position < n and evaluations < self.max_evaluations:
            op = plain[position]
            if not isinstance(op, GateOp):
                position += 1
                continue
            target = position
            horizon = max(0, position - self.max_hoist_distance)
            while target > horizon and _commutes(
                plain[target - 1], op
            ):
                target -= 1
            # A hoist only matters when it crosses an op that can stall
            # this trap's clock: a move touching it.  Each candidate is
            # timed incrementally and kept only on strict improvement —
            # the makespan is monotone over the sweep by construction.
            if target < position and self._crosses_move(
                moves_of_trap, op.trap, target, position
            ):
                # Counted before scoring: a pruned candidate uses up the
                # budget exactly as a scanned one does.
                evaluations += 1
                verdict = self._evaluate(
                    clock, plain, target, position,
                    cp_indices, cp_clocks, makespan,
                )
                if verdict is None:
                    pruned += 1
                elif verdict[0]:
                    _, makespan, cand_cps = verdict
                    plain.insert(target, plain.pop(position))
                    order.insert(target, order.pop(position))
                    rewrites += 1
                    self._apply_accept(
                        cp_indices, cp_clocks, cand_cps,
                        moves_of_trap, target, position,
                    )
            position += 1

        obs = _obs_active()
        if obs is not None:
            obs.metrics.inc(f"passes.{self.name}.evaluations", evaluations)
            obs.metrics.inc(f"passes.{self.name}.pruned", pruned)
        if not rewrites:
            return schedule, 0
        return schedule.take(order), rewrites

    @staticmethod
    def _crosses_move(
        moves_of_trap: dict[int, list[int]],
        trap: int,
        target: int,
        position: int,
    ) -> bool:
        """True when a move touching ``trap`` sits in [target, position)."""
        positions = moves_of_trap.get(trap)
        if not positions:
            return False
        k = bisect_left(positions, target)
        return k < len(positions) and positions[k] < position

    def _evaluate(
        self,
        clock: ClockObserver,
        plain: list,
        target: int,
        position: int,
        cp_indices: list[int],
        cp_clocks: list[tuple],
        makespan: float,
    ) -> tuple[bool, float, list[tuple[int, tuple]]] | None:
        """Score hoisting the gate at ``position`` to ``target``.

        Returns None when the dominance prefilter rejects the candidate
        without a tail scan: after the window (at ``position + 1``) no
        trap clock of the candidate is behind the baseline's, and since
        every clock update (``c + d``, ``max(a, b) + d``) is monotone
        non-decreasing under IEEE round-to-nearest, the identical
        remaining ops keep that dominance to the end — the candidate's
        makespan is at least the current one, a certain rejection.

        Otherwise returns (accepted, candidate makespan, candidate
        snapshots) — the snapshots (taken at the baseline checkpoint
        indices beyond the window) replace the stale ones when the
        hoist is accepted.  The scan abandons rejected candidates
        early, on either of two sound exits checked at every
        checkpoint boundary:

        * *re-convergence* — the candidate's clock vector equals the
          baseline's, so identical remaining ops yield an identical
          (not strictly better) makespan;
        * *bound* — clocks are nondecreasing (every op adds a
          non-negative duration; a move syncs to the max), so once the
          running maximum reaches ``makespan - 1e-15`` the final
          makespan cannot dip back below the strict-improvement guard.

        Neither the prefilter nor an exit can fire for a candidate that
        would be accepted, so accept/reject decisions (and the accepted
        makespan floats) are identical to scoring every candidate from
        scratch.
        """
        # Clocks entering the hoist window (exact prefix floats).
        cp_pos = bisect_right(cp_indices, target) - 1
        clock.resume(cp_clocks[cp_pos])
        if cp_indices[cp_pos] < target:
            clock.drive(plain[cp_indices[cp_pos] : target])
        entry = clock.snapshot()
        # The baseline's clocks after the window, then the reordered
        # window from the same entry clocks: the hoisted gate first,
        # then the ops it bubbled past.  The candidate's op sequence
        # beyond `position` is unchanged.
        clock.drive(plain[target : position + 1])
        baseline = clock.snapshot()
        clock.resume(entry)
        clock.drive((plain[position],))
        clock.drive(plain[target:position])

        clocks = clock.clocks
        for cand, base in zip(clocks, baseline):
            if cand < base:
                break
        else:
            return None
        bound = makespan - 1e-15
        cand_cps: list[tuple[int, tuple]] = []
        scan = position + 1
        for k in range(bisect_right(cp_indices, position), len(cp_indices)):
            stop = cp_indices[k]
            clock.drive(plain[scan:stop])
            scan = stop
            snapshot = tuple(clocks)
            if snapshot == cp_clocks[k] or max(clocks) >= bound:
                return False, makespan, cand_cps
            cand_cps.append((stop, snapshot))
        clock.drive(plain[scan:])
        cand_makespan = clock.makespan
        return cand_makespan < bound, cand_makespan, cand_cps

    @staticmethod
    def _apply_accept(
        cp_indices: list[int],
        cp_clocks: list[tuple],
        cand_cps: list[tuple[int, tuple]],
        moves_of_trap: dict[int, list[int]],
        target: int,
        position: int,
    ) -> None:
        """Fold an accepted hoist into the incremental structures.

        Baseline snapshots inside (target, position] described the old
        op order and are replaced by the candidate's; move positions in
        [target, position) shift one slot right (the hoisted gate now
        precedes them).
        """
        keep = bisect_right(cp_indices, target)
        del cp_indices[keep:]
        del cp_clocks[keep:]
        for index, snapshot in cand_cps:
            cp_indices.append(index)
            cp_clocks.append(snapshot)
        for positions in moves_of_trap.values():
            lo = bisect_left(positions, target)
            hi = bisect_left(positions, position)
            for k in range(lo, hi):
                positions[k] += 1
