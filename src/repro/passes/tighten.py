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
clock interleaving changes).  The hoisted order is checked against the
circuit's :class:`~repro.circuits.dag.DependencyDAG` and each
candidate hoist is kept only when the timing replay confirms a strict
makespan improvement.

The makespan guard is incremental: the pass keeps
:class:`~repro.core.observers.ClockObserver` snapshots every K ops
(K = √N) over the current stream, scores a candidate by resuming the
snapshot nearest its hoist window and driving only the remainder, and
abandons the scan early the moment the candidate's clock vector
re-converges with a stored baseline snapshot — identical clocks from
identical remaining ops mean an identical makespan, i.e. a rejection,
without ever touching the tail.  Clock restoration is float-exact, so
every accept/reject decision (and the final stream) matches what a
from-scratch :func:`~repro.passes.base.estimate_makespan` per
candidate used to produce.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import isqrt

from .base import PassContext, SchedulePass
from .verify import VerificationError
from ..circuits.circuit import Circuit
from ..circuits.dag import DependencyDAG
from ..core.observers import ClockObserver
from ..core.ops import GateOp, MergeOp, MoveOp, SplitOp, SwapOp
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

    #: Bound on timing-replay evaluations per run (each is now an
    #: incremental scan from the nearest clock checkpoint; a hoist that
    #: crosses a barrier but does not shorten the critical path is
    #: evaluated once and discarded).
    max_evaluations = 512

    #: Bound on how far back one gate may bubble.  Keeps the commute
    #: scan O(n * window) on gate-dense schedules — without it a long
    #: run of mutually-independent gates costs a quadratic scan that
    #: never even reaches a move to justify it.
    max_hoist_distance = 256

    def run(
        self, schedule: Schedule, ctx: PassContext
    ) -> tuple[Schedule, int]:
        # Pair each op with its original position so the DAG check can
        # recover the gate permutation afterwards; `plain` mirrors the
        # bare op sequence so the timing scans drive list slices
        # instead of per-op tuple unpacking.
        indexed = list(enumerate(schedule.ops))
        plain = list(schedule.ops)
        n = len(indexed)
        if not n:
            return schedule, 0
        rewrites = 0
        evaluations = 0

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
        while position < n:
            op = plain[position]
            if (
                not isinstance(op, GateOp)
                or evaluations >= self.max_evaluations
            ):
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
                evaluations += 1
                accepted, cand_makespan, cand_cps = self._evaluate(
                    clock, plain, target, position,
                    cp_indices, cp_clocks, makespan,
                )
                if accepted:
                    indexed.insert(target, indexed.pop(position))
                    plain.insert(target, plain.pop(position))
                    makespan = cand_makespan
                    rewrites += 1
                    self._apply_accept(
                        cp_indices, cp_clocks, cand_cps,
                        moves_of_trap, target, position,
                    )
            position += 1

        if not rewrites:
            return schedule, 0
        hoisted = Schedule(op for _, op in indexed)
        self._check_dag_order(schedule, indexed)
        return hoisted, rewrites

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
    ) -> tuple[bool, float, list[tuple[int, tuple]]]:
        """Score hoisting the gate at ``position`` to ``target``.

        Returns (accepted, candidate makespan, candidate snapshots) —
        the snapshots (taken at the baseline checkpoint indices beyond
        the window) replace the stale ones when the hoist is accepted.
        The scan resumes from the checkpoint nearest ``target`` and
        abandons rejected candidates early, on either of two sound
        exits checked at every checkpoint boundary:

        * *re-convergence* — the candidate's clock vector equals the
          baseline's, so identical remaining ops yield an identical
          (not strictly better) makespan;
        * *bound* — clocks are nondecreasing (every op adds a
          non-negative duration; a move syncs to the max), so once the
          running maximum reaches ``makespan - 1e-15`` the final
          makespan cannot dip back below the strict-improvement guard.

        Neither exit can fire for a candidate that would be accepted,
        so accept/reject decisions (and the accepted makespan floats)
        are identical to scoring every candidate from scratch.
        """
        # Clocks entering the hoist window (exact prefix floats).
        cp_pos = bisect_right(cp_indices, target) - 1
        clock.resume(cp_clocks[cp_pos])
        if cp_indices[cp_pos] < target:
            clock.drive(plain[cp_indices[cp_pos] : target])
        # The reordered window: the hoisted gate first, then the ops it
        # bubbled past.  The candidate's op sequence beyond `position`
        # is unchanged.
        clock.drive((plain[position],))
        clock.drive(plain[target:position])

        clocks = clock.clocks
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

    @staticmethod
    def _check_dag_order(original: Schedule, indexed: list) -> None:
        """Assert the hoisted gate order is a topological order of the
        original circuit's dependency DAG (belt and braces on top of
        the commutation rules)."""
        gate_ops = original.gate_ops()
        if not gate_ops:
            return
        num_qubits = (
            max(q for op in gate_ops for q in op.gate.qubits) + 1
        )
        circuit = Circuit(num_qubits, (op.gate for op in gate_ops))
        dag = DependencyDAG(circuit)
        # Original gate index per stream position, then the permutation
        # induced by the hoisted stream order.
        gate_number: dict[int, int] = {}
        counter = 0
        for stream_index, op in enumerate(original.ops):
            if isinstance(op, GateOp):
                gate_number[stream_index] = counter
                counter += 1
        order = [
            gate_number[original_index]
            for original_index, op in indexed
            if isinstance(op, GateOp)
        ]
        if not dag.is_valid_order(order):
            raise VerificationError(
                "gate hoisting produced an order violating the "
                "dependency DAG"
            )
