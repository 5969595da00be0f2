"""Round-trip deletion, then merge/split fusion with route shortening.

The greedy compiler evicts ions out of congested traps (Section III-C)
and later routes them back when a gate needs them, or another eviction
pushes them home.  This pass rewrites those journeys in two phases.

**Deletion.**  An ion that leaves a trap and returns to it *without
serving a gate while away* made a dead journey: deleting its
SPLIT/MOVE.../MERGE ops (possibly spanning several consecutive
excursions) runs the same circuit with fewer shuttles, less heating and
less time.  From each starting excursion the longest such chain is
tried first.  Sweeps repeat to a fixpoint, since removing one trip can
join its neighbours into a new round trip.

**Fusion.**  An ion merged into a trap and split right back out before
any gate touched it there (an eviction that immediately resumed its
journey) keeps moving instead: dropping the merge and split lets it
pass *through* the trap in transit.  When the fused journey from the
first leg's origin to the second leg's destination is longer than the
machine's shortest route (evicted two traps right, then needed one
trap left), it is re-emitted along a shortest path: fewer MoveOps,
i.e. fewer shuttles in the paper's Table II accounting.  The late
anchor (where the second leg ended) is tried before the early one
(where the first began): keeping the ion home longest disturbs
capacity least.  Chain-order schedules with explicit merge positions
are fused but never re-routed (entry-edge semantics would change).

Every rewrite is speculative: while the ion was away its home trap had
a free slot other traffic may have used, and a shortened route crosses
other traps at other times.  Each candidate is one
``(start, end, replacement)`` splice verified through
:class:`~repro.passes.base.SpliceEditor` (the full-replay verdict at
O(window) cost) and kept only when the machine model accepts it.  Both
phases share the editor, so one engine serves the whole pass.
"""

from __future__ import annotations

from .base import (
    Excursion,
    PassContext,
    SchedulePass,
    SpliceEditor,
    extract_excursions,
    gate_indices_by_ion,
    has_gate_on_ion_between,
)
from ..core.ops import MachineOp, MergeOp, MoveOp, SplitOp, SwapOp
from ..sim.schedule import Schedule

#: Safety cap on each phase's sweeps (each sweep must accept at least
#: one rewrite to continue; real schedules converge in a handful).
_MAX_SWEEPS = 64

#: How many round-trip endpoints to attempt per starting excursion
#: (longest first); bounds the number of verification splices.
_MAX_ATTEMPTS_PER_START = 4

def _analyse(ops: list) -> tuple:
    """A sweep's view of its start stream: gate indices by ion, and
    ``(ion, excursions)`` pairs, ions ascending."""
    by_ion: dict[int, list[Excursion]] = {}
    for trip in extract_excursions(ops):
        by_ion.setdefault(trip.ion, []).append(trip)
    return gate_indices_by_ion(ops), sorted(by_ion.items())


class MergeSplitFusion(SchedulePass):
    """Delete gate-free round trips, then fuse merge/split pairs and
    shorten the fused route when possible."""

    name = "fuse-merge-split"
    description = (
        "a journey that returns an ion home with no gate served is "
        "deleted; an ion merged and re-split with no gate in between "
        "keeps moving instead, re-routed via a shortest path when shorter"
    )

    def run(
        self, schedule: Schedule, ctx: PassContext
    ) -> tuple[Schedule, int]:
        editor = SpliceEditor(schedule, ctx)
        ops = list(schedule.ops)
        analysis = _analyse(ops)
        rewrites = 0
        # Deletion runs to its fixpoint before fusion starts.  A sweep
        # that accepts nothing leaves ``ops`` as analysed, so the next
        # phase's first sweep reuses the analysis.
        for sweep in (self._delete_sweep, self._fuse_sweep):
            for _ in range(_MAX_SWEEPS):
                editor.begin_sweep()
                accepted = sweep(ops, analysis, editor, ctx)
                if not accepted:
                    break
                rewrites += accepted
                ops[:] = editor.engine.ops
                analysis = _analyse(ops)
        return editor.schedule, rewrites

    def _delete_sweep(
        self, ops: list, analysis: tuple, editor: SpliceEditor, ctx
    ) -> int:
        """One round-trip deletion pass over the sweep-start stream."""
        gate_index, trips_by_ion = analysis
        accepted = 0
        for _, trips in trips_by_ion:
            start = 0
            while start < len(trips):
                end = self._delete_from(editor, gate_index, trips, start)
                accepted += end is not None
                start = start + 1 if end is None else end + 1
        return accepted

    @staticmethod
    def _delete_from(
        editor: SpliceEditor,
        gate_index: dict[int, list[int]],
        trips: list[Excursion],
        start: int,
    ) -> int | None:
        """Delete trips ``start..k`` for the largest viable ``k`` (at
        most ``_MAX_ATTEMPTS_PER_START`` tried); return ``k`` or None.

        Each ``k`` is retried keeping the trips' exit-repositioning
        swaps, which sometimes preserve a chain order later swaps
        depend on.
        """
        ion, home = trips[start].ion, trips[start].start_trap
        # Endpoints: consecutive trips with no gate on the ion in
        # between, ending back at the starting trap.
        ends: list[int] = []
        for k in range(start, len(trips)):
            if k > start and has_gate_on_ion_between(
                gate_index, ion, trips[k - 1].merge_index, trips[k].split_index
            ):
                break
            if trips[k].end_trap == home:
                ends.append(k)
        for k in reversed(ends[-_MAX_ATTEMPTS_PER_START:]):
            chain = trips[start : k + 1]
            span = {i for trip in chain for i in trip.op_indices()}
            kept_swaps = {i for trip in chain for i in trip.op_indices(False)}
            if editor.try_edit(span) or (
                kept_swaps != span and editor.try_edit(kept_swaps)
            ):
                return k
        return None

    def _fuse_sweep(
        self, ops: list, analysis: tuple, editor: SpliceEditor, ctx
    ) -> int:
        """One fusion pass over the sweep-start stream."""
        gate_index, trips_by_ion = analysis
        touched: set[int] = set()  # split indices of consumed trips
        accepted = 0

        for ion, trips in trips_by_ion:
            for first, second in zip(trips, trips[1:]):
                if (
                    first.split_index in touched
                    or second.split_index in touched
                ):
                    continue
                if has_gate_on_ion_between(
                    gate_index, ion, first.merge_index, second.split_index
                ):
                    continue
                if self._blocked_by_swaps(
                    ops, ion, first.merge_index, second.split_index, second
                ):
                    continue
                if self._fuse(ops, editor, ctx, first, second):
                    touched.add(first.split_index)
                    touched.add(second.split_index)
                    accepted += 1
        return accepted

    @staticmethod
    def _blocked_by_swaps(
        ops: list,
        ion: int,
        merge_index: int,
        split_index: int,
        second: Excursion,
    ) -> bool:
        """True when the parked ion took part in an in-chain swap that
        is *not* the second leg's own exit repositioning — deleting the
        park would strand that swap."""
        prep = set(second.prep_swap_indices)
        for index in range(merge_index + 1, split_index):
            op = ops[index]
            if (
                isinstance(op, SwapOp)
                and ion in (op.ion_a, op.ion_b)
                and index not in prep
            ):
                return True
        return False

    def _fuse(
        self,
        ops: list,
        editor: SpliceEditor,
        ctx: PassContext,
        first: Excursion,
        second: Excursion,
    ) -> bool:
        """Try shortened-route fusion, then plain fusion; first legal
        candidate wins (committed into the splice engine)."""
        machine = ctx.machine
        origin, destination = first.start_trap, second.end_trap
        total_moves = first.num_moves + second.num_moves
        chain_order_free = (
            ops[first.merge_index].position is None
            and ops[second.merge_index].position is None
            and not first.prep_swap_indices
            and not second.prep_swap_indices
        )

        if (
            chain_order_free
            and machine.topology.distance(origin, destination) < total_moves
        ):
            replacement = self._route_ops(
                machine, first.ion, origin, destination,
                ops[second.split_index].reason,
                ops[second.merge_index].reason,
            )
            span = set(first.op_indices()) | set(second.op_indices())
            for anchor in (second.merge_index, first.split_index):
                if editor.try_edit(span, {anchor: replacement}):
                    return True

        # Plain fusion: drop the merge, the re-split and the re-split's
        # exit repositioning; the ion passes through in transit.
        span = {first.merge_index, second.split_index}
        span.update(second.prep_swap_indices)
        return editor.try_edit(span)

    @staticmethod
    def _route_ops(
        machine,
        ion: int,
        origin: int,
        destination: int,
        split_reason,
        merge_reason,
    ) -> list[MachineOp]:
        """A fresh shortest-path journey ``origin -> destination``.

        Empty when they coincide: the fused journey is a round trip,
        deleted outright.
        """
        if origin == destination:
            return []
        path = machine.topology.shortest_path(origin, destination)
        journey: list[MachineOp] = [
            SplitOp(ion=ion, trap=origin, reason=split_reason)
        ]
        journey.extend(
            MoveOp(ion=ion, src=a, dst=b, reason=merge_reason)
            for a, b in zip(path, path[1:])
        )
        journey.append(
            MergeOp(ion=ion, trap=destination, reason=merge_reason)
        )
        return journey
