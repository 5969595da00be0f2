"""Merge/split fusion (with opportunistic route shortening).

A parked ion is one the compiler merged into a trap and split right
back out before any gate touched it there — the classic shape of a
re-balancing eviction that immediately resumed its journey.  The merge
and split were pure overhead: fusing the two excursions lets the ion
pass *through* the trap in transit, saving a split and a merge (time
and heating; transit ions do not even occupy a chain slot).

Fusion also exposes a stronger rewrite: once the two legs are one
journey from the first leg's origin ``S`` to the second leg's
destination ``D``, the concatenated hop sequence may be longer than the
machine's shortest ``S -> D`` route (an ion evicted two traps right and
then needed one trap left walks 3 hops where 1 suffices).  When it is,
the whole journey is re-emitted along a shortest path — strictly fewer
MoveOps, i.e. fewer shuttles in the paper's Table II accounting.

Every rewrite is speculative and individually verified through the
checkpointed splice engine (each candidate is one
``(start, end, replacement)`` splice replayed from the nearest state
checkpoint — the full-replay verdict at O(window) cost): the shortened
route occupies different traps at different stream positions, so a
candidate is kept only when the machine model accepts it.  The late
anchor (emitting the journey where the original second leg ended) is
tried before the early anchor (where the first leg began), because
keeping the ion home longest is the least disruptive to capacity.
Chain-order schedules with explicit merge positions are fused but never
re-routed (entry-edge semantics would change).
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
from ..core.replay import CheckpointedReplay
from ..sim.schedule import Schedule

#: Safety cap on fusion sweeps (each sweep must accept at least one
#: rewrite to continue; real schedules converge in a handful).
_MAX_SWEEPS = 64


class MergeSplitFusion(SchedulePass):
    """Fuse merge/split pairs; shorten the fused route when possible."""

    name = "fuse-merge-split"
    description = (
        "an ion merged and re-split with no gate in between keeps "
        "moving instead, re-routed via a shortest path when shorter"
    )

    def run(
        self, schedule: Schedule, ctx: PassContext
    ) -> tuple[Schedule, int]:
        engine = CheckpointedReplay(
            ctx.machine, schedule.ops, ctx.initial_chains
        )
        editor = SpliceEditor(engine, schedule)
        ops = list(schedule.ops)
        rewrites = 0
        for _ in range(_MAX_SWEEPS):
            editor.begin_sweep()
            accepted = self._sweep(ops, editor, ctx)
            if not accepted:
                break
            rewrites += accepted
            ops[:] = engine.ops
        return editor.schedule, rewrites

    def _sweep(
        self, ops: list, editor: SpliceEditor, ctx: PassContext
    ) -> int:
        gate_index = gate_indices_by_ion(ops)
        by_ion: dict[int, list[Excursion]] = {}
        for trip in extract_excursions(ops):
            by_ion.setdefault(trip.ion, []).append(trip)

        touched: set[int] = set()  # split indices of consumed trips
        accepted = 0

        for ion, trips in sorted(by_ion.items()):
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

        Empty when they coincide (the fused trip degenerates to a full
        round trip — pure deletion, same as elision would do).
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
