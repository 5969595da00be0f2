"""Round-trip shuttle elision.

The greedy compiler evicts ions out of congested traps (Section III-C)
and later routes them back when a gate finally needs them — or another
eviction pushes them home.  When an ion leaves a trap and returns to it
*without serving a single gate while away*, the whole journey was dead
weight: deleting its SPLIT/MOVE.../MERGE ops (possibly spanning several
consecutive excursions) executes the same circuit with strictly fewer
shuttles, less heating and less time.

Deletion is speculative: while the ion was away its home trap had one
more free slot, which other traffic may have relied on, so every
candidate round trip is verified against the machine model and
reverted when removing it would overfill a trap (or break in-chain
swap adjacency under ``track_chain_order``).  Verification runs
through the kernel's checkpointed splice engine
(:class:`~repro.core.replaying.CheckpointedReplay` via
:class:`~repro.passes.base.SpliceEditor`): each candidate deletion is
one splice replayed from the nearest state checkpoint instead of a
full O(schedule) replay — same verdicts, a fraction of the work.
"""

from __future__ import annotations

from .base import (
    PassContext,
    SchedulePass,
    SpliceEditor,
    extract_excursions,
    gate_indices_by_ion,
    has_gate_on_ion_between,
)
from ..sim.schedule import Schedule

#: How many round-trip endpoints to attempt per starting excursion
#: (longest first); bounds the number of verification splices.
_MAX_ATTEMPTS_PER_START = 4


class RoundTripElision(SchedulePass):
    """Delete shuttle round trips that return an ion home unused."""

    name = "elide-roundtrips"
    description = (
        "delete SPLIT/MOVE/MERGE chains that return an ion to its "
        "origin with no gate served in between"
    )

    def run(
        self, schedule: Schedule, ctx: PassContext
    ) -> tuple[Schedule, int]:
        editor = SpliceEditor(schedule, ctx)
        ops = list(schedule.ops)
        rewrites = 0
        # Re-sweep until a pass over the stream elides nothing: removing
        # one trip can join its neighbours into a new round trip.
        while True:
            editor.begin_sweep()
            accepted = self._sweep(ops, editor)
            if not accepted:
                break
            rewrites += accepted
            ops[:] = editor.engine.ops
        return editor.schedule, rewrites

    def _sweep(self, ops: list, editor: SpliceEditor) -> int:
        """One pass over the sweep-start stream ``ops``; accepted
        deletions are committed into the editor's engine."""
        gate_index = gate_indices_by_ion(ops)
        by_ion: dict[int, list] = {}
        for trip in extract_excursions(ops):
            by_ion.setdefault(trip.ion, []).append(trip)

        accepted = 0
        for ion, trips in sorted(by_ion.items()):
            start = 0
            while start < len(trips):
                chosen = self._elide_from(
                    editor, gate_index, ion, trips, start
                )
                if chosen is None:
                    start += 1
                else:
                    accepted += 1
                    start = chosen + 1
        return accepted

    def _elide_from(
        self,
        editor: SpliceEditor,
        gate_index: dict[int, list[int]],
        ion: int,
        trips: list,
        start: int,
    ) -> int | None:
        """Try to elide trips ``start..k`` for the largest viable ``k``.

        Returns the accepted end index, or None.  An accepted deletion
        is committed into the splice engine before returning.
        """
        first = trips[start]
        # Collect candidate endpoints: consecutive trips with no gate on
        # the ion in between, ending back at the starting trap.
        candidates: list[int] = []
        for k in range(start, len(trips)):
            if k > start and has_gate_on_ion_between(
                gate_index,
                ion,
                trips[k - 1].merge_index,
                trips[k].split_index,
            ):
                break
            if trips[k].end_trap == first.start_trap:
                candidates.append(k)
        for k in reversed(candidates[-_MAX_ATTEMPTS_PER_START:]):
            span = set()
            for trip in trips[start : k + 1]:
                span.update(trip.op_indices(include_prep_swaps=True))
            if editor.try_edit(span):
                return k
            # Keeping the repositioning swaps sometimes preserves a
            # chain order that later swaps depend on; retry without
            # deleting them.
            span_no_swaps = set()
            for trip in trips[start : k + 1]:
                span_no_swaps.update(
                    trip.op_indices(include_prep_swaps=False)
                )
            if span_no_swaps != span and editor.try_edit(span_no_swaps):
                return k
        return None
