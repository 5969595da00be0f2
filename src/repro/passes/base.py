"""Shared infrastructure for schedule-optimization passes.

A pass is a pure rewrite: it receives a compiled
:class:`~repro.sim.schedule.Schedule` plus the compilation context
(machine model, initial chains) and returns a rewritten schedule with a
count of the rewrites it performed.  Passes never mutate their input —
the :class:`~repro.passes.manager.PassManager` decides whether the
output is kept (after verification) or discarded.

This module also provides the stream analyses every shuttle-rewriting
pass needs:

* :func:`extract_excursions` — group each ion's SPLIT/MOVE.../MERGE
  chains into :class:`Excursion` records (one per trip between traps),
* :func:`gate_indices_by_ion` / :func:`has_gate_on_ion_between` — fast
  "did a gate touch this ion inside this window?" queries,
* :class:`SpliceEditor` — the bridge between a pass's speculative
  edits (delete these indices, insert these ops) and the kernel's
  incremental verification engine
  (:class:`~repro.core.replaying.CheckpointedReplay`): each candidate is
  folded into one ``(start, end, replacement)`` splice and verified in
  O(window) instead of a full O(schedule) replay per trial.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from collections.abc import Sequence

from ..arch.machine import QCCDMachine
from ..core.ops import GateOp, MachineOp, MergeOp, MoveOp, SplitOp, SwapOp
from ..core.replaying import CheckpointedReplay
from ..sim.schedule import Schedule


@dataclass(frozen=True)
class PassContext:
    """Everything a pass may consult besides the op stream itself."""

    machine: QCCDMachine
    initial_chains: dict[int, list[int]]


class SchedulePass(ABC):
    """One composable schedule rewrite.

    Subclasses define ``name`` (the registry/CLI identifier) and
    ``description`` (one line, shown by ``repro info``), and implement
    :meth:`run`.
    """

    name: str = "pass"
    description: str = ""

    @abstractmethod
    def run(
        self, schedule: Schedule, ctx: PassContext
    ) -> tuple[Schedule, int]:
        """Rewrite ``schedule``; return (new schedule, rewrite count).

        A rewrite count of 0 means the pass found nothing to do and the
        returned schedule is (semantically) the input.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass
class Excursion:
    """One ion trip: SPLIT, one MOVE per hop, MERGE.

    ``prep_swap_indices`` are the in-chain SWAP ops emitted immediately
    before the split to walk the ion to its exit end of the chain
    (``track_chain_order`` compilations only) — they belong to the trip
    and die with it.
    """

    ion: int
    split_index: int
    move_indices: list[int] = field(default_factory=list)
    merge_index: int = -1
    prep_swap_indices: list[int] = field(default_factory=list)
    start_trap: int = -1
    end_trap: int = -1

    def op_indices(self, include_prep_swaps: bool = True) -> list[int]:
        """Every stream index belonging to this trip, ascending."""
        indices = (
            list(self.prep_swap_indices) if include_prep_swaps else []
        )
        indices.append(self.split_index)
        indices.extend(self.move_indices)
        indices.append(self.merge_index)
        return sorted(indices)

    @property
    def num_moves(self) -> int:
        return len(self.move_indices)


def extract_excursions(ops: Sequence[MachineOp]) -> list[Excursion]:
    """All complete excursions of the op stream, in merge order.

    Incomplete trips (split without merge — illegal anyway) are dropped.
    """
    open_trips: dict[int, Excursion] = {}
    # SWAPs directly preceding a split and involving the split ion are
    # that trip's chain-end repositioning; remember the trailing run.
    trailing_swaps: list[tuple[int, SwapOp]] = []
    excursions: list[Excursion] = []

    for index, op in enumerate(ops):
        if isinstance(op, SwapOp):
            trailing_swaps.append((index, op))
            continue
        if isinstance(op, SplitOp):
            trip = Excursion(
                ion=op.ion, split_index=index, start_trap=op.trap
            )
            for swap_index, swap in reversed(trailing_swaps):
                if op.ion in (swap.ion_a, swap.ion_b):
                    trip.prep_swap_indices.insert(0, swap_index)
                else:
                    break
            open_trips[op.ion] = trip
        elif isinstance(op, MoveOp):
            trip = open_trips.get(op.ion)
            if trip is not None:
                trip.move_indices.append(index)
        elif isinstance(op, MergeOp):
            trip = open_trips.pop(op.ion, None)
            if trip is not None:
                trip.merge_index = index
                trip.end_trap = op.trap
                excursions.append(trip)
        trailing_swaps.clear()
    return excursions


def gate_indices_by_ion(
    ops: Sequence[MachineOp],
) -> dict[int, list[int]]:
    """For each qubit, the ascending stream indices of gates touching it."""
    indices: dict[int, list[int]] = {}
    for index, op in enumerate(ops):
        if isinstance(op, GateOp):
            for qubit in op.gate.qubits:
                indices.setdefault(qubit, []).append(index)
    return indices


def has_gate_on_ion_between(
    gate_indices: dict[int, list[int]], ion: int, lo: int, hi: int
) -> bool:
    """True when a gate touches ``ion`` at a stream index in (lo, hi)."""
    positions = gate_indices.get(ion)
    if not positions:
        return False
    return bisect_left(positions, hi) > bisect_right(positions, lo)


class SpliceEditor:
    """Verify-and-commit speculative edits through the splice engine.

    Shuttle-rewriting passes enumerate candidates in *sweep-start*
    coordinates — stream indices of the op list they analysed at the
    top of a sweep — while accepted rewrites accumulate in the
    engine's current stream.  The editor maps between the two index
    spaces, folds each trial (a set of deleted indices plus optional
    insertions) into a single contiguous ``(start, end, replacement)``
    splice, asks the :class:`~repro.core.replaying.CheckpointedReplay`
    engine for the verdict a full legality replay would reach — in
    O(window + √N) instead of O(schedule) — and commits accepted
    edits so later trials verify against the up-to-date stream.

    Each candidate stream submitted to the engine is, by construction,
    the edited stream materialized in full (deleted indices dropped,
    insertions emitted before their anchor), so accept/revert decisions
    are the ones a full replay would reach; the materializing oracle
    lives in ``tests/test_incremental_replay.py``.

    ``schedule`` tracks the engine's current stream as a
    :class:`~repro.sim.schedule.Schedule`, advanced through
    :meth:`Schedule.spliced` on every committed edit — the kept rows'
    columns are sliced and only the replacement ops are encoded, so
    the pass's result carries its columns without a re-encode.

    The engine is built on the first :meth:`try_edit`, not before: a
    pass that finds no candidate (the common case for round-trip
    deletion) pays no replay at all.  It is built from ``schedule`` itself, so its
    construction replay reads the schedule's own columns.
    """

    def __init__(self, schedule: Schedule, ctx: PassContext) -> None:
        self.schedule = schedule
        self._ctx = ctx
        self._engine: CheckpointedReplay | None = None
        self._deleted: list[int] = []
        self._ins_pos: list[int] = []
        self._ins_counts: list[int] = []
        self._ins_prefix: list[int] = []

    @property
    def engine(self) -> CheckpointedReplay:
        """The splice engine over the current stream (built on first
        use from the schedule the editor was opened on)."""
        if self._engine is None:
            self._engine = CheckpointedReplay(
                self._ctx.machine, self.schedule, self._ctx.initial_chains
            )
        return self._engine

    def begin_sweep(self) -> None:
        """Reset the coordinate map: the engine's *current* stream
        becomes the new sweep-start index space."""
        self._deleted.clear()
        self._ins_pos.clear()
        self._ins_counts.clear()
        self._ins_prefix.clear()

    def current_index(self, index: int) -> int:
        """Current-stream position of the surviving sweep-start op
        ``index`` (earlier accepted deletions shift it left, earlier
        accepted insertions shift it right)."""
        position = index - bisect_left(self._deleted, index)
        k = bisect_right(self._ins_pos, index)
        if k:
            position += self._ins_prefix[k - 1]
        return position

    def try_edit(
        self,
        deletions,
        insertions: dict[int, list[MachineOp]] | None = None,
    ) -> bool:
        """Verify one speculative edit; commit and return True when the
        rewritten stream is legal.

        ``deletions`` are sweep-start indices of surviving ops to drop;
        ``insertions`` maps a sweep-start anchor (which must itself be
        deleted by this edit) to ops emitted in its place.  On False the
        engine and the coordinate map are untouched.
        """
        dels = sorted(deletions)
        current = [self.current_index(i) for i in dels]
        delete_set = set(current)
        insert_at: dict[int, list[MachineOp]] = {}
        if insertions:
            for anchor, new_ops in insertions.items():
                insert_at[self.current_index(anchor)] = list(new_ops)
        start, end = current[0], current[-1] + 1
        ops = self.engine.ops
        replacement: list[MachineOp] = []
        for position in range(start, end):
            added = insert_at.get(position)
            if added is not None:
                replacement.extend(added)
            if position not in delete_set:
                replacement.append(ops[position])
        verdict = self.engine.verify_splice(start, end, replacement)
        if not verdict.ok:
            return False
        self.engine.commit(verdict)
        self.schedule = self.schedule.spliced(start, end, replacement)
        for index in dels:
            insort(self._deleted, index)
        if insertions:
            for anchor, new_ops in insertions.items():
                position = bisect_left(self._ins_pos, anchor)
                self._ins_pos.insert(position, anchor)
                self._ins_counts.insert(position, len(new_ops))
            total = 0
            self._ins_prefix.clear()
            for count in self._ins_counts:
                total += count
                self._ins_prefix.append(total)
        return True

