"""Pluggable replay observers: timing, heating/fidelity, occupancy.

The kernel replay (:func:`repro.core.replaying.replay`) applies legality
rules only; everything else the layers derive from a schedule — trap
clocks and makespan, chain heating and gate fidelities, occupancy
timelines — is accumulated by observers notified after every applied
op.  An observer implements::

    observe(index: int, op: MachineOp, state: MachineState | None) -> None

``state`` is the post-op machine state during a legality replay and may
be ``None`` when an observer is driven over a raw op stream without
legality checking (see :meth:`ClockObserver.drive`) — only
:class:`HeatingObserver` reads it (chain length at gate time).

Numeric behaviour is bit-compatible with the pre-kernel simulator: the
per-trap accumulation order of every float is unchanged, so a
:class:`~repro.sim.simulator.SimulationReport` built from these
observers is identical to one produced by the old monolithic loop.
"""

from __future__ import annotations

import math

from .ops import GateOp, MergeOp, MoveOp, SplitOp, SwapOp
from .params import (
    DEFAULT_PARAMS,
    MachineParams,
    NoiseParams,
    TimingParams,
)

#: Fidelity floor used when accumulating logs (a 0-fidelity gate would
#: otherwise produce -inf and drown every other effect).
FIDELITY_FLOOR = 1e-12


class ClockObserver:
    """Per-trap clocks under the paper's timing model (Section II-B1).

    Gates and split/merge/swap ops advance their trap's clock; a move
    synchronizes both endpoint clocks then advances them together.
    """

    __slots__ = ("clocks", "timing")

    def __init__(
        self, num_traps: int, timing: TimingParams | None = None
    ) -> None:
        self.clocks = [0.0] * num_traps
        self.timing = timing if timing is not None else TimingParams()

    @property
    def makespan(self) -> float:
        """Maximum trap clock (schedule duration)."""
        return max(self.clocks) if self.clocks else 0.0

    def snapshot(self) -> tuple:
        """Opaque copy of the accumulated clocks (exact floats)."""
        return tuple(self.clocks)

    def resume(self, snapshot: tuple) -> "ClockObserver":
        """Reset the clocks to a previously taken :meth:`snapshot`.

        Restoring is exact (the snapshot holds the accumulated floats
        verbatim), so driving the remaining ops after a resume yields
        bit-identical clocks to one uninterrupted scan.
        """
        self.clocks = list(snapshot)
        return self

    def observe(self, index: int, op, state) -> None:
        clocks = self.clocks
        timing = self.timing
        cls = type(op)
        if cls is GateOp or isinstance(op, GateOp):
            clocks[op.trap] += timing.gate_time(op.gate.num_qubits)
        elif cls is MoveOp or isinstance(op, MoveOp):
            start = max(clocks[op.src], clocks[op.dst])
            clocks[op.src] = start + timing.move_time
            clocks[op.dst] = start + timing.move_time
        elif cls is SplitOp or isinstance(op, SplitOp):
            clocks[op.trap] += timing.split_time
        elif cls is MergeOp or isinstance(op, MergeOp):
            clocks[op.trap] += timing.merge_time
        elif cls is SwapOp or isinstance(op, SwapOp):
            clocks[op.trap] += timing.swap_time

    def drive(self, ops) -> "ClockObserver":
        """Feed a raw op stream without a legality replay.

        This is the makespan-estimation fast path (duration-oriented
        passes call it hundreds of times per schedule): one tight loop,
        no per-op dispatch through :meth:`observe`.
        """
        clocks = self.clocks
        timing = self.timing
        gate1q_time = timing.gate1q_time
        gate2q_time = timing.gate2q_time
        split_time = timing.split_time
        merge_time = timing.merge_time
        swap_time = timing.swap_time
        move_time = timing.move_time
        for op in ops:
            cls = type(op)
            if cls is GateOp:
                clocks[op.trap] += (
                    gate2q_time
                    if len(op.gate.qubits) >= 2
                    else gate1q_time
                )
            elif cls is MoveOp:
                src, dst = op.src, op.dst
                start = clocks[src]
                if clocks[dst] > start:
                    start = clocks[dst]
                clocks[src] = start + move_time
                clocks[dst] = start + move_time
            elif cls is SplitOp:
                clocks[op.trap] += split_time
            elif cls is MergeOp:
                clocks[op.trap] += merge_time
            elif cls is SwapOp:
                clocks[op.trap] += swap_time
            else:  # subclass or foreign op: generic dispatch
                self.observe(0, op, None)
        return self


class HeatingObserver:
    """Chain heating and gate fidelities under the additive model.

    Tracks per-trap motional mode ``n̄`` (splits heat the source chain,
    moves heat the ion in transit, merges deposit the carried quanta
    plus a fixed overhead, background heating accrues per gate), and
    accumulates per-gate fidelities ``F = 1 - Γτ - A(2n̄+1)`` in log
    space (Section II-B3).  Requires a legality replay: the chain
    length entering the fidelity model is read from the live
    :class:`~repro.core.state.MachineState`.
    """

    __slots__ = (
        "noise",
        "timing",
        "nbar",
        "transit_energy",
        "log_fidelity",
        "gate_fidelities",
        "max_nbar",
        "min_gate_fidelity",
        "_nbar_sum",
        "_nbar_count",
    )

    def __init__(
        self, num_traps: int, params: MachineParams = DEFAULT_PARAMS
    ) -> None:
        self.noise: NoiseParams = params.noise
        self.timing: TimingParams = params.timing
        self.nbar = [0.0] * num_traps
        self.transit_energy: dict[int, float] = {}
        self.log_fidelity = 0.0
        self.gate_fidelities: list[float] = []
        self.max_nbar = 0.0
        self.min_gate_fidelity = 1.0
        self._nbar_sum = 0.0
        self._nbar_count = 0

    @property
    def mean_gate_nbar(self) -> float:
        """Mean chain n̄ sampled at each two-qubit gate."""
        if not self._nbar_count:
            return 0.0
        return self._nbar_sum / self._nbar_count

    def snapshot(self) -> tuple:
        """Opaque copy of the accumulated heating state (exact floats,
        including the per-gate fidelity list — a snapshot stays valid
        no matter what the observer is driven over afterwards)."""
        return (
            tuple(self.nbar),
            tuple(self.transit_energy.items()),
            self.log_fidelity,
            tuple(self.gate_fidelities),
            self.max_nbar,
            self.min_gate_fidelity,
            self._nbar_sum,
            self._nbar_count,
        )

    def resume(self, snapshot: tuple) -> "HeatingObserver":
        """Reset to a previously taken :meth:`snapshot` (exact floats;
        observing the remaining ops after a resume is bit-identical to
        one uninterrupted scan)."""
        (
            nbar,
            transit_energy,
            self.log_fidelity,
            gate_fidelities,
            self.max_nbar,
            self.min_gate_fidelity,
            self._nbar_sum,
            self._nbar_count,
        ) = snapshot
        self.nbar = list(nbar)
        self.transit_energy = dict(transit_energy)
        self.gate_fidelities = list(gate_fidelities)
        return self

    def observe(self, index: int, op, state) -> None:
        noise = self.noise
        nbar = self.nbar
        cls = type(op)
        if cls is GateOp or isinstance(op, GateOp):
            trap = op.trap
            tau = self.timing.gate_time(op.gate.num_qubits)
            two_qubit = op.gate.is_two_qubit
            if two_qubit:
                fidelity = noise.gate_fidelity(
                    tau, nbar[trap], state.occupancy(trap)
                )
                self._nbar_sum += nbar[trap]
                self._nbar_count += 1
            else:
                fidelity = 1.0 - noise.one_qubit_infidelity
            nbar[trap] += noise.background_heating_rate * tau
            if nbar[trap] > self.max_nbar:
                self.max_nbar = nbar[trap]
            if noise.recool_enabled and two_qubit:
                # Sympathetic co-cooling relaxes the chain.
                nbar[trap] = noise.recool_floor + (
                    nbar[trap] - noise.recool_floor
                ) * noise.recool_decay
            if fidelity < FIDELITY_FLOOR:
                fidelity = FIDELITY_FLOOR
            if fidelity < self.min_gate_fidelity:
                self.min_gate_fidelity = fidelity
            self.log_fidelity += math.log(fidelity)
            self.gate_fidelities.append(fidelity)
        elif cls is MoveOp or isinstance(op, MoveOp):
            # .get: an ion already in transit when observation started
            # (observer attached mid-stream) carries unknown energy — 0.
            self.transit_energy[op.ion] = (
                self.transit_energy.get(op.ion, 0.0) + noise.move_heating
            )
        elif cls is SplitOp or isinstance(op, SplitOp):
            nbar[op.trap] += noise.split_heating
            if nbar[op.trap] > self.max_nbar:
                self.max_nbar = nbar[op.trap]
            self.transit_energy[op.ion] = 0.0
        elif cls is MergeOp or isinstance(op, MergeOp):
            # Additive heating model (QCCDSim behaviour, Fig. 3): the
            # merge deposits the ion's transit energy plus a fixed
            # merge overhead into the destination chain.
            carried = noise.carried_energy_fraction * self.transit_energy.pop(
                op.ion, 0.0
            )
            nbar[op.trap] += carried + noise.merge_heating
            if nbar[op.trap] > self.max_nbar:
                self.max_nbar = nbar[op.trap]
        elif cls is SwapOp or isinstance(op, SwapOp):
            nbar[op.trap] += noise.swap_heating
            if nbar[op.trap] > self.max_nbar:
                self.max_nbar = nbar[op.trap]


class OccupancyTraceObserver:
    """Occupancy deltas as ``(stream index, trap, delta)`` events.

    Transit ions occupy no trap (matching the machine model): only
    splits and merges change occupancy.  The event list supports the
    congestion queries of the re-routing pass via :func:`occupancy_at`.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[tuple[int, int, int]] = []

    def observe(self, index: int, op, state) -> None:
        cls = type(op)
        if cls is SplitOp or isinstance(op, SplitOp):
            self.events.append((index, op.trap, -1))
        elif cls is MergeOp or isinstance(op, MergeOp):
            self.events.append((index, op.trap, +1))

    def snapshot(self) -> tuple:
        """Opaque copy of the accumulated events (a snapshot stays
        valid no matter what the observer is driven over afterwards)."""
        return tuple(self.events)

    def resume(self, snapshot: tuple) -> "OccupancyTraceObserver":
        """Reset the event list to a previously taken :meth:`snapshot`."""
        self.events = list(snapshot)
        return self

    @staticmethod
    def events_of(ops) -> list[tuple[int, int, int]]:
        """Occupancy events of a raw op stream (no legality replay)."""
        events: list[tuple[int, int, int]] = []
        for index, op in enumerate(ops):
            cls = type(op)
            if cls is SplitOp or isinstance(op, SplitOp):
                events.append((index, op.trap, -1))
            elif cls is MergeOp or isinstance(op, MergeOp):
                events.append((index, op.trap, +1))
        return events


def occupancy_at(
    events, initial_occupancy, position: int
) -> list[int]:
    """Per-trap ion counts just before stream index ``position``,
    starting from ``initial_occupancy`` (one count per trap)."""
    occupancy = list(initial_occupancy)
    for index, trap, delta in events:
        if index >= position:
            break
        occupancy[trap] += delta
    return occupancy


def estimate_makespan(
    num_traps: int, ops, timing: TimingParams | None = None
) -> float:
    """Makespan of an op stream under the clock model (no legality
    replay; noise is irrelevant to timing)."""
    return ClockObserver(num_traps, timing).drive(ops).makespan
