"""Schedule legality verification and circuit-equivalence checks.

Every optimization pass rewrites the op stream; this module is the
safety net that makes those rewrites trustworthy.  :func:`verify_schedule`
replays a schedule through the machine-semantics kernel
(:mod:`repro.core`) — *the same engine* the simulator executes and the
compiler's forward state mutates, so the rules (ion placement, trap
capacity, transit discipline, in-chain adjacency) cannot drift between
layers — but without timing or noise observers, so a full legality
check costs one linear scan.  :func:`verify_equivalent` then checks
that an optimized schedule still executes the *same program*: every
qubit sees the same gates in the original order.  That one rule implies
an unchanged gate multiset (a gate acts on at least one qubit, so it
appears in some qubit's sequence) and that every dependency edge of the
circuit DAG is respected.

The pass manager refuses to return any schedule that fails either check;
individual passes also use :func:`is_legal` as the accept/revert oracle
for speculative rewrites.
"""

from __future__ import annotations

from ..arch.machine import QCCDMachine
from ..core.errors import MachineModelError
from ..core.ops import GateOp
from ..core.replaying import replay
from ..sim.schedule import Schedule


class VerificationError(MachineModelError):
    """Raised when a schedule is illegal or not circuit-equivalent."""


def verify_schedule(
    machine: QCCDMachine,
    schedule: Schedule,
    initial_chains: dict[int, list[int]],
) -> dict[int, list[int]]:
    """Replay ``schedule`` against the machine model; raise on the first
    illegal op.  Returns the final per-trap chains of the replay.

    Checks (the kernel's rules, shared with
    :class:`~repro.sim.simulator.Simulator`):

    * initial chains fit their traps and place each ion once,
    * gates execute only on co-located ions,
    * splits take ions that are present and not already in transit,
    * moves follow existing edges into traps with spare capacity,
    * merges land transit ions in the trap they actually reached,
    * swaps exchange *adjacent* chain members,
    * no ion is left in transit at the end.
    """
    try:
        state = replay(machine, schedule, initial_chains)
    except MachineModelError as exc:
        raise VerificationError(str(exc)) from None
    return state.chains_dict()


def is_legal(
    machine: QCCDMachine,
    schedule: Schedule,
    initial_chains: dict[int, list[int]],
) -> bool:
    """Boolean form of :func:`verify_schedule` (the pass accept oracle)."""
    try:
        replay(machine, schedule, initial_chains)
    except MachineModelError:
        return False
    return True


def qubit_gate_sequences(schedule: Schedule) -> dict[int, tuple]:
    """Per-qubit gate order: qubit -> tuple of gates touching it, in
    execution order.  Two schedules with equal sequences execute the
    same circuit up to reordering of independent gates — every
    dependency edge (gates sharing a qubit) keeps its direction."""
    sequences: dict[int, list] = {}
    for op in schedule:
        if isinstance(op, GateOp):
            for qubit in op.gate.qubits:
                sequences.setdefault(qubit, []).append(op.gate)
    return {qubit: tuple(gates) for qubit, gates in sequences.items()}


class EquivalenceReference:
    """Precomputed circuit-equivalence reference for one schedule.

    The pass manager compares every pass candidate against the *same*
    original schedule, so the original's per-qubit gate sequences are
    built once per optimization run and each candidate is
    :meth:`verify`-ed against them.  The gate count is compared first
    only so that a dropped or duplicated gate is reported as such.
    """

    __slots__ = ("_num_gates", "_sequences")

    def __init__(self, schedule: Schedule) -> None:
        self._num_gates = schedule.num_gates
        self._sequences = qubit_gate_sequences(schedule)

    def verify(self, candidate: Schedule) -> None:
        """Raise unless ``candidate`` executes the reference circuit."""
        if candidate.num_gates != self._num_gates:
            raise VerificationError(
                "optimized schedule changed the gate multiset"
            )
        if qubit_gate_sequences(candidate) != self._sequences:
            raise VerificationError(
                "optimized schedule reordered dependent gates"
            )


def verify_equivalent(before: Schedule, after: Schedule) -> None:
    """Raise unless ``after`` executes the same circuit as ``before``.

    Equivalence = identical per-qubit gate sequences (so an identical
    gate multiset, and dependency edges preserved).  Shuttle structure
    is free to differ — that is what the passes rewrite.
    """
    EquivalenceReference(before).verify(after)
