"""Schedule legality verification and circuit-equivalence checks.

Every optimization pass rewrites the op stream; this module is the
safety net that makes those rewrites trustworthy.  :func:`verify_schedule`
replays a schedule through the machine-semantics kernel
(:mod:`repro.core`) — *the same engine* the simulator executes and the
compiler's forward state mutates, so the rules (ion placement, trap
capacity, transit discipline, in-chain adjacency) cannot drift between
layers — but without timing or noise observers, so a full legality
check costs one linear scan.  :func:`verify_equivalent` then checks
that an optimized schedule still executes the *same program*: the gate
multiset is unchanged and every qubit sees its gates in the original
order (which implies every dependency edge of the circuit DAG is
respected).

The pass manager refuses to return any schedule that fails either check;
individual passes also use :func:`is_legal` as the accept/revert oracle
for speculative rewrites.
"""

from __future__ import annotations

from collections import Counter

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


def gate_multiset(schedule: Schedule) -> Counter:
    """Multiset of executed gates (name, qubits, params)."""
    return Counter(op.gate for op in schedule.gate_ops())


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
    original schedule; rebuilding the original's gate multiset and
    per-qubit orders for each candidate doubled the equivalence cost.
    Build the reference once per optimization run, then
    :meth:`verify` each candidate against it — identical verdicts,
    half the work.
    """

    __slots__ = ("_multiset", "_sequences")

    def __init__(self, schedule: Schedule) -> None:
        self._multiset = gate_multiset(schedule)
        self._sequences = qubit_gate_sequences(schedule)

    def verify(self, candidate: Schedule) -> None:
        """Raise unless ``candidate`` executes the reference circuit."""
        if gate_multiset(candidate) != self._multiset:
            raise VerificationError(
                "optimized schedule changed the gate multiset"
            )
        if qubit_gate_sequences(candidate) != self._sequences:
            raise VerificationError(
                "optimized schedule reordered dependent gates"
            )


def verify_equivalent(before: Schedule, after: Schedule) -> None:
    """Raise unless ``after`` executes the same circuit as ``before``.

    Equivalence = identical gate multiset and identical per-qubit gate
    order (dependency edges preserved).  Shuttle structure is free to
    differ — that is what the passes rewrite.
    """
    EquivalenceReference(before).verify(after)
