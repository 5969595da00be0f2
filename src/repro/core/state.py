"""Array-backed machine state with the single op-application engine.

:class:`MachineState` is the one implementation of the machine's
op-application rules — ion placement, trap capacity, transit
discipline, in-chain adjacency, shuttle connectivity.  The compiler's
forward state, the simulator, the schedule verifier and the pass
manager's replay loops all delegate to it (directly or through thin
façades), so a rule exists in exactly one place and every layer agrees
on legality by construction.

Layout is chosen for the replay hot path:

* ``ion -> trap`` is a flat list indexed by ion id (``-1`` = not in a
  trap) instead of a dict — the dominant lookup of every gate/split
  check is one list index,
* the transit registry is a parallel flat list (``-1`` = not in
  transit) plus a counter, so "is this ion in transit" is O(1) and the
  end-of-schedule strandedness check is O(1) in the common case,
* per-trap chains stay ordered ``list``\\ s (chain order is semantic:
  swap adjacency and merge positions depend on it); chains are short
  (trap capacity), so the occasional ``list.remove``/``index`` is
  cheap,
* the topology's edge set is snapshotted into a ``set`` of normalized
  pairs, making the move-connectivity check one hash probe.

All violations raise :class:`~repro.core.errors.MachineModelError`.
"""

from __future__ import annotations

from ..arch.machine import QCCDMachine
from .errors import MachineModelError
from .ops import GateOp, MergeOp, MoveOp, SplitOp, SwapOp

#: Sentinel for "ion is not here" in the flat lookup arrays.
NOWHERE = -1


class Checkpoint:
    """Immutable snapshot of a :class:`MachineState`'s dynamic fields.

    Only the array-backed mutable state is copied — chains, the flat
    ``ion -> trap`` and transit arrays, and the transit counter; the
    static machine description (capacities, edge set) is shared by
    reference.  A checkpoint can be restored into any state over the
    same machine any number of times (:meth:`MachineState.restore`
    copies, never aliases), which is what the incremental verification
    engine (:class:`~repro.core.replay.CheckpointedReplay`) relies on.
    """

    __slots__ = ("chains", "trap_of", "transit", "num_in_transit")

    def __init__(
        self,
        chains: list[list[int]],
        trap_of: list[int],
        transit: list[int],
        num_in_transit: int,
    ) -> None:
        self.chains = chains
        self.trap_of = trap_of
        self.transit = transit
        self.num_in_transit = num_in_transit


class MachineState:
    """Dynamic machine state: per-trap ion chains plus ions in transit.

    Parameters
    ----------
    machine:
        Static machine description (capacities, topology).
    initial_chains:
        Trap id -> ordered ion chain.  Validated: chains must fit their
        traps and place every ion exactly once.
    """

    __slots__ = (
        "machine",
        "capacities",
        "chains",
        "_trap_of",
        "_transit",
        "_num_in_transit",
        "_edges",
    )

    def __init__(
        self, machine: QCCDMachine, initial_chains: dict[int, list[int]]
    ) -> None:
        self.machine = machine
        self.capacities: list[int] = [spec.capacity for spec in machine.traps]
        self.chains: list[list[int]] = []
        self._edges: set[tuple[int, int]] = set(machine.topology.edges)

        max_ion = NOWHERE
        for chain in initial_chains.values():
            for ion in chain:
                if ion > max_ion:
                    max_ion = ion
        self._trap_of: list[int] = [NOWHERE] * (max_ion + 1)
        self._transit: list[int] = [NOWHERE] * (max_ion + 1)
        self._num_in_transit = 0

        trap_of = self._trap_of
        for spec in machine.traps:
            chain = list(initial_chains.get(spec.trap_id, []))
            if len(chain) > spec.capacity:
                raise MachineModelError(
                    f"initial chain of trap {spec.trap_id} "
                    f"({len(chain)} ions) exceeds capacity {spec.capacity}"
                )
            for ion in chain:
                if ion < 0:
                    raise MachineModelError(f"negative ion id {ion}")
                if trap_of[ion] != NOWHERE:
                    raise MachineModelError(
                        f"ions [{ion}] appear in multiple traps"
                    )
                trap_of[ion] = spec.trap_id
            self.chains.append(chain)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_traps(self) -> int:
        """Number of traps."""
        return len(self.chains)

    def trap_of(self, ion: int) -> int:
        """Trap currently holding ``ion``; raises when it is in transit
        or not on the machine at all."""
        trap = self.location(ion)
        if trap == NOWHERE:
            raise MachineModelError(f"ion {ion} is not mapped")
        return trap

    def location(self, ion: int) -> int:
        """Trap holding ``ion``, or :data:`NOWHERE` (no exception)."""
        trap_of = self._trap_of
        if 0 <= ion < len(trap_of):
            return trap_of[ion]
        return NOWHERE

    def transit_location(self, ion: int) -> int:
        """Trap an in-transit ``ion`` is parked beside, or NOWHERE."""
        transit = self._transit
        if 0 <= ion < len(transit):
            return transit[ion]
        return NOWHERE

    def in_transit(self, ion: int) -> bool:
        """True when ``ion`` is between a split and a merge."""
        return self.transit_location(ion) != NOWHERE

    def transit_ions(self) -> list[int]:
        """Sorted ids of all ions currently in transit."""
        if not self._num_in_transit:
            return []
        return [
            ion
            for ion, trap in enumerate(self._transit)
            if trap != NOWHERE
        ]

    def occupancy(self, trap: int) -> int:
        """Number of ions chained in ``trap`` (transit ions count for
        no trap)."""
        return len(self.chains[trap])

    def excess_capacity(self, trap: int) -> int:
        """EC = capacity - occupancy (the paper's key quantity)."""
        return self.capacities[trap] - len(self.chains[trap])

    def is_full(self, trap: int) -> bool:
        """True when the trap cannot accept another ion."""
        return len(self.chains[trap]) >= self.capacities[trap]

    def chain(self, trap: int) -> list[int]:
        """Copy of the trap's ordered ion chain."""
        return list(self.chains[trap])

    def co_located(self, ion_a: int, ion_b: int) -> bool:
        """True when both ions share a trap (gate directly executable)."""
        return self.trap_of(ion_a) == self.trap_of(ion_b)

    def has_edge(self, a: int, b: int) -> bool:
        """True when a shuttle path connects traps ``a`` and ``b``."""
        return ((a, b) if a < b else (b, a)) in self._edges

    def chains_dict(self) -> dict[int, list[int]]:
        """Trap id -> chain copy (report/hand-off format)."""
        return {t: list(chain) for t, chain in enumerate(self.chains)}

    # ------------------------------------------------------------------
    # Snapshotting (the incremental-verification fast path)
    # ------------------------------------------------------------------
    def checkpoint(self) -> Checkpoint:
        """Snapshot the dynamic state (array copies, O(ions + traps))."""
        return Checkpoint(
            [list(chain) for chain in self.chains],
            list(self._trap_of),
            list(self._transit),
            self._num_in_transit,
        )

    def restore(self, checkpoint: Checkpoint) -> "MachineState":
        """Reset the dynamic state to ``checkpoint`` (copying — the
        checkpoint stays valid and can be restored again)."""
        self.chains = [list(chain) for chain in checkpoint.chains]
        self._trap_of = list(checkpoint.trap_of)
        self._transit = list(checkpoint.transit)
        self._num_in_transit = checkpoint.num_in_transit
        return self

    def fork(self) -> "MachineState":
        """Independent copy sharing the static machine description.

        The flat arrays and per-trap chains are copied (mutating the
        fork never touches the original); ``machine``, ``capacities``
        and the edge set are immutable during replay and shared.
        """
        twin = MachineState.__new__(MachineState)
        twin.machine = self.machine
        twin.capacities = self.capacities
        twin._edges = self._edges
        twin.chains = [list(chain) for chain in self.chains]
        twin._trap_of = list(self._trap_of)
        twin._transit = list(self._transit)
        twin._num_in_transit = self._num_in_transit
        return twin

    def matches(self, other: "MachineState | Checkpoint") -> bool:
        """True when the dynamic state is identical to ``other``'s.

        ``other`` may be a live state or a :class:`Checkpoint`.  Chain
        *order* counts (it is semantic: swap adjacency and merge
        positions depend on it).  Comparing chains and the transit
        array suffices — the ``ion -> trap`` array is determined by the
        chains, and the transit counter by the transit array.
        """
        if isinstance(other, Checkpoint):
            return (
                self._num_in_transit == other.num_in_transit
                and self.chains == other.chains
                and self._transit == other.transit
            )
        return (
            self._num_in_transit == other._num_in_transit
            and self.chains == other.chains
            and self._transit == other._transit
        )

    # ------------------------------------------------------------------
    # Primitive mutations (the compiler's forward-state interface)
    # ------------------------------------------------------------------
    def _ensure_ion(self, ion: int) -> None:
        """Grow the flat arrays to cover ``ion``."""
        if ion < 0:
            raise MachineModelError(f"negative ion id {ion}")
        grow = ion + 1 - len(self._trap_of)
        if grow > 0:
            self._trap_of.extend([NOWHERE] * grow)
            self._transit.extend([NOWHERE] * grow)

    def detach_ion(self, ion: int) -> int:
        """Remove an ion from its chain (split); returns the source
        trap.  The ion is left *off* the machine and outside the
        transit registry — apply a :class:`~repro.core.ops.SplitOp`
        via :meth:`apply` instead when transit discipline should
        track it."""
        trap = self.trap_of(ion)
        self.chains[trap].remove(ion)
        self._trap_of[ion] = NOWHERE
        return trap

    def attach_ion(
        self, ion: int, trap: int, position: int | None = None
    ) -> None:
        """Attach an ion to a trap's chain (merge).

        ``position`` inserts at that chain index (0 = head); the
        default appends at the tail.
        """
        self._ensure_ion(ion)
        current = self._trap_of[ion]
        if current != NOWHERE:
            raise MachineModelError(
                f"ion {ion} attached while still in trap {current}"
            )
        chain = self.chains[trap]
        if len(chain) >= self.capacities[trap]:
            raise MachineModelError(
                f"ion {ion} attached to full trap {trap}"
            )
        if position is None:
            chain.append(ion)
        else:
            chain.insert(position, ion)
        self._trap_of[ion] = trap

    def swap_adjacent(self, trap: int, index: int) -> tuple[int, int]:
        """Exchange the chain neighbours at ``index`` and ``index + 1``;
        returns the swapped ion pair (new order)."""
        chain = self.chains[trap]
        if not 0 <= index < len(chain) - 1:
            raise MachineModelError(
                f"no adjacent pair at position {index} in trap {trap}"
            )
        chain[index], chain[index + 1] = chain[index + 1], chain[index]
        return chain[index], chain[index + 1]

    # ------------------------------------------------------------------
    # Op application (the single legality-checked transition function)
    # ------------------------------------------------------------------
    def apply(self, op) -> None:
        """Apply one machine op, raising :class:`MachineModelError` on
        the first rule violation.  The state is unchanged when the op
        is rejected.

        This is the replay hot path (every ``is_legal`` probe of every
        speculative pass rewrite funnels through here), so the five
        branches are inlined rather than dispatched to per-kind
        methods, and dispatch compares exact classes before falling
        back to ``isinstance`` for subclassed ops.
        """
        cls = type(op)
        trap_of = self._trap_of
        size = len(trap_of)

        if cls is GateOp or isinstance(op, GateOp):
            trap = op.trap
            for qubit in op.gate.qubits:
                if not 0 <= qubit < size or trap_of[qubit] != trap:
                    raise MachineModelError(
                        f"gate {op.gate} in trap {trap} "
                        f"but ion {qubit} is not there"
                    )

        elif cls is MoveOp or isinstance(op, MoveOp):
            ion = op.ion
            at = self._transit[ion] if 0 <= ion < size else NOWHERE
            if at == NOWHERE:
                raise MachineModelError(
                    f"ion {ion} moved without a split"
                )
            if at != op.src:
                raise MachineModelError(
                    f"ion {ion} moved from trap {op.src} "
                    f"but it is at trap {at}"
                )
            src, dst = op.src, op.dst
            if ((src, dst) if src < dst else (dst, src)) not in self._edges:
                raise MachineModelError(
                    f"no shuttle path {src} -> {dst}"
                )
            if len(self.chains[dst]) >= self.capacities[dst]:
                raise MachineModelError(
                    f"ion {ion} moved into full trap {dst}"
                )
            self._transit[ion] = dst

        elif cls is SplitOp or isinstance(op, SplitOp):
            ion = op.ion
            if 0 <= ion < size and self._transit[ion] != NOWHERE:
                raise MachineModelError(
                    f"ion {ion} split while in transit"
                )
            if not 0 <= ion < size or trap_of[ion] != op.trap:
                raise MachineModelError(
                    f"ion {ion} split from trap {op.trap} "
                    f"but it is not there"
                )
            self.chains[op.trap].remove(ion)
            trap_of[ion] = NOWHERE
            self._transit[ion] = op.trap
            self._num_in_transit += 1

        elif cls is MergeOp or isinstance(op, MergeOp):
            ion = op.ion
            at = self._transit[ion] if 0 <= ion < size else NOWHERE
            if at == NOWHERE:
                raise MachineModelError(
                    f"ion {ion} merged without a split"
                )
            if at != op.trap:
                raise MachineModelError(
                    f"ion {ion} merged into trap {op.trap} "
                    f"but it is at trap {at}"
                )
            chain = self.chains[op.trap]
            if len(chain) >= self.capacities[op.trap]:
                raise MachineModelError(
                    f"ion {ion} merged into full trap {op.trap}"
                )
            if op.position is None:
                chain.append(ion)
            else:
                chain.insert(op.position, ion)
            trap_of[ion] = op.trap
            self._transit[ion] = NOWHERE
            self._num_in_transit -= 1

        elif cls is SwapOp or isinstance(op, SwapOp):
            trap = op.trap
            chain = self.chains[trap]
            for ion in (op.ion_a, op.ion_b):
                if not 0 <= ion < size or trap_of[ion] != trap:
                    raise MachineModelError(
                        f"swap of ion {ion} in trap {trap} "
                        f"but it is not there"
                    )
            index_a = chain.index(op.ion_a)
            index_b = chain.index(op.ion_b)
            if abs(index_a - index_b) != 1:
                raise MachineModelError(
                    f"ions {op.ion_a} and {op.ion_b} "
                    f"not adjacent in trap {trap}"
                )
            chain[index_a], chain[index_b] = chain[index_b], chain[index_a]

        else:
            raise MachineModelError(f"unknown op {op!r}")

    def require_settled(self) -> None:
        """Raise unless every ion is chained (no transit in flight)."""
        if self._num_in_transit:
            raise MachineModelError(
                "schedule ended with ions in transit: "
                f"{self.transit_ions()}"
            )
