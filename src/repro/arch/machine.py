"""QCCD machine description: topology + per-trap capacities.

A :class:`QCCDMachine` is the static hardware model handed to the
compiler and the simulator.  The paper's evaluation machine is
:func:`repro.arch.presets.l6_machine`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .topology import TrapTopology
from .trap import TrapError, TrapSpec


@dataclass(frozen=True)
class QCCDMachine:
    """Static multi-trap machine model.

    Parameters
    ----------
    topology:
        Trap interconnect graph.
    traps:
        One :class:`TrapSpec` per trap, indexed by trap id.
    name:
        Label used in reports.
    """

    topology: TrapTopology
    traps: tuple[TrapSpec, ...]
    name: str = "qccd"

    def __post_init__(self) -> None:
        if len(self.traps) != self.topology.num_traps:
            raise TrapError(
                f"{len(self.traps)} trap specs for a "
                f"{self.topology.num_traps}-trap topology"
            )
        for index, spec in enumerate(self.traps):
            if spec.trap_id != index:
                raise TrapError(
                    f"trap spec at position {index} has id {spec.trap_id}"
                )
        if not self.topology.is_connected():
            raise TrapError("machine topology must be connected")

    @property
    def num_traps(self) -> int:
        """Number of traps."""
        return self.topology.num_traps

    @property
    def total_capacity(self) -> int:
        """Sum of total trap capacities."""
        return sum(spec.capacity for spec in self.traps)

    @property
    def load_capacity(self) -> int:
        """Maximum qubits an initial mapping may place
        (total capacity minus reserved communication capacity)."""
        return sum(spec.load_capacity for spec in self.traps)

    def trap(self, trap_id: int) -> TrapSpec:
        """The spec of one trap."""
        return self.traps[trap_id]

    def __repr__(self) -> str:
        return (
            f"QCCDMachine(name={self.name!r}, traps={self.num_traps}, "
            f"capacity={self.total_capacity}, load={self.load_capacity})"
        )


def uniform_machine(
    topology: TrapTopology,
    capacity: int,
    comm_capacity: int,
    name: str | None = None,
) -> QCCDMachine:
    """A machine with identical traps everywhere (the common case)."""
    specs = tuple(
        TrapSpec(trap_id=i, capacity=capacity, comm_capacity=comm_capacity)
        for i in range(topology.num_traps)
    )
    label = name if name is not None else (
        f"{topology.name}-cap{capacity}-comm{comm_capacity}"
    )
    return QCCDMachine(topology=topology, traps=specs, name=label)


def heterogeneous_machine(
    topology: TrapTopology,
    capacities: Sequence[int],
    comm_capacities: Sequence[int],
    name: str = "qccd-hetero",
) -> QCCDMachine:
    """A machine whose traps differ in size (extension beyond the paper)."""
    if len(capacities) != topology.num_traps:
        raise TrapError("one capacity per trap required")
    if len(comm_capacities) != topology.num_traps:
        raise TrapError("one comm capacity per trap required")
    specs = tuple(
        TrapSpec(trap_id=i, capacity=capacities[i], comm_capacity=comm_capacities[i])
        for i in range(topology.num_traps)
    )
    return QCCDMachine(topology=topology, traps=specs, name=name)
