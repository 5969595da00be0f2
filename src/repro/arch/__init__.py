"""Multi-trap trapped-ion (QCCD) machine model."""

from .machine import QCCDMachine, heterogeneous_machine, uniform_machine
from .presets import (
    L6_CAPACITY,
    L6_COMM_CAPACITY,
    L6_TRAPS,
    grid_machine,
    l6_machine,
    linear_machine,
    ring_machine,
)
from .topology import (
    TopologyError,
    TrapTopology,
    grid_topology,
    linear_topology,
    ring_topology,
)
from .trap import TrapError, TrapSpec

__all__ = [
    "L6_CAPACITY",
    "L6_COMM_CAPACITY",
    "L6_TRAPS",
    "QCCDMachine",
    "TopologyError",
    "TrapError",
    "TrapSpec",
    "TrapTopology",
    "grid_machine",
    "grid_topology",
    "heterogeneous_machine",
    "l6_machine",
    "linear_machine",
    "linear_topology",
    "ring_machine",
    "ring_topology",
    "uniform_machine",
]
