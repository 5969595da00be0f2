"""Machine presets matching the paper and QCCDSim.

The paper evaluates on the "L6" configuration of Murali et al. [7]:
6 traps in a line, total capacity 17 per trap, communication capacity 2
per trap (Section IV-A, "Hardware model").
"""

from __future__ import annotations

import math

from .machine import QCCDMachine, uniform_machine
from .topology import grid_topology, linear_topology, ring_topology

#: Paper defaults (Section IV-A).
L6_TRAPS = 6
L6_CAPACITY = 17
L6_COMM_CAPACITY = 2


def l6_machine(
    capacity: int = L6_CAPACITY, comm_capacity: int = L6_COMM_CAPACITY
) -> QCCDMachine:
    """The paper's evaluation machine: 6 linear traps, 17/2 capacity."""
    return uniform_machine(
        linear_topology(L6_TRAPS), capacity, comm_capacity, name="L6"
    )


def linear_machine(
    num_traps: int,
    capacity: int = L6_CAPACITY,
    comm_capacity: int = L6_COMM_CAPACITY,
) -> QCCDMachine:
    """A linear machine of arbitrary length (QCCDSim's L2/L3/L6 family)."""
    return uniform_machine(
        linear_topology(num_traps), capacity, comm_capacity
    )


def ring_machine(
    num_traps: int,
    capacity: int = L6_CAPACITY,
    comm_capacity: int = L6_COMM_CAPACITY,
) -> QCCDMachine:
    """A ring machine (topology-sweep extension)."""
    return uniform_machine(ring_topology(num_traps), capacity, comm_capacity)


def grid_machine(
    rows: int,
    cols: int,
    capacity: int = L6_CAPACITY,
    comm_capacity: int = L6_COMM_CAPACITY,
) -> QCCDMachine:
    """A grid machine (QCCDSim's G2x3-style configuration)."""
    return uniform_machine(grid_topology(rows, cols), capacity, comm_capacity)


def _parse_spec(spec: str) -> tuple[str, tuple[int, ...]]:
    """``(family, sizes)`` of a machine spec string, e.g.
    ``("grid", (2, 3))``; :class:`ValueError` for anything else."""
    if isinstance(spec, str):
        try:
            if spec == "l6":
                return "l6", ()
            for family in ("linear", "ring"):
                if spec.startswith(family):
                    return family, (int(spec[len(family) :]),)
            if spec.startswith("grid"):
                rows, cols = spec[len("grid") :].split("x")
                return "grid", (int(rows), int(cols))
        except ValueError:
            pass
    raise ValueError(f"unknown machine {spec!r}")


def spec_num_traps(spec: str) -> int:
    """The trap count of the machine ``spec`` names, read off the spec
    string without building the machine (a large one takes seconds).
    Raises :class:`ValueError` for a malformed spec."""
    family, sizes = _parse_spec(spec)
    return L6_TRAPS if family == "l6" else math.prod(sizes)


def machine_from_spec(spec: str) -> QCCDMachine:
    """Parse one machine spec string into a preset machine.

    Accepted forms: ``l6``, ``linearN``, ``ringN``, ``gridRxC`` — the
    vocabulary shared by the CLI and :mod:`repro.loadgen` scenarios.
    Raises :class:`ValueError` for anything else.
    """
    family, sizes = _parse_spec(spec)
    builders = {
        "l6": l6_machine,
        "linear": linear_machine,
        "ring": ring_machine,
        "grid": grid_machine,
    }
    try:
        return builders[family](*sizes)
    except ValueError:
        pass
    raise ValueError(f"unknown machine {spec!r}")
