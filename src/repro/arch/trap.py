"""Trap model (Section II-B1 of the paper).

A trap confines a chain of ions.  Two capacities govern scheduling:

* ``capacity`` — *total trap capacity*: the hard limit on ions present.
* ``comm_capacity`` — *communication capacity*: slots deliberately left
  empty at initial allocation so shuttled ions from other traps have room
  to land.  Initial mapping loads at most ``capacity - comm_capacity``
  ions per trap; during execution occupancy may grow up to ``capacity``.

*Excess capacity* (EC) = ``capacity - occupancy`` is the quantity both
shuttle-direction policies and the re-balancing logic reason about; the
runtime chains it is computed from live in
:class:`~repro.core.state.MachineState`.
"""

from __future__ import annotations

from dataclasses import dataclass


class TrapError(ValueError):
    """Raised on invalid trap configuration or an oversized load."""


@dataclass(frozen=True)
class TrapSpec:
    """Static description of one trap.

    Parameters
    ----------
    trap_id:
        Index of the trap in the machine (0-based).
    capacity:
        Total trap capacity (paper default for L6: 17).
    comm_capacity:
        Communication capacity reserved at initial allocation
        (paper default for L6: 2).
    """

    trap_id: int
    capacity: int
    comm_capacity: int

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise TrapError(f"trap {self.trap_id}: capacity must be positive")
        if not 0 <= self.comm_capacity < self.capacity:
            raise TrapError(
                f"trap {self.trap_id}: comm_capacity must be in "
                f"[0, capacity), got {self.comm_capacity}"
            )

    @property
    def load_capacity(self) -> int:
        """Ions the initial mapping may place here (capacity - comm)."""
        return self.capacity - self.comm_capacity
