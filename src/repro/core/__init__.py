"""Unified machine-semantics kernel (``repro.core``).

One op-application engine under every layer that interprets machine
ops.  Before this package, the machine's rules — ion placement, trap
capacity, transit discipline, in-chain adjacency, shuttle connectivity
— were independently re-implemented by the compiler's forward state,
the simulator, the schedule verifier, and the pass framework's
occupancy replay; every rule change had to be kept consistent by hand
across four copies.  Now:

* :class:`MachineState` holds the array-backed dynamic state and the
  single legality-checked transition function :meth:`MachineState.apply`,
  plus cheap snapshotting (:meth:`MachineState.fork` /
  :meth:`MachineState.checkpoint` / :meth:`MachineState.restore` and the
  :class:`Checkpoint` type),
* :func:`replay` is the one replay entry point (it picks the
  vectorized or the scalar kernel itself) with pluggable observers;
  :func:`replay_into` is the scalar loop on an existing state,
* :class:`CheckpointedReplay` is the incremental layer: √N-spaced
  checkpoints let any ``(start, end, replacement)`` splice of a
  replayed schedule be re-verified in O(window) — the pass pipeline's
  speculative-rewrite oracle (see DESIGN.md §7),
* :class:`ClockObserver` (per-trap timing/makespan),
  :class:`HeatingObserver` (n̄ + fidelity accumulation) and
  :class:`OccupancyTraceObserver` (timeline queries) reproduce, on top
  of that loop, everything the layers derive from a schedule,
* :class:`MachineModelError` roots the shared error hierarchy:
  ``CompilationError``, ``SimulationError`` and ``VerificationError``
  all subclass it.

See DESIGN.md §6 for the architecture rationale.
"""

from .errors import MachineModelError
from .observers import (
    FIDELITY_FLOOR,
    ClockObserver,
    HeatingObserver,
    OccupancyTraceObserver,
    estimate_makespan,
    occupancy_at,
)
from .replaying import (
    CheckpointedReplay,
    SpliceVerdict,
    replay,
    replay_into,
)
from .state import NOWHERE, Checkpoint, MachineState
from .vector import (
    HAVE_NUMPY,
    CompiledStream,
    check_stream,
    compile_stream,
    drain_stream,
)

__all__ = [
    "FIDELITY_FLOOR",
    "HAVE_NUMPY",
    "CompiledStream",
    "check_stream",
    "compile_stream",
    "drain_stream",
    "Checkpoint",
    "CheckpointedReplay",
    "ClockObserver",
    "HeatingObserver",
    "MachineModelError",
    "MachineState",
    "NOWHERE",
    "OccupancyTraceObserver",
    "SpliceVerdict",
    "estimate_makespan",
    "occupancy_at",
    "replay",
    "replay_into",
]
