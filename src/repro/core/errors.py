"""Shared error hierarchy of the machine-semantics kernel.

Every layer that applies machine ops — compiler, simulator, verifier,
passes — reports rule violations through exceptions derived from
:class:`MachineModelError`, so callers that do not care *which* layer
rejected a program can catch the single base class:

* :class:`~repro.compiler.state.CompilationError`,
* :class:`~repro.sim.simulator.SimulationError`,
* :class:`~repro.passes.verify.VerificationError`

all subclass it.  The kernel itself (:mod:`repro.core.state`,
:mod:`repro.core.replaying`) raises plain :class:`MachineModelError`; the
layer wrappers re-raise under their own subclass with the kernel's
message preserved.
"""

from __future__ import annotations


class MachineModelError(RuntimeError):
    """A machine-semantics rule was violated (placement, capacity,
    transit discipline, in-chain adjacency, or shuttle connectivity)."""
