"""Shared error hierarchy of the machine-semantics kernel.

Every layer that applies machine ops — compiler, simulator, verifier,
passes — reports rule violations through exceptions derived from
:class:`MachineModelError`, so callers that do not care *which* layer
rejected a program can catch the single base class:

* :class:`CompilationError` (exported as
  ``repro.compiler.CompilationError``),
* :class:`~repro.sim.simulator.SimulationError`,
* :class:`~repro.passes.verify.VerificationError`

all subclass it.  The kernel itself (:mod:`repro.core.state`,
:mod:`repro.core.replaying`) raises plain :class:`MachineModelError`; the
layers re-raise under their own subclass with the kernel's message
preserved.  The compiler mutates a kernel
:class:`~repro.core.state.MachineState` directly, so its error type
lives here, beside the base it refines.
"""

from __future__ import annotations


class MachineModelError(RuntimeError):
    """A machine-semantics rule was violated (placement, capacity,
    transit discipline, in-chain adjacency, or shuttle connectivity)."""


class CompilationError(MachineModelError):
    """Raised when a circuit cannot be compiled onto the machine."""
