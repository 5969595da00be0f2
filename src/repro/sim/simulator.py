"""QCCD machine simulator.

Replays a compiled :class:`~repro.sim.schedule.Schedule` through the
machine-semantics kernel (:mod:`repro.core`), validating every
instruction (a malformed schedule raises :class:`SimulationError`
rather than producing garbage numbers) and tracking, via the kernel's
observers:

* per-trap ion chains (occupancy limits enforced op by op by
  :class:`~repro.core.state.MachineState`),
* per-chain motional mode ``n̄`` under the additive heating model of
  :class:`~repro.core.params.NoiseParams` (Fig. 3's qualitative behaviour:
  splits heat the source chain, moves heat the ion in transit, merges
  deposit that transit energy plus a fixed overhead into the destination
  chain — total system heat is the sum of per-op contributions) —
  :class:`~repro.core.observers.HeatingObserver`,
* per-trap clocks — gates are serial within a trap and parallel across
  traps (Section II-B1), moves synchronize the two endpoint traps —
  :class:`~repro.core.observers.ClockObserver`,
* per-gate fidelity under ``F = 1 - Γτ - A(2n̄+1)`` accumulated in log
  space into a program fidelity (Section II-B3).

The legality rules live in the kernel, shared verbatim with the
schedule verifier (:mod:`repro.passes.verify`) and the compiler's
forward state — the three layers cannot drift apart.

Model simplifications versus the authors' testbed are documented in
DESIGN.md §4; both compilers are evaluated under the identical model so
improvement *ratios* (Fig. 8) remain comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..arch.machine import QCCDMachine
from ..core.errors import MachineModelError
from ..core.observers import ClockObserver, HeatingObserver
from ..core.params import DEFAULT_PARAMS, MachineParams
from ..core.replaying import replay
from .schedule import Schedule


class SimulationError(MachineModelError):
    """Raised when a schedule is not executable on the machine."""


@dataclass
class SimulationReport:
    """Outcome of simulating one schedule."""

    program_log_fidelity: float  # natural log of product of gate fidelities
    duration: float  # makespan in seconds (max trap clock)
    num_gates: int
    num_two_qubit_gates: int
    num_shuttles: int
    num_splits: int
    num_merges: int
    min_gate_fidelity: float
    max_nbar: float
    mean_gate_nbar: float
    gate_fidelities: list[float] = field(default_factory=list, repr=False)

    @property
    def program_fidelity(self) -> float:
        """Product of gate fidelities (may underflow to 0.0 for large
        circuits — use :attr:`program_log_fidelity` for comparisons)."""
        return math.exp(self.program_log_fidelity)

    @property
    def log10_fidelity(self) -> float:
        """Program fidelity exponent in base 10."""
        return self.program_log_fidelity / math.log(10.0)

    def improvement_over(self, baseline: "SimulationReport") -> float:
        """Fidelity ratio self/baseline (the Fig. 8 ``X`` metric)."""
        return math.exp(self.program_log_fidelity - baseline.program_log_fidelity)


class Simulator:
    """Validating executor for compiled schedules."""

    def __init__(
        self,
        machine: QCCDMachine,
        params: MachineParams = DEFAULT_PARAMS,
    ) -> None:
        self.machine = machine
        self.params = params

    def run(
        self,
        schedule: Schedule,
        initial_chains: dict[int, list[int]],
    ) -> SimulationReport:
        """Execute a schedule starting from the given trap chains.

        ``initial_chains`` maps trap id to the ordered ion chain produced
        by the initial mapping.
        """
        clock = ClockObserver(self.machine.num_traps, self.params.timing)
        heat = HeatingObserver(self.machine.num_traps, self.params)
        try:
            replay(self.machine, schedule, initial_chains, (clock, heat))
        except MachineModelError as exc:
            raise SimulationError(str(exc)) from None

        schedule_stats = schedule.count_kinds()
        return SimulationReport(
            program_log_fidelity=heat.log_fidelity,
            duration=clock.makespan,
            num_gates=schedule_stats.get("gate", 0),
            num_two_qubit_gates=schedule.num_two_qubit_gates,
            num_shuttles=schedule_stats.get("move", 0),
            num_splits=schedule_stats.get("split", 0),
            num_merges=schedule_stats.get("merge", 0),
            min_gate_fidelity=heat.min_gate_fidelity,
            max_nbar=heat.max_nbar,
            mean_gate_nbar=heat.mean_gate_nbar,
            gate_fidelities=heat.gate_fidelities,
        )

