"""Shared experiment runner.

Every experiment in the paper compares the same two compilations —
baseline [7] vs this work — of the same circuit from the same initial
mapping.  :func:`compare` runs one such comparison (optionally
simulating both schedules for fidelity), and :func:`run_suite` runs the
whole benchmark suite once so Table II, Table III and Fig. 8 can all be
derived from a single pass.

:func:`run_suite` dispatches through the batch engine
(:mod:`repro.batch`), so suite passes parallelize across worker
processes (``n_jobs``) and replay from the content-addressed result
cache (``cache``) while remaining element-wise identical to the direct
serial path of :func:`compare`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.machine import QCCDMachine
from ..arch.presets import l6_machine
from ..batch.cache import NullCache, ResultCache
from ..batch.jobs import paired_jobs
from ..batch.runner import BatchRunner
from ..bench.suite import paper_suite
from ..circuits.circuit import Circuit
from ..compiler.compiler import QCCDCompiler
from ..compiler.config import CompilerConfig
from ..compiler.mapping import greedy_initial_mapping
from ..compiler.result import CompilationResult
from ..core.params import DEFAULT_PARAMS, MachineParams
from ..sim.simulator import SimulationReport, Simulator
from .metrics import improvement_factor, reduction_percent


@dataclass
class BenchmarkComparison:
    """Baseline-vs-optimized outcome for one circuit."""

    circuit_name: str
    num_qubits: int
    num_two_qubit_gates: int
    baseline: CompilationResult
    optimized: CompilationResult
    baseline_report: SimulationReport | None = None
    optimized_report: SimulationReport | None = None

    @property
    def shuttle_reduction_percent(self) -> float:
        """Table II's %Delta column."""
        return reduction_percent(
            self.baseline.num_shuttles, self.optimized.num_shuttles
        )

    @property
    def shuttle_delta(self) -> int:
        """Table II's Delta column."""
        return self.baseline.num_shuttles - self.optimized.num_shuttles

    @property
    def fidelity_improvement(self) -> float:
        """Fig. 8's X metric (requires simulation)."""
        if self.baseline_report is None or self.optimized_report is None:
            raise ValueError("comparison was run without simulation")
        return improvement_factor(
            self.optimized_report.program_log_fidelity,
            self.baseline_report.program_log_fidelity,
        )

    @property
    def compile_time_overhead(self) -> float:
        """Table III's Delta column (seconds)."""
        return self.optimized.compile_time - self.baseline.compile_time

    @property
    def is_random(self) -> bool:
        """True for members of the random ensemble."""
        return self.circuit_name.startswith("Random")


def compare(
    circuit: Circuit,
    machine: QCCDMachine | None = None,
    baseline_config: CompilerConfig | None = None,
    optimized_config: CompilerConfig | None = None,
    params: MachineParams = DEFAULT_PARAMS,
    simulate: bool = True,
) -> BenchmarkComparison:
    """Compile one circuit with both configurations and (optionally)
    simulate both schedules.

    Both compilers start from the identical greedy initial mapping, as
    in the paper's methodology (Section IV-E3).
    """
    if machine is None:
        machine = l6_machine()
    if baseline_config is None:
        baseline_config = CompilerConfig.baseline()
    if optimized_config is None:
        optimized_config = CompilerConfig.optimized()

    chains = greedy_initial_mapping(circuit, machine)
    baseline = QCCDCompiler(machine, baseline_config).compile(
        circuit, initial_chains=chains
    )
    optimized = QCCDCompiler(machine, optimized_config).compile(
        circuit, initial_chains=chains
    )

    baseline_report = optimized_report = None
    if simulate:
        simulator = Simulator(machine, params)
        baseline_report = simulator.run(
            baseline.schedule, baseline.initial_chains
        )
        optimized_report = simulator.run(
            optimized.schedule, optimized.initial_chains
        )

    return BenchmarkComparison(
        circuit_name=circuit.name,
        num_qubits=circuit.num_qubits,
        num_two_qubit_gates=circuit.num_two_qubit_gates,
        baseline=baseline,
        optimized=optimized,
        baseline_report=baseline_report,
        optimized_report=optimized_report,
    )


def run_suite(
    circuits: list[Circuit] | None = None,
    machine: QCCDMachine | None = None,
    baseline_config: CompilerConfig | None = None,
    optimized_config: CompilerConfig | None = None,
    params: MachineParams = DEFAULT_PARAMS,
    simulate: bool = True,
    full: bool | None = None,
    verbose: bool = False,
    n_jobs: int = 1,
    cache: ResultCache | NullCache | str | None = None,
    runner: BatchRunner | None = None,
) -> list[BenchmarkComparison]:
    """Run the paper's suite (or a custom circuit list) through the
    batch engine: per circuit, one baseline job and one optimized job.

    ``n_jobs`` spreads compilations across worker processes and
    ``cache`` (a :class:`~repro.batch.cache.ResultCache` or a cache
    directory path) replays previously computed results; pass a
    pre-configured ``runner`` to control both plus progress callbacks.
    Results are identical to calling :func:`compare` per circuit.
    """
    if circuits is None:
        circuits = paper_suite(full=full)
    if machine is None:
        machine = l6_machine()
    if baseline_config is None:
        baseline_config = CompilerConfig.baseline()
    if optimized_config is None:
        optimized_config = CompilerConfig.optimized()

    jobs = paired_jobs(
        circuits,
        machine,
        baseline_config,
        optimized_config,
        params,
        simulate=simulate,
    )
    if runner is None:
        runner = BatchRunner(n_jobs=n_jobs, cache=cache)
    job_results = runner.run_or_raise(jobs)

    comparisons = []
    for index, circuit in enumerate(circuits):
        base, opt = job_results[2 * index], job_results[2 * index + 1]
        assert base.result is not None and opt.result is not None
        comparison = BenchmarkComparison(
            circuit_name=circuit.name,
            num_qubits=circuit.num_qubits,
            num_two_qubit_gates=circuit.num_two_qubit_gates,
            baseline=base.result,
            optimized=opt.result,
            baseline_report=base.report,
            optimized_report=opt.report,
        )
        if verbose:
            print(
                f"  {comparison.circuit_name}: "
                f"{comparison.baseline.num_shuttles} -> "
                f"{comparison.optimized.num_shuttles} shuttles "
                f"({comparison.shuttle_reduction_percent:.1f}%)"
            )
        comparisons.append(comparison)
    return comparisons
