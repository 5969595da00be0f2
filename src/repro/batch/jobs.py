"""Declarative compilation jobs and cartesian sweep expansion.

A :class:`CompileJob` is the unit of work of the batch engine: one
circuit compiled onto one machine under one compiler configuration,
optionally simulated under one parameter set.  Jobs are plain data —
picklable (so they cross :mod:`multiprocessing` boundaries) and
content-fingerprintable (so results are cacheable across runs).

:func:`sweep` expands the experiment grids the paper is built from
(circuits x machines x configs x params) into a deterministic job
list; every axis accepts either a single object or an iterable.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..arch.machine import QCCDMachine
from ..circuits.circuit import Circuit
from ..compiler.config import CompilerConfig
from ..compiler.mapping import greedy_initial_mapping
from ..core.params import DEFAULT_PARAMS, MachineParams
from .fingerprint import (
    FINGERPRINT_VERSION,
    canonical_json,
    circuit_json,
    digest,
)


@dataclass(frozen=True)
class CompileJob:
    """One (circuit, machine, config, params) compilation task.

    Parameters
    ----------
    circuit:
        Input circuit.
    machine:
        Target machine model.
    config:
        Compiler heuristics to use.
    params:
        Timing/noise parameters (only consulted when ``simulate``).
    simulate:
        Also replay the compiled schedule through the simulator.
    initial_chains:
        Optional explicit initial mapping; ``None`` means the greedy
        initial mapping is computed inside the worker (deterministic,
        so equal jobs still produce equal results).
    deadline:
        Optional per-job wall-clock budget in seconds, enforced by the
        resilient runner (worker-side ``SIGALRM`` guard plus a
        parent-side kill backstop); overrides the runner-level
        ``timeout``.  ``None`` defers to the runner.
    """

    circuit: Circuit
    machine: QCCDMachine
    config: CompilerConfig
    params: MachineParams = field(default=DEFAULT_PARAMS)
    simulate: bool = False
    initial_chains: dict[int, list[int]] | None = None
    #: Execution budget, not a compilation input: deliberately excluded
    #: from :meth:`fingerprint`, so the same job with a different
    #: deadline still hits the same cache entry.
    deadline: float | None = None

    @property
    def label(self) -> str:
        """Human-readable job identity used in progress lines."""
        return f"{self.circuit.name} @ {self.machine.name} / {self.config.name}"

    def fingerprint(self) -> str:
        """Content hash of every compilation input (never of outputs)."""
        rest = canonical_json(
            {
                "version": FINGERPRINT_VERSION,
                "machine": self.machine,
                "config": self.config,
                "params": self.params if self.simulate else None,
                "simulate": self.simulate,
                "initial_chains": self.initial_chains,
            }
        )
        # The document also holds "circuit", which sorts before every
        # other key: splice the circuit's (memoized) text in front.
        return digest(f'{{"circuit":{circuit_json(self.circuit)},{rest[1:]}')

    def describe(self) -> list[str]:
        """Row cells for ``repro sweep --dry-run`` listings."""
        return [
            self.circuit.name,
            str(self.circuit.num_qubits),
            str(self.circuit.num_two_qubit_gates),
            self.machine.name,
            self.config.name,
            "yes" if self.simulate else "no",
            self.fingerprint()[:12],
        ]


def _as_list(value: Any, kind: type) -> list:
    """Normalize a single object or an iterable into a list."""
    if isinstance(value, kind):
        return [value]
    if isinstance(value, Iterable):
        items = list(value)
        for item in items:
            if not isinstance(item, kind):
                raise TypeError(
                    f"expected {kind.__name__}, got {type(item).__name__}"
                )
        return items
    raise TypeError(
        f"expected {kind.__name__} or iterable of them, "
        f"got {type(value).__name__}"
    )


def sweep(
    circuits: Circuit | Iterable[Circuit],
    machines: QCCDMachine | Iterable[QCCDMachine],
    configs: CompilerConfig | Iterable[CompilerConfig],
    params: MachineParams | Iterable[MachineParams] = DEFAULT_PARAMS,
    simulate: bool = False,
) -> list[CompileJob]:
    """Expand a cartesian grid into a deterministic job list.

    Nesting order (outer to inner): circuit, machine, config, params —
    so all configs of one circuit/machine pair are adjacent, which is
    what paired baseline-vs-optimized analyses expect.
    """
    circuit_list = _as_list(circuits, Circuit)
    machine_list = _as_list(machines, QCCDMachine)
    config_list = _as_list(configs, CompilerConfig)
    params_list = _as_list(params, MachineParams)
    if not (circuit_list and machine_list and config_list and params_list):
        raise ValueError("every sweep axis needs at least one element")
    jobs: list[CompileJob] = []
    for circuit in circuit_list:
        for machine in machine_list:
            for config in config_list:
                for machine_params in params_list:
                    jobs.append(
                        CompileJob(
                            circuit=circuit,
                            machine=machine,
                            config=config,
                            params=machine_params,
                            simulate=simulate,
                        )
                    )
    return jobs


def paired_jobs(
    circuits: Sequence[Circuit],
    machine: QCCDMachine,
    baseline_config: CompilerConfig,
    optimized_config: CompilerConfig,
    params: MachineParams = DEFAULT_PARAMS,
    simulate: bool = False,
) -> list[CompileJob]:
    """The harness grid: per circuit, the baseline job then the
    optimized job (indices ``2*i`` and ``2*i + 1``).

    The greedy initial mapping is computed once per circuit and pinned
    on both jobs — the paper's methodology (both compilers start from
    the identical placement) and half the mapping work of leaving each
    job to derive it.
    """
    jobs: list[CompileJob] = []
    for circuit in circuits:
        chains = greedy_initial_mapping(circuit, machine)
        for config in (baseline_config, optimized_config):
            jobs.append(
                CompileJob(
                    circuit=circuit,
                    machine=machine,
                    config=config,
                    params=params,
                    simulate=simulate,
                    initial_chains=chains,
                )
            )
    return jobs
