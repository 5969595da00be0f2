"""JobSpec: the JSON wire format for one compilation request.

A :class:`JobSpec` is the *transportable* description of a
:class:`~repro.batch.jobs.CompileJob` — plain strings and numbers, so
it crosses an HTTP boundary as JSON and still resolves to the exact
same job (same content fingerprint) on the other side.  It is the
contract shared by the serving layer (``POST /v1/jobs`` bodies,
:mod:`repro.serve`) and the load generator's live mode
(:meth:`repro.loadgen.Scenario.spec_stream`), which is what makes a
live load run comparable to an in-process one: both expand the same
scenario draws, one side resolving locally, the other resolving inside
the server.

Two circuit kinds:

* ``random`` — a seeded random circuit; ``qubits``/``gates``/``seed``/
  ``family`` are the full generator input, so resolution is a pure
  function of the spec.
* ``bench`` — a named paper-suite generator (deterministic, built once
  and cached).

Validation is strict and bounded: unknown keys, unknown names, and
out-of-range sizes (:data:`MAX_QUBITS` / :data:`MAX_GATES` /
:data:`MAX_TRAPS`) all raise ``ValueError`` — the serving layer maps
that to a structured 400, so a malformed or abusive request never
reaches a worker.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import lru_cache

from ..arch.presets import machine_from_spec, spec_num_traps
from ..bench.qaoa import qaoa_circuit
from ..bench.qft import qft_circuit
from ..bench.quadraticform import quadratic_form_circuit
from ..bench.random_circuits import random_circuit
from ..bench.squareroot import squareroot_circuit
from ..bench.supremacy import supremacy_circuit
from ..compiler.config import CompilerConfig
from .jobs import CompileJob

#: Named paper-suite generators available to ``bench`` specs.
#: ``qft``/``qaoa`` honor the ``qubits`` knob; the other three are
#: fixed at their paper sizes (their size axes are not a single qubit
#: count).
BENCH_FACTORIES = {
    "qft": lambda qubits: qft_circuit(qubits or 64),
    "qaoa": lambda qubits: qaoa_circuit(qubits or 64),
    "supremacy": lambda qubits: supremacy_circuit(),
    "squareroot": lambda qubits: squareroot_circuit(),
    "quadraticform": lambda qubits: quadratic_form_circuit(),
}

CONFIG_FACTORIES = {
    "baseline": CompilerConfig.baseline,
    "optimized": CompilerConfig.optimized,
}

#: Admission bounds: requests beyond these are validation errors, not
#: work.  Generous against the paper suite (64 qubits, 1438 gates) but
#: a hard stop for abusive payloads.
MAX_QUBITS = 256
MAX_GATES = 50_000
#: Checked on the spec string before the machine is built: building
#: one takes time superlinear in its trap count (a 6400-trap grid,
#: tens of seconds), and validation runs on a request handler thread.
MAX_TRAPS = 64

_RANDOM_FAMILIES = ("uniform", "layered")


@lru_cache(maxsize=64)
def _resolve_machine(spec: str):
    return machine_from_spec(spec)


@lru_cache(maxsize=8)
def _resolve_config(name: str):
    return CONFIG_FACTORIES[name]()


@lru_cache(maxsize=64)
def _bench_circuit(name: str, qubits: int | None):
    return BENCH_FACTORIES[name](qubits)


@lru_cache(maxsize=512)
def _random_circuit(qubits: int, gates: int, seed: int, family: str):
    return random_circuit(qubits, gates, seed=seed, family=family)


@dataclass(frozen=True)
class JobSpec:
    """One JSON-able compilation request (see the module docstring)."""

    kind: str
    machine: str = "l6"
    config: str = "optimized"
    #: ``bench`` generator name (``kind="bench"`` only).
    name: str = ""
    qubits: int | None = None
    gates: int | None = None
    #: Random-circuit seed (``kind="random"`` only; required so the
    #: spec resolves to one circuit, not a fresh draw per resolution).
    seed: int | None = None
    family: str = "uniform"
    simulate: bool = False
    #: Per-job wall-clock budget, seconds; propagated into
    #: :attr:`CompileJob.deadline` so the supervised pool enforces it.
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("random", "bench"):
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.config not in CONFIG_FACTORIES:
            raise ValueError(
                f"unknown config {self.config!r}; "
                f"choose from {sorted(CONFIG_FACTORIES)}"
            )
        traps = spec_num_traps(self.machine)  # raises ValueError on typos
        if traps > MAX_TRAPS:
            raise ValueError(
                f"machine {self.machine!r} has {traps} traps; "
                f"at most {MAX_TRAPS} are admitted"
            )
        _resolve_machine(self.machine)
        if self.kind == "bench":
            if self.name not in BENCH_FACTORIES:
                raise ValueError(
                    f"unknown bench circuit {self.name!r}; "
                    f"choose from {sorted(BENCH_FACTORIES)}"
                )
        else:
            if not self.qubits:
                raise ValueError("random specs need a qubit count")
            if self.qubits < 2:
                raise ValueError(
                    f"random specs need at least 2 qubits, got {self.qubits}"
                )
            if self.seed is None:
                raise ValueError("random specs need a circuit seed")
            if self.family not in _RANDOM_FAMILIES:
                raise ValueError(
                    f"unknown random family {self.family!r}; "
                    f"choose from {_RANDOM_FAMILIES}"
                )
        if self.qubits is not None and not (
            0 < self.qubits <= MAX_QUBITS
        ):
            raise ValueError(
                f"qubits must be in 1..{MAX_QUBITS}, got {self.qubits}"
            )
        if self.gates is not None and not (0 < self.gates <= MAX_GATES):
            raise ValueError(
                f"gates must be in 1..{MAX_GATES}, got {self.gates}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(
                f"deadline must be > 0 seconds, got {self.deadline}"
            )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able document; :meth:`from_dict` round-trips it."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Build a spec from a :meth:`to_dict`-shaped document.

        Unknown keys are rejected (``ValueError``) — a mistyped field
        in a request must fail loudly, not silently change meaning.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"job spec must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown job spec field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**data)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self) -> CompileJob:
        """The :class:`CompileJob` this spec describes.

        Pure in the spec: equal specs resolve to jobs with equal
        content fingerprints, in any process (machines, configs and
        deterministic bench circuits are cached module-wide).
        """
        if self.kind == "random":
            circuit = _random_circuit(
                self.qubits, self.gates or 120, self.seed, self.family
            )
        else:
            circuit = _bench_circuit(self.name, self.qubits)
        return CompileJob(
            circuit=circuit,
            machine=_resolve_machine(self.machine),
            config=_resolve_config(self.config),
            simulate=self.simulate,
            deadline=self.deadline,
        )

    def fingerprint(self) -> str:
        """Content fingerprint of the resolved job (never includes the
        deadline — an execution budget, not a compilation input)."""
        return self.resolve().fingerprint()

    @property
    def label(self) -> str:
        """Human-readable identity for progress lines and records."""
        if self.kind == "bench":
            circuit = self.name + (f"{self.qubits}" if self.qubits else "")
        else:
            circuit = f"random:{self.qubits}:{self.gates or 120}:{self.seed}"
        return f"{circuit} @ {self.machine} / {self.config}"
